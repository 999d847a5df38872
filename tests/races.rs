//! Race tests: the §3.2 clock-increment cases and the §3.1 in-flight
//! reference window, exercised through the full middleware.

use grid_dgc::activeobj::activity::{AoCtx, Behavior, Inert};
use grid_dgc::activeobj::collector::CollectorKind;
use grid_dgc::activeobj::request::Request;
use grid_dgc::activeobj::runtime::{Grid, GridConfig};
use grid_dgc::dgc::config::DgcConfig;
use grid_dgc::dgc::units::Dur;
use grid_dgc::dgc::TerminateReason;
use grid_dgc::simnet::rng::SimRng;
use grid_dgc::simnet::time::SimDuration;
use grid_dgc::simnet::topology::{ProcId, Topology};
use grid_dgc::workloads::scenarios;

fn dgc() -> DgcConfig {
    DgcConfig::builder()
        .ttb(Dur::from_secs(30))
        .tta(Dur::from_secs(61))
        .max_comm(Dur::from_millis(500))
        .build()
}

fn grid(seed: u64) -> Grid {
    Grid::new(
        GridConfig::new(Topology::single_site(6, SimDuration::from_millis(1)))
            .collector(CollectorKind::Complete(dgc()))
            .seed(seed),
    )
}

#[test]
fn fig5_dying_referencer_leaves_collectable_cycle() {
    // A references a cycle; A is acyclic garbage. When A goes, the cycle
    // must notice the loss of a referencer, bump to a clock owned inside
    // the cycle, and reach its own consensus (case 2 of Fig. 5).
    let mut g = grid(1);
    let (a, cycle) = scenarios::fig5(&mut g, 6);
    g.run_for(SimDuration::from_secs(2_000));
    assert!(!g.is_alive(a));
    assert!(cycle.iter().all(|id| !g.is_alive(*id)));
    assert!(g.violations().is_empty());
    let stats = g.dgc_stats();
    assert!(
        stats.bumps_lost_referencer > 0,
        "Fig. 5's bump must have happened"
    );
}

#[test]
fn fig6_edge_removal_mid_consensus_is_safe() {
    // The cycle is blocked by busy d. Remove the c→a edge (the parent
    // edge in the paper's narration) while consensus attempts circulate:
    // without the loss-of-referenced bump this wrongly collects the
    // cycle; with it, everyone stays alive while d is busy.
    let mut g = grid(2);
    let (cycle, d) = scenarios::fig6(&mut g, 6);
    g.run_for(SimDuration::from_secs(400));
    assert!(cycle.iter().all(|id| g.is_alive(*id)));
    // Sever the c→a edge mid-flight (a "loss of a referenced"). Busy d
    // still reaches every member through a→b→c→e→a, so NOTHING may be
    // collected — this is precisely the wrongful collection Fig. 6 warns
    // about if the clock were not bumped on the edge loss.
    g.drop_ref(cycle[2], cycle[0]);
    g.run_for(SimDuration::from_secs(1_200));
    assert!(
        cycle.iter().all(|id| g.is_alive(*id)),
        "no wrongful collection"
    );
    assert!(g.is_alive(d));
    assert!(g.violations().is_empty(), "{:?}", g.violations());
    assert!(g.dgc_stats().bumps_lost_referenced > 0);
    // Now sever the busy referencer's edge: the remaining a→b→c→e→a
    // cycle is garbage and must be reclaimed.
    g.drop_ref(d, cycle[0]);
    g.run_for(SimDuration::from_secs(1_500));
    assert!(cycle.iter().all(|id| !g.is_alive(*id)));
    assert!(g.violations().is_empty(), "{:?}", g.violations());
}

/// Passes its reference to `next` on request, then drops its own stub —
/// the §3.1 "reference quickly exchanged between two active objects"
/// pattern that the must-send-once rule protects.
struct PassAlong {
    next: Option<grid_dgc::dgc::AoId>,
}

impl Behavior for PassAlong {
    fn on_request(&mut self, ctx: &mut AoCtx<'_>, request: &Request) {
        if request.method != 7 {
            return;
        }
        let target = request.refs[0];
        if let Some(next) = self.next {
            // Forward the hot potato and immediately drop our stub.
            ctx.send(next, 7, 16, vec![target]);
        }
        ctx.release_all(target);
        ctx.compute(SimDuration::from_millis(1));
    }
}

#[test]
fn hot_potato_reference_survives_rapid_exchange() {
    // target is only ever referenced by whoever holds the potato, and
    // each holder drops its stub right after forwarding. The in-flight
    // message plus the must-send-once rule must keep target alive for
    // the whole relay, and collect it only after the relay ends.
    let mut g = grid(3);
    let target = g.spawn(ProcId(5), Box::new(Inert));
    // Relay chain of 6 hops across processes.
    let mut next = None;
    let mut relays = Vec::new();
    for i in (0..6).rev() {
        let r = g.spawn_root(ProcId(i), Box::new(PassAlong { next }));
        relays.push(r);
        next = Some(r);
    }
    let first = *relays.last().expect("non-empty");
    // Seed: a dummy root hands the potato to the first relay.
    let dummy = g.spawn_root(ProcId(0), Box::new(Inert));
    g.make_ref(dummy, target);
    g.make_ref(dummy, first);
    let seeded = g.now();
    g.send_from(dummy, first, 7, 16, vec![target]);
    g.drop_ref(dummy, target);

    // The potato hops every ~ms, so the relay ends within milliseconds
    // of the seed send. Every holder but the last passed the reference
    // on at or after that send, so its farewell holds target until
    // 2·MaxComm + TTB after its pass-on: target is alive that long after
    // the seed, whatever the beat phases.
    let dgc = dgc();
    let horizon = dgc.max_comm.saturating_mul(2).saturating_add(dgc.ttb);
    g.run_until(seeded + SimDuration::from_nanos(horizon.as_nanos()));
    assert!(
        g.is_alive(target),
        "in-flight references must keep the target alive"
    );
    // After the relay finishes (last holder dropped it), it is acyclic
    // garbage, freed by the farewells' horizons, not by TTA of silence.
    g.run_for(SimDuration::from_secs(400));
    let record = g.collected().iter().find(|c| c.ao == target);
    assert_eq!(
        record.map(|c| c.reason),
        Some(Some(TerminateReason::Acyclic))
    );
    let lived = record.map(|c| c.at - seeded);
    assert!(
        lived.is_some_and(|d| d < SimDuration::from_nanos(dgc.tta.as_nanos())),
        "{lived:?}"
    );
    assert!(g.violations().is_empty(), "{:?}", g.violations());
}

/// Alternates between busy and idle forever by re-arming timers slowly.
struct Blinker {
    period: SimDuration,
}

impl Behavior for Blinker {
    fn on_start(&mut self, ctx: &mut AoCtx<'_>) {
        ctx.set_timer(self.period, 0);
    }
    fn on_timer(&mut self, ctx: &mut AoCtx<'_>, _token: u64) {
        ctx.compute(SimDuration::from_secs(5));
        ctx.set_timer(self.period, 0);
    }
}

#[test]
fn blinking_member_never_lets_the_cycle_die() {
    // One cycle member alternates idle/busy on a period incommensurate
    // with TTB. The clock bump on every busy→idle transition must keep
    // invalidating consensus attempts: nothing may ever be collected.
    let mut g = grid(4);
    let a = g.spawn(
        ProcId(0),
        Box::new(Blinker {
            period: SimDuration::from_secs(47),
        }),
    );
    let b = g.spawn(ProcId(1), Box::new(Inert));
    let c = g.spawn(ProcId(2), Box::new(Inert));
    g.make_ref(a, b);
    g.make_ref(b, c);
    g.make_ref(c, a);
    g.run_for(SimDuration::from_secs(5_000));
    assert!(g.is_alive(a) && g.is_alive(b) && g.is_alive(c));
    assert!(g.violations().is_empty());
    assert!(
        g.dgc_stats().bumps_became_idle > 50,
        "the blinker kept bumping"
    );
}

#[test]
fn late_idle_member_delays_then_releases_consensus() {
    // The cycle forms early; one member stays busy for a long while.
    // After it finally idles, collection must complete within the
    // O(h·TTB) + TTA bound (generously slackened here).
    let mut g = grid(5);
    let a = g.spawn(
        ProcId(0),
        Box::new(Blinker {
            period: SimDuration::from_secs(40),
        }),
    );
    let b = g.spawn(ProcId(1), Box::new(Inert));
    g.make_ref(a, b);
    g.make_ref(b, a);
    g.run_for(SimDuration::from_secs(600));
    assert!(g.is_alive(a) && g.is_alive(b));
    // Stop the blinker by removing it: kill is an explicit termination,
    // after which b loses its referencer and dies acyclically.
    g.kill(a);
    g.run_for(SimDuration::from_secs(300));
    assert!(!g.is_alive(b));
    assert!(g.violations().is_empty());
}

/// A member whose blinker idles between bursts still has a timer
/// pending: the timer holds it as a §4.1 dummy referencer would, so its
/// idle windows never make the cycle garbage. Whatever the beat phases
/// and the burst period, nothing is collected and no termination is a
/// violation, while every burst still bumps the clock. Each seed spawns
/// the pair at its own instant within the first TTB, so the seeds move
/// the bursts against the beat grid.
#[test]
fn a_pending_timer_holds_a_blinking_cycle_under_many_seeds() {
    let ttb = SimDuration::from_nanos(dgc().ttb.as_nanos());
    for period in [35, 40, 43, 47] {
        for seed in 0..12 {
            let mut g = grid(200 + seed);
            g.run_for(SimRng::from_seed(seed).jitter(ttb));
            let a = g.spawn(
                ProcId(0),
                Box::new(Blinker {
                    period: SimDuration::from_secs(period),
                }),
            );
            let b = g.spawn(ProcId(1), Box::new(Inert));
            g.make_ref(a, b);
            g.make_ref(b, a);
            g.run_for(SimDuration::from_secs(600));
            let case = format!("period {period} s, seed {seed}");
            assert!(g.is_alive(a) && g.is_alive(b), "{case}");
            assert!(g.violations().is_empty(), "{case}: {:?}", g.violations());
            assert!(g.dgc_stats().bumps_became_idle >= 10, "{case}");
        }
    }
}

#[test]
fn late_idle_pinned_member_releases_consensus_within_the_bound() {
    // The cycle forms early and one member is pinned busy for 600 s.
    // Once it idles, the cycle is garbage and must be collected by
    // consensus within the O(h·TTB) + TTA bound (generously slackened).
    let mut g = grid(6);
    let a = g.spawn(ProcId(0), Box::new(Inert));
    g.set_busy(a, true);
    let b = g.spawn(ProcId(1), Box::new(Inert));
    g.make_ref(a, b);
    g.make_ref(b, a);
    g.run_for(SimDuration::from_secs(600));
    assert!(g.is_alive(a) && g.is_alive(b));
    g.set_busy(a, false);
    g.run_for(SimDuration::from_secs(300));
    assert!(!g.is_alive(a) && !g.is_alive(b));
    assert!(g.collected().iter().all(|c| c.reason.is_some()));
    assert!(g.violations().is_empty(), "{:?}", g.violations());
}

#[test]
fn idle_busy_churn_under_many_seeds_is_safe() {
    for seed in 0..8 {
        let mut g = grid(100 + seed);
        let ids = scenarios::random_graph(&mut g, 16, 6, 2, seed);
        // A root pokes random activities periodically, creating bursts
        // of busyness racing the collector.
        let root = g.spawn_root(ProcId(0), Box::new(Inert));
        for id in &ids {
            g.make_ref(root, *id);
        }
        for round in 0..10u64 {
            let victim = ids[(seed as usize + round as usize * 5) % ids.len()];
            g.send_from(root, victim, 1, 64, vec![]);
            g.run_for(SimDuration::from_secs(20));
        }
        // Release everything: the whole graph is garbage now.
        for id in &ids {
            g.drop_ref(root, *id);
        }
        g.run_for(SimDuration::from_secs(3_000));
        assert!(
            ids.iter().all(|id| !g.is_alive(*id)),
            "seed {seed}: liveness violated, {} left",
            ids.iter().filter(|id| g.is_alive(**id)).count()
        );
        assert!(
            g.violations().is_empty(),
            "seed {seed}: {:?}",
            g.violations()
        );
    }
}
