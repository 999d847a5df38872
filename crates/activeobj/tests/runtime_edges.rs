//! Edge-case tests of the grid runtime: deployment metering, sampling,
//! dead-call accounting, future semantics, and local-GC sweep timing.

use dgc_activeobj::activity::{AoCtx, Behavior, Inert};
use dgc_activeobj::collector::CollectorKind;
use dgc_activeobj::request::{FutureId, Reply, Request};
use dgc_activeobj::runtime::{Grid, GridConfig};
use dgc_core::config::DgcConfig;
use dgc_core::units::Dur;
use dgc_simnet::time::SimDuration;
use dgc_simnet::topology::{ProcId, Topology};
use dgc_simnet::traffic::TrafficClass;

fn dgc() -> DgcConfig {
    DgcConfig::builder()
        .ttb(Dur::from_secs(30))
        .tta(Dur::from_secs(61))
        .max_comm(Dur::from_millis(500))
        .build()
}

fn base_config() -> GridConfig {
    GridConfig::new(Topology::single_site(4, SimDuration::from_millis(1))).seed(5)
}

#[test]
fn deployment_bytes_charged_once_per_remote_process() {
    let mut g = Grid::new(base_config().deployment_bytes(1_000));
    // Two activities on proc 1, one on proc 2, one on proc 0 (deployer).
    g.spawn(ProcId(1), Box::new(Inert));
    g.spawn(ProcId(1), Box::new(Inert));
    g.spawn(ProcId(2), Box::new(Inert));
    g.spawn(ProcId(0), Box::new(Inert));
    assert_eq!(
        g.traffic().bytes(TrafficClass::AppRequest),
        2_000,
        "one charge per remote process, none for the deployer's own"
    );
}

#[test]
fn samples_appear_at_the_configured_period() {
    let mut g = Grid::new(base_config().sample_every(SimDuration::from_secs(10)));
    g.spawn(ProcId(0), Box::new(Inert));
    g.run_for(SimDuration::from_secs(95));
    let samples = g.samples();
    assert_eq!(samples.len(), 9, "one sample per 10 s in (0, 95]");
    assert!(samples.windows(2).all(|w| w[1].at > w[0].at));
    assert_eq!(samples[0].alive, 1);
    assert_eq!(samples[0].idle, 1);
}

#[test]
fn requests_to_killed_activities_are_counted() {
    let mut g = Grid::new(base_config());
    let root = g.spawn_root(ProcId(0), Box::new(Inert));
    let victim = g.spawn(ProcId(1), Box::new(Inert));
    g.make_ref(root, victim);
    g.kill(victim);
    g.send_from(root, victim, 1, 8, vec![]);
    g.run_for(SimDuration::from_secs(1));
    assert_eq!(g.app_sends_to_dead(), 1);
}

/// Replies immediately to any request carrying a future.
struct Echo;
impl Behavior for Echo {
    fn on_request(&mut self, ctx: &mut AoCtx<'_>, req: &Request) {
        if let Some(f) = req.future {
            ctx.reply(f, 4, vec![]);
        }
    }
}

#[test]
fn unawaited_reply_is_stored_not_handled() {
    // §4.1: a future value cannot wake an idle activity. The caller
    // fires a call without awaiting; the reply must be stored silently,
    // the on_reply handler must NOT run, and the caller must be idle at
    // arrival time.
    let mut g = Grid::new(base_config());
    let echo = g.spawn_root(ProcId(0), Box::new(Echo));
    struct Caller {
        target: dgc_core::id::AoId,
        handled: u32,
    }
    impl Behavior for Caller {
        fn on_start(&mut self, ctx: &mut AoCtx<'_>) {
            ctx.set_timer(SimDuration::from_millis(5), 1);
        }
        fn on_timer(&mut self, ctx: &mut AoCtx<'_>, _t: u64) {
            ctx.call(self.target, 1, 8, vec![]);
        }
        fn on_reply(&mut self, _ctx: &mut AoCtx<'_>, _f: FutureId, _r: &Reply) {
            self.handled += 1;
        }
        fn as_any(&self) -> Option<&dyn std::any::Any> {
            Some(self)
        }
    }
    let caller = g.spawn(
        ProcId(1),
        Box::new(Caller {
            target: echo,
            handled: 0,
        }),
    );
    g.make_ref(caller, echo);
    g.run_for(SimDuration::from_secs(2));
    let act = g
        .activity(caller)
        .expect("alive (referenced by nothing… still within TTA)");
    let probe = act
        .behavior
        .as_any()
        .and_then(|a| a.downcast_ref::<Caller>())
        .expect("caller behavior");
    assert_eq!(probe.handled, 0, "no handler for a never-awaited future");
    assert_eq!(act.stored_replies.len(), 1, "value stored for later use");
    assert!(act.is_idle(), "arrival did not wake it");
}

#[test]
fn dropped_edge_detected_at_next_sweep_not_sooner() {
    // local_gc_period = 10 s: releasing the last stub must not reach the
    // collector before the sweep fires.
    let mut cfg = base_config().collector(CollectorKind::Complete(dgc()));
    cfg.local_gc_period = SimDuration::from_secs(10);
    cfg.tick_jitter = false;
    let mut g = Grid::new(cfg);
    let root = g.spawn_root(ProcId(0), Box::new(Inert));
    let a = g.spawn(ProcId(1), Box::new(Inert));
    g.make_ref(root, a);
    g.run_for(SimDuration::from_secs(50));
    let bumps_before = g.dgc_stats().bumps_lost_referenced;
    g.drop_ref(root, a);
    // Within the same sweep period: the edge is still reported.
    g.run_for(SimDuration::from_millis(100));
    assert_eq!(g.dgc_stats().bumps_lost_referenced, bumps_before);
    // After the sweep: the loss is registered (clock bump on root).
    g.run_for(SimDuration::from_secs(12));
    assert!(g.dgc_stats().bumps_lost_referenced > bumps_before);
    // And a eventually dies of silence.
    g.run_for(SimDuration::from_secs(120));
    assert!(!g.is_alive(a));
    assert!(g.violations().is_empty());
}

#[test]
fn trace_records_lifecycle_when_enabled() {
    use dgc_simnet::TraceLevel;
    let mut g = Grid::new(
        base_config()
            .collector(CollectorKind::Complete(dgc()))
            .trace_level(TraceLevel::Info),
    );
    let a = g.spawn(ProcId(0), Box::new(Inert));
    g.run_for(SimDuration::from_secs(120));
    assert!(!g.is_alive(a));
    let tagged = |tag| g.trace().events().iter().filter(|e| e.tag == tag).count();
    assert!(tagged("spawn") >= 1);
    assert_eq!(tagged("terminate"), 1);
}

#[test]
fn reset_traffic_supports_phase_measurements() {
    let mut g = Grid::new(base_config().deployment_bytes(1_000));
    g.spawn(ProcId(1), Box::new(Inert));
    assert!(g.traffic().total_bytes() > 0);
    g.reset_traffic();
    assert_eq!(g.traffic().total_bytes(), 0);
}

#[test]
fn self_requests_cycle_through_busy_and_back() {
    // An activity sending itself a request is busy while serving it and
    // idle right after — intra-process, so zero metered traffic.
    struct SelfCall {
        rounds: u32,
    }
    impl Behavior for SelfCall {
        fn on_start(&mut self, ctx: &mut AoCtx<'_>) {
            let me = ctx.me();
            ctx.send(me, 1, 8, vec![]);
        }
        fn on_request(&mut self, ctx: &mut AoCtx<'_>, _req: &Request) {
            self.rounds += 1;
            if self.rounds < 5 {
                let me = ctx.me();
                ctx.send(me, 1, 8, vec![]);
            }
            ctx.compute(SimDuration::from_millis(10));
        }
        fn as_any(&self) -> Option<&dyn std::any::Any> {
            Some(self)
        }
    }
    let mut g = Grid::new(base_config());
    let a = g.spawn(ProcId(2), Box::new(SelfCall { rounds: 0 }));
    g.run_for(SimDuration::from_secs(1));
    let act = g.activity(a).expect("alive");
    let b = act
        .behavior
        .as_any()
        .and_then(|x| x.downcast_ref::<SelfCall>())
        .unwrap();
    assert_eq!(b.rounds, 5);
    assert!(act.is_idle());
    assert_eq!(
        g.traffic().total_bytes(),
        0,
        "intra-process messages are free"
    );
}
