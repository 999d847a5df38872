//! # dgc-conformance — one scenario, two runtimes, one verdict
//!
//! The paper's safety claim (§4.2) is conditional: the DGC collects no
//! live activity only while `TTA > 2·TTB + MaxComm` holds under the
//! delays, losses and pauses the deployment actually experiences. The
//! simulator (`dgc-activeobj` over `dgc-simnet`) can explore that bound
//! deterministically; the socket runtime (`dgc-rt-net`) experiences it
//! for real through a chaos proxy. This crate makes the two runs *the
//! same experiment*:
//!
//! * a [`Scenario`] is a runtime-neutral description — how many nodes,
//!   a timed script of spawn / reference / idleness operations, a
//!   [`FaultProfile`], and the verdict the wrongful-collection oracle
//!   is expected to reach;
//! * [`run_simnet`] replays it on the deterministic grid (profile
//!   realized as delivery-time arithmetic, pauses as deferred events);
//! * [`run_rtnet`] replays it on a localhost TCP cluster with a
//!   [`dgc_rt_net::chaos::ChaosProxy`] on every directed link and real
//!   stop-the-world pauses in the node event loops;
//! * [`evaluate`] derives the [`Verdict`] for either run from the same
//!   ground truth: the script *is* the application, so the oracle's
//!   live set (equation (1), via [`dgc_activeobj::oracle::live_set`])
//!   is computable at any instant without trusting the runtime under
//!   test.
//!
//! A scenario **conforms** when both runtimes reach the expected
//! verdict — under every seed the suite is run with. The four canonical
//! scenarios in [`scenarios`] pin the §4.2 quadrants: faults inside the
//! slack (safe), a delay past TTA (wrongful collection), a partition
//! that heals inside the slack (safe), and a local-GC-style pause past
//! TTA (wrongful collection).
//!
//! Times are nanoseconds since scenario start on both sides: virtual
//! [`SimTime`] in the simulator, wall-clock offsets from the cluster
//! epoch on sockets. Scenarios therefore use millisecond-scale TTB/TTA
//! so a socket run finishes in seconds.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use dgc_activeobj::activity::Inert;
use dgc_activeobj::collector::CollectorKind;
use dgc_activeobj::oracle::{live_set, Snapshot};
use dgc_activeobj::runtime::{Grid, GridConfig};
use dgc_core::config::DgcConfig;
use dgc_core::faults::FaultProfile;
use dgc_core::id::AoId;
use dgc_core::units::{Dur, Time};
use dgc_membership::MembershipConfig;
use dgc_obs::TraceEvent;
pub use dgc_obs::TraceLevel;
use dgc_rt_net::{Cluster, NetConfig};
use dgc_simnet::time::{SimDuration, SimTime};
use dgc_simnet::topology::{ProcId, Topology};

pub mod scenarios;
pub mod workload;

// ---------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------

/// Events kept per node when a runner captures a trace tail for a
/// failure dump.
pub const TRACE_TAIL: usize = 100;

/// The trace level conformance runs record at: `DGC_TRACE=info` (or
/// `debug`) turns the telemetry plane's tracer on in **both** runtimes,
/// so a verdict disagreement comes with the protocol events that led to
/// it. Unset, empty or unrecognized means off — the default keeps the
/// suite allocation-free.
pub fn env_trace_level() -> TraceLevel {
    std::env::var("DGC_TRACE")
        .ok()
        .and_then(|s| TraceLevel::parse(&s))
        .unwrap_or(TraceLevel::Off)
}

/// What a runner observed besides the verdict: the merged metric
/// snapshot of every node and the recent trace events (per node on
/// sockets; the grid shares one ring across its processes).
#[derive(Debug, Clone, Default)]
pub struct RunTelemetry {
    /// Union of every node's [`dgc_obs::Registry`] snapshot.
    pub snapshot: dgc_obs::Snapshot,
    /// `(label, most recent events)` per trace ring.
    pub trace_tails: Vec<(String, Vec<TraceEvent>)>,
}

impl RunTelemetry {
    /// Renders the trace tails for a failure dump; points at
    /// `DGC_TRACE` when nothing was recorded.
    pub fn dump_tails(&self, runtime: &str, scenario: &str) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        if self.trace_tails.iter().all(|(_, t)| t.is_empty()) {
            let _ = writeln!(
                out,
                "--- {runtime} trace of {scenario}: empty \
                 (re-run with DGC_TRACE=info or DGC_TRACE=debug to capture one) ---"
            );
            return out;
        }
        for (label, tail) in &self.trace_tails {
            let _ = writeln!(
                out,
                "--- {runtime} trace tail of {scenario}, {label} (last {} events) ---",
                tail.len()
            );
            for ev in tail {
                let _ = writeln!(out, "{ev}");
            }
        }
        out
    }
}

/// One scripted operation, applied at a scenario time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Creates activity `tag` on `node`, initially busy or idle.
    Spawn {
        /// Scenario-local activity name.
        tag: usize,
        /// Hosting node.
        node: u32,
        /// Initial busy state.
        busy: bool,
    },
    /// Flips `tag` idle (`true`) or busy (`false`).
    SetIdle {
        /// The activity.
        tag: usize,
        /// New idleness.
        idle: bool,
    },
    /// Adds the application reference `from → to`.
    AddRef {
        /// Referencer tag.
        from: usize,
        /// Referenced tag.
        to: usize,
    },
    /// Drops the application reference `from → to`.
    DropRef {
        /// Referencer tag.
        from: usize,
        /// Referenced tag.
        to: usize,
    },
    /// `node` departs **gracefully** (clean shutdown): its membership
    /// engine announces `Left`, the farewell flushes, and every
    /// activity it hosts dies with it — the environment's kill, not a
    /// collection (like a crash, but peers learn immediately instead of
    /// waiting out the suspicion timeout). Requires
    /// [`Scenario::membership`].
    Leave {
        /// The departing node.
        node: u32,
    },
}

/// An [`Op`] with its scenario time.
#[derive(Debug, Clone, Copy)]
pub struct ScriptOp {
    /// When to apply it (nanoseconds since scenario start).
    pub at: Time,
    /// What to do.
    pub op: Op,
}

/// The oracle's summary of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Some activity was terminated while the ground-truth live set
    /// still contained it (the §4.2 failure mode).
    pub wrongful_collection: bool,
    /// At the end of the run, some garbage activity was still alive
    /// (the liveness half of the contract).
    pub leftover_garbage: bool,
}

impl Verdict {
    /// Everything the paper promises: nothing live collected, nothing
    /// garbage left.
    pub const SAFE_AND_COMPLETE: Verdict = Verdict {
        wrongful_collection: false,
        leftover_garbage: false,
    };
    /// The bound was violated and a live activity fell.
    pub const WRONGFUL: Verdict = Verdict {
        wrongful_collection: true,
        leftover_garbage: false,
    };
}

/// A runtime-neutral conformance scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (test output, CI logs).
    pub name: &'static str,
    /// Node count (simulator processes / socket nodes).
    pub nodes: u32,
    /// Protocol parameters; must satisfy the static safety formula —
    /// the *faults* decide whether the run stays inside it.
    pub dgc: DgcConfig,
    /// Timed operations, sorted by time.
    pub script: Vec<ScriptOp>,
    /// The faults, unseeded; runners seed it per run.
    pub profile: FaultProfile,
    /// Membership timings, for churn scenarios: the simulator runs a
    /// gossip engine per process, the socket runner builds a
    /// seed-bootstrapped join cluster instead of a statically wired
    /// one. `None` keeps the pre-membership wiring.
    pub membership: Option<MembershipConfig>,
    /// Evaluation horizon: virtual for the simulator, a wall-clock cap
    /// (with early exit once the verdict stabilizes) on sockets.
    pub horizon: Dur,
    /// The verdict both runtimes must reach.
    pub expect: Verdict,
}

/// One observed termination, in scenario time.
#[derive(Debug, Clone, Copy)]
pub struct Observation {
    /// When it was observed.
    pub at: Time,
    /// Which activity (scenario tag).
    pub tag: usize,
}

// ---------------------------------------------------------------------
// Ground truth
// ---------------------------------------------------------------------

/// Oracle ids are synthetic: the tag *is* the identity. (Runtime AoIds
/// differ between runtimes; verdicts must not depend on them.)
fn tag_id(tag: usize) -> AoId {
    AoId::new(0, tag as u32)
}

#[derive(Default)]
struct GroundTruth {
    spawned: BTreeSet<usize>,
    busy: BTreeSet<usize>,
    edges: BTreeSet<(usize, usize)>,
}

fn state_at(script: &[ScriptOp], t: Time) -> GroundTruth {
    let mut gt = GroundTruth::default();
    for s in script.iter().filter(|s| s.at <= t) {
        match s.op {
            Op::Spawn { tag, busy, .. } => {
                gt.spawned.insert(tag);
                if busy {
                    gt.busy.insert(tag);
                }
            }
            Op::SetIdle { tag, idle } => {
                if idle {
                    gt.busy.remove(&tag);
                } else {
                    gt.busy.insert(tag);
                }
            }
            Op::AddRef { from, to } => {
                gt.edges.insert((from, to));
            }
            Op::DropRef { from, to } => {
                gt.edges.remove(&(from, to));
            }
            // A leave's kills are folded into the terminated set by
            // `evaluate` (see `environment_kills`), not into the
            // busy/edge state.
            Op::Leave { .. } => {}
        }
    }
    gt
}

/// The tags the oracle deems live at `t`, given which tags have already
/// terminated (a terminated activity is neither busy nor a referencer).
fn live_tags(script: &[ScriptOp], t: Time, terminated: &BTreeSet<usize>) -> BTreeSet<usize> {
    let gt = state_at(script, t);
    let snap = Snapshot {
        roots: Vec::new(),
        busy: gt
            .busy
            .iter()
            .filter(|tag| !terminated.contains(tag))
            .map(|tag| tag_id(*tag))
            .collect(),
        edges: gt
            .edges
            .iter()
            .filter(|(from, _)| !terminated.contains(from))
            .map(|(from, to)| (tag_id(*from), tag_id(*to)))
            .collect(),
        inflight: Vec::new(),
    };
    let live = live_set(&snap);
    gt.spawned
        .iter()
        .filter(|tag| live.contains(&tag_id(**tag)))
        .copied()
        .collect()
}

/// The ground-truth kills the *environment* inflicts: every tag spawned
/// on a crashing node before the crash instant dies at `down.start`,
/// and every tag spawned on a gracefully leaving node before the
/// scripted [`Op::Leave`] dies at the leave instant. (Tags scripted
/// onto a node after a rejoin are new activities of the new
/// incarnation.) These are kills, not collections: [`evaluate`] folds
/// them into the terminated set — so a dead referencer stops
/// propagating liveness and a killed activity is neither "wrongfully
/// collected" nor "leftover garbage" — without ever convicting the
/// collector for them.
fn environment_kills(scenario: &Scenario) -> Vec<(Time, usize)> {
    let mut downs: Vec<(u32, Time)> = scenario
        .profile
        .node_crashes()
        .iter()
        .map(|c| (c.node, c.down.start))
        .collect();
    downs.extend(scenario.script.iter().filter_map(|s| match s.op {
        Op::Leave { node } => Some((node, s.at)),
        _ => None,
    }));
    let mut kills = Vec::new();
    for (down_node, down_at) in downs {
        for s in &scenario.script {
            if let Op::Spawn { tag, node, .. } = s.op {
                if node == down_node && s.at < down_at {
                    kills.push((down_at, tag));
                }
            }
        }
    }
    kills.sort();
    kills
}

/// Derives the verdict for a run from its observed **collector**
/// terminations. The same function judges both runtimes — that is the
/// whole point. Environment kills (crashes, graceful leaves) come from
/// the scenario itself (see [`environment_kills`]), never from the
/// runtime under test: runners must not report them as observations.
pub fn evaluate(scenario: &Scenario, observations: &[Observation]) -> Verdict {
    enum Ev {
        Kill(usize),
        Collect(usize),
    }
    let mut timeline: Vec<(Time, u8, Ev)> = environment_kills(scenario)
        .into_iter()
        .map(|(at, tag)| (at, 0, Ev::Kill(tag))) // kills first on ties
        .collect();
    timeline.extend(observations.iter().map(|o| (o.at, 1, Ev::Collect(o.tag))));
    timeline.sort_by_key(|(at, pri, ev)| {
        (
            *at,
            *pri,
            match ev {
                Ev::Kill(t) | Ev::Collect(t) => *t,
            },
        )
    });
    let mut terminated: BTreeSet<usize> = BTreeSet::new();
    let mut wrongful = false;
    for (at, _, ev) in &timeline {
        match ev {
            Ev::Kill(tag) => {
                terminated.insert(*tag);
            }
            Ev::Collect(tag) => {
                if !terminated.contains(tag)
                    && live_tags(&scenario.script, *at, &terminated).contains(tag)
                {
                    wrongful = true;
                }
                terminated.insert(*tag);
            }
        }
    }
    let end = Time::ZERO + scenario.horizon;
    let live = live_tags(&scenario.script, end, &terminated);
    let leftover = state_at(&scenario.script, end)
        .spawned
        .iter()
        .any(|tag| !terminated.contains(tag) && !live.contains(tag));
    Verdict {
        wrongful_collection: wrongful,
        leftover_garbage: leftover,
    }
}

// ---------------------------------------------------------------------
// Simulator runner
// ---------------------------------------------------------------------

/// Replays `scenario` on the deterministic simulator and returns the
/// oracle verdict. Panics if the harness ground truth and the grid's
/// built-in snapshot oracle ever disagree — that would mean the
/// scenario description and the runtime diverged, which is a harness
/// bug, not a protocol result.
pub fn run_simnet(scenario: &Scenario, seed: u64) -> Verdict {
    run_simnet_obs(scenario, seed).0
}

/// [`run_simnet`], also returning the run's [`RunTelemetry`] (merged
/// metric snapshot plus the grid's trace tail). Tracing records at
/// [`env_trace_level`].
pub fn run_simnet_obs(scenario: &Scenario, seed: u64) -> (Verdict, RunTelemetry) {
    let profile = scenario.profile.clone().seeded(seed);
    let topo = Topology::single_site(scenario.nodes, SimDuration::from_millis(2));
    let mut config = GridConfig::new(topo)
        .collector(CollectorKind::Complete(scenario.dgc))
        .seed(seed)
        .trace_level(env_trace_level())
        .fault_profile(&profile);
    if let Some(m) = scenario.membership {
        config = config.membership(m);
    }
    let mut grid = Grid::new(config);
    let mut ids: BTreeMap<usize, AoId> = BTreeMap::new();
    for s in &scenario.script {
        grid.run_until(SimTime::from_nanos(s.at.as_nanos()));
        match s.op {
            Op::Spawn { tag, node, busy } => {
                let id = grid.spawn(ProcId(node), Box::new(Inert));
                if busy {
                    grid.set_busy(id, true);
                }
                ids.insert(tag, id);
            }
            Op::SetIdle { tag, idle } => grid.set_busy(ids[&tag], !idle),
            Op::AddRef { from, to } => grid.make_ref(ids[&from], ids[&to]),
            Op::DropRef { from, to } => grid.drop_ref(ids[&from], ids[&to]),
            Op::Leave { node } => grid.leave_proc(ProcId(node)),
        }
    }
    grid.run_until(SimTime::from_nanos(
        (Time::ZERO + scenario.horizon).as_nanos(),
    ));

    let by_id: BTreeMap<AoId, usize> = ids.iter().map(|(tag, id)| (*id, *tag)).collect();
    // Only collector-driven terminations are observations; crash kills
    // (`reason: None`) are the environment's and already folded into
    // the ground truth by `evaluate`.
    let observations: Vec<Observation> = grid
        .collected()
        .iter()
        .filter(|c| c.reason.is_some())
        .map(|c| Observation {
            at: Time::from_nanos(c.at.as_nanos()),
            tag: by_id[&c.ao],
        })
        .collect();
    let verdict = evaluate(scenario, &observations);
    // One ring serves every grid process, so the per-node tail budget
    // pools into a single, longer tail.
    let telemetry = RunTelemetry {
        snapshot: grid.obs_merged(),
        trace_tails: vec![(
            "grid (all procs)".to_string(),
            grid.trace().tail(TRACE_TAIL * scenario.nodes as usize),
        )],
    };
    if verdict.wrongful_collection == grid.violations().is_empty() {
        eprint!("{}", telemetry.dump_tails("simnet", scenario.name));
        panic!(
            "{}: harness ground truth disagrees with the grid's built-in oracle \
             (harness wrongful: {}, violations: {:?})",
            scenario.name,
            verdict.wrongful_collection,
            grid.violations()
        );
    }
    (verdict, telemetry)
}

// ---------------------------------------------------------------------
// Socket runner
// ---------------------------------------------------------------------

/// Replays `scenario` on a localhost `dgc-rt-net` cluster whose every
/// directed link crosses a chaos proxy, and returns the oracle verdict.
///
/// Wall-clock runs cannot be replayed to an exact horizon the way
/// virtual-time runs can, so the runner polls: once the verdict matches
/// the scenario's expectation it keeps watching for a 2·TTA grace
/// window (late wrongful terminations would flip it back), then stops;
/// otherwise it watches until the horizon.
///
/// **Observation skew.** A termination is timestamped when the poll
/// first *sees* it, up to one poll interval (plus delivery) after it
/// happened. [`evaluate`] judges liveness at that skewed instant, so a
/// script transition landing within that skew of a termination could be
/// judged against the wrong side of the transition. Scenario design
/// rule (enforced by the canonical set, see [`scenarios`]): keep every
/// scripted state change ≥ 100 ms away from any instant the collector
/// could plausibly terminate an activity, and the skew is harmless.
pub fn run_rtnet(scenario: &Scenario, seed: u64) -> std::io::Result<Verdict> {
    Ok(run_rtnet_obs(scenario, seed)?.0)
}

/// [`run_rtnet`], also returning the run's [`RunTelemetry`] (merged
/// metric snapshot — chaos counters folded in — plus one trace tail per
/// surviving node). Tracing records at [`env_trace_level`].
pub fn run_rtnet_obs(scenario: &Scenario, seed: u64) -> std::io::Result<(Verdict, RunTelemetry)> {
    let profile = scenario.profile.clone().seeded(seed);
    // Churn scenarios — crashes or scripted graceful leaves — run on a
    // seed-bootstrapped join cluster (departures and rejoins need the
    // membership layer); everything else keeps the chaos-proxied static
    // topology.
    let has_leave = scenario
        .script
        .iter()
        .any(|s| matches!(s.op, Op::Leave { .. }));
    let config = NetConfig::new(scenario.dgc).trace(env_trace_level());
    let cluster = if profile.node_crashes().is_empty() && !has_leave {
        Cluster::listen_local_chaos(scenario.nodes, config, profile)?
    } else {
        let membership = scenario
            .membership
            .expect("churn scenarios must set Scenario::membership");
        Cluster::join_local_churn(scenario.nodes, config.membership(membership), &profile)?
    };
    let epoch = cluster.epoch();
    let now = |epoch: Instant| Time::from_nanos(epoch.elapsed().as_nanos() as u64);

    let mut ids: BTreeMap<usize, AoId> = BTreeMap::new();
    for s in &scenario.script {
        let target = Duration::from_nanos(s.at.as_nanos());
        let elapsed = epoch.elapsed();
        if elapsed < target {
            std::thread::sleep(target - elapsed);
        }
        match s.op {
            Op::Spawn { tag, node, busy } => {
                let id = cluster.add_activity(node);
                if !busy {
                    cluster.set_idle(id, true);
                }
                ids.insert(tag, id);
            }
            Op::SetIdle { tag, idle } => cluster.set_idle(ids[&tag], idle),
            Op::AddRef { from, to } => cluster.add_ref(ids[&from], ids[&to]),
            Op::DropRef { from, to } => cluster.drop_ref(ids[&from], ids[&to]),
            Op::Leave { node } => cluster.leave_node(node),
        }
    }

    let by_id: BTreeMap<AoId, usize> = ids.iter().map(|(tag, id)| (*id, *tag)).collect();
    let horizon = Duration::from_nanos(scenario.horizon.as_nanos());
    let grace = Duration::from_nanos(scenario.dgc.tta.as_nanos()).saturating_mul(2);
    // A matching verdict may only conclude the run after the scenario
    // has actually happened: every scripted op applied and every fault
    // window closed. Without this floor, a safe scenario expecting no
    // terminations would pass vacuously before its faults ever fired.
    let scenario_over = {
        let mut last = Time::ZERO;
        for s in &scenario.script {
            last = last.max(s.at);
        }
        for l in scenario.profile.link_disruptions() {
            last = last.max(l.window.end);
        }
        for p in scenario.profile.node_pauses() {
            last = last.max(p.window.end);
        }
        for c in scenario.profile.node_crashes() {
            last = last.max(if c.rejoin_incarnation.is_some() {
                c.down.end
            } else {
                c.down.start
            });
        }
        Duration::from_nanos(last.as_nanos())
    };
    let mut first_seen: BTreeMap<usize, Time> = BTreeMap::new();
    let mut matched_since: Option<Instant> = None;
    let verdict = loop {
        for t in cluster.terminated() {
            if let Some(tag) = by_id.get(&t.ao) {
                first_seen.entry(*tag).or_insert_with(|| now(epoch));
            }
        }
        let observations: Vec<Observation> = first_seen
            .iter()
            .map(|(tag, at)| Observation { at: *at, tag: *tag })
            .collect();
        let v = evaluate(scenario, &observations);
        if v == scenario.expect && epoch.elapsed() >= scenario_over {
            let since = *matched_since.get_or_insert_with(Instant::now);
            if since.elapsed() >= grace {
                break v;
            }
        } else {
            matched_since = None;
        }
        if epoch.elapsed() >= horizon {
            break v;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let trace_tails = (0..scenario.nodes)
        .filter_map(|node| {
            let reg = cluster.obs(node)?;
            Some((format!("node {node}"), reg.tracer().tail(TRACE_TAIL)))
        })
        .collect();
    let telemetry = RunTelemetry {
        snapshot: cluster.obs_merged(),
        trace_tails,
    };
    cluster.shutdown();
    Ok((verdict, telemetry))
}

// ---------------------------------------------------------------------
// Seeds
// ---------------------------------------------------------------------

/// The fixed seeds the suite runs under when none is requested.
pub const DEFAULT_SEEDS: [u64; 3] = [11, 42, 2026_0731];

/// Seeds for this run: `CONFORMANCE_SEED=<n>` selects a single seed
/// (the CI random job sets it and echoes the value for reproduction);
/// otherwise [`DEFAULT_SEEDS`].
pub fn seeds() -> Vec<u64> {
    match std::env::var("CONFORMANCE_SEED") {
        Ok(s) => {
            let seed = s
                .trim()
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("CONFORMANCE_SEED must be a u64, got {s:?}"));
            vec![seed]
        }
        Err(_) => DEFAULT_SEEDS.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_scenario(expect: Verdict) -> Scenario {
        Scenario {
            name: "toy",
            nodes: 2,
            dgc: scenarios::conformance_dgc(),
            script: vec![
                ScriptOp {
                    at: Time::ZERO,
                    op: Op::Spawn {
                        tag: 0,
                        node: 0,
                        busy: true,
                    },
                },
                ScriptOp {
                    at: Time::ZERO,
                    op: Op::Spawn {
                        tag: 1,
                        node: 1,
                        busy: true,
                    },
                },
                ScriptOp {
                    at: Time::ZERO,
                    op: Op::AddRef { from: 0, to: 1 },
                },
                ScriptOp {
                    at: Time::from_nanos(100_000_000),
                    op: Op::SetIdle { tag: 1, idle: true },
                },
            ],
            profile: FaultProfile::none(),
            membership: None,
            horizon: Dur::from_secs(10),
            expect,
        }
    }

    #[test]
    fn evaluate_flags_wrongful_termination() {
        let s = toy_scenario(Verdict::WRONGFUL);
        // Tag 1 is referenced by busy tag 0: terminating it is wrongful.
        let v = evaluate(
            &s,
            &[Observation {
                at: Time::from_nanos(500_000_000),
                tag: 1,
            }],
        );
        assert!(v.wrongful_collection);
        assert!(!v.leftover_garbage, "nothing alive is garbage");
    }

    #[test]
    fn evaluate_accepts_garbage_termination_before_the_script_says_so() {
        let mut s = toy_scenario(Verdict::SAFE_AND_COMPLETE);
        // Tag 0 goes idle at 200 ms; terminating tag 1 *before* that is
        // wrongful, after it is correct collection.
        s.script.push(ScriptOp {
            at: Time::from_nanos(200_000_000),
            op: Op::SetIdle { tag: 0, idle: true },
        });
        let early = evaluate(
            &s,
            &[Observation {
                at: Time::from_nanos(150_000_000),
                tag: 1,
            }],
        );
        assert!(early.wrongful_collection);
        let late = evaluate(
            &s,
            &[
                Observation {
                    at: Time::from_nanos(700_000_000),
                    tag: 1,
                },
                Observation {
                    at: Time::from_nanos(800_000_000),
                    tag: 0,
                },
            ],
        );
        assert!(!late.wrongful_collection);
        assert!(!late.leftover_garbage);
    }

    #[test]
    fn evaluate_reports_leftover_garbage() {
        let s = toy_scenario(Verdict::SAFE_AND_COMPLETE);
        // Nothing ever terminates, but from 100 ms on, tag 1 is garbage
        // only if tag 0 is idle — tag 0 stays busy, so 1 is live;
        // removing the edge makes 1 garbage.
        let v = evaluate(&s, &[]);
        assert!(!v.leftover_garbage, "1 is held by busy 0");
        let mut s2 = s.clone();
        s2.script.push(ScriptOp {
            at: Time::from_nanos(200_000_000),
            op: Op::DropRef { from: 0, to: 1 },
        });
        let v2 = evaluate(&s2, &[]);
        assert!(v2.leftover_garbage, "unreferenced idle 1 never fell");
    }

    #[test]
    fn terminated_referencers_stop_propagating_liveness() {
        // busy 0 → 1 → 2 chain; once 1 is (wrongfully) gone, 2 is no
        // longer reachable from anything live.
        let s = Scenario {
            script: vec![
                ScriptOp {
                    at: Time::ZERO,
                    op: Op::Spawn {
                        tag: 0,
                        node: 0,
                        busy: true,
                    },
                },
                ScriptOp {
                    at: Time::ZERO,
                    op: Op::Spawn {
                        tag: 1,
                        node: 1,
                        busy: false,
                    },
                },
                ScriptOp {
                    at: Time::ZERO,
                    op: Op::Spawn {
                        tag: 2,
                        node: 1,
                        busy: false,
                    },
                },
                ScriptOp {
                    at: Time::ZERO,
                    op: Op::AddRef { from: 0, to: 1 },
                },
                ScriptOp {
                    at: Time::ZERO,
                    op: Op::AddRef { from: 1, to: 2 },
                },
            ],
            ..toy_scenario(Verdict::SAFE_AND_COMPLETE)
        };
        let terminated: BTreeSet<usize> = [1].into_iter().collect();
        let live = live_tags(&s.script, Time::from_nanos(1), &terminated);
        assert!(live.contains(&0));
        // 1 stays in the live set — busy 0 still references it, which
        // is precisely why its termination was wrongful — but its own
        // out-edges must no longer propagate liveness:
        assert!(!live.contains(&2), "its referencer is gone");
    }

    #[test]
    fn seeds_default_without_env() {
        // Serial-unsafe env tricks avoided: just check the default path
        // (CI sets the variable only in the dedicated random job).
        if std::env::var("CONFORMANCE_SEED").is_err() {
            assert_eq!(seeds(), DEFAULT_SEEDS.to_vec());
        }
    }
}
