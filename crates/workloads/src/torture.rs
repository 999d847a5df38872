//! The DGC torture test (§5.3).
//!
//! A master/slave application where slaves continuously exchange remote
//! references between themselves and the master for at least ten
//! minutes, then become idle — leaving one huge, tangled, cyclic
//! reference graph for the collector to destroy. The paper runs it with
//! 128 machines × 50 slaves + 1 master = 6401 active objects and plots
//! the evolution of idle and collected counts (Fig. 10) for
//! TTB 30 s / TTA 150 s and TTB 300 s / TTA 1500 s.
//!
//! The only application payloads are the references themselves, so
//! collector traffic dominates — the paper reports 1699 MB (TTB 30 s)
//! and 2063 MB (TTB 300 s) against 228 MB without any DGC.

use std::any::Any;

use dgc_activeobj::activity::{AoCtx, Behavior};
use dgc_activeobj::collector::CollectorKind;
use dgc_activeobj::request::Request;
use dgc_activeobj::runtime::{Grid, GridConfig, Sample};
use dgc_core::id::AoId;
use dgc_simnet::time::{SimDuration, SimTime};
use dgc_simnet::topology::{ProcId, Topology};
use dgc_simnet::TraceLevel;

/// Method: initial reference distribution.
pub const M_INIT: u32 = 1;
/// Method: a reference-exchange message between slaves.
pub const M_EXCHANGE: u32 = 2;

const T_WORK: u64 = 1;

/// Torture-test parameters.
#[derive(Debug, Clone, Copy)]
pub struct TortureParams {
    /// Slaves per process (paper: 50).
    pub slaves_per_proc: u32,
    /// How long slaves stay active (paper: ≥ 600 s).
    pub active_duration: SimDuration,
    /// Mean period between a slave's exchange rounds.
    pub iter_period: SimDuration,
    /// Initial random peer references per slave.
    pub initial_degree: usize,
    /// Maximum held references before a slave starts releasing.
    pub max_degree: usize,
    /// Sampling period for the Fig. 10 time series.
    pub sample_every: SimDuration,
}

impl TortureParams {
    /// The paper's full-scale setting (with 128 processes: 6401 objects).
    pub fn paper() -> Self {
        TortureParams {
            slaves_per_proc: 50,
            active_duration: SimDuration::from_secs(600),
            iter_period: SimDuration::from_secs(5),
            initial_degree: 6,
            max_degree: 14,
            sample_every: SimDuration::from_secs(10),
        }
    }

    /// A reduced setting for tests.
    pub fn small() -> Self {
        TortureParams {
            slaves_per_proc: 5,
            active_duration: SimDuration::from_secs(120),
            iter_period: SimDuration::from_secs(5),
            initial_degree: 3,
            max_degree: 8,
            sample_every: SimDuration::from_secs(10),
        }
    }
}

/// A torture slave (the master is just a slave everyone knows).
///
/// While active it periodically picks random held references, forwards
/// some of them to random held peers, and occasionally releases one —
/// churning the reference graph exactly like the paper's test. After
/// `deadline` it stops scheduling work and goes idle.
pub struct Slave {
    deadline: SimTime,
    iter_period: SimDuration,
    max_degree: usize,
    held: Vec<AoId>,
    exchanges_done: u64,
}

impl Slave {
    /// Creates a slave that stays active until `deadline`.
    pub fn new(deadline: SimTime, iter_period: SimDuration, max_degree: usize) -> Self {
        Slave {
            deadline,
            iter_period,
            max_degree,
            held: Vec::new(),
            exchanges_done: 0,
        }
    }

    fn note_held(&mut self, refs: &[AoId], me: AoId) {
        for r in refs {
            if *r != me {
                self.held.push(*r);
            }
        }
    }

    fn trim(&mut self, ctx: &mut AoCtx<'_>) {
        while self.held.len() > self.max_degree {
            let idx = ctx.rng().below(self.held.len() as u64) as usize;
            let victim = self.held.swap_remove(idx);
            ctx.release(victim);
        }
    }

    fn schedule_next(&self, ctx: &mut AoCtx<'_>) {
        if ctx.now() < self.deadline {
            let jitter = ctx.rng().jitter(self.iter_period);
            ctx.set_timer(self.iter_period.div(2) + jitter, T_WORK);
        }
    }
}

impl Behavior for Slave {
    fn on_request(&mut self, ctx: &mut AoCtx<'_>, request: &Request) {
        let me = ctx.me();
        match request.method {
            M_INIT => {
                self.note_held(&request.refs, me);
                self.trim(ctx);
                ctx.compute(SimDuration::from_millis(5));
                self.schedule_next(ctx);
            }
            M_EXCHANGE => {
                self.note_held(&request.refs, me);
                self.trim(ctx);
                ctx.compute(SimDuration::from_millis(2));
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut AoCtx<'_>, token: u64) {
        if token != T_WORK || ctx.now() >= self.deadline || self.held.is_empty() {
            return;
        }
        // Forward 1–2 held references to 1–2 random held peers. The
        // sends go first so the stubs are still held when validated;
        // releases (graph churn) happen afterwards in the same handler.
        let rounds = 1 + ctx.rng().below(2);
        for _ in 0..rounds {
            let to = {
                let idx = ctx.rng().below(self.held.len() as u64) as usize;
                self.held[idx]
            };
            let mut refs = Vec::new();
            let nrefs = 1 + ctx.rng().below(2);
            for _ in 0..nrefs {
                let idx = ctx.rng().below(self.held.len() as u64) as usize;
                refs.push(self.held[idx]);
            }
            ctx.send(to, M_EXCHANGE, 16, refs);
            self.exchanges_done += 1;
        }
        // Occasionally drop one reference to keep the graph churning.
        if self.held.len() > 2 && ctx.rng().chance(0.3) {
            let idx = ctx.rng().below(self.held.len() as u64) as usize;
            let victim = self.held.swap_remove(idx);
            ctx.release(victim);
        }
        ctx.compute(SimDuration::from_millis(2));
        self.schedule_next(ctx);
    }

    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
}

/// Outcome of a torture run.
#[derive(Debug, Clone)]
pub struct TortureOutcome {
    /// Total objects at the start (slaves + master).
    pub total_objects: usize,
    /// When the last object was collected (if all were).
    pub all_collected_at: Option<SimTime>,
    /// Objects still alive at the end (0 on success with a complete DGC).
    pub leaked: usize,
    /// Total cross-process traffic in bytes.
    pub total_bytes: u64,
    /// The Fig. 10 time series.
    pub samples: Vec<Sample>,
    /// Oracle violations (must be 0).
    pub violations: usize,
    /// When the application went fully idle.
    pub quiescent_at: Option<SimTime>,
}

/// Runs the torture test over `topology` with the given collector.
///
/// `deadline` bounds the post-activity collection phase.
pub fn run_torture(
    params: &TortureParams,
    topology: Topology,
    collector: CollectorKind,
    seed: u64,
    deadline: SimTime,
) -> TortureOutcome {
    let procs = topology.procs();
    let total = (procs * params.slaves_per_proc) as usize + 1;
    let check_safety = total <= 64;
    let mut grid = Grid::new(
        GridConfig::new(topology)
            .collector(collector)
            .seed(seed)
            .check_safety(check_safety)
            .sample_every(params.sample_every)
            .trace_level(TraceLevel::Off),
    );
    let active_until = SimTime::ZERO + params.active_duration;

    // The master is slave number zero, hosted on process 0; every slave
    // learns about it at INIT.
    let mk_slave = || -> Box<dyn Behavior> {
        Box::new(Slave::new(
            active_until,
            params.iter_period,
            params.max_degree,
        ))
    };
    let master = grid.spawn(ProcId(0), mk_slave());
    let mut slaves: Vec<AoId> = vec![master];
    // The master is an extra occupant of process 0, matching the
    // paper's 128 × 50 + 1 = 6401 total.
    for p in 0..procs {
        for _ in 0..params.slaves_per_proc {
            slaves.push(grid.spawn(ProcId(p), mk_slave()));
        }
    }

    // Deployment: a dummy root wires the initial topology, then drops
    // everything and disappears (the `main()` exiting).
    let dummy = grid.spawn_root(ProcId(0), Box::new(dgc_activeobj::activity::Inert));
    for s in &slaves {
        grid.make_ref(dummy, *s);
    }
    let mut seed_rng = dgc_simnet::rng::SimRng::from_seed(seed ^ 0x70AA);
    for s in &slaves {
        let mut refs = vec![master];
        for _ in 0..params.initial_degree {
            refs.push(slaves[seed_rng.below(slaves.len() as u64) as usize]);
        }
        grid.send_from(dummy, *s, M_INIT, 16, refs);
    }
    // Give the INIT messages time to depart, then retire the deployer.
    grid.run_for(SimDuration::from_millis(100));
    for s in &slaves {
        grid.drop_ref(dummy, *s);
    }
    grid.run_for(SimDuration::from_secs(2));
    grid.kill(dummy);

    // Active phase.
    grid.run_until(active_until);
    // Drain in-flight work; note quiescence.
    let mut quiescent_at = None;
    for _ in 0..200 {
        grid.run_for(SimDuration::from_secs(1));
        if grid.idle_count() == grid.alive_count() {
            quiescent_at = Some(grid.now());
            break;
        }
    }

    // Collection phase.
    while grid.now() < deadline && grid.alive_count() > 0 {
        grid.run_for(SimDuration::from_secs(30));
    }

    let all_collected_at = if grid.alive_count() == 0 {
        grid.collected().iter().map(|c| c.at).max()
    } else {
        None
    };
    TortureOutcome {
        total_objects: total,
        all_collected_at,
        leaked: grid.alive_count(),
        total_bytes: grid.traffic().total_bytes(),
        samples: grid.samples().to_vec(),
        violations: grid.violations().len(),
        quiescent_at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgc_core::config::DgcConfig;
    use dgc_core::units::Dur;

    fn topo() -> Topology {
        Topology::single_site(4, SimDuration::from_millis(1))
    }

    fn dgc(ttb: u64, tta: u64) -> CollectorKind {
        CollectorKind::Complete(
            DgcConfig::builder()
                .ttb(Dur::from_secs(ttb))
                .tta(Dur::from_secs(tta))
                .max_comm(Dur::from_millis(500))
                .build(),
        )
    }

    #[test]
    fn small_torture_is_fully_collected() {
        let out = run_torture(
            &TortureParams::small(),
            topo(),
            dgc(30, 150),
            42,
            SimTime::from_secs(5_000),
        );
        assert_eq!(out.total_objects, 21);
        assert_eq!(out.violations, 0, "no live object was collected");
        assert_eq!(out.leaked, 0, "everything is garbage after quiescence");
        assert!(out.all_collected_at.is_some());
        assert!(out.quiescent_at.is_some());
    }

    #[test]
    fn samples_trace_the_collection_wave() {
        let out = run_torture(
            &TortureParams::small(),
            topo(),
            dgc(30, 150),
            43,
            SimTime::from_secs(5_000),
        );
        assert!(!out.samples.is_empty());
        // Collected counts are monotone.
        let mut prev = 0;
        for s in &out.samples {
            assert!(s.collected >= prev);
            prev = s.collected;
        }
        // And end at the full population plus the explicitly killed
        // deployment dummy.
        assert_eq!(out.samples.last().unwrap().collected, out.total_objects + 1);
    }

    #[test]
    fn without_collector_everything_leaks() {
        let out = run_torture(
            &TortureParams::small(),
            topo(),
            CollectorKind::None,
            44,
            SimTime::from_secs(2_000),
        );
        assert_eq!(out.leaked, out.total_objects);
        assert!(out.all_collected_at.is_none());
    }

    #[test]
    fn larger_ttb_collects_more_slowly() {
        let fast = run_torture(
            &TortureParams::small(),
            topo(),
            dgc(30, 150),
            45,
            SimTime::from_secs(30_000),
        );
        let slow = run_torture(
            &TortureParams::small(),
            topo(),
            dgc(300, 1500),
            45,
            SimTime::from_secs(30_000),
        );
        let (f, s) = (
            fast.all_collected_at.expect("fast collected"),
            slow.all_collected_at.expect("slow collected"),
        );
        assert!(s > f, "TTB 300 must finish later than TTB 30 ({s} vs {f})");
    }
}
