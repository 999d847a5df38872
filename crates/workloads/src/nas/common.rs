//! Shared machinery for the NAS kernels (§5.2).
//!
//! The paper runs ProActive/Java implementations of NPB kernels CG, EP
//! and FT, class C, on 256 active objects over 128 Grid'5000 nodes, with
//! global barriers giving every active object a reference to every other
//! (a complete reference graph — "the worst case in terms of
//! communication overhead for the DGC").
//!
//! Our reproduction keeps that structure: a master (root) hands every
//! worker references to all of its peers and a `RUN` call; workers run a
//! bulk-synchronous loop — broadcast a chunk to every peer, wait for all
//! peers' chunks, compute, repeat — and finally reply to the master's
//! future. Message *sizes* and per-iteration *compute times* are scaled
//! to class C (each kernel's `class_c()` states the basis of its
//! numbers, and `fig8_nas_bandwidth` / `fig9_nas_time` print the
//! results beside the paper's); the local
//! numerical work is genuinely executed on scaled-down data by each
//! kernel's [`KernelMath`].
//!
//! After the master has its result it releases all worker references, so
//! the 256 workers form one big idle garbage clique — exactly what the
//! paper's DGC-time column measures the collection of.

use std::any::Any;

use dgc_activeobj::activity::{AoCtx, Behavior};
use dgc_activeobj::collector::CollectorKind;
use dgc_activeobj::request::{FutureId, Reply, Request};
use dgc_activeobj::runtime::{Grid, GridConfig};
use dgc_core::id::AoId;
use dgc_simnet::time::{SimDuration, SimTime};
use dgc_simnet::topology::{ProcId, Topology};
use dgc_simnet::traffic::TrafficClass;

/// Method selector: master → worker, carries peer refs and the future.
pub const M_RUN: u32 = 1;
/// Method selector base for inter-worker chunk exchanges; the iteration
/// parity is encoded as `M_CHUNK + (iter & 1)` so one-iteration-ahead
/// peers land in the right bucket.
pub const M_CHUNK: u32 = 10;

const T_DONE: u64 = 1;
const T_KICKOFF: u64 = 2;

/// Scaled kernel parameters.
#[derive(Debug, Clone, Copy)]
pub struct NasParams {
    /// Kernel name for reports.
    pub name: &'static str,
    /// Number of worker activities (paper: 256).
    pub workers: u32,
    /// Bulk-synchronous iterations (CG 75, EP 1, FT 20 for class C).
    pub iterations: u32,
    /// True if workers exchange chunks each iteration (CG/FT); EP only
    /// computes and reports.
    pub exchange: bool,
    /// Payload bytes of one worker-to-peer chunk message.
    pub chunk_bytes: u64,
    /// Simulated compute time per worker per iteration.
    pub compute_per_iter: SimDuration,
    /// Payload bytes of the final reply to the master.
    pub reply_bytes: u64,
}

impl NasParams {
    /// A reduced copy for fast tests: `workers` capped, iterations and
    /// compute scaled down by `factor`.
    pub fn scaled_down(mut self, workers: u32, factor: u32) -> Self {
        self.workers = workers;
        self.iterations = (self.iterations / factor).max(1);
        self.compute_per_iter = self.compute_per_iter.div(factor as u64);
        self.chunk_bytes = (self.chunk_bytes / factor as u64).max(64);
        self
    }
}

/// Genuinely executed local numerical work, scaled down from class C.
pub trait KernelMath: Send {
    /// One iteration of local work; the returned scalar feeds the
    /// verification checksum (and keeps the work un-optimizable).
    fn compute(&mut self, iteration: u32) -> f64;
    /// Final verification value.
    fn checksum(&self) -> f64;
}

/// The bulk-synchronous NAS worker.
pub struct NasWorker {
    params: NasParams,
    math: Box<dyn KernelMath>,
    peers: Vec<AoId>,
    reply_to: Option<FutureId>,
    iter: u32,
    /// Chunks received, bucketed by iteration parity (peers run at most
    /// one iteration ahead, see module docs).
    received: [u32; 2],
    checksum: f64,
    done: bool,
}

impl NasWorker {
    /// Creates a worker for `params` with its local numerical state.
    pub fn new(params: NasParams, math: Box<dyn KernelMath>) -> Self {
        NasWorker {
            params,
            math,
            peers: Vec::new(),
            reply_to: None,
            iter: 0,
            received: [0, 0],
            checksum: 0.0,
            done: false,
        }
    }

    fn broadcast_chunk(&self, ctx: &mut AoCtx<'_>) {
        let method = M_CHUNK + (self.iter & 1);
        for p in &self.peers {
            ctx.send(*p, method, self.params.chunk_bytes, vec![]);
        }
    }

    fn barrier_size(&self) -> u32 {
        self.peers.len() as u32
    }

    fn start_compute(&mut self, ctx: &mut AoCtx<'_>) {
        self.checksum += self.math.compute(self.iter);
        ctx.compute(self.params.compute_per_iter);
        ctx.set_timer(self.params.compute_per_iter, T_DONE);
    }

    fn maybe_compute(&mut self, ctx: &mut AoCtx<'_>) {
        let bucket = (self.iter & 1) as usize;
        if self.received[bucket] >= self.barrier_size() {
            self.received[bucket] = 0;
            self.start_compute(ctx);
        }
    }
}

impl Behavior for NasWorker {
    fn on_request(&mut self, ctx: &mut AoCtx<'_>, request: &Request) {
        match request.method {
            M_RUN => {
                self.peers = request
                    .refs
                    .iter()
                    .copied()
                    .filter(|r| *r != ctx.me())
                    .collect();
                self.reply_to = request.future;
                if self.params.exchange && !self.peers.is_empty() {
                    self.broadcast_chunk(ctx);
                    self.maybe_compute(ctx); // 1-worker degenerate case
                } else {
                    self.start_compute(ctx);
                }
            }
            m if m == M_CHUNK || m == M_CHUNK + 1 => {
                let bucket = ((m - M_CHUNK) & 1) as usize;
                self.received[bucket] += 1;
                if !self.done {
                    self.maybe_compute(ctx);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut AoCtx<'_>, token: u64) {
        if token != T_DONE || self.done {
            return;
        }
        self.iter += 1;
        if self.iter < self.params.iterations {
            if self.params.exchange {
                self.broadcast_chunk(ctx);
                self.maybe_compute(ctx);
            } else {
                self.start_compute(ctx);
            }
        } else {
            self.done = true;
            if let Some(fut) = self.reply_to.take() {
                ctx.reply(fut, self.params.reply_bytes, vec![]);
            }
            // Peer references stay held: the workers now form an idle
            // garbage clique for the collector to find.
        }
    }

    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
}

/// The master: a root that starts every worker, awaits all replies,
/// records the benchmark result time, and then drops its references.
pub struct NasMaster {
    workers: Vec<AoId>,
    run_payload: u64,
    pending: usize,
    /// When the last worker reply arrived ("the benchmark has its
    /// result", §5.2).
    pub done_at: Option<SimTime>,
    checksum_replies: u64,
}

impl NasMaster {
    /// Creates a master that will drive `workers`.
    pub fn new(workers: Vec<AoId>, run_payload: u64) -> Self {
        let pending = workers.len();
        NasMaster {
            workers,
            run_payload,
            pending,
            done_at: None,
            checksum_replies: 0,
        }
    }
}

impl Behavior for NasMaster {
    fn on_start(&mut self, ctx: &mut AoCtx<'_>) {
        // Deployment wiring (make_ref) happens right after spawn; the
        // kickoff is delayed one millisecond so every worker exists and
        // is referenced before the RUN calls go out.
        ctx.set_timer(SimDuration::from_millis(1), T_KICKOFF);
    }

    fn on_timer(&mut self, ctx: &mut AoCtx<'_>, token: u64) {
        if token != T_KICKOFF {
            return;
        }
        let all = self.workers.clone();
        for w in &all {
            ctx.call_await(*w, M_RUN, self.run_payload, all.clone());
        }
    }

    fn on_reply(&mut self, ctx: &mut AoCtx<'_>, _future: FutureId, _reply: &Reply) {
        self.checksum_replies += 1;
        self.pending -= 1;
        if self.pending == 0 {
            self.done_at = Some(ctx.now());
            // The "main" drops its references: from here on the worker
            // clique is garbage.
            for w in self.workers.clone() {
                ctx.release_all(w);
            }
        }
    }

    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
}

/// Outcome of one NAS run.
#[derive(Debug, Clone)]
pub struct NasOutcome {
    /// Kernel name.
    pub kernel: &'static str,
    /// Whether a collector ran and which.
    pub collector: &'static str,
    /// When the master had its result.
    pub result_at: SimTime,
    /// When the last worker disappeared (collected or killed).
    pub all_gone_at: Option<SimTime>,
    /// §5.2 "DGC time": from the result to the last collection.
    pub dgc_time: Option<SimDuration>,
    /// Total cross-process bytes.
    pub total_bytes: u64,
    /// Bytes attributable to the DGC (messages + responses).
    pub dgc_bytes: u64,
    /// Bytes attributable to the application.
    pub app_bytes: u64,
    /// Oracle violations (must be 0).
    pub violations: usize,
}

/// Builds and runs one NAS benchmark to completion.
///
/// `math` builds each worker's local numerical state from its index.
pub fn run_nas(
    params: &NasParams,
    topology: Topology,
    collector: CollectorKind,
    seed: u64,
    math: &dyn Fn(u32) -> Box<dyn KernelMath>,
) -> NasOutcome {
    let procs = topology.procs();
    // The oracle walk is quadratic-ish on the NAS clique; keep it for
    // test-sized runs, skip it at full 256-worker scale.
    let check_safety = params.workers <= 64;
    // ProActive deployment ships the runtime and application classes to
    // every node before the kernel starts; ~0.5 MB per node reproduces
    // the paper's lightly-communicating baselines (EP's 69.75 MB is
    // nearly all deployment).
    let mut grid = Grid::new(
        GridConfig::new(topology)
            .collector(collector)
            .seed(seed)
            .check_safety(check_safety)
            .deployment_bytes(512 * 1024),
    );
    let workers: Vec<AoId> = (0..params.workers)
        .map(|i| {
            grid.spawn(
                ProcId(i % procs),
                Box::new(NasWorker::new(*params, math(i))),
            )
        })
        .collect();
    let master = grid.spawn_root(ProcId(0), Box::new(NasMaster::new(workers.clone(), 256)));
    for w in &workers {
        grid.make_ref(master, *w);
    }

    // Phase 1: run the application to its result.
    let result_at = loop {
        grid.run_for(SimDuration::from_secs(5));
        let done = grid
            .activity(master)
            .and_then(|a| a.behavior.as_any())
            .and_then(|any| any.downcast_ref::<NasMaster>())
            .and_then(|m| m.done_at);
        if let Some(at) = done {
            break at;
        }
        assert!(
            grid.now() < SimTime::from_secs(100_000),
            "NAS kernel failed to converge"
        );
    };

    // Phase 2: collection (or explicit termination for the control run).
    let collector_name = match collector {
        CollectorKind::None => "none",
        CollectorKind::Complete(_) => "complete-dgc",
        CollectorKind::Rmi(_) => "rmi",
        _ => "other",
    };
    let mut all_gone_at = None;
    if matches!(collector, CollectorKind::None) {
        // The paper's implementation terminates explicitly.
        for w in &workers {
            grid.kill(*w);
        }
        all_gone_at = Some(grid.now());
    } else {
        let deadline = grid.now() + SimDuration::from_secs(50_000);
        while grid.now() < deadline {
            grid.run_for(SimDuration::from_secs(10));
            if workers.iter().all(|w| !grid.is_alive(*w)) {
                break;
            }
        }
        if workers.iter().all(|w| !grid.is_alive(*w)) {
            all_gone_at = grid.collected().iter().map(|c| c.at).max();
        }
    }
    // Let the trailing DGC responses/timeouts drain for bandwidth
    // accounting parity with the paper (it measures whole-run traffic).
    grid.run_for(SimDuration::from_secs(5));

    let meter = grid.traffic();
    NasOutcome {
        kernel: params.name,
        collector: collector_name,
        result_at,
        all_gone_at,
        dgc_time: all_gone_at.map(|t| t.saturating_since(result_at)),
        total_bytes: meter.total_bytes(),
        dgc_bytes: meter.dgc_bytes() + meter.bytes(TrafficClass::RmiLease),
        app_bytes: meter.app_bytes(),
        violations: grid.violations().len(),
    }
}
