//! The socket run: one workload on a localhost `dgc_rt_net::Cluster`,
//! driven through public API only — set-up, warm-up, the measured
//! window with its two open-loop streams, drain, timed shutdown.
//!
//! Two threads generate and observe: this (driver) thread issues pings
//! and garbage releases at their due times, a sampler thread polls
//! terminations every 20 ms. Traffic crosses the host loopback with no
//! injected delay or fault.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dgc_core::config::DgcConfig;
use dgc_core::id::AoId;
use dgc_core::units::Dur;
use dgc_membership::MembershipConfig;
use dgc_rt_net::{AppSend, AuthKey, Cluster, NetConfig, NetStatsSnapshot, Pipeline, TenantId};

use crate::gen::{self, Graph, Rng, Shape, Structure};
use crate::observe::{self, Ledger, TerminationLog};
use crate::spec::Workload;
use crate::trace::Tracer;

/// Application payload size of a ping, bytes.
pub const PING_BYTES: usize = 64;
/// Termination poll period of the sampler thread. `Cluster::terminated`
/// clones and re-sorts the whole log on every call, so the poll's cost
/// grows with the garbage already collected: at 5 ms it reached 15 % of
/// `collect_churn`'s CPU by the end of a window. At 20 ms it stays under
/// 2 %, and a reclaim time is still resolved to 3 % of the shortest one.
const POLL: Duration = Duration::from_millis(20);
/// `egress_pending` sampling period (traced half only).
const PENDING_POLL: Duration = Duration::from_millis(100);
/// The window is costed in slices of this length and the median slice
/// is reported: the shared machines this runs on slow down by half for
/// seconds at a time, and a mean would carry every such episode.
const SLICE: Duration = Duration::from_secs(2);
/// Rounds of traffic between set-up and the window.
const WARMUP_ROUNDS: u32 = 2;
/// How long after the window an echo may still arrive.
const ECHO_GRACE: Duration = Duration::from_secs(1);
/// How long after the window released garbage may still be reclaimed.
const DRAIN: Duration = Duration::from_secs(5);
/// The open-loop generator sleeps to within this of a due time and
/// spins the rest: timer slack would otherwise add ~60 us to every RTT.
const SPIN: Duration = Duration::from_micros(100);

pub struct RunOptions {
    pub seed: u64,
    pub window: Duration,
    pub traced: bool,
    /// Set-ups to time (the last one is measured on).
    pub setup_reps: usize,
    /// Wait out late echoes and garbage after the window. Off only for
    /// the alternate-engine probe, which wants the window's cost and
    /// nothing else; what a skipped drain cannot judge is not judged.
    pub drain: bool,
}

/// Everything one run observed, raw; `report` turns it into metrics.
pub struct Outcome {
    pub ledger: Ledger,
    /// One entry per timed set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Of the last set-up (ms): membership convergence, if gossiping.
    pub converge_ms: Option<f64>,
    pub window: Duration,
    /// Items delivered over sockets in the window.
    pub units: u64,
    /// Process CPU time over the window.
    pub cpu: Duration,
    /// CPU microseconds per delivered unit: the median over the
    /// window's [`SLICE`]s (the whole window if it holds no full slice).
    pub cost_us: f64,
    pub stats: NetStatsSnapshot,
    pub peak_rss_mb: f64,
    /// Ascending, microseconds, timed from each ping's due time.
    pub rtt_us: Vec<f64>,
    /// Ascending, microseconds: how late the generator issued each op.
    pub late_us: Vec<f64>,
    /// Ascending, milliseconds, release due time to last member gone.
    pub ring_ms: Vec<f64>,
    pub chain_ms: Vec<f64>,
    pub threads_per_node: f64,
    pub shutdown_s: f64,
    /// Traced runs only.
    pub traced: Option<TracedExtras>,
}

pub struct TracedExtras {
    pub obs_start: dgc_obs::Snapshot,
    pub obs_end: dgc_obs::Snapshot,
    pub pending_peak: u64,
    /// `cpu_us_per_unit` of the window's untraced and traced halves
    /// (`None` when the window is too short to have slices in both).
    pub half_cost_us: Option<(f64, f64)>,
}

fn net_config(w: &Workload) -> NetConfig {
    let dgc = DgcConfig::builder()
        .ttb(Dur::from_millis(w.ttb_ms))
        .tta(Dur::from_millis(w.tta_ms))
        .max_comm(Dur::from_millis(w.max_comm_ms))
        .build();
    let mut config = NetConfig::new(dgc);
    if w.gossip {
        config = config.membership(MembershipConfig::scaled(Dur::from_millis(50)));
    }
    if w.auth {
        config = config.auth(AuthKey::from_secret("dgc-benchmark"));
    }
    config
}

fn ao((node, index): gen::Slot) -> AoId {
    AoId::new(node, index)
}

/// `a - b` over the counters the benchmark reads.
fn minus(a: &NetStatsSnapshot, b: &NetStatsSnapshot) -> NetStatsSnapshot {
    NetStatsSnapshot {
        frames_sent: a.frames_sent - b.frames_sent,
        bytes_sent: a.bytes_sent - b.bytes_sent,
        items_sent: a.items_sent - b.items_sent,
        items_received: a.items_received - b.items_received,
        reconnects: a.reconnects - b.reconnects,
        send_failures: a.send_failures - b.send_failures,
        decode_errors: a.decode_errors - b.decode_errors,
        ..NetStatsSnapshot::default()
    }
}

/// Round-trips every node's event loop, so everything sent to the loops
/// before the call has been applied when it returns.
fn fence(cluster: &Cluster) -> Result<(), String> {
    for node in 0..cluster.len() as u32 {
        cluster
            .egress_stats(node)
            .ok_or_else(|| format!("node {node}'s event loop did not answer the fence"))?;
    }
    Ok(())
}

/// `(echo id, when the echo was dispatched on the pinger's node)`.
type Echo = (u64, Instant);

struct Ready {
    cluster: Cluster,
    converge_ms: Option<f64>,
}

/// Binds the cluster, builds the standing graph, and returns once the
/// window may open: every node's loop has applied its backlog and a
/// complete heartbeat round has been delivered on every node (for a
/// gossiping cluster also: every node knows every address).
fn set_up(
    w: &Workload,
    g: &Graph,
    echoes: &mpsc::Sender<Echo>,
    tracer: &mut Tracer,
) -> Result<Ready, String> {
    let nodes = w.nodes;
    let t_bind = Instant::now();
    let config = net_config(w);
    let cluster = if w.gossip {
        Cluster::join_local(nodes, config)
    } else {
        Cluster::listen_local(nodes, config)
    }
    .map_err(|e| format!("binding {nodes} localhost nodes: {e}"))?;
    for node in 0..nodes {
        let echoes = echoes.clone();
        cluster.set_app_handler(node, move |msg| {
            if msg.reply {
                let mut id = [0u8; 8];
                id.copy_from_slice(&msg.payload[..8]);
                let _ = echoes.send((u64::from_le_bytes(id), Instant::now()));
                Vec::new()
            } else {
                vec![AppSend {
                    from: msg.to,
                    to: msg.from,
                    reply: true,
                    payload: msg.payload.clone(),
                }]
            }
        });
        if w.tenants > 0 {
            cluster.set_pipeline(node, Pipeline::standard());
        }
    }
    let mut converge_ms = None;
    if w.gossip {
        // References wired before a peer's address is known would fail
        // as sends to an unreachable node.
        for node in 0..nodes {
            let known = cluster.wait_membership_until(node, Duration::from_secs(10), |records| {
                records.len() == nodes as usize && records.iter().all(|r| r.addr.is_some())
            });
            if !known {
                return Err(format!("node {node} never learned all {nodes} addresses"));
            }
        }
        converge_ms = Some(t_bind.elapsed().as_secs_f64() * 1e3);
    }
    let t_graph = Instant::now();
    tracer.record("setup.bind", "driver", 0, None, t_bind, t_graph);

    for node in 0..nodes {
        for index in 0..w.acts_per_node {
            let id = cluster.add_activity(node);
            assert_eq!(id, AoId::new(node, index), "standing ids are positional");
            if w.tenants > 0 {
                cluster.set_tenant(id, TenantId(g.tenant((node, index))));
            }
        }
    }
    // Inbound units one round delivers to each node: a message per
    // in-edge, a response per out-edge.
    let mut round_in = vec![0u64; nodes as usize];
    for (from, to) in &g.edges {
        cluster.add_ref(ao(*from), ao(*to));
        round_in[to.0 as usize] += 1;
        round_in[from.0 as usize] += 1;
    }
    let t_fence = Instant::now();
    tracer.record("setup.graph", "driver", 0, None, t_graph, t_fence);

    fence(&cluster)?;
    let patience = w.ttb() * 10 + Duration::from_secs(5);
    let delivered = cluster.wait_stats_until(patience, |stats| {
        stats
            .iter()
            .zip(&round_in)
            .all(|(s, need)| s.items_received >= *need)
    });
    if !delivered {
        return Err(format!(
            "no complete heartbeat round was delivered within {patience:?} of set-up"
        ));
    }
    // Dependents go idle only now that their roots' heartbeats have
    // registered: an idle activity nobody has been heard to reference
    // yet is, correctly, garbage.
    for node in 0..nodes {
        for index in 0..w.acts_per_node {
            if !g.busy[node as usize][index as usize] {
                cluster.set_idle(AoId::new(node, index), true);
            }
        }
    }
    fence(&cluster)?;
    tracer.record("setup.fence", "driver", 0, None, t_fence, Instant::now());
    Ok(Ready {
        cluster,
        converge_ms,
    })
}

/// Sleeps, then spins, until `deadline`.
fn wait_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

enum Op {
    Ping(usize),
    Release(usize),
}

/// A released structure as the driver saw it.
struct Released {
    due: Instant,
    shape: Shape,
    members: Vec<AoId>,
}

fn release(cluster: &Cluster, s: &Structure, due: Instant) -> Released {
    let members: Vec<AoId> = s.nodes.iter().map(|n| cluster.add_activity(*n)).collect();
    for pair in members.windows(2) {
        cluster.add_ref(pair[0], pair[1]);
    }
    if s.shape == Shape::Ring {
        cluster.add_ref(members[members.len() - 1], members[0]);
    }
    for m in &members {
        cluster.set_idle(*m, true);
    }
    Released {
        due,
        shape: s.shape,
        members,
    }
}

/// What the sampler thread hands back.
#[derive(Default)]
struct Sampled {
    /// `(cpu so far, units delivered so far)` at every slice edge
    /// strictly inside the window; the driver's own readings at the
    /// opening and the close are the outer edges.
    slice_edges: Vec<(Duration, u64)>,
    pending_peak: u64,
}

/// CPU microseconds per delivered unit of each slice between
/// consecutive edges (slices that delivered nothing are skipped).
fn slice_costs_us(edges: &[(Duration, u64)]) -> Vec<f64> {
    edges
        .windows(2)
        .filter(|pair| pair[1].1 > pair[0].1)
        .map(|pair| {
            let cpu = pair[1].0.saturating_sub(pair[0].0);
            cpu.as_secs_f64() * 1e6 / (pair[1].1 - pair[0].1) as f64
        })
        .collect()
}

/// Readings at one edge of the window.
struct Edge {
    stats: NetStatsSnapshot,
    cpu: Duration,
    /// Traced runs only: every node's registry, merged.
    obs: Option<dgc_obs::Snapshot>,
}

/// Reads one window edge. CPU is read innermost (last when opening,
/// first when closing), so the readings' own cost stays outside.
fn edge(cluster: &Cluster, traced: bool, closing: bool) -> Edge {
    let read_obs = || traced.then(|| cluster.obs_merged());
    if closing {
        let cpu = observe::cpu_time();
        let stats = cluster.total_stats();
        Edge {
            stats,
            cpu,
            obs: read_obs(),
        }
    } else {
        let obs = read_obs();
        let stats = cluster.total_stats();
        Edge {
            stats,
            cpu: observe::cpu_time(),
            obs,
        }
    }
}

/// What the driver thread did and saw between warm-up and drain.
struct Driven {
    open: Edge,
    close: Edge,
    drained: NetStatsSnapshot,
    threads: u64,
    late_us: Vec<f64>,
    released: Vec<Released>,
    echo_at: Vec<Option<Instant>>,
}

/// Runs one workload once.
pub fn run(w: &Workload, opts: &RunOptions, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut rng = Rng::new(opts.seed);
    let graph = gen::graph(w, &mut rng);
    let pings = gen::pings(w, &graph, opts.window, &mut rng);
    let release_for = opts.window.saturating_sub(w.reclaim_allowance());
    let structures = gen::structures(w, release_for, &mut rng);

    let (echo_tx, echo_rx) = mpsc::channel::<Echo>();
    let reps = opts.setup_reps.max(1);
    let mut setup_s = Vec::with_capacity(reps);
    let mut ready = None;
    for rep in 0..reps {
        if let Some(Ready { cluster, .. }) = ready.take() {
            Cluster::shutdown(cluster);
        }
        let start = Instant::now();
        // Only the measured set-up's spans are worth a timeline row.
        let mut quiet = Tracer::new(false);
        let spans = if rep + 1 == reps {
            &mut *tracer
        } else {
            &mut quiet
        };
        ready = Some(set_up(w, &graph, &echo_tx, spans)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let Ready {
        cluster,
        converge_ms,
    } = ready.expect("at least one set-up ran");

    let log = Mutex::new(TerminationLog::default());
    let stop = AtomicBool::new(false);
    let t_warm = Instant::now();
    let window_open = t_warm + w.ttb() * WARMUP_ROUNDS;
    let window_close = window_open + opts.window;
    let midpoint = window_open + opts.window / 2;

    let mut schedule: Vec<(Duration, Op)> = pings
        .iter()
        .enumerate()
        .map(|(i, p)| (p.due, Op::Ping(i)))
        .chain(
            structures
                .iter()
                .enumerate()
                .map(|(i, s)| (s.due, Op::Release(i))),
        )
        .collect();
    schedule.sort_by_key(|(due, _)| *due);

    let drive = |tracer: &mut Tracer| -> Result<Driven, String> {
        wait_until(window_open);
        tracer.record("warmup", "driver", 0, None, t_warm, window_open);
        let open = edge(&cluster, opts.traced, false);

        let mut late_us: Vec<f64> = Vec::with_capacity(schedule.len());
        let mut released: Vec<Released> = Vec::with_capacity(structures.len());
        for (due, op) in &schedule {
            let due = window_open + *due;
            wait_until(due);
            late_us.push(due.elapsed().as_secs_f64() * 1e6);
            match op {
                Op::Ping(i) => {
                    let p = &pings[*i];
                    let mut payload = vec![0u8; PING_BYTES];
                    payload[..8].copy_from_slice(&(*i as u64).to_le_bytes());
                    cluster.send_app(ao(p.from), ao(p.to), false, payload);
                }
                Op::Release(i) => released.push(release(&cluster, &structures[*i], due)),
            }
        }
        wait_until(window_close);
        let close = edge(&cluster, opts.traced, true);
        let threads = observe::threads();
        tracer.record("window", "driver", 0, None, window_open, window_close);

        // Drain: late echoes first, then garbage still on its way out.
        let mut echo_at: Vec<Option<Instant>> = vec![None; pings.len()];
        let mut echoed = 0usize;
        loop {
            while let Ok((id, at)) = echo_rx.try_recv() {
                if let Some(slot) = echo_at.get_mut(id as usize) {
                    if slot.replace(at).is_none() {
                        echoed += 1;
                    }
                }
            }
            if echoed == pings.len() || !opts.drain || window_close.elapsed() >= ECHO_GRACE {
                break;
            }
            std::thread::sleep(POLL);
        }
        let drain_for = DRAIN + w.reclaim_allowance().saturating_sub(opts.window);
        loop {
            let all_gone = {
                let log = log.lock().expect("termination log poisoned");
                released
                    .iter()
                    .all(|r| r.members.iter().all(|m| log.seen_at(*m).is_some()))
            };
            if all_gone || !opts.drain || window_close.elapsed() >= drain_for {
                break;
            }
            std::thread::sleep(POLL);
        }
        let drained = cluster.total_stats();
        tracer.record("drain", "driver", 0, None, window_close, Instant::now());
        Ok(Driven {
            open,
            close,
            drained,
            threads,
            late_us,
            released,
            echo_at,
        })
    };

    let (driven, sampled) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut out = Sampled::default();
            let mut next_pending = midpoint;
            let mut next_slice = window_open + SLICE;
            while !stop.load(Ordering::Relaxed) {
                let now = Instant::now();
                if now >= next_slice && next_slice < window_close {
                    next_slice += SLICE;
                    let units = cluster.total_stats().items_received;
                    out.slice_edges.push((observe::cpu_time(), units));
                }
                let snapshot = cluster.terminated();
                log.lock()
                    .expect("termination log poisoned")
                    .absorb(&snapshot, now);
                // The second half of a traced window carries the live
                // tracing extras; the first half is the untraced control.
                if opts.traced && now >= next_pending && now < window_close {
                    next_pending = now + PENDING_POLL;
                    for node in 0..cluster.len() as u32 {
                        if let Some(p) = cluster.egress_pending(node) {
                            out.pending_peak = out.pending_peak.max(p.items as u64);
                        }
                    }
                }
                std::thread::sleep(POLL);
            }
            out
        });
        let driven = drive(tracer);
        stop.store(true, Ordering::Relaxed);
        (driven, sampler.join())
    });
    let sampled = sampled.map_err(|_| "sampler thread panicked".to_string())?;
    let Driven {
        open,
        close,
        drained,
        threads,
        mut late_us,
        released,
        echo_at,
    } = driven?;

    let log = log.into_inner().expect("termination log poisoned");
    let stats = minus(&close.stats, &open.stats);
    let through_drain = minus(&drained, &open.stats);
    let mut ledger = Ledger {
        units_sent: through_drain.items_sent,
        units_received: through_drain.items_received,
        round_slack: w.units_per_round(),
        send_failures: through_drain.send_failures,
        decode_errors: through_drain.decode_errors,
        pings_sent: pings.len() as u64,
        // A skipped drain cannot tell a late echo from a lost one.
        pings_unanswered: if opts.drain {
            echo_at.iter().filter(|e| e.is_none()).count() as u64
        } else {
            0
        },
        wrongful: log.wrongful(w.acts_per_node) as u64,
        ..Ledger::default()
    };
    for node in 0..w.nodes {
        ledger.app_send_failures += cluster.app_send_failures(node).len() as u64;
        for (_, c) in cluster.tenant_snapshot(node).unwrap_or_default() {
            ledger.tenant_rejections += c.rejected_outgoing + c.rejected_incoming;
        }
    }

    let mut rtt_us: Vec<f64> = pings
        .iter()
        .zip(&echo_at)
        .filter_map(|(p, at)| {
            let due = window_open + p.due;
            at.map(|at| at.saturating_duration_since(due).as_secs_f64() * 1e6)
        })
        .collect();
    let (mut ring_ms, mut chain_ms) = (Vec::new(), Vec::new());
    for (i, r) in released.iter().enumerate() {
        ledger.released += r.members.len() as u64;
        let seen: Vec<Instant> = r.members.iter().filter_map(|m| log.seen_at(*m)).collect();
        if opts.drain {
            ledger.unreclaimed += (r.members.len() - seen.len()) as u64;
        }
        if seen.len() < r.members.len() {
            continue;
        }
        let (name, into): (&'static str, &mut Vec<f64>) = match r.shape {
            Shape::Ring => ("reclaim.ring", &mut ring_ms),
            Shape::Chain => ("reclaim.chain", &mut chain_ms),
        };
        let last = *seen.iter().max().expect("structures have members");
        into.push(last.saturating_duration_since(r.due).as_secs_f64() * 1e3);
        // One span per structure, one child per member, id = structure.
        let parent = tracer.record(name, "garbage", i as u64, None, r.due, last);
        for at in seen {
            tracer.record("member.terminated", "garbage", i as u64, parent, r.due, at);
        }
    }
    for (i, (p, at)) in pings.iter().zip(&echo_at).enumerate().step_by(100) {
        if let Some(at) = at {
            tracer.record("ping", "ping", i as u64, None, window_open + p.due, *at);
        }
    }
    for v in [&mut rtt_us, &mut late_us, &mut ring_ms, &mut chain_ms] {
        v.sort_by(f64::total_cmp);
    }

    let peak_rss_mb = observe::peak_rss_mb();
    let t_down = Instant::now();
    Cluster::shutdown(cluster);
    let shutdown_s = t_down.elapsed().as_secs_f64();
    tracer.record("shutdown", "driver", 0, None, t_down, Instant::now());

    let cpu = close.cpu.saturating_sub(open.cpu);
    let edges: Vec<(Duration, u64)> = std::iter::once((open.cpu, open.stats.items_received))
        .chain(sampled.slice_edges)
        .chain([(close.cpu, close.stats.items_received)])
        .collect();
    let mut slice_us = slice_costs_us(&edges);
    // The live tracing extras run in the window's second half only, so
    // the first half is the untraced control.
    let (plain, extras) = slice_us.split_at(slice_us.len() / 2);
    let half_cost_us = (
        observe::median(&mut plain.to_vec()),
        observe::median(&mut extras.to_vec()),
    );
    let whole_window = cpu.as_secs_f64() * 1e6 / stats.items_received.max(1) as f64;
    let cost_us = observe::median(&mut slice_us).unwrap_or(whole_window);
    let traced = open
        .obs
        .zip(close.obs)
        .map(|(obs_start, obs_end)| TracedExtras {
            obs_start,
            obs_end,
            pending_peak: sampled.pending_peak,
            half_cost_us: half_cost_us.0.zip(half_cost_us.1),
        });
    Ok(Outcome {
        ledger,
        setup_s,
        converge_ms,
        window: opts.window,
        units: stats.items_received,
        cpu,
        cost_us,
        stats,
        peak_rss_mb,
        rtt_us,
        late_us,
        ring_ms,
        chain_ms,
        // The driver and the sampler are the harness's two threads.
        threads_per_node: threads.saturating_sub(2) as f64 / w.nodes as f64,
        shutdown_s,
        traced,
    })
}
