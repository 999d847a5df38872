//! The layer probe: each layer's public functions called in pipeline
//! order, in-process and single-threaded, with a span around every call
//! from this file. It replays the heartbeat rounds of two nodes shaped
//! like the workload (activities per node x references each) — sweep,
//! outbox, encode, decode, dispatch, response leg — and then times the
//! layers a round does not touch (edge mutation, membership, the tenant
//! plane, telemetry) and the two other hosts of the same core.
//!
//! Every `*_ns_per_unit` figure is a stage's time in a round divided by
//! the units that round delivers (messages + responses), so the stages
//! add up to `rtnet.probe.stage_sum_ns_per_unit`, which subtracts
//! directly from the socket run's `cpu_us_per_unit`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use dgc_activeobj::collector::CollectorKind;
use dgc_core::config::DgcConfig;
use dgc_core::egress::{Flush, FlushPolicy, Outbox};
use dgc_core::harness::Harness;
use dgc_core::id::AoId;
use dgc_core::message::Action;
use dgc_core::protocol::DgcState;
use dgc_core::sweep::{sweep_sharded, SweepPools, SweepUnit};
use dgc_core::units::{Dur, Time};
use dgc_membership::{wire as member_wire, Membership, MembershipConfig};
use dgc_obs::{Registry, TimeSource};
use dgc_plane::{
    AuthKey, Authenticator, Envelope, MiddlewareCtx, Pipeline, Step, TenantId, TenantMap, NONCE_LEN,
};
use dgc_rt_net::frame::{encode_batch_frame, split_len, Frame, FrameDecoder, Item};
use dgc_rt_net::{Cluster, NetConfig};
use dgc_rt_thread::ThreadGrid;
use dgc_simnet::time::SimTime;
use dgc_simnet::topology::Topology;
use dgc_workloads::torture::{run_torture, TortureParams};

use crate::gen::{self, Rng};
use crate::observe;
use crate::spec::Workload;
use crate::trace::Tracer;

/// What the probe measured.
pub struct Probed {
    /// Per-layer metrics by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Sum of the round stages, ns per delivered unit.
    pub stage_sum_ns: f64,
}

const WARM_ROUNDS: u64 = 2;
const ROUNDS: u64 = 20;

fn dgc_config(w: &Workload) -> DgcConfig {
    DgcConfig::builder()
        .ttb(Dur::from_millis(w.ttb_ms))
        .tta(Dur::from_millis(w.tta_ms))
        .max_comm(Dur::from_millis(w.max_comm_ms))
        .build()
}

/// The millisecond timing every fixed-shape probe uses.
fn fast_config() -> DgcConfig {
    DgcConfig::builder()
        .ttb(Dur::from_millis(50))
        .tta(Dur::from_millis(160))
        .max_comm(Dur::from_millis(40))
        .build()
}

/// Stage totals of the replayed rounds.
#[derive(Default)]
struct Stages {
    sweep: Duration,
    enqueue: Duration,
    flush: Duration,
    encode: Duration,
    decode: Duration,
    on_message: Duration,
    on_response: Duration,
    units: u64,
}

/// One node of the replay: its hosted states and its egress side.
struct Side {
    states: Vec<DgcState>,
    idle: Vec<bool>,
    pools: SweepPools,
    outbox: Outbox<Item>,
    decoder: FrameDecoder,
}

struct Replay<'a> {
    tracer: &'a mut Tracer,
    stages: Stages,
    round: u64,
    parent: Option<usize>,
    record: bool,
}

impl Replay<'_> {
    /// Times `f` as one child span of the current round.
    fn stage<R>(
        &mut self,
        name: &'static str,
        pick: fn(&mut Stages) -> &mut Duration,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if self.record {
            *pick(&mut self.stages) += end - start;
            self.tracer
                .record(name, "probe", self.round, self.parent, start, end);
        }
        out
    }

    /// Queues `items` on `from`'s outbox, flushes, frames, and decodes
    /// on `to`'s decoder: the path of one direction of one leg.
    fn ship(&mut self, now: Time, from: &mut Side, to: &mut Side, items: Vec<Item>) -> Vec<Item> {
        let mut flushes: Vec<Flush<Item>> = Vec::new();
        self.stage(
            "enqueue",
            |s| &mut s.enqueue,
            || {
                for item in items {
                    let (dest, class, size) =
                        (item.destination_node(), item.class(), item.wire_size());
                    flushes.extend(from.outbox.enqueue(now, dest, class, size, item));
                }
            },
        );
        self.stage(
            "flush",
            |s| &mut s.flush,
            || {
                flushes.extend(from.outbox.flush_all());
            },
        );
        let batches: Vec<Vec<Item>> = flushes
            .into_iter()
            .map(|f| f.items.into_iter().map(|q| q.item).collect())
            .collect();
        let wire: Vec<Vec<u8>> = self.stage(
            "encode",
            |s| &mut s.encode,
            || {
                let mut frames = Vec::new();
                for batch in &batches {
                    let mut off = 0;
                    while off < batch.len() {
                        let n = split_len(&batch[off..]);
                        frames.push(encode_batch_frame(&batch[off..off + n]));
                        off += n;
                    }
                }
                frames
            },
        );
        self.stage(
            "decode",
            |s| &mut s.decode,
            || {
                let mut out = Vec::new();
                for frame in &wire {
                    to.decoder.push(frame);
                    while let Some(frame) = to.decoder.next_frame().expect("self-framed stream") {
                        if let Frame::Batch(items) = frame {
                            out.extend(items);
                        }
                    }
                }
                out
            },
        )
    }

    /// One node's heartbeat leg: `a` sweeps and sends, `b` answers, `a`
    /// takes the answers in.
    fn leg(&mut self, now: Time, a: &mut Side, b: &mut Side) {
        let messages: Vec<Item> = self.stage(
            "sweep",
            |s| &mut s.sweep,
            || {
                let mut due: Vec<(&mut DgcState, bool)> =
                    a.states.iter_mut().zip(a.idle.iter().copied()).collect();
                sweep_sharded(
                    &mut due,
                    1,
                    &mut a.pools,
                    |(state, idle), scratch, units| {
                        state.on_tick_into(now, *idle, scratch, units);
                    },
                );
                drop(due);
                a.pools
                    .drain_units()
                    .filter_map(|u| match u.action {
                        Action::SendMessage { to, message } => Some(Item::Dgc {
                            from: u.from,
                            to,
                            message,
                        }),
                        _ => None,
                    })
                    .collect()
            },
        );
        let delivered = self.ship(now, a, b, messages);
        let sent = delivered.len() as u64;
        let responses: Vec<Item> = self.stage(
            "dispatch.on_message",
            |s| &mut s.on_message,
            || {
                let mut sink: Vec<SweepUnit> = Vec::with_capacity(delivered.len());
                for item in &delivered {
                    if let Item::Dgc { to, message, .. } = item {
                        b.states[to.index as usize].on_message_into(now, message, &mut sink);
                    }
                }
                sink.into_iter()
                    .filter_map(|u| match u.action {
                        Action::SendResponse { to, response } => Some(Item::Resp {
                            from: u.from,
                            to,
                            response,
                        }),
                        _ => None,
                    })
                    .collect()
            },
        );
        let answered = self.ship(now, b, a, responses);
        self.stage(
            "dispatch.on_response",
            |s| &mut s.on_response,
            || {
                for item in &answered {
                    if let Item::Resp { from, to, response } = item {
                        let i = to.index as usize;
                        black_box(a.states[i].on_response(now, *from, response, a.idle[i]));
                    }
                }
            },
        );
        if self.record {
            self.stages.units += sent + answered.len() as u64;
        }
    }
}

/// Replays TTB rounds of two nodes shaped like `w` and returns the
/// stage totals.
fn replay_rounds(w: &Workload, seed: u64, tracer: &mut Tracer) -> Stages {
    let shape = Workload {
        nodes: 2,
        twin_refs: false,
        tenants: 0,
        ..*w
    };
    let graph = gen::graph(&shape, &mut Rng::new(seed));
    let cfg = dgc_config(w);
    let mut sides: Vec<Side> = (0..2u32)
        .map(|node| Side {
            states: (0..shape.acts_per_node)
                .map(|i| DgcState::new(AoId::new(node, i), Time::ZERO, cfg))
                .collect(),
            // Everyone starts busy, like the socket run's set-up.
            idle: vec![false; shape.acts_per_node as usize],
            pools: SweepPools::new(),
            outbox: Outbox::new(FlushPolicy::default()),
            decoder: FrameDecoder::new(),
        })
        .collect();
    for (from, to) in &graph.edges {
        sides[from.0 as usize].states[from.1 as usize].on_stub_deserialized(AoId::new(to.0, to.1));
    }
    let mut replay = Replay {
        tracer,
        stages: Stages::default(),
        round: 0,
        parent: None,
        record: false,
    };
    for round in 1..=WARM_ROUNDS + ROUNDS {
        let now = Time::from_nanos(round * cfg.ttb.as_nanos());
        replay.round = round;
        replay.record = round > WARM_ROUNDS;
        // Opened before its children so they can name it as parent.
        replay.parent = if replay.record {
            replay.tracer.open("round", "probe", round, Instant::now())
        } else {
            None
        };
        let (left, right) = sides.split_at_mut(1);
        replay.leg(now, &mut left[0], &mut right[0]);
        replay.leg(now, &mut right[0], &mut left[0]);
        replay.tracer.close(replay.parent, Instant::now());
        if round == 1 {
            // First round delivered: dependents may go idle now.
            for (node, side) in sides.iter_mut().enumerate() {
                for (i, state) in side.states.iter_mut().enumerate() {
                    if !graph.busy[node][i] {
                        state.on_became_idle(now);
                        side.idle[i] = true;
                    }
                }
            }
        }
    }
    let alive = sides.iter().flat_map(|s| &s.states).all(|s| !s.is_dead());
    assert!(alive, "the probe's standing graph must stay live");
    replay.stages
}

fn per_op(total: Duration, ops: u64) -> f64 {
    total.as_secs_f64() * 1e9 / ops.max(1) as f64
}

/// `on_stub_deserialized` + `on_stubs_collected` on states already
/// holding 8 and 256 edges: the table-mutation cost garbage churn and
/// set-up pay.
fn edge_mutate_ns() -> f64 {
    const OPS: u32 = 20_000;
    let mut total = Duration::ZERO;
    for held in [8u32, 256] {
        let mut state = DgcState::new(AoId::new(0, 0), Time::ZERO, fast_config());
        for i in 0..held {
            state.on_stub_deserialized(AoId::new(1, i * 2));
        }
        let start = Instant::now();
        for k in 0..OPS {
            // Odd indices interleave with the held (even) ones.
            let target = AoId::new(1, (k % held) * 2 + 1);
            state.on_stub_deserialized(black_box(target));
            state.on_stubs_collected(black_box(target));
        }
        total += start.elapsed();
        black_box(state.referenced_count());
    }
    per_op(total, 2 * 2 * OPS as u64)
}

/// Resident bytes per hosted activity: 8,000 states with 2 edges each.
fn state_bytes() -> f64 {
    const N: u32 = 8_000;
    let before = observe::rss_bytes();
    let states: Vec<DgcState> = (0..N)
        .map(|i| {
            let mut s = DgcState::new(AoId::new(0, i), Time::ZERO, fast_config());
            s.on_stub_deserialized(AoId::new(1, i));
            s.on_stub_deserialized(AoId::new(1, (i + 1) % N));
            s
        })
        .collect();
    let after = observe::rss_bytes();
    black_box(&states);
    after.saturating_sub(before) as f64 / N as f64
}

/// TTB rounds from idle to the last termination of a 4-ring in the
/// in-memory harness at zero latency: an exact count.
fn ring4_rounds() -> f64 {
    let cfg = fast_config();
    let mut h = Harness::new(Dur::ZERO);
    let ring = h.add_many(4, cfg);
    for i in 0..4 {
        h.add_ref(ring[i], ring[(i + 1) % 4]);
    }
    // Two rounds busy, so every member has heard its referencer.
    h.run_for(cfg.ttb.saturating_mul(2));
    let idle_at = h.now();
    for id in &ring {
        h.set_idle(*id, true);
    }
    h.run_for(cfg.ttb.saturating_mul(200));
    assert_eq!(h.alive_count(), 0, "the harness must collect a 4-ring");
    let last = h
        .terminations()
        .iter()
        .map(|t| t.at)
        .max()
        .unwrap_or(idle_at);
    last.since(idle_at).as_nanos() as f64 / cfg.ttb.as_nanos() as f64
}

/// Six in-memory membership engines gossiping through the wire codec.
/// Returns `(on_tick ns, on_digest ns, digest bytes per round)`.
fn membership_rounds() -> (f64, f64, f64) {
    const NODES: u32 = 6;
    const ROUNDS: u64 = 60;
    let cfg = MembershipConfig::scaled(Dur::from_millis(50));
    let addr = |n: u32| {
        Some(std::net::SocketAddr::from((
            [127, 0, 0, 1],
            9000 + n as u16,
        )))
    };
    let mut engines: Vec<Membership> = (0..NODES)
        .map(|n| Membership::new(n, addr(n), 1, Time::ZERO, cfg))
        .collect();
    for e in engines.iter_mut().skip(1) {
        e.on_contact(Time::ZERO, 0, addr(0));
    }
    let (mut tick, mut digest) = (Duration::ZERO, Duration::ZERO);
    let (mut ticks, mut digests, mut bytes) = (0u64, 0u64, 0u64);
    let mut measured_rounds = 0u64;
    for round in 1..=ROUNDS {
        let now = Time::from_nanos(round * cfg.gossip_interval.as_nanos());
        // The first third converges the directories; measure the rest.
        let measured = round > ROUNDS / 3;
        measured_rounds += measured as u64;
        let mut outbound = Vec::new();
        for e in engines.iter_mut() {
            let start = Instant::now();
            let outs = e.on_tick(now);
            if measured {
                tick += start.elapsed();
                ticks += 1;
            }
            outbound.extend(outs.into_iter().map(|o| (e.node_id(), o)));
        }
        while let Some((from, out)) = outbound.pop() {
            let mut buf = BytesMut::new();
            member_wire::put_digest(&mut buf, &out.digest);
            if measured {
                bytes += buf.len() as u64;
            }
            let decoded = member_wire::get_digest(&mut buf.freeze()).expect("own encoding");
            let to = &mut engines[out.to as usize];
            let start = Instant::now();
            let replies = to.on_digest(now, from, &decoded);
            if measured {
                digest += start.elapsed();
                digests += 1;
            }
            outbound.extend(replies.into_iter().map(|o| (out.to, o)));
        }
    }
    assert!(
        engines.iter().all(|e| e.records().len() == NODES as usize),
        "in-memory gossip must converge"
    );
    (
        per_op(tick, ticks),
        per_op(digest, digests),
        bytes as f64 / measured_rounds as f64,
    )
}

/// `join_local` to every node knowing every address, ms.
fn gossip_converge_ms() -> Result<f64, String> {
    const NODES: u32 = 6;
    let config =
        NetConfig::new(fast_config()).membership(MembershipConfig::scaled(Dur::from_millis(50)));
    let start = Instant::now();
    let cluster = Cluster::join_local(NODES, config).map_err(|e| format!("gossip probe: {e}"))?;
    for node in 0..NODES {
        let known = cluster.wait_membership_until(node, Duration::from_secs(10), |r| {
            r.len() == NODES as usize && r.iter().all(|rec| rec.addr.is_some())
        });
        if !known {
            return Err(format!("gossip probe: node {node} never converged"));
        }
    }
    let ms = start.elapsed().as_secs_f64() * 1e3;
    cluster.shutdown();
    Ok(ms)
}

/// `Pipeline::standard()` outgoing + incoming, ns per envelope.
fn pipeline_ns() -> f64 {
    const OPS: u64 = 100_000;
    let mut tenants = TenantMap::new();
    let (from, to) = (AoId::new(0, 1), AoId::new(1, 2));
    tenants.register(from, TenantId(1));
    tenants.register(to, TenantId(1));
    let ctx = MiddlewareCtx {
        link_authenticated: true,
        tenants: &tenants,
    };
    let mut pipeline = Pipeline::standard();
    let mut env = Envelope {
        from,
        to,
        reply: false,
        tenant: TenantId::DEFAULT,
        payload: vec![0u8; crate::drive::PING_BYTES],
    };
    let start = Instant::now();
    for _ in 0..OPS {
        black_box(pipeline.outgoing(black_box(&mut env), &ctx));
        black_box(pipeline.incoming(black_box(&mut env), &ctx));
    }
    per_op(start.elapsed(), OPS)
}

/// One full in-memory PSK handshake (Init, Challenge, Proof), us.
fn handshake_us() -> f64 {
    const OPS: u64 = 2_000;
    let key = AuthKey::from_secret("dgc-benchmark");
    let start = Instant::now();
    for i in 0..OPS {
        let nonce = |salt: u8| [salt ^ i as u8; NONCE_LEN];
        let (mut client, init) = Authenticator::initiator(key, nonce(1));
        let mut server = Authenticator::responder(key, nonce(2));
        let Ok(Step::Send(challenge)) = server.on_msg(&init) else {
            panic!("responder must challenge");
        };
        let Ok(Step::SendAndDone(proof)) = client.on_msg(&challenge) else {
            panic!("initiator must prove");
        };
        assert_eq!(server.on_msg(&proof), Ok(Step::Done));
        black_box((client.is_done(), server.is_done()));
    }
    per_op(start.elapsed(), OPS) / 1e3
}

/// `(counter incr ns, histogram record ns, snapshot us)` on a registry
/// about as full as a node's.
fn obs_costs() -> (f64, f64, f64) {
    const OPS: u64 = 1_000_000;
    let registry = Registry::new(TimeSource::wall());
    for i in 0..40 {
        registry.counter(&format!("probe.filler.{i}")).incr();
    }
    let counter = registry.counter("probe.counter");
    let histogram = registry.histogram("probe.histogram");
    let start = Instant::now();
    for _ in 0..OPS {
        black_box(&counter).incr();
    }
    let incr = per_op(start.elapsed(), OPS);
    let start = Instant::now();
    for i in 0..OPS {
        black_box(&histogram).record(black_box(i));
    }
    let record = per_op(start.elapsed(), OPS);
    let start = Instant::now();
    for _ in 0..1_000 {
        black_box(registry.snapshot());
    }
    (incr, record, per_op(start.elapsed(), 1_000) / 1e3)
}

/// The simulator host: the small torture test. `(wall ms, bytes)`.
fn torture(seed: u64) -> (f64, f64) {
    let cfg = DgcConfig::builder()
        .ttb(Dur::from_secs(30))
        .tta(Dur::from_secs(150))
        .max_comm(Dur::from_millis(500))
        .build();
    let start = Instant::now();
    let out = run_torture(
        &TortureParams::small(),
        Topology::grid5000_scaled(2),
        CollectorKind::Complete(cfg),
        seed,
        SimTime::from_secs(3_000),
    );
    let wall = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        out.violations, 0,
        "the simulator's oracle found a violation"
    );
    assert_eq!(out.leaked, 0, "the simulator leaked garbage");
    (wall, out.total_bytes as f64)
}

/// The thread host: one cross-node 4-ring on `ThreadGrid`, ms.
fn thread_ring_ms() -> Result<f64, String> {
    let grid = ThreadGrid::new(4, fast_config());
    let ring: Vec<AoId> = (0..4).map(|n| grid.add_activity(n)).collect();
    for i in 0..4 {
        grid.add_ref(ring[i], ring[(i + 1) % 4]);
    }
    let start = Instant::now();
    for id in &ring {
        grid.set_idle(*id, true);
    }
    let collected = grid.wait_until(Duration::from_secs(10), |t| t.len() == 4);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    grid.shutdown();
    if collected {
        Ok(ms)
    } else {
        Err("thread probe: the 4-ring was not collected in 10 s".to_string())
    }
}

/// Runs every probe. `gossiping` workloads measure convergence in their
/// own set-up, so the stand-in cluster is skipped for them.
pub fn run(w: &Workload, seed: u64, tracer: &mut Tracer) -> Result<Probed, String> {
    let s = tracer.span("probe.rounds", "driver", 0, None, |t| {
        replay_rounds(w, seed, t)
    });
    let units = s.units;
    let stage = |d: Duration| per_op(d, units);
    // Activities swept per measured round: both nodes, every round.
    let swept = 2 * w.acts_per_node as u64 * ROUNDS;
    let stages = [
        ("core.sweep.ns_per_unit", stage(s.sweep)),
        ("core.on_message.ns_per_unit", stage(s.on_message)),
        ("core.on_response.ns_per_unit", stage(s.on_response)),
        ("core.egress.enqueue_ns_per_unit", stage(s.enqueue)),
        ("core.egress.flush_ns_per_unit", stage(s.flush)),
        ("rtnet.frame.encode_ns_per_unit", stage(s.encode)),
        ("rtnet.frame.decode_ns_per_unit", stage(s.decode)),
    ];
    let stage_sum_ns: f64 = stages.iter().map(|(_, v)| v).sum();
    let mut metrics = stages.to_vec();
    metrics.push(("core.sweep.ns_per_activity", per_op(s.sweep, swept)));
    metrics.push(("rtnet.probe.stage_sum_ns_per_unit", stage_sum_ns));

    tracer.span("probe.layers", "driver", 0, None, |_| {
        metrics.push(("core.edge_mutate.ns_per_op", edge_mutate_ns()));
        metrics.push(("core.state.bytes_per_activity", state_bytes()));
        metrics.push(("core.harness.ring4_rounds", ring4_rounds()));
        let (tick, digest, bytes) = membership_rounds();
        metrics.push(("membership.on_tick_ns", tick));
        metrics.push(("membership.on_digest_ns", digest));
        metrics.push(("membership.digest_bytes_per_round", bytes));
        metrics.push(("plane.pipeline_ns_per_envelope", pipeline_ns()));
        metrics.push(("plane.handshake_us", handshake_us()));
        let (incr, record, snapshot) = obs_costs();
        metrics.push(("obs.counter_incr_ns", incr));
        metrics.push(("obs.histogram_record_ns", record));
        metrics.push(("obs.snapshot_us", snapshot));
    });
    if !w.gossip {
        let ms = tracer.span("probe.gossip_join", "driver", 0, None, |_| {
            gossip_converge_ms()
        })?;
        metrics.push(("membership.converge_ms", ms));
    }
    let (wall, bytes) = tracer.span("probe.sim", "driver", 0, None, |_| torture(seed));
    metrics.push(("sim.torture_wall_ms", wall));
    metrics.push(("sim.torture_bytes", bytes));
    let ring = tracer.span("probe.thread", "driver", 0, None, |_| thread_ring_ms())?;
    metrics.push(("rtthread.ring_reclaim_ms", ring));
    Ok(Probed {
        metrics,
        stage_sum_ns,
    })
}
