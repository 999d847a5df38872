//! Hot-path node throughput: the batched arena sweep, the full unit
//! pipeline and the sharding axis.
//!
//! A node hosting `K` activities pays three recurring costs per TTB
//! round: the **sweep** (walk every due activity's referencer/referenced
//! tables and emit heartbeats), the **egress pipeline** (queue the
//! emitted units per destination, frame them), and the peer's **decode**.
//! This bench measures all three:
//!
//! 1. **Sweep** — `DgcState::on_tick_into` with reused
//!    [`SweepPools`] buffers over a flat due list.
//! 2. **Pipeline** — units/second through sweep → egress outbox →
//!    [`split_len`]-bounded [`encode_batch_frame`] → [`FrameDecoder`]
//!    (the zero-copy decode).
//! 3. **Sharding** — the same sweep fanned across
//!    [`dgc_core::sweep_sharded`] worker threads. On a single-core
//!    runner threads cannot beat inline; the axis is recorded honestly
//!    for what it is (`cores` is part of the record).
//!
//! **Methodology.** Each leg is scored by its **minimum** round time
//! over the repetitions, after one untimed warmup round (so first-touch
//! page faults on the tables and unit pools stay out of the numbers).
//! Minimum-of-N discards the noise spikes of a shared runner. These are
//! in-memory slices; what a cluster sustains on sockets is the
//! `benchmark/` harness's job.
//!
//! Scale: `quick` stops at 100 k activities; `full` adds the 1 M row.
//!
//! Run: `cargo bench -p dgc-bench --bench node_throughput`

use std::collections::HashMap;
use std::time::Instant;

use dgc_bench::Scale;
use dgc_core::clock::NamedClock;
use dgc_core::config::DgcConfig;
use dgc_core::egress::{FlushPolicy, Outbox};
use dgc_core::id::AoId;
use dgc_core::message::{Action, DgcMessage};
use dgc_core::protocol::DgcState;
use dgc_core::sweep::{sweep_sharded, SweepPools};
use dgc_core::units::{Dur, Time};
use dgc_rt_net::frame::{encode_batch_frame, split_len, FrameDecoder, Item};

/// Referenced targets per activity (heartbeats emitted per sweep).
const TARGETS: u32 = 32;
/// Referencer entries per activity (expiry-scan width per sweep).
const REFERENCERS: u32 = 32;
/// Remote activities heartbeats are spread over (distinct egress
/// destinations stay bounded, as on a real grid).
const PEER_ACTIVITIES: u32 = 64;

fn config() -> DgcConfig {
    DgcConfig::builder()
        .ttb(Dur::from_secs(30))
        // Wide enough that no referencer expires mid-measurement: the
        // bench times the steady broadcast state, not collection.
        .tta(Dur::from_secs(3600))
        .max_comm(Dur::from_millis(500))
        .build()
}

fn heartbeat(sender: AoId) -> DgcMessage {
    DgcMessage {
        sender,
        clock: NamedClock::initial(sender),
        consensus: false,
        sender_ttb: Dur::from_secs(30),
    }
}

/// The node under test: every hosted activity's full state machine.
fn build_states(k: u32) -> HashMap<u32, DgcState> {
    let cfg = config();
    let t0 = Time::ZERO;
    let mut states = HashMap::new();
    for i in 0..k {
        let me = AoId::new(0, i);
        let mut s = DgcState::new(me, t0, cfg);
        for j in 0..TARGETS {
            s.on_stub_deserialized(AoId::new(1, (i + j) % PEER_ACTIVITIES));
        }
        for j in 0..REFERENCERS {
            let from = AoId::new(1, (i * 7 + j) % PEER_ACTIVITIES);
            let _ = s.on_message(t0, &heartbeat(from));
        }
        states.insert(i, s);
    }
    states
}

/// Timed repetitions per leg (one extra untimed warmup round precedes
/// them). Minimum round time over these is the leg's score.
fn reps_for(scale: Scale) -> u32 {
    match scale {
        Scale::Full => 9,
        Scale::Quick => 5,
    }
}

/// One arena sweep round over every activity: flat due list,
/// [`sweep_sharded`] fan-out, drain the pooled units. Returns the
/// number of units drained.
fn arena_round(
    states: &mut HashMap<u32, DgcState>,
    pools: &mut SweepPools,
    now: Time,
    shards: usize,
) -> u64 {
    let mut due: Vec<&mut DgcState> = states.values_mut().collect();
    sweep_sharded(&mut due, shards, pools, |state, scratch, sink| {
        state.on_tick_into(now, true, scratch, sink);
    });
    drop(due);
    let mut units = 0u64;
    for unit in pools.drain_units() {
        std::hint::black_box(&unit.action);
        units += 1;
    }
    units
}

/// Sweep throughput (units/s) at `k` activities over `shards` threads:
/// minimum round time over `reps` repetitions after a warmup round.
fn sweep(k: u32, shards: usize, reps: u32) -> f64 {
    let mut states = build_states(k);
    let mut pools = SweepPools::new();
    let per_round = k as u64 * TARGETS as u64;
    let mut best = f64::INFINITY;
    for r in 0..=reps {
        let now = Time::from_nanos((r as u64 + 1) * 1_000_000_000);
        let t = Instant::now();
        let units = arena_round(&mut states, &mut pools, now, shards);
        let dt = t.elapsed().as_secs_f64();
        assert_eq!(units, per_round, "sweep emission drifted");
        if r > 0 {
            best = best.min(dt);
        }
    }
    per_round as f64 / best
}

/// Frames one egress flush through [`split_len`]-bounded
/// [`encode_batch_frame`] and feeds it back through a [`FrameDecoder`];
/// returns how many items round-tripped.
fn ship(flush: dgc_core::egress::Flush<Item>, decoder: &mut FrameDecoder) -> u64 {
    let mut decoded = 0u64;
    let items: Vec<Item> = flush.items.into_iter().map(|qi| qi.item).collect();
    let mut off = 0;
    while off < items.len() {
        let n = split_len(&items[off..]);
        let wire = encode_batch_frame(&items[off..off + n]);
        off += n;
        decoder.push(&wire);
        while let Some(frame) = decoder.next_frame().expect("self-framed stream") {
            if let dgc_rt_net::Frame::Batch(batch) = frame {
                decoded += batch.len() as u64;
            }
        }
    }
    decoded
}

/// units/s through the whole hot path: sweep → outbox enqueue → flush →
/// [`split_len`]-bounded [`encode_batch_frame`] → [`FrameDecoder`]
/// (zero-copy decode) → items. Minimum round time over `reps`.
fn pipeline(k: u32, reps: u32) -> f64 {
    let mut states = build_states(k);
    let mut pools = SweepPools::new();
    let mut outbox: Outbox<Item> = Outbox::new(FlushPolicy::default());
    let mut decoder = FrameDecoder::new();
    let per_round = k as u64 * TARGETS as u64;
    let mut best = f64::INFINITY;
    for r in 0..=reps {
        let now = Time::from_nanos((r as u64 + 1) * 1_000_000_000);
        let t = Instant::now();
        let mut decoded = 0u64;
        let mut due: Vec<&mut DgcState> = states.values_mut().collect();
        sweep_sharded(&mut due, 1, &mut pools, |state, scratch, sink| {
            state.on_tick_into(now, true, scratch, sink);
        });
        drop(due);
        for unit in pools.drain_units() {
            if let Action::SendMessage { to, message } = unit.action {
                let item = Item::Dgc {
                    from: unit.from,
                    to,
                    message,
                };
                let size = item.wire_size();
                if let Some(flush) = outbox.enqueue(now, to.node, item.class(), size, item) {
                    decoded += ship(flush, &mut decoder);
                }
            }
        }
        for flush in outbox.flush_all() {
            decoded += ship(flush, &mut decoder);
        }
        let dt = t.elapsed().as_secs_f64();
        assert_eq!(
            decoded, per_round,
            "every emitted unit must survive encode -> decode"
        );
        if r > 0 {
            best = best.min(dt);
        }
    }
    per_round as f64 / best
}

fn main() {
    let scale = Scale::from_env();
    let sizes: &[u32] = match scale {
        Scale::Full => &[10_000, 100_000, 1_000_000],
        Scale::Quick => &[10_000, 100_000],
    };
    let reps = reps_for(scale);

    println!("node_throughput (scale {scale:?}): K activities x {TARGETS} heartbeat targets");
    println!(
        "{:>9} {:>16} {:>16} {:>16}",
        "K", "sweep units/s", "sweep acts/s", "pipeline units/s"
    );

    let mut metrics: Vec<(String, f64)> = Vec::new();
    for &k in sizes {
        let sweep_ups = sweep(k, 1, reps);
        let sweep_aps = sweep_ups / TARGETS as f64;
        let pipe_ups = pipeline(k, reps);
        println!("{k:>9} {sweep_ups:>16.0} {sweep_aps:>16.0} {pipe_ups:>16.0}");
        let tag = if k >= 1_000_000 {
            format!("{}m", k / 1_000_000)
        } else {
            format!("{}k", k / 1_000)
        };
        metrics.push((format!("sweep_units_per_sec_{tag}"), sweep_ups));
        metrics.push((format!("sweep_activities_per_sec_{tag}"), sweep_aps));
        metrics.push((format!("pipeline_units_per_sec_{tag}"), pipe_ups));
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!();
    println!("sharding axis at 100k ({cores} core(s)):");
    for shards in [1usize, 2, 4] {
        let ups = sweep(100_000, shards, reps);
        println!("  shards {shards}: {ups:>14.0} units/s");
        metrics.push((format!("sharded_units_per_sec_100k_s{shards}"), ups));
    }
    metrics.push(("cores".to_string(), cores as f64));

    let borrowed: Vec<(&str, f64)> = metrics.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    dgc_bench::record("node_throughput", &borrowed);
}
