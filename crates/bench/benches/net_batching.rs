//! Transport batching — bytes per TTB round, batched vs unbatched.
//!
//! The paper's fig. 8 measures the DGC's bandwidth overhead when every
//! DGC call travels as its own RMI invocation. `dgc-rt-net` coalesces
//! all heartbeats bound for one remote node into a single frame; this
//! bench quantifies the saving two ways:
//!
//! 1. **Codec-level** (deterministic): encode one TTB round of
//!    heartbeats from a node hosting `k` referencers of activities on
//!    one peer, as one batched frame vs one frame per message, and
//!    compare the exact byte counts.
//! 2. **Socket-level** (live): run a two-node localhost cluster in both
//!    modes for a fixed wall-clock window and report measured
//!    bytes/frames per delivered protocol unit.
//!
//! Run: `cargo bench -p dgc-bench --bench net_batching`

use std::time::Duration;

use dgc_core::clock::NamedClock;
use dgc_core::config::DgcConfig;
use dgc_core::id::AoId;
use dgc_core::message::DgcMessage;
use dgc_core::units::Dur;
use dgc_rt_net::frame::{encode_frame, Frame, Item, FRAME_OVERHEAD};
use dgc_rt_net::{Cluster, NetConfig};

fn heartbeat_round(k: u32) -> Vec<Item> {
    (0..k)
        .map(|i| {
            let from = AoId::new(0, i);
            Item::Dgc {
                from,
                to: AoId::new(1, i % 4),
                message: DgcMessage {
                    sender: from,
                    clock: NamedClock {
                        value: 17,
                        owner: from,
                    },
                    consensus: false,
                    sender_ttb: Dur::from_secs(30),
                },
            }
        })
        .collect()
}

fn codec_level() {
    println!("codec-level: one TTB round of k heartbeats to one peer node");
    println!(
        "{:>6} {:>14} {:>16} {:>10} {:>12}",
        "k", "batched B", "unbatched B", "saved %", "framing B"
    );
    for k in [1u32, 4, 16, 64, 256, 1024] {
        let round = heartbeat_round(k);
        let batched = encode_frame(&Frame::Batch(round.clone())).len() as u64;
        let unbatched: u64 = round
            .iter()
            .map(|i| encode_frame(&Frame::Batch(vec![i.clone()])).len() as u64)
            .sum();
        // The floor: one framing overhead per frame avoided. Items that
        // share a frame also stop restating each other's fields, so the
        // saving exceeds it whenever k > 1.
        let framing = (k as u64 - 1) * FRAME_OVERHEAD;
        assert!(
            k == 1 || batched < unbatched,
            "batching must strictly save bytes for k={k}"
        );
        assert!(
            unbatched - batched >= framing,
            "batching saved less than the framing it removed"
        );
        println!(
            "{:>6} {:>14} {:>16} {:>9.1}% {:>12}",
            k,
            batched,
            unbatched,
            100.0 * (unbatched - batched) as f64 / unbatched as f64,
            framing
        );
    }
}

fn socket_level(batching: bool) -> (u64, u64, u64) {
    let dgc = DgcConfig::builder()
        .ttb(Dur::from_millis(20))
        .tta(Dur::from_millis(70))
        .max_comm(Dur::from_millis(15))
        .build();
    let cluster = Cluster::listen_local(2, NetConfig::new(dgc).batching(batching)).unwrap();
    let targets: Vec<_> = (0..4).map(|_| cluster.add_activity(1)).collect();
    for _ in 0..16 {
        let holder = cluster.add_activity(0);
        for t in &targets {
            cluster.add_ref(holder, *t);
        }
    }
    std::thread::sleep(Duration::from_millis(700));
    let s = cluster.stats()[0];
    cluster.shutdown();
    (s.items_sent, s.frames_sent, s.bytes_sent)
}

fn main() {
    codec_level();
    println!();
    println!("socket-level: 16 referencers x 4 targets on one peer, 700 ms live run");
    let (bi, bf, bb) = socket_level(true);
    let (ui, uf, ub) = socket_level(false);
    let per = |bytes: u64, items: u64| {
        if items == 0 {
            0.0
        } else {
            bytes as f64 / items as f64
        }
    };
    println!(
        "  batched:   {bi:>6} items in {bf:>5} frames, {bb:>8} B ({:>6.1} B/item)",
        per(bb, bi)
    );
    println!(
        "  unbatched: {ui:>6} items in {uf:>5} frames, {ub:>8} B ({:>6.1} B/item)",
        per(ub, ui)
    );
    let mut saving_pct = 0.0;
    if bi > 0 && ui > 0 {
        assert!(
            per(bb, bi) < per(ub, ui),
            "batched transport must cost fewer bytes per protocol unit"
        );
        saving_pct = 100.0 * (1.0 - per(bb, bi) / per(ub, ui));
        println!("  batching saves {saving_pct:.1}% bytes per delivered unit");
    }
    dgc_bench::record(
        "net_batching",
        &[
            ("batched_bytes_per_item", per(bb, bi)),
            ("unbatched_bytes_per_item", per(ub, ui)),
            ("batched_items_per_frame", per(bi, bf)),
            ("unbatched_items_per_frame", per(ui, uf)),
            ("socket_saving_pct", saving_pct),
        ],
    );
}
