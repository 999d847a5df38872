//! Transport scaling — OS threads per node at a thousand-peer fan-in.
//!
//! Every socket of a node sits on the node's one readiness loop, so a
//! node's thread count must not depend on how many peers it talks to:
//! its fan-in is capped by the protocol and the kernel's descriptor
//! limit, not by the scheduler's tolerance for per-link threads.
//!
//! This bench builds a hub-and-spoke cluster — one hub node hosting a
//! busy activity, N spoke nodes each holding a reference to it — lets
//! the spokes' TTB heartbeats converge on the hub for a fixed window,
//! and reports live OS threads per node.
//!
//! Run: `cargo bench -p dgc-bench --bench reactor_scale`
//! (`DGC_BENCH_SCALE=quick` shrinks the cluster for smoke runs.)

use std::time::{Duration, Instant};

use dgc_bench::Scale;
use dgc_core::config::DgcConfig;
use dgc_core::units::Dur;
use dgc_rt_net::{NetConfig, NetNode};

/// Live threads in this process, per the kernel.
fn live_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

struct Run {
    nodes: u32,
    threads: usize,
    items_received: u64,
    frames_received: u64,
    elapsed: Duration,
}

/// One hub + `spokes` spoke nodes, heartbeating for `window`; threads
/// are sampled at the end of the window, with every link long wired.
fn run(spokes: u32, window: Duration) -> Run {
    let before = live_threads();
    let dgc = DgcConfig::builder()
        .ttb(Dur::from_millis(300))
        .tta(Dur::from_millis(960))
        .max_comm(Dur::from_millis(240))
        .build();
    let config = NetConfig::new(dgc);
    let hub = NetNode::bind(0, config).expect("bind hub");
    let target = hub.add_activity(); // stays busy: a root the spokes hold
    let mut nodes = Vec::with_capacity(spokes as usize);
    for id in 1..=spokes {
        let node = NetNode::bind(id, config).expect("bind spoke");
        node.add_peer(0, hub.addr());
        let holder = node.add_activity(); // busy holder: heartbeats flow forever
        node.add_ref(holder, target);
        nodes.push(node);
    }
    let start = Instant::now();
    std::thread::sleep(window);
    let threads = live_threads().saturating_sub(before);
    let stats = hub.stats();
    let elapsed = start.elapsed();
    for node in nodes {
        node.shutdown();
    }
    hub.shutdown();
    Run {
        nodes: spokes + 1,
        threads,
        items_received: stats.items_received,
        frames_received: stats.frames_received,
        elapsed,
    }
}

fn report(r: &Run) -> f64 {
    let per_node = r.threads as f64 / r.nodes as f64;
    println!(
        "  {:>5} nodes, {:>6} transport threads ({per_node:>5.2}/node), \
         hub took {} heartbeats in {} frames over {:.1}s",
        r.nodes,
        r.threads,
        r.items_received,
        r.frames_received,
        r.elapsed.as_secs_f64(),
    );
    per_node
}

fn main() {
    let scale = Scale::from_env();
    // A 1000-spoke hub needs ~4 fds per spoke across both endpoints.
    let nofile = polling::raise_nofile_limit();
    let (spokes, window) = match scale {
        Scale::Full => (1000, Duration::from_secs(10)),
        Scale::Quick => (128, Duration::from_secs(3)),
    };
    println!(
        "reactor_scale: hub-and-spoke heartbeat convergence (RLIMIT_NOFILE {nofile}, \
         scale {scale:?})"
    );

    let reactor = run(spokes, window);
    let reactor_per_node = report(&reactor);

    // The claim under test: every node is one event loop (== one
    // thread), so the whole-process count stays ~1/node however many
    // links converge on the hub.
    assert!(
        reactor.items_received > reactor.nodes as u64,
        "hub must have taken at least one heartbeat round from {} spokes, got {}",
        reactor.nodes - 1,
        reactor.items_received
    );
    assert!(
        reactor_per_node < 2.0,
        "the transport regressed to per-link threads: {reactor_per_node:.2}/node"
    );

    dgc_bench::record(
        "reactor_scale",
        &[
            ("reactor_nodes", reactor.nodes as f64),
            ("reactor_threads", reactor.threads as f64),
            ("reactor_threads_per_node", reactor_per_node),
            ("reactor_hub_items", reactor.items_received as f64),
            ("reactor_hub_frames", reactor.frames_received as f64),
            ("window_secs", window.as_secs_f64()),
        ],
    );
}
