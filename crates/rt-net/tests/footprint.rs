//! The heap a socket node needs per hosted activity, TTB sweeps
//! included: two localhost nodes at the `dense_host` benchmark's shape
//! (2 × 2,000 activities × 2 cross-node references) beat for three
//! rounds, and the peak live heap over those rounds, divided by the
//! activities hosted, must stay under a bound.
//!
//! The bound catches a sweep burst held as decoded units: a TTB sweep
//! emits one unit per reference, and each of them once waited as a
//! 64–80 B `Item` in several whole-sweep buffers between the sweep and
//! the socket (and between the socket and dispatch on the other side),
//! for the 4–6 bytes it costs on the wire. That came to 1.9–2.1 KiB
//! per activity at this shape; a unit encoded once, at enqueue, keeps
//! the peak at about 1.0 KiB.
//!
//! The counting allocator below is this test binary's only: it adds
//! every allocation's size to a live count and keeps the count's peak.
//! The file holds one test so nothing else allocates beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use dgc_core::config::DgcConfig;
use dgc_core::id::AoId;
use dgc_core::units::Dur;
use dgc_rt_net::{Cluster, NetConfig};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(by: usize) {
    LIVE.fetch_sub(by, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const ACTS_PER_NODE: u32 = 2_000;
const TTB_MS: u64 = 100;

/// Peak live heap per hosted activity, in bytes. About 1.0 KiB at this
/// shape when each unit is encoded once, at enqueue, and 1.9–2.1 KiB
/// (debug and release builds) when sweeps wait as decoded units.
const MAX_BYTES_PER_ACTIVITY: usize = 1_536;

#[test]
fn peak_heap_per_hosted_activity_stays_bounded() {
    let before = LIVE.load(Ordering::Relaxed);
    let cfg = NetConfig::new(
        DgcConfig::builder()
            .ttb(Dur::from_millis(TTB_MS))
            .tta(Dur::from_millis(4 * TTB_MS))
            .max_comm(Dur::from_millis(TTB_MS / 2))
            .build(),
    );
    let cluster = Cluster::listen_local(2, cfg).unwrap();
    let acts: Vec<Vec<AoId>> = (0..2)
        .map(|node| {
            (0..ACTS_PER_NODE)
                .map(|_| cluster.add_activity(node))
                .collect()
        })
        .collect();
    // Every activity stays busy and holds two references to the other
    // node, so each sweep sends 2 × 2,000 heartbeats each way.
    for (node, own) in acts.iter().enumerate() {
        let other = &acts[1 - node];
        for (i, &from) in own.iter().enumerate() {
            cluster.add_ref(from, other[i]);
            cluster.add_ref(from, other[(i * 7 + 3) % other.len()]);
        }
    }
    // The queries answer through each node's event loop, after every
    // set-up event sent before them: from here on the heap holds the
    // hosted state, and the peak is what the beats add to it.
    for node in 0..2 {
        assert!(cluster.egress_stats(node).is_some(), "node {node} answers");
    }
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    std::thread::sleep(Duration::from_millis(3 * TTB_MS + TTB_MS / 2));
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(before);
    let received = cluster.total_stats().frames_received;
    cluster.shutdown();

    assert!(received > 0, "the nodes never beat");
    let per_activity = peak / (2 * ACTS_PER_NODE as usize);
    println!("peak live heap {peak} B, {per_activity} B per hosted activity");
    assert!(
        per_activity <= MAX_BYTES_PER_ACTIVITY,
        "peak live heap {peak} B is {per_activity} B per hosted activity, over {MAX_BYTES_PER_ACTIVITY}"
    );
}
