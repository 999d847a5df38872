//! The per-node metric registry and its snapshot tree.
//!
//! One [`Registry`] per node (a simulated proc or a socket runtime
//! worker) owns every counter, gauge and histogram that node records,
//! plus its [`Tracer`] and the [`TimeSource`] all timestamps come
//! from. Names are dotted paths (`net.frames_sent`,
//! `dgc.collect.idle_to_collected_ns`); [`Snapshot`] renders them as a
//! tree and merges across nodes for fleet-wide totals. Registration is
//! the cold path (a mutex-guarded map); recording goes through the
//! cached lock-free handles from [`crate::metrics`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use crate::time::TimeSource;
use crate::trace::{TraceLevel, Tracer};

#[derive(Debug, Default)]
struct Tables {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

#[derive(Debug)]
struct Inner {
    tables: Mutex<Tables>,
    tracer: Tracer,
    time: TimeSource,
}

/// One node's telemetry plane: metric tables + tracer + clock.
#[derive(Debug, Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new(TimeSource::wall())
    }
}

impl Registry {
    /// A registry reading time from `time`, tracing off.
    pub fn new(time: TimeSource) -> Registry {
        Registry::with_tracer(time, Tracer::off())
    }

    /// A registry sharing an existing tracer (the simulator's grid
    /// log and its per-proc registries speak through one ring).
    pub fn with_tracer(time: TimeSource, tracer: Tracer) -> Registry {
        Registry {
            inner: Arc::new(Inner {
                tables: Mutex::new(Tables::default()),
                tracer,
                time,
            }),
        }
    }

    /// The counter named `name`, created zeroed on first use. Cache
    /// the returned handle; lookups lock.
    pub fn counter(&self, name: &str) -> Counter {
        handle(&mut self.inner.tables.lock().counters, name)
    }

    /// The gauge named `name`, created zeroed on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        handle(&mut self.inner.tables.lock().gauges, name)
    }

    /// The histogram named `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        handle(&mut self.inner.tables.lock().histograms, name)
    }

    /// This node's tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    /// This node's clock.
    pub fn time(&self) -> &TimeSource {
        &self.inner.time
    }

    /// Nanoseconds since the registry's epoch (virtual or wall).
    #[inline]
    pub fn now_nanos(&self) -> u64 {
        self.inner.time.now_nanos()
    }

    /// Shorthand: records an instant trace event stamped "now".
    #[inline]
    pub fn trace(&self, level: TraceLevel, tag: &'static str, detail: String) {
        self.inner
            .tracer
            .event(self.now_nanos(), level, tag, detail);
    }

    /// Refreshes the `lockcheck.*` gauges from the process-wide
    /// lock-order detector in the vendored `parking_lot` shim:
    /// `lockcheck.edges` (distinct observed acquisition orderings) and
    /// `lockcheck.max_held_ns` (longest single guard hold). Both stay
    /// zero unless `DGC_LOCK_CHECK=1` enabled the detector, and both are
    /// process-wide — every registry in the process mirrors the same
    /// pressure — so fleet merges should read them from one node.
    pub fn mirror_lockcheck(&self) {
        let stats = parking_lot::lockcheck::stats();
        self.gauge("lockcheck.edges").set(stats.edges as i64);
        self.gauge("lockcheck.max_held_ns")
            .set(stats.max_held_ns as i64);
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let t = self.inner.tables.lock();
        Snapshot {
            counters: t
                .counters
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: t.gauges.iter().map(|(k, g)| (k.clone(), g.get())).collect(),
            histograms: t
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// The handle named `name` in `table`, created on first use; the key
/// is allocated only then, so a repeated lookup costs no `String`.
fn handle<T: Clone + Default>(table: &mut BTreeMap<String, T>, name: &str) -> T {
    if let Some(found) = table.get(name) {
        return found.clone();
    }
    table.entry(name.to_owned()).or_default().clone()
}

/// An immutable copy of a registry's metrics, mergeable across nodes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by dotted name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by dotted name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram copies by dotted name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Sums `other` into a copy of `self`: counters and gauges add,
    /// histograms merge bucket-wise.
    pub fn merge(&self, other: &Snapshot) -> Snapshot {
        let mut out = self.clone();
        for (k, v) in &other.counters {
            *out.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            *out.gauges.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.histograms {
            let slot = out.histograms.entry(k.clone()).or_default();
            *slot = slot.merge(v);
        }
        out
    }

    /// Counter value, 0 if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, 0 if absent.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram copy, empty if absent.
    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        self.histograms.get(name).cloned().unwrap_or_default()
    }

    /// Pretty-prints the dotted namespace as an indented tree, with
    /// histogram quantiles inline.
    pub fn render_tree(&self) -> String {
        enum Leaf<'a> {
            Counter(u64),
            Gauge(i64),
            Histogram(&'a HistogramSnapshot),
        }
        let mut leaves: BTreeMap<&str, Leaf<'_>> = BTreeMap::new();
        for (k, v) in &self.counters {
            leaves.insert(k, Leaf::Counter(*v));
        }
        for (k, v) in &self.gauges {
            leaves.insert(k, Leaf::Gauge(*v));
        }
        for (k, v) in &self.histograms {
            leaves.insert(k, Leaf::Histogram(v));
        }
        let mut out = String::new();
        let mut open: Vec<&str> = Vec::new();
        for (name, leaf) in &leaves {
            let parts: Vec<&str> = name.split('.').collect();
            let (dirs, leaf_name) = parts.split_at(parts.len() - 1);
            // Close/open group headers to match this entry's path.
            let common = open
                .iter()
                .zip(dirs.iter())
                .take_while(|(a, b)| a == b)
                .count();
            open.truncate(common);
            for d in &dirs[common..] {
                let _ = writeln!(out, "{}{}/", "  ".repeat(open.len()), d);
                open.push(d);
            }
            let pad = "  ".repeat(open.len());
            match leaf {
                Leaf::Counter(v) => {
                    let _ = writeln!(out, "{pad}{} = {v}", leaf_name[0]);
                }
                Leaf::Gauge(v) => {
                    let _ = writeln!(out, "{pad}{} = {v} (gauge)", leaf_name[0]);
                }
                Leaf::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "{pad}{}: n={} mean={:.0} p50<={} p90<={} p99<={}",
                        leaf_name[0],
                        h.count,
                        h.mean(),
                        h.quantile(0.50),
                        h.quantile(0.90),
                        h.quantile(0.99),
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_by_name() {
        let r = Registry::default();
        let a = r.counter("net.frames_sent");
        let b = r.counter("net.frames_sent");
        a.add(2);
        b.incr();
        assert_eq!(r.snapshot().counter("net.frames_sent"), 3);
    }

    /// A lookup of an existing name hands back the registered handle
    /// (what one records, the other reads) and adds no second key.
    #[test]
    fn repeated_lookups_share_one_handle_and_one_key() {
        let r = Registry::default();
        for _ in 0..3 {
            r.counter("dgc.collected.acyclic").incr();
            r.gauge("egress.pending").add(2);
            r.histogram("dgc.ttb_round_ns").record(7);
        }
        let snap = r.snapshot();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.gauges.len(), 1);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.counter("dgc.collected.acyclic"), 3);
        assert_eq!(snap.gauge("egress.pending"), 6);
        assert_eq!(snap.histogram("dgc.ttb_round_ns").count, 3);
    }

    #[test]
    fn snapshot_merge_sums() {
        let r1 = Registry::default();
        r1.counter("x").add(2);
        r1.histogram("h").record(10);
        let r2 = Registry::default();
        r2.counter("x").add(3);
        r2.counter("y").incr();
        r2.histogram("h").record(1000);
        let m = r1.snapshot().merge(&r2.snapshot());
        assert_eq!(m.counter("x"), 5);
        assert_eq!(m.counter("y"), 1);
        assert_eq!(m.histogram("h").count, 2);
    }

    #[test]
    fn tree_groups_by_dotted_prefix() {
        let r = Registry::default();
        r.counter("net.frames_sent").add(7);
        r.counter("net.bytes_sent").add(100);
        r.gauge("egress.pending").set(3);
        r.histogram("dgc.collect.idle_to_collected_ns").record(5000);
        let tree = r.snapshot().render_tree();
        assert!(tree.contains("net/"), "{tree}");
        assert!(tree.contains("frames_sent = 7"), "{tree}");
        assert!(tree.contains("pending = 3 (gauge)"), "{tree}");
        assert!(tree.contains("collect/"), "{tree}");
        assert!(tree.contains("idle_to_collected_ns: n=1"), "{tree}");
    }

    #[test]
    fn lockcheck_gauges_mirror_detector_stats() {
        parking_lot::lockcheck::force_enable();
        let outer = Mutex::new(());
        let inner = Mutex::new(());
        {
            let _a = outer.lock();
            let _b = inner.lock(); // one ordered pair → at least one edge
        }
        let r = Registry::default();
        r.mirror_lockcheck();
        let snap = r.snapshot();
        assert!(snap.gauge("lockcheck.edges") >= 1, "{snap:?}");
        assert!(snap.gauge("lockcheck.max_held_ns") > 0, "{snap:?}");
    }

    #[test]
    fn registry_trace_uses_time_source() {
        let (time, clock) = TimeSource::simulated();
        let r = Registry::with_tracer(time, Tracer::new(TraceLevel::Info, 8));
        clock.store(1234, std::sync::atomic::Ordering::Relaxed);
        r.trace(TraceLevel::Info, "ev", "d".into());
        assert_eq!(r.tracer().events()[0].at_nanos, 1234);
    }
}
