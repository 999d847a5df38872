//! Bounded structured tracing.
//!
//! A [`Tracer`] is a cheap-to-clone handle on a fixed-capacity ring of
//! [`TraceEvent`]s. It is **off by default** and allocation-free when
//! disabled: the level gate is one relaxed atomic load, and callers
//! that build a detail string should guard with [`Tracer::enabled`] or
//! use [`Tracer::event_with`] so the closure never runs when filtered.
//! Both runtimes speak the same vocabulary through it — the simulator
//! stamps virtual nanoseconds, the socket runtime wall-clock ones —
//! which is what lets one exporter render either as a timeline.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Verbosity of a trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Nothing is recorded.
    Off,
    /// Life-cycle events: creations, terminations, consensus decisions,
    /// link state changes, membership verdicts.
    Info,
    /// Every protocol step: clock updates, flush decisions, frame
    /// codec activity, chaos interference.
    Debug,
}

impl TraceLevel {
    /// Parses `"off" | "info" | "debug"` (as in the `DGC_TRACE` env
    /// var); anything else is `None`.
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "" => Some(TraceLevel::Off),
            "info" | "1" => Some(TraceLevel::Info),
            "debug" | "2" => Some(TraceLevel::Debug),
            _ => None,
        }
    }
}

/// One recorded event; `dur_nanos` turns an instant into a span.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Start timestamp, nanoseconds since the owner's time source epoch.
    pub at_nanos: u64,
    /// For spans, how long the operation ran; `None` for instants.
    pub dur_nanos: Option<u64>,
    /// Level it was recorded at.
    pub level: TraceLevel,
    /// Short category tag, e.g. `"terminate"`, `"flush"`, `"reconnect"`.
    pub tag: &'static str,
    /// Free-form details.
    pub detail: String,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.at_nanos as f64 / 1e6;
        match self.dur_nanos {
            Some(d) => write!(
                f,
                "[{ms:>12.3}ms +{:.3}ms] {:<14} {}",
                d as f64 / 1e6,
                self.tag,
                self.detail
            ),
            None => write!(f, "[{ms:>12.3}ms] {:<14} {}", self.tag, self.detail),
        }
    }
}

#[derive(Debug)]
struct Buffer {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

#[derive(Debug)]
struct TracerInner {
    level: AtomicU8,
    capacity: usize,
    buf: Mutex<Buffer>,
}

/// Cloneable handle on one bounded event ring.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

const fn level_to_u8(l: TraceLevel) -> u8 {
    match l {
        TraceLevel::Off => 0,
        TraceLevel::Info => 1,
        TraceLevel::Debug => 2,
    }
}

fn level_from_u8(v: u8) -> TraceLevel {
    match v {
        0 => TraceLevel::Off,
        1 => TraceLevel::Info,
        _ => TraceLevel::Debug,
    }
}

/// Default ring capacity: enough for a conformance scenario tail
/// without letting a soak run grow without bound.
pub const DEFAULT_CAPACITY: usize = 4096;

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::off()
    }
}

impl Tracer {
    /// A tracer recording at or below `level`, keeping the most recent
    /// `capacity` events.
    pub fn new(level: TraceLevel, capacity: usize) -> Tracer {
        Tracer {
            inner: Arc::new(TracerInner {
                level: AtomicU8::new(level_to_u8(level)),
                capacity: capacity.max(1),
                buf: Mutex::new(Buffer {
                    events: VecDeque::new(),
                    dropped: 0,
                }),
            }),
        }
    }

    /// A disabled tracer (default capacity; enable later with
    /// [`Tracer::set_level`]).
    pub fn off() -> Tracer {
        Tracer::new(TraceLevel::Off, DEFAULT_CAPACITY)
    }

    /// Current filter level.
    pub fn level(&self) -> TraceLevel {
        level_from_u8(self.inner.level.load(Ordering::Relaxed))
    }

    /// Changes the filter level (takes effect immediately on all
    /// clones).
    pub fn set_level(&self, level: TraceLevel) {
        self.inner
            .level
            .store(level_to_u8(level), Ordering::Relaxed);
    }

    /// True if events at `level` would be kept. The disabled path is a
    /// single relaxed load — guard detail-string construction with it.
    #[inline]
    pub fn enabled(&self, level: TraceLevel) -> bool {
        let cur = self.inner.level.load(Ordering::Relaxed);
        cur != 0 && level_to_u8(level) <= cur
    }

    /// Records an instant event if `level` passes the filter.
    #[inline]
    pub fn event(&self, at_nanos: u64, level: TraceLevel, tag: &'static str, detail: String) {
        if self.enabled(level) {
            self.push(TraceEvent {
                at_nanos,
                dur_nanos: None,
                level,
                tag,
                detail,
            });
        }
    }

    /// Records an instant event, building the detail lazily — the
    /// closure does not run when the level is filtered.
    #[inline]
    pub fn event_with<F: FnOnce() -> String>(
        &self,
        at_nanos: u64,
        level: TraceLevel,
        tag: &'static str,
        detail: F,
    ) {
        if self.enabled(level) {
            self.push(TraceEvent {
                at_nanos,
                dur_nanos: None,
                level,
                tag,
                detail: detail(),
            });
        }
    }

    /// Records a completed span `[start_nanos, end_nanos]`.
    #[inline]
    pub fn span(
        &self,
        start_nanos: u64,
        end_nanos: u64,
        level: TraceLevel,
        tag: &'static str,
        detail: String,
    ) {
        if self.enabled(level) {
            self.push(TraceEvent {
                at_nanos: start_nanos,
                dur_nanos: Some(end_nanos.saturating_sub(start_nanos)),
                level,
                tag,
                detail,
            });
        }
    }

    fn push(&self, ev: TraceEvent) {
        let mut buf = self.inner.buf.lock();
        if buf.events.len() >= self.inner.capacity {
            buf.events.pop_front();
            buf.dropped += 1;
        }
        buf.events.push_back(ev);
    }

    /// All retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let buf = self.inner.buf.lock();
        buf.events.iter().cloned().collect()
    }

    /// The most recent `n` events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<TraceEvent> {
        let buf = self.inner.buf.lock();
        let skip = buf.events.len().saturating_sub(n);
        buf.events.iter().skip(skip).cloned().collect()
    }

    /// Events evicted by the ring bound so far.
    pub fn dropped(&self) -> u64 {
        self.inner.buf.lock().dropped
    }

    /// Retained event count.
    pub fn len(&self) -> usize {
        self.inner.buf.lock().events.len()
    }

    /// True if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let t = Tracer::off();
        t.event(0, TraceLevel::Info, "x", "y".into());
        assert!(t.is_empty());
        assert!(!t.enabled(TraceLevel::Info));
    }

    #[test]
    fn info_filters_debug() {
        let t = Tracer::new(TraceLevel::Info, 16);
        t.event(1, TraceLevel::Info, "a", "1".into());
        t.event(2, TraceLevel::Debug, "b", "2".into());
        let evs = t.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].tag, "a");
    }

    #[test]
    fn lazy_detail_skipped_when_disabled() {
        let t = Tracer::new(TraceLevel::Info, 16);
        let mut ran = false;
        t.event_with(0, TraceLevel::Debug, "x", || {
            ran = true;
            String::new()
        });
        assert!(!ran);
        t.event_with(0, TraceLevel::Info, "x", || {
            ran = true;
            String::new()
        });
        assert!(ran);
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let t = Tracer::new(TraceLevel::Debug, 3);
        for i in 0..5u64 {
            t.event(i, TraceLevel::Info, "e", i.to_string());
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let evs = t.events();
        assert_eq!(evs[0].detail, "2");
        assert_eq!(evs[2].detail, "4");
        assert_eq!(t.tail(2).len(), 2);
        assert_eq!(t.tail(2)[0].detail, "3");
    }

    #[test]
    fn spans_keep_duration() {
        let t = Tracer::new(TraceLevel::Info, 16);
        t.span(100, 250, TraceLevel::Info, "op", "d".into());
        let evs = t.events();
        assert_eq!(evs[0].at_nanos, 100);
        assert_eq!(evs[0].dur_nanos, Some(150));
    }

    #[test]
    fn clones_share_level_and_buffer() {
        let t = Tracer::new(TraceLevel::Info, 16);
        let t2 = t.clone();
        t2.set_level(TraceLevel::Debug);
        assert!(t.enabled(TraceLevel::Debug));
        t2.event(0, TraceLevel::Debug, "shared", String::new());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn level_parse() {
        assert_eq!(TraceLevel::parse("info"), Some(TraceLevel::Info));
        assert_eq!(TraceLevel::parse("DEBUG"), Some(TraceLevel::Debug));
        assert_eq!(TraceLevel::parse("off"), Some(TraceLevel::Off));
        assert_eq!(TraceLevel::parse("nope"), None);
    }
}
