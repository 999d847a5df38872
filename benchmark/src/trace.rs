//! Driver-side spans: recorded from the benchmark's own files around
//! its calls into each layer, kept in memory, written at exit as Chrome
//! trace JSON (`chrome://tracing`, Perfetto). Only the traced run
//! records; end-to-end metrics never come from a traced run.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dgc_obs::export::json_escape;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Timeline row ("driver", "probe", "garbage", "ping").
    pub track: &'static str,
    /// Spans of one request (a structure, a ping, a probe round) share
    /// this id.
    pub trace_id: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub start: Duration,
    pub len: Duration,
}

/// An in-memory span store. A disabled tracer records nothing and
/// costs one branch per call.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Records a span that ran from `start` to `end`; returns its index
    /// for children to name as parent.
    pub fn record(
        &mut self,
        name: &'static str,
        track: &'static str,
        trace_id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            track,
            trace_id,
            parent,
            start: start.saturating_duration_since(self.epoch),
            len: end.saturating_duration_since(start),
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span whose end is not known yet (a parent recorded
    /// before its children); [`Tracer::close`] sets its length.
    pub fn open(
        &mut self,
        name: &'static str,
        track: &'static str,
        trace_id: u64,
        start: Instant,
    ) -> Option<usize> {
        self.record(name, track, trace_id, None, start, start)
    }

    /// Ends the span [`Tracer::open`] returned.
    pub fn close(&mut self, span: Option<usize>, end: Instant) {
        if let Some(s) = span.and_then(|i| self.spans.get_mut(i)) {
            s.len = end
                .saturating_duration_since(self.epoch)
                .saturating_sub(s.start);
        }
    }

    /// Times `f` as one span (always runs `f`).
    pub fn span<R>(
        &mut self,
        name: &'static str,
        track: &'static str,
        trace_id: u64,
        parent: Option<usize>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let start = Instant::now();
        let out = f(self);
        self.record(name, track, trace_id, parent, start, Instant::now());
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: `(count, total time, self time)`, self time being
    /// the span minus the part its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, Duration, Duration)> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.len;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, Duration, Duration)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.len;
            e.2 += s.len.saturating_sub(child_time[i]);
        }
        out
    }

    /// The spans as Chrome `trace_event` JSON (complete events, one
    /// thread row per track).
    pub fn chrome_json(&self) -> String {
        let mut tracks: Vec<&'static str> = Vec::new();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let tid = match tracks.iter().position(|t| *t == s.track) {
                Some(t) => t,
                None => {
                    tracks.push(s.track);
                    tracks.len() - 1
                }
            };
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"trace_id\":{},\"span\":{},\"parent\":{}}}}}",
                json_escape(s.name),
                json_escape(s.track),
                tid,
                s.start.as_secs_f64() * 1e6,
                s.len.as_secs_f64() * 1e6,
                s.trace_id,
                i,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            ));
        }
        for (tid, track) in tracks.iter().enumerate() {
            out.push_str(&format!(
                ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                tid,
                json_escape(track)
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(true);
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let round = t.record("round", "probe", 1, None, t0, t0 + ms(10));
        t.record("sweep", "probe", 1, round, t0, t0 + ms(3));
        t.record("flush", "probe", 1, round, t0 + ms(3), t0 + ms(7));
        let st = t.self_times();
        assert_eq!(st["round"], (1, ms(10), ms(3)));
        assert_eq!(st["sweep"], (1, ms(3), ms(3)));
        let json = t.chrome_json();
        assert!(json.starts_with("{\"traceEvents\":[{\"name\":\"round\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("thread_name"));
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_runs() {
        let mut t = Tracer::new(false);
        let ran = t.span("x", "driver", 0, None, |_| 7);
        assert_eq!(ran, 7);
        assert!(t.spans().is_empty());
        assert_eq!(t.chrome_json(), "{\"traceEvents\":[]}");
    }
}
