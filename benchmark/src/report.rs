//! From raw observations to named metrics, and from metrics to the
//! result line, the human table and the set files.

use crate::drive::Outcome;
use crate::json::Value;
use crate::observe::{highest_supported_tail, median, percentile};
use crate::probe::Probed;
use crate::spec::{Workload, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::trace::Tracer;

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Orders measured `values` the way the spec declares them (`spec`
/// yields `(name, unit)`), and names the declared metrics that have no
/// value.
fn in_spec_order(
    spec: impl Iterator<Item = (&'static str, &'static str)>,
    values: &[(&str, Option<f64>)],
) -> (Vec<Metric>, Vec<&'static str>) {
    let mut missing = Vec::new();
    let metrics = spec
        .filter_map(|(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .and_then(|(_, v)| *v);
            if value.is_none() {
                missing.push(name);
            }
            value.map(|value| Metric { name, unit, value })
        })
        .collect();
    (metrics, missing)
}

/// The end-to-end metrics of an untraced run, in spec order, and the
/// names of those the run completed no sample for (too short a window).
pub fn end_to_end(out: &Outcome) -> (Vec<Metric>, Vec<&'static str>) {
    let units = out.units.max(1) as f64;
    let values = [
        ("setup_s", median(&mut out.setup_s.clone())),
        (
            "units_per_s",
            Some(out.units as f64 / out.window.as_secs_f64()),
        ),
        (
            "wire_bytes_per_unit",
            Some(out.stats.bytes_sent as f64 / units),
        ),
        ("peak_rss_mb", Some(out.peak_rss_mb)),
        ("ring_reclaim_p50_ms", percentile(&out.ring_ms, 0.5)),
        ("chain_reclaim_p50_ms", percentile(&out.chain_ms, 0.5)),
    ];
    in_spec_order(END_TO_END.iter().map(|m| (m.name, m.unit)), &values)
}

/// The ungated cost headline as a metric (the alternate-engine probe's
/// child reports it to its parent this way).
pub fn cost_metric(out: &Outcome) -> Metric {
    Metric {
        name: "cpu_us_per_unit",
        unit: "us",
        value: out.cost_us,
    }
}

/// The per-layer ledger of a traced run, in spec order: the socket
/// run's own counters, the probe's stage times, and what relates them.
pub fn per_layer(w: &Workload, out: &Outcome, probed: &Probed) -> Vec<Metric> {
    let extras = out
        .traced
        .as_ref()
        .expect("per-layer metrics come from a traced run");
    let secs = out.window.as_secs_f64();
    let cost_ns = out.cost_us * 1e3;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    let counter = |name: &str| {
        extras
            .obs_end
            .counter(name)
            .saturating_sub(extras.obs_start.counter(name))
    };
    // Exact window means: histogram sums and counts subtract; the log2
    // quantiles are too coarse for any of these.
    let mean = |name: &str| {
        let (a, b) = (
            extras.obs_start.histogram(name),
            extras.obs_end.histogram(name),
        );
        ratio(b.sum.saturating_sub(a.sum), b.count.saturating_sub(a.count))
    };
    let flushes = counter("egress.flushes");
    let collected = counter("dgc.collected.cyclic") + counter("dgc.collected.acyclic");
    let bumps = counter("dgc.clock_bumps.became_idle")
        + counter("dgc.clock_bumps.lost_referencer")
        + counter("dgc.clock_bumps.lost_referenced");
    let (tail_pct, tail_ms) = highest_supported_tail(&out.ring_ms).unwrap_or((0, 0.0));
    let p = |v: &[f64], q: f64| percentile(v, q).unwrap_or(0.0);
    let overhead_pct = extras
        .half_cost_us
        .map_or(0.0, |(plain, traced)| (traced - plain) / plain * 100.0);

    let mut values: Vec<(&str, Option<f64>)> =
        probed.metrics.iter().map(|(n, v)| (*n, Some(*v))).collect();
    values.extend(
        [
            ("cpu_us_per_unit", out.cost_us),
            (
                "rtnet.host.residual_ns_per_unit",
                cost_ns - probed.stage_sum_ns,
            ),
            ("rtnet.items_per_frame", out.stats.items_per_frame()),
            ("rtnet.frames_per_s", out.stats.frames_sent as f64 / secs),
            ("rtnet.threads_per_node", out.threads_per_node),
            ("rtnet.reconnects", out.stats.reconnects as f64),
            ("rtnet.send_failures", out.stats.send_failures as f64),
            ("rtnet.decode_errors", out.stats.decode_errors as f64),
            ("rtnet.shutdown_s", out.shutdown_s),
            ("rtnet.app_rtt_p50_us", p(&out.rtt_us, 0.50)),
            ("rtnet.app_rtt_p90_us", p(&out.rtt_us, 0.90)),
            ("rtnet.app_rtt_p99_us", p(&out.rtt_us, 0.99)),
            ("rtnet.gen_late_p99_us", p(&out.late_us, 0.99)),
            (
                "egress.flush_share.app",
                ratio(counter("egress.flush_reason.app"), flushes),
            ),
            (
                "egress.flush_share.delay",
                ratio(counter("egress.flush_reason.delay"), flushes),
            ),
            (
                "egress.flush_share.bounds",
                ratio(counter("egress.flush_reason.bounds"), flushes),
            ),
            (
                "egress.flush_share.forced",
                ratio(counter("egress.flush_reason.forced"), flushes),
            ),
            (
                "egress.items_per_flush",
                ratio(counter("egress.items"), flushes),
            ),
            (
                "egress.piggyback_ratio",
                ratio(counter("egress.piggybacked"), counter("egress.items")),
            ),
            (
                "egress.dropped_items",
                counter("egress.dropped_items") as f64,
            ),
            (
                "egress.linger_mean_us",
                mean("egress.flush_linger_ns") / 1e3,
            ),
            ("egress.pending_peak", extras.pending_peak as f64),
            (
                "dgc.beat_gap_ratio",
                mean("dgc.ttb_round_ns") / (w.ttb_ms as f64 * 1e6),
            ),
            (
                "dgc.idle_to_consensus_mean_ms",
                mean("dgc.collect.idle_to_consensus_ns") / 1e6,
            ),
            (
                "dgc.consensus_to_collected_mean_ms",
                mean("dgc.collect.consensus_to_collected_ns") / 1e6,
            ),
            (
                "dgc.collected.cyclic",
                counter("dgc.collected.cyclic") as f64,
            ),
            (
                "dgc.collected.acyclic",
                counter("dgc.collected.acyclic") as f64,
            ),
            ("dgc.clock_bumps_per_collected", ratio(bumps, collected)),
            ("dgc.ring_reclaim_tail_ms", tail_ms),
            ("dgc.ring_reclaim_tail_pct", tail_pct as f64),
            ("dgc.ring_reclaim_samples", out.ring_ms.len() as f64),
            ("bench.trace_overhead_pct", overhead_pct),
        ]
        .map(|(n, v)| (n, Some(v))),
    );
    if let Some(ms) = out.converge_ms {
        // The workload's own gossip join beats the probe's stand-in.
        values.retain(|(n, _)| *n != "membership.converge_ms");
        values.push(("membership.converge_ms", Some(ms)));
    }
    let (metrics, missing) = in_spec_order(PER_LAYER.iter().map(|m| (m.name, m.unit)), &values);
    assert!(
        missing.is_empty(),
        "per-layer metrics not measured: {missing:?}"
    );
    metrics
}

fn metrics_value(metrics: &[Metric]) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::obj(vec![
                        ("value", Value::Num(m.value)),
                        ("unit", Value::str(m.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// The one JSON object a run prints as its last line.
pub fn result_value(out: &Outcome, metrics: &[Metric]) -> Value {
    Value::obj(vec![
        ("correct", Value::Bool(out.ledger.failed() == 0)),
        ("attempted", Value::Num(out.ledger.attempted() as f64)),
        ("failed", Value::Num(out.ledger.failed() as f64)),
        ("metrics", metrics_value(metrics)),
    ])
}

/// What a run leaves in `--out`: the result line's object plus what
/// was observed beside the metrics.
pub fn full_report(w: &Workload, seed: u64, out: &Outcome, result: &Value) -> Value {
    let mut fields = vec![
        ("workload".to_string(), Value::str(w.name)),
        ("seed".to_string(), Value::Num(seed as f64)),
        ("window_s".to_string(), Value::Num(out.window.as_secs_f64())),
    ];
    fields.extend(result.fields().iter().cloned());
    fields.push((
        "observed".to_string(),
        Value::obj(vec![
            ("cpu_us_per_unit", Value::Num(out.cost_us)),
            ("threads_per_node", Value::Num(out.threads_per_node)),
            ("shutdown_s", Value::Num(out.shutdown_s)),
            (
                "setup_s",
                Value::Arr(out.setup_s.iter().map(|s| Value::Num(*s)).collect()),
            ),
            ("ping_samples", Value::Num(out.rtt_us.len() as f64)),
            ("ring_samples", Value::Num(out.ring_ms.len() as f64)),
            ("chain_samples", Value::Num(out.chain_ms.len() as f64)),
            ("units_sent", Value::Num(out.ledger.units_sent as f64)),
            (
                "units_received",
                Value::Num(out.ledger.units_received as f64),
            ),
        ]),
    ));
    Value::Obj(fields)
}

/// The probe's stage table: per span name, calls, total and self time,
/// then the sum of the round stages against the socket run's cost — the
/// "is this layer the bottleneck?" numbers, each with its base.
pub fn stage_table(w: &Workload, out: &Outcome, probed: &Probed, tracer: &Tracer) -> String {
    let mut s = format!(
        "layer probe, two nodes shaped like {} ({} activities x {} references)\n",
        w.name, w.acts_per_node, w.refs_per_act
    );
    s.push_str(&format!(
        "  {:<24} {:>8} {:>12} {:>12}\n",
        "span", "calls", "total ms", "self ms"
    ));
    for (name, (calls, total, own)) in tracer.self_times() {
        // Per-request spans (structures, members, pings) are not stages.
        let per_request = ["reclaim.", "member.", "ping"];
        if !per_request.iter().any(|p| name.starts_with(p)) {
            s.push_str(&format!(
                "  {:<24} {:>8} {:>12.3} {:>12.3}\n",
                name,
                calls,
                total.as_secs_f64() * 1e3,
                own.as_secs_f64() * 1e3
            ));
        }
    }
    let cost_ns = out.cost_us * 1e3;
    s.push_str(&format!(
        "  socket run: {:.1} ns CPU per unit (median 2 s slice; {:.3} s CPU over {} units in all)\n  \
         probe stages: {:.1} ns per unit = {:.1}% of it\n  \
         host residual (loop, channels, threads, syscalls): {:.1} ns per unit = {:.1}%\n",
        cost_ns,
        out.cpu.as_secs_f64(),
        out.units,
        probed.stage_sum_ns,
        probed.stage_sum_ns / cost_ns * 100.0,
        cost_ns - probed.stage_sum_ns,
        (cost_ns - probed.stage_sum_ns) / cost_ns * 100.0,
    ));
    s
}

/// `BENCHMARK.json`, rendered from the spec tables.
pub fn manifest() -> Value {
    let metric = |name: &str, unit: &str, better: &str, bound: Option<f64>| {
        let mut fields = vec![
            ("name", Value::str(name)),
            ("unit", Value::str(unit)),
            ("better", Value::str(better)),
        ];
        if let Some(b) = bound {
            fields.push(("bound", Value::Num(b)));
        }
        Value::obj(fields)
    };
    Value::obj(vec![
        (
            "command",
            Value::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                ]
                .into_iter()
                .chain(["benchmark/Cargo.toml", "--", "run"])
                .map(Value::str)
                .collect(),
            ),
        ),
        ("paths", Value::Arr(vec![Value::str("benchmark")])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Value::obj(vec![
                            ("name", Value::str(w.name)),
                            ("why", Value::str(w.why)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| metric(m.name, m.unit, m.better.as_str(), Some(m.bound)))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| metric(m.name, m.unit, m.better.as_str(), None))
                    .collect(),
            ),
        ),
    ])
}

/// Every metric by name with its unit, then the operation accounting.
pub fn human_table(w: &Workload, out: &Outcome, metrics: &[Metric]) -> String {
    let mut s = format!("workload {}\n", w.name);
    for m in metrics {
        s.push_str(&format!("  {:<40} {:>16.4} {}\n", m.name, m.value, m.unit));
    }
    let l = &out.ledger;
    s.push_str(&format!(
        "  operations: {} attempted ({} units, {} pings, {} garbage activities), {} failed\n",
        l.attempted(),
        l.units_sent,
        l.pings_sent,
        l.released,
        l.failed()
    ));
    if l.failed() > 0 {
        s.push_str(&format!("  FAILED: {l:?}\n"));
    }
    s.push_str(&format!(
        "  samples: {} pings, {} rings, {} chains; set-ups {:?} s\n",
        out.rtt_us.len(),
        out.ring_ms.len(),
        out.chain_ms.len(),
        out.setup_s
    ));
    let p = |v: &[f64], q: f64| percentile(v, q).unwrap_or(f64::NAN);
    s.push_str(&format!(
        "  open-loop generator ran late by p50 {:.1} / p99 {:.1} us; shutdown took {:.3} s\n",
        p(&out.late_us, 0.5),
        p(&out.late_us, 0.99),
        out.shutdown_s
    ));
    s.push_str(&format!(
        "  cost: {:.4} us CPU per unit in the median 2 s slice, {:.4} over the whole window \
         ({:.3} s CPU); ungated\n",
        out.cost_us,
        out.cpu.as_secs_f64() * 1e6 / out.units.max(1) as f64,
        out.cpu.as_secs_f64()
    ));
    s.push_str(&format!(
        "  {:.1} items/frame, {:.0} frames/s, {:.1} threads/node\n",
        out.stats.items_per_frame(),
        out.stats.frames_sent as f64 / out.window.as_secs_f64(),
        out.threads_per_node
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_rendered_spec() {
        let checked_in = include_str!("../../BENCHMARK.json");
        assert_eq!(
            checked_in,
            manifest().render_pretty(),
            "regenerate with `dgc-benchmark manifest > BENCHMARK.json`"
        );
        assert!(checked_in.len() <= 64 * 1024);
    }

    #[test]
    fn metrics_come_out_in_spec_order_and_gaps_are_named() {
        let spec = [("a", "s"), ("b", "us"), ("c", "B")];
        let values = [("c", Some(3.0)), ("a", Some(1.0)), ("b", None)];
        let (metrics, missing) = in_spec_order(spec.into_iter(), &values);
        let names: Vec<_> = metrics.iter().map(|m| (m.name, m.unit, m.value)).collect();
        assert_eq!(names, vec![("a", "s", 1.0), ("c", "B", 3.0)]);
        assert_eq!(missing, vec!["b"]);
    }
}
