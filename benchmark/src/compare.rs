//! `compare <a.json> <b.json>`: two set files, every workload x
//! end-to-end metric, against the bound the benchmark fixed for it.
//!
//! A set file holds one or more runs per workload. Each side is judged
//! by its median; with four or more runs a side also has a spread (the
//! distance between its quartiles over its median), and a spread wider
//! than the bound makes the pair `unresolved`, not `within` — unless
//! every run of `b` reads better than every run of `a`.

use std::path::Path;
use std::process::ExitCode;

use crate::json::{self, Value};
use crate::observe::median;
use crate::spec::{Better, EndToEnd, END_TO_END, WORKLOADS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Outside,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Outside => "outside",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Distance between the first and third quartile over the median, by the
/// method of Python's `statistics.quantiles(values, n=4)`; `None` below
/// four values.
pub fn spread(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quartile = |k: usize| {
        // Exclusive method: position k(n+1)/4, 1-based, interpolated.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    Some((quartile(3) - quartile(1)) / quartile(2))
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(m: &EndToEnd, a: f64, b: f64) -> f64 {
    match m.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Judges one metric on one workload from both sides' run values.
pub fn judge(m: &EndToEnd, a: &[f64], b: &[f64]) -> (Verdict, Option<f64>) {
    let (Some(ma), Some(mb)) = (median(&mut a.to_vec()), median(&mut b.to_vec())) else {
        return (Verdict::Unresolved, None);
    };
    let worse = worsening(m, ma, mb);
    let widest = spread(a).into_iter().chain(spread(b)).fold(0.0, f64::max);
    let verdict = if widest > m.bound {
        let b_always_better = a
            .iter()
            .all(|x| b.iter().all(|y| worsening(m, *x, *y) < 0.0));
        if b_always_better {
            Verdict::Within
        } else {
            Verdict::Unresolved
        }
    } else if worse > m.bound {
        Verdict::Outside
    } else {
        Verdict::Within
    };
    (verdict, Some(worse))
}

fn runs<'a>(set: &'a Value, workload: &str) -> &'a [Value] {
    match set.get("workloads").and_then(|w| w.get(workload)) {
        Some(Value::Arr(runs)) => runs,
        _ => &[],
    }
}

/// Every run's value of `metric` for `workload` in a set file.
fn values(set: &Value, workload: &str, metric: &str) -> Vec<f64> {
    runs(set, workload)
        .iter()
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Every run's ungated CPU cost per unit for `workload`.
fn costs(set: &Value, workload: &str) -> Vec<f64> {
    runs(set, workload)
        .iter()
        .filter_map(|run| run.get("observed")?.get("cpu_us_per_unit")?.as_f64())
        .collect()
}

fn load(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints the comparison table; fails on any `outside`.
pub fn files(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let (set_a, set_b) = (load(a)?, load(b)?);
    println!("a = {}\nb = {}", a.display(), b.display());
    println!(
        "{:<18} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "b worse", "bound"
    );
    let mut outside = 0;
    let cell =
        |v: &[f64]| median(&mut v.to_vec()).map_or("missing".to_string(), |x| format!("{x:.4}"));
    for w in WORKLOADS {
        for m in END_TO_END {
            let (va, vb) = (
                values(&set_a, w.name, m.name),
                values(&set_b, w.name, m.name),
            );
            let (verdict, worse) = judge(m, &va, &vb);
            outside += (verdict == Verdict::Outside) as u32;
            println!(
                "{:<18} {:<22} {:>14} {:>14} {:>9} {:>6.0}%  {}",
                w.name,
                m.name,
                cell(&va),
                cell(&vb),
                worse.map_or("-".to_string(), |x| format!("{:+.2}%", x * 100.0)),
                m.bound * 100.0,
                verdict.as_str()
            );
        }
        // The cost headline has no bound (see spec.rs): shown, not judged.
        let (ca, cb) = (costs(&set_a, w.name), costs(&set_b, w.name));
        let worse = median(&mut ca.clone())
            .zip(median(&mut cb.clone()))
            .map_or("-".to_string(), |(a, b)| {
                format!("{:+.2}%", (b - a) / a * 100.0)
            });
        println!(
            "{:<18} {:<22} {:>14} {:>14} {:>9} {:>7}  ungated",
            w.name,
            "cpu_us_per_unit",
            cell(&ca),
            cell(&cb),
            worse,
            "-"
        );
    }
    if outside > 0 {
        println!("{outside} metric(s) outside their bound");
        return Ok(ExitCode::FAILURE);
    }
    println!("every resolved metric is within its bound");
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better, bound: f64) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "us",
            better,
            bound,
        }
    }

    #[test]
    fn single_runs_are_judged_on_the_bound_alone() {
        let lower = metric(Better::Lower, 0.10);
        assert_eq!(judge(&lower, &[100.0], &[109.0]).0, Verdict::Within);
        assert_eq!(judge(&lower, &[100.0], &[111.0]).0, Verdict::Outside);
        assert_eq!(judge(&lower, &[100.0], &[50.0]).0, Verdict::Within);
        let higher = metric(Better::Higher, 0.02);
        assert_eq!(judge(&higher, &[100.0], &[97.0]).0, Verdict::Outside);
        assert_eq!(judge(&higher, &[100.0], &[120.0]).0, Verdict::Within);
        assert_eq!(judge(&lower, &[], &[1.0]), (Verdict::Unresolved, None));
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_always_wins() {
        let m = metric(Better::Lower, 0.05);
        let noisy = [90.0, 100.0, 110.0, 120.0, 80.0];
        assert_eq!(judge(&m, &noisy, &[130.0; 5]).0, Verdict::Unresolved);
        assert_eq!(judge(&m, &noisy, &[70.0; 5]).0, Verdict::Within);
        let steady = [100.0, 100.5, 99.5, 100.2, 99.8];
        assert_eq!(judge(&m, &steady, &[107.0; 5]).0, Verdict::Outside);
    }

    #[test]
    fn spread_matches_pythons_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{s}");
        assert_eq!(spread(&[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn values_come_out_of_a_set_file() {
        let set = json::parse(
            r#"{"workloads":{"w":[{"metrics":{"m":{"value":1.5,"unit":"s"}}},
                                  {"metrics":{"m":{"value":2.5,"unit":"s"}}}]}}"#,
        )
        .unwrap();
        assert_eq!(values(&set, "w", "m"), vec![1.5, 2.5]);
        assert!(values(&set, "w", "other").is_empty());
        assert!(values(&set, "nope", "m").is_empty());
    }
}
