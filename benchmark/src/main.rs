//! `dgc-benchmark` — the repo's benchmark (see `BENCHMARK.json` at the
//! repo root and `benchmark/README.md`).
//!
//! ```text
//! run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! set     [--seed N] [--runs K] [--smoke]   all workloads, one child process each
//! trace   [--seed N] [--smoke]              all workloads traced: the per-layer ledger
//! compare <a.json> <b.json>                 two set files against the bounds
//! repeat  [--seed N] [--smoke]              two sets back to back, compared
//! manifest                                  BENCHMARK.json, rendered from spec.rs
//! ```

mod compare;
mod drive;
mod gen;
mod json;
mod observe;
mod probe;
mod report;
mod spec;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use json::Value;
use spec::{Workload, DEFAULT_SEED, RUN_SECONDS, SETUP_REPS, SMOKE_SECONDS, WORKLOADS};

/// Flags shared by the subcommands.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    smoke: bool,
    runs: usize,
    /// Directory a run leaves its full report in (set/trace children).
    out: Option<PathBuf>,
    /// Alternate-engine probe child: keep this variable, one set-up,
    /// stop at the window's end and report cost only.
    probe_child: Option<String>,
    files: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        runs: 1,
        out: None,
        probe_child: None,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let number = |name: &str, v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{name} needs a whole number, got {v:?}"))
        };
        match arg.as_str() {
            "--workload" => out.workload = Some(value("--workload")?),
            "--seed" => out.seed = number("--seed", value("--seed")?)?,
            "--seconds" => out.seconds = Some(number("--seconds", value("--seconds")?)?.max(1)),
            "--trace" => out.trace = number("--trace", value("--trace")?)? != 0,
            "--runs" => out.runs = number("--runs", value("--runs")?)?.max(1) as usize,
            "--out" => out.out = Some(PathBuf::from(value("--out")?)),
            "--probe-child" => out.probe_child = Some(value("--probe-child")?),
            "--smoke" => out.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            file => out.files.push(file.to_string()),
        }
    }
    Ok(out)
}

impl Args {
    fn window(&self) -> Duration {
        let default = if self.smoke {
            SMOKE_SECONDS
        } else {
            RUN_SECONDS
        };
        Duration::from_secs(self.seconds.unwrap_or(default))
    }
}

/// `benchmark/`, wherever the checkout lives now: cargo exports the
/// manifest directory to the processes it runs; the compile-time value
/// covers a binary started by hand.
fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .filter(|p| p.is_dir())
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Four seconds of the same workload on the engine that is not the
/// default, in a child process: the harness only sets the environment
/// string, it names no engine type. Returns its `cpu_us_per_unit`.
fn alternate_engine_cost(w: &Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", w.name, "--seed", &seed.to_string()])
        .args(["--seconds", "4", "--probe-child", "DGC_NET_ENGINE"])
        .env("DGC_NET_ENGINE", "reactor")
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the alternate-engine child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    json::parse(line)
        .ok()
        .as_ref()
        .and_then(|v| {
            v.get("metrics")?
                .get("cpu_us_per_unit")?
                .get("value")?
                .as_f64()
        })
        .ok_or_else(|| format!("the alternate-engine child printed no cost: {line:?}"))
}

/// One workload, once, in this process.
fn run(args: &Args) -> Result<ExitCode, String> {
    let name = args
        .workload
        .as_deref()
        .ok_or("run needs --workload <name>")?;
    let w = spec::workload(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; the workloads are {known:?}")
    })?;
    observe::prepare_environment(args.probe_child.as_deref());
    // Under a driver a refusal would lose the run; a noisy run only
    // loses precision. `set`, `trace` and `repeat` refuse up front.
    if let Err(busy) = observe::wait_for_quiet_machine(Duration::from_secs(10)) {
        eprintln!("warning: {busy}");
    }
    let opts = drive::RunOptions {
        seed: args.seed,
        window: args.window(),
        traced: args.trace,
        setup_reps: if args.trace || args.probe_child.is_some() {
            1
        } else {
            SETUP_REPS
        },
        drain: args.probe_child.is_none(),
    };
    let mut tracer = trace::Tracer::new(args.trace);
    let outcome = drive::run(w, &opts, &mut tracer)?;

    let metrics = if args.trace {
        let mut probed = probe::run(w, args.seed, &mut tracer)?;
        let alt = tracer.span("probe.engine_alt", "driver", 0, None, |_| {
            alternate_engine_cost(w, args.seed)
        })?;
        probed
            .metrics
            .push(("rtnet.engine_alt.cpu_us_per_unit", alt));
        let metrics = report::per_layer(w, &outcome, &probed);
        print!("{}", report::stage_table(w, &outcome, &probed, &tracer));
        let path = package_dir()
            .join("out")
            .join(format!("trace-{}-{}.json", w.name, args.seed));
        write_file(&path, &tracer.chrome_json())?;
        println!("  chrome trace: {}", path.display());
        metrics
    } else {
        let (mut metrics, missing) = report::end_to_end(&outcome);
        if args.probe_child.is_some() {
            // The parent wants the window's cost and nothing else.
            metrics.push(report::cost_metric(&outcome));
        } else if !missing.is_empty() && !args.smoke {
            return Err(format!(
                "the {:?} window completed no sample for {missing:?}",
                opts.window
            ));
        }
        metrics
    };
    print!("{}", report::human_table(w, &outcome, &metrics));
    let result = report::result_value(&outcome, &metrics);
    if let Some(dir) = &args.out {
        let full = report::full_report(w, args.seed, &outcome, &result);
        write_file(&dir.join(format!("{}.json", w.name)), &full.render_pretty())?;
    }
    println!("{}", result.render());
    Ok(if outcome.ledger.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs `run` for `w` in a child process (a fresh process per workload
/// keeps `peak_rss_mb` and thread counts per-workload) and returns the
/// report it left in `dir`.
fn run_child(w: &Workload, args: &Args, dir: &Path) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let window = args.window().as_secs().to_string();
    let status = Command::new(exe)
        .args([
            "run",
            "--workload",
            w.name,
            "--seed",
            &args.seed.to_string(),
        ])
        .args([
            "--seconds",
            &window,
            "--trace",
            if args.trace { "1" } else { "0" },
        ])
        .args(if args.smoke { &["--smoke"][..] } else { &[] })
        .arg("--out")
        .arg(dir)
        .status()
        .map_err(|e| format!("starting the {} child: {e}", w.name))?;
    if !status.success() {
        return Err(format!("workload {} failed ({status})", w.name));
    }
    let path = dir.join(format!("{}.json", w.name));
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Who measured: enough to tell two set files from different machines,
/// toolchains or commits apart.
fn host_stamp(threads_per_node: f64) -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|k| k.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let repo = package_dir().join("..");
    let commit = command_line("git", &["-C", &repo.to_string_lossy(), "rev-parse", "HEAD"]);
    // Observed, not configured: the harness never names an engine.
    let engine = if threads_per_node >= 3.0 {
        "thread-per-link"
    } else {
        "one-loop-per-node"
    };
    Value::obj(vec![
        ("nproc", Value::Num(observe::nproc() as f64)),
        ("cpu_model", Value::Str(cpu_model)),
        ("kernel", Value::Str(kernel)),
        ("rustc", Value::Str(command_line("rustc", &["-V"]))),
        ("commit", Value::Str(commit)),
        ("default_engine_observed", Value::str(engine)),
        ("threads_per_node_observed", Value::Num(threads_per_node)),
    ])
}

fn refuse_on_busy_machine() -> Result<(), String> {
    observe::wait_for_quiet_machine(Duration::from_secs(5))
        .map_err(|busy| format!("refusing to start: {busy}"))
}

/// All workloads, `--runs` times each, one child process per run. Writes
/// one JSON per workload run plus the combined, stamped `set.json`, and
/// returns the combined file's path.
fn set(args: &Args, label: &str) -> Result<PathBuf, String> {
    refuse_on_busy_machine()?;
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let dir = args
        .out
        .clone()
        .unwrap_or_else(|| package_dir().join("out").join(format!("{label}-{stamp}")));
    let mut workloads = Vec::new();
    let mut threads_per_node = 0.0;
    for w in WORKLOADS {
        let mut runs = Vec::new();
        for k in 0..args.runs {
            let run_dir = dir.join(format!("run-{k}"));
            let report = run_child(w, args, &run_dir)?;
            if w.name == WORKLOADS[0].name {
                threads_per_node = report
                    .get("observed")
                    .and_then(|o| o.get("threads_per_node")?.as_f64())
                    .unwrap_or(0.0);
            }
            runs.push(report);
        }
        workloads.push((w.name.to_string(), Value::Arr(runs)));
    }
    let combined = Value::obj(vec![
        ("host", host_stamp(threads_per_node)),
        ("seed", Value::Num(args.seed as f64)),
        ("window_s", Value::Num(args.window().as_secs_f64())),
        ("traced", Value::Bool(args.trace)),
        ("workloads", Value::Obj(workloads)),
    ]);
    let path = dir.join("set.json");
    write_file(&path, &combined.render_pretty())?;
    println!("set written to {}", path.display());
    Ok(path)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("usage: dgc-benchmark <run|set|trace|compare|repeat|manifest> [flags]");
        return ExitCode::from(2);
    };
    let outcome = parse_args(rest).and_then(|mut args| match command.as_str() {
        "run" => run(&args),
        "set" => set(&args, "set").map(|_| ExitCode::SUCCESS),
        "trace" => {
            args.trace = true;
            set(&args, "trace").map(|_| ExitCode::SUCCESS)
        }
        "repeat" => {
            let first = set(&args, "repeat-a")?;
            let second = set(&args, "repeat-b")?;
            compare::files(&first, &second)
        }
        "compare" => match args.files.as_slice() {
            [a, b] => compare::files(Path::new(a), Path::new(b)),
            _ => Err("compare needs two set files".to_string()),
        },
        "manifest" => {
            print!("{}", report::manifest().render_pretty());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?}")),
    });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("dgc-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
