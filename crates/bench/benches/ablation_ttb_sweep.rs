//! Ablation — the TTB/TTA trade-off (§3.1).
//!
//! "Increasing TTB lowers the overhead of the DGC but makes it slower to
//! reclaim garbage." This sweep quantifies that sentence on a scaled
//! torture run: total collector traffic against the time to reclaim
//! everything, for TTB ∈ {5, 15, 30, 60, 120} with TTA = 5·TTB.

use dgc_activeobj::collector::CollectorKind;
use dgc_bench::{mib, Table};
use dgc_core::config::DgcConfig;
use dgc_core::units::Dur;
use dgc_simnet::time::SimTime;
use dgc_simnet::topology::Topology;
use dgc_workloads::torture::{run_torture, TortureParams};

fn main() {
    println!("=== Ablation: TTB sweep on a scaled torture run (TTA = 5*TTB) ===\n");
    let mut params = TortureParams::small();
    params.slaves_per_proc = 10;
    let topo = Topology::grid5000_scaled(4); // 12 processes
    let mut table = Table::new(vec![
        "TTB",
        "TTA",
        "Collected at",
        "Total traffic",
        "Violations",
    ]);
    let mut rows: Vec<(u64, f64, f64)> = Vec::new();
    for ttb in [5u64, 15, 30, 60, 120] {
        let tta = ttb * 5;
        let cfg = CollectorKind::Complete(
            DgcConfig::builder()
                .ttb(Dur::from_secs(ttb))
                .tta(Dur::from_secs(tta))
                .max_comm(Dur::from_millis(500))
                .build(),
        );
        let out = run_torture(
            &params,
            topo.clone(),
            cfg,
            0x77B,
            SimTime::from_secs(100_000),
        );
        assert_eq!(out.violations, 0);
        let at = out
            .all_collected_at
            .expect("sweep run must collect everything")
            .as_secs_f64();
        table.row(vec![
            format!("{ttb} s"),
            format!("{tta} s"),
            format!("{at:.0} s"),
            format!("{:.1} MB", mib(out.total_bytes)),
            format!("{}", out.violations),
        ]);
        rows.push((ttb, at, mib(out.total_bytes)));
    }
    table.print();
    let fastest = rows.first().expect("rows");
    let slowest = rows.last().expect("rows");
    assert!(
        slowest.1 > fastest.1,
        "larger TTB must reclaim later ({} vs {})",
        slowest.1,
        fastest.1
    );
    // A new reference edge costs one message to that edge, not a beat
    // of its referencer to every target, so traffic tracks TTB rather
    // than the reference churn of the active phase.
    assert!(
        slowest.2 <= 0.7 * fastest.2,
        "traffic must shrink with TTB ({:.1} MB at {} s vs {:.1} MB at {} s)",
        slowest.2,
        slowest.0,
        fastest.2,
        fastest.0
    );
    println!(
        "\nShape: reclaim time grows with TTB (right column of Fig. 10);\n\
         traffic during the fixed 120 s active phase shrinks with TTB."
    );
}
