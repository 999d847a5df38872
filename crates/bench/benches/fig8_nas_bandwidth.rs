//! Fig. 8 — NAS bandwidth overhead table.
//!
//! Regenerates the paper's bandwidth table: per kernel (CG, EP, FT), the
//! total cross-process traffic without and with the DGC, averaged over
//! `DGC_BENCH_RUNS` seeds, plus the overhead percentage. Expected shape:
//! heavily communicating kernels (CG, FT) amortize the collector to a
//! few percent, while EP — almost silent on the wire — shows an overhead
//! of several hundred percent.

use dgc_bench::{mean, mib, nas_series, overhead_pct, std_dev, Scale, Table};

fn main() {
    let scale = Scale::from_env();
    println!("=== Fig. 8: NAS bandwidth overhead (scale: {scale:?}) ===\n");
    let series = nas_series(scale);

    let mut table = Table::new(vec![
        "Kernel",
        "No DGC avg",
        "No DGC std",
        "DGC avg",
        "DGC std",
        "Overhead",
    ]);
    for s in &series {
        let base: Vec<f64> = s.control.iter().map(|o| mib(o.total_bytes)).collect();
        let with: Vec<f64> = s.dgc.iter().map(|o| mib(o.total_bytes)).collect();
        table.row(vec![
            format!("{:?}", s.kernel).to_uppercase(),
            format!("{:.2} MB", mean(&base)),
            format!("{:.2} MB", std_dev(&base)),
            format!("{:.2} MB", mean(&with)),
            format!("{:.2} MB", std_dev(&with)),
            format!("{:.2} %", overhead_pct(mean(&base), mean(&with))),
        ]);
        let violations: usize = s.dgc.iter().map(|o| o.violations).sum();
        assert_eq!(violations, 0, "oracle violations in {:?}", s.kernel);
    }
    table.print();

    println!("\nPaper (Fig. 8, class C on 256 AOs over 128 Grid'5000 nodes):");
    let mut paper = Table::new(vec!["Kernel", "No DGC avg", "DGC avg", "Overhead"]);
    paper.row(vec!["CG", "194351.81 MB", "223639.83 MB", "15.07 %"]);
    paper.row(vec!["EP", "69.75 MB", "717.92 MB", "929.28 %"]);
    paper.row(vec!["FT", "41999.48 MB", "48187.78 MB", "14.73 %"]);
    paper.print();
    println!(
        "\nShape check: EP overhead must dwarf CG/FT overhead (the DGC cost is\n\
         independent of the communication pattern; the per-call envelope is\n\
         dgc_core::wire::RMI_CALL_ENVELOPE)."
    );
}
