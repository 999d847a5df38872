//! §4.3 — time-complexity sweep: O(h·TTB) + TTA.
//!
//! The paper bounds cycle-detection time by the height `h` of the
//! (reverse) spanning trees: clocks propagate down the references,
//! consensus candidates return along the tree, and agreement flows down
//! again — each hop costing one TTB — plus the final TTA dying wait.
//! Here a dying member leaves once its referencers have been told, so
//! on a ring that wait is one more hop, not TTA. Rings of increasing
//! size make `h` explicit; the measured collection time should grow
//! linearly in the ring size with slope around TTB.

use dgc_activeobj::collector::CollectorKind;
use dgc_activeobj::runtime::{Grid, GridConfig};
use dgc_bench::{nas_dgc_config, Table};
use dgc_simnet::time::{SimDuration, SimTime};
use dgc_simnet::topology::Topology;
use dgc_workloads::scenarios::ring;

fn main() {
    println!("=== §4.3 complexity: ring size vs collection time (TTB 30 s, TTA 61 s) ===\n");
    let mut table = Table::new(vec!["Ring size h", "Collected at", "t / TTB", "Violations"]);
    let mut previous = 0.0f64;
    let mut monotone = true;
    for h in [2usize, 4, 8, 16, 32, 64] {
        let mut grid = Grid::new(
            GridConfig::new(Topology::single_site(8, SimDuration::from_millis(1)))
                .collector(CollectorKind::Complete(nas_dgc_config()))
                .seed(5),
        );
        let ids = ring(&mut grid, h, 8);
        let deadline = SimTime::from_secs(20_000);
        while grid.now() < deadline && ids.iter().any(|id| grid.is_alive(*id)) {
            grid.run_for(SimDuration::from_secs(30));
        }
        assert!(
            ids.iter().all(|id| !grid.is_alive(*id)),
            "ring {h} not collected"
        );
        let t = grid
            .collected()
            .iter()
            .map(|c| c.at.as_secs_f64())
            .fold(0.0f64, f64::max);
        let beats = t / 30.0;
        table.row(vec![
            format!("{h}"),
            format!("{t:.0} s"),
            format!("{beats:.1} beats"),
            format!("{}", grid.violations().len()),
        ]);
        if t + 1.0 < previous {
            monotone = false;
        }
        previous = t;
    }
    table.print();
    assert!(monotone, "collection time must not shrink as h grows");
    println!(
        "\nExpected shape: collection time ≈ c·h·TTB with a small constant c\n\
         (clock propagation + consensus return + agreement wave + the told\n\
         wave that ends each dying wait), i.e. the 't/TTB' column grows\n\
         roughly linearly in h."
    );
}
