//! The Fig. 3 / Fig. 7 walkthrough: consensus over a reverse spanning
//! tree, traced step by step.
//!
//! The DGC never needs to *contact* referencers — only referenced
//! objects — so it works behind firewalls and NATs exactly where the
//! application does. This example builds the compound cycle of Fig. 7,
//! runs the collector with debug tracing, and prints the protocol's own
//! account of what happened: clock bumps, parent adoptions, the
//! consensus, and the one-TTA collapse of the whole compound.
//!
//! Run with: `cargo run --example firewall_cycle`

use grid_dgc::activeobj::collector::CollectorKind;
use grid_dgc::activeobj::runtime::{Grid, GridConfig};
use grid_dgc::dgc::config::DgcConfig;
use grid_dgc::dgc::units::Dur;
use grid_dgc::simnet::time::{SimDuration, SimTime};
use grid_dgc::simnet::topology::Topology;
use grid_dgc::simnet::TraceLevel;
use grid_dgc::workloads::scenarios::fig7_compound;

fn main() {
    let dgc = DgcConfig::builder()
        .ttb(Dur::from_secs(30))
        .tta(Dur::from_secs(61))
        .max_comm(Dur::from_millis(500))
        .build();
    let mut grid = Grid::new(
        GridConfig::new(Topology::single_site(5, SimDuration::from_millis(1)))
            .collector(CollectorKind::Complete(dgc))
            .trace_level(TraceLevel::Info)
            .seed(3),
    );

    // Two rings sharing one activity — five activities on five
    // processes, every edge crossing a (possibly firewalled) boundary.
    let (ids, _) = fig7_compound(&mut grid, 5, false);
    println!(
        "compound cycle: {} activities, two rings sharing one member\n",
        ids.len()
    );

    grid.run_for(SimDuration::from_secs(700));

    println!("trace (spawns, terminations):");
    for ev in grid.trace().events() {
        let at = SimTime::from_nanos(ev.at_nanos);
        println!("  [{at}] {:<14} {}", ev.tag, ev.detail);
    }

    let stats = grid.dgc_stats();
    println!("\nprotocol counters:");
    println!("  clock bumps (became idle)    {}", stats.bumps_became_idle);
    println!(
        "  clock bumps (lost referencer){:>5}",
        stats.bumps_lost_referencer
    );
    println!(
        "  clock bumps (lost referenced){:>5}",
        stats.bumps_lost_referenced
    );
    println!("  parents adopted              {}", stats.parents_adopted);
    println!(
        "  consensus detected           {}",
        stats.consensus_detected
    );
    println!(
        "  consensus propagated         {}",
        stats.consensus_propagated
    );
    // Depending on broadcast phases the compound collapses in one
    // consensus wave (1 detection + 4 propagations) or several; members
    // orphaned between waves may even fall to the *acyclic* path once
    // their referencers died — the two collectors cooperate. What is
    // invariant: at least one consensus, everything collected, no live
    // object touched.
    assert!(
        stats.consensus_detected >= 1,
        "at least one originator concludes"
    );
    assert_eq!(grid.alive_count(), 0, "the whole compound is reclaimed");
    assert!(grid.violations().is_empty());
    println!("\nthe compound is gone: consensus waves plus the acyclic sweeper — §4.3.");
}
