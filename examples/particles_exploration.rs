//! Exploring the synthetic astronomy dataset (the paper's Sec. 6.3 setting).
//!
//! Builds a summary with 2D statistics over the most correlated attribute
//! pairs — chosen automatically with chi-squared ranking and the
//! attribute-cover strategy — then answers the kinds of questions an
//! astronomer would ask: how many particles sit in dense clustered regions,
//! what the halo population looks like per snapshot, and where the mass is.
//!
//! Run with: `cargo run --release --example particles_exploration [-- rows]`

use entropydb::core::selection::choose_pairs;
use entropydb::core::selection::heuristics::select_pair_statistics;
use entropydb::data::particles::{generate, ParticlesConfig};
use entropydb::prelude::*;
use entropydb::storage::correlation::rank_pairs;
use entropydb::storage::exec;

fn main() -> Result<()> {
    let rows = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(150_000);

    println!("simulating {rows} particles x 3 snapshots...");
    let dataset = generate(&ParticlesConfig {
        rows_per_snapshot: rows / 3,
        snapshots: 3,
        seed: 99,
        halos: 24,
    });
    let table = &dataset.table;

    // Rank attribute pairs by association and keep the best 4 that cover
    // the most attributes (Sec. 4.3's winning strategy).
    let candidates = [
        dataset.density,
        dataset.mass,
        dataset.x,
        dataset.y,
        dataset.z,
        dataset.grp,
        dataset.ptype,
    ];
    let scores = rank_pairs(table, &candidates)?;
    println!("\nstrongest correlations (Cramér's V):");
    for s in scores.iter().take(4) {
        let nx = table.schema().attr(s.x)?.name().to_string();
        let ny = table.schema().attr(s.y)?.name().to_string();
        println!("  ({nx}, {ny}): {:.3}", s.cramers_v);
    }
    let chosen = choose_pairs(&scores, 4);

    let mut stats = Vec::new();
    for pair in &chosen {
        stats.extend(select_pair_statistics(
            table,
            pair.x,
            pair.y,
            80,
            Heuristic::Composite,
        )?);
    }
    println!("\nfitting the summary ({} 2D statistics)...", stats.len());
    let summary = MaxEntSummary::build(table, stats, &SolverConfig::default())?;
    println!(
        "  {} sweeps, residual {:.1e}, {:.2}s",
        summary.solver_report().sweeps,
        summary.solver_report().max_residual,
        summary.solver_report().seconds
    );

    // How many clustered, high-density particles? (grp = 1, top density
    // third).
    let dense_clustered = Predicate::new()
        .eq(dataset.grp, 1)
        .between(dataset.density, 39, 57);
    let est = summary.estimate_count(&dense_clustered)?;
    let truth = exec::count(table, &dense_clustered)?;
    println!(
        "\ndense clustered particles: est {:.0} (true {truth})",
        est.expectation
    );

    // Cluster growth per snapshot (gravitational collapse over time). The
    // summary has no (grp, snapshot) statistic, so the MaxEnt uniformity
    // assumption flattens the trend — exactly the failure mode 2D
    // statistics exist to fix (paper Sec. 2).
    println!("\nclustered particles per snapshot (no 2D stat on (grp, snapshot)):");
    let per_snapshot = |s: &MaxEntSummary| -> Result<()> {
        let groups = s.estimate_group_by(&Predicate::new().eq(dataset.grp, 1), dataset.snapshot)?;
        for (snap, est) in groups.iter().enumerate() {
            let truth = exec::count(
                table,
                &Predicate::new()
                    .eq(dataset.grp, 1)
                    .eq(dataset.snapshot, snap as u32),
            )?;
            println!("  snapshot {snap}: {:>9.1} (true {truth})", est.expectation);
        }
        Ok(())
    };
    per_snapshot(&summary)?;

    // Add the missing statistic and watch the trend come back.
    let mut stats2 = Vec::new();
    for pair in &chosen {
        stats2.extend(select_pair_statistics(
            table,
            pair.x,
            pair.y,
            80,
            Heuristic::Composite,
        )?);
    }
    stats2.extend(select_pair_statistics(
        table,
        dataset.grp,
        dataset.snapshot,
        6,
        Heuristic::Composite,
    )?);
    let summary2 = MaxEntSummary::build(table, stats2, &SolverConfig::default())?;
    println!("after adding a (grp, snapshot) statistic:");
    per_snapshot(&summary2)?;

    // Where is the mass? Average mass of clustered vs background particles.
    for (label, grp) in [("background", 0u32), ("clustered", 1u32)] {
        let avg = summary
            .estimate_avg(&Predicate::new().eq(dataset.grp, grp), dataset.mass)?
            .unwrap_or(0.0);
        println!("avg particle mass ({label}): {avg:.2}");
    }

    // Star census in a spatial region (a corner octant of the box).
    let corner_stars = Predicate::new()
        .eq(dataset.ptype, 2)
        .between(dataset.x, 0, 9)
        .between(dataset.y, 0, 9)
        .between(dataset.z, 0, 9);
    let est = summary.estimate_count(&corner_stars)?;
    let truth = exec::count(table, &corner_stars)?;
    println!(
        "\nstars in the corner octant: est {:.0} ± {:.0} (true {truth})",
        est.expectation,
        est.std_dev()
    );
    Ok(())
}
