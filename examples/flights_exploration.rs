//! Interactive exploration of the synthetic flights dataset.
//!
//! Recreates the paper's data-analyst story (Sec. 1-2): build one summary
//! offline, then fire exploratory queries at it interactively — counts,
//! ranges, group-bys — and compare a few of them against the exact answers
//! the full table would give.
//!
//! Run with: `cargo run --release --example flights_exploration [-- rows]`

use entropydb::core::selection::heuristics::select_pair_statistics;
use entropydb::data::flights::{generate, FlightsConfig};
use entropydb::prelude::*;
use entropydb::storage::exec;
use std::time::Instant;

fn main() -> Result<()> {
    let rows = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200_000);

    println!("generating {rows} synthetic flights...");
    let dataset = generate(&FlightsConfig {
        rows,
        fine: false,
        seed: 7,
    });
    let table = &dataset.table;

    // Offline: choose statistics (COMPOSITE over the paper's pairs 2 and 3)
    // and fit the model.
    println!("building summary (COMPOSITE statistics on pairs 2 and 3)...");
    let mut stats = Vec::new();
    for (x, y) in [
        (dataset.dest, dataset.distance),
        (dataset.fl_time, dataset.distance),
    ] {
        stats.extend(select_pair_statistics(
            table,
            x,
            y,
            400,
            Heuristic::Composite,
        )?);
    }
    let (summary, build_time) = {
        let start = Instant::now();
        let s = MaxEntSummary::build(table, stats, &SolverConfig::default())?;
        (s, start.elapsed())
    };
    let report = summary.solver_report();
    println!(
        "  solved in {:.2}s ({} sweeps, residual {:.1e}); total build {:.2}s",
        report.seconds,
        report.sweeps,
        report.max_residual,
        build_time.as_secs_f64()
    );
    let size = summary.size_stats();
    println!(
        "  polynomial: {} evaluated terms and pass cells (uncompressed form would have {:.1e} monomials)",
        size.num_terms + size.tree_cells,
        size.uncompressed_monomials as f64
    );

    // Interactive: exploratory queries with exact-answer comparison.
    println!("\n--- exploration session ---");
    let queries = [
        (
            "long flights (distance in top third)",
            Predicate::new().between(dataset.distance, 54, 80),
        ),
        (
            "long flights arriving at the busiest state",
            Predicate::new()
                .between(dataset.distance, 54, 80)
                .eq(dataset.dest, 0),
        ),
        (
            "short quick hops (low distance, low time)",
            Predicate::new()
                .between(dataset.distance, 0, 8)
                .between(dataset.fl_time, 0, 10),
        ),
        (
            "mismatched time/distance (slow short flights)",
            Predicate::new()
                .between(dataset.distance, 0, 8)
                .between(dataset.fl_time, 30, 61),
        ),
    ];
    for (label, pred) in &queries {
        let start = Instant::now();
        let est = summary.estimate_count(pred)?;
        let elapsed = start.elapsed();
        let truth = exec::count(table, pred)?;
        let (lo, hi) = est.ci95();
        println!(
            "{label}\n  estimate {:>10.1}  [95% CI {:.0}..{:.0}]  true {truth:>8}  ({:.2?})",
            est.expectation, lo, hi, elapsed
        );
    }

    // Group-by: flights per destination for long-haul routes, top 5.
    println!("\ntop 5 destinations for long flights (est vs true):");
    let pred = Predicate::new().between(dataset.distance, 54, 80);
    for (v, est) in summary.top_k(&pred, dataset.dest, 5)? {
        let truth = exec::count(table, &pred.clone().eq(dataset.dest, v))?;
        let name = dataset.locations.value(v).unwrap_or("?");
        println!("  {name}: {:>9.1} (true {truth})", est.expectation);
    }

    // The date attribute is near-uniform: the summary knows it without any
    // 2D statistic on it.
    let jan = Predicate::new().between(dataset.fl_date, 0, 30);
    let est = summary.estimate_count(&jan)?;
    let truth = exec::count(table, &jan)?;
    println!(
        "\nflights in the first 31 days: est {:.0}, true {truth} (uniformity assumption holds)",
        est.expectation
    );
    Ok(())
}
