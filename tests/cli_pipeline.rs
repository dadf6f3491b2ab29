//! Integration test of the CLI's internals: CSV ingestion → textual
//! predicates → summary → persistence, across crates.

use entropydb::core::selection::heuristics::select_pair_statistics;
use entropydb::prelude::*;
use entropydb::storage::csv::{load_str, CsvOptions};
use entropydb::storage::exec;
use entropydb::storage::parser::parse_predicate;

fn sample_csv() -> String {
    let mut text = String::from("origin,dest,distance\n");
    // Deterministic structured data: route distance depends on the pair.
    let states = ["CA", "NY", "FL", "WA", "TX"];
    for i in 0..2000u32 {
        let o = (i % 5) as usize;
        let d = ((i / 5) % 5) as usize;
        if o == d {
            continue;
        }
        let miles = 300 + 450 * ((o as i32 - d as i32).unsigned_abs()) + (i % 7) * 10;
        text.push_str(&format!("{},{},{}\n", states[o], states[d], miles));
    }
    text
}

#[test]
fn csv_to_summary_to_query_pipeline() {
    let dataset = load_str(&sample_csv(), &CsvOptions::default()).expect("csv loads");
    let table = &dataset.table;
    assert!(table.num_rows() > 1000);

    // Textual predicate answered exactly by the engine.
    let pred = parse_predicate("origin = CA AND dest IN (NY, FL)", &dataset).expect("parses");
    let truth = exec::count(table, &pred).expect("counts") as f64;
    assert!(truth > 0.0);

    // Summarize with statistics over (origin, distance) and (dest, distance).
    let o = dataset.table.schema().attr_by_name("origin").expect("attr");
    let d = dataset.table.schema().attr_by_name("dest").expect("attr");
    let dist = dataset
        .table
        .schema()
        .attr_by_name("distance")
        .expect("attr");
    let mut stats = Vec::new();
    for (x, y) in [(o, dist), (d, dist)] {
        stats.extend(
            select_pair_statistics(table, x, y, 60, Heuristic::Composite).expect("selection"),
        );
    }
    let summary = MaxEntSummary::build(table, stats, &SolverConfig::default()).expect("builds");
    // Two pairs sharing `distance` form a star: the whole model is one
    // component on the message-passing kernel, which materialises pass
    // cells and no closure term (what `entropydb info` prints).
    let size = summary.size_stats();
    assert_eq!((size.tree_components, size.closure_components), (1, 0));
    assert_eq!(size.num_terms, 0);
    let domains: usize = summary.statistics().domain_sizes().iter().sum();
    let rectangles = summary.statistics().multi().len();
    assert_eq!(
        size.tree_cells,
        domains + summary.schema().attr(dist).expect("attr").domain_size() + rectangles
    );

    // Textual BETWEEN query over the binned numeric column.
    let range = parse_predicate("distance BETWEEN 300 AND 800", &dataset).expect("parses");
    let est = summary
        .estimate_count(&range)
        .expect("estimates")
        .expectation;
    let exact = exec::count(table, &range).expect("counts") as f64;
    // The (·, distance) statistics plus complete 1D stats make pure
    // distance ranges essentially exact.
    assert!(
        (est - exact).abs() < 0.01 * exact.max(1.0),
        "est {est} vs exact {exact}"
    );

    // Persist, reload, and re-answer through the text format.
    let text = entropydb::core::serialize::to_string(&summary);
    let loaded = entropydb::core::serialize::from_str(&text).expect("round trips");
    let again = loaded
        .estimate_count(&range)
        .expect("estimates")
        .expectation;
    assert_eq!(est.to_bits(), again.to_bits());

    // Dictionary translation consistency: the label of a code parses back.
    let ca = dataset.code_of(o, "CA").expect("code");
    assert_eq!(dataset.label_of(o, ca).expect("label"), "CA");
}

#[test]
fn parser_against_synthetic_flights() {
    // The parser also works with a plain resolver over generated data by
    // querying through the CSV layer: write a few rows out and back.
    let dataset = load_str(
        "a,b\nx,1\ny,2\nx,3\nz,4\n",
        &CsvOptions {
            default_bins: 4,
            ..CsvOptions::default()
        },
    )
    .expect("loads");
    let pred = parse_predicate("a IN (x, z) AND b BETWEEN 1 AND 4", &dataset).expect("parses");
    let c = exec::count(&dataset.table, &pred).expect("counts");
    assert_eq!(c, 3);
}

/// The ingest contract with tree components present: on a small flights
/// Ent1&2&3 summary (a star of pairs around `distance`, fitted by the tree
/// sweep), `fit_segment` over a shard's rows is bitwise the model
/// `ShardedSummary::build` fits for that shard.
#[test]
fn fit_segment_matches_sharded_build_on_flights_star() {
    use entropydb::core::ingest::fit_segment;
    use entropydb::data::flights::{generate, FlightsConfig};

    let d = generate(&FlightsConfig {
        rows: 6_000,
        fine: false,
        seed: 0xF11D,
    });
    let mut stats = Vec::new();
    for x in [d.origin, d.dest, d.fl_time] {
        stats.extend(
            select_pair_statistics(&d.table, x, d.distance, 40, Heuristic::Composite)
                .expect("selection"),
        );
    }
    let partitioning = Partitioning::hash(3);
    let config = ShardedBuildConfig::default();
    let sharded =
        ShardedSummary::build(&d.table, &partitioning, stats.clone(), &config).expect("builds");
    let parts = d.table.partition(&partitioning).expect("partitions");
    assert_eq!(parts.len(), sharded.num_shards());
    for (part, shard) in parts.iter().zip(sharded.shards()) {
        // One tree component and the free fifth attribute's one-term closure.
        let size = shard.size_stats();
        assert_eq!((size.tree_components, size.num_terms), (1, 1));
        let segment = fit_segment(part, &stats, &config.solver).expect("fits");
        assert_eq!(
            entropydb::core::serialize::to_string(&segment),
            entropydb::core::serialize::to_string(shard)
        );
    }
}
