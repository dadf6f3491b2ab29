//! End-to-end scenarios across all crates: datasets → statistics selection →
//! summaries → queries vs exact ground truth vs sampling baselines.

use entropydb::core::ingest::fit_segment;
use entropydb::core::metrics::{mean_relative_error, relative_error};
use entropydb::core::selection::choose_pairs;
use entropydb::core::selection::heuristics::select_pair_statistics;
use entropydb::data::flights::{generate, restrict_to_time_distance, FlightsConfig};
use entropydb::data::particles::{self, ParticlesConfig};
use entropydb::data::workload::Workload;
use entropydb::prelude::*;
use entropydb::sampling::uniform_sample;
use entropydb::storage::correlation::rank_pairs;
use entropydb::storage::exec;

/// A fully covered attribute pair makes point queries on it near-exact:
/// COMPOSITE with budget >= live cells captures the entire 2D distribution.
#[test]
fn full_budget_composite_is_near_exact_on_its_pair() {
    let d = generate(&FlightsConfig {
        rows: 10_000,
        fine: false,
        seed: 12,
    });
    let (table, _, et, dt) = restrict_to_time_distance(&d);
    let hist = entropydb::storage::Histogram2D::compute(&table, et, dt).expect("hist");
    // Budget of all 62*81 cells: every live region isolated.
    let stats =
        select_pair_statistics(&table, et, dt, 62 * 81, Heuristic::Composite).expect("selection");
    let summary =
        MaxEntSummary::build(&table, stats, &SolverConfig::default()).expect("summary builds");

    let mut pairs = Vec::new();
    for (x, y, c) in hist.iter_nonzero().take(200) {
        let pred = Predicate::new().eq(et, x).eq(dt, y);
        let est = summary.estimate_count(&pred).expect("query").expectation;
        pairs.push((c as f64, est));
    }
    let err = mean_relative_error(&pairs);
    assert!(err < 0.02, "mean relative error {err}");
}

/// The MaxEnt summary never misses populations entirely: every existing
/// group gets a positive estimate under a 1D-only model (no false
/// negatives), while a small uniform sample misses many light hitters.
#[test]
fn summary_has_no_false_negatives_where_small_samples_do() {
    let d = generate(&FlightsConfig {
        rows: 30_000,
        fine: false,
        seed: 4,
    });
    let workload = Workload::generate(&d.table, &[d.origin, d.dest], 30, 60, 0, 9)
        .expect("workload generates");
    let summary = MaxEntSummary::build(&d.table, vec![], &SolverConfig::default()).expect("builds");
    let sample = uniform_sample(&d.table, 0.002, 8).expect("sample"); // 60 rows

    let mut summary_zeroes = 0;
    let mut sample_zeroes = 0;
    for (values, _) in &workload.light {
        let pred = workload.predicate(values);
        if summary.estimate_count(&pred).expect("query").expectation <= 0.0 {
            summary_zeroes += 1;
        }
        if sample.estimate_count(&pred).expect("query") <= 0.0 {
            sample_zeroes += 1;
        }
    }
    // The product-of-marginals model gives positive probability to every
    // combination of existing values.
    assert_eq!(summary_zeroes, 0);
    // A 60-row sample cannot contain 60 distinct light-hitter routes.
    assert!(sample_zeroes > workload.light.len() / 2);
}

/// Adding a 2D statistic over a correlated pair strictly improves accuracy
/// on that pair's heavy hitters (the Sec. 2 motivation).
#[test]
fn two_d_statistics_improve_covered_queries() {
    let d = generate(&FlightsConfig {
        rows: 30_000,
        fine: false,
        seed: 4,
    });
    let workload = Workload::generate(&d.table, &[d.fl_time, d.distance], 40, 0, 0, 9)
        .expect("workload generates");
    let no2d = MaxEntSummary::build(&d.table, vec![], &SolverConfig::default()).expect("builds");
    let stats = select_pair_statistics(&d.table, d.fl_time, d.distance, 300, Heuristic::Composite)
        .expect("selection");
    let with2d = MaxEntSummary::build(&d.table, stats, &SolverConfig::default()).expect("builds");

    let err = |s: &MaxEntSummary| -> f64 {
        workload
            .heavy
            .iter()
            .map(|(v, t)| {
                relative_error(
                    *t as f64,
                    s.estimate_count(&workload.predicate(v))
                        .expect("query")
                        .expectation,
                )
            })
            .sum::<f64>()
            / workload.heavy.len() as f64
    };
    let (e_no2d, e_with2d) = (err(&no2d), err(&with2d));
    assert!(
        e_with2d < e_no2d * 0.7,
        "2D stats should cut error: {e_no2d} -> {e_with2d}"
    );
}

/// End-to-end particles pipeline: automatic pair selection, summary build,
/// and sane aggregates (SUM/AVG) against exact answers.
#[test]
fn particles_pipeline_with_automatic_pair_selection() {
    let d = particles::generate(&ParticlesConfig {
        rows_per_snapshot: 10_000,
        snapshots: 2,
        seed: 31,
        halos: 10,
    });
    let candidates = [d.density, d.mass, d.grp, d.ptype];
    let scores = rank_pairs(&d.table, &candidates).expect("ranking");
    let chosen = choose_pairs(&scores, 2);
    assert_eq!(chosen.len(), 2);
    let mut stats = Vec::new();
    for pair in &chosen {
        stats.extend(
            select_pair_statistics(&d.table, pair.x, pair.y, 60, Heuristic::Composite)
                .expect("selection"),
        );
    }
    let summary = MaxEntSummary::build(&d.table, stats, &SolverConfig::default()).expect("builds");
    assert!(summary.solver_report().max_residual < 1e-3);

    let mass_binner = d
        .table
        .schema()
        .attr(d.mass)
        .expect("attr")
        .binner()
        .expect("binned")
        .clone();
    let weights: Vec<f64> = (0..52u32).map(|v| mass_binner.midpoint(v)).collect();
    let exact_avg = |pred: &Predicate| -> f64 {
        let sum = exec::sum_by(&d.table, pred, d.mass, &weights).expect("sum");
        let cnt = exec::count(&d.table, pred).expect("count") as f64;
        sum / cnt
    };

    // Unconditional AVG mass: the 1D mass statistics are complete, so this
    // is exact up to bucketing.
    let overall = summary
        .estimate_avg(&Predicate::all(), d.mass)
        .expect("query")
        .expect("positive count");
    let overall_exact = exact_avg(&Predicate::all());
    assert!(
        (overall - overall_exact).abs() / overall_exact < 1e-6,
        "overall avg mass: est {overall}, exact {overall_exact}"
    );

    // Conditional AVG mass of clustered particles: accuracy depends on
    // whether the chosen pairs cover (mass, grp); allow model-level slack
    // but require the estimate to stay in the right ballpark.
    let pred = Predicate::new().eq(d.grp, 1);
    let est_avg = summary
        .estimate_avg(&pred, d.mass)
        .expect("query")
        .expect("positive count");
    let clustered_exact = exact_avg(&pred);
    assert!(
        (est_avg - clustered_exact).abs() / clustered_exact < 0.4,
        "clustered avg mass: est {est_avg}, exact {clustered_exact}"
    );
}

/// Sharded end-to-end through the facade: partition a real-shaped dataset,
/// build a sharded summary, and check the merged engine against exact
/// ground truth and the monolithic model, then round-trip it through the
/// sharded directory layout.
#[test]
fn sharded_pipeline_matches_monolithic_and_round_trips() {
    let d = generate(&FlightsConfig {
        rows: 12_000,
        fine: false,
        seed: 21,
    });
    let stats = select_pair_statistics(&d.table, d.fl_time, d.distance, 120, Heuristic::Composite)
        .expect("selection");

    let mono =
        MaxEntSummary::build(&d.table, stats.clone(), &SolverConfig::default()).expect("builds");
    let sharded = ShardedSummary::build(
        &d.table,
        &Partitioning::hash(4),
        stats,
        &ShardedBuildConfig::default(),
    )
    .expect("sharded builds");
    assert_eq!(sharded.n(), mono.n());

    // 1D marginals are exact for both engines.
    for v in 0..5u32 {
        let pred = Predicate::new().eq(d.origin, v);
        let truth = exec::count(&d.table, &pred).expect("count") as f64;
        let est = sharded.estimate_count(&pred).expect("query").expectation;
        assert!(
            (est - truth).abs() < 1e-4 * sharded.n() as f64,
            "origin {v}: {est} vs {truth}"
        );
    }
    // Covered 2D queries: sharded stays close to the monolithic answer.
    let pred = Predicate::new()
        .between(d.fl_time, 5, 25)
        .between(d.distance, 5, 40);
    let e_mono = mono.estimate_count(&pred).expect("query").expectation;
    let e_shard = sharded.estimate_count(&pred).expect("query").expectation;
    assert!(
        (e_mono - e_shard).abs() < 0.1 * e_mono.max(1.0),
        "mono {e_mono} vs sharded {e_shard}"
    );

    // Group-by and top-k run through the merged fan-out paths.
    let groups = sharded
        .estimate_group_by(&pred, d.origin)
        .expect("group-by");
    let top = sharded.top_k(&pred, d.origin, 3).expect("top-k");
    assert_eq!(top.len(), 3);
    let best = groups
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.expectation.total_cmp(&b.1.expectation))
        .expect("non-empty");
    assert_eq!(top[0].0, best.0 as u32);

    // Directory round trip preserves the merged estimates bit for bit.
    let dir = std::env::temp_dir().join(format!("entropydb-e2e-sharded-{}", std::process::id()));
    entropydb::core::serialize::save_sharded_dir(&sharded, &dir).expect("save");
    let loaded = entropydb::core::serialize::load_sharded_dir(&dir).expect("round trip");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        loaded
            .estimate_count(&pred)
            .expect("query")
            .expectation
            .to_bits(),
        e_shard.to_bits()
    );
}

/// The Fig. 1 walk-through from the paper's Sec. 2 intro: with only 1D
/// information the CA→NY estimate is n/50²-style uniform; telling the model
/// CA only flies to 3 states concentrates the mass.
#[test]
fn section_2_walkthrough() {
    // 50 states; 500 flights from CA uniformly to NY, FL, WA only; the other
    // states' flights spread evenly.
    let schema = Schema::new(vec![
        Attribute::categorical("origin", 50).expect("valid"),
        Attribute::categorical("dest", 50).expect("valid"),
    ]);
    let mut table = Table::new(schema);
    for i in 0..500u32 {
        // CA = 0; NY = 1, FL = 2, WA = 3.
        table.push_row(&[0, 1 + (i % 3)]).expect("valid");
    }
    for i in 0..4_500u32 {
        table
            .push_row(&[1 + (i % 49), (i * 7) % 50])
            .expect("valid");
    }
    let origin = AttrId(0);
    let dest = AttrId(1);
    let ca_ny = Predicate::new().eq(origin, 0).eq(dest, 1);

    // 1D only: CA mass spreads over destinations by their marginals.
    let no2d = MaxEntSummary::build(&table, vec![], &SolverConfig::default()).expect("builds");
    let uniform_est = no2d.estimate_count(&ca_ny).expect("query").expectation;

    // Add the "CA only flies to NY/FL/WA" knowledge as a 2D statistic.
    let stat = MultiDimStatistic::rect2d(origin, (0, 0), dest, (1, 3)).expect("valid");
    let informed =
        MaxEntSummary::build(&table, vec![stat], &SolverConfig::default()).expect("builds");
    let informed_est = informed.estimate_count(&ca_ny).expect("query").expectation;

    // True count is 500/3 ≈ 167; the informed estimate must move strongly
    // toward it.
    assert!(
        (informed_est - 500.0 / 3.0).abs() < 25.0,
        "informed {informed_est}"
    );
    assert!(
        informed_est > 2.0 * uniform_est,
        "{uniform_est} -> {informed_est}"
    );
}

/// A live fold stops when it is done: a 768-row delta of flights rows whose
/// distance code lies in `20..23` (3 values of the star's centre attribute,
/// the window the `flights_live` benchmark appends from) fits the
/// Ent1&2&3 statistics at the default configuration in at most 50 sweeps,
/// not at the 400-sweep cap.
#[test]
fn a_narrow_delta_fold_converges_in_few_sweeps() {
    let d = generate(&FlightsConfig {
        rows: 30_000,
        fine: false,
        seed: 0xF11D,
    });
    let mut stats = Vec::new();
    for x in [d.origin, d.dest, d.fl_time] {
        stats.extend(
            select_pair_statistics(&d.table, x, d.distance, 300, Heuristic::Composite)
                .expect("selection"),
        );
    }
    let distance = d.distance.index();
    let rows = (0..d.table.num_rows())
        .filter_map(|r| d.table.row(r))
        .filter(|row| (20..23).contains(&row[distance]))
        .take(768);
    let delta = Table::from_rows(d.table.schema().clone(), rows).expect("delta");
    assert_eq!(delta.num_rows(), 768, "table has enough window rows");
    let model = fit_segment(&delta, &stats, &SolverConfig::default()).expect("fits");
    let report = model.solver_report();
    assert!(report.converged && report.sweeps <= 50, "{report}");
}
