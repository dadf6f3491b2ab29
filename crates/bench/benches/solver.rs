//! Solver benchmarks (paper Sec. 3.3 / Sec. 5).
//!
//! The paper's claim: coordinate mirror descent (Algorithm 1) converges
//! fast; their Java prototype needed ~1 day for the full flights model. We
//! measure (a) a full solve to tolerance and (b) the per-sweep cost of the
//! batched coordinate solver, (c) a 24-sweep solve of a single-component
//! multi-attribute star on the closure sweep, where the per-pass slab fill
//! is a large share of the sweep, and (d) the tree sweep on the
//! query-latency flights model (Ent1&2&3, a star of pairs fitted by message
//! passing), and (e) a live fold's solve of a 768-row flights delta. (c),
//! (d) and (e) are gated as absolute ceilings — (d) on the cost of one
//! sweep, of the whole solve and of building the polynomial (which must
//! not materialise the star's closure), (e) on the fold's time and sweeps.
//!
//! Besides ns/op, the emitted `BENCH_solver.json` carries convergence
//! side-channels for (c) (`sweeps_to_converge`, final dual `Ψ`), so a perf
//! PR cannot trade convergence for per-sweep speed silently.

use criterion::{criterion_group, criterion_main, Criterion};
use entropydb_bench::common;
use entropydb_bench::report::mean_call_ns;
use entropydb_core::ingest::fit_segment;
use entropydb_core::prelude::*;
use entropydb_core::rng::SplitMix64;
use entropydb_core::selection::heuristics::select_pair_statistics;
use entropydb_core::solver::{solve, SolverConfig};
use entropydb_core::statistics::Statistics;
use entropydb_data::flights::{restrict_to_time_distance, FlightsDataset};
use entropydb_storage::{AttrId, Attribute, Schema, Table};
use std::hint::black_box;

fn setup() -> (Statistics, FactorizedPolynomial) {
    let mut scale = common::Scale::quick();
    scale.flights_rows = 60_000;
    let dataset = common::flights_coarse(&scale);
    let (table, _, et, dt) = restrict_to_time_distance(&dataset);
    let stats_spec =
        select_pair_statistics(&table, et, dt, 400, Heuristic::Composite).expect("selection");
    let stats = Statistics::observe(&table, stats_spec).expect("observe");
    let poly = FactorizedPolynomial::build(stats.domain_sizes(), stats.multi()).expect("build");
    (stats, poly)
}

/// A single-component star model with many wide attributes and a tiny
/// closure: 48 attributes of 96 values, 47 statistics all sharing attribute
/// 0 with pairwise-disjoint ranges on it (so no statistic subsets combine —
/// 48 compressed terms total). Most second clauses span the full domain
/// (folded into the complement product, keeping per-pass term work
/// O(terms) rather than O(terms · attrs)); three are half-domain, so the
/// model carries genuine 2D information and the solver needs several
/// sweeps — the convergence metrics below are non-trivial. This is the
/// shape where the per-pass slab fill (O(Σ N_i)) outweighs the per-pass
/// term work, the closure sweep's worst case.
fn star_setup() -> (Statistics, FactorizedPolynomial) {
    const M: usize = 48;
    const N_VALS: usize = 96;
    const ROWS: usize = 20_000;
    let schema = Schema::new(
        (0..M)
            .map(|i| Attribute::categorical(format!("a{i}"), N_VALS).expect("attribute"))
            .collect(),
    );
    let mut table = Table::with_capacity(schema, ROWS);
    let mut rng = SplitMix64::new(0xE21D);
    let mut row = [0u32; M];
    for _ in 0..ROWS {
        for slot in &mut row {
            *slot = (rng.next_u64() % N_VALS as u64) as u32;
        }
        table.push_row_unchecked(&row);
    }
    let stats_spec: Vec<MultiDimStatistic> = (0..M - 1)
        .map(|j| {
            let hi = if j % 16 == 0 {
                N_VALS / 2 - 1 // genuinely 2D: constrains the second attribute
            } else {
                N_VALS - 1 // full domain: folds into the complement product
            };
            MultiDimStatistic::new(vec![
                RangeClause {
                    attr: AttrId(0),
                    lo: j as u32,
                    hi: j as u32,
                },
                RangeClause {
                    attr: AttrId(j + 1),
                    lo: 0,
                    hi: hi as u32,
                },
            ])
            .expect("valid statistic")
        })
        .collect();
    let stats = Statistics::observe(&table, stats_spec).expect("observe");
    let poly = FactorizedPolynomial::build(stats.domain_sizes(), stats.multi()).expect("build");
    assert_eq!(poly.num_components(), 1, "star model must be one component");
    // One rectangle per pair over 96-value domains: the 48-term closure is
    // the cheaper kernel, so this group keeps measuring the closure sweep.
    assert_eq!(poly.size_stats().closure_components, 1);
    (stats, poly)
}

/// The query-latency bench's flights table (100 k rows) and its Ent1&2&3
/// statistics (300 COMPOSITE on each of origin/dest/fl_time × distance).
fn flights_star() -> (FlightsDataset, Vec<MultiDimStatistic>) {
    let mut scale = common::Scale::quick();
    scale.flights_rows = 100_000;
    let d = common::flights_coarse(&scale);
    let mut stats_spec = Vec::new();
    for x in [d.origin, d.dest, d.fl_time] {
        stats_spec.extend(
            select_pair_statistics(&d.table, x, d.distance, 300, Heuristic::Composite)
                .expect("selection"),
        );
    }
    (d, stats_spec)
}

/// The flights model: one tree component, whose closure would be 150 k
/// terms, beside the free `fl_date`'s one-term closure.
fn flights_star_setup() -> (Statistics, FactorizedPolynomial) {
    let (d, stats_spec) = flights_star();
    let stats = Statistics::observe(&d.table, stats_spec).expect("observe");
    let poly = FactorizedPolynomial::build(stats.domain_sizes(), stats.multi()).expect("build");
    let size = poly.size_stats();
    assert_eq!((size.tree_components, size.num_terms), (1, 1));
    (stats, poly)
}

fn bench_solver(c: &mut Criterion) {
    let (stats, poly) = setup();

    let mut g = c.benchmark_group("solver");
    g.bench_function("coordinate_full_solve", |b| {
        b.iter(|| {
            let config = SolverConfig {
                max_sweeps: 100,
                tolerance: 1e-7,
                ..SolverConfig::default()
            };
            solve(black_box(&poly), black_box(&stats), &config).unwrap()
        })
    });
    g.bench_function("coordinate_per_sweep", |b| {
        b.iter(|| {
            let config = SolverConfig {
                max_sweeps: 1,
                tolerance: 0.0,
                ..SolverConfig::default()
            };
            solve(black_box(&poly), black_box(&stats), &config).unwrap()
        })
    });
    g.finish();
}

/// The closure sweep on the star: a fixed 24-sweep budget (pure per-sweep
/// cost) gated by an absolute ceiling, plus the convergence side-channels
/// of a solve to the default tolerance.
fn bench_star_closure(c: &mut Criterion) {
    let (stats, poly) = star_setup();
    let budget_config = SolverConfig {
        max_sweeps: 24,
        tolerance: 0.0,
        ..SolverConfig::default()
    };

    let mut g = c.benchmark_group("solver_sweep");
    g.bench_function("star_closure_24_sweeps", |b| {
        b.iter(|| solve(black_box(&poly), black_box(&stats), &budget_config).unwrap())
    });
    g.finish();
    c.record_metric(
        "solver_sweep",
        "star_closure_24_sweeps_ns",
        mean_call_ns(10, || {
            black_box(solve(black_box(&poly), black_box(&stats), &budget_config).unwrap());
        }),
    );

    let converge_config = SolverConfig {
        track_dual: true,
        ..SolverConfig::default()
    };
    let (_, report) = solve(&poly, &stats, &converge_config).unwrap();
    assert!(report.converged, "star model must converge");
    let psi = *report.dual_trajectory.last().expect("tracked dual");
    c.record_metric("solver_sweep", "sweeps_to_converge", report.sweeps as f64);
    c.record_metric("solver_sweep", "final_psi", psi);
}

/// The tree sweep at flights scale: the whole default-budget solve and the
/// polynomial build before it (what `MaxEntSummary::build`, a shard fit and
/// every ingest fold pay; loading a summary pays the build alone) and the
/// cost of one sweep, all gated as absolute ceilings.
fn bench_flights_solve(c: &mut Criterion) {
    const SWEEPS: usize = 64;
    let (stats, poly) = flights_star_setup();
    let default_config = SolverConfig::default();
    let budget_config = SolverConfig {
        max_sweeps: SWEEPS,
        tolerance: 0.0,
        ..SolverConfig::default()
    };

    let mut g = c.benchmark_group("flights_solve");
    g.bench_function("full_solve", |b| {
        b.iter(|| solve(black_box(&poly), black_box(&stats), &default_config).unwrap())
    });
    g.finish();

    c.record_metric(
        "flights_solve",
        "tree_sweep_ns",
        mean_call_ns(20, || {
            black_box(solve(black_box(&poly), black_box(&stats), &budget_config).unwrap());
        }) / SWEEPS as f64,
    );
    c.record_metric(
        "flights_solve",
        "full_solve_ms",
        mean_call_ns(10, || {
            black_box(solve(black_box(&poly), black_box(&stats), &default_config).unwrap());
        }) / 1e6,
    );
    c.record_metric(
        "flights_solve",
        "flights_build_ms",
        mean_call_ns(10, || {
            let (sizes, multi) = (stats.domain_sizes(), stats.multi());
            black_box(FactorizedPolynomial::build(black_box(sizes), black_box(multi)).unwrap());
        }) / 1e6,
    );
}

/// A live fold's solve: `fit_segment` at the default config over 768
/// flights rows whose distance code lies in `20..23`, the window the
/// end-to-end `flights_live` workload appends from. A fold re-fits every
/// staged row from scratch, so this is what one append waits for before
/// it is queryable. Gated by absolute ceilings on the time and on the
/// sweeps: a solve that ran to the 400-sweep cap would break both.
fn bench_fold_solve(c: &mut Criterion) {
    const DELTA_ROWS: usize = 768;
    let (d, multi) = flights_star();
    let distance = d.distance.index();
    let rows = (0..d.table.num_rows())
        .filter_map(|r| d.table.row(r))
        .filter(|row| (20..23).contains(&row[distance]))
        .take(DELTA_ROWS);
    let delta = Table::from_rows(d.table.schema().clone(), rows).expect("delta");
    assert_eq!(delta.num_rows(), DELTA_ROWS, "table has enough window rows");
    let config = SolverConfig::default();

    let mut g = c.benchmark_group("fold_solve");
    g.bench_function("delta_768", |b| {
        b.iter(|| fit_segment(black_box(&delta), black_box(&multi), &config).unwrap())
    });
    g.finish();

    c.record_metric(
        "fold_solve",
        "fold_solve_ms",
        mean_call_ns(20, || {
            black_box(fit_segment(black_box(&delta), black_box(&multi), &config).unwrap());
        }) / 1e6,
    );
    let model = fit_segment(&delta, &multi, &config).unwrap();
    let sweeps = model.solver_report().sweeps as f64;
    c.record_metric("fold_solve", "fold_sweeps", sweeps);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(5)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_solver, bench_star_closure, bench_flights_solve, bench_fold_solve
}
criterion_main!(benches);
