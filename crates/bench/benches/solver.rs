//! Solver benchmarks (paper Sec. 3.3 / Sec. 5).
//!
//! The paper's claim: coordinate mirror descent (Algorithm 1) converges
//! fastest; their Java prototype needed ~1 day for the full flights model.
//! We measure (a) a full solve to tolerance with the batched coordinate
//! solver, (b) the per-sweep cost of the coordinate solver vs the
//! exponentiated-gradient baseline on the same model, (c) the
//! incremental slab maintenance (refresh only the changed attribute's
//! prefix row per pass) against the retained full-refill baseline, on a
//! single-component multi-attribute model where per-pass refill dominates
//! sweep cost, and (d) the tree sweep on the query-latency flights model
//! (Ent1&2&3, a star of pairs fitted by message passing), gated as
//! absolute ceilings on the cost of one sweep, of the whole solve and of
//! building the polynomial (which must not materialise the star's closure).
//!
//! Besides ns/op, the emitted `BENCH_solver.json` carries convergence
//! side-channels (`sweeps_to_converge`, final dual `Ψ`) for both refill
//! configurations, so a perf PR cannot trade convergence for per-sweep
//! speed silently — the two configurations are bit-identical by
//! construction and this bench asserts it.

use criterion::{criterion_group, criterion_main, Criterion};
use entropydb_bench::common;
use entropydb_bench::report::mean_call_ns;
use entropydb_core::prelude::*;
use entropydb_core::rng::SplitMix64;
use entropydb_core::selection::heuristics::select_pair_statistics;
use entropydb_core::solver::{solve, solve_gradient, SolverConfig};
use entropydb_core::statistics::Statistics;
use entropydb_data::flights::restrict_to_time_distance;
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
/// shape where the per-pass slab refill (O(Σ N_i)) dominates the per-pass
/// term work, i.e. what the incremental maintenance isolates: the solver's
/// per-value closed-form math is irreducible, the slab refill is not.
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

/// The query-latency bench's flights model (100 k rows, 300 COMPOSITE
/// statistics on each of origin/dest/fl_time × distance): one tree
/// component, whose closure would be 150 k terms, beside the free
/// `fl_date`'s one-term closure.
fn flights_star_setup() -> (Statistics, FactorizedPolynomial) {
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
    g.bench_function("naive_gradient_per_sweep", |b| {
        b.iter(|| solve_gradient(black_box(&poly), black_box(&stats), 1.0, 1, 0.0).unwrap())
    });
    g.finish();
}

/// Incremental slab maintenance vs full refill: fixed sweep budget (pure
/// per-sweep cost comparison), plus convergence side-channel metrics.
fn bench_incremental(c: &mut Criterion) {
    let (stats, poly) = star_setup();
    let budget_config = |incremental: bool| SolverConfig {
        max_sweeps: 24,
        tolerance: 0.0,
        incremental_refill: incremental,
        ..SolverConfig::default()
    };

    let mut g = c.benchmark_group("solver_sweep");
    g.bench_function("legacy_full_refill", |b| {
        let config = budget_config(false);
        b.iter(|| solve(black_box(&poly), black_box(&stats), &config).unwrap())
    });
    g.bench_function("incremental_refill", |b| {
        let config = budget_config(true);
        b.iter(|| solve(black_box(&poly), black_box(&stats), &config).unwrap())
    });
    g.finish();

    // Convergence side-channels for the model timed above, recorded into
    // BENCH_solver.json: sweeps-to-converge and the final dual Ψ per refill
    // configuration. A perf change that trades convergence for per-sweep
    // speed shows up as a diverging metric pair — here they must agree to
    // 1e-9 (they are bit-identical by construction; the deep property suite
    // lives in crates/core/tests/incremental_refill.rs) or the bench fails.
    let mut psis = Vec::new();
    let mut sweeps = Vec::new();
    for (name, incremental) in [("full_refill", false), ("incremental", true)] {
        let converge_config = SolverConfig {
            track_dual: true,
            incremental_refill: incremental,
            ..SolverConfig::default()
        };
        let (_, report) = solve(&poly, &stats, &converge_config).unwrap();
        assert!(report.converged, "star model must converge ({name})");
        let psi = *report.dual_trajectory.last().expect("tracked dual");
        c.record_metric(
            "solver_sweep",
            format!("sweeps_to_converge_{name}"),
            report.sweeps as f64,
        );
        c.record_metric("solver_sweep", format!("final_psi_{name}"), psi);
        psis.push(psi);
        sweeps.push(report.sweeps);
    }
    assert!(
        (psis[0] - psis[1]).abs() <= 1e-9 * psis[0].abs().max(1.0),
        "dual objectives diverged: full {} vs incremental {}",
        psis[0],
        psis[1]
    );
    assert_eq!(sweeps[0], sweeps[1], "sweep counts diverged across configs");
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

/// Sweeps-to-converge comparison, reported through bench output: run once
/// outside the timing loop and assert the paper's ordering.
fn bench_convergence(c: &mut Criterion) {
    let (stats, poly) = setup();
    // Statistics observed from real-shaped data imply some zero cells, so
    // the dual optimum lies at the boundary (δ → ∞ directions) and no fixed
    // tolerance is guaranteed reachable. The robust comparison is residual
    // after an equal sweep budget: the coordinate solver must make at least
    // as much progress per sweep as the exponentiated-gradient baseline
    // (the paper's "fastest convergence" claim).
    let budget = 100;
    let config = SolverConfig {
        max_sweeps: budget,
        tolerance: 0.0,
        ..SolverConfig::default()
    };
    let (_, coord) = solve(&poly, &stats, &config).unwrap();
    let (_, grad) = solve_gradient(&poly, &stats, 1.0, budget, 0.0).unwrap();
    println!(
        "\nresidual after {budget} sweeps: coordinate {:.3e} ({:.3}s), gradient {:.3e} ({:.3}s)",
        coord.max_residual, coord.seconds, grad.max_residual, grad.seconds
    );
    assert!(
        coord.max_residual <= grad.max_residual,
        "coordinate ({:.3e}) should beat gradient ({:.3e}) at equal sweeps",
        coord.max_residual,
        grad.max_residual
    );

    // Keep criterion happy with a trivial measured target.
    c.bench_function("solver/noop_reference", |b| b.iter(|| black_box(1 + 1)));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(5)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_solver, bench_incremental, bench_flights_solve, bench_convergence
}
criterion_main!(benches);
