//! The solver's tree sweep through the public API.
//!
//! `solve()` fits a component on its message-passing kernel whenever the
//! component has one (`size_stats().tree_components`) and on the Theorem
//! 4.1 closure otherwise. The sweep-against-sweep comparison (same
//! trajectory as the closure sweep, to rounding) lives beside the private
//! sweeps in `crates/core/src/solver.rs`; this suite pins what a caller
//! sees:
//!
//! * on seeded random stars, chains and forests — size-1 domains, values
//!   and rectangles no row falls in, same-pair statistics interleaved with
//!   other pairs' — the dual never decreases along the solve, and at
//!   convergence every `n·α·P_α/P` and `n·δ·P_δ/P`, evaluated by the
//!   tuple-enumerating `NaivePolynomial`, equals its statistic;
//! * at the default configuration a fit that reports `converged` holds
//!   every statistic within twice the stopping rule's
//!   `tolerance · √max(s, 1)`;
//! * components that do not qualify (a cycle of pairs, a 3-D statistic, a
//!   wide star too sparse to beat its closure) are still solved by the
//!   closure sweep, to the bit: their assignments are compared with values
//!   recorded before the tree sweep existed;
//! * a tree component has no closure, so no term cap: a star with 10 000
//!   single-cell statistics per pair (a 10⁸-term closure, over the 5 M
//!   cap) builds, solves and answers.

use entropydb_core::assignment::Mask;
use entropydb_core::naive::NaivePolynomial;
use entropydb_core::polynomial::Var;
use entropydb_core::prelude::*;
use entropydb_core::solver::solve;
use entropydb_core::statistics::RangeClause;
use entropydb_storage::{AttrId, Attribute, Predicate, Schema, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[path = "support/forest.rs"]
mod forest;
use forest::{closure_shapes, fixed_table, random_forest, Clauses, Shape};

#[test]
fn random_forests_fit_their_statistics() {
    let mut g = StdRng::seed_from_u64(0x7EE6);
    let config = SolverConfig {
        max_sweeps: 2000,
        tolerance: 1e-9,
        track_dual: true,
    };
    let (mut on_tree, mut converged) = (0, 0);
    for shape in [Shape::Star, Shape::Chain, Shape::Forest] {
        for _ in 0..96 {
            let (table, rects) = random_forest(&mut g, shape);
            let specs: Vec<_> = rects
                .iter()
                .map(|&(x, xr, y, yr)| {
                    MultiDimStatistic::rect2d(AttrId(x), xr, AttrId(y), yr).unwrap()
                })
                .collect();
            // A rectangle holding every row is rejected as degenerate.
            let Ok(stats) = Statistics::observe(&table, specs) else {
                continue;
            };
            let poly = FactorizedPolynomial::build(stats.domain_sizes(), stats.multi()).unwrap();
            if poly.size_stats().tree_components == 0 {
                continue;
            }
            on_tree += 1;
            let (asn, report) = solve(&poly, &stats, &config).unwrap();
            let context = format!("{shape:?} {rects:?}");

            assert_eq!(report.dual_trajectory.len(), report.sweeps);
            for w in report.dual_trajectory.windows(2) {
                assert!(
                    w[1] >= w[0] - 1e-9 * w[0].abs().max(1.0),
                    "dual decreased {w:?}: {context}"
                );
            }
            if !report.converged {
                continue;
            }
            converged += 1;

            let n = stats.n() as f64;
            let naive = NaivePolynomial::build(stats.domain_sizes(), stats.multi()).unwrap();
            let mask = Mask::identity(stats.domain_sizes().len());
            let p = naive.eval(&asn);
            let expect = |var: Var, x: f64, s: u64| {
                let e = n * x * naive.derivative(&asn, &mask, var) / p;
                assert!(
                    (e - s as f64).abs() <= 1e-6 * n,
                    "{var:?}: E = {e}, s = {s}: {context}"
                );
            };
            for (attr, counts) in stats.one_dim().iter().enumerate() {
                for (code, &s) in counts.iter().enumerate() {
                    let code = code as u32;
                    expect(
                        Var::OneDim { attr, code },
                        asn.one_dim[attr][code as usize],
                        s,
                    );
                }
            }
            for (j, &s) in stats.multi_counts().iter().enumerate() {
                expect(Var::Multi(j), asn.multi[j], s);
            }
        }
    }
    assert!(on_tree >= 60, "only {on_tree} models had a tree component");
    assert!(
        2 * converged > on_tree,
        "{converged} of {on_tree} converged"
    );
}

/// How far past `tolerance · √max(s, 1)` a converged fit may end. The rule
/// is checked inside the last sweep, each statistic just before its own
/// update, and the updates after it in that sweep still move its fit.
const SLACK: f64 = 2.0;

/// The stopping rule through the public API: on seeded random stars,
/// chains and forests, a fit at the default configuration that reports
/// `converged` holds every statistic — `n·α·P_α/P` and `n·δ·P_δ/P` at the
/// returned variables, evaluated by the tuple-enumerating
/// `NaivePolynomial` — within `SLACK · tolerance · √max(s, 1)` of its count.
#[test]
fn a_converged_default_fit_is_within_its_stated_bound() {
    let config = SolverConfig::default();
    let mut g = StdRng::seed_from_u64(0x5707);
    let (mut fits, mut converged) = (0, 0);
    for shape in [Shape::Star, Shape::Chain, Shape::Forest] {
        for _ in 0..96 {
            let (table, rects) = random_forest(&mut g, shape);
            let specs: Vec<_> = rects
                .iter()
                .map(|&(x, xr, y, yr)| {
                    MultiDimStatistic::rect2d(AttrId(x), xr, AttrId(y), yr).unwrap()
                })
                .collect();
            // A rectangle holding every row is rejected as degenerate.
            let Ok(stats) = Statistics::observe(&table, specs) else {
                continue;
            };
            let poly = FactorizedPolynomial::build(stats.domain_sizes(), stats.multi()).unwrap();
            let (asn, report) = solve(&poly, &stats, &config).unwrap();
            fits += 1;
            if !report.converged {
                continue;
            }
            converged += 1;
            assert!(report.sweeps < config.max_sweeps, "{report}");

            let n = stats.n() as f64;
            let naive = NaivePolynomial::build(stats.domain_sizes(), stats.multi()).unwrap();
            let mask = Mask::identity(stats.domain_sizes().len());
            let p = naive.eval(&asn);
            let check = |var: Var, x: f64, s: u64| {
                let e = n * x * naive.derivative(&asn, &mask, var) / p;
                let bound = config.tolerance * (s as f64).max(1.0).sqrt();
                assert!(
                    (e - s as f64).abs() <= SLACK * bound,
                    "{var:?}: E = {e}, s = {s}: {shape:?} {rects:?}"
                );
            };
            for (attr, counts) in stats.one_dim().iter().enumerate() {
                for (code, &s) in counts.iter().enumerate() {
                    let x = asn.one_dim[attr][code];
                    check(
                        Var::OneDim {
                            attr,
                            code: code as u32,
                        },
                        x,
                        s,
                    );
                }
            }
            for (j, &s) in stats.multi_counts().iter().enumerate() {
                check(Var::Multi(j), asn.multi[j], s);
            }
        }
    }
    assert!(2 * converged > fits, "{converged} of {fits} converged");
}

/// Every cell of three `G × G` grids around one hub as its own statistic
/// (10 000 per pair): `G·(G + 1)³ − G` ≈ 10⁸ compatible subsets, far over
/// the closure's 5 M term cap — `CompressionTooLarge` while a tree
/// component still built its closure. The pass touches `6·G + 3·G²` cells,
/// and `Statistics::observe` checks the 30 000 statistics' disjointness by
/// a sweep (all pairs took a minute of a debug build).
#[test]
fn a_star_over_the_closure_term_cap_builds_solves_and_answers() {
    const G: u32 = 100;
    let schema = Schema::new(
        (0..4)
            .map(|i| Attribute::categorical(format!("a{i}"), G as usize).unwrap())
            .collect(),
    );
    let mut g = StdRng::seed_from_u64(0x57A2);
    let mut table = Table::new(schema);
    for _ in 0..40_000 {
        let hub = g.gen_range(0..G);
        // Leaves follow the hub, each its own way, with some spread.
        let leaf = |k: u32, g: &mut StdRng| (hub * (k + 2) + g.gen_range(0..G / 4)) % G;
        let row = [hub, leaf(0, &mut g), leaf(1, &mut g), leaf(2, &mut g)];
        table.push_row(&row).unwrap();
    }
    let cells = (1..4).flat_map(|leaf| {
        (0..G * G)
            .map(move |c| MultiDimStatistic::cell2d(AttrId(0), c / G, AttrId(leaf), c % G).unwrap())
    });
    let summary = MaxEntSummary::build(&table, cells.collect(), &SolverConfig::default()).unwrap();

    let size = summary.size_stats();
    assert_eq!((size.tree_components, size.closure_components), (1, 0));
    assert_eq!(size.num_terms, 0);
    assert_eq!(size.tree_cells, (6 * G + 3 * G * G) as usize);

    let report = summary.solver_report();
    assert!(report.converged, "{report}");
    let stats = summary.statistics();
    let (mut nonzero, mut zero) = (0, 0);
    for _ in 0..50 {
        let j = g.gen_range(0..stats.multi().len());
        let c = stats.multi()[j].clauses();
        let pred = Predicate::new()
            .eq(c[0].attr, c[0].lo)
            .eq(c[1].attr, c[1].lo);
        let estimate = summary.estimate_count(&pred).unwrap().expectation;
        let s = stats.multi_counts()[j];
        let bound = SLACK * SolverConfig::default().tolerance * (s as f64).max(1.0).sqrt();
        assert!(
            (estimate - s as f64).abs() <= bound,
            "statistic {j}: estimated {estimate}, observed {s}"
        );
        if s == 0 {
            zero += 1;
        } else {
            nonzero += 1;
        }
    }
    assert!(nonzero >= 5 && zero >= 5, "{nonzero} / {zero}");
}

/// Runs exactly `sweeps` sweeps and returns every variable's bits. The
/// recorded values were solved to a residual of `1e-6·n`, which the three
/// shapes reached after 30, 82 and 15 sweeps.
fn solved_bits(specs: Vec<MultiDimStatistic>, sweeps: usize) -> Vec<u64> {
    let stats = Statistics::observe(&fixed_table(), specs).unwrap();
    let poly = FactorizedPolynomial::build(stats.domain_sizes(), stats.multi()).unwrap();
    assert_eq!(poly.size_stats().tree_components, 0);
    let config = SolverConfig {
        max_sweeps: sweeps,
        tolerance: 0.0,
        ..SolverConfig::default()
    };
    let (asn, _) = solve(&poly, &stats, &config).unwrap();
    let vars = asn.one_dim.iter().flatten().chain(&asn.multi);
    vars.map(|x| x.to_bits()).collect()
}

#[test]
fn closure_components_keep_their_assignment_bitwise() {
    let statistic = |clauses: &Clauses| {
        let clauses = clauses.iter().map(|&(attr, (lo, hi))| RangeClause {
            attr: AttrId(attr),
            lo,
            hi,
        });
        MultiDimStatistic::new(clauses.collect()).unwrap()
    };
    let [triangle, three_d, sparse_star] =
        closure_shapes().map(|shape| shape.iter().map(statistic).collect());
    assert_eq!(solved_bits(triangle, 30), TRIANGLE);
    assert_eq!(solved_bits(three_d, 82), THREE_D);
    assert_eq!(solved_bits(sparse_star, 15), SPARSE_STAR);
}

const TRIANGLE: [u64; 20] = [
    0x3fced48a882e41ce,
    0x3fd01da33e73407a,
    0x3fd01d98638fe79d,
    0x3fced474a30d61d4,
    0x3fd6119c2df645c7,
    0x3fd555555555555c,
    0x3fd555555555555c,
    0x0,
    0x3fde9bd646a1a4f5,
    0x3fd3333333333334,
    0x0,
    0x3fc999999999999b,
    0x3fd82d82d82d82d8,
    0x3fd3e93e93e93e94,
    0x3fd3e93e93e93e94,
    0x0,
    0x3ff11a6e3642c2fd,
    0x3ff000001d832c9d,
    0x3fed47279c04277e,
    0x0,
];
const THREE_D: [u64; 18] = [
    0x3fcfae56ca6de8ed,
    0x3fcfae56ccaa8261,
    0x3fcf8067f38104ea,
    0x3fcf8067f30f89e9,
    0x3fd5f95933c85966,
    0x3fd5555555555546,
    0x3fd5555555555546,
    0x0,
    0x3fe37e2e9fb3f0c8,
    0x3fd76438bda3b826,
    0x0,
    0x3fc54f8f6272b899,
    0x3fe044c4b00a68a4,
    0x3fdacb9f94b8e2fa,
    0x3fd0f3e33f8caa91,
    0x0,
    0x3ff1342f501e172b,
    0x3fe24949fe22f646,
];
const SPARSE_STAR: [u64; 19] = [
    0x3fd00bac23079034,
    0x3fd0902a242af8e6,
    0x3fcfcdaede7dcab1,
    0x3fcecf47aade0808,
    0x3fd5555555555556,
    0x3fd5555555555558,
    0x3fd5555555555559,
    0x0,
    0x3fdf33b9a47c11c4,
    0x3fd3ba47970f3ff6,
    0x0,
    0x3fc8f62e904bfaf5,
    0x3fd82d82d82d82d8,
    0x3fd3e93e93e93e91,
    0x3fd3e93e93e93e91,
    0x0,
    0x3ff00f2e46c17eac,
    0x3fecc92f79deda66,
    0x3feffffffffffff8,
];
