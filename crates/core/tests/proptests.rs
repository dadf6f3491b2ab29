//! Property-style tests for the core model invariants.
//!
//! The central correctness claim of the implementation is Theorem 4.1: the
//! compressed polynomial is *identically equal* to the naive one-monomial-
//! per-tuple polynomial, for arbitrary rectangle statistics (overlapping or
//! not). These tests exercise that identity — values, masked values, and
//! derivatives — on randomized configurations, plus the solver's constraint
//! satisfaction and the query-answering identities.
//!
//! crates.io is unreachable from the build environment, so instead of
//! `proptest` every property runs over many SplitMix64-seeded random
//! configurations — deterministic, shrink-free property testing.

use entropydb_core::assignment::{Mask, VarAssignment};
use entropydb_core::naive::NaivePolynomial;
use entropydb_core::polynomial::{CompressedPolynomial, Var};
use entropydb_core::prelude::*;
use entropydb_core::statistics::RangeClause;
use entropydb_storage::{AttrId, Attribute, Predicate, Schema, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random model configuration: domain sizes, rectangle statistics, and an
/// assignment. Kept small so the naive oracle stays cheap.
struct Config {
    sizes: Vec<usize>,
    stats: Vec<MultiDimStatistic>,
    assignment: VarAssignment,
}

/// A random rectangle statistic over ≥ 2 distinct attributes of `sizes`.
fn random_stat(g: &mut StdRng, sizes: &[usize]) -> MultiDimStatistic {
    let m = sizes.len();
    let arity = g.gen_range(2..m + 1);
    // Random subset of `arity` distinct attributes (sorted).
    let mut attrs: Vec<usize> = (0..m).collect();
    for i in 0..arity {
        let j = g.gen_range(i..m);
        attrs.swap(i, j);
    }
    attrs.truncate(arity);
    attrs.sort_unstable();
    let clauses = attrs
        .iter()
        .map(|&a| {
            let n = sizes[a] as u32;
            let lo = g.gen_range(0..n);
            let hi = g.gen_range(lo..n);
            RangeClause {
                attr: AttrId(a),
                lo,
                hi,
            }
        })
        .collect();
    MultiDimStatistic::new(clauses).expect("valid statistic")
}

fn random_config(g: &mut StdRng) -> Config {
    let m = g.gen_range(2..5);
    let sizes: Vec<usize> = (0..m).map(|_| g.gen_range(1..6)).collect();
    let k = g.gen_range(0..5);
    let stats: Vec<MultiDimStatistic> = (0..k).map(|_| random_stat(g, &sizes)).collect();
    let one_dim = sizes
        .iter()
        .map(|&n| (0..n).map(|_| g.gen_range(0.0..2.0)).collect())
        .collect();
    let multi = (0..stats.len()).map(|_| g.gen_range(0.0..3.0)).collect();
    Config {
        sizes,
        stats,
        assignment: VarAssignment { one_dim, multi },
    }
}

/// A random conjunctive range predicate over the schema.
fn random_predicate(g: &mut StdRng, sizes: &[usize]) -> Predicate {
    let mut p = Predicate::new();
    for _ in 0..g.gen_range(0..3) {
        let attr = g.gen_range(0..sizes.len());
        let n = sizes[attr] as u32;
        let a = g.gen_range(0..6).min(n - 1);
        let b = g.gen_range(0..6).min(n - 1);
        p = p.between(AttrId(attr), a.min(b), a.max(b));
    }
    p
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Theorem 4.1: compressed P ≡ naive P for arbitrary rectangles.
#[test]
fn compressed_equals_naive() {
    let mut g = StdRng::seed_from_u64(31);
    for _ in 0..128 {
        let config = random_config(&mut g);
        let naive = NaivePolynomial::build(&config.sizes, &config.stats).unwrap();
        let comp = CompressedPolynomial::build(&config.sizes, &config.stats).unwrap();
        assert!(close(
            naive.eval(&config.assignment),
            comp.eval(&config.assignment)
        ));
    }
}

/// The component factorization is also identical to the naive form.
#[test]
fn factorized_equals_naive() {
    let mut g = StdRng::seed_from_u64(32);
    for _ in 0..128 {
        let config = random_config(&mut g);
        let naive = NaivePolynomial::build(&config.sizes, &config.stats).unwrap();
        let fact = FactorizedPolynomial::build(&config.sizes, &config.stats).unwrap();
        assert!(close(
            naive.eval(&config.assignment),
            fact.eval(&config.assignment)
        ));
        // And never has more terms than the flat closure.
        let flat = CompressedPolynomial::build(&config.sizes, &config.stats).unwrap();
        assert!(fact.num_terms() <= flat.num_terms() + config.sizes.len());
    }
}

/// The identity also holds under arbitrary query masks (Sec. 4.2).
#[test]
fn masked_evaluation_agrees() {
    let mut g = StdRng::seed_from_u64(33);
    for _ in 0..128 {
        let config = random_config(&mut g);
        let pred = random_predicate(&mut g, &config.sizes);
        let naive = NaivePolynomial::build(&config.sizes, &config.stats).unwrap();
        let comp = CompressedPolynomial::build(&config.sizes, &config.stats).unwrap();
        let fact = FactorizedPolynomial::build(&config.sizes, &config.stats).unwrap();
        let mask = Mask::from_predicate(&pred, &config.sizes).unwrap();
        let expected = naive.eval_masked(&config.assignment, &mask);
        assert!(close(expected, comp.eval_masked(&config.assignment, &mask)));
        assert!(close(expected, fact.eval_masked(&config.assignment, &mask)));
    }
}

/// Fused per-attribute derivatives match the naive monomial derivative —
/// including under non-identity query masks (the group-by path).
#[test]
fn derivatives_agree() {
    let mut g = StdRng::seed_from_u64(34);
    for case in 0..128 {
        let config = random_config(&mut g);
        let naive = NaivePolynomial::build(&config.sizes, &config.stats).unwrap();
        let comp = CompressedPolynomial::build(&config.sizes, &config.stats).unwrap();
        let mask = if case % 2 == 0 {
            Mask::identity(config.sizes.len())
        } else {
            let pred = random_predicate(&mut g, &config.sizes);
            Mask::from_predicate(&pred, &config.sizes).unwrap()
        };
        for attr in 0..config.sizes.len() {
            let (p, derivs) = comp.eval_with_attr_derivatives(&config.assignment, &mask, attr);
            assert!(close(p, naive.eval_masked(&config.assignment, &mask)));
            for (code, &d) in derivs.iter().enumerate() {
                let expected = naive.derivative(
                    &config.assignment,
                    &mask,
                    Var::OneDim {
                        attr,
                        code: code as u32,
                    },
                );
                assert!(
                    close(d, expected),
                    "attr {attr} code {code}: {d} vs {expected}"
                );
            }
        }
        let iprods = comp.interval_products(&config.assignment, &mask);
        for j in 0..config.stats.len() {
            let d = comp.delta_derivative(&iprods, &config.assignment.multi, j);
            let expected = naive.derivative(&config.assignment, &mask, Var::Multi(j));
            assert!(close(d, expected), "multi {j}: {d} vs {expected}");
        }
    }
}

/// Degree ≤ 1 per variable: P is an affine function of every variable.
#[test]
fn multilinearity() {
    let mut g = StdRng::seed_from_u64(35);
    for _ in 0..128 {
        let config = random_config(&mut g);
        let comp = CompressedPolynomial::build(&config.sizes, &config.stats).unwrap();
        let idx = g.gen_range(0..64);
        let v0 = g.gen_range(0.0..2.0);
        let v1 = g.gen_range(0.0..2.0);
        // Pick a variable (1D or multi) deterministically from idx.
        let total_1d: usize = config.sizes.iter().sum();
        let k = total_1d + config.stats.len();
        let flat = idx % k;
        let set = |a: &mut VarAssignment, value: f64| {
            if flat < total_1d {
                let mut rest = flat;
                for (i, &n) in config.sizes.iter().enumerate() {
                    if rest < n {
                        a.one_dim[i][rest] = value;
                        return;
                    }
                    rest -= n;
                }
            } else {
                a.multi[flat - total_1d] = value;
            }
        };
        let mut a0 = config.assignment.clone();
        let mut a1 = config.assignment.clone();
        let mut ah = config.assignment.clone();
        set(&mut a0, v0);
        set(&mut a1, v1);
        set(&mut ah, (v0 + v1) / 2.0);
        let (p0, p1, ph) = (comp.eval(&a0), comp.eval(&a1), comp.eval(&ah));
        assert!(close(ph, (p0 + p1) / 2.0), "{ph} vs {}", (p0 + p1) / 2.0);
    }
}

/// Term count never exceeds the number of compatible subsets bound and the
/// polynomial's size stats are internally consistent.
#[test]
fn size_stats_consistent() {
    let mut g = StdRng::seed_from_u64(36);
    for _ in 0..128 {
        let config = random_config(&mut g);
        let comp = CompressedPolynomial::build(&config.sizes, &config.stats).unwrap();
        let s = comp.size_stats();
        assert_eq!(s.num_terms, comp.num_terms());
        // Every singleton statistic is a compatible subset, plus the base.
        assert!(s.num_terms > config.stats.len());
        let space: u128 = config.sizes.iter().map(|&n| n as u128).product();
        assert_eq!(s.uncompressed_monomials, space);
    }
}

/// The allocation-free scratch kernels are bitwise identical to the
/// allocating wrappers — across reuse of one scratch over many random
/// configurations of the *same* polynomial shape.
#[test]
fn scratch_kernels_match_wrappers() {
    let mut g = StdRng::seed_from_u64(37);
    for _ in 0..96 {
        let config = random_config(&mut g);
        let comp = CompressedPolynomial::build(&config.sizes, &config.stats).unwrap();
        let fact = FactorizedPolynomial::build(&config.sizes, &config.stats).unwrap();
        let mut cs = comp.make_scratch();
        let mut fs = fact.make_scratch();
        for round in 0..3 {
            // New mask and multi values every round: the scratch caches
            // (prefix slab, delta products) must refresh correctly.
            let pred = random_predicate(&mut g, &config.sizes);
            let mask = Mask::from_predicate(&pred, &config.sizes).unwrap();
            let mut a = config.assignment.clone();
            for x in &mut a.multi {
                *x += round as f64 * 0.37;
            }
            assert_eq!(
                comp.eval_masked(&a, &mask).to_bits(),
                comp.eval_masked_with(&a, &mask, &mut cs).to_bits()
            );
            assert_eq!(
                fact.eval_masked(&a, &mask).to_bits(),
                fact.eval_masked_with(&a, &mask, &mut fs).to_bits()
            );
            for attr in 0..config.sizes.len() {
                let (p1, d1) = comp.eval_with_attr_derivatives(&a, &mask, attr);
                let (p2, d2) = comp.eval_with_attr_derivatives_with(&a, &mask, attr, &mut cs);
                assert_eq!(p1.to_bits(), p2.to_bits());
                assert_eq!(d1.as_slice(), d2);
                let (p3, d3) = fact.eval_with_attr_derivatives(&a, &mask, attr);
                let (p4, d4) = fact.eval_with_attr_derivatives_with(&a, &mask, attr, &mut fs);
                assert_eq!(p3.to_bits(), p4.to_bits());
                assert_eq!(d3.as_slice(), d4);
            }
        }
    }
}

/// Random small tables: solver constraint satisfaction and query identities.
mod end_to_end {
    use super::*;

    fn random_table(g: &mut StdRng) -> Table {
        let nx = g.gen_range(2..4);
        let ny = g.gen_range(2..4);
        let rows = g.gen_range(5..40);
        let schema = Schema::new(vec![
            Attribute::categorical("x", nx).unwrap(),
            Attribute::categorical("y", ny).unwrap(),
        ]);
        let mut t = Table::new(schema);
        for _ in 0..rows {
            let x = g.gen_range(0..nx as u32);
            let y = g.gen_range(0..ny as u32);
            t.push_row(&[x, y]).unwrap();
        }
        t
    }

    /// 1D-only summaries answer single-attribute queries exactly and
    /// partition n across any attribute.
    #[test]
    fn one_dim_summary_exact_on_marginals() {
        let mut g = StdRng::seed_from_u64(41);
        for _ in 0..48 {
            let table = random_table(&mut g);
            let summary = MaxEntSummary::build(&table, vec![], &SolverConfig::default()).unwrap();
            let n = table.num_rows() as f64;
            for attr in [AttrId(0), AttrId(1)] {
                let sizes = table.schema().domain_size(attr).unwrap();
                let mut total = 0.0;
                for v in 0..sizes as u32 {
                    let pred = Predicate::new().eq(attr, v);
                    let truth = entropydb_storage::exec::count(&table, &pred).unwrap() as f64;
                    let est = summary.estimate_count(&pred).unwrap().expectation;
                    assert!(
                        (est - truth).abs() < 1e-6 * n.max(1.0),
                        "attr {attr:?} v {v}: {est} vs {truth}"
                    );
                    total += est;
                }
                assert!((total - n).abs() < 1e-6 * n.max(1.0));
            }
        }
    }

    /// The masked-evaluation fast path (Sec. 4.2) equals the naive
    /// enumeration oracle (Eq. 10) on every point query.
    #[test]
    fn fast_query_path_matches_oracle() {
        let mut g = StdRng::seed_from_u64(42);
        for _ in 0..48 {
            let table = random_table(&mut g);
            // One real 2D statistic: the heaviest cell.
            let hist =
                entropydb_storage::Histogram2D::compute(&table, AttrId(0), AttrId(1)).unwrap();
            let stats = entropydb_core::selection::heuristics::large_cells(&hist, 1);
            let summary =
                MaxEntSummary::build(&table, stats.clone(), &SolverConfig::default()).unwrap();
            let naive =
                NaivePolynomial::build(summary.statistics().domain_sizes(), &stats).unwrap();
            let (nx, ny) = hist.dims();
            for x in 0..nx as u32 {
                for y in 0..ny as u32 {
                    let pred = Predicate::new().eq(AttrId(0), x).eq(AttrId(1), y);
                    let fast = summary.estimate_count(&pred).unwrap().expectation;
                    let oracle = naive.expected_count(summary.assignment(), &pred, summary.n());
                    assert!(
                        (fast - oracle).abs() < 1e-8 * oracle.max(1.0),
                        "({x},{y}): {fast} vs {oracle}"
                    );
                }
            }
        }
    }

    /// Asking twice returns identical estimates for every batched query
    /// path (group-by, two-attribute group-by, count batch, sampling).
    #[test]
    fn repeated_batched_paths_agree() {
        let mut g = StdRng::seed_from_u64(44);
        for _ in 0..24 {
            let table = random_table(&mut g);
            let hist =
                entropydb_storage::Histogram2D::compute(&table, AttrId(0), AttrId(1)).unwrap();
            let stats = entropydb_core::selection::heuristics::composite_rectangles(&hist, 2);
            let summary = MaxEntSummary::build(&table, stats, &SolverConfig::default()).unwrap();
            let pred = random_predicate(&mut g, summary.statistics().domain_sizes());
            let batch: Vec<Predicate> = (0..6)
                .map(|_| random_predicate(&mut g, summary.statistics().domain_sizes()))
                .collect();

            let first_groups = summary.estimate_group_by(&pred, AttrId(0)).unwrap();
            let first_g2 = summary
                .estimate_group_by2(&pred, AttrId(0), AttrId(1))
                .unwrap();
            let first_batch = summary.estimate_count_batch(&batch).unwrap();
            let first_rows = summary.sample_rows(40, 7).unwrap();
            let again_groups = summary.estimate_group_by(&pred, AttrId(0)).unwrap();
            let again_g2 = summary
                .estimate_group_by2(&pred, AttrId(0), AttrId(1))
                .unwrap();
            let again_batch = summary.estimate_count_batch(&batch).unwrap();
            let again_rows = summary.sample_rows(40, 7).unwrap();

            let bits = |es: &[entropydb_core::query::Estimate]| -> Vec<u64> {
                es.iter().map(|e| e.expectation.to_bits()).collect()
            };
            assert_eq!(bits(&first_groups), bits(&again_groups));
            assert_eq!(first_g2.len(), again_g2.len());
            for (s, p) in first_g2.iter().zip(&again_g2) {
                assert_eq!(bits(s), bits(p));
            }
            assert_eq!(bits(&first_batch), bits(&again_batch));
            for i in 0..40 {
                assert_eq!(first_rows.row(i), again_rows.row(i));
            }
        }
    }

    /// Serialization round-trips bit-exactly.
    #[test]
    fn serialize_round_trip() {
        let mut g = StdRng::seed_from_u64(43);
        for _ in 0..48 {
            let table = random_table(&mut g);
            let hist =
                entropydb_storage::Histogram2D::compute(&table, AttrId(0), AttrId(1)).unwrap();
            let stats = entropydb_core::selection::heuristics::composite_rectangles(&hist, 3);
            let summary = MaxEntSummary::build(&table, stats, &SolverConfig::default()).unwrap();
            let loaded = entropydb_core::serialize::from_str(
                &entropydb_core::serialize::to_string(&summary),
            )
            .unwrap();
            assert_eq!(loaded.assignment(), summary.assignment());
            assert_eq!(loaded.n(), summary.n());
        }
    }
}
