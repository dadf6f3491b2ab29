//! Property suite for incremental slab maintenance.
//!
//! The contract: any sequence of `refill_attr` / `refresh_dirty_with`
//! calls, interleaved with arbitrary alpha updates, leaves the scratch
//! **bitwise identical** to one filled from scratch with
//! `fill_scratch_with` at the same variable values — and therefore every
//! kernel output (evaluation, fused derivatives, interval products) is
//! bit-for-bit the same. On top of the kernel-level property, the solver's
//! incremental path (`SolverConfig::incremental_refill`) must reproduce the
//! full-refill baseline exactly: same assignments, same sweep counts, same
//! dual trajectory.
//!
//! crates.io is unreachable, so the "randomness" is the in-tree SplitMix64-
//! backed StdRng shim — deterministic, shrink-free property testing.

use entropydb_core::assignment::VarAssignment;
use entropydb_core::polynomial::CompressedPolynomial;
use entropydb_core::prelude::*;
use entropydb_core::solver::solve;
use entropydb_core::statistics::RangeClause;
use entropydb_storage::{AttrId, Attribute, Schema, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random model: domain sizes, rectangle statistics, assignment.
fn random_model(g: &mut StdRng) -> (Vec<usize>, Vec<MultiDimStatistic>, VarAssignment) {
    let m = g.gen_range(2..6);
    let sizes: Vec<usize> = (0..m).map(|_| g.gen_range(2..8)).collect();
    let k = g.gen_range(0..5);
    let stats: Vec<MultiDimStatistic> = (0..k)
        .map(|_| {
            let a1 = g.gen_range(0..m - 1);
            let a2 = g.gen_range(a1 + 1..m);
            let clause = |attr: usize, n: u32, g: &mut StdRng| {
                let lo = g.gen_range(0..n);
                let hi = g.gen_range(lo..n);
                RangeClause {
                    attr: AttrId(attr),
                    lo,
                    hi,
                }
            };
            let c1 = clause(a1, sizes[a1] as u32, g);
            let c2 = clause(a2, sizes[a2] as u32, g);
            MultiDimStatistic::new(vec![c1, c2]).expect("valid statistic")
        })
        .collect();
    let one_dim = sizes
        .iter()
        .map(|&n| (0..n).map(|_| g.gen_range(0.0..2.0)).collect())
        .collect();
    let multi = (0..stats.len()).map(|_| g.gen_range(0.0..3.0)).collect();
    (sizes, stats, VarAssignment { one_dim, multi })
}

/// Arbitrary interleavings of alpha updates + incremental refreshes stay
/// bitwise identical to a fresh full fill, across every kernel output.
#[test]
fn refill_sequences_bitwise_identical_to_full_fill() {
    let mut g = StdRng::seed_from_u64(0x51AB);
    for _ in 0..64 {
        let (sizes, stats, mut a) = random_model(&mut g);
        let poly = CompressedPolynomial::build(&sizes, &stats).unwrap();
        let mut inc = poly.make_scratch();
        let mut full = poly.make_scratch();
        poly.fill_scratch_with(&mut inc, |i| (a.one_dim[i].as_slice(), None));

        for step in 0..24 {
            // Mutate one random attribute's variables.
            let attr = g.gen_range(0..sizes.len());
            for x in &mut a.one_dim[attr] {
                *x = g.gen_range(0.0..2.0);
            }
            // Incremental maintenance, alternating between the direct
            // refill and the dirty-flag path.
            if step % 2 == 0 {
                poly.refill_attr(&mut inc, attr, &a.one_dim[attr], None);
            } else {
                inc.mark_attr_dirty(attr);
                assert!(inc.has_dirty_rows());
                poly.refresh_dirty_with(&mut inc, |i| (a.one_dim[i].as_slice(), None));
            }
            assert!(!inc.has_dirty_rows());
            // Reference: a full fill at the same values.
            poly.fill_scratch_with(&mut full, |i| (a.one_dim[i].as_slice(), None));

            // Every kernel output must agree bit for bit.
            let p_inc = poly.eval_prefilled(&a.multi, &mut inc);
            let p_full = poly.eval_prefilled(&a.multi, &mut full);
            assert_eq!(p_inc.to_bits(), p_full.to_bits(), "eval diverged");
            for d_attr in 0..sizes.len() {
                let (pi, di) =
                    poly.derivs_prefilled(&a.multi, &a.one_dim[d_attr], None, d_attr, &mut inc);
                let di = di.to_vec();
                let (pf, df) =
                    poly.derivs_prefilled(&a.multi, &a.one_dim[d_attr], None, d_attr, &mut full);
                assert_eq!(pi.to_bits(), pf.to_bits(), "deriv P diverged");
                assert_eq!(di.as_slice(), df, "derivatives diverged");
            }
            poly.interval_products_prefilled(&mut inc);
            let ip_inc = inc.iprods().to_vec();
            poly.interval_products_prefilled(&mut full);
            assert_eq!(
                ip_inc.as_slice(),
                full.iprods(),
                "interval products diverged"
            );
        }
    }
}

/// Two cells that close the pairs `(x, y)`, `(y, z)`, `(x, z)` into a
/// cycle: the refill paths shape the closure sweep only, and a lone pair
/// would be fitted by the tree sweep.
fn closing_the_cycle(mut specs: Vec<MultiDimStatistic>) -> Vec<MultiDimStatistic> {
    specs.push(MultiDimStatistic::cell2d(AttrId(1), 0, AttrId(2), 0).unwrap());
    specs.push(MultiDimStatistic::cell2d(AttrId(0), 0, AttrId(2), 1).unwrap());
    specs
}

fn random_table(g: &mut StdRng) -> Table {
    let nx = g.gen_range(2..4);
    let ny = g.gen_range(2..4);
    let nz = g.gen_range(2..3);
    let rows = g.gen_range(8..50);
    let schema = Schema::new(vec![
        Attribute::categorical("x", nx).unwrap(),
        Attribute::categorical("y", ny).unwrap(),
        Attribute::categorical("z", nz).unwrap(),
    ]);
    let mut t = Table::new(schema);
    for _ in 0..rows {
        let x = g.gen_range(0..nx as u32);
        let y = g.gen_range(0..ny as u32);
        let z = g.gen_range(0..nz as u32);
        t.push_row(&[x, y, z]).unwrap();
    }
    t
}

/// The incremental solver path is bit-identical to the full-refill
/// baseline — assignments, sweep counts, residuals, dual trajectories.
#[test]
fn solver_incremental_matches_full_refill_bitwise() {
    let mut g = StdRng::seed_from_u64(0x51AC);
    for _ in 0..16 {
        let table = random_table(&mut g);
        let hist = entropydb_storage::Histogram2D::compute(&table, AttrId(0), AttrId(1)).unwrap();
        let specs = entropydb_core::selection::heuristics::composite_rectangles(&hist, 2);
        let stats = Statistics::observe(&table, closing_the_cycle(specs)).unwrap();
        let poly = FactorizedPolynomial::build(stats.domain_sizes(), stats.multi()).unwrap();
        assert_eq!(poly.size_stats().tree_components, 0);

        let full_config = SolverConfig {
            max_sweeps: 120,
            track_dual: true,
            incremental_refill: false,
            ..SolverConfig::default()
        };
        let (asn_full, rep_full) = solve(&poly, &stats, &full_config).unwrap();

        let inc_config = SolverConfig {
            incremental_refill: true,
            ..full_config.clone()
        };
        let (asn_inc, rep_inc) = solve(&poly, &stats, &inc_config).unwrap();
        assert_eq!(asn_inc, asn_full, "assignment diverged");
        assert_eq!(rep_inc.sweeps, rep_full.sweeps, "sweeps");
        assert_eq!(
            rep_inc.max_residual.to_bits(),
            rep_full.max_residual.to_bits(),
            "residual"
        );
        assert_eq!(
            rep_inc.skipped_updates, rep_full.skipped_updates,
            "skipped updates"
        );
        let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&rep_inc.dual_trajectory),
            bits(&rep_full.dual_trajectory),
            "dual trajectory"
        );
    }
}

/// End to end through the public API: a summary built with the default
/// (incremental) config answers queries identically to one built with the
/// full-refill baseline.
#[test]
fn summaries_from_both_refill_paths_answer_identically() {
    let mut g = StdRng::seed_from_u64(0x51AD);
    for _ in 0..8 {
        let table = random_table(&mut g);
        let hist = entropydb_storage::Histogram2D::compute(&table, AttrId(0), AttrId(1)).unwrap();
        let specs = closing_the_cycle(entropydb_core::selection::heuristics::large_cells(&hist, 2));
        let inc = MaxEntSummary::build(&table, specs.clone(), &SolverConfig::default()).unwrap();
        let full_config = SolverConfig {
            incremental_refill: false,
            ..SolverConfig::default()
        };
        let full = MaxEntSummary::build(&table, specs, &full_config).unwrap();
        for x in 0..table.schema().domain_size(AttrId(0)).unwrap() as u32 {
            let pred = entropydb_storage::Predicate::new().eq(AttrId(0), x);
            let e_inc = inc.estimate_count(&pred).unwrap().expectation;
            let e_full = full.estimate_count(&pred).unwrap().expectation;
            assert_eq!(e_inc.to_bits(), e_full.to_bits(), "x={x}");
        }
    }
}
