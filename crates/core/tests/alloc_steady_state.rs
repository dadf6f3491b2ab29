//! Steady-state allocation audit for the arena evaluation kernels.
//!
//! The acceptance bar of the arena refactor: once an [`EvalScratch`] /
//! [`FactorizedScratch`] has been warmed up, `eval_masked` and
//! `eval_with_attr_derivatives` (and the prefilled kernels under them)
//! perform **zero heap allocation**. A counting global allocator makes that
//! a hard test rather than a benchmark observation. Every pass runs on the
//! calling thread, so the guarantee holds at every model size and thread
//! budget.

use entropydb_core::assignment::{Mask, VarAssignment};
use entropydb_core::polynomial::CompressedPolynomial;
use entropydb_core::prelude::*;
use entropydb_core::statistics::RangeClause;
use entropydb_storage::{AttrId, Predicate};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator wrapper counting every allocation and reallocation of
/// the calling thread.
struct CountingAllocator;

thread_local! {
    // Per thread: the harness runs these tests on parallel threads, and a
    // shared counter would charge one test with another's allocations.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// An assignment over `sizes` with distinct, non-trivial 1-D values.
fn assignment(sizes: &[usize], multi: Vec<f64>) -> VarAssignment {
    let mut a = VarAssignment::ones(sizes, multi.len());
    for (i, vs) in a.one_dim.iter_mut().enumerate() {
        for (v, x) in vs.iter_mut().enumerate() {
            *x = 0.05 + ((i + 2) * (v + 1) % 11) as f64 / 11.0;
        }
    }
    a.multi = multi;
    a
}

/// Two overlapping rectangles on each of two attribute pairs: two closure
/// components and no tree.
fn model() -> (Vec<usize>, Vec<MultiDimStatistic>, VarAssignment, Mask) {
    let sizes = vec![12usize, 9, 7, 5];
    let mk = |a1: usize, r1: (u32, u32), a2: usize, r2: (u32, u32)| {
        MultiDimStatistic::new(vec![
            RangeClause {
                attr: AttrId(a1),
                lo: r1.0,
                hi: r1.1,
            },
            RangeClause {
                attr: AttrId(a2),
                lo: r2.0,
                hi: r2.1,
            },
        ])
        .unwrap()
    };
    let stats = vec![
        mk(0, (0, 4), 1, (2, 6)),
        mk(0, (3, 8), 1, (0, 4)),
        mk(2, (0, 3), 3, (1, 3)),
        mk(2, (2, 5), 3, (0, 2)),
    ];
    let a = assignment(&sizes, vec![0.7, 1.4, 2.1, 0.4]);
    let pred = Predicate::new()
        .between(AttrId(1), 1, 6)
        .between(AttrId(3), 0, 3);
    let mask = Mask::from_predicate(&pred, &sizes).unwrap();
    (sizes, stats, a, mask)
}

/// `eval_masked` and the fused derivative pass allocate nothing against a
/// warmed scratch, for both the flat and the factorized kernel.
#[test]
fn warmed_kernels_allocate_nothing() {
    let (sizes, stats, a, mask) = model();
    let flat = CompressedPolynomial::build(&sizes, &stats).unwrap();
    let fact = FactorizedPolynomial::build(&sizes, &stats).unwrap();
    let mut scratch = flat.make_scratch();
    let mut fscratch = fact.make_scratch();
    let identity = Mask::identity(sizes.len());

    // Warm-up: every kernel once, under both masks (fills the delta-product
    // cache and touches every buffer).
    for m in [&identity, &mask] {
        flat.eval_masked_with(&a, m, &mut scratch);
        fact.eval_masked_with(&a, m, &mut fscratch);
        for attr in 0..sizes.len() {
            flat.eval_with_attr_derivatives_with(&a, m, attr, &mut scratch);
            fact.eval_with_attr_derivatives_with(&a, m, attr, &mut fscratch);
        }
        flat.fill_scratch(&mut scratch, &a, m);
        flat.interval_products_prefilled(&mut scratch);
    }

    let mut sink = 0.0;
    let allocs = allocations_during(|| {
        for m in [&identity, &mask] {
            for _ in 0..16 {
                sink += flat.eval_masked_with(&a, m, &mut scratch);
                sink += fact.eval_masked_with(&a, m, &mut fscratch);
                for attr in 0..sizes.len() {
                    sink += flat
                        .eval_with_attr_derivatives_with(&a, m, attr, &mut scratch)
                        .0;
                    sink += fact
                        .eval_with_attr_derivatives_with(&a, m, attr, &mut fscratch)
                        .0;
                }
                flat.fill_scratch(&mut scratch, &a, m);
                flat.interval_products_prefilled(&mut scratch);
                sink += flat.eval_from_interval_products(scratch.iprods(), &a.multi);
                sink += flat.delta_derivative(scratch.iprods(), &a.multi, 1);
            }
        }
    });
    assert!(sink.is_finite());
    assert_eq!(
        allocs, 0,
        "steady-state evaluation must not allocate, saw {allocs} allocations"
    );
}

/// A warmed `FactorizedPolynomial::eval_masked_many_with` — the batch
/// probes' one call — allocates nothing on a closure-only model: each
/// closure component walks its terms once per mask on the one scratch.
/// Tree lanes beside a closure are
/// `warmed_tree_kernel_allocates_nothing`'s.
#[test]
fn warmed_batch_allocates_nothing() {
    let (sizes, stats, a, mask) = model();
    let fact = FactorizedPolynomial::build(&sizes, &stats).unwrap();
    let kernels = fact.size_stats();
    assert_eq!(
        (kernels.tree_components, kernels.closure_components),
        (0, 2)
    );
    let mut fscratch = fact.make_scratch();
    let identity = Mask::identity(sizes.len());
    let masks: Vec<Mask> = (0..19).map(|i| [&identity, &mask][i % 2].clone()).collect();
    let mut out = vec![0.0; masks.len()];
    fact.eval_masked_many_with(&a, &masks, &mut fscratch, &mut out);

    let mut sink = 0.0;
    let allocs = allocations_during(|| {
        for _ in 0..16 {
            fact.eval_masked_many_with(&a, &masks, &mut fscratch, &mut out);
            sink += out.iter().sum::<f64>();
        }
    });
    assert!(sink.is_finite());
    assert_eq!(
        allocs, 0,
        "steady-state batch evaluation must not allocate, saw {allocs} allocations"
    );
}

/// The guarantee does not stop at a model size: a 32 768-term closure (15
/// nested same-pair rectangles, every subset of them compatible) allocates
/// nothing once warmed.
#[test]
fn a_large_closure_allocates_nothing() {
    let sizes = [4usize, 16];
    let stats: Vec<MultiDimStatistic> = (0..15)
        .map(|i| MultiDimStatistic::rect2d(AttrId(0), (0, 2), AttrId(1), (0, i)).unwrap())
        .collect();
    let fact = FactorizedPolynomial::build(&sizes, &stats).unwrap();
    let kernels = fact.size_stats();
    assert_eq!(
        (kernels.closure_components, kernels.num_terms),
        (1, 1 << 15)
    );
    let mut a = VarAssignment::ones(&sizes, stats.len());
    a.multi = (0..stats.len()).map(|j| 0.5 + j as f64 / 10.0).collect();
    let pred = Predicate::new().between(AttrId(1), 2, 11);
    let mask = Mask::from_predicate(&pred, &sizes).unwrap();
    let mut fscratch = fact.make_scratch();
    fact.eval_masked_with(&a, &mask, &mut fscratch);
    fact.eval_with_attr_derivatives_with(&a, &mask, 1, &mut fscratch);

    let mut sink = 0.0;
    let allocs = allocations_during(|| {
        for _ in 0..8 {
            sink += fact.eval_masked_with(&a, &mask, &mut fscratch);
            sink += fact
                .eval_with_attr_derivatives_with(&a, &mask, 1, &mut fscratch)
                .0;
        }
    });
    assert!(sink.is_finite());
    assert_eq!(
        allocs, 0,
        "a warmed large closure must not allocate, saw {allocs} allocations"
    );
}

/// Domains of the star below: attributes 0–3 form the star, attribute 4 is
/// free.
const TREE_STAR_SIZES: [usize; 5] = [12, 9, 7, 5, 4];

/// The flights shape beside a free attribute: a star of three rectangle
/// grids around attribute 0, one tree component, and attribute 4 with no
/// 2-D statistic, a one-term closure component.
fn tree_star_stats() -> Vec<MultiDimStatistic> {
    let mut stats = Vec::new();
    for (leaf, xs, ys) in [
        (
            1,
            vec![(0, 3), (4, 7), (8, 11)],
            vec![(0, 2), (3, 5), (6, 8)],
        ),
        (2, vec![(0, 5), (6, 11)], vec![(0, 1), (2, 4), (5, 6)]),
        (3, vec![(0, 3), (4, 11)], vec![(0, 1), (2, 4)]),
    ] {
        for &x in &xs {
            for &y in &ys {
                stats.push(MultiDimStatistic::rect2d(AttrId(0), x, AttrId(leaf), y).unwrap());
            }
        }
    }
    stats
}

/// The tree message-passing kernel keeps the same contract: the star
/// above, warmed once, then every query entry point — scalar, rooted
/// derivative pass on hub, leaves and the free attribute, a 16-mask batch
/// (two 8-lane walks beside 16 closure walks) and a 5-mask tail (a 4-lane
/// and a 1-lane walk) — allocates nothing.
#[test]
fn warmed_tree_kernel_allocates_nothing() {
    let sizes = TREE_STAR_SIZES.to_vec();
    let stats = tree_star_stats();
    let a = assignment(
        &sizes,
        (0..stats.len()).map(|j| (j % 4) as f64 * 0.7).collect(),
    );
    let pred = Predicate::new()
        .between(AttrId(1), 1, 6)
        .between(AttrId(3), 0, 3)
        .between(AttrId(4), 1, 2);
    let mask = Mask::from_predicate(&pred, &sizes).unwrap();
    let fact = FactorizedPolynomial::build(&sizes, &stats).unwrap();
    let kernels = fact.size_stats();
    assert_eq!(
        (kernels.tree_components, kernels.closure_components),
        (1, 1)
    );
    let mut fscratch = fact.make_scratch();
    let identity = Mask::identity(sizes.len());
    let batch = |len: usize| -> Vec<Mask> {
        (0..len)
            .map(|i| [&identity, &mask][i % 2].clone())
            .collect()
    };
    let (batch16, tail5) = (batch(16), batch(5));
    let (mut out16, mut out5) = (vec![0.0; 16], vec![0.0; 5]);

    // Warm-up: one batch.
    fact.eval_masked_many_with(&a, &batch16, &mut fscratch, &mut out16);

    let mut sink = 0.0;
    let allocs = allocations_during(|| {
        for _ in 0..16 {
            for m in [&identity, &mask] {
                sink += fact.eval_masked_with(&a, m, &mut fscratch);
                for attr in 0..sizes.len() {
                    sink += fact
                        .eval_with_attr_derivatives_with(&a, m, attr, &mut fscratch)
                        .0;
                }
            }
            fact.eval_masked_many_with(&a, &batch16, &mut fscratch, &mut out16);
            fact.eval_masked_many_with(&a, &tail5, &mut fscratch, &mut out5);
            sink += out16.iter().chain(&out5).sum::<f64>();
        }
    });
    assert!(sink.is_finite());
    assert_eq!(
        allocs, 0,
        "steady-state tree evaluation must not allocate, saw {allocs} allocations"
    );
}

/// The two paths that do not walk, on the same star: a fully pinned point
/// (the product of its tree's stabbed potentials and the free attribute's
/// `α·w`) and the cached free parts — a free component read whole, a free
/// subtree's message read instead of sent, a group-by of a free component
/// read from its rooted pass — allocate nothing, alone or mixed into a
/// batch with walking masks.
#[test]
fn warmed_point_and_cached_paths_allocate_nothing() {
    let sizes = TREE_STAR_SIZES.to_vec();
    let stats = tree_star_stats();
    let a = assignment(
        &sizes,
        (0..stats.len()).map(|j| (j % 4) as f64 * 0.7).collect(),
    );
    let fact = FactorizedPolynomial::build(&sizes, &stats).unwrap();
    let free = fact.free_parts(&a);
    let mask = |pred: Predicate| Mask::from_predicate(&pred, &sizes).unwrap();
    let mut point = Predicate::new();
    for (i, &n) in sizes.iter().enumerate() {
        point = point.eq(AttrId(i), (i as u32 * 5) % n as u32);
    }
    let masks = [
        mask(point),
        mask(Predicate::new().between(AttrId(1), 1, 6)),
        Mask::identity(sizes.len()),
        mask(Predicate::new().eq(AttrId(4), 2)),
    ];
    let batch: Vec<Mask> = (0..11).map(|i| masks[i % masks.len()].clone()).collect();
    let mut out = vec![0.0; batch.len()];
    let mut fscratch = fact.make_scratch();
    fact.eval_masked_many_cached(&a, &free, &batch, &mut fscratch, &mut out);

    let mut sink = 0.0;
    let allocs = allocations_during(|| {
        for _ in 0..16 {
            for m in &masks {
                sink += fact.eval_masked_with(&a, m, &mut fscratch);
                let single = std::slice::from_ref(m);
                fact.eval_masked_many_cached(&a, &free, single, &mut fscratch, &mut out[..1]);
                for attr in 0..sizes.len() {
                    sink += fact
                        .eval_with_attr_derivatives_cached(&a, &free, m, attr, &mut fscratch)
                        .0;
                }
            }
            fact.eval_masked_many_cached(&a, &free, &batch, &mut fscratch, &mut out);
            sink += out.iter().sum::<f64>();
        }
    });
    assert!(sink.is_finite());
    assert_eq!(
        allocs, 0,
        "the point and cached paths must not allocate, saw {allocs} allocations"
    );
}

/// The solver's tree sweeps (per-attribute passes, then the δ block on
/// edge cavities) run on buffers made before the first sweep: a whole
/// `solve()` allocates the same number of times whether it runs 1 sweep or
/// 40. With dual tracking the only growth is each component's trajectory
/// vector.
#[test]
fn tree_sweeps_allocate_nothing() {
    use entropydb_core::solver::solve;
    use entropydb_storage::{Attribute, Schema, Table};

    let schema = Schema::new(
        TREE_STAR_SIZES
            .iter()
            .enumerate()
            .map(|(i, &n)| Attribute::categorical(format!("a{i}"), n).unwrap())
            .collect(),
    );
    let mut table = Table::new(schema);
    for i in 0..600u32 {
        table
            .push_row(&[
                i % 12,
                (i / 2 + i % 12) % 9,
                (i * i / 3) % 7,
                i % 5,
                (i / 5 + i) % 4,
            ])
            .unwrap();
    }
    let stats = Statistics::observe(&table, tree_star_stats()).unwrap();
    let poly = FactorizedPolynomial::build(stats.domain_sizes(), stats.multi()).unwrap();
    let kernels = poly.size_stats();
    assert_eq!(
        (kernels.tree_components, kernels.closure_components),
        (1, 1)
    );

    let solve_allocs = |sweeps: usize, track_dual: bool| {
        let config = SolverConfig {
            max_sweeps: sweeps,
            tolerance: 0.0, // never met: every sweep runs
            track_dual,
        };
        allocations_during(|| {
            let (_, report) = solve(&poly, &stats, &config).unwrap();
            assert_eq!(report.sweeps, sweeps);
        })
    };
    assert_eq!(solve_allocs(40, false), solve_allocs(1, false));

    let pushes = |k: usize| {
        allocations_during(|| {
            let mut v = Vec::new();
            (0..k).for_each(|i| v.push(i as f64));
            std::hint::black_box(v);
        })
    };
    assert_eq!(
        solve_allocs(40, true) - solve_allocs(1, true),
        poly.num_components() * (pushes(40) - pushes(1))
    );
}

/// The convenience wrappers still work (and obviously allocate) — the
/// zero-alloc contract is specific to the `_with`/prefilled kernels.
#[test]
fn wrappers_agree_with_scratch_kernels() {
    let (sizes, stats, a, mask) = model();
    let flat = CompressedPolynomial::build(&sizes, &stats).unwrap();
    let fact = FactorizedPolynomial::build(&sizes, &stats).unwrap();
    let mut scratch = flat.make_scratch();
    let mut fscratch = fact.make_scratch();
    assert_eq!(
        flat.eval_masked(&a, &mask).to_bits(),
        flat.eval_masked_with(&a, &mask, &mut scratch).to_bits()
    );
    assert_eq!(
        fact.eval_masked(&a, &mask).to_bits(),
        fact.eval_masked_with(&a, &mask, &mut fscratch).to_bits()
    );
    for attr in 0..sizes.len() {
        let (p1, d1) = flat.eval_with_attr_derivatives(&a, &mask, attr);
        let (p2, d2) = flat.eval_with_attr_derivatives_with(&a, &mask, attr, &mut scratch);
        assert_eq!(p1.to_bits(), p2.to_bits());
        assert_eq!(d1.as_slice(), d2);
    }
}
