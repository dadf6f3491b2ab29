//! Polynomial-evaluation benchmarks (paper Sec. 4.1 compression claim, plus
//! this repo's arena-kernel refactor).
//!
//! Three groups:
//!
//! 1. naive one-monomial-per-tuple (Eq. 5) vs the compressed form
//!    (Theorem 4.1) — the paper's compression claim, the `speedup` entries
//!    of `BENCH_polynomial.json`;
//! 2. the batched derivative pass vs per-variable derivatives — the
//!    solver's key optimization;
//! 3. the 50-cell group-by through the factorized kernel.
//!
//! Groups 2 and 3 are gated as absolute per-call nanoseconds
//! (`metric_ceilings` in `bench_schema.json`).

use criterion::{criterion_group, criterion_main, Criterion};
use entropydb_bench::report::mean_call_ns;
use entropydb_core::assignment::{Mask, VarAssignment};
use entropydb_core::naive::NaivePolynomial;
use entropydb_core::polynomial::CompressedPolynomial;
use entropydb_core::prelude::*;
use entropydb_core::statistics::RangeClause;
use entropydb_storage::{AttrId, Predicate};
use std::hint::black_box;

/// A model small enough to materialize naively (1.44M monomials) but with
/// realistic statistic structure: two connected pairs, one cross pair, and
/// three statistic-free attributes (the paper's flights schema has six
/// attributes; most carry only 1D statistics).
fn setup() -> (Vec<usize>, Vec<MultiDimStatistic>, VarAssignment) {
    let sizes = vec![30usize, 40, 20, 5, 4, 3];
    let mut stats = Vec::new();
    // Disjoint rectangles on (0, 1) — a COMPOSITE-style partition strip.
    for i in 0..10u32 {
        stats.push(
            MultiDimStatistic::new(vec![
                RangeClause {
                    attr: AttrId(0),
                    lo: 3 * i,
                    hi: 3 * i + 2,
                },
                RangeClause {
                    attr: AttrId(1),
                    lo: 0,
                    hi: 39,
                },
            ])
            .expect("valid"),
        );
    }
    // Overlapping rectangles on (1, 2).
    for i in 0..8u32 {
        stats.push(
            MultiDimStatistic::new(vec![
                RangeClause {
                    attr: AttrId(1),
                    lo: 5 * i,
                    hi: 5 * i + 4,
                },
                RangeClause {
                    attr: AttrId(2),
                    lo: 0,
                    hi: 9,
                },
            ])
            .expect("valid"),
        );
    }
    let mut a = VarAssignment::ones(&sizes, stats.len());
    for (i, vs) in a.one_dim.iter_mut().enumerate() {
        for (v, x) in vs.iter_mut().enumerate() {
            *x = 0.01 + ((i + 1) * (v + 3) % 17) as f64 / 17.0;
        }
    }
    for (j, d) in a.multi.iter_mut().enumerate() {
        *d = 0.5 + (j % 5) as f64 * 0.3;
    }
    (sizes, stats, a)
}

/// A multi-component model with a 50-value group-by attribute and two
/// statistic-free attributes: the shape of the 50-cell `estimate_group_by`
/// acceptance benchmark.
fn group_by_setup() -> (Vec<usize>, Vec<MultiDimStatistic>) {
    let sizes = vec![50usize, 40, 30, 20, 8, 6];
    let mut stats = Vec::new();
    for i in 0..16u32 {
        stats.push(
            MultiDimStatistic::new(vec![
                RangeClause {
                    attr: AttrId(0),
                    lo: 3 * i,
                    hi: 3 * i + 4,
                },
                RangeClause {
                    attr: AttrId(1),
                    lo: 2 * i,
                    hi: 2 * i + 5,
                },
            ])
            .expect("valid"),
        );
    }
    for i in 0..12u32 {
        stats.push(
            MultiDimStatistic::new(vec![
                RangeClause {
                    attr: AttrId(2),
                    lo: 2 * i,
                    hi: 2 * i + 3,
                },
                RangeClause {
                    attr: AttrId(3),
                    lo: i,
                    hi: i + 6,
                },
            ])
            .expect("valid"),
        );
    }
    (sizes, stats)
}

fn bench_eval(c: &mut Criterion) {
    let (sizes, stats, a) = setup();
    let naive = NaivePolynomial::build(&sizes, &stats).expect("naive builds");
    let flat = CompressedPolynomial::build(&sizes, &stats).expect("flat builds");
    let fact = FactorizedPolynomial::build(&sizes, &stats).expect("factorized builds");
    let mask = Mask::identity(sizes.len());
    let mut scratch = flat.make_scratch();
    let mut fscratch = fact.make_scratch();

    let mut g = c.benchmark_group("polynomial_eval");
    g.bench_function(format!("naive({}_monomials)", naive.num_monomials()), |b| {
        b.iter(|| naive.eval(black_box(&a)))
    });
    g.bench_function(format!("arena({}_terms)", flat.num_terms()), |b| {
        b.iter(|| flat.eval_masked_with(black_box(&a), &mask, &mut scratch))
    });
    g.bench_function(
        format!("arena_factorized({}_terms)", fact.num_terms()),
        |b| b.iter(|| fact.eval_masked_with(black_box(&a), &mask, &mut fscratch)),
    );
    g.finish();
}

/// The batched-derivative sweep: one fused pass per attribute on the arena
/// kernel with a reused scratch.
fn bench_derivative_sweep(c: &mut Criterion) {
    let (sizes, stats, a) = setup();
    let flat = CompressedPolynomial::build(&sizes, &stats).expect("flat builds");
    let mask = Mask::identity(sizes.len());
    let mut scratch = flat.make_scratch();

    // The arena API separates the prefix-slab fill from the derivative
    // pass, so a sweep over every attribute under one assignment/mask fills
    // once.
    let mut batched_pass = || {
        let a = black_box(&a);
        flat.fill_scratch(&mut scratch, a, &mask);
        let mut total = 0.0;
        for attr in 0..sizes.len() {
            total += flat
                .derivs_prefilled(&a.multi, &a.one_dim[attr], None, attr, &mut scratch)
                .0;
        }
        total
    };
    let batched_ns = mean_call_ns(20_000, || {
        black_box(batched_pass());
    });

    let mut g = c.benchmark_group("derivative_sweep");
    g.bench_function("arena_batched_pass", |b| b.iter(&mut batched_pass));
    // The unbatched shape, kept measured so the cost of NOT batching stays
    // visible in BENCH_polynomial.json (≈ 12× the batched pass at last
    // measurement): one full attribute pass per code, reading out a single
    // derivative each time. This is exactly what the old per-variable
    // `derivative` shim did before it was retired; all callers now route
    // through the batched pass (`derivs_prefilled` /
    // `eval_with_attr_derivatives`).
    g.bench_function("per_variable", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for code in 0..sizes[1] as u32 {
                let (_, d) = flat.eval_with_attr_derivatives(black_box(&a), &mask, 1);
                total += d[code as usize];
            }
            total
        })
    });
    g.finish();
    c.record_metric("derivative_sweep", "arena_batched_pass_ns", batched_ns);
}

/// 50-cell `estimate_group_by`: the full summary query path (masked fused
/// pass over all components).
fn bench_group_by(c: &mut Criterion) {
    let (sizes, stats) = group_by_setup();
    // A synthetic solved state is enough: the kernels only read it.
    let mut a = VarAssignment::ones(&sizes, stats.len());
    for (i, vs) in a.one_dim.iter_mut().enumerate() {
        for (v, x) in vs.iter_mut().enumerate() {
            *x = 0.02 + ((i + 3) * (v + 1) % 23) as f64 / 23.0;
        }
    }
    for (j, d) in a.multi.iter_mut().enumerate() {
        *d = 0.6 + (j % 7) as f64 * 0.2;
    }
    let fact = FactorizedPolynomial::build(&sizes, &stats).expect("factorized builds");
    let mut fscratch = fact.make_scratch();
    let pred = Predicate::new()
        .between(AttrId(1), 5, 30)
        .between(AttrId(3), 2, 15);
    let mask = Mask::from_predicate(&pred, &sizes).expect("mask");
    let p_full = fact.eval(&a);

    let mut group_by = || {
        let (_, derivs) =
            fact.eval_with_attr_derivatives_with(black_box(&a), &mask, 0, &mut fscratch);
        derivs
            .iter()
            .enumerate()
            .map(|(v, &d)| (a.one_dim[0][v] * d / p_full).clamp(0.0, 1.0))
            .sum::<f64>()
    };
    let group_by_ns = mean_call_ns(100_000, || {
        black_box(group_by());
    });

    let mut g = c.benchmark_group("group_by_50_cells");
    g.bench_function("arena_scratch", |b| b.iter(&mut group_by));
    g.finish();
    c.record_metric("group_by_50_cells", "arena_scratch_ns", group_by_ns);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_eval, bench_derivative_sweep, bench_group_by
}
criterion_main!(benches);
