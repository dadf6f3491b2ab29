//! Query-latency benchmarks (paper Sec. 5/6.2-6.3 runtime claims).
//!
//! The paper reports query answering "on average below 500 ms and always
//! below 1 s" on a 120-CPU machine after the Sec. 4.2 optimization, and
//! faster than sampling on the large dataset. Here we measure, on the
//! Ent1&2&3 flights summary (a star of pairs, answered by the tree
//! message-passing kernel): point queries, range queries, batched group-by
//! and a 16-query batch, gated as absolute nanosecond ceilings — and two
//! ablations: answering a range query by masked evaluation (Sec. 4.2)
//! versus expanding it into point queries (Eq. 20), and EntropyDB versus a
//! uniform sample scan. The `fused_batch` group keeps the closure kernel's
//! fused multi-mask slab pass guarded: on a *cyclic* three-pair summary
//! (which no tree pass can answer) it measures the fused pass against the
//! sequential per-mask loop at batch 16 — the dashboard-refresh shape —
//! and records its p50/p99 tail alongside the medians.

use criterion::{criterion_group, criterion_main, Criterion};
use entropydb_bench::common;
use entropydb_bench::report::{mean_call_ns, percentile, Histogram};
use entropydb_core::assignment::Mask;
use entropydb_core::prelude::*;
use entropydb_core::selection::heuristics::select_pair_statistics;
use entropydb_sampling::uniform_sample;
use entropydb_storage::Predicate;
use std::hint::black_box;
use std::time::Instant;

/// The flights summary with 300 COMPOSITE statistics on each of three
/// attribute pairs: the paper's Ent1&2&3 star around `distance`, or — with
/// `cyclic` — the triangle origin–distance–dest, whose pair graph has a
/// cycle and therefore stays on the closure kernel.
fn setup(
    cyclic: bool,
) -> (
    entropydb_data::flights::FlightsDataset,
    MaxEntSummary,
    entropydb_sampling::Sample,
) {
    let mut scale = common::Scale::quick();
    scale.flights_rows = 100_000;
    let dataset = common::flights_coarse(&scale);
    let third = if cyclic {
        (dataset.origin, dataset.dest)
    } else {
        (dataset.fl_time, dataset.distance)
    };
    let mut stats = Vec::new();
    for (x, y) in [
        (dataset.origin, dataset.distance),
        (dataset.dest, dataset.distance),
        third,
    ] {
        stats.extend(
            select_pair_statistics(&dataset.table, x, y, 300, Heuristic::Composite)
                .expect("selection"),
        );
    }
    let summary = MaxEntSummary::build(&dataset.table, stats, &SolverConfig::default())
        .expect("summary builds");
    let kernels = summary.size_stats();
    assert_eq!(
        kernels.tree_components,
        usize::from(!cyclic),
        "the star must be answered by the tree kernel, the triangle by the closure"
    );
    let sample = uniform_sample(&dataset.table, 0.01, 3).expect("sample");
    (dataset, summary, sample)
}

/// Sixteen mixed point/range predicates, each touching ≥ 2 attributes so
/// none can shortcut through the marginal cache.
fn batch16_masks(d: &entropydb_data::flights::FlightsDataset, sizes: &[usize]) -> Vec<Mask> {
    (0..16u32)
        .map(|i| match i % 4 {
            0 => Predicate::new()
                .eq(d.origin, i % 5)
                .between(d.distance, 10, 50),
            1 => Predicate::new()
                .between(d.fl_time, 5, 30 + i)
                .between(d.distance, 20, 60),
            2 => Predicate::new()
                .eq(d.dest, i % 7)
                .between(d.fl_time, 10, 40),
            _ => Predicate::new()
                .between(d.distance, i, 40 + i)
                .eq(d.fl_time, 12),
        })
        .map(|p| Mask::from_predicate(&p, sizes).expect("mask"))
        .collect()
}

fn bench_queries(c: &mut Criterion) {
    let (d, summary, sample) = setup(false);
    let point = Predicate::new()
        .eq(d.origin, 0)
        .eq(d.dest, 1)
        .eq(d.fl_time, 20)
        .eq(d.distance, 30);
    let range = Predicate::new()
        .between(d.fl_time, 10, 40)
        .between(d.distance, 20, 60);

    let mut g = c.benchmark_group("query");
    g.bench_function("summary_point", |b| {
        b.iter(|| summary.estimate_count(black_box(&point)).unwrap())
    });
    g.bench_function("summary_range", |b| {
        b.iter(|| summary.estimate_count(black_box(&range)).unwrap())
    });
    g.bench_function("summary_group_by_origin", |b| {
        b.iter(|| {
            summary
                .estimate_group_by(black_box(&range), d.origin)
                .unwrap()
        })
    });
    g.bench_function("uniform_sample_range", |b| {
        b.iter(|| sample.estimate_count(black_box(&range)).unwrap())
    });
    g.finish();

    // The absolute ceilings of `bench_schema.json`: a statistic choice or
    // a kernel change that drops this model back onto the 150k-term closure
    // (≈ 380 µs a point query, ≈ 2.3 ms a fused batch) fails them.
    let batch16 = ProbeRequest::CountMany {
        masks: batch16_masks(&d, summary.domain_sizes()),
    };
    let mut scratch = summary.make_scratch();
    c.record_metric(
        "query",
        "summary_point_ns",
        mean_call_ns(2_000, || {
            black_box(summary.estimate_count(black_box(&point)).unwrap());
        }),
    );
    c.record_metric(
        "query",
        "summary_group_by_ns",
        mean_call_ns(2_000, || {
            black_box(
                summary
                    .estimate_group_by(black_box(&range), d.origin)
                    .unwrap(),
            );
        }),
    );
    c.record_metric(
        "query",
        "batch16_ns",
        mean_call_ns(500, || {
            black_box(summary.probe(black_box(&batch16), &mut scratch).unwrap());
        }),
    );
}

/// Ablation: Sec. 4.2 masked evaluation vs expanding the range into point
/// queries (Eq. 20). The masked path is one evaluation; the expansion costs
/// one per covered point.
fn bench_point_expansion(c: &mut Criterion) {
    let (d, summary, _) = setup(false);
    let (lo, hi) = (20u32, 35u32);
    let range = Predicate::new().between(d.distance, lo, hi).eq(d.origin, 0);

    let mut g = c.benchmark_group("range_answering");
    g.bench_function("masked_eval(sec4.2)", |b| {
        b.iter(|| summary.estimate_count(black_box(&range)).unwrap())
    });
    g.bench_function("point_expansion(eq20)", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for v in lo..=hi {
                let point = Predicate::new().eq(d.distance, v).eq(d.origin, 0);
                total += summary
                    .estimate_count(black_box(&point))
                    .unwrap()
                    .expectation;
            }
            total
        })
    });
    g.finish();
}

/// The closure kernel's fused multi-mask slab pass against the sequential
/// per-mask loop, at batch 16 (one dashboard refresh), on the cyclic
/// summary. Both paths answer bitwise-identically (enforced by the
/// core/server parity suites); the fused pass amortizes one slab traversal
/// across the whole batch.
fn bench_fused_batch(c: &mut Criterion) {
    let (d, summary, _) = setup(true);
    let masks = batch16_masks(&d, summary.domain_sizes());
    let singles: Vec<ProbeRequest> = masks
        .iter()
        .map(|mask| ProbeRequest::Count { mask: mask.clone() })
        .collect();
    let batch16 = ProbeRequest::CountMany { masks };
    let mut scratch = summary.make_scratch();

    let mut g = c.benchmark_group("fused_batch");
    g.bench_function("batch16_naive_loop", |b| {
        b.iter(|| {
            singles
                .iter()
                .map(|single| {
                    let answer = summary.probe(black_box(single), &mut scratch).unwrap();
                    Estimate::try_from(answer).unwrap().expectation
                })
                .sum::<f64>()
        })
    });
    g.bench_function("batch16_fused", |b| {
        b.iter(|| summary.probe(black_box(&batch16), &mut scratch).unwrap())
    });
    g.finish();

    // Tail behaviour of the fused pass: a direct sample of whole-batch
    // latencies, reported as a histogram and recorded as p50/p99 metrics.
    let fast = std::env::var_os("ENTROPYDB_BENCH_FAST").is_some_and(|v| v != *"0");
    let samples = if fast { 10 } else { 200 };
    let mut latencies = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        black_box(summary.probe(&batch16, &mut scratch).unwrap());
        latencies.push(t.elapsed().as_nanos() as f64);
    }
    eprintln!(
        "{}",
        Histogram::of(&latencies, 8).render("fused batch16 latency ns")
    );
    c.record_metric(
        "fused_batch",
        "batch16_fused_p50_ns",
        percentile(&latencies, 50.0),
    );
    c.record_metric(
        "fused_batch",
        "batch16_fused_p99_ns",
        percentile(&latencies, 99.0),
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_queries, bench_point_expansion, bench_fused_batch
}
criterion_main!(benches);
