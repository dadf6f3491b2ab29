//! One-off phase profile of the point-query hot path on the
//! `query_latency` flights model: where do the microseconds go?

use entropydb_bench::common;
use entropydb_core::assignment::Mask;
use entropydb_core::engine::SummaryBackend;
use entropydb_core::prelude::*;
use entropydb_core::selection::heuristics::select_pair_statistics;
use entropydb_storage::Predicate;
use std::hint::black_box;
use std::time::Instant;

fn time(label: &str, mut f: impl FnMut()) {
    // Warm up, then time 200 reps.
    for _ in 0..20 {
        f();
    }
    let t = Instant::now();
    for _ in 0..200 {
        f();
    }
    println!(
        "{label:<40} {:>12.1} ns",
        t.elapsed().as_nanos() as f64 / 200.0
    );
}

fn main() {
    let mut scale = common::Scale::quick();
    scale.flights_rows = 100_000;
    let dataset = common::flights_coarse(&scale);
    let mut stats = Vec::new();
    for (x, y) in [
        (dataset.origin, dataset.distance),
        (dataset.dest, dataset.distance),
        (dataset.fl_time, dataset.distance),
    ] {
        stats.extend(
            select_pair_statistics(&dataset.table, x, y, 300, Heuristic::Composite).unwrap(),
        );
    }
    println!("stats: {}", stats.len());
    let summary = MaxEntSummary::build(&dataset.table, stats, &SolverConfig::default()).unwrap();
    let poly = summary.polynomial();
    let ss = poly.size_stats();
    println!(
        "components: {} ({} tree, {} closure)  terms: {}  constrained_factors: {}  delta_factors: {}",
        poly.num_components(),
        ss.tree_components,
        ss.closure_components,
        ss.num_terms,
        ss.constrained_factors,
        ss.delta_factors
    );
    println!("domain sizes: {:?}", summary.domain_sizes());

    let d = &dataset;
    let point = Predicate::new()
        .eq(d.origin, 0)
        .eq(d.dest, 1)
        .eq(d.fl_time, 20)
        .eq(d.distance, 30);
    let sizes = summary.domain_sizes().to_vec();
    let mask = Mask::from_predicate(&point, &sizes).unwrap();
    let mut s = poly.make_scratch();
    let a = summary.assignment();

    time("estimate_count(point)", || {
        black_box(summary.estimate_count(&point).unwrap());
    });
    time("eval_masked_with(point)", || {
        black_box(poly.eval_masked_with(a, &mask, &mut s));
    });
    time("eval_with_attr_derivatives_with(origin)", || {
        black_box(poly.eval_with_attr_derivatives_with(a, &mask, d.origin.0, &mut s));
    });
    time("mask_build(point)", || {
        black_box(Mask::from_predicate(&point, &sizes).unwrap());
    });

    let range = Predicate::new()
        .between(d.fl_time, 10, 40)
        .between(d.distance, 20, 60);
    let rmask = Mask::from_predicate(&range, &sizes).unwrap();
    time("eval_masked_with(range)", || {
        black_box(poly.eval_masked_with(a, &rmask, &mut s));
    });

    let masks: Vec<Mask> = (0..16u32)
        .map(|i| {
            let p = Predicate::new()
                .between(d.fl_time, 5, 30 + i)
                .between(d.distance, 20, 60);
            Mask::from_predicate(&p, &sizes).unwrap()
        })
        .collect();
    let mut out = vec![0.0; masks.len()];
    time("eval_masked_many_with(batch16)", || {
        poly.eval_masked_many_with(a, &masks, &mut s, &mut out);
        black_box(&out);
    });
}
