//! Pool-overhead benchmark: the fixed cost of one parallel call through
//! the persistent worker pool in `entropydb_core::par`.
//!
//! The workload is deliberately small — the kind of fan-out (a handful of
//! group-by cells, a small predicate batch) where a thread spawn per call
//! would cost more than the work. The pool dispatches the chunks through a
//! persistent job queue, so the fixed cost per parallel call is a
//! queue-push + condvar-signal. `BENCH_par.json` records the per-call
//! nanoseconds (`persistent_pool_ns`, gated as an absolute ceiling in
//! `bench_schema.json`) beside the serial reference.

use criterion::{criterion_group, criterion_main, Criterion};
use entropydb_bench::report::mean_call_ns;
use entropydb_core::par;
use std::hint::black_box;

const ITEMS: usize = 64;
const THREADS: usize = 4;

/// ~1 µs of register-only work per item.
fn work(i: usize) -> u64 {
    let mut acc = i as u64 ^ 0x9E37_79B9_7F4A_7C15;
    for k in 0..400u64 {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
    }
    acc
}

fn bench_pool_overhead(c: &mut Criterion) {
    par::set_max_threads(THREADS);
    let items: Vec<usize> = (0..ITEMS).collect();

    // The pool must agree with the serial loop before its cost is recorded.
    let expected: Vec<u64> = items.iter().map(|&i| work(i)).collect();
    assert_eq!(par::map(&items, 1, |_, &i| work(i)), expected);

    let pool_ns = mean_call_ns(5_000, || {
        black_box(par::map(black_box(&items), 1, |_, &i| work(i)));
    });
    let mut g = c.benchmark_group("pool_overhead");
    g.bench_function("persistent_pool", |b| {
        b.iter(|| par::map(black_box(&items), 1, |_, &i| work(i)))
    });
    g.bench_function("serial_reference", |b| {
        b.iter(|| {
            black_box(&items)
                .iter()
                .map(|&i| work(i))
                .collect::<Vec<u64>>()
        })
    });
    g.finish();
    c.record_metric("pool_overhead", "persistent_pool_ns", pool_ns);
    par::set_max_threads(0);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_pool_overhead
}
criterion_main!(benches);
