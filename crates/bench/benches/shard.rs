//! Sharded-summary benchmarks: build-time speedup and fan-out query cost.
//!
//! Build time of a monolithic summary is dominated by solving one max-ent
//! program whose per-sweep cost scales with the whole closure. Sharding the
//! 48-attribute star model by range on the hub attribute localizes each
//! statistic to one shard, so the per-shard closures are *bounded* (the
//! exact unsupported-statistic pruning in `ShardedSummary::build`) and the
//! shards solve independently — the build gets faster even on a single
//! core, and additionally parallelizes across cores.
//!
//! `BENCH_shard.json` records, against the retained `legacy_monolithic`
//! baseline: sharded builds at 1/2/4/8 range shards (group `shard_build`,
//! with the ≥2× acceptance number at 4 shards duplicated into the
//! `build_speedup_4_shards` metric), and the fan-out query latency of a
//! 4-shard summary beside the monolithic one (group `shard_query`, whose
//! warm-cache point and top-k latencies are gated as absolute ceilings).

use criterion::{criterion_group, criterion_main, Criterion};
use entropydb_bench::report::mean_call_ns;
use entropydb_core::prelude::*;
use entropydb_core::rng::SplitMix64;
use entropydb_core::sharded::ShardedBuildConfig;
use entropydb_core::statistics::RangeClause;
use entropydb_storage::{AttrId, Attribute, Partitioning, Predicate, Schema, Table};
use std::hint::black_box;

/// The 48-attribute star model of the solver benches: 48 attributes of 96
/// values, one statistic per hub value tying it to another attribute. Range
/// sharding on the hub localizes every statistic to exactly one shard.
const M: usize = 48;
const N_VALS: usize = 96;
const ROWS: usize = 20_000;

fn star_setup() -> (Table, Vec<MultiDimStatistic>) {
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
    let stats: Vec<MultiDimStatistic> = (0..M - 1)
        .map(|j| {
            let hi = if j % 16 == 0 {
                N_VALS / 2 - 1
            } else {
                N_VALS - 1
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
    (table, stats)
}

fn sharded_build(table: &Table, stats: &[MultiDimStatistic], shards: usize) -> ShardedSummary {
    let partitioning = Partitioning::range(AttrId(0), shards, N_VALS).expect("partitioning");
    ShardedSummary::build(
        table,
        &partitioning,
        stats.to_vec(),
        &ShardedBuildConfig::default(),
    )
    .expect("sharded build")
}

fn bench_shard_build(c: &mut Criterion) {
    let (table, stats) = star_setup();
    let config = SolverConfig::default();

    let mut g = c.benchmark_group("shard_build");
    g.bench_function("legacy_monolithic", |b| {
        b.iter(|| MaxEntSummary::build(black_box(&table), stats.clone(), &config).expect("build"))
    });
    for shards in [1usize, 2, 4, 8] {
        g.bench_function(format!("sharded_{shards}"), |b| {
            b.iter(|| sharded_build(black_box(&table), &stats, shards))
        });
    }
    g.finish();

    // The acceptance number, measured once outside the sampling loop and
    // recorded as an explicit metric (median-of-samples speedups live in
    // the group's "speedup" object).
    let t0 = std::time::Instant::now();
    let mono = MaxEntSummary::build(&table, stats.clone(), &config).expect("build");
    let mono_secs = t0.elapsed().as_secs_f64();
    let t0 = std::time::Instant::now();
    let four = sharded_build(&table, &stats, 4);
    let four_secs = t0.elapsed().as_secs_f64();
    c.record_metric(
        "shard_build",
        "build_speedup_4_shards",
        mono_secs / four_secs.max(1e-12),
    );
    // Closure bounding at work: statistics held per 4-shard model.
    let stats_per_shard = four
        .shards()
        .iter()
        .map(|s| s.statistics().multi().len())
        .sum::<usize>() as f64
        / four.num_shards() as f64;
    c.record_metric("shard_build", "stats_per_shard_at_4", stats_per_shard);

    // The sharded estimates stay tied to the monolithic model where both
    // are exact: 1D marginals.
    let pred = Predicate::new().eq(AttrId(1), 3);
    let e_mono = mono.estimate_count(&pred).expect("query").expectation;
    let e_shard = four.estimate_count(&pred).expect("query").expectation;
    assert!(
        (e_mono - e_shard).abs() < 1e-3 * e_mono.max(1.0),
        "1D estimates diverged: {e_mono} vs {e_shard}"
    );
}

fn bench_shard_query(c: &mut Criterion) {
    let (table, stats) = star_setup();
    let config = SolverConfig::default();
    let mono = MaxEntSummary::build(&table, stats.clone(), &config).expect("build");
    let four = sharded_build(&table, &stats, 4);
    // The engine's answer cache closes the fan-out gap on repeated
    // requests: a warm entry skips mask building, the fan-out and the merge.
    let four_cached = QueryEngine::new(sharded_build(&table, &stats, 4)).with_answer_cache(1 << 16);

    let point = Predicate::new().eq(AttrId(0), 5).eq(AttrId(6), 10);
    let range = Predicate::new()
        .between(AttrId(0), 8, 40)
        .between(AttrId(3), 0, 47);

    let mut g = c.benchmark_group("shard_query");
    g.bench_function("legacy_monolithic_point", |b| {
        b.iter(|| mono.estimate_count(black_box(&point)).expect("query"))
    });
    g.bench_function("fanout_4_point", |b| {
        b.iter(|| four.estimate_count(black_box(&point)).expect("query"))
    });
    g.bench_function("fanout_4_point_cached", |b| {
        b.iter(|| {
            four_cached
                .estimate_count(black_box(&point))
                .expect("query")
        })
    });
    g.bench_function("fanout_4_range", |b| {
        b.iter(|| four.estimate_count(black_box(&range)).expect("query"))
    });
    g.bench_function("fanout_4_group_by", |b| {
        b.iter(|| {
            four.estimate_group_by(black_box(&range), AttrId(2))
                .expect("query")
        })
    });
    // Named `monolithic_top_k` (not `legacy_...`) so the shim keeps
    // `legacy_monolithic_point` as the group's speedup baseline.
    g.bench_function("monolithic_top_k", |b| {
        b.iter(|| mono.top_k(black_box(&range), AttrId(2), 5).expect("query"))
    });
    g.bench_function("fanout_4_top_k", |b| {
        b.iter(|| four.top_k(black_box(&range), AttrId(2), 5).expect("query"))
    });
    g.bench_function("fanout_4_top_k_cached", |b| {
        b.iter(|| {
            four_cached
                .top_k(black_box(&range), AttrId(2), 5)
                .expect("query")
        })
    });
    g.finish();

    // The acceptance numbers: warm-cache fan-out latency, in absolute
    // nanoseconds (a ratio against the monolithic model would move whenever
    // the monolithic kernel does). Cached answers are bitwise the uncached
    // answers — asserted here on top of the parity suites.
    let warm_count = four_cached.estimate_count(&point).expect("query");
    let uncached_count = four.estimate_count(&point).expect("query");
    assert_eq!(
        warm_count.expectation.to_bits(),
        uncached_count.expectation.to_bits(),
        "cached point answer must stay bitwise-identical"
    );
    let warm_topk = four_cached.top_k(&range, AttrId(2), 5).expect("query");
    assert_eq!(
        warm_topk,
        four.top_k(&range, AttrId(2), 5).expect("query"),
        "cached top-k answer must stay bitwise-identical"
    );
    let cached_point_ns = mean_call_ns(10_000, || {
        black_box(
            four_cached
                .estimate_count(black_box(&point))
                .expect("query"),
        );
    });
    let cached_topk_ns = mean_call_ns(1_000, || {
        black_box(
            four_cached
                .top_k(black_box(&range), AttrId(2), 5)
                .expect("query"),
        );
    });
    c.record_metric("shard_query", "fanout_4_point_cached_ns", cached_point_ns);
    c.record_metric("shard_query", "fanout_4_top_k_cached_ns", cached_topk_ns);

    // A sharded top-k is the merged group-by ranked once, so it costs one
    // fan-out round like the group-by; a second round would double this.
    let top_k_ns = mean_call_ns(1_000, || {
        black_box(four.top_k(black_box(&range), AttrId(2), 5).expect("query"));
    });
    let group_by_ns = mean_call_ns(1_000, || {
        black_box(
            four.estimate_group_by(black_box(&range), AttrId(2))
                .expect("query"),
        );
    });
    c.record_metric(
        "shard_query",
        "fanout_4_top_k_over_group_by",
        top_k_ns / group_by_ns,
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(5).measurement_time(std::time::Duration::from_secs(8)).warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_shard_build, bench_shard_query
}
criterion_main!(benches);
