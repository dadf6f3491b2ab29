//! Streaming-ingest benchmarks: what absorbing a batch into the live
//! delta shard costs versus re-solving the whole relation from scratch.
//!
//! The summary tracks a growing relation by re-fitting only the tiny
//! delta shard (`fit_segment` over the staged rows) and republishing the
//! mixture; the pre-streaming alternative was a full rebuild over the
//! grown table. On the 48-attribute star model the rebuild solves one
//! program whose closure spans the whole relation, while the delta solve
//! sees 64 rows clustered in a narrow hub window (streaming arrivals
//! cluster on the partition key), so unsupported-statistic pruning keeps
//! its closure bounded — the asymmetry the ≥20× acceptance floor pins.
//!
//! `BENCH_ingest.json` records group `ingest_fold`: the retained
//! `legacy_full_rebuild` baseline against `delta_resolve`, plus two
//! metrics measured on a real `LiveSummary` in synchronous mode —
//! `delta_resolve_ns` (median append→fold→publish cycle) and
//! `append_to_queryable_p99` (nearest-rank p99 of the same cycles: the
//! tail latency from handing rows over to them being queryable).

use criterion::{criterion_group, criterion_main, Criterion};
use entropydb_core::ingest::{fit_segment, IngestConfig, LiveSummary};
use entropydb_core::prelude::*;
use entropydb_core::rng::SplitMix64;
use entropydb_core::sharded::ShardedBuildConfig;
use entropydb_core::statistics::RangeClause;
use entropydb_storage::{AttrId, Attribute, Partitioning, Schema, Table};
use std::hint::black_box;

/// The 48-attribute star model of the shard/solver benches.
const M: usize = 48;
const N_VALS: usize = 96;
const ROWS: usize = 20_000;
/// Rows per append batch — the delta the live summary re-solves.
const DELTA_ROWS: usize = 64;

fn star_schema() -> Schema {
    Schema::new(
        (0..M)
            .map(|i| Attribute::categorical(format!("a{i}"), N_VALS).expect("attribute"))
            .collect(),
    )
}

/// Width of the hub-attribute window an append batch lands in. Streaming
/// arrivals cluster on the partition key (the same hub the base shards
/// range on), so a delta's support — and with it the solve closure after
/// unsupported-statistic pruning — stays narrow. A uniform delta would
/// drag in the whole closure and fit ~40× slower.
const HUB_WINDOW: u64 = 12;

/// One append batch: hub values inside a `HUB_WINDOW`-wide window starting
/// at `hub_lo`, every other attribute uniform.
fn delta_rows(rng: &mut SplitMix64, count: usize, hub_lo: u32) -> Vec<Vec<u32>> {
    (0..count)
        .map(|_| {
            let mut row: Vec<u32> = (0..M)
                .map(|_| (rng.next_u64() % N_VALS as u64) as u32)
                .collect();
            row[0] = hub_lo + (rng.next_u64() % HUB_WINDOW) as u32;
            row
        })
        .collect()
}

fn star_setup() -> (Table, Vec<MultiDimStatistic>) {
    let mut table = Table::with_capacity(star_schema(), ROWS);
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

fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn bench_ingest_fold(c: &mut Criterion) {
    let (table, stats) = star_setup();
    let config = SolverConfig::default();
    let mut rng = SplitMix64::new(0xF01D);

    // The grown relation the rebuild baseline has to re-solve, and the
    // standalone delta table the streaming path re-solves instead.
    let batch = delta_rows(&mut rng, DELTA_ROWS, 36);
    let mut grown = table.clone();
    let mut delta_table = Table::new(star_schema());
    for row in &batch {
        grown.push_row(row).expect("schema-valid row");
        delta_table.push_row(row).expect("schema-valid row");
    }

    let mut g = c.benchmark_group("ingest_fold");
    g.bench_function("legacy_full_rebuild", |b| {
        b.iter(|| MaxEntSummary::build(black_box(&grown), stats.clone(), &config).expect("rebuild"))
    });
    g.bench_function("delta_resolve", |b| {
        b.iter(|| fit_segment(black_box(&delta_table), &stats, &config).expect("delta fit"))
    });
    g.finish();

    // The acceptance metrics, measured on a real LiveSummary: synchronous
    // folding with seal-every-fold, so each cycle does the full
    // steady-state append → re-solve → seal → publish work.
    let base = ShardedSummary::build(
        &table,
        &Partitioning::range(AttrId(0), 4, N_VALS).expect("partitioning"),
        stats.clone(),
        &ShardedBuildConfig::default(),
    )
    .expect("base build");
    let ingest = IngestConfig {
        delta_rows: DELTA_ROWS,
        seal_rows: DELTA_ROWS,
        background: false,
    };
    let live = LiveSummary::new(base, stats, config, ingest).expect("live summary");
    let fast = std::env::var_os("ENTROPYDB_BENCH_FAST").is_some_and(|v| v != *"0");
    let cycles = if fast { 4 } else { 24 };
    let mut samples = Vec::with_capacity(cycles);
    for cycle in 0..cycles {
        // Rotate the hub window per cycle so successive deltas cover
        // different (still narrow) regions, like a moving arrival front.
        let hub_lo = ((cycle as u64 * HUB_WINDOW) % (N_VALS as u64 - HUB_WINDOW)) as u32;
        let batch = delta_rows(&mut rng, DELTA_ROWS, hub_lo);
        let t0 = std::time::Instant::now();
        // Synchronous config: when this returns, the fold has published
        // and every appended row is queryable.
        let outcome = live.append_rows(&batch, None).expect("append");
        samples.push(t0.elapsed().as_nanos() as f64);
        assert_eq!(outcome.accepted, DELTA_ROWS as u64);
        assert_eq!(outcome.staged, 0, "sync fold must drain the batch");
    }
    samples.sort_by(f64::total_cmp);
    c.record_metric(
        "ingest_fold",
        "delta_resolve_ns",
        percentile_sorted(&samples, 50.0),
    );
    c.record_metric(
        "ingest_fold",
        "append_to_queryable_p99",
        percentile_sorted(&samples, 99.0),
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(4)).warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_ingest_fold
}
criterion_main!(benches);
