//! Streaming-ingest property suite.
//!
//! The contracts of [`LiveSummary`]:
//!
//! 1. **Fold parity** — appending a batch and folding it produces a served
//!    mixture *bitwise identical* to `ShardedSummary::from_shards` over the
//!    same base shards plus an independently-fitted delta model, for 1, 2,
//!    and 4 base shards, on every query path including sampling.
//! 2. **Sealing neutrality** — sealing the fitted delta into the base
//!    segment list changes no answer bit (same models, same order).
//! 3. **Zero-stale caches** — behind an engine's answer cache, a cached
//!    answer can never survive a fold: the epoch is the cache generation,
//!    so post-fold queries match a freshly-composed uncached mixture
//!    bitwise — and the epoch is published only after its mixture, so a
//!    reader that has seen epoch `e` is never answered by an older one.
//! 4. **Idempotent appends** — replaying a token is absorbed (and reported)
//!    instead of double-ingesting; the token window is FIFO-bounded.

use entropydb_core::ingest::fit_segment;
use entropydb_core::prelude::*;
use entropydb_core::rng::SplitMix64;
use entropydb_core::scatter::ShardProbe;
use entropydb_core::serialize;
use entropydb_storage::{exec, AttrId, Attribute, Partitioning, Predicate, Schema, Table};
use std::time::Duration;

fn a(i: usize) -> AttrId {
    AttrId(i)
}

fn fixture_schema() -> Schema {
    Schema::new(vec![
        Attribute::categorical("x", 5).unwrap(),
        Attribute::categorical("y", 4).unwrap(),
        Attribute::categorical("z", 3).unwrap(),
    ])
}

/// A skewed full-support instance over domains [5, 4, 3] (same shape as the
/// shard-merge suite): one row per value, plus seeded skewed bulk.
fn fixture_table(seed: u64, rows: usize) -> Table {
    let mut t = Table::new(fixture_schema());
    for v in 0..5u32 {
        t.push_row(&[v, v % 4, v % 3]).unwrap();
    }
    let mut rng = SplitMix64::new(seed);
    for _ in 0..rows {
        let u = rng.next_f64();
        let x = (((u * u) * 5.0) as u32).min(4);
        let y = ((rng.next_f64() * 4.0) as u32).min(3);
        let z = ((rng.next_f64() * 3.0) as u32).min(2);
        t.push_row(&[x, y, z]).unwrap();
    }
    t
}

fn fixture_stats() -> Vec<MultiDimStatistic> {
    vec![
        MultiDimStatistic::rect2d(a(0), (0, 1), a(1), (0, 1)).unwrap(),
        MultiDimStatistic::rect2d(a(0), (2, 4), a(1), (2, 3)).unwrap(),
        MultiDimStatistic::rect2d(a(1), (1, 2), a(2), (0, 0)).unwrap(),
    ]
}

/// Deterministic append batch drawn from the same skewed distribution.
fn delta_batch(seed: u64, count: usize) -> Vec<Vec<u32>> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            let u = rng.next_f64();
            vec![
                (((u * u) * 5.0) as u32).min(4),
                ((rng.next_f64() * 4.0) as u32).min(3),
                ((rng.next_f64() * 3.0) as u32).min(2),
            ]
        })
        .collect()
}

fn probe_predicates() -> Vec<Predicate> {
    let mut preds = vec![
        Predicate::all(),
        Predicate::new().between(a(0), 1, 3),
        Predicate::new().between(a(0), 0, 2).eq(a(2), 1),
        Predicate::new().between(a(1), 2, 3).between(a(2), 0, 1),
        Predicate::new().eq(a(0), 4),
    ];
    for x in 0..5u32 {
        for y in 0..4u32 {
            preds.push(Predicate::new().eq(a(0), x).eq(a(1), y));
        }
    }
    preds
}

fn build_base(t: &Table, k: usize) -> ShardedSummary {
    ShardedSummary::build(
        t,
        &Partitioning::hash(k),
        fixture_stats(),
        &ShardedBuildConfig::default(),
    )
    .unwrap()
}

/// Synchronous config with thresholds far above the test batches, so folds
/// only happen where a test calls `flush` explicitly.
fn sync_config() -> IngestConfig {
    IngestConfig {
        delta_rows: 1 << 20,
        seal_rows: 1 << 20,
        background: false,
    }
}

fn assert_estimates_bitwise(tag: &str, e0: &Estimate, e1: &Estimate) {
    assert_eq!(
        e0.expectation.to_bits(),
        e1.expectation.to_bits(),
        "{tag}: expectation {} vs {}",
        e0.expectation,
        e1.expectation
    );
    assert_eq!(
        e0.variance.to_bits(),
        e1.variance.to_bits(),
        "{tag}: variance {} vs {}",
        e0.variance,
        e1.variance
    );
}

/// Every query path of `engine` (over a live summary) must answer bitwise
/// like the reference static mixture.
fn assert_backend_matches_reference(engine: &QueryEngine<LiveSummary>, reference: &ShardedSummary) {
    for pred in probe_predicates() {
        assert_eq!(
            engine.probability(&pred).unwrap().to_bits(),
            reference.probability(&pred).unwrap().to_bits(),
            "probability({pred:?})"
        );
        assert_estimates_bitwise(
            "estimate_count",
            &engine.estimate_count(&pred).unwrap(),
            &reference.estimate_count(&pred).unwrap(),
        );
        assert_estimates_bitwise(
            "estimate_sum",
            &engine.estimate_sum(&pred, a(1)).unwrap(),
            &reference.estimate_sum(&pred, a(1)).unwrap(),
        );
    }
    let pred = Predicate::new().between(a(2), 0, 1);
    let g0 = engine.estimate_group_by(&pred, a(0)).unwrap();
    let g1 = reference.estimate_group_by(&pred, a(0)).unwrap();
    assert_eq!(g0.len(), g1.len());
    for (e0, e1) in g0.iter().zip(&g1) {
        assert_estimates_bitwise("estimate_group_by", e0, e1);
    }
    for k in [1usize, 3] {
        let t0 = engine.top_k(&pred, a(0), k).unwrap();
        let t1 = reference.top_k(&pred, a(0), k).unwrap();
        assert_eq!(t0.len(), t1.len());
        for ((v0, e0), (v1, e1)) in t0.iter().zip(&t1) {
            assert_eq!(v0, v1, "top_k value order");
            assert_estimates_bitwise("top_k", e0, e1);
        }
    }
    let r0 = engine.sample_rows(150, 7).unwrap();
    let r1 = reference.sample_rows(150, 7).unwrap();
    assert_eq!(r0.num_rows(), r1.num_rows());
    for i in 0..r0.num_rows() {
        assert_eq!(r0.row(i), r1.row(i), "sampled row {i}");
    }
}

/// Contract 1: append + fold over k base shards is bitwise identical to
/// `from_shards(base shards + independently fitted delta)` — the live layer
/// adds no approximation of its own, for k ∈ {1, 2, 4}.
#[test]
fn fold_matches_from_shards_at_1_2_4_base_shards() {
    let t = fixture_table(0x1D_EA7, 400);
    let batch = delta_batch(0xF00D, 120);
    for k in [1usize, 2, 4] {
        let base = build_base(&t, k);
        let base_shards = base.shards().to_vec();
        let live = LiveSummary::new(
            base,
            fixture_stats(),
            SolverConfig::default(),
            sync_config(),
        )
        .unwrap();
        let engine = QueryEngine::new(live);

        let outcome = engine.append_rows(&batch, None).unwrap();
        assert_eq!(outcome.accepted, batch.len() as u64);
        assert!(!outcome.duplicate);
        let epoch0 = engine.epoch();
        engine.backend().flush().unwrap();
        assert!(engine.epoch() > epoch0, "flush must publish a new epoch");
        assert_eq!(engine.backend().staged_rows(), 0);

        // Reference: fit the same rows as a standalone segment the way any
        // shard is fitted, and compose statically.
        let mut delta_table = Table::new(t.schema().clone());
        for row in &batch {
            delta_table.push_row(row).unwrap();
        }
        let delta_model =
            fit_segment(&delta_table, &fixture_stats(), &SolverConfig::default()).unwrap();
        let mut models = base_shards;
        models.push(delta_model);
        let reference = ShardedSummary::from_shards(models).unwrap();

        assert_eq!(engine.n(), reference.n(), "k {k}");
        assert_backend_matches_reference(&engine, &reference);
    }
}

/// A background fold is `fit_segment` of the staged rows, bit for bit: the
/// persisted delta blob (every α, the sweep count and the residual) equals
/// the standalone fit's, the fit stopped by the default stopping rule well
/// before the sweep cap, and `stats ingest` reports its sweeps and no
/// failed fold.
#[test]
fn a_fold_is_fit_segment_of_the_same_rows_bit_for_bit() {
    let dir = std::env::temp_dir().join(format!("entropydb-fold-fit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let t = fixture_table(0xF01D, 400);
    let batch = delta_batch(0xD0D0, 160);
    let config = IngestConfig {
        delta_rows: batch.len(),
        seal_rows: 1 << 20,
        ..IngestConfig::default()
    };
    let solver = SolverConfig::default();
    let live =
        LiveSummary::new(build_base(&t, 2), fixture_stats(), solver.clone(), config).unwrap();
    live.append_rows(&batch, None).unwrap();
    assert!(
        live.wait_until_clean(Duration::from_secs(30)),
        "fold never published"
    );

    let mut delta_table = Table::new(t.schema().clone());
    for row in &batch {
        delta_table.push_row(row).unwrap();
    }
    let fit = fit_segment(&delta_table, &fixture_stats(), &solver).unwrap();
    let report = fit.solver_report();
    assert!(
        report.converged && report.sweeps < solver.max_sweeps,
        "{report}"
    );

    let stats = live.ingest_stats();
    assert_eq!((stats.folds, stats.fold_errors), (1, 0));
    assert_eq!(stats.fold_sweeps, report.sweeps as u64);
    assert!(live.take_fold_error().is_none());
    serialize::save_live_dir(&live, &dir).unwrap();
    let folded = std::fs::read_to_string(dir.join("delta.summary")).unwrap();
    assert_eq!(folded, serialize::to_string(&fit));
    let _ = std::fs::remove_dir_all(&dir);
}

/// One probe, one epoch: with a fold forced between two `SampleAt` probes
/// of the same draw (on one reused scratch), the first probe's rows are the
/// pre-fold mixture's and the second's the post-fold mixture's — a probe
/// never mixes strata or models of two epochs.
#[test]
fn each_sample_probe_draws_from_one_epoch() {
    let t = fixture_table(0x5EED, 400);
    let batch = delta_batch(0xFEED, 300);
    let base = build_base(&t, 2);
    let before = ShardedSummary::from_shards(base.shards().to_vec()).unwrap();
    let mut delta_table = Table::new(t.schema().clone());
    for row in &batch {
        delta_table.push_row(row).unwrap();
    }
    let delta = fit_segment(&delta_table, &fixture_stats(), &SolverConfig::default()).unwrap();
    let mut models = base.shards().to_vec();
    models.push(delta);
    let after = ShardedSummary::from_shards(models).unwrap();
    let live = LiveSummary::new(
        base,
        fixture_stats(),
        SolverConfig::default(),
        sync_config(),
    )
    .unwrap();

    let run = |indices: std::ops::Range<u64>| ProbeRequest::SampleAt {
        k: 64,
        seed: 5,
        indices: indices.collect(),
    };
    let reference = |mixture: &ShardedSummary, request: &ProbeRequest| {
        mixture.probe(request, &mut mixture.make_scratch()).unwrap()
    };
    let mut scratch = live.make_scratch();
    let first = live.probe(&run(0..32), &mut scratch).unwrap();
    live.append_rows(&batch, None).unwrap();
    live.flush().unwrap();
    let second = live.probe(&run(32..64), &mut scratch).unwrap();

    assert_eq!(first, reference(&before, &run(0..32)));
    assert_eq!(second, reference(&after, &run(32..64)));
    assert_ne!(
        second,
        reference(&before, &run(32..64)),
        "the fold must be visible to the second probe"
    );
}

/// Append-then-query tracks a monolithic rebuild over the grown relation:
/// COUNT(*) is exact, and every 1D count stays within solver tolerance of
/// the rebuilt model (both are exact on 1D statistics). Every model is
/// fitted to a tolerance far below the default's, so the bounds are in rows.
#[test]
fn append_then_query_matches_monolithic_rebuild() {
    let t = fixture_table(0xB0B, 400);
    let batch = delta_batch(0xCAFE, 200);
    let tight = SolverConfig {
        tolerance: 1e-7,
        ..SolverConfig::default()
    };
    let base = ShardedSummary::build(
        &t,
        &Partitioning::hash(2),
        fixture_stats(),
        &ShardedBuildConfig {
            solver: tight.clone(),
        },
    )
    .unwrap();
    let live = LiveSummary::new(base, fixture_stats(), tight.clone(), sync_config()).unwrap();
    let engine = QueryEngine::new(live);
    engine.append_rows(&batch, None).unwrap();
    engine.backend().flush().unwrap();

    let mut grown = t.clone();
    for row in &batch {
        grown.push_row(row).unwrap();
    }
    let mono = MaxEntSummary::build(&grown, fixture_stats(), &tight).unwrap();

    let total = grown.num_rows() as f64;
    let live_count = engine
        .estimate_count(&Predicate::all())
        .unwrap()
        .expectation;
    assert!(
        (live_count - total).abs() < 1e-6 * total,
        "COUNT(*): {live_count} vs {total}"
    );
    for attr in 0..3usize {
        let domain = grown.schema().domain_size(a(attr)).unwrap();
        for v in 0..domain as u32 {
            let pred = Predicate::new().eq(a(attr), v);
            let truth = exec::count(&grown, &pred).unwrap() as f64;
            let live_est = engine.estimate_count(&pred).unwrap().expectation;
            let mono_est = mono.estimate_count(&pred).unwrap().expectation;
            assert!(
                (live_est - truth).abs() < 1e-4 * total,
                "attr {attr} v {v}: live {live_est} vs truth {truth}"
            );
            assert!(
                (live_est - mono_est).abs() < 2e-4 * total,
                "attr {attr} v {v}: live {live_est} vs mono {mono_est}"
            );
        }
    }
}

/// Background folding: crossing the staged-row threshold wakes the worker,
/// the fold publishes without any explicit flush, and the folded COUNT(*)
/// accounts for every appended row exactly.
#[test]
fn background_fold_publishes_appended_rows() {
    let t = fixture_table(0x5EED, 300);
    let base = build_base(&t, 2);
    let n0 = base.n() as f64;
    let config = IngestConfig {
        delta_rows: 32,
        seal_rows: 1 << 20,
        background: true,
    };
    let live = LiveSummary::new(base, fixture_stats(), SolverConfig::default(), config).unwrap();
    let engine = QueryEngine::new(live);

    let batch = delta_batch(0xAB, 64);
    let outcome = engine.append_rows(&batch, None).unwrap();
    assert_eq!(outcome.accepted, 64);
    assert!(
        engine.backend().wait_until_clean(Duration::from_secs(30)),
        "background fold did not drain the staging buffer: {:?}",
        engine.backend().take_fold_error()
    );
    assert!(engine.backend().take_fold_error().is_none());
    assert!(engine.epoch() >= 1);
    let count = engine
        .estimate_count(&Predicate::all())
        .unwrap()
        .expectation;
    assert!(
        (count - (n0 + 64.0)).abs() < 1e-6 * (n0 + 64.0),
        "COUNT(*) after background fold: {count} vs {}",
        n0 + 64.0
    );
    let stats = engine.ingest_stats().unwrap();
    assert_eq!(stats.appended_rows, 64);
    assert!(stats.folds >= 1);
    assert_eq!(stats.staged_rows, 0);
}

/// Contract 2: sealing (promoting the fitted delta into the base segment
/// list) is bitwise-neutral — the mixture holds the same models in the
/// same order. Two live summaries fold the same batch over the same base:
/// one seals it (its seal threshold is the batch size), the other serves
/// it as the delta, and every answer agrees bit for bit.
#[test]
fn sealing_is_bitwise_neutral() {
    let t = fixture_table(0xC0DE, 350);
    let batch = delta_batch(0xDD, 100);
    let fold_batch = |config: IngestConfig| {
        let base = build_base(&t, 2);
        let live = LiveSummary::new(base, fixture_stats(), SolverConfig::default(), config);
        let engine = QueryEngine::new(live.unwrap());
        engine.append_rows(&batch, None).unwrap();
        engine.backend().flush().unwrap();
        engine
    };
    let unsealed = fold_batch(sync_config());
    let sealed = fold_batch(IngestConfig {
        delta_rows: batch.len(),
        seal_rows: batch.len(),
        background: false,
    });

    assert_eq!(
        sealed.backend().num_segments(),
        unsealed.backend().num_segments() + 1
    );
    assert_eq!(sealed.ingest_stats().unwrap().seals, 1);
    assert_eq!(unsealed.ingest_stats().unwrap().seals, 0);
    assert_eq!(sealed.epoch(), unsealed.epoch());
    for pred in probe_predicates() {
        assert_estimates_bitwise(
            &format!("sealing({pred:?})"),
            &unsealed.estimate_count(&pred).unwrap(),
            &sealed.estimate_count(&pred).unwrap(),
        );
    }
}

/// Contract 4: a replayed idempotency token is absorbed and reported; the
/// token window holds the last 4096 tokens, first in first out, so an
/// evicted token is accepted again; and the final cardinality accounts for
/// exactly the accepted batches.
#[test]
fn token_replay_is_absorbed_and_window_is_fifo() {
    let t = fixture_table(0x70C, 300);
    let base = build_base(&t, 1);
    let n0 = base.n() as f64;
    let config = IngestConfig {
        delta_rows: 1 << 20,
        seal_rows: 1 << 20,
        background: false,
    };
    let live = LiveSummary::new(base, fixture_stats(), SolverConfig::default(), config).unwrap();
    let batch = delta_batch(0x11, 40);
    const WINDOW: usize = 4096;
    let filler = delta_batch(0x12, WINDOW);

    let first = live.append_rows(&batch, Some("tok-a")).unwrap();
    assert_eq!(first.accepted, 40);
    assert!(!first.duplicate);

    let replay = live.append_rows(&batch, Some("tok-a")).unwrap();
    assert!(replay.duplicate, "replaying tok-a must be absorbed");
    assert_eq!(replay.accepted, 0);

    // 4095 fresh one-row batches leave tok-a the oldest token remembered …
    for (i, row) in filler[..WINDOW - 1].chunks(1).enumerate() {
        live.append_rows(row, Some(&format!("fill-{i}"))).unwrap();
    }
    assert!(live.append_rows(&batch, Some("tok-a")).unwrap().duplicate);
    // … and the 4096th evicts it, so tok-a lands again.
    live.append_rows(&filler[WINDOW - 1..], Some("fill-last"))
        .unwrap();
    let after_eviction = live.append_rows(&batch, Some("tok-a")).unwrap();
    assert!(
        !after_eviction.duplicate,
        "evicted token must be fresh again"
    );
    assert_eq!(after_eviction.accepted, 40);

    live.flush().unwrap();
    let stats = live.ingest_stats();
    assert_eq!(stats.appended_rows, 80 + WINDOW as u64);
    assert_eq!(stats.duplicate_appends, 2);
    let engine = QueryEngine::new(live);
    let count = engine
        .estimate_count(&Predicate::all())
        .unwrap()
        .expectation;
    let want = n0 + 80.0 + WINDOW as f64;
    assert!(
        (count - want).abs() < 1e-6 * want,
        "COUNT(*): {count} vs {want}"
    );
}

/// Contract 3: the zero-stale drill. Behind an engine's answer cache (its
/// generation IS the ingest epoch), answers are served from cache between
/// folds — and after a fold every query matches a freshly-composed uncached
/// mixture bitwise. A stale cached answer would fail the COUNT(*) growth
/// check immediately.
#[test]
fn answer_cache_never_serves_stale_answers_across_folds() {
    let t = fixture_table(0xACE, 350);
    let base = build_base(&t, 2);
    let base_shards = base.shards().to_vec();
    let n0 = base.n() as f64;
    let live = LiveSummary::new(
        base,
        fixture_stats(),
        SolverConfig::default(),
        sync_config(),
    )
    .unwrap();
    let engine = QueryEngine::new(live).with_answer_cache(64);
    let preds = [
        Predicate::all(),
        Predicate::new().eq(a(0), 1),
        Predicate::new().between(a(1), 1, 2).eq(a(2), 0),
    ];

    // Warm the cache and verify it actually serves repeats.
    let warm: Vec<Estimate> = preds
        .iter()
        .map(|p| engine.estimate_count(p).unwrap())
        .collect();
    for (pred, w) in preds.iter().zip(&warm) {
        assert_estimates_bitwise(
            &format!("cached({pred:?})"),
            w,
            &engine.estimate_count(pred).unwrap(),
        );
    }
    let stats = engine.cache_stats().expect("answer cache enabled");
    assert_eq!(
        (stats.hits, stats.misses),
        (preds.len() as u64, preds.len() as u64),
        "repeats must hit the cache"
    );

    // Fold a batch in; every cached entry is orphaned by the epoch bump.
    let batch = delta_batch(0xBEEF, 90);
    engine.append_rows(&batch, None).unwrap();
    engine.backend().flush().unwrap();

    let count = engine
        .estimate_count(&Predicate::all())
        .unwrap()
        .expectation;
    let want = n0 + 90.0;
    assert!(
        (count - want).abs() < 1e-6 * want,
        "stale COUNT(*) after fold: {count} vs {want}"
    );

    // The strong form: post-fold answers are bitwise the fresh composition.
    let mut delta_table = Table::new(t.schema().clone());
    for row in &batch {
        delta_table.push_row(row).unwrap();
    }
    let delta_model =
        fit_segment(&delta_table, &fixture_stats(), &SolverConfig::default()).unwrap();
    let mut models = base_shards;
    models.push(delta_model);
    let reference = ShardedSummary::from_shards(models).unwrap();
    for pred in &preds {
        assert_estimates_bitwise(
            &format!("post-fold({pred:?})"),
            &engine.estimate_count(pred).unwrap(),
            &reference.estimate_count(pred).unwrap(),
        );
    }
}

/// Contract 3 under load: 200 background folds, each of `M` rows, while a
/// reader asks COUNT(*) — through an engine's answer cache and straight
/// from the summary. The epoch is stored only once its mixture is served,
/// so once the reader has seen epoch `e` every answer counts at least the
/// rows folded by `e`; a publish that bumped the epoch first would let an
/// answer of epoch `e - 1` through, and the cache would file it under `e`.
#[test]
fn a_reader_that_saw_an_epoch_is_never_answered_by_an_older_mixture() {
    const FOLDS: u64 = 200;
    const M: usize = 4;
    let base = build_base(&fixture_table(0xE90C, 300), 2);
    let n0 = base.n() as f64;
    let config = IngestConfig {
        delta_rows: M,
        seal_rows: 16 * M,
        background: true,
    };
    let live = LiveSummary::new(base, fixture_stats(), SolverConfig::default(), config).unwrap();
    let engine = QueryEngine::new(live).with_answer_cache(64);
    let e0 = engine.epoch();
    let folded_by = |epoch: u64| n0 + (M as u64 * (epoch - e0)) as f64;
    let done = std::sync::atomic::AtomicBool::new(false);
    let everything = ProbeRequest::Count {
        mask: Mask::identity(3),
    };
    let reads = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let live = engine.backend();
            let mut scratch = live.make_scratch();
            let mut reads = 0u64;
            while !done.load(std::sync::atomic::Ordering::Acquire) {
                let epoch = engine.epoch();
                let direct = live.probe(&everything, &mut scratch).unwrap();
                let cached = engine.estimate_count(&Predicate::all()).unwrap();
                for (how, count) in [("direct", direct.try_into().unwrap()), ("cached", cached)] {
                    let count: Estimate = count;
                    assert!(
                        count.expectation > folded_by(epoch) - 1e-6 * n0,
                        "{how}: epoch {epoch} answered {} < {}",
                        count.expectation,
                        folded_by(epoch)
                    );
                }
                reads += 1;
            }
            reads
        });
        for fold in 0..FOLDS {
            engine
                .append_rows(&delta_batch(0xF01D + fold, M), None)
                .unwrap();
            assert!(
                engine.backend().wait_until_clean(Duration::from_secs(30)),
                "fold {fold}: {:?}",
                engine.backend().take_fold_error()
            );
        }
        done.store(true, std::sync::atomic::Ordering::Release);
        reader.join().unwrap()
    });
    assert!(reads > 0);
    assert_eq!(engine.epoch(), e0 + FOLDS, "one publish per fold");
    let count = engine.estimate_count(&Predicate::all()).unwrap();
    assert!((count.expectation - folded_by(e0 + FOLDS)).abs() < 1e-6 * n0);
}

/// Manifest-v3 round trip: `save_live_dir` / `load_live_dir` preserve the
/// epoch, the segment list, and every answer bit, and recover the fold
/// counters.
#[test]
fn live_dir_round_trip_preserves_epoch_and_answers() {
    let dir = std::env::temp_dir().join(format!("entropydb-ingest-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let t = fixture_table(0xD15C, 300);
    let base = build_base(&t, 2);
    let live = LiveSummary::new(
        base,
        fixture_stats(),
        SolverConfig::default(),
        sync_config(),
    )
    .unwrap();
    live.append_rows(&delta_batch(0x21, 70), None).unwrap();
    live.flush().unwrap();
    live.append_rows(&delta_batch(0x22, 30), None).unwrap();
    // `save_live_dir` flushes the 30 staged rows before writing.
    serialize::save_live_dir(&live, &dir).unwrap();

    let restored = serialize::load_live_dir(&dir, SolverConfig::default(), sync_config()).unwrap();
    assert_eq!(restored.epoch(), live.epoch());
    // The persisted fitted delta re-enters as a sealed segment (sealing is
    // bitwise-neutral; the delta's raw rows are not persisted).
    assert_eq!(restored.num_segments(), live.num_segments() + 1);
    assert_eq!(restored.staged_rows(), 0);
    let e0 = QueryEngine::new(live);
    let e1 = QueryEngine::new(restored);
    assert_eq!(e0.n(), e1.n());
    for pred in probe_predicates() {
        assert_estimates_bitwise(
            &format!("round-trip({pred:?})"),
            &e0.estimate_count(&pred).unwrap(),
            &e1.estimate_count(&pred).unwrap(),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `validate` rejects configurations that would misbehave at runtime; the
/// constructors of `LiveSummary` run it on every struct literal.
#[test]
fn ingest_config_validates() {
    let default = IngestConfig::default;
    let invalid = [
        IngestConfig {
            delta_rows: 0,
            ..default()
        },
        IngestConfig {
            delta_rows: 100,
            seal_rows: 50,
            ..default()
        },
    ];
    for config in invalid {
        assert!(config.validate().is_err(), "{config:?}");
    }
    IngestConfig {
        delta_rows: 8,
        seal_rows: 64,
        background: false,
    }
    .validate()
    .unwrap();
}

/// An immutable backend refuses appends with the typed error, so callers
/// can distinguish "not a live summary" from transport problems.
#[test]
fn immutable_backends_reject_appends() {
    let t = fixture_table(2, 60);
    let engine = QueryEngine::new(build_base(&t, 2));
    assert!(matches!(
        engine.append_rows(&[vec![0, 0, 0]], None),
        Err(ModelError::Immutable)
    ));
    assert!(engine.ingest_stats().is_none());
    assert_eq!(engine.epoch(), 0);
}
