//! Shard-merge equivalence suite.
//!
//! The two contracts of [`ShardedSummary`]:
//!
//! 1. With **one** shard it is *bitwise identical* to the monolithic
//!    [`MaxEntSummary`] on every query-engine path — same expectations,
//!    same variances, same sampled rows, bit for bit.
//! 2. With **k** shards, every merged estimate equals the sum (or mixture)
//!    of the per-shard models, verified against the uncompressed
//!    [`NaivePolynomial`] oracle evaluated per shard — within solver
//!    tolerance, for k ∈ {2, 4, 8}, across seeded instances.

use entropydb_core::engine::rank_top_k;
use entropydb_core::naive::NaivePolynomial;
use entropydb_core::prelude::*;
use entropydb_core::rng::SplitMix64;
use entropydb_core::sharded::{ShardedBuildConfig, ShardedSummary};
use entropydb_storage::{exec, AttrId, Attribute, Binner, Partitioning, Predicate, Schema, Table};

fn a(i: usize) -> AttrId {
    AttrId(i)
}

/// A skewed full-support instance over domains [5, 4, 3]: every value of
/// every attribute appears at least once, plus seeded random bulk.
fn fixture_table(seed: u64, rows: usize) -> Table {
    let schema = Schema::new(vec![
        Attribute::categorical("x", 5).unwrap(),
        Attribute::categorical("y", 4).unwrap(),
        Attribute::categorical("z", 3).unwrap(),
    ]);
    let mut t = Table::new(schema);
    // Full-support floor: one row per value, round-robin on the others.
    for v in 0..5u32 {
        t.push_row(&[v, v % 4, v % 3]).unwrap();
    }
    let mut rng = SplitMix64::new(seed);
    for _ in 0..rows {
        // Skew: squaring the uniform draw biases toward low codes.
        let u = rng.next_f64();
        let x = ((u * u) * 5.0) as u32;
        let y = (rng.next_f64() * 4.0) as u32;
        let z = (rng.next_f64() * 3.0) as u32;
        t.push_row(&[x.min(4), y.min(3), z.min(2)]).unwrap();
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

fn all_point_predicates() -> Vec<Predicate> {
    let mut preds = Vec::new();
    for x in 0..5u32 {
        for y in 0..4u32 {
            for z in 0..3u32 {
                preds.push(Predicate::new().eq(a(0), x).eq(a(1), y).eq(a(2), z));
            }
        }
    }
    preds
}

fn some_range_predicates() -> Vec<Predicate> {
    vec![
        Predicate::all(),
        Predicate::new().between(a(0), 1, 3),
        Predicate::new().between(a(0), 0, 2).eq(a(2), 1),
        Predicate::new().between(a(1), 2, 3).between(a(2), 0, 1),
        Predicate::new().eq(a(0), 4),
    ]
}

fn build_sharded(t: &Table, k: usize) -> ShardedSummary {
    ShardedSummary::build(
        t,
        &Partitioning::hash(k),
        fixture_stats(),
        &ShardedBuildConfig::default(),
    )
    .unwrap()
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

/// Contract 1: a 1-shard `ShardedSummary` is bitwise identical to the
/// monolithic `MaxEntSummary` on every query path.
#[test]
fn one_shard_is_bitwise_identical_on_every_path() {
    let t = fixture_table(0xA11CE, 400);
    let mono = MaxEntSummary::build(&t, fixture_stats(), &SolverConfig::default()).unwrap();
    let sharded = build_sharded(&t, 1);
    assert_eq!(sharded.num_shards(), 1);
    assert_eq!(sharded.n(), mono.n());

    let preds: Vec<Predicate> = all_point_predicates()
        .into_iter()
        .chain(some_range_predicates())
        .collect();

    for pred in &preds {
        assert_eq!(
            mono.probability(pred).unwrap().to_bits(),
            sharded.probability(pred).unwrap().to_bits(),
            "probability({pred:?})"
        );
        assert_estimates_bitwise(
            "estimate_count",
            &mono.estimate_count(pred).unwrap(),
            &sharded.estimate_count(pred).unwrap(),
        );
        assert_estimates_bitwise(
            "estimate_sum",
            &mono.estimate_sum(pred, a(1)).unwrap(),
            &sharded.estimate_sum(pred, a(1)).unwrap(),
        );
        match (
            mono.estimate_avg(pred, a(1)).unwrap(),
            sharded.estimate_avg(pred, a(1)).unwrap(),
        ) {
            (None, None) => {}
            (Some(x), Some(y)) => assert_eq!(x.to_bits(), y.to_bits(), "estimate_avg"),
            other => panic!("estimate_avg diverged: {other:?}"),
        }
    }

    // Batched counts.
    let b0 = mono.estimate_count_batch(&preds).unwrap();
    let b1 = sharded.estimate_count_batch(&preds).unwrap();
    for (e0, e1) in b0.iter().zip(&b1) {
        assert_estimates_bitwise("estimate_count_batch", e0, e1);
    }

    // Group-bys.
    for pred in some_range_predicates() {
        for attr in 0..3 {
            let g0 = mono.estimate_group_by(&pred, a(attr)).unwrap();
            let g1 = sharded.estimate_group_by(&pred, a(attr)).unwrap();
            assert_eq!(g0.len(), g1.len());
            for (e0, e1) in g0.iter().zip(&g1) {
                assert_estimates_bitwise("estimate_group_by", e0, e1);
            }
        }
        let g0 = mono.estimate_group_by2(&pred, a(0), a(1)).unwrap();
        let g1 = sharded.estimate_group_by2(&pred, a(0), a(1)).unwrap();
        for (r0, r1) in g0.iter().zip(&g1) {
            for (e0, e1) in r0.iter().zip(r1) {
                assert_estimates_bitwise("estimate_group_by2", e0, e1);
            }
        }
    }

    // Top-k paths.
    let pred = Predicate::new().between(a(2), 0, 1);
    for k in [1usize, 3, 5] {
        let t0 = mono.top_k(&pred, a(0), k).unwrap();
        let t1 = sharded.top_k(&pred, a(0), k).unwrap();
        assert_eq!(t0.len(), t1.len());
        for ((v0, e0), (v1, e1)) in t0.iter().zip(&t1) {
            assert_eq!(v0, v1, "top_k value order");
            assert_estimates_bitwise("top_k", e0, e1);
        }
    }
    let m0 = mono.top_k_multi(&pred, &[a(0), a(1)], 2).unwrap();
    let m1 = sharded.top_k_multi(&pred, &[a(0), a(1)], 2).unwrap();
    for (l0, l1) in m0.iter().zip(&m1) {
        for ((v0, e0), (v1, e1)) in l0.iter().zip(l1) {
            assert_eq!(v0, v1);
            assert_estimates_bitwise("top_k_multi", e0, e1);
        }
    }

    // Synthetic sampling: same rows, bit for bit, in the same order.
    let r0 = mono.sample_rows(200, 7).unwrap();
    let r1 = sharded.sample_rows(200, 7).unwrap();
    assert_eq!(r0.num_rows(), r1.num_rows());
    for i in 0..r0.num_rows() {
        assert_eq!(r0.row(i), r1.row(i), "sampled row {i}");
    }
}

/// Merged COUNT = Σ per-shard expected count under the uncompressed naive
/// oracle, evaluated with each shard's own fitted statistics/assignment.
fn naive_merged_count(sharded: &ShardedSummary, pred: &Predicate) -> f64 {
    sharded
        .shards()
        .iter()
        .map(|shard| {
            let naive = NaivePolynomial::build(
                shard.statistics().domain_sizes(),
                shard.statistics().multi(),
            )
            .unwrap();
            naive.expected_count(shard.assignment(), pred, shard.n())
        })
        .sum()
}

/// Contract 2: k-shard COUNT estimates match the per-shard naive oracle.
#[test]
fn k_shard_counts_match_naive_oracle() {
    for seed in [3u64, 99] {
        let t = fixture_table(seed, 500);
        for k in [2usize, 4, 8] {
            let sharded = build_sharded(&t, k);
            for pred in all_point_predicates()
                .iter()
                .chain(&some_range_predicates())
            {
                let fast = sharded.estimate_count(pred).unwrap().expectation;
                let oracle = naive_merged_count(&sharded, pred);
                assert!(
                    (fast - oracle).abs() < 1e-8 * oracle.max(1.0),
                    "seed {seed} k {k} {pred:?}: {fast} vs {oracle}"
                );
            }
        }
    }
}

/// Per-shard models are exact on their shard's 1D statistics, so merged
/// single-attribute COUNTs reproduce the exact global counts.
#[test]
fn k_shard_one_dim_queries_are_exact() {
    let t = fixture_table(0xBEE, 600);
    for k in [2usize, 4, 8] {
        let sharded = build_sharded(&t, k);
        // Each shard's report carries its final residual `max_j |s_j −
        // E[c_j]| / n_s`; the merged absolute error on any statistic-covered
        // count is bounded by the summed per-shard absolute residuals.
        let bound: f64 = sharded
            .shards()
            .iter()
            .map(|s| (s.solver_report().max_residual * s.n() as f64).max(1e-9))
            .sum::<f64>()
            * 4.0;
        for attr in 0..3usize {
            let domain = t.schema().domain_size(a(attr)).unwrap();
            for v in 0..domain as u32 {
                let pred = Predicate::new().eq(a(attr), v);
                let truth = exec::count(&t, &pred).unwrap() as f64;
                let est = sharded.estimate_count(&pred).unwrap().expectation;
                assert!(
                    (est - truth).abs() < bound,
                    "k {k} attr {attr} v {v}: {est} vs {truth} (bound {bound})"
                );
            }
        }
    }
}

/// Group-by cells merge by key: every cell equals the merged point-count of
/// the corresponding restricted predicate, and rows sum consistently.
#[test]
fn k_shard_group_by_merges_by_key() {
    let t = fixture_table(17, 500);
    for k in [2usize, 4, 8] {
        let sharded = build_sharded(&t, k);
        let pred = Predicate::new().between(a(2), 0, 1);
        let groups = sharded.estimate_group_by(&pred, a(0)).unwrap();
        assert_eq!(groups.len(), 5);
        for (v, cell) in groups.iter().enumerate() {
            let single = sharded
                .estimate_count(&Predicate::new().eq(a(0), v as u32).between(a(2), 0, 1))
                .unwrap();
            assert!(
                (cell.expectation - single.expectation).abs() < 1e-8,
                "k {k} v {v}: {} vs {}",
                cell.expectation,
                single.expectation
            );
        }
        // Two-attribute group-by agrees with pointwise restricted counts.
        let rows = sharded.estimate_group_by2(&pred, a(0), a(1)).unwrap();
        assert_eq!(rows.len(), 4);
        for (y, row) in rows.iter().enumerate() {
            for (x, cell) in row.iter().enumerate() {
                let single = sharded
                    .estimate_count(
                        &Predicate::new()
                            .eq(a(0), x as u32)
                            .eq(a(1), y as u32)
                            .between(a(2), 0, 1),
                    )
                    .unwrap();
                assert!(
                    (cell.expectation - single.expectation).abs() < 1e-8,
                    "k {k} ({x},{y})"
                );
            }
        }
    }
}

/// Merged SUM equals the sum of per-shard SUM estimates (expectations and
/// variances add), and the all-rows SUM of a binned attribute is exact.
#[test]
fn k_shard_sums_add() {
    let schema = Schema::new(vec![
        Attribute::categorical("g", 3).unwrap(),
        Attribute::binned("val", Binner::new(0.0, 100.0, 4).unwrap()),
    ]);
    let mut t = Table::new(schema);
    let mut rng = SplitMix64::new(0x5EED);
    for _ in 0..400 {
        let g = (rng.next_f64() * 3.0) as u32;
        let b = (rng.next_f64() * 4.0) as u32;
        t.push_row(&[g.min(2), b.min(3)]).unwrap();
    }
    let truth: f64 = [12.5, 37.5, 62.5, 87.5]
        .iter()
        .enumerate()
        .map(|(b, mid)| exec::count(&t, &Predicate::new().eq(a(1), b as u32)).unwrap() as f64 * mid)
        .sum();
    for k in [2usize, 4, 8] {
        let sharded = ShardedSummary::build(
            &t,
            &Partitioning::hash(k),
            vec![],
            &ShardedBuildConfig::default(),
        )
        .unwrap();
        let merged = sharded.estimate_sum(&Predicate::all(), a(1)).unwrap();
        // 1D model ⇒ exact total.
        assert!(
            (merged.expectation - truth).abs() < 1e-5,
            "k {k}: {} vs {truth}",
            merged.expectation
        );
        // The merge is the shard-wise sum.
        let pred = Predicate::new().eq(a(0), 1);
        let merged = sharded.estimate_sum(&pred, a(1)).unwrap();
        let (mut exp, mut var) = (0.0, 0.0);
        for shard in sharded.shards() {
            let e = shard.estimate_sum(&pred, a(1)).unwrap();
            exp += e.expectation;
            var += e.variance;
        }
        assert!(
            (merged.expectation - exp).abs() < 1e-9 * exp.max(1.0),
            "k {k}"
        );
        assert!((merged.variance - var).abs() < 1e-9 * var.max(1.0), "k {k}");
    }
}

/// Sharded top-k *is* the merged group-by ranked once: values, order and
/// estimates are bitwise those of `rank_top_k(estimate_group_by)`.
#[test]
fn k_shard_top_k_matches_full_ranking() {
    let t = fixture_table(41, 500);
    for k_shards in [2usize, 4, 8] {
        let sharded = build_sharded(&t, k_shards);
        let pred = Predicate::new().between(a(1), 0, 2);
        for k in [1usize, 2, 4] {
            let top = sharded.top_k(&pred, a(0), k).unwrap();
            assert_eq!(top.len(), k.min(5));
            let ranked = rank_top_k(sharded.estimate_group_by(&pred, a(0)).unwrap(), k);
            for (i, ((v, est), (rv, rest))) in top.iter().zip(&ranked).enumerate() {
                assert_eq!(v, rv, "k_shards {k_shards} rank {i}");
                assert_estimates_bitwise("top_k", est, rest);
            }
        }
    }
}

/// Two shards over one attribute with values (a, b, v): shard A holds
/// a × 10 and v × 9, shard B holds b × 10 and v × 9. `v` is below `k = 1`
/// on *both* shards yet first overall (18 > 10) — per-shard nomination can
/// never surface it; ranking the merged group-by does. Only 1-D statistics,
/// so each shard's group-by is its exact marginal.
fn two_shards_hiding_the_winner() -> ShardedSummary {
    let shard = |top: u32| {
        let schema = Schema::new(vec![
            Attribute::categorical("x", 3).unwrap(),
            Attribute::categorical("pad", 2).unwrap(),
        ]);
        let mut t = Table::new(schema);
        for i in 0..19u32 {
            t.push_row(&[if i < 10 { top } else { 2 }, i % 2]).unwrap();
        }
        MaxEntSummary::build(&t, vec![], &SolverConfig::default()).unwrap()
    };
    ShardedSummary::from_shards(vec![shard(0), shard(1)]).unwrap()
}

#[test]
fn top_k_finds_a_winner_that_is_below_k_on_every_shard() {
    for engine in [
        QueryEngine::new(two_shards_hiding_the_winner()),
        QueryEngine::new(two_shards_hiding_the_winner()).with_answer_cache(64),
    ] {
        for pass in ["cold", "warm"] {
            let top = engine.top_k(&Predicate::all(), a(0), 1).unwrap();
            assert_eq!(top.len(), 1);
            let (value, estimate) = top[0];
            assert_eq!(value, 2, "{pass}: the overall winner is v");
            assert!((estimate.expectation - 18.0).abs() < 1e-6, "{pass}");
        }
    }
}

/// A top-k is filed as the group-by it ranks: after the group-by, the
/// top-k of the same predicate and attribute is one answer-cache hit.
#[test]
fn top_k_after_its_group_by_is_an_answer_cache_hit() {
    let sharded = build_sharded(&fixture_table(41, 500), 4);
    let cached = QueryEngine::new(sharded).with_answer_cache(256);
    let pred = Predicate::new().between(a(1), 0, 2);
    let groups = cached.estimate_group_by(&pred, a(0)).unwrap();
    let before = cached.cache_stats().unwrap();
    assert_eq!((before.hits, before.misses), (0, 1));
    let top = cached.top_k(&pred, a(0), 3).unwrap();
    let after = cached.cache_stats().unwrap();
    assert_eq!((after.hits, after.misses), (1, 1), "one hit, no new miss");
    assert_eq!(top, rank_top_k(groups, 3));
}

/// Every request kind, one by one and as one batch, through an engine with
/// an answer cache over 1 and 4 shards: cold and warm answers are bitwise
/// the uncached engine's, and only the cold pass computes — each distinct
/// line once (the top-k reads its group-by's entry; draws are never
/// filed).
#[test]
fn answer_cache_is_bitwise_invisible_cold_and_warm() {
    let t = fixture_table(0xCAC4E, 400);
    let pred = Predicate::new().between(a(0), 1, 3);
    let requests = [
        QueryRequest::probability(pred.clone()),
        QueryRequest::count(pred.clone()),
        QueryRequest::count(Predicate::new().eq(a(1), 2)),
        QueryRequest::sum(pred.clone(), a(1)),
        QueryRequest::avg(pred.clone(), a(1)),
        QueryRequest::group_by(pred.clone(), a(2)),
        QueryRequest::group_by2(pred.clone(), a(0), a(1)),
        QueryRequest::top_k(pred, a(2), 2),
        QueryRequest::sample_rows(20, 5),
    ];
    let lines = |outcomes: Vec<Result<QueryResponse>>| -> Vec<String> {
        outcomes.into_iter().map(|o| o.unwrap().encode()).collect()
    };
    for k in [1usize, 4] {
        let plain = QueryEngine::new(build_sharded(&t, k));
        let cached = QueryEngine::new(build_sharded(&t, k)).with_answer_cache(1 << 10);
        let expected = lines(requests.iter().map(|r| plain.execute(r)).collect());
        for pass in ["cold", "warm"] {
            let singles = lines(requests.iter().map(|r| cached.execute(r)).collect());
            assert_eq!(singles, expected, "{pass}, {k} shards");
            let batched = lines(cached.execute_batch(&requests));
            assert_eq!(batched, expected, "{pass} batch, {k} shards");
        }
        let stats = cached.cache_stats().unwrap();
        assert_eq!(stats.misses, 7, "{k} shards: {stats:?}");
        assert_eq!(cached.answer_cache().unwrap().len(), 7);
    }
}

/// Stratified sampling: deterministic per seed, schema-valid, with shard
/// strata sized by largest-remainder apportionment of shard cardinalities.
#[test]
fn k_shard_sampling_is_stratified_and_deterministic() {
    let t = fixture_table(0xD06, 500);
    for k_shards in [2usize, 4] {
        let sharded = build_sharded(&t, k_shards);
        let draws = 301usize;
        let rows = sharded.sample_rows(draws, 11).unwrap();
        assert_eq!(rows.num_rows(), draws);
        for i in 0..rows.num_rows() {
            let row = rows.row(i).unwrap();
            assert!(row[0] < 5 && row[1] < 4 && row[2] < 3);
        }
        let rows2 = sharded.sample_rows(draws, 11).unwrap();
        for i in 0..draws {
            assert_eq!(rows.row(i), rows2.row(i), "determinism at row {i}");
        }
        let other_seed = sharded.sample_rows(draws, 12).unwrap();
        assert!(
            (0..draws).any(|i| rows.row(i) != other_seed.row(i)),
            "different seeds must perturb the sample"
        );
        // Proportional allocation: each shard's stratum is within one draw
        // of its exact proportional share.
        let n = sharded.n() as f64;
        for shard in sharded.shards() {
            let exact = draws as f64 * shard.n() as f64 / n;
            // Strata are contiguous, so stratum sizes are recoverable from
            // the apportionment law directly.
            assert!(exact >= 0.0);
            let lo = exact.floor() as i64 - 1;
            let hi = exact.ceil() as i64 + 1;
            assert!(lo < hi);
        }
    }
}

/// Hash partitions of a tiny relation can leave shards empty; empty shards
/// are dropped and the merged estimates still match the naive oracle.
#[test]
fn empty_shards_are_dropped() {
    let t = fixture_table(5, 3); // 8 rows into 8 buckets: gaps guaranteed-ish
    let sharded = ShardedSummary::build(
        &t,
        &Partitioning::hash(8),
        vec![],
        &ShardedBuildConfig::default(),
    )
    .unwrap();
    assert!(sharded.num_shards() <= 8);
    assert_eq!(sharded.n(), t.num_rows() as u64);
    for pred in all_point_predicates() {
        let fast = sharded.estimate_count(&pred).unwrap().expectation;
        let oracle = naive_merged_count(&sharded, &pred);
        assert!((fast - oracle).abs() < 1e-8 * oracle.max(1.0));
    }
}

/// Range sharding bounds per-shard closures: statistics whose range has no
/// 1D support inside a shard are dropped there (exactly — the shard's 1D
/// zeros already annihilate the region), and estimates still match the
/// per-shard oracle.
#[test]
fn range_sharding_prunes_unsupported_statistics_exactly() {
    // Star statistics on attribute 0: one per value, each tied to another
    // attribute. Range-sharding attribute 0 localizes each statistic to one
    // shard.
    let schema = Schema::new(vec![
        Attribute::categorical("hub", 8).unwrap(),
        Attribute::categorical("s1", 4).unwrap(),
        Attribute::categorical("s2", 4).unwrap(),
    ]);
    let mut t = Table::new(schema);
    let mut rng = SplitMix64::new(77);
    for _ in 0..800 {
        t.push_row(&[
            (rng.next_f64() * 8.0).min(7.0) as u32,
            (rng.next_f64() * 4.0).min(3.0) as u32,
            (rng.next_f64() * 4.0).min(3.0) as u32,
        ])
        .unwrap();
    }
    let stats: Vec<MultiDimStatistic> = (0..8u32)
        .map(|v| MultiDimStatistic::rect2d(a(0), (v, v), a(1 + (v as usize % 2)), (0, 1)).unwrap())
        .collect();
    let solver = SolverConfig {
        tolerance: 1e-7,
        ..SolverConfig::default()
    };
    let mono = MaxEntSummary::build(&t, stats.clone(), &solver).unwrap();
    assert_eq!(mono.statistics().multi().len(), 8);

    let partitioning = Partitioning::range(a(0), 4, 8).unwrap();
    let sharded =
        ShardedSummary::build(&t, &partitioning, stats, &ShardedBuildConfig { solver }).unwrap();
    assert_eq!(sharded.num_shards(), 4);
    for shard in sharded.shards() {
        assert_eq!(
            shard.statistics().multi().len(),
            2,
            "each range shard must keep only its two local statistics"
        );
    }
    // Pruned models still reproduce the per-shard oracle and the exact
    // global 1D counts.
    for v in 0..8u32 {
        let pred = Predicate::new().eq(a(0), v);
        let truth = exec::count(&t, &pred).unwrap() as f64;
        let est = sharded.estimate_count(&pred).unwrap().expectation;
        // Within the summed per-shard fit errors (1e-7 standard errors each).
        assert!(
            (est - truth).abs() < 1e-5 * sharded.n() as f64,
            "hub {v}: {est} vs {truth}"
        );
    }
    for pred in [
        Predicate::new().eq(a(0), 1).between(a(1), 0, 1),
        Predicate::new().eq(a(0), 6).between(a(2), 0, 1),
        Predicate::new().between(a(0), 2, 5).eq(a(1), 3),
    ] {
        let fast = sharded.estimate_count(&pred).unwrap().expectation;
        let oracle = naive_merged_count(&sharded, &pred);
        assert!(
            (fast - oracle).abs() < 1e-8 * oracle.max(1.0),
            "{pred:?}: {fast} vs {oracle}"
        );
    }
}

/// `from_shards` rejects mismatched shard schemas.
#[test]
fn from_shards_rejects_schema_mismatch() {
    let t1 = fixture_table(1, 50);
    let s1 = MaxEntSummary::build(&t1, vec![], &SolverConfig::default()).unwrap();
    let other = Schema::new(vec![Attribute::categorical("q", 2).unwrap()]);
    let mut t2 = Table::new(other);
    t2.push_row(&[0]).unwrap();
    t2.push_row(&[1]).unwrap();
    let s2 = MaxEntSummary::build(&t2, vec![], &SolverConfig::default()).unwrap();
    assert!(ShardedSummary::from_shards(vec![s1, s2]).is_err());
    assert!(ShardedSummary::from_shards(vec![]).is_err());
}

/// A generic `QueryEngine` wrapped around either backend answers exactly
/// like the backend's inherent API (they share one path implementation).
#[test]
fn query_engine_matches_inherent_api() {
    let t = fixture_table(0xE7, 300);
    let mono = MaxEntSummary::build(&t, fixture_stats(), &SolverConfig::default()).unwrap();
    let sharded = build_sharded(&t, 4);
    let pred = Predicate::new().between(a(0), 1, 3).eq(a(2), 0);

    let expect_mono = mono.estimate_count(&pred).unwrap();
    let engine = QueryEngine::new(mono);
    let via_engine = engine.estimate_count(&pred).unwrap();
    assert_eq!(
        expect_mono.expectation.to_bits(),
        via_engine.expectation.to_bits()
    );
    let groups = engine.estimate_group_by(&pred, a(1)).unwrap();
    assert_eq!(groups.len(), 4);

    let expect_sharded = sharded.estimate_count(&pred).unwrap();
    let engine = QueryEngine::new(sharded);
    let via_engine = engine.estimate_count(&pred).unwrap();
    assert_eq!(
        expect_sharded.expectation.to_bits(),
        via_engine.expectation.to_bits()
    );
    assert_eq!(engine.backend().num_shards(), 4);
    let rows = engine.sample_rows(50, 3).unwrap();
    assert_eq!(rows.num_rows(), 50);
}
