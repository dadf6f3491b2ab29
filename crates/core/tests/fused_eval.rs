//! Property suite for the batch paths.
//!
//! The batch probes (`ProbabilityMany` / `CountMany`, one wire line per
//! batch) and the batch-partitioning `execute_batch` path both promise the
//! same thing: answers **bitwise-identical** to sequential per-mask
//! evaluation, on every backend and at every thread count. A tree
//! component answers a batch in lane groups of up to eight masks, one
//! message-passing walk per group, so the models here include tree-shaped
//! statistics (stars, chains, forests, a tree beside a closure) and the
//! batches take every length that splits into lane groups differently,
//! with masks of every kind a lane can carry. These tests exercise that
//! promise on SplitMix64/StdRng-seeded random configurations (crates.io is
//! unreachable, so no `proptest` — see `proptests.rs`).

use entropydb_core::engine::{QueryEngine, SummaryBackend};
use entropydb_core::ingest::{IngestConfig, LiveSummary};
use entropydb_core::plan::{QueryRequest, QueryResponse};
use entropydb_core::prelude::*;
use entropydb_core::sharded::{ShardedBuildConfig, ShardedSummary};
use entropydb_core::solver::SolverConfig;
use entropydb_core::statistics::{MultiDimStatistic, RangeClause};
use entropydb_storage::{AttrId, Attribute, Partitioning, Predicate, Schema, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[path = "support/probes.rs"]
mod probes;

fn a(i: usize) -> AttrId {
    AttrId(i)
}

/// Batch lengths that split into lane groups differently (`L` = 8 lanes):
/// none, 1, 2, 3, `L − 1`, `L`, `L + 1`, `2L + 1`, a dashboard's 16, and 33
/// (more than one remote frame of 32 masks).
const BATCH_LENGTHS: [usize; 10] = [0, 1, 2, 3, 7, 8, 9, 17, 16, 33];

/// The statistics a random model carries.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// One random rectangle over two or more attributes.
    Random,
    /// Disjoint rectangle grids on pairs around a hub: a tree.
    Star,
    /// Grids on consecutive pairs: a tree.
    Chain,
    /// Grids on two separate pairs, the fifth attribute free: two trees.
    Forest,
    /// A grid pair beside a triangle of pairs: a tree and a closure.
    Mixed,
}

const SHAPES: [Shape; 5] = [
    Shape::Random,
    Shape::Star,
    Shape::Chain,
    Shape::Forest,
    Shape::Mixed,
];

/// A random rectangle statistic over ≥ 2 distinct attributes of `sizes`.
fn random_stat(g: &mut StdRng, sizes: &[usize]) -> MultiDimStatistic {
    let m = sizes.len();
    let arity = g.gen_range(2..m + 1);
    let mut attrs: Vec<usize> = (0..m).collect();
    for i in 0..arity {
        let j = g.gen_range(i..m);
        attrs.swap(i, j);
    }
    attrs.truncate(arity);
    attrs.sort_unstable();
    let clauses = attrs
        .iter()
        .map(|&at| {
            let n = sizes[at] as u32;
            let lo = g.gen_range(0..n);
            let hi = g.gen_range(lo..n);
            RangeClause {
                attr: a(at),
                lo,
                hi,
            }
        })
        .collect();
    MultiDimStatistic::new(clauses).expect("valid statistic")
}

/// A random conjunctive range predicate over the domain sizes.
fn random_predicate(g: &mut StdRng, sizes: &[usize]) -> Predicate {
    let mut p = Predicate::new();
    for _ in 0..g.gen_range(0..3) {
        let attr = g.gen_range(0..sizes.len());
        let n = sizes[attr] as u32;
        let x = g.gen_range(0..6).min(n - 1);
        let y = g.gen_range(0..6).min(n - 1);
        p = p.between(a(attr), x.min(y), x.max(y));
    }
    p
}

/// Pairwise-disjoint rectangles on `(x, y)`: a random subset (never empty)
/// of the cells of a random grid.
fn disjoint_grid(g: &mut StdRng, sizes: &[usize], x: usize, y: usize) -> Vec<MultiDimStatistic> {
    let intervals = |g: &mut StdRng, n: usize| {
        let mut out = Vec::new();
        let mut lo = 0;
        while lo < n {
            let hi = g.gen_range(lo..n);
            out.push((lo as u32, hi as u32));
            lo = hi + 1;
        }
        out
    };
    let (xs, ys) = (intervals(g, sizes[x]), intervals(g, sizes[y]));
    let keep = g.gen_range(0..xs.len() * ys.len());
    let mut stats = Vec::new();
    for (i, &ix) in xs.iter().enumerate() {
        for (j, &iy) in ys.iter().enumerate() {
            if i * ys.len() + j == keep || g.gen_range(0..4) > 0 {
                stats.push(MultiDimStatistic::rect2d(a(x), ix, a(y), iy).unwrap());
            }
        }
    }
    stats
}

/// The statistics of a random model of `shape` over `sizes` (five
/// attributes).
fn random_stats(g: &mut StdRng, sizes: &[usize], shape: Shape) -> Vec<MultiDimStatistic> {
    let pairs: &[(usize, usize)] = match shape {
        Shape::Random => return vec![random_stat(g, sizes)],
        Shape::Star => &[(0, 1), (0, 2), (0, 3)],
        Shape::Chain => &[(0, 1), (1, 2), (2, 3), (3, 4)],
        Shape::Forest => &[(0, 1), (2, 3)],
        Shape::Mixed => &[(0, 1), (2, 3), (3, 4)],
    };
    let mut stats: Vec<MultiDimStatistic> = pairs
        .iter()
        .flat_map(|&(x, y)| disjoint_grid(g, sizes, x, y))
        .collect();
    if let Shape::Mixed = shape {
        // The pair (2, 4) closes the triangle 2–3–4.
        stats.push(MultiDimStatistic::rect2d(a(2), (0, 0), a(4), (0, 0)).unwrap());
    }
    stats
}

/// A random batch of `count` masks, drawn with repeats from a pool of
/// every kind a lane carries: the identity, point and range predicates
/// (runs of ones, other attributes unconstrained), fractional SUM-style
/// weights, an all-zero weight row, and `-0.0` spellings of zero weights.
fn random_masks(g: &mut StdRng, sizes: &[usize], count: usize) -> Vec<Mask> {
    let m = sizes.len();
    let mut pool = vec![Mask::identity(m)];
    for _ in 0..6 {
        let mask = match g.gen_range(0..3) {
            0 => {
                let attr = g.gen_range(0..m);
                let v = g.gen_range(0..sizes[attr] as u32);
                Mask::from_predicate(&Predicate::new().eq(a(attr), v), sizes).unwrap()
            }
            _ => Mask::from_predicate(&random_predicate(g, sizes), sizes).unwrap(),
        };
        pool.push(mask);
    }
    let attr = g.gen_range(0..m);
    let values: Vec<f64> = (0..sizes[attr]).map(|_| g.gen_range(0.0..20.0)).collect();
    pool.push(pool[1].clone().scale_attr(a(attr), &values).unwrap());
    let attr = g.gen_range(0..m);
    pool.push(
        pool[2]
            .clone()
            .scale_attr(a(attr), &vec![0.0; sizes[attr]])
            .unwrap(),
    );
    let negative_zeros = |mask: &Mask| {
        let flip = |w: &[f64]| w.iter().map(|&x| if x == 0.0 { -0.0 } else { x }).collect();
        Mask::from_weights((0..m).map(|i| mask.attr_weights(i).map(flip)).collect())
    };
    let twins: Vec<Mask> = pool.iter().map(negative_zeros).collect();
    pool.extend(twins);
    (0..count)
        .map(|_| pool[g.gen_range(0..pool.len())].clone())
        .collect()
}

fn random_table(g: &mut StdRng) -> Table {
    let sizes: Vec<usize> = (0..5).map(|_| g.gen_range(2..6)).collect();
    let rows = g.gen_range(30..120);
    let schema = Schema::new(
        sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| Attribute::categorical(format!("a{i}"), n).unwrap())
            .collect(),
    );
    let mut t = Table::new(schema);
    for _ in 0..rows {
        let row: Vec<u32> = sizes.iter().map(|&n| g.gen_range(0..n as u32)).collect();
        t.push_row(&row).unwrap();
    }
    t
}

/// `stats` without those covering every row of `table`, which the solver's
/// coordinate update cannot fit.
fn non_degenerate(table: &Table, mut stats: Vec<MultiDimStatistic>) -> Vec<MultiDimStatistic> {
    while let Err(ModelError::DegenerateStatistic { stat }) =
        Statistics::observe(table, stats.clone())
    {
        stats.remove(stat);
    }
    stats
}

/// The three backends over one table and statistics: monolithic, sharded
/// four ways by hash, and live over those four shards.
fn backends(
    table: &Table,
    stats: &[MultiDimStatistic],
) -> (MaxEntSummary, ShardedSummary, LiveSummary) {
    let mono = MaxEntSummary::build(table, stats.to_vec(), &SolverConfig::default()).unwrap();
    let sharded = || {
        ShardedSummary::build(
            table,
            &Partitioning::hash(4),
            stats.to_vec(),
            &ShardedBuildConfig::default(),
        )
        .unwrap()
    };
    let config = IngestConfig {
        background: false,
        ..IngestConfig::default()
    };
    let live =
        LiveSummary::new(sharded(), stats.to_vec(), SolverConfig::default(), config).unwrap();
    (mono, sharded(), live)
}

/// Backend level: the batched primitives of the monolithic, sharded (1 and
/// 4 shards) and live (over the 4 shards) backends are bitwise-identical to
/// the per-mask loop, across thread counts, for every model shape and
/// every lane-splitting batch length.
#[test]
fn batched_backend_primitives_bitwise_match_loop_across_threads() {
    let mut g = StdRng::seed_from_u64(73);
    let (mut tree_models, mut on_tree_kernel) = (0, 0);
    for shape in SHAPES {
        for len in BATCH_LENGTHS {
            let table = random_table(&mut g);
            let sizes = table.schema().domain_sizes();
            let stats = non_degenerate(&table, random_stats(&mut g, &sizes, shape));
            let masks = random_masks(&mut g, &sizes, len);

            let (mono, sharded, live) = backends(&table, &stats);
            if !matches!(shape, Shape::Random) {
                tree_models += 1;
                on_tree_kernel += usize::from(mono.size_stats().tree_components > 0);
            }
            check_backend(&mono, &masks);
            check_backend(&sharded, &masks);
            check_backend(&live, &masks);
            let one_shard = ShardedSummary::build(
                &table,
                &Partitioning::hash(1),
                stats.clone(),
                &ShardedBuildConfig::default(),
            )
            .unwrap();
            check_backend(&one_shard, &masks);
        }
    }
    assert!(
        2 * on_tree_kernel > tree_models,
        "{on_tree_kernel} of {tree_models} tree-shaped models on the tree kernel"
    );
}

/// Asserts the batch probes (`ProbabilityMany` / `CountMany`) equal the
/// sequential per-mask loop bitwise on `backend`.
fn check_backend<B: SummaryBackend>(backend: &B, masks: &[Mask]) {
    let sequential = probes::per_mask_answers(backend, masks);
    let batched = probes::batched_answers(backend, masks);
    let backend = std::any::type_name::<B>();
    assert_eq!(batched, sequential, "{backend} batch");
}

/// `execute_batch` partitions mask-level requests onto the batch probes and
/// everything else onto the per-request path — element `i` stays exactly
/// `execute(&requests[i])`, with per-request errors in place — on the
/// monolithic, sharded and live backends of every model shape.
#[test]
fn execute_batch_matches_execute_with_errors_in_place() {
    let mut g = StdRng::seed_from_u64(75);
    for shape in SHAPES {
        let table = random_table(&mut g);
        let sizes = table.schema().domain_sizes();
        let stats = non_degenerate(&table, random_stats(&mut g, &sizes, shape));
        let mut requests = Vec::new();
        for _ in 0..g.gen_range(20..60) {
            let pred = random_predicate(&mut g, &sizes);
            requests.push(match g.gen_range(0..6) {
                0 | 1 => QueryRequest::Probability { pred },
                2 | 3 => QueryRequest::Count { pred },
                4 => QueryRequest::GroupBy { pred, attr: a(0) },
                _ => QueryRequest::Sum { pred, attr: a(1) },
            });
        }
        // Invalid requests of both batched kinds, in the middle of the batch.
        requests.insert(
            5,
            QueryRequest::Probability {
                pred: Predicate::new().eq(a(9), 0),
            },
        );
        requests.insert(
            11,
            QueryRequest::Count {
                pred: Predicate::new().eq(a(0), 99),
            },
        );
        let (mono, sharded, live) = backends(&table, &stats);
        check_execute_batch(&QueryEngine::new(mono), &requests);
        check_execute_batch(&QueryEngine::new(sharded), &requests);
        check_execute_batch(&QueryEngine::new(live), &requests);
    }
}

/// Asserts `engine.execute_batch(requests)` is `execute` per request, bit
/// for bit, with the invalid slots 5 and 11 failing in place.
fn check_execute_batch<B: SummaryBackend>(engine: &QueryEngine<B>, requests: &[QueryRequest]) {
    let batch = engine.execute_batch(requests);
    assert_eq!(batch.len(), requests.len());
    for (i, (request, got)) in requests.iter().zip(&batch).enumerate() {
        let single = engine.execute(request);
        match (got, &single) {
            (Ok(b), Ok(s)) => assert_eq!(response_bits(b), response_bits(s), "slot {i}"),
            (Err(_), Err(_)) => {}
            other => panic!("slot {i}: batch vs single disagree on outcome: {other:?}"),
        }
    }
    assert!(batch[5].is_err(), "invalid probability slot");
    assert!(batch[11].is_err(), "invalid count slot");
}

/// A bitwise fingerprint of a query response.
fn response_bits(resp: &QueryResponse) -> Vec<u64> {
    match resp {
        QueryResponse::Probability(p) => vec![p.to_bits()],
        QueryResponse::Estimate(e) => vec![e.expectation.to_bits(), e.variance.to_bits()],
        QueryResponse::Groups(groups) => groups
            .iter()
            .flat_map(|e| [e.expectation.to_bits(), e.variance.to_bits()])
            .collect(),
        other => panic!("unexpected response shape {other:?}"),
    }
}
