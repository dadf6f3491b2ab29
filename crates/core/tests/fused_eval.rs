//! Property suite for the batch paths.
//!
//! The batch probes (`ProbabilityMany` / `CountMany`, one wire line per
//! batch, answered mask by mask) and the batch-partitioning
//! `execute_batch` path both promise the same thing: answers
//! **bitwise-identical** to sequential per-mask evaluation, on every
//! backend and at every thread count. These tests exercise that promise on
//! SplitMix64/StdRng-seeded random configurations (crates.io is
//! unreachable, so no `proptest` — see `proptests.rs`).

use entropydb_core::engine::{QueryEngine, SummaryBackend};
use entropydb_core::ingest::{IngestConfig, LiveSummary};
use entropydb_core::plan::{QueryRequest, QueryResponse};
use entropydb_core::prelude::*;
use entropydb_core::sharded::{ShardedBuildConfig, ShardedSummary};
use entropydb_core::statistics::{MultiDimStatistic, RangeClause};
use entropydb_core::{par, solver::SolverConfig};
use entropydb_storage::{AttrId, Attribute, Partitioning, Predicate, Schema, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[path = "support/probes.rs"]
mod probes;

fn a(i: usize) -> AttrId {
    AttrId(i)
}

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

/// A random batch of 1 to 39 masks mixing range masks, point masks, and
/// the identity — more than one remote frame (32 masks) at the top end.
fn random_masks(g: &mut StdRng, sizes: &[usize]) -> Vec<Mask> {
    let count = g.gen_range(1..40);
    (0..count)
        .map(|_| match g.gen_range(0..4) {
            0 => Mask::identity(sizes.len()),
            1 => {
                let attr = g.gen_range(0..sizes.len());
                let v = g.gen_range(0..sizes[attr] as u32);
                let pred = Predicate::new().eq(a(attr), v);
                Mask::from_predicate(&pred, sizes).unwrap()
            }
            _ => Mask::from_predicate(&random_predicate(g, sizes), sizes).unwrap(),
        })
        .collect()
}

fn random_table(g: &mut StdRng) -> Table {
    let nx = g.gen_range(3..6);
    let ny = g.gen_range(2..5);
    let nz = g.gen_range(2..4);
    let rows = g.gen_range(30..120);
    let schema = Schema::new(vec![
        Attribute::categorical("x", nx).unwrap(),
        Attribute::categorical("y", ny).unwrap(),
        Attribute::categorical("z", nz).unwrap(),
    ]);
    let mut t = Table::new(schema);
    for _ in 0..rows {
        t.push_row(&[
            g.gen_range(0..nx as u32),
            g.gen_range(0..ny as u32),
            g.gen_range(0..nz as u32),
        ])
        .unwrap();
    }
    t
}

/// Builds a summary over `stats`, falling back to the 1D-only model when a
/// random statistic happens to be degenerate (covers every row).
fn build_summary(table: &Table, stats: Vec<MultiDimStatistic>) -> MaxEntSummary {
    MaxEntSummary::build(table, stats, &SolverConfig::default())
        .or_else(|_| MaxEntSummary::build(table, vec![], &SolverConfig::default()))
        .unwrap()
}

/// Backend level: the batched primitives of the monolithic, sharded (1 and
/// 4 shards) and live (over the 4 shards) backends are bitwise-identical to
/// the per-mask loop, across thread counts.
#[test]
fn batched_backend_primitives_bitwise_match_loop_across_threads() {
    let mut g = StdRng::seed_from_u64(73);
    for _ in 0..8 {
        let table = random_table(&mut g);
        let sizes = table.schema().domain_sizes();
        let stats = vec![random_stat(&mut g, &sizes)];
        let masks = random_masks(&mut g, &sizes);

        let mono = build_summary(&table, stats.clone());
        check_backend(&mono, &masks);
        for shards in [1usize, 4] {
            let sharded = ShardedSummary::build(
                &table,
                &Partitioning::hash(shards),
                stats.clone(),
                &ShardedBuildConfig::default(),
            )
            .unwrap();
            check_backend(&sharded, &masks);
            if shards > 1 {
                let config = IngestConfig {
                    background: false,
                    ..IngestConfig::default()
                };
                let live =
                    LiveSummary::new(sharded, stats.clone(), SolverConfig::default(), config)
                        .unwrap();
                check_backend(&live, &masks);
            }
        }
    }
}

/// Asserts the batch probes (`ProbabilityMany` / `CountMany`) equal the
/// sequential per-mask loop bitwise on `backend`, at every thread count.
fn check_backend<B: SummaryBackend>(backend: &B, masks: &[Mask]) {
    let sequential = probes::per_mask_answers(backend, masks);
    for threads in [1usize, 2, 4, 8] {
        par::set_max_threads(threads);
        let batched = probes::batched_answers(backend, masks);
        par::set_max_threads(0);
        assert_eq!(batched, sequential, "batch @ {threads} threads");
    }
}

/// `execute_batch` partitions mask-level requests onto the batch probes and
/// everything else onto the per-request path — element `i` stays exactly
/// `execute(&requests[i])`, with per-request errors in place.
#[test]
fn execute_batch_matches_execute_with_errors_in_place() {
    let mut g = StdRng::seed_from_u64(75);
    let table = random_table(&mut g);
    let sizes = table.schema().domain_sizes();
    let stats = vec![random_stat(&mut g, &sizes)];
    let summary = build_summary(&table, stats);
    let engine = QueryEngine::new(summary);
    let mut requests = Vec::new();
    for _ in 0..20 {
        let pred = random_predicate(&mut g, &sizes);
        requests.push(match g.gen_range(0..4) {
            0 => QueryRequest::Probability { pred },
            1 => QueryRequest::Count { pred },
            2 => QueryRequest::GroupBy { pred, attr: a(0) },
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
    let batch = engine.execute_batch(&requests);
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
