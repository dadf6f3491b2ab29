//! Property suite for the fused multi-mask evaluation paths.
//!
//! The fused kernel (`eval_masked_many_with`), the batch probes
//! (`ProbabilityMany` / `CountMany`), the marginal cache, and the batch-partitioning `execute_batch` path all
//! promise the same thing: answers **bitwise-identical** to sequential
//! per-mask evaluation, on every backend and at every thread count. These
//! tests exercise that promise on SplitMix64/StdRng-seeded random
//! configurations (crates.io is unreachable, so no `proptest` — see
//! `proptests.rs`).

use entropydb_core::engine::{QueryEngine, SummaryBackend};
use entropydb_core::plan::{QueryRequest, QueryResponse};
use entropydb_core::polynomial::MAX_FUSED_LANES;
use entropydb_core::prelude::*;
use entropydb_core::sharded::{ShardedBuildConfig, ShardedSummary};
use entropydb_core::statistics::{MultiDimStatistic, RangeClause};
use entropydb_core::{assignment::VarAssignment, par, solver::SolverConfig};
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

/// A random mask batch mixing range masks, point masks, and the identity —
/// sized to straddle the `MAX_FUSED_LANES` chunk boundary.
fn random_masks(g: &mut StdRng, sizes: &[usize]) -> Vec<Mask> {
    let count = g.gen_range(1..2 * MAX_FUSED_LANES + 8);
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

/// Kernel level: `eval_masked_many_with` on the compressed and factorized
/// polynomials is bitwise-identical to the sequential per-mask
/// `eval_masked_with`, for arbitrary batch sizes straddling the lane
/// width, across thread counts (one test fn — `par::set_max_threads` is
/// process-global).
#[test]
fn fused_kernel_bitwise_matches_sequential_across_threads() {
    let mut g = StdRng::seed_from_u64(71);
    for _ in 0..48 {
        let m = g.gen_range(2..5);
        let sizes: Vec<usize> = (0..m).map(|_| g.gen_range(1..6)).collect();
        let stats: Vec<MultiDimStatistic> = (0..g.gen_range(0..5))
            .map(|_| random_stat(&mut g, &sizes))
            .collect();
        let assignment = VarAssignment {
            one_dim: sizes
                .iter()
                .map(|&n| (0..n).map(|_| g.gen_range(0.0..2.0)).collect())
                .collect(),
            multi: (0..stats.len()).map(|_| g.gen_range(0.0..3.0)).collect(),
        };
        let comp = CompressedPolynomial::build(&sizes, &stats).unwrap();
        let fact = FactorizedPolynomial::build(&sizes, &stats).unwrap();
        let masks = random_masks(&mut g, &sizes);

        let mut cs = comp.make_scratch();
        let mut fs = fact.make_scratch();
        let seq_comp: Vec<u64> = masks
            .iter()
            .map(|mk| comp.eval_masked_with(&assignment, mk, &mut cs).to_bits())
            .collect();
        let seq_fact: Vec<u64> = masks
            .iter()
            .map(|mk| fact.eval_masked_with(&assignment, mk, &mut fs).to_bits())
            .collect();

        let mut reference: Option<(Vec<u64>, Vec<u64>)> = None;
        for threads in [1usize, 2, 4, 8] {
            par::set_max_threads(threads);
            let mut out_c = vec![0.0; masks.len()];
            comp.eval_masked_many_with(&assignment, &masks, &mut cs, &mut out_c);
            let mut out_f = vec![0.0; masks.len()];
            fact.eval_masked_many_with(&assignment, &masks, &mut fs, &mut out_f);
            par::set_max_threads(0);
            let bits_c: Vec<u64> = out_c.iter().map(|v| v.to_bits()).collect();
            let bits_f: Vec<u64> = out_f.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                bits_c, seq_comp,
                "compressed fused vs sequential @ {threads}"
            );
            assert_eq!(
                bits_f, seq_fact,
                "factorized fused vs sequential @ {threads}"
            );
            match &reference {
                None => reference = Some((bits_c, bits_f)),
                Some((rc, rf)) => {
                    assert_eq!(&bits_c, rc, "thread-count variance (compressed)");
                    assert_eq!(&bits_f, rf, "thread-count variance (factorized)");
                }
            }
        }
    }
}

/// Backend level: the batched primitives of the monolithic and sharded
/// (1 and 4 shards) backends are bitwise-identical to the per-mask loop,
/// across thread counts.
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
        }
    }
}

/// Asserts the fused batch probes (`ProbabilityMany` / `CountMany`) equal
/// the sequential per-mask loop bitwise on `backend`, at every thread count.
fn check_backend<B: SummaryBackend>(backend: &B, masks: &[Mask]) {
    let sequential = probes::per_mask_answers(backend, masks);
    for threads in [1usize, 2, 4, 8] {
        par::set_max_threads(threads);
        let fused = probes::fused_answers(backend, masks);
        par::set_max_threads(0);
        assert_eq!(fused, sequential, "fused batch @ {threads} threads");
    }
}

/// The marginal cache is answer-neutral: a point probe served from the
/// cache returns exactly the bits of an uncached masked evaluation, and
/// repeated probes are stable.
#[test]
fn marginal_cache_is_bitwise_neutral() {
    let mut g = StdRng::seed_from_u64(74);
    for _ in 0..12 {
        let table = random_table(&mut g);
        let sizes = table.schema().domain_sizes();
        let stats = vec![random_stat(&mut g, &sizes)];
        let summary = build_summary(&table, stats);
        let poly = summary.polynomial();
        let mut s = poly.make_scratch();
        for (attr, &n) in sizes.iter().enumerate() {
            for v in 0..n as u32 {
                let pred = Predicate::new().eq(a(attr), v);
                let mask = Mask::from_predicate(&pred, &sizes).unwrap();
                // The uncached reference: a direct masked evaluation.
                let expected = (poly.eval_masked_with(summary.assignment(), &mask, &mut s)
                    / summary.p_full())
                .clamp(0.0, 1.0);
                let first = summary.probability(&pred).unwrap();
                let second = summary.probability(&pred).unwrap();
                assert_eq!(first.to_bits(), expected.to_bits(), "attr {attr} v {v}");
                assert_eq!(second.to_bits(), expected.to_bits(), "attr {attr} v {v}");
            }
        }
    }
}

/// `execute_batch` partitions mask-level requests onto the fused path and
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
    // Invalid requests of both fused kinds, in the middle of the batch.
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
