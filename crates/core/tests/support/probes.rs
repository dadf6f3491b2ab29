//! The one probe table: every [`ProbeRequest`] variant, asserted bitwise
//! across backends. `probe_ir.rs` runs it over the in-process backends
//! (monolithic = 1-shard sharded, k-shard sharded = live over k base
//! shards), `crates/server/tests/remote_parity.rs` over k served shards.

// Each test target compiles its own copy of this module and uses a
// different subset of it.
#![allow(dead_code)]

use entropydb_core::assignment::Mask;
use entropydb_core::engine::{QueryEngine, SummaryBackend};
use entropydb_core::plan::QueryRequest;
use entropydb_core::probe::{ProbeRequest, ProbeResponse};
use entropydb_storage::{AttrId, Predicate};

/// Draw count and seed of the table's sample probes.
const DRAW: (usize, u64) = (40, 99);

/// Forty masks over a schema of at least three attributes with at least
/// three values each — more than one remote batch frame (32): the identity,
/// a multi-attribute mask (the kernel), a single-attribute point mask (the
/// marginal cache) and an unsatisfiable one, in rotation.
pub fn batch_masks(sizes: &[usize]) -> Vec<Mask> {
    let a = AttrId;
    let mask = |pred: &Predicate| Mask::from_predicate(pred, sizes).unwrap();
    let rotation = [
        mask(&Predicate::all()),
        mask(&Predicate::new().eq(a(0), 1).between(a(2), 1, 2)),
        mask(&Predicate::new().eq(a(1), 2)),
        mask(&Predicate::new().in_set(a(1), vec![])),
    ];
    rotation.iter().cycle().take(40).cloned().collect()
}

/// All seven variants: scalar probes over each kind of [`batch_masks`]
/// mask, the batches whole and empty, and a sparse out-of-order draw
/// beside the full one.
pub fn probe_table(sizes: &[usize]) -> Vec<ProbeRequest> {
    let a = AttrId;
    let many = batch_masks(sizes);
    let [_, range, point, never] = [0, 1, 2, 3].map(|i| many[i].clone());
    let (k, seed) = DRAW;
    vec![
        ProbeRequest::Probability {
            mask: range.clone(),
        },
        ProbeRequest::Probability { mask: point },
        ProbeRequest::Count {
            mask: range.clone(),
        },
        ProbeRequest::Count { mask: never },
        ProbeRequest::ProbabilityMany {
            masks: many.clone(),
        },
        ProbeRequest::ProbabilityMany { masks: vec![] },
        ProbeRequest::CountMany { masks: many },
        ProbeRequest::CountMany { masks: vec![] },
        ProbeRequest::Sum {
            mask: range.clone(),
            attr: a(2),
            values: (0..sizes[2]).map(|v| v as f64 * 2.5).collect(),
        },
        ProbeRequest::GroupBy {
            mask: range,
            attr: a(1),
        },
        ProbeRequest::SampleAt {
            k,
            seed,
            indices: vec![3, 0, k as u64 - 1],
        },
        ProbeRequest::SampleAt {
            k,
            seed,
            indices: (0..k as u64).collect(),
        },
    ]
}

/// One probe on a fresh scratch; the answer must have the request's shape.
pub fn probe<B: SummaryBackend>(backend: &B, request: &ProbeRequest) -> ProbeResponse {
    let answer = backend
        .probe(request, &mut backend.make_scratch())
        .unwrap_or_else(|e| panic!("{}: {e}", request.encode()));
    assert!(answer.answers(request), "{request:?} -> {answer:?}");
    answer
}

/// Asserts `left` and `right` answer the whole table bitwise identically.
/// Answers are compared through their wire encodings, which use
/// shortest-round-trip float formatting — equal strings ⇔ equal bits.
pub fn assert_probe_parity<L: SummaryBackend, R: SummaryBackend>(left: &L, right: &R) {
    assert_eq!(left.n(), right.n());
    for request in probe_table(left.domain_sizes()) {
        assert_eq!(
            probe(left, &request).encode(),
            probe(right, &request).encode(),
            "{}",
            request.encode()
        );
    }
}

/// The wire encodings of `Probability` then `Count` of every mask, asked
/// one probe per mask.
pub fn per_mask_answers<B: SummaryBackend>(backend: &B, masks: &[Mask]) -> Vec<String> {
    let singles: [fn(Mask) -> ProbeRequest; 2] = [
        |mask| ProbeRequest::Probability { mask },
        |mask| ProbeRequest::Count { mask },
    ];
    singles
        .into_iter()
        .flat_map(|single| masks.iter().map(move |mask| single(mask.clone())))
        .map(|request| probe(backend, &request).encode())
        .collect()
}

/// What [`per_mask_answers`] returns, asked as one `ProbabilityMany` and
/// one `CountMany` probe — bitwise equal when the fused path keeps its
/// promise.
pub fn fused_answers<B: SummaryBackend>(backend: &B, masks: &[Mask]) -> Vec<String> {
    let masks = masks.to_vec();
    let ps = probe(
        backend,
        &ProbeRequest::ProbabilityMany {
            masks: masks.clone(),
        },
    );
    let es = probe(backend, &ProbeRequest::CountMany { masks });
    let (ProbeResponse::Probabilities(ps), ProbeResponse::Estimates(es)) = (ps, es) else {
        unreachable!("`probe` checked the shapes")
    };
    let ps = ps.into_iter().map(ProbeResponse::Probability);
    let es = es.into_iter().map(ProbeResponse::Estimate);
    ps.chain(es).map(|answer| answer.encode()).collect()
}

/// Asserts a sparse, out-of-order `SampleAt` through the served probe path
/// equals those rows of the full `sample_rows(k, seed)` draw.
pub fn assert_sparse_sample_matches_full_draw<B: SummaryBackend>(engine: &QueryEngine<B>) {
    let (k, seed) = DRAW;
    let full = engine
        .execute(&QueryRequest::sample_rows(k, seed))
        .unwrap()
        .rows()
        .expect("a sample request answers rows")
        .1;
    assert_eq!(full.len(), k);
    let sparse = ProbeRequest::SampleAt {
        k,
        seed,
        indices: vec![3, 0, k as u64 - 1],
    };
    let rows = Vec::<Vec<u32>>::try_from(engine.probe(&sparse).unwrap()).unwrap();
    assert_eq!(rows, [&full[3][..], &full[0][..], &full[k - 1][..]]);
}
