//! The one probe table: every [`ProbeRequest`] variant, asserted bitwise
//! across backends. `probe_ir.rs` runs it over the in-process backends
//! (monolithic = 1-shard sharded, k-shard sharded = live over k base
//! shards), `crates/server/tests/remote_parity.rs` over k served shards —
//! each over a hash-partitioned relation, where no shard can be pruned, and
//! over the range-partitioned [`range_fixture`], where most are.

// Each test target compiles its own copy of this module and uses a
// different subset of it.
#![allow(dead_code)]

use entropydb_core::assignment::Mask;
use entropydb_core::engine::{QueryEngine, SummaryBackend};
use entropydb_core::plan::QueryRequest;
use entropydb_core::probe::{ProbeRequest, ProbeResponse};
use entropydb_core::query::Estimate;
use entropydb_core::scatter::{gather, ShardProbe, Support};
use entropydb_core::statistics::MultiDimStatistic;
use entropydb_storage::{AttrId, Attribute, Binner, Partitioning, Predicate, Schema, Table};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Draw count and seed of the table's sample probes.
const DRAW: (usize, u64) = (40, 99);

/// Forty masks over a schema of at least three attributes with at least
/// three values each — more than one remote batch frame (32): the identity,
/// a multi-attribute mask, a single-attribute point mask, an unsatisfiable
/// one, and the last code of attribute 2
/// and of attribute 1, in rotation. On the [`range_fixture`] those last two
/// reach one shard and none.
pub fn batch_masks(sizes: &[usize]) -> Vec<Mask> {
    let a = AttrId;
    let mask = |pred: &Predicate| Mask::from_predicate(pred, sizes).unwrap();
    let last = |attr: usize| sizes[attr] as u32 - 1;
    let rotation = [
        mask(&Predicate::all()),
        mask(&Predicate::new().eq(a(0), 1).between(a(2), 1, 2)),
        mask(&Predicate::new().eq(a(1), 2)),
        mask(&Predicate::new().in_set(a(1), vec![])),
        mask(&Predicate::new().eq(a(2), last(2))),
        mask(&Predicate::new().eq(a(1), last(1))),
    ];
    rotation.iter().cycle().take(40).cloned().collect()
}

/// A relation over (x: 3, y: 5, z: 6 bins) for range sharding on `z` three
/// ways: shard `i` holds the rows with `z ∈ {2i, 2i + 1}`, so the shards'
/// supports on `z` are disjoint, and no row carries the last code of `y` —
/// a mask on it is disjoint from *every* shard without being all zeros. One
/// 2-D statistic keeps a kernel with a multi-dimensional variable in play.
pub fn range_fixture() -> (Table, Partitioning, Vec<MultiDimStatistic>) {
    let schema = Schema::new(vec![
        Attribute::categorical("x", 3).unwrap(),
        Attribute::categorical("y", 5).unwrap(),
        Attribute::binned("z", Binner::new(0.0, 60.0, 6).unwrap()),
    ]);
    let mut table = Table::new(schema);
    let mut v = 2u32;
    for _ in 0..180 {
        table.push_row(&[v % 3, (v / 3) % 4, (v / 12) % 6]).unwrap();
        v = v.wrapping_mul(7).wrapping_add(5);
    }
    let partitioning = Partitioning::range(AttrId(2), 3, 6).unwrap();
    let multi = vec![MultiDimStatistic::cell2d(AttrId(0), 0, AttrId(1), 0).unwrap()];
    (table, partitioning, multi)
}

/// All seven variants: scalar probes over each kind of [`batch_masks`]
/// mask, the batches whole and empty, and a sparse out-of-order draw
/// beside the full one and the empty one (whose rows still carry the
/// model's arity).
pub fn probe_table(sizes: &[usize]) -> Vec<ProbeRequest> {
    let a = AttrId;
    let many = batch_masks(sizes);
    let [_, range, point, never, far, nowhere] = [0, 1, 2, 3, 4, 5].map(|i| many[i].clone());
    let (k, seed) = DRAW;
    let weigh = |attr: usize| -> Vec<f64> { (0..sizes[attr]).map(|v| v as f64 * 2.5).collect() };
    vec![
        ProbeRequest::Probability {
            mask: range.clone(),
        },
        ProbeRequest::Probability { mask: point },
        ProbeRequest::Probability {
            mask: nowhere.clone(),
        },
        ProbeRequest::Count {
            mask: range.clone(),
        },
        ProbeRequest::Count { mask: never },
        ProbeRequest::Count { mask: far.clone() },
        ProbeRequest::Sum {
            mask: far.clone(),
            attr: a(1),
            values: weigh(1),
        },
        ProbeRequest::GroupBy {
            mask: far,
            attr: a(0),
        },
        ProbeRequest::GroupBy {
            mask: nowhere,
            attr: a(2),
        },
        ProbeRequest::ProbabilityMany {
            masks: many.clone(),
        },
        ProbeRequest::ProbabilityMany { masks: vec![] },
        ProbeRequest::CountMany { masks: many },
        ProbeRequest::CountMany { masks: vec![] },
        ProbeRequest::Sum {
            mask: range.clone(),
            attr: a(2),
            values: weigh(2),
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
        ProbeRequest::SampleAt {
            k,
            seed,
            indices: vec![],
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

/// A shard seen through a test adapter that counts the probes it is put
/// and, when `blind`, hides its support — [`gather`] then asks it every
/// mask, as it did before shards declared supports.
pub struct Watched<'a, P> {
    shard: &'a P,
    blind: bool,
    calls: AtomicUsize,
}

impl<P: ShardProbe> ShardProbe for Watched<'_, P> {
    type Scratch = P::Scratch;

    fn n(&self) -> u64 {
        self.shard.n()
    }

    fn make_scratch(&self) -> P::Scratch {
        self.shard.make_scratch()
    }

    fn support(&self) -> Option<&Support> {
        self.shard.support().filter(|_| !self.blind)
    }

    fn probe(
        &self,
        request: &ProbeRequest,
        scratch: &mut P::Scratch,
    ) -> entropydb_core::error::Result<ProbeResponse> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        self.shard.probe(request, scratch)
    }
}

fn watch<P: ShardProbe>(shards: &[P], blind: bool) -> Vec<Watched<'_, P>> {
    let watched = |shard| Watched {
        shard,
        blind,
        calls: AtomicUsize::new(0),
    };
    shards.iter().map(watched).collect()
}

/// One uncached [`gather`] over `shards` on fresh scratches, and whether
/// each shard was asked.
fn gathered<P: ShardProbe>(
    shards: &[Watched<'_, P>],
    request: &ProbeRequest,
) -> (String, Vec<bool>) {
    let mut scratches: Vec<_> = shards.iter().map(ShardProbe::make_scratch).collect();
    let answer = gather(shards, request, &mut scratches)
        .unwrap_or_else(|e| panic!("{}: {e}", request.encode()));
    let asked = shards.iter().map(|s| s.calls.swap(0, Ordering::SeqCst) > 0);
    (answer.encode(), asked.collect())
}

/// The masks of a request (none for a draw).
fn masks_of(request: &ProbeRequest) -> &[Mask] {
    match request {
        ProbeRequest::Probability { mask }
        | ProbeRequest::Count { mask }
        | ProbeRequest::Sum { mask, .. }
        | ProbeRequest::GroupBy { mask, .. } => std::slice::from_ref(mask),
        ProbeRequest::ProbabilityMany { masks } | ProbeRequest::CountMany { masks } => masks,
        ProbeRequest::SampleAt { .. } => &[],
    }
}

/// Pruning is invisible, over the whole probe table: (a) every (shard,
/// mask) pair the shard's support annihilates answers a bit-for-bit zero
/// when the shard is asked directly; (b) [`gather`] over the shards equals
/// [`gather`] over the same shards with their supports hidden, bitwise;
/// (c) a shard is asked exactly when it admits a mask of the request — or
/// is shard 0 and nobody admits one — while a blind shard is always asked.
/// Returns the annihilated pairs as `(shard, mask)`.
pub fn assert_pruning_is_invisible<P: ShardProbe>(
    shards: &[P],
    sizes: &[usize],
) -> Vec<(usize, Mask)> {
    let zero = |e: &Estimate| e.expectation.to_bits() == 0 && e.variance.to_bits() == 0;
    let (seeing, blind) = (watch(shards, false), watch(shards, true));
    let mut pruned = Vec::new();
    for request in probe_table(sizes) {
        let masks = masks_of(&request);
        let (pruning, asked) = gathered(&seeing, &request);
        let (asking_all, all_asked) = gathered(&blind, &request);
        assert_eq!(pruning, asking_all, "{}", request.encode());
        if masks.is_empty() {
            continue;
        }
        assert!(all_asked.iter().all(|&asked| asked), "{}", request.encode());
        let admits = |shard: &P, mask| shard.support().is_none_or(|s| s.admits(mask));
        for (i, shard) in shards.iter().enumerate() {
            let owed = masks.iter().any(|mask| {
                admits(shard, mask) || (i == 0 && !shards.iter().any(|s| admits(s, mask)))
            });
            assert_eq!(asked[i], owed, "shard {i}: {}", request.encode());
            let direct = shard.probe(&request, &mut shard.make_scratch()).unwrap();
            for (slot, mask) in masks.iter().enumerate() {
                if admits(shard, mask) {
                    continue;
                }
                pruned.push((i, mask.clone()));
                let exact_zero = match &direct {
                    ProbeResponse::Probability(p) => p.to_bits() == 0,
                    ProbeResponse::Probabilities(ps) => ps[slot].to_bits() == 0,
                    ProbeResponse::Estimate(e) => zero(e),
                    ProbeResponse::Estimates(es) => zero(&es[slot]),
                    ProbeResponse::Groups(cells) => cells.iter().all(zero),
                    ProbeResponse::Rows { .. } => false,
                };
                assert!(exact_zero, "shard {i}: {} -> {direct:?}", request.encode());
            }
        }
    }
    pruned
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
/// one `CountMany` probe — bitwise equal when the batch path keeps its
/// promise.
pub fn batched_answers<B: SummaryBackend>(backend: &B, masks: &[Mask]) -> Vec<String> {
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
