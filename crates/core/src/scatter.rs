//! The shard-source-agnostic scatter/gather layer.
//!
//! Every backend answers the one mask-level question, a [`ProbeRequest`],
//! through the one method [`ShardProbe::probe`]: a fitted
//! [`MaxEntSummary`](crate::model::MaxEntSummary) interprets it, a TCP
//! connection to a remote `entropydb-serve` instance ships it — and a
//! *mixture* of shards answers it by forwarding the borrowed request to
//! [`gather`], the one path from request to merged answer, which costs one
//! round over only the shards that can contribute:
//!
//! 1. **prune** — a shard that knows its [`Support`] (the codes its
//!    complete 1-D statistics leave non-zero) is not asked a mask the
//!    support annihilates: that answer is an exact `0.0`;
//! 2. **ask** — the shards left are asked *together*, through the one
//!    fan-out seam [`ShardProbe::probe_each`] (in-process shards: one
//!    after another on the calling thread; remote shards: write every
//!    frame, then read every reply);
//! 3. **merge** — the answers, pruned ones as the zeros they are, meet the
//!    one `merge`.
//!
//! The local sharded backend and a remote scatter/gather backend therefore
//! share every floating-point operation, which is what makes remote answers
//! bitwise-identical to local ones — and a pruned round is folded by the
//! code an unpruned one is.
//!
//! The merge rules (see the module docs of [`crate::sharded`] for the
//! statistical argument):
//!
//! * probability: shard mixture `Σ (n_s / n) · p_s`, clamped into `[0, 1]`,
//!   with `n_s` read from the shards — all of them, asked or not — at call
//!   time;
//! * COUNT / SUM: expectations and variances add, folded in shard order;
//! * batches and group-by: cells add position-wise, folded in shard order;
//! * top-k: rank the merged group-by
//!   ([`rank_top_k`](crate::engine::rank_top_k)) — there is no top-k probe;
//! * sampling: the draws `0..k` stratify across shards by largest-remainder
//!   apportionment of shard cardinalities, each shard is sent only the
//!   requested indices of its own stratum, and every tuple's stream is
//!   derived only from `(seed, global index)`.
//!
//! A single shard bypasses every merge fold (the sole result is returned
//! unchanged), preserving the bitwise 1-shard == monolithic guarantee.
//!
//! Nothing here caches: a gather always asks. Repeated requests are
//! answered above this layer, whole, by the engine's answer cache
//! ([`QueryEngine::with_answer_cache`](crate::engine::QueryEngine::with_answer_cache)).

use crate::assignment::Mask;
use crate::error::{ModelError, RemoteDetail, Result};
use crate::probe::{ProbeRequest, ProbeResponse};
use crate::query::Estimate;
use entropydb_storage::AttrId;
use std::borrow::Cow;

/// Anything that answers mask-level [`ProbeRequest`]s: a fitted model, a
/// remote node, or a mixture of them. `probe` is the only evaluating method
/// a backend has. Probing is fallible: in-process probes only fail on
/// genuine shape errors, remote probes surface transport failures as
/// [`ModelError::Remote`] with the failing shard named.
pub trait ShardProbe: Send + Sync {
    /// Per-probe reusable workspace (an evaluation scratch for in-process
    /// probes; unit for connection-pooled remote probes).
    type Scratch: Send;

    /// Relation cardinality `n` (of this shard, when it is one).
    fn n(&self) -> u64;

    /// Builds a fresh probe workspace.
    fn make_scratch(&self) -> Self::Scratch;

    /// Answers `request` in this backend's model. The response must
    /// [answer](ProbeResponse::answers) the request. Sample draws derive
    /// their randomness only from `(seed, index)` — never from call order or
    /// thread identity — so sampling is deterministic however the indices
    /// are fanned out.
    fn probe(&self, request: &ProbeRequest, scratch: &mut Self::Scratch) -> Result<ProbeResponse>;

    /// The codes this shard can put mass on, when it knows them: [`gather`]
    /// does not ask a shard a mask its support [annihilates](Support::admits).
    /// `None` (the default) means always ask — a mixture, or a shard whose
    /// support still grows.
    fn support(&self) -> Option<&Support> {
        None
    }

    /// The fan-out seam of [`gather`]: puts each of `asks` (ascending shard
    /// index, at most one per shard) to its shard and returns the answers in
    /// `asks` order. By default each asked shard's [`probe`](Self::probe)
    /// runs in turn on the calling thread, on its own scratch slot. A
    /// backend whose probes are round trips overrides it to overlap them.
    fn probe_each(
        probes: &[Self],
        request: &ProbeRequest,
        asks: &[Ask],
        scratches: &mut [Self::Scratch],
    ) -> Vec<Result<ProbeResponse>>
    where
        Self: Sized,
    {
        assert_eq!(probes.len(), scratches.len(), "one scratch per shard");
        let mut pending = asks.iter().peekable();
        let answers: Vec<_> = probes
            .iter()
            .zip(scratches.iter_mut())
            .enumerate()
            .filter_map(|(shard, (probe, scratch))| {
                let ask = pending.next_if(|ask| ask.shard == shard)?;
                Some(probe.probe(&ask.of(request), scratch))
            })
            .collect();
        assert_eq!(
            answers.len(),
            asks.len(),
            "asks name shards in ascending order"
        );
        answers
    }
}

/// One shard's part of a fan-out round: the shard asked, and which
/// [slots](ProbeRequest::slots) of the round's request it is asked — `None`
/// for all of it, the only form a scalar request takes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ask {
    /// Index of the asked shard.
    pub shard: usize,
    /// The asked slots of a batch or draw, in answer order.
    pub slots: Option<Vec<usize>>,
}

impl Ask {
    /// The request this ask puts to its shard: the round's request itself,
    /// borrowed, or its [selection](ProbeRequest::select).
    pub fn of<'r>(&self, request: &'r ProbeRequest) -> Cow<'r, ProbeRequest> {
        match &self.slots {
            None => Cow::Borrowed(request),
            Some(slots) => Cow::Owned(request.select(slots)),
        }
    }

    /// Whether `reply` has the shape of an answer to [`Ask::of`]`(request)`.
    pub fn answered_by(&self, request: &ProbeRequest, reply: &ProbeResponse) -> bool {
        let slots = self.slots.as_ref().map(Vec::len).or(request.slots());
        reply.answers_slots(request, slots)
    }
}

/// The codes a shard can put mass on, per attribute: code `v` of attribute
/// `i` is *supported* when its 1-D marginal under the identity mask is not
/// exactly `0.0`. The complete 1-D statistics pin the variable of every
/// value the shard never saw to exactly 0 (Sec. 4.3, the ZERO statistics),
/// so a mask whose non-zero weights on some attribute all fall outside the
/// support multiplies every term of `P` by an exact zero: the shard's
/// answer is `0.0`, bit for bit, and nobody needs to ask for it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Support(Vec<Vec<bool>>);

impl Support {
    /// Learns a backend's support the one way there is: `ask` is handed
    /// the identity-mask `GroupBy` probe of every attribute and returns
    /// their answers in order — a model probes itself, a gatherer sends the
    /// probes as one pipelined frame of the shard handshake.
    pub fn learn<E: From<ModelError>>(
        arity: usize,
        ask: impl FnOnce(&[ProbeRequest]) -> std::result::Result<Vec<ProbeResponse>, E>,
    ) -> std::result::Result<Support, E> {
        let requests: Vec<ProbeRequest> = (0..arity)
            .map(|attr| ProbeRequest::GroupBy {
                mask: Mask::identity(arity),
                attr: AttrId(attr),
            })
            .collect();
        let answers = ask(&requests)?;
        if answers.len() != arity {
            return Err(ModelError::ShapeMismatch.into());
        }
        let marginals = answers.into_iter().map(|answer| match answer {
            ProbeResponse::Groups(cells) => {
                Ok(cells.iter().map(|cell| cell.expectation != 0.0).collect())
            }
            _ => Err(ModelError::ShapeMismatch),
        });
        Ok(Support(marginals.collect::<Result<_>>()?))
    }

    /// False when the shard's answer under `mask` is exactly zero: on some
    /// attribute, every non-zero weight sits on an unsupported code. A mask
    /// of another shape is admitted — the shard is asked and rejects it.
    pub fn admits(&self, mask: &Mask) -> bool {
        mask.arity() != self.0.len()
            || self.0.iter().enumerate().all(|(attr, codes)| {
                mask.attr_weights(attr).is_none_or(|weights| {
                    weights.len() != codes.len()
                        || match mask.pin(attr) {
                            Some((code, _)) => codes[code as usize],
                            None => weights.iter().zip(codes).any(|(&w, &on)| on && w != 0.0),
                        }
                })
            })
    }
}

/// The operator's view: each attribute's supported codes as inclusive
/// ranges (`0-3,7`), attributes separated by spaces.
impl std::fmt::Display for Support {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (attr, codes) in self.0.iter().enumerate() {
            if attr > 0 {
                f.write_str(" ")?;
            }
            let (mut sep, mut v) = ("", 0);
            while v < codes.len() {
                let lo = v;
                while v < codes.len() && codes[v] {
                    v += 1;
                }
                match v - lo {
                    0 => {}
                    1 => write!(f, "{sep}{lo}")?,
                    _ => write!(f, "{sep}{lo}-{}", v - 1)?,
                }
                if v > lo {
                    sep = ",";
                }
                v += 1;
            }
            if sep.is_empty() {
                f.write_str("-")?;
            }
        }
        Ok(())
    }
}

/// Sums two independent estimates (expectations add, variances add).
pub fn add_estimates(a: Estimate, b: Estimate) -> Estimate {
    Estimate::new(a.expectation + b.expectation, a.variance + b.variance)
}

/// Asks the shards `request` and merges the answers — the one gather path
/// of every sharded backend, in one round:
///
/// 1. **Prune.** A (shard, mask) pair whose mask the shard's
///    [`Support`] does not admit is an exact zero and is not asked — per
///    mask for a batch. A mask no shard admits stays on shard 0, so an
///    all-disjoint (or malformed) request still gets an answer, or an
///    error, of a shard's own making.
/// 2. **Ask.** Every shard left is asked together through
///    [`ShardProbe::probe_each`], each only the slots it admits; the first
///    failed ask, in shard order, fails the round.
/// 3. **Merge.** The per-shard answers, pruned slots as zeros, meet the one
///    `merge` under the unchanged mixture weights.
///
/// A sample draw is not merged but stratified (`gather_sample`).
pub fn gather<P: ShardProbe>(
    probes: &[P],
    request: &ProbeRequest,
    scratches: &mut [P::Scratch],
) -> Result<ProbeResponse> {
    if probes.is_empty() {
        return Err(ModelError::ShapeMismatch);
    }
    let (masks, batch) = match request {
        ProbeRequest::SampleAt { k, indices, .. } => {
            return gather_sample(probes, request, *k, indices, scratches)
        }
        ProbeRequest::ProbabilityMany { masks } | ProbeRequest::CountMany { masks } => {
            (masks.as_slice(), true)
        }
        ProbeRequest::Probability { mask }
        | ProbeRequest::Count { mask }
        | ProbeRequest::Sum { mask, .. }
        | ProbeRequest::GroupBy { mask, .. } => (std::slice::from_ref(mask), false),
    };
    let mut live: Vec<Vec<bool>> = probes
        .iter()
        .map(|probe| {
            let admits = |mask| probe.support().is_none_or(|s| s.admits(mask));
            masks.iter().map(admits).collect()
        })
        .collect();
    for slot in 0..masks.len() {
        if !live.iter().any(|row| row[slot]) {
            live[0][slot] = true;
        }
    }
    let mut asks: Vec<Ask> = live
        .iter()
        .enumerate()
        .filter_map(|(shard, live)| {
            let slots: Vec<usize> = (0..masks.len()).filter(|&slot| live[slot]).collect();
            let partial = batch && slots.len() < masks.len();
            (!slots.is_empty()).then(|| Ask {
                shard,
                slots: partial.then_some(slots),
            })
        })
        .collect();
    // A batch of no masks is shard 0's to answer, as an empty draw is.
    if asks.is_empty() {
        asks.push(Ask {
            shard: 0,
            slots: None,
        });
    }

    let mut answers: Vec<Option<ProbeResponse>> = vec![None; probes.len()];
    let replies = P::probe_each(probes, request, &asks, scratches);
    for (ask, reply) in asks.iter().zip(replies) {
        let reply = reply?;
        if !ask.answered_by(request, &reply) {
            return Err(unexpected_shape());
        }
        answers[ask.shard] = Some(match &ask.slots {
            Some(slots) => widen(reply, slots, masks.len()),
            None => reply,
        });
    }
    merge(probes, request, &answers)
}

/// One shard's answer to a whole batch, from its reply to the asked `slots`
/// of it: every pruned slot is the exact zero it stands for. That zero is
/// `-0.0`, the additive identity: [`merge`] then sums a pruned slot exactly
/// as it leaves a pruned shard of a scalar request out, even where the
/// other shards answer `-0.0` (a mask of `-0.0` weights).
fn widen(reply: ProbeResponse, slots: &[usize], len: usize) -> ProbeResponse {
    fn spread<T: Copy>(cells: Vec<T>, slots: &[usize], len: usize, zero: T) -> Vec<T> {
        let mut all = vec![zero; len];
        for (&slot, cell) in slots.iter().zip(cells) {
            all[slot] = cell;
        }
        all
    }
    match reply {
        ProbeResponse::Probabilities(ps) => {
            ProbeResponse::Probabilities(spread(ps, slots, len, -0.0))
        }
        ProbeResponse::Estimates(es) => {
            let zero = Estimate {
                expectation: -0.0,
                variance: -0.0,
            };
            ProbeResponse::Estimates(spread(es, slots, len, zero))
        }
        other => other,
    }
}

fn unexpected_shape() -> ModelError {
    ModelError::Remote(RemoteDetail::message(
        "shard answered an unexpected probe response shape",
    ))
}

/// The `SampleAt` arm of [`gather`]: the draws `0..k` are stratified across
/// the shards (contiguous by shard, sized by [`proportional_quota`] of the
/// cardinalities read from the shards now), each shard is sent the
/// requested indices that fall in its stratum — a shard owed none is not
/// asked, so it cannot fail or slow the draw — and the rows are put back
/// in request order. When no shard is owed an index, shard 0 is asked the
/// empty selection, as a mask no shard admits stays on shard 0: the empty
/// answer carries the model's arity.
fn gather_sample<P: ShardProbe>(
    probes: &[P],
    request: &ProbeRequest,
    k: usize,
    indices: &[u64],
    scratches: &mut [P::Scratch],
) -> Result<ProbeResponse> {
    let ns: Vec<u64> = probes.iter().map(P::n).collect();
    let quota = proportional_quota(&ns, k);
    let mut owed = vec![Vec::new(); probes.len()];
    for (slot, &index) in indices.iter().enumerate() {
        let mut end = 0u64;
        let shard = quota
            .iter()
            .position(|&q| {
                end += q as u64;
                index < end
            })
            .ok_or(ModelError::ShapeMismatch)?;
        owed[shard].push(slot);
    }
    let mut asks: Vec<Ask> = owed
        .into_iter()
        .enumerate()
        .filter(|(_, slots)| !slots.is_empty())
        .map(|(shard, slots)| Ask {
            shard,
            slots: Some(slots),
        })
        .collect();
    if asks.is_empty() {
        asks.push(Ask {
            shard: 0,
            slots: Some(Vec::new()),
        });
    }
    let mut rows = vec![Vec::new(); indices.len()];
    let mut arity = 0;
    let strata = P::probe_each(probes, request, &asks, scratches);
    for (ask, stratum) in asks.iter().zip(strata) {
        let stratum = stratum?;
        if !ask.answered_by(request, &stratum) {
            return Err(unexpected_shape());
        }
        let ProbeResponse::Rows {
            arity: width,
            rows: drawn,
        } = stratum
        else {
            return Err(unexpected_shape());
        };
        arity = width;
        for (row, &slot) in drawn.into_iter().zip(ask.slots.iter().flatten()) {
            rows[slot] = row;
        }
    }
    Ok(ProbeResponse::Rows { arity, rows })
}

/// The probability cells of a response (one for a scalar).
fn probabilities(resp: &ProbeResponse) -> &[f64] {
    match resp {
        ProbeResponse::Probability(p) => std::slice::from_ref(p),
        ProbeResponse::Probabilities(ps) => ps,
        _ => &[],
    }
}

/// The estimate cells of a response (one for a scalar).
fn estimates(resp: &ProbeResponse) -> &[Estimate] {
    match resp {
        ProbeResponse::Estimate(e) => std::slice::from_ref(e),
        ProbeResponse::Estimates(list) | ProbeResponse::Groups(list) => list,
        _ => &[],
    }
}

/// Merges the shards' answers to `request`, in shard order; `None` is a
/// shard pruned from every slot, whose exact zeros add nothing to any fold
/// below. A single shard's answer is returned untouched (the bitwise
/// 1-shard guarantee). Probability cells mix as `Σ (n_s / n) · p_s`
/// clamped into `[0, 1]`, with the cardinalities of *all* shards read now —
/// a live shard's `n_s` grows, and a pruned shard still weighs in `n` — and
/// estimate cells add (expectations and variances).
fn merge<P: ShardProbe>(
    probes: &[P],
    request: &ProbeRequest,
    answers: &[Option<ProbeResponse>],
) -> Result<ProbeResponse> {
    let mismatch = |what: &str| ModelError::Remote(RemoteDetail::message(what));
    let mut given = answers.iter().flatten();
    if given.clone().any(|answer| !answer.answers(request)) {
        return Err(unexpected_shape());
    }
    let first = given.next().ok_or(ModelError::ShapeMismatch)?;
    if answers.len() == 1 {
        return Ok(first.clone());
    }
    Ok(match first {
        ProbeResponse::Probability(_) | ProbeResponse::Probabilities(_) => {
            let ns: Vec<u64> = probes.iter().map(P::n).collect();
            let n = ns.iter().sum::<u64>() as f64;
            let weighted: Vec<(f64, &ProbeResponse)> = answers
                .iter()
                .zip(&ns)
                .filter_map(|(answer, &n_s)| Some((n_s as f64 / n, answer.as_ref()?)))
                .collect();
            let mut mixed = (0..probabilities(first).len()).map(|cell| {
                weighted
                    .iter()
                    .fold(0.0, |acc, (w, answer)| {
                        acc + w * probabilities(answer)[cell]
                    })
                    .clamp(0.0, 1.0)
            });
            match first {
                ProbeResponse::Probability(_) => {
                    ProbeResponse::Probability(mixed.next().expect("one cell"))
                }
                _ => ProbeResponse::Probabilities(mixed.collect()),
            }
        }
        ProbeResponse::Rows { .. } => return Err(mismatch("sample rows do not merge")),
        _ => {
            let mut sum = estimates(first).to_vec();
            for answer in given {
                let cells = estimates(answer);
                if cells.len() != sum.len() {
                    return Err(mismatch("shards answered mismatched group-by shapes"));
                }
                for (acc, &cell) in sum.iter_mut().zip(cells) {
                    *acc = add_estimates(*acc, cell);
                }
            }
            match first {
                ProbeResponse::Estimate(_) => ProbeResponse::Estimate(sum[0]),
                ProbeResponse::Estimates(_) => ProbeResponse::Estimates(sum),
                _ => ProbeResponse::Groups(sum),
            }
        }
    })
}

/// Largest-remainder (Hamilton) apportionment of `k` draws proportional to
/// `weights`; deterministic, ties broken by lower index.
pub fn proportional_quota(weights: &[u64], k: usize) -> Vec<usize> {
    let total: u64 = weights.iter().sum();
    let mut quota = vec![0usize; weights.len()];
    if total == 0 || weights.is_empty() {
        if let Some(first) = quota.first_mut() {
            *first = k;
        }
        return quota;
    }
    let mut remainders: Vec<(u64, usize)> = Vec::with_capacity(weights.len());
    let mut assigned = 0usize;
    for (i, &w) in weights.iter().enumerate() {
        let exact = k as u128 * w as u128;
        quota[i] = (exact / total as u128) as usize;
        assigned += quota[i];
        remainders.push(((exact % total as u128) as u64, i));
    }
    // Highest fractional remainder first; ties to the lower shard index.
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, i) in remainders.iter().take(k - assigned) {
        quota[i] += 1;
    }
    quota
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// A synthetic shard probe that counts inner calls, optionally fails,
    /// and optionally declares the codes of attribute 0 it supports.
    struct CountingProbe {
        n: u64,
        calls: AtomicUsize,
        fail: bool,
        support: Option<Support>,
        /// Every sample index this shard was asked to draw, in arrival order.
        sampled: Mutex<Vec<u64>>,
    }

    impl CountingProbe {
        fn new(n: u64) -> CountingProbe {
            CountingProbe {
                n,
                calls: AtomicUsize::new(0),
                fail: false,
                support: None,
                sampled: Mutex::new(Vec::new()),
            }
        }

        /// A shard of [`weighted_mask`]'s two-attribute shape that supports
        /// the given codes of attribute 0 (and the one code of attribute 1).
        fn supporting(n: u64, codes: &[bool]) -> CountingProbe {
            CountingProbe {
                support: Some(Support(vec![codes.to_vec(), vec![true]])),
                ..CountingProbe::new(n)
            }
        }

        fn calls(&self) -> usize {
            self.calls.load(Ordering::SeqCst)
        }

        fn sampled(&self) -> Vec<u64> {
            self.sampled.lock().unwrap().clone()
        }

        /// A value derived from the mask so distinct probes get distinct
        /// answers: the sum of all explicit weights.
        fn mask_signature(mask: &Mask) -> f64 {
            (0..mask.arity())
                .filter_map(|a| mask.attr_weights(a))
                .flatten()
                .sum()
        }
    }

    impl ShardProbe for CountingProbe {
        type Scratch = ();

        fn n(&self) -> u64 {
            self.n
        }

        fn make_scratch(&self) {}

        fn support(&self) -> Option<&Support> {
            self.support.as_ref()
        }

        fn probe(&self, request: &ProbeRequest, _scratch: &mut ()) -> Result<ProbeResponse> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            if self.fail {
                return Err(ModelError::Remote(RemoteDetail::message(
                    "injected probe failure",
                )));
            }
            let p = |mask: &Mask| CountingProbe::mask_signature(mask) / self.n as f64;
            let e = |mask: &Mask| Estimate::new(CountingProbe::mask_signature(mask), 1.0);
            Ok(match request {
                ProbeRequest::Probability { mask } => ProbeResponse::Probability(p(mask)),
                ProbeRequest::Count { mask } => ProbeResponse::Estimate(e(mask)),
                ProbeRequest::ProbabilityMany { masks } => {
                    ProbeResponse::Probabilities(masks.iter().map(p).collect())
                }
                ProbeRequest::CountMany { masks } => {
                    ProbeResponse::Estimates(masks.iter().map(e).collect())
                }
                ProbeRequest::Sum { mask, values, .. } => ProbeResponse::Estimate(Estimate::new(
                    CountingProbe::mask_signature(mask) + values.iter().sum::<f64>(),
                    1.0,
                )),
                ProbeRequest::GroupBy { mask, .. } => ProbeResponse::Groups(vec![e(mask)]),
                ProbeRequest::SampleAt { indices, .. } => {
                    self.sampled.lock().unwrap().extend(indices);
                    ProbeResponse::Rows {
                        arity: 1,
                        rows: indices.iter().map(|&i| vec![i as u32]).collect(),
                    }
                }
            })
        }
    }

    fn weighted_mask(weights: &[f64]) -> Mask {
        Mask::from_weights(vec![Some(weights.to_vec()), None])
    }

    fn count(weights: &[f64]) -> ProbeRequest {
        ProbeRequest::Count {
            mask: weighted_mask(weights),
        }
    }

    /// A shard that fails fails the round with its own error, scalar or
    /// batched, while the healthy shard is still asked alongside it.
    #[test]
    fn a_failed_shard_fails_the_round_with_its_own_error() {
        let dead = CountingProbe {
            fail: true,
            ..CountingProbe::new(40)
        };
        let probes = [CountingProbe::new(60), dead];
        let injected = ModelError::Remote(RemoteDetail::message("injected probe failure"));
        let batch = ProbeRequest::CountMany {
            masks: vec![weighted_mask(&[1.0]), weighted_mask(&[2.0])],
        };
        for request in [count(&[1.0]), batch] {
            assert_eq!(
                gather(&probes, &request, &mut [(), ()]),
                Err(injected.clone())
            );
        }
        assert_eq!((probes[0].calls(), probes[1].calls()), (2, 2));
    }

    /// Shards with disjoint supports: a (shard, mask) pair the support
    /// annihilates is never asked, a mask no shard admits is still put to
    /// shard 0, and a shard without a declared support is always asked.
    #[test]
    fn gather_asks_only_the_shards_whose_support_admits_the_mask() {
        let probes = [
            CountingProbe::supporting(50, &[true, true, false, false]),
            CountingProbe::supporting(30, &[false, false, true, false]),
            CountingProbe::new(20),
        ];
        let calls = |probes: &[CountingProbe]| probes.iter().map(|p| p.calls()).collect::<Vec<_>>();
        let mut scratches = [(), (), ()];
        let mut ask = |request: &ProbeRequest| gather(&probes, request, &mut scratches).unwrap();

        // Only shard 0 supports code 1; shard 2 declares nothing.
        let low = count(&[0.0, 3.0, 0.0, 0.0]);
        assert_eq!(ask(&low), ProbeResponse::Estimate(Estimate::new(6.0, 2.0)));
        assert_eq!(calls(&probes), [1, 0, 1]);

        // Code 3 is outside every declared support: among the declaring
        // shards alone, shard 0 is kept and answers for the mixture.
        let nowhere = count(&[0.0, 0.0, 0.0, 5.0]);
        ask(&nowhere);
        assert_eq!(calls(&probes), [1, 0, 2]);
        let kept = gather(&probes[..2], &nowhere, &mut [(), ()]).unwrap();
        assert_eq!(kept, ProbeResponse::Estimate(Estimate::new(5.0, 1.0)));
        assert_eq!(calls(&probes), [2, 0, 2]);

        // A batch prunes per mask: each shard is asked only what it owes,
        // and a pruned cell is the zero it stands for.
        let batch = ProbeRequest::CountMany {
            masks: vec![
                weighted_mask(&[1.0, 0.0, 0.0, 0.0]),
                weighted_mask(&[0.0, 0.0, 2.0, 0.0]),
            ],
        };
        let sums = [Estimate::new(2.0, 2.0), Estimate::new(4.0, 2.0)];
        assert_eq!(ask(&batch), ProbeResponse::Estimates(sums.to_vec()));
        assert_eq!(calls(&probes), [3, 1, 3]);

        // The mixture weights are the cardinalities of all shards, asked
        // or not: p = 0.5 · 3/50 + 0.2 · 3/20.
        let p = ProbeRequest::Probability {
            mask: weighted_mask(&[0.0, 3.0, 0.0, 0.0]),
        };
        let mixed = 0.0 + 0.5 * (3.0 / 50.0) + 0.2 * (3.0 / 20.0);
        assert_eq!(ask(&p), ProbeResponse::Probability(mixed));
    }

    #[test]
    fn support_admits_prints_and_is_learned_from_group_bys() {
        let marginals = [vec![2.0, 0.0, 0.0, 1.0, 4.0], vec![0.0, 7.0]];
        let support = Support::learn::<ModelError>(2, |asks| {
            let cells = |m: &Vec<f64>| m.iter().map(|&e| Estimate::new(e, 0.0)).collect();
            assert!(asks
                .iter()
                .all(|r| matches!(r, ProbeRequest::GroupBy { mask, .. } if mask.is_identity())));
            Ok(marginals
                .iter()
                .map(cells)
                .map(ProbeResponse::Groups)
                .collect())
        })
        .unwrap();
        assert_eq!(support.to_string(), "0,3-4 1");
        let mask = |w: &[f64]| Mask::from_weights(vec![Some(w.to_vec()), None]);
        assert!(support.admits(&Mask::identity(2)));
        assert!(support.admits(&mask(&[0.0, 1.0, 0.0, 0.5, 0.0])));
        assert!(!support.admits(&mask(&[0.0, 1.0, 1.0, 0.0, 0.0])));
        assert!(!support.admits(&mask(&[0.0; 5])));
        // Another shape is the shard's to reject.
        assert!(support.admits(&mask(&[0.0; 4])));
        assert!(support.admits(&Mask::identity(3)));
        // A wrong number of answers, or a non-group answer, is no support.
        assert!(Support::learn::<ModelError>(2, |_| Ok(vec![])).is_err());
        let odd = |_: &[ProbeRequest]| Ok(vec![ProbeResponse::Probability(1.0); 2]);
        assert!(Support::learn::<ModelError>(2, odd).is_err());
    }

    /// Every mergeable request kind through [`gather`]: each shard is asked
    /// it once and the answer has its shape; the merge rules, spelled out on
    /// the scalar kinds.
    #[test]
    fn gather_asks_every_shard_once_and_merges_by_the_rules() {
        let probes = [CountingProbe::new(60), CountingProbe::new(40)];
        let mask = weighted_mask(&[1.5, 0.5]);
        let batch = vec![weighted_mask(&[3.0]), weighted_mask(&[0.25, 4.0])];
        let requests = [
            ProbeRequest::Probability { mask: mask.clone() },
            ProbeRequest::Count { mask: mask.clone() },
            ProbeRequest::ProbabilityMany {
                masks: batch.clone(),
            },
            ProbeRequest::CountMany { masks: batch },
            ProbeRequest::Sum {
                mask: mask.clone(),
                attr: AttrId(0),
                values: vec![1.0, 2.0],
            },
            ProbeRequest::GroupBy {
                mask,
                attr: AttrId(0),
            },
        ];
        let mut scratches = [(), ()];
        for (kind, request) in requests.iter().enumerate() {
            let answer = gather(&probes, request, &mut scratches).unwrap();
            assert!(answer.answers(request), "{request:?} -> {answer:?}");
            assert_eq!(probes[0].calls(), kind + 1, "{request:?}");
            assert_eq!(probes[1].calls(), kind + 1, "{request:?}");
        }
        let mut answer = |kind: usize| gather(&probes, &requests[kind], &mut scratches);
        let p = 0.6 * (2.0 / 60.0) + 0.4 * (2.0 / 40.0);
        assert_eq!(answer(0).unwrap(), ProbeResponse::Probability(p));
        let count = ProbeResponse::Estimate(Estimate::new(4.0, 2.0));
        assert_eq!(answer(1).unwrap(), count);
    }

    /// One shard's answer is returned untouched, mixed-up shapes are a
    /// typed error, and sample rows never merge.
    #[test]
    fn merge_keeps_a_single_answer_and_rejects_mismatched_shapes() {
        let probes = [CountingProbe::new(60), CountingProbe::new(40)];
        let request = count(&[1.0]);
        let e = ProbeResponse::Estimate(Estimate::new(0.1, 0.2));
        let sole = merge(&probes[..1], &request, &[Some(e.clone())]).unwrap();
        assert_eq!(sole, e);
        let mixed = [Some(e.clone()), Some(ProbeResponse::Probability(0.5))];
        assert!(merge(&probes, &request, &mixed).is_err());
        // A pruned shard adds nothing; nobody answering is a shape error.
        assert_eq!(
            merge(&probes, &request, &[None, Some(e.clone())]).unwrap(),
            e
        );
        assert!(merge(&probes, &request, &[None, None]).is_err());
        let group = ProbeRequest::GroupBy {
            mask: weighted_mask(&[1.0]),
            attr: AttrId(0),
        };
        let cells = |len: usize| Some(ProbeResponse::Groups(vec![Estimate::new(1.0, 1.0); len]));
        assert!(merge(&probes, &group, &[cells(2), cells(3)]).is_err());
        assert_eq!(
            merge(&probes, &group, &[cells(2), cells(2)]).unwrap(),
            ProbeResponse::Groups(vec![Estimate::new(2.0, 2.0); 2])
        );
        let sample = ProbeRequest::SampleAt {
            k: 1,
            seed: 0,
            indices: vec![0],
        };
        let rows = ProbeResponse::Rows {
            arity: 1,
            rows: vec![vec![0]],
        };
        assert!(merge(&probes, &sample, &[Some(rows.clone()), Some(rows)]).is_err());
    }

    #[test]
    fn quota_is_exact_and_deterministic() {
        assert_eq!(proportional_quota(&[1, 1, 1], 3), vec![1, 1, 1]);
        assert_eq!(proportional_quota(&[2, 1], 3), vec![2, 1]);
        let q = proportional_quota(&[5, 3, 2], 7);
        assert_eq!(q.iter().sum::<usize>(), 7);
        assert_eq!(q, proportional_quota(&[5, 3, 2], 7));
        assert_eq!(proportional_quota(&[], 4), Vec::<usize>::new());
        assert_eq!(proportional_quota(&[0, 0], 4), vec![4, 0]);
    }

    /// A sparse draw through [`gather`]: each shard is sent only the
    /// requested indices of its own stratum, a shard owed none is never
    /// probed, and the rows come back in request order.
    #[test]
    fn sparse_sample_reaches_only_the_owing_shards() {
        // Strata of a 10-draw call over n = (6, 3, 1): 0..6, 6..9, 9..10.
        let probes = [
            CountingProbe::new(6),
            CountingProbe::new(3),
            CountingProbe::new(1),
        ];
        let sample = |indices: Vec<u64>| ProbeRequest::SampleAt {
            k: 10,
            seed: 5,
            indices,
        };
        let mut scratches = [(), (), ()];
        let answer = gather(&probes, &sample(vec![9, 0, 5, 3]), &mut scratches).unwrap();
        let rows = Vec::<Vec<u32>>::try_from(answer).unwrap();
        assert_eq!(rows, [[9], [0], [5], [3]], "rows in request order");
        assert_eq!(probes[0].sampled(), [0, 5, 3]);
        assert_eq!(probes[1].calls(), 0, "a shard owed no row is not probed");
        assert_eq!(probes[2].sampled(), [9]);
        // A dead shard that owes nothing cannot fail the draw; one that
        // owes a row does, and an index past `k` is a shape error.
        let dead = CountingProbe {
            fail: true,
            ..CountingProbe::new(3)
        };
        let probes = [CountingProbe::new(6), dead, CountingProbe::new(1)];
        assert!(gather(&probes, &sample(vec![2, 9]), &mut scratches).is_ok());
        assert!(gather(&probes, &sample(vec![2, 7]), &mut scratches).is_err());
        assert_eq!(
            gather(&probes, &sample(vec![10]), &mut scratches),
            Err(ModelError::ShapeMismatch)
        );
    }
}
