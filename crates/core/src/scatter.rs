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
//! 2. **claim** — with a gather cache ([`GatherCache`]), every remaining
//!    (shard, mask) pair claims its entry: cached, in flight, or to fetch;
//! 3. **ask** — the shards that must be asked are asked *together*,
//!    through the one fan-out seam [`ShardProbe::probe_each`] (in-process
//!    shards: the worker pool; remote shards: write every frame, then read
//!    every reply);
//! 4. **merge** — the answers, pruned ones as the zeros they are, meet the
//!    one `merge`.
//!
//! The local sharded backend and a remote scatter/gather backend therefore
//! share every floating-point operation, which is what makes remote answers
//! bitwise-identical to local ones — a fully-cached answer is folded by
//! the very code a fanned-out one is, and a pruned round by the code an
//! unpruned one is.
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
//! The module also hosts the gather-side answer cache ([`ProbeCache`], a
//! bounded two-segment LRU with single-flight coalescing) and
//! [`GatherCache`], the per-backend bundle of cache + shard identity
//! tokens. Cache keys are the canonical probe encoding (1:1 with the `b1`
//! wire form) combined with a per-shard blob-identity token, so swapping a
//! shard's blob invalidates every cached answer for it. Cached answers are
//! the shards' own decoded responses, so going through the cache is
//! bitwise-invisible.

use crate::assignment::Mask;
use crate::error::{ModelError, RemoteDetail, Result};
use crate::metrics::{CacheCounters, CacheStatsSnapshot};
use crate::par;
use crate::probe::{ProbeRequest, ProbeResponse, UnitRuns};
use crate::query::Estimate;
use entropydb_storage::{AttrId, Schema};
use std::borrow::{Borrow, Cow};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

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
    /// runs on the worker pool, on its own scratch slot — deterministic and
    /// identical to serial execution; one ask runs on the calling thread. A
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
        let mut work: Vec<_> = probes
            .iter()
            .zip(scratches.iter_mut())
            .enumerate()
            .filter_map(|(shard, (probe, scratch))| {
                let ask = pending.next_if(|ask| ask.shard == shard)?;
                Some((ask, probe, scratch, None))
            })
            .collect();
        assert_eq!(
            work.len(),
            asks.len(),
            "asks name shards in ascending order"
        );
        par::for_each_chunk_mut(&mut work, 1, |_, chunk| {
            for (ask, probe, scratch, answer) in chunk.iter_mut() {
                *answer = Some(probe.probe(&ask.of(request), scratch));
            }
        });
        work.into_iter()
            .map(|(.., answer)| answer.expect("fan-out slot filled"))
            .collect()
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
                        || weights.iter().zip(codes).any(|(&w, &on)| on && w != 0.0)
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

// ======================= gather-side probe cache =======================

/// Recovers from a poisoned lock: the cache holds plain data, never
/// invariants that a panicking holder could half-update into nonsense
/// (worst case a stale or missing entry, both safe).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over 8-byte chunks (plus a byte-wise tail) — fast enough to
/// hash a full probe encoding in the cached point-query hot path.
fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        h = (h ^ word).wrapping_mul(FNV_PRIME);
    }
    for &b in chunks.remainder() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// SplitMix64 finalizer, used to diffuse token/hash combinations.
fn mix(mut h: u64) -> u64 {
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

// Op tags of the canonical probe key encoding, 1:1 with the cached `b1`
// wire ops (`prob`, `count`, `sum`, `group`).
const TAG_PROBABILITY: u8 = 1;
const TAG_COUNT: u8 = 2;
const TAG_SUM: u8 = 3;
const TAG_GROUP_BY: u8 = 4;

// Per-attribute mask tags of the key: unconstrained, a weight vector as
// bits, a 0/1 weight vector as its runs of ones.
const KEY_IDENTITY: u8 = 0;
const KEY_BITS: u8 = 1;
const KEY_RUNS: u8 = 2;

/// The shard-independent part of a cache key: a compact binary form of
/// the canonical `b1` probe encoding (op tag, arguments, then the mask per
/// attribute: unconstrained, a 0/1 vector as its length and runs of ones —
/// the runs the `r` item sends — or any other vector as `f64::to_bits`
/// words). Floats round-trip the wire bit-exactly and a 0/1 vector is
/// exactly its runs, so two probes get the same body exactly when their
/// masks and arguments are bitwise equal — the key *is* the canonical
/// wire form, just pre-hashed and byte-packed, and a point mask keys in
/// tens of bytes, not 8 a bucket.
#[derive(Debug, Clone)]
pub(crate) struct ProbeKeyBody {
    bytes: Arc<Vec<u8>>,
    hash: u64,
}

impl ProbeKeyBody {
    /// The key body of a single-answer request. `None` for the batch
    /// requests — [`gather`] keys those per mask, as the `prob` /
    /// `count` probe of that mask, so a batch and a single probe share
    /// entries — and for `sample`, which is never cached.
    pub(crate) fn of(request: &ProbeRequest) -> Option<ProbeKeyBody> {
        match request {
            ProbeRequest::Probability { mask } => Some(Self::finish(vec![TAG_PROBABILITY], mask)),
            ProbeRequest::Count { mask } => Some(Self::finish(vec![TAG_COUNT], mask)),
            ProbeRequest::Sum { mask, attr, values } => {
                // The weight vector is part of the key, bit for bit, like
                // on the wire.
                let mut bytes = vec![TAG_SUM];
                bytes.extend_from_slice(&(attr.0 as u32).to_le_bytes());
                bytes.extend_from_slice(&(values.len() as u32).to_le_bytes());
                for &v in values {
                    bytes.extend_from_slice(&v.to_bits().to_le_bytes());
                }
                Some(Self::finish(bytes, mask))
            }
            ProbeRequest::GroupBy { mask, attr } => {
                let mut bytes = vec![TAG_GROUP_BY];
                bytes.extend_from_slice(&(attr.0 as u32).to_le_bytes());
                Some(Self::finish(bytes, mask))
            }
            ProbeRequest::ProbabilityMany { .. }
            | ProbeRequest::CountMany { .. }
            | ProbeRequest::SampleAt { .. } => None,
        }
    }

    /// Appends the mask to the op tag + arguments and hashes the body.
    fn finish(mut bytes: Vec<u8>, mask: &Mask) -> ProbeKeyBody {
        let push = |bytes: &mut Vec<u8>, x: usize| {
            bytes.extend_from_slice(&(x as u32).to_le_bytes());
        };
        push(&mut bytes, mask.arity());
        for attr in 0..mask.arity() {
            let Some(weights) = mask.attr_weights(attr) else {
                bytes.push(KEY_IDENTITY);
                continue;
            };
            match UnitRuns::of(weights) {
                Some(runs) => {
                    bytes.push(KEY_RUNS);
                    push(&mut bytes, weights.len());
                    push(&mut bytes, runs.len());
                    for (lo, hi) in runs {
                        push(&mut bytes, lo);
                        push(&mut bytes, hi);
                    }
                }
                None => {
                    bytes.push(KEY_BITS);
                    push(&mut bytes, weights.len());
                    for &w in weights {
                        bytes.extend_from_slice(&w.to_bits().to_le_bytes());
                    }
                }
            }
        }
        let hash = hash_bytes(&bytes);
        ProbeKeyBody {
            bytes: Arc::new(bytes),
            hash,
        }
    }

    /// Binds the body to one shard's identity token, yielding a full key.
    pub(crate) fn key(&self, token: u64) -> ProbeKey {
        ProbeKey {
            token,
            hash: mix(self.hash ^ token),
            bytes: Arc::clone(&self.bytes),
        }
    }
}

impl PartialEq for ProbeKeyBody {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.bytes == other.bytes
    }
}

impl Eq for ProbeKeyBody {}

impl std::hash::Hash for ProbeKeyBody {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// A full cache key: canonical probe body + shard identity token. The
/// hash is precomputed (body hash diffused with the token); equality
/// compares the full bytes, so a hash collision can never alias two
/// different probes.
#[derive(Debug, Clone)]
pub(crate) struct ProbeKey {
    token: u64,
    hash: u64,
    bytes: Arc<Vec<u8>>,
}

impl PartialEq for ProbeKey {
    fn eq(&self, other: &Self) -> bool {
        self.token == other.token && self.hash == other.hash && self.bytes == other.bytes
    }
}

impl Eq for ProbeKey {}

impl std::hash::Hash for ProbeKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// One in-flight probe: the single-flight rendezvous between the leader
/// (who runs the shard round trip) and coalesced waiters.
#[derive(Debug)]
pub(crate) struct Flight {
    slot: Mutex<Option<Result<Arc<ProbeResponse>>>>,
    done: Condvar,
}

/// Leadership of one in-flight probe. The holder must call
/// [`FlightGuard::complete`] with the shard's real outcome; if it unwinds
/// first (a panic mid-probe), dropping the guard completes the flight
/// with an error so coalesced waiters never hang.
pub(crate) struct FlightGuard<'c> {
    cache: &'c ProbeCache,
    key: ProbeKey,
    flight: Arc<Flight>,
    armed: bool,
}

impl FlightGuard<'_> {
    /// Publishes the leader's outcome: a success is cached and handed to
    /// every waiter as one shared decoded response; an error is handed to
    /// the waiters *as-is* (cloned — never fabricated, so PR 7 failure
    /// classification stays truthful) and deliberately not cached.
    pub(crate) fn complete(mut self, result: Result<ProbeResponse>) -> Result<Arc<ProbeResponse>> {
        let outcome = result.map(Arc::new);
        self.finish(outcome.clone());
        self.armed = false;
        outcome
    }

    fn finish(&self, outcome: Result<Arc<ProbeResponse>>) {
        {
            let mut segments = lock(&self.cache.segments);
            segments.inflight.remove(&self.key);
            if let Ok(value) = &outcome {
                segments.insert(
                    self.key.clone(),
                    Arc::clone(value),
                    self.cache.capacity,
                    &self.cache.counters,
                );
            }
        }
        *lock(&self.flight.slot) = Some(outcome);
        self.flight.done.notify_all();
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.finish(Err(ModelError::Remote(RemoteDetail::message(
                "probe leader abandoned its flight",
            ))));
        }
    }
}

/// Outcome of a non-blocking [`ProbeCache::claim`].
pub(crate) enum Claim<'c> {
    /// The answer was cached (shared, already decoded).
    Hit(Arc<ProbeResponse>),
    /// Another probe is already fetching this key — wait on its flight
    /// (only after completing any flights *you* lead, or two leaders
    /// waiting on each other could deadlock).
    Foreign(Arc<Flight>),
    /// This caller leads: fetch from the shard and complete the guard.
    Lead(FlightGuard<'c>),
}

#[derive(Debug, Default)]
struct Segments {
    hot: HashMap<ProbeKey, Arc<ProbeResponse>>,
    cold: HashMap<ProbeKey, Arc<ProbeResponse>>,
    inflight: HashMap<ProbeKey, Arc<Flight>>,
}

impl Segments {
    fn get(
        &mut self,
        key: &ProbeKey,
        capacity: usize,
        counters: &CacheCounters,
    ) -> Option<Arc<ProbeResponse>> {
        if let Some(value) = self.hot.get(key) {
            return Some(Arc::clone(value));
        }
        // A cold hit promotes: entries touched since the last segment
        // flip survive the next one.
        let value = self.cold.remove(key)?;
        self.insert(key.clone(), Arc::clone(&value), capacity, counters);
        Some(value)
    }

    fn insert(
        &mut self,
        key: ProbeKey,
        value: Arc<ProbeResponse>,
        capacity: usize,
        counters: &CacheCounters,
    ) {
        if self.hot.len() >= capacity.div_ceil(2) && !self.hot.contains_key(&key) {
            // Segment flip: everything not touched since the previous
            // flip (the cold segment) is discarded in O(1).
            let dropped = std::mem::replace(&mut self.cold, std::mem::take(&mut self.hot));
            counters.add_evicted(dropped.len() as u64);
        }
        self.cold.remove(&key);
        self.hot.insert(key, value);
    }
}

/// A bounded gather-side answer cache with single-flight coalescing.
///
/// Entries are shared decoded [`ProbeResponse`] values keyed by
/// `ProbeKey` (canonical probe encoding + shard identity token).
/// Eviction is a two-segment LRU approximation: insertions and touched
/// entries live in a *hot* segment; when it reaches half the capacity the
/// segments flip and the untouched half is dropped wholesale — bounded
/// memory with O(1) operations and no per-entry bookkeeping.
///
/// Concurrent identical probes coalesce: the first caller leads the one
/// shard round trip, later callers wait on its `Flight` and share the
/// decoded response. A leader's *error* is propagated to waiters verbatim
/// (cloned) and never cached.
#[derive(Debug)]
pub struct ProbeCache {
    capacity: usize,
    segments: Mutex<Segments>,
    counters: CacheCounters,
}

impl ProbeCache {
    /// A cache bounded to at most `entries` cached responses (clamped to
    /// a minimum of 2 — one per segment).
    pub fn new(entries: usize) -> ProbeCache {
        ProbeCache {
            capacity: entries.max(2),
            segments: Mutex::new(Segments::default()),
            counters: CacheCounters::default(),
        }
    }

    /// The operational counters (hits / misses / coalesced / evicted).
    pub fn counters(&self) -> &CacheCounters {
        &self.counters
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> CacheStatsSnapshot {
        self.counters.snapshot()
    }

    /// Number of cached responses currently held.
    pub fn len(&self) -> usize {
        let segments = lock(&self.segments);
        segments.hot.len() + segments.cold.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking claim: a cached answer, an in-flight foreign probe to
    /// wait on, or leadership of a new flight. Counts one hit, coalesced
    /// probe, or miss respectively.
    pub(crate) fn claim(&self, key: &ProbeKey) -> Claim<'_> {
        let mut segments = lock(&self.segments);
        if let Some(value) = segments.get(key, self.capacity, &self.counters) {
            drop(segments);
            self.counters.add_hits(1);
            return Claim::Hit(value);
        }
        if let Some(flight) = segments.inflight.get(key) {
            let flight = Arc::clone(flight);
            drop(segments);
            self.counters.add_coalesced(1);
            return Claim::Foreign(flight);
        }
        let flight = Arc::new(Flight {
            slot: Mutex::new(None),
            done: Condvar::new(),
        });
        segments.inflight.insert(key.clone(), Arc::clone(&flight));
        drop(segments);
        self.counters.add_misses(1);
        Claim::Lead(FlightGuard {
            cache: self,
            key: key.clone(),
            flight,
            armed: true,
        })
    }

    /// Blocks until a foreign flight completes, returning the leader's
    /// outcome (shared response, or its error cloned).
    pub(crate) fn wait(&self, flight: &Flight) -> Result<Arc<ProbeResponse>> {
        let mut slot = lock(&flight.slot);
        loop {
            if let Some(outcome) = slot.as_ref() {
                return outcome.clone();
            }
            slot = flight
                .done
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// One shard's cache identity: a stable base token derived from the blob
/// served at handshake time ([`shard_identity_token`]) plus a generation
/// counter the owner bumps whenever that blob is found replaced
/// (wrong-blob eviction). Bumping the generation changes every future
/// key, so stale entries become unreachable instantly and age out with
/// the next segment flips.
#[derive(Debug, Clone)]
pub struct ShardCacheId {
    base: u64,
    generation: Arc<AtomicU64>,
}

impl ShardCacheId {
    /// An identity with its own private generation counter (local shards,
    /// whose blob never changes underneath the gatherer).
    pub fn new(base: u64) -> ShardCacheId {
        ShardCacheId::with_generation(base, Arc::new(AtomicU64::new(0)))
    }

    /// An identity sharing the owner's generation counter (remote shards
    /// bump it at every wrong-blob eviction).
    pub fn with_generation(base: u64, generation: Arc<AtomicU64>) -> ShardCacheId {
        ShardCacheId { base, generation }
    }

    /// The current per-shard key token.
    pub fn token(&self) -> u64 {
        let generation = self.generation.load(Ordering::Acquire);
        mix(self.base ^ generation.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

/// A stable base token for one shard's served blob: shard index,
/// cardinality, and schema — exactly the identity the PR 7 handshake
/// verifies, so two shards answer under the same token only when the
/// handshake would accept them interchangeably.
pub fn shard_identity_token(index: usize, n: u64, schema: &Schema) -> u64 {
    let mut bytes = Vec::with_capacity(64);
    bytes.extend_from_slice(&(index as u64).to_le_bytes());
    bytes.extend_from_slice(&n.to_le_bytes());
    bytes.extend_from_slice(format!("{schema:?}").as_bytes());
    mix(hash_bytes(&bytes))
}

/// The per-backend cache bundle: one [`ProbeCache`] plus one
/// [`ShardCacheId`] per shard. [`gather`] claims every entry a request
/// needs before it asks anybody: a single-answer request is one entry per
/// shard under that shard's identity token, a batch one entry *per mask*
/// (keyed as the single probe of that mask, so they share entries). When
/// all are cached the answer is folded right there and no shard is asked,
/// which is what closes the cached point-query gap.
#[derive(Debug)]
pub struct GatherCache {
    cache: Arc<ProbeCache>,
    shards: Vec<ShardCacheId>,
}

impl GatherCache {
    /// A cache bounded to `entries` responses over the given shard
    /// identities.
    pub fn new(entries: usize, shards: Vec<ShardCacheId>) -> GatherCache {
        GatherCache {
            cache: Arc::new(ProbeCache::new(entries)),
            shards,
        }
    }

    /// The underlying answer cache.
    pub fn cache(&self) -> &ProbeCache {
        &self.cache
    }

    /// A point-in-time copy of the cache counters.
    pub fn snapshot(&self) -> CacheStatsSnapshot {
        self.cache.snapshot()
    }
}

/// Sums two independent estimates (expectations add, variances add).
pub fn add_estimates(a: Estimate, b: Estimate) -> Estimate {
    Estimate::new(a.expectation + b.expectation, a.variance + b.variance)
}

/// Where one (shard, slot) pair of a gather round stands. A scalar request
/// is one slot; a batch is one slot per mask.
enum Cell<'c> {
    /// The shard's support annihilates the mask: the answer is an exact
    /// zero, nobody is asked, and the cache neither holds nor counts it.
    Pruned,
    /// The same mask as an earlier slot of this batch, whose cell it shares.
    Same(usize),
    /// Answered: cached, fetched this round, or handed over by a foreign
    /// flight.
    Ready(Arc<ProbeResponse>),
    /// Another round is already fetching this entry.
    Foreign(Arc<Flight>),
    /// This round asks the shard — leading the entry's flight when there
    /// is a cache.
    Asked(Option<FlightGuard<'c>>),
}

/// Asks the shards `request` and merges the answers — the one gather path
/// of every sharded backend, in one round:
///
/// 1. **Prune.** A (shard, mask) pair whose mask the shard's
///    [`Support`] does not admit is an exact zero and is dropped — per mask
///    for a batch. A mask no shard admits stays on shard 0, so an
///    all-disjoint (or malformed) request still gets an answer, or an
///    error, of a shard's own making.
/// 2. **Claim.** With a `cache`, every remaining pair claims its entry:
///    cached, in flight elsewhere, or led by this round. Duplicate masks of
///    one batch share a slot (counted as coalesced).
/// 3. **Ask.** All leading shards are asked together through
///    [`ShardProbe::probe_each`] — each only the slots it leads — and every
///    flight this round leads is completed, with the answer or the error
///    unchanged, before a foreign flight is waited on, so concurrent rounds
///    over overlapping keys cannot deadlock. When everything was cached,
///    nobody is asked and the worker pool is never entered.
/// 4. **Merge.** The per-shard answers, pruned cells as zeros, meet the one
///    `merge` under the unchanged mixture weights.
///
/// A sample draw is not merged but stratified (`gather_sample`).
pub fn gather<P: ShardProbe>(
    probes: &[P],
    cache: Option<&GatherCache>,
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

    // One key body per slot, and each slot's first occurrence in the batch.
    let keyed = cache.map(|cache| {
        assert_eq!(probes.len(), cache.shards.len(), "one cache id per shard");
        let bodies: Vec<ProbeKeyBody> = match ProbeKeyBody::of(request) {
            Some(body) => vec![body],
            None => {
                let count = matches!(request, ProbeRequest::CountMany { .. });
                let tag = if count { TAG_COUNT } else { TAG_PROBABILITY };
                let body = |mask| ProbeKeyBody::finish(vec![tag], mask);
                masks.iter().map(body).collect()
            }
        };
        (&*cache.cache, &cache.shards, bodies)
    });
    let mut first_of: Vec<usize> = (0..masks.len()).collect();
    if let Some((.., bodies)) = &keyed {
        let mut seen: HashMap<&ProbeKeyBody, usize> = HashMap::with_capacity(bodies.len());
        for (slot, body) in bodies.iter().enumerate() {
            first_of[slot] = *seen.entry(body).or_insert(slot);
        }
    }

    let mut asks: Vec<Ask> = Vec::new();
    let mut cells: Vec<Vec<Cell<'_>>> = Vec::with_capacity(probes.len());
    for (shard, live) in live.iter().enumerate() {
        let mut asked = Vec::new();
        let row = (0..masks.len()).map(|slot| {
            if !live[slot] {
                return Cell::Pruned;
            }
            let Some((cache, ids, bodies)) = &keyed else {
                asked.push(slot);
                return Cell::Asked(None);
            };
            if first_of[slot] != slot {
                cache.counters().add_coalesced(1);
                return Cell::Same(first_of[slot]);
            }
            match cache.claim(&bodies[slot].key(ids[shard].token())) {
                Claim::Hit(answer) => Cell::Ready(answer),
                Claim::Foreign(flight) => Cell::Foreign(flight),
                Claim::Lead(guard) => {
                    asked.push(slot);
                    Cell::Asked(Some(guard))
                }
            }
        });
        cells.push(row.collect());
        if !asked.is_empty() {
            let slots = (batch && asked.len() < masks.len()).then_some(asked);
            asks.push(Ask { shard, slots });
        }
    }

    // Every flight this round leads gets its shard's outcome — an error
    // unchanged — before the round fails or waits on anybody else's.
    let mut failed = None;
    if !asks.is_empty() {
        let replies = P::probe_each(probes, request, &asks, scratches);
        for (ask, reply) in asks.iter().zip(replies) {
            let asked = cells[ask.shard]
                .iter_mut()
                .filter(|cell| matches!(cell, Cell::Asked(_)));
            let mut parts = reply.and_then(|reply| {
                if !ask.answered_by(request, &reply) {
                    return Err(unexpected_shape());
                }
                Ok(split(reply).into_iter())
            });
            for cell in asked {
                let outcome = match &mut parts {
                    Ok(parts) => Ok(parts.next().expect("one part per asked slot")),
                    Err(err) => Err(err.clone()),
                };
                let outcome = match std::mem::replace(cell, Cell::Pruned) {
                    Cell::Asked(Some(guard)) => guard.complete(outcome),
                    _ => outcome.map(Arc::new),
                };
                match outcome {
                    Ok(answer) => *cell = Cell::Ready(answer),
                    Err(err) => failed = failed.or(Some(err)),
                }
            }
        }
    }
    if let Some(err) = failed {
        return Err(err);
    }
    let answers = cells.iter_mut().map(|row| {
        for cell in row.iter_mut() {
            if let (Cell::Foreign(flight), Some((cache, ..))) = (&*cell, &keyed) {
                *cell = Cell::Ready(cache.wait(flight)?);
            }
        }
        let answer = |cell: &Cell<'_>| match cell {
            Cell::Ready(answer) => Some(Arc::clone(answer)),
            _ => None,
        };
        if !batch {
            return Ok(answer(&row[0]));
        }
        let parts = row.iter().map(|cell| match cell {
            Cell::Same(first) => answer(&row[*first]),
            cell => answer(cell),
        });
        join(request, parts).map(|joined| Some(Arc::new(joined)))
    });
    merge(probes, request, &answers.collect::<Result<Vec<_>>>()?)
}

/// The per-slot parts of a shard's reply: the reply itself for a scalar
/// request, one `Probability` / `Estimate` per mask for a batch —
/// the shape a batch slot is cached in, so a slot and the single probe of
/// its mask share an entry.
fn split(reply: ProbeResponse) -> Vec<ProbeResponse> {
    match reply {
        ProbeResponse::Probabilities(ps) => {
            ps.into_iter().map(ProbeResponse::Probability).collect()
        }
        ProbeResponse::Estimates(es) => es.into_iter().map(ProbeResponse::Estimate).collect(),
        scalar => vec![scalar],
    }
}

fn unexpected_shape() -> ModelError {
    ModelError::Remote(RemoteDetail::message(
        "shard answered an unexpected probe response shape",
    ))
}

/// One shard's answer to the batch `request`, put back together from its
/// per-mask parts; a pruned slot (`None`) is the exact zero it stands for.
/// That zero is `-0.0`, the additive identity: [`merge`] then sums a
/// pruned slot exactly as it leaves a pruned shard of a scalar request
/// out, even where the other shards answer `-0.0` (a mask of `-0.0`
/// weights).
fn join(
    request: &ProbeRequest,
    parts: impl Iterator<Item = Option<Arc<ProbeResponse>>>,
) -> Result<ProbeResponse> {
    let count = matches!(request, ProbeRequest::CountMany { .. });
    let zero = match count {
        true => ProbeResponse::Estimate(Estimate {
            expectation: -0.0,
            variance: -0.0,
        }),
        false => ProbeResponse::Probability(-0.0),
    };
    let parts = parts.map(|part| part.map_or_else(|| zero.clone(), |p| ProbeResponse::clone(&p)));
    if count {
        let cells = parts.map(Estimate::try_from).collect::<Result<_>>();
        cells.map(ProbeResponse::Estimates)
    } else {
        let cells = parts.map(f64::try_from).collect::<Result<_>>();
        cells.map(ProbeResponse::Probabilities)
    }
}

/// The `SampleAt` arm of [`gather`]: the draws `0..k` are stratified across
/// the shards (contiguous by shard, sized by [`proportional_quota`] of the
/// cardinalities read from the shards now), each shard is sent the
/// requested indices that fall in its stratum — a shard owed none is not
/// asked, so it cannot fail or slow the draw — and the rows are put back
/// in request order. When no shard is owed an index, shard 0 is asked the
/// empty selection, as a mask no shard admits stays on shard 0: the empty
/// answer carries the model's arity. Draws bypass the cache: they are
/// deterministic in `(seed, index)` and cheap relative to their payload,
/// and caching rows would only crowd out estimator entries.
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
/// shard pruned from a scalar request, whose exact zero adds nothing to
/// any fold below. A single shard's answer is returned untouched (the
/// bitwise 1-shard guarantee). Probability cells mix as `Σ (n_s / n) · p_s`
/// clamped into `[0, 1]`, with the cardinalities of *all* shards read now —
/// a live shard's `n_s` grows, and a pruned shard still weighs in `n` — and
/// estimate cells add (expectations and variances).
fn merge<P: ShardProbe, R: Borrow<ProbeResponse>>(
    probes: &[P],
    request: &ProbeRequest,
    answers: &[Option<R>],
) -> Result<ProbeResponse> {
    let mismatch = |what: &str| ModelError::Remote(RemoteDetail::message(what));
    let mut given = answers.iter().flatten().map(R::borrow);
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
                .filter_map(|(answer, &n_s)| Some((n_s as f64 / n, answer.as_ref()?.borrow())))
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
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    /// A synthetic shard probe that counts inner calls, optionally
    /// sleeps (to widen coalescing windows), optionally fails, and
    /// optionally declares the codes of attribute 0 it supports.
    struct CountingProbe {
        n: u64,
        calls: AtomicUsize,
        delay: Duration,
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
                delay: Duration::ZERO,
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
            if !self.delay.is_zero() {
                std::thread::sleep(self.delay);
            }
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
                    lock(&self.sampled).extend(indices);
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

    /// A one-shard cache under identity `id`, and one shard asked through it.
    fn shard_cache(id: ShardCacheId) -> GatherCache {
        GatherCache::new(64, vec![id])
    }

    fn cached(
        probe: &CountingProbe,
        cache: &GatherCache,
        request: &ProbeRequest,
    ) -> Result<ProbeResponse> {
        gather(std::slice::from_ref(probe), Some(cache), request, &mut [()])
    }

    #[test]
    fn single_flight_coalesces_concurrent_identical_probes() {
        let probe = CountingProbe {
            delay: Duration::from_millis(30),
            ..CountingProbe::new(100)
        };
        let cache = shard_cache(ShardCacheId::new(7));
        let request = count(&[1.0, 0.0, 2.5]);
        let results: Vec<ProbeResponse> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| cached(&probe, &cache, &request).expect("probe succeeds")))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(probe.calls(), 1, "eight identical probes, one inner call");
        assert!(results.windows(2).all(|w| w[0] == w[1]));
        let snap = cache.snapshot();
        assert_eq!(snap.misses, 1);
        assert_eq!(snap.hits + snap.coalesced, 7);
    }

    #[test]
    fn leader_errors_propagate_and_are_not_cached() {
        let probe = CountingProbe {
            fail: true,
            ..CountingProbe::new(100)
        };
        let cache = shard_cache(ShardCacheId::new(1));
        let first = cached(&probe, &cache, &count(&[1.0]));
        let second = cached(&probe, &cache, &count(&[1.0]));
        assert_eq!(
            first.clone().unwrap_err(),
            ModelError::Remote(RemoteDetail::message("injected probe failure"))
        );
        assert_eq!(first, second, "waiters and retries see the real error");
        assert_eq!(probe.calls(), 2, "errors are never cached");
        assert!(cache.cache().is_empty());
        // A failed batch round completes its flights with the same error.
        let batch = ProbeRequest::CountMany {
            masks: vec![weighted_mask(&[1.0]), weighted_mask(&[2.0])],
        };
        assert_eq!(cached(&probe, &cache, &batch), first);
        assert!(cache.cache().is_empty());
    }

    #[test]
    fn cache_is_bounded_and_counts_evictions() {
        let probe = CountingProbe::new(100);
        let cache = GatherCache::new(4, vec![ShardCacheId::new(1)]);
        for i in 0..10 {
            cached(&probe, &cache, &count(&[i as f64])).unwrap();
        }
        let len = cache.cache().len();
        assert!(len <= 4, "cache stays bounded: {len}");
        let snap = cache.snapshot();
        assert_eq!(snap.misses, 10);
        assert!(snap.evicted > 0);
    }

    #[test]
    fn generation_bump_invalidates_cached_entries() {
        let probe = CountingProbe::new(100);
        let generation = Arc::new(AtomicU64::new(0));
        let id = ShardCacheId::with_generation(9, Arc::clone(&generation));
        let cache = shard_cache(id);
        let request = count(&[2.0]);
        let before = cached(&probe, &cache, &request).unwrap();
        assert_eq!(probe.calls(), 1);
        // Same generation: served from cache.
        cached(&probe, &cache, &request).unwrap();
        assert_eq!(probe.calls(), 1);
        // Blob replaced: every cached answer becomes unreachable.
        generation.fetch_add(1, Ordering::SeqCst);
        let after = cached(&probe, &cache, &request).unwrap();
        assert_eq!(probe.calls(), 2, "new generation misses the cache");
        assert_eq!(before, after);
    }

    #[test]
    fn batched_round_coalesces_duplicates_and_fetches_misses_once() {
        let probe = CountingProbe::new(100);
        let cache = shard_cache(ShardCacheId::new(3));
        let a = weighted_mask(&[1.0]);
        let b = weighted_mask(&[2.0]);
        let batch = ProbeRequest::CountMany {
            masks: vec![a.clone(), b.clone(), a.clone(), a.clone()],
        };
        let round = cached(&probe, &cache, &batch).unwrap();
        assert_eq!(probe.calls(), 1, "the two distinct masks ride one probe");
        assert_eq!(cache.cache().len(), 2, "one entry per distinct mask");
        assert_eq!(cache.snapshot().coalesced, 2);
        // The cached round must agree with the uncached probe bitwise.
        assert_eq!(round, probe.probe(&batch, &mut ()).unwrap());
        // A batch slot and the single probe of its mask share one entry.
        let single = cached(&probe, &cache, &ProbeRequest::Count { mask: b });
        let ProbeResponse::Estimates(round) = round else {
            panic!("a count batch answers estimates")
        };
        assert_eq!(single.unwrap(), ProbeResponse::Estimate(round[1]));
        assert_eq!(probe.calls(), 2, "served from the batch's entry");
    }

    /// Shards with disjoint supports: a (shard, mask) pair the support
    /// annihilates is never asked and touches no cache counter, a mask no
    /// shard admits is still put to shard 0, and a shard without a declared
    /// support is always asked.
    #[test]
    fn gather_asks_only_the_shards_whose_support_admits_the_mask() {
        let probes = [
            CountingProbe::supporting(50, &[true, true, false, false]),
            CountingProbe::supporting(30, &[false, false, true, false]),
            CountingProbe::new(20),
        ];
        let ids = (1..=3).map(ShardCacheId::new).collect();
        let cache = GatherCache::new(256, ids);
        let calls = |probes: &[CountingProbe]| probes.iter().map(|p| p.calls()).collect::<Vec<_>>();
        let mut scratches = [(), (), ()];
        let mut ask = |request: &ProbeRequest| {
            gather(&probes, Some(&cache), request, &mut scratches).unwrap()
        };

        // Only shard 0 supports code 1; shard 2 declares nothing.
        let low = count(&[0.0, 3.0, 0.0, 0.0]);
        assert_eq!(ask(&low), ProbeResponse::Estimate(Estimate::new(6.0, 2.0)));
        assert_eq!(calls(&probes), [1, 0, 1]);
        assert_eq!(cache.snapshot().misses, 2, "a pruned pair is no miss");
        ask(&low);
        assert_eq!(calls(&probes), [1, 0, 1]);
        assert_eq!(cache.snapshot().hits, 2, "all live pairs cached: no ask");

        // Code 3 is outside every declared support: among the declaring
        // shards alone, shard 0 is kept and answers for the mixture.
        let nowhere = count(&[0.0, 0.0, 0.0, 5.0]);
        ask(&nowhere);
        assert_eq!(calls(&probes), [1, 0, 2]);
        let kept = gather(&probes[..2], None, &nowhere, &mut [(), ()]).unwrap();
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

    #[test]
    fn probe_keys_distinguish_ops_tokens_and_arguments() {
        let key = |request: &ProbeRequest, token| ProbeKeyBody::of(request).unwrap().key(token);
        let mask = weighted_mask(&[1.0, 0.5]);
        let count = ProbeRequest::Count { mask: mask.clone() };
        let prob = ProbeRequest::Probability { mask: mask.clone() };
        assert_ne!(key(&count, 1), key(&prob, 1), "op is part of the key");
        assert_ne!(key(&count, 1), key(&count, 2), "token is part of the key");
        assert_eq!(key(&count, 1), key(&count.clone(), 1));
        assert_ne!(key(&count, 1), key(&self::count(&[1.0, 0.25]), 1));
        let group = |attr| ProbeRequest::GroupBy {
            mask: mask.clone(),
            attr: AttrId(attr),
        };
        assert_ne!(key(&group(0), 1), key(&group(1), 1), "attr is keyed");
        let sum = |values: &[f64]| ProbeRequest::Sum {
            mask: mask.clone(),
            attr: AttrId(0),
            values: values.to_vec(),
        };
        assert_ne!(key(&sum(&[1.0]), 1), key(&sum(&[2.0]), 1), "weights too");
        let batch = ProbeRequest::CountMany { masks: vec![mask] };
        assert!(ProbeKeyBody::of(&batch).is_none(), "batches key per mask");
    }

    /// Every mergeable request kind, cold then warm through [`gather`]:
    /// the cached answer is bitwise the fanned-out one (both run
    /// [`merge`]), equals the uncached gather, and costs no second probe.
    #[test]
    fn gather_cache_paths_match_drivers_bitwise() {
        let probes = [CountingProbe::new(60), CountingProbe::new(40)];
        let uncached = [CountingProbe::new(60), CountingProbe::new(40)];
        let ids = vec![ShardCacheId::new(1), ShardCacheId::new(2)];
        let gather_cache = GatherCache::new(256, ids);
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
            let cold = gather(&probes, Some(&gather_cache), request, &mut scratches).unwrap();
            let warm = gather(&probes, Some(&gather_cache), request, &mut scratches).unwrap();
            let plain = gather(&uncached, None, request, &mut scratches).unwrap();
            assert!(cold.answers(request), "{request:?} -> {cold:?}");
            assert_eq!(cold.encode(), warm.encode(), "{request:?}");
            assert_eq!(cold.encode(), plain.encode(), "{request:?}");
            // Every shard answered each kind exactly once.
            assert_eq!(probes[0].calls(), kind + 1, "{request:?}");
            assert_eq!(probes[1].calls(), kind + 1, "{request:?}");
        }
        // The merge rules, spelled out on the scalar kinds.
        let mut answer = |kind: usize| gather(&uncached, None, &requests[kind], &mut scratches);
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
        let sole = merge(&probes[..1], &request, &[Some(&e)]).unwrap();
        assert_eq!(sole, e);
        let mixed = [Some(e.clone()), Some(ProbeResponse::Probability(0.5))];
        assert!(merge(&probes, &request, &mixed).is_err());
        // A pruned shard adds nothing; nobody answering is a shape error.
        assert_eq!(merge(&probes, &request, &[None, Some(&e)]).unwrap(), e);
        assert!(merge::<_, ProbeResponse>(&probes, &request, &[None, None]).is_err());
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
        let answer = gather(&probes, None, &sample(vec![9, 0, 5, 3]), &mut scratches).unwrap();
        let rows = Vec::<Vec<u32>>::try_from(answer).unwrap();
        assert_eq!(rows, [[9], [0], [5], [3]], "rows in request order");
        assert_eq!(*lock(&probes[0].sampled), [0, 5, 3]);
        assert_eq!(probes[1].calls(), 0, "a shard owed no row is not probed");
        assert_eq!(*lock(&probes[2].sampled), [9]);
        // A dead shard that owes nothing cannot fail the draw; one that
        // owes a row does, and an index past `k` is a shape error.
        let dead = CountingProbe {
            fail: true,
            ..CountingProbe::new(3)
        };
        let probes = [CountingProbe::new(6), dead, CountingProbe::new(1)];
        assert!(gather(&probes, None, &sample(vec![2, 9]), &mut scratches).is_ok());
        assert!(gather(&probes, None, &sample(vec![2, 7]), &mut scratches).is_err());
        assert_eq!(
            gather(&probes, None, &sample(vec![10]), &mut scratches),
            Err(ModelError::ShapeMismatch)
        );
    }
}
