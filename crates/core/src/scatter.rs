//! The shard-source-agnostic scatter/gather layer.
//!
//! Every backend answers the one mask-level question, a [`ProbeRequest`],
//! through the one method [`ShardProbe::probe`]: a fitted
//! [`MaxEntSummary`](crate::model::MaxEntSummary) interprets it, a TCP
//! connection to a remote `entropydb-serve` instance ships it, the gather
//! cache ([`CachedProbe`]) fronts either — and a *mixture* of shards
//! answers it by forwarding the borrowed request to [`gather`], the one
//! path from request to merged answer (peek every shard's cached answer,
//! else fan the probes out, then merge). The local sharded backend and a
//! remote scatter/gather backend therefore share every floating-point
//! operation, which is what makes remote answers bitwise-identical to
//! local ones — and a fully-cached answer is folded by the very code a
//! fanned-out one is.
//!
//! The merge rules (see the module docs of [`crate::sharded`] for the
//! statistical argument):
//!
//! * probability: shard mixture `Σ (n_s / n) · p_s`, clamped into `[0, 1]`,
//!   with `n_s` read from the shards at call time;
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
//! bounded two-segment LRU with single-flight coalescing), the
//! [`CachedProbe`] wrapper that puts the cache in front of any
//! [`ShardProbe`], and [`GatherCache`], the per-backend bundle of cache +
//! shard identity tokens. Cache keys are the canonical probe encoding (1:1
//! with the `b1` wire form) combined with a per-shard blob-identity token,
//! so swapping a shard's blob invalidates every cached answer for it.

use crate::assignment::Mask;
use crate::error::{ModelError, RemoteDetail, Result};
use crate::metrics::{CacheCounters, CacheStatsSnapshot};
use crate::par;
use crate::probe::{ProbeRequest, ProbeResponse};
use crate::query::Estimate;
use entropydb_storage::Schema;
use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Anything that answers mask-level [`ProbeRequest`]s: a fitted model, a
/// remote node, a cached wrapper of either, or a mixture of them. `probe` is
/// the only evaluating method a backend has. Probing is fallible:
/// in-process probes only fail on genuine shape errors, remote probes
/// surface transport failures as [`ModelError::Remote`] with the failing
/// shard named.
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

/// The shard-independent part of a cache key: a compact binary form of
/// the canonical `b1` probe encoding (op tag, arguments, then the mask as
/// per-attribute identity flags or `f64::to_bits` weight vectors). Floats
/// round-trip the wire bit-exactly, so two probes get the same body
/// exactly when their wire lines are identical — the key *is* the
/// canonical wire form, just pre-hashed and byte-packed.
#[derive(Debug, Clone)]
pub(crate) struct ProbeKeyBody {
    bytes: Arc<Vec<u8>>,
    hash: u64,
}

impl ProbeKeyBody {
    /// The key body of a single-answer request. `None` for the batch
    /// requests — [`CachedProbe`] keys those per mask, as the `prob` /
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
        bytes.extend_from_slice(&(mask.arity() as u32).to_le_bytes());
        for attr in 0..mask.arity() {
            match mask.attr_weights(attr) {
                None => bytes.push(0),
                Some(weights) => {
                    bytes.push(1);
                    bytes.extend_from_slice(&(weights.len() as u32).to_le_bytes());
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

    /// Non-blocking lookup that never counts toward the hit/miss
    /// counters — the building block of the all-shards-cached fast path,
    /// which accounts for its probes itself.
    pub(crate) fn peek(&self, key: &ProbeKey) -> Option<Arc<ProbeResponse>> {
        let mut segments = lock(&self.segments);
        segments.get(key, self.capacity, &self.counters)
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

    /// The single-probe convenience: cached answer, or wait on the
    /// in-flight leader, or lead the one `compute` call yourself. Safe to
    /// call while holding no [`FlightGuard`] (a holder must complete its
    /// own flight before waiting on foreign ones).
    pub(crate) fn get_or_compute(
        &self,
        key: &ProbeKey,
        compute: impl FnOnce() -> Result<ProbeResponse>,
    ) -> Result<Arc<ProbeResponse>> {
        match self.claim(key) {
            Claim::Hit(value) => Ok(value),
            Claim::Foreign(flight) => self.wait(&flight),
            Claim::Lead(guard) => guard.complete(compute()),
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

/// A [`ShardProbe`] with a [`ProbeCache`] in front: a single-answer
/// request is one cache entry under this shard's identity token (cached,
/// or coalesced with an identical in-flight probe, or fetched by this
/// caller); a batch request is one entry *per mask*, and only the masks
/// nobody cached yet ride one inner batch probe (one pipelined wire frame
/// for a remote shard). Cached answers are the shard's own decoded
/// responses, so going through the wrapper is bitwise-invisible.
pub struct CachedProbe<'a, P: ShardProbe> {
    inner: &'a P,
    cache: &'a ProbeCache,
    token: u64,
}

impl<'a, P: ShardProbe> CachedProbe<'a, P> {
    /// Wraps `inner`, keying its answers under `token`.
    pub fn new(inner: &'a P, cache: &'a ProbeCache, token: u64) -> CachedProbe<'a, P> {
        CachedProbe {
            inner,
            cache,
            token,
        }
    }

    /// [`ShardProbe::probe`] with the request's key body supplied, so
    /// [`gather`] encodes and hashes it once for every shard.
    fn probe_keyed(
        &self,
        request: &ProbeRequest,
        body: Option<&ProbeKeyBody>,
        scratch: &mut P::Scratch,
    ) -> Result<ProbeResponse> {
        let (tag, masks) = match (body, request) {
            (Some(body), _) => {
                let key = body.key(self.token);
                let compute = || self.inner.probe(request, scratch);
                let cached = self.cache.get_or_compute(&key, compute)?;
                return Ok(ProbeResponse::clone(&cached));
            }
            (None, ProbeRequest::ProbabilityMany { masks }) => (TAG_PROBABILITY, masks),
            (None, ProbeRequest::CountMany { masks }) => (TAG_COUNT, masks),
            // Sampling is deterministic in (seed, index) and cheap relative
            // to its payload — caching rows would only crowd out estimator
            // entries, so draws pass straight through.
            (None, _) => return self.inner.probe(request, scratch),
        };
        let slots = self.batched(tag, masks, scratch)?;
        let slots = slots.iter().map(|slot| ProbeResponse::clone(slot));
        if tag == TAG_COUNT {
            let list = slots.map(Estimate::try_from).collect::<Result<_>>();
            list.map(ProbeResponse::Estimates)
        } else {
            let list = slots.map(f64::try_from).collect::<Result<_>>();
            list.map(ProbeResponse::Probabilities)
        }
    }

    /// Runs one batch round, one cache entry per mask (keyed as the
    /// single `tag` probe of that mask): duplicate masks within the round
    /// share one slot (counted as coalesced), cached masks are answered
    /// immediately, and the remaining misses are fetched with a *single*
    /// inner batch probe. All flights this round leads are completed
    /// before any foreign flight is waited on, so concurrent rounds over
    /// overlapping keys cannot deadlock.
    fn batched(
        &self,
        tag: u8,
        masks: &[Mask],
        scratch: &mut P::Scratch,
    ) -> Result<Vec<Arc<ProbeResponse>>> {
        let keys: Vec<ProbeKey> = masks
            .iter()
            .map(|mask| ProbeKeyBody::finish(vec![tag], mask).key(self.token))
            .collect();
        let n = keys.len();
        let mut out: Vec<Option<Arc<ProbeResponse>>> = vec![None; n];
        let mut claims: Vec<Option<Claim<'_>>> = (0..n).map(|_| None).collect();
        let mut dup_of: Vec<usize> = (0..n).collect();
        let mut leads: Vec<usize> = Vec::new();
        let mut first_pos: HashMap<&ProbeKey, usize> = HashMap::with_capacity(n);
        for i in 0..n {
            match first_pos.entry(&keys[i]) {
                Entry::Vacant(slot) => {
                    slot.insert(i);
                    let claim = self.cache.claim(&keys[i]);
                    if matches!(claim, Claim::Lead(_)) {
                        leads.push(i);
                    }
                    claims[i] = Some(claim);
                }
                Entry::Occupied(slot) => {
                    dup_of[i] = *slot.get();
                    self.cache.counters().add_coalesced(1);
                }
            }
        }
        if !leads.is_empty() {
            let masks: Vec<Mask> = leads.iter().map(|&i| masks[i].clone()).collect();
            let misses = if tag == TAG_COUNT {
                ProbeRequest::CountMany { masks }
            } else {
                ProbeRequest::ProbabilityMany { masks }
            };
            let fetched = self.inner.probe(&misses, scratch).and_then(|resp| {
                if !resp.answers(&misses) {
                    return Err(ModelError::Remote(RemoteDetail::message(
                        "shard answered a mismatched batch shape",
                    )));
                }
                Ok(match resp {
                    ProbeResponse::Probabilities(ps) => {
                        ps.into_iter().map(ProbeResponse::Probability).collect()
                    }
                    ProbeResponse::Estimates(es) => {
                        es.into_iter().map(ProbeResponse::Estimate).collect()
                    }
                    _ => Vec::new(),
                })
            });
            // Hand the outcome — an error unchanged, to every waiter — to
            // the flights this round leads.
            for (slot, &i) in leads.iter().enumerate() {
                let Some(Claim::Lead(guard)) = claims[i].take() else {
                    unreachable!("lead positions hold Lead claims")
                };
                let outcome = match &fetched {
                    Ok(values) => Ok(values[slot].clone()),
                    Err(err) => Err(err.clone()),
                };
                out[i] = guard.complete(outcome).ok();
            }
            fetched?;
        }
        for i in 0..n {
            if out[i].is_some() || dup_of[i] != i {
                continue;
            }
            out[i] = Some(match claims[i].take() {
                Some(Claim::Hit(resp)) => resp,
                Some(Claim::Foreign(flight)) => self.cache.wait(&flight)?,
                _ => unreachable!("every distinct position holds a claim"),
            });
        }
        for i in 0..n {
            if dup_of[i] != i {
                out[i] = out[dup_of[i]].clone();
            }
        }
        Ok(out
            .into_iter()
            .map(|v| v.expect("every batch slot filled"))
            .collect())
    }
}

impl<P: ShardProbe> ShardProbe for CachedProbe<'_, P> {
    type Scratch = P::Scratch;

    fn n(&self) -> u64 {
        self.inner.n()
    }

    fn make_scratch(&self) -> Self::Scratch {
        self.inner.make_scratch()
    }

    fn probe(&self, request: &ProbeRequest, scratch: &mut Self::Scratch) -> Result<ProbeResponse> {
        self.probe_keyed(request, ProbeKeyBody::of(request).as_ref(), scratch)
    }
}

/// The per-backend cache bundle: one [`ProbeCache`] plus one
/// [`ShardCacheId`] per shard. [`gather`] first peeks every shard's entry:
/// when *all* are cached it folds them right there and the fan-out worker
/// pool is bypassed entirely, which is what closes the cached point-query
/// gap; on any miss it fans the probes out behind [`CachedProbe`].
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

    /// Shard `index` behind the cache, under its current identity token.
    fn shard<'a, P: ShardProbe>(&'a self, index: usize, inner: &'a P) -> CachedProbe<'a, P> {
        CachedProbe::new(inner, &self.cache, self.shards[index].token())
    }

    /// Peeks one body across every shard; `Some` (counted as one hit per
    /// shard) only when all answers are cached.
    fn peek_all(&self, body: &ProbeKeyBody) -> Option<Vec<Arc<ProbeResponse>>> {
        let cached = self
            .shards
            .iter()
            .map(|id| self.cache.peek(&body.key(id.token())))
            .collect::<Option<Vec<_>>>()?;
        self.cache.counters().add_hits(cached.len() as u64);
        Some(cached)
    }
}

/// Fans `f` out over `(shard index, probe, probe scratch)` on the worker
/// pool and collects the per-shard results in shard order. Each shard owns
/// its scratch slot, so results are deterministic and identical to serial
/// execution. `scratches` must hold one workspace per probe.
pub fn fan_out<P: ShardProbe, R: Send>(
    probes: &[P],
    scratches: &mut [P::Scratch],
    f: impl Fn(usize, &P, &mut P::Scratch) -> R + Sync,
) -> Vec<R> {
    assert_eq!(probes.len(), scratches.len(), "one scratch per shard");
    let mut work: Vec<(usize, &P, &mut P::Scratch, Option<R>)> = probes
        .iter()
        .enumerate()
        .zip(scratches.iter_mut())
        .map(|((i, probe), scratch)| (i, probe, scratch, None))
        .collect();
    par::for_each_chunk_mut(&mut work, 1, |_, chunk| {
        for (i, probe, scratch, slot) in chunk.iter_mut() {
            *slot = Some(f(*i, probe, scratch));
        }
    });
    work.into_iter()
        .map(|(_, _, _, r)| r.expect("fan-out slot filled"))
        .collect()
}

/// Sums two independent estimates (expectations add, variances add).
pub fn add_estimates(a: Estimate, b: Estimate) -> Estimate {
    Estimate::new(a.expectation + b.expectation, a.variance + b.variance)
}

/// Asks every shard `request` and merges the answers — the one gather
/// path of every sharded backend. With a `cache`, a request whose answer
/// every shard has cached is merged right here, without entering the
/// fan-out pool; otherwise the shards are probed in parallel (behind
/// [`CachedProbe`] when there is a cache, keyed by one body built here).
/// Either way the per-shard answers meet the same `merge`. A sample draw
/// is not merged but stratified (`gather_sample`).
pub fn gather<P: ShardProbe>(
    probes: &[P],
    cache: Option<&GatherCache>,
    request: &ProbeRequest,
    scratches: &mut [P::Scratch],
) -> Result<ProbeResponse> {
    if let ProbeRequest::SampleAt { k, seed, indices } = request {
        return gather_sample(probes, *k, *seed, indices, scratches);
    }
    let body = cache.and_then(|_| ProbeKeyBody::of(request));
    if let (Some(cache), Some(body)) = (cache, &body) {
        assert_eq!(probes.len(), cache.shards.len(), "one cache id per shard");
        if let Some(cached) = cache.peek_all(body) {
            return merge(probes, request, &cached);
        }
    }
    let answers: Result<Vec<ProbeResponse>> =
        fan_out(probes, scratches, |i, probe, scratch| match cache {
            Some(cache) => cache
                .shard(i, probe)
                .probe_keyed(request, body.as_ref(), scratch),
            None => probe.probe(request, scratch),
        })
        .into_iter()
        .collect();
    merge(probes, request, &answers?)
}

/// The `SampleAt` arm of [`gather`]: the draws `0..k` are stratified across
/// the shards (contiguous by shard, sized by [`proportional_quota`] of the
/// cardinalities read from the shards now), each shard is sent the
/// requested indices that fall in its stratum — a shard owed none is not
/// probed, so it cannot fail or slow the draw — and the rows are put back
/// in request order. Draws bypass the cache (see [`CachedProbe`]).
fn gather_sample<P: ShardProbe>(
    probes: &[P],
    k: usize,
    seed: u64,
    indices: &[u64],
    scratches: &mut [P::Scratch],
) -> Result<ProbeResponse> {
    let ns: Vec<u64> = probes.iter().map(P::n).collect();
    let quota = proportional_quota(&ns, k);
    let mut owed = vec![Vec::new(); probes.len()];
    let mut positions = vec![Vec::new(); probes.len()];
    for (pos, &index) in indices.iter().enumerate() {
        let mut end = 0u64;
        let shard = quota
            .iter()
            .position(|&q| {
                end += q as u64;
                index < end
            })
            .ok_or(ModelError::ShapeMismatch)?;
        owed[shard].push(index);
        positions[shard].push(pos);
    }
    let requests: Vec<ProbeRequest> = owed
        .into_iter()
        .map(|indices| ProbeRequest::SampleAt { k, seed, indices })
        .collect();
    let strata = fan_out(probes, scratches, |shard, probe, scratch| {
        let request = &requests[shard];
        if positions[shard].is_empty() {
            return Ok(Vec::new());
        }
        let answer = probe.probe(request, scratch)?;
        if !answer.answers(request) {
            return Err(ModelError::Remote(RemoteDetail::message(
                "shard answered an unexpected probe response shape",
            )));
        }
        Vec::<Vec<u32>>::try_from(answer)
    });
    let mut rows = vec![Vec::new(); indices.len()];
    for (stratum, positions) in strata.into_iter().zip(&positions) {
        for (row, &pos) in stratum?.into_iter().zip(positions) {
            rows[pos] = row;
        }
    }
    let arity = rows.first().map_or(0, Vec::len);
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

/// Merges the shards' answers to `request`, in shard order. A single
/// shard's answer is returned untouched (the bitwise 1-shard guarantee).
/// Probability cells mix as `Σ (n_s / n) · p_s` clamped into `[0, 1]`,
/// with the cardinalities read from the shards now — a live shard's `n_s`
/// grows — and estimate cells add (expectations and variances).
fn merge<P: ShardProbe, R: Borrow<ProbeResponse>>(
    probes: &[P],
    request: &ProbeRequest,
    answers: &[R],
) -> Result<ProbeResponse> {
    let mismatch = |what: &str| ModelError::Remote(RemoteDetail::message(what));
    if answers.iter().any(|a| !a.borrow().answers(request)) {
        return Err(mismatch(
            "shard answered an unexpected probe response shape",
        ));
    }
    let (first, rest) = match answers {
        [] => return Err(ModelError::ShapeMismatch),
        [only] => return Ok(only.borrow().clone()),
        [first, rest @ ..] => (first.borrow(), rest),
    };
    Ok(match first {
        ProbeResponse::Probability(_) | ProbeResponse::Probabilities(_) => {
            let ns: Vec<u64> = probes.iter().map(P::n).collect();
            let n = ns.iter().sum::<u64>() as f64;
            let weights: Vec<f64> = ns.iter().map(|&n_s| n_s as f64 / n).collect();
            let mut mixed = (0..probabilities(first).len()).map(|cell| {
                answers
                    .iter()
                    .zip(&weights)
                    .fold(0.0, |acc, (a, &w)| {
                        acc + w * probabilities(a.borrow())[cell]
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
            for answer in rest {
                let cells = estimates(answer.borrow());
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
    use entropydb_storage::AttrId;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    /// A synthetic shard probe that counts inner calls, optionally
    /// sleeps (to widen coalescing windows), and optionally fails.
    struct CountingProbe {
        n: u64,
        calls: AtomicUsize,
        delay: Duration,
        fail: bool,
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
                sampled: Mutex::new(Vec::new()),
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

    #[test]
    fn single_flight_coalesces_concurrent_identical_probes() {
        let probe = CountingProbe {
            delay: Duration::from_millis(30),
            ..CountingProbe::new(100)
        };
        let cache = ProbeCache::new(64);
        let request = count(&[1.0, 0.0, 2.5]);
        let results: Vec<ProbeResponse> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        CachedProbe::new(&probe, &cache, 7)
                            .probe(&request, &mut ())
                            .expect("probe succeeds")
                    })
                })
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
        let cache = ProbeCache::new(64);
        let cached = CachedProbe::new(&probe, &cache, 1);
        let first = cached.probe(&count(&[1.0]), &mut ());
        let second = cached.probe(&count(&[1.0]), &mut ());
        assert_eq!(
            first.clone().unwrap_err(),
            ModelError::Remote(RemoteDetail::message("injected probe failure"))
        );
        assert_eq!(first, second, "waiters and retries see the real error");
        assert_eq!(probe.calls(), 2, "errors are never cached");
        assert!(cache.is_empty());
        // A failed batch round completes its flights with the same error.
        let batch = ProbeRequest::CountMany {
            masks: vec![weighted_mask(&[1.0]), weighted_mask(&[2.0])],
        };
        assert_eq!(cached.probe(&batch, &mut ()), first);
        assert!(cache.is_empty());
    }

    #[test]
    fn cache_is_bounded_and_counts_evictions() {
        let probe = CountingProbe::new(100);
        let cache = ProbeCache::new(4);
        let cached = CachedProbe::new(&probe, &cache, 1);
        for i in 0..10 {
            cached.probe(&count(&[i as f64]), &mut ()).unwrap();
        }
        assert!(cache.len() <= 4, "cache stays bounded: {}", cache.len());
        let snap = cache.snapshot();
        assert_eq!(snap.misses, 10);
        assert!(snap.evicted > 0);
    }

    #[test]
    fn generation_bump_invalidates_cached_entries() {
        let probe = CountingProbe::new(100);
        let cache = ProbeCache::new(64);
        let generation = Arc::new(AtomicU64::new(0));
        let id = ShardCacheId::with_generation(9, Arc::clone(&generation));
        let request = count(&[2.0]);
        let before = CachedProbe::new(&probe, &cache, id.token())
            .probe(&request, &mut ())
            .unwrap();
        assert_eq!(probe.calls(), 1);
        // Same generation: served from cache.
        CachedProbe::new(&probe, &cache, id.token())
            .probe(&request, &mut ())
            .unwrap();
        assert_eq!(probe.calls(), 1);
        // Blob replaced: every cached answer becomes unreachable.
        generation.fetch_add(1, Ordering::SeqCst);
        let after = CachedProbe::new(&probe, &cache, id.token())
            .probe(&request, &mut ())
            .unwrap();
        assert_eq!(probe.calls(), 2, "new generation misses the cache");
        assert_eq!(before, after);
    }

    #[test]
    fn batched_round_coalesces_duplicates_and_fetches_misses_once() {
        let probe = CountingProbe::new(100);
        let cache = ProbeCache::new(64);
        let cached = CachedProbe::new(&probe, &cache, 3);
        let a = weighted_mask(&[1.0]);
        let b = weighted_mask(&[2.0]);
        let batch = ProbeRequest::CountMany {
            masks: vec![a.clone(), b.clone(), a.clone(), a.clone()],
        };
        let round = cached.probe(&batch, &mut ()).unwrap();
        assert_eq!(probe.calls(), 1, "the two distinct masks ride one probe");
        assert_eq!(cache.len(), 2, "one entry per distinct mask");
        assert_eq!(cache.snapshot().coalesced, 2);
        // The wrapper must agree with the uncached probe bitwise.
        assert_eq!(round, probe.probe(&batch, &mut ()).unwrap());
        // A batch slot and the single probe of its mask share one entry.
        let single = cached.probe(&ProbeRequest::Count { mask: b }, &mut ());
        let ProbeResponse::Estimates(round) = round else {
            panic!("a count batch answers estimates")
        };
        assert_eq!(single.unwrap(), ProbeResponse::Estimate(round[1]));
        assert_eq!(probe.calls(), 2, "served from the batch's entry");
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
    fn gather_cache_peek_paths_match_drivers_bitwise() {
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
        let sole = merge(&probes[..1], &request, std::slice::from_ref(&e)).unwrap();
        assert_eq!(sole, e);
        let mixed = [e.clone(), ProbeResponse::Probability(0.5)];
        assert!(merge(&probes, &request, &mixed).is_err());
        let group = ProbeRequest::GroupBy {
            mask: weighted_mask(&[1.0]),
            attr: AttrId(0),
        };
        let cells = |len: usize| ProbeResponse::Groups(vec![Estimate::new(1.0, 1.0); len]);
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
        assert!(merge(&probes, &sample, &[rows.clone(), rows]).is_err());
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
