//! The query-engine layer: two IRs, one execution method each.
//!
//! * [`QueryRequest`] → **`execute`**. Clients speak predicates; one
//!   request is validated, translated into a query [`Mask`] and answered by
//!   the shared path functions (`paths`), which [`QueryEngine`] and the
//!   fitted summaries all run — so every surface answers bit-identically.
//!   The typed convenience methods (`estimate_count`, `top_k`,
//!   `sample_rows`, …) are the provided methods of one trait, [`QueryApi`],
//!   each a thin wrapper that builds the request and unwraps the response.
//! * [`ProbeRequest`] → **`probe`**. Below the paths every backend is asked
//!   the one mask-level question through the one method
//!   [`ShardProbe::probe`] against an explicit reusable scratch: a fitted
//!   [`MaxEntSummary`](crate::model::MaxEntSummary) interprets it, a mixture
//!   ([`ShardedSummary`](crate::sharded::ShardedSummary),
//!   [`LiveSummary`](crate::ingest::LiveSummary), a remote cluster) forwards
//!   it to [`scatter::gather`](crate::scatter::gather). [`SummaryBackend`]
//!   adds only what the engine needs around that: the schema, the domain
//!   sizes, the answer generation and the ingest hooks.
//!
//! Backends answer under a *mask* rather than a predicate so the engine can
//! derive many masked evaluations from one validated predicate (group-by
//! cells, mask batches) without re-validating or re-translating. A top-k
//! is the group-by answer ranked once ([`rank_top_k`]) on every backend —
//! sharded ones rank the *merged* group-by, so the answer is the full
//! ranking's, exactly.
//!
//! Caching happens here, above every backend, and per request: an engine
//! [with an answer cache](QueryEngine::with_answer_cache) files each answer
//! under its canonical request line ([`QueryRequest::encode`] /
//! [`ProbeRequest::encode`]) and the backend's
//! [generation](SummaryBackend::generation), so a repeat skips mask
//! building, pruning, the fan-out and the merge. See [`AnswerCache`].

use crate::assignment::Mask;
use crate::error::{ModelError, Result};
use crate::metrics::{CacheCounters, CacheStatsSnapshot};
use crate::plan::{QueryRequest, QueryResponse};
use crate::probe::{ProbeRequest, ProbeResponse};
use crate::query::Estimate;
use crate::scatter::ShardProbe;
use entropydb_storage::{AttrId, Predicate, Schema, Table};
use std::borrow::{Borrow, Cow};
use std::collections::hash_map::{Entry, HashMap};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A pool of evaluation workspaces shared across query calls. Queries pop a
/// scratch (or build one on first use), run allocation-free, and return it;
/// the pool grows to the number of concurrently querying threads and then
/// stays fixed.
pub struct ScratchPool<S> {
    pool: Mutex<Vec<S>>,
}

impl<S> ScratchPool<S> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        ScratchPool {
            pool: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` against a pooled scratch, creating one with `make` when the
    /// pool is empty (first use, or contention above the current pool size).
    pub fn with<R>(&self, make: impl FnOnce() -> S, f: impl FnOnce(&mut S) -> R) -> R {
        let mut s = self
            .pool
            .lock()
            .expect("scratch pool poisoned")
            .pop()
            .unwrap_or_else(make);
        let out = f(&mut s);
        self.pool.lock().expect("scratch pool poisoned").push(s);
        out
    }

    /// Number of idle scratches currently pooled (introspection for tests).
    pub fn idle(&self) -> usize {
        self.pool.lock().expect("scratch pool poisoned").len()
    }
}

impl<S> Default for ScratchPool<S> {
    fn default() -> Self {
        ScratchPool::new()
    }
}

// `Debug` without requiring `S: Debug` — scratches are opaque shape-bound
// caches; the pool's only observable state is how many sit idle.
impl<S> std::fmt::Debug for ScratchPool<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScratchPool")
            .field("idle", &self.idle())
            .finish()
    }
}

impl<S> Clone for ScratchPool<S> {
    fn clone(&self) -> Self {
        // Scratches are cheap, shape-bound caches; a clone starts empty.
        ScratchPool::new()
    }
}

/// One filed answer: a query answer under its `q1` line, or a probe answer
/// under its `b1` line.
#[derive(Debug)]
enum Answer {
    Query(QueryResponse),
    Probe(ProbeResponse),
}

impl Answer {
    /// `request`'s answer, read from the answer filed for it
    /// ([`filed_as`]): a top-k ranks the group-by it was filed as.
    fn read(&self, request: &QueryRequest) -> QueryResponse {
        match (self, request) {
            (Answer::Query(QueryResponse::Groups(groups)), QueryRequest::TopK { k, .. }) => {
                QueryResponse::Ranked(rank_top_k(groups.clone(), *k))
            }
            (Answer::Query(answer), _) => answer.clone(),
            (Answer::Probe(_), _) => unreachable!("a q1 line files a query answer"),
        }
    }
}

/// The request whose answer `request` is read from — a top-k reads the
/// group-by it ranks, so the two share one entry — or `None` for a draw,
/// which is never cached.
fn filed_as(request: &QueryRequest) -> Option<Cow<'_, QueryRequest>> {
    match request {
        QueryRequest::SampleRows { .. } => None,
        QueryRequest::TopK { pred, attr, .. } => {
            Some(Cow::Owned(QueryRequest::group_by(pred.clone(), *attr)))
        }
        _ => Some(Cow::Borrowed(request)),
    }
}

/// The key an answer is filed under: its canonical request line, then the
/// backend generation it was computed at (no wire line holds an `@`).
fn cache_key(mut line: String, generation: u64) -> String {
    let _ = write!(line, " @{generation}");
    line
}

/// Read entries an insert into a full cache passes over, at most, before
/// it evicts the oldest anyway: the bound that keeps an insert O(1).
const SECOND_CHANCES: usize = 4;

/// A [`QueryEngine`]'s bounded answer cache: one entry per request, keyed
/// by the canonical request line and the backend's
/// [generation](SummaryBackend::generation).
///
/// * A hit is one lookup: no mask is built, no shard is asked, nothing is
///   merged. A miss computes the answer and files it, unless the
///   generation moved while it was computed — then the answer may mix two
///   models, and is handed back unfiled.
/// * Draws (`sample`) and errors are never filed. A top-k is filed as the
///   group-by it ranks, so the two share one entry.
/// * Duplicate lines of one batch are computed once and counted as
///   coalesced. Concurrent identical requests on different connections are
///   each computed: a repeat, not a collision, is what interactive use
///   sends.
/// * At capacity an insert evicts the oldest entry, passing over at most
///   four entries read since they were filed (each moves to the back,
///   unread again): O(1) per insert, and the entries a dashboard keeps
///   reading stay.
/// * Cached answers are clones of computed ones, so a hit is bitwise the
///   answer the backend gives.
#[derive(Debug)]
pub struct AnswerCache {
    capacity: usize,
    table: Mutex<AnswerTable>,
    counters: CacheCounters,
}

#[derive(Debug, Default)]
struct AnswerTable {
    entries: HashMap<Arc<str>, Filed>,
    /// Every filed key, oldest first.
    queue: VecDeque<Arc<str>>,
}

#[derive(Debug)]
struct Filed {
    answer: Arc<Answer>,
    /// Read since it was filed or last passed over.
    read: bool,
}

impl AnswerCache {
    /// A cache holding at most `entries` answers (at least one).
    pub fn new(entries: usize) -> AnswerCache {
        AnswerCache {
            capacity: entries.max(1),
            table: Mutex::default(),
            counters: CacheCounters::default(),
        }
    }

    /// A point-in-time copy of the counters: hits and misses count
    /// requests, coalesced the duplicate lines of a batch.
    pub fn snapshot(&self) -> CacheStatsSnapshot {
        self.counters.snapshot()
    }

    /// Number of answers currently filed.
    pub fn len(&self) -> usize {
        self.table().entries.len()
    }

    /// True when nothing is filed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every step of an update keeps each queued key filed (a key is filed
    /// before it is queued, and unqueued before it is dropped), so a holder
    /// that panicked left at worst an entry that is never evicted, and a
    /// poisoned lock is taken as it is.
    fn table(&self) -> MutexGuard<'_, AnswerTable> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The answer filed under `key`, counted as a hit or a miss.
    fn get(&self, key: &str) -> Option<Arc<Answer>> {
        let hit = self.table().entries.get_mut(key).map(|filed| {
            filed.read = true;
            Arc::clone(&filed.answer)
        });
        match hit {
            Some(_) => self.counters.add_hits(1),
            None => self.counters.add_misses(1),
        }
        hit
    }

    /// Files `answer` under `key`, evicting one entry when full. A key
    /// already filed keeps its answer: both were computed at one
    /// generation from one request.
    fn insert(&self, key: String, answer: Arc<Answer>) {
        let mut table = self.table();
        let AnswerTable { entries, queue } = &mut *table;
        if entries.contains_key(key.as_str()) {
            return;
        }
        if entries.len() >= self.capacity {
            for _ in 0..SECOND_CHANCES {
                let oldest = entries
                    .get_mut(&queue[0])
                    .expect("every queued key is filed");
                if !std::mem::take(&mut oldest.read) {
                    break;
                }
                queue.rotate_left(1);
            }
            let oldest = queue.pop_front().expect("a full cache queues its keys");
            entries.remove(&oldest);
            self.counters.add_evicted(1);
        }
        let key: Arc<str> = key.into();
        entries.insert(
            Arc::clone(&key),
            Filed {
                answer,
                read: false,
            },
        );
        queue.push_back(key);
    }
}

/// A summary representation the [`QueryEngine`] can serve: something that
/// answers [`ProbeRequest`]s ([`ShardProbe`] — `n`, `make_scratch`, `probe`)
/// over a known schema, plus the generation the engine's answer cache keys
/// by and the ingest hooks the serving layer surfaces. Evaluation has
/// exactly one entry point, `probe`, taking a caller-supplied scratch so
/// the engine can pool workspaces and keep steady-state querying
/// allocation-free.
///
/// Purely local backends ([`MaxEntSummary`](crate::model::MaxEntSummary),
/// [`ShardedSummary`](crate::sharded::ShardedSummary)) never fail outside
/// genuine shape errors, but a backend whose shards live on other nodes
/// surfaces transport failures as [`crate::error::ModelError::Remote`] with
/// the degraded shard named, and the engine paths propagate them per
/// request.
pub trait SummaryBackend: ShardProbe {
    /// The summarized relation's schema.
    fn schema(&self) -> &Schema;

    /// Active-domain sizes per attribute.
    fn domain_sizes(&self) -> &[usize];

    /// The generation the engine's [`AnswerCache`] files answers under: a
    /// counter that moves whenever this backend's answers may have changed,
    /// so an answer filed under an older generation is never read again.
    /// `0` (the default) for a model that never changes; a live summary's
    /// served epoch; the sum of a remote cluster's per-shard blob
    /// generations, which move on a swapped blob, an observed fold and a
    /// grown live shard. It must never run ahead of the answers: a probe
    /// that starts after the generation reads `g` is answered by a model of
    /// generation `g` or later.
    fn generation(&self) -> u64 {
        0
    }

    /// The backend's ingest epoch: a monotonically increasing token bumped
    /// every time the served model mixture changes (a delta fold, sealing
    /// or not). Immutable backends are forever at epoch 0. It orders
    /// ingest; it does not key cached answers — a remote blob swap changes
    /// answers without moving it. Key by [`SummaryBackend::generation`].
    fn epoch(&self) -> u64 {
        0
    }

    /// Stages `rows` (coded values, one `Vec<u32>` per tuple) into the
    /// backend's delta shard. `token` is an optional idempotency token: a
    /// backend that has already accepted a batch under the same token
    /// reports `duplicate` instead of double-ingesting, so clients may
    /// safely retry after transport errors.
    ///
    /// The default rejects the append: fitted summaries are immutable
    /// unless fronted by a [`LiveSummary`](crate::ingest::LiveSummary)
    /// (or a remote backend forwarding to one).
    fn append_rows(&self, rows: &[Vec<u32>], token: Option<&str>) -> Result<AppendOutcome> {
        let _ = (rows, token);
        Err(ModelError::Immutable)
    }

    /// Ingest counters of the live delta pipeline fronting this backend, or
    /// `None` when the backend is immutable (the default). Surfaced through
    /// the server's `stats ingest` session command.
    fn ingest_stats(&self) -> Option<crate::metrics::IngestStatsSnapshot> {
        None
    }
}

/// What a [`SummaryBackend::append_rows`] call did with the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendOutcome {
    /// Rows accepted into the staging buffer by *this* call (0 when the
    /// batch was a duplicate replay).
    pub accepted: u64,
    /// True when the idempotency token had already been seen and the batch
    /// was dropped instead of re-ingested.
    pub duplicate: bool,
    /// Rows currently staged in the delta table (ingested but possibly not
    /// yet covered by the served delta model).
    pub staged: u64,
    /// The backend's ingest epoch after the call.
    pub epoch: u64,
}

/// Ranks a group-by result set by expectation (descending, ties broken by
/// value ascending) and keeps the first `k` — the shared top-k ordering of
/// every backend.
pub fn rank_top_k(groups: Vec<Estimate>, k: usize) -> Vec<(u32, Estimate)> {
    let mut ranked: Vec<(u32, Estimate)> = groups
        .into_iter()
        .enumerate()
        .map(|(v, e)| (v as u32, e))
        .collect();
    ranked.sort_by(|a, b| {
        b.1.expectation
            .total_cmp(&a.1.expectation)
            .then(a.0.cmp(&b.0))
    });
    ranked.truncate(k);
    ranked
}

/// The generic query front-end: owns the backend, the scratch pool, the
/// batching/fan-out logic and, optionally, an [`AnswerCache`].
/// [`QueryEngine::execute`] / [`QueryEngine::execute_batch`] over the query
/// IR ([`QueryRequest`]) and [`QueryEngine::probe`] over the probe IR are
/// the entry points; the typed convenience methods come from [`QueryApi`].
#[derive(Debug)]
pub struct QueryEngine<B: SummaryBackend> {
    backend: B,
    scratch: ScratchPool<B::Scratch>,
    cache: Option<Arc<AnswerCache>>,
}

impl<B: SummaryBackend> QueryEngine<B> {
    /// Wraps a backend with a fresh scratch pool, uncached.
    pub fn new(backend: B) -> Self {
        QueryEngine {
            backend,
            scratch: ScratchPool::new(),
            cache: None,
        }
    }

    /// Puts an [`AnswerCache`] of at most `entries` answers in front of the
    /// backend (`0` leaves the engine uncached). Answers stay bitwise those
    /// of the uncached engine.
    pub fn with_answer_cache(mut self, entries: usize) -> Self {
        self.cache = (entries > 0).then(|| Arc::new(AnswerCache::new(entries)));
        self
    }

    /// The answer cache, when there is one — a handle that outlives a move
    /// of the engine into a server.
    pub fn answer_cache(&self) -> Option<&Arc<AnswerCache>> {
        self.cache.as_ref()
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Relation cardinality `n`.
    pub fn n(&self) -> u64 {
        self.backend.n()
    }

    /// The summarized relation's schema.
    pub fn schema(&self) -> &Schema {
        self.backend.schema()
    }

    /// The answer cache's counters, or `None` for an uncached engine.
    /// Surfaced through the server's `stats` session command and the
    /// gateway's `status` control line.
    pub fn cache_stats(&self) -> Option<CacheStatsSnapshot> {
        self.cache.as_ref().map(|cache| cache.snapshot())
    }

    /// The backend's ingest epoch (see [`SummaryBackend::epoch`]).
    pub fn epoch(&self) -> u64 {
        self.backend.epoch()
    }

    /// Stages an append batch into the backend's delta shard (see
    /// [`SummaryBackend::append_rows`]). Errors with
    /// [`ModelError::Immutable`] on backends without a live delta.
    pub fn append_rows(&self, rows: &[Vec<u32>], token: Option<&str>) -> Result<AppendOutcome> {
        self.backend.append_rows(rows, token)
    }

    /// Ingest counters of the backend, when it runs a live delta pipeline
    /// (see [`SummaryBackend::ingest_stats`]).
    pub fn ingest_stats(&self) -> Option<crate::metrics::IngestStatsSnapshot> {
        self.backend.ingest_stats()
    }

    /// Executes one IR request — the entry point every typed [`QueryApi`]
    /// method routes through. The response variant matches the request
    /// variant (see [`QueryRequest`]/[`QueryResponse`]).
    pub fn execute(&self, request: &QueryRequest) -> Result<QueryResponse> {
        let uncached = || paths::execute(&self.backend, &self.scratch, request);
        let Some(cache) = &self.cache else {
            return uncached();
        };
        let Some(filed) = filed_as(request) else {
            return uncached();
        };
        let answer = self.cached(cache, filed.encode(), || {
            paths::execute(&self.backend, &self.scratch, &filed).map(Answer::Query)
        })?;
        Ok(answer.read(request))
    }

    /// Executes a batch of IR requests on the calling thread. Element `i` is
    /// exactly `self.execute(&requests[i])` (bitwise), with per-request
    /// errors kept in place so one bad request does not poison a pipelined
    /// batch. Through the cache, the lines it lacks are computed as one
    /// batch, each distinct line once.
    pub fn execute_batch(&self, requests: &[QueryRequest]) -> Vec<Result<QueryResponse>> {
        let Some(cache) = &self.cache else {
            return paths::execute_batch(&self.backend, &self.scratch, requests);
        };
        let generation = self.backend.generation();
        let filed: Vec<_> = requests.iter().map(filed_as).collect();
        let mut keys: Vec<Option<String>> = filed
            .iter()
            .map(|filed| Some(cache_key(filed.as_ref()?.encode(), generation)))
            .collect();
        // Slot `i` reads the answer of slot `source[i]`: its own, or that of
        // the first slot holding the same line.
        let mut source: Vec<usize> = (0..requests.len()).collect();
        let mut answers: Vec<Option<Result<Arc<Answer>>>> = vec![None; requests.len()];
        let mut missing = Vec::new();
        let mut first: HashMap<&str, usize> = HashMap::with_capacity(requests.len());
        for (slot, key) in keys.iter().enumerate() {
            let Some(key) = key else {
                missing.push(slot);
                continue;
            };
            match first.entry(key) {
                Entry::Occupied(earlier) => {
                    source[slot] = *earlier.get();
                    cache.counters.add_coalesced(1);
                }
                Entry::Vacant(vacant) => {
                    vacant.insert(slot);
                    match cache.get(key) {
                        Some(answer) => answers[slot] = Some(Ok(answer)),
                        None => missing.push(slot),
                    }
                }
            }
        }
        let asked: Vec<&QueryRequest> = missing
            .iter()
            .map(|&slot| filed[slot].as_deref().unwrap_or(&requests[slot]))
            .collect();
        let computed = paths::execute_batch(&self.backend, &self.scratch, &asked);
        let current = self.backend.generation() == generation;
        for (&slot, result) in missing.iter().zip(computed) {
            let result = result.map(|answer| Arc::new(Answer::Query(answer)));
            if let (Ok(answer), Some(key), true) = (&result, keys[slot].take(), current) {
                cache.insert(key, Arc::clone(answer));
            }
            answers[slot] = Some(result);
        }
        requests
            .iter()
            .zip(source)
            .map(|(request, source)| {
                let answer = answers[source].clone().expect("every slot is answered");
                answer.map(|answer| answer.read(request))
            })
            .collect()
    }

    /// Executes one mask-level probe ([`crate::probe`]) — what a
    /// scatter/gather gatherer sends to a shard node. Probes bypass
    /// predicate translation (the gatherer already built the mask), so this
    /// is where outside shapes are validated against the backend's.
    pub fn probe(&self, request: &ProbeRequest) -> Result<ProbeResponse> {
        let ask = || {
            request.validate(self.backend.domain_sizes())?;
            self.scratch.with(
                || self.backend.make_scratch(),
                |s| self.backend.probe(request, s),
            )
        };
        match &self.cache {
            Some(cache) if !matches!(request, ProbeRequest::SampleAt { .. }) => {
                match &*self.cached(cache, request.encode(), || ask().map(Answer::Probe))? {
                    Answer::Probe(answer) => Ok(answer.clone()),
                    Answer::Query(_) => unreachable!("a b1 line files a probe answer"),
                }
            }
            _ => ask(),
        }
    }

    /// The answer filed under `line` at the backend's current generation,
    /// or `compute`'s, filed there when the generation has not moved by the
    /// time it is done.
    fn cached(
        &self,
        cache: &AnswerCache,
        line: String,
        compute: impl FnOnce() -> Result<Answer>,
    ) -> Result<Arc<Answer>> {
        let generation = self.backend.generation();
        let key = cache_key(line, generation);
        if let Some(answer) = cache.get(&key) {
            return Ok(answer);
        }
        let answer = Arc::new(compute()?);
        if self.backend.generation() == generation {
            cache.insert(key, Arc::clone(&answer));
        }
        Ok(answer)
    }
}

impl<B: SummaryBackend> QueryApi for QueryEngine<B> {
    fn schema(&self) -> &Schema {
        self.backend.schema()
    }

    fn execute(&self, request: &QueryRequest) -> Result<QueryResponse> {
        QueryEngine::execute(self, request)
    }

    fn execute_batch(&self, requests: &[QueryRequest]) -> Vec<Result<QueryResponse>> {
        QueryEngine::execute_batch(self, requests)
    }
}

/// The typed query surface of anything that executes [`QueryRequest`]s
/// ([`QueryEngine`], [`MaxEntSummary`](crate::model::MaxEntSummary),
/// [`ShardedSummary`](crate::sharded::ShardedSummary)): each provided method
/// builds the matching request, routes it through `execute` /
/// `execute_batch`, and unwraps the response variant — so the typed surface
/// and the IR surface cannot drift apart.
pub trait QueryApi {
    /// The summarized relation's schema.
    fn schema(&self) -> &Schema;

    /// Executes one IR request; the response variant matches the request
    /// variant (see [`QueryRequest`]/[`QueryResponse`]).
    fn execute(&self, request: &QueryRequest) -> Result<QueryResponse>;

    /// Executes a batch of IR requests; element `i` is exactly
    /// `self.execute(&requests[i])`, per-request errors kept in place.
    fn execute_batch(&self, requests: &[QueryRequest]) -> Vec<Result<QueryResponse>>;

    /// The model probability that a single tuple draw satisfies `pred`:
    /// `p = P[masked] / P` (Sec. 4.2); a shard mixture `Σ (n_s / n) · p_s`
    /// on sharded backends.
    fn probability(&self, pred: &Predicate) -> Result<f64> {
        let resp = self.execute(&QueryRequest::probability(pred.clone()))?;
        Ok(resp.probability().expect(SHAPE))
    }

    /// Estimates `SELECT COUNT(*) WHERE pred` with its variance (Binomial
    /// per model; expectations and variances add across shards).
    fn estimate_count(&self, pred: &Predicate) -> Result<Estimate> {
        let resp = self.execute(&QueryRequest::count(pred.clone()))?;
        Ok(resp.estimate().expect(SHAPE))
    }

    /// Estimates one COUNT per predicate through the batch path — the
    /// shape of a dashboard refresh. Identical to mapping
    /// [`QueryApi::estimate_count`].
    fn estimate_count_batch(&self, preds: &[Predicate]) -> Result<Vec<Estimate>> {
        let requests: Vec<QueryRequest> = preds
            .iter()
            .map(|p| QueryRequest::count(p.clone()))
            .collect();
        self.execute_batch(&requests)
            .into_iter()
            .map(|r| r.map(|resp| resp.estimate().expect(SHAPE)))
            .collect()
    }

    /// Estimates `SELECT SUM(value(attr)) WHERE pred`, where the per-row
    /// value is the attribute's bucket midpoint (binned attributes) or the
    /// dense code itself (categorical attributes — useful when codes are
    /// meaningful ordinals).
    fn estimate_sum(&self, pred: &Predicate, attr: AttrId) -> Result<Estimate> {
        let resp = self.execute(&QueryRequest::sum(pred.clone(), attr))?;
        Ok(resp.estimate().expect(SHAPE))
    }

    /// Estimates `SELECT AVG(value(attr)) WHERE pred` as the ratio of the
    /// SUM and COUNT estimates; `None` when the model gives the predicate
    /// zero probability.
    fn estimate_avg(&self, pred: &Predicate, attr: AttrId) -> Result<Option<f64>> {
        let resp = self.execute(&QueryRequest::avg(pred.clone(), attr))?;
        Ok(resp.average().expect(SHAPE))
    }

    /// Estimates `SELECT attr, COUNT(*) WHERE pred GROUP BY attr` for every
    /// value of `attr` in one batched pass.
    fn estimate_group_by(&self, pred: &Predicate, attr: AttrId) -> Result<Vec<Estimate>> {
        let resp = self.execute(&QueryRequest::group_by(pred.clone(), attr))?;
        Ok(resp.groups().expect(SHAPE))
    }

    /// Estimates the two-attribute group-by; returns `rows[v_b][v_a]`, one
    /// batched pass per `attr_b` cell, on the calling thread.
    fn estimate_group_by2(
        &self,
        pred: &Predicate,
        attr_a: AttrId,
        attr_b: AttrId,
    ) -> Result<Vec<Vec<Estimate>>> {
        let resp = self.execute(&QueryRequest::group_by2(pred.clone(), attr_a, attr_b))?;
        Ok(resp.groups2().expect(SHAPE))
    }

    /// `SELECT attr, COUNT(*) ... GROUP BY attr ORDER BY count DESC LIMIT k`
    /// — the paper's Sec. 3.1 example query shape.
    fn top_k(&self, pred: &Predicate, attr: AttrId, k: usize) -> Result<Vec<(u32, Estimate)>> {
        let resp = self.execute(&QueryRequest::top_k(pred.clone(), attr, k))?;
        Ok(resp.ranked().expect(SHAPE))
    }

    /// Top-k per attribute for several candidate attributes at once — the
    /// "top values of every column" dashboard sweep. Candidates are scored
    /// as one batch; element `i` is `top_k(pred, attrs[i], k)`.
    fn top_k_multi(
        &self,
        pred: &Predicate,
        attrs: &[AttrId],
        k: usize,
    ) -> Result<Vec<Vec<(u32, Estimate)>>> {
        let requests: Vec<QueryRequest> = attrs
            .iter()
            .map(|&attr| QueryRequest::top_k(pred.clone(), attr, k))
            .collect();
        self.execute_batch(&requests)
            .into_iter()
            .map(|r| r.map(|resp| resp.ranked().expect(SHAPE)))
            .collect()
    }

    /// Draws `k` synthetic tuples from the summarized distribution
    /// (stratified across shards proportionally to shard cardinality on
    /// sharded backends), deterministic in `seed` and independent of how a
    /// backend cuts the draw.
    fn sample_rows(&self, k: usize, seed: u64) -> Result<Table> {
        let resp = self.execute(&QueryRequest::sample_rows(k, seed))?;
        let (_, rows) = resp.rows().expect(SHAPE);
        let mut table = Table::with_capacity(self.schema().clone(), rows.len());
        for row in &rows {
            table.push_row_unchecked(row);
        }
        Ok(table)
    }
}

/// The response shape is determined by the request variant, so a mismatch
/// can only be an internal dispatch bug.
const SHAPE: &str = "response variant matches request variant";

/// The single implementation of every query path, shared by [`QueryEngine`]
/// and the fitted summaries' own [`QueryApi`] impls: a request becomes one
/// mask (moved into the [`ProbeRequest`], never cloned), the backend's
/// `probe` answers it on a pooled scratch, and the answer's payload is
/// unwrapped into the response.
pub(crate) mod paths {
    use super::*;

    /// Executes one IR request against a backend — the one dispatch point
    /// every query surface funnels through.
    pub fn execute<B: SummaryBackend>(
        backend: &B,
        pool: &ScratchPool<B::Scratch>,
        request: &QueryRequest,
    ) -> Result<QueryResponse> {
        Ok(match request {
            QueryRequest::Probability { pred } => {
                let mask = query_mask(backend, pred)?;
                QueryResponse::Probability(ask(backend, pool, ProbeRequest::Probability { mask })?)
            }
            QueryRequest::Count { pred } => QueryResponse::Estimate(count(backend, pool, pred)?),
            QueryRequest::Sum { pred, attr } => {
                QueryResponse::Estimate(sum(backend, pool, pred, *attr)?)
            }
            QueryRequest::Avg { pred, attr } => {
                let count = count(backend, pool, pred)?;
                QueryResponse::Average(if count.expectation <= 0.0 {
                    None
                } else {
                    let sum = sum(backend, pool, pred, *attr)?;
                    Some(sum.expectation / count.expectation)
                })
            }
            QueryRequest::GroupBy { pred, attr } => {
                QueryResponse::Groups(group_by(backend, pool, pred, *attr)?)
            }
            QueryRequest::GroupBy2 {
                pred,
                attr_a,
                attr_b,
            } => QueryResponse::Groups2(group_by2(backend, pool, pred, *attr_a, *attr_b)?),
            // On every backend: the (merged) group-by, ranked once.
            QueryRequest::TopK { pred, attr, k } => {
                QueryResponse::Ranked(rank_top_k(group_by(backend, pool, pred, *attr)?, *k))
            }
            QueryRequest::SampleRows { k, seed } => QueryResponse::Rows {
                arity: backend.domain_sizes().len(),
                rows: sample_rows(backend, pool, *k, *seed)?,
            },
        })
    }

    /// Executes a batch of IR requests, keeping per-request errors in place.
    ///
    /// Mask-level requests ([`QueryRequest::Probability`] and
    /// [`QueryRequest::Count`]) are partitioned out and ride one batch
    /// [`ProbeRequest::ProbabilityMany`] / [`ProbeRequest::CountMany`]
    /// probe each — one probe, one wire line and one gather round for the
    /// whole batch; their predicate-validation errors stay in the failing
    /// request's slot. Every mask in a batch probe is already validated, so
    /// if the probe itself fails the failure is the backend's (a degraded
    /// shard) and the same for every slot: each gets a copy, nothing is
    /// re-run.
    /// All other request kinds run one after another, each through
    /// [`execute`].
    pub fn execute_batch<B: SummaryBackend, R: Borrow<QueryRequest>>(
        backend: &B,
        pool: &ScratchPool<B::Scratch>,
        requests: &[R],
    ) -> Vec<Result<QueryResponse>> {
        let mut results: Vec<Option<Result<QueryResponse>>> =
            (0..requests.len()).map(|_| None).collect();
        let mut prob_idx = Vec::new();
        let mut prob_masks = Vec::new();
        let mut count_idx = Vec::new();
        let mut count_masks = Vec::new();
        for (i, request) in requests.iter().enumerate() {
            let (idx, masks, pred) = match request.borrow() {
                QueryRequest::Probability { pred } => (&mut prob_idx, &mut prob_masks, pred),
                QueryRequest::Count { pred } => (&mut count_idx, &mut count_masks, pred),
                _ => continue,
            };
            match query_mask(backend, pred) {
                Ok(mask) => {
                    idx.push(i);
                    masks.push(mask);
                }
                Err(e) => results[i] = Some(Err(e)),
            }
        }
        if !prob_masks.is_empty() {
            let batch = ProbeRequest::ProbabilityMany { masks: prob_masks };
            let answers = ask::<_, Vec<f64>>(backend, pool, batch);
            fill(&mut results, &prob_idx, answers, QueryResponse::Probability);
        }
        if !count_masks.is_empty() {
            let batch = ProbeRequest::CountMany { masks: count_masks };
            let answers = ask::<_, Vec<Estimate>>(backend, pool, batch);
            fill(&mut results, &count_idx, answers, QueryResponse::Estimate);
        }
        results
            .into_iter()
            .zip(requests)
            .map(|(slot, request)| slot.unwrap_or_else(|| execute(backend, pool, request.borrow())))
            .collect()
    }

    /// Puts a batch probe's answers — or a copy of its one error — into
    /// the batch slots `idx`.
    fn fill<T>(
        results: &mut [Option<Result<QueryResponse>>],
        idx: &[usize],
        answers: Result<Vec<T>>,
        wrap: impl Fn(T) -> QueryResponse,
    ) {
        match answers {
            Ok(values) => {
                for (&i, value) in idx.iter().zip(values) {
                    results[i] = Some(Ok(wrap(value)));
                }
            }
            Err(e) => {
                for &i in idx {
                    results[i] = Some(Err(e.clone()));
                }
            }
        }
    }

    /// Asks the backend one probe on a pooled scratch and unwraps the
    /// answer's payload.
    fn ask<B, T>(backend: &B, pool: &ScratchPool<B::Scratch>, request: ProbeRequest) -> Result<T>
    where
        B: SummaryBackend,
        T: TryFrom<ProbeResponse, Error = ModelError>,
    {
        pool.with(|| backend.make_scratch(), |s| backend.probe(&request, s))?
            .try_into()
    }

    /// Validates `pred` against the backend schema and translates it into a
    /// query mask.
    fn query_mask<B: SummaryBackend>(backend: &B, pred: &Predicate) -> Result<Mask> {
        pred.validate(backend.schema())?;
        Mask::from_predicate(pred, backend.domain_sizes())
    }

    fn count<B: SummaryBackend>(
        backend: &B,
        pool: &ScratchPool<B::Scratch>,
        pred: &Predicate,
    ) -> Result<Estimate> {
        let mask = query_mask(backend, pred)?;
        ask(backend, pool, ProbeRequest::Count { mask })
    }

    fn sum<B: SummaryBackend>(
        backend: &B,
        pool: &ScratchPool<B::Scratch>,
        pred: &Predicate,
        attr: AttrId,
    ) -> Result<Estimate> {
        let mask = query_mask(backend, pred)?;
        let values = attr_values(backend.schema(), attr)?;
        ask(backend, pool, ProbeRequest::Sum { mask, attr, values })
    }

    fn group_by<B: SummaryBackend>(
        backend: &B,
        pool: &ScratchPool<B::Scratch>,
        pred: &Predicate,
        attr: AttrId,
    ) -> Result<Vec<Estimate>> {
        if attr.0 >= backend.domain_sizes().len() {
            return Err(ModelError::ShapeMismatch);
        }
        let mask = query_mask(backend, pred)?;
        ask(backend, pool, ProbeRequest::GroupBy { mask, attr })
    }

    fn group_by2<B: SummaryBackend>(
        backend: &B,
        pool: &ScratchPool<B::Scratch>,
        pred: &Predicate,
        attr_a: AttrId,
        attr_b: AttrId,
    ) -> Result<Vec<Vec<Estimate>>> {
        let sizes = backend.domain_sizes();
        if attr_a.0 >= sizes.len() || attr_b.0 >= sizes.len() || attr_a == attr_b {
            return Err(ModelError::ShapeMismatch);
        }
        let base = query_mask(backend, pred)?;
        let n_b = sizes[attr_b.0];
        (0..n_b)
            .map(|v_b| {
                let mut mask = base.clone();
                mask.restrict_in_place(attr_b, v_b as u32, n_b);
                ask(backend, pool, ProbeRequest::GroupBy { mask, attr: attr_a })
            })
            .collect()
    }

    /// Draws the raw dense-coded sample tuples (the IR-transportable form):
    /// one `SampleAt` over `0..k` on a pooled scratch. A draw depends only on
    /// `(seed, index)`, so how a backend cuts the indices never changes it.
    fn sample_rows<B: SummaryBackend>(
        backend: &B,
        pool: &ScratchPool<B::Scratch>,
        k: usize,
        seed: u64,
    ) -> Result<Vec<Vec<u32>>> {
        let indices = (0..k as u64).collect();
        ask(backend, pool, ProbeRequest::SampleAt { k, seed, indices })
    }

    /// Per-value numeric weights of an attribute: bucket midpoints for
    /// binned attributes, the code itself for categorical ones.
    fn attr_values(schema: &Schema, attr: AttrId) -> Result<Vec<f64>> {
        let a = schema.attr(attr)?;
        Ok(match a.binner() {
            Some(b) => (0..a.domain_size() as u32).map(|v| b.midpoint(v)).collect(),
            None => (0..a.domain_size()).map(|v| v as f64).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RemoteDetail;
    use entropydb_storage::Attribute;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    /// A backend over one attribute of 8 codes whose COUNT under a mask is
    /// the mask's total weight, counting the probes and masks it is asked.
    /// A `dead` one fails every probe the way a degraded shard does; a
    /// `moving` one is of a new generation after every probe.
    #[derive(Default)]
    struct Tally {
        schema: Schema,
        sizes: Vec<usize>,
        dead: bool,
        moving: bool,
        probes: AtomicUsize,
        masks: AtomicUsize,
        generation: AtomicU64,
    }

    impl Tally {
        fn new() -> Tally {
            let schema = Schema::new(vec![Attribute::categorical("x", 8).unwrap()]);
            Tally {
                sizes: schema.domain_sizes(),
                schema,
                ..Tally::default()
            }
        }

        fn probes(&self) -> usize {
            self.probes.load(Ordering::SeqCst)
        }
    }

    impl ShardProbe for Tally {
        type Scratch = ();

        fn n(&self) -> u64 {
            8
        }

        fn make_scratch(&self) {}

        fn probe(&self, request: &ProbeRequest, _scratch: &mut ()) -> Result<ProbeResponse> {
            self.probes.fetch_add(1, Ordering::SeqCst);
            if self.moving {
                self.generation.fetch_add(1, Ordering::SeqCst);
            }
            if self.dead {
                return Err(ModelError::Remote(RemoteDetail::message("shard is down")));
            }
            let count = |mask: &Mask| {
                self.masks.fetch_add(1, Ordering::SeqCst);
                Estimate::new((0..8).map(|v| mask.weight(0, v)).sum(), 0.0)
            };
            Ok(match request {
                ProbeRequest::Count { mask } => ProbeResponse::Estimate(count(mask)),
                ProbeRequest::CountMany { masks } => {
                    ProbeResponse::Estimates(masks.iter().map(count).collect())
                }
                ProbeRequest::GroupBy { mask, .. } => ProbeResponse::Groups(
                    (0..8)
                        .map(|v| Estimate::new(mask.weight(0, v), 0.0))
                        .collect(),
                ),
                other => unimplemented!("{other:?}"),
            })
        }
    }

    impl SummaryBackend for Tally {
        fn schema(&self) -> &Schema {
            &self.schema
        }

        fn domain_sizes(&self) -> &[usize] {
            &self.sizes
        }

        fn generation(&self) -> u64 {
            self.generation.load(Ordering::SeqCst)
        }
    }

    fn point(v: u32) -> QueryRequest {
        QueryRequest::count(Predicate::new().eq(AttrId(0), v))
    }

    fn stats<B: SummaryBackend>(engine: &QueryEngine<B>) -> CacheStatsSnapshot {
        engine.cache_stats().expect("the engine is cached")
    }

    /// A fused batch that fails is the backend's failure, the same for
    /// every slot: it is answered once, not retried request by request.
    #[test]
    fn a_failed_fused_batch_is_answered_once() {
        let dead = Tally {
            dead: true,
            ..Tally::new()
        };
        let engine = QueryEngine::new(dead);
        let requests: Vec<QueryRequest> = (0..16).map(|v| point(v % 4)).collect();
        let answers = engine.execute_batch(&requests);
        assert_eq!(engine.backend().probes(), 1);
        let down = ModelError::Remote(RemoteDetail::message("shard is down"));
        assert_eq!(answers, vec![Err(down); 16]);
    }

    /// An error is handed back, never filed: asking again asks again.
    #[test]
    fn an_error_is_never_cached() {
        let dead = Tally {
            dead: true,
            ..Tally::new()
        };
        let engine = QueryEngine::new(dead).with_answer_cache(16);
        assert!(engine.execute(&point(1)).is_err());
        assert!(engine.execute(&point(1)).is_err());
        assert!(engine
            .execute_batch(&[point(1), point(2)])
            .iter()
            .all(Result::is_err));
        assert_eq!(engine.backend().probes(), 3);
        assert!(engine.answer_cache().unwrap().is_empty());
        assert_eq!(stats(&engine).misses, 4);
    }

    /// An answer computed while the generation moved may mix two models:
    /// it is handed back, and the next ask computes again.
    #[test]
    fn an_answer_across_a_generation_change_is_not_filed() {
        let moving = Tally {
            moving: true,
            ..Tally::new()
        };
        let engine = QueryEngine::new(moving).with_answer_cache(16);
        let first = engine.execute(&point(3)).unwrap();
        assert_eq!(engine.execute(&point(3)).unwrap(), first);
        assert_eq!(engine.execute_batch(&[point(3)]), vec![Ok(first)]);
        assert_eq!(engine.backend().probes(), 3);
        assert!(engine.answer_cache().unwrap().is_empty());
    }

    /// Filing `capacity + k` distinct answers keeps `capacity` of them and
    /// counts exactly `k` evictions.
    #[test]
    fn the_cache_holds_its_bound_and_counts_each_eviction() {
        let (capacity, k) = (4, 3);
        let engine = QueryEngine::new(Tally::new()).with_answer_cache(capacity);
        for v in 0..(capacity + k) as u32 {
            engine.execute(&point(v)).unwrap();
        }
        assert_eq!(engine.answer_cache().unwrap().len(), capacity);
        assert_eq!(stats(&engine).evicted, k as u64);
    }

    /// An entry read since it was filed is passed over once: the oldest
    /// unread entry is evicted in its place.
    #[test]
    fn a_read_entry_gets_a_second_chance() {
        let engine = QueryEngine::new(Tally::new()).with_answer_cache(2);
        for v in [0, 1, 0, 2] {
            engine.execute(&point(v)).unwrap();
        }
        assert_eq!(engine.backend().probes(), 3);
        engine.execute(&point(0)).unwrap();
        assert_eq!(engine.backend().probes(), 3, "0 was read, so 1 went");
        engine.execute(&point(1)).unwrap();
        assert_eq!(engine.backend().probes(), 4);
    }

    /// A top-k is filed as the group-by it ranks: one computes, the other
    /// hits, whichever comes first.
    #[test]
    fn a_top_k_and_its_group_by_share_one_entry() {
        let engine = QueryEngine::new(Tally::new()).with_answer_cache(16);
        let pred = Predicate::new().between(AttrId(0), 2, 5);
        let top = QueryRequest::top_k(pred.clone(), AttrId(0), 3);
        let group = QueryRequest::group_by(pred, AttrId(0));
        let ranked = engine.execute(&top).unwrap();
        let groups = engine.execute(&group).unwrap();
        assert_eq!(
            ranked,
            QueryResponse::Ranked(rank_top_k(groups.groups().unwrap(), 3))
        );
        assert_eq!(engine.backend().probes(), 1);
        assert_eq!((stats(&engine).hits, stats(&engine).misses), (1, 1));
    }

    /// A batch holding a line twice computes it once, in the one fused
    /// probe of its distinct masks, and counts the repeat as coalesced.
    #[test]
    fn a_batch_computes_a_repeated_line_once() {
        let engine = QueryEngine::new(Tally::new()).with_answer_cache(16);
        let answers = engine.execute_batch(&[point(1), point(2), point(1)]);
        assert_eq!(answers[0], answers[2]);
        let backend = engine.backend();
        assert_eq!(
            (backend.probes(), backend.masks.load(Ordering::SeqCst)),
            (1, 2)
        );
        let stats = stats(&engine);
        assert_eq!((stats.hits, stats.misses, stats.coalesced), (0, 2, 1));
    }
}
