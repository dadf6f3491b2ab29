//! The query-engine layer: summary backends behind one generic engine.
//!
//! Historically every query path (`estimate_count`, `estimate_group_by`,
//! `top_k`, `sample_rows`, ...) was hard-wired onto
//! [`MaxEntSummary`](crate::model::MaxEntSummary). This module factors those
//! paths into three pieces:
//!
//! * [`SummaryBackend`] — the estimator primitives a summary representation
//!   must provide, all phrased against a query [`Mask`] and an explicit
//!   reusable scratch. [`MaxEntSummary`](crate::model::MaxEntSummary) is one
//!   backend (a single fitted model);
//!   [`ShardedSummary`](crate::sharded::ShardedSummary) is another (per-shard
//!   models with merged estimates).
//! * [`QueryEngine`] — the generic front-end owning the scratch pool and the
//!   batching/fan-out logic (predicate validation, mask construction,
//!   parallel batch dispatch through [`crate::par`]). It works with any
//!   backend and is what an async serving layer would hold per summary.
//! * shared path functions (`paths`) — one implementation of every query
//!   path, used both by [`QueryEngine`] and by the backends' inherent
//!   convenience APIs, so the two surfaces cannot drift apart.
//!
//! Backends answer under a *mask* rather than a predicate so the engine can
//! derive many masked evaluations from one validated predicate (group-by
//! cells, sequential-conditional sampling) without re-validating or
//! re-translating. A top-k is the group-by pass ranked once
//! ([`rank_top_k`]) on every backend — sharded ones rank the *merged*
//! group-by, so the answer is the full ranking's, exactly.

use crate::assignment::Mask;
use crate::error::{ModelError, Result};
use crate::par;
use crate::plan::{QueryRequest, QueryResponse};
use crate::query::Estimate;
use entropydb_storage::{AttrId, Predicate, Schema, Table};
use std::sync::Mutex;

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

/// The estimator primitives a summary representation provides to the
/// [`QueryEngine`]. All methods take a caller-supplied scratch so the engine
/// can pool workspaces and keep steady-state querying allocation-free.
///
/// Masks passed in are already validated against the backend's schema (the
/// engine does that once per query).
///
/// Every primitive is fallible: purely local backends
/// ([`MaxEntSummary`](crate::model::MaxEntSummary),
/// [`ShardedSummary`](crate::sharded::ShardedSummary)) never fail outside
/// genuine shape errors, but a backend whose shards live on other nodes
/// surfaces transport failures as
/// [`crate::error::ModelError::Remote`] with the
/// degraded shard named, and the engine paths propagate them per request.
pub trait SummaryBackend: Send + Sync {
    /// The reusable evaluation workspace of this backend.
    type Scratch: Send;
    /// Per-call context for [`SummaryBackend::sample_tuple`], computed once
    /// per `sample_rows` call (e.g. a per-tuple shard assignment, or a
    /// prefetched remote batch).
    type SamplePlan: Send + Sync;

    /// The summarized relation's schema.
    fn schema(&self) -> &Schema;

    /// Relation cardinality `n`.
    fn n(&self) -> u64;

    /// Active-domain sizes per attribute.
    fn domain_sizes(&self) -> &[usize];

    /// Builds a fresh evaluation scratch.
    fn make_scratch(&self) -> Self::Scratch;

    /// The model probability that a single tuple draw satisfies the mask,
    /// clamped into `[0, 1]`.
    fn probability_under_mask(&self, mask: &Mask, scratch: &mut Self::Scratch) -> Result<f64>;

    /// `SELECT COUNT(*)` estimate (expectation + variance) under the mask.
    fn count_under_mask(&self, mask: &Mask, scratch: &mut Self::Scratch) -> Result<Estimate>;

    /// Batched form of [`SummaryBackend::probability_under_mask`]: one
    /// probability per mask. The default is the sequential per-mask loop;
    /// backends with a fused multi-mask kernel
    /// ([`MaxEntSummary`](crate::model::MaxEntSummary) and the scatter/
    /// gather backends above it) override this to amortize one model
    /// traversal across the whole batch. Overrides must stay
    /// **bitwise-identical** to the loop — the repo's standing determinism
    /// guarantee extends to fused paths.
    fn probabilities_under_masks(
        &self,
        masks: &[Mask],
        scratch: &mut Self::Scratch,
    ) -> Result<Vec<f64>> {
        masks
            .iter()
            .map(|mask| self.probability_under_mask(mask, scratch))
            .collect()
    }

    /// Batched form of [`SummaryBackend::count_under_mask`]: one COUNT
    /// estimate per mask, same contract (and the same bitwise-identity
    /// requirement on overrides) as
    /// [`SummaryBackend::probabilities_under_masks`].
    fn counts_under_masks(
        &self,
        masks: &[Mask],
        scratch: &mut Self::Scratch,
    ) -> Result<Vec<Estimate>> {
        masks
            .iter()
            .map(|mask| self.count_under_mask(mask, scratch))
            .collect()
    }

    /// `SELECT SUM(values[code(attr)])` estimate under the `base` COUNT
    /// mask. `values` holds the per-code numeric weight of `attr` (bucket
    /// midpoints for binned attributes, the code itself for categorical
    /// ones); the backend derives the weighted masks it needs.
    fn sum_under_mask(
        &self,
        base: &Mask,
        attr: AttrId,
        values: &[f64],
        scratch: &mut Self::Scratch,
    ) -> Result<Estimate>;

    /// One estimate per value of `attr` under the mask — the batched
    /// group-by pass.
    fn group_by_under_mask(
        &self,
        mask: &Mask,
        attr: AttrId,
        scratch: &mut Self::Scratch,
    ) -> Result<Vec<Estimate>>;

    /// Computes the per-call context shared by every [`Self::sample_tuple`]
    /// of one `sample_rows(k, seed)` call. Remote backends may perform
    /// transport work here (e.g. prefetch every stratum in one pipelined
    /// round per shard), hence the fallible signature.
    fn plan_samples(&self, k: usize, seed: u64) -> Result<Self::SamplePlan>;

    /// Draws synthetic tuple `index` of a `sample_rows` call into `row`.
    ///
    /// Implementations must derive their randomness only from `(seed,
    /// index)` — never from call order or thread identity — so sampling is
    /// deterministic and independent of how tuples are fanned out.
    fn sample_tuple(
        &self,
        plan: &Self::SamplePlan,
        index: usize,
        seed: u64,
        row: &mut [u32],
        scratch: &mut Self::Scratch,
    ) -> Result<()>;

    /// Counters of the gather-side probe cache fronting this backend, or
    /// `None` when the backend runs uncached (the default). Surfaced
    /// through the server's `stats` session command and the gateway's
    /// `status` control line.
    fn cache_stats(&self) -> Option<crate::metrics::CacheStatsSnapshot> {
        None
    }

    /// The backend's ingest epoch: a monotonically increasing token bumped
    /// every time the served model mixture changes (delta fold, compaction,
    /// retention). Immutable backends are forever at epoch 0. Callers that
    /// cache derived answers must key them by epoch.
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

/// The generic query front-end: owns the backend, the scratch pool, and the
/// batching/fan-out logic. [`QueryEngine::execute`] /
/// [`QueryEngine::execute_batch`] over the query IR
/// ([`QueryRequest`]) are the canonical entry
/// points; the typed convenience methods below — and every public estimator
/// of [`MaxEntSummary`](crate::model::MaxEntSummary) and
/// [`ShardedSummary`](crate::sharded::ShardedSummary) — are thin wrappers
/// that build the matching request and route through the same IR path, so
/// every surface answers bit-identically.
#[derive(Debug)]
pub struct QueryEngine<B: SummaryBackend> {
    backend: B,
    scratch: ScratchPool<B::Scratch>,
}

impl<B: SummaryBackend> QueryEngine<B> {
    /// Wraps a backend with a fresh scratch pool.
    pub fn new(backend: B) -> Self {
        QueryEngine {
            backend,
            scratch: ScratchPool::new(),
        }
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Unwraps the backend, dropping the pooled scratches.
    pub fn into_backend(self) -> B {
        self.backend
    }

    /// Relation cardinality `n`.
    pub fn n(&self) -> u64 {
        self.backend.n()
    }

    /// The summarized relation's schema.
    pub fn schema(&self) -> &Schema {
        self.backend.schema()
    }

    /// Probe-cache counters of the backend, when it runs one (see
    /// [`SummaryBackend::cache_stats`]).
    pub fn cache_stats(&self) -> Option<crate::metrics::CacheStatsSnapshot> {
        self.backend.cache_stats()
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

    /// Executes one IR request — the canonical entry point every typed
    /// method routes through. The response variant matches the request
    /// variant (see [`QueryRequest`]/[`QueryResponse`]).
    pub fn execute(&self, request: &QueryRequest) -> Result<QueryResponse> {
        paths::execute(&self.backend, &self.scratch, request)
    }

    /// Executes a batch of IR requests, fanning them out across the
    /// persistent worker pool. Element `i` is exactly
    /// `self.execute(&requests[i])` (bitwise; chunking never changes
    /// results), with per-request errors kept in place so one bad request
    /// does not poison a pipelined batch.
    pub fn execute_batch(&self, requests: &[QueryRequest]) -> Vec<Result<QueryResponse>> {
        paths::execute_batch(&self.backend, &self.scratch, requests)
    }

    /// Executes one mask-level shard probe ([`crate::probe`]) — the
    /// primitive a scatter/gather gatherer sends to a shard node. Probes
    /// bypass predicate translation (the gatherer already built the mask)
    /// but are still validated against this backend's shape.
    pub fn probe(
        &self,
        request: &crate::probe::ProbeRequest,
    ) -> Result<crate::probe::ProbeResponse> {
        crate::probe::execute(&self.backend, &self.scratch, request)
    }

    /// The model probability that a single tuple draw satisfies `pred`.
    pub fn probability(&self, pred: &Predicate) -> Result<f64> {
        ir::probability(&self.backend, &self.scratch, pred)
    }

    /// Estimates `SELECT COUNT(*) WHERE pred` with its variance.
    pub fn estimate_count(&self, pred: &Predicate) -> Result<Estimate> {
        ir::estimate_count(&self.backend, &self.scratch, pred)
    }

    /// Estimates one COUNT per predicate, fanning the batch out across
    /// threads. Identical to mapping [`QueryEngine::estimate_count`].
    pub fn estimate_count_batch(&self, preds: &[Predicate]) -> Result<Vec<Estimate>> {
        ir::estimate_count_batch(&self.backend, &self.scratch, preds)
    }

    /// Estimates `SELECT SUM(value(attr)) WHERE pred`.
    pub fn estimate_sum(&self, pred: &Predicate, attr: AttrId) -> Result<Estimate> {
        ir::estimate_sum(&self.backend, &self.scratch, pred, attr)
    }

    /// Estimates `SELECT AVG(value(attr)) WHERE pred`; `None` when the
    /// model gives the predicate zero probability.
    pub fn estimate_avg(&self, pred: &Predicate, attr: AttrId) -> Result<Option<f64>> {
        ir::estimate_avg(&self.backend, &self.scratch, pred, attr)
    }

    /// Estimates `SELECT attr, COUNT(*) WHERE pred GROUP BY attr` for every
    /// value of `attr` in one batched pass.
    pub fn estimate_group_by(&self, pred: &Predicate, attr: AttrId) -> Result<Vec<Estimate>> {
        ir::estimate_group_by(&self.backend, &self.scratch, pred, attr)
    }

    /// Estimates the two-attribute group-by; returns `rows[v_b][v_a]` with
    /// the `attr_b` cells fanned out across threads.
    pub fn estimate_group_by2(
        &self,
        pred: &Predicate,
        attr_a: AttrId,
        attr_b: AttrId,
    ) -> Result<Vec<Vec<Estimate>>> {
        ir::estimate_group_by2(&self.backend, &self.scratch, pred, attr_a, attr_b)
    }

    /// `SELECT attr, COUNT(*) ... GROUP BY attr ORDER BY count DESC LIMIT k`.
    pub fn top_k(&self, pred: &Predicate, attr: AttrId, k: usize) -> Result<Vec<(u32, Estimate)>> {
        ir::top_k(&self.backend, &self.scratch, pred, attr, k)
    }

    /// Top-k per attribute for several candidate attributes, scored in
    /// parallel; element `i` is `top_k(pred, attrs[i], k)`.
    pub fn top_k_multi(
        &self,
        pred: &Predicate,
        attrs: &[AttrId],
        k: usize,
    ) -> Result<Vec<Vec<(u32, Estimate)>>> {
        ir::top_k_multi(&self.backend, &self.scratch, pred, attrs, k)
    }

    /// Draws `k` synthetic tuples from the summarized distribution,
    /// deterministic in `seed` and independent of thread fan-out.
    pub fn sample_rows(&self, k: usize, seed: u64) -> Result<Table> {
        ir::sample_rows(&self.backend, &self.scratch, k, seed)
    }
}

/// The single implementation of every query path, shared by [`QueryEngine`]
/// and the backends' inherent APIs (which route through [`paths::execute`]
/// via the [`ir`] wrappers).
pub(crate) mod paths {
    use super::*;

    /// Executes one IR request against a backend — the one dispatch point
    /// every query surface funnels through.
    pub fn execute<B: SummaryBackend>(
        backend: &B,
        pool: &ScratchPool<B::Scratch>,
        request: &QueryRequest,
    ) -> Result<QueryResponse> {
        match request {
            QueryRequest::Probability { pred } => {
                probability(backend, pool, pred).map(QueryResponse::Probability)
            }
            QueryRequest::Count { pred } => {
                estimate_count(backend, pool, pred).map(QueryResponse::Estimate)
            }
            QueryRequest::Sum { pred, attr } => {
                estimate_sum(backend, pool, pred, *attr).map(QueryResponse::Estimate)
            }
            QueryRequest::Avg { pred, attr } => {
                estimate_avg(backend, pool, pred, *attr).map(QueryResponse::Average)
            }
            QueryRequest::GroupBy { pred, attr } => {
                estimate_group_by(backend, pool, pred, *attr).map(QueryResponse::Groups)
            }
            QueryRequest::GroupBy2 {
                pred,
                attr_a,
                attr_b,
            } => estimate_group_by2(backend, pool, pred, *attr_a, *attr_b)
                .map(QueryResponse::Groups2),
            QueryRequest::TopK { pred, attr, k } => {
                top_k(backend, pool, pred, *attr, *k).map(QueryResponse::Ranked)
            }
            QueryRequest::SampleRows { k, seed } => {
                let rows = sample_rows_raw(backend, pool, *k, *seed)?;
                Ok(QueryResponse::Rows {
                    arity: backend.domain_sizes().len(),
                    rows,
                })
            }
        }
    }

    /// Executes a batch of IR requests, keeping per-request errors in place.
    ///
    /// Mask-level requests ([`QueryRequest::Probability`] and
    /// [`QueryRequest::Count`]) are partitioned out and ride the backend's
    /// fused multi-mask primitives
    /// ([`SummaryBackend::probabilities_under_masks`] /
    /// [`SummaryBackend::counts_under_masks`]), amortizing one model
    /// traversal across the whole batch; their predicate-validation errors
    /// stay in the failing request's slot. All other request kinds fan out
    /// per-request across the worker pool as before. If a batched call
    /// itself fails, the affected requests fall back to the per-request
    /// path so error attribution stays per-request.
    pub fn execute_batch<B: SummaryBackend>(
        backend: &B,
        pool: &ScratchPool<B::Scratch>,
        requests: &[QueryRequest],
    ) -> Vec<Result<QueryResponse>> {
        let mut results: Vec<Option<Result<QueryResponse>>> =
            (0..requests.len()).map(|_| None).collect();
        let mut prob_idx = Vec::new();
        let mut prob_masks = Vec::new();
        let mut count_idx = Vec::new();
        let mut count_masks = Vec::new();
        for (i, request) in requests.iter().enumerate() {
            let (idx, masks, pred) = match request {
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
            let batched = with_scratch(backend, pool, |s| {
                backend.probabilities_under_masks(&prob_masks, s)
            });
            if let Ok(ps) = batched {
                if ps.len() == prob_masks.len() {
                    for (&i, p) in prob_idx.iter().zip(ps) {
                        results[i] = Some(Ok(QueryResponse::Probability(p)));
                    }
                }
            }
        }
        if !count_masks.is_empty() {
            let batched = with_scratch(backend, pool, |s| {
                backend.counts_under_masks(&count_masks, s)
            });
            if let Ok(es) = batched {
                if es.len() == count_masks.len() {
                    for (&i, e) in count_idx.iter().zip(es) {
                        results[i] = Some(Ok(QueryResponse::Estimate(e)));
                    }
                }
            }
        }
        let pending: Vec<usize> = results
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.is_none())
            .map(|(i, _)| i)
            .collect();
        if !pending.is_empty() {
            let executed = par::map(&pending, 1, |_, &i| execute(backend, pool, &requests[i]));
            for (&i, r) in pending.iter().zip(executed) {
                results[i] = Some(r);
            }
        }
        results
            .into_iter()
            .map(|slot| slot.expect("every batch slot is filled"))
            .collect()
    }

    fn with_scratch<B: SummaryBackend, R>(
        backend: &B,
        pool: &ScratchPool<B::Scratch>,
        f: impl FnOnce(&mut B::Scratch) -> R,
    ) -> R {
        pool.with(|| backend.make_scratch(), f)
    }

    /// Validates `pred` against the backend schema and translates it into a
    /// query mask.
    fn query_mask<B: SummaryBackend>(backend: &B, pred: &Predicate) -> Result<Mask> {
        pred.validate(backend.schema())?;
        Mask::from_predicate(pred, backend.domain_sizes())
    }

    pub fn probability<B: SummaryBackend>(
        backend: &B,
        pool: &ScratchPool<B::Scratch>,
        pred: &Predicate,
    ) -> Result<f64> {
        let mask = query_mask(backend, pred)?;
        with_scratch(backend, pool, |s| backend.probability_under_mask(&mask, s))
    }

    pub fn estimate_count<B: SummaryBackend>(
        backend: &B,
        pool: &ScratchPool<B::Scratch>,
        pred: &Predicate,
    ) -> Result<Estimate> {
        let mask = query_mask(backend, pred)?;
        with_scratch(backend, pool, |s| backend.count_under_mask(&mask, s))
    }

    pub fn estimate_sum<B: SummaryBackend>(
        backend: &B,
        pool: &ScratchPool<B::Scratch>,
        pred: &Predicate,
        attr: AttrId,
    ) -> Result<Estimate> {
        let base = query_mask(backend, pred)?;
        let values = attr_values(backend.schema(), attr)?;
        with_scratch(backend, pool, |s| {
            backend.sum_under_mask(&base, attr, &values, s)
        })
    }

    pub fn estimate_avg<B: SummaryBackend>(
        backend: &B,
        pool: &ScratchPool<B::Scratch>,
        pred: &Predicate,
        attr: AttrId,
    ) -> Result<Option<f64>> {
        let count = estimate_count(backend, pool, pred)?;
        if count.expectation <= 0.0 {
            return Ok(None);
        }
        let sum = estimate_sum(backend, pool, pred, attr)?;
        Ok(Some(sum.expectation / count.expectation))
    }

    pub fn estimate_group_by<B: SummaryBackend>(
        backend: &B,
        pool: &ScratchPool<B::Scratch>,
        pred: &Predicate,
        attr: AttrId,
    ) -> Result<Vec<Estimate>> {
        let sizes = backend.domain_sizes();
        if attr.0 >= sizes.len() {
            return Err(ModelError::ShapeMismatch);
        }
        let mask = query_mask(backend, pred)?;
        with_scratch(backend, pool, |s| {
            backend.group_by_under_mask(&mask, attr, s)
        })
    }

    pub fn estimate_group_by2<B: SummaryBackend>(
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
        par::map_indexed(n_b, 2, |v_b| {
            let mut mask = base.clone();
            mask.restrict_in_place(attr_b, v_b as u32, n_b);
            with_scratch(backend, pool, |s| {
                backend.group_by_under_mask(&mask, attr_a, s)
            })
        })
        .into_iter()
        .collect()
    }

    pub fn top_k<B: SummaryBackend>(
        backend: &B,
        pool: &ScratchPool<B::Scratch>,
        pred: &Predicate,
        attr: AttrId,
        k: usize,
    ) -> Result<Vec<(u32, Estimate)>> {
        // On every backend: the (merged) group-by, ranked once.
        Ok(rank_top_k(estimate_group_by(backend, pool, pred, attr)?, k))
    }

    /// Draws the raw dense-coded sample tuples (the IR-transportable form;
    /// [`ir::sample_rows`] re-attaches the schema into a [`Table`]).
    pub fn sample_rows_raw<B: SummaryBackend>(
        backend: &B,
        pool: &ScratchPool<B::Scratch>,
        k: usize,
        seed: u64,
    ) -> Result<Vec<Vec<u32>>> {
        let m = backend.domain_sizes().len();
        let plan = backend.plan_samples(k, seed)?;
        par::map_indexed(k, 16, |i| {
            let mut row = vec![0u32; m];
            with_scratch(backend, pool, |s| {
                backend.sample_tuple(&plan, i, seed, &mut row, s)
            })?;
            Ok(row)
        })
        .into_iter()
        .collect()
    }

    /// Per-value numeric weights of an attribute: bucket midpoints for
    /// binned attributes, the code itself for categorical ones.
    pub fn attr_values(schema: &Schema, attr: AttrId) -> Result<Vec<f64>> {
        let a = schema.attr(attr)?;
        Ok(match a.binner() {
            Some(b) => (0..a.domain_size() as u32).map(|v| b.midpoint(v)).collect(),
            None => (0..a.domain_size()).map(|v| v as f64).collect(),
        })
    }
}

/// Typed wrappers over the IR path: each builds the matching
/// [`QueryRequest`], routes it through [`paths::execute`], and unwraps the
/// response variant. [`QueryEngine`]'s convenience methods and the
/// backends' inherent APIs all call these, so the typed surfaces and the
/// IR surface cannot drift apart.
pub(crate) mod ir {
    use super::*;

    /// The response shape is determined by the request variant, so a
    /// mismatch can only be an internal dispatch bug.
    const SHAPE: &str = "response variant matches request variant";

    pub fn probability<B: SummaryBackend>(
        backend: &B,
        pool: &ScratchPool<B::Scratch>,
        pred: &Predicate,
    ) -> Result<f64> {
        let resp = paths::execute(backend, pool, &QueryRequest::probability(pred.clone()))?;
        Ok(resp.probability().expect(SHAPE))
    }

    pub fn estimate_count<B: SummaryBackend>(
        backend: &B,
        pool: &ScratchPool<B::Scratch>,
        pred: &Predicate,
    ) -> Result<Estimate> {
        let resp = paths::execute(backend, pool, &QueryRequest::count(pred.clone()))?;
        Ok(resp.estimate().expect(SHAPE))
    }

    pub fn estimate_count_batch<B: SummaryBackend>(
        backend: &B,
        pool: &ScratchPool<B::Scratch>,
        preds: &[Predicate],
    ) -> Result<Vec<Estimate>> {
        let requests: Vec<QueryRequest> = preds
            .iter()
            .map(|p| QueryRequest::count(p.clone()))
            .collect();
        paths::execute_batch(backend, pool, &requests)
            .into_iter()
            .map(|r| r.map(|resp| resp.estimate().expect(SHAPE)))
            .collect()
    }

    pub fn estimate_sum<B: SummaryBackend>(
        backend: &B,
        pool: &ScratchPool<B::Scratch>,
        pred: &Predicate,
        attr: AttrId,
    ) -> Result<Estimate> {
        let resp = paths::execute(backend, pool, &QueryRequest::sum(pred.clone(), attr))?;
        Ok(resp.estimate().expect(SHAPE))
    }

    pub fn estimate_avg<B: SummaryBackend>(
        backend: &B,
        pool: &ScratchPool<B::Scratch>,
        pred: &Predicate,
        attr: AttrId,
    ) -> Result<Option<f64>> {
        let resp = paths::execute(backend, pool, &QueryRequest::avg(pred.clone(), attr))?;
        Ok(resp.average().expect(SHAPE))
    }

    pub fn estimate_group_by<B: SummaryBackend>(
        backend: &B,
        pool: &ScratchPool<B::Scratch>,
        pred: &Predicate,
        attr: AttrId,
    ) -> Result<Vec<Estimate>> {
        let resp = paths::execute(backend, pool, &QueryRequest::group_by(pred.clone(), attr))?;
        Ok(resp.groups().expect(SHAPE))
    }

    pub fn estimate_group_by2<B: SummaryBackend>(
        backend: &B,
        pool: &ScratchPool<B::Scratch>,
        pred: &Predicate,
        attr_a: AttrId,
        attr_b: AttrId,
    ) -> Result<Vec<Vec<Estimate>>> {
        let request = QueryRequest::group_by2(pred.clone(), attr_a, attr_b);
        let resp = paths::execute(backend, pool, &request)?;
        Ok(resp.groups2().expect(SHAPE))
    }

    pub fn top_k<B: SummaryBackend>(
        backend: &B,
        pool: &ScratchPool<B::Scratch>,
        pred: &Predicate,
        attr: AttrId,
        k: usize,
    ) -> Result<Vec<(u32, Estimate)>> {
        let resp = paths::execute(backend, pool, &QueryRequest::top_k(pred.clone(), attr, k))?;
        Ok(resp.ranked().expect(SHAPE))
    }

    pub fn top_k_multi<B: SummaryBackend>(
        backend: &B,
        pool: &ScratchPool<B::Scratch>,
        pred: &Predicate,
        attrs: &[AttrId],
        k: usize,
    ) -> Result<Vec<Vec<(u32, Estimate)>>> {
        let requests: Vec<QueryRequest> = attrs
            .iter()
            .map(|&attr| QueryRequest::top_k(pred.clone(), attr, k))
            .collect();
        paths::execute_batch(backend, pool, &requests)
            .into_iter()
            .map(|r| r.map(|resp| resp.ranked().expect(SHAPE)))
            .collect()
    }

    pub fn sample_rows<B: SummaryBackend>(
        backend: &B,
        pool: &ScratchPool<B::Scratch>,
        k: usize,
        seed: u64,
    ) -> Result<Table> {
        let resp = paths::execute(backend, pool, &QueryRequest::sample_rows(k, seed))?;
        let (_, rows) = resp.rows().expect(SHAPE);
        let mut table = Table::with_capacity(backend.schema().clone(), rows.len());
        for row in &rows {
            table.push_row_unchecked(row);
        }
        Ok(table)
    }
}
