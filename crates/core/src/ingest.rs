//! Streaming ingest: a live summary over base shards plus a delta shard.
//!
//! The paper fits one static summary offline; this module makes the served
//! summary track a table that keeps growing. A [`LiveSummary`] models the
//! relation as
//!
//! * a list of **sealed segments** — immutable fitted [`MaxEntSummary`]
//!   models, time-partitioned in seal order (segment `i` was sealed before
//!   segment `i + 1`), plus
//! * one small **delta shard** — a staging [`Table`] absorbing
//!   [`append_rows`](LiveSummary::append_rows) batches, re-solved (it is
//!   tiny, so seconds not minutes) whenever the staged-row threshold is
//!   crossed, and
//! * a served **mixture** — a [`ShardedSummary`] over
//!   `segments + fitted delta`, republished atomically after every fold.
//!
//! The delta lifecycle is `stage → re-solve (fold) → serve → seal`: once
//! the fitted delta reaches the seal threshold it is promoted into the
//! sealed-segment list *without* refitting — the mixture holds the same
//! models in the same order, so sealing is bitwise-neutral — and a fresh
//! empty delta starts.
//!
//! Everything the scatter/merge layer guarantees for static mixtures (exact
//! COUNT/SUM merges, mixture probabilities, stratified sampling) holds here
//! unchanged, because each published snapshot *is* a `ShardedSummary`.
//!
//! **Epochs.** The summary carries a monotonically increasing epoch,
//! bumped once per published mixture (a fold, sealing or not) — after the
//! mixture is served, never before, so whoever reads epoch `e` is answered
//! by `e`'s mixture or a newer one. The epoch is also the summary's
//! [generation](crate::engine::SummaryBackend::generation): a fold orphans
//! every answer an engine's answer cache filed under the previous one.
//!
//! **Idempotent appends.** A batch may carry an opaque idempotency token;
//! replaying a token (a client retry after a transport error) reports
//! `duplicate` instead of double-ingesting. Tokens live in a FIFO set of
//! the last 4096 (`TOKEN_WINDOW`).
//!
//! **Consistency.** Queries always see a complete published snapshot:
//! staged rows are invisible until their fold publishes, and a probe that
//! started on epoch `e` finishes on epoch `e`'s mixture even if a fold
//! lands mid-flight (snapshots are `Arc`-pinned per probe). A request that
//! takes several probes — a two-attribute group-by, a large draw cut into
//! runs — may see a fold between two of them.

use crate::engine::{AppendOutcome, SummaryBackend};
use crate::error::{ModelError, Result};
use crate::metrics::{IngestCounters, IngestStatsSnapshot};
use crate::model::MaxEntSummary;
use crate::probe::{ProbeRequest, ProbeResponse};
use crate::scatter::ShardProbe;
pub use crate::sharded::fit_segment;
use crate::sharded::{ShardedScratch, ShardedSummary};
use crate::solver::SolverConfig;
use crate::statistics::MultiDimStatistic;
use entropydb_storage::{Schema, Table};
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How a [`LiveSummary`] stages, folds, and seals its delta shard.
///
/// Build one as a struct literal over `..IngestConfig::default()`; the
/// constructors of [`LiveSummary`] run [`IngestConfig::validate`] on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestConfig {
    /// Staged rows that trigger a delta re-solve (fold). Must be > 0.
    pub delta_rows: usize,
    /// Fitted-delta rows that trigger sealing: once the served delta model
    /// covers at least this many rows it is sealed into the base segment
    /// list. Must be >= `delta_rows`.
    pub seal_rows: usize,
    /// Re-solve trigger placement: `true` folds on a persistent background
    /// worker (appends return immediately, staged rows become queryable
    /// when the fold publishes); `false` folds synchronously inside the
    /// triggering [`LiveSummary::append_rows`] call.
    pub background: bool,
}

/// Idempotency tokens a [`LiveSummary`] remembers; older ones are evicted
/// first in, first out.
const TOKEN_WINDOW: usize = 4096;

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            delta_rows: 1024,
            seal_rows: 16384,
            background: true,
        }
    }
}

impl IngestConfig {
    /// Rejects zero caps and inverted bounds instead of letting them
    /// surface as runtime misbehavior; the constructors of [`LiveSummary`]
    /// run this.
    pub fn validate(&self) -> Result<()> {
        if self.delta_rows == 0 {
            return Err(ModelError::InvalidConfig(
                "ingest delta_rows must be positive".to_string(),
            ));
        }
        if self.seal_rows < self.delta_rows {
            return Err(ModelError::InvalidConfig(format!(
                "ingest seal_rows ({}) below delta_rows ({}): the delta would seal before it can fold",
                self.seal_rows, self.delta_rows
            )));
        }
        Ok(())
    }
}

/// One published snapshot: the mixture queries run against, tagged with the
/// epoch that published it.
struct Served {
    mixture: ShardedSummary,
    epoch: u64,
}

/// Mutable ingest state, all behind one mutex: the sealed segments, the
/// delta staging table, how much of it the served delta model covers, and
/// the idempotency-token window.
struct LiveState {
    /// Sealed per-segment models, oldest first (time-partitioned). Shared
    /// with the fold that reads them outside this lock; only a seal, under
    /// it, changes them.
    segments: Arc<Vec<MaxEntSummary>>,
    /// Every row appended since the last seal. The served delta model (when
    /// present) covers the prefix `[0, covered_rows)`.
    delta_table: Table,
    covered_rows: usize,
    delta_model: Option<MaxEntSummary>,
    /// Idempotency tokens already accepted, with FIFO eviction order.
    tokens: HashSet<String>,
    token_order: VecDeque<String>,
}

impl LiveState {
    fn staged(&self) -> u64 {
        (self.delta_table.num_rows() - self.covered_rows) as u64
    }

    /// Records `token`, evicting the oldest past [`TOKEN_WINDOW`]. Returns
    /// `false` when the token was already present (a replay).
    fn admit_token(&mut self, token: &str) -> bool {
        if self.tokens.contains(token) {
            return false;
        }
        self.tokens.insert(token.to_string());
        self.token_order.push_back(token.to_string());
        while self.token_order.len() > TOKEN_WINDOW {
            if let Some(old) = self.token_order.pop_front() {
                self.tokens.remove(&old);
            }
        }
        true
    }
}

/// Background-worker handshake: `pending` set by appends that crossed the
/// fold threshold, `shutdown` set by [`LiveSummary`]'s `Drop`.
#[derive(Default)]
struct WorkerSignal {
    pending: bool,
    shutdown: bool,
}

struct Inner {
    schema: Schema,
    domain_sizes: Vec<usize>,
    /// The full multi-statistic set; each delta fold prunes it per shard.
    multi: Vec<MultiDimStatistic>,
    solver: SolverConfig,
    config: IngestConfig,
    /// The epoch of the served snapshot, stored only once that snapshot
    /// is served.
    epoch: AtomicU64,
    state: Mutex<LiveState>,
    /// Serializes folds so concurrent triggers cannot interleave solve /
    /// publish; the `state` lock is *released* during the solve itself, so
    /// appends and queries proceed while the background fit runs.
    fold_lock: Mutex<()>,
    served: Mutex<Arc<Served>>,
    counters: IngestCounters,
    signal: Mutex<WorkerSignal>,
    wake: Condvar,
    fold_error: Mutex<Option<ModelError>>,
}

impl Inner {
    fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    fn snapshot(&self) -> Arc<Served> {
        Arc::clone(&self.served.lock().unwrap())
    }

    /// Publishes `mixture` as the served snapshot under a fresh epoch and
    /// returns the snapshot it replaces, for the caller to drop once its
    /// locks are released (the last reference frees the old delta model).
    /// Folds are serialized (`fold_lock`), so the epoch is ours to advance:
    /// the snapshot is installed first and the epoch stored after, so the
    /// epoch never runs ahead of the mixture that answers.
    fn publish(&self, mixture: ShardedSummary) -> (u64, Arc<Served>) {
        let epoch = self.current_epoch() + 1;
        let served = Arc::new(Served { mixture, epoch });
        let old = std::mem::replace(&mut *self.served.lock().unwrap(), served);
        self.epoch.store(epoch, Ordering::Release);
        (epoch, old)
    }

    /// Stages `rows`, then runs or schedules a fold if the threshold was
    /// crossed. The heart of [`LiveSummary::append_rows`].
    fn append(&self, rows: &[Vec<u32>], token: Option<&str>) -> Result<AppendOutcome> {
        let staged = {
            let mut state = self.state.lock().unwrap();
            if let Some(tok) = token {
                if state.tokens.contains(tok) {
                    self.counters.add_duplicate();
                    return Ok(AppendOutcome {
                        accepted: 0,
                        duplicate: true,
                        staged: state.staged(),
                        epoch: self.current_epoch(),
                    });
                }
            }
            // All-or-nothing staging: a bad row rejects the whole batch
            // before any column is touched, and the token is only recorded
            // for batches that actually landed (so a retry after a
            // validation error is not mistaken for a replay).
            state
                .delta_table
                .append_rows(rows)
                .map_err(ModelError::Storage)?;
            if let Some(tok) = token {
                state.admit_token(tok);
            }
            self.counters.add_appended_rows(rows.len() as u64);
            state.staged()
        };

        if staged >= self.config.delta_rows as u64 {
            if self.config.background {
                let mut sig = self.signal.lock().unwrap();
                sig.pending = true;
                self.wake.notify_one();
            } else {
                self.fold()?;
            }
        }

        let state = self.state.lock().unwrap();
        Ok(AppendOutcome {
            accepted: rows.len() as u64,
            duplicate: false,
            staged: state.staged(),
            epoch: self.current_epoch(),
        })
    }

    /// Re-solves the delta over every staged row, seals it once it covers
    /// `seal_rows`, and publishes the new mixture. Returns the epoch current
    /// after the call (unchanged when there was nothing to do).
    fn fold(&self) -> Result<u64> {
        let _fold = self.fold_lock.lock().unwrap();

        // Snapshot the staged rows; the state lock is dropped during the
        // solve so ingest and queries keep flowing.
        let (part, target, segments) = {
            let state = self.state.lock().unwrap();
            let total = state.delta_table.num_rows();
            if total == state.covered_rows {
                return Ok(self.current_epoch());
            }
            (
                state.delta_table.clone(),
                total,
                Arc::clone(&state.segments),
            )
        };

        let model = fit_segment(&part, &self.multi, &self.solver).inspect_err(|_| {
            self.counters.add_fold_error();
        })?;
        self.counters.add_fold(model.solver_report().sweeps as u64);

        // Sealed segments, then the fitted delta: the same list whether or
        // not the delta seals below. Only a fold changes the segments and
        // folds are serialized, so the list is assembled before the state
        // lock is taken, and the lock guards pointer swaps alone.
        let mut models = Vec::with_capacity(segments.len() + 1);
        models.extend(segments.iter().cloned());
        models.push(model.clone());
        drop(segments);
        let mixture = ShardedSummary::from_shards(models)?;

        let mut state = self.state.lock().unwrap();
        state.delta_model = Some(model);
        state.covered_rows = target;
        if state.covered_rows >= self.config.seal_rows {
            self.seal_locked(&mut state);
        }
        let (epoch, old) = self.publish(mixture);
        drop(state);
        drop(old);
        Ok(epoch)
    }

    /// Promotes the fitted delta into the sealed-segment list (bitwise
    /// neutral: the published mixture holds the same models in the same
    /// order). Rows that arrived during the last solve stay staged in a
    /// fresh delta table.
    fn seal_locked(&self, state: &mut LiveState) {
        let Some(model) = state.delta_model.take() else {
            return;
        };
        Arc::make_mut(&mut state.segments).push(model);
        self.counters.add_seal();

        let mut rest = Table::new(self.schema.clone());
        for r in state.covered_rows..state.delta_table.num_rows() {
            let row = state.delta_table.row(r).expect("row index in bounds");
            rest.push_row_unchecked(&row);
        }
        state.delta_table = rest;
        state.covered_rows = 0;
    }

    fn stats(&self) -> IngestStatsSnapshot {
        let staged = self.state.lock().unwrap().staged();
        self.counters.snapshot(self.current_epoch(), staged)
    }
}

/// A mutable, queryable summary: immutable base shards plus a live delta
/// shard absorbing appends, re-solved and sealed per [`IngestConfig`].
/// Implements [`SummaryBackend`], so it drops into
/// [`QueryEngine`](crate::engine::QueryEngine) and the serving stack
/// wherever a fitted summary does — with [`SummaryBackend::append_rows`]
/// actually accepting rows instead of returning
/// [`ModelError::Immutable`].
///
/// See the [module docs](self) for the delta lifecycle and epoch contract.
pub struct LiveSummary {
    inner: Arc<Inner>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for LiveSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.inner.stats();
        f.debug_struct("LiveSummary")
            .field("epoch", &stats.epoch)
            .field("staged_rows", &stats.staged_rows)
            .field("n", &self.n())
            .finish()
    }
}

impl LiveSummary {
    /// Wraps a fitted base mixture into a live summary. The base shards
    /// become the initial sealed segments (epoch 0); `multi` and `solver`
    /// are the statistic set and solver configuration every delta fold
    /// fits with — pass the same values the base was built from so folded
    /// deltas are fitted like any other shard.
    pub fn new(
        base: ShardedSummary,
        multi: Vec<MultiDimStatistic>,
        solver: SolverConfig,
        config: IngestConfig,
    ) -> Result<LiveSummary> {
        Self::from_parts(base.into_shards(), multi, solver, config, 0)
    }

    /// Restores a live summary from already-fitted sealed segments at a
    /// given starting epoch (the manifest-v3 load path).
    pub(crate) fn from_parts(
        segments: Vec<MaxEntSummary>,
        multi: Vec<MultiDimStatistic>,
        solver: SolverConfig,
        config: IngestConfig,
        epoch: u64,
    ) -> Result<LiveSummary> {
        config.validate()?;
        let Some(first) = segments.first() else {
            return Err(ModelError::ShapeMismatch);
        };
        let schema = first.schema().clone();
        let domain_sizes = first.statistics().domain_sizes().to_vec();
        let state = LiveState {
            segments: Arc::new(segments),
            delta_table: Table::new(schema.clone()),
            covered_rows: 0,
            delta_model: None,
            tokens: HashSet::new(),
            token_order: VecDeque::new(),
        };
        let background = config.background;
        let mixture = ShardedSummary::from_shards(state.segments.to_vec())?;
        let inner = Arc::new(Inner {
            schema,
            domain_sizes,
            multi,
            solver,
            config,
            epoch: AtomicU64::new(epoch),
            state: Mutex::new(state),
            fold_lock: Mutex::new(()),
            served: Mutex::new(Arc::new(Served { mixture, epoch })),
            counters: IngestCounters::default(),
            signal: Mutex::new(WorkerSignal::default()),
            wake: Condvar::new(),
            fold_error: Mutex::new(None),
        });
        let worker = if background {
            let handle = Arc::clone(&inner);
            Some(
                std::thread::Builder::new()
                    .name("entropydb-ingest".to_string())
                    .spawn(move || worker_loop(handle))
                    .expect("spawn ingest worker"),
            )
        } else {
            None
        };
        Ok(LiveSummary { inner, worker })
    }

    /// Stages a batch of coded rows into the delta shard. See
    /// [`SummaryBackend::append_rows`] for the token contract; rows become
    /// queryable when their fold publishes (immediately for synchronous
    /// configs, shortly after for background ones — see
    /// [`LiveSummary::wait_until_clean`]).
    pub fn append_rows(&self, rows: &[Vec<u32>], token: Option<&str>) -> Result<AppendOutcome> {
        self.inner.append(rows, token)
    }

    /// Synchronously folds every staged row into the served mixture (even
    /// below the fold threshold) and returns the resulting epoch. No-op on
    /// a clean summary.
    pub fn flush(&self) -> Result<u64> {
        self.inner.fold()
    }

    /// The current ingest epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.current_epoch()
    }

    /// Rows staged but not yet covered by the served delta model.
    pub fn staged_rows(&self) -> u64 {
        self.inner.state.lock().unwrap().staged()
    }

    /// Sealed segments currently in the mixture (excluding the delta).
    pub fn num_segments(&self) -> usize {
        self.inner.state.lock().unwrap().segments.len()
    }

    /// Ingest counters plus the epoch and staging gauge.
    pub fn ingest_stats(&self) -> IngestStatsSnapshot {
        self.inner.stats()
    }

    /// Takes (and clears) the last error a *background* fold hit. Folds
    /// run on a worker thread in background configs, so their errors
    /// cannot surface through an `append_rows` return value; they park
    /// here. Synchronous configs never populate this.
    pub fn take_fold_error(&self) -> Option<ModelError> {
        self.inner.fold_error.lock().unwrap().take()
    }

    /// Blocks until no rows are staged (every append has been folded into
    /// the served mixture) or `timeout` elapses; returns whether the
    /// summary is clean. Background-config helper for tests and drills —
    /// check [`LiveSummary::take_fold_error`] on a `false` return.
    pub fn wait_until_clean(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.staged_rows() == 0 {
                return true;
            }
            if Instant::now() >= deadline {
                return self.staged_rows() == 0;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The statistic set delta folds fit with (pre-pruning).
    pub fn fold_statistics(&self) -> Vec<MultiDimStatistic> {
        self.inner.multi.clone()
    }

    /// The sealed segments, fitted delta, and epoch of the current state —
    /// the manifest-v3 save path. Callers wanting nothing staged should
    /// [`flush`](LiveSummary::flush) first.
    pub(crate) fn parts(&self) -> (Vec<MaxEntSummary>, Option<MaxEntSummary>, u64) {
        let state = self.inner.state.lock().unwrap();
        (
            state.segments.to_vec(),
            state.delta_model.clone(),
            self.inner.current_epoch(),
        )
    }
}

/// Body of the persistent background-fold worker: sleep until an append
/// crosses the fold threshold (or shutdown), fold, repeat. The solve inside
/// [`Inner::fold`] runs on this one thread. Errors park in `fold_error` (see
/// [`LiveSummary::take_fold_error`]); the worker keeps serving later folds.
fn worker_loop(inner: Arc<Inner>) {
    loop {
        {
            let mut sig = inner.signal.lock().unwrap();
            while !sig.pending && !sig.shutdown {
                sig = inner.wake.wait(sig).unwrap();
            }
            if sig.shutdown {
                return;
            }
            sig.pending = false;
        }
        if let Err(e) = inner.fold() {
            *inner.fold_error.lock().unwrap() = Some(e);
        }
    }
}

impl Drop for LiveSummary {
    fn drop(&mut self) {
        if let Some(handle) = self.worker.take() {
            {
                let mut sig = self.inner.signal.lock().unwrap();
                sig.shutdown = true;
                self.inner.wake.notify_all();
            }
            let _ = handle.join();
        }
    }
}

/// Reusable evaluation workspace of a [`LiveSummary`]: the wrapped
/// mixture's scratch, tagged with the epoch it was shaped for. Folds change
/// the mixture's shard count and polynomial shapes, so the scratch is
/// rebuilt transparently whenever it meets a snapshot from a newer epoch.
pub struct LiveScratch {
    epoch: u64,
    inner: ShardedScratch,
}

/// Rebuilds `scratch` against `served`'s mixture when it was shaped for a
/// different epoch, then hands out the inner scratch.
fn sync_scratch<'a>(served: &Served, scratch: &'a mut LiveScratch) -> &'a mut ShardedScratch {
    if scratch.epoch != served.epoch {
        scratch.inner = served.mixture.make_scratch();
        scratch.epoch = served.epoch;
    }
    &mut scratch.inner
}

/// Every probe runs on one pinned snapshot: a fold landing mid-probe
/// publishes a new mixture beside it, never under it, so one probe's answer
/// — all the rows of one `SampleAt` included — comes from one epoch.
impl ShardProbe for LiveSummary {
    type Scratch = LiveScratch;

    fn n(&self) -> u64 {
        self.inner.snapshot().mixture.n()
    }

    fn make_scratch(&self) -> LiveScratch {
        let served = self.inner.snapshot();
        LiveScratch {
            epoch: served.epoch,
            inner: served.mixture.make_scratch(),
        }
    }

    fn probe(&self, request: &ProbeRequest, scratch: &mut LiveScratch) -> Result<ProbeResponse> {
        let served = self.inner.snapshot();
        served
            .mixture
            .probe(request, sync_scratch(&served, scratch))
    }
}

impl SummaryBackend for LiveSummary {
    fn schema(&self) -> &Schema {
        &self.inner.schema
    }

    fn domain_sizes(&self) -> &[usize] {
        &self.inner.domain_sizes
    }

    /// The epoch: it moves with every published mixture, and never
    /// before that mixture is served.
    fn generation(&self) -> u64 {
        self.inner.current_epoch()
    }

    fn epoch(&self) -> u64 {
        self.inner.current_epoch()
    }

    fn append_rows(&self, rows: &[Vec<u32>], token: Option<&str>) -> Result<AppendOutcome> {
        self.inner.append(rows, token)
    }

    fn ingest_stats(&self) -> Option<IngestStatsSnapshot> {
        Some(self.inner.stats())
    }
}
