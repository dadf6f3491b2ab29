//! Accuracy metrics used by the paper's evaluation (Sec. 6.2), plus the
//! operational counters of the gather-side probe cache.
//!
//! * Relative error `|true − est| / (true + est)` for heavy/light hitters.
//! * The F-measure over light hitters vs. nonexistent values, with
//!   `precision = |{est > 0 : light}| / |{est > 0 : light ∪ null}|` and
//!   `recall = |{est > 0 : light}| / |light|`, where "est > 0" uses the
//!   paper's rounding convention (expectations below 0.5 round to 0).
//! * [`CacheCounters`] / [`CacheStatsSnapshot`]: hit / miss / coalesced /
//!   evicted counts for [`crate::scatter::ProbeCache`], surfaced through
//!   the server's `stats` session command and the gateway's `status`
//!   control line so a load run can prove the cache is working.
//! * [`ServerCounters`] / [`ServerStatsSnapshot`]: the serving side's
//!   operational counters (live sessions, accepted / shed connections,
//!   wire bytes, requests in flight), maintained by both I/O drivers
//!   and surfaced through the `stats server` session command and the
//!   gateway control channel's `status` line.

use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free operational counters of a query server (either I/O driver:
/// the epoll driver or the blocking thread-per-connection fallback).
/// All updates are `Relaxed`: the counters are observability, never
/// control flow, so cross-counter consistency is not required.
#[derive(Debug, Default)]
pub struct ServerCounters {
    active_sessions: AtomicU64,
    accepted_total: AtomicU64,
    shed_total: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    dispatch_queued: AtomicU64,
}

impl ServerCounters {
    /// Records one accepted connection (admitted or shed).
    pub fn add_accepted(&self) {
        self.accepted_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one connection answered with a typed `busy` line instead of
    /// being admitted as a session.
    pub fn add_shed(&self) {
        self.shed_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Adjusts the live-session gauge as sessions register/deregister.
    pub fn session_started(&self) {
        self.active_sessions.fetch_add(1, Ordering::Relaxed);
    }

    /// See [`ServerCounters::session_started`].
    pub fn session_ended(&self) {
        self.active_sessions.fetch_sub(1, Ordering::Relaxed);
    }

    /// Number of currently registered sessions.
    pub fn active_sessions(&self) -> u64 {
        self.active_sessions.load(Ordering::Relaxed)
    }

    /// Records `n` bytes read off client sockets.
    pub fn add_bytes_in(&self, n: u64) {
        self.bytes_in.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` bytes written to client sockets.
    pub fn add_bytes_out(&self, n: u64) {
        self.bytes_out.fetch_add(n, Ordering::Relaxed);
    }

    /// Adjusts the in-flight gauge (`dispatch_depth` on the wire): `n`
    /// requests decoded and waiting for their session's turn.
    pub fn dispatch_enqueued(&self, n: u64) {
        self.dispatch_queued.fetch_add(n, Ordering::Relaxed);
    }

    /// See [`ServerCounters::dispatch_enqueued`]: `n` requests answered.
    pub fn dispatch_completed(&self, n: u64) {
        self.dispatch_queued.fetch_sub(n, Ordering::Relaxed);
    }

    /// Requests in flight (decoded, not yet answered).
    pub fn dispatch_depth(&self) -> u64 {
        self.dispatch_queued.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> ServerStatsSnapshot {
        ServerStatsSnapshot {
            active_sessions: self.active_sessions.load(Ordering::Relaxed),
            accepted_total: self.accepted_total.load(Ordering::Relaxed),
            shed_total: self.shed_total.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            dispatch_depth: self.dispatch_queued.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`ServerCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStatsSnapshot {
    /// Currently registered sessions.
    pub active_sessions: u64,
    /// Connections accepted since startup (admitted + shed).
    pub accepted_total: u64,
    /// Connections answered with a typed `busy` line instead of a session.
    pub shed_total: u64,
    /// Bytes read off client sockets.
    pub bytes_in: u64,
    /// Bytes written to client sockets.
    pub bytes_out: u64,
    /// Decoded requests not yet answered: waiting for their session's
    /// turn, or executing.
    pub dispatch_depth: u64,
}

/// Lock-free operational counters of a gather-side probe cache. All
/// updates are `Relaxed`: the counters are observability, never control
/// flow, so cross-counter consistency is not required.
#[derive(Debug, Default)]
pub struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evicted: AtomicU64,
}

impl CacheCounters {
    /// Records `n` cache hits (answers served without touching a shard).
    pub fn add_hits(&self, n: u64) {
        self.hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` cache misses (probes that had to reach a shard).
    pub fn add_misses(&self, n: u64) {
        self.misses.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` coalesced probes: duplicates that shared another
    /// probe's shard round trip (single-flight waiters and within-round
    /// duplicates alike).
    pub fn add_coalesced(&self, n: u64) {
        self.coalesced.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` entries discarded to keep the cache bounded.
    pub fn add_evicted(&self, n: u64) {
        self.evicted.fetch_add(n, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> CacheStatsSnapshot {
        CacheStatsSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`CacheCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStatsSnapshot {
    /// Answers served straight from the cache.
    pub hits: u64,
    /// Probes that had to reach a shard.
    pub misses: u64,
    /// Duplicate probes that shared another probe's round trip.
    pub coalesced: u64,
    /// Entries discarded to keep the cache bounded.
    pub evicted: u64,
}

impl CacheStatsSnapshot {
    /// Fraction of lookups answered from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.coalesced;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Lock-free operational counters of a streaming-ingest path (the live
/// summary's delta shard). Same convention as [`ServerCounters`]: all
/// updates are `Relaxed` — observability, never control flow.
#[derive(Debug, Default)]
pub struct IngestCounters {
    appended_rows: AtomicU64,
    duplicate_appends: AtomicU64,
    folds: AtomicU64,
    seals: AtomicU64,
    retired_segments: AtomicU64,
}

impl IngestCounters {
    /// Records `n` rows accepted into the delta staging buffer.
    pub fn add_appended_rows(&self, n: u64) {
        self.appended_rows.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one append rejected as a replay (idempotency-token hit).
    pub fn add_duplicate(&self) {
        self.duplicate_appends.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one delta fold (a background re-solve that published a new
    /// mixture and bumped the epoch).
    pub fn add_fold(&self) {
        self.folds.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one compaction (the fitted delta sealed into a base
    /// segment).
    pub fn add_seal(&self) {
        self.seals.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` sealed segments dropped by the retention policy.
    pub fn add_retired(&self, n: u64) {
        self.retired_segments.fetch_add(n, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters. The epoch and staged-row
    /// gauge live on the summary, not here — the caller fills them in.
    pub fn snapshot(&self, epoch: u64, staged_rows: u64) -> IngestStatsSnapshot {
        IngestStatsSnapshot {
            epoch,
            staged_rows,
            appended_rows: self.appended_rows.load(Ordering::Relaxed),
            duplicate_appends: self.duplicate_appends.load(Ordering::Relaxed),
            folds: self.folds.load(Ordering::Relaxed),
            seals: self.seals.load(Ordering::Relaxed),
            retired_segments: self.retired_segments.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`IngestCounters`] plus the live summary's
/// epoch and staging gauge (the `stats ingest` wire line).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestStatsSnapshot {
    /// Generation token of the served mixture: bumped on every delta fold
    /// and compaction. Probe caches key off it, so observing the
    /// same epoch twice guarantees bitwise-identical answers in between.
    pub epoch: u64,
    /// Rows accepted but not yet covered by the served delta model.
    pub staged_rows: u64,
    /// Rows accepted into the delta since startup (excluding replays).
    pub appended_rows: u64,
    /// Appends rejected as replays by their idempotency token.
    pub duplicate_appends: u64,
    /// Delta folds (background re-solves) since startup.
    pub folds: u64,
    /// Compactions (delta sealed into a base segment) since startup.
    pub seals: u64,
    /// Sealed segments dropped by the retention policy.
    pub retired_segments: u64,
}

/// The paper's symmetric relative error: `|t − e| / (t + e)`, with the
/// convention that it is 0 when both are 0 (a correct "does not exist"
/// answer) and 1 when exactly one side is 0.
pub fn relative_error(truth: f64, estimate: f64) -> f64 {
    let t = truth.max(0.0);
    let e = estimate.max(0.0);
    if t + e == 0.0 {
        0.0
    } else {
        (t - e).abs() / (t + e)
    }
}

/// Mean of the paper's relative error over a workload.
pub fn mean_relative_error(pairs: &[(f64, f64)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    pairs
        .iter()
        .map(|&(t, e)| relative_error(t, e))
        .sum::<f64>()
        / pairs.len() as f64
}

/// Precision / recall / F-measure of existence classification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FMeasure {
    /// Fraction of "exists" answers that were truly existing values.
    pub precision: f64,
    /// Fraction of truly existing (light-hitter) values answered "exists".
    pub recall: f64,
    /// Harmonic mean `2pr/(p+r)`.
    pub f: f64,
}

/// Whether an estimate counts as "exists" under the paper's rounding.
fn exists(est: f64) -> bool {
    est >= 0.5
}

/// Computes the paper's F-measure: `light_estimates` are estimates for
/// values that truly exist (the light hitters), `null_estimates` for values
/// that truly do not.
pub fn f_measure(light_estimates: &[f64], null_estimates: &[f64]) -> FMeasure {
    let true_pos = light_estimates.iter().filter(|&&e| exists(e)).count();
    let false_pos = null_estimates.iter().filter(|&&e| exists(e)).count();
    let precision = if true_pos + false_pos == 0 {
        0.0
    } else {
        true_pos as f64 / (true_pos + false_pos) as f64
    };
    let recall = if light_estimates.is_empty() {
        0.0
    } else {
        true_pos as f64 / light_estimates.len() as f64
    };
    let f = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    FMeasure {
        precision,
        recall,
        f,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_basics() {
        assert_eq!(relative_error(0.0, 0.0), 0.0);
        assert_eq!(relative_error(10.0, 10.0), 0.0);
        assert_eq!(relative_error(10.0, 0.0), 1.0);
        assert_eq!(relative_error(0.0, 10.0), 1.0);
        assert!((relative_error(30.0, 10.0) - 0.5).abs() < 1e-12);
        // Symmetric.
        assert_eq!(relative_error(3.0, 7.0), relative_error(7.0, 3.0));
    }

    #[test]
    fn mean_relative_error_averages() {
        let pairs = [(10.0, 10.0), (10.0, 0.0)];
        assert!((mean_relative_error(&pairs) - 0.5).abs() < 1e-12);
        assert_eq!(mean_relative_error(&[]), 0.0);
    }

    #[test]
    fn perfect_classifier_f_is_one() {
        let fm = f_measure(&[1.0, 3.0, 0.6], &[0.0, 0.2, 0.49]);
        assert_eq!(fm.precision, 1.0);
        assert_eq!(fm.recall, 1.0);
        assert_eq!(fm.f, 1.0);
    }

    #[test]
    fn all_zero_estimates_f_is_zero() {
        let fm = f_measure(&[0.0, 0.1], &[0.0]);
        assert_eq!(fm.recall, 0.0);
        assert_eq!(fm.f, 0.0);
    }

    #[test]
    fn phantoms_hurt_precision() {
        // Model says everything exists: recall 1, precision 0.5.
        let fm = f_measure(&[1.0, 1.0], &[1.0, 1.0]);
        assert_eq!(fm.recall, 1.0);
        assert_eq!(fm.precision, 0.5);
        assert!((fm.f - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn rounding_convention_at_half() {
        let fm = f_measure(&[0.5], &[0.5]);
        assert_eq!(fm.recall, 1.0);
        assert_eq!(fm.precision, 0.5);
    }

    #[test]
    fn cache_counters_snapshot_and_hit_rate() {
        let counters = CacheCounters::default();
        assert_eq!(counters.snapshot(), CacheStatsSnapshot::default());
        assert_eq!(counters.snapshot().hit_rate(), 0.0);
        counters.add_hits(3);
        counters.add_misses(1);
        counters.add_coalesced(2);
        counters.add_evicted(5);
        let snap = counters.snapshot();
        assert_eq!(
            snap,
            CacheStatsSnapshot {
                hits: 3,
                misses: 1,
                coalesced: 2,
                evicted: 5,
            }
        );
        assert!((snap.hit_rate() - 0.5).abs() < 1e-12);
    }
}
