//! Error types for the MaxEnt model layer.

use entropydb_storage::StorageError;
use std::fmt;

/// Structured payload of [`ModelError::Remote`]: what failed, optionally
/// attributed to a shard of a distributed fan-out. Replaces the old
/// free-form `Remote(String)` payload so gather-layer callers can match on
/// the failing shard instead of parsing prose; [`fmt::Display`] renders the
/// exact text the stringly payload used to carry, so wire `err` lines are
/// byte-for-byte unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteDetail {
    /// Index of the shard the failure is attributed to, when the error came
    /// out of a per-shard probe rather than a whole-cluster operation.
    pub shard: Option<usize>,
    /// The failing shard's primary address, when known.
    pub addr: Option<String>,
    /// What failed, in wire-safe prose.
    pub kind: String,
}

impl RemoteDetail {
    /// A detail with no shard attribution (whole-cluster failures, wire
    /// `err` payloads decoded client-side, admission rejections).
    pub fn message(kind: impl Into<String>) -> Self {
        RemoteDetail {
            shard: None,
            addr: None,
            kind: kind.into(),
        }
    }

    /// A detail attributed to one shard of a fan-out.
    pub fn shard(shard: usize, addr: impl Into<String>, kind: impl Into<String>) -> Self {
        RemoteDetail {
            shard: Some(shard),
            addr: Some(addr.into()),
            kind: kind.into(),
        }
    }
}

impl fmt::Display for RemoteDetail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.shard, &self.addr) {
            (Some(shard), Some(addr)) => write!(f, "shard {shard} ({addr}): {}", self.kind),
            (Some(shard), None) => write!(f, "shard {shard}: {}", self.kind),
            _ => write!(f, "{}", self.kind),
        }
    }
}

/// Errors produced while building, solving, or querying a MaxEnt summary.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// An underlying storage-layer error (schema lookup, bad predicate, ...).
    Storage(StorageError),
    /// A multi-dimensional statistic was declared on fewer than two distinct
    /// attributes (1D statistics are always implicitly complete).
    NotMultiDimensional,
    /// A multi-dimensional statistic referenced the same attribute twice.
    DuplicateAttribute(usize),
    /// Two statistics over the same attribute set overlap. The compression
    /// theorem (Thm 4.1) requires same-attribute-set statistics disjoint.
    OverlappingStatistics { first: usize, second: usize },
    /// An observed statistic value was larger than the relation cardinality.
    StatisticExceedsN { stat: usize, observed: u64, n: u64 },
    /// A multi-dimensional statistic covered every tuple (`s_j = n`), which
    /// makes the coordinate update (Eq. 12) degenerate.
    DegenerateStatistic { stat: usize },
    /// The inclusion/exclusion closure grew past the configured cap. Only a
    /// component that does not qualify for the tree kernel builds a closure
    /// (see `crate::factorized`), so the statistics contain one of the
    /// three disqualifiers the message names.
    CompressionTooLarge { cap: usize },
    /// The solver produced a non-finite polynomial value.
    NumericalFailure(&'static str),
    /// The naive (test-oracle) polynomial was requested for a tuple space too
    /// large to materialize.
    TupleSpaceTooLarge { size: u128, cap: u128 },
    /// A serialized summary could not be parsed.
    Parse { line: usize, message: String },
    /// The model and a query/mask disagree on schema shape.
    ShapeMismatch,
    /// An error reported by a remote query service (the wire protocol's
    /// `err` response payload). Remote errors are *deterministic*: the
    /// server executed (or rejected) the request and answered — re-sending
    /// the same line would produce the same error, so callers must not
    /// retry or fail over on it. The payload carries structured shard
    /// attribution when the gather layer produced it (see [`RemoteDetail`]).
    Remote(RemoteDetail),
    /// The server deliberately shed load (session capacity, admission
    /// control) instead of executing the request — the wire protocol's
    /// `busy` response payload. Unlike [`ModelError::Remote`], a busy
    /// answer is *transient*: the same request is expected to succeed
    /// after a backoff, on this node or a replica.
    Busy(String),
    /// A sharded fan-out lost a shard: every live replica of the named
    /// shard failed (transport, protocol, or exhausted retry budget).
    /// Carries the shard identity so operators can see exactly which
    /// placement is degraded.
    Degraded {
        /// Index of the degraded shard within the cluster.
        shard: usize,
        /// Address of the last replica tried.
        addr: String,
        /// The underlying failure, in wire-safe prose.
        detail: String,
    },
    /// A configuration builder's `build()` rejected the assembled config
    /// (zero cap, inverted bound, non-finite tolerance, ...). Carries the
    /// offending field and constraint in prose.
    InvalidConfig(String),
    /// An ingest operation was attempted against an immutable backend — a
    /// fitted summary without a live delta shard. Only
    /// [`LiveSummary`](crate::ingest::LiveSummary) (and backends that
    /// forward to one) accept appends.
    Immutable,
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Storage(e) => write!(f, "storage error: {e}"),
            ModelError::NotMultiDimensional => {
                write!(
                    f,
                    "multi-dimensional statistics need at least two attributes"
                )
            }
            ModelError::DuplicateAttribute(a) => {
                write!(f, "statistic references attribute A{a} more than once")
            }
            ModelError::OverlappingStatistics { first, second } => write!(
                f,
                "statistics {first} and {second} share an attribute set but overlap"
            ),
            ModelError::StatisticExceedsN { stat, observed, n } => write!(
                f,
                "statistic {stat} observed {observed} tuples, more than the relation's {n}"
            ),
            ModelError::DegenerateStatistic { stat } => write!(
                f,
                "statistic {stat} covers every tuple (s = n); drop it — it adds no information"
            ),
            ModelError::CompressionTooLarge { cap } => write!(
                f,
                "inclusion/exclusion closure exceeded {cap} terms: the component does not \
                 qualify for the tree kernel — remove the cycle of attribute pairs, the \
                 statistic on three or more attributes, or the overlapping same-pair \
                 rectangles (a forest of disjoint 2-D rectangles has no cap)"
            ),
            ModelError::NumericalFailure(what) => write!(f, "numerical failure: {what}"),
            ModelError::TupleSpaceTooLarge { size, cap } => write!(
                f,
                "naive polynomial over {size} tuples exceeds cap {cap}; use the compressed form"
            ),
            ModelError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            ModelError::ShapeMismatch => write!(f, "model/query shape mismatch"),
            ModelError::Remote(message) => write!(f, "remote query error: {message}"),
            ModelError::Busy(message) => write!(f, "server busy: {message}"),
            ModelError::Degraded {
                shard,
                addr,
                detail,
            } => write!(f, "shard {shard} ({addr}) degraded: {detail}"),
            ModelError::InvalidConfig(message) => write!(f, "invalid config: {message}"),
            ModelError::Immutable => {
                write!(
                    f,
                    "summary is immutable: no live delta shard accepts appends"
                )
            }
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for ModelError {
    fn from(e: StorageError) -> Self {
        ModelError::Storage(e)
    }
}

/// Convenience alias used throughout the core crate.
pub type Result<T> = std::result::Result<T, ModelError>;
