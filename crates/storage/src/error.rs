//! Error types for the storage layer.

use std::fmt;

/// Errors produced by schema construction, table loading, and query execution.
#[derive(Debug, Clone, PartialEq)]
pub enum StorageError {
    /// An attribute name was looked up that does not exist in the schema.
    UnknownAttribute(String),
    /// An attribute id was out of range for the schema.
    AttrIdOutOfRange { id: usize, arity: usize },
    /// A row had the wrong number of values for the schema.
    ArityMismatch { expected: usize, got: usize },
    /// A dictionary code exceeded the attribute's declared domain size.
    CodeOutOfDomain {
        attr: String,
        code: u32,
        domain_size: usize,
    },
    /// A domain (or bin count) of size zero was declared.
    EmptyDomain(String),
    /// A range predicate or bin specification had `lo > hi`.
    InvalidRange { lo: u32, hi: u32 },
    /// A binner was configured with a non-positive width interval.
    InvalidBinSpec { lo: f64, hi: f64, bins: usize },
    /// Two schemas that must match (e.g. for appends or shard re-assembly)
    /// differ; `reason` names the first divergence found.
    SchemaMismatch { reason: String },
    /// A partitioning specification was invalid for the table it was
    /// applied to (zero shards, out-of-schema attribute, bad bounds).
    InvalidPartition(String),
    /// Textual query input (predicate or statement) could not be parsed.
    Syntax(String),
    /// A file could not be read; `message` is the operating system's reason.
    Io { path: String, message: String },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::UnknownAttribute(name) => {
                write!(f, "unknown attribute: {name:?}")
            }
            StorageError::AttrIdOutOfRange { id, arity } => {
                write!(
                    f,
                    "attribute id {id} out of range for schema of arity {arity}"
                )
            }
            StorageError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "row arity mismatch: expected {expected} values, got {got}"
                )
            }
            StorageError::CodeOutOfDomain {
                attr,
                code,
                domain_size,
            } => {
                write!(
                    f,
                    "code {code} out of domain for attribute {attr:?} (domain size {domain_size})"
                )
            }
            StorageError::EmptyDomain(name) => {
                write!(f, "attribute {name:?} declared with an empty domain")
            }
            StorageError::InvalidRange { lo, hi } => {
                write!(f, "invalid range: lo {lo} > hi {hi}")
            }
            StorageError::InvalidBinSpec { lo, hi, bins } => {
                write!(f, "invalid bin spec: [{lo}, {hi}] with {bins} bins")
            }
            StorageError::SchemaMismatch { reason } => {
                write!(f, "schema mismatch: {reason}")
            }
            StorageError::InvalidPartition(reason) => {
                write!(f, "invalid partitioning: {reason}")
            }
            StorageError::Syntax(reason) => {
                write!(f, "syntax error: {reason}")
            }
            StorageError::Io { path, message } => {
                write!(f, "cannot read {path}: {message}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// Convenience alias used throughout the storage crate.
pub type Result<T> = std::result::Result<T, StorageError>;
