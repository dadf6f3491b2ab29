//! # entropydb-core
//!
//! A from-scratch Rust implementation of **EntropyDB** — "Probabilistic
//! Database Summarization for Interactive Data Exploration" (Orr,
//! Balazinska, Suciu; VLDB 2017). The library builds a small, queryable
//! maximum-entropy summary of a relation: the distribution over possible
//! instances that matches a chosen set of statistics and is otherwise
//! maximally uniform. Queries are answered in expectation by evaluating a
//! compressed multilinear polynomial — no access to the base data, no
//! samples, and (unlike samples) a principled answer for *rare and
//! nonexistent* populations.
//!
//! ## Quick start
//!
//! ```
//! use entropydb_core::prelude::*;
//! use entropydb_storage::{Attribute, Predicate, Schema, Table};
//!
//! // A tiny relation R(origin, dest).
//! let schema = Schema::new(vec![
//!     Attribute::categorical("origin", 3).unwrap(),
//!     Attribute::categorical("dest", 3).unwrap(),
//! ]);
//! let mut table = Table::new(schema);
//! for (o, d) in [(0, 0), (0, 1), (1, 1), (2, 2), (0, 0), (1, 2)] {
//!     table.push_row(&[o, d]).unwrap();
//! }
//!
//! // Summarize with one 2D statistic and query it.
//! let stat = MultiDimStatistic::cell2d(
//!     table.schema().attr_by_name("origin").unwrap(), 0,
//!     table.schema().attr_by_name("dest").unwrap(), 0,
//! ).unwrap();
//! let summary = MaxEntSummary::build(&table, vec![stat], &SolverConfig::default()).unwrap();
//!
//! let origin = summary.schema().attr_by_name("origin").unwrap();
//! let dest = summary.schema().attr_by_name("dest").unwrap();
//! let est = summary.estimate_count(&Predicate::new().eq(origin, 0).eq(dest, 0)).unwrap();
//! assert!((est.expectation - 2.0).abs() < 1e-6); // covered by the statistic → exact
//! ```
//!
//! ## Module map (↔ paper sections)
//!
//! | Module | Paper | Content |
//! |---|---|---|
//! | [`statistics`] | §3.1 | statistic sets `Φ`, observation, validation |
//! | [`naive`] | §3.1 Eq. 5 | uncompressed polynomial (test oracle) |
//! | [`polynomial`] | §4.1 Thm 4.1 | compressed polynomial, fused derivative passes |
//! | [`factorized`] | §7 | product factorization over independent attribute groups |
//! | `tree` | §4.1 (third assumption) | sum-product kernel (queries and solver sweeps) for components that are trees of disjoint 2-D rectangles |
//! | [`solver`] | §3.3 Alg. 1 | coordinate mirror descent + gradient baseline |
//! | [`assignment`] | §4.2 | variable values, query masks |
//! | [`model`] / [`query`] | §3.2, §4.2 | `MaxEntSummary`, estimates with variance |
//! | [`plan`] | — | query IR (`QueryRequest`/`QueryResponse`, predicates) + wire encoding; executed by `execute` |
//! | [`probe`] | — | probe IR (`ProbeRequest`/`ProbeResponse`, masks) + wire encoding; executed by `probe` |
//! | [`engine`] | — | generic `QueryEngine` (`execute`, `execute_batch`, `probe`, scratch pool, `AnswerCache`), the `SummaryBackend` trait, and the typed surface `QueryApi` |
//! | [`sharded`] | — | `ShardedSummary`: per-partition models with merged estimates |
//! | [`ingest`] | — | `LiveSummary`: streaming ingest (delta shard, folds, seals, epochs) |
//! | [`scatter`] | §4.3 | `ShardProbe::probe` (the one evaluating method of every backend), `Support` (the codes a shard's ZERO statistics leave), `gather` (prune, ask together, the one merge; the sample stratification) |
//! | [`selection`] | §4.3 | LARGE / ZERO / COMPOSITE, KD-tree, pair choice |
//! | [`metrics`] | §6.2 | relative error, F-measure |
//! | [`serialize`] | §5 | text-format persistence |
//! | [`wire`] | — | the one line codec under every wire line, blob and manifest |

pub mod assignment;
pub mod engine;
pub mod error;
pub mod factorized;
pub mod ingest;
pub mod metrics;
pub mod model;
pub mod naive;
pub mod par;
pub mod plan;
pub mod polynomial;
pub mod probe;
pub mod query;
pub mod rng;
pub mod scatter;
pub mod selection;
pub mod serialize;
pub mod sharded;
pub mod solver;
pub mod statistics;
mod tree;
pub mod wire;

/// The types most users need.
pub mod prelude {
    pub use crate::assignment::{Mask, VarAssignment};
    pub use crate::engine::{AppendOutcome, QueryApi, QueryEngine, SummaryBackend};
    pub use crate::error::{ModelError, RemoteDetail, Result};
    pub use crate::factorized::{FactorizedPolynomial, FactorizedScratch, FreeParts};
    pub use crate::ingest::{IngestConfig, LiveSummary};
    pub use crate::model::MaxEntSummary;
    pub use crate::plan::{parse_request, QueryRequest, QueryResponse};
    pub use crate::polynomial::{CompressedPolynomial, EvalScratch};
    pub use crate::probe::{ProbeRequest, ProbeResponse};
    pub use crate::query::Estimate;
    pub use crate::scatter::ShardProbe;
    pub use crate::selection::{Heuristic, SelectionPlan};
    pub use crate::serialize::ClusterShard;
    pub use crate::sharded::{ShardedBuildConfig, ShardedSummary};
    pub use crate::solver::{SolverConfig, SolverReport};
    pub use crate::statistics::{MultiDimStatistic, RangeClause, Statistics};
}
