//! Horizontally sharded summaries: one MaxEnt model per row partition.
//!
//! A [`ShardedSummary`] splits the relation into horizontal shards
//! ([`Table::partition`]) and fits one [`MaxEntSummary`] per shard (side by
//! side on scoped threads, [`par::map`]). Queries ask the shard models in
//! turn and merge the answers:
//!
//! * COUNT / SUM expectations add, and — because the shard models are
//!   independent distributions over disjoint row sets — their variances add
//!   too (tighter than a single Binomial over the merged probability).
//! * Tuple-draw probability is the shard mixture `Σ (n_s / n) · p_s`.
//! * Group-by cells merge by value (per-value estimates add).
//! * Top-k ranks the merged group-by once — exact for every `k`, also for
//!   a value that is below `k` on every shard yet top-`k` overall.
//! * `sample_rows` stratifies the draw across shards proportionally to
//!   shard cardinality (largest-remainder apportionment), with every tuple's
//!   SplitMix64 stream derived only from `(seed, global tuple index)` —
//!   output is deterministic and never depends on how the draw is cut.
//!
//! Sharding also *bounds per-shard closures*: with range sharding, a shard
//! only sees rows in its code range, so any multi statistic whose range on
//! some attribute has no support in the shard constrains a region the
//! shard's complete 1D statistics already force to zero mass. Such
//! statistics are dropped from that shard's model (`P` is independent of
//! their variables — the distribution is unchanged), which shrinks the
//! per-shard polynomial and is where the monolithic-vs-sharded build-time
//! win comes from even on a single core (see `crates/bench/benches/shard.rs`).
//!
//! A `ShardedSummary` built with **one** shard answers every
//! [`QueryEngine`](crate::engine::QueryEngine) path bit-identically to the
//! equivalent [`MaxEntSummary`]: the single-shard merge paths are structured
//! so no floating-point operation is added (enforced by
//! `crates/core/tests/sharded.rs`).

use crate::engine::{paths, QueryApi, ScratchPool, SummaryBackend};
use crate::error::{ModelError, Result};
use crate::factorized::FactorizedScratch;
use crate::model::MaxEntSummary;
use crate::par;
use crate::plan::{QueryRequest, QueryResponse};
use crate::probe::{ProbeRequest, ProbeResponse};
use crate::scatter::{self, ShardProbe};
use crate::solver::SolverConfig;
use crate::statistics::MultiDimStatistic;
use entropydb_storage::{Histogram1D, Partitioning, Schema, Table};

/// How [`ShardedSummary::build`] fits the per-shard models.
#[derive(Debug, Clone, Default)]
pub struct ShardedBuildConfig {
    /// Solver configuration for every per-shard solve.
    pub solver: SolverConfig,
}

/// Per-call scratch of a sharded summary: one shard-model scratch per shard.
pub type ShardedScratch = Vec<FactorizedScratch>;

/// A queryable summary sharded across horizontal row partitions.
#[derive(Debug, Clone)]
pub struct ShardedSummary {
    schema: Schema,
    shards: Vec<MaxEntSummary>,
    n: u64,
    scratch: ScratchPool<ShardedScratch>,
}

impl ShardedSummary {
    /// Builds a sharded summary of `table`: partitions the rows, fits one
    /// [`MaxEntSummary`] per non-empty shard in parallel (each over the
    /// given multi-dimensional statistics, pruned per shard — see
    /// [`fit_segment`]), and wraps them behind the merged query API. A
    /// single shard keeps the full statistic set: it is the monolithic
    /// build path, bit for bit.
    pub fn build(
        table: &Table,
        partitioning: &Partitioning,
        multi: Vec<MultiDimStatistic>,
        config: &ShardedBuildConfig,
    ) -> Result<Self> {
        let parts: Vec<Table> = table
            .partition(partitioning)
            .map_err(ModelError::Storage)?
            .into_iter()
            .filter(|p| p.num_rows() > 0)
            .collect();
        if parts.is_empty() {
            return Err(ModelError::NumericalFailure(
                "cannot summarize an empty relation",
            ));
        }
        let shards: Result<Vec<MaxEntSummary>> = match parts.as_slice() {
            [only] => MaxEntSummary::build(only, multi, &config.solver).map(|s| vec![s]),
            parts => par::map(parts, 1, |_, part| {
                fit_segment(part, &multi, &config.solver)
            })
            .into_iter()
            .collect(),
        };
        Self::from_shards(shards?)
    }

    /// Wraps already-fitted shard models. All shards must share one schema.
    pub fn from_shards(shards: Vec<MaxEntSummary>) -> Result<Self> {
        let Some(first) = shards.first() else {
            return Err(ModelError::ShapeMismatch);
        };
        let schema = first.schema().clone();
        for s in &shards[1..] {
            if s.schema() != &schema {
                return Err(ModelError::ShapeMismatch);
            }
        }
        let n: u64 = shards.iter().map(MaxEntSummary::n).sum();
        if n == 0 {
            return Err(ModelError::NumericalFailure(
                "cannot summarize an empty relation",
            ));
        }
        Ok(ShardedSummary {
            schema,
            shards,
            n,
            scratch: ScratchPool::new(),
        })
    }

    /// Decomposes the mixture back into its per-shard models, in shard
    /// order — the inverse of [`ShardedSummary::from_shards`]. Used by the
    /// streaming-ingest layer to seed a live summary's sealed-segment list
    /// from a fitted base mixture.
    pub fn into_shards(self) -> Vec<MaxEntSummary> {
        self.shards
    }

    /// Total relation cardinality `n` (sum of shard cardinalities).
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The summarized relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The per-shard models, in shard order.
    pub fn shards(&self) -> &[MaxEntSummary] {
        &self.shards
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }
}

/// The multi statistics of `multi` that have 1D support in `table` on every
/// clause range. A statistic failing this is annihilated by the shard's
/// complete 1D statistics (all tuples in its region carry an `α = 0`
/// factor), so dropping it leaves the fitted distribution exactly unchanged.
fn stats_with_support(
    table: &Table,
    multi: &[MultiDimStatistic],
) -> Result<Vec<MultiDimStatistic>> {
    let hists: Vec<Histogram1D> = table
        .schema()
        .attr_ids()
        .map(|a| Histogram1D::compute(table, a))
        .collect::<entropydb_storage::Result<_>>()
        .map_err(ModelError::Storage)?;
    Ok(multi
        .iter()
        .filter(|stat| {
            stat.clauses().iter().all(|c| {
                hists[c.attr.0].counts()[c.lo as usize..=c.hi as usize]
                    .iter()
                    .any(|&count| count > 0)
            })
        })
        .cloned()
        .collect())
}

/// Fits one shard model over `part` — the one way a shard of a multi-shard
/// [`ShardedSummary::build`] and every delta shard of a
/// [`LiveSummary`](crate::ingest::LiveSummary) are fitted, so a live
/// mixture stays bitwise-identical to a [`ShardedSummary::from_shards`] over
/// identically-partitioned models. Statistics without 1D support in the
/// shard are pruned (they constrain regions the shard's complete 1D
/// statistics already force to zero mass, so the fitted distribution is
/// *exactly* unchanged while the shard polynomial shrinks), and a statistic
/// that covers *every* shard row (`s_j = n_s`: degenerate for the
/// coordinate update, merely uninformative in this shard) is dropped and
/// the solve retried.
pub fn fit_segment(
    part: &Table,
    multi: &[MultiDimStatistic],
    solver: &SolverConfig,
) -> Result<MaxEntSummary> {
    let mut keep = stats_with_support(part, multi)?;
    loop {
        match MaxEntSummary::build(part, keep.clone(), solver) {
            Err(ModelError::DegenerateStatistic { stat }) => {
                keep.remove(stat);
            }
            other => return other,
        }
    }
}

/// A mixture answers a probe by asking each shard model the one borrowed
/// request and merging.
impl ShardProbe for ShardedSummary {
    type Scratch = ShardedScratch;

    fn n(&self) -> u64 {
        self.n
    }

    fn make_scratch(&self) -> ShardedScratch {
        self.shards.iter().map(ShardProbe::make_scratch).collect()
    }

    fn probe(&self, request: &ProbeRequest, scratch: &mut ShardedScratch) -> Result<ProbeResponse> {
        scatter::gather(&self.shards, request, scratch)
    }
}

impl SummaryBackend for ShardedSummary {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn domain_sizes(&self) -> &[usize] {
        self.shards[0].statistics().domain_sizes()
    }
}

impl QueryApi for ShardedSummary {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn execute(&self, request: &QueryRequest) -> Result<QueryResponse> {
        paths::execute(self, &self.scratch, request)
    }

    fn execute_batch(&self, requests: &[QueryRequest]) -> Vec<Result<QueryResponse>> {
        paths::execute_batch(self, &self.scratch, requests)
    }
}
