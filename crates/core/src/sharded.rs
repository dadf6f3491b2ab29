//! Horizontally sharded summaries: one MaxEnt model per row partition.
//!
//! Summary build time is dominated by solving one monolithic max-ent
//! program. [`ShardedSummary`] sidesteps that: the relation is split into
//! horizontal shards ([`Table::partition`]), one [`MaxEntSummary`] is fitted
//! per shard (in parallel on the persistent worker pool), and queries are
//! answered by fanning out over the shard models and merging:
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
//!   output is deterministic and never depends on thread fan-out.
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

use crate::assignment::Mask;
use crate::engine::{ir, ScratchPool, SummaryBackend};
use crate::error::{ModelError, Result};
use crate::factorized::FactorizedScratch;
use crate::model::MaxEntSummary;
use crate::par;
use crate::probe::{ProbeRequest, ProbeResponse};
use crate::query::Estimate;
use crate::scatter;
use crate::scatter::{GatherCache, ShardCacheId};
use crate::solver::SolverConfig;
use crate::statistics::MultiDimStatistic;
use entropydb_storage::{AttrId, Histogram1D, Partitioning, Predicate, Schema, Table};
use std::sync::Arc;

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
    /// Optional gather-side answer cache (see [`ShardedSummary::with_probe_cache`]).
    cache: Option<Arc<GatherCache>>,
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
            cache: None,
        })
    }

    /// Puts a gather-side answer cache (bounded to `entries` responses)
    /// in front of the shard models: repeated probes are answered from
    /// the cache, concurrent identical probes coalesce, and fully-cached
    /// queries skip the fan-out pool entirely. Answers stay
    /// bitwise-identical to the uncached paths — cached entries are the
    /// shards' own responses and [`scatter::gather`] merges both.
    pub fn with_probe_cache(mut self, entries: usize) -> Self {
        let ids = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                ShardCacheId::new(crate::scatter::shard_identity_token(i, s.n(), &self.schema))
            })
            .collect();
        self.cache = Some(Arc::new(GatherCache::new(entries, ids)));
        self
    }

    /// Like [`ShardedSummary::with_probe_cache`], but every shard's cache
    /// identity carries the shared `generation` counter: bumping it (as
    /// [`LiveSummary`](crate::ingest::LiveSummary) does on every delta
    /// fold) instantly orphans all cached entries, so a mutable mixture
    /// can reuse the gather cache without ever serving stale answers.
    pub fn with_probe_cache_generation(
        mut self,
        entries: usize,
        generation: Arc<std::sync::atomic::AtomicU64>,
    ) -> Self {
        let ids = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                ShardCacheId::with_generation(
                    crate::scatter::shard_identity_token(i, s.n(), &self.schema),
                    Arc::clone(&generation),
                )
            })
            .collect();
        self.cache = Some(Arc::new(GatherCache::new(entries, ids)));
        self
    }

    /// The gather-side cache, when one is enabled.
    pub fn probe_cache(&self) -> Option<&Arc<GatherCache>> {
        self.cache.as_ref()
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

    /// Every mask-level primitive is this: ask each shard model the one
    /// request (through the gather cache, when enabled) and merge.
    fn gather(&self, request: ProbeRequest, scratch: &mut ShardedScratch) -> Result<ProbeResponse> {
        scatter::gather(&self.shards, self.cache.as_deref(), &request, scratch)
    }

    // ---- Inherent query API (mirrors `MaxEntSummary`; same shared paths) ----

    /// The mixture probability that a single tuple draw satisfies `pred`.
    pub fn probability(&self, pred: &Predicate) -> Result<f64> {
        ir::probability(self, &self.scratch, pred)
    }

    /// Estimates `SELECT COUNT(*) WHERE pred`; expectations and variances
    /// are summed across shards.
    pub fn estimate_count(&self, pred: &Predicate) -> Result<Estimate> {
        ir::estimate_count(self, &self.scratch, pred)
    }

    /// Estimates one COUNT per predicate, fanning the batch out across
    /// threads.
    pub fn estimate_count_batch(&self, preds: &[Predicate]) -> Result<Vec<Estimate>> {
        ir::estimate_count_batch(self, &self.scratch, preds)
    }

    /// Estimates `SELECT SUM(value(attr)) WHERE pred` (shard sums add).
    pub fn estimate_sum(&self, pred: &Predicate, attr: AttrId) -> Result<Estimate> {
        ir::estimate_sum(self, &self.scratch, pred, attr)
    }

    /// Estimates `SELECT AVG(value(attr)) WHERE pred` as merged SUM over
    /// merged COUNT.
    pub fn estimate_avg(&self, pred: &Predicate, attr: AttrId) -> Result<Option<f64>> {
        ir::estimate_avg(self, &self.scratch, pred, attr)
    }

    /// Estimates the one-attribute group-by; cells merge by value.
    pub fn estimate_group_by(&self, pred: &Predicate, attr: AttrId) -> Result<Vec<Estimate>> {
        ir::estimate_group_by(self, &self.scratch, pred, attr)
    }

    /// Estimates the two-attribute group-by.
    pub fn estimate_group_by2(
        &self,
        pred: &Predicate,
        attr_a: AttrId,
        attr_b: AttrId,
    ) -> Result<Vec<Vec<Estimate>>> {
        ir::estimate_group_by2(self, &self.scratch, pred, attr_a, attr_b)
    }

    /// Top-k: the merged group-by, ranked once.
    pub fn top_k(&self, pred: &Predicate, attr: AttrId, k: usize) -> Result<Vec<(u32, Estimate)>> {
        ir::top_k(self, &self.scratch, pred, attr, k)
    }

    /// Top-k per attribute for several candidate attributes at once.
    pub fn top_k_multi(
        &self,
        pred: &Predicate,
        attrs: &[AttrId],
        k: usize,
    ) -> Result<Vec<Vec<(u32, Estimate)>>> {
        ir::top_k_multi(self, &self.scratch, pred, attrs, k)
    }

    /// Draws `k` synthetic tuples, stratified across shards proportionally
    /// to shard cardinality; deterministic in `seed`.
    pub fn sample_rows(&self, k: usize, seed: u64) -> Result<Table> {
        ir::sample_rows(self, &self.scratch, k, seed)
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

impl SummaryBackend for ShardedSummary {
    type Scratch = ShardedScratch;
    /// Shard assignment per global tuple index (contiguous by shard, sized
    /// by largest-remainder apportionment of the shard cardinalities).
    type SamplePlan = Vec<u32>;

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn n(&self) -> u64 {
        self.n
    }

    fn domain_sizes(&self) -> &[usize] {
        self.shards[0].statistics().domain_sizes()
    }

    fn make_scratch(&self) -> ShardedScratch {
        self.shards
            .iter()
            .map(SummaryBackend::make_scratch)
            .collect()
    }

    fn probability_under_mask(&self, mask: &Mask, scratch: &mut ShardedScratch) -> Result<f64> {
        let request = ProbeRequest::Probability { mask: mask.clone() };
        self.gather(request, scratch)?.try_into()
    }

    fn count_under_mask(&self, mask: &Mask, scratch: &mut ShardedScratch) -> Result<Estimate> {
        let request = ProbeRequest::Count { mask: mask.clone() };
        self.gather(request, scratch)?.try_into()
    }

    fn probabilities_under_masks(
        &self,
        masks: &[Mask],
        scratch: &mut ShardedScratch,
    ) -> Result<Vec<f64>> {
        let masks = masks.to_vec();
        self.gather(ProbeRequest::ProbabilityMany { masks }, scratch)?
            .try_into()
    }

    fn counts_under_masks(
        &self,
        masks: &[Mask],
        scratch: &mut ShardedScratch,
    ) -> Result<Vec<Estimate>> {
        let masks = masks.to_vec();
        self.gather(ProbeRequest::CountMany { masks }, scratch)?
            .try_into()
    }

    fn sum_under_mask(
        &self,
        base: &Mask,
        attr: AttrId,
        values: &[f64],
        scratch: &mut ShardedScratch,
    ) -> Result<Estimate> {
        let (mask, values) = (base.clone(), values.to_vec());
        self.gather(ProbeRequest::Sum { mask, attr, values }, scratch)?
            .try_into()
    }

    fn group_by_under_mask(
        &self,
        mask: &Mask,
        attr: AttrId,
        scratch: &mut ShardedScratch,
    ) -> Result<Vec<Estimate>> {
        let mask = mask.clone();
        self.gather(ProbeRequest::GroupBy { mask, attr }, scratch)?
            .try_into()
    }

    fn plan_samples(&self, k: usize, _seed: u64) -> Result<Vec<u32>> {
        let ns: Vec<u64> = self.shards.iter().map(MaxEntSummary::n).collect();
        Ok(scatter::sample_assignment(&ns, k))
    }

    /// Tuple `index` draws from its stratum's shard model, using the same
    /// `(seed, global index)`-derived SplitMix64 stream every backend uses —
    /// so a 1-shard summary samples bit-identical rows to the monolithic
    /// model, and adding shards never perturbs another tuple's stream.
    fn sample_tuple(
        &self,
        plan: &Vec<u32>,
        index: usize,
        seed: u64,
        row: &mut [u32],
        scratch: &mut ShardedScratch,
    ) -> Result<()> {
        let shard = plan[index] as usize;
        self.shards[shard].sample_tuple(&(), index, seed, row, &mut scratch[shard])
    }

    fn cache_stats(&self) -> Option<crate::metrics::CacheStatsSnapshot> {
        self.cache.as_ref().map(|cache| cache.snapshot())
    }
}
