//! The public summary type: build once, query interactively.
//!
//! [`MaxEntSummary`] packages the fitted model — statistics, compressed
//! polynomial, solved variables — and is the one *interpreter* of the
//! probe IR: its [`ShardProbe::probe`] holds the only `match` over
//! [`ProbeRequest`] variants that reaches a kernel. Every answer is one
//! masked evaluation of `P` (Sec. 3.2/4.2: no polynomial rebuilding, no
//! per-point expansion), multiplied by the precomputed constant `n / P`.
//!
//! The query *paths* (predicate validation, batching, fan-out, sampling
//! orchestration) live in [`crate::engine`]; the summary executes
//! [`QueryRequest`]s through them against a private pool of
//! [`FactorizedScratch`] workspaces, so steady-state estimation allocates
//! only the query mask, and the typed convenience methods
//! (`estimate_count`, `top_k`, `sample_rows`, …) are the provided methods
//! of [`QueryApi`]. A batch returns bitwise the estimates of its
//! requests executed one at a time.

use crate::assignment::{Mask, VarAssignment};
use crate::engine::{paths, QueryApi, ScratchPool, SummaryBackend};
use crate::error::{ModelError, Result};
use crate::factorized::{FactorizedPolynomial, FactorizedScratch, FreeParts};
use crate::plan::{QueryRequest, QueryResponse};
use crate::polynomial::PolynomialSizeStats;
use crate::probe::{ProbeRequest, ProbeResponse};
use crate::query::{count_estimate, weighted_estimate, Estimate};
use crate::rng::{sample_weighted_scaled, SplitMix64};
use crate::scatter::{ShardProbe, Support};
use crate::solver::{solve, SolverConfig, SolverReport};
use crate::statistics::{MultiDimStatistic, Statistics};
use entropydb_storage::{AttrId, Schema, Table};
use std::sync::{Arc, OnceLock};

/// A queryable maximum-entropy summary of one relation.
///
/// A clone shares the fitted model (it is immutable) and starts its own
/// scratch pool, so cloning costs a pointer copy whatever the model's size.
#[derive(Debug, Clone)]
pub struct MaxEntSummary {
    fitted: Arc<Fitted>,
    scratch: ScratchPool<FactorizedScratch>,
}

/// Everything a summary is built into, never changed after construction.
#[derive(Debug)]
struct Fitted {
    schema: Schema,
    stats: Statistics,
    poly: FactorizedPolynomial,
    assignment: VarAssignment,
    p_full: f64,
    report: SolverReport,
    /// The codes the fitted distribution puts mass on, learned once per
    /// construction: a mixture does not ask this model a mask it
    /// annihilates (see [`Support`]).
    support: Support,
    /// The parts of the model no mask constrains, evaluated on first use
    /// ([`FreeParts`]).
    free: OnceLock<FreeParts>,
}

impl MaxEntSummary {
    /// Builds a summary of `table`: observes the complete 1D statistics plus
    /// the given multi-dimensional statistics, compresses the polynomial,
    /// and solves for the variables.
    pub fn build(
        table: &Table,
        multi: Vec<MultiDimStatistic>,
        config: &SolverConfig,
    ) -> Result<Self> {
        let stats = Statistics::observe(table, multi)?;
        Self::from_statistics(table.schema().clone(), stats, config)
    }

    /// Builds a summary directly from observed statistics (deserialization,
    /// or statistics computed elsewhere — e.g. noisy/private ones).
    pub fn from_statistics(
        schema: Schema,
        stats: Statistics,
        config: &SolverConfig,
    ) -> Result<Self> {
        if schema.domain_sizes() != stats.domain_sizes() {
            return Err(ModelError::ShapeMismatch);
        }
        let poly = FactorizedPolynomial::build(stats.domain_sizes(), stats.multi())?;
        let (assignment, report) = solve(&poly, &stats, config)?;
        let not_positive = "P not positive after solve";
        Self::assemble(schema, stats, poly, assignment, report, not_positive)
    }

    /// Re-assembles a summary from already-solved parts (used by the
    /// serializer; the polynomial is rebuilt deterministically).
    pub fn from_solved_parts(
        schema: Schema,
        stats: Statistics,
        assignment: VarAssignment,
        report: SolverReport,
    ) -> Result<Self> {
        let poly = FactorizedPolynomial::build(stats.domain_sizes(), stats.multi())?;
        poly.check_shape(&assignment)?;
        assignment.validate()?;
        let not_positive = "P not positive in loaded summary";
        Self::assemble(schema, stats, poly, assignment, report, not_positive)
    }

    /// The last step of every construction path: evaluates the normalizing
    /// constant (`not_positive` names the path in its error) and learns the
    /// model's [`Support`] by probing itself.
    fn assemble(
        schema: Schema,
        stats: Statistics,
        poly: FactorizedPolynomial,
        assignment: VarAssignment,
        report: SolverReport,
        not_positive: &'static str,
    ) -> Result<Self> {
        let p_full = poly.eval(&assignment);
        if !p_full.is_finite() || p_full <= 0.0 {
            return Err(ModelError::NumericalFailure(not_positive));
        }
        let arity = stats.domain_sizes().len();
        let mut summary = MaxEntSummary {
            fitted: Arc::new(Fitted {
                schema,
                stats,
                poly,
                assignment,
                p_full,
                report,
                support: Support::default(),
                free: OnceLock::new(),
            }),
            scratch: ScratchPool::default(),
        };
        let mut scratch = summary.make_scratch();
        let ask = |asks: &[ProbeRequest]| {
            asks.iter()
                .map(|r| summary.probe(r, &mut scratch))
                .collect()
        };
        let support = Support::learn::<ModelError>(arity, ask)?;
        Arc::get_mut(&mut summary.fitted)
            .expect("not yet shared")
            .support = support;
        Ok(summary)
    }

    /// The model's [`FreeParts`], evaluated by the first query that reads
    /// them and shared by every clone.
    fn free(&self) -> &FreeParts {
        let f = &*self.fitted;
        f.free.get_or_init(|| f.poly.free_parts(&f.assignment))
    }

    /// Relation cardinality `n`.
    pub fn n(&self) -> u64 {
        self.fitted.stats.n()
    }

    /// The summarized relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.fitted.schema
    }

    /// The statistics the model was fitted to.
    pub fn statistics(&self) -> &Statistics {
        &self.fitted.stats
    }

    /// The compressed, component-factorized polynomial.
    pub fn polynomial(&self) -> &FactorizedPolynomial {
        &self.fitted.poly
    }

    /// The solved variable assignment.
    pub fn assignment(&self) -> &VarAssignment {
        &self.fitted.assignment
    }

    /// How the solve went (sweeps, residual, time).
    pub fn solver_report(&self) -> &SolverReport {
        &self.fitted.report
    }

    /// `P` at the solved assignment (the query-time normalizing constant).
    pub fn p_full(&self) -> f64 {
        self.fitted.p_full
    }

    /// Polynomial size accounting (for the compression experiments).
    pub fn size_stats(&self) -> PolynomialSizeStats {
        self.fitted.poly.size_stats()
    }

    /// `P` under each mask of a batch, into `out`: one batched evaluation
    /// reading the model's [`FreeParts`], bitwise each mask's own.
    fn eval_masked(&self, masks: &[Mask], s: &mut FactorizedScratch, out: &mut [f64]) {
        let f = &*self.fitted;
        f.poly
            .eval_masked_many_cached(&f.assignment, self.free(), masks, s, out);
    }

    /// `(P, ∂P/∂α_{attr,v} for every v)` under `mask`.
    fn eval_derivatives<'s>(
        &self,
        mask: &Mask,
        attr: usize,
        s: &'s mut FactorizedScratch,
    ) -> (f64, &'s [f64]) {
        let f = &*self.fitted;
        f.poly
            .eval_with_attr_derivatives_cached(&f.assignment, self.free(), mask, attr, s)
    }

    /// `P[masked] / P`, clamped into `[0, 1]` (Sec. 4.2).
    fn masked_probability(&self, mask: &Mask, s: &mut FactorizedScratch) -> f64 {
        let mut raw = [0.0];
        self.eval_masked(std::slice::from_ref(mask), s, &mut raw);
        (raw[0] / self.fitted.p_full).clamp(0.0, 1.0)
    }

    /// [`MaxEntSummary::masked_probability`] of every mask of a batch, in
    /// order: one batched evaluation, bitwise each mask's own.
    fn masked_probabilities(&self, masks: &[Mask], s: &mut FactorizedScratch) -> Vec<f64> {
        let mut raw = vec![0.0; masks.len()];
        self.eval_masked(masks, s, &mut raw);
        for p in &mut raw {
            *p = (*p / self.fitted.p_full).clamp(0.0, 1.0);
        }
        raw
    }

    /// `SELECT SUM(values[code(attr)])` under the `base` COUNT mask:
    /// `values` holds the per-code numeric weight of `attr`, and the two
    /// weighted masks give the first and second moments — one two-mask
    /// batch, so a tree component answers both in one walk.
    fn masked_sum(
        &self,
        base: &Mask,
        attr: AttrId,
        values: &[f64],
        s: &mut FactorizedScratch,
    ) -> Result<Estimate> {
        let squares: Vec<f64> = values.iter().map(|v| v * v).collect();
        let moments = [
            base.clone().scale_attr(attr, values)?,
            base.clone().scale_attr(attr, &squares)?,
        ];
        let mut raw = [0.0; 2];
        self.eval_masked(&moments, s, &mut raw);
        let [mean_w, mean_w2] = raw.map(|p| p / self.fitted.p_full);
        Ok(weighted_estimate(self.n(), mean_w, mean_w2))
    }

    /// The batched group-by pass: one fused derivative evaluation yields
    /// every cell of the grouped attribute (`E[v] = n·α_v·P_{α_v}[masked] /
    /// P`, Eq. 8 under the query mask).
    fn masked_group_by(
        &self,
        mask: &Mask,
        attr: AttrId,
        s: &mut FactorizedScratch,
    ) -> Vec<Estimate> {
        let (_, derivs) = self.eval_derivatives(mask, attr.0, s);
        derivs
            .iter()
            .enumerate()
            .map(|(v, &d)| {
                let p = (self.fitted.assignment.one_dim[attr.0][v] * d / self.fitted.p_full)
                    .clamp(0.0, 1.0);
                count_estimate(self.n(), p)
            })
            .collect()
    }

    /// Draws synthetic tuple `index` of a `sample_rows(_, seed)` call from
    /// the fitted MaxEnt distribution (an extension: the summary doubles as
    /// a privacy-friendly synthetic data generator) by sequential
    /// conditionals: the distribution of attribute `i` given fixed earlier
    /// attributes is `P(A_i = v | fixed) ∝ α_{i,v} · ∂P[masked]/∂α_{i,v}` —
    /// one batched derivative pass per attribute. The tuple draws from its
    /// own `(seed, index)`-derived SplitMix64 stream.
    fn draw_tuple(&self, index: u64, seed: u64, s: &mut FactorizedScratch) -> Result<Vec<u32>> {
        let sizes = self.fitted.stats.domain_sizes();
        let mut rng = sample_stream(seed, index);
        let mut mask = Mask::identity(sizes.len());
        let mut row = vec![0u32; sizes.len()];
        for attr in 0..sizes.len() {
            let (_, derivs) = self.eval_derivatives(&mask, attr, s);
            let u = rng.next_f64();
            let v = sample_weighted_scaled(derivs, &self.fitted.assignment.one_dim[attr], u)
                .ok_or(ModelError::NumericalFailure("zero conditional mass"))?
                as u32;
            row[attr] = v;
            mask.restrict_in_place(AttrId(attr), v, sizes[attr]);
        }
        Ok(row)
    }
}

/// Weyl-sequence increment giving every sampled tuple a distinct SplitMix64
/// stream derived only from `(seed, tuple index)`.
const SAMPLE_STREAM_WEYL: u64 = 0xD1B54A32D192ED03;

/// The SplitMix64 stream of sampled tuple `index` under `seed` — never a
/// function of which shard or thread draws it.
fn sample_stream(seed: u64, index: u64) -> SplitMix64 {
    SplitMix64::new(seed.wrapping_add((index + 1).wrapping_mul(SAMPLE_STREAM_WEYL)))
}

/// A fitted model is the leaf of every probe path: it validates the
/// request's shapes (it is about to index by them) and runs the kernel the
/// variant names. A served node answers a decoded `b1` line here, and an
/// in-process shard of a mixture runs the same code on the gatherer's
/// scratch.
impl ShardProbe for MaxEntSummary {
    type Scratch = FactorizedScratch;

    fn n(&self) -> u64 {
        self.fitted.stats.n()
    }

    fn make_scratch(&self) -> FactorizedScratch {
        self.fitted.poly.make_scratch()
    }

    fn support(&self) -> Option<&Support> {
        Some(&self.fitted.support)
    }

    fn probe(&self, request: &ProbeRequest, s: &mut FactorizedScratch) -> Result<ProbeResponse> {
        request.validate(self.fitted.stats.domain_sizes())?;
        let count = |p: f64| count_estimate(self.n(), p);
        Ok(match request {
            ProbeRequest::Probability { mask } => {
                ProbeResponse::Probability(self.masked_probability(mask, s))
            }
            ProbeRequest::Count { mask } => {
                ProbeResponse::Estimate(count(self.masked_probability(mask, s)))
            }
            ProbeRequest::ProbabilityMany { masks } => {
                ProbeResponse::Probabilities(self.masked_probabilities(masks, s))
            }
            ProbeRequest::CountMany { masks } => {
                let ps = self.masked_probabilities(masks, s);
                ProbeResponse::Estimates(ps.into_iter().map(count).collect())
            }
            ProbeRequest::Sum { mask, attr, values } => {
                ProbeResponse::Estimate(self.masked_sum(mask, *attr, values, s)?)
            }
            ProbeRequest::GroupBy { mask, attr } => {
                ProbeResponse::Groups(self.masked_group_by(mask, *attr, s))
            }
            ProbeRequest::SampleAt { seed, indices, .. } => ProbeResponse::Rows {
                arity: self.fitted.stats.domain_sizes().len(),
                rows: indices
                    .iter()
                    .map(|&i| self.draw_tuple(i, *seed, s))
                    .collect::<Result<_>>()?,
            },
        })
    }
}

impl SummaryBackend for MaxEntSummary {
    fn schema(&self) -> &Schema {
        &self.fitted.schema
    }

    fn domain_sizes(&self) -> &[usize] {
        self.fitted.stats.domain_sizes()
    }
}

impl QueryApi for MaxEntSummary {
    fn schema(&self) -> &Schema {
        &self.fitted.schema
    }

    fn execute(&self, request: &QueryRequest) -> Result<QueryResponse> {
        paths::execute(self, &self.scratch, request)
    }

    fn execute_batch(&self, requests: &[QueryRequest]) -> Vec<Result<QueryResponse>> {
        paths::execute_batch(self, &self.scratch, requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaivePolynomial;
    use entropydb_storage::{exec, Attribute, Binner, Predicate, Schema};

    fn a(i: usize) -> AttrId {
        AttrId(i)
    }

    fn table() -> Table {
        let schema = Schema::new(vec![
            Attribute::categorical("x", 3).unwrap(),
            Attribute::categorical("y", 4).unwrap(),
        ]);
        let mut rows = Vec::new();
        // A skewed but full-support instance.
        for (x, y, copies) in [
            (0, 0, 5),
            (0, 1, 1),
            (0, 2, 2),
            (0, 3, 1),
            (1, 0, 3),
            (1, 1, 4),
            (1, 2, 1),
            (1, 3, 1),
            (2, 0, 1),
            (2, 1, 1),
            (2, 2, 6),
            (2, 3, 4),
        ] {
            for _ in 0..copies {
                rows.push(vec![x, y]);
            }
        }
        Table::from_rows(schema, rows).unwrap()
    }

    fn summary(multi: Vec<MultiDimStatistic>) -> MaxEntSummary {
        MaxEntSummary::build(&table(), multi, &SolverConfig::default()).unwrap()
    }

    #[test]
    fn no2d_estimates_match_independence() {
        let s = summary(vec![]);
        let n = s.n() as f64;
        // With only 1D stats the model is the product of marginals:
        // E[x=0 ∧ y=0] = n * (9/30) * (9/30).
        let pred = Predicate::new().eq(a(0), 0).eq(a(1), 0);
        let e = s.estimate_count(&pred).unwrap();
        assert!((e.expectation - n * (9.0 / 30.0) * (9.0 / 30.0)).abs() < 1e-6);
    }

    #[test]
    fn one_dim_queries_are_exact() {
        let s = summary(vec![]);
        for v in 0..3u32 {
            let truth = exec::count(&table(), &Predicate::new().eq(a(0), v)).unwrap() as f64;
            let est = s.estimate_count(&Predicate::new().eq(a(0), v)).unwrap();
            assert!((est.expectation - truth).abs() < 1e-6, "x={v}");
        }
    }

    #[test]
    fn twod_statistic_makes_covered_cell_exact() {
        let stat = MultiDimStatistic::cell2d(a(0), 0, a(1), 0).unwrap();
        let s = summary(vec![stat]);
        let pred = Predicate::new().eq(a(0), 0).eq(a(1), 0);
        let e = s.estimate_count(&pred).unwrap();
        assert!((e.expectation - 5.0).abs() < 1e-4, "{}", e.expectation);
    }

    #[test]
    fn estimates_match_naive_oracle() {
        let multi = vec![
            MultiDimStatistic::rect2d(a(0), (0, 1), a(1), (0, 1)).unwrap(),
            MultiDimStatistic::rect2d(a(0), (2, 2), a(1), (1, 2)).unwrap(),
        ];
        let s = summary(multi.clone());
        let naive = NaivePolynomial::build(&[3, 4], &multi).unwrap();
        for x in 0..3u32 {
            for y in 0..4u32 {
                let pred = Predicate::new().eq(a(0), x).eq(a(1), y);
                let fast = s.estimate_count(&pred).unwrap().expectation;
                let oracle = naive.expected_count(s.assignment(), &pred, s.n());
                assert!(
                    (fast - oracle).abs() < 1e-8 * oracle.max(1.0),
                    "({x},{y}): {fast} vs {oracle}"
                );
            }
        }
    }

    #[test]
    fn expectations_partition_n() {
        let s = summary(vec![MultiDimStatistic::cell2d(a(0), 0, a(1), 0).unwrap()]);
        // Σ_v E[x = v] = n (overcompleteness).
        let total: f64 = (0..3u32)
            .map(|v| {
                s.estimate_count(&Predicate::new().eq(a(0), v))
                    .unwrap()
                    .expectation
            })
            .sum();
        assert!((total - s.n() as f64).abs() < 1e-6);
    }

    #[test]
    fn group_by_matches_individual_estimates() {
        let s = summary(vec![MultiDimStatistic::cell2d(a(0), 0, a(1), 0).unwrap()]);
        let pred = Predicate::new().between(a(1), 1, 3);
        let groups = s.estimate_group_by(&pred, a(0)).unwrap();
        assert_eq!(groups.len(), 3);
        for v in 0..3u32 {
            let single = s
                .estimate_count(&Predicate::new().eq(a(0), v).between(a(1), 1, 3))
                .unwrap();
            assert!(
                (groups[v as usize].expectation - single.expectation).abs() < 1e-8,
                "v={v}"
            );
        }
    }

    #[test]
    fn count_batch_matches_individual_estimates() {
        let s = summary(vec![MultiDimStatistic::cell2d(a(0), 0, a(1), 0).unwrap()]);
        let preds: Vec<Predicate> = (0..3u32)
            .flat_map(|x| (0..4u32).map(move |y| Predicate::new().eq(a(0), x).eq(a(1), y)))
            .collect();
        let batch = s.estimate_count_batch(&preds).unwrap();
        assert_eq!(batch.len(), preds.len());
        for (pred, est) in preds.iter().zip(&batch) {
            let single = s.estimate_count(pred).unwrap();
            assert_eq!(est.expectation.to_bits(), single.expectation.to_bits());
        }
        // An invalid predicate anywhere in the batch surfaces as an error.
        let mut bad = preds;
        bad.push(Predicate::new().eq(a(9), 0));
        assert!(s.estimate_count_batch(&bad).is_err());
    }

    #[test]
    fn group_by2_matches_pointwise_counts() {
        let s = summary(vec![MultiDimStatistic::cell2d(a(0), 0, a(1), 0).unwrap()]);
        let pred = Predicate::new().between(a(1), 0, 2);
        let rows = s.estimate_group_by2(&pred, a(0), a(1)).unwrap();
        assert_eq!(rows.len(), 4); // indexed by attr_b = y
        for (y, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), 3); // attr_a = x cells
            for (x, est) in row.iter().enumerate() {
                let single = s
                    .estimate_count(
                        &Predicate::new()
                            .eq(a(0), x as u32)
                            .eq(a(1), y as u32)
                            .between(a(1), 0, 2),
                    )
                    .unwrap();
                assert!(
                    (est.expectation - single.expectation).abs() < 1e-9,
                    "({x},{y}): {} vs {}",
                    est.expectation,
                    single.expectation
                );
            }
        }
        // Same attribute twice is rejected.
        assert!(s.estimate_group_by2(&pred, a(0), a(0)).is_err());
    }

    #[test]
    fn top_k_multi_matches_per_attribute_top_k() {
        let s = summary(vec![]);
        let attrs = [a(0), a(1)];
        let multi = s.top_k_multi(&Predicate::all(), &attrs, 2).unwrap();
        assert_eq!(multi.len(), 2);
        for (attr, got) in attrs.iter().zip(&multi) {
            let single = s.top_k(&Predicate::all(), *attr, 2).unwrap();
            assert_eq!(got.len(), single.len());
            for ((v1, e1), (v2, e2)) in got.iter().zip(&single) {
                assert_eq!(v1, v2);
                assert_eq!(e1.expectation.to_bits(), e2.expectation.to_bits());
            }
        }
    }

    #[test]
    fn top_k_orders_by_expectation() {
        let s = summary(vec![]);
        let top = s.top_k(&Predicate::all(), a(1), 2).unwrap();
        assert_eq!(top.len(), 2);
        assert!(top[0].1.expectation >= top[1].1.expectation);
        // y marginals are (9, 6, 9, 6): top-2 are values 0 and 2.
        let top_vals: Vec<u32> = top.iter().map(|(v, _)| *v).collect();
        assert!(top_vals.contains(&0) && top_vals.contains(&2));
    }

    #[test]
    fn sum_and_avg_on_binned_attribute() {
        let schema = Schema::new(vec![
            Attribute::categorical("g", 2).unwrap(),
            Attribute::binned("val", Binner::new(0.0, 100.0, 4).unwrap()),
        ]);
        let mut t = Table::new(schema);
        // Group 0: values in buckets 0 and 1; group 1: buckets 2, 3.
        for (g, b, c) in [(0u32, 0u32, 4), (0, 1, 2), (1, 2, 3), (1, 3, 1)] {
            for _ in 0..c {
                t.push_row(&[g, b]).unwrap();
            }
        }
        let s = MaxEntSummary::build(&t, vec![], &SolverConfig::default()).unwrap();
        // Bucket midpoints: 12.5, 37.5, 62.5, 87.5. 1D model is exact on
        // single-attribute queries, so SUM over everything is exact.
        let total = s.estimate_sum(&Predicate::all(), a(1)).unwrap();
        let expected = 4.0 * 12.5 + 2.0 * 37.5 + 3.0 * 62.5 + 1.0 * 87.5;
        assert!((total.expectation - expected).abs() < 1e-6);
        let avg = s.estimate_avg(&Predicate::all(), a(1)).unwrap().unwrap();
        assert!((avg - expected / 10.0).abs() < 1e-6);
        // AVG of an impossible predicate is None.
        let none = s
            .estimate_avg(&Predicate::new().eq(a(0), 0).eq(a(0), 1), a(1))
            .unwrap();
        assert!(none.is_none());
    }

    #[test]
    fn variance_is_binomial() {
        let s = summary(vec![]);
        let pred = Predicate::new().eq(a(0), 0);
        let est = s.estimate_count(&pred).unwrap();
        let p = 9.0 / 30.0;
        assert!((est.variance - 30.0 * p * (1.0 - p)).abs() < 1e-6);
        let (lo, hi) = est.ci95();
        assert!(lo < est.expectation && est.expectation < hi);
    }

    #[test]
    fn invalid_predicates_rejected() {
        let s = summary(vec![]);
        assert!(s.estimate_count(&Predicate::new().eq(a(0), 99)).is_err());
        assert!(s.estimate_count(&Predicate::new().eq(a(9), 0)).is_err());
        assert!(s.estimate_group_by(&Predicate::all(), a(9)).is_err());
    }

    #[test]
    fn probability_of_everything_is_one() {
        let s = summary(vec![MultiDimStatistic::cell2d(a(0), 1, a(1), 1).unwrap()]);
        assert!((s.probability(&Predicate::all()).unwrap() - 1.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod sampling_tests {
    use super::*;
    use crate::naive::NaivePolynomial;
    use entropydb_storage::{Attribute, Predicate, Schema};

    fn a(i: usize) -> AttrId {
        AttrId(i)
    }

    fn summary() -> MaxEntSummary {
        let schema = Schema::new(vec![
            Attribute::categorical("x", 3).unwrap(),
            Attribute::categorical("y", 2).unwrap(),
        ]);
        let mut t = Table::new(schema);
        for (x, y, c) in [
            (0u32, 0u32, 6),
            (0, 1, 2),
            (1, 0, 1),
            (1, 1, 5),
            (2, 0, 4),
            (2, 1, 2),
        ] {
            for _ in 0..c {
                t.push_row(&[x, y]).unwrap();
            }
        }
        let stat = MultiDimStatistic::cell2d(a(0), 0, a(1), 0).unwrap();
        MaxEntSummary::build(&t, vec![stat], &SolverConfig::default()).unwrap()
    }

    #[test]
    fn sampled_rows_are_schema_valid_and_deterministic() {
        let s = summary();
        let rows = s.sample_rows(500, 11).unwrap();
        assert_eq!(rows.num_rows(), 500);
        for i in 0..rows.num_rows() {
            let row = rows.row(i).unwrap();
            assert!(row[0] < 3 && row[1] < 2);
        }
        let rows2 = s.sample_rows(500, 11).unwrap();
        assert_eq!(rows.row(3), rows2.row(3));
    }

    #[test]
    fn sampled_frequencies_match_model_probabilities() {
        let s = summary();
        let naive =
            NaivePolynomial::build(s.statistics().domain_sizes(), s.statistics().multi()).unwrap();
        let probs = naive.tuple_probabilities(s.assignment());
        let k = 40_000;
        let rows = s.sample_rows(k, 5).unwrap();
        let groups = entropydb_storage::exec::GroupCounts::compute(&rows, &[a(0), a(1)]).unwrap();
        for (idx, &p) in probs.iter().enumerate() {
            let (x, y) = ((idx / 2) as u32, (idx % 2) as u32);
            let freq = groups.get(&[x, y]) as f64 / k as f64;
            assert!(
                (freq - p).abs() < 0.02,
                "tuple ({x},{y}): freq {freq} vs model {p}"
            );
        }
    }

    /// Monte-Carlo validation of the Binomial variance formula: the spread
    /// of counts across many model-sampled instances matches n·p(1−p).
    #[test]
    fn monte_carlo_variance_matches_formula() {
        let s = summary();
        let pred = Predicate::new().eq(a(0), 0).eq(a(1), 0);
        let est = s.estimate_count(&pred).unwrap();
        let n = s.n() as usize;
        let runs = 800;
        let mut counts = Vec::with_capacity(runs);
        for seed in 0..runs as u64 {
            let instance = s.sample_rows(n, 1000 + seed).unwrap();
            counts.push(entropydb_storage::exec::count(&instance, &pred).unwrap() as f64);
        }
        let mean: f64 = counts.iter().sum::<f64>() / runs as f64;
        let var: f64 =
            counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / (runs - 1) as f64;
        assert!(
            (mean - est.expectation).abs() < 0.3,
            "mean {mean} vs {}",
            est.expectation
        );
        assert!(
            (var - est.variance).abs() < 0.5 * est.variance.max(0.5),
            "var {var} vs {}",
            est.variance
        );
    }
}
