//! Solving the MaxEnt model (paper Sec. 3.3, Algorithm 1).
//!
//! Fitting the model means finding variable values such that
//! `E[⟨c_j, I⟩] = s_j` for every statistic — equivalently, maximizing the
//! concave dual `Ψ = Σ_j s_j ln α_j − n ln P` (Eq. 11). The paper's solver is
//! a coordinate form of mirror descent: each step solves `∂Ψ/∂α_j = 0`
//! exactly while holding the other variables fixed, giving the closed-form
//! update (Eq. 12)
//!
//! ```text
//! α_j ← s_j (P − α_j P_{α_j}) / ((n − s_j) P_{α_j})
//! ```
//!
//! which is well-defined because `P` is linear in every variable.
//!
//! ### Two sweeps, one per kernel
//!
//! Every component is fitted by the sweep of the one kernel it holds — the
//! kernel [`crate::factorized`] built to answer the component's queries, so
//! the choice is structural, fixed when the polynomial is built, and has no
//! switch. Both feed the *same* update loop in the same order (attributes
//! in local order, then `δ` in statistic order), so a component follows one
//! trajectory up to float rounding whichever sweep runs it.
//!
//! * **Tree sweep** (`crate::tree`, components whose pair graph is a tree
//!   of disjoint rectangles): `O(Σ|dom| + #rectangles)` per pass. Rooting
//!   the message pass at attribute `i` yields `P` and every `P_{α_j},
//!   j ∈ J_i` at once. For the `δ` block, the *cavity* of an edge `(X, Y)`
//!   — the beliefs `A(x)`, `B(y)` of its two sides with the edge's own
//!   potential left out — gives `P_{δ_j} = A[x-range of j] · B[y-range of
//!   j]` in O(1) per rectangle from two prefix sums; same-pair rectangles
//!   are disjoint, so those values stay exact while the edge's own `δ`
//!   move, and one cavity serves each run of consecutive same-pair
//!   statistics. The flights Ent1&2&3 star costs 4 rooted passes + 3
//!   cavities of ≈ 1.3 k cells per sweep; the 150 k-term closure such a
//!   sweep would otherwise walk is never built.
//! * **Closure sweep** ([`CompressedPolynomial`], everything else: a cycle
//!   of pairs, a 3-D statistic, a closure too small for a pass to beat):
//!   the section below.
//!
//! ### Attribute-batched sweeps
//!
//! Updating one variable then re-evaluating `P` from scratch (the paper's
//! prototype spent a day here) is wasteful: for all 1D variables of one
//! attribute `i`, the derivatives `P_{α_j}, j ∈ J_i` contain no attribute-`i`
//! variable at all (overcompleteness, Eq. 7), so they stay valid across the
//! whole per-attribute sweep. One fused pass
//! ([`CompressedPolynomial::eval_with_attr_derivatives`]) yields every
//! `P_{α_j}` of the attribute; `P = Σ_j α_j P_{α_j}` is then maintained in
//! O(1) per update. The same idea handles multi-dimensional variables with
//! cached interval products. A full closure sweep is `O(m · (|terms| + Σ
//! N_i) + Σ_j |terms ∋ δ_j|)` instead of `O(k · |terms| · m)`: every pass
//! fills the prefix slab from the current variables first, which is
//! `O(Σ N_i)` against the pass's `O(|terms|)` walk. The tree sweep likewise
//! recomputes its messages from the current variables on every pass.
//!
//! ### Component-local solving
//!
//! Because `P = ∏_c P_c` factorizes over independent components and every
//! cross-component factor cancels from both the closed-form update and the
//! residual (`n α P_α / P = n α P_{α,c} / P_c`), each component is a fully
//! independent optimization problem. The solver therefore runs one
//! coordinate-descent loop *per component*, against that component's
//! kernel and its own scratch — no cross-component re-evaluation at all.
//! Components are solved one after another on the calling thread, so
//! results are bitwise independent of the thread count. The dual objective
//! also decomposes (`Ψ = Σ_c Ψ_c`), so tracked trajectories are summed
//! across components.
//!
//! ### When a solve stops
//!
//! A component stops after the first sweep in which every one of its 1-D
//! and multi statistics is fitted to within `tolerance` standard errors of
//! its count, `|s_j − E[c_j]| < tolerance · √max(s_j, 1)` (each checked as
//! the sweep visits it, before its own update), or at `max_sweeps`. The
//! unit is the count's own noise: `s_j` rows out of `n` carry a variance of
//! `s_j (1 − s_j/n) ≤ s_j`, the variance an estimate of that count reports,
//! so at the default `0.1` the squared fit error is at most 1 % of it. One
//! target relative to `n` cannot serve counts that span five orders of
//! magnitude: the former `1e-6 · n` asked a 64-row delta and a 100 000-row
//! model for fits finer than either's data, neither reached it, and every
//! fit ran to the cap. `max(s_j, 1)` keeps an empty or one-row count from
//! demanding an exact fit. [`SolverReport::max_residual`] still reports
//! `max_j |s_j − E[c_j]| / n`.
//!
//! Sweeps to stop at the default on the flights Ent1&2&3 statistics
//! (100 000 rows, 900 rectangles on a star around `distance`):
//!
//! | fit | rows | sweeps |
//! |---|---:|---:|
//! | delta: the first rows with `distance` in `20..23` | 64 / 256 / 768 / 1 536 / 3 072 | 11 / 4 / 5 / 36 / 123 |
//! | range shards 0–3 on `distance` | 69 059 / 26 842 / 3 935 / 164 | 400 (cap) / 288 / 126 / 41 |
//! | monolithic | 100 000 | 400 (cap) |
//!
//! The monolithic fit's worst statistic stays between 0.13 and 0.14
//! standard errors (a tolerance of 0.14 stops it at 376 sweeps), and shard
//! 0's between 0.1 and 0.12, so both run their 400 sweeps as before and
//! their models are unchanged. A live fold is a cold re-solve of its whole
//! delta: on a 2-vCPU host one fit of 64 / 768 / 3 072 rows took 2.3 /
//! 2.8 / 2.8 ms at the cap and takes 0.15 / 0.18 / 1.0 ms now.

use crate::assignment::VarAssignment;
use crate::error::{ModelError, Result};
use crate::factorized::{Component, FactorizedPolynomial, Kernel};
use crate::polynomial::{CompressedPolynomial, EvalScratch};
use crate::statistics::Statistics;
use crate::tree::{TreeKernel, TreeScratch};
use std::fmt;
use std::time::Instant;

/// Configuration for the model solver.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Maximum number of full sweeps over all variables.
    pub max_sweeps: usize,
    /// Fit error, in standard errors of each count, at which a component
    /// stops: it has converged once every 1-D and multi statistic of it
    /// satisfies `|s_j − E[c_j]| < tolerance · √max(s_j, 1)` within one
    /// sweep (module docs, "When a solve stops"). `0.0` runs every sweep.
    pub tolerance: f64,
    /// Record the dual objective `Ψ` after every sweep (costs one extra
    /// evaluation per sweep).
    pub track_dual: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        // The paper stops at an iteration budget or an error target. The
        // target is a tenth of each count's standard error, so the squared
        // fit error is 1 % of the variance an estimate of that count
        // reports. Sweeps are cheap (batched, component-local,
        // allocation-free), so the budget is large: statistics observed
        // from real data often have empty cells, which push the dual
        // optimum to the boundary where residuals decay only slowly.
        SolverConfig {
            max_sweeps: 400,
            tolerance: 0.1,
            track_dual: false,
        }
    }
}

/// Outcome of a solver run.
#[derive(Debug, Clone)]
pub struct SolverReport {
    /// Sweeps actually executed (the maximum across components; each
    /// independent component stops as soon as it converges).
    pub sweeps: usize,
    /// Final `max_j |s_j − E[c_j]| / n`, the largest error of the last
    /// sweep relative to the row count (not the unit of
    /// [`SolverConfig::tolerance`]).
    pub max_residual: f64,
    /// Whether every component stopped because each of its statistics
    /// was fitted to within `tolerance · √max(s_j, 1)` in one sweep, rather
    /// than at the `max_sweeps` cap.
    pub converged: bool,
    /// Updates skipped because the closed form was not applicable
    /// (zero/negative derivative, typically caused by interacting
    /// `(δ−1) < 0` corrections). Rare; they self-heal on later sweeps.
    pub skipped_updates: usize,
    /// Dual objective `Ψ` after each sweep (empty unless tracked).
    pub dual_trajectory: Vec<f64>,
    /// Wall-clock solve time in seconds.
    pub seconds: f64,
}

impl fmt::Display for SolverReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} after {} sweeps: residual {:.3e}, {} skipped updates, {:.3}s",
            if self.converged {
                "converged"
            } else {
                "did not converge"
            },
            self.sweeps,
            self.max_residual,
            self.skipped_updates,
            self.seconds
        )
    }
}

/// One component's solved state plus its convergence metadata.
struct CompSolution {
    /// Local per-attribute 1D variables (local attribute order).
    one_dim: Vec<Vec<f64>>,
    /// Local multi variables.
    multi: Vec<f64>,
    sweeps: usize,
    max_residual: f64,
    converged: bool,
    skipped_updates: usize,
    /// Component dual `Ψ_c` after each sweep (empty unless tracked).
    dual: Vec<f64>,
}

/// What one sweep asks of a component's evaluator. The two implementations
/// are the two kernels [`crate::factorized`] chooses between per component;
/// [`solve_component`] is the one coordinate update loop over either.
/// `one_dim` / `multi` are always the component's current local variables.
trait SweepKernel {
    /// `(P, ∂P/∂α_{li,v} for every v)` at the current variables.
    fn attr_derivatives(&mut self, li: usize, one_dim: &[Vec<f64>], multi: &[f64])
        -> (f64, &[f64]);
    /// Opens the `δ` block (every `α` is fixed until the next sweep):
    /// returns `P`.
    fn begin_deltas(&mut self, one_dim: &[Vec<f64>], multi: &[f64]) -> f64;
    /// `∂P/∂δ_lj` at the current `δ` values; called for `lj = 0, 1, …` in
    /// order within a `δ` block.
    fn delta_derivative(&mut self, lj: usize, one_dim: &[Vec<f64>], multi: &[f64]) -> f64;
    /// `P` at the current variables (dual tracking).
    fn value(&mut self, one_dim: &[Vec<f64>], multi: &[f64]) -> f64;
}

/// The closure sweep: one fused term walk per attribute, cached interval
/// products for the `δ` block (module docs, "Attribute-batched sweeps").
/// Every pass fills the slab from the current variables first.
struct ClosureSweep<'p> {
    poly: &'p CompressedPolynomial,
    scratch: EvalScratch,
}

impl<'p> ClosureSweep<'p> {
    fn new(poly: &'p CompressedPolynomial) -> Self {
        ClosureSweep {
            poly,
            scratch: poly.make_scratch(),
        }
    }

    /// Fills the slab from `one_dim`.
    fn refresh(&mut self, one_dim: &[Vec<f64>]) {
        self.poly
            .fill_scratch_with(&mut self.scratch, |i| (one_dim[i].as_slice(), None));
    }
}

impl SweepKernel for ClosureSweep<'_> {
    fn attr_derivatives(
        &mut self,
        li: usize,
        one_dim: &[Vec<f64>],
        multi: &[f64],
    ) -> (f64, &[f64]) {
        self.refresh(one_dim);
        self.poly
            .derivs_prefilled(multi, &one_dim[li], None, li, &mut self.scratch)
    }

    fn begin_deltas(&mut self, one_dim: &[Vec<f64>], multi: &[f64]) -> f64 {
        // Cached interval products stay valid while only δ values change.
        self.refresh(one_dim);
        self.poly.interval_products_prefilled(&mut self.scratch);
        self.poly
            .eval_from_interval_products(self.scratch.iprods(), multi)
    }

    fn delta_derivative(&mut self, lj: usize, _: &[Vec<f64>], multi: &[f64]) -> f64 {
        self.poly.delta_derivative(self.scratch.iprods(), multi, lj)
    }

    fn value(&mut self, one_dim: &[Vec<f64>], multi: &[f64]) -> f64 {
        self.refresh(one_dim);
        self.poly.eval_prefilled(multi, &mut self.scratch)
    }
}

/// The tree sweep: message passing on the component's query kernel (module
/// docs, "Two sweeps"). Every call recomputes from the current variables,
/// so there is no slab to maintain.
struct TreeSweep<'t> {
    tree: &'t TreeKernel,
    scratch: TreeScratch,
    /// The edge whose cavity the scratch holds, within a `δ` block.
    cavity_edge: usize,
}

impl<'t> TreeSweep<'t> {
    fn new(tree: &'t TreeKernel) -> Self {
        TreeSweep {
            tree,
            scratch: tree.make_scratch(),
            cavity_edge: 0,
        }
    }

    /// Recomputes the cavity of `edge` at the current variables; returns `P`.
    fn cavity(&mut self, edge: usize, one_dim: &[Vec<f64>], multi: &[f64]) -> f64 {
        self.cavity_edge = edge;
        let get = |i: usize| (one_dim[i].as_slice(), [None]);
        self.tree.cavity(edge, multi, get, &mut self.scratch)
    }
}

impl SweepKernel for TreeSweep<'_> {
    fn attr_derivatives(
        &mut self,
        li: usize,
        one_dim: &[Vec<f64>],
        multi: &[f64],
    ) -> (f64, &[f64]) {
        let get = |i: usize| (one_dim[i].as_slice(), [None]);
        let [p] = self.tree.pass(li, multi, get, &mut self.scratch);
        (p, self.scratch.derivs_slice(one_dim[li].len()))
    }

    fn begin_deltas(&mut self, one_dim: &[Vec<f64>], multi: &[f64]) -> f64 {
        self.cavity(self.tree.edge_of(0), one_dim, multi)
    }

    fn delta_derivative(&mut self, lj: usize, one_dim: &[Vec<f64>], multi: &[f64]) -> f64 {
        // A cavity serves the whole run of consecutive same-pair
        // statistics; another pair's δ moved since it was computed only
        // when the edge changes.
        let edge = self.tree.edge_of(lj);
        if edge != self.cavity_edge {
            self.cavity(edge, one_dim, multi);
        }
        self.tree.cavity_delta_derivative(lj, &self.scratch)
    }

    fn value(&mut self, one_dim: &[Vec<f64>], multi: &[f64]) -> f64 {
        let get = |i: usize| (one_dim[i].as_slice(), [None]);
        self.tree.pass(0, multi, get, &mut self.scratch)[0]
    }
}

/// The Eq. 12 step for a variable `x` with statistic `s`, given `P = p` and
/// `∂P/∂x = pd`: `x ← s (P − x P_x) / ((n − s) P_x)`, or `0` for a ZERO
/// statistic (Sec. 4.3). Returns the new `(x, P)`; `None` when the closed
/// form does not apply (counted in `skipped_updates`).
#[inline]
fn coordinate_step(s: f64, n: f64, x: f64, pd: f64, p: f64) -> Option<(f64, f64)> {
    let excl = p - x * pd;
    if s == 0.0 {
        return Some((0.0, excl));
    }
    if pd <= 0.0 || !pd.is_finite() || excl <= 0.0 {
        return None;
    }
    let new_x = s * excl / ((n - s) * pd);
    Some((new_x, excl + new_x * pd))
}

/// Coordinate mirror descent on a single component (see module docs): the
/// closed-form updates and residuals of the global problem restricted to
/// the component, with every cross-component factor cancelled out.
fn solve_component(
    kernel: &mut dyn SweepKernel,
    attrs: &[usize],
    multis: &[usize],
    stats: &Statistics,
    config: &SolverConfig,
) -> Result<CompSolution> {
    let n = stats.n() as f64;
    let mut one_dim: Vec<Vec<f64>> = attrs
        .iter()
        .map(|&g| stats.one_dim()[g].iter().map(|&c| c as f64 / n).collect())
        .collect();
    let mut multi = vec![1.0; multis.len()];
    let mut sol = CompSolution {
        one_dim: Vec::new(),
        multi: Vec::new(),
        sweeps: 0,
        max_residual: f64::INFINITY,
        converged: false,
        skipped_updates: 0,
        dual: Vec::new(),
    };
    let positive = |p: f64| {
        if p.is_finite() && p > 0.0 {
            Ok(())
        } else {
            Err(ModelError::NumericalFailure("P not positive during solve"))
        }
    };

    // Statistic `j` is fitted when `(s_j − E_j)² < tolerance² · max(s_j, 1)`
    // (module docs, "When a solve stops"): no square root or division per
    // variable.
    let tol2 = config.tolerance * config.tolerance;
    let fitted = |s: f64, e: f64| (s - e) * (s - e) < tol2 * s.max(1.0);

    for sweep in 0..config.max_sweeps {
        let mut max_residual = 0.0f64;
        let mut all_fitted = true;

        // --- 1D variables, one batched pass per attribute: the derivatives
        // contain no variable of the attribute, so they stay valid while
        // its values are updated and P is tracked in O(1). ---
        for (li, &g) in attrs.iter().enumerate() {
            let (mut p, derivs) = kernel.attr_derivatives(li, &one_dim, &multi);
            positive(p)?;
            let counts = &stats.one_dim()[g];
            let mut new_alphas = std::mem::take(&mut one_dim[li]);
            for (v, &pd) in derivs.iter().enumerate() {
                let s = counts[v] as f64;
                let alpha = new_alphas[v];
                let current = n * alpha * pd / p;
                max_residual = max_residual.max((s - current).abs() / n);
                all_fitted &= fitted(s, current);
                if (s - n).abs() < f64::EPSILON {
                    // Every tuple has this value; all competing variables are
                    // pinned to 0, so the constraint is satisfied for any
                    // positive α. Leave it.
                    continue;
                }
                match coordinate_step(s, n, alpha, pd, p) {
                    Some(step) => (new_alphas[v], p) = step,
                    None => sol.skipped_updates += 1,
                }
            }
            one_dim[li] = new_alphas;
        }

        // --- Multi-dimensional variables: P is affine in each δ and is
        // tracked incrementally across the block. ---
        if !multis.is_empty() {
            let mut p = kernel.begin_deltas(&one_dim, &multi);
            for (lj, &gj) in multis.iter().enumerate() {
                let s = stats.multi_counts()[gj] as f64;
                let delta = multi[lj];
                let pd = kernel.delta_derivative(lj, &one_dim, &multi);
                positive(p)?;
                let current = n * delta * pd / p;
                max_residual = max_residual.max((s - current).abs() / n);
                all_fitted &= fitted(s, current);
                match coordinate_step(s, n, delta, pd, p) {
                    Some(step) => (multi[lj], p) = step,
                    None => sol.skipped_updates += 1,
                }
            }
        }

        sol.sweeps = sweep + 1;
        sol.max_residual = max_residual;
        if config.track_dual {
            // Ψ_c = Σ_{j ∈ c} s_j ln α_j − n ln P_c.
            let mut psi = 0.0;
            for (li, &g) in attrs.iter().enumerate() {
                for (v, &s) in stats.one_dim()[g].iter().enumerate() {
                    if s > 0 {
                        psi += s as f64 * one_dim[li][v].ln();
                    }
                }
            }
            for (lj, &gj) in multis.iter().enumerate() {
                let s = stats.multi_counts()[gj];
                if s > 0 {
                    psi += s as f64 * multi[lj].ln();
                }
            }
            psi -= n * kernel.value(&one_dim, &multi).ln();
            sol.dual.push(psi);
        }
        if all_fitted {
            sol.converged = true;
            break;
        }
    }

    sol.one_dim = one_dim;
    sol.multi = multi;
    Ok(sol)
}

/// Solves the model by attribute-batched coordinate mirror descent
/// (Algorithm 1 with the batching and component-decomposition optimizations
/// described in the module docs): each component on the sweep of its
/// kernel.
pub fn solve(
    poly: &FactorizedPolynomial,
    stats: &Statistics,
    config: &SolverConfig,
) -> Result<(VarAssignment, SolverReport)> {
    let start = Instant::now();
    let mut a = VarAssignment::init_from(stats);
    let mut report = SolverReport {
        sweeps: 0,
        max_residual: f64::INFINITY,
        converged: false,
        skipped_updates: 0,
        dual_trajectory: Vec::new(),
        seconds: 0.0,
    };
    if stats.n() == 0 {
        report.max_residual = 0.0;
        report.converged = true;
        return Ok((a, report));
    }

    report.converged = true;
    report.max_residual = 0.0;
    let mut dual_per_comp: Vec<Vec<f64>> = Vec::new();
    for c in poly.components() {
        let mut kernel = sweep_kernel(c);
        let sol = solve_component(&mut *kernel, &c.attrs, &c.multis, stats, config)?;
        store_vars(c, sol.one_dim, sol.multi, &mut a);
        report.sweeps = report.sweeps.max(sol.sweeps);
        report.max_residual = report.max_residual.max(sol.max_residual);
        report.converged &= sol.converged;
        report.skipped_updates += sol.skipped_updates;
        if config.track_dual {
            dual_per_comp.push(sol.dual);
        }
    }
    if config.track_dual {
        // Ψ = Σ_c Ψ_c; components that converged early hold their final
        // value for the remaining sweeps.
        let len = dual_per_comp.iter().map(Vec::len).max().unwrap_or(0);
        report.dual_trajectory = (0..len)
            .map(|k| {
                dual_per_comp
                    .iter()
                    .filter(|d| !d.is_empty())
                    .map(|d| d[k.min(d.len() - 1)])
                    .sum()
            })
            .collect();
    }

    a.validate()?;
    report.seconds = start.elapsed().as_secs_f64();
    Ok((a, report))
}

/// Writes `c`'s local variables back into the global assignment.
fn store_vars(c: &Component, one_dim: Vec<Vec<f64>>, multi: Vec<f64>, a: &mut VarAssignment) {
    for (&g, alphas) in c.attrs.iter().zip(one_dim) {
        a.one_dim[g] = alphas;
    }
    for (&gj, delta) in c.multis.iter().zip(multi) {
        a.multi[gj] = delta;
    }
}

/// The sweep of the component's one kernel.
fn sweep_kernel(c: &Component) -> Box<dyn SweepKernel + '_> {
    match &c.kernel {
        Kernel::Tree(tree) => Box::new(TreeSweep::new(tree)),
        Kernel::Closure(poly) => Box::new(ClosureSweep::new(poly)),
    }
}

#[cfg(test)]
#[path = "../tests/support/forest.rs"]
mod forest;

#[cfg(test)]
mod tests {
    use super::forest::{closure_shapes, fixed_table, random_forest, Clauses, Shape};
    use super::*;
    use crate::assignment::Mask;
    use crate::naive::NaivePolynomial;
    use crate::polynomial::Var;
    use crate::statistics::{MultiDimStatistic, RangeClause};
    use entropydb_storage::{AttrId, Attribute, Schema, Table};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn a(i: usize) -> AttrId {
        AttrId(i)
    }

    /// A 10-row table over three binary attributes in which every value
    /// combination of every attribute pair occurs. Full support keeps the
    /// MaxEnt optimum in the interior of the domain, so coordinate descent
    /// converges geometrically. (With boundary-degenerate statistics — e.g.
    /// a cell count equal to its 1D marginal, implying some other cell is
    /// empty — the optimum lies at infinity and residuals decay only slowly;
    /// `boundary_degenerate_statistics_still_usable` covers that case.)
    fn full_support_table() -> Table {
        let schema = Schema::new(vec![
            Attribute::categorical("A", 2).unwrap(),
            Attribute::categorical("B", 2).unwrap(),
            Attribute::categorical("C", 2).unwrap(),
        ]);
        let rows = vec![
            vec![0, 0, 0],
            vec![0, 0, 0],
            vec![0, 0, 1],
            vec![0, 1, 0],
            vec![0, 1, 1],
            vec![1, 0, 0],
            vec![1, 0, 0],
            vec![1, 0, 1],
            vec![1, 1, 0],
            vec![1, 1, 1],
        ];
        Table::from_rows(schema, rows).unwrap()
    }

    /// Component `c`'s domain sizes and statistics in its local attribute
    /// numbering — what its kernel was built from. References (a closure
    /// beside a tree, a bare `TreeKernel`) are built from this in the test.
    fn local_model(
        c: &Component,
        sizes: &[usize],
        multi: &[MultiDimStatistic],
    ) -> (Vec<usize>, Vec<MultiDimStatistic>) {
        let local = |g: AttrId| a(c.attrs.iter().position(|&x| x == g.0).unwrap());
        let stats = c.multis.iter().map(|&gj| {
            let clauses = multi[gj].clauses().iter().map(|cl| RangeClause {
                attr: local(cl.attr),
                ..*cl
            });
            MultiDimStatistic::new(clauses.collect()).unwrap()
        });
        (c.attrs.iter().map(|&g| sizes[g]).collect(), stats.collect())
    }

    /// `c`'s local `(one_dim, multi)` variables out of a global assignment.
    fn local_vars(c: &Component, a: &VarAssignment) -> (Vec<Vec<f64>>, Vec<f64>) {
        (
            c.attrs.iter().map(|&g| a.one_dim[g].clone()).collect(),
            c.multis.iter().map(|&gj| a.multi[gj]).collect(),
        )
    }

    /// `(P_c, ∂P_c/∂δ_lj for every lj)` of one component through `kernel`.
    fn delta_block<K: SweepKernel + ?Sized>(
        kernel: &mut K,
        one_dim: &[Vec<f64>],
        multi: &[f64],
    ) -> (f64, Vec<f64>) {
        let p = kernel.begin_deltas(one_dim, multi);
        let pds = (0..multi.len()).map(|lj| kernel.delta_derivative(lj, one_dim, multi));
        (p, pds.collect())
    }

    // Routed through the batched passes: one rooted pass per attribute, the
    // `δ` block of the owning component's sweep per multi statistic.
    fn expectation(poly: &FactorizedPolynomial, a_: &VarAssignment, n: f64, var: Var) -> f64 {
        match var {
            Var::OneDim { attr, code } => {
                let mask = Mask::identity(poly.arity());
                let (p, derivs) = poly.eval_with_attr_derivatives(a_, &mask, attr);
                n * a_.one_dim[attr][code as usize] * derivs[code as usize] / p
            }
            Var::Multi(j) => {
                let owns = |c: &&Component| c.multis.contains(&j);
                let c = poly.components().iter().find(owns).unwrap();
                let lj = c.multis.iter().position(|&gj| gj == j).unwrap();
                let (one_dim, multi) = local_vars(c, a_);
                let mut kernel = sweep_kernel(c);
                let (p, pds) = delta_block(&mut *kernel, &one_dim, &multi);
                n * multi[lj] * pds[lj] / p
            }
        }
    }

    #[test]
    fn one_dimensional_model_solves_in_one_sweep() {
        let t = full_support_table();
        let stats = Statistics::observe(&t, vec![]).unwrap();
        let poly = FactorizedPolynomial::build(stats.domain_sizes(), &[]).unwrap();
        let (asn, report) = solve(&poly, &stats, &SolverConfig::default()).unwrap();
        assert!(report.converged, "{report:?}");
        // For a pure-1D model the init is already the fixpoint.
        assert!(report.sweeps <= 2);
        // Every 1D expectation matches its statistic.
        for attr in 0..3 {
            for code in 0..2u32 {
                let e = expectation(&poly, &asn, 10.0, Var::OneDim { attr, code });
                let s = stats.one_dim()[attr][code as usize] as f64;
                assert!((e - s).abs() < 1e-6, "attr {attr} code {code}: {e} vs {s}");
            }
        }
    }

    #[test]
    fn model_with_2d_statistics_converges() {
        let t = full_support_table();
        let multi = vec![
            MultiDimStatistic::cell2d(a(0), 0, a(1), 0).unwrap(), // s = 3
            MultiDimStatistic::cell2d(a(1), 1, a(2), 0).unwrap(), // s = 2
        ];
        let stats = Statistics::observe(&t, multi.clone()).unwrap();
        assert_eq!(stats.multi_counts(), &[3, 2]);
        let poly = FactorizedPolynomial::build(stats.domain_sizes(), &multi).unwrap();
        let config = SolverConfig {
            tolerance: 1e-7,
            ..SolverConfig::default()
        };
        let (asn, report) = solve(&poly, &stats, &config).unwrap();
        assert!(report.converged, "{report:?}");
        // All constraints satisfied (1D and 2D).
        for attr in 0..3 {
            for code in 0..2u32 {
                let e = expectation(&poly, &asn, 10.0, Var::OneDim { attr, code });
                let s = stats.one_dim()[attr][code as usize] as f64;
                assert!((e - s).abs() < 1e-5, "attr {attr} code {code}: {e} vs {s}");
            }
        }
        for j in 0..2 {
            let e = expectation(&poly, &asn, 10.0, Var::Multi(j));
            let s = stats.multi_counts()[j] as f64;
            assert!((e - s).abs() < 1e-5, "multi {j}: {e} vs {s}");
        }
    }

    /// A `tolerance` of `0.0` is never met: every sweep runs, on a model
    /// the default stops early on.
    #[test]
    fn zero_tolerance_runs_every_sweep() {
        let t = full_support_table();
        let multi = vec![MultiDimStatistic::cell2d(a(1), 1, a(2), 0).unwrap()];
        let stats = Statistics::observe(&t, multi.clone()).unwrap();
        let poly = FactorizedPolynomial::build(stats.domain_sizes(), &multi).unwrap();
        let (_, early) = solve(&poly, &stats, &SolverConfig::default()).unwrap();
        assert!(early.converged && early.sweeps < 50, "{early}");
        let config = SolverConfig {
            max_sweeps: 50,
            tolerance: 0.0,
            ..SolverConfig::default()
        };
        let (_, every) = solve(&poly, &stats, &config).unwrap();
        assert_eq!((every.sweeps, every.converged), (50, false), "{every}");
    }

    #[test]
    fn zero_statistics_pin_variables() {
        // A table where cell (A=0, B=1) never occurs: a ZERO statistic.
        let schema = Schema::new(vec![
            Attribute::categorical("A", 2).unwrap(),
            Attribute::categorical("B", 2).unwrap(),
            Attribute::categorical("C", 2).unwrap(),
        ]);
        let t = Table::from_rows(
            schema,
            vec![
                vec![0, 0, 0],
                vec![0, 0, 1],
                vec![1, 0, 0],
                vec![1, 1, 0],
                vec![1, 1, 1],
                vec![1, 0, 1],
            ],
        )
        .unwrap();
        let multi = vec![MultiDimStatistic::cell2d(a(0), 0, a(1), 1).unwrap()];
        let stats = Statistics::observe(&t, multi.clone()).unwrap();
        assert_eq!(stats.multi_counts(), &[0]);
        let poly = FactorizedPolynomial::build(stats.domain_sizes(), &multi).unwrap();
        let (asn, report) = solve(&poly, &stats, &SolverConfig::default()).unwrap();
        assert!(report.converged);
        assert_eq!(asn.multi[0], 0.0);
    }

    #[test]
    fn dual_objective_increases_along_solve() {
        let t = full_support_table();
        // Cell (B=1, C=0) observes 2 but independence predicts 2.4, so the
        // solver genuinely has to move.
        let multi = vec![MultiDimStatistic::cell2d(a(1), 1, a(2), 0).unwrap()];
        let stats = Statistics::observe(&t, multi.clone()).unwrap();
        let poly = FactorizedPolynomial::build(stats.domain_sizes(), &multi).unwrap();
        let config = SolverConfig {
            track_dual: true,
            ..SolverConfig::default()
        };
        let (_, report) = solve(&poly, &stats, &config).unwrap();
        let traj = &report.dual_trajectory;
        assert!(traj.len() >= 2);
        for w in traj.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "dual decreased: {w:?}");
        }
    }

    /// A 1 200-row table over nine 5-valued attributes, correlated in
    /// neighbouring pairs.
    fn nine_attribute_table() -> Table {
        let schema = Schema::new(
            (0..9)
                .map(|i| Attribute::categorical(format!("a{i}"), 5).unwrap())
                .collect(),
        );
        let mut g = StdRng::seed_from_u64(0x9A77);
        let mut t = Table::new(schema);
        let mut row = [0u32; 9];
        for _ in 0..1200 {
            for i in 0..9 {
                row[i] = match i > 0 && g.gen_range(0..2) == 0 {
                    true => row[i - 1],
                    false => g.gen_range(0..5),
                };
            }
            t.push_row(&row).unwrap();
        }
        t
    }

    /// Every cell of the pair `(x, y)` as its own statistic.
    fn all_cells(x: usize, y: usize) -> impl Iterator<Item = MultiDimStatistic> {
        (0..25).map(move |c| MultiDimStatistic::cell2d(a(x), c / 5, a(y), c % 5).unwrap())
    }

    /// Two solves of one model are bitwise the same on closure, tree and
    /// mixed models.
    #[test]
    fn repeated_solves_agree_bitwise() {
        let small = full_support_table();
        let nine = nine_attribute_table();
        let triangle = |x: usize| {
            all_cells(x, x + 1)
                .chain(all_cells(x + 1, x + 2))
                .chain(all_cells(x, x + 2))
        };
        // (table, statistics, tree components, closure components)
        let models: Vec<(&Table, Vec<MultiDimStatistic>, usize, usize)> = vec![
            (
                &small,
                vec![
                    MultiDimStatistic::cell2d(a(0), 0, a(1), 0).unwrap(),
                    MultiDimStatistic::cell2d(a(1), 1, a(2), 0).unwrap(),
                ],
                0,
                1,
            ),
            // A chain of pairs (one tree component) and five free
            // attributes.
            (
                &nine,
                (0..3).flat_map(|x| all_cells(x, x + 1)).collect(),
                1,
                5,
            ),
            // Two cycles of pairs (576-term closures), a tree pair and a
            // free attribute.
            (
                &nine,
                triangle(0)
                    .chain(triangle(3))
                    .chain(all_cells(6, 7))
                    .collect(),
                1,
                3,
            ),
        ];
        for (table, multi, trees, closures) in models {
            let stats = Statistics::observe(table, multi.clone()).unwrap();
            let poly = FactorizedPolynomial::build(stats.domain_sizes(), &multi).unwrap();
            let kernels = poly.size_stats();
            assert_eq!(
                (kernels.tree_components, kernels.closure_components),
                (trees, closures)
            );
            let first = solve(&poly, &stats, &SolverConfig::default()).unwrap();
            let again = solve(&poly, &stats, &SolverConfig::default()).unwrap();
            assert_eq!(first.0, again.0);
            assert_eq!(first.1.sweeps, again.1.sweeps);
            assert_eq!(first.1.skipped_updates, again.1.skipped_updates);
            assert_eq!(
                first.1.max_residual.to_bits(),
                again.1.max_residual.to_bits()
            );
        }
    }

    /// On every tree component of seeded random stars, chains and forests
    /// the tree sweep follows the closure sweep of the same component: same
    /// sweep count, convergence flag and skipped updates, every variable
    /// within 1e-9 relative, with and without dual tracking.
    #[test]
    fn tree_sweep_follows_the_closure_sweep() {
        let close = |t: f64, c: f64| (t - c).abs() <= 1e-9 * t.abs().max(c.abs());
        let mut g = StdRng::seed_from_u64(0x7EE5);
        let (mut compared, mut cavity_runs) = (0, 0);
        for shape in [Shape::Star, Shape::Chain, Shape::Forest] {
            for round in 0..48 {
                let (table, rects) = random_forest(&mut g, shape);
                let multi: Vec<_> = rects
                    .iter()
                    .map(|&(x, xr, y, yr)| MultiDimStatistic::rect2d(a(x), xr, a(y), yr).unwrap())
                    .collect();
                // A rectangle holding every row is rejected as degenerate.
                let Ok(stats) = Statistics::observe(&table, multi.clone()) else {
                    continue;
                };
                let poly = FactorizedPolynomial::build(stats.domain_sizes(), &multi).unwrap();
                let config = SolverConfig {
                    max_sweeps: 150,
                    track_dual: round % 2 == 0,
                    ..SolverConfig::default()
                };
                for c in poly.components() {
                    let Kernel::Tree(tree) = &c.kernel else {
                        continue;
                    };
                    let (attrs, multis) = (&c.attrs, &c.multis);
                    let mut sweep = TreeSweep::new(tree);
                    let t = solve_component(&mut sweep, attrs, multis, &stats, &config).unwrap();
                    let (sizes, local) = local_model(c, stats.domain_sizes(), &multi);
                    let reference = CompressedPolynomial::build(&sizes, &local).unwrap();
                    let mut closure = ClosureSweep::new(&reference);
                    let cl = solve_component(&mut closure, attrs, multis, &stats, &config).unwrap();
                    let context = format!("{shape:?} round {round}: {rects:?}");
                    assert_eq!(
                        (t.sweeps, t.converged, t.skipped_updates),
                        (cl.sweeps, cl.converged, cl.skipped_updates),
                        "{context}"
                    );
                    let vars = |s: &CompSolution| -> Vec<f64> {
                        s.one_dim
                            .iter()
                            .flatten()
                            .chain(&s.multi)
                            .copied()
                            .collect()
                    };
                    for (tv, cv) in vars(&t).into_iter().zip(vars(&cl)) {
                        assert!(close(tv, cv), "{tv} vs {cv}; {context}");
                    }
                    assert_eq!(t.dual.len(), cl.dual.len());
                    for (tp, cp) in t.dual.iter().zip(&cl.dual) {
                        assert!(close(*tp, *cp), "dual {tp} vs {cp}; {context}");
                    }
                    compared += 1;
                    // Interleaved listing: how often the edge changes
                    // between consecutive statistics of the component.
                    cavity_runs += (1..c.multis.len())
                        .filter(|&lj| tree.edge_of(lj) != tree.edge_of(lj - 1))
                        .count();
                }
            }
        }
        assert!(compared >= 60, "only {compared} tree components compared");
        assert!(cavity_runs > compared, "statistics were not interleaved");
    }

    /// Seeded random stars, chains and forests plus the three shapes
    /// `tests/tree_solver.rs` pins to the closure sweep.
    fn mixed_models() -> Vec<(Table, Vec<MultiDimStatistic>)> {
        let mut g = StdRng::seed_from_u64(0xC400);
        let mut models = Vec::new();
        for shape in [Shape::Star, Shape::Chain, Shape::Forest] {
            for _ in 0..64 {
                let (table, rects) = random_forest(&mut g, shape);
                let rect = |&(x, xr, y, yr)| MultiDimStatistic::rect2d(a(x), xr, a(y), yr).unwrap();
                models.push((table, rects.iter().map(rect).collect()));
            }
        }
        let statistic = |clauses: &Clauses| {
            let clauses = clauses.iter().map(|&(attr, (lo, hi))| RangeClause {
                attr: a(attr),
                lo,
                hi,
            });
            MultiDimStatistic::new(clauses.collect()).unwrap()
        };
        let on_fixed = |shape: Vec<Clauses>| (fixed_table(), shape.iter().map(statistic).collect());
        models.extend(closure_shapes().map(on_fixed));
        models
    }

    /// The chooser did not move: a component is on the tree kernel exactly
    /// when it qualifies and `pass cells < closure terms + Σ|dom|`, with the
    /// full closure built here as the reference — `build` itself stops
    /// enumerating as soon as the inequality is decided.
    #[test]
    fn kernel_choice_is_the_closure_size_inequality() {
        let (mut trees, mut qualified_closures, mut unqualified) = (0, 0, 0);
        for (table, multi) in mixed_models() {
            let sizes = table.schema().domain_sizes();
            let poly = FactorizedPolynomial::build(&sizes, &multi).unwrap();
            for c in poly.components() {
                let (local_sizes, local) = local_model(c, &sizes, &multi);
                let reference = CompressedPolynomial::build(&local_sizes, &local).unwrap();
                let closure_cells = reference.num_terms() + local_sizes.iter().sum::<usize>();
                let tree = TreeKernel::build(&local_sizes, &local);
                let expect_tree = tree
                    .as_ref()
                    .is_some_and(|t| t.pass_cells() < closure_cells);
                match (&c.kernel, tree) {
                    (Kernel::Tree(built), Some(tree)) => {
                        assert!(expect_tree, "{multi:?}");
                        assert_eq!(built, &tree);
                        trees += 1;
                    }
                    (Kernel::Closure(built), tree) => {
                        assert!(!expect_tree, "{multi:?}");
                        assert_eq!(built, &reference);
                        match tree {
                            Some(_) => qualified_closures += 1,
                            None => unqualified += 1,
                        }
                    }
                    (Kernel::Tree(_), None) => panic!("tree kernel on {multi:?}"),
                }
            }
        }
        assert!(
            trees >= 100 && qualified_closures >= 8 && unqualified >= 3,
            "{trees} trees, {qualified_closures} qualifying closures, {unqualified} others"
        );
    }

    /// Every `∂P/∂δ_j`, of tree and closure components alike, read through
    /// the one `SweepKernel` path equals the tuple-enumerating oracle's —
    /// and on a tree component the closure sweep of a reference closure
    /// built here agrees too.
    #[test]
    fn delta_derivatives_of_both_kernels_match_naive() {
        let close = |x: f64, y: f64| (x - y).abs() <= 1e-10 * x.abs().max(y.abs());
        let mut g = StdRng::seed_from_u64(0xDE17A);
        let (mut on_tree, mut on_closure) = (0, 0);
        for (table, multi) in mixed_models() {
            let sizes = table.schema().domain_sizes();
            let poly = FactorizedPolynomial::build(&sizes, &multi).unwrap();
            let naive = NaivePolynomial::build(&sizes, &multi).unwrap();
            let mut asn = VarAssignment::ones(&sizes, multi.len());
            let vars = asn.one_dim.iter_mut().flatten().chain(&mut asn.multi);
            vars.for_each(|x| *x = g.gen_range(0.05..2.5));
            let mask = Mask::identity(sizes.len());
            let p_global = naive.eval(&asn);
            for c in poly.components() {
                let (one_dim, deltas) = local_vars(c, &asn);
                let mut kernel = sweep_kernel(c);
                let (p, pds) = delta_block(&mut *kernel, &one_dim, &deltas);
                // d ln P / dδ_j is the same ratio globally and in `c`.
                for (&gj, &pd) in c.multis.iter().zip(&pds) {
                    let want = naive.derivative(&asn, &mask, Var::Multi(gj)) / p_global;
                    assert!(
                        close(pd / p, want),
                        "δ{gj} of {multi:?}: {} vs {want}",
                        pd / p
                    );
                }
                match &c.kernel {
                    Kernel::Closure(_) => on_closure += c.multis.len(),
                    Kernel::Tree(_) => {
                        on_tree += c.multis.len();
                        let (local_sizes, local) = local_model(c, &sizes, &multi);
                        let reference = CompressedPolynomial::build(&local_sizes, &local).unwrap();
                        let mut closure = ClosureSweep::new(&reference);
                        let (cp, cpds) = delta_block(&mut closure, &one_dim, &deltas);
                        assert!(close(p, cp), "{p} vs {cp}");
                        for (&pd, &cpd) in pds.iter().zip(&cpds) {
                            assert!(close(pd, cpd), "{pd} vs {cpd}: {multi:?}");
                        }
                    }
                }
            }
        }
        assert!(
            on_tree >= 200 && on_closure >= 40,
            "{on_tree} / {on_closure}"
        );
    }

    #[test]
    fn report_display_includes_skipped_updates() {
        let report = SolverReport {
            sweeps: 12,
            max_residual: 3.5e-7,
            converged: true,
            skipped_updates: 4,
            dual_trajectory: Vec::new(),
            seconds: 0.25,
        };
        let text = report.to_string();
        assert!(text.contains("converged"), "{text}");
        assert!(text.contains("12 sweeps"), "{text}");
        assert!(text.contains("4 skipped updates"), "{text}");
    }

    #[test]
    fn empty_table_is_trivially_converged() {
        let schema = Schema::new(vec![Attribute::categorical("A", 2).unwrap()]);
        let t = Table::new(schema);
        let stats = Statistics::observe(&t, vec![]).unwrap();
        let poly = FactorizedPolynomial::build(stats.domain_sizes(), &[]).unwrap();
        let (_, report) = solve(&poly, &stats, &SolverConfig::default()).unwrap();
        assert!(report.converged);
    }
}
