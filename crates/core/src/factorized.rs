//! Component-factorized polynomial: `P = ∏ P_c` over independent attribute
//! groups.
//!
//! Theorem 4.1's inclusion/exclusion closure must contain every *compatible*
//! statistic subset — and statistics over disjoint attribute sets are always
//! compatible. A summary with `Bs` statistics on `(fl_time, distance)` and
//! `Bs` on `(origin, dest)` (the paper's Ent3&4) would therefore produce
//! `Bs²` cross terms. But such cross terms carry no information: if no
//! statistic spans two attribute groups, the MaxEnt polynomial *factorizes*
//! into a product of independent per-group polynomials,
//!
//! ```text
//! P(α) = ∏_c P_c(α restricted to component c)
//! ```
//!
//! where the components are the connected components of the graph on
//! attributes induced by multi-dimensional statistics. (This is the
//! "further factorization" the paper's Sec. 7 anticipates.) Each component
//! gets its own kernel; evaluation, masked evaluation, and derivative
//! passes lift through the product rule. Every variable still has degree
//! ≤ 1, so the solver's closed-form updates are unchanged.
//!
//! ## One kernel per component, chosen at build
//!
//! A component holds exactly one `Kernel`, and the two query passes
//! ([`FactorizedPolynomial::eval_masked_many_with`], of which a single
//! mask is a batch of one, and
//! [`FactorizedPolynomial::eval_with_attr_derivatives_with`]) and
//! [`crate::solver`]'s sweeps all run on it:
//!
//! * **tree** (`crate::tree`) — a leaf-to-root sum-product pass costing
//!   `O(Σ|dom| + #rectangles)`: one prefix sum and one scan per attribute
//!   pair plus one multiply-add per rectangle. A component qualifies when
//!   all its statistics are 2-D, its attribute-pair graph is acyclic, its
//!   same-pair rectangles are pairwise disjoint, and the pass touches
//!   fewer cells than the closure has terms and slab cells. A batch of
//!   masks shares the walk in lanes of up to eight masks.
//! * **closure** ([`CompressedPolynomial`]) — the Theorem 4.1 term walk,
//!   `O(#terms · factors)` once per mask, for everything else: a cycle of
//!   pairs, a statistic on three or more attributes, overlapping same-pair
//!   rectangles, no statistics at all, or a closure so small (a wide star
//!   with one rectangle per pair) that walking it is the cheaper pass.
//!
//! The choice is structural and fixed when the polynomial is built; there
//! is no switch. A qualifying component's closure is enumerated only until
//! it is proven larger than the pass — at most `pass cells − Σ|dom|` terms,
//! never the 150 043 of the flights star — and is flattened and kept only
//! when it wins, so building costs what the chosen representation costs
//! and [`crate::polynomial::DEFAULT_TERM_CAP`] binds closure components
//! alone. [`FactorizedPolynomial::size_stats`] reports how many components
//! landed on each kernel and the size of what each materialised.
//!
//! ## Three paths
//!
//! Each query picks, per component and per mask, the cheapest of three
//! paths — a batch routes every mask on its own, so its answers stay
//! bitwise each mask's single answer:
//!
//! 1. **Pinned point.** When the mask pins every attribute of the
//!    component ([`Mask::pin`]: exactly one non-zero weight, recorded when
//!    the mask is built), one tuple survives and `P_c` is its monomial,
//!    `Π α_v·w_v · Π δ_j` over the statistics containing it. A tree finds
//!    them with one stabbing lookup per edge (`crate::tree`, "Three
//!    paths"), a closure scans its statistics, a single attribute has none
//!    (`α_v·w_v`). This is the paper's heavy-hitter / light-hitter /
//!    nonexistent-value probe (Sec. 6.2); it agrees with the naive
//!    polynomial to ~1e-15 relative, not bitwise with the walk.
//! 2. **Free part.** A component the mask leaves unconstrained is read
//!    from [`FreeParts`], which a fitted model evaluates once, on first
//!    use, with today's kernels and no mask: the component's value, each
//!    attribute's rooted derivative pass, and every message of a tree.
//!    A walk over a constrained tree reads the messages of its free
//!    subtrees from it too. Reading it is bitwise the walk. The solver
//!    never reads it — its assignment changes every sweep — and the plain
//!    entry points ([`FactorizedPolynomial::eval_masked_many_with`],
//!    [`FactorizedPolynomial::eval_with_attr_derivatives_with`]) do without
//!    it; the `_cached` ones take it.
//! 3. **Walk.** Everything else runs its kernel's pass.
//!
//! ## Scratch reuse
//!
//! Evaluation never materializes per-component assignments or masks: each
//! component's kernel reads the *global* assignment and mask directly
//! through its attribute mapping, filling that component's buffers in a
//! reusable [`FactorizedScratch`]. Components are evaluated in order on the
//! calling thread, so steady-state evaluation is allocation-free and its
//! bits never depend on the thread count. Parallelism lives a level up, in
//! the query paths and the gather, where there is a whole request per
//! worker.

use crate::assignment::{Mask, VarAssignment};
use crate::error::{ModelError, Result};
use crate::polynomial::{CompressedPolynomial, EvalScratch, PolynomialSizeStats};
use crate::statistics::{MultiDimStatistic, RangeClause};
use crate::tree::{TreeKernel, TreeScratch, MAX_LANES};

/// The one representation of a component's polynomial (module docs):
/// queries and the solver's sweeps both run on it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Kernel {
    Closure(CompressedPolynomial),
    Tree(TreeKernel),
}

impl Kernel {
    /// The tree kernel when the statistics qualify and its pass touches
    /// fewer cells than the closure's walk (`terms + Σ|dom|`: the terms and
    /// one prefix slab), the closure otherwise. A qualifying component's
    /// closure is built under a cap of `pass cells − Σ|dom|` terms, so the
    /// enumeration stops the moment the closure is proven the larger one.
    fn build(domain_sizes: &[usize], stats: &[MultiDimStatistic]) -> Result<Self> {
        let Some(tree) = TreeKernel::build(domain_sizes, stats) else {
            return CompressedPolynomial::build(domain_sizes, stats).map(Kernel::Closure);
        };
        // Every attribute of a tree is on an edge, so this cannot underflow.
        let budget = tree.pass_cells() - domain_sizes.iter().sum::<usize>();
        match CompressedPolynomial::build_with_cap(domain_sizes, stats, budget) {
            Ok(closure) => Ok(Kernel::Closure(closure)),
            Err(ModelError::CompressionTooLarge { .. }) => Ok(Kernel::Tree(tree)),
            Err(e) => Err(e),
        }
    }
}

/// One independent attribute group and its polynomial.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Component {
    /// Global attribute indices, sorted; local attribute `i` is
    /// `attrs[i]` globally.
    pub(crate) attrs: Vec<usize>,
    /// Global multi-statistic indices owned by this component; local multi
    /// `j` is `multis[j]` globally.
    pub(crate) multis: Vec<usize>,
    pub(crate) kernel: Kernel,
    /// A closure component's statistics over local attributes, which a
    /// pinned point scans for the ones containing it; empty for a tree,
    /// whose kernel finds them by stabbing.
    point_stats: Vec<MultiDimStatistic>,
}

/// The product-of-components polynomial used by the solver and the summary.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorizedPolynomial {
    domain_sizes: Vec<usize>,
    num_multi: usize,
    components: Vec<Component>,
    /// Per global attribute: (component, local attribute index).
    attr_home: Vec<(usize, usize)>,
    /// Total compressed terms across closure components.
    total_terms: usize,
}

/// One component's kernel buffers: the closure's or the tree's.
#[derive(Debug, Clone)]
enum KernelScratch {
    Closure(Box<EvalScratch>),
    Tree(TreeScratch),
}

/// Per-component evaluation state inside a [`FactorizedScratch`].
#[derive(Debug, Clone)]
struct CompScratch {
    kernel: KernelScratch,
    /// The component's multi values, gathered from the global assignment.
    local_multi: Vec<f64>,
    /// The component's value from the last evaluation pass.
    val: f64,
}

impl CompScratch {
    /// Gathers the component's multi values from the global assignment.
    fn gather_multi(&mut self, c: &Component, a: &VarAssignment) {
        for (slot, &g) in self.local_multi.iter_mut().zip(&c.multis) {
            *slot = a.multi[g];
        }
    }
}

/// The parts of a fitted model no mask constrains, evaluated once: what a
/// query reads instead of walking them (module docs, "Three paths"). Made
/// by [`FactorizedPolynomial::free_parts`] from one assignment and valid
/// only with it; every value is computed by the float operations the walk
/// runs, so reading it is bitwise the walk.
#[derive(Debug)]
pub struct FreeParts {
    comps: Vec<FreeComponent>,
}

/// One component's entry of [`FreeParts`].
#[derive(Debug)]
struct FreeComponent {
    /// `P_c` as a query evaluates it.
    value: f64,
    /// Per local attribute: `P_c` and every `∂P_c/∂α` of the derivative
    /// pass rooted there; `derivs[deriv_starts[i]..deriv_starts[i + 1]]`.
    rooted: Vec<f64>,
    derivs: Vec<f64>,
    deriv_starts: Vec<usize>,
    /// A tree component's messages ([`TreeKernel::free_messages`]); empty
    /// for a closure.
    messages: Vec<f64>,
}

impl FreeComponent {
    fn derivs(&self, local: usize) -> &[f64] {
        &self.derivs[self.deriv_starts[local]..self.deriv_starts[local + 1]]
    }
}

/// Reusable workspace for evaluating a [`FactorizedPolynomial`]: one set of
/// kernel buffers per component plus a global derivative buffer. Steady-
/// state evaluation against a warmed scratch performs no heap allocation.
#[derive(Debug, Clone)]
pub struct FactorizedScratch {
    comps: Vec<CompScratch>,
    /// Derivative output buffer sized for the largest attribute domain.
    derivs: Vec<f64>,
}

impl FactorizedPolynomial {
    /// Builds the factorized polynomial: union-find over attributes joined
    /// by statistics, then one kernel per component.
    pub fn build(domain_sizes: &[usize], stats: &[MultiDimStatistic]) -> Result<Self> {
        let m = domain_sizes.len();
        // Union-find over attributes.
        let mut parent: Vec<usize> = (0..m).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        for stat in stats {
            let attrs = stat.attrs();
            let first = attrs.first().ok_or(ModelError::NotMultiDimensional)?.0;
            if first >= m || attrs.iter().any(|a| a.0 >= m) {
                return Err(ModelError::ShapeMismatch);
            }
            for a in &attrs[1..] {
                let (ra, rb) = (find(&mut parent, first), find(&mut parent, a.0));
                if ra != rb {
                    parent[ra] = rb;
                }
            }
        }

        // Collect components in stable (smallest-attribute) order.
        let mut root_to_comp: Vec<Option<usize>> = vec![None; m];
        let mut comp_attrs: Vec<Vec<usize>> = Vec::new();
        for attr in 0..m {
            let root = find(&mut parent, attr);
            match root_to_comp[root] {
                Some(c) => comp_attrs[c].push(attr),
                None => {
                    root_to_comp[root] = Some(comp_attrs.len());
                    comp_attrs.push(vec![attr]);
                }
            }
        }

        let mut attr_home = vec![(0usize, 0usize); m];
        for (c, attrs) in comp_attrs.iter().enumerate() {
            for (local, &global) in attrs.iter().enumerate() {
                attr_home[global] = (c, local);
            }
        }

        // Distribute statistics to components, remapping attribute ids.
        let mut comp_stats: Vec<Vec<MultiDimStatistic>> = vec![Vec::new(); comp_attrs.len()];
        let mut comp_multi_ids: Vec<Vec<usize>> = vec![Vec::new(); comp_attrs.len()];
        for (j, stat) in stats.iter().enumerate() {
            let (c, _) = attr_home[stat.attrs()[0].0];
            let local_clauses = stat
                .clauses()
                .iter()
                .map(|cl| crate::statistics::RangeClause {
                    attr: entropydb_storage::AttrId(attr_home[cl.attr.0].1),
                    lo: cl.lo,
                    hi: cl.hi,
                })
                .collect();
            let local = MultiDimStatistic::new(local_clauses)?;
            comp_stats[c].push(local);
            comp_multi_ids[c].push(j);
        }

        let components = comp_attrs
            .into_iter()
            .zip(comp_stats)
            .zip(comp_multi_ids)
            .map(|((attrs, stats_c), multis)| {
                let local_sizes: Vec<usize> = attrs.iter().map(|&a| domain_sizes[a]).collect();
                let kernel = Kernel::build(&local_sizes, &stats_c)?;
                let point_stats = match kernel {
                    Kernel::Tree(_) => Vec::new(),
                    Kernel::Closure(_) => stats_c,
                };
                Ok(Component {
                    kernel,
                    attrs,
                    multis,
                    point_stats,
                })
            })
            .collect::<Result<Vec<_>>>()?;

        let total_terms = components
            .iter()
            .map(|c| match &c.kernel {
                Kernel::Closure(poly) => poly.num_terms(),
                Kernel::Tree(_) => 0,
            })
            .sum();
        Ok(FactorizedPolynomial {
            domain_sizes: domain_sizes.to_vec(),
            num_multi: stats.len(),
            components,
            attr_home,
            total_terms,
        })
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.domain_sizes.len()
    }

    /// Active-domain sizes.
    pub fn domain_sizes(&self) -> &[usize] {
        &self.domain_sizes
    }

    /// Number of multi-dimensional statistic variables.
    pub fn num_multi(&self) -> usize {
        self.num_multi
    }

    /// Number of independent components.
    pub fn num_components(&self) -> usize {
        self.components.len()
    }

    /// Total compressed terms across closure components (a tree component
    /// materialises none; see [`PolynomialSizeStats::tree_cells`]).
    pub fn num_terms(&self) -> usize {
        self.total_terms
    }

    pub(crate) fn components(&self) -> &[Component] {
        &self.components
    }

    /// Aggregated size statistics. `uncompressed_monomials` is the full
    /// (unfactorized) `∏ N_i`; the other counters sum what the components
    /// materialised — closure terms and factors, tree pass cells — so
    /// `uncompressed_monomials / (num_terms + tree_cells)` reflects the
    /// combined compression + factorization win. `tree_components` /
    /// `closure_components` count the components on each kernel.
    pub fn size_stats(&self) -> PolynomialSizeStats {
        let mut agg = PolynomialSizeStats {
            num_terms: 0,
            constrained_factors: 0,
            delta_factors: 0,
            tree_cells: 0,
            uncompressed_monomials: self
                .domain_sizes
                .iter()
                .fold(1u128, |acc, &n| acc.saturating_mul(n as u128)),
            tree_components: 0,
            closure_components: 0,
        };
        for c in &self.components {
            match &c.kernel {
                Kernel::Closure(poly) => {
                    let s = poly.size_stats();
                    agg.num_terms += s.num_terms;
                    agg.constrained_factors += s.constrained_factors;
                    agg.delta_factors += s.delta_factors;
                    agg.closure_components += 1;
                }
                Kernel::Tree(tree) => {
                    agg.tree_cells += tree.pass_cells();
                    agg.tree_components += 1;
                }
            }
        }
        agg
    }

    /// Validates assignment shape.
    pub fn check_shape(&self, a: &VarAssignment) -> Result<()> {
        if a.one_dim.len() != self.arity()
            || a.multi.len() != self.num_multi
            || a.one_dim
                .iter()
                .zip(&self.domain_sizes)
                .any(|(v, &n)| v.len() != n)
        {
            return Err(ModelError::ShapeMismatch);
        }
        Ok(())
    }

    /// Allocates a reusable evaluation workspace sized for this polynomial.
    pub fn make_scratch(&self) -> FactorizedScratch {
        FactorizedScratch {
            comps: self
                .components
                .iter()
                .map(|c| CompScratch {
                    kernel: match &c.kernel {
                        Kernel::Tree(tree) => KernelScratch::Tree(tree.make_scratch()),
                        Kernel::Closure(poly) => {
                            KernelScratch::Closure(Box::new(poly.make_scratch()))
                        }
                    },
                    local_multi: vec![0.0; c.multis.len()],
                    val: 0.0,
                })
                .collect(),
            derivs: vec![0.0; self.domain_sizes.iter().copied().max().unwrap_or(0)],
        }
    }

    /// Evaluates one component under `mask`, reading the global assignment
    /// and mask through the component's attribute mapping (no local
    /// assignment/mask materialization). With `derivs_of` naming a local
    /// attribute, the pass also leaves every `dP_c/dα` of that attribute in
    /// the component's kernel buffers. A tree reads the messages of its
    /// unconstrained subtrees from `free` when given.
    fn eval_component(
        c: &Component,
        a: &VarAssignment,
        mask: &Mask,
        derivs_of: Option<usize>,
        free: Option<&FreeComponent>,
        cs: &mut CompScratch,
    ) -> f64 {
        cs.gather_multi(c, a);
        let get = |li: usize| {
            let g = c.attrs[li];
            (a.one_dim[g].as_slice(), mask.attr_weights(g))
        };
        match (&c.kernel, &mut cs.kernel) {
            (Kernel::Tree(tree), KernelScratch::Tree(ts)) => {
                let get = |li: usize| {
                    let (vals, weights) = get(li);
                    (vals, [weights])
                };
                let (root, multi) = (derivs_of.unwrap_or(0), &cs.local_multi);
                match free {
                    Some(f) => tree.pass_cached(root, multi, get, &f.messages, ts)[0],
                    None => tree.pass(root, multi, get, ts)[0],
                }
            }
            (Kernel::Closure(poly), KernelScratch::Closure(eval)) => {
                poly.fill_scratch_with(eval, get);
                match derivs_of {
                    Some(li) => {
                        let (vals, weights) = get(li);
                        poly.derivs_prefilled(&cs.local_multi, vals, weights, li, eval)
                            .0
                    }
                    None => poly.eval_prefilled(&cs.local_multi, eval),
                }
            }
            _ => unreachable!("scratch was made for another polynomial"),
        }
    }

    /// `P_c` under `mask` without a walk, when one of the first two paths
    /// applies (module docs, "Three paths"): the product of a pinned point,
    /// or the cached value of a component `mask` leaves free.
    fn shortcut(
        c: &Component,
        a: &VarAssignment,
        mask: &Mask,
        free: Option<&FreeComponent>,
    ) -> Option<f64> {
        Self::pinned_product(c, a, mask).or_else(|| Self::untouched(c, mask, free).map(|f| f.value))
    }

    /// The component's free parts, when there are some and `mask` leaves
    /// every attribute of the component unconstrained.
    fn untouched<'f>(
        c: &Component,
        mask: &Mask,
        free: Option<&'f FreeComponent>,
    ) -> Option<&'f FreeComponent> {
        free.filter(|_| c.attrs.iter().all(|&g| mask.attr_weights(g).is_none()))
    }

    /// The one monomial of the tuple `mask` pins, `Π α_v·w_v · Π δ_j` over
    /// the statistics containing it, when `mask` pins every attribute of
    /// the component; `None` otherwise. A tree finds the statistics with
    /// one stabbing lookup per edge (`Π_edges ψ(v_u, v_v)`), a closure scans
    /// its statistics, a single attribute has none.
    fn pinned_product(c: &Component, a: &VarAssignment, mask: &Mask) -> Option<f64> {
        let mut p = 1.0;
        for &g in &c.attrs {
            let (code, w) = mask.pin(g)?;
            p *= a.one_dim[g][code as usize] * w;
        }
        let code = |li: usize| mask.pin(c.attrs[li]).map_or(0, |(code, _)| code);
        let delta = |j: usize| a.multi[c.multis[j]];
        match &c.kernel {
            Kernel::Tree(tree) => p *= tree.point_potential(code, delta),
            Kernel::Closure(_) => {
                for (j, stat) in c.point_stats.iter().enumerate() {
                    let contains = |cl: &RangeClause| (cl.lo..=cl.hi).contains(&code(cl.attr.0));
                    if stat.clauses().iter().all(contains) {
                        p *= delta(j);
                    }
                }
            }
        }
        Some(p)
    }

    /// Evaluates every part of `a` that a mask can leave free: what
    /// [`FactorizedPolynomial::eval_masked_many_cached`] and
    /// [`FactorizedPolynomial::eval_with_attr_derivatives_cached`] read
    /// instead of walking. One pass per component and per attribute, on the
    /// kernels queries run, with no mask applied.
    pub fn free_parts(&self, a: &VarAssignment) -> FreeParts {
        let identity = Mask::identity(self.arity());
        let mut fs = self.make_scratch();
        let comps = self
            .components
            .iter()
            .zip(&mut fs.comps)
            .map(|(c, cs)| {
                let value = Self::eval_component(c, a, &identity, None, None, cs);
                let (mut rooted, mut derivs, mut deriv_starts) = (vec![], vec![], vec![0]);
                for (li, &g) in c.attrs.iter().enumerate() {
                    rooted.push(Self::eval_component(c, a, &identity, Some(li), None, cs));
                    let n = self.domain_sizes[g];
                    derivs.extend_from_slice(match &cs.kernel {
                        KernelScratch::Closure(eval) => eval.derivs_slice(n),
                        KernelScratch::Tree(ts) => ts.derivs_slice(n),
                    });
                    deriv_starts.push(derivs.len());
                }
                cs.gather_multi(c, a);
                let messages = match (&c.kernel, &mut cs.kernel) {
                    (Kernel::Tree(tree), KernelScratch::Tree(ts)) => {
                        tree.free_messages(&cs.local_multi, |li| &a.one_dim[c.attrs[li]], ts)
                    }
                    _ => Vec::new(),
                };
                FreeComponent {
                    value,
                    rooted,
                    derivs,
                    deriv_starts,
                    messages,
                }
            })
            .collect();
        FreeParts { comps }
    }

    /// Evaluates `P = ∏ P_c` (convenience wrapper; allocates a scratch).
    pub fn eval(&self, a: &VarAssignment) -> f64 {
        self.eval_masked(a, &Mask::identity(self.arity()))
    }

    /// Evaluates `P` under a query mask. Convenience-only: allocates a fresh
    /// [`FactorizedScratch`] per call (see the audit note on
    /// [`CompressedPolynomial::eval_masked`]); production query paths use
    /// [`FactorizedPolynomial::eval_masked_with`] against a pooled scratch.
    #[cold]
    pub fn eval_masked(&self, a: &VarAssignment, mask: &Mask) -> f64 {
        self.eval_masked_with(a, mask, &mut self.make_scratch())
    }

    /// Allocation-free masked evaluation: a batch of one mask.
    pub fn eval_masked_with(
        &self,
        a: &VarAssignment,
        mask: &Mask,
        fs: &mut FactorizedScratch,
    ) -> f64 {
        let mut out = [0.0];
        self.eval_masked_many_with(a, std::slice::from_ref(mask), fs, &mut out);
        out[0]
    }

    /// Masked evaluation of a batch: `out[i] = P[masked by masks[i]]`. Each
    /// component takes, per mask, the product of a pinned point or else a
    /// walk (module docs, "Three paths"). A tree component walks its masks
    /// in lane groups of 8, 4, 2 and 1, one message-passing walk per group
    /// (`crate::tree`, "Lanes"); a closure component walks its terms once
    /// per mask. The path is the mask's own, each lane is bitwise its
    /// one-mask pass and the components multiply in order, so every answer
    /// is bitwise [`FactorizedPolynomial::eval_masked_with`]'s for that mask
    /// alone.
    pub fn eval_masked_many_with(
        &self,
        a: &VarAssignment,
        masks: &[Mask],
        fs: &mut FactorizedScratch,
        out: &mut [f64],
    ) {
        self.eval_many(a, None, masks, fs, out);
    }

    /// [`FactorizedPolynomial::eval_masked_many_with`] for the assignment
    /// `free` was made from: a component a mask leaves free is read from
    /// it, and a walk reads the messages of its free subtrees from it.
    /// Bitwise the answers without it.
    pub fn eval_masked_many_cached(
        &self,
        a: &VarAssignment,
        free: &FreeParts,
        masks: &[Mask],
        fs: &mut FactorizedScratch,
        out: &mut [f64],
    ) {
        self.eval_many(a, Some(free), masks, fs, out);
    }

    fn eval_many(
        &self,
        a: &VarAssignment,
        free: Option<&FreeParts>,
        masks: &[Mask],
        fs: &mut FactorizedScratch,
        out: &mut [f64],
    ) {
        assert_eq!(masks.len(), out.len());
        debug_assert!(self.check_shape(a).is_ok());
        debug_assert_eq!(fs.comps.len(), self.components.len());
        out.fill(1.0);
        for (ci, (c, cs)) in self.components.iter().zip(&mut fs.comps).enumerate() {
            let free = free.map(|f| &f.comps[ci]);
            let Kernel::Tree(tree) = &c.kernel else {
                for (mask, slot) in masks.iter().zip(out.iter_mut()) {
                    *slot *= Self::shortcut(c, a, mask, free)
                        .unwrap_or_else(|| Self::eval_component(c, a, mask, None, free, cs));
                }
                continue;
            };
            // The masks that walk, gathered into lane groups as they come.
            let mut lanes = [0usize; MAX_LANES];
            let mut pending = 0;
            let mut gathered = false;
            for (i, mask) in masks.iter().enumerate() {
                if let Some(p) = Self::shortcut(c, a, mask, free) {
                    out[i] *= p;
                    continue;
                }
                if !gathered {
                    cs.gather_multi(c, a);
                    gathered = true;
                }
                lanes[pending] = i;
                pending += 1;
                if pending == MAX_LANES {
                    Self::tree_lanes::<MAX_LANES>(tree, c, a, free, masks, &lanes, out, cs);
                    pending = 0;
                }
            }
            let mut done = 0;
            while done < pending {
                let group = &lanes[done..pending];
                done += match group.len() {
                    4.. => Self::tree_lanes::<4>(tree, c, a, free, masks, group, out, cs),
                    2.. => Self::tree_lanes::<2>(tree, c, a, free, masks, group, out, cs),
                    _ => Self::tree_lanes::<1>(tree, c, a, free, masks, group, out, cs),
                };
            }
        }
    }

    /// One `L`-lane tree walk over the masks `lanes[..L]` index, multiplied
    /// into their output slots; returns `L`. The component's multi values
    /// are already gathered.
    #[allow(clippy::too_many_arguments)]
    fn tree_lanes<const L: usize>(
        tree: &TreeKernel,
        c: &Component,
        a: &VarAssignment,
        free: Option<&FreeComponent>,
        masks: &[Mask],
        lanes: &[usize],
        out: &mut [f64],
        cs: &mut CompScratch,
    ) -> usize {
        let group: [&Mask; L] = std::array::from_fn(|l| &masks[lanes[l]]);
        let get = |li: usize| {
            let g = c.attrs[li];
            (a.one_dim[g].as_slice(), group.map(|m| m.attr_weights(g)))
        };
        let CompScratch {
            kernel: KernelScratch::Tree(ts),
            local_multi,
            ..
        } = cs
        else {
            unreachable!("scratch was made for another polynomial")
        };
        let p = match free {
            Some(f) => tree.pass_cached(0, local_multi, get, &f.messages, ts),
            None => tree.pass(0, local_multi, get, ts),
        };
        for (&i, pl) in lanes.iter().zip(p) {
            out[i] *= pl;
        }
        L
    }

    /// Fused pass: `(P, dP/dα_{attr,v} for all v)` under `mask` (convenience
    /// wrapper; allocates a scratch and an output vector).
    pub fn eval_with_attr_derivatives(
        &self,
        a: &VarAssignment,
        mask: &Mask,
        attr: usize,
    ) -> (f64, Vec<f64>) {
        let mut fs = self.make_scratch();
        let (p, derivs) = self.eval_with_attr_derivatives_with(a, mask, attr, &mut fs);
        (p, derivs.to_vec())
    }

    /// Allocation-free fused evaluation + derivative pass. The product rule
    /// lifts the component pass: `dP/dα = (∏_{c'≠c} P_{c'}) · dP_c/dα`. A
    /// tree component roots its pass at `attr`, so the derivatives cost the
    /// same single pass as a plain evaluation; every other component takes
    /// its path as in [`FactorizedPolynomial::eval_masked_many_with`]. The
    /// derivative slice borrows the scratch.
    pub fn eval_with_attr_derivatives_with<'s>(
        &self,
        a: &VarAssignment,
        mask: &Mask,
        attr: usize,
        fs: &'s mut FactorizedScratch,
    ) -> (f64, &'s [f64]) {
        self.derivatives(a, None, mask, attr, fs)
    }

    /// [`FactorizedPolynomial::eval_with_attr_derivatives_with`] for the
    /// assignment `free` was made from: free components and subtrees are
    /// read from it, and so is the whole pass when `mask` leaves `attr`'s
    /// component free. Bitwise the answer without it.
    pub fn eval_with_attr_derivatives_cached<'s>(
        &self,
        a: &VarAssignment,
        free: &FreeParts,
        mask: &Mask,
        attr: usize,
        fs: &'s mut FactorizedScratch,
    ) -> (f64, &'s [f64]) {
        self.derivatives(a, Some(free), mask, attr, fs)
    }

    fn derivatives<'s>(
        &self,
        a: &VarAssignment,
        free: Option<&FreeParts>,
        mask: &Mask,
        attr: usize,
        fs: &'s mut FactorizedScratch,
    ) -> (f64, &'s [f64]) {
        debug_assert!(attr < self.arity());
        debug_assert_eq!(fs.comps.len(), self.components.len());
        let (home, local_attr) = self.attr_home[attr];
        let mut home_free = None;
        for (ci, (c, cs)) in self.components.iter().zip(&mut fs.comps).enumerate() {
            let free = free.map(|f| &f.comps[ci]);
            cs.val = if ci != home {
                Self::shortcut(c, a, mask, free)
                    .unwrap_or_else(|| Self::eval_component(c, a, mask, None, free, cs))
            } else if let Some(f) = Self::untouched(c, mask, free) {
                home_free = Some(f);
                f.rooted[local_attr]
            } else {
                Self::eval_component(c, a, mask, Some(local_attr), free, cs)
            };
        }

        let FactorizedScratch { comps, derivs } = fs;
        let mut others = 1.0;
        for (ci, cs) in comps.iter().enumerate() {
            if ci != home {
                others *= cs.val;
            }
        }
        let n_attr = self.domain_sizes[attr];
        let home_derivs = match (home_free, &comps[home].kernel) {
            (Some(f), _) => f.derivs(local_attr),
            (None, KernelScratch::Closure(eval)) => eval.derivs_slice(n_attr),
            (None, KernelScratch::Tree(ts)) => ts.derivs_slice(n_attr),
        };
        for (out, &d) in derivs[..n_attr].iter_mut().zip(home_derivs) {
            *out = d * others;
        }
        (comps[home].val * others, &derivs[..n_attr])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaivePolynomial;
    use crate::polynomial::Var;
    use entropydb_storage::{AttrId, Predicate};

    fn a(i: usize) -> AttrId {
        AttrId(i)
    }

    fn rect(ax: usize, x: (u32, u32), ay: usize, y: (u32, u32)) -> MultiDimStatistic {
        MultiDimStatistic::rect2d(a(ax), x, a(ay), y).unwrap()
    }

    /// Two disjoint pairs + one free attribute → three components.
    fn disjoint_setup() -> (Vec<usize>, Vec<MultiDimStatistic>) {
        let sizes = vec![3, 4, 2, 3, 5];
        let stats = vec![
            rect(0, (0, 1), 1, (1, 2)),
            rect(0, (2, 2), 1, (0, 3)),
            rect(2, (0, 0), 3, (1, 2)),
            rect(2, (1, 1), 3, (0, 0)),
        ];
        (sizes, stats)
    }

    #[test]
    fn components_detected() {
        let (sizes, stats) = disjoint_setup();
        let f = FactorizedPolynomial::build(&sizes, &stats).unwrap();
        // {0,1}, {2,3}, {4}.
        assert_eq!(f.num_components(), 3);
        // No cross-pair terms: each pair component is one message pass over
        // its two domains and two rectangles (fewer cells than its 1 + 2
        // terms and their slab), the free attribute one term. A flat
        // closure would have had 2×2 extra cross terms.
        let size = f.size_stats();
        assert_eq!((size.tree_components, size.closure_components), (2, 1));
        assert_eq!(size.tree_cells, (3 + 4 + 2) + (2 + 3 + 2));
        assert_eq!((f.num_terms(), size.num_terms), (1, 1));
        let flat = CompressedPolynomial::build(&sizes, &stats).unwrap();
        assert_eq!(flat.num_terms(), 1 + 4 + 2 * 2);
    }

    #[test]
    fn matches_naive_polynomial() {
        let (sizes, stats) = disjoint_setup();
        let f = FactorizedPolynomial::build(&sizes, &stats).unwrap();
        let naive = NaivePolynomial::build(&sizes, &stats).unwrap();
        let mut asn = VarAssignment::ones(&sizes, stats.len());
        for (i, vs) in asn.one_dim.iter_mut().enumerate() {
            for (v, x) in vs.iter_mut().enumerate() {
                *x = 0.05 + 0.13 * ((i + 2) * (v + 1)) as f64;
            }
        }
        asn.multi = vec![0.4, 1.8, 2.5, 0.0];
        let (pf, pn) = (f.eval(&asn), naive.eval(&asn));
        assert!((pf - pn).abs() < 1e-10 * pn.abs().max(1.0), "{pf} vs {pn}");

        // Masked evaluation.
        let pred = Predicate::new().between(a(1), 1, 3).eq(a(4), 2);
        let mask = Mask::from_predicate(&pred, &sizes).unwrap();
        let (pf, pn) = (f.eval_masked(&asn, &mask), naive.eval_masked(&asn, &mask));
        assert!((pf - pn).abs() < 1e-10 * pn.abs().max(1.0), "{pf} vs {pn}");
    }

    #[test]
    fn derivatives_match_naive() {
        let (sizes, stats) = disjoint_setup();
        let f = FactorizedPolynomial::build(&sizes, &stats).unwrap();
        let naive = NaivePolynomial::build(&sizes, &stats).unwrap();
        let mut asn = VarAssignment::ones(&sizes, stats.len());
        asn.one_dim[1] = vec![0.3, 0.9, 1.4, 0.2];
        asn.multi = vec![1.5, 0.7, 2.0, 0.9];
        let mask = Mask::identity(sizes.len());
        for attr in 0..sizes.len() {
            let (p, derivs) = f.eval_with_attr_derivatives(&asn, &mask, attr);
            assert!((p - naive.eval(&asn)).abs() < 1e-10 * p.abs().max(1.0));
            for (code, &d) in derivs.iter().enumerate() {
                let expected = naive.derivative(
                    &asn,
                    &mask,
                    Var::OneDim {
                        attr,
                        code: code as u32,
                    },
                );
                assert!(
                    (d - expected).abs() < 1e-10 * expected.abs().max(1.0),
                    "attr {attr} code {code}: {d} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_is_bitwise_stable() {
        let (sizes, stats) = disjoint_setup();
        let f = FactorizedPolynomial::build(&sizes, &stats).unwrap();
        let mut asn = VarAssignment::ones(&sizes, stats.len());
        asn.multi = vec![1.2, 0.8, 1.5, 0.5];
        let pred = Predicate::new().between(a(1), 1, 3);
        let mask = Mask::from_predicate(&pred, &sizes).unwrap();
        let mut fs = f.make_scratch();
        let fresh_eval = f.eval_masked(&asn, &mask);
        let (fresh_p, fresh_derivs) = f.eval_with_attr_derivatives(&asn, &mask, 1);
        for _ in 0..3 {
            assert_eq!(
                f.eval_masked_with(&asn, &mask, &mut fs).to_bits(),
                fresh_eval.to_bits()
            );
            let (p, derivs) = f.eval_with_attr_derivatives_with(&asn, &mask, 1, &mut fs);
            assert_eq!(p.to_bits(), fresh_p.to_bits());
            assert_eq!(derivs, fresh_derivs.as_slice());
        }
    }

    #[test]
    fn connected_stats_stay_in_one_component() {
        // Chain 0-1, 1-2 → single component {0,1,2} plus singleton {3}.
        let sizes = vec![3, 3, 3, 2];
        let stats = vec![rect(0, (0, 1), 1, (0, 1)), rect(1, (1, 2), 2, (0, 2))];
        let f = FactorizedPolynomial::build(&sizes, &stats).unwrap();
        assert_eq!(f.num_components(), 2);
    }

    #[test]
    fn no_stats_gives_all_singletons() {
        let f = FactorizedPolynomial::build(&[2, 3, 4], &[]).unwrap();
        assert_eq!(f.num_components(), 3);
        assert_eq!(f.num_terms(), 3);
        let ones = VarAssignment::ones(&[2, 3, 4], 0);
        assert_eq!(f.eval(&ones), 24.0);
    }
}
