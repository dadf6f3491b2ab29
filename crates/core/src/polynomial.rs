//! The compressed MaxEnt polynomial (paper Sec. 4.1, Theorem 4.1).
//!
//! The naive polynomial `P` (Eq. 5) has one monomial per possible tuple —
//! `∏ N_i` of them, infeasible to materialize. Expanding every
//! multi-dimensional variable `δ_j` as `(δ_j − 1) + 1` and distributing gives
//! the exact identity
//!
//! ```text
//! P = Σ_{S ⊆ multi-stats, π_S ≢ false}  ∏_{j∈S} (δ_j − 1) · ∏_{i=1..m} ( Σ_{v ∈ ρ_iS} α_{i,v} )
//! ```
//!
//! where `π_S` is the conjunction of the predicates in `S` and `ρ_iS` its
//! projection on attribute `i` (the full domain when unconstrained). Each
//! compatible subset `S` becomes one compressed *term*: interval-sum factors
//! plus `|S|` `(δ−1)` factors. `S = ∅` is the base term. This is Theorem 4.1
//! with the `J_I` bookkeeping flattened out; compatibility is
//! downward-closed, so subsets are enumerated by a fix-point closure that
//! extends each compatible set with statistics of larger index only.
//!
//! ## Arena layout
//!
//! Storage is a flat CSR arena, sized once at build time:
//!
//! * term → `(δ−1)`-factor slice (`delta_offsets` / `delta_ids`),
//! * multi statistic → containing-term slice (`delta_term_offsets` /
//!   `delta_terms`),
//! * term → *constrained* interval-factor slice (`constr_offsets` /
//!   `constr_attrs` / `constr_lo` / `constr_hi`) — factors spanning an
//!   attribute's full domain are folded into a per-term *complement
//!   product* of whole-attribute totals, indexed through a small set of
//!   deduplicated constrained-attribute sets (`term_attrset` /
//!   `attrset_offsets` / `attrset_attrs`),
//! * attribute → row offset into a single prefix-sum slab
//!   (`prefix_starts`),
//! * constrained factor → precomputed **absolute** slab indices of its two
//!   prefix cells (`pair_lo` / `pair_hi`), factor-major, and the run
//!   boundaries of terms sharing one constrained-attribute set
//!   (`run_offsets`).
//!
//! There is one evaluation pass per question: the run-segmented walk for
//! `P[mask]` (gathering `prefix[hi] − prefix[lo]` inline), the fused
//! derivative pass for one attribute, and the interval products of the
//! solver's `δ` block (both over a factor-major buffer of interval sums). A
//! batch of masks is the walk once per mask.
//!
//! Evaluation-time state (the prefix-sum slab, attribute totals, complement
//! products, difference/derivative buffers, cached interval products) lives
//! in a reusable [`EvalScratch`], so `eval`, `eval_masked`, and
//! `eval_with_attr_derivatives` perform **zero heap allocation in steady
//! state** once a scratch has been warmed up, at every model size: every
//! pass runs on the calling thread, so its result bits never depend on the
//! thread count either.
//!
//! ## Cost model, and the kernel that sidesteps it
//!
//! Building and every evaluation here walk all terms: `O(#terms · factors)`,
//! and the term count is the number of *compatible statistic subsets* —
//! 150 043 for the 900 rectangles of the Ent1&2&3 flights summary. A
//! component that is a tree of disjoint 2-D rectangles needs none of it:
//! the message-passing kernel in `crate::tree` answers its queries and runs
//! its solver sweeps in `O(Σ|dom| + #rectangles)`, and [`crate::factorized`]
//! gives such a component that kernel *instead of* a closure — it
//! enumerates the closure only as far as proving it larger than the pass.
//! The closure is the kernel for every other shape, and the oracle the
//! tree kernel is tested against.
//!
//! Because every variable has degree ≤ 1 in `P` (monomials are multilinear),
//! evaluation under a [`Mask`] plus *all* derivatives with respect to one
//! attribute's variables can be fused into a single pass
//! ([`CompressedPolynomial::eval_with_attr_derivatives`]) — the workhorse of
//! both the solver (Sec. 3.3) and batched group-by estimation (Sec. 4.2).

use crate::assignment::{Mask, VarAssignment};
use crate::error::{ModelError, Result};
use crate::statistics::MultiDimStatistic;
use std::collections::HashMap;

/// Identifies one model variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Var {
    /// The 1D variable `α_{attr,code}` of statistic `A_attr = code`.
    OneDim {
        /// Attribute index.
        attr: usize,
        /// Dense value code.
        code: u32,
    },
    /// The variable of the `j`-th multi-dimensional statistic.
    Multi(usize),
}

/// Size accounting for a compressed polynomial, mirroring the numbers the
/// paper reports (e.g. "4.4 million terms uncompressed vs 9,000 compressed").
/// The three term counters count what is materialised: a component on the
/// tree kernel has no closure and adds to `tree_cells` instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolynomialSizeStats {
    /// Number of compressed terms (compatible statistic subsets + base).
    pub num_terms: usize,
    /// Interval-sum factors that constrain fewer values than the full domain.
    pub constrained_factors: usize,
    /// Total `(δ − 1)` factors across terms.
    pub delta_factors: usize,
    /// Cells one message pass touches, summed over tree components
    /// (`Σ_edges (N_u + N_v) + #rectangles` each) — always 0 for a bare
    /// [`CompressedPolynomial`]. `num_terms + tree_cells` is the size of
    /// the representation an evaluation walks.
    pub tree_cells: usize,
    /// Monomials of the equivalent uncompressed sum-of-products form
    /// (`∏ N_i`), saturating.
    pub uncompressed_monomials: u128,
    /// Components the tree message-passing kernel (`crate::tree`) answers
    /// queries on and the solver sweeps — always 0 for a bare
    /// [`CompressedPolynomial`].
    pub tree_components: usize,
    /// Components whose queries and solver sweeps walk the closure's terms.
    /// A model that should be all-tree showing a large closure component
    /// here means a statistic choice (a cycle of pairs, a 3-D statistic)
    /// put it on the far slower kernel.
    pub closure_components: usize,
}

/// A term under construction: a compatible set of statistics and the
/// intersected projection ranges over its combined attributes.
#[derive(Debug, Clone)]
struct Entry {
    deltas: Vec<u32>,
    /// Sorted by attribute: `(attr, lo, hi)`, intersected across `deltas`.
    ranges: Vec<(usize, u32, u32)>,
}

/// The compressed multilinear polynomial `P` in flat CSR arena form (see
/// the module docs for the layout).
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedPolynomial {
    domain_sizes: Vec<usize>,
    num_multi: usize,
    /// CSR term → `(δ−1)` factor statistic ids.
    delta_offsets: Vec<u32>,
    delta_ids: Vec<u32>,
    /// CSR multi statistic → ids of terms containing its `(δ−1)` factor.
    delta_term_offsets: Vec<u32>,
    delta_terms: Vec<u32>,
    /// CSR term → constrained interval factors (struct-of-arrays).
    constr_offsets: Vec<u32>,
    constr_attrs: Vec<u32>,
    constr_lo: Vec<u32>,
    constr_hi: Vec<u32>,
    /// Per constrained factor: absolute slab index of the lower prefix cell
    /// (`prefix_starts[attr] + lo`), factor-major, aligned with `constr_*`.
    pair_lo: Vec<u32>,
    /// Per constrained factor: absolute slab index of the upper prefix cell
    /// (`prefix_starts[attr] + hi + 1`).
    pair_hi: Vec<u32>,
    /// `pair_lo | pair_hi << 16` when every slab index fits in 16 bits
    /// (slab length `Σ (N_i + 1)` ≤ 65535 — virtually every real model).
    /// The eval kernels are factor-index bound at large closures; one
    /// 4-byte load per factor instead of two halves that stream. `None`
    /// for huge slabs, where the kernels fall back to the wide pair.
    pair_packed: Option<Vec<u32>>,
    /// Term → id of its constrained-attribute set.
    term_attrset: Vec<u32>,
    /// CSR attrset → sorted attribute indices.
    attrset_offsets: Vec<u32>,
    attrset_attrs: Vec<u32>,
    /// Starts of maximal runs of terms sharing one attrset (terms are laid
    /// out sorted by attrset id, so every run is uniform in constrained-
    /// factor count). `run_offsets.last()` is the term count. The term-sum
    /// kernels walk runs, not terms: within a run the complement product and
    /// the factor count are loop invariants, which is what makes the inner
    /// loops branch-free.
    run_offsets: Vec<u32>,
    /// Attribute → row start in the prefix-sum slab; `prefix_starts[m]` is
    /// the slab length (`Σ (N_i + 1)`).
    prefix_starts: Vec<u32>,
    /// Largest attribute domain (sizes the derivative buffers).
    max_domain: usize,
}

/// Reusable evaluation workspace for one [`CompressedPolynomial`] shape.
///
/// All kernels write into these fixed-size buffers, so steady-state
/// evaluation allocates nothing. A scratch built by
/// [`CompressedPolynomial::make_scratch`] fits exactly that polynomial;
/// sharing one across polynomials of different shapes is a logic error
/// (checked by `debug_assert`).
#[derive(Debug, Clone)]
pub struct EvalScratch {
    /// Prefix-sum slab: row `i` spans `prefix_starts[i] .. prefix_starts[i+1]`.
    prefix: Vec<f64>,
    /// Whole-domain masked total per attribute.
    totals: Vec<f64>,
    /// Complement product per constrained-attribute set.
    set_comp: Vec<f64>,
    /// Difference-array accumulator for the fused derivative pass.
    diff: Vec<f64>,
    /// Derivative output buffer (first `N_attr` entries valid).
    derivs: Vec<f64>,
    /// Cached per-term interval products (multi-variable sweeps).
    iprods: Vec<f64>,
    /// Factor-major interval differences `prefix[hi] − prefix[lo]`, one per
    /// constrained factor — stage 1 of the derivative and interval-product
    /// passes.
    fdiff: Vec<f64>,
    /// Cached per-term `(δ−1)` products, valid while `multi_cache` matches
    /// the current multi values (query-time evaluation holds them fixed, so
    /// repeated passes skip the per-term fold entirely).
    dprod: Vec<f64>,
    multi_cache: Vec<f64>,
}

impl EvalScratch {
    /// The cached per-term interval products written by
    /// [`CompressedPolynomial::interval_products_prefilled`].
    pub fn iprods(&self) -> &[f64] {
        &self.iprods
    }

    /// The first `n` entries of the derivative buffer (valid after a
    /// derivative pass over an attribute with domain size `n`).
    pub fn derivs_slice(&self, n: usize) -> &[f64] {
        &self.derivs[..n]
    }
}

/// Default cap on the closure size; exceeding it means the statistics
/// overlap too much across attribute sets for this summary to be practical.
/// Binds closure components only: a component on the tree kernel
/// (`crate::tree`) has no closure to cap.
pub const DEFAULT_TERM_CAP: usize = 5_000_000;

impl CompressedPolynomial {
    /// Builds the compressed polynomial for the given domains and
    /// multi-dimensional statistics with the default term cap.
    pub fn build(domain_sizes: &[usize], stats: &[MultiDimStatistic]) -> Result<Self> {
        Self::build_with_cap(domain_sizes, stats, DEFAULT_TERM_CAP)
    }

    /// Builds the compressed polynomial with an explicit term cap: fails
    /// with [`ModelError::CompressionTooLarge`] as soon as the enumeration
    /// proves the closure has more than `cap` terms, before flattening it.
    ///
    /// Unlike [`crate::statistics::Statistics`], this does **not** require
    /// same-attribute-set statistics to be disjoint — the identity holds for
    /// arbitrary rectangle statistics; disjointness only keeps the closure
    /// small.
    pub fn build_with_cap(
        domain_sizes: &[usize],
        stats: &[MultiDimStatistic],
        cap: usize,
    ) -> Result<Self> {
        let m = domain_sizes.len();
        for stat in stats {
            for c in stat.clauses() {
                let size = *domain_sizes
                    .get(c.attr.0)
                    .ok_or(ModelError::ShapeMismatch)?;
                if c.hi as usize >= size {
                    return Err(ModelError::Storage(
                        entropydb_storage::StorageError::CodeOutOfDomain {
                            attr: format!("A{}", c.attr.0),
                            code: c.hi,
                            domain_size: size,
                        },
                    ));
                }
            }
        }

        // Fix-point closure over compatible statistic subsets. Compatibility
        // (non-empty intersection of every shared projection) is
        // downward-closed, so growing sets by strictly increasing statistic
        // index enumerates each compatible subset exactly once.
        if stats.len() >= cap {
            return Err(ModelError::CompressionTooLarge { cap });
        }
        let mut entries: Vec<Entry> = stats
            .iter()
            .enumerate()
            .map(|(j, s)| Entry {
                deltas: vec![j as u32],
                ranges: s.clauses().iter().map(|c| (c.attr.0, c.lo, c.hi)).collect(),
            })
            .collect();
        let mut next = 0;
        while next < entries.len() {
            let last = *entries[next].deltas.last().expect("non-empty") as usize;
            for (j, stat) in stats.iter().enumerate().skip(last + 1) {
                if let Some(ranges) = intersect_ranges(&entries[next].ranges, stat) {
                    if entries.len() + 1 >= cap {
                        return Err(ModelError::CompressionTooLarge { cap });
                    }
                    let mut deltas = entries[next].deltas.clone();
                    deltas.push(j as u32);
                    entries.push(Entry { deltas, ranges });
                }
            }
            next += 1;
        }

        // Flatten into the CSR arena: base term first, then one term per
        // compatible subset, **sorted by constrained-attribute set** so the
        // term walk sees maximal runs of uniform shape (run_offsets below).
        // Factors spanning an attribute's full domain are dropped from the
        // constrained lists — the evaluation kernels supply them through the
        // complement product of whole-attribute totals.
        let mut prefix_starts = Vec::with_capacity(m + 1);
        let mut acc = 0u32;
        for &n in domain_sizes {
            prefix_starts.push(acc);
            acc += n as u32 + 1;
        }
        prefix_starts.push(acc);

        let num_terms = entries.len() + 1;
        let mut delta_offsets = Vec::with_capacity(num_terms + 1);
        let mut delta_ids = Vec::new();
        let mut constr_offsets = Vec::with_capacity(num_terms + 1);
        let mut constr_attrs = Vec::new();
        let mut constr_lo = Vec::new();
        let mut constr_hi = Vec::new();
        let mut pair_lo = Vec::new();
        let mut pair_hi = Vec::new();
        let mut term_attrset = Vec::with_capacity(num_terms);
        let mut attrset_lookup: HashMap<Vec<u32>, u32> = HashMap::new();
        let mut attrset_offsets: Vec<u32> = vec![0];
        let mut attrset_attrs: Vec<u32> = Vec::new();
        let mut terms_with_delta = vec![Vec::new(); stats.len()];

        let mut intern_attrset = |attrs: Vec<u32>| -> u32 {
            if let Some(&id) = attrset_lookup.get(&attrs) {
                return id;
            }
            let id = attrset_lookup.len() as u32;
            attrset_attrs.extend_from_slice(&attrs);
            attrset_offsets.push(attrset_attrs.len() as u32);
            attrset_lookup.insert(attrs, id);
            id
        };

        // Pre-pass: intern each entry's constrained-attribute set (the base
        // term's empty set first, so it keeps id 0) in first-appearance
        // order, then order the entries by attrset id. The sort is stable,
        // so within a run terms keep their closure-enumeration order.
        let base_set = intern_attrset(Vec::new());
        debug_assert_eq!(base_set, 0);
        let entry_sets: Vec<u32> = entries
            .iter()
            .map(|e| {
                let set: Vec<u32> = e
                    .ranges
                    .iter()
                    .filter(|&&(attr, lo, hi)| {
                        !(lo == 0 && (hi as usize) + 1 == domain_sizes[attr])
                    })
                    .map(|&(attr, _, _)| attr as u32)
                    .collect();
                intern_attrset(set)
            })
            .collect();
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by_key(|&i| entry_sets[i]);

        // Base term: S = ∅, no constrained factors.
        delta_offsets.push(0u32);
        delta_offsets.push(0u32);
        constr_offsets.push(0u32);
        constr_offsets.push(0u32);
        term_attrset.push(0u32);

        for (t, &ei) in order.iter().enumerate() {
            let e = &entries[ei];
            let term_id = (t + 1) as u32;
            for &(attr, lo, hi) in &e.ranges {
                if lo == 0 && (hi as usize) + 1 == domain_sizes[attr] {
                    continue; // full-domain factor → complement product
                }
                constr_attrs.push(attr as u32);
                constr_lo.push(lo);
                constr_hi.push(hi);
                pair_lo.push(prefix_starts[attr] + lo);
                pair_hi.push(prefix_starts[attr] + hi + 1);
            }
            constr_offsets.push(constr_attrs.len() as u32);
            term_attrset.push(entry_sets[ei]);
            for &d in &e.deltas {
                delta_ids.push(d);
                terms_with_delta[d as usize].push(term_id);
            }
            delta_offsets.push(delta_ids.len() as u32);
        }

        // Maximal runs of equal attrset (the base term merges into the first
        // run when the first sorted entries share its empty set).
        let mut run_offsets: Vec<u32> = vec![0];
        for t in 1..num_terms {
            if term_attrset[t] != term_attrset[t - 1] {
                run_offsets.push(t as u32);
            }
        }
        run_offsets.push(num_terms as u32);

        // CSR multi → terms.
        let mut delta_term_offsets = Vec::with_capacity(stats.len() + 1);
        let mut delta_terms = Vec::new();
        delta_term_offsets.push(0u32);
        for terms in &terms_with_delta {
            delta_terms.extend_from_slice(terms);
            delta_term_offsets.push(delta_terms.len() as u32);
        }

        // The segment kernels gather `prefix[hi] − prefix[lo]` without
        // per-factor bounds checks; every constrained-factor index must land
        // inside the prefix slab. The layout above guarantees it
        // (`pair_hi ≤ prefix_starts[attr + 1] − 1`) — enforced here once per
        // build so the kernels' safety never rests on a debug build.
        let slab = *prefix_starts.last().unwrap();
        assert!(
            pair_lo
                .iter()
                .zip(&pair_hi)
                .all(|(&l, &h)| l < h && h < slab),
            "constrained-factor indices must land inside the prefix slab"
        );

        let pair_packed = if slab <= u16::MAX as u32 {
            Some(
                pair_lo
                    .iter()
                    .zip(&pair_hi)
                    .map(|(&lo, &hi)| lo | (hi << 16))
                    .collect(),
            )
        } else {
            None
        };

        Ok(CompressedPolynomial {
            domain_sizes: domain_sizes.to_vec(),
            num_multi: stats.len(),
            delta_offsets,
            delta_ids,
            delta_term_offsets,
            delta_terms,
            constr_offsets,
            constr_attrs,
            constr_lo,
            constr_hi,
            pair_lo,
            pair_hi,
            pair_packed,
            term_attrset,
            attrset_offsets,
            attrset_attrs,
            run_offsets,
            prefix_starts,
            max_domain: domain_sizes.iter().copied().max().unwrap_or(0),
        })
    }

    /// Number of attributes `m`.
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

    /// Number of compressed terms (including the base term).
    pub fn num_terms(&self) -> usize {
        self.delta_offsets.len() - 1
    }

    /// Size accounting (paper Sec. 4.1 / Theorem 4.2 discussion).
    pub fn size_stats(&self) -> PolynomialSizeStats {
        PolynomialSizeStats {
            num_terms: self.num_terms(),
            constrained_factors: self.constr_attrs.len(),
            delta_factors: self.delta_ids.len(),
            uncompressed_monomials: self
                .domain_sizes
                .iter()
                .fold(1u128, |acc, &n| acc.saturating_mul(n as u128)),
            tree_cells: 0,
            tree_components: 0,
            closure_components: 1,
        }
    }

    /// Validates that an assignment matches this polynomial's shape.
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

    /// Allocates an evaluation workspace sized for this polynomial. Reuse it
    /// across calls: every kernel below runs allocation-free against a
    /// matching scratch.
    pub fn make_scratch(&self) -> EvalScratch {
        EvalScratch {
            prefix: vec![0.0; *self.prefix_starts.last().expect("non-empty") as usize],
            totals: vec![0.0; self.arity()],
            set_comp: vec![0.0; self.attrset_offsets.len() - 1],
            diff: vec![0.0; self.max_domain + 1],
            derivs: vec![0.0; self.max_domain],
            iprods: vec![0.0; self.num_terms()],
            fdiff: vec![0.0; self.constr_attrs.len()],
            // With no multi statistics every delta product is the empty
            // product 1.0 and the (empty) cache is valid from the start;
            // otherwise the NaN sentinel forces the first pass to compute.
            dprod: vec![1.0; self.num_terms()],
            multi_cache: vec![f64::NAN; self.num_multi],
        }
    }

    /// Refreshes the cached per-term `(δ−1)` products when the multi values
    /// changed since the last pass against this scratch.
    fn ensure_delta_products(&self, multi: &[f64], s: &mut EvalScratch) {
        if s.multi_cache.as_slice() == multi {
            return;
        }
        for (t, slot) in s.dprod.iter_mut().enumerate() {
            *slot = self.delta_product(t, multi);
        }
        s.multi_cache.copy_from_slice(multi);
    }

    #[inline]
    fn scratch_fits(&self, s: &EvalScratch) -> bool {
        s.prefix.len() == *self.prefix_starts.last().expect("non-empty") as usize
            && s.totals.len() == self.arity()
            && s.set_comp.len() == self.attrset_offsets.len() - 1
            && s.diff.len() == self.max_domain + 1
            && s.derivs.len() == self.max_domain
            && s.iprods.len() == self.num_terms()
            && s.fdiff.len() == self.constr_attrs.len()
            && s.dprod.len() == self.num_terms()
            && s.multi_cache.len() == self.num_multi
    }

    /// Computes one prefix row from values and optional weights; returns the
    /// row total.
    #[inline]
    fn fill_row(row: &mut [f64], vals: &[f64], weights: Option<&[f64]>) -> f64 {
        let mut acc = 0.0;
        row[0] = 0.0;
        match weights {
            Some(w) => {
                for (slot, (&wv, &xv)) in row[1..].iter_mut().zip(w.iter().zip(vals)) {
                    acc += wv * xv;
                    *slot = acc;
                }
            }
            None => {
                for (slot, &xv) in row[1..].iter_mut().zip(vals) {
                    acc += xv;
                    *slot = acc;
                }
            }
        }
        acc
    }

    /// Fills the scratch's prefix-sum slab and attribute totals from
    /// per-attribute value slices: `get(i)` returns attribute `i`'s variable
    /// values and optional mask weights. `prefix[start+v+1] − prefix[start+lo]`
    /// is then the interval sum `Σ w·α` over `[lo, v]`.
    pub fn fill_scratch_with<'a>(
        &self,
        s: &mut EvalScratch,
        get: impl Fn(usize) -> (&'a [f64], Option<&'a [f64]>),
    ) {
        debug_assert!(self.scratch_fits(s));
        for (i, &n) in self.domain_sizes.iter().enumerate() {
            let start = self.prefix_starts[i] as usize;
            let (vals, weights) = get(i);
            s.totals[i] = Self::fill_row(&mut s.prefix[start..start + n + 1], vals, weights);
        }
    }

    /// Fills the scratch from a full assignment and mask.
    pub fn fill_scratch(&self, s: &mut EvalScratch, a: &VarAssignment, mask: &Mask) {
        debug_assert!(self.check_shape(a).is_ok());
        self.fill_scratch_with(s, |i| (a.one_dim[i].as_slice(), mask.attr_weights(i)));
    }

    /// Computes the complement products: for every constrained-attribute
    /// set, the product of whole-attribute totals over attributes *outside*
    /// the set (and not equal to `excl`, when given).
    fn compute_set_products(&self, s: &mut EvalScratch, excl: Option<usize>) {
        let m = self.arity();
        for set in 0..self.attrset_offsets.len() - 1 {
            let lo = self.attrset_offsets[set] as usize;
            let hi = self.attrset_offsets[set + 1] as usize;
            let members = &self.attrset_attrs[lo..hi];
            let mut k = 0;
            let mut prod = 1.0;
            for (attr, &total) in s.totals[..m].iter().enumerate() {
                if k < members.len() && members[k] as usize == attr {
                    k += 1;
                    continue;
                }
                if excl == Some(attr) {
                    continue;
                }
                prod *= total;
            }
            s.set_comp[set] = prod;
        }
    }

    #[inline]
    fn delta_product(&self, term: usize, multi: &[f64]) -> f64 {
        let lo = self.delta_offsets[term] as usize;
        let hi = self.delta_offsets[term + 1] as usize;
        self.delta_ids[lo..hi]
            .iter()
            .fold(1.0, |acc, &j| acc * (multi[j as usize] - 1.0))
    }

    /// Stage 1 of the derivative and interval-product passes: materializes
    /// every constrained factor's interval sum `prefix[hi] − prefix[lo]`
    /// into the factor-major `fdiff` buffer. One flat, branch-free
    /// subtraction loop over precomputed absolute slab indices (contiguous
    /// stores — the auto-vectorization target).
    fn compute_factor_diffs(&self, s: &mut EvalScratch) {
        let EvalScratch { prefix, fdiff, .. } = s;
        for ((d, &hi), &lo) in fdiff.iter_mut().zip(&self.pair_hi).zip(&self.pair_lo) {
            *d = prefix[hi as usize] - prefix[lo as usize];
        }
    }

    /// Branch-free term sum over every term: runs of terms sharing one
    /// attrset are summed by width-specialized segment kernels. Within a
    /// run the complement product `sc` and the per-term factor count `K`
    /// are loop invariants, so the inner loop is a fixed-shape multiply
    /// chain with **no per-term branching** (no zero early-outs, no mask
    /// membership tests) feeding four striped accumulators — the shape
    /// LLVM auto-vectorizes. Requires a filled scratch with complement
    /// products and refreshed delta products.
    ///
    /// Interval sums are gathered inline (`prefix[hi] − prefix[lo]` on the
    /// L1-resident slab) rather than read from a materialized `fdiff`
    /// buffer: at large closures the kernel is memory-bound, and skipping
    /// the factor-major store+reload pass roughly halves the streamed
    /// bytes per evaluation.
    fn sum_terms(&self, s: &EvalScratch) -> f64 {
        match &self.pair_packed {
            Some(packed) => self.sum_terms_with(s, PackedPairs(packed)),
            None => self.sum_terms_with(
                s,
                WidePairs {
                    lo: &self.pair_lo,
                    hi: &self.pair_hi,
                },
            ),
        }
    }

    fn sum_terms_with<P: PairLookup>(&self, s: &EvalScratch, pairs: P) -> f64 {
        let EvalScratch {
            prefix,
            set_comp,
            dprod,
            ..
        } = s;
        // One release-mode slab-length check per call covers every unchecked
        // gather below: `build` asserts all pair indices below the slab
        // length, so any index the kernels decode lands inside `prefix`.
        assert!(prefix.len() >= *self.prefix_starts.last().expect("non-empty") as usize);
        let mut p = 0.0;
        for run in self.run_offsets.windows(2) {
            let (t, seg_end) = (run[0] as usize, run[1] as usize);
            let aset = self.term_attrset[t] as usize;
            let sc = set_comp[aset];
            let k = (self.attrset_offsets[aset + 1] - self.attrset_offsets[aset]) as usize;
            let f0 = self.constr_offsets[t] as usize;
            debug_assert_eq!(
                self.constr_offsets[seg_end] as usize,
                f0 + (seg_end - t) * k,
                "run not uniform in factor count"
            );
            p += match k {
                0 => seg_sum::<0, P>(dprod, sc, prefix, pairs, f0, t..seg_end),
                1 => seg_sum::<1, P>(dprod, sc, prefix, pairs, f0, t..seg_end),
                2 => seg_sum::<2, P>(dprod, sc, prefix, pairs, f0, t..seg_end),
                3 => seg_sum::<3, P>(dprod, sc, prefix, pairs, f0, t..seg_end),
                4 => seg_sum::<4, P>(dprod, sc, prefix, pairs, f0, t..seg_end),
                _ => seg_sum_generic(dprod, sc, prefix, pairs, f0, k, t..seg_end),
            };
        }
        p
    }

    /// Evaluates `P` at `a` (convenience wrapper; allocates a scratch).
    pub fn eval(&self, a: &VarAssignment) -> f64 {
        self.eval_masked(a, &Mask::identity(self.arity()))
    }

    /// Evaluates `P` with 1D variables scaled by `mask` — the Sec. 4.2 query
    /// evaluation (and its `SUM`-weight generalization).
    ///
    /// Convenience-only: **allocates a fresh [`EvalScratch`] per call**, so
    /// it must never sit on a query hot path — every production caller
    /// routes through [`CompressedPolynomial::eval_masked_with`] against a
    /// pooled scratch (see `ScratchPool` in `crate::engine`). Kept for
    /// one-shot uses (the build-time `p_full` constant, tests) and marked
    /// `#[cold]` so the optimizer keeps it off the fast path.
    #[cold]
    pub fn eval_masked(&self, a: &VarAssignment, mask: &Mask) -> f64 {
        self.eval_masked_with(a, mask, &mut self.make_scratch())
    }

    /// Allocation-free masked evaluation against a reusable scratch.
    pub fn eval_masked_with(&self, a: &VarAssignment, mask: &Mask, s: &mut EvalScratch) -> f64 {
        self.fill_scratch(s, a, mask);
        self.eval_prefilled(&a.multi, s)
    }

    /// Evaluates `P` against an already-filled scratch (the prefix slab
    /// encodes the 1D variables and mask; only `multi` is taken from the
    /// caller). Used by the solver, which fills the slab before each pass.
    pub fn eval_prefilled(&self, multi: &[f64], s: &mut EvalScratch) -> f64 {
        self.ensure_delta_products(multi, s);
        self.compute_set_products(s, None);
        self.sum_terms(s)
    }

    /// Fused pass returning `(P, dP/dα_{attr,v} for every v)` under `mask`
    /// (convenience wrapper; allocates a scratch and an output vector).
    pub fn eval_with_attr_derivatives(
        &self,
        a: &VarAssignment,
        mask: &Mask,
        attr: usize,
    ) -> (f64, Vec<f64>) {
        let mut s = self.make_scratch();
        let (p, derivs) = self.eval_with_attr_derivatives_with(a, mask, attr, &mut s);
        (p, derivs.to_vec())
    }

    /// Allocation-free fused evaluation + per-attribute derivative pass.
    ///
    /// Derivatives are with respect to the *raw* variable `α`, so the mask
    /// weight multiplies in: `dP/dα_{attr,v} = w_v · Σ_{terms covering v}
    /// (product of the term's other factors)`. The per-term exclusive
    /// products are accumulated into a difference array over the term's
    /// value interval, so the pass costs `O(Σ constrained factors + N_attr)`.
    ///
    /// By overcompleteness (Eq. 7), `P = Σ_v α_v · dP/dα_v`, which is how the
    /// returned `P` is assembled. The derivative slice borrows the scratch.
    pub fn eval_with_attr_derivatives_with<'s>(
        &self,
        a: &VarAssignment,
        mask: &Mask,
        attr: usize,
        s: &'s mut EvalScratch,
    ) -> (f64, &'s [f64]) {
        debug_assert!(attr < self.arity());
        self.fill_scratch(s, a, mask);
        self.derivs_prefilled(&a.multi, &a.one_dim[attr], mask.attr_weights(attr), attr, s)
    }

    /// The derivative pass against an already-filled scratch.
    /// `attr_values` are attribute `attr`'s current variable values and
    /// `attr_weights` its mask weights (`None` = all 1).
    pub fn derivs_prefilled<'s>(
        &self,
        multi: &[f64],
        attr_values: &[f64],
        attr_weights: Option<&[f64]>,
        attr: usize,
        s: &'s mut EvalScratch,
    ) -> (f64, &'s [f64]) {
        let n_attr = self.domain_sizes[attr];
        if n_attr == 0 {
            return (0.0, &s.derivs[..0]);
        }
        self.ensure_delta_products(multi, s);
        self.compute_set_products(s, Some(attr));
        self.compute_factor_diffs(s);
        s.diff[..n_attr + 1].fill(0.0);

        for t in 0..self.num_terms() {
            let mut excl = s.dprod[t];
            if excl == 0.0 {
                continue;
            }
            excl *= s.set_comp[self.term_attrset[t] as usize];
            let mut lo_t = 0u32;
            let mut hi_t = (n_attr - 1) as u32;
            let lo = self.constr_offsets[t] as usize;
            let hi = self.constr_offsets[t + 1] as usize;
            for k in lo..hi {
                if self.constr_attrs[k] as usize == attr {
                    lo_t = self.constr_lo[k];
                    hi_t = self.constr_hi[k];
                } else {
                    excl *= s.fdiff[k];
                }
            }
            if excl != 0.0 {
                s.diff[lo_t as usize] += excl;
                s.diff[hi_t as usize + 1] -= excl;
            }
        }

        let mut acc = 0.0;
        let mut p = 0.0;
        for v in 0..n_attr {
            acc += s.diff[v];
            let w = attr_weights.map_or(1.0, |w| w[v]);
            let d = w * acc;
            s.derivs[v] = d;
            p += attr_values[v] * d;
        }
        (p, &s.derivs[..n_attr])
    }

    /// Per-term products of the interval-sum factors only (no `(δ−1)`
    /// factors). Cached by the solver's multi-variable sweep: while only `δ`
    /// values change, these stay valid. Convenience wrapper; allocates.
    pub fn interval_products(&self, a: &VarAssignment, mask: &Mask) -> Vec<f64> {
        let mut s = self.make_scratch();
        self.fill_scratch(&mut s, a, mask);
        self.interval_products_prefilled(&mut s);
        s.iprods
    }

    /// Fills `scratch.iprods()` with the per-term interval products from an
    /// already-filled scratch. Allocation-free. (Interval products contain
    /// no `(δ−1)` factors, so no delta-product refresh is needed.)
    pub fn interval_products_prefilled(&self, s: &mut EvalScratch) {
        self.compute_set_products(s, None);
        self.compute_factor_diffs(s);
        let EvalScratch {
            set_comp,
            fdiff,
            iprods,
            ..
        } = s;
        for (t, slot) in iprods.iter_mut().enumerate() {
            let mut prod = set_comp[self.term_attrset[t] as usize];
            let lo = self.constr_offsets[t] as usize;
            let hi = self.constr_offsets[t + 1] as usize;
            for &d in &fdiff[lo..hi] {
                prod *= d;
            }
            *slot = prod;
        }
    }

    /// Evaluates `P` from cached interval products and current `δ` values.
    pub fn eval_from_interval_products(&self, iprods: &[f64], multi: &[f64]) -> f64 {
        debug_assert_eq!(iprods.len(), self.num_terms());
        iprods
            .iter()
            .enumerate()
            .map(|(t, &ip)| ip * self.delta_product(t, multi))
            .sum()
    }

    /// `dP/dδ_j` from cached interval products: only terms containing `δ_j`
    /// contribute, each with its other `(δ−1)` factors.
    pub fn delta_derivative(&self, iprods: &[f64], multi: &[f64], j: usize) -> f64 {
        let mut d = 0.0;
        let lo = self.delta_term_offsets[j] as usize;
        let hi = self.delta_term_offsets[j + 1] as usize;
        for &t in &self.delta_terms[lo..hi] {
            let t = t as usize;
            let dlo = self.delta_offsets[t] as usize;
            let dhi = self.delta_offsets[t + 1] as usize;
            let mut prod = iprods[t];
            for &other in &self.delta_ids[dlo..dhi] {
                if other as usize != j {
                    prod *= multi[other as usize] - 1.0;
                }
            }
            d += prod;
        }
        d
    }
}

/// Width-specialized segment sum:
/// `Σ_t dprod[t]·sc·∏_{j<K} (prefix[hi] − prefix[lo])` over a run segment
/// whose terms all carry exactly `K` constrained factors and one shared
/// complement product `sc`. Four striped accumulators break the
/// floating-point add latency chain (the old single-accumulator walk was
/// latency-bound at ~4 cycles/term); the final fold is
/// `(acc0 + acc1) + (acc2 + acc3)`. Interval sums are gathered straight
/// from the prefix slab (cache-resident, a few KB) instead of a
/// materialized diff buffer — same subtraction, same multiply order, half
/// the streamed bytes. No value-dependent skipping: every term takes the
/// identical op sequence, which keeps the result bits a pure function of
/// the inputs.
#[inline]
fn seg_sum<const K: usize, P: PairLookup>(
    dprod: &[f64],
    sc: f64,
    prefix: &[f64],
    pairs: P,
    f0: usize,
    seg: std::ops::Range<usize>,
) -> f64 {
    let t0 = seg.start;
    assert!(seg.end <= dprod.len() && f0 + (seg.end - t0) * K <= pairs.len());
    let mut acc = [0.0f64; 4];
    for t in seg {
        let i = t - t0;
        // SAFETY: `t` and the factor window `f0 + i·K + j` sit below the
        // lengths asserted above, and the decoded slab indices sit below
        // `prefix.len()` (every index is asserted against the slab length
        // in `build`, and the slab length against `prefix.len()` at the
        // `sum_terms_with` entry). Checked indexing here is ~13
        // predictable branches per term on the point-query hot path.
        unsafe {
            let mut prod = *dprod.get_unchecked(t) * sc;
            let base = f0 + i * K;
            for j in 0..K {
                let (lo, hi) = pairs.get(base + j);
                prod *= *prefix.get_unchecked(hi) - *prefix.get_unchecked(lo);
            }
            acc[i & 3] += prod;
        }
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Fallback for runs with more than four constrained factors per term; same
/// accumulator discipline as [`seg_sum`].
fn seg_sum_generic<P: PairLookup>(
    dprod: &[f64],
    sc: f64,
    prefix: &[f64],
    pairs: P,
    f0: usize,
    k: usize,
    seg: std::ops::Range<usize>,
) -> f64 {
    let t0 = seg.start;
    assert!(seg.end <= dprod.len() && f0 + (seg.end - t0) * k <= pairs.len());
    let mut acc = [0.0f64; 4];
    for t in seg {
        let i = t - t0;
        // SAFETY: as in `seg_sum` — covered by the segment assert above
        // plus the build-time/entry slab-length asserts.
        unsafe {
            let mut prod = *dprod.get_unchecked(t) * sc;
            let base = f0 + i * k;
            for j in base..base + k {
                let (lo, hi) = pairs.get(j);
                prod *= *prefix.get_unchecked(hi) - *prefix.get_unchecked(lo);
            }
            acc[i & 3] += prod;
        }
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Constrained-factor slab-index lookup, monomorphized into the segment
/// kernels: either one packed `lo | hi << 16` word per factor (the common
/// case — half the index stream) or the two wide `u32` arrays. Decoding
/// never touches the FP values, so both layouts produce bitwise-identical
/// sums.
trait PairLookup: Copy {
    /// Number of factors in the stream (bounds for [`PairLookup::get`]).
    fn len(self) -> usize;

    /// The factor's `(lo, hi)` absolute prefix-slab indices, without a
    /// bounds check.
    ///
    /// # Safety
    /// `j` must be below [`PairLookup::len`]. Callers in the segment
    /// kernels assert this over each whole segment up front; the per-factor
    /// check would otherwise be ~13 predictable branches per term on the
    /// point-query hot path.
    unsafe fn get(self, j: usize) -> (usize, usize);
}

#[derive(Clone, Copy)]
struct PackedPairs<'a>(&'a [u32]);

impl PairLookup for PackedPairs<'_> {
    #[inline(always)]
    fn len(self) -> usize {
        self.0.len()
    }

    #[inline(always)]
    unsafe fn get(self, j: usize) -> (usize, usize) {
        let v = unsafe { *self.0.get_unchecked(j) };
        ((v & 0xFFFF) as usize, (v >> 16) as usize)
    }
}

#[derive(Clone, Copy)]
struct WidePairs<'a> {
    lo: &'a [u32],
    hi: &'a [u32],
}

impl PairLookup for WidePairs<'_> {
    #[inline(always)]
    fn len(self) -> usize {
        self.lo.len().min(self.hi.len())
    }

    #[inline(always)]
    unsafe fn get(self, j: usize) -> (usize, usize) {
        unsafe {
            (
                *self.lo.get_unchecked(j) as usize,
                *self.hi.get_unchecked(j) as usize,
            )
        }
    }
}

/// Intersects an entry's ranges with a statistic's clauses; `None` when any
/// shared attribute's intersection is empty.
fn intersect_ranges(
    ranges: &[(usize, u32, u32)],
    stat: &MultiDimStatistic,
) -> Option<Vec<(usize, u32, u32)>> {
    let mut out = Vec::with_capacity(ranges.len() + stat.clauses().len());
    let mut ai = 0;
    let mut bi = 0;
    let clauses = stat.clauses();
    while ai < ranges.len() && bi < clauses.len() {
        let (attr_a, lo_a, hi_a) = ranges[ai];
        let c = &clauses[bi];
        match attr_a.cmp(&c.attr.0) {
            std::cmp::Ordering::Less => {
                out.push(ranges[ai]);
                ai += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push((c.attr.0, c.lo, c.hi));
                bi += 1;
            }
            std::cmp::Ordering::Equal => {
                let lo = lo_a.max(c.lo);
                let hi = hi_a.min(c.hi);
                if lo > hi {
                    return None;
                }
                out.push((attr_a, lo, hi));
                ai += 1;
                bi += 1;
            }
        }
    }
    out.extend_from_slice(&ranges[ai..]);
    for c in &clauses[bi..] {
        out.push((c.attr.0, c.lo, c.hi));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use entropydb_storage::AttrId;

    fn a(i: usize) -> AttrId {
        AttrId(i)
    }

    fn rect(ax: usize, x: (u32, u32), ay: usize, y: (u32, u32)) -> MultiDimStatistic {
        MultiDimStatistic::rect2d(a(ax), x, a(ay), y).unwrap()
    }

    #[test]
    fn no_stats_single_base_term() {
        let p = CompressedPolynomial::build(&[3, 4], &[]).unwrap();
        assert_eq!(p.num_terms(), 1);
        let ones = VarAssignment::ones(&[3, 4], 0);
        // P(1,...,1) counts tuples: 3 * 4.
        assert_eq!(p.eval(&ones), 12.0);
    }

    #[test]
    fn single_stat_two_terms() {
        let stats = vec![rect(0, (1, 2), 1, (0, 0))];
        let p = CompressedPolynomial::build(&[4, 3], &stats).unwrap();
        assert_eq!(p.num_terms(), 2);
        // With δ = 1 the correction vanishes.
        let ones = VarAssignment::ones(&[4, 3], 1);
        assert_eq!(p.eval(&ones), 12.0);
        // With δ = 2 the 2 covered cells are double-counted once more.
        let mut two = ones.clone();
        two.multi[0] = 2.0;
        assert_eq!(p.eval(&two), 12.0 + 2.0);
    }

    #[test]
    fn disjoint_same_pair_stats_do_not_combine() {
        let stats = vec![rect(0, (0, 1), 1, (0, 1)), rect(0, (2, 3), 1, (0, 1))];
        let p = CompressedPolynomial::build(&[4, 3], &stats).unwrap();
        // base + 2 singletons; the pair has empty intersection on attr 0.
        assert_eq!(p.num_terms(), 3);
    }

    #[test]
    fn overlapping_cross_pair_stats_combine() {
        // AB stat and BC stat overlapping on B (the paper's Eq. 13-15 shape).
        let ab = rect(0, (1, 2), 1, (5, 6));
        let bc = rect(1, (5, 5), 2, (0, 3));
        let p = CompressedPolynomial::build(&[10, 10, 10], &[ab, bc]).unwrap();
        // base + {ab} + {bc} + {ab,bc}.
        assert_eq!(p.num_terms(), 4);
    }

    #[test]
    fn incompatible_cross_pair_stats_do_not_combine() {
        let ab = rect(0, (1, 2), 1, (5, 6));
        let bc = rect(1, (7, 9), 2, (0, 3));
        let p = CompressedPolynomial::build(&[10, 10, 10], &[ab, bc]).unwrap();
        assert_eq!(p.num_terms(), 3);
    }

    #[test]
    fn paper_example_3_2_and_3_3_term_count() {
        // Example 3.3: R(A,B,C), two values each, four 2D cell statistics:
        // (A=a1,B=b1), (A=a2,B=b2), (B=b1,C=c1), (B=b2,C=c1).
        let stats = vec![
            MultiDimStatistic::cell2d(a(0), 0, a(1), 0).unwrap(),
            MultiDimStatistic::cell2d(a(0), 1, a(1), 1).unwrap(),
            MultiDimStatistic::cell2d(a(1), 0, a(2), 0).unwrap(),
            MultiDimStatistic::cell2d(a(1), 1, a(2), 0).unwrap(),
        ];
        let p = CompressedPolynomial::build(&[2, 2, 2], &stats).unwrap();
        // Compatible subsets: 4 singletons + {ab11, bc11} + {ab22, bc21}
        // (AB and BC stats combine only when the B projections agree).
        assert_eq!(p.num_terms(), 1 + 4 + 2);

        // Eq. 6 check: with concrete values, compare against the hand-
        // expanded sum-of-products polynomial.
        let mut asn = VarAssignment::ones(&[2, 2, 2], 4);
        asn.one_dim[0] = vec![0.3, 0.7]; // α1, α2
        asn.one_dim[1] = vec![0.8, 0.2]; // β1, β2
        asn.one_dim[2] = vec![0.6, 0.4]; // γ1, γ2
        asn.multi = vec![2.0, 3.0, 5.0, 7.0]; // [αβ]11, [αβ]22, [βγ]11, [βγ]21
        let (al, be, ga) = (&asn.one_dim[0], &asn.one_dim[1], &asn.one_dim[2]);
        let (ab11, ab22, bc11, bc21) = (2.0, 3.0, 5.0, 7.0);
        let expected = al[0] * be[0] * ga[0] * ab11 * bc11
            + al[0] * be[0] * ga[1] * ab11
            + al[0] * be[1] * ga[0] * bc21
            + al[0] * be[1] * ga[1]
            + al[1] * be[0] * ga[0] * bc11
            + al[1] * be[0] * ga[1]
            + al[1] * be[1] * ga[0] * ab22 * bc21
            + al[1] * be[1] * ga[1] * ab22;
        assert!((p.eval(&asn) - expected).abs() < 1e-12);
    }

    #[test]
    fn masked_eval_zeroes_values() {
        let stats = vec![rect(0, (1, 2), 1, (0, 0))];
        let p = CompressedPolynomial::build(&[4, 3], &stats).unwrap();
        let ones = VarAssignment::ones(&[4, 3], 1);
        // Query A ∈ [0,1]: 2 of 4 A-values stay, all B stay → 6 tuples.
        let pred = entropydb_storage::Predicate::new().between(a(0), 0, 1);
        let mask = Mask::from_predicate(&pred, &[4, 3]).unwrap();
        assert_eq!(p.eval_masked(&ones, &mask), 6.0);
    }

    #[test]
    fn attr_derivatives_match_generic_derivative() {
        let stats = vec![rect(0, (1, 2), 1, (0, 1)), rect(1, (1, 2), 2, (2, 4))];
        let p = CompressedPolynomial::build(&[4, 3, 5], &stats).unwrap();
        let mut asn = VarAssignment::ones(&[4, 3, 5], 2);
        for (i, vs) in asn.one_dim.iter_mut().enumerate() {
            for (v, x) in vs.iter_mut().enumerate() {
                *x = 0.1 + 0.07 * (i + 1) as f64 * (v + 1) as f64;
            }
        }
        asn.multi = vec![0.5, 1.7];
        let mask = Mask::identity(3);
        for attr in 0..3 {
            let (pv, derivs) = p.eval_with_attr_derivatives(&asn, &mask, attr);
            assert!((pv - p.eval(&asn)).abs() < 1e-12 * pv.abs().max(1.0));
            for (code, &d) in derivs.iter().enumerate() {
                // Finite difference check.
                let mut plus = asn.clone();
                plus.one_dim[attr][code] += 1e-6;
                let fd = (p.eval(&plus) - p.eval(&asn)) / 1e-6;
                assert!(
                    (d - fd).abs() < 1e-5 * d.abs().max(1.0),
                    "attr {attr} code {code}: {d} vs fd {fd}"
                );
            }
        }
    }

    #[test]
    fn delta_derivative_matches_finite_difference() {
        let stats = vec![rect(0, (1, 2), 1, (0, 1)), rect(1, (0, 1), 2, (2, 4))];
        let p = CompressedPolynomial::build(&[4, 3, 5], &stats).unwrap();
        let mut asn = VarAssignment::ones(&[4, 3, 5], 2);
        asn.multi = vec![0.4, 2.2];
        let mask = Mask::identity(3);
        let iprods = p.interval_products(&asn, &mask);
        for j in 0..2 {
            let d = p.delta_derivative(&iprods, &asn.multi, j);
            let mut plus = asn.clone();
            plus.multi[j] += 1e-6;
            let fd = (p.eval(&plus) - p.eval(&asn)) / 1e-6;
            assert!(
                (d - fd).abs() < 1e-5 * d.abs().max(1.0),
                "δ{j}: {d} vs {fd}"
            );
        }
        // eval_from_interval_products agrees with eval.
        let pv = p.eval_from_interval_products(&iprods, &asn.multi);
        assert!((pv - p.eval(&asn)).abs() < 1e-12 * pv.abs().max(1.0));
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        let stats = vec![rect(0, (1, 2), 1, (0, 1)), rect(1, (1, 2), 2, (2, 4))];
        let p = CompressedPolynomial::build(&[4, 3, 5], &stats).unwrap();
        let mut asn = VarAssignment::ones(&[4, 3, 5], 2);
        asn.multi = vec![0.5, 1.7];
        let mut s = p.make_scratch();
        let mask = Mask::identity(3);
        // Interleave different kernels against one scratch; results must be
        // bitwise identical to one-shot evaluations.
        for _ in 0..3 {
            let v = p.eval_masked_with(&asn, &mask, &mut s);
            assert_eq!(v.to_bits(), p.eval(&asn).to_bits());
            for attr in 0..3 {
                let (pv, _) = p.eval_with_attr_derivatives_with(&asn, &mask, attr, &mut s);
                let (pv2, _) = p.eval_with_attr_derivatives(&asn, &mask, attr);
                assert_eq!(pv.to_bits(), pv2.to_bits());
            }
        }
    }

    #[test]
    fn term_cap_enforced() {
        // Heavily overlapping stats across attribute pairs blow up the
        // closure; a tiny cap must trigger the error — also when the
        // singletons alone exceed it — and the error names what keeps a
        // component off the uncapped tree kernel.
        let mut stats = Vec::new();
        for i in 0..6u32 {
            stats.push(rect(0, (0, 9), 1, (i, i)));
            stats.push(rect(1, (i, i), 2, (0, 9)));
        }
        for cap in [10, 12, 17] {
            let err = CompressedPolynomial::build_with_cap(&[10, 10, 10], &stats, cap).unwrap_err();
            assert_eq!(err, ModelError::CompressionTooLarge { cap });
            let text = err.to_string();
            for needle in [
                "cycle of attribute pairs",
                "three or more attributes",
                "overlapping same-pair rectangles",
                "forest of disjoint 2-D rectangles has no cap",
            ] {
                assert!(text.contains(needle), "{text}");
            }
        }
        // 12 singletons + 6 compatible pairs + the base term.
        let exact = CompressedPolynomial::build_with_cap(&[10, 10, 10], &stats, 19).unwrap();
        assert_eq!(exact.num_terms(), 19);
        assert!(CompressedPolynomial::build_with_cap(&[10, 10, 10], &stats, 18).is_err());
    }

    #[test]
    fn size_stats_report() {
        let stats = vec![rect(0, (1, 2), 1, (0, 0))];
        let p = CompressedPolynomial::build(&[4, 3], &stats).unwrap();
        let s = p.size_stats();
        assert_eq!(s.num_terms, 2);
        assert_eq!(s.uncompressed_monomials, 12);
        assert_eq!(s.delta_factors, 1);
        assert_eq!(s.constrained_factors, 2);
    }

    #[test]
    fn full_domain_statistic_folds_into_complement() {
        // A clause spanning the whole domain is mathematically the total sum:
        // it must not count as a constrained factor, and evaluation agrees
        // with the naive oracle.
        let stats = vec![rect(0, (0, 3), 1, (1, 1))];
        let p = CompressedPolynomial::build(&[4, 3], &stats).unwrap();
        assert_eq!(p.size_stats().constrained_factors, 1);
        let naive = crate::naive::NaivePolynomial::build(&[4, 3], &stats).unwrap();
        let mut asn = VarAssignment::ones(&[4, 3], 1);
        asn.one_dim[0] = vec![0.9, 0.1, 0.4, 0.2];
        asn.one_dim[1] = vec![0.3, 0.8, 0.5];
        asn.multi = vec![2.5];
        let (pc, pn) = (p.eval(&asn), naive.eval(&asn));
        assert!((pc - pn).abs() < 1e-12 * pn.abs().max(1.0), "{pc} vs {pn}");
    }

    #[test]
    fn shape_mismatch_detected() {
        let p = CompressedPolynomial::build(&[3, 4], &[]).unwrap();
        let bad = VarAssignment::ones(&[3, 5], 0);
        assert!(p.check_shape(&bad).is_err());
    }
}
