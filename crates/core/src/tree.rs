//! Tree message-passing kernel: `P[mask]` in `O(Σ|dom| + #rectangles)`.
//!
//! A component whose statistics are all 2-D rectangles is a pairwise Markov
//! random field over its attributes: every attribute pair `{X, Y}` that
//! carries statistics contributes the edge potential
//!
//! ```text
//! ψ_XY(x, y) = ∏_{rect j ∋ (x, y)} δ_j
//! ```
//!
//! and the component polynomial is `Σ_tuples ∏_i α_i·w_i · ∏_edges ψ`. The
//! closure of Theorem 4.1 ([`crate::polynomial`]) expands that product into
//! one term per compatible statistic subset — 150 043 terms for the
//! 900-rectangle Ent1&2&3 flights summary. But when
//!
//! 1. every statistic is 2-D,
//! 2. the attribute-pair graph is acyclic (every configuration the paper
//!    evaluates — Ent1&2, Ent3&4, Ent1&2&3 — is a forest of pairs), and
//! 3. same-pair rectangles are pairwise disjoint (Sec. 4.1, third
//!    assumption), so at most one rectangle covers a cell and
//!    `ψ_XY(x, y) = 1 + Σ_j (δ_j − 1)·[x ∈ I_j]·[y ∈ J_j]`,
//!
//! the sum over tuples is an exact leaf-to-root sum-product pass. For a
//! child `X` with parent `Y`, with `b_X(x) = α_x · w_x · ∏ child messages`
//! and `F_X` its prefix sum,
//!
//! ```text
//! m_{X→Y}(y) = F_X.total + Σ_{rect j ∋ y} (δ_j − 1) · (F_X[hi_j + 1] − F_X[lo_j])
//! ```
//!
//! which is one prefix sum over `X`'s domain, one difference-array update
//! per rectangle, and one scan over `Y`'s domain. Rooting the pass at
//! attribute `g` yields `P = Σ_v α_{g,v} · ∂P/∂α_{g,v}` *and* every
//! `∂P/∂α_{g,v} = w_v · ∏ messages into g` at once, so a group-by costs the
//! same single pass as a point query — and the solver's per-attribute
//! block is one such pass per attribute. Its `δ` block reads every
//! `∂P/∂δ_j` of an edge from that edge's *cavity* ([`TreeKernel::cavity`]).
//!
//! [`TreeKernel::build`] checks all three conditions (unlike
//! [`crate::statistics::Statistics`], [`crate::factorized`] accepts raw,
//! possibly overlapping statistics) and returns `None` when any fails; the
//! component is then built as a closure and answers exactly as before.
//! The tuple-enumerating [`crate::naive`] polynomial and closures built in
//! the tests are the parity oracles (`crates/core/tests/tree_kernel.rs`).
//!
//! The pass is not free where the closure is small: every edge costs a
//! prefix sum over the sender and a scan over the receiver, so a 48-leaf
//! star with one rectangle per edge (a 48-term closure) is answered 2.5×
//! faster by the closure. [`crate::factorized`] therefore weighs
//! [`TreeKernel::pass_cells`] against the closure's size — enumerating the
//! closure only until it is proven the larger — and a component holds the
//! smaller of the two, never both.
//!
//! ## Lanes
//!
//! The schedule, the rectangle list and the variables do not depend on the
//! mask, so [`TreeKernel::pass`] is generic over a compile-time lane count
//! `L` and answers `L` masks in one walk. Messages, prefix sums,
//! difference arrays and root derivatives are stored lane-major — cell `v`
//! of a row is `[f64; L]`, one value per mask — so each step streams the
//! same cells once and its prefix sums carry `L` independent accumulators
//! instead of one serial chain. [`crate::factorized`] runs a batch in
//! groups of 8, 4, 2 and 1 lanes; single-mask queries, group-by and the
//! solver run the one-lane instance of the same body.
//!
//! Each lane is bitwise the one-mask answer. Every lane performs exactly
//! the one-lane pass's float operations in the same order, and lanes never
//! mix. The only per-lane difference is an attribute that one mask of the
//! group constrains and another leaves free: the free lane reads weight
//! `1.0`, and `1.0 · x` is exactly `x`, so `(1.0 · x) · m` and `1.0 · m`
//! round as the unweighted `x · m` and `m` do. An attribute no lane
//! constrains takes the unweighted loops, as the one-mask pass does.
//!
//! ## Three paths
//!
//! The pass above is the third of three ways [`crate::factorized`] answers
//! a tree component, and the only one that walks it:
//!
//! 1. **A pinned point** — a mask leaving exactly one non-zero weight on
//!    every attribute — has one surviving tuple, so `P[mask]` is its
//!    monomial `∏ α_v·w_v · ∏_edges ψ(v_u, v_v)`.
//!    [`TreeKernel::point_potential`] reads each `ψ` with one lookup: the
//!    edge's rectangle boundaries cut both domains into slabs, and a grid
//!    over slab pairs names the rectangle covering the cell (`δ`), or none
//!    (`1`). The grid has at most `min(N, 2R + 1)` slabs a side and is
//!    capped at a multiple of `N_u + N_v + R` cells; an edge past the cap
//!    scans its `R` rectangles instead.
//! 2. **A free subtree** — one whose attributes no lane constrains — sends
//!    its parent the same message whatever the mask. A fitted model keeps
//!    every message of the mask-free tree ([`TreeKernel::free_messages`],
//!    both directions of every edge), and [`TreeKernel::pass_cached`]
//!    delivers that message instead of walking the subtree. The cached
//!    values come from the float operations [`TreeKernel::send`] runs on an
//!    unconstrained subtree, and reach the parent's message product in the
//!    same order, so the cached pass is bitwise the walk.
//! 3. **Everything else** walks, reading what it can from (2).

use crate::statistics::MultiDimStatistic;

/// One message `child → parent` of a rooted pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Step {
    child: u32,
    parent: u32,
    edge: u32,
    /// The child is the edge's lower-indexed attribute (`u`); otherwise the
    /// rectangle ranges are read swapped.
    child_is_u: bool,
    /// First message into the parent: assigns the parent's message product
    /// instead of multiplying into it.
    first: bool,
}

/// The message-passing evaluator of one tree-shaped component (see the
/// module docs). Attribute and statistic indices are component-local.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TreeKernel {
    domain_sizes: Vec<usize>,
    /// Attribute → row start in the message-product slab (`Σ N_i` cells).
    row_starts: Vec<usize>,
    /// Edge → its rectangles' slice of the arrays below.
    rect_offsets: Vec<usize>,
    /// Per rectangle, grouped by edge `(u, v)` with `u < v`: the half-open
    /// code range `[lo, end)` on each endpoint and the statistic's index.
    u_lo: Vec<u32>,
    u_end: Vec<u32>,
    v_lo: Vec<u32>,
    v_end: Vec<u32>,
    rect_multi: Vec<u32>,
    /// Root-major schedules: root `r`'s messages, children before parents,
    /// are `steps[r·(k−1) .. (r+1)·(k−1)]` for `k` attributes.
    steps: Vec<Step>,
    /// Edge → its endpoints `(u, v)`, `u < v`.
    edges: Vec<(u32, u32)>,
    /// Attribute → it has exactly one neighbour: when it sends to that
    /// neighbour, or the neighbour's message is left out of a cavity, it
    /// has received nothing and its belief is `α·w` alone.
    leaf: Vec<bool>,
    /// Edge-major cavity schedules: edge `e = (u, v)`'s messages — root
    /// `u`'s schedule without the `v → u` message — are
    /// `cavity_steps[e·(k−2) .. (e+1)·(k−2)]`.
    cavity_steps: Vec<Step>,
    /// Statistic → its edge and its slot in the edge-grouped arrays above.
    multi_edge: Vec<u32>,
    multi_slot: Vec<u32>,
    /// Cells one pass touches: both endpoint domains of every edge (the
    /// sender's prefix sum, the receiver's difference array and scan) plus
    /// one per rectangle.
    pass_cells: usize,
    /// Edge → the index finding the rectangle that covers a cell.
    stabs: Vec<Stab>,
    /// Directed edge → its message's slice of a [`TreeKernel::free_messages`]
    /// buffer: `u → v` of edge `e` is slot `2e`, `v → u` is `2e + 1`.
    message_starts: Vec<usize>,
}

/// The largest stabbing grid an edge gets, in cells per domain code and
/// rectangle of the edge; a larger one would scan the rectangles instead.
const STAB_CELLS_PER_ITEM: usize = 32;

/// Answers "which rectangle of this edge covers cell `(x, y)`?" for the
/// pinned-point product (module docs, "Three paths"). The edge's rectangle
/// boundaries cut each endpoint's domain into slabs; no rectangle starts or
/// ends inside a slab, so one grid cell per slab pair names the covering
/// rectangle. Its size is at most `min(N_u, 2R + 1) · min(N_v, 2R + 1)` and
/// capped at [`STAB_CELLS_PER_ITEM`] `· (N_u + N_v + R)`; past the cap the
/// lookup scans the edge's `R` rectangles.
#[derive(Debug, Clone, PartialEq)]
enum Stab {
    Grid {
        /// Code → slab, per endpoint.
        u_slab: Vec<u32>,
        v_slab: Vec<u32>,
        /// Slabs of `v`: the grid's row length.
        cols: usize,
        /// Slab pair → the covering statistic, or [`Stab::NONE`].
        cells: Vec<u32>,
    },
    Scan,
}

impl Stab {
    const NONE: u32 = u32::MAX;

    /// Code → slab over a domain of `n` codes cut at every `lo` and `end`;
    /// returns the slabs too.
    fn slabs(n: usize, lo: &[u32], end: &[u32]) -> (Vec<u32>, usize) {
        let mut cut = vec![false; n + 1];
        for (&l, &e) in lo.iter().zip(end) {
            cut[l as usize] = true;
            cut[e as usize] = true;
        }
        let mut slab = 0u32;
        let map = (0..n)
            .map(|x| {
                slab += u32::from(x > 0 && cut[x]);
                slab
            })
            .collect();
        (map, slab as usize + 1)
    }
}

/// The widest lane group [`TreeKernel::pass`] is instantiated for; every
/// [`TreeScratch`] holds this many lanes.
pub(crate) const MAX_LANES: usize = 8;

/// Reusable buffers for [`TreeKernel::pass`], sized for [`MAX_LANES`]
/// lanes (module docs) and stored lane-major; steady-state passes allocate
/// nothing.
#[derive(Debug, Clone)]
pub(crate) struct TreeScratch {
    /// Per attribute row: the product of the messages received so far.
    mprod: Vec<f64>,
    /// Prefix sum `F_X` of the sending attribute's belief.
    prefix: Vec<f64>,
    /// Difference array over the receiving attribute's domain.
    diff: Vec<f64>,
    /// `∂P/∂α_{root,v}` of the last pass.
    derivs: Vec<f64>,
    /// One attribute's mask weights, gathered lane-major.
    weights: Vec<f64>,
    /// Prefix sums `F_A`, `F_B` of the last [`TreeKernel::cavity`]'s two
    /// endpoint beliefs (one lane).
    cavity_u: Vec<f64>,
    cavity_v: Vec<f64>,
    /// Per attribute, during a pass reading cached messages: no lane
    /// constrains it or anything below it.
    free: Vec<bool>,
}

impl TreeScratch {
    /// The first `n` root derivatives of the last one-lane pass.
    pub(crate) fn derivs_slice(&self, n: usize) -> &[f64] {
        &self.derivs[..n]
    }
}

/// `L` masks' weights for one attribute, `None` where a mask leaves it
/// unconstrained.
pub(crate) type LaneWeights<'a, const L: usize> = [Option<&'a [f64]>; L];

/// `buf` as lane-major cells of `L` lanes.
fn cells<const L: usize>(buf: &[f64]) -> &[[f64; L]] {
    buf.as_chunks().0
}

fn cells_mut<const L: usize>(buf: &mut [f64]) -> &mut [[f64; L]] {
    buf.as_chunks_mut().0
}

/// Gathers an attribute's `n` weights lane-major into `buf`, with `1.0`
/// for a lane that leaves it unconstrained (exact: module docs); `None`
/// when every lane does, so the pass takes its unweighted loops. One lane
/// is already lane-major and is read in place.
fn gather_weights<'b, const L: usize>(
    weights: &LaneWeights<'b, L>,
    n: usize,
    buf: &'b mut [f64],
) -> Option<&'b [[f64; L]]> {
    if weights.iter().all(Option::is_none) {
        return None;
    }
    if let [Some(w)] = weights.as_slice() {
        return Some(cells::<L>(w));
    }
    let cells = &mut cells_mut::<L>(buf)[..n];
    for (l, w) in weights.iter().enumerate() {
        match w {
            Some(w) => {
                debug_assert_eq!(w.len(), n);
                for (cell, &wv) in cells.iter_mut().zip(*w) {
                    cell[l] = wv;
                }
            }
            None => cells.iter_mut().for_each(|cell| cell[l] = 1.0),
        }
    }
    Some(cells)
}

impl TreeKernel {
    /// Builds the kernel when the statistics qualify (module docs: all 2-D,
    /// acyclic and connected pair graph, disjoint same-pair rectangles) and
    /// `None` otherwise. Statistics must already be validated against
    /// `domain_sizes`.
    pub(crate) fn build(domain_sizes: &[usize], stats: &[MultiDimStatistic]) -> Option<Self> {
        let k = domain_sizes.len();
        if stats.is_empty() || stats.iter().any(|s| s.clauses().len() != 2) {
            return None;
        }
        // Rectangles grouped by attribute pair; clauses are sorted by
        // attribute, so `u < v`.
        let mut order: Vec<usize> = (0..stats.len()).collect();
        let pair = |j: usize| {
            let c = stats[j].clauses();
            (c[0].attr.0, c[1].attr.0)
        };
        order.sort_by_key(|&j| pair(j));
        let mut edges: Vec<(usize, usize)> = Vec::new();
        let mut rect_offsets = vec![0usize];
        for (pos, &j) in order.iter().enumerate() {
            if edges.last() != Some(&pair(j)) {
                if pos > 0 {
                    rect_offsets.push(pos);
                }
                edges.push(pair(j));
            }
        }
        rect_offsets.push(order.len());

        // A connected graph on k vertices is a tree iff it has k − 1 edges;
        // union-find rejects the cycle (or the disconnected remainder).
        if edges.len() + 1 != k {
            return None;
        }
        let mut parent: Vec<usize> = (0..k).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for &(u, v) in &edges {
            let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
            if ru == rv {
                return None;
            }
            parent[ru] = rv;
        }

        // Same-pair rectangles share both attributes, so two of them
        // intersect iff both clause ranges do.
        let overlap = |a: usize, b: usize| {
            let mut ranges = stats[a].clauses().iter().zip(stats[b].clauses());
            ranges.all(|(p, q)| p.lo <= q.hi && q.lo <= p.hi)
        };
        for e in 0..edges.len() {
            let rects = &order[rect_offsets[e]..rect_offsets[e + 1]];
            for (i, &a) in rects.iter().enumerate() {
                if rects[i + 1..].iter().any(|&b| overlap(a, b)) {
                    return None;
                }
            }
        }

        let clause = |side: usize| move |&j: &usize| stats[j].clauses()[side];
        let u_lo: Vec<u32> = order.iter().map(clause(0)).map(|c| c.lo).collect();
        let u_end: Vec<u32> = order.iter().map(clause(0)).map(|c| c.hi + 1).collect();
        let v_lo: Vec<u32> = order.iter().map(clause(1)).map(|c| c.lo).collect();
        let v_end: Vec<u32> = order.iter().map(clause(1)).map(|c| c.hi + 1).collect();
        let rect_multi: Vec<u32> = order.iter().map(|&j| j as u32).collect();

        let mut adjacent: Vec<Vec<(usize, usize)>> = vec![Vec::new(); k];
        for (e, &(u, v)) in edges.iter().enumerate() {
            adjacent[u].push((v, e));
            adjacent[v].push((u, e));
        }
        let leaf: Vec<bool> = adjacent.iter().map(|n| n.len() == 1).collect();
        let mut steps = Vec::with_capacity(k * (k - 1));
        for root in 0..k {
            // Depth-first discovery lists parents before children; the
            // reversed list sends every message after the ones it needs.
            let mut found: Vec<(usize, usize, usize)> = Vec::with_capacity(k - 1);
            let mut stack = vec![(root, usize::MAX)];
            while let Some((node, from)) = stack.pop() {
                for &(next, e) in &adjacent[node] {
                    if next != from {
                        found.push((next, node, e));
                        stack.push((next, node));
                    }
                }
            }
            let mut received = vec![false; k];
            for &(child, parent, e) in found.iter().rev() {
                steps.push(Step {
                    child: child as u32,
                    parent: parent as u32,
                    edge: e as u32,
                    child_is_u: edges[e].0 == child,
                    first: !std::mem::replace(&mut received[parent], true),
                });
            }
        }
        // Edge (u, v)'s cavity: everything root u's pass sends except the
        // message across the edge itself, so afterwards u's and v's message
        // products each hold their own side of the tree.
        let mut cavity_steps = Vec::with_capacity(edges.len() * k.saturating_sub(2));
        for (e, &(u, _)) in edges.iter().enumerate() {
            let mut received = vec![false; k];
            for step in &steps[u * (k - 1)..(u + 1) * (k - 1)] {
                if step.edge as usize != e {
                    cavity_steps.push(Step {
                        first: !std::mem::replace(&mut received[step.parent as usize], true),
                        ..*step
                    });
                }
            }
        }
        let mut multi_edge = vec![0u32; stats.len()];
        let mut multi_slot = vec![0u32; stats.len()];
        for e in 0..edges.len() {
            for slot in rect_offsets[e]..rect_offsets[e + 1] {
                multi_edge[order[slot]] = e as u32;
                multi_slot[order[slot]] = slot as u32;
            }
        }

        let mut row_starts = Vec::with_capacity(k + 1);
        let mut acc = 0usize;
        for &n in domain_sizes {
            row_starts.push(acc);
            acc += n;
        }
        row_starts.push(acc);

        let pass_cells = edges
            .iter()
            .map(|&(u, v)| domain_sizes[u] + domain_sizes[v])
            .sum::<usize>()
            + stats.len();

        let stabs = (0..edges.len())
            .map(|e| {
                let r = rect_offsets[e]..rect_offsets[e + 1];
                let (nu, nv) = (domain_sizes[edges[e].0], domain_sizes[edges[e].1]);
                let (u_slab, rows) = Stab::slabs(nu, &u_lo[r.clone()], &u_end[r.clone()]);
                let (v_slab, cols) = Stab::slabs(nv, &v_lo[r.clone()], &v_end[r.clone()]);
                if rows * cols > STAB_CELLS_PER_ITEM * (nu + nv + r.len()) {
                    return Stab::Scan;
                }
                let mut cells = vec![Stab::NONE; rows * cols];
                for slot in r {
                    let su = u_slab[u_lo[slot] as usize]..=u_slab[u_end[slot] as usize - 1];
                    let sv = v_slab[v_lo[slot] as usize] as usize
                        ..=v_slab[v_end[slot] as usize - 1] as usize;
                    for row in su {
                        cells[row as usize * cols..][sv.clone()].fill(rect_multi[slot]);
                    }
                }
                Stab::Grid {
                    u_slab,
                    v_slab,
                    cols,
                    cells,
                }
            })
            .collect();
        let mut message_starts = vec![0usize];
        for &(u, v) in &edges {
            for receiver in [v, u] {
                message_starts.push(message_starts.last().unwrap() + domain_sizes[receiver]);
            }
        }

        Some(TreeKernel {
            pass_cells,
            stabs,
            message_starts,
            domain_sizes: domain_sizes.to_vec(),
            row_starts,
            rect_offsets,
            u_lo,
            u_end,
            v_lo,
            v_end,
            rect_multi,
            steps,
            edges: edges.iter().map(|&(u, v)| (u as u32, v as u32)).collect(),
            leaf,
            cavity_steps,
            multi_edge,
            multi_slot,
        })
    }

    /// The pass's cost in touched cells, `Σ_edges (N_u + N_v) + #rectangles`
    /// — what [`crate::factorized`] weighs against the closure's term count.
    pub(crate) fn pass_cells(&self) -> usize {
        self.pass_cells
    }

    /// Allocates the buffers [`TreeKernel::pass`] needs for this kernel, for
    /// passes of up to [`MAX_LANES`] lanes.
    pub(crate) fn make_scratch(&self) -> TreeScratch {
        let max_domain = self.domain_sizes.iter().copied().max().unwrap_or(0);
        TreeScratch {
            mprod: vec![0.0; *self.row_starts.last().expect("non-empty") * MAX_LANES],
            prefix: vec![0.0; (max_domain + 1) * MAX_LANES],
            diff: vec![0.0; (max_domain + 1) * MAX_LANES],
            derivs: vec![0.0; max_domain * MAX_LANES],
            weights: vec![0.0; max_domain * MAX_LANES],
            cavity_u: vec![0.0; max_domain + 1],
            cavity_v: vec![0.0; max_domain + 1],
            free: vec![false; self.domain_sizes.len()],
        }
    }

    /// Prefix sum of attribute `x`'s belief `α·w·∏(messages received)` into
    /// `prefix[..=N_x]`, per lane; returns the totals. With `bare`, `x` has
    /// received no message and its belief is `α·w` alone.
    fn belief_prefix<const L: usize>(
        prefix: &mut [[f64; L]],
        vals: &[f64],
        weights: Option<&[[f64; L]]>,
        received: &[[f64; L]],
        bare: bool,
    ) -> [f64; L] {
        let mut acc = [0.0; L];
        prefix[0] = [0.0; L];
        let slots = prefix[1..].iter_mut();
        match (weights, bare) {
            (Some(w), false) => {
                for ((slot, m), (w, &xv)) in slots.zip(received).zip(w.iter().zip(vals)) {
                    for ((a, &wv), &mv) in acc.iter_mut().zip(w).zip(m) {
                        *a += wv * xv * mv;
                    }
                    *slot = acc;
                }
            }
            (None, false) => {
                for ((slot, m), &xv) in slots.zip(received).zip(vals) {
                    for (a, &mv) in acc.iter_mut().zip(m) {
                        *a += xv * mv;
                    }
                    *slot = acc;
                }
            }
            (Some(w), true) => {
                for (slot, (w, &xv)) in slots.zip(w.iter().zip(vals)) {
                    for (a, &wv) in acc.iter_mut().zip(w) {
                        *a += wv * xv;
                    }
                    *slot = acc;
                }
            }
            (None, true) => {
                for (slot, &xv) in slots.zip(vals) {
                    for a in &mut acc {
                        *a += xv;
                    }
                    *slot = acc;
                }
            }
        }
        acc
    }

    /// Attribute `x`'s row of the message-product slab, in cells.
    fn row(&self, x: usize) -> std::ops::Range<usize> {
        self.row_starts[x]..self.row_starts[x] + self.domain_sizes[x]
    }

    /// Computes one message `child → parent` (module docs) in every lane up
    /// to its last scan: leaves its difference array over the parent's
    /// domain in the scratch and returns `F_X.total`. The message at parent
    /// code `y` is `total + Σ_{y' ≤ y} diff[y']`.
    #[inline(always)]
    fn message<'a, const L: usize>(
        &self,
        step: &Step,
        multi: &[f64],
        get: &impl Fn(usize) -> (&'a [f64], LaneWeights<'a, L>),
        s: &mut TreeScratch,
    ) -> [f64; L] {
        let (x, y) = (step.child as usize, step.parent as usize);
        let (nx, ny) = (self.domain_sizes[x], self.domain_sizes[y]);
        let (vals, weights) = get(x);
        debug_assert_eq!(vals.len(), nx);

        // F_X: prefix sum of the child's belief α·w·∏(messages into X).
        let weights = gather_weights(&weights, nx, &mut s.weights);
        let prefix = &mut cells_mut::<L>(&mut s.prefix)[..nx + 1];
        let received = &cells::<L>(&s.mprod)[self.row(x)];
        let total = Self::belief_prefix(prefix, vals, weights, received, self.leaf[x]);

        // Every rectangle adds (δ − 1)·F_X[its x-range] over its y-range.
        let diff = &mut cells_mut::<L>(&mut s.diff)[..ny + 1];
        diff.fill([0.0; L]);
        let r = self.rect_offsets[step.edge as usize]..self.rect_offsets[step.edge as usize + 1];
        let (x_lo, x_end, y_lo, y_end) = if step.child_is_u {
            (&self.u_lo, &self.u_end, &self.v_lo, &self.v_end)
        } else {
            (&self.v_lo, &self.v_end, &self.u_lo, &self.u_end)
        };
        for ((((&xl, &xe), &yl), &ye), &j) in x_lo[r.clone()]
            .iter()
            .zip(&x_end[r.clone()])
            .zip(&y_lo[r.clone()])
            .zip(&y_end[r.clone()])
            .zip(&self.rect_multi[r])
        {
            let dm = multi[j as usize] - 1.0;
            let (hi, lo) = (&prefix[xe as usize], &prefix[xl as usize]);
            let c: [f64; L] = std::array::from_fn(|l| dm * (hi[l] - lo[l]));
            for (d, &cl) in diff[yl as usize].iter_mut().zip(&c) {
                *d += cl;
            }
            for (d, &cl) in diff[ye as usize].iter_mut().zip(&c) {
                *d -= cl;
            }
        }
        total
    }

    /// Sends one message `child → parent` (module docs) in every lane,
    /// multiplying it into the parent's message product.
    fn send<'a, const L: usize>(
        &self,
        step: &Step,
        multi: &[f64],
        get: &impl Fn(usize) -> (&'a [f64], LaneWeights<'a, L>),
        s: &mut TreeScratch,
    ) {
        let total = self.message(step, multi, get, s);
        let y = step.parent as usize;
        let mprod = cells_mut::<L>(&mut s.mprod);
        let into = mprod[self.row(y)].iter_mut().zip(cells::<L>(&s.diff));
        let mut acc = [0.0; L];
        let mut advance = |d: &[f64; L]| {
            for (a, &dl) in acc.iter_mut().zip(d) {
                *a += dl;
            }
            acc
        };
        if step.first {
            for (slot, d) in into {
                let acc = advance(d);
                *slot = std::array::from_fn(|l| total[l] + acc[l]);
            }
        } else {
            for (slot, d) in into {
                let acc = advance(d);
                for ((m, &t), &a) in slot.iter_mut().zip(&total).zip(&acc) {
                    *m *= t + a;
                }
            }
        }
    }

    /// Delivers a message computed earlier — the same in every lane — to
    /// the parent's message product, as [`TreeKernel::send`] would.
    fn receive<const L: usize>(&self, step: &Step, message: &[f64], s: &mut TreeScratch) {
        let row = &mut cells_mut::<L>(&mut s.mprod)[self.row(step.parent as usize)];
        if step.first {
            for (slot, &m) in row.iter_mut().zip(message) {
                *slot = [m; L];
            }
        } else {
            for (slot, &m) in row.iter_mut().zip(message) {
                slot.iter_mut().for_each(|x| *x *= m);
            }
        }
    }

    /// Where `step`'s message sits in a [`TreeKernel::free_messages`] buffer.
    fn message_range(&self, step: &Step) -> std::ops::Range<usize> {
        let slot = 2 * step.edge as usize + usize::from(!step.child_is_u);
        self.message_starts[slot]..self.message_starts[slot + 1]
    }

    /// Every message of the tree with no mask applied, in both directions
    /// of every edge: the buffer [`TreeKernel::pass_cached`] reads. Each
    /// message is computed by the float operations [`TreeKernel::send`]
    /// runs for an unconstrained subtree (one pass per root, which between
    /// them send every message), so a pass reading it is bitwise a pass
    /// that does not.
    pub(crate) fn free_messages<'a>(
        &self,
        multi: &[f64],
        vals: impl Fn(usize) -> &'a [f64],
        s: &mut TreeScratch,
    ) -> Vec<f64> {
        let mut out = vec![0.0; *self.message_starts.last().expect("non-empty")];
        let get = |x: usize| (vals(x), [None]);
        for step in &self.steps {
            let [total] = self.message::<1>(step, multi, &get, s);
            let range = self.message_range(step);
            let mut acc = 0.0;
            for (m, d) in out[range.clone()].iter_mut().zip(&s.diff) {
                acc += d;
                *m = total + acc;
            }
            self.receive::<1>(step, &out[range], s);
        }
        out
    }

    /// The rectangle statistic of edge `e` covering cell `(x, y)`, `x` on
    /// the edge's lower-indexed attribute.
    fn stab(&self, e: usize, x: u32, y: u32) -> Option<usize> {
        let j = match &self.stabs[e] {
            Stab::Grid {
                u_slab,
                v_slab,
                cols,
                cells,
            } => cells[u_slab[x as usize] as usize * cols + v_slab[y as usize] as usize],
            Stab::Scan => {
                let r = self.rect_offsets[e]..self.rect_offsets[e + 1];
                let covers = |&slot: &usize| {
                    (self.u_lo[slot]..self.u_end[slot]).contains(&x)
                        && (self.v_lo[slot]..self.v_end[slot]).contains(&y)
                };
                r.into_iter()
                    .find(covers)
                    .map_or(Stab::NONE, |slot| self.rect_multi[slot])
            }
        };
        (j != Stab::NONE).then_some(j as usize)
    }

    /// `∏_edges ψ(x_u, x_v)` at the tuple whose attribute `i` holds
    /// `code(i)`: per edge the `δ` of the one rectangle covering the cell
    /// (`delta(j)` for statistic `j`), or 1 where none does.
    pub(crate) fn point_potential(
        &self,
        code: impl Fn(usize) -> u32,
        delta: impl Fn(usize) -> f64,
    ) -> f64 {
        let mut psi = 1.0;
        for (e, &(u, v)) in self.edges.iter().enumerate() {
            if let Some(j) = self.stab(e, code(u as usize), code(v as usize)) {
                psi *= delta(j);
            }
        }
        psi
    }

    /// One leaf-to-root pass rooted at attribute `root`, answering `L`
    /// masks at once (module docs, "Lanes"): returns `P[mask_l]` per lane
    /// and leaves `∂P/∂α_{root,v}` (raw variable, mask weight multiplied
    /// in — the contract of
    /// [`crate::polynomial::CompressedPolynomial::derivs_prefilled`]) in the
    /// scratch, which [`TreeScratch::derivs_slice`] reads after a one-lane
    /// pass. `get(i)` returns attribute `i`'s variable values and each
    /// lane's optional mask weights; `multi` holds the component's `δ`
    /// values. `L` is at most [`MAX_LANES`].
    pub(crate) fn pass<'a, const L: usize>(
        &self,
        root: usize,
        multi: &[f64],
        get: impl Fn(usize) -> (&'a [f64], LaneWeights<'a, L>),
        s: &mut TreeScratch,
    ) -> [f64; L] {
        self.walk(root, multi, get, None, s)
    }

    /// [`TreeKernel::pass`], reading every message whose sending subtree no
    /// lane constrains from `free`, a [`TreeKernel::free_messages`] buffer
    /// made with the same variables; bitwise the pass that computes them.
    /// A subtree below such a message is not walked at all.
    pub(crate) fn pass_cached<'a, const L: usize>(
        &self,
        root: usize,
        multi: &[f64],
        get: impl Fn(usize) -> (&'a [f64], LaneWeights<'a, L>),
        free: &[f64],
        s: &mut TreeScratch,
    ) -> [f64; L] {
        self.walk(root, multi, get, Some(free), s)
    }

    fn walk<'a, const L: usize>(
        &self,
        root: usize,
        multi: &[f64],
        get: impl Fn(usize) -> (&'a [f64], LaneWeights<'a, L>),
        cached: Option<&[f64]>,
        s: &mut TreeScratch,
    ) -> [f64; L] {
        const { assert!(L >= 1 && L <= MAX_LANES) };
        let per_root = self.domain_sizes.len() - 1;
        let steps = &self.steps[root * per_root..(root + 1) * per_root];
        match cached {
            None => steps
                .iter()
                .for_each(|step| self.send(step, multi, &get, s)),
            Some(messages) => {
                // Children send before parents, so a child's flag is final
                // by the time its own step clears its parent's.
                for (x, free) in s.free.iter_mut().enumerate() {
                    *free = get(x).1.iter().all(Option::is_none);
                }
                for step in steps {
                    if !s.free[step.child as usize] {
                        s.free[step.parent as usize] = false;
                    }
                }
                for step in steps {
                    let parent = step.parent as usize;
                    if !s.free[step.child as usize] {
                        self.send(step, multi, &get, s);
                    } else if parent == root || !s.free[parent] {
                        self.receive::<L>(step, &messages[self.message_range(step)], s);
                    }
                }
            }
        }

        let n = self.domain_sizes[root];
        let (vals, weights) = get(root);
        let received = &cells::<L>(&s.mprod)[self.row(root)];
        let derivs = &mut cells_mut::<L>(&mut s.derivs)[..n];
        match gather_weights(&weights, n, &mut s.weights) {
            Some(w) => {
                for ((d, m), w) in derivs.iter_mut().zip(received).zip(w) {
                    *d = std::array::from_fn(|l| w[l] * m[l]);
                }
            }
            None => derivs.copy_from_slice(received),
        }
        // `-0.0` is `Sum for f64`'s starting value, which the one-lane
        // answer has always been summed with.
        let mut p = [-0.0; L];
        for (d, &xv) in derivs.iter().zip(vals) {
            for (pl, &dl) in p.iter_mut().zip(d) {
                *pl += xv * dl;
            }
        }
        p
    }

    /// The edge carrying statistic `j`.
    pub(crate) fn edge_of(&self, j: usize) -> usize {
        self.multi_edge[j] as usize
    }

    /// The *cavity* of edge `(X, Y)`: with the edge's own potential left
    /// out the tree falls into X's side and Y's side, and
    ///
    /// ```text
    /// P = Σ_{x,y} A(x)·ψ_XY(x, y)·B(y),   A(x) = α_x·w_x·∏(messages into X except Y's)
    /// ```
    ///
    /// (`B` likewise). Leaves the prefix sums `F_A`, `F_B` in the scratch
    /// and returns `P`. Same-pair rectangles are disjoint, so
    /// [`TreeKernel::cavity_delta_derivative`] reads every
    /// `∂P/∂δ_j = F_A[j's x-range]·F_B[j's y-range]` of this edge from them
    /// in O(1), and the values stay exact while only this edge's `δ` move.
    /// A cavity is a one-lane pass.
    pub(crate) fn cavity<'a>(
        &self,
        edge: usize,
        multi: &[f64],
        get: impl Fn(usize) -> (&'a [f64], LaneWeights<'a, 1>),
        s: &mut TreeScratch,
    ) -> f64 {
        let per_edge = self.domain_sizes.len() - 2;
        for step in &self.cavity_steps[edge * per_edge..(edge + 1) * per_edge] {
            self.send(step, multi, &get, s);
        }
        let (u, v) = (self.edges[edge].0 as usize, self.edges[edge].1 as usize);
        let TreeScratch {
            mprod,
            weights: buf,
            cavity_u,
            cavity_v,
            ..
        } = s;
        let mut side = |x: usize, prefix: &mut [f64]| {
            let (vals, weights) = get(x);
            let n = vals.len();
            let weights = gather_weights(&weights, n, buf);
            let prefix = &mut cells_mut::<1>(prefix)[..n + 1];
            let received = &cells::<1>(mprod)[self.row(x)];
            Self::belief_prefix(prefix, vals, weights, received, self.leaf[x])[0]
        };
        let total = side(u, cavity_u) * side(v, cavity_v);
        let correction: f64 = (self.rect_offsets[edge]..self.rect_offsets[edge + 1])
            .map(|slot| {
                let j = self.rect_multi[slot] as usize;
                (multi[j] - 1.0) * self.cavity_delta_derivative(j, s)
            })
            .sum();
        total + correction
    }

    /// `∂P/∂δ_j` from the last [`TreeKernel::cavity`] of `j`'s edge.
    pub(crate) fn cavity_delta_derivative(&self, j: usize, s: &TreeScratch) -> f64 {
        let slot = self.multi_slot[j] as usize;
        let range =
            |f: &[f64], lo: &[u32], end: &[u32]| f[end[slot] as usize] - f[lo[slot] as usize];
        range(&s.cavity_u, &self.u_lo, &self.u_end) * range(&s.cavity_v, &self.v_lo, &self.v_end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::{Mask, VarAssignment};
    use crate::naive::NaivePolynomial;
    use crate::polynomial::Var;
    use entropydb_storage::{AttrId, Predicate};

    fn rect(ax: usize, x: (u32, u32), ay: usize, y: (u32, u32)) -> MultiDimStatistic {
        MultiDimStatistic::rect2d(AttrId(ax), x, AttrId(ay), y).unwrap()
    }

    /// A chain 0–1–2 with a second edge 1–3: every attribute is a leaf, an
    /// inner node or the hub under some rooting.
    fn setup() -> (Vec<usize>, Vec<MultiDimStatistic>, VarAssignment) {
        let sizes = vec![3, 4, 2, 3];
        let stats = vec![
            rect(0, (0, 1), 1, (1, 2)),
            rect(1, (0, 1), 2, (1, 1)),
            rect(0, (2, 2), 1, (0, 3)),
            rect(1, (2, 3), 3, (0, 1)),
            rect(1, (0, 0), 3, (2, 2)),
        ];
        let mut asn = VarAssignment::ones(&sizes, stats.len());
        for (i, vs) in asn.one_dim.iter_mut().enumerate() {
            for (v, x) in vs.iter_mut().enumerate() {
                *x = 0.05 + 0.13 * ((i + 2) * (v + 1)) as f64;
            }
        }
        asn.multi = vec![0.4, 1.8, 2.5, 0.0, 3.1];
        (sizes, stats, asn)
    }

    #[test]
    fn every_rooting_matches_naive_value_and_derivatives() {
        let (sizes, stats, asn) = setup();
        let tree = TreeKernel::build(&sizes, &stats).expect("qualifies");
        let naive = NaivePolynomial::build(&sizes, &stats).unwrap();
        let pred = Predicate::new().between(AttrId(1), 1, 3).eq(AttrId(3), 0);
        for mask in [
            Mask::identity(sizes.len()),
            Mask::from_predicate(&pred, &sizes).unwrap(),
        ] {
            let expected = naive.eval_masked(&asn, &mask);
            let mut s = tree.make_scratch();
            for (root, &n) in sizes.iter().enumerate() {
                let [p] = tree.pass(
                    root,
                    &asn.multi,
                    |i| (asn.one_dim[i].as_slice(), [mask.attr_weights(i)]),
                    &mut s,
                );
                assert!((p - expected).abs() < 1e-12 * expected.abs(), "root {root}");
                for (code, &d) in s.derivs_slice(n).iter().enumerate() {
                    let var = Var::OneDim {
                        attr: root,
                        code: code as u32,
                    };
                    let want = naive.derivative(&asn, &mask, var);
                    assert!(
                        (d - want).abs() < 1e-12 * want.abs().max(1e-12),
                        "root {root} code {code}: {d} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_edge_cavity_matches_naive_value_and_delta_derivatives() {
        let (sizes, stats, asn) = setup();
        let tree = TreeKernel::build(&sizes, &stats).expect("qualifies");
        let naive = NaivePolynomial::build(&sizes, &stats).unwrap();
        let pred = Predicate::new().between(AttrId(1), 1, 3).eq(AttrId(3), 0);
        for mask in [
            Mask::identity(sizes.len()),
            Mask::from_predicate(&pred, &sizes).unwrap(),
        ] {
            let expected = naive.eval_masked(&asn, &mask);
            let mut s = tree.make_scratch();
            // Statistic order interleaves the three edges, so consecutive
            // cavities overwrite each other's message products.
            for j in 0..stats.len() {
                let get = |i: usize| (asn.one_dim[i].as_slice(), [mask.attr_weights(i)]);
                let p = tree.cavity(tree.edge_of(j), &asn.multi, get, &mut s);
                assert!((p - expected).abs() < 1e-12 * expected.abs(), "stat {j}");
                let d = tree.cavity_delta_derivative(j, &s);
                let want = naive.derivative(&asn, &mask, Var::Multi(j));
                assert!(
                    (d - want).abs() < 1e-12 * want.abs().max(1e-12),
                    "stat {j}: {d} vs {want}"
                );
            }
        }
    }

    /// `∏_edges ψ` of every cell against the statistics containing it, on
    /// the grid index and on the scan that replaces it past its cap: a
    /// 300 × 300 diagonal of unit squares cuts both domains into 300 slabs,
    /// 90 000 grid cells against a cap of 32 · 900.
    #[test]
    fn point_potential_matches_the_statistics_containing_the_cell() {
        let (sizes, stats, _) = setup();
        let diagonal: Vec<MultiDimStatistic> =
            (0..300).map(|i| rect(0, (i, i), 1, (i, i))).collect();
        let wide = [300, 300];
        for (sizes, stats, grid) in [(&sizes[..], &stats, true), (&wide[..], &diagonal, false)] {
            let tree = TreeKernel::build(sizes, stats).expect("qualifies");
            assert!(tree
                .stabs
                .iter()
                .all(|s| matches!(s, Stab::Grid { .. }) == grid));
            let delta = |j: usize| 0.5 + j as f64;
            let mut codes = vec![0u32; sizes.len()];
            for cell in 0..sizes.iter().product::<usize>() {
                let mut rest = cell;
                for (c, &n) in codes.iter_mut().zip(sizes) {
                    *c = (rest % n) as u32;
                    rest /= n;
                }
                let want: f64 = stats
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.matches(&codes))
                    .map(|(j, _)| delta(j))
                    .product();
                let got = tree.point_potential(|i| codes[i], delta);
                assert_eq!(got.to_bits(), want.to_bits(), "{codes:?}");
            }
        }
    }

    /// Every message of [`TreeKernel::free_messages`] is bitwise the one a
    /// mask-free pass sends, so a pass reading them (all or some) is bitwise
    /// the pass that computes them.
    #[test]
    fn cached_messages_are_bitwise_the_walk() {
        let (sizes, stats, asn) = setup();
        let tree = TreeKernel::build(&sizes, &stats).expect("qualifies");
        // The cached passes run on their own scratch, so none can read a
        // message product the walk left behind.
        let (mut s, mut cached_s) = (tree.make_scratch(), tree.make_scratch());
        let free = tree.free_messages(&asn.multi, |i| &asn.one_dim[i], &mut s);
        let pred = Predicate::new().between(AttrId(1), 1, 3);
        for mask in [
            Mask::identity(sizes.len()),
            Mask::from_predicate(&pred, &sizes).unwrap(),
            Mask::from_predicate(&pred.clone().eq(AttrId(3), 0), &sizes).unwrap(),
        ] {
            let get = |i: usize| (asn.one_dim[i].as_slice(), [mask.attr_weights(i)]);
            for (root, &n) in sizes.iter().enumerate() {
                let walked = tree.pass(root, &asn.multi, get, &mut s);
                let derivs = s.derivs_slice(n).to_vec();
                let cached = tree.pass_cached(root, &asn.multi, get, &free, &mut cached_s);
                assert_eq!(walked[0].to_bits(), cached[0].to_bits(), "root {root}");
                assert_eq!(derivs, cached_s.derivs_slice(n), "root {root}");
            }
        }
    }

    #[test]
    fn disqualified_shapes_are_rejected() {
        // No statistics, a triangle, a 3-D statistic, overlapping same-pair
        // rectangles, and a pair graph that leaves an attribute unreached.
        assert!(TreeKernel::build(&[3], &[]).is_none());
        let triangle = vec![
            rect(0, (0, 0), 1, (0, 0)),
            rect(1, (1, 1), 2, (0, 0)),
            rect(0, (1, 1), 2, (1, 1)),
        ];
        assert!(TreeKernel::build(&[2, 2, 2], &triangle).is_none());
        let three_d = MultiDimStatistic::new(
            (0..3)
                .map(|i| crate::statistics::RangeClause {
                    attr: AttrId(i),
                    lo: 0,
                    hi: 0,
                })
                .collect(),
        )
        .unwrap();
        assert!(TreeKernel::build(&[2, 2, 2], &[three_d]).is_none());
        let overlapping = vec![rect(0, (0, 1), 1, (0, 1)), rect(0, (1, 2), 1, (1, 2))];
        assert!(TreeKernel::build(&[3, 3], &overlapping).is_none());
        assert!(TreeKernel::build(&[3, 3, 3], &[rect(0, (0, 1), 1, (0, 1))]).is_none());
        assert!(TreeKernel::build(&[3, 3], &[rect(0, (0, 1), 1, (0, 1))]).is_some());
    }
}
