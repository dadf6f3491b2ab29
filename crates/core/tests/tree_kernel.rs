//! Property suite for the tree message-passing query kernel.
//!
//! `FactorizedPolynomial` answers a component with the sum-product pass of
//! `crates/core/src/tree.rs` when the component's statistics are all 2-D,
//! its attribute-pair graph is acyclic and its same-pair rectangles are
//! disjoint, and with the Theorem 4.1 closure otherwise. Two oracles pin
//! the tree pass down: the closure itself (a *flat* `CompressedPolynomial`
//! over every attribute, which never takes the tree path) and the
//! tuple-enumerating `NaivePolynomial`.
//!
//! Besides shape, the kernel choice weighs cost: a qualifying tree whose
//! pass would touch more cells than its (tiny) closure stays on the
//! closure. The random models therefore assert parity for whichever kernel
//! answered and that the tree kernel answered most of them; the selection
//! rule itself is pinned on hand-built models.
//!
//! A batch runs the tree pass in lane groups of up to eight masks; every
//! model also checks that each lane is bitwise its one-mask pass, over
//! batch lengths that split into lane groups differently.
//!
//! The three query paths — a pinned point's product, a free component or
//! subtree read from `FreeParts`, the walk — are checked last: every fully
//! pinned point (weighted, on a zero `α`, on a cell no rectangle covers,
//! across several components) against the naive oracle to `1e-12`
//! relative, mixed batches of points and ranges bitwise against their
//! single-mask answers, and the cached entry points bitwise against the
//! uncached walk.
//!
//! Tolerances: against the naive oracle, the `1e-9` bound the other
//! property suites use. Against the closure, `1e-12` relative to the sum of
//! the closure's term magnitudes under the same mask (`P` with every
//! `δ − 1` replaced by `|δ − 1|`): with `δ < 1` the inclusion/exclusion
//! terms cancel, and no summation order can promise more than that scale
//! times machine epsilon. With every `δ ≥ 1` it is plain relative error.

use entropydb_core::assignment::{Mask, VarAssignment};
use entropydb_core::factorized::FreeParts;
use entropydb_core::naive::NaivePolynomial;
use entropydb_core::polynomial::{CompressedPolynomial, Var};
use entropydb_core::prelude::*;
use entropydb_storage::{AttrId, Predicate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Clone, Copy, Debug)]
enum Shape {
    Star,
    Chain,
    Forest,
}

struct Model {
    sizes: Vec<usize>,
    stats: Vec<MultiDimStatistic>,
    assignment: VarAssignment,
    /// Connected components of the pair graph that carry statistics.
    trees: usize,
    /// Attributes no statistic touches.
    isolated: usize,
}

/// A random partition of `0..n` into consecutive inclusive intervals.
fn intervals(g: &mut StdRng, n: usize) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut lo = 0;
    while lo < n {
        let hi = g.gen_range(lo..n);
        out.push((lo as u32, hi as u32));
        lo = hi + 1;
    }
    out
}

/// Pairwise-disjoint rectangles on `(x, y)`: a random subset (never empty)
/// of the cells of a random grid.
fn disjoint_rects(g: &mut StdRng, sizes: &[usize], x: usize, y: usize) -> Vec<MultiDimStatistic> {
    let (xs, ys) = (intervals(g, sizes[x]), intervals(g, sizes[y]));
    let mut cells: Vec<((u32, u32), (u32, u32))> = Vec::new();
    for &ix in &xs {
        for &iy in &ys {
            cells.push((ix, iy));
        }
    }
    let keep = g.gen_range(0..cells.len());
    cells
        .iter()
        .enumerate()
        .filter(|&(i, _)| i == keep || g.gen_range(0..4) > 0)
        .map(|(_, &(ix, iy))| MultiDimStatistic::rect2d(AttrId(x), ix, AttrId(y), iy).unwrap())
        .collect()
}

fn random_model(g: &mut StdRng, shape: Shape) -> Model {
    let m = g.gen_range(2..7);
    // Size-1 domains included; the tuple space stays small for the oracle.
    let sizes: Vec<usize> = (0..m).map(|_| g.gen_range(1..5)).collect();
    let edges: Vec<(usize, usize)> = match shape {
        Shape::Star => {
            let hub = g.gen_range(0..m);
            (0..m).filter(|&i| i != hub).map(|i| (hub, i)).collect()
        }
        Shape::Chain => (1..m).map(|i| (i - 1, i)).collect(),
        // Each attribute attaches to an earlier one or stays detached:
        // several trees of several edges, plus isolated attributes.
        Shape::Forest => {
            let mut edges = Vec::new();
            for i in 1..m {
                if g.gen_range(0..3) > 0 {
                    edges.push((g.gen_range(0..i), i));
                }
            }
            edges
        }
    };
    let mut stats = Vec::new();
    for &(x, y) in &edges {
        stats.extend(disjoint_rects(g, &sizes, x, y));
    }
    // Interleave the pairs so same-pair rectangles are not contiguous.
    for i in (1..stats.len()).rev() {
        stats.swap(i, g.gen_range(0..i + 1));
    }

    let touched = |i: usize| edges.iter().any(|&(x, y)| x == i || y == i);
    let isolated = (0..m).filter(|&i| !touched(i)).count();
    // A forest on `v` vertices with `e` edges has `v − e` trees.
    let trees = (m - isolated) - edges.len();

    let one_dim = sizes
        .iter()
        .map(|&n| {
            (0..n)
                .map(|_| match g.gen_range(0..6) {
                    0 => 0.0,
                    _ => g.gen_range(0.0..2.0),
                })
                .collect()
        })
        .collect();
    let multi = (0..stats.len())
        .map(|_| match g.gen_range(0..6) {
            0 => 0.0, // a ZERO statistic
            1 => 1.0,
            _ => g.gen_range(0.0..3.0),
        })
        .collect();
    Model {
        sizes,
        stats,
        assignment: VarAssignment { one_dim, multi },
        trees,
        isolated,
    }
}

/// COUNT masks (runs of ones, every other attribute unconstrained), a
/// SUM-weighted mask (fractional weights), a fully masked attribute (an
/// all-zero weight row), identity.
fn random_masks(g: &mut StdRng, sizes: &[usize]) -> Vec<Mask> {
    let m = sizes.len();
    let mut masks = vec![Mask::identity(m)];
    for _ in 0..4 {
        let mut p = Predicate::new();
        for _ in 0..g.gen_range(1..4) {
            let attr = g.gen_range(0..m);
            let n = sizes[attr] as u32;
            let (a, b) = (g.gen_range(0..n), g.gen_range(0..n));
            p = p.between(AttrId(attr), a.min(b), a.max(b));
        }
        masks.push(Mask::from_predicate(&p, sizes).unwrap());
    }
    let attr = g.gen_range(0..m);
    let values: Vec<f64> = (0..sizes[attr]).map(|_| g.gen_range(0.0..50.0)).collect();
    masks.push(masks[1].clone().scale_attr(AttrId(attr), &values).unwrap());
    let attr = g.gen_range(0..m);
    masks.push(
        masks[2]
            .clone()
            .scale_attr(AttrId(attr), &vec![0.0; sizes[attr]])
            .unwrap(),
    );
    masks
}

/// The assignment whose closure terms are the magnitudes of `a`'s terms.
fn magnitudes(a: &VarAssignment) -> VarAssignment {
    VarAssignment {
        one_dim: a.one_dim.clone(),
        multi: a.multi.iter().map(|d| 1.0 + (d - 1.0).abs()).collect(),
    }
}

fn close_naive(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Checks one model against both oracles; returns how many of its
/// components the tree kernel answered.
fn check_model(g: &mut StdRng, model: &Model) -> usize {
    let Model {
        sizes,
        stats,
        assignment: a,
        ..
    } = model;
    let fact = FactorizedPolynomial::build(sizes, stats).unwrap();
    let kernels = fact.size_stats();
    assert!(kernels.tree_components <= model.trees, "{stats:?}");
    assert_eq!(
        kernels.tree_components + kernels.closure_components,
        model.trees + model.isolated,
        "{stats:?}"
    );

    let flat = CompressedPolynomial::build(sizes, stats).unwrap();
    let naive = NaivePolynomial::build(sizes, stats).unwrap();
    let scale = magnitudes(a);
    let mut fs = fact.make_scratch();
    let mut cs = flat.make_scratch();
    let masks = random_masks(g, sizes);

    for mask in &masks {
        let tree = fact.eval_masked_with(a, mask, &mut fs);
        let closure = flat.eval_masked_with(a, mask, &mut cs);
        let bound = 1e-12 * flat.eval_masked_with(&scale, mask, &mut cs);
        assert!(
            (tree - closure).abs() <= bound,
            "P: tree {tree} vs closure {closure} (bound {bound})"
        );
        assert!(close_naive(tree, naive.eval_masked(a, mask)));

        // Group-by on every attribute: a leaf, an inner node or hub, or an
        // isolated attribute, depending on the shape.
        for attr in 0..sizes.len() {
            let (p, derivs) = fact.eval_with_attr_derivatives_with(a, mask, attr, &mut fs);
            let (p_closure, d_closure) = flat.eval_with_attr_derivatives(a, mask, attr);
            let (p_scale, d_scale) = flat.eval_with_attr_derivatives(&scale, mask, attr);
            assert!(
                (p - p_closure).abs() <= 1e-12 * p_scale,
                "{p} vs {p_closure}"
            );
            for (code, &d) in derivs.iter().enumerate() {
                assert!(
                    (d - d_closure[code]).abs() <= 1e-12 * d_scale[code],
                    "attr {attr} code {code}: tree {d} vs closure {}",
                    d_closure[code]
                );
                let var = Var::OneDim {
                    attr,
                    code: code as u32,
                };
                assert!(close_naive(d, naive.derivative(a, mask, var)));
            }
        }
    }

    assert_lanes_match_single_masks(g, &fact, a, &masks);
    kernels.tree_components
}

/// Batch lengths that split into lane groups differently (`L` = 8 lanes):
/// none, 1, 2, 3, `L − 1`, `L`, `L + 1`, `2L + 1`, a dashboard's 16, and 33.
const BATCH_LENGTHS: [usize; 10] = [0, 1, 2, 3, 7, 8, 9, 17, 16, 33];

/// `mask` with every `0.0` weight spelled `-0.0`.
fn negative_zeros(mask: &Mask) -> Mask {
    let flip = |w: &[f64]| w.iter().map(|&x| if x == 0.0 { -0.0 } else { x }).collect();
    Mask::from_weights(
        (0..mask.arity())
            .map(|i| mask.attr_weights(i).map(flip))
            .collect(),
    )
}

/// A batch of every length in [`BATCH_LENGTHS`], drawn with repeats from
/// `pool` and its `-0.0` twins, equals one `eval_masked_with` per mask bit
/// for bit: each lane of a group is its one-mask pass, whatever its
/// neighbours constrain.
fn assert_lanes_match_single_masks(
    g: &mut StdRng,
    fact: &FactorizedPolynomial,
    a: &VarAssignment,
    pool: &[Mask],
) {
    let pool: Vec<Mask> = pool
        .iter()
        .flat_map(|m| [m.clone(), negative_zeros(m)])
        .collect();
    let mut fs = fact.make_scratch();
    for len in BATCH_LENGTHS {
        let batch: Vec<Mask> = (0..len)
            .map(|_| pool[g.gen_range(0..pool.len())].clone())
            .collect();
        let mut out = vec![f64::NAN; len];
        fact.eval_masked_many_with(a, &batch, &mut fs, &mut out);
        for (i, (mask, &batched)) in batch.iter().zip(&out).enumerate() {
            let single = fact.eval_masked_with(a, mask, &mut fs);
            assert_eq!(
                batched.to_bits(),
                single.to_bits(),
                "batch of {len}, mask {i}: {batched} vs {single}"
            );
        }
    }
}

#[test]
fn stars_chains_and_forests_match_closure_and_naive() {
    let mut g = StdRng::seed_from_u64(0x7EE);
    for shape in [Shape::Star, Shape::Chain, Shape::Forest] {
        let (mut trees, mut on_tree_kernel) = (0, 0);
        for _ in 0..64 {
            let model = random_model(&mut g, shape);
            trees += model.trees;
            on_tree_kernel += check_model(&mut g, &model);
        }
        eprintln!("{shape:?}: {on_tree_kernel} of {trees} trees on the tree kernel");
        assert!(
            2 * on_tree_kernel > trees,
            "{shape:?}: {on_tree_kernel}/{trees}"
        );
    }
}

/// Every attribute of the model in one connected component, so the
/// factorized polynomial holds exactly the flat closure: the fallback must
/// return the closure's answers bit for bit on all three entry points.
fn assert_closure_fallback(sizes: &[usize], stats: &[MultiDimStatistic]) {
    let fact = FactorizedPolynomial::build(sizes, stats).unwrap();
    assert_eq!(fact.num_components(), 1);
    let kernels = fact.size_stats();
    assert_eq!(
        (kernels.tree_components, kernels.closure_components),
        (0, 1)
    );

    let flat = CompressedPolynomial::build(sizes, stats).unwrap();
    let mut g = StdRng::seed_from_u64(0xFA11);
    let a = VarAssignment {
        one_dim: sizes
            .iter()
            .map(|&n| (0..n).map(|_| g.gen_range(0.0..2.0)).collect())
            .collect(),
        multi: (0..stats.len()).map(|_| g.gen_range(0.0..3.0)).collect(),
    };
    let masks = random_masks(&mut g, sizes);
    let (mut fs, mut cs) = (fact.make_scratch(), flat.make_scratch());
    for mask in &masks {
        assert_eq!(
            fact.eval_masked_with(&a, mask, &mut fs).to_bits(),
            flat.eval_masked_with(&a, mask, &mut cs).to_bits()
        );
        for attr in 0..sizes.len() {
            let (p, derivs) = fact.eval_with_attr_derivatives_with(&a, mask, attr, &mut fs);
            let (p_flat, d_flat) = flat.eval_with_attr_derivatives_with(&a, mask, attr, &mut cs);
            assert_eq!(p.to_bits(), p_flat.to_bits());
            assert_eq!(derivs, d_flat);
        }
    }
    let mut out = vec![0.0; masks.len()];
    fact.eval_masked_many_with(&a, &masks, &mut fs, &mut out);
    let out_flat: Vec<f64> = masks
        .iter()
        .map(|mask| flat.eval_masked_with(&a, mask, &mut cs))
        .collect();
    assert_eq!(out, out_flat);
}

#[test]
fn triangle_three_d_overlap_and_sparse_star_fall_back_to_the_closure() {
    let rect = |x: usize, xr: (u32, u32), y: usize, yr: (u32, u32)| {
        MultiDimStatistic::rect2d(AttrId(x), xr, AttrId(y), yr).unwrap()
    };
    // A cycle of three pairs.
    assert_closure_fallback(
        &[3, 4, 3],
        &[
            rect(0, (0, 1), 1, (1, 2)),
            rect(1, (0, 2), 2, (0, 0)),
            rect(0, (1, 2), 2, (1, 2)),
        ],
    );
    // One statistic on three attributes among 2-D ones.
    let three_d = MultiDimStatistic::new(
        (0..3)
            .map(|i| RangeClause {
                attr: AttrId(i),
                lo: 0,
                hi: 1,
            })
            .collect(),
    )
    .unwrap();
    assert_closure_fallback(&[3, 3, 2], &[rect(0, (1, 2), 1, (0, 0)), three_d]);
    // Same-pair rectangles sharing the cell (1, 1): `Statistics` rejects
    // these, `FactorizedPolynomial::build` does not.
    assert_closure_fallback(
        &[3, 3],
        &[rect(0, (0, 1), 1, (0, 1)), rect(0, (1, 2), 1, (1, 2))],
    );
    // A qualifying star, but one rectangle per pair on distinct hub values:
    // a 5-term closure against a pass over four 8 + 8 cell edges.
    let sparse_star: Vec<MultiDimStatistic> = (1..5)
        .map(|leaf| rect(0, (leaf as u32, leaf as u32), leaf, (0, 3)))
        .collect();
    assert_closure_fallback(&[8, 8, 8, 8, 8], &sparse_star);
}

/// A tree component and a cyclic component side by side: each takes its own
/// kernel, the product still matches the oracle, and a batch (tree lanes
/// beside per-mask closure walks) equals its masks one at a time.
#[test]
fn mixed_model_uses_both_kernels() {
    let rect = |x: usize, xr: (u32, u32), y: usize, yr: (u32, u32)| {
        MultiDimStatistic::rect2d(AttrId(x), xr, AttrId(y), yr).unwrap()
    };
    let sizes = vec![3, 3, 2, 3, 2];
    let stats = vec![
        rect(0, (0, 1), 1, (1, 2)),
        rect(2, (0, 0), 3, (0, 1)),
        rect(3, (1, 2), 4, (0, 0)),
        rect(2, (1, 1), 4, (1, 1)),
        rect(0, (2, 2), 1, (0, 0)),
    ];
    let fact = FactorizedPolynomial::build(&sizes, &stats).unwrap();
    let kernels = fact.size_stats();
    assert_eq!(
        (kernels.tree_components, kernels.closure_components),
        (1, 1)
    );
    let naive = NaivePolynomial::build(&sizes, &stats).unwrap();
    let mut g = StdRng::seed_from_u64(0x313);
    let a = VarAssignment {
        one_dim: sizes
            .iter()
            .map(|&n| (0..n).map(|_| g.gen_range(0.0..2.0)).collect())
            .collect(),
        multi: vec![0.3, 2.2, 0.0, 1.7, 2.9],
    };
    let masks = random_masks(&mut g, &sizes);
    assert_lanes_match_single_masks(&mut g, &fact, &a, &masks);
    for mask in masks {
        assert!(close_naive(
            fact.eval_masked(&a, &mask),
            naive.eval_masked(&a, &mask)
        ));
        for attr in 0..sizes.len() {
            let (_, derivs) = fact.eval_with_attr_derivatives(&a, &mask, attr);
            for (code, &d) in derivs.iter().enumerate() {
                let var = Var::OneDim {
                    attr,
                    code: code as u32,
                };
                assert!(close_naive(d, naive.derivative(&a, &mask, var)));
            }
        }
    }
}

/// What the pinned points of [`pinned_points`] covered, so the suite can
/// insist that every case the product path must get right was drawn.
#[derive(Default, Debug)]
struct PointCases {
    points: usize,
    weighted: usize,
    zero_alpha: usize,
    uncovered: usize,
    several_components: usize,
}

/// Fully pinned points of `model`: random codes with weight 1, the same
/// with one attribute's pinned weight scaled as a SUM mask scales it, and
/// one pinned to a code whose `α` is exactly 0 when the model has one.
fn pinned_points(g: &mut StdRng, model: &Model, cases: &mut PointCases) -> Vec<Mask> {
    let sizes = &model.sizes;
    let mut masks = Vec::new();
    for _ in 0..6 {
        let codes: Vec<u32> = sizes.iter().map(|&n| g.gen_range(0..n as u32)).collect();
        let mut p = Predicate::new();
        for (i, &c) in codes.iter().enumerate() {
            p = p.eq(AttrId(i), c);
        }
        let point = Mask::from_predicate(&p, sizes).unwrap();
        // Some 2-D statistic's attribute pair meets this cell in none of its
        // rectangles: that edge's potential is 1.
        let covered = |x: usize, y: usize| {
            model.stats.iter().any(|s| {
                let attrs = s.attrs();
                attrs == [AttrId(x), AttrId(y)] && s.matches(&codes)
            })
        };
        let pairs = model.stats.iter().map(|s| (s.attrs()[0].0, s.attrs()[1].0));
        if pairs.clone().any(|(x, y)| !covered(x, y)) {
            cases.uncovered += 1;
        }
        if codes
            .iter()
            .enumerate()
            .any(|(i, &c)| model.assignment.one_dim[i][c as usize] == 0.0)
        {
            cases.zero_alpha += 1;
        }
        let attr = g.gen_range(0..sizes.len());
        let values: Vec<f64> = (0..sizes[attr]).map(|_| g.gen_range(0.5..50.0)).collect();
        masks.push(point.clone().scale_attr(AttrId(attr), &values).unwrap());
        cases.weighted += 1;
        masks.push(point);
    }
    let zero = model
        .assignment
        .one_dim
        .iter()
        .enumerate()
        .find_map(|(i, vs)| {
            let code = vs.iter().position(|&x| x == 0.0)?;
            Some((i, code as u32))
        });
    if let Some((attr, code)) = zero {
        let mut p = Predicate::new().eq(AttrId(attr), code);
        for (i, &n) in sizes.iter().enumerate() {
            if i != attr {
                p = p.eq(AttrId(i), g.gen_range(0..n as u32));
            }
        }
        masks.push(Mask::from_predicate(&p, sizes).unwrap());
        cases.zero_alpha += 1;
    }
    for mask in &masks {
        assert!(
            (0..sizes.len()).all(|i| mask.pin(i).is_some()),
            "a point pins every attribute"
        );
    }
    cases.points += masks.len();
    masks
}

fn close_relative(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * b.abs()
}

/// Every fully pinned point — the product path — matches the naive oracle
/// to `1e-12` relative, with and without the cached free parts, and so
/// does its group-by on every attribute.
#[test]
fn pinned_points_match_naive() {
    let mut g = StdRng::seed_from_u64(0x9017);
    let mut cases = PointCases::default();
    for shape in [Shape::Star, Shape::Chain, Shape::Forest] {
        for _ in 0..64 {
            let model = random_model(&mut g, shape);
            let (sizes, a) = (&model.sizes, &model.assignment);
            let fact = FactorizedPolynomial::build(sizes, &model.stats).unwrap();
            if fact.num_components() > 1 {
                cases.several_components += 1;
            }
            let naive = NaivePolynomial::build(sizes, &model.stats).unwrap();
            let free = fact.free_parts(a);
            let mut fs = fact.make_scratch();
            for mask in pinned_points(&mut g, &model, &mut cases) {
                let want = naive.eval_masked(a, &mask);
                let got = fact.eval_masked_with(a, &mask, &mut fs);
                assert!(close_relative(got, want, 1e-12), "{got} vs {want}");
                let mut cached = [0.0];
                fact.eval_masked_many_cached(
                    a,
                    &free,
                    std::slice::from_ref(&mask),
                    &mut fs,
                    &mut cached,
                );
                assert_eq!(cached[0].to_bits(), got.to_bits());
                for attr in 0..sizes.len() {
                    let (_, derivs) = fact.eval_with_attr_derivatives_with(a, &mask, attr, &mut fs);
                    for (code, &d) in derivs.iter().enumerate() {
                        let var = Var::OneDim {
                            attr,
                            code: code as u32,
                        };
                        assert!(close_naive(d, naive.derivative(a, &mask, var)));
                    }
                }
            }
        }
    }
    eprintln!("{cases:?}");
    assert!(cases.weighted > 0 && cases.zero_alpha > 0 && cases.uncovered > 0);
    assert!(cases.several_components > 0);
}

/// Points, ranges and identity masks mixed in one batch, at every lane
/// width: each answer is bitwise the mask's own, with and without the
/// cached free parts, and the cached answers are bitwise the uncached.
#[test]
fn mixed_batches_of_points_and_ranges_match_single_masks() {
    let mut g = StdRng::seed_from_u64(0xB47C);
    let mut cases = PointCases::default();
    for shape in [Shape::Star, Shape::Chain, Shape::Forest] {
        for _ in 0..32 {
            let model = random_model(&mut g, shape);
            let (sizes, a) = (&model.sizes, &model.assignment);
            let fact = FactorizedPolynomial::build(sizes, &model.stats).unwrap();
            let mut pool = random_masks(&mut g, sizes);
            pool.extend(pinned_points(&mut g, &model, &mut cases));
            assert_lanes_match_single_masks(&mut g, &fact, a, &pool);
            assert_cache_matches_walk(&mut g, &fact, a, &pool);
        }
    }
}

/// The cached entry points read free components and subtrees instead of
/// walking them; every answer — batch or single, value or group-by — is
/// bitwise the walk's.
fn assert_cache_matches_walk(
    g: &mut StdRng,
    fact: &FactorizedPolynomial,
    a: &VarAssignment,
    pool: &[Mask],
) {
    let free: FreeParts = fact.free_parts(a);
    let (mut fs, mut cs) = (fact.make_scratch(), fact.make_scratch());
    for len in BATCH_LENGTHS {
        let batch: Vec<Mask> = (0..len)
            .map(|_| pool[g.gen_range(0..pool.len())].clone())
            .collect();
        let (mut walked, mut cached) = (vec![f64::NAN; len], vec![f64::NAN; len]);
        fact.eval_masked_many_with(a, &batch, &mut fs, &mut walked);
        fact.eval_masked_many_cached(a, &free, &batch, &mut cs, &mut cached);
        for (i, mask) in batch.iter().enumerate() {
            assert_eq!(
                cached[i].to_bits(),
                walked[i].to_bits(),
                "batch of {len}, mask {i}"
            );
            let mut single = [0.0];
            fact.eval_masked_many_cached(
                a,
                &free,
                std::slice::from_ref(mask),
                &mut cs,
                &mut single,
            );
            assert_eq!(single[0].to_bits(), cached[i].to_bits());
        }
    }
    for mask in pool {
        for attr in 0..fact.arity() {
            let (p, derivs) = fact.eval_with_attr_derivatives_with(a, mask, attr, &mut fs);
            let (p_cached, d_cached) =
                fact.eval_with_attr_derivatives_cached(a, &free, mask, attr, &mut cs);
            assert_eq!(p_cached.to_bits(), p.to_bits(), "attr {attr}");
            assert_eq!(d_cached, derivs, "attr {attr}");
        }
    }
}
