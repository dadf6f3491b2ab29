//! Seeded random tables with forest-shaped 2-D statistics, and one fixed
//! table with the shapes that stay on the closure, shared by
//! `tests/tree_solver.rs` and (through `#[path]`) the in-crate solver tests
//! that compare the tree sweep with the private closure sweep. Only
//! `entropydb_storage` and `rand` types appear here, so the file compiles
//! unchanged inside and outside the crate.

use entropydb_storage::{Attribute, Schema, Table};
use rand::rngs::StdRng;
use rand::Rng;

/// A rectangle `x-range × y-range` on attributes `(ax, ay)`.
pub type Rect = (usize, (u32, u32), usize, (u32, u32));

#[derive(Clone, Copy, Debug)]
pub enum Shape {
    Star,
    Chain,
    Forest,
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

/// A table of 2–5 attributes (size-1 domains included) whose rows leave
/// some values and some rectangles empty, and pairwise-disjoint rectangles
/// on every edge of a random star, chain or forest over the attributes —
/// listed shuffled, so one pair's statistics are interleaved with the
/// others'.
pub fn random_forest(g: &mut StdRng, shape: Shape) -> (Table, Vec<Rect>) {
    let m = g.gen_range(2..6);
    let sizes: Vec<usize> = (0..m).map(|_| g.gen_range(1..5)).collect();
    let edges: Vec<(usize, usize)> = match shape {
        Shape::Star => {
            let hub = g.gen_range(0..m);
            (0..m).filter(|&i| i != hub).map(|i| (hub, i)).collect()
        }
        Shape::Chain => (1..m).map(|i| (i - 1, i)).collect(),
        // Each attribute attaches to an earlier one or stays detached.
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

    let mut rects: Vec<Rect> = Vec::new();
    for &(x, y) in &edges {
        let (xs, ys) = (intervals(g, sizes[x]), intervals(g, sizes[y]));
        let cells: Vec<_> = xs
            .iter()
            .flat_map(|&ix| ys.iter().map(move |&iy| (ix, iy)))
            .collect();
        let keep = g.gen_range(0..cells.len());
        for (i, &(ix, iy)) in cells.iter().enumerate() {
            if i == keep || g.gen_range(0..4) > 0 {
                rects.push((x, ix, y, iy));
            }
        }
    }
    for i in (1..rects.len()).rev() {
        rects.swap(i, g.gen_range(0..i + 1));
    }

    // One value of some attributes never occurs (a zero 1-D count); each
    // attribute follows its predecessor half of the time, so the pairs are
    // correlated and the solver has to move.
    let dead: Vec<Option<u32>> = sizes
        .iter()
        .map(|&n| (n > 1 && g.gen_range(0..3) == 0).then(|| g.gen_range(0..n as u32)))
        .collect();
    let schema = Schema::new(
        sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| Attribute::categorical(format!("a{i}"), n).unwrap())
            .collect(),
    );
    let mut table = Table::new(schema);
    let mut row = vec![0u32; m];
    for _ in 0..g.gen_range(20..120) {
        for i in 0..m {
            let n = sizes[i] as u32;
            let mut v = if i > 0 && g.gen_range(0..2) == 0 {
                row[i - 1] % n
            } else {
                g.gen_range(0..n)
            };
            if dead[i] == Some(v) {
                v = (v + 1) % n;
            }
            row[i] = v;
        }
        table.push_row(&row).unwrap();
    }
    (table, rects)
}

/// One statistic as `(attribute, inclusive code range)` clauses.
pub type Clauses = Vec<(usize, (u32, u32))>;

/// A 90-row table over four 4-valued attributes, by formula.
pub fn fixed_table() -> Table {
    let schema = Schema::new(
        (0..4)
            .map(|i| Attribute::categorical(format!("a{i}"), 4).unwrap())
            .collect(),
    );
    let mut t = Table::new(schema);
    for i in 0..90u32 {
        t.push_row(&[i % 4, (i / 3 + i % 4) % 4, (i * i / 5) % 4, (i / 7) % 3])
            .unwrap();
    }
    t
}

/// Statistics over [`fixed_table`] whose component stays on the closure
/// kernel: a cycle of three pairs; one statistic on three attributes
/// beside a 2-D one; and a star with one rectangle per leaf, whose
/// three-message pass touches more cells than its 8-term closure and slab.
pub fn closure_shapes() -> [Vec<Clauses>; 3] {
    let rect = |x, xr, y, yr| vec![(x, xr), (y, yr)];
    [
        vec![
            rect(0, (0, 1), 1, (1, 2)),
            rect(1, (0, 2), 2, (0, 0)),
            rect(0, (1, 2), 2, (1, 3)),
            rect(0, (2, 3), 1, (3, 3)),
        ],
        vec![
            vec![(0, (0, 1)), (1, (1, 3)), (2, (0, 2))],
            rect(2, (0, 1), 3, (0, 1)),
        ],
        vec![
            rect(0, (0, 1), 1, (0, 2)),
            rect(0, (1, 2), 2, (1, 1)),
            rect(0, (0, 3), 3, (0, 0)),
        ],
    ]
}
