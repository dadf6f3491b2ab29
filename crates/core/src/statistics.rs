//! Statistics `Φ = {(c_j, s_j)}` that parameterize the MaxEnt model.
//!
//! Following Sec. 3.1 of the paper, the statistic set always contains the
//! *complete* set of 1D statistics (one `A_i = v` count per value of every
//! attribute — this makes the model overcomplete, Eq. 7), plus a chosen set
//! of multi-dimensional range statistics. Multi-dimensional statistics over
//! the *same* attribute set must be pairwise disjoint (the third assumption
//! of Sec. 4.1); statistics over different attribute sets may overlap freely.

use crate::error::{ModelError, Result};
use entropydb_storage::exec::GroupCounts;
use entropydb_storage::{AttrId, Predicate, Table};

/// One range clause `A ∈ [lo, hi]` (inclusive) of a multi-dim statistic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RangeClause {
    /// The constrained attribute.
    pub attr: AttrId,
    /// Inclusive lower bound (dense code).
    pub lo: u32,
    /// Inclusive upper bound (dense code).
    pub hi: u32,
}

/// A multi-dimensional statistic predicate: a conjunction of range clauses on
/// two or more distinct attributes (paper Sec. 4.1, first assumption).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MultiDimStatistic {
    clauses: Vec<RangeClause>,
}

impl MultiDimStatistic {
    /// Creates a statistic from range clauses. Requires at least two clauses,
    /// distinct attributes, and `lo <= hi` everywhere. Clauses are kept
    /// sorted by attribute id.
    pub fn new(mut clauses: Vec<RangeClause>) -> Result<Self> {
        if clauses.len() < 2 {
            return Err(ModelError::NotMultiDimensional);
        }
        clauses.sort_by_key(|c| c.attr);
        for w in clauses.windows(2) {
            if w[0].attr == w[1].attr {
                return Err(ModelError::DuplicateAttribute(w[0].attr.0));
            }
        }
        for c in &clauses {
            if c.lo > c.hi {
                return Err(ModelError::Storage(
                    entropydb_storage::StorageError::InvalidRange { lo: c.lo, hi: c.hi },
                ));
            }
        }
        Ok(MultiDimStatistic { clauses })
    }

    /// Convenience constructor for a 2D rectangle statistic.
    pub fn rect2d(ax: AttrId, x: (u32, u32), ay: AttrId, y: (u32, u32)) -> Result<Self> {
        MultiDimStatistic::new(vec![
            RangeClause {
                attr: ax,
                lo: x.0,
                hi: x.1,
            },
            RangeClause {
                attr: ay,
                lo: y.0,
                hi: y.1,
            },
        ])
    }

    /// Convenience constructor for a 2D single-cell (point) statistic.
    pub fn cell2d(ax: AttrId, x: u32, ay: AttrId, y: u32) -> Result<Self> {
        MultiDimStatistic::rect2d(ax, (x, x), ay, (y, y))
    }

    /// The clauses, sorted by attribute.
    pub fn clauses(&self) -> &[RangeClause] {
        &self.clauses
    }

    /// The set of constrained attributes (sorted).
    pub fn attrs(&self) -> Vec<AttrId> {
        self.clauses.iter().map(|c| c.attr).collect()
    }

    /// The projection `ρ_i` of the predicate onto `attr`, if constrained.
    pub fn projection(&self, attr: AttrId) -> Option<(u32, u32)> {
        self.clauses
            .iter()
            .find(|c| c.attr == attr)
            .map(|c| (c.lo, c.hi))
    }

    /// Whether a tuple (dense codes in schema order) satisfies the predicate.
    pub fn matches(&self, row: &[u32]) -> bool {
        self.clauses
            .iter()
            .all(|c| row.get(c.attr.0).is_some_and(|&v| c.lo <= v && v <= c.hi))
    }

    /// Whether `self` and `other` constrain the same attribute set and their
    /// rectangles intersect (used to enforce the disjointness assumption).
    pub fn same_attrs_and_overlaps(&self, other: &MultiDimStatistic) -> bool {
        self.clauses.len() == other.clauses.len()
            && self
                .clauses
                .iter()
                .zip(other.clauses())
                .all(|(a, b)| a.attr == b.attr && a.lo <= b.hi && b.lo <= a.hi)
    }

    /// Converts to a storage-layer [`Predicate`] for exact evaluation.
    pub fn to_predicate(&self) -> Predicate {
        let mut p = Predicate::new();
        for c in &self.clauses {
            p = p.between(c.attr, c.lo, c.hi);
        }
        p
    }
}

/// The full statistic set: relation cardinality, complete 1D counts, and the
/// chosen multi-dimensional statistics with their observed counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Statistics {
    n: u64,
    domain_sizes: Vec<usize>,
    one_dim: Vec<Vec<u64>>,
    multi: Vec<MultiDimStatistic>,
    multi_counts: Vec<u64>,
}

impl Statistics {
    /// Observes all statistics against a concrete table: complete 1D counts
    /// for every attribute, plus the exact count of every multi-dimensional
    /// statistic. Groups multi-statistics by attribute set so the table is
    /// scanned once per attribute set, not once per statistic.
    pub fn observe(table: &Table, multi: Vec<MultiDimStatistic>) -> Result<Self> {
        let schema = table.schema();
        let domain_sizes = schema.domain_sizes();
        validate_multi(&multi, &domain_sizes)?;

        let mut one_dim = Vec::with_capacity(schema.arity());
        for attr in schema.attr_ids() {
            let h = entropydb_storage::Histogram1D::compute(table, attr)?;
            one_dim.push(h.counts().to_vec());
        }

        // Group statistics by attribute set; one group-by scan per set.
        let mut multi_counts = vec![0u64; multi.len()];
        let mut by_attrs: Vec<(Vec<AttrId>, Vec<usize>)> = Vec::new();
        for (idx, stat) in multi.iter().enumerate() {
            let attrs = stat.attrs();
            match by_attrs.iter_mut().find(|(a, _)| *a == attrs) {
                Some((_, idxs)) => idxs.push(idx),
                None => by_attrs.push((attrs, vec![idx])),
            }
        }
        for (attrs, idxs) in &by_attrs {
            let groups = GroupCounts::compute(table, attrs)?;
            for (values, cnt) in groups.iter() {
                // Statistics in one attribute set are disjoint, so at most
                // one statistic contains this cell.
                for &idx in idxs {
                    let stat = &multi[idx];
                    let inside = stat
                        .clauses()
                        .iter()
                        .zip(&values)
                        .all(|(c, &v)| c.lo <= v && v <= c.hi);
                    if inside {
                        multi_counts[idx] += cnt;
                        break;
                    }
                }
            }
        }

        let n = table.num_rows() as u64;
        validate_counts(n, &multi_counts)?;
        Ok(Statistics {
            n,
            domain_sizes,
            one_dim,
            multi,
            multi_counts,
        })
    }

    /// Assembles statistics from already-known counts (deserialization,
    /// tests, or privacy-style noisy inputs). Validates shape and magnitude.
    pub fn from_parts(
        n: u64,
        domain_sizes: Vec<usize>,
        one_dim: Vec<Vec<u64>>,
        multi: Vec<MultiDimStatistic>,
        multi_counts: Vec<u64>,
    ) -> Result<Self> {
        if one_dim.len() != domain_sizes.len() || multi.len() != multi_counts.len() {
            return Err(ModelError::ShapeMismatch);
        }
        for (sizes, counts) in domain_sizes.iter().zip(&one_dim) {
            if counts.len() != *sizes {
                return Err(ModelError::ShapeMismatch);
            }
        }
        validate_multi(&multi, &domain_sizes)?;
        validate_counts(n, &multi_counts)?;
        Ok(Statistics {
            n,
            domain_sizes,
            one_dim,
            multi,
            multi_counts,
        })
    }

    /// Relation cardinality `n`.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Active-domain sizes `N_i` per attribute.
    pub fn domain_sizes(&self) -> &[usize] {
        &self.domain_sizes
    }

    /// Number of attributes `m`.
    pub fn arity(&self) -> usize {
        self.domain_sizes.len()
    }

    /// The complete 1D counts: `one_dim()[i][v] = |σ_{A_i = v}(I)|`.
    pub fn one_dim(&self) -> &[Vec<u64>] {
        &self.one_dim
    }

    /// The multi-dimensional statistic predicates.
    pub fn multi(&self) -> &[MultiDimStatistic] {
        &self.multi
    }

    /// The observed counts `s_j` of the multi-dimensional statistics.
    pub fn multi_counts(&self) -> &[u64] {
        &self.multi_counts
    }

    /// Total number of model variables (1D + multi-dimensional).
    pub fn num_variables(&self) -> usize {
        self.domain_sizes.iter().sum::<usize>() + self.multi.len()
    }
}

fn validate_counts(n: u64, multi_counts: &[u64]) -> Result<()> {
    for (j, &s) in multi_counts.iter().enumerate() {
        if s > n {
            return Err(ModelError::StatisticExceedsN {
                stat: j,
                observed: s,
                n,
            });
        }
        if s == n && n > 0 {
            return Err(ModelError::DegenerateStatistic { stat: j });
        }
    }
    Ok(())
}

/// Whether two statistics over the same attribute set intersect, found by
/// a sweep instead of all pairs: per attribute set, in order of the first
/// clause's `lo`, each statistic is compared only with the *active* ones —
/// those whose first range still reaches its `lo`. `O(k log k)` for the
/// sort plus `k ×` the widest active set (one column of a grid).
fn any_overlap(multi: &[MultiDimStatistic]) -> bool {
    let attrs = |j: usize| multi[j].clauses().iter().map(|c| c.attr);
    let first = |j: usize| multi[j].clauses()[0];
    let mut order: Vec<usize> = (0..multi.len()).collect();
    order.sort_by(|&x, &y| attrs(x).cmp(attrs(y)).then(first(x).lo.cmp(&first(y).lo)));
    let mut active: Vec<usize> = Vec::new();
    for &j in &order {
        active.retain(|&k| first(k).hi >= first(j).lo && attrs(k).eq(attrs(j)));
        if active
            .iter()
            .any(|&k| multi[k].same_attrs_and_overlaps(&multi[j]))
        {
            return true;
        }
        active.push(j);
    }
    false
}

fn validate_multi(multi: &[MultiDimStatistic], domain_sizes: &[usize]) -> Result<()> {
    let in_domain = |stat: &MultiDimStatistic| {
        let fits = |c: &RangeClause| {
            domain_sizes
                .get(c.attr.0)
                .is_some_and(|&n| (c.hi as usize) < n)
        };
        stat.clauses().iter().all(fits)
    };
    if multi.iter().all(in_domain) && !any_overlap(multi) {
        return Ok(());
    }
    // Something is wrong: the plain all-pairs scan names the first problem
    // in statistic order (and the same overlapping pair it always has).
    for (j, stat) in multi.iter().enumerate() {
        for c in stat.clauses() {
            let size = *domain_sizes.get(c.attr.0).ok_or(ModelError::Storage(
                entropydb_storage::StorageError::AttrIdOutOfRange {
                    id: c.attr.0,
                    arity: domain_sizes.len(),
                },
            ))?;
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
        for (j2, other) in multi.iter().enumerate().skip(j + 1) {
            if stat.same_attrs_and_overlaps(other) {
                return Err(ModelError::OverlappingStatistics {
                    first: j,
                    second: j2,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use entropydb_storage::{Attribute, Schema};

    fn a(i: usize) -> AttrId {
        AttrId(i)
    }

    fn table() -> Table {
        let schema = Schema::new(vec![
            Attribute::categorical("x", 3).unwrap(),
            Attribute::categorical("y", 3).unwrap(),
            Attribute::categorical("z", 2).unwrap(),
        ]);
        Table::from_rows(
            schema,
            vec![
                vec![0, 0, 0],
                vec![0, 1, 1],
                vec![1, 1, 0],
                vec![2, 2, 1],
                vec![2, 2, 0],
                vec![0, 0, 1],
            ],
        )
        .unwrap()
    }

    #[test]
    fn statistic_construction_validates() {
        assert!(matches!(
            MultiDimStatistic::new(vec![RangeClause {
                attr: a(0),
                lo: 0,
                hi: 1
            }]),
            Err(ModelError::NotMultiDimensional)
        ));
        assert!(matches!(
            MultiDimStatistic::new(vec![
                RangeClause {
                    attr: a(0),
                    lo: 0,
                    hi: 1
                },
                RangeClause {
                    attr: a(0),
                    lo: 2,
                    hi: 2
                },
            ]),
            Err(ModelError::DuplicateAttribute(0))
        ));
        assert!(MultiDimStatistic::rect2d(a(1), (0, 1), a(0), (0, 2)).is_ok());
    }

    #[test]
    fn clauses_sorted_by_attr() {
        let s = MultiDimStatistic::rect2d(a(2), (0, 1), a(0), (1, 2)).unwrap();
        assert_eq!(s.attrs(), vec![a(0), a(2)]);
        assert_eq!(s.projection(a(0)), Some((1, 2)));
        assert_eq!(s.projection(a(2)), Some((0, 1)));
        assert_eq!(s.projection(a(1)), None);
    }

    #[test]
    fn overlap_detection() {
        let s1 = MultiDimStatistic::rect2d(a(0), (0, 1), a(1), (0, 1)).unwrap();
        let s2 = MultiDimStatistic::rect2d(a(0), (1, 2), a(1), (1, 2)).unwrap();
        let s3 = MultiDimStatistic::rect2d(a(0), (2, 2), a(1), (0, 0)).unwrap();
        let other_attrs = MultiDimStatistic::rect2d(a(0), (0, 2), a(2), (0, 1)).unwrap();
        assert!(s1.same_attrs_and_overlaps(&s2));
        assert!(!s1.same_attrs_and_overlaps(&s3));
        assert!(!s1.same_attrs_and_overlaps(&other_attrs));
    }

    #[test]
    fn observe_counts_match_exact_queries() {
        let t = table();
        let stats = Statistics::observe(
            &t,
            vec![
                MultiDimStatistic::rect2d(a(0), (0, 0), a(1), (0, 1)).unwrap(),
                MultiDimStatistic::rect2d(a(0), (1, 2), a(1), (2, 2)).unwrap(),
                MultiDimStatistic::rect2d(a(1), (0, 0), a(2), (1, 1)).unwrap(),
            ],
        )
        .unwrap();
        assert_eq!(stats.n(), 6);
        assert_eq!(stats.one_dim()[0], vec![3, 1, 2]);
        assert_eq!(stats.one_dim()[2], vec![3, 3]);
        // Exact: x=0 & y∈[0,1] → rows 0,1,5 = 3; x∈[1,2] & y=2 → rows 3,4 = 2;
        // y=0 & z=1 → row 5 = 1.
        assert_eq!(stats.multi_counts(), &[3, 2, 1]);
    }

    #[test]
    fn overlapping_same_attrset_rejected() {
        let t = table();
        let result = Statistics::observe(
            &t,
            vec![
                MultiDimStatistic::rect2d(a(0), (0, 1), a(1), (0, 1)).unwrap(),
                MultiDimStatistic::rect2d(a(0), (1, 2), a(1), (1, 2)).unwrap(),
            ],
        );
        assert!(matches!(
            result,
            Err(ModelError::OverlappingStatistics {
                first: 0,
                second: 1
            })
        ));
    }

    /// The sweep agrees with the all-pairs scan on random rectangle sets
    /// over mixed attribute sets (2-D and 3-D), overlapping or not.
    #[test]
    fn overlap_sweep_matches_all_pairs() {
        let mut rng = crate::rng::SplitMix64::new(0x0E11);
        let mut range = |span: u32| {
            let lo = (rng.next_f64() * 12.0) as u32;
            (lo, lo + (rng.next_f64() * span as f64) as u32)
        };
        let (mut overlapping, mut disjoint) = (0, 0);
        for round in 0..400 {
            let multi: Vec<MultiDimStatistic> = (0..2 + round % 9)
                .map(|i| {
                    let (x, y, z) = (range(3), range(3), range(6));
                    match i % 3 {
                        0 => MultiDimStatistic::rect2d(a(0), x, a(1), y).unwrap(),
                        1 => MultiDimStatistic::rect2d(a(0), x, a(2), z).unwrap(),
                        _ => MultiDimStatistic::new(
                            [(0, x), (1, y), (2, z)]
                                .map(|(i, (lo, hi))| RangeClause { attr: a(i), lo, hi })
                                .to_vec(),
                        )
                        .unwrap(),
                    }
                })
                .collect();
            let all_pairs = multi.iter().enumerate().any(|(j, stat)| {
                multi[j + 1..]
                    .iter()
                    .any(|other| stat.same_attrs_and_overlaps(other))
            });
            assert_eq!(any_overlap(&multi), all_pairs, "{multi:?}");
            match all_pairs {
                true => overlapping += 1,
                false => disjoint += 1,
            }
        }
        assert!(
            overlapping > 50 && disjoint > 50,
            "{overlapping} / {disjoint}"
        );
    }

    #[test]
    fn degenerate_statistic_rejected() {
        let t = table();
        // Covers the whole space: s = n.
        let result = Statistics::observe(
            &t,
            vec![MultiDimStatistic::rect2d(a(0), (0, 2), a(1), (0, 2)).unwrap()],
        );
        assert!(matches!(
            result,
            Err(ModelError::DegenerateStatistic { stat: 0 })
        ));
    }

    #[test]
    fn out_of_domain_statistic_rejected() {
        let t = table();
        let result = Statistics::observe(
            &t,
            vec![MultiDimStatistic::rect2d(a(0), (0, 5), a(1), (0, 1)).unwrap()],
        );
        assert!(result.is_err());
    }

    #[test]
    fn num_variables_counts_all() {
        let t = table();
        let stats = Statistics::observe(
            &t,
            vec![MultiDimStatistic::cell2d(a(0), 0, a(1), 0).unwrap()],
        )
        .unwrap();
        assert_eq!(stats.num_variables(), 3 + 3 + 2 + 1);
    }
}
