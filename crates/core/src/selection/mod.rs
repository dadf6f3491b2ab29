//! Choosing which statistics to include in the summary (paper Sec. 4.3).
//!
//! The summary always contains the complete 1D statistics; the
//! precision/memory tradeoff is in the multi-dimensional statistics. A
//! budget `B = Ba · Bs` is split between `Ba` attribute pairs (chosen by
//! [`pairs::choose_pairs`] from correlation scores) and `Bs` statistics per
//! pair (chosen by a [`heuristics::Heuristic`]).

pub mod heuristics;
pub mod kdtree;
pub mod pairs;

pub use heuristics::{select_pair_statistics, Heuristic};
pub use pairs::choose_pairs;

use crate::statistics::MultiDimStatistic;
use entropydb_storage::{AttrId, Result as StorageResult, Table};

/// A complete statistic-selection plan: which pairs, how many statistics
/// per pair, and which heuristic picks them.
#[derive(Debug, Clone)]
pub struct SelectionPlan {
    /// Attribute pairs receiving 2D statistics.
    pub pairs: Vec<(AttrId, AttrId)>,
    /// Statistics per pair (`Bs`).
    pub per_pair_budget: usize,
    /// Cell/rectangle selection heuristic.
    pub heuristic: Heuristic,
}

impl SelectionPlan {
    /// Total budget `B = Ba · Bs`.
    pub fn total_budget(&self) -> usize {
        self.pairs.len() * self.per_pair_budget
    }

    /// Materializes the plan against a table, returning the selected
    /// multi-dimensional statistics for all pairs.
    pub fn select(&self, table: &Table) -> StorageResult<Vec<MultiDimStatistic>> {
        let mut stats = Vec::with_capacity(self.total_budget());
        for &(x, y) in &self.pairs {
            stats.extend(select_pair_statistics(
                table,
                x,
                y,
                self.per_pair_budget,
                self.heuristic,
            )?);
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entropydb_storage::{Attribute, Schema};

    #[test]
    fn plan_selects_for_every_pair() {
        let schema = Schema::new(vec![
            Attribute::categorical("a", 3).unwrap(),
            Attribute::categorical("b", 3).unwrap(),
            Attribute::categorical("c", 2).unwrap(),
        ]);
        let mut t = Table::new(schema);
        for row in [[0u32, 0, 0], [1, 1, 1], [2, 2, 0], [0, 1, 1], [1, 0, 0]] {
            t.push_row(&row).unwrap();
        }
        let plan = SelectionPlan {
            pairs: vec![(AttrId(0), AttrId(1)), (AttrId(1), AttrId(2))],
            per_pair_budget: 3,
            heuristic: Heuristic::Composite,
        };
        assert_eq!(plan.total_budget(), 6);
        let stats = plan.select(&t).unwrap();
        assert!(!stats.is_empty());
        assert!(stats.len() <= 6);
        // Statistics exist for both pairs.
        assert!(stats
            .iter()
            .any(|s| s.attrs() == vec![AttrId(0), AttrId(1)]));
        assert!(stats
            .iter()
            .any(|s| s.attrs() == vec![AttrId(1), AttrId(2)]));
    }
}
