//! Attribute-pair selection under a budget (Sec. 4.3).
//!
//! Given `Ba` pair slots and correlation scores for all candidate pairs, the
//! paper compares two strategies:
//!
//! * **Correlation-only** — walk pairs from most to least correlated,
//!   keeping a pair if it has at least one attribute not already used by a
//!   previously kept (more correlated) pair.
//! * **Attribute-cover** — among all `Ba`-subsets, maximize the number of
//!   distinct attributes covered, breaking ties by total correlation. (The
//!   paper's example: ranked pairs BC, AB, CD, AD with `Ba = 2` give
//!   {BC, AB} under correlation-only but {AB, CD} under cover.)
//!
//! The evaluation concludes cover wins, so cover is the one implemented.

use entropydb_storage::correlation::PairScore;
use entropydb_storage::AttrId;
use std::collections::HashSet;

/// Picks up to `ba` pairs from `scores` (already sorted most-correlated
/// first, as produced by [`entropydb_storage::correlation::rank_pairs`]) by
/// attribute cover: maximize the distinct attributes covered, then total
/// correlation.
pub fn choose_pairs(scores: &[PairScore], ba: usize) -> Vec<PairScore> {
    let ba = ba.min(scores.len());
    if ba == 0 {
        return Vec::new();
    }
    // Exhaustive search over Ba-subsets when feasible (≤ 8 attributes gives
    // ≤ 28 pairs; C(28, 5) ≈ 98k subsets), greedy fallback otherwise.
    const EXHAUSTIVE_LIMIT: u128 = 2_000_000;
    if n_choose_k(scores.len(), ba) <= EXHAUSTIVE_LIMIT {
        exhaustive_cover(scores, ba)
    } else {
        greedy_cover(scores, ba)
    }
}

fn n_choose_k(n: usize, k: usize) -> u128 {
    let mut result: u128 = 1;
    for i in 0..k.min(n) {
        result = result.saturating_mul((n - i) as u128) / (i as u128 + 1);
        if result > u128::MAX / 64 {
            return u128::MAX;
        }
    }
    result
}

fn exhaustive_cover(scores: &[PairScore], ba: usize) -> Vec<PairScore> {
    let mut best: Option<(usize, f64, Vec<usize>)> = None;
    let mut indices: Vec<usize> = (0..ba).collect();
    loop {
        let covered: HashSet<AttrId> = indices
            .iter()
            .flat_map(|&i| [scores[i].x, scores[i].y])
            .collect();
        let total: f64 = indices.iter().map(|&i| scores[i].cramers_v).sum();
        let candidate = (covered.len(), total, indices.clone());
        let better = match &best {
            None => true,
            Some((c, t, _)) => candidate.0 > *c || (candidate.0 == *c && candidate.1 > *t + 1e-12),
        };
        if better {
            best = Some(candidate);
        }
        // Next combination in lexicographic order.
        let mut i = ba;
        loop {
            if i == 0 {
                let (_, _, idxs) = best.expect("at least one combination");
                return idxs.into_iter().map(|i| scores[i].clone()).collect();
            }
            i -= 1;
            if indices[i] != i + scores.len() - ba {
                indices[i] += 1;
                for j in i + 1..ba {
                    indices[j] = indices[j - 1] + 1;
                }
                break;
            }
        }
    }
}

fn greedy_cover(scores: &[PairScore], ba: usize) -> Vec<PairScore> {
    let mut chosen: Vec<usize> = Vec::new();
    let mut used: HashSet<AttrId> = HashSet::new();
    while chosen.len() < ba {
        // Most new attributes; ties by correlation (scores are presorted).
        let next = (0..scores.len())
            .filter(|i| !chosen.contains(i))
            .max_by(|&a, &b| {
                let new_a = usize::from(!used.contains(&scores[a].x))
                    + usize::from(!used.contains(&scores[a].y));
                let new_b = usize::from(!used.contains(&scores[b].x))
                    + usize::from(!used.contains(&scores[b].y));
                new_a.cmp(&new_b).then(
                    scores[b]
                        .cramers_v
                        .total_cmp(&scores[a].cramers_v)
                        .reverse(),
                )
            });
        match next {
            Some(i) => {
                used.insert(scores[i].x);
                used.insert(scores[i].y);
                chosen.push(i);
            }
            None => break,
        }
    }
    chosen.sort_unstable();
    chosen.into_iter().map(|i| scores[i].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn score(x: usize, y: usize, v: f64) -> PairScore {
        PairScore {
            x: AttrId(x),
            y: AttrId(y),
            cramers_v: v,
            chi_squared: v * 100.0,
        }
    }

    /// The paper's running example: pairs BC, AB, CD, AD ranked by
    /// correlation; attributes A=0, B=1, C=2, D=3.
    fn paper_example() -> Vec<PairScore> {
        vec![
            score(1, 2, 0.9), // BC
            score(0, 1, 0.8), // AB
            score(2, 3, 0.7), // CD
            score(0, 3, 0.1), // AD
        ]
    }

    fn pair_names(pairs: &[PairScore]) -> Vec<(usize, usize)> {
        pairs.iter().map(|p| (p.x.0, p.y.0)).collect()
    }

    #[test]
    fn attribute_cover_matches_paper_example() {
        let chosen = choose_pairs(&paper_example(), 2);
        // {AB, CD} covers all four attributes with total 1.5, beating
        // {BC, AD} (also 4 attributes but total 1.0).
        assert_eq!(pair_names(&chosen), vec![(0, 1), (2, 3)]);
    }

    #[test]
    fn budget_larger_than_pairs_takes_all() {
        let chosen = choose_pairs(&paper_example(), 10);
        assert_eq!(chosen.len(), 4);
    }

    #[test]
    fn zero_budget_returns_empty() {
        assert!(choose_pairs(&paper_example(), 0).is_empty());
    }

    #[test]
    fn greedy_cover_agrees_on_paper_example() {
        let chosen = greedy_cover(&paper_example(), 2);
        // Greedy: first pick = most new attrs (all give 2), tie → highest
        // correlation = BC; then AD adds 2 new. A different (still
        // 4-covering) solution than exhaustive — verify it covers all 4.
        let covered: HashSet<AttrId> = chosen.iter().flat_map(|p| [p.x, p.y]).collect();
        assert_eq!(covered.len(), 4);
    }
}
