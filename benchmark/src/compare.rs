//! `compare a.json b.json`: one row per (workload, end-to-end metric) of
//! two result sets (files of one record per line, as `run --out` appends
//! them), judged by the bound the benchmark fixed for the metric.

use crate::json::Json;
use crate::metrics::{self, Better};
use crate::stats::median;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The spread inside a run is wider than the bound: the sets cannot
    /// resolve a difference of that size.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against `a` (medians, with each side's segment spread).
pub fn judge(better: Better, bound: f64, a: f64, b: f64, spread_a: f64, spread_b: f64) -> Verdict {
    if spread_a.max(spread_b) > bound {
        return Verdict::Unresolved;
    }
    let worsening = match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// `(workload, metric) → (values, spreads)` over a set's untraced records.
type Set = BTreeMap<(String, String), (Vec<f64>, Vec<f64>)>;

fn load(path: &Path) -> Result<(Set, bool), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut set = Set::new();
    let mut noisy = false;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let record = Json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
        if record.get("trace").and_then(Json::as_bool) != Some(false) {
            continue;
        }
        noisy |= record.get("noisy").and_then(Json::as_bool) == Some(true);
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("record without workload")?;
        let metrics = record
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("record without metrics")?;
        for (name, reading) in metrics {
            let value = reading
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{workload}/{name}: no value"))?;
            let spread = record
                .get("spreads")
                .and_then(|s| s.get(name))
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            let entry = set.entry((workload.to_string(), name.clone())).or_default();
            entry.0.push(value);
            entry.1.push(spread);
        }
    }
    Ok((set, noisy))
}

/// Prints the comparison; `Ok(true)` when no row is `worse`.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let ((set_a, noisy_a), (set_b, noisy_b)) = (load(a)?, load(b)?);
    println!(
        "{:<16} {:<24} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "a", "b", "spread_a", "spread_b", "bound"
    );
    let mut all_ok = true;
    for ((workload, name), (values_a, spreads_a)) in &set_a {
        let Some((values_b, spreads_b)) = set_b.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let Some(def) = metrics::end_to_end(name) else {
            continue;
        };
        let bound = def.bound.expect("end-to-end metrics carry a bound");
        let (a, b) = (median(values_a), median(values_b));
        let (spread_a, spread_b) = (median(spreads_a), median(spreads_b));
        let verdict = judge(def.better, bound, a, b, spread_a, spread_b);
        all_ok &= verdict != Verdict::Worse;
        println!(
            "{workload:<16} {name:<24} {a:>14.4} {b:>14.4} {spread_a:>8.3} {spread_b:>8.3} {bound:>6.2}  {}",
            verdict.as_str()
        );
    }
    if noisy_a || noisy_b {
        println!("note: a set holds a run the host-noise guard flagged");
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Lower is better: 10 % slower than the parent breaks a 5 % bound.
        assert_eq!(
            judge(Better::Lower, 0.05, 100.0, 110.0, 0.0, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            judge(Better::Lower, 0.15, 100.0, 110.0, 0.0, 0.0),
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Lower, 0.05, 100.0, 80.0, 0.0, 0.0),
            Verdict::Ok
        );
        // Higher is better: the drop is what counts.
        assert_eq!(
            judge(Better::Higher, 0.02, 0.60, 0.50, 0.0, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            judge(Better::Higher, 0.02, 0.60, 0.70, 0.0, 0.0),
            Verdict::Ok
        );
        // A spread wider than the bound resolves nothing, either way.
        assert_eq!(
            judge(Better::Lower, 0.05, 100.0, 130.0, 0.08, 0.01),
            Verdict::Unresolved
        );
    }
}
