//! The paper's accuracy trio (Sec. 6.2), asked over the wire: relative
//! error on heavy and light hitters and the F-measure of telling light
//! hitters from nonexistent values, against exact counts on the
//! benchmark's own table. It guards that a faster solver or kernel did not
//! buy speed with wrong answers.

use entropydb_core::metrics::{f_measure, relative_error};
use entropydb_data::flights::FlightsDataset;
use entropydb_data::workload::Workload as PointWorkload;
use entropydb_storage::{AttrId, Predicate, Table};

const HEAVY: usize = 100;
const LIGHT: usize = 100;
const NULLS: usize = 200;
const NULL_SEED: u64 = 11;

#[derive(Debug, Clone, Copy, Default)]
pub struct Accuracy {
    pub rel_err_heavy: f64,
    pub rel_err_light: f64,
    pub f_measure_null: f64,
}

/// The query templates: two pairs the summary holds 2-D statistics for and
/// one it does not.
fn templates(d: &FlightsDataset) -> [[AttrId; 2]; 3] {
    [
        [d.origin, d.distance],
        [d.fl_time, d.distance],
        [d.origin, d.dest],
    ]
}

/// Mean of the per-template metrics under `estimate` (a raw expectation;
/// the paper's rounding — below 0.5 counts as 0 — is applied here).
/// `table` holds the truth: base rows plus any appended ones.
pub fn evaluate(
    table: &Table,
    d: &FlightsDataset,
    mut estimate: impl FnMut(&Predicate) -> f64,
) -> Result<Accuracy, String> {
    let mut rounded = |pred: &Predicate| {
        let raw = estimate(pred);
        if raw < 0.5 {
            0.0
        } else {
            raw
        }
    };
    let mut total = Accuracy::default();
    let templates = templates(d);
    for attrs in &templates {
        let workload = PointWorkload::generate(table, attrs, HEAVY, LIGHT, NULLS, NULL_SEED)
            .map_err(|e| format!("accuracy workload: {e}"))?;
        let mut mean_error = |items: &[(Vec<u32>, u64)]| {
            let sum: f64 = items
                .iter()
                .map(|(values, truth)| {
                    relative_error(*truth as f64, rounded(&workload.predicate(values)))
                })
                .sum();
            sum / items.len().max(1) as f64
        };
        total.rel_err_heavy += mean_error(&workload.heavy);
        total.rel_err_light += mean_error(&workload.light);
        let light: Vec<f64> = workload
            .light
            .iter()
            .map(|(values, _)| rounded(&workload.predicate(values)))
            .collect();
        let nulls: Vec<f64> = workload
            .nulls
            .iter()
            .map(|values| rounded(&workload.predicate(values)))
            .collect();
        total.f_measure_null += f_measure(&light, &nulls).f;
    }
    let n = templates.len() as f64;
    Ok(Accuracy {
        rel_err_heavy: total.rel_err_heavy / n,
        rel_err_light: total.rel_err_light / n,
        f_measure_null: total.f_measure_null / n,
    })
}
