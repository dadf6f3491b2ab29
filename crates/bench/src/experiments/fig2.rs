//! Figure 2(b): statistic-selection heuristics × budget.
//!
//! The paper restricts Flights to `(fl_date, fl_time, distance)`, gathers 2D
//! statistics over `(fl_time, distance)` with each heuristic (ZERO, LARGE,
//! COMPOSITE) at budgets 500/1000/2000, and measures query accuracy on 100
//! heavy hitters, 200 nonexistent values, and 100 light hitters of the
//! point-query template `fl_time = x AND distance = y`.
//!
//! Expected shape: LARGE and COMPOSITE near-zero error on heavy hitters at
//! large budgets while ZERO stays high; ZERO best on nonexistent values;
//! COMPOSITE competitive everywhere (the paper's pick).

use crate::common::{mean_error_on, mean_null_error, Method, Scale};
use crate::report::{f3, Report};
use entropydb_core::prelude::*;
use entropydb_core::selection::heuristics::select_pair_statistics;
use entropydb_data::flights::restrict_to_time_distance;
use entropydb_data::workload::Workload;

/// Runs the experiment, returning the rendered report.
pub fn run(scale: &Scale) -> String {
    let dataset = crate::common::flights_coarse(scale);
    let (table, _fd, et, dt) = restrict_to_time_distance(&dataset);
    let workload = Workload::generate(&table, &[et, dt], scale.heavy, scale.light, scale.nulls, 2)
        .expect("workload");

    let mut report = Report::new(
        "Fig 2(b): heuristic accuracy vs budget on (fl_time, distance)",
        &[
            "heuristic",
            "budget",
            "heavy_err",
            "nonexistent_err",
            "light_err",
            "evaluated",
        ],
    );

    for &budget in &scale.fig2_budgets {
        for heuristic in Heuristic::ALL {
            let stats =
                select_pair_statistics(&table, et, dt, budget, heuristic).expect("selection");
            let summary = MaxEntSummary::build(&table, stats, &SolverConfig::default())
                .expect("summary builds");
            let size = summary.size_stats();
            let evaluated = size.num_terms + size.tree_cells;
            let method = Method::summary(heuristic.name(), summary);
            report.row(vec![
                heuristic.name().to_string(),
                budget.to_string(),
                f3(mean_error_on(&method, &workload, &workload.heavy)),
                f3(mean_null_error(&method, &workload)),
                f3(mean_error_on(&method, &workload, &workload.light)),
                evaluated.to_string(),
            ]);
        }
    }
    report.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_runs_and_shows_expected_shape() {
        let mut scale = Scale::quick();
        scale.flights_rows = 4_000;
        scale.heavy = 10;
        scale.light = 10;
        scale.nulls = 20;
        scale.fig2_budgets = vec![60];
        let out = run(&scale);
        assert!(out.contains("Composite"));
        assert!(out.contains("Zero"));
        assert!(out.contains("Large"));
        // One row per heuristic per budget plus header/separator.
        assert_eq!(out.lines().count(), 3 + 3);
    }
}
