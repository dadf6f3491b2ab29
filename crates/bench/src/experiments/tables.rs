//! The paper's tabular artifacts:
//!
//! * **Fig. 3** — active-domain sizes of both datasets (asserting the
//!   generators reproduce them exactly).
//! * **Fig. 4** — the four MaxEnt summary configurations.
//! * **Sec. 4.1 / 4.3 compression numbers** — uncompressed monomials vs
//!   the evaluated representation, closure terms plus tree pass cells (the
//!   paper quotes 4.4 M vs ~9 k terms at budget 2,000), and serialized
//!   summary sizes (Sec. 6.2 quotes ~600 KB of variables).
//! * **Sec. 5 solver table** — sweeps, residual, and solve time per summary
//!   (the paper's prototype took "under 1 day"; the batched solver takes
//!   seconds at these scales).

use crate::common::{build_flights_summaries, flights_coarse, flights_pairs, Scale};
use crate::report::{f3, Report};
use entropydb_core::prelude::*;
use entropydb_core::selection::heuristics::select_pair_statistics;
use entropydb_data::flights::restrict_to_time_distance;
use entropydb_data::particles::{self, ParticlesConfig};

fn fig3(scale: &Scale) -> String {
    let flights = flights_coarse(scale);
    let fine = crate::common::flights_fine(scale);
    let p = particles::generate(&ParticlesConfig {
        rows_per_snapshot: scale.particles_rows.min(20_000),
        snapshots: 3,
        seed: 0xA57,
        halos: 24,
    });

    let mut report = Report::new(
        "Fig 3: active domain sizes (generator == paper)",
        &["dataset", "attribute", "domain"],
    );
    for (name, table) in [
        ("FlightsCoarse", &flights.table),
        ("FlightsFine", &fine.table),
        ("Particles", &p.table),
    ] {
        for attr in table.schema().attributes() {
            report.row(vec![
                name.to_string(),
                attr.name().to_string(),
                attr.domain_size().to_string(),
            ]);
        }
        report.row(vec![
            name.to_string(),
            "# possible tuples".to_string(),
            format!("{:.1e}", table.schema().tuple_space_size() as f64),
        ]);
    }
    report.render()
}

fn fig4(scale: &Scale) -> String {
    let mut report = Report::new(
        "Fig 4: MaxEnt summary configurations (B = Ba x Bs)",
        &["summary", "pairs", "buckets/pair"],
    );
    report.row(vec!["No2D".into(), "-".into(), "0".into()]);
    report.row(vec![
        "Ent1&2".into(),
        "1:(origin,distance) 2:(dest,distance)".into(),
        scale.bs_two_pairs.to_string(),
    ]);
    report.row(vec![
        "Ent3&4".into(),
        "3:(fl_time,distance) 4:(origin,dest)".into(),
        scale.bs_two_pairs.to_string(),
    ]);
    report.row(vec![
        "Ent1&2&3".into(),
        "pairs 1, 2, 3".into(),
        scale.bs_three_pairs.to_string(),
    ]);
    report.render()
}

fn compression(scale: &Scale) -> String {
    let dataset = flights_coarse(scale);
    let (table, _, et, dt) = restrict_to_time_distance(&dataset);

    let mut report = Report::new(
        "Sec 4.1/4.3: compression — uncompressed monomials vs evaluated terms + pass cells",
        &[
            "config",
            "budget",
            "uncompressed",
            "evaluated",
            "ratio",
            "summary_bytes",
        ],
    );
    for &budget in &scale.fig2_budgets {
        let stats = select_pair_statistics(&table, et, dt, budget, Heuristic::Composite)
            .expect("selection");
        let summary =
            MaxEntSummary::build(&table, stats, &SolverConfig::default()).expect("builds");
        report.row(size_row(
            "(ET,DT) composite".into(),
            budget.to_string(),
            &summary,
        ));
    }

    // Full Fig-4 summaries on the 5-attribute table.
    for (name, summary) in build_flights_summaries(&dataset, scale) {
        report.row(size_row(name, "-".into(), &summary));
    }
    report.render()
}

/// One row of the compression table: the uncompressed monomial count
/// against what an evaluation walks — closure terms plus tree pass cells.
fn size_row(config: String, budget: String, summary: &MaxEntSummary) -> Vec<String> {
    let s = summary.size_stats();
    let evaluated = s.num_terms + s.tree_cells;
    vec![
        config,
        budget,
        format!("{:.2e}", s.uncompressed_monomials as f64),
        evaluated.to_string(),
        format!(
            "{:.1e}x",
            s.uncompressed_monomials as f64 / evaluated as f64
        ),
        entropydb_core::serialize::to_string(summary)
            .len()
            .to_string(),
    ]
}

fn solver_table(scale: &Scale) -> String {
    let dataset = flights_coarse(scale);
    let pairs = flights_pairs(&dataset);
    let mut report = Report::new(
        "Sec 5: model solving (sweeps to converge, residual, wall time)",
        &[
            "summary",
            "variables",
            "sweeps",
            "residual",
            "skipped",
            "seconds",
        ],
    );
    for (name, summary) in build_flights_summaries(&dataset, scale) {
        let r = summary.solver_report();
        report.row(vec![
            name,
            summary.statistics().num_variables().to_string(),
            r.sweeps.to_string(),
            format!("{:.1e}", r.max_residual),
            r.skipped_updates.to_string(),
            f3(r.seconds),
        ]);
    }
    let _ = pairs;
    report.render()
}

/// Runs all tabular artifacts.
pub fn run(scale: &Scale) -> String {
    format!(
        "{}\n{}\n{}\n{}",
        fig3(scale),
        fig4(scale),
        compression(scale),
        solver_table(scale)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render() {
        let mut scale = Scale::quick();
        scale.flights_rows = 5_000;
        scale.particles_rows = 3_000;
        scale.bs_two_pairs = 30;
        scale.bs_three_pairs = 20;
        scale.fig2_budgets = vec![25];
        let out = run(&scale);
        assert!(out.contains("Fig 3"));
        assert!(out.contains("FlightsFine"));
        assert!(out.contains("Fig 4"));
        assert!(out.contains("compression"));
        assert!(out.contains("model solving"));
        // Fig 3 domain rows present.
        assert!(out.contains("307"));
        assert!(out.contains("147"));
    }
}
