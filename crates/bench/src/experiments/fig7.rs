//! Figure 7: Particles scalability — accuracy and per-query runtime for
//! three 4D selection templates as the dataset grows one snapshot at a time.
//!
//! Methods: a uniform sample of fixed absolute size (the paper's 1 GB
//! sample keeps its size as data grows, so its *fraction* shrinks), a
//! stratified sample over `(density, grp)`, and two MaxEnt summaries —
//! EntNo2D (1D statistics only) and EntAll (five 100-bucket COMPOSITE 2D
//! statistics over the most correlated non-snapshot pairs).
//!
//! Expected shape: samples win heavy hitters (the bucketization is coarse
//! and the sample is large relative to the distinct-group count); EntAll
//! beats EntNo2D on queries covered by its statistics; EntropyDB answers
//! fastest; on light hitters only the matching stratified sample does well.

use crate::common::{mean_error_on, Method, Scale};
use crate::report::{f3, ms, Report};
use entropydb_core::prelude::*;
use entropydb_core::selection::choose_pairs;
use entropydb_core::selection::heuristics::select_pair_statistics;
use entropydb_data::particles::{self, ParticlesConfig, ParticlesDataset};
use entropydb_data::workload::Workload;
use entropydb_sampling::{stratified_sample, uniform_sample};
use entropydb_storage::correlation::rank_pairs;
use entropydb_storage::AttrId;
use std::time::Instant;

/// EntAll's 2D statistics: the five most correlated pairs (attribute-cover
/// strategy) among the seven non-snapshot attributes, 100 buckets each.
fn entall_stats(
    d: &ParticlesDataset,
    per_pair: usize,
) -> Vec<entropydb_core::statistics::MultiDimStatistic> {
    let candidates = [d.density, d.mass, d.x, d.y, d.z, d.grp, d.ptype];
    let scores = rank_pairs(&d.table, &candidates).expect("pair ranking");
    let chosen = choose_pairs(&scores, 5);
    let mut stats = Vec::new();
    for pair in &chosen {
        stats.extend(
            select_pair_statistics(&d.table, pair.x, pair.y, per_pair, Heuristic::Composite)
                .expect("selection"),
        );
    }
    stats
}

/// Mean per-query latency of `method` over a workload slice.
fn mean_latency(method: &Method, workload: &Workload, items: &[(Vec<u32>, u64)]) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    for (values, _) in items {
        let _ = method.estimate(&workload.predicate(values));
    }
    start.elapsed().as_secs_f64() / items.len() as f64
}

/// Runs the experiment, returning the rendered report.
pub fn run(scale: &Scale) -> String {
    let mut out = String::new();
    for snapshots in 1..=3usize {
        let dataset = particles::generate(&ParticlesConfig {
            rows_per_snapshot: scale.particles_rows,
            snapshots,
            seed: 0xA57,
            halos: 24,
        });
        let table = &dataset.table;

        // Fixed absolute sample size: fraction shrinks as snapshots grow.
        let fraction = (scale.sample_fraction / snapshots as f64).max(1e-6);
        let methods = vec![
            Method::Sample(
                "Uni".into(),
                uniform_sample(table, fraction, 31).expect("uniform"),
            ),
            Method::Sample(
                "Strat(den,grp)".into(),
                stratified_sample(table, &[dataset.density, dataset.grp], fraction, 32)
                    .expect("stratified"),
            ),
            Method::summary(
                "EntNo2D",
                MaxEntSummary::build(table, vec![], &SolverConfig::default()).expect("no2d"),
            ),
            Method::summary(
                "EntAll",
                MaxEntSummary::build(
                    table,
                    entall_stats(&dataset, scale.bs_three_pairs.min(100)),
                    &SolverConfig::default(),
                )
                .expect("entall"),
            ),
        ];

        let templates: Vec<(&str, Vec<AttrId>)> = vec![
            (
                "den&mass&grp&type",
                vec![dataset.density, dataset.mass, dataset.grp, dataset.ptype],
            ),
            (
                "mass&x&y&z",
                vec![dataset.mass, dataset.x, dataset.y, dataset.z],
            ),
            (
                "y&z&grp&type",
                vec![dataset.y, dataset.z, dataset.grp, dataset.ptype],
            ),
        ];

        let mut report = Report::new(
            format!(
                "Fig 7: Particles, {snapshots} snapshot(s), n = {}",
                table.num_rows()
            ),
            &[
                "template",
                "method",
                "heavy_err",
                "light_err",
                "avg_latency",
            ],
        );
        for (label, attrs) in &templates {
            let workload = Workload::generate(table, attrs, scale.heavy, scale.light, 0, 41)
                .expect("workload");
            for method in &methods {
                report.row(vec![
                    label.to_string(),
                    method.name().to_string(),
                    f3(mean_error_on(method, &workload, &workload.heavy)),
                    f3(mean_error_on(method, &workload, &workload.light)),
                    ms(mean_latency(method, &workload, &workload.heavy)),
                ]);
            }
        }
        out.push_str(&report.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_runs_at_tiny_scale() {
        let mut scale = Scale::quick();
        scale.particles_rows = 2_500;
        scale.heavy = 5;
        scale.light = 5;
        scale.bs_three_pairs = 30;
        let out = run(&scale);
        assert!(out.contains("1 snapshot(s)"));
        assert!(out.contains("3 snapshot(s)"));
        assert!(out.contains("EntAll"));
        assert!(out.contains("Strat(den,grp)"));
    }
}
