//! The metric dictionary: every name the benchmark reports, with its unit
//! and direction. `BENCHMARK.json` lists the same names; a unit test keeps
//! the two equal.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening that counts as a regression (end-to-end only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the system sees. Reported by `--trace 0` runs.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("point_p50_us", "us", Better::Lower, 0.25),
    e2e("range_p50_us", "us", Better::Lower, 0.25),
    e2e("groupby_p50_us", "us", Better::Lower, 0.25),
    e2e("topk_p50_us", "us", Better::Lower, 0.25),
    e2e("batch16_p50_us", "us", Better::Lower, 0.25),
    e2e("repeat_p50_us", "us", Better::Lower, 0.25),
    e2e("append_visible_p50_ms", "ms", Better::Lower, 0.25),
    e2e("rel_err_heavy", "ratio", Better::Lower, 0.02),
    e2e("rel_err_light", "ratio", Better::Lower, 0.02),
    e2e("f_measure_null", "ratio", Better::Higher, 0.02),
    e2e("summary_bytes", "bytes", Better::Lower, 0.02),
];

/// Single layers, named after the module they time. Reported by
/// `--trace 1` runs; never gated.
pub const PER_LAYER: &[Def] = &[
    lower("data.generate_s", "s"),
    lower("selection.select_s", "s"),
    higher("selection.stats_selected", "count"),
    lower("solver.build_s", "s"),
    lower("solver.solve_s", "s"),
    lower("solver.sweeps", "count"),
    lower("solver.max_residual", "ratio"),
    higher("solver.converged", "count"),
    lower("polynomial.terms", "count"),
    lower("polynomial.components", "count"),
    lower("polynomial.ns_per_term", "ns"),
    lower("factorized.eval_masked_us", "us"),
    lower("factorized.eval_many16_us", "us"),
    lower("assignment.mask_build_us", "us"),
    lower("engine.execute_point_us", "us"),
    lower("engine.execute_range_us", "us"),
    lower("engine.execute_groupby_us", "us"),
    lower("engine.execute_topk_us", "us"),
    lower("engine.execute_batch16_us", "us"),
    lower("engine.self_point_us", "us"),
    lower("plan.encode_request_us", "us"),
    lower("plan.decode_request_us", "us"),
    lower("plan.encode_response_us", "us"),
    lower("plan.decode_response_us", "us"),
    lower("plan.request_bytes_p50", "bytes"),
    lower("plan.response_bytes_p50", "bytes"),
    lower("storage.parse_statement_us", "us"),
    lower("serialize.save_s", "s"),
    lower("serialize.load_s", "s"),
    lower("serialize.blob_bytes", "bytes"),
    lower("server.spawn_to_pong_s", "s"),
    lower("server.ping_rtt_us", "us"),
    lower("server.wire_overhead_point_us", "us"),
    lower("server.bytes_in_per_req", "bytes"),
    lower("server.bytes_out_per_req", "bytes"),
    lower("server.shed_total", "count"),
    lower("server.dispatch_depth_max", "count"),
    higher("server.closed_loop_rps_2conn", "1/s"),
    higher("server.pipelined_rps", "1/s"),
    lower("par.dispatch_us", "us"),
    lower("sharded.execute_point_us", "us"),
    lower("sharded.execute_topk_us", "us"),
    lower("scatter.shard_sum_us", "us"),
    lower("scatter.shard_max_us", "us"),
    higher("scatter.cache_hits", "count"),
    lower("scatter.cache_misses", "count"),
    higher("scatter.cache_coalesced", "count"),
    lower("scatter.cache_evicted", "count"),
    higher("scatter.cache_hit_ratio", "ratio"),
    lower("probe.encode_request_us", "us"),
    lower("probe.decode_request_us", "us"),
    lower("probe.encode_response_us", "us"),
    lower("probe.decode_response_us", "us"),
    lower("probe.request_bytes_p50", "bytes"),
    lower("probe.execute_us", "us"),
    lower("remote.probe_rtt_us", "us"),
    lower("remote.gateway_overhead_point_us", "us"),
    lower("ingest.append_ack_us", "us"),
    lower("ingest.fold_ms", "ms"),
    higher("ingest.folds", "count"),
    higher("ingest.appended_rows", "count"),
    lower("ingest.duplicate_appends", "count"),
    lower("ingest.fit_segment_ms", "ms"),
    lower("ingest.point_p50_first8_us", "us"),
    lower("ingest.point_p50_last8_us", "us"),
    lower("sampling.uniform_rel_err_heavy", "ratio"),
    lower("sampling.uniform_rel_err_light", "ratio"),
    higher("sampling.uniform_f_measure_null", "ratio"),
    lower("sampling.uniform_range_us", "us"),
    lower("loadgen.point_p99_us", "us"),
    lower("loadgen.range_p99_us", "us"),
    lower("loadgen.groupby_p99_us", "us"),
    lower("loadgen.topk_p99_us", "us"),
    lower("loadgen.repeat_p99_us", "us"),
    lower("loadgen.append_visible_tail_ms", "ms"),
    higher("loadgen.append_visible_tail_pct", "%"),
    higher("loadgen.samples_point", "count"),
    higher("loadgen.samples_range", "count"),
    higher("loadgen.samples_groupby", "count"),
    higher("loadgen.samples_topk", "count"),
    higher("loadgen.samples_repeat", "count"),
    higher("loadgen.samples_append", "count"),
    lower("loadgen.segment_iqr_share", "ratio"),
    lower("loadgen.calib_cpu_ms", "ms"),
    lower("loadgen.calib_echo_rtt_us", "us"),
    lower("loadgen.unaccounted_share_point", "ratio"),
    lower("loadgen.trace_overhead_share", "ratio"),
    higher("loadgen.ops_attempted", "count"),
    lower("loadgen.ops_failed", "count"),
];

pub fn end_to_end(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::model::Workload;

    /// `BENCHMARK.json` at the repository root is the contract the driver
    /// reads; the binary reports from this dictionary. They must agree.
    #[test]
    fn benchmark_json_lists_exactly_this_dictionary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<Json> {
            match manifest.get(key) {
                Some(Json::Arr(items)) => items.clone(),
                other => panic!("{key}: {other:?}"),
            }
        };
        let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap().to_string();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let items = listed(key);
            assert_eq!(items.len(), defs.len(), "{key} count");
            for (item, def) in items.iter().zip(defs) {
                assert_eq!(text(item, "name"), def.name);
                assert_eq!(text(item, "unit"), def.unit, "{}", def.name);
                assert_eq!(text(item, "better"), def.better.as_str(), "{}", def.name);
                assert_eq!(
                    item.get("bound").and_then(Json::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
        let workloads: Vec<String> = listed("workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "{} listed twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def.bound.is_none_or(|b| b <= 0.25));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
