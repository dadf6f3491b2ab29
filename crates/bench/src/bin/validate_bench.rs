//! CI validator for the `BENCH_*.json` perf artifacts.
//!
//! Reads the checked-in `crates/bench/bench_schema.json` and verifies, for
//! every target it names, that `BENCH_<target>.json` exists, parses, and
//! carries the expected structure: the required top-level keys, every
//! required group with a non-empty `median_ns` object, a `speedup` object
//! whose `baseline` names an actual `median_ns` member where required, and
//! every required convergence metric. Run after a (fast-mode) bench sweep;
//! exits non-zero on the first structural defect so malformed perf
//! artifacts fail the build.
//!
//! With `--min-speedup`, the validator additionally enforces the
//! **regression gate**: every bound listed in the schema's
//! `speedup_floors` (entries of a group's `speedup` object),
//! `metric_floors` and `metric_ceilings` (entries of a group's `metrics`
//! object) must be met by the recorded value — a speedup that decays below
//! its checked-in floor, or an absolute latency that rises above its
//! checked-in ceiling, fails the build, not just a malformed artifact.
//! Ceilings are the preferred form: a ratio against a retained baseline
//! moves whenever the baseline does, an absolute nanosecond bound does not.
//! Bounds are deliberately looser than the recorded steady-state numbers so
//! fast-mode CI noise passes while a genuine regression (e.g. the flights
//! model falling back from the tree kernel to the 150k-term closure) does
//! not.

use entropydb_bench::jsonv::{parse, Json};
use std::process::ExitCode;

fn fail(msg: String) -> ExitCode {
    eprintln!("validate_bench: FAIL: {msg}");
    ExitCode::FAILURE
}

fn str_list(v: Option<&Json>) -> Vec<String> {
    v.and_then(Json::as_arr)
        .map(|items| {
            items
                .iter()
                .filter_map(|i| i.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default()
}

/// The regression bounds `--min-speedup` enforces: the schema key listing
/// them, the artifact object they apply to, and whether they are ceilings
/// (value at or below the bound) or floors (at or above it).
const BOUND_KINDS: [(&str, &str, bool); 3] = [
    ("speedup_floors", "speedup", false),
    ("metric_floors", "metrics", false),
    ("metric_ceilings", "metrics", true),
];

/// Checks the bounds of one kind for one artifact; returns how many held.
fn check_bounds(
    path: &str,
    groups: &Json,
    rules: &Json,
    (schema_key, value_key, ceiling): (&str, &str, bool),
) -> std::result::Result<usize, String> {
    let Some(bound_groups) = rules.get(schema_key).and_then(Json::members) else {
        return Ok(0);
    };
    let (what, relation) = if ceiling {
        ("ceiling", "<=")
    } else {
        ("floor", ">=")
    };
    let mut checked = 0usize;
    for (group, bounds) in bound_groups {
        let Some(values) = groups.get(group).and_then(|g| g.get(value_key)) else {
            return Err(format!("{path}: group {group:?} lacks {value_key:?}"));
        };
        let Some(bounds) = bounds.members() else {
            return Err(format!(
                "schema {schema_key} for {group:?} is not an object"
            ));
        };
        for (name, bound) in bounds {
            let Json::Num(bound) = bound else {
                return Err(format!("schema {what} {group:?}.{name:?} is not numeric"));
            };
            let Some(Json::Num(got)) = values.get(name) else {
                return Err(format!(
                    "{path}: group {group:?} records no numeric {value_key} entry {name:?}"
                ));
            };
            if (ceiling && got > bound) || (!ceiling && got < bound) {
                return Err(format!(
                    "{path}: {group:?} {value_key} {name:?} = {got} broke \
                     the checked-in {what} {bound} — performance regression"
                ));
            }
            println!("validate_bench: {what} ok {path}: {group}/{name} = {got} {relation} {bound}");
            checked += 1;
        }
    }
    Ok(checked)
}

fn main() -> ExitCode {
    let gate_speedups = std::env::args().any(|a| a == "--min-speedup");
    let dir = env!("CARGO_MANIFEST_DIR");
    let schema_path = format!("{dir}/bench_schema.json");
    let schema_text = match std::fs::read_to_string(&schema_path) {
        Ok(t) => t,
        Err(e) => return fail(format!("cannot read {schema_path}: {e}")),
    };
    let schema = match parse(&schema_text) {
        Ok(v) => v,
        Err(e) => return fail(format!("{schema_path} is not valid JSON: {e}")),
    };
    let required_top = str_list(schema.get("required_top_level"));
    let Some(targets) = schema.get("targets").and_then(Json::members) else {
        return fail(format!("{schema_path} has no \"targets\" object"));
    };

    let mut checked = 0usize;
    for (target, rules) in targets {
        let path = format!("{dir}/BENCH_{target}.json");
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => return fail(format!("missing artifact {path}: {e}")),
        };
        let doc = match parse(&text) {
            Ok(v) => v,
            Err(e) => return fail(format!("{path} is not valid JSON: {e}")),
        };
        for key in &required_top {
            if doc.get(key).is_none() {
                return fail(format!("{path}: missing top-level key {key:?}"));
            }
        }
        if doc.get("target").and_then(Json::as_str) != Some(target) {
            return fail(format!("{path}: \"target\" does not equal {target:?}"));
        }
        let Some(groups) = doc.get("groups") else {
            return fail(format!("{path}: missing \"groups\""));
        };

        for group in str_list(rules.get("groups")) {
            let Some(g) = groups.get(&group) else {
                return fail(format!("{path}: missing group {group:?}"));
            };
            match g.get("median_ns").and_then(Json::members) {
                Some(members) if !members.is_empty() => {}
                _ => {
                    return fail(format!(
                        "{path}: group {group:?} has no non-empty \"median_ns\""
                    ))
                }
            }
        }
        for group in str_list(rules.get("speedup_groups")) {
            let Some(g) = groups.get(&group) else {
                return fail(format!("{path}: missing speedup group {group:?}"));
            };
            let Some(speedup) = g.get("speedup") else {
                return fail(format!("{path}: group {group:?} lacks \"speedup\""));
            };
            let Some(baseline) = speedup.get("baseline").and_then(Json::as_str) else {
                return fail(format!(
                    "{path}: group {group:?} speedup lacks a \"baseline\" name"
                ));
            };
            let has_member = g
                .get("median_ns")
                .and_then(Json::members)
                .is_some_and(|m| m.iter().any(|(k, _)| k == baseline));
            if !has_member {
                return fail(format!(
                    "{path}: group {group:?} speedup baseline {baseline:?} \
                     is not a median_ns member"
                ));
            }
        }
        if let Some(metric_rules) = rules.get("metrics").and_then(Json::members) {
            for (group, names) in metric_rules {
                let Some(metrics) = groups.get(group).and_then(|g| g.get("metrics")) else {
                    return fail(format!("{path}: group {group:?} lacks \"metrics\""));
                };
                for name in str_list(Some(names)) {
                    match metrics.get(&name) {
                        Some(Json::Num(_)) => {}
                        other => {
                            return fail(format!(
                                "{path}: group {group:?} metric {name:?} \
                                 missing or non-numeric ({other:?})"
                            ))
                        }
                    }
                }
            }
        }
        if gate_speedups {
            let mut met = 0usize;
            for kind in BOUND_KINDS {
                match check_bounds(&path, groups, rules, kind) {
                    Ok(n) => met += n,
                    Err(msg) => return fail(msg),
                }
            }
            if met > 0 {
                println!("validate_bench: {met} bounds met for {path}");
            }
        }
        println!("validate_bench: ok {path}");
        checked += 1;
    }
    println!("validate_bench: {checked} artifacts valid");
    ExitCode::SUCCESS
}
