//! `entropydb` — a small CLI over the library: summarize a CSV file, then
//! explore it with approximate queries.
//!
//! ```text
//! entropydb summarize <data.csv> [--pairs K] [--budget B] [--out summary.txt]
//! entropydb query <data.csv> <summary.txt> "<predicate>" [--exact]
//! entropydb info <summary.txt>
//! ```
//!
//! Predicates use the textual language of `entropydb_storage::parser`:
//! `origin = CA AND distance BETWEEN 100 AND 800 AND dest IN (NY, FL)`.
//! The CSV is re-read at query time to recover the value dictionaries (the
//! summary file stores only the model).

use entropydb::core::polynomial::PolynomialSizeStats;
use entropydb::core::selection::choose_pairs;
use entropydb::core::selection::heuristics::select_pair_statistics;
use entropydb::prelude::*;
use entropydb::storage::correlation::rank_pairs;
use entropydb::storage::csv::{load_file, CsvOptions};
use entropydb::storage::exec;
use entropydb::storage::parser::parse_predicate;
use std::path::Path;
use std::process::ExitCode;

// `flags::duration` parses the servers' deadlines; nothing here takes one.
#[allow(dead_code)]
#[path = "../../crates/server/src/bin/common/flags.rs"]
mod flags;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  entropydb summarize <data.csv> [--pairs K] [--budget B] [--out summary.txt]\n  \
         entropydb query <data.csv> <summary.txt> \"<predicate>\" [--exact]\n  \
         entropydb info <summary.txt>"
    );
    ExitCode::from(2)
}

/// Prints a flag error before the usage text; exit code 2.
fn bad_flags(error: String) -> ExitCode {
    eprintln!("error: {error}");
    usage()
}

/// Refuses a positional argument that is a flag: `summarize --pairs 1 …`
/// would otherwise try to read a file named `--pairs`.
fn check_positionals(positionals: &[&String]) -> std::result::Result<(), String> {
    match positionals.iter().find(|arg| arg.starts_with("--")) {
        Some(flag) => Err(format!("expected a file or predicate, found flag {flag}")),
        None => Ok(()),
    }
}

fn summarize(args: &[String]) -> Result<ExitCode> {
    let Some(csv_path) = args.first() else {
        return Ok(usage());
    };
    if let Err(e) = check_positionals(&[csv_path]) {
        return Ok(bad_flags(e));
    }
    let parsed = (|| -> std::result::Result<(usize, usize), String> {
        flags::check_known(args, &["--pairs", "--budget", "--out"], &[])?;
        Ok((
            flags::value(args, "--pairs")?.unwrap_or(2),
            flags::value(args, "--budget")?.unwrap_or(200),
        ))
    })();
    let (pairs, budget) = match parsed {
        Ok(v) => v,
        Err(e) => return Ok(bad_flags(e)),
    };
    let out = flags::flag(args, "--out").unwrap_or_else(|| "summary.txt".to_string());

    eprintln!("loading {csv_path}...");
    let dataset = load_file(Path::new(csv_path), &CsvOptions::default())?;
    let table = &dataset.table;
    eprintln!(
        "  {} rows, {} attributes, {} possible tuples",
        table.num_rows(),
        table.schema().arity(),
        table.schema().tuple_space_size()
    );

    let attrs: Vec<_> = table.schema().attr_ids().collect();
    let scores = rank_pairs(table, &attrs)?;
    let chosen = choose_pairs(&scores, pairs);
    eprintln!(
        "choosing {} attribute pairs (attribute-cover):",
        chosen.len()
    );
    let mut stats = Vec::new();
    for p in &chosen {
        let (nx, ny) = (
            table.schema().attr(p.x)?.name().to_string(),
            table.schema().attr(p.y)?.name().to_string(),
        );
        eprintln!(
            "  ({nx}, {ny}) V = {:.3}, {budget} COMPOSITE statistics",
            p.cramers_v
        );
        stats.extend(select_pair_statistics(
            table,
            p.x,
            p.y,
            budget,
            Heuristic::Composite,
        )?);
    }

    eprintln!("solving the MaxEnt model...");
    let summary = MaxEntSummary::build(table, stats, &SolverConfig::default())?;
    let report = summary.solver_report();
    eprintln!("  {report}");
    eprintln!("  {}", kernels(&summary.size_stats()));
    entropydb::core::serialize::save_file(&summary, Path::new(&out)).map_err(|e| {
        ModelError::Parse {
            line: 0,
            message: format!("cannot write {out}: {e}"),
        }
    })?;
    eprintln!(
        "summary written to {out} ({} bytes)",
        std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0)
    );
    Ok(ExitCode::SUCCESS)
}

fn query(args: &[String]) -> Result<ExitCode> {
    let (Some(csv_path), Some(summary_path), Some(expr)) = (args.first(), args.get(1), args.get(2))
    else {
        return Ok(usage());
    };
    if let Err(e) = check_positionals(&[csv_path, summary_path, expr])
        .and_then(|()| flags::check_known(args, &[], &["--exact"]))
    {
        return Ok(bad_flags(e));
    }
    let exact = args.iter().any(|a| a == "--exact");

    let dataset = load_file(Path::new(csv_path), &CsvOptions::default())?;
    let summary = entropydb::core::serialize::load_file(Path::new(summary_path))?;
    if summary.statistics().domain_sizes() != dataset.table.schema().domain_sizes() {
        return Err(ModelError::ShapeMismatch);
    }

    // Full statements (COUNT / SUM / AVG / GROUP BY / TOP / SAMPLE) go
    // through the query IR; a bare predicate is shorthand for COUNT WHERE
    // (so an attribute literally named "count" stays queryable). When both
    // parses fail, statement-shaped input reports the statement parser's
    // diagnostic rather than a misleading "unknown attribute: COUNT".
    let request = match entropydb::core::plan::parse_request(expr, &dataset) {
        Ok(request) => request,
        Err(statement_err) => match parse_predicate(expr, &dataset) {
            Ok(pred) => QueryRequest::count(pred),
            Err(predicate_err) => {
                // A user-typed expression, not a wire line.
                #[allow(clippy::disallowed_methods)]
                let head = expr
                    .split_whitespace()
                    .next()
                    .and_then(|w| w.split('(').next())
                    .unwrap_or("");
                let statement_shaped = ["count", "sum", "avg", "group", "top", "sample"]
                    .iter()
                    .any(|k| head.eq_ignore_ascii_case(k));
                return Err(if statement_shaped {
                    statement_err
                } else {
                    predicate_err.into()
                });
            }
        },
    };
    let engine = QueryEngine::new(summary);
    let start = std::time::Instant::now();
    let response = engine.execute(&request)?;
    let elapsed = start.elapsed();
    match &response {
        QueryResponse::Estimate(est) => {
            let (lo, hi) = est.ci95();
            println!(
                "estimate: {:.1}   (95% CI {:.0}..{:.0}, rounded {})   [{elapsed:.2?}]",
                est.expectation,
                lo,
                hi,
                est.rounded()
            );
        }
        QueryResponse::Probability(p) => println!("probability: {p:.6}   [{elapsed:.2?}]"),
        QueryResponse::Average(None) => {
            println!("avg: undefined (zero-probability predicate)   [{elapsed:.2?}]")
        }
        QueryResponse::Average(Some(v)) => println!("avg: {v:.3}   [{elapsed:.2?}]"),
        QueryResponse::Groups(groups) => {
            let grouped = match &request {
                QueryRequest::GroupBy { attr, .. } => *attr,
                _ => AttrId(0),
            };
            for (v, est) in groups.iter().enumerate() {
                if est.exists() {
                    println!(
                        "  {} = {}   ≈ {:.1} ± {:.1}",
                        engine.schema().attr(grouped)?.name(),
                        dataset.label_of(grouped, v as u32)?,
                        est.expectation,
                        est.std_dev()
                    );
                }
            }
            println!("({} groups)   [{elapsed:.2?}]", groups.len());
        }
        QueryResponse::Groups2(rows) => {
            let live: usize = rows
                .iter()
                .map(|r| r.iter().filter(|e| e.exists()).count())
                .sum();
            println!("{live} non-empty cells   [{elapsed:.2?}]");
        }
        QueryResponse::Ranked(entries) => {
            let ranked = match &request {
                QueryRequest::TopK { attr, .. } => *attr,
                _ => AttrId(0),
            };
            for (rank, (v, est)) in entries.iter().enumerate() {
                println!(
                    "#{:<3} {}   ≈ {:.1}",
                    rank + 1,
                    dataset.label_of(ranked, *v)?,
                    est.expectation
                );
            }
            println!("[{elapsed:.2?}]");
        }
        QueryResponse::Rows { rows, .. } => {
            for row in rows.iter().take(20) {
                let labels: Vec<String> = row
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| dataset.label_of(AttrId(i), v))
                    .collect::<entropydb::storage::Result<_>>()?;
                println!("  {}", labels.join(", "));
            }
            println!("({} sampled rows)   [{elapsed:.2?}]", rows.len());
        }
    }
    if exact {
        if let Some(pred) = request.predicate() {
            if matches!(request, QueryRequest::Count { .. }) {
                let start = std::time::Instant::now();
                let truth = exec::count(&dataset.table, pred)?;
                println!("exact:    {truth}   [{:.2?}]", start.elapsed());
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn info(args: &[String]) -> Result<ExitCode> {
    let Some(summary_path) = args.first() else {
        return Ok(usage());
    };
    if let Err(e) =
        check_positionals(&[summary_path]).and_then(|()| flags::check_known(args, &[], &[]))
    {
        return Ok(bad_flags(e));
    }
    let summary = entropydb::core::serialize::load_file(Path::new(summary_path))?;
    let stats = summary.statistics();
    println!(
        "n = {} tuples over {} attributes",
        summary.n(),
        stats.arity()
    );
    for (i, attr) in summary.schema().attributes().iter().enumerate() {
        println!("  A{i} {} (domain {})", attr.name(), attr.domain_size());
    }
    let s = summary.size_stats();
    println!(
        "{} multi-dimensional statistics; {} evaluated terms and cells (vs {:.2e} uncompressed)",
        stats.multi().len(),
        s.num_terms + s.tree_cells,
        s.uncompressed_monomials as f64
    );
    println!("{}", kernels(&s));
    println!("solver: {}", summary.solver_report());
    Ok(ExitCode::SUCCESS)
}

/// What is evaluated: the one kernel each component is queried and fitted
/// on, and the size of what it materialised (message-pass cells, closure
/// terms). A closure component that holds most of the terms is the one to
/// look at when queries or `summarize` are slow: a cycle of attribute pairs,
/// a 3-D statistic or overlapping rectangles put it there.
fn kernels(s: &PolynomialSizeStats) -> String {
    format!(
        "kernels: {} tree components ({} cells) + {} closure components ({} terms)",
        s.tree_components, s.tree_cells, s.closure_components, s.num_terms
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        return usage();
    };
    let result = match command {
        "summarize" => summarize(&args[1..]),
        "query" => query(&args[1..]),
        "info" => info(&args[1..]),
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
