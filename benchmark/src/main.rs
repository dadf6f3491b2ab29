//! `entropydb-benchmark` — the repo's end-to-end benchmark.
//!
//! The benchmark process is only the load generator and the oracle: the
//! program under test is always the shipped `entropydb-serve` /
//! `entropydb-cluster` binaries as child processes, driven over loopback
//! TCP through the public `entropydb_server::Client`. See `README.md`.
//!
//! ```text
//! entropydb-benchmark run --workload NAME --seed N --seconds S --trace 0|1
//!                         --bin-dir DIR --work-dir DIR [--out FILE]
//!                         [--git-rev REV] [--git-dirty 0|1]
//! entropydb-benchmark compare A.json B.json
//! ```

mod accuracy;
mod bench;
mod calib;
mod compare;
mod host;
mod json;
mod layers;
mod metrics;
mod model;
mod run;
mod stats;
mod stream;
mod topology;
mod trace;
mod traced;

use model::Workload;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str =
    "usage: entropydb-benchmark run --workload NAME --seed N --seconds S --trace 0|1 \
--bin-dir DIR --work-dir DIR [--out FILE] [--git-rev REV] [--git-dirty 0|1]
       entropydb-benchmark compare A.json B.json
workloads: flights_mono no2d_wire flights_cluster flights_live";

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn required<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    flag(args, name).ok_or_else(|| format!("missing {name}"))
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let raw = required(args, name)?;
    raw.parse()
        .map_err(|_| format!("cannot parse {name} value {raw:?}"))
}

fn switch(args: &[String], name: &str, default: bool) -> Result<bool, String> {
    match flag(args, name) {
        None => Ok(default),
        Some("0") => Ok(false),
        Some("1") => Ok(true),
        Some(other) => Err(format!("{name} takes 0 or 1, not {other:?}")),
    }
}

fn run_command(
    args: &[String],
    process_start: Instant,
    machine_cpus: usize,
    confined: bool,
) -> Result<bool, String> {
    let name = required(args, "--workload")?;
    let options = run::Options {
        workload: Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
        seed: parsed(args, "--seed")?,
        seconds: parsed(args, "--seconds")?,
        trace: switch(args, "--trace", false)?,
        bin_dir: PathBuf::from(required(args, "--bin-dir")?),
        work_dir: PathBuf::from(required(args, "--work-dir")?),
        git_rev: flag(args, "--git-rev").unwrap_or("unknown").to_string(),
        git_dirty: switch(args, "--git-dirty", false)?,
        machine_cpus,
        confined,
    };
    if !(options.seconds > 0.0 && options.seconds <= 60.0) {
        return Err(format!("--seconds {} is outside (0, 60]", options.seconds));
    }
    let out = flag(args, "--out").map(PathBuf::from);
    let record = run::run(options, process_start)?;
    if let Some(out) = out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&out)
            .map_err(|e| format!("{}: {e}", out.display()))?;
        writeln!(file, "{}", record.to_json().encode()).map_err(|e| e.to_string())?;
    }
    record.print();
    println!("{}", record.contract_line());
    Ok(record.correct())
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    // Before anything else runs: threads and children inherit both. The
    // servers keep sizing `par` for the machine, not for the one CPU they
    // are confined to (see `host`).
    let machine_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if std::env::var_os("ENTROPYDB_THREADS").is_none() {
        std::env::set_var("ENTROPYDB_THREADS", machine_cpus.to_string());
    }
    let confined = host::confine_to_one_cpu();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..], process_start, machine_cpus, confined),
        Some("compare") if args.len() == 3 => {
            compare::compare(Path::new(&args[1]), Path::new(&args[2]))
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
