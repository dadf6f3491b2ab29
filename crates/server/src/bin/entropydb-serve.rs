//! `entropydb-serve` — serve a persisted summary over TCP.
//!
//! ```text
//! entropydb-serve <summary> [--addr HOST:PORT] [--idle-timeout SECS]
//!                 [--max-sessions N] [--threads N] [--max-queue-depth N]
//!                 [--max-in-flight N] [--live] [--delta-threshold ROWS]
//! ```
//!
//! `<summary>` is any of the persistence layouts of
//! `entropydb_core::serialize`: a single-summary text file, a sharded
//! manifest-with-embedded-blobs file, or a `save_sharded_dir` directory
//! (`manifest.txt` + per-shard blobs). The backend is picked by sniffing
//! the header, and the server is generic over it — a monolithic and a
//! sharded summary serve the identical protocol.
//!
//! `--idle-timeout SECS` closes sessions whose client stays silent longer
//! than the deadline (default: sessions may idle forever);
//! `--max-sessions N` sheds connections over the cap with a typed `busy`
//! line instead of admitting them. See `ServerConfig`.
//!
//! `--threads` sizes the epoll driver's serving pool (Linux; 0 = auto,
//! `max(2, cores)`) and `--max-queue-depth` / `--max-in-flight` set the
//! admission caps (every target; 0 = unbounded); see `ReactorConfig`. Any
//! other `--flag` is rejected with the usage text and exit code 2.
//!
//! `--live` serves a sharded directory as a **mutable** live summary:
//! `a1` wire appends stage rows into a delta shard that a background
//! worker re-solves and folds into the served mixture
//! (`entropydb_core::ingest::LiveSummary`); `--delta-threshold ROWS`
//! sets how many staged rows trigger a background fold (default 1024).
//! Requires the directory layout (`manifest.txt` + shard blobs).
//!
//! The default address is `127.0.0.1:4141`; use port 0 for an ephemeral
//! port (printed on startup). The process serves until stdin reaches EOF
//! or a `quit` line is typed, then shuts down gracefully (all sessions
//! disconnected and joined).

use entropydb_core::engine::{QueryEngine, SummaryBackend};
use entropydb_core::scatter::ShardProbe;
use entropydb_core::serialize;
use entropydb_server::{serve_tuned, ReactorConfig, ServerConfig, ServerHandle};
use std::io::BufRead;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

/// The flags that take a value; `--live` is the only switch.
const VALUE_FLAGS: [&str; 7] = [
    "--addr",
    "--idle-timeout",
    "--max-sessions",
    "--threads",
    "--max-queue-depth",
    "--max-in-flight",
    "--delta-threshold",
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: entropydb-serve <summary file or sharded dir> [--addr HOST:PORT]\n\
         \x20                    [--idle-timeout SECS] [--max-sessions N]\n\
         \x20                    [--threads N] [--max-queue-depth N] [--max-in-flight N]\n\
         \x20                    [--live] [--delta-threshold ROWS]"
    );
    ExitCode::from(2)
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// The first `--flag` this binary does not define (values of known flags
/// are skipped, so `--addr --x` names no unknown flag).
fn unknown_flag(args: &[String]) -> Option<&str> {
    let mut rest = args.iter().map(String::as_str);
    while let Some(arg) = rest.next() {
        if VALUE_FLAGS.contains(&arg) {
            rest.next();
        } else if arg.starts_with("--") && arg != "--live" {
            return Some(arg);
        }
    }
    None
}

fn wait_for_quit() {
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(l) if l.trim() == "quit" => break,
            Ok(_) => continue,
            Err(_) => break,
        }
    }
}

/// The first line of a summary file ("" when it cannot be read — the
/// loader then reports why).
fn first_line(path: &Path) -> String {
    let mut line = String::new();
    if let Ok(file) = std::fs::File::open(path) {
        let _ = std::io::BufReader::new(file).read_line(&mut line);
    }
    line
}

fn sharded_banner(s: &entropydb_core::sharded::ShardedSummary) -> String {
    let (shards, n) = (s.num_shards(), s.n());
    format!("sharded summary: {shards} shards, n = {n}")
}

/// Announces a loaded backend and serves it; a load error is reported and
/// yields `None`.
fn start<B: SummaryBackend + 'static>(
    loaded: entropydb_core::error::Result<B>,
    banner: impl FnOnce(&B) -> String,
    (addr, config, tuning): (&str, ServerConfig, ReactorConfig),
) -> Option<std::io::Result<ServerHandle>> {
    match loaded {
        Ok(backend) => {
            eprintln!("loaded {}", banner(&backend));
            Some(serve_tuned(QueryEngine::new(backend), addr, config, tuning))
        }
        Err(e) => {
            eprintln!("error: {e}");
            None
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(path) = args.first() else {
        return usage();
    };
    if let Some(flag) = unknown_flag(&args) {
        eprintln!("error: unknown flag {flag}");
        return usage();
    }
    let addr = flag(&args, "--addr").unwrap_or_else(|| "127.0.0.1:4141".to_string());
    let mut config = ServerConfig::default();
    if let Some(raw) = flag(&args, "--idle-timeout") {
        match raw.parse::<f64>() {
            Ok(secs) if secs > 0.0 => config.idle_timeout = Some(Duration::from_secs_f64(secs)),
            _ => {
                eprintln!("error: cannot parse --idle-timeout value {raw:?}");
                return usage();
            }
        }
    }
    if let Some(raw) = flag(&args, "--max-sessions") {
        match raw.parse::<usize>() {
            Ok(cap) if cap > 0 => config.max_sessions = Some(cap),
            _ => {
                eprintln!("error: cannot parse --max-sessions value {raw:?}");
                return usage();
            }
        }
    }
    let mut tuning = ReactorConfig::default();
    for (name, slot) in [
        ("--threads", &mut tuning.threads),
        ("--max-queue-depth", &mut tuning.max_queue_depth),
        ("--max-in-flight", &mut tuning.max_in_flight_per_conn),
    ] {
        if let Some(raw) = flag(&args, name) {
            match raw.parse::<usize>() {
                Ok(v) => *slot = v,
                Err(_) => {
                    eprintln!("error: cannot parse {name} value {raw:?}");
                    return usage();
                }
            }
        }
    }
    let live = args.iter().any(|a| a == "--live");
    let mut ingest = entropydb_core::ingest::IngestConfig::default();
    if let Some(raw) = flag(&args, "--delta-threshold") {
        match raw.parse::<usize>() {
            Ok(rows) if rows > 0 => {
                ingest.delta_rows = rows;
                ingest.seal_rows = ingest.seal_rows.max(rows);
            }
            _ => {
                eprintln!("error: cannot parse --delta-threshold value {raw:?}");
                return usage();
            }
        }
    }
    let path = Path::new(path);

    // Sniff the persistence layout and start the matching backend.
    let how = (addr.as_str(), config, tuning);
    let handle = if live {
        if !path.is_dir() {
            eprintln!("error: --live requires a sharded directory (manifest.txt + shard blobs)");
            return ExitCode::FAILURE;
        }
        let solver = entropydb_core::solver::SolverConfig::default();
        let banner = |s: &entropydb_core::ingest::LiveSummary| {
            let (segments, n, epoch) = (s.num_segments(), s.n(), s.epoch());
            format!("live summary: {segments} segments, n = {n}, epoch = {epoch}")
        };
        start(serialize::load_live_dir(path, solver, ingest), banner, how)
    } else if path.is_dir() {
        start(serialize::load_sharded_dir(path), sharded_banner, how)
    } else if first_line(path).starts_with("entropydb-sharded-summary") {
        start(serialize::load_sharded_file(path), sharded_banner, how)
    } else {
        let banner = |s: &entropydb_core::model::MaxEntSummary| format!("summary: n = {}", s.n());
        start(serialize::load_file(path), banner, how)
    };
    let Some(handle) = handle else {
        return ExitCode::FAILURE;
    };

    match handle {
        Ok(handle) => {
            println!("listening on {}", handle.local_addr());
            eprintln!("type 'quit' (or close stdin) to stop");
            wait_for_quit();
            eprintln!(
                "shutting down ({} active sessions)",
                handle.active_sessions()
            );
            handle.shutdown();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            ExitCode::FAILURE
        }
    }
}
