//! `entropydb-serve` — serve a persisted summary over TCP.
//!
//! ```text
//! entropydb-serve <summary> [--addr HOST:PORT] [--idle-timeout SECS]
//!                 [--max-sessions N] [--live] [--delta-threshold ROWS]
//! ```
//!
//! `<summary>` is one of the two persistence layouts of
//! `entropydb_core::serialize`: a file is one `entropydb-summary` blob, and
//! a directory is a `save_sharded_dir` sharded summary (`manifest.txt` +
//! per-shard blobs). The server is generic over the backend — a monolithic
//! and a sharded summary serve the identical protocol.
//!
//! `--idle-timeout SECS` closes sessions whose client stays silent longer
//! than the deadline (default: sessions may idle forever);
//! `--max-sessions N` sheds connections over the cap with a typed `busy`
//! line instead of admitting them. See `ServerConfig`. The serving pool
//! (`max(2, cores)` threads) and the admission caps are fixed; see
//! `serve_with`. An unknown `--flag`, or a value that does not parse, is
//! rejected with the usage text and exit code 2.
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
use entropydb_server::{serve_with, ServerConfig, ServerHandle};
use flags::flag;
use std::io::BufRead;
use std::num::NonZeroUsize;
use std::path::Path;
use std::process::ExitCode;

#[path = "common/flags.rs"]
mod flags;

/// The flags that take a value; `--live` is the only switch.
const VALUE_FLAGS: [&str; 4] = [
    "--addr",
    "--idle-timeout",
    "--max-sessions",
    "--delta-threshold",
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: entropydb-serve <summary file or sharded dir> [--addr HOST:PORT]\n\
         \x20                    [--idle-timeout SECS] [--max-sessions N]\n\
         \x20                    [--live] [--delta-threshold ROWS]"
    );
    ExitCode::from(2)
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

/// Announces a loaded backend and serves it; a load error is reported and
/// yields `None`.
fn start<B: SummaryBackend + 'static>(
    loaded: entropydb_core::error::Result<B>,
    banner: impl FnOnce(&B) -> String,
    (addr, config): (&str, ServerConfig),
) -> Option<std::io::Result<ServerHandle>> {
    match loaded {
        Ok(backend) => {
            eprintln!("loaded {}", banner(&backend));
            Some(serve_with(QueryEngine::new(backend), addr, config))
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
    let parsed = (|| -> Result<(ServerConfig, Option<NonZeroUsize>), String> {
        flags::check_known(&args, &VALUE_FLAGS, &["--live"])?;
        let config = ServerConfig {
            idle_timeout: flags::duration(&args, "--idle-timeout")?,
            max_sessions: flags::value(&args, "--max-sessions")?.map(NonZeroUsize::get),
        };
        Ok((config, flags::value(&args, "--delta-threshold")?))
    })();
    let (config, delta_threshold) = match parsed {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let addr = flag(&args, "--addr").unwrap_or_else(|| "127.0.0.1:4141".to_string());
    let live = args.iter().any(|a| a == "--live");
    let mut ingest = entropydb_core::ingest::IngestConfig::default();
    if let Some(rows) = delta_threshold {
        ingest.delta_rows = rows.get();
        ingest.seal_rows = ingest.seal_rows.max(rows.get());
    }
    let path = Path::new(path);

    // A directory is sharded (or live), a file one summary blob.
    let how = (addr.as_str(), config);
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
        let banner = |s: &entropydb_core::sharded::ShardedSummary| {
            let (shards, n) = (s.num_shards(), s.n());
            format!("sharded summary: {shards} shards, n = {n}")
        };
        start(serialize::load_sharded_dir(path), banner, how)
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
