//! `entropydb-cluster` — shard-per-node cluster tooling.
//!
//! ```text
//! entropydb-cluster spawn <sharded summary> [--base-port P] [--manifest FILE]
//!                         [--replicas R] [--control-file FILE]
//!                         [--idle-timeout SECS]
//! entropydb-cluster restart <control file or HOST:PORT>
//! entropydb-cluster probe <manifest>
//! entropydb-cluster gateway <manifest> [--addr HOST:PORT]
//!                           [--connect-timeout SECS] [--probe-timeout SECS]
//!                           [--rehandshake-secs SECS] [--cache-entries N]
//!                           [--control-file FILE]
//! entropydb-cluster make-demo <dir> [--shards N] [--rows R] [--base-port P]
//!                             [--replicas R]
//! entropydb-cluster soak <HOST:PORT> [--clients N] [--pipeline P]
//!                        [--rounds R] [--max-p99-ms MS]
//! entropydb-cluster ingest-drill <HOST:PORT> [--rows N] [--timeout SECS]
//! ```
//!
//! * `spawn` loads a sharded summary (single-file manifest or
//!   `save_sharded_dir` directory) and serves **each shard on its own
//!   port** — `--replicas R` serves each shard from `R` independent
//!   server instances (ports `base-port + shard*R + replica`;
//!   `--base-port 0` picks ephemeral ports) and the written manifest
//!   lists every replica, so a gateway fails over between them.
//!   `--control-file FILE` additionally opens a localhost control
//!   channel (its address is written to `FILE`) accepting `status`,
//!   `restart` (rolling, see below), and `quit` lines. Serves until
//!   stdin reaches EOF or a `quit` line.
//! * `restart` dials a spawn's control channel and triggers a **rolling
//!   restart**: one replica at a time is drained, shut down, and
//!   respawned while the remaining replicas keep answering — a gateway
//!   over the manifest keeps serving throughout (with `--replicas` ≥ 2).
//!   A respawned replica first tries its old port; if the OS still holds
//!   it (TIME_WAIT — std listeners cannot set `SO_REUSEADDR`), it falls
//!   back to an ephemeral port and the manifest file is rewritten.
//! * `probe` health-checks every **replica** of a manifest: dials it,
//!   runs the schema/cardinality handshake, and reports per-replica
//!   status with the support a gatherer learns from it (per attribute, the
//!   code ranges the replica can put mass on — a mask outside them is
//!   never sent to the shard); exits non-zero if any replica is dead or
//!   serving the wrong blob.
//! * `gateway` connects a [`RemoteShardedSummary`] over the manifest and
//!   serves it on one address — a scatter/gather front-end node answering
//!   the ordinary query protocol while fanning out to the shard nodes,
//!   failing over between replicas per its `FailoverConfig` (deadlines
//!   configurable via the flags above). `--rehandshake-secs` starts the
//!   background re-handshake that evicts replicas caught serving a
//!   changed blob. `--cache-entries N` bounds the gather-side probe
//!   cache (default 65536; `0` disables caching), and `--control-file
//!   FILE` opens a localhost control channel (address written to `FILE`)
//!   whose `status` line reports each shard's learned support (code
//!   ranges per attribute, or `any` for a dynamic shard), per-replica
//!   health, the cache's hit/miss/coalesced/evicted counters, and the
//!   serving side's
//!   operational counters (active/accepted/shed sessions, bytes in/out,
//!   requests in flight).
//! * `soak` storms a running server (typically a gateway) with pipelined
//!   load from one process: `--clients N` raw connections each write
//!   `--pipeline P` count queries per frame for `--rounds R` rounds, and
//!   every reply must be bitwise-identical to a reference answer fetched
//!   up front. Prints throughput and p50/p99 per-frame latency; exits
//!   non-zero on any failed request or (with `--max-p99-ms`) when the p99
//!   breaches the bound — the CI cluster-e2e job's concurrency gate.
//! * `ingest-drill` exercises the streaming-ingest path end to end
//!   against a live server or a gateway fronting one: it appends `--rows`
//!   deterministic rows with an idempotency token, waits for the
//!   background fold to publish (polling `stats ingest` until the epoch
//!   advances and the staging buffer drains), verifies `COUNT(*)` grew by
//!   exactly the appended rows, and replays the same append to verify the
//!   token window absorbs the duplicate. Exits non-zero on any violation
//!   — the CI cluster-e2e job's ingest gate.
//! * `make-demo` builds a small deterministic sharded summary and writes
//!   everything a localhost cluster walkthrough (or the `cluster-e2e` CI
//!   job) needs: per-shard blobs for `entropydb-serve`, the combined
//!   sharded blob as the local parity reference, a manifest listing
//!   `--replicas` endpoints per shard, and a `live/` directory copy of
//!   the shards that `entropydb-serve --live` can mutate via `a1`
//!   appends (the `ingest-drill` target).

use entropydb_core::engine::QueryEngine;
use entropydb_core::plan::QueryRequest;
use entropydb_core::scatter::{ShardProbe, Support};
use entropydb_core::serialize::{self, ClusterShard};
use entropydb_core::sharded::ShardedSummary;
use entropydb_server::{
    serve_with, Client, FailoverConfig, RemoteShard, RemoteShardedSummary, ServerConfig,
    ServerCounters, ServerHandle,
};
use entropydb_storage::Predicate;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

fn usage() -> ExitCode {
    eprintln!(
        "usage: entropydb-cluster <command>\n\
         \n\
         commands:\n\
         \x20 spawn <sharded summary> [--base-port P] [--manifest FILE]\n\
         \x20       [--replicas R] [--control-file FILE] [--idle-timeout SECS]\n\
         \x20 restart <control file or HOST:PORT>\n\
         \x20 probe <manifest>\n\
         \x20 gateway <manifest> [--addr HOST:PORT] [--connect-timeout SECS]\n\
         \x20         [--probe-timeout SECS] [--rehandshake-secs SECS]\n\
         \x20         [--cache-entries N] [--control-file FILE]\n\
         \x20 make-demo <dir> [--shards N] [--rows R] [--base-port P] [--replicas R]\n\
         \x20 soak <HOST:PORT> [--clients N] [--pipeline P] [--rounds R]\n\
         \x20      [--max-p99-ms MS]\n\
         \x20 ingest-drill <HOST:PORT> [--rows N] [--timeout SECS]"
    );
    ExitCode::from(2)
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Checks that the highest assigned port stays valid (`base_port` 0 means
/// ephemeral and is always fine).
fn check_port_range(base_port: u16, count: usize) -> Result<(), String> {
    if base_port != 0 && (base_port as usize) + count - 1 > u16::MAX as usize {
        return Err(format!(
            "--base-port {base_port} + {count} listeners overflows the port range"
        ));
    }
    Ok(())
}

/// Parses an optional numeric flag, erroring (instead of silently falling
/// back to the default) when the operator passed something unparseable.
fn parsed_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("cannot parse {name} value {raw:?}")),
    }
}

/// Parses an optional duration flag given in (possibly fractional)
/// seconds; `None` when the flag is absent.
fn duration_flag(args: &[String], name: &str) -> Result<Option<Duration>, String> {
    match flag(args, name) {
        None => Ok(None),
        Some(raw) => match raw.parse::<f64>() {
            Ok(secs) if secs > 0.0 && secs.is_finite() => Ok(Some(Duration::from_secs_f64(secs))),
            _ => Err(format!("cannot parse {name} value {raw:?}")),
        },
    }
}

fn load_sharded(path: &Path) -> Result<ShardedSummary, String> {
    if path.is_dir() {
        serialize::load_sharded_dir(path).map_err(|e| e.to_string())
    } else {
        serialize::load_sharded_file(path).map_err(|e| e.to_string())
    }
}

/// One serving replica of one shard.
struct Slot {
    addr: String,
    handle: Option<ServerHandle>,
}

/// Everything `spawn` keeps alive: the shard models (for respawning),
/// the serving slots, and the manifest bookkeeping.
struct ClusterState {
    sharded: ShardedSummary,
    /// `slots[shard][replica]`.
    slots: Vec<Vec<Slot>>,
    manifest_path: Option<PathBuf>,
    server_config: ServerConfig,
}

impl ClusterState {
    fn manifest(&self) -> Vec<ClusterShard> {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, replicas)| ClusterShard {
                index: i,
                n: self.sharded.shards()[i].n(),
                addrs: replicas.iter().map(|s| s.addr.clone()).collect(),
            })
            .collect()
    }

    /// Rewrites the manifest file (if one was requested) after a topology
    /// change; errors are reported, not fatal — the in-memory cluster
    /// keeps serving.
    fn rewrite_manifest(&self) -> Result<(), String> {
        if let Some(path) = &self.manifest_path {
            serialize::save_cluster_manifest(&self.manifest(), path)
                .map_err(|e| format!("cannot rewrite manifest {}: {e}", path.display()))?;
        }
        Ok(())
    }

    /// Drains and respawns one replica: graceful shutdown (sessions
    /// disconnect and join), then rebind. The old port is tried first;
    /// when the OS still holds it (TIME_WAIT), the replica comes back on
    /// an ephemeral port instead and the caller rewrites the manifest.
    fn restart_slot(&mut self, shard: usize, replica: usize) -> Result<String, String> {
        let old_addr = self.slots[shard][replica].addr.clone();
        if let Some(handle) = self.slots[shard][replica].handle.take() {
            handle.shutdown();
        }
        let model = self.sharded.shards()[shard].clone();
        let config = self.server_config.clone();
        let handle = match serve_with(QueryEngine::new(model.clone()), old_addr.as_str(), config) {
            Ok(handle) => handle,
            Err(_) => serve_with(
                QueryEngine::new(model),
                "127.0.0.1:0",
                self.server_config.clone(),
            )
            .map_err(|e| format!("shard {shard} replica {replica}: cannot rebind: {e}"))?,
        };
        let new_addr = handle.local_addr().to_string();
        self.slots[shard][replica].addr = new_addr.clone();
        self.slots[shard][replica].handle = Some(handle);
        Ok(format!(
            "restarted shard {shard} replica {replica} {old_addr} -> {new_addr}"
        ))
    }

    fn shutdown_all(&mut self) {
        for replicas in &mut self.slots {
            for slot in replicas {
                if let Some(handle) = slot.handle.take() {
                    handle.shutdown();
                }
            }
        }
    }
}

/// Why `spawn` is exiting: operator request from stdin or the control
/// channel.
enum Exit {
    Quit,
}

/// The control channel of a running `spawn`: a localhost line protocol
/// (`status`, `restart`, `quit`) used by `entropydb-cluster restart` and
/// the e2e suites. Single-command connections are fine; the listener
/// polls so it can observe shutdown.
fn control_loop(
    listener: TcpListener,
    state: Arc<Mutex<ClusterState>>,
    stop: Arc<AtomicBool>,
    exit_tx: mpsc::Sender<Exit>,
) {
    let _ = listener.set_nonblocking(true);
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
            Err(_) => {
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        let mut writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => continue,
        };
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            let command = line.trim();
            let mut quit_after = false;
            let reply = match command {
                "" => continue,
                "status" => {
                    let state = state.lock().expect("cluster state");
                    let mut out = String::new();
                    for (i, replicas) in state.slots.iter().enumerate() {
                        for (j, slot) in replicas.iter().enumerate() {
                            out.push_str(&format!("shard {i} replica {j} {} up\n", slot.addr));
                        }
                    }
                    out.push_str("ok\n");
                    out
                }
                "restart" => {
                    let mut state = state.lock().expect("cluster state");
                    let mut out = String::new();
                    let mut failed = false;
                    let shards = state.slots.len();
                    'rolling: for i in 0..shards {
                        for j in 0..state.slots[i].len() {
                            match state.restart_slot(i, j) {
                                Ok(msg) => out.push_str(&format!("{msg}\n")),
                                Err(e) => {
                                    out.push_str(&format!("err {e}\n"));
                                    failed = true;
                                    break 'rolling;
                                }
                            }
                        }
                    }
                    if !failed {
                        if let Err(e) = state.rewrite_manifest() {
                            out.push_str(&format!("err {e}\n"));
                            failed = true;
                        }
                    }
                    if !failed {
                        out.push_str("ok\n");
                    }
                    out
                }
                "quit" => {
                    quit_after = true;
                    "ok\n".to_string()
                }
                other => format!("err unknown command {other:?}\n"),
            };
            if writer.write_all(reply.as_bytes()).is_err() || writer.flush().is_err() {
                break;
            }
            if quit_after {
                let _ = exit_tx.send(Exit::Quit);
                return;
            }
        }
    }
}

/// Serve every shard of a sharded summary on its own port(s).
fn cmd_spawn(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let parsed = (|| -> Result<(u16, usize, Option<Duration>), String> {
        Ok((
            parsed_flag(args, "--base-port", 4151)?,
            parsed_flag(args, "--replicas", 1)?,
            duration_flag(args, "--idle-timeout")?,
        ))
    })();
    let (base_port, replicas, idle_timeout) = match parsed {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    if replicas == 0 {
        eprintln!("error: --replicas must be at least 1");
        return ExitCode::FAILURE;
    }
    let sharded = match load_sharded(Path::new(path)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = check_port_range(base_port, sharded.num_shards() * replicas) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let server_config = ServerConfig {
        idle_timeout,
        max_sessions: None,
    };
    let mut slots: Vec<Vec<Slot>> = Vec::new();
    for (i, shard) in sharded.shards().iter().enumerate() {
        let mut shard_slots = Vec::new();
        for j in 0..replicas {
            let port = if base_port == 0 {
                0
            } else {
                base_port + (i * replicas + j) as u16
            };
            let engine = QueryEngine::new(shard.clone());
            match serve_with(engine, ("127.0.0.1", port), server_config.clone()) {
                Ok(handle) => {
                    eprintln!(
                        "shard {i} replica {j}: n = {}, serving on {}",
                        shard.n(),
                        handle.local_addr()
                    );
                    shard_slots.push(Slot {
                        addr: handle.local_addr().to_string(),
                        handle: Some(handle),
                    });
                }
                Err(e) => {
                    eprintln!("shard {i} replica {j}: cannot bind port {port}: {e}");
                    for replicas in &mut slots {
                        for slot in replicas {
                            if let Some(handle) = slot.handle.take() {
                                handle.shutdown();
                            }
                        }
                    }
                    for slot in &mut shard_slots {
                        if let Some(handle) = slot.handle.take() {
                            handle.shutdown();
                        }
                    }
                    return ExitCode::FAILURE;
                }
            }
        }
        slots.push(shard_slots);
    }
    let state = Arc::new(Mutex::new(ClusterState {
        sharded,
        slots,
        manifest_path: flag(args, "--manifest").map(PathBuf::from),
        server_config,
    }));
    {
        let mut state = state.lock().expect("cluster state");
        let text = serialize::cluster_manifest_to_string(&state.manifest());
        print!("{text}");
        if let Some(file) = state.manifest_path.clone() {
            if let Err(e) = std::fs::write(&file, &text) {
                eprintln!("cannot write manifest {}: {e}", file.display());
                state.shutdown_all();
                return ExitCode::FAILURE;
            }
            eprintln!("manifest written to {}", file.display());
        }
    }
    let stop = Arc::new(AtomicBool::new(false));
    let (exit_tx, exit_rx) = mpsc::channel::<Exit>();
    let mut control_thread = None;
    if let Some(file) = flag(args, "--control-file") {
        match TcpListener::bind("127.0.0.1:0") {
            Ok(listener) => {
                let addr = listener.local_addr().expect("control addr");
                if let Err(e) = std::fs::write(&file, format!("{addr}\n")) {
                    eprintln!("cannot write control file {file}: {e}");
                    state.lock().expect("cluster state").shutdown_all();
                    return ExitCode::FAILURE;
                }
                eprintln!("control channel on {addr} (written to {file})");
                let state = Arc::clone(&state);
                let stop = Arc::clone(&stop);
                let exit_tx = exit_tx.clone();
                control_thread = Some(std::thread::spawn(move || {
                    control_loop(listener, state, stop, exit_tx)
                }));
            }
            Err(e) => {
                eprintln!("cannot bind control channel: {e}");
                state.lock().expect("cluster state").shutdown_all();
                return ExitCode::FAILURE;
            }
        }
    }
    // Stdin watcher: EOF or a `quit` line ends the cluster, exactly like a
    // control-channel `quit`.
    {
        let exit_tx = exit_tx.clone();
        std::thread::spawn(move || {
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                match line {
                    Ok(l) if l.trim() == "quit" => break,
                    Ok(_) => continue,
                    Err(_) => break,
                }
            }
            let _ = exit_tx.send(Exit::Quit);
        });
    }
    eprintln!("type 'quit' (or close stdin) to stop all shards");
    let _ = exit_rx.recv();
    stop.store(true, Ordering::SeqCst);
    state.lock().expect("cluster state").shutdown_all();
    if let Some(thread) = control_thread {
        let _ = thread.join();
    }
    ExitCode::SUCCESS
}

/// Resolves the `restart` operand: a file written by `spawn
/// --control-file`, or a literal `HOST:PORT`.
fn control_addr(operand: &str) -> Result<String, String> {
    let path = Path::new(operand);
    if path.exists() {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read control file {operand}: {e}"))?;
        let addr = text.trim();
        if addr.is_empty() {
            return Err(format!("control file {operand} is empty"));
        }
        Ok(addr.to_string())
    } else {
        Ok(operand.to_string())
    }
}

/// Trigger a rolling restart over a spawn's control channel.
fn cmd_restart(args: &[String]) -> ExitCode {
    let Some(operand) = args.first() else {
        return usage();
    };
    let addr = match control_addr(operand) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stream = match TcpStream::connect(&addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot connect control channel {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if writer.write_all(b"restart\n").is_err() || writer.flush().is_err() {
        eprintln!("cannot send restart command");
        return ExitCode::FAILURE;
    }
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => {
                eprintln!("control channel closed before completion");
                return ExitCode::FAILURE;
            }
            Ok(_) => {}
        }
        let msg = line.trim();
        if msg == "ok" {
            println!("rolling restart complete");
            return ExitCode::SUCCESS;
        }
        if let Some(err) = msg.strip_prefix("err ") {
            eprintln!("rolling restart failed: {err}");
            return ExitCode::FAILURE;
        }
        println!("{msg}");
    }
}

/// Health-check every replica of every shard of a manifest.
fn cmd_probe(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let manifest = match serialize::load_cluster_manifest(Path::new(path)) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut dead = 0usize;
    let mut total = 0usize;
    for entry in &manifest {
        for (j, addr) in entry.addrs.iter().enumerate() {
            total += 1;
            let status = (|| -> Result<String, String> {
                let mut client = Client::connect(addr.as_str()).map_err(|e| e.to_string())?;
                client.ping().map_err(|e| e.to_string())?;
                let arity = client.schema().map_err(|e| e.to_string())?.arity();
                let n = client
                    .served_n()
                    .map_err(|e| e.to_string())?
                    .ok_or("no cardinality handshake")?;
                if n != entry.n {
                    return Err(format!("serves n = {n}, manifest declares {}", entry.n));
                }
                // What a gatherer's handshake learns: the codes the replica
                // can put mass on, per attribute (a mask outside them is
                // never sent to this shard).
                let support = Support::learn(arity, |asks| client.probe_pipelined(asks))
                    .map_err(|e: entropydb_server::ClientError| e.to_string())?;
                Ok(format!(
                    "ok (n = {n}, arity = {arity}, support = {support})"
                ))
            })();
            match status {
                Ok(msg) => println!("shard {} replica {j} @ {addr}: {msg}", entry.index),
                Err(msg) => {
                    dead += 1;
                    println!("shard {} replica {j} @ {addr}: DEAD: {msg}", entry.index);
                }
            }
        }
    }
    if dead == 0 {
        println!(
            "cluster healthy: {} shards, {total} replicas",
            manifest.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("cluster degraded: {dead}/{total} replicas failing");
        ExitCode::FAILURE
    }
}

/// The control channel of a running `gateway`: a localhost line protocol
/// (`status`, `quit`) mirroring the spawn control channel. `status`
/// reports every replica's health, the probe-cache counters, and the
/// serving side's operational counters, so a soak run (or the e2e suite)
/// can watch hit rates, shed counts, and queue depth without
/// instrumenting the query path.
fn gateway_control_loop(
    listener: TcpListener,
    shards: Arc<Vec<RemoteShard>>,
    cache: Option<Arc<entropydb_core::scatter::GatherCache>>,
    server: Arc<ServerCounters>,
    stop: Arc<AtomicBool>,
    exit_tx: mpsc::Sender<Exit>,
) {
    let _ = listener.set_nonblocking(true);
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        let mut writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => continue,
        };
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            let command = line.trim();
            let mut quit_after = false;
            let reply = match command {
                "" => continue,
                "status" => {
                    let mut out = String::new();
                    for shard in shards.iter() {
                        // The codes the shard is asked about (`any`: a
                        // dynamic shard, whose support grows, is asked
                        // everything).
                        let support = shard
                            .support()
                            .map_or("any".to_string(), |support| support.to_string());
                        out.push_str(&format!("shard {} support {support}\n", shard.index()));
                        for (j, replica) in shard.replicas().iter().enumerate() {
                            let state = if replica.is_evicted() {
                                "evicted"
                            } else if replica.breaker_open() {
                                "breaker-open"
                            } else {
                                "up"
                            };
                            out.push_str(&format!(
                                "shard {} replica {j} {} {state}\n",
                                shard.index(),
                                replica.addr()
                            ));
                        }
                    }
                    match &cache {
                        Some(cache) => {
                            let s = cache.snapshot();
                            out.push_str(&format!(
                                "cache hits {} misses {} coalesced {} evicted {}\n",
                                s.hits, s.misses, s.coalesced, s.evicted
                            ));
                        }
                        None => out.push_str("cache off\n"),
                    }
                    let s = server.snapshot();
                    out.push_str(&format!(
                        "server active {} accepted {} shed {} bytes-in {} bytes-out {} queue {}\n",
                        s.active_sessions,
                        s.accepted_total,
                        s.shed_total,
                        s.bytes_in,
                        s.bytes_out,
                        s.dispatch_depth
                    ));
                    out.push_str("ok\n");
                    out
                }
                "quit" => {
                    quit_after = true;
                    "ok\n".to_string()
                }
                other => format!("err unknown command {other:?}\n"),
            };
            if writer.write_all(reply.as_bytes()).is_err() || writer.flush().is_err() {
                break;
            }
            if quit_after {
                let _ = exit_tx.send(Exit::Quit);
                return;
            }
        }
    }
}

/// Serve a scatter/gather gateway over a shard cluster.
fn cmd_gateway(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let addr = flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:4141".to_string());
    type GatewayFlags = (Option<Duration>, Option<Duration>, Option<Duration>, usize);
    let parsed = (|| -> Result<GatewayFlags, String> {
        Ok((
            duration_flag(args, "--connect-timeout")?,
            duration_flag(args, "--probe-timeout")?,
            duration_flag(args, "--rehandshake-secs")?,
            parsed_flag(args, "--cache-entries", 1 << 16)?,
        ))
    })();
    let (connect_timeout, probe_timeout, rehandshake, cache_entries) = match parsed {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let manifest = match serialize::load_cluster_manifest(Path::new(path)) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failover = FailoverConfig::default();
    if connect_timeout.is_some() {
        failover.connect_timeout = connect_timeout;
    }
    if probe_timeout.is_some() {
        failover.probe_timeout = probe_timeout;
    }
    let mut remote = match RemoteShardedSummary::connect_with(&manifest, failover) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot connect cluster: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(interval) = rehandshake {
        remote.start_rehandshake(interval);
        eprintln!("background re-handshake every {interval:?}");
    }
    if cache_entries > 0 {
        remote.enable_probe_cache(cache_entries);
        eprintln!("gather-side probe cache: {cache_entries} entries");
    } else {
        eprintln!("gather-side probe cache: disabled");
    }
    eprintln!(
        "connected {} shards, total n = {}",
        remote.num_shards(),
        remote.n()
    );
    // Handles for the control channel, taken before `serve_with` consumes
    // the summary.
    let shards = remote.shard_set();
    let cache = remote.probe_cache().cloned();
    let stop = Arc::new(AtomicBool::new(false));
    let (exit_tx, exit_rx) = mpsc::channel::<Exit>();
    // Bind the control listener (and write its address) before serving so
    // a bad control file fails fast; the control thread itself starts
    // after the server is up — its `status` reply reads the live server
    // counters off the handle.
    let mut control_listener = None;
    if let Some(file) = flag(args, "--control-file") {
        match TcpListener::bind("127.0.0.1:0") {
            Ok(listener) => {
                let control_addr = listener.local_addr().expect("control addr");
                if let Err(e) = std::fs::write(&file, format!("{control_addr}\n")) {
                    eprintln!("cannot write control file {file}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("control channel on {control_addr} (written to {file})");
                control_listener = Some(listener);
            }
            Err(e) => {
                eprintln!("cannot bind control channel: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    match serve_with(
        QueryEngine::new(remote),
        addr.as_str(),
        ServerConfig::default(),
    ) {
        Ok(handle) => {
            println!("gateway listening on {}", handle.local_addr());
            let mut control_thread = None;
            if let Some(listener) = control_listener {
                let shards = Arc::clone(&shards);
                let cache = cache.clone();
                let server = handle.counters();
                let stop = Arc::clone(&stop);
                let exit_tx = exit_tx.clone();
                control_thread = Some(std::thread::spawn(move || {
                    gateway_control_loop(listener, shards, cache, server, stop, exit_tx)
                }));
            }
            eprintln!("type 'quit' (or close stdin) to stop");
            // Stdin watcher: EOF or a `quit` line stops the gateway,
            // exactly like a control-channel `quit`.
            std::thread::spawn(move || {
                wait_for_quit();
                let _ = exit_tx.send(Exit::Quit);
            });
            let _ = exit_rx.recv();
            stop.store(true, Ordering::SeqCst);
            handle.shutdown();
            if let Some(thread) = control_thread {
                let _ = thread.join();
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            ExitCode::FAILURE
        }
    }
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

/// One soak connection: a raw socket plus its buffered read half.
struct SoakConn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

fn soak_connect(addr: &str) -> Result<SoakConn, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("cannot clone socket: {e}"))?,
    );
    Ok(SoakConn { stream, reader })
}

/// Storm a running server with pipelined frames from many raw
/// connections, checking every reply bitwise against a reference answer.
fn cmd_soak(args: &[String]) -> ExitCode {
    let Some(addr) = args.first() else {
        return usage();
    };
    let parsed = (|| -> Result<(usize, usize, usize, Option<f64>), String> {
        Ok((
            parsed_flag(args, "--clients", 64)?,
            parsed_flag(args, "--pipeline", 16)?,
            parsed_flag(args, "--rounds", 10)?,
            match flag(args, "--max-p99-ms") {
                None => None,
                Some(raw) => match raw.parse::<f64>() {
                    Ok(ms) if ms > 0.0 && ms.is_finite() => Some(ms),
                    _ => return Err(format!("cannot parse --max-p99-ms value {raw:?}")),
                },
            },
        ))
    })();
    let (clients, pipeline, rounds, max_p99_ms) = match parsed {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    if clients == 0 || pipeline == 0 || rounds == 0 {
        eprintln!("error: --clients, --pipeline, and --rounds must be at least 1");
        return ExitCode::FAILURE;
    }
    let query = format!("{}\n", QueryRequest::count(Predicate::all()).encode());

    // Reference answer: one clean request/response up front. Every soak
    // reply must match it byte for byte.
    let expected = match (|| -> Result<String, String> {
        let mut conn = soak_connect(addr)?;
        conn.stream
            .write_all(query.as_bytes())
            .map_err(|e| format!("cannot send reference query: {e}"))?;
        let mut line = String::new();
        conn.reader
            .read_line(&mut line)
            .map_err(|e| format!("cannot read reference reply: {e}"))?;
        let trimmed = line.trim_end_matches('\n');
        if !trimmed.starts_with("r1 ") || trimmed.starts_with("r1 err") {
            return Err(format!("reference query failed: {trimmed:?}"));
        }
        Ok(trimmed.to_string())
    })() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut conns = Vec::with_capacity(clients);
    for i in 0..clients {
        match soak_connect(addr) {
            Ok(c) => conns.push(c),
            Err(e) => {
                eprintln!("client {i}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    eprintln!(
        "soaking {addr}: {clients} clients x {pipeline} pipelined x {rounds} rounds \
         = {} requests",
        clients * pipeline * rounds
    );

    let frame = query.repeat(pipeline);
    let mut failures = 0usize;
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(clients * rounds);
    let started = Instant::now();
    let mut line = String::new();
    for _ in 0..rounds {
        // Write the whole round first: every client gets a full pipelined
        // frame on the wire before any reply is drained, so the server
        // sees genuinely concurrent frames.
        for conn in &mut conns {
            if conn.stream.write_all(frame.as_bytes()).is_err() {
                failures += pipeline;
            }
        }
        for conn in &mut conns {
            let frame_started = Instant::now();
            for _ in 0..pipeline {
                line.clear();
                match conn.reader.read_line(&mut line) {
                    Ok(n) if n > 0 => {
                        if line.trim_end_matches('\n') != expected {
                            failures += 1;
                        }
                    }
                    _ => {
                        failures += 1;
                    }
                }
            }
            latencies_ms.push(frame_started.elapsed().as_secs_f64() * 1e3);
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    for conn in &mut conns {
        let _ = conn.stream.write_all(b"quit\n");
    }

    let total = clients * pipeline * rounds;
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let pct = |p: f64| latencies_ms[((latencies_ms.len() - 1) as f64 * p) as usize];
    let (p50, p99) = (pct(0.50), pct(0.99));
    println!(
        "soak complete: {total} requests in {elapsed:.2}s ({:.0} req/s), \
         frame latency p50 {p50:.2}ms p99 {p99:.2}ms, {failures} failed",
        total as f64 / elapsed
    );
    if failures > 0 {
        eprintln!("soak FAILED: {failures}/{total} requests failed");
        return ExitCode::FAILURE;
    }
    if let Some(bound) = max_p99_ms {
        if p99 > bound {
            eprintln!("soak FAILED: p99 {p99:.2}ms breaches --max-p99-ms {bound}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Write the demo cluster workspace: per-shard blobs, the combined sharded
/// blob (local parity reference), and a localhost manifest (optionally
/// with several replica endpoints per shard).
fn cmd_make_demo(args: &[String]) -> ExitCode {
    let Some(dir) = args.first() else {
        return usage();
    };
    let parsed = (|| -> Result<(usize, usize, u16, usize), String> {
        Ok((
            parsed_flag(args, "--shards", 4)?,
            parsed_flag(args, "--rows", 240)?,
            parsed_flag(args, "--base-port", 4151)?,
            parsed_flag(args, "--replicas", 1)?,
        ))
    })();
    let (shards, rows, base_port, replicas) = match parsed {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    if replicas == 0 {
        eprintln!("error: --replicas must be at least 1");
        return ExitCode::FAILURE;
    }
    if let Err(e) = check_port_range(base_port, shards.max(1) * replicas) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let dir = Path::new(dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let sharded = match entropydb_server::demo::demo_summary(rows, shards) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot build demo summary: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = serialize::save_sharded_file(&sharded, &dir.join("sharded.summary")) {
        eprintln!("cannot write sharded.summary: {e}");
        return ExitCode::FAILURE;
    }
    let mut manifest = Vec::new();
    for (i, shard) in sharded.shards().iter().enumerate() {
        let file = dir.join(format!("shard-{i}.summary"));
        if let Err(e) = serialize::save_file(shard, &file) {
            eprintln!("cannot write {}: {e}", file.display());
            return ExitCode::FAILURE;
        }
        let addrs = (0..replicas)
            .map(|j| format!("127.0.0.1:{}", base_port + (i * replicas + j) as u16))
            .collect();
        manifest.push(ClusterShard {
            index: i,
            n: shard.n(),
            addrs,
        });
    }
    if let Err(e) = serialize::save_cluster_manifest(&manifest, &dir.join("cluster.manifest")) {
        eprintln!("cannot write cluster.manifest: {e}");
        return ExitCode::FAILURE;
    }
    // A live-servable copy of the same shards: `entropydb-serve <dir>/live
    // --live` turns it into a mutable summary that accepts `a1` appends
    // (the ingest-drill target in CI).
    if let Err(e) = serialize::save_sharded_dir(&sharded, &dir.join("live")) {
        eprintln!("cannot write live dir: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "demo cluster written to {}: {} shards x {replicas} replicas, n = {}, ports {}..{}",
        dir.display(),
        sharded.num_shards(),
        sharded.n(),
        base_port,
        base_port + (sharded.num_shards() * replicas) as u16 - 1
    );
    ExitCode::SUCCESS
}

/// Drill the streaming-ingest path of a live server (or a gateway
/// fronting one): append → wait for the background fold → verify the
/// count grew — then replay the append and verify the idempotency token
/// absorbs it.
fn cmd_ingest_drill(args: &[String]) -> ExitCode {
    let Some(addr) = args.first() else {
        return usage();
    };
    let parsed = (|| -> Result<(u64, f64), String> {
        Ok((
            parsed_flag(args, "--rows", 64)?,
            parsed_flag(args, "--timeout", 30.0)?,
        ))
    })();
    let (rows, timeout_secs) = match parsed {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    if rows == 0 || timeout_secs <= 0.0 {
        eprintln!("error: --rows and --timeout must be positive");
        return ExitCode::FAILURE;
    }
    match run_ingest_drill(addr, rows as usize, Duration::from_secs_f64(timeout_secs)) {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ingest drill FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_ingest_drill(addr: &str, rows: usize, timeout: Duration) -> Result<String, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
    let schema = client
        .schema()
        .map_err(|e| format!("schema handshake failed: {e}"))?
        .clone();
    let sizes = schema.domain_sizes();
    let before = client
        .ingest_stats()
        .map_err(|e| format!("stats ingest failed: {e}"))?
        .ok_or_else(|| "server reports no live delta shard (start it with --live)".to_string())?;
    let count_all = QueryRequest::count(Predicate::all());
    let count = |client: &mut Client| -> Result<f64, String> {
        match client.execute(&count_all) {
            Ok(entropydb_core::plan::QueryResponse::Estimate(e)) => Ok(e.expectation),
            Ok(other) => Err(format!("unexpected count answer {other:?}")),
            Err(e) => Err(format!("count query failed: {e}")),
        }
    };
    let n_before = count(&mut client)?;

    // Deterministic drill rows spread across the coded domains.
    let batch: Vec<Vec<u32>> = (0..rows)
        .map(|r| {
            sizes
                .iter()
                .enumerate()
                .map(|(i, &d)| ((r * 31 + i * 7 + 3) % d.max(1)) as u32)
                .collect()
        })
        .collect();
    let token = format!("drill-{}-{rows}", std::process::id());
    let outcome = client
        .append(&batch, Some(&token))
        .map_err(|e| format!("append failed: {e}"))?;
    if outcome.duplicate {
        return Err(format!("fresh token {token:?} was reported as a duplicate"));
    }
    if outcome.accepted != rows as u64 {
        return Err(format!(
            "append accepted {} of {rows} rows",
            outcome.accepted
        ));
    }

    // Wait for the background fold to publish: epoch advances past the
    // baseline and the staging buffer drains.
    let deadline = Instant::now() + timeout;
    let folded = loop {
        let stats = client
            .ingest_stats()
            .map_err(|e| format!("stats ingest poll failed: {e}"))?
            .ok_or_else(|| "live delta shard vanished mid-drill".to_string())?;
        if stats.epoch > before.epoch && stats.staged_rows == 0 {
            break stats;
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "fold did not publish within {timeout:?} \
                 (epoch {} -> {}, staged {})",
                before.epoch, stats.epoch, stats.staged_rows
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    };

    let n_after = count(&mut client)?;
    let grew = n_after - n_before;
    if (grew - rows as f64).abs() > 1e-6 * n_after.max(1.0) {
        return Err(format!(
            "COUNT(*) grew by {grew} after folding {rows} appended rows \
             ({n_before} -> {n_after})"
        ));
    }

    // Replay: the same token must be absorbed without re-ingesting.
    let replay = client
        .append(&batch, Some(&token))
        .map_err(|e| format!("replayed append failed: {e}"))?;
    if !replay.duplicate {
        return Err("replayed token was ingested again (idempotency hole)".to_string());
    }
    let n_replay = count(&mut client)?;
    if (n_replay - n_after).abs() > 1e-9 * n_after.max(1.0) {
        return Err(format!("replay changed COUNT(*): {n_after} -> {n_replay}"));
    }
    client.quit();
    Ok(format!(
        "ingest drill passed: {rows} rows appended and folded \
         (epoch {} -> {}, n {n_before} -> {n_after}), replay absorbed",
        before.epoch, folded.epoch
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    let rest = &args[1..];
    match command.as_str() {
        "spawn" => cmd_spawn(rest),
        "restart" => cmd_restart(rest),
        "probe" => cmd_probe(rest),
        "gateway" => cmd_gateway(rest),
        "make-demo" => cmd_make_demo(rest),
        "soak" => cmd_soak(rest),
        "ingest-drill" => cmd_ingest_drill(rest),
        _ => usage(),
    }
}
