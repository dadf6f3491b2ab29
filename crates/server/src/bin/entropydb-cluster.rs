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
//!   FILE` opens the same localhost control channel as `spawn`, answering
//!   `status` and `quit`: `status` reports each shard's learned support
//!   (code ranges per attribute, or `any` for a dynamic shard),
//!   per-replica health, the cache's hit/miss/coalesced/evicted counters,
//!   and the serving side's operational counters (active/accepted/shed
//!   sessions, bytes in/out, requests in flight).
//! * `make-demo` builds a small deterministic sharded summary and writes
//!   everything a localhost cluster walkthrough (or the `cluster-e2e` CI
//!   job) needs: per-shard blobs for `entropydb-serve`, the combined
//!   sharded blob as the local parity reference, and a manifest listing
//!   `--replicas` endpoints per shard.

use entropydb_core::engine::QueryEngine;
use entropydb_core::scatter::{GatherCache, ShardProbe, Support};
use entropydb_core::serialize::{self, ClusterShard};
use entropydb_core::sharded::ShardedSummary;
use entropydb_server::{
    serve_with, Client, FailoverConfig, RemoteShard, RemoteShardedSummary, ServerConfig,
    ServerCounters, ServerHandle,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

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
         \x20 make-demo <dir> [--shards N] [--rows R] [--base-port P] [--replicas R]"
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
/// the serving slots, and the manifest bookkeeping. Dropping a slot's
/// handle shuts its server down.
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

    /// The control channel's `status` reply: one line per replica.
    fn status(&self) -> String {
        let mut out = String::new();
        for (i, replicas) in self.slots.iter().enumerate() {
            for (j, slot) in replicas.iter().enumerate() {
                out.push_str(&format!("shard {i} replica {j} {} up\n", slot.addr));
            }
        }
        out + "ok\n"
    }

    /// The control channel's `restart` reply: a rolling restart, one line
    /// per respawned replica, stopping at the first failure.
    fn rolling_restart(&mut self) -> String {
        let mut out = String::new();
        for i in 0..self.slots.len() {
            for j in 0..self.slots[i].len() {
                match self.restart_slot(i, j) {
                    Ok(msg) => out.push_str(&format!("{msg}\n")),
                    Err(e) => return out + &format!("err {e}\n"),
                }
            }
        }
        match self.rewrite_manifest() {
            Ok(()) => out + "ok\n",
            Err(e) => out + &format!("err {e}\n"),
        }
    }
}

/// Binds a localhost control listener and writes its address to `file`.
fn bind_control(file: &str) -> Result<TcpListener, String> {
    let listener = TcpListener::bind("127.0.0.1:0")
        .map_err(|e| format!("cannot bind control channel: {e}"))?;
    let addr = listener.local_addr().expect("control addr");
    std::fs::write(file, format!("{addr}\n"))
        .map_err(|e| format!("cannot write control file {file}: {e}"))?;
    eprintln!("control channel on {addr} (written to {file})");
    Ok(listener)
}

/// The control channel of a running `spawn` or `gateway`: a localhost line
/// protocol used by `entropydb-cluster restart` and the e2e suites.
/// `answer` replies to the subcommand's own commands (`None`: unknown);
/// `quit` answers `ok` and returns. Single-command connections are fine.
fn control_loop(listener: TcpListener, mut answer: impl FnMut(&str) -> Option<String>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        let Ok(mut writer) = stream.try_clone() else {
            continue;
        };
        for line in BufReader::new(stream).lines() {
            let Ok(line) = line else { break };
            let reply = match line.trim() {
                "" => continue,
                "quit" => "ok\n".to_string(),
                other => {
                    answer(other).unwrap_or_else(|| format!("err unknown command {other:?}\n"))
                }
            };
            if writer.write_all(reply.as_bytes()).is_err() || writer.flush().is_err() {
                break;
            }
            if line.trim() == "quit" {
                return;
            }
        }
    }
}

/// Blocks until a `quit` line (or EOF) on stdin, or a `quit` on the
/// control channel when one is open; `answer` serves the channel's other
/// commands meanwhile. Neither watcher thread is joined: both block on
/// reads, and the caller shuts its servers down and exits right after.
fn wait_for_quit(
    control: Option<TcpListener>,
    answer: impl FnMut(&str) -> Option<String> + Send + 'static,
) {
    let (quit_tx, quit_rx) = mpsc::channel();
    if let Some(listener) = control {
        let quit_tx = quit_tx.clone();
        std::thread::spawn(move || {
            control_loop(listener, answer);
            let _ = quit_tx.send(());
        });
    }
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            match line {
                Ok(l) if l.trim() == "quit" => break,
                Ok(_) => continue,
                Err(_) => break,
            }
        }
        let _ = quit_tx.send(());
    });
    let _ = quit_rx.recv();
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
    // On an early return every server started so far is shut down as its
    // handle drops.
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
                    return ExitCode::FAILURE;
                }
            }
        }
        slots.push(shard_slots);
    }
    let state = ClusterState {
        sharded,
        slots,
        manifest_path: flag(args, "--manifest").map(PathBuf::from),
        server_config,
    };
    let manifest = state.manifest();
    print!("{}", serialize::cluster_manifest_to_string(&manifest));
    if let Some(file) = &state.manifest_path {
        if let Err(e) = serialize::save_cluster_manifest(&manifest, file) {
            eprintln!("cannot write manifest {}: {e}", file.display());
            return ExitCode::FAILURE;
        }
        eprintln!("manifest written to {}", file.display());
    }
    let control = match flag(args, "--control-file").map(|file| bind_control(&file)) {
        None => None,
        Some(Ok(listener)) => Some(listener),
        Some(Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let state = Arc::new(Mutex::new(state));
    eprintln!("type 'quit' (or close stdin) to stop all shards");
    wait_for_quit(control, {
        let state = Arc::clone(&state);
        move |command| {
            let mut state = state.lock().expect("cluster state");
            match command {
                "status" => Some(state.status()),
                "restart" => Some(state.rolling_restart()),
                _ => None,
            }
        }
    });
    state.lock().expect("cluster state").slots.clear();
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

/// The gateway control channel's `status` reply: every replica's health,
/// the probe-cache counters, and the serving side's operational counters,
/// so the e2e suite or an operator can watch hit rates, shed counts, and
/// queue depth without instrumenting the query path.
fn gateway_status(
    shards: &[RemoteShard],
    cache: Option<&GatherCache>,
    server: &ServerCounters,
) -> String {
    let mut out = String::new();
    for shard in shards {
        // The codes the shard is asked about (`any`: a dynamic shard, whose
        // support grows, is asked everything).
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
    match cache {
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
    out + "ok\n"
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
    let defaults = FailoverConfig::default();
    let failover = FailoverConfig {
        connect_timeout: connect_timeout.or(defaults.connect_timeout),
        probe_timeout: probe_timeout.or(defaults.probe_timeout),
        ..defaults
    };
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
    // Bind the control listener (and write its address) before serving so
    // a bad control file fails fast; its `status` reply reads the live
    // server counters off the handle once the server is up.
    let control = match flag(args, "--control-file").map(|file| bind_control(&file)) {
        None => None,
        Some(Ok(listener)) => Some(listener),
        Some(Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match serve_with(
        QueryEngine::new(remote),
        addr.as_str(),
        ServerConfig::default(),
    ) {
        Ok(handle) => {
            println!("gateway listening on {}", handle.local_addr());
            eprintln!("type 'quit' (or close stdin) to stop");
            let server = handle.counters();
            wait_for_quit(control, move |command| {
                (command == "status").then(|| gateway_status(&shards, cache.as_deref(), &server))
            });
            handle.shutdown();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            ExitCode::FAILURE
        }
    }
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
        _ => usage(),
    }
}
