//! Multi-process cluster end-to-end: real `entropydb-serve` shard
//! *processes* (not in-process servers) behind the remote scatter/gather
//! backend, checked bitwise against the local sharded backend loaded from
//! the same blobs.
//!
//! Two modes:
//!
//! * **self-contained** (default, plain `cargo test`): the test builds the
//!   demo cluster workspace itself, spawns one `entropydb-serve` child per
//!   shard on an ephemeral-ish port, runs the parity suite, and tears the
//!   children down — failing if any child outlives the teardown.
//! * **attach** (`ENTROPYDB_CLUSTER_DIR=<dir>`): the CI `cluster-e2e` job
//!   launches the shard processes itself (from `entropydb-cluster
//!   make-demo` output) and points the test at the workspace; the test
//!   attaches to the running cluster and runs the same parity suite
//!   without spawning or killing anything.

mod common;

use entropydb_core::engine::QueryEngine;
use entropydb_core::serialize;
use entropydb_server::RemoteShardedSummary;
use std::io::Write as _;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SHARDS: usize = 4;

/// Builds the on-disk cluster workspace the same way `entropydb-cluster
/// make-demo` does: the sharded directory, whose per-shard blobs the shard
/// processes serve.
fn write_workspace(dir: &Path) -> entropydb_core::sharded::ShardedSummary {
    let sharded = common::sharded(SHARDS);
    serialize::save_sharded_dir(&sharded, dir).unwrap();
    sharded
}

struct ShardProcess {
    child: Child,
    addr: String,
}

impl ShardProcess {
    /// Spawns one `entropydb-serve` process for a shard blob and waits
    /// until its port accepts connections.
    fn spawn(blob: &Path, port: u16) -> ShardProcess {
        let addr = format!("127.0.0.1:{port}");
        let child = Command::new(env!("CARGO_BIN_EXE_entropydb-serve"))
            .arg(blob)
            .arg("--addr")
            .arg(&addr)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn entropydb-serve");
        let mut proc = ShardProcess { child, addr };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if TcpStream::connect(&proc.addr).is_ok() {
                return proc;
            }
            if let Ok(Some(status)) = proc.child.try_wait() {
                panic!(
                    "shard server on {} exited during startup: {status}",
                    proc.addr
                );
            }
            assert!(
                Instant::now() < deadline,
                "shard server on {} never became reachable",
                proc.addr
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Graceful stop (a `quit` line on stdin), escalating to SIGKILL; the
    /// child must be reaped either way — an orphan fails the test.
    fn stop(mut self) {
        if let Some(stdin) = self.child.stdin.as_mut() {
            let _ = stdin.write_all(b"quit\n");
            let _ = stdin.flush();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                _ => break,
            }
        }
        // Escalate; failing to reap would orphan the process.
        let _ = self.child.kill();
        self.child.wait().expect("reap shard server");
    }
}

/// Picks a base port unlikely to collide: derived from the test process id
/// into a high ephemeral-adjacent range.
fn base_port() -> u16 {
    20000 + (std::process::id() % 20000) as u16
}

#[test]
fn cluster_of_serve_processes_matches_local_sharded_bitwise() {
    if let Ok(dir) = std::env::var("ENTROPYDB_CLUSTER_DIR") {
        attach_mode(Path::new(&dir));
        return;
    }
    let dir: PathBuf =
        std::env::temp_dir().join(format!("entropydb-cluster-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let local = write_workspace(&dir);

    // Launch one real entropydb-serve process per shard.
    let base = base_port();
    let mut procs = Vec::new();
    let mut manifest = Vec::new();
    for (i, shard) in local.shards().iter().enumerate() {
        let proc = ShardProcess::spawn(&dir.join(format!("shard-{i}.summary")), base + i as u16);
        manifest.push(serialize::ClusterShard::single(
            i,
            shard.n(),
            proc.addr.clone(),
        ));
        procs.push(proc);
    }
    serialize::save_cluster_manifest(&manifest, &dir.join("cluster.manifest")).unwrap();

    let remote = RemoteShardedSummary::connect(&manifest).unwrap();
    assert_eq!(remote.num_shards(), SHARDS);
    common::assert_bitwise_parity(&QueryEngine::new(local), &QueryEngine::new(remote));

    // Teardown: every child must be reaped (no orphaned shard processes).
    for proc in procs {
        proc.stop();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Attach mode: the cluster is already running (CI launched it); verify it
/// and run the identical parity suite against the same blobs.
fn attach_mode(dir: &Path) {
    let manifest = serialize::load_cluster_manifest(&dir.join("cluster.manifest")).unwrap();
    let local = serialize::load_sharded_dir(dir).unwrap();
    assert_eq!(manifest.len(), local.num_shards());
    let remote = RemoteShardedSummary::connect(&manifest).unwrap();
    common::assert_bitwise_parity(&QueryEngine::new(local), &QueryEngine::new(remote));
}
