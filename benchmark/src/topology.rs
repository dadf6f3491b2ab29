//! The program under test: the shipped server binaries as child processes.
//!
//! Servers are never hosted in the benchmark process. A gateway plus four
//! shard servers in one process share `par`'s single worker pool and fail at
//! flights scale with `transport failure: Resource temporarily unavailable`;
//! as separate processes — the way they are deployed — they work.
//!
//! Every child binds `127.0.0.1:0`; its address is parsed from what it
//! prints. Dropping a [`Child`] sends `quit`, waits briefly, then kills, so
//! a panic in the benchmark leaves no server behind.

use entropydb_core::serialize::{self, ClusterShard};
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A scratch directory under `benchmark/target/`, removed on drop.
#[derive(Debug)]
pub struct RunDir(PathBuf);

impl RunDir {
    pub fn create(work_dir: &Path) -> std::io::Result<RunDir> {
        let path = work_dir.join(format!("run-{}", std::process::id()));
        // A crashed earlier run with a recycled pid may have left one.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(RunDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[derive(Debug)]
pub struct Child {
    name: String,
    process: std::process::Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    stderr_path: PathBuf,
}

impl Child {
    /// Starts `bin args...` with stdin held open (the servers exit on EOF)
    /// and stderr sent to a file in `log_dir`.
    fn spawn(bin: &Path, args: &[&str], name: &str, log_dir: &Path) -> Result<Child, String> {
        let stderr_path = log_dir.join(format!("{name}.stderr"));
        let stderr = File::create(&stderr_path).map_err(|e| format!("{name}: {e}"))?;
        let mut process = Command::new(bin)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdin = process.stdin.take();
        let stdout = BufReader::new(process.stdout.take().expect("stdout was piped"));
        Ok(Child {
            name: name.to_string(),
            process,
            stdin,
            stdout,
            stderr_path,
        })
    }

    /// Reads stdout lines until `done` accepts one; returns all lines read.
    fn read_until(&mut self, done: impl Fn(&str) -> bool) -> Result<Vec<String>, String> {
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            let n = self
                .stdout
                .read_line(&mut line)
                .map_err(|e| format!("{}: {e}", self.name))?;
            if n == 0 {
                let stderr = std::fs::read_to_string(&self.stderr_path).unwrap_or_default();
                return Err(format!(
                    "{} exited before it was ready: {}",
                    self.name,
                    stderr.trim()
                ));
            }
            let line = line.trim_end().to_string();
            let stop = done(&line);
            lines.push(line);
            if stop {
                return Ok(lines);
            }
        }
    }

    fn listening_addr(&mut self, prefix: &str) -> Result<String, String> {
        let lines = self.read_until(|l| l.starts_with(prefix))?;
        let last = lines.last().expect("read_until returns the accepted line");
        Ok(last[prefix.len()..].trim().to_string())
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = stdin.write_all(b"quit\n");
        }
        let deadline = Instant::now() + Duration::from_secs(3);
        while Instant::now() < deadline {
            if matches!(self.process.try_wait(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.process.kill();
        let _ = self.process.wait();
    }
}

/// A running deployment: the address clients dial, the shard servers
/// behind it (empty when the front server holds the model itself), and the
/// processes to stop.
#[derive(Debug)]
pub struct Topology {
    pub addr: String,
    pub shard_addrs: Vec<String>,
    _children: Vec<Child>,
}

/// One `entropydb-serve` over a summary file or sharded directory.
pub fn serve(
    bin_dir: &Path,
    summary: &Path,
    extra: &[&str],
    run_dir: &Path,
) -> Result<Topology, String> {
    let mut args = vec![
        summary.to_str().expect("utf-8 path"),
        "--addr",
        "127.0.0.1:0",
    ];
    args.extend_from_slice(extra);
    let mut child = Child::spawn(&bin_dir.join("entropydb-serve"), &args, "serve", run_dir)?;
    let addr = child.listening_addr("listening on ")?;
    Ok(Topology {
        addr,
        shard_addrs: Vec::new(),
        _children: vec![child],
    })
}

/// `entropydb-cluster spawn` (one server per shard) behind
/// `entropydb-cluster gateway` with its default gather cache.
pub fn cluster(bin_dir: &Path, sharded_dir: &Path, run_dir: &Path) -> Result<Topology, String> {
    let bin = bin_dir.join("entropydb-cluster");
    let manifest = run_dir.join("cluster.manifest");
    let manifest_arg = manifest.to_str().expect("utf-8 path");
    let mut spawn = Child::spawn(
        &bin,
        &[
            "spawn",
            sharded_dir.to_str().expect("utf-8 path"),
            "--base-port",
            "0",
            "--manifest",
            manifest_arg,
        ],
        "spawn",
        run_dir,
    )?;
    // `spawn` prints the manifest it also writes; its `end` line means the
    // shard servers are up (the file itself may lag the print).
    let printed = spawn.read_until(|l| l == "end")?.join("\n");
    let shards: Vec<ClusterShard> = serialize::cluster_manifest_from_str(&printed)
        .map_err(|e| format!("spawn manifest: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(5);
    while serialize::load_cluster_manifest(&manifest).is_err() {
        if Instant::now() > deadline {
            return Err(format!("{} never became readable", manifest.display()));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut gateway = Child::spawn(
        &bin,
        &["gateway", manifest_arg, "--addr", "127.0.0.1:0"],
        "gateway",
        run_dir,
    )?;
    let addr = gateway.listening_addr("gateway listening on ")?;
    Ok(Topology {
        addr,
        shard_addrs: shards.iter().map(|s| s.primary().to_string()).collect(),
        // Dropped in order: the gateway stops before its shard servers.
        _children: vec![gateway, spawn],
    })
}
