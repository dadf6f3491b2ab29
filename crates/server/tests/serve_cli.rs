//! `entropydb-serve` and `entropydb-cluster` command lines: unknown flags
//! and unparseable values are rejected with the usage text and exit code 2
//! before anything is loaded, every flag that CI, the cluster tooling
//! and `benchmark/` pass still parses and serves, and a path is read by
//! what it is — a file is one summary blob, a directory a sharded summary.

use entropydb_core::serialize;
use entropydb_server::{demo, Client};
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

#[test]
fn unknown_flags_exit_2_and_known_flags_serve() {
    let dir = std::env::temp_dir().join(format!("entropydb-serve-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    serialize::save_sharded_dir(&demo::demo_summary(240, 2).unwrap(), &dir).unwrap();

    let unknown = "unknown flag --";
    let unparsed = "cannot parse --idle-timeout";
    for (bad, why) in [
        ("--core threaded", unknown),
        ("--reactor-threads 1", unknown),
        ("--dispatch-threads 2", unknown),
        ("--bogus", unknown),
        ("--threads 2", unknown),
        ("--max-queue-depth 1024", unknown),
        ("--max-in-flight 16", unknown),
        ("--idle-timeout inf", unparsed),
        ("--idle-timeout 1e300", unparsed),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_entropydb-serve"))
            .arg(&dir)
            .args(bad.split(' '))
            .stdin(Stdio::null())
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{bad}");
        assert!(out.stdout.is_empty(), "{bad} started a server");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(why) && stderr.contains("usage:"),
            "{bad}: {stderr}"
        );
    }

    let mut child = Command::new(env!("CARGO_BIN_EXE_entropydb-serve"))
        .arg(&dir)
        .args(["--addr", "127.0.0.1:0", "--live", "--delta-threshold", "32"])
        .args(["--idle-timeout", "30", "--max-sessions", "8"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut banner = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut banner)
        .unwrap();
    let addr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("no listening banner: {banner:?}"));
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    assert!(client.ingest_stats().unwrap().is_some(), "--live ignored");
    drop(client);
    child.stdin.take().unwrap().write_all(b"quit\n").unwrap();
    assert!(child.wait().unwrap().success());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `entropydb-cluster` checks each command's flags the same way: an
/// unknown flag, or a duration too large for `Duration`, exits 2 with the
/// usage text before the manifest is read.
#[test]
fn cluster_rejects_unknown_flags_and_oversized_durations() {
    let missing = std::env::temp_dir().join("entropydb-cluster-cli-no-such.manifest");
    for (bad, why) in [
        ("--bogus 1", "unknown flag --bogus"),
        ("--probe-timout 0.5", "unknown flag --probe-timout"),
        ("--probe-timeout 1e300", "cannot parse --probe-timeout"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_entropydb-cluster"))
            .arg("gateway")
            .arg(&missing)
            .args(bad.split(' '))
            .stdin(Stdio::null())
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{bad}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(why) && stderr.contains("usage:"),
            "{bad}: {stderr}"
        );
    }
}

/// A file is one summary blob and nothing else: `spawn` given a file
/// names the directory layout it needs, and `entropydb-serve` refuses a
/// single-file sharded summary at its header instead of serving it.
#[test]
fn a_file_is_never_read_as_a_sharded_summary() {
    let dir = std::env::temp_dir().join(format!("entropydb-serve-cli-file-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sharded = demo::demo_summary(240, 2).unwrap();
    let blob = dir.join("shard-0.summary");
    serialize::save_file(&sharded.shards()[0], &blob).unwrap();
    let mut doc = String::from("entropydb-sharded-summary v2\nshards 2\n");
    for (i, shard) in sharded.shards().iter().enumerate() {
        doc += &format!("shard {i} {}\n{}", shard.n(), serialize::to_string(shard));
    }
    let single_file = dir.join("single-file.summary");
    std::fs::write(&single_file, doc + "endshards\n").unwrap();

    let run = |command: &mut Command| {
        let out = command.stdin(Stdio::null()).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.stdout.is_empty(), "started serving: {stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        (out.status.code(), stderr)
    };
    let (code, stderr) = run(Command::new(env!("CARGO_BIN_EXE_entropydb-cluster"))
        .arg("spawn")
        .arg(&blob)
        .args(["--base-port", "0"]));
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("not a sharded directory (manifest.txt + shard-<i>.summary blobs)"),
        "{stderr}"
    );
    let (code, stderr) = run(Command::new(env!("CARGO_BIN_EXE_entropydb-serve"))
        .arg(&single_file)
        .args(["--addr", "127.0.0.1:0"]));
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("unrecognized entropydb-summary header \"entropydb-sharded-summary v2\""),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
