//! `entropydb-serve` and `entropydb-cluster` command lines: unknown flags
//! and unparseable values are rejected with the usage text and exit code 2
//! before anything is loaded, and every flag that CI, the cluster tooling
//! and `benchmark/` pass still parses and serves.

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
