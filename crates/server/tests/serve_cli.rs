//! `entropydb-serve` command line: unknown flags are rejected with the
//! usage text and exit code 2 before anything is loaded, and every flag
//! that CI, the cluster tooling and `benchmark/` pass still parses and
//! serves.

use entropydb_core::serialize;
use entropydb_server::{demo, Client};
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

#[test]
fn unknown_flags_exit_2_and_known_flags_serve() {
    let dir = std::env::temp_dir().join(format!("entropydb-serve-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    serialize::save_sharded_dir(&demo::demo_summary(240, 2).unwrap(), &dir).unwrap();

    for bad in [
        "--core threaded",
        "--reactor-threads 1",
        "--dispatch-threads 2",
        "--bogus",
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
            stderr.contains("unknown flag --") && stderr.contains("usage:"),
            "{bad}: {stderr}"
        );
    }

    let mut child = Command::new(env!("CARGO_BIN_EXE_entropydb-serve"))
        .arg(&dir)
        .args(["--addr", "127.0.0.1:0", "--live", "--delta-threshold", "32"])
        .args(["--idle-timeout", "30", "--max-sessions", "8"])
        .args(["--threads", "2", "--max-queue-depth", "1024"])
        .args(["--max-in-flight", "16"])
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
