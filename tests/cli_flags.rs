//! `entropydb` command lines: an unknown flag or an unparseable value
//! prints the usage and exits 2 before any work, as the servers' flags do;
//! well-formed commands still summarize, query and describe.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh temp directory holding a small two-attribute CSV.
fn fixture(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("entropydb-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut csv = String::from("origin,dest\n");
    for i in 0..200 {
        csv.push_str(&format!("s{},s{}\n", i % 4, (i / 4) % 3));
    }
    std::fs::write(dir.join("data.csv"), csv).unwrap();
    dir
}

fn entropydb(dir: &Path, args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_entropydb"))
        .current_dir(dir)
        .args(args.split(' '))
        .output()
        .unwrap()
}

fn assert_usage_exit(out: &Output, why: &str, args: &str) {
    assert_eq!(out.status.code(), Some(2), "{args}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(why) && stderr.contains("usage:"),
        "{args}: {stderr}"
    );
}

#[test]
fn bad_flags_exit_2_before_any_work() {
    let dir = fixture("bad");
    for (args, why) in [
        (
            "summarize data.csv --pairs x --out s.txt",
            "cannot parse --pairs",
        ),
        (
            "summarize data.csv --budget -1 --out s.txt",
            "cannot parse --budget",
        ),
        (
            "summarize data.csv --bogus 1 --out s.txt",
            "unknown flag --bogus",
        ),
        (
            "summarize data.csv --budjet 300 --out s.txt",
            "unknown flag --budjet",
        ),
    ] {
        let out = entropydb(&dir, args);
        assert_usage_exit(&out, why, args);
        assert!(!dir.join("s.txt").exists(), "{args} wrote a summary");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A flag where a file or the predicate belongs is a usage error, not a
/// file named `--pairs` that cannot be read.
#[test]
fn a_flag_in_a_positional_slot_exits_2() {
    let dir = fixture("positional");
    for (args, why) in [
        (
            "summarize --pairs 1 data.csv --out s.txt",
            "found flag --pairs",
        ),
        ("query --exact data.csv s.txt origin", "found flag --exact"),
        ("query data.csv --exact s.txt origin", "found flag --exact"),
        ("info --verbose", "found flag --verbose"),
    ] {
        let out = entropydb(&dir, args);
        assert_usage_exit(&out, why, args);
        assert!(!dir.join("s.txt").exists(), "{args} wrote a summary");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A data file that cannot be read is reported as an I/O error naming the
/// file, not as an unknown attribute.
#[test]
fn an_unreadable_file_is_an_io_error_naming_it() {
    let dir = fixture("missing");
    let out = entropydb(&dir, "summarize nothing.csv --out s.txt");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot read nothing.csv") && !stderr.contains("unknown attribute"),
        "{stderr}"
    );
    assert!(!dir.join("s.txt").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn known_flags_summarize_query_and_describe() {
    let dir = fixture("good");
    let out = entropydb(&dir, "summarize data.csv --pairs 1 --budget 4 --out s.txt");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("s.txt").exists());

    let query = ["query", "data.csv", "s.txt", "origin = s1", "--exact"];
    let run = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_entropydb"))
            .current_dir(&dir)
            .args(query.iter().chain(extra))
            .output()
            .unwrap()
    };
    let out = run(&[]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("exact:    50"));
    assert_usage_exit(&run(&["--bogus"]), "unknown flag --bogus", "query --bogus");

    assert!(entropydb(&dir, "info s.txt").status.success());
    assert_usage_exit(
        &entropydb(&dir, "info s.txt --verbose"),
        "unknown flag --verbose",
        "info --verbose",
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
