//! Golden bytes and hostile bytes for the serving layer's own lines: the
//! `s1` schema block, the `a1`/`ai1` append pair and the three `stats`
//! lines (the `q1`/`r1`/`b1`/`c1` lines and the persisted formats are
//! pinned in `crates/core/tests/wire_formats.rs`). Expected strings were
//! recorded before the decoders moved onto `entropydb_core::wire`.
//!
//! The schema block and `stats cache` have no public codec, so they are
//! pinned over a socket: encoders by asking a served engine, decoders by
//! pointing a [`Client`] at a listener that answers a canned reply.

use entropydb_core::assignment::VarAssignment;
use entropydb_core::engine::{AppendOutcome, QueryEngine};
use entropydb_core::error::ModelError;
use entropydb_core::model::MaxEntSummary;
use entropydb_core::sharded::ShardedSummary;
use entropydb_core::solver::SolverReport;
use entropydb_core::statistics::Statistics;
use entropydb_server::{
    decode_append, decode_append_outcome, decode_ingest_stats, decode_server_stats, encode_append,
    encode_append_outcome, encode_ingest_stats, encode_server_stats, serve, CacheStatsSnapshot,
    Client, ClientError, IngestStatsSnapshot, ServerStatsSnapshot,
};
use entropydb_storage::{Attribute, Binner, Schema};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};

#[path = "../../core/tests/support/hostile.rs"]
mod hostile;
use hostile::{truncations, with_token, OVERSIZED};

const SCHEMA_BLOCK: &str = "\
s1 2
attr 0 3 cat origin airport
attr 1 4 bin -2.5 800 distance
n 20
end
";

/// What a server older than the cardinality handshake sends.
const SCHEMA_BLOCK_PRE_HANDSHAKE: &str = "\
s1 2
attr 0 3 cat origin airport
attr 1 4 bin -2.5 800 distance
end
";

const APPEND: &str = "a1 tok-7 2 3 1 2 3 4 5 6\n";
const APPEND_OUTCOME: &str = "ai1 1 12 40 3\n";
const STATS_CACHE: &str = "stats cache 9 4 2 1\n";
const STATS_SERVER: &str = "stats server 3 17 2 4096 8192 5\n";
const STATS_INGEST: &str = "stats ingest 4 10 200 1 5 2 3 12\n";

/// A hand-assembled two-attribute summary with no 2-D statistics.
fn summary() -> MaxEntSummary {
    let schema = Schema::new(vec![
        Attribute::categorical("origin airport", 3).unwrap(),
        Attribute::binned("distance", Binner::new(-2.5, 800.0, 4).unwrap()),
    ]);
    let one_dim = vec![vec![7, 8, 5], vec![4, 6, 3, 7]];
    let stats = Statistics::from_parts(20, vec![3, 4], one_dim, vec![], vec![]).unwrap();
    let assignment = VarAssignment {
        one_dim: vec![vec![0.5, 1.25, 0.25], vec![1.0, 2.0, 0.5, 3.5]],
        multi: vec![],
    };
    let report = SolverReport {
        sweeps: 1,
        max_residual: 0.0,
        converged: true,
        skipped_updates: 0,
        dual_trajectory: Vec::new(),
        seconds: 0.0,
    };
    MaxEntSummary::from_solved_parts(schema, stats, assignment, report).unwrap()
}

fn outcome() -> AppendOutcome {
    AppendOutcome {
        accepted: 12,
        duplicate: true,
        staged: 40,
        epoch: 3,
    }
}

fn server_stats() -> ServerStatsSnapshot {
    ServerStatsSnapshot {
        active_sessions: 3,
        accepted_total: 17,
        shed_total: 2,
        bytes_in: 4096,
        bytes_out: 8192,
        dispatch_depth: 5,
    }
}

fn ingest_stats() -> IngestStatsSnapshot {
    IngestStatsSnapshot {
        epoch: 4,
        staged_rows: 10,
        appended_rows: 200,
        duplicate_appends: 1,
        folds: 5,
        seals: 2,
        fold_errors: 3,
        fold_sweeps: 12,
    }
}

/// Sends `request` on a raw connection and reads `lines` reply lines.
fn ask(stream: &TcpStream, request: &str, lines: usize) -> String {
    (&*stream).write_all(request.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    for _ in 0..lines {
        assert_ne!(
            reader.read_line(&mut reply).unwrap(),
            0,
            "closed after {reply:?}"
        );
    }
    reply
}

/// Runs `f` against a listener that answers the first request line of one
/// connection with `reply`, then closes.
fn against_canned_reply<T>(reply: &str, f: impl FnOnce(&mut Client) -> T) -> T {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let reply = reply.to_string();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut request = String::new();
        let _ = BufReader::new(stream.try_clone().unwrap()).read_line(&mut request);
        let _ = stream.write_all(reply.as_bytes());
    });
    let mut client = Client::connect(addr).unwrap();
    let out = f(&mut client);
    drop(client);
    server.join().unwrap();
    out
}

#[test]
fn golden_bytes_for_every_serving_line() {
    let rows = vec![vec![1u32, 2, 3], vec![4, 5, 6]];
    assert_eq!(encode_append(Some("tok-7"), &rows), APPEND);
    assert_eq!(encode_append(None, &rows[..1]), "a1 - 1 3 1 2 3\n");
    assert_eq!(encode_append_outcome(&outcome()), APPEND_OUTCOME);
    assert_eq!(encode_server_stats(&server_stats()), STATS_SERVER);
    assert_eq!(encode_ingest_stats(Some(&ingest_stats())), STATS_INGEST);
    assert_eq!(encode_ingest_stats(None), "stats ingest none\n");

    assert_eq!(
        decode_append(APPEND).unwrap(),
        (Some("tok-7".to_string()), rows)
    );
    assert_eq!(decode_append_outcome(APPEND_OUTCOME).unwrap(), outcome());
    assert_eq!(decode_server_stats(STATS_SERVER).unwrap(), server_stats());
    assert_eq!(
        decode_ingest_stats(STATS_INGEST).unwrap(),
        Some(ingest_stats())
    );
    assert_eq!(decode_ingest_stats("stats ingest none\n").unwrap(), None);

    // The schema block and `stats cache`, as a served engine writes them.
    let plain = serve(QueryEngine::new(summary()), "127.0.0.1:0").unwrap();
    let stream = TcpStream::connect(plain.local_addr()).unwrap();
    assert_eq!(ask(&stream, "schema\n", 5), SCHEMA_BLOCK);
    assert_eq!(ask(&stream, "stats\n", 1), "stats cache none\n");
    plain.shutdown();
    let cached = ShardedSummary::from_shards(vec![summary()]).unwrap();
    let cached = serve(
        QueryEngine::new(cached).with_answer_cache(64),
        "127.0.0.1:0",
    )
    .unwrap();
    let stream = TcpStream::connect(cached.local_addr()).unwrap();
    assert_eq!(ask(&stream, "stats\n", 1), "stats cache 0 0 0 0\n");
    cached.shutdown();

    // ... and as a client reads them.
    for (block, n) in [(SCHEMA_BLOCK, Some(20)), (SCHEMA_BLOCK_PRE_HANDSHAKE, None)] {
        against_canned_reply(block, |client| {
            assert_eq!(client.served_n().unwrap(), n);
            let schema = client.schema().unwrap();
            assert_eq!(schema, summary().schema());
        });
    }
    let cache = against_canned_reply(STATS_CACHE, |client| client.cache_stats().unwrap());
    let expected = CacheStatsSnapshot {
        hits: 9,
        misses: 4,
        coalesced: 2,
        evicted: 1,
    };
    assert_eq!(cache, Some(expected));
    let none = against_canned_reply("stats cache none\n", |client| client.cache_stats().unwrap());
    assert_eq!(none, None);
}

/// Truncations, a trailing junk token and an oversized count in every
/// count position: each decoder answers `Err`.
#[test]
fn hostile_serving_lines_are_rejected() {
    type Rejects = fn(&str) -> bool;
    let lines: [(&str, Rejects, &[usize]); 5] = [
        (APPEND, |l| decode_append(l).is_err(), &[2, 3]),
        (APPEND_OUTCOME, |l| decode_append_outcome(l).is_err(), &[]),
        (STATS_SERVER, |l| decode_server_stats(l).is_err(), &[]),
        (STATS_INGEST, |l| decode_ingest_stats(l).is_err(), &[]),
        (
            "stats ingest none\n",
            |l| decode_ingest_stats(l).is_err(),
            &[],
        ),
    ];
    for (line, rejects, counts) in lines {
        let line = line.trim_end();
        for cut in truncations(line) {
            assert!(rejects(cut), "{line:?} truncated to {cut:?}");
        }
        assert!(rejects(&format!("{line} junk")), "{line} junk");
        for &token in counts {
            for big in OVERSIZED {
                assert!(
                    rejects(&with_token(line, 0, token, big)),
                    "{line} @ {token}"
                );
            }
        }
    }

    let schema_rejected = |block: &str| {
        against_canned_reply(block, |client| match client.schema() {
            Err(ClientError::Model(_)) => true,
            other => panic!("{block:?}: {other:?}"),
        })
    };
    for cut in truncations(SCHEMA_BLOCK) {
        // An empty reply is a dead transport, not a malformed block.
        if !cut.is_empty() {
            assert!(schema_rejected(&format!("{cut}\n")), "truncated to {cut:?}");
        }
    }
    for big in OVERSIZED {
        assert!(schema_rejected(&with_token(SCHEMA_BLOCK, 0, 1, big)));
    }
    for (line, last) in [(0, 1), (3, 1), (4, 0)] {
        let token = SCHEMA_BLOCK
            .lines()
            .nth(line)
            .unwrap()
            .split(' ')
            .nth(last)
            .unwrap();
        assert!(schema_rejected(&with_token(
            SCHEMA_BLOCK,
            line,
            last,
            &format!("{token} junk")
        )));
    }

    for hostile in [
        "stats cache 9 4 2\n",
        "stats cache 9 4 2 1 junk\n",
        "stats cache none junk\n",
        "stats server 1 2 3 4\n",
    ] {
        against_canned_reply(hostile, |client| match client.cache_stats() {
            Err(ClientError::Model(ModelError::Parse { .. })) => {}
            other => panic!("{hostile:?}: {other:?}"),
        });
    }
}

/// A 30-byte `a1` line used to abort the server (`Vec::with_capacity` on
/// the untrusted arity). It now gets a typed error line, and the server
/// keeps answering on the same and on a new connection.
#[test]
fn oversized_append_arity_gets_an_error_line_not_an_abort() {
    let handle = serve(QueryEngine::new(summary()), "127.0.0.1:0").unwrap();
    let stream = TcpStream::connect(handle.local_addr()).unwrap();
    for line in ["a1 - 1 1099511627776\n", "a1 - 1 4611686018427387904\n"] {
        let reply = ask(&stream, line, 1);
        assert_eq!(
            reply, "r1 err parse error at line 0: unexpected end of line, expected append code\n",
            "{line}"
        );
    }
    assert_eq!(ask(&stream, "ping\n", 1), "pong\n");
    let fresh = TcpStream::connect(handle.local_addr()).unwrap();
    assert_eq!(ask(&fresh, "ping\n", 1), "pong\n");
    handle.shutdown();
}
