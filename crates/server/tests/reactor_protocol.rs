//! Raw-socket protocol suite for the served path: the same command script
//! delivered byte-at-a-time and as one coalesced write must produce
//! bitwise-identical reply streams, a `MAX_LINE_BYTES` flood must end only
//! the offending session, capacity shedding must answer a readable typed
//! `busy` line, and the `stats server` counters must track real traffic.
//! (The golden transcript — expected bytes built from in-process
//! execution, checked on both I/O drivers — is a unit test in
//! `src/server.rs`, where the private blocking driver is reachable.)

mod common;

use entropydb_core::engine::QueryEngine;
use entropydb_core::plan::QueryRequest;
use entropydb_server::{serve, serve_with, Client, ServerConfig, ServerHandle};
use entropydb_storage::Predicate;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn spawn_reactor() -> ServerHandle {
    serve(QueryEngine::new(common::sharded(3)), "127.0.0.1:0").unwrap()
}

/// Byte-at-a-time delivery and one coalesced pipelined write provoke
/// bitwise-identical reply streams.
#[test]
fn dribbled_bytes_and_coalesced_frames_answer_identically() {
    let handle = spawn_reactor();
    let coalesced = common::transcript(handle.local_addr(), false);
    let dribbled = common::transcript(handle.local_addr(), true);
    assert!(!coalesced.is_empty());
    assert_eq!(
        dribbled, coalesced,
        "partial-read decoding changed the reply stream"
    );
    handle.shutdown();
}

/// Flooding one session with a newline-free stream past `MAX_LINE_BYTES`
/// ends that session (silently — no reply for the poisoned line) while
/// every other session keeps answering.
#[test]
fn oversized_line_ends_only_the_offending_session() {
    let handle = spawn_reactor();
    let mut good = Client::connect(handle.local_addr()).unwrap();
    good.ping().unwrap();

    let mut bad = TcpStream::connect(handle.local_addr()).unwrap();
    bad.set_nodelay(true).unwrap();
    bad.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let chunk = vec![b'x'; 1 << 16];
    let mut sent = 0u64;
    while sent <= (1 << 20) {
        match bad.write_all(&chunk) {
            Ok(()) => sent += chunk.len() as u64,
            // The server may close mid-flood; that's the point.
            Err(_) => break,
        }
    }
    let mut buf = [0u8; 64];
    match bad.read(&mut buf) {
        Ok(0) => {}
        Ok(_) => panic!("violating session got a reply"),
        Err(e) => panic!("expected EOF on the violating session, got {e}"),
    }

    // The well-behaved session is unaffected.
    good.ping().unwrap();
    let req = QueryRequest::count(Predicate::all());
    good.execute(&req).unwrap();
    handle.shutdown();
}

/// A connection over the session cap reads one typed `busy` line and then
/// EOF, while the admitted session keeps working; the shed shows up in
/// the server counters.
#[test]
fn capacity_shed_answers_typed_busy_line() {
    let engine = QueryEngine::new(common::sharded(3));
    let handle = serve_with(
        engine,
        "127.0.0.1:0",
        ServerConfig {
            idle_timeout: None,
            max_sessions: Some(1),
        },
    )
    .unwrap();
    let mut admitted = Client::connect(handle.local_addr()).unwrap();
    admitted.ping().unwrap();

    let shed = TcpStream::connect(handle.local_addr()).unwrap();
    shed.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(shed);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line, "r1 busy server at session capacity (1)\n");
    drop(reader);

    admitted.ping().unwrap();
    let snap = handle.stats();
    assert!(snap.shed_total >= 1, "shed not counted: {snap:?}");
    assert!(snap.accepted_total >= 2, "accepts not counted: {snap:?}");
    handle.shutdown();
}

/// The `stats server` session command reports live counters that agree
/// with the handle's snapshot, and sessions come off the active gauge
/// once they disconnect.
#[test]
fn stats_server_counters_track_traffic() {
    let handle = spawn_reactor();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.ping().unwrap();
    let snap = client.server_stats().unwrap();
    assert!(snap.active_sessions >= 1, "{snap:?}");
    assert!(snap.accepted_total >= 1, "{snap:?}");
    assert!(snap.bytes_in >= "ping\n".len() as u64, "{snap:?}");
    assert!(snap.bytes_out >= "pong\n".len() as u64, "{snap:?}");
    assert_eq!(handle.stats().accepted_total, snap.accepted_total);

    drop(client);
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.stats().active_sessions > 0 {
        assert!(
            Instant::now() < deadline,
            "disconnected session never left the active gauge: {:?}",
            handle.stats()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.shutdown();
}
