//! Raw-socket protocol suite for the served path: the same command script
//! delivered byte-at-a-time and as one coalesced write must produce
//! bitwise-identical reply streams, a `MAX_LINE_BYTES` flood must end only
//! the offending session, capacity shedding must answer a readable typed
//! `busy` line, and the `stats server` counters must track real traffic.
//! And what the shared-epoll pool must guarantee at every size: order
//! within a session, no session starved or blocked by another's slow
//! request, a half-closed client answered before EOF.
//! (The golden transcript — expected bytes built from in-process
//! execution, checked on both I/O drivers — is a unit test in
//! `src/server.rs`, where the private blocking driver is reachable.)

mod common;

use entropydb_core::engine::QueryEngine;
use entropydb_core::plan::QueryRequest;
use entropydb_server::fault::{FaultMode, FaultProxy};
use entropydb_server::{
    serve, serve_tuned, serve_with, Client, ReactorConfig, RemoteShardedSummary, ServerConfig,
    ServerHandle,
};
use entropydb_storage::Predicate;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

fn spawn_reactor() -> ServerHandle {
    serve(QueryEngine::new(common::sharded(3)), "127.0.0.1:0").unwrap()
}

fn pool_of(threads: usize) -> ReactorConfig {
    ReactorConfig {
        threads,
        ..ReactorConfig::default()
    }
}

/// Polls `condition` (a server-side counter catching up with a client) for
/// up to ten seconds.
fn wait_until(what: &str, condition: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !condition() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Byte-at-a-time delivery and one coalesced pipelined write provoke
/// bitwise-identical reply streams — alone and on 8 concurrent
/// connections, whether the pool has fewer threads than sessions, as many,
/// or more — and nothing is left in flight.
#[test]
fn dribbled_bytes_and_coalesced_frames_answer_identically() {
    let mut reference = None;
    for threads in [1usize, 2, 8] {
        let engine = QueryEngine::new(common::sharded(3));
        let handle = serve_tuned(
            engine,
            "127.0.0.1:0",
            ServerConfig::default(),
            pool_of(threads),
        )
        .unwrap();
        let coalesced = common::transcript(handle.local_addr(), false);
        assert!(!coalesced.is_empty());
        let reference = reference.get_or_insert(coalesced.clone());
        assert_eq!(
            &coalesced, reference,
            "{threads} threads changed the reply stream"
        );
        let concurrent = common::concurrent_transcripts(handle.local_addr(), 8);
        for (conn, got) in concurrent.iter().enumerate() {
            assert_eq!(
                got, reference,
                "{threads} threads, connection {conn}: partial reads or contention changed the reply stream"
            );
        }
        assert_eq!(handle.stats().dispatch_depth, 0, "{threads} threads");
        handle.shutdown();
    }
}

/// A client that half-closes after a final unterminated line still gets
/// every reply, then EOF: the readiness that carries the FIN is served
/// like any other.
#[test]
fn half_closed_client_is_answered_before_eof() {
    let handle = spawn_reactor();
    let count = QueryRequest::count(Predicate::all()).encode();
    let mut whole = TcpStream::connect(handle.local_addr()).unwrap();
    whole
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    whole
        .write_all(format!("ping\n{count}\nping\nquit\n").as_bytes())
        .unwrap();
    let mut expected = Vec::new();
    whole.read_to_end(&mut expected).unwrap();
    assert!(expected.starts_with(b"pong\nr1 ") && expected.ends_with(b"\npong\n"));

    let mut half = TcpStream::connect(handle.local_addr()).unwrap();
    half.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    half.write_all(format!("ping\n{count}\nping").as_bytes())
        .unwrap();
    half.shutdown(Shutdown::Write).unwrap();
    let mut got = Vec::new();
    half.read_to_end(&mut got).unwrap();
    assert_eq!(got, expected);
    handle.shutdown();
}

/// No head-of-line blocking: while one session's request waits 400 ms on a
/// slow shard, another session of the same 2-thread gateway is answered at
/// once; the waiting session is not idle (the reaper leaves it alone); and
/// `shutdown` during such a request returns.
#[test]
fn a_slow_request_holds_up_nobody_else() {
    let local = common::sharded(1);
    let (shards, mut manifest) = common::serve_shards(&local);
    let proxy = FaultProxy::start(manifest[0].addrs[0].parse().unwrap()).unwrap();
    manifest[0].addrs[0] = proxy.local_addr().to_string();
    let remote = RemoteShardedSummary::connect_with(&manifest, common::fast_failover()).unwrap();
    let idle_250ms = ServerConfig {
        idle_timeout: Some(Duration::from_millis(250)),
        max_sessions: None,
    };
    let gateway = serve_tuned(
        QueryEngine::new(remote),
        "127.0.0.1:0",
        idle_250ms,
        pool_of(2),
    )
    .unwrap();
    let request = |code| QueryRequest::count(Predicate::new().eq(common::a(0), code));
    let local = QueryEngine::new(local);
    let expected = local.execute(&request(1)).unwrap().encode();

    let mut slow = Client::connect(gateway.local_addr()).unwrap();
    let mut quick = Client::connect(gateway.local_addr()).unwrap();
    slow.ping().unwrap();
    // Every chunk is held 200 ms, each way: a probe is a 400 ms round trip.
    proxy.set_mode(FaultMode::Delay(Duration::from_millis(200)));
    quick.ping().unwrap();
    let in_flight = std::thread::spawn(move || {
        let asked = Instant::now();
        let answer = slow.execute(&request(1));
        (answer, asked.elapsed(), slow)
    });
    wait_until("the slow request executes", || {
        gateway.stats().dispatch_depth >= 1
    });
    let asked = Instant::now();
    quick.ping().unwrap();
    let rtt = asked.elapsed();
    assert!(
        gateway.stats().dispatch_depth >= 1,
        "the slow request was over before the ping: nothing was overlapped"
    );
    assert!(rtt < Duration::from_millis(50), "ping waited {rtt:?}");
    let (answer, took, mut slow) = in_flight.join().unwrap();
    assert_eq!(answer.unwrap().encode(), expected);
    assert!(took >= Duration::from_millis(250), "not slow: {took:?}");
    // Silent for longer than the idle deadline while its request executed,
    // the session was still there for the reply (no reconnect happened).
    assert_eq!(gateway.stats().accepted_total, 2);

    let in_flight = std::thread::spawn(move || slow.execute(&request(2)));
    wait_until("the second slow request executes", || {
        gateway.stats().dispatch_depth >= 1
    });
    let asked = Instant::now();
    gateway.shutdown();
    let took = asked.elapsed();
    assert!(took < Duration::from_secs(5), "shutdown took {took:?}");
    // Answered or cut off — either way the client is released.
    let _ = in_flight.join().unwrap();
    proxy.shutdown();
    for shard in shards {
        shard.shutdown();
    }
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
/// the server counters. A cap of zero, or a per-connection in-flight cap
/// above the global queue depth, is refused before a server starts.
#[test]
fn capacity_shed_answers_typed_busy_line() {
    let refused = |config, tuning| {
        let engine = QueryEngine::new(common::sharded(1));
        match serve_tuned(engine, "127.0.0.1:0", config, tuning) {
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{e}"),
            Ok(handle) => panic!(
                "served on {} despite an invalid config",
                handle.local_addr()
            ),
        }
    };
    let zero_cap = ServerConfig {
        idle_timeout: None,
        max_sessions: Some(0),
    };
    refused(zero_cap, ReactorConfig::default());
    let inverted = ReactorConfig {
        max_queue_depth: 8,
        max_in_flight_per_conn: 64,
        ..ReactorConfig::default()
    };
    refused(ServerConfig::default(), inverted);

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
