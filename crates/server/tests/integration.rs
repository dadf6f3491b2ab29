//! End-to-end server tests: an ephemeral-port server over both backends,
//! concurrent clients, pipelined batches, the error channel, and graceful
//! shutdown.

use entropydb_core::engine::{QueryApi, QueryEngine};
use entropydb_core::error::ModelError;
use entropydb_core::model::MaxEntSummary;
use entropydb_core::plan::{QueryRequest, QueryResponse};
use entropydb_core::sharded::{ShardedBuildConfig, ShardedSummary};
use entropydb_core::solver::SolverConfig;
use entropydb_core::statistics::MultiDimStatistic;
use entropydb_server::{serve, Client};
use entropydb_storage::{AttrId, Attribute, Binner, Partitioning, Predicate, Schema, Table};
use std::sync::{PoisonError, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

/// Every test that serves holds this shared; the thread-leak stress holds
/// it exclusively, so the serving threads it counts are its own.
static SERVING: RwLock<()> = RwLock::new(());

fn serving() -> RwLockReadGuard<'static, ()> {
    SERVING.read().unwrap_or_else(PoisonError::into_inner)
}

fn a(i: usize) -> AttrId {
    AttrId(i)
}

fn table() -> Table {
    let schema = Schema::new(vec![
        Attribute::categorical("origin", 3).unwrap(),
        Attribute::categorical("dest", 4).unwrap(),
        Attribute::binned("distance", Binner::new(0.0, 100.0, 5).unwrap()),
    ]);
    let mut t = Table::new(schema);
    let mut v = 1u32;
    for _ in 0..90 {
        t.push_row(&[v % 3, (v / 3) % 4, (v / 12) % 5]).unwrap();
        v = v.wrapping_mul(7).wrapping_add(3);
    }
    t
}

fn summary() -> MaxEntSummary {
    let stat = MultiDimStatistic::cell2d(a(0), 0, a(1), 0).unwrap();
    MaxEntSummary::build(&table(), vec![stat], &SolverConfig::default()).unwrap()
}

fn sharded() -> ShardedSummary {
    let stat = MultiDimStatistic::cell2d(a(0), 0, a(1), 0).unwrap();
    ShardedSummary::build(
        &table(),
        &Partitioning::hash(3),
        vec![stat],
        &ShardedBuildConfig::default(),
    )
    .unwrap()
}

fn requests() -> Vec<QueryRequest> {
    let pred = Predicate::new().eq(a(0), 1);
    vec![
        QueryRequest::count(pred.clone()),
        QueryRequest::probability(pred.clone()),
        QueryRequest::sum(pred.clone(), a(2)),
        QueryRequest::avg(pred.clone(), a(2)),
        QueryRequest::group_by(pred.clone(), a(1)),
        QueryRequest::group_by2(Predicate::all(), a(0), a(1)),
        QueryRequest::top_k(Predicate::all(), a(1), 3),
        QueryRequest::sample_rows(25, 7),
    ]
}

/// Every IR request answered over TCP equals the in-process engine answer
/// exactly, on both backends.
#[test]
fn served_responses_match_in_process_execution() {
    let _serving = serving();
    fn check<B: entropydb_core::engine::SummaryBackend + 'static>(
        name: &str,
        local: QueryEngine<B>,
        served: QueryEngine<B>,
    ) {
        let handle = serve(served, "127.0.0.1:0").unwrap();
        let mut client = Client::connect(handle.local_addr()).unwrap();
        client.ping().unwrap();
        for req in requests() {
            let got = client.execute(&req).unwrap();
            let expected = local.execute(&req).unwrap();
            assert_eq!(got, expected, "{name}: {}", req.encode());
        }
        client.quit();
        handle.shutdown();
    }
    check(
        "monolithic",
        QueryEngine::new(summary()),
        QueryEngine::new(summary()),
    );
    check(
        "sharded",
        QueryEngine::new(sharded()),
        QueryEngine::new(sharded()),
    );
}

/// A textual statement travels statement → parser → IR → TCP → engine and
/// returns the same estimate as the in-process call.
#[test]
fn served_statement_matches_in_process_call() {
    let _serving = serving();
    let s = summary();
    let engine = QueryEngine::new(summary());
    let handle = serve(engine, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // The schema resolver takes categorical codes and raw numeric values.
    let served = client
        .query("COUNT WHERE origin = 1 AND distance >= 40")
        .unwrap();
    let schema = s.schema().clone();
    let req =
        entropydb_core::plan::parse_request("COUNT WHERE origin = 1 AND distance >= 40", &schema)
            .unwrap();
    let pred = req.predicate().unwrap();
    let expected = s.estimate_count(pred).unwrap();
    let got = served.estimate().unwrap();
    assert_eq!(got.expectation.to_bits(), expected.expectation.to_bits());
    assert_eq!(got.variance.to_bits(), expected.variance.to_bits());

    // Other statement shapes execute end-to-end too.
    assert!(client.query("TOP 2 dest").unwrap().ranked().is_some());
    assert!(client
        .query("GROUP BY origin WHERE dest IN (0, 2)")
        .unwrap()
        .groups()
        .is_some());
    assert!(client.query("SAMPLE 10 SEED 3").unwrap().rows().is_some());
    // An unsatisfiable IN () statement answers zero, not an error.
    let zero = client.query("COUNT WHERE origin IN ()").unwrap();
    assert_eq!(zero.estimate().unwrap().expectation, 0.0);
    client.quit();
    handle.shutdown();
}

/// Concurrent clients all get exact answers (sessions share one engine and
/// its scratch pool).
#[test]
fn concurrent_clients_get_consistent_answers() {
    let _serving = serving();
    let s = summary();
    let handle = serve(QueryEngine::new(summary()), "127.0.0.1:0").unwrap();
    let addr = handle.local_addr();
    let expected: Vec<QueryResponse> = {
        let engine = QueryEngine::new(s);
        requests()
            .iter()
            .map(|r| engine.execute(r).unwrap())
            .collect()
    };
    let threads: Vec<_> = (0..6)
        .map(|t| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..10 {
                    let reqs = requests();
                    let i = (t + round) % reqs.len();
                    let got = client.execute(&reqs[i]).unwrap();
                    assert_eq!(got, expected[i], "thread {t} round {round}");
                }
                client.quit();
            })
        })
        .collect();
    for th in threads {
        th.join().unwrap();
    }
    handle.shutdown();
}

/// A batch pipelines: n `q1` lines, n in-order responses, identical to
/// executing each request alone; undecodable lines answer on the error
/// channel without poisoning the rest of the batch.
#[test]
fn batch_pipelining_and_error_channel() {
    let _serving = serving();
    let handle = serve(QueryEngine::new(summary()), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let reqs = requests();
    let batched = client.execute_batch(&reqs).unwrap();
    assert_eq!(batched.len(), reqs.len());
    for (req, got) in reqs.iter().zip(batched) {
        let single = client.execute(req).unwrap();
        assert_eq!(got.unwrap(), single, "{}", req.encode());
    }

    // Out-of-schema requests answer errors but keep the session usable.
    let bad = QueryRequest::count(Predicate::new().eq(a(9), 0));
    match client.execute(&bad) {
        Err(entropydb_server::ClientError::Model(ModelError::Remote(msg))) => {
            assert!(!msg.kind.is_empty())
        }
        other => panic!("expected remote error, got {other:?}"),
    }
    let mixed = vec![bad.clone(), QueryRequest::count(Predicate::all())];
    let outcomes = client.execute_batch(&mixed).unwrap();
    assert!(matches!(outcomes[0], Err(ModelError::Remote(_))));
    assert!(outcomes[1].is_ok());

    // Sample requests beyond the served cap are refused up front (their
    // cost is decoupled from the wire line length), alone and in batches.
    let huge = QueryRequest::sample_rows(usize::MAX, 1);
    match client.execute(&huge) {
        Err(entropydb_server::ClientError::Model(ModelError::Remote(msg))) => {
            assert!(msg.kind.contains("sample size"), "{msg}")
        }
        other => panic!("expected sample-size rejection, got {other:?}"),
    }
    let outcomes = client
        .execute_batch(&[huge, QueryRequest::count(Predicate::all())])
        .unwrap();
    assert!(matches!(outcomes[0], Err(ModelError::Remote(_))));
    assert!(outcomes[1].is_ok());

    // The connection survives all of the above.
    client.ping().unwrap();
    client.quit();
    handle.shutdown();
}

/// A batch larger than the per-connection in-flight cap (256) travels as
/// several pipelined chunks: its answers equal in-process `execute_batch`
/// bit for bit, the error request fails in its own slot, and the
/// connection is left in step.
#[test]
fn chunked_batch_matches_in_process_batch() {
    let _serving = serving();
    let local = QueryEngine::new(sharded());
    let handle = serve(QueryEngine::new(sharded()), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let mut reqs: Vec<QueryRequest> = (0..600u32)
        .map(|i| {
            let pred = Predicate::new().eq(a(1), i % 4).between(a(2), i % 5, 4);
            match i % 3 {
                0 => QueryRequest::count(pred),
                1 => QueryRequest::group_by(pred, a(0)),
                _ => QueryRequest::top_k(pred, a(0), 2),
            }
        })
        .collect();
    reqs[300] = QueryRequest::count(Predicate::new().eq(a(9), 0));

    let remote = client.execute_batch(&reqs).unwrap();
    let expected = local.execute_batch(&reqs);
    assert_eq!(remote.len(), reqs.len());
    for (i, (got, want)) in remote.into_iter().zip(expected).enumerate() {
        match (got, want) {
            (Ok(got), Ok(want)) => assert_eq!(got.encode(), want.encode(), "request {i}"),
            (Err(ModelError::Remote(_)), Err(_)) => assert_eq!(i, 300),
            (got, want) => panic!("request {i}: {got:?} vs {want:?}"),
        }
    }
    assert!(client.in_step());
    client.ping().unwrap();
    client.quit();
    handle.shutdown();
}

/// Shutdown disconnects live sessions, joins every thread, and stops
/// accepting new connections.
#[test]
fn shutdown_joins_sessions_and_closes_listener() {
    let _serving = serving();
    let handle = serve(QueryEngine::new(summary()), "127.0.0.1:0").unwrap();
    let addr = handle.local_addr();

    // A connected, idle client (mid-session, blocked in read).
    let mut idle = Client::connect(addr).unwrap();
    idle.ping().unwrap();
    // Wait until the server has registered the session.
    for _ in 0..100 {
        if handle.active_sessions() > 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(handle.active_sessions() > 0);

    // shutdown() must return even though the client never disconnected —
    // proving the session was unblocked and its thread joined.
    handle.shutdown();

    // The dropped server no longer answers: the idle client sees EOF...
    assert!(idle.ping().is_err());
    // ...and fresh connections are refused (or immediately closed).
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut c) => assert!(c.ping().is_err()),
    }
}

/// Loop-spawn stress for the shutdown path: many rounds of serve → racing
/// client connects → shutdown. A connection accepted after shutdown begins
/// must never leak a thread: `shutdown` returns only after every serving
/// thread is joined, so no `entropydb-io-*` thread (the name the epoll
/// driver gives its pool) may be alive after any round, and no round may
/// hang.
#[test]
fn shutdown_loop_spawn_stress_leaks_no_sessions() {
    /// Live threads of this process named like the serving pool's; `None`
    /// where there is no `/proc` (or no named pool: the blocking driver).
    fn serving_threads() -> Option<usize> {
        let tasks = std::fs::read_dir("/proc/self/task").ok()?;
        Some(
            tasks
                .flatten()
                .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
                .filter(|comm| comm.starts_with("entropydb-io-"))
                .count(),
        )
    }
    /// Whether the count settles where `wanted` says, given a moment: a
    /// thread names itself after it starts, and the kernel may drop a
    /// joined thread's `/proc` entry a little after the join — but a
    /// leaked thread stays for good.
    fn settles(wanted: impl Fn(usize) -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !serving_threads().is_none_or(&wanted) {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }
    let _alone = SERVING.write().unwrap_or_else(PoisonError::into_inner);
    let model = summary();
    if cfg!(target_os = "linux") {
        // The count below is not vacuous: a running server shows up in it,
        // with the pool `serve` derives from the CPUs.
        let handle = serve(QueryEngine::new(model.clone()), "127.0.0.1:0").unwrap();
        let pool = entropydb_core::par::max_threads().max(2);
        assert!(settles(|alive| alive == pool), "no named pool of {pool}");
        handle.shutdown();
    }
    for round in 0..24u64 {
        let handle = serve(QueryEngine::new(model.clone()), "127.0.0.1:0").unwrap();
        let addr = handle.local_addr();
        let spawners: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    for _ in 0..8 {
                        // Connects race the shutdown below; failures (refused,
                        // reset, EOF) are the expected outcome mid-shutdown.
                        if let Ok(mut c) = Client::connect(addr) {
                            let _ = c.ping();
                        }
                    }
                })
            })
            .collect();
        // Vary the interleaving so shutdown lands before, during, and
        // after the connect bursts across rounds.
        std::thread::sleep(std::time::Duration::from_millis(round % 3));
        handle.shutdown();
        assert!(
            settles(|alive| alive == 0),
            "round {round}: serving threads outlived shutdown"
        );
        for s in spawners {
            s.join().unwrap();
        }
    }
}

/// Unknown command words answer on the error channel (raw-socket check).
#[test]
fn unknown_commands_answer_errors() {
    let _serving = serving();
    use std::io::{BufRead, BufReader, Write};
    let handle = serve(QueryEngine::new(summary()), "127.0.0.1:0").unwrap();
    let mut stream = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    stream.write_all(b"frobnicate the database\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("r1 err "), "{line:?}");
    // `batch <n>` is no command: one error reply, and the session keeps
    // answering.
    stream.write_all(b"batch 999999999\nping\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("r1 err "), "{line:?}");
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line, "pong\n");
    handle.shutdown();
}

/// A newline-free byte flood is cut off at the line cap instead of growing
/// the session buffer without bound.
#[test]
fn oversized_lines_end_the_session() {
    let _serving = serving();
    use std::io::{Read, Write};
    let handle = serve(QueryEngine::new(summary()), "127.0.0.1:0").unwrap();
    let mut stream = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    let chunk = vec![b'x'; 1 << 16];
    // Write far past MAX_LINE_BYTES without a newline; the server must
    // drop the session (writes start failing or the read returns EOF).
    let mut dropped = false;
    for _ in 0..64 {
        if stream.write_all(&chunk).is_err() {
            dropped = true;
            break;
        }
    }
    if !dropped {
        let _ = stream.flush();
        let mut buf = [0u8; 16];
        // EOF (Ok(0)) or a reset both mean the session ended.
        dropped = !matches!(stream.read(&mut buf), Ok(n) if n > 0);
    }
    assert!(dropped, "server kept buffering a newline-free stream");
    handle.shutdown();
}
