//! Streaming ingest over the wire: a live (mutable) backend behind real
//! TCP servers, driven through `Client::append` and the remote scatter
//! backend.
//!
//! What must hold end to end:
//!
//! * an `a1` append lands in the live server's delta shard, the background
//!   fold publishes, and COUNT(*) grows by exactly the appended rows;
//! * replaying an idempotency token over the wire is absorbed (client
//!   retries can never double-ingest);
//! * a cluster with a dynamic (`n = 0`) live shard routes appends to the
//!   delta owner and keeps its answer cache fresh — every post-fold
//!   answer reflects the grown relation, never a cached stale one;
//! * a fold the gateway observes re-dials the dynamic shard, so its `n` and
//!   mixture weights follow the fold without a background re-handshake;
//! * rows carrying a code the delta owner never held are counted after the
//!   fold: pruning by support never hides a live shard's new rows;
//! * a pipelined run answers in request order across an `a1` line: a query
//!   sent before the append never sees its rows.

mod common;
#[path = "../../core/tests/support/probes.rs"]
mod probes;

use common::fast_failover;
use entropydb_core::engine::{QueryApi, QueryEngine, SummaryBackend};
use entropydb_core::ingest::{IngestConfig, LiveSummary};
use entropydb_core::serialize::ClusterShard;
use entropydb_core::sharded::ShardedSummary;
use entropydb_core::solver::SolverConfig;
use entropydb_core::statistics::MultiDimStatistic;
use entropydb_server::{demo, encode_append, serve, Client, RemoteShardedSummary, ServerHandle};
use entropydb_storage::{AttrId, Predicate};
use std::time::{Duration, Instant};

fn a(i: usize) -> AttrId {
    AttrId(i)
}

/// The statistic set `demo::demo_summary` fits with — delta folds must use
/// the same set so the live node is fitted like any demo shard.
fn demo_stats() -> Vec<MultiDimStatistic> {
    vec![
        MultiDimStatistic::cell2d(a(0), 0, a(1), 0).unwrap(),
        MultiDimStatistic::rect2d(a(0), (1, 3), a(2), (0, 3)).unwrap(),
    ]
}

/// Deterministic schema-valid rows for the demo relation (domains 4/5/8).
fn append_batch(count: usize) -> Vec<Vec<u32>> {
    (0..count as u32)
        .map(|i| vec![(i * 7 + 1) % 4, (i * 3 + 2) % 5, (i * 5) % 8])
        .collect()
}

/// Serves `summary`'s shard 0 as a live (mutable) node with background
/// folding after `delta_rows` staged rows; returns the handle and the
/// live node's own base cardinality.
fn serve_live_shard0(summary: &ShardedSummary, delta_rows: usize) -> (ServerHandle, u64) {
    serve_live(summary, demo_stats(), delta_rows)
}

/// [`serve_live_shard0`] for a summary fitted with the statistics `multi`.
fn serve_live(
    summary: &ShardedSummary,
    multi: Vec<MultiDimStatistic>,
    delta_rows: usize,
) -> (ServerHandle, u64) {
    let shard0 = summary.shards()[0].clone();
    let n0 = shard0.n();
    let config = IngestConfig {
        delta_rows,
        seal_rows: 1 << 20,
        background: true,
    };
    let base = ShardedSummary::from_shards(vec![shard0]).unwrap();
    let live = LiveSummary::new(base, multi, SolverConfig::default(), config).unwrap();
    let handle = serve(QueryEngine::new(live), "127.0.0.1:0").unwrap();
    (handle, n0)
}

/// Polls `stats ingest` until the staging buffer is drained past `epoch`
/// (a fold published) or the deadline passes.
fn wait_for_fold<B: SummaryBackend>(engine: &QueryEngine<B>, after_epoch: u64) -> bool {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        if let Some(stats) = engine.ingest_stats() {
            if stats.epoch > after_epoch && stats.staged_rows == 0 {
                return true;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

fn count_all(client: &mut Client) -> f64 {
    let req = entropydb_core::plan::QueryRequest::count(Predicate::all());
    match client.execute(&req).unwrap() {
        entropydb_core::plan::QueryResponse::Estimate(e) => e.expectation,
        other => panic!("unexpected COUNT(*) answer {other:?}"),
    }
}

/// Direct wire drill: append over TCP, wait for the background fold,
/// verify the count grew exactly — then replay the token and verify the
/// duplicate is absorbed with no further growth.
#[test]
fn wire_append_folds_and_token_replay_is_absorbed() {
    let summary = demo::demo_summary(240, 1).unwrap();
    let (handle, n0) = serve_live_shard0(&summary, 32);
    let mut client = Client::connect(handle.local_addr().to_string()).unwrap();

    let before = client.ingest_stats().unwrap().expect("live server");
    assert_eq!(before.staged_rows, 0);
    assert_eq!(count_all(&mut client) as u64, n0);

    let batch = append_batch(64);
    let outcome = client.append(&batch, Some("e2e-tok-1")).unwrap();
    assert_eq!(outcome.accepted, 64);
    assert!(!outcome.duplicate);

    // The 64-row batch crossed the 32-row threshold: the background fold
    // publishes without any explicit flush.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = client.ingest_stats().unwrap().expect("live server");
        if stats.epoch > before.epoch && stats.staged_rows == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "fold did not publish: {stats:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    let grown = count_all(&mut client);
    let want = (n0 + 64) as f64;
    assert!(
        (grown - want).abs() < 1e-6 * want,
        "COUNT(*) after fold: {grown} vs {want}"
    );

    // Replay: same rows, same token — absorbed, count unchanged.
    let replay = client.append(&batch, Some("e2e-tok-1")).unwrap();
    assert!(replay.duplicate, "token replay must be absorbed");
    assert_eq!(replay.accepted, 0);
    let after_replay = count_all(&mut client);
    assert_eq!(
        after_replay.to_bits(),
        grown.to_bits(),
        "replay changed the count"
    );
    let stats = client.ingest_stats().unwrap().unwrap();
    assert_eq!(stats.duplicate_appends, 1);

    // Tokenless appends get a client-generated token per wire line, so
    // they land exactly once too.
    let outcome = client.append(&append_batch(8), None).unwrap();
    assert_eq!(outcome.accepted, 8);
    handle.shutdown();
}

/// One write carrying `q1 count`, `a1 <64 rows>`, `q1 count` to a live
/// node that folds synchronously at 32 staged rows: the first count is the
/// pre-append `COUNT(*)`, the second includes the 64 rows.
#[test]
fn a_pipelined_run_answers_in_request_order_across_appends() {
    use entropydb_core::plan::{QueryRequest, QueryResponse};
    use std::io::{BufRead, BufReader, Write};
    let summary = demo::demo_summary(240, 1).unwrap();
    let shard0 = summary.shards()[0].clone();
    let n0 = shard0.n() as f64;
    let config = IngestConfig {
        delta_rows: 32,
        seal_rows: 1 << 20,
        background: false,
    };
    let base = ShardedSummary::from_shards(vec![shard0]).unwrap();
    let live = LiveSummary::new(base, demo_stats(), SolverConfig::default(), config).unwrap();
    let handle = serve(QueryEngine::new(live), "127.0.0.1:0").unwrap();

    let count = QueryRequest::count(Predicate::all()).encode();
    let append = encode_append(Some("run-tok"), &append_batch(64));
    let mut stream = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    stream
        .write_all(format!("{count}\n{append}{count}\n").as_bytes())
        .unwrap();
    let mut reader = BufReader::new(stream);
    let mut next = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    };
    let expectation = |line: String| match QueryResponse::decode(&line) {
        Ok(QueryResponse::Estimate(e)) => e.expectation,
        other => panic!("unexpected COUNT(*) reply {line:?}: {other:?}"),
    };
    let before = expectation(next());
    let appended = next();
    let after = expectation(next());
    assert!(appended.starts_with("ai1 0 64 "), "{appended}");
    assert!((before - n0).abs() < 1e-6 * n0, "{before} vs {n0}");
    let want = n0 + 64.0;
    assert!((after - want).abs() < 1e-6 * want, "{after} vs {want}");
    handle.shutdown();
}

/// Oversized appends are rejected by admission control with a typed error
/// (the whole batch, atomically), and the staging buffer stays untouched.
#[test]
fn oversized_wire_append_is_rejected_atomically() {
    let summary = demo::demo_summary(120, 1).unwrap();
    let (handle, _n0) = serve_live_shard0(&summary, 1 << 20);
    let mut client = Client::connect(handle.local_addr().to_string()).unwrap();

    // A row that violates the schema (dest domain is 5) rejects the whole
    // batch: nothing stages, and a follow-up valid append still works.
    let mut bad = append_batch(4);
    bad[2][1] = 99;
    assert!(client.append(&bad, None).is_err());
    let stats = client.ingest_stats().unwrap().unwrap();
    assert_eq!(stats.staged_rows, 0, "rejected batch must not stage rows");
    let ok = client.append(&append_batch(4), None).unwrap();
    assert_eq!(ok.accepted, 4);
    handle.shutdown();
}

/// The cluster drill: shard 0 is a live node declared dynamic (`n = 0`)
/// in the manifest, shard 1 a static base segment. The remote backend
/// routes appends to the delta owner, the fold shows up in merged
/// answers, and the gateway engine's answer cache never serves a pre-fold
/// count — the zero-stale contract over the wire.
#[test]
fn remote_backend_routes_appends_and_answer_cache_stays_fresh() {
    let summary = demo::demo_summary(240, 2).unwrap();
    let n_total = summary.n();
    let (live_handle, _n0) = serve_live_shard0(&summary, 32);
    let shard1 = summary.shards()[1].clone();
    let n1 = shard1.n();
    let static_handle = serve(QueryEngine::new(shard1), "127.0.0.1:0").unwrap();

    let manifest = vec![
        ClusterShard {
            index: 0,
            // n = 0 declares the dynamic live node: the gatherer adopts
            // whatever cardinality the node reports at each handshake.
            n: 0,
            addrs: vec![live_handle.local_addr().to_string()],
        },
        ClusterShard {
            index: 1,
            n: n1,
            addrs: vec![static_handle.local_addr().to_string()],
        },
    ];
    let mut remote = RemoteShardedSummary::connect_with(&manifest, fast_failover()).unwrap();
    remote.start_rehandshake(Duration::from_millis(30));
    assert!(remote.shards()[0].is_dynamic());
    assert_eq!(remote.n(), n_total, "dynamic shard adopts the served n");
    let engine = QueryEngine::new(remote).with_answer_cache(64);

    // Warm the answer cache and verify repeats are served from it.
    let before = engine.estimate_count(&Predicate::all()).unwrap();
    let repeat = engine.estimate_count(&Predicate::all()).unwrap();
    assert_eq!(before.expectation.to_bits(), repeat.expectation.to_bits());
    assert!((before.expectation - n_total as f64).abs() < 1e-6 * n_total as f64);
    let warm_stats = engine.cache_stats().expect("answer cache enabled");
    assert!(warm_stats.hits >= 1, "repeat must hit the answer cache");

    // Append through the remote backend: routed to the delta owner with a
    // pinned idempotency token.
    let epoch0 = engine.epoch();
    let outcome = engine.append_rows(&append_batch(48), None).unwrap();
    assert_eq!(outcome.accepted, 48);
    assert!(wait_for_fold(&engine, epoch0), "fold did not publish");
    assert!(engine.epoch() > epoch0, "observed epoch must advance");

    // The post-fold merged COUNT(*) must reflect the grown live shard —
    // a stale cached probe would still answer with the pre-fold count.
    let grown = engine
        .estimate_count(&Predicate::all())
        .unwrap()
        .expectation;
    let want = (n_total + 48) as f64;
    assert!(
        (grown - want).abs() < 1e-6 * want,
        "post-fold COUNT(*): {grown} vs {want} (stale cache?)"
    );

    // Once a handshake has re-adopted the live shard's cardinality, the
    // gateway's own `n` and its mixture weights follow: both are read from
    // the shards at call time, never frozen at connect.
    let deadline = Instant::now() + Duration::from_secs(10);
    while engine.n() != n_total + 48 {
        assert!(
            Instant::now() < deadline,
            "n never followed the fold: {} vs {}",
            engine.n(),
            n_total + 48
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let pred = Predicate::new().eq(a(0), 1);
    let count = engine.estimate_count(&pred).unwrap().expectation;
    let scaled = engine.probability(&pred).unwrap() * engine.n() as f64;
    assert!(
        (scaled - count).abs() <= 1e-9 * count,
        "probability · n = {scaled} vs COUNT = {count} (connect-time weights?)"
    );

    // Token replay through the remote layer is absorbed too.
    let first = engine
        .append_rows(&append_batch(5), Some("cluster-tok"))
        .unwrap();
    assert_eq!(first.accepted, 5);
    let replay = engine
        .append_rows(&append_batch(5), Some("cluster-tok"))
        .unwrap();
    assert!(replay.duplicate);
    assert_eq!(replay.accepted, 0);

    live_handle.shutdown();
    static_handle.shutdown();
}

/// The cluster drill without a background re-handshake, over several
/// folds: each is seen only through the `stats ingest` poll, which marks the
/// dynamic shard for a redial, so the first query after it drops the pooled
/// connections, dials fresh and adopts the grown `n` before the mixture is
/// weighted. The pool stays at one idle connection throughout, also after
/// an observed epoch goes down (a node restarted from an older directory).
#[test]
fn an_observed_fold_re_adopts_the_dynamic_shards_n() {
    let summary = demo::demo_summary(240, 2).unwrap();
    let n_total = summary.n();
    let (live_handle, _n0) = serve_live_shard0(&summary, 32);
    let shard1 = summary.shards()[1].clone();
    let n1 = shard1.n();
    let static_handle = serve(QueryEngine::new(shard1), "127.0.0.1:0").unwrap();
    let manifest = vec![
        ClusterShard::single(0, 0, live_handle.local_addr().to_string()),
        ClusterShard::single(1, n1, static_handle.local_addr().to_string()),
    ];
    let remote = RemoteShardedSummary::connect_with(&manifest, fast_failover()).unwrap();
    let engine = QueryEngine::new(remote).with_answer_cache(64);
    assert_eq!(engine.n(), n_total);
    let live = &engine.backend().shards()[0];
    let pred = Predicate::new().eq(a(0), 1);
    let check = |want: u64| {
        let grown = engine
            .estimate_count(&Predicate::all())
            .unwrap()
            .expectation;
        assert_eq!(engine.n(), want, "n frozen at connect time");
        let want = want as f64;
        assert!(
            (grown - want).abs() < 1e-6 * want,
            "COUNT(*) {grown} vs {want}"
        );
        let count = engine.estimate_count(&pred).unwrap().expectation;
        let scaled = engine.probability(&pred).unwrap() * engine.n() as f64;
        assert!(
            (scaled - count).abs() <= 1e-9 * count,
            "probability · n = {scaled} vs COUNT = {count} (connect-time weights?)"
        );
        assert_eq!(live.idle_conns(), 1, "redials pile up in the pool");
    };

    for fold in 1..=4u64 {
        let epoch0 = engine.epoch();
        let outcome = engine.append_rows(&append_batch(48), None).unwrap();
        assert_eq!(outcome.accepted, 48);
        assert!(
            wait_for_fold(&engine, epoch0),
            "fold {fold} did not publish"
        );
        check(n_total + 48 * fold);
    }
    // A lower epoch than the last one seen redials once, not every probe.
    live.note_epoch(1);
    check(n_total + 4 * 48);
    check(n_total + 4 * 48);

    live_handle.shutdown();
    static_handle.shutdown();
}

/// The live edge of pruning, on the range-partitioned fixture: shard 0 (the
/// rows with `z ∈ {0, 1}`) is the dynamic live node, shards 1 and 2 are
/// static and are pruned by their handshaken supports. Rows appended with
/// `z = 5` — outside the owner's previous support, inside shard 2's — and
/// `y = 4` — a code no shard ever held — are counted once the fold lands:
/// the gateway never prunes the delta owner, and inside the live node the
/// refitted delta segment carries its own fresh support while the base
/// segment, which still cannot hold those codes, is skipped.
#[test]
fn appended_codes_outside_the_owners_support_are_counted() {
    let (table, partitioning, multi) = probes::range_fixture();
    let summary =
        ShardedSummary::build(&table, &partitioning, multi.clone(), &Default::default()).unwrap();
    let far = Predicate::new().eq(a(2), 5);
    let nowhere = Predicate::new().eq(a(1), 4);
    let far_before = entropydb_storage::exec::count(&table, &far).unwrap() as f64;
    assert!(far_before > 0.0);
    assert_eq!(entropydb_storage::exec::count(&table, &nowhere).unwrap(), 0);

    let (live_handle, _n0) = serve_live(&summary, multi, 32);
    let mut manifest = vec![ClusterShard {
        index: 0,
        n: 0,
        addrs: vec![live_handle.local_addr().to_string()],
    }];
    let mut static_handles = Vec::new();
    for (index, shard) in summary.shards().iter().enumerate().skip(1) {
        let handle = serve(QueryEngine::new(shard.clone()), "127.0.0.1:0").unwrap();
        manifest.push(ClusterShard {
            index,
            n: shard.n(),
            addrs: vec![handle.local_addr().to_string()],
        });
        static_handles.push(handle);
    }
    let remote = RemoteShardedSummary::connect_with(&manifest, fast_failover()).unwrap();
    {
        use entropydb_core::scatter::ShardProbe;
        let supports: Vec<bool> = remote
            .shards()
            .iter()
            .map(|s| s.support().is_some())
            .collect();
        assert_eq!(
            supports,
            [false, true, true],
            "only static shards declare a support"
        );
    }
    let engine = QueryEngine::new(remote).with_answer_cache(64);
    let count = |pred: &Predicate| engine.estimate_count(pred).unwrap().expectation;
    assert!((count(&far) - far_before).abs() < 1e-6 * far_before);
    assert_eq!(count(&nowhere), 0.0);

    let rows: Vec<Vec<u32>> = (0..48u32).map(|i| vec![i % 3, 4, 5]).collect();
    let epoch0 = engine.epoch();
    assert_eq!(engine.append_rows(&rows, None).unwrap().accepted, 48);
    assert!(wait_for_fold(&engine, epoch0), "fold did not publish");
    let far_after = far_before + 48.0;
    assert!(
        (count(&far) - far_after).abs() < 1e-6 * far_after,
        "z = 5 after the fold: {} vs {far_after}",
        count(&far)
    );
    assert!(
        (count(&nowhere) - 48.0).abs() < 1e-6 * 48.0,
        "y = 4 after the fold: {} vs 48",
        count(&nowhere)
    );
    // The live node on its own agrees: its base segment is pruned, its
    // delta segment answers.
    let mut client = Client::connect(live_handle.local_addr().to_string()).unwrap();
    let direct = client
        .execute(&entropydb_core::plan::QueryRequest::count(nowhere))
        .unwrap();
    assert!((direct.estimate().unwrap().expectation - 48.0).abs() < 1e-6 * 48.0);
    client.quit();

    live_handle.shutdown();
    for handle in static_handles {
        handle.shutdown();
    }
}
