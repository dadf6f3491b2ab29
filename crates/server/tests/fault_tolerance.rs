//! Fault-tolerance end-to-end suites: replica failover under kills, hung
//! sockets cut off by probe deadlines, corrupted frames, circuit breakers
//! and probation, changed-blob eviction via the background re-handshake,
//! session idle reaping, busy-line load shedding, and the rolling-restart
//! control channel — all checked for the tentpole invariant: **whenever
//! any live replica holds a shard, answers stay bitwise identical to a
//! healthy cluster's.**

mod common;

use common::fault::{FaultMode, FaultProxy};
use common::{a, fast_failover, requests, serve_replicated, sharded};
use entropydb_core::assignment::Mask;
use entropydb_core::engine::{QueryEngine, SummaryBackend};
use entropydb_core::error::ModelError;
use entropydb_core::plan::QueryRequest;
use entropydb_core::probe::{ProbeRequest, ProbeResponse};
use entropydb_core::scatter::ShardProbe;
use entropydb_core::serialize;
use entropydb_server::{
    demo, serve, serve_with, Client, ClientConfig, ClientError, FailoverConfig, RemoteShard,
    RemoteShardedSummary, ServerConfig,
};
use entropydb_storage::Predicate;
use std::time::{Duration, Instant};

/// Failover policy for the deadline drills: tight socket deadlines so a
/// black-holed node is cut off in a few hundred milliseconds.
fn deadline_failover() -> FailoverConfig {
    FailoverConfig {
        connect_timeout: Some(Duration::from_millis(300)),
        probe_timeout: Some(Duration::from_millis(300)),
    }
}

/// One `count` probe straight at a remote shard (no gather, no cache).
fn probe_count(shard: &RemoteShard, mask: &Mask) -> Result<ProbeResponse, ModelError> {
    shard.probe(&ProbeRequest::Count { mask: mask.clone() }, &mut ())
}

/// Kill a node mid-batch with 2 replicas per shard: the batch completes
/// with **zero failed requests** and every response bitwise-identical to
/// the local backend — at 1, 2, and 4 shards.
#[test]
fn replica_failover_under_load_keeps_answers_bitwise() {
    for shards in [1usize, 2, 4] {
        let local = sharded(shards);
        let (mut handles, manifest) = serve_replicated(&local, 2);
        let remote = RemoteShardedSummary::connect_with(&manifest, fast_failover()).unwrap();
        let engine = QueryEngine::new(remote);
        let local_engine = QueryEngine::new(local);

        // A sustained batch (the "load"), with replica 0 of every shard
        // killed from another thread while the batch is in flight.
        let reqs: Vec<QueryRequest> = (0..12).flat_map(|_| requests()).collect();
        let expected: Vec<String> = reqs
            .iter()
            .map(|r| local_engine.execute(r).unwrap().encode())
            .collect();
        let victims: Vec<_> = handles.iter_mut().map(|h| h.remove(0)).collect();
        let killer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            for victim in victims {
                victim.shutdown();
            }
        });
        let outcomes = engine.execute_batch(&reqs);
        killer.join().unwrap();
        assert_eq!(outcomes.len(), reqs.len());
        for ((req, outcome), expected) in reqs.iter().zip(outcomes).zip(&expected) {
            let got = outcome.unwrap_or_else(|e| {
                panic!(
                    "{shards} shards: {} failed under failover: {e}",
                    req.encode()
                )
            });
            assert_eq!(&got.encode(), expected, "{shards} shards: {}", req.encode());
        }

        // With the first replicas gone for good, the full parity harness
        // still passes through the survivors — failover changed nothing.
        common::assert_bitwise_parity(&local_engine, &engine);

        for shard_handles in handles {
            for handle in shard_handles {
                handle.shutdown();
            }
        }
    }
}

/// A black-holed (hung, not dead) node is cut off by the probe deadline
/// and the query answers through the other replica, within the configured
/// budget — at 1, 2, and 4 shards.
#[test]
fn hung_node_is_cut_off_by_probe_deadline() {
    for shards in [1usize, 2, 4] {
        let local = sharded(shards);
        let (handles, mut manifest) = serve_replicated(&local, 2);
        // Replica 0 of shard 0 is reached through the fault proxy.
        let upstream = manifest[0].addrs[0].parse().unwrap();
        let proxy = FaultProxy::start(upstream).unwrap();
        manifest[0].addrs[0] = proxy.local_addr().to_string();

        let config = deadline_failover();
        let probe_timeout = config.probe_timeout.unwrap();
        let remote = RemoteShardedSummary::connect_with(&manifest, config).unwrap();
        let engine = QueryEngine::new(remote);
        let local_engine = QueryEngine::new(local);

        // Healthy pass first, so a pooled connection to the proxy exists
        // and the hang hits an in-flight probe rather than a fresh dial.
        let req = QueryRequest::count(Predicate::new().eq(a(0), 1));
        let expected = local_engine.execute(&req).unwrap().encode();
        assert_eq!(engine.execute(&req).unwrap().encode(), expected);

        proxy.set_mode(FaultMode::BlackHole);
        let start = Instant::now();
        let got = engine.execute(&req).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(got.encode(), expected, "{shards} shards");
        // Budget: one probe deadline plus failover overhead — nowhere
        // near a hang.
        assert!(
            elapsed < probe_timeout * 6,
            "{shards} shards: hung node took {elapsed:?} to cut off"
        );

        // Subsequent queries prefer the healthy replica: effectively free.
        let again = Instant::now();
        assert_eq!(engine.execute(&req).unwrap().encode(), expected);
        assert!(again.elapsed() < probe_timeout * 2, "{shards} shards");

        proxy.shutdown();
        for shard_handles in handles {
            for handle in shard_handles {
                handle.shutdown();
            }
        }
    }
}

/// Corrupted response frames are a *protocol* failure: the gatherer drops
/// the poisoned transport and fails over — answers stay bitwise-correct,
/// never silently wrong.
#[test]
fn corrupted_frames_fail_over_to_a_healthy_replica() {
    let local = sharded(1);
    let (handles, mut manifest) = serve_replicated(&local, 2);
    let upstream = manifest[0].addrs[0].parse().unwrap();
    let proxy = FaultProxy::start(upstream).unwrap();
    manifest[0].addrs[0] = proxy.local_addr().to_string();

    let remote = RemoteShardedSummary::connect_with(&manifest, fast_failover()).unwrap();
    let engine = QueryEngine::new(remote);
    let local_engine = QueryEngine::new(local);

    let req = QueryRequest::count(Predicate::new().eq(a(0), 1));
    let expected = local_engine.execute(&req).unwrap().encode();
    assert_eq!(engine.execute(&req).unwrap().encode(), expected);

    proxy.set_mode(FaultMode::CorruptResponses);
    // Every request variant answers correctly through the survivor.
    for req in requests() {
        let expected = local_engine.execute(&req).unwrap();
        let got = engine.execute(&req).unwrap();
        assert_eq!(got.encode(), expected.encode(), "{}", req.encode());
    }

    proxy.shutdown();
    for shard_handles in handles {
        for handle in shard_handles {
            handle.shutdown();
        }
    }
}

/// A deterministic server error line fails the call immediately: no
/// client-side re-send, no failover to the other replica — every replica
/// would compute the same error.
#[test]
fn deterministic_probe_errors_never_fail_over() {
    let local = sharded(1);
    let (handles, mut manifest) = serve_replicated(&local, 2);
    let upstream = manifest[0].addrs[0].parse().unwrap();
    let proxy = FaultProxy::start(upstream).unwrap();
    manifest[0].addrs[0] = proxy.local_addr().to_string();

    let remote = RemoteShardedSummary::connect_with(&manifest, fast_failover()).unwrap();
    let shard = &remote.shards()[0];
    let conns_before = proxy.connections_seen();

    // A mask whose arity exceeds the served schema's: the shard answers on
    // its deterministic error channel.
    let sizes = vec![4usize; 8];
    let bad = Mask::from_predicate(&Predicate::new().eq(a(7), 1), &sizes).unwrap();
    match probe_count(shard, &bad) {
        Err(ModelError::Remote(msg)) => {
            assert_eq!(msg.shard, Some(0), "{msg}");
            assert!(msg.to_string().contains("shard 0"), "{msg}");
        }
        other => panic!("expected a deterministic remote error, got {other:?}"),
    }

    // The error was not re-sent: no fresh dial happened through the proxy,
    // the answering replica took no breaker damage, and the healthy
    // replica was never consulted (its pool is untouched).
    assert_eq!(proxy.connections_seen(), conns_before);
    assert_eq!(shard.replicas()[0].consecutive_failures(), 0);
    assert_eq!(shard.replicas()[1].idle_conns(), 0);

    // The replica stays first in rotation: a good probe answers through
    // the proxy again, over the same transport — the error line was read
    // to its end, so the connection was still in step and went back to
    // the pool — and the other replica still sees no traffic.
    assert_eq!(shard.replicas()[0].idle_conns(), 1);
    let good = Mask::from_predicate(&Predicate::all(), local.domain_sizes()).unwrap();
    probe_count(shard, &good).unwrap();
    assert_eq!(proxy.connections_seen(), conns_before);
    assert_eq!(shard.replicas()[1].idle_conns(), 0);

    proxy.shutdown();
    for shard_handles in handles {
        for handle in shard_handles {
            handle.shutdown();
        }
    }
}

/// The circuit breaker opens after consecutive failures to a dead sole
/// replica, and the background re-handshake closes it again (probation)
/// once the node comes back — the cluster heals without operator action.
#[test]
fn breaker_opens_on_a_dead_node_and_rehandshake_heals_it() {
    let local = sharded(1);
    let (mut handles, manifest) = serve_replicated(&local, 1);
    let addr: std::net::SocketAddr = manifest[0].addrs[0].parse().unwrap();
    let mut remote = RemoteShardedSummary::connect_with(&manifest, fast_failover()).unwrap();
    let req = QueryRequest::count(Predicate::all());

    {
        let engine_probe = &remote.shards()[0];
        let sizes = local.domain_sizes().to_vec();
        let mask = Mask::from_predicate(&Predicate::all(), &sizes).unwrap();
        probe_count(engine_probe, &mask).unwrap();

        // Kill the only replica: the probe budget (2 attempts) is spent
        // and the failure surfaces as Degraded with the attempt trail.
        handles[0].remove(0).shutdown();
        match probe_count(engine_probe, &mask) {
            Err(ModelError::Degraded {
                shard: 0, detail, ..
            }) => {
                assert!(!detail.is_empty());
            }
            other => panic!("expected degraded shard, got {other:?}"),
        }
        // Two spent attempts on a threshold-3 breaker; one more call
        // opens it.
        let _ = probe_count(engine_probe, &mask);
        let replica = &engine_probe.replicas()[0];
        assert!(replica.consecutive_failures() >= 3);
        assert!(replica.breaker_open());
    }

    // Node comes back on the same address; the background re-handshake
    // (probation re-probe) closes the breaker and warms the pool.
    let revived = serve(QueryEngine::new(local.shards()[0].clone()), addr).unwrap();
    remote.start_rehandshake(Duration::from_millis(30));
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let replica = &remote.shards()[0].replicas()[0];
        if replica.consecutive_failures() == 0 && !replica.breaker_open() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "re-handshake never healed the replica"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // And the healed cluster answers again.
    QueryEngine::new(remote).execute(&req).unwrap();
    revived.shutdown();
}

/// A replica caught serving a *different blob* (here: a summary with the
/// wrong cardinality) is evicted by the background re-handshake: it can
/// never contribute an answer, so results stay bitwise-correct through
/// the true replica — and once every replica is gone, the failure names
/// the eviction.
#[test]
fn rehandshake_evicts_replica_serving_a_changed_blob() {
    let local = sharded(1);
    let (mut handles, manifest) = serve_replicated(&local, 2);
    let addr1: std::net::SocketAddr = manifest[0].addrs[1].parse().unwrap();
    let mut remote = RemoteShardedSummary::connect_with(&manifest, fast_failover()).unwrap();
    let local_engine = QueryEngine::new(local);

    // Replace replica 1's process with one serving a *different* summary
    // (n = 100 instead of the manifest's n) on the same address.
    handles[0].remove(1).shutdown();
    let wrong = demo::demo_summary(100, 1).unwrap().shards()[0].clone();
    let impostor = serve(QueryEngine::new(wrong), addr1).unwrap();

    remote.start_rehandshake(Duration::from_millis(30));
    let deadline = Instant::now() + Duration::from_secs(10);
    while !remote.shards()[0].replicas()[1].is_evicted() {
        assert!(
            Instant::now() < deadline,
            "re-handshake never evicted the changed blob"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Bitwise parity holds: the impostor is out of rotation.
    let engine = QueryEngine::new(remote);
    common::assert_bitwise_parity(&local_engine, &engine);

    impostor.shutdown();
    for shard_handles in handles {
        for handle in shard_handles {
            handle.shutdown();
        }
    }
}

/// An answer cache can never serve a stale answer across a blob swap: it
/// files answers under the cluster's generation, and the wrong-blob
/// eviction (here triggered by the background re-handshake catching an
/// impostor on the preferred replica's address) bumps it — every answer
/// filed from the old blob becomes unreachable the instant the swap is
/// detected, and the repeat routes to the surviving true replica with a
/// bitwise-identical result.
#[test]
fn blob_swap_orphans_cached_answers_before_they_can_go_stale() {
    let local = sharded(1);
    let (mut handles, manifest) = serve_replicated(&local, 2);
    let addr0: std::net::SocketAddr = manifest[0].addrs[0].parse().unwrap();
    let mut remote = RemoteShardedSummary::connect_with(&manifest, fast_failover()).unwrap();
    remote.start_rehandshake(Duration::from_millis(30));
    let engine = QueryEngine::new(remote).with_answer_cache(1 << 12);
    let generation_before = engine.backend().generation();

    // Warm the cache through the preferred replica, then prove the
    // repeat is a hit.
    let count = QueryRequest::count(Predicate::new().eq(a(0), 1));
    let healthy = engine.execute(&count).unwrap().encode();
    assert_eq!(engine.execute(&count).unwrap().encode(), healthy);
    let warm = engine.cache_stats().unwrap();
    assert_eq!((warm.hits, warm.misses), (1, 1), "the repeat is a hit");

    // Swap the preferred replica's blob: kill it and start an impostor
    // serving a different summary on the same address.
    handles[0].remove(0).shutdown();
    let wrong = demo::demo_summary(100, 1).unwrap().shards()[0].clone();
    let impostor = serve(QueryEngine::new(wrong), addr0).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !engine.backend().shards()[0].replicas()[0].is_evicted() {
        assert!(
            Instant::now() < deadline,
            "re-handshake never evicted the changed blob"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        engine.backend().generation() > generation_before,
        "wrong-blob eviction must move the cluster's generation"
    );

    // Every answer filed before the swap is orphaned: the same request
    // misses again and is re-fetched through the surviving true replica —
    // still bitwise the healthy answer, never the impostor's.
    assert_eq!(engine.execute(&count).unwrap().encode(), healthy);
    let after = engine.cache_stats().unwrap();
    assert_eq!(
        (after.hits, after.misses),
        (1, 2),
        "a pre-swap entry must not answer after the generation moved"
    );

    // Full-workload parity with the cache still enabled.
    let local_engine = QueryEngine::new(local);
    common::assert_bitwise_parity(&local_engine, &engine);

    impostor.shutdown();
    for shard_handles in handles {
        for handle in shard_handles {
            handle.shutdown();
        }
    }
}

/// A pooled connection that dies because its node was *replaced on the
/// same address* must not be transparently re-dialed: the retry goes
/// through the shard handshake, so the impostor is evicted on the query
/// path itself (no re-handshake thread here) and the answer comes from
/// the true replica — never, not even once, from the new blob.
#[test]
fn a_dead_pooled_connection_is_retried_through_the_handshake() {
    let local = sharded(1);
    let (mut handles, manifest) = serve_replicated(&local, 2);
    let addr0: std::net::SocketAddr = manifest[0].addrs[0].parse().unwrap();
    let remote = RemoteShardedSummary::connect_with(&manifest, fast_failover()).unwrap();
    let engine = QueryEngine::new(remote).with_answer_cache(1 << 12);
    let local_engine = QueryEngine::new(local);

    // Warm replica 0's pool (it is preferred and answers).
    let warm = QueryRequest::count(Predicate::new().eq(a(0), 1));
    let expected = local_engine.execute(&warm).unwrap().encode();
    assert_eq!(engine.execute(&warm).unwrap().encode(), expected);
    let shard = &engine.backend().shards()[0];
    assert_eq!(shard.replicas()[0].idle_conns(), 1);
    let generation_before = shard.blob_generation();

    // Replace the node behind the pooled connection: same address, same
    // schema, different cardinality.
    handles[0].remove(0).shutdown();
    let wrong = demo::demo_summary(100, 1).unwrap().shards()[0].clone();
    let impostor = serve(QueryEngine::new(wrong), addr0).unwrap();

    // A query the answer cache has not seen: it must cross the wire.
    let req = QueryRequest::count(Predicate::new().eq(a(0), 2));
    let expected = local_engine.execute(&req).unwrap().encode();
    assert_eq!(engine.execute(&req).unwrap().encode(), expected);
    assert!(shard.replicas()[0].is_evicted(), "the impostor is evicted");
    assert_eq!(shard.replicas()[0].consecutive_failures(), 0);
    assert!(shard.blob_generation() > generation_before);
    common::assert_bitwise_parity(&local_engine, &engine);

    impostor.shutdown();
    for shard_handles in handles {
        for handle in shard_handles {
            handle.shutdown();
        }
    }
}

/// The two-pass probe path writes every shard's frames before it reads a
/// reply. A shard whose only pooled connection dies between the passes —
/// the proxy takes the request and closes, so the write succeeds and the
/// read meets a dead transport — is answered by the failover loop through
/// its other replica: the answer is the healthy one, the written-to
/// connection is dropped rather than pooled, the sibling shards' replies
/// are still read to the end (their connections go back in step), and the
/// queries that follow are correct.
#[test]
fn a_connection_killed_between_write_and_read_is_dropped_not_pooled() {
    let local = sharded(3);
    let (handles, mut manifest) = serve_replicated(&local, 2);
    let upstream = manifest[1].addrs[0].parse().unwrap();
    let proxy = FaultProxy::start(upstream).unwrap();
    manifest[1].addrs[0] = proxy.local_addr().to_string();
    let remote = RemoteShardedSummary::connect_with(&manifest, fast_failover()).unwrap();
    let engine = QueryEngine::new(remote);
    let local_engine = QueryEngine::new(local);
    let idle = |engine: &QueryEngine<RemoteShardedSummary>| -> Vec<Vec<usize>> {
        let replicas = |s: &RemoteShard| s.replicas().iter().map(|r| r.idle_conns()).collect();
        engine.backend().shards().iter().map(replicas).collect()
    };
    // The handshake connections seeded one pool per shard: replica 0's.
    assert_eq!(idle(&engine), [[1, 0], [1, 0], [1, 0]]);

    proxy.set_mode(FaultMode::SeverOnRequest);
    let dials_before = proxy.connections_seen();
    let req = QueryRequest::count(Predicate::new().eq(a(0), 1));
    let expected = local_engine.execute(&req).unwrap().encode();
    assert_eq!(engine.execute(&req).unwrap().encode(), expected);
    // Shard 1 re-dialed its replica 0 once (the handshake died the same
    // way) and answered through replica 1; nothing half-read was pooled.
    assert_eq!(proxy.connections_seen(), dials_before + 1);
    assert_eq!(idle(&engine), [[1, 0], [0, 1], [1, 0]]);
    // Every pooled transport is in step: the whole harness (whose batches
    // run side by side and may pool more connections) stays bitwise.
    common::assert_bitwise_parity(&local_engine, &engine);
    assert_eq!(idle(&engine)[1][0], 0, "the severed replica pooled nothing");

    // A deterministic `c1 err` to the first of three pipelined frames (its
    // first mask has one attribute too many) fails the call with two
    // replies unread: that connection is out of step and is dropped.
    let arity = engine.backend().schema().arity();
    let mut masks = vec![Mask::identity(arity); 70];
    masks[0] = Mask::identity(arity + 1);
    let shard = &engine.backend().shards()[0];
    let pooled = shard.idle_conns();
    match shard.probe(&ProbeRequest::CountMany { masks }, &mut ()) {
        Err(ModelError::Remote(msg)) => assert_eq!(msg.shard, Some(0), "{msg}"),
        other => panic!("expected a deterministic remote error, got {other:?}"),
    }
    assert_eq!(shard.idle_conns(), pooled - 1);
    common::assert_bitwise_parity(&local_engine, &engine);

    proxy.shutdown();
    for shard_handles in handles {
        for handle in shard_handles {
            handle.shutdown();
        }
    }
}

/// A deterministic refusal read to its end costs no connection: a gateway
/// over an immutable cluster refuses 100 appends on the one connection its
/// handshake dialed to the delta owner.
#[test]
fn refused_appends_through_a_gateway_dial_once() {
    let local = sharded(2);
    let (handles, manifest) = common::serve_shards(&local);
    let remote = RemoteShardedSummary::connect_with(&manifest, fast_failover()).unwrap();
    let gateway = serve(QueryEngine::new(remote), "127.0.0.1:0").unwrap();
    let dials = || handles[0].stats().accepted_total;
    assert_eq!(dials(), 1, "the connect handshake");

    let mut client = Client::connect(gateway.local_addr()).unwrap();
    let row = vec![0; local.schema().arity()];
    for i in 0..100 {
        match client.append(std::slice::from_ref(&row), None) {
            Err(ClientError::Model(ModelError::Remote(msg))) => {
                assert!(msg.to_string().contains("shard 0"), "{msg}");
            }
            other => panic!("append {i}: expected a refusal, got {other:?}"),
        }
    }
    assert_eq!(dials(), 1, "a refused append re-dialed its shard");

    client.quit();
    gateway.shutdown();
    for handle in handles {
        handle.shutdown();
    }
}

/// Satellite: sessions idle past the configured deadline are closed
/// cleanly (the thread exits and deregisters), and a well-behaved client
/// transparently reconnects on its next query.
#[test]
fn idle_sessions_are_reaped_and_clients_reconnect() {
    let local = sharded(1);
    let config = ServerConfig {
        idle_timeout: Some(Duration::from_millis(150)),
        max_sessions: None,
    };
    let handle = serve_with(
        QueryEngine::new(local.shards()[0].clone()),
        "127.0.0.1:0",
        config,
    )
    .unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let req = QueryRequest::count(Predicate::all());
    let expected = client.execute(&req).unwrap();
    assert_eq!(handle.active_sessions(), 1);

    // Stay silent past the idle deadline: the server reaps the session.
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.active_sessions() != 0 {
        assert!(Instant::now() < deadline, "idle session never reaped");
        std::thread::sleep(Duration::from_millis(20));
    }

    // The client's next call rides the broken-transport reconnect and
    // succeeds — an idle reap is invisible to a live client.
    let again = client.execute(&req).unwrap();
    assert_eq!(again.encode(), expected.encode());
    assert_eq!(handle.active_sessions(), 1);
    client.quit();
    handle.shutdown();
}

/// Satellite: connections over the session cap are answered with one
/// typed `busy` line and closed — surfaced client-side as
/// [`ModelError::Busy`], never as a hang or a silent drop.
#[test]
fn session_cap_sheds_load_with_a_typed_busy_line() {
    let local = sharded(1);
    let config = ServerConfig {
        idle_timeout: None,
        max_sessions: Some(1),
    };
    let handle = serve_with(
        QueryEngine::new(local.shards()[0].clone()),
        "127.0.0.1:0",
        config,
    )
    .unwrap();
    let mut first = Client::connect(handle.local_addr()).unwrap();
    first.ping().unwrap();
    assert_eq!(handle.active_sessions(), 1);

    let req = QueryRequest::count(Predicate::all());
    let mut second = Client::connect(handle.local_addr()).unwrap();
    match second.execute(&req) {
        Err(ClientError::Model(ModelError::Busy(msg))) => {
            assert!(msg.contains("session capacity"), "{msg}")
        }
        other => panic!("expected a typed busy rejection, got {other:?}"),
    }

    // Capacity frees up when the first session ends; new sessions are
    // admitted again.
    first.quit();
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.active_sessions() != 0 {
        assert!(Instant::now() < deadline, "session never deregistered");
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut third = Client::connect(handle.local_addr()).unwrap();
    third.execute(&req).unwrap();
    third.quit();
    handle.shutdown();
}

/// A replica at its session cap answers the handshake's `ping` with a busy
/// line: the gatherer connects through the other replica, and the shed
/// replica gets no breaker count — it is alive, only full.
#[test]
fn a_busy_replica_at_the_handshake_does_not_count_toward_its_breaker() {
    let local = sharded(1);
    let shard = local.shards()[0].clone();
    let config = ServerConfig {
        idle_timeout: None,
        max_sessions: Some(1),
    };
    let full = serve_with(QueryEngine::new(shard.clone()), "127.0.0.1:0", config).unwrap();
    let spare = serve(QueryEngine::new(shard.clone()), "127.0.0.1:0").unwrap();
    let mut holder = Client::connect(full.local_addr()).unwrap();
    holder.ping().unwrap();

    match Client::connect(full.local_addr()).unwrap().ping() {
        Err(ClientError::Model(ModelError::Busy(msg))) => {
            assert!(msg.contains("session capacity"), "{msg}")
        }
        other => panic!("expected a typed busy ping reply, got {other:?}"),
    }

    let manifest = vec![serialize::ClusterShard {
        index: 0,
        n: shard.n(),
        addrs: vec![
            full.local_addr().to_string(),
            spare.local_addr().to_string(),
        ],
    }];
    let remote = RemoteShardedSummary::connect_with(&manifest, fast_failover()).unwrap();
    let replicas = remote.shards()[0].replicas();
    assert_eq!(replicas[0].consecutive_failures(), 0);
    assert_eq!(replicas[1].idle_conns(), 1, "the spare replica verified");
    holder.quit();
    full.shutdown();
    spare.shutdown();
}

/// Satellite: a bare client's socket deadline cuts off a server that
/// accepts but never answers, and the deadline expiry is *not* blindly
/// retried (the error surfaces).
#[test]
fn hung_server_trips_the_client_read_deadline() {
    // A listener that accepts and never answers.
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let done = Arc::new(AtomicBool::new(false));
    let accepter = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            // Hold accepted sockets open (the hang) until the test ends.
            let mut held = Vec::new();
            listener.set_nonblocking(true).unwrap();
            let deadline = Instant::now() + Duration::from_secs(30);
            while !done.load(Ordering::SeqCst) && Instant::now() < deadline {
                if let Ok((stream, _)) = listener.accept() {
                    held.push(stream);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };

    let config = ClientConfig {
        connect_timeout: Some(Duration::from_secs(2)),
        read_timeout: Some(Duration::from_millis(200)),
        write_timeout: Some(Duration::from_millis(200)),
    };
    let mut client = Client::connect_with(addr, config).unwrap();
    let start = Instant::now();
    match client.execute(&QueryRequest::count(Predicate::all())) {
        Err(ClientError::Io(e)) => {
            assert!(
                matches!(
                    e.kind(),
                    std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
                ),
                "{e:?}"
            );
        }
        other => panic!("expected a deadline expiry, got {other:?}"),
    }
    let elapsed = start.elapsed();
    assert!(elapsed >= Duration::from_millis(150), "{elapsed:?}");
    assert!(elapsed < Duration::from_secs(5), "{elapsed:?}");
    drop(client);
    done.store(true, Ordering::SeqCst);
    accepter.join().unwrap();
}

/// The spawn control channel end to end: a replicated multi-process
/// cluster, a rolling restart through `entropydb-cluster restart` (one
/// replica drained and respawned at a time — every shard keeps a live
/// replica throughout), and bitwise parity over the rewritten manifest
/// afterwards.
#[test]
fn rolling_restart_over_the_control_channel() {
    use std::process::{Command, Stdio};

    /// Kills and reaps the spawn process if the test panics early.
    struct ChildGuard(Option<std::process::Child>);
    impl Drop for ChildGuard {
        fn drop(&mut self) {
            if let Some(mut child) = self.0.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }

    let dir = std::env::temp_dir().join(format!("entropydb-restart-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let local = sharded(2);
    let blob = dir.join("sharded");
    serialize::save_sharded_dir(&local, &blob).unwrap();
    let manifest_path = dir.join("cluster.manifest");
    let control_path = dir.join("control.addr");

    let child = Command::new(env!("CARGO_BIN_EXE_entropydb-cluster"))
        .arg("spawn")
        .arg(&blob)
        .args(["--base-port", "0", "--replicas", "2"])
        .arg("--manifest")
        .arg(&manifest_path)
        .arg("--control-file")
        .arg(&control_path)
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn entropydb-cluster");
    let mut guard = ChildGuard(Some(child));

    // Wait for the manifest and control file, then for every replica to
    // accept connections.
    let deadline = Instant::now() + Duration::from_secs(30);
    let manifest = loop {
        assert!(Instant::now() < deadline, "cluster never came up");
        if control_path.exists() {
            if let Ok(manifest) = serialize::load_cluster_manifest(&manifest_path) {
                if manifest.len() == 2
                    && manifest.iter().all(|s| {
                        s.addrs.len() == 2
                            && s.addrs
                                .iter()
                                .all(|a| std::net::TcpStream::connect(a.as_str()).is_ok())
                    })
                {
                    break manifest;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    };

    let local_engine = QueryEngine::new(local);
    let remote = RemoteShardedSummary::connect_with(&manifest, fast_failover()).unwrap();
    let engine = QueryEngine::new(remote);
    common::assert_bitwise_parity(&local_engine, &engine);

    // Rolling restart through the control channel.
    let output = Command::new(env!("CARGO_BIN_EXE_entropydb-cluster"))
        .arg("restart")
        .arg(&control_path)
        .output()
        .expect("run restart");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "restart failed: {stdout} {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.contains("restarted shard 0 replica 0"), "{stdout}");
    assert!(stdout.contains("restarted shard 1 replica 1"), "{stdout}");
    assert!(stdout.contains("rolling restart complete"), "{stdout}");

    // The (possibly rewritten) manifest reconnects and parity holds over
    // the restarted cluster.
    let manifest_after = serialize::load_cluster_manifest(&manifest_path).unwrap();
    let remote_after =
        RemoteShardedSummary::connect_with(&manifest_after, fast_failover()).unwrap();
    common::assert_bitwise_parity(&local_engine, &QueryEngine::new(remote_after));

    // If every replica kept its address (same-port rebind succeeded), the
    // pre-restart gateway must still be answering bitwise-correctly too.
    let addrs = |m: &[serialize::ClusterShard]| -> Vec<Vec<String>> {
        m.iter().map(|s| s.addrs.clone()).collect()
    };
    if addrs(&manifest) == addrs(&manifest_after) {
        common::assert_bitwise_parity(&local_engine, &engine);
    }

    // Shut the cluster down through the control channel and reap it.
    {
        use std::io::{BufRead, BufReader, Write};
        let control_addr = std::fs::read_to_string(&control_path).unwrap();
        let mut stream = std::net::TcpStream::connect(control_addr.trim()).unwrap();
        stream.write_all(b"quit\n").unwrap();
        stream.flush().unwrap();
        let mut reply = String::new();
        BufReader::new(&stream).read_line(&mut reply).unwrap();
        assert_eq!(reply.trim(), "ok");
    }
    let mut child = guard.0.take().unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match child.try_wait() {
            Ok(Some(status)) => {
                assert!(status.success(), "spawn exited with {status}");
                break;
            }
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            _ => {
                let _ = child.kill();
                child.wait().unwrap();
                panic!("spawn did not exit after control quit");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
