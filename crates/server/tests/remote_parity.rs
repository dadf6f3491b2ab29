//! The remote scatter/gather backend against in-process shard servers:
//! bitwise parity with the local sharded backend on every query variant,
//! handshake validation, degraded-shard failure modes, and transport
//! reconnects.

mod common;
#[path = "../../core/tests/support/probes.rs"]
mod probes;

use common::{a, fast_failover, requests, serve_shards, sharded};
use entropydb_core::engine::{QueryEngine, SummaryBackend};
use entropydb_core::error::ModelError;
use entropydb_core::ingest::{IngestConfig, LiveSummary};
use entropydb_core::plan::QueryRequest;
use entropydb_core::serialize::ClusterShard;
use entropydb_core::solver::SolverConfig;
use entropydb_server::{serve, Client, FailoverConfig, RemoteShardedSummary};
use entropydb_storage::Predicate;

/// Remote scatter/gather answers every request variant bitwise-identically
/// to the local sharded backend over the same shard models — at 1, 3, and
/// 4 shards (1 exercises the no-merge path, 4 the merged-group-by top-k
/// and stratified sampling).
#[test]
fn remote_cluster_matches_local_sharded_bitwise() {
    for shards in [1usize, 3, 4] {
        let local = sharded(shards);
        let (handles, manifest) = serve_shards(&local);
        let remote = RemoteShardedSummary::connect(&manifest).unwrap();
        assert_eq!(remote.num_shards(), local.num_shards());
        assert_eq!(remote.schema(), local.schema());

        let local_engine = QueryEngine::new(local);
        let remote_engine = QueryEngine::new(remote);
        common::assert_bitwise_parity(&local_engine, &remote_engine);

        for handle in handles {
            handle.shutdown();
        }
    }
}

/// Top-k over the wire is the merged group-by ranked once: the value that
/// is below `k = 1` on every shard yet first overall wins, with the exact
/// merged count, uncached and cached, bitwise equal to in-process.
#[test]
fn remote_top_k_finds_a_winner_that_is_below_k_on_every_shard() {
    let local = common::two_shards_hiding_the_winner();
    let (handles, manifest) = serve_shards(&local);
    let plain = RemoteShardedSummary::connect(&manifest).unwrap();
    let mut cached = RemoteShardedSummary::connect(&manifest).unwrap();
    cached.enable_probe_cache(64);
    let req = QueryRequest::top_k(Predicate::all(), a(0), 1);
    let expected = QueryEngine::new(local).execute(&req).unwrap();
    for remote in [plain, cached] {
        let engine = QueryEngine::new(remote);
        for pass in ["cold", "warm"] {
            let got = engine.execute(&req).unwrap();
            assert_eq!(got.encode(), expected.encode(), "{pass}");
            let ranked = got.ranked().unwrap();
            assert_eq!((ranked.len(), ranked[0].0), (1, 2), "{pass}: v wins");
            assert!((ranked[0].1.expectation - 18.0).abs() < 1e-6, "{pass}");
        }
    }
    for handle in handles {
        handle.shutdown();
    }
}

/// A gateway node — the remote backend served over the ordinary protocol —
/// still answers bitwise-identically (two wire hops, one merge), and under
/// load: 32 concurrent sessions, half pipelined and half dribbled
/// byte-at-a-time, each read back the very reply stream the local sharded
/// backend served directly gives.
#[test]
fn gateway_round_trip_stays_bitwise() {
    let local = sharded(3);
    let (handles, manifest) = serve_shards(&local);
    let remote = RemoteShardedSummary::connect(&manifest).unwrap();
    let gateway = serve(QueryEngine::new(remote), "127.0.0.1:0").unwrap();

    let mut client = Client::connect(gateway.local_addr()).unwrap();
    let direct = serve(QueryEngine::new(local.clone()), "127.0.0.1:0").unwrap();
    let local_engine = QueryEngine::new(local);
    for req in requests() {
        let expected = local_engine.execute(&req).unwrap();
        let got = client.execute(&req).unwrap();
        assert_eq!(got.encode(), expected.encode(), "{}", req.encode());
    }
    client.quit();

    let expected = common::transcript(direct.local_addr(), false);
    assert!(expected.starts_with(b"pong\n") && expected.ends_with(b"pong\n"));
    let sessions = common::concurrent_transcripts(gateway.local_addr(), 32);
    for (conn, got) in sessions.iter().enumerate() {
        assert!(
            *got == expected,
            "gateway connection {conn} (dribbled: {}) differs from the direct reply stream",
            conn % 2 == 1
        );
    }
    direct.shutdown();
    gateway.shutdown();
    for handle in handles {
        handle.shutdown();
    }
}

/// The one probe table — every `ProbeRequest` variant — answers bitwise
/// identically on the k-shard sharded backend, a live summary over those k
/// base shards, and the remote backend over k served shards; the remote
/// batch probes (`probm`/`countm`, 40 masks: two pipelined frames per
/// shard) equal the per-mask loop; and a sparse draw through the remote
/// engine equals those rows of the full one.
#[test]
fn probe_table_is_bitwise_on_sharded_live_and_remote() {
    for shards in [1usize, 3] {
        let local = sharded(shards);
        let (handles, manifest) = serve_shards(&local);
        let remote = RemoteShardedSummary::connect(&manifest).unwrap();
        let config = IngestConfig {
            background: false,
            ..IngestConfig::default()
        };
        let live =
            LiveSummary::new(local.clone(), vec![], SolverConfig::default(), config).unwrap();
        probes::assert_probe_parity(&local, &remote);
        probes::assert_probe_parity(&live, &remote);

        let masks = probes::batch_masks(local.domain_sizes());
        assert_eq!(
            probes::batched_answers(&remote, &masks),
            probes::per_mask_answers(&remote, &masks)
        );
        probes::assert_sparse_sample_matches_full_draw(&QueryEngine::new(remote));

        for handle in handles {
            handle.shutdown();
        }
    }
}

/// Range-partitioned shards behind the wire: each remote shard learned its
/// support in the handshake, so the gatherer prunes — every shard, by masks
/// that are not all zeros — and nobody can tell (see
/// `probes::assert_pruning_is_invisible`); the cluster still equals the
/// local mixture and a live summary over the same shards on the whole probe
/// table, uncached and through a cold and a warm gather cache.
#[test]
fn range_partitioned_cluster_prunes_and_stays_bitwise() {
    use entropydb_core::sharded::ShardedSummary;
    let (table, partitioning, multi) = probes::range_fixture();
    let local =
        ShardedSummary::build(&table, &partitioning, multi.clone(), &Default::default()).unwrap();
    let (handles, manifest) = serve_shards(&local);
    let remote = RemoteShardedSummary::connect(&manifest).unwrap();
    let pruned = probes::assert_pruning_is_invisible(remote.shards(), local.domain_sizes());
    let unsatisfiable = probes::batch_masks(local.domain_sizes())[3].clone();
    for shard in 0..local.num_shards() {
        let real = |(s, mask): &(usize, _)| *s == shard && *mask != unsatisfiable;
        assert!(pruned.iter().any(real), "shard {shard} is never pruned");
    }
    let config = IngestConfig {
        background: false,
        ..IngestConfig::default()
    };
    let live = LiveSummary::new(local.clone(), multi, SolverConfig::default(), config).unwrap();
    let mut cached = RemoteShardedSummary::connect(&manifest).unwrap();
    cached.enable_probe_cache(1 << 12);
    probes::assert_probe_parity(&local, &remote);
    probes::assert_probe_parity(&live, &remote);
    probes::assert_probe_parity(&local, &cached);
    probes::assert_probe_parity(&local, &cached);
    let masks = probes::batch_masks(local.domain_sizes());
    assert_eq!(
        probes::batched_answers(&remote, &masks),
        probes::per_mask_answers(&remote, &masks)
    );
    for handle in handles {
        handle.shutdown();
    }
}

/// With the gather-side probe cache enabled, the remote backend answers
/// every request variant bitwise-identically to the local sharded backend
/// — on a cold cache, and again on a warm cache where repeats are served
/// without touching the wire. At 1 shard the no-merge bypass runs under
/// the cache; at 4 the merge and the batched paths do.
#[test]
fn cached_remote_cluster_stays_bitwise_cold_and_warm() {
    for shards in [1usize, 4] {
        let local = sharded(shards);
        let (handles, manifest) = serve_shards(&local);
        let mut remote = RemoteShardedSummary::connect(&manifest).unwrap();
        remote.enable_probe_cache(1 << 12);
        let cache = std::sync::Arc::clone(remote.probe_cache().unwrap());

        let local_engine = QueryEngine::new(local);
        let remote_engine = QueryEngine::new(remote);
        common::assert_bitwise_parity(&local_engine, &remote_engine);
        let cold = cache.snapshot();
        assert!(cold.misses > 0, "cold pass must populate the cache");

        common::assert_bitwise_parity(&local_engine, &remote_engine);
        let warm = cache.snapshot();
        assert!(
            warm.hits > cold.hits,
            "warm pass must hit the cache ({warm:?} after {cold:?})"
        );
        assert_eq!(remote_engine.cache_stats(), Some(warm));

        for handle in handles {
            handle.shutdown();
        }
    }
}

/// The local sharded backend with a probe cache stays bitwise-identical
/// to its uncached self on every request variant, cold and warm — the
/// all-cached fast path and the fan-out run the one merge.
#[test]
fn cached_local_sharded_stays_bitwise_cold_and_warm() {
    for shards in [1usize, 4] {
        let plain_engine = QueryEngine::new(sharded(shards));
        let cached_engine = QueryEngine::new(sharded(shards).with_probe_cache(1 << 12));
        common::assert_bitwise_parity(&plain_engine, &cached_engine);
        let cold = cached_engine.cache_stats().unwrap();
        assert!(cold.misses > 0, "cold pass must populate the cache");
        common::assert_bitwise_parity(&plain_engine, &cached_engine);
        let warm = cached_engine.cache_stats().unwrap();
        assert!(warm.hits > cold.hits, "warm pass must hit the cache");
        assert_eq!(plain_engine.cache_stats(), None);
    }
}

/// The `stats` session line: a gateway over a cached remote backend
/// reports live cache counters to any client; a plain shard server (no
/// cache to speak of) answers `stats cache none`.
#[test]
fn stats_line_reports_gateway_cache_counters() {
    let local = sharded(2);
    let (handles, manifest) = serve_shards(&local);
    let mut remote = RemoteShardedSummary::connect(&manifest).unwrap();
    remote.enable_probe_cache(1 << 10);
    let gateway = serve(QueryEngine::new(remote), "127.0.0.1:0").unwrap();

    let mut client = Client::connect(gateway.local_addr()).unwrap();
    let idle = client.cache_stats().unwrap().expect("gateway has a cache");
    assert_eq!(idle.hits + idle.misses + idle.coalesced, 0);

    let req = QueryRequest::count(Predicate::new().eq(a(0), 1));
    client.execute(&req).unwrap();
    client.execute(&req).unwrap();
    let warm = client.cache_stats().unwrap().expect("gateway has a cache");
    assert!(warm.misses > 0, "first execution misses");
    assert!(warm.hits > 0, "repeat execution hits");
    client.quit();
    gateway.shutdown();

    // A plain shard node has no gather-side cache.
    let mut shard_client = Client::connect(manifest[0].addrs[0].as_str()).unwrap();
    assert_eq!(shard_client.cache_stats().unwrap(), None);
    shard_client.quit();
    for handle in handles {
        handle.shutdown();
    }
}

/// The connect handshake rejects a manifest whose cardinality does not
/// match what the node actually serves, naming the shard.
#[test]
fn handshake_rejects_wrong_cardinality_and_dead_nodes() {
    let local = sharded(2);
    let (handles, mut manifest) = serve_shards(&local);

    manifest[1].n += 5;
    match RemoteShardedSummary::connect(&manifest) {
        Err(ModelError::Degraded { shard, detail, .. }) => {
            assert_eq!(shard, 1);
            assert!(detail.contains("manifest declares"), "{detail}");
        }
        other => panic!("expected named handshake failure, got {other:?}"),
    }
    manifest[1].n -= 5;

    // An invalid failover policy is refused before any dial.
    let zero_budget = FailoverConfig {
        attempts_per_replica: 0,
        ..fast_failover()
    };
    match RemoteShardedSummary::connect_with(&manifest, zero_budget) {
        Err(ModelError::InvalidConfig(_)) => {}
        other => panic!("expected an invalid-config error, got {other:?}"),
    }

    // A dead node fails the connect with its shard named.
    let dead = vec![ClusterShard::single(0, 1, "127.0.0.1:1")];
    match RemoteShardedSummary::connect(&dead) {
        Err(ModelError::Degraded { shard: 0, .. }) => {}
        other => panic!("expected named connect failure, got {other:?}"),
    }
    for handle in handles {
        handle.shutdown();
    }
}

/// Killing a sole-replica shard mid-stream surfaces per-request
/// `Degraded` errors naming the dead shard — batches return error lines
/// for every request instead of hanging, and healthy work before the kill
/// is unaffected. A request no shard can contribute to is put to shard 0
/// alone, so the dead shard cannot fail it: it keeps its healthy answer.
#[test]
fn killed_shard_mid_batch_returns_named_errors_not_a_hang() {
    let local = sharded(3);
    let (mut handles, manifest) = serve_shards(&local);
    let remote = RemoteShardedSummary::connect_with(&manifest, fast_failover()).unwrap();
    let engine = QueryEngine::new(remote);

    // Healthy cluster answers a full batch.
    let reqs = requests();
    let healthy: Vec<String> = engine
        .execute_batch(&reqs)
        .into_iter()
        .map(|outcome| outcome.unwrap().encode())
        .collect();
    let nowhere = QueryRequest::avg(Predicate::new().in_set(a(1), vec![]), a(2)).encode();

    // Kill shard 1 (server shutdown closes every session socket — the
    // wire-visible effect of a killed process), then run the batch again.
    handles.remove(1).shutdown();
    let outcomes = engine.execute_batch(&reqs);
    assert_eq!(outcomes.len(), reqs.len());
    for ((req, outcome), healthy) in reqs.iter().zip(outcomes).zip(healthy) {
        match outcome {
            Err(ModelError::Degraded { shard, .. }) => {
                assert_eq!(shard, 1, "{}", req.encode())
            }
            Ok(answer) if req.encode() == nowhere => assert_eq!(answer.encode(), healthy),
            other => panic!(
                "{}: expected a degraded-shard error, got {other:?}",
                req.encode()
            ),
        }
    }

    // The engine survives: single requests keep answering (with errors)
    // instead of wedging the scratch pool or the fan-out.
    match engine.execute(&QueryRequest::count(Predicate::all())) {
        Err(ModelError::Degraded { shard: 1, .. }) => {}
        other => panic!("expected a degraded-shard error, got {other:?}"),
    }
    for handle in handles {
        handle.shutdown();
    }
}

/// `Client` reconnect-on-broken-pipe: a server restart on the same address
/// breaks the pooled connection; the next call re-dials transparently and
/// succeeds. Exercised both on a bare `Client` and through the remote
/// backend's per-shard pools.
#[test]
fn client_reconnects_on_broken_pipe() {
    let summary = || {
        let s = sharded(1);
        s.shards()[0].clone()
    };

    // Bare client: execute, restart the server on the same port, execute
    // again — the second call must succeed via reconnect.
    let first = serve(QueryEngine::new(summary()), "127.0.0.1:0").unwrap();
    let addr = first.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let req = QueryRequest::count(Predicate::new().eq(a(0), 1));
    let before = client.execute(&req).unwrap();
    first.shutdown();
    let second = serve(QueryEngine::new(summary()), addr).unwrap();
    let after = client.execute(&req).unwrap();
    assert_eq!(after.encode(), before.encode());

    // Remote backend: its pooled shard connection broke with the restart
    // above; the next fan-out reconnects instead of failing.
    let manifest = vec![ClusterShard::single(0, summary().n(), addr.to_string())];
    let remote = RemoteShardedSummary::connect(&manifest).unwrap();
    let engine = QueryEngine::new(remote);
    let via_remote = engine.execute(&req).unwrap();
    assert_eq!(via_remote.encode(), before.encode());

    second.shutdown();
    let third = serve(QueryEngine::new(summary()), addr).unwrap();
    let after_restart = engine.execute(&req).unwrap();
    assert_eq!(after_restart.encode(), before.encode());
    third.shutdown();
    client.quit();
}

/// Probe admission: oversized sample probes answer on the error channel
/// instead of allocating unboundedly.
#[test]
fn oversized_probes_are_rejected_on_the_error_channel() {
    use entropydb_core::probe::ProbeRequest;
    let local = sharded(1);
    let handle = serve(QueryEngine::new(local.shards()[0].clone()), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let huge = ProbeRequest::SampleAt {
        k: usize::MAX,
        seed: 1,
        indices: vec![0],
    };
    match client.probe(&huge) {
        Err(entropydb_server::ClientError::Model(ModelError::Remote(msg))) => {
            assert!(msg.kind.contains("sample probe"), "{msg}")
        }
        other => panic!("expected probe rejection, got {other:?}"),
    }
    // The session survives the rejection.
    client.ping().unwrap();
    client.quit();
    handle.shutdown();
}
