//! Cluster serving benchmarks: interactive query latency through the
//! remote scatter/gather backend (in-process shard servers over real TCP
//! loopback) against the local sharded backend, and the **failover
//! recovery latency** — how long the gatherer takes to answer its first
//! query after the preferred replica of every shard is killed.
//!
//! `BENCH_cluster.json` records group `cluster_query` (local backend vs
//! remote at one and two replicas per shard), the `remote_1_replica_ns`
//! metric — the mean fresh point query through two served shards, held
//! under an absolute ceiling by `bench_schema.json`: one write pass and one
//! read pass, not a round trip per shard — plus the `failover_recovery_ns`
//! metric, measured once end to end: kill the warm replicas, then time the
//! next query to a bitwise-identical answer through the survivors.

use criterion::{criterion_group, criterion_main, Criterion};
use entropydb_bench::report::mean_call_ns;
use entropydb_core::engine::QueryEngine;
use entropydb_core::plan::QueryRequest;
use entropydb_core::serialize::ClusterShard;
use entropydb_core::sharded::ShardedSummary;
use entropydb_server::{demo, serve, FailoverConfig, RemoteShardedSummary, ServerHandle};
use entropydb_storage::{AttrId, Predicate};
use std::hint::black_box;
use std::time::Duration;

const ROWS: usize = 240;
const SHARDS: usize = 2;

/// Failover policy tightened for the bench: localhost dials fail fast, so
/// the recovery metric measures the gatherer's classification + failover
/// machinery rather than multi-second production socket deadlines.
fn bench_failover() -> FailoverConfig {
    FailoverConfig {
        connect_timeout: Some(Duration::from_millis(500)),
        probe_timeout: Some(Duration::from_secs(2)),
    }
}

/// Serves every shard from `replicas` in-process servers and returns the
/// handles per shard plus the v2 manifest.
fn serve_replicated(
    summary: &ShardedSummary,
    replicas: usize,
) -> (Vec<Vec<ServerHandle>>, Vec<ClusterShard>) {
    let mut handles = Vec::new();
    let mut manifest = Vec::new();
    for (i, shard) in summary.shards().iter().enumerate() {
        let mut shard_handles = Vec::new();
        let mut addrs = Vec::new();
        for _ in 0..replicas {
            let handle = serve(QueryEngine::new(shard.clone()), "127.0.0.1:0").expect("serve");
            addrs.push(handle.local_addr().to_string());
            shard_handles.push(handle);
        }
        manifest.push(ClusterShard {
            index: i,
            n: shard.n(),
            addrs,
        });
        handles.push(shard_handles);
    }
    (handles, manifest)
}

fn shutdown(handles: Vec<Vec<ServerHandle>>) {
    for shard_handles in handles {
        for handle in shard_handles {
            handle.shutdown();
        }
    }
}

fn bench_cluster_query(c: &mut Criterion) {
    let local = demo::demo_summary(ROWS, SHARDS).expect("demo summary");
    let req = QueryRequest::count(Predicate::new().eq(AttrId(0), 1));

    let local_engine = QueryEngine::new(local.clone());
    let (handles_1, manifest_1) = serve_replicated(&local, 1);
    let remote_1 = QueryEngine::new(
        RemoteShardedSummary::connect_with(&manifest_1, bench_failover()).expect("connect"),
    );
    let (handles_2, manifest_2) = serve_replicated(&local, 2);
    let remote_2 = QueryEngine::new(
        RemoteShardedSummary::connect_with(&manifest_2, bench_failover()).expect("connect"),
    );

    let mut g = c.benchmark_group("cluster_query");
    g.bench_function("local_sharded", |b| {
        b.iter(|| local_engine.execute(black_box(&req)).expect("query"))
    });
    g.bench_function("remote_1_replica", |b| {
        b.iter(|| remote_1.execute(black_box(&req)).expect("query"))
    });
    g.bench_function("remote_2_replicas", |b| {
        b.iter(|| remote_2.execute(black_box(&req)).expect("query"))
    });
    g.finish();
    c.record_metric(
        "cluster_query",
        "remote_1_replica_ns",
        mean_call_ns(2_000, || {
            black_box(remote_1.execute(black_box(&req)).expect("query"));
        }),
    );

    // Failover recovery latency, measured once end to end: with the
    // 2-replica gatherer warm on its preferred replicas, kill replica 0 of
    // every shard and time the next query until its (bitwise-identical)
    // answer arrives through the survivors.
    let expected = local_engine.execute(&req).expect("query").encode();
    let mut handles_2 = handles_2;
    let victims: Vec<ServerHandle> = handles_2.iter_mut().map(|h| h.remove(0)).collect();
    for victim in victims {
        victim.shutdown();
    }
    let t0 = std::time::Instant::now();
    let recovered = remote_2.execute(&req).expect("failover query");
    let recovery_ns = t0.elapsed().as_nanos() as f64;
    assert_eq!(recovered.encode(), expected, "failover changed the answer");
    c.record_metric("cluster_query", "failover_recovery_ns", recovery_ns);

    shutdown(handles_1);
    shutdown(handles_2);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(4)).warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_cluster_query
}
criterion_main!(benches);
