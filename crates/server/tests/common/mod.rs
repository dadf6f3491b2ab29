//! Shared fixtures for the scatter/gather integration suites: a
//! deterministic relation, shard-server spawning, and the bitwise parity
//! harness comparing a remote cluster against the local sharded backend.

// Each test target compiles its own copy of this module and uses a
// different subset of the fixtures.
#![allow(dead_code)]

pub mod fault;

use entropydb_core::engine::{QueryEngine, SummaryBackend};
use entropydb_core::plan::QueryRequest;
use entropydb_core::serialize::ClusterShard;
use entropydb_core::sharded::ShardedSummary;
use entropydb_server::{demo, serve, FailoverConfig, ServerHandle};
use entropydb_storage::{AttrId, Predicate};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

pub fn a(i: usize) -> AttrId {
    AttrId(i)
}

/// A failover policy tightened for tests: short deadlines so dead-node
/// paths resolve in a fraction of a second instead of seconds.
pub fn fast_failover() -> FailoverConfig {
    FailoverConfig {
        connect_timeout: Some(Duration::from_millis(500)),
        probe_timeout: Some(Duration::from_secs(2)),
    }
}

/// The deterministic demo relation — the same generator `entropydb-cluster
/// make-demo` ships, so the fixtures and the walkthrough cannot drift.
pub fn sharded(num_shards: usize) -> ShardedSummary {
    demo::demo_summary(240, num_shards).unwrap()
}

/// The construction of `core/tests/sharded.rs`: one attribute with values
/// (a, b, v), shard A = a × 10 + v × 9, shard B = b × 10 + v × 9, 1-D
/// statistics only. `v` is below `k = 1` on both shards and first overall.
pub fn two_shards_hiding_the_winner() -> ShardedSummary {
    use entropydb_core::prelude::{MaxEntSummary, SolverConfig};
    use entropydb_storage::{Attribute, Schema, Table};
    let shard = |top: u32| {
        let schema = Schema::new(vec![
            Attribute::categorical("x", 3).unwrap(),
            Attribute::categorical("pad", 2).unwrap(),
        ]);
        let mut t = Table::new(schema);
        for i in 0..19u32 {
            t.push_row(&[if i < 10 { top } else { 2 }, i % 2]).unwrap();
        }
        MaxEntSummary::build(&t, vec![], &SolverConfig::default()).unwrap()
    };
    ShardedSummary::from_shards(vec![shard(0), shard(1)]).unwrap()
}

/// Serves every shard of `summary` on its own ephemeral localhost port
/// (one in-process server per shard — the same protocol surface as N
/// `entropydb-serve` processes) and returns the handles plus the cluster
/// manifest pointing at them.
pub fn serve_shards(summary: &ShardedSummary) -> (Vec<ServerHandle>, Vec<ClusterShard>) {
    let (handles, manifest) = serve_replicated(summary, 1);
    (handles.into_iter().flatten().collect(), manifest)
}

/// Serves every shard from `replicas` independent in-process servers
/// (each over its own clone of the shard model — the wire-visible shape
/// of a replicated cluster) and returns the handles per shard plus the
/// v2 manifest listing every replica.
pub fn serve_replicated(
    summary: &ShardedSummary,
    replicas: usize,
) -> (Vec<Vec<ServerHandle>>, Vec<ClusterShard>) {
    let mut handles = Vec::new();
    let mut manifest = Vec::new();
    for (i, shard) in summary.shards().iter().enumerate() {
        let mut shard_handles = Vec::new();
        let mut addrs = Vec::new();
        for _ in 0..replicas {
            let handle = serve(QueryEngine::new(shard.clone()), "127.0.0.1:0").unwrap();
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

/// Every `QueryRequest` variant, plus edge shapes (empty predicate,
/// explicit never, multi-clause predicates, a k larger than the domain).
pub fn requests() -> Vec<QueryRequest> {
    let pred = Predicate::new().eq(a(0), 1);
    let range = Predicate::new()
        .between(a(2), 1, 5)
        .in_set(a(1), vec![0, 2, 4]);
    let never = Predicate::new().in_set(a(1), vec![]);
    vec![
        QueryRequest::probability(pred.clone()),
        QueryRequest::probability(Predicate::all()),
        QueryRequest::count(pred.clone()),
        QueryRequest::count(range.clone()),
        QueryRequest::count(never.clone()),
        QueryRequest::sum(pred.clone(), a(2)),
        QueryRequest::sum(range.clone(), a(2)),
        QueryRequest::avg(pred.clone(), a(2)),
        QueryRequest::avg(never, a(2)),
        QueryRequest::group_by(pred.clone(), a(1)),
        QueryRequest::group_by(Predicate::all(), a(2)),
        QueryRequest::group_by2(range, a(0), a(1)),
        QueryRequest::top_k(Predicate::all(), a(1), 2),
        QueryRequest::top_k(pred, a(2), 3),
        QueryRequest::top_k(Predicate::all(), a(0), 99),
        QueryRequest::sample_rows(30, 7),
        QueryRequest::sample_rows(13, 12345),
    ]
}

/// Asserts that `remote` answers every request bitwise-identically to
/// `local`: responses are compared through their wire encodings, which use
/// shortest-round-trip float formatting — equal strings ⇔ equal bits.
pub fn assert_bitwise_parity<L, R>(local: &QueryEngine<L>, remote: &QueryEngine<R>)
where
    L: SummaryBackend,
    R: SummaryBackend,
{
    for req in requests() {
        let expected = local.execute(&req).unwrap();
        let got = remote.execute(&req).unwrap();
        assert_eq!(
            got.encode(),
            expected.encode(),
            "remote response differs for {}",
            req.encode()
        );
    }
    // The batch path must agree with the singles, element for element.
    let reqs = requests();
    let batched = remote.execute_batch(&reqs);
    assert_eq!(batched.len(), reqs.len());
    for (req, outcome) in reqs.iter().zip(batched) {
        let expected = local.execute(req).unwrap();
        assert_eq!(
            outcome.unwrap().encode(),
            expected.encode(),
            "batched remote response differs for {}",
            req.encode()
        );
    }
}

/// A deterministic pipelined session script exercising every reply shape:
/// commands, every request variant twice over (one pipelined batch), the
/// error channel, a skipped empty line, and `quit`. Cache warmth never changes
/// an answer, so the byte stream it provokes is identical on every run.
pub fn script() -> String {
    let reqs = requests();
    let mut s = String::from("ping\nschema\n");
    for r in reqs.iter().chain(&reqs) {
        s.push_str(&r.encode());
        s.push('\n');
    }
    s.push_str("definitely not a command\n");
    s.push('\n');
    s.push_str("ping\nquit\n");
    s
}

/// Runs `script()` against `addr` over a raw socket and returns the whole
/// reply stream. `dribble` delivers the request bytes one `write(2)` per
/// byte (worst-case partial reads); otherwise the whole script lands in a
/// single coalesced write (worst-case pipelining).
pub fn transcript(addr: std::net::SocketAddr, dribble: bool) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let payload = script();
    if dribble {
        for b in payload.as_bytes() {
            stream.write_all(std::slice::from_ref(b)).unwrap();
        }
    } else {
        stream.write_all(payload.as_bytes()).unwrap();
    }
    let mut out = Vec::new();
    stream.read_to_end(&mut out).unwrap();
    out
}

/// `connections` concurrent `transcript` sessions against `addr`, every
/// other one dribbled — pipelined bursts and worst-case partial reads
/// contending for the same serving threads.
pub fn concurrent_transcripts(addr: std::net::SocketAddr, connections: usize) -> Vec<Vec<u8>> {
    let sessions: Vec<_> = (0..connections)
        .map(|i| std::thread::spawn(move || transcript(addr, i % 2 == 1)))
        .collect();
    sessions.into_iter().map(|s| s.join().unwrap()).collect()
}
