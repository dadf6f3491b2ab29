//! Server benchmarks, both ends of the load range, and the reply codec.
//!
//! *Soak*: hundreds of pre-connected raw clients each put a pipelined
//! frame of point count queries on the wire before any reply is drained,
//! then drain their replies — one such storm is a *round*, the unit
//! `b.iter` times. *Round trip*: one `Client`, one request at a time —
//! `ping` (the wire and the serving threads alone), a point count and a
//! group-by on the demo table without 2-D statistics (a sub-µs model, so
//! the figure is the served path's), with client and server confined to
//! one CPU: the configuration `benchmark/` measures, and the one whose
//! figure is the code path's rather than the host's cross-CPU wake-up
//! latency (≈ 40 µs of a 48 µs unconfined `ping` on the 2-vCPU development
//! box). *Float codec*: one `QueryResponse::encode` of 54 flights-like
//! group estimates (108 float tokens), the reply a group-by pays for.
//! *Probe codec*: the `b1` lines a gateway sends its shards over a
//! flights-shaped schema (domains 54/54/62/81) — the bytes of a point
//! count, and one encode and one decode of a 16-mask `countm` batch
//! (points and ranges alternating, a dashboard refresh).
//!
//! `BENCH_server.json` records group `server_soak`: round latency
//! (median/p50/p99) of the served path at 256 clients x 8 pipelined
//! requests, the throughput side-channel (`reactor_req_per_s`), and the
//! soak shape; group `server_round_trip`: `ping_ns` / `point_ns` /
//! `groupby_ns` per depth-1 round trip; group `float_codec`:
//! `encode_groups54_ns`; and group `probe_codec`: `point_count_bytes`,
//! `countm16_encode_ns` and `countm16_decode_ns`. `bench_schema.json` gates
//! the throughput with an absolute floor (`metric_floors`) and the round
//! trips, the encodes, the decode and the point's bytes with absolute
//! ceilings (`metric_ceilings`) — the float encode's below what formatting
//! the floats with `Display` costs, the probe codec's below what spelling
//! every mask weight out cost.

use criterion::{criterion_group, criterion_main, Criterion};
use entropydb_bench::report::mean_call_ns;
use entropydb_core::assignment::Mask;
use entropydb_core::engine::QueryEngine;
use entropydb_core::model::MaxEntSummary;
use entropydb_core::plan::{QueryRequest, QueryResponse};
use entropydb_core::probe::ProbeRequest;
use entropydb_core::query::Estimate;
use entropydb_core::solver::SolverConfig;
use entropydb_server::{demo, serve, Client};
use entropydb_storage::{AttrId, Predicate};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

const ROWS: usize = 240;
const SHARDS: usize = 2;
const CLIENTS: usize = 256;
const PIPELINE: usize = 8;

fn fast_mode() -> bool {
    std::env::var_os("ENTROPYDB_BENCH_FAST").is_some_and(|v| v != *"0")
}

/// The pre-connected soak fleet against one server.
struct Fleet {
    conns: Vec<(TcpStream, BufReader<TcpStream>)>,
    frame: Vec<u8>,
    line: String,
}

impl Fleet {
    fn connect(addr: SocketAddr, query_line: &str) -> Fleet {
        let mut conns = Vec::with_capacity(CLIENTS);
        for _ in 0..CLIENTS {
            let stream = TcpStream::connect(addr).expect("soak connect");
            stream.set_nodelay(true).expect("nodelay");
            let reader = BufReader::new(stream.try_clone().expect("clone socket"));
            conns.push((stream, reader));
        }
        Fleet {
            conns,
            frame: query_line.repeat(PIPELINE).into_bytes(),
            line: String::new(),
        }
    }

    /// One soak round. Writing every frame before draining any reply puts
    /// `CLIENTS` genuinely concurrent pipelined frames on the server at
    /// once — the load shape the epoll driver exists for.
    fn round(&mut self) {
        for (stream, _) in &mut self.conns {
            stream.write_all(&self.frame).expect("write frame");
        }
        for (_, reader) in &mut self.conns {
            for _ in 0..PIPELINE {
                self.line.clear();
                reader.read_line(&mut self.line).expect("read reply");
                assert!(
                    self.line.starts_with("r1 ") && !self.line.starts_with("r1 err"),
                    "soak reply: {}",
                    self.line
                );
            }
        }
    }
}

fn bench_server_soak(c: &mut Criterion) {
    let summary = demo::demo_summary(ROWS, SHARDS).expect("demo summary");
    let query = format!(
        "{}\n",
        QueryRequest::count(Predicate::new().eq(AttrId(0), 1)).encode()
    );

    let server = serve(QueryEngine::new(summary), "127.0.0.1:0").expect("serve");
    let mut fleet = Fleet::connect(server.local_addr(), &query);

    let mut g = c.benchmark_group("server_soak");
    g.bench_function("reactor", |b| b.iter(|| fleet.round()));
    g.finish();

    // Throughput side-channel, measured once over a fixed round budget so
    // the artifact carries req/s alongside ns/round.
    let rounds = if fast_mode() { 3 } else { 40 };
    let t = Instant::now();
    for _ in 0..rounds {
        fleet.round();
    }
    let req_per_s = (rounds * CLIENTS * PIPELINE) as f64 / t.elapsed().as_secs_f64();
    c.record_metric("server_soak", "soak_clients", CLIENTS as f64);
    c.record_metric("server_soak", "pipeline_depth", PIPELINE as f64);
    c.record_metric("server_soak", "reactor_req_per_s", req_per_s);

    drop(fleet);
    server.shutdown();
}

/// Narrows the calling thread — and every thread it spawns from here on —
/// to the lowest CPU it is allowed on. False where the kernel refuses or
/// there is no such call.
fn confine_to_one_cpu() -> bool {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, bytes: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, bytes: usize, mask: *const u64) -> i32;
        }
        // 1 024 CPUs' worth of mask.
        let mut mask = [0u64; 16];
        let bytes = std::mem::size_of_val(&mask);
        // SAFETY: the kernel writes at most `bytes` bytes into `mask`, which
        // is that large and lives across the call; pid 0 is this thread.
        if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
            return false;
        }
        let Some(word) = mask.iter().position(|&w| w != 0) else {
            return false;
        };
        let mut one = [0u64; 16];
        one[word] = mask[word] & mask[word].wrapping_neg();
        // SAFETY: the kernel reads `bytes` bytes from `one`, which is that
        // large and lives across the call.
        unsafe { sched_setaffinity(0, bytes, one.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    false
}

fn bench_server_round_trip(c: &mut Criterion) {
    // On a thread of its own: affinity is per thread and inherited, so the
    // server's pool is confined with the client and the soak above is not.
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let confined = confine_to_one_cpu();
            c.record_metric("server_round_trip", "one_cpu", f64::from(confined));
            round_trips(c);
        });
    });
}

fn round_trips(c: &mut Criterion) {
    let table = demo::demo_table(ROWS);
    let summary = MaxEntSummary::build(&table, vec![], &SolverConfig::default()).expect("fit");
    let server = serve(QueryEngine::new(summary), "127.0.0.1:0").expect("serve");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let point = QueryRequest::count(Predicate::new().eq(AttrId(0), 1));
    let groupby = QueryRequest::group_by(Predicate::new().eq(AttrId(0), 1), AttrId(1));

    let mut g = c.benchmark_group("server_round_trip");
    g.bench_function("ping", |b| b.iter(|| client.ping().expect("ping")));
    g.bench_function("point", |b| {
        b.iter(|| client.execute(&point).expect("point"))
    });
    g.bench_function("groupby", |b| {
        b.iter(|| client.execute(&groupby).expect("groupby"))
    });
    g.finish();

    let calls = if fast_mode() { 200 } else { 20_000 };
    let ping_ns = mean_call_ns(calls, || client.ping().expect("ping"));
    let point_ns = mean_call_ns(calls, || {
        client.execute(&point).expect("point");
    });
    let groupby_ns = mean_call_ns(calls, || {
        client.execute(&groupby).expect("groupby");
    });
    c.record_metric("server_round_trip", "ping_ns", ping_ns);
    c.record_metric("server_round_trip", "point_ns", point_ns);
    c.record_metric("server_round_trip", "groupby_ns", groupby_ns);

    client.quit();
    server.shutdown();
}

/// 54 group estimates of a 500 000-row relation with full-precision
/// shares: the shape of a flights group-by reply.
fn flights_like_groups() -> QueryResponse {
    let n = 500_000.0;
    let total: f64 = (1..=54).map(|i| f64::from(i).sqrt()).sum();
    QueryResponse::Groups(
        (1..=54)
            .map(|i| {
                let p = f64::from(i).sqrt() / total;
                Estimate {
                    expectation: n * p,
                    variance: n * p * (1.0 - p),
                }
            })
            .collect(),
    )
}

fn bench_float_codec(c: &mut Criterion) {
    let groups = flights_like_groups();
    let mut g = c.benchmark_group("float_codec");
    g.bench_function("encode_groups54", |b| {
        b.iter(|| black_box(&groups).encode())
    });
    g.finish();

    let calls = if fast_mode() { 2_000 } else { 200_000 };
    let encode_ns = mean_call_ns(calls, || {
        black_box(black_box(&groups).encode());
    });
    c.record_metric("float_codec", "encode_groups54_ns", encode_ns);
}

/// Domain sizes of the flights attributes a point query pins: origin,
/// dest, fl_time, distance.
const FLIGHTS_DOMAINS: [usize; 4] = [54, 54, 62, 81];

/// The point count mask `i` of the probe codec: every attribute pinned.
fn point_mask(i: u32) -> Mask {
    let pred = (0..4).fold(Predicate::new(), |pred, attr| {
        let code = (i * 7 + 13 * attr as u32 + 20) % FLIGHTS_DOMAINS[attr] as u32;
        pred.eq(AttrId(attr), code)
    });
    Mask::from_predicate(&pred, &FLIGHTS_DOMAINS).expect("point mask")
}

/// The range count mask `i`: fl_time and distance between two codes.
fn range_mask(i: u32) -> Mask {
    let pred = Predicate::new()
        .between(AttrId(2), 3 + i, 30 + 2 * i)
        .between(AttrId(3), 10 + i, 50 + i);
    Mask::from_predicate(&pred, &FLIGHTS_DOMAINS).expect("range mask")
}

fn bench_probe_codec(c: &mut Criterion) {
    let point = ProbeRequest::Count {
        mask: point_mask(0),
    };
    let batch = ProbeRequest::CountMany {
        masks: (0..16)
            .map(|i| match i % 2 {
                0 => point_mask(i),
                _ => range_mask(i),
            })
            .collect(),
    };
    let line = batch.encode();
    assert_eq!(ProbeRequest::decode(&line).expect("decode"), batch);

    let mut g = c.benchmark_group("probe_codec");
    g.bench_function("countm16_encode", |b| b.iter(|| black_box(&batch).encode()));
    g.bench_function("countm16_decode", |b| {
        b.iter(|| ProbeRequest::decode(black_box(&line)))
    });
    g.finish();

    let calls = if fast_mode() { 2_000 } else { 200_000 };
    let encode_ns = mean_call_ns(calls, || {
        black_box(black_box(&batch).encode());
    });
    let decode_ns = mean_call_ns(calls, || {
        black_box(ProbeRequest::decode(black_box(&line)).expect("decode"));
    });
    let point_bytes = point.encode().len();
    c.record_metric("probe_codec", "point_count_bytes", point_bytes as f64);
    c.record_metric("probe_codec", "countm16_encode_ns", encode_ns);
    c.record_metric("probe_codec", "countm16_decode_ns", decode_ns);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(4)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_server_soak, bench_server_round_trip, bench_float_codec, bench_probe_codec
}
criterion_main!(benches);
