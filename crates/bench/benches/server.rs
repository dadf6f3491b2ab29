//! Server concurrency soak benchmark: hundreds of pre-connected raw
//! clients each put a pipelined frame of point count queries on the wire
//! before any reply is drained, then drain their replies — one such storm
//! is a *round*, the unit `b.iter` times.
//!
//! `BENCH_server.json` records group `server_soak`: round latency
//! (median/p50/p99) of the served path at 256 clients x 8 pipelined
//! requests, the throughput side-channel (`reactor_req_per_s`), and the
//! soak shape. The throughput is floor-gated in `bench_schema.json`
//! (`metric_floors`) as an absolute requests-per-second figure.

use criterion::{criterion_group, criterion_main, Criterion};
use entropydb_core::engine::QueryEngine;
use entropydb_core::plan::QueryRequest;
use entropydb_server::{demo, serve};
use entropydb_storage::{AttrId, Predicate};
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
    /// once — the load shape the event loop exists for.
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

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(4)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_server_soak
}
criterion_main!(benches);
