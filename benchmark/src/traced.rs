//! The traced pass: the same stream, with a span around every call the
//! load generator makes, and afterwards an in-process replay of what the
//! server must have done for each request (see `trace`). The replay runs
//! after the wire phase, not between requests: on one CPU it would push the
//! server's working set out of the cache before every request. End-to-end
//! metrics never come from here.

use crate::bench::Harness;
use crate::model::{Oracle, Workload};
use crate::stats::median;
use crate::stream::{Item, Kind, FULL_MIX};
use crate::trace::Trace;
use entropydb_core::assignment::Mask;
use entropydb_core::engine::QueryEngine;
use entropydb_core::factorized::FactorizedScratch;
use entropydb_core::plan::{QueryRequest, QueryResponse};
use entropydb_core::prelude::{MaxEntSummary, ProbeRequest, ProbeResponse};
use std::time::{Duration, Instant};

/// Spans are kept in memory and written at exit; this bounds the file.
const MAX_TRACED_REQUESTS: u64 = 3000;

pub struct Traced {
    pub trace: Trace,
    /// Median traced `client.execute` of a fresh point count (µs).
    pub point_execute_us: f64,
    /// Medians over fresh point counts of the replayed server-side steps.
    pub point_decode_request_us: f64,
    pub point_engine_execute_us: f64,
    pub point_encode_response_us: f64,
}

/// One request of the wire phase, kept for its replay.
struct Sent {
    id: u64,
    item: Item,
    line: String,
    wire_line: String,
    execute_span: usize,
}

fn timed<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_nanos() as u64, out)
}

/// The models a count request's `engine.execute` is broken down over.
struct Breakdown<'a> {
    shards: Vec<&'a QueryEngine<MaxEntSummary>>,
    /// Kernel scratch of the one model, when there is only one.
    scratch: Option<FactorizedScratch>,
    /// Whether shard probes really cross a wire in this topology.
    probes_on_wire: bool,
    sizes: Vec<usize>,
}

impl Breakdown<'_> {
    /// Child durations of one count request's `engine.execute`: the mask
    /// build, then the kernel (one model) or each shard's probe (with the
    /// probe codecs where probes cross a wire).
    fn children(&mut self, request: &QueryRequest) -> Vec<(&'static str, u64)> {
        let pred = request.predicate().expect("count has a predicate");
        let (build_ns, mask) =
            timed(|| Mask::from_predicate(pred, &self.sizes).expect("valid predicate"));
        let mut children = vec![("assignment.mask_build", build_ns)];
        if let Some(scratch) = &mut self.scratch {
            let summary = self.shards[0].backend();
            let (eval_ns, _) = timed(|| {
                std::hint::black_box(summary.polynomial().eval_masked_with(
                    summary.assignment(),
                    &mask,
                    scratch,
                ))
            });
            children.push(("factorized.eval_masked", eval_ns));
            return children;
        }
        let probe = ProbeRequest::Count { mask };
        for shard in &self.shards {
            if self.probes_on_wire {
                let (encode_ns, line) = timed(|| probe.encode());
                let (decode_ns, _) = timed(|| ProbeRequest::decode(&line).expect("own encoding"));
                children.push(("probe.encode_request", encode_ns));
                children.push(("probe.decode_request", decode_ns));
            }
            let (execute_ns, answer) = timed(|| shard.probe(&probe).expect("probe executes"));
            children.push(("shard.execute", execute_ns));
            if self.probes_on_wire {
                let (encode_ns, line) = timed(|| answer.encode());
                let (decode_ns, _) = timed(|| ProbeResponse::decode(&line).expect("own encoding"));
                children.push(("probe.encode_response", encode_ns));
                children.push(("probe.decode_response", decode_ns));
            }
        }
        children
    }
}

/// Runs the stream traced for `seconds` (at most [`MAX_TRACED_REQUESTS`]),
/// then replays it. Every traced answer is also compared with the oracle.
pub fn run(harness: &mut Harness<'_>, oracle: &Oracle, seconds: f64) -> Traced {
    let deployed = harness.deployed;
    let mut trace = Trace::new();

    // Wire phase: what the load generator itself does around each request.
    let mut sent = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut id = 0;
    while Instant::now() < deadline && id < MAX_TRACED_REQUESTS {
        id += 1;
        let item = harness.stream.next_item(&FULL_MIX);
        let (_, line) = trace.span("plan.encode_request", None, id, || item.request.encode());
        let (execute_span, answer) = trace.span("client.execute", None, id, || {
            harness.client.execute(&item.request)
        });
        match answer {
            Ok(response) => sent.push(Sent {
                id,
                item,
                line,
                wire_line: response.encode(),
                execute_span,
            }),
            Err(e) => harness.ops.fail(format!("traced {}: {e}", item.line)),
        }
    }

    // Replay: what the server did between the client's write and read.
    let mut owned = Vec::new();
    let shards = oracle.shard_engines(&deployed.model, &mut owned);
    let scratch = match shards.as_slice() {
        [only] => Some(only.backend().polynomial().make_scratch()),
        _ => None,
    };
    let mut breakdown = Breakdown {
        shards,
        scratch,
        probes_on_wire: deployed.workload == Workload::FlightsCluster,
        sizes: deployed.dataset.table.schema().domain_sizes(),
    };
    let mut point = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for request in &sent {
        let (id, cause) = (request.id, Some(request.execute_span));
        trace.span("plan.decode_response", cause, id, || {
            std::hint::black_box(QueryResponse::decode(&request.wire_line).is_ok())
        });
        let (decode, decoded) = trace.span("plan.decode_request", cause, id, || {
            QueryRequest::decode(&request.line).expect("own encoding decodes")
        });
        let (engine, replayed) =
            trace.span("engine.execute", cause, id, || oracle.execute(&decoded));
        let (encode, oracle_line) =
            trace.span("plan.encode_response", cause, id, || match &replayed {
                Ok(response) => response.encode(),
                Err(e) => QueryResponse::encode_error(e),
            });
        if matches!(request.item.kind, Kind::Point | Kind::Range) {
            let children = breakdown.children(&decoded);
            trace.lay_children(engine, id, &children);
        }
        if request.wire_line == oracle_line {
            harness.ops.ok();
        } else {
            harness.ops.fail(format!(
                "traced answer differs: {}: wire {:?}, oracle {oracle_line:?}",
                request.item.line, request.wire_line
            ));
        }
        if request.item.kind == Kind::Point && !request.item.repeat {
            let spans = [request.execute_span, decode, engine, encode];
            for (samples, span) in point.iter_mut().zip(spans) {
                let s = &trace.spans[span];
                samples.push((s.end_ns - s.start_ns) as f64 / 1e3);
            }
        }
    }
    Traced {
        trace,
        point_execute_us: median(&point[0]),
        point_decode_request_us: median(&point[1]),
        point_engine_execute_us: median(&point[2]),
        point_encode_response_us: median(&point[3]),
    }
}
