//! Per-layer measurements, all taken from outside: by timing public calls
//! into each module on the workload's own model, or by reading the wire
//! `stats` lines. Where a topology lacks a layer (no gateway, no ingest
//! pipeline) the metric is measured on the in-process equivalent built from
//! the same model, so every metric has a reading on every workload.

use crate::accuracy;
use crate::bench::{live_batches, Samples, BATCH};
use crate::model::{Deployed, Oracle, LIVE_BATCH_ROWS};
use crate::stats::median;
use crate::stream::{Item, Kind, Stream, FULL_MIX};
use entropydb_core::assignment::Mask;
use entropydb_core::engine::QueryEngine;
use entropydb_core::ingest::{fit_segment, IngestConfig, LiveSummary};
use entropydb_core::par;
use entropydb_core::plan::{parse_request, QueryRequest, QueryResponse};
use entropydb_core::prelude::{
    MaxEntSummary, ProbeRequest, ProbeResponse, ShardedSummary, SolverConfig,
};
use entropydb_sampling::uniform_sample;
use entropydb_server::Client;
use entropydb_storage::{AttrPredicate, Predicate, Schema, Table};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const INPUTS_PER_KIND: usize = 48;
const ROUNDS: usize = 9;
/// How long each of the two ungated throughput probes runs.
const THROUGHPUT_PROBE: Duration = Duration::from_millis(1000);
const PIPELINE_DEPTH: usize = 8;

pub type Readings = BTreeMap<&'static str, f64>;

/// Mean µs `f` takes per input over one pass.
fn pass_us<T>(inputs: &[T], mut f: impl FnMut(&T)) -> f64 {
    let start = Instant::now();
    for input in inputs {
        f(input);
    }
    start.elapsed().as_secs_f64() * 1e6 / inputs.len().max(1) as f64
}

/// Median over [`ROUNDS`] passes of the mean µs `f` takes per input.
fn per_item_us<T>(inputs: &[T], mut f: impl FnMut(&T)) -> f64 {
    median(
        &(0..ROUNDS)
            .map(|_| pass_us(inputs, &mut f))
            .collect::<Vec<_>>(),
    )
}

/// Timed loops whose readings are subtracted from one another. The host's
/// speed drifts by a tenth within seconds, so instead of timing one loop
/// after the other, every round runs one pass of each: all of them see the
/// same drift, and each reports the median of its passes.
#[derive(Default)]
struct Interleaved<'a> {
    loops: Vec<(String, Box<dyn FnMut() -> f64 + 'a>)>,
}

impl<'a> Interleaved<'a> {
    fn add<T>(&mut self, key: impl Into<String>, inputs: &'a [T], mut f: impl FnMut(&T) + 'a) {
        self.loops
            .push((key.into(), Box::new(move || pass_us(inputs, &mut f))));
    }

    fn run(mut self) -> BTreeMap<String, f64> {
        let mut passes = vec![Vec::with_capacity(ROUNDS); self.loops.len()];
        for _ in 0..ROUNDS {
            for ((_, pass), taken) in self.loops.iter_mut().zip(&mut passes) {
                taken.push(pass());
            }
        }
        self.loops
            .into_iter()
            .zip(passes)
            .map(|((key, _), taken)| (key, median(&taken)))
            .collect()
    }
}

fn median_len(lines: &[String]) -> f64 {
    // +1: the newline that frames the line on the wire.
    median(
        &lines
            .iter()
            .map(|l| l.len() as f64 + 1.0)
            .collect::<Vec<_>>(),
    )
}

/// The SQL-ish statement `parse_request` turns back into `request`: binned
/// attributes take raw values (bucket midpoints), categorical ones codes.
fn statement(request: &QueryRequest, schema: &Schema) -> Option<String> {
    let value = |attr: entropydb_storage::AttrId, code: u32| -> Option<String> {
        let attribute = schema.attr(attr).ok()?;
        Some(match attribute.binner() {
            Some(binner) => binner.midpoint(code).to_string(),
            None => code.to_string(),
        })
    };
    let mut clauses = Vec::new();
    for (attr, clause) in request.predicate()?.clauses() {
        let name = schema.attr(*attr).ok()?.name().to_string();
        clauses.push(match clause {
            AttrPredicate::Point(v) => format!("{name} = {}", value(*attr, *v)?),
            AttrPredicate::Range { lo, hi } => {
                format!(
                    "{name} BETWEEN {} AND {}",
                    value(*attr, *lo)?,
                    value(*attr, *hi)?
                )
            }
            _ => return None,
        });
    }
    let filter = clauses.join(" AND ");
    let name = |attr: &entropydb_storage::AttrId| Some(schema.attr(*attr).ok()?.name().to_string());
    Some(match request {
        QueryRequest::Count { .. } => format!("COUNT WHERE {filter}"),
        QueryRequest::GroupBy { attr, .. } => format!("GROUP BY {} WHERE {filter}", name(attr)?),
        QueryRequest::TopK { attr, k, .. } => format!("TOP {k} {} WHERE {filter}", name(attr)?),
        _ => return None,
    })
}

/// What the measured passes and set-up hand to the per-layer report.
pub struct Context<'a> {
    pub deployed: &'a Deployed,
    pub oracle: &'a Oracle,
    pub samples: &'a Samples,
    pub seed: u64,
    pub load_s: f64,
    /// The truth table: base rows plus appended ones.
    pub table: &'a Table,
}

fn masks_of(items: &[Item], sizes: &[usize]) -> Result<Vec<Mask>, String> {
    items
        .iter()
        .map(|item| {
            let pred = item
                .request
                .predicate()
                .expect("stream requests carry predicates");
            Mask::from_predicate(pred, sizes).map_err(|e| e.to_string())
        })
        .collect()
}

/// Closed loop on two connections for [`THROUGHPUT_PROBE`]: requests/s.
fn closed_loop_rps_2conn(ctx: &Context<'_>) -> Result<f64, String> {
    let total: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2u64)
            .map(|i| {
                scope.spawn(move || -> Result<u64, String> {
                    let mut client = ctx.deployed.connect()?;
                    let mut stream = Stream::new(ctx.seed ^ (0xC105 + i), ctx.deployed.attrs());
                    let start = Instant::now();
                    let mut done = 0;
                    while start.elapsed() < THROUGHPUT_PROBE {
                        let item = stream.next_item(&FULL_MIX);
                        client.execute(&item.request).map_err(|e| e.to_string())?;
                        done += 1;
                    }
                    Ok(done)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker does not panic"))
            .sum::<Result<u64, String>>()
    })?;
    Ok(total as f64 / THROUGHPUT_PROBE.as_secs_f64())
}

/// Raw `q1` frames of [`PIPELINE_DEPTH`] fresh point counts on two
/// connections for [`THROUGHPUT_PROBE`]: requests/s. Saturated throughput
/// did not repeat within a tenth on a shared two-core box, so it is
/// reported here and never gated.
fn pipelined_rps(ctx: &Context<'_>) -> Result<f64, String> {
    let addr = ctx.deployed.topology.addr.as_str();
    let total: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2u64)
            .map(|i| {
                scope.spawn(move || -> std::io::Result<u64> {
                    let mut writer = TcpStream::connect(addr)?;
                    writer.set_nodelay(true)?;
                    let mut reader = BufReader::new(writer.try_clone()?);
                    let mut stream = Stream::new(ctx.seed ^ (0x919E + i), ctx.deployed.attrs());
                    let start = Instant::now();
                    let mut done = 0;
                    let mut reply = String::new();
                    while start.elapsed() < THROUGHPUT_PROBE {
                        let mut frame = String::new();
                        for _ in 0..PIPELINE_DEPTH {
                            frame.push_str(&stream.fresh(Kind::Point).line);
                            frame.push('\n');
                        }
                        writer.write_all(frame.as_bytes())?;
                        for _ in 0..PIPELINE_DEPTH {
                            reply.clear();
                            if reader.read_line(&mut reply)? == 0 || !reply.starts_with("r1 ") {
                                return Err(std::io::Error::other(format!(
                                    "unexpected pipelined reply {reply:?}"
                                )));
                            }
                            done += 1;
                        }
                    }
                    writer.write_all(b"quit\n")?;
                    Ok(done)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker does not panic"))
            .sum::<std::io::Result<u64>>()
    })
    .map_err(|e| format!("pipelined probe: {e}"))?;
    Ok(total as f64 / THROUGHPUT_PROBE.as_secs_f64())
}

/// One in-process fold of a single append batch over this model, as a
/// synchronous `LiveSummary` does it (ms).
fn in_process_fold_ms(ctx: &Context<'_>, batch: &[Vec<u32>]) -> Result<f64, String> {
    let base =
        ShardedSummary::from_shards(ctx.deployed.model.shards()).map_err(|e| e.to_string())?;
    let live = LiveSummary::new(
        base,
        ctx.deployed.multi.clone(),
        SolverConfig::default(),
        IngestConfig {
            delta_rows: LIVE_BATCH_ROWS,
            background: false,
            ..IngestConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let start = Instant::now();
    live.append_rows(batch, None).map_err(|e| e.to_string())?;
    Ok(start.elapsed().as_secs_f64() * 1e3)
}

/// Every per-layer reading that needs no traced request (those come from
/// `traced`). `point_p50_us` is the untraced end-to-end median the derived
/// overheads subtract from.
pub fn measure(
    ctx: &Context<'_>,
    client: &mut Client,
    point_p50_us: f64,
) -> Result<Readings, String> {
    let mut out = Readings::new();
    let deployed = ctx.deployed;
    let times = &deployed.times;
    let schema = deployed.dataset.table.schema();
    let sizes = schema.domain_sizes();
    let mut owned = Vec::new();
    let shard_engines = ctx.oracle.shard_engines(&deployed.model, &mut owned);
    let shards: Vec<&MaxEntSummary> = shard_engines.iter().map(|e| e.backend()).collect();

    // Inputs: fresh requests of each kind from a stream of their own, and a
    // stream-weighted mix for the codecs.
    let mut stream = Stream::new(ctx.seed ^ 0x001A_7E45, deployed.attrs());
    let by_kind: Vec<Vec<Item>> = Kind::ALL
        .iter()
        .map(|&kind| (0..INPUTS_PER_KIND).map(|_| stream.fresh(kind)).collect())
        .collect();
    let points = &by_kind[Kind::Point.index()];
    let mixed: Vec<Item> = (0..4 * INPUTS_PER_KIND)
        .map(|_| stream.next_item(&FULL_MIX))
        .collect();

    out.insert("data.generate_s", times.generate_s);
    out.insert("selection.select_s", times.select_s);
    out.insert("selection.stats_selected", times.stats_selected as f64);
    out.insert("solver.build_s", times.build_s);
    out.insert("solver.solve_s", times.solve_s);
    out.insert("solver.sweeps", times.sweeps as f64);
    out.insert("solver.max_residual", times.max_residual);
    out.insert("solver.converged", f64::from(u8::from(times.converged)));
    out.insert("serialize.save_s", times.save_s);
    out.insert("serialize.load_s", ctx.load_s);
    out.insert("serialize.blob_bytes", deployed.summary_bytes as f64);
    out.insert("server.spawn_to_pong_s", times.spawn_to_pong_s);

    // The kernel, the engine over it, the merge layer and a shard-side
    // probe, timed interleaved because they are compared with one another.
    let point_masks = masks_of(points, &sizes)?;
    let point_preds: Vec<&Predicate> = points
        .iter()
        .map(|i| i.request.predicate().expect("count has a predicate"))
        .collect();
    let lanes: Vec<&[Mask]> = point_masks.chunks_exact(BATCH).collect();
    let batches: Vec<Vec<QueryRequest>> = (0..INPUTS_PER_KIND / (BATCH / 2))
        .map(|b| {
            (0..BATCH)
                .map(|i| {
                    let kind = if i % 2 == 0 { Kind::Point } else { Kind::Range };
                    by_kind[kind.index()][b * (BATCH / 2) + i / 2]
                        .request
                        .clone()
                })
                .collect()
        })
        .collect();
    let sharded = QueryEngine::new(
        ShardedSummary::from_shards(deployed.model.shards()).map_err(|e| e.to_string())?,
    );
    let probes: Vec<ProbeRequest> = point_masks
        .iter()
        .map(|mask| ProbeRequest::Count { mask: mask.clone() })
        .collect();
    let shard0 = shard_engines[0];
    let mut scratches: Vec<_> = shards
        .iter()
        .map(|s| s.polynomial().make_scratch())
        .collect();
    let mut fused_scratches: Vec<_> = shards
        .iter()
        .map(|s| s.polynomial().make_scratch())
        .collect();
    let mut timed = Interleaved::default();
    timed.add("mask_build", &point_preds, |pred| {
        std::hint::black_box(Mask::from_predicate(pred, &sizes).expect("valid predicate"));
    });
    for (i, ((shard, scratch), fused)) in shards
        .iter()
        .zip(&mut scratches)
        .zip(&mut fused_scratches)
        .enumerate()
    {
        let (poly, a) = (shard.polynomial(), shard.assignment());
        timed.add(format!("eval {i}"), &point_masks, move |mask| {
            std::hint::black_box(poly.eval_masked_with(a, mask, scratch));
        });
        let mut values = [0.0; BATCH];
        timed.add(format!("eval_many {i}"), &lanes, move |masks| {
            poly.eval_masked_many_with(a, masks, fused, &mut values);
            std::hint::black_box(&values);
        });
        let engine = shard_engines[i];
        timed.add(format!("shard_execute {i}"), points, move |item| {
            std::hint::black_box(engine.execute(&item.request).expect("shard executes"));
        });
    }
    for kind in Kind::ALL {
        timed.add(
            format!("execute {}", kind.index()),
            &by_kind[kind.index()],
            |item| {
                std::hint::black_box(ctx.oracle.execute(&item.request).expect("oracle executes"));
            },
        );
    }
    timed.add("execute_batch", &batches, |batch| {
        std::hint::black_box(ctx.oracle.execute_batch(batch));
    });
    timed.add("sharded_point", points, |item| {
        std::hint::black_box(sharded.execute(&item.request).expect("sharded executes"));
    });
    timed.add("sharded_topk", &by_kind[Kind::TopK.index()], |item| {
        std::hint::black_box(sharded.execute(&item.request).expect("sharded executes"));
    });
    timed.add("probe_execute", &probes, |p| {
        std::hint::black_box(shard0.probe(p).expect("probe executes"));
    });
    let timed = timed.run();
    let per_shard = |what: &str| -> Vec<f64> {
        (0..shards.len())
            .map(|i| timed[&format!("{what} {i}")])
            .collect()
    };

    let mask_build_us = timed["mask_build"];
    let eval_us: f64 = per_shard("eval").iter().sum();
    out.insert("assignment.mask_build_us", mask_build_us);
    out.insert("factorized.eval_masked_us", eval_us);
    out.insert(
        "factorized.eval_many16_us",
        per_shard("eval_many").iter().sum(),
    );
    let terms: usize = shards.iter().map(|s| s.size_stats().num_terms).sum();
    out.insert("polynomial.terms", terms as f64);
    out.insert(
        "polynomial.components",
        shards
            .iter()
            .map(|s| s.polynomial().num_components())
            .sum::<usize>() as f64,
    );
    out.insert(
        "polynomial.ns_per_term",
        eval_us * 1e3 / terms.max(1) as f64,
    );
    for (kind, name) in Kind::ALL.into_iter().zip([
        "engine.execute_point_us",
        "engine.execute_range_us",
        "engine.execute_groupby_us",
        "engine.execute_topk_us",
    ]) {
        out.insert(name, timed[&format!("execute {}", kind.index())]);
    }
    out.insert("engine.execute_batch16_us", timed["execute_batch"]);
    let execute_point_us = out["engine.execute_point_us"];
    out.insert(
        "engine.self_point_us",
        execute_point_us - mask_build_us - eval_us,
    );
    let sharded_point_us = timed["sharded_point"];
    out.insert("sharded.execute_point_us", sharded_point_us);
    out.insert("sharded.execute_topk_us", timed["sharded_topk"]);
    let shard_executes = per_shard("shard_execute");
    out.insert("scatter.shard_sum_us", shard_executes.iter().sum());
    out.insert(
        "scatter.shard_max_us",
        shard_executes.iter().copied().fold(0.0, f64::max),
    );
    out.insert("probe.execute_us", timed["probe_execute"]);

    // plan: the q1/r1 codecs over a stream-weighted mix.
    let request_lines: Vec<String> = mixed.iter().map(|i| i.line.clone()).collect();
    let responses: Vec<QueryResponse> = mixed
        .iter()
        .map(|i| ctx.oracle.execute(&i.request).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let response_lines: Vec<String> = responses.iter().map(QueryResponse::encode).collect();
    out.insert(
        "plan.encode_request_us",
        per_item_us(&mixed, |i| {
            std::hint::black_box(i.request.encode());
        }),
    );
    out.insert(
        "plan.decode_request_us",
        per_item_us(&request_lines, |l| {
            std::hint::black_box(QueryRequest::decode(l).expect("own encoding decodes"));
        }),
    );
    out.insert(
        "plan.encode_response_us",
        per_item_us(&responses, |r| {
            std::hint::black_box(r.encode());
        }),
    );
    out.insert(
        "plan.decode_response_us",
        per_item_us(&response_lines, |l| {
            std::hint::black_box(QueryResponse::decode(l).expect("own encoding decodes"));
        }),
    );
    out.insert("plan.request_bytes_p50", median_len(&request_lines));
    out.insert("plan.response_bytes_p50", median_len(&response_lines));

    // storage: the statement parser, off the q1 path today.
    let statements: Vec<String> = mixed
        .iter()
        .map(|i| statement(&i.request, schema).ok_or("request has no statement form"))
        .collect::<Result<_, _>>()?;
    for (text, item) in statements.iter().zip(&mixed) {
        let parsed = parse_request(text, schema).map_err(|e| format!("{text}: {e}"))?;
        if parsed.encode() != item.line {
            return Err(format!(
                "statement {text:?} parses to {:?}, not {:?}",
                parsed.encode(),
                item.line
            ));
        }
    }
    out.insert(
        "storage.parse_statement_us",
        per_item_us(&statements, |text| {
            std::hint::black_box(parse_request(text, schema).expect("checked above"));
        }),
    );

    // par: one hand-off to the persistent pool and back.
    let lanes = vec![(); par::max_threads().max(2)];
    let dispatch: Vec<f64> = (0..2000)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(par::map(&lanes, 1, |_, _| ()));
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.insert("par.dispatch_us", median(&dispatch));

    // scatter: the gather cache's counters over the measured pass.
    let cache = ctx.samples.cache;
    out.insert("scatter.cache_hits", cache.hits as f64);
    out.insert("scatter.cache_misses", cache.misses as f64);
    out.insert("scatter.cache_coalesced", cache.coalesced as f64);
    out.insert("scatter.cache_evicted", cache.evicted as f64);
    out.insert("scatter.cache_hit_ratio", cache.hit_rate());

    // probe: the b1/c1 codecs.
    let probe_lines: Vec<String> = probes.iter().map(ProbeRequest::encode).collect();
    let probe_answers: Vec<ProbeResponse> = probes
        .iter()
        .map(|p| shard0.probe(p).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let probe_answer_lines: Vec<String> = probe_answers.iter().map(ProbeResponse::encode).collect();
    out.insert(
        "probe.encode_request_us",
        per_item_us(&probes, |p| {
            std::hint::black_box(p.encode());
        }),
    );
    out.insert(
        "probe.decode_request_us",
        per_item_us(&probe_lines, |l| {
            std::hint::black_box(ProbeRequest::decode(l).expect("own encoding decodes"));
        }),
    );
    out.insert(
        "probe.encode_response_us",
        per_item_us(&probe_answers, |r| {
            std::hint::black_box(r.encode());
        }),
    );
    out.insert(
        "probe.decode_response_us",
        per_item_us(&probe_answer_lines, |l| {
            std::hint::black_box(ProbeResponse::decode(l).expect("own encoding decodes"));
        }),
    );
    out.insert("probe.request_bytes_p50", median_len(&probe_lines));

    // remote: a probe straight at shard server 0 (the one server where the
    // topology has no shard servers), and what the gateway adds.
    let shard_addr = deployed
        .topology
        .shard_addrs
        .first()
        .unwrap_or(&deployed.topology.addr);
    let mut shard_client =
        Client::connect(shard_addr.as_str()).map_err(|e| format!("{shard_addr}: {e}"))?;
    let mut rtts = Vec::new();
    for probe in probes.iter().cycle().take(300) {
        let start = Instant::now();
        shard_client
            .probe(probe)
            .map_err(|e| format!("probe: {e}"))?;
        rtts.push(start.elapsed().as_secs_f64() * 1e6);
    }
    shard_client.quit();
    out.insert("remote.probe_rtt_us", median(&rtts));
    out.insert(
        "remote.gateway_overhead_point_us",
        point_p50_us - sharded_point_us,
    );

    // server: opaque from outside — round trips and its own counters.
    let pings: Vec<f64> = (0..2000)
        .map(|_| {
            let start = Instant::now();
            client.ping().map(|()| start.elapsed().as_secs_f64() * 1e6)
        })
        .collect::<Result<_, _>>()
        .map_err(|e| format!("ping: {e}"))?;
    out.insert("server.ping_rtt_us", median(&pings));
    out.insert(
        "server.wire_overhead_point_us",
        point_p50_us - execute_point_us,
    );
    let requests = ctx.samples.counted_requests.max(1) as f64;
    out.insert(
        "server.bytes_in_per_req",
        ctx.samples.bytes_in as f64 / requests,
    );
    out.insert(
        "server.bytes_out_per_req",
        ctx.samples.bytes_out as f64 / requests,
    );
    out.insert("server.closed_loop_rps_2conn", closed_loop_rps_2conn(ctx)?);
    out.insert("server.pipelined_rps", pipelined_rps(ctx)?);
    let server = client
        .server_stats()
        .map_err(|e| format!("stats server: {e}"))?;
    out.insert("server.shed_total", server.shed_total as f64);
    out.insert(
        "server.dispatch_depth_max",
        ctx.samples.dispatch_depth_max.max(server.dispatch_depth) as f64,
    );

    // ingest: the live pipeline's own counters where there is one.
    let batch = live_batches(deployed, 1).swap_remove(0);
    let batch_table =
        Table::from_rows(schema.clone(), batch.iter().cloned()).map_err(|e| e.to_string())?;
    let start = Instant::now();
    fit_segment(&batch_table, &deployed.multi, &SolverConfig::default())
        .map_err(|e| e.to_string())?;
    out.insert("ingest.fit_segment_ms", start.elapsed().as_secs_f64() * 1e3);
    out.insert("ingest.append_ack_us", median(&ctx.samples.append_ack_us));
    let ingest = client
        .ingest_stats()
        .map_err(|e| format!("stats ingest: {e}"))?;
    let fold_ms = match ingest {
        Some(_) => median(
            &ctx.samples
                .append_visible_ms
                .iter()
                .zip(&ctx.samples.append_ack_us)
                .map(|(visible, ack)| visible - ack / 1e3)
                .collect::<Vec<_>>(),
        ),
        None => in_process_fold_ms(ctx, &batch)?,
    };
    out.insert("ingest.fold_ms", fold_ms);
    let ingest = ingest.unwrap_or_default();
    out.insert("ingest.folds", ingest.folds as f64);
    out.insert("ingest.appended_rows", ingest.appended_rows as f64);
    out.insert("ingest.duplicate_appends", ingest.duplicate_appends as f64);
    let point_at = |keep: fn(f64) -> bool| {
        let kept: Vec<f64> = ctx.samples.fresh_us[Kind::Point.index()]
            .iter()
            .zip(&ctx.samples.point_progress)
            .filter(|(_, &at)| keep(at))
            .map(|(&us, _)| us)
            .collect();
        median(&kept)
    };
    // Eight of forty-eight batches: the first and last sixth of the phase.
    out.insert("ingest.point_p50_first8_us", point_at(|at| at < 1.0 / 6.0));
    out.insert("ingest.point_p50_last8_us", point_at(|at| at >= 5.0 / 6.0));

    // sampling: the paper's comparison line, a 1 % uniform sample.
    let sample = uniform_sample(ctx.table, 0.01, 17).map_err(|e| e.to_string())?;
    let baseline = accuracy::evaluate(ctx.table, &deployed.dataset, |pred| {
        sample.estimate_count(pred).expect("valid predicate")
    })?;
    out.insert("sampling.uniform_rel_err_heavy", baseline.rel_err_heavy);
    out.insert("sampling.uniform_rel_err_light", baseline.rel_err_light);
    out.insert("sampling.uniform_f_measure_null", baseline.f_measure_null);
    out.insert(
        "sampling.uniform_range_us",
        per_item_us(&by_kind[Kind::Range.index()], |item| {
            let pred = item.request.predicate().expect("count has a predicate");
            std::hint::black_box(sample.estimate_count(pred).expect("valid predicate"));
        }),
    );
    Ok(out)
}
