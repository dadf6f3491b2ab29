//! The query-IR contract: wire round-trips are the identity on randomized
//! requests, and `QueryEngine::execute` answers bit-identically to every
//! typed surface on the monolithic, sharded and live backends.

use entropydb_core::engine::{QueryApi, QueryEngine};
use entropydb_core::ingest::{IngestConfig, LiveSummary};
use entropydb_core::model::MaxEntSummary;
use entropydb_core::plan::{QueryRequest, QueryResponse};
use entropydb_core::probe::{ProbeRequest, ProbeResponse};
use entropydb_core::rng::SplitMix64;
use entropydb_core::sharded::{ShardedBuildConfig, ShardedSummary};
use entropydb_core::solver::SolverConfig;
use entropydb_core::statistics::MultiDimStatistic;
use entropydb_storage::{
    AttrId, AttrPredicate, Attribute, Binner, Partitioning, Predicate, Schema, Table,
};

fn a(i: usize) -> AttrId {
    AttrId(i)
}

// ---- randomized wire round-trips -------------------------------------------

fn rand_clause(rng: &mut SplitMix64) -> AttrPredicate {
    match rng.next_u64() % 5 {
        0 => AttrPredicate::All,
        1 => AttrPredicate::Never,
        2 => AttrPredicate::Point(rng.next_u64() as u32 % 1000),
        3 => {
            let x = rng.next_u64() as u32 % 1000;
            let y = rng.next_u64() as u32 % 1000;
            AttrPredicate::range(x.min(y), x.max(y)).expect("ordered")
        }
        _ => {
            let len = 1 + rng.next_u64() as usize % 6;
            AttrPredicate::set((0..len).map(|_| rng.next_u64() as u32 % 1000).collect())
        }
    }
}

fn rand_pred(rng: &mut SplitMix64) -> Predicate {
    let clauses = rng.next_u64() as usize % 4;
    let mut pred = Predicate::new();
    for _ in 0..clauses {
        let attr = a(rng.next_u64() as usize % 8);
        pred = pred.with(attr, rand_clause(rng));
    }
    pred
}

fn rand_request(rng: &mut SplitMix64) -> QueryRequest {
    let attr = a(rng.next_u64() as usize % 8);
    match rng.next_u64() % 8 {
        0 => QueryRequest::probability(rand_pred(rng)),
        1 => QueryRequest::count(rand_pred(rng)),
        2 => QueryRequest::sum(rand_pred(rng), attr),
        3 => QueryRequest::avg(rand_pred(rng), attr),
        4 => QueryRequest::group_by(rand_pred(rng), attr),
        5 => QueryRequest::group_by2(rand_pred(rng), attr, a(rng.next_u64() as usize % 8)),
        6 => QueryRequest::top_k(rand_pred(rng), attr, rng.next_u64() as usize % 20),
        _ => QueryRequest::sample_rows(rng.next_u64() as usize % 500, rng.next_u64()),
    }
}

/// encode → decode → encode is the identity (and decode inverts encode) on
/// randomized requests.
#[test]
fn request_wire_round_trip_is_identity() {
    let mut rng = SplitMix64::new(0xC0FFEE);
    for i in 0..2000 {
        let req = rand_request(&mut rng);
        let line = req.encode();
        let decoded = QueryRequest::decode(&line).unwrap_or_else(|e| {
            panic!("iteration {i}: cannot decode {line:?}: {e}");
        });
        assert_eq!(decoded, req, "iteration {i}: {line}");
        assert_eq!(decoded.encode(), line, "iteration {i}");
    }
}

/// Randomized responses round-trip bit-exactly, including float payloads
/// produced from raw bit patterns.
#[test]
fn response_wire_round_trip_is_identity() {
    let mut rng = SplitMix64::new(0xBEEF);
    let mut rand_f64 = |rng: &mut SplitMix64| loop {
        // Arbitrary finite doubles, including subnormals and negatives.
        let x = f64::from_bits(rng.next_u64());
        if x.is_finite() {
            return x;
        }
    };
    for i in 0..2000 {
        let e = |rng: &mut SplitMix64, f: &mut dyn FnMut(&mut SplitMix64) -> f64| {
            entropydb_core::query::Estimate {
                expectation: f(rng),
                variance: f(rng),
            }
        };
        let resp = match rng.next_u64() % 7 {
            0 => QueryResponse::Probability(rand_f64(&mut rng)),
            1 => QueryResponse::Estimate(e(&mut rng, &mut rand_f64)),
            2 => QueryResponse::Average(if rng.next_u64().is_multiple_of(2) {
                None
            } else {
                Some(rand_f64(&mut rng))
            }),
            3 => {
                let len = rng.next_u64() as usize % 9;
                QueryResponse::Groups((0..len).map(|_| e(&mut rng, &mut rand_f64)).collect())
            }
            4 => {
                let rows = rng.next_u64() as usize % 5;
                let cols = 1 + rng.next_u64() as usize % 4;
                QueryResponse::Groups2(
                    (0..rows)
                        .map(|_| (0..cols).map(|_| e(&mut rng, &mut rand_f64)).collect())
                        .collect(),
                )
            }
            5 => {
                let len = rng.next_u64() as usize % 9;
                QueryResponse::Ranked(
                    (0..len)
                        .map(|_| (rng.next_u64() as u32, e(&mut rng, &mut rand_f64)))
                        .collect(),
                )
            }
            _ => {
                let rows = rng.next_u64() as usize % 6;
                let arity = 1 + rng.next_u64() as usize % 4;
                QueryResponse::Rows {
                    arity,
                    rows: (0..rows)
                        .map(|_| (0..arity).map(|_| rng.next_u64() as u32).collect())
                        .collect(),
                }
            }
        };
        let line = resp.encode();
        let decoded = QueryResponse::decode(&line).unwrap_or_else(|e| {
            panic!("iteration {i}: cannot decode {line:?}: {e}");
        });
        // Bit-exact comparison: encode again and compare the text, which
        // covers every float's exact bits (shortest-round-trip formatting
        // is injective on distinct bit patterns, -0.0 included).
        assert_eq!(decoded.encode(), line, "iteration {i}");
        assert_eq!(decoded, resp, "iteration {i}: {line}");
    }
}

// ---- engine parity ----------------------------------------------------------

fn table() -> Table {
    let schema = Schema::new(vec![
        Attribute::categorical("x", 3).unwrap(),
        Attribute::categorical("y", 4).unwrap(),
        Attribute::binned("w", Binner::new(0.0, 80.0, 4).unwrap()),
    ]);
    let mut t = Table::new(schema);
    let mut v = 5u32;
    for _ in 0..80 {
        t.push_row(&[v % 3, (v / 3) % 4, (v / 12) % 4]).unwrap();
        v = v.wrapping_mul(13).wrapping_add(7);
    }
    t
}

fn monolithic() -> MaxEntSummary {
    let stat = MultiDimStatistic::cell2d(a(0), 0, a(1), 0).unwrap();
    MaxEntSummary::build(&table(), vec![stat], &SolverConfig::default()).unwrap()
}

fn sharded(k: usize) -> ShardedSummary {
    let stat = MultiDimStatistic::cell2d(a(0), 0, a(1), 0).unwrap();
    ShardedSummary::build(
        &table(),
        &Partitioning::hash(k),
        vec![stat],
        &ShardedBuildConfig::default(),
    )
    .unwrap()
}

/// A live backend over two base shards whose one append has been folded
/// synchronously into its delta model.
fn live() -> LiveSummary {
    let stat = MultiDimStatistic::cell2d(a(0), 0, a(1), 0).unwrap();
    let config = IngestConfig {
        delta_rows: 8,
        seal_rows: 1 << 20,
        background: false,
    };
    let live = LiveSummary::new(sharded(2), vec![stat], SolverConfig::default(), config).unwrap();
    let rows: Vec<Vec<u32>> = (0..8u32).map(|i| vec![i % 3, i % 4, i / 2 % 4]).collect();
    live.append_rows(&rows, None).unwrap();
    assert_eq!(live.staged_rows(), 0, "the append folded");
    live
}

fn assert_estimates_bitwise(
    l: &entropydb_core::query::Estimate,
    r: &entropydb_core::query::Estimate,
) {
    assert_eq!(l.expectation.to_bits(), r.expectation.to_bits());
    assert_eq!(l.variance.to_bits(), r.variance.to_bits());
}

/// `execute(ir)` is bitwise-identical to the typed wrapper for every
/// request variant. Exercised through the generic engine, so it covers any
/// `SummaryBackend`.
fn check_engine_parity<B: entropydb_core::engine::SummaryBackend>(engine: &QueryEngine<B>) {
    let pred = Predicate::new().eq(a(0), 1).between(a(1), 0, 2);

    let typed = engine.probability(&pred).unwrap();
    let via_ir = engine
        .execute(&QueryRequest::probability(pred.clone()))
        .unwrap()
        .probability()
        .unwrap();
    assert_eq!(typed.to_bits(), via_ir.to_bits());

    let typed = engine.estimate_count(&pred).unwrap();
    let via_ir = engine
        .execute(&QueryRequest::count(pred.clone()))
        .unwrap()
        .estimate()
        .unwrap();
    assert_estimates_bitwise(&typed, &via_ir);

    let typed = engine.estimate_sum(&pred, a(2)).unwrap();
    let via_ir = engine
        .execute(&QueryRequest::sum(pred.clone(), a(2)))
        .unwrap()
        .estimate()
        .unwrap();
    assert_estimates_bitwise(&typed, &via_ir);

    let typed = engine.estimate_avg(&pred, a(2)).unwrap();
    let via_ir = engine
        .execute(&QueryRequest::avg(pred.clone(), a(2)))
        .unwrap()
        .average()
        .unwrap();
    assert_eq!(typed.map(f64::to_bits), via_ir.map(f64::to_bits));

    let typed = engine.estimate_group_by(&pred, a(1)).unwrap();
    let via_ir = engine
        .execute(&QueryRequest::group_by(pred.clone(), a(1)))
        .unwrap()
        .groups()
        .unwrap();
    assert_eq!(typed.len(), via_ir.len());
    for (l, r) in typed.iter().zip(&via_ir) {
        assert_estimates_bitwise(l, r);
    }

    let typed = engine.estimate_group_by2(&pred, a(0), a(1)).unwrap();
    let via_ir = engine
        .execute(&QueryRequest::group_by2(pred.clone(), a(0), a(1)))
        .unwrap()
        .groups2()
        .unwrap();
    assert_eq!(typed.len(), via_ir.len());
    for (lrow, rrow) in typed.iter().zip(&via_ir) {
        for (l, r) in lrow.iter().zip(rrow) {
            assert_estimates_bitwise(l, r);
        }
    }

    let typed = engine.top_k(&pred, a(1), 3).unwrap();
    let via_ir = engine
        .execute(&QueryRequest::top_k(pred.clone(), a(1), 3))
        .unwrap()
        .ranked()
        .unwrap();
    assert_eq!(typed.len(), via_ir.len());
    for ((lv, le), (rv, re)) in typed.iter().zip(&via_ir) {
        assert_eq!(lv, rv);
        assert_estimates_bitwise(le, re);
    }

    let typed = engine.sample_rows(40, 11).unwrap();
    let (arity, rows) = engine
        .execute(&QueryRequest::sample_rows(40, 11))
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(arity, typed.schema().arity());
    assert_eq!(rows.len(), typed.num_rows());
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row.as_slice(), typed.row(i).unwrap(), "sampled row {i}");
    }

    // How a draw is cut never changes it: the same indices asked whole or
    // in pieces draw the same rows, and the rows `sample_rows` returned.
    let draw = |indices: std::ops::Range<u64>| {
        let request = ProbeRequest::SampleAt {
            k: 40,
            seed: 11,
            indices: indices.collect(),
        };
        match engine.probe(&request).unwrap() {
            ProbeResponse::Rows { rows, .. } => rows,
            other => panic!("a draw answered {other:?}"),
        }
    };
    let whole = draw(0..40);
    assert_eq!(whole, rows);
    let pieces: Vec<Vec<u32>> = [0..1, 1..17, 17..40].into_iter().flat_map(draw).collect();
    assert_eq!(pieces, whole);

    // Batches equal element-wise singles.
    let requests = vec![
        QueryRequest::count(pred.clone()),
        QueryRequest::top_k(Predicate::all(), a(0), 2),
        QueryRequest::count(Predicate::new().eq(a(9), 0)), // invalid: stays Err in place
        QueryRequest::sample_rows(5, 3),
    ];
    let batch = engine.execute_batch(&requests);
    assert_eq!(batch.len(), requests.len());
    for (req, got) in requests.iter().zip(batch) {
        match (engine.execute(req), got) {
            (Ok(single), Ok(batched)) => assert_eq!(single, batched, "{}", req.encode()),
            (Err(_), Err(_)) => {}
            (single, batched) => panic!("{}: {single:?} vs {batched:?}", req.encode()),
        }
    }
}

#[test]
fn engine_parity_on_monolithic_backend() {
    check_engine_parity(&QueryEngine::new(monolithic()));
}

#[test]
fn engine_parity_on_sharded_backend() {
    check_engine_parity(&QueryEngine::new(sharded(3)));
    // One shard is the bitwise-monolithic case.
    check_engine_parity(&QueryEngine::new(sharded(1)));
}

#[test]
fn engine_parity_on_live_backend() {
    check_engine_parity(&QueryEngine::new(live()));
}

/// The backends' inherent typed APIs agree bitwise with the engine's IR
/// path (they are thin wrappers over it).
#[test]
fn inherent_apis_match_engine_execute() {
    let pred = Predicate::new().between(a(1), 1, 3);

    let summary = monolithic();
    let engine = QueryEngine::new(monolithic());
    let direct = summary.estimate_count(&pred).unwrap();
    let via_engine = engine
        .execute(&QueryRequest::count(pred.clone()))
        .unwrap()
        .estimate()
        .unwrap();
    assert_estimates_bitwise(&direct, &via_engine);

    let sharded_summary = sharded(3);
    let sharded_engine = QueryEngine::new(sharded(3));
    let direct = sharded_summary.top_k(&pred, a(0), 2).unwrap();
    let via_engine = sharded_engine
        .execute(&QueryRequest::top_k(pred.clone(), a(0), 2))
        .unwrap()
        .ranked()
        .unwrap();
    assert_eq!(direct.len(), via_engine.len());
    for ((lv, le), (rv, re)) in direct.iter().zip(&via_engine) {
        assert_eq!(lv, rv);
        assert_estimates_bitwise(le, re);
    }
}

/// A predicate with an explicit Never clause estimates exactly zero on the
/// model path (the executor-side behavior is covered in storage tests).
#[test]
fn never_predicate_estimates_zero() {
    let engine = QueryEngine::new(monolithic());
    let pred = Predicate::new().in_set(a(0), vec![]);
    let est = engine.estimate_count(&pred).unwrap();
    assert_eq!(est.expectation, 0.0);
    assert_eq!(engine.probability(&pred).unwrap(), 0.0);
    // Same through the wire encoding.
    let line = QueryRequest::count(pred).encode();
    let decoded = QueryRequest::decode(&line).unwrap();
    let est = engine.execute(&decoded).unwrap().estimate().unwrap();
    assert_eq!(est.expectation, 0.0);
}
