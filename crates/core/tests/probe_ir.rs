//! Shard-probe execution parity: a probe answered through
//! `QueryEngine::probe` (the server-side path) equals the direct backend
//! call it transports, bitwise, on both backends — and probe wire
//! round-trips preserve those answers exactly.

use entropydb_core::assignment::Mask;
use entropydb_core::engine::{ScratchPool, SummaryBackend};
use entropydb_core::model::MaxEntSummary;
use entropydb_core::probe::{ProbeRequest, ProbeResponse};
use entropydb_core::scatter::ShardProbe;
use entropydb_core::sharded::{ShardedBuildConfig, ShardedSummary};
use entropydb_core::solver::SolverConfig;
use entropydb_core::statistics::MultiDimStatistic;
use entropydb_storage::{AttrId, Attribute, Binner, Partitioning, Predicate, Schema, Table};

fn a(i: usize) -> AttrId {
    AttrId(i)
}

fn table() -> Table {
    let schema = Schema::new(vec![
        Attribute::categorical("x", 3).unwrap(),
        Attribute::categorical("y", 4).unwrap(),
        Attribute::binned("z", Binner::new(0.0, 80.0, 5).unwrap()),
    ]);
    let mut t = Table::new(schema);
    let mut v = 2u32;
    for _ in 0..120 {
        t.push_row(&[v % 3, (v / 3) % 4, (v / 12) % 5]).unwrap();
        v = v.wrapping_mul(7).wrapping_add(5);
    }
    t
}

fn monolithic() -> MaxEntSummary {
    let multi = vec![MultiDimStatistic::cell2d(a(0), 0, a(1), 0).unwrap()];
    MaxEntSummary::build(&table(), multi, &SolverConfig::default()).unwrap()
}

fn sharded() -> ShardedSummary {
    let multi = vec![MultiDimStatistic::cell2d(a(0), 0, a(1), 0).unwrap()];
    ShardedSummary::build(
        &table(),
        &Partitioning::hash(3),
        multi,
        &ShardedBuildConfig::default(),
    )
    .unwrap()
}

fn query_mask<B: SummaryBackend>(backend: &B, pred: &Predicate) -> Mask {
    Mask::from_predicate(pred, backend.domain_sizes()).unwrap()
}

fn check_backend<B: SummaryBackend>(backend: B) {
    let pred = Predicate::new().eq(a(0), 1).between(a(2), 1, 3);
    let mask = query_mask(&backend, &pred);
    let mut scratch = backend.make_scratch();
    let pool = ScratchPool::new();
    let engine_probe = |req: &ProbeRequest| {
        // Wire round trip on the way in and out, like a real serving hop.
        let req = ProbeRequest::decode(&req.encode()).unwrap();
        let resp = entropydb_core::probe::execute(&backend, &pool, &req).unwrap();
        ProbeResponse::decode(&resp.encode()).unwrap()
    };

    let direct = backend.probability_under_mask(&mask, &mut scratch).unwrap();
    match engine_probe(&ProbeRequest::Probability { mask: mask.clone() }) {
        ProbeResponse::Probability(p) => assert_eq!(p.to_bits(), direct.to_bits()),
        other => panic!("bad shape {other:?}"),
    }

    let direct = backend.count_under_mask(&mask, &mut scratch).unwrap();
    match engine_probe(&ProbeRequest::Count { mask: mask.clone() }) {
        ProbeResponse::Estimate(e) => {
            assert_eq!(e.expectation.to_bits(), direct.expectation.to_bits());
            assert_eq!(e.variance.to_bits(), direct.variance.to_bits());
        }
        other => panic!("bad shape {other:?}"),
    }

    let values: Vec<f64> = (0..backend.domain_sizes()[2])
        .map(|v| v as f64 * 2.5)
        .collect();
    let direct = backend
        .sum_under_mask(&mask, a(2), &values, &mut scratch)
        .unwrap();
    let probe = ProbeRequest::Sum {
        mask: mask.clone(),
        attr: a(2),
        values: values.clone(),
    };
    match engine_probe(&probe) {
        ProbeResponse::Estimate(e) => {
            assert_eq!(e.expectation.to_bits(), direct.expectation.to_bits())
        }
        other => panic!("bad shape {other:?}"),
    }

    let direct = backend
        .group_by_under_mask(&mask, a(1), &mut scratch)
        .unwrap();
    match engine_probe(&ProbeRequest::GroupBy {
        mask: mask.clone(),
        attr: a(1),
    }) {
        ProbeResponse::Groups(groups) => {
            assert_eq!(groups.len(), direct.len());
            for (g, d) in groups.iter().zip(&direct) {
                assert_eq!(g.expectation.to_bits(), d.expectation.to_bits());
            }
        }
        other => panic!("bad shape {other:?}"),
    }

    // SampleAt reproduces exactly the rows the backend's own sample plan
    // draws at those global indices.
    let k = 17;
    let seed = 99;
    let plan = backend.plan_samples(k, seed).unwrap();
    let arity = backend.domain_sizes().len();
    let indices: Vec<u64> = vec![0, 3, 16];
    let direct_rows: Vec<Vec<u32>> = indices
        .iter()
        .map(|&i| {
            let mut row = vec![0u32; arity];
            backend
                .sample_tuple(&plan, i as usize, seed, &mut row, &mut scratch)
                .unwrap();
            row
        })
        .collect();
    match engine_probe(&ProbeRequest::SampleAt { k, seed, indices }) {
        ProbeResponse::Rows { rows, .. } => assert_eq!(rows, direct_rows),
        other => panic!("bad shape {other:?}"),
    }

    // Malformed shapes are rejected, not misanswered.
    let bad = |req: &ProbeRequest| entropydb_core::probe::execute(&backend, &pool, req).is_err();
    assert!(bad(&ProbeRequest::Probability {
        mask: Mask::identity(arity + 1),
    }));
    assert!(bad(&ProbeRequest::Sum {
        mask: mask.clone(),
        attr: a(2),
        values: vec![1.0],
    }));
    assert!(bad(&ProbeRequest::SampleAt {
        k: 5,
        seed: 1,
        indices: vec![5],
    }));
}

#[test]
fn probes_match_direct_backend_calls_monolithic() {
    check_backend(monolithic());
}

#[test]
fn probes_match_direct_backend_calls_sharded() {
    check_backend(sharded());
}

/// The in-process `ShardProbe` impl (the local side of the scatter layer)
/// runs the served dispatch: `probe` equals `probe::execute`, which the
/// checks above tie to the backend primitives.
#[test]
fn local_shard_probe_matches_backend_primitives() {
    let model = monolithic();
    let pred = Predicate::new().eq(a(1), 2);
    let mask = query_mask(&model, &pred);
    let mut ps = model.make_probe_scratch();
    let mut bs = SummaryBackend::make_scratch(&model);
    assert_eq!(model.shard_n(), model.n());
    let pool = ScratchPool::new();
    let sample = ProbeRequest::SampleAt {
        k: 9,
        seed: 4,
        indices: vec![1, 7],
    };
    for request in [ProbeRequest::Count { mask: mask.clone() }, sample.clone()] {
        let served = entropydb_core::probe::execute(&model, &pool, &request).unwrap();
        assert_eq!(model.probe(&request, &mut ps).unwrap(), served);
    }
    let count = model.count_under_mask(&mask, &mut bs).unwrap();
    let probed = model.probe(&ProbeRequest::Count { mask }, &mut ps).unwrap();
    assert_eq!(probed.encode(), ProbeResponse::Estimate(count).encode());
    let ProbeResponse::Rows { rows, .. } = model.probe(&sample, &mut ps).unwrap() else {
        panic!("a sample probe answers rows")
    };
    for (&i, row) in [1u64, 7].iter().zip(&rows) {
        let mut direct = vec![0u32; model.domain_sizes().len()];
        model
            .sample_tuple(&(), i as usize, 4, &mut direct, &mut bs)
            .unwrap();
        assert_eq!(row, &direct);
    }
}
