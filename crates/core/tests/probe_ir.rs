//! Probe execution parity: the one probe table (`support/probes.rs`, every
//! `ProbeRequest` variant) answers bitwise identically on monolithic =
//! 1-shard sharded and on k-shard sharded = live over k base shards; a
//! probe served through `QueryEngine::probe` behind a wire round trip
//! equals the direct `probe` call; malformed shapes are rejected; and
//! pruning by support is invisible — at work on range-partitioned shards,
//! idle on hash-partitioned ones.

use entropydb_core::assignment::Mask;
use entropydb_core::engine::{QueryEngine, SummaryBackend};
use entropydb_core::ingest::{IngestConfig, LiveSummary};
use entropydb_core::model::MaxEntSummary;
use entropydb_core::probe::{ProbeRequest, ProbeResponse};
use entropydb_core::sharded::{ShardedBuildConfig, ShardedSummary};
use entropydb_core::solver::SolverConfig;
use entropydb_core::statistics::MultiDimStatistic;
use entropydb_storage::{AttrId, Attribute, Binner, Partitioning, Schema, Table};

#[path = "support/probes.rs"]
mod probes;

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

fn multi() -> Vec<MultiDimStatistic> {
    vec![MultiDimStatistic::cell2d(a(0), 0, a(1), 0).unwrap()]
}

fn monolithic() -> MaxEntSummary {
    MaxEntSummary::build(&table(), multi(), &SolverConfig::default()).unwrap()
}

fn sharded() -> ShardedSummary {
    ShardedSummary::build(
        &table(),
        &Partitioning::hash(3),
        multi(),
        &ShardedBuildConfig::default(),
    )
    .unwrap()
}

/// The range-partitioned fixture: three shards with disjoint supports.
fn range_sharded() -> ShardedSummary {
    let (table, partitioning, multi) = probes::range_fixture();
    ShardedSummary::build(&table, &partitioning, multi, &Default::default()).unwrap()
}

/// A live summary over `base`'s shards with nothing appended.
fn live(base: ShardedSummary) -> LiveSummary {
    let config = IngestConfig {
        background: false,
        ..IngestConfig::default()
    };
    LiveSummary::new(base, multi(), SolverConfig::default(), config).unwrap()
}

#[test]
fn probe_table_is_bitwise_across_backends() {
    let mono = monolithic();
    let one_shard = ShardedSummary::from_shards(vec![mono.clone()]).unwrap();
    probes::assert_probe_parity(&mono, &one_shard);
    let sharded = sharded();
    probes::assert_probe_parity(&sharded, &live(sharded.clone()));
    let ranged = range_sharded();
    probes::assert_probe_parity(&ranged, &live(ranged.clone()));
}

/// Range-partitioned shards are pruned — each of them, by masks that are
/// not all zeros — and nobody can tell: see
/// [`probes::assert_pruning_is_invisible`]. Hash-partitioned shards each
/// support every code, so only an unsatisfiable mask is ever dropped there.
#[test]
fn pruning_is_invisible_on_range_shards_and_idle_on_hash_shards() {
    let unsatisfiable = |mask: &Mask| {
        let all_zero = |w: &[f64]| w.iter().all(|&w| w == 0.0);
        (0..mask.arity()).any(|attr| mask.attr_weights(attr).is_some_and(all_zero))
    };
    let ranged = range_sharded();
    assert_eq!(ranged.num_shards(), 3);
    let pruned = probes::assert_pruning_is_invisible(ranged.shards(), ranged.domain_sizes());
    for shard in 0..3 {
        let real = |(s, mask): &(usize, Mask)| *s == shard && !unsatisfiable(mask);
        assert!(pruned.iter().any(real), "shard {shard} is never pruned");
    }
    let hashed = sharded();
    let pruned = probes::assert_pruning_is_invisible(hashed.shards(), hashed.domain_sizes());
    assert!(pruned.iter().all(|(_, mask)| unsatisfiable(mask)));
}

/// A probe answered through `QueryEngine::probe` behind a wire round trip
/// on the way in and out — a real serving hop — equals the direct call.
fn check_served<B: SummaryBackend>(backend: B) {
    let engine = QueryEngine::new(backend);
    let sizes = engine.backend().domain_sizes().to_vec();
    for request in probes::probe_table(&sizes) {
        let decoded = ProbeRequest::decode(&request.encode()).unwrap();
        let served = engine.probe(&decoded).unwrap().encode();
        let direct = probes::probe(engine.backend(), &request);
        assert_eq!(served, direct.encode(), "{}", request.encode());
        assert_eq!(ProbeResponse::decode(&served).unwrap().encode(), served);
    }
    probes::assert_sparse_sample_matches_full_draw(&engine);

    // Malformed shapes are rejected, not misanswered — where outside bytes
    // enter, and again by the backend itself. A mask weight must be finite
    // and non-negative: a NaN used to answer 0, an infinity n.
    let mask = Mask::identity(sizes.len());
    let weighing = |x: f64| {
        let mut weights = vec![None; sizes.len()];
        weights[0] = Some(vec![x, 1.0, 0.0]);
        ProbeRequest::Count {
            mask: Mask::from_weights(weights),
        }
    };
    let bad_weights = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -5.0, -1e-300];
    for bad in bad_weights.map(weighing).into_iter().chain([
        ProbeRequest::Probability {
            mask: Mask::identity(sizes.len() + 1),
        },
        ProbeRequest::Sum {
            mask: mask.clone(),
            attr: a(2),
            values: vec![1.0],
        },
        ProbeRequest::GroupBy {
            mask,
            attr: a(sizes.len()),
        },
        ProbeRequest::SampleAt {
            k: 5,
            seed: 1,
            indices: vec![5],
        },
    ]) {
        assert!(engine.probe(&bad).is_err(), "{bad:?}");
        let wire = ProbeRequest::decode(&bad.encode()).unwrap();
        assert!(engine.probe(&wire).is_err(), "{}", bad.encode());
        let backend = engine.backend();
        let direct = backend.probe(&bad, &mut backend.make_scratch());
        assert!(direct.is_err(), "{bad:?}");
    }
}

#[test]
fn served_probes_match_direct_probes_monolithic() {
    check_served(monolithic());
}

#[test]
fn served_probes_match_direct_probes_sharded() {
    check_served(sharded());
}

#[test]
fn served_probes_match_direct_probes_live() {
    check_served(live(sharded()));
}
