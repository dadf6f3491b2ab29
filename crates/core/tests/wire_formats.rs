//! Golden bytes and hostile bytes for every line format the core crate
//! reads or writes: the `q1`/`r1`/`b1`/`c1` wire lines, the summary blob
//! (v2), the directory manifest (v2, v3) and the cluster manifest (v2).
//!
//! The golden half pins each encoder's output byte for byte (a round trip
//! cannot see a symmetric change; the expected strings were recorded at
//! the commit before the formats moved onto `entropydb_core::wire`) and
//! parses checked-in documents of every version still read. The hostile
//! half feeds each decoder every token-boundary truncation of a golden
//! input, an oversized count in every count position and a trailing junk
//! token: always an `Err`, never a panic or an allocation sized by the
//! input. Documents of the formats no longer read (the v1 blob, the v1
//! cluster manifest, the single-file sharded summary) are refused at their
//! header line.

use entropydb_core::assignment::{Mask, VarAssignment};
use entropydb_core::error::ModelError;
use entropydb_core::ingest::{IngestConfig, LiveSummary};
use entropydb_core::model::MaxEntSummary;
use entropydb_core::plan::{QueryRequest, QueryResponse};
use entropydb_core::probe::{ProbeRequest, ProbeResponse};
use entropydb_core::query::Estimate;
use entropydb_core::scatter::ShardProbe;
use entropydb_core::serialize::{self, ClusterShard};
use entropydb_core::sharded::ShardedSummary;
use entropydb_core::solver::{SolverConfig, SolverReport};
use entropydb_core::statistics::{MultiDimStatistic, Statistics};
use entropydb_storage::{AttrId, AttrPredicate, Attribute, Binner, Predicate, Schema};
use std::path::{Path, PathBuf};

#[path = "support/hostile.rs"]
mod hostile;
use hostile::{hostile_documents, truncations, with_token, DEAD_PROBE_LINES, OVERSIZED};

const BLOB: &str = "\
entropydb-summary v2
n 20
attrs 2
attr 0 3 cat origin airport
attr 1 4 bin -2.5 800 distance
onedim 0 7 0.5 8 1.25 5 0.30000000000000004
onedim 1 4 1 6 2 3 0.001 7 3.5
multis 2
multi 3 1.5 2 0 0 0 1 0 0
multi 6 0.75 2 0 1 2 1 2 3
report 12 0.0000000015 true
end
";

/// The same model with every count doubled (the second shard).
const BLOB_X2: &str = "\
entropydb-summary v2
n 40
attrs 2
attr 0 3 cat origin airport
attr 1 4 bin -2.5 800 distance
onedim 0 14 0.5 16 1.25 10 0.30000000000000004
onedim 1 8 1 12 2 6 0.001 14 3.5
multis 2
multi 6 1.5 2 0 0 0 1 0 0
multi 12 0.75 2 0 1 2 1 2 3
report 12 0.0000000015 true
end
";

/// `BLOB` as v1 wrote it (no attribute kinds): no longer read.
const BLOB_V1: &str = "\
entropydb-summary v1
n 20
attrs 2
attr 0 3 origin airport
attr 1 4 distance
onedim 0 7 0.5 8 1.25 5 0.30000000000000004
onedim 1 4 1 6 2 3 0.001 7 3.5
multis 2
multi 3 1.5 2 0 0 0 1 0 0
multi 6 0.75 2 0 1 2 1 2 3
report 12 0.0000000015 true
end
";

const MANIFEST_V2: &str = "\
entropydb-sharded-manifest v2
shards 2
shard 0 20 shard-0.summary
shard 1 40 shard-1.summary
end
";

const MANIFEST_V3: &str = "\
entropydb-sharded-manifest v3
epoch 1
shards 2
shard 0 20 shard-0.summary
shard 1 40 shard-1.summary
delta 24 delta.summary
stats 2
stat 2 0 0 0 1 0 0
stat 2 0 1 2 1 2 3
end
";

const CLUSTER_V2: &str = "\
entropydb-cluster-manifest v2
shards 2
shard 0 40 127.0.0.1:4151 10.0.0.9:4151
shard 1 0 shard-1.internal:4141
end
";

/// A v1 cluster manifest (one address per shard): no longer read.
const CLUSTER_V1: &str = "\
entropydb-cluster-manifest v1
shards 2
shard 0 40 127.0.0.1:4151
shard 1 20 10.0.0.7:4141
end
";

/// The single-file sharded summary (blobs embedded): no longer read.
fn sharded_doc() -> String {
    format!("entropydb-sharded-summary v2\nshards 2\nshard 0 20\n{BLOB}shard 1 40\n{BLOB_X2}endshards\n")
}

fn a(i: usize) -> AttrId {
    AttrId(i)
}

fn multi() -> Vec<MultiDimStatistic> {
    vec![
        MultiDimStatistic::cell2d(a(0), 0, a(1), 0).unwrap(),
        MultiDimStatistic::rect2d(a(0), (1, 2), a(1), (2, 3)).unwrap(),
    ]
}

/// A hand-assembled summary (no solver run, so its bytes do not depend on
/// floating-point behaviour): `scale` multiplies every count.
fn summary(scale: u64) -> MaxEntSummary {
    let schema = Schema::new(vec![
        Attribute::categorical("origin airport", 3).unwrap(),
        Attribute::binned("distance", Binner::new(-2.5, 800.0, 4).unwrap()),
    ]);
    let one_dim = vec![
        vec![7 * scale, 8 * scale, 5 * scale],
        vec![4 * scale, 6 * scale, 3 * scale, 7 * scale],
    ];
    let counts = vec![3 * scale, 6 * scale];
    let stats = Statistics::from_parts(20 * scale, vec![3, 4], one_dim, multi(), counts).unwrap();
    let assignment = VarAssignment {
        one_dim: vec![vec![0.5, 1.25, 0.1 + 0.2], vec![1.0, 2.0, 0.001, 3.5]],
        multi: vec![1.5, 0.75],
    };
    let report = SolverReport {
        sweeps: 12,
        max_residual: 1.5e-9,
        converged: true,
        skipped_updates: 0,
        dual_trajectory: Vec::new(),
        seconds: 0.0,
    };
    MaxEntSummary::from_solved_parts(schema, stats, assignment, report).unwrap()
}

fn sharded() -> ShardedSummary {
    ShardedSummary::from_shards(vec![summary(1), summary(2)]).unwrap()
}

fn cluster() -> Vec<ClusterShard> {
    vec![
        ClusterShard {
            index: 0,
            n: 40,
            addrs: vec!["127.0.0.1:4151".into(), "10.0.0.9:4151".into()],
        },
        ClusterShard::single(1, 0, "shard-1.internal:4141"),
    ]
}

/// A fresh scratch directory, removed when dropped.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("entropydb-wire-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    /// A manifest directory: `manifest` beside the blobs it may name.
    fn with_manifest(tag: &str, manifest: &str) -> Self {
        let dir = TempDir::new(tag);
        for (file, text) in [
            ("manifest.txt", manifest),
            ("shard-0.summary", BLOB),
            ("shard-1.summary", BLOB_X2),
            ("delta.summary", &BLOB.replace("n 20", "n 24")),
        ] {
            std::fs::write(dir.0.join(file), text).unwrap();
        }
        dir
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn read(path: &Path, file: &str) -> String {
    std::fs::read_to_string(path.join(file)).unwrap()
}

fn sync_ingest() -> IngestConfig {
    IngestConfig {
        delta_rows: 1 << 20,
        seal_rows: 1 << 20,
        background: false,
    }
}

type Decoder = fn(&str) -> bool;

/// The encoded five-clause predicate and two-attribute mask of `wire_lines`
/// (a predicate mask: each attribute's runs of ones).
macro_rules! p5 {
    () => {
        "p 5 0 pt 3 1 rng 2 5 2 set 2 1 7 3 n 4 a"
    };
}
macro_rules! m {
    () => {
        "m 2 r 3 1 1 1 r 4 1 1 2"
    };
}

/// Wire lines: the value's encoding, the expected bytes, whether the
/// decoder accepts a line, and the token positions holding a count.
fn wire_lines() -> Vec<(String, &'static str, Decoder, &'static [usize])> {
    let pred = Predicate::new()
        .eq(a(0), 3)
        .between(a(1), 2, 5)
        .in_set(a(2), vec![7, 1])
        .in_set(a(3), vec![])
        .with(a(4), AttrPredicate::All);
    let e = |expectation: f64, variance: f64| Estimate {
        expectation,
        variance,
    };
    let mask = Mask::from_predicate(&Predicate::new().eq(a(0), 1).between(a(1), 1, 2), &[3, 4]);
    let mask = mask.unwrap();
    let half = Mask::from_predicate(&Predicate::new().eq(a(0), 1), &[3, 4]).unwrap();
    // Weights that are not all 0/1, and 0/1 weights whose runs cost more.
    let weighted = Mask::from_weights(vec![
        Some(vec![1.0, 0.0, 1.0, 0.0, 1.0]),
        Some(vec![0.5, -0.0, 2.0]),
    ]);
    let q: Decoder = |l| QueryRequest::decode(l).is_ok();
    let r: Decoder = |l| QueryResponse::decode(l).is_ok();
    let b: Decoder = |l| ProbeRequest::decode(l).is_ok();
    let c: Decoder = |l| ProbeResponse::decode(l).is_ok();
    let rows = vec![vec![1, 2, 3], vec![4, 5, 6]];
    vec![
        (
            QueryRequest::probability(pred.clone()).encode(),
            concat!("q1 prob ", p5!()),
            q,
            &[3, 13],
        ),
        (
            QueryRequest::count(Predicate::all()).encode(),
            "q1 count p 0",
            q,
            &[3],
        ),
        (
            QueryRequest::sum(pred.clone(), a(1)).encode(),
            concat!("q1 sum 1 ", p5!()),
            q,
            &[4, 14],
        ),
        (
            QueryRequest::avg(pred.clone(), a(2)).encode(),
            concat!("q1 avg 2 ", p5!()),
            q,
            &[4],
        ),
        (
            QueryRequest::group_by(pred.clone(), a(0)).encode(),
            concat!("q1 group 0 ", p5!()),
            q,
            &[4],
        ),
        (
            QueryRequest::group_by2(pred.clone(), a(0), a(1)).encode(),
            concat!("q1 group2 0 1 ", p5!()),
            q,
            &[5],
        ),
        (
            QueryRequest::top_k(pred, a(3), 5).encode(),
            concat!("q1 topk 3 5 ", p5!()),
            q,
            &[5],
        ),
        (
            QueryRequest::sample_rows(100, 42).encode(),
            "q1 sample 100 42",
            q,
            &[],
        ),
        (
            QueryResponse::Probability(0.125).encode(),
            "r1 prob 0.125",
            r,
            &[],
        ),
        (
            QueryResponse::Estimate(e(1234.5, 0.1 + 0.2)).encode(),
            "r1 est 1234.5 0.30000000000000004",
            r,
            &[],
        ),
        (QueryResponse::Average(None).encode(), "r1 avg none", r, &[]),
        (
            QueryResponse::Average(Some(-12.5)).encode(),
            "r1 avg some -12.5",
            r,
            &[],
        ),
        (
            QueryResponse::Groups(vec![e(1.0, 0.5), e(0.0, 0.0)]).encode(),
            "r1 groups 2 1 0.5 0 0",
            r,
            &[2],
        ),
        (
            QueryResponse::Groups2(vec![
                vec![e(1.0, 2.0), e(3.0, 4.0)],
                vec![e(5.0, 6.0), e(7.0, 8.0)],
            ])
            .encode(),
            "r1 groups2 2 2 1 2 3 4 5 6 7 8",
            r,
            &[2, 3],
        ),
        (
            QueryResponse::Ranked(vec![(3, e(9.0, 1.0)), (0, e(2.0, 0.1))]).encode(),
            "r1 ranked 2 3 9 1 0 2 0.1",
            r,
            &[2],
        ),
        (
            QueryResponse::Rows { arity: 3, rows }.encode(),
            "r1 rows 2 3 1 2 3 4 5 6",
            r,
            &[2, 3],
        ),
        (
            ProbeRequest::Probability { mask: half }.encode(),
            "b1 prob m 2 r 3 1 1 1 i",
            b,
            &[3, 5, 6],
        ),
        (
            ProbeRequest::Count { mask: mask.clone() }.encode(),
            concat!("b1 count ", m!()),
            b,
            &[3, 5, 6, 10, 11],
        ),
        (
            ProbeRequest::Count { mask: weighted }.encode(),
            "b1 count m 2 w 5 1 0 1 0 1 w 3 0.5 -0 2",
            b,
            &[3, 5, 12],
        ),
        (
            ProbeRequest::ProbabilityMany {
                masks: vec![mask.clone(), mask.clone()],
            }
            .encode(),
            concat!("b1 probm 2 ", m!(), " ", m!()),
            b,
            &[2],
        ),
        (
            ProbeRequest::CountMany {
                masks: vec![mask.clone()],
            }
            .encode(),
            concat!("b1 countm 1 ", m!()),
            b,
            &[2],
        ),
        (
            ProbeRequest::Sum {
                mask: mask.clone(),
                attr: a(1),
                values: vec![1.5, 2.5, 3.5, 4.5],
            }
            .encode(),
            concat!("b1 sum 1 4 1.5 2.5 3.5 4.5 ", m!()),
            b,
            &[3],
        ),
        (
            ProbeRequest::GroupBy { mask, attr: a(0) }.encode(),
            concat!("b1 group 0 ", m!()),
            b,
            &[4],
        ),
        (
            ProbeRequest::SampleAt {
                k: 10,
                seed: 7,
                indices: vec![0, 4, 9],
            }
            .encode(),
            "b1 sample 10 7 3 0 4 9",
            b,
            &[4],
        ),
        (
            ProbeResponse::Probability(0.25).encode(),
            "c1 prob 0.25",
            c,
            &[],
        ),
        (
            ProbeResponse::Probabilities(vec![0.25, 0.5]).encode(),
            "c1 probs 2 0.25 0.5",
            c,
            &[2],
        ),
        (
            ProbeResponse::Estimate(e(3.0, 0.75)).encode(),
            "c1 est 3 0.75",
            c,
            &[],
        ),
        (
            ProbeResponse::Estimates(vec![e(1.0, 0.5), e(2.0, 0.25)]).encode(),
            "c1 ests 2 1 0.5 2 0.25",
            c,
            &[2],
        ),
        (
            ProbeResponse::Groups(vec![e(1.0, 0.5)]).encode(),
            "c1 groups 1 1 0.5",
            c,
            &[2],
        ),
        (
            ProbeResponse::Rows {
                arity: 2,
                rows: vec![vec![1, 2], vec![0, 3]],
            }
            .encode(),
            "c1 rows 2 2 1 2 0 3",
            c,
            &[2, 3],
        ),
    ]
}

#[test]
fn golden_bytes_for_every_wire_line() {
    for (encoded, expected, accepts, _) in wire_lines() {
        assert_eq!(encoded, expected);
        assert!(accepts(expected), "{expected}");
    }
    assert_eq!(
        QueryResponse::encode_error(&ModelError::ShapeMismatch),
        "r1 err model/query shape mismatch"
    );
    assert_eq!(
        ProbeResponse::encode_error(&ModelError::Busy("queue full".into())),
        "c1 busy queue full"
    );
}

/// Predicate masks were written as `w` items before the `r` item existed;
/// those lines still decode, to the masks that now travel as runs.
#[test]
fn weight_spelled_predicate_masks_still_decode() {
    let lines = wire_lines();
    let current = |prefix: &str| {
        let (_, line, ..) = lines
            .iter()
            .find(|(_, l, ..)| l.starts_with(prefix))
            .unwrap();
        ProbeRequest::decode(line).unwrap()
    };
    for (old, now) in [
        ("b1 prob m 2 w 3 0 1 0 i", "b1 prob "),
        ("b1 count m 2 w 3 0 1 0 w 4 0 1 1 0", "b1 count m 2 r"),
        (
            "b1 sum 1 4 1.5 2.5 3.5 4.5 m 2 w 3 0 1 0 w 4 0 1 1 0",
            "b1 sum ",
        ),
        ("b1 group 0 m 2 w 3 0 1 0 w 4 0 1 1 0", "b1 group "),
    ] {
        let decoded = ProbeRequest::decode(old).unwrap();
        assert_eq!(decoded, current(now), "{old}");
        assert!(decoded.encode().starts_with(now), "{old}");
    }
}

#[test]
fn golden_bytes_for_every_persisted_format() {
    assert_eq!(serialize::to_string(&summary(1)), BLOB);
    assert_eq!(serialize::to_string(&summary(2)), BLOB_X2);
    assert_eq!(
        serialize::cluster_manifest_to_string(&cluster()),
        CLUSTER_V2
    );

    let dir = TempDir::new("golden");
    let v2 = dir.0.join("v2");
    serialize::save_sharded_dir(&sharded(), &v2).unwrap();
    assert_eq!(read(&v2, "manifest.txt"), MANIFEST_V2);
    assert_eq!(read(&v2, "shard-0.summary"), BLOB);
    assert_eq!(read(&v2, "shard-1.summary"), BLOB_X2);

    // A live directory: two sealed segments plus 24 appended rows, folded
    // into the persisted delta by the save (epoch 0 → 1).
    let live =
        LiveSummary::new(sharded(), multi(), SolverConfig::default(), sync_ingest()).unwrap();
    let rows: Vec<Vec<u32>> = (0..24u32).map(|i| vec![i % 3, (i / 3) % 4]).collect();
    live.append_rows(&rows, None).unwrap();
    let v3 = dir.0.join("v3");
    serialize::save_live_dir(&live, &v3).unwrap();
    assert_eq!(read(&v3, "manifest.txt"), MANIFEST_V3);
    assert_eq!(read(&v3, "shard-0.summary"), BLOB);
    assert_eq!(read(&v3, "shard-1.summary"), BLOB_X2);
    // The delta blob is solver output; its bytes are the blob format's.
    assert_eq!(
        serialize::load_file(&v3.join("delta.summary")).unwrap().n(),
        24
    );
}

/// Every version still read loads its checked-in document.
#[test]
fn checked_in_documents_of_every_version_parse() {
    let current = serialize::from_str(BLOB).unwrap();
    assert_eq!(serialize::to_string(&current), BLOB);

    assert_eq!(
        serialize::cluster_manifest_from_str(CLUSTER_V2).unwrap(),
        cluster()
    );

    let v2 = TempDir::with_manifest("load-v2", MANIFEST_V2);
    assert_eq!(serialize::load_sharded_dir(&v2.0).unwrap().num_shards(), 2);
    let live = serialize::load_live_dir(&v2.0, SolverConfig::default(), sync_ingest()).unwrap();
    assert_eq!((live.epoch(), live.num_segments()), (0, 2));
    assert_eq!(live.fold_statistics(), multi());

    let v3 = TempDir::with_manifest("load-v3", MANIFEST_V3);
    assert_eq!(serialize::load_sharded_dir(&v3.0).unwrap().num_shards(), 3);
    let live = serialize::load_live_dir(&v3.0, SolverConfig::default(), sync_ingest()).unwrap();
    assert_eq!((live.epoch(), live.num_segments(), live.n()), (1, 3, 84));
}

/// Asserts `decode` rejects every hostile variant, with a line number at
/// or after the mutated line whenever the rejection is a parse error.
fn assert_all_rejected<T>(
    what: &str,
    variants: Vec<(String, usize)>,
    decode: impl Fn(&str) -> entropydb_core::error::Result<T>,
) {
    assert!(variants.len() > 10, "{what}: {} variants", variants.len());
    for (text, line) in variants {
        match decode(&text).err() {
            None => panic!("{what}: accepted {text:?}"),
            Some(ModelError::Parse { line: at, message }) => {
                assert!(
                    line == 0 || at >= line,
                    "{what}: {message:?} at {at} < {line} for {text:?}"
                )
            }
            Some(_) => {}
        }
    }
}

const BLOB_COUNTS: [(&str, usize); 4] = [("attrs", 1), ("attr", 2), ("multis", 1), ("multi", 3)];

#[test]
fn hostile_wire_lines_are_rejected() {
    for (_, line, accepts, counts) in wire_lines() {
        for cut in truncations(line) {
            assert!(!accepts(cut), "{line:?} truncated to {cut:?}");
        }
        assert!(!accepts(&format!("{line} junk")), "{line} junk");
        for &token in counts {
            for big in OVERSIZED {
                let hostile = with_token(line, 0, token, big);
                assert!(!accepts(&hostile), "{hostile}");
            }
        }
    }
    // Rows of no columns take no tokens, so only the count would bound them.
    for line in [
        "r1 rows 18446744073709551615 0",
        "r1 groups2 1099511627776 0",
        "c1 rows 18446744073709551615 0",
    ] {
        assert!(QueryResponse::decode(line).is_err() && ProbeResponse::decode(line).is_err());
    }
    // The probe verbs that went with the two-round top-k are unknown ops
    // now — a typed parse error, whichever side still speaks them.
    for line in DEAD_PROBE_LINES {
        let error = match line.starts_with("b1") {
            true => ProbeRequest::decode(line)
                .err()
                .map(|e| (e, "unknown probe op")),
            false => ProbeResponse::decode(line)
                .err()
                .map(|e| (e, "unknown probe response op")),
        };
        match error {
            Some((ModelError::Parse { message, .. }, want)) => {
                assert!(message.contains(want), "{line}: {message}")
            }
            other => panic!("{line}: expected a parse error, got {other:?}"),
        }
    }
}

#[test]
fn hostile_blobs_and_manifests_are_rejected_with_line_numbers() {
    let blob = hostile_documents(BLOB, &BLOB_COUNTS, &["attr"]);
    assert_all_rejected("blob", blob, serialize::from_str);

    let variants = hostile_documents(CLUSTER_V2, &[("shards", 1)], &["shard"]);
    assert_all_rejected(
        "cluster manifest",
        variants,
        serialize::cluster_manifest_from_str,
    );

    // Formats no longer read fail at their header, line 1.
    let refused = [
        ("summary", serialize::from_str(BLOB_V1).err()),
        ("summary", serialize::from_str(&sharded_doc()).err()),
        (
            "cluster-manifest",
            serialize::cluster_manifest_from_str(CLUSTER_V1).err(),
        ),
    ];
    for (format, error) in refused {
        match error {
            Some(ModelError::Parse { line: 1, message }) => assert!(
                message.starts_with(&format!("unrecognized entropydb-{format} header")),
                "{message}"
            ),
            other => panic!("{format}: {other:?}"),
        }
    }

    let dir = TempDir::with_manifest("hostile", MANIFEST_V3);
    let load = |manifest: &str| {
        std::fs::write(dir.0.join("manifest.txt"), manifest).unwrap();
        serialize::load_sharded_dir(&dir.0)
    };
    load(MANIFEST_V3).unwrap();
    for text in [MANIFEST_V3, MANIFEST_V2] {
        let variants = hostile_documents(text, &[("shards", 1), ("stats", 1), ("stat", 1)], &[]);
        assert_all_rejected("directory manifest", variants, load);
    }
}

/// A line that stops short says what is missing, where — not "unexpected
/// manifest line tag".
#[test]
fn short_manifest_lines_name_the_missing_field() {
    let dir = TempDir::with_manifest(
        "short",
        &MANIFEST_V3.replace("delta 24 delta.summary", "delta 24"),
    );
    match serialize::load_sharded_dir(&dir.0) {
        Err(ModelError::Parse { line: 6, message }) => {
            assert_eq!(message, "unexpected end of line, expected blob file")
        }
        other => panic!("{other:?}"),
    }
}
