//! Plain-text persistence for summaries.
//!
//! The paper's prototype "stored the polynomial variables in a Postgres
//! database and stored the polynomial factorization in a text file"
//! (Sec. 5). We persist the statistics and solved variables in one
//! line-oriented text file; the compressed polynomial is rebuilt
//! deterministically on load (rebuilding is cheap relative to solving and
//! keeps the format small — the summary is the *model*, not the term list).
//!
//! Every document below is read through [`crate::wire`] (`#`-prefixed
//! comments and blank lines ignored, errors carry the 1-based line
//! number); `attribute`, `statistic` and the `shards` table are its shared
//! sub-grammars. Floats are [`wire::push_f64`](crate::wire::push_f64)
//! tokens (`Display`'s bytes: the shortest decimal that reads back as the
//! same `f64`), so a save/load cycle reproduces the exact same `f64`s.
//!
//! **Summary blob**, v2 ([`to_string`] / [`from_str`]):
//!
//! ```text
//! entropydb-summary v2
//! n <cardinality>
//! attrs <m>
//! attr <index> <domain_size> cat <name>       (m lines; binned numeric
//! attr <index> <domain_size> bin <lo> <hi> <name>   attrs keep their binner)
//! onedim <attr> <count> <alpha> ... per value (m lines, run-length free)
//! multis <k>
//! multi <count> <alpha> <clauses> attr lo hi [attr lo hi ...]
//! report <sweeps> <max_residual> <converged>
//! end
//! ```
//!
//! **Directory manifest**, v2 ([`save_sharded_dir`]) and v3
//! ([`save_live_dir`]); both load through [`load_sharded_dir`] and
//! [`load_live_dir`]. A sharded summary is always such a directory:
//! `manifest.txt` sits next to one blob file per shard;
//! v3 adds the lines marked `v3` — the ingest epoch, the fitted delta
//! (only when one exists) and the statistic set delta folds fit with:
//!
//! ```text
//! entropydb-sharded-manifest v3
//! epoch <e>                                   v3
//! shards <k>
//! shard <index> <cardinality> <file>
//! delta <cardinality> <file>                  v3, optional
//! stats <m>                                   v3
//! stat <clauses> attr lo hi [attr lo hi ...]  v3 (m lines)
//! end
//! ```
//!
//! **Cluster manifest**, v2 ([`cluster_manifest_to_string`] /
//! [`cluster_manifest_from_str`]): which `entropydb-serve` addresses hold
//! which shard. Every address on a `shard` line is a replica of the same
//! blob. `n = 0` marks a dynamic (live-ingest) placement.
//!
//! ```text
//! entropydb-cluster-manifest v2
//! shards <k>
//! shard <index> <cardinality> <host:port> [<host:port> ...]
//! end
//! ```

use crate::assignment::VarAssignment;
use crate::error::{ModelError, Result};
use crate::ingest::LiveSummary;
use crate::model::MaxEntSummary;
use crate::sharded::ShardedSummary;
use crate::solver::SolverReport;
use crate::statistics::{MultiDimStatistic, Statistics};
use crate::wire::{
    counted, decode_attr, decode_shard_table, decode_statistic, encode_attr, encode_statistic,
    push_f64, Lines, TokenReader,
};
use entropydb_storage::Schema;
use std::fmt::Write as _;
use std::path::Path;

/// Serializes a summary to the text format (current version: v2).
pub fn to_string(summary: &MaxEntSummary) -> String {
    let stats = summary.statistics();
    let asn = summary.assignment();
    let report = summary.solver_report();
    let mut out = String::new();
    out.push_str("entropydb-summary v2\n");
    let _ = writeln!(out, "n {}", stats.n());
    let _ = writeln!(out, "attrs {}", stats.arity());
    for (i, attr) in summary.schema().attributes().iter().enumerate() {
        encode_attr(&mut out, i, attr);
    }
    for (i, (counts, alphas)) in stats.one_dim().iter().zip(&asn.one_dim).enumerate() {
        let _ = write!(out, "onedim {i}");
        for (c, &a) in counts.iter().zip(alphas) {
            let _ = write!(out, " {c} ");
            push_f64(&mut out, a);
        }
        out.push('\n');
    }
    let _ = writeln!(out, "multis {}", stats.multi().len());
    for ((stat, &count), &alpha) in stats
        .multi()
        .iter()
        .zip(stats.multi_counts())
        .zip(&asn.multi)
    {
        let _ = write!(out, "multi {count} ");
        push_f64(&mut out, alpha);
        out.push(' ');
        encode_statistic(&mut out, stat);
        out.push('\n');
    }
    let _ = write!(out, "report {} ", report.sweeps);
    push_f64(&mut out, report.max_residual);
    let _ = writeln!(out, " {}", report.converged);
    out.push_str("end\n");
    out
}

/// Writes a summary to a file, replacing it whole.
pub fn save_file(summary: &MaxEntSummary, path: &Path) -> std::io::Result<()> {
    write_replacing(path, to_string(summary))
}

/// Replaces the file at `path` whole: the bytes go to a sibling temp file
/// that is then renamed over `path`, so a reader racing the write (or a
/// process killed mid-save) sees the old file or the new one, never a
/// truncated one. Nothing is fsynced, so a power loss may still lose it.
fn write_replacing(path: &Path, bytes: String) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp-{}", std::process::id()));
    std::fs::write(&tmp, bytes)
        .and_then(|()| std::fs::rename(&tmp, path))
        .inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
}

/// Reads a summary from a file.
pub fn load_file(path: &Path) -> Result<MaxEntSummary> {
    from_str(&read(path)?)
}

fn read(path: &Path) -> Result<String> {
    std::fs::read_to_string(path).map_err(|e| ModelError::Parse {
        line: 0,
        message: format!("cannot read {}: {e}", path.display()),
    })
}

/// Reads a document's header line, which must be `name` followed by one of
/// `versions`; returns the version's position in `versions`.
fn header(lines: &mut Lines<'_>, name: &str, versions: &[&str]) -> Result<usize> {
    let mut r = lines.next_line()?;
    let found = r.rest();
    let version = found.strip_prefix(name).and_then(|v| {
        versions
            .iter()
            .position(|known| v.strip_prefix(' ') == Some(known))
    });
    version.ok_or_else(|| r.error(format!("unrecognized {name} header {found:?}")))
}

/// Parses a summary from the text format (v2), rebuilding the compressed
/// polynomial and validating shapes.
pub fn from_str(text: &str) -> Result<MaxEntSummary> {
    let p = &mut Lines::new(text);
    header(p, "entropydb-summary", &["v2"])?;

    let n: u64 = p.scalar("n", "n")?;
    let m: usize = p.scalar("attrs", "attr count")?;

    let mut attributes = counted(m);
    for expected in 0..m {
        attributes.push(decode_attr(&mut p.next_line()?, expected)?);
    }
    let schema = Schema::new(attributes);
    let domain_sizes = schema.domain_sizes();

    let mut one_dim_counts = counted(m);
    let mut one_dim_alphas = counted(m);
    for (expected, &size) in domain_sizes.iter().enumerate() {
        let mut r = p.tagged("onedim")?;
        r.index("onedim index", expected)?;
        let (mut counts, mut alphas) = (counted(size), counted(size));
        for _ in 0..size {
            counts.push(r.parse("1D count")?);
            alphas.push(r.f64("1D alpha")?);
        }
        r.finish()?;
        one_dim_counts.push(counts);
        one_dim_alphas.push(alphas);
    }

    let k: usize = p.scalar("multis", "multi count")?;
    let mut multi = counted(k);
    let mut multi_counts = counted(k);
    let mut multi_alphas = counted(k);
    for _ in 0..k {
        let mut r = p.tagged("multi")?;
        multi_counts.push(r.parse("multi count")?);
        multi_alphas.push(r.f64("multi alpha")?);
        multi.push(decode_statistic(&mut r)?);
        r.finish()?;
    }

    let mut r = p.tagged("report")?;
    let report = SolverReport {
        sweeps: r.parse("sweeps")?,
        max_residual: r.f64("residual")?,
        converged: r.parse("converged")?,
        skipped_updates: 0,
        dual_trajectory: Vec::new(),
        seconds: 0.0,
    };
    r.finish()?;
    p.tagged("end")?.finish()?;

    let stats = Statistics::from_parts(n, domain_sizes, one_dim_counts, multi, multi_counts)?;
    let assignment = VarAssignment {
        one_dim: one_dim_alphas,
        multi: multi_alphas,
    };
    MaxEntSummary::from_solved_parts(schema, stats, assignment, report)
}

/// Fails unless `model` holds the cardinality its manifest line declared.
fn check_declared(
    model: MaxEntSummary,
    n: u64,
    what: &str,
    r: &TokenReader<'_>,
) -> Result<MaxEntSummary> {
    if model.n() == n {
        Ok(model)
    } else {
        let held = model.n();
        Err(r.error(format!(
            "{what} manifest cardinality {n} but blob holds {held}"
        )))
    }
}

/// Writes one `shard-<i>.summary` blob per shard into `dir` and appends the
/// manifest's shard table naming them.
fn write_shard_table(
    manifest: &mut String,
    shards: &[MaxEntSummary],
    dir: &Path,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let _ = writeln!(manifest, "shards {}", shards.len());
    for (i, shard) in shards.iter().enumerate() {
        let file = format!("shard-{i}.summary");
        let _ = writeln!(manifest, "shard {} {} {}", i, shard.n(), file);
        write_replacing(&dir.join(&file), to_string(shard))?;
    }
    Ok(())
}

/// Writes a sharded summary as a directory: `manifest.txt` (v2) plus one
/// `shard-<i>.summary` blob per shard (the deployment-friendly layout — a
/// shard blob can be fetched, cached, or replaced independently).
pub fn save_sharded_dir(summary: &ShardedSummary, dir: &Path) -> std::io::Result<()> {
    let mut manifest = String::from("entropydb-sharded-manifest v2\n");
    write_shard_table(&mut manifest, summary.shards(), dir)?;
    manifest.push_str("end\n");
    write_replacing(&dir.join("manifest.txt"), manifest)
}

/// One shard placement of a cluster manifest: which addresses serve which
/// shard, and the shard's expected cardinality (verified against the
/// served summary during the connect handshake, so a node serving the
/// wrong blob is caught before any query fans out to it).
///
/// A shard may list several **replica** endpoints, all serving the same
/// shard blob; a gatherer fails over between them, so a killed or wedged
/// node degrades latency instead of correctness.
///
/// `n = 0` declares a **dynamic** placement: a live-ingest node whose
/// cardinality grows as appended rows fold in. The gatherer skips the
/// cardinality equality check for such shards and adopts whatever the
/// node reports at each handshake instead.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterShard {
    /// Shard index (dense, `0..k`).
    pub index: usize,
    /// Expected shard cardinality `n_s`.
    pub n: u64,
    /// `host:port` of every `entropydb-serve` replica holding the shard,
    /// in preference order. At least one.
    pub addrs: Vec<String>,
}

impl ClusterShard {
    /// A single-replica placement.
    pub fn single(index: usize, n: u64, addr: impl Into<String>) -> ClusterShard {
        ClusterShard {
            index,
            n,
            addrs: vec![addr.into()],
        }
    }

    /// The preferred (first-listed) replica address.
    pub fn primary(&self) -> &str {
        self.addrs.first().map(String::as_str).unwrap_or("")
    }
}

/// Serializes a cluster manifest (v2) — the shard-per-node placement
/// document consumed by a remote scatter/gather backend.
pub fn cluster_manifest_to_string(shards: &[ClusterShard]) -> String {
    let mut out = String::new();
    out.push_str("entropydb-cluster-manifest v2\n");
    let _ = writeln!(out, "shards {}", shards.len());
    for s in shards {
        let _ = write!(out, "shard {} {}", s.index, s.n);
        for addr in &s.addrs {
            let _ = write!(out, " {addr}");
        }
        out.push('\n');
    }
    out.push_str("end\n");
    out
}

/// Parses a cluster manifest (v2); shard indices must be dense and in
/// order, and every shard must list at least one replica address.
pub fn cluster_manifest_from_str(text: &str) -> Result<Vec<ClusterShard>> {
    let mut p = Lines::new(text);
    header(&mut p, "entropydb-cluster-manifest", &["v2"])?;
    let shards = decode_shard_table(&mut p, |index, n, r| {
        let addrs: Vec<String> = r.remaining().map(str::to_string).collect();
        if addrs.is_empty() {
            return Err(r.error("cluster shard needs: index n addr [addr ...]".to_string()));
        }
        Ok(ClusterShard { index, n, addrs })
    })?;
    p.tagged("end")?.finish()?;
    Ok(shards)
}

/// Writes a cluster manifest file, replacing it whole: a reader racing a
/// rewrite (a rolling restart's) sees the old manifest or the new one.
pub fn save_cluster_manifest(shards: &[ClusterShard], path: &Path) -> std::io::Result<()> {
    write_replacing(path, cluster_manifest_to_string(shards))
}

/// Reads a cluster manifest file.
pub fn load_cluster_manifest(path: &Path) -> Result<Vec<ClusterShard>> {
    cluster_manifest_from_str(&read(path)?)
}

/// A parsed directory manifest (v2 or the live v3 extension): the sealed
/// shard models followed by the fitted delta model if one was persisted,
/// the statistic set future delta folds should fit with, and the ingest
/// epoch.
struct DirManifest {
    segments: Vec<MaxEntSummary>,
    multi: Vec<MultiDimStatistic>,
    epoch: u64,
}

/// Parses `dir/manifest.txt` (v2 or v3) and loads every referenced blob.
fn parse_dir_manifest(dir: &Path) -> Result<DirManifest> {
    let text = read(&dir.join("manifest.txt"))?;
    let mut p = Lines::new(&text);
    let v3 = header(&mut p, "entropydb-sharded-manifest", &["v2", "v3"])? == 1;
    let epoch = if v3 { p.scalar("epoch", "epoch")? } else { 0 };
    // One `<cardinality> <file>` reference, loaded and checked.
    let load_declared = |n: u64, what: &str, r: &mut TokenReader<'_>| {
        let file = r.next("blob file")?;
        r.finish()?;
        check_declared(load_file(&dir.join(file))?, n, what, r)
    };
    let mut segments = decode_shard_table(&mut p, |idx, n, r| {
        load_declared(n, &format!("shard {idx}"), r)
    })?;
    // v3 trailer: an optional fitted-delta entry and the fold statistic
    // set, in any count/order up to `end`. v2 manifests go straight to
    // `end`.
    let mut delta = None;
    let mut multi: Vec<MultiDimStatistic> = Vec::new();
    loop {
        let mut r = p.next_line()?;
        match r.next("manifest line tag")? {
            "end" => break r.finish()?,
            "delta" if v3 && delta.is_none() => {
                let n = r.parse("delta n")?;
                delta = Some(load_declared(n, "delta", &mut r)?);
            }
            "stats" if v3 => {
                let m: usize = r.parse("stat count")?;
                r.finish()?;
                for _ in 0..m {
                    let mut r = p.tagged("stat")?;
                    multi.push(decode_statistic(&mut r)?);
                    r.finish()?;
                }
            }
            other => return Err(r.error(format!("unexpected manifest line tag {other:?}"))),
        }
    }
    segments.extend(delta);
    if multi.is_empty() {
        // v2 manifests (and v3 ones saved before any multi statistics
        // existed) carry no stat lines; recover the fold set as the
        // deduplicated union of what the persisted models were fitted
        // with. Per-shard pruning only ever *removes* statistics, so the
        // union is the closest reconstruction of the original set.
        for model in &segments {
            for stat in model.statistics().multi() {
                if !multi.contains(stat) {
                    multi.push(stat.clone());
                }
            }
        }
    }
    Ok(DirManifest {
        segments,
        multi,
        epoch,
    })
}

/// Reads a sharded summary from a [`save_sharded_dir`] (v2) or
/// [`save_live_dir`] (v3) directory. A v3 manifest's fitted delta is
/// treated as one more shard — the live summary's served mixture *is*
/// `segments + delta`, so the static load answers identically.
pub fn load_sharded_dir(dir: &Path) -> Result<ShardedSummary> {
    ShardedSummary::from_shards(parse_dir_manifest(dir)?.segments)
}

/// Writes a live summary as a directory with a **v3 manifest**: the v2
/// layout (`manifest.txt` + one blob per sealed segment) extended with the
/// ingest epoch, an optional fitted-delta entry (`delta.summary`), and the
/// statistic set delta folds fit with.
///
/// The summary is [`flush`](LiveSummary::flush)ed first, so every staged
/// row is folded into the persisted delta and nothing is silently dropped.
/// [`load_sharded_dir`] also accepts v3 (serving the same answers
/// statically); [`load_live_dir`] restores a mutable summary.
pub fn save_live_dir(live: &LiveSummary, dir: &Path) -> Result<()> {
    live.flush()?;
    let (segments, delta, epoch) = live.parts();
    let io_err = |e: std::io::Error| ModelError::Parse {
        line: 0,
        message: format!("cannot write {}: {e}", dir.display()),
    };
    let mut manifest = String::new();
    manifest.push_str("entropydb-sharded-manifest v3\n");
    let _ = writeln!(manifest, "epoch {epoch}");
    write_shard_table(&mut manifest, &segments, dir).map_err(io_err)?;
    if let Some(delta) = &delta {
        let _ = writeln!(manifest, "delta {} delta.summary", delta.n());
        write_replacing(&dir.join("delta.summary"), to_string(delta)).map_err(io_err)?;
    }
    let multi = live.fold_statistics();
    let _ = writeln!(manifest, "stats {}", multi.len());
    for stat in &multi {
        manifest.push_str("stat ");
        encode_statistic(&mut manifest, stat);
        manifest.push('\n');
    }
    manifest.push_str("end\n");
    write_replacing(&dir.join("manifest.txt"), manifest).map_err(io_err)
}

/// Restores a [`LiveSummary`] from a [`save_live_dir`] directory (or a
/// plain [`save_sharded_dir`] v2 directory, which restores at epoch 0).
///
/// The persisted fitted delta re-enters as a *sealed segment*: its staged
/// rows were folded at save time and the underlying delta rows are not
/// persisted, so sealing (which is bitwise-neutral for queries) is the
/// faithful restoration. Delta folds after the restore fit with the
/// manifest's statistic set under `solver`.
pub fn load_live_dir(
    dir: &Path,
    solver: crate::solver::SolverConfig,
    config: crate::ingest::IngestConfig,
) -> Result<LiveSummary> {
    let manifest = parse_dir_manifest(dir)?;
    LiveSummary::from_parts(
        manifest.segments,
        manifest.multi,
        solver,
        config,
        manifest.epoch,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueryApi;
    use crate::solver::SolverConfig;
    use entropydb_storage::{AttrId, Attribute, Predicate, Table};

    fn a(i: usize) -> AttrId {
        AttrId(i)
    }

    fn build_summary() -> MaxEntSummary {
        let schema = Schema::new(vec![
            Attribute::categorical("origin", 3).unwrap(),
            Attribute::categorical("dest", 4).unwrap(),
        ]);
        let mut t = Table::new(schema);
        for (x, y, c) in [
            (0u32, 0u32, 4),
            (0, 1, 2),
            (0, 2, 1),
            (1, 1, 5),
            (1, 3, 2),
            (2, 0, 1),
            (2, 2, 3),
            (2, 3, 2),
        ] {
            for _ in 0..c {
                t.push_row(&[x, y]).unwrap();
            }
        }
        let multi = vec![
            MultiDimStatistic::cell2d(a(0), 0, a(1), 0).unwrap(),
            MultiDimStatistic::rect2d(a(0), (1, 2), a(1), (2, 3)).unwrap(),
        ];
        MaxEntSummary::build(&t, multi, &SolverConfig::default()).unwrap()
    }

    #[test]
    fn round_trip_preserves_estimates_exactly() {
        let original = build_summary();
        let text = to_string(&original);
        let loaded = from_str(&text).unwrap();
        assert_eq!(loaded.n(), original.n());
        assert_eq!(loaded.assignment(), original.assignment());
        for x in 0..3u32 {
            for y in 0..4u32 {
                let pred = Predicate::new().eq(a(0), x).eq(a(1), y);
                let e0 = original.estimate_count(&pred).unwrap().expectation;
                let e1 = loaded.estimate_count(&pred).unwrap().expectation;
                assert_eq!(e0.to_bits(), e1.to_bits(), "({x},{y})");
            }
        }
    }

    #[test]
    fn round_trip_preserves_schema_names() {
        let original = build_summary();
        let loaded = from_str(&to_string(&original)).unwrap();
        assert_eq!(loaded.schema().attr_by_name("origin").unwrap(), a(0));
        assert_eq!(loaded.schema().attr_by_name("dest").unwrap(), a(1));
    }

    #[test]
    fn file_round_trip() {
        let original = build_summary();
        let dir = std::env::temp_dir().join("entropydb-serialize-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("summary.txt");
        save_file(&original, &path).unwrap();
        let loaded = load_file(&path).unwrap();
        assert_eq!(loaded.assignment(), original.assignment());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let original = build_summary();
        let text = to_string(&original);
        let with_noise = format!("# a comment\n\n{}", text.replace("multis", "# x\nmultis"));
        let loaded = from_str(&with_noise).unwrap();
        assert_eq!(loaded.n(), original.n());
    }

    #[test]
    fn corrupted_inputs_rejected_with_line_numbers() {
        assert!(matches!(from_str("bogus"), Err(ModelError::Parse { .. })));
        let original = build_summary();
        let text = to_string(&original);
        // Truncate: drop the last two lines (report + end).
        let truncated: Vec<&str> = text.lines().collect();
        let truncated = truncated[..truncated.len() - 2].join("\n");
        assert!(from_str(&truncated).is_err());
        // Corrupt a number.
        let bad = text.replace("n 20", "n twenty");
        assert!(matches!(from_str(&bad), Err(ModelError::Parse { .. })));
    }

    #[test]
    fn v2_preserves_binned_attributes() {
        use entropydb_storage::Binner;
        let schema = Schema::new(vec![
            Attribute::categorical("g", 2).unwrap(),
            Attribute::binned("val", Binner::new(-5.0, 95.0, 4).unwrap()),
        ]);
        let mut t = Table::new(schema);
        for (g, b, c) in [(0u32, 0u32, 3), (0, 1, 2), (1, 2, 4), (1, 3, 1)] {
            for _ in 0..c {
                t.push_row(&[g, b]).unwrap();
            }
        }
        let original = MaxEntSummary::build(&t, vec![], &SolverConfig::default()).unwrap();
        let loaded = from_str(&to_string(&original)).unwrap();
        let binner = loaded
            .schema()
            .attr(a(1))
            .unwrap()
            .binner()
            .expect("a round trip must keep the binner");
        assert_eq!(binner.lo(), -5.0);
        assert_eq!(binner.hi(), 95.0);
        assert_eq!(binner.num_bins(), 4);
        // SUM semantics survive the round trip bit-for-bit.
        let s0 = original.estimate_sum(&Predicate::all(), a(1)).unwrap();
        let s1 = loaded.estimate_sum(&Predicate::all(), a(1)).unwrap();
        assert_eq!(s0.expectation.to_bits(), s1.expectation.to_bits());
    }

    fn build_sharded() -> crate::sharded::ShardedSummary {
        use crate::sharded::{ShardedBuildConfig, ShardedSummary};
        use entropydb_storage::Partitioning;
        let schema = Schema::new(vec![
            Attribute::categorical("origin", 3).unwrap(),
            Attribute::categorical("dest", 4).unwrap(),
        ]);
        let mut t = Table::new(schema);
        let mut v = 0u32;
        for _ in 0..60 {
            t.push_row(&[v % 3, (v / 3) % 4]).unwrap();
            v = v.wrapping_mul(7).wrapping_add(3);
        }
        let multi = vec![MultiDimStatistic::cell2d(a(0), 0, a(1), 0).unwrap()];
        ShardedSummary::build(
            &t,
            &Partitioning::hash(3),
            multi,
            &ShardedBuildConfig::default(),
        )
        .unwrap()
    }

    /// A fresh scratch directory under the system temp dir.
    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("entropydb-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn sharded_dir_round_trip_preserves_estimates_exactly() {
        let original = build_sharded();
        let dir = scratch("sharded-dir-round-trip");
        save_sharded_dir(&original, &dir).unwrap();
        assert!(dir.join("manifest.txt").exists());
        assert!(dir.join("shard-0.summary").exists());
        let loaded = load_sharded_dir(&dir).unwrap();
        assert_eq!(loaded.num_shards(), original.num_shards());
        assert_eq!(loaded.n(), original.n());
        for x in 0..3u32 {
            for y in 0..4u32 {
                let pred = Predicate::new().eq(a(0), x).eq(a(1), y);
                let e0 = original.estimate_count(&pred).unwrap();
                let e1 = loaded.estimate_count(&pred).unwrap();
                assert_eq!(e0.expectation.to_bits(), e1.expectation.to_bits());
                assert_eq!(e0.variance.to_bits(), e1.variance.to_bits());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_sharded_dirs_rejected() {
        let dir = scratch("sharded-dir-corrupt");
        save_sharded_dir(&build_sharded(), &dir).unwrap();
        let manifest = std::fs::read_to_string(dir.join("manifest.txt")).unwrap();
        let load = |text: &str| {
            std::fs::write(dir.join("manifest.txt"), text).unwrap();
            load_sharded_dir(&dir)
        };
        load(&manifest).unwrap();
        // Truncated: drop the trailing end.
        assert!(load(&manifest.replace("end", "")).is_err());
        // Manifest/blob cardinality mismatch.
        assert!(load(&manifest.replacen("shard 0 ", "shard 0 99", 1)).is_err());
        // A single-summary blob is not a manifest.
        assert!(load(&to_string(&build_summary())).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cluster_manifest_round_trips_and_rejects_corruption() {
        let shards = vec![
            ClusterShard::single(0, 40, "127.0.0.1:4151"),
            ClusterShard::single(1, 20, "10.0.0.7:4141"),
        ];
        let text = cluster_manifest_to_string(&shards);
        assert_eq!(cluster_manifest_from_str(&text).unwrap(), shards);
        assert!(cluster_manifest_from_str("bogus").is_err());
        assert!(cluster_manifest_from_str(&text.replace("end", "")).is_err());
        // Out-of-order shard indices rejected.
        assert!(cluster_manifest_from_str(&text.replace("shard 1 ", "shard 9 ")).is_err());
        // Zero shards rejected.
        assert!(cluster_manifest_from_str("entropydb-cluster-manifest v2\nshards 0\nend").is_err());
    }

    /// Saving over existing files replaces each one whole (temp file, then
    /// rename) and leaves no temp file behind, whichever saver wrote it.
    #[test]
    fn cluster_manifest_save_replaces_the_file_and_leaves_no_temp() {
        use crate::ingest::IngestConfig;
        let dir = scratch("save-replaces");
        let path = dir.join("cluster.manifest");
        let before = vec![ClusterShard::single(0, 40, "127.0.0.1:4151")];
        let after = vec![
            ClusterShard::single(0, 40, "127.0.0.1:39001"),
            ClusterShard::single(1, 20, "127.0.0.1:39002"),
        ];
        save_cluster_manifest(&before, &path).unwrap();
        save_cluster_manifest(&after, &path).unwrap();
        assert_eq!(load_cluster_manifest(&path).unwrap(), after);

        let sharded = build_sharded();
        let blob = dir.join("summary.txt");
        save_file(&build_summary(), &blob).unwrap();
        save_file(&sharded.shards()[0], &blob).unwrap();
        let text = std::fs::read_to_string(&blob).unwrap();
        assert_eq!(text, to_string(&sharded.shards()[0]));

        // A v2 directory over a smaller one, then a v3 (live) one over it.
        let shards = dir.join("shards");
        let one = ShardedSummary::from_shards(vec![build_summary()]).unwrap();
        save_sharded_dir(&one, &shards).unwrap();
        save_sharded_dir(&sharded, &shards).unwrap();
        assert_eq!(load_sharded_dir(&shards).unwrap().num_shards(), 3);
        let config = IngestConfig {
            background: false,
            ..IngestConfig::default()
        };
        let multi = sharded.shards()[0].statistics().multi().to_vec();
        let solver = SolverConfig::default();
        let live = LiveSummary::new(sharded, multi, solver.clone(), config.clone()).unwrap();
        live.append_rows(&[vec![0, 0], vec![1, 2]], None).unwrap();
        save_live_dir(&live, &shards).unwrap();
        assert_eq!(load_live_dir(&shards, solver, config).unwrap().epoch(), 1);

        let mut names: Vec<String> = Vec::new();
        for sub in [&dir, &shards] {
            for entry in std::fs::read_dir(sub).unwrap() {
                names.push(entry.unwrap().file_name().to_string_lossy().into_owned());
            }
        }
        names.sort();
        let want = [
            "cluster.manifest",
            "delta.summary",
            "manifest.txt",
            "shard-0.summary",
            "shard-1.summary",
            "shard-2.summary",
            "shards",
            "summary.txt",
        ];
        assert_eq!(names, want);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The v2 manifest carries replica lists: round-trip identity, replica
    /// order preserved, and mixed replica counts per shard.
    #[test]
    fn replicated_cluster_manifest_round_trips() {
        let shards = vec![
            ClusterShard {
                index: 0,
                n: 40,
                addrs: vec![
                    "127.0.0.1:4151".to_string(),
                    "127.0.0.1:5151".to_string(),
                    "10.0.0.9:4151".to_string(),
                ],
            },
            ClusterShard::single(1, 20, "10.0.0.7:4141"),
        ];
        let text = cluster_manifest_to_string(&shards);
        assert!(text.starts_with("entropydb-cluster-manifest v2\n"));
        let parsed = cluster_manifest_from_str(&text).unwrap();
        assert_eq!(parsed, shards);
        assert_eq!(parsed[0].primary(), "127.0.0.1:4151");
        // Encode → decode → encode is the identity.
        assert_eq!(cluster_manifest_to_string(&parsed), text);
    }

    /// Truncation and field corruption anywhere in a v2 manifest fail the
    /// parse with a line-numbered diagnostic instead of loading garbage.
    #[test]
    fn replicated_cluster_manifest_rejects_corruption_and_truncation() {
        let shards = vec![
            ClusterShard {
                index: 0,
                n: 40,
                addrs: vec!["127.0.0.1:4151".to_string(), "127.0.0.1:5151".to_string()],
            },
            ClusterShard::single(1, 20, "10.0.0.7:4141"),
        ];
        let text = cluster_manifest_to_string(&shards);
        // Every proper prefix of the document is rejected (the parser
        // never accepts a truncated manifest).
        for cut in 1..text.lines().count() {
            let truncated: String = text
                .lines()
                .take(cut)
                .map(|l| format!("{l}\n"))
                .collect::<String>();
            assert!(
                cluster_manifest_from_str(&truncated).is_err(),
                "truncated manifest at {cut} lines must not parse"
            );
        }
        // A shard line missing its addresses is rejected.
        assert!(
            cluster_manifest_from_str(&text.replace(" 127.0.0.1:4151 127.0.0.1:5151", "")).is_err()
        );
        // Unparseable cardinality is rejected.
        assert!(cluster_manifest_from_str(&text.replace("shard 1 20", "shard 1 twenty")).is_err());
        // Declared shard count larger than the body is rejected.
        assert!(cluster_manifest_from_str(&text.replace("shards 2", "shards 3")).is_err());
    }

    #[test]
    fn inconsistent_statistics_rejected_on_load() {
        let original = build_summary();
        // Claim a multi count larger than n.
        let text = to_string(&original);
        let line = text
            .lines()
            .find(|l| l.starts_with("multi "))
            .unwrap()
            .to_string();
        let mut parts: Vec<String> = line.split(' ').map(String::from).collect();
        parts[1] = "999999".to_string();
        let bad = text.replace(&line, &parts.join(" "));
        assert!(matches!(
            from_str(&bad),
            Err(ModelError::StatisticExceedsN { .. })
        ));
    }
}
