//! The line-protocol pieces that are not already part of the query IR's
//! wire encoding: command words, the schema block, the append pair and the
//! three `stats` lines.
//!
//! Requests and responses themselves are encoded by
//! `entropydb_core::plan` (`q1 ...` / `r1 ...` lines) and shard probes by
//! `entropydb_core::probe` (`b1 ...` / `c1 ...` lines); this module adds
//! the session-level commands (`ping`, `schema`, `stats`, `quit`) and a
//! multi-line schema block so clients can resolve attribute names and
//! bin values without access to the base data:
//!
//! ```text
//! s1 <arity>
//! attr <index> <domain_size> cat <name>
//! attr <index> <domain_size> bin <lo> <hi> <name>
//! n <cardinality>
//! end
//! ```
//!
//! The `attr` lines are the summary blob's (`entropydb_core::wire`). The
//! `n` line is the shard-manifest handshake: a scatter/gather gatherer reads
//! each shard's served cardinality (and schema) before fanning any query
//! out, verifying the placement manifest against what the node actually
//! serves. It is optional on decode for compatibility with pre-handshake
//! servers.

use entropydb_core::engine::AppendOutcome;
use entropydb_core::error::Result;
use entropydb_core::metrics::{CacheStatsSnapshot, IngestStatsSnapshot, ServerStatsSnapshot};
use entropydb_core::wire::{
    counted, decode_attr, decode_counters, encode_attr, encode_counters, wire_error, TokenReader,
};
use entropydb_storage::Schema;
use std::fmt::Write as _;

/// Largest batch one wire line may carry: the masks of one `probm` /
/// `countm` shard probe, and (as [`MAX_APPEND_ROWS`]) the rows of one `a1`
/// append. Guards the server against absurd counts on a garbled line.
pub const MAX_BATCH: usize = 1 << 16;

/// Per-connection cap on decoded-but-unanswered requests: past it the
/// server stops decoding a connection's bytes until earlier work is
/// answered. [`Client::execute_batch`](crate::Client::execute_batch)
/// writes at most this many lines before it reads their replies, so a
/// chunk decodes as one run and the client never writes into a paused
/// connection.
pub(crate) const MAX_IN_FLIGHT: usize = 256;

/// Largest `SAMPLE k` a served request may ask for. A sample request is
/// the one wire line whose cost is decoupled from its length (a few bytes
/// can demand an arbitrarily large allocation), so the server rejects
/// oversized ones on the error channel instead of attempting them.
pub const MAX_SAMPLE_ROWS: usize = 1 << 20;

pub use entropydb_core::wire::MAX_LINE_BYTES;

/// Largest row count a single `a1` append line may carry. Bounds the
/// staging work one wire line can demand, like [`MAX_BATCH`] for mask
/// probes; [`Client::append`](crate::Client::append) transparently
/// chunks larger batches into multiple lines.
pub const MAX_APPEND_ROWS: usize = MAX_BATCH;

/// Encodes a schema (and the served summary's cardinality — the
/// shard-manifest handshake) as the multi-line wire block (including the
/// trailing `end` line, newline-terminated).
pub fn encode_schema(schema: &Schema, n: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "s1 {}", schema.arity());
    for (i, attr) in schema.attributes().iter().enumerate() {
        encode_attr(&mut out, i, attr);
    }
    let _ = writeln!(out, "n {n}");
    out.push_str("end\n");
    out
}

/// Encodes the `stats` reply: the engine's answer-cache counters, or
/// `stats cache none` for an engine without a cache.
///
/// ```text
/// stats cache <hits> <misses> <coalesced> <evicted>
/// ```
pub(crate) fn encode_cache_stats(s: Option<&CacheStatsSnapshot>) -> String {
    encode_counters(
        "cache",
        s.map(|s| [s.hits, s.misses, s.coalesced, s.evicted]),
    )
}

/// Decodes one `stats cache ...` line (see [`encode_cache_stats`]).
pub(crate) fn decode_cache_stats(line: &str) -> Result<Option<CacheStatsSnapshot>> {
    let fields = decode_counters(line, "cache")?;
    Ok(
        fields.map(|[hits, misses, coalesced, evicted]| CacheStatsSnapshot {
            hits,
            misses,
            coalesced,
            evicted,
        }),
    )
}

/// Encodes the `stats server` reply: one line of serving-side counters.
///
/// ```text
/// stats server <active> <accepted> <shed> <bytes_in> <bytes_out> <queue_depth>
/// ```
pub fn encode_server_stats(s: &ServerStatsSnapshot) -> String {
    let fields = [
        s.active_sessions,
        s.accepted_total,
        s.shed_total,
        s.bytes_in,
        s.bytes_out,
        s.dispatch_depth,
    ];
    encode_counters("server", Some(fields))
}

/// Decodes one `stats server ...` line (see [`encode_server_stats`]).
pub fn decode_server_stats(line: &str) -> Result<ServerStatsSnapshot> {
    let [active_sessions, accepted_total, shed_total, bytes_in, bytes_out, dispatch_depth] =
        decode_counters(line, "server")?
            .ok_or_else(|| wire_error("stats server line carries no counters".to_string()))?;
    Ok(ServerStatsSnapshot {
        active_sessions,
        accepted_total,
        shed_total,
        bytes_in,
        bytes_out,
        dispatch_depth,
    })
}

/// Encodes one streaming-ingest append line:
///
/// ```text
/// a1 <token|-> <rows> <arity> <codes...>
/// ```
///
/// `token` is the client's idempotency token (whitespace-free; `-` means
/// none), `<codes...>` the rows in row-major order (`rows * arity` coded
/// values). A retry of the same line after a transport error is absorbed
/// by the server's token window instead of double-ingesting.
pub fn encode_append(token: Option<&str>, rows: &[Vec<u32>]) -> String {
    let arity = rows.first().map_or(0, Vec::len);
    let mut out = String::with_capacity(16 + rows.len() * arity * 4);
    let _ = write!(out, "a1 {} {} {}", token.unwrap_or("-"), rows.len(), arity);
    for row in rows {
        for &code in row {
            let _ = write!(out, " {code}");
        }
    }
    out.push('\n');
    out
}

/// Decodes one `a1 ...` append line (see [`encode_append`]). Rejects
/// lines carrying more than [`MAX_APPEND_ROWS`] rows and truncated or
/// over-long payloads.
pub fn decode_append(line: &str) -> Result<(Option<String>, Vec<Vec<u32>>)> {
    let mut r = TokenReader::new(line);
    r.expect("a1")?;
    let token = match r.next("append token")? {
        "-" => None,
        t => Some(t.to_string()),
    };
    let rows: usize = r.parse("append row count")?;
    let arity: usize = r.parse("append arity")?;
    if rows > MAX_APPEND_ROWS {
        return Err(wire_error(format!(
            "append of {rows} rows exceeds the served maximum {MAX_APPEND_ROWS}"
        )));
    }
    let decoded = r.grid(rows, arity, |r| r.parse("append code"))?;
    r.finish()?;
    Ok((token, decoded))
}

/// Encodes the reply to an `a1` append:
///
/// ```text
/// ai1 <dup:0|1> <accepted> <staged> <epoch>
/// ```
///
/// `dup 1` means the idempotency token was already recorded — the rows
/// were NOT re-ingested and the counts describe the original acceptance's
/// current view.
pub fn encode_append_outcome(o: &AppendOutcome) -> String {
    format!(
        "ai1 {} {} {} {}\n",
        u8::from(o.duplicate),
        o.accepted,
        o.staged,
        o.epoch
    )
}

/// Decodes one `ai1 ...` append reply (see [`encode_append_outcome`]).
pub fn decode_append_outcome(line: &str) -> Result<AppendOutcome> {
    let mut r = TokenReader::new(line);
    r.expect("ai1")?;
    let dup: u8 = r.parse("append duplicate flag")?;
    if dup > 1 {
        return Err(wire_error(format!("append duplicate flag {dup} not 0/1")));
    }
    let outcome = AppendOutcome {
        duplicate: dup == 1,
        accepted: r.parse("append accepted count")?,
        staged: r.parse("append staged count")?,
        epoch: r.parse("append epoch")?,
    };
    r.finish()?;
    Ok(outcome)
}

/// Encodes the `stats ingest` reply: the live backend's ingest counters.
///
/// ```text
/// stats ingest <epoch> <staged> <appended> <duplicates> <folds> <seals> <fold_errors> <fold_sweeps>
/// ```
///
/// A backend without a live delta shard answers `stats ingest none`.
pub fn encode_ingest_stats(s: Option<&IngestStatsSnapshot>) -> String {
    let fields = s.map(|s| {
        [
            s.epoch,
            s.staged_rows,
            s.appended_rows,
            s.duplicate_appends,
            s.folds,
            s.seals,
            s.fold_errors,
            s.fold_sweeps,
        ]
    });
    encode_counters("ingest", fields)
}

/// Decodes one `stats ingest ...` line (see [`encode_ingest_stats`]).
pub fn decode_ingest_stats(line: &str) -> Result<Option<IngestStatsSnapshot>> {
    let fields = decode_counters(line, "ingest")?;
    Ok(fields.map(
        |[epoch, staged_rows, appended_rows, duplicate_appends, folds, seals, fold_errors, fold_sweeps]| {
            IngestStatsSnapshot {
                epoch,
                staged_rows,
                appended_rows,
                duplicate_appends,
                folds,
                seals,
                fold_errors,
                fold_sweeps,
            }
        },
    ))
}

/// Decodes a schema block: `header` is the `s1 ...` line already read;
/// `next_line` yields each following line (the caller reads them off the
/// connection). Returns the schema plus the served cardinality when the
/// server sent the handshake `n` line.
pub fn decode_schema(
    header: &str,
    mut next_line: impl FnMut() -> Result<String>,
) -> Result<(Schema, Option<u64>)> {
    let mut r = TokenReader::new(header);
    r.expect("s1")?;
    let arity: usize = r.parse("arity")?;
    r.finish()?;
    let mut attributes = counted(arity);
    for expected in 0..arity {
        let line = next_line()?;
        attributes.push(decode_attr(&mut TokenReader::new(&line), expected)?);
    }
    let mut n = None;
    loop {
        let line = next_line()?;
        let mut r = TokenReader::new(&line);
        match r.next("end")? {
            "n" if n.is_none() => n = Some(r.parse("served cardinality")?),
            "end" => break r.finish()?,
            other => return Err(wire_error(format!("expected \"end\", found {other:?}"))),
        }
        r.finish()?;
    }
    Ok((Schema::new(attributes), n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use entropydb_core::error::ModelError;
    use entropydb_storage::{Attribute, Binner};

    #[test]
    fn schema_block_round_trips() {
        let schema = Schema::new(vec![
            Attribute::categorical("origin airport", 7).unwrap(),
            Attribute::binned("distance", Binner::new(-2.5, 800.0, 16).unwrap()),
        ]);
        let block = encode_schema(&schema, 1234);
        let mut lines = block.lines();
        let header = lines.next().unwrap().to_string();
        let (decoded, n) =
            decode_schema(&header, || Ok(lines.next().unwrap().to_string())).unwrap();
        assert_eq!(n, Some(1234));
        assert_eq!(decoded.arity(), 2);
        assert_eq!(decoded.attr_by_name("origin airport").unwrap().0, 0);
        let b = decoded.attributes()[1]
            .binner()
            .expect("binner survives the round trip");
        assert_eq!(b.lo(), -2.5);
        assert_eq!(b.hi(), 800.0);
        assert_eq!(b.num_bins(), 16);
    }

    #[test]
    fn malformed_schema_blocks_rejected() {
        let err = |text: &str| {
            let mut lines = text.lines();
            let header = lines.next().unwrap_or("").to_string();
            decode_schema(&header, || {
                lines
                    .next()
                    .map(str::to_string)
                    .ok_or(ModelError::ShapeMismatch)
            })
            .is_err()
        };
        assert!(err("bogus"));
        assert!(err("s1 1\nattr 1 4 cat x\nend"));
        assert!(err("s1 1\nattr 0 4 vec x\nend"));
        assert!(err("s1 1\nattr 0 4 cat x"));
        assert!(err("s1 2\nattr 0 4 cat x\nend"));
        assert!(err("s1 1\nattr 0 4 cat x\nn twelve\nend"));
    }

    #[test]
    fn server_stats_line_round_trips() {
        let snap = ServerStatsSnapshot {
            active_sessions: 3,
            accepted_total: 17,
            shed_total: 2,
            bytes_in: 4096,
            bytes_out: 8192,
            dispatch_depth: 5,
        };
        let line = encode_server_stats(&snap);
        assert_eq!(line, "stats server 3 17 2 4096 8192 5\n");
        assert_eq!(decode_server_stats(line.trim()).unwrap(), snap);
        assert!(decode_server_stats("stats cache 1 2 3 4").is_err());
        assert!(decode_server_stats("stats server 1 2 3").is_err());
    }

    #[test]
    fn cache_stats_line_round_trips() {
        let snap = CacheStatsSnapshot {
            hits: 9,
            misses: 4,
            coalesced: 2,
            evicted: 1,
        };
        let line = encode_cache_stats(Some(&snap));
        assert_eq!(line, "stats cache 9 4 2 1\n");
        assert_eq!(decode_cache_stats(&line).unwrap(), Some(snap));
        assert_eq!(encode_cache_stats(None), "stats cache none\n");
        assert_eq!(decode_cache_stats("stats cache none").unwrap(), None);
        assert!(decode_cache_stats("stats server 1 2 3 4").is_err());
        assert!(decode_cache_stats("stats cache 1 2 3").is_err());
    }

    /// A short line is reported in the one wire vocabulary (it used to say
    /// "schema block missing ..." for every line kind).
    #[test]
    fn truncated_lines_name_the_missing_field() {
        let message = |e: ModelError| match e {
            ModelError::Parse { line: 0, message } => message,
            other => panic!("{other:?}"),
        };
        for (err, what) in [
            (decode_append("a1 tok 2").unwrap_err(), "append arity"),
            (decode_append("a1 - 1 2 7").unwrap_err(), "append code"),
            (
                decode_append_outcome("ai1 0 12").unwrap_err(),
                "append staged count",
            ),
            (
                decode_server_stats("stats server 1 2 3").unwrap_err(),
                "counter",
            ),
            (
                decode_ingest_stats("stats ingest 1 2").unwrap_err(),
                "counter",
            ),
        ] {
            assert_eq!(
                message(err),
                format!("unexpected end of line, expected {what}")
            );
        }
    }

    #[test]
    fn append_line_round_trips() {
        let rows = vec![vec![1u32, 2, 3], vec![4, 5, 6]];
        let line = encode_append(Some("tok-7"), &rows);
        assert_eq!(line, "a1 tok-7 2 3 1 2 3 4 5 6\n");
        let (token, decoded) = decode_append(line.trim()).unwrap();
        assert_eq!(token.as_deref(), Some("tok-7"));
        assert_eq!(decoded, rows);
        // Tokenless appends use the `-` placeholder.
        let line = encode_append(None, &rows);
        let (token, decoded) = decode_append(line.trim()).unwrap();
        assert_eq!(token, None);
        assert_eq!(decoded, rows);
        // Malformed shapes are rejected.
        assert!(decode_append("a1 t 2 3 1 2 3 4 5").is_err()); // truncated
        assert!(decode_append("a1 t 1 3 1 2 3 9").is_err()); // trailing
        assert!(decode_append("a1 t 1 0").is_err()); // zero arity
        assert!(decode_append("q1 t 1 1 0").is_err());
        let over = format!("a1 - {} 1", MAX_APPEND_ROWS + 1);
        assert!(decode_append(&over).is_err());
    }

    #[test]
    fn append_outcome_round_trips() {
        let outcome = AppendOutcome {
            accepted: 12,
            duplicate: false,
            staged: 40,
            epoch: 3,
        };
        let line = encode_append_outcome(&outcome);
        assert_eq!(line, "ai1 0 12 40 3\n");
        assert_eq!(decode_append_outcome(line.trim()).unwrap(), outcome);
        let dup = AppendOutcome {
            duplicate: true,
            ..outcome
        };
        let line = encode_append_outcome(&dup);
        assert_eq!(line, "ai1 1 12 40 3\n");
        assert_eq!(decode_append_outcome(line.trim()).unwrap(), dup);
        assert!(decode_append_outcome("ai1 2 1 1 1").is_err());
        assert!(decode_append_outcome("r1 0 1 1 1").is_err());
    }

    #[test]
    fn ingest_stats_line_round_trips() {
        let snap = IngestStatsSnapshot {
            epoch: 4,
            staged_rows: 10,
            appended_rows: 200,
            duplicate_appends: 1,
            folds: 5,
            seals: 2,
            fold_errors: 3,
            fold_sweeps: 12,
        };
        let line = encode_ingest_stats(Some(&snap));
        assert_eq!(line, "stats ingest 4 10 200 1 5 2 3 12\n");
        assert_eq!(decode_ingest_stats(line.trim()).unwrap(), Some(snap));
        let none = encode_ingest_stats(None);
        assert_eq!(none, "stats ingest none\n");
        assert_eq!(decode_ingest_stats(none.trim()).unwrap(), None);
        assert!(decode_ingest_stats("stats cache 1 2 3 4").is_err());
        assert!(decode_ingest_stats("stats ingest 1 2").is_err());
    }

    /// Pre-handshake blocks (no `n` line) still decode — the handshake is
    /// additive.
    #[test]
    fn schema_block_without_cardinality_still_decodes() {
        let text = "s1 1\nattr 0 4 cat x\nend";
        let mut lines = text.lines();
        let header = lines.next().unwrap().to_string();
        let (schema, n) = decode_schema(&header, || Ok(lines.next().unwrap().to_string())).unwrap();
        assert_eq!(schema.arity(), 1);
        assert_eq!(n, None);
    }
}
