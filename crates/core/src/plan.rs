//! The unified query IR: serializable requests and responses.
//!
//! Every query the engine can answer is one [`QueryRequest`] value — the
//! single currency shared by the textual parser (statements convert 1:1),
//! the [`QueryEngine`](crate::engine::QueryEngine) (`execute` /
//! `execute_batch` are the canonical entry points), and the TCP serving
//! layer (requests and [`QueryResponse`]s have a compact, versioned,
//! line-safe wire encoding). Because a query is a value, workloads can be
//! logged, replayed, routed across shards, and fed back into statistic
//! selection.
//!
//! ## Wire format (version 1)
//!
//! One request or response per line, whitespace-separated tokens. Floats
//! are [`wire::push_f64`](crate::wire::push_f64) tokens (`Display`'s bytes:
//! the shortest decimal that reads back as the same `f64`), so encode →
//! decode → encode is the identity and decoded estimates are bit-identical.
//!
//! ```text
//! request  := "q1" body
//! body     := "prob" pred            | "count" pred
//!           | "sum" attr pred        | "avg" attr pred
//!           | "group" attr pred      | "group2" attr attr pred
//!           | "topk" attr k pred     | "sample" k seed
//! pred     := "p" nclauses clause*
//! clause   := attr ( "a" | "n" | "pt" v | "rng" lo hi | "set" count v* )
//!
//! response := "r1" payload
//! payload  := "prob" f              | "est" expectation variance
//!           | "avg" ( "none" | "some" f )
//!           | "groups" len (expectation variance)*
//!           | "groups2" rows cols (expectation variance)*
//!           | "ranked" len (value expectation variance)*
//!           | "rows" nrows arity code*
//!           | "err" message...
//!           | "busy" message...
//! ```
//!
//! The `err` payload is the serving layer's error channel: decoding it
//! yields [`ModelError::Remote`] so client-side callers see one `Result`
//! type for local and served execution. `busy` is the load-shedding
//! channel — it decodes to [`ModelError::Busy`], which (unlike `err`)
//! marks a *transient* condition a caller may retry after a backoff.

use crate::error::{ModelError, Result};
use crate::query::Estimate;
use crate::wire::{decode_refusal, encode_refusal, push_f64, wire_error, TokenReader};
use entropydb_storage::{AttrId, AttrPredicate, Predicate, Resolver, Statement};
use std::fmt::Write as _;

/// A query, as a value: one of the engine's estimator entry points with all
/// of its arguments. Constructed directly, via the builder shorthands, by
/// [`QueryRequest::from`] a parsed [`Statement`], or by decoding the wire
/// form.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryRequest {
    /// The model probability that one tuple draw satisfies the predicate.
    Probability {
        /// Filter predicate.
        pred: Predicate,
    },
    /// `SELECT COUNT(*) WHERE pred`.
    Count {
        /// Filter predicate.
        pred: Predicate,
    },
    /// `SELECT SUM(value(attr)) WHERE pred`.
    Sum {
        /// Filter predicate.
        pred: Predicate,
        /// Aggregated attribute.
        attr: AttrId,
    },
    /// `SELECT AVG(value(attr)) WHERE pred`.
    Avg {
        /// Filter predicate.
        pred: Predicate,
        /// Aggregated attribute.
        attr: AttrId,
    },
    /// `SELECT attr, COUNT(*) WHERE pred GROUP BY attr`.
    GroupBy {
        /// Filter predicate.
        pred: Predicate,
        /// Grouped attribute.
        attr: AttrId,
    },
    /// The two-attribute group-by; answers are `rows[v_b][v_a]`.
    GroupBy2 {
        /// Filter predicate.
        pred: Predicate,
        /// Inner (fast-varying) group attribute.
        attr_a: AttrId,
        /// Outer group attribute.
        attr_b: AttrId,
    },
    /// `GROUP BY attr ORDER BY count DESC LIMIT k`.
    TopK {
        /// Filter predicate.
        pred: Predicate,
        /// Ranked attribute.
        attr: AttrId,
        /// How many values to keep.
        k: usize,
    },
    /// Draw `k` synthetic tuples from the summarized distribution.
    SampleRows {
        /// Number of tuples.
        k: usize,
        /// Sampling seed (deterministic streams per tuple).
        seed: u64,
    },
}

impl QueryRequest {
    /// Shorthand for [`QueryRequest::Probability`].
    pub fn probability(pred: Predicate) -> Self {
        QueryRequest::Probability { pred }
    }

    /// Shorthand for [`QueryRequest::Count`].
    pub fn count(pred: Predicate) -> Self {
        QueryRequest::Count { pred }
    }

    /// Shorthand for [`QueryRequest::Sum`].
    pub fn sum(pred: Predicate, attr: AttrId) -> Self {
        QueryRequest::Sum { pred, attr }
    }

    /// Shorthand for [`QueryRequest::Avg`].
    pub fn avg(pred: Predicate, attr: AttrId) -> Self {
        QueryRequest::Avg { pred, attr }
    }

    /// Shorthand for [`QueryRequest::GroupBy`].
    pub fn group_by(pred: Predicate, attr: AttrId) -> Self {
        QueryRequest::GroupBy { pred, attr }
    }

    /// Shorthand for [`QueryRequest::GroupBy2`].
    pub fn group_by2(pred: Predicate, attr_a: AttrId, attr_b: AttrId) -> Self {
        QueryRequest::GroupBy2 {
            pred,
            attr_a,
            attr_b,
        }
    }

    /// Shorthand for [`QueryRequest::TopK`].
    pub fn top_k(pred: Predicate, attr: AttrId, k: usize) -> Self {
        QueryRequest::TopK { pred, attr, k }
    }

    /// Shorthand for [`QueryRequest::SampleRows`].
    pub fn sample_rows(k: usize, seed: u64) -> Self {
        QueryRequest::SampleRows { k, seed }
    }

    /// The filter predicate, when this request has one (every variant but
    /// [`QueryRequest::SampleRows`]).
    pub fn predicate(&self) -> Option<&Predicate> {
        match self {
            QueryRequest::Probability { pred }
            | QueryRequest::Count { pred }
            | QueryRequest::Sum { pred, .. }
            | QueryRequest::Avg { pred, .. }
            | QueryRequest::GroupBy { pred, .. }
            | QueryRequest::GroupBy2 { pred, .. }
            | QueryRequest::TopK { pred, .. } => Some(pred),
            QueryRequest::SampleRows { .. } => None,
        }
    }

    /// Encodes the request into its one-line wire form.
    pub fn encode(&self) -> String {
        let mut out = String::from("q1 ");
        match self {
            QueryRequest::Probability { pred } => {
                out.push_str("prob ");
                encode_pred(&mut out, pred);
            }
            QueryRequest::Count { pred } => {
                out.push_str("count ");
                encode_pred(&mut out, pred);
            }
            QueryRequest::Sum { pred, attr } => {
                let _ = write!(out, "sum {} ", attr.0);
                encode_pred(&mut out, pred);
            }
            QueryRequest::Avg { pred, attr } => {
                let _ = write!(out, "avg {} ", attr.0);
                encode_pred(&mut out, pred);
            }
            QueryRequest::GroupBy { pred, attr } => {
                let _ = write!(out, "group {} ", attr.0);
                encode_pred(&mut out, pred);
            }
            QueryRequest::GroupBy2 {
                pred,
                attr_a,
                attr_b,
            } => {
                let _ = write!(out, "group2 {} {} ", attr_a.0, attr_b.0);
                encode_pred(&mut out, pred);
            }
            QueryRequest::TopK { pred, attr, k } => {
                let _ = write!(out, "topk {} {k} ", attr.0);
                encode_pred(&mut out, pred);
            }
            QueryRequest::SampleRows { k, seed } => {
                let _ = write!(out, "sample {k} {seed}");
            }
        }
        out
    }

    /// Decodes a request from its wire form.
    pub fn decode(line: &str) -> Result<Self> {
        let mut r = TokenReader::new(line);
        r.expect("q1")?;
        let op = r.next("request op")?;
        let req = match op {
            "prob" => QueryRequest::Probability {
                pred: decode_pred(&mut r)?,
            },
            "count" => QueryRequest::Count {
                pred: decode_pred(&mut r)?,
            },
            "sum" => QueryRequest::Sum {
                attr: AttrId(r.parse("attr")?),
                pred: decode_pred(&mut r)?,
            },
            "avg" => QueryRequest::Avg {
                attr: AttrId(r.parse("attr")?),
                pred: decode_pred(&mut r)?,
            },
            "group" => QueryRequest::GroupBy {
                attr: AttrId(r.parse("attr")?),
                pred: decode_pred(&mut r)?,
            },
            "group2" => QueryRequest::GroupBy2 {
                attr_a: AttrId(r.parse("attr_a")?),
                attr_b: AttrId(r.parse("attr_b")?),
                pred: decode_pred(&mut r)?,
            },
            "topk" => QueryRequest::TopK {
                attr: AttrId(r.parse("attr")?),
                k: r.parse("k")?,
                pred: decode_pred(&mut r)?,
            },
            "sample" => QueryRequest::SampleRows {
                k: r.parse("k")?,
                seed: r.parse("seed")?,
            },
            other => return Err(wire_error(format!("unknown request op {other:?}"))),
        };
        r.finish()?;
        Ok(req)
    }
}

impl From<Statement> for QueryRequest {
    /// Statements convert 1:1: a grouped count with one attribute becomes
    /// [`QueryRequest::GroupBy`], with two [`QueryRequest::GroupBy2`]
    /// (answers indexed `rows[second][first]`).
    fn from(stmt: Statement) -> Self {
        match stmt {
            Statement::Count { pred } => QueryRequest::Count { pred },
            Statement::Sum { attr, pred } => QueryRequest::Sum { pred, attr },
            Statement::Avg { attr, pred } => QueryRequest::Avg { pred, attr },
            Statement::GroupBy {
                attr,
                by2: None,
                pred,
            } => QueryRequest::GroupBy { pred, attr },
            Statement::GroupBy {
                attr,
                by2: Some(attr_b),
                pred,
            } => QueryRequest::GroupBy2 {
                pred,
                attr_a: attr,
                attr_b,
            },
            Statement::TopK { attr, k, pred } => QueryRequest::TopK { pred, attr, k },
            Statement::Sample { k, seed } => QueryRequest::SampleRows { k, seed },
        }
    }
}

/// Parses a textual statement into a [`QueryRequest`] in one step
/// (statement parser + IR conversion).
pub fn parse_request<R: Resolver + ?Sized>(input: &str, resolver: &R) -> Result<QueryRequest> {
    let stmt = entropydb_storage::parse_statement(input, resolver).map_err(ModelError::Storage)?;
    Ok(QueryRequest::from(stmt))
}

/// A query answer, as a value. Each [`QueryRequest`] variant produces the
/// correspondingly-shaped response; the accessors return `None` on shape
/// mismatch so callers can destructure without panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResponse {
    /// Answer to [`QueryRequest::Probability`].
    Probability(f64),
    /// Answer to [`QueryRequest::Count`] and [`QueryRequest::Sum`].
    Estimate(Estimate),
    /// Answer to [`QueryRequest::Avg`]; `None` when the model gives the
    /// predicate zero probability.
    Average(Option<f64>),
    /// Answer to [`QueryRequest::GroupBy`]: one estimate per value.
    Groups(Vec<Estimate>),
    /// Answer to [`QueryRequest::GroupBy2`]: `rows[v_b][v_a]`.
    Groups2(Vec<Vec<Estimate>>),
    /// Answer to [`QueryRequest::TopK`]: `(value, estimate)` descending.
    Ranked(Vec<(u32, Estimate)>),
    /// Answer to [`QueryRequest::SampleRows`]: dense-coded tuples.
    Rows {
        /// Number of attributes per row.
        arity: usize,
        /// The sampled tuples.
        rows: Vec<Vec<u32>>,
    },
}

impl QueryResponse {
    /// The probability payload, when present.
    pub fn probability(&self) -> Option<f64> {
        match self {
            QueryResponse::Probability(p) => Some(*p),
            _ => None,
        }
    }

    /// The scalar estimate payload, when present.
    pub fn estimate(&self) -> Option<Estimate> {
        match self {
            QueryResponse::Estimate(e) => Some(*e),
            _ => None,
        }
    }

    /// The average payload, when present.
    pub fn average(&self) -> Option<Option<f64>> {
        match self {
            QueryResponse::Average(a) => Some(*a),
            _ => None,
        }
    }

    /// The group-by payload, when present.
    pub fn groups(self) -> Option<Vec<Estimate>> {
        match self {
            QueryResponse::Groups(g) => Some(g),
            _ => None,
        }
    }

    /// The two-attribute group-by payload, when present.
    pub fn groups2(self) -> Option<Vec<Vec<Estimate>>> {
        match self {
            QueryResponse::Groups2(g) => Some(g),
            _ => None,
        }
    }

    /// The top-k payload, when present.
    pub fn ranked(self) -> Option<Vec<(u32, Estimate)>> {
        match self {
            QueryResponse::Ranked(r) => Some(r),
            _ => None,
        }
    }

    /// The sampled-rows payload, when present.
    pub fn rows(self) -> Option<(usize, Vec<Vec<u32>>)> {
        match self {
            QueryResponse::Rows { arity, rows } => Some((arity, rows)),
            _ => None,
        }
    }

    /// Encodes the response into its one-line wire form.
    pub fn encode(&self) -> String {
        let mut out = String::from("r1 ");
        match self {
            QueryResponse::Probability(p) => {
                out.push_str("prob ");
                push_f64(&mut out, *p);
            }
            QueryResponse::Estimate(e) => {
                out.push_str("est");
                push_estimate(&mut out, e);
            }
            QueryResponse::Average(None) => out.push_str("avg none"),
            QueryResponse::Average(Some(v)) => {
                out.push_str("avg some ");
                push_f64(&mut out, *v);
            }
            QueryResponse::Groups(groups) => {
                let _ = write!(out, "groups {}", groups.len());
                for e in groups {
                    push_estimate(&mut out, e);
                }
            }
            QueryResponse::Groups2(rows) => {
                let cols = rows.first().map_or(0, Vec::len);
                let _ = write!(out, "groups2 {} {cols}", rows.len());
                for row in rows {
                    for e in row {
                        push_estimate(&mut out, e);
                    }
                }
            }
            QueryResponse::Ranked(entries) => {
                let _ = write!(out, "ranked {}", entries.len());
                for (v, e) in entries {
                    let _ = write!(out, " {v}");
                    push_estimate(&mut out, e);
                }
            }
            QueryResponse::Rows { arity, rows } => {
                let _ = write!(out, "rows {} {arity}", rows.len());
                for row in rows {
                    for v in row {
                        let _ = write!(out, " {v}");
                    }
                }
            }
        }
        out
    }

    /// Decodes a response from its wire form. A remote error payload
    /// (`r1 err ...`) decodes to [`ModelError::Remote`].
    pub fn decode(line: &str) -> Result<Self> {
        let mut r = TokenReader::new(line);
        r.expect("r1")?;
        let op = r.next("response op")?;
        let resp = match op {
            "prob" => QueryResponse::Probability(r.f64("probability")?),
            "est" => QueryResponse::Estimate(read_estimate(&mut r)?),
            "avg" => match r.next("avg payload")? {
                "none" => QueryResponse::Average(None),
                "some" => QueryResponse::Average(Some(r.f64("average")?)),
                other => return Err(wire_error(format!("bad avg payload {other:?}"))),
            },
            "groups" => QueryResponse::Groups(r.list("group count", read_estimate)?),
            "groups2" => {
                let (nrows, cols) = (r.parse("row count")?, r.parse("column count")?);
                QueryResponse::Groups2(r.grid(nrows, cols, read_estimate)?)
            }
            "ranked" => QueryResponse::Ranked(r.list("entry count", read_ranked)?),
            "rows" => {
                let (nrows, arity) = (r.parse("row count")?, r.parse("arity")?);
                let rows = r.grid(nrows, arity, |r| r.parse("code"))?;
                QueryResponse::Rows { arity, rows }
            }
            "err" | "busy" => return Err(decode_refusal(op, &mut r)),
            other => return Err(wire_error(format!("unknown response op {other:?}"))),
        };
        r.finish()?;
        Ok(resp)
    }

    /// Encodes an error as the wire error payload, the serving layer's
    /// error channel. [`ModelError::Busy`] keeps its type across the wire
    /// (the `busy` payload, decoding back to `Busy`) so clients can tell a
    /// retryable load-shed from a deterministic failure; every other error
    /// decodes back to [`ModelError::Remote`].
    pub fn encode_error(err: &ModelError) -> String {
        encode_refusal("r1", err)
    }
}

/// Appends one ` expectation variance` pair.
pub(crate) fn push_estimate(out: &mut String, e: &Estimate) {
    out.push(' ');
    push_f64(out, e.expectation);
    out.push(' ');
    push_f64(out, e.variance);
}

pub(crate) fn read_estimate(r: &mut TokenReader<'_>) -> Result<Estimate> {
    // Constructed field-by-field (not via `Estimate::new`) so decoding
    // reproduces the encoded struct bit-for-bit, clamps included.
    Ok(Estimate {
        expectation: r.f64("expectation")?,
        variance: r.f64("variance")?,
    })
}

/// One `value expectation variance` entry of a `ranked` payload.
fn read_ranked(r: &mut TokenReader<'_>) -> Result<(u32, Estimate)> {
    Ok((r.parse("ranked value")?, read_estimate(r)?))
}

fn encode_pred(out: &mut String, pred: &Predicate) {
    let _ = write!(out, "p {}", pred.clauses().len());
    for (attr, clause) in pred.clauses() {
        let _ = write!(out, " {}", attr.0);
        match clause {
            AttrPredicate::All => out.push_str(" a"),
            AttrPredicate::Never => out.push_str(" n"),
            AttrPredicate::Point(v) => {
                let _ = write!(out, " pt {v}");
            }
            AttrPredicate::Range { lo, hi } => {
                let _ = write!(out, " rng {lo} {hi}");
            }
            AttrPredicate::Set(vs) => {
                let _ = write!(out, " set {}", vs.len());
                for v in vs {
                    let _ = write!(out, " {v}");
                }
            }
        }
    }
}

fn decode_pred(r: &mut TokenReader<'_>) -> Result<Predicate> {
    r.expect("p")?;
    let n: usize = r.parse("clause count")?;
    let mut pred = Predicate::new();
    for _ in 0..n {
        let attr = AttrId(r.parse("clause attr")?);
        let clause = match r.next("clause kind")? {
            "a" => AttrPredicate::All,
            "n" => AttrPredicate::Never,
            "pt" => AttrPredicate::Point(r.parse("point value")?),
            "rng" => {
                let lo = r.parse("range lo")?;
                let hi = r.parse("range hi")?;
                AttrPredicate::range(lo, hi).map_err(ModelError::Storage)?
            }
            "set" => {
                let vs = r.list("set size", |r| r.parse("set value"))?;
                if vs.is_empty() {
                    return Err(wire_error(
                        "empty set clause (encode as kind 'n')".to_string(),
                    ));
                }
                // `set` keeps the sorted-dedup invariant without changing
                // an already-canonical list.
                AttrPredicate::set(vs)
            }
            other => return Err(wire_error(format!("unknown clause kind {other:?}"))),
        };
        pred = pred.with(attr, clause);
    }
    Ok(pred)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: usize) -> AttrId {
        AttrId(i)
    }

    fn pred() -> Predicate {
        Predicate::new()
            .eq(a(0), 3)
            .between(a(1), 2, 5)
            .in_set(a(2), vec![7, 1, 7])
            .in_set(a(3), vec![])
            .with(a(4), AttrPredicate::All)
    }

    #[test]
    fn request_round_trips() {
        let reqs = [
            QueryRequest::probability(pred()),
            QueryRequest::count(Predicate::all()),
            QueryRequest::sum(pred(), a(1)),
            QueryRequest::avg(pred(), a(2)),
            QueryRequest::group_by(pred(), a(0)),
            QueryRequest::group_by2(pred(), a(0), a(1)),
            QueryRequest::top_k(pred(), a(3), 5),
            QueryRequest::sample_rows(100, 42),
        ];
        for req in reqs {
            let line = req.encode();
            let decoded = QueryRequest::decode(&line).unwrap();
            assert_eq!(decoded, req, "{line}");
            assert_eq!(decoded.encode(), line);
        }
    }

    #[test]
    fn response_round_trips() {
        let e = |x: f64, v: f64| Estimate {
            expectation: x,
            variance: v,
        };
        let resps = [
            QueryResponse::Probability(0.12345678912345678),
            QueryResponse::Estimate(e(1234.5678, 0.25)),
            QueryResponse::Average(None),
            QueryResponse::Average(Some(-12.5)),
            QueryResponse::Groups(vec![e(1.0, 0.5), e(0.0, 0.0), e(1e-300, 2e300)]),
            QueryResponse::Groups2(vec![
                vec![e(1.0, 2.0), e(3.0, 4.0)],
                vec![e(5.0, 6.0), e(7.0, 8.0)],
            ]),
            QueryResponse::Ranked(vec![(3, e(9.0, 1.0)), (0, e(2.0, 0.1))]),
            QueryResponse::Rows {
                arity: 3,
                rows: vec![vec![1, 2, 3], vec![4, 5, 6]],
            },
            QueryResponse::Groups(vec![]),
            QueryResponse::Rows {
                arity: 2,
                rows: vec![],
            },
        ];
        for resp in resps {
            let line = resp.encode();
            let decoded = QueryResponse::decode(&line).unwrap();
            assert_eq!(decoded, resp, "{line}");
            assert_eq!(decoded.encode(), line);
        }
    }

    #[test]
    fn estimates_round_trip_bit_identically() {
        let e = Estimate {
            expectation: 0.1 + 0.2, // not representable as a short decimal
            variance: f64::MIN_POSITIVE,
        };
        let line = QueryResponse::Estimate(e).encode();
        let back = QueryResponse::decode(&line).unwrap().estimate().unwrap();
        assert_eq!(back.expectation.to_bits(), e.expectation.to_bits());
        assert_eq!(back.variance.to_bits(), e.variance.to_bits());
    }

    #[test]
    fn error_payload_decodes_to_remote() {
        let line = QueryResponse::encode_error(&ModelError::ShapeMismatch);
        match QueryResponse::decode(&line) {
            Err(ModelError::Remote(_)) => {}
            other => panic!("expected remote error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_wire_lines_rejected() {
        for line in [
            "",
            "q2 count p 0",
            "q1 count",
            "q1 count p 1 0",
            "q1 count p 1 0 pt",
            "q1 count p 1 0 set 0",
            "q1 count p 0 trailing",
            "q1 nonsense p 0",
            "q1 sample 5",
            "q1 count p 1 0 rng 5 2",
        ] {
            assert!(QueryRequest::decode(line).is_err(), "{line:?}");
        }
        for line in [
            "r1 est 1.0",
            "r1 avg maybe 3",
            "r1 groups 2 1.0 2.0",
            "r2 est 1 2",
        ] {
            assert!(QueryResponse::decode(line).is_err(), "{line:?}");
        }
    }

    #[test]
    fn statement_conversion_maps_one_to_one() {
        let p = Predicate::new().eq(a(0), 1);
        assert_eq!(
            QueryRequest::from(Statement::Count { pred: p.clone() }),
            QueryRequest::count(p.clone())
        );
        assert_eq!(
            QueryRequest::from(Statement::GroupBy {
                attr: a(1),
                by2: Some(a(2)),
                pred: p.clone()
            }),
            QueryRequest::group_by2(p.clone(), a(1), a(2))
        );
        assert_eq!(
            QueryRequest::from(Statement::Sample { k: 9, seed: 3 }),
            QueryRequest::sample_rows(9, 3)
        );
    }
}
