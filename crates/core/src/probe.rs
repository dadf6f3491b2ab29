//! The probe IR: the one mask-level question, and its one execution method.
//!
//! The query IR ([`crate::plan`]) speaks *predicates* — the currency of
//! clients — and is executed by `execute`
//! ([`QueryEngine::execute`](crate::engine::QueryEngine::execute)). Below
//! it every backend speaks *masks*: the engine validates a predicate once,
//! translates it into a [`Mask`], and asks the backend one masked
//! evaluation (Sec. 4.2: zero the variables the predicate excludes and
//! evaluate `P`). A [`ProbeRequest`] *is* that question, and
//! [`ShardProbe::probe`](crate::scatter::ShardProbe::probe) is the only
//! method that answers it: a fitted model interprets it
//! ([`MaxEntSummary`](crate::model::MaxEntSummary) holds the one `match`
//! that reaches a kernel), a mixture forwards the borrowed request to
//! [`scatter::gather`](crate::scatter::gather), and a node across the wire
//! is sent the same value as a `b1` line — so a remote scatter/gather
//! backend answers bitwise-identically to an in-process
//! [`ShardedSummary`](crate::sharded::ShardedSummary). A top-k is not a
//! probe: every backend ranks the (merged) `group` answer once.
//!
//! ## Wire format (version 1)
//!
//! One probe or response per line, whitespace-separated tokens, floats as
//! [`wire::push_f64`](crate::wire::push_f64) tokens (`Display`'s bytes:
//! encode → decode → encode is the identity, and transported
//! masks/estimates are bit-identical):
//!
//! ```text
//! probe    := "b1" body
//! body     := "prob" mask            | "count" mask
//!           | "probm" nmasks mask*   | "countm" nmasks mask*
//!           | "sum" attr nvalues value* mask
//!           | "group" attr mask
//!           | "sample" k seed n index*
//! mask     := "m" arity ( "i" | "w" len weight* | "r" len nruns (lo hi)* )*
//!
//! response := "c1" payload
//! payload  := "prob" f               | "est" expectation variance
//!           | "probs" len f*
//!           | "ests" len (expectation variance)*
//!           | "groups" len (expectation variance)*
//!           | "rows" nrows arity code*
//!           | "err" message...
//!           | "busy" message...
//! ```
//!
//! `probm` / `countm` are the batch probes: one line per batch. The shard
//! model evaluates the whole batch in one call: a tree component shares
//! one message-passing walk among up to eight masks (lanes, each bitwise
//! its one-mask pass), a closure component walks its terms once per mask.
//! The answers come back in mask order — bitwise-identical to sending the
//! masks one probe at a time, at one line and one gather round for the
//! whole batch.
//!
//! `sample k seed n index*` draws the tuples at the given *global* indices
//! of a `sample_rows(k, seed)` call: every backend derives a tuple's
//! randomness only from `(seed, index)`, so a shard node reproduces exactly
//! the rows the gatherer's stratification assigned to it, and a full draw
//! is the same probe over `0..k`.
//!
//! A mask item is `i` for an unconstrained attribute, or one weight vector
//! in either of two spellings. `w` lists every weight. `r` lists the runs
//! of ones of a vector whose every weight is bitwise `0.0` or `1.0` — the
//! only kind a predicate builds (Sec. 4.2) — as inclusive code ranges,
//! strictly ascending and maximal (at least one zero between two runs),
//! with `len ≤` [`WIRE_PREALLOC_CAP`]. The encoder writes `r` whenever it
//! is no longer than `w` for the same weights and `len` is within that
//! cap, so `r 81 1 40 40` stands for an 81-bucket point where `w` would
//! spend 166 bytes; the decoder reads both, and refuses a non-canonical run
//! list before allocating.
//!
//! Every probe is one wire line, so a single probe's encoding must fit the
//! serving layer's line cap ([`MAX_LINE_BYTES`], 1 MiB). A predicate mask
//! costs a few bytes per run; the longest a mask ever gets is its `w` form,
//! a few bytes per constrained-attribute bucket, comfortably within the cap
//! for domains into the tens of thousands of buckets per attribute. The
//! `r` items of one line together expand to at most `MAX_LINE_BYTES / 2`
//! weights — what a `w` line under the cap can carry, two bytes a weight —
//! so a few bytes of runs never allocate more than listing the weights
//! would, and every line whose `w` form fits the cap decodes as `r` too.

use crate::assignment::{AttrMask, Mask};
use crate::error::{ModelError, RemoteDetail, Result};
use crate::plan::{push_estimate, read_estimate};
use crate::query::Estimate;
use crate::wire::{
    decode_refusal, encode_refusal, push_f64, wire_error, TokenReader, MAX_LINE_BYTES,
    WIRE_PREALLOC_CAP,
};
use entropydb_storage::AttrId;
use std::cell::OnceCell;
use std::fmt::Write as _;

/// One mask-level evaluation request against a single shard.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeRequest {
    /// Tuple-draw probability under the mask.
    Probability {
        /// The (already validated) query mask.
        mask: Mask,
    },
    /// COUNT estimate under the mask.
    Count {
        /// The query mask.
        mask: Mask,
    },
    /// One tuple-draw probability per mask, each bitwise its own
    /// `Probability` — one wire line per mask batch.
    ProbabilityMany {
        /// The query masks, answered in order.
        masks: Vec<Mask>,
    },
    /// One COUNT estimate per mask (batched form of `Count`).
    CountMany {
        /// The query masks, answered in order.
        masks: Vec<Mask>,
    },
    /// SUM estimate under the base mask, weighting `attr` by `values`.
    Sum {
        /// The base COUNT mask.
        mask: Mask,
        /// The aggregated attribute.
        attr: AttrId,
        /// Per-code weights (sent explicitly so gatherer and shard use the
        /// same floats, bit for bit).
        values: Vec<f64>,
    },
    /// One estimate per value of `attr` under the mask.
    GroupBy {
        /// The query mask.
        mask: Mask,
        /// The grouped attribute.
        attr: AttrId,
    },
    /// Draw the tuples at `indices` of a `sample_rows(k, seed)` call.
    SampleAt {
        /// Total draw count of the originating call (a mixture stratifies
        /// `0..k` across its shards by it; indices must be `< k`).
        k: usize,
        /// The sampling seed.
        seed: u64,
        /// Global tuple indices to draw, in response order.
        indices: Vec<u64>,
    },
}

/// A shard's answer to one [`ProbeRequest`].
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeResponse {
    /// Answer to [`ProbeRequest::Probability`].
    Probability(f64),
    /// Answer to [`ProbeRequest::ProbabilityMany`], in mask order.
    Probabilities(Vec<f64>),
    /// Answer to [`ProbeRequest::Count`] and [`ProbeRequest::Sum`].
    Estimate(Estimate),
    /// Answer to [`ProbeRequest::CountMany`], in mask order.
    Estimates(Vec<Estimate>),
    /// Answer to [`ProbeRequest::GroupBy`], one estimate per value.
    Groups(Vec<Estimate>),
    /// Answer to [`ProbeRequest::SampleAt`], rows in index order.
    Rows {
        /// Number of attributes per row.
        arity: usize,
        /// The drawn tuples.
        rows: Vec<Vec<u32>>,
    },
}

impl ProbeRequest {
    /// Checks the request's shapes against a backend's active-domain
    /// sizes: mask arity and weight-vector lengths, attribute bounds, the
    /// SUM value-vector length, and sample indices `< k` — and that every
    /// mask weight is finite and non-negative (a `NaN`, infinite or
    /// negative weight has no meaning as a mask and would be answered as a
    /// silent `0` or `n`). Probes bypass the engine's predicate validation
    /// by design, so this runs wherever outside bytes enter
    /// ([`QueryEngine::probe`](crate::engine::QueryEngine::probe)) and in
    /// the leaf that indexes by these shapes
    /// ([`MaxEntSummary`](crate::model::MaxEntSummary)'s `probe`).
    pub fn validate(&self, sizes: &[usize]) -> Result<()> {
        let shape = |ok: bool| ok.then_some(()).ok_or(ModelError::ShapeMismatch);
        // Counted, not `all`-ed: the count vectorizes, and every probe
        // pays this scan.
        let bad_weights = |w: &[f64]| w.iter().filter(|x| !(0.0..=f64::MAX).contains(*x)).count();
        let check_mask = |mask: &Mask| {
            shape(mask.arity() == sizes.len())?;
            for (attr, &size) in sizes.iter().enumerate() {
                let Some(w) = mask.attr_weights(attr) else {
                    continue;
                };
                shape(w.len() == size)?;
                if bad_weights(w) > 0 {
                    return Err(ModelError::NumericalFailure(
                        "mask weights must be finite and non-negative",
                    ));
                }
            }
            Ok(())
        };
        match self {
            ProbeRequest::Probability { mask } | ProbeRequest::Count { mask } => check_mask(mask),
            ProbeRequest::ProbabilityMany { masks } | ProbeRequest::CountMany { masks } => {
                masks.iter().try_for_each(check_mask)
            }
            ProbeRequest::Sum { mask, attr, values } => {
                check_mask(mask)?;
                shape(sizes.get(attr.0) == Some(&values.len()))
            }
            ProbeRequest::GroupBy { mask, attr } => {
                check_mask(mask)?;
                shape(attr.0 < sizes.len())
            }
            ProbeRequest::SampleAt { k, indices, .. } => {
                shape(indices.iter().all(|&i| i < *k as u64))
            }
        }
    }

    /// The number of independently answerable *slots* of a batch or draw —
    /// the masks of `ProbabilityMany` / `CountMany`, the indices of
    /// `SampleAt` — or `None` for a scalar request, which is asked whole.
    pub fn slots(&self) -> Option<usize> {
        match self {
            ProbeRequest::ProbabilityMany { masks } | ProbeRequest::CountMany { masks } => {
                Some(masks.len())
            }
            ProbeRequest::SampleAt { indices, .. } => Some(indices.len()),
            _ => None,
        }
    }

    /// The masks of a batch (none for any other request).
    fn batch_masks(&self) -> &[Mask] {
        match self {
            ProbeRequest::ProbabilityMany { masks } | ProbeRequest::CountMany { masks } => masks,
            _ => &[],
        }
    }

    /// This request restricted to the given [slots](ProbeRequest::slots),
    /// in that order (a scalar request has none and is returned whole): what
    /// one shard of a mixture is asked when it owes only part of a batch.
    pub fn select(&self, slots: &[usize]) -> ProbeRequest {
        let pick = |masks: &[Mask]| slots.iter().map(|&slot| masks[slot].clone()).collect();
        match self {
            ProbeRequest::ProbabilityMany { masks } => {
                ProbeRequest::ProbabilityMany { masks: pick(masks) }
            }
            ProbeRequest::CountMany { masks } => ProbeRequest::CountMany { masks: pick(masks) },
            ProbeRequest::SampleAt { k, seed, indices } => ProbeRequest::SampleAt {
                k: *k,
                seed: *seed,
                indices: slots.iter().map(|&slot| indices[slot]).collect(),
            },
            scalar => scalar.clone(),
        }
    }

    /// Encodes the probe into its one-line wire form.
    pub fn encode(&self) -> String {
        let mut out = String::from("b1 ");
        match self {
            ProbeRequest::Probability { mask } => {
                out.push_str("prob ");
                encode_mask(&mut out, mask);
            }
            ProbeRequest::Count { mask } => {
                out.push_str("count ");
                encode_mask(&mut out, mask);
            }
            ProbeRequest::ProbabilityMany { .. }
            | ProbeRequest::CountMany { .. }
            | ProbeRequest::SampleAt { .. } => {
                let masks = self.batch_masks();
                let slots = 0..self.slots().unwrap_or(0);
                return self.encode_slots(slots, |out, slot| encode_mask(out, &masks[slot]));
            }
            ProbeRequest::Sum { mask, attr, values } => {
                let _ = write!(out, "sum {} {}", attr.0, values.len());
                for &v in values {
                    out.push(' ');
                    push_f64(&mut out, v);
                }
                out.push(' ');
                encode_mask(&mut out, mask);
            }
            ProbeRequest::GroupBy { mask, attr } => {
                let _ = write!(out, "group {} ", attr.0);
                encode_mask(&mut out, mask);
            }
        }
        out
    }

    /// The line of a batch or draw carrying the given slots — the whole
    /// request ([`ProbeRequest::encode`]) or one frame of it
    /// ([`SharedEncoding::frame`]); `mask` writes a batch slot's mask token.
    fn encode_slots(
        &self,
        slots: impl ExactSizeIterator<Item = usize>,
        mut mask: impl FnMut(&mut String, usize),
    ) -> String {
        let mut out = String::from("b1 ");
        let _ = match self {
            ProbeRequest::ProbabilityMany { .. } => write!(out, "probm {}", slots.len()),
            ProbeRequest::CountMany { .. } => write!(out, "countm {}", slots.len()),
            ProbeRequest::SampleAt { k, seed, .. } => {
                write!(out, "sample {k} {seed} {}", slots.len())
            }
            _ => unreachable!("a scalar request has no slots"),
        };
        for slot in slots {
            out.push(' ');
            match self {
                ProbeRequest::SampleAt { indices, .. } => {
                    let _ = write!(out, "{}", indices[slot]);
                }
                _ => mask(&mut out, slot),
            }
        }
        out
    }

    /// Decodes a probe from its wire form.
    pub fn decode(line: &str) -> Result<Self> {
        let mut r = TokenReader::new(line);
        r.expect("b1")?;
        let op = r.next("probe op")?;
        let mut budget = RUN_WEIGHT_BUDGET;
        let mut mask = |r: &mut TokenReader<'_>| decode_mask(r, &mut budget);
        let req = match op {
            "prob" => ProbeRequest::Probability {
                mask: mask(&mut r)?,
            },
            "count" => ProbeRequest::Count {
                mask: mask(&mut r)?,
            },
            "probm" | "countm" => {
                let masks = r.list("mask count", mask)?;
                if op == "probm" {
                    ProbeRequest::ProbabilityMany { masks }
                } else {
                    ProbeRequest::CountMany { masks }
                }
            }
            "sum" => {
                let attr = AttrId(r.parse("attr")?);
                let values = r.list("value count", |r| r.f64("value"))?;
                ProbeRequest::Sum {
                    mask: mask(&mut r)?,
                    attr,
                    values,
                }
            }
            "group" => ProbeRequest::GroupBy {
                attr: AttrId(r.parse("attr")?),
                mask: mask(&mut r)?,
            },
            "sample" => {
                let k: usize = r.parse("k")?;
                let seed: u64 = r.parse("seed")?;
                let indices = r.list("index count", |r| r.parse("index"))?;
                ProbeRequest::SampleAt { k, seed, indices }
            }
            other => return Err(wire_error(format!("unknown probe op {other:?}"))),
        };
        r.finish()?;
        Ok(req)
    }
}

impl ProbeResponse {
    /// True when this response has the shape `request` asks for: the
    /// matching variant and, where the request fixes it, the matching
    /// length. The one "response answers request" test — remote shards
    /// apply it to wire replies, the gather side to every answer it merges.
    pub fn answers(&self, request: &ProbeRequest) -> bool {
        self.answers_slots(request, request.slots())
    }

    /// [`ProbeResponse::answers`] for `request` restricted to `slots` of
    /// its [slots](ProbeRequest::slots) — the answer to its
    /// [selection](ProbeRequest::select), without building it.
    pub fn answers_slots(&self, request: &ProbeRequest, slots: Option<usize>) -> bool {
        match (request, self) {
            (ProbeRequest::Probability { .. }, ProbeResponse::Probability(_))
            | (ProbeRequest::Count { .. } | ProbeRequest::Sum { .. }, ProbeResponse::Estimate(_))
            | (ProbeRequest::GroupBy { .. }, ProbeResponse::Groups(_)) => true,
            (ProbeRequest::ProbabilityMany { .. }, ProbeResponse::Probabilities(ps)) => {
                Some(ps.len()) == slots
            }
            (ProbeRequest::CountMany { .. }, ProbeResponse::Estimates(es)) => {
                Some(es.len()) == slots
            }
            (ProbeRequest::SampleAt { .. }, ProbeResponse::Rows { rows, .. }) => {
                Some(rows.len()) == slots
            }
            _ => false,
        }
    }

    /// Encodes the response into its one-line wire form.
    pub fn encode(&self) -> String {
        let mut out = String::from("c1 ");
        match self {
            ProbeResponse::Probability(p) => {
                out.push_str("prob ");
                push_f64(&mut out, *p);
            }
            ProbeResponse::Probabilities(ps) => {
                let _ = write!(out, "probs {}", ps.len());
                for &p in ps {
                    out.push(' ');
                    push_f64(&mut out, p);
                }
            }
            ProbeResponse::Estimate(e) => {
                out.push_str("est");
                push_estimate(&mut out, e);
            }
            ProbeResponse::Estimates(list) => {
                let _ = write!(out, "ests {}", list.len());
                for e in list {
                    push_estimate(&mut out, e);
                }
            }
            ProbeResponse::Groups(list) => {
                let _ = write!(out, "groups {}", list.len());
                for e in list {
                    push_estimate(&mut out, e);
                }
            }
            ProbeResponse::Rows { arity, rows } => {
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

    /// Decodes a response from its wire form. An error payload
    /// (`c1 err ...`) decodes to [`ModelError::Remote`]; a load-shed
    /// payload (`c1 busy ...`) to [`ModelError::Busy`].
    pub fn decode(line: &str) -> Result<Self> {
        let mut r = TokenReader::new(line);
        r.expect("c1")?;
        let op = r.next("probe response op")?;
        let resp = match op {
            "prob" => ProbeResponse::Probability(r.f64("probability")?),
            "probs" => {
                ProbeResponse::Probabilities(r.list("probability count", |r| r.f64("probability"))?)
            }
            "est" => ProbeResponse::Estimate(read_estimate(&mut r)?),
            "ests" | "groups" => {
                let list = r.list("estimate count", read_estimate)?;
                if op == "ests" {
                    ProbeResponse::Estimates(list)
                } else {
                    ProbeResponse::Groups(list)
                }
            }
            "rows" => {
                let (nrows, arity) = (r.parse("row count")?, r.parse("arity")?);
                let rows = r.grid(nrows, arity, |r| r.parse("code"))?;
                ProbeResponse::Rows { arity, rows }
            }
            "err" | "busy" => return Err(decode_refusal(op, &mut r)),
            other => return Err(wire_error(format!("unknown probe response op {other:?}"))),
        };
        r.finish()?;
        Ok(resp)
    }

    /// Encodes an error as the probe error payload. [`ModelError::Busy`]
    /// keeps its type across the wire (the `busy` payload) so a gatherer
    /// can back off and retry a shedding shard instead of degrading it;
    /// every other error decodes back to [`ModelError::Remote`].
    pub fn encode_error(err: &ModelError) -> String {
        encode_refusal("c1", err)
    }
}

/// One request encoded for many recipients: the whole line is built once,
/// and a batch's masks — the heavy tokens — are each encoded at most once,
/// on first use, however many frames carry them. A mixture's fan-out sends
/// every shard the same scalar line, and each shard of a batch the frame of
/// just the slots it owes.
pub struct SharedEncoding<'a> {
    request: &'a ProbeRequest,
    whole: OnceCell<String>,
    masks: Vec<OnceCell<String>>,
}

impl<'a> SharedEncoding<'a> {
    /// Nothing is encoded until a line is asked for.
    pub fn new(request: &'a ProbeRequest) -> Self {
        SharedEncoding {
            request,
            whole: OnceCell::new(),
            masks: vec![OnceCell::new(); request.batch_masks().len()],
        }
    }

    /// [`ProbeRequest::encode`] of the whole request.
    pub fn whole(&self) -> &str {
        self.whole.get_or_init(|| self.request.encode())
    }

    /// The line of [`ProbeRequest::select`]`(slots)` of a batch or draw.
    pub fn frame(&self, slots: &[usize]) -> String {
        let masks = self.request.batch_masks();
        let token = |slot: usize| {
            let mut token = String::new();
            encode_mask(&mut token, &masks[slot]);
            token
        };
        self.request
            .encode_slots(slots.iter().copied(), |out, slot| {
                out.push_str(self.masks[slot].get_or_init(|| token(slot)))
            })
    }
}

/// The runs of ones of a weight vector whose every weight is bitwise `0.0`
/// or `1.0` — what every predicate mask is made of — as inclusive `(lo,
/// hi)` code ranges, ascending and maximal: what the `r` mask item spells.
pub(crate) struct UnitRuns<'a> {
    weights: &'a [f64],
    /// Where the scan for the next run starts.
    at: usize,
    /// Runs not yet yielded.
    left: usize,
}

impl<'a> UnitRuns<'a> {
    /// `None` unless every weight is bitwise `0.0` or `1.0` (`-0.0` is not:
    /// it must travel as the bits it is).
    pub(crate) fn of(weights: &'a [f64]) -> Option<Self> {
        const ONE: u64 = 1.0f64.to_bits();
        // Branch-free: this scan runs on every probe encode.
        let (mut unit, mut left, mut prev) = (true, 0, false);
        for &w in weights {
            let bits = w.to_bits();
            let one = bits == ONE;
            unit &= one | (bits == 0);
            // A one after a zero, or first, opens a run.
            left += usize::from(one & !prev);
            prev = one;
        }
        unit.then_some(UnitRuns {
            weights,
            at: 0,
            left,
        })
    }
}

impl Iterator for UnitRuns<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        if self.left == 0 {
            return None;
        }
        let zeros = self.weights[self.at..]
            .iter()
            .take_while(|w| w.to_bits() == 0);
        let lo = self.at + zeros.count();
        let ones = self.weights[lo..].iter().take_while(|w| w.to_bits() != 0);
        let hi = lo + ones.count() - 1;
        self.at = hi + 1;
        self.left -= 1;
        Some((lo, hi))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for UnitRuns<'_> {}

/// Appends a space and `x` in decimal, the bytes `write!(out, " {x}")`
/// appends. A mask's integer tokens are the bulk of an `r` line, and
/// `write!` made the 16-mask `countm` encode of `benches/server.rs` cost
/// 7 900–9 400 ns against 4 300–7 000 with this (three alternating pairs,
/// same build otherwise, on a shared 2-vCPU host).
fn push_count(out: &mut String, x: usize) {
    fn digits(out: &mut String, x: usize) {
        if x >= 10 {
            digits(out, x / 10);
        }
        out.push(char::from(b'0' + (x % 10) as u8));
    }
    out.push(' ');
    digits(out, x);
}

fn encode_mask(out: &mut String, mask: &Mask) {
    out.push('m');
    push_count(out, mask.arity());
    for attr in 0..mask.arity() {
        match mask.attr_weights(attr) {
            None => out.push_str(" i"),
            Some(w) => encode_weights(out, w),
        }
    }
}

/// One weight vector as `r` when that is no longer than `w` and its length
/// is one the decoder reads as `r`, else as `w`.
fn encode_weights(out: &mut String, w: &[f64]) {
    let start = out.len();
    let runs = (w.len() <= WIRE_PREALLOC_CAP)
        .then(|| UnitRuns::of(w))
        .flatten();
    if let Some(runs) = runs {
        out.push_str(" r");
        push_count(out, w.len());
        // `w` spends the same head, then two bytes a 0/1 weight.
        let w_form = out.len() - start + 2 * w.len();
        push_count(out, runs.len());
        for (lo, hi) in runs {
            push_count(out, lo);
            push_count(out, hi);
        }
        if out.len() - start <= w_form {
            return;
        }
        out.truncate(start);
    }
    out.push_str(" w");
    push_count(out, w.len());
    for &x in w {
        out.push(' ');
        push_f64(out, x);
    }
}

/// The most weights the `r` items of one line may expand to together: what
/// a `w` line under [`MAX_LINE_BYTES`] can carry, a `0`/`1` weight and its
/// space being two bytes.
const RUN_WEIGHT_BUDGET: usize = MAX_LINE_BYTES as usize / 2;

/// One mask; its `r` items draw on `budget`, the weights the line's `r`
/// items may still expand to.
fn decode_mask(r: &mut TokenReader<'_>, budget: &mut usize) -> Result<Mask> {
    r.expect("m")?;
    let attrs = r.list("mask arity", |r| {
        let weights = match r.next("mask item")? {
            "i" => None,
            "w" => Some(r.list("weight count", |r| r.f64("weight"))?),
            "r" => Some(decode_runs(r, budget)?),
            other => return Err(wire_error(format!("unknown mask item {other:?}"))),
        };
        Ok(AttrMask::new(weights))
    })?;
    Ok(Mask::from_attrs(attrs))
}

/// The weights of an `r len nruns (lo hi)*` item. The length and the whole
/// run list are checked before the vector is allocated: `len` at most
/// [`WIRE_PREALLOC_CAP`] and within what is left of `budget`, runs in
/// `0..len`, strictly ascending and maximal.
fn decode_runs(r: &mut TokenReader<'_>, budget: &mut usize) -> Result<Vec<f64>> {
    let len: usize = r.parse("run mask length")?;
    if len > WIRE_PREALLOC_CAP {
        return Err(r.error(format!("run mask length {len} exceeds {WIRE_PREALLOC_CAP}")));
    }
    *budget = budget.checked_sub(len).ok_or_else(|| {
        r.error(format!(
            "run masks of one line expand to more than {RUN_WEIGHT_BUDGET} weights"
        ))
    })?;
    let nruns: usize = r.parse("run count")?;
    let run = |r: &mut TokenReader<'_>| -> Result<(usize, usize)> {
        Ok((r.parse("run lo")?, r.parse("run hi")?))
    };
    // The runs are read twice: checked, then (all of them good) filled in.
    let mut fill = r.clone();
    // The lowest code the next run may start at: one past a zero.
    let mut next = 0;
    for _ in 0..nruns {
        let (lo, hi) = run(r)?;
        if lo < next || hi < lo || hi >= len {
            return Err(r.error(format!(
                "run {lo} {hi} of a {len}-code mask is not in range, ascending and maximal"
            )));
        }
        next = hi + 2;
    }
    let mut weights = vec![0.0; len];
    for _ in 0..nruns {
        let (lo, hi) = run(&mut fill)?;
        weights[lo..=hi].fill(1.0);
    }
    Ok(weights)
}

fn unexpected_shape() -> ModelError {
    ModelError::Remote(RemoteDetail::message(
        "probe response had an unexpected shape",
    ))
}

/// The payload conversions the gather side unwraps a merged answer with;
/// a wrong variant is a typed error, never a panic.
impl TryFrom<ProbeResponse> for f64 {
    type Error = ModelError;
    fn try_from(resp: ProbeResponse) -> Result<f64> {
        match resp {
            ProbeResponse::Probability(p) => Ok(p),
            _ => Err(unexpected_shape()),
        }
    }
}

impl TryFrom<ProbeResponse> for Estimate {
    type Error = ModelError;
    fn try_from(resp: ProbeResponse) -> Result<Estimate> {
        match resp {
            ProbeResponse::Estimate(e) => Ok(e),
            _ => Err(unexpected_shape()),
        }
    }
}

impl TryFrom<ProbeResponse> for Vec<f64> {
    type Error = ModelError;
    fn try_from(resp: ProbeResponse) -> Result<Vec<f64>> {
        match resp {
            ProbeResponse::Probabilities(ps) => Ok(ps),
            _ => Err(unexpected_shape()),
        }
    }
}

impl TryFrom<ProbeResponse> for Vec<Estimate> {
    type Error = ModelError;
    fn try_from(resp: ProbeResponse) -> Result<Vec<Estimate>> {
        match resp {
            ProbeResponse::Estimates(list) | ProbeResponse::Groups(list) => Ok(list),
            _ => Err(unexpected_shape()),
        }
    }
}

impl TryFrom<ProbeResponse> for Vec<Vec<u32>> {
    type Error = ModelError;
    fn try_from(resp: ProbeResponse) -> Result<Vec<Vec<u32>>> {
        match resp {
            ProbeResponse::Rows { rows, .. } => Ok(rows),
            _ => Err(unexpected_shape()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask() -> Mask {
        Mask::from_weights(vec![
            None,
            Some(vec![0.0, 1.0, 0.5]),
            Some(vec![12.25, -3.5]),
        ])
    }

    #[test]
    fn probe_requests_round_trip() {
        let reqs = [
            ProbeRequest::Probability { mask: mask() },
            ProbeRequest::Count { mask: mask() },
            ProbeRequest::ProbabilityMany {
                masks: vec![mask(), Mask::identity(3)],
            },
            ProbeRequest::CountMany {
                masks: vec![mask()],
            },
            ProbeRequest::CountMany { masks: vec![] },
            ProbeRequest::Sum {
                mask: mask(),
                attr: AttrId(1),
                values: vec![0.5, 1.5, 2.5],
            },
            ProbeRequest::GroupBy {
                mask: mask(),
                attr: AttrId(0),
            },
            ProbeRequest::SampleAt {
                k: 100,
                seed: 7,
                indices: vec![0, 5, 99],
            },
        ];
        for req in reqs {
            let line = req.encode();
            let decoded = ProbeRequest::decode(&line).unwrap();
            assert_eq!(decoded, req, "{line}");
            assert_eq!(decoded.encode(), line);
        }
    }

    #[test]
    fn probe_responses_round_trip() {
        let e = |x: f64, v: f64| Estimate {
            expectation: x,
            variance: v,
        };
        let resps = [
            ProbeResponse::Probability(0.1 + 0.2),
            ProbeResponse::Probabilities(vec![0.25, 1e-12, 1.0]),
            ProbeResponse::Probabilities(vec![]),
            ProbeResponse::Estimate(e(10.0, 2.5)),
            ProbeResponse::Estimates(vec![e(1.0, 0.0), e(1e-300, 2e300)]),
            ProbeResponse::Groups(vec![e(3.0, 1.0)]),
            ProbeResponse::Rows {
                arity: 2,
                rows: vec![vec![1, 0], vec![2, 3]],
            },
            ProbeResponse::Estimates(vec![]),
        ];
        for resp in resps {
            let line = resp.encode();
            let decoded = ProbeResponse::decode(&line).unwrap();
            assert_eq!(decoded, resp, "{line}");
            assert_eq!(decoded.encode(), line);
        }
    }

    #[test]
    fn a_response_answers_only_the_request_shape_it_matches() {
        let e = Estimate::new(1.0, 1.0);
        let many = vec![mask(), mask()];
        let sample = |indices| ProbeRequest::SampleAt {
            k: 9,
            seed: 1,
            indices,
        };
        let rows = |n: usize| ProbeResponse::Rows {
            arity: 1,
            rows: vec![vec![0]; n],
        };
        let pairs = [
            (
                ProbeRequest::Probability { mask: mask() },
                ProbeResponse::Probability(0.5),
            ),
            (
                ProbeRequest::Count { mask: mask() },
                ProbeResponse::Estimate(e),
            ),
            (
                ProbeRequest::ProbabilityMany {
                    masks: many.clone(),
                },
                ProbeResponse::Probabilities(vec![0.5; 2]),
            ),
            (
                ProbeRequest::CountMany { masks: many },
                ProbeResponse::Estimates(vec![e; 2]),
            ),
            (
                ProbeRequest::GroupBy {
                    mask: mask(),
                    attr: AttrId(0),
                },
                ProbeResponse::Groups(vec![e; 3]),
            ),
            (sample(vec![1, 2]), rows(2)),
        ];
        for (i, (request, _)) in pairs.iter().enumerate() {
            for (j, (_, response)) in pairs.iter().enumerate() {
                assert_eq!(
                    response.answers(request),
                    i == j,
                    "{request:?} {response:?}"
                );
            }
        }
        // Where the request fixes the length, a short answer is no answer.
        assert!(!ProbeResponse::Estimates(vec![e]).answers(&pairs[3].0));
        assert!(!rows(1).answers(&sample(vec![1, 2])));
    }

    #[test]
    fn probe_error_channel_decodes_to_remote() {
        let line = ProbeResponse::encode_error(&ModelError::ShapeMismatch);
        match ProbeResponse::decode(&line) {
            Err(ModelError::Remote(_)) => {}
            other => panic!("expected remote error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_probe_lines_rejected() {
        for line in [
            "",
            "b2 count m 0",
            "b1 count",
            "b1 count m 1",
            "b1 count m 1 w 2 0.5",
            "b1 counts 2 m 0",
            "b1 countr 0 1 1 m 0",
            "b1 topk 0 4 m 0",
            "b1 sum 0 1 m 0",
            "b1 sample 5 1 2 0",
            "b1 count m 0 trailing",
            "b1 nonsense",
        ] {
            assert!(ProbeRequest::decode(line).is_err(), "{line:?}");
        }
        for line in [
            "c1 est 1.0",
            "c1 rows 1 2 3",
            "c2 prob 0.5",
            "c1 what 1",
            "c1 ranked 0",
        ] {
            assert!(ProbeResponse::decode(line).is_err(), "{line:?}");
        }
    }
}
