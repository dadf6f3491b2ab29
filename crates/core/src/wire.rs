//! The one line codec: every wire line (`q1`/`r1`/`b1`/`c1`/`a1`/`ai1`/
//! `s1`/`stats`), summary blob and manifest is whitespace-separated tokens
//! on lines, tokenised, bounded and rejected here.
//!
//! [`TokenReader`] walks one line; [`Lines`] walks a persisted document
//! (blank and `#` lines skipped) and hands out readers that carry their
//! 1-based line number into every error — a wire line reports line 0. All
//! failures are [`ModelError::Parse`] with one vocabulary (`unexpected end
//! of line, expected …`, `cannot parse … from …`, `expected …, found …`,
//! `trailing token …`). Integers are read with `FromStr` and written with
//! `Display`; every float token is written by [`push_f64`] (the bytes
//! `Display` writes — the shortest decimal that reads back as the same
//! `f64`, so encode → decode → encode is the identity) and read by
//! [`TokenReader::f64`]. Every length read from a socket or a disk is
//! pre-allocated through [`counted`].
//!
//! Beside the reader live the sub-grammars more than one format uses:
//!
//! ```text
//! attribute   := "attr" index domain_size ( "cat" | "bin" lo hi ) name...
//! statistic   := nclauses ( attr lo hi )*
//! shard table := "shards" k NEWLINE ( "shard" index n tail... NEWLINE )*
//! counters    := "stats" kind ( u64* | "none" )
//! refusal     := tag ( "err" | "busy" ) message...
//! ```
//!
//! Names go last on their line because they may contain spaces.

use crate::error::{ModelError, RemoteDetail, Result};
use crate::statistics::{MultiDimStatistic, RangeClause};
use entropydb_storage::{AttrId, Attribute, Binner};
use std::fmt::Write as _;

mod d2s;

/// Caps pre-allocations derived from untrusted lengths; decoded lengths
/// are still exact (a short line fails with "unexpected end of line").
pub const WIRE_PREALLOC_CAP: usize = 1 << 16;

/// Largest request line (bytes, newline included) a session will buffer.
/// Bounds the per-session read buffer against newline-free streams; any
/// legitimate request is far smaller (predicates over coded domains).
pub const MAX_LINE_BYTES: u64 = 1 << 20;

/// An empty vector for `n` announced items, `n` being untrusted: a few
/// bytes from a peer or a disk must not be able to reserve terabytes.
pub fn counted<T>(n: usize) -> Vec<T> {
    Vec::with_capacity(n.min(WIRE_PREALLOC_CAP))
}

/// Appends the float token for `x`: exactly the bytes `format!("{x}")`
/// produces (Ryu's shortest round-trip digits in `Display`'s layout, never
/// an exponent), at a fraction of its cost. The `0` and `1` weights most
/// masks are made of are written without the digit search.
// Inlined, so a mask's weight loop tests `0`/`1` in place (called, it
// doubled the encode of a one-mask `count` line).
#[inline]
pub fn push_f64(out: &mut String, x: f64) {
    const ONE: u64 = 1.0f64.to_bits();
    match x.to_bits() {
        0 => out.push('0'),
        ONE => out.push('1'),
        _ => d2s::push_f64(out, x),
    }
}

/// A parse error on a wire line (line number 0).
pub fn wire_error(message: String) -> ModelError {
    ModelError::Parse { line: 0, message }
}

/// Sequential whitespace-token reader over one line.
#[derive(Clone)]
pub struct TokenReader<'a> {
    line: &'a str,
    line_no: usize,
    tokens: std::str::SplitAsciiWhitespace<'a>,
}

impl<'a> TokenReader<'a> {
    /// A reader over one wire line (errors report line 0).
    pub fn new(line: &'a str) -> Self {
        Self::at(0, line)
    }

    #[allow(clippy::disallowed_methods)] // the one tokenizer
    fn at(line_no: usize, line: &'a str) -> Self {
        TokenReader {
            line,
            line_no,
            tokens: line.split_ascii_whitespace(),
        }
    }

    /// A parse error at this reader's line.
    pub fn error(&self, message: String) -> ModelError {
        ModelError::Parse {
            line: self.line_no,
            message,
        }
    }

    /// The next token; `what` names it in the end-of-line error.
    pub fn next(&mut self, what: &str) -> Result<&'a str> {
        match self.tokens.next() {
            Some(t) => Ok(t),
            None => Err(self.error(format!("unexpected end of line, expected {what}"))),
        }
    }

    /// Consumes the next token, which must equal `tag`.
    pub fn expect(&mut self, tag: &str) -> Result<()> {
        let t = self.next(tag)?;
        if t == tag {
            Ok(())
        } else {
            Err(self.error(format!("expected {tag:?}, found {t:?}")))
        }
    }

    /// Parses the next token as a `T`.
    pub fn parse<T: std::str::FromStr>(&mut self, what: &str) -> Result<T> {
        let t = self.next(what)?;
        self.parse_token(t, what)
    }

    /// Parses a token already taken with [`TokenReader::next`] — for a
    /// caller that first matches the token against literal spellings.
    pub fn parse_token<T: std::str::FromStr>(&self, t: &str, what: &str) -> Result<T> {
        t.parse()
            .map_err(|_| self.error(format!("cannot parse {what} from {t:?}")))
    }

    /// Parses the next token as a float token written by [`push_f64`]; the
    /// `0` and `1` of mask weights skip the float parser.
    // Not inlining this into a weight or estimate loop costs their decode
    // 10–15 % (measured on a 16-mask `countm` line).
    #[inline(always)]
    pub fn f64(&mut self, what: &str) -> Result<f64> {
        match self.next(what)? {
            "0" => Ok(0.0),
            "1" => Ok(1.0),
            t => self.parse_token(t, what),
        }
    }

    /// Consumes a dense index token, which must equal `expected`.
    pub fn index(&mut self, what: &str, expected: usize) -> Result<()> {
        let idx: usize = self.parse(what)?;
        if idx == expected {
            Ok(())
        } else {
            Err(self.error(format!("{what} {idx}, expected {expected}")))
        }
    }

    /// `n` items read by `item`, `n` being untrusted.
    pub fn repeat<T>(
        &mut self,
        n: usize,
        mut item: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        let mut out = counted(n);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// A count token (`what`) followed by that many items.
    pub fn list<T>(
        &mut self,
        what: &str,
        item: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        let n = self.parse(what)?;
        self.repeat(n, item)
    }

    /// `rows` rows of `cols` items each, row-major. Rows of no columns
    /// are rejected: they take no tokens, so nothing would bound `rows`.
    pub fn grid<T>(
        &mut self,
        rows: usize,
        cols: usize,
        mut item: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<Vec<T>>> {
        if cols == 0 && rows > 0 {
            return Err(self.error(format!("{rows} rows of zero columns")));
        }
        self.repeat(rows, |r| r.repeat(cols, &mut item))
    }

    /// The unread tokens, one by one (for a free-length tail).
    pub fn remaining(&mut self) -> impl Iterator<Item = &'a str> + '_ {
        self.tokens.by_ref()
    }

    /// Consumes the unread remainder of the line verbatim (trimmed) — the
    /// trailing name of an attribute line, inner spaces preserved.
    pub fn rest(&mut self) -> &'a str {
        let rest = match self.tokens.next() {
            // `t` is a subslice of `line`, so the address difference is its
            // byte offset.
            Some(t) => self.line[t.as_ptr() as usize - self.line.as_ptr() as usize..].trim_end(),
            None => "",
        };
        *self = Self::at(self.line_no, "");
        rest
    }

    /// Rejects unread tokens.
    pub fn finish(&mut self) -> Result<()> {
        match self.tokens.next() {
            None => Ok(()),
            Some(t) => Err(self.error(format!("trailing token {t:?}"))),
        }
    }
}

/// The significant lines of a persisted document: blank lines and `#`
/// comments are skipped, and each line's reader knows its 1-based number.
pub struct Lines<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
}

impl<'a> Lines<'a> {
    /// A line reader over a whole document.
    pub fn new(text: &'a str) -> Self {
        Lines {
            lines: text.lines().enumerate(),
        }
    }

    /// The next significant line.
    pub fn next_line(&mut self) -> Result<TokenReader<'a>> {
        for (idx, raw) in self.lines.by_ref() {
            let line = raw.trim();
            if !line.is_empty() && !line.starts_with('#') {
                return Ok(TokenReader::at(idx + 1, line));
            }
        }
        Err(wire_error("unexpected end of input".to_string()))
    }

    /// The next significant line, positioned after its leading `tag`.
    pub fn tagged(&mut self, tag: &str) -> Result<TokenReader<'a>> {
        let mut r = self.next_line()?;
        r.expect(tag)?;
        Ok(r)
    }

    /// The next significant line, which must be exactly `<tag> <value>`.
    pub fn scalar<T: std::str::FromStr>(&mut self, tag: &str, what: &str) -> Result<T> {
        let mut r = self.tagged(tag)?;
        let value = r.parse(what)?;
        r.finish()?;
        Ok(value)
    }
}

/// Appends one attribute line (newline-terminated): the summary blob's and
/// the `s1` schema block's shared form.
pub fn encode_attr(out: &mut String, index: usize, attr: &Attribute) {
    let _ = write!(out, "attr {index} {} ", attr.domain_size());
    match attr.binner() {
        Some(b) => {
            out.push_str("bin ");
            push_f64(out, b.lo());
            out.push(' ');
            push_f64(out, b.hi());
            out.push(' ');
        }
        None => out.push_str("cat "),
    }
    out.push_str(attr.name());
    out.push('\n');
}

/// Reads one attribute line whose index must be `expected`.
pub fn decode_attr(r: &mut TokenReader<'_>, expected: usize) -> Result<Attribute> {
    r.expect("attr")?;
    r.index("attr index", expected)?;
    let size: usize = r.parse("domain size")?;
    match r.next("attribute kind")? {
        "cat" => Attribute::categorical(r.rest(), size).map_err(ModelError::Storage),
        "bin" => {
            let (lo, hi) = (r.f64("bin lo")?, r.f64("bin hi")?);
            let binner = Binner::new(lo, hi, size).map_err(ModelError::Storage)?;
            Ok(Attribute::binned(r.rest(), binner))
        }
        other => Err(r.error(format!("unknown attribute kind {other:?}"))),
    }
}

/// Appends a statistic's clause list: `<k> attr lo hi [attr lo hi ...]`.
pub fn encode_statistic(out: &mut String, stat: &MultiDimStatistic) {
    let _ = write!(out, "{}", stat.clauses().len());
    for c in stat.clauses() {
        let _ = write!(out, " {} {} {}", c.attr.0, c.lo, c.hi);
    }
}

/// Reads a clause list written by [`encode_statistic`].
pub fn decode_statistic(r: &mut TokenReader<'_>) -> Result<MultiDimStatistic> {
    let clauses = r.list("clause count", |r| {
        Ok(RangeClause {
            attr: AttrId(r.parse("clause attr")?),
            lo: r.parse("clause lo")?,
            hi: r.parse("clause hi")?,
        })
    })?;
    MultiDimStatistic::new(clauses)
}

/// Reads a `shards <k>` line and its `k >= 1` dense-indexed `shard <i> <n>
/// ...` lines. `entry` gets the shard's index, its cardinality and the
/// reader positioned at the line's tail.
pub fn decode_shard_table<'a, T>(
    lines: &mut Lines<'a>,
    mut entry: impl FnMut(usize, u64, &mut TokenReader<'a>) -> Result<T>,
) -> Result<Vec<T>> {
    let mut r = lines.tagged("shards")?;
    let k: usize = r.parse("shard count")?;
    r.finish()?;
    if k == 0 {
        return Err(r.error("shard table needs at least one shard".to_string()));
    }
    let mut shards = counted(k);
    for index in 0..k {
        let mut r = lines.tagged("shard")?;
        r.index("shard index", index)?;
        let n = r.parse("shard n")?;
        shards.push(entry(index, n, &mut r)?);
    }
    Ok(shards)
}

/// Encodes a failure as the refusal payload every response line (`r1`,
/// `c1`) shares: `<tag> busy <message>` for a load-shed, which decodes
/// back to [`ModelError::Busy`] so a caller may back off and retry, and
/// `<tag> err <message>` for everything else.
pub fn encode_refusal(tag: &str, err: &ModelError) -> String {
    // Newlines would break the line protocol.
    match err {
        ModelError::Busy(msg) => format!("{tag} busy {}", msg.replace('\n', " ")),
        _ => format!("{tag} err {}", err.to_string().replace('\n', " ")),
    }
}

/// Decodes the rest of a refusal payload whose `op` (`err` or `busy`) was
/// just read: the message is the raw remainder of the line.
pub fn decode_refusal(op: &str, r: &mut TokenReader<'_>) -> ModelError {
    let message = r.rest().to_string();
    if op == "busy" {
        ModelError::Busy(message)
    } else {
        ModelError::Remote(RemoteDetail::message(message))
    }
}

/// Encodes a counters line (newline-terminated): `stats <kind> <u64>...`,
/// or `stats <kind> none` for a server that keeps no such counters.
pub fn encode_counters<const N: usize>(kind: &str, fields: Option<[u64; N]>) -> String {
    let mut out = format!("stats {kind}");
    match fields {
        Some(fields) => {
            for f in fields {
                let _ = write!(out, " {f}");
            }
        }
        None => out.push_str(" none"),
    }
    out.push('\n');
    out
}

/// Decodes a counters line of `kind` with exactly `N` fields.
pub fn decode_counters<const N: usize>(line: &str, kind: &str) -> Result<Option<[u64; N]>> {
    let mut r = TokenReader::new(line);
    r.expect("stats")?;
    r.expect(kind)?;
    if r.clone().rest() == "none" {
        return Ok(None);
    }
    let mut fields = [0; N];
    for field in &mut fields {
        *field = r.parse("counter")?;
    }
    r.finish()?;
    Ok(Some(fields))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rest_keeps_inner_spaces_and_consumes_the_line() {
        let mut r = TokenReader::new("attr 0  origin   airport \r\n");
        r.expect("attr").unwrap();
        assert_eq!(r.parse::<usize>("index").unwrap(), 0);
        assert_eq!(r.rest(), "origin   airport");
        assert_eq!(r.rest(), "");
        r.finish().unwrap();
    }

    #[test]
    fn errors_carry_the_line_number() {
        let mut lines = Lines::new("# comment\n\nn 20\nattrs x\n");
        let mut r = lines.tagged("n").unwrap();
        assert_eq!(r.parse::<u64>("n").unwrap(), 20);
        let mut r = lines.tagged("attrs").unwrap();
        match r.parse::<usize>("attr count") {
            Err(ModelError::Parse { line: 4, message }) => {
                assert_eq!(message, "cannot parse attr count from \"x\"");
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            lines.next_line().err(),
            Some(ModelError::Parse { line: 0, .. })
        ));
    }

    #[test]
    fn untrusted_counts_never_reserve_more_than_the_cap() {
        assert!(counted::<u64>(usize::MAX).capacity() < 2 * WIRE_PREALLOC_CAP);
        let mut r = TokenReader::new("18446744073709551615 1 2");
        let err = r.list("count", |r| r.parse::<u32>("item")).unwrap_err();
        assert_eq!(
            err.to_string(),
            "parse error at line 0: unexpected end of line, expected item"
        );
    }
}
