//! Deterministic hostile variants of a golden line or document — shared by
//! the core and server `wire_formats` suites (the seed corpus of a decoder
//! fuzzer): token-boundary truncations, oversized counts, trailing junk.

#![allow(dead_code)]

/// Every proper prefix of `text` ending at a token boundary, "" included.
pub fn truncations(text: &str) -> Vec<&str> {
    let bytes = text.as_bytes();
    let mut cuts = vec![""];
    for i in 1..bytes.len() {
        let token_ends = !bytes[i - 1].is_ascii_whitespace() && bytes[i].is_ascii_whitespace();
        if token_ends && !text[i..].trim().is_empty() {
            cuts.push(&text[..i]);
        }
    }
    cuts
}

/// `text` with the `token`th token of its `line`th line replaced.
pub fn with_token(text: &str, line: usize, token: usize, replacement: &str) -> String {
    let edit = |l: &str| {
        let mut tokens: Vec<&str> = l.split(' ').collect();
        tokens[token] = replacement;
        tokens.join(" ")
    };
    let lines: Vec<String> = text
        .lines()
        .enumerate()
        .map(|(i, l)| if i == line { edit(l) } else { l.to_string() })
        .collect();
    lines.join("\n") + "\n"
}

pub const OVERSIZED: [&str; 2] = ["18446744073709551615", "1099511627776"];

/// Well-formed lines of the probe verbs deleted with the two-round sharded
/// top-k (`topk` nomination, `countr` re-probe, `ranked` reply): a peer
/// that still sends one must get the typed unknown-op error, never a panic.
pub const DEAD_PROBE_LINES: [&str; 3] = [
    "b1 topk 1 2 m 2 w 3 0 1 0 i",
    "b1 countr 1 2 0 2 m 2 w 3 0 1 0 i",
    "c1 ranked 1 2 9 1",
];

/// The hostile variants of a persisted document as `(text, line)` pairs,
/// `line` being the 1-based line the mutation sits on (0 for truncations).
/// `counts` names each count position as (line tag, token index) and
/// `free_tail` the tags whose lines end in free-form tokens (a name, a
/// replica list), where a trailing token is data, not junk.
pub fn hostile_documents(
    text: &str,
    counts: &[(&str, usize)],
    free_tail: &[&str],
) -> Vec<(String, usize)> {
    let mut out: Vec<(String, usize)> = truncations(text)
        .into_iter()
        .map(|t| (t.to_string(), 0))
        .collect();
    for (i, line) in text.lines().enumerate() {
        let tag = line.split(' ').next().unwrap();
        for &(_, token) in counts.iter().filter(|(t, _)| *t == tag) {
            for big in OVERSIZED {
                out.push((with_token(text, i, token, big), i + 1));
            }
        }
        if !free_tail.contains(&tag) {
            let last = line.split(' ').count() - 1;
            let junk = format!("{} junk", line.split(' ').next_back().unwrap());
            out.push((with_token(text, i, last, &junk), i + 1));
        }
    }
    out
}
