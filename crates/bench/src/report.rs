//! Plain-text report tables for experiment output.

use std::fmt::Write as _;
use std::time::Instant;

/// A simple aligned-column text table.
#[derive(Debug, Clone)]
pub struct Report {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Starts a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Report {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (cell, w) in cells.iter().zip(widths) {
                let _ = write!(s, "{cell:>w$}  ", w = w);
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }
}

/// Mean per-call nanoseconds over an explicit timing loop. The absolute
/// `metric_ceilings` of `bench_schema.json` are recorded with this instead
/// of the sampled medians, so they stay stable under `ENTROPYDB_BENCH_FAST`
/// (where the sampling loop shrinks to a handful of cold calls).
pub fn mean_call_ns(iters: usize, mut call: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        call();
    }
    t0.elapsed().as_secs_f64() * 1e9 / iters as f64
}

/// Nearest-rank percentile of `samples` (unsorted, in any order): the
/// smallest sample with at least `q`% of the distribution at or below it.
/// With few samples the tail percentiles degrade toward the max — still
/// the honest estimate for latency reporting.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A fixed-bucket latency histogram with p50/p99 markers — experiment
/// output reports the distribution, not just a point estimate.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<usize>,
    p50: f64,
    p99: f64,
}

impl Histogram {
    /// Buckets `samples` into `buckets` equal-width bins spanning their
    /// observed range.
    pub fn of(samples: &[f64], buckets: usize) -> Self {
        let buckets = buckets.max(1);
        let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut counts = vec![0usize; buckets];
        if samples.is_empty() {
            return Histogram {
                lo: 0.0,
                hi: 0.0,
                counts,
                p50: 0.0,
                p99: 0.0,
            };
        }
        let width = ((hi - lo) / buckets as f64).max(f64::MIN_POSITIVE);
        for &x in samples {
            let b = (((x - lo) / width) as usize).min(buckets - 1);
            counts[b] += 1;
        }
        Histogram {
            lo,
            hi,
            counts,
            p50: percentile(samples, 50.0),
            p99: percentile(samples, 99.0),
        }
    }

    /// 50th-percentile sample.
    pub fn p50(&self) -> f64 {
        self.p50
    }

    /// 99th-percentile sample.
    pub fn p99(&self) -> f64 {
        self.p99
    }

    /// Renders the histogram as an aligned bar chart with the percentile
    /// summary on the title line.
    pub fn render(&self, title: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {title} (p50 {:.0}, p99 {:.0}) ==",
            self.p50, self.p99
        );
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        for (i, &n) in self.counts.iter().enumerate() {
            let bucket_lo = self.lo + width * i as f64;
            let bar = "#".repeat(n * 40 / max);
            let _ = writeln!(out, "{bucket_lo:>14.0} {n:>6} {bar}");
        }
        out
    }
}

/// Formats a float with three decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float as signed with three decimals (for error differences).
pub fn f3s(x: f64) -> String {
    format!("{x:+.3}")
}

/// Formats milliseconds with two decimals.
pub fn ms(x: f64) -> String {
    format!("{:.2}ms", x * 1000.0)
}

/// Runs `f`, returning its result and elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut r = Report::new("demo", &["method", "err"]);
        r.row(vec!["Uni".into(), f3(0.25)]);
        r.row(vec!["Ent1&2&3".into(), f3(0.125)]);
        let text = r.render();
        assert!(text.contains("== demo =="));
        assert!(text.contains("0.250"));
        assert!(text.contains("Ent1&2&3"));
        // Right-aligned columns: header and data lines have equal length.
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[1].len(), lines[3].len());
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let mut r = Report::new("demo", &["a", "b"]);
        r.row(vec!["x".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(1.0 / 3.0), "0.333");
        assert_eq!(f3s(-0.5), "-0.500");
        assert_eq!(f3s(0.5), "+0.500");
        assert_eq!(ms(0.0015), "1.50ms");
    }

    #[test]
    fn nearest_rank_percentiles() {
        // Unsorted input; nearest-rank on n=100 picks the exact rank.
        let mut samples: Vec<f64> = (1..=100).map(f64::from).collect();
        samples.reverse();
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 99.0), 99.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        // Tail percentiles degrade to the max on tiny sample sets.
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[9.0, 3.0], 99.0), 9.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let h = Histogram::of(&samples, 4);
        assert_eq!(h.counts, vec![25, 25, 25, 25]);
        assert_eq!(h.p50(), 50.0);
        assert_eq!(h.p99(), 99.0);
        let text = h.render("latency ns");
        assert!(text.contains("latency ns"), "{text}");
        assert!(text.contains("p50 50"), "{text}");
        assert!(text.contains("p99 99"), "{text}");
        assert!(text.contains('#'), "{text}");

        // A constant distribution lands in one bucket, no div-by-zero.
        let flat = Histogram::of(&[5.0; 8], 4);
        assert_eq!(flat.counts.iter().sum::<usize>(), 8);
        assert_eq!(flat.p99(), 5.0);

        // Empty input renders without panicking.
        let empty = Histogram::of(&[], 4);
        assert_eq!(empty.p50(), 0.0);
        let _ = empty.render("empty");
    }

    #[test]
    fn timed_returns_result() {
        let (v, secs) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
