//! Outside-in spans: the benchmark times its own calls into each layer.
//!
//! Around every traced wire request the load generator records
//! `plan.encode_request`, `client.execute` and `plan.decode_response`. It
//! then replays the same request in-process against the same blob and
//! records what the server must have done as child spans of a `replay`
//! span. Children of `engine.execute` (mask build, kernel, per-shard work)
//! cannot be stamped from outside a running call, so each is timed in a
//! separate call and laid end to end from its parent's start: durations are
//! measured, positions inside the parent are not. Spans inside the program
//! are a later change.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the trace, if any.
    pub parent: Option<usize>,
    pub request_id: u64,
}

#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span and returns its index with `f`'s result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request_id: u64,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id,
        });
        (self.spans.len() - 1, out)
    }

    /// Records children of `parent` with measured `durations_ns`, laid end
    /// to end from the parent's start (see the module note).
    pub fn lay_children(
        &mut self,
        parent: usize,
        request_id: u64,
        durations_ns: &[(&'static str, u64)],
    ) {
        let mut at = self.spans[parent].start_ns;
        for &(name, dur) in durations_ns {
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: at + dur,
                parent: Some(parent),
                request_id,
            });
            at += dur;
        }
    }

    /// Every span's self time: its duration minus the part of its interval
    /// that its direct children cover (overlapping children count once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                let parent = &self.spans[p];
                let lo = span.start_ns.max(parent.start_ns);
                let hi = span.end_ns.min(parent.end_ns);
                if hi > lo {
                    children[p].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start_ns;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                (span.end_ns - span.start_ns) - covered
            })
            .collect()
    }

    /// Median duration and median self time per span name, in µs.
    pub fn summary_us(&self) -> BTreeMap<&'static str, (f64, f64, usize)> {
        let self_ns = self.self_times_ns();
        let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_ns) {
            let entry = by_name.entry(span.name).or_default();
            entry.0.push((span.end_ns - span.start_ns) as f64 / 1e3);
            entry.1.push(own as f64 / 1e3);
        }
        by_name
            .into_iter()
            .map(|(name, (durations, owns))| {
                (
                    name,
                    (
                        crate::stats::median(&durations),
                        crate::stats::median(&owns),
                        durations.len(),
                    ),
                )
            })
            .collect()
    }

    /// The span file: a summary per name, then every span.
    pub fn to_json(&self, workload: &str) -> Json {
        let summary = self.summary_us().into_iter().map(|(name, (dur, own, n))| {
            (
                name,
                Json::obj([
                    ("median_us", Json::Num(dur)),
                    ("self_median_us", Json::Num(own)),
                    ("spans", Json::Num(n as f64)),
                ]),
            )
        });
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::Str(s.name.to_string())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("request_id", Json::Num(s.request_id as f64)),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::Str(workload.to_string())),
            ("summary", Json::obj(summary)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            request_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_covered_part_once() {
        let trace = Trace {
            origin: Instant::now(),
            spans: vec![
                span(0, 100, None),
                span(10, 40, Some(0)),
                // Overlaps the previous child on [30, 40): counted once.
                span(30, 60, Some(0)),
                // Sticks out past the parent: only [90, 100) counts.
                span(90, 130, Some(0)),
                // A grandchild shortens its own parent, not the root.
                span(12, 20, Some(1)),
            ],
        };
        assert_eq!(trace.self_times_ns(), vec![40, 22, 30, 40, 8]);
    }

    #[test]
    fn laid_children_tile_the_parent_from_its_start() {
        let mut trace = Trace::new();
        let (parent, ()) = trace.span("engine.execute", None, 3, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        trace.lay_children(parent, 3, &[("a", 400_000), ("b", 600_000)]);
        let p = trace.spans[parent].clone();
        assert_eq!(trace.spans[1].start_ns, p.start_ns);
        assert_eq!(trace.spans[2].start_ns, trace.spans[1].end_ns);
        assert_eq!(trace.spans[2].request_id, 3);
        let own = trace.self_times_ns()[parent];
        assert_eq!(own, (p.end_ns - p.start_ns) - 1_000_000);
    }
}
