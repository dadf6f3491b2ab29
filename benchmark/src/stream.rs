//! The request stream: what an analyst's session sends, made from a seed.
//!
//! 40 % point counts (`eq` on origin, dest, fl_time, distance), 30 % range
//! counts (`between` on fl_time and distance), 15 % group-by origin and
//! 15 % top-10 dest under the same two-attribute range. Two attributes keep
//! the space of distinct requests in the millions for every kind, so a
//! fresh draw is a cache miss. [`REPEAT_SHARE`] of the requests are drawn
//! Zipf(1.1) from a hot set of [`HOT_SET`] requests per kind; the rest are
//! fresh, and a fresh draw that collides with a line already sent is
//! redrawn. The program under test only ever sees the generated lines.

use entropydb_core::plan::QueryRequest;
use entropydb_storage::{AttrId, Predicate};
use std::collections::HashSet;

pub const REPEAT_SHARE: f64 = 0.3;
pub const HOT_SET: usize = 256;
const ZIPF_EXPONENT: f64 = 1.1;
/// The stream's mix of kinds.
pub const FULL_MIX: [(Kind, f64); 4] = [
    (Kind::Point, 0.40),
    (Kind::Range, 0.30),
    (Kind::GroupBy, 0.15),
    (Kind::TopK, 0.15),
];
/// The count queries of [`FULL_MIX`], at their relative shares.
pub const COUNT_MIX: [(Kind, f64); 2] = [(Kind::Point, 4.0 / 7.0), (Kind::Range, 3.0 / 7.0)];
/// The group-by and top-k queries of [`FULL_MIX`], at their relative shares.
pub const GROUP_MIX: [(Kind, f64); 2] = [(Kind::GroupBy, 0.5), (Kind::TopK, 0.5)];
const TOP_K: usize = 10;

/// SplitMix64: the benchmark's own generator, so a change to the
/// product's RNG cannot change the workload.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> u32 {
        (self.next_f64() * n as f64) as u32
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    Point,
    Range,
    GroupBy,
    TopK,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Point, Kind::Range, Kind::GroupBy, Kind::TopK];

    pub fn index(self) -> usize {
        self as usize
    }
}

/// The attributes the stream queries, with their domain sizes.
#[derive(Debug, Clone, Copy)]
pub struct Attrs {
    pub origin: (AttrId, usize),
    pub dest: (AttrId, usize),
    pub fl_time: (AttrId, usize),
    pub distance: (AttrId, usize),
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Item {
    pub kind: Kind,
    pub request: QueryRequest,
    /// The `q1` wire line (the identity repeats are judged by).
    pub line: String,
    /// True when this exact line was sent earlier in the run.
    pub repeat: bool,
}

#[derive(Debug)]
pub struct Stream {
    rng: Rng,
    attrs: Attrs,
    hot: [Vec<QueryRequest>; 4],
    zipf_cdf: Vec<f64>,
    seen: HashSet<String>,
}

fn draw_range(rng: &mut Rng, domain: usize) -> (u32, u32) {
    let (a, b) = (rng.below(domain), rng.below(domain));
    (a.min(b), a.max(b))
}

fn draw(rng: &mut Rng, attrs: &Attrs, kind: Kind) -> QueryRequest {
    if kind == Kind::Point {
        let mut pred = Predicate::new();
        for (attr, domain) in [attrs.origin, attrs.dest, attrs.fl_time, attrs.distance] {
            pred = pred.eq(attr, rng.below(domain));
        }
        return QueryRequest::count(pred);
    }
    let (t_lo, t_hi) = draw_range(rng, attrs.fl_time.1);
    let (d_lo, d_hi) = draw_range(rng, attrs.distance.1);
    let pred = Predicate::new()
        .between(attrs.fl_time.0, t_lo, t_hi)
        .between(attrs.distance.0, d_lo, d_hi);
    match kind {
        Kind::Range => QueryRequest::count(pred),
        Kind::GroupBy => QueryRequest::group_by(pred, attrs.origin.0),
        Kind::TopK => QueryRequest::top_k(pred, attrs.dest.0, TOP_K),
        Kind::Point => unreachable!("handled above"),
    }
}

impl Stream {
    pub fn new(seed: u64, attrs: Attrs) -> Stream {
        let mut rng = Rng::new(seed ^ 0x5EED_57EA_4D00_0000);
        let hot =
            Kind::ALL.map(|kind| (0..HOT_SET).map(|_| draw(&mut rng, &attrs, kind)).collect());
        let weights: Vec<f64> = (1..=HOT_SET)
            .map(|rank| (rank as f64).powf(-ZIPF_EXPONENT))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let zipf_cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Stream {
            rng,
            attrs,
            hot,
            zipf_cdf,
            seen: HashSet::new(),
        }
    }

    /// The next request of the stream, its kind drawn from `mix` (shares
    /// that sum to 1; [`FULL_MIX`] is the whole stream).
    pub fn next_item(&mut self, mix: &[(Kind, f64)]) -> Item {
        let mut u = self.rng.next_f64();
        let mut kind = mix[mix.len() - 1].0;
        for &(candidate, share) in mix {
            if u < share {
                kind = candidate;
                break;
            }
            u -= share;
        }
        self.next_of(kind)
    }

    /// The next request of one kind (hot-set draws included).
    pub fn next_of(&mut self, kind: Kind) -> Item {
        if self.rng.next_f64() < REPEAT_SHARE {
            let u = self.rng.next_f64();
            let rank = self.zipf_cdf.partition_point(|&c| c < u).min(HOT_SET - 1);
            let request = self.hot[kind.index()][rank].clone();
            let line = request.encode();
            let repeat = !self.seen.insert(line.clone());
            return Item {
                kind,
                request,
                line,
                repeat,
            };
        }
        self.fresh(kind)
    }

    /// A request of `kind` whose line was never sent in this run.
    pub fn fresh(&mut self, kind: Kind) -> Item {
        loop {
            let request = draw(&mut self.rng, &self.attrs, kind);
            let line = request.encode();
            if self.seen.insert(line.clone()) {
                return Item {
                    kind,
                    request,
                    line,
                    repeat: false,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attrs() -> Attrs {
        Attrs {
            origin: (AttrId(1), 54),
            dest: (AttrId(2), 54),
            fl_time: (AttrId(3), 62),
            distance: (AttrId(4), 81),
        }
    }

    #[test]
    fn same_seed_same_lines_and_other_seed_other_lines() {
        let lines = |seed| {
            let mut s = Stream::new(seed, attrs());
            (0..2000)
                .map(|_| s.next_item(&FULL_MIX).line)
                .collect::<Vec<_>>()
        };
        assert_eq!(lines(1), lines(1));
        assert_ne!(lines(1), lines(2));
    }

    #[test]
    fn repeat_share_and_kind_mix_match_the_recipe() {
        let mut s = Stream::new(1, attrs());
        let n = 200_000;
        let mut hot_draws = 0usize;
        let mut kinds = [0usize; 4];
        let hot: HashSet<String> = s.hot.iter().flatten().map(QueryRequest::encode).collect();
        let mut fresh_lines = HashSet::new();
        for _ in 0..n {
            let item = s.next_item(&FULL_MIX);
            kinds[item.kind.index()] += 1;
            if hot.contains(&item.line) {
                hot_draws += 1;
            } else {
                assert!(!item.repeat, "a fresh draw is never a repeat");
                assert!(fresh_lines.insert(item.line), "fresh lines are distinct");
            }
        }
        let share = hot_draws as f64 / n as f64;
        assert!((share - REPEAT_SHARE).abs() < 0.01, "repeat share {share}");
        for (count, want) in kinds.iter().zip([0.40, 0.30, 0.15, 0.15]) {
            assert!((*count as f64 / n as f64 - want).abs() < 0.01);
        }
    }

    #[test]
    fn a_hot_line_is_a_repeat_only_from_its_second_send() {
        let mut s = Stream::new(7, attrs());
        let mut first_seen = HashSet::new();
        for _ in 0..20_000 {
            let item = s.next_item(&FULL_MIX);
            assert_eq!(item.repeat, !first_seen.insert(item.line));
        }
    }

    #[test]
    fn a_partial_mix_draws_only_its_kinds() {
        let mut s = Stream::new(3, attrs());
        let mut points = 0;
        for _ in 0..7000 {
            let item = s.next_item(&COUNT_MIX);
            assert!(matches!(item.kind, Kind::Point | Kind::Range));
            points += usize::from(item.kind == Kind::Point);
        }
        assert!((points as f64 / 7000.0 - 4.0 / 7.0).abs() < 0.02);
        assert!(
            (0..100).all(|_| matches!(s.next_item(&GROUP_MIX).kind, Kind::GroupBy | Kind::TopK))
        );
    }
}
