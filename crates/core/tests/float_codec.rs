//! The float token is `Display`'s bytes: `wire::push_f64` against
//! `format!("{x}")` over every exponent, a fixed-seed stream of bit
//! patterns, the exact-tie class where shortest-digit writers disagree on
//! rounding, and the specials — and every token reads back through
//! `TokenReader::f64` as the same bits.
//!
//! The long oracle (100 M patterns) is ignored by default; run it in
//! release: `cargo test --release -p entropydb-core --test float_codec --
//! --ignored`.

use entropydb_core::wire::{push_f64, TokenReader};
use std::fmt::Write as _;

/// The fixed-seed bit-pattern stream (SplitMix64).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Compares `push_f64` with `Display`, appending to a non-empty buffer, and
/// reads the token back.
#[derive(Default)]
struct Oracle {
    ours: String,
    display: String,
    checked: u64,
}

impl Oracle {
    fn check(&mut self, x: f64) {
        self.ours.clear();
        self.ours.push_str("x ");
        push_f64(&mut self.ours, x);
        self.display.clear();
        let _ = write!(self.display, "x {x}");
        assert_eq!(self.ours, self.display, "bits {:#018x}", x.to_bits());
        let mut r = TokenReader::new(&self.ours);
        r.expect("x").unwrap();
        let back = r.f64("float").unwrap();
        if x.is_nan() {
            assert!(back.is_nan(), "{}", self.ours);
        } else {
            assert_eq!(back.to_bits(), x.to_bits(), "{}", self.ours);
        }
        r.finish().unwrap();
        self.checked += 1;
    }

    fn check_both_signs(&mut self, x: f64) {
        self.check(x);
        self.check(-x);
    }

    fn patterns(&mut self, seed: u64, count: u64) {
        let mut rng = SplitMix64(seed);
        for _ in 0..count {
            self.check(f64::from_bits(rng.next()));
        }
    }
}

const MANTISSA_MASK: u64 = (1 << 52) - 1;

#[test]
fn every_exponent_with_edge_and_random_mantissas() {
    let mut oracle = Oracle::default();
    let mut rng = SplitMix64(0x5eed_0001);
    let edges = [
        0,
        1,
        2,
        3,
        MANTISSA_MASK,
        MANTISSA_MASK - 1,
        1 << 51,
        (1 << 51) - 1,
        (1 << 51) + 1,
        0x000f_ffff_0000_0000,
        0x0000_0000_ffff_ffff,
    ];
    for exponent in 0u64..=2047 {
        let random = (0..24).map(|_| rng.next() & MANTISSA_MASK);
        for mantissa in edges.into_iter().chain(random) {
            oracle.check_both_signs(f64::from_bits(exponent << 52 | mantissa));
        }
    }
    assert_eq!(oracle.checked, 2048 * 35 * 2);
}

#[test]
fn a_million_fixed_seed_bit_patterns() {
    let mut oracle = Oracle::default();
    oracle.patterns(0x0123_4567_89ab_cdef, 1 << 20);
}

/// Floats in `[2^50, 2^53)` are integers plus a multiple of 0.25, 0.5 or 1:
/// with 16 integer digits, a quarter needs 18 significant digits, so its
/// shortest round trip keeps 17 and the dropped `5` is an exact tie. `Display`
/// rounds it up (`1618162129551699.25` → `…699.3`), where Ryu's reference
/// rounds half to even.
#[test]
fn exact_decimal_ties_round_up() {
    let mut oracle = Oracle::default();
    let mut rng = SplitMix64(0x5eed_0002);
    for (base, ulp) in [(1u64 << 50, 0.25), (1 << 51, 0.5), (1 << 52, 1.0)] {
        for _ in 0..20_000 {
            let int = base + rng.next() % base;
            for steps in 0..4 {
                oracle.check_both_signs(int as f64 + steps as f64 * ulp);
            }
        }
    }
    let mut tie = String::new();
    push_f64(&mut tie, 1_618_162_129_551_699.0 + 0.25);
    assert_eq!(tie, "1618162129551699.3");
}

#[test]
fn specials_subnormals_extremes_and_powers_of_ten() {
    let mut oracle = Oracle::default();
    for x in [
        0.0,
        1.0,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::EPSILON,
        f64::INFINITY,
        5e-324,
        2.225_073_858_507_201e-308,
        0.1,
        0.3,
        1e21,
        1e22,
        1e23,
        9_007_199_254_740_993.0,
        123_456_789.0,
        0.000_123,
    ] {
        oracle.check_both_signs(x);
    }
    oracle.check(f64::NAN);
    oracle.check(-f64::NAN);
    // Every subnormal with one or two mantissa bits set, and runs at both
    // ends of the subnormal range.
    for bit in 0..52 {
        oracle.check(f64::from_bits(1 << bit));
        oracle.check(f64::from_bits(1 << bit | 1));
    }
    for m in (1..4096).chain(MANTISSA_MASK - 4096..=MANTISSA_MASK) {
        oracle.check_both_signs(f64::from_bits(m));
    }
    for exponent in -300..=300 {
        let x: f64 = format!("1e{exponent}").parse().unwrap();
        oracle.check_both_signs(x);
        oracle.check(f64::from_bits(x.to_bits() + 1));
        oracle.check(f64::from_bits(x.to_bits() - 1));
    }
    let mut out = String::new();
    for x in [
        0.0,
        -0.0,
        1.0,
        f64::NAN,
        f64::INFINITY,
        -f64::INFINITY,
        1e-7,
    ] {
        push_f64(&mut out, x);
        out.push(' ');
    }
    assert_eq!(out, "0 -0 1 NaN inf -inf 0.0000001 ");
}

/// Short decimals — what a binned bound, a solver residual or a weight
/// typed by hand looks like — print as they were typed.
#[test]
fn short_decimals_print_as_typed() {
    let mut oracle = Oracle::default();
    let mut rng = SplitMix64(0x5eed_0003);
    for _ in 0..1_000_000 {
        let digits = rng.next() % 1_000_000_000;
        let scale = (rng.next() % 40) as i32 - 20;
        let x: f64 = format!("{digits}e{scale}").parse().unwrap();
        oracle.check(x);
    }
}

#[test]
#[ignore = "100 M patterns: run in release"]
fn a_hundred_million_bit_patterns() {
    let mut oracle = Oracle::default();
    oracle.patterns(0xfeed_face_cafe_beef, 100_000_000);
    assert_eq!(oracle.checked, 100_000_000);
}
