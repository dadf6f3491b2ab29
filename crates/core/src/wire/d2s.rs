//! Shortest round-trip `f64` → decimal text, byte for byte what `Display`
//! writes: Ryu's d2s (Adams, "Ryū: fast float-to-string conversion", PLDI
//! 2018, <https://doi.org/10.1145/3192366.3192369>) finds the digits, and
//! they are laid out the way `Display` lays them out.
//!
//! Two details differ from the reference implementation, both to match
//! `Display`: an exact decimal tie (the discarded digits are exactly
//! `50…0`) rounds *up* — Ryu's round-half-even rule is dropped, and with it
//! the trailing-zero tracking of the exact value that only that rule read —
//! and the layout never uses an exponent (`0.000ddd`, `dd.ddd` or `ddd000`,
//! with no `.0`).

mod tables;

use tables::{POW5_INV_SPLIT, POW5_SPLIT};

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BITS: u32 = 11;
const BIAS: i32 = 1023;
const POW5_INV_BITCOUNT: i32 = 125;
const POW5_BITCOUNT: i32 = 125;

/// Appends `x` exactly as `format!("{x}")` spells it. Out of line, so the
/// caller's `0`/`1` test inlines into the mask loop without it.
#[inline(never)]
pub(super) fn push_f64(out: &mut String, x: f64) {
    let bits = x.to_bits();
    let negative = bits >> 63 != 0;
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = ((bits >> MANTISSA_BITS) & ((1 << EXPONENT_BITS) - 1)) as u32;
    if ieee_exponent == (1 << EXPONENT_BITS) - 1 {
        out.push_str(match (ieee_mantissa != 0, negative) {
            (true, _) => "NaN",
            (false, false) => "inf",
            (false, true) => "-inf",
        });
        return;
    }
    if negative {
        out.push('-');
    }
    if ieee_exponent == 0 && ieee_mantissa == 0 {
        out.push('0');
        return;
    }
    let (digits, exponent) = shortest(ieee_mantissa, ieee_exponent);
    push_decimal(out, digits, exponent);
}

/// Writes `digits × 10^exponent` without an exponent, as `Display` does.
fn push_decimal(out: &mut String, mut digits: u64, exponent: i32) {
    const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
        2021222324252627282930313233343536373839\
        4041424344454647484950515253545556575859\
        6061626364656667686970717273747576777879\
        8081828384858687888990919293949596979899";
    // At most 17 significant digits, written right to left.
    let mut buf = [0u8; 20];
    let mut start = buf.len();
    while digits >= 100 {
        let pair = (digits % 100) as usize * 2;
        digits /= 100;
        start -= 2;
        buf[start..start + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if digits >= 10 {
        let pair = digits as usize * 2;
        start -= 2;
        buf[start..start + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    } else {
        start -= 1;
        buf[start] = b'0' + digits as u8;
    }
    let text = std::str::from_utf8(&buf[start..]).expect("decimal digits are ASCII");
    let len = text.len() as i32;
    // The decimal point sits `point` digits into `text`.
    let point = len + exponent;
    if point <= 0 {
        out.push_str("0.");
        push_zeros(out, -point);
        out.push_str(text);
    } else if point < len {
        let (int, frac) = text.split_at(point as usize);
        out.push_str(int);
        out.push('.');
        out.push_str(frac);
    } else {
        out.push_str(text);
        push_zeros(out, point - len);
    }
}

fn push_zeros(out: &mut String, n: i32) {
    out.extend(std::iter::repeat_n('0', n as usize));
}

/// The shortest `digits × 10^exponent` that reads back as the finite,
/// non-zero `f64` with these IEEE fields, the closest such one when there
/// are several, and the larger of two equally close ones.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    // Step 1: the value is `m2 × 2^e2`; two extra bits leave room for the
    // interval's half-ulp bounds.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // Round-to-nearest-even parsing reads the bounds back as this value
    // exactly when its mantissa is even.
    let accept_bounds = m2 & 1 == 0;

    // Step 2: the interval `[mm, mp]` around `mv`, scaled by 4. The lower
    // bound is half as far at a power of two (the ulp below is smaller).
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);

    // Step 3: `vm`, `vr`, `vp` are `mm`, `mv`, `mp` in base 10, scaled by
    // `10^-e10` and truncated. `vm_is_trailing_zeros`: the truncation of
    // `vm` dropped only zeros (the bound is exactly representable).
    let mut vm_is_trailing_zeros = false;
    let (mut vr, mut vp, mut vm, e10);
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5_bits(q as i32) - 1;
        let i = -e2 + q as i32 + k;
        let mul = POW5_INV_SPLIT[q as usize];
        vr = mul_shift(mv, mul, i);
        vp = mul_shift(mv + 2, mul, i);
        vm = mul_shift(mv - 1 - mm_shift, mul, i);
        // At most one of `mm`, `mv`, `mp` is a multiple of 5.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5_bits(i) - POW5_BITCOUNT;
        let j = q as i32 - k;
        let mul = POW5_SPLIT[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        // `mm` has a trailing zero bit iff `mm_shift` is 1; `mp` always has
        // one.
        if q <= 1 {
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Step 4: drop digits while the interval still holds a shorter number,
    // remembering the last dropped digit of `vr` for rounding.
    let mut removed = 0;
    let output = if vm_is_trailing_zeros {
        // Rare: the lower bound is representable and may itself be the
        // shortest, so its trailing zeros are dropped too.
        let mut last_removed_digit = 0;
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm.is_multiple_of(10);
            last_removed_digit = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_is_trailing_zeros {
            while vm.is_multiple_of(10) {
                last_removed_digit = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        // `vm` is only in the interval when its dropped digits were zeros.
        vr + u64::from((vr == vm && !vm_is_trailing_zeros) || last_removed_digit >= 5)
    } else {
        let mut round_up = false;
        // Two digits at a time first: the common case drops about two.
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

/// `(m × mul) >> j` for a 125-bit table multiplier, `j ≥ 64`.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let low = u128::from(m) * u128::from(mul as u64);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// `⌈log2(5^e)⌉` (1 for `e = 0`), exact for `0 ≤ e ≤ 3528`.
fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log10(2^e)⌋`, exact for `0 ≤ e ≤ 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `⌊log10(5^e)⌋`, exact for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

/// Whether `5^p` divides `value` (non-zero).
fn multiple_of_pow5(mut value: u64, p: u32) -> bool {
    let mut count = 0;
    while value.is_multiple_of(5) {
        value /= 5;
        count += 1;
    }
    count >= p
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    /// A little-endian base-2^32 natural number: just enough arithmetic to
    /// recompute the tables from their definitions.
    #[derive(Clone)]
    struct Big(Vec<u32>);

    impl Big {
        fn from_u128(mut v: u128) -> Big {
            let mut limbs = Vec::new();
            while v != 0 {
                limbs.push(v as u32);
                v >>= 32;
            }
            Big(limbs)
        }

        fn pow5(e: usize) -> Big {
            let mut limbs = vec![1u32];
            for _ in 0..e {
                let mut carry = 0u64;
                for limb in &mut limbs {
                    let t = u64::from(*limb) * 5 + carry;
                    *limb = t as u32;
                    carry = t >> 32;
                }
                if carry != 0 {
                    limbs.push(carry as u32);
                }
            }
            Big(limbs)
        }

        fn pow2(e: usize) -> Big {
            let mut limbs = vec![0u32; e / 32 + 1];
            limbs[e / 32] = 1 << (e % 32);
            Big(limbs)
        }

        fn times(&self, other: &Big) -> Big {
            let mut limbs = vec![0u32; self.0.len() + other.0.len()];
            for (i, &a) in self.0.iter().enumerate() {
                let mut carry = 0u64;
                for (j, &b) in other.0.iter().enumerate() {
                    let t = u64::from(a) * u64::from(b) + u64::from(limbs[i + j]) + carry;
                    limbs[i + j] = t as u32;
                    carry = t >> 32;
                }
                limbs[i + other.0.len()] = carry as u32;
            }
            Big(limbs).trimmed()
        }

        fn trimmed(mut self) -> Big {
            while self.0.last() == Some(&0) {
                self.0.pop();
            }
            self
        }

        fn bit_len(&self) -> usize {
            let top = self
                .0
                .last()
                .map_or(0, |&t| 32 - t.leading_zeros() as usize);
            (self.0.len().max(1) - 1) * 32 + top
        }

        fn bit(&self, i: usize) -> bool {
            self.0.get(i / 32).is_some_and(|&l| l >> (i % 32) & 1 == 1)
        }

        /// `self × 2^shift`, `shift` negative for a truncating right shift,
        /// as a `u128` (the result must fit).
        fn shifted_u128(&self, shift: i64) -> u128 {
            let mut out = 0u128;
            for bit in (0..self.bit_len()).rev() {
                let pos = bit as i64 + shift;
                if pos >= 0 && self.bit(bit) {
                    assert!(pos < 128, "{pos} overflows u128");
                    out |= 1 << pos;
                }
            }
            out
        }

        fn compare(&self, other: &Big) -> Ordering {
            let (a, b) = (self.clone().trimmed(), other.clone().trimmed());
            a.0.len()
                .cmp(&b.0.len())
                .then_with(|| a.0.iter().rev().cmp(b.0.iter().rev()))
        }
    }

    /// Every entry recomputed from its definition: `POW5_SPLIT[i]` is the
    /// top 125 bits of `5^i`, and `POW5_INV_SPLIT[q] - 1` is
    /// `⌊2^j / 5^q⌋` for `j = bitlen(5^q) - 1 + 125`, i.e. the one `v` with
    /// `(v - 1) × 5^q ≤ 2^j < v × 5^q`. `pow5_bits` is checked against the
    /// true bit lengths on the way.
    #[test]
    fn tables_are_the_powers_of_five() {
        for (i, &entry) in POW5_SPLIT.iter().enumerate() {
            let pow5 = Big::pow5(i);
            assert_eq!(pow5.bit_len() as i32, pow5_bits(i as i32), "bitlen(5^{i})");
            let shift = POW5_BITCOUNT as i64 - pow5.bit_len() as i64;
            assert_eq!(entry, pow5.shifted_u128(shift), "POW5_SPLIT[{i}]");
        }
        for (q, &entry) in POW5_INV_SPLIT.iter().enumerate() {
            let pow5 = Big::pow5(q);
            assert_eq!(pow5.bit_len() as i32, pow5_bits(q as i32), "bitlen(5^{q})");
            let two_j = Big::pow2(pow5.bit_len() - 1 + POW5_INV_BITCOUNT as usize);
            let below = Big::from_u128(entry - 1).times(&pow5);
            let above = Big::from_u128(entry).times(&pow5);
            assert_ne!(
                below.compare(&two_j),
                Ordering::Greater,
                "POW5_INV_SPLIT[{q}]"
            );
            assert_eq!(two_j.compare(&above), Ordering::Less, "POW5_INV_SPLIT[{q}]");
        }
    }
}
