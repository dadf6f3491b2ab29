//! The mask codec's two spellings of a weight vector, `w` (every weight)
//! and `r` (the runs of ones of a 0/1 vector), over random domain sizes
//! 1–300 drawn with SplitMix64: a mask decodes to itself bit for bit, the
//! encoder picks `r` exactly when it is no longer than `w`, and two masks
//! encode to one line — the key an engine's answer cache files a probe
//! under — exactly when they are bitwise equal. Hostile `r` items are
//! refused with a parse error and no
//! allocation sized by the input, and the `r` items of one line never
//! expand to more weights than a `w` line under the line cap could carry.

use entropydb_core::assignment::Mask;
use entropydb_core::error::ModelError;
use entropydb_core::probe::ProbeRequest;
use entropydb_core::rng::SplitMix64;
use entropydb_core::wire::{push_f64, MAX_LINE_BYTES, WIRE_PREALLOC_CAP};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;

/// System allocator wrapper recording, for the calling thread, the largest
/// single request and the bytes requested in all.
struct CountingAllocator;

thread_local! {
    // Per thread: the harness runs tests on parallel threads.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    static TOTAL: Cell<usize> = const { Cell::new(0) };
}

fn record(size: usize) {
    LARGEST.with(|n| n.set(n.get().max(size)));
    TOTAL.with(|n| n.set(n.get() + size));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The largest single allocation `f` makes on this thread.
fn largest_allocation_during(f: impl FnOnce()) -> usize {
    LARGEST.with(|n| n.set(0));
    f();
    LARGEST.with(Cell::get)
}

/// The bytes `f` asks this thread's allocator for in all.
fn total_allocation_during(f: impl FnOnce()) -> usize {
    TOTAL.with(|n| n.set(0));
    f();
    TOTAL.with(Cell::get)
}

fn below(rng: &mut SplitMix64, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// One weight vector of a random shape over a random domain of 1–300
/// codes: random 0/1 at a random density, all zeros, all ones, one run
/// touching either end, alternating ones (where `w` must win), or general
/// floats mixed with `-0.0`, `0` and `1`.
fn weights(rng: &mut SplitMix64) -> Vec<f64> {
    let len = 1 + below(rng, 300);
    let bit = |b: bool| if b { 1.0 } else { 0.0 };
    match below(rng, 7) {
        0 => {
            let density = rng.next_f64();
            (0..len).map(|_| bit(rng.next_f64() < density)).collect()
        }
        1 => vec![0.0; len],
        2 => vec![1.0; len],
        3 => {
            let hi = below(rng, len);
            (0..len).map(|v| bit(v <= hi)).collect()
        }
        4 => {
            let lo = below(rng, len);
            (0..len).map(|v| bit(v >= lo)).collect()
        }
        5 => (0..len).map(|v| bit(v % 2 == 0)).collect(),
        _ => (0..len)
            .map(|_| match below(rng, 5) {
                0 => -0.0,
                1 => 0.0,
                2 => 1.0,
                3 => rng.next_f64() * 100.0,
                _ => loop {
                    let x = f64::from_bits(rng.next_u64());
                    if x.is_finite() {
                        break x;
                    }
                },
            })
            .collect(),
    }
}

/// A mask of arity 1–3, each attribute unconstrained or a random vector.
fn mask(rng: &mut SplitMix64) -> Mask {
    let arity = 1 + below(rng, 3);
    let attrs = (0..arity).map(|_| (below(rng, 4) != 0).then(|| weights(rng)));
    Mask::from_weights(attrs.collect())
}

fn bits(mask: &Mask) -> Vec<Option<Vec<u64>>> {
    (0..mask.arity())
        .map(|attr| {
            let w = mask.attr_weights(attr)?;
            Some(w.iter().map(|x| x.to_bits()).collect())
        })
        .collect()
}

/// The `w` item of a weight vector, as the grammar spells it.
fn w_item(w: &[f64]) -> String {
    let mut out = format!(" w {}", w.len());
    for &x in w {
        out.push(' ');
        push_f64(&mut out, x);
    }
    out
}

/// The `r` item of a vector whose weights are all bitwise `0.0` or `1.0`.
fn r_item(w: &[f64]) -> Option<String> {
    if !w
        .iter()
        .all(|x| x.to_bits() == 0 || x.to_bits() == 1.0f64.to_bits())
    {
        return None;
    }
    let mut runs = Vec::new();
    for (v, &x) in w.iter().enumerate() {
        match (x == 1.0, runs.last_mut()) {
            (true, Some((_, hi))) if *hi + 1 == v => *hi = v,
            (true, _) => runs.push((v, v)),
            (false, _) => {}
        }
    }
    let mut out = format!(" r {} {}", w.len(), runs.len());
    for (lo, hi) in runs {
        let _ = write!(out, " {lo} {hi}");
    }
    Some(out)
}

fn count(mask: Mask) -> ProbeRequest {
    ProbeRequest::Count { mask }
}

#[test]
fn masks_round_trip_bit_for_bit_in_the_shorter_spelling() {
    let mut rng = SplitMix64::new(0x6d61_736b);
    let (mut runs, mut words) = (0, 0);
    for _ in 0..3000 {
        let mask = mask(&mut rng);
        let line = count(mask.clone()).encode();
        let decoded = ProbeRequest::decode(&line).unwrap();
        let ProbeRequest::Count { mask: back } = &decoded else {
            panic!("{line}: decoded {decoded:?}")
        };
        assert_eq!(bits(back), bits(&mask), "{line}");
        assert_eq!(decoded.encode(), line);

        // The expected line, item by item: `r` exactly when it is no longer.
        let mut expected = format!("b1 count m {}", mask.arity());
        for attr in 0..mask.arity() {
            let Some(w) = mask.attr_weights(attr) else {
                expected.push_str(" i");
                continue;
            };
            let w_form = w_item(w);
            match r_item(w).filter(|r| r.len() <= w_form.len()) {
                Some(r) => {
                    runs += 1;
                    expected.push_str(&r);
                }
                None => {
                    words += 1;
                    expected.push_str(&w_form);
                }
            }
        }
        assert_eq!(line, expected);
    }
    assert!(
        runs > 1000 && words > 1000,
        "{runs} r items, {words} w items"
    );
}

#[test]
fn alternating_ones_travel_as_weights_and_predicates_as_runs() {
    for len in 1..=300 {
        let alternating: Vec<f64> = (0..len).map(|v| f64::from(v % 2 == 0)).collect();
        let line = count(Mask::from_weights(vec![Some(alternating)])).encode();
        assert!(line.starts_with("b1 count m 1 w "), "{line}");
    }
    let point = |v: f64| {
        Mask::from_weights(vec![Some(
            (0..81).map(|c| f64::from(c == 40) * v).collect(),
        )])
    };
    assert_eq!(count(point(1.0)).encode(), "b1 count m 1 r 81 1 40 40");
    // `-0.0` is not `0.0`: a vector holding it travels as its bits.
    let signed = count(point(-1.0)).encode();
    assert!(signed.starts_with("b1 count m 1 w 81 -0 -0 "), "{signed}");
}

/// Whether the counts of `first` and `second` are one `b1` line, and so
/// one answer-cache entry.
fn share_an_entry(first: &Mask, second: &Mask) -> bool {
    count(first.clone()).encode() == count(second.clone()).encode()
}

#[test]
fn masks_share_a_line_exactly_when_bitwise_equal() {
    let mut rng = SplitMix64::new(0x6b65_7973);
    for _ in 0..1000 {
        let a = mask(&mut rng);
        let b = match below(&mut rng, 4) {
            // Itself, through the wire.
            0 => match ProbeRequest::decode(&count(a.clone()).encode()).unwrap() {
                ProbeRequest::Count { mask } => mask,
                other => panic!("{other:?}"),
            },
            // One weight changed: flipped between 0 and 1, or its sign.
            1 | 2 => {
                let mut weights: Vec<_> = (0..a.arity())
                    .map(|attr| a.attr_weights(attr).map(<[f64]>::to_vec))
                    .collect();
                if let Some(w) = weights.iter_mut().flatten().next() {
                    let v = below(&mut rng, w.len());
                    w[v] = match below(&mut rng, 2) {
                        0 => 1.0 - w[v].abs(),
                        _ => -w[v],
                    };
                }
                Mask::from_weights(weights)
            }
            _ => mask(&mut rng),
        };
        assert_eq!(
            share_an_entry(&a, &b),
            bits(&a) == bits(&b),
            "{}\n{}",
            count(a).encode(),
            count(b).encode()
        );
    }
    // Near misses the random pairs rarely draw: one `-0.0`, the same runs
    // over another length, the same vector on another attribute, and the
    // same value spelled as runs and as bits.
    let one = |w: &[f64]| Mask::from_weights(vec![Some(w.to_vec())]);
    let two = |a: Option<&[f64]>, b: Option<&[f64]>| {
        Mask::from_weights(vec![a.map(<[f64]>::to_vec), b.map(<[f64]>::to_vec)])
    };
    let distinct = [
        (one(&[0.0, 1.0]), one(&[-0.0, 1.0])),
        (one(&[1.0, 0.0]), one(&[1.0, 0.0, 0.0])),
        (one(&[0.0, 0.0]), one(&[0.0, 0.0, 0.0])),
        (one(&[1.0]), Mask::identity(1)),
        (two(Some(&[1.0, 0.0]), None), two(None, Some(&[1.0, 0.0]))),
        (one(&[0.0, 1.0]), one(&[0.0, 0.5])),
    ];
    for (a, b) in distinct {
        assert!(!share_an_entry(&a, &b), "{a:?} {b:?}");
        assert!(share_an_entry(&a, &a.clone()), "{a:?}");
    }
}

#[test]
fn hostile_run_items_are_refused_without_allocating() {
    let cap = WIRE_PREALLOC_CAP;
    let refused = [
        format!("b1 count m 1 r {} 0", cap + 1),
        "b1 count m 1 r 18446744073709551615 1 0 0".into(),
        // overlapping, adjacent, descending, reversed
        "b1 count m 1 r 8 2 1 3 2 4".into(),
        "b1 count m 1 r 8 2 1 2 3 4".into(),
        "b1 count m 1 r 8 2 5 6 1 2".into(),
        "b1 count m 1 r 8 1 3 2".into(),
        // past the end
        "b1 count m 1 r 8 1 7 8".into(),
        "b1 count m 1 r 8 1 9 9".into(),
        // short: a missing hi, a missing run, a missing count
        "b1 count m 1 r 8 1 3".into(),
        "b1 count m 1 r 8 2 1 1".into(),
        "b1 count m 1 r 8".into(),
        "b1 count m 1 r 8 18446744073709551615 0 0".into(),
        "b1 count m 1 r 8 -1".into(),
        "b1 count m 1 r 8 1 -1 2".into(),
        "b1 count m 1 r 8 0 junk".into(),
    ];
    for line in &refused {
        let mut outcome = None;
        let largest = largest_allocation_during(|| outcome = Some(ProbeRequest::decode(line)));
        match outcome.unwrap() {
            Err(ModelError::Parse { line: 0, .. }) => {}
            other => panic!("{line}: expected a parse error, got {other:?}"),
        }
        assert!(largest < 4096, "{line}: allocated {largest} bytes");
    }
    // The largest run mask there may be is `len = WIRE_PREALLOC_CAP`.
    let line = format!("b1 count m 1 r {cap} 1 0 {}", cap - 1);
    let largest = largest_allocation_during(|| {
        let ProbeRequest::Count { mask } = ProbeRequest::decode(&line).unwrap() else {
            unreachable!()
        };
        assert_eq!(mask.attr_weights(0), Some(&vec![1.0; cap][..]));
    });
    assert!(largest <= cap * std::mem::size_of::<f64>(), "{largest}");
}

/// `r` items are a few bytes each however long the vector they stand for,
/// so one line's items share one budget of weights: what a `w` line under
/// the line cap could carry. A line asking for more is refused before it
/// allocates more than that budget.
#[test]
fn one_line_of_run_items_allocates_no_more_than_its_w_form_could() {
    let cap = WIRE_PREALLOC_CAP;
    let budget = MAX_LINE_BYTES as usize / 2;
    let full = format!(" m 1 r {cap} 1 0 0");
    let countm =
        |masks: usize, tail: &str| format!("b1 countm {}{}{tail}", masks + 1, full.repeat(masks));
    // Exactly the budget decodes; one weight more, or many masks more, is
    // refused.
    assert_eq!(budget % cap, 0);
    let at_budget = countm(budget / cap - 1, &full);
    match ProbeRequest::decode(&at_budget).unwrap() {
        ProbeRequest::CountMany { masks } => assert_eq!(masks.len(), budget / cap),
        other => panic!("{other:?}"),
    }
    let weight_bytes = budget * std::mem::size_of::<f64>();
    for line in [
        countm(budget / cap, " m 1 r 1 1 0 0"),
        countm(4096, &full),
        format!("b1 probm 4097{}", full.repeat(4097)),
    ] {
        let mut outcome = None;
        let total = total_allocation_during(|| outcome = Some(ProbeRequest::decode(&line)));
        match outcome.unwrap() {
            Err(ModelError::Parse { line: 0, message }) => {
                assert!(message.contains("expand to more than"), "{message}");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
        // The masks' weights, plus the list of masks and the error.
        assert!(
            total <= weight_bytes + 2 * cap * std::mem::size_of::<Mask>(),
            "allocated {total} bytes, the budget is {weight_bytes}"
        );
    }
}

/// A 0/1 vector longer than [`WIRE_PREALLOC_CAP`] travels as `w`, which
/// the decoder reads at any length, and keys an answer cache as any other
/// mask does.
#[test]
fn masks_longer_than_the_run_cap_travel_as_weights() {
    let len = WIRE_PREALLOC_CAP + 1;
    let point = |code: usize| {
        Mask::from_weights(vec![Some((0..len).map(|c| f64::from(c == code)).collect())])
    };
    let line = count(point(7)).encode();
    assert!(
        line.starts_with(&format!("b1 count m 1 w {len} 0 ")),
        "{}",
        &line[..40]
    );
    let ProbeRequest::Count { mask } = ProbeRequest::decode(&line).unwrap() else {
        unreachable!()
    };
    assert_eq!(bits(&mask), bits(&point(7)));
    assert!(share_an_entry(&point(7), &mask));
    assert!(!share_an_entry(&point(7), &point(8)));
}
