//! Percentile and segment arithmetic for latency samples.

/// Number of equal segments a timed phase is cut into.
pub const SEGMENTS: usize = 5;

/// Linear-interpolated quantile `q ∈ [0, 1]` of an ascending slice
/// (0 for an empty one).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

fn sorted_copy(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unordered samples (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    quantile_sorted(&sorted_copy(samples), 0.5)
}

/// A timing metric as the benchmark reports it: the median of the
/// per-segment medians, with the segments' inter-quartile spread as a share
/// of that median beside it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Segmented {
    pub median: f64,
    pub iqr_share: f64,
    pub samples: usize,
}

/// Cuts `samples` (in the order they were taken) into [`SEGMENTS`] equal
/// runs, takes each run's median, and reports the median of those. Fewer
/// samples than segments fall back to the plain median with spread 0.
pub fn segmented(samples: &[f64]) -> Segmented {
    if samples.len() < SEGMENTS {
        return Segmented {
            median: median(samples),
            iqr_share: 0.0,
            samples: samples.len(),
        };
    }
    let medians: Vec<f64> = (0..SEGMENTS)
        .map(|i| {
            let lo = i * samples.len() / SEGMENTS;
            let hi = (i + 1) * samples.len() / SEGMENTS;
            median(&samples[lo..hi])
        })
        .collect();
    let sorted = sorted_copy(&medians);
    let mid = quantile_sorted(&sorted, 0.5);
    let iqr = quantile_sorted(&sorted, 0.75) - quantile_sorted(&sorted, 0.25);
    Segmented {
        median: mid,
        iqr_share: if mid > 0.0 { iqr / mid } else { 0.0 },
        samples: samples.len(),
    }
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percentile in [0, 100], value)`. With twenty samples or fewer the
/// median is all the sample supports.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let sorted = sorted_copy(samples);
    let n = sorted.len();
    if n <= 20 {
        return (50.0, quantile_sorted(&sorted, 0.5));
    }
    let index = n - 11;
    (100.0 * index as f64 / (n - 1) as f64, sorted[index])
}

/// The 99th percentile, or the [`tail`] value when fewer than 1 000
/// samples make p99 unsupported.
pub fn p99(samples: &[f64]) -> f64 {
    if samples.len() >= 1000 {
        quantile_sorted(&sorted_copy(samples), 0.99)
    } else {
        tail(samples).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 0.5), 2.5);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn segmented_is_the_median_of_segment_medians() {
        // Five segments of three samples with medians 10, 20, 30, 40, 1000:
        // one slow stretch moves the plain median less than the mean, and
        // the segment median not at all.
        let samples = [
            9.0, 10.0, 11.0, 19.0, 20.0, 21.0, 29.0, 30.0, 31.0, 39.0, 40.0, 41.0, 999.0, 1000.0,
            1001.0,
        ];
        let s = segmented(&samples);
        assert_eq!(s.median, 30.0);
        assert_eq!(s.samples, 15);
        // Quartiles of [10, 20, 30, 40, 1000] are 20 and 40.
        assert!((s.iqr_share - 20.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn segmented_falls_back_below_five_samples() {
        let s = segmented(&[3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.iqr_share, s.samples), (2.0, 0.0, 3));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        let (pct, value) = tail(&samples);
        assert_eq!(value, 989.0);
        assert!(samples.iter().filter(|&&x| x > value).count() >= 10);
        assert!((pct - 99.0).abs() < 0.1);
        assert_eq!(tail(&[1.0, 2.0, 3.0]), (50.0, 2.0));
    }
}
