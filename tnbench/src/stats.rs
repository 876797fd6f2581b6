//! Order statistics over latency samples.

/// The candidate percentiles a tail is reported at, highest last.
const TAIL_CANDIDATES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// 1-based nearest rank of percentile `p` (0–100) among `n` samples. The
/// small slack keeps products such as `99.9 × 10 000` from rounding up
/// past an exact integer.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0) - 1e-9)
        .ceil()
        .clamp(1.0, n.max(1) as f64) as usize
}

/// Nearest-rank percentile `p` (0–100) of `sorted`, which must be sorted
/// ascending. Returns `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(p, sorted.len()) - 1])
}

/// Samples ranked above percentile `p` among `n`.
pub fn beyond(p: f64, n: usize) -> usize {
    n - rank(p, n).min(n)
}

/// The highest candidate percentile that has at least ten samples beyond
/// it, so its value rests on more than a handful of outliers. Returns
/// `None` when even the median lacks ten samples above it.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .rev()
        .find(|&p| n > 0 && beyond(p, n) >= 10)
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let q = quartiles(values);
    q.1
}

/// First quartile, median and third quartile of unsorted values, by
/// linear interpolation between closest ranks. All three are `NaN` for an
/// empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    if values.is_empty() {
        return (f64::NAN, f64::NAN, f64::NAN);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.9), Some(7.0));
        assert_eq!(beyond(90.0, 100), 10);
        assert_eq!(beyond(99.9, 10_000), 10);
        assert_eq!(beyond(50.0, 1), 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(0), None);
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(99), Some(50.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(999), Some(90.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(supported_tail(100_000), Some(99.99));
        assert_eq!(supported_tail(10_000_000), Some(99.99));
    }

    #[test]
    fn quartiles_interpolate_like_inclusive_quantiles() {
        let (q1, q2, q3) = quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((q1, q2, q3), (2.0, 3.0, 4.0));
        let (q1, q2, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((q1, q2, q3), (1.75, 2.5, 3.25));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }
}
