//! Order statistics used by every metric: medians, quartiles, the
//! nearest-rank percentile, and the rule that decides which tail
//! percentile a sample supports.

/// Median of `values` (mean of the middle pair for even counts).
/// Returns `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartile by the "exclusive" method — the default of
/// Python's `statistics.quantiles(values, n=4)`, so spreads computed
/// here match the ones an outside check computes from the same values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let ld = data.len();
    match ld {
        0 => None,
        1 => Some((data[0], data[0])),
        _ => {
            let m = ld + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            Some((cut(1), cut(3)))
        }
    }
}

/// Interquartile range as a share of the median: the steadiness figure
/// each end-to-end metric's bound is checked against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = rank(sorted.len(), p)?;
    Some(sorted[rank - 1])
}

/// Samples strictly beyond the nearest-rank `p`th percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    rank(n, p).map_or(0, |r| n - r)
}

/// The highest of `candidates` (ascending order not required) that
/// still leaves at least `min_beyond` samples above it — a tail figure
/// resting on fewer samples than that is one or two outliers, not a
/// percentile.
pub fn highest_supported_percentile(
    n: usize,
    candidates: &[f64],
    min_beyond: usize,
) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| samples_beyond(n, p) >= min_beyond)
        .fold(None, |best: Option<f64>, p| {
            Some(best.map_or(p, |b| b.max(p)))
        })
}

/// The tail percentiles the benchmark considers, in percent.
pub const TAIL_CANDIDATES: [f64; 6] = [50.0, 90.0, 95.0, 98.0, 99.0, 99.9];

/// Minimum samples a reported tail percentile must leave above it.
pub const MIN_BEYOND: usize = 10;

fn rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let r = (p / 100.0 * n as f64).ceil() as usize;
    Some(r.clamp(1, n))
}

/// An ascending copy of `values` (NaNs sort last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&v).expect("spread");
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0]), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), Some(50.0));
        assert_eq!(percentile_sorted(&v, 98.0), Some(98.0));
        assert_eq!(percentile_sorted(&v, 100.0), Some(100.0));
        assert_eq!(percentile_sorted(&[7.0], 98.0), Some(7.0));
        assert_eq!(percentile_sorted(&[], 50.0), None);
        assert_eq!(percentile_sorted(&v, 0.0), None);
    }

    #[test]
    fn a_610_frame_session_supports_p98_but_not_p99() {
        // p98 of 610 is rank 598: 12 samples beyond. p99 is rank 604: 6.
        assert_eq!(samples_beyond(610, 98.0), 12);
        assert_eq!(samples_beyond(610, 99.0), 6);
        assert_eq!(
            highest_supported_percentile(610, &TAIL_CANDIDATES, MIN_BEYOND),
            Some(98.0)
        );
        // Two sessions pooled (1220 samples) support p99 (12 beyond).
        assert_eq!(
            highest_supported_percentile(1220, &TAIL_CANDIDATES, MIN_BEYOND),
            Some(99.0)
        );
        // Too few samples for any tail: only the median survives.
        assert_eq!(
            highest_supported_percentile(25, &TAIL_CANDIDATES, MIN_BEYOND),
            Some(50.0)
        );
        assert_eq!(
            highest_supported_percentile(5, &TAIL_CANDIDATES, MIN_BEYOND),
            None
        );
    }
}
