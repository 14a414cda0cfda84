//! Order statistics for the benchmark's timings.

/// The `p`-th percentile (`p` in `[0, 100]`) of `xs`, interpolated
/// linearly between order statistics. `None` for an empty sample.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(v[lo] + (v[hi] - v[lo]) * frac)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 50.0)
}

/// Samples that lie strictly beyond the `p`-th percentile of `n`
/// samples, counted by rank (ties are not collapsed).
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let at = ((p.clamp(0.0, 100.0) / 100.0) * n as f64).ceil() as usize;
    n.saturating_sub(at)
}

/// A tail percentile is trustworthy only with at least ten samples
/// beyond it; p90 therefore needs 100 samples.
pub fn tail_is_resolved(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= 10
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(4.0));
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        let hundred: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), Some(91.0));
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert!(tail_is_resolved(100, 90.0));
        assert!(!tail_is_resolved(99, 90.0));
        assert!(tail_is_resolved(1000, 99.0));
        assert!(!tail_is_resolved(999, 99.0));
        assert_eq!(samples_beyond(0, 90.0), 0);
    }
}
