//! Order statistics over timing samples.

/// A smoothed `q`-quantile: the mean of the samples ranked between the
/// `q - half_width` and the `q + half_width` quantile.
/// Where the samples fall into separated clusters — 22 queries of very
/// different cost — the plain quantile jumps between the edges of two
/// clusters from run to run; the window averages across the gap.
pub fn smoothed_quantile(values: &[f64], q: f64, half_width: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // Rank positions, rounded first so that 0.45 · 20 counts as 9.
    let pos = |p: f64| (p * n as f64 * 1e6).round() / 1e6;
    let lo = (pos(q - half_width).floor() as usize).min(n - 1);
    let hi = (pos(q + half_width).ceil() as usize).clamp(lo + 1, n);
    mean(&v[lo..hi])
}

/// Smoothed median: the mean of the middle fifth of the samples (the
/// median itself for fewer than five).
pub fn p50(values: &[f64]) -> f64 {
    smoothed_quantile(values, 0.5, 0.1)
}

/// Smoothed 95th percentile: the mean of the samples between the 93.5th
/// and the 96.5th percentile.
pub fn p95(values: &[f64]) -> f64 {
    smoothed_quantile(values, 0.95, 0.015)
}

/// The mean of the fastest tenth of `values` (at least one of them),
/// where each value is one repetition's figure — a query pass's p50, a
/// serve cycle's checkpoint. On a shared host the speed can flip between
/// states as other tenants come and go (on a 2-core x86-64 VM: about
/// 1.6× apart, each lasting from seconds to tens of seconds). That only
/// ever slows the program: it lifts the repetitions that fall in a slow
/// spell and leaves the others, so the fastest ones are what one run can
/// repeat in the next. Each phase runs enough repetitions, spread over
/// the whole run, for some of them to land outside the slow spells.
pub fn fastest(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    mean(&v[..fastest_count(v.len()).min(v.len())])
}

/// How many of `n` repetitions [`fastest`] averages.
pub fn fastest_count(n: usize) -> usize {
    ((n as f64 / 10.0).round() as usize).max(1)
}

/// Arithmetic mean (`NaN` when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoothed_quantiles() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert!(p50(&[]).is_nan());
        // Ranks 9 to 12 of 20 lie between the 40th and 60th percentile.
        assert_eq!(p50(&v), 10.5);
        assert_eq!(p50(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(p95(&v), 19.5);
        // Two clusters: the smoothed median sits between them.
        let two: Vec<f64> = (0..100).map(|i| if i < 50 { 1.0 } else { 2.0 }).collect();
        assert_eq!(p50(&two), 1.5);
        assert_eq!(p50(&[4.0]), 4.0);
    }

    #[test]
    fn fastest_tenth() {
        assert!(fastest(&[]).is_nan());
        assert_eq!(fastest(&[3.0]), 3.0);
        assert_eq!(fastest(&[5.0, 2.0]), 2.0);
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(fastest(&v), 1.5);
    }
}
