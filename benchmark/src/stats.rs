//! Order statistics the benchmark reports: medians, percentiles, and the
//! median over consecutive segments of a run.

/// Share of a run's rounds treated as warm-up and left out of every timing.
pub const WARMUP_SHARE: f64 = 0.05;

/// Number of equal consecutive segments the timed rounds are cut into.
pub const SEGMENTS: usize = 5;

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `p`-th percentile (`0 < p < 100`) by the nearest-rank method: the
/// smallest sample with at least `p` percent of the samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Distance between the first and third quartile of `values` as a share of
/// their median: the run-to-run spread. Quartiles are taken the way Python's
/// `statistics.quantiles(values, n=4)` takes them (the driver's method);
/// fewer than two values have no spread.
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        // Signed: clamping `j` extrapolates past the ends on small samples.
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(values).abs()
}

/// The highest of the percentiles 50, 90, 95, 99 and 99.9 that still has at
/// least ten of `samples` beyond it, or `None` below twenty samples.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    // (percentile, share of samples beyond it in thousandths): integer
    // arithmetic, so 100 samples support p90 exactly.
    [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (50.0, 500)]
        .into_iter()
        .find(|&(_, beyond)| samples * beyond >= 10_000)
        .map(|(p, _)| p)
}

/// The rounds of a run that are timed: all but the leading warm-up share.
pub fn timed(latencies: &[f64]) -> &[f64] {
    let skip = (latencies.len() as f64 * WARMUP_SHARE).ceil() as usize;
    &latencies[skip.min(latencies.len().saturating_sub(1))..]
}

/// A statistic taken over each of [`SEGMENTS`] consecutive segments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segmented {
    /// The median segment: the value reported.
    pub median: f64,
    /// The lowest segment.
    pub min: f64,
    /// The highest segment.
    pub max: f64,
}

impl Segmented {
    /// Median and extremes of `samples`.
    pub fn of(samples: &[f64]) -> Self {
        Segmented {
            median: median(samples),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// A value measured once: no spread to report.
    pub fn single(value: f64) -> Self {
        Segmented {
            median: value,
            min: value,
            max: value,
        }
    }
}

/// Cuts `values` into [`SEGMENTS`] equal consecutive segments (the last one
/// takes the remainder), applies `stat` to each and reports the median
/// segment with the extremes beside it, so one noisy burst on a shared core
/// moves one segment and not the reported number. Fewer values than
/// segments are treated as a single segment.
pub fn segmented(values: &[f64], stat: impl Fn(&[f64]) -> f64) -> Segmented {
    let len = values.len() / SEGMENTS;
    let per_segment: Vec<f64> = if len == 0 {
        vec![stat(values)]
    } else {
        (0..SEGMENTS)
            .map(|i| {
                let end = if i + 1 == SEGMENTS {
                    values.len()
                } else {
                    (i + 1) * len
                };
                stat(&values[i * len..end])
            })
            .collect()
    };
    Segmented {
        median: median(&per_segment),
        min: per_segment.iter().copied().fold(f64::INFINITY, f64::min),
        max: per_segment
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max),
    }
}

/// Completed rounds per second over a slice of round latencies (seconds).
pub fn rate(latencies: &[f64]) -> f64 {
    latencies.len() as f64 / latencies.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 95.0), 95.0);
        assert_eq!(percentile(&values, 99.9), 100.0);
        assert_eq!(percentile(&[5.0, 1.0], 50.0), 1.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quartile_spread_matches_pythons_default_quantiles() {
        // statistics.quantiles([1, 2, 4, 7, 11], n=4) == [1.5, 4.0, 9.0]
        assert_eq!(quartile_spread(&[11.0, 1.0, 4.0, 2.0, 7.0]), 7.5 / 4.0);
        // statistics.quantiles([10, 12], n=4) == [9.5, 11.0, 12.5]
        assert_eq!(quartile_spread(&[10.0, 12.0]), 3.0 / 11.0);
        // [1..10] -> [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartile_spread(&ten), 5.5 / 5.5);
        assert_eq!(quartile_spread(&[3.0]), 0.0);
    }

    #[test]
    fn warm_up_drops_the_leading_five_percent() {
        let latencies: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(timed(&latencies).len(), 95);
        assert_eq!(timed(&latencies)[0], 5.0);
        assert_eq!(timed(&[1.0]).len(), 1, "a single round is never dropped");
    }

    #[test]
    fn the_median_segment_ignores_one_noisy_burst() {
        // Five segments of two; the burst sits entirely in the fourth.
        let values = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 9.0, 9.0, 1.0, 1.0, 1.0];
        let seg = segmented(&values, |s| s.iter().sum::<f64>() / s.len() as f64);
        assert_eq!(seg.median, 1.0);
        assert_eq!(seg.max, 9.0);
        assert_eq!(seg.min, 1.0);
        // Too few values for five segments: one segment.
        let few = segmented(&[2.0, 4.0], median);
        assert_eq!((few.min, few.median, few.max), (3.0, 3.0, 3.0));
    }

    #[test]
    fn rate_is_rounds_over_their_total_latency() {
        assert_eq!(rate(&[0.5, 0.5, 1.0]), 1.5);
    }
}
