//! The benchmark's arithmetic: percentiles, quartiles, spreads and span
//! self time. Kept free of I/O so the unit tests can pin every rule.

/// Samples a reported percentile must leave beyond it (the rule that makes
/// a tail percentile a measurement rather than a single outlier).
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` samples: the value at
/// 1-based rank `ceil(q · n)`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// How many samples lie strictly above the nearest-rank `q` percentile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// Whether `n` samples support reporting the `q` percentile: at least
/// [`MIN_BEYOND`] samples must lie beyond it.
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && samples_beyond(n, q) >= MIN_BEYOND
}

/// The fewest samples for which [`supports`] holds at `q` (200 for p95).
pub fn min_samples(q: f64) -> usize {
    (1..)
        .find(|&n| supports(n, q))
        .expect("some sample count supports q")
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(data, n=4)` (the default "exclusive" method), so
/// the spreads printed here match the ones Python computes from the same runs.
/// Needs at least two samples.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len() as i64;
    let m = ld + 1;
    let n = 4i64;
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        let (lo, hi) = (data[(j - 1) as usize], data[j as usize]);
        *slot = (lo * (n - delta) as f64 + hi * delta as f64) / n as f64;
    }
    out
}

/// Inter-quartile distance as a share of the median: `(q3 − q1) / q2`.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        if q3 == q1 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Median of unsorted samples (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Indices (ascending) of the central passes of a window: every pass but
/// the `n / 4` with the shortest and the `n / 4` with the longest `walls`.
/// Like a median, this keeps a burst of host noise that slows one pass out
/// of the figures, while a change that slows every pass still moves them.
pub fn central(walls: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..walls.len()).collect();
    order.sort_by(|&a, &b| walls[a].total_cmp(&walls[b]).then(a.cmp(&b)));
    let trim = walls.len() / 4;
    let mut kept = order[trim..walls.len() - trim].to_vec();
    kept.sort_unstable();
    kept
}

/// Self time of a span `[start, end)`: its duration minus the part of that
/// interval covered by at least one child. Children may overlap each other
/// (parallel solver calls under one portfolio span) and may poke outside
/// the parent; only their union inside the parent is subtracted.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut run: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match run {
            Some((rs, re)) if s <= re => run = Some((rs, re.max(e))),
            Some((rs, re)) => {
                covered += re - rs;
                run = Some((s, e));
            }
            None => run = Some((s, e)),
        }
    }
    if let Some((rs, re)) = run {
        covered += re - rs;
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert_eq!(min_samples(0.95), 200);
        assert!(supports(200, 0.95));
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert!(!supports(199, 0.95));
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert_eq!(min_samples(0.5), 20);
        assert_eq!(min_samples(0.99), 1000);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 100.0);
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(percentile(&v[..1], 0.95), 1.0);
        assert_eq!(percentile(&v[..3], 0.0), 1.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[4.0; 6]), 0.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Parent 0..100; children 10..40 and 30..60 overlap on 30..40, so
        // they cover 10..60 = 50, not 30 + 30 = 60.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 60)]), 50);
        // Nested and identical children count once.
        assert_eq!(self_time(0, 100, &[(10, 90), (20, 30), (10, 90)]), 20);
        // Disjoint children add up.
        assert_eq!(self_time(0, 100, &[(0, 10), (50, 60)]), 80);
        // A child straddling the parent's end is clipped to the parent.
        assert_eq!(self_time(0, 100, &[(90, 150)]), 90);
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(0, 100), (0, 100)]), 0);
    }

    #[test]
    fn central_passes_drop_a_quarter_at_each_end() {
        assert_eq!(central(&[5.0, 1.0, 3.0]), vec![0, 1, 2]);
        assert_eq!(central(&[4.0, 1.0, 9.0, 2.0]), vec![0, 3]);
        let walls = [3.0, 3.1, 9.0, 2.9, 3.2, 3.0, 1.0, 3.3];
        assert_eq!(central(&walls), vec![0, 1, 4, 5]);
        // Equal walls keep the earlier passes first, so the choice repeats.
        assert_eq!(central(&[2.0; 5]), vec![1, 2, 3]);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
