//! Order statistics and rank correlation over measured samples.

/// The median of `xs` (mean of the two middle values for an even count);
/// `0.0` for no samples.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The `p`-th percentile of `xs` by linear interpolation between closest
/// ranks (the spreadsheet `PERCENTILE.INC` definition); `0.0` for no
/// samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let pos = (p / 100.0).clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method).
/// Needs at least two samples; a single sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    match xs.len() {
        0 => (0.0, 0.0),
        1 => (xs[0], xs[0]),
        m => {
            let s = sorted(xs);
            let q = |i: usize| {
                let j = (i * (m + 1) / 4).clamp(1, m - 1);
                // Taken after clamping, so it may fall outside 0..4 and
                // extrapolate, as Python's does.
                let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// The highest of p99 / p90 / p50 that has at least ten samples beyond
/// it, as `(label, value)`; `None` below ten samples.
pub fn tail(xs: &[f64]) -> Option<(&'static str, f64)> {
    [("p99", 99), ("p90", 90), ("p50", 50)]
        .into_iter()
        .find(|&(_, p)| xs.len() * (100 - p) >= 10 * 100)
        .map(|(label, p)| (label, percentile(xs, p as f64)))
}

/// Spearman's rank correlation of paired samples (average ranks for
/// ties); `0.0` when either side is constant or there are fewer than two
/// pairs.
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "spearman needs paired samples");
    if xs.len() < 2 {
        return 0.0;
    }
    let (rx, ry) = (ranks(xs), ranks(ys));
    let n = xs.len() as f64;
    let (mx, my) = (rx.iter().sum::<f64>() / n, ry.iter().sum::<f64>() / n);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (a, b) in rx.iter().zip(&ry) {
        sxy += (a - mx) * (b - my);
        sxx += (a - mx) * (a - mx);
        syy += (b - my) * (b - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        0.0
    } else {
        sxy / (sxx * syy).sqrt()
    }
}

/// 1-based ranks, ties sharing the mean of the ranks they span.
fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut r = vec![0.0; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        let rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            r[k] = rank;
        }
        i = j + 1;
    }
    r
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Sample count, median, quartiles and tail of one metric's samples, as
/// a JSON object.
pub fn summary_json(xs: &[f64]) -> String {
    let (q1, q3) = quartiles(xs);
    let tail = match tail(xs) {
        Some((label, v)) => format!(", \"tail\": {{\"{label}\": {v}}}"),
        None => String::new(),
    };
    format!(
        "{{\"n\": {}, \"median\": {}, \"q1\": {q1}, \"q3\": {q3}{tail}}}",
        xs.len(),
        median(xs)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 11.0);
        assert_eq!(percentile(&xs, 90.0), 10.0);
        assert!((percentile(&[1.0, 2.0], 25.0) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().0, "p99");
        assert_eq!(tail(&xs[..999]).unwrap().0, "p90");
        assert_eq!(tail(&xs[..100]).unwrap().0, "p90");
        assert_eq!(tail(&xs[..99]).unwrap().0, "p50");
        assert!(tail(&xs[..19]).is_none());
    }

    #[test]
    fn spearman_is_rank_based() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((spearman(&xs, &[10.0, 20.0, 300.0, 4000.0]) - 1.0).abs() < 1e-12);
        assert!((spearman(&xs, &[9.0, 7.0, 5.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(spearman(&xs, &[1.0, 1.0, 1.0, 1.0]), 0.0);
        // Ties share the mean rank: ranks [1, 2.5, 2.5, 4] vs [1, 2, 3, 4].
        let r = spearman(&[1.0, 2.0, 2.0, 3.0], &xs);
        assert!((r - 0.9486832980505138).abs() < 1e-12, "{r}");
    }
}
