//! The benchmark's statistics: medians, quartiles, geometric means, the
//! tail percentile that still has ten samples beyond it, and residual
//! attribution of a measured whole over its measured parts.

/// Sorted copy of `xs` (total order, so NaN cannot break the sort).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count), or
/// `None` for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (its default "exclusive" method), so
/// spreads printed here match the ones an outside script computes.
/// `None` for fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let v = sorted(xs);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let k = (i + 1) * m;
        let j = (k / 4).clamp(1, n - 1);
        // Like Python, the weight is not clamped: with very few samples
        // the outer cut points extrapolate past the extreme values.
        let delta = k as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// The geometric mean of strictly positive samples; `None` when empty or
/// when any sample is not positive.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x.is_nan() || x <= 0.0) {
        return None;
    }
    let log_sum: f64 = xs.iter().map(|x| x.ln()).sum();
    Some((log_sum / xs.len() as f64).exp())
}

/// A tail reading: the value at `percentile`, with [`TAIL_BEYOND`] of
/// `samples` beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The nearest-rank percentile the value sits at, in percent.
    pub percentile: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// All samples.
    pub samples: usize,
}

/// Samples that must lie beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The highest nearest-rank percentile that still has [`TAIL_BEYOND`]
/// samples beyond it: the 11th-largest sample, at percentile
/// `100 · (n − 10) / n`. `None` for fewer than 11 samples, where no
/// percentile has ten samples beyond it.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let v = sorted(xs);
    let k = n - 1 - TAIL_BEYOND;
    Some(Tail {
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        value: v[k],
        samples: n,
    })
}

/// Residual attribution: what of `elapsed` the measured `parts` do not
/// cover. `parts.sum() + unattributed(elapsed, parts) == elapsed` up to
/// rounding; the residual is negative when parts overlap in time.
pub fn unattributed(elapsed: f64, parts: &[f64]) -> f64 {
    elapsed - parts.iter().sum::<f64>()
}

/// The arithmetic mean; `None` when empty.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// `max / mean` of a load vector (1.0 is perfect balance); `None` when
/// empty or all zero.
pub fn skew(loads: &[f64]) -> Option<f64> {
    let m = mean(loads)?;
    if m <= 0.0 {
        return None;
    }
    let max = loads.iter().copied().fold(f64::MIN, f64::max);
    Some(max / m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * b.abs().max(1.0)
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&xs).unwrap();
        assert!(
            close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25),
            "{q:?}"
        );
        // statistics.quantiles([5, 1, 9, 3], n=4) == [1.5, 4.0, 8.0]
        let q = quartiles(&[5.0, 1.0, 9.0, 3.0]).unwrap();
        assert!(
            close(q[0], 1.5) && close(q[1], 4.0) && close(q[2], 8.0),
            "{q:?}"
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[1.0, 2.0]).unwrap();
        assert!(
            close(q[0], 0.75) && close(q[1], 1.5) && close(q[2], 2.25),
            "{q:?}"
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn geomean_of_known_values() {
        assert!(close(geomean(&[1.0, 100.0]).unwrap(), 10.0));
        assert!(close(geomean(&[2.0, 8.0, 4.0]).unwrap(), 4.0));
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 100 samples 1..=100: the 11th largest is 90, at p90.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 90.0);
        assert!(close(t.percentile, 90.0));
        assert_eq!(t.samples, 100);
        let beyond = xs.iter().filter(|&&x| x > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);
        // 11 samples: the minimum, at p(1/11).
        let xs: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 0.0);
        assert!(close(t.percentile, 100.0 / 11.0));
        // Ten samples cannot support any tail.
        assert_eq!(tail(&xs[..10]), None);
    }

    #[test]
    fn residual_attribution_sums_to_elapsed() {
        let parts = [1.25, 3.5, 0.125, 2.0];
        let elapsed = 10.0;
        let rest = unattributed(elapsed, &parts);
        assert!(close(parts.iter().sum::<f64>() + rest, elapsed));
        assert!(close(rest, 3.125));
        // Overlapping parts leave a negative residual, still summing.
        let rest = unattributed(1.0, &[0.75, 0.5]);
        assert!(close(rest, -0.25));
    }

    #[test]
    fn skew_is_max_over_mean() {
        assert!(close(skew(&[1.0, 1.0, 1.0, 5.0]).unwrap(), 2.5));
        assert_eq!(skew(&[0.0, 0.0]), None);
    }
}
