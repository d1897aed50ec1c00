//! Sample statistics. Every function takes its samples unsorted and
//! returns `None` on an empty slice.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile and the number of samples that lie beyond
/// it, which says how far the value can be trusted.
pub fn nearest_rank(xs: &[f64], p: f64) -> Option<(f64, usize)> {
    let v = sorted(xs);
    if v.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    let rank = rank.clamp(1, v.len());
    Some((v[rank - 1], v.len() - rank))
}

/// A percentile is a tail estimate only when enough samples lie beyond
/// it; with fewer than ten it is one slow query, so it is refused.
pub const MIN_BEYOND: usize = 10;

pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    nearest_rank(xs, p)
        .filter(|&(_, beyond)| beyond >= MIN_BEYOND)
        .map(|(v, _)| v)
}

/// Geometric mean; `None` if any value is not positive, because a
/// clamped zero would silently dominate the product.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|x| x.is_nan() || *x <= 0.0) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// Median absolute deviation as a share of the median.
pub fn mad_share(xs: &[f64]) -> Option<f64> {
    let m = median(xs)?;
    let dev: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    Some(median(&dev)? / m)
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(xs, n=4)`
/// gives (the driver's acceptance rule). Needs two samples.
pub fn quartile_spread(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((quartile(3) - quartile(1)) / median(xs)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_counts_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 95.0), Some((95.0, 5)));
        assert_eq!(nearest_rank(&xs, 50.0), Some((50.0, 50)));
        assert_eq!(nearest_rank(&xs, 100.0), Some((100.0, 0)));
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let xs: Vec<f64> = (1..=199).map(f64::from).collect();
        // ceil(0.95 * 199) = 190: nine samples beyond.
        assert_eq!(percentile(&xs, 95.0), None);
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 95.0), Some(190.0));
        // p99 of 200 samples has two beyond it.
        assert_eq!(percentile(&xs, 99.0), None);
        assert_eq!(percentile(&xs, 50.0), Some(100.0));
    }

    #[test]
    fn geomean_is_the_log_mean() {
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9);
        assert!((geomean(&[4.0, 4.0, 4.0]).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[]), None);
    }

    #[test]
    fn mad_share_ignores_one_outlier() {
        let m = mad_share(&[10.0, 10.0, 11.0, 9.0, 1000.0]).unwrap();
        assert!((m - 0.1).abs() < 1e-12);
    }

    #[test]
    fn quartile_spread_matches_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = quartile_spread(&xs).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = quartile_spread(&[16.0, 1.0, 4.0, 2.0, 8.0]).unwrap();
        assert!((s - (12.0 - 1.5) / 4.0).abs() < 1e-12);
    }
}
