//! The benchmark's own statistics: medians, the tail rule, the
//! normalised latency ratio and the failure share.

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile (e.g. 90.0).
    pub pct: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// Samples ranked after the percentile.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// The nearest-rank `pct` percentile of `xs`, reported only when at least
/// [`TAIL_MIN_BEYOND`] samples lie beyond it.
pub fn tail(xs: &[f64], pct: f64) -> Option<Tail> {
    let n = xs.len();
    if n == 0 || !(0.0..100.0).contains(&pct) {
        return None;
    }
    let rank = ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if beyond < TAIL_MIN_BEYOND {
        return None;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    Some(Tail {
        pct,
        value: s[rank - 1],
        beyond,
        samples: n,
    })
}

/// The highest of the percentiles 90, 75 and 50 that the tail rule allows
/// for `xs`.
pub fn highest_tail(xs: &[f64]) -> Option<Tail> {
    [90.0, 75.0, 50.0].into_iter().find_map(|p| tail(xs, p))
}

/// A job's time divided by the reference loop's time measured next to it.
/// `None` when the reference time is not a positive, finite number.
pub fn norm_ratio(job_ms: f64, ref_ms: f64) -> Option<f64> {
    (ref_ms.is_finite() && ref_ms > 0.0 && job_ms.is_finite()).then(|| job_ms / ref_ms)
}

/// Share of attempted operations that failed. A run that attempted
/// nothing measured nothing, so it counts as failed outright.
pub fn failure_share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        1.0
    } else {
        failed.min(attempted) as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        // 99 samples: p90 sits at rank 90, only 9 beyond.
        assert_eq!(tail(&xs, 90.0), None);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs, 90.0).expect("100 samples carry a p90");
        assert_eq!((t.value, t.beyond, t.samples), (90.0, 10, 100));
    }

    #[test]
    fn highest_tail_falls_back_to_lower_percentiles() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = highest_tail(&xs).expect("40 samples carry a p75");
        assert_eq!((t.pct, t.value, t.beyond), (75.0, 30.0, 10));
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(highest_tail(&xs), None);
        assert_eq!(tail(&[], 50.0), None);
    }

    #[test]
    fn norm_ratio_scales_out_the_machine() {
        assert_eq!(norm_ratio(800.0, 100.0), Some(8.0));
        // A machine twice as slow slows job and loop alike.
        assert_eq!(norm_ratio(1600.0, 200.0), Some(8.0));
        assert_eq!(norm_ratio(800.0, 0.0), None);
        assert_eq!(norm_ratio(800.0, f64::NAN), None);
    }

    #[test]
    fn failure_share_counts_nothing_attempted_as_failed() {
        assert_eq!(failure_share(0, 0), 1.0);
        assert_eq!(failure_share(0, 8), 0.0);
        assert_eq!(failure_share(2, 8), 0.25);
    }
}
