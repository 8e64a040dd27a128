//! Rent's rule (`T = k · C^p`) and the block-size thresholds of Table I.
//!
//! Section I of the paper: "in a layout with Rent parameter `p`, on average
//! a block of `C` cells will have `T = k·C^p` propagated or external
//! terminals. This corresponds to a partitioning instance of `C + T`
//! vertices, of which `T` are fixed." Table I lists, for each Rent
//! parameter, the block sizes below which the expected number of fixed
//! vertices exceeds 5%, 10% or 20% of all vertices. [`fit_rent`] measures
//! the realised `k` and `p` of observed blocks.

/// A Rent's-rule model: `terminals(C) = k · C^p`.
///
/// # Example
/// ```
/// use vlsi_netgen::rent::RentModel;
/// // The paper's modern-design parameters: k = 3.5, p ≈ 0.68.
/// let m = RentModel::new(3.5, 0.68);
/// assert!((m.terminals(1000.0) - 3.5 * 1000f64.powf(0.68)).abs() < 1e-9);
/// assert!(m.fixed_fraction(1000.0) > 0.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RentModel {
    /// Average pins per cell (`k`, ≈ 3.5 for the paper's modern designs).
    pub pins_per_cell: f64,
    /// Rent exponent (`p`).
    pub exponent: f64,
}

impl RentModel {
    /// Creates a model with the given `k` and `p`.
    ///
    /// # Panics
    /// Panics if `pins_per_cell <= 0` or `exponent` is outside `(0, 1]`.
    pub fn new(pins_per_cell: f64, exponent: f64) -> Self {
        assert!(pins_per_cell > 0.0, "k must be positive");
        assert!(
            exponent > 0.0 && exponent <= 1.0,
            "rent exponent must be in (0, 1]"
        );
        RentModel {
            pins_per_cell,
            exponent,
        }
    }

    /// Expected number of external terminals of a block of `cells` cells.
    pub fn terminals(&self, cells: f64) -> f64 {
        self.pins_per_cell * cells.powf(self.exponent)
    }

    /// Expected fraction of fixed vertices in the partitioning instance
    /// induced by a block of `cells` cells: `T / (C + T)`.
    pub fn fixed_fraction(&self, cells: f64) -> f64 {
        let t = self.terminals(cells);
        t / (cells + t)
    }

    /// The largest block size `C` whose expected fixed fraction still
    /// *exceeds* `threshold` — the entries of the paper's Table I.
    ///
    /// `fixed_fraction` is strictly decreasing in `C` (for `p < 1`), so a
    /// binary search suffices. Returns 0 if even a 1-cell block is below
    /// the threshold, and `u64::MAX` if the fraction never drops below it
    /// (`p = 1`).
    ///
    /// # Example
    /// ```
    /// use vlsi_netgen::rent::RentModel;
    /// let m = RentModel::new(3.5, 0.68);
    /// let c = m.block_size_threshold(0.20);
    /// // Just below the threshold the fraction exceeds 20 %...
    /// assert!(m.fixed_fraction(c as f64) > 0.20);
    /// // ...and just above it no longer does.
    /// assert!(m.fixed_fraction((c + 1) as f64) <= 0.20);
    /// ```
    pub fn block_size_threshold(&self, threshold: f64) -> u64 {
        assert!((0.0..1.0).contains(&threshold), "threshold in [0,1)");
        if (self.exponent - 1.0).abs() < 1e-12 {
            // T/C is constant: either always above or always below.
            return if self.fixed_fraction(1.0) > threshold {
                u64::MAX
            } else {
                0
            };
        }
        if self.fixed_fraction(1.0) <= threshold {
            return 0;
        }
        let (mut lo, mut hi) = (1u64, 2u64);
        while self.fixed_fraction(hi as f64) > threshold {
            lo = hi;
            hi = hi.saturating_mul(2);
            if hi == u64::MAX {
                return u64::MAX;
            }
        }
        // Invariant: fraction(lo) > threshold >= fraction(hi).
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if self.fixed_fraction(mid as f64) > threshold {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// One row of the paper's Table I: a Rent parameter and the block sizes
/// below which the expected fixed fraction exceeds 5%, 10% and 20%.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableOneRow {
    /// Rent parameter `p`, in thousandths (e.g. 680 for 0.68) to keep the
    /// row hashable and exactly comparable.
    pub p_milli: u32,
    /// Block size below which ≥ 5% of vertices are expected fixed.
    pub c_5pct: u64,
    /// Block size below which ≥ 10% of vertices are expected fixed.
    pub c_10pct: u64,
    /// Block size below which ≥ 20% of vertices are expected fixed.
    pub c_20pct: u64,
}

/// Computes the full Table I for the given Rent parameters and `k = 3.5`
/// (the paper's stated assumption).
///
/// # Example
/// ```
/// use vlsi_netgen::rent::table_one;
/// let rows = table_one(&[0.47, 0.68]);
/// assert_eq!(rows.len(), 2);
/// // Higher Rent parameter => terminals dominate to larger block sizes.
/// assert!(rows[1].c_20pct > rows[0].c_20pct);
/// ```
pub fn table_one(rent_parameters: &[f64]) -> Vec<TableOneRow> {
    rent_parameters
        .iter()
        .map(|&p| {
            let m = RentModel::new(3.5, p);
            TableOneRow {
                p_milli: (p * 1000.0).round() as u32,
                c_5pct: m.block_size_threshold(0.05),
                c_10pct: m.block_size_threshold(0.10),
                c_20pct: m.block_size_threshold(0.20),
            }
        })
        .collect()
}

/// Least-squares fit of `log T = log k + p·log C` over `(C, T)`
/// observations — a block's cell count and its external terminals or nets
/// — keeping blocks of at least `min_cells` cells with `T > 0`. Returns
/// `(p, k)`; `None` with fewer than three usable samples or no spread in
/// block size.
///
/// # Example
/// ```
/// use vlsi_netgen::rent::fit_rent;
/// // T = 4·C^0.5 exactly.
/// let (p, k) = fit_rent([(16, 16), (64, 32), (256, 64), (1024, 128)], 1).unwrap();
/// assert!((p - 0.5).abs() < 1e-9 && (k - 4.0).abs() < 1e-9);
/// ```
pub fn fit_rent(
    samples: impl IntoIterator<Item = (usize, usize)>,
    min_cells: usize,
) -> Option<(f64, f64)> {
    let pts: Vec<(f64, f64)> = samples
        .into_iter()
        .filter(|&(c, t)| c >= min_cells && t > 0)
        .map(|(c, t)| ((c as f64).ln(), (t as f64).ln()))
        .collect();
    if pts.len() < 3 {
        return None;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let p = (n * sxy - sx * sy) / denom;
    let logk = (sy - p * sx) / n;
    Some((p, logk.exp()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_formula() {
        let m = RentModel::new(3.5, 0.5);
        assert!((m.terminals(100.0) - 35.0).abs() < 1e-9);
    }

    #[test]
    fn fixed_fraction_decreases_with_block_size() {
        let m = RentModel::new(3.5, 0.68);
        let mut prev = 1.0f64;
        for c in [10.0, 100.0, 1000.0, 10000.0, 100000.0] {
            let f = m.fixed_fraction(c);
            assert!(f < prev, "fraction must strictly decrease");
            prev = f;
        }
    }

    #[test]
    fn threshold_is_tight() {
        for p in [0.47, 0.55, 0.62, 0.68] {
            let m = RentModel::new(3.5, p);
            for t in [0.05, 0.10, 0.20] {
                let c = m.block_size_threshold(t);
                assert!(m.fixed_fraction(c as f64) > t, "p={p} t={t}");
                assert!(m.fixed_fraction((c + 1) as f64) <= t, "p={p} t={t}");
            }
        }
    }

    #[test]
    fn thresholds_ordered() {
        let m = RentModel::new(3.5, 0.68);
        let (a, b, c) = (
            m.block_size_threshold(0.05),
            m.block_size_threshold(0.10),
            m.block_size_threshold(0.20),
        );
        assert!(a > b && b > c, "stricter thresholds need smaller blocks");
    }

    #[test]
    fn table_one_monotone_in_p() {
        let rows = table_one(&[0.47, 0.55, 0.62, 0.68]);
        for w in rows.windows(2) {
            assert!(w[1].c_5pct > w[0].c_5pct);
            assert!(w[1].c_20pct > w[0].c_20pct);
        }
    }

    #[test]
    fn table_one_magnitudes_match_paper_scale() {
        // For p = 0.68, k = 3.5: 20% threshold solves 3.5 C^0.68 = 0.25 C
        // => C = 14^(1/0.32) ≈ 3.8e3. The paper's Table I is built on the
        // same formula, so our row must be in that range.
        let rows = table_one(&[0.68]);
        assert!(rows[0].c_20pct > 2_000 && rows[0].c_20pct < 10_000);
        // 5%: 3.5 C^0.68 = C/19 => C = 66.5^(1/0.32) ≈ 5e5.
        assert!(rows[0].c_5pct > 100_000 && rows[0].c_5pct < 2_000_000);
    }

    #[test]
    fn degenerate_exponent_one() {
        let m = RentModel::new(3.5, 1.0);
        assert_eq!(m.block_size_threshold(0.2), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "rent exponent")]
    fn invalid_exponent_rejected() {
        let _ = RentModel::new(3.5, 1.5);
    }

    #[test]
    fn fit_rejects_degenerate_input() {
        assert!(fit_rent([], 1).is_none());
        assert!(fit_rent([(10, 5); 5], 1).is_none(), "zero variance in x");
    }

    #[test]
    fn fit_recovers_exact_power_law() {
        let samples = (3..12).map(|i| {
            let c = 1usize << i;
            (c, (3.5 * (c as f64).powf(0.6)).round() as usize)
        });
        let (p, k) = fit_rent(samples, 1).unwrap();
        assert!((p - 0.6).abs() < 0.02, "p = {p}");
        assert!((k - 3.5).abs() < 0.5, "k = {k}");
    }
}
