//! Closing the loop on Table I: does a *real* top-down placement run
//! produce bisection instances whose fixed fractions match Rent's-rule
//! expectations?
//!
//! The paper derives Table I analytically ("this corresponds to a
//! partitioning instance of `C + T` vertices, of which `T` are fixed") and
//! argues that placement-generated instances live deep in the
//! fixed-terminals regime. Here we instrument the placer, bucket its
//! bisection instances by movable-vertex count, and report measured fixed
//! fractions next to the [`vlsi_netgen::rent::RentModel`] prediction.

use vlsi_rng::ChaCha8Rng;
use vlsi_rng::SeedableRng;

use vlsi_netgen::rent::RentModel;
use vlsi_netgen::Circuit;
use vlsi_partition::PartitionError;
use vlsi_placer::{PlacerConfig, TopDownPlacer};

use crate::report::{fmt_f64, Table};

/// One size bucket of placement-generated bisection instances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchyRow {
    /// Lower bound (inclusive) of the movable-count bucket.
    pub bucket_lo: usize,
    /// Upper bound (exclusive).
    pub bucket_hi: usize,
    /// Number of bisection instances in the bucket.
    pub instances: usize,
    /// Mean measured fixed fraction of the instances.
    pub measured_fixed_fraction: f64,
    /// Rent's-rule prediction at the bucket's geometric-mean size.
    pub predicted_fixed_fraction: f64,
}

/// Instrumented placer run: returns `(movables, terminals)` per bisection.
///
/// # Errors
/// Propagates placement failures.
pub fn collect_bisection_profile(
    circuit: &Circuit,
    config: &PlacerConfig,
    seed: u64,
) -> Result<Vec<(usize, usize)>, PartitionError> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let placement = TopDownPlacer::new(config.clone()).place_circuit(circuit, &mut rng)?;
    Ok(placement.bisections)
}

/// Buckets a bisection profile by movable count (powers of two) and
/// compares against the Rent model.
pub fn bucket_profile(profile: &[(usize, usize)], model: &RentModel) -> Vec<HierarchyRow> {
    let mut rows = Vec::new();
    let mut lo = 8usize;
    while lo <= profile.iter().map(|&(m, _)| m).max().unwrap_or(0) {
        let hi = lo * 2;
        let in_bucket: Vec<&(usize, usize)> = profile
            .iter()
            .filter(|&&(m, _)| m >= lo && m < hi)
            .collect();
        if !in_bucket.is_empty() {
            let measured = in_bucket
                .iter()
                .map(|&&(m, t)| t as f64 / (m + t) as f64)
                .sum::<f64>()
                / in_bucket.len() as f64;
            let mid = (lo as f64 * hi as f64).sqrt();
            rows.push(HierarchyRow {
                bucket_lo: lo,
                bucket_hi: hi,
                instances: in_bucket.len(),
                measured_fixed_fraction: measured,
                predicted_fixed_fraction: model.fixed_fraction(mid),
            });
        }
        lo = hi;
    }
    rows
}

/// Renders the hierarchy comparison.
pub fn render(circuit: &str, rows: &[HierarchyRow]) -> Table {
    let mut t = Table::new(vec![
        "circuit".into(),
        "block size".into(),
        "instances".into(),
        "measured fixed%".into(),
        "Rent predicted%".into(),
    ]);
    for r in rows {
        t.row(vec![
            circuit.into(),
            format!("{}..{}", r.bucket_lo, r.bucket_hi),
            r.instances.to_string(),
            fmt_f64(100.0 * r.measured_fixed_fraction, 1),
            fmt_f64(100.0 * r.predicted_fixed_fraction, 1),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_netgen::instances::ibm01_like_scaled;
    use vlsi_partition::MultilevelConfig;

    #[test]
    fn placement_instances_track_rent_expectations() {
        let circuit = ibm01_like_scaled(0.05, 13);
        let config = PlacerConfig {
            ml_config: MultilevelConfig {
                coarsest_size: 30,
                coarse_starts: 2,
                ..MultilevelConfig::default()
            },
            ..PlacerConfig::default()
        };
        let profile = collect_bisection_profile(&circuit, &config, 5).unwrap();
        assert!(!profile.is_empty());
        let model = RentModel::new(3.9, circuit.target_rent_exponent);
        let rows = bucket_profile(&profile, &model);
        assert!(!rows.is_empty());
        // Smaller blocks have larger fixed fractions (the Table I shape).
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        assert!(
            first.measured_fixed_fraction > last.measured_fixed_fraction,
            "fixed fraction should fall with block size: {} vs {}",
            first.measured_fixed_fraction,
            last.measured_fixed_fraction
        );
        // And the measured fractions are in the same regime as predicted:
        // within a factor of ~3 on the mid buckets. The largest bucket is
        // excluded: it holds the die-level bisections, whose only terminals
        // are the I/O pads — Rent's rule models terminals of *interior*
        // blocks and structurally overpredicts at the root.
        for r in rows.iter().take(rows.len() - 1) {
            if r.instances >= 4 && r.predicted_fixed_fraction > 0.05 {
                let ratio = r.measured_fixed_fraction / r.predicted_fixed_fraction;
                assert!(
                    (0.2..5.0).contains(&ratio),
                    "bucket {}..{}: measured {} vs predicted {}",
                    r.bucket_lo,
                    r.bucket_hi,
                    r.measured_fixed_fraction,
                    r.predicted_fixed_fraction
                );
            }
        }
    }

    #[test]
    fn bucketing_math() {
        let profile = vec![(10, 10), (12, 4), (100, 10)];
        let model = RentModel::new(3.5, 0.6);
        let rows = bucket_profile(&profile, &model);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].instances, 2);
        assert!((rows[0].measured_fixed_fraction - (0.5 + 0.25) / 2.0).abs() < 1e-12);
    }
}
