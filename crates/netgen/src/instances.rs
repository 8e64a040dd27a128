//! Presets mirroring the ISPD-98 circuits used in the paper.
//!
//! The published sizes of the benchmarks (Alpert, ISPD-98):
//!
//! | circuit | cells  | nets   | pads |
//! |---------|--------|--------|------|
//! | IBM01   | 12 506 | 14 111 | 246  |
//! | IBM02   | 19 342 | 19 584 | 259  |
//! | IBM03   | 22 853 | 27 401 | 283  |
//! | IBM04   | 27 220 | 31 970 | 287  |
//! | IBM05   | 28 146 | 28 446 | 1201 |
//!
//! The presets reproduce the cell/pad counts (net counts emerge from the
//! Rent construction and land in the right ballpark). `scaled` presets
//! shrink the instances for fast experiment iterations while preserving
//! the Rent exponent and pad fraction.

use crate::synthetic::{Generator, GeneratorConfig};
use crate::Circuit;

/// Builds the generator configuration for one of the IBM-like presets.
fn preset(name: &str, cells: usize, pads: usize, rent_p: f64, scale: f64) -> GeneratorConfig {
    let s = scale.clamp(0.001, 1.0);
    GeneratorConfig {
        name: if s < 1.0 {
            format!("{name}-s{s:.2}")
        } else {
            name.to_string()
        },
        num_cells: ((cells as f64 * s).round() as usize).max(16),
        num_pads: ((pads as f64 * s).round() as usize).max(4),
        rent_exponent: rent_p,
        pins_per_cell: 3.9,
        ..GeneratorConfig::default()
    }
}

macro_rules! ibm_preset {
    ($full:ident, $scaled:ident, $name:literal, $cells:literal, $pads:literal, $p:literal) => {
        /// Full-size preset (see the module table for the mirrored counts).
        pub fn $full(seed: u64) -> Circuit {
            Generator::new(preset($name, $cells, $pads, $p, 1.0)).generate(seed)
        }

        /// Scaled preset: same Rent exponent and pad fraction, `scale` times
        /// the cell count (clamped to at least 16 cells).
        pub fn $scaled(scale: f64, seed: u64) -> Circuit {
            Generator::new(preset($name, $cells, $pads, $p, scale)).generate(seed)
        }
    };
}

ibm_preset!(
    ibm01_like,
    ibm01_like_scaled,
    "ibm01-like",
    12506,
    246,
    0.60
);
ibm_preset!(
    ibm02_like,
    ibm02_like_scaled,
    "ibm02-like",
    19342,
    259,
    0.62
);
ibm_preset!(
    ibm03_like,
    ibm03_like_scaled,
    "ibm03-like",
    22853,
    283,
    0.64
);
ibm_preset!(
    ibm04_like,
    ibm04_like_scaled,
    "ibm04-like",
    27220,
    287,
    0.62
);
ibm_preset!(
    ibm05_like,
    ibm05_like_scaled,
    "ibm05-like",
    28146,
    1201,
    0.66
);

/// Builds the configuration for a Rent-faithful scale preset: pad count
/// follows Rent's rule (`T = k·n^p`) instead of a published circuit.
fn scale_preset(name: &str, cells: usize, rent_p: f64, scale: f64) -> GeneratorConfig {
    let s = scale.clamp(0.001, 1.0);
    let num_cells = ((cells as f64 * s).round() as usize).max(16);
    let pins_per_cell = 3.9;
    GeneratorConfig {
        name: if s < 1.0 {
            format!("{name}-s{s:.2}")
        } else {
            name.to_string()
        },
        num_cells,
        num_pads: (pins_per_cell * (num_cells as f64).powf(rent_p)).round() as usize,
        rent_exponent: rent_p,
        pins_per_cell,
        ..GeneratorConfig::default()
    }
}

macro_rules! scale_preset {
    ($full:ident, $scaled:ident, $name:literal, $cells:literal, $p:literal) => {
        /// Rent-faithful scale preset, built with the streaming
        /// [`scale`](crate::scale) generator (live state `O(k·n^p)`).
        pub fn $full(seed: u64) -> Circuit {
            crate::scale::build_circuit(&scale_preset($name, $cells, $p, 1.0), seed)
        }

        /// Scaled variant: same Rent exponent, `scale` times the cells
        /// (clamped to at least 16), pads re-derived from Rent's rule.
        pub fn $scaled(scale: f64, seed: u64) -> Circuit {
            crate::scale::build_circuit(&scale_preset($name, $cells, $p, scale), seed)
        }
    };
}

scale_preset!(
    million_cells,
    million_cells_scaled,
    "rent-1m",
    1_000_000,
    0.62
);
scale_preset!(
    ten_million_cells,
    ten_million_cells_scaled,
    "rent-10m",
    10_000_000,
    0.62
);

/// Looks a preset up by name (`"ibm01"`…`"ibm05"`), at the given scale.
///
/// Returns `None` for unknown names.
///
/// # Example
/// ```
/// use vlsi_netgen::instances::by_name;
/// let c = by_name("ibm01", 0.1, 7).unwrap();
/// assert!(c.num_cells() > 1000);
/// assert!(by_name("ibm99", 1.0, 7).is_none());
/// ```
pub fn by_name(name: &str, scale: f64, seed: u64) -> Option<Circuit> {
    match name {
        "ibm01" | "ibm01-like" => Some(ibm01_like_scaled(scale, seed)),
        "ibm02" | "ibm02-like" => Some(ibm02_like_scaled(scale, seed)),
        "ibm03" | "ibm03-like" => Some(ibm03_like_scaled(scale, seed)),
        "ibm04" | "ibm04-like" => Some(ibm04_like_scaled(scale, seed)),
        "ibm05" | "ibm05-like" => Some(ibm05_like_scaled(scale, seed)),
        "1m" | "1M" | "rent-1m" => Some(million_cells_scaled(scale, seed)),
        "10m" | "10M" | "rent-10m" => Some(ten_million_cells_scaled(scale, seed)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ibm01_counts_match_published() {
        let c = ibm01_like_scaled(1.0, 1);
        assert_eq!(c.num_cells(), 12506);
        assert_eq!(c.num_pads(), 246);
        // Net count should land in the ballpark of the published 14111.
        let nets = c.hypergraph.num_nets();
        assert!((8_000..26_000).contains(&nets), "ibm01-like nets = {nets}");
    }

    #[test]
    fn pads_below_one_percent() {
        // The paper: "the number of I/Os is typically very small (less than
        // one percent of all vertices)".
        for c in [ibm01_like_scaled(0.2, 2), ibm03_like_scaled(0.2, 3)] {
            let frac = c.num_pads() as f64 / c.hypergraph.num_vertices() as f64;
            assert!(frac < 0.03, "{}: pad fraction {frac}", c.name);
        }
    }

    #[test]
    fn scaled_preserves_name_tagging() {
        let c = ibm02_like_scaled(0.5, 0);
        assert!(c.name.starts_with("ibm02-like-s0.50"));
        let f = ibm02_like(0);
        assert_eq!(f.name, "ibm02-like");
    }

    #[test]
    fn by_name_variants() {
        assert!(by_name("ibm04", 0.05, 1).is_some());
        assert!(by_name("ibm05-like", 0.05, 1).is_some());
        assert!(by_name("nope", 1.0, 1).is_none());
    }

    #[test]
    fn scale_presets_resolve_and_follow_rent() {
        // 1% of the 1M preset = 10k cells — big enough to check the shape
        // without slowing the suite down.
        let c = by_name("1M", 0.01, 5).unwrap();
        assert_eq!(c.num_cells(), 10_000);
        assert!(c.name.starts_with("rent-1m-s0.01"));
        // Pads track Rent's rule, not a fixed published count.
        let expect = 3.9 * 10_000f64.powf(0.62);
        let pads = c.num_pads() as f64;
        assert!(
            (pads - expect).abs() < expect * 0.5,
            "pads {pads} vs Rent {expect}"
        );
        assert!(by_name("10m", 0.001, 5).is_some());
    }

    #[test]
    fn scale_clamps() {
        let c = ibm01_like_scaled(0.0, 1);
        assert!(c.num_cells() >= 16);
        assert!(c.num_pads() >= 4);
    }
}
