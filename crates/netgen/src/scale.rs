//! The hierarchical Rent construction behind every netgen circuit, with
//! *emit-on-close* nets.
//!
//! One recursion (`stream_nets`) builds a balanced binary hierarchy over
//! the cells. Each leaf cell exposes ~`k` open pins. When two sibling
//! blocks of combined size `C` merge, Rent's rule says the combined block
//! should expose only `T = k·C^p` terminals, so the surplus open endpoints
//! are *consumed* by creating nets that join the two sides (or by extending
//! nets that already reach the boundary). Endpoints remaining at the root
//! are attached to boundary pads. Because the same recursion assigns each
//! block a rectangle of the die, the placement has exactly the spatial
//! locality the connectivity implies — which is what the paper's Section
//! IV block-extraction methodology needs.
//!
//! Nets live in a slab only while an open endpoint can still extend them;
//! the moment one closes it is handed to a sink, with its creation index,
//! and its slot recycled. Rent's rule bounds the open endpoints to
//! `O(k·n^p)` (tens of thousands at 10^7 cells, not tens of millions), so
//! the live netlist state stays tiny however large the circuit is — the
//! sink decides what, if anything, to retain. There are two sinks:
//!
//! * [`build_circuit`] feeds a [`HypergraphBuilder`] in close order, so its
//!   only full-size allocations are the final CSR arenas and the placement
//!   (the million-cell scale presets);
//! * [`Generator::generate`](crate::synthetic::Generator::generate) stores
//!   the nets by creation index and builds them in that order (the IBM-like
//!   presets).

use vlsi_rng::seq::SliceRandom;
use vlsi_rng::ChaCha8Rng;
use vlsi_rng::Rng;
use vlsi_rng::SeedableRng;

use vlsi_hypergraph::{Hypergraph, HypergraphBuilder, VertexId};

use crate::circuit::Circuit;
use crate::geometry::{Point, Rect};
use crate::synthetic::GeneratorConfig;

/// Only hierarchy blocks of at least this many cells contribute a Rent
/// sample, keeping the stats `O(n / 32)` instead of `O(n)`.
const RENT_SAMPLE_MIN_BLOCK: usize = 32;

/// Observations from one run of the construction.
#[derive(Debug, Clone, Default)]
pub(crate) struct StreamStats {
    /// Pads the root endpoints were attached to, in turn:
    /// `min(num_pads, max(endpoints, 1))`.
    pub(crate) pads: usize,
    /// High-water mark of simultaneously open nets — the live netlist
    /// state, `O(k·n^p)` by construction.
    pub(crate) max_open_nets: usize,
    /// `(block_size, external_terminals)` for hierarchy blocks of at
    /// least `RENT_SAMPLE_MIN_BLOCK` cells.
    pub(crate) rent_samples: Vec<(usize, usize)>,
}

/// An open connection endpoint of a block.
#[derive(Debug, Clone, Copy)]
enum Endpoint {
    /// An unconnected pin of a cell.
    Pin(u32),
    /// A slab slot holding a net that still reaches the block boundary.
    Net(u32),
}

/// The die of an `n`-cell circuit: the square `[0, ceil(sqrt(n))]²`.
fn die(num_cells: usize) -> Rect {
    let side = (num_cells as f64).sqrt().ceil().max(1.0);
    Rect::new(0.0, 0.0, side, side)
}

/// Runs the construction of `cfg` on `rng`: writes the native leaf
/// placement of cell `i` to `placement[i]` and hands every net to `sink`
/// exactly once, when it closes, with its creation index (nets are
/// numbered `0..` in the order they are created). Every net has ≥ 2
/// distinct pins: cells in `0..num_cells`, pads from `num_cells` on.
///
/// # Panics
/// Panics if `cfg.num_cells == 0`, `cfg.leaf_size == 0`, or `placement`
/// is not `num_cells` long.
pub(crate) fn stream_nets<F: FnMut(usize, &[u32])>(
    cfg: &GeneratorConfig,
    rng: &mut ChaCha8Rng,
    placement: &mut [Point],
    mut sink: F,
) -> StreamStats {
    assert!(cfg.num_cells > 0, "need at least one cell");
    assert!(cfg.leaf_size > 0, "leaf size must be positive");
    let n = cfg.num_cells;
    assert_eq!(placement.len(), n, "one placement slot per cell");
    let mut st = StreamState {
        cfg,
        rng,
        open: Vec::new(),
        free: Vec::new(),
        created: 0,
        sink: &mut sink,
        placement,
        stats: StreamStats::default(),
    };
    let mut endpoints = st.build_block(0, n as u32, die(n), 0);

    // Attach remaining endpoints to pads on the die boundary, in turn,
    // closing the nets they kept open. With no pads they stay unattached.
    let pads = cfg.num_pads.min(endpoints.len().max(1));
    endpoints.shuffle(st.rng);
    for (i, ep) in endpoints.into_iter().enumerate() {
        let pad = (pads > 0).then(|| (n + i % pads) as u32);
        match (ep, pad) {
            (Endpoint::Pin(cell), Some(pad)) => st.emit(&[cell, pad]),
            (Endpoint::Pin(_), None) => {}
            (Endpoint::Net(slot), pad) => {
                let pins = &mut st.open[slot as usize].1;
                if let Some(pad) = pad.filter(|pad| !pins.contains(pad)) {
                    pins.push(pad);
                }
                st.close(slot);
            }
        }
    }
    debug_assert_eq!(st.free.len(), st.open.len(), "all nets closed");
    st.stats.pads = pads;
    st.stats
}

/// Walks a distance `d` along the perimeter of `r` counter-clockwise from
/// the bottom-left corner.
fn perimeter_point(r: &Rect, d: f64) -> Point {
    let (w, h) = (r.width(), r.height());
    let d = d % (2.0 * (w + h));
    if d < w {
        Point::new(r.x0 + d, r.y0)
    } else if d < w + h {
        Point::new(r.x1, r.y0 + (d - w))
    } else if d < 2.0 * w + h {
        Point::new(r.x1 - (d - w - h), r.y1)
    } else {
        Point::new(r.x0, r.y1 - (d - 2.0 * w - h))
    }
}

struct StreamState<'a, F: FnMut(usize, &[u32])> {
    cfg: &'a GeneratorConfig,
    rng: &'a mut ChaCha8Rng,
    /// Slab of open nets with their creation indices; closed slots are
    /// recycled through `free`.
    open: Vec<(usize, Vec<u32>)>,
    free: Vec<u32>,
    /// Nets created so far: the next net's creation index.
    created: usize,
    sink: &'a mut F,
    placement: &'a mut [Point],
    stats: StreamStats,
}

impl<F: FnMut(usize, &[u32])> StreamState<'_, F> {
    /// Creates a net that is finished at once and hands it to the sink.
    fn emit(&mut self, pins: &[u32]) {
        self.created += 1;
        (self.sink)(self.created - 1, pins);
    }

    /// Opens a fresh 2-pin net in the slab, reusing a free slot.
    fn open_net(&mut self, a: u32, b: u32) -> u32 {
        let id = self.created;
        self.created += 1;
        if let Some(slot) = self.free.pop() {
            let (net_id, pins) = &mut self.open[slot as usize];
            *net_id = id;
            pins.extend([a, b]);
            slot
        } else {
            self.open.push((id, vec![a, b]));
            let live = self.open.len() - self.free.len();
            self.stats.max_open_nets = self.stats.max_open_nets.max(live);
            (self.open.len() - 1) as u32
        }
    }

    /// Closes an open net: hands it to the sink and recycles the slot.
    fn close(&mut self, slot: u32) {
        let (id, pins) = &mut self.open[slot as usize];
        (self.sink)(*id, pins);
        pins.clear();
        self.free.push(slot);
    }

    /// Recursively builds the block of cells `[lo, hi)` inside `rect`,
    /// returning its open endpoints.
    fn build_block(&mut self, lo: u32, hi: u32, rect: Rect, depth: usize) -> Vec<Endpoint> {
        let count = (hi - lo) as usize;
        if count <= self.cfg.leaf_size {
            return self.build_leaf(lo, hi, rect);
        }
        let mid = lo + (hi - lo) / 2;
        let (ra, rb) = if depth.is_multiple_of(2) {
            rect.split_vertical()
        } else {
            rect.split_horizontal()
        };
        let mut left = self.build_block(lo, mid, ra, depth + 1);
        let mut right = self.build_block(mid, hi, rb, depth + 1);

        let t_target = (self.cfg.pins_per_cell * (count as f64).powf(self.cfg.rent_exponent))
            .round()
            .max(1.0) as usize;
        let have = left.len() + right.len();
        let mut to_consume = have.saturating_sub(t_target);
        let mut merged: Vec<Endpoint> = Vec::with_capacity(t_target + 2);

        while to_consume > 0 && !left.is_empty() && !right.is_empty() {
            let el = take_random(&mut left, self.rng);
            let er = take_random(&mut right, self.rng);
            let consumed = self.join(el, er, &mut merged);
            to_consume = to_consume.saturating_sub(consumed);
        }
        merged.extend(left);
        merged.extend(right);
        // If still over budget (one side ran dry), silently keep the extra
        // endpoints — the realised Rent exponent simply ends up a bit higher.
        if count >= RENT_SAMPLE_MIN_BLOCK {
            self.stats.rent_samples.push((count, merged.len()));
        }
        merged
    }

    /// Joins one endpoint from each side, pushing any surviving endpoint
    /// onto `merged`, and returns how many endpoints were consumed. Nets
    /// that lose their last endpoint are closed on the spot.
    fn join(&mut self, el: Endpoint, er: Endpoint, merged: &mut Vec<Endpoint>) -> usize {
        use Endpoint::*;
        let keep_open = self.rng.gen_bool(self.cfg.keep_open_probability);
        match (el, er) {
            (Pin(a), Pin(b)) => {
                if keep_open {
                    let slot = self.open_net(a, b);
                    merged.push(Net(slot));
                    1
                } else {
                    self.emit(&[a, b]);
                    2
                }
            }
            (Pin(a), Net(n)) | (Net(n), Pin(a)) => {
                let extend = self.rng.gen_bool(self.cfg.extend_probability);
                if extend {
                    let pins = &mut self.open[n as usize].1;
                    if !pins.contains(&a) {
                        pins.push(a);
                    }
                    if keep_open {
                        merged.push(Net(n));
                        1
                    } else {
                        self.close(n);
                        2
                    }
                } else {
                    // Keep the net open, spend the pin on a fresh 2-pin net
                    // with a random member of the net (local connection).
                    let other = *self.open[n as usize]
                        .1
                        .as_slice()
                        .choose(self.rng)
                        .expect("open nets are non-empty");
                    if other != a {
                        self.emit(&[a, other]);
                    }
                    merged.push(Net(n));
                    1
                }
            }
            (Net(n1), Net(n2)) => {
                // Keep one of the two boundary nets open at random; the
                // other can never grow again, so it is done.
                if self.rng.gen_bool(0.5) {
                    merged.push(Net(n1));
                    self.close(n2);
                } else {
                    merged.push(Net(n2));
                    self.close(n1);
                }
                1
            }
        }
    }

    /// Builds a leaf block: places its cells in `rect` and exposes ~k open
    /// pins per cell.
    fn build_leaf(&mut self, lo: u32, hi: u32, rect: Rect) -> Vec<Endpoint> {
        let count = (hi - lo) as usize;
        let cols = (count as f64).sqrt().ceil() as usize;
        let rows = count.div_ceil(cols.max(1));
        for (i, cell) in (lo..hi).enumerate() {
            let (r, c) = (i / cols, i % cols);
            let x = rect.x0 + rect.width() * (c as f64 + 0.5) / cols as f64;
            let y = rect.y0 + rect.height() * (r as f64 + 0.5) / rows.max(1) as f64;
            self.placement[cell as usize] = Point::new(x, y);
        }
        let k = self.cfg.pins_per_cell;
        let base = k.floor() as usize;
        let frac = k - base as f64;
        let mut endpoints = Vec::with_capacity(count * (base + 1));
        for cell in lo..hi {
            let pins = base + usize::from(self.rng.gen_bool(frac));
            for _ in 0..pins {
                endpoints.push(Endpoint::Pin(cell));
            }
        }
        endpoints
    }
}

/// Removes and returns a uniformly random element of `v`.
fn take_random<T>(v: &mut Vec<T>, rng: &mut ChaCha8Rng) -> T {
    let i = rng.gen_range(0..v.len());
    v.swap_remove(i)
}

/// Wraps a generated netlist into the circuit of `cfg`: appends `pads`
/// positions, evenly spaced along the die's perimeter, to the cells'
/// `placement`.
pub(crate) fn finish_circuit(
    cfg: &GeneratorConfig,
    hypergraph: Hypergraph,
    mut placement: Vec<Point>,
    pads: usize,
) -> Circuit {
    let die = die(cfg.num_cells);
    let perimeter = 2.0 * (die.width() + die.height());
    placement.extend((0..pads).map(|i| perimeter_point(&die, perimeter * i as f64 / pads as f64)));
    Circuit {
        name: cfg.name.clone(),
        hypergraph,
        placement,
        pad_offset: cfg.num_cells,
        die,
        target_rent_exponent: cfg.rent_exponent,
    }
}

/// Builds a full [`Circuit`] by streaming the netlist straight into a
/// [`HypergraphBuilder`], nets in the order they close, with all
/// `cfg.num_pads` pad vertices — the only `O(n)` allocations are the final
/// CSR arenas, the cell areas and the placement.
///
/// # Panics
/// Panics if `cfg.num_cells == 0` or `cfg.leaf_size == 0`, or if the
/// circuit would exceed the `u32` pin-arena range.
pub fn build_circuit(cfg: &GeneratorConfig, seed: u64) -> Circuit {
    let n = cfg.num_cells;
    // Areas come from an rng stream independent of the netlist recursion so
    // connectivity is a function of (cfg, seed) alone.
    let mut area_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let areas = cfg.areas.sample(&mut area_rng, n);

    let expected_pins = (n as f64 * cfg.pins_per_cell * 1.25) as usize;
    let mut builder = HypergraphBuilder::with_capacity(n + cfg.num_pads, n, expected_pins);
    for &a in &areas {
        builder.add_vertex(a);
    }
    drop(areas);
    for _ in 0..cfg.num_pads {
        builder.add_vertex(0);
    }

    let mut placement = Vec::with_capacity(n + cfg.num_pads);
    placement.resize(n, Point::default());
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    stream_nets(cfg, &mut rng, &mut placement, |_, pins| {
        builder
            .add_net(1, pins.iter().copied().map(VertexId))
            .expect("streaming generator stays within the pin arena");
    });
    let hypergraph = builder.build().expect("streaming generator is valid");
    finish_circuit(cfg, hypergraph, placement, cfg.num_pads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rent::fit_rent;

    fn cfg(cells: usize, p: f64) -> GeneratorConfig {
        GeneratorConfig {
            name: "scale-test".into(),
            num_cells: cells,
            rent_exponent: p,
            num_pads: (3.8 * (cells as f64).powf(p)).round() as usize,
            ..GeneratorConfig::default()
        }
    }

    /// Runs the construction of `cfg` from `seed` into `sink`.
    fn stream<F: FnMut(usize, &[u32])>(cfg: &GeneratorConfig, seed: u64, sink: F) -> StreamStats {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut placement = vec![Point::default(); cfg.num_cells];
        stream_nets(cfg, &mut rng, &mut placement, sink)
    }

    #[test]
    fn every_net_emitted_once_and_closed() {
        let mut ids = Vec::new();
        stream(&cfg(5000, 0.62), 3, |id, ps| {
            assert!(ps.len() >= 2);
            let mut sorted = ps.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), ps.len(), "duplicate pin in emitted net");
            ids.push(id);
        });
        let nets = ids.len();
        assert!(nets > 2500, "too few nets: {nets}");
        // The creation indices are exactly 0..nets, each handed over once.
        ids.sort_unstable();
        assert!(ids.into_iter().eq(0..nets));
    }

    #[test]
    fn open_state_is_sublinear() {
        // The whole point: live netlist state tracks k·n^p, not n.
        let c = cfg(100_000, 0.62);
        let mut nets = 0usize;
        let stats = stream(&c, 7, |_, _| nets += 1);
        let rent_bound = (c.pins_per_cell * (c.num_cells as f64).powf(c.rent_exponent)) as usize;
        assert!(
            stats.max_open_nets < 4 * rent_bound,
            "open high-water {} vs Rent bound {rent_bound}",
            stats.max_open_nets
        );
        assert!(
            stats.max_open_nets * 20 < nets,
            "open high-water {} should be far below total {nets}",
            stats.max_open_nets
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let collect = |seed| {
            let mut v: Vec<(usize, Vec<u32>)> = Vec::new();
            stream(&cfg(2000, 0.6), seed, |id, ps| v.push((id, ps.to_vec())));
            v
        };
        assert_eq!(collect(9), collect(9));
        assert_ne!(collect(9), collect(10));
    }

    #[test]
    fn realised_rent_exponent_tracks_target() {
        for &p in &[0.55, 0.68] {
            let stats = stream(&cfg(32_768, p), 5, |_, _| {});
            let (fitted, _) = fit_rent(stats.rent_samples, 64).expect("enough samples");
            assert!((fitted - p).abs() < 0.12, "target {p}, fitted {fitted}");
        }
    }

    #[test]
    fn build_circuit_shape_and_placement() {
        let c = build_circuit(&cfg(4096, 0.62), 11);
        assert_eq!(c.num_cells(), 4096);
        assert!(c.num_pads() > 0);
        for pad in c.pads() {
            assert_eq!(c.hypergraph.vertex_weight(pad), 0);
        }
        for cell in c.cells() {
            assert!(c.die.contains(c.location(cell)), "cell off-die");
        }
        let avg_pins = c
            .cells()
            .map(|v| c.hypergraph.vertex_degree(v))
            .sum::<usize>() as f64
            / c.num_cells() as f64;
        assert!(
            (2.0..=4.5).contains(&avg_pins),
            "avg pins per cell {avg_pins}"
        );
        let giant = vlsi_hypergraph::largest_component_size(&c.hypergraph);
        assert!(giant as f64 > 0.95 * c.hypergraph.num_vertices() as f64);
    }

    #[test]
    fn build_circuit_deterministic() {
        let a = build_circuit(&cfg(1500, 0.6), 2);
        let b = build_circuit(&cfg(1500, 0.6), 2);
        assert_eq!(a.hypergraph, b.hypergraph);
    }

    #[test]
    fn perimeter_point_walks_all_edges() {
        let r = Rect::new(0.0, 0.0, 4.0, 2.0);
        assert_eq!(perimeter_point(&r, 0.0), Point::new(0.0, 0.0));
        assert_eq!(perimeter_point(&r, 4.0), Point::new(4.0, 0.0));
        assert_eq!(perimeter_point(&r, 6.0), Point::new(4.0, 2.0));
        assert_eq!(perimeter_point(&r, 10.0), Point::new(0.0, 2.0));
        assert_eq!(perimeter_point(&r, 11.0), Point::new(0.0, 1.0));
    }
}
