//! Seeded input generation. Inputs depend on the workload seed alone and
//! are written by the benchmark's own writers, never by the code under
//! test, so every commit measured reads byte-identical files. Fixity comes
//! from netgen's pads and native placement, never from a partitioner.

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::Path;

use vlsi_hypergraph::{Hypergraph, VertexId};
use vlsi_netgen::instances::million_cells_scaled;
use vlsi_netgen::Circuit;
use vlsi_rng::seq::SliceRandom;
use vlsi_rng::{mix64, ChaCha8Rng, Rng, SeedableRng};

/// Scale of the `million_cells` preset for the batch circuit: 50,000
/// cells and 3,195 pads.
const BATCH_SCALE: f64 = 0.05;
/// Generator seed of the batch circuit and its placed-fixity subset. The
/// instance is fixed: circuits drawn per seed differed by up to 60% in cut
/// and 30% in job time (macro cells landing on one side), which swamped
/// every run-to-run comparison. The workload seed draws the job list.
const BATCH_CIRCUIT_SEED: u64 = 1999;
/// Share of cells `bisect-placed` also fixes from the native placement.
const PLACED_FIXED: f64 = 0.4;
/// Scale of each service design: 10,000 cells and about 1,200 pads.
const DESIGN_SCALE: f64 = 0.01;
/// Designs in one service script.
const DESIGNS: u64 = 4;
/// Warm-start ECO steps per design; every second one is sent twice, the
/// repeat being answered from the cache.
const WARM_STEPS: usize = 12;
/// Nets removed and nets added by one ECO delta.
const DELTA_NETS: usize = 4;
/// Balance tolerance of every service request.
pub const TOLERANCE: f64 = 0.1;

const PLACED_SALT: u64 = 0x504c_4143_4544; // "PLACED"
const ECO_SALT: u64 = 0x45_434f; // "ECO"

/// Per-vertex fixity: the part a vertex is fixed to, or `None` when free.
type Fixity = Vec<Option<u32>>;

/// Side of the vertical cutline a vertex's native location lies on.
fn side(c: &Circuit, v: VertexId) -> u32 {
    u32::from(c.location(v).x >= c.die.center().x)
}

/// Pads fixed to their side of the vertical cutline; cells free.
fn pad_fixity(c: &Circuit) -> Fixity {
    (0..c.hypergraph.num_vertices())
        .map(|i| {
            let v = VertexId::from_index(i);
            c.is_pad(v).then(|| side(c, v))
        })
        .collect()
}

fn nets_of(hg: &Hypergraph) -> Vec<Vec<u32>> {
    hg.nets()
        .map(|n| hg.net_pins(n).iter().map(|v| v.0).collect())
        .collect()
}

fn weights_of(hg: &Hypergraph) -> Vec<u64> {
    hg.vertices().map(|v| hg.vertex_weight(v)).collect()
}

/// hMetis `.hgr` with vertex weights (format 10), 1-based pins.
fn write_hgr(path: &Path, nets: &[Vec<u32>], weights: &[u64]) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "{} {} 10", nets.len(), weights.len())?;
    for net in nets {
        for (i, p) in net.iter().enumerate() {
            if i > 0 {
                w.write_all(b" ")?;
            }
            write!(w, "{}", p + 1)?;
        }
        w.write_all(b"\n")?;
    }
    for x in weights {
        writeln!(w, "{x}")?;
    }
    w.flush()
}

/// `.fix`: one line per vertex, the part or `-1` for free.
fn write_fix(path: &Path, fixity: &Fixity) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    for f in fixity {
        match f {
            Some(p) => writeln!(w, "{p}")?,
            None => writeln!(w, "-1")?,
        }
    }
    w.flush()
}

/// Writes the inputs of `workload` for `seed` into `dir`. The batch
/// circuit is the same for every seed (see [`BATCH_CIRCUIT_SEED`]).
pub fn generate(workload: &str, seed: u64, dir: &Path) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    if workload == "serve-eco" {
        service_script(seed, dir)
    } else {
        batch_inputs(dir)
    }
}

/// `circuit.hgr` plus two fixity files over it: `pads.fix` (pads only)
/// and `placed.fix` (pads and a seeded 40% of cells).
fn batch_inputs(dir: &Path) -> io::Result<()> {
    let seed = BATCH_CIRCUIT_SEED;
    let c = million_cells_scaled(BATCH_SCALE, seed);
    write_hgr(
        &dir.join("circuit.hgr"),
        &nets_of(&c.hypergraph),
        &weights_of(&c.hypergraph),
    )?;
    let pads = pad_fixity(&c);
    write_fix(&dir.join("pads.fix"), &pads)?;
    let mut cells: Vec<VertexId> = c.cells().collect();
    cells.shuffle(&mut ChaCha8Rng::seed_from_u64(mix64(seed ^ PLACED_SALT)));
    let mut placed = pads;
    let count = (cells.len() as f64 * PLACED_FIXED).round() as usize;
    for &v in &cells[..count] {
        placed[v.index()] = Some(side(&c, v));
    }
    write_fix(&dir.join("placed.fix"), &placed)
}

fn json_list<T: ToString>(xs: &[T]) -> String {
    let items: Vec<String> = xs.iter().map(T::to_string).collect();
    format!("[{}]", items.join(","))
}

fn json_nets(nets: &[Vec<u32>]) -> String {
    let items: Vec<String> = nets.iter().map(|n| json_list(n)).collect();
    format!("[{}]", items.join(","))
}

/// One small ECO net: a random cell and one to three cells whose indices
/// lie close to it.
fn eco_net(rng: &mut ChaCha8Rng, cells: usize) -> Vec<u32> {
    let anchor = rng.gen_range(0..cells);
    let want = 1 + rng.gen_range(1..=3usize);
    let mut pins = vec![anchor as u32];
    while pins.len() < want {
        let p = (anchor as i64 + rng.gen_range(-32i64..=32)).clamp(0, cells as i64 - 1) as u32;
        if !pins.contains(&p) {
            pins.push(p);
        }
    }
    pins
}

/// `script.jsonl`: per design, one cold request (`d{d}v0`), then warm
/// requests `d{d}v{i}` that each carry version `i - 1` of the netlist plus
/// a delta producing version `i`, seeded from the previous answer's
/// solution (`@prev`, filled in by the client). Every second warm request
/// is sent twice. Each version is also written as `d{d}v{i}.hgr`, with the
/// pad fixity in `d{d}.fix`, for the client's referee.
fn service_script(seed: u64, dir: &Path) -> io::Result<()> {
    let mut script = BufWriter::new(File::create(dir.join("script.jsonl"))?);
    for d in 0..DESIGNS {
        let c = million_cells_scaled(DESIGN_SCALE, mix64(seed ^ (d + 1)));
        let weights = weights_of(&c.hypergraph);
        let fixity = pad_fixity(&c);
        write_fix(&dir.join(format!("d{d}.fix")), &fixity)?;
        let fixed_json = json_list(
            &fixity
                .iter()
                .map(|f| f.map_or(-1, i64::from))
                .collect::<Vec<_>>(),
        );
        let vertices_json = json_list(&weights);
        let mut rng = ChaCha8Rng::seed_from_u64(mix64(seed ^ ECO_SALT ^ (d << 8)));
        let job_seed = rng.gen_range(0..1_000_000u64);
        let request = |version: usize, warm: &str, nets: &[Vec<u32>]| {
            format!(
                r#"{{"id":"d{d}v{version}","engine":"ml","k":2,"tolerance":{TOLERANCE},"starts":2,"vcycles":1,"seed":{job_seed},{warm}"fixed":{fixed_json},"hypergraph":{{"vertices":{vertices_json},"nets":{}}}}}"#,
                json_nets(nets)
            )
        };

        let mut nets = nets_of(&c.hypergraph);
        write_hgr(&dir.join(format!("d{d}v0.hgr")), &nets, &weights)?;
        writeln!(script, "{}", request(0, "", &nets))?;
        for version in 1..=WARM_STEPS {
            let mut removed: Vec<usize> = Vec::with_capacity(DELTA_NETS);
            while removed.len() < DELTA_NETS {
                let n = rng.gen_range(0..nets.len());
                if !removed.contains(&n) {
                    removed.push(n);
                }
            }
            removed.sort_unstable();
            let added: Vec<Vec<u32>> = (0..DELTA_NETS)
                .map(|_| eco_net(&mut rng, c.num_cells()))
                .collect();
            let warm = format!(
                r#""warm_start":{{"solution_id":"@prev","delta":{{"removed_nets":{},"added_nets":{}}}}},"#,
                json_list(&removed),
                json_nets(&added)
            );
            let line = request(version, &warm, &nets);
            let mut index = 0;
            nets.retain(|_| {
                index += 1;
                removed.binary_search(&(index - 1)).is_err()
            });
            nets.extend(added);
            write_hgr(&dir.join(format!("d{d}v{version}.hgr")), &nets, &weights)?;
            writeln!(script, "{line}")?;
            if version % 2 == 0 {
                writeln!(script, "{line}")?;
            }
        }
    }
    script.flush()
}
