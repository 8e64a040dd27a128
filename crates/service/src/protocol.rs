//! Wire protocol: line-delimited JSON requests and responses.
//!
//! Every request is one JSON object on one line; every response is one
//! JSON object on one line. Responses carry the request `id`, so a client
//! may pipeline requests and match answers out of order (jobs finish in
//! worker order, not submission order).
//!
//! # Requests
//!
//! A **job** request (all fields except `id` and the hypergraph optional):
//!
//! ```json
//! {"id":"j1","engine":"ml","k":2,"tolerance":0.1,"starts":4,"threads":2,
//!  "seed":7,"deadline_ms":5000,
//!  "hypergraph":{"vertices":[1,1,1,1],"nets":[[0,1],{"w":2,"pins":[2,3]}]},
//!  "fixed":[0,-1,-1,1]}
//! ```
//!
//! `vertices` lists per-vertex weights; each net is either a plain pin
//! array (weight 1) or `{"w":W,"pins":[...]}`. `fixed` maps each vertex to
//! a part id or `-1` for free. Instead of an inline `hypergraph`, a
//! request may name on-disk files: `"hypergraph_path":"x.hgr"` (hMETIS
//! format) with optional `"fixed_path":"x.fix"`.
//!
//! Optional extras on a job request:
//!
//! * `"vcycles":N` runs up to `N` iterated-multilevel V-cycles over the
//!   best start (default 0); `"ensemble":true` additionally recombines the
//!   agreement clusters of the top starts into a final constrained solve.
//!   Both participate in the solution-cache key, so a plain run never
//!   answers a quality-phase request (or vice versa).
//! * `"priority":"interactive"|"batch"` picks the queue lane
//!   ([`Lane`], default `batch`); interactive jobs are dequeued first.
//! * `"warm_start":{"solution_id":"s...","delta":{...}}` asks the server
//!   to seed refinement from a previously returned solution instead of
//!   partitioning from scratch. The optional `delta` **edits the
//!   request's own instance at ingress**: `"removed_nets":[idx,...]`
//!   drops nets by index, `"added_nets":[...]` appends nets (same shape
//!   as `hypergraph.nets`), and `"moved_fixed":[[vertex,part|-1],...]`
//!   re-pins vertices. The vertex set and every vertex's weight vector
//!   are unchanged by a delta. When the named solution has been evicted,
//!   the job silently falls back to a cold run and the response carries
//!   `"warm":"miss"`.
//!
//! **Control** requests: `{"op":"metrics"}` returns a metrics snapshot,
//! `{"op":"shutdown"}` drains the queue and stops the server.
//!
//! # Responses
//!
//! ```json
//! {"id":"j1","status":"ok","cut":3,"km1":3,"parts":[0,0,1,1],
//!  "cache_hit":false,"deadline_expired":false,"starts_run":4,"micros":812,
//!  "solution_id":"s00c0ffee00c0ffee"}
//! {"id":"j9","status":"error","code":"bad_request","message":"..."}
//! ```
//!
//! `solution_id` names the cached solution for later `warm_start`
//! requests; `"warm":"hit"|"miss"` appears on warm-start jobs.
//!
//! Every error code the service can emit is listed in [`ERROR_CODES`] and
//! documented in `docs/PROTOCOL.md` (the complete wire reference).

use std::borrow::Cow;
use std::fs::File;
use std::io::BufReader;

use vlsi_hypergraph::{
    io::{read_fix, read_hgr},
    BuildError, FixedVertices, Fixity, Hypergraph, HypergraphBuilder, NetId, Objective,
    PartCapacities, PartId, PartSet, VertexId,
};

use crate::json::{self, Doc, Elems, Value};
use crate::queue::Lane;

/// Upper bound on `k` — [`PartSet`] packs allowed parts into a 64-bit mask.
pub const MAX_PARTS: usize = PartSet::MAX_PARTS;

/// Every error code a response line can carry, in the order
/// `docs/PROTOCOL.md` documents them. `protocol_doc` tests keep the doc
/// table and this list in lockstep.
pub const ERROR_CODES: &[&str] = &[
    "bad_json",
    "bad_request",
    "unknown_engine",
    "infeasible",
    "too_large",
    "queue_closed",
    "overloaded",
    "rate_limited",
    "internal_error",
    "infeasible_capacities",
];

/// Upper bound on resource dimensions a request may carry. The FPGA
/// exemplar balances 8 resource types; 16 leaves headroom while bounding
/// per-vertex memory at ingress.
pub const MAX_RESOURCE_DIMS: usize = 16;

/// A fully validated partitioning job, ready for a worker.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Client-chosen identifier echoed in the response.
    pub id: String,
    /// Canonical engine name (validated against the registry).
    pub engine: String,
    /// Number of parts (2..=[`MAX_PARTS`]).
    pub k: usize,
    /// Relative balance tolerance (≥ 0, finite).
    pub tolerance: f64,
    /// Independent multistart attempts (≥ 1).
    pub starts: usize,
    /// Worker threads for the multistart driver (≥ 1).
    pub threads: usize,
    /// Base RNG seed; start `i` uses `seed + i`.
    pub seed: u64,
    /// Iterated-multilevel V-cycles applied to the best start (0 = off).
    pub vcycles: usize,
    /// Ensemble recombination over the retained top starts.
    pub ensemble: bool,
    /// Wall-clock budget in milliseconds; `None` = no deadline.
    pub deadline_ms: Option<u64>,
    /// Queue lane this job rides ([`Lane::Batch`] unless the request says
    /// `"priority":"interactive"`).
    pub priority: Lane,
    /// Solution id to warm-start from, when the request carried a
    /// `warm_start` clause. Any delta has already been applied to `hg` /
    /// `fixed` at parse time.
    pub warm_from: Option<String>,
    /// Objective the k-way engines optimise (`"cut"` default, `"km1"` for
    /// connectivity). Bipartitioning engines ignore it (the objectives
    /// coincide at `k = 2`).
    pub objective: Objective,
    /// Per-part capacity vectors, when the request carried
    /// `part_capacities`; `None` = uniform even split under `tolerance`.
    /// Feasibility against the instance's resource totals was checked at
    /// ingress.
    pub part_capacities: Option<PartCapacities>,
    /// The instance (post-delta, when warm-starting).
    pub hg: Hypergraph,
    /// Per-vertex fixity constraints (post-delta, when warm-starting).
    pub fixed: FixedVertices,
}

/// One parsed request line.
#[derive(Debug, PartialEq)]
pub enum Request {
    /// A partitioning job.
    Job(Box<JobRequest>),
    /// Metrics snapshot query.
    Metrics,
    /// Graceful shutdown.
    Shutdown,
}

/// A structured protocol error, rendered as an error response line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// The request id, when it could be recovered from the input.
    pub id: Option<String>,
    /// Stable machine-readable code (`bad_json`, `bad_request`, ...).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ProtocolError {
    fn new(id: Option<String>, code: &'static str, message: impl Into<String>) -> Self {
        ProtocolError {
            id,
            code,
            message: message.into(),
        }
    }

    /// Renders the error as a one-line JSON response.
    pub fn to_line(&self) -> String {
        let mut out = String::from("{");
        if let Some(id) = &self.id {
            out.push_str("\"id\":");
            out.push_str(&json::quote(id));
            out.push(',');
        }
        out.push_str("\"status\":\"error\",\"code\":");
        out.push_str(&json::quote(self.code));
        out.push_str(",\"message\":");
        out.push_str(&json::quote(&self.message));
        out.push('}');
        out
    }
}

/// A successful job response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResponse {
    /// Echo of the request id.
    pub id: String,
    /// Cut value of the returned partition.
    pub cut: u64,
    /// Connectivity (λ−1) value of the returned partition. Equal to `cut`
    /// for `k = 2`; `>= cut` otherwise.
    pub km1: u64,
    /// Per-vertex part assignment.
    pub parts: Vec<u32>,
    /// Whether the solution came from the content-addressed cache.
    pub cache_hit: bool,
    /// Whether the deadline fired and this is a best-so-far solution.
    pub deadline_expired: bool,
    /// Multistart attempts that actually ran (≤ requested when cancelled).
    pub starts_run: usize,
    /// Wall-clock service time in microseconds.
    pub micros: u64,
    /// Cache id of this solution, usable in later `warm_start` requests.
    /// Absent when the solution was not cached (e.g. the deadline fired).
    pub solution_id: Option<String>,
    /// `"hit"` when the job refined from the named warm-start seed,
    /// `"miss"` when the seed was gone and the job fell back to a cold
    /// run; absent on plain cold jobs.
    pub warm: Option<&'static str>,
}

impl JobResponse {
    /// Renders the response as a one-line JSON object.
    pub fn to_line(&self) -> String {
        let mut out = String::with_capacity(64 + 4 * self.parts.len());
        out.push_str("{\"id\":");
        out.push_str(&json::quote(&self.id));
        out.push_str(&format!(
            ",\"status\":\"ok\",\"cut\":{},\"km1\":{},\"parts\":[",
            self.cut, self.km1
        ));
        for (i, p) in self.parts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&p.to_string());
        }
        out.push_str(&format!(
            "],\"cache_hit\":{},\"deadline_expired\":{},\"starts_run\":{},\"micros\":{}",
            self.cache_hit, self.deadline_expired, self.starts_run, self.micros
        ));
        if let Some(sid) = &self.solution_id {
            out.push_str(",\"solution_id\":");
            out.push_str(&json::quote(sid));
        }
        if let Some(warm) = self.warm {
            out.push_str(",\"warm\":");
            out.push_str(&json::quote(warm));
        }
        out.push('}');
        out
    }
}

fn bad(id: &Option<String>, message: impl Into<String>) -> ProtocolError {
    ProtocolError::new(id.clone(), "bad_request", message)
}

fn get_usize(
    obj: Value<'_>,
    key: &str,
    default: usize,
    id: &Option<String>,
) -> Result<usize, ProtocolError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .map(|u| u as usize)
            .ok_or_else(|| bad(id, format!("'{key}' must be a non-negative integer"))),
    }
}

/// Parses and validates one request line.
///
/// The line is scanned once: the scan validates the JSON and indexes its
/// values, and the fields are read straight off that index — the
/// instance arrays go directly into one [`HypergraphBuilder`], with any
/// warm-start delta applied during that same build.
///
/// # Errors
/// Returns a [`ProtocolError`] (code `bad_json`, `bad_request`,
/// `unknown_engine` or `infeasible_capacities`) describing the first
/// problem found. A JSON syntax error anywhere in the line comes before
/// any field error; field errors come in a fixed order (scalar options,
/// hypergraph, resources, part capacities, fixities, warm start) whatever
/// the order of the fields in the line. The hypergraph and fixity vector
/// are validated here, at ingress, so workers only ever see well-formed
/// instances.
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    let doc = Doc::parse(line).map_err(|e| ProtocolError::new(None, "bad_json", e.to_string()))?;
    let root = doc.root();
    if !root.is_obj() {
        return Err(ProtocolError::new(
            None,
            "bad_request",
            "request must be a JSON object",
        ));
    }

    if let Some(op) = root.get("op") {
        return match op.as_str().as_deref() {
            Some("metrics") => Ok(Request::Metrics),
            Some("shutdown") => Ok(Request::Shutdown),
            _ => Err(ProtocolError::new(
                None,
                "bad_request",
                "'op' must be \"metrics\" or \"shutdown\"",
            )),
        };
    }

    let id = root.get("id").and_then(|v| v.as_str()).map(Cow::into_owned);
    let Some(ref id_str) = id else {
        return Err(ProtocolError::new(
            None,
            "bad_request",
            "job request missing string field 'id'",
        ));
    };

    let engine_name = root
        .get("engine")
        .map(|v| {
            v.as_str()
                .ok_or_else(|| bad(&id, "'engine' must be a string"))
        })
        .transpose()?
        .unwrap_or(Cow::Borrowed("ml"));
    // `UnknownEngine`'s Display already lists every valid name and alias;
    // surface it verbatim under the structured `unknown_engine` code.
    let engine = vlsi_partition::EngineConfig::by_name(&engine_name)
        .map_err(|e| ProtocolError::new(id.clone(), "unknown_engine", e.to_string()))?;

    let k = get_usize(root, "k", 2, &id)?;
    if !(2..=MAX_PARTS).contains(&k) {
        return Err(bad(&id, format!("'k' must be in 2..={MAX_PARTS}")));
    }
    let tolerance = match root.get("tolerance") {
        None => 0.1,
        Some(v) => v
            .as_f64()
            .filter(|t| t.is_finite() && *t >= 0.0)
            .ok_or_else(|| bad(&id, "'tolerance' must be a finite number >= 0"))?,
    };
    let starts = get_usize(root, "starts", 1, &id)?;
    if starts == 0 {
        return Err(bad(&id, "'starts' must be >= 1"));
    }
    let threads = get_usize(root, "threads", 1, &id)?;
    if threads == 0 {
        return Err(bad(&id, "'threads' must be >= 1"));
    }
    let seed = match root.get("seed") {
        None => 0,
        Some(v) => v
            .as_u64()
            .ok_or_else(|| bad(&id, "'seed' must be a non-negative integer"))?,
    };
    let vcycles = get_usize(root, "vcycles", 0, &id)?;
    let ensemble = match root.get("ensemble") {
        None => false,
        Some(v) => v
            .as_bool()
            .ok_or_else(|| bad(&id, "'ensemble' must be a boolean"))?,
    };
    let deadline_ms = match root.get("deadline_ms") {
        None => None,
        Some(v) if v.is_null() => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| bad(&id, "'deadline_ms' must be a non-negative integer"))?,
        ),
    };
    let priority = match root.get("priority") {
        None => Lane::Batch,
        Some(v) => match v.as_str().as_deref() {
            Some("interactive") => Lane::Interactive,
            Some("batch") => Lane::Batch,
            _ => return Err(bad(&id, "'priority' must be \"interactive\" or \"batch\"")),
        },
    };

    let objective = match root.get("objective") {
        None => Objective::Cut,
        Some(v) => match v.as_str().as_deref() {
            Some("cut") => Objective::Cut,
            Some("km1") => Objective::KMinus1,
            _ => return Err(bad(&id, "'objective' must be \"cut\" or \"km1\"")),
        },
    };

    let instance = decode_instance(root, &id, k)?;

    Ok(Request::Job(Box::new(JobRequest {
        id: id_str.clone(),
        engine: engine.name().to_string(),
        k,
        tolerance,
        starts,
        threads,
        seed,
        vcycles,
        ensemble,
        deadline_ms,
        priority,
        warm_from: instance.warm_from,
        objective,
        part_capacities: instance.part_capacities,
        hg: instance.hg,
        fixed: instance.fixed,
    })))
}

/// The instance half of a job request.
struct Instance {
    hg: Hypergraph,
    fixed: FixedVertices,
    part_capacities: Option<PartCapacities>,
    warm_from: Option<String>,
}

/// Where the instance's vertices and nets come from.
enum Source<'d> {
    /// `hypergraph.vertices` and `hypergraph.nets`, read off the index.
    Inline {
        vertices: Elems<'d>,
        nets: Elems<'d>,
    },
    /// A parsed `hypergraph_path` file.
    File(Hypergraph),
}

/// Decodes the instance fields — `hypergraph`/`hypergraph_path`,
/// `resources`, `part_capacities`, `fixed`/`fixed_path` and
/// `warm_start` — into one build.
///
/// Errors surface in that field order, but the build needs two later
/// fields before it can take the nets: the `resources` rows (the vertex
/// weights) and the delta's `removed_nets` (which inline nets to skip).
/// Both are read ahead; a resources error is held until its turn, and a
/// malformed removal list only marks what it can, since the delta check
/// then rejects the request before the build is used.
fn decode_instance(
    root: Value<'_>,
    id: &Option<String>,
    k: usize,
) -> Result<Instance, ProtocolError> {
    let source = match (root.get("hypergraph"), root.get("hypergraph_path")) {
        (Some(_), Some(_)) => {
            return Err(bad(
                id,
                "give either 'hypergraph' or 'hypergraph_path', not both",
            ))
        }
        (Some(inline), None) => {
            let vertices = inline
                .get("vertices")
                .and_then(Value::as_arr)
                .ok_or_else(|| bad(id, "'hypergraph.vertices' must be an array of weights"))?;
            if vertices.is_empty() {
                return Err(bad(id, "'hypergraph.vertices' must not be empty"));
            }
            let nets = inline
                .get("nets")
                .and_then(Value::as_arr)
                .ok_or_else(|| bad(id, "'hypergraph.nets' must be an array"))?;
            Source::Inline { vertices, nets }
        }
        (None, Some(path)) => {
            let path = path
                .as_str()
                .ok_or_else(|| bad(id, "'hypergraph_path' must be a string"))?;
            let file =
                File::open(&*path).map_err(|e| bad(id, format!("cannot open '{path}': {e}")))?;
            Source::File(
                read_hgr(BufReader::new(file))
                    .map_err(|e| bad(id, format!("cannot parse '{path}': {e}")))?,
            )
        }
        (None, None) => return Err(bad(id, "missing 'hypergraph' or 'hypergraph_path'")),
    };
    let (num_vertices, num_nets) = match &source {
        Source::Inline { vertices, nets } => (vertices.len(), nets.len()),
        Source::File(hg) => (hg.num_vertices(), hg.num_nets()),
    };

    let resources = root
        .get("resources")
        .map(|res| resource_rows(res, num_vertices, id));
    let rows = match &resources {
        Some(Ok(rows)) => Some(rows),
        _ => None,
    };
    let dims = rows.map_or(1, |(dims, _)| *dims);
    let delta = root.get("warm_start").and_then(|ws| ws.get("delta"));
    let added = delta
        .and_then(|d| d.get("added_nets"))
        .and_then(Value::as_arr);
    let mut removed = Vec::new();
    if let Some(list) = delta
        .and_then(|d| d.get("removed_nets"))
        .and_then(Value::as_arr)
    {
        removed = vec![false; num_nets];
        for n in list.filter_map(Value::as_u64) {
            if let Some(r) = removed.get_mut(n as usize) {
                *r = true;
            }
        }
    }

    // A file instance is rebuilt only when resources or a delta edit it.
    let rebuild = matches!(source, Source::Inline { .. }) || resources.is_some() || delta.is_some();
    let mut b = if rebuild {
        // Each inline net spans one node plus one per pin (more for the
        // `{"w":..}` form), so the node counts bound the pins from above.
        let (nets, pins) = match &source {
            Source::Inline { nets, .. } => (num_nets, nets.nodes() - num_nets),
            Source::File(hg) => (hg.num_nets(), hg.num_pins()),
        };
        let added_nodes = added.as_ref().map_or(0, Elems::nodes);
        HypergraphBuilder::with_capacity_and_resources(
            num_vertices,
            nets + added_nodes,
            pins + added_nodes,
            dims,
        )
    } else {
        HypergraphBuilder::new()
    };

    let mut scalar_total = 0u64;
    match &source {
        Source::Inline { vertices, .. } => {
            for (i, w) in vertices.clone().enumerate() {
                let w = w.as_u64().ok_or_else(|| {
                    bad(
                        id,
                        format!("vertex {i}: weight must be a non-negative integer"),
                    )
                })?;
                scalar_total = scalar_total.wrapping_add(w);
                if rows.is_none() {
                    b.add_vertex(w);
                }
            }
        }
        Source::File(hg) if rebuild && rows.is_none() => {
            for v in hg.vertices() {
                b.add_vertex(hg.vertex_weight(v));
            }
        }
        Source::File(_) => {}
    }
    if let Some((dims, flat)) = rows {
        for row in flat.chunks_exact(*dims) {
            b.add_vertex_multi(row)
                .map_err(|e| bad(id, format!("'resources': {e}")))?;
        }
    }

    let mut pins = Vec::new();
    match &source {
        Source::Inline { nets, .. } => {
            for (n, net) in nets.clone().enumerate() {
                let weight = net_spec(net, n, num_vertices, id, &mut pins)?;
                check_pins(&pins, NetId::from_index(n))
                    .map_err(|e| bad(id, format!("net {n}: {e}")))?;
                if removed.get(n) != Some(&true) {
                    b.add_net(weight, pins.iter().copied())
                        .map_err(|e| bad(id, format!("net {n}: {e}")))?;
                }
            }
        }
        Source::File(hg) if rebuild => {
            for net in hg.nets().filter(|n| removed.get(n.index()) != Some(&true)) {
                b.add_net(hg.net_weight(net), hg.net_pins(net).iter().copied())
                    .map_err(|e| bad(id, format!("delta: {e}")))?;
            }
        }
        Source::File(_) => {}
    }

    let rows = resources.transpose()?;
    // The per-resource totals the capacities are checked against. A sum
    // that wraps here belongs to a request the build below refuses
    // (`BuildError::WeightOverflow`), if the capacity check does not
    // refuse it first.
    let totals = match (&rows, &source) {
        (Some((dims, flat)), _) => {
            let mut totals = vec![0u64; *dims];
            for (i, w) in flat.iter().enumerate() {
                totals[i % dims] = totals[i % dims].wrapping_add(*w);
            }
            totals
        }
        (None, Source::Inline { .. }) => vec![scalar_total],
        (None, Source::File(hg)) => hg.total_weights().to_vec(),
    };
    let part_capacities = match root.get("part_capacities") {
        None => None,
        Some(pc) => Some(parse_part_capacities(pc, id, k, &totals)?),
    };
    let mut fixed = parse_fixed(root, id, num_vertices, k)?;

    let warm_from = match root.get("warm_start") {
        None => None,
        Some(ws) => {
            if !ws.is_obj() {
                return Err(bad(id, "'warm_start' must be an object"));
            }
            let sid = ws
                .get("solution_id")
                .and_then(|v| v.as_str())
                .ok_or_else(|| bad(id, "'warm_start.solution_id' must be a string"))?
                .into_owned();
            if let Some(delta) = ws.get("delta") {
                let counts = (num_vertices, num_nets);
                apply_warm_delta(delta, counts, k, &mut b, &mut fixed, &mut pins, id)?;
            }
            Some(sid)
        }
    };

    let hg = match source {
        Source::File(hg) if !rebuild => hg,
        _ => b.build().map_err(|e| bad(id, format!("hypergraph: {e}")))?,
    };
    Ok(Instance {
        hg,
        fixed,
        part_capacities,
        warm_from,
    })
}

/// Reads the `resources` field — per-vertex multi-dimensional weight
/// vectors, every vertex with the same arity (1..=[`MAX_RESOURCE_DIMS`])
/// — into the arity and the flat row-major weights.
fn resource_rows(
    res: Value<'_>,
    num_vertices: usize,
    id: &Option<String>,
) -> Result<(usize, Vec<u64>), ProtocolError> {
    let rows = res.as_arr().ok_or_else(|| {
        bad(
            id,
            "'resources' must be an array of per-vertex weight vectors",
        )
    })?;
    let num_rows = rows.len();
    if num_rows != num_vertices {
        return Err(bad(
            id,
            format!("'resources' has {num_rows} rows, expected one per vertex ({num_vertices})"),
        ));
    }
    let mut dims = 0usize;
    let mut flat: Vec<u64> = Vec::new();
    for (i, row) in rows.enumerate() {
        let row = row
            .as_arr()
            .ok_or_else(|| bad(id, format!("resources[{i}]: must be an array of integers")))?;
        let len = row.len();
        if i == 0 {
            dims = len;
            if dims == 0 || dims > MAX_RESOURCE_DIMS {
                return Err(bad(
                    id,
                    format!("'resources' arity must be 1..={MAX_RESOURCE_DIMS}, got {dims}"),
                ));
            }
            flat.reserve(num_rows * dims);
        } else if len != dims {
            return Err(bad(
                id,
                format!("resources[{i}]: has {len} entries, expected {dims}"),
            ));
        }
        for w in row {
            flat.push(w.as_u64().ok_or_else(|| {
                bad(
                    id,
                    format!("resources[{i}]: weights must be non-negative integers"),
                )
            })?);
        }
    }
    Ok((dims, flat))
}

/// Parses and validates `part_capacities` — `k` rows of per-resource
/// maxima matching the instance's resource arity — and rejects capacity
/// matrices that cannot hold the instance's per-resource `totals` with
/// the structured `infeasible_capacities` code.
fn parse_part_capacities(
    pc: Value<'_>,
    id: &Option<String>,
    k: usize,
    totals: &[u64],
) -> Result<PartCapacities, ProtocolError> {
    let rows = pc.as_arr().ok_or_else(|| {
        bad(
            id,
            "'part_capacities' must be an array of per-part capacity vectors",
        )
    })?;
    let num_rows = rows.len();
    if num_rows != k {
        return Err(bad(
            id,
            format!("'part_capacities' has {num_rows} rows, expected k = {k}"),
        ));
    }
    let dims = totals.len();
    let mut flat: Vec<u64> = Vec::with_capacity(k * dims);
    for (p, row) in rows.enumerate() {
        let row = row.as_arr().ok_or_else(|| {
            bad(
                id,
                format!("part_capacities[{p}]: must be an array of integers"),
            )
        })?;
        let len = row.len();
        if len != dims {
            return Err(bad(
                id,
                format!(
                    "part_capacities[{p}]: has {len} entries, expected the instance's \
                     resource arity ({dims})"
                ),
            ));
        }
        for c in row {
            flat.push(c.as_u64().ok_or_else(|| {
                bad(
                    id,
                    format!("part_capacities[{p}]: capacities must be non-negative integers"),
                )
            })?);
        }
    }
    let caps = PartCapacities::explicit(k, dims, flat)
        .map_err(|e| bad(id, format!("'part_capacities': {e}")))?;
    if let Err(e) = caps.check_feasible(totals) {
        return Err(ProtocolError::new(
            id.clone(),
            "infeasible_capacities",
            format!("capacity vectors cannot hold the instance: {e}"),
        ));
    }
    Ok(caps)
}

/// Applies a `warm_start.delta` to the instance under construction: the
/// build already skipped the `removed_nets` (by index) when it took the
/// inline nets, so this validates that list, appends `added_nets` to
/// `b`, and re-pins `moved_fixed` in `fixed`. The vertex set is
/// unchanged, so cached part vectors keep their meaning as warm seeds.
fn apply_warm_delta(
    delta: Value<'_>,
    (num_vertices, num_nets): (usize, usize),
    k: usize,
    b: &mut HypergraphBuilder,
    fixed: &mut FixedVertices,
    pins: &mut Vec<VertexId>,
    id: &Option<String>,
) -> Result<(), ProtocolError> {
    if !delta.is_obj() {
        return Err(bad(id, "'warm_start.delta' must be an object"));
    }

    if let Some(v) = delta.get("removed_nets") {
        let arr = v
            .as_arr()
            .ok_or_else(|| bad(id, "'delta.removed_nets' must be an array of net indices"))?;
        for e in arr {
            if e.as_u64().is_none_or(|u| u as usize >= num_nets) {
                return Err(bad(
                    id,
                    format!("delta.removed_nets: index out of range 0..{num_nets}"),
                ));
            }
        }
    }

    // An added net that repeats a pin or has none fails the build, which
    // reports after every other delta field has been checked.
    let mut build_error = None;
    if let Some(v) = delta.get("added_nets") {
        let arr = v
            .as_arr()
            .ok_or_else(|| bad(id, "'delta.added_nets' must be an array of nets"))?;
        for (n, net) in arr.enumerate() {
            let weight = net_spec(net, n, num_vertices, id, pins)?;
            if build_error.is_none() {
                if let Err(e) = b.add_net(weight, pins.iter().copied()) {
                    build_error = Some(bad(id, format!("delta.added_nets[{n}]: {e}")));
                }
            }
        }
    }

    if let Some(v) = delta.get("moved_fixed") {
        let arr = v
            .as_arr()
            .ok_or_else(|| bad(id, "'delta.moved_fixed' must be an array of [vertex, part]"))?;
        for e in arr {
            let Some((vertex, part)) = e
                .as_arr()
                .filter(|p| p.len() == 2)
                .and_then(|mut p| Some((p.next()?, p.next()?)))
            else {
                return Err(bad(
                    id,
                    "delta.moved_fixed: each entry must be [vertex, part]",
                ));
            };
            let v = vertex
                .as_u64()
                .map(|u| u as usize)
                .filter(|&u| u < num_vertices)
                .ok_or_else(|| {
                    bad(
                        id,
                        format!("delta.moved_fixed: vertex out of range 0..{num_vertices}"),
                    )
                })?;
            let v = VertexId::from_index(v);
            match part.as_i64() {
                Some(-1) => fixed.free(v),
                Some(p) if (0..k as i64).contains(&p) => {
                    fixed.fix(v, PartId::from_index(p as usize))
                }
                _ => {
                    return Err(bad(
                        id,
                        format!("delta.moved_fixed: part must be -1 (free) or in 0..{k}"),
                    ))
                }
            }
        }
    }
    build_error.map_or(Ok(()), Err)
}

/// Reads one net spec — a plain pin array (weight 1) or
/// `{"w":W,"pins":[...]}` — into its weight and `pins`, validated against
/// `num_vertices`.
fn net_spec(
    net: Value<'_>,
    n: usize,
    num_vertices: usize,
    id: &Option<String>,
    pins: &mut Vec<VertexId>,
) -> Result<u64, ProtocolError> {
    let (weight, list) = if let Some(list) = net.as_arr() {
        (1, list)
    } else if net.is_obj() {
        let w = match net.get("w") {
            None => 1,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| bad(id, format!("net {n}: 'w' must be an integer")))?,
        };
        let list = net
            .get("pins")
            .and_then(Value::as_arr)
            .ok_or_else(|| bad(id, format!("net {n}: missing 'pins' array")))?;
        (w, list)
    } else {
        return Err(bad(
            id,
            format!("net {n}: must be a pin array or {{\"w\":..,\"pins\":[..]}}"),
        ));
    };
    pins.clear();
    for p in list {
        let p = p
            .as_u64()
            .map(|u| u as usize)
            .filter(|&u| u < num_vertices)
            .ok_or_else(|| bad(id, format!("net {n}: pin out of range 0..{num_vertices}")))?;
        pins.push(VertexId::from_index(p));
    }
    Ok(weight)
}

/// Checks range-checked `pins` the way [`HypergraphBuilder::add_net`]
/// does, naming the net `net`, its index in the request. The builder
/// would name a net by its position in the build, which falls behind once
/// a delta drops nets, and a dropped net never reaches the builder.
fn check_pins(pins: &[VertexId], net: NetId) -> Result<(), BuildError> {
    for (i, &vertex) in pins.iter().enumerate() {
        if pins[..i].contains(&vertex) {
            return Err(BuildError::DuplicatePin { net, vertex });
        }
    }
    if pins.is_empty() {
        return Err(BuildError::EmptyNet { net });
    }
    Ok(())
}

fn parse_fixed(
    root: Value<'_>,
    id: &Option<String>,
    num_vertices: usize,
    k: usize,
) -> Result<FixedVertices, ProtocolError> {
    match (root.get("fixed"), root.get("fixed_path")) {
        (Some(_), Some(_)) => Err(bad(id, "give either 'fixed' or 'fixed_path', not both")),
        (None, None) => Ok(FixedVertices::all_free(num_vertices)),
        (None, Some(path)) => {
            let path = path
                .as_str()
                .ok_or_else(|| bad(id, "'fixed_path' must be a string"))?;
            let file =
                File::open(&*path).map_err(|e| bad(id, format!("cannot open '{path}': {e}")))?;
            read_fix(BufReader::new(file), num_vertices)
                .map_err(|e| bad(id, format!("cannot parse '{path}': {e}")))
        }
        (Some(arr), None) => {
            let entries = arr
                .as_arr()
                .ok_or_else(|| bad(id, "'fixed' must be an array of part ids (-1 = free)"))?;
            let len = entries.len();
            if len != num_vertices {
                return Err(bad(
                    id,
                    format!("'fixed' has {len} entries for {num_vertices} vertices"),
                ));
            }
            let mut fixities = Vec::with_capacity(len);
            for (i, e) in entries.enumerate() {
                match e.as_i64() {
                    Some(-1) => fixities.push(Fixity::Free),
                    Some(p) if (0..k as i64).contains(&p) => {
                        fixities.push(Fixity::Fixed(PartId::from_index(p as usize)));
                    }
                    _ => {
                        return Err(bad(
                            id,
                            format!("fixed[{i}]: must be -1 (free) or a part id in 0..{k}"),
                        ))
                    }
                }
            }
            Ok(FixedVertices::from_fixities(fixities))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job_line() -> String {
        r#"{"id":"j1","engine":"fm","starts":2,"seed":3,
            "hypergraph":{"vertices":[1,1,1,1],"nets":[[0,1],[1,2],{"w":2,"pins":[2,3]}]},
            "fixed":[0,-1,-1,1]}"#
            .replace('\n', " ")
    }

    #[test]
    fn parses_a_full_job() {
        let Request::Job(job) = parse_request(&job_line()).unwrap() else {
            panic!("expected a job");
        };
        assert_eq!(job.id, "j1");
        assert_eq!(job.engine, "fm");
        assert_eq!(job.k, 2);
        assert_eq!(job.starts, 2);
        assert_eq!(job.seed, 3);
        assert_eq!(job.hg.num_vertices(), 4);
        assert_eq!(job.hg.num_nets(), 3);
        assert_eq!(job.fixed.num_fixed(), 2);
        assert!(job.deadline_ms.is_none());
        assert_eq!(job.vcycles, 0, "quality phase defaults off");
        assert!(!job.ensemble);
    }

    #[test]
    fn quality_phase_fields_parse_and_validate() {
        let line = r#"{"id":"q","vcycles":3,"ensemble":true,
            "hypergraph":{"vertices":[1,1],"nets":[[0,1]]}}"#
            .replace('\n', " ");
        let Request::Job(job) = parse_request(&line).unwrap() else {
            panic!("expected a job");
        };
        assert_eq!(job.vcycles, 3);
        assert!(job.ensemble);

        let err = parse_request(
            r#"{"id":"q","ensemble":"yes","hypergraph":{"vertices":[1,1],"nets":[[0,1]]}}"#,
        )
        .unwrap_err();
        assert_eq!(err.code, "bad_request");
        let err = parse_request(
            r#"{"id":"q","vcycles":-1,"hypergraph":{"vertices":[1,1],"nets":[[0,1]]}}"#,
        )
        .unwrap_err();
        assert_eq!(err.code, "bad_request");
    }

    #[test]
    fn engine_aliases_resolve_to_canonical_names() {
        let line =
            r#"{"id":"a","engine":"multilevel","hypergraph":{"vertices":[1,1],"nets":[[0,1]]}}"#;
        let Request::Job(job) = parse_request(line).unwrap() else {
            panic!("expected a job");
        };
        assert_eq!(job.engine, "ml");
    }

    #[test]
    fn weights_summing_past_u64_max_are_bad_requests() {
        // A request integer tops out at i64::MAX, so u64::MAX itself is
        // refused as a weight, and three of the largest weights a request
        // can carry sum past u64::MAX.
        let line = r#"{"id":"w","hypergraph":{"vertices":[18446744073709551615,18446744073709551615],"nets":[[0,1]]}}"#;
        let err = parse_request(line).unwrap_err();
        assert_eq!(err.code, "bad_request");
        assert_eq!(
            err.message,
            "vertex 0: weight must be a non-negative integer"
        );

        let max = i64::MAX;
        let line = format!(
            r#"{{"id":"w","hypergraph":{{"vertices":[{max},{max},{max}],"nets":[[0,1,2]]}}}}"#
        );
        let err = parse_request(&line).unwrap_err();
        assert_eq!(err.code, "bad_request");
        assert_eq!(err.id.as_deref(), Some("w"));
        assert_eq!(
            err.message,
            "hypergraph: vertex weights of resource 0 sum past u64::MAX"
        );
    }

    #[test]
    fn control_requests_parse() {
        assert!(matches!(
            parse_request(r#"{"op":"metrics"}"#).unwrap(),
            Request::Metrics
        ));
        assert!(matches!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        ));
    }

    #[test]
    fn malformed_requests_get_structured_errors() {
        let cases: &[(&str, &str)] = &[
            ("{not json", "bad_json"),
            ("[1,2]", "bad_request"),
            (r#"{"op":"dance"}"#, "bad_request"),
            (r#"{"engine":"fm"}"#, "bad_request"), // missing id
            (
                r#"{"id":"x","engine":"quantum","hypergraph":{"vertices":[1],"nets":[]}}"#,
                "unknown_engine",
            ),
            (
                r#"{"id":"x","hypergraph":{"vertices":[],"nets":[]}}"#,
                "bad_request",
            ),
            (
                r#"{"id":"x","hypergraph":{"vertices":[1,1],"nets":[[0,5]]}}"#,
                "bad_request",
            ),
            (
                r#"{"id":"x","k":1,"hypergraph":{"vertices":[1,1],"nets":[[0,1]]}}"#,
                "bad_request",
            ),
            (
                r#"{"id":"x","k":65,"hypergraph":{"vertices":[1,1],"nets":[[0,1]]}}"#,
                "bad_request",
            ),
            (
                r#"{"id":"x","hypergraph":{"vertices":[1,1],"nets":[[0,1]]},"fixed":[0]}"#,
                "bad_request",
            ),
            (
                r#"{"id":"x","hypergraph":{"vertices":[1,1],"nets":[[0,1]]},"fixed":[0,7]}"#,
                "bad_request",
            ),
            (
                r#"{"id":"x","tolerance":-0.5,"hypergraph":{"vertices":[1,1],"nets":[[0,1]]}}"#,
                "bad_request",
            ),
            (
                r#"{"id":"x","starts":0,"hypergraph":{"vertices":[1,1],"nets":[[0,1]]}}"#,
                "bad_request",
            ),
            (r#"{"id":"x"}"#, "bad_request"), // no hypergraph at all
        ];
        for (line, code) in cases {
            match parse_request(line) {
                Err(e) => assert_eq!(&e.code, code, "line {line:?} gave {e:?}"),
                Ok(_) => panic!("line {line:?} should not parse"),
            }
        }
    }

    #[test]
    fn error_lines_echo_the_id_when_known() {
        let err = parse_request(
            r#"{"id":"x","engine":"quantum","hypergraph":{"vertices":[1],"nets":[]}}"#,
        )
        .unwrap_err();
        let line = err.to_line();
        assert!(line.contains("\"id\":\"x\""), "{line}");
        assert!(line.contains("\"code\":\"unknown_engine\""), "{line}");
        // The error line itself is valid JSON.
        crate::json::parse(&line).unwrap();
    }

    #[test]
    fn response_lines_are_valid_json() {
        let resp = JobResponse {
            id: "a\"b".into(),
            cut: 3,
            km1: 4,
            parts: vec![0, 1, 0],
            cache_hit: true,
            deadline_expired: false,
            starts_run: 2,
            micros: 17,
            solution_id: None,
            warm: None,
        };
        let parsed = crate::json::parse(&resp.to_line()).unwrap();
        assert_eq!(parsed.get("id").unwrap().as_str(), Some("a\"b"));
        assert_eq!(parsed.get("cut").unwrap().as_u64(), Some(3));
        assert_eq!(parsed.get("km1").unwrap().as_u64(), Some(4));
        assert_eq!(parsed.get("cache_hit").unwrap().as_bool(), Some(true));
        assert_eq!(parsed.get("parts").unwrap().as_arr().unwrap().len(), 3);
        assert!(parsed.get("solution_id").is_none());
        assert!(parsed.get("warm").is_none());
    }

    #[test]
    fn warm_response_fields_render() {
        let resp = JobResponse {
            id: "w1".into(),
            cut: 1,
            km1: 1,
            parts: vec![0, 1],
            cache_hit: false,
            deadline_expired: false,
            starts_run: 1,
            micros: 9,
            solution_id: Some("s00000000deadbeef".into()),
            warm: Some("hit"),
        };
        let parsed = crate::json::parse(&resp.to_line()).unwrap();
        assert_eq!(
            parsed.get("solution_id").unwrap().as_str(),
            Some("s00000000deadbeef")
        );
        assert_eq!(parsed.get("warm").unwrap().as_str(), Some("hit"));
    }

    #[test]
    fn priority_selects_the_lane() {
        let line = r#"{"id":"p","priority":"interactive",
            "hypergraph":{"vertices":[1,1],"nets":[[0,1]]}}"#
            .replace('\n', " ");
        let Request::Job(job) = parse_request(&line).unwrap() else {
            panic!("expected a job");
        };
        assert_eq!(job.priority, Lane::Interactive);

        let Request::Job(job) = parse_request(&job_line()).unwrap() else {
            panic!("expected a job");
        };
        assert_eq!(job.priority, Lane::Batch, "default lane is batch");

        let err = parse_request(
            r#"{"id":"p","priority":"urgent","hypergraph":{"vertices":[1,1],"nets":[[0,1]]}}"#,
        )
        .unwrap_err();
        assert_eq!(err.code, "bad_request");
    }

    #[test]
    fn warm_start_without_delta_keeps_the_instance() {
        let line = r#"{"id":"w","warm_start":{"solution_id":"s0011223344556677"},
            "hypergraph":{"vertices":[1,1,1,1],"nets":[[0,1],[2,3]]}}"#
            .replace('\n', " ");
        let Request::Job(job) = parse_request(&line).unwrap() else {
            panic!("expected a job");
        };
        assert_eq!(job.warm_from.as_deref(), Some("s0011223344556677"));
        assert_eq!(job.hg.num_nets(), 2);
    }

    #[test]
    fn warm_start_delta_edits_nets_and_fixities() {
        let line = r#"{"id":"w","k":2,
            "hypergraph":{"vertices":[1,1,1,1],"nets":[[0,1],[1,2],[2,3]]},
            "fixed":[0,-1,-1,-1],
            "warm_start":{"solution_id":"s0000000000000001","delta":{
                "removed_nets":[1],
                "added_nets":[{"w":3,"pins":[0,3]}],
                "moved_fixed":[[1,1],[0,-1]]}}}"#
            .replace('\n', " ");
        let Request::Job(job) = parse_request(&line).unwrap() else {
            panic!("expected a job");
        };
        // One net removed, one added: still 3 nets, with the new one last.
        assert_eq!(job.hg.num_nets(), 3);
        let last = job.hg.nets().last().unwrap();
        assert_eq!(job.hg.net_weight(last), 3);
        assert_eq!(
            job.hg
                .net_pins(last)
                .iter()
                .map(|v| v.index())
                .collect::<Vec<_>>(),
            vec![0, 3]
        );
        // Vertex 0 was freed, vertex 1 pinned to part 1.
        use vlsi_hypergraph::VertexId;
        assert!(job.fixed.fixity(VertexId::from_index(0)).is_free());
        assert_eq!(
            job.fixed.fixity(VertexId::from_index(1)),
            Fixity::Fixed(PartId::from_index(1))
        );
        assert_eq!(job.fixed.num_fixed(), 1);
    }

    #[test]
    fn warm_start_delta_keeps_every_resource_dimension() {
        let line = r#"{"id":"w","hypergraph":{"vertices":[1,1,1],"nets":[[0,1],[1,2]]},
            "resources":[[1,5],[2,6],[3,7]],"part_capacities":[[6,18],[6,18]],
            "warm_start":{"solution_id":"s1","delta":{"removed_nets":[0],"added_nets":[[0,2]]}}}"#
            .replace('\n', " ");
        let Request::Job(job) = parse_request(&line).unwrap() else {
            panic!("expected a job");
        };
        assert_eq!(job.hg.num_resources(), 2);
        let rows = [[1, 5], [2, 6], [3, 7]];
        for (v, row) in rows.iter().enumerate() {
            assert_eq!(job.hg.vertex_weights(VertexId::from_index(v)), row);
        }
        assert_eq!(job.hg.total_weights(), &[6, 18]);
        let nets: Vec<Vec<usize>> = job
            .hg
            .nets()
            .map(|n| job.hg.net_pins(n).iter().map(|v| v.index()).collect())
            .collect();
        assert_eq!(nets, vec![vec![1, 2], vec![0, 2]]);
    }

    #[test]
    fn errors_keep_their_order_whatever_the_field_order() {
        // A bad inline net is reported before a bad removal, even when
        // the delta comes first in the line and the net is the removed one.
        let line = r#"{"id":"e","warm_start":{"solution_id":"s","delta":{"removed_nets":[1,9]}},
            "hypergraph":{"vertices":[1,1],"nets":[[0,1],[1,1]]}}"#
            .replace('\n', " ");
        let err = parse_request(&line).unwrap_err();
        assert_eq!(err.message, "net 1: net n1 lists vertex v1 more than once");
        // A syntax error anywhere beats every field error.
        let err =
            parse_request(r#"{"id":7,"hypergraph":{"vertices":[1],"nets":[]},"x":[}"#).unwrap_err();
        assert_eq!(err.code, "bad_json");
        assert_eq!(err.id, None);
    }

    #[test]
    fn bad_warm_start_deltas_are_rejected() {
        let hg = r#""hypergraph":{"vertices":[1,1],"nets":[[0,1]]}"#;
        let cases = [
            // missing solution_id
            format!(r#"{{"id":"w","warm_start":{{}},{hg}}}"#),
            // removed net index out of range
            format!(
                r#"{{"id":"w","warm_start":{{"solution_id":"s0","delta":{{"removed_nets":[5]}}}},{hg}}}"#
            ),
            // added net pin out of range
            format!(
                r#"{{"id":"w","warm_start":{{"solution_id":"s0","delta":{{"added_nets":[[0,9]]}}}},{hg}}}"#
            ),
            // moved_fixed vertex out of range
            format!(
                r#"{{"id":"w","warm_start":{{"solution_id":"s0","delta":{{"moved_fixed":[[9,0]]}}}},{hg}}}"#
            ),
            // moved_fixed part out of range for k=2
            format!(
                r#"{{"id":"w","warm_start":{{"solution_id":"s0","delta":{{"moved_fixed":[[0,5]]}}}},{hg}}}"#
            ),
        ];
        for line in &cases {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.code, "bad_request", "line {line}");
        }
    }

    #[test]
    fn error_codes_are_distinct_and_nonempty() {
        let mut seen = std::collections::BTreeSet::new();
        for code in ERROR_CODES {
            assert!(!code.is_empty());
            assert!(seen.insert(code), "duplicate error code {code}");
        }
        assert_eq!(ERROR_CODES.len(), 10);
    }
}
