//! Differential test pinning `parse_request` to the request decoder it
//! replaced.
//!
//! `reference` is the earlier request path, verbatim apart from import
//! paths, `new_error` standing in for the library's private
//! `ProtocolError::new`, and one fix: its `json::parse` builds a `Json`
//! tree, and its field
//! decoder reads the request off that tree, rebuilding the hypergraph
//! again for `resources` and once more for a warm-start delta. The fix is
//! in `apply_warm_delta`, whose rebuild used to keep only the first
//! resource dimension of every vertex weight.
//!
//! The property drives both decoders over structure-aware mutations of
//! valid requests — ECO-style warm requests with netlist deltas,
//! heterogeneous requests with resource vectors and part capacities,
//! fixity-heavy requests and file-based ones — and requires the same
//! `JobRequest` or the same `ProtocolError` (id, code and message) from
//! both, and the same tree or error from both JSON parsers. The mutations
//! drop, swap and duplicate fields, escape keys, respell numbers (`2.0`,
//! `1e2`, `-0`, `-1`, 2^63, 2^64, leading zeros, a lone `-`, runs of 17
//! to 20 digits), nest values around the depth bound, truncate the text
//! at structural bytes or right after a digit, put a space or a `}` right
//! after a digit, and plant out-of-range pins,
//! removals and re-pins and duplicate pins in the inline and the added
//! nets, often several at once.
//!
//! Scale the corpus with `TESTKIT_CASES` and re-base it with
//! `TESTKIT_SEED`.

use std::sync::OnceLock;

use vlsi_rng::seq::SliceRandom;
use vlsi_rng::Rng;
use vlsi_service::{json, parse_request};
use vlsi_testkit::{prop_test, TestRng};

/// The earlier tree-based decoder (see the module docs).
mod reference {
    use std::fs::File;
    use std::io::BufReader;

    use vlsi_hypergraph::{
        io::{apply_multi_areas, read_fix, read_hgr},
        FixedVertices, Fixity, Hypergraph, HypergraphBuilder, Objective, PartCapacities, PartId,
    };
    use vlsi_service::protocol::{MAX_PARTS, MAX_RESOURCE_DIMS};
    use vlsi_service::{JobRequest, Lane, ProtocolError, Request};

    use self::json::Json;

    /// The earlier JSON parser.
    pub mod json {
        use std::fmt;

        /// A parsed JSON value.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Json {
            /// `null`.
            Null,
            /// `true` / `false`.
            Bool(bool),
            /// A number with no fraction/exponent that fits an `i64`.
            Int(i64),
            /// Any other number.
            Num(f64),
            /// A string (escapes already decoded).
            Str(String),
            /// An array.
            Arr(Vec<Json>),
            /// An object, in source order (duplicate keys keep the first).
            Obj(Vec<(String, Json)>),
        }

        impl Json {
            /// Member lookup on an object; `None` for other variants.
            pub fn get(&self, key: &str) -> Option<&Json> {
                match self {
                    Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                    _ => None,
                }
            }

            /// The string payload, if this is a string.
            pub fn as_str(&self) -> Option<&str> {
                match self {
                    Json::Str(s) => Some(s),
                    _ => None,
                }
            }

            /// The boolean payload, if this is a boolean.
            pub fn as_bool(&self) -> Option<bool> {
                match self {
                    Json::Bool(b) => Some(*b),
                    _ => None,
                }
            }

            /// The value as an `i64` (integers only).
            pub fn as_i64(&self) -> Option<i64> {
                match self {
                    Json::Int(i) => Some(*i),
                    _ => None,
                }
            }

            /// The value as a `u64` (non-negative integers only).
            pub fn as_u64(&self) -> Option<u64> {
                match self {
                    Json::Int(i) if *i >= 0 => Some(*i as u64),
                    _ => None,
                }
            }

            /// The value as an `f64` (integers widen).
            pub fn as_f64(&self) -> Option<f64> {
                match self {
                    Json::Int(i) => Some(*i as f64),
                    Json::Num(n) => Some(*n),
                    _ => None,
                }
            }

            /// The element list, if this is an array.
            pub fn as_arr(&self) -> Option<&[Json]> {
                match self {
                    Json::Arr(items) => Some(items),
                    _ => None,
                }
            }

            /// The member list, if this is an object.
            pub fn as_obj(&self) -> Option<&[(String, Json)]> {
                match self {
                    Json::Obj(members) => Some(members),
                    _ => None,
                }
            }
        }

        /// Where and why parsing failed (byte offset into the input line).
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct JsonError {
            /// Byte offset of the offending character.
            pub offset: usize,
            /// What went wrong.
            pub message: String,
        }

        impl fmt::Display for JsonError {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
            }
        }

        impl std::error::Error for JsonError {}

        /// Parses one complete JSON value; trailing non-whitespace is an error.
        pub fn parse(input: &str) -> Result<Json, JsonError> {
            let mut p = Parser {
                bytes: input.as_bytes(),
                pos: 0,
                depth: 0,
            };
            p.skip_ws();
            let value = p.value()?;
            p.skip_ws();
            if p.pos != p.bytes.len() {
                return Err(p.err("trailing characters after value"));
            }
            Ok(value)
        }

        /// Nesting bound: protocol messages are flat, so anything deeper is
        /// garbage, and bounding recursion keeps malformed input from overflowing
        /// the stack.
        const MAX_DEPTH: usize = 64;

        struct Parser<'a> {
            bytes: &'a [u8],
            pos: usize,
            depth: usize,
        }

        impl<'a> Parser<'a> {
            fn err(&self, message: impl Into<String>) -> JsonError {
                JsonError {
                    offset: self.pos,
                    message: message.into(),
                }
            }

            fn peek(&self) -> Option<u8> {
                self.bytes.get(self.pos).copied()
            }

            fn skip_ws(&mut self) {
                while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                    self.pos += 1;
                }
            }

            fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
                if self.peek() == Some(byte) {
                    self.pos += 1;
                    Ok(())
                } else {
                    Err(self.err(format!("expected '{}'", byte as char)))
                }
            }

            fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
                if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                    self.pos += word.len();
                    Ok(value)
                } else {
                    Err(self.err(format!("expected '{word}'")))
                }
            }

            fn value(&mut self) -> Result<Json, JsonError> {
                if self.depth >= MAX_DEPTH {
                    return Err(self.err("nesting too deep"));
                }
                match self.peek() {
                    Some(b'n') => self.literal("null", Json::Null),
                    Some(b't') => self.literal("true", Json::Bool(true)),
                    Some(b'f') => self.literal("false", Json::Bool(false)),
                    Some(b'"') => self.string().map(Json::Str),
                    Some(b'[') => self.array(),
                    Some(b'{') => self.object(),
                    Some(b'-' | b'0'..=b'9') => self.number(),
                    Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
                    None => Err(self.err("unexpected end of input")),
                }
            }

            fn array(&mut self) -> Result<Json, JsonError> {
                self.expect(b'[')?;
                self.depth += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            self.depth -= 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }

            fn object(&mut self) -> Result<Json, JsonError> {
                self.expect(b'{')?;
                self.depth += 1;
                let mut members: Vec<(String, Json)> = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let value = self.value()?;
                    if !members.iter().any(|(k, _)| *k == key) {
                        members.push((key, value));
                    }
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            self.depth -= 1;
                            return Ok(Json::Obj(members));
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }

            fn string(&mut self) -> Result<String, JsonError> {
                self.expect(b'"')?;
                let mut out = String::new();
                loop {
                    match self.peek() {
                        None => return Err(self.err("unterminated string")),
                        Some(b'"') => {
                            self.pos += 1;
                            return Ok(out);
                        }
                        Some(b'\\') => {
                            self.pos += 1;
                            let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                            self.pos += 1;
                            match esc {
                                b'"' => out.push('"'),
                                b'\\' => out.push('\\'),
                                b'/' => out.push('/'),
                                b'b' => out.push('\u{0008}'),
                                b'f' => out.push('\u{000C}'),
                                b'n' => out.push('\n'),
                                b'r' => out.push('\r'),
                                b't' => out.push('\t'),
                                b'u' => {
                                    let hi = self.hex4()?;
                                    let ch = if (0xD800..0xDC00).contains(&hi) {
                                        // Surrogate pair: a following \uXXXX low half.
                                        if self.peek() != Some(b'\\') {
                                            return Err(self.err("unpaired surrogate"));
                                        }
                                        self.pos += 1;
                                        if self.peek() != Some(b'u') {
                                            return Err(self.err("unpaired surrogate"));
                                        }
                                        self.pos += 1;
                                        let lo = self.hex4()?;
                                        if !(0xDC00..0xE000).contains(&lo) {
                                            return Err(self.err("invalid low surrogate"));
                                        }
                                        let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                        char::from_u32(code)
                                            .ok_or_else(|| self.err("invalid surrogate pair"))?
                                    } else {
                                        char::from_u32(hi)
                                            .ok_or_else(|| self.err("invalid \\u escape"))?
                                    };
                                    out.push(ch);
                                }
                                _ => return Err(self.err("invalid escape")),
                            }
                        }
                        Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                        Some(_) => {
                            // Copy one UTF-8 scalar (input is a &str, so boundaries
                            // are guaranteed well-formed).
                            let start = self.pos;
                            self.pos += 1;
                            while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xC0 == 0x80
                            {
                                self.pos += 1;
                            }
                            out.push_str(
                                std::str::from_utf8(&self.bytes[start..self.pos])
                                    .expect("input is valid UTF-8"),
                            );
                        }
                    }
                }
            }

            fn hex4(&mut self) -> Result<u32, JsonError> {
                let mut code = 0u32;
                for _ in 0..4 {
                    let c = self
                        .peek()
                        .ok_or_else(|| self.err("truncated \\u escape"))?;
                    let digit = (c as char)
                        .to_digit(16)
                        .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
                    code = code * 16 + digit;
                    self.pos += 1;
                }
                Ok(code)
            }

            fn number(&mut self) -> Result<Json, JsonError> {
                let start = self.pos;
                if self.peek() == Some(b'-') {
                    self.pos += 1;
                }
                match self.peek() {
                    Some(b'0') => self.pos += 1,
                    Some(b'1'..=b'9') => {
                        while matches!(self.peek(), Some(b'0'..=b'9')) {
                            self.pos += 1;
                        }
                    }
                    _ => return Err(self.err("expected digit")),
                }
                let mut integral = true;
                if self.peek() == Some(b'.') {
                    integral = false;
                    self.pos += 1;
                    if !matches!(self.peek(), Some(b'0'..=b'9')) {
                        return Err(self.err("expected digit after '.'"));
                    }
                    while matches!(self.peek(), Some(b'0'..=b'9')) {
                        self.pos += 1;
                    }
                }
                if matches!(self.peek(), Some(b'e' | b'E')) {
                    integral = false;
                    self.pos += 1;
                    if matches!(self.peek(), Some(b'+' | b'-')) {
                        self.pos += 1;
                    }
                    if !matches!(self.peek(), Some(b'0'..=b'9')) {
                        return Err(self.err("expected digit in exponent"));
                    }
                    while matches!(self.peek(), Some(b'0'..=b'9')) {
                        self.pos += 1;
                    }
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII");
                if integral {
                    if let Ok(i) = text.parse::<i64>() {
                        return Ok(Json::Int(i));
                    }
                }
                text.parse::<f64>()
                    .map(Json::Num)
                    .map_err(|_| self.err("number out of range"))
            }
        }
    }

    fn new_error(
        id: Option<String>,
        code: &'static str,
        message: impl Into<String>,
    ) -> ProtocolError {
        ProtocolError {
            id,
            code,
            message: message.into(),
        }
    }

    fn bad(id: &Option<String>, message: impl Into<String>) -> ProtocolError {
        new_error(id.clone(), "bad_request", message)
    }

    fn get_usize(
        obj: &Json,
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
    /// # Errors
    /// Returns a [`ProtocolError`] (code `bad_json`, `bad_request` or
    /// `unknown_engine`) describing the first problem found. The hypergraph
    /// and fixity vector are validated here, at ingress, so workers only ever
    /// see well-formed instances.
    pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
        let root = json::parse(line).map_err(|e| new_error(None, "bad_json", e.to_string()))?;
        if root.as_obj().is_none() {
            return Err(new_error(
                None,
                "bad_request",
                "request must be a JSON object",
            ));
        }

        if let Some(op) = root.get("op") {
            return match op.as_str() {
                Some("metrics") => Ok(Request::Metrics),
                Some("shutdown") => Ok(Request::Shutdown),
                _ => Err(new_error(
                    None,
                    "bad_request",
                    "'op' must be \"metrics\" or \"shutdown\"",
                )),
            };
        }

        let id = root
            .get("id")
            .and_then(|v| v.as_str())
            .map(|s| s.to_string());
        let Some(ref id_str) = id else {
            return Err(new_error(
                None,
                "bad_request",
                "job request missing string field 'id'",
            ));
        };

        let engine_name = root
            .get("engine")
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| bad(&id, "'engine' must be a string"))
            })
            .transpose()?
            .unwrap_or_else(|| "ml".to_string());
        // `UnknownEngine`'s Display already lists every valid name and alias;
        // surface it verbatim under the structured `unknown_engine` code.
        let engine = vlsi_partition::EngineConfig::by_name(&engine_name)
            .map_err(|e| new_error(id.clone(), "unknown_engine", e.to_string()))?;

        let k = get_usize(&root, "k", 2, &id)?;
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
        let starts = get_usize(&root, "starts", 1, &id)?;
        if starts == 0 {
            return Err(bad(&id, "'starts' must be >= 1"));
        }
        let threads = get_usize(&root, "threads", 1, &id)?;
        if threads == 0 {
            return Err(bad(&id, "'threads' must be >= 1"));
        }
        let seed = match root.get("seed") {
            None => 0,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| bad(&id, "'seed' must be a non-negative integer"))?,
        };
        let vcycles = get_usize(&root, "vcycles", 0, &id)?;
        let ensemble = match root.get("ensemble") {
            None => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| bad(&id, "'ensemble' must be a boolean"))?,
        };
        let deadline_ms = match root.get("deadline_ms") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| bad(&id, "'deadline_ms' must be a non-negative integer"))?,
            ),
        };
        let priority = match root.get("priority") {
            None => Lane::Batch,
            Some(v) => match v.as_str() {
                Some("interactive") => Lane::Interactive,
                Some("batch") => Lane::Batch,
                _ => return Err(bad(&id, "'priority' must be \"interactive\" or \"batch\"")),
            },
        };

        let objective = match root.get("objective") {
            None => Objective::Cut,
            Some(v) => match v.as_str() {
                Some("cut") => Objective::Cut,
                Some("km1") => Objective::KMinus1,
                _ => return Err(bad(&id, "'objective' must be \"cut\" or \"km1\"")),
            },
        };

        let mut hg = parse_hypergraph(&root, &id)?;
        if let Some(res) = root.get("resources") {
            hg = apply_resources(res, hg, &id)?;
        }
        let part_capacities = parse_part_capacities(&root, &id, k, &hg)?;
        let mut fixed = parse_fixed(&root, &id, hg.num_vertices(), k)?;

        let warm_from = match root.get("warm_start") {
            None => None,
            Some(ws) => {
                if ws.as_obj().is_none() {
                    return Err(bad(&id, "'warm_start' must be an object"));
                }
                let sid = ws
                    .get("solution_id")
                    .and_then(|v| v.as_str())
                    .ok_or_else(|| bad(&id, "'warm_start.solution_id' must be a string"))?
                    .to_string();
                if let Some(delta) = ws.get("delta") {
                    (hg, fixed) = apply_warm_delta(delta, &hg, &fixed, k, &id)?;
                }
                Some(sid)
            }
        };

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
            warm_from,
            objective,
            part_capacities,
            hg,
            fixed,
        })))
    }

    /// Applies the `resources` field — per-vertex multi-dimensional weight
    /// vectors — by rebuilding the instance's vertex side-table. Every vertex
    /// must carry the same arity (1..=[`MAX_RESOURCE_DIMS`]).
    fn apply_resources(
        res: &Json,
        hg: Hypergraph,
        id: &Option<String>,
    ) -> Result<Hypergraph, ProtocolError> {
        let rows = res.as_arr().ok_or_else(|| {
            bad(
                id,
                "'resources' must be an array of per-vertex weight vectors",
            )
        })?;
        if rows.len() != hg.num_vertices() {
            return Err(bad(
                id,
                format!(
                    "'resources' has {} rows, expected one per vertex ({})",
                    rows.len(),
                    hg.num_vertices()
                ),
            ));
        }
        let mut dims = 0usize;
        let mut flat: Vec<u64> = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            let row = row
                .as_arr()
                .ok_or_else(|| bad(id, format!("resources[{i}]: must be an array of integers")))?;
            if i == 0 {
                dims = row.len();
                if dims == 0 || dims > MAX_RESOURCE_DIMS {
                    return Err(bad(
                        id,
                        format!("'resources' arity must be 1..={MAX_RESOURCE_DIMS}, got {dims}"),
                    ));
                }
                flat.reserve(rows.len() * dims);
            } else if row.len() != dims {
                return Err(bad(
                    id,
                    format!("resources[{i}]: has {} entries, expected {dims}", row.len()),
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
        apply_multi_areas(&hg, dims, &flat).map_err(|e| bad(id, format!("'resources': {e}")))
    }

    /// Parses and validates `part_capacities` — `k` rows of per-resource
    /// maxima matching the instance's resource arity — and rejects capacity
    /// matrices that cannot hold the instance's totals with the structured
    /// `infeasible_capacities` code.
    fn parse_part_capacities(
        root: &Json,
        id: &Option<String>,
        k: usize,
        hg: &Hypergraph,
    ) -> Result<Option<PartCapacities>, ProtocolError> {
        let Some(pc) = root.get("part_capacities") else {
            return Ok(None);
        };
        let rows = pc.as_arr().ok_or_else(|| {
            bad(
                id,
                "'part_capacities' must be an array of per-part capacity vectors",
            )
        })?;
        if rows.len() != k {
            return Err(bad(
                id,
                format!(
                    "'part_capacities' has {} rows, expected k = {k}",
                    rows.len()
                ),
            ));
        }
        let dims = hg.num_resources();
        let mut flat: Vec<u64> = Vec::with_capacity(k * dims);
        for (p, row) in rows.iter().enumerate() {
            let row = row.as_arr().ok_or_else(|| {
                bad(
                    id,
                    format!("part_capacities[{p}]: must be an array of integers"),
                )
            })?;
            if row.len() != dims {
                return Err(bad(
                    id,
                    format!(
                        "part_capacities[{p}]: has {} entries, expected the instance's \
                         resource arity ({dims})",
                        row.len()
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
        if let Err(e) = caps.check_feasible(hg.total_weights()) {
            return Err(new_error(
                id.clone(),
                "infeasible_capacities",
                format!("capacity vectors cannot hold the instance: {e}"),
            ));
        }
        Ok(Some(caps))
    }

    /// Applies a `warm_start.delta` to the request's instance: drops
    /// `removed_nets` (by index), appends `added_nets`, re-pins
    /// `moved_fixed`. The vertex set is unchanged, so cached part vectors
    /// keep their meaning as warm seeds.
    fn apply_warm_delta(
        delta: &Json,
        hg: &Hypergraph,
        fixed: &FixedVertices,
        k: usize,
        id: &Option<String>,
    ) -> Result<(Hypergraph, FixedVertices), ProtocolError> {
        if delta.as_obj().is_none() {
            return Err(bad(id, "'warm_start.delta' must be an object"));
        }

        let mut removed = vec![false; hg.num_nets()];
        if let Some(v) = delta.get("removed_nets") {
            let arr = v
                .as_arr()
                .ok_or_else(|| bad(id, "'delta.removed_nets' must be an array of net indices"))?;
            for e in arr {
                let n = e
                    .as_u64()
                    .map(|u| u as usize)
                    .filter(|&u| u < hg.num_nets())
                    .ok_or_else(|| {
                        bad(
                            id,
                            format!(
                                "delta.removed_nets: index out of range 0..{}",
                                hg.num_nets()
                            ),
                        )
                    })?;
                removed[n] = true;
            }
        }

        let mut added = Vec::new();
        if let Some(v) = delta.get("added_nets") {
            let arr = v
                .as_arr()
                .ok_or_else(|| bad(id, "'delta.added_nets' must be an array of nets"))?;
            for (n, net) in arr.iter().enumerate() {
                added.push(parse_net_spec(net, n, hg.num_vertices(), id)?);
            }
        }

        let mut fixities: Vec<Fixity> = fixed.as_slice().to_vec();
        if let Some(v) = delta.get("moved_fixed") {
            let arr = v
                .as_arr()
                .ok_or_else(|| bad(id, "'delta.moved_fixed' must be an array of [vertex, part]"))?;
            for e in arr {
                let pair = e.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                    bad(id, "delta.moved_fixed: each entry must be [vertex, part]")
                })?;
                let v = pair[0]
                    .as_u64()
                    .map(|u| u as usize)
                    .filter(|&u| u < hg.num_vertices())
                    .ok_or_else(|| {
                        bad(
                            id,
                            format!(
                                "delta.moved_fixed: vertex out of range 0..{}",
                                hg.num_vertices()
                            ),
                        )
                    })?;
                fixities[v] = match pair[1].as_i64() {
                    Some(-1) => Fixity::Free,
                    Some(p) if (0..k as i64).contains(&p) => {
                        Fixity::Fixed(PartId::from_index(p as usize))
                    }
                    _ => {
                        return Err(bad(
                            id,
                            format!("delta.moved_fixed: part must be -1 (free) or in 0..{k}"),
                        ))
                    }
                };
            }
        }

        let kept = removed.iter().filter(|&&r| !r).count();
        // The fix: the rebuild keeps every resource dimension (the earlier
        // code re-added vertices with `hg.vertex_weight(v)` alone).
        let mut b = HypergraphBuilder::with_capacity_and_resources(
            hg.num_vertices(),
            kept + added.len(),
            0,
            hg.num_resources(),
        );
        let ids: Vec<_> = hg
            .vertices()
            .map(|v| {
                b.add_vertex_multi(hg.vertex_weights(v))
                    .expect("same resource arity")
            })
            .collect();
        for net in hg.nets() {
            if removed[net.index()] {
                continue;
            }
            let pins: Vec<_> = hg.net_pins(net).iter().map(|&v| ids[v.index()]).collect();
            b.add_net(hg.net_weight(net), pins)
                .map_err(|e| bad(id, format!("delta: {e}")))?;
        }
        for (n, (w, pins)) in added.into_iter().enumerate() {
            let pins: Vec<_> = pins.into_iter().map(|p| ids[p]).collect();
            b.add_net(w, pins)
                .map_err(|e| bad(id, format!("delta.added_nets[{n}]: {e}")))?;
        }
        let hg = b.build().map_err(|e| bad(id, format!("delta: {e}")))?;
        Ok((hg, FixedVertices::from_fixities(fixities)))
    }

    fn parse_hypergraph(root: &Json, id: &Option<String>) -> Result<Hypergraph, ProtocolError> {
        match (root.get("hypergraph"), root.get("hypergraph_path")) {
            (Some(_), Some(_)) => Err(bad(
                id,
                "give either 'hypergraph' or 'hypergraph_path', not both",
            )),
            (Some(inline), None) => parse_inline_hypergraph(inline, id),
            (None, Some(path)) => {
                let path = path
                    .as_str()
                    .ok_or_else(|| bad(id, "'hypergraph_path' must be a string"))?;
                let file =
                    File::open(path).map_err(|e| bad(id, format!("cannot open '{path}': {e}")))?;
                read_hgr(BufReader::new(file))
                    .map_err(|e| bad(id, format!("cannot parse '{path}': {e}")))
            }
            (None, None) => Err(bad(id, "missing 'hypergraph' or 'hypergraph_path'")),
        }
    }

    fn parse_inline_hypergraph(
        inline: &Json,
        id: &Option<String>,
    ) -> Result<Hypergraph, ProtocolError> {
        let vertices = inline
            .get("vertices")
            .and_then(|v| v.as_arr())
            .ok_or_else(|| bad(id, "'hypergraph.vertices' must be an array of weights"))?;
        if vertices.is_empty() {
            return Err(bad(id, "'hypergraph.vertices' must not be empty"));
        }
        let nets = inline
            .get("nets")
            .and_then(|v| v.as_arr())
            .ok_or_else(|| bad(id, "'hypergraph.nets' must be an array"))?;

        let mut b = HypergraphBuilder::with_capacity(vertices.len(), nets.len(), 0);
        let mut ids = Vec::with_capacity(vertices.len());
        for (i, w) in vertices.iter().enumerate() {
            let w = w.as_u64().ok_or_else(|| {
                bad(
                    id,
                    format!("vertex {i}: weight must be a non-negative integer"),
                )
            })?;
            ids.push(b.add_vertex(w));
        }
        for (n, net) in nets.iter().enumerate() {
            let (weight, pins) = parse_net_spec(net, n, ids.len(), id)?;
            let resolved: Vec<_> = pins.into_iter().map(|p| ids[p]).collect();
            b.add_net(weight, resolved)
                .map_err(|e| bad(id, format!("net {n}: {e}")))?;
        }
        b.build().map_err(|e| bad(id, format!("hypergraph: {e}")))
    }

    /// Parses one net spec — a plain pin array (weight 1) or
    /// `{"w":W,"pins":[...]}` — into a weight and pin indices validated
    /// against `num_vertices`.
    fn parse_net_spec(
        net: &Json,
        n: usize,
        num_vertices: usize,
        id: &Option<String>,
    ) -> Result<(u64, Vec<usize>), ProtocolError> {
        let (weight, pins) = match net {
            Json::Arr(pins) => (1, pins.as_slice()),
            obj @ Json::Obj(_) => {
                let w = match obj.get("w") {
                    None => 1,
                    Some(v) => v
                        .as_u64()
                        .ok_or_else(|| bad(id, format!("net {n}: 'w' must be an integer")))?,
                };
                let pins = obj
                    .get("pins")
                    .and_then(|v| v.as_arr())
                    .ok_or_else(|| bad(id, format!("net {n}: missing 'pins' array")))?;
                (w, pins)
            }
            _ => {
                return Err(bad(
                    id,
                    format!("net {n}: must be a pin array or {{\"w\":..,\"pins\":[..]}}"),
                ))
            }
        };
        let mut resolved = Vec::with_capacity(pins.len());
        for p in pins {
            let p = p
                .as_u64()
                .map(|u| u as usize)
                .filter(|&u| u < num_vertices)
                .ok_or_else(|| bad(id, format!("net {n}: pin out of range 0..{num_vertices}")))?;
            resolved.push(p);
        }
        Ok((weight, resolved))
    }

    fn parse_fixed(
        root: &Json,
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
                    File::open(path).map_err(|e| bad(id, format!("cannot open '{path}': {e}")))?;
                read_fix(BufReader::new(file), num_vertices)
                    .map_err(|e| bad(id, format!("cannot parse '{path}': {e}")))
            }
            (Some(arr), None) => {
                let entries = arr
                    .as_arr()
                    .ok_or_else(|| bad(id, "'fixed' must be an array of part ids (-1 = free)"))?;
                if entries.len() != num_vertices {
                    return Err(bad(
                        id,
                        format!(
                            "'fixed' has {} entries for {} vertices",
                            entries.len(),
                            num_vertices
                        ),
                    ));
                }
                let mut fixities = Vec::with_capacity(entries.len());
                for (i, e) in entries.iter().enumerate() {
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
}

/// A request under construction: JSON text fragments in a tree, so the
/// mutations can drop, reorder and duplicate members, re-spell keys and
/// numbers, and nest values, all before the text exists.
#[derive(Clone, Debug)]
enum Tree {
    /// Literal text: a number, a quoted string, `true`, `null`, ...
    Raw(String),
    Arr(Vec<Tree>),
    /// Members with their keys as quoted (possibly escaped) literals.
    Obj(Vec<(String, Tree)>),
}

impl Tree {
    fn num(x: impl std::fmt::Display) -> Tree {
        Tree::Raw(x.to_string())
    }

    fn string(s: &str) -> Tree {
        Tree::Raw(format!("\"{s}\""))
    }

    fn list<T: std::fmt::Display>(xs: &[T]) -> Tree {
        Tree::Arr(xs.iter().map(Tree::num).collect())
    }

    fn obj(members: Vec<(&str, Tree)>) -> Tree {
        Tree::Obj(
            members
                .into_iter()
                .map(|(k, v)| (format!("\"{k}\""), v))
                .collect(),
        )
    }

    fn emit(&self, out: &mut String) {
        match self {
            Tree::Raw(s) => out.push_str(s),
            Tree::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.emit(out);
                }
                out.push(']');
            }
            Tree::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(key);
                    out.push(':');
                    value.emit(out);
                }
                out.push('}');
            }
        }
    }

    /// Index paths of every node, the root included.
    fn paths(&self, at: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        out.push(at.clone());
        let children: Vec<&Tree> = match self {
            Tree::Raw(_) => Vec::new(),
            Tree::Arr(items) => items.iter().collect(),
            Tree::Obj(members) => members.iter().map(|(_, v)| v).collect(),
        };
        for (i, child) in children.into_iter().enumerate() {
            at.push(i);
            child.paths(at, out);
            at.pop();
        }
    }

    fn at_mut(&mut self, path: &[usize]) -> &mut Tree {
        match path.split_first() {
            None => self,
            Some((&i, rest)) => match self {
                Tree::Arr(items) => items[i].at_mut(rest),
                Tree::Obj(members) => members[i].1.at_mut(rest),
                Tree::Raw(_) => unreachable!("paths only lead through containers"),
            },
        }
    }
}

/// Number spellings the grammar types differently or the decoder must
/// refuse: floats that equal integers, `-0` (an integer), negatives,
/// integers just past `i64` and `u64`, and the edges of the scanner's
/// integer loop: leading zeros, a lone minus, and runs of 17 digits (the
/// loop's longest) to 20.
const NUMBER_FORMS: &[&str] = &[
    "2.0",
    "1e2",
    "-0",
    "-1",
    "9223372036854775808",
    "18446744073709551616",
    "0",
    "1",
    "-0.0",
    "1E2",
    "0.5",
    "3",
    "64",
    "01",
    "-01",
    "-",
    "12345678901234567",
    "-99999999999999999",
    "123456789012345678",
    "-576460752303423488",
    "1234567890123456789",
    "99999999999999999999",
];

/// `"key"` with its first character written as a `\u` escape.
fn escape_key(key: &str) -> String {
    let inner = &key[1..key.len() - 1];
    match inner.chars().next() {
        Some(c) if c.is_ascii() => format!("\"\\u{:04x}{}\"", c as u32, &inner[1..]),
        _ => key.to_string(),
    }
}

fn distinct_pins(rng: &mut TestRng, nv: usize, max: usize) -> Vec<usize> {
    let want = rng.gen_range(1..=max.min(nv));
    let mut pins = Vec::with_capacity(want);
    while pins.len() < want {
        let p = rng.gen_range(0..nv);
        if !pins.contains(&p) {
            pins.push(p);
        }
    }
    pins
}

fn net_tree(rng: &mut TestRng, pins: &[usize]) -> Tree {
    if rng.gen_bool(0.2) {
        Tree::obj(vec![
            ("w", Tree::num(rng.gen_range(0..4))),
            ("pins", Tree::list(pins)),
        ])
    } else {
        Tree::list(pins)
    }
}

/// A tiny `.hgr` (4 vertices, 3 nets) and `.fix` for the file-based
/// requests, written once per test process.
fn instance_files() -> &'static (String, String) {
    static FILES: OnceLock<(String, String)> = OnceLock::new();
    FILES.get_or_init(|| {
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
        let hgr = dir.join(format!("decode_differential_{}.hgr", std::process::id()));
        let fix = dir.join(format!("decode_differential_{}.fix", std::process::id()));
        std::fs::write(&hgr, "3 4\n1 2\n2 3\n3 4\n").expect("write .hgr");
        std::fs::write(&fix, "0\n-1\n-1\n1\n").expect("write .fix");
        (
            hgr.to_string_lossy().into_owned(),
            fix.to_string_lossy().into_owned(),
        )
    })
}

/// A valid request of one of four shapes: an ECO-style warm request with
/// a netlist delta (fields in the benchmark script's order), a
/// heterogeneous k-way request with resource vectors and per-part
/// capacities, a request leaning on its fixity vector, or a file-based
/// request. Each shape then has a fair chance of carrying one or more
/// semantic errors — out-of-range pins, removals or re-pins, duplicate
/// pins in inline or added nets, empty nets — often in both the inline
/// nets and the delta at once.
fn base_request(rng: &mut TestRng) -> Tree {
    let kind = rng.gen_range(0..4);
    let nv = if kind == 3 { 4 } else { rng.gen_range(1..=20) };
    let k = if kind == 1 { rng.gen_range(2..=4) } else { 2 };
    let num_nets = if kind == 3 { 3 } else { rng.gen_range(0..=24) };
    let mut nets: Vec<Vec<usize>> = (0..num_nets).map(|_| distinct_pins(rng, nv, 4)).collect();
    let fault = |rng: &mut TestRng| rng.gen_bool(0.08);
    if !nets.is_empty() && fault(rng) {
        let n = rng.gen_range(0..nets.len());
        let p = nets[n][0];
        nets[n].push(p); // duplicate pin in an inline net
    }
    if !nets.is_empty() && fault(rng) {
        let n = rng.gen_range(0..nets.len());
        nets[n].push(nv + rng.gen_range(0..2usize)); // pin out of range
    }
    if !nets.is_empty() && fault(rng) {
        let n = rng.gen_range(0..nets.len());
        nets[n].clear(); // empty net
    }

    let mut members: Vec<(&str, Tree)> = vec![
        (
            "id",
            Tree::string(&format!("d{}v{}", rng.gen_range(0..4), kind)),
        ),
        (
            "engine",
            Tree::string(if kind == 1 { "kway" } else { "ml" }),
        ),
        ("k", Tree::num(k)),
        ("tolerance", Tree::num("0.1")),
        ("starts", Tree::num(2)),
        ("vcycles", Tree::num(1)),
        ("seed", Tree::num(rng.gen_range(0..1_000_000u64))),
    ];

    if kind == 0 || rng.gen_bool(0.35) {
        let mut removed: Vec<usize> = (0..num_nets).filter(|_| rng.gen_bool(0.2)).collect();
        if fault(rng) {
            removed.push(num_nets); // removal out of range
        }
        let mut added: Vec<Vec<usize>> = (0..rng.gen_range(0..=4))
            .map(|_| distinct_pins(rng, nv, 4))
            .collect();
        if !added.is_empty() && fault(rng) {
            let n = rng.gen_range(0..added.len());
            let p = added[n][0];
            added[n].push(p); // duplicate pin in an added net
        }
        if !added.is_empty() && fault(rng) {
            let n = rng.gen_range(0..added.len());
            added[n].clear(); // empty added net
        }
        let mut moved: Vec<Tree> = (0..rng.gen_range(0..=3))
            .map(|_| {
                let part = rng.gen_range(-1..k as i64);
                Tree::Arr(vec![Tree::num(rng.gen_range(0..nv)), Tree::num(part)])
            })
            .collect();
        if fault(rng) {
            moved.push(Tree::Arr(vec![Tree::num(nv), Tree::num(0)])); // vertex out of range
        }
        if fault(rng) {
            moved.push(Tree::Arr(vec![Tree::num(0), Tree::num(k)])); // part out of range
        }
        let added = Tree::Arr(added.iter().map(|pins| net_tree(rng, pins)).collect());
        let mut delta = vec![
            ("removed_nets", Tree::list(&removed)),
            ("added_nets", added),
        ];
        if !moved.is_empty() {
            delta.push(("moved_fixed", Tree::Arr(moved)));
        }
        members.push((
            "warm_start",
            Tree::obj(vec![
                ("solution_id", Tree::string("s00c0ffee00c0ffee")),
                ("delta", Tree::obj(delta)),
            ]),
        ));
    }

    let fixed_share = match kind {
        0 => 0.1,
        2 => 0.6,
        _ => 0.2,
    };
    let mut fixed: Vec<i64> = (0..nv)
        .map(|_| {
            if rng.gen_bool(fixed_share) {
                rng.gen_range(0..k as i64)
            } else {
                -1
            }
        })
        .collect();
    if fault(rng) {
        let v = rng.gen_range(0..nv);
        fixed[v] = k as i64; // part out of range
    }

    if kind == 3 {
        let (hgr, fix) = instance_files();
        members.push(("hypergraph_path", Tree::string(hgr)));
        if rng.gen_bool(0.5) {
            members.push(("fixed_path", Tree::string(fix)));
        } else {
            members.push(("fixed", Tree::list(&fixed)));
        }
    } else {
        if kind != 1 || rng.gen_bool(0.5) {
            members.push(("fixed", Tree::list(&fixed)));
        }
        let weights: Vec<u64> = (0..nv).map(|_| rng.gen_range(0..4)).collect();
        let nets = Tree::Arr(nets.iter().map(|pins| net_tree(rng, pins)).collect());
        members.push((
            "hypergraph",
            Tree::obj(vec![("vertices", Tree::list(&weights)), ("nets", nets)]),
        ));
    }

    if kind == 1 || kind == 3 || rng.gen_bool(0.15) {
        let dims = rng.gen_range(1..=3);
        let rows: Vec<Vec<u64>> = (0..nv)
            .map(|_| (0..dims).map(|_| rng.gen_range(0..4)).collect())
            .collect();
        let mut totals = vec![0u64; dims];
        for row in &rows {
            for (t, w) in totals.iter_mut().zip(row) {
                *t += w;
            }
        }
        members.push((
            "resources",
            Tree::Arr(rows.iter().map(|r| Tree::list(r)).collect()),
        ));
        if kind == 1 || rng.gen_bool(0.5) {
            // Mostly roomy rows; sometimes too tight to hold the totals.
            let tight = rng.gen_bool(0.2);
            let caps: Vec<Tree> = (0..k)
                .map(|_| {
                    let row: Vec<u64> = totals
                        .iter()
                        .map(|&t| if tight { t / (k as u64 + 1) } else { t })
                        .collect();
                    Tree::list(&row)
                })
                .collect();
            members.push(("part_capacities", Tree::Arr(caps)));
            members.push(("objective", Tree::string("km1")));
        }
    }

    if kind != 0 {
        members.shuffle(rng);
    }
    Tree::obj(members)
}

/// One structure-aware mutation at a random node.
fn mutate(tree: &mut Tree, rng: &mut TestRng) {
    let mut paths = Vec::new();
    tree.paths(&mut Vec::new(), &mut paths);
    let path = paths.choose(rng).expect("the root is a path").clone();
    let node = tree.at_mut(&path);
    match node {
        Tree::Obj(members) if !members.is_empty() => {
            let i = rng.gen_range(0..members.len());
            match rng.gen_range(0..4) {
                0 => {
                    members.remove(i);
                }
                1 => {
                    let j = rng.gen_range(0..members.len());
                    members.swap(i, j);
                }
                2 => {
                    // A duplicate key: the first occurrence must win,
                    // wherever the copy lands and whatever it holds.
                    let (key, mut value) = members[i].clone();
                    if rng.gen_bool(0.5) {
                        value = Tree::num(NUMBER_FORMS.choose(rng).expect("forms"));
                    }
                    let at = rng.gen_range(0..=members.len());
                    members.insert(at, (key, value));
                }
                _ => members[i].0 = escape_key(&members[i].0),
            }
        }
        Tree::Arr(items) if !items.is_empty() => {
            let i = rng.gen_range(0..items.len());
            match rng.gen_range(0..5) {
                0 => {
                    items.remove(i);
                }
                1 => {
                    let copy = items[i].clone();
                    items.push(copy); // a repeated pin, row or entry
                }
                2 => items[i] = Tree::num(rng.gen_range(0..40)),
                3 => items.clear(),
                _ => {
                    let j = rng.gen_range(0..items.len());
                    items.swap(i, j);
                }
            }
        }
        _ => match rng.gen_range(0..5) {
            0 | 1 => *node = Tree::num(NUMBER_FORMS.choose(rng).expect("forms")),
            2 => {
                // Nesting around the 64-level bound.
                let depth = rng.gen_range(58..=68);
                let mut wrapped = node.clone();
                for _ in 0..depth {
                    wrapped = Tree::Arr(vec![wrapped]);
                }
                *node = wrapped;
            }
            3 => {
                *node = [
                    Tree::Raw("null".into()),
                    Tree::Raw("true".into()),
                    Tree::string("x"),
                    Tree::string("s\\u0030\\n"),
                    Tree::obj(Vec::new()),
                    Tree::Arr(Vec::new()),
                ]
                .choose(rng)
                .expect("choices")
                .clone()
            }
            _ => {
                if let Tree::Raw(s) = node {
                    if s.starts_with('"') && s.len() > 2 {
                        *s = escape_key(s);
                    }
                }
            }
        },
    }
}

/// Cuts the text just before or after one of its structural bytes.
fn truncate_at_structure(text: &mut String, rng: &mut TestRng) {
    let cuts: Vec<usize> = text
        .bytes()
        .enumerate()
        .filter(|(_, b)| b"{}[],:\"".contains(b))
        .map(|(i, _)| i)
        .collect();
    if let Some(&at) = cuts.choose(rng) {
        text.truncate(at + usize::from(rng.gen_bool(0.5)));
    }
}

/// Ends the text right after the last digit of one of its numbers, or
/// puts a space or a `}` between that digit and what follows.
fn break_after_a_digit(text: &mut String, rng: &mut TestRng) {
    let ends: Vec<usize> = text
        .as_bytes()
        .windows(2)
        .enumerate()
        .filter(|(_, w)| w[0].is_ascii_digit() && !w[1].is_ascii_digit())
        .map(|(i, _)| i + 1)
        .collect();
    if let Some(&at) = ends.choose(rng) {
        match rng.gen_range(0..3) {
            0 => text.truncate(at),
            1 => text.insert(at, ' '),
            _ => text.insert(at, '}'),
        }
    }
}

/// A request line: a valid base request, up to four mutations, and now
/// and then a truncation, extra whitespace or a number broken off.
fn request_lines() -> impl Fn(&mut TestRng) -> String {
    |rng: &mut TestRng| {
        let mut tree = base_request(rng);
        for _ in 0..rng.gen_range(0..=4) {
            mutate(&mut tree, rng);
        }
        let mut text = String::new();
        tree.emit(&mut text);
        match rng.gen_range(0..10) {
            0 => truncate_at_structure(&mut text, rng),
            1 => text = text.replace(',', " ,\t").replace(':', ": "),
            2 => break_after_a_digit(&mut text, rng),
            _ => {}
        }
        text
    }
}

/// Both decoders give the same answer for `line`, and both JSON parsers
/// the same tree or error.
fn assert_decoders_agree(line: &str) {
    let new = parse_request(line);
    let old = reference::parse_request(line);
    assert!(
        new == old,
        "decoders disagree on {line}\n new: {new:?}\n reference: {old:?}"
    );
    let new = format!("{:?}", json::parse(line));
    let old = format!("{:?}", reference::json::parse(line));
    assert_eq!(new, old, "JSON parsers disagree on {line}");
}

/// Token soup over the grammar's corner cases: escapes (surrogate pairs,
/// lone halves, bad hex), control and multi-byte characters, literals cut
/// short, number spellings and brackets, so the scanner's errors and
/// their byte offsets are compared where requests never go.
fn token_soup() -> impl Fn(&mut TestRng) -> String {
    const TOKENS: &[&str] = &[
        "{",
        "}",
        "[",
        "]",
        ",",
        ":",
        " ",
        "\t",
        "\n",
        "\"",
        "\"id\"",
        "\"k\"",
        "\"a\\n\"",
        "\"\\u0041\"",
        "\"\\ud83d\\ude00\"",
        "\"\\ud83d\"",
        "\"\\udc00\"",
        "\"\\ud83d\\u0041\"",
        "\"\\u00",
        "\"\\ud83dx\"",
        "\"\\u12g4\"",
        "\"\\x\"",
        "\"\u{1}\"",
        "\"é\"",
        "é",
        "\\",
        "true",
        "tru",
        "false",
        "null",
        "nul",
        "0",
        "-0",
        "01",
        "1.",
        "1.5",
        "-",
        "1e",
        "1e+2",
        "2E-3",
        "9223372036854775807",
        "-9223372036854775808",
        "9223372036854775808",
        "1e400",
        "7",
        "-01",
        "12345678901234567",
        "-12345678901234567",
        "123456789012345678",
        "1234567890123456789",
        "12345678901234567890",
    ];
    |rng: &mut TestRng| {
        (0..rng.gen_range(0..24))
            .map(|_| *TOKENS.choose(rng).expect("tokens"))
            .collect()
    }
}

prop_test! {
    #[cases(1500)]
    fn decoders_agree_on_mutated_requests(line in request_lines()) {
        assert_decoders_agree(&line);
    }

    #[cases(1500)]
    fn parsers_agree_on_token_soup(text in token_soup()) {
        assert_decoders_agree(&text);
    }
}

/// The lines the protocol unit tests send, plus the edge cases they skip.
#[test]
fn decoders_agree_on_the_protocol_test_lines() {
    let hg = r#""hypergraph":{"vertices":[1,1],"nets":[[0,1]]}"#;
    let mut lines: Vec<String> = [
        r#"{"id":"j1","engine":"fm","starts":2,"seed":3, "hypergraph":{"vertices":[1,1,1,1],"nets":[[0,1],[1,2],{"w":2,"pins":[2,3]}]}, "fixed":[0,-1,-1,1]}"#,
        r#"{"id":"q","vcycles":3,"ensemble":true, "hypergraph":{"vertices":[1,1],"nets":[[0,1]]}}"#,
        r#"{"id":"q","ensemble":"yes","hypergraph":{"vertices":[1,1],"nets":[[0,1]]}}"#,
        r#"{"id":"q","vcycles":-1,"hypergraph":{"vertices":[1,1],"nets":[[0,1]]}}"#,
        r#"{"id":"a","engine":"multilevel","hypergraph":{"vertices":[1,1],"nets":[[0,1]]}}"#,
        r#"{"op":"metrics"}"#,
        r#"{"op":"shutdown"}"#,
        "{not json",
        "[1,2]",
        r#"{"op":"dance"}"#,
        r#"{"engine":"fm"}"#,
        r#"{"id":"x","engine":"quantum","hypergraph":{"vertices":[1],"nets":[]}}"#,
        r#"{"id":"x","hypergraph":{"vertices":[],"nets":[]}}"#,
        r#"{"id":"x","hypergraph":{"vertices":[1,1],"nets":[[0,5]]}}"#,
        r#"{"id":"x","k":1,"hypergraph":{"vertices":[1,1],"nets":[[0,1]]}}"#,
        r#"{"id":"x","k":65,"hypergraph":{"vertices":[1,1],"nets":[[0,1]]}}"#,
        r#"{"id":"x","hypergraph":{"vertices":[1,1],"nets":[[0,1]]},"fixed":[0]}"#,
        r#"{"id":"x","hypergraph":{"vertices":[1,1],"nets":[[0,1]]},"fixed":[0,7]}"#,
        r#"{"id":"x","tolerance":-0.5,"hypergraph":{"vertices":[1,1],"nets":[[0,1]]}}"#,
        r#"{"id":"x","starts":0,"hypergraph":{"vertices":[1,1],"nets":[[0,1]]}}"#,
        r#"{"id":"x"}"#,
        r#"{"id":"p","priority":"interactive", "hypergraph":{"vertices":[1,1],"nets":[[0,1]]}}"#,
        r#"{"id":"p","priority":"urgent","hypergraph":{"vertices":[1,1],"nets":[[0,1]]}}"#,
        r#"{"id":"w","warm_start":{"solution_id":"s0011223344556677"}, "hypergraph":{"vertices":[1,1,1,1],"nets":[[0,1],[2,3]]}}"#,
        r#"{"id":"w","k":2, "hypergraph":{"vertices":[1,1,1,1],"nets":[[0,1],[1,2],[2,3]]}, "fixed":[0,-1,-1,-1], "warm_start":{"solution_id":"s0000000000000001","delta":{ "removed_nets":[1], "added_nets":[{"w":3,"pins":[0,3]}], "moved_fixed":[[1,1],[0,-1]]}}}"#,
        r#"{"id":"w","hypergraph":{"vertices":[1,1,1],"nets":[[0,1],[1,2]]},"resources":[[1,5],[2,6],[3,7]],"part_capacities":[[6,18],[6,18]],"warm_start":{"solution_id":"s1","delta":{"removed_nets":[0],"added_nets":[[0,2]]}}}"#,
        r#"{"id":"e","deadline_ms":null,"hypergraph":{"vertices":[1],"nets":[[0,0]]}}"#,
        r#"{"id":"e","hypergraph":{"vertices":[1,1],"nets":[[0,1],[]]},"warm_start":{"solution_id":"s","delta":{"removed_nets":[1]}}}"#,
        r#"{"id":"e","hypergraph":{"vertices":[1,1],"nets":[[0,1],[1,1]]},"warm_start":{"solution_id":"s","delta":{"removed_nets":[0],"added_nets":[[0,0]]}}}"#,
        r#"{"id":"e","hypergraph":{"vertices":[1,1],"nets":[[0,1]]},"warm_start":{"solution_id":"s","delta":{"added_nets":[[1,1]],"moved_fixed":[[5,0]]}}}"#,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for delta in [
        "{}",
        r#"{"removed_nets":[5]}"#,
        r#"{"added_nets":[[0,9]]}"#,
        r#"{"moved_fixed":[[9,0]]}"#,
        r#"{"moved_fixed":[[0,5]]}"#,
    ] {
        lines.push(format!(
            r#"{{"id":"w","warm_start":{{"solution_id":"s0","delta":{delta}}},{hg}}}"#
        ));
    }
    lines.push(format!(r#"{{"id":"w","warm_start":{{}},{hg}}}"#));
    // The scanner's integer loop: each edge as a pin, a weight and a
    // fixity, in a run, and followed by a space, a `}` or the end of the
    // line.
    let long = |digits: usize| "1234567890".repeat(2)[..digits].to_string();
    let ints = ["0", "01", "-0", "-01", "-", "-1", "7", "63"]
        .map(String::from)
        .into_iter()
        .chain((17..=20).flat_map(|d| [long(d), format!("-{}", long(d))]));
    for int in ints {
        lines.push(format!(
            r#"{{"id":"n","hypergraph":{{"vertices":[{int},1],"nets":[[{int},1],[1,{int}]]}},"fixed":[{int},-1]}}"#
        ));
        for text in [
            "[{int}",
            "[{int} ]",
            "[{int}}",
            "[{int},{int}]",
            "[0,{int}]}",
        ] {
            lines.push(text.replace("{int}", &int));
        }
    }
    // An integer in an array at the depth bound, and one level past it.
    for depth in [63, 64] {
        for int in ["1", "-1", "01"] {
            lines.push("[".repeat(depth) + int + &"]".repeat(depth));
        }
        let nested = "[".repeat(depth - 1) + "0" + &"]".repeat(depth - 1);
        lines.push(format!(
            r#"{{"id":"d","hypergraph":{{"vertices":[1,1],"nets":[[0,1]]}},"x":{nested}}}"#
        ));
    }
    lines.push("[".repeat(70) + &"]".repeat(70));
    lines.push(format!(r#"{{"\u0069d":"x",{hg},"id":"y"}}"#));
    for line in &lines {
        assert_decoders_agree(line);
    }
}
