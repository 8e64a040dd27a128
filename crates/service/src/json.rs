//! Minimal hand-rolled JSON — the workspace is hermetic, so the protocol
//! layer parses and prints its own JSON instead of pulling in serde.
//!
//! The parser accepts exactly the JSON grammar (RFC 8259) with one
//! practical split: numbers without a fraction or exponent that fit an
//! `i64` become [`Json::Int`], everything else [`Json::Num`]. This keeps
//! vertex counts, cuts and seeds exact — `f64` round-tripping would
//! silently corrupt integers above 2^53.
//!
//! One scanner implements the grammar. It validates a text in a single
//! pass and records a flat index of its values: one 8-byte node per value
//! in document order, where a container's node says where its subtree
//! ends, a small integer's node holds the integer, and any other number's
//! or string's node where it starts in the text. An array element that
//! is a plain integer, the bulk of a job line, is scanned in one tight
//! loop that pushes the node the general path would, and a nested array
//! (a net's pin list) skips the general dispatch. The request decoder
//! reads its fields straight off that index (`Doc`), so a job line's
//! instance arrays never become a tree; [`parse`] turns the same index
//! into a [`Json`] tree for callers that want owned values, such as
//! clients reading response lines.

use std::borrow::Cow;
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
    Doc::parse(input).map(|doc| doc.root().to_json())
}

/// Nesting bound: protocol messages are flat, so anything deeper is
/// garbage, and bounding recursion keeps malformed input from overflowing
/// the stack.
const MAX_DEPTH: usize = 64;

/// Most digits of an integer [`Scanner::int_element`] takes: any such
/// integer lies inside [`Node::INT_RANGE`].
const MAX_INT_DIGITS: usize = 17;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tag {
    Null,
    False,
    True,
    /// An integer in the 60-bit payload's range, stored in the node.
    Int,
    /// Any other number, read again from the text when asked for.
    Wide,
    /// A string without escapes: its bytes are its value.
    Str,
    /// A string with at least one escape, decoded on demand.
    EscStr,
    Arr,
    Obj,
}

const TAGS: [Tag; 9] = [
    Tag::Null,
    Tag::False,
    Tag::True,
    Tag::Int,
    Tag::Wide,
    Tag::Str,
    Tag::EscStr,
    Tag::Arr,
    Tag::Obj,
];

/// One value of a scanned text: a 4-bit tag under a 60-bit payload.
/// `Int`: the integer; `Wide`, `Str`, `EscStr`: the byte offset where the
/// value starts in the text; `Arr`, `Obj`: the index one past the
/// subtree.
#[derive(Debug, Clone, Copy)]
struct Node(u64);

impl Node {
    /// Smallest and one past the largest integer an `Int` node holds.
    const INT_RANGE: std::ops::Range<i64> = -(1 << 59)..1 << 59;

    fn new(tag: Tag, payload: u64) -> Node {
        Node(payload << 4 | tag as u64)
    }

    fn tag(self) -> Tag {
        TAGS[(self.0 & 0xF) as usize]
    }

    /// Whether the node's tag is `tag`: the index walks test this per
    /// node, and it skips [`Node::tag`]'s table lookup.
    fn is(self, tag: Tag) -> bool {
        self.0 & 0xF == tag as u64
    }

    fn payload(self) -> usize {
        (self.0 >> 4) as usize
    }

    /// An `Int` node's integer (the shift sign-extends the payload).
    fn int(self) -> i64 {
        self.0 as i64 >> 4
    }
}

/// A number as the grammar types it.
#[derive(Debug, Clone, Copy)]
enum Number {
    Int(i64),
    Num(f64),
}

/// A validated JSON text and the flat index of its values (an object's
/// members are a key node followed by the value's nodes).
pub(crate) struct Doc<'a> {
    text: &'a str,
    nodes: Vec<Node>,
}

impl<'a> Doc<'a> {
    /// Validates `text` as one complete JSON value and indexes it.
    pub(crate) fn parse(text: &'a str) -> Result<Self, JsonError> {
        let mut s = Scanner {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            // Every value takes a byte and is followed by another (a
            // separator, a closing bracket or the end), so this one
            // allocation holds the whole index.
            nodes: Vec::with_capacity(text.len() / 2 + 1),
        };
        s.skip_ws();
        s.value()?;
        s.skip_ws();
        if s.pos != s.bytes.len() {
            return Err(s.err("trailing characters after value"));
        }
        Ok(Doc {
            text,
            nodes: s.nodes,
        })
    }

    /// The top-level value.
    pub(crate) fn root(&self) -> Value<'_> {
        Value { doc: self, at: 0 }
    }
}

/// A value inside a [`Doc`]; the accessors mirror [`Json`]'s.
#[derive(Clone, Copy)]
pub(crate) struct Value<'d> {
    doc: &'d Doc<'d>,
    at: usize,
}

impl<'d> Value<'d> {
    fn node(self) -> Node {
        self.doc.nodes[self.at]
    }

    fn tag(self) -> Tag {
        self.node().tag()
    }

    /// The index one past this value's subtree.
    fn end(self) -> usize {
        let node = self.node();
        if node.is(Tag::Arr) || node.is(Tag::Obj) {
            node.payload()
        } else {
            self.at + 1
        }
    }

    /// Whether this is `null`.
    pub(crate) fn is_null(self) -> bool {
        self.tag() == Tag::Null
    }

    /// Whether this is an object.
    pub(crate) fn is_obj(self) -> bool {
        self.tag() == Tag::Obj
    }

    /// The boolean payload, if this is a boolean.
    pub(crate) fn as_bool(self) -> Option<bool> {
        match self.tag() {
            Tag::True => Some(true),
            Tag::False => Some(false),
            _ => None,
        }
    }

    fn number(self) -> Option<Number> {
        let node = self.node();
        match node.tag() {
            Tag::Int => Some(Number::Int(node.int())),
            Tag::Wide => Scanner::at(self.doc.text, node.payload()).number().ok(),
            _ => None,
        }
    }

    /// The value as an `i64` (integers only).
    pub(crate) fn as_i64(self) -> Option<i64> {
        match self.number()? {
            Number::Int(i) => Some(i),
            Number::Num(_) => None,
        }
    }

    /// The value as a `u64` (non-negative integers only).
    pub(crate) fn as_u64(self) -> Option<u64> {
        self.as_i64().filter(|i| *i >= 0).map(|i| i as u64)
    }

    /// The value as an `f64` (integers widen).
    pub(crate) fn as_f64(self) -> Option<f64> {
        match self.number()? {
            Number::Int(i) => Some(i as f64),
            Number::Num(n) => Some(n),
        }
    }

    /// The string payload, if this is a string: borrowed from the text
    /// unless it had escapes to decode.
    pub(crate) fn as_str(self) -> Option<Cow<'d, str>> {
        let node = self.node();
        let start = node.payload();
        match node.tag() {
            Tag::Str => {
                let body = &self.doc.text[start + 1..];
                let len = body.bytes().position(|b| b == b'"')?;
                Some(Cow::Borrowed(&body[..len]))
            }
            Tag::EscStr => {
                let mut out = String::new();
                Scanner::at(self.doc.text, start)
                    .string(Some(&mut out))
                    .ok()
                    .map(|_| Cow::Owned(out))
            }
            _ => None,
        }
    }

    /// Whether this is a string equal to `key`.
    fn is_key(self, key: &str) -> bool {
        let node = self.node();
        match node.tag() {
            // An escape-free string equals `key` when its bytes start
            // with `key` and the closing quote follows right after.
            Tag::Str => {
                let body = &self.doc.text.as_bytes()[node.payload() + 1..];
                body.starts_with(key.as_bytes()) && body.get(key.len()) == Some(&b'"')
            }
            Tag::EscStr => self.as_str().is_some_and(|s| s == key),
            _ => false,
        }
    }

    /// The elements, if this is an array.
    pub(crate) fn as_arr(self) -> Option<Elems<'d>> {
        self.node().is(Tag::Arr).then(|| Elems {
            doc: self.doc,
            at: self.at + 1,
            end: self.end(),
        })
    }

    /// `(key, value)` pairs in source order, duplicates included; empty
    /// for anything but an object.
    fn members(self) -> impl Iterator<Item = (Value<'d>, Value<'d>)> {
        let doc = self.doc;
        let end = if self.is_obj() { self.end() } else { self.at };
        let mut at = self.at + 1;
        std::iter::from_fn(move || {
            if at >= end {
                return None;
            }
            let key = Value { doc, at };
            let value = Value { doc, at: at + 1 };
            at = value.end();
            Some((key, value))
        })
    }

    /// Member lookup on an object (the first of duplicate keys wins);
    /// `None` for other values.
    pub(crate) fn get(self, key: &str) -> Option<Value<'d>> {
        self.members()
            .find(|(k, _)| k.is_key(key))
            .map(|(_, value)| value)
    }

    /// This value as an owned tree.
    fn to_json(self) -> Json {
        match self.tag() {
            Tag::Null => Json::Null,
            Tag::False => Json::Bool(false),
            Tag::True => Json::Bool(true),
            Tag::Int | Tag::Wide => match self.number() {
                Some(Number::Int(i)) => Json::Int(i),
                Some(Number::Num(n)) => Json::Num(n),
                None => Json::Null,
            },
            Tag::Str | Tag::EscStr => Json::Str(self.as_str().unwrap_or_default().into_owned()),
            Tag::Arr => Json::Arr(
                self.as_arr()
                    .into_iter()
                    .flatten()
                    .map(Value::to_json)
                    .collect(),
            ),
            Tag::Obj => {
                let mut members: Vec<(String, Json)> = Vec::new();
                for (key, value) in self.members() {
                    let key = key.as_str().unwrap_or_default();
                    if !members.iter().any(|(k, _)| *k == key) {
                        members.push((key.into_owned(), value.to_json()));
                    }
                }
                Json::Obj(members)
            }
        }
    }
}

/// The elements of an array [`Value`], in order.
#[derive(Clone)]
pub(crate) struct Elems<'d> {
    doc: &'d Doc<'d>,
    at: usize,
    end: usize,
}

impl<'d> Elems<'d> {
    /// Number of elements.
    pub(crate) fn len(&self) -> usize {
        // Without a container among them, the nodes are the elements.
        let nodes = &self.doc.nodes[self.at..self.end];
        if nodes
            .iter()
            .all(|node| !node.is(Tag::Arr) && !node.is(Tag::Obj))
        {
            nodes.len()
        } else {
            self.clone().count()
        }
    }

    /// Whether there are no elements.
    pub(crate) fn is_empty(&self) -> bool {
        self.at >= self.end
    }

    /// Number of index nodes the elements span: an upper bound on the
    /// scalars they hold, for sizing what they decode into.
    pub(crate) fn nodes(&self) -> usize {
        self.end - self.at
    }

    /// The elements as indices below `bound`, read straight off the
    /// index, when every element is an integer in `0..bound` that its node
    /// holds (inside [`Node::INT_RANGE`]); `None` when any element is
    /// something else.
    pub(crate) fn indices_below(&self, bound: usize) -> Option<impl Iterator<Item = usize> + 'd> {
        // Such an element is one node, so the nodes are the elements; a
        // negative integer wraps past any `bound`.
        let nodes = &self.doc.nodes[self.at..self.end];
        nodes
            .iter()
            .all(|node| node.is(Tag::Int) && (node.int() as u64) < bound as u64)
            .then(|| nodes.iter().map(|node| node.int() as usize))
    }
}

impl<'d> Iterator for Elems<'d> {
    type Item = Value<'d>;

    fn next(&mut self) -> Option<Value<'d>> {
        if self.at >= self.end {
            return None;
        }
        let value = Value {
            doc: self.doc,
            at: self.at,
        };
        self.at = value.end();
        Some(value)
    }
}

/// The grammar: a validating recursive-descent pass that pushes one
/// [`Node`] per value.
struct Scanner<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    nodes: Vec<Node>,
}

impl<'a> Scanner<'a> {
    /// A scanner positioned at `pos` of an already validated `text`.
    fn at(text: &'a str, pos: usize) -> Self {
        Scanner {
            text,
            bytes: text.as_bytes(),
            pos,
            depth: 0,
            nodes: Vec::new(),
        }
    }

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

    fn push(&mut self, tag: Tag, payload: usize) {
        self.nodes.push(Node::new(tag, payload as u64));
    }

    fn literal(&mut self, word: &str, tag: Tag) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            self.push(tag, 0);
            Ok(())
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<(), JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Tag::Null),
            Some(b't') => self.literal("true", Tag::True),
            Some(b'f') => self.literal("false", Tag::False),
            Some(b'"') => self.string_node(),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                match self.number()? {
                    Number::Int(i) if Node::INT_RANGE.contains(&i) => {
                        self.nodes.push(Node::new(Tag::Int, i as u64));
                    }
                    _ => self.push(Tag::Wide, start),
                }
                Ok(())
            }
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Pushes a container node whose subtree end [`Scanner::close`] fills
    /// in.
    fn open(&mut self, tag: Tag) -> usize {
        self.depth += 1;
        self.push(tag, 0);
        self.nodes.len() - 1
    }

    fn close(&mut self, at: usize) {
        self.pos += 1;
        self.depth -= 1;
        self.nodes[at] = Node::new(self.nodes[at].tag(), self.nodes.len() as u64);
    }

    fn string_node(&mut self) -> Result<(), JsonError> {
        let start = self.pos;
        let tag = if self.string(None)? {
            Tag::EscStr
        } else {
            Tag::Str
        };
        self.push(tag, start);
        Ok(())
    }

    fn array(&mut self) -> Result<(), JsonError> {
        self.expect(b'[')?;
        let at = self.open(Tag::Arr);
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.close(at);
            return Ok(());
        }
        loop {
            self.skip_ws();
            if !self.int_element() {
                // A nested array, such as a net's pin list, skips
                // `value()`'s dispatch too; one past the depth bound goes
                // through it to be refused.
                if self.peek() == Some(b'[') && self.depth < MAX_DEPTH {
                    self.array()?;
                } else {
                    self.value()?;
                }
                self.skip_ws();
            }
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.close(at);
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// Scans an array element that is a plain integer (an optional minus
    /// and at most [`MAX_INT_DIGITS`] digits without a leading zero,
    /// followed directly by `,` or `]`) in one loop, and pushes the `Int`
    /// node `value()` would push. A job line's arrays are mostly such
    /// integers. Any other element, or one too deep to take, is left
    /// unread (`false`) for `value()`, so every error keeps its message
    /// and offset.
    fn int_element(&mut self) -> bool {
        if self.depth >= MAX_DEPTH {
            return false;
        }
        let rest = &self.bytes[self.pos..];
        let negative = rest.first() == Some(&b'-');
        let digits = &rest[usize::from(negative)..];
        let mut magnitude = 0u64;
        let mut len = 0;
        while let Some(&c @ b'0'..=b'9') = digits.get(len) {
            if len == MAX_INT_DIGITS {
                return false;
            }
            magnitude = magnitude * 10 + u64::from(c - b'0');
            len += 1;
        }
        let leading_zero = len > 1 && digits[0] == b'0';
        if len == 0 || leading_zero || !matches!(digits.get(len), Some(b',' | b']')) {
            return false;
        }
        let int = if negative {
            -(magnitude as i64)
        } else {
            magnitude as i64
        };
        self.pos += usize::from(negative) + len;
        self.nodes.push(Node::new(Tag::Int, int as u64));
        true
    }

    fn object(&mut self) -> Result<(), JsonError> {
        self.expect(b'{')?;
        let at = self.open(Tag::Obj);
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.close(at);
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string_node()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.close(at);
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// Scans one string, appending its decoded value to `out` when given.
    /// Returns whether it held an escape.
    fn string(&mut self, mut out: Option<&mut String>) -> Result<bool, JsonError> {
        self.expect(b'"')?;
        let mut escaped = false;
        loop {
            // A run of plain bytes ends at an ASCII byte, so it is whole
            // UTF-8 scalars (the input is a `&str`).
            let run = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            if let Some(out) = out.as_deref_mut() {
                out.push_str(&self.text[run..self.pos]);
            }
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(escaped);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    escaped = true;
                    let ch = self.escape()?;
                    if let Some(out) = out.as_deref_mut() {
                        out.push(ch);
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{0008}',
            b'f' => '\u{000C}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                if (0xD800..0xDC00).contains(&hi) {
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
                    char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"))?
                } else {
                    char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                }
            }
            _ => return Err(self.err("invalid escape")),
        })
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

    fn number(&mut self) -> Result<Number, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // The integer part's magnitude, exact for up to 19 digits.
        let digits = self.pos;
        let mut magnitude = 0u64;
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while let Some(c @ b'0'..=b'9') = self.peek() {
                    magnitude = magnitude.wrapping_mul(10).wrapping_add(u64::from(c - b'0'));
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected digit")),
        }
        let exact = self.pos - digits <= 19;
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
        // An integer is an `Int` exactly when it fits an `i64`, whose
        // negative range reaches one further than its positive one.
        if integral && exact {
            if !negative && magnitude <= i64::MAX as u64 {
                return Ok(Number::Int(magnitude as i64));
            }
            if negative && magnitude <= 1 << 63 {
                return Ok(Number::Int((magnitude as i64).wrapping_neg()));
            }
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Number::Num)
            .map_err(|_| self.err("number out of range"))
    }
}

/// Appends `s` to `out` with JSON string escaping (no surrounding quotes).
pub fn escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// `s` as a quoted, escaped JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap(), Json::Int(42));
        assert_eq!(parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(parse("2.5").unwrap(), Json::Num(2.5));
        assert_eq!(parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn big_integers_stay_exact() {
        let max = i64::MAX.to_string();
        assert_eq!(parse(&max).unwrap(), Json::Int(i64::MAX));
    }

    #[test]
    fn integer_typing_follows_the_i64_range() {
        assert_eq!(parse("-0").unwrap(), Json::Int(0));
        assert_eq!(parse("-9223372036854775808").unwrap(), Json::Int(i64::MIN));
        assert_eq!(
            parse("9223372036854775808").unwrap(),
            Json::Num(9223372036854775808.0)
        );
        assert_eq!(
            parse("-9223372036854775809").unwrap(),
            Json::Num(-9223372036854775809.0)
        );
        assert_eq!(
            parse("18446744073709551616").unwrap(),
            Json::Num(18446744073709551616.0)
        );
        assert_eq!(parse("2.0").unwrap(), Json::Num(2.0));
        assert_eq!(parse("1e2").unwrap(), Json::Num(100.0));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":null}],"c":"d"}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str(), Some("d"));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[2].get("b"), Some(&Json::Null));
    }

    #[test]
    fn decodes_escapes_and_surrogates() {
        assert_eq!(
            parse(r#""a\n\t\"\\\u0041\ud83d\ude00""#).unwrap().as_str(),
            Some("a\n\t\"\\A😀")
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "nul",
            "01",
            "1.",
            "\"\\x\"",
            "\"unterminated",
            "{\"a\":1} trailing",
            "+-3",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn errors_name_the_offending_byte() {
        let err = |text: &str| parse(text).unwrap_err();
        assert_eq!(err("[1,]").offset, 3);
        assert_eq!(err("[1,]").message, "unexpected character ']'");
        assert_eq!(err("{\"a\" 1}").message, "expected ':'");
        assert_eq!(err("\"a\u{1}\"").offset, 2);
        assert_eq!(err("\"\\ud800x\"").message, "unpaired surrogate");
        assert_eq!(err("\"\\udc00\"").message, "invalid \\u escape");
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(64) + &"]".repeat(64);
        assert!(parse(&ok).is_ok());
        let over = "[".repeat(65) + &"]".repeat(65);
        assert_eq!(parse(&over).unwrap_err().offset, 64);
        // An integer one level too deep is refused like any other value.
        let int = "[".repeat(64) + "1" + &"]".repeat(64);
        let err = parse(&int).unwrap_err();
        assert_eq!((err.offset, err.message.as_str()), (64, "nesting too deep"));
    }

    #[test]
    fn duplicate_keys_keep_first() {
        let v = parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.as_obj().unwrap().len(), 1);
    }

    #[test]
    fn index_lookups_match_the_tree() {
        let text = r#"{"\u0069d":"x\ty","n":[1,[2,3],{"w":4}],"n":0,"f":-0.5}"#;
        let doc = Doc::parse(text).unwrap();
        let root = doc.root();
        assert_eq!(root.get("id").unwrap().as_str().unwrap(), "x\ty");
        let nets = root.get("n").unwrap().as_arr().unwrap();
        assert_eq!(nets.len(), 3);
        let items: Vec<_> = nets.collect();
        assert_eq!(items[0].as_u64(), Some(1));
        assert_eq!(items[1].as_arr().unwrap().len(), 2);
        assert_eq!(items[2].get("w").unwrap().as_u64(), Some(4));
        assert_eq!(root.get("f").unwrap().as_f64(), Some(-0.5));
        assert!(root.get("missing").is_none());
        assert!(items[0].get("w").is_none(), "get on a non-object");
        assert_eq!(
            parse(text).unwrap().get("id").unwrap().as_str(),
            Some("x\ty")
        );
    }

    #[test]
    fn quoting_round_trips() {
        let s = "line\nwith \"quotes\" and \\ and \u{1}";
        assert_eq!(parse(&quote(s)).unwrap().as_str(), Some(s));
    }
}
