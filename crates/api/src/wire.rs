//! The versioned wire schema: owned request/response types that can cross
//! a process or socket boundary.
//!
//! The request layer's borrowed `SolveRequest<'a>` is zero-copy by design
//! and therefore cannot be queued, stored, or sent anywhere. This module
//! is the owned, versioned counterpart — the **single schema** that
//! `fastbuf solve --json`, `fastbuf batch --json`, and `fastbuf serve`
//! all serialize through:
//!
//! * [`Json`] — a minimal JSON value (the workspace builds offline,
//!   without serde) with a strict parser and the workspace's **one JSON
//!   writer**: every reply, report, record and `BENCH_*.json` file is
//!   built as a `Json` value and printed by [`Json::write`] (compact,
//!   `{"k": v, "k2": [a, b]}`) or [`Json::to_pretty`] (the multi-line
//!   report layout).
//! * [`parse_frame`] / [`Op`] — the v1 request envelope
//!   `{"v":1, "id":…, "op":"load|unload|solve|eco|ping|stats|shutdown", …}`.
//! * [`ok_frame`] / [`error_frame`] — the response envelope
//!   `{"v":1, "id":…, "ok":…, …}`.
//! * [`skew_record`] — one skew-target scenario's per-net record with its
//!   clock-tree members; the per-net part is [`NetOutcome::to_value`],
//!   which prints every producer's record, so per-net JSON is
//!   byte-identical wherever it comes from.
//!
//! The full protocol (framing, op fields, error codes, compatibility
//! rules) is documented in `docs/PROTOCOL.md`.

use std::error::Error;
use std::fmt;

use fastbuf_core::Algorithm;

use crate::error::SolveError;
use crate::outcome::{NetOutcome, ScenarioOutcome};

/// The wire schema version this build speaks. Requests must carry
/// `"v": 1`; any other version is rejected with an
/// `unsupported-version` error rather than misinterpreted.
pub const WIRE_VERSION: u64 = 1;

/// Largest `"samples"` count a yield-target request may ask for. The
/// sample family is allocated up front, so an unbounded count could
/// request terabytes in one frame and abort the process (an allocation
/// failure is not a panic, so no handler guard can turn it into a reply).
pub const MAX_SAMPLES: u64 = 65_536;

/// Nesting depth cap of the JSON reader — frames are flat envelopes, so
/// anything deeper is hostile or corrupt input, rejected instead of
/// recursed into.
const MAX_DEPTH: usize = 64;

// ---------------------------------------------------------------------
// JSON values
// ---------------------------------------------------------------------

/// A parsed JSON value.
///
/// Object member order is preserved (members are a `Vec`, not a map);
/// duplicate keys are rejected at parse time.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in source order.
    Obj(Vec<(String, Json)>),
}

/// A JSON syntax error with the byte offset it was detected at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl Error for JsonError {}

impl Json {
    /// Parses one complete JSON value; trailing non-whitespace is an
    /// error.
    ///
    /// # Errors
    ///
    /// [`JsonError`] with the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            i: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.i != p.bytes.len() {
            return Err(p.err("trailing content after the JSON value"));
        }
        Ok(value)
    }

    /// Member `key` of an object (`None` for missing keys and non-objects).
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

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        // `u64::MAX as f64` rounds up to 2^64, so the bound is exclusive:
        // every f64 below 2^64 converts without saturating.
        const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < TWO_POW_64 => Some(*n as u64),
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

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// An object with `members` in the given order.
    pub fn obj<'k>(members: impl IntoIterator<Item = (&'k str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(key, value)| (key.to_owned(), value))
                .collect(),
        )
    }

    /// Appends a member to this object.
    ///
    /// # Panics
    ///
    /// If `self` is not an object.
    pub fn push(&mut self, key: &str, value: impl Into<Json>) {
        match self {
            Json::Obj(members) => members.push((key.to_owned(), value.into())),
            other => panic!("Json::push on a non-object: {other:?}"),
        }
    }

    /// Appends this value to `out` as compact JSON: `", "` between
    /// elements and members, `": "` after keys, strings escaped, and
    /// non-finite numbers as `null`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, ["[", ", ", "]"], items, |out, item| item.write(out))
            }
            Json::Obj(members) => write_seq(out, ["{", ", ", "}"], members, |out, (key, value)| {
                write_escaped(out, key);
                out.push_str(": ");
                value.write(out);
            }),
        }
    }

    /// This value as compact JSON (see [`Json::write`]).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// This value in the report layout every multi-line output shares:
    /// the members of a top-level object one per line at 2 spaces, a
    /// member array with one compact element per line at 4 spaces
    /// (`[\n  ]` when empty), everything deeper compact, and a trailing
    /// newline. Any other value prints compact plus the newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        let Json::Obj(members) = self else {
            self.write(&mut out);
            out.push('\n');
            return out;
        };
        write_seq(
            &mut out,
            ["{\n  ", ",\n  ", "\n}\n"],
            members,
            |out, (key, value)| {
                write_escaped(out, key);
                out.push_str(": ");
                match value {
                    Json::Arr(items) if items.is_empty() => out.push_str("[\n  ]"),
                    Json::Arr(items) => {
                        write_seq(out, ["[\n    ", ",\n    ", "\n  ]"], items, |out, item| {
                            item.write(out)
                        })
                    }
                    other => other.write(out),
                }
            },
        );
        out
    }
}

/// Appends `open`, each item through `each` with `sep` between, `close`.
fn write_seq<T>(
    out: &mut String,
    [open, sep, close]: [&str; 3],
    items: &[T],
    mut each: impl FnMut(&mut String, &T),
) {
    out.push_str(open);
    for (k, item) in items.iter().enumerate() {
        if k > 0 {
            out.push_str(sep);
        }
        each(out, item);
    }
    out.push_str(close);
}

impl fmt::Display for Json {
    /// Compact JSON, as [`Json::to_json`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

/// Appends `v` as a JSON number (JSON has no `Infinity`/`NaN`; those
/// become `null`). Finite values print in Rust's shortest round-trip
/// form, which never uses the `inf`/`NaN` spellings.
pub(crate) fn write_num(out: &mut String, v: f64) {
    if v.is_finite() {
        use fmt::Write;
        write!(out, "{v}").expect("writing to a String cannot fail");
    } else {
        out.push_str("null");
    }
}

/// Appends `s` as a quoted, escaped JSON string.
pub(crate) fn write_escaped(out: &mut String, s: &str) {
    out.reserve(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write;
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Conversions for building values. Integers go through `f64`: exact up
/// to 2^53, far above any count the workspace reports.
macro_rules! json_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        }
    )*};
}

json_from! {
    bool => |b| Json::Bool(b),
    f64 => |n| Json::Num(n),
    u32 => |n| Json::Num(n.into()),
    u64 => |n| Json::Num(n as f64),
    usize => |n| Json::Num(n as f64),
    &str => |s| Json::Str(s.to_owned()),
    String => |s| Json::Str(s),
    Vec<Json> => |items| Json::Arr(items),
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Collects into an array.
impl FromIterator<Json> for Json {
    fn from_iter<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Arr(items.into_iter().collect())
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.i,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.i) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.i).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected byte `{}`", other as char))),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        let digits = |p: &mut Self| {
            let before = p.i;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.i += 1;
            }
            p.i > before
        };
        let int_start = self.i;
        if !digits(self) {
            return Err(self.err("expected digits"));
        }
        if self.bytes[int_start] == b'0' && self.i > int_start + 1 {
            return Err(self.err("leading zeros are not allowed"));
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            if !digits(self) {
                return Err(self.err("expected digits after `.`"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if !digits(self) {
                return Err(self.err("expected exponent digits"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.i]).expect("ASCII number");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("invalid number `{text}`")))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.i += 1;
                            let hi = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&hi) {
                                // A high surrogate must be followed by an
                                // escaped low surrogate.
                                if self.peek() == Some(b'\\') {
                                    self.i += 1;
                                    self.expect(b'u')
                                        .map_err(|_| self.err("expected low surrogate"))?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(code)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid codepoint"))?
                            };
                            out.push(ch);
                            // hex4 leaves `i` one past the last hex digit;
                            // skip the shared `self.i += 1` below.
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.i += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("control byte in string")),
                Some(_) => {
                    // Copy the whole run of plain bytes up to the next
                    // quote, backslash or control byte in one go. Those
                    // stops are ASCII, so they never fall inside a
                    // multibyte sequence and the run is whole UTF-8 (the
                    // input is a &str).
                    let run = &self.bytes[self.i..];
                    let len = run
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(run.len());
                    out.push_str(std::str::from_utf8(&run[..len]).expect("input was a valid &str"));
                    self.i += len;
                }
            }
        }
    }

    /// Reads 4 hex digits starting at `self.i + 1` (the byte after `u`),
    /// leaving `self.i` one past the last digit.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            code = code * 16 + digit;
            self.i += 1;
        }
        Ok(code)
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate key `{key}`")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Request envelope
// ---------------------------------------------------------------------

/// Errors of the envelope layer (everything before a design is touched).
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum WireError {
    /// The frame is not valid JSON.
    Json(JsonError),
    /// The frame's `"v"` is missing or not [`WIRE_VERSION`].
    Version {
        /// The version the frame carried (`None` = missing/non-numeric).
        got: Option<u64>,
    },
    /// The frame's `"op"` is missing or unknown.
    UnknownOp(String),
    /// A field is missing, has the wrong type, or is out of range.
    BadRequest(String),
}

impl WireError {
    /// The stable machine-readable error code of this error (the
    /// `error.code` field of an error response).
    pub fn code(&self) -> &'static str {
        match self {
            WireError::Json(_) => "parse",
            WireError::Version { .. } => "unsupported-version",
            WireError::UnknownOp(_) => "unknown-op",
            WireError::BadRequest(_) => "bad-request",
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Json(e) => write!(f, "{e}"),
            WireError::Version { got: Some(v) } => {
                write!(
                    f,
                    "unsupported wire version {v} (this build speaks v{WIRE_VERSION})"
                )
            }
            WireError::Version { got: None } => {
                write!(
                    f,
                    "missing numeric \"v\" (this build speaks v{WIRE_VERSION})"
                )
            }
            WireError::UnknownOp(op) => write!(
                f,
                "unknown op `{op}` (expected load, unload, solve, eco, ping, stats, or shutdown)"
            ),
            WireError::BadRequest(msg) => write!(f, "{msg}"),
        }
    }
}

impl Error for WireError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WireError::Json(e) => Some(e),
            _ => None,
        }
    }
}

/// Where a design's net or library text comes from in a `load` op.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Source {
    /// Inline file text shipped in the frame.
    Text(String),
    /// A path the server reads (trusted/local deployments only — see
    /// `docs/PROTOCOL.md`).
    Path(String),
}

/// The shared solve/eco parameters of a request.
#[derive(Clone, Debug, PartialEq)]
pub struct SolveParams {
    /// The design id the op targets.
    pub design: String,
    /// Scenario lines in the `parse_scenarios` syntax (`None` = one
    /// default scenario). Element `k` is reported as line `k + 1` in
    /// parse errors.
    pub scenarios: Option<Vec<String>>,
    /// Default algorithm for scenarios without their own `algo=`.
    pub algorithm: Option<Algorithm>,
    /// Default delay-model name for scenarios without their own `model=`
    /// (resolved by the consumer via `model_by_name`).
    pub model: Option<String>,
    /// Include per-scenario placement lists in the response records.
    pub placements: bool,
    /// Re-measure each scenario with the independent forward evaluator
    /// before responding (default `true`).
    pub verify: bool,
    /// Per-request deadline in milliseconds from frame receipt (`None` =
    /// the server's default).
    pub deadline_ms: Option<u64>,
    /// Inline variation-file text (the `parse_variation` syntax). Present
    /// ⇒ the op is a yield-target solve.
    pub variation: Option<String>,
    /// Monte-Carlo sample count for yield-target solves (at most
    /// [`MAX_SAMPLES`]).
    pub samples: Option<u64>,
    /// Reported slack quantile for yield-target solves (default `0.5`).
    pub quantile: Option<f64>,
}

/// One parsed request op.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Op {
    /// Liveness / drain probe.
    Ping,
    /// Registry statistics.
    Stats,
    /// Graceful shutdown: stop accepting, drain in-flight work.
    Shutdown,
    /// Load (or replace) a design under an id.
    Load {
        /// The design id.
        design: String,
        /// The net.
        net: Source,
        /// The buffer library.
        lib: Source,
        /// Default delay-model name for this design's session.
        model: Option<String>,
    },
    /// Drop a design.
    Unload {
        /// The design id.
        design: String,
    },
    /// Solve the design under one or more scenarios.
    Solve(SolveParams),
    /// Apply ECO edits, then re-solve incrementally through the design's
    /// warm per-scenario caches.
    Eco {
        /// The shared parameters.
        params: SolveParams,
        /// Edit lines in the `fastbuf_incremental::parse_edits` syntax.
        edits: Vec<String>,
    },
}

fn req_str(obj: &Json, key: &str) -> Result<String, WireError> {
    match obj.get(key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        Some(_) => Err(WireError::BadRequest(format!("\"{key}\" must be a string"))),
        None => Err(WireError::BadRequest(format!("missing \"{key}\""))),
    }
}

fn opt_str(obj: &Json, key: &str) -> Result<Option<String>, WireError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(WireError::BadRequest(format!("\"{key}\" must be a string"))),
    }
}

fn opt_bool(obj: &Json, key: &str, default: bool) -> Result<bool, WireError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(WireError::BadRequest(format!(
            "\"{key}\" must be a boolean"
        ))),
    }
}

fn opt_u64(obj: &Json, key: &str) -> Result<Option<u64>, WireError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            WireError::BadRequest(format!("\"{key}\" must be a non-negative integer"))
        }),
    }
}

fn opt_str_array(obj: &Json, key: &str) -> Result<Option<Vec<String>>, WireError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Arr(items)) => items
            .iter()
            .map(|v| {
                v.as_str().map(str::to_owned).ok_or_else(|| {
                    WireError::BadRequest(format!("\"{key}\" must be an array of strings"))
                })
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Some),
        Some(_) => Err(WireError::BadRequest(format!(
            "\"{key}\" must be an array of strings"
        ))),
    }
}

fn source(obj: &Json, text_key: &str, path_key: &str) -> Result<Source, WireError> {
    match (opt_str(obj, text_key)?, opt_str(obj, path_key)?) {
        (Some(_), Some(_)) => Err(WireError::BadRequest(format!(
            "give either \"{text_key}\" or \"{path_key}\", not both"
        ))),
        (Some(text), None) => Ok(Source::Text(text)),
        (None, Some(path)) => Ok(Source::Path(path)),
        (None, None) => Err(WireError::BadRequest(format!(
            "missing \"{text_key}\" (inline text) or \"{path_key}\""
        ))),
    }
}

fn solve_params(obj: &Json) -> Result<SolveParams, WireError> {
    let algorithm = match opt_str(obj, "algo")? {
        None => None,
        Some(name) => Some(
            name.parse::<Algorithm>()
                .map_err(|e| WireError::BadRequest(format!("\"algo\" is invalid: {e}")))?,
        ),
    };
    let quantile = match obj.get("quantile") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_f64()
                .ok_or_else(|| WireError::BadRequest("\"quantile\" must be a number".into()))?,
        ),
    };
    let samples = opt_u64(obj, "samples")?;
    if samples.is_some_and(|n| n > MAX_SAMPLES) {
        return Err(WireError::BadRequest(format!(
            "\"samples\" must be at most {MAX_SAMPLES}"
        )));
    }
    Ok(SolveParams {
        design: req_str(obj, "design")?,
        scenarios: opt_str_array(obj, "scenarios")?,
        algorithm,
        model: opt_str(obj, "model")?,
        placements: opt_bool(obj, "placements", false)?,
        verify: opt_bool(obj, "verify", true)?,
        deadline_ms: opt_u64(obj, "deadline_ms")?,
        variation: opt_str(obj, "variation")?,
        samples,
        quantile,
    })
}

/// Parses one request frame.
///
/// Returns the request id (echoed into the response even for malformed
/// ops, whenever the frame parsed far enough to recover it) alongside the
/// op or envelope error.
pub fn parse_frame(frame: &str) -> (Option<Json>, Result<Op, WireError>) {
    let root = match Json::parse(frame) {
        Ok(v) => v,
        Err(e) => return (None, Err(WireError::Json(e))),
    };
    let id = match root.get("id") {
        None | Some(Json::Null) => None,
        Some(v) => Some(v.clone()),
    };
    let op = parse_op(&root);
    (id, op)
}

fn parse_op(root: &Json) -> Result<Op, WireError> {
    if !matches!(root, Json::Obj(_)) {
        return Err(WireError::BadRequest(
            "a request frame must be a JSON object".into(),
        ));
    }
    match root.get("v").and_then(Json::as_u64) {
        Some(WIRE_VERSION) => {}
        got => return Err(WireError::Version { got }),
    }
    let op = req_str(root, "op").map_err(|_| WireError::UnknownOp("<missing>".into()))?;
    match op.as_str() {
        "ping" => Ok(Op::Ping),
        "stats" => Ok(Op::Stats),
        "shutdown" => Ok(Op::Shutdown),
        "load" => Ok(Op::Load {
            design: req_str(root, "design")?,
            net: source(root, "net", "net_path")?,
            lib: source(root, "lib", "lib_path")?,
            model: opt_str(root, "model")?,
        }),
        "unload" => Ok(Op::Unload {
            design: req_str(root, "design")?,
        }),
        "solve" => Ok(Op::Solve(solve_params(root)?)),
        "eco" => {
            let edits = opt_str_array(root, "edits")?
                .ok_or_else(|| WireError::BadRequest("missing \"edits\"".into()))?;
            if edits.is_empty() {
                return Err(WireError::BadRequest("\"edits\" must be non-empty".into()));
            }
            Ok(Op::Eco {
                params: solve_params(root)?,
                edits,
            })
        }
        other => Err(WireError::UnknownOp(other.to_owned())),
    }
}

// ---------------------------------------------------------------------
// Response envelope
// ---------------------------------------------------------------------

/// A response envelope: `v`, the echoed `id` (when the request had one),
/// `ok`, then `body` under `key`.
fn frame(id: Option<&Json>, ok: bool, key: &str, body: Json) -> String {
    let mut frame = Json::obj([("v", WIRE_VERSION.into())]);
    if let Some(id) = id {
        frame.push("id", id.clone());
    }
    frame.push("ok", ok);
    frame.push(key, body);
    frame.to_json()
}

/// A success response carrying `result`.
pub fn ok_frame(id: Option<&Json>, result: Json) -> String {
    frame(id, true, "result", result)
}

/// A typed error response with a stable machine-readable `code`.
pub fn error_frame(id: Option<&Json>, code: &str, message: &str) -> String {
    let error = Json::obj([("code", code.into()), ("message", message.into())]);
    frame(id, false, "error", error)
}

// ---------------------------------------------------------------------
// Owned per-scenario records
// ---------------------------------------------------------------------

/// Serializes one skew-target scenario's
/// [`SkewSolution`](fastbuf_core::skew::SkewSolution): `net`, its
/// [`NetOutcome`] (built by [`NetOutcome::measure`] from `corner`), as a
/// per-net record (same members, same order as `batch --json` /
/// `solve --json`) with the clock-tree members `skew_ps`,
/// `latency_min_ps`, `latency_max_ps`, `skew_ok`, and (when a bound was
/// set) `max_skew_ps` appended.
///
/// # Errors
///
/// [`SolveError::Unsupported`] when the scenario did not solve for a skew
/// target.
pub fn skew_record(
    net_name: &str,
    net: &NetOutcome,
    corner: &ScenarioOutcome,
    named: bool,
    include_placements: bool,
    max_skew: Option<fastbuf_buflib::units::Seconds>,
) -> Result<Json, SolveError> {
    let skew = corner.skew().ok_or_else(|| SolveError::Unsupported {
        scenario: corner.scenario.name.clone(),
        reason: "skew records cover skew-target solves only".into(),
    })?;
    let mut record = net.to_value(
        net_name,
        named.then_some(corner.scenario.name.as_str()),
        include_placements,
    );
    record.push("skew_ps", skew.skew.picos());
    record.push("latency_min_ps", skew.latency_min.picos());
    record.push("latency_max_ps", skew.latency_max.picos());
    record.push("skew_ok", skew.skew_ok);
    if let Some(bound) = max_skew {
        record.push("max_skew_ps", bound.picos());
    }
    Ok(record)
}

/// Serializes one yield-target scenario's
/// [`VariationOutcome`](crate::VariationOutcome) — the
/// per-scenario record of `solve --variation --json` and the server's
/// variation replies.
///
/// The record is **deterministic for a given seed**: it deliberately
/// carries no wall-clock field and no cache counters (how many subtrees a
/// worker recomputed depends on how samples were sharded across workers),
/// and every number comes from the fixed-order summary, so the same
/// request produces byte-identical JSON at every worker count (asserted
/// by the differential harness). Cache counters stay available on
/// [`VariationSummary`](crate::VariationSummary) for telemetry.
///
/// `named` adds a `"scenario"` key (multi-corner runs);
/// `include_samples` appends the full `"per_sample"` array.
///
/// # Errors
///
/// [`SolveError::Unsupported`] when the scenario did not solve for yield.
pub fn variation_record(
    corner: &ScenarioOutcome,
    named: bool,
    include_samples: bool,
) -> Result<Json, SolveError> {
    let outcome = corner.variation().ok_or_else(|| SolveError::Unsupported {
        scenario: corner.scenario.name.clone(),
        reason: "variation records cover yield-target solves only".into(),
    })?;
    let s = &outcome.summary;
    let mut record = Json::obj([]);
    if named {
        record.push("scenario", corner.scenario.name.as_str());
    }
    record.push("samples", s.samples);
    record.push("quantile", s.quantile);
    record.push("quantile_slack_ps", s.quantile_slack.picos());
    record.push("min_slack_ps", s.min_slack.picos());
    record.push("max_slack_ps", s.max_slack.picos());
    record.push("mean_slack_ps", s.mean_slack.picos());
    record.push("yield", s.yield_fraction);
    if include_samples {
        let rows = outcome
            .samples
            .iter()
            .map(|r| {
                Json::obj([
                    ("index", r.index.into()),
                    ("slack_ps", r.slack.picos().into()),
                    ("slew_ok", r.slew_ok.into()),
                ])
            })
            .collect::<Json>();
        record.push("per_sample", rows);
    }
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scenario, Session};
    use fastbuf_buflib::units::Microns;

    #[test]
    fn json_round_trips() {
        let text = r#"{"v": 1, "id": "a-7", "n": -2.5e3, "flag": true,
                       "nested": {"arr": [1, 2, 3], "z": null},
                       "uni": "sn\u00f6 \ud83d\ude00 tab\t"}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("v").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("id").and_then(Json::as_str), Some("a-7"));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(-2500.0));
        assert_eq!(v.get("flag").and_then(Json::as_bool), Some(true));
        let nested = v.get("nested").unwrap();
        assert_eq!(nested.get("arr").and_then(Json::as_array).unwrap().len(), 3);
        assert_eq!(nested.get("z"), Some(&Json::Null));
        assert_eq!(v.get("uni").and_then(Json::as_str), Some("snö 😀 tab\t"));
        // Serialize → reparse is the identity.
        let again = Json::parse(&v.to_json()).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn as_u64_rejects_two_to_the_64() {
        let two_pow_64 = 18_446_744_073_709_551_616.0;
        assert_eq!(Json::Num(two_pow_64).as_u64(), None);
        assert_eq!(Json::parse("18446744073709551616").unwrap().as_u64(), None);
        // The largest f64 below 2^64 converts exactly.
        let below = 18_446_744_073_709_549_568.0;
        assert_eq!(Json::Num(below).as_u64(), Some(18_446_744_073_709_549_568));
        assert_eq!(Json::Num(0.0).as_u64(), Some(0));
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
    }

    #[test]
    fn pretty_layout_puts_members_and_array_elements_on_lines() {
        let doc = Json::obj([
            ("n", 2usize.into()),
            ("nested", Json::obj([("a", Json::Arr(vec![1u32.into()]))])),
            (
                "rows",
                Json::Arr(vec![Json::obj([("x", 0.5.into())]), Json::Null]),
            ),
            ("none", Json::Arr(Vec::new())),
        ]);
        assert_eq!(
            doc.to_pretty(),
            "{\n  \"n\": 2,\n  \"nested\": {\"a\": [1]},\n  \"rows\": [\n    {\"x\": 0.5},\n    null\n  ],\n  \"none\": [\n  ]\n}\n"
        );
        assert_eq!(Json::Arr(vec![true.into()]).to_pretty(), "[true]\n");
    }

    #[test]
    fn megabyte_string_with_multibyte_text_round_trips() {
        // Plain runs of one- to four-byte characters between escapes,
        // about 1 MB in all: parsed in one linear pass.
        let piece = "plain ascii, snö, 電線, 😀 \"quoted\" back\\slash\ttab\n\u{1}";
        let text: String = piece.repeat((1 << 20) / piece.len() + 1);
        assert!(text.len() >= 1 << 20);
        let doc = Json::Obj(vec![("s".to_owned(), Json::Str(text.clone()))]);
        let wire = doc.to_json();
        let back = Json::parse(&wire).unwrap();
        assert_eq!(back.get("s").and_then(Json::as_str), Some(text.as_str()));
        // A raw (unescaped) control byte still stops the string.
        assert!(Json::parse("\"a\u{1}b\"").is_err());
    }

    #[test]
    fn json_rejects_malformed_input() {
        for (text, what) in [
            ("", "unexpected end"),
            ("{", "unterminated object"),
            ("[1,]", "expected after comma"),
            ("{\"a\": 1,}", "expected key"),
            ("nul", "bad literal"),
            ("01", "trailing content"),
            ("1 2", "trailing content"),
            ("\"\\q\"", "invalid escape"),
            ("\"\\ud800\"", "lone surrogate"),
            ("{\"a\": 1, \"a\": 2}", "duplicate key"),
            ("-", "expected digits"),
            ("1.e3", "digits after ."),
        ] {
            assert!(Json::parse(text).is_err(), "{what}: `{text}` parsed");
        }
        // Depth bomb rejected, not recursed into.
        let bomb = "[".repeat(100_000);
        assert!(Json::parse(&bomb).is_err());
    }

    #[test]
    fn envelope_parses_every_op() {
        let (id, op) = parse_frame(r#"{"v": 1, "id": 7, "op": "ping"}"#);
        assert_eq!(id, Some(Json::Num(7.0)));
        assert_eq!(op.unwrap(), Op::Ping);

        let (_, op) = parse_frame(
            r#"{"v": 1, "op": "load", "design": "d1", "net": "...", "lib_path": "/x.lib"}"#,
        );
        assert_eq!(
            op.unwrap(),
            Op::Load {
                design: "d1".into(),
                net: Source::Text("...".into()),
                lib: Source::Path("/x.lib".into()),
                model: None,
            }
        );

        let (_, op) = parse_frame(
            r#"{"v": 1, "op": "solve", "design": "d1",
                "scenarios": ["typical", "slow derate=0.9"],
                "algo": "lillis", "placements": true, "deadline_ms": 250}"#,
        );
        match op.unwrap() {
            Op::Solve(p) => {
                assert_eq!(p.design, "d1");
                assert_eq!(p.scenarios.as_deref().unwrap().len(), 2);
                assert_eq!(p.algorithm, Some(Algorithm::Lillis));
                assert!(p.placements && p.verify);
                assert_eq!(p.deadline_ms, Some(250));
            }
            other => panic!("{other:?}"),
        }

        let (_, op) = parse_frame(
            r#"{"v": 1, "op": "eco", "design": "d1", "edits": ["rat n5 820"], "verify": false}"#,
        );
        match op.unwrap() {
            Op::Eco { params, edits } => {
                assert_eq!(edits, vec!["rat n5 820".to_owned()]);
                assert!(!params.verify);
            }
            other => panic!("{other:?}"),
        }

        let (_, op) = parse_frame(r#"{"v": 1, "op": "unload", "design": "d2"}"#);
        assert_eq!(
            op.unwrap(),
            Op::Unload {
                design: "d2".into()
            }
        );
        assert_eq!(
            parse_frame(r#"{"v": 1, "op": "stats"}"#).1.unwrap(),
            Op::Stats
        );
        assert_eq!(
            parse_frame(r#"{"v": 1, "op": "shutdown"}"#).1.unwrap(),
            Op::Shutdown
        );
    }

    #[test]
    fn envelope_errors_are_typed_and_keep_the_id() {
        let (id, op) = parse_frame("not json at all");
        assert!(id.is_none());
        assert_eq!(op.unwrap_err().code(), "parse");

        let (id, op) = parse_frame(r#"{"v": 2, "id": "x", "op": "ping"}"#);
        assert_eq!(
            id.and_then(|v| v.as_str().map(str::to_owned)),
            Some("x".into())
        );
        let err = op.unwrap_err();
        assert_eq!(err.code(), "unsupported-version");
        assert!(err.to_string().contains("v1"), "{err}");

        let (_, op) = parse_frame(r#"{"id": 1, "op": "ping"}"#);
        assert!(matches!(op.unwrap_err(), WireError::Version { got: None }));

        let (_, op) = parse_frame(r#"{"v": 1, "op": "frobnicate"}"#);
        assert_eq!(op.unwrap_err().code(), "unknown-op");

        let (_, op) = parse_frame(r#"{"v": 1, "op": "solve"}"#);
        let err = op.unwrap_err();
        assert_eq!(err.code(), "bad-request");
        assert!(err.to_string().contains("design"), "{err}");

        let (_, op) = parse_frame(r#"{"v": 1, "op": "eco", "design": "d", "edits": []}"#);
        assert_eq!(op.unwrap_err().code(), "bad-request");

        let (_, op) = parse_frame(r#"{"v": 1, "op": "solve", "design": "d", "algo": "quantum"}"#);
        assert_eq!(op.unwrap_err().code(), "bad-request");

        let (_, op) = parse_frame("[1, 2]");
        assert_eq!(op.unwrap_err().code(), "bad-request");
    }

    #[test]
    fn response_frames_are_valid_json() {
        let id = Json::Str("req-1".into());
        let ok = ok_frame(Some(&id), Json::obj([("pong", true.into())]));
        let v = Json::parse(&ok).unwrap();
        assert_eq!(v.get("v").and_then(Json::as_u64), Some(WIRE_VERSION));
        assert_eq!(v.get("id").and_then(Json::as_str), Some("req-1"));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert!(v.get("result").unwrap().get("pong").is_some());

        let err = error_frame(None, "deadline", "took 12 ms, deadline was 5 ms");
        let v = Json::parse(&err).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        let e = v.get("error").unwrap();
        assert_eq!(e.get("code").and_then(Json::as_str), Some("deadline"));
        assert!(e
            .get("message")
            .and_then(Json::as_str)
            .unwrap()
            .contains("12 ms"));
    }

    #[test]
    fn solve_params_carry_the_variation_block() {
        let (_, op) = parse_frame(
            r#"{"v": 1, "op": "solve", "design": "d1",
                "variation": "wire-r normal 1 0.05\nseed 9\n",
                "samples": 16, "quantile": 0.25}"#,
        );
        match op.unwrap() {
            Op::Solve(p) => {
                assert!(p.variation.as_deref().unwrap().contains("wire-r"));
                assert_eq!(p.samples, Some(16));
                assert_eq!(p.quantile, Some(0.25));
            }
            other => panic!("{other:?}"),
        }
        // Absent block parses to None without complaint.
        let (_, op) = parse_frame(r#"{"v": 1, "op": "solve", "design": "d1"}"#);
        match op.unwrap() {
            Op::Solve(p) => {
                assert_eq!(p.variation, None);
                assert_eq!(p.samples, None);
                assert_eq!(p.quantile, None);
            }
            other => panic!("{other:?}"),
        }
        let (_, op) =
            parse_frame(r#"{"v": 1, "op": "solve", "design": "d1", "quantile": "median"}"#);
        assert_eq!(op.unwrap_err().code(), "bad-request");
        let (_, op) = parse_frame(r#"{"v": 1, "op": "solve", "design": "d1", "samples": -3}"#);
        assert_eq!(op.unwrap_err().code(), "bad-request");
        let at_cap =
            format!(r#"{{"v": 1, "op": "solve", "design": "d1", "samples": {MAX_SAMPLES}}}"#);
        assert!(parse_frame(&at_cap).1.is_ok());
        let over = format!(
            r#"{{"v": 1, "op": "solve", "design": "d1", "samples": {}}}"#,
            MAX_SAMPLES + 1
        );
        assert_eq!(parse_frame(&over).1.unwrap_err().code(), "bad-request");
    }

    #[test]
    fn variation_record_is_deterministic_json() {
        let session = Session::new(fastbuf_buflib::BufferLibrary::paper_synthetic(8).unwrap());
        let tree = fastbuf_netgen::RandomNetSpec {
            sinks: 12,
            seed: 5,
            ..Default::default()
        }
        .build();
        let spec = fastbuf_netgen::VariationSpec::gaussian(0.05, 0.3, 11);
        let solve = |workers| {
            session
                .request(&tree)
                .objective(crate::Objective::YieldTarget {
                    samples: 6,
                    quantile: 0.5,
                })
                .variation(spec.clone())
                .workers(workers)
                .solve()
                .unwrap()
        };
        let a = solve(1);
        let b = solve(2);
        let ja = variation_record(&a.scenarios[0], true, true).unwrap();
        let jb = variation_record(&b.scenarios[0], true, true).unwrap();
        assert_eq!(
            ja.to_json(),
            jb.to_json(),
            "records must not depend on the worker count"
        );
        let v = Json::parse(&ja.to_json()).unwrap();
        assert_eq!(v.get("samples").and_then(Json::as_u64), Some(6));
        assert_eq!(v.get("quantile").and_then(Json::as_f64), Some(0.5));
        assert_eq!(
            v.get("per_sample").and_then(Json::as_array).unwrap().len(),
            6
        );
        assert!(v.get("yield").and_then(Json::as_f64).is_some());
        // A max-slack corner has no variation record.
        let plain = session.request(&tree).solve().unwrap();
        assert!(matches!(
            variation_record(&plain.scenarios[0], false, false),
            Err(SolveError::Unsupported { .. })
        ));
    }

    #[test]
    fn scenario_record_matches_a_direct_solve() {
        let session = Session::new(fastbuf_buflib::BufferLibrary::paper_synthetic(8).unwrap());
        let tree = fastbuf_netgen::line_net(Microns::new(9_000.0), 8);
        let outcome = session
            .request(&tree)
            .scenario(Scenario::named("typical"))
            .scenario(Scenario::named("slow").rat_derate(0.9))
            .solve()
            .unwrap();
        let lib = session.library();
        let before: Vec<_> = outcome
            .scenarios
            .iter()
            .map(|corner| {
                let net = NetOutcome::measure(0, &tree, lib, corner).unwrap();
                let solution = corner.solution().unwrap();
                assert_eq!(
                    net.slack.value().to_bits(),
                    solution.slack.value().to_bits()
                );
                assert_eq!(net.placements, solution.placements);
                assert_eq!(net.sinks, tree.sink_count());
                net.verify().unwrap();
                // The record is that outcome, printed.
                let record = NetOutcome::measure(0, &tree, lib, corner)
                    .unwrap()
                    .to_value("net-a", Some(&corner.scenario.name), true);
                assert_eq!(
                    record.to_json(),
                    net.to_value("net-a", Some(&corner.scenario.name), true)
                        .to_json()
                );
                net.slack_before
            })
            .collect();
        // The derated corner measures its own unbuffered baseline.
        assert_ne!(before[0], before[1]);
    }
}
