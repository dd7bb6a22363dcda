//! The workspace's one JSON model: a value, a writer, and a parser.
//!
//! Every artifact under `results/json/`, every run-ledger line, every
//! SSE frame and every history record is a [`Json`] value handed to one
//! of the writer's two layouts, and everything read back comes through
//! [`parse`]. Producers build values with the `From` conversions,
//! [`Json::obj`]/[`Json::field`], [`Json::arr`] and [`rounded`].
//!
//! **Writer.** [`Json::line`] puts the whole value on one line
//! (`"key": value`, `, ` between entries) — the JSONL/SSE record form.
//! [`Json::pretty`] is the artifact-file form: the first two nesting
//! levels get one entry per line, anything deeper (and any array of
//! scalars) stays on one line, and the document ends in a newline — one
//! plan point, one history metric per line. Numbers
//! print in Rust's shortest round-trip form (`1000.0` prints `1000`, so
//! counters need no integer variant); a non-finite number prints `null`.
//! Strings escape `"`, `\`, `\n`, `\t`, `\r`, and the remaining control
//! characters as `\u00XX`.
//!
//! **Parser.** Strict RFC-8259-shaped recursive descent over a `&str`:
//! trailing commas, bare words and trailing garbage are errors. Time is
//! linear in the input and nesting is capped at [`MAX_DEPTH`], so hostile
//! bytes yield a [`ParseError`], never a stack overflow.

use std::fmt::{self, Write as _};
use std::path::Path;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (`f64`; every count the repo writes fits exactly).
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key of an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// An empty object, to be filled with [`Json::field`].
    pub fn obj() -> Self {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object and returns it.
    ///
    /// # Panics
    ///
    /// Panics when `self` is not an object — a bug in the caller.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Self {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("Json::field on a non-object: {other:?}"),
        }
        self
    }

    /// [`Json::field`] when `value` is `Some`; leaves the key out (rather
    /// than writing `null`) when it is `None`.
    #[must_use]
    pub fn field_opt(self, key: &str, value: Option<impl Into<Json>>) -> Self {
        match value {
            Some(v) => self.field(key, v),
            None => self,
        }
    }

    /// An array of the items' conversions.
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Self {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// The value on one line: the JSONL / SSE record layout.
    pub fn line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// The artifact-file layout: two indented levels, deeper values on
    /// one line, a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// `depth` is `Some(nesting level)` while entries still go one per
    /// line and `None` once the rest of the value stays on this line.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                let nested = |i: &Json| matches!(i, Json::Arr(_) | Json::Obj(_));
                let depth = depth.filter(|&d| d < 2 && items.iter().any(nested));
                write_seq(out, ['[', ']'], depth, items.len(), |out, i, depth| {
                    items[i].write(out, depth);
                });
            }
            Json::Obj(fields) => {
                let depth = depth.filter(|&d| d < 2);
                write_seq(out, ['{', '}'], depth, fields.len(), |out, i, depth| {
                    write_str(out, &fields[i].0);
                    out.push_str(": ");
                    fields[i].1.write(out, depth);
                });
            }
        }
    }
}

/// Writes `n` comma-separated entries between `brackets`: one per line,
/// indented, when `depth` is set; on one line otherwise.
fn write_seq(
    out: &mut String,
    brackets: [char; 2],
    depth: Option<usize>,
    n: usize,
    entry: impl Fn(&mut String, usize, Option<usize>),
) {
    let newline = |out: &mut String, level: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n("  ", level));
    };
    out.push(brackets[0]);
    for i in 0..n {
        if i > 0 {
            out.push(',');
        }
        match depth {
            Some(d) => newline(out, d + 1),
            None if i > 0 => out.push(' '),
            None => {}
        }
        entry(out, i, depth.map(|d| d + 1));
    }
    if let Some(d) = depth {
        newline(out, d);
    }
    out.push(brackets[1]);
}

/// Writes `s` as a JSON string literal — the workspace's only escaper.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `v` rounded to `decimals` places — how a producer publishes a
/// measured float at fixed precision (`rounded(1.23456, 4)` prints
/// `1.2346`, `rounded(2.0, 4)` prints `2`). It goes through the decimal
/// formatter, so the digits are exactly those `{v:.N}` prints. Non-finite
/// stays non-finite and prints `null`.
pub fn rounded(v: f64, decimals: usize) -> Json {
    Json::Num(format!("{v:.decimals$}").parse().unwrap_or(v))
}

macro_rules! json_from_number {
    ($($t:ty)*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Self {
                Json::Num(v as f64)
            }
        }
    )*};
}
json_from_number!(u16 u32 u64 usize f64);

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl From<&String> for Json {
    fn from(v: &String) -> Self {
        Json::Str(v.clone())
    }
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

/// Deepest array/object nesting [`parse`] accepts; the repo's artifacts
/// nest a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// A JSON parse error with byte offset context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What the parser expected or found.
    pub message: String,
    /// Byte offset into the document.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError { message: message.into(), offset: self.pos })
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", c as char))
        }
    }

    fn eat_lit(&mut self, lit: &str, value: Json) -> Result<Json, ParseError> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            self.err(format!("expected '{lit}'"))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => self.err("nesting too deep"),
            Some(open @ (b'{' | b'[')) => {
                self.depth += 1;
                let v = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => self.err(format!("unexpected '{}'", c as char)),
            None => self.err("unexpected end of input"),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let bytes = self.text.as_bytes();
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape in one piece;
            // both delimiters are ASCII, so the run ends on a char boundary.
            let run = self.pos;
            while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return self.err("unterminated escape");
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            match hex.and_then(char::from_u32) {
                                Some(c) => {
                                    out.push(c);
                                    self.pos += 4;
                                }
                                None => return self.err("bad \\u escape"),
                            }
                        }
                        _ => return self.err("unknown escape"),
                    }
                }
                None => return self.err("unterminated string"),
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(v) => Ok(Json::Num(v)),
            Err(_) => self.err(format!("bad number '{text}'")),
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a [`ParseError`] with a byte offset on malformed input,
/// trailing garbage, or nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser { text, pos: 0, depth: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return p.err("trailing garbage");
    }
    Ok(v)
}

/// Reads and parses a JSON file.
///
/// # Errors
///
/// `"<path>: <why>"` for an unreadable file or malformed JSON.
pub fn read_file(path: impl AsRef<Path>) -> Result<Json, String> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}
