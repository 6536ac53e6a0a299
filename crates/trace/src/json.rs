//! The workspace's one hand-rolled JSON toolkit: string escaping for the
//! emitters, a span-tracking parser, CRC-32, and the sealed
//! `{"schema_version":…,"crc32":…,"payload":…}\n` envelope that guards
//! the tuned CPU profile (`ld-kernels`) and the tile-store manifest
//! (`ld-core`).
//!
//! The workspace builds with no external crates, and this crate is
//! already a dependency of every crate that reads or writes JSON, so the
//! format rules live here once.
//!
//! ## The envelope
//!
//! [`seal`] wraps an already-serialized payload; [`open`] accepts a
//! document only when **all** of the following hold, and returns the
//! parsed payload:
//!
//! 1. it ends with the single newline the writer emits — demanding it
//!    back makes *every* truncation detectable (dropping only the final
//!    byte would otherwise still parse);
//! 2. the rest parses as one JSON value with nothing after it;
//! 3. `schema_version` equals the version the caller reads;
//! 4. `crc32` equals the CRC-32 (IEEE) of the exact byte span of the
//!    `payload` value as it sits in the file, so any bit damage to the
//!    guarded fields — truncation, flipped bits, a partial write — is
//!    caught, while reformatting *outside* the payload is harmless.

use std::fmt::Write as _;

/// Escapes a string for embedding inside a JSON string literal (`"`,
/// `\`, and control characters). Every hand-rolled JSON emitter in the
/// workspace routes through it: `MetricsReport`, the serve health
/// endpoint and request log, the `run-sharded` manifest, the tuned
/// profile and the tile-store manifest.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) — the same checksum
// gzip/zip use; table built at compile time.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `bytes` — the checksum guarding checkpoint sections,
/// tile-store chunks and every sealed JSON payload.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Minimal JSON value + recursive-descent parser. It tracks the byte span
// of every object field so the CRC can be verified over the payload
// exactly as it sits in the file.
// ---------------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any finite number.
    Num(f64),
    /// A string, escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: `(key, value, byte span of the value)` in file order.
    Obj(Vec<(String, Json, (usize, usize))>),
}

impl Json {
    fn field(&self, key: &str) -> Option<&(String, Json, (usize, usize))> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _, _)| k == key),
            _ => None,
        }
    }

    /// The value bound to `key`, when `self` is an object holding it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.field(key).map(|(_, v, _)| v)
    }

    /// The value as an exactly-representable non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Num(n) if n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53) => Some(n as u64),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Num(n) => Some(n),
            _ => None,
        }
    }

    /// The value as a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array's items.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Deepest `[` / `{` nesting [`parse`] accepts. The parser recurses once
/// per level, so without a cap a hostile document of a few hundred
/// thousand `[` overflows the stack instead of failing typed; nothing this
/// workspace writes nests deeper than a handful of levels.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<(Json, (usize, usize)), String> {
        self.skip_ws();
        let start = self.pos;
        let v = match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            open @ (b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()?
                } else {
                    self.array()?
                };
                self.depth -= 1;
                v
            }
            b'"' => Json::Str(self.string()?),
            b't' => self.literal(b"true", Json::Bool(true))?,
            b'f' => self.literal(b"false", Json::Bool(false))?,
            b'n' => self.literal(b"null", Json::Null)?,
            _ => self.number()?,
        };
        Ok((v, (start, self.pos)))
    }

    fn literal(&mut self, lit: &[u8], v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if start == self.pos {
            return Err(self.err("expected a value"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| self.err("invalid number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar's worth of bytes.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    let ch = s.chars().next().ok_or_else(|| self.err("empty"))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            let (val, span) = self.value()?;
            fields.push((key, val, span));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            let (val, _) = self.value()?;
            items.push(val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }
}

/// Parses `bytes` as exactly one JSON value (surrounding whitespace
/// allowed, nothing else after it). Errors name the offending byte.
pub fn parse(bytes: &[u8]) -> Result<Json, String> {
    let mut p = Parser {
        bytes,
        pos: 0,
        depth: 0,
    };
    let (doc, _) = p.value().map_err(|e| format!("invalid JSON: {e}"))?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err("trailing bytes after the document"));
    }
    Ok(doc)
}

// ---------------------------------------------------------------------------
// The sealed envelope
// ---------------------------------------------------------------------------

/// Wraps an already-serialized JSON `payload` in the sealed envelope:
/// schema version, CRC-32 of the payload bytes, the payload itself, and
/// the closing newline [`open`] demands back.
pub fn seal(schema_version: u64, payload: &str) -> String {
    format!(
        "{{\"schema_version\":{schema_version},\"crc32\":{},\"payload\":{payload}}}\n",
        crc32(payload.as_bytes())
    )
}

/// Opens a sealed document written by [`seal`] and returns its parsed
/// payload, or a message saying which of the envelope rules (module
/// docs) it broke. `schema_version` is the version the caller reads.
pub fn open(bytes: &[u8], schema_version: u64) -> Result<Json, String> {
    let Some(bytes) = bytes.strip_suffix(b"\n") else {
        return Err("missing trailing newline (file truncated?)".to_owned());
    };
    let doc = parse(bytes)?;
    let version = doc
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("missing or ill-typed schema_version")?;
    if version != schema_version {
        return Err(format!(
            "schema_version is {version} (this build reads {schema_version})"
        ));
    }
    let stored = doc
        .get("crc32")
        .and_then(Json::as_u64)
        .and_then(|c| u32::try_from(c).ok())
        .ok_or("missing or ill-typed crc32")?;
    let (_, payload, (lo, hi)) = doc.field("payload").ok_or("missing payload")?;
    let actual = crc32(&bytes[*lo..*hi]);
    if stored != actual {
        return Err(format!(
            "payload CRC-32 mismatch (stored {stored:#010x}, computed {actual:#010x}) \
             — the file is damaged"
        ));
    }
    Ok(payload.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape_json("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(escape_json("\t\r\u{1}é"), "\\t\\r\\u0001é");
    }

    #[test]
    fn crc_is_the_gzip_crc() {
        // Known-answer test: CRC32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn parser_reads_every_value_kind_and_tracks_spans() {
        let text = r#" {"a": [1, -2.5e1, true, false, null], "s": "x\"\\\/\n\t\u0041é", "o": {}} "#;
        let doc = parse(text.as_bytes()).unwrap();
        let a = doc.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(-25.0));
        assert_eq!(a[1].as_u64(), None, "negative is not a u64");
        assert_eq!(a[2].as_bool(), Some(true));
        assert_eq!(a[3].as_bool(), Some(false));
        assert_eq!(a[4], Json::Null);
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("x\"\\/\n\tAé"));
        assert_eq!(doc.get("o"), Some(&Json::Obj(Vec::new())));
        assert_eq!(doc.get("missing"), None);
        let (_, _, (lo, hi)) = doc.field("a").unwrap();
        assert_eq!(&text[*lo..*hi], "[1, -2.5e1, true, false, null]");
        // 2^53 is the last exactly-representable integer
        assert_eq!(
            parse(b"9007199254740992").unwrap().as_u64(),
            Some(1u64 << 53)
        );
        assert_eq!(parse(b"1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn parser_rejects_malformed_documents_with_a_located_message() {
        for bad in [
            &b""[..],
            b"{",
            b"{\"a\"}",
            b"{\"a\":1,}",
            b"[1 2]",
            b"\"open",
            b"\"bad \\q escape\"",
            b"\"\\u12\"",
            b"tru",
            b"1e999",
            b"--",
            b"{} x",
            b"\xff\xfe",
            b"\"\xff\"",
        ] {
            let e = parse(bad).unwrap_err();
            assert!(e.contains("at byte"), "{bad:?}: {e}");
        }
    }

    #[test]
    fn nesting_is_capped_with_a_located_error_not_a_stack_overflow() {
        // (opener, innermost value, closer)
        for (open, leaf, close) in [("[", "", "]"), ("{\"k\":", "0", "}")] {
            let nested =
                |depth: usize| format!("{}{leaf}{}", open.repeat(depth), close.repeat(depth));
            parse(nested(MAX_DEPTH).as_bytes())
                .unwrap_or_else(|e| panic!("{MAX_DEPTH} levels of {open}: {e}"));
            let e = parse(nested(MAX_DEPTH + 1).as_bytes()).unwrap_err();
            let at = open.len() * MAX_DEPTH;
            assert!(
                e.contains(&format!("nesting deeper than 128 at byte {at}")),
                "{e}"
            );
        }
        // far past any stack, and unclosed, as a hostile file would be
        for open in ["[", "{\"k\":", "[{\"k\":"] {
            let e = parse(open.repeat(300_000).as_bytes()).unwrap_err();
            assert!(e.contains("nesting deeper than 128"), "{e}");
        }
        // siblings do not accumulate depth
        let wide = format!("[{}[]]", "[[]],".repeat(1000));
        assert!(parse(wide.as_bytes()).is_ok());
    }

    #[test]
    fn seal_open_round_trip_and_reformat_outside_the_payload() {
        let sealed = seal(3, "{\"k\":[1,2]}");
        assert!(sealed.ends_with("}\n"));
        let payload = open(sealed.as_bytes(), 3).unwrap();
        assert_eq!(payload.get("k").and_then(Json::as_array).unwrap().len(), 2);
        // whitespace outside the payload span keeps the CRC valid …
        let spaced = sealed.replacen("{\"schema_version\"", "{  \"schema_version\"", 1);
        assert!(open(spaced.as_bytes(), 3).is_ok());
        // … inside it does not
        let inside = sealed.replacen("[1,2]", "[1, 2]", 1);
        assert!(open(inside.as_bytes(), 3).unwrap_err().contains("CRC-32"));
    }

    #[test]
    fn open_names_the_broken_envelope_rule() {
        let sealed = seal(1, "{}");
        let e = open(sealed.trim_end().as_bytes(), 1).unwrap_err();
        assert!(e.contains("trailing newline"), "{e}");
        let e = open(sealed.as_bytes(), 2).unwrap_err();
        assert!(e.contains("schema_version is 1"), "{e}");
        let e = open(format!("{sealed}x\n").as_bytes(), 1).unwrap_err();
        assert!(e.contains("trailing bytes"), "{e}");
        for (doc, what) in [
            ("[]\n", "schema_version"),
            ("{}\n", "schema_version"),
            ("{\"schema_version\":1}\n", "crc32"),
            (
                "{\"schema_version\":1,\"crc32\":4294967296,\"payload\":{}}\n",
                "crc32",
            ),
            ("{\"schema_version\":1,\"crc32\":0}\n", "missing payload"),
            (
                "{\"schema_version\":1,\"crc32\":0,\"payload\":{}}\n",
                "CRC-32",
            ),
        ] {
            let e = open(doc.as_bytes(), 1).unwrap_err();
            assert!(e.contains(what), "{doc:?}: {e}");
        }
    }

    #[test]
    fn every_truncation_and_bit_flip_of_a_sealed_document_is_rejected() {
        let sealed = seal(1, "{\"n\":12345,\"name\":\"chunk_000001.bin\"}");
        let bytes = sealed.as_bytes();
        for len in 0..bytes.len() {
            assert!(open(&bytes[..len], 1).is_err(), "cut at {len} accepted");
        }
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.to_vec();
                bad[byte] ^= 1 << bit;
                assert!(open(&bad, 1).is_err(), "flip {byte}.{bit} accepted");
            }
        }
    }
}
