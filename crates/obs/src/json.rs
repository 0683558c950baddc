//! A minimal JSON codec for the span-log format.
//!
//! The workspace carries no serde, and the span log only ever uses
//! flat objects whose values are strings or unsigned integers — so
//! this module implements exactly that subset, with typed errors
//! instead of panics on malformed input.
//!
//! The workspace's other JSON writers share `pardis_idl::diag`'s
//! escaper. This crate keeps its own codec because it does not depend
//! on `pardis-idl`, and it also needs a parser.

use std::fmt;

/// A value in a span-log object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonVal {
    /// A (JSON-unescaped) string.
    Str(String),
    /// An unsigned integer.
    Num(u64),
}

impl JsonVal {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonVal::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<u64> {
        match self {
            JsonVal::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Why a line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Expected a specific character at a byte offset.
    Expected {
        /// What was expected.
        what: &'static str,
        /// Byte offset in the line.
        at: usize,
    },
    /// A number overflowed `u64`.
    NumberOverflow {
        /// Byte offset in the line.
        at: usize,
    },
    /// Input ended inside a token.
    Truncated,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Expected { what, at } => write!(f, "expected {what} at byte {at}"),
            JsonError::NumberOverflow { at } => write!(f, "number overflow at byte {at}"),
            JsonError::Truncated => write!(f, "truncated input"),
        }
    }
}

impl std::error::Error for JsonError {}

/// Escape a string for embedding in a JSON document.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
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
    out
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, ch: u8, what: &'static str) -> Result<(), JsonError> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&ch) {
            self.pos += 1;
            Ok(())
        } else if self.pos >= self.bytes.len() {
            Err(JsonError::Truncated)
        } else {
            Err(JsonError::Expected { what, at: self.pos })
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "'\"'")?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(JsonError::Truncated),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or(JsonError::Truncated)?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| JsonError::Expected {
                                    what: "hex escape",
                                    at: self.pos,
                                })?;
                            let cp =
                                u32::from_str_radix(hex, 16).map_err(|_| JsonError::Expected {
                                    what: "hex escape",
                                    at: self.pos,
                                })?;
                            out.push(char::from_u32(cp).ok_or(JsonError::Expected {
                                what: "scalar code point",
                                at: self.pos,
                            })?);
                            self.pos += 4;
                        }
                        Some(_) => {
                            return Err(JsonError::Expected {
                                what: "escape character",
                                at: self.pos,
                            })
                        }
                        None => return Err(JsonError::Truncated),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so the
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| JsonError::Expected {
                        what: "utf-8",
                        at: self.pos,
                    })?;
                    let c = s.chars().next().ok_or(JsonError::Truncated)?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<u64, JsonError> {
        self.skip_ws();
        let start = self.pos;
        let mut v: u64 = 0;
        while let Some(&d) = self.bytes.get(self.pos) {
            if d.is_ascii_digit() {
                v = v
                    .checked_mul(10)
                    .and_then(|v| v.checked_add((d - b'0') as u64))
                    .ok_or(JsonError::NumberOverflow { at: start })?;
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(if start >= self.bytes.len() {
                JsonError::Truncated
            } else {
                JsonError::Expected {
                    what: "digit",
                    at: start,
                }
            });
        }
        Ok(v)
    }

    fn value(&mut self) -> Result<JsonVal, JsonError> {
        match self.peek() {
            Some(b'"') => Ok(JsonVal::Str(self.string()?)),
            Some(_) => Ok(JsonVal::Num(self.number()?)),
            None => Err(JsonError::Truncated),
        }
    }
}

/// Parse one flat object line (`{"k":v,...}`) into its key/value
/// pairs in document order.
pub fn parse_flat_object(line: &str) -> Result<Vec<(String, JsonVal)>, JsonError> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.expect(b'{', "'{'")?;
    let mut out = Vec::new();
    if p.peek() == Some(b'}') {
        return Ok(out);
    }
    loop {
        let key = p.string()?;
        p.expect(b':', "':'")?;
        let val = p.value()?;
        out.push((key, val));
        match p.peek() {
            Some(b',') => p.pos += 1,
            Some(b'}') => return Ok(out),
            Some(_) => {
                return Err(JsonError::Expected {
                    what: "',' or '}'",
                    at: p.pos,
                })
            }
            None => return Err(JsonError::Truncated),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_span_line_shape() {
        let line = "{\"machine\":\"m0\",\"rank\":2,\"gen\":7,\"tick\":0}";
        let kv = parse_flat_object(line).unwrap();
        assert_eq!(kv[0], ("machine".into(), JsonVal::Str("m0".into())));
        assert_eq!(kv[1], ("rank".into(), JsonVal::Num(2)));
        assert_eq!(kv[2], ("gen".into(), JsonVal::Num(7)));
        assert_eq!(kv[3], ("tick".into(), JsonVal::Num(0)));
        // Arrays are not part of the span-log subset.
        assert!(matches!(
            parse_flat_object("{\"clock\":[1]}"),
            Err(JsonError::Expected { what: "digit", .. })
        ));
    }

    #[test]
    fn escape_roundtrips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let line = format!("{{\"k\":\"{}\"}}", escape(nasty));
        let kv = parse_flat_object(&line).unwrap();
        assert_eq!(kv[0].1.as_str(), Some(nasty));
    }

    #[test]
    fn malformed_input_is_typed_not_panic() {
        assert_eq!(parse_flat_object(""), Err(JsonError::Truncated));
        assert_eq!(parse_flat_object("{\"k\":"), Err(JsonError::Truncated));
        assert!(matches!(
            parse_flat_object("{\"k\" 1}"),
            Err(JsonError::Expected { .. })
        ));
        assert!(matches!(
            parse_flat_object("{\"k\":99999999999999999999999}"),
            Err(JsonError::NumberOverflow { .. })
        ));
    }
}
