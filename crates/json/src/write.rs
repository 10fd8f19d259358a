use std::fmt::Write as _;

use crate::JsonValue;

impl JsonValue {
    /// Serializes without any whitespace — the wire format for HTTP
    /// bodies.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, None, 0);
        out
    }

    /// Serializes with two-space indentation and a trailing newline — the
    /// on-disk format for committed artifacts like `BENCH_quality.json`
    /// (kept `python3 -m json.tool`-compatible for the CI gate).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, Some(2), 0);
        out.push('\n');
        out
    }
}

/// `indent = None` means compact; `Some(width)` pretty-prints.
fn write_value(out: &mut String, value: &JsonValue, indent: Option<usize>, level: usize) {
    match value {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(true) => out.push_str("true"),
        JsonValue::Bool(false) => out.push_str("false"),
        JsonValue::Int(n) => write_int(out, *n),
        JsonValue::Float(x) => write_float(out, *x),
        JsonValue::Str(s) => write_string(out, s),
        JsonValue::Array(items) => write_seq(out, items.len(), indent, level, b'[', |out, i| {
            write_value(out, &items[i], indent, level + 1);
        }),
        JsonValue::Object(pairs) => write_seq(out, pairs.len(), indent, level, b'{', |out, i| {
            let (key, value) = &pairs[i];
            write_string(out, key);
            out.push(':');
            if indent.is_some() {
                out.push(' ');
            }
            write_value(out, value, indent, level + 1);
        }),
    }
}

/// Shared array/object layout: `open … close` with per-item callbacks,
/// handling commas and (optionally) newline + indentation.
fn write_seq(
    out: &mut String,
    len: usize,
    indent: Option<usize>,
    level: usize,
    open: u8,
    mut item: impl FnMut(&mut String, usize),
) {
    let close = if open == b'[' { ']' } else { '}' };
    out.push(open as char);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            newline(out, width * (level + 1));
        }
        item(out, i);
    }
    if let Some(width) = indent {
        newline(out, width * level);
    }
    out.push(close);
}

fn newline(out: &mut String, spaces: usize) {
    out.push('\n');
    out.extend(std::iter::repeat_n(' ', spaces));
}

/// Appends `n` in decimal without going through `fmt`.
fn write_int(out: &mut String, n: i128) {
    // i128::MIN has 39 digits plus the sign.
    let mut digits = [0u8; 40];
    let mut start = digits.len();
    let mut rest = n.unsigned_abs();
    loop {
        start -= 1;
        digits[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if n < 0 {
        start -= 1;
        digits[start] = b'-';
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("decimal digits are ASCII"));
}

fn write_float(out: &mut String, x: f64) {
    if !x.is_finite() {
        // JSON has no NaN/Infinity; emit null rather than an invalid doc.
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{x}");
    // Keep the float/integer distinction on round trips: `2.0` formats as
    // "2" in Rust, which would re-parse as an integer.
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// Writes `s` as a JSON string literal. Runs of bytes that need no
/// escape are copied in one slice; every byte that does is ASCII, so the
/// run boundaries are always char boundaries.
fn write_string(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    out.push('"');
    let mut run = 0;
    while let Some(len) = bytes[run..]
        .iter()
        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
    {
        let i = run + len;
        out.push_str(&s[run..i]);
        run = i + 1;
        let b = bytes[i];
        let code = match b {
            b'"' | b'\\' => b,
            b'\n' => b'n',
            b'\r' => b'r',
            b'\t' => b't',
            0x08 => b'b',
            0x0C => b'f',
            _ => b'u',
        };
        out.push('\\');
        out.push(code as char);
        if code == b'u' {
            out.push_str("00");
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xF)] as char);
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JsonValue {
        JsonValue::object([
            ("name", "qft \"5\"\n".into()),
            ("n", 5u64.into()),
            ("w", JsonValue::Float(0.5)),
            ("flags", JsonValue::array([true.into(), JsonValue::Null])),
            ("empty", JsonValue::object::<&str, _>([])),
        ])
    }

    #[test]
    fn compact_round_trips_through_parse() {
        let v = sample();
        assert_eq!(JsonValue::parse(&v.to_compact()).unwrap(), v);
    }

    #[test]
    fn pretty_round_trips_and_indents() {
        let v = sample();
        let text = v.to_pretty();
        assert_eq!(JsonValue::parse(&text).unwrap(), v);
        assert!(text.contains("{\n  \"name\""));
        assert!(text.ends_with("\n"));
        assert!(text.contains("\"empty\": {}"));
    }

    #[test]
    fn floats_keep_their_type_on_round_trip() {
        let v = JsonValue::Float(2.0);
        assert_eq!(v.to_compact(), "2.0");
        assert_eq!(JsonValue::parse("2.0").unwrap(), v);
        assert_eq!(JsonValue::Float(f64::NAN).to_compact(), "null");
        assert_eq!(JsonValue::Float(f64::INFINITY).to_compact(), "null");
    }

    #[test]
    fn strings_escape_controls() {
        let v: JsonValue = "a\u{1}\tb".into();
        assert_eq!(v.to_compact(), "\"a\\u0001\\tb\"");
        assert_eq!(JsonValue::parse(&v.to_compact()).unwrap(), v);
    }

    #[test]
    fn big_nanosecond_counters_survive() {
        let ns: u128 = 30_517_249_000_000;
        let v = JsonValue::from(ns);
        assert_eq!(
            JsonValue::parse(&v.to_compact()).unwrap().as_i128(),
            Some(ns as i128)
        );
    }
}
