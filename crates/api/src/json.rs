//! The JSON scalar spellings.
//!
//! The workspace builds fully offline (no serde). Every JSON output is a
//! [`Json`](crate::wire::Json) value printed by its one serializer; this
//! module holds the scalar spellings that serializer uses ([`json_str`],
//! [`json_f64`]). The per-net record schema is
//! [`NetOutcome::to_value`](crate::NetOutcome::to_value).

use crate::wire::{write_escaped, write_num};

/// Formats an `f64` as a valid JSON number (JSON has no `Infinity`/`NaN`;
/// those become `null`).
pub fn json_f64(v: f64) -> String {
    let mut out = String::new();
    write_num(&mut out, v);
    out
}

/// Escapes a string for JSON.
pub fn json_str(s: &str) -> String {
    let mut out = String::new();
    write_escaped(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("x\ny"), "\"x\\ny\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn json_numbers() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(-0.25), "-0.25");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NAN), "null");
    }
}
