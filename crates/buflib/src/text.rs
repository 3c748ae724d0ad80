//! The line grammar every fastbuf text format reads through.
//!
//! Seven formats share it: the net (`fastbuf_rctree::io`), the buffer
//! library ([`BufferLibrary::from_text`](crate::BufferLibrary::from_text)),
//! and the edit script, variation spec, CTS placement, site-capacity
//! (`fastbuf_netgen`) and scenario (`fastbuf_api`) formats. The rules:
//!
//! * `#` starts a comment anywhere on a line; lines are trimmed, blank
//!   lines skipped, and numbered from 1 ([`lines`]);
//! * a line is whitespace-separated tokens, read in order through
//!   [`Fields`];
//! * a number is its type's [`FromStr`] ([`Fields::num`]); a real field
//!   must also be finite, so `nan`, `inf` and overflow are rejected
//!   ([`Fields::finite`]);
//! * a capacitance or time field is in fF or ps, or an exact SI value
//!   with an `F` or `s` suffix ([`Fields::femtos`], [`Fields::picos`]);
//!   [`femto_field`] and [`pico_field`] write the text that reads back
//!   bit for bit.
//!
//! Every failure is a [`LineError`] naming its line.

use std::fmt;
use std::str::{FromStr, SplitWhitespace};

use crate::units::{Farads, Seconds};

/// Why a line-oriented text format rejected its input, and where.
///
/// The net, library, edit-script, variation, placement, site-capacity and
/// scenario readers all report through it (scenario lines wrap it in
/// their own error type).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LineError {
    /// 1-based line of the first problem; 0 when the problem is the file
    /// as a whole (e.g. a placement file without sinks).
    pub line: usize,
    /// What is wrong.
    pub message: String,
}

impl LineError {
    /// An error on the 1-based line `line` (0 = the whole file).
    pub fn at(line: usize, message: impl Into<String>) -> Self {
        LineError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for LineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            0 => f.write_str(&self.message),
            line => write!(f, "line {line}: {}", self.message),
        }
    }
}

impl std::error::Error for LineError {}

/// Lets code that returns `Result<_, String>` apply `?` to a reader's
/// result unchanged (the out-of-workspace `fastbench` harness does so
/// with `from_text` and `parse_edits`).
impl From<LineError> for String {
    fn from(e: LineError) -> String {
        e.to_string()
    }
}

/// The non-blank lines of `text`, comments stripped, each as a cursor
/// over its tokens.
pub fn lines(text: &str) -> impl Iterator<Item = Fields<'_>> {
    text.lines().enumerate().filter_map(|(i, raw)| {
        let body = raw.split('#').next().unwrap_or_default();
        (!body.trim_start().is_empty()).then(|| Fields {
            line: i + 1,
            tokens: body.split_whitespace(),
        })
    })
}

/// The tokens of one line, consumed in order. As an iterator it yields
/// the remaining tokens, for optional and open-ended fields.
#[derive(Clone, Debug)]
pub struct Fields<'a> {
    line: usize,
    tokens: SplitWhitespace<'a>,
}

impl<'a> Fields<'a> {
    /// The 1-based line number.
    pub fn line(&self) -> usize {
        self.line
    }

    /// An error on this line.
    pub fn error(&self, message: impl Into<String>) -> LineError {
        LineError::at(self.line, message)
    }

    /// The next token; `what` names it in the error when there is none.
    pub fn word(&mut self, what: &str) -> Result<&'a str, LineError> {
        self.tokens
            .next()
            .ok_or_else(|| self.error(format!("missing {what}")))
    }

    /// The next token parsed as a `T`.
    pub fn num<T: FromStr>(&mut self, what: &str) -> Result<T, LineError> {
        let token = self.word(what)?;
        self.parse(what, token)
    }

    /// The next token as a finite real.
    pub fn finite(&mut self, what: &str) -> Result<f64, LineError> {
        let token = self.word(what)?;
        self.parse_finite(what, token)
    }

    /// The next token as a capacitance in fF (or exact farads, `…F`).
    pub fn femtos(&mut self, what: &str) -> Result<Farads, LineError> {
        let token = self.word(what)?;
        self.parse_unit(what, token, FEMTO).map(Farads::new)
    }

    /// The next token as a time in ps (or exact seconds, `…s`).
    pub fn picos(&mut self, what: &str) -> Result<Seconds, LineError> {
        let token = self.word(what)?;
        self.parse_unit(what, token, PICO).map(Seconds::new)
    }

    /// Rejects any token left on the line.
    pub fn end(&mut self) -> Result<(), LineError> {
        match self.tokens.next() {
            None => Ok(()),
            Some(extra) => Err(self.error(format!("unexpected trailing token `{extra}`"))),
        }
    }

    /// `token` (taken from this line) parsed as a `T`.
    pub fn parse<T: FromStr>(&self, what: &str, token: &str) -> Result<T, LineError> {
        token
            .parse()
            .map_err(|_| self.error(format!("bad {what} `{token}`")))
    }

    /// `token` (taken from this line) as a finite real.
    fn parse_finite(&self, what: &str, token: &str) -> Result<f64, LineError> {
        let v: f64 = self.parse(what, token)?;
        if !v.is_finite() {
            return Err(self.error(format!("{what} must be finite, got `{token}`")));
        }
        Ok(v)
    }

    /// `token` (taken from this line) as a unit field: the SI value of a
    /// display-unit decimal, or the exact SI value given with the suffix.
    pub(crate) fn parse_unit(&self, what: &str, token: &str, unit: Unit) -> Result<f64, LineError> {
        match token.strip_suffix(unit.suffix) {
            Some(si) => self.parse_finite(what, si),
            None => self.parse_finite(what, token).map(unit.from_display),
        }
    }
}

impl<'a> Iterator for Fields<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.tokens.next()
    }
}

/// A unit field's SI suffix and its display-unit → SI conversion.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Unit {
    suffix: char,
    from_display: fn(f64) -> f64,
}

/// Femtofarad fields (`F` = exact farads).
pub(crate) const FEMTO: Unit = Unit {
    suffix: 'F',
    from_display: |ff| Farads::from_femto(ff).value(),
};

/// Picosecond fields (`s` = exact seconds).
pub(crate) const PICO: Unit = Unit {
    suffix: 's',
    from_display: |ps| Seconds::from_pico(ps).value(),
};

/// The text of a capacitance field that [`Fields::femtos`] reads back bit
/// for bit.
pub fn femto_field(c: Farads) -> String {
    unit_field(c.value(), c.femtos(), FEMTO)
}

/// The text of a time field that [`Fields::picos`] reads back bit for
/// bit.
pub fn pico_field(t: Seconds) -> String {
    unit_field(t.value(), t.picos(), PICO)
}

/// The shortest decimal `d` with `from_display(d)` bit-equal to `si`, else
/// `si` itself with the SI suffix. The unit scale is not a power of two,
/// so about one value in ten has no such decimal. `from_display` is
/// monotone, so every such `d` lies within a few ulps of the converted
/// value `display`.
fn unit_field(si: f64, display: f64, unit: Unit) -> String {
    let mut d = display;
    for _ in 0..8 {
        d = d.next_down();
    }
    let mut best: Option<String> = None;
    for _ in 0..17 {
        if (unit.from_display)(d).to_bits() == si.to_bits() {
            let text = d.to_string();
            if best.as_ref().is_none_or(|b| text.len() < b.len()) {
                best = Some(text);
            }
        }
        d = d.next_up();
    }
    best.unwrap_or_else(|| format!("{si:e}{}", unit.suffix))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_strip_comments_skip_blanks_and_count_from_one() {
        let text = "# head\n\n  a 1 # tail\n\t\nb#glued\n#\n";
        let got: Vec<(usize, Vec<&str>)> = lines(text).map(|f| (f.line(), f.collect())).collect();
        assert_eq!(got, vec![(3, vec!["a", "1"]), (5, vec!["b"])]);
    }

    #[test]
    fn cursor_errors_name_the_line_and_the_field() {
        let mut f = lines("\nx 7 nan 2.5 junk").next().unwrap();
        assert_eq!(f.word("key").unwrap(), "x");
        assert_eq!(f.num::<u32>("count").unwrap(), 7);
        assert_eq!(
            f.finite("mean").unwrap_err().to_string(),
            "line 2: mean must be finite, got `nan`"
        );
        assert_eq!(f.num::<usize>("id").unwrap_err().message, "bad id `2.5`");
        assert_eq!(
            f.end().unwrap_err().message,
            "unexpected trailing token `junk`"
        );
        assert_eq!(f.word("rat").unwrap_err().message, "missing rat");
        assert_eq!(String::from(LineError::at(0, "empty")), "empty");
    }

    #[test]
    fn unit_fields_read_display_units_or_exact_si_values() {
        let mut f = lines("c 7.5 2.5e-14F 1e400F 3s").next().unwrap();
        f.word("key").unwrap();
        assert_eq!(f.femtos("a").unwrap(), Farads::from_femto(7.5));
        assert_eq!(f.femtos("b").unwrap().value(), 2.5e-14);
        assert!(f.femtos("c").unwrap_err().message.contains("finite"));
        assert_eq!(f.picos("d").unwrap().value(), 3.0);
        for v in [0.1, 2.3456e-14, 7.3e-15, 1e-300, 0.0] {
            let line = format!(
                "{} {}",
                femto_field(Farads::new(v)),
                pico_field(Seconds::new(v))
            );
            let mut f = lines(&line).next().unwrap();
            assert_eq!(f.femtos("c").unwrap().value().to_bits(), v.to_bits());
            assert_eq!(f.picos("t").unwrap().value().to_bits(), v.to_bits());
        }
    }
}
