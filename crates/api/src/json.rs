//! The JSON primitives and the shared per-net record schema.
//!
//! The workspace builds fully offline (no serde). Every JSON output is a
//! [`Json`] value printed by its one serializer ([`Json::write`] /
//! [`Json::to_pretty`]); this module holds the scalar spellings that
//! serializer uses ([`json_str`], [`json_f64`]) and the **single
//! definition** of the per-net schema: `fastbuf batch --json` (via
//! `fastbuf-batch`), `fastbuf solve --json` and `fastbuf serve` all build
//! their per-net entries from [`NetRecord::to_value`], so they can never
//! drift apart.

use std::time::Duration;

use fastbuf_buflib::units::Seconds;
use fastbuf_core::Placement;

use crate::wire::{write_escaped, write_num, Json};

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

/// One per-net result in the shared JSON schema.
///
/// Field order and key names are the contract; `scenario` is emitted only
/// when present (multi-corner `solve` runs), so single-model batch output
/// is unchanged.
#[derive(Clone, Debug)]
pub struct NetRecord<'a> {
    /// Net label (file path or generated name).
    pub name: &'a str,
    /// Position in the input (batch index, or 0 for single solves).
    pub index: usize,
    /// Scenario name for multi-corner runs (`None` omits the key).
    pub scenario: Option<&'a str>,
    /// Sink count.
    pub sinks: usize,
    /// Candidate buffer positions.
    pub sites: usize,
    /// Slack before buffering.
    pub slack_before: Seconds,
    /// Slack after buffering.
    pub slack_after: Seconds,
    /// Worst output slew before buffering.
    pub slew_before: Seconds,
    /// Worst output slew after buffering.
    pub max_slew: Seconds,
    /// Whether the solve met its slew limit (or had none).
    pub slew_ok: bool,
    /// Number of buffers inserted (reported even when `placements` is not
    /// serialized).
    pub buffers: usize,
    /// Total cost of the inserted buffers.
    pub cost: f64,
    /// Wall-clock solve time.
    pub elapsed: Duration,
    /// Placement list to serialize (`None` omits the key; the `buffers`
    /// count is emitted either way).
    pub placements: Option<&'a [Placement]>,
}

impl NetRecord<'_> {
    /// This record as a JSON object, members in schema order.
    pub fn to_value(&self) -> Json {
        let mut members = Vec::with_capacity(15);
        members.push(("net", self.name.into()));
        if let Some(scenario) = self.scenario {
            members.push(("scenario", scenario.into()));
        }
        members.extend([
            ("index", self.index.into()),
            ("sinks", self.sinks.into()),
            ("sites", self.sites.into()),
            ("slack_before_ps", self.slack_before.picos().into()),
            ("slack_after_ps", self.slack_after.picos().into()),
            ("slew_before_ps", self.slew_before.picos().into()),
            ("max_slew_ps", self.max_slew.picos().into()),
            ("slew_ok", self.slew_ok.into()),
            ("buffers", self.buffers.into()),
            ("cost", self.cost.into()),
            ("elapsed_us", (self.elapsed.as_secs_f64() * 1e6).into()),
        ]);
        if let Some(placements) = self.placements {
            let placements = placements
                .iter()
                .map(|p| {
                    Json::obj([
                        ("node", p.node.index().into()),
                        ("buffer", p.buffer.index().into()),
                    ])
                })
                .collect();
            members.push(("placements", placements));
        }
        Json::obj(members)
    }

    /// Serializes this record as a single-line JSON object.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }
}

/// The owned form of [`NetRecord`]: the same per-net record with no
/// borrowed fields, so it can outlive the solve that produced it, cross a
/// thread boundary, or be queued in a server response.
///
/// Serialization delegates to [`NetRecord::to_value`] through
/// [`NetRecordOwned::as_record`], so the owned and borrowed forms are
/// **byte-identical by construction** — `batch --json`, `solve --json`,
/// and `fastbuf serve` all emit the exact same bytes for the same record
/// (pinned by the cross-producer golden test below).
#[derive(Clone, Debug)]
pub struct NetRecordOwned {
    /// Net label (file path, design id, or generated name).
    pub name: String,
    /// Position in the input (batch index, or 0 for single solves).
    pub index: usize,
    /// Scenario name for multi-corner runs (`None` omits the key).
    pub scenario: Option<String>,
    /// Sink count.
    pub sinks: usize,
    /// Candidate buffer positions.
    pub sites: usize,
    /// Slack before buffering.
    pub slack_before: Seconds,
    /// Slack after buffering.
    pub slack_after: Seconds,
    /// Worst output slew before buffering.
    pub slew_before: Seconds,
    /// Worst output slew after buffering.
    pub max_slew: Seconds,
    /// Whether the solve met its slew limit (or had none).
    pub slew_ok: bool,
    /// Number of buffers inserted.
    pub buffers: usize,
    /// Total cost of the inserted buffers.
    pub cost: f64,
    /// Wall-clock solve time.
    pub elapsed: Duration,
    /// Placement list to serialize (`None` omits the key).
    pub placements: Option<Vec<Placement>>,
}

impl NetRecordOwned {
    /// Borrows this record as a [`NetRecord`] — the single serializer both
    /// forms go through.
    pub fn as_record(&self) -> NetRecord<'_> {
        NetRecord {
            name: &self.name,
            index: self.index,
            scenario: self.scenario.as_deref(),
            sinks: self.sinks,
            sites: self.sites,
            slack_before: self.slack_before,
            slack_after: self.slack_after,
            slew_before: self.slew_before,
            max_slew: self.max_slew,
            slew_ok: self.slew_ok,
            buffers: self.buffers,
            cost: self.cost,
            elapsed: self.elapsed,
            placements: self.placements.as_deref(),
        }
    }

    /// This record as a JSON object, identical to the borrowed
    /// [`NetRecord::to_value`].
    pub fn to_value(&self) -> Json {
        self.as_record().to_value()
    }

    /// Serializes this record as a single-line JSON object, byte-identical
    /// to the borrowed [`NetRecord::to_json`].
    pub fn to_json(&self) -> String {
        self.as_record().to_json()
    }
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

    #[test]
    fn record_schema_keys() {
        let record = NetRecord {
            name: "net00001",
            index: 1,
            scenario: None,
            sinks: 3,
            sites: 5,
            slack_before: Seconds::from_pico(-10.0),
            slack_after: Seconds::from_pico(25.0),
            slew_before: Seconds::from_pico(400.0),
            max_slew: Seconds::from_pico(120.0),
            slew_ok: true,
            buffers: 2,
            cost: 12.0,
            elapsed: Duration::from_micros(42),
            placements: None,
        };
        let json = record.to_json();
        for key in [
            "\"net\"",
            "\"index\"",
            "\"sinks\"",
            "\"sites\"",
            "\"slack_before_ps\"",
            "\"slack_after_ps\"",
            "\"slew_before_ps\"",
            "\"max_slew_ps\"",
            "\"slew_ok\"",
            "\"buffers\"",
            "\"cost\"",
            "\"elapsed_us\"",
        ] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
        assert!(!json.contains("\"scenario\""));
        assert!(!json.contains("\"placements\""));

        let record = NetRecord {
            scenario: Some("slow"),
            placements: Some(&[]),
            ..record
        };
        let json = record.to_json();
        assert!(json.contains("\"scenario\": \"slow\""));
        assert!(json.contains("\"placements\": []"));
        assert!(json.contains("\"buffers\": 2"));
    }

    /// Cross-producer golden: the borrowed record (batch / `solve --json`)
    /// and the owned record (`fastbuf serve`) must emit the exact same
    /// bytes — and those bytes are pinned here, so any schema drift breaks
    /// this test, not a downstream consumer.
    #[test]
    fn owned_and_borrowed_records_are_byte_identical() {
        use fastbuf_buflib::BufferTypeId;
        use fastbuf_rctree::NodeId;

        let placements = vec![
            Placement {
                node: NodeId::new(3),
                buffer: BufferTypeId::new(1),
            },
            Placement {
                node: NodeId::new(7),
                buffer: BufferTypeId::new(0),
            },
        ];
        let owned = NetRecordOwned {
            name: "designs/top.net".to_owned(),
            index: 4,
            scenario: Some("slow".to_owned()),
            sinks: 9,
            sites: 21,
            slack_before: Seconds::from_pico(-12.5),
            slack_after: Seconds::from_pico(31.25),
            slew_before: Seconds::from_pico(500.0),
            max_slew: Seconds::from_pico(150.0),
            slew_ok: true,
            buffers: 2,
            cost: 7.0,
            elapsed: Duration::from_micros(123),
            placements: Some(placements.clone()),
        };
        let borrowed = NetRecord {
            name: "designs/top.net",
            index: 4,
            scenario: Some("slow"),
            sinks: 9,
            sites: 21,
            slack_before: Seconds::from_pico(-12.5),
            slack_after: Seconds::from_pico(31.25),
            slew_before: Seconds::from_pico(500.0),
            max_slew: Seconds::from_pico(150.0),
            slew_ok: true,
            buffers: 2,
            cost: 7.0,
            elapsed: Duration::from_micros(123),
            placements: Some(&placements),
        };
        // Pinned bytes, ulp noise and all: picosecond fields go through
        // `Seconds::from_pico(x).picos()` (an exact-value round trip is
        // not guaranteed), and that conversion is part of the schema.
        let golden = "{\"net\": \"designs/top.net\", \"scenario\": \"slow\", \
                      \"index\": 4, \"sinks\": 9, \"sites\": 21, \
                      \"slack_before_ps\": -12.5, \
                      \"slack_after_ps\": 31.250000000000004, \
                      \"slew_before_ps\": 500.00000000000006, \
                      \"max_slew_ps\": 150, \
                      \"slew_ok\": true, \"buffers\": 2, \"cost\": 7, \
                      \"elapsed_us\": 123.00000000000001, \
                      \"placements\": [{\"node\": 3, \"buffer\": 1}, \
                      {\"node\": 7, \"buffer\": 0}]}";
        assert_eq!(owned.to_json(), golden);
        assert_eq!(borrowed.to_json(), golden);
        assert_eq!(owned.as_record().to_json(), borrowed.to_json());
    }
}
