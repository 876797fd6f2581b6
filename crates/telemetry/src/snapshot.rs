//! Periodic telemetry snapshots and their JSON-lines wire format.
//!
//! A [`Snapshot`] is one point-in-time export of a producer's monotonic
//! counters, instantaneous gauges, and per-stage span statistics. The wire
//! format is one self-contained JSON object per line (`\n`-terminated), so
//! consumers can tail a file, cut it with standard line tools, and parse
//! each line independently:
//!
//! ```text
//! {"schema":"tn-telemetry/1","seq":0,"t_ns":12345,
//!  "counters":{"serve.completed":100, ...},
//!  "gauges":{"serve.queue_depth":3.0, ...},
//!  "stages":{"kernel":{"count":12,"total_ns":99000,"max_ns":12000}, ...}}
//! ```
//!
//! [`Snapshot::parse_json_line`] is the inverse and doubles as the
//! validator behind the `snapshot_check` binary: it rejects anything that
//! does not carry the schema marker, the required fields, or well-formed
//! sections.

use std::collections::BTreeMap;

use crate::json::{escape, num, parse, JsonError, JsonValue};
use crate::span::{Stage, StageStats};

/// Schema marker stamped on every snapshot line.
pub const SCHEMA: &str = "tn-telemetry/1";

/// One point-in-time telemetry export.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Monotonic snapshot sequence number within the producing session.
    pub seq: u64,
    /// Producer clock time, nanoseconds (see [`crate::Clock`]).
    pub t_ns: u64,
    /// Monotonic counters, keyed by dotted name (`serve.completed`).
    pub counters: BTreeMap<String, u64>,
    /// Instantaneous gauges, keyed by dotted name (`serve.queue_depth`).
    pub gauges: BTreeMap<String, f64>,
    /// Per-stage span statistics, keyed by [`Stage::name`].
    pub stages: BTreeMap<String, StageStats>,
}

/// Why a snapshot line failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The line is not valid JSON.
    Json(JsonError),
    /// The JSON is valid but does not match the snapshot schema.
    Schema(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Json(e) => write!(f, "invalid JSON: {e}"),
            Self::Schema(msg) => write!(f, "schema violation: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<JsonError> for SnapshotError {
    fn from(e: JsonError) -> Self {
        Self::Json(e)
    }
}

fn schema_err(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Schema(msg.into())
}

impl Snapshot {
    /// Start building a snapshot at `(seq, t_ns)`.
    pub fn new(seq: u64, t_ns: u64) -> Self {
        Self {
            seq,
            t_ns,
            ..Self::default()
        }
    }

    /// Add a monotonic counter.
    pub fn counter(&mut self, name: &str, value: u64) -> &mut Self {
        self.counters.insert(name.to_string(), value);
        self
    }

    /// Add an instantaneous gauge. Non-finite values are stored as 0 so
    /// the wire format stays valid JSON (which has no NaN/Inf).
    pub fn gauge(&mut self, name: &str, value: f64) -> &mut Self {
        let value = if value.is_finite() { value } else { 0.0 };
        self.gauges.insert(name.to_string(), value);
        self
    }

    /// Add one stage's span statistics.
    pub fn stage(&mut self, stage: Stage, stats: StageStats) -> &mut Self {
        self.stages.insert(stage.name().to_string(), stats);
        self
    }

    /// Encode as one `\n`-terminated JSON line.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str(&format!(
            "{{\"schema\":\"{SCHEMA}\",\"seq\":{},\"t_ns\":{},\"counters\":{{",
            self.seq, self.t_ns
        ));
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", escape(name), value));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", escape(name), num(*value)));
        }
        out.push_str("},\"stages\":{");
        for (i, (name, stats)) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"total_ns\":{},\"max_ns\":{}}}",
                escape(name),
                stats.count,
                stats.total_ns,
                stats.max_ns
            ));
        }
        out.push_str("}}\n");
        out
    }

    /// Parse and validate one snapshot line (the inverse of
    /// [`Snapshot::to_json_line`]).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Json`] for malformed JSON, [`SnapshotError::Schema`]
    /// for valid JSON that is not a `tn-telemetry/1` snapshot.
    pub fn parse_json_line(line: &str) -> Result<Self, SnapshotError> {
        let doc = parse(line.trim_end_matches(['\n', '\r']))?;
        if doc.as_object().is_none() {
            return Err(schema_err("snapshot line must be a JSON object"));
        }
        match doc.get("schema").and_then(JsonValue::as_str) {
            Some(SCHEMA) => {}
            Some(other) => return Err(schema_err(format!("unknown schema {other:?}"))),
            None => return Err(schema_err("missing \"schema\" marker")),
        }
        let required_u64 = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| schema_err(format!("missing or non-integer \"{key}\"")))
        };
        let mut snap = Snapshot::new(required_u64("seq")?, required_u64("t_ns")?);
        for key in ["counters", "gauges", "stages"] {
            if doc.get(key).and_then(JsonValue::as_object).is_none() {
                return Err(schema_err(format!("missing or non-object \"{key}\"")));
            }
        }
        for (name, value) in doc.get("counters").unwrap().as_object().unwrap() {
            let v = value
                .as_u64()
                .ok_or_else(|| schema_err(format!("counter {name:?} is not a u64")))?;
            snap.counters.insert(name.clone(), v);
        }
        for (name, value) in doc.get("gauges").unwrap().as_object().unwrap() {
            let v = value
                .as_f64()
                .ok_or_else(|| schema_err(format!("gauge {name:?} is not a number")))?;
            snap.gauges.insert(name.clone(), v);
        }
        for (name, value) in doc.get("stages").unwrap().as_object().unwrap() {
            let field = |key: &str| {
                value
                    .get(key)
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| schema_err(format!("stage {name:?} missing u64 \"{key}\"")))
            };
            let stats = StageStats {
                count: field("count")?,
                total_ns: field("total_ns")?,
                max_ns: field("max_ns")?,
            };
            snap.stages.insert(name.clone(), stats);
        }
        // Unknown top-level keys are tolerated (forward compatibility),
        // but the known ones must be well-formed — checked above.
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut s = Snapshot::new(3, 1_000_000);
        s.counter("serve.completed", 42)
            .counter("chip.synaptic_ops", 123_456)
            .gauge("serve.queue_depth", 7.0)
            .gauge("serve.throughput_rps", 4100.25)
            .stage(
                Stage::Kernel,
                StageStats {
                    count: 10,
                    total_ns: 5_000,
                    max_ns: 900,
                },
            );
        s
    }

    #[test]
    fn json_line_round_trips_exactly() {
        let snap = sample();
        let line = snap.to_json_line();
        assert!(line.ends_with('\n'), "line-delimited format");
        assert!(!line.trim_end().contains('\n'), "one line per snapshot");
        let parsed = Snapshot::parse_json_line(&line).expect("parse");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn empty_snapshot_is_valid() {
        let snap = Snapshot::new(0, 0);
        let parsed = Snapshot::parse_json_line(&snap.to_json_line()).expect("parse");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn non_finite_gauges_are_sanitized() {
        let mut s = Snapshot::new(0, 0);
        s.gauge("bad", f64::NAN).gauge("worse", f64::INFINITY);
        let parsed = Snapshot::parse_json_line(&s.to_json_line()).expect("valid JSON");
        assert_eq!(parsed.gauges["bad"], 0.0);
        assert_eq!(parsed.gauges["worse"], 0.0);
    }

    #[test]
    fn rejects_wrong_or_missing_schema() {
        assert!(matches!(
            Snapshot::parse_json_line(r#"{"seq":0,"t_ns":0}"#),
            Err(SnapshotError::Schema(_))
        ));
        assert!(matches!(
            Snapshot::parse_json_line(
                r#"{"schema":"other/9","seq":0,"t_ns":0,"counters":{},"gauges":{},"stages":{}}"#
            ),
            Err(SnapshotError::Schema(_))
        ));
        assert!(matches!(
            Snapshot::parse_json_line("not json at all"),
            Err(SnapshotError::Json(_))
        ));
    }

    #[test]
    fn rejects_ill_typed_sections() {
        let missing_counters =
            r#"{"schema":"tn-telemetry/1","seq":0,"t_ns":0,"gauges":{},"stages":{}}"#;
        assert!(Snapshot::parse_json_line(missing_counters).is_err());
        let float_counter = r#"{"schema":"tn-telemetry/1","seq":0,"t_ns":0,"counters":{"x":1.5},"gauges":{},"stages":{}}"#;
        assert!(Snapshot::parse_json_line(float_counter).is_err());
        let bad_stage = r#"{"schema":"tn-telemetry/1","seq":0,"t_ns":0,"counters":{},"gauges":{},"stages":{"kernel":{"count":1}}}"#;
        assert!(Snapshot::parse_json_line(bad_stage).is_err());
    }
}
