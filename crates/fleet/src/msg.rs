//! JSON payloads for the fleet frames.
//!
//! Everything on the wire is JSON text (parsed with the same strict
//! reader `tn-telemetry` uses for snapshot lines — the workspace builds
//! offline, so there is no serde_json). Requests and responses are the
//! shapes [`tn_serve::wire`] reads and writes for every wire layer, plus
//! the fleet's own members: a request's `seq`, a response's `worker`
//! and `latency_ns`. Floats follow the wire's rule, the shortest decimal
//! that round-trips, so a frame's spike rates and a response's
//! confidence survive the wire bit-exactly — a requirement, since the
//! fleet's contract is that its answer stream is *bit-identical* to a
//! solo runtime's. The fleet-only frames (handshake, errors, control)
//! use the wire's typed getters and list writers.

use std::fmt::Write;
use std::time::Duration;

use tn_serve::wire::{
    self, field, get_array, get_bool, get_f64, get_str, get_u64, get_usize, opt_str,
    string_array, usize_array, write_list, write_strings,
};
use tn_serve::{Response, ServeError, SubmitRequest};
use tn_telemetry::json::{escape, num, parse, JsonValue};

/// The handshake schema tag; a router refuses a shard that does not
/// announce exactly this.
pub const SCHEMA: &str = "tn-fleet/1";

/// Parse a frame payload as JSON, with the reader's error as text.
fn parse_payload(text: &str) -> Result<JsonValue, String> {
    parse(text).map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------
// Hello
// ---------------------------------------------------------------------

/// A shard's opening announcement: protocol schema plus everything a
/// router needs for client-side validation, introspection endpoints,
/// and energy attribution — so steady-state dispatch never needs a
/// round-trip to ask a shard about itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Input channels (tenant model 0).
    pub n_inputs: usize,
    /// Classes voted on (tenant model 0).
    pub n_classes: usize,
    /// Per tenant model `(n_inputs, n_classes)`.
    pub models: Vec<(usize, usize)>,
    /// Replica count in force at connect time.
    pub replicas: usize,
    /// Whether the shard serves multiple tenants on one packed chip.
    pub packed: bool,
    /// Kernel fusion width in force at connect time.
    pub kernel_batch: usize,
    /// Live ticks-per-frame per request class.
    pub spf: Vec<usize>,
    /// Quality tier names, in config order.
    pub tiers: Vec<String>,
    /// The shard's submission queue capacity.
    pub queue_capacity: usize,
    /// Chip cores occupied by one worker's deployment (drives the
    /// router's [`tn_chip::energy`] attribution).
    pub cores: usize,
}

impl Hello {
    /// Encode as the Hello frame payload.
    pub fn encode(&self) -> String {
        let (mut models, mut spf, mut tiers) = (String::new(), String::new(), String::new());
        let model = |&(i, c): &(usize, usize)| format!("{{\"n_inputs\":{i},\"n_classes\":{c}}}");
        write_list(&mut models, self.models.iter().map(model));
        write_list(&mut spf, &self.spf);
        write_strings(&mut tiers, &self.tiers);
        format!(
            "{{\"schema\":\"{SCHEMA}\",\"n_inputs\":{},\"n_classes\":{},\"models\":{models},\
             \"replicas\":{},\"packed\":{},\"kernel_batch\":{},\"spf\":{spf},\"tiers\":{tiers},\
             \"queue_capacity\":{},\"cores\":{}}}",
            self.n_inputs,
            self.n_classes,
            self.replicas,
            self.packed,
            self.kernel_batch,
            self.queue_capacity,
            self.cores,
        )
    }

    /// Parse a Hello frame payload, refusing foreign schemas.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed field.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = parse_payload(text)?;
        let schema = get_str(&v, "schema")?;
        if schema != SCHEMA {
            return Err(format!("shard speaks {schema:?}, this router speaks {SCHEMA:?}"));
        }
        let models = get_array(&v, "models")?
            .iter()
            .map(|m| Ok((get_usize(m, "n_inputs")?, get_usize(m, "n_classes")?)))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            n_inputs: get_usize(&v, "n_inputs")?,
            n_classes: get_usize(&v, "n_classes")?,
            models,
            replicas: get_usize(&v, "replicas")?,
            packed: get_bool(&v, "packed")?,
            kernel_batch: get_usize(&v, "kernel_batch")?,
            spf: usize_array(&v, "spf")?,
            tiers: string_array(&v, "tiers")?,
            queue_capacity: get_usize(&v, "queue_capacity")?,
            cores: get_usize(&v, "cores")?,
        })
    }
}

// ---------------------------------------------------------------------
// Req
// ---------------------------------------------------------------------

/// Encode one dispatched request. `seq` is the *router's* global
/// sequence number — the determinism key the shard pins via
/// [`SubmitRequest::at_seq`].
pub fn encode_req(seq: u64, request: &SubmitRequest) -> String {
    let mut out = String::with_capacity(64 + 24 * request.frame.len());
    let _ = write!(out, "{{\"seq\":{seq},");
    wire::write_request(&mut out, request);
    out.push('}');
    out
}

/// Parse a Req frame payload into `(seq, request)`; the returned
/// request already carries `at_seq(seq)`.
///
/// # Errors
///
/// A human-readable description of the first malformed field.
pub fn parse_req(text: &str) -> Result<(u64, SubmitRequest), String> {
    let v = parse_payload(text)?;
    let seq = get_u64(&v, "seq")?;
    Ok((seq, wire::read_request(&v)?.at_seq(seq)))
}

// ---------------------------------------------------------------------
// Resp
// ---------------------------------------------------------------------

/// Encode a served [`Response`]. Latency crosses the wire as the
/// shard's own measurement; the router overwrites it with end-to-end
/// router-side latency before completing the caller's handle (wire and
/// queueing time belong in what the caller observes).
pub fn encode_resp(r: &Response) -> String {
    let mut out = String::with_capacity(256);
    out.push('{');
    wire::write_response(&mut out, r, true);
    let _ = write!(out, ",\"latency_ns\":{}}}", r.latency.as_nanos() as u64);
    out
}

/// Parse a Resp frame payload back into a [`Response`].
///
/// # Errors
///
/// A human-readable description of the first malformed field.
pub fn parse_resp(text: &str) -> Result<Response, String> {
    let v = parse_payload(text)?;
    Ok(Response {
        worker: get_usize(&v, "worker")?,
        latency: Duration::from_nanos(get_u64(&v, "latency_ns")?),
        ..wire::read_response(&v)?
    })
}

// ---------------------------------------------------------------------
// Err
// ---------------------------------------------------------------------

/// Encode a request-level failure for `seq`.
///
/// Every [`ServeError`] variant gets a stable wire code plus its
/// structured fields, so the router reconstructs the *same variant* the
/// shard raised — a fleet caller matches on [`ServeError`] exactly as a
/// solo caller would. The two variants carrying non-reconstructible
/// payloads (`Deploy`'s error struct) travel as their rendering.
pub fn encode_err(seq: u64, e: &ServeError) -> String {
    let (code, data) = match e {
        ServeError::Deploy(d) => ("deploy", format!("{{\"detail\":\"{}\"}}", escape(&d.to_string()))),
        ServeError::BadConfig(m) => ("bad_config", format!("{{\"detail\":\"{}\"}}", escape(m))),
        ServeError::QueueFull => ("queue_full", "{}".to_string()),
        ServeError::ShuttingDown => ("shutting_down", "{}".to_string()),
        ServeError::Unavailable(m) => {
            ("unavailable", format!("{{\"detail\":\"{}\"}}", escape(m)))
        }
        ServeError::WaitTimeout => ("wait_timeout", "{}".to_string()),
        ServeError::BadInput { expected, got } => (
            "bad_input",
            format!("{{\"expected\":{expected},\"got\":{got}}}"),
        ),
        ServeError::InputOutOfRange { channel, value } => (
            "input_out_of_range",
            format!("{{\"channel\":{channel},\"value\":{}}}", num(f64::from(*value))),
        ),
        ServeError::Pack(m) => ("pack", format!("{{\"detail\":\"{}\"}}", escape(m))),
        // The routing failures carry the same detail object the gateway
        // serves. ServeError is #[non_exhaustive]; ship future variants
        // as their rendering rather than failing to serve an error at all.
        other => other.routing_detail().unwrap_or_else(|| {
            (
                "other",
                format!("{{\"detail\":\"{}\"}}", escape(&other.to_string())),
            )
        }),
    };
    format!(
        "{{\"seq\":{seq},\"code\":\"{code}\",\"message\":\"{}\",\"data\":{data}}}",
        escape(&e.to_string())
    )
}

/// Parse an Err frame payload into `(seq, error)`.
///
/// # Errors
///
/// A human-readable description of the first malformed field.
pub fn parse_err(text: &str) -> Result<(u64, ServeError), String> {
    let v = parse_payload(text)?;
    let seq = get_u64(&v, "seq")?;
    let code = get_str(&v, "code")?;
    let data = field(&v, "data")?;
    let error = match code {
        "queue_full" => ServeError::QueueFull,
        "shutting_down" => ServeError::ShuttingDown,
        "unavailable" => ServeError::Unavailable(get_str(data, "detail")?.to_string()),
        "wait_timeout" => ServeError::WaitTimeout,
        "bad_input" => ServeError::BadInput {
            expected: get_usize(data, "expected")?,
            got: get_usize(data, "got")?,
        },
        "input_out_of_range" => ServeError::InputOutOfRange {
            channel: get_usize(data, "channel")?,
            value: get_f64(data, "value")? as f32,
        },
        "unknown_class" => ServeError::UnknownClass {
            class: get_usize(data, "class")?,
            classes: get_usize(data, "classes")?,
        },
        "unknown_model" => ServeError::UnknownModel {
            model: get_usize(data, "model")?,
            models: get_usize(data, "models")?,
        },
        "unknown_quality" => ServeError::UnknownQuality {
            quality: get_str(data, "quality")?.to_string(),
            tiers: string_array(data, "tiers")?,
        },
        "pack" => ServeError::Pack(get_str(data, "detail")?.to_string()),
        "bad_config" => ServeError::BadConfig(get_str(data, "detail")?.to_string()),
        // `deploy` cannot rebuild its error struct from a string; carry
        // the rendering in the closest reconstructible variant.
        "deploy" => ServeError::BadConfig(format!(
            "shard deploy failure: {}",
            get_str(data, "detail")?
        )),
        _ => ServeError::BadConfig(get_str(&v, "message")?.to_string()),
    };
    Ok((seq, error))
}

// ---------------------------------------------------------------------
// Ctrl / Ack
// ---------------------------------------------------------------------

/// A router → shard control action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ctrl {
    /// Rebuild the shard's replica set at this count (the fleet's
    /// rolling-rescale step; maps to
    /// `ServeRuntime::apply_control(SetReplicas)`).
    SetReplicas(usize),
    /// Stop accepting requests, drain, and close the connection.
    Shutdown,
}

impl Ctrl {
    /// Encode as the Ctrl frame payload.
    pub fn encode(&self) -> String {
        match self {
            Ctrl::SetReplicas(r) => format!("{{\"op\":\"set_replicas\",\"replicas\":{r}}}"),
            Ctrl::Shutdown => "{\"op\":\"shutdown\"}".to_string(),
        }
    }

    /// Parse a Ctrl frame payload.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed field.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = parse_payload(text)?;
        match get_str(&v, "op")? {
            "set_replicas" => Ok(Ctrl::SetReplicas(get_usize(&v, "replicas")?)),
            "shutdown" => Ok(Ctrl::Shutdown),
            op => Err(format!("unknown control op {op:?}")),
        }
    }
}

/// A shard's acknowledgement of one [`Ctrl`] frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ack {
    /// The acknowledged op (`"set_replicas"` / `"shutdown"`).
    pub op: String,
    /// `None` on success, the shard-side error rendering on failure.
    pub error: Option<String>,
}

impl Ack {
    /// Encode as the Ack frame payload.
    pub fn encode(&self) -> String {
        match &self.error {
            None => format!("{{\"op\":\"{}\",\"ok\":true,\"error\":null}}", escape(&self.op)),
            Some(e) => format!(
                "{{\"op\":\"{}\",\"ok\":false,\"error\":\"{}\"}}",
                escape(&self.op),
                escape(e)
            ),
        }
    }

    /// Parse an Ack frame payload.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed field.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = parse_payload(text)?;
        let op = get_str(&v, "op")?.to_string();
        let ok = get_bool(&v, "ok")?;
        let error = opt_str(&v, "error")?.map(str::to_string);
        if ok == error.is_some() {
            return Err("ack \"ok\" contradicts \"error\"".to_string());
        }
        Ok(Self { op, error })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_serve::ServedAs;

    #[test]
    fn hello_round_trips_and_checks_schema() {
        let hello = Hello {
            n_inputs: 4,
            n_classes: 3,
            models: vec![(4, 3), (2, 2)],
            replicas: 2,
            packed: true,
            kernel_batch: 8,
            spf: vec![8, 16],
            tiers: vec!["fast".to_string(), "certain".to_string()],
            queue_capacity: 256,
            cores: 6,
        };
        assert_eq!(Hello::parse(&hello.encode()), Ok(hello));
        let foreign = "{\"schema\":\"tn-fleet/9\",\"n_inputs\":1}";
        assert!(Hello::parse(foreign).expect_err("schema").contains("tn-fleet/9"));
    }

    #[test]
    fn req_round_trips_with_exact_floats() {
        // 0.1 is not representable; the shortest-repr encoding must
        // bring back the identical f32 bits.
        let req = SubmitRequest::new(vec![0.1, 1.0, 0.0, 0.333_333_34])
            .model(1)
            .class(2)
            .quality("fast");
        let (seq, parsed) = parse_req(&encode_req(17, &req)).expect("parse");
        assert_eq!(seq, 17);
        assert_eq!(parsed.seq, Some(17), "wire seq pins the request seq");
        assert_eq!(parsed.frame, req.frame, "f32s must round-trip bit-exactly");
        assert_eq!((parsed.model, parsed.class), (1, 2));
        assert_eq!(parsed.quality.as_deref(), Some("fast"));

        let bare = SubmitRequest::new(vec![0.5]);
        let (_, parsed) = parse_req(&encode_req(0, &bare)).expect("parse");
        assert_eq!(parsed.quality, None);
    }

    #[test]
    fn resp_round_trips_every_field() {
        let r = Response {
            seq: 41,
            predicted: 2,
            votes: vec![1, 0, 7],
            replica_predictions: vec![2, 2, 0],
            agreement: 2.0 / 3.0,
            served: ServedAs::new(1, 0, 16)
                .with_tier("certain")
                .with_confidence(0.875)
                .with_escalated(true),
            worker: 3,
            ticks: 17,
            latency: Duration::from_nanos(12_345),
        };
        let parsed = parse_resp(&encode_resp(&r)).expect("parse");
        assert_eq!(parsed, r);
    }

    #[test]
    fn every_error_variant_round_trips_to_the_same_variant() {
        let cases = vec![
            ServeError::QueueFull,
            ServeError::ShuttingDown,
            ServeError::Unavailable("no healthy shard".to_string()),
            ServeError::WaitTimeout,
            ServeError::BadInput { expected: 4, got: 2 },
            ServeError::InputOutOfRange { channel: 1, value: 1.5 },
            ServeError::UnknownClass { class: 9, classes: 2 },
            ServeError::UnknownModel { model: 3, models: 1 },
            ServeError::UnknownQuality {
                quality: "warp".to_string(),
                tiers: vec!["fast".to_string()],
            },
            ServeError::Pack("tenant 1 does not fit".to_string()),
            ServeError::BadConfig("replicas must be >= 1".to_string()),
        ];
        for e in cases {
            let (seq, back) = parse_err(&encode_err(7, &e)).expect("parse");
            assert_eq!(seq, 7);
            assert_eq!(back, e);
        }
    }

    #[test]
    fn ctrl_and_ack_round_trip() {
        for c in [Ctrl::SetReplicas(3), Ctrl::Shutdown] {
            assert_eq!(Ctrl::parse(&c.encode()), Ok(c.clone()));
        }
        for a in [
            Ack { op: "set_replicas".to_string(), error: None },
            Ack {
                op: "set_replicas".to_string(),
                error: Some("replicas out of bounds".to_string()),
            },
        ] {
            assert_eq!(Ack::parse(&a.encode()), Ok(a.clone()));
        }
        assert!(Ack::parse("{\"op\":\"x\",\"ok\":true,\"error\":\"boom\"}").is_err());
    }
}
