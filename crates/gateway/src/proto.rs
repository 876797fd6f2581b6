//! Wire payloads: request-body parsing and response JSON rendering.
//!
//! Both wire modes (HTTP bodies and line-JSON) share these shapes; only
//! the framing around them differs. A classify request and its answer
//! are read and written by [`tn_serve::wire`], the one codec the fleet's
//! frames use too; this module adds the gateway's own members and the
//! introspection and error bodies. Parsing reuses the strict
//! [`tn_telemetry::json`] reader — anything malformed is a 400, never a
//! guess — and rendering is plain `format!` with escaped strings and
//! [`num`] floats, so the gateway stays dependency-free.

use std::fmt::Write;

use tn_serve::{wire, Backpressure, Response, ServeBackend, SubmitRequest};
use tn_telemetry::json::{self, escape, num};

/// Parse a `POST /v1/classify` body: the [`wire::read_request`] object
/// `{"frame":[x0, x1, ...]}`, with the optional routing knobs
/// `"class"`, `"model"` and `"quality"`.
pub(crate) fn parse_classify_body(body: &[u8]) -> Result<SubmitRequest, String> {
    let text =
        std::str::from_utf8(body).map_err(|_| "body is not valid UTF-8".to_string())?;
    let value = json::parse(text).map_err(|e| e.to_string())?;
    wire::read_request(&value)
}

/// Render one classification result: the [`wire::write_response`]
/// members, including the uncertainty verdict (`"tier"` — the answering
/// tier's name, or `null` for tier-less requests — `"confidence"` and
/// `"escalated"`), plus `"latency_us"` and `"joules_per_frame"`.
pub(crate) fn classify_json(r: &Response, joules_per_frame: f64) -> String {
    let mut out = String::with_capacity(256);
    out.push('{');
    wire::write_response(&mut out, r, false);
    let _ = write!(
        out,
        ",\"latency_us\":{},\"joules_per_frame\":{}}}",
        u64::try_from(r.latency.as_micros()).unwrap_or(u64::MAX),
        num(joules_per_frame),
    );
    out
}

/// Render a structured error body:
/// `{"error":{"code":...,"message":...,"detail":null}}`.
pub(crate) fn error_json(code: &str, message: &str) -> String {
    error_json_detail(code, message, None)
}

/// [`error_json`] with a machine-readable `"detail"` object — the one
/// error shape every routing failure shares. `detail` must already be
/// rendered JSON (an object naming what was asked for and what the
/// runtime actually serves); `None` renders `null`.
pub(crate) fn error_json_detail(code: &str, message: &str, detail: Option<&str>) -> String {
    format!(
        "{{\"error\":{{\"code\":\"{}\",\"message\":\"{}\",\"detail\":{}}}}}",
        escape(code),
        escape(message),
        detail.unwrap_or("null"),
    )
}

/// Render the health probe body.
pub(crate) fn health_json() -> String {
    "{\"status\":\"ok\"}".to_string()
}

/// Render the `/v1/config` body: model introspection plus the serve
/// config, with the *live* values for knobs the adaptive controller can
/// move (`replicas`, `kernel_batch`, and per-class `spf`).
///
/// `"model"` stays tenant 0 (backward compatible); the `"models"` array
/// lists every packed tenant (a single entry on solo runtimes), and
/// `"packed"` flags multi-tenant runtimes.
pub(crate) fn config_json(rt: &dyn ServeBackend) -> String {
    let mut models = String::new();
    wire::write_list(
        &mut models,
        (0..rt.models()).map(|m| {
            format!(
                "{{\"id\":{m},\"n_inputs\":{},\"n_classes\":{}}}",
                rt.model_n_inputs(m).unwrap_or(0),
                rt.model_n_classes(m).unwrap_or(0),
            )
        }),
    );
    let cfg = rt.config();
    let mut tiers = String::new();
    wire::write_list(
        &mut tiers,
        cfg.tiers.iter().map(|t| {
            let mut escalate = String::new();
            wire::write_str_or_null(&mut escalate, t.escalate_to.as_deref());
            format!(
                "{{\"name\":\"{}\",\"replicas\":{},\"spf\":{},\"kernel_batch\":{},\
                 \"confidence_target\":{},\"escalate_to\":{escalate}}}",
                escape(&t.name),
                t.replicas,
                t.spf,
                t.kernel_batch,
                num(f64::from(t.confidence_target)),
            )
        }),
    );
    let mut spf = String::new();
    wire::write_list(&mut spf, rt.spf_per_class());
    format!(
        "{{\"schema\":\"tn-gateway/1\",\
         \"model\":{{\"n_inputs\":{},\"n_classes\":{},\"replicas\":{}}},\
         \"models\":{models},\"packed\":{},\"tiers\":{tiers},\
         \"serve\":{{\"workers\":{},\"spf\":{spf},\"seed\":{},\"queue_capacity\":{},\
         \"batch_max\":{},\"kernel_batch\":{},\"backpressure\":\"{}\",\
         \"connectivity\":\"{}\",\"telemetry\":{}}}}}",
        rt.n_inputs(),
        rt.n_classes(),
        rt.replicas(),
        rt.is_packed(),
        cfg.workers,
        cfg.seed,
        cfg.queue_capacity,
        cfg.batch_max,
        rt.kernel_batch(),
        match cfg.backpressure {
            Backpressure::Block => "block",
            Backpressure::Reject => "reject",
        },
        escape(&format!("{:?}", cfg.connectivity)),
        cfg.telemetry.is_some(),
    )
}

/// Error slug for an HTTP parse failure status.
pub(crate) fn http_error_code(status: u16) -> &'static str {
    match status {
        413 => "payload_too_large",
        414 => "uri_too_long",
        431 => "headers_too_large",
        501 => "not_implemented",
        505 => "version_not_supported",
        _ => "bad_request",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn classify_frames_parse_and_reject() {
        assert_eq!(
            parse_classify_body(b"{\"frame\":[1,0.5,0]}").expect("parse"),
            SubmitRequest::new(vec![1.0, 0.5, 0.0])
        );
        assert_eq!(
            parse_classify_body(b"{\"frame\":[1,0],\"class\":2}").expect("parse"),
            SubmitRequest::new(vec![1.0, 0.0]).class(2)
        );
        assert_eq!(
            parse_classify_body(b"{\"frame\":[1,0],\"model\":1}").expect("parse"),
            SubmitRequest::new(vec![1.0, 0.0]).model(1)
        );
        assert_eq!(
            parse_classify_body(b"{\"frame\":[0],\"class\":1,\"model\":3}").expect("parse"),
            SubmitRequest::new(vec![0.0]).class(1).model(3)
        );
        assert_eq!(
            parse_classify_body(b"{\"frame\":[1],\"quality\":\"fast\"}").expect("parse"),
            SubmitRequest::new(vec![1.0]).quality("fast")
        );
        for (body, needle) in [
            (&b"{}"[..], "missing"),
            (b"{\"frame\":3}", "array"),
            (b"{\"frame\":[\"x\"]}", "not a number"),
            (b"{\"frame\":[1],\"class\":-1}", "class"),
            (b"{\"frame\":[1],\"class\":\"gold\"}", "class"),
            (b"{\"frame\":[1],\"model\":-2}", "model"),
            (b"{\"frame\":[1],\"model\":\"five\"}", "model"),
            (b"{\"frame\":[1],\"quality\":7}", "quality"),
            (b"not json", "JSON error"),
            (b"\xff\xfe", "UTF-8"),
        ] {
            let err = parse_classify_body(body).expect_err("reject");
            assert!(err.contains(needle), "{err:?} missing {needle:?}");
        }
    }

    #[test]
    fn rendered_bodies_are_valid_json() {
        let resp = Response {
            seq: 3,
            predicted: 1,
            votes: vec![2, 9],
            replica_predictions: vec![1, 1, 0],
            agreement: 2.0 / 3.0,
            served: tn_serve::ServedAs::new(1, 2, 16)
                .with_tier("certain")
                .with_confidence(0.875)
                .with_escalated(true),
            worker: 0,
            ticks: 16,
            latency: Duration::from_micros(420),
        };
        let body = classify_json(&resp, 1.25e-9);
        let v = json::parse(&body).expect("valid JSON");
        assert_eq!(v.get("predicted").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("votes").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.get("class").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("model").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("spf").unwrap().as_u64(), Some(16));
        assert_eq!(v.get("tier").unwrap().as_str(), Some("certain"));
        assert!((v.get("confidence").unwrap().as_f64().unwrap() - 0.875).abs() < 1e-9);
        assert_eq!(v.get("escalated").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("latency_us").unwrap().as_u64(), Some(420));
        assert!(v.get("joules_per_frame").unwrap().as_f64().unwrap() > 0.0);
        // Tier-less responses render "tier": null and the raw margin.
        let bare = Response {
            served: tn_serve::ServedAs::new(0, 0, 8).with_confidence(0.5),
            ..resp
        };
        let v = json::parse(&classify_json(&bare, 0.0)).expect("valid JSON");
        assert!(v.get("tier").unwrap().is_null());
        assert_eq!(v.get("escalated").unwrap().as_bool(), Some(false));

        let err = error_json("queue_full", "queue \"full\"\n");
        let v = json::parse(&err).expect("valid JSON");
        assert_eq!(
            v.get("error").unwrap().get("code").unwrap().as_str(),
            Some("queue_full")
        );
        assert!(v.get("error").unwrap().get("detail").unwrap().is_null());
        let err = error_json_detail(
            "unknown_quality",
            "no such tier",
            Some("{\"quality\":\"turbo\",\"tiers\":[\"fast\"]}"),
        );
        let v = json::parse(&err).expect("valid JSON");
        let detail = v.get("error").unwrap().get("detail").unwrap();
        assert_eq!(detail.get("quality").unwrap().as_str(), Some("turbo"));
        assert_eq!(detail.get("tiers").unwrap().as_array().unwrap().len(), 1);
        json::parse(&health_json()).expect("valid JSON");
    }

    #[test]
    fn non_finite_numbers_degrade_to_zero() {
        assert_eq!(num(f64::NAN).to_string(), "0");
        assert_eq!(num(f64::INFINITY).to_string(), "0");
        assert_eq!(num(0.5).to_string(), "0.5");
    }
}
