//! The one JSON codec of a request (a frame plus routing) and an answer
//! (a vote vector plus how it was served), shared by `tn-gateway`'s
//! bodies and `tn-fleet`'s frames, which only add envelope members.
//! Floats follow [`tn_telemetry::json::num`], the shortest decimal that
//! reads back to the same bits: fleet ≡ solo rests on it.
//!
//! Writers append comma-separated `"key":value` members without braces.
//! Readers take a parsed [`JsonValue`] and name the first malformed
//! field; the typed getters also serve the fleet's own frames.

use std::fmt::{Display, Write};
use std::time::Duration;

use tn_telemetry::json::{escape, num, JsonValue};

use crate::{Response, ServedAs, SubmitRequest};

/// The member `key` of object `v`, or `missing key "key"`.
pub fn field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    v.get(key).ok_or_else(|| format!("missing key {key:?}"))
}

/// The member `key` read by `as_t`, or an error saying it is not `what`.
fn typed<'a, T>(
    v: &'a JsonValue,
    key: &str,
    what: &str,
    as_t: impl Fn(&'a JsonValue) -> Option<T>,
) -> Result<T, String> {
    as_t(field(v, key)?).ok_or_else(|| format!("{key:?} is not {what}"))
}

/// The non-negative integer member `key`.
pub fn get_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    typed(v, key, "a non-negative integer", JsonValue::as_u64)
}

/// The non-negative integer member `key`, as a `usize`.
pub fn get_usize(v: &JsonValue, key: &str) -> Result<usize, String> {
    typed(v, key, "a non-negative integer", as_usize)
}

/// The number member `key`.
pub fn get_f64(v: &JsonValue, key: &str) -> Result<f64, String> {
    typed(v, key, "a number", JsonValue::as_f64)
}

/// The boolean member `key`.
pub fn get_bool(v: &JsonValue, key: &str) -> Result<bool, String> {
    typed(v, key, "a boolean", JsonValue::as_bool)
}

/// The string member `key`.
pub fn get_str<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    typed(v, key, "a string", JsonValue::as_str)
}

/// The array member `key`.
pub fn get_array<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], String> {
    typed(v, key, "an array", JsonValue::as_array)
}

/// The optional string member `key`: absent or `null` is `None`.
pub fn opt_str<'a>(v: &'a JsonValue, key: &str) -> Result<Option<&'a str>, String> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(_) => typed(v, key, "a string or null", JsonValue::as_str).map(Some),
    }
}

fn as_usize(x: &JsonValue) -> Option<usize> {
    x.as_u64().and_then(|n| usize::try_from(n).ok())
}

/// Every item of the array member `key` read by `item`; the first it
/// refuses is named `key[i]`.
fn array_of<T>(
    v: &JsonValue,
    key: &str,
    what: &str,
    item: impl Fn(&JsonValue) -> Option<T>,
) -> Result<Vec<T>, String> {
    get_array(v, key)?
        .iter()
        .enumerate()
        .map(|(i, x)| item(x).ok_or_else(|| format!("{key:?}[{i}] is not {what}")))
        .collect()
}

/// The array member `key` of non-negative integers.
pub fn u64_array(v: &JsonValue, key: &str) -> Result<Vec<u64>, String> {
    array_of(v, key, "a non-negative integer", JsonValue::as_u64)
}

/// The array member `key` of non-negative integers, as `usize`s.
pub fn usize_array(v: &JsonValue, key: &str) -> Result<Vec<usize>, String> {
    array_of(v, key, "a non-negative integer", as_usize)
}

/// The array member `key` of numbers as `f32`s (exact for anything
/// [`write_f32s`] wrote).
pub fn f32_array(v: &JsonValue, key: &str) -> Result<Vec<f32>, String> {
    array_of(v, key, "a number", |x| x.as_f64().map(|f| f as f32))
}

/// The array member `key` of strings.
pub fn string_array(v: &JsonValue, key: &str) -> Result<Vec<String>, String> {
    array_of(v, key, "a string", |x| x.as_str().map(str::to_string))
}

/// Append `[a,b,..]`, each item by its `Display`.
pub fn write_list<T: Display>(out: &mut String, items: impl IntoIterator<Item = T>) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        let _ = write!(out, "{}{item}", if i > 0 { "," } else { "" });
    }
    out.push(']');
}

/// Append `[x0,x1,..]` under the float rule, so every `f32` reads back
/// bit-exactly.
pub fn write_f32s(out: &mut String, xs: &[f32]) {
    write_list(out, xs.iter().map(|&x| num(f64::from(x))));
}

/// Append `["a","b",..]`, escaped.
pub fn write_strings<S: AsRef<str>>(out: &mut String, items: impl IntoIterator<Item = S>) {
    write_list(out, items.into_iter().map(|s| format!("\"{}\"", escape(s.as_ref()))));
}

/// Append `"s"` escaped, or `null` for `None`.
pub fn write_str_or_null(out: &mut String, s: Option<&str>) {
    out.push_str(&s.map_or_else(|| "null".to_string(), |s| format!("\"{}\"", escape(s))));
}

/// Read a request object: `frame` (an array of numbers) is required,
/// `class` and `model` default to `0`, and `quality` absent or `null`
/// is no tier. A `seq` member is never taken: the determinism key is
/// the backend's to assign (a fleet frame pins it separately).
///
/// # Errors
///
/// A message naming the first malformed field.
pub fn read_request(v: &JsonValue) -> Result<SubmitRequest, String> {
    let zero_or = |key| v.get(key).map_or(Ok(0), |_| get_usize(v, key));
    let mut request = SubmitRequest::new(f32_array(v, "frame")?)
        .model(zero_or("model")?)
        .class(zero_or("class")?);
    if let Some(q) = opt_str(v, "quality")? {
        request = request.quality(q);
    }
    Ok(request)
}

/// Append `"frame":[..],"model":M,"class":C,"quality":..` (never `seq`).
pub fn write_request(out: &mut String, request: &SubmitRequest) {
    out.push_str("\"frame\":");
    write_f32s(out, &request.frame);
    let _ = write!(out, ",\"model\":{},\"class\":{},\"quality\":", request.model, request.class);
    write_str_or_null(out, request.quality.as_deref());
}

/// Read the members [`write_response`] writes; `worker` and `latency`
/// are not among them and come back as `0`.
///
/// # Errors
///
/// A message naming the first malformed field.
pub fn read_response(v: &JsonValue) -> Result<Response, String> {
    let (class, model) = (get_usize(v, "class")?, get_usize(v, "model")?);
    let mut served = ServedAs::new(class, model, get_usize(v, "spf")?)
        .with_confidence(get_f64(v, "confidence")? as f32)
        .with_escalated(get_bool(v, "escalated")?);
    if let Some(tier) = opt_str(v, "tier")? {
        served = served.with_tier(tier);
    }
    Ok(Response {
        seq: get_u64(v, "seq")?,
        predicted: get_usize(v, "predicted")?,
        votes: u64_array(v, "votes")?,
        replica_predictions: usize_array(v, "replica_predictions")?,
        agreement: get_f64(v, "agreement")? as f32,
        served,
        worker: 0,
        ticks: get_u64(v, "ticks")?,
        latency: Duration::ZERO,
    })
}

/// Append the 12 answer members both wire layers serve: `seq`,
/// `predicted`, `votes`, `replica_predictions`, `agreement`, `class`,
/// `model`, `spf`, `tier`, `confidence`, `escalated` and `ticks`. With
/// `worker` set, the serving worker goes just before `ticks`, where the
/// fleet's frames carry it.
pub fn write_response(out: &mut String, r: &Response, worker: bool) {
    let _ = write!(out, "\"seq\":{},\"predicted\":{},\"votes\":", r.seq, r.predicted);
    write_list(out, &r.votes);
    out.push_str(",\"replica_predictions\":");
    write_list(out, &r.replica_predictions);
    let _ = write!(
        out,
        ",\"agreement\":{},\"class\":{},\"model\":{},\"spf\":{},\"tier\":",
        num(f64::from(r.agreement)),
        r.class(),
        r.model(),
        r.spf(),
    );
    write_str_or_null(out, r.tier());
    let _ = write!(
        out,
        ",\"confidence\":{},\"escalated\":{}",
        num(f64::from(r.confidence())),
        r.escalated(),
    );
    if worker {
        let _ = write!(out, ",\"worker\":{}", r.worker);
    }
    let _ = write!(out, ",\"ticks\":{}", r.ticks);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_telemetry::json::parse;

    fn read(text: &str) -> Result<SubmitRequest, String> {
        read_request(&parse(text).map_err(|e| e.to_string())?)
    }

    #[test]
    fn request_reader_defaults_and_ignores_seq() {
        assert_eq!(read("{\"frame\":[1,0.5]}"), Ok(SubmitRequest::new(vec![1.0, 0.5])));
        assert_eq!(
            read("{\"frame\":[0],\"quality\":null,\"seq\":9}"),
            Ok(SubmitRequest::new(vec![0.0])),
            "null quality is no tier; seq is never taken"
        );
        assert_eq!(
            read("{\"frame\":[0],\"model\":2,\"class\":1,\"quality\":\"fast\"}"),
            Ok(SubmitRequest::new(vec![0.0]).model(2).class(1).quality("fast"))
        );
        for (text, needle) in [
            ("{}", "missing key \"frame\""),
            ("{\"frame\":[0,\"x\"]}", "\"frame\"[1] is not a number"),
            ("{\"frame\":[0],\"class\":1.5}", "\"class\""),
            ("{\"frame\":[0],\"quality\":3}", "\"quality\" is not a string or null"),
        ] {
            let err = read(text).expect_err(text);
            assert!(err.contains(needle), "{err:?} missing {needle:?}");
        }
    }

    #[test]
    fn request_writer_round_trips_through_the_reader() {
        let write = |req: &SubmitRequest| {
            let mut out = String::from("{");
            write_request(&mut out, req);
            out.push('}');
            out
        };
        let req = SubmitRequest::new(vec![0.5, 1.0, 0.0]).model(1).quality("q\"t");
        assert_eq!(
            write(&req),
            "{\"frame\":[0.5,1.0,0.0],\"model\":1,\"class\":0,\"quality\":\"q\\\"t\"}"
        );
        let req = SubmitRequest::new(vec![0.1, 1.0e-7, 0.333_333_34]).class(2);
        assert_eq!(read(&write(&req)), Ok(req));
    }

    #[test]
    fn response_round_trips_the_shared_members() {
        let r = Response {
            seq: 5,
            predicted: 1,
            votes: vec![3, 9],
            replica_predictions: vec![1, 0],
            agreement: 0.5,
            served: ServedAs::new(1, 0, 8).with_confidence(0.25),
            worker: 0,
            ticks: 10,
            latency: Duration::ZERO,
        };
        for worker in [false, true] {
            let mut out = String::from("{");
            write_response(&mut out, &r, worker);
            out.push('}');
            assert_eq!(out.contains("\"worker\""), worker);
            let back = read_response(&parse(&out).expect("valid JSON")).expect("read");
            assert_eq!(back, r);
        }
    }

    #[test]
    fn list_writers_render_json_arrays() {
        let mut out = String::new();
        write_list(&mut out, [1u64, 2, 3]);
        write_strings(&mut out, ["a", "b\"c"]);
        write_list(&mut out, std::iter::empty::<u64>());
        write_str_or_null(&mut out, None);
        assert_eq!(out, "[1,2,3][\"a\",\"b\\\"c\"][]null");
    }
}
