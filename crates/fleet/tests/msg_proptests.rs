//! Property tests for the fleet's frame and message parsers.
//!
//! A router reads whatever its shards' connections deliver, so every
//! parser must treat its input as adversarial: for *any* bytes —
//! random, a valid payload cut short, or a valid payload with one byte
//! changed — it returns an error or a value, never a panic. Valid
//! payloads must round-trip exactly: a frame's spike probabilities
//! bit for bit (fleet ≡ solo rests on it), and every [`Response`]
//! field. And what the fleet's request writer writes, the request
//! reader the gateway parses its bodies with must accept as the same
//! request.

use std::time::Duration;

use proptest::collection::vec;
use proptest::prelude::*;

use tn_fleet::frame::{read_frame, write_frame, FrameKind};
use tn_fleet::msg::{
    encode_err, encode_req, encode_resp, parse_err, parse_req, parse_resp, Ack, Ctrl, Hello,
};
use tn_serve::{wire, Response, ServeError, ServedAs, SubmitRequest};
use tn_telemetry::json;

/// Characters that stress the string escaper: quotes, backslashes,
/// control characters and multi-byte scalars.
const NAME_CHARS: &[char] = &['a', 'z', '0', '"', '\\', '\n', '\t', '\u{1}', 'é', '→', ' ', '/'];

fn name(idx: &[usize]) -> String {
    idx.iter().map(|&i| NAME_CHARS[i]).collect()
}

fn bytes(raw: Vec<u32>) -> Vec<u8> {
    raw.into_iter().map(|b| b as u8).collect()
}

/// A finite `f32` from arbitrary bits (non-finite bits become 0.5).
fn finite(bits: u32) -> f32 {
    let x = f32::from_bits(bits);
    if x.is_finite() {
        x
    } else {
        0.5
    }
}

/// Every f32 in `[0, 1]` by bit pattern: 0, subnormals, and 1.0.
fn unit_frame() -> impl Strategy<Value = Vec<f32>> {
    vec(0u32..=0x3f80_0000, 0..48).prop_map(|bits| bits.into_iter().map(f32::from_bits).collect())
}

/// A request with a frame from `0.0..=1.0` and arbitrary routing.
fn request_strategy() -> impl Strategy<Value = SubmitRequest> {
    (
        vec(0.0f32..=1.0, 0..48),
        (0usize..4, 0usize..4),
        vec(0usize..NAME_CHARS.len(), 0..6),
        0u32..2,
    )
        .prop_map(|(frame, (model, class), quality, tiered)| {
            let req = SubmitRequest::new(frame).model(model).class(class);
            if tiered == 1 {
                req.quality(name(&quality))
            } else {
                req
            }
        })
}

fn response_strategy() -> impl Strategy<Value = Response> {
    (
        (0u64..u64::MAX, 0usize..16, vec(0u64..u64::MAX, 0..12), vec(0usize..16, 0..8)),
        (0u32..u32::MAX, 0u32..u32::MAX, (0usize..4, 0usize..4, 1usize..64), 0u32..2),
        (vec(0usize..NAME_CHARS.len(), 0..6), 0u32..2, 0usize..8, 0u64..u64::MAX),
        0u64..u64::MAX,
    )
        .prop_map(
            |(
                (seq, predicted, votes, replica_predictions),
                (agreement, confidence, (class, model, spf), escalated),
                (tier, tiered, worker, ticks),
                latency_ns,
            )| {
                let mut served = ServedAs::new(class, model, spf)
                    .with_confidence(finite(confidence))
                    .with_escalated(escalated == 1);
                if tiered == 1 {
                    served = served.with_tier(name(&tier));
                }
                Response {
                    // JSON numbers are doubles: integers round-trip
                    // below 2^53, which is what every counter stays in.
                    seq: seq >> 11,
                    predicted,
                    votes: votes.into_iter().map(|v| v >> 11).collect(),
                    replica_predictions,
                    agreement: finite(agreement),
                    served,
                    worker,
                    ticks: ticks >> 11,
                    latency: Duration::from_nanos(latency_ns >> 11),
                }
            },
        )
}

fn error_strategy() -> impl Strategy<Value = ServeError> {
    (0usize..11, vec(0usize..NAME_CHARS.len(), 0..8), 0usize..1000, 0u32..u32::MAX).prop_map(
        |(variant, text, n, bits)| {
            let text = name(&text);
            match variant {
                0 => ServeError::QueueFull,
                1 => ServeError::ShuttingDown,
                2 => ServeError::Unavailable(text),
                3 => ServeError::WaitTimeout,
                4 => ServeError::BadInput { expected: n, got: n + 1 },
                5 => ServeError::InputOutOfRange { channel: n, value: finite(bits) },
                6 => ServeError::UnknownClass { class: n, classes: n / 2 },
                7 => ServeError::UnknownModel { model: n, models: n / 3 },
                8 => ServeError::UnknownQuality { quality: text.clone(), tiers: vec![text; n % 3] },
                9 => ServeError::Pack(text),
                _ => ServeError::BadConfig(text),
            }
        },
    )
}

/// One valid payload of every fleet message kind.
fn valid_payloads(req: &SubmitRequest, resp: &Response, err: &ServeError) -> Vec<String> {
    let hello = Hello {
        n_inputs: req.frame.len(),
        n_classes: resp.votes.len(),
        models: vec![(req.frame.len(), resp.votes.len())],
        replicas: resp.replica_predictions.len(),
        packed: false,
        kernel_batch: 8,
        spf: vec![resp.spf()],
        tiers: resp.tier().map(str::to_string).into_iter().collect(),
        queue_capacity: 256,
        cores: 4,
    };
    vec![
        encode_req(resp.seq, req),
        encode_resp(resp),
        encode_err(resp.seq, err),
        hello.encode(),
        Ctrl::SetReplicas(resp.worker).encode(),
        Ctrl::Shutdown.encode(),
        Ack { op: "set_replicas".to_string(), error: resp.tier().map(str::to_string) }.encode(),
    ]
}

/// Run every message parser on `payload`, and the frame reader on it
/// both raw and framed. Only a panic can fail this.
fn parse_everything(payload: &[u8]) {
    let text = String::from_utf8_lossy(payload);
    let _ = parse_req(&text);
    let _ = parse_resp(&text);
    let _ = parse_err(&text);
    let _ = Hello::parse(&text);
    let _ = Ctrl::parse(&text);
    let _ = Ack::parse(&text);
    let mut raw = payload;
    while let Ok(Some(_)) = read_frame(&mut raw) {}
    let mut framed = Vec::new();
    write_frame(&mut framed, FrameKind::Req, payload).expect("frame fits");
    let mut reader = &framed[..];
    let (kind, back) = read_frame(&mut reader).expect("framed").expect("one frame");
    assert_eq!((kind, back.as_slice()), (FrameKind::Req, payload));
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_any_parser(raw in vec(0u32..256, 0..512)) {
        parse_everything(&bytes(raw));
    }

    #[test]
    fn truncated_and_flipped_payloads_never_panic(
        req in request_strategy(),
        resp in response_strategy(),
        err in error_strategy(),
        mutation in (0usize..4096, 0usize..4096, 0u32..256),
    ) {
        let (cut, at, byte) = mutation;
        for payload in valid_payloads(&req, &resp, &err) {
            let payload = payload.into_bytes();
            parse_everything(&payload[..cut % (payload.len() + 1)]);
            let mut flipped = payload.clone();
            let i = at % flipped.len();
            flipped[i] = byte as u8;
            parse_everything(&flipped);
        }
    }

    #[test]
    fn frames_round_trip_bit_exactly(
        req in request_strategy(),
        unit in unit_frame(),
        seq in 0u64..(1 << 53),
    ) {
        for frame in [req.frame.clone(), unit] {
            let mut req = req.clone();
            req.frame = frame;
            let (back_seq, back) = parse_req(&encode_req(seq, &req)).expect("valid Req");
            prop_assert_eq!(back_seq, seq);
            prop_assert_eq!(back.seq, Some(seq));
            let bits = |f: &[f32]| f.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&back.frame), bits(&req.frame));
            prop_assert_eq!((back.model, back.class), (req.model, req.class));
            prop_assert_eq!(back.quality, req.quality);
        }
    }

    #[test]
    fn every_response_round_trips(resp in response_strategy()) {
        let back = parse_resp(&encode_resp(&resp)).expect("valid Resp");
        prop_assert_eq!(back.agreement.to_bits(), resp.agreement.to_bits());
        prop_assert_eq!(back.confidence().to_bits(), resp.confidence().to_bits());
        prop_assert_eq!(back, resp);
    }

    #[test]
    fn every_error_round_trips(err in error_strategy(), seq in 0u64..(1 << 53)) {
        prop_assert_eq!(parse_err(&encode_err(seq, &err)), Ok((seq, err)));
    }

    #[test]
    fn the_gateway_request_reader_accepts_the_fleet_writer(
        req in request_strategy(),
        seq in 0u64..(1 << 53),
    ) {
        // The gateway parses a classify body exactly so: JSON, then
        // wire::read_request, which never takes the fleet's seq.
        let value = json::parse(&encode_req(seq, &req)).expect("valid JSON");
        prop_assert_eq!(wire::read_request(&value), Ok(req));
    }
}
