//! The client side of the gateway's HTTP/1.1 wire: request rendering and
//! response framing for keep-alive, pipelined connections.

/// Render one `POST /v1/classify` request whose body carries `frame`
/// (and `model`, when not tenant 0).
pub fn classify_request(frame: &[f32], model: usize) -> Vec<u8> {
    let mut body = String::with_capacity(frame.len() * 10 + 32);
    body.push_str("{\"frame\":[");
    for (i, v) in frame.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        // `{:?}` prints the shortest decimal that reads back as the same
        // f32, so the served frame is bit-identical to the in-process one.
        body.push_str(&format!("{v:?}"));
    }
    body.push(']');
    if model != 0 {
        body.push_str(&format!(",\"model\":{model}"));
    }
    body.push('}');
    let mut out = format!(
        "POST /v1/classify HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// One framed response from the front of a read buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Framed {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Buffer bytes the response occupied (head and body).
    pub consumed: usize,
}

/// Frame the next `Content-Length` response at the front of `buf`.
/// `Ok(None)` means more bytes are needed; `Err` means the stream cannot
/// be framed (a response without a length, or a malformed head).
pub fn frame_response(buf: &[u8]) -> Result<Option<Framed>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut length = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(format!("bad header line {line:?}"));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            length = Some(
                value
                    .trim()
                    .parse::<usize>()
                    .map_err(|_| format!("bad Content-Length {value:?}"))?,
            );
        }
    }
    let length = length.ok_or("response without Content-Length")?;
    let body_start = head_end + 4;
    if buf.len() < body_start + length {
        return Ok(None);
    }
    Ok(Some(Framed {
        status,
        body: buf[body_start..body_start + length].to_vec(),
        consumed: body_start + length,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_gateway::http::{parse_request, HttpLimits, HttpResponse, Parsed};

    fn rendered(status: u16, body: &str) -> Vec<u8> {
        let mut out = Vec::new();
        HttpResponse::json(status, body).write_to(&mut out);
        out
    }

    #[test]
    fn frames_pipelined_responses_in_order() {
        let mut buf = rendered(200, "{\"seq\":1}");
        buf.extend(rendered(503, "{\"error\":{}}"));
        let first = frame_response(&buf).expect("frames").expect("complete");
        assert_eq!(
            (first.status, first.body.as_slice()),
            (200, &b"{\"seq\":1}"[..])
        );
        buf.drain(..first.consumed);
        let second = frame_response(&buf).expect("frames").expect("complete");
        assert_eq!(second.status, 503);
        assert_eq!(second.consumed, buf.len());
    }

    #[test]
    fn partial_responses_wait_for_more_bytes() {
        let full = rendered(200, "{\"seq\":12345}");
        for cut in 0..full.len() {
            assert_eq!(frame_response(&full[..cut]), Ok(None), "cut at {cut}");
        }
        assert!(frame_response(&full).expect("frames").is_some());
    }

    #[test]
    fn unframeable_responses_are_errors() {
        assert!(frame_response(b"HTTP/1.1 200 OK\r\nX: y\r\n\r\n{}").is_err());
        assert!(frame_response(b"HTTP/1.1 2x0 OK\r\nContent-Length: 0\r\n\r\n").is_err());
        assert!(frame_response(b"HTTP/1.1 200 OK\r\ncontent-length: zz\r\n\r\n").is_err());
        let lower = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\n{}";
        assert_eq!(
            frame_response(lower)
                .expect("frames")
                .expect("complete")
                .body,
            b"{}"
        );
    }

    #[test]
    fn rendered_requests_parse_on_the_gateway() {
        let frame = [0.0f32, 0.25, 1.0, 0.1];
        let bytes = classify_request(&frame, 1);
        let Parsed::Request { request, consumed } = parse_request(&bytes, &HttpLimits::default())
        else {
            panic!("request must parse");
        };
        assert_eq!(consumed, bytes.len());
        assert_eq!(request.method, "POST");
        assert_eq!(request.target, "/v1/classify");
        assert!(request.keep_alive);
        let body = std::str::from_utf8(&request.body).expect("utf-8");
        assert_eq!(body, "{\"frame\":[0.0,0.25,1.0,0.1],\"model\":1}");
    }
}
