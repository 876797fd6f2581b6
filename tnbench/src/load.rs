//! Load generators: open-loop in-process, closed-loop in-process, and
//! open-loop HTTP over keep-alive connections.
//!
//! Open-loop latency runs from each request's *scheduled* send time, so a
//! stall in the system (or in the generator) charges every request it
//! delays. Closed-loop latency runs from the actual send. A refused or
//! failed request is recorded without a latency and counts as missing
//! every latency limit.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use tn_serve::{RequestHandle, ServeBackend, ServeError, SubmitRequest};
use tn_telemetry::json;

use crate::http::{frame_response, Framed};

/// How long any one answer may take before it counts as failed.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(30);
/// Lead time between building the schedule and its first send.
const LEAD: Duration = Duration::from_millis(5);

/// One request of a workload: which pool row it carries, to which tenant.
#[derive(Debug, Clone, Copy)]
pub struct Req {
    pub row: usize,
    pub model: usize,
}

/// One answered request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// Index of the request in the workload's sequence.
    pub index: usize,
    /// The serving sequence number the answer came back with.
    pub seq: u64,
    pub predicted: usize,
    pub votes: Vec<u64>,
}

/// What one measured window produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Per attempted request: latency in ms, `None` if it failed.
    pub latency_ms: Vec<Option<f64>>,
    pub answers: Vec<Answer>,
    /// Generator lag behind the schedule per send, ms (open loop only).
    pub lag_ms: Vec<f64>,
    /// Time spent inside the submit call, µs (in-process only).
    pub submit_us: Vec<f64>,
    /// Collector error per in-process answer, µs: observed latency from
    /// the submit call minus the runtime's own `Response::latency`.
    pub collector_err_us: Vec<f64>,
    /// First due (or first send) to last answer.
    pub wall: Duration,
    /// Kinds of failures seen, for the report.
    pub errors: Vec<String>,
    /// The first answered response body (HTTP only).
    pub body: Option<String>,
}

impl Outcome {
    pub fn attempted(&self) -> usize {
        self.latency_ms.len()
    }

    pub fn failed(&self) -> usize {
        self.latency_ms.iter().filter(|l| l.is_none()).count()
    }

    /// Latencies with failures ranked above every success.
    pub fn ranked_latencies(&self) -> Vec<f64> {
        ranked(&self.latency_ms)
    }

    /// Percentile `p` of each of `parts` consecutive slices of the
    /// request sequence, and their median. One burst or stall then moves
    /// one slice's figure, not the reported one.
    pub fn sliced_percentile(&self, p: f64, parts: usize) -> (f64, Vec<f64>) {
        let size = self.latency_ms.len().div_ceil(parts).max(1);
        let per: Vec<f64> = self
            .latency_ms
            .chunks(size)
            .map(|c| crate::stats::percentile(&ranked(c), p).unwrap_or(f64::NAN))
            .collect();
        (crate::stats::median(&per), per)
    }

    fn fail(&mut self, index: usize, why: String) {
        self.latency_ms[index] = None;
        if self.errors.len() < 8 {
            self.errors.push(format!("request {index}: {why}"));
        }
    }
}

fn ranked(latency_ms: &[Option<f64>]) -> Vec<f64> {
    let mut v: Vec<f64> = latency_ms
        .iter()
        .map(|l| l.unwrap_or(f64::INFINITY))
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

fn submit(
    backend: &dyn ServeBackend,
    pool: &[Vec<f32>],
    req: Req,
) -> (Result<RequestHandle, ServeError>, f64) {
    let request = SubmitRequest::new(pool[req.row].clone()).model(req.model);
    let t = Instant::now();
    let result = backend.submit_request(request);
    (result, t.elapsed().as_secs_f64() * 1e6)
}

fn collect(
    out: &mut Outcome,
    index: usize,
    from: Instant,
    sent: Instant,
    handle: &RequestHandle,
) -> Instant {
    match handle.wait_timeout(ANSWER_TIMEOUT) {
        Ok(r) => {
            let done = Instant::now();
            out.latency_ms[index] = Some((done - from).as_secs_f64() * 1e3);
            let observed = (done - sent).as_secs_f64() * 1e6;
            out.collector_err_us
                .push(observed - r.latency.as_secs_f64() * 1e6);
            out.answers.push(Answer {
                index,
                seq: r.seq,
                predicted: r.predicted,
                votes: r.votes,
            });
            done
        }
        Err(e) => {
            out.fail(index, e.to_string());
            Instant::now()
        }
    }
}

/// Open loop into an in-process backend: one thread sends on the
/// schedule, this thread waits on the handles in submission order.
pub fn open_in_process(
    backend: &dyn ServeBackend,
    pool: &[Vec<f32>],
    reqs: &[Req],
    schedule: &[Duration],
) -> Outcome {
    let mut out = Outcome {
        latency_ms: vec![Some(0.0); reqs.len()],
        ..Outcome::default()
    };
    let t0 = Instant::now() + LEAD;
    let mut last = t0;
    let (tx, rx) = mpsc::channel();
    let (lag_ms, submit_us) = std::thread::scope(|s| {
        let sender = s.spawn(move || {
            let mut lag_ms = Vec::with_capacity(reqs.len());
            let mut submit_us = Vec::with_capacity(reqs.len());
            for (i, (&req, &offset)) in reqs.iter().zip(schedule).enumerate() {
                let due = t0 + offset;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                lag_ms.push((sent - due).as_secs_f64() * 1e3);
                let (result, us) = submit(backend, pool, req);
                submit_us.push(us);
                tx.send((i, due, sent, result))
                    .expect("collector outlives sender");
            }
            (lag_ms, submit_us)
        });
        for (i, due, sent, result) in rx {
            match result {
                Ok(h) => last = last.max(collect(&mut out, i, due, sent, &h)),
                Err(e) => out.fail(i, e.to_string()),
            }
        }
        sender.join().expect("sender thread")
    });
    out.lag_ms = lag_ms;
    out.submit_us = submit_us;
    out.wall = last - t0;
    out
}

/// Closed loop into an in-process backend: `outstanding` requests in
/// flight, the next sent as the oldest is answered. One thread, so the
/// per-model submission order is the request order.
pub fn closed_in_process(
    backend: &dyn ServeBackend,
    pool: &[Vec<f32>],
    reqs: &[Req],
    outstanding: usize,
) -> Outcome {
    let mut out = Outcome {
        latency_ms: vec![Some(0.0); reqs.len()],
        ..Outcome::default()
    };
    let t0 = Instant::now();
    let mut inflight: VecDeque<(usize, Instant, RequestHandle)> = VecDeque::new();
    for (i, &req) in reqs.iter().enumerate() {
        if inflight.len() == outstanding {
            let (j, sent, h) = inflight.pop_front().expect("non-empty");
            collect(&mut out, j, sent, sent, &h);
        }
        let sent = Instant::now();
        let (result, us) = submit(backend, pool, req);
        out.submit_us.push(us);
        match result {
            Ok(h) => inflight.push_back((i, sent, h)),
            Err(e) => out.fail(i, e.to_string()),
        }
    }
    for (j, sent, h) in inflight {
        collect(&mut out, j, sent, sent, &h);
    }
    out.wall = t0.elapsed();
    out
}

/// Open loop over HTTP on one keep-alive connection: one thread sends on
/// the schedule, another reads the pipelined answers as they arrive.
/// (Blocking reads wake on arrival; a read timeout would round waits up
/// to the kernel's timer tick and make the sender late.)
pub fn open_http(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    reqs: &[Req],
    schedule: &[Duration],
) -> Outcome {
    let mut out = Outcome {
        latency_ms: vec![None; reqs.len()],
        ..Outcome::default()
    };
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            out.errors.push(format!("connect: {e}"));
            return out;
        }
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(ANSWER_TIMEOUT));
    let mut responses = ResponseReader::new(&stream);
    let t0 = Instant::now() + LEAD;
    let (tx, rx) = mpsc::channel::<(usize, Instant)>();
    let (sent, answered, recv_errors) = std::thread::scope(|s| {
        let sender = s.spawn(move || {
            let mut lag_ms = Vec::with_capacity(reqs.len());
            for (i, (req, &offset)) in reqs.iter().zip(schedule).enumerate() {
                let due = t0 + offset;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                lag_ms.push((Instant::now() - due).as_secs_f64() * 1e3);
                tx.send((i, due)).expect("reader outlives sender");
                if let Err(e) = stream.write_all(&requests[req.row]) {
                    return (lag_ms, Some(format!("send: {e}")));
                }
            }
            (lag_ms, None)
        });
        let mut answered = Vec::with_capacity(reqs.len());
        let mut errors = Vec::new();
        'read: while answered.len() < reqs.len() {
            let (done, framed) = match responses.next() {
                Ok(next) => next,
                Err(e) => {
                    errors.push(e);
                    break;
                }
            };
            for f in framed {
                let Ok((i, due)) = rx.recv() else {
                    errors.push("answer without a request".to_string());
                    break 'read;
                };
                answered.push((i, due, done, f.status, f.body));
            }
        }
        // Unblocks a sender stuck writing to a gateway that stopped reading.
        let _ = responses.stream.shutdown(std::net::Shutdown::Both);
        (sender.join().expect("sender thread"), answered, errors)
    });
    let (lag_ms, send_error) = sent;
    out.lag_ms = lag_ms;
    out.errors.extend(send_error);
    out.errors.extend(recv_errors);
    let last = answered.iter().map(|a| a.2).max().unwrap_or(t0);
    record_http(&mut out, answered);
    out.wall = last - t0;
    out
}

/// Closed loop over HTTP: `conns` keep-alive connections, each on its own
/// thread with `depth` pipelined requests in flight; the next request on
/// a connection is sent as its oldest answer arrives. Reads block, so an
/// answer is timed the moment it lands.
pub fn closed_http(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    reqs: &[Req],
    conns: usize,
    depth: usize,
) -> Outcome {
    let t0 = Instant::now();
    let parts: Vec<(Vec<HttpAnswer>, Vec<String>)> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..conns)
            .map(|c| {
                let mine: Vec<(usize, &[u8])> = (c..reqs.len())
                    .step_by(conns)
                    .map(|i| (i, requests[reqs[i].row].as_slice()))
                    .collect();
                s.spawn(move || closed_connection(addr, &mine, depth))
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("connection thread"))
            .collect()
    });
    let mut out = Outcome {
        latency_ms: vec![None; reqs.len()],
        ..Outcome::default()
    };
    for (answered, errors) in parts {
        out.errors.extend(errors);
        record_http(&mut out, answered);
    }
    out.wall = t0.elapsed();
    out
}

/// `(index, timed from, answered at, status, body)` of one HTTP answer.
type HttpAnswer = (usize, Instant, Instant, u16, Vec<u8>);

fn closed_connection(
    addr: SocketAddr,
    mine: &[(usize, &[u8])],
    depth: usize,
) -> (Vec<HttpAnswer>, Vec<String>) {
    let mut answered = Vec::with_capacity(mine.len());
    let mut errors = Vec::new();
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => return (answered, vec![format!("connect: {e}")]),
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(ANSWER_TIMEOUT));
    let mut inflight: VecDeque<(usize, Instant)> = VecDeque::new();
    let mut next = 0;
    let mut responses = ResponseReader::new(&stream);
    'conn: while answered.len() < mine.len() {
        while inflight.len() < depth && next < mine.len() {
            let (i, bytes) = mine[next];
            inflight.push_back((i, Instant::now()));
            if let Err(e) = stream.write_all(bytes) {
                errors.push(format!("send: {e}"));
                break 'conn;
            }
            next += 1;
        }
        let (done, framed) = match responses.next() {
            Ok(next) => next,
            Err(e) => {
                errors.push(e);
                break;
            }
        };
        for f in framed {
            let Some((i, sent)) = inflight.pop_front() else {
                errors.push("answer without a request".to_string());
                break 'conn;
            };
            answered.push((i, sent, done, f.status, f.body));
        }
    }
    (answered, errors)
}

/// Reads pipelined responses off one connection.
struct ResponseReader {
    stream: TcpStream,
    buf: Vec<u8>,
    chunk: Vec<u8>,
}

impl ResponseReader {
    fn new(stream: &TcpStream) -> Self {
        Self {
            stream: stream.try_clone().expect("TCP stream clones"),
            buf: Vec::with_capacity(64 * 1024),
            chunk: vec![0u8; 64 * 1024],
        }
    }

    /// Block for the next read; return when it landed and every response
    /// it completed, in order. A closed or unframeable stream is an error.
    fn next(&mut self) -> Result<(Instant, Vec<Framed>), String> {
        let n = loop {
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err("gateway closed the connection".to_string()),
                Ok(n) => break n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        };
        let done = Instant::now();
        self.buf.extend_from_slice(&self.chunk[..n]);
        let mut framed = Vec::new();
        while let Some(f) = frame_response(&self.buf)? {
            self.buf.drain(..f.consumed);
            framed.push(f);
        }
        Ok((done, framed))
    }
}

/// Turn framed HTTP answers into latencies and checked answers.
fn record_http(out: &mut Outcome, answered: Vec<HttpAnswer>) {
    for (i, from, done, status, body) in answered {
        let body = String::from_utf8_lossy(&body).into_owned();
        match parse_answer(i, status, &body) {
            Ok(answer) => {
                out.latency_ms[i] = Some((done - from).as_secs_f64() * 1e3);
                out.answers.push(answer);
                out.body.get_or_insert(body);
            }
            Err(why) => out.fail(i, why),
        }
    }
}

fn parse_answer(index: usize, status: u16, body: &str) -> Result<Answer, String> {
    if status != 200 {
        return Err(format!("HTTP {status}: {body}"));
    }
    let v = json::parse(body).map_err(|e| format!("bad JSON answer: {e}"))?;
    let field = |k: &str| {
        v.get(k)
            .and_then(|x| x.as_u64())
            .ok_or(format!("answer lacks {k}"))
    };
    let votes = v
        .get("votes")
        .and_then(|x| x.as_array())
        .ok_or("answer lacks votes")?
        .iter()
        .map(|x| x.as_u64().ok_or("non-integer vote"))
        .collect::<Result<Vec<u64>, _>>()?;
    Ok(Answer {
        index,
        seq: field("seq")?,
        predicted: field("predicted")? as usize,
        votes,
    })
}
