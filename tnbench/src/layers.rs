//! Per-layer measurements for the traced run, each taken by timing calls
//! into a layer's public functions from this benchmark's own code, on
//! the workload's own frames and requests.

use std::time::{Duration, Instant};

use tn_chip::nscs::{ConnectivityMode, Deployment, FrameInput};
use tn_chip::pack::{PackedDeployment, PackedFrame};
use tn_fleet::msg;
use tn_gateway::http::{parse_request, HttpLimits, HttpResponse, Parsed};
use tn_serve::{Response, ServeRuntime, SubmitRequest};
use tn_telemetry::{json, Snapshot, StageStats};
use truenorth::prelude::NetworkDeploySpec;

use crate::load::{self, Outcome, Req};
use crate::schedule::SplitMix;
use crate::setup::{self, Load, Target, Workload, SERVE_SEED, SPF};
use crate::stats::{median, percentile};

/// Frames replayed through the kernel per pass.
const REPLAY_FRAMES: usize = 64;
/// Passes over the replayed frames; each timing is a median over passes.
const REPLAY_PASSES: usize = 3;
/// Repeats of each codec and parser call.
const CALL_REPEATS: usize = 200;
/// Length of each overhead-probe segment.
const PROBE_SECONDS: f64 = 2.0;
/// Offered rate of the overhead probe: light load, so the differences
/// between its segments are per-request path costs, not queueing.
const PROBE_RPS: f64 = 200.0;

/// The runtime's per-frame seed: SplitMix64 of the serving seed mixed
/// with the request's sequence number (same derivation as `tn-serve`).
fn frame_seed(seq: u64) -> u64 {
    SplitMix::new(SERVE_SEED ^ seq.wrapping_mul(0x9E37_79B9), 0).next_u64()
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median µs of `repeats` calls of `f`.
fn time_calls(repeats: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let t = Instant::now();
            f();
            micros(t.elapsed())
        })
        .collect();
    median(&samples)
}

/// Kernel replay results.
#[derive(Debug)]
pub struct Kernel {
    pub build_ms: f64,
    pub frame_us_b1: f64,
    pub frame_us_b8: f64,
    pub packed_frame_us_b8: f64,
    pub synops_per_frame: f64,
    pub spike_density: f64,
    pub rows_skipped_share: f64,
    pub cores_skipped_share: f64,
}

/// Replay the workload's first frames through `Deployment::run_frames`
/// (1-frame and 8-frame calls, tenant 0) and `PackedDeployment::run_frames`
/// (8-frame calls mixing every tenant).
pub fn kernel(
    workload: &Workload,
    specs: &[NetworkDeploySpec],
    pool: &[Vec<f32>],
    reqs: &[Req],
) -> Kernel {
    let t = Instant::now();
    let deps: Vec<Deployment> = specs
        .iter()
        .map(|s| {
            Deployment::build_with_mode(
                s,
                workload.replicas,
                SERVE_SEED,
                ConnectivityMode::IndependentPerCopy,
            )
            .expect("spec deploys")
        })
        .collect();
    let packed = PackedDeployment::pack(&deps).expect("tenants pack onto one chip");
    let build_ms = t.elapsed().as_secs_f64() * 1e3;

    let mut dep = deps[0].clone();
    let tenant0: Vec<(u64, usize)> = reqs
        .iter()
        .filter(|r| r.model == 0)
        .take(REPLAY_FRAMES)
        .enumerate()
        .map(|(k, r)| (k as u64, r.row))
        .collect();
    let frames: Vec<FrameInput> = tenant0
        .iter()
        .map(|&(seq, row)| FrameInput::new(&pool[row], SPF, frame_seed(seq)))
        .collect();

    // Exact per-frame counters, from a fresh copy serving each frame once.
    let mut fresh = deps[0].clone();
    let base = fresh.counter_export();
    for f in &frames {
        fresh.run_frames(std::slice::from_ref(f));
    }
    let counters = fresh.counter_export().delta_since(&base);
    // Every core ticks on every chip tick; early-outed core-ticks and
    // skipped neuron rows are shares of those totals.
    let core_ticks = counters.ticks as f64 * fresh.core_count() as f64;
    let neurons: usize = specs[0].cores.iter().map(|k| k.n_neurons).sum();
    let neuron_rows = counters.ticks as f64 * (neurons * workload.replicas) as f64;

    let mut b1 = Vec::new();
    for _ in 0..REPLAY_PASSES {
        for f in &frames {
            let t = Instant::now();
            std::hint::black_box(dep.run_frames(std::slice::from_ref(f)));
            b1.push(micros(t.elapsed()));
        }
    }

    let mut b8 = Vec::new();
    for _ in 0..REPLAY_PASSES {
        for chunk in frames.chunks(8) {
            let t = Instant::now();
            std::hint::black_box(dep.run_frames(chunk));
            b8.push(micros(t.elapsed()) / chunk.len() as f64);
        }
    }

    let mut packed = packed;
    let mut tenant_seq = vec![0u64; specs.len()];
    let mixed: Vec<PackedFrame> = reqs
        .iter()
        .take(REPLAY_FRAMES)
        .map(|r| {
            let seq = tenant_seq[r.model];
            tenant_seq[r.model] += 1;
            PackedFrame {
                model: r.model,
                frame: FrameInput::new(&pool[r.row], SPF, frame_seed(seq)),
            }
        })
        .collect();
    let mut pb8 = Vec::new();
    for _ in 0..REPLAY_PASSES {
        for chunk in mixed.chunks(8) {
            let t = Instant::now();
            std::hint::black_box(packed.run_frames(chunk));
            pb8.push(micros(t.elapsed()) / chunk.len() as f64);
        }
    }

    Kernel {
        build_ms,
        frame_us_b1: median(&b1),
        frame_us_b8: median(&b8),
        packed_frame_us_b8: median(&pb8),
        synops_per_frame: counters.synaptic_ops as f64 / frames.len() as f64,
        spike_density: counters.spike_density(),
        rows_skipped_share: counters.rows_skipped as f64 / neuron_rows,
        cores_skipped_share: counters.cores_skipped as f64 / core_ticks,
    }
}

/// Codec and parser timings on the workload's own request.
#[derive(Debug, Default)]
pub struct Codecs {
    pub req_codec_us: f64,
    pub resp_codec_us: f64,
    pub req_bytes: f64,
    pub http_parse_us: f64,
    pub body_parse_us: f64,
    pub render_us: f64,
}

/// Time the fleet's message codecs and the gateway's HTTP parse, body
/// parse and response render on `frame`, a served `response`, and a
/// response `body` the gateway rendered.
pub fn codecs(frame: &[f32], model: usize, response: &Response, body: &str) -> Codecs {
    let request = SubmitRequest::new(frame.to_vec()).model(model);
    let encoded = msg::encode_req(1, &request);
    let req_codec_us = time_calls(CALL_REPEATS, || {
        let text = msg::encode_req(1, &request);
        std::hint::black_box(msg::parse_req(&text).expect("request round-trips"));
    });
    let resp_codec_us = time_calls(CALL_REPEATS, || {
        let text = msg::encode_resp(response);
        std::hint::black_box(msg::parse_resp(&text).expect("response round-trips"));
    });
    let bytes = crate::http::classify_request(frame, model);
    let limits = HttpLimits::default();
    let http_parse_us = time_calls(CALL_REPEATS, || {
        let parsed = parse_request(&bytes, &limits);
        assert!(matches!(parsed, Parsed::Request { .. }), "request parses");
        std::hint::black_box(parsed);
    });
    let Parsed::Request {
        request: parsed, ..
    } = parse_request(&bytes, &limits)
    else {
        unreachable!("checked above");
    };
    let text = String::from_utf8(parsed.body).expect("body is UTF-8");
    let body_parse_us = time_calls(CALL_REPEATS, || {
        std::hint::black_box(json::parse(&text).expect("body is JSON"));
    });
    let render = HttpResponse::json(200, body);
    let render_us = time_calls(CALL_REPEATS, || {
        let mut out = Vec::with_capacity(body.len() + 128);
        render.write_to(&mut out);
        std::hint::black_box(out);
    });
    Codecs {
        req_codec_us,
        resp_codec_us,
        req_bytes: encoded.len() as f64,
        http_parse_us,
        body_parse_us,
        render_us,
    }
}

/// The overhead probe: the same open-loop traffic through a solo runtime,
/// a 2-shard fleet driven directly, and a gateway over that fleet.
#[derive(Debug)]
pub struct Probe {
    pub solo: Outcome,
    pub fleet: Outcome,
    pub gateway: Outcome,
    /// A response the solo runtime served.
    pub response: Response,
}

fn p50(o: &Outcome) -> f64 {
    percentile(&o.ranked_latencies(), 50.0).unwrap_or(f64::NAN)
}

impl Probe {
    pub fn fleet_overhead_ms(&self) -> f64 {
        p50(&self.fleet) - p50(&self.solo)
    }

    pub fn gateway_overhead_ms(&self) -> f64 {
        p50(&self.gateway) - p50(&self.fleet)
    }
}

/// Run the overhead probe on tenant 0 at the workload's copies.
pub fn probe(workload: &Workload, spec: &NetworkDeploySpec, pool: &[Vec<f32>], seed: u64) -> Probe {
    let open = Load::Open { rps: PROBE_RPS };
    let solo_w = Workload {
        target: Target::Runtime,
        load: open,
        ..*workload
    };
    let fleet_w = Workload {
        target: Target::GatewayFleet,
        load: open,
        ..*workload
    };
    let n = (PROBE_RPS * PROBE_SECONDS).round() as usize;
    let reqs: Vec<Req> = crate::schedule::request_order(seed, pool.len(), n)
        .into_iter()
        .map(|row| Req { row, model: 0 })
        .collect();
    let schedule = crate::schedule::poisson_schedule(seed, PROBE_RPS, n);

    let rt = ServeRuntime::new(spec, solo_w.serve_config(false)).expect("probe runtime");
    let solo = load::open_in_process(&rt, pool, &reqs, &schedule);
    let response = rt
        .classify(pool[reqs[0].row].clone())
        .expect("probe runtime answers");
    rt.shutdown();

    let fleet = setup::start_fleet(spec, fleet_w.serve_config(false), setup::null_sink());
    let direct = load::open_in_process(fleet.router(), pool, &reqs, &schedule);
    let gateway = setup::bind_gateway(&fleet);
    let requests: Vec<Vec<u8>> = pool
        .iter()
        .map(|f| crate::http::classify_request(f, 0))
        .collect();
    let over_http = load::open_http(gateway.local_addr(), &requests, &reqs, &schedule);
    gateway.shutdown();
    fleet.shutdown();
    Probe {
        solo,
        fleet: direct,
        gateway: over_http,
        response,
    }
}

/// Lifetime stage totals summed over every runtime that reported into a
/// traced run's sink (one final snapshot per runtime or shard).
#[derive(Debug, Default)]
pub struct Stages {
    pub enqueue: StageStats,
    pub drain: StageStats,
    pub kernel: StageStats,
    pub vote: StageStats,
    /// Requests completed, from the same snapshots.
    pub completed: u64,
    pub snapshots: usize,
}

impl Stages {
    pub fn from_snapshots(snaps: &[Snapshot]) -> Self {
        let mut s = Stages::default();
        for snap in snaps {
            s.snapshots += 1;
            s.completed += snap.counters.get("serve.completed").copied().unwrap_or(0);
            for (name, slot) in [
                ("enqueue", &mut s.enqueue),
                ("drain", &mut s.drain),
                ("kernel", &mut s.kernel),
                ("vote", &mut s.vote),
            ] {
                if let Some(st) = snap.stages.get(name) {
                    slot.count += st.count;
                    slot.total_ns += st.total_ns;
                    slot.max_ns = slot.max_ns.max(st.max_ns);
                }
            }
        }
        s
    }

    fn mean_us(st: &StageStats) -> f64 {
        st.total_ns as f64 / st.count.max(1) as f64 / 1e3
    }

    pub fn enqueue_us(&self) -> f64 {
        Self::mean_us(&self.enqueue)
    }

    pub fn drain_us(&self) -> f64 {
        Self::mean_us(&self.drain)
    }

    /// Mean time of one kernel call (one fused lane batch).
    pub fn kernel_us_per_call(&self) -> f64 {
        Self::mean_us(&self.kernel)
    }

    pub fn kernel_us_per_frame(&self) -> f64 {
        self.kernel.total_ns as f64 / self.completed.max(1) as f64 / 1e3
    }

    pub fn vote_us(&self) -> f64 {
        Self::mean_us(&self.vote)
    }
}

/// One row of the per-layer latency budget.
#[derive(Debug)]
pub struct BudgetRow {
    pub layer: &'static str,
    pub us: f64,
}

/// The layers on a request's blocking path for this workload, with their
/// per-request cost in µs.
pub fn budget(
    workload: &Workload,
    submit_us: f64,
    stages: &Stages,
    codecs: &Codecs,
) -> Vec<BudgetRow> {
    let serve = [
        BudgetRow {
            layer: "serve.submit",
            us: submit_us,
        },
        BudgetRow {
            layer: "serve.enqueue (queue wait)",
            us: stages.enqueue_us(),
        },
        BudgetRow {
            layer: "serve.kernel (one fused call)",
            us: stages.kernel_us_per_call(),
        },
        BudgetRow {
            layer: "serve.vote",
            us: stages.vote_us(),
        },
    ];
    match workload.target {
        Target::Runtime => serve.into_iter().collect(),
        Target::GatewayFleet => {
            let mut rows = vec![
                BudgetRow {
                    layer: "gateway.http_parse",
                    us: codecs.http_parse_us,
                },
                BudgetRow {
                    layer: "gateway.body_parse",
                    us: codecs.body_parse_us,
                },
                BudgetRow {
                    layer: "fleet.req_codec",
                    us: codecs.req_codec_us,
                },
            ];
            rows.extend(serve);
            rows.push(BudgetRow {
                layer: "fleet.resp_codec",
                us: codecs.resp_codec_us,
            });
            rows.push(BudgetRow {
                layer: "gateway.render",
                us: codecs.render_us,
            });
            rows
        }
    }
}
