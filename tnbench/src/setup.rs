//! Workload definitions and the set-up each run pays: dataset, training,
//! spec extraction, and the serving stack under test.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tn_fleet::{FleetConfig, LocalFleet};
use tn_gateway::{Gateway, GatewayConfig};
use tn_serve::{Backpressure, MetricsSnapshot, ServeConfig, ServeRuntime};
use tn_telemetry::{LatestSink, MetricsSink, NullSink};
use truenorth::prelude::*;

/// Test bench served by every workload: 784 inputs, 4 cores per copy.
const BENCH: usize = 1;
/// Training seed; fixed, so every run serves the same models.
const TRAIN_SEED: u64 = 11;
/// Serving seed (replica sampling and per-request spike trains); fixed,
/// so the workload seed moves only the traffic.
pub const SERVE_SEED: u64 = 7;
/// Spikes per frame for every workload.
pub const SPF: usize = 8;
/// Kernel fusion width for every workload.
const KERNEL_BATCH: usize = 8;

/// Training scale: small enough that a run can set up several times.
const SCALE: RunScale = RunScale {
    n_train: 800,
    n_test: 400,
    epochs: 3,
    seeds: 1,
    threads: 2,
};

/// A trained model a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// Probability-biased learning (the paper's method).
    Biased,
    /// Plain Tea learning (the baseline that needs more copies).
    Tea,
}

impl Model {
    fn penalty(self, bench: &TestBench) -> Penalty {
        match self {
            Model::Biased => bench.biasing_penalty(),
            Model::Tea => Penalty::None,
        }
    }
}

/// What the load generator drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// An in-process `ServeRuntime` (solo or packed).
    Runtime,
    /// HTTP clients into a gateway over a 2-shard local fleet.
    GatewayFleet,
}

/// How requests arrive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Poisson arrivals at a fixed offered rate (requests per second).
    Open { rps: f64 },
    /// A fixed number of requests kept outstanding. `nominal_rps` sizes
    /// the request count so a run lasts about `--seconds` on a 2-core
    /// host; the count is fixed, so the simulated metrics repeat.
    Closed {
        outstanding: usize,
        nominal_rps: f64,
    },
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Tenant models, in tenant order (more than one means packed).
    pub models: &'static [Model],
    /// Spatial copies per model.
    pub replicas: usize,
    pub target: Target,
    pub load: Load,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "solo-light",
        models: &[Model::Biased],
        replicas: 1,
        target: Target::Runtime,
        load: Load::Open { rps: 200.0 },
    },
    Workload {
        name: "gateway-fleet",
        models: &[Model::Biased],
        replicas: 1,
        target: Target::GatewayFleet,
        load: Load::Closed {
            outstanding: 8,
            nominal_rps: 1900.0,
        },
    },
    Workload {
        name: "copies-saturated",
        models: &[Model::Tea],
        replicas: 4,
        target: Target::Runtime,
        load: Load::Closed {
            outstanding: 32,
            nominal_rps: 1700.0,
        },
    },
    Workload {
        name: "packed-pair",
        models: &[Model::Biased, Model::Tea],
        replicas: 2,
        target: Target::Runtime,
        load: Load::Closed {
            outstanding: 32,
            nominal_rps: 2300.0,
        },
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Requests one measured window of `seconds` serves.
    pub fn requests(&self, seconds: f64) -> usize {
        let rps = match self.load {
            Load::Open { rps } => rps,
            Load::Closed { nominal_rps, .. } => nominal_rps,
        };
        (rps * seconds).round().max(1.0) as usize
    }

    /// The serving config of one runtime (a solo/packed runtime, or one
    /// fleet shard).
    pub fn serve_config(&self, traced: bool) -> ServeConfig {
        let workers = match self.target {
            Target::Runtime => 2,
            Target::GatewayFleet => 1,
        };
        let backpressure = match self.load {
            // Open loop: a full queue refuses, and the refusal counts as
            // a failed request, instead of stalling the generator.
            Load::Open { .. } => Backpressure::Reject,
            Load::Closed { .. } => Backpressure::Block,
        };
        let mut b = ServeConfig::builder(SERVE_SEED)
            .replicas(self.replicas)
            .workers(workers)
            .spf(SPF)
            .kernel_batch(KERNEL_BATCH)
            .batch_max(32)
            .queue_capacity(4096)
            .backpressure(backpressure);
        if traced {
            // The export period is longer than any run, so the only
            // snapshot with traffic in it is the one each runtime emits
            // at shutdown, carrying lifetime stage totals.
            b = b.telemetry(TelemetryConfig {
                interval: Duration::from_secs(3600),
                span_ring: 1024,
            });
        }
        b.build().expect("benchmark serve config is consistent")
    }
}

/// Dataset and trained models, with the time each step took.
#[derive(Debug)]
pub struct Trained {
    pub data: BenchData,
    /// One entry per workload model, in tenant order.
    pub models: Vec<TrainedModel>,
    /// The request pool: test-set rows as owned frames.
    pub pool: Vec<Vec<f32>>,
    pub gen_s: f64,
    pub train_s: f64,
}

/// Generate the dataset and train every model the workload serves.
pub fn train(workload: &Workload) -> Trained {
    let bench = TestBench::new(BENCH, TRAIN_SEED);
    let t = Instant::now();
    let data = bench.load_data(&SCALE, TRAIN_SEED);
    let gen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let models = workload
        .models
        .iter()
        .map(|m| {
            train_model(&bench, &data, m.penalty(&bench), &SCALE, TRAIN_SEED)
                .expect("bench 1 trains and deploys")
        })
        .collect();
    let train_s = t.elapsed().as_secs_f64();
    let pool = (0..data.test_x.rows())
        .map(|r| data.test_x.row(r).to_vec())
        .collect();
    Trained {
        data,
        models,
        pool,
        gen_s,
        train_s,
    }
}

/// The serving stack under test. One exists at a time, so the size
/// difference between the variants costs nothing.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum Stack {
    Runtime(ServeRuntime),
    Gateway {
        gateway: Gateway,
        fleet: LocalFleet,
        /// Pre-rendered HTTP request bytes, one per pool row.
        requests: Vec<Vec<u8>>,
    },
}

/// Start the workload's stack over `specs`. A traced stack reports its
/// telemetry to `sink`.
pub fn start(
    workload: &Workload,
    specs: &[NetworkDeploySpec],
    pool: &[Vec<f32>],
    traced: bool,
    sink: Arc<dyn MetricsSink>,
) -> Stack {
    let cfg = workload.serve_config(traced);
    match workload.target {
        Target::Runtime if specs.len() == 1 => Stack::Runtime(
            ServeRuntime::new_with_sink(&specs[0], cfg, sink).expect("runtime starts"),
        ),
        Target::Runtime => Stack::Runtime(
            ServeRuntime::new_packed_with_sink(specs, cfg, sink).expect("packed runtime starts"),
        ),
        Target::GatewayFleet => {
            let requests = pool
                .iter()
                .map(|frame| crate::http::classify_request(frame, 0))
                .collect();
            let fleet = start_fleet(&specs[0], cfg, sink);
            let gateway = bind_gateway(&fleet);
            Stack::Gateway {
                gateway,
                fleet,
                requests,
            }
        }
    }
}

/// A gateway over `fleet`, bound on an ephemeral local port.
pub fn bind_gateway(fleet: &LocalFleet) -> Gateway {
    Gateway::bind_backend(
        "127.0.0.1:0",
        fleet.router_arc(),
        GatewayConfig::default(),
        Arc::new(LatestSink::new()),
    )
    .expect("gateway binds a local port")
}

/// A 2-shard local fleet.
pub fn start_fleet(
    spec: &NetworkDeploySpec,
    shard_cfg: ServeConfig,
    sink: Arc<dyn MetricsSink>,
) -> LocalFleet {
    LocalFleet::launch_with_sink(spec, 2, FleetConfig::new(shard_cfg), sink)
        .expect("local fleet launches")
}

/// Simulated totals of a finished stack: the paper's three axes.
#[derive(Debug, Clone, Copy)]
pub struct Simulated {
    pub completed: u64,
    pub rejected: u64,
    pub joules: f64,
    pub ticks: u64,
    pub cores: usize,
    pub mean_kernel_batch: f64,
}

impl Simulated {
    fn from_snapshots(snaps: &[MetricsSnapshot], cores: usize) -> Self {
        let completed: u64 = snaps.iter().map(|s| s.completed).sum();
        let kernel_batches: u64 = snaps.iter().map(|s| s.kernel_batches).sum();
        Self {
            completed,
            rejected: snaps.iter().map(|s| s.rejected).sum(),
            joules: snaps.iter().map(|s| s.energy.total_joules()).sum(),
            ticks: snaps.iter().map(|s| s.ticks).sum(),
            cores,
            mean_kernel_batch: completed as f64 / kernel_batches.max(1) as f64,
        }
    }

    pub fn joules_per_frame(&self) -> f64 {
        self.joules / self.completed.max(1) as f64
    }

    pub fn ticks_per_frame(&self) -> f64 {
        self.ticks as f64 / self.completed.max(1) as f64
    }
}

impl Stack {
    /// Chip cores the stack keeps occupied, summed over shards.
    pub fn cores(&self) -> usize {
        match self {
            Stack::Runtime(rt) => rt.cores(),
            Stack::Gateway { fleet, .. } => (0..fleet.n_shards())
                .map(|i| fleet.shard(i).runtime().cores())
                .sum(),
        }
    }

    /// Drain and stop everything; returns the simulated totals.
    pub fn shutdown(self) -> Simulated {
        let cores = self.cores();
        match self {
            Stack::Runtime(rt) => Simulated::from_snapshots(&[rt.shutdown()], cores),
            Stack::Gateway { gateway, fleet, .. } => {
                gateway.shutdown();
                let (_, shards) = fleet.shutdown();
                Simulated::from_snapshots(&shards, cores)
            }
        }
    }
}

/// A sink that keeps nothing, for untraced stacks.
pub fn null_sink() -> Arc<dyn MetricsSink> {
    Arc::new(NullSink)
}
