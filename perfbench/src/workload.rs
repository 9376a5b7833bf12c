//! The three workloads: their set-up (inputs, configurations, oracles)
//! and one checked run through the applications' public entry points.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use allscale_apps::serve::{self, ServeAppConfig};
use allscale_apps::stencil::{
    allscale_version, oracle, oracle_checksum, StencilConfig, StencilResult,
};
use allscale_core::{
    BatchParams, CheckpointConfig, CostModel, FaultPlan, IntegrityConfig, ResilienceConfig,
    RtConfig, RunReport, StealConfig, TraceConfig,
};
use allscale_des::{LogHistogram, SimDuration, SimTime};

/// Offered load of `serve-overload`, about twice the static knee.
const SERVE_RATE_RPS: f64 = 800_000.0;
/// Requests injected per `serve-overload` run: 3.75 ms of offered load,
/// so the SLO controller (2 ms period) acts about twice.
const SERVE_REQUESTS: u64 = 3_000;
/// Nodes of `stencil-chaos`.
const CHAOS_NODES: usize = 16;
/// The node `stencil-chaos` kills (the slow node is the last one).
const CHAOS_VICTIM: usize = 7;
/// Wire-corruption probability of `stencil-chaos` (0.1%).
const CHAOS_CORRUPTION: f64 = 0.001;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig 7 AllScale stencil on 64 Meggie nodes.
    Stencil64,
    /// The sharded KV store at twice its static knee, SLO controller on.
    ServeOverload,
    /// A 16-node stencil with every resilience feature, corruption and a kill.
    StencilChaos,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Stencil64,
        Workload::ServeOverload,
        Workload::StencilChaos,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Stencil64 => "stencil-64",
            Workload::ServeOverload => "serve-overload",
            Workload::StencilChaos => "stencil-chaos",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Independent streams one seed expands to. A serving stream's host
    /// time and latency percentiles vary by about 25% from seed to seed
    /// (its controller reacts at different moments), so a workload's
    /// numbers are means over its streams. `stencil-64` ignores its seed.
    pub fn streams(self) -> usize {
        match self {
            Workload::Stencil64 => 1,
            Workload::ServeOverload => 24,
            Workload::StencilChaos => 16,
        }
    }

    /// Simulated cores of the workload's cluster.
    pub fn cores(self) -> usize {
        match self {
            Workload::Stencil64 => 64 * 20,
            Workload::ServeOverload => 4 * 2,
            Workload::StencilChaos => CHAOS_NODES * 20,
        }
    }
}

/// Everything a workload computes before its first timed run.
pub struct Setup {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// The seed of each stream.
    stream_seeds: Vec<u64>,
    /// Host seconds of the sequential stencil oracle (0 for serving).
    pub oracle_s: f64,
    /// Serving's untimed warm-up run of stream 0 (stencils: none).
    pub warmup: Option<Run>,
    kind: Kind,
}

enum Kind {
    Stencil64 {
        cfg: StencilConfig,
        oracle: u64,
    },
    Serve {
        cfg: ServeAppConfig,
    },
    Chaos {
        cfg: StencilConfig,
        oracle: u64,
        clean_checksum: u64,
        clean_ns: u64,
    },
}

/// What the application call returned beside its report.
enum AppOut {
    Stencil(StencilResult),
    /// Keys the serving write oracle checked.
    Serve(u64),
}

/// The sequential oracle's checksum and its host seconds.
fn timed_oracle(cfg: &StencilConfig) -> (u64, f64) {
    let t = Instant::now();
    let sum = oracle_checksum(&oracle(cfg));
    (sum, t.elapsed().as_secs_f64())
}

/// `stencil-chaos`'s grid: 64×32 cells per node over six steps (seven
/// phase boundaries, so seven checkpoints), each cell standing for 150.
fn chaos_stencil() -> StencilConfig {
    StencilConfig {
        nodes: CHAOS_NODES,
        rows_per_node: 64,
        cols: 32,
        steps: 6,
        validate: false,
        work_scale: 150.0,
    }
}

/// `stencil-chaos` without faults: stealing, batching, integrity and
/// async incremental checkpoints every phase, last node at 0.25× speed.
fn chaos_rt(heartbeat: SimDuration) -> RtConfig {
    let mut rt = RtConfig::meggie(CHAOS_NODES)
        .with_work_stealing(StealConfig::default())
        .with_batching(BatchParams::default())
        .with_integrity(IntegrityConfig::default());
    let mut speed = vec![1.0; CHAOS_NODES];
    speed[CHAOS_NODES - 1] = 0.25;
    rt.cost.speed_factors = speed;
    rt.resilience = Some(ResilienceConfig {
        checkpoint_every: 1,
        ckpt: CheckpointConfig::default(),
        heartbeat_period: heartbeat,
        ..ResilienceConfig::default()
    });
    rt
}

/// Heartbeat period of `stencil-chaos`: 1% of the clean makespan.
fn chaos_heartbeat(clean_ns: u64) -> SimDuration {
    SimDuration::from_nanos((clean_ns / 100).max(1_000))
}

impl Setup {
    /// Generate the workload's inputs from `seed`, build its runtime
    /// configuration and topology, and precompute its oracles.
    pub fn new(workload: Workload, seed: u64) -> Setup {
        let (kind, oracle_s) = match workload {
            Workload::Stencil64 => {
                let cfg = StencilConfig::paper_scaled(64);
                let (oracle, secs) = timed_oracle(&cfg);
                (Kind::Stencil64 { cfg, oracle }, secs)
            }
            Workload::ServeOverload => {
                let cfg = ServeAppConfig {
                    rate_rps: SERVE_RATE_RPS,
                    requests: SERVE_REQUESTS,
                    ..ServeAppConfig::default()
                };
                (Kind::Serve { cfg }, 0.0)
            }
            Workload::StencilChaos => {
                let cfg = chaos_stencil();
                let (oracle, secs) = timed_oracle(&cfg);
                // The clean run fixes the kill time and the reference
                // checksum. Its heartbeat period is only a first guess:
                // without faults the detector never fires.
                let guess = chaos_heartbeat(1_000_000_000);
                let (res, report) = allscale_version::run_with_report(&cfg, chaos_rt(guess));
                let kind = Kind::Chaos {
                    cfg,
                    oracle,
                    clean_checksum: res.checksum,
                    clean_ns: report.finish_time.as_nanos(),
                };
                (kind, secs)
            }
        };
        let k = workload.streams() as u64;
        let mut setup = Setup {
            workload,
            seed,
            stream_seeds: (0..k)
                .map(|i| seed.wrapping_mul(k).wrapping_add(i))
                .collect(),
            oracle_s,
            warmup: None,
            kind,
        };
        // The topology build is part of set-up, not of the timed runs.
        let _ = setup.rt_config(0, false).spec.build_topology();
        // Serving has no oracle to precompute; its set-up warms caches
        // and the allocator with one run of stream 0 instead, as the
        // stencils' oracle (and stencil-chaos's clean run) do.
        if workload == Workload::ServeOverload {
            setup.warmup = Some(setup.run(0, false));
        }
        setup
    }

    /// The seed of `stream`.
    pub fn stream_seed(&self, stream: usize) -> u64 {
        self.stream_seeds[stream]
    }

    /// The runtime configuration of one run of `stream`.
    fn rt_config(&self, stream: usize, trace: bool) -> RtConfig {
        let mut rt = match &self.kind {
            Kind::Stencil64 { cfg, .. } => RtConfig::meggie(cfg.nodes),
            Kind::Serve { .. } => RtConfig::test(4, 2),
            Kind::Chaos { clean_ns, .. } => {
                let mut rt = chaos_rt(chaos_heartbeat(*clean_ns));
                let mut plan =
                    FaultPlan::new(self.stream_seeds[stream]).with_corruption(CHAOS_CORRUPTION);
                plan.kill_at(CHAOS_VICTIM, SimTime::from_nanos(clean_ns * 55 / 100));
                rt.faults = Some(plan);
                rt
            }
        };
        if trace {
            rt.trace = Some(TraceConfig::default());
        }
        rt
    }

    /// Execute one run of `stream` and check its outputs; only the
    /// application call is timed.
    pub fn run(&self, stream: usize, trace: bool) -> Run {
        let rt = self.rt_config(stream, trace);
        let started = Instant::now();
        let outcome = match &self.kind {
            Kind::Stencil64 { cfg, .. } | Kind::Chaos { cfg, .. } => {
                let (res, report) = allscale_version::run_with_report(cfg, rt);
                Some((report, AppOut::Stencil(res)))
            }
            Kind::Serve { cfg } => {
                let cfg = ServeAppConfig {
                    seed: self.stream_seeds[stream],
                    ..cfg.clone()
                };
                // The app's write oracle panics on a lost write.
                catch_unwind(AssertUnwindSafe(|| serve::run_with(&cfg, rt)))
                    .ok()
                    .map(|out| (out.report, AppOut::Serve(out.keys_checked)))
            }
        };
        let host_s = started.elapsed().as_secs_f64();
        let Some((report, app)) = outcome else {
            return Run {
                host_s,
                hash: 0,
                virt: Virtual {
                    ops: 1,
                    ..Virtual::default()
                },
                report: None,
                failures: vec!["serving write oracle failed".into()],
            };
        };
        let mut failures = Vec::new();
        let virt = match (&self.kind, app) {
            (Kind::Serve { cfg }, AppOut::Serve(keys_checked)) => {
                let v = &report.monitor.serve;
                if v.offered != cfg.requests || v.completed + v.shed != v.offered {
                    failures.push(format!(
                        "offered {} completed {} shed {} for {} requests",
                        v.offered, v.completed, v.shed, cfg.requests
                    ));
                }
                if keys_checked != cfg.keys {
                    failures.push(format!(
                        "the write oracle checked {keys_checked} of {} keys",
                        cfg.keys
                    ));
                }
                Virtual::of_serve(&report)
            }
            (Kind::Stencil64 { oracle, .. } | Kind::Chaos { oracle, .. }, AppOut::Stencil(res)) => {
                let sum = res.checksum;
                if sum != *oracle {
                    failures.push(format!(
                        "checksum {sum:#x} != sequential oracle {oracle:#x}"
                    ));
                }
                if let Kind::Chaos { clean_checksum, .. } = &self.kind {
                    if sum != *clean_checksum {
                        failures.push(format!(
                            "checksum {sum:#x} != clean run {clean_checksum:#x}"
                        ));
                    }
                    if report.monitor.resilience.recoveries == 0 {
                        failures.push("the kill was never recovered from".into());
                    }
                }
                Virtual::of_stencil(res.gflops, &report)
            }
            _ => unreachable!("each kind runs its own app"),
        };
        if report.traffic.corrupt_undetected != 0 || report.monitor.integrity.wire_undetected != 0 {
            failures.push("undetected corruption".into());
        }
        Run {
            host_s,
            hash: allscale_region::fnv1a_64(report.to_json().as_bytes()),
            virt,
            report: Some(report),
            failures,
        }
    }
}

/// One run's virtual (simulated) results.
#[derive(Debug, Clone, Default)]
pub struct Virtual {
    /// `RunReport::finish_time` in ms.
    pub makespan_ms: f64,
    /// Virtual GFLOP/s (stencils: `StencilResult::gflops`; serving: core
    /// busy time converted to flops at the cost model's rate, over the
    /// makespan).
    pub gflops: f64,
    /// Completed requests per virtual second (serving:
    /// `ServeStats::completed_rps`; stencils: leaf tasks per second).
    pub achieved_rps: f64,
    /// Virtual latency distribution (serving: requests; stencils: tasks).
    pub latency: LogHistogram,
    /// Requests offered (serving) or runs (stencils).
    pub ops: u64,
    /// Requests shed or never completed (0 on stencils).
    pub unserved: u64,
}

impl Virtual {
    fn of_stencil(gflops: f64, r: &RunReport) -> Self {
        Virtual {
            makespan_ms: r.finish_time.as_nanos() as f64 / 1e6,
            gflops,
            achieved_rps: r.monitor.total_tasks() as f64 / r.finish_time.as_secs_f64(),
            latency: r.monitor.task_durations.clone(),
            ops: 1,
            unserved: 0,
        }
    }

    fn of_serve(r: &RunReport) -> Self {
        let v = &r.monitor.serve;
        let busy: u64 = r.monitor.per_locality.iter().map(|l| l.busy_ns).sum();
        let flops = busy as f64 / CostModel::default().ns_per_flop;
        Virtual {
            makespan_ms: r.finish_time.as_nanos() as f64 / 1e6,
            gflops: flops / r.finish_time.as_nanos() as f64,
            achieved_rps: v.completed_rps(),
            latency: v.latency.clone(),
            ops: v.offered,
            unserved: v.offered - v.completed,
        }
    }

    /// Every virtual number, exactly, for the determinism check.
    pub fn key(&self) -> String {
        format!(
            "{:?} {:?} {:?} {} {} {} {}",
            self.makespan_ms.to_bits(),
            self.gflops.to_bits(),
            self.achieved_rps.to_bits(),
            self.latency.p50(),
            self.latency.p99(),
            self.latency.tally().count(),
            self.unserved,
        )
    }
}

/// One checked run.
pub struct Run {
    /// Host seconds of the application call.
    pub host_s: f64,
    /// FNV-1a of `RunReport::to_json` (0 when the run crashed).
    pub hash: u64,
    /// Its virtual results.
    pub virt: Virtual,
    /// The full report (absent when the run crashed).
    pub report: Option<RunReport>,
    /// Correctness failures, empty when the outputs were right.
    pub failures: Vec<String>,
}
