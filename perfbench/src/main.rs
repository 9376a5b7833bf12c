//! The repository benchmark. One workload per process:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload stencil-64 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` times back-to-back untraced runs and reports the
//! end-to-end metrics; `--trace 1` adds one traced run plus the layer
//! probes and reports the per-layer metrics. Every run's outputs are
//! checked; the last stdout line is the JSON result, and any correctness
//! or determinism failure makes the exit code 1. See `README.md`.

mod alloc;
mod probe;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use allscale_apps::stencil::{oracle, StencilConfig};
use allscale_core::{PathCategory, RunReport};

use stats::{hist_quantile, mean, median, tail, Metrics, Spans};
use workload::{Run, Setup, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-ups per process at the least, and the host seconds they must span
/// at the least (a cheap set-up repeats until then); `setup_s` is their
/// median.
const SETUP_REPS: usize = 3;
const SETUP_MIN_S: f64 = 0.2;
/// Repetitions of the machine reference kernel.
const REF_REPS: usize = 3;
const MIB: f64 = (1 << 20) as f64;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!(
                    "unknown workload {value:?}; one of {:?}",
                    Workload::ALL.map(Workload::name)
                ))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Host seconds of the sequential stencil oracle at the stencil-64 size,
/// median of `REF_REPS`: a fixed kernel that tracks how fast the machine
/// is right now, whatever the program does.
fn machine_ref_s() -> f64 {
    let cfg = StencilConfig::paper_scaled(64);
    let mut secs: Vec<f64> = (0..REF_REPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(oracle(&cfg));
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut secs)
}

/// Correctness and determinism bookkeeping over a process's runs.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    /// Per stream: the first run's report hash and virtual results.
    reference: BTreeMap<usize, (u64, String)>,
}

impl Checks {
    /// Count one run of `stream`; it fails on a wrong output, or on any
    /// virtual number or count differing from the stream's first run.
    fn record(&mut self, stream: usize, label: &str, run: &Run) {
        let mut failures = run.failures.clone();
        let key = (run.hash, run.virt.key());
        let reference = self.reference.entry(stream).or_insert_with(|| key.clone());
        if *reference != key {
            failures.push(format!(
                "not deterministic: report hash {:#x} vs {:#x}",
                key.0, reference.0
            ));
        }
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            for f in failures {
                eprintln!("FAILED {label} (stream {stream}): {f}");
            }
        }
    }
}

/// One timed untraced run.
struct Timed {
    stream: usize,
    run: Run,
    allocs: alloc::AllocStats,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let mut spans = Spans::new();

    let mut setup_times = Vec::new();
    let mut oracle_times = Vec::new();
    let mut warmups = Vec::new();
    let setup = spans.span("setup", |_| {
        let started = Instant::now();
        loop {
            let t = Instant::now();
            let mut s = Setup::new(w, args.seed);
            setup_times.push(t.elapsed().as_secs_f64());
            oracle_times.push(s.oracle_s);
            warmups.extend(s.warmup.take());
            if setup_times.len() >= SETUP_REPS && started.elapsed().as_secs_f64() >= SETUP_MIN_S {
                break s;
            }
        }
    });
    let setup_s = median(&mut setup_times);
    let oracle_s = median(&mut oracle_times);
    let mut checks = Checks::default();
    for run in &warmups {
        checks.record(0, "warm-up run", run);
    }

    // Untraced runs, the streams round-robin, until the budget is spent,
    // every stream has run and stream 0 has run twice (so the determinism
    // check has a repeat; set-up's warm-up runs count). The traced mode
    // needs stream 0 only: its counts, and its host time as the overhead
    // base.
    let streams = if args.trace { 1 } else { w.streams() };
    let min_runs = if args.trace {
        1
    } else {
        streams + usize::from(warmups.is_empty())
    };
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut runs: Vec<Timed> = Vec::new();
    let started = Instant::now();
    loop {
        let stream = runs.len() % streams;
        let window = alloc::Window::open();
        let run = spans.span("run", |_| setup.run(stream, false));
        let allocs = window.close();
        spans.span("verify", |_| checks.record(stream, "untraced run", &run));
        let last = run.host_s;
        runs.push(Timed {
            stream,
            run,
            allocs,
        });
        if runs.len() >= min_runs && started.elapsed().as_secs_f64() + last > budget {
            break;
        }
    }
    // host_s: the mean over streams of each stream's median run.
    let per_stream: Vec<f64> = (0..streams)
        .map(|s| {
            let mut h: Vec<f64> = runs
                .iter()
                .filter(|t| t.stream == s)
                .map(|t| t.run.host_s)
                .collect();
            median(&mut h)
        })
        .collect();
    let host_s = mean(&per_stream);
    // Virtual results repeat exactly, so each stream's first run stands
    // for all of its runs.
    let firsts: Vec<&Timed> = (0..streams)
        .map(|s| {
            runs.iter()
                .find(|t| t.stream == s)
                .expect("every stream ran")
        })
        .collect();

    // failed_frac: failed runs plus shed or uncompleted requests, over
    // the operations attempted (requests on serving, runs on stencils).
    let unserved: u64 = runs.iter().map(|t| t.run.virt.unserved).sum();
    let ops: u64 = runs.iter().map(|t| t.run.virt.ops).sum();
    let failed_frac = (checks.failed + unserved) as f64 / ops.max(1) as f64;

    let mut m = Metrics::default();
    if args.trace {
        per_layer(&mut m, &mut spans, &setup, firsts[0], &mut checks, host_s);
        m.push("apps.oracle_s", oracle_s, "s");
        // Serving has no sequential oracle: 0 there.
        let over = if oracle_s > 0.0 {
            host_s / oracle_s
        } else {
            0.0
        };
        m.push("apps.host_over_oracle", over, "ratio");
    } else {
        end_to_end(&mut m, &firsts, host_s, setup_s, failed_frac);
    }
    // The reference kernel runs last, so that its 130 MiB stay out of
    // the process RSS high water printed below.
    let rss_mb = stats::peak_rss_mb();
    let ref_s = spans.span("machine_ref", |_| machine_ref_s());
    if args.trace {
        m.push("machine.ref_s", ref_s, "s");
    }

    // Human-readable report, then the host spans, then the result line.
    for (t, host) in firsts.iter().zip(&per_stream) {
        let v = &t.run.virt;
        println!(
            "stream {} seed {}: host {host:.4} s | makespan {:.6} ms | latency p50 {:.3} p99 {:.3} us (n={})",
            t.stream,
            setup.stream_seed(t.stream),
            v.makespan_ms,
            hist_quantile(&v.latency, 0.50) / 1e3,
            hist_quantile(&v.latency, 0.99) / 1e3,
            v.latency.tally().count()
        );
    }
    let mut host: Vec<f64> = runs.iter().map(|t| t.run.host_s).collect();
    let runs_median = median(&mut host);
    println!(
        "workload {} seed {} trace {} | {} untraced runs over {streams} streams | machine.ref_s {ref_s:.4}",
        w.name(),
        args.seed,
        u8::from(args.trace),
        runs.len()
    );
    match tail(&mut host) {
        Some((p, v)) => println!("host s per run: median {runs_median:.4} p{p:.0} {v:.4} (n={})", host.len()),
        None => println!(
            "host s per run: median {runs_median:.4} max {:.4} (n={}; too few for a tail percentile)",
            host.iter().copied().fold(0.0, f64::max),
            host.len()
        ),
    }
    println!(
        "failed_frac {failed_frac:.6} ({} failed runs + {unserved} shed/uncompleted requests of {ops} ops)",
        checks.failed,
    );
    println!("process peak RSS {rss_mb:.1} MiB (getrusage, before the reference kernel)");
    print!("{}", m.human());
    eprintln!("host spans: {}", spans.to_chrome_json());
    println!(
        "{}",
        m.result_json(checks.failed == 0, checks.attempted, checks.failed)
    );
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The end-to-end metrics of `--trace 0`. Everything but the two host
/// times and `success_frac` is a mean over the streams' first runs.
/// Memory is the run's live-heap high water (counting allocator), which
/// repeats exactly per stream; the process RSS high water cannot be reset
/// between runs, so it is only printed. `success_frac` is 1 −
/// `failed_frac`, so that the metric never reads 0 on a correct run.
fn end_to_end(m: &mut Metrics, firsts: &[&Timed], host_s: f64, setup_s: f64, failed_frac: f64) {
    let avg = |f: &dyn Fn(&Timed) -> f64| mean(&firsts.iter().map(|t| f(t)).collect::<Vec<_>>());
    let quantile_us = |t: &Timed, q| hist_quantile(&t.run.virt.latency, q) / 1e3;
    m.push("host_s", host_s, "s");
    m.push("setup_s", setup_s, "s");
    m.push(
        "peak_rss_mb",
        avg(&|t| t.allocs.peak_bytes as f64 / MIB),
        "MiB",
    );
    m.push(
        "virtual_makespan_ms",
        avg(&|t| t.run.virt.makespan_ms),
        "virtual_ms",
    );
    m.push("gflops", avg(&|t| t.run.virt.gflops), "GFLOP/s");
    m.push("achieved_rps", avg(&|t| t.run.virt.achieved_rps), "1/s");
    m.push(
        "p50_latency_us",
        avg(&|t| quantile_us(t, 0.50)),
        "virtual_us",
    );
    m.push(
        "p99_latency_us",
        avg(&|t| quantile_us(t, 0.99)),
        "virtual_us",
    );
    m.push("success_frac", 1.0 - failed_frac, "ratio");
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Counts read off a finished run's report (identical on every run).
fn report_counts(m: &mut Metrics, r: &RunReport) {
    let mon = &r.monitor;
    let tasks = mon.total_tasks();
    let parks: u64 = mon.per_locality.iter().map(|l| l.lock_conflicts).sum();
    m.push("des.events", r.events as f64, "count");
    m.push("core.tasks", tasks as f64, "count");
    m.push("core.parks", parks as f64, "count");
    m.push("core.parks_per_task", ratio(parks, tasks), "ratio");
    m.push("index.lookups", mon.index_lookups as f64, "count");
    m.push(
        "index.hops_per_lookup",
        ratio(mon.index_lookup_hops, mon.index_lookups),
        "ratio",
    );
    m.push("index.update_hops", mon.index_update_hops as f64, "count");
    m.push("index.cache_hit_ratio", mon.cache.hit_rate(), "ratio");
    let s = &mon.scheduler;
    m.push("sched.steal_requests", s.steal_requests as f64, "count");
    m.push(
        "sched.steal_grant_ratio",
        ratio(s.steal_grants, s.steal_requests),
        "ratio",
    );
    let t = &r.traffic;
    m.push("net.remote_msgs", r.remote_msgs as f64, "count");
    m.push("net.remote_bytes", r.remote_bytes as f64, "bytes");
    m.push(
        "net.msgs_per_batch",
        ratio(t.batched_msgs, t.batches),
        "ratio",
    );
    m.push("net.retries", t.retries as f64, "count");
    m.push("net.re_requests", t.re_requests as f64, "count");
    m.push(
        "net.transfer_p99_us",
        mon.transfer_latency.p99() as f64 / 1e3,
        "virtual_us",
    );
    let res = &mon.resilience;
    m.push("ckpt.count", res.checkpoints as f64, "count");
    m.push(
        "ckpt.stall_ms",
        res.ckpt_stall_ns as f64 / 1e6,
        "virtual_ms",
    );
    m.push(
        "ckpt.fence_ms",
        res.ckpt_fence_ns as f64 / 1e6,
        "virtual_ms",
    );
    m.push(
        "ckpt.drain_ms",
        res.ckpt_drain_ns as f64 / 1e6,
        "virtual_ms",
    );
    m.push("ckpt.stored_bytes", res.checkpoint_bytes as f64, "bytes");
    m.push("ckpt.torn", res.ckpt_torn as f64, "count");
    m.push(
        "recovery.read_ms",
        res.recovery_read_ns as f64 / 1e6,
        "virtual_ms",
    );
    m.push(
        "recovery.tasks_reexecuted",
        res.tasks_reexecuted as f64,
        "count",
    );
    let i = &mon.integrity;
    m.push(
        "integrity.corrupt_detected",
        i.wire_detected as f64,
        "count",
    );
    m.push(
        "integrity.corrupt_undetected",
        i.wire_undetected as f64,
        "count",
    );
    let v = &mon.serve;
    m.push("slo.replications", v.replications as f64, "count");
    m.push("slo.invalidations", v.invalidations as f64, "count");
    m.push("slo.shed", v.shed as f64, "count");
}

/// The per-layer metrics of `--trace 1`: report counts, one traced run
/// (critical path, export, overhead), allocation counts and the probes.
fn per_layer(
    m: &mut Metrics,
    spans: &mut Spans,
    setup: &Setup,
    untraced: &Timed,
    checks: &mut Checks,
    host_s: f64,
) {
    let w = setup.workload;
    let traced = spans.span("traced_run", |_| setup.run(untraced.stream, true));
    spans.span("verify", |_| {
        checks.record(untraced.stream, "traced run", &traced)
    });
    let report = traced.report.as_ref();
    let trace = report.and_then(|r| r.trace.as_ref());
    let (export_s, trace_events, trace_dropped) = match trace {
        Some(t) => spans.span("export", |_| {
            let start = Instant::now();
            let json = t.to_chrome_json();
            std::hint::black_box(json.len());
            (start.elapsed().as_secs_f64(), t.len(), t.total_dropped())
        }),
        None => (0.0, 0, 0),
    };
    let cp = spans.span("critical_path", |_| {
        report.and_then(RunReport::critical_path)
    });

    if let Some(r) = untraced.run.report.as_ref() {
        report_counts(m, r);
        m.push(
            "des.host_ns_per_event",
            host_s * 1e9 / r.events.max(1) as f64,
            "ns",
        );
    }
    let cat = |c| cp.as_ref().map_or(0.0, |p| p.category_ns(c) as f64 / 1e6);
    m.push("cp.compute_ms", cat(PathCategory::Compute), "virtual_ms");
    m.push("cp.transfer_ms", cat(PathCategory::Transfer), "virtual_ms");
    m.push("cp.index_ms", cat(PathCategory::Index), "virtual_ms");
    m.push("cp.lock_wait_ms", cat(PathCategory::LockWait), "virtual_ms");
    m.push(
        "cp.recovery_replay_ms",
        cat(PathCategory::RecoveryReplay),
        "virtual_ms",
    );
    m.push("cp.runtime_ms", cat(PathCategory::Runtime), "virtual_ms");
    m.push(
        "trace.overhead_pct",
        (traced.host_s / host_s - 1.0) * 100.0,
        "%",
    );
    m.push("trace.events", trace_events as f64, "count");
    m.push("trace.dropped", trace_dropped as f64, "count");
    m.push("trace.export_s", export_s, "s");

    let a = untraced.allocs;
    m.push("alloc.count", a.count as f64, "count");
    m.push("alloc.bytes", a.bytes as f64, "bytes");
    m.push("alloc.peak_mb", a.peak_bytes as f64 / MIB, "MiB");

    spans.span("probes", |_| {
        m.push(
            "des.schedule_run_ns",
            probe::des_schedule_run_ns(w.cores(), setup.seed),
            "ns",
        );
        let (chunked, single) = probe::grid_get_ns_pair();
        m.push("region.grid_get_ns", chunked, "ns");
        m.push("region.grid_get_1chunk_ns", single, "ns");
        m.push(
            "region.grid_chunks",
            probe::stencil_node_chunks() as f64,
            "count",
        );
        m.push("region.grid_halo_ns", probe::grid_halo_ns(), "ns");
        m.push("region.keyed_get_ns", probe::keyed_get_ns(setup.seed), "ns");
        let (resolve, cached) = probe::index_resolve_ns();
        m.push("index.resolve_ns", resolve, "ns");
        m.push("index.cached_resolve_ns", cached, "ns");
    });
}
