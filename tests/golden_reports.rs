//! Golden report pins: four small end-to-end runs whose serialized
//! `RunReport`s must not change across refactors.
//!
//! Each case pins the FNV-1a hash of `RunReport::to_json` — every virtual
//! counter the runtime reports — plus the finish time and the total task
//! count, so a failure says what moved before anyone diffs the JSON. A
//! change that is meant to move virtual results re-records these values
//! and says why; a change that is not must leave them alone.

use allscale_apps::serve::{self, ServeAppConfig};
use allscale_apps::stencil::{allscale_version, StencilConfig};
use allscale_core::{
    BatchParams, CheckpointConfig, FaultPlan, IntegrityConfig, ResilienceConfig, RtConfig,
    RunReport, SchedulingPolicy, StealConfig, VictimPolicy,
};
use allscale_des::{SimDuration, SimTime};
use allscale_region::fnv1a_64;

/// What a golden case pins: `(json hash, finish time in ns, total tasks)`.
type Pin = (u64, u64, u64);

fn pin_of(report: &RunReport) -> Pin {
    (
        fnv1a_64(report.to_json().as_bytes()),
        report.finish_time.as_nanos(),
        report.monitor.total_tasks(),
    )
}

fn assert_pin(case: &str, report: &RunReport, want: Pin) {
    let got = pin_of(report);
    assert_eq!(
        (got.1, got.2),
        (want.1, want.2),
        "{case}: (finish_time ns, total tasks) moved"
    );
    assert_eq!(got.0, want.0, "{case}: report JSON hash moved: got {got:?}");
}

/// A 4-node stencil with enough work per cell that phases are long.
fn stencil() -> StencilConfig {
    StencilConfig {
        steps: 4,
        work_scale: 50.0,
        ..StencilConfig::small(4)
    }
}

/// Add to `plan` a kill of `victim` at 55% of `clean`'s makespan, with a
/// heartbeat of 1% of it and a checkpoint at every phase boundary.
fn with_kill(mut rt: RtConfig, clean: &RunReport, victim: usize, mut plan: FaultPlan) -> RtConfig {
    let total = clean.finish_time.as_nanos();
    plan.kill_at(victim, SimTime::from_nanos(total * 55 / 100));
    rt.faults = Some(plan);
    rt.resilience = Some(ResilienceConfig {
        checkpoint_every: 1,
        ckpt: CheckpointConfig::default(),
        heartbeat_period: SimDuration::from_nanos((total / 100).max(1_000)),
        ..ResilienceConfig::default()
    });
    rt
}

#[test]
fn data_aware_stencil_report_is_pinned() {
    let (res, report) = allscale_version::run_with_report(&stencil(), RtConfig::test(4, 2));
    assert!(res.validated);
    assert_pin(
        "data-aware stencil",
        &report,
        (0xfddc_0478_972e_c419, 343_860, 80),
    );
}

#[test]
fn round_robin_stencil_with_kill_report_is_pinned() {
    let rt = || {
        let mut rt = RtConfig::test(4, 2);
        rt.policy = SchedulingPolicy::RoundRobin;
        rt
    };
    let (_, clean) = allscale_version::run_with_report(&stencil(), rt());
    let faulted = with_kill(rt(), &clean, 2, FaultPlan::new(0x901d));
    let (res, report) = allscale_version::run_with_report(&stencil(), faulted);
    assert!(res.validated, "recovery must replay onto the oracle");
    assert!(
        report.monitor.resilience.recoveries >= 1,
        "the kill must land"
    );
    assert_pin(
        "round-robin stencil + kill",
        &report,
        (0x4b43_3d75_afc4_10dd, 992_610, 96),
    );
}

#[test]
fn work_stealing_chaos_stencil_report_is_pinned() {
    let rt = || {
        let mut rt = RtConfig::test(4, 2)
            .with_work_stealing(StealConfig {
                victim: VictimPolicy::Random,
                ..StealConfig::default()
            })
            .with_batching(BatchParams::default())
            .with_integrity(IntegrityConfig::default());
        rt.cost.speed_factors = vec![1.0, 1.0, 1.0, 0.25];
        rt
    };
    let (_, clean) = allscale_version::run_with_report(&stencil(), rt());
    let plan = FaultPlan::new(0xc4a0).with_corruption(0.001);
    let faulted = with_kill(rt(), &clean, 1, plan);
    let (res, report) = allscale_version::run_with_report(&stencil(), faulted);
    assert!(res.validated, "recovery must replay onto the oracle");
    assert!(
        report.monitor.resilience.recoveries >= 1,
        "the kill must land"
    );
    assert!(
        report.monitor.scheduler.steal_requests > 0,
        "stealing must run"
    );
    assert_pin(
        "work-stealing chaos stencil",
        &report,
        (0xdbca_eacc_c87d_63b9, 1_049_562, 96),
    );
}

#[test]
fn kv_serving_report_is_pinned() {
    let cfg = ServeAppConfig {
        requests: 1_000,
        ..ServeAppConfig::small()
    };
    let out = serve::run_with(&cfg, RtConfig::test(4, 2));
    assert_eq!(out.keys_checked, cfg.keys);
    assert_pin(
        "kv serving",
        &out.report,
        (0x1614_aa43_cd11_928b, 6_903_773, 1_533),
    );
}
