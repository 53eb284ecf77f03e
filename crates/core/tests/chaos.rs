//! Integration tests for `ffs-chaos` fault injection.
//!
//! Covers the PR's acceptance criteria: fault-free runs stay clamp-free
//! and report zero fault stats; faulted runs are a pure function of
//! `(run seed, FaultSpec)`; recovered slices re-enter placement only
//! after paying the real MIG reconfiguration latency; and the platform
//! degrades gracefully (still completes work) under an aggressive
//! failure regime.

use std::sync::{Arc, Mutex};

use ffs_mig::gpu::RECONFIGURE_SECS;
use ffs_obs::{ObsEvent, Recorder, Recording};
use ffs_sim::SimDuration;
use ffs_trace::{AzureTraceConfig, Trace, WorkloadClass};
use fluidfaas::platform::runner::{run_platform, FaultStats, RunOutput};
use fluidfaas::{paper_policies, Engine, FaultSpec, FfsConfig};

/// The obs enable flag is process-wide; serialize the tests that use it
/// (and the fault-free clamp check, which reads a global counter).
static LOCK: Mutex<()> = Mutex::new(());

fn small_trace(secs: f64) -> Trace {
    AzureTraceConfig::for_workload(WorkloadClass::Light, secs, 7).generate()
}

fn run(cfg: FfsConfig, trace: &Trace) -> RunOutput {
    let policies = paper_policies(&cfg);
    let mut engine = Engine::new(cfg, policies, trace).expect("valid setup");
    run_platform(&mut engine, trace)
}

fn with_recorder<R>(f: impl FnOnce() -> R) -> (R, Recording) {
    ffs_obs::set_enabled(true);
    let prev = ffs_obs::install(Arc::new(Recorder::with_capacity(1 << 16)));
    assert!(prev.is_none(), "stale recorder from another test");
    let r = f();
    let rec = ffs_obs::uninstall().expect("recorder still installed");
    ffs_obs::set_enabled(false);
    (r, rec.drain())
}

#[test]
fn fault_free_run_reports_zero_faults_and_zero_clamps() {
    let _g = LOCK.lock().unwrap();
    let before = ffs_obs::metric_clamps();
    let trace = small_trace(30.0);
    let out = run(FfsConfig::test_small(WorkloadClass::Light), &trace);
    assert_eq!(out.faults, FaultStats::default());
    assert_eq!(
        ffs_obs::metric_clamps() - before,
        0,
        "fault-free run must not clamp any metric interval"
    );
    assert!(!out.log.is_empty());
}

#[test]
fn faulted_run_is_a_pure_function_of_seed_and_spec() {
    let _g = LOCK.lock().unwrap();
    let trace = small_trace(60.0);
    let mut cfg = FfsConfig::test_small(WorkloadClass::Light);
    cfg.faults = FaultSpec::slice_faults(5, 20.0);
    let a = run(cfg.clone(), &trace);
    let b = run(cfg, &trace);
    assert!(
        a.faults.slice_failures > 0,
        "20 s MTBF over 2 min must fault"
    );
    assert_eq!(a.faults, b.faults);
    assert_eq!(
        a.log.slo_hit_rate().to_bits(),
        b.log.slo_hit_rate().to_bits(),
        "same (seed, spec) must reproduce bit-identically"
    );
    let la = a.latency_cdf().p99().unwrap_or(0.0);
    let lb = b.latency_cdf().p99().unwrap_or(0.0);
    assert_eq!(la.to_bits(), lb.to_bits());
}

/// Satellite regression: a recovered slice re-enters placement exactly
/// `recovery_secs + RECONFIGURE_SECS` after a fault fired — the MIG
/// reconfiguration latency is charged through the engine clock, not
/// skipped. (Recovery is GPU-granular, so a recovery's timestamp matches
/// *some* fault instant plus the full delay; see docs/RESILIENCE.md.)
#[test]
fn recovery_pays_the_reconfiguration_latency() {
    let _g = LOCK.lock().unwrap();
    let trace = small_trace(40.0);
    let mut cfg = FfsConfig::test_small(WorkloadClass::Light);
    // Long drain so `fault + recovery + 180 s` lands inside the horizon.
    cfg.drain = SimDuration::from_secs(400);
    cfg.faults = FaultSpec::slice_faults(3, 15.0);
    let recovery_us = (cfg.faults.recovery_secs * 1e6) as u64;
    let reconf_us = RECONFIGURE_SECS * 1_000_000;
    let (out, recording) = with_recorder(|| run(cfg, &trace));
    assert!(out.faults.slice_failures > 0);
    assert!(
        out.faults.recoveries > 0,
        "a 400 s drain must see at least one recovery"
    );
    let fault_times: Vec<u64> = recording
        .events
        .iter()
        .filter(|s| matches!(s.event, ObsEvent::SliceFailed { .. }))
        .map(|s| s.t_us)
        .collect();
    let recover_times: Vec<u64> = recording
        .events
        .iter()
        .filter(|s| matches!(s.event, ObsEvent::SliceRecovered { .. }))
        .map(|s| s.t_us)
        .collect();
    assert!(!recover_times.is_empty());
    for &t in &recover_times {
        assert!(
            fault_times.contains(&(t - recovery_us - reconf_us)),
            "recovery at {t} µs is not a fault instant + {} s + {} s",
            recovery_us / 1_000_000,
            RECONFIGURE_SECS
        );
    }
    // The reconfiguration itself went through the NVML mirror.
    assert!(
        recording
            .events
            .iter()
            .any(|s| matches!(s.event, ObsEvent::MigReconfig { .. })),
        "recovery must charge a MIG reconfiguration"
    );
}

#[test]
fn platform_degrades_gracefully_under_aggressive_faults() {
    let _g = LOCK.lock().unwrap();
    let trace = small_trace(60.0);
    let mut cfg = FfsConfig::test_small(WorkloadClass::Light);
    cfg.faults = FaultSpec {
        gpu_mtbf_secs: 60.0,
        ..FaultSpec::slice_faults(11, 10.0)
    };
    let out = run(cfg, &trace);
    assert!(out.faults.slice_failures > 0);
    assert!(out.faults.gpu_failures > 0);
    let completed = out
        .log
        .records()
        .iter()
        .filter(|r| r.latency_ms().is_some())
        .count();
    assert!(
        completed > 0,
        "the platform must keep serving through faults"
    );
    // Fault counters are self-consistent: every exhausted retry chain used
    // max_retries issued retries (plus the issued ones still pending).
    assert!(out.faults.retries >= out.faults.retries_exhausted);
}
