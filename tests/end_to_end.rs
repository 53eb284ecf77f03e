//! Cross-crate integration tests: trace generation → platform simulation →
//! metrics, for all three systems, asserting the paper's headline shapes.

use fluidfaas_repro::experiments::runner::{run_workload, SystemKind};
use fluidfaas_repro::fluidfaas::platform::runner::run_platform;
use fluidfaas_repro::fluidfaas::{paper_policies, Engine, FfsConfig};
use fluidfaas_repro::trace::{AzureTraceConfig, Trace, WorkloadClass};

/// The shared engine with the paper's FluidFaaS policies.
fn paper_engine(cfg: FfsConfig, trace: &Trace) -> Engine {
    let policies = paper_policies(&cfg);
    Engine::new(cfg, policies, trace).expect("valid setup")
}

#[test]
fn medium_workload_fluidfaas_beats_esg_on_slo() {
    let fluid = run_workload(SystemKind::FluidFaaS, WorkloadClass::Medium, 120.0, 7);
    let esg = run_workload(SystemKind::Esg, WorkloadClass::Medium, 120.0, 7);
    assert!(
        fluid.log.slo_hit_rate() > esg.log.slo_hit_rate(),
        "fluid {:.3} vs esg {:.3}",
        fluid.log.slo_hit_rate(),
        esg.log.slo_hit_rate()
    );
}

#[test]
fn heavy_workload_fluidfaas_serves_faster_and_never_less() {
    // At moderate trace lengths both systems eventually drain their
    // backlogs, so completion counts tie; the separation shows up in how
    // *quickly* requests finish (P95) and in completions inside the
    // offered window.
    let fluid = run_workload(SystemKind::FluidFaaS, WorkloadClass::Heavy, 120.0, 7);
    let esg = run_workload(SystemKind::Esg, WorkloadClass::Heavy, 120.0, 7);
    let in_window = |out: &fluidfaas_repro::fluidfaas::platform::runner::RunOutput| {
        out.log
            .records()
            .iter()
            .filter(|r| {
                r.completed
                    .map(|c| c.as_secs_f64() <= 120.0)
                    .unwrap_or(false)
            })
            .count()
    };
    assert!(
        in_window(&fluid) >= in_window(&esg),
        "fluid {} vs esg {}",
        in_window(&fluid),
        in_window(&esg)
    );
    let p95 = |out: &fluidfaas_repro::fluidfaas::platform::runner::RunOutput| {
        out.latency_cdf().p95().unwrap()
    };
    assert!(
        p95(&fluid) < 0.6 * p95(&esg),
        "fluid p95 {:.0} vs esg p95 {:.0}",
        p95(&fluid),
        p95(&esg)
    );
}

#[test]
fn every_request_is_accounted_exactly_once() {
    for kind in SystemKind::ALL {
        let trace = AzureTraceConfig::for_workload(WorkloadClass::Medium, 60.0, 3).generate();
        let cfg = FfsConfig::paper_default(WorkloadClass::Medium);
        let out = fluidfaas_repro::experiments::runner::run_system(kind, cfg, &trace);
        assert_eq!(
            out.log.len(),
            trace.len(),
            "{}: every arrival yields exactly one record",
            kind.name()
        );
        let mut ids: Vec<u64> = out.log.records().iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(
            ids.len(),
            trace.len(),
            "{}: no duplicate records",
            kind.name()
        );
    }
}

#[test]
fn runs_are_deterministic_across_invocations() {
    let a = run_workload(SystemKind::FluidFaaS, WorkloadClass::Heavy, 60.0, 11);
    let b = run_workload(SystemKind::FluidFaaS, WorkloadClass::Heavy, 60.0, 11);
    assert_eq!(a.log.slo_hit_rate(), b.log.slo_hit_rate());
    assert_eq!(a.log.latencies_ms(), b.log.latencies_ms());
    assert_eq!(a.cost.total_mig_time_secs(), b.cost.total_mig_time_secs());
}

#[test]
fn different_seeds_give_different_traces_but_same_shapes() {
    let mut fluid_wins = 0;
    for seed in [1, 2, 3] {
        let fluid = run_workload(SystemKind::FluidFaaS, WorkloadClass::Heavy, 90.0, seed);
        let esg = run_workload(SystemKind::Esg, WorkloadClass::Heavy, 90.0, seed);
        if fluid.log.slo_hit_rate() > esg.log.slo_hit_rate() {
            fluid_wins += 1;
        }
    }
    assert_eq!(
        fluid_wins, 3,
        "the heavy-workload ordering must be seed-robust"
    );
}

#[test]
fn pipelines_only_form_when_fragments_are_the_only_option() {
    // Light: every function fits every slice monolithically; no pipelines.
    let cfg = FfsConfig::paper_default(WorkloadClass::Light);
    let trace = AzureTraceConfig::for_workload(WorkloadClass::Light, 60.0, 5).generate();
    let mut sys = paper_engine(cfg, &trace);
    let _ = run_platform(&mut sys, &trace);
    assert_eq!(
        sys.core.peak_pipelines, 0,
        "light workload needs no pipelines"
    );

    // Heavy: monoliths only fit 4g slices; pipelines must appear.
    let cfg = FfsConfig::paper_default(WorkloadClass::Heavy);
    let trace = AzureTraceConfig::for_workload(WorkloadClass::Heavy, 90.0, 5).generate();
    let mut sys = paper_engine(cfg, &trace);
    let _ = run_platform(&mut sys, &trace);
    assert!(
        sys.core.peak_pipelines > 0,
        "heavy workload must build pipelines"
    );
}

#[test]
fn drained_fleet_releases_exclusive_resources() {
    let mut cfg = FfsConfig::paper_default(WorkloadClass::Light);
    // Shorten the demote hysteresis so the 60 s drain suffices.
    cfg.exclusive_idle_grace = fluidfaas_repro::sim::SimDuration::from_secs(15);
    // A trace that stops early, followed by the drain window.
    let trace = AzureTraceConfig::steady(WorkloadClass::Light.apps(), 20.0, 5.0, 9).generate();
    let mut sys = paper_engine(cfg, &trace);
    let out = run_platform(&mut sys, &trace);
    assert!(out.log.slo_hit_rate() > 0.5);
    // After draining, only time-sharing pool slices may remain allocated
    // (they are reclaimed by the 10-minute keep-alive, which the short run
    // does not reach).
    assert_eq!(sys.core.instance_count(), 0, "exclusive instances retired");
}
