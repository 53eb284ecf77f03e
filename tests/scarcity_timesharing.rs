//! Scenario test: a single-GPU fleet with more functions than big slices
//! forces the full §5.3 machinery — low-utilization demotion (③),
//! shared-slice binding, and LRU eviction (④) — and every function still
//! gets served.

use fluidfaas_repro::fluidfaas::platform::runner::run_platform;
use fluidfaas_repro::fluidfaas::{paper_policies, Engine, FfsConfig};
use fluidfaas_repro::trace::{AzureTraceConfig, Trace, WorkloadClass};

/// The shared engine with the paper's FluidFaaS policies.
fn paper_engine(cfg: FfsConfig, trace: &Trace) -> Engine {
    let policies = paper_policies(&cfg);
    Engine::new(cfg, policies, trace).expect("valid setup")
}

#[test]
fn four_functions_share_one_gpu_through_eviction() {
    // One GPU (4g.40gb + 2g.20gb + 1g.10gb), four medium functions of
    // ~15-30 GB each: at most two can hold exclusive slices; the others
    // must time-share.
    let mut cfg = FfsConfig::paper_default(WorkloadClass::Medium);
    cfg.nodes = 1;
    cfg.gpus_per_node = 1;
    let trace = AzureTraceConfig::steady(WorkloadClass::Medium.apps(), 180.0, 0.4, 3).generate();
    let mut sys = paper_engine(cfg, &trace);
    let out = run_platform(&mut sys, &trace);

    // Every app must complete requests despite the scarcity.
    for app in WorkloadClass::Medium.apps() {
        let served = out
            .log
            .records()
            .iter()
            .filter(|r| r.app_index == app.index() && r.completed.is_some())
            .count();
        assert!(
            served > 0,
            "App {} starved: {:?}",
            app.index(),
            sys.core.sched_log
        );
    }

    // The shared machinery actually engaged: reloads onto shared slices,
    // and (with several functions rotating through one slot) evictions.
    let log = sys.core.sched_log;
    assert!(log.reloads > 0, "{log:?}");
    assert!(log.evictions > 0, "{log:?}");
    // Demote-under-pressure retired lightly-used exclusive instances.
    assert!(log.retirements > 0, "{log:?}");

    // Overall most requests should still complete (latency may be poor —
    // that is the cost of scarcity, not a correctness failure).
    let done = out
        .log
        .records()
        .iter()
        .filter(|r| r.completed.is_some())
        .count();
    assert!(
        done as f64 / out.log.len() as f64 > 0.8,
        "completed {done}/{}",
        out.log.len()
    );
}

#[test]
fn strong_isolation_is_never_violated() {
    // At any instant a MIG slice backs at most one resident model; the
    // cost tracker's double-allocation debug assertions (which run in this
    // test profile) plus the fleet allocator's occupancy checks enforce
    // it. Run a contended scenario to exercise them.
    let mut cfg = FfsConfig::paper_default(WorkloadClass::Light);
    cfg.nodes = 1;
    cfg.gpus_per_node = 1;
    let trace = AzureTraceConfig::for_workload(WorkloadClass::Light, 90.0, 5).generate();
    let mut sys = paper_engine(cfg, &trace);
    let out = run_platform(&mut sys, &trace);
    assert_eq!(out.log.len(), trace.len());
}
