//! Fairness determinism: a multi-tenant run must be a pure function of
//! (trace, config). Same scenario, same seed → the full request log (ids,
//! arrivals, completions, breakdowns) and cost figures must hash
//! identically, and the per-tenant fairness report must agree
//! bit-for-bit.

use ffs_experiments::fairness::{cell, run};
use ffs_experiments::runner::{run_system, SystemKind};
use ffs_trace::{FairnessScenario, WorkloadClass};
use fluidfaas::{run_output_digest, FfsConfig};

/// One FluidFaaS run over a fairness scenario, collapsed to a digest.
fn fluid_digest(scenario: FairnessScenario, secs: f64, seed: u64) -> u64 {
    let trace = scenario.generate(WorkloadClass::Light, secs, seed);
    let cfg = FfsConfig::paper_default(WorkloadClass::Light);
    let out = run_system(SystemKind::FluidFaaS, cfg, &trace);
    run_output_digest(&out)
}

#[test]
fn fluid_double_run_is_bit_identical() {
    for scenario in FairnessScenario::ALL {
        let a = fluid_digest(scenario, 20.0, 1);
        let b = fluid_digest(scenario, 20.0, 1);
        assert_eq!(a, b, "{}: double run diverged", scenario.name());
    }
    // Different seeds must actually change the run, or the digest above
    // proves nothing.
    assert_ne!(
        fluid_digest(FairnessScenario::NoisyNeighbor, 20.0, 1),
        fluid_digest(FairnessScenario::NoisyNeighbor, 20.0, 2),
        "digest is seed-insensitive"
    );
}

#[test]
fn fairness_sweep_double_run_agrees_per_tenant() {
    let a = run(15.0, 5);
    let b = run(15.0, 5);
    assert_eq!(a.len(), b.len());
    for (ca, cb) in a.iter().zip(&b) {
        assert_eq!(
            ca.report.jain_throughput.to_bits(),
            cb.report.jain_throughput.to_bits()
        );
        assert_eq!(
            ca.report.jain_goodput.to_bits(),
            cb.report.jain_goodput.to_bits()
        );
        for (ta, tb) in ca.report.tenants.iter().zip(&cb.report.tenants) {
            assert_eq!(ta.tenant, tb.tenant);
            assert_eq!(ta.requests, tb.requests);
            assert_eq!(ta.throughput_rps.to_bits(), tb.throughput_rps.to_bits());
            assert_eq!(ta.goodput_rps.to_bits(), tb.goodput_rps.to_bits());
            assert_eq!(ta.p99_ms.map(f64::to_bits), tb.p99_ms.map(f64::to_bits));
        }
    }
    // Every (system, scenario) cell exists, and nothing else.
    assert_eq!(a.len(), SystemKind::ALL.len() * FairnessScenario::ALL.len());
    for system in SystemKind::ALL {
        for scenario in FairnessScenario::ALL {
            assert!(
                cell(&a, system, scenario).is_some(),
                "{} on {}: missing cell",
                system.name(),
                scenario.name()
            );
        }
    }
}
