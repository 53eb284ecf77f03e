//! Ablations of FluidFaaS's design choices (DESIGN.md §5):
//!
//! * **CV-ranked partitioning** vs first-feasible-in-enumeration-order.
//! * **Eviction-based time sharing** on/off.
//! * **Pipeline migration** on/off.
//! * **Transfer-cost sensitivity** (how expensive must stage boundaries be
//!   before pipelining stops paying off).
//!
//! Each arm is an explicit *policy substitution* over the shared engine: it
//! swaps one member of the full FluidFaaS [`PolicyBundle`] for a no-op or a
//! variant, rather than toggling config flags. The transfer-cost arms keep
//! the full bundle and scale the perf model instead.

use ffs_metrics::TextTable;
use ffs_trace::WorkloadClass;
use fluidfaas::platform::policy::{NoMigrator, NoSharedPool};
use fluidfaas::{
    FfsConfig, FluidAutoscaler, FluidMigrator, FluidPlacer, FluidRouter, FluidSharedPool,
    PolicyBundle, ScalingPolicy,
};

use crate::parallel::run_matrix;
use crate::runner::{run_fluid_with, shared_workload_trace};

/// Result of one ablation arm.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Arm name.
    pub arm: String,
    /// SLO hit rate.
    pub slo_hit_rate: f64,
    /// Completed throughput (rps, over trace + drain).
    pub throughput_rps: f64,
    /// P95 latency (ms).
    pub p95_ms: f64,
}

/// One ablation arm: a config plus a factory for the policy bundle the arm
/// substitutes (a factory because bundles are consumed per run and the
/// arms fan out across [`run_matrix`] workers).
struct Arm {
    name: String,
    cfg: FfsConfig,
    bundle: Box<dyn Fn() -> PolicyBundle + Send + Sync>,
}

/// The complete FluidFaaS policy bundle (the "full" arm and the base the
/// others substitute into).
fn full_bundle() -> PolicyBundle {
    PolicyBundle {
        router: Box::new(FluidRouter),
        shared: Box::new(FluidSharedPool),
        autoscaler: Box::new(FluidAutoscaler {
            policy: ScalingPolicy::Reactive,
        }),
        migrator: Box::new(FluidMigrator),
        placer: Box::new(FluidPlacer { ranked: true }),
    }
}

fn run_arm(arm: &Arm, duration_secs: f64, seed: u64) -> AblationRow {
    let trace = shared_workload_trace(arm.cfg.workload, duration_secs, seed);
    let out = run_fluid_with(arm.cfg.clone(), (arm.bundle)(), &trace);
    AblationRow {
        arm: arm.name.clone(),
        slo_hit_rate: out.log.slo_hit_rate(),
        throughput_rps: out.throughput_rps(),
        p95_ms: out.latency_cdf().p95().unwrap_or(f64::NAN),
    }
}

/// Runs the feature ablations on the heavy workload (where every mechanism
/// matters most). The arms are independent and run in parallel; row order
/// is the arm-definition order.
pub fn run(duration_secs: f64, seed: u64) -> Vec<AblationRow> {
    let workload = WorkloadClass::Heavy;
    let cfg = FfsConfig::paper_default(workload);
    let mut arms: Vec<Arm> = vec![
        Arm {
            name: "full".into(),
            cfg: cfg.clone(),
            bundle: Box::new(full_bundle),
        },
        // Unranked placement: take the first feasible partition instead of
        // the best CV-ranked one.
        Arm {
            name: "no-cv-ranking".into(),
            cfg: cfg.clone(),
            bundle: Box::new(|| PolicyBundle {
                placer: Box::new(FluidPlacer { ranked: false }),
                ..full_bundle()
            }),
        },
        Arm {
            name: "no-time-sharing".into(),
            cfg: cfg.clone(),
            bundle: Box::new(|| PolicyBundle {
                shared: Box::new(NoSharedPool),
                ..full_bundle()
            }),
        },
        Arm {
            name: "no-migration".into(),
            cfg: cfg.clone(),
            bundle: Box::new(|| PolicyBundle {
                migrator: Box::new(NoMigrator),
                ..full_bundle()
            }),
        },
        // Model-based (Erlang-C) autoscaling instead of reactive.
        Arm {
            name: "erlang-c-scaling".into(),
            cfg,
            bundle: Box::new(|| PolicyBundle {
                autoscaler: Box::new(FluidAutoscaler {
                    policy: ScalingPolicy::ErlangC {
                        target_wait_frac: 0.25,
                    },
                }),
                ..full_bundle()
            }),
        },
    ];

    // Transfer-cost sensitivity: inflate the boundary cost (full bundle,
    // scaled perf model).
    for mult in [2.0_f64, 4.0] {
        let mut cfg = FfsConfig::paper_default(workload);
        cfg.perf.boundary_base_ms *= mult;
        cfg.perf.shm_gbps /= mult;
        arms.push(Arm {
            name: format!("transfer-x{mult:.0}"),
            cfg,
            bundle: Box::new(full_bundle),
        });
    }

    run_matrix(&arms, |arm| run_arm(arm, duration_secs, seed))
}

/// Renders the ablation table.
pub fn render(rows: &[AblationRow]) -> String {
    let mut t = TextTable::new(&["arm", "SLO hit", "throughput rps", "p95 ms"]);
    for r in rows {
        t.row(&[
            r.arm.clone(),
            format!("{:.3}", r.slo_hit_rate),
            format!("{:.1}", r.throughput_rps),
            format!("{:.0}", r.p95_ms),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_system, SystemKind};

    #[test]
    fn full_system_at_least_matches_every_ablation() {
        let rows = run(120.0, 1);
        let full = rows.iter().find(|r| r.arm == "full").unwrap().slo_hit_rate;
        for r in &rows {
            assert!(
                full >= r.slo_hit_rate - 0.12,
                "arm {} ({:.3}) beats full ({full:.3}) by too much",
                r.arm,
                r.slo_hit_rate
            );
        }
    }

    #[test]
    fn erlang_c_scaling_is_viable() {
        let rows = run(120.0, 1);
        let erlang = rows
            .iter()
            .find(|r| r.arm == "erlang-c-scaling")
            .unwrap()
            .slo_hit_rate;
        let full = rows.iter().find(|r| r.arm == "full").unwrap().slo_hit_rate;
        // The model-based sizer must be in the same ballpark as the
        // reactive default (both policies are legitimate).
        assert!(erlang > full * 0.5, "erlang {erlang:.3} vs full {full:.3}");
    }

    #[test]
    fn extreme_transfer_costs_hurt() {
        let rows = run(120.0, 1);
        let full = rows.iter().find(|r| r.arm == "full").unwrap().slo_hit_rate;
        let x4 = rows
            .iter()
            .find(|r| r.arm == "transfer-x4")
            .unwrap()
            .slo_hit_rate;
        // At short test durations the difference is within noise; assert
        // only that quadrupled transfer costs give no real advantage.
        assert!(x4 <= full + 0.06, "x4 {x4:.3} vs full {full:.3}");
    }

    /// Guard on the substitution mechanics: each substituted bundle really
    /// produces different behaviour from only its own mechanism.
    #[test]
    fn ablation_arm_names_are_unique() {
        let rows = run(60.0, 2);
        let mut names: Vec<&str> = rows.iter().map(|r| r.arm.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), rows.len(), "duplicate arm names");
    }

    /// A substituted bundle runs through the same engine entry point that
    /// config-built systems use: the `full` arm must equal the stock
    /// `run_system(FluidFaaS, ..)` output bit-for-bit.
    #[test]
    fn full_arm_matches_config_built_system() {
        let cfg = FfsConfig::paper_default(WorkloadClass::Heavy);
        let trace = shared_workload_trace(WorkloadClass::Heavy, 30.0, 9);
        let via_bundle = run_fluid_with(cfg.clone(), full_bundle(), &trace);
        let via_config = run_system(SystemKind::FluidFaaS, cfg, &trace);
        assert_eq!(
            via_bundle.log.slo_hit_rate().to_bits(),
            via_config.log.slo_hit_rate().to_bits()
        );
        assert_eq!(
            via_bundle.throughput_rps().to_bits(),
            via_config.throughput_rps().to_bits()
        );
    }
}
