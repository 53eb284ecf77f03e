//! Bridging planned deployments to the live executor.
//!
//! A [`DeploymentPlan`] describes *where* each stage runs; [`stage_specs`]
//! turns it into the stage list a [`PipelineExecutor`](crate::PipelineExecutor)
//! spawns, with service times from the function's profile — the
//! `RUN`-mode path of the paper's Figure 7, where the invoker writes the
//! MIG assignment into the configuration layer and `FFaaS.run()` brings
//! the pipeline up.

use ffs_profile::FunctionProfile;

use crate::executor::StageSpec;
use crate::plan::DeploymentPlan;

/// Builds the executor stage specs for a planned deployment: one stage per
/// plan stage, service time = the stage's components back-to-back on the
/// assigned slice, and a deterministic per-stage affine transform so output
/// equivalence with the monolithic run can be checked.
pub fn stage_specs(profile: &FunctionProfile, plan: &DeploymentPlan) -> Vec<StageSpec> {
    plan.stages
        .iter()
        .enumerate()
        .map(|(i, stage)| {
            let service_ms = profile.stage_exec_ms(&stage.nodes, stage.profile);
            let names: Vec<&str> = stage
                .nodes
                .iter()
                .map(|&n| profile.dag.component(n).name.as_str())
                .collect();
            StageSpec::new(
                names.join("+"),
                service_ms,
                // Distinct, deterministic coefficients per stage index.
                1.0 + 0.25 * (i as f32 + 1.0),
                0.5 * (i as f32) - 1.0,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{KernelMode, PipelineExecutor};
    use crate::plan::plan_deployment;
    use ffs_mig::{Fleet, PartitionLayout, PartitionScheme};
    use ffs_profile::{App, PerfModel, Variant};

    fn pipelined_plan() -> (FunctionProfile, DeploymentPlan) {
        let profile = FunctionProfile::build(
            App::DepthRecognition,
            Variant::Medium,
            &PerfModel::default(),
        );
        let fleet = Fleet::new(
            1,
            1,
            &PartitionScheme::Uniform(PartitionLayout::preset_seven_small()),
        )
        .unwrap();
        let plan = plan_deployment(&profile, &fleet.free_slices(None)).unwrap();
        assert!(!plan.is_monolithic());
        (profile, plan)
    }

    #[test]
    fn specs_cover_every_component_once() {
        let (profile, plan) = pipelined_plan();
        let specs = stage_specs(&profile, &plan);
        assert_eq!(specs.len(), plan.num_stages());
        let all_names: String = specs
            .iter()
            .map(|s| s.name.clone())
            .collect::<Vec<_>>()
            .join("+");
        for n in profile.dag.nodes() {
            assert!(
                all_names.contains(&profile.dag.component(n).name),
                "{} missing",
                profile.dag.component(n).name
            );
        }
    }

    #[test]
    fn service_times_match_the_profile() {
        let (profile, plan) = pipelined_plan();
        let specs = stage_specs(&profile, &plan);
        for (spec, stage) in specs.iter().zip(&plan.stages) {
            let expected = profile.stage_exec_ms(&stage.nodes, stage.profile);
            assert!((spec.service_ms - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn spawned_pipeline_preserves_output() {
        let (profile, plan) = pipelined_plan();
        let ex = PipelineExecutor::spawn(stage_specs(&profile, &plan), KernelMode::Sleep, 0.001, 8);
        let input = vec![1.0_f32, 2.5, -3.0];
        let expected = ex.reference_output(input.clone());
        ex.submit(0, input).unwrap();
        let (_, out) = ex.recv().unwrap();
        assert_eq!(out, expected);
        ex.shutdown();
    }
}
