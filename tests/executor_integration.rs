//! Integration tests of the live pipeline executor against the planner and
//! profiles: a pipelined run must produce exactly the monolithic result.

use std::time::Instant;

use fluidfaas_repro::mig::{Fleet, PartitionLayout, PartitionScheme};
use fluidfaas_repro::pipeline::plan::plan_deployment;
use fluidfaas_repro::pipeline::replay::stage_specs;
use fluidfaas_repro::pipeline::{KernelMode, PipelineExecutor, StageSpec};
use fluidfaas_repro::profile::{App, FunctionProfile, PerfModel, Variant};

#[test]
fn planned_pipeline_runs_live_and_matches_reference() {
    let profile = FunctionProfile::build(
        App::ImageClassification,
        Variant::Medium,
        &PerfModel::default(),
    );
    // Only 1g slices: the planner must pipeline.
    let fleet = Fleet::new(
        1,
        1,
        &PartitionScheme::Uniform(PartitionLayout::preset_seven_small()),
    )
    .unwrap();
    let plan = plan_deployment(&profile, &fleet.free_slices(None)).expect("feasible");
    assert!(!plan.is_monolithic());

    let ex = PipelineExecutor::spawn(stage_specs(&profile, &plan), KernelMode::Sleep, 0.001, 4);
    let input = vec![3.0_f32, -1.5, 0.0, 42.0];
    let expected = ex.reference_output(input.clone());
    for i in 0..10 {
        ex.submit(i, input.clone()).unwrap();
    }
    for _ in 0..10 {
        let (_, out) = ex.recv().unwrap();
        assert_eq!(out, expected);
    }
    let timings = ex.shutdown();
    assert_eq!(timings.len(), 10);
    assert!(timings
        .iter()
        .all(|t| t.stage_service.len() == plan.num_stages()));
}

#[test]
fn live_pipeline_overlaps_like_the_model_predicts() {
    // 3 equal stages: pipelined makespan for n requests ~ (n + s - 1) * t,
    // sequential ~ n * s * t. Check the live executor lands near the model.
    let stage_ms = 20.0;
    let n = 8u64;
    let specs: Vec<StageSpec> = (0..3)
        .map(|i| StageSpec::new(format!("s{i}"), stage_ms, 1.0, 0.0))
        .collect();
    let ex = PipelineExecutor::spawn(specs, KernelMode::Sleep, 1.0, 8);
    let start = Instant::now();
    for i in 0..n {
        ex.submit(i, vec![1.0]).unwrap();
    }
    for _ in 0..n {
        ex.recv().unwrap();
    }
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    ex.shutdown();
    let model_ms = (n as f64 + 2.0) * stage_ms;
    let sequential_ms = n as f64 * 3.0 * stage_ms;
    assert!(
        elapsed_ms < sequential_ms * 0.75,
        "elapsed {elapsed_ms:.0} vs sequential {sequential_ms:.0}"
    );
    assert!(
        elapsed_ms > model_ms * 0.8,
        "elapsed {elapsed_ms:.0} vs model lower bound {model_ms:.0}"
    );
}

#[test]
fn eviction_flag_terminates_stage_mid_service() {
    let specs = vec![
        StageSpec::new("a", 5.0, 1.0, 1.0),
        StageSpec::new("b", 5.0, 1.0, 1.0),
    ];
    let ex = PipelineExecutor::spawn(specs, KernelMode::Sleep, 0.01, 4);
    ex.submit(0, vec![0.0]).unwrap();
    ex.recv().unwrap();
    ex.evict_stage(0);
    ex.submit(1, vec![0.0]).unwrap();
    assert!(ex.recv().is_err(), "evicted stage drops the pipeline");
}
