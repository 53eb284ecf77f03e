//! Extension: multi-stage LLM inference as a FluidFaaS function (§5.2.3).
//!
//! The paper argues FluidFaaS "seamlessly maps [LLM] stages to the
//! appropriate GPU resources". This example makes the claim executable:
//! tokenization → transformer front half → transformer back half →
//! response generation, profiled, planned onto fragmented MIG slices, and
//! run on the live pipeline executor.
//!
//! ```sh
//! cargo run --example llm_inference
//! ```

use fluidfaas_repro::mig::{Fleet, PartitionScheme, SliceProfile};
use fluidfaas_repro::pipeline::plan::plan_deployment;
use fluidfaas_repro::pipeline::replay::stage_specs;
use fluidfaas_repro::pipeline::{estimate, KernelMode, PipelineExecutor};
use fluidfaas_repro::profile::{App, FunctionProfile, PerfModel, Variant};

fn main() {
    let perf = PerfModel::default();

    println!("LLM service variants (≈7B / 13B / 30B):");
    for variant in [Variant::Small, Variant::Medium, Variant::Large] {
        let p = FunctionProfile::build(App::LlmService, variant, &perf);
        println!(
            "  {:>6}: {:5.1} GB total | monolithic >= {:8} | pipelined >= {:8} | ref latency {:6.0} ms",
            variant.name(),
            p.total_mem_gb(),
            p.min_baseline_slice().map_or("NULL", |s| s.name()),
            p.min_pipeline_slice().map_or("NULL", |s| s.name()),
            p.reference_latency_ms(),
        );
    }

    // A 13B-class model on a node whose 4g.40gb slices are all taken:
    // only 1g/2g fragments remain — the monolithic view would have to wait
    // (the transformer halves need ~12 GB each, so the pipeline spreads
    // over the two GPUs' 2g.20gb fragments).
    let profile = FunctionProfile::build(App::LlmService, Variant::Medium, &perf);
    let mut fleet = Fleet::new(1, 2, &PartitionScheme::p1()).unwrap();
    for s in fleet
        .free_slices(None)
        .into_iter()
        .filter(|s| s.profile == SliceProfile::G4_40)
        .collect::<Vec<_>>()
    {
        fleet.allocate(s.id).unwrap();
    }
    println!(
        "\nfree fragments after the 4g.40gb is taken: {:?}",
        fleet.free_profile_histogram()
    );

    let plan = plan_deployment(&profile, &fleet.free_slices(None))
        .expect("the transformer halves fit the fragments");
    println!(
        "planned a {}-stage LLM pipeline (CV {:.3}):",
        plan.num_stages(),
        plan.cv
    );
    for (i, stage) in plan.stages.iter().enumerate() {
        let names: Vec<&str> = stage
            .nodes
            .iter()
            .map(|&n| profile.dag.component(n).name.as_str())
            .collect();
        println!(
            "  stage {i}: [{}] on {} ({:.1} GB)",
            names.join(", "),
            stage.profile,
            stage.mem_gb
        );
    }
    let est = estimate(&profile, &plan);
    println!(
        "estimated latency {:.0} ms, bottleneck {:.0} ms -> {:.1} tokens-of-work/s",
        est.latency_ms, est.bottleneck_ms, est.throughput_rps
    );

    // Run it live (time scaled down 50x for the demo, 8-deep stage queues).
    let ex = PipelineExecutor::spawn(stage_specs(&profile, &plan), KernelMode::Sleep, 0.02, 8);
    let prompt: Vec<f32> = (0..32).map(|i| (i as f32).sin()).collect();
    let expected = ex.reference_output(prompt.clone());
    for i in 0..8 {
        ex.submit(i, prompt.clone()).unwrap();
    }
    let mut ok = 0;
    for _ in 0..8 {
        let (_, out) = ex.recv().unwrap();
        if out == expected {
            ok += 1;
        }
    }
    ex.shutdown();
    println!("\nlive pipeline served 8 requests; {ok}/8 outputs match the monolithic reference");
    assert_eq!(ok, 8);
}
