//! Regression tests for the parallel harness's determinism guarantee:
//! `run_matrix` output must be byte-identical to a sequential loop at any
//! worker count, and repeated same-seed runs must agree exactly.

use ffs_experiments::parallel::run_matrix_with_threads;
use ffs_experiments::runner::{run_workload, SystemKind};
use ffs_trace::WorkloadClass;

const SECS: f64 = 30.0;
const SEED: u64 = 7;

fn specs() -> Vec<(WorkloadClass, SystemKind)> {
    // A small fig9-style cross-product: two workloads x all three systems.
    [WorkloadClass::Light, WorkloadClass::Medium]
        .into_iter()
        .flat_map(|w| SystemKind::ALL.into_iter().map(move |s| (w, s)))
        .collect()
}

/// Renders every run to an exact byte string: float metrics go in as raw
/// bit patterns so even sub-ulp divergence fails the comparison.
fn render_matrix(workers: usize) -> String {
    let specs = specs();
    let outs = run_matrix_with_threads(&specs, workers, |&(workload, system)| {
        run_workload(system, workload, SECS, SEED)
    });
    let mut s = String::new();
    for (&(workload, system), out) in specs.iter().zip(&outs) {
        let completed = out
            .log
            .records()
            .iter()
            .filter(|r| r.completed.is_some())
            .count();
        s.push_str(&format!(
            "{} {} n={} hit={:016x} thr={:016x} gpu={:016x}\n",
            workload.name(),
            system.name(),
            completed,
            out.log.slo_hit_rate().to_bits(),
            out.throughput_rps().to_bits(),
            out.cost.total_gpu_time_secs().to_bits(),
        ));
    }
    s
}

#[test]
fn parallel_output_is_byte_identical_to_sequential() {
    let sequential = render_matrix(1);
    for workers in [2, 4] {
        let parallel = render_matrix(workers);
        assert_eq!(
            sequential, parallel,
            "run_matrix with {workers} workers diverged from sequential"
        );
    }
}

#[test]
fn repeated_same_seed_runs_agree() {
    assert_eq!(render_matrix(4), render_matrix(4));
}

/// The run arena recycles schedulers, request buffers and instance slabs
/// across runs on a worker thread. Reuse must be invisible: a warm-arena
/// sequential sweep (every container recycled) and parallel sweeps at
/// 2/4 workers (fresh worker threads, different reuse interleavings) must
/// all be byte-identical to the first, cold-arena sweep.
#[test]
fn arena_reuse_is_bit_neutral_across_worker_counts() {
    let cold = render_matrix(1);
    let before = fluidfaas::platform::arena::arena_stats();
    let warm = render_matrix(1);
    let after = fluidfaas::platform::arena::arena_stats();
    assert!(
        after.reused >= before.reused + 6,
        "a warm sequential sweep must recycle its containers \
         (reused {} -> {})",
        before.reused,
        after.reused
    );
    assert_eq!(
        after.fresh, before.fresh,
        "warm sweep must construct nothing"
    );
    assert_eq!(cold, warm, "arena reuse changed sequential output");
    for workers in [2, 4] {
        assert_eq!(
            cold,
            render_matrix(workers),
            "arena reuse changed output at {workers} workers"
        );
    }
}

/// Renders one sequential sweep, optionally with `ffs-obs` tracing live on
/// this thread (enabled flag + installed recorder). Float metrics go in as
/// raw bit patterns, as above.
fn render_traced(traced: bool) -> String {
    let rec = std::sync::Arc::new(ffs_obs::Recorder::new());
    if traced {
        ffs_obs::set_enabled(true);
        ffs_obs::install(std::sync::Arc::clone(&rec));
    }
    let mut s = String::new();
    for (workload, system) in specs() {
        let out = run_workload(system, workload, SECS, SEED);
        s.push_str(&format!(
            "{} {} n={} hit={:016x} thr={:016x} gpu={:016x}\n",
            workload.name(),
            system.name(),
            out.log
                .records()
                .iter()
                .filter(|r| r.completed.is_some())
                .count(),
            out.log.slo_hit_rate().to_bits(),
            out.throughput_rps().to_bits(),
            out.cost.total_gpu_time_secs().to_bits(),
        ));
    }
    if traced {
        let _ = ffs_obs::uninstall();
        ffs_obs::set_enabled(false);
        let recording = rec.drain();
        assert!(
            !recording.events.is_empty(),
            "a traced sweep must record control-plane events"
        );
        assert!(recording.counters.requests_completed > 0);
    }
    s
}

/// The observability tentpole's core guarantee: instrumentation observes
/// the simulation without steering it, so a traced run is bit-identical to
/// an untraced one.
#[test]
fn tracing_does_not_perturb_simulation_output() {
    let off = render_traced(false);
    let on = render_traced(true);
    assert_eq!(off, on, "tracing on/off must be byte-identical");
}

/// The phase profiler only ever *reads* clocks — it feeds nothing back
/// into the simulation, so a profiled sweep is bit-identical to an
/// unprofiled one (and the profiled sweep really does profile: the merged
/// snapshot gains spans).
#[test]
fn telemetry_does_not_perturb_simulation_output() {
    ffs_telemetry::set_enabled(false);
    let off = render_matrix(1);
    ffs_telemetry::set_enabled(true);
    let calls_before: u64 = ffs_telemetry::snapshot().calls.iter().sum();
    let on = render_matrix(1);
    ffs_telemetry::flush_thread();
    let calls_after: u64 = ffs_telemetry::snapshot().calls.iter().sum();
    assert_eq!(off, on, "telemetry on/off must be byte-identical");
    assert!(
        calls_after > calls_before,
        "the profiled sweep must record spans ({calls_before} -> {calls_after})"
    );
}

// ---------------------------------------------------------------------
// Golden captures taken before the engine/policy refactor, when FluidFaaS
// and each baseline still ran its own monolithic event loop. Every later
// refactor must reproduce these byte-for-byte: float metrics are compared
// as raw bit patterns, so even sub-ulp drift fails.
// ---------------------------------------------------------------------

/// One run per `SystemKind` per workload class (the `exp_all` sweep shape).
fn render_systems_golden() -> String {
    let mut s = String::new();
    for workload in [
        WorkloadClass::Light,
        WorkloadClass::Medium,
        WorkloadClass::Heavy,
    ] {
        for system in SystemKind::ALL {
            let out = run_workload(system, workload, SECS, SEED);
            let completed = out
                .log
                .records()
                .iter()
                .filter(|r| r.completed.is_some())
                .count();
            s.push_str(&format!(
                "{} {} n={} hit={:016x} thr={:016x} gpu={:016x} mig={:016x}\n",
                workload.name(),
                system.name(),
                completed,
                out.log.slo_hit_rate().to_bits(),
                out.throughput_rps().to_bits(),
                out.cost.total_gpu_time_secs().to_bits(),
                out.cost.total_mig_time_secs().to_bits(),
            ));
        }
    }
    s
}

/// Every `exp_ablation` arm (policy substitutions post-refactor).
fn render_ablation_golden() -> String {
    let rows = ffs_experiments::ablation::run(SECS, SEED);
    let mut s = String::new();
    for r in &rows {
        s.push_str(&format!(
            "{} hit={:016x} thr={:016x} p95={:016x}\n",
            r.arm,
            r.slo_hit_rate.to_bits(),
            r.throughput_rps.to_bits(),
            r.p95_ms.to_bits(),
        ));
    }
    s
}

/// Prints the current golden strings (run with `--ignored --nocapture` to
/// regenerate the constants below after an *intentional* behaviour change).
#[test]
#[ignore = "golden regeneration helper"]
fn print_golden() {
    println!("=== systems ===\n{}", render_systems_golden());
    println!("=== ablation ===\n{}", render_ablation_golden());
}

const SYSTEMS_GOLDEN: &str = "\
light INFless n=1382 hit=3feaf9b3ae7eb40d thr=402eb60b60b60b61 gpu=4096400000000000 mig=40b07c0000000000
light ESG n=1382 hit=3fe9727a41f1ebff thr=402eb60b60b60b61 gpu=4096300000000000 mig=40b0800000000000
light FluidFaaS n=1382 hit=3fea832628c0a5f9 thr=402eb60b60b60b61 gpu=40962bbe0e30446c mig=40b08bec4806290f
medium INFless n=1000 hit=3fe2978d4fdf3b64 thr=402638e38e38e38e gpu=4096400000000000 mig=40a6180000000000
medium ESG n=1000 hit=3fe55810624dd2f2 thr=402638e38e38e38e gpu=4096300000000000 mig=40a6200000000000
medium FluidFaaS n=1000 hit=3fe7ef9db22d0e56 thr=402638e38e38e38e gpu=40963ba3ad5bee3d mig=40afc7c8c9b84556
heavy INFless n=649 hit=3fb35404bbc27720 thr=401cd82d82d82d83 gpu=4096300000000000 mig=4096300000000000
heavy ESG n=649 hit=3fb35404bbc27720 thr=401cd82d82d82d83 gpu=4096300000000000 mig=4096300000000000
heavy FluidFaaS n=649 hit=3fda08ad8f2fba94 thr=401cd82d82d82d83 gpu=4096478b6b2af145 mig=40aba3c5b59578a3
";

const ABLATION_GOLDEN: &str = "\
full hit=3fda08ad8f2fba94 thr=401cd82d82d82d83 p95=40b1f2e5e353f7cf
no-cv-ranking hit=3fd90c3a6109128a thr=401cd82d82d82d83 p95=40b1f2e5e353f7cf
no-time-sharing hit=3fd88e00c9f5be85 thr=401cd82d82d82d83 p95=40b366d26e978d4f
no-migration hit=3fda08ad8f2fba94 thr=401cd82d82d82d83 p95=40b1f2e5e353f7cf
erlang-c-scaling hit=3fd93eb7d0aa6759 thr=401cd82d82d82d83 p95=40b38a922d0e5604
transfer-x2 hit=3fdab96495e46367 thr=401cd82d82d82d83 p95=40b1ff64dd2f1aa0
transfer-x4 hit=3fdb50dce4c861d3 thr=401cd82d82d82d83 p95=40b21585a1cac083
";

/// Cross-policy determinism: each `SystemKind` on the shared engine must
/// produce `RunOutput` byte-identical to the pre-refactor capture.
#[test]
fn engine_output_matches_pre_refactor_golden() {
    assert_eq!(render_systems_golden(), SYSTEMS_GOLDEN);
}

/// Each ablation arm, expressed as a policy substitution, must reproduce
/// the config-boolean arm it replaced.
#[test]
fn ablation_arms_match_pre_refactor_golden() {
    assert_eq!(render_ablation_golden(), ABLATION_GOLDEN);
}

// ---------------------------------------------------------------------
// Fault-injection determinism: with `ffs-chaos` armed, output is a pure
// function of (run seed, FaultSpec) — not of wall clock, thread count, or
// ambient state.
// ---------------------------------------------------------------------

/// Renders one faulted run of every system to an exact byte string,
/// including the fault counters (which a fault-free run would zero out).
fn render_faulted(fault_seed: u64, mtbf_secs: f64) -> String {
    use ffs_experiments::runner::{run_system, shared_workload_trace};
    let trace = shared_workload_trace(WorkloadClass::Medium, SECS, SEED);
    let mut s = String::new();
    for system in SystemKind::ALL {
        let mut cfg = fluidfaas::FfsConfig::paper_default(WorkloadClass::Medium);
        cfg.faults = fluidfaas::FaultSpec::slice_faults(fault_seed, mtbf_secs);
        let out = run_system(system, cfg, &trace);
        s.push_str(&format!(
            "{} hit={:016x} thr={:016x} gpu={:016x} fail={} retry={} rec={}\n",
            system.name(),
            out.log.slo_hit_rate().to_bits(),
            out.throughput_rps().to_bits(),
            out.cost.total_gpu_time_secs().to_bits(),
            out.faults.slice_failures,
            out.faults.retries,
            out.faults.recoveries,
        ));
    }
    s
}

/// With faults armed, repeated runs with the same (run seed, FaultSpec)
/// must be bit-identical, and a different fault seed must actually change
/// the outcome (the spec is live, not ignored).
#[test]
fn faulted_output_is_a_pure_function_of_seed_and_spec() {
    let a = render_faulted(9, 45.0);
    let b = render_faulted(9, 45.0);
    assert_eq!(
        a, b,
        "same (seed, FaultSpec) must reproduce bit-identically"
    );
    assert!(
        a.contains("fail="),
        "render must include fault counters: {a}"
    );
    let c = render_faulted(10, 45.0);
    assert_ne!(a, c, "a different fault seed must change the outcome");
}
