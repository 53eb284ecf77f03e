//! Scratch diagnostics for baseline tuning (not a shipped example).
use ffs_baselines::{baseline_policies, BaselineKind};
use ffs_trace::{AzureTraceConfig, WorkloadClass};
use fluidfaas::platform::runner::run_platform;
use fluidfaas::{Engine, FfsConfig};

fn main() {
    let secs: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(300.0);
    for wl in [
        WorkloadClass::Light,
        WorkloadClass::Medium,
        WorkloadClass::Heavy,
    ] {
        for kind in [BaselineKind::Esg, BaselineKind::Infless] {
            let cfg = FfsConfig::paper_default(wl);
            let trace = AzureTraceConfig::for_workload(wl, secs, 1).generate();
            let mut engine =
                Engine::new(cfg, baseline_policies(kind), &trace).expect("valid setup");
            let out = run_platform(&mut engine, &trace);
            println!(
                "{:8} {:8} hit={:.3} thr={:.1} p95={:.0} gpu_t={:.0} mig_t={:.0}",
                wl.name(),
                kind.name(),
                out.log.slo_hit_rate(),
                out.throughput_rps(),
                out.latency_cdf().p95().unwrap_or(0.0),
                out.cost.total_gpu_time_secs(),
                out.cost.total_mig_time_secs()
            );
        }
    }
}
