//! Shared experiment plumbing: pick a system, run a trace, collect output.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use ffs_baselines::{baseline_policies, BaselineKind};
use ffs_trace::{AzureTraceConfig, Trace, WorkloadClass};
use fluidfaas::platform::runner::{run_platform, RunOutput};
use fluidfaas::{paper_policies, Engine, FfsConfig, PolicyBundle};

/// Key of one generated trace: workload, duration bits, seed, and whether
/// it is the saturating (steady) variant.
type TraceKey = (WorkloadClass, u64, u64, bool);

fn trace_cache() -> &'static Mutex<HashMap<TraceKey, Arc<Trace>>> {
    static CACHE: OnceLock<Mutex<HashMap<TraceKey, Arc<Trace>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The bursty Azure-style trace for `(workload, duration, seed)`,
/// generated once and shared (the three systems — and every parallel
/// worker — replay the identical trace, as the paper's comparisons
/// require).
pub fn shared_workload_trace(workload: WorkloadClass, duration_secs: f64, seed: u64) -> Arc<Trace> {
    let key = (workload, duration_secs.to_bits(), seed, false);
    let mut cache = trace_cache().lock().expect("trace cache");
    Arc::clone(cache.entry(key).or_insert_with(|| {
        let _synth = ffs_telemetry::span(ffs_telemetry::Phase::TraceSynth);
        Arc::new(AzureTraceConfig::for_workload(workload, duration_secs, seed).generate())
    }))
}

/// The saturating trace for `(workload, duration, seed)`, generated once
/// and shared like [`shared_workload_trace`].
pub fn shared_saturating_trace(
    workload: WorkloadClass,
    duration_secs: f64,
    seed: u64,
) -> Arc<Trace> {
    let key = (workload, duration_secs.to_bits(), seed, true);
    let mut cache = trace_cache().lock().expect("trace cache");
    Arc::clone(cache.entry(key).or_insert_with(|| {
        let _synth = ffs_telemetry::span(ffs_telemetry::Phase::TraceSynth);
        Arc::new(generate_saturating(workload, duration_secs, seed))
    }))
}

/// The three systems the paper evaluates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SystemKind {
    /// This paper's system.
    FluidFaaS,
    /// The state-of-the-art baseline (HPDC'24).
    Esg,
    /// INFless with MIG support (§6).
    Infless,
}

impl SystemKind {
    /// All systems, baseline-first (the order the paper's tables use is
    /// INF, ESG, Fluid).
    pub const ALL: [SystemKind; 3] = [SystemKind::Infless, SystemKind::Esg, SystemKind::FluidFaaS];

    /// Display name.
    pub const fn name(self) -> &'static str {
        match self {
            SystemKind::FluidFaaS => "FluidFaaS",
            SystemKind::Esg => "ESG",
            SystemKind::Infless => "INFless",
        }
    }

    /// The policy bundle this system runs on the shared engine.
    pub fn policies(self, cfg: &FfsConfig) -> PolicyBundle {
        match self {
            SystemKind::FluidFaaS => paper_policies(cfg),
            SystemKind::Esg => baseline_policies(BaselineKind::Esg),
            SystemKind::Infless => baseline_policies(BaselineKind::Infless),
        }
    }
}

/// Runs `kind` over `trace` with the given config. When tracing is active
/// (`FFS_TRACE` / `--trace`), the run records into a fresh thread-local
/// recorder and exports its JSONL + Chrome trace artifacts on completion.
pub fn run_system(kind: SystemKind, cfg: FfsConfig, trace: &Trace) -> RunOutput {
    let _trace = crate::trace_out::RunTrace::begin(kind.name());
    let policies = kind.policies(&cfg);
    run_engine(kind, cfg, policies, trace)
}

/// Builds the shared engine with `policies` and drives it through `trace`.
fn run_engine(
    kind: SystemKind,
    cfg: FfsConfig,
    policies: PolicyBundle,
    trace: &Trace,
) -> RunOutput {
    let mut engine = Engine::new(cfg, policies, trace)
        .unwrap_or_else(|e| panic!("invalid {} setup: {e}", kind.name()));
    run_platform(&mut engine, trace)
}

/// Runs the FluidFaaS engine with an explicit policy bundle (the ablation
/// path: arms substitute policies instead of toggling config flags). Trace
/// artifacts are recorded exactly as for [`run_system`].
pub fn run_fluid_with(cfg: FfsConfig, policies: PolicyBundle, trace: &Trace) -> RunOutput {
    let _trace = crate::trace_out::RunTrace::begin(SystemKind::FluidFaaS.name());
    run_engine(SystemKind::FluidFaaS, cfg, policies, trace)
}

/// Runs a system on the paper-default fleet with the bursty Azure-style
/// trace for a workload class.
pub fn run_workload(
    kind: SystemKind,
    workload: WorkloadClass,
    duration_secs: f64,
    seed: u64,
) -> RunOutput {
    let cfg = FfsConfig::paper_default(workload);
    let trace = shared_workload_trace(workload, duration_secs, seed);
    run_system(kind, cfg, &trace)
}

/// A steady trace that saturates every system (offered load well above the
/// richest system's capacity). Under saturation, measured throughput equals
/// sustainable service rate — this is the regime the paper's throughput
/// figures (10 and 15) compare, where FluidFaaS's extra usable GPCs turn
/// directly into completions.
pub fn saturating_trace(workload: WorkloadClass, duration_secs: f64, seed: u64) -> Trace {
    generate_saturating(workload, duration_secs, seed)
}

fn generate_saturating(workload: WorkloadClass, duration_secs: f64, seed: u64) -> Trace {
    // 60 req/s per app saturates all systems for every workload class on
    // the 16-GPU fleet (the richest capacity is < 120 req/s total).
    AzureTraceConfig::steady(workload.apps(), duration_secs, 60.0, seed).generate()
}

/// The default experiment duration (seconds); override with the
/// `FFS_EXP_SECS` environment variable.
pub fn experiment_secs() -> f64 {
    crate::parallel::parse_env_or_warn(
        "FFS_EXP_SECS",
        "a positive number of seconds",
        |&s: &f64| s.is_finite() && s > 0.0,
    )
    .unwrap_or(300.0)
}

/// The default experiment seed; override with `FFS_EXP_SEED`.
pub fn experiment_seed() -> u64 {
    crate::parallel::parse_env_or_warn("FFS_EXP_SEED", "an unsigned integer", |_: &u64| true)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_systems_run_a_short_trace() {
        for kind in SystemKind::ALL {
            let out = run_workload(kind, WorkloadClass::Light, 20.0, 3);
            assert!(!out.log.is_empty(), "{}", kind.name());
        }
    }

    #[test]
    fn saturating_trace_is_heavy_enough() {
        let t = saturating_trace(WorkloadClass::Heavy, 30.0, 1);
        assert!(t.mean_rate() > 150.0, "rate {}", t.mean_rate());
    }
}
