//! Replay a real-format Azure Functions trace file against the platform.
//!
//! Pass a CSV in the Azure Functions 2019 dataset format
//! (`HashOwner,HashApp,HashFunction,Trigger,1,2,...,1440`); without an
//! argument, an embedded 10-minute sample demonstrates the path.
//!
//! ```sh
//! cargo run --release --example azure_replay -- path/to/invocations.csv
//! ```

use fluidfaas_repro::fluidfaas::platform::runner::run_platform;
use fluidfaas_repro::fluidfaas::{paper_policies, Engine, FfsConfig};
use fluidfaas_repro::profile::App;
use fluidfaas_repro::trace::{parse_csv, to_trace, WorkloadClass};

/// A miniature sample in the dataset's format: four functions with bursty
/// per-minute counts over 10 minutes.
const SAMPLE: &str = "\
HashOwner,HashApp,HashFunction,Trigger,1,2,3,4,5,6,7,8,9,10
o1,appA,f1,http,180,220,160,500,640,520,140,180,200,160
o2,appB,f2,http,120,140,100,130,420,380,360,110,90,120
o3,appC,f3,queue,80,60,90,70,100,260,300,280,70,60
o4,appD,f4,timer,60,60,60,60,60,60,60,60,60,60
";

fn main() {
    let content = match std::env::args().nth(1) {
        Some(path) => std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}; using the embedded sample");
            SAMPLE.to_string()
        }),
        None => SAMPLE.to_string(),
    };

    let rows = parse_csv(&content).expect("valid Azure-format CSV");
    let total: u64 = rows.iter().map(|r| r.total()).sum();
    let minutes = rows
        .iter()
        .map(|r| r.per_minute.len())
        .max()
        .unwrap_or(0)
        .min(10);
    println!(
        "loaded {} functions, {total} invocations; replaying the first {minutes} minutes",
        rows.len()
    );

    // Map trace functions round-robin onto the paper's light-workload apps.
    let apps: Vec<App> = WorkloadClass::Light.apps();
    let trace = to_trace(&rows, &apps, minutes, 42);
    println!(
        "trace: {} invocations over {}, mean rate {:.1} req/s",
        trace.len(),
        trace.duration,
        trace.mean_rate()
    );

    let cfg = FfsConfig::paper_default(WorkloadClass::Light);
    let policies = paper_policies(&cfg);
    let mut engine = Engine::new(cfg, policies, &trace).expect("valid setup");
    let out = run_platform(&mut engine, &trace);
    let cdf = out.latency_cdf();
    println!(
        "\nFluidFaaS served the trace: SLO hit rate {:.1}%, p50 {:.0} ms, p95 {:.0} ms",
        out.log.slo_hit_rate() * 100.0,
        cdf.p50().unwrap_or(0.0),
        cdf.p95().unwrap_or(0.0),
    );
    println!("scheduler activity: {:?}", engine.core.sched_log);
}
