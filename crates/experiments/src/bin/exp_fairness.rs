//! Fairness comparison: INFless / ESG / FluidFaaS across the three
//! multi-tenant scenarios (noisy neighbor, adversarial burst, mixed SLO
//! classes).
//!
//! Prints the aggregate and per-tenant fairness tables, and records one
//! row per cell in `BENCH_fairness.json` (`BENCH_harness.json` belongs to
//! `exp_all`'s sweep), which the `fairness-smoke` CI job checks.
use std::path::Path;
use std::time::Instant;

use ffs_experiments::parallel;
use ffs_experiments::runner::{experiment_secs, experiment_seed};

fn main() {
    ffs_experiments::init_trace_cli();
    let secs = experiment_secs();
    let seed = experiment_seed();
    let started = Instant::now();
    println!(
        "FluidFaaS fairness sweep ({secs}s traces, seed {seed}, {} threads)\n",
        parallel::threads()
    );
    let cells = ffs_experiments::fairness::run(secs, seed);
    println!(
        "== Fairness ==\n{}",
        ffs_experiments::fairness::render(&cells)
    );
    println!(
        "== Fairness (per tenant) ==\n{}",
        ffs_experiments::fairness::render_detail(&cells)
    );
    let mut report = parallel::bench_report(started.elapsed().as_secs_f64());
    report.fairness = Some(ffs_experiments::fairness::summarize(&cells));
    eprintln!(
        "harness: {} runs in {:.1}s wall ({:.2} runs/s, {:.1}s simulated busy, {} threads)",
        report.runs, report.total_secs, report.runs_per_sec, report.busy_secs, report.threads
    );
    match parallel::write_bench_json(Path::new("BENCH_fairness.json"), &report) {
        Ok(()) => eprintln!("harness: wrote BENCH_fairness.json"),
        Err(e) => eprintln!("harness: could not write BENCH_fairness.json: {e}"),
    }
    match ffs_telemetry::write_prometheus_file(Path::new("telemetry.prom")) {
        Ok(()) => eprintln!("harness: wrote telemetry.prom"),
        Err(e) => eprintln!("harness: could not write telemetry.prom: {e}"),
    }
}
