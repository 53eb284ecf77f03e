//! Scale sweep: thousand-GPU fleets on the sharded engine, each fleet
//! run three times at 1 lane and at `FFS_SHARDS` lanes with a digest
//! cross-check; each row reports its arm's median run.
//! Writes the harness summary (with a `"scale"` section) to
//! `BENCH_scale.json` (`BENCH_harness.json` belongs to `exp_all`'s sweep).
use std::path::Path;
use std::time::Instant;

use ffs_experiments::parallel;
use ffs_experiments::runner::experiment_seed;
use ffs_experiments::scale;

fn main() {
    ffs_experiments::init_trace_cli();
    let secs = scale::scale_secs();
    let seed = experiment_seed();
    let started = Instant::now();
    println!(
        "FluidFaaS scale sweep — sharded engine ({secs}s traces, seed {seed}, {} lanes)\n",
        parallel::shards()
    );
    let summary = scale::run_sweep(secs, seed);
    println!("== Scale ==\n{}", scale::render(&summary));

    let mut report = parallel::bench_report(started.elapsed().as_secs_f64());
    report.scale = Some(summary);
    eprintln!(
        "harness: {} runs in {:.1}s wall ({:.2} runs/s)",
        report.runs, report.total_secs, report.runs_per_sec
    );
    eprintln!(
        "harness: {} events executed ({:.0} events/s)",
        report.events, report.events_per_sec
    );
    eprint!("harness: {}", parallel::render_phase_table(&report));
    match parallel::write_bench_json(Path::new("BENCH_scale.json"), &report) {
        Ok(()) => eprintln!("harness: wrote BENCH_scale.json"),
        Err(e) => eprintln!("harness: could not write BENCH_scale.json: {e}"),
    }
    if report.scale.as_ref().is_some_and(|s| s.cross_check != "ok") {
        eprintln!("harness: ERROR: lane-count digest cross-check failed");
        std::process::exit(1);
    }
    // The sweep's memory budget is part of its contract: the biggest fleet
    // must still fit in 2 GiB. (An 80% warning already fired mid-sweep if
    // the rows were drifting close — see scale::warn_if_rss_high.)
    let peak_kb = scale::peak_rss_kb();
    if peak_kb > scale::RSS_CEILING_KB {
        eprintln!(
            "harness: ERROR: peak RSS {:.1} MiB exceeds the {} MiB ceiling",
            peak_kb as f64 / 1024.0,
            scale::RSS_CEILING_KB / 1024,
        );
        std::process::exit(1);
    }
}
