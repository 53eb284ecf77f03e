//! # The repository benchmark
//!
//! ```text
//! benchmark run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! benchmark spec                       # prints BENCHMARK.json (layer map on stderr)
//! benchmark compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! From the repository root: `cargo run --release --offline --quiet
//! --manifest-path benchmark/Cargo.toml -- run --workload paper_sweep`.
//! The last stdout line is one JSON object (`correct`, `attempted`,
//! `failed`, `metrics`); stderr carries a table with quartiles and counts.
//!
//! ## What a run does
//!
//! All in one process, in this order:
//! 1. builds the workload's inputs from `--seed` (default 1), five times
//!    from scratch, timing each build for `setup_s`;
//! 2. one checked pass: every run's log must hold each invocation exactly
//!    once, and its `run_output_digest` becomes the reference;
//! 3. timed passes with the engine's profiler off, for `--seconds`
//!    (default 10, at least three passes), every run's digest checked
//!    against the reference outside the timed region;
//! 4. with `--trace 1`, one traced pass and three profiled passes, then
//!    the per-layer metrics are printed instead of the end-to-end ones.
//!
//! Every simulation run is one operation; a run that panics, errors, or
//! reproduces a different digest (across passes, traced vs untraced, or
//! 2 lanes vs 1) counts as failed. Runs are closed-loop: one simulation
//! after another, on one thread, except the sharded workload's lanes.
//!
//! ## Workloads and why
//!
//! | workload | runs | why |
//! |---|---|---|
//! | `paper_sweep` | `exp_all`'s 78 simulations, 300 s traces | The headline: every layer in the paper's proportions. Its many short runs make per-run engine set-up count, and identical (system, trace, config) specs repeat up to 5× (a run-memoising harness would gain here only). |
//! | `saturated_backlog` | INFless, ESG, FluidFaaS × saturating Medium and Heavy, 1200 s | Queues reach 10⁵ requests and most never finish: routing, overflow, shared-pool decisions, stage/transfer handlers and `finalize` over huge logs dominate; set-up is amortised. |
//! | `light_diurnal` | INFless, ESG, FluidFaaS × Light bursty, 3600 s | Nearly every arrival finds a warm instance: handlers are cheapest and the event loop is a large share, so a timer-wheel change shows most here and a routing change least. |
//! | `fleet1024_sharded` | `run_sharded_fluid`, 1024 GPUs, 64 cells, 65,536 functions, 60 s | The only sharded and multi-core workload: epoch barriers, cell imbalance, per-cell set-up, the most placements and plan-cache misses, the largest footprint. Timed as interleaved pairs: `min(2, nproc)` lanes, then 1 lane. |
//!
//! ## End-to-end metrics
//!
//! Each must hold steady across seeds, since a change is judged on the
//! medians of runs at different seeds, and none may be 0. That shaped
//! them:
//!
//! - `requests_per_s`: trace invocations replayed per second, the median
//!   over the timed passes (on the sharded workload, at `min(2, nproc)`
//!   lanes), with the engine's profiler off. It is runs/s times the
//!   invocations per run, because trace size moves with the seed (the
//!   Light trace's by ±15%) and runs/s would move with it. Pass times are
//!   stated at reference speed (see [`speed`]): shared VMs change speed by
//!   up to 1.7× for seconds at a time.
//! - `setup_s`: the median of the five input builds.
//! - `peak_rss_per_invocation`: the peak RSS after the checked pass (the
//!   inputs plus one full pass) per synthesized invocation. The
//!   high-water mark at exit swings by 15% with allocator fragmentation
//!   across repeated passes, and the raw peak scales with trace size.
//! - `completed_frac`, `p50_latency_ms`, `p99_latency_ms`: simulated
//!   outcomes of every paper-FluidFaaS run of the checked pass, pooled
//!   over all their requests. They are exact for a seed; their bounds
//!   cover how far they move between seeds. SLO attainment is 0 under
//!   saturation, throughput only mirrors an unsaturated trace's offered
//!   load, and GPU time per request moves ~10% with the seed, so those
//!   are layer metrics (`metrics.slo_attainment`,
//!   `metrics.throughput_rps`, `metrics.gpu_s_per_req`).
//!
//! Profiled throughput is deliberately not end-to-end: the engine's
//! always-on phase profiler costs a large share of the run and repeats
//! only to within about 20%, so it is reported as
//! `telemetry.profiled_runs_per_s` with its overhead next to it.
//!
//! ## Layers
//!
//! Layers are measured from outside, in the traced pass, by timing calls
//! into public functions (see [`probe`]): a `Traced` engine that forwards
//! only `World::handle` (one span per `Event` variant) and a timing
//! decorator on every `PolicyBundle` member. Self time subtracts nested
//! spans and the cost of opening them. `benchmark spec` prints the layer
//! map: which end-to-end metric each layer metric should move, and where
//! the layer does the most and the least work. On the sharded workload
//! the engine builds its own cells, so only the policies are traced there;
//! its handler and loop metrics read 0, as do the `sharded.*` metrics of
//! the single-engine workloads. `engine.setup_us` there is the span from
//! the first cell's policy bundle to the first policy call, per cell.
//! `traced.reconcile_frac` is the traced pass's wall less its spans'
//! calibrated cost, over the untraced pass wall on one lane: near 1 when
//! the span cost explains the tracing overhead. `paper_claims_held` (the
//! 11 shape checks of `exp_report`, run after all timing) is measured on
//! `paper_sweep` only; it is not end-to-end because three of seeds 1-20
//! hold only 9 or 10 of the claims.
//!
//! ## Noise, and how to A/B a change
//!
//! On a shared 2-vCPU Xeon KVM guest, two sets of ten runs at ten seeds
//! each gave these interquartile ranges, as a share of the median (the
//! bounds are at least three times the widest):
//!
//! | metric | paper_sweep | saturated_backlog | light_diurnal | fleet1024_sharded |
//! |---|---|---|---|---|
//! | `requests_per_s` | 2.2–3.6% | 2.6–3.6% | 1.0–1.9% | 2.8–6.0% |
//! | `setup_s` | 9.8–12% | 4.2–9.2% | 3.1–10% | 6.1–10% |
//! | `peak_rss_per_invocation` | 2.0–2.4% | 0.2–0.3% | 2.8–3.3% | 0.4–0.6% |
//! | `completed_frac` | 3.2–3.9% | 0.2–0.3% | 0 | 0.1–0.2% |
//! | `p50_latency_ms` | 5.3–8.2% | 0.2% | 5.1–7.6% | 0.8–1.6% |
//! | `p99_latency_ms` | 0.4% | 0.1–0.2% | 0.2–0.3% | 0.3–0.4% |
//!
//! The simulated metrics move only with the seed. Before pass times were
//! put at reference speed and summarised by their upper quartile, the
//! throughput spread of the same runs reached 12–22% in noisy hours.
//!
//! To compare a change with its parent, build both, then run at least ten
//! alternating pairs, each side appending to its own file, and compare:
//!
//! ```text
//! for seed in 1 2 3 4 5 6 7 8 9 10; do
//!   parent/benchmark run --workload paper_sweep --seed $seed --out parent.jsonl
//!   change/benchmark run --workload paper_sweep --seed $seed --out change.jsonl
//! done   # alternate which side goes first on every other seed
//! benchmark compare parent.jsonl change.jsonl
//! ```
//!
//! `--out` appends and never truncates; each record is stamped with the
//! commit, `nproc`, seed, lanes, pass count and any `FFS_*` variables.

mod compare;
mod json;
mod measure;
mod probe;
mod results;
mod spec;
mod speed;
mod stats;
mod workloads;

use std::process::ExitCode;

use measure::Options;
use workloads::Workload;

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage:\n  benchmark run --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n  benchmark spec\n  benchmark compare PARENT.jsonl CHANGE.jsonl",
        names.join("|")
    )
}

/// Parses `run`'s arguments.
fn parse_run(args: &[String]) -> Result<(Options, Option<String>), String> {
    let mut workload = None;
    let mut opts = Options {
        workload: Workload::PaperSweep,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
    };
    let mut out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                opts.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer")?
            }
            "--seconds" => {
                opts.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => out = Some(value()?.clone()),
            name if !name.starts_with('-') && workload.is_none() => {
                workload = Some(name.to_string())
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let name = workload.ok_or("no workload given")?;
    opts.workload =
        Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    Ok((opts, out))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|(opts, out)| run(&opts, out.as_deref())),
        Some("spec") => {
            eprint!("{}", spec::layer_map());
            print!("{}", spec::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") if args.len() == 3 => {
            compare::compare(&args[1], &args[2]).map(|(report, regressed)| {
                print!("{report}");
                if regressed {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            })
        }
        _ => Err(usage()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}

fn run(opts: &Options, out: Option<&str>) -> Result<ExitCode, String> {
    let m = measure::run(opts);
    let values = if opts.trace {
        results::per_layer(&m)
    } else {
        results::end_to_end(&m)
    };
    eprint!("{}", results::table(opts, &m, &values));
    if let Some(path) = out {
        results::append_record(path, opts, &m, &values).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", results::result_line(&m, &values));
    Ok(ExitCode::SUCCESS)
}
