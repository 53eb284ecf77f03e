//! Parallel experiment harness: fan a cross-product of run specs across a
//! scoped-thread worker pool.
//!
//! Every experiment in this crate is a pure function of (config, seed), so
//! the (system × workload × seed) cross-products behind each figure and
//! table are embarrassingly parallel. [`run_matrix`] distributes specs to
//! `FFS_EXP_THREADS` workers (default: available parallelism) with an
//! atomic work index and returns results **in spec order**, so parallel
//! output is byte-identical to a sequential loop.
//!
//! The harness also keeps global wall-clock counters per run; binaries use
//! [`bench_report`]/[`write_bench_json`] to emit `BENCH_harness.json` and
//! track the perf trajectory across PRs.

use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use fluidfaas::platform::arena::ArenaStats;

static TOTAL_RUNS: AtomicU64 = AtomicU64::new(0);
static BUSY_NANOS: AtomicU64 = AtomicU64::new(0);

/// Process-wide arena totals, folded per worker stint (the arena itself
/// is thread-local). `fresh`/`reused` accumulate deltas since the
/// thread's previous fold — exact across any number of stints, and a
/// final fold on the reporting thread picks up runs executed outside
/// `run_matrix` (e.g. fig3's single direct run). The per-slot pooled
/// capacity is last-writer (a level, not a counter), summed for the
/// report.
static ARENA_FRESH: AtomicU64 = AtomicU64::new(0);
static ARENA_REUSED: AtomicU64 = AtomicU64::new(0);
static ARENA_POOLED: Mutex<Vec<u64>> = Mutex::new(Vec::new());

thread_local! {
    /// What this thread last folded into the process totals.
    static ARENA_FOLDED: std::cell::Cell<ArenaStats> =
        const {
            std::cell::Cell::new(ArenaStats {
                fresh: 0,
                reused: 0,
                logs_fresh: 0,
                logs_reused: 0,
            })
        };
}

/// Folds this thread's arena activity since its previous fold into the
/// process totals, and records its pooled capacity under `slot`.
fn fold_arena(slot: usize) {
    let now = fluidfaas::platform::arena::arena_stats();
    let last = ARENA_FOLDED.with(|c| c.replace(now));
    ARENA_FRESH.fetch_add(now.fresh - last.fresh, Ordering::Relaxed);
    ARENA_REUSED.fetch_add(now.reused - last.reused, Ordering::Relaxed);
    let pooled = fluidfaas::platform::arena::pooled_capacity() as u64;
    let mut caps = ARENA_POOLED.lock().expect("arena counters poisoned");
    if caps.len() <= slot {
        caps.resize(slot + 1, 0);
    }
    caps[slot] = pooled;
}

/// Per-worker-slot totals across every `run_matrix` call so far. Slot `i`
/// aggregates worker `i` of each parallel section (the sequential path is
/// slot 0), exposing per-worker skew: with an atomic work index, a slot
/// that reports far fewer events/s than its peers points at stragglers or
/// an unlucky spec mix, not at harness overhead.
static PER_THREAD: Mutex<Vec<ThreadLoad>> = Mutex::new(Vec::new());

/// What one worker slot did, accumulated across sections.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ThreadLoad {
    /// Simulation runs this slot executed.
    pub runs: u64,
    /// Simulation events this slot executed (thread-local counter deltas).
    pub events: u64,
    /// Wall-clock the slot spent inside its work loop, in nanoseconds.
    pub busy_nanos: u64,
}

impl ThreadLoad {
    /// Busy time in seconds.
    pub fn busy_secs(&self) -> f64 {
        self.busy_nanos as f64 / 1e9
    }

    /// Events per second of this slot's own busy time.
    pub fn events_per_sec(&self) -> f64 {
        if self.busy_nanos == 0 {
            0.0
        } else {
            self.events as f64 / self.busy_secs()
        }
    }
}

/// Folds one worker stint into its slot's running totals, merges the
/// thread's telemetry accumulators into the process-wide profile, and
/// folds the thread-local arena counters into the process totals.
fn note_thread(slot: usize, runs: u64, events: u64, busy_nanos: u64) {
    ffs_telemetry::flush_thread();
    fold_arena(slot);
    let mut loads = PER_THREAD.lock().expect("per-thread counters poisoned");
    if loads.len() <= slot {
        loads.resize(slot + 1, ThreadLoad::default());
    }
    let t = &mut loads[slot];
    t.runs += runs;
    t.events += events;
    t.busy_nanos += busy_nanos;
}

/// Snapshot of the per-worker-slot totals so far.
pub fn thread_loads() -> Vec<ThreadLoad> {
    PER_THREAD
        .lock()
        .expect("per-thread counters poisoned")
        .clone()
}

/// Environment variables a bad value has already been warned about, so a
/// knob consulted on every `run_matrix` call complains exactly once.
static ENV_WARNED: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Emits the one-shot stderr warning for a garbage environment value.
/// Public so knobs with bespoke parsing (e.g. the comma-separated
/// `FFS_SCALE_GPUS` list) share the same warn-once bookkeeping.
pub fn warn_env_once(var: &str, raw: &str, expected: &str) {
    let mut warned = ENV_WARNED.lock().expect("env warning state poisoned");
    if !warned.iter().any(|v| v == var) {
        warned.push(var.to_string());
        eprintln!("harness: WARNING: ignoring unparsable {var}={raw:?}; expected {expected}");
    }
}

/// Reads `var` from the environment and parses it as `T`. Unset returns
/// `None` silently; a set-but-unparsable value — or one `valid` rejects —
/// returns `None` after a one-shot stderr warning naming the variable,
/// the bad value and `expected`. Every `FFS_*` knob goes through this: a
/// silently ignored `FFS_EXP_THREADS=max` cost real debugging time, and
/// the other knobs used to fall back on garbage without a word.
pub fn parse_env_or_warn<T: std::str::FromStr>(
    var: &str,
    expected: &str,
    valid: impl Fn(&T) -> bool,
) -> Option<T> {
    let raw = std::env::var(var).ok()?;
    match raw.parse::<T>() {
        Ok(v) if valid(&v) => Some(v),
        _ => {
            warn_env_once(var, &raw, expected);
            None
        }
    }
}

/// Reads a positive integer from the environment, with the
/// [`parse_env_or_warn`] warning treatment.
fn parse_env_count(var: &str) -> Option<usize> {
    parse_env_or_warn(var, "a positive integer", |&n: &usize| n >= 1)
}

/// Worker count: `FFS_EXP_THREADS` if set to a positive integer (with a
/// one-shot warning for garbage values), else the machine's available
/// parallelism.
pub fn threads() -> usize {
    parse_env_count("FFS_EXP_THREADS").unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Lane count for sharded scale runs: `FFS_SHARDS` if set to a positive
/// integer (same one-shot warning treatment), else 4.
pub fn shards() -> usize {
    parse_env_count("FFS_SHARDS").unwrap_or(4)
}

/// Runs `f` over every spec on [`threads()`] workers; results come back in
/// spec order regardless of completion order.
pub fn run_matrix<S, R, F>(specs: &[S], f: F) -> Vec<R>
where
    S: Sync,
    R: Send,
    F: Fn(&S) -> R + Sync,
{
    run_matrix_with_threads(specs, threads(), f)
}

/// [`run_matrix`] with an explicit worker count (the determinism tests
/// compare worker counts directly, without touching the environment).
pub fn run_matrix_with_threads<S, R, F>(specs: &[S], workers: usize, f: F) -> Vec<R>
where
    S: Sync,
    R: Send,
    F: Fn(&S) -> R + Sync,
{
    let timed = |spec: &S| {
        let start = Instant::now();
        let result = {
            // Root telemetry span: everything a run does that is not
            // claimed by a more specific phase lands in RunOther, so the
            // per-phase self-times sum to (almost exactly) busy time.
            let _run = ffs_telemetry::span(ffs_telemetry::Phase::RunOther);
            f(spec)
        };
        BUSY_NANOS.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        TOTAL_RUNS.fetch_add(1, Ordering::Relaxed);
        result
    };
    let workers = workers.clamp(1, specs.len().max(1));
    if workers == 1 {
        let events_before = ffs_sim::thread_executed_events();
        let start = Instant::now();
        let out: Vec<R> = specs.iter().map(timed).collect();
        note_thread(
            0,
            specs.len() as u64,
            ffs_sim::thread_executed_events() - events_before,
            start.elapsed().as_nanos() as u64,
        );
        return out;
    }
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(specs.len());
    std::thread::scope(|scope| {
        let next = &next;
        let timed = &timed;
        let handles: Vec<_> = (0..workers)
            .map(|slot| {
                scope.spawn(move || {
                    let events_before = ffs_sim::thread_executed_events();
                    let start = Instant::now();
                    let mut produced = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= specs.len() {
                            break;
                        }
                        produced.push((i, timed(&specs[i])));
                    }
                    note_thread(
                        slot,
                        produced.len() as u64,
                        ffs_sim::thread_executed_events() - events_before,
                        start.elapsed().as_nanos() as u64,
                    );
                    produced
                })
            })
            .collect();
        for h in handles {
            indexed.extend(h.join().expect("experiment worker panicked"));
        }
    });
    indexed.sort_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Runs one closure under full harness accounting — the `RunOther` root
/// span, the run/busy counters, and slot 0's thread load — for direct
/// runs that do not go through [`run_matrix`] (e.g. the sharded scale
/// sweep, which manages its own lane threads).
pub fn run_tracked<R>(f: impl FnOnce() -> R) -> R {
    let events_before = ffs_sim::thread_executed_events();
    let start = Instant::now();
    let result = {
        let _run = ffs_telemetry::span(ffs_telemetry::Phase::RunOther);
        f()
    };
    let elapsed = start.elapsed().as_nanos() as u64;
    BUSY_NANOS.fetch_add(elapsed, Ordering::Relaxed);
    TOTAL_RUNS.fetch_add(1, Ordering::Relaxed);
    note_thread(
        0,
        1,
        ffs_sim::thread_executed_events() - events_before,
        elapsed,
    );
    result
}

/// Total runs submitted through the harness so far (process-wide).
pub fn harness_runs() -> u64 {
    TOTAL_RUNS.load(Ordering::Relaxed)
}

/// Process-wide slab-arena totals folded from every worker stint so far.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ArenaReport {
    /// Runs that built their slab vectors from scratch.
    pub fresh: u64,
    /// Runs that reused pooled slab capacity.
    pub reused: u64,
    /// Pooled slab capacity (elements) held across all worker slots.
    pub pooled_capacity: u64,
}

impl ArenaReport {
    /// Fraction of runs that reused pooled capacity, in [0, 1].
    pub fn reuse_rate(&self) -> f64 {
        let total = self.fresh + self.reused;
        if total == 0 {
            0.0
        } else {
            self.reused as f64 / total as f64
        }
    }
}

/// Snapshot of the process-wide arena totals.
pub fn arena_report() -> ArenaReport {
    let pooled_capacity = ARENA_POOLED
        .lock()
        .expect("arena counters poisoned")
        .iter()
        .sum();
    ArenaReport {
        fresh: ARENA_FRESH.load(Ordering::Relaxed),
        reused: ARENA_REUSED.load(Ordering::Relaxed),
        pooled_capacity,
    }
}

/// One phase's merged totals, as reported in `BENCH_harness.json`.
#[derive(Clone, Debug)]
pub struct PhaseRow {
    /// Phase name (snake_case, matches the exposition labels).
    pub name: &'static str,
    /// Self-time cycles charged to the phase across all threads.
    pub cycles: u64,
    /// Spans entered.
    pub calls: u64,
    /// Self-time in seconds (cycles over the calibrated TSC rate).
    pub secs: f64,
}

impl PhaseRow {
    /// Mean self-time per span, in nanoseconds.
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.secs * 1e9 / self.calls as f64
        }
    }
}

/// Total per-run busy time (seconds, summed across workers) so far.
pub fn harness_busy_secs() -> f64 {
    BUSY_NANOS.load(Ordering::Relaxed) as f64 / 1e9
}

/// The numbers `BENCH_harness.json` records.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// End-to-end wall-clock of the measured section (seconds).
    pub total_secs: f64,
    /// Simulation runs executed through the harness.
    pub runs: u64,
    /// Runs per wall-clock second.
    pub runs_per_sec: f64,
    /// Per-run busy time summed over workers (seconds); busy/total > 1
    /// means parallelism paid off.
    pub busy_secs: f64,
    /// Worker count the harness used.
    pub threads: usize,
    /// Simulation events executed across all runs (process-wide).
    pub events: u64,
    /// Events per wall-clock second.
    pub events_per_sec: f64,
    /// FluidFaaS launch-plan cache hits accumulated across all runs.
    pub plan_cache_hits: u64,
    /// FluidFaaS launch-plan cache misses accumulated across all runs.
    pub plan_cache_misses: u64,
    /// Resilience-sweep summary, when the section ran one
    /// (`exp_all` / `exp_resilience` set it; other binaries leave `None`).
    pub resilience: Option<crate::resilience::ResilienceSummary>,
    /// Scale-sweep summary, when the section ran one (`exp_scale` sets
    /// it; other binaries leave `None`).
    pub scale: Option<crate::scale::ScaleSummary>,
    /// Multi-core probe (one sharded fleet at 1 lane vs `FFS_SHARDS`
    /// lanes), when the section ran one (`exp_all` sets it after the
    /// sequential sweep; other binaries leave `None`).
    pub multicore: Option<crate::scale::MulticoreSummary>,
    /// Fairness-sweep rows, one per (system, scenario) cell, when the
    /// section ran one (`exp_fairness` sets it; other binaries leave `None`).
    pub fairness: Option<Vec<crate::fairness::FairnessSummaryRow>>,
    /// Per-worker-slot totals (slot 0 is the sequential path), for spotting
    /// per-worker skew in the parallel harness.
    pub per_thread: Vec<ThreadLoad>,
    /// Slab-arena reuse totals across all runs.
    pub arena: ArenaReport,
    /// Per-phase self-time profile merged across all worker threads,
    /// sorted by descending cycles.
    pub phases: Vec<PhaseRow>,
    /// Calibrated TSC rate used to convert phase cycles to seconds.
    pub cycles_per_sec: f64,
}

impl BenchReport {
    /// Plan-cache hit rate in [0, 1]; 0 when no lookups happened.
    pub fn plan_cache_hit_rate(&self) -> f64 {
        let total = self.plan_cache_hits + self.plan_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.plan_cache_hits as f64 / total as f64
        }
    }

    /// Total phase self-time in seconds. With the `run_other` root span
    /// telescoping over every run, this approximates `busy_secs`.
    pub fn phase_secs(&self) -> f64 {
        self.phases.iter().map(|p| p.secs).sum()
    }

    /// Fraction of harness busy time the phase profile accounts for (the
    /// CI coverage gate asserts this stays ≥ 0.90).
    pub fn covered_busy_frac(&self) -> f64 {
        if self.busy_secs == 0.0 {
            0.0
        } else {
            self.phase_secs() / self.busy_secs
        }
    }
}

/// Builds the phase rows from the merged process-wide profile, sorted by
/// descending self-cycles (phase order breaks ties for determinism).
fn phase_rows(cycles_per_sec: f64) -> Vec<PhaseRow> {
    ffs_telemetry::flush_thread();
    let snap = ffs_telemetry::snapshot();
    let mut rows: Vec<PhaseRow> = ffs_telemetry::Phase::ALL
        .iter()
        .map(|&p| {
            let cycles = snap.cycles[p as usize];
            PhaseRow {
                name: p.name(),
                cycles,
                calls: snap.calls[p as usize],
                secs: cycles as f64 / cycles_per_sec,
            }
        })
        .collect();
    rows.sort_by(|a, b| b.cycles.cmp(&a.cycles).then_with(|| a.name.cmp(b.name)));
    rows
}

/// Builds a report for a section that took `total_secs` of wall clock.
pub fn bench_report(total_secs: f64) -> BenchReport {
    // A final fold on the reporting thread picks up runs executed outside
    // `run_matrix` (e.g. fig3's single direct `run_workload` call).
    fold_arena(0);
    let runs = harness_runs();
    let events = ffs_sim::process_executed_events();
    let (plan_cache_hits, plan_cache_misses) = fluidfaas::plancache::process_stats();
    let cycles_per_sec = ffs_telemetry::clock::cycles_per_sec();
    BenchReport {
        total_secs,
        runs,
        runs_per_sec: if total_secs > 0.0 {
            runs as f64 / total_secs
        } else {
            0.0
        },
        busy_secs: harness_busy_secs(),
        threads: threads(),
        events,
        events_per_sec: if total_secs > 0.0 {
            events as f64 / total_secs
        } else {
            0.0
        },
        plan_cache_hits,
        plan_cache_misses,
        resilience: None,
        scale: None,
        multicore: None,
        fairness: None,
        per_thread: thread_loads(),
        arena: arena_report(),
        phases: phase_rows(cycles_per_sec),
        cycles_per_sec,
    }
}

/// Renders the phase profile as a human-readable table (the stderr
/// companion of the `phase_breakdown` JSON object).
pub fn render_phase_table(report: &BenchReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "phase breakdown ({:.2} of {:.2} busy secs covered, {:.1}%):\n",
        report.phase_secs(),
        report.busy_secs,
        report.covered_busy_frac() * 100.0
    ));
    out.push_str(&format!(
        "  {:<18} {:>14} {:>12} {:>10} {:>12} {:>7}\n",
        "phase", "cycles", "calls", "secs", "ns/call", "%busy"
    ));
    for p in &report.phases {
        if p.calls == 0 && p.cycles == 0 {
            continue;
        }
        let pct = if report.busy_secs > 0.0 {
            p.secs / report.busy_secs * 100.0
        } else {
            0.0
        };
        out.push_str(&format!(
            "  {:<18} {:>14} {:>12} {:>10.3} {:>12.0} {:>6.1}%\n",
            p.name,
            p.cycles,
            p.calls,
            p.secs,
            p.ns_per_call(),
            pct
        ));
    }
    out
}

/// Writes the report as JSON.
pub fn write_bench_json(path: &Path, report: &BenchReport) -> std::io::Result<()> {
    let resilience = match &report.resilience {
        Some(r) => format!(
            ",\n  \"resilience\": {{\n    \"fault_free_metric_clamps\": {},\n    \"slice_failures\": {},\n    \"retries\": {},\n    \"recoveries\": {},\n    \"fluid_attainment_fault_free\": {:.4},\n    \"fluid_attainment_worst\": {:.4}\n  }}",
            r.fault_free_metric_clamps,
            r.slice_failures,
            r.retries,
            r.recoveries,
            r.fluid_attainment_fault_free,
            r.fluid_attainment_worst,
        ),
        None => String::new(),
    };
    let scale = match &report.scale {
        Some(s) => {
            let rows = s
                .rows
                .iter()
                .map(|r| {
                    format!(
                        "      {{ \"gpus\": {}, \"cells\": {}, \"lanes\": {}, \"functions\": {}, \"invocations\": {}, \"events\": {}, \"wall_secs\": {:.3}, \"events_per_sec\": {:.0}, \"runs_per_sec\": {:.3}, \"imbalance\": {:.4}, \"cell_events_min\": {}, \"cell_events_median\": {}, \"cell_events_max\": {}, \"busy_share\": {:.4}, \"peak_rss_kb\": {}, \"digest\": \"{:016x}\" }}",
                        r.gpus,
                        r.cells,
                        r.lanes,
                        r.functions,
                        r.invocations,
                        r.events,
                        r.wall_secs,
                        r.events_per_sec(),
                        r.runs_per_sec(),
                        r.imbalance,
                        r.cell_events[0],
                        r.cell_events[1],
                        r.cell_events[2],
                        r.busy_share,
                        r.peak_rss_kb,
                        r.digest,
                    )
                })
                .collect::<Vec<_>>()
                .join(",\n");
            format!(
                ",\n  \"scale\": {{\n    \"cross_check\": \"{}\",\n    \"rows\": [\n{}\n    ]\n  }}",
                s.cross_check, rows,
            )
        }
        None => String::new(),
    };
    let multicore = match &report.multicore {
        Some(m) => format!(
            ",\n  \"multicore\": {{\n    \"gpus\": {},\n    \"cells\": {},\n    \"lanes\": {},\n    \"events\": {},\n    \"sequential_wall_secs\": {:.3},\n    \"parallel_wall_secs\": {:.3},\n    \"sequential_events_per_sec\": {:.0},\n    \"parallel_events_per_sec\": {:.0},\n    \"speedup\": {:.2},\n    \"cross_check\": \"{}\"\n  }}",
            m.gpus,
            m.cells,
            m.lanes,
            m.events,
            m.sequential_wall_secs,
            m.parallel_wall_secs,
            m.sequential_events_per_sec,
            m.parallel_events_per_sec,
            if m.sequential_events_per_sec > 0.0 {
                m.parallel_events_per_sec / m.sequential_events_per_sec
            } else {
                0.0
            },
            m.cross_check,
        ),
        None => String::new(),
    };
    let fairness = match &report.fairness {
        Some(rows) => {
            let rows = rows
                .iter()
                .map(|r| {
                    let p99 = r
                        .tenant_p99_ms
                        .iter()
                        .map(|(t, p)| match p {
                            Some(v) => format!("\"{t}\": {v:.3}"),
                            None => format!("\"{t}\": null"),
                        })
                        .collect::<Vec<_>>()
                        .join(", ");
                    format!(
                        "      {{ \"scenario\": \"{}\", \"system\": \"{}\", \"jain_throughput\": {:.4}, \"jain_goodput\": {:.4}, \"total_goodput_rps\": {:.3}, \"worst_slo_attainment\": {:.4}, \"tenant_p99_ms\": {{ {} }} }}",
                        r.scenario, r.system, r.jain_throughput, r.jain_goodput, r.total_goodput_rps, r.worst_slo_attainment, p99,
                    )
                })
                .collect::<Vec<_>>()
                .join(",\n");
            format!(",\n  \"fairness\": {{\n    \"rows\": [\n{rows}\n    ]\n  }}")
        }
        None => String::new(),
    };
    let per_thread = report
        .per_thread
        .iter()
        .map(|t| format!("{:.0}", t.events_per_sec()))
        .collect::<Vec<_>>()
        .join(", ");
    let arena = format!(
        "{{\n    \"fresh\": {},\n    \"reused\": {},\n    \"reuse_rate\": {:.4},\n    \"pooled_capacity\": {}\n  }}",
        report.arena.fresh,
        report.arena.reused,
        report.arena.reuse_rate(),
        report.arena.pooled_capacity,
    );
    let phases = report
        .phases
        .iter()
        .map(|p| {
            let pct = if report.busy_secs > 0.0 {
                p.secs / report.busy_secs
            } else {
                0.0
            };
            format!(
                "      \"{}\": {{ \"cycles\": {}, \"calls\": {}, \"secs\": {:.4}, \"ns_per_call\": {:.1}, \"frac_of_busy\": {:.4} }}",
                p.name,
                p.cycles,
                p.calls,
                p.secs,
                p.ns_per_call(),
                pct
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let phase_breakdown = format!(
        "{{\n    \"cycles_per_sec\": {:.0},\n    \"covered_busy_frac\": {:.4},\n    \"phases\": {{\n{}\n    }}\n  }}",
        report.cycles_per_sec,
        report.covered_busy_frac(),
        phases,
    );
    let json = format!(
        "{{\n  \"total_secs\": {:.3},\n  \"runs\": {},\n  \"runs_per_sec\": {:.3},\n  \"busy_secs\": {:.3},\n  \"threads\": {},\n  \"events\": {},\n  \"events_per_sec\": {:.0},\n  \"events_per_sec_per_thread\": [{}],\n  \"plan_cache_hits\": {},\n  \"plan_cache_misses\": {},\n  \"plan_cache_hit_rate\": {:.4},\n  \"arena\": {},\n  \"phase_breakdown\": {}{}{}{}{}\n}}\n",
        report.total_secs,
        report.runs,
        report.runs_per_sec,
        report.busy_secs,
        report.threads,
        report.events,
        report.events_per_sec,
        per_thread,
        report.plan_cache_hits,
        report.plan_cache_misses,
        report.plan_cache_hit_rate(),
        arena,
        phase_breakdown,
        resilience,
        scale,
        multicore,
        fairness,
    );
    std::fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_spec_order() {
        let specs: Vec<usize> = (0..64).collect();
        for workers in [1, 2, 7] {
            let out = run_matrix_with_threads(&specs, workers, |&i| i * 3);
            assert_eq!(out, specs.iter().map(|&i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_oversubscribed_matrices_work() {
        let none: Vec<u32> = Vec::new();
        assert!(run_matrix_with_threads(&none, 8, |&x| x).is_empty());
        let one = [41u32];
        assert_eq!(run_matrix_with_threads(&one, 8, |&x| x + 1), vec![42]);
    }

    #[test]
    fn per_thread_loads_cover_every_run() {
        let before: u64 = thread_loads().iter().map(|t| t.runs).sum();
        let specs: Vec<u32> = (0..12).collect();
        let _ = run_matrix_with_threads(&specs, 3, |&x| x);
        let _ = run_matrix_with_threads(&specs, 1, |&x| x);
        let loads = thread_loads();
        let after: u64 = loads.iter().map(|t| t.runs).sum();
        // `>=`: sibling tests drive the same process-wide counters.
        assert!(after >= before + 24, "every run lands in some slot");
        assert!(loads.len() >= 3, "three parallel slots plus sequential");
        assert!(loads.iter().all(|t| t.busy_nanos > 0 || t.runs == 0));
    }

    #[test]
    fn env_knobs_fall_back_on_garbage_and_accept_valid_values() {
        // Var name unique to this test: the environment is process-global
        // and sibling tests run concurrently.
        let var = "FFS_TEST_PARSE_ENV_OR_WARN";
        let count = |var: &str| parse_env_or_warn(var, "a positive integer", |&n: &usize| n >= 1);
        assert_eq!(count(var), None, "unset is silently None");
        std::env::set_var(var, "max");
        assert_eq!(count(var), None, "garbage falls back");
        std::env::set_var(var, "0");
        assert_eq!(count(var), None, "rejected by the validity check");
        std::env::set_var(var, "7");
        assert_eq!(count(var), Some(7));
        std::env::remove_var(var);
    }

    #[test]
    fn harness_counts_runs() {
        let before = harness_runs();
        let specs: Vec<u32> = (0..10).collect();
        let _ = run_matrix_with_threads(&specs, 2, |&x| x);
        assert!(harness_runs() >= before + 10);
    }
}
