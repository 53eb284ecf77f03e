//! One benchmark run of one workload: set-up, a checked pass, timed
//! passes, and (when tracing) a traced pass and profiled passes.
//!
//! Every simulation run is one operation. A run fails when it panics or
//! errors, when its request log does not hold each invocation exactly
//! once, or when its `run_output_digest` differs from the checked pass's
//! (timed, traced, profiled and 1-lane runs are all compared). The checks
//! sit outside the timed regions: a pass's wall is the sum of its runs'
//! walls, and each run's wall covers the simulation plus the per-run
//! simulated-metrics summary, nothing else.
//!
//! Pass times are stated at reference speed: each pass is preceded by one
//! run of the [`Reference`] kernel and divided by its slowdown. Set-up is
//! timed raw: it comes before the kernel's buffers exist.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use fluidfaas::platform::arena::arena_stats;
use fluidfaas::platform::{RunOutput, ShardRunStats};
use fluidfaas::{run_output_digest, run_sharded_fluid, ShardSpec};

use crate::probe::{self, span, FirstCall, Profile, Slot};
use crate::speed::Reference;
use crate::workloads::{Fleet, Inputs, Sim, Workload};

/// Input builds timed for `setup_s`.
const SETUP_REPS: usize = 5;
/// Timed passes run even when `--seconds` is already spent.
const MIN_PASSES: usize = 3;
/// Passes run with the engine's own profiler on.
const PROFILED_PASSES: usize = 3;

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed the inputs are built from.
    pub seed: u64,
    /// How long the timed passes run, in seconds.
    pub seconds: f64,
    /// Also run the traced and profiled passes.
    pub trace: bool,
}

/// Lanes the multi-core workload runs on: `min(2, nproc)`.
fn lanes() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The simulated metrics of one run: the `ffs-metrics` work every pass
/// does per run. Timed passes compute it and drop it (the checked pass
/// keeps what the pooled metrics need), so some fields are never read.
#[derive(Clone, Copy, Debug, Default)]
#[allow(dead_code)]
struct Summary {
    requests: u64,
    hits: u64,
    completed: u64,
    sim_s: f64,
    gpu_s: f64,
    p50_ms: f64,
    p99_ms: f64,
}

fn summarize(out: &RunOutput) -> Summary {
    let records = out.log.records();
    let cdf = out.latency_cdf();
    Summary {
        requests: records.len() as u64,
        hits: records.iter().filter(|r| r.slo_hit()).count() as u64,
        completed: records.iter().filter(|r| r.completed.is_some()).count() as u64,
        sim_s: out.duration.as_secs_f64(),
        gpu_s: out.cost.total_gpu_time_secs(),
        p50_ms: cdf.p50().unwrap_or(0.0),
        p99_ms: cdf.p99().unwrap_or(0.0),
    }
}

/// The paper-FluidFaaS runs of the checked pass, pooled over all their
/// requests (unfinished requests count as SLO misses).
#[derive(Clone, Debug, Default)]
pub struct Pooled {
    /// Requests offered.
    pub requests: u64,
    /// Requests completed within their SLO.
    pub hits: u64,
    /// Requests completed.
    pub completed: u64,
    /// Simulated seconds.
    pub sim_s: f64,
    /// GPU seconds held.
    pub gpu_s: f64,
    /// End-to-end latency of every completed request, ms.
    pub latencies_ms: Vec<f64>,
}

impl Pooled {
    fn add(&mut self, out: &RunOutput, s: &Summary) {
        self.requests += s.requests;
        self.hits += s.hits;
        self.completed += s.completed;
        self.sim_s += s.sim_s;
        self.gpu_s += s.gpu_s;
        self.latencies_ms.extend(out.log.latencies_ms());
    }
}

/// One pass over a workload's runs.
#[derive(Clone, Copy, Debug, Default)]
struct Pass {
    wall: Duration,
    runs: u64,
    failed: u64,
}

impl Pass {
    /// Runs and times one simulation (plus whatever `run` adds, such as
    /// the summary), catching a panic as a failure.
    fn time<T>(&mut self, run: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        self.runs += 1;
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(run));
        self.wall += t0.elapsed();
        result.unwrap_or_else(|_| Err("panicked".into()))
    }

    /// Counts a failure unless `out` is a run whose digest is `want`.
    fn check(&mut self, want: Option<u64>, out: Result<RunOutput, String>) {
        let verdict = out.and_then(|out| match want {
            Some(d) if d == run_output_digest(&out) => Ok(()),
            _ => Err("output differs from the checked pass".into()),
        });
        if let Err(e) = verdict {
            eprintln!("benchmark: run {} failed: {e}", self.runs);
            self.failed += 1;
        }
    }

    fn runs_per_s(&self) -> f64 {
        self.runs as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Everything one benchmark run measured. Pass rates and the traced
/// pass's times are at reference speed. The reported metrics are
/// computed from it by [`crate::results`].
#[derive(Clone, Debug, Default)]
pub struct Measured {
    /// Simulation runs attempted.
    pub attempted: u64,
    /// Simulation runs that failed a check.
    pub failed: u64,
    /// Lanes the multi-core workload ran on.
    pub lanes: usize,
    /// Every slowdown the reference kernel read.
    pub slowdowns: Vec<f64>,
    /// Wall of each from-scratch input build, seconds.
    pub setup_s: Vec<f64>,
    /// Trace-synthesis part of each build, seconds.
    pub synth_s: Vec<f64>,
    /// Invocations synthesized per build.
    pub invocations: u64,
    /// Runs per pass.
    pub runs_per_pass: u64,
    /// Trace invocations one pass replays, over all its runs.
    pub requests_per_pass: u64,
    /// Events one pass executes.
    pub events: u64,
    /// Requests one pass completes, all systems.
    pub completed: u64,
    /// The pooled simulated metrics.
    pub pooled: Pooled,
    /// Shard statistics of the checked pass (sharded workload only).
    pub shard: Option<ShardRunStats>,
    /// Runs/s of each timed pass (at [`Measured::lanes`] lanes).
    pub runs_per_s: Vec<f64>,
    /// Runs/s of each interleaved 1-lane pass (sharded workload only).
    pub lane1_runs_per_s: Vec<f64>,
    /// The traced pass (tracing runs only).
    pub traced: Option<TracedPass>,
    /// Runs/s of each profiled pass (tracing runs only).
    pub profiled_runs_per_s: Vec<f64>,
    /// Growth of the `ffs-obs` counters over the whole run: schedule
    /// clamps, metric clamps, arrival saturations, non-finite latencies.
    pub obs: [u64; 4],
    /// Paper claims holding at this seed (paper_sweep tracing runs only).
    pub claims_held: u64,
    /// Process peak RSS after the checked pass, kB: inputs plus one full
    /// pass. Later passes only add allocator fragmentation, which swings
    /// the final high-water mark by 15% from run to run.
    pub peak_rss_kb: u64,
}

/// What the traced pass recorded.
#[derive(Clone, Debug, Default)]
pub struct TracedPass {
    /// Wall of the pass (sum of its runs' walls), seconds at reference
    /// speed.
    pub wall_s: f64,
    /// The reference kernel's slowdown just before the pass; span times
    /// are divided by it.
    pub slowdown: f64,
    /// Runs in the pass.
    pub runs: u64,
    /// The spans.
    pub profile: Profile,
    /// Calibrated cost of one span, cycles.
    pub span_cost: f64,
    /// Arena containers recycled / built fresh during the pass.
    pub arena: (u64, u64),
    /// Plan-cache hits / misses during the pass.
    pub plan_cache: (u64, u64),
    /// Per-cell set-up of the sharded run, cycles (sharded workload only).
    pub cell_setup_cycles: Option<f64>,
}

fn obs_counters() -> [u64; 4] {
    [
        ffs_obs::schedule_clamps(),
        ffs_obs::metric_clamps(),
        ffs_obs::arrival_saturations(),
        ffs_obs::nonfinite_latency_samples(),
    ]
}

/// A benchmark run in progress: what has been measured so far, and one
/// reference kernel per lane to put host times at reference speed.
struct Bench<'a> {
    opts: &'a Options,
    m: Measured,
    references: Vec<Reference>,
}

impl Bench<'_> {
    /// Reads the machine's current slowdown for a run on `lanes` lanes.
    /// The references are built on first use, after the peak-RSS reading,
    /// so their buffers stay out of it.
    fn slowdown(&mut self, lanes: usize) -> f64 {
        while self.references.len() < lanes {
            self.references.push(Reference::new());
        }
        let s = Reference::slowest(&mut self.references[..lanes]);
        self.m.slowdowns.push(s);
        s
    }

    fn tally(&mut self, p: &Pass) {
        self.m.attempted += p.runs;
        self.m.failed += p.failed;
    }

    /// Runs `pass` until `--seconds` have passed, at least [`MIN_PASSES`]
    /// times.
    fn timed_loop(&mut self, mut pass: impl FnMut(&mut Self)) {
        let start = Instant::now();
        let mut n = 0;
        while n < MIN_PASSES || start.elapsed().as_secs_f64() < self.opts.seconds {
            pass(self);
            n += 1;
        }
    }

    /// Runs `pass` on `lanes` lanes after reading the slowdown; returns
    /// its runs/s at reference speed.
    fn rate(&mut self, lanes: usize, pass: impl FnOnce() -> Pass) -> f64 {
        let s = self.slowdown(lanes);
        let p = pass();
        self.tally(&p);
        p.runs_per_s() * s
    }

    /// Runs the traced pass `pass` (on one lane) and collects its
    /// profile, with the span cost calibrated and counters snapshotted
    /// around it.
    fn traced(&mut self, pass: impl FnOnce() -> Pass) -> TracedPass {
        let span_cost = probe::span_cost_cycles();
        let slowdown = self.slowdown(1);
        let (arena0, cache0) = (arena_stats(), fluidfaas::plancache::process_stats());
        let p = pass();
        self.tally(&p);
        let (arena, cache) = (arena_stats(), fluidfaas::plancache::process_stats());
        TracedPass {
            wall_s: p.wall.as_secs_f64() / slowdown,
            slowdown,
            runs: p.runs,
            profile: probe::take_profile(),
            span_cost,
            arena: (arena.reused - arena0.reused, arena.fresh - arena0.fresh),
            plan_cache: (cache.0 - cache0.0, cache.1 - cache0.1),
            cell_setup_cycles: None,
        }
    }

    /// Runs the profiled passes: `pass` with the engine's profiler on.
    fn profiled(&mut self, lanes: usize, mut pass: impl FnMut() -> Pass) {
        ffs_telemetry::set_enabled(true);
        for _ in 0..PROFILED_PASSES {
            let r = self.rate(lanes, &mut pass);
            self.m.profiled_runs_per_s.push(r);
        }
        ffs_telemetry::set_enabled(false);
    }
}

/// Runs the benchmark for one workload.
pub fn run(opts: &Options) -> Measured {
    ffs_telemetry::set_enabled(false);
    let obs_before = obs_counters();
    let mut b = Bench {
        opts,
        m: Measured {
            lanes: lanes(),
            ..Measured::default()
        },
        references: Vec::new(),
    };

    // Build from scratch several times, holding one copy at a time.
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        drop(inputs.take());
        let t0 = Instant::now();
        let built = opts.workload.build(opts.seed);
        b.m.setup_s.push(t0.elapsed().as_secs_f64());
        b.m.synth_s.push(built.synth.as_secs_f64());
        b.m.invocations = built.invocations;
        inputs = Some(built.inputs);
    }
    match inputs.expect("SETUP_REPS > 0") {
        Inputs::Solo(sims) => solo_passes(&mut b, &sims),
        Inputs::Fleet(fleet) => fleet_passes(&mut b, &fleet),
    }

    let mut m = b.m;
    if opts.trace && opts.workload == Workload::PaperSweep {
        let claims = ffs_experiments::report::run(300.0, opts.seed);
        m.claims_held = claims.iter().filter(|c| c.holds).count() as u64;
    }
    let obs_after = obs_counters();
    for (d, (after, before)) in m.obs.iter_mut().zip(obs_after.into_iter().zip(obs_before)) {
        *d = after - before;
    }
    m
}

/// Checks that a run logged every invocation exactly once.
fn check_log(out: &RunOutput, invocations: usize) -> Result<(), String> {
    if out.log.len() != invocations {
        return Err(format!(
            "{} records for {invocations} invocations",
            out.log.len()
        ));
    }
    let mut ids: Vec<u64> = out.log.records().iter().map(|r| r.id).collect();
    ids.sort_unstable();
    if ids.windows(2).any(|w| w[0] == w[1]) {
        return Err("a request is logged twice".into());
    }
    Ok(())
}

/// Runs the simulation and its summary.
fn simulate(sim: &Sim) -> Result<(RunOutput, Summary), String> {
    let out = sim.run();
    let s = summarize(&out);
    Ok((out, s))
}

/// One untraced pass over `sims`, each run checked against `want`.
fn solo_pass(sims: &[Sim], want: &[Option<u64>]) -> Pass {
    let mut p = Pass::default();
    for (sim, &w) in sims.iter().zip(want) {
        let out = p.time(|| simulate(sim)).map(|(out, _)| out);
        p.check(w, out);
    }
    p
}

fn solo_passes(b: &mut Bench<'_>, sims: &[Sim]) {
    b.m.runs_per_pass = sims.len() as u64;
    b.m.requests_per_pass = sims.iter().map(|s| s.trace.invocations.len() as u64).sum();

    // The checked pass: every check, plus the digests later passes must
    // reproduce and the pooled simulated metrics.
    let events0 = ffs_sim::process_executed_events();
    let mut checked = Pass::default();
    let mut want = Vec::with_capacity(sims.len());
    for sim in sims {
        let n = sim.trace.invocations.len();
        let result = checked
            .time(|| simulate(sim))
            .and_then(|(out, s)| check_log(&out, n).map(|()| (out, s)));
        match result {
            Ok((out, s)) => {
                want.push(Some(run_output_digest(&out)));
                b.m.completed += s.completed;
                if sim.is_paper_fluid() {
                    b.m.pooled.add(&out, &s);
                }
            }
            Err(e) => {
                eprintln!("benchmark: checked run failed: {e}");
                checked.failed += 1;
                want.push(None);
            }
        }
    }
    b.m.events = ffs_sim::process_executed_events() - events0;
    b.tally(&checked);
    b.m.peak_rss_kb = ffs_experiments::scale::peak_rss_kb();

    b.timed_loop(|b| {
        let r = b.rate(1, || solo_pass(sims, &want));
        b.m.runs_per_s.push(r);
    });
    if !b.opts.trace {
        return;
    }

    let traced = b.traced(|| {
        let mut p = Pass::default();
        for (sim, &w) in sims.iter().zip(&want) {
            let out = p.time(|| {
                let _run = span(Slot::Run);
                let out = probe::run_traced(sim.cfg.clone(), sim.policies(), &sim.trace)
                    .map_err(|e| e.to_string())?;
                let _s = span(Slot::Summary);
                black_box(summarize(&out));
                Ok(out)
            });
            p.check(w, out);
        }
        p
    });
    b.m.traced = Some(traced);

    b.profiled(1, || solo_pass(sims, &want));
}

/// One sharded run on `lanes` lanes, its summary included in the timing;
/// the per-cell traces are copied before the clock starts.
fn fleet_run(
    fleet: &Fleet,
    lanes: usize,
    p: &mut Pass,
) -> Result<(RunOutput, ShardRunStats, Summary), String> {
    let traces = fleet.traces.clone();
    p.time(|| {
        let spec = ShardSpec::new(fleet.cells, lanes);
        let (out, stats) =
            run_sharded_fluid(&fleet.cfg, traces, &spec).map_err(|e| e.to_string())?;
        let s = summarize(&out);
        Ok((out, stats, s))
    })
}

/// One checked sharded run on `lanes` lanes as a pass of its own.
fn fleet_pass(fleet: &Fleet, lanes: usize, want: Option<u64>) -> Pass {
    let mut p = Pass::default();
    let out = fleet_run(fleet, lanes, &mut p).map(|r| r.0);
    p.check(want, out);
    p
}

fn fleet_passes(b: &mut Bench<'_>, fleet: &Fleet) {
    let invocations: usize = fleet.traces.iter().map(|c| c.trace.len()).sum();
    b.m.runs_per_pass = 1;
    b.m.requests_per_pass = invocations as u64;
    let lanes = b.m.lanes;

    let events0 = ffs_sim::process_executed_events();
    let mut checked = Pass::default();
    let result = fleet_run(fleet, lanes, &mut checked)
        .and_then(|r| check_log(&r.0, invocations).map(|()| r));
    let want = match result {
        Ok((out, stats, s)) => {
            b.m.completed = s.completed;
            b.m.pooled.add(&out, &s);
            b.m.shard = Some(stats);
            Some(run_output_digest(&out))
        }
        Err(e) => {
            eprintln!("benchmark: checked run failed: {e}");
            checked.failed += 1;
            None
        }
    };
    b.m.events = ffs_sim::process_executed_events() - events0;
    b.m.peak_rss_kb = ffs_experiments::scale::peak_rss_kb();
    b.tally(&checked);

    // Interleaved pairs: `lanes` lanes, then 1 lane.
    b.timed_loop(|b| {
        let r = b.rate(lanes, || fleet_pass(fleet, lanes, want));
        b.m.runs_per_s.push(r);
        let r = b.rate(1, || fleet_pass(fleet, 1, want));
        b.m.lane1_runs_per_s.push(r);
    });
    if !b.opts.trace {
        return;
    }

    let first = FirstCall::default();
    let mut traced = b.traced(|| {
        let traces = fleet.traces.clone();
        let mut p = Pass::default();
        let out = p.time(|| {
            let _run = span(Slot::Run);
            let (out, _) = probe::run_sharded_traced(&fleet.cfg, traces, fleet.cells, &first)
                .map_err(|e| e.to_string())?;
            let _s = span(Slot::Summary);
            black_box(summarize(&out));
            Ok(out)
        });
        p.check(want, out);
        p
    });
    if let (Some(start), Some(end)) = (first.at(), traced.profile.first_policy_at) {
        traced.cell_setup_cycles = Some(end.saturating_sub(start) as f64 / fleet.cells as f64);
    }
    b.m.traced = Some(traced);

    b.profiled(lanes, || fleet_pass(fleet, lanes, want));
}
