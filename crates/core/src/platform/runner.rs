//! The trace runner: drives any platform through a trace and collects the
//! run's metrics.

use ffs_metrics::{CostReport, LatencyCdf, RequestLog};
use ffs_sim::{run_until, Scheduler, SimDuration, SimTime, World};
use ffs_trace::Trace;

use super::events::Event;
use super::hub::MetricsHub;

/// A simulated serverless platform: an event-driven [`World`] that can
/// finalise and surrender its metrics.
pub trait Platform: World<Event = Event> {
    /// How long after the last arrival the run drains before finalising.
    fn drain(&self) -> SimDuration;

    /// Called once at the end of the run: record still-unfinished requests
    /// as SLO misses and close any open accounting intervals that are not
    /// handled by the cost tracker's own finalisation.
    fn finalize(&mut self, end: SimTime);

    /// Surrenders the metrics hub (the platform is done after this).
    fn take_hub(&mut self) -> MetricsHub;

    /// Number of GPUs in the fleet (for per-GPU reports).
    fn num_gpus(&self) -> usize;

    /// Slices per GPU (for Figure 5 percentages).
    fn slices_per_gpu(&self) -> usize;

    /// Fault-injection counters for the run (zero when chaos is disabled
    /// or the platform does not support it).
    fn fault_stats(&self) -> FaultStats {
        FaultStats::default()
    }
}

/// Counters summarising a run's injected faults and recovery actions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Slices failed (each failed slice counts once per fault event).
    pub slice_failures: u64,
    /// Whole-GPU (XID-style) failures reported.
    pub gpu_failures: u64,
    /// Requests re-scheduled after their worker died.
    pub retries: u64,
    /// Requests dropped after exhausting the retry budget.
    pub retries_exhausted: u64,
    /// Pipelined/monolithic instances rebuilt after a fault.
    pub rebuilds: u64,
    /// Slices restored to service.
    pub recoveries: u64,
}

impl std::ops::AddAssign for FaultStats {
    fn add_assign(&mut self, o: FaultStats) {
        self.slice_failures += o.slice_failures;
        self.gpu_failures += o.gpu_failures;
        self.retries += o.retries;
        self.retries_exhausted += o.retries_exhausted;
        self.rebuilds += o.rebuilds;
        self.recoveries += o.recoveries;
    }
}

/// Everything a run produces.
#[derive(Debug)]
pub struct RunOutput {
    /// Per-request log.
    pub log: RequestLog,
    /// Cost report (GPU time / MIG time / occupied / active).
    pub cost: CostReport,
    /// Busy-GPC utilization curve `(t_secs, gpcs)`.
    pub busy_gpcs: Vec<(f64, f64)>,
    /// Allocated-GPC curve.
    pub allocated_gpcs: Vec<(f64, f64)>,
    /// Required (ideal) GPC curve.
    pub required_gpcs: Vec<(f64, f64)>,
    /// The simulated duration (trace + drain).
    pub duration: SimDuration,
    /// Slices per GPU (for occupancy percentages).
    pub slices_per_gpu: usize,
    /// Fault-injection counters (all zero on a fault-free run).
    pub faults: FaultStats,
}

impl RunOutput {
    /// The end-to-end latency CDF across all apps.
    pub fn latency_cdf(&self) -> LatencyCdf {
        LatencyCdf::from_micros(self.log.latencies_us())
    }

    /// The latency CDF for one app index.
    pub fn latency_cdf_for(&self, app_index: usize) -> LatencyCdf {
        LatencyCdf::from_micros(self.log.latencies_us_for(app_index))
    }

    /// Completed-request throughput (req/s) over the run.
    pub fn throughput_rps(&self) -> f64 {
        self.log.throughput_rps(self.duration)
    }
}

/// Runs a platform through a trace: schedules all arrivals plus the first
/// scale tick, runs to completion (trace end + drain), finalises metrics.
pub fn run_platform<P: Platform>(platform: &mut P, trace: &Trace) -> RunOutput {
    ffs_obs::record_at(0, || ffs_obs::ObsEvent::RunStart {
        invocations: trace.invocations.len() as u64,
        gpus: platform.num_gpus() as u32,
    });
    let (out, _) = drive(platform, trace);
    ffs_obs::record_at(out.duration.as_micros(), || ffs_obs::ObsEvent::RunEnd {
        sim_secs: out.duration.as_secs_f64(),
    });
    out
}

/// The one copy of a run's event-loop sequence, shared by
/// [`run_platform`] and every cell of a sharded run: preload, one
/// `run_until` to trace end + drain, finalize, collect. Returns the output
/// and the number of events executed. Records no obs run markers; the
/// caller brackets its whole run with one `RunStart`/`RunEnd` pair.
pub(super) fn drive<P: Platform>(platform: &mut P, trace: &Trace) -> (RunOutput, u64) {
    // All arrivals go in up front via the sorted bulk path (traces are
    // sorted by arrival), which keeps them out of the scheduler's event
    // queue and stores only their timestamps: the drain merges them in as
    // they come due.
    // The scheduler itself comes from the thread's run arena, so its queue
    // arrives already grown to an earlier run's peak.
    let setup = ffs_telemetry::span(ffs_telemetry::Phase::EngineSetup);
    let mut sched: Scheduler<Event> = super::arena::take_scheduler();
    // Stream entry `i` runs as `Arrival(i)`: the engine checked at
    // construction that trace ids are `0..n` in order.
    sched.preload_sorted(
        trace.invocations.iter().map(|inv| inv.arrival),
        Event::Arrival,
    );
    sched.at(SimTime::ZERO, Event::ScaleTick);
    let end = SimTime::ZERO + trace.duration + platform.drain();
    drop(setup);
    run_until(platform, &mut sched, end);
    // Everything after the event loop is metrics folding: finalization,
    // hub surrender, report assembly.
    let _fold = ffs_telemetry::span(ffs_telemetry::Phase::ObsFold);
    platform.finalize(end);
    let events = sched.executed();
    super::arena::store_scheduler(sched);
    let slices_per_gpu = platform.slices_per_gpu();
    let faults = platform.fault_stats();
    let hub = platform.take_hub();
    let out = RunOutput {
        log: hub.log,
        cost: hub.cost.finalize(end),
        busy_gpcs: hub.busy_gpcs.curve(),
        allocated_gpcs: hub.allocated_gpcs.curve(),
        required_gpcs: hub.required_gpcs.curve(),
        duration: end.saturating_since(SimTime::ZERO),
        slices_per_gpu,
        faults,
    };
    (out, events)
}
