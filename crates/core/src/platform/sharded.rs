//! The sharded fleet engine: independent cells on a pool of lanes.
//!
//! One [`EngineCore`](super::engine::EngineCore) owning the whole fleet is
//! the scale wall for thousand-GPU runs: the timer wheel, instance slab,
//! and per-function tables all grow with fleet size, and a single event
//! loop leaves every other core idle. This module partitions the fleet
//! into `cells` — each a full engine with its own wheel, slab, arena
//! containers, and metrics hub over a contiguous slice of the fleet and
//! its own slice of the trace — and runs every cell start to finish as an
//! independent run. Cells never exchange work.
//!
//! # Cells vs lanes
//!
//! Two different numbers are in play, and keeping them separate is what
//! makes the output reproducible:
//!
//! * **Cells** are *logical* shards, fixed by the run configuration
//!   ([`ShardSpec::cells`]). The fleet partition and the per-cell traces
//!   depend only on cells.
//! * **Lanes** are *physical* worker threads ([`ShardSpec::lanes`]). Lanes
//!   decide only *who runs* a cell, never *what happens* in it.
//!
//! # Lifecycle
//!
//! ```text
//!  calling thread: policy bundles, cell order (`make_policies` need not be Sync);
//!        │         fleet log columns reserved once, split into one slot per cell
//!        │
//!  lanes ├─ claim the next cell index from one shared counter
//!        │  set up its engine (containers and log from the lane's arena),
//!        │  one run_until(end), finalize, fold;
//!        │  write the log into the cell's slot, ids → global;
//!        │  containers and log back to the lane's arena
//!        │  … until every cell is claimed
//!  calling thread: close the breakdown gaps, set the fleet log's lengths,
//!                  sum costs and curves in cell order
//! ```
//!
//! A cell runs on the same driver as
//! [`run_platform`](super::runner::run_platform), so a one-cell run is
//! byte-identical to it. Lane 0 is the calling thread: one lane spawns no
//! threads.
//!
//! Lanes claim cells in index order from one shared counter, so a lane
//! that finishes early simply takes the next cell and the idle tail is at
//! most one cell long. Claiming the largest trace first did not beat
//! index order in prototype runs: trace length does not predict a cell's
//! cost well. Each lane holds one live cell at a time — its engine,
//! scheduler and request table go back to the lane's arena before it
//! claims the next — so peak memory is the lanes' live cells plus the
//! fleet log, not every cell's engine at once.
//!
//! # The fleet log, written in place
//!
//! The fleet log is the cell logs concatenated in cell order. Its record
//! and breakdown columns are reserved once, one entry per invocation
//! each, and cut into one disjoint slot per cell, sized by the cell's
//! trace length. A cell logs every invocation exactly once, so its
//! records fill its slot; it writes one breakdown per *completed* record,
//! so its breakdowns may fill only a prefix of their slot. Once the lanes
//! are joined, the calling thread slides each cell's breakdowns down over
//! the gaps its predecessors left (abandoned requests have none) and sets
//! both lengths. The fleet log is never reallocated, and the lanes, not
//! the calling thread, copy the records; only breakdowns that follow an
//! abandoned request move a second time.
//!
//! # Determinism argument
//!
//! The run is a pure function of `(traces, config, seed)` and is
//! byte-identical for any lane count: each cell is claimed by exactly one
//! lane, cells share no mutable state, and arena reuse is bit-neutral, so
//! a cell's output does not depend on which lane ran it or when. Each
//! cell's log lands at a position fixed by the cell order alone, and the
//! merge sums costs and curves in cell index order.

use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ffs_metrics::{Breakdown, CostReport, RequestLog, RequestRecord};
use ffs_sim::{SimDuration, SimTime};
use ffs_telemetry::{span, Phase as TelemetryPhase};
use ffs_trace::CellTrace;

use crate::config::FfsConfig;

use super::engine::{Engine, EngineError};
use super::policy::PolicyBundle;
use super::runner::{drive, FaultStats, RunOutput};

/// Shape of a sharded run.
#[derive(Clone, Debug)]
pub struct ShardSpec {
    /// Logical cells the fleet is partitioned into (`cfg.nodes` must be
    /// divisible by this).
    pub cells: usize,
    /// Worker threads running the cells (clamped to `cells`; purely
    /// physical — any value produces byte-identical output).
    pub lanes: usize,
}

impl ShardSpec {
    /// `cells` cells on `lanes` lanes.
    pub fn new(cells: usize, lanes: usize) -> Self {
        ShardSpec { cells, lanes }
    }
}

/// Counters describing how a sharded run went. `cells`, `lanes` and
/// `events_per_cell` are deterministic; `lane_busy_secs` is observational
/// — it depends on thread timing and is not part of the deterministic
/// output.
#[derive(Clone, Debug)]
pub struct ShardRunStats {
    /// Cells in the run.
    pub cells: usize,
    /// Lanes that executed it.
    pub lanes: usize,
    /// Always 0: cells run independently, with no epoch boundaries. Kept
    /// only because the repository benchmark still reports it.
    pub epochs: u64,
    /// Always 0: cells never forward requests to each other. Kept only
    /// because the repository benchmark still reports it.
    pub forwards: u64,
    /// Events executed by each cell's scheduler.
    pub events_per_cell: Vec<u64>,
    /// Wall seconds each lane spent claiming and running cells.
    pub lane_busy_secs: Vec<f64>,
}

impl ShardRunStats {
    /// Total events across all cells.
    pub fn events_total(&self) -> u64 {
        self.events_per_cell.iter().sum()
    }

    /// Load imbalance: max over mean of per-cell executed events (1.0 =
    /// perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        if self.events_per_cell.is_empty() {
            return 1.0;
        }
        let max = *self.events_per_cell.iter().max().unwrap_or(&0) as f64;
        let mean = self.events_total() as f64 / self.events_per_cell.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// One cell's share of the fleet log's spare capacity: room for one
/// record per invocation of the cell's trace, and as many breakdowns.
struct CellSlot<'a> {
    records: &'a mut [MaybeUninit<RequestRecord>],
    breakdowns: &'a mut [MaybeUninit<Breakdown>],
}

/// A cell's input, taken by the lane that claims it.
type CellInput<'a> = Mutex<Option<(CellTrace, PolicyBundle, CellSlot<'a>)>>;

/// A finished cell: its output with an empty log (the log is already in
/// the cell's slot), the events its scheduler executed, and the number of
/// breakdowns it wrote (its completed requests).
type CellResult = Result<(RunOutput, u64, usize), EngineError>;

/// Runs one cell start to finish on `cfg` (the per-cell config) and
/// writes its log into `slot`. The engine's containers and the cell's
/// log go back to the calling lane's arena before this returns.
fn run_cell(
    cfg: &FfsConfig,
    ct: CellTrace,
    policies: PolicyBundle,
    slot: CellSlot<'_>,
) -> CellResult {
    let mut engine = {
        let _setup = span(TelemetryPhase::EngineSetup);
        Engine::new(cfg.clone(), policies, &ct.trace)?
    };
    let (mut out, events) = drive(&mut engine, &ct.trace);
    drop(engine);
    let _fold = span(TelemetryPhase::ObsFold);
    let log = std::mem::take(&mut out.log);
    let completed = write_slot(&log, &ct.global_ids, slot);
    super::arena::store_log(log);
    Ok((out, events, completed))
}

/// Writes a cell's log into its slot of the fleet log, mapping ids to
/// trace-global ids, and returns the number of breakdowns written.
///
/// # Panics
/// Unless the log holds exactly one record per slot entry and one
/// breakdown per completed record: [`run_sharded`] sets the fleet log's
/// lengths on these two facts.
fn write_slot(log: &RequestLog, global_ids: &[u64], slot: CellSlot<'_>) -> usize {
    assert_eq!(
        log.len(),
        slot.records.len(),
        "a cell logs each of its invocations exactly once"
    );
    let mut completed = 0;
    for (dst, r) in slot.records.iter_mut().zip(log.records()) {
        completed += usize::from(r.completed.is_some());
        dst.write(RequestRecord {
            id: global_ids[r.id as usize],
            ..*r
        });
    }
    let breakdowns = log.breakdowns();
    assert_eq!(
        breakdowns.len(),
        completed,
        "one breakdown per completed record"
    );
    for (dst, &b) in slot.breakdowns.iter_mut().zip(breakdowns) {
        dst.write(b);
    }
    completed
}

/// Cuts the first `lens.iter().sum()` entries of both columns' spare
/// capacity into consecutive per-cell slots of `lens[c]` entries each.
fn split_slots<'a>(
    records: &'a mut Vec<RequestRecord>,
    breakdowns: &'a mut Vec<Breakdown>,
    lens: &[usize],
) -> Vec<CellSlot<'a>> {
    let (mut records, mut breakdowns) = (
        records.spare_capacity_mut(),
        breakdowns.spare_capacity_mut(),
    );
    lens.iter()
        .map(|&n| {
            let (r, rest) = std::mem::take(&mut records).split_at_mut(n);
            records = rest;
            let (b, rest) = std::mem::take(&mut breakdowns).split_at_mut(n);
            breakdowns = rest;
            CellSlot {
                records: r,
                breakdowns: b,
            }
        })
        .collect()
}

/// One lane: claims cell indices from `next` in order and runs each cell
/// until none is left. Returns the lane's busy time and its cells'
/// results, each tagged with its cell index.
fn run_lane(
    cfg: &FfsConfig,
    inputs: &[CellInput<'_>],
    next: &AtomicUsize,
) -> (Duration, Vec<(usize, CellResult)>) {
    let start = Instant::now();
    let mut done = Vec::new();
    // `Relaxed` is enough: the counter only hands out distinct indices,
    // and each input is behind its own lock.
    loop {
        let c = next.fetch_add(1, Ordering::Relaxed);
        let Some(input) = inputs.get(c) else {
            break;
        };
        let (ct, policies, slot) = input
            .lock()
            .expect("cell input lock")
            .take()
            .expect("each cell is claimed once");
        done.push((c, run_cell(cfg, ct, policies, slot)));
    }
    (start.elapsed(), done)
}

/// Runs a fleet split into `spec.cells` cells over the per-cell traces,
/// running whole cells on `spec.lanes` worker lanes, and merges the
/// per-cell results into one fleet-wide [`RunOutput`].
///
/// `cfg` describes the *whole* fleet; each cell gets `cfg.nodes /
/// spec.cells` nodes and its own policy bundle from `make_policies`,
/// called on the calling thread in cell order. The output is
/// byte-identical for any `spec.lanes`, and with one cell it is
/// byte-identical to `run_platform` on the undivided config. If cells
/// fail to set up, the error is the lowest-numbered failing cell's.
pub fn run_sharded<F>(
    cfg: &FfsConfig,
    cell_traces: Vec<CellTrace>,
    make_policies: F,
    spec: &ShardSpec,
) -> Result<(RunOutput, ShardRunStats), EngineError>
where
    F: Fn(&FfsConfig) -> PolicyBundle,
{
    let cells = spec.cells;
    assert!(cells >= 1, "need at least one cell");
    assert_eq!(
        cell_traces.len(),
        cells,
        "one trace per cell ({} traces for {cells} cells)",
        cell_traces.len()
    );
    assert!(
        cfg.nodes >= cells && cfg.nodes.is_multiple_of(cells),
        "{} nodes do not divide into {cells} cells",
        cfg.nodes
    );
    let lanes = spec.lanes.clamp(1, cells);
    let mut cell_cfg = cfg.clone();
    cell_cfg.nodes = cfg.nodes / cells;

    let setup = span(TelemetryPhase::EngineSetup);
    let duration = cell_traces
        .first()
        .map(|ct| ct.trace.duration)
        .unwrap_or(SimDuration::from_secs(0));
    let cell_lens: Vec<usize> = cell_traces.iter().map(|ct| ct.trace.len()).collect();
    let total_invocations: usize = cell_lens.iter().sum();
    let end = SimTime::ZERO + duration + cell_cfg.drain;
    // The fleet log's columns, filled in place by the lanes (see the
    // module doc); the breakdown column is sized for every request
    // completing.
    let mut records: Vec<RequestRecord> = Vec::with_capacity(total_invocations);
    let mut breakdowns: Vec<Breakdown> = Vec::with_capacity(total_invocations);
    let inputs: Vec<CellInput> = cell_traces
        .into_iter()
        .zip(split_slots(&mut records, &mut breakdowns, &cell_lens))
        .map(|(ct, slot)| {
            debug_assert_eq!(ct.trace.duration, duration, "cells share one horizon");
            Mutex::new(Some((ct, make_policies(&cell_cfg), slot)))
        })
        .collect();
    ffs_obs::record_at(0, || ffs_obs::ObsEvent::RunStart {
        invocations: total_invocations as u64,
        gpus: (cfg.nodes * cfg.gpus_per_node) as u32,
    });
    drop(setup);

    // Lane 0 runs inline on the calling thread (so `lanes == 1` spawns no
    // threads and accumulates telemetry exactly like `run_platform`);
    // lanes 1.. are scoped workers.
    let next = AtomicUsize::new(0);
    let lane_runs = std::thread::scope(|s| {
        let (cfg, inputs, next) = (&cell_cfg, &inputs, &next);
        let workers: Vec<_> = (1..lanes)
            .map(|_| {
                s.spawn(move || {
                    let run = run_lane(cfg, inputs, next);
                    ffs_telemetry::flush_thread();
                    run
                })
            })
            .collect();
        let mut runs = vec![run_lane(cfg, inputs, next)];
        for w in workers {
            runs.push(w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        runs
    });

    let mut lane_busy_secs = Vec::with_capacity(lanes);
    let mut done = Vec::with_capacity(cells);
    for (busy, lane_done) in lane_runs {
        lane_busy_secs.push(busy.as_secs_f64());
        done.extend(lane_done);
    }
    done.sort_unstable_by_key(|&(c, _)| c);
    // Every slot was handed out and is written: the lanes' borrows of the
    // fleet log end here.
    drop(inputs);
    assert_eq!(done.len(), cells, "every cell runs exactly once");

    // ---- Merge the cells (cell order, lane-invariant). ----
    let _fold = span(TelemetryPhase::ObsFold);
    let mut output = RunOutput {
        log: RequestLog::new(),
        cost: CostReport {
            gpu_time_secs: Vec::new(),
            occupied_secs: Vec::new(),
            occupied_gpc_secs: Vec::new(),
            active_secs: Vec::new(),
            window_secs: 0.0,
        },
        busy_gpcs: Vec::new(),
        allocated_gpcs: Vec::new(),
        required_gpcs: Vec::new(),
        duration: end.saturating_since(SimTime::ZERO),
        slices_per_gpu: 0,
        faults: FaultStats::default(),
    };
    let mut events_per_cell = Vec::with_capacity(cells);
    // Cell `c`'s breakdowns start at its record offset; `kept` is where
    // the compacted breakdown column currently ends.
    let (mut offset, mut kept) = (0, 0);
    for (c, result) in done {
        let (mut out, events, completed) = result?;
        if kept != offset {
            breakdowns
                .spare_capacity_mut()
                .copy_within(offset..offset + completed, kept);
        }
        offset += cell_lens[c];
        kept += completed;
        events_per_cell.push(events);
        if c == 0 {
            output.slices_per_gpu = out.slices_per_gpu;
        }
        output.faults += out.faults;
        let cost = &mut output.cost;
        cost.gpu_time_secs.append(&mut out.cost.gpu_time_secs);
        cost.occupied_secs.append(&mut out.cost.occupied_secs);
        cost.occupied_gpc_secs
            .append(&mut out.cost.occupied_gpc_secs);
        cost.active_secs.append(&mut out.cost.active_secs);
        cost.window_secs = out.cost.window_secs;
        merge_curve(&mut output.busy_gpcs, &out.busy_gpcs);
        merge_curve(&mut output.allocated_gpcs, &out.allocated_gpcs);
        merge_curve(&mut output.required_gpcs, &out.required_gpcs);
    }
    // SAFETY: the slots tile the first `total_invocations` entries of
    // both columns in cell order, and every cell ran (asserted above).
    // `write_slot` asserted that each cell initialised its whole record
    // slot and exactly `completed` breakdowns at the head of its breakdown
    // slot; the loop above moved those to `..kept`, in cell order.
    unsafe {
        records.set_len(total_invocations);
        breakdowns.set_len(kept);
    }
    output.log = RequestLog::from_columns(records, breakdowns);
    ffs_obs::record_at(end.as_micros(), || ffs_obs::ObsEvent::RunEnd {
        sim_secs: end.saturating_since(SimTime::ZERO).as_secs_f64(),
    });
    let stats = ShardRunStats {
        cells,
        lanes,
        epochs: 0,
        forwards: 0,
        events_per_cell,
        lane_busy_secs,
    };
    Ok((output, stats))
}

/// [`run_sharded`] with the paper's FluidFaaS policy bundle in every cell.
pub fn run_sharded_fluid(
    cfg: &FfsConfig,
    cell_traces: Vec<CellTrace>,
    spec: &ShardSpec,
) -> Result<(RunOutput, ShardRunStats), EngineError> {
    run_sharded(cfg, cell_traces, crate::system::paper_policies, spec)
}

/// Pointwise-sums `add` into `into` by bin index (cells share bin width
/// and time base, so index `i` is the same instant everywhere).
fn merge_curve(into: &mut Vec<(f64, f64)>, add: &[(f64, f64)]) {
    if into.len() < add.len() {
        into.resize(add.len(), (0.0, 0.0));
        for (slot, &(t, _)) in into.iter_mut().zip(add) {
            slot.0 = t;
        }
    }
    for (slot, &(_, v)) in into.iter_mut().zip(add) {
        slot.1 += v;
    }
}

/// FNV-1a digest of everything in a [`RunOutput`], folding every f64 as
/// its bit pattern. Two runs are byte-identical exactly when their
/// digests agree; the scale harness and the determinism tests use this to
/// cross-check multi-lane runs against the 1-lane reference.
pub fn run_output_digest(out: &RunOutput) -> u64 {
    let mut h = Fnv::new();
    h.u64(out.log.len() as u64);
    for (r, b) in out.log.records_with_breakdowns() {
        h.u64(r.id);
        h.u64(u64::from(r.app_index));
        h.u64(r.arrival.as_micros());
        match r.completed {
            None => h.u64(0),
            Some(t) => {
                h.u64(1);
                h.u64(t.as_micros());
            }
        }
        h.f64(r.slo_ms);
        h.f64(b.queue_ms);
        h.f64(b.load_ms);
        h.f64(b.exec_ms);
        h.f64(b.transfer_ms);
    }
    for v in [
        &out.cost.gpu_time_secs,
        &out.cost.occupied_secs,
        &out.cost.occupied_gpc_secs,
        &out.cost.active_secs,
    ] {
        h.u64(v.len() as u64);
        for &x in v {
            h.f64(x);
        }
    }
    h.f64(out.cost.window_secs);
    for curve in [&out.busy_gpcs, &out.allocated_gpcs, &out.required_gpcs] {
        h.u64(curve.len() as u64);
        for &(t, v) in curve.iter() {
            h.f64(t);
            h.f64(v);
        }
    }
    h.u64(out.duration.as_micros());
    h.u64(out.slices_per_gpu as u64);
    h.u64(out.faults.slice_failures);
    h.u64(out.faults.gpu_failures);
    h.u64(out.faults.retries);
    h.u64(out.faults.retries_exhausted);
    h.u64(out.faults.rebuilds);
    h.u64(out.faults.recoveries);
    h.finish()
}

/// Minimal FNV-1a over u64 words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
