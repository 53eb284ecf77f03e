//! The sharded fleet engine: lock-stepped multi-cell simulation.
//!
//! One [`EngineCore`](super::engine::EngineCore) owning the whole fleet is
//! the scale wall for thousand-GPU runs: the timer wheel, instance slab,
//! and per-function tables all grow with fleet size, and a single event
//! loop leaves every other core idle. This module partitions the fleet
//! into `cells` — each a full engine with its own wheel, slab, arena
//! containers, and metrics hub over a contiguous slice of the fleet — and
//! advances all of them in lock-stepped time *epochs*, exchanging
//! cross-cell traffic only at epoch boundaries through the deterministic
//! [`Sequencer`].
//!
//! # Cells vs lanes
//!
//! Two different numbers are in play, and keeping them separate is what
//! makes the output reproducible:
//!
//! * **Cells** are *logical* shards, fixed by the run configuration
//!   ([`ShardSpec::cells`]). The fleet partition, the per-cell traces, and
//!   every cross-cell forwarding decision depend only on cells.
//! * **Lanes** are *physical* worker threads ([`ShardSpec::lanes`]). A
//!   lane advances the cells `c ≡ lane (mod lanes)` each epoch. Lanes
//!   decide only *who executes* a cell's epoch, never *what happens* in
//!   it.
//!
//! # Determinism argument
//!
//! The run is a pure function of `(traces, config, seed)` and is
//! byte-identical for any lane count:
//!
//! 1. *Within an epoch* each cell is advanced by exactly one
//!    `run_until(t)` call on its own scheduler and world; cells share no
//!    mutable state, so the epoch's outcome per cell is independent of
//!    which lane ran it or in what wall-clock order.
//! 2. *At a boundary* all lanes rendezvous at a barrier; then one lane
//!    performs the whole exchange serially, scanning cells in index order
//!    and emitting messages through the [`Sequencer`], whose canonical
//!    `(dst, src, seq)` order is derived from simulation state only.
//! 3. *Epoch boundaries* are computed identically by every lane as
//!    `min(k·epoch, end)` in integer microseconds, so all lanes agree on
//!    the schedule without communicating.
//!
//! With one cell the loop degenerates to chained `run_until` calls on one
//! engine, which the deadline-exclusive scheduler semantics make
//! bit-equal to the single `run_until(end)` of
//! [`run_platform`](super::runner::run_platform) — pinned by the
//! `shard_determinism` golden tests.

use std::sync::{Barrier, Mutex};

use ffs_sim::{run_until, Scheduler, Sequencer, SimDuration, SimTime};
use ffs_telemetry::{span, Phase as TelemetryPhase};
use ffs_trace::CellTrace;

use crate::config::FfsConfig;

use super::catalog::FuncId;
use super::engine::{Engine, EngineError};
use super::events::Event;
use super::hub::MetricsHub;
use super::policy::PolicyBundle;
use super::request::RequestState;
use super::runner::{FaultStats, Platform, RunOutput};

/// What a cell's engine may know about the rest of a sharded run. Policy
/// code reads this instead of holding references to peer cells, so the
/// same policies run unchanged inside and outside a sharded engine.
#[derive(Clone, Debug)]
pub struct ShardView {
    /// This cell's index.
    pub cell: usize,
    /// Total number of cells in the run.
    pub cells: usize,
    /// Pending-request backlog of every cell as of the last epoch
    /// boundary (including this one; zeros before the first boundary).
    pub peer_backlog: Vec<u64>,
}

impl ShardView {
    /// The view of an engine running outside a sharded run (one cell,
    /// which is itself).
    pub fn solo() -> Self {
        ShardView {
            cell: 0,
            cells: 1,
            peer_backlog: vec![0],
        }
    }
}

/// Shape of a sharded run.
#[derive(Clone, Debug)]
pub struct ShardSpec {
    /// Logical cells the fleet is partitioned into (`cfg.nodes` must be
    /// divisible by this).
    pub cells: usize,
    /// Worker threads advancing the cells (clamped to `cells`; purely
    /// physical — any value produces byte-identical output).
    pub lanes: usize,
    /// Epoch length: how often cells rendezvous to exchange traffic.
    pub epoch: SimDuration,
    /// Cap on requests forwarded per starving function per boundary.
    pub max_forwards_per_func: usize,
}

impl ShardSpec {
    /// `cells` cells on `lanes` lanes with the default 1 s epoch.
    pub fn new(cells: usize, lanes: usize) -> Self {
        ShardSpec {
            cells,
            lanes,
            epoch: SimDuration::from_secs(1),
            max_forwards_per_func: 32,
        }
    }

    /// The degenerate single-cell, single-lane spec.
    pub fn solo() -> Self {
        ShardSpec::new(1, 1)
    }
}

/// A cross-cell message. Only starving-function overflow is forwarded
/// today; the envelope leaves room for migration and autoscaler
/// directives to ride the same sequenced channel.
#[derive(Clone, Debug)]
pub enum ShardMsg {
    /// Hand a queued request to a less-loaded peer: it re-enters the
    /// destination engine's controller as a retry at the boundary time,
    /// keeping its original arrival (so end-to-end latency still counts
    /// the time spent starving on the source cell).
    Forward {
        /// Trace-global invocation id.
        global_id: u64,
        /// The function (catalogs are identical across cells).
        func: FuncId,
        /// Original arrival time.
        arrival: SimTime,
        /// Owning tenant (rides along so per-tenant metrics survive
        /// the handoff).
        tenant: u32,
    },
}

/// One cell of a sharded run: an engine over its slice of the fleet, its
/// scheduler, and the map from cell-local request ids back to trace-global
/// ids (grown when requests are adopted from peers).
struct CellState {
    engine: Engine,
    sched: Scheduler<Event>,
    global_ids: Vec<u64>,
}

impl CellState {
    /// Sum of this cell's pending (un-admitted) requests.
    fn backlog(&self) -> u64 {
        self.engine
            .core
            .pending
            .iter()
            .map(|q| q.len() as u64)
            .sum()
    }

    /// Adopts a forwarded request at boundary time `now`: appends a fresh
    /// request record and re-enters it through the engine's existing
    /// retry path, which re-queues and re-dispatches it.
    fn adopt(&mut self, msg: ShardMsg, now: SimTime) {
        let ShardMsg::Forward {
            global_id,
            func,
            arrival,
            tenant,
        } = msg;
        let core = &mut self.engine.core;
        let local = core.requests.len() as u64;
        let mut state = RequestState::with_slo(local, func, arrival, core.slo[func]);
        state.tenant = tenant;
        core.requests.push(state);
        self.global_ids.push(global_id);
        self.sched.at(now, Event::Retry(local));
    }
}

/// Counters describing how a sharded run went (not part of the
/// deterministic output — purely observational, except that `forwards`
/// and `events_per_cell` are themselves deterministic).
#[derive(Clone, Debug)]
pub struct ShardRunStats {
    /// Cells in the run.
    pub cells: usize,
    /// Lanes that executed it.
    pub lanes: usize,
    /// Epoch boundaries crossed.
    pub epochs: u64,
    /// Requests forwarded between cells.
    pub forwards: u64,
    /// Events executed by each cell's scheduler.
    pub events_per_cell: Vec<u64>,
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

/// Runs a fleet split into `spec.cells` cells over the per-cell traces,
/// advancing cells on `spec.lanes` worker lanes, and merges the per-cell
/// results into one fleet-wide [`RunOutput`].
///
/// `cfg` describes the *whole* fleet; each cell gets `cfg.nodes /
/// spec.cells` nodes and its own policy bundle from `make_policies`. The
/// output is byte-identical for any `spec.lanes`, and with one cell it is
/// byte-identical to `run_platform` on the undivided config.
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

    // ---- Setup: build every cell serially (cell order, lane-free). ----
    let setup = span(TelemetryPhase::EngineSetup);
    let duration = cell_traces
        .first()
        .map(|ct| ct.trace.duration)
        .unwrap_or(SimDuration::from_secs(0));
    let total_invocations: usize = cell_traces.iter().map(|ct| ct.trace.len()).sum();
    let end = SimTime::ZERO + duration + cell_cfg.drain;
    let end_us = end.as_micros();
    let epoch_us = spec.epoch.as_micros().max(1);
    let mut states: Vec<Mutex<CellState>> = Vec::with_capacity(cells);
    for (i, ct) in cell_traces.into_iter().enumerate() {
        debug_assert_eq!(ct.trace.duration, duration, "cells share one horizon");
        let mut sched: Scheduler<Event> = super::arena::take_scheduler(ct.trace.len());
        sched.preload_sorted(
            ct.trace
                .invocations
                .iter()
                .map(|inv| (inv.arrival, Event::Arrival(inv.id))),
        );
        sched.at(SimTime::ZERO, Event::ScaleTick);
        let mut engine = Engine::new(cell_cfg.clone(), make_policies(&cell_cfg), &ct.trace)?;
        engine.core.shard = ShardView {
            cell: i,
            cells,
            peer_backlog: vec![0; cells],
        };
        states.push(Mutex::new(CellState {
            engine,
            sched,
            global_ids: ct.global_ids,
        }));
    }
    ffs_obs::record_at(0, || ffs_obs::ObsEvent::RunStart {
        invocations: total_invocations as u64,
        gpus: (cfg.nodes * cfg.gpus_per_node) as u32,
    });
    drop(setup);

    // ---- The lock-stepped epoch loop. ----
    // Lane 0 runs inline on the calling thread (so `lanes == 1` spawns no
    // threads and accumulates telemetry exactly like `run_platform`);
    // lanes 1.. are scoped workers. Every lane computes the identical
    // boundary schedule, so the only coordination is the barrier itself.
    let barrier = Barrier::new(lanes);
    let states_ref = &states;
    let barrier_ref = &barrier;
    let mut epochs = 0u64;
    let mut forwards = 0u64;
    std::thread::scope(|s| {
        for lane in 1..lanes {
            s.spawn(move || {
                let mut k = 1u64;
                loop {
                    let t_us = end_us.min(epoch_us.saturating_mul(k));
                    let t = SimTime::from_micros(t_us);
                    for c in (lane..cells).step_by(lanes) {
                        let mut cell = states_ref[c].lock().expect("cell lock");
                        let CellState { engine, sched, .. } = &mut *cell;
                        run_until(engine, sched, t);
                    }
                    {
                        let _b = span(TelemetryPhase::EpochBarrier);
                        barrier_ref.wait();
                    }
                    if t_us >= end_us {
                        break;
                    }
                    // Lane 0 performs the exchange between the barriers.
                    {
                        let _b = span(TelemetryPhase::EpochBarrier);
                        barrier_ref.wait();
                    }
                    k += 1;
                }
                ffs_telemetry::flush_thread();
            });
        }
        // Lane 0, inline.
        let mut seq: Sequencer<ShardMsg> = Sequencer::new(cells);
        let mut k = 1u64;
        loop {
            let t_us = end_us.min(epoch_us.saturating_mul(k));
            let t = SimTime::from_micros(t_us);
            for c in (0..cells).step_by(lanes) {
                let mut cell = states_ref[c].lock().expect("cell lock");
                let CellState { engine, sched, .. } = &mut *cell;
                run_until(engine, sched, t);
            }
            if lanes > 1 {
                let _b = span(TelemetryPhase::EpochBarrier);
                barrier_ref.wait();
            }
            epochs += 1;
            if t_us >= end_us {
                break;
            }
            // Exchange at the boundary — but never at `end`: a request
            // forwarded there could not be adopted into any further
            // simulation, and its record would be lost.
            if cells > 1 {
                forwards += exchange_epoch(states_ref, &mut seq, spec, t);
            }
            if lanes > 1 {
                let _b = span(TelemetryPhase::EpochBarrier);
                barrier_ref.wait();
            }
            k += 1;
        }
    });

    // ---- Merge per-cell results (cell order, lane-invariant). ----
    let _fold = span(TelemetryPhase::ObsFold);
    let mut states: Vec<CellState> = states
        .into_iter()
        .map(|m| m.into_inner().expect("cell lock"))
        .collect();
    let events_per_cell: Vec<u64> = states.iter().map(|st| st.sched.executed()).collect();
    for st in &mut states {
        st.engine.finalize(end);
    }
    ffs_obs::record_at(end_us, || ffs_obs::ObsEvent::RunEnd {
        sim_secs: end.saturating_since(SimTime::ZERO).as_secs_f64(),
    });
    let slices_per_gpu = states
        .first()
        .map(|st| st.engine.slices_per_gpu())
        .unwrap_or(0);
    let mut faults = FaultStats::default();
    let mut log = ffs_metrics::RequestLog::new();
    log.reserve(total_invocations);
    let mut cost = ffs_metrics::CostReport {
        gpu_time_secs: Vec::new(),
        occupied_secs: Vec::new(),
        occupied_gpc_secs: Vec::new(),
        active_secs: Vec::new(),
        window_secs: 0.0,
    };
    let mut busy_gpcs: Vec<(f64, f64)> = Vec::new();
    let mut allocated_gpcs: Vec<(f64, f64)> = Vec::new();
    let mut required_gpcs: Vec<(f64, f64)> = Vec::new();
    for st in &mut states {
        let f = st.engine.fault_stats();
        faults.slice_failures += f.slice_failures;
        faults.gpu_failures += f.gpu_failures;
        faults.retries += f.retries;
        faults.retries_exhausted += f.retries_exhausted;
        faults.rebuilds += f.rebuilds;
        faults.recoveries += f.recoveries;
        let hub: MetricsHub = st.engine.take_hub();
        for (&rec, breakdown) in hub.log.records_with_breakdowns() {
            let rec = ffs_metrics::RequestRecord {
                id: st.global_ids[rec.id as usize],
                ..rec
            };
            if rec.completed.is_some() {
                log.push_completed(rec, breakdown);
            } else {
                log.push_abandoned(rec);
            }
        }
        let c = hub.cost.finalize(end);
        cost.gpu_time_secs.extend(c.gpu_time_secs);
        cost.occupied_secs.extend(c.occupied_secs);
        cost.occupied_gpc_secs.extend(c.occupied_gpc_secs);
        cost.active_secs.extend(c.active_secs);
        cost.window_secs = c.window_secs;
        merge_curve(&mut busy_gpcs, &hub.busy_gpcs.curve());
        merge_curve(&mut allocated_gpcs, &hub.allocated_gpcs.curve());
        merge_curve(&mut required_gpcs, &hub.required_gpcs.curve());
    }
    for st in states {
        super::arena::store_scheduler(st.sched);
        // The engine's drop returns its request buffer and slab to the
        // arena here, on the main thread, exactly like a solo run.
        drop(st.engine);
    }
    let output = RunOutput {
        log,
        cost,
        busy_gpcs,
        allocated_gpcs,
        required_gpcs,
        duration: end.saturating_since(SimTime::ZERO),
        slices_per_gpu,
        faults,
    };
    let stats = ShardRunStats {
        cells,
        lanes,
        epochs,
        forwards,
        events_per_cell,
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

/// The serial boundary exchange (lane 0 only, all lanes parked at the
/// barrier): census every cell's backlog, publish it into each cell's
/// [`ShardView`], forward queued requests of *starving* functions (no
/// instance anywhere on their home cell) to the least-loaded peer, and
/// apply the sequenced messages in canonical order. Returns the number of
/// requests forwarded.
fn exchange_epoch(
    states: &[Mutex<CellState>],
    seq: &mut Sequencer<ShardMsg>,
    spec: &ShardSpec,
    now: SimTime,
) -> u64 {
    let _sr = span(TelemetryPhase::ShardRoute);
    let cells = states.len();
    let mut guards: Vec<std::sync::MutexGuard<'_, CellState>> = states
        .iter()
        .map(|m| m.lock().expect("cell lock"))
        .collect();
    let census: Vec<u64> = guards.iter().map(|g| g.backlog()).collect();
    for g in guards.iter_mut() {
        g.engine.core.shard.peer_backlog.copy_from_slice(&census);
    }
    // Forwarding decisions track the census as it changes, so one epoch
    // cannot dogpile every starving function onto the same peer.
    let mut backlog = census;
    for src in 0..cells {
        for f in guards[src].engine.core.starving_funcs() {
            let mut dst = src;
            for (c, &b) in backlog.iter().enumerate() {
                if c != src && (dst == src || b < backlog[dst]) {
                    dst = c;
                }
            }
            if dst == src || backlog[dst] >= backlog[src] {
                continue;
            }
            for _ in 0..spec.max_forwards_per_func {
                let g = &mut *guards[src];
                let Some(req) = g.engine.core.pending[f].pop_front() else {
                    break;
                };
                let r = &mut g.engine.core.requests[req as usize];
                r.moved = true;
                let arrival = r.arrival;
                let tenant = r.tenant;
                let global = g.global_ids[req as usize];
                seq.send(
                    src,
                    dst,
                    ShardMsg::Forward {
                        global_id: global,
                        func: f,
                        arrival,
                        tenant,
                    },
                );
                backlog[src] -= 1;
                backlog[dst] += 1;
            }
        }
    }
    let envelopes = seq.drain_epoch();
    let n = envelopes.len() as u64;
    for env in envelopes {
        guards[env.dst].adopt(env.msg, now);
    }
    n
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
