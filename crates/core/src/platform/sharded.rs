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
//! * **Lanes** are *physical* worker threads ([`ShardSpec::lanes`]). Lanes
//!   decide only *who executes* a cell's work, never *what happens* in it.
//!
//! # Lane ownership
//!
//! Lane `l`'s *home* cells are `c ≡ l (mod lanes)`, in ascending order.
//! Each phase — set-up, every epoch, the final fold — a lane takes its
//! home cells front to back, so a cell usually stays on one core and in
//! its cache. A lane that runs out steals not-yet-started cells from the
//! *back* of another lane's list, so no lane idles at the barrier while a
//! peer still has cells queued. Each list is one packed `(front, back)`
//! [`AtomicU64`] claimed by compare-and-swap; lane 0 re-arms all of them
//! between the two barriers of every boundary.
//!
//! ```text
//!  calling thread: policy bundles, cell order (`make_policies` need not be Sync)
//!        │
//!  lanes ├─ set-up    each claimed cell: scheduler + engine from the lane's arena
//!        │  barrier · lane 0: re-arm lists · barrier
//!        ├─ epoch k   each claimed cell: run_until(t_k), then its census
//!        │  barrier · lane 0: exchange_epoch (serial), re-arm lists · barrier
//!        │  … until t_k = end (no exchange at end)
//!        ├─ fold      each claimed cell: finalize, take_hub, ids → global,
//!        │            cost, curves; containers back to the lane's arena
//!  calling thread: concatenate the cell outputs in cell order
//! ```
//!
//! # Determinism argument
//!
//! The run is a pure function of `(traces, config, seed)` and is
//! byte-identical for any lane count:
//!
//! 1. *Within a phase* each cell is claimed by exactly one lane, and its
//!    work touches only that cell; cells share no mutable state, so the
//!    outcome per cell is independent of which lane ran it or in what
//!    wall-clock order.
//! 2. *At a boundary* all lanes rendezvous at a barrier; then lane 0
//!    performs the whole exchange serially, scanning cells in index order
//!    and emitting messages through the [`Sequencer`], whose canonical
//!    `(dst, src, seq)` order is derived from simulation state only. The
//!    census it reads was taken by each cell's lane right after the cell's
//!    `run_until`, and nothing touches a cell between the two.
//! 3. *Epoch boundaries* are computed identically by every lane as
//!    `min(k·epoch, end)` in integer microseconds, so all lanes agree on
//!    the schedule without communicating.
//! 4. *The merge* concatenates the folded cells in cell index order.
//!
//! With one cell the loop degenerates to chained `run_until` calls on one
//! engine, which the deadline-exclusive scheduler semantics make
//! bit-equal to the single `run_until(end)` of
//! [`run_platform`](super::runner::run_platform) — pinned by the
//! `shard_determinism` golden tests.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use ffs_metrics::{CostReport, RequestLog};
use ffs_sim::{run_until, Scheduler, Sequencer, SimDuration, SimTime};
use ffs_telemetry::{span, Phase as TelemetryPhase};
use ffs_trace::CellTrace;

use crate::config::FfsConfig;

use super::catalog::FuncId;
use super::engine::{Engine, EngineError};
use super::events::Event;
use super::policy::PolicyBundle;
use super::request::RequestState;
use super::runner::{collect_output, FaultStats, Platform, RunOutput};

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
/// scheduler, the map from cell-local request ids back to trace-global
/// ids (grown when requests are adopted from peers), and the census the
/// boundary exchange reads.
struct CellState {
    engine: Engine,
    sched: Scheduler<Event>,
    global_ids: Vec<u64>,
    /// Pending (un-admitted) requests after the latest `run_until`.
    backlog: u64,
    /// Functions starving after the latest `run_until`, ascending.
    starving: Vec<FuncId>,
}

impl CellState {
    /// Builds cell `cell`'s engine and scheduler, taking their containers
    /// from the calling lane's arena.
    fn set_up(
        cfg: &FfsConfig,
        cell: usize,
        cells: usize,
        ct: CellTrace,
        policies: PolicyBundle,
    ) -> Result<Self, EngineError> {
        let mut sched: Scheduler<Event> = super::arena::take_scheduler(ct.trace.len());
        sched.preload_sorted(
            ct.trace
                .invocations
                .iter()
                .map(|inv| (inv.arrival, Event::Arrival(inv.id))),
        );
        sched.at(SimTime::ZERO, Event::ScaleTick);
        let mut engine = Engine::new(cfg.clone(), policies, &ct.trace)?;
        engine.core.shard = ShardView {
            cell,
            cells,
            peer_backlog: vec![0; cells],
        };
        Ok(CellState {
            engine,
            sched,
            global_ids: ct.global_ids,
            backlog: 0,
            starving: Vec::new(),
        })
    }

    /// Records what the boundary exchange needs from this cell.
    fn take_census(&mut self) {
        let core = &self.engine.core;
        self.backlog = core.pending.iter().map(|q| q.len() as u64).sum();
        self.starving = core.starving_funcs();
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

    /// Finalizes the cell at `end` into its own [`RunOutput`], with the
    /// log on trace-global ids. The scheduler, request buffer and slab go
    /// back to the calling lane's arena.
    fn fold(self, end: SimTime) -> CellSlot {
        let CellState {
            mut engine,
            sched,
            global_ids,
            ..
        } = self;
        let events = sched.executed();
        engine.finalize(end);
        super::arena::store_scheduler(sched);
        let mut out = collect_output(&mut engine, end);
        drop(engine);
        out.log.remap_ids(|id| global_ids[id as usize]);
        CellSlot::Folded { events, out }
    }
}

/// A cell as it moves through the run, behind its own lock.
enum CellSlot {
    /// Before set-up: the cell's trace and policy bundle.
    Input(CellTrace, PolicyBundle),
    /// Set up and simulating.
    Live(Box<CellState>),
    /// Set-up failed.
    Failed(EngineError),
    /// Finalized: events executed and the cell's output.
    Folded { events: u64, out: RunOutput },
    /// Momentarily empty while its lane moves it to the next stage.
    Moving,
}

impl CellSlot {
    fn live(&mut self) -> &mut CellState {
        match self {
            CellSlot::Live(st) => st,
            _ => unreachable!("cell is not live"),
        }
    }
}

/// Counters describing how a sharded run went. `cells`, `lanes`,
/// `epochs`, `forwards` and `events_per_cell` are deterministic; `steals`
/// and `lane_busy_secs` are observational — they depend on thread timing
/// and are not part of the deterministic output.
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
    /// Cell claims a lane took from another lane's home list, over all
    /// phases (set-up, epochs, fold).
    pub steals: u64,
    /// Wall seconds each lane spent claiming and working cells, over all
    /// phases; barrier waits and the serial exchange are not included.
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

/// The lanes' claim lists for one phase. Lane `l`'s home list is the cells
/// `l, l + lanes, l + 2·lanes, …`; its claim state is one packed
/// `(front, back)` pair of positions into that list, so the owner's
/// front-first takes and thieves' back-first steals are each a single
/// compare-and-swap and no cell is handed out twice.
struct CellQueues {
    cells: usize,
    lanes: usize,
    ends: Vec<AtomicU64>,
}

impl CellQueues {
    /// Armed lists for `cells` cells on `lanes` lanes (`1 ≤ lanes ≤ cells`).
    fn new(cells: usize, lanes: usize) -> Self {
        let q = CellQueues {
            cells,
            lanes,
            ends: (0..lanes).map(|_| AtomicU64::new(0)).collect(),
        };
        q.rearm();
        q
    }

    /// Restores every home list in full. Only called while no lane claims
    /// (between the two barriers of a boundary); the second barrier orders
    /// these `Relaxed` stores before every lane's next claim.
    fn rearm(&self) {
        for (lane, ends) in self.ends.iter().enumerate() {
            let len = (self.cells - lane).div_ceil(self.lanes) as u64;
            ends.store(len, Ordering::Relaxed);
        }
    }

    /// Takes the front (own list) or back (a steal) of `lane`'s list.
    fn take(&self, lane: usize, back: bool) -> Option<usize> {
        let ends = &self.ends[lane];
        let mut cur = ends.load(Ordering::Acquire);
        loop {
            let (front, end) = (cur >> 32, cur & u64::from(u32::MAX));
            if front >= end {
                return None;
            }
            let (next, pos) = if back {
                (cur - 1, end - 1)
            } else {
                (cur + (1 << 32), front)
            };
            match ends.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return Some(lane + pos as usize * self.lanes),
                Err(seen) => cur = seen,
            }
        }
    }

    /// `lane`'s next cell: its own list front first, then the back of the
    /// next non-empty list after it. `None` once every list is empty; the
    /// flag is true for a steal.
    fn claim(&self, lane: usize) -> Option<(usize, bool)> {
        if let Some(c) = self.take(lane, false) {
            return Some((c, false));
        }
        (1..self.lanes)
            .find_map(|d| self.take((lane + d) % self.lanes, true))
            .map(|c| (c, true))
    }
}

/// What one lane did in a run (observational).
#[derive(Default)]
struct LaneReport {
    steals: u64,
    busy: Duration,
    /// Boundaries crossed (lane 0 only).
    epochs: u64,
    /// Requests forwarded (lane 0 only).
    forwards: u64,
}

/// Everything the lanes of one run share.
struct Lanes<'a> {
    slots: Vec<Mutex<CellSlot>>,
    queues: CellQueues,
    barrier: Barrier,
    /// The per-cell config.
    cfg: &'a FfsConfig,
    spec: &'a ShardSpec,
    end: SimTime,
    epoch_us: u64,
    /// Set by a lane whose cell failed set-up; every lane stops at the
    /// boundary after set-up. `Relaxed` is enough: the flag is only read
    /// after that boundary's barriers, which order it after every store.
    failed: AtomicBool,
}

impl Lanes<'_> {
    /// One lane's whole run. Lane 0 is the calling thread, and also runs
    /// the serial step of every boundary.
    fn run(&self, lane: usize) -> LaneReport {
        let cells = self.slots.len();
        let mut rep = LaneReport::default();
        {
            let _setup = span(TelemetryPhase::EngineSetup);
            self.phase(lane, &mut rep, |c, slot| {
                let CellSlot::Input(ct, policies) = std::mem::replace(slot, CellSlot::Moving)
                else {
                    unreachable!("cell {c} set up twice")
                };
                *slot = match CellState::set_up(self.cfg, c, cells, ct, policies) {
                    Ok(st) => CellSlot::Live(Box::new(st)),
                    Err(e) => {
                        self.failed.store(true, Ordering::Relaxed);
                        CellSlot::Failed(e)
                    }
                };
            });
        }
        self.boundary(lane, || {});
        if self.failed.load(Ordering::Relaxed) {
            return rep;
        }

        let end_us = self.end.as_micros();
        // Only lane 0 sends: it runs every boundary's exchange.
        let mut seq: Sequencer<ShardMsg> = Sequencer::new(cells);
        for k in 1u64.. {
            let t_us = end_us.min(self.epoch_us.saturating_mul(k));
            let t = SimTime::from_micros(t_us);
            // Exchange at the boundary — but never at `end`: a request
            // forwarded there could not be adopted into any further
            // simulation, and its record would be lost.
            let exchange = cells > 1 && t_us < end_us;
            self.phase(lane, &mut rep, |_, slot| {
                let st = slot.live();
                run_until(&mut st.engine, &mut st.sched, t);
                if exchange {
                    st.take_census();
                }
            });
            self.boundary(lane, || {
                rep.epochs += 1;
                if exchange {
                    rep.forwards += exchange_epoch(&self.slots, &mut seq, self.spec, t);
                }
            });
            if t_us >= end_us {
                break;
            }
        }

        let _fold = span(TelemetryPhase::ObsFold);
        self.phase(lane, &mut rep, |_, slot| {
            let CellSlot::Live(st) = std::mem::replace(slot, CellSlot::Moving) else {
                unreachable!("cell is not live")
            };
            *slot = (*st).fold(self.end);
        });
        rep
    }

    /// Claims cells until every list is empty, running `work` on each.
    fn phase(&self, lane: usize, rep: &mut LaneReport, mut work: impl FnMut(usize, &mut CellSlot)) {
        let start = Instant::now();
        while let Some((c, stolen)) = self.queues.claim(lane) {
            rep.steals += u64::from(stolen);
            work(c, &mut self.slots[c].lock().expect("cell lock"));
        }
        rep.busy += start.elapsed();
    }

    /// A phase boundary: every lane parks, lane 0 runs `serial` and
    /// re-arms the claim lists, and every lane parks again.
    fn boundary(&self, lane: usize, serial: impl FnOnce()) {
        self.wait();
        if lane == 0 {
            serial();
            self.queues.rearm();
        }
        self.wait();
    }

    fn wait(&self) {
        if self.queues.lanes > 1 {
            let _b = span(TelemetryPhase::EpochBarrier);
            self.barrier.wait();
        }
    }
}

/// Runs a fleet split into `spec.cells` cells over the per-cell traces,
/// advancing cells on `spec.lanes` worker lanes, and merges the per-cell
/// results into one fleet-wide [`RunOutput`].
///
/// `cfg` describes the *whole* fleet; each cell gets `cfg.nodes /
/// spec.cells` nodes and its own policy bundle from `make_policies`,
/// called on the calling thread in cell order. The output is
/// byte-identical for any `spec.lanes`, and with one cell it is
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

    let setup = span(TelemetryPhase::EngineSetup);
    let duration = cell_traces
        .first()
        .map(|ct| ct.trace.duration)
        .unwrap_or(SimDuration::from_secs(0));
    let total_invocations: usize = cell_traces.iter().map(|ct| ct.trace.len()).sum();
    let end = SimTime::ZERO + duration + cell_cfg.drain;
    let slots: Vec<Mutex<CellSlot>> = cell_traces
        .into_iter()
        .map(|ct| {
            debug_assert_eq!(ct.trace.duration, duration, "cells share one horizon");
            Mutex::new(CellSlot::Input(ct, make_policies(&cell_cfg)))
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
    let shared = Lanes {
        slots,
        queues: CellQueues::new(cells, lanes),
        barrier: Barrier::new(lanes),
        cfg: &cell_cfg,
        spec,
        end,
        epoch_us: spec.epoch.as_micros().max(1),
        failed: AtomicBool::new(false),
    };
    let reports: Vec<LaneReport> = std::thread::scope(|s| {
        let shared = &shared;
        let workers: Vec<_> = (1..lanes)
            .map(|lane| {
                s.spawn(move || {
                    let rep = shared.run(lane);
                    ffs_telemetry::flush_thread();
                    rep
                })
            })
            .collect();
        let mut reports = vec![shared.run(0)];
        for w in workers {
            reports.push(w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        reports
    });

    if shared.failed.into_inner() {
        // The first failure in cell order, as a serial set-up would report.
        let failure =
            shared
                .slots
                .into_iter()
                .find_map(|m| match m.into_inner().expect("cell lock") {
                    CellSlot::Failed(e) => Some(e),
                    _ => None,
                });
        return Err(failure.expect("a cell failed set-up"));
    }

    // ---- Concatenate the folded cells (cell order, lane-invariant). ----
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
    output.log.reserve(total_invocations);
    let mut events_per_cell = Vec::with_capacity(cells);
    for (c, slot) in shared.slots.into_iter().enumerate() {
        let CellSlot::Folded { events, mut out } = slot.into_inner().expect("cell lock") else {
            unreachable!("cell {c} was not folded")
        };
        events_per_cell.push(events);
        if c == 0 {
            output.slices_per_gpu = out.slices_per_gpu;
        }
        output.faults += out.faults;
        output.log.append(&mut out.log);
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
    ffs_obs::record_at(end.as_micros(), || ffs_obs::ObsEvent::RunEnd {
        sim_secs: end.saturating_since(SimTime::ZERO).as_secs_f64(),
    });
    let stats = ShardRunStats {
        cells,
        lanes,
        epochs: reports[0].epochs,
        forwards: reports[0].forwards,
        events_per_cell,
        steals: reports.iter().map(|r| r.steals).sum(),
        lane_busy_secs: reports.iter().map(|r| r.busy.as_secs_f64()).collect(),
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
/// barrier): publish every cell's backlog census into each cell's
/// [`ShardView`], forward queued requests of *starving* functions (no
/// instance anywhere on their home cell) to the least-loaded peer, and
/// apply the sequenced messages in canonical order. Reads the census each
/// cell's lane took after the cell's `run_until`. Returns the number of
/// requests forwarded.
fn exchange_epoch(
    slots: &[Mutex<CellSlot>],
    seq: &mut Sequencer<ShardMsg>,
    spec: &ShardSpec,
    now: SimTime,
) -> u64 {
    let _sr = span(TelemetryPhase::ShardRoute);
    let mut guards: Vec<std::sync::MutexGuard<'_, CellSlot>> =
        slots.iter().map(|m| m.lock().expect("cell lock")).collect();
    let census: Vec<u64> = guards.iter_mut().map(|g| g.live().backlog).collect();
    for g in guards.iter_mut() {
        g.live()
            .engine
            .core
            .shard
            .peer_backlog
            .copy_from_slice(&census);
    }
    // Forwarding decisions track the census as it changes, so one epoch
    // cannot dogpile every starving function onto the same peer.
    let mut backlog = census;
    for (src, g) in guards.iter_mut().enumerate() {
        let st = g.live();
        for f in std::mem::take(&mut st.starving) {
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
                let Some(req) = st.engine.core.pending[f].pop_front() else {
                    break;
                };
                let r = &mut st.engine.core.requests[req as usize];
                r.moved = true;
                seq.send(
                    src,
                    dst,
                    ShardMsg::Forward {
                        global_id: st.global_ids[req as usize],
                        func: f,
                        arrival: r.arrival,
                        tenant: r.tenant,
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
        guards[env.dst].live().adopt(env.msg, now);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_idle_lane_steals_from_the_back_of_its_peers() {
        // Lane 0's home list is 0, 2, 4; lane 1's is 1, 3.
        let q = CellQueues::new(5, 2);
        let order: Vec<_> = std::iter::from_fn(|| q.claim(0)).collect();
        assert_eq!(
            order,
            [(0, false), (2, false), (4, false), (3, true), (1, true)]
        );
        assert_eq!(q.claim(1), None);
        q.rearm();
        assert_eq!(q.claim(1), Some((1, false)));
        assert_eq!(q.claim(0), Some((0, false)));
    }

    /// Lanes race over one phase; lane 0 is slow, so its peers steal.
    /// Every cell is claimed exactly once, each lane takes its own list
    /// front first, and thieves take only a suffix of a victim's list.
    #[test]
    fn racing_lanes_claim_every_cell_exactly_once() {
        for (cells, lanes) in [(64, 2), (8, 3), (7, 4), (9, 8)] {
            let q = CellQueues::new(cells, lanes);
            let start = Barrier::new(lanes);
            let claims: Vec<Vec<(usize, bool)>> = std::thread::scope(|s| {
                let workers: Vec<_> = (0..lanes)
                    .map(|lane| {
                        let (q, start) = (&q, &start);
                        s.spawn(move || {
                            start.wait();
                            let mut got = Vec::new();
                            while let Some(claim) = q.claim(lane) {
                                got.push(claim);
                                if lane == 0 {
                                    std::thread::sleep(Duration::from_micros(200));
                                }
                            }
                            got
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("lane"))
                    .collect()
            });
            let mut seen = vec![0u32; cells];
            for (lane, got) in claims.iter().enumerate() {
                let own: Vec<usize> = got.iter().filter(|c| !c.1).map(|c| c.0).collect();
                // Own claims: the front of this lane's home list, in order.
                let home: Vec<usize> = (lane..cells).step_by(lanes).collect();
                assert_eq!(own, home[..own.len()], "lane {lane} of {lanes}");
                for &(c, stolen) in got {
                    seen[c] += 1;
                    assert_eq!(stolen, c % lanes != lane, "cell {c} on lane {lane}");
                }
            }
            assert!(
                seen.iter().all(|&n| n == 1),
                "{cells} cells, {lanes} lanes: {seen:?}"
            );
            // Whatever a lane did not take itself was stolen off its back.
            for lane in 0..lanes {
                let taken = claims[lane].iter().filter(|c| !c.1).count();
                let home_len = (lane..cells).step_by(lanes).count();
                let stolen = claims
                    .iter()
                    .flatten()
                    .filter(|c| c.1 && c.0 % lanes == lane)
                    .count();
                assert_eq!(taken + stolen, home_len);
            }
        }
    }
}
