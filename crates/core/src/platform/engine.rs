//! The shared event-loop engine every platform runs on.
//!
//! [`EngineCore`] owns the *mechanisms* — the scheduler-facing state
//! (request table, instance map, MIG fleet, shared pool, metrics hub,
//! keep-alive lineages, plan cache) and the mechanics that mutate it
//! (stage execution, instance launch/retire, utilization accounting).
//! [`Engine`] pairs that state with a [`PolicyBundle`](super::policy) and
//! implements the [`World`] event loop plus the [`Platform`] run driver:
//! every event is handled once here, and each *decision* (routing,
//! overflow, scaling, eviction, migration) is delegated to the bundle.
//!
//! Every platform — FluidFaaS, the ESG / INFless baselines and the
//! ablation arms — is this engine built with a different bundle
//! (`Engine::new(cfg, bundle, trace)`); none has an event loop of its own.

use std::collections::VecDeque;

use ffs_mig::gpu::RECONFIGURE_SECS;
use ffs_mig::{Fleet, GpuId, MigError, NodeId, SliceId, SliceProfile};
use ffs_pipeline::{estimate, DeploymentPlan};
use ffs_sim::{Scheduler, SimDuration, SimTime, World};
use ffs_telemetry::{span, Phase as TelemetryPhase};
use ffs_trace::Trace;

use crate::chaos::{ChaosState, FaultTarget, FleetShape};
use crate::config::FfsConfig;
use crate::instance::{Instance, Phase, StageTimings};
use crate::keepalive::{KeepAliveState, Transition};
use crate::plancache::PlanCache;
use crate::shared::SharedPool;

use super::catalog::{FuncId, FunctionCatalog};
use super::events::{Event, InstanceId};
use super::hub::MetricsHub;
use super::policy::PolicyBundle;
use super::request::RequestState;
use super::runner::{FaultStats, Platform};
use super::slab::{InstanceSlab, PhaseTag};

/// Maximum instance launches per function per scale tick (burst ramp
/// limit shared by every autoscaler policy).
pub const MAX_LAUNCHES_PER_TICK: usize = 4;

/// Counters of the scheduler's decisions over a run — the observable trace
/// of §5's mechanisms, used by tests, ablations and examples.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedulerLog {
    /// Exclusive instances launched (monolithic or pipelined).
    pub launches: u64,
    /// Pipelined launches among them.
    pub pipeline_launches: u64,
    /// Exclusive instances retired (demotion, drain or scale-down).
    pub retirements: u64,
    /// Evictions of a time-sharing resident to CPU memory (→ Warm).
    pub evictions: u64,
    /// Warm reloads onto a shared slice.
    pub reloads: u64,
    /// Pipeline→monolithic migrations started.
    pub migrations: u64,
    /// Shared-pool slices added.
    pub pool_grows: u64,
    /// Shared-pool slices released.
    pub pool_shrinks: u64,
    /// Keep-alive expirations to cold (⑤).
    pub cold_terminations: u64,
}

/// Construction-time failures of the engine: the fallible inputs are the
/// fleet partition scheme and the trace/catalog pairing.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// The configured MIG partition scheme is invalid.
    Fleet(MigError),
    /// The trace invokes an application the catalog does not serve.
    UnknownApp(ffs_profile::App),
    /// The trace's ids are not `0..n` in order: invocation `index` carries
    /// id `id`. Requests are indexed (and arrivals keyed) by position, so
    /// only dense ids keep logged ids equal to trace ids.
    SparseIds {
        /// Position of the first offending invocation.
        index: usize,
        /// The id it carries.
        id: u64,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Fleet(e) => write!(f, "invalid fleet partition scheme: {e}"),
            EngineError::UnknownApp(app) => {
                write!(f, "trace invokes {app:?}, which is not in the catalog")
            }
            EngineError::SparseIds { index, id } => {
                write!(
                    f,
                    "trace invocation {index} has id {id}; ids must be 0..n in order"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Fleet(e) => Some(e),
            EngineError::UnknownApp(_) | EngineError::SparseIds { .. } => None,
        }
    }
}

impl From<MigError> for EngineError {
    fn from(e: MigError) -> Self {
        EngineError::Fleet(e)
    }
}

/// The scheduler-facing state record. Fields are public on purpose: policy
/// implementations (in this crate and in `ffs-baselines`) read and mutate
/// the engine state directly, exactly as the former monolithic systems
/// did with their own fields.
pub struct EngineCore {
    /// Run configuration.
    pub cfg: FfsConfig,
    /// The function catalog the trace is served from.
    pub catalog: FunctionCatalog,
    /// The MIG fleet.
    pub fleet: Fleet,
    /// Metrics collection.
    pub hub: MetricsHub,
    /// One state record per trace invocation, indexed by request id (trace
    /// ids are dense; `try_new` rejects a trace whose ids are not).
    pub requests: Vec<RequestState>,
    /// Live exclusive instances.
    pub instances: InstanceSlab,
    /// Next instance id to assign.
    pub next_instance: u64,
    /// The time-sharing slice pool.
    pub pool: SharedPool,
    /// Keep-alive state of each function's time-sharing lineage (Fig. 8).
    pub ka: Vec<KeepAliveState>,
    /// Per-function backlog of requests not yet admitted anywhere
    /// (deadline order == arrival order within a function).
    pub pending: Vec<VecDeque<u64>>,
    /// Arrivals per function since the last scale tick.
    pub arrivals_in_tick: Vec<u32>,
    /// EWMA demand estimate per function (req/s).
    pub demand_rps: Vec<f64>,
    /// When the last scale tick ran.
    pub last_tick: SimTime,
    /// Last time each function saw an arrival or completion.
    pub last_use: Vec<SimTime>,
    /// End of the simulation (trace end + drain).
    pub horizon: SimTime,
    /// Largest number of concurrent pipelined instances seen.
    pub peak_pipelines: usize,
    /// Decision counters for this run.
    pub sched_log: SchedulerLog,
    /// Memoized launch plans, invalidated on any slice alloc/free.
    pub plan_cache: PlanCache,
    /// Live pipelined (non-monolithic) instance count.
    pub pipeline_count: usize,
    /// Functions the per-tick loops must visit, ascending. A function
    /// activates on its first arrival and deactivates only when every
    /// per-function datum is at its cold rest state (see
    /// [`EngineCore::sweep_inactive`]), so skipping inactive functions is
    /// provably a no-op for every tick computation.
    pub active_funcs: Vec<FuncId>,
    /// Membership mask for `active_funcs`.
    pub is_active: Vec<bool>,
    /// One-shot flag: the per-tick arrival counter saturated at least once
    /// this run (pathological trace; the count is a lower bound).
    pub arrivals_saturated: bool,
    /// Precomputed monolithic (exec, handoff) split per function per slice
    /// profile (`SliceProfile::ALL` order) — the time-sharing hot path.
    pub mono_split_ms: Vec<[(f64, f64); SliceProfile::ALL.len()]>,
    /// Precomputed monolithic execution estimate per function per slice
    /// profile (`SliceProfile::ALL` order).
    pub shared_exec_ms: Vec<[f64; SliceProfile::ALL.len()]>,
    /// Precomputed model-load time of each function's full DAG (ms).
    pub load_all_ms: Vec<f64>,
    /// Precomputed duration of one time-shared execution (monolithic exec
    /// plus in-process handoff) per function per slice profile
    /// (`SliceProfile::ALL` order).
    pub shared_service: Vec<[SimDuration; SliceProfile::ALL.len()]>,
    /// Precomputed model memory of each function's full DAG (GB) — what a
    /// time-sharing slot must fit.
    pub mem_gb: Vec<f64>,
    /// Each function's SLO budget as a duration, converted once per run:
    /// a request's deadline is its arrival plus this
    /// ([`RequestState::deadline`]).
    pub slo: Vec<SimDuration>,
    /// Fault-injection state (`ffs-chaos`); inert when faults are disabled.
    pub chaos: ChaosState,
}

/// Position of `p` in `SliceProfile::ALL` (the per-profile table order).
#[inline]
pub(crate) fn profile_index(p: SliceProfile) -> usize {
    p.index()
}

impl EngineCore {
    /// Builds the engine state for a config and the trace it will serve.
    pub fn try_new(cfg: FfsConfig, trace: &Trace) -> Result<Self, EngineError> {
        let _setup = span(TelemetryPhase::EngineSetup);
        let catalog = FunctionCatalog::for_workload(cfg.workload, cfg.slo_scale, &cfg.perf);
        let fleet = Fleet::new(cfg.nodes, cfg.gpus_per_node, &cfg.scheme)?;
        let mut hub = MetricsHub::new(&catalog, fleet.gpu_count(), SimDuration::from_secs(1));
        // Request table and instance slab come from the thread's run arena
        // (warm capacity after the first run); both go back on drop.
        let n = catalog.len();
        let slo: Vec<SimDuration> = (0..n)
            .map(|f| SimDuration::from_millis_f64(catalog.slo_ms(f)))
            .collect();
        let mut requests = super::arena::take_request_buffer();
        if let Err(e) = build_requests_into(&catalog, trace, &mut requests) {
            super::arena::store_request_buffer(requests);
            return Err(e);
        }
        // The log comes from the arena too (warm only on a sharded run's
        // lanes, which return each cell's log). Every invocation produces
        // exactly one record (completed or abandoned); sizing the log up
        // front keeps the completion path allocation-free.
        hub.log = super::arena::take_log();
        hub.log.reserve(trace.invocations.len());
        let horizon = SimTime::ZERO + trace.duration + cfg.drain;
        // Utilization samples land once per tick through the whole run;
        // pre-sizing the bins keeps the tick path reallocation-free too.
        hub.busy_gpcs.reserve_until(horizon);
        hub.allocated_gpcs.reserve_until(horizon);
        hub.required_gpcs.reserve_until(horizon);
        // Per-(function, profile) timing tables: pure functions of the
        // catalog, computed once so the execution hot paths are lookups.
        let mono_split_ms: Vec<[(f64, f64); SliceProfile::ALL.len()]> = (0..n)
            .map(|f| {
                let mut row = [(0.0, 0.0); SliceProfile::ALL.len()];
                for (i, &p) in SliceProfile::ALL.iter().enumerate() {
                    row[i] = mono_split(&catalog, f, p);
                }
                row
            })
            .collect();
        let shared_service = mono_split_ms
            .iter()
            .map(|row| row.map(|(exec, handoff)| SimDuration::from_millis_f64(exec + handoff)))
            .collect();
        let mem_gb = (0..n).map(|f| catalog.profile(f).total_mem_gb()).collect();
        let shared_exec_ms = (0..n)
            .map(|f| {
                let mut row = [0.0; SliceProfile::ALL.len()];
                for (i, &p) in SliceProfile::ALL.iter().enumerate() {
                    row[i] = catalog.profile(f).mono_exec_ms(p);
                }
                row
            })
            .collect();
        let load_all_ms = (0..n)
            .map(|f| {
                let profile = catalog.profile(f);
                profile.load_ms(&all_nodes(&catalog, f))
            })
            .collect();
        // The chaos timeline draws victims from the smallest per-GPU slice
        // count, so every drawn index exists under per-GPU layouts too.
        let slices_per_gpu = fleet
            .gpus()
            .map(|(_, g)| g.slices().len())
            .min()
            .unwrap_or(0);
        let chaos = ChaosState::build(
            cfg.faults.clone(),
            FleetShape {
                nodes: cfg.nodes,
                gpus_per_node: cfg.gpus_per_node,
                slices_per_gpu,
            },
            horizon.as_micros(),
        );
        Ok(EngineCore {
            cfg,
            fleet,
            hub,
            requests,
            instances: super::arena::take_slab(),
            next_instance: 1,
            pool: SharedPool::new(),
            ka: vec![KeepAliveState::Cold; n],
            pending: vec![VecDeque::new(); n],
            arrivals_in_tick: vec![0; n],
            demand_rps: vec![0.0; n],
            last_tick: SimTime::ZERO,
            last_use: vec![SimTime::ZERO; n],
            catalog,
            horizon,
            peak_pipelines: 0,
            sched_log: SchedulerLog::default(),
            plan_cache: PlanCache::new(),
            pipeline_count: 0,
            active_funcs: Vec::with_capacity(n),
            is_active: vec![false; n],
            arrivals_saturated: false,
            mono_split_ms,
            shared_exec_ms,
            load_all_ms,
            shared_service,
            mem_gb,
            slo,
            chaos,
        })
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Number of live exclusive instances.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Precomputed monolithic execution estimate for `f` on `slice`.
    #[inline]
    pub fn shared_exec_of(&self, f: FuncId, slice: SliceProfile) -> f64 {
        self.shared_exec_ms[f][profile_index(slice)]
    }

    /// Books one arrival for `f`: bumps the per-tick counter (saturating —
    /// a pathological trace can overflow a `u32` within one tick; the
    /// saturation is counted once per run and surfaced through `ffs-obs`)
    /// and activates the function for the per-tick loops.
    pub fn note_arrival(&mut self, f: FuncId) {
        match self.arrivals_in_tick[f].checked_add(1) {
            Some(v) => self.arrivals_in_tick[f] = v,
            None => {
                if !self.arrivals_saturated {
                    self.arrivals_saturated = true;
                    ffs_obs::note_arrival_saturation();
                }
            }
        }
        if !self.is_active[f] {
            self.is_active[f] = true;
            // Keep `active_funcs` ascending: per-tick iteration order must
            // match the `0..catalog.len()` order it replaces exactly.
            let pos = self
                .active_funcs
                .binary_search(&f)
                .expect_err("is_active[f] was false, so f is not in active_funcs");
            self.active_funcs.insert(pos, f);
        }
    }

    /// Retires functions whose every per-function datum is back at its
    /// cold rest state from the active set. For such a function each
    /// per-tick computation is a provable no-op: the demand EWMA folds
    /// zero arrivals into an exactly-zero estimate (`0.3*0.0 + 0.7*0.0`),
    /// the required-GPC sum's term is an exact `+0.0`, no autoscaler
    /// policy fires without demand/pending/instances, the keep-alive sweep
    /// ignores Cold lineages, and routing an empty backlog returns
    /// immediately — so skipping it cannot move a single output bit.
    pub fn sweep_inactive(&mut self) {
        let (is_active, pending, instances, ka, demand, pool) = (
            &mut self.is_active,
            &self.pending,
            &self.instances,
            &self.ka,
            &self.demand_rps,
            &self.pool,
        );
        self.active_funcs.retain(|&f| {
            let resting = demand[f] == 0.0
                && pending[f].is_empty()
                && instances.ids_of(f).is_empty()
                && matches!(ka[f], KeepAliveState::Cold)
                && pool.slot_of(f).is_none();
            if resting {
                is_active[f] = false;
            }
            !resting
        });
    }

    /// How completed requests were served:
    /// `(monolithic, pipelined, time_shared)` counts.
    pub fn serve_mix(&self) -> (usize, usize, usize) {
        use super::request::ServePath::*;
        let mut mix = (0, 0, 0);
        for r in &self.requests {
            if !r.done {
                continue;
            }
            match r.served {
                Some(Monolithic) => mix.0 += 1,
                Some(Pipelined) => mix.1 += 1,
                Some(TimeShared) => mix.2 += 1,
                None => {}
            }
        }
        mix
    }

    // ------------------------------------------------------------------
    // Exclusive instance execution
    // ------------------------------------------------------------------

    /// Starts the next queued request on `stage` of instance `id` if the
    /// stage is idle and the instance is serving.
    pub fn try_start_stage(
        &mut self,
        id: InstanceId,
        stage: usize,
        now: SimTime,
        sched: &mut Scheduler<Event>,
    ) {
        let Some((req, inst)) = self.instances.start_stage(id, stage, now) else {
            return;
        };
        let f = inst.func;
        let slice = inst.plan.stages[stage].slice;
        let mono = inst.plan.is_monolithic();
        // Stage timing constants were computed once at launch; the
        // per-request path copies them instead of cloning the stage's node
        // list, re-walking the profile tables or rounding a duration.
        let exec_ms = inst.timings.exec_ms[stage];
        let handoff_ms = inst.timings.handoff_ms[stage];
        let service = inst.timings.service[stage];
        let request = &mut self.requests[req as usize];
        if stage == 0 {
            request.served = Some(if mono {
                super::request::ServePath::Monolithic
            } else {
                super::request::ServePath::Pipelined
            });
        }
        request.exec_ms += exec_ms;
        request.transfer_ms += handoff_ms;
        self.hub.slice_active(now, slice);
        if ffs_obs::enabled() {
            if stage == 0 {
                let path = if mono {
                    ffs_obs::ServePathKind::Monolithic
                } else {
                    ffs_obs::ServePathKind::Pipelined
                };
                ffs_obs::record(|| ffs_obs::ObsEvent::RequestDispatched {
                    req,
                    func: f as u32,
                    path,
                    target: id.0,
                });
            }
            ffs_obs::record(|| ffs_obs::ObsEvent::SliceActive {
                slice: sref(slice),
                func: f as u32,
                req,
            });
        }
        sched.after(
            service,
            Event::StageDone {
                inst: id,
                stage,
                req,
            },
        );
    }

    /// Completes one stage execution: frees the slice, finishes or forwards
    /// the request, refeeds the stage, and retires a drained instance.
    /// Returns the function to re-dispatch (the caller routes its backlog),
    /// or `None` if the instance no longer exists.
    pub fn on_stage_done(
        &mut self,
        id: InstanceId,
        stage: usize,
        req: u64,
        now: SimTime,
        sched: &mut Scheduler<Event>,
    ) -> Option<FuncId> {
        let inst = self.instances.finish_stage(id, stage, req, now)?;
        let slice = inst.plan.stages[stage].slice;
        let last = stage + 1 == inst.plan.num_stages();
        let f = inst.func;
        // Boundary-transfer time was precomputed at launch (unused when
        // this is the final stage).
        let transfer_ms = inst.timings.transfer_ms[stage];
        let transfer = inst.timings.transfer[stage];
        self.hub.slice_idle(now, slice);
        ffs_obs::record(|| ffs_obs::ObsEvent::SliceIdle { slice: sref(slice) });
        if last {
            // Split borrow: the request record mutates (finish) and is then
            // read by the hub — disjoint fields, no clone needed.
            let EngineCore { requests, hub, .. } = self;
            let state = &mut requests[req as usize];
            let breakdown = state.finish(now);
            hub.complete(req, state, now, breakdown);
        } else {
            // Boundary transfer through host shared memory.
            self.requests[req as usize].transfer_ms += transfer_ms;
            sched.after(
                transfer,
                Event::TransferDone {
                    inst: id,
                    stage: stage + 1,
                    req,
                },
            );
        }
        // Keep the stage fed, then refill from the function backlog.
        self.try_start_stage(id, stage, now, sched);
        if self.instances.phase_tag(id) == PhaseTag::Draining
            && self.instances.occupancy_of(id) == 0
        {
            self.retire_instance(id, now);
        }
        Some(f)
    }

    // ------------------------------------------------------------------
    // Time-sharing execution
    // ------------------------------------------------------------------

    /// Runs `req` on shared slot `slot_idx` (the resident model must be the
    /// request's function).
    pub fn start_shared_exec(
        &mut self,
        slot_idx: usize,
        req: u64,
        now: SimTime,
        sched: &mut Scheduler<Event>,
    ) {
        let f = self.requests[req as usize].func();
        let slot = self.pool.slot_mut(slot_idx);
        debug_assert_eq!(slot.resident, Some(f));
        slot.touch_resident(f);
        slot.busy_with = Some(req);
        slot.mark_busy(now);
        self.requests[req as usize].served = Some(super::request::ServePath::TimeShared);
        let slice = slot.slice.id;
        let profile = slot.slice.profile;
        let (exec_ms, handoff_ms) = self.mono_split_ms[f][profile_index(profile)];
        let service = self.shared_service[f][profile_index(profile)];
        self.requests[req as usize].exec_ms += exec_ms;
        self.requests[req as usize].transfer_ms += handoff_ms;
        self.hub.slice_active(now, slice);
        if ffs_obs::enabled() {
            ffs_obs::record(|| ffs_obs::ObsEvent::RequestDispatched {
                req,
                func: f as u32,
                path: ffs_obs::ServePathKind::TimeShared,
                target: slot_idx as u64,
            });
            ffs_obs::record(|| ffs_obs::ObsEvent::SliceActive {
                slice: sref(slice),
                func: f as u32,
                req,
            });
        }
        sched.after(
            service,
            Event::SharedDone {
                slot: slot_idx,
                req,
            },
        );
    }

    // ------------------------------------------------------------------
    // Instance lifecycle
    // ------------------------------------------------------------------

    /// Launches one exclusive instance of `f` with a placement-decided
    /// `plan` on `node`: allocates the planned slices, books the metrics,
    /// and schedules readiness after the cold start.
    pub fn launch(
        &mut self,
        f: FuncId,
        plan: DeploymentPlan,
        node: NodeId,
        now: SimTime,
        sched: &mut Scheduler<Event>,
    ) -> InstanceId {
        for s in &plan.stages {
            // Infallible: the plan was computed against the current free
            // set and the cache is invalidated on every fleet mutation, so
            // every planned slice is still free (and not failed) here.
            self.fleet.allocate(s.slice).expect("planned slice is free");
            self.hub.slice_allocated(now, s.slice, s.profile.gpcs());
        }
        self.plan_cache.invalidate();
        let profile = self.catalog.profile(f);
        let est = estimate(profile, &plan);
        let timings = StageTimings::compute(profile, &plan);
        if !plan.is_monolithic() {
            self.pipeline_count += 1;
            self.peak_pipelines = self.peak_pipelines.max(self.pipeline_count);
        }
        let id = InstanceId(self.next_instance);
        self.next_instance += 1;
        let cold_ms = profile.cold_start_ms();
        let ready_at = now + SimDuration::from_millis_f64(cold_ms);
        self.sched_log.launches += 1;
        if !plan.is_monolithic() {
            self.sched_log.pipeline_launches += 1;
        }
        let stages = plan.num_stages() as u32;
        let pipelined = !plan.is_monolithic();
        ffs_obs::record(|| ffs_obs::ObsEvent::InstanceLaunched {
            inst: id.0,
            func: f as u32,
            node: node.0,
            stages,
            pipelined,
            cold_ms,
        });
        self.instances.insert(
            id,
            Instance::new(id, f, plan, est, timings, node, now, ready_at),
            self.catalog.slo_ms(f),
        );
        sched.at(ready_at, Event::InstanceReady(id));
        id
    }

    /// Removes an (empty) instance and releases its slices. If it was the
    /// function's last exclusive instance the keep-alive lineage drops to
    /// time sharing (③) — a no-op for lineages that never left Cold.
    pub fn retire_instance(&mut self, id: InstanceId, now: SimTime) {
        let Some(inst) = self.teardown(id, now) else {
            return;
        };
        debug_assert!(inst.is_empty(), "retiring a non-empty instance");
        self.sched_log.retirements += 1;
    }

    /// Retirement's and failure's shared teardown: removes instance `id`,
    /// releases its slices (intervals close at `now`), invalidates the
    /// plan cache, and drops the function's keep-alive lineage to time
    /// sharing when this was its last exclusive instance. Returns the
    /// removed record, or `None` if `id` is not live.
    fn teardown(&mut self, id: InstanceId, now: SimTime) -> Option<Instance> {
        let inst = self.instances.remove(&id)?;
        let f = inst.func;
        ffs_obs::record(|| ffs_obs::ObsEvent::InstanceRetired {
            inst: id.0,
            func: f as u32,
        });
        for s in &inst.plan.stages {
            // Infallible: the instance held these slices since launch,
            // nothing else can release an instance-owned slice, and an
            // allocated slice cannot fail (a fault kills its owner first).
            self.fleet.release(s.slice).expect("allocated slice");
            self.hub.slice_released(now, s.slice);
        }
        self.plan_cache.invalidate();
        if !inst.plan.is_monolithic() {
            debug_assert!(self.pipeline_count > 0);
            self.pipeline_count -= 1;
        }
        if self.instances.ids_of(f).is_empty() {
            self.ka[f] = self.ka[f].next_traced(Transition::UtilizationLow, f as u32);
        }
        Some(inst)
    }

    // ------------------------------------------------------------------
    // Fault injection (ffs-chaos)
    // ------------------------------------------------------------------

    /// Kills an instance whose slice failed: tears it down like a
    /// retirement and returns the requests that were queued or executing
    /// inside it — in (busy stages ascending, then queued stages
    /// ascending) order — for the caller to retry. Unlike retirement, the
    /// instance may be non-empty.
    pub fn fail_instance(&mut self, id: InstanceId, now: SimTime) -> Vec<u64> {
        let Some(inst) = self.teardown(id, now) else {
            return Vec::new();
        };
        // Stale StageDone/TransferDone events for this instance are
        // classified against this list.
        self.chaos.killed.push(id.0);
        let mut reqs: Vec<u64> = inst.stage_busy.iter().flatten().copied().collect();
        for q in &inst.stage_queues {
            reqs.extend(q.iter().copied());
        }
        // Mid-transfer requests are recovered when their `TransferDone`
        // arrives (the transfer itself survives in host memory).
        reqs
    }

    /// Kills a shared slot whose slice failed: drains its queue and
    /// in-flight work, unbinds every function (the resident is evicted to
    /// Warm), releases the slice, and tombstones the slot. The slot is
    /// never removed from the pool vector — `Vec::remove` would shift the
    /// indices referenced by pending `SharedDone`/`SharedLoadDone` events.
    /// Returns the requests to retry.
    pub fn fail_shared_slot(&mut self, idx: usize, now: SimTime) -> Vec<u64> {
        let slot = self.pool.slot_mut(idx);
        let mut reqs = Vec::new();
        if let Some(r) = slot.busy_with.take() {
            reqs.push(r);
        }
        if let Some((_, r)) = slot.loading.take() {
            reqs.push(r);
        }
        while let Some(r) = slot.pop() {
            reqs.push(r);
        }
        slot.mark_idle(now);
        slot.dead = true;
        let resident = slot.resident;
        let bound = slot.bound().to_vec();
        let slice = slot.slice;
        for f in bound {
            self.pool.unbind(f);
        }
        if let Some(g) = resident {
            // The resident model's GPU state is lost with the slice; its
            // lineage falls back to Warm (CPU copy), as on an eviction.
            self.ka[g] = self.ka[g].next_traced(Transition::Evicted, g as u32);
        }
        if self.fleet.release(slice.id).is_ok() {
            self.hub.slice_released(now, slice.id);
        }
        self.plan_cache.invalidate();
        reqs
    }

    /// The slices a fault target expands to, ascending; slices already
    /// failed are skipped (a second fault on a downed GPU is a no-op).
    pub fn fault_slices(&self, target: FaultTarget) -> Vec<SliceId> {
        let mut gpus: Vec<GpuId> = Vec::new();
        match target {
            FaultTarget::Slice(id) => {
                return match self.fleet.gpu(id.gpu).and_then(|g| g.slice(id)) {
                    Ok(s) if !s.is_failed() => vec![id],
                    _ => Vec::new(),
                };
            }
            FaultTarget::Gpu(g) => gpus.push(g),
            FaultTarget::Node(n) => {
                if let Some(node) = self.fleet.nodes().iter().find(|x| x.id == n) {
                    gpus.extend(node.gpus().iter().map(|g| g.id));
                }
            }
        }
        let mut out = Vec::new();
        for gid in gpus {
            if let Ok(gpu) = self.fleet.gpu(gid) {
                out.extend(gpu.slices().iter().filter(|s| !s.is_failed()).map(|s| s.id));
            }
        }
        out
    }

    /// The GPUs a fault target spans (for XID-style reporting and the
    /// per-GPU reconfiguration charge on recovery).
    pub fn fault_gpus(&self, target: FaultTarget) -> Vec<GpuId> {
        match target {
            FaultTarget::Slice(id) => vec![id.gpu],
            FaultTarget::Gpu(g) => vec![g],
            FaultTarget::Node(n) => self
                .fleet
                .nodes()
                .iter()
                .find(|x| x.id == n)
                .map(|node| node.gpus().iter().map(|g| g.id).collect())
                .unwrap_or_default(),
        }
    }

    /// Schedules a capped-exponential-backoff retry for a request whose
    /// worker died, or drops it (→ abandoned at finalize) once the retry
    /// budget is exhausted.
    pub fn schedule_retry(&mut self, req: u64, sched: &mut Scheduler<Event>) {
        let attempt = self.chaos.bump_retry(req);
        if attempt > self.chaos.spec.max_retries {
            self.chaos.retries_exhausted += 1;
            return;
        }
        let delay_ms = self.chaos.spec.backoff_ms(attempt);
        self.chaos.request_retries += 1;
        ffs_obs::record(|| ffs_obs::ObsEvent::RequestRetried {
            req,
            attempt,
            delay_ms,
        });
        sched.after(SimDuration::from_millis(delay_ms), Event::Retry(req));
    }

    // ------------------------------------------------------------------
    // Scale-tick bookkeeping
    // ------------------------------------------------------------------

    /// Tick prologue: fold the arrival window into the demand EWMA and
    /// record the utilization/cost series.
    pub fn begin_tick(&mut self, now: SimTime) {
        let window = now.saturating_since(self.last_tick);
        self.last_tick = now;
        let window_secs = window.as_secs_f64().max(1e-9);
        // Dirty-set iteration (ascending, matching the full-catalog order):
        // an inactive function has zero arrivals and an exactly-zero EWMA,
        // for which this fold is a bit-exact no-op.
        for i in 0..self.active_funcs.len() {
            let f = self.active_funcs[i];
            let inst_rate = self.arrivals_in_tick[f] as f64 / window_secs;
            self.arrivals_in_tick[f] = 0;
            self.demand_rps[f] = if now == SimTime::ZERO {
                inst_rate
            } else {
                0.3 * self.demand_rps[f] + 0.7 * inst_rate
            };
        }
        self.record_utilization(now);
    }

    /// Tick epilogue: schedule the next tick while inside the horizon.
    pub fn schedule_next_tick(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        let next = now + self.cfg.scale_tick;
        if next < self.horizon {
            sched.at(next, Event::ScaleTick);
        }
    }

    fn record_utilization(&mut self, now: SimTime) {
        // The exclusive-instance side is an incremental column sum: stage
        // start/finish keep `busy_gpcs` current, so the per-tick cost is one
        // integer pass instead of walking every instance's stage arrays.
        self.instances.debug_assert_hot_consistent();
        let mut busy_gpcs = self.instances.busy_gpcs_total() as u32;
        for slot in self.pool.slots() {
            if slot.busy_with.is_some() || slot.loading.is_some() {
                busy_gpcs += slot.slice.profile.gpcs();
            }
        }
        self.hub.busy_gpcs.record(now, busy_gpcs as f64);
        self.hub
            .allocated_gpcs
            .record(now, self.fleet.allocated_gpcs() as f64);
        // Inactive functions contribute an exact `+0.0` term, which cannot
        // move any partial sum's bits; active functions are visited in the
        // same ascending order the full scan used.
        let required: f64 = self
            .active_funcs
            .iter()
            .map(|&f| self.demand_rps[f] * self.catalog.profile(f).dag.total_work() / 1_000.0)
            .sum();
        self.hub.required_gpcs.record(now, required);
    }

    /// Aggregate serving capacity (req/s) of `f`'s non-draining instances.
    pub fn capacity_rps(&self, f: FuncId) -> f64 {
        self.instances
            .ids_of(f)
            .iter()
            .filter(|&&id| self.instances.phase_tag(id) != PhaseTag::Draining)
            .map(|&id| self.instances.throughput_rps_of(id))
            .sum()
    }

    /// Functions with pending demand and no way to serve it: no exclusive
    /// instance (live or launching), and no time-sharing binding. Only
    /// active functions can have a non-empty backlog, so the active set
    /// suffices (and preserves the ascending scan order).
    pub fn starving_funcs(&self) -> Vec<FuncId> {
        self.active_funcs
            .iter()
            .copied()
            .filter(|&f| {
                !self.pending[f].is_empty()
                    && self.instances.ids_of(f).is_empty()
                    && self.pool.slot_of(f).is_none()
            })
            .collect()
    }

    /// Erlang-C pressure test: true while the live fleet for `f` is
    /// smaller than the M/M/c size keeping the mean queueing wait below
    /// `target_wait_frac` of the SLO budget.
    pub fn erlang_pressure(&self, f: FuncId, target_wait_frac: f64) -> bool {
        let demand = self.demand_rps[f];
        if demand < 1e-6 {
            return !self.pending[f].is_empty();
        }
        // Per-server rate: the mean of live instances' throughput, or the
        // profile's min-baseline estimate before anything is live. One
        // indexed pass (same ascending-id order the map scan used) — no
        // scratch vector.
        let mut live_sum = 0.0;
        let mut live_count = 0u32;
        for &id in self.instances.ids_of(f) {
            if self.instances.phase_tag(id) != PhaseTag::Draining {
                live_sum += self.instances.throughput_rps_of(id);
                live_count += 1;
            }
        }
        let mu = if live_count == 0 {
            let p = self.catalog.profile(f);
            match p.min_baseline_slice() {
                Some(s) => 1_000.0 / p.mono_exec_ms(s),
                None => return false,
            }
        } else {
            live_sum / live_count as f64
        };
        let slo_secs = self.catalog.slo_ms(f) / 1_000.0;
        let target_wait = (target_wait_frac * slo_secs).max(1e-3);
        let needed = ffs_sim::queueing::servers_for_mean_wait(demand, mu, target_wait);
        live_count < needed
    }
}

/// Trace-facing reference to a MIG slice.
pub(crate) fn sref(id: ffs_mig::SliceId) -> ffs_obs::SliceRef {
    ffs_obs::SliceRef::new(id.gpu.0, id.index)
}

/// All DAG node ids of a function (helper for load-time computation).
pub(crate) fn all_nodes(catalog: &FunctionCatalog, f: FuncId) -> Vec<ffs_dag::NodeId> {
    catalog.profile(f).dag.nodes().collect()
}

/// Splits the monolithic execution time into (compute, in-process
/// handoff) parts.
pub(crate) fn mono_split(
    catalog: &FunctionCatalog,
    f: FuncId,
    slice: ffs_mig::SliceProfile,
) -> (f64, f64) {
    let p = catalog.profile(f);
    let exec: f64 = p.dag.nodes().map(|n| p.node_exec_ms(n, slice)).sum();
    let handoff = (p.dag.len().saturating_sub(1)) as f64 * p.perf.inprocess_handoff_ms;
    (exec, handoff)
}

/// Fills `out` (a recycled arena buffer) with one request record per
/// invocation — identical contents to a freshly collected table — and
/// checks that the trace's ids are `0..n` in order, since the table (and
/// the scheduler's arrival stream) is indexed by position.
///
/// Each app is resolved once per run to its function, in a table indexed
/// by [`App::index`](ffs_profile::App::index); the per-invocation work is
/// one lookup.
fn build_requests_into(
    catalog: &FunctionCatalog,
    trace: &Trace,
    out: &mut Vec<RequestState>,
) -> Result<(), EngineError> {
    debug_assert!(out.is_empty());
    let slots = catalog
        .ids()
        .map(|f| catalog.profile(f).app.index() + 1)
        .max()
        .unwrap_or(0);
    let mut by_app: Vec<Option<FuncId>> = vec![None; slots];
    for f in catalog.ids() {
        by_app[catalog.profile(f).app.index()] = Some(f);
    }
    out.reserve(trace.invocations.len());
    for (index, inv) in trace.invocations.iter().enumerate() {
        if inv.id != index as u64 {
            return Err(EngineError::SparseIds { index, id: inv.id });
        }
        let f = by_app
            .get(inv.app.index())
            .copied()
            .flatten()
            .ok_or(EngineError::UnknownApp(inv.app))?;
        let mut state = RequestState::new(f, inv.arrival);
        state.tenant = inv.tenant;
        out.push(state);
    }
    Ok(())
}

impl Drop for EngineCore {
    /// Returns the arena-borrowed containers to the thread's pool so the
    /// next run starts with warm capacity (O(1) teardown: the containers
    /// are cleared, not freed).
    fn drop(&mut self) {
        super::arena::store_request_buffer(std::mem::take(&mut self.requests));
        super::arena::store_slab(std::mem::take(&mut self.instances));
    }
}

/// The event loop: engine state plus the policy bundle that steers it.
pub struct Engine {
    /// The shared scheduler state and mechanics.
    pub core: EngineCore,
    /// The decision policies of the platform being simulated.
    pub policies: PolicyBundle,
}

impl Engine {
    /// Builds an engine for a config, policy bundle, and trace.
    pub fn new(cfg: FfsConfig, policies: PolicyBundle, trace: &Trace) -> Result<Self, EngineError> {
        Ok(Engine {
            core: EngineCore::try_new(cfg, trace)?,
            policies,
        })
    }

    // ------------------------------------------------------------------
    // Hot event handlers, one inherent method per hot variant of the
    // `World::handle` match. Routing is skipped (no span, no virtual call)
    // when the function's backlog is empty: every router's dispatch loop
    // is headed by `while pending[f].front()`, so an empty backlog makes
    // the call side-effect-free — the skip cannot move an output bit, it
    // only removes no-op RoutingScan spans from the profile.
    // ------------------------------------------------------------------

    #[inline]
    fn on_arrival(&mut self, now: SimTime, id: u64, sched: &mut Scheduler<Event>) {
        let Engine { core, policies } = self;
        let f = core.requests[id as usize].func();
        ffs_obs::record(|| ffs_obs::ObsEvent::RequestArrived {
            req: id,
            func: f as u32,
        });
        core.note_arrival(f);
        core.last_use[f] = now;
        policies.autoscaler.on_arrival(core, f);
        // The push makes the backlog non-empty, so dispatch always runs.
        core.pending[f].push_back(id);
        let _rt = span(TelemetryPhase::RoutingScan);
        policies
            .router
            .dispatch(core, &*policies.shared, f, now, sched);
    }

    #[inline]
    fn on_instance_ready(&mut self, now: SimTime, id: InstanceId, sched: &mut Scheduler<Event>) {
        let Engine { core, policies } = self;
        let Some(f) = core.instances.get(&id).map(|inst| inst.func) else {
            return;
        };
        core.instances.set_phase(&id, Phase::Ready);
        if !core.pending[f].is_empty() {
            let _rt = span(TelemetryPhase::RoutingScan);
            policies
                .router
                .dispatch(core, &*policies.shared, f, now, sched);
        }
        // Kick any queued work (requests routed while launching).
        core.try_start_stage(id, 0, now, sched);
    }

    #[inline]
    fn on_stage_done_event(
        &mut self,
        now: SimTime,
        inst: InstanceId,
        stage: usize,
        req: u64,
        sched: &mut Scheduler<Event>,
    ) {
        let Engine { core, policies } = self;
        if let Some(f) = core.on_stage_done(inst, stage, req, now, sched) {
            if !core.pending[f].is_empty() {
                let _rt = span(TelemetryPhase::RoutingScan);
                policies
                    .router
                    .dispatch(core, &*policies.shared, f, now, sched);
            }
        }
    }

    #[inline]
    fn on_transfer_done(
        &mut self,
        now: SimTime,
        inst: InstanceId,
        stage: usize,
        req: u64,
        sched: &mut Scheduler<Event>,
    ) {
        let core = &mut self.core;
        if core.instances.land_transfer(inst, stage, req) {
            core.try_start_stage(inst, stage, now, sched);
        } else if core.chaos.was_killed(inst.0) {
            // The instance died mid-transfer (fault injection).
            // In-transfer requests are tracked only as a count, so
            // this arrival is the recovery point: retry the request.
            core.schedule_retry(req, sched);
        } else {
            debug_assert!(false, "transfer completed on a retired instance");
        }
    }

    #[inline]
    fn on_shared_load_done(
        &mut self,
        now: SimTime,
        slot: usize,
        req: u64,
        sched: &mut Scheduler<Event>,
    ) {
        let core = &mut self.core;
        let (f, expected) = match core.pool.slot(slot).loading {
            Some((f, r)) => (f, r),
            None => return,
        };
        if expected != req {
            // Stale load-done: the slot was killed and rebound
            // between scheduling and delivery (fault injection).
            debug_assert!(core.chaos.fired, "mismatched load on fault-free run");
            return;
        }
        let s = core.pool.slot_mut(slot);
        s.loading = None;
        s.resident = Some(f);
        core.start_shared_exec(slot, req, now, sched);
    }

    #[inline]
    fn on_shared_done(
        &mut self,
        now: SimTime,
        slot: usize,
        req: u64,
        sched: &mut Scheduler<Event>,
    ) {
        let Engine { core, policies } = self;
        let s = core.pool.slot_mut(slot);
        if s.busy_with != Some(req) {
            // Stale completion for a request already drained off a
            // failed slot (fault injection): the retry path owns it.
            debug_assert!(core.chaos.fired, "mismatched completion on fault-free run");
            return;
        }
        s.busy_with = None;
        s.mark_idle(now);
        let slice = s.slice.id;
        core.hub.slice_idle(now, slice);
        ffs_obs::record(|| ffs_obs::ObsEvent::SliceIdle { slice: sref(slice) });
        let f = {
            // Split borrow (request mutates, hub reads) — no clone.
            let EngineCore { requests, hub, .. } = &mut *core;
            let state = &mut requests[req as usize];
            let breakdown = state.finish(now);
            hub.complete(req, state, now, breakdown);
            state.func()
        };
        core.last_use[f] = now;
        if !core.pending[f].is_empty() {
            let _rt = span(TelemetryPhase::RoutingScan);
            policies
                .router
                .dispatch(core, &*policies.shared, f, now, sched);
        }
        let _ = policies.shared.dispatch_slot(core, slot, now, sched);
    }
}

impl World for Engine {
    type Event = Event;

    fn handle(&mut self, now: SimTime, ev: Event, sched: &mut Scheduler<Event>) {
        match ev {
            Event::Arrival(id) => self.on_arrival(now, id, sched),
            Event::InstanceReady(id) => self.on_instance_ready(now, id, sched),
            Event::StageDone { inst, stage, req } => {
                self.on_stage_done_event(now, inst, stage, req, sched)
            }
            Event::TransferDone { inst, stage, req } => {
                self.on_transfer_done(now, inst, stage, req, sched)
            }
            Event::SharedLoadDone { slot, req } => self.on_shared_load_done(now, slot, req, sched),
            Event::SharedDone { slot, req } => self.on_shared_done(now, slot, req, sched),
            ev => self.handle_control(now, ev, sched),
        }
    }
}

impl Engine {
    /// The cold control variants (ticks, keep-alive sweeps, faults,
    /// retries).
    fn handle_control(&mut self, now: SimTime, ev: Event, sched: &mut Scheduler<Event>) {
        let Engine { core, policies } = self;
        match ev {
            Event::ScaleTick => {
                let _tick = span(TelemetryPhase::AutoscalerTick);
                // Arm the chaos timeline on the first tick (one branch per
                // tick thereafter; a disabled spec starts armed, so
                // fault-free runs never enter this block).
                if !core.chaos.armed {
                    core.chaos.armed = true;
                    for i in 0..core.chaos.timeline.len() {
                        let (t_us, target) = core.chaos.timeline[i];
                        sched.at(SimTime::from_micros(t_us), Event::Fault(target));
                    }
                }
                core.begin_tick(now);
                {
                    let _policy = span(TelemetryPhase::PolicyCall);
                    policies
                        .autoscaler
                        .scale(core, &*policies.placer, now, sched);
                    policies.shared.maintain(core, now);
                    policies.autoscaler.keep_alive(core, now);
                    policies
                        .migrator
                        .migrate(core, &*policies.placer, now, sched);
                }
                // Retry anything stuck in the backlog. Only active
                // functions can have one (ascending order, as before);
                // dispatching an empty backlog would be a no-op, so those
                // functions are skipped outright.
                {
                    let _rt = span(TelemetryPhase::RoutingScan);
                    for i in 0..core.active_funcs.len() {
                        let f = core.active_funcs[i];
                        if core.pending[f].is_empty() {
                            continue;
                        }
                        policies
                            .router
                            .dispatch(core, &*policies.shared, f, now, sched);
                    }
                }
                // Functions whose state fully decayed leave the active set.
                core.sweep_inactive();
                core.schedule_next_tick(now, sched);
            }
            Event::KeepAlive(_) => { /* handled by the tick sweep */ }
            Event::Fault(target) => {
                core.chaos.fired = true;
                let slices = core.fault_slices(target);
                if slices.is_empty() {
                    // Everything in range is already down (overlapping
                    // fault) — and the matching Repair will be a no-op too.
                    return;
                }
                let mut orphans: Vec<u64> = Vec::new();
                let mut killed_funcs: Vec<FuncId> = Vec::new();
                for sid in slices {
                    // Whoever holds the slice dies with it: an exclusive
                    // (possibly pipelined) instance loses all its stages, a
                    // shared slot is drained and tombstoned. An earlier
                    // iteration may have already killed a pipelined
                    // instance spanning this slice; then only the fleet
                    // state is updated.
                    let owner = core.instances.keys().find(|id| {
                        core.instances[id]
                            .plan
                            .stages
                            .iter()
                            .any(|s| s.slice == sid)
                    });
                    if let Some(id) = owner {
                        killed_funcs.push(core.instances[&id].func);
                        orphans.extend(core.fail_instance(id, now));
                    } else if let Some(slot) = core
                        .pool
                        .slots()
                        .iter()
                        .position(|s| !s.dead && s.slice.id == sid)
                    {
                        orphans.extend(core.fail_shared_slot(slot, now));
                    }
                    if core.fleet.fail_slice(sid).is_ok() {
                        core.chaos.slice_failures += 1;
                        ffs_obs::record(|| ffs_obs::ObsEvent::SliceFailed { slice: sref(sid) });
                    }
                }
                if !matches!(target, FaultTarget::Slice(_)) {
                    for g in core.fault_gpus(target) {
                        core.chaos.gpu_failures += 1;
                        ffs_obs::record(|| ffs_obs::ObsEvent::GpuFailed { gpu: g.0 });
                    }
                }
                // Free slices that failed also change the placement
                // signature (fail_instance/fail_shared_slot already
                // invalidate, but not this case).
                core.plan_cache.invalidate();
                sched.after(
                    SimDuration::from_secs_f64(core.chaos.spec.recovery_secs),
                    Event::Repair(target),
                );
                // Rebuild: each function that lost an instance replans
                // against the surviving free slices (best-ranked partition
                // that still fits — the §5.2 planner, via the signature-
                // keyed plan cache).
                killed_funcs.sort_unstable();
                killed_funcs.dedup();
                for f in killed_funcs {
                    if let Some((plan, node)) = policies.placer.place(core, f) {
                        let stages = plan.stages.len() as u32;
                        let id = core.launch(f, plan, node, now, sched);
                        core.ka[f] = core.ka[f].next_traced(Transition::UtilizationHigh, f as u32);
                        core.chaos.pipeline_rebuilds += 1;
                        ffs_obs::record(|| ffs_obs::ObsEvent::PipelineRebuilt {
                            func: f as u32,
                            inst: id.0,
                            stages,
                        });
                    }
                }
                for req in orphans {
                    core.schedule_retry(req, sched);
                }
            }
            Event::Repair(target) => {
                // Repair is GPU-granular, like real MIG reconfiguration:
                // every GPU of the target with at least one still-failed
                // slice is repartitioned through the NVML mirror (charging
                // the real RECONFIGURE_SECS), then its slices re-enter
                // placement at Recover time. A repair that finds nothing
                // failed (an overlapping fault's earlier recovery already
                // handled it) charges nothing.
                let mut any = false;
                for g in core.fault_gpus(target) {
                    let has_failed = core
                        .fleet
                        .gpu(g)
                        .map(|gpu| gpu.slices().iter().any(|s| s.is_failed()))
                        .unwrap_or(false);
                    if !has_failed {
                        continue;
                    }
                    any = true;
                    if let Some(nvml) = core.chaos.nvml.as_mut() {
                        let local = g.0 as usize % core.cfg.gpus_per_node;
                        let layout = core.cfg.scheme.layout_for(local).clone();
                        match nvml.repartition(g.0, layout) {
                            Ok(secs) => debug_assert_eq!(secs, RECONFIGURE_SECS),
                            Err(e) => debug_assert!(false, "chaos repartition failed: {e:?}"),
                        }
                    }
                }
                if any {
                    sched.after(
                        SimDuration::from_secs(RECONFIGURE_SECS),
                        Event::Recover(target),
                    );
                }
            }
            Event::Recover(target) => {
                // GPU-granular, matching Repair: repartitioning recreated
                // every slice on the GPU, so all of its failed slices come
                // back together (recovery coalescing across overlapping
                // faults — see docs/RESILIENCE.md).
                let mut any = false;
                for g in core.fault_gpus(target) {
                    let failed: Vec<SliceId> = match core.fleet.gpu(g) {
                        Ok(gpu) => gpu
                            .slices()
                            .iter()
                            .filter(|s| s.is_failed())
                            .map(|s| s.id)
                            .collect(),
                        Err(_) => continue,
                    };
                    for sid in failed {
                        if core.fleet.recover_slice(sid).is_ok() {
                            core.chaos.slice_recoveries += 1;
                            any = true;
                            ffs_obs::record(|| ffs_obs::ObsEvent::SliceRecovered {
                                slice: sref(sid),
                            });
                        }
                    }
                }
                if any {
                    core.plan_cache.invalidate();
                }
            }
            Event::Retry(req) => {
                // The request re-enters the controller from stage 0; work
                // it completed on the dead worker is lost (its exec/load
                // accumulators keep the wasted time, so latency reflects
                // the failure).
                let f = core.requests[req as usize].func();
                core.note_arrival(f);
                core.last_use[f] = now;
                core.pending[f].push_back(req);
                let _rt = span(TelemetryPhase::RoutingScan);
                policies
                    .router
                    .dispatch(core, &*policies.shared, f, now, sched);
            }
            // Hot variants are matched in `handle` and never reach the
            // control path.
            _ => unreachable!("handle_control received a hot event"),
        }
    }
}

impl Platform for Engine {
    fn drain(&self) -> SimDuration {
        self.core.cfg.drain
    }

    fn finalize(&mut self, end: SimTime) {
        // `requests` and `hub` are disjoint fields, so the table is walked
        // in place (table order) while the hub logs each abandonment.
        let core = &mut self.core;
        for (id, r) in core.requests.iter().enumerate() {
            if !r.done {
                core.hub.abandon(id as u64, r);
            }
        }
        // Each request is logged exactly once: completed ones when they
        // finished, the rest just above. Checked in release builds too.
        assert_eq!(
            core.hub.log.len(),
            core.requests.len(),
            "request log holds {} records for {} requests",
            core.hub.log.len(),
            core.requests.len()
        );
        // Interval-clamp guard: a fault-free run has no out-of-order
        // interval closes, so every `saturating_since` clamp the cost
        // tracker counted indicates a bookkeeping bug. Checked in release
        // builds too.
        assert!(
            self.core.chaos.enabled || self.core.hub.cost.clamps() == 0,
            "fault-free run clamped {} cost intervals",
            self.core.hub.cost.clamps()
        );
        // A slice works only while allocated, so no GPU's active
        // MIG-seconds may exceed its occupied MIG-seconds. Checked in
        // release builds too.
        let overrun = self.core.hub.cost.active_overrun(end);
        assert!(
            overrun.is_none(),
            "(gpu, active, occupied) MIG time overrun: {overrun:?}"
        );
    }

    fn take_hub(&mut self) -> MetricsHub {
        crate::plancache::note_run_stats(
            self.core.plan_cache.hits(),
            self.core.plan_cache.misses(),
        );
        std::mem::replace(&mut self.core.hub, MetricsHub::detached())
    }

    fn num_gpus(&self) -> usize {
        self.core.fleet.gpu_count()
    }

    fn slices_per_gpu(&self) -> usize {
        self.core
            .fleet
            .gpus()
            .next()
            .map(|(_, g)| g.slices().len())
            .unwrap_or(0)
    }

    fn fault_stats(&self) -> FaultStats {
        let c = &self.core.chaos;
        FaultStats {
            slice_failures: c.slice_failures,
            gpu_failures: c.gpu_failures,
            retries: c.request_retries,
            retries_exhausted: c.retries_exhausted,
            rebuilds: c.pipeline_rebuilds,
            recoveries: c.slice_recoveries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::arena::{arena_stats, store_request_buffer, take_request_buffer};
    use ffs_profile::App;
    use ffs_trace::{AzureTraceConfig, WorkloadClass};

    #[test]
    fn derived_deadlines_match_catalog_slo() {
        let trace = AzureTraceConfig::for_workload(WorkloadClass::Medium, 20.0, 3).generate();
        let core = EngineCore::try_new(FfsConfig::test_small(WorkloadClass::Medium), &trace)
            .unwrap_or_else(|e| panic!("valid setup: {e}"));
        assert_eq!(core.requests.len(), trace.invocations.len());
        assert!(!trace.invocations.is_empty());
        for (r, inv) in core.requests.iter().zip(&trace.invocations) {
            let f = core
                .catalog
                .ids()
                .find(|&f| core.catalog.profile(f).app == inv.app)
                .expect("catalog app");
            assert_eq!(r.func(), f);
            assert_eq!(
                r.deadline(core.slo[f]),
                inv.arrival + SimDuration::from_millis_f64(core.catalog.slo_ms(f)),
                "request {}",
                inv.id
            );
            assert_eq!(r.tenant, inv.tenant);
            assert!(!r.done);
        }
    }

    #[test]
    fn unknown_app_is_an_error_and_returns_the_request_buffer() {
        pool_one_request_buffer();
        // The study catalog does not serve the LLM extension app; its
        // invocations are interleaved with served ones, so the table is
        // partly built when the lookup fails.
        let trace =
            AzureTraceConfig::steady(vec![App::ImageClassification, App::LlmService], 5.0, 4.0, 1)
                .generate();
        let before = arena_stats();
        let Err(err) = EngineCore::try_new(FfsConfig::test_small(WorkloadClass::Medium), &trace)
        else {
            panic!("a trace invoking an uncatalogued app must be rejected");
        };
        assert_eq!(err, EngineError::UnknownApp(App::LlmService));
        assert_buffer_returned(before);
    }

    /// Leaves exactly one known buffer, of capacity 64, in this thread's
    /// request-buffer pool.
    fn pool_one_request_buffer() {
        loop {
            let fresh = arena_stats().fresh;
            let v = take_request_buffer();
            if arena_stats().fresh != fresh {
                break;
            }
            drop(v);
        }
        store_request_buffer(Vec::with_capacity(64));
    }

    /// Asserts the failed build handed its buffer back: the next take
    /// reuses it instead of constructing one.
    fn assert_buffer_returned(before: crate::platform::arena::ArenaStats) {
        let v = take_request_buffer();
        let after = arena_stats();
        assert_eq!(
            after.fresh, before.fresh,
            "the failed build's buffer was pooled"
        );
        assert_eq!(after.reused, before.reused + 2);
        assert!(v.is_empty() && v.capacity() >= 64);
    }

    #[test]
    fn sparse_ids_are_an_error_and_return_the_request_buffer() {
        pool_one_request_buffer();
        let mut trace =
            AzureTraceConfig::steady(vec![App::ImageClassification], 5.0, 4.0, 1).generate();
        assert!(trace.invocations.len() > 4);
        // A gap part-way through: the table is partly built when it fails.
        for inv in &mut trace.invocations[3..] {
            inv.id += 1;
        }
        let before = arena_stats();
        let Err(err) = EngineCore::try_new(FfsConfig::test_small(WorkloadClass::Medium), &trace)
        else {
            panic!("a trace whose ids are not 0..n must be rejected");
        };
        assert_eq!(err, EngineError::SparseIds { index: 3, id: 4 });
        assert_buffer_returned(before);
    }
}
