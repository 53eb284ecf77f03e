//! The FluidFaaS platform: the paper's §5 mechanisms expressed as the
//! FluidFaaS policy bundle over the shared [`engine`](crate::platform::engine) —
//! on-the-fly pipeline construction ([`FluidPlacer`]), hotness-aware
//! eviction-based time sharing ([`FluidSharedPool`]), heterogeneity-aware
//! routing ([`FluidRouter`]), autoscaling with the Fig. 8 keep-alive
//! lineage ([`FluidAutoscaler`]) and pipeline migration ([`FluidMigrator`]).

use ffs_mig::NodeId;
use ffs_pipeline::DeploymentPlan;
use ffs_sim::{Scheduler, SimDuration, SimTime};

use crate::config::{FfsConfig, ScalingPolicy};
use crate::keepalive::{KeepAliveState, Transition};
use crate::platform::catalog::FuncId;
use crate::platform::engine::{sref, EngineCore, MAX_LAUNCHES_PER_TICK};
use crate::platform::events::{Event, InstanceId};
use crate::platform::policy::{
    lowest_latency_instance, route_to_instance, should_overflow_to_shared, Autoscaler, Migrator,
    NoMigrator, NoSharedPool, Placer, PolicyBundle, Router, SharedPoolPolicy,
};

pub use crate::platform::engine::SchedulerLog;

// ----------------------------------------------------------------------
// Routing (§5.3)
// ----------------------------------------------------------------------

/// FluidFaaS routing: lowest-latency exclusive-hot instance first, then
/// overflow to the time-sharing instance only when waiting for exclusive
/// capacity would blow the deadline.
pub struct FluidRouter;

impl Router for FluidRouter {
    fn dispatch(
        &self,
        core: &mut EngineCore,
        shared: &dyn SharedPoolPolicy,
        f: FuncId,
        now: SimTime,
        sched: &mut Scheduler<Event>,
    ) {
        while let Some(&req) = core.pending[f].front() {
            if route_to_exclusive(core, f, req, now, sched) {
                core.pending[f].pop_front();
                continue;
            }
            // Overflow to the time-sharing instance only when waiting for
            // exclusive capacity would blow the deadline (§5.3: hot
            // instances first, "then the remaining requests are routed to
            // the time sharing state instance").
            if should_overflow_to_shared(core, f, req, now) && shared.admit(core, f, now, sched) {
                continue;
            }
            break;
        }
    }
}

/// Routes to the lowest-latency exclusive-hot instance with capacity.
fn route_to_exclusive(
    core: &mut EngineCore,
    f: FuncId,
    req: u64,
    now: SimTime,
    sched: &mut Scheduler<Event>,
) -> bool {
    let slo = core.catalog.slo_ms(f);
    let Some(id) = lowest_latency_instance(core, f, slo) else {
        return false;
    };
    route_to_instance(core, id, req, now, sched);
    true
}

// ----------------------------------------------------------------------
// Eviction-based time sharing (§5.3)
// ----------------------------------------------------------------------

/// The eviction-based time-sharing pool: one resident model per shared
/// slice, LRU eviction to CPU memory, grow on scarcity and overload,
/// shrink when idle.
pub struct FluidSharedPool;

impl SharedPoolPolicy for FluidSharedPool {
    /// Ensures function `f` has a time-sharing binding (creating /
    /// growing the pool as needed) and lets its slot pull pending work.
    fn admit(
        &self,
        core: &mut EngineCore,
        f: FuncId,
        now: SimTime,
        sched: &mut Scheduler<Event>,
    ) -> bool {
        let mem = core.catalog.profile(f).total_mem_gb();
        // Prefer an empty slot, then growing the pool; share (and pay
        // evictions) only when the fleet has no spare slice — eviction-based
        // sharing exists to ride out scarcity, not to thrash under
        // abundance.
        let slot_idx = match core.pool.slot_of(f) {
            Some(i) => i,
            None => {
                if core.pool.empty_fitting(mem).is_none() {
                    // No dedicated slot available: try to grow the pool.
                    let _ = grow_pool(core, f, mem, now);
                }
                match core.pool.bind(f, mem) {
                    Some(i) => i,
                    None => return false,
                }
            }
        };
        core.ka[f] = core.ka[f].next_traced(Transition::RequestArrived, f as u32);
        self.dispatch_slot(core, slot_idx, now, sched)
    }

    /// Starts the most urgent pending request among the slot's bound
    /// functions if the slot is idle, evicting the LRU resident when
    /// needed (§5.3). Requests stay in the shared per-function pending
    /// queue until a worker (exclusive or shared) actually takes them, so
    /// nothing gets stranded behind a slow slice.
    fn dispatch_slot(
        &self,
        core: &mut EngineCore,
        slot_idx: usize,
        now: SimTime,
        sched: &mut Scheduler<Event>,
    ) -> bool {
        if !core.pool.slot(slot_idx).is_free() {
            return false;
        }
        // Most urgent pending head among bound functions (§5.3 ordering:
        // deadline minus estimated execution and load times, ascending).
        // Candidates are scanned by index (no clone of the bound list);
        // exec/load estimates come from the per-(function, profile) tables
        // precomputed at engine construction.
        let slice_profile = core.pool.slot(slot_idx).slice.profile;
        let slice_id = core.pool.slot(slot_idx).slice.id;
        let resident = core.pool.slot(slot_idx).resident;
        let mut best: Option<(i64, FuncId, u64)> = None;
        for i in 0..core.pool.slot(slot_idx).bound.len() {
            let f = core.pool.slot(slot_idx).bound[i];
            let Some(&req) = core.pending[f].front() else {
                continue;
            };
            if !should_overflow_to_shared(core, f, req, now) {
                continue;
            }
            let exec = core.shared_exec_of(f, slice_profile);
            let load = if resident == Some(f) {
                0.0
            } else {
                core.load_all_ms[f]
            };
            let key = core.requests[req as usize].urgency_key(exec, load);
            if best.is_none_or(|(k, _, _)| key < k) {
                best = Some((key, f, req));
            }
        }
        let Some((_, f, req)) = best else {
            return false;
        };
        core.pending[f].pop_front();
        if resident == Some(f) {
            core.start_shared_exec(slot_idx, req, now, sched);
        } else {
            // Evict the resident (→ Warm ④) and reload `f` from CPU.
            let evicted = core.pool.slot_mut(slot_idx).resident.take();
            let mut load_ms = core.load_all_ms[f];
            if let Some(g) = evicted {
                load_ms += core.load_all_ms[g];
                core.ka[g] = core.ka[g].next_traced(Transition::Evicted, g as u32);
                core.sched_log.evictions += 1;
                ffs_obs::record(|| ffs_obs::ObsEvent::Eviction {
                    func: g as u32,
                    reason: ffs_obs::EvictionReason::SliceContention,
                    slice: sref(slice_id),
                });
            }
            core.sched_log.reloads += 1;
            let slot = core.pool.slot_mut(slot_idx);
            slot.loading = Some((f, req));
            core.requests[req as usize].load_ms += load_ms;
            sched.after(
                SimDuration::from_millis_f64(load_ms),
                Event::SharedLoadDone {
                    slot: slot_idx,
                    req,
                },
            );
        }
        true
    }

    fn maintain(&self, core: &mut EngineCore, now: SimTime) {
        // Grow: overloaded slots (deep queues) get help if a slice is free.
        let mut grow_for: Vec<(FuncId, f64)> = Vec::new();
        for idx in 0..core.pool.len() {
            let window = core.cfg.scale_tick;
            let slot = core.pool.slot_mut(idx);
            let util = slot.take_utilization(now, window);
            if util > core.cfg.promote_utilization && slot.queue.len() > 1 {
                if let Some(&f) = slot.bound.first() {
                    let mem = core.catalog.profile(f).total_mem_gb();
                    grow_for.push((f, mem));
                }
            }
        }
        for (f, mem) in grow_for {
            let _ = grow_pool(core, f, mem, now);
        }
        // Shrink: empty unbound slots release their slices. Dead
        // (fault-tombstoned) slots are skipped — their slice is already
        // released and their pool index must stay stable for in-flight
        // shared events.
        let mut idx = 0;
        while idx < core.pool.len() {
            let slot = core.pool.slot(idx);
            if !slot.dead && slot.bound.is_empty() && slot.is_free() && slot.queue.is_empty() {
                let slice = core.pool.remove_slot(idx);
                if core.fleet.release(slice.id).is_ok() {
                    core.hub.slice_released(now, slice.id);
                } else {
                    // Unreachable: a live pool slot owns its allocation.
                    debug_assert!(false, "shared slice was not allocated");
                }
                core.plan_cache.invalidate();
                core.sched_log.pool_shrinks += 1;
                ffs_obs::record(|| ffs_obs::ObsEvent::PoolShrink {
                    slice: sref(slice.id),
                });
            } else {
                idx += 1;
            }
        }
    }
}

/// Adds a free slice that fits `mem` to the shared pool.
pub(crate) fn grow_pool(core: &mut EngineCore, f: FuncId, mem: f64, now: SimTime) -> Option<usize> {
    let mut candidates = core.fleet.free_slices_at_least(None, mem);
    // Smallest slice that fits, deterministic by id.
    candidates.sort_by_key(|s| (s.profile, s.id));
    let pick = *candidates.first()?;
    if core.fleet.allocate(pick.id).is_err() {
        // Unreachable in practice (the free list was just computed), but a
        // stale pick must not take down the run: just skip growing.
        debug_assert!(false, "free-listed slice was not allocatable");
        return None;
    }
    core.plan_cache.invalidate();
    core.hub.slice_allocated(now, pick.id, pick.profile.gpcs());
    core.sched_log.pool_grows += 1;
    ffs_obs::record(|| ffs_obs::ObsEvent::PoolGrow {
        slice: sref(pick.id),
        func: f as u32,
    });
    Some(core.pool.add_slot(pick, now))
}

// ----------------------------------------------------------------------
// Scaling and keep-alive (§5.3, Fig. 8)
// ----------------------------------------------------------------------

/// FluidFaaS autoscaling: reactive or Erlang-C launch pressure, demotion
/// of low-utilization instances (③), and the keep-alive sweep (⑤).
pub struct FluidAutoscaler {
    /// How launch pressure is computed.
    pub policy: ScalingPolicy,
}

impl Autoscaler for FluidAutoscaler {
    fn on_arrival(&self, core: &mut EngineCore, f: FuncId) {
        if core.ka[f] == KeepAliveState::Cold {
            core.ka[f] = core.ka[f].next_traced(Transition::RequestArrived, f as u32);
            // ①
        }
    }

    fn scale(
        &self,
        core: &mut EngineCore,
        placer: &dyn Placer,
        now: SimTime,
        sched: &mut Scheduler<Event>,
    ) {
        // Resource pressure from starving functions bypasses the demote
        // hysteresis: the paper's transition ③ (utilization below 30% →
        // time sharing) exists precisely so lightly-used exclusive slices
        // are reclaimable for others.
        let starving = !core.starving_funcs().is_empty();
        // Demote-candidate scratch, reused across functions.
        let mut ids: Vec<InstanceId> = Vec::new();
        // Dirty-set scan: an inactive function has zero demand, an empty
        // backlog and no instances, so neither scale-up pressure nor the
        // demote sweep can fire for it. Ascending order as before.
        for fi in 0..core.active_funcs.len() {
            let f = core.active_funcs[fi];
            // Scale up per the configured policy.
            for _ in 0..MAX_LAUNCHES_PER_TICK {
                let pressured = match self.policy {
                    ScalingPolicy::Reactive => {
                        // Reactive: demand exceeds capacity headroom or a
                        // backlog persists. The epsilon floor matters: the
                        // demand EWMA decays geometrically and never reaches
                        // exactly zero, so without it an idle function would
                        // oscillate between retiring its last instance and
                        // relaunching it.
                        let cap = core.capacity_rps(f);
                        core.demand_rps[f] > (cap * core.cfg.scaleup_headroom).max(1e-6)
                            || core.pending[f].len() > 1
                    }
                    ScalingPolicy::ErlangC { target_wait_frac } => {
                        core.erlang_pressure(f, target_wait_frac)
                    }
                };
                if !pressured {
                    break;
                }
                if !launch_exclusive(core, placer, f, now, sched) {
                    break;
                }
            }
            // Demote (③): low-utilization idle exclusive instances retire;
            // the function falls back to its time-sharing lineage. The
            // per-function id index is in ascending-id order — the same
            // order the instance-map filter produced.
            ids.clear();
            ids.extend(
                core.instances_of[f]
                    .iter()
                    .copied()
                    .filter(|id| core.instances[id].is_ready()),
            );
            for &id in &ids {
                let window = core.cfg.scale_tick;
                let Some(inst) = core.instances.get_mut(&id) else {
                    // The id list was snapshotted above; nothing in this
                    // loop retires other instances, but stay total.
                    continue;
                };
                let (util, empty, throughput, idle_for) = {
                    let idle_for = now.saturating_since(inst.last_used);
                    (
                        inst.take_utilization(now, window),
                        inst.is_empty(),
                        inst.est.throughput_rps,
                        idle_for,
                    )
                };
                if util < core.cfg.demote_utilization
                    && empty
                    && (idle_for >= core.cfg.exclusive_idle_grace || starving)
                {
                    let remaining = core.capacity_rps(f) - throughput;
                    let target = core.demand_rps[f] / core.cfg.scaleup_headroom;
                    if remaining >= target || core.demand_rps[f] < 1e-6 {
                        core.retire_instance(id, now);
                    }
                }
            }
        }
    }

    fn keep_alive(&self, core: &mut EngineCore, now: SimTime) {
        // Dirty-set scan: inactive functions are Cold, and Cold lineages
        // never match the TimeSharing|Warm expiry guard.
        for fi in 0..core.active_funcs.len() {
            let f = core.active_funcs[fi];
            let idle = now.saturating_since(core.last_use[f]);
            if idle >= core.cfg.keep_alive
                && matches!(
                    core.ka[f],
                    KeepAliveState::TimeSharing | KeepAliveState::Warm
                )
            {
                // ⑤: terminate to cold; unbind from the shared pool. If the
                // model was still resident on its shared slice, this expiry
                // is also an eviction (data dropped from GPU memory).
                if ffs_obs::enabled() && core.ka[f] == KeepAliveState::TimeSharing {
                    if let Some(slot_idx) = core.pool.slot_of(f) {
                        if core.pool.slot(slot_idx).resident == Some(f) {
                            let sid = core.pool.slot(slot_idx).slice.id;
                            ffs_obs::record(|| ffs_obs::ObsEvent::Eviction {
                                func: f as u32,
                                reason: ffs_obs::EvictionReason::KeepAliveExpired,
                                slice: sref(sid),
                            });
                        }
                    }
                }
                core.ka[f] = core.ka[f].next_traced(Transition::IdleTimeout, f as u32);
                core.pool.unbind(f);
                core.sched_log.cold_terminations += 1;
            }
        }
    }
}

/// Places and launches one exclusive-hot instance for `f`, marking the
/// keep-alive lineage hot (②). Returns false if no node can host a plan.
pub fn launch_exclusive(
    core: &mut EngineCore,
    placer: &dyn Placer,
    f: FuncId,
    now: SimTime,
    sched: &mut Scheduler<Event>,
) -> bool {
    let Some((plan, node)) = placer.place(core, f) else {
        return false;
    };
    core.launch(f, plan, node, now, sched);
    core.ka[f] = core.ka[f].next_traced(Transition::UtilizationHigh, f as u32); // ② lineage is hot
    true
}

// ----------------------------------------------------------------------
// Placement (§5.2)
// ----------------------------------------------------------------------

/// On-the-fly pipeline construction: per node, the best (CV-ranked or
/// first-feasible) partition that fits the free slices; across nodes,
/// prefer fewer stages, then lower CV.
pub struct FluidPlacer {
    /// CV-ranked partition search (the paper's §5.2) vs
    /// first-feasible-in-enumeration-order (ablation).
    pub ranked: bool,
}

impl Placer for FluidPlacer {
    fn place(&self, core: &mut EngineCore, f: FuncId) -> Option<(DeploymentPlan, NodeId)> {
        // Split borrows: the plan cache mutates while the fleet and catalog
        // are only read, so the lookup key comes from the incrementally
        // maintained node signature and the free-slice list is materialized
        // only on a cache miss.
        let EngineCore {
            plan_cache,
            fleet,
            catalog,
            ..
        } = core;
        let profile = catalog.profile(f);
        let mut chosen: Option<DeploymentPlan> = None;
        let mut chosen_node = None;
        for i in 0..fleet.node_count() {
            let node = fleet.nodes()[i].id;
            let sig = fleet.node_signature(node);
            let plan = plan_cache.plan_with_signature(f, node, self.ranked, profile, sig, || {
                fleet.free_slices(Some(node))
            });
            if let Some(p) = plan {
                let better = match &chosen {
                    None => true,
                    // Prefer fewer stages (cheaper), then lower CV.
                    Some(c) => (p.num_stages(), p.cv) < (c.num_stages(), c.cv),
                };
                if better {
                    chosen = Some(p);
                    chosen_node = Some(node);
                }
            }
        }
        let (Some(plan), Some(node)) = (chosen, chosen_node) else {
            return None;
        };
        // The invoker's decision record (§5.2): only assembled when tracing
        // is live — `explain_plan` re-walks the CV-ranked list, which must
        // not perturb the disabled hot path.
        if ffs_obs::enabled() {
            let free = core.fleet.free_slices(Some(node));
            let sig = crate::plancache::slice_signature(&free);
            let explanation =
                ffs_pipeline::explain_plan(profile, &free, &plan, profile.ranked_partitions());
            ffs_obs::record(|| ffs_obs::ObsEvent::PlanDecision {
                func: f as u32,
                node: node.0,
                free_signature: sig,
                chosen_rank: explanation.chosen_rank,
                stages: plan.num_stages() as u32,
                cv: plan.cv,
                gpcs: plan.total_gpcs(),
                rejected: explanation.rejected,
            });
        }
        Some((plan, node))
    }
}

// ----------------------------------------------------------------------
// Pipeline migration (§5.3)
// ----------------------------------------------------------------------

/// Pipeline migration: when a monolithic deployment becomes possible,
/// launch it and drain the pipelined instance (at most one per tick).
pub struct FluidMigrator;

impl Migrator for FluidMigrator {
    fn migrate(
        &self,
        core: &mut EngineCore,
        placer: &dyn Placer,
        now: SimTime,
        sched: &mut Scheduler<Event>,
    ) {
        let candidates: Vec<InstanceId> = core
            .instances
            .values()
            .filter(|i| i.is_ready() && !i.plan.is_monolithic())
            .map(|i| i.id)
            .collect();
        for id in candidates {
            let Some(f) = core.instances.get(&id).map(|i| i.func) else {
                continue;
            };
            // A monolithic plan on currently free slices? (Always the
            // ranked planner: monolithic ranks first regardless.) Probed
            // through the incremental node signature; the slice list is
            // only materialized on a cache miss.
            let mut mono_possible = false;
            {
                let EngineCore {
                    plan_cache,
                    fleet,
                    catalog,
                    ..
                } = &mut *core;
                let profile = catalog.profile(f);
                for i in 0..fleet.node_count() {
                    let node = fleet.nodes()[i].id;
                    let sig = fleet.node_signature(node);
                    if plan_cache.monolithic_possible_with_signature(f, node, profile, sig, || {
                        fleet.free_slices(Some(node))
                    }) {
                        mono_possible = true;
                        break;
                    }
                }
            }
            if mono_possible && launch_exclusive(core, placer, f, now, sched) {
                core.sched_log.migrations += 1;
                ffs_obs::record(|| ffs_obs::ObsEvent::MigrationStarted {
                    func: f as u32,
                    drained: id.0,
                });
                if core.instances.get(&id).is_some() {
                    core.instances
                        .set_phase(&id, crate::instance::Phase::Draining);
                    if core.instances[&id].is_empty() {
                        core.retire_instance(id, now);
                    }
                }
                // One migration per tick keeps churn bounded.
                break;
            }
        }
    }
}

// ----------------------------------------------------------------------
// The platform
// ----------------------------------------------------------------------

/// The FluidFaaS policy bundle a config selects: the ablation booleans map
/// to explicit policy substitutions (`enable_time_sharing` → shared pool
/// on/off, `enable_migration` → migrator on/off, `enable_cv_ranking` →
/// ranked vs first-feasible placement, `scaling_policy` → autoscaler).
pub fn paper_policies(cfg: &FfsConfig) -> PolicyBundle {
    PolicyBundle {
        router: Box::new(FluidRouter),
        shared: if cfg.enable_time_sharing {
            Box::new(FluidSharedPool)
        } else {
            Box::new(NoSharedPool)
        },
        autoscaler: Box::new(FluidAutoscaler {
            policy: cfg.scaling_policy,
        }),
        migrator: if cfg.enable_migration {
            Box::new(FluidMigrator)
        } else {
            Box::new(NoMigrator)
        },
        placer: Box::new(FluidPlacer {
            ranked: cfg.enable_cv_ranking,
        }),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::platform::engine::Engine;
    use crate::platform::runner::run_platform;
    use ffs_trace::{AzureTraceConfig, Trace, WorkloadClass};

    fn paper_engine(cfg: FfsConfig, trace: &Trace) -> Engine {
        let policies = paper_policies(&cfg);
        Engine::new(cfg, policies, trace).unwrap()
    }

    fn run(workload: WorkloadClass, secs: f64, seed: u64) -> crate::platform::runner::RunOutput {
        let cfg = FfsConfig::paper_default(workload);
        let trace = AzureTraceConfig::for_workload(workload, secs, seed).generate();
        run_platform(&mut paper_engine(cfg, &trace), &trace)
    }

    #[test]
    fn light_workload_meets_slos() {
        let out = run(WorkloadClass::Light, 120.0, 1);
        assert!(
            out.log.slo_hit_rate() > 0.9,
            "light workload hit rate {}",
            out.log.slo_hit_rate()
        );
        assert!(out.log.len() > 100);
    }

    #[test]
    fn medium_workload_completes_most_requests() {
        let out = run(WorkloadClass::Medium, 60.0, 2);
        let completed = out
            .log
            .records()
            .iter()
            .filter(|r| r.completed.is_some())
            .count();
        assert!(
            completed as f64 / out.log.len() as f64 > 0.9,
            "completed {completed}/{}",
            out.log.len()
        );
    }

    #[test]
    fn deterministic_runs() {
        let a = run(WorkloadClass::Medium, 30.0, 3);
        let b = run(WorkloadClass::Medium, 30.0, 3);
        assert_eq!(a.log.slo_hit_rate(), b.log.slo_hit_rate());
        assert_eq!(a.log.len(), b.log.len());
        assert_eq!(a.cost.total_gpu_time_secs(), b.cost.total_gpu_time_secs());
    }

    #[test]
    fn instances_scale_up_under_load_and_release_after() {
        let mut cfg = FfsConfig::paper_default(WorkloadClass::Light);
        // Shorten the demote hysteresis so the 60 s drain window is enough
        // to observe the release path.
        cfg.exclusive_idle_grace = ffs_sim::SimDuration::from_secs(15);
        let trace = AzureTraceConfig::steady(WorkloadClass::Light.apps(), 30.0, 20.0, 5).generate();
        let mut sys = paper_engine(cfg, &trace);
        let out = run_platform(&mut sys, &trace);
        // After the drain window everything idle demotes and releases.
        assert_eq!(sys.core.fleet.allocated_gpcs(), sys_pool_gpcs(&sys));
        assert!(out.log.slo_hit_rate() > 0.8);
    }

    #[test]
    fn serve_mix_tracks_paths() {
        let cfg = FfsConfig::paper_default(WorkloadClass::Heavy);
        let trace = AzureTraceConfig::for_workload(WorkloadClass::Heavy, 60.0, 4).generate();
        let mut sys = paper_engine(cfg, &trace);
        let _ = run_platform(&mut sys, &trace);
        let (mono, pipe, shared) = sys.core.serve_mix();
        assert!(mono > 0, "4g monoliths serve requests");
        assert!(pipe > 0, "fragment pipelines serve requests");
        let _ = shared;
    }

    #[test]
    fn scheduler_log_reflects_mechanisms() {
        // Heavy: pipelines must launch; light: none.
        let cfg = FfsConfig::paper_default(WorkloadClass::Heavy);
        let trace = AzureTraceConfig::for_workload(WorkloadClass::Heavy, 60.0, 4).generate();
        let mut sys = paper_engine(cfg, &trace);
        let _ = run_platform(&mut sys, &trace);
        let log = sys.core.sched_log;
        assert!(log.launches > 0);
        assert!(log.pipeline_launches > 0, "{log:?}");
        assert!(log.pipeline_launches <= log.launches);

        let cfg = FfsConfig::paper_default(WorkloadClass::Light);
        let trace = AzureTraceConfig::for_workload(WorkloadClass::Light, 60.0, 4).generate();
        let mut sys = paper_engine(cfg, &trace);
        let _ = run_platform(&mut sys, &trace);
        let log = sys.core.sched_log;
        assert_eq!(log.pipeline_launches, 0, "{log:?}");
        assert!(log.launches > 0);
        // The drain window demotes idle instances.
        assert!(log.retirements > 0, "{log:?}");
    }

    fn sys_pool_gpcs(sys: &Engine) -> u32 {
        sys.core
            .pool
            .slots()
            .iter()
            .map(|s| s.slice.profile.gpcs())
            .sum()
    }

    #[test]
    fn cold_function_transitions_through_fig8() {
        let cfg = FfsConfig::paper_default(WorkloadClass::Light);
        let trace = AzureTraceConfig::for_workload(WorkloadClass::Light, 20.0, 9).generate();
        let mut sys = paper_engine(cfg, &trace);
        for f in sys.core.catalog.ids() {
            assert_eq!(sys.core.ka[f], KeepAliveState::Cold);
        }
        let _ = run_platform(&mut sys, &trace);
        // After the run every lineage must be in a legal state.
        for f in sys.core.catalog.ids() {
            let s = sys.core.ka[f];
            assert!(
                matches!(
                    s,
                    KeepAliveState::Cold
                        | KeepAliveState::Warm
                        | KeepAliveState::TimeSharing
                        | KeepAliveState::ExclusiveHot
                ),
                "{s:?}"
            );
        }
    }
}
