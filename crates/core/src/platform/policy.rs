//! Scheduling policy traits: the per-mechanism decision points the shared
//! [`engine`](super::engine) delegates to.
//!
//! The engine owns the event loop, the request table, the MIG fleet, the
//! metrics hub and the `ffs-obs` recorder hooks; everything *discretionary*
//! — which instance serves a request, when a request overflows to time
//! sharing, how the shared pool grows and evicts, when instances launch
//! and retire, and when pipelines migrate — is a policy behind one of the
//! traits below. A platform (FluidFaaS, ESG, INFless, or an ablation arm)
//! is just a [`PolicyBundle`] over the engine.
//!
//! Adding a new scheduler means implementing the traits whose decisions
//! differ and reusing the stock implementations for the rest; see
//! `docs/ARCHITECTURE.md` for a walkthrough.

use ffs_mig::NodeId;
use ffs_pipeline::DeploymentPlan;
use ffs_sim::{Scheduler, SimTime};

use super::catalog::FuncId;
use super::engine::EngineCore;
use super::events::{Event, InstanceId};
use super::slab::{InstanceSlab, PhaseTag};

/// Request routing (§5.3): drains a function's backlog onto instances and,
/// per policy, overflows to the time-sharing pool.
pub trait Router: Send {
    /// Routes as many pending requests of `f` as can start now. Policies
    /// that support time sharing hand overflow work to `shared`.
    fn dispatch(
        &self,
        core: &mut EngineCore,
        shared: &dyn SharedPoolPolicy,
        f: FuncId,
        now: SimTime,
        sched: &mut Scheduler<Event>,
    );
}

/// The eviction-based time-sharing pool (§5.3): slot binding, LRU
/// eviction, and pool grow/shrink.
pub trait SharedPoolPolicy: Send {
    /// Admits a pending request of `f` into the shared pool, binding the
    /// function (and growing the pool) as needed. Returns true if a
    /// request was taken off the pending queue.
    fn admit(
        &self,
        core: &mut EngineCore,
        f: FuncId,
        now: SimTime,
        sched: &mut Scheduler<Event>,
    ) -> bool;

    /// Lets an idle slot pull its most urgent eligible request, evicting
    /// the resident model when necessary. Returns true if work started.
    fn dispatch_slot(
        &self,
        core: &mut EngineCore,
        slot: usize,
        now: SimTime,
        sched: &mut Scheduler<Event>,
    ) -> bool;

    /// Per-tick maintenance: grow overloaded slots, shrink idle ones.
    fn maintain(&self, core: &mut EngineCore, now: SimTime);
}

/// Exclusive-instance scaling (§5.3): launch pressure, demotion /
/// retirement, and the Fig. 8 keep-alive transitions.
pub trait Autoscaler: Send {
    /// Arrival hook: keep-alive lineage transitions driven by demand.
    fn on_arrival(&self, core: &mut EngineCore, f: FuncId);

    /// Scale tick: launch instances under pressure (placement delegated to
    /// `placer`) and retire instances the policy deems surplus.
    fn scale(
        &self,
        core: &mut EngineCore,
        placer: &dyn Placer,
        now: SimTime,
        sched: &mut Scheduler<Event>,
    );

    /// Keep-alive sweep: Fig. 8 ⑤ idle expiries to cold.
    fn keep_alive(&self, core: &mut EngineCore, now: SimTime);
}

/// Pipeline→monolithic migration (§5.3).
pub trait Migrator: Send {
    /// Probes for migration opportunities and starts at most as many as
    /// the policy allows per tick.
    fn migrate(
        &self,
        core: &mut EngineCore,
        placer: &dyn Placer,
        now: SimTime,
        sched: &mut Scheduler<Event>,
    );
}

/// Instance placement: chooses the deployment plan (and host node) for one
/// new exclusive instance.
pub trait Placer: Send {
    /// The plan for a new instance of `f` on the current fleet state, or
    /// `None` if no node can host one.
    fn place(&self, core: &mut EngineCore, f: FuncId) -> Option<(DeploymentPlan, NodeId)>;
}

/// The full policy complement a platform runs with.
pub struct PolicyBundle {
    /// Request routing.
    pub router: Box<dyn Router>,
    /// Time-sharing pool behaviour.
    pub shared: Box<dyn SharedPoolPolicy>,
    /// Exclusive-instance scaling.
    pub autoscaler: Box<dyn Autoscaler>,
    /// Pipeline migration.
    pub migrator: Box<dyn Migrator>,
    /// Instance placement.
    pub placer: Box<dyn Placer>,
}

/// A disabled time-sharing pool: admits nothing and maintains nothing.
/// Used by the monolithic baselines and the `no-time-sharing` ablation.
pub struct NoSharedPool;

impl SharedPoolPolicy for NoSharedPool {
    fn admit(
        &self,
        _core: &mut EngineCore,
        _f: FuncId,
        _now: SimTime,
        _sched: &mut Scheduler<Event>,
    ) -> bool {
        false
    }

    fn dispatch_slot(
        &self,
        _core: &mut EngineCore,
        _slot: usize,
        _now: SimTime,
        _sched: &mut Scheduler<Event>,
    ) -> bool {
        false
    }

    fn maintain(&self, _core: &mut EngineCore, _now: SimTime) {}
}

/// A disabled migrator: never moves a pipeline. Used by the baselines and
/// the `no-migration` ablation.
pub struct NoMigrator;

impl Migrator for NoMigrator {
    fn migrate(
        &self,
        _core: &mut EngineCore,
        _placer: &dyn Placer,
        _now: SimTime,
        _sched: &mut Scheduler<Event>,
    ) {
    }
}

/// Routes `req` onto instance `id`: enqueue at stage 0 and kick the stage.
/// The caller removes `req` from the function's pending queue.
pub fn route_to_instance(
    core: &mut EngineCore,
    id: InstanceId,
    req: u64,
    now: SimTime,
    sched: &mut Scheduler<Event>,
) {
    // Routers only pass ids they just read from the routing index, and
    // nothing retires an instance between the read and this call; stay total
    // anyway so a policy bug degrades to a dropped route, not a crash.
    if !core.instances.admit(id, req, now) {
        debug_assert!(false, "routed to a retired instance");
        return;
    }
    core.try_start_stage(id, 0, now, sched);
}

/// The lowest-latency instance of `f` with admission capacity (the
/// deadline-aware chooser shared by FluidFaaS and ESG routing).
///
/// Reads the slab's routing index — the maintained per-function list of
/// admissible instances — so the scan is O(candidates) rather than a
/// filter over every instance of `f`. The index is ascending by id and
/// the argmin uses strict `<`, so the first-best tie winner is identical
/// to the full scan's ([`lowest_latency_full_scan`], `debug_assert`ed
/// equal here and pinned by `proptest_route_index`). The SLO admission
/// bound is precomputed per instance (SLO and bottleneck are both fixed at
/// launch).
pub fn lowest_latency_instance(core: &EngineCore, f: FuncId) -> Option<InstanceId> {
    let mut best: Option<(InstanceId, f64)> = None;
    for &idx in core.instances.admissible_of(f) {
        let id = InstanceId(idx as u64);
        let lat = core.instances.latency_ms_of(id);
        let better = match best {
            None => true,
            Some((_, best_lat)) => lat < best_lat,
        };
        if better {
            best = Some((id, lat));
        }
    }
    let chosen = best.map(|(id, _)| id);
    debug_assert_eq!(
        chosen,
        lowest_latency_full_scan(core, f),
        "routing index disagrees with the full scan for function {f}"
    );
    chosen
}

/// The reference full scan [`lowest_latency_instance`] replaced: filter
/// every instance of `f` by admission capacity, argmin latency with
/// strict `<` (ascending ids make the first best the lowest-id winner).
/// Kept as the executable specification of the routing index — the
/// `debug_assert` above and `proptest_route_index` compare against it.
pub fn lowest_latency_full_scan(core: &EngineCore, f: FuncId) -> Option<InstanceId> {
    let mut best: Option<(InstanceId, f64)> = None;
    for &id in core.instances.ids_of(f) {
        if core.instances.has_admission_capacity(id) {
            let lat = core.instances.latency_ms_of(id);
            let better = match best {
                None => true,
                Some((_, best_lat)) => lat < best_lat,
            };
            if better {
                best = Some((id, lat));
            }
        }
    }
    best.map(|(id, _)| id)
}

/// Aggregate view of a function's non-draining exclusive fleet, the input
/// of the overflow-to-shared decision (§5.3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExclusiveView {
    /// Ready instances.
    pub ready: usize,
    /// Instances still cold-starting.
    pub launching: usize,
    /// In-flight plus queued requests across the ready instances.
    pub occupancy: usize,
    /// Best (lowest) bottleneck stage time among ready instances (ms);
    /// infinity when none is ready.
    pub best_bottleneck_ms: f64,
    /// Best (lowest) end-to-end latency among ready instances (ms);
    /// infinity when none is ready.
    pub best_latency_ms: f64,
}

impl ExclusiveView {
    /// The view of a function with no exclusive instance.
    pub const EMPTY: ExclusiveView = ExclusiveView {
        ready: 0,
        launching: 0,
        occupancy: 0,
        best_bottleneck_ms: f64::INFINITY,
        best_latency_ms: f64::INFINITY,
    };
}

/// Summarizes `f`'s exclusive fleet for [`overflow_decision`].
///
/// Reads the slab's maintained per-function summary in O(1) instead of
/// scanning every instance of `f`; the scan it replaced is
/// [`exclusive_view_scan`], `debug_assert`ed equal here and pinned by
/// `proptest_route_index`.
#[inline]
pub fn exclusive_view(core: &EngineCore, f: FuncId) -> ExclusiveView {
    let v = core.instances.exclusive_view(f);
    debug_assert_eq!(
        v,
        exclusive_view_scan(&core.instances, core.instances.ids_of(f)),
        "exclusive-fleet summary disagrees with the scan for function {f}"
    );
    v
}

/// The reference scan [`exclusive_view`] replaced: fold the hot columns
/// of `ids` (one function's instances, ascending) into a view. Kept as
/// the executable specification of the slab's summary.
pub fn exclusive_view_scan(slab: &InstanceSlab, ids: &[InstanceId]) -> ExclusiveView {
    let mut v = ExclusiveView::EMPTY;
    for &id in ids {
        match slab.phase_tag(id) {
            PhaseTag::Ready => {
                v.ready += 1;
                v.occupancy += slab.occupancy_of(id) as usize;
                v.best_bottleneck_ms = v.best_bottleneck_ms.min(slab.bottleneck_ms_of(id));
                v.best_latency_ms = v.best_latency_ms.min(slab.latency_ms_of(id));
            }
            PhaseTag::Launching => v.launching += 1,
            PhaseTag::Draining | PhaseTag::Empty => {}
        }
    }
    v
}

/// The pure overflow rule (§5.3): a request overflows to time sharing when
/// no exclusive instance will exist soon, or when the estimated wait for
/// exclusive capacity exceeds the request's remaining slack.
/// `slack_budget_ms` is the time from now until the request's deadline.
pub fn overflow_decision(view: &ExclusiveView, slack_budget_ms: f64) -> bool {
    if view.ready == 0 {
        // Nothing serving yet. If replacements are launching, a short
        // wait beats an eviction-reload on the shared slice.
        return view.launching == 0;
    }
    let wait_ms = view.occupancy as f64 * view.best_bottleneck_ms / view.ready as f64;
    let slack_ms = slack_budget_ms - view.best_latency_ms;
    wait_ms > slack_ms
}

/// [`overflow_decision`] applied to the live engine state for request
/// `req` of function `f`.
pub fn should_overflow_to_shared(core: &EngineCore, f: FuncId, req: u64, now: SimTime) -> bool {
    let view = exclusive_view(core, f);
    // With nothing ready the rule ignores the slack budget, so the request
    // record (cold under a deep backlog) is only read when it matters.
    let budget_ms = if view.ready == 0 {
        0.0
    } else {
        core.requests[req as usize]
            .deadline(core.slo[f])
            .saturating_since(now)
            .as_secs_f64()
            * 1_000.0
    };
    overflow_decision(&view, budget_ms)
}
