//! Outside-in layer tracing: spans the benchmark opens around its calls
//! into each layer's public functions.
//!
//! Nothing inside the program is instrumented. A [`Traced`] engine
//! implements `World` by forwarding only `handle` (the dispatch path
//! `FluidFaaSSystem` and `MonolithicSystem` take), so every event passes
//! through one span named after its `Event` variant; [`decorate`] wraps
//! every member of a `PolicyBundle` the same way. Spans keep a
//! thread-local stack, so a span's *self* time excludes the spans nested
//! in it (an autoscaler tick minus the placements it asked for).
//!
//! Spans read `ffs_telemetry::clock::now_cycles`. [`span_cost_cycles`]
//! measures what one span costs, so the traced wall can be reconciled
//! against the untraced one.

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;

use ffs_mig::NodeId;
use ffs_pipeline::DeploymentPlan;
use ffs_sim::{Scheduler, SimDuration, SimTime, World};
use ffs_telemetry::clock::now_cycles;
use ffs_trace::{CellTrace, Trace};
use fluidfaas::platform::runner::run_platform;
use fluidfaas::platform::{
    Autoscaler, Engine, EngineCore, EngineError, Event, FaultStats, FuncId, MetricsHub, Migrator,
    Placer, Platform, PolicyBundle, Router, RunOutput, ShardRunStats, SharedPoolPolicy,
};
use fluidfaas::{paper_policies, run_sharded, FfsConfig, ShardSpec};

/// Everything a span can be opened around.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    /// One simulation run, end to end (the root span).
    Run,
    /// `Engine::new`.
    EngineNew,
    /// `run_platform` (or `run_sharded`).
    Platform,
    /// `Event::Arrival` through `Engine::handle`.
    Arrival,
    /// `Event::InstanceReady`.
    InstanceReady,
    /// `Event::StageDone`.
    StageDone,
    /// `Event::TransferDone`.
    TransferDone,
    /// `Event::SharedLoadDone`.
    SharedLoadDone,
    /// `Event::SharedDone`.
    SharedDone,
    /// Every other variant: ticks, keep-alive, faults, retries.
    Control,
    /// `Platform::finalize`.
    Finalize,
    /// `Platform::take_hub`.
    TakeHub,
    /// `Router::dispatch`.
    RouterDispatch,
    /// `SharedPoolPolicy::admit`.
    SharedAdmit,
    /// `SharedPoolPolicy::dispatch_slot`.
    SharedDispatch,
    /// `SharedPoolPolicy::maintain`.
    SharedMaintain,
    /// `Autoscaler::on_arrival`.
    AutoscalerOnArrival,
    /// `Autoscaler::scale`.
    AutoscalerScale,
    /// `Autoscaler::keep_alive`.
    AutoscalerKeepAlive,
    /// `Migrator::migrate`.
    MigratorMigrate,
    /// `Placer::place`.
    PlacerPlace,
    /// The per-run simulated-metrics summary (`ffs-metrics`).
    Summary,
}

/// Number of [`Slot`]s.
pub const SLOTS: usize = Slot::Summary as usize + 1;

impl Slot {
    /// The event-handler slots, one per `Event` variant group.
    pub const HANDLERS: [Slot; 7] = [
        Slot::Arrival,
        Slot::InstanceReady,
        Slot::StageDone,
        Slot::TransferDone,
        Slot::SharedLoadDone,
        Slot::SharedDone,
        Slot::Control,
    ];

    /// The policy-call slots, one per `PolicyBundle` trait method.
    pub const POLICIES: [Slot; 9] = [
        Slot::RouterDispatch,
        Slot::SharedAdmit,
        Slot::SharedDispatch,
        Slot::SharedMaintain,
        Slot::AutoscalerOnArrival,
        Slot::AutoscalerScale,
        Slot::AutoscalerKeepAlive,
        Slot::MigratorMigrate,
        Slot::PlacerPlace,
    ];

    /// The metric-name fragment of a handler or policy slot.
    pub fn name(self) -> &'static str {
        match self {
            Slot::Run => "run",
            Slot::EngineNew => "engine_new",
            Slot::Platform => "platform",
            Slot::Arrival => "arrival",
            Slot::InstanceReady => "instance_ready",
            Slot::StageDone => "stage_done",
            Slot::TransferDone => "transfer_done",
            Slot::SharedLoadDone => "shared_load_done",
            Slot::SharedDone => "shared_done",
            Slot::Control => "control",
            Slot::Finalize => "finalize",
            Slot::TakeHub => "take_hub",
            Slot::RouterDispatch => "router_dispatch",
            Slot::SharedAdmit => "shared_admit",
            Slot::SharedDispatch => "shared_dispatch_slot",
            Slot::SharedMaintain => "shared_maintain",
            Slot::AutoscalerOnArrival => "autoscaler_on_arrival",
            Slot::AutoscalerScale => "autoscaler_scale",
            Slot::AutoscalerKeepAlive => "autoscaler_keep_alive",
            Slot::MigratorMigrate => "migrator_migrate",
            Slot::PlacerPlace => "placer_place",
            Slot::Summary => "summary",
        }
    }

    /// The handler slot of an event, matched on its variant.
    fn of_event(ev: &Event) -> Slot {
        match ev {
            Event::Arrival(_) => Slot::Arrival,
            Event::InstanceReady(_) => Slot::InstanceReady,
            Event::StageDone { .. } => Slot::StageDone,
            Event::TransferDone { .. } => Slot::TransferDone,
            Event::SharedLoadDone { .. } => Slot::SharedLoadDone,
            Event::SharedDone { .. } => Slot::SharedDone,
            Event::ScaleTick
            | Event::KeepAlive(_)
            | Event::Fault(_)
            | Event::Repair(_)
            | Event::Recover(_)
            | Event::Retry(_) => Slot::Control,
        }
    }

    fn is_policy(self) -> bool {
        Slot::POLICIES.contains(&self)
    }
}

/// What one slot's spans recorded.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SlotStats {
    /// Spans closed.
    pub calls: u64,
    /// Cycles inside the spans, children included.
    pub incl: u64,
    /// Cycles inside the spans minus their children.
    pub self_cycles: u64,
    /// Spans opened directly inside these spans. Opening and closing a
    /// child costs its parent about one span cost of self time, which
    /// [`Profile::self_ns`] takes back out.
    pub child_spans: u64,
}

/// What the spans recorded on one thread since the last [`take_profile`].
/// A slot's counters share one cache line, so closing a span touches as
/// little memory as possible.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Profile {
    /// Per-slot counters, indexed by [`Slot`].
    pub slots: [SlotStats; SLOTS],
    /// `Placer::place` calls that returned `None`.
    pub placer_none: u64,
    /// Start of the first policy span after [`arm_first_policy`].
    pub first_policy_at: Option<u64>,
}

impl Profile {
    /// Calls of one slot.
    pub fn calls(&self, slot: Slot) -> u64 {
        self.slots[slot as usize].calls
    }

    /// Inclusive cycles of one slot.
    pub fn incl(&self, slot: Slot) -> u64 {
        self.slots[slot as usize].incl
    }

    /// Spans closed, all slots.
    pub fn spans(&self) -> u64 {
        self.slots.iter().map(|s| s.calls).sum()
    }

    /// Self time of one slot in nanoseconds, less `span_cost` cycles for
    /// every child span it opened.
    pub fn self_ns(&self, slot: Slot, span_cost: f64) -> f64 {
        let s = &self.slots[slot as usize];
        let cycles = s.self_cycles as f64 - s.child_spans as f64 * span_cost;
        cycles.max(0.0) / ffs_telemetry::clock::cycles_per_sec() * 1e9
    }
}

struct Frame {
    slot: Slot,
    start: u64,
    child: u64,
    children: u64,
}

#[derive(Default)]
struct Recorder {
    profile: Profile,
    stack: Vec<Frame>,
    armed: bool,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// An open span; closing it (on drop) charges its slot.
pub struct Span {
    // Spans live on the thread-local stack of the thread that opened them.
    _not_send: PhantomData<*const ()>,
}

/// Opens a span on `slot`.
#[inline]
pub fn span(slot: Slot) -> Span {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let start = now_cycles();
        if r.armed && slot.is_policy() {
            r.armed = false;
            r.profile.first_policy_at = Some(start);
        }
        r.stack.push(Frame {
            slot,
            start,
            child: 0,
            children: 0,
        });
    });
    Span {
        _not_send: PhantomData,
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        let end = now_cycles();
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let Some(frame) = r.stack.pop() else {
                return;
            };
            let incl = end.saturating_sub(frame.start);
            let stats = &mut r.profile.slots[frame.slot as usize];
            stats.calls += 1;
            stats.incl += incl;
            stats.self_cycles += incl.saturating_sub(frame.child);
            stats.child_spans += frame.children;
            if let Some(parent) = r.stack.last_mut() {
                parent.child += incl;
                parent.children += 1;
            }
        });
    }
}

/// Returns this thread's profile and starts a fresh one.
pub fn take_profile() -> Profile {
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().profile))
}

/// Records the start of the next policy span in
/// [`Profile::first_policy_at`]. Inside `run_sharded` that span is the
/// first thing to run after every cell's engine is built, which is how
/// per-cell set-up is bracketed from outside.
fn arm_first_policy() {
    RECORDER.with(|r| r.borrow_mut().armed = true);
}

fn note_placer_none() {
    RECORDER.with(|r| r.borrow_mut().profile.placer_none += 1);
}

/// Cycles one span costs when opened and closed back to back: the median
/// over nine batches of 20,000. Leaves the thread's profile empty.
pub fn span_cost_cycles() -> f64 {
    const BATCH: u32 = 20_000;
    let mut per_span: Vec<f64> = (0..9)
        .map(|_| {
            let t0 = now_cycles();
            for _ in 0..BATCH {
                drop(std::hint::black_box(span(Slot::Run)));
            }
            now_cycles().saturating_sub(t0) as f64 / f64::from(BATCH)
        })
        .collect();
    take_profile();
    per_span.sort_by(f64::total_cmp);
    per_span[per_span.len() / 2]
}

/// An engine whose every event is handled inside a span named after the
/// event's variant. It forwards only `World::handle`, so events reach the
/// engine exactly as they reach it through `FluidFaaSSystem` and
/// `MonolithicSystem`.
struct Traced(Engine);

impl World for Traced {
    type Event = Event;

    fn handle(&mut self, now: SimTime, ev: Event, sched: &mut Scheduler<Event>) {
        let _s = span(Slot::of_event(&ev));
        self.0.handle(now, ev, sched);
    }
}

impl Platform for Traced {
    fn drain(&self) -> SimDuration {
        self.0.drain()
    }

    fn finalize(&mut self, end: SimTime) {
        let _s = span(Slot::Finalize);
        self.0.finalize(end);
    }

    fn take_hub(&mut self) -> MetricsHub {
        let _s = span(Slot::TakeHub);
        self.0.take_hub()
    }

    fn num_gpus(&self) -> usize {
        self.0.num_gpus()
    }

    fn slices_per_gpu(&self) -> usize {
        self.0.slices_per_gpu()
    }

    fn fault_stats(&self) -> FaultStats {
        self.0.fault_stats()
    }
}

/// Wraps every member of `b` in a timing decorator.
fn decorate(b: PolicyBundle) -> PolicyBundle {
    PolicyBundle {
        router: Box::new(TimedRouter(b.router)),
        shared: Box::new(TimedShared(b.shared)),
        autoscaler: Box::new(TimedAutoscaler(b.autoscaler)),
        migrator: Box::new(TimedMigrator(b.migrator)),
        placer: Box::new(TimedPlacer(b.placer)),
    }
}

struct TimedRouter(Box<dyn Router>);

impl Router for TimedRouter {
    fn dispatch(
        &self,
        core: &mut EngineCore,
        shared: &dyn SharedPoolPolicy,
        f: FuncId,
        now: SimTime,
        sched: &mut Scheduler<Event>,
    ) {
        let _s = span(Slot::RouterDispatch);
        self.0.dispatch(core, shared, f, now, sched);
    }
}

struct TimedShared(Box<dyn SharedPoolPolicy>);

impl SharedPoolPolicy for TimedShared {
    fn admit(
        &self,
        core: &mut EngineCore,
        f: FuncId,
        now: SimTime,
        sched: &mut Scheduler<Event>,
    ) -> bool {
        let _s = span(Slot::SharedAdmit);
        self.0.admit(core, f, now, sched)
    }

    fn dispatch_slot(
        &self,
        core: &mut EngineCore,
        slot: usize,
        now: SimTime,
        sched: &mut Scheduler<Event>,
    ) -> bool {
        let _s = span(Slot::SharedDispatch);
        self.0.dispatch_slot(core, slot, now, sched)
    }

    fn maintain(&self, core: &mut EngineCore, now: SimTime) {
        let _s = span(Slot::SharedMaintain);
        self.0.maintain(core, now);
    }
}

struct TimedAutoscaler(Box<dyn Autoscaler>);

impl Autoscaler for TimedAutoscaler {
    fn on_arrival(&self, core: &mut EngineCore, f: FuncId) {
        let _s = span(Slot::AutoscalerOnArrival);
        self.0.on_arrival(core, f);
    }

    fn scale(
        &self,
        core: &mut EngineCore,
        placer: &dyn Placer,
        now: SimTime,
        sched: &mut Scheduler<Event>,
    ) {
        let _s = span(Slot::AutoscalerScale);
        self.0.scale(core, placer, now, sched);
    }

    fn keep_alive(&self, core: &mut EngineCore, now: SimTime) {
        let _s = span(Slot::AutoscalerKeepAlive);
        self.0.keep_alive(core, now);
    }
}

struct TimedMigrator(Box<dyn Migrator>);

impl Migrator for TimedMigrator {
    fn migrate(
        &self,
        core: &mut EngineCore,
        placer: &dyn Placer,
        now: SimTime,
        sched: &mut Scheduler<Event>,
    ) {
        let _s = span(Slot::MigratorMigrate);
        self.0.migrate(core, placer, now, sched);
    }
}

struct TimedPlacer(Box<dyn Placer>);

impl Placer for TimedPlacer {
    fn place(&self, core: &mut EngineCore, f: FuncId) -> Option<(DeploymentPlan, NodeId)> {
        let _s = span(Slot::PlacerPlace);
        let placed = self.0.place(core, f);
        if placed.is_none() {
            note_placer_none();
        }
        placed
    }
}

/// The traced twin of `run_system` / `run_fluid_with`: an engine built
/// from `cfg` and the decorated `policies`, driven by `run_platform`
/// through [`Traced`].
pub fn run_traced(
    cfg: FfsConfig,
    policies: PolicyBundle,
    trace: &Trace,
) -> Result<RunOutput, EngineError> {
    let engine = {
        let _s = span(Slot::EngineNew);
        Engine::new(cfg, decorate(policies), trace)?
    };
    let mut traced = Traced(engine);
    let _s = span(Slot::Platform);
    Ok(run_platform(&mut traced, trace))
}

/// The traced twin of `run_sharded_fluid`, on one lane: every cell gets
/// the decorated paper bundle. `first` records when the first cell's
/// bundle was made, and the profile's `first_policy_at` when simulation
/// began, which brackets the cells' set-up.
pub fn run_sharded_traced(
    cfg: &FfsConfig,
    traces: Vec<CellTrace>,
    cells: usize,
    first: &FirstCall,
) -> Result<(RunOutput, ShardRunStats), EngineError> {
    arm_first_policy();
    let make = |c: &FfsConfig| {
        first.note();
        decorate(paper_policies(c))
    };
    let _s = span(Slot::Platform);
    run_sharded(cfg, traces, make, &ShardSpec::new(cells, 1))
}

/// Remembers when a `make_policies` closure was first called: the start
/// of `run_sharded`'s set-up.
#[derive(Default)]
pub struct FirstCall(Cell<Option<u64>>);

impl FirstCall {
    /// Notes a call.
    pub fn note(&self) {
        if self.0.get().is_none() {
            self.0.set(Some(now_cycles()));
        }
    }

    /// Cycle count of the first call, if any.
    pub fn at(&self) -> Option<u64> {
        self.0.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(cycles: u64) {
        let t0 = now_cycles();
        while now_cycles().saturating_sub(t0) < cycles {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nested_spans_charge_self_time_only() {
        take_profile();
        {
            let _outer = span(Slot::AutoscalerScale);
            busy(200_000);
            for _ in 0..3 {
                let _inner = span(Slot::PlacerPlace);
                busy(100_000);
            }
        }
        let p = take_profile();
        assert_eq!(p.calls(Slot::AutoscalerScale), 1);
        assert_eq!(p.calls(Slot::PlacerPlace), 3);
        assert_eq!(p.spans(), 4);
        assert_eq!(p.slots[Slot::AutoscalerScale as usize].child_spans, 3);
        assert_eq!(p.slots[Slot::PlacerPlace as usize].child_spans, 0);
        let outer_incl = p.incl(Slot::AutoscalerScale);
        let inner_incl = p.incl(Slot::PlacerPlace);
        let outer_self = p.slots[Slot::AutoscalerScale as usize].self_cycles;
        assert_eq!(
            p.slots[Slot::PlacerPlace as usize].self_cycles,
            inner_incl,
            "leaves have no children"
        );
        assert_eq!(
            outer_self,
            outer_incl - inner_incl,
            "the parent's self time excludes exactly its children"
        );
        assert!(inner_incl >= 300_000);
        assert!(outer_self >= 200_000);
    }

    #[test]
    fn first_policy_span_is_marked_once_armed() {
        take_profile();
        drop(span(Slot::Run));
        assert_eq!(take_profile().first_policy_at, None);
        arm_first_policy();
        drop(span(Slot::Arrival));
        let before = now_cycles();
        drop(span(Slot::RouterDispatch));
        let between = now_cycles();
        busy(10_000);
        drop(span(Slot::PlacerPlace));
        let p = take_profile();
        let at = p.first_policy_at.expect("armed policy span recorded");
        assert!(at >= before, "a handler span does not count");
        assert!(at <= between, "the first policy span, not a later one");
    }

    /// Tracing must not move a bit of the output: every system, a
    /// fault-injected run, and a sharded run.
    #[test]
    fn traced_runs_reproduce_untraced_digests() {
        use crate::workloads::Sim;
        use ffs_experiments::runner::SystemKind;
        use ffs_trace::{AzureTraceConfig, WorkloadClass};
        use fluidfaas::{run_output_digest, FaultSpec};
        use std::sync::Arc;

        let w = WorkloadClass::Medium;
        let trace = Arc::new(AzureTraceConfig::for_workload(w, 20.0, 5).generate());
        let mut faulted = FfsConfig::paper_default(w);
        faulted.faults = FaultSpec::slice_faults(11, 2.0);
        let cases = SystemKind::ALL
            .map(|s| (s, FfsConfig::paper_default(w)))
            .into_iter()
            .chain([(SystemKind::FluidFaaS, faulted)]);
        for (system, cfg) in cases {
            let sim = Sim::new(system, cfg, &trace);
            let plain = sim.run();
            let traced = run_traced(sim.cfg.clone(), sim.policies(), &trace).expect("valid setup");
            assert_eq!(
                run_output_digest(&plain),
                run_output_digest(&traced),
                "{}",
                system.name()
            );
        }
        let p = take_profile();
        assert!(p.calls(Slot::Arrival) >= 4 * trace.invocations.len() as u64);
        assert!(p.calls(Slot::RouterDispatch) > 0 && p.calls(Slot::PlacerPlace) > 0);
    }

    #[test]
    fn traced_sharded_run_reproduces_the_untraced_digest() {
        use ffs_trace::{partition_trace, AzureTraceConfig, WorkloadClass};
        use fluidfaas::{run_output_digest, run_sharded_fluid};

        let w = WorkloadClass::Medium;
        let cfg = FfsConfig::paper_default(w);
        let cells = partition_trace(&AzureTraceConfig::for_workload(w, 20.0, 6).generate(), 2);
        let (plain, _) =
            run_sharded_fluid(&cfg, cells.clone(), &ShardSpec::new(2, 2)).expect("valid setup");
        take_profile();
        let first = FirstCall::default();
        let (traced, stats) = run_sharded_traced(&cfg, cells, 2, &first).expect("valid setup");
        assert_eq!(run_output_digest(&plain), run_output_digest(&traced));
        assert_eq!((stats.cells, stats.lanes), (2, 1));
        let p = take_profile();
        let (start, end) = (first.at().expect("bundles made"), p.first_policy_at);
        assert!(end.expect("a policy ran") >= start);
        assert!(p.calls(Slot::RouterDispatch) > 0);
    }

    #[test]
    fn span_cost_is_positive_and_leaves_no_profile() {
        assert!(span_cost_cycles() > 0.0);
        assert_eq!(take_profile(), Profile::default());
    }
}
