//! MQFQ-Sticky fair queueing: the third policy family, after FluidFaaS
//! and the monolithic baselines.
//!
//! Per-function *flows* carry virtual start/finish tags; a global virtual
//! clock advances to the minimum start tag among backlogged flows, and
//! each dispatch charges the flow `service / weight` of virtual time, so
//! backlogged flows receive GPU service proportional to their weights
//! regardless of arrival burstiness. Two serverless-specific refinements
//! (after *MQFQ-Sticky: Fair Queueing For Serverless GPU Functions*):
//!
//! * **Sticky affinity** — a flow remembers the GPU it last executed on
//!   and is preferred there (where its model is still resident) as long
//!   as its start tag stays within a configurable *stickiness window* of
//!   the fairest choice, trading a bounded amount of short-term fairness
//!   for fewer eviction/reload cycles.
//! * **Throttling** — a flow whose start tag has run more than a
//!   *throttle window* ahead of the virtual clock is ineligible until the
//!   clock catches up, preventing a single hot function from monopolising
//!   slots between scale ticks.
//!
//! The bundle reuses the FluidFaaS autoscaler, placer and migrator: MQFQ
//! changes *who is served next*, not how instances are provisioned.

use std::sync::{Arc, Mutex};

use ffs_sim::{Scheduler, SimDuration, SimTime};
use ffs_telemetry::{span, Phase as TelemetryPhase};

use crate::config::FfsConfig;
use crate::keepalive::Transition;
use crate::platform::catalog::FuncId;
use crate::platform::engine::{sref, EngineCore};
use crate::platform::events::{Event, InstanceId};
use crate::platform::policy::{
    route_to_instance, should_overflow_to_shared, PolicyBundle, Router, SharedPoolPolicy,
};
use crate::system::{grow_pool, FluidAutoscaler, FluidMigrator, FluidPlacer};

/// Tuning knobs of the MQFQ-Sticky policy. The defaults reproduce the
/// fairness experiments; they are constructor parameters rather than
/// `FfsConfig` fields so the existing three systems' configs (and their
/// goldens) are untouched.
#[derive(Clone, Copy, Debug)]
pub struct MqfqParams {
    /// How far (virtual ms) a sticky/resident flow's start tag may exceed
    /// the minimum backlogged start tag and still be preferred on its
    /// sticky device.
    pub stickiness_window_ms: f64,
    /// How far (virtual ms) a flow's start tag may run ahead of the
    /// global virtual clock before the flow is throttled.
    pub throttle_window_ms: f64,
}

impl Default for MqfqParams {
    fn default() -> Self {
        MqfqParams {
            // One typical inference service time of locality headroom, and
            // a generous burst budget before throttling kicks in.
            stickiness_window_ms: 250.0,
            throttle_window_ms: 2_000.0,
        }
    }
}

/// Per-function flow bookkeeping.
#[derive(Clone, Copy, Debug)]
struct FlowState {
    /// Virtual finish tag of the flow's last dispatched request.
    finish_tag: f64,
    /// Service share weight (default 1.0 — equal shares).
    weight: f64,
    /// The GPU the flow last executed on, if any.
    sticky_gpu: Option<u16>,
}

impl Default for FlowState {
    fn default() -> Self {
        FlowState {
            finish_tag: 0.0,
            weight: 1.0,
            sticky_gpu: None,
        }
    }
}

/// The fair-queueing state shared by the MQFQ router and shared-pool
/// policy: flow tags plus the global virtual clock.
///
/// All tag arithmetic lives here, engine-free, so the virtual-time
/// invariants are table-testable without running a simulation.
#[derive(Debug)]
pub struct MqfqState {
    params: MqfqParams,
    vt: f64,
    flows: Vec<FlowState>,
}

impl MqfqState {
    /// Fresh state at virtual time zero.
    pub fn new(params: MqfqParams) -> Self {
        MqfqState {
            params,
            vt: 0.0,
            flows: Vec::new(),
        }
    }

    /// The global virtual clock.
    pub fn virtual_time(&self) -> f64 {
        self.vt
    }

    fn flow(&self, f: FuncId) -> FlowState {
        self.flows.get(f).copied().unwrap_or_default()
    }

    fn flow_mut(&mut self, f: FuncId) -> &mut FlowState {
        if f >= self.flows.len() {
            self.flows.resize_with(f + 1, FlowState::default);
        }
        &mut self.flows[f]
    }

    /// Sets a flow's service-share weight (must be positive).
    pub fn set_weight(&mut self, f: FuncId, weight: f64) {
        debug_assert!(weight > 0.0, "flow weight must be positive");
        self.flow_mut(f).weight = weight.max(f64::MIN_POSITIVE);
    }

    /// The virtual start tag the flow's next request would be served at:
    /// `max(VT, finish_tag)`. Clamping to the clock is what keeps idle
    /// flows from banking credit — a lapsed finish tag is forgotten the
    /// moment the clock passes it.
    pub fn start_tag(&self, f: FuncId) -> f64 {
        self.flow(f).finish_tag.max(self.vt)
    }

    /// True when the flow may be served now: its start tag has not run
    /// more than the throttle window ahead of the virtual clock.
    pub fn eligible(&self, f: FuncId) -> bool {
        self.start_tag(f) <= self.vt + self.params.throttle_window_ms
    }

    /// Advances the virtual clock to the minimum start tag among the
    /// `backlogged` flows (never backwards). With no backlog the clock
    /// holds — virtual time only moves when there is work to meter.
    pub fn advance_vt<I: IntoIterator<Item = FuncId>>(&mut self, backlogged: I) {
        let mut min_start: Option<f64> = None;
        for f in backlogged {
            let s = self.start_tag(f);
            min_start = Some(match min_start {
                None => s,
                Some(m) => m.min(s),
            });
        }
        if let Some(m) = min_start {
            self.vt = self.vt.max(m);
        }
    }

    /// Charges one dispatch of `service_ms` to flow `f`: the request is
    /// stamped `start = max(VT, finish)` and the flow's finish tag moves
    /// to `start + service/weight`. Returns the start tag used.
    pub fn charge(&mut self, f: FuncId, service_ms: f64) -> f64 {
        let start = self.start_tag(f);
        let flow = self.flow_mut(f);
        flow.finish_tag = start + service_ms.max(0.0) / flow.weight;
        start
    }

    /// The flow's sticky GPU, if it has executed before.
    pub fn sticky_gpu(&self, f: FuncId) -> Option<u16> {
        self.flow(f).sticky_gpu
    }

    /// Records that `f` just executed on `gpu`.
    pub fn set_sticky_gpu(&mut self, f: FuncId, gpu: u16) {
        self.flow_mut(f).sticky_gpu = Some(gpu);
    }

    /// Picks the next flow to serve from `candidates` (`(flow, sticky)`
    /// pairs, where `sticky` marks flows that would avoid a model reload
    /// on the device being scheduled — resident there or sticky-affine to
    /// it). Throttled flows are skipped. The fairest pick is the minimum
    /// start tag (ties to the lower flow id, keeping the choice
    /// deterministic); a sticky candidate within the stickiness window of
    /// that minimum is preferred over it.
    pub fn pick_flow<I>(&self, candidates: I) -> Option<FuncId>
    where
        I: IntoIterator<Item = (FuncId, bool)>,
    {
        let mut fairest: Option<(f64, FuncId)> = None;
        let mut sticky_best: Option<(f64, FuncId)> = None;
        for (f, sticky) in candidates {
            if !self.eligible(f) {
                continue;
            }
            let s = self.start_tag(f);
            if fairest.is_none_or(|(bs, bf)| (s, f) < (bs, bf)) {
                fairest = Some((s, f));
            }
            if sticky && sticky_best.is_none_or(|(bs, bf)| (s, f) < (bs, bf)) {
                sticky_best = Some((s, f));
            }
        }
        let (min_start, min_flow) = fairest?;
        if let Some((s, f)) = sticky_best {
            if s <= min_start + self.params.stickiness_window_ms {
                return Some(f);
            }
        }
        Some(min_flow)
    }
}

/// Shared handle to the fair-queueing state. The engine is
/// single-threaded per run, so the mutex is uncontended; it exists only
/// because `Router`/`SharedPoolPolicy` implementations must be `Send`.
type SharedState = Arc<Mutex<MqfqState>>;

fn lock(state: &SharedState) -> std::sync::MutexGuard<'_, MqfqState> {
    // Poisoning requires a panic while holding the lock; the critical
    // sections below are pure tag arithmetic.
    state.lock().expect("mqfq state lock poisoned")
}

/// Advances the virtual clock from the engine's current backlog, under
/// the `vt_update` telemetry phase.
fn advance_clock(state: &mut MqfqState, core: &EngineCore) {
    let _vt = span(TelemetryPhase::VtUpdate);
    state.advance_vt(
        core.active_funcs
            .iter()
            .copied()
            .filter(|&f| !core.pending[f].is_empty()),
    );
}

/// The GPU hosting an instance's first stage (monolithic instances have
/// exactly one stage; for pipelines the first stage anchors affinity).
fn gpu_of_instance(core: &EngineCore, id: InstanceId) -> Option<u16> {
    core.instances
        .get(&id)
        .and_then(|i| i.plan.stages.first().map(|s| s.slice.gpu.0))
}

/// MQFQ routing: exclusive instances first (sticky GPU preferred), with
/// throttling against the virtual clock; overflow to the shared pool only
/// when waiting for exclusive capacity would blow the deadline, exactly
/// like the FluidFaaS router.
pub struct MqfqRouter {
    state: SharedState,
}

impl Router for MqfqRouter {
    fn dispatch(
        &self,
        core: &mut EngineCore,
        shared: &dyn SharedPoolPolicy,
        f: FuncId,
        now: SimTime,
        sched: &mut Scheduler<Event>,
    ) {
        {
            let mut st = lock(&self.state);
            advance_clock(&mut st, core);
        }
        while let Some(&req) = core.pending[f].front() {
            if !lock(&self.state).eligible(f) {
                // Throttled: the flow ran ahead of the clock. The backlog
                // is retried on the next event for `f` and at every scale
                // tick, by which point dispatches elsewhere (or the tag
                // lapse) have let the clock catch up.
                break;
            }
            if self.route_to_exclusive(core, f, req, now, sched) {
                core.pending[f].pop_front();
                continue;
            }
            if should_overflow_to_shared(core, f, req, now) && shared.admit(core, f, now, sched) {
                continue;
            }
            break;
        }
    }
}

impl MqfqRouter {
    /// Routes to an admissible exclusive instance, preferring the flow's
    /// sticky GPU (where activations/weights are warmest) and falling
    /// back to the lowest-latency instance. Charges the flow's virtual
    /// tags with the chosen instance's service estimate.
    fn route_to_exclusive(
        &self,
        core: &mut EngineCore,
        f: FuncId,
        req: u64,
        now: SimTime,
        sched: &mut Scheduler<Event>,
    ) -> bool {
        let sticky = lock(&self.state).sticky_gpu(f);
        let mut best: Option<(InstanceId, f64)> = None;
        let mut best_sticky: Option<(InstanceId, f64)> = None;
        for &idx in core.instances.admissible_of(f) {
            let id = InstanceId(idx as u64);
            let lat = core.instances.latency_ms_of(id);
            if best.is_none_or(|(_, b)| lat < b) {
                best = Some((id, lat));
            }
            if sticky.is_some()
                && gpu_of_instance(core, id) == sticky
                && best_sticky.is_none_or(|(_, b)| lat < b)
            {
                best_sticky = Some((id, lat));
            }
        }
        let Some((id, lat)) = best_sticky.or(best) else {
            return false;
        };
        {
            let mut st = lock(&self.state);
            st.charge(f, lat);
            if let Some(gpu) = gpu_of_instance(core, id) {
                st.set_sticky_gpu(f, gpu);
            }
        }
        route_to_instance(core, id, req, now, sched);
        let _ = req;
        true
    }
}

/// The MQFQ shared pool: slot mechanics (binding, growth, eviction,
/// reload) are FluidFaaS's; the *flow choice* at each idle slot is the
/// fair-queueing pick — minimum virtual start tag, sticky/resident flows
/// preferred within the stickiness window, throttled flows skipped.
pub struct MqfqSharedPool {
    state: SharedState,
}

impl SharedPoolPolicy for MqfqSharedPool {
    fn admit(
        &self,
        core: &mut EngineCore,
        f: FuncId,
        now: SimTime,
        sched: &mut Scheduler<Event>,
    ) -> bool {
        let mem = core.mem_gb[f];
        let slot_idx = match core.pool.slot_of(f) {
            Some(i) => i,
            None => {
                if core.pool.empty_fitting(mem).is_none() {
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
        let slice_profile = core.pool.slot(slot_idx).slice.profile;
        let slice_id = core.pool.slot(slot_idx).slice.id;
        let slot_gpu = slice_id.gpu.0;
        let resident = core.pool.slot(slot_idx).resident;
        let picked = {
            let mut st = lock(&self.state);
            advance_clock(&mut st, core);
            // Candidates: bound flows with an overflow-eligible pending
            // head. `sticky` marks flows that avoid a reload on this
            // slice (resident here, or sticky-affine to this GPU).
            let mut candidates: Vec<(FuncId, bool)> = Vec::new();
            for i in 0..core.pool.slot(slot_idx).bound().len() {
                let f = core.pool.slot(slot_idx).bound()[i];
                let Some(&req) = core.pending[f].front() else {
                    continue;
                };
                if !should_overflow_to_shared(core, f, req, now) {
                    continue;
                }
                let sticky = resident == Some(f) || st.sticky_gpu(f) == Some(slot_gpu);
                candidates.push((f, sticky));
            }
            let picked = st.pick_flow(candidates);
            if let Some(f) = picked {
                let load = if resident == Some(f) {
                    0.0
                } else {
                    core.load_all_ms[f]
                };
                // Charge the full slot occupancy (reload + execution):
                // virtual time meters the device time the flow consumes.
                let service = core.shared_exec_of(f, slice_profile) + load;
                st.charge(f, service);
                st.set_sticky_gpu(f, slot_gpu);
            }
            picked
        };
        let Some(f) = picked else {
            return false;
        };
        let Some(req) = core.pending[f].pop_front() else {
            // Unreachable: candidates were built from non-empty heads.
            debug_assert!(false, "picked flow lost its pending head");
            return false;
        };
        if resident == Some(f) {
            core.start_shared_exec(slot_idx, req, now, sched);
        } else {
            // Evict the resident (→ Warm) and reload `f` from CPU memory,
            // exactly as the FluidFaaS pool does.
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
        // Pool growth/shrink is fairness-neutral; reuse the FluidFaaS
        // maintenance verbatim.
        crate::system::FluidSharedPool.maintain(core, now);
    }
}

/// The MQFQ-Sticky policy bundle with default parameters.
pub fn mqfq_policies(cfg: &FfsConfig) -> PolicyBundle {
    mqfq_policies_with(cfg, MqfqParams::default())
}

/// The MQFQ-Sticky policy bundle with explicit parameters. The router and
/// shared pool share one fair-queueing state; provisioning (autoscaler,
/// placer, migrator) is FluidFaaS's.
pub fn mqfq_policies_with(cfg: &FfsConfig, params: MqfqParams) -> PolicyBundle {
    let state: SharedState = Arc::new(Mutex::new(MqfqState::new(params)));
    PolicyBundle {
        router: Box::new(MqfqRouter {
            state: Arc::clone(&state),
        }),
        shared: Box::new(MqfqSharedPool { state }),
        autoscaler: Box::new(FluidAutoscaler {
            policy: cfg.scaling_policy,
        }),
        migrator: Box::new(FluidMigrator),
        placer: Box::new(FluidPlacer {
            ranked: cfg.enable_cv_ranking,
        }),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn state(stickiness: f64, throttle: f64) -> MqfqState {
        MqfqState::new(MqfqParams {
            stickiness_window_ms: stickiness,
            throttle_window_ms: throttle,
        })
    }

    /// Drives `rounds` dispatches of `service_ms` each over permanently
    /// backlogged flows, returning per-flow dispatch counts.
    fn serve_backlogged(st: &mut MqfqState, flows: &[FuncId], rounds: usize) -> Vec<usize> {
        let mut counts = vec![0usize; flows.iter().copied().max().unwrap_or(0) + 1];
        for _ in 0..rounds {
            st.advance_vt(flows.iter().copied());
            let f = st
                .pick_flow(flows.iter().map(|&f| (f, false)))
                .expect("backlogged flows always yield a pick");
            st.charge(f, 100.0);
            counts[f] += 1;
        }
        counts
    }

    #[test]
    fn backlogged_flows_share_service_equally_by_default() {
        let mut st = state(0.0, f64::INFINITY);
        let counts = serve_backlogged(&mut st, &[0, 1, 2], 300);
        for (f, &count) in counts.iter().enumerate().take(3) {
            assert!(
                (99..=101).contains(&count),
                "flow {f} got {count} of 300 dispatches"
            );
        }
    }

    #[test]
    fn service_is_proportional_to_weights() {
        // Table: (weights, rounds, expected shares ±1 dispatch per flow).
        let table: &[(&[f64], usize)] = &[
            (&[1.0, 2.0], 300),
            (&[1.0, 3.0], 400),
            (&[2.0, 3.0, 5.0], 500),
        ];
        for &(weights, rounds) in table {
            let mut st = state(0.0, f64::INFINITY);
            let flows: Vec<FuncId> = (0..weights.len()).collect();
            for (f, &w) in weights.iter().enumerate() {
                st.set_weight(f, w);
            }
            let counts = serve_backlogged(&mut st, &flows, rounds);
            let total_w: f64 = weights.iter().sum();
            for (f, &w) in weights.iter().enumerate() {
                let expected = rounds as f64 * w / total_w;
                let got = counts[f] as f64;
                assert!(
                    (got - expected).abs() <= 2.0,
                    "weights {weights:?}: flow {f} got {got}, expected ~{expected}"
                );
            }
        }
    }

    #[test]
    fn idle_flows_do_not_accumulate_credit() {
        let mut st = state(0.0, f64::INFINITY);
        // Flow 1 is idle while flow 0 receives lots of service.
        for _ in 0..50 {
            st.advance_vt([0]);
            st.charge(0, 100.0);
        }
        st.advance_vt([0]);
        let vt = st.virtual_time();
        // When flow 1 wakes up its start tag is the *current* clock, not
        // its ancient finish tag: no banked credit, no burst of back-to-
        // back wins. It gets exactly one "free" win (its tag equals the
        // clock, flow 0's is one service ahead) and then alternates.
        assert_eq!(st.start_tag(1), vt);
        let counts = serve_backlogged(&mut st, &[0, 1], 100);
        assert!(
            counts[1] <= counts[0] + 2,
            "idle flow burst ahead: {counts:?}"
        );
        assert!((49..=51).contains(&counts[1]), "{counts:?}");
    }

    #[test]
    fn sticky_candidate_preferred_within_window() {
        let table: &[(f64, f64, FuncId)] = &[
            // (sticky flow's head start offset, window, expected pick)
            (100.0, 250.0, 1), // within the window: sticky wins
            (251.0, 250.0, 0), // outside: fairest (min tag) wins
            (0.0, 0.0, 1),     // zero window: only an equal tag stays sticky
        ];
        for &(offset, window, expected) in table {
            let mut st = state(window, f64::INFINITY);
            st.advance_vt([0]);
            // Flow 1 is `offset` ahead of flow 0 in virtual time.
            st.charge(1, offset);
            let picked = st.pick_flow([(0, false), (1, true)]).unwrap();
            assert_eq!(
                picked, expected,
                "offset {offset}, window {window}: picked {picked}"
            );
        }
    }

    #[test]
    fn throttled_flows_are_skipped_until_clock_catches_up() {
        let mut st = state(0.0, 500.0);
        // Flow 0 burns far ahead of the clock (nothing else backlogged,
        // clock pinned at 0 until advance).
        for _ in 0..10 {
            st.charge(0, 100.0);
        }
        assert!(!st.eligible(0), "1000ms ahead with a 500ms window");
        assert_eq!(st.pick_flow([(0, false)]), None);
        // Flow 1 is eligible and picked despite flow 0's earlier arrival.
        assert_eq!(st.pick_flow([(0, false), (1, false)]), Some(1));
        // Once only flow 0 is backlogged, the clock advances to its tag
        // and it becomes eligible again.
        st.advance_vt([0]);
        assert!(st.eligible(0));
        assert_eq!(st.pick_flow([(0, false)]), Some(0));
    }

    #[test]
    fn vt_never_moves_backwards_and_holds_without_backlog() {
        let mut st = state(0.0, f64::INFINITY);
        st.charge(0, 100.0);
        st.advance_vt([0]);
        let vt = st.virtual_time();
        assert!(vt >= 100.0);
        st.advance_vt(std::iter::empty());
        assert_eq!(st.virtual_time(), vt, "no backlog: clock holds");
        st.advance_vt([1]); // fresh flow at the clock
        assert_eq!(st.virtual_time(), vt, "clock never re-reads below itself");
    }

    #[test]
    fn pick_breaks_ties_by_flow_id() {
        let st = state(0.0, f64::INFINITY);
        assert_eq!(st.pick_flow([(2, false), (1, false), (3, false)]), Some(1));
    }
}
