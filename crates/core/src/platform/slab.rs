//! Id-indexed instance storage: the engine's live-instance table as a
//! slab instead of an ordered map.
//!
//! Instance ids are handed out by a monotonic counter and never reused,
//! so `InstanceId(n)` indexes a `Vec` directly, and iteration in slot
//! order is ascending-id order — the first-by-id tie-breaking policy code
//! relies on (FIFO routing, global retire sweeps). Slots of retired
//! instances stay as `None` tombstones; the vector's length is the highest
//! id ever live, which stays small (hundreds) for any realistic run
//! because launches are rate-limited per scale tick.
//!
//! The slab is the only code that changes a live instance: there is no
//! mutable access to a stored record. Each transition — `insert`,
//! `remove`, `set_phase`, `admit`, `start_stage`, `finish_stage`,
//! `land_transfer`, `take_utilization` — updates the record and every
//! view derived from it together: the hot columns, the per-function id
//! lists ([`ids_of`](InstanceSlab::ids_of), ascending), the routing index
//! and the exclusive-fleet summary. `debug_assert_hot_consistent`
//! re-derives every view from the records in debug builds.
//!
//! ## Hot columns (SoA)
//!
//! The scans the per-event hot path performs — admission checks, lowest-
//! latency routing, capacity/pressure estimates, per-tick busy-GPC sums —
//! read a handful of scalars per instance. Pulling a whole `Instance`
//! record (plans, queues, timing tables) through the cache for each is
//! most of the scan cost, so those scalars live in parallel
//! structure-of-arrays columns beside the slab:
//!
//! * `phase` — lifecycle tag ([`PhaseTag`]; `Empty` marks tombstones),
//! * `occupancy` — queued + executing + mid-transfer requests,
//! * `admit_cap` — the SLO admission bound (`floor(slo/bottleneck).max(1)`,
//!   constant per instance because both inputs are fixed at launch),
//! * `latency_ms` / `bottleneck_ms` / `throughput_rps` — the routing
//!   estimate, copied from `est` (immutable after launch),
//! * `busy_gpcs` — GPCs of the instance's currently executing stages.
//!
//! ## Routing index
//!
//! On top of the columns the slab maintains the *routing index*: one
//! sorted vector of instance ids per function holding exactly the
//! *admissible* instances (`Ready` and below the SLO admission bound).
//! Routing reads the candidate list directly — O(candidates) instead of a
//! filter over every instance of the function — and the list's ascending
//! order preserves the first-best-by-id tie-breaking of the scan it
//! replaces. Membership can only change where a phase or an occupancy
//! changes, so only `insert`, `remove`, `set_phase`, `admit` (a request
//! saturating the bound leaves the index) and `finish_stage` (a departure
//! from a saturated instance re-enters it) touch it.
//! `crates/core/tests/proptest_route_index.rs` pins index-vs-scan
//! equivalence on random transition sequences.
//!
//! ## Exclusive-fleet summary
//!
//! The overflow-to-shared rule (§5.3) reads an aggregate of each
//! function's exclusive fleet — ready and launching counts, occupancy
//! summed over the ready instances, and the lowest ready bottleneck and
//! latency estimates — for nearly every request under backlog. The slab
//! keeps that aggregate per function ([`ExclusiveView`]) and updates it in
//! the same transitions as the routing index, so reading it is O(1).
//! Counts and the occupancy sum move by exact integer deltas. A minimum
//! only improves while instances join the ready set; when the ready
//! instance holding it leaves, the minimum is recomputed over the
//! function's other `Ready` ids. The minimum of a finite set of finite
//! `f64`s does not depend on the order it is taken in, so the summary is
//! bit-identical to the ascending-id scan it replaces
//! ([`exclusive_view_scan`](super::policy::exclusive_view_scan), compared
//! by a `debug_assert_eq` and the proptest above).

use ffs_sim::{SimDuration, SimTime};

use crate::instance::{Instance, Phase};
use crate::platform::catalog::FuncId;
use crate::platform::events::InstanceId;
use crate::platform::policy::ExclusiveView;
use ffs_telemetry::{span, Phase as TelemetryPhase};

/// Sentinel in the `func` column for empty slots.
const NO_FUNC: usize = usize::MAX;

/// Lifecycle tag of a slab slot, including the empty (tombstone) state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhaseTag {
    /// No live instance in this slot.
    Empty,
    /// Cold-starting.
    Launching,
    /// Serving requests.
    Ready,
    /// Draining toward retirement.
    Draining,
}

impl PhaseTag {
    fn of(phase: &Phase) -> PhaseTag {
        match phase {
            Phase::Launching { .. } => PhaseTag::Launching,
            Phase::Ready => PhaseTag::Ready,
            Phase::Draining => PhaseTag::Draining,
        }
    }
}

/// The engine's live-instance table, indexed by [`InstanceId`].
#[derive(Default)]
pub struct InstanceSlab {
    slots: Vec<Option<Instance>>,
    live: usize,
    phase: Vec<PhaseTag>,
    occupancy: Vec<u32>,
    admit_cap: Vec<u32>,
    latency_ms: Vec<f64>,
    bottleneck_ms: Vec<f64>,
    throughput_rps: Vec<f64>,
    busy_gpcs: Vec<u32>,
    /// Function of each slot ([`NO_FUNC`] for tombstones) — what lets the
    /// transitions index the right per-function lists.
    func: Vec<usize>,
    /// Live instance ids of each function, ascending.
    ids: Vec<Vec<InstanceId>>,
    /// The routing index: per-function ascending-id lists of admissible
    /// instances (see the module docs).
    admissible: Vec<Vec<u32>>,
    /// The exclusive-fleet summary of each function (see the module docs).
    summary: Vec<ExclusiveView>,
}

impl InstanceSlab {
    /// An empty table.
    pub fn new() -> Self {
        InstanceSlab::default()
    }

    /// Number of live instances.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no instance is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The live instance with id `id`, if any.
    #[inline]
    pub fn get(&self, id: &InstanceId) -> Option<&Instance> {
        self.slots.get(id.0 as usize).and_then(Option::as_ref)
    }

    /// The live record under `idx`; transitions are only called on live
    /// instances.
    #[inline]
    fn record_mut(&mut self, idx: usize) -> &mut Instance {
        self.slots[idx].as_mut().expect("live instance")
    }

    /// Inserts an instance under `id`, deriving its hot columns (the
    /// admission capacity needs the function's SLO, fixed per instance).
    /// Ids come from the engine's monotonic counter, so the slot is always
    /// fresh.
    pub fn insert(&mut self, id: InstanceId, inst: Instance, slo_ms: f64) {
        let idx = id.0 as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
            self.phase.resize(idx + 1, PhaseTag::Empty);
            self.occupancy.resize(idx + 1, 0);
            self.admit_cap.resize(idx + 1, 0);
            self.latency_ms.resize(idx + 1, 0.0);
            self.bottleneck_ms.resize(idx + 1, 0.0);
            self.throughput_rps.resize(idx + 1, 0.0);
            self.busy_gpcs.resize(idx + 1, 0);
            self.func.resize(idx + 1, NO_FUNC);
        }
        debug_assert!(self.slots[idx].is_none(), "instance id reused");
        self.phase[idx] = PhaseTag::of(&inst.phase);
        self.occupancy[idx] = inst.occupancy() as u32;
        self.admit_cap[idx] = inst.capacity(slo_ms).min(u32::MAX as usize) as u32;
        self.latency_ms[idx] = inst.est.latency_ms;
        self.bottleneck_ms[idx] = inst.est.bottleneck_ms;
        self.throughput_rps[idx] = inst.est.throughput_rps;
        self.busy_gpcs[idx] = busy_gpcs_of(&inst);
        let f = inst.func;
        self.func[idx] = f;
        if f >= self.ids.len() {
            self.ids.resize_with(f + 1, Vec::new);
            self.admissible.resize_with(f + 1, Vec::new);
            self.summary.resize(f + 1, ExclusiveView::EMPTY);
        }
        // The engine's ids are monotonic, so this is a push; the search
        // keeps the list ascending for any insertion order.
        let ids = &mut self.ids[f];
        let pos = ids.partition_point(|&x| x < id);
        ids.insert(pos, id);
        self.slots[idx] = Some(inst);
        self.live += 1;
        self.index_update(idx, false);
        self.summary_enter(idx);
    }

    /// Removes and returns the instance under `id`, if live.
    pub fn remove(&mut self, id: &InstanceId) -> Option<Instance> {
        let taken = self.slots.get_mut(id.0 as usize).and_then(Option::take);
        if taken.is_some() {
            let idx = id.0 as usize;
            let was = self.admissible_at(idx);
            self.summary_leave(idx);
            self.phase[idx] = PhaseTag::Empty;
            self.occupancy[idx] = 0;
            self.admit_cap[idx] = 0;
            self.latency_ms[idx] = 0.0;
            self.bottleneck_ms[idx] = 0.0;
            self.throughput_rps[idx] = 0.0;
            self.busy_gpcs[idx] = 0;
            self.index_update(idx, was);
            let ids = &mut self.ids[self.func[idx]];
            let pos = ids.binary_search(id).expect("live instance is listed");
            ids.remove(pos);
            self.func[idx] = NO_FUNC;
            self.live -= 1;
        }
        taken
    }

    /// Sets the instance's lifecycle phase, keeping record and hot column
    /// in lockstep (the engine's only phase-mutation path).
    pub fn set_phase(&mut self, id: &InstanceId, phase: Phase) {
        let idx = id.0 as usize;
        let was = self.admissible_at(idx);
        self.record_mut(idx).phase = phase;
        let tag = PhaseTag::of(&phase);
        if tag != self.phase[idx] {
            self.summary_leave(idx);
            self.phase[idx] = tag;
            self.summary_enter(idx);
        }
        self.index_update(idx, was);
    }

    /// Routes `req` into instance `id`: it joins the stage-0 queue and the
    /// instance counts as used at `now`. Returns false (and changes
    /// nothing) when `id` is not live.
    #[inline]
    pub fn admit(&mut self, id: InstanceId, req: u64, now: SimTime) -> bool {
        let idx = id.0 as usize;
        let Some(inst) = self.slots.get_mut(idx).and_then(Option::as_mut) else {
            return false;
        };
        inst.stage_queues[0].push_back(req);
        inst.last_used = now;
        self.shift_occupancy(idx, true);
        true
    }

    /// Starts the next queued request on `stage` of instance `id`, if the
    /// instance is live and serving (ready or draining), the stage is idle
    /// and its queue is not empty. Returns the request and the record.
    #[inline]
    pub fn start_stage(
        &mut self,
        id: InstanceId,
        stage: usize,
        now: SimTime,
    ) -> Option<(u64, &Instance)> {
        let idx = id.0 as usize;
        let inst = self.slots.get_mut(idx).and_then(Option::as_mut)?;
        if !inst.is_ready() && !matches!(inst.phase, Phase::Draining) {
            return None;
        }
        if inst.stage_busy[stage].is_some() {
            return None;
        }
        let req = inst.stage_queues[stage].pop_front()?;
        inst.stage_busy[stage] = Some(req);
        inst.mark_busy(now);
        self.busy_gpcs[idx] += inst.plan.stages[stage].profile.gpcs();
        Some((req, &*inst))
    }

    /// Finishes `req` on `stage` of instance `id`: after the final stage
    /// the request leaves the instance, before it the request enters the
    /// boundary transfer (still occupying the instance). An instance left
    /// empty ends its busy interval at `now`. Returns the record, or
    /// `None` when `id` is not live.
    #[inline]
    pub fn finish_stage(
        &mut self,
        id: InstanceId,
        stage: usize,
        req: u64,
        now: SimTime,
    ) -> Option<&Instance> {
        let idx = id.0 as usize;
        let inst = self.slots.get_mut(idx).and_then(Option::as_mut)?;
        debug_assert_eq!(inst.stage_busy[stage], Some(req));
        inst.stage_busy[stage] = None;
        inst.last_used = now;
        self.busy_gpcs[idx] -= inst.plan.stages[stage].profile.gpcs();
        if stage + 1 == inst.plan.num_stages() {
            self.shift_occupancy(idx, false);
        } else {
            inst.in_transfer += 1;
        }
        if self.occupancy[idx] == 0 {
            self.record_mut(idx).mark_idle(now);
        }
        self.get(&id)
    }

    /// A boundary transfer of `req` landed: it joins `stage`'s queue
    /// (occupancy is unchanged — the request never left the instance).
    /// Returns false when `id` is not live.
    #[inline]
    pub fn land_transfer(&mut self, id: InstanceId, stage: usize, req: u64) -> bool {
        let Some(inst) = self.slots.get_mut(id.0 as usize).and_then(Option::as_mut) else {
            return false;
        };
        debug_assert!(inst.in_transfer > 0);
        inst.in_transfer -= 1;
        inst.stage_queues[stage].push_back(req);
        true
    }

    /// Consumes instance `id`'s busy time since the last call and returns
    /// its utilization over `window` (see [`Instance::take_utilization`]).
    pub fn take_utilization(&mut self, id: InstanceId, now: SimTime, window: SimDuration) -> f64 {
        self.record_mut(id.0 as usize).take_utilization(now, window)
    }

    /// True when slot `idx` is ready and below its admission bound — the
    /// routing-index membership predicate.
    #[inline]
    fn admissible_at(&self, idx: usize) -> bool {
        self.phase[idx] == PhaseTag::Ready && self.occupancy[idx] < self.admit_cap[idx]
    }

    /// One request entered (`up`) or left slot `idx`: moves the occupancy
    /// column, a ready instance's summary sum, and index membership.
    #[inline]
    fn shift_occupancy(&mut self, idx: usize, up: bool) {
        let was = self.admissible_at(idx);
        let ready = self.phase[idx] == PhaseTag::Ready;
        let sum = &mut self.summary[self.func[idx]].occupancy;
        if up {
            self.occupancy[idx] += 1;
            *sum += usize::from(ready);
        } else {
            self.occupancy[idx] -= 1;
            *sum -= usize::from(ready);
        }
        self.index_update(idx, was);
    }

    /// Adds slot `idx`, in its current phase, to its function's summary.
    #[inline]
    fn summary_enter(&mut self, idx: usize) {
        let v = &mut self.summary[self.func[idx]];
        match self.phase[idx] {
            PhaseTag::Ready => {
                v.ready += 1;
                v.occupancy += self.occupancy[idx] as usize;
                v.best_bottleneck_ms = v.best_bottleneck_ms.min(self.bottleneck_ms[idx]);
                v.best_latency_ms = v.best_latency_ms.min(self.latency_ms[idx]);
            }
            PhaseTag::Launching => v.launching += 1,
            PhaseTag::Draining | PhaseTag::Empty => {}
        }
    }

    /// Takes slot `idx`, in its current phase, out of its function's
    /// summary. A minimum is recomputed over the function's other ready
    /// instances only when the leaving instance holds it.
    fn summary_leave(&mut self, idx: usize) {
        let f = self.func[idx];
        match self.phase[idx] {
            PhaseTag::Ready => {
                let v = self.summary[f];
                let best_bottleneck_ms = if self.bottleneck_ms[idx] == v.best_bottleneck_ms {
                    self.ready_min(f, idx, &self.bottleneck_ms)
                } else {
                    v.best_bottleneck_ms
                };
                let best_latency_ms = if self.latency_ms[idx] == v.best_latency_ms {
                    self.ready_min(f, idx, &self.latency_ms)
                } else {
                    v.best_latency_ms
                };
                self.summary[f] = ExclusiveView {
                    ready: v.ready - 1,
                    occupancy: v.occupancy - self.occupancy[idx] as usize,
                    best_bottleneck_ms,
                    best_latency_ms,
                    ..v
                };
            }
            PhaseTag::Launching => self.summary[f].launching -= 1,
            PhaseTag::Draining | PhaseTag::Empty => {}
        }
    }

    /// The minimum of `column` over `f`'s ready instances other than
    /// `leaving` (infinity when there are none).
    fn ready_min(&self, f: FuncId, leaving: usize, column: &[f64]) -> f64 {
        self.ids[f]
            .iter()
            .map(|id| id.0 as usize)
            .filter(|&i| i != leaving && self.phase[i] == PhaseTag::Ready)
            .map(|i| column[i])
            .fold(f64::INFINITY, f64::min)
    }

    /// The exclusive-fleet summary of `f`: ready and launching counts,
    /// ready occupancy, and the best ready bottleneck and latency
    /// estimates. O(1); equal to
    /// [`exclusive_view_scan`](super::policy::exclusive_view_scan) over
    /// [`ids_of`](Self::ids_of).
    #[inline]
    pub fn exclusive_view(&self, f: FuncId) -> ExclusiveView {
        self.summary.get(f).copied().unwrap_or(ExclusiveView::EMPTY)
    }

    /// Reconciles slot `idx`'s routing-index membership after a column
    /// mutation. `was` is the slot's admissibility *before* the mutation;
    /// the candidate list is only touched when membership actually flips,
    /// so steady traffic below the admission bound costs two column reads
    /// and a compare.
    #[inline]
    fn index_update(&mut self, idx: usize, was: bool) {
        let now = self.admissible_at(idx);
        if was == now {
            return;
        }
        let _maint = span(TelemetryPhase::RouteIndexMaint);
        let f = self.func[idx];
        debug_assert_ne!(f, NO_FUNC, "index update on an empty slot");
        let list = &mut self.admissible[f];
        let id = idx as u32;
        match list.binary_search(&id) {
            Err(pos) if now => list.insert(pos, id),
            Ok(pos) if !now => {
                list.remove(pos);
            }
            _ => debug_assert!(false, "routing index membership out of sync"),
        }
    }

    /// The live instances of `f`, ascending by id.
    #[inline]
    pub fn ids_of(&self, f: FuncId) -> &[InstanceId] {
        self.ids.get(f).map_or(&[], Vec::as_slice)
    }

    /// The routing index for `f`: the admissible (ready, spare admission
    /// capacity) instances of `f` in ascending id order. Routing policies
    /// scan this instead of filtering every instance of the function; the
    /// full-scan equivalent is
    /// [`lowest_latency_full_scan`](super::policy::lowest_latency_full_scan).
    #[inline]
    pub fn admissible_of(&self, f: FuncId) -> &[u32] {
        self.admissible.get(f).map_or(&[], Vec::as_slice)
    }

    /// The lifecycle tag of slot `id` (`Empty` for tombstones / out of
    /// range).
    #[inline]
    pub fn phase_tag(&self, id: InstanceId) -> PhaseTag {
        self.phase
            .get(id.0 as usize)
            .copied()
            .unwrap_or(PhaseTag::Empty)
    }

    /// Requests inside instance `id` (queued + executing + mid-transfer).
    #[inline]
    pub fn occupancy_of(&self, id: InstanceId) -> u32 {
        self.occupancy[id.0 as usize]
    }

    /// The instance's fixed SLO admission bound.
    #[inline]
    pub fn admit_cap_of(&self, id: InstanceId) -> u32 {
        self.admit_cap[id.0 as usize]
    }

    /// The routing-estimate end-to-end latency of instance `id` (ms).
    #[inline]
    pub fn latency_ms_of(&self, id: InstanceId) -> f64 {
        self.latency_ms[id.0 as usize]
    }

    /// The routing-estimate bottleneck stage time of instance `id` (ms).
    #[inline]
    pub fn bottleneck_ms_of(&self, id: InstanceId) -> f64 {
        self.bottleneck_ms[id.0 as usize]
    }

    /// The routing-estimate throughput of instance `id` (rps).
    #[inline]
    pub fn throughput_rps_of(&self, id: InstanceId) -> f64 {
        self.throughput_rps[id.0 as usize]
    }

    /// True when `id` is ready and below its admission bound — the SoA
    /// equivalent of [`Instance::has_capacity`] with the function's SLO.
    #[inline]
    pub fn has_admission_capacity(&self, id: InstanceId) -> bool {
        self.admissible_at(id.0 as usize)
    }

    /// Sum of busy GPCs over every live instance — the per-tick
    /// utilization scan reduced to one integer-column pass.
    pub fn busy_gpcs_total(&self) -> u64 {
        self.busy_gpcs.iter().map(|&g| g as u64).sum()
    }

    /// Re-derives every hot column, the per-function id lists, the routing
    /// index and the summary from the instance records and asserts they
    /// match; debug builds call this from the per-tick path so any
    /// transition that misses a view fails fast.
    pub fn debug_assert_hot_consistent(&self) {
        if cfg!(debug_assertions) {
            for (idx, slot) in self.slots.iter().enumerate() {
                match slot {
                    None => debug_assert_eq!(self.phase[idx], PhaseTag::Empty),
                    Some(inst) => {
                        debug_assert_eq!(self.phase[idx], PhaseTag::of(&inst.phase));
                        debug_assert_eq!(self.occupancy[idx], inst.occupancy() as u32);
                        debug_assert_eq!(self.busy_gpcs[idx], busy_gpcs_of(inst));
                        debug_assert_eq!(self.func[idx], inst.func);
                    }
                }
            }
            for f in 0..self.ids.len() {
                let ids: Vec<InstanceId> = self
                    .keys()
                    .filter(|id| self.func[id.0 as usize] == f)
                    .collect();
                debug_assert_eq!(self.ids[f], ids, "id list diverged for function {f}");
                // The routing index must hold exactly the admissible ids,
                // ascending.
                let expect: Vec<u32> = ids
                    .iter()
                    .filter(|&&id| self.has_admission_capacity(id))
                    .map(|id| id.0 as u32)
                    .collect();
                debug_assert_eq!(
                    self.admissible[f], expect,
                    "routing index diverged for function {f}"
                );
                debug_assert_eq!(
                    self.exclusive_view(f),
                    super::policy::exclusive_view_scan(self, &ids),
                    "exclusive-fleet summary diverged for function {f}"
                );
            }
        }
    }

    /// Drops every instance but keeps all backing capacity, returning the
    /// slab to its empty state for arena reuse.
    pub fn clear_for_reuse(&mut self) {
        self.slots.clear();
        self.phase.clear();
        self.occupancy.clear();
        self.admit_cap.clear();
        self.latency_ms.clear();
        self.bottleneck_ms.clear();
        self.throughput_rps.clear();
        self.busy_gpcs.clear();
        self.func.clear();
        // Keep the outer per-function vectors (and each inner list's
        // capacity): the next run refills them without allocating.
        for list in &mut self.ids {
            list.clear();
        }
        for list in &mut self.admissible {
            list.clear();
        }
        self.summary.fill(ExclusiveView::EMPTY);
        self.live = 0;
    }

    /// Total retained slot capacity across the spine, hot columns and
    /// per-function lists (the arena-growth test asserts this stays flat
    /// after warm-up).
    pub fn retained_capacity(&self) -> usize {
        self.slots.capacity()
            + self.phase.capacity()
            + self.occupancy.capacity()
            + self.admit_cap.capacity()
            + self.latency_ms.capacity()
            + self.bottleneck_ms.capacity()
            + self.throughput_rps.capacity()
            + self.busy_gpcs.capacity()
            + self.func.capacity()
            + self.ids.capacity()
            + self.ids.iter().map(Vec::capacity).sum::<usize>()
            + self.admissible.capacity()
            + self.admissible.iter().map(Vec::capacity).sum::<usize>()
            + self.summary.capacity()
    }

    /// Live instance ids, ascending.
    pub fn keys(&self) -> impl Iterator<Item = InstanceId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .map(|(i, _)| InstanceId(i as u64))
    }

    /// Live instances in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &Instance> {
        self.slots.iter().filter_map(Option::as_ref)
    }
}

/// GPCs of `inst`'s currently executing stages.
fn busy_gpcs_of(inst: &Instance) -> u32 {
    inst.stage_busy
        .iter()
        .zip(&inst.plan.stages)
        .filter(|(b, _)| b.is_some())
        .map(|(_, s)| s.profile.gpcs())
        .sum()
}

impl std::ops::Index<&InstanceId> for InstanceSlab {
    type Output = Instance;

    #[inline]
    fn index(&self, id: &InstanceId) -> &Instance {
        self.get(id).expect("live instance")
    }
}

impl std::ops::Index<InstanceId> for InstanceSlab {
    type Output = Instance;

    #[inline]
    fn index(&self, id: InstanceId) -> &Instance {
        self.get(&id).expect("live instance")
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::instance::{Instance, StageTimings};
    use ffs_dag::PipelinePartition;
    use ffs_mig::{GpuId, NodeId, SliceId, SliceProfile};
    use ffs_pipeline::plan::StagePlan;
    use ffs_pipeline::{DeploymentPlan, InstanceEstimate};

    /// A launching instance of function 0 with one 1g slice per stage.
    fn inst_with_stages(id: u64, stages: usize) -> Instance {
        let parts: Vec<Vec<ffs_dag::NodeId>> = (0..stages)
            .map(|i| vec![ffs_dag::NodeId(i as u32)])
            .collect();
        let plan = DeploymentPlan {
            partition: PipelinePartition::new(parts.clone()),
            stages: parts
                .into_iter()
                .enumerate()
                .map(|(i, nodes)| StagePlan {
                    nodes,
                    slice: SliceId::new(GpuId(0), i as u8),
                    profile: SliceProfile::G1_10,
                    mem_gb: 1.0,
                })
                .collect(),
            cv: 0.0,
        };
        Instance::new(
            InstanceId(id),
            0,
            plan,
            InstanceEstimate {
                latency_ms: 1.0,
                bottleneck_ms: 1.0,
                throughput_rps: 1.0,
            },
            StageTimings::zero(stages),
            NodeId(0),
            SimTime::ZERO,
            SimTime::ZERO,
        )
    }

    fn inst(id: u64) -> Instance {
        inst_with_stages(id, 1)
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut slab = InstanceSlab::new();
        assert!(slab.is_empty());
        slab.insert(InstanceId(3), inst(3), 100.0);
        slab.insert(InstanceId(1), inst(1), 100.0);
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(&InstanceId(3)).unwrap().id, InstanceId(3));
        assert!(slab.get(&InstanceId(2)).is_none());
        assert_eq!(slab.remove(&InstanceId(3)).unwrap().id, InstanceId(3));
        assert!(slab.remove(&InstanceId(3)).is_none(), "double remove");
        assert_eq!(slab.len(), 1);
    }

    #[test]
    fn iteration_is_ascending_by_id() {
        let mut slab = InstanceSlab::new();
        for id in [5u64, 2, 9, 1] {
            slab.insert(InstanceId(id), inst(id), 100.0);
        }
        slab.remove(&InstanceId(2));
        let ids: Vec<u64> = slab.keys().map(|i| i.0).collect();
        assert_eq!(ids, vec![1, 5, 9]);
        let vals: Vec<u64> = slab.values().map(|i| i.id.0).collect();
        assert_eq!(vals, vec![1, 5, 9]);
    }

    #[test]
    fn hot_columns_track_lifecycle_and_load() {
        let mut slab = InstanceSlab::new();
        let id = InstanceId(2);
        slab.insert(id, inst(2), 100.0);
        // inst() launches with bottleneck 1.0ms → cap floor(100/1) = 100.
        assert_eq!(slab.phase_tag(id), PhaseTag::Launching);
        assert_eq!(slab.admit_cap_of(id), 100);
        assert_eq!(slab.occupancy_of(id), 0);
        assert!(!slab.has_admission_capacity(id), "not ready yet");

        slab.set_phase(&id, Phase::Ready);
        assert_eq!(slab.phase_tag(id), PhaseTag::Ready);
        assert!(slab.get(&id).unwrap().is_ready(), "record stays in sync");
        assert!(slab.has_admission_capacity(id));

        assert!(slab.admit(id, 7, SimTime::ZERO));
        assert_eq!(slab.occupancy_of(id), 1);
        assert_eq!(slab.exclusive_view(0).occupancy, 1);
        assert_eq!(slab.start_stage(id, 0, SimTime::ZERO).unwrap().0, 7);
        assert!(
            slab.start_stage(id, 0, SimTime::ZERO).is_none(),
            "stage busy"
        );
        assert_eq!(slab.busy_gpcs_total(), 1);
        slab.debug_assert_hot_consistent();
        slab.finish_stage(id, 0, 7, SimTime::from_secs(1)).unwrap();
        assert_eq!(slab.occupancy_of(id), 0);
        assert_eq!(slab.busy_gpcs_total(), 0);
        assert_eq!(slab.get(&id).unwrap().last_used, SimTime::from_secs(1));
        // Busy from 0 s to the 1 s finish, then idle: half of a 2 s window.
        let util = slab.take_utilization(id, SimTime::from_secs(2), SimDuration::from_secs(2));
        assert!((util - 0.5).abs() < 1e-9);
        slab.debug_assert_hot_consistent();

        slab.remove(&id);
        assert_eq!(slab.phase_tag(id), PhaseTag::Empty);
        assert_eq!(slab.phase_tag(InstanceId(99)), PhaseTag::Empty);
    }

    #[test]
    fn two_stage_request_occupies_until_its_final_stage() {
        let mut slab = InstanceSlab::new();
        let id = InstanceId(1);
        slab.insert(id, inst_with_stages(1, 2), 100.0);
        slab.set_phase(&id, Phase::Ready);
        let t = SimTime::ZERO;
        assert!(slab.admit(id, 9, t));
        assert_eq!(slab.start_stage(id, 0, t).unwrap().0, 9);
        let inst = slab.finish_stage(id, 0, 9, t).unwrap();
        assert_eq!(inst.in_transfer, 1, "stage 0 hands off to a transfer");
        assert_eq!(slab.occupancy_of(id), 1, "mid-transfer still occupies");
        assert_eq!(slab.busy_gpcs_total(), 0);
        slab.debug_assert_hot_consistent();
        assert!(slab.land_transfer(id, 1, 9));
        assert_eq!(slab.occupancy_of(id), 1);
        assert_eq!(slab.get(&id).unwrap().in_transfer, 0);
        assert!(slab.start_stage(id, 1, t).is_some());
        assert_eq!(slab.exclusive_view(0).occupancy, 1);
        slab.debug_assert_hot_consistent();
        assert!(slab.finish_stage(id, 1, 9, t).unwrap().is_empty());
        assert_eq!(slab.occupancy_of(id), 0);
        assert_eq!(slab.exclusive_view(0).occupancy, 0);
        slab.debug_assert_hot_consistent();
        assert!(!slab.land_transfer(InstanceId(5), 1, 9), "not live");
    }

    #[test]
    fn clear_for_reuse_keeps_capacity() {
        let mut slab = InstanceSlab::new();
        for id in 0..16u64 {
            slab.insert(InstanceId(id), inst(id), 100.0);
        }
        let cap = slab.retained_capacity();
        assert!(cap > 0);
        slab.clear_for_reuse();
        assert!(slab.is_empty());
        assert_eq!(slab.retained_capacity(), cap);
        // Reusable: fresh inserts behave normally.
        slab.insert(InstanceId(0), inst(0), 100.0);
        assert_eq!(slab.len(), 1);
        slab.debug_assert_hot_consistent();
    }
}
