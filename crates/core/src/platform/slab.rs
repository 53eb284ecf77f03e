//! Id-indexed instance storage: the engine's live-instance table as a
//! slab instead of an ordered map.
//!
//! Instance ids are handed out by a monotonic counter and never reused,
//! so `InstanceId(n)` can index a `Vec` directly: every lookup on the
//! per-event hot path (routing, stage completion, transfers) is one
//! bounds-checked array access instead of a `BTreeMap` descent. Iteration
//! walks the slots in index order, which is exactly the ascending-id
//! order the `BTreeMap` used to give — policy code that depends on
//! first-by-id tie-breaking (FIFO routing, global retire sweeps) is
//! unaffected by the swap.
//!
//! Slots of retired instances stay as `None` tombstones; the vector's
//! length is the highest id ever live, which stays small (hundreds) for
//! any realistic run because launches are rate-limited per scale tick.
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
//! The engine keeps the mutable columns in sync at the few sites where the
//! underlying quantity changes (admission, stage start/finish, phase
//! transitions); `debug_assert_hot_consistent` re-derives every column
//! from the records in debug builds.
//!
//! ## Routing index
//!
//! On top of the columns the slab maintains the *routing index*: one
//! sorted vector of instance ids per function holding exactly the
//! *admissible* instances (`Ready` and below the SLO admission bound).
//! Routing reads the candidate list directly — O(candidates) instead of a
//! filter over every instance of the function — and the list's ascending
//! order preserves the first-best-by-id tie-breaking of the scan it
//! replaces. Membership can only change where the inputs change, so the
//! index is maintained at the same five sites that keep the columns in
//! sync: `insert`, `remove`, `set_phase`, `note_admitted` (a request
//! saturating the bound leaves the index) and `note_stage_finished` (a
//! departure from a saturated instance re-enters it).
//! `debug_assert_hot_consistent` re-derives the whole index in debug
//! builds, and `crates/core/tests/proptest_route_index.rs` pins
//! index-vs-scan equivalence on random mutation sequences.
//!
//! ## Exclusive-fleet summary
//!
//! The overflow-to-shared rule (§5.3) reads an aggregate of each
//! function's exclusive fleet — ready and launching counts, occupancy
//! summed over the ready instances, and the lowest ready bottleneck and
//! latency estimates — for nearly every request under backlog. The slab
//! keeps that aggregate per function ([`ExclusiveView`]) and updates it at
//! the same five sites as the routing index, so reading it is O(1). Counts
//! and the occupancy sum move by exact integer deltas. A minimum only
//! improves while instances join the ready set; when the ready instance
//! holding it leaves, the minimum is recomputed over the function's
//! remaining ready ids. The minimum of a finite set of finite `f64`s does
//! not depend on the order it is taken in, so the summary is bit-identical
//! to the ascending-id scan it replaces
//! ([`exclusive_view_scan`](super::policy::exclusive_view_scan), compared
//! by a `debug_assert_eq` and the proptest above).

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
    /// mutators below index the right candidate list.
    func: Vec<usize>,
    /// The routing index: per-function ascending-id lists of admissible
    /// instances (see the module docs).
    admissible: Vec<Vec<u32>>,
    /// The exclusive-fleet summary of each function (see the module docs).
    summary: Vec<ExclusiveView>,
    /// Ready instance ids of each function, in no particular order — what
    /// a minimum is recomputed over when its holder leaves the ready set.
    ready_ids: Vec<Vec<u32>>,
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

    /// Mutable access to the live instance with id `id`, if any.
    #[inline]
    pub fn get_mut(&mut self, id: &InstanceId) -> Option<&mut Instance> {
        self.slots.get_mut(id.0 as usize).and_then(Option::as_mut)
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
        self.busy_gpcs[idx] = inst
            .stage_busy
            .iter()
            .zip(&inst.plan.stages)
            .filter(|(b, _)| b.is_some())
            .map(|(_, s)| s.profile.gpcs())
            .sum();
        self.func[idx] = inst.func;
        if inst.func >= self.admissible.len() {
            self.admissible.resize_with(inst.func + 1, Vec::new);
            self.summary.resize(inst.func + 1, ExclusiveView::EMPTY);
            self.ready_ids.resize_with(inst.func + 1, Vec::new);
        }
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
            let was =
                self.phase[idx] == PhaseTag::Ready && self.occupancy[idx] < self.admit_cap[idx];
            self.summary_leave(idx);
            self.phase[idx] = PhaseTag::Empty;
            self.occupancy[idx] = 0;
            self.admit_cap[idx] = 0;
            self.latency_ms[idx] = 0.0;
            self.bottleneck_ms[idx] = 0.0;
            self.throughput_rps[idx] = 0.0;
            self.busy_gpcs[idx] = 0;
            self.index_update(idx, was);
            self.func[idx] = NO_FUNC;
            self.live -= 1;
        }
        taken
    }

    /// Sets the instance's lifecycle phase, keeping record and hot column
    /// in lockstep (the engine's only phase-mutation path).
    pub fn set_phase(&mut self, id: &InstanceId, phase: Phase) {
        let idx = id.0 as usize;
        let was = self.phase[idx] == PhaseTag::Ready && self.occupancy[idx] < self.admit_cap[idx];
        let inst = self.slots[idx].as_mut().expect("live instance");
        inst.phase = phase;
        let tag = PhaseTag::of(&phase);
        if tag != self.phase[idx] {
            self.summary_leave(idx);
            self.phase[idx] = tag;
            self.summary_enter(idx);
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
                self.ready_ids[self.func[idx]].push(idx as u32);
            }
            PhaseTag::Launching => v.launching += 1,
            PhaseTag::Draining | PhaseTag::Empty => {}
        }
    }

    /// Takes slot `idx`, in its current phase, out of its function's
    /// summary. A minimum is recomputed over the remaining ready ids only
    /// when the leaving instance holds it.
    fn summary_leave(&mut self, idx: usize) {
        let f = self.func[idx];
        match self.phase[idx] {
            PhaseTag::Ready => {
                let ids = &mut self.ready_ids[f];
                let pos = ids
                    .iter()
                    .position(|&x| x as usize == idx)
                    .expect("ready instance is listed");
                ids.swap_remove(pos);
                let v = &mut self.summary[f];
                v.ready -= 1;
                v.occupancy -= self.occupancy[idx] as usize;
                if self.bottleneck_ms[idx] == v.best_bottleneck_ms {
                    v.best_bottleneck_ms = ids
                        .iter()
                        .map(|&i| self.bottleneck_ms[i as usize])
                        .fold(f64::INFINITY, f64::min);
                }
                if self.latency_ms[idx] == v.best_latency_ms {
                    v.best_latency_ms = ids
                        .iter()
                        .map(|&i| self.latency_ms[i as usize])
                        .fold(f64::INFINITY, f64::min);
                }
            }
            PhaseTag::Launching => self.summary[f].launching -= 1,
            PhaseTag::Draining | PhaseTag::Empty => {}
        }
    }

    /// The exclusive-fleet summary of `f`: ready and launching counts,
    /// ready occupancy, and the best ready bottleneck and latency
    /// estimates. O(1); equal to
    /// [`exclusive_view_scan`](super::policy::exclusive_view_scan) over
    /// the function's instances.
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
        let now = self.phase[idx] == PhaseTag::Ready && self.occupancy[idx] < self.admit_cap[idx];
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
        let idx = id.0 as usize;
        self.phase[idx] == PhaseTag::Ready && self.occupancy[idx] < self.admit_cap[idx]
    }

    /// A request entered instance `id` (queued at stage 0).
    #[inline]
    pub fn note_admitted(&mut self, id: InstanceId) {
        let idx = id.0 as usize;
        let was = self.phase[idx] == PhaseTag::Ready && self.occupancy[idx] < self.admit_cap[idx];
        self.occupancy[idx] += 1;
        if self.phase[idx] == PhaseTag::Ready {
            self.summary[self.func[idx]].occupancy += 1;
        }
        self.index_update(idx, was);
    }

    /// A stage of instance `id` started executing, occupying `gpcs` GPCs.
    #[inline]
    pub fn note_stage_started(&mut self, id: InstanceId, gpcs: u32) {
        self.busy_gpcs[id.0 as usize] += gpcs;
    }

    /// A stage of instance `id` finished; `departed` when the request left
    /// the instance (final stage).
    #[inline]
    pub fn note_stage_finished(&mut self, id: InstanceId, gpcs: u32, departed: bool) {
        let idx = id.0 as usize;
        self.busy_gpcs[idx] -= gpcs;
        if departed {
            let was =
                self.phase[idx] == PhaseTag::Ready && self.occupancy[idx] < self.admit_cap[idx];
            self.occupancy[idx] -= 1;
            if self.phase[idx] == PhaseTag::Ready {
                self.summary[self.func[idx]].occupancy -= 1;
            }
            self.index_update(idx, was);
        }
    }

    /// Sum of busy GPCs over every live instance — the per-tick
    /// utilization scan reduced to one integer-column pass.
    pub fn busy_gpcs_total(&self) -> u64 {
        self.busy_gpcs.iter().map(|&g| g as u64).sum()
    }

    /// Re-derives every hot column from the instance records and asserts
    /// they match; debug builds call this from the per-tick path so any
    /// missed update site fails fast.
    pub fn debug_assert_hot_consistent(&self) {
        if cfg!(debug_assertions) {
            for (idx, slot) in self.slots.iter().enumerate() {
                match slot {
                    None => debug_assert_eq!(self.phase[idx], PhaseTag::Empty),
                    Some(inst) => {
                        debug_assert_eq!(self.phase[idx], PhaseTag::of(&inst.phase));
                        debug_assert_eq!(self.occupancy[idx], inst.occupancy() as u32);
                        let busy: u32 = inst
                            .stage_busy
                            .iter()
                            .zip(&inst.plan.stages)
                            .filter(|(b, _)| b.is_some())
                            .map(|(_, s)| s.profile.gpcs())
                            .sum();
                        debug_assert_eq!(self.busy_gpcs[idx], busy);
                        debug_assert_eq!(self.func[idx], inst.func);
                    }
                }
            }
            // Re-derive the routing index: each function's candidate list
            // must hold exactly its admissible slots, ascending.
            for (f, list) in self.admissible.iter().enumerate() {
                let expect: Vec<u32> = self
                    .slots
                    .iter()
                    .enumerate()
                    .filter(|(idx, s)| {
                        s.is_some()
                            && self.func[*idx] == f
                            && self.has_admission_capacity(InstanceId(*idx as u64))
                    })
                    .map(|(idx, _)| idx as u32)
                    .collect();
                debug_assert_eq!(list, &expect, "routing index diverged for function {f}");
            }
            for f in 0..self.summary.len() {
                let ids: Vec<InstanceId> = self
                    .keys()
                    .filter(|id| self.func[id.0 as usize] == f)
                    .collect();
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
        // Keep the outer per-function vector (and each inner list's
        // capacity): the next run refills them without allocating.
        for list in &mut self.admissible {
            list.clear();
        }
        self.summary.fill(ExclusiveView::EMPTY);
        for list in &mut self.ready_ids {
            list.clear();
        }
        self.live = 0;
    }

    /// Total retained slot capacity across the spine and hot columns (the
    /// arena-growth test asserts this stays flat after warm-up).
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
            + self.admissible.capacity()
            + self.admissible.iter().map(Vec::capacity).sum::<usize>()
            + self.summary.capacity()
            + self.ready_ids.capacity()
            + self.ready_ids.iter().map(Vec::capacity).sum::<usize>()
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
    use ffs_sim::SimTime;

    fn inst(id: u64) -> Instance {
        let nodes = vec![ffs_dag::NodeId(0)];
        let plan = DeploymentPlan {
            partition: PipelinePartition::new(vec![nodes.clone()]),
            stages: vec![StagePlan {
                nodes,
                slice: SliceId::new(GpuId(0), 0),
                profile: SliceProfile::G1_10,
                mem_gb: 1.0,
            }],
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
            StageTimings::zero(1),
            NodeId(0),
            SimTime::ZERO,
            SimTime::ZERO,
        )
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

        slab.note_admitted(id);
        slab.get_mut(&id).unwrap().stage_queues[0].push_back(7);
        assert_eq!(slab.occupancy_of(id), 1);
        slab.get_mut(&id).unwrap().stage_queues[0].pop_front();
        slab.get_mut(&id).unwrap().stage_busy[0] = Some(7);
        slab.note_stage_started(id, 1);
        assert_eq!(slab.busy_gpcs_total(), 1);
        slab.debug_assert_hot_consistent();
        slab.get_mut(&id).unwrap().stage_busy[0] = None;
        slab.note_stage_finished(id, 1, true);
        assert_eq!(slab.occupancy_of(id), 0);
        assert_eq!(slab.busy_gpcs_total(), 0);
        slab.debug_assert_hot_consistent();

        slab.remove(&id);
        assert_eq!(slab.phase_tag(id), PhaseTag::Empty);
        assert_eq!(slab.phase_tag(InstanceId(99)), PhaseTag::Empty);
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
