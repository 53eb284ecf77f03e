//! The shared-slice pool backing hotness-aware eviction-based time sharing
//! (§5.3).
//!
//! A shared slot is one MIG slice that several *time-sharing* instances
//! (at most one per function) take turns using. Only one function's model
//! is resident at a time — the strong-isolation principle is preserved
//! because only one instance ever accesses the slice. Dispatching a request
//! for a non-resident function evicts the LRU resident (its data moves to
//! CPU memory → the *warm* state) and reloads the target model.

use std::collections::VecDeque;

use ffs_mig::fleet::FreeSlice;
use ffs_sim::{SimDuration, SimTime};

use crate::platform::catalog::FuncId;

/// One shared MIG slice.
#[derive(Clone, Debug)]
pub struct SharedSlot {
    /// The slice (node, id, profile).
    pub slice: FreeSlice,
    /// Functions whose time-sharing instance is bound to this slot (kept
    /// by [`SharedPool::bind`] / [`SharedPool::unbind`], which also keep
    /// the pool's per-function index).
    bound: Vec<FuncId>,
    /// The function whose model currently resides on the slice.
    pub resident: Option<FuncId>,
    /// The request currently executing, if any.
    pub busy_with: Option<u64>,
    /// A reload in progress: `(function being loaded, request waiting)`.
    pub loading: Option<(FuncId, u64)>,
    /// Deadline-ordered waiting requests (sorted on insert by the caller's
    /// urgency key).
    pub queue: VecDeque<(i64, u64)>,
    /// Recency order of residency for LRU eviction (front = least recent).
    pub lru: VecDeque<FuncId>,
    /// Last time the slot did useful work.
    pub last_used: SimTime,
    /// Tombstone: the backing slice failed (fault injection) or was
    /// released by a pool shrink. Dead slots are never removed from the
    /// pool vector — `Vec::remove` would shift the indices referenced by
    /// in-flight `SharedDone` / `SharedLoadDone` events of later slots —
    /// and are skipped by `bind` / `empty_fitting` / shrink.
    pub dead: bool,
    busy_since: Option<SimTime>,
    busy_accum: SimDuration,
}

impl SharedSlot {
    /// Creates an empty slot over a slice.
    pub fn new(slice: FreeSlice, now: SimTime) -> Self {
        SharedSlot {
            slice,
            bound: Vec::new(),
            resident: None,
            busy_with: None,
            loading: None,
            queue: VecDeque::new(),
            lru: VecDeque::new(),
            last_used: now,
            dead: false,
            busy_since: None,
            busy_accum: SimDuration::ZERO,
        }
    }

    /// Functions whose time-sharing instance is bound to this slot.
    pub fn bound(&self) -> &[FuncId] {
        &self.bound
    }

    /// True if the slot can start work immediately.
    pub fn is_free(&self) -> bool {
        self.busy_with.is_none() && self.loading.is_none()
    }

    /// Inserts a request in urgency order (ascending key — §5.3's
    /// "processed in ascending order of these values").
    pub fn enqueue(&mut self, urgency: i64, req: u64) {
        let pos = self.queue.partition_point(|&(u, _)| u <= urgency);
        self.queue.insert(pos, (urgency, req));
    }

    /// Pops the most urgent waiting request.
    pub fn pop(&mut self) -> Option<u64> {
        self.queue.pop_front().map(|(_, r)| r)
    }

    /// Notes that `f` became resident (moves it to MRU position).
    pub fn touch_resident(&mut self, f: FuncId) {
        self.lru.retain(|&g| g != f);
        self.lru.push_back(f);
        self.resident = Some(f);
    }

    /// Marks the slot busy for utilization accounting.
    pub fn mark_busy(&mut self, now: SimTime) {
        if self.busy_since.is_none() {
            self.busy_since = Some(now);
        }
    }

    /// Marks the slot idle.
    pub fn mark_idle(&mut self, now: SimTime) {
        if let Some(since) = self.busy_since.take() {
            self.busy_accum += now.saturating_since(since);
        }
        self.last_used = now;
    }

    /// Windowed utilization (see `Instance::take_utilization`).
    pub fn take_utilization(&mut self, now: SimTime, window: SimDuration) -> f64 {
        let mut busy = self.busy_accum;
        self.busy_accum = SimDuration::ZERO;
        if let Some(since) = self.busy_since {
            busy += now.saturating_since(since);
            self.busy_since = Some(now);
        }
        if window.is_zero() {
            return 0.0;
        }
        (busy / window).min(1.0)
    }
}

/// The pool of shared slices on a platform.
///
/// A slot's index is its identity for the whole run: in-flight
/// `SharedDone` / `SharedLoadDone` events carry it, so slots are only ever
/// appended, and a released slot stays in place as a tombstone.
#[derive(Clone, Debug, Default)]
pub struct SharedPool {
    slots: Vec<SharedSlot>,
    /// `slot_by_func[f]`: the slot `f`'s time-sharing instance is bound to
    /// (grown on demand; stable because slot indices are).
    slot_by_func: Vec<Option<usize>>,
}

impl SharedPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slots.
    pub fn slots(&self) -> &[SharedSlot] {
        &self.slots
    }

    /// Mutable slot access.
    pub fn slot_mut(&mut self, idx: usize) -> &mut SharedSlot {
        &mut self.slots[idx]
    }

    /// Shared slot access.
    pub fn slot(&self, idx: usize) -> &SharedSlot {
        &self.slots[idx]
    }

    /// Number of slots, tombstones included (one past the largest index).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if the pool has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Adds a slice to the pool, returning its slot index.
    pub fn add_slot(&mut self, slice: FreeSlice, now: SimTime) -> usize {
        self.slots.push(SharedSlot::new(slice, now));
        self.slots.len() - 1
    }

    /// Removes a slot (must be unbound and idle) by tombstoning it in
    /// place; returns its slice for the caller to release. Every other
    /// slot keeps its index.
    pub fn remove_slot(&mut self, idx: usize) -> FreeSlice {
        let slot = &mut self.slots[idx];
        debug_assert!(
            !slot.dead && slot.bound.is_empty() && slot.is_free() && slot.queue.is_empty()
        );
        slot.dead = true;
        slot.slice
    }

    /// The slot a function's time-sharing instance is bound to.
    pub fn slot_of(&self, f: FuncId) -> Option<usize> {
        self.slot_by_func.get(f).copied().flatten()
    }

    /// A fitting slot with no bound functions, if any.
    pub fn empty_fitting(&self, mem_gb: f64) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| !s.dead && s.bound.is_empty() && s.slice.profile.fits_memory(mem_gb))
    }

    /// Binds function `f` (memory footprint `mem_gb`) to the fittest slot:
    /// the one with enough memory and the fewest bound functions. Returns
    /// the slot index, or `None` if no slot fits.
    pub fn bind(&mut self, f: FuncId, mem_gb: f64) -> Option<usize> {
        debug_assert!(self.slot_of(f).is_none(), "one TS instance per function");
        let idx = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.dead && s.slice.profile.fits_memory(mem_gb))
            .min_by_key(|(i, s)| (s.bound.len(), *i))
            .map(|(i, _)| i)?;
        self.slots[idx].bound.push(f);
        if self.slot_by_func.len() <= f {
            self.slot_by_func.resize(f + 1, None);
        }
        self.slot_by_func[f] = Some(idx);
        Some(idx)
    }

    /// Unbinds a function from its slot (keep-alive expiry / promotion /
    /// slice fault).
    pub fn unbind(&mut self, f: FuncId) -> Option<usize> {
        let idx = self.slot_by_func.get_mut(f)?.take()?;
        let slot = &mut self.slots[idx];
        slot.bound.retain(|&g| g != f);
        slot.lru.retain(|&g| g != f);
        if slot.resident == Some(f) {
            slot.resident = None;
        }
        Some(idx)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ffs_mig::{GpuId, NodeId, SliceId, SliceProfile};

    fn slice(profile: SliceProfile, idx: u8) -> FreeSlice {
        FreeSlice {
            node: NodeId(0),
            id: SliceId::new(GpuId(0), idx),
            profile,
        }
    }

    #[test]
    fn bind_prefers_least_loaded_fitting_slot() {
        let mut pool = SharedPool::new();
        pool.add_slot(slice(SliceProfile::G1_10, 0), SimTime::ZERO);
        pool.add_slot(slice(SliceProfile::G2_20, 1), SimTime::ZERO);
        // 15 GB only fits the 2g slot.
        assert_eq!(pool.bind(0, 15.0), Some(1));
        // 5 GB fits both; slot 0 has fewer bound functions.
        assert_eq!(pool.bind(1, 5.0), Some(0));
        // Another small one: both have 1 bound; lowest index wins.
        assert_eq!(pool.bind(2, 5.0), Some(0));
        // Nothing fits 25 GB.
        assert_eq!(pool.bind(3, 25.0), None);
        assert_eq!(pool.slot_of(0), Some(1));
        assert_eq!(pool.slot_of(3), None);
    }

    #[test]
    fn unbind_clears_residency() {
        let mut pool = SharedPool::new();
        pool.add_slot(slice(SliceProfile::G1_10, 0), SimTime::ZERO);
        pool.bind(7, 5.0).unwrap();
        pool.slot_mut(0).touch_resident(7);
        assert_eq!(pool.slot(0).resident, Some(7));
        pool.unbind(7);
        assert_eq!(pool.slot(0).resident, None);
        assert!(pool.slot(0).lru.is_empty());
    }

    #[test]
    fn queue_orders_by_urgency() {
        let mut slot = SharedSlot::new(slice(SliceProfile::G1_10, 0), SimTime::ZERO);
        slot.enqueue(30, 1);
        slot.enqueue(10, 2);
        slot.enqueue(20, 3);
        slot.enqueue(10, 4); // FIFO among equals
        assert_eq!(slot.pop(), Some(2));
        assert_eq!(slot.pop(), Some(4));
        assert_eq!(slot.pop(), Some(3));
        assert_eq!(slot.pop(), Some(1));
        assert_eq!(slot.pop(), None);
    }

    #[test]
    fn lru_order_tracks_touches() {
        let mut slot = SharedSlot::new(slice(SliceProfile::G2_20, 0), SimTime::ZERO);
        slot.touch_resident(1);
        slot.touch_resident(2);
        slot.touch_resident(1);
        assert_eq!(slot.lru, vec![2, 1]);
        assert_eq!(slot.resident, Some(1));
    }

    #[test]
    fn remove_slot_returns_slice() {
        let mut pool = SharedPool::new();
        pool.add_slot(slice(SliceProfile::G1_10, 3), SimTime::ZERO);
        let s = pool.remove_slot(0);
        assert_eq!(s.id.index, 3);
        // Tombstoned in place: nothing can bind to it any more.
        assert!(pool.slot(0).dead);
        assert_eq!(pool.empty_fitting(5.0), None);
        assert_eq!(pool.bind(0, 5.0), None);
    }

    #[test]
    fn removing_a_slot_keeps_later_indices_and_bindings() {
        let mut pool = SharedPool::new();
        pool.add_slot(slice(SliceProfile::G1_10, 0), SimTime::ZERO);
        pool.add_slot(slice(SliceProfile::G1_10, 1), SimTime::ZERO);
        pool.add_slot(slice(SliceProfile::G1_10, 2), SimTime::ZERO);
        assert_eq!(pool.bind(4, 5.0), Some(0));
        assert_eq!(pool.bind(5, 5.0), Some(1));
        assert_eq!(pool.bind(6, 5.0), Some(2));
        assert_eq!(pool.unbind(4), Some(0));
        assert_eq!(pool.slot_of(4), None);
        pool.remove_slot(0);
        assert_eq!(pool.slot_of(5), Some(1));
        assert_eq!(pool.slot_of(6), Some(2));
        assert_eq!(pool.slot(1).slice.id.index, 1);
        assert_eq!(pool.slot(2).slice.id.index, 2);
        // Binding skips the tombstone and keeps the lowest-index tie-break.
        assert_eq!(pool.bind(7, 5.0), Some(1));
        assert_eq!(pool.unbind(5), Some(1));
        assert_eq!(pool.slot(1).bound(), &[7]);
    }

    #[test]
    fn slot_utilization_window() {
        let mut slot = SharedSlot::new(slice(SliceProfile::G1_10, 0), SimTime::ZERO);
        slot.mark_busy(SimTime::ZERO);
        slot.mark_idle(SimTime::from_secs(1));
        let u = slot.take_utilization(SimTime::from_secs(4), SimDuration::from_secs(4));
        assert!((u - 0.25).abs() < 1e-9);
    }
}
