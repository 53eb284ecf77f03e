//! The event loop: a time-ordered queue with deterministic tie-breaking.
//!
//! The pending-event set is a two-level hierarchical timer wheel with a
//! binary-heap overflow for far-future events:
//!
//! * **L0** — 4096 slots of 1 µs each, covering the 4096 µs window that
//!   contains the execution frontier. Within the window every slot maps to
//!   exactly one timestamp, so a slot is a plain FIFO queue and FIFO order
//!   *is* insertion-sequence order.
//! * **L1** — 4096 buckets of 4096 µs each, covering the ~16.8 s epoch
//!   that contains the frontier. A bucket holds `(timestamp, event)` pairs
//!   in insertion order and cascades into L0 when the frontier reaches it.
//! * **Far heap** — events beyond the current epoch wait in a
//!   `BinaryHeap` ordered by `(time, seq)` and are transferred into L1
//!   when their epoch begins.
//!
//! Push and pop are O(1) on the steady-state path (bitmap scans over 64
//! words with a one-word summary); only events crossing the epoch horizon
//! pay a heap operation. The structure reproduces the reference
//! binary-heap scheduler's `(time, insertion-seq)` execution order
//! bit-for-bit — see `tests/proptest_scheduler.rs` for the equivalence
//! property and `docs/ARCHITECTURE.md` for the ordering proof sketch.

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

use crate::time::SimTime;

/// A simulated system: receives events, mutates state, schedules more events.
pub trait World {
    /// The event alphabet of this world.
    type Event;

    /// Handles one event at simulation time `now`.
    fn handle(&mut self, now: SimTime, ev: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Process-wide count of events executed by [`run_until`] (all schedulers,
/// all threads); the benchmark harness derives `events_per_sec` from it.
static EXECUTED_EVENTS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Per-thread slice of [`EXECUTED_EVENTS`], so a parallel harness can
    /// attribute events to the worker that executed them.
    static THREAD_EXECUTED: Cell<u64> = const { Cell::new(0) };
}

/// Total events executed through [`run_until`] in this process so far.
pub fn process_executed_events() -> u64 {
    EXECUTED_EVENTS.load(AtomicOrdering::Relaxed)
}

/// Events executed through [`run_until`] on the *calling thread* so far.
/// Workers snapshot this around their run loop to report per-thread skew.
pub fn thread_executed_events() -> u64 {
    THREAD_EXECUTED.with(|c| c.get())
}

/// Batch-size distribution (events per drained timestamp), published to
/// the telemetry registry. The handle is cached in a `OnceLock` so the
/// per-batch cost is one load; the one-time registration happens outside
/// any measured zero-allocation window (during warm-up).
fn batch_events_hist() -> &'static ffs_telemetry::Log2Histogram {
    static HIST: std::sync::OnceLock<&'static ffs_telemetry::Log2Histogram> =
        std::sync::OnceLock::new();
    HIST.get_or_init(|| {
        ffs_telemetry::histogram(
            "ffs_sim_batch_events",
            "Events drained per timestamp batch by run_until",
        )
    })
}

#[inline]
fn note_executed(n: u64) {
    if n > 0 {
        EXECUTED_EVENTS.fetch_add(n, AtomicOrdering::Relaxed);
        THREAD_EXECUTED.with(|c| c.set(c.get() + n));
    }
}

struct Scheduled<E> {
    at: u64,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first. Ties broken by
        // insertion sequence so execution order is deterministic and FIFO.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// log2 of the slot count per wheel level.
const LEVEL_BITS: u32 = 12;
/// Slots per wheel level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Slot-index mask.
const SLOT_MASK: u64 = (SLOTS - 1) as u64;
/// Per-slot FIFO capacity pre-allocated at construction, so steady-state
/// pushes into a fresh slot do not allocate (the zero-allocation hot-path
/// guarantee measured by `fluidfaas`'s counting-allocator test).
const SLOT_PREALLOC: usize = 4;

/// A 4096-bit occupancy map: 64 words plus a one-word summary of which
/// words are non-zero, so the earliest occupied slot is two `ctz`s away.
struct Bitmap {
    words: [u64; SLOTS / 64],
    summary: u64,
}

impl Bitmap {
    fn new() -> Self {
        Bitmap {
            words: [0; SLOTS / 64],
            summary: 0,
        }
    }

    #[inline]
    fn set(&mut self, i: usize) {
        self.words[i >> 6] |= 1 << (i & 63);
        self.summary |= 1 << (i >> 6);
    }

    #[inline]
    fn clear(&mut self, i: usize) {
        let w = i >> 6;
        self.words[w] &= !(1 << (i & 63));
        if self.words[w] == 0 {
            self.summary &= !(1 << w);
        }
    }

    /// Index of the first set bit, if any.
    #[inline]
    fn first(&self) -> Option<usize> {
        if self.summary == 0 {
            return None;
        }
        let w = self.summary.trailing_zeros() as usize;
        Some((w << 6) | self.words[w].trailing_zeros() as usize)
    }
}

/// The pending-event set and simulation clock.
///
/// Handlers receive `&mut Scheduler` and may enqueue future events with
/// [`Scheduler::at`] or [`Scheduler::after`]. Scheduling into the past is a
/// logic error: the timestamp clamps to `now` and the clamp is counted
/// ([`Scheduler::clamps`], surfaced process-wide through
/// `ffs_obs::schedule_clamps`) so the bug is visible in release builds too.
pub struct Scheduler<E> {
    now: SimTime,
    seq: u64,
    executed: u64,
    pending: usize,
    clamps: u64,
    /// The L0 window's index: `frontier_time >> 12`. Slot `s` of `l0`
    /// holds events at exactly `(l0_window << 12) | s`.
    l0_window: u64,
    /// The L1 epoch's index: `frontier_time >> 24` (`== l0_window >> 12`).
    /// Bucket `b` of `l1` holds events in window `(epoch << 12) | b`.
    epoch: u64,
    l0: Vec<VecDeque<E>>,
    l0_bits: Bitmap,
    l1: Vec<Vec<(u64, E)>>,
    l1_bits: Bitmap,
    far: BinaryHeap<Scheduled<E>>,
    /// Pre-sorted far-future events ([`Scheduler::preload_sorted`]),
    /// consumed front-to-back at epoch advances. Entries carry seqs below
    /// every dynamically pushed event (preload happens on a fresh
    /// scheduler), so draining the stream before the heap at each epoch
    /// advance reproduces exact `(time, seq)` order without paying a heap
    /// push + pop per preloaded event. Invariant: every stream entry lies
    /// strictly beyond the current epoch.
    stream: VecDeque<(u64, E)>,
    /// Recycled buffer [`run_until`] bulk-drains each batch into before
    /// dispatching it ([`Scheduler::drain_front_into`]). Owned here so its
    /// grown capacity survives across batches and pooled-scheduler reuse
    /// (the zero-allocation hot path); always empty between calls.
    batch_scratch: Vec<E>,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler at time zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty scheduler with pre-allocated far-heap space for
    /// `cap` pending events. Callers that know the event volume up front
    /// (e.g. a run over a generated trace) avoid growth reallocations.
    pub fn with_capacity(cap: usize) -> Self {
        Scheduler {
            now: SimTime::ZERO,
            seq: 0,
            executed: 0,
            pending: 0,
            clamps: 0,
            l0_window: 0,
            epoch: 0,
            l0: (0..SLOTS)
                .map(|_| VecDeque::with_capacity(SLOT_PREALLOC))
                .collect(),
            l0_bits: Bitmap::new(),
            l1: (0..SLOTS)
                .map(|_| Vec::with_capacity(SLOT_PREALLOC))
                .collect(),
            l1_bits: Bitmap::new(),
            far: BinaryHeap::with_capacity(cap),
            stream: VecDeque::new(),
            batch_scratch: Vec::with_capacity(SLOT_PREALLOC),
        }
    }

    /// Returns the scheduler to its freshly constructed state while keeping
    /// every container's grown capacity: occupied wheel slots are cleared
    /// bitmap-first (O(live), not O(4096)), cursors and counters reset to
    /// zero. A pooled scheduler reset this way is indistinguishable from a
    /// new one — same `seq` stream, same cursor positions — so reuse across
    /// runs is bit-exact (the arena-reuse determinism test pins this down).
    pub fn reset(&mut self) {
        while let Some(s) = self.l0_bits.first() {
            self.l0[s].clear();
            self.l0_bits.clear(s);
        }
        while let Some(b) = self.l1_bits.first() {
            self.l1[b].clear();
            self.l1_bits.clear(b);
        }
        self.far.clear();
        self.stream.clear();
        self.batch_scratch.clear();
        self.now = SimTime::ZERO;
        self.seq = 0;
        self.executed = 0;
        self.pending = 0;
        self.clamps = 0;
        self.l0_window = 0;
        self.epoch = 0;
    }

    /// Total element capacity retained across the scheduler's containers.
    /// The arena-growth test asserts this stays flat once a pooled
    /// scheduler has seen its peak load.
    pub fn retained_capacity(&self) -> usize {
        let l0: usize = self.l0.iter().map(|q| q.capacity()).sum();
        let l1: usize = self.l1.iter().map(|b| b.capacity()).sum();
        l0 + l1 + self.far.capacity() + self.stream.capacity() + self.batch_scratch.capacity()
    }

    /// Bulk-loads a time-sorted batch of events (e.g. a trace's arrivals)
    /// into the scheduler. Equivalent to calling [`Scheduler::at`] for each
    /// item in order, but far-future items wait in a FIFO stream instead of
    /// the overflow heap, so the whole batch costs O(1) per event instead
    /// of O(log n) twice.
    ///
    /// # Panics
    /// Panics if the scheduler is not fresh (events were already scheduled)
    /// or if the items are not sorted by nondecreasing time — both are
    /// required for the stream's seq-order shortcut to be exact.
    pub fn preload_sorted<I: IntoIterator<Item = (SimTime, E)>>(&mut self, items: I) {
        assert_eq!(self.seq, 0, "preload requires a fresh scheduler");
        let mut last = 0u64;
        for (at, ev) in items {
            let at = at.as_micros();
            assert!(at >= last, "preload items must be sorted by time");
            last = at;
            self.stream.push_back((at, ev));
            self.seq += 1;
            self.pending += 1;
        }
        // Pull the epoch-0 prefix down into the wheel so the invariant
        // (stream entries lie strictly beyond the current epoch) holds
        // from the start. Routing window-0 entries straight into L0 is
        // safe only here: the scheduler is fresh, so nothing can already
        // sit in L1's first bucket ahead of them.
        while let Some(&(at, _)) = self.stream.front() {
            if at >> (2 * LEVEL_BITS) != self.epoch {
                break;
            }
            let (at, ev) = self.stream.pop_front().expect("peeked non-empty");
            if at >> LEVEL_BITS == self.l0_window {
                let s = (at & SLOT_MASK) as usize;
                self.l0[s].push_back(ev);
                self.l0_bits.set(s);
            } else {
                let b = ((at >> LEVEL_BITS) & SLOT_MASK) as usize;
                self.l1[b].push((at, ev));
                self.l1_bits.set(b);
            }
        }
    }

    /// Moves every stream entry belonging to the current epoch into L1.
    /// Used at epoch advances, where heap entries of the same window also
    /// land in L1: keeping both in the bucket preserves the "everything in
    /// L0 precedes everything in L1" pop order, and the bucket cascade
    /// restores per-timestamp seq order (stream entries enter first).
    fn drain_stream_for_epoch(&mut self) {
        while let Some(&(at, _)) = self.stream.front() {
            if at >> (2 * LEVEL_BITS) != self.epoch {
                break;
            }
            let (at, ev) = self.stream.pop_front().expect("peeked non-empty");
            let b = ((at >> LEVEL_BITS) & SLOT_MASK) as usize;
            self.l1[b].push((at, ev));
            self.l1_bits.set(b);
        }
    }

    /// The current simulation time (the timestamp of the event being
    /// processed, or zero before the first event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Number of past-scheduling attempts that were clamped to `now`.
    pub fn clamps(&self) -> u64 {
        self.clamps
    }

    /// Schedules `ev` at absolute time `at`.
    #[inline]
    pub fn at(&mut self, at: SimTime, ev: E) {
        let at = if at < self.now {
            // Scheduling into the past is a logic error; clamp to `now`
            // and count it so the bug is visible outside debug builds.
            self.clamps += 1;
            ffs_obs::note_schedule_clamp();
            self.now
        } else {
            at
        };
        let seq = self.seq;
        self.seq += 1;
        self.push_event(at.as_micros(), seq, ev);
    }

    /// Schedules `ev` a relative duration after the current time.
    #[inline]
    pub fn after(&mut self, d: crate::time::SimDuration, ev: E) {
        let at = self.now.saturating_add(d);
        self.at(at, ev);
    }

    /// Schedules `ev` at the current instant (runs after all events already
    /// queued for this instant, preserving FIFO order).
    pub fn immediately(&mut self, ev: E) {
        self.at(self.now, ev);
    }

    /// Routes one event into the level its distance from the frontier
    /// selects. Invariants relied on: `at >= now >= l0_window << 12`, so a
    /// timestamp is never behind the cursor of the level it lands in.
    #[inline]
    fn push_event(&mut self, at: u64, seq: u64, ev: E) {
        self.pending += 1;
        if at >> LEVEL_BITS == self.l0_window {
            let s = (at & SLOT_MASK) as usize;
            self.l0[s].push_back(ev);
            self.l0_bits.set(s);
        } else if at >> (2 * LEVEL_BITS) == self.epoch {
            let b = ((at >> LEVEL_BITS) & SLOT_MASK) as usize;
            self.l1[b].push((at, ev));
            self.l1_bits.set(b);
        } else {
            self.far.push(Scheduled { at, seq, ev });
        }
    }

    /// The timestamp of the next event without disturbing any cursor
    /// (deadline checks must not cascade: a deadline between the frontier
    /// and the next event would otherwise strand later inserts behind an
    /// advanced cursor).
    #[inline]
    fn next_time(&self) -> Option<u64> {
        // Everything in L0 precedes everything in L1 precedes the heap, and
        // L1 buckets are mutually ordered, so the first occupied container
        // decides; only within one L1 bucket are timestamps unordered.
        if let Some(s) = self.l0_bits.first() {
            return Some((self.l0_window << LEVEL_BITS) | s as u64);
        }
        if let Some(b) = self.l1_bits.first() {
            return self.l1[b].iter().map(|&(at, _)| at).min();
        }
        // Both far containers hold only events beyond the current epoch,
        // so a plain minimum suffices.
        match (self.far.peek().map(|s| s.at), self.stream.front()) {
            (Some(h), Some(&(s, _))) => Some(h.min(s)),
            (Some(h), None) => Some(h),
            (None, Some(&(s, _))) => Some(s),
            (None, None) => None,
        }
    }

    /// Pops the earliest event, advancing cursors and cascading as needed.
    fn pop_next(&mut self) -> Option<(u64, E)> {
        let s = self.advance_to_l0()?;
        let q = &mut self.l0[s];
        let ev = q.pop_front().expect("occupied slot");
        if q.is_empty() {
            self.l0_bits.clear(s);
        }
        self.pending -= 1;
        Some(((self.l0_window << LEVEL_BITS) | s as u64, ev))
    }

    /// Advances to the earliest pending timestamp and moves its entire L0
    /// slot into `into` in FIFO (= seq) order, returning the timestamp and
    /// event count. One cursor walk and one bulk `VecDeque` drain replace
    /// the batch's n repeated [`Scheduler::pop_next`] calls (each of which
    /// re-found the first set bit), which is what makes batch extraction
    /// O(n) with a single bitmap touch.
    ///
    /// Equivalent to popping the slot's current events one at a time: the
    /// slot holds exactly one timestamp, handlers can only push at
    /// `t >= now`, so events pushed at this timestamp *during* dispatch
    /// land in the (now empty) slot with larger seqs and form the next
    /// batch — exactly single-step `(time, insertion-seq)` order.
    fn drain_front_into(&mut self, into: &mut Vec<E>) -> Option<(u64, usize)> {
        let s = self.advance_to_l0()?;
        let q = &mut self.l0[s];
        let n = q.len();
        into.extend(q.drain(..));
        self.l0_bits.clear(s);
        self.pending -= n;
        Some(((self.l0_window << LEVEL_BITS) | s as u64, n))
    }

    /// Advances cursors (cascading L1 buckets / the far containers) until
    /// the earliest pending event sits in L0; returns its slot index, or
    /// `None` if nothing is pending. Cascades happen only here — between an
    /// advance and the next insert opportunity — which is what keeps
    /// per-timestamp FIFO order intact: every event an advance moves
    /// downward was scheduled (smaller seq) before any event inserted after
    /// the advance.
    fn advance_to_l0(&mut self) -> Option<usize> {
        loop {
            if let Some(s) = self.l0_bits.first() {
                return Some(s);
            }
            if let Some(b) = self.l1_bits.first() {
                // Advance the L0 window to this bucket and cascade it.
                self.l0_window = (self.epoch << LEVEL_BITS) | b as u64;
                self.l1_bits.clear(b);
                let mut bucket = std::mem::take(&mut self.l1[b]);
                for (at, ev) in bucket.drain(..) {
                    debug_assert_eq!(at >> LEVEL_BITS, self.l0_window);
                    let s = (at & SLOT_MASK) as usize;
                    self.l0[s].push_back(ev);
                    self.l0_bits.set(s);
                }
                // Hand the (empty) buffer back so the bucket keeps its
                // grown capacity for the next epoch's cascade.
                self.l1[b] = bucket;
                continue;
            }
            let far_epoch = self.far.peek().map(|s| s.at >> (2 * LEVEL_BITS));
            let stream_epoch = self.stream.front().map(|&(at, _)| at >> (2 * LEVEL_BITS));
            let new_epoch = match (far_epoch, stream_epoch) {
                (Some(h), Some(s)) => h.min(s),
                (Some(h), None) => h,
                (None, Some(s)) => s,
                (None, None) => return None,
            };
            // Advance the epoch and transfer its events into L1: stream
            // first (its seqs all precede every dynamically pushed event),
            // then the heap, whose pops come out in (time, seq) order. Each
            // bucket therefore receives its same-timestamp events in seq
            // order — and any event inserted after this transfer carries a
            // larger seq still.
            self.epoch = new_epoch;
            self.l0_window = new_epoch << LEVEL_BITS;
            self.drain_stream_for_epoch();
            while let Some(top) = self.far.peek() {
                if top.at >> (2 * LEVEL_BITS) != new_epoch {
                    break;
                }
                let sch = self.far.pop().expect("peeked non-empty");
                let b = ((sch.at >> LEVEL_BITS) & SLOT_MASK) as usize;
                self.l1[b].push((sch.at, sch.ev));
                self.l1_bits.set(b);
            }
        }
    }
}

/// Why [`run_until`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The event queue drained before the deadline.
    QueueEmpty,
    /// The next event lies at or beyond the deadline; it remains queued.
    DeadlineReached,
}

/// Runs the world until the queue empties or the clock reaches `until`,
/// draining the wheel a *batch* (one L0 slot = one timestamp) at a time.
///
/// Events scheduled exactly at `until` are *not* executed, so consecutive
/// calls with increasing deadlines partition time unambiguously. Deadlines
/// across calls on one scheduler must be non-decreasing: the wheel's
/// window/epoch cursors only move forward, so rewinding the clock would
/// let later pushes land behind them.
///
/// Batch drain is bit-exact with the single-step loop
/// ([`run_until_stepwise`], kept as the executable reference):
/// an L0 slot holds exactly one timestamp in FIFO (= seq) order; handlers
/// can only schedule at `t >= now` (past times clamp to `now`), so events
/// pushed mid-batch at the batch's own timestamp land in the emptied slot
/// with larger seqs and are taken as the *next* batch before the frontier
/// moves — `(time, insertion-seq)` order is preserved exactly. The win is
/// amortisation: one deadline probe, one clock update, one obs flush, and
/// one bulk slot drain per timestamp instead of per event.
pub fn run_until<W: World>(
    world: &mut W,
    sched: &mut Scheduler<W::Event>,
    until: SimTime,
) -> StopReason {
    debug_assert!(
        until >= sched.now,
        "run_until deadlines must be non-decreasing"
    );
    // Profile the wheel machinery (probe / cursor / batch extraction) as
    // WheelDrain self-time; the per-batch BatchDispatch child below
    // subtracts handler time out of it. One guard per call, one per
    // batch — never per event.
    let _drain = ffs_telemetry::span(ffs_telemetry::Phase::WheelDrain);
    let telemetry = ffs_telemetry::enabled();
    let executed_at_entry = sched.executed;
    let until_us = until.as_micros();
    // The scratch is owned by the scheduler (capacity survives batches and
    // pooled reuse) but moved out for the call so handlers' `&mut sched`
    // cannot alias the buffer being drained.
    let mut batch = std::mem::take(&mut sched.batch_scratch);
    debug_assert!(batch.is_empty());
    let reason = loop {
        // Probe first: advancing cursors for (or popping and re-queueing) a
        // boundary event would reorder it behind same-timestamp peers (a
        // bug the engine's property tests guard against).
        match sched.next_time() {
            None => break StopReason::QueueEmpty,
            Some(t) if t >= until_us => {
                sched.now = until;
                break StopReason::DeadlineReached;
            }
            Some(_) => {}
        }
        let (at_us, n) = sched
            .drain_front_into(&mut batch)
            .expect("probed non-empty");
        let at = SimTime::from_micros(at_us);
        sched.now = at;
        sched.executed += n as u64;
        // Observability hook, once per batch: publish the sim clock to the
        // thread-local ambient time (so time-unaware crates can stamp
        // events) and offer a queue-depth sample (of what remains beyond
        // this batch). Pure observation — world state is untouched, so
        // execution is byte-identical with tracing on or off.
        if ffs_obs::enabled() {
            ffs_obs::set_now_us(at_us);
            ffs_obs::sample_queue_depth(at_us, sched.pending as u64);
        }
        if telemetry {
            batch_events_hist().record(n as u64);
        }
        let _dispatch = ffs_telemetry::span(ffs_telemetry::Phase::BatchDispatch);
        for ev in batch.drain(..) {
            world.handle(at, ev, sched);
        }
    };
    // Hand the (empty) scratch back so its capacity is retained. A handler
    // panic drops it instead, leaving the default empty Vec — consistent,
    // just cold.
    sched.batch_scratch = batch;
    note_executed(sched.executed - executed_at_entry);
    reason
}

/// The one-event-at-a-time reference loop [`run_until`] batched. Kept
/// public so the batch-equivalence property test and the hotpath benches
/// can compare against it; semantics (stop conditions, clock, counters)
/// are identical, only the drain granularity differs.
pub fn run_until_stepwise<W: World>(
    world: &mut W,
    sched: &mut Scheduler<W::Event>,
    until: SimTime,
) -> StopReason {
    debug_assert!(
        until >= sched.now,
        "run_until deadlines must be non-decreasing"
    );
    let executed_at_entry = sched.executed;
    let reason = loop {
        match sched.next_time() {
            None => break StopReason::QueueEmpty,
            Some(t) if t >= until.as_micros() => {
                sched.now = until;
                break StopReason::DeadlineReached;
            }
            Some(_) => {}
        }
        let (at_us, ev) = sched.pop_next().expect("probed non-empty");
        let at = SimTime::from_micros(at_us);
        sched.now = at;
        sched.executed += 1;
        if ffs_obs::enabled() {
            ffs_obs::set_now_us(at_us);
            ffs_obs::sample_queue_depth(at_us, sched.pending as u64);
        }
        world.handle(at, ev, sched);
    };
    note_executed(sched.executed - executed_at_entry);
    reason
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    struct Recorder {
        log: Vec<(SimTime, u32)>,
    }

    impl World for Recorder {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
            self.log.push((now, ev));
            if ev == 1 {
                // Chain: event 1 schedules events 10 and 11 at the same instant.
                sched.immediately(10);
                sched.immediately(11);
                sched.after(SimDuration::from_secs(5), 99);
            }
        }
    }

    #[test]
    fn events_run_in_time_order_with_fifo_ties() {
        let mut w = Recorder { log: vec![] };
        let mut s = Scheduler::new();
        s.at(SimTime::from_secs(2), 2);
        s.at(SimTime::from_secs(1), 1);
        s.at(SimTime::from_secs(2), 3); // same time as 2, inserted later
        let reason = run_until(&mut w, &mut s, SimTime::from_secs(100));
        assert_eq!(reason, StopReason::QueueEmpty);
        let evs: Vec<u32> = w.log.iter().map(|&(_, e)| e).collect();
        assert_eq!(evs, vec![1, 10, 11, 2, 3, 99]);
    }

    #[test]
    fn deadline_excludes_boundary_event() {
        let mut w = Recorder { log: vec![] };
        let mut s = Scheduler::new();
        s.at(SimTime::from_secs(1), 1);
        let reason = run_until(&mut w, &mut s, SimTime::from_secs(6));
        assert_eq!(reason, StopReason::DeadlineReached);
        // Event 99 (at t=6) must still be pending.
        assert_eq!(s.pending(), 1);
        assert_eq!(s.now(), SimTime::from_secs(6));
        // Resuming executes it.
        let reason = run_until(&mut w, &mut s, SimTime::from_secs(7));
        assert_eq!(reason, StopReason::QueueEmpty);
        assert_eq!(w.log.last().unwrap().1, 99);
    }

    #[test]
    fn immediately_runs_after_already_queued_same_instant_events() {
        struct W {
            order: Vec<u32>,
        }
        impl World for W {
            type Event = u32;
            fn handle(&mut self, _t: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
                self.order.push(ev);
                if ev == 0 {
                    sched.immediately(5);
                }
            }
        }
        let mut w = W { order: vec![] };
        let mut s = Scheduler::new();
        s.at(SimTime::ZERO, 0);
        s.at(SimTime::ZERO, 1);
        run_until(&mut w, &mut s, SimTime::MAX);
        assert_eq!(w.order, vec![0, 1, 5]);
    }

    #[test]
    fn executed_counter_counts() {
        let mut w = Recorder { log: vec![] };
        let mut s = Scheduler::new();
        s.at(SimTime::ZERO, 7);
        run_until(&mut w, &mut s, SimTime::MAX);
        assert_eq!(s.executed(), 1);
    }

    #[test]
    fn empty_queue_returns_immediately() {
        let mut w = Recorder { log: vec![] };
        let mut s: Scheduler<u32> = Scheduler::new();
        assert_eq!(
            run_until(&mut w, &mut s, SimTime::from_secs(1)),
            StopReason::QueueEmpty
        );
    }

    #[test]
    fn far_future_events_cross_epochs_in_order() {
        // Spread events across L0, L1 and the far heap (the L1 span is
        // ~16.8 s), with a same-timestamp tie in the far region.
        struct Plain {
            log: Vec<(SimTime, u32)>,
        }
        impl World for Plain {
            type Event = u32;
            fn handle(&mut self, now: SimTime, ev: u32, _sched: &mut Scheduler<u32>) {
                self.log.push((now, ev));
            }
        }
        let mut w = Plain { log: vec![] };
        let mut s = Scheduler::new();
        s.at(SimTime::from_secs(40), 4);
        s.at(SimTime::from_micros(10), 0);
        s.at(SimTime::from_secs(40), 5); // same instant as 4, later insert
        s.at(SimTime::from_secs(20), 3);
        s.at(SimTime::from_millis(8), 2);
        s.at(SimTime::from_micros(10), 1); // ties with 0 within one L0 slot
        let reason = run_until(&mut w, &mut s, SimTime::MAX);
        assert_eq!(reason, StopReason::QueueEmpty);
        let evs: Vec<u32> = w.log.iter().map(|&(_, e)| e).collect();
        assert_eq!(evs, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(s.executed(), 6);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn deadline_at_window_and_epoch_boundaries() {
        // A deadline falling on an exact 4096 µs window edge (and beyond
        // the current epoch) must not strand or reorder events.
        let mut w = Recorder { log: vec![] };
        let mut s = Scheduler::new();
        let window_edge = SimTime::from_micros(4096);
        s.at(window_edge, 7);
        assert_eq!(
            run_until(&mut w, &mut s, window_edge),
            StopReason::DeadlineReached
        );
        assert!(w.log.is_empty(), "boundary event must stay queued");
        // An insert at the deadline instant lands behind the queued peer.
        s.at(window_edge, 8);
        run_until(&mut w, &mut s, SimTime::MAX);
        let evs: Vec<u32> = w.log.iter().map(|&(_, e)| e).collect();
        assert_eq!(evs, vec![7, 8]);
    }

    #[test]
    fn past_scheduling_clamps_and_counts() {
        struct W {
            log: Vec<(SimTime, u32)>,
        }
        impl World for W {
            type Event = u32;
            fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
                self.log.push((now, ev));
                if ev == 1 {
                    // A logic error: schedule one second into the past.
                    sched.at(now - SimDuration::from_secs(1), 2);
                }
            }
        }
        let before = ffs_obs::schedule_clamps();
        let mut w = W { log: vec![] };
        let mut s = Scheduler::new();
        s.at(SimTime::from_secs(5), 1);
        run_until(&mut w, &mut s, SimTime::MAX);
        // The clamped event ran at `now`, not in the past, and was counted.
        assert_eq!(
            w.log,
            vec![(SimTime::from_secs(5), 1), (SimTime::from_secs(5), 2)]
        );
        assert_eq!(s.clamps(), 1);
        assert_eq!(ffs_obs::schedule_clamps(), before + 1);
    }

    #[test]
    fn preload_matches_individual_pushes() {
        struct Plain {
            log: Vec<(SimTime, u32)>,
        }
        impl World for Plain {
            type Event = u32;
            fn handle(&mut self, now: SimTime, ev: u32, _sched: &mut Scheduler<u32>) {
                self.log.push((now, ev));
            }
        }
        // Times span L0, L1 and several epochs, with duplicates.
        let times: Vec<SimTime> = [0u64, 0, 10, 4096, 5000, 5000, 20_000_000, 40_000_000_000]
            .iter()
            .map(|&us| SimTime::from_micros(us))
            .collect();
        let mut via_preload = Plain { log: vec![] };
        let mut s1 = Scheduler::new();
        s1.preload_sorted(times.iter().enumerate().map(|(i, &t)| (t, i as u32)));
        // A dynamic push tying with a preloaded timestamp runs after it.
        s1.at(SimTime::from_micros(5000), 90);
        assert_eq!(s1.pending(), times.len() + 1);
        run_until(&mut via_preload, &mut s1, SimTime::MAX);

        let mut via_at = Plain { log: vec![] };
        let mut s2 = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            s2.at(t, i as u32);
        }
        s2.at(SimTime::from_micros(5000), 90);
        run_until(&mut via_at, &mut s2, SimTime::MAX);

        assert_eq!(via_preload.log, via_at.log);
        assert_eq!(s1.pending(), 0);
    }

    #[test]
    #[should_panic(expected = "sorted by time")]
    fn preload_rejects_unsorted_input() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.preload_sorted(vec![(SimTime::from_secs(2), 0), (SimTime::from_secs(1), 1)]);
    }

    #[test]
    fn batch_and_stepwise_drains_agree() {
        // The Recorder chains events (same-instant pushes mid-batch and a
        // far-future push), exercising the refreshed-slot re-take path.
        let seed_times = [2u64, 1, 2, 1_000_000, 1_000_000];
        let drive = |batched: bool| {
            let mut w = Recorder { log: vec![] };
            let mut s = Scheduler::new();
            for (i, &us) in seed_times.iter().enumerate() {
                s.at(
                    SimTime::from_micros(us),
                    if i == 1 { 1 } else { i as u32 + 20 },
                );
            }
            let r = if batched {
                run_until(&mut w, &mut s, SimTime::MAX)
            } else {
                run_until_stepwise(&mut w, &mut s, SimTime::MAX)
            };
            (w.log, r, s.executed(), s.pending(), s.now())
        };
        assert_eq!(drive(true), drive(false));
    }

    #[test]
    fn reset_restores_fresh_scheduler_semantics() {
        let mut w = Recorder { log: vec![] };
        let mut s = Scheduler::new();
        s.at(SimTime::from_secs(1), 1);
        s.at(SimTime::from_secs(100), 2); // left pending past the deadline
        run_until(&mut w, &mut s, SimTime::from_secs(50));
        assert!(s.pending() > 0);
        let cap = s.retained_capacity();

        s.reset();
        assert_eq!(s.pending(), 0);
        assert_eq!(s.executed(), 0);
        assert_eq!(s.now(), SimTime::ZERO);
        assert_eq!(s.retained_capacity(), cap, "reset must keep capacity");

        // A reset scheduler accepts preload again (requires seq == 0) and
        // replays identically to a fresh one.
        let replay = |s: &mut Scheduler<u32>| {
            s.preload_sorted([(SimTime::from_micros(7), 5), (SimTime::from_secs(30), 6)]);
            s.at(SimTime::from_micros(7), 7);
            let mut w = Recorder { log: vec![] };
            run_until(&mut w, s, SimTime::MAX);
            w.log
        };
        let reused = replay(&mut s);
        let fresh = replay(&mut Scheduler::new());
        assert_eq!(reused, fresh);
    }

    #[test]
    fn process_event_counter_accumulates() {
        let before = process_executed_events();
        let mut w = Recorder { log: vec![] };
        let mut s = Scheduler::new();
        s.at(SimTime::ZERO, 3);
        s.at(SimTime::from_millis(1), 4);
        run_until(&mut w, &mut s, SimTime::MAX);
        assert!(process_executed_events() >= before + 2);
    }
}
