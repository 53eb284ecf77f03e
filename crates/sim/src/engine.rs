//! The event loop: a time-ordered queue with deterministic tie-breaking.
//!
//! The pending-event set is a two-level hierarchical timer wheel with a
//! binary-heap overflow for far-future events:
//!
//! * **L0** — 4096 slots of 1 µs each, covering the 4096 µs window that
//!   contains the execution frontier. Within the window every slot maps to
//!   exactly one timestamp, so a slot is a plain FIFO list and FIFO order
//!   *is* insertion-sequence order.
//! * **L1** — 4096 buckets of 4096 µs each, covering the ~16.8 s epoch
//!   that contains the frontier. A bucket holds timestamped events in
//!   insertion order and cascades into L0 when the frontier reaches it.
//! * **Far heap** — events beyond the current epoch wait in a
//!   `BinaryHeap` ordered by `(time, seq)` and are transferred into L1
//!   when their epoch begins.
//! * **Stream** — a pre-sorted batch loaded up front
//!   ([`Scheduler::preload_sorted`], e.g. a trace's arrivals) never enters
//!   the wheel: only its timestamps are stored, behind a cursor, and the
//!   drain merges them with the wheel, building entry `i`'s event from `i`
//!   when it runs. Its seqs precede every pushed event's, so at equal
//!   timestamps the stream head runs first.
//!
//! Wheel events live in one node pool (`Vec<Node<E>>` with a LIFO free
//! list); each slot of either level is just a `(head, tail)` pair of node
//! indices, so a fresh scheduler is two allocations, a push links a
//! node at its slot's tail, and a cascade relinks nodes without copying
//! events. Push and pop are O(1) on the steady-state path (bitmap scans
//! over 64 words with a one-word summary); only events crossing the epoch
//! horizon pay a heap operation. The structure reproduces the reference
//! binary-heap scheduler's `(time, insertion-seq)` execution order
//! bit-for-bit — see `tests/proptest_scheduler.rs` for the equivalence
//! property and `docs/ARCHITECTURE.md` for the ordering proof sketch.

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
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
/// The null node index: ends a list, marks an empty slot.
const NIL: u32 = u32::MAX;

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

/// One pooled wheel entry. A live node holds its event and links to the
/// next node of its slot's list; a free node holds `None` and links to
/// the next free node.
struct Node<E> {
    at: u64,
    next: u32,
    ev: Option<E>,
}

/// A slot's singly linked list of node indices, oldest first.
#[derive(Clone, Copy, Debug)]
struct List {
    head: u32,
    tail: u32,
}

impl List {
    const EMPTY: List = List {
        head: NIL,
        tail: NIL,
    };
}

/// One wheel level: a list per slot plus the occupancy map over them.
/// A slot's bit is set exactly when its list is non-empty.
struct Level {
    lists: Box<[List; SLOTS]>,
    bits: Bitmap,
}

impl Level {
    fn new() -> Self {
        Level {
            lists: vec![List::EMPTY; SLOTS]
                .into_boxed_slice()
                .try_into()
                .expect("exactly SLOTS lists"),
            bits: Bitmap::new(),
        }
    }

    /// Appends node `i` (whose `next` is `NIL`) to slot `s`.
    #[inline]
    fn link<E>(&mut self, nodes: &mut [Node<E>], s: usize, i: u32) {
        let list = &mut self.lists[s];
        if list.tail == NIL {
            list.head = i;
            self.bits.set(s);
        } else {
            nodes[list.tail as usize].next = i;
        }
        list.tail = i;
    }

    /// Empties slot `s` and returns its list's head; the nodes stay linked
    /// to each other, so the caller walks them from there.
    #[inline]
    fn detach(&mut self, s: usize) -> u32 {
        let head = self.lists[s].head;
        self.lists[s] = List::EMPTY;
        self.bits.clear(s);
        head
    }

    /// Empties every occupied slot, bitmap-first (O(occupied)).
    fn clear(&mut self) {
        while let Some(s) = self.bits.first() {
            self.detach(s);
        }
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
    /// Every wheel event lives in one node of this pool; slots hold only
    /// index lists into it, so a cascade relinks nodes instead of copying
    /// events. Grows to the peak wheel population and keeps that capacity.
    nodes: Vec<Node<E>>,
    /// Head of the LIFO free list threaded through `nodes[..].next`.
    free: u32,
    l0: Level,
    l1: Level,
    far: BinaryHeap<Scheduled<E>>,
    /// Timestamps of the pre-sorted events ([`Scheduler::preload_sorted`]),
    /// consumed front-to-back as they run; they never enter the wheel.
    /// Entries carry seqs below every pushed event (preload happens on a
    /// fresh scheduler), so the stream head runs before any wheel event of
    /// the same timestamp, and merging the two by time alone reproduces
    /// exact `(time, seq)` order.
    stream: Vec<u64>,
    /// Index of the stream's head: entries before it have been taken.
    stream_next: usize,
    /// Builds the event of stream entry `i` from `i` when it runs.
    stream_event: fn(u64) -> E,
}

/// The stream constructor of a scheduler nothing was preloaded into.
fn no_stream<E>(i: u64) -> E {
    unreachable!("stream entry {i} on a scheduler with no preload")
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
            nodes: Vec::new(),
            free: NIL,
            l0: Level::new(),
            l1: Level::new(),
            far: BinaryHeap::with_capacity(cap),
            stream: Vec::new(),
            stream_next: 0,
            stream_event: no_stream::<E>,
        }
    }

    /// Returns the scheduler to its freshly constructed state while keeping
    /// every container's grown capacity: occupied wheel slots are emptied
    /// bitmap-first (O(live), not O(4096)), the node pool is truncated,
    /// cursors and counters reset to zero. A pooled scheduler reset this
    /// way is indistinguishable from a new one — same `seq` stream, same
    /// cursor positions — so reuse across runs is bit-exact (the
    /// arena-reuse determinism test pins this down).
    pub fn reset(&mut self) {
        self.l0.clear();
        self.l1.clear();
        self.nodes.clear();
        self.free = NIL;
        self.far.clear();
        self.stream.clear();
        self.stream_next = 0;
        self.stream_event = no_stream::<E>;
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
        self.nodes.capacity() + self.far.capacity() + self.stream.capacity()
    }

    /// Takes a node for `(at, ev)` from the free list, or grows the pool.
    #[inline]
    fn alloc_node(&mut self, at: u64, ev: E) -> u32 {
        let i = self.free;
        if i != NIL {
            let node = &mut self.nodes[i as usize];
            self.free = node.next;
            node.at = at;
            node.next = NIL;
            node.ev = Some(ev);
            i
        } else {
            let i = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("wheel node pool exceeds u32 indices");
            self.nodes.push(Node {
                at,
                next: NIL,
                ev: Some(ev),
            });
            i
        }
    }

    /// Frees node `i` (already unlinked from its slot) and returns its
    /// event and the index it linked to, so a detached list can be walked
    /// while its walked prefix is reused.
    #[inline]
    fn release(&mut self, i: u32) -> (E, u32) {
        let node = &mut self.nodes[i as usize];
        let ev = node.ev.take().expect("linked node holds an event");
        let next = node.next;
        node.next = self.free;
        self.free = i;
        (ev, next)
    }

    /// Number of nodes in the list starting at `i`.
    fn list_len(&self, mut i: u32) -> usize {
        let mut n = 0;
        while i != NIL {
            n += 1;
            i = self.nodes[i as usize].next;
        }
        n
    }

    /// Appends an event at `at` (inside the L0 window) to its L0 slot.
    #[inline]
    fn push_l0(&mut self, at: u64, ev: E) {
        let i = self.alloc_node(at, ev);
        self.l0.link(&mut self.nodes, (at & SLOT_MASK) as usize, i);
    }

    /// Appends an event at `at` (inside the current epoch) to its L1 bucket.
    #[inline]
    fn push_l1(&mut self, at: u64, ev: E) {
        let i = self.alloc_node(at, ev);
        let b = ((at >> LEVEL_BITS) & SLOT_MASK) as usize;
        self.l1.link(&mut self.nodes, b, i);
    }

    /// Bulk-loads a time-sorted batch of events (e.g. a trace's arrivals)
    /// into the scheduler: the `i`-th timestamp runs `event(i)`. Equivalent
    /// to calling [`Scheduler::at`] with `event(i)` for each timestamp in
    /// order, but only the timestamps are stored (8 B each, reserved
    /// exactly from the iterator's size hint), and the drain merges them
    /// with the wheel and builds each event when it runs, so an entry costs
    /// no wheel or heap insert, no cascade and no event copy.
    ///
    /// # Panics
    /// Panics if the scheduler is not fresh (events were already scheduled)
    /// or if the times are not sorted nondecreasingly — both are required
    /// for the stream's seq-order shortcut to be exact.
    pub fn preload_sorted<I: IntoIterator<Item = SimTime>>(
        &mut self,
        times: I,
        event: fn(u64) -> E,
    ) {
        assert_eq!(self.seq, 0, "preload requires a fresh scheduler");
        let times = times.into_iter();
        self.stream.reserve_exact(times.size_hint().0);
        let mut last = 0u64;
        for at in times {
            let at = at.as_micros();
            assert!(at >= last, "preload items must be sorted by time");
            last = at;
            self.stream.push(at);
        }
        self.stream_event = event;
        self.seq = self.stream.len() as u64;
        self.pending = self.stream.len();
    }

    /// Bytes the preload stream holds allocated: 8 per timestamp of the
    /// largest preload this scheduler has seen since it was created.
    pub fn stream_bytes(&self) -> usize {
        self.stream.capacity() * std::mem::size_of::<u64>()
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
            self.push_l0(at, ev);
        } else if at >> (2 * LEVEL_BITS) == self.epoch {
            self.push_l1(at, ev);
        } else {
            self.far.push(Scheduled { at, seq, ev });
        }
    }

    /// The stream head's timestamp, if the stream is non-empty.
    #[inline]
    fn stream_head(&self) -> Option<u64> {
        self.stream.get(self.stream_next).copied()
    }

    /// The timestamp of L0 slot `s`.
    #[inline]
    fn l0_time(&self, s: usize) -> u64 {
        (self.l0_window << LEVEL_BITS) | s as u64
    }

    /// The first timestamp of L1 bucket `b`'s window.
    #[inline]
    fn l1_window_start(&self, b: usize) -> u64 {
        ((self.epoch << LEVEL_BITS) | b as u64) << LEVEL_BITS
    }

    /// The wheel's earliest timestamp, found without moving any cursor.
    /// Only the stepwise reference probes this way: inside one L1 bucket
    /// timestamps are unordered, so this walks the bucket's whole list,
    /// which the batched drive loop never does.
    fn wheel_next_time(&self) -> Option<u64> {
        // Everything in L0 precedes everything in L1 precedes the heap, and
        // L1 buckets are mutually ordered, so the first occupied container
        // decides.
        if let Some(s) = self.l0.bits.first() {
            return Some(self.l0_time(s));
        }
        if let Some(b) = self.l1.bits.first() {
            let mut i = self.l1.lists[b].head;
            let mut min = u64::MAX;
            while i != NIL {
                let node = &self.nodes[i as usize];
                min = min.min(node.at);
                i = node.next;
            }
            return Some(min);
        }
        self.far.peek().map(|s| s.at)
    }

    /// The timestamp of the next event, stream or wheel, without moving
    /// any cursor.
    fn next_time(&self) -> Option<u64> {
        match (self.stream_head(), self.wheel_next_time()) {
            (Some(s), Some(w)) => Some(s.min(w)),
            (s, w) => s.or(w),
        }
    }

    /// True if the stream head runs before every wheel event: it is no
    /// later than the wheel's earliest timestamp (ties go to the stream,
    /// whose seqs precede every pushed event's).
    fn stream_is_next(&self) -> bool {
        match (self.stream_head(), self.wheel_next_time()) {
            (Some(s), Some(w)) => s <= w,
            (s, _) => s.is_some(),
        }
    }

    /// Pops the earliest event, advancing cursors and cascading as needed.
    fn pop_next(&mut self) -> Option<(u64, E)> {
        if self.stream_is_next() {
            let i = self.stream_next;
            let at = *self.stream.get(i)?;
            self.stream_next += 1;
            self.advance_to(at);
            self.pending -= 1;
            return Some((at, (self.stream_event)(i as u64)));
        }
        let s = self.advance_to_l0()?;
        let list = &mut self.l0.lists[s];
        let i = list.head;
        let next = self.nodes[i as usize].next;
        list.head = next;
        if next == NIL {
            list.tail = NIL;
            self.l0.bits.clear(s);
        }
        let (ev, _) = self.release(i);
        self.pending -= 1;
        Some((self.l0_time(s), ev))
    }

    /// Advances cursors (cascading L1 buckets, opening epochs) until the
    /// wheel's earliest event sits in L0; returns its slot index, or
    /// `None` if the wheel is empty. Used by the stepwise reference, which
    /// calls it only once its probe has found a wheel event before the
    /// deadline. Every event an advance moves downward was scheduled
    /// (smaller seq) before any event inserted after the advance, which is
    /// what keeps per-timestamp FIFO order intact.
    fn advance_to_l0(&mut self) -> Option<usize> {
        loop {
            if let Some(s) = self.l0.bits.first() {
                return Some(s);
            }
            if let Some(b) = self.l1.bits.first() {
                self.cascade(b);
                continue;
            }
            let epoch = self.far.peek()?.at >> (2 * LEVEL_BITS);
            self.open_epoch(epoch);
        }
    }

    /// Moves the L0 window (which must be empty) to L1 bucket `b`'s window
    /// and cascades the bucket: walks its list in order and relinks each
    /// node at the tail of its L0 slot (no event moves).
    fn cascade(&mut self, b: usize) {
        self.l0_window = (self.epoch << LEVEL_BITS) | b as u64;
        let mut i = self.l1.detach(b);
        while i != NIL {
            let node = &mut self.nodes[i as usize];
            let next = node.next;
            node.next = NIL;
            let at = node.at;
            debug_assert_eq!(at >> LEVEL_BITS, self.l0_window);
            self.l0.link(&mut self.nodes, (at & SLOT_MASK) as usize, i);
            i = next;
        }
    }

    /// Opens `epoch` while L0 and L1 are empty: moves the cursors to its
    /// first window and transfers its far-heap events into L1. The heap
    /// pops in `(time, seq)` order, so each bucket receives its
    /// same-timestamp events in seq order, and any event inserted after
    /// this transfer carries a larger seq still.
    fn open_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.l0_window = epoch << LEVEL_BITS;
        while let Some(top) = self.far.peek() {
            if top.at >> (2 * LEVEL_BITS) != epoch {
                break;
            }
            let sch = self.far.pop().expect("peeked non-empty");
            self.push_l1(sch.at, sch.ev);
        }
    }

    /// Moves the cursors to `t`'s window before a stream event at `t` runs,
    /// so its handler's pushes route into the levels exactly as they would
    /// had the event come out of L0. `t` is the earliest pending time, so
    /// the wheel holds nothing before it: L0 is empty when the window
    /// changes, L1 is empty when the epoch changes, and only `t`'s own
    /// bucket can need cascading.
    fn advance_to(&mut self, t: u64) {
        let window = t >> LEVEL_BITS;
        if window == self.l0_window {
            return;
        }
        debug_assert!(window > self.l0_window && self.l0.bits.first().is_none());
        let epoch = window >> LEVEL_BITS;
        if epoch != self.epoch {
            debug_assert!(self.l1.bits.first().is_none());
            self.open_epoch(epoch);
        }
        self.cascade((window & SLOT_MASK) as usize);
    }

    /// Finds the next batch to run before `until`, opening L1 buckets and
    /// epochs on the way but never walking an L1 list.
    ///
    /// The wheel's earliest timestamp is exact when L0 is occupied (its
    /// bitmap), and otherwise only bounded from below: by the first L1
    /// bucket's window start, or by the far heap's top when L1 is empty
    /// too. The stream head runs if it is no later than that bound. If the
    /// wheel is next, its container is opened only when the bound lies
    /// before `until` (the *safe-cascade rule*): once this returns, the
    /// caller may push at any `t >= until`, and a cursor beyond `until`
    /// would route such a push behind itself.
    fn front_before(&mut self, until: u64) -> Front {
        loop {
            let stream = self.stream_head();
            let l0 = self.l0.bits.first();
            let l1 = if l0.is_none() {
                self.l1.bits.first()
            } else {
                None
            };
            let bound = match (l0, l1) {
                (Some(s), _) => Some(self.l0_time(s)),
                (None, Some(b)) => Some(self.l1_window_start(b)),
                (None, None) => self.far.peek().map(|s| s.at),
            };
            let Some(bound) = bound else {
                return match stream {
                    Some(t) if t < until => Front::Stream(t),
                    Some(_) => Front::Beyond,
                    None => Front::Empty,
                };
            };
            if let Some(t) = stream.filter(|&t| t <= bound) {
                return if t < until {
                    Front::Stream(t)
                } else {
                    Front::Beyond
                };
            }
            if bound >= until {
                return Front::Beyond;
            }
            match (l0, l1) {
                (Some(s), _) => return Front::Wheel(s),
                (None, Some(b)) => self.cascade(b),
                (None, None) => self.open_epoch(bound >> (2 * LEVEL_BITS)),
            }
        }
    }

    /// Takes the stream's batch at `t` (its head) off the books, moves the
    /// cursor past it and positions the wheel cursors for its handlers;
    /// returns the batch's index range. Handlers cannot touch the stream
    /// (preload needs a fresh scheduler), so taking it whole up front is
    /// exact.
    fn take_stream_batch(&mut self, t: u64) -> std::ops::Range<usize> {
        self.advance_to(t);
        let first = self.stream_next;
        let n = self.stream[first..]
            .iter()
            .take_while(|&&at| at == t)
            .count();
        self.stream_next += n;
        self.pending -= n;
        first..first + n
    }

    /// Detaches L0 slot `s` whole and takes it off the books; returns the
    /// detached list's head and its length. The caller walks the list with
    /// [`Scheduler::release`]: handler pushes may reuse the nodes the walk
    /// has released, while the unwalked rest stays owned by the walk.
    fn take_slot(&mut self, s: usize) -> (u32, usize) {
        let head = self.l0.detach(s);
        let n = self.list_len(head);
        self.pending -= n;
        (head, n)
    }
}

/// What [`run_until`] runs next (see `Scheduler::front_before`).
enum Front {
    /// The stream's head batch, at this timestamp.
    Stream(u64),
    /// The L0 slot holding the wheel's earliest timestamp.
    Wheel(usize),
    /// The earliest pending event lies at or beyond the deadline.
    Beyond,
    /// Nothing is pending.
    Empty,
}

/// A batch [`run_until`] has taken off the books; all of it runs at one
/// timestamp.
enum Batch {
    /// These stream entries, by index.
    Stream(std::ops::Range<usize>),
    /// A detached L0 list, from its head node.
    Wheel(u32),
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
/// draining a *batch* (every queued event of one timestamp from one
/// source: the stream's run at its head, or one L0 slot) at a time.
///
/// Events scheduled exactly at `until` are *not* executed, so consecutive
/// calls with increasing deadlines partition time unambiguously. Deadlines
/// across calls on one scheduler must be non-decreasing: the wheel's
/// window/epoch cursors only move forward, so rewinding the clock would
/// let later pushes land behind them.
///
/// Batch drain is bit-exact with the single-step loop
/// ([`run_until_stepwise`], kept as the executable reference). An L0 slot
/// holds exactly one timestamp in FIFO (= seq) order, and the stream's
/// same-timestamp run is in seq order too. Handlers can only schedule at
/// `t >= now` (past times clamp to `now`), so events pushed mid-batch at
/// the batch's own timestamp land in the (emptied) L0 slot with larger
/// seqs and are taken as the *next* batch before the frontier moves. At a
/// timestamp both sources hold, the stream batch runs first: its seqs are
/// the lowest. `(time, insertion-seq)` order is preserved exactly. The
/// win is amortisation: one probe, one clock update, one obs flush, and
/// one detach per batch instead of per event.
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
    let reason = loop {
        let (at_us, n, batch) = match sched.front_before(until_us) {
            Front::Empty => break StopReason::QueueEmpty,
            Front::Beyond => {
                sched.now = until;
                break StopReason::DeadlineReached;
            }
            Front::Stream(t) => {
                let range = sched.take_stream_batch(t);
                (t, range.len(), Batch::Stream(range))
            }
            Front::Wheel(s) => {
                let (head, n) = sched.take_slot(s);
                (sched.l0_time(s), n, Batch::Wheel(head))
            }
        };
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
        match batch {
            Batch::Stream(range) => {
                let event = sched.stream_event;
                for i in range {
                    world.handle(at, event(i as u64), sched);
                }
            }
            Batch::Wheel(mut i) => {
                // Release each node before its handler runs, so the
                // handler's own pushes can reuse it.
                while i != NIL {
                    let (ev, next) = sched.release(i);
                    world.handle(at, ev, sched);
                    i = next;
                }
            }
        }
    };
    note_executed(sched.executed - executed_at_entry);
    reason
}

/// The one-event-at-a-time reference loop [`run_until`] batched. Kept
/// public so the batch-equivalence property test and the hotpath benches
/// can compare against it; semantics (stop conditions, clock, counters,
/// the stream-first tie rule) are identical, only the drain granularity
/// and the probe differ: this loop finds each next timestamp exactly,
/// without moving a cursor, and advances only to pop it.
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
        s1.preload_sorted(times.iter().copied(), |i| i as u32);
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
    fn preloaded_events_never_enter_the_wheel() {
        struct Plain;
        impl World for Plain {
            type Event = u32;
            fn handle(&mut self, _now: SimTime, _ev: u32, _sched: &mut Scheduler<u32>) {}
        }
        let mut s = Scheduler::new();
        s.preload_sorted(
            (0..100u64).map(|i| SimTime::from_micros(i * 300_000)),
            |i| i as u32,
        );
        assert_eq!(s.pending(), 100);
        assert_eq!(
            run_until(&mut Plain, &mut s, SimTime::MAX),
            StopReason::QueueEmpty
        );
        assert_eq!(s.executed(), 100);
        assert!(
            s.nodes.is_empty() && s.far.is_empty(),
            "stream bypasses wheel and heap"
        );
        // The cursors followed the stream to its last event's window.
        assert_eq!(s.l0_window, (99 * 300_000) >> LEVEL_BITS);
    }

    #[test]
    fn cascades_stop_at_the_deadline() {
        // Safe-cascade rule: a bucket is opened only if its window starts
        // before the deadline, because the caller may push at any time at
        // or after the deadline once `run_until` returns. Windows are
        // 4096 µs: the stream head sits in window 1, the wheel's events in
        // window 2.
        let mut w = Recorder { log: vec![] };
        let mut s = Scheduler::new();
        s.preload_sorted([SimTime::from_micros(5_000)], |i| i as u32 + 20);
        s.at(SimTime::from_micros(10_000), 21);
        // Deadline inside window 1, before window 2 starts: the stream
        // batch runs, window 2's bucket must stay closed...
        let r = run_until(&mut w, &mut s, SimTime::from_micros(6_000));
        assert_eq!(r, StopReason::DeadlineReached);
        // ...so a push between the deadline and window 2 still routes
        // ahead of window 2's events.
        s.at(SimTime::from_micros(7_000), 22);
        // Deadline inside window 2 but before its events: the bucket may
        // open, and a push between the deadline and the events lands in
        // the opened window ahead of them.
        let r = run_until(&mut w, &mut s, SimTime::from_micros(9_000));
        assert_eq!(r, StopReason::DeadlineReached);
        s.at(SimTime::from_micros(9_500), 23);
        run_until(&mut w, &mut s, SimTime::MAX);
        let got: Vec<(u64, u32)> = w.log.iter().map(|&(t, e)| (t.as_micros(), e)).collect();
        assert_eq!(
            got,
            vec![(5_000, 20), (7_000, 22), (9_500, 23), (10_000, 21)]
        );
    }

    #[test]
    #[should_panic(expected = "sorted by time")]
    fn preload_rejects_unsorted_input() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.preload_sorted(vec![SimTime::from_secs(2), SimTime::from_secs(1)], |i| {
            i as u32
        });
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
    fn nodes_freed_mid_batch_are_reused_in_order() {
        // Every first-generation event pushes, while its batch's detached
        // list is still being walked, one event at the batch's own
        // timestamp, one into a later L0 slot and one into a later L1
        // bucket. Each push can take the node its handler's event was just
        // released from, so the walk must survive its prefix being reused.
        struct Fanout {
            log: Vec<(SimTime, u32)>,
        }
        impl World for Fanout {
            type Event = u32;
            fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
                self.log.push((now, ev));
                if ev < 1000 {
                    sched.immediately(ev + 1000);
                    sched.after(SimDuration::from_micros(1 + u64::from(ev % 3)), ev + 2000);
                    sched.after(SimDuration::from_micros(5000), ev + 3000);
                }
            }
        }
        const BATCH: u32 = 8;
        let drive = |batched: bool| {
            let mut w = Fanout { log: vec![] };
            let mut s = Scheduler::new();
            for ev in 0..BATCH {
                s.at(SimTime::from_micros(100), ev);
            }
            s.at(SimTime::from_micros(101), 500);
            let r = if batched {
                run_until(&mut w, &mut s, SimTime::MAX)
            } else {
                run_until_stepwise(&mut w, &mut s, SimTime::MAX)
            };
            let pool = s.nodes.len();
            (w.log, r, s.executed(), s.pending(), s.now(), pool)
        };
        let (log, r, executed, pending, now, pool) = drive(true);
        let (step_log, step_r, step_executed, step_pending, step_now, _) = drive(false);
        assert_eq!(
            (&log, r, executed, pending, now),
            (&step_log, step_r, step_executed, step_pending, step_now)
        );
        let pushed = 4 * (BATCH as usize + 1);
        assert_eq!(log.len(), pushed);
        assert!(
            pool < pushed,
            "freed nodes must be reused ({pool} nodes for {pushed} events)"
        );
        // The same-instant pushes run as the next batch at t=100, behind
        // the whole first generation, in handler order.
        let at_100: Vec<u32> = log
            .iter()
            .filter(|&&(t, _)| t == SimTime::from_micros(100))
            .map(|&(_, e)| e)
            .collect();
        let expected: Vec<u32> = (0..BATCH).chain((0..BATCH).map(|e| e + 1000)).collect();
        assert_eq!(at_100, expected);
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
            s.preload_sorted([SimTime::from_micros(7), SimTime::from_secs(30)], |i| {
                i as u32 + 5
            });
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
