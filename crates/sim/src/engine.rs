//! The event loop: a time-ordered queue with deterministic tie-breaking.
//!
//! Pending events live in two places:
//!
//! * **Queue** — every event pushed with [`Scheduler::at`] (or `after` /
//!   `immediately`) waits in one `Vec` kept sorted by time, equal times
//!   in push order, behind a cursor. A push binary-searches its slot
//!   behind its equal-time peers and inserts there; the drain takes the
//!   earliest events at the cursor and drops taken entries once they are
//!   half the vector. That is exact `(time, insertion-seq)` order without
//!   storing a seq. The insert is O(n), but the queue stays small (7–34
//!   pending on average at a push in the benchmark's workloads, 117 and
//!   at most 192 in `exp_scale` at 4,096 GPUs) and a new follow-up
//!   usually lands near the back: about a quarter of the queue lies
//!   behind it. `hotpath.rs`'s `event_queue_churn`, whose uniform delays
//!   move twice that, has the bare vector ahead of a binary heap at 8
//!   and 48 pending, level at 193 and behind at 1,024: the insert stops
//!   paying at about 200 pending. Bulk loads belong in the stream: pushing n
//!   events earliest-last moves the whole queue each time.
//! * **Stream** — a pre-sorted batch loaded up front
//!   ([`Scheduler::preload_sorted`], e.g. a trace's arrivals) never enters
//!   the queue: only its timestamps are stored, behind a cursor, and the
//!   drain merges them with the queue, building entry `i`'s event from `i`
//!   when it runs. It is loaded before any push, so at equal timestamps
//!   the stream head runs first.
//!
//! [`run_until`] drains one *batch* at a time: every queued event of one
//! timestamp from one source. That is exact `(time, seq)` order — see
//! `tests/proptest_scheduler.rs` for the property against a plain
//! reference heap and `docs/ARCHITECTURE.md` for the argument.

use std::cell::Cell;
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

/// A pushed event and its timestamp (µs); `None` once taken to run.
struct Scheduled<E> {
    at: u64,
    ev: Option<E>,
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
    executed: u64,
    clamps: u64,
    /// Every pushed event, sorted by time with equal times in push order.
    /// Entries before `queue_next` have been taken; the rest are pending.
    queue: Vec<Scheduled<E>>,
    /// Index of the queue's earliest pending entry.
    queue_next: usize,
    /// The queue batch [`run_until`] is dispatching, taken whole before
    /// its first handler runs. Empty between batches; kept only so its
    /// capacity is reused.
    batch: Vec<E>,
    /// Timestamps of the pre-sorted events ([`Scheduler::preload_sorted`]),
    /// consumed front-to-back as they run; they never enter the queue.
    /// Preload happens on a fresh scheduler, so every entry precedes every
    /// pushed event in `(time, seq)` order at equal timestamps: the stream
    /// head runs before any queued event of the same timestamp, and
    /// merging the two by time alone reproduces exact `(time, seq)` order.
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
    /// Creates an empty scheduler at time zero. Allocates nothing: every
    /// container grows on first use.
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            executed: 0,
            clamps: 0,
            queue: Vec::new(),
            queue_next: 0,
            batch: Vec::new(),
            stream: Vec::new(),
            stream_next: 0,
            stream_event: no_stream::<E>,
        }
    }

    /// Returns the scheduler to its freshly constructed state while keeping
    /// every container's grown capacity. A pooled scheduler reset this way
    /// is indistinguishable from a new one — empty queue, same clock — so
    /// reuse across runs is bit-exact (the arena-reuse determinism
    /// test pins this down).
    pub fn reset(&mut self) {
        self.queue.clear();
        self.queue_next = 0;
        self.batch.clear();
        self.stream.clear();
        self.stream_next = 0;
        self.stream_event = no_stream::<E>;
        self.now = SimTime::ZERO;
        self.executed = 0;
        self.clamps = 0;
    }

    /// Total element capacity retained across the scheduler's containers.
    /// The arena-growth test asserts this stays flat once a pooled
    /// scheduler has seen its peak load.
    pub fn retained_capacity(&self) -> usize {
        self.queue.capacity() + self.batch.capacity() + self.stream.capacity()
    }

    /// Bulk-loads a time-sorted batch of events (e.g. a trace's arrivals)
    /// into the scheduler: the `i`-th timestamp runs `event(i)`. Equivalent
    /// to calling [`Scheduler::at`] with `event(i)` for each timestamp in
    /// order, but only the timestamps are stored (8 B each, reserved
    /// exactly from the iterator's size hint), and the drain merges them
    /// with the queue and builds each event when it runs, so an entry
    /// costs no queue insert and no event copy.
    ///
    /// # Panics
    /// Panics if the scheduler is not fresh (events were already scheduled)
    /// or if the times are not sorted nondecreasingly — both are required
    /// for the stream-first tie rule to be exact.
    pub fn preload_sorted<I: IntoIterator<Item = SimTime>>(
        &mut self,
        times: I,
        event: fn(u64) -> E,
    ) {
        assert!(
            self.executed == 0 && self.queue.is_empty() && self.stream.is_empty(),
            "preload requires a fresh scheduler"
        );
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

    /// Number of events still pending (not counting the rest of a batch
    /// already taken for dispatch).
    pub fn pending(&self) -> usize {
        self.queue.len() - self.queue_next + (self.stream.len() - self.stream_next)
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
        // Every queued event was pushed before this one, so it goes behind
        // its equal-time peers. Most pushes land near the back (a new
        // follow-up is usually later than what is already in flight), so
        // the insert moves few entries.
        let at = at.as_micros();
        let pending = &self.queue[self.queue_next..];
        let slot = self.queue_next + pending.partition_point(|s| s.at <= at);
        self.queue.insert(slot, Scheduled { at, ev: Some(ev) });
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

    /// The stream head's timestamp, if the stream is non-empty.
    #[inline]
    fn stream_head(&self) -> Option<u64> {
        self.stream.get(self.stream_next).copied()
    }

    /// The timestamp of the next batch and whether it comes from the
    /// stream: ties go to the stream, which precedes every pushed event.
    #[inline]
    fn front(&self) -> Option<(u64, bool)> {
        let queued = self.queue.get(self.queue_next).map(|s| s.at);
        match (self.stream_head(), queued) {
            (Some(s), Some(h)) if s <= h => Some((s, true)),
            (Some(s), None) => Some((s, true)),
            (_, h) => h.map(|h| (h, false)),
        }
    }

    /// Takes the stream's batch at `t` (its head) off the books and moves
    /// the cursor past it; returns the batch's index range. Handlers
    /// cannot touch the stream (preload needs a fresh scheduler), so
    /// taking it whole up front is exact.
    fn take_stream_batch(&mut self, t: u64) -> std::ops::Range<usize> {
        let first = self.stream_next;
        let n = self.stream[first..]
            .iter()
            .take_while(|&&at| at == t)
            .count();
        self.stream_next += n;
        first..first + n
    }

    /// Moves every queued event at `t` (the queue's earliest time) into
    /// `batch` in push order, moving the cursor past them. Taken entries
    /// are dropped once they are at least half the vector, so dropping
    /// them moves no more pending entries than it drops.
    fn take_queue_batch(&mut self, t: u64, batch: &mut Vec<E>) {
        while let Some(s) = self.queue.get_mut(self.queue_next).filter(|s| s.at == t) {
            batch.push(s.ev.take().expect("pending entries hold their event"));
            self.queue_next += 1;
        }
        if self.queue_next * 2 >= self.queue.len() {
            self.queue.drain(..self.queue_next);
            self.queue_next = 0;
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
/// draining a *batch* (every queued event of one timestamp from one
/// source: the stream's run at its head, or the queue's events at its
/// earliest time) at a time.
///
/// Events scheduled exactly at `until` are *not* executed, so consecutive
/// calls with increasing deadlines partition time unambiguously.
///
/// Batches keep exact `(time, insertion-seq)` order. The stream's
/// same-timestamp run is in seq order, and the queue yields its batch in
/// push order. At a timestamp both sources hold, the stream batch runs
/// first: it was loaded before any push. Handlers can only schedule at
/// `t >= now` (past times clamp to `now`), so events pushed mid-batch at
/// the batch's own timestamp come after the whole batch and run as the
/// *next* batch before the clock moves.
///
/// # Panics
/// Panics if `until` lies before the scheduler's clock: the clock would
/// move backwards, and later pushes would run "before" events that have
/// already run.
pub fn run_until<W: World>(
    world: &mut W,
    sched: &mut Scheduler<W::Event>,
    until: SimTime,
) -> StopReason {
    assert!(
        until >= sched.now,
        "run_until deadlines must be non-decreasing"
    );
    // Profile the queue machinery (probe, batch extraction) as QueueDrain
    // self-time; the per-batch BatchDispatch child below subtracts handler
    // time out of it. One guard per call, one per batch — never per event.
    let _drain = ffs_telemetry::span(ffs_telemetry::Phase::QueueDrain);
    let telemetry = ffs_telemetry::enabled();
    let executed_at_entry = sched.executed;
    let until_us = until.as_micros();
    // The queue batch buffer leaves the scheduler while its handlers hold
    // `&mut Scheduler`, and returns with its capacity after each batch.
    let mut batch = std::mem::take(&mut sched.batch);
    let reason = loop {
        let Some((at_us, from_stream)) = sched.front() else {
            break StopReason::QueueEmpty;
        };
        if at_us >= until_us {
            sched.now = until;
            break StopReason::DeadlineReached;
        }
        let stream = if from_stream {
            sched.take_stream_batch(at_us)
        } else {
            sched.take_queue_batch(at_us, &mut batch);
            0..0
        };
        let n = stream.len() + batch.len();
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
            ffs_obs::sample_queue_depth(at_us, sched.pending() as u64);
        }
        if telemetry {
            batch_events_hist().record(n as u64);
        }
        let _dispatch = ffs_telemetry::span(ffs_telemetry::Phase::BatchDispatch);
        let event = sched.stream_event;
        for i in stream {
            world.handle(at, event(i as u64), sched);
        }
        for ev in batch.drain(..) {
            world.handle(at, ev, sched);
        }
    };
    sched.batch = batch;
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
        // Events microseconds to tens of seconds apart, pushed out of
        // order, with same-timestamp ties near and far.
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
        s.at(SimTime::from_micros(10), 1); // ties with 0, later insert
        let reason = run_until(&mut w, &mut s, SimTime::MAX);
        assert_eq!(reason, StopReason::QueueEmpty);
        let evs: Vec<u32> = w.log.iter().map(|&(_, e)| e).collect();
        assert_eq!(evs, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(s.executed(), 6);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn deadline_at_window_and_epoch_boundaries() {
        // A deadline falling exactly on a queued event's timestamp leaves
        // it queued, and a later insert at that instant runs behind it.
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
        // Times from zero to hours, with duplicates.
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
    fn stream_never_enters_the_heap() {
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
        assert_eq!(s.now(), SimTime::from_micros(99 * 300_000));
        assert_eq!(
            s.queue.capacity() + s.batch.capacity(),
            0,
            "the stream bypasses the queue and its batch buffer"
        );
    }

    #[test]
    fn pushes_between_deadlines_run_before_later_queued_events() {
        // Once `run_until` returns, the caller may push at any time at or
        // after the deadline; such a push must still run ahead of events
        // queued earlier for a later time.
        let mut w = Recorder { log: vec![] };
        let mut s = Scheduler::new();
        s.preload_sorted([SimTime::from_micros(5_000)], |i| i as u32 + 20);
        s.at(SimTime::from_micros(10_000), 21);
        // The stream batch runs; the queued event lies beyond the deadline.
        let r = run_until(&mut w, &mut s, SimTime::from_micros(6_000));
        assert_eq!(r, StopReason::DeadlineReached);
        s.at(SimTime::from_micros(7_000), 22);
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
        // Batches run in exactly the one-event-at-a-time `(time, seq)`
        // order, written out here. The Recorder chains events: event 1's
        // same-instant pushes run as the next batch at t=1, ahead of the
        // earlier-pushed events at t=2, and its far push runs last.
        let mut w = Recorder { log: vec![] };
        let mut s = Scheduler::new();
        for (us, ev) in [
            (2u64, 20),
            (1, 1),
            (2, 22),
            (1_000_000, 23),
            (1_000_000, 24),
        ] {
            s.at(SimTime::from_micros(us), ev);
        }
        let r = run_until(&mut w, &mut s, SimTime::MAX);
        let got: Vec<(u64, u32)> = w.log.iter().map(|&(t, e)| (t.as_micros(), e)).collect();
        let expected = vec![
            (1, 1),
            (1, 10),
            (1, 11),
            (2, 20),
            (2, 22),
            (1_000_000, 23),
            (1_000_000, 24),
            (5_000_001, 99),
        ];
        assert_eq!(got, expected);
        assert_eq!(r, StopReason::QueueEmpty);
        assert_eq!((s.executed(), s.pending()), (8, 0));
        assert_eq!(s.now(), SimTime::from_micros(5_000_001));
    }

    #[test]
    fn nodes_freed_mid_batch_are_reused_in_order() {
        // Every first-generation event pushes, while its batch is still
        // being dispatched, one event at the batch's own timestamp, one a
        // few microseconds later and one 5 ms later.
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
        let mut w = Fanout { log: vec![] };
        let mut s = Scheduler::new();
        for ev in 0..BATCH {
            s.at(SimTime::from_micros(100), ev);
        }
        s.at(SimTime::from_micros(101), 500);
        let r = run_until(&mut w, &mut s, SimTime::MAX);
        assert_eq!(r, StopReason::QueueEmpty);
        let log = w.log;
        assert_eq!(log.len(), 4 * (BATCH as usize + 1));
        assert!(log.windows(2).all(|p| p[0].0 <= p[1].0), "time order");
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

        // A reset scheduler accepts preload again (it is fresh) and
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
    #[should_panic(expected = "non-decreasing")]
    fn run_until_rejects_a_rewound_deadline() {
        let mut w = Recorder { log: vec![] };
        let mut s = Scheduler::new();
        s.at(SimTime::from_secs(20), 3);
        let r = run_until(&mut w, &mut s, SimTime::from_secs(10));
        assert_eq!(r, StopReason::DeadlineReached);
        run_until(&mut w, &mut s, SimTime::from_secs(5));
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
