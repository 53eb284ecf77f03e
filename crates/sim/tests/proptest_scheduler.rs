//! Property tests: the timer-wheel scheduler executes arbitrary event
//! programs in exactly the order of a reference binary-heap scheduler.
//!
//! The reference implementation below is the pre-wheel scheduler: one
//! `BinaryHeap` ordered by `(time, insertion-seq)`. Both schedulers run
//! the same randomly generated program — a mix of absolute pushes (with
//! clustered timestamps to force same-instant ties, window-edge and
//! epoch-crossing gaps), handler-driven chains of `immediately` and
//! `after`, multi-deadline `run_until` sequences including deadlines
//! that land exactly on event timestamps, and a preloaded sorted stream
//! that the drain merges with the wheel — and must produce identical
//! `(time, event)` logs, clocks, and pending counts.

use proptest::prelude::*;

use ffs_sim::{run_until, Scheduler, SimDuration, SimTime, StopReason, World};

// ---------------------------------------------------------------------
// Reference scheduler: (time, seq)-ordered BinaryHeap, the exact
// structure the timer wheel replaced.
// ---------------------------------------------------------------------

struct RefScheduled {
    at: u64,
    seq: u64,
    ev: u32,
}

impl PartialEq for RefScheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for RefScheduled {}
impl PartialOrd for RefScheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for RefScheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[derive(Default)]
struct RefScheduler {
    now: u64,
    seq: u64,
    heap: std::collections::BinaryHeap<RefScheduled>,
}

impl RefScheduler {
    fn at(&mut self, at: u64, ev: u32) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(RefScheduled { at, seq, ev });
    }

    /// Reference `run_until`: pops strictly-before-deadline events in
    /// `(time, seq)` order, feeding each into `chain`, which may schedule
    /// follow-ups exactly like a `World` handler.
    fn run_until(
        &mut self,
        until: u64,
        log: &mut Vec<(u64, u32)>,
        chain: impl Fn(&mut RefScheduler, u64, u32),
    ) -> StopReason {
        loop {
            match self.heap.peek() {
                None => return StopReason::QueueEmpty,
                Some(top) if top.at >= until => {
                    self.now = until;
                    return StopReason::DeadlineReached;
                }
                Some(_) => {}
            }
            let sch = self.heap.pop().expect("peeked non-empty");
            self.now = sch.at;
            log.push((sch.at, sch.ev));
            chain(self, sch.at, sch.ev);
        }
    }
}

// ---------------------------------------------------------------------
// The event program both schedulers execute.
// ---------------------------------------------------------------------

/// The handler chain: some events schedule follow-ups, exercising
/// same-instant `immediately` chains and relative `after` pushes whose
/// deltas cross window and epoch boundaries.
fn chain_spec(ev: u32) -> Option<(u64, u32)> {
    match ev % 7 {
        // Same-instant chain (delta 0): the follow-up must run after every
        // event already queued at this timestamp.
        0 => Some((0, ev + 1000)),
        // Short hop within the L0 window.
        1 => Some((100, ev + 2000)),
        // Exactly one window (4096 µs) ahead.
        2 => Some((4096, ev + 3000)),
        // Beyond the current epoch (> 2^24 µs).
        3 => Some((1 << 25, ev + 4000)),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Fault-injection program: cancellation via tombstones + requeue.
//
// The platform's chaos layer cannot delete events already inside the
// timer wheel; it tombstones the dead target and requeues the work as a
// fresh event (see `fluidfaas::platform::engine`). These tests pin the
// scheduler-level contract that pattern relies on: a tombstone set
// consulted at delivery time, applied identically over the wheel and the
// reference heap, yields identical logs, clocks and pending counts.
// ---------------------------------------------------------------------

/// Canceller ids: `CANCEL_BASE + v` tombstones victim `v` and requeues it.
const CANCEL_BASE: u32 = 10_000;
/// Requeued-copy ids.
const REQUEUE_BASE: u32 = 20_000;
/// Log marker for a victim delivered after its tombstone (skipped work).
const SKIP_BASE: u32 = 30_000;
/// Backoff before a requeued copy runs (µs); off the strata in
/// `arb_time` so requeues interleave with unrelated events.
const REQUEUE_DELAY: u64 = 257;

/// One delivery under the tombstone protocol, shared verbatim by both
/// schedulers. Returns a follow-up `(delay, id)` to schedule, if any.
fn chaos_step(
    now: u64,
    ev: u32,
    tomb: &mut std::collections::HashSet<u32>,
    log: &mut Vec<(u64, u32)>,
) -> Option<(u64, u32)> {
    if (CANCEL_BASE..REQUEUE_BASE).contains(&ev) {
        let victim = ev - CANCEL_BASE;
        log.push((now, ev));
        // First cancellation wins; a duplicate canceller is a no-op (the
        // engine never requeues the same dead instance's work twice).
        if tomb.insert(victim) {
            return Some((REQUEUE_DELAY, REQUEUE_BASE + victim));
        }
        None
    } else if ev >= REQUEUE_BASE {
        log.push((now, ev));
        None
    } else if tomb.contains(&ev) {
        // A tombstoned victim still *arrives* (the wheel has no delete);
        // the handler records it as skipped and does no work.
        log.push((now, SKIP_BASE + ev));
        None
    } else {
        log.push((now, ev));
        None
    }
}

struct ChaosWorld {
    log: Vec<(u64, u32)>,
    tomb: std::collections::HashSet<u32>,
}

impl World for ChaosWorld {
    type Event = u32;
    fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
        if let Some((delta, next)) = chaos_step(now.as_micros(), ev, &mut self.tomb, &mut self.log)
        {
            sched.after(SimDuration::from_micros(delta), next);
        }
    }
}

/// Reference `run_until` under the tombstone protocol.
fn ref_run_chaos(
    r: &mut RefScheduler,
    until: u64,
    tomb: &mut std::collections::HashSet<u32>,
    log: &mut Vec<(u64, u32)>,
) -> StopReason {
    loop {
        match r.heap.peek() {
            None => return StopReason::QueueEmpty,
            Some(top) if top.at >= until => {
                r.now = until;
                return StopReason::DeadlineReached;
            }
            Some(_) => {}
        }
        let sch = r.heap.pop().expect("peeked non-empty");
        r.now = sch.at;
        if let Some((delta, next)) = chaos_step(sch.at, sch.ev, tomb, log) {
            r.at(sch.at + delta, next);
        }
    }
}

struct WheelWorld {
    log: Vec<(u64, u32)>,
}

impl World for WheelWorld {
    type Event = u32;
    fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
        self.log.push((now.as_micros(), ev));
        // Chain only one generation deep (ids < 1000) so programs stay
        // finite while still exercising handler-driven scheduling.
        if ev < 1000 {
            if let Some((delta, next)) = chain_spec(ev) {
                if delta == 0 {
                    sched.immediately(next);
                } else {
                    sched.after(SimDuration::from_micros(delta), next);
                }
            }
        }
    }
}

fn ref_chain(r: &mut RefScheduler, now: u64, ev: u32) {
    if ev < 1000 {
        if let Some((delta, next)) = chain_spec(ev) {
            r.at(now + delta, next);
        }
    }
}

/// Timestamps drawn to collide often and to straddle the wheel's
/// boundaries: slot-sized, window-sized and epoch-sized strata.
fn arb_time() -> impl Strategy<Value = u64> {
    prop_oneof![
        // Dense cluster inside one L0 window — forces FIFO ties.
        0u64..16,
        // Around the 4096 µs window edge.
        4090u64..4102,
        // Anywhere in the first epoch.
        0u64..(1 << 24),
        // Later epochs (far-heap territory).
        (1u64 << 24)..(1 << 28),
    ]
}

proptest! {
    /// Arbitrary pushes + handler chains execute in identical (time, seq)
    /// order on the wheel and the reference heap.
    #[test]
    fn wheel_matches_reference_heap(times in proptest::collection::vec(arb_time(), 1..40)) {
        let mut wheel_world = WheelWorld { log: vec![] };
        let mut wheel = Scheduler::new();
        let mut reference = RefScheduler::default();
        let mut ref_log = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            wheel.at(SimTime::from_micros(t), i as u32);
            reference.at(t, i as u32);
        }
        let wheel_stop = run_until(&mut wheel_world, &mut wheel, SimTime::MAX);
        let ref_stop = reference.run_until(u64::MAX, &mut ref_log, ref_chain);
        prop_assert_eq!(wheel_stop, ref_stop);
        prop_assert_eq!(&wheel_world.log, &ref_log);
        prop_assert_eq!(wheel.pending(), 0);
    }

    /// Multi-deadline runs agree too, including deadlines that land exactly
    /// on queued timestamps (boundary events stay queued on both sides) and
    /// pushes interleaved between segments.
    #[test]
    fn segmented_runs_match_reference(
        times in proptest::collection::vec(arb_time(), 1..24),
        deadlines in proptest::collection::vec(arb_time(), 1..6),
        extra in proptest::collection::vec(arb_time(), 3),
    ) {
        let mut deadlines = deadlines;
        // Make some deadlines exact event times (index-linked, arbitrary),
        // then sort: run_until deadlines are non-decreasing by contract.
        if let Some(d) = deadlines.first_mut() {
            *d = times[0];
        }
        deadlines.sort_unstable();

        let mut wheel_world = WheelWorld { log: vec![] };
        let mut wheel = Scheduler::new();
        let mut reference = RefScheduler::default();
        let mut ref_log = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            wheel.at(SimTime::from_micros(t), i as u32);
            reference.at(t, i as u32);
        }
        for (k, &until) in deadlines.iter().enumerate() {
            let ws = run_until(&mut wheel_world, &mut wheel, SimTime::from_micros(until));
            let rs = reference.run_until(until, &mut ref_log, ref_chain);
            prop_assert_eq!(ws, rs, "stop reason diverged at deadline {}", k);
            prop_assert_eq!(&wheel_world.log, &ref_log);
            prop_assert_eq!(wheel.now().as_micros(), reference.now);
            prop_assert_eq!(wheel.pending(), reference.heap.len());
            // Interleave a push between segments; past times clamp to now
            // on both sides.
            let t = extra[k % extra.len()];
            let id = 500 + k as u32;
            wheel.at(SimTime::from_micros(t), id);
            reference.at(t, id);
        }
        let ws = run_until(&mut wheel_world, &mut wheel, SimTime::MAX);
        let rs = reference.run_until(u64::MAX, &mut ref_log, ref_chain);
        prop_assert_eq!(ws, rs);
        prop_assert_eq!(&wheel_world.log, &ref_log);
        prop_assert_eq!(wheel.pending(), 0);
    }

    /// The sorted bulk-load path is indistinguishable from individual
    /// pushes of the same sorted batch.
    #[test]
    fn preload_matches_pushes(times in proptest::collection::vec(arb_time(), 1..32)) {
        let mut times = times;
        times.sort_unstable();
        let mut a_world = WheelWorld { log: vec![] };
        let mut a = Scheduler::new();
        a.preload_sorted(times.iter().map(|&t| SimTime::from_micros(t)), |i| i as u32);
        let mut b_world = WheelWorld { log: vec![] };
        let mut b = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            b.at(SimTime::from_micros(t), i as u32);
        }
        run_until(&mut a_world, &mut a, SimTime::MAX);
        run_until(&mut b_world, &mut b, SimTime::MAX);
        prop_assert_eq!(&a_world.log, &b_world.log);
    }

    /// A preloaded sorted stream merged with the wheel: stream entries,
    /// absolute pushes and the handler chains they spawn, run across
    /// multi-deadline segments with a push between segments, execute in
    /// the reference heap's order when the reference receives the
    /// preloaded events first (they hold the lowest seqs). Covers the
    /// stream-first tie rule at shared timestamps, stream batches that
    /// open new windows and epochs, and deadlines that fall between a
    /// wheel bucket's window start and its events.
    #[test]
    fn preloaded_stream_merges_with_wheel_like_reference(
        stream in proptest::collection::vec(arb_time(), 0..32),
        pushes in proptest::collection::vec(arb_time(), 0..16),
        deadlines in proptest::collection::vec(arb_time(), 1..6),
        extra in proptest::collection::vec(arb_time(), 3),
    ) {
        let mut stream = stream;
        stream.sort_unstable();
        let mut deadlines = deadlines;
        // Pin deadlines to exact stream and push timestamps, so boundary
        // batches from both sources must stay queued.
        if let (Some(d), Some(&t)) = (deadlines.first_mut(), stream.first()) {
            *d = t;
        }
        if let (Some(d), Some(&t)) = (deadlines.last_mut(), pushes.first()) {
            *d = t;
        }
        deadlines.sort_unstable();

        let mut wheel_world = WheelWorld { log: vec![] };
        let mut wheel = Scheduler::new();
        let mut reference = RefScheduler::default();
        let mut ref_log = Vec::new();
        wheel.preload_sorted(stream.iter().map(|&t| SimTime::from_micros(t)), |i| i as u32);
        for (i, &t) in stream.iter().enumerate() {
            reference.at(t, i as u32);
        }
        for (i, &t) in pushes.iter().enumerate() {
            let id = 100 + i as u32;
            wheel.at(SimTime::from_micros(t), id);
            reference.at(t, id);
        }
        prop_assert_eq!(wheel.pending(), reference.heap.len());
        for (k, &until) in deadlines.iter().enumerate() {
            let ws = run_until(&mut wheel_world, &mut wheel, SimTime::from_micros(until));
            let rs = reference.run_until(until, &mut ref_log, ref_chain);
            prop_assert_eq!(ws, rs, "stop reason diverged at deadline {}", k);
            prop_assert_eq!(&wheel_world.log, &ref_log);
            prop_assert_eq!(wheel.now().as_micros(), reference.now);
            prop_assert_eq!(wheel.pending(), reference.heap.len());
            let t = extra[k % extra.len()];
            let id = 500 + k as u32;
            wheel.at(SimTime::from_micros(t), id);
            reference.at(t, id);
        }
        let ws = run_until(&mut wheel_world, &mut wheel, SimTime::MAX);
        let rs = reference.run_until(u64::MAX, &mut ref_log, ref_chain);
        prop_assert_eq!(ws, rs);
        prop_assert_eq!(&wheel_world.log, &ref_log);
        prop_assert_eq!(wheel.pending(), 0);
    }

    /// Tombstone cancellation + requeue under fault injection: victims,
    /// cancellers (which tombstone a victim and requeue a copy), and
    /// post-tombstone deliveries (skipped) execute identically on the
    /// wheel and the reference heap, across a mid-run deadline.
    #[test]
    fn tombstone_cancellation_matches_reference(
        victims in proptest::collection::vec(arb_time(), 1..24),
        cancels in proptest::collection::vec((arb_time(), 0usize..24), 0..12),
        mid in arb_time(),
    ) {
        let mut world = ChaosWorld { log: vec![], tomb: Default::default() };
        let mut wheel = Scheduler::new();
        let mut reference = RefScheduler::default();
        let mut ref_tomb = std::collections::HashSet::new();
        let mut ref_log = Vec::new();
        for (i, &t) in victims.iter().enumerate() {
            wheel.at(SimTime::from_micros(t), i as u32);
            reference.at(t, i as u32);
        }
        for &(t, k) in &cancels {
            // Cancellers may land before, at, or after their victim's
            // delivery time — all three orders must agree.
            let id = CANCEL_BASE + (k % victims.len()) as u32;
            wheel.at(SimTime::from_micros(t), id);
            reference.at(t, id);
        }
        // Stop mid-run: pending counts must agree while tombstoned
        // victims and requeued copies are still in flight.
        let ws = run_until(&mut world, &mut wheel, SimTime::from_micros(mid));
        let rs = ref_run_chaos(&mut reference, mid, &mut ref_tomb, &mut ref_log);
        prop_assert_eq!(ws, rs);
        prop_assert_eq!(&world.log, &ref_log);
        prop_assert_eq!(wheel.now().as_micros(), reference.now);
        prop_assert_eq!(wheel.pending(), reference.heap.len());
        let ws = run_until(&mut world, &mut wheel, SimTime::MAX);
        let rs = ref_run_chaos(&mut reference, u64::MAX, &mut ref_tomb, &mut ref_log);
        prop_assert_eq!(ws, rs);
        prop_assert_eq!(&world.log, &ref_log);
        prop_assert_eq!(&world.tomb, &ref_tomb);
        prop_assert_eq!(wheel.pending(), 0);
        // Every cancelled victim produced exactly one requeued copy.
        let requeues = world.log.iter().filter(|(_, e)| *e >= REQUEUE_BASE && *e < SKIP_BASE).count();
        prop_assert_eq!(requeues, world.tomb.len());
    }
}
