//! The event program and reference scheduler shared by the scheduler
//! property tests (`proptest_scheduler.rs`, `proptest_batch_drain.rs`).
//!
//! The reference is the plainest event queue there is: one `BinaryHeap`
//! ordered by `(time, insertion-seq)`, popped and run one event at a time.
//! `Pair` drives it in lockstep with the scheduler under test, whose
//! `run_until` drains a batch per timestamp, and checks after every run
//! that logs, stop reasons, clocks, pending counts and clamp counts agree.

// Each test binary compiles this module on its own and uses a subset.
#![allow(dead_code)]

use std::collections::HashSet;

use proptest::prelude::*;

use ffs_sim::{run_until, Scheduler, SimDuration, SimTime, StopReason, World};

// ---------------------------------------------------------------------
// The event program both schedulers execute.
// ---------------------------------------------------------------------

/// Canceller ids: `CANCEL_BASE + v` tombstones victim `v` and requeues it.
pub const CANCEL_BASE: u32 = 10_000;
/// Requeued-copy ids.
pub const REQUEUE_BASE: u32 = 20_000;
/// Log marker for a victim delivered after its tombstone (skipped work).
pub const SKIP_BASE: u32 = 30_000;
/// Backoff before a requeued copy runs (µs); off the strata in
/// `arb_time` so requeues interleave with unrelated events.
pub const REQUEUE_DELAY: u64 = 257;

/// One delivery of the shared program at `now`: logs it and returns the
/// follow-up to schedule, at an absolute time that may lie in the past
/// (both schedulers clamp it to `now`).
///
/// The platform's chaos layer cannot delete queued events; it tombstones
/// the dead target and requeues the work as a fresh event (see
/// `fluidfaas::platform::engine`). Cancellers follow that protocol: a
/// tombstone set consulted at delivery time. Plain ids below 1000 chain
/// one generation of follow-ups.
fn step(
    now: u64,
    ev: u32,
    tomb: &mut HashSet<u32>,
    log: &mut Vec<(u64, u32)>,
) -> Option<(u64, u32)> {
    if (CANCEL_BASE..REQUEUE_BASE).contains(&ev) {
        log.push((now, ev));
        // First cancellation wins; a duplicate canceller is a no-op (the
        // engine never requeues the same dead instance's work twice).
        let victim = ev - CANCEL_BASE;
        return tomb
            .insert(victim)
            .then_some((now + REQUEUE_DELAY, REQUEUE_BASE + victim));
    }
    if tomb.contains(&ev) {
        // A tombstoned victim still *arrives* (the queue has no delete);
        // the handler records it as skipped and does no work.
        log.push((now, SKIP_BASE + ev));
        return None;
    }
    log.push((now, ev));
    if ev >= 1000 {
        return None;
    }
    match ev % 7 {
        // Same instant: must run after every event already queued at
        // this timestamp.
        0 => Some((now, ev + 1000)),
        // Short hop.
        1 => Some((now + 100, ev + 2000)),
        // 4096 µs ahead.
        2 => Some((now + 4096, ev + 3000)),
        // Tens of seconds ahead.
        3 => Some((now + (1 << 25), ev + 4000)),
        // Into the past: clamps to `now`, joining the in-flight timestamp
        // from behind exactly like the same-instant case.
        4 => Some((now.saturating_sub(1 + u64::from(ev)), ev + 5000)),
        _ => None,
    }
}

/// The program as a `World` over the scheduler under test. Follow-ups go
/// through `at`, `immediately` or `after`, whichever fits their time.
#[derive(Default)]
pub struct Program {
    pub log: Vec<(u64, u32)>,
    pub tomb: HashSet<u32>,
}

impl World for Program {
    type Event = u32;
    fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
        let t = now.as_micros();
        let Some((at, next)) = step(t, ev, &mut self.tomb, &mut self.log) else {
            return;
        };
        match at.cmp(&t) {
            std::cmp::Ordering::Less => sched.at(SimTime::from_micros(at), next),
            std::cmp::Ordering::Equal => sched.immediately(next),
            std::cmp::Ordering::Greater => sched.after(SimDuration::from_micros(at - t), next),
        }
    }
}

// ---------------------------------------------------------------------
// Reference scheduler: one (time, seq)-ordered BinaryHeap, popped one
// event at a time, running the same program.
// ---------------------------------------------------------------------

pub struct RefScheduled {
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
pub struct RefScheduler {
    pub now: u64,
    seq: u64,
    pub clamps: u64,
    pub heap: std::collections::BinaryHeap<RefScheduled>,
    pub log: Vec<(u64, u32)>,
    pub tomb: HashSet<u32>,
}

impl RefScheduler {
    pub fn at(&mut self, at: u64, ev: u32) {
        let at = if at < self.now {
            self.clamps += 1;
            self.now
        } else {
            at
        };
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(RefScheduled { at, seq, ev });
    }

    /// Pops strictly-before-deadline events in `(time, seq)` order and
    /// runs the program on each.
    pub fn run_until(&mut self, until: u64) -> StopReason {
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
            if let Some((at, next)) = step(sch.at, sch.ev, &mut self.tomb, &mut self.log) {
                self.at(at, next);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Both sides, loaded identically and driven in lockstep.
// ---------------------------------------------------------------------

#[derive(Default)]
pub struct Pair {
    pub sched: Scheduler<u32>,
    pub world: Program,
    pub reference: RefScheduler,
}

impl Pair {
    /// A pair whose scheduler holds sorted `stream` as its preload, entry
    /// `i` running event `i`; the reference receives the same events
    /// first, since the stream holds the lowest seqs.
    pub fn preloaded(stream: &[u64]) -> Self {
        let mut p = Pair::default();
        p.sched
            .preload_sorted(stream.iter().map(|&t| SimTime::from_micros(t)), |i| {
                i as u32
            });
        for (i, &t) in stream.iter().enumerate() {
            p.reference.at(t, i as u32);
        }
        p
    }

    pub fn push(&mut self, t: u64, ev: u32) {
        self.sched.at(SimTime::from_micros(t), ev);
        self.reference.at(t, ev);
    }

    /// Runs both sides to `until` and checks that everything observable
    /// agrees.
    pub fn run_until(&mut self, until: u64) -> Result<StopReason, String> {
        let got = run_until(
            &mut self.world,
            &mut self.sched,
            SimTime::from_micros(until),
        );
        let want = self.reference.run_until(until);
        prop_assert_eq!(got, want, "stop reason at deadline {}", until);
        prop_assert_eq!(&self.world.log, &self.reference.log);
        prop_assert_eq!(&self.world.tomb, &self.reference.tomb);
        prop_assert_eq!(self.sched.now().as_micros(), self.reference.now);
        prop_assert_eq!(self.sched.pending(), self.reference.heap.len());
        prop_assert_eq!(self.sched.clamps(), self.reference.clamps);
        Ok(got)
    }

    /// Runs `deadlines` (sorted) as segments with one push from `extra`
    /// after each, which may lie in the past and clamp, then drains both.
    pub fn run_segments(&mut self, deadlines: &[u64], extra: &[u64]) -> Result<(), String> {
        for (k, &until) in deadlines.iter().enumerate() {
            self.run_until(until)?;
            self.push(extra[k % extra.len()], 500 + k as u32);
        }
        prop_assert_eq!(self.run_until(u64::MAX)?, StopReason::QueueEmpty);
        prop_assert_eq!(self.sched.pending(), 0);
        Ok(())
    }
}

/// Timestamps drawn to collide often (forcing multi-event batches and
/// same-instant ties) and to spread from microseconds to minutes.
pub fn arb_time() -> impl Strategy<Value = u64> {
    prop_oneof![
        // Dense cluster — forces FIFO ties.
        0u64..16,
        // A narrow band a few ms in.
        4090u64..4102,
        // Anywhere in the first ~17 s.
        0u64..(1 << 24),
        // Up to ~4.5 min.
        (1u64 << 24)..(1 << 28),
    ]
}

/// Sorts `deadlines` after pinning the first to `pin`, so at least one
/// boundary batch must stay queued (run_until deadlines are
/// non-decreasing by contract).
pub fn pinned(mut deadlines: Vec<u64>, pin: Option<u64>) -> Vec<u64> {
    if let (Some(d), Some(t)) = (deadlines.first_mut(), pin) {
        *d = t;
    }
    deadlines.sort_unstable();
    deadlines
}
