//! Property tests: the batched drive loop (`run_until`, which drains one
//! L0 slot per iteration and dispatches the whole same-timestamp batch
//! under a single clock update) is observationally identical to the
//! per-event loop (`run_until_stepwise`, the pre-batching `pop_next`
//! loop it replaced).
//!
//! Both loops run the same randomly generated program on two independent
//! schedulers and must produce identical `(time, event)` logs, clocks,
//! pending counts and stop reasons. The programs deliberately hit the
//! batch loop's tricky spots:
//!
//! * same-instant pushes from inside a batch (the refreshed slot must be
//!   taken as the *next* batch, after the borrowed one finishes, in seq
//!   order behind its surviving siblings),
//! * past-time pushes that clamp to `now` (joining the in-flight
//!   timestamp from behind),
//! * tombstone cancellation + requeue (delivery-time filtering, exactly
//!   as the chaos layer does it),
//! * deadlines landing exactly on queued timestamps (the boundary batch
//!   stays queued on both sides).

use proptest::prelude::*;

use ffs_sim::{run_until, run_until_stepwise, Scheduler, SimDuration, SimTime, StopReason, World};

/// Canceller ids: `CANCEL_BASE + v` tombstones victim `v` and requeues it.
const CANCEL_BASE: u32 = 10_000;
/// Requeued-copy ids.
const REQUEUE_BASE: u32 = 20_000;
/// Log marker for a victim delivered after its tombstone.
const SKIP_BASE: u32 = 30_000;

/// One delivery of the shared program. Victim/canceller ids follow the
/// tombstone protocol from `proptest_scheduler.rs`; plain ids < 1000
/// additionally chain follow-ups, including same-instant pushes and
/// absolute pushes into the past (which clamp to `now`).
struct Program {
    log: Vec<(u64, u32)>,
    tomb: std::collections::HashSet<u32>,
}

impl Program {
    fn new() -> Self {
        Program {
            log: Vec::new(),
            tomb: Default::default(),
        }
    }

    fn step(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
        let t = now.as_micros();
        if (CANCEL_BASE..REQUEUE_BASE).contains(&ev) {
            let victim = ev - CANCEL_BASE;
            self.log.push((t, ev));
            if self.tomb.insert(victim) {
                sched.after(SimDuration::from_micros(257), REQUEUE_BASE + victim);
            }
        } else if ev >= REQUEUE_BASE {
            self.log.push((t, ev));
        } else if self.tomb.contains(&ev) {
            self.log.push((t, SKIP_BASE + ev));
        } else {
            self.log.push((t, ev));
            if ev < 1000 {
                match ev % 5 {
                    // Same-instant follow-up: lands in the slot currently
                    // being drained as a batch; must run *after* every
                    // event already queued at this timestamp.
                    0 => sched.immediately(ev + 1000),
                    // Absolute push into the past: clamps to `now`, i.e.
                    // joins the in-flight timestamp exactly like the
                    // same-instant case.
                    1 => sched.at(
                        SimTime::from_micros(t.saturating_sub(1 + ev as u64)),
                        ev + 2000,
                    ),
                    // Short hop within the L0 window.
                    2 => sched.after(SimDuration::from_micros(100), ev + 3000),
                    // Exactly one window ahead (cursor wrap).
                    3 => sched.after(SimDuration::from_micros(4096), ev + 4000),
                    _ => {}
                }
            }
        }
    }
}

impl World for Program {
    type Event = u32;
    fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
        self.step(now, ev, sched);
    }
}

/// Timestamps drawn to collide often (forcing multi-event batches) and to
/// straddle the wheel's window and epoch boundaries.
fn arb_time() -> impl Strategy<Value = u64> {
    prop_oneof![
        // Dense cluster — most draws share a handful of timestamps, so
        // batches of 3+ events are the common case, not the exception.
        0u64..8,
        // Around the 4096 µs window edge.
        4090u64..4102,
        // Anywhere in the first epoch.
        0u64..(1 << 24),
        // Later epochs (far-heap territory).
        (1u64 << 24)..(1 << 28),
    ]
}

/// Builds the two identically-loaded schedulers for a program.
fn load(victims: &[u64], cancels: &[(u64, usize)]) -> (Scheduler<u32>, Scheduler<u32>) {
    let mut a = Scheduler::new();
    let mut b = Scheduler::new();
    for (i, &t) in victims.iter().enumerate() {
        a.at(SimTime::from_micros(t), i as u32);
        b.at(SimTime::from_micros(t), i as u32);
    }
    for &(t, k) in cancels {
        let id = CANCEL_BASE + (k % victims.len()) as u32;
        a.at(SimTime::from_micros(t), id);
        b.at(SimTime::from_micros(t), id);
    }
    (a, b)
}

proptest! {
    /// Batch drain and per-event drain execute arbitrary programs —
    /// including same-instant chains, past-time clamps and tombstone
    /// requeues — in identical order with identical final state.
    #[test]
    fn batch_drain_matches_stepwise(
        victims in proptest::collection::vec(arb_time(), 1..32),
        cancels in proptest::collection::vec((arb_time(), 0usize..32), 0..10),
    ) {
        let (mut batched, mut stepwise) = load(&victims, &cancels);
        let mut wb = Program::new();
        let mut ws = Program::new();
        let sb = run_until(&mut wb, &mut batched, SimTime::MAX);
        let ss = run_until_stepwise(&mut ws, &mut stepwise, SimTime::MAX);
        prop_assert_eq!(sb, ss);
        prop_assert_eq!(sb, StopReason::QueueEmpty);
        prop_assert_eq!(&wb.log, &ws.log);
        prop_assert_eq!(&wb.tomb, &ws.tomb);
        prop_assert_eq!(batched.now(), stepwise.now());
        prop_assert_eq!(batched.pending(), 0);
        prop_assert_eq!(stepwise.pending(), 0);
        prop_assert_eq!(batched.clamps(), stepwise.clamps());
    }

    /// Segmented runs agree at every deadline, including deadlines placed
    /// exactly on queued timestamps and pushes interleaved mid-run.
    #[test]
    fn segmented_batch_drain_matches_stepwise(
        victims in proptest::collection::vec(arb_time(), 1..24),
        cancels in proptest::collection::vec((arb_time(), 0usize..24), 0..8),
        deadlines in proptest::collection::vec(arb_time(), 1..5),
        extra in proptest::collection::vec(arb_time(), 3),
    ) {
        let mut deadlines = deadlines;
        // Pin one deadline to an exact event time: the boundary batch must
        // stay queued (strictly-before semantics) on both sides.
        if let Some(d) = deadlines.first_mut() {
            *d = victims[0];
        }
        deadlines.sort_unstable();

        let (mut batched, mut stepwise) = load(&victims, &cancels);
        let mut wb = Program::new();
        let mut ws = Program::new();
        for (k, &until) in deadlines.iter().enumerate() {
            let until = SimTime::from_micros(until);
            let sb = run_until(&mut wb, &mut batched, until);
            let ss = run_until_stepwise(&mut ws, &mut stepwise, until);
            prop_assert_eq!(sb, ss, "stop reason diverged at deadline {}", k);
            prop_assert_eq!(&wb.log, &ws.log);
            prop_assert_eq!(batched.now(), stepwise.now());
            prop_assert_eq!(batched.pending(), stepwise.pending());
            // Interleave a push between segments; past times clamp to now
            // identically on both sides.
            let t = SimTime::from_micros(extra[k % extra.len()]);
            let id = 500 + k as u32;
            batched.at(t, id);
            stepwise.at(t, id);
        }
        let sb = run_until(&mut wb, &mut batched, SimTime::MAX);
        let ss = run_until_stepwise(&mut ws, &mut stepwise, SimTime::MAX);
        prop_assert_eq!(sb, ss);
        prop_assert_eq!(&wb.log, &ws.log);
        prop_assert_eq!(&wb.tomb, &ws.tomb);
        prop_assert_eq!(batched.pending(), 0);
        prop_assert_eq!(stepwise.pending(), 0);
        prop_assert_eq!(batched.clamps(), stepwise.clamps());
    }
}
