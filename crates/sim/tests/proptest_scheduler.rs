//! Property tests: the scheduler executes arbitrary event programs in
//! exactly the order of a reference binary-heap scheduler.
//!
//! The reference (in `common/mod.rs`) is the plainest event queue there
//! is: one `BinaryHeap` ordered by `(time, insertion-seq)`, popped one
//! event at a time. The scheduler under test drains a batch per timestamp and merges
//! a preloaded stream into its heap. Both run the same randomly generated
//! program and must produce identical `(time, event)` logs, stop reasons,
//! clocks, pending counts and clamp counts. The programs hit the drain's
//! tricky spots:
//!
//! * same-instant pushes from inside a batch (they must run after every
//!   event already queued at that instant, as the next batch),
//! * past-time pushes that clamp to `now`, from inside a batch and
//!   between run segments,
//! * tombstone cancellation + requeue (delivery-time filtering, exactly as
//!   the chaos layer does it),
//! * deadlines landing exactly on queued timestamps (the boundary batch
//!   stays queued on both sides),
//! * a preloaded stream whose batches merge with the heap's (stream first
//!   at a shared timestamp),
//! * segmented runs with pushes between segments.

mod common;

use proptest::prelude::*;

use ffs_sim::{run_until, Scheduler, SimTime, StopReason};

use common::{arb_time, pinned, Pair, Program, CANCEL_BASE, REQUEUE_BASE, SKIP_BASE};

proptest! {
    /// Arbitrary pushes + handler chains execute in identical (time, seq)
    /// order on the scheduler and the reference heap.
    #[test]
    fn wheel_matches_reference_heap(times in proptest::collection::vec(arb_time(), 1..40)) {
        let mut p = Pair::default();
        for (i, &t) in times.iter().enumerate() {
            p.push(t, i as u32);
        }
        prop_assert_eq!(p.run_until(u64::MAX)?, StopReason::QueueEmpty);
        prop_assert_eq!(p.sched.pending(), 0);
    }

    /// Multi-deadline runs agree too, including deadlines that land exactly
    /// on queued timestamps, cancellers, and pushes interleaved between
    /// segments.
    #[test]
    fn segmented_runs_match_reference(
        times in proptest::collection::vec(arb_time(), 1..24),
        cancels in proptest::collection::vec((arb_time(), 0u32..24), 0..8),
        deadlines in proptest::collection::vec(arb_time(), 1..6),
        extra in proptest::collection::vec(arb_time(), 3),
    ) {
        let mut p = Pair::default();
        for (i, &t) in times.iter().enumerate() {
            p.push(t, i as u32);
        }
        for &(t, victim) in &cancels {
            p.push(t, CANCEL_BASE + victim);
        }
        p.run_segments(&pinned(deadlines, times.first().copied()), &extra)?;
    }

    /// The sorted bulk-load path is indistinguishable from individual
    /// pushes of the same sorted batch.
    #[test]
    fn preload_matches_pushes(times in proptest::collection::vec(arb_time(), 1..32)) {
        let mut times = times;
        times.sort_unstable();
        let mut a_world = Program::default();
        let mut a = Scheduler::new();
        a.preload_sorted(times.iter().map(|&t| SimTime::from_micros(t)), |i| i as u32);
        let mut b_world = Program::default();
        let mut b = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            b.at(SimTime::from_micros(t), i as u32);
        }
        run_until(&mut a_world, &mut a, SimTime::MAX);
        run_until(&mut b_world, &mut b, SimTime::MAX);
        prop_assert_eq!(&a_world.log, &b_world.log);
    }

    /// A preloaded sorted stream merged with the heap: stream entries,
    /// absolute pushes, cancellers and the handler chains they spawn, run
    /// across multi-deadline segments with a push between segments.
    /// Covers the stream-first tie rule at shared timestamps and deadlines
    /// pinned to exact stream and push timestamps.
    #[test]
    fn preloaded_stream_merges_with_wheel_like_reference(
        stream in proptest::collection::vec(arb_time(), 0..32),
        pushes in proptest::collection::vec(arb_time(), 0..16),
        cancels in proptest::collection::vec((arb_time(), 0u32..32), 0..10),
        deadlines in proptest::collection::vec(arb_time(), 1..6),
        extra in proptest::collection::vec(arb_time(), 3),
    ) {
        let mut stream = stream;
        stream.sort_unstable();
        let mut deadlines = deadlines;
        if let (Some(d), Some(&t)) = (deadlines.last_mut(), pushes.first()) {
            *d = t;
        }
        let mut p = Pair::preloaded(&stream);
        for (i, &t) in pushes.iter().enumerate() {
            p.push(t, 100 + i as u32);
        }
        for &(t, victim) in &cancels {
            p.push(t, CANCEL_BASE + victim);
        }
        prop_assert_eq!(p.sched.pending(), p.reference.heap.len());
        p.run_segments(&pinned(deadlines, stream.first().copied()), &extra)?;
    }

    /// Tombstone cancellation + requeue under fault injection: victims,
    /// cancellers (which tombstone a victim and requeue a copy), and
    /// post-tombstone deliveries (skipped) execute identically on the
    /// scheduler and the reference heap, across a mid-run deadline.
    #[test]
    fn tombstone_cancellation_matches_reference(
        victims in proptest::collection::vec(arb_time(), 1..24),
        cancels in proptest::collection::vec((arb_time(), 0usize..24), 0..12),
        mid in arb_time(),
    ) {
        let mut p = Pair::default();
        for (i, &t) in victims.iter().enumerate() {
            p.push(t, i as u32);
        }
        for &(t, k) in &cancels {
            // Cancellers may land before, at, or after their victim's
            // delivery time — all three orders must agree.
            p.push(t, CANCEL_BASE + (k % victims.len()) as u32);
        }
        // Stop mid-run, while tombstoned victims and requeued copies are
        // still in flight, then drain.
        p.run_until(mid)?;
        prop_assert_eq!(p.run_until(u64::MAX)?, StopReason::QueueEmpty);
        // Every cancelled victim produced exactly one requeued copy.
        let log = &p.world.log;
        let requeues = log.iter().filter(|(_, e)| (REQUEUE_BASE..SKIP_BASE).contains(e)).count();
        prop_assert_eq!(requeues, p.world.tomb.len());
    }
}
