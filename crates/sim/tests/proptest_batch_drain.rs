//! Property tests: the batched drive loop (`run_until`, which takes every
//! event at the front timestamp as one batch and dispatches it under a
//! single clock update) is observationally identical to a stepwise drain
//! that pops and runs one event at a time.
//!
//! The stepwise side is the reference heap of `common/mod.rs`. Both run
//! the same randomly generated program and must produce identical
//! `(time, event)` logs, clocks, pending counts, clamp counts and stop
//! reasons. Every program here carries cancellers aimed at real victims,
//! so tombstoned deliveries and requeued copies land inside batches, next
//! to the same-instant pushes and past-time clamps of the program's
//! handler chains.

mod common;

use proptest::prelude::*;

use ffs_sim::StopReason;

use common::{arb_time, pinned, Pair, CANCEL_BASE};

/// Pushes each canceller at its time, aimed at victim `k % victims`.
fn push_cancels(p: &mut Pair, cancels: &[(u64, usize)], victims: usize) {
    for &(t, k) in cancels {
        p.push(t, CANCEL_BASE + (k % victims) as u32);
    }
}

proptest! {
    /// With victims arriving through a preloaded stream, batch drain
    /// (stream batches merged with heap batches, stream first on a tie)
    /// and stepwise drain agree at every deadline, one deadline pinned to
    /// a stream timestamp, with pushes interleaved between segments.
    #[test]
    fn preloaded_batch_drain_matches_stepwise(
        victims in proptest::collection::vec(arb_time(), 1..32),
        cancels in proptest::collection::vec((arb_time(), 0usize..32), 0..10),
        deadlines in proptest::collection::vec(arb_time(), 1..5),
        extra in proptest::collection::vec(arb_time(), 3),
    ) {
        let mut stream = victims.clone();
        stream.sort_unstable();
        let mut p = Pair::preloaded(&stream);
        push_cancels(&mut p, &cancels, victims.len());
        p.run_segments(&pinned(deadlines, Some(victims[0])), &extra)?;
    }

    /// Batch drain and stepwise drain execute arbitrary programs —
    /// including same-instant chains, past-time clamps and tombstone
    /// requeues — in identical order with identical final state.
    #[test]
    fn batch_drain_matches_stepwise(
        victims in proptest::collection::vec(arb_time(), 1..32),
        cancels in proptest::collection::vec((arb_time(), 0usize..32), 0..10),
    ) {
        let mut p = Pair::default();
        for (i, &t) in victims.iter().enumerate() {
            p.push(t, i as u32);
        }
        push_cancels(&mut p, &cancels, victims.len());
        prop_assert_eq!(p.run_until(u64::MAX)?, StopReason::QueueEmpty);
        prop_assert_eq!(p.sched.pending(), 0);
    }

    /// Segmented runs agree at every deadline, including one placed
    /// exactly on a queued timestamp (the boundary batch stays queued on
    /// both sides) and pushes interleaved between segments, which may lie
    /// in the past and clamp.
    #[test]
    fn segmented_batch_drain_matches_stepwise(
        victims in proptest::collection::vec(arb_time(), 1..24),
        cancels in proptest::collection::vec((arb_time(), 0usize..24), 0..8),
        deadlines in proptest::collection::vec(arb_time(), 1..5),
        extra in proptest::collection::vec(arb_time(), 3),
    ) {
        let mut p = Pair::default();
        for (i, &t) in victims.iter().enumerate() {
            p.push(t, i as u32);
        }
        push_cancels(&mut p, &cancels, victims.len());
        p.run_segments(&pinned(deadlines, Some(victims[0])), &extra)?;
    }
}
