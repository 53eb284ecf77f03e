//! Per-run state recycling: thread-local pools of the big per-run
//! containers, so `run_matrix` workers pay construction and teardown once
//! per thread instead of once per run.
//!
//! A simulation run allocates four container families whose capacity is
//! expensive to build and trivial to recycle:
//!
//! * the event scheduler (its event queue, grown to the run's peak
//!   population, plus the preload stream),
//! * the request table (one record per trace invocation),
//! * the instance slab (spine plus seven SoA hot columns),
//! * the request log (one record per invocation, one breakdown per
//!   completion).
//!
//! `RunArena` keeps drained-and-reset instances of each in a
//! thread-local pool. `run_platform` borrows a scheduler for the run's
//! duration; `EngineCore` borrows its request buffer and slab at
//! construction and hands both back on drop. Teardown of a run is thereby
//! O(1) amortised — containers are cleared (retaining capacity), not
//! freed — and the next run on the same worker thread starts with
//! warm capacity.
//!
//! `EngineCore` also takes its metrics hub's request log from the pool,
//! but only a sharded run gives logs back: a lane copies each finished
//! cell's log into the fleet log and stores it, so one warm log serves
//! all of the lane's cells. A single-engine run hands its log to the
//! caller, so the log pool of a thread that runs no sharded cells stays
//! empty and each of its runs takes a fresh log. [`ArenaStats`] therefore
//! counts logs apart from the other three families.
//!
//! Reuse is bit-neutral by construction: a reset scheduler is
//! indistinguishable from a fresh one (`Scheduler::reset` restores
//! seq/cursor/clock state exactly; see its unit test), a cleared `Vec`
//! refilled from the trace holds identical records, and a cleared slab or
//! log is empty. The experiments crate pins this down with a byte-identical
//! `run_matrix` comparison across 1/2/4 workers (different worker counts
//! exercise different reuse interleavings).
//!
//! The pools also publish [`ArenaStats`] so the allocation tests can
//! assert the steady state: after one warm-up run per thread, further runs
//! take every container from the pool (`fresh` stays flat) and capacity
//! stops growing.

use std::cell::RefCell;

use ffs_metrics::RequestLog;
use ffs_sim::Scheduler;

use super::events::Event;
use super::request::RequestState;
use super::slab::InstanceSlab;

/// Pool size cap per container family. A single-engine run holds one of
/// each, and so does each lane of a sharded run, which finishes a cell and
/// returns its containers before it sets up the next; only lane 0, the
/// calling thread, outlives the run. Fresh construction is cheap — a
/// scheduler is two slot-table allocations — so the cap bounds pooled
/// memory rather than guarding a slow path.
const MAX_POOLED: usize = 8;

/// Counters describing the calling thread's arena behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Schedulers, request buffers and slabs constructed because the pool
    /// was empty.
    pub fresh: u64,
    /// Schedulers, request buffers and slabs recycled from the pool.
    pub reused: u64,
    /// Request logs constructed because the pool was empty.
    pub logs_fresh: u64,
    /// Request logs recycled from the pool.
    pub logs_reused: u64,
}

#[derive(Default)]
struct RunArena {
    schedulers: Vec<Scheduler<Event>>,
    request_bufs: Vec<Vec<RequestState>>,
    slabs: Vec<InstanceSlab>,
    logs: Vec<RequestLog>,
    stats: ArenaStats,
}

thread_local! {
    static ARENA: RefCell<RunArena> = RefCell::new(RunArena::default());
}

fn with<R>(f: impl FnOnce(&mut RunArena) -> R) -> R {
    ARENA.with(|a| f(&mut a.borrow_mut()))
}

/// This thread's arena counters so far.
pub fn arena_stats() -> ArenaStats {
    with(|a| a.stats)
}

/// Total element capacity currently parked in this thread's pools.
/// Meaningful between runs (while the containers are stored); the
/// zero-growth test asserts it stays flat once a worker has seen its
/// biggest run.
pub fn pooled_capacity() -> usize {
    with(|a| {
        let sched: usize = a.schedulers.iter().map(Scheduler::retained_capacity).sum();
        let reqs: usize = a.request_bufs.iter().map(Vec::capacity).sum();
        let slabs: usize = a.slabs.iter().map(InstanceSlab::retained_capacity).sum();
        let logs: usize = a.logs.iter().map(RequestLog::capacity).sum();
        sched + reqs + slabs + logs
    })
}

/// Borrows a scheduler: reset from the pool (capacity retained), or fresh.
pub fn take_scheduler() -> Scheduler<Event> {
    with(|a| match a.schedulers.pop() {
        Some(s) => {
            a.stats.reused += 1;
            s
        }
        None => {
            a.stats.fresh += 1;
            Scheduler::new()
        }
    })
}

/// Returns a scheduler to the pool (reset, capacity retained).
pub fn store_scheduler(mut s: Scheduler<Event>) {
    s.reset();
    with(|a| {
        if a.schedulers.len() < MAX_POOLED {
            a.schedulers.push(s);
        }
    });
}

/// Borrows an empty request buffer with warm capacity.
pub fn take_request_buffer() -> Vec<RequestState> {
    with(|a| match a.request_bufs.pop() {
        Some(v) => {
            a.stats.reused += 1;
            debug_assert!(v.is_empty());
            v
        }
        None => {
            a.stats.fresh += 1;
            Vec::new()
        }
    })
}

/// Returns a request buffer to the pool (cleared, capacity retained).
pub fn store_request_buffer(mut v: Vec<RequestState>) {
    v.clear();
    with(|a| {
        if a.request_bufs.len() < MAX_POOLED {
            a.request_bufs.push(v);
        }
    });
}

/// Borrows an empty instance slab with warm spine/column capacity.
pub fn take_slab() -> InstanceSlab {
    with(|a| match a.slabs.pop() {
        Some(s) => {
            a.stats.reused += 1;
            debug_assert!(s.is_empty());
            s
        }
        None => {
            a.stats.fresh += 1;
            InstanceSlab::new()
        }
    })
}

/// Returns an instance slab to the pool (cleared, capacity retained).
pub fn store_slab(mut s: InstanceSlab) {
    s.clear_for_reuse();
    with(|a| {
        if a.slabs.len() < MAX_POOLED {
            a.slabs.push(s);
        }
    });
}

/// Borrows an empty request log with warm capacity.
pub fn take_log() -> RequestLog {
    with(|a| match a.logs.pop() {
        Some(log) => {
            a.stats.logs_reused += 1;
            debug_assert!(log.is_empty());
            log
        }
        None => {
            a.stats.logs_fresh += 1;
            RequestLog::new()
        }
    })
}

/// Returns a request log to the pool (cleared, capacity retained).
pub fn store_log(mut log: RequestLog) {
    log.clear();
    with(|a| {
        if a.logs.len() < MAX_POOLED {
            a.logs.push(log);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn containers_recycle_through_the_pool() {
        // Drain whatever earlier engine constructions on this test thread
        // left behind so the take/store pairing below is deterministic.
        with(|a| {
            a.schedulers.clear();
            a.request_bufs.clear();
            a.slabs.clear();
            a.logs.clear();
        });
        let before = arena_stats();
        let s = take_scheduler();
        store_scheduler(s);
        let s = take_scheduler();
        store_scheduler(s);
        let after = arena_stats();
        assert_eq!(after.fresh, before.fresh + 1, "second take must reuse");
        assert_eq!(after.reused, before.reused + 1);

        let mut v = take_request_buffer();
        v.reserve(100);
        let cap = v.capacity();
        store_request_buffer(v);
        let v = take_request_buffer();
        assert!(v.is_empty());
        assert!(v.capacity() >= cap, "capacity must survive the pool");
        store_request_buffer(v);

        let mut log = take_log();
        log.reserve(100);
        let cap = log.capacity();
        let logs_before = arena_stats();
        store_log(log);
        let log = take_log();
        assert!(log.is_empty());
        assert!(log.capacity() >= cap, "capacity must survive the pool");
        let logs_after = arena_stats();
        assert_eq!(logs_after.logs_reused, logs_before.logs_reused + 1);
        assert_eq!(logs_after.logs_fresh, logs_before.logs_fresh);
        assert_eq!(
            (logs_after.fresh, logs_after.reused),
            (logs_before.fresh, logs_before.reused),
            "logs are counted apart"
        );
    }
}
