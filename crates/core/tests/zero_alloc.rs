//! The steady-state event loop performs zero heap allocations.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! phase that launches instances, grows every ring to its working size and
//! grows the scheduler's event queue, a measured window of pure event
//! traffic (arrivals, stage completions, request completions — no scale
//! tick, which is cadence work, not per-event work) must allocate nothing:
//! requests are prebuilt, the request log and utilization bins are
//! pre-sized, the event queue and per-function rings recycle their capacity,
//! and plan/timing lookups hit precomputed tables.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use ffs_profile::App;
use ffs_sim::{run_until, Scheduler, SimTime};
use ffs_trace::{AzureTraceConfig, ScaleTraceConfig, Trace, WorkloadClass};
use fluidfaas::platform::arena::{arena_stats, pooled_capacity};
use fluidfaas::platform::events::Event;
use fluidfaas::platform::{run_platform, RequestState};
use fluidfaas::{
    paper_policies, run_output_digest, run_sharded_fluid, Engine, FfsConfig, ShardSpec,
};

/// Allocation events observed while the current thread is in a measured
/// window. Thread-scoped via the `COUNTING` flag so harness threads and
/// lazy runtime initialisation elsewhere never pollute the count.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn note() {
        // `try_with` so allocations during TLS teardown stay safe.
        let _ = COUNTING.try_with(|c| {
            if c.get() {
                ALLOCS.fetch_add(1, Ordering::Relaxed);
            }
        });
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs a measured window of `f` on this thread and returns how many
/// allocations it performed.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    COUNTING.with(|c| c.set(true));
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = f();
    let after = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(false));
    (after - before, r)
}

#[test]
fn steady_state_events_do_not_allocate() {
    // A steady single-app load the small fleet can absorb: after the
    // autoscaler's first ticks the exclusive instances serve every arrival
    // without touching the shared pool or the planner.
    let trace = AzureTraceConfig::steady(vec![App::ImageClassification], 8.0, 40.0, 11).generate();
    let cfg = FfsConfig::test_small(WorkloadClass::Light);
    let policies = paper_policies(&cfg);
    let mut sys = Engine::new(cfg, policies, &trace).expect("valid setup");

    let mut sched: Scheduler<Event> = Scheduler::new();
    sched.preload_sorted(
        trace.invocations.iter().map(|inv| inv.arrival),
        Event::Arrival,
    );
    sched.at(SimTime::ZERO, Event::ScaleTick);

    // Warm-up: launches, ring growth, queue growth, first completions.
    run_until(&mut sys, &mut sched, SimTime::from_micros(5_200_000));

    // Measured window between two scale ticks (ticks land on whole
    // seconds; events at exactly the deadline stay queued): pure arrival /
    // stage / completion traffic.
    let executed_before = ffs_sim::process_executed_events();
    let (allocs, _) =
        allocations_in(|| run_until(&mut sys, &mut sched, SimTime::from_micros(5_900_000)));
    let executed = ffs_sim::process_executed_events() - executed_before;

    assert!(
        executed >= 20,
        "window must exercise real event traffic (got {executed} events)"
    );
    assert_eq!(
        allocs, 0,
        "steady-state event handling must not allocate ({executed} events executed)"
    );
}

/// The per-invocation state a run keeps is pinned: one request row of at
/// most 48 B, and 8 B of arrival stream per invocation, reserved to exactly
/// the trace length with no growth slack, and kept at that size when the
/// scheduler is reset and reloaded with the same trace. A new row field or
/// a return to a stream that stores whole events fails here.
#[test]
fn per_invocation_footprint_is_pinned() {
    assert!(
        std::mem::size_of::<RequestState>() <= 48,
        "request row is {} B",
        std::mem::size_of::<RequestState>()
    );
    let trace = AzureTraceConfig::steady(vec![App::ImageClassification], 8.0, 20.0, 5).generate();
    let n = trace.invocations.len();
    assert!(n > 100);
    let mut sched: Scheduler<Event> = Scheduler::new();
    for pass in 0..2 {
        let cfg = FfsConfig::test_small(WorkloadClass::Light);
        let policies = paper_policies(&cfg);
        let mut sys = Engine::new(cfg, policies, &trace).expect("valid setup");
        sched.preload_sorted(
            trace.invocations.iter().map(|inv| inv.arrival),
            Event::Arrival,
        );
        sched.at(SimTime::ZERO, Event::ScaleTick);
        run_until(&mut sys, &mut sched, SimTime::from_secs(30));
        assert_eq!(
            sched.stream_bytes(),
            8 * n,
            "pass {pass}: the stream must hold 8 B per arrival"
        );
        sched.reset();
    }
}

/// A fresh scheduler allocates nothing: its containers grow on first use,
/// so set-up of every run and every sharded cell pays no allocation for it.
#[test]
fn scheduler_construction_allocates_nothing() {
    let (allocs, sched) = allocations_in(Scheduler::<Event>::new);
    drop(sched);
    assert_eq!(allocs, 0, "Scheduler::new must not allocate");
}

/// After one warm-up run per thread, the run arena reaches a fixed point:
/// every later run on the thread takes its scheduler, request buffer and
/// instance slab from the pool, and the pooled capacity stops growing.
/// (The fourth family, the request log, goes to the caller with the run's
/// output; only sharded lanes return logs, see the last test.) This is the property that makes
/// `run_matrix` teardown O(1) amortised — repeat runs neither construct
/// nor grow the big per-run containers.
#[test]
fn arena_reaches_zero_growth_after_warmup() {
    let trace = AzureTraceConfig::steady(vec![App::ImageClassification], 8.0, 20.0, 17).generate();
    let one_run = |trace: &Trace| {
        let cfg = FfsConfig::test_small(WorkloadClass::Light);
        let policies = paper_policies(&cfg);
        let mut sys = Engine::new(cfg, policies, trace).expect("valid setup");
        run_platform(&mut sys, trace)
    };

    // Warm-up: the first run constructs (or grows) the thread's containers
    // and parks them in the pool on teardown.
    let baseline = one_run(&trace).log.len();

    let stats_warm = arena_stats();
    let cap_warm = pooled_capacity();

    const REPEATS: u64 = 3;
    for _ in 0..REPEATS {
        assert_eq!(one_run(&trace).log.len(), baseline, "reuse must be inert");
    }

    let stats_end = arena_stats();
    let cap_end = pooled_capacity();
    assert_eq!(
        stats_end.fresh, stats_warm.fresh,
        "a warmed thread must construct no fresh containers"
    );
    assert_eq!(
        stats_end.reused,
        stats_warm.reused + 3 * REPEATS,
        "each run must recycle its scheduler, request buffer and slab"
    );
    assert_eq!(
        cap_end, cap_warm,
        "pooled capacity must be flat once the thread has seen its biggest run"
    );
}

/// A sharded run's lane copies each finished cell's log into the fleet
/// log and returns it to the arena, so one warm log serves all of the
/// lane's cells. After one warm-up run, a 1-lane run over 8 cells takes
/// every cell log (and every other container) from the pool, and the
/// pooled capacity, logs included, stays flat.
#[test]
fn sharded_lane_recycles_every_cell_log() {
    const CELLS: usize = 8;
    let mut cfg = FfsConfig::paper_default(WorkloadClass::Medium);
    cfg.nodes = CELLS;
    cfg.gpus_per_node = 1;
    let tc = ScaleTraceConfig::new(64, 10.0, 40.0, 5);
    let cells: Vec<_> = (0..CELLS).map(|c| tc.cell_trace(c, CELLS)).collect();
    let run = || {
        let (out, _) =
            run_sharded_fluid(&cfg, cells.clone(), &ShardSpec::new(CELLS, 1)).expect("sharded run");
        run_output_digest(&out)
    };

    let baseline = run();
    let (stats_warm, cap_warm) = (arena_stats(), pooled_capacity());
    assert_eq!(run(), baseline, "log reuse must be inert");
    let (stats_end, cap_end) = (arena_stats(), pooled_capacity());

    assert_eq!(
        stats_end.logs_fresh, stats_warm.logs_fresh,
        "a warmed lane must construct no fresh cell logs"
    );
    assert_eq!(
        stats_end.logs_reused,
        stats_warm.logs_reused + CELLS as u64,
        "every cell must take its log from the arena"
    );
    assert_eq!(stats_end.fresh, stats_warm.fresh);
    assert_eq!(stats_end.reused, stats_warm.reused + 3 * CELLS as u64);
    assert_eq!(
        cap_end, cap_warm,
        "pooled capacity must be flat once the lane has seen its biggest cell"
    );
}
