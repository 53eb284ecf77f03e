//! The phase profiler: a fixed phase alphabet, scoped self-time guards,
//! and per-thread fixed-size accumulators.
//!
//! Hot-path design constraints, in order:
//!
//! 1. **No allocation.** Guards run inside the engine's zero-allocation
//!    steady state (`fluidfaas`'s counting-allocator test), so all
//!    per-thread state is const-initialised TLS with fixed-size arrays —
//!    including the call-path table, which is open-addressed over a
//!    fixed slot count rather than a `HashMap`.
//! 2. **Self-time only.** A guard charges its phase `elapsed − children`,
//!    so summing the per-phase totals of a tree of nested spans yields
//!    exactly the root span's wall time (telescoping) — phase shares are
//!    directly comparable to the harness's `busy_secs`.
//! 3. **Cheap when off.** A disabled guard is one relaxed atomic load.
//!
//! Call paths are encoded as a `u64`, one byte per level (phase index
//! plus one; zero terminates), root in the most significant occupied
//! byte. [`MAX_DEPTH`] is 8; deeper spans are counted but dropped from
//! the profile (the engine's instrumentation nests at most 5 deep).

use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::sync::Mutex;

use crate::clock;

/// Number of phases in the fixed alphabet.
pub const PHASE_COUNT: usize = 11;

/// Deepest span nesting the path encoding can represent.
const MAX_DEPTH: usize = 8;

/// Slots in the per-thread call-path table. The instrumented engine
/// produces well under 64 distinct paths; collisions fall back to linear
/// probing, and a full table drops into an overflow counter rather than
/// allocating.
const PATH_SLOTS: usize = 256;

/// The fixed alphabet of engine phases the profiler distinguishes.
///
/// Kept deliberately small and flat: a phase is a *place in the engine*,
/// not a dynamic label, so per-thread accumulators can be plain arrays
/// indexed by discriminant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Phase {
    /// Generating an arrival trace (Azure-style synthesis).
    TraceSynth = 0,
    /// Building engine state: catalog, fleet, slab, scheduler preload.
    EngineSetup = 1,
    /// The batch event loop's queue machinery: deadline probes and batch
    /// extraction (`run_until` minus its children).
    QueueDrain = 2,
    /// Draining one timestamp batch through `World::handle` (event
    /// handler bodies outside the more specific phases below).
    BatchDispatch = 3,
    /// Router dispatch: scanning instances/pool for a home for a request.
    RoutingScan = 4,
    /// Launch-plan cache lookups (including miss-path planning).
    PlanCacheLookup = 5,
    /// Policy trait calls on the scale tick: autoscaler scale/keep-alive,
    /// shared-pool maintain, migrator.
    PolicyCall = 6,
    /// Scale-tick bookkeeping outside the policy calls: demand window
    /// rollover, inactive-function sweep, next-tick scheduling.
    AutoscalerTick = 7,
    /// Folding observability + metrics state at run end: finalize,
    /// hub surrender, report assembly, trace export.
    ObsFold = 8,
    /// Everything else inside a harness run (the per-run root span).
    RunOther = 9,
    /// Maintaining the per-function admissible-instance routing index at
    /// slab mutation points (admit, stage finish, phase transitions).
    RouteIndexMaint = 10,
}

impl Phase {
    /// Every phase, in discriminant order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::TraceSynth,
        Phase::EngineSetup,
        Phase::QueueDrain,
        Phase::BatchDispatch,
        Phase::RoutingScan,
        Phase::PlanCacheLookup,
        Phase::PolicyCall,
        Phase::AutoscalerTick,
        Phase::ObsFold,
        Phase::RunOther,
        Phase::RouteIndexMaint,
    ];

    /// Stable snake_case name (used as the Prometheus `phase` label and
    /// the flamegraph frame name).
    pub const fn name(self) -> &'static str {
        match self {
            Phase::TraceSynth => "trace_synth",
            Phase::EngineSetup => "engine_setup",
            Phase::QueueDrain => "queue_drain",
            Phase::BatchDispatch => "batch_dispatch",
            Phase::RoutingScan => "routing_scan",
            Phase::PlanCacheLookup => "plan_cache_lookup",
            Phase::PolicyCall => "policy_call",
            Phase::AutoscalerTick => "autoscaler_tick",
            Phase::ObsFold => "obs_fold",
            Phase::RunOther => "run_other",
            Phase::RouteIndexMaint => "route_index_maint",
        }
    }

    fn from_index(i: u8) -> Option<Phase> {
        Phase::ALL.get(i as usize).copied()
    }
}

/// Fixed-size open-addressed map from path key to (self-cycles, calls).
/// Key 0 is the empty marker; a real path key always has a non-zero low
/// byte (phase index + 1 of the innermost span).
struct PathTable {
    keys: [u64; PATH_SLOTS],
    cycles: [u64; PATH_SLOTS],
    calls: [u64; PATH_SLOTS],
    /// Slot of the most recently exited path (hot-exit fast path).
    cached_slot: usize,
    /// Self-cycles that found no free slot (table full) and were dropped
    /// from the per-path profile (per-phase totals still count them).
    dropped_cycles: u64,
}

impl PathTable {
    const fn new() -> Self {
        PathTable {
            keys: [0; PATH_SLOTS],
            cycles: [0; PATH_SLOTS],
            calls: [0; PATH_SLOTS],
            cached_slot: 0,
            dropped_cycles: 0,
        }
    }

    #[inline]
    fn add(&mut self, key: u64, cycles: u64) {
        // Hot spans exit millions of times with the same stack, so the
        // slot of the last exited path is cached: the common case is one
        // compare instead of a hash and probe.
        let c = self.cached_slot;
        if self.keys[c] == key {
            self.cycles[c] += cycles;
            self.calls[c] += 1;
            return;
        }
        // Fibonacci hash to a slot, then linear probe.
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as usize % PATH_SLOTS;
        for _ in 0..PATH_SLOTS {
            if self.keys[i] == key {
                self.cycles[i] += cycles;
                self.calls[i] += 1;
                self.cached_slot = i;
                return;
            }
            if self.keys[i] == 0 {
                self.keys[i] = key;
                self.cycles[i] = cycles;
                self.calls[i] = 1;
                self.cached_slot = i;
                return;
            }
            i = (i + 1) % PATH_SLOTS;
        }
        self.dropped_cycles += cycles;
    }

    fn clear(&mut self) {
        self.keys = [0; PATH_SLOTS];
        self.cycles = [0; PATH_SLOTS];
        self.calls = [0; PATH_SLOTS];
        self.cached_slot = 0;
        self.dropped_cycles = 0;
    }
}

/// Per-thread profiler state: the open span stack and the accumulators.
struct ThreadProf {
    /// Open (entered, not yet exited) span count.
    depth: u8,
    /// Path key of the currently open span stack.
    path: u64,
    /// `child[d]` = cycles consumed by completed children of the span
    /// open at depth `d`.
    child: [u64; MAX_DEPTH],
    /// Self-cycles per phase.
    cycles: [u64; PHASE_COUNT],
    /// Completed spans per phase.
    calls: [u64; PHASE_COUNT],
    /// Self-cycles per call path.
    table: PathTable,
    /// Spans that would have nested deeper than [`MAX_DEPTH`].
    depth_overflows: u64,
}

impl ThreadProf {
    const fn new() -> Self {
        ThreadProf {
            depth: 0,
            path: 0,
            child: [0; MAX_DEPTH],
            cycles: [0; PHASE_COUNT],
            calls: [0; PHASE_COUNT],
            table: PathTable::new(),
            depth_overflows: 0,
        }
    }

    #[inline]
    fn enter(&mut self, phase: Phase) -> bool {
        let d = self.depth as usize;
        if d >= MAX_DEPTH {
            self.depth_overflows += 1;
            return false;
        }
        self.child[d] = 0;
        self.path = (self.path << 8) | (phase as u64 + 1);
        self.depth += 1;
        true
    }

    #[inline]
    fn exit(&mut self, phase: Phase, start: u64, end: u64) {
        debug_assert!(self.depth > 0, "span exit without matching enter");
        self.depth -= 1;
        let d = self.depth as usize;
        // Deduct the clock-pair latency the measurement itself costs, so
        // a span's total reflects only the guarded work. Done before the
        // parent's child-accounting: an uncorrected child total would
        // overcharge the parent's children and (via the saturating
        // subtraction below) leak phantom cycles into the profile.
        let total = end
            .saturating_sub(start)
            .saturating_sub(clock::guard_overhead_cycles());
        let own = total.saturating_sub(self.child[d]);
        self.cycles[phase as usize] += own;
        self.calls[phase as usize] += 1;
        self.table.add(self.path, own);
        self.path >>= 8;
        if d > 0 {
            self.child[d - 1] += total;
        }
    }
}

thread_local! {
    /// Per-thread profiler state. An `UnsafeCell` rather than a `RefCell`:
    /// every accessor goes through [`with_prof`], whose contract keeps the
    /// borrow unique, and the enter/exit pair is the hottest few-
    /// nanosecond path in the profiler — the borrow-flag bookkeeping was
    /// measurable against it.
    static PROF: UnsafeCell<ThreadProf> = const { UnsafeCell::new(ThreadProf::new()) };
}

/// Runs `f` with exclusive access to the thread's profiler state.
///
/// SAFETY contract (checked by inspection, not the type system): `f`
/// must not call back into anything that touches `PROF`. All four
/// callers pass straight-line array-bookkeeping closures; the only
/// external call any of them makes is `with_merged`, which locks the
/// process-wide accumulator and never touches thread state.
#[inline]
fn with_prof<R>(f: impl FnOnce(&mut ThreadProf) -> R) -> R {
    // SAFETY: per the contract above, `f` cannot re-enter `PROF`, so this
    // is the only live reference for the duration of the call.
    PROF.with(|p| f(unsafe { &mut *p.get() }))
}

/// Times one phase for the enclosing scope, charging self-time on drop.
///
/// Guards must be dropped in LIFO order — bind to a local (`let _g = ...`)
/// and let scope ends do the rest; never `let _ = ...` (which drops
/// immediately and times nothing).
#[must_use = "a phase span times the scope it is bound in; dropping it immediately times nothing"]
pub struct PhaseGuard {
    start: u64,
    phase: Phase,
    live: bool,
}

/// Opens a [`PhaseGuard`] for `phase`. When profiling is disabled this is
/// a single relaxed atomic load and the guard is inert.
#[inline]
pub fn span(phase: Phase) -> PhaseGuard {
    if !crate::enabled() {
        return PhaseGuard {
            start: 0,
            phase,
            live: false,
        };
    }
    let live = with_prof(|p| p.enter(phase));
    // Read the clock *after* the bookkeeping, so enter overhead lands in
    // the parent's self-time rather than inflating this span.
    PhaseGuard {
        start: clock::now_cycles(),
        phase,
        live,
    }
}

impl Drop for PhaseGuard {
    #[inline]
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        // Clock first: exit bookkeeping is charged to the parent.
        let end = clock::now_cycles();
        with_prof(|p| p.exit(self.phase, self.start, end));
    }
}

/// Per-path totals in a [`PhaseSnapshot`]: the span stack root-first plus
/// the self-cycles and call count charged at exactly that stack.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathStat {
    /// The call path, outermost span first.
    pub path: Vec<Phase>,
    /// Self-cycles charged with exactly this stack open.
    pub cycles: u64,
    /// Completed spans with exactly this stack open.
    pub calls: u64,
}

/// A merged, process-wide view of the profile.
#[derive(Clone, Debug, Default)]
pub struct PhaseSnapshot {
    /// Self-cycles per phase, indexed by `Phase as usize`.
    pub cycles: [u64; PHASE_COUNT],
    /// Completed spans per phase.
    pub calls: [u64; PHASE_COUNT],
    /// Per-call-path totals, sorted by descending cycles (ties broken by
    /// path for determinism).
    pub paths: Vec<PathStat>,
    /// Spans dropped because they nested deeper than the profiler tracks.
    pub depth_overflows: u64,
    /// Self-cycles dropped from `paths` because a thread's path table
    /// filled up (still present in `cycles`).
    pub dropped_path_cycles: u64,
}

impl PhaseSnapshot {
    /// Total self-cycles across all phases (== wall cycles spanned by the
    /// root guards, by the self-time telescoping property).
    pub fn total_cycles(&self) -> u64 {
        self.cycles.iter().sum()
    }
}

#[derive(Default)]
struct Merged {
    cycles: [u64; PHASE_COUNT],
    calls: [u64; PHASE_COUNT],
    paths: HashMap<u64, (u64, u64)>,
    depth_overflows: u64,
    dropped_path_cycles: u64,
}

static MERGED: Mutex<Option<Merged>> = Mutex::new(None);

fn with_merged<R>(f: impl FnOnce(&mut Merged) -> R) -> R {
    let mut guard = MERGED.lock().expect("telemetry accumulator poisoned");
    f(guard.get_or_insert_with(Merged::default))
}

/// Folds the calling thread's accumulators into the process-wide profile
/// and resets them. Open spans are untouched (their self-time lands in a
/// later flush), so this is safe anywhere — harness workers call it at
/// the end of each stint.
pub fn flush_thread() {
    with_prof(|p| {
        if p.calls.iter().all(|&c| c == 0) && p.depth_overflows == 0 {
            return;
        }
        with_merged(|m| {
            for i in 0..PHASE_COUNT {
                m.cycles[i] += p.cycles[i];
                m.calls[i] += p.calls[i];
            }
            for i in 0..PATH_SLOTS {
                if p.table.keys[i] != 0 {
                    let e = m.paths.entry(p.table.keys[i]).or_insert((0, 0));
                    e.0 += p.table.cycles[i];
                    e.1 += p.table.calls[i];
                }
            }
            m.depth_overflows += p.depth_overflows;
            m.dropped_path_cycles += p.table.dropped_cycles;
        });
        p.cycles = [0; PHASE_COUNT];
        p.calls = [0; PHASE_COUNT];
        p.depth_overflows = 0;
        p.table.clear();
    });
}

/// Decodes a path key into phases, outermost first.
fn decode_path(mut key: u64) -> Vec<Phase> {
    let mut inner_first = Vec::new();
    while key != 0 {
        let code = (key & 0xFF) as u8;
        if let Some(p) = Phase::from_index(code.wrapping_sub(1)) {
            inner_first.push(p);
        }
        key >>= 8;
    }
    inner_first.reverse();
    inner_first
}

/// The process-wide profile merged so far. Callers flush their own thread
/// first ([`flush_thread`]) if they want their latest spans included.
pub fn snapshot() -> PhaseSnapshot {
    with_merged(|m| {
        let mut paths: Vec<PathStat> = m
            .paths
            .iter()
            .map(|(&key, &(cycles, calls))| PathStat {
                path: decode_path(key),
                cycles,
                calls,
            })
            .collect();
        paths.sort_by(|a, b| b.cycles.cmp(&a.cycles).then_with(|| a.path.cmp(&b.path)));
        PhaseSnapshot {
            cycles: m.cycles,
            calls: m.calls,
            paths,
            depth_overflows: m.depth_overflows,
            dropped_path_cycles: m.dropped_path_cycles,
        }
    })
}

/// Clears the process-wide profile *and* the calling thread's local
/// accumulators. Test isolation only — production code never resets.
pub fn reset_for_tests() {
    with_prof(|p| {
        p.cycles = [0; PHASE_COUNT];
        p.calls = [0; PHASE_COUNT];
        p.depth_overflows = 0;
        p.table.clear();
    });
    with_merged(|m| *m = Merged::default());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Spin until at least `n` cycles elapsed (real work for the timer);
    /// returns the cycles actually spent, which preemption can stretch.
    fn burn(n: u64) -> u64 {
        let t0 = clock::now_cycles();
        loop {
            let spent = clock::now_cycles().saturating_sub(t0);
            if spent >= n {
                return spent;
            }
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nested_spans_charge_self_time_only() {
        let _serial = crate::serial_test();
        crate::set_enabled(true);
        // Warm-up: the first span exit in the process calibrates the
        // clock-pair overhead and the first touch of this thread's tables
        // faults in their pages. Neither may land inside the timed spans.
        {
            let _warm = span(Phase::RunOther);
            let _inner = span(Phase::RoutingScan);
        }
        reset_for_tests();
        let (mut own, child);
        {
            let _root = span(Phase::RunOther);
            own = burn(20_000);
            {
                let _inner = span(Phase::RoutingScan);
                child = burn(20_000);
            }
            own += burn(20_000);
        }
        flush_thread();
        let s = snapshot();
        let root = s.cycles[Phase::RunOther as usize];
        let inner = s.cycles[Phase::RoutingScan as usize];
        assert_eq!(s.calls[Phase::RunOther as usize], 1);
        assert_eq!(s.calls[Phase::RoutingScan as usize], 1);
        assert!(inner >= 20_000, "inner self {inner}");
        // Root burned `own` (~40k) itself; its child's `child` (~20k)
        // must NOT be included. Comparing against the measured burns, not
        // the requested ones, keeps a preempted burn from failing the test.
        assert!(root >= 40_000, "root self {root}");
        assert!(
            root < own + child / 2,
            "root self {root} appears to include child time (own {own}, child {child})"
        );
    }

    #[test]
    fn paths_decode_root_first() {
        let _serial = crate::serial_test();
        crate::set_enabled(true);
        reset_for_tests();
        {
            let _a = span(Phase::QueueDrain);
            let _b = span(Phase::BatchDispatch);
            let _c = span(Phase::RoutingScan);
        }
        flush_thread();
        let s = snapshot();
        let deep = s
            .paths
            .iter()
            .find(|p| p.path.len() == 3)
            .expect("three-deep path recorded");
        assert_eq!(
            deep.path,
            vec![Phase::QueueDrain, Phase::BatchDispatch, Phase::RoutingScan]
        );
        assert_eq!(deep.calls, 1);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _serial = crate::serial_test();
        crate::set_enabled(false);
        flush_thread(); // drain anything earlier tests on this thread left
        let before = snapshot().total_cycles();
        {
            let _g = span(Phase::PolicyCall);
        }
        flush_thread();
        let after = snapshot().total_cycles();
        crate::set_enabled(true);
        assert_eq!(before, after);
    }

    #[test]
    fn flush_is_idempotent_and_additive() {
        let _serial = crate::serial_test();
        crate::set_enabled(true);
        reset_for_tests();
        {
            let _g = span(Phase::ObsFold);
        }
        flush_thread();
        let once = snapshot().calls[Phase::ObsFold as usize];
        flush_thread(); // nothing new: second flush must not double count
        assert_eq!(snapshot().calls[Phase::ObsFold as usize], once);
        {
            let _g = span(Phase::ObsFold);
        }
        flush_thread();
        assert_eq!(snapshot().calls[Phase::ObsFold as usize], once + 1);
    }

    #[test]
    fn depth_overflow_is_counted_not_lost() {
        let _serial = crate::serial_test();
        crate::set_enabled(true);
        reset_for_tests();
        let mut guards: Vec<PhaseGuard> = (0..MAX_DEPTH + 2)
            .map(|_| span(Phase::BatchDispatch))
            .collect();
        while let Some(g) = guards.pop() {
            drop(g); // innermost first: guards require LIFO drop order
        }
        flush_thread();
        let s = snapshot();
        assert_eq!(s.depth_overflows, 2);
        assert_eq!(s.calls[Phase::BatchDispatch as usize], MAX_DEPTH as u64);
    }
}
