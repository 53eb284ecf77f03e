//! Keep-alive transitions as seen through `ffs-obs`.
//!
//! Table-driven coverage of every legal Figure 8 edge (and silence on every
//! undrawn one), plus a sim-driven check that eviction events carry the
//! correct [`ffs_obs::EvictionReason`].

use std::sync::{Arc, Mutex};

use ffs_obs::{EvictionReason, KaCause, ObsEvent, Recorder, Recording};
use ffs_sim::SimDuration;
use ffs_trace::{AzureTraceConfig, WorkloadClass};
use fluidfaas::platform::runner::run_platform;
use fluidfaas::KeepAliveState::{self, Cold, ExclusiveHot, TimeSharing, Warm};
use fluidfaas::Transition::{
    self, Evicted, IdleTimeout, RequestArrived, UtilizationHigh, UtilizationLow,
};
use fluidfaas::{paper_policies, Engine, FfsConfig};

/// The global enable flag is process-wide state; serialize the tests.
static LOCK: Mutex<()> = Mutex::new(());

fn with_recorder<R>(f: impl FnOnce() -> R) -> (R, Recording) {
    ffs_obs::set_enabled(true);
    let prev = ffs_obs::install(Arc::new(Recorder::new()));
    assert!(prev.is_none(), "stale recorder from another test");
    let r = f();
    let rec = ffs_obs::uninstall().expect("recorder still installed");
    ffs_obs::set_enabled(false);
    (r, rec.drain())
}

/// Every edge Figure 8 draws: (from, input, to).
const LEGAL_EDGES: &[(KeepAliveState, Transition, KeepAliveState)] = &[
    (Cold, RequestArrived, TimeSharing),          // ①
    (Warm, RequestArrived, TimeSharing),          // warm reload
    (TimeSharing, UtilizationHigh, ExclusiveHot), // ②
    (ExclusiveHot, UtilizationLow, TimeSharing),  // ③
    (TimeSharing, Evicted, Warm),                 // ④
    (Warm, IdleTimeout, Cold),                    // ⑤
    (TimeSharing, IdleTimeout, Cold),             // ⑤ (idle on-slice data)
];

const ALL_STATES: [KeepAliveState; 4] = [Cold, TimeSharing, ExclusiveHot, Warm];
const ALL_TRANSITIONS: [Transition; 5] = [
    RequestArrived,
    UtilizationHigh,
    UtilizationLow,
    Evicted,
    IdleTimeout,
];

#[test]
fn every_legal_edge_emits_exactly_one_transition_event() {
    let _g = LOCK.lock().unwrap();
    for &(from, input, to) in LEGAL_EDGES {
        let (next, recording) = with_recorder(|| from.next_traced(input, 7));
        assert_eq!(next, to, "{from:?} --{input:?}--> expected {to:?}");
        assert_eq!(
            recording.events.len(),
            1,
            "{from:?} --{input:?}--> {to:?} must record one event"
        );
        match &recording.events[0].event {
            ObsEvent::KeepAliveTransition {
                func,
                from: ef,
                to: et,
                cause,
            } => {
                assert_eq!(*func, 7);
                assert_eq!(*ef, from.obs());
                assert_eq!(*et, to.obs());
                assert_eq!(*cause, input.obs());
            }
            other => panic!("expected a keep-alive transition, got {other:?}"),
        }
        assert_eq!(recording.counters.keepalive_transitions, 1);
    }
}

#[test]
fn every_undrawn_edge_stays_silent() {
    let _g = LOCK.lock().unwrap();
    for from in ALL_STATES {
        for input in ALL_TRANSITIONS {
            if LEGAL_EDGES.iter().any(|&(f, t, _)| f == from && t == input) {
                continue;
            }
            let (next, recording) = with_recorder(|| from.next_traced(input, 3));
            assert_eq!(next, from, "{from:?} --{input:?}--> must be a no-op");
            assert!(
                recording.events.is_empty(),
                "{from:?} --{input:?}--> must not record ({:?})",
                recording.events
            );
        }
    }
}

/// A run with scarce resources and a short keep-alive: slice-contention
/// evictions (④) and keep-alive expiries (⑤) both happen, and every
/// eviction event's reason matches the lineage's transition history.
#[test]
fn sim_evictions_carry_the_correct_reason() {
    let _g = LOCK.lock().unwrap();
    // One GPU, four apps, steady demand: the shared pool cannot give every
    // function its own slot, so LRU contention evictions are guaranteed.
    let mut cfg = FfsConfig::test_small(WorkloadClass::Light);
    cfg.gpus_per_node = 1;
    cfg.keep_alive = SimDuration::from_secs(20);
    let trace = AzureTraceConfig::steady(WorkloadClass::Light.apps(), 60.0, 10.0, 5).generate();
    let ((), recording) = with_recorder(|| {
        let policies = paper_policies(&cfg);
        let mut engine = Engine::new(cfg, policies, &trace).expect("valid setup");
        let _ = run_platform(&mut engine, &trace);
    });

    let mut contention = 0u64;
    let mut expiry = 0u64;
    for stamped in &recording.events {
        match &stamped.event {
            ObsEvent::Eviction {
                func,
                reason: EvictionReason::SliceContention,
                ..
            } => {
                contention += 1;
                let _ = func;
            }
            ObsEvent::Eviction {
                func,
                reason: EvictionReason::KeepAliveExpired,
                ..
            } => {
                expiry += 1;
                // ⑤ fires at the same instant for the same function: the
                // expiry eviction only exists because the lineage was
                // TimeSharing, and TS --idle_timeout--> Cold is drawn.
                let matched = recording.events.iter().any(|s| {
                    s.t_us == stamped.t_us
                        && matches!(
                            &s.event,
                            ObsEvent::KeepAliveTransition { func: f, cause: KaCause::IdleTimeout, .. }
                                if f == func
                        )
                });
                assert!(matched, "expiry eviction of func {func} without ⑤");
            }
            // ④: a lineage only transitions TimeSharing -> Warm because its
            // resident was contention-evicted at that very instant.
            ObsEvent::KeepAliveTransition {
                func,
                cause: KaCause::Evicted,
                ..
            } => {
                let matched = recording.events.iter().any(|s| {
                    s.t_us == stamped.t_us
                        && matches!(
                            &s.event,
                            ObsEvent::Eviction { func: f, reason: EvictionReason::SliceContention, .. }
                                if f == func
                        )
                });
                assert!(matched, "④ of func {func} without its contention eviction");
            }
            _ => {}
        }
    }
    assert_eq!(
        recording.counters.evictions_contention, contention,
        "counters fold contention evictions"
    );
    assert_eq!(
        recording.counters.evictions_keepalive, expiry,
        "counters fold keep-alive evictions"
    );
    assert!(
        contention + expiry > 0,
        "the scarce-fleet run must evict at least once"
    );
}
