//! The multi-level keep-alive state machine of Figure 8.
//!
//! States and transitions, exactly as the paper draws them:
//!
//! ```text
//!            ① first request            ② util > threshold
//!   (none) ────────────────▶ TimeSharing ─────────────────▶ ExclusiveHot
//!                              ▲   │  ▲                          │
//!                    ④ evicted │   │  └──────────────────────────┘
//!                              │   ▼        ③ util drops
//!                            Warm ──▶ Cold  ⑤ idle 10 min
//! ```
//!
//! The transition function is pure so it can be property-tested; the
//! platform drives it with utilization measurements and timer events.

/// Keep-alive state of a function's time-sharing lineage (Figure 8).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KeepAliveState {
    /// No instance exists (terminated or never created).
    Cold,
    /// Data resides on a (shared) MIG slice; instance may be evicted.
    TimeSharing,
    /// High-load instance pinned to its slice(s), exempt from eviction.
    /// All pipeline instances are exclusive hot (§5.3).
    ExclusiveHot,
    /// Evicted to CPU memory; reloading is cheaper than a cold start.
    Warm,
}

/// Inputs that drive state transitions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Transition {
    /// A request arrived for the function (① from Cold, reload from Warm).
    RequestArrived,
    /// Measured utilization crossed above the promote threshold (②).
    UtilizationHigh,
    /// Measured utilization dropped below the demote threshold (③).
    UtilizationLow,
    /// The instance's slice was reclaimed by eviction (④).
    Evicted,
    /// The keep-alive timer expired with no demand (⑤).
    IdleTimeout,
}

impl Transition {
    /// The trace-facing mirror of this transition.
    pub fn obs(self) -> ffs_obs::KaCause {
        match self {
            Transition::RequestArrived => ffs_obs::KaCause::RequestArrived,
            Transition::UtilizationHigh => ffs_obs::KaCause::UtilizationHigh,
            Transition::UtilizationLow => ffs_obs::KaCause::UtilizationLow,
            Transition::Evicted => ffs_obs::KaCause::Evicted,
            Transition::IdleTimeout => ffs_obs::KaCause::IdleTimeout,
        }
    }
}

impl KeepAliveState {
    /// Applies a transition, returning the next state. Transitions not
    /// drawn in Figure 8 leave the state unchanged.
    pub fn next(self, t: Transition) -> KeepAliveState {
        use KeepAliveState::*;
        use Transition::*;
        match (self, t) {
            (Cold, RequestArrived) => TimeSharing,          // ①
            (Warm, RequestArrived) => TimeSharing,          // reload from CPU
            (TimeSharing, UtilizationHigh) => ExclusiveHot, // ②
            (ExclusiveHot, UtilizationLow) => TimeSharing,  // ③
            (TimeSharing, Evicted) => Warm,                 // ④
            (Warm, IdleTimeout) => Cold,                    // ⑤
            (TimeSharing, IdleTimeout) => Cold,             // ⑤ (idle on-slice data)
            (s, _) => s,
        }
    }

    /// Applies a transition like [`KeepAliveState::next`], additionally
    /// recording a `keepalive_transition` trace event for `func` whenever
    /// the state actually changes (undrawn transitions stay silent).
    pub fn next_traced(self, t: Transition, func: u32) -> KeepAliveState {
        let next = self.next(t);
        if next != self {
            ffs_obs::record(|| ffs_obs::ObsEvent::KeepAliveTransition {
                func,
                from: self.obs(),
                to: next.obs(),
                cause: t.obs(),
            });
        }
        next
    }

    /// The trace-facing mirror of this state.
    pub fn obs(self) -> ffs_obs::KaState {
        match self {
            KeepAliveState::Cold => ffs_obs::KaState::Cold,
            KeepAliveState::TimeSharing => ffs_obs::KaState::TimeSharing,
            KeepAliveState::ExclusiveHot => ffs_obs::KaState::ExclusiveHot,
            KeepAliveState::Warm => ffs_obs::KaState::Warm,
        }
    }

    /// True if the state holds GPU resources.
    pub fn on_gpu(self) -> bool {
        matches!(
            self,
            KeepAliveState::TimeSharing | KeepAliveState::ExclusiveHot
        )
    }

    /// True if the state is exempt from eviction.
    pub fn eviction_exempt(self) -> bool {
        matches!(self, KeepAliveState::ExclusiveHot)
    }
}

#[cfg(test)]
mod tests {
    use super::KeepAliveState::*;
    use super::Transition::*;

    #[test]
    fn figure8_numbered_transitions() {
        assert_eq!(Cold.next(RequestArrived), TimeSharing); // ①
        assert_eq!(TimeSharing.next(UtilizationHigh), ExclusiveHot); // ②
        assert_eq!(ExclusiveHot.next(UtilizationLow), TimeSharing); // ③
        assert_eq!(TimeSharing.next(Evicted), Warm); // ④
        assert_eq!(Warm.next(IdleTimeout), Cold); // ⑤
    }

    #[test]
    fn exclusive_hot_is_eviction_exempt() {
        assert!(ExclusiveHot.eviction_exempt());
        assert_eq!(
            ExclusiveHot.next(Evicted),
            ExclusiveHot,
            "cannot evict hot instances"
        );
        assert!(!TimeSharing.eviction_exempt());
    }

    #[test]
    fn warm_reload_returns_to_time_sharing() {
        assert_eq!(Warm.next(RequestArrived), TimeSharing);
    }

    #[test]
    fn undrawn_transitions_are_noops() {
        assert_eq!(Cold.next(UtilizationHigh), Cold);
        assert_eq!(Cold.next(IdleTimeout), Cold);
        assert_eq!(ExclusiveHot.next(IdleTimeout), ExclusiveHot);
        assert_eq!(Warm.next(UtilizationLow), Warm);
    }

    #[test]
    fn gpu_residency() {
        assert!(TimeSharing.on_gpu());
        assert!(ExclusiveHot.on_gpu());
        assert!(!Warm.on_gpu());
        assert!(!Cold.on_gpu());
    }

    #[test]
    fn every_state_eventually_reaches_cold_without_demand() {
        // Starvation path: no requests, repeated low-util + timeout events.
        for start in [TimeSharing, ExclusiveHot, Warm, Cold] {
            let mut s = start;
            for _ in 0..4 {
                s = s.next(UtilizationLow);
                s = s.next(Evicted);
                s = s.next(IdleTimeout);
            }
            assert_eq!(s, Cold, "from {start:?}");
        }
    }
}
