//! Per-request lifecycle bookkeeping.

use ffs_metrics::Breakdown;
use ffs_sim::{SimDuration, SimTime};

use super::catalog::FuncId;

/// How a request was ultimately served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServePath {
    /// A monolithic exclusive-hot instance.
    Monolithic,
    /// A pipelined exclusive-hot instance (stages across MIG slices).
    Pipelined,
    /// The function's time-sharing instance on a shared slice.
    TimeShared,
}

/// Mutable state of one request as it moves through a platform: one row
/// of the engine's request table, indexed by the request's trace id (trace
/// ids are dense, `0..n`, which the engine checks when it builds the
/// table). The row holds only what changes or cannot be derived; the
/// deadline is `arrival + slo[func]` ([`RequestState::deadline`]).
#[derive(Clone, Debug)]
pub struct RequestState {
    /// Arrival time.
    pub arrival: SimTime,
    /// Accumulated non-queue latency components; queueing is derived at
    /// completion as the remainder.
    pub exec_ms: f64,
    /// Model-load waiting attributed to this request.
    pub load_ms: f64,
    /// Boundary-transfer time attributed to this request.
    pub transfer_ms: f64,
    /// The function serving it (a [`FuncId`], stored narrow).
    pub func: u32,
    /// Owning tenant, copied from the trace invocation (0 when the
    /// caller never sets it, e.g. unit-test fixtures).
    pub tenant: u32,
    /// How the request was served (set when execution starts).
    pub served: Option<ServePath>,
    /// Set once the request has completed ([`RequestState::finish`]).
    pub done: bool,
}

impl RequestState {
    /// Creates the state for a request of function `func` arriving at
    /// `arrival`.
    pub fn new(func: FuncId, arrival: SimTime) -> Self {
        RequestState {
            arrival,
            exec_ms: 0.0,
            load_ms: 0.0,
            transfer_ms: 0.0,
            func: u32::try_from(func).expect("function id fits u32"),
            tenant: 0,
            served: None,
            done: false,
        }
    }

    /// The function serving the request.
    #[inline]
    pub fn func(&self) -> FuncId {
        self.func as FuncId
    }

    /// The request's absolute deadline under its function's SLO budget
    /// `slo` (the engine keeps one per function in `EngineCore::slo`).
    #[inline]
    pub fn deadline(&self, slo: SimDuration) -> SimTime {
        self.arrival + slo
    }

    /// The routing urgency key of §5.3: deadline (under SLO budget `slo`)
    /// minus estimated execution and load times. Smaller = more urgent.
    pub fn urgency_key(&self, slo: SimDuration, est_exec_ms: f64, est_load_ms: f64) -> i64 {
        let d = self.deadline(slo).as_micros() as i64;
        d - ((est_exec_ms + est_load_ms) * 1_000.0) as i64
    }

    /// Marks the request done at `t` and produces its breakdown (queue
    /// time is the unaccounted remainder of end-to-end latency).
    pub fn finish(&mut self, t: SimTime) -> Breakdown {
        self.done = true;
        let total_ms = t.saturating_since(self.arrival).as_secs_f64() * 1_000.0;
        let queue_ms = (total_ms - self.exec_ms - self.load_ms - self.transfer_ms).max(0.0);
        Breakdown {
            queue_ms,
            load_ms: self.load_ms,
            exec_ms: self.exec_ms,
            transfer_ms: self.transfer_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_fits_in_48_bytes() {
        assert!(std::mem::size_of::<RequestState>() <= 48);
    }

    #[test]
    fn deadline_derived_from_slo() {
        let r = RequestState::new(1, SimTime::from_secs(10));
        assert_eq!(
            r.deadline(SimDuration::from_millis(500)),
            SimTime::from_secs(10) + SimDuration::from_millis(500)
        );
    }

    #[test]
    fn finish_computes_queue_remainder() {
        let mut r = RequestState::new(0, SimTime::from_secs(1));
        r.exec_ms = 200.0;
        r.transfer_ms = 30.0;
        r.load_ms = 70.0;
        assert!(!r.done);
        let b = r.finish(SimTime::from_secs(1) + SimDuration::from_millis(500));
        assert!((b.queue_ms - 200.0).abs() < 1e-9);
        assert!((b.total_ms() - 500.0).abs() < 1e-9);
        assert!(r.done);
    }

    #[test]
    fn urgency_orders_by_slack() {
        let r = RequestState::new(0, SimTime::from_secs(1));
        let (tight, loose) = (SimDuration::from_millis(300), SimDuration::from_millis(600));
        // Same estimates: earlier deadline is more urgent.
        assert!(r.urgency_key(tight, 100.0, 0.0) < r.urgency_key(loose, 100.0, 0.0));
        // Larger estimated work makes a request more urgent.
        assert!(r.urgency_key(loose, 500.0, 100.0) < r.urgency_key(loose, 100.0, 0.0));
    }
}
