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

/// Mutable state of one request as it moves through a platform.
#[derive(Clone, Debug)]
pub struct RequestState {
    /// Trace-wide id.
    pub id: u64,
    /// The function serving it.
    pub func: FuncId,
    /// Arrival time.
    pub arrival: SimTime,
    /// Absolute deadline (`arrival + SLO`).
    pub deadline: SimTime,
    /// Completion time, when done.
    pub completed: Option<SimTime>,
    /// Accumulated non-queue latency components; queueing is derived at
    /// completion as the remainder.
    pub exec_ms: f64,
    /// Model-load waiting attributed to this request.
    pub load_ms: f64,
    /// Boundary-transfer time attributed to this request.
    pub transfer_ms: f64,
    /// How the request was served (set when execution starts).
    pub served: Option<ServePath>,
    /// Handed to a peer shard at an epoch boundary: the local record is a
    /// tombstone — the peer owns the request's outcome, so finalize must
    /// not count this copy as abandoned.
    pub moved: bool,
    /// Owning tenant, copied from the trace invocation (0 when the
    /// caller never sets it, e.g. unit-test fixtures).
    pub tenant: u32,
}

impl RequestState {
    /// Creates the state for an arriving request with an SLO of `slo_ms`.
    pub fn new(id: u64, func: FuncId, arrival: SimTime, slo_ms: f64) -> Self {
        Self::with_slo(id, func, arrival, SimDuration::from_millis_f64(slo_ms))
    }

    /// Creates the state for an arriving request whose SLO budget is
    /// already a duration (the engine converts each function's SLO once
    /// per run, not once per request).
    pub fn with_slo(id: u64, func: FuncId, arrival: SimTime, slo: SimDuration) -> Self {
        RequestState {
            id,
            func,
            arrival,
            deadline: arrival + slo,
            completed: None,
            exec_ms: 0.0,
            load_ms: 0.0,
            transfer_ms: 0.0,
            served: None,
            moved: false,
            tenant: 0,
        }
    }

    /// The routing urgency key of §5.3: deadline minus estimated execution
    /// and load times. Smaller = more urgent.
    pub fn urgency_key(&self, est_exec_ms: f64, est_load_ms: f64) -> i64 {
        let d = self.deadline.as_micros() as i64;
        d - ((est_exec_ms + est_load_ms) * 1_000.0) as i64
    }

    /// Finalises the request at `t` and produces its breakdown (queue time
    /// is the unaccounted remainder of end-to-end latency).
    pub fn finish(&mut self, t: SimTime) -> Breakdown {
        self.completed = Some(t);
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
    fn deadline_derived_from_slo() {
        let r = RequestState::new(0, 1, SimTime::from_secs(10), 500.0);
        assert_eq!(
            r.deadline,
            SimTime::from_secs(10) + SimDuration::from_millis(500)
        );
    }

    #[test]
    fn finish_computes_queue_remainder() {
        let mut r = RequestState::new(0, 0, SimTime::from_secs(1), 1_000.0);
        r.exec_ms = 200.0;
        r.transfer_ms = 30.0;
        r.load_ms = 70.0;
        let b = r.finish(SimTime::from_secs(1) + SimDuration::from_millis(500));
        assert!((b.queue_ms - 200.0).abs() < 1e-9);
        assert!((b.total_ms() - 500.0).abs() < 1e-9);
        assert_eq!(
            r.completed,
            Some(SimTime::from_secs(1) + SimDuration::from_millis(500))
        );
    }

    #[test]
    fn urgency_orders_by_slack() {
        let r1 = RequestState::new(0, 0, SimTime::from_secs(1), 300.0);
        let r2 = RequestState::new(1, 0, SimTime::from_secs(1), 600.0);
        // Same estimates: earlier deadline is more urgent.
        assert!(r1.urgency_key(100.0, 0.0) < r2.urgency_key(100.0, 0.0));
        // Larger estimated work makes a request more urgent.
        assert!(r2.urgency_key(500.0, 100.0) < r2.urgency_key(100.0, 0.0));
    }
}
