//! Per-request lifecycle records and aggregate SLO / throughput metrics.

use ffs_sim::{SimDuration, SimTime};

/// Where a request's end-to-end latency went (Figure 14's breakdown).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Breakdown {
    /// Waiting in queues (controller, load balancer, instance, stage).
    pub queue_ms: f64,
    /// Waiting for model loads (warm reload after eviction, cold start).
    pub load_ms: f64,
    /// Executing on MIG slices.
    pub exec_ms: f64,
    /// Moving tensors across pipeline-stage boundaries (or in-process
    /// handoffs for monolithic instances).
    pub transfer_ms: f64,
}

impl Breakdown {
    /// Total accounted latency.
    pub fn total_ms(&self) -> f64 {
        self.queue_ms + self.load_ms + self.exec_ms + self.transfer_ms
    }
}

/// A whole-microsecond latency in ms, exactly as
/// [`RequestRecord::latency_ms`] reports it. Monotone non-decreasing in
/// `us` (an integer-to-float conversion and two correctly rounded
/// operations by positive constants), so it maps sorted keys to sorted
/// values.
pub(crate) fn micros_to_ms(us: u64) -> f64 {
    SimDuration::from_micros(us).as_secs_f64() * 1_000.0
}

/// One completed (or dropped) request: identity, timing, SLO and tenant
/// in 48 bytes. Its latency [`Breakdown`] is not inline: the
/// [`RequestLog`] keeps breakdowns in a column of their own, for completed
/// records only (see [`RequestLog::records_with_breakdowns`]).
#[derive(Clone, Copy, Debug)]
pub struct RequestRecord {
    /// Trace-wide request id.
    pub id: u64,
    /// Arrival at the platform.
    pub arrival: SimTime,
    /// Completion time; `None` for requests dropped or still in flight at
    /// the end of the run (both count as SLO misses).
    pub completed: Option<SimTime>,
    /// The SLO latency budget for this request.
    pub slo_ms: f64,
    /// Index of the application (paper's App 0–3).
    pub app_index: u32,
    /// Owning tenant (fairness accounting).
    pub tenant: u32,
}

const _: () = assert!(std::mem::size_of::<RequestRecord>() == 48);

impl RequestRecord {
    /// End-to-end latency in ms, if completed.
    pub fn latency_ms(&self) -> Option<f64> {
        self.latency_us().map(micros_to_ms)
    }

    /// End-to-end latency in whole microseconds, if completed.
    pub fn latency_us(&self) -> Option<u64> {
        self.completed
            .map(|c| c.saturating_since(self.arrival).as_micros())
    }

    /// True if the request completed within its SLO.
    pub fn slo_hit(&self) -> bool {
        match self.latency_ms() {
            Some(l) => l <= self.slo_ms,
            None => false,
        }
    }
}

/// Append-only log of request records with aggregate queries.
///
/// Records sit in one vector, in log order. Latency breakdowns sit in a
/// second one, one entry per *completed* record in the same order: an
/// abandoned request's breakdown is always zero, so it is not stored, and
/// the two push methods keep "abandoned with a breakdown" unwritable.
/// [`RequestLog::records_with_breakdowns`] pairs the two back up.
#[derive(Clone, Debug, Default)]
pub struct RequestLog {
    records: Vec<RequestRecord>,
    breakdowns: Vec<Breakdown>,
}

impl RequestLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a completed request and its latency breakdown. A
    /// completion that precedes its own arrival is an event-ordering bug:
    /// `latency_ms` would silently clamp it to zero, so it is counted
    /// against the process-wide metric-clamp counter here (once per
    /// record, not once per latency query).
    ///
    /// # Panics
    /// Panics if `r.completed` is `None`: breakdowns pair with completed
    /// records by position.
    pub fn push_completed(&mut self, r: RequestRecord, breakdown: Breakdown) {
        let completed = r
            .completed
            .expect("a completed record has a completion time");
        if completed < r.arrival {
            debug_assert!(false, "request {} completed before it arrived", r.id);
            ffs_obs::note_metric_clamp();
        }
        self.records.push(r);
        self.breakdowns.push(breakdown);
    }

    /// Appends a request that never completed (dropped, or unfinished at
    /// the end of the run); its breakdown is zero.
    ///
    /// # Panics
    /// Panics if `r.completed` is `Some`.
    pub fn push_abandoned(&mut self, r: RequestRecord) {
        assert!(
            r.completed.is_none(),
            "abandoned request {} has a completion time",
            r.id
        );
        self.records.push(r);
    }

    /// Pre-sizes the log for `n` additional records, so a run with a known
    /// request count never reallocates on the completion path.
    pub fn reserve(&mut self, n: usize) {
        self.records.reserve(n);
        self.breakdowns.reserve(n);
    }

    /// Rewrites every record's id through `map` (a sharded run's cell
    /// logs hold cell-local ids until they are merged).
    pub fn remap_ids(&mut self, mut map: impl FnMut(u64) -> u64) {
        for r in &mut self.records {
            r.id = map(r.id);
        }
    }

    /// Moves every record of `other` to the end of this log, in order,
    /// leaving `other` empty. Each record keeps its breakdown.
    pub fn append(&mut self, other: &mut RequestLog) {
        self.records.append(&mut other.records);
        self.breakdowns.append(&mut other.breakdowns);
    }

    /// All records.
    pub fn records(&self) -> &[RequestRecord] {
        &self.records
    }

    /// Every record in log order, paired with its latency breakdown; an
    /// abandoned record pairs with the zero breakdown.
    pub fn records_with_breakdowns(&self) -> impl Iterator<Item = (&RequestRecord, Breakdown)> {
        let mut completed = self.breakdowns.iter();
        self.records.iter().map(move |r| {
            let b = match r.completed {
                Some(_) => *completed
                    .next()
                    .expect("one breakdown per completed record"),
                None => Breakdown::default(),
            };
            (r, b)
        })
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records for one application.
    pub fn for_app(&self, app_index: usize) -> impl Iterator<Item = &RequestRecord> {
        self.records
            .iter()
            .filter(move |r| r.app_index as usize == app_index)
    }

    /// Fraction of requests completed within their SLO (Figure 9). Unfilled
    /// requests count as misses. Returns 1.0 for an empty log.
    pub fn slo_hit_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 1.0;
        }
        self.records.iter().filter(|r| r.slo_hit()).count() as f64 / self.records.len() as f64
    }

    /// SLO hit rate for one app.
    pub fn slo_hit_rate_for(&self, app_index: usize) -> f64 {
        let (hits, total) = self.for_app(app_index).fold((0usize, 0usize), |(h, t), r| {
            (h + usize::from(r.slo_hit()), t + 1)
        });
        if total == 0 {
            1.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Completed requests per second over `duration` (Figure 10's
    /// throughput).
    pub fn throughput_rps(&self, duration: SimDuration) -> f64 {
        let done = self
            .records
            .iter()
            .filter(|r| r.completed.is_some())
            .count();
        done as f64 / duration.as_secs_f64()
    }

    /// Completed-request latencies in ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.records.iter().filter_map(|r| r.latency_ms()).collect()
    }

    /// Completed-request latencies in whole microseconds, the unit the
    /// simulation clock keeps them in (input of
    /// [`LatencyCdf::from_micros`](crate::LatencyCdf::from_micros)).
    pub fn latencies_us(&self) -> Vec<u64> {
        self.records
            .iter()
            .filter_map(RequestRecord::latency_us)
            .collect()
    }

    /// Completed-request latencies for one app, in microseconds.
    pub fn latencies_us_for(&self, app_index: usize) -> Vec<u64> {
        self.for_app(app_index)
            .filter_map(RequestRecord::latency_us)
            .collect()
    }

    /// Mean breakdown over completed requests (Figure 14), per app.
    pub fn mean_breakdown_for(&self, app_index: usize) -> Breakdown {
        let mut acc = Breakdown::default();
        let mut n = 0usize;
        for (r, b) in self.records_with_breakdowns() {
            if r.app_index as usize == app_index && r.completed.is_some() {
                acc.queue_ms += b.queue_ms;
                acc.load_ms += b.load_ms;
                acc.exec_ms += b.exec_ms;
                acc.transfer_ms += b.transfer_ms;
                n += 1;
            }
        }
        if n > 0 {
            let k = n as f64;
            acc.queue_ms /= k;
            acc.load_ms /= k;
            acc.exec_ms /= k;
            acc.transfer_ms /= k;
        }
        acc
    }

    /// Completion time of the last finished request (for the "finishes all
    /// tasks X% faster" comparison of §7.2).
    pub fn makespan(&self) -> Option<SimTime> {
        self.records.iter().filter_map(|r| r.completed).max()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    /// A record of app `app` arriving at `arrival_s`, with the breakdown
    /// its latency implies (10 ms queueing, the rest execution).
    fn record(
        id: u64,
        app: u32,
        arrival_s: u64,
        latency_ms: Option<f64>,
        slo_ms: f64,
    ) -> (RequestRecord, Breakdown) {
        let arrival = SimTime::from_secs(arrival_s);
        let r = RequestRecord {
            id,
            app_index: app,
            arrival,
            completed: latency_ms.map(|l| arrival + SimDuration::from_millis_f64(l)),
            slo_ms,
            tenant: app,
        };
        let b = Breakdown {
            queue_ms: 10.0,
            load_ms: 0.0,
            exec_ms: latency_ms.unwrap_or(0.0).max(10.0) - 10.0,
            transfer_ms: 0.0,
        };
        (r, b)
    }

    /// Logs `(r, b)` through the push its outcome selects.
    fn push(log: &mut RequestLog, (r, b): (RequestRecord, Breakdown)) {
        if r.completed.is_some() {
            log.push_completed(r, b);
        } else {
            log.push_abandoned(r);
        }
    }

    #[test]
    fn slo_hit_accounting() {
        let mut log = RequestLog::new();
        push(&mut log, record(0, 0, 0, Some(100.0), 150.0)); // hit
        push(&mut log, record(1, 0, 1, Some(200.0), 150.0)); // miss
        push(&mut log, record(2, 0, 2, None, 150.0)); // dropped: miss
        push(&mut log, record(3, 1, 3, Some(149.9), 150.0)); // hit
        assert!((log.slo_hit_rate() - 0.5).abs() < 1e-12);
        assert!((log.slo_hit_rate_for(0) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(log.slo_hit_rate_for(1), 1.0);
        assert_eq!(log.slo_hit_rate_for(9), 1.0, "no records = vacuous 1.0");
    }

    #[test]
    fn throughput_counts_only_completed() {
        let mut log = RequestLog::new();
        push(&mut log, record(0, 0, 0, Some(50.0), 100.0));
        push(&mut log, record(1, 0, 0, None, 100.0));
        assert!((log.throughput_rps(SimDuration::from_secs(10)) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn latency_and_makespan() {
        let mut log = RequestLog::new();
        push(&mut log, record(0, 0, 0, Some(100.0), 150.0));
        push(&mut log, record(1, 0, 5, Some(300.0), 150.0));
        let lats = log.latencies_ms();
        assert_eq!(lats.len(), 2);
        assert!((lats[1] - 300.0).abs() < 1e-9);
        assert_eq!(
            log.makespan().unwrap(),
            SimTime::from_secs(5) + SimDuration::from_millis(300)
        );
    }

    #[test]
    fn mean_breakdown_averages_completed_only() {
        let mut log = RequestLog::new();
        push(&mut log, record(0, 2, 0, Some(110.0), 500.0));
        push(&mut log, record(1, 2, 0, Some(210.0), 500.0));
        push(&mut log, record(2, 2, 0, None, 500.0));
        let b = log.mean_breakdown_for(2);
        assert!((b.queue_ms - 10.0).abs() < 1e-12);
        assert!((b.exec_ms - 150.0).abs() < 1e-12);
        assert!((b.total_ms() - 160.0).abs() < 1e-12);
    }

    #[test]
    fn pairing_follows_log_order_on_a_mixed_log() {
        // Abandoned records interleave with completed ones of two apps;
        // each completed record gets back exactly its own breakdown.
        let mut log = RequestLog::new();
        let pushed = [
            record(0, 0, 0, None, 500.0),
            record(1, 1, 0, Some(40.0), 500.0),
            record(2, 0, 1, Some(70.0), 500.0),
            record(3, 1, 1, None, 500.0),
            record(4, 1, 2, None, 500.0),
            record(5, 0, 2, Some(25.0), 500.0),
        ];
        for p in pushed {
            push(&mut log, p);
        }
        let paired: Vec<(u64, Breakdown)> = log
            .records_with_breakdowns()
            .map(|(r, b)| (r.id, b))
            .collect();
        assert_eq!(paired.len(), pushed.len());
        for ((id, b), (r, want)) in paired.iter().zip(&pushed) {
            assert_eq!(*id, r.id);
            if r.completed.is_some() {
                assert_eq!(*b, *want);
            } else {
                assert_eq!(*b, Breakdown::default(), "abandoned pairs with zero");
            }
        }
        // App 0: completed records 2 (exec 60) and 5 (exec 15); app 1:
        // record 1 (exec 30). Abandoned records never enter the mean.
        let app0 = log.mean_breakdown_for(0);
        assert!((app0.exec_ms - 37.5).abs() < 1e-12);
        assert!((app0.queue_ms - 10.0).abs() < 1e-12);
        let app1 = log.mean_breakdown_for(1);
        assert!((app1.exec_ms - 30.0).abs() < 1e-12);
        assert_eq!(log.mean_breakdown_for(3), Breakdown::default());
    }

    #[test]
    fn append_and_remap_keep_each_breakdown_with_its_record() {
        let first = [
            record(0, 0, 0, Some(40.0), 500.0),
            record(1, 1, 0, None, 500.0),
        ];
        let second = [
            record(0, 1, 1, None, 500.0),
            record(1, 0, 1, Some(70.0), 500.0),
        ];
        let (mut a, mut b) = (RequestLog::new(), RequestLog::new());
        first.into_iter().for_each(|p| push(&mut a, p));
        second.into_iter().for_each(|p| push(&mut b, p));
        b.remap_ids(|id| id + 10);
        a.append(&mut b);
        assert!(b.is_empty());
        let merged: Vec<(u64, Breakdown)> = a
            .records_with_breakdowns()
            .map(|(r, b)| (r.id, b))
            .collect();
        let want = [
            (0, first[0].1),
            (1, Breakdown::default()),
            (10, Breakdown::default()),
            (11, second[1].1),
        ];
        assert_eq!(merged, want);
    }

    #[test]
    #[should_panic(expected = "completion time")]
    fn abandoned_push_rejects_a_completed_record() {
        let (r, _) = record(0, 0, 0, Some(10.0), 500.0);
        RequestLog::new().push_abandoned(r);
    }

    #[test]
    #[should_panic(expected = "completion time")]
    fn completed_push_rejects_an_unfinished_record() {
        let (r, b) = record(0, 0, 0, None, 500.0);
        RequestLog::new().push_completed(r, b);
    }

    #[test]
    fn empty_log_is_benign() {
        let log = RequestLog::new();
        assert_eq!(log.slo_hit_rate(), 1.0);
        assert!(log.latencies_ms().is_empty());
        assert!(log.makespan().is_none());
        assert_eq!(log.throughput_rps(SimDuration::from_secs(1)), 0.0);
        assert_eq!(log.records_with_breakdowns().count(), 0);
    }
}
