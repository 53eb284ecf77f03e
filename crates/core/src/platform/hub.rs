//! The metrics hub: one place where platforms report lifecycle events.

use ffs_metrics::{BinnedSeries, Breakdown, CostTracker, RequestLog, RequestRecord};
use ffs_mig::SliceId;
use ffs_sim::{SimDuration, SimTime};

use super::catalog::FunctionCatalog;
use super::request::RequestState;

/// Collects every metric a run produces.
#[derive(Debug)]
pub struct MetricsHub {
    /// Per-request records.
    pub log: RequestLog,
    /// Cost accounting (GPU time / MIG time / occupied / active).
    pub cost: CostTracker,
    /// Busy GPCs over time (utilization figures).
    pub busy_gpcs: BinnedSeries,
    /// Allocated GPCs over time (what the system *holds*).
    pub allocated_gpcs: BinnedSeries,
    /// The ideal GPC demand over time (Figure 3's "required resources").
    pub required_gpcs: BinnedSeries,
    app_of_func: Vec<u32>,
    slo_of_func: Vec<f64>,
}

impl MetricsHub {
    /// Creates a hub for a fleet of `num_gpus` GPUs.
    pub fn new(catalog: &FunctionCatalog, num_gpus: usize, bin: SimDuration) -> Self {
        MetricsHub {
            log: RequestLog::new(),
            cost: CostTracker::new(num_gpus, SimTime::ZERO),
            busy_gpcs: BinnedSeries::new(bin),
            allocated_gpcs: BinnedSeries::new(bin),
            required_gpcs: BinnedSeries::new(bin),
            app_of_func: catalog
                .ids()
                .map(|f| catalog.profile(f).app.index() as u32)
                .collect(),
            slo_of_func: catalog.ids().map(|f| catalog.slo_ms(f)).collect(),
        }
    }

    /// An empty placeholder hub, used when a platform surrenders its real
    /// hub at the end of a run.
    pub fn detached() -> Self {
        MetricsHub {
            log: RequestLog::new(),
            cost: CostTracker::new(0, SimTime::ZERO),
            busy_gpcs: BinnedSeries::new(SimDuration::from_secs(1)),
            allocated_gpcs: BinnedSeries::new(SimDuration::from_secs(1)),
            required_gpcs: BinnedSeries::new(SimDuration::from_secs(1)),
            app_of_func: Vec::new(),
            slo_of_func: Vec::new(),
        }
    }

    /// Records request `id`, completed at `completed`.
    pub fn complete(
        &mut self,
        id: u64,
        req: &RequestState,
        completed: SimTime,
        breakdown: Breakdown,
    ) {
        let f = req.func();
        if ffs_obs::enabled() {
            let latency_ms = completed.saturating_since(req.arrival).as_secs_f64() * 1_000.0;
            let slo_ms = self.slo_of_func[f];
            ffs_obs::record(|| ffs_obs::ObsEvent::RequestCompleted {
                req: id,
                app: self.app_of_func[f],
                latency_ms,
                slo_ms,
                slo_met: latency_ms <= slo_ms,
            });
        }
        self.log.push_completed(
            RequestRecord {
                id,
                app_index: self.app_of_func[f],
                arrival: req.arrival,
                completed: Some(completed),
                slo_ms: self.slo_of_func[f],
                tenant: req.tenant,
            },
            breakdown,
        );
    }

    /// Records request `id`, which never completed (dropped or unfinished
    /// at run end) — an SLO miss.
    pub fn abandon(&mut self, id: u64, req: &RequestState) {
        let f = req.func();
        ffs_obs::record(|| ffs_obs::ObsEvent::RequestAbandoned {
            req: id,
            app: self.app_of_func[f],
        });
        self.log.push_abandoned(RequestRecord {
            id,
            app_index: self.app_of_func[f],
            arrival: req.arrival,
            completed: None,
            slo_ms: self.slo_of_func[f],
            tenant: req.tenant,
        });
    }

    /// Slice allocation hook (forward to cost tracking).
    pub fn slice_allocated(&mut self, t: SimTime, slice: SliceId, gpcs: u32) {
        self.cost
            .slice_allocated(t, (slice.gpu.0, slice.index), gpcs);
    }

    /// Slice release hook.
    pub fn slice_released(&mut self, t: SimTime, slice: SliceId) {
        self.cost.slice_released(t, (slice.gpu.0, slice.index));
    }

    /// Slice started processing.
    pub fn slice_active(&mut self, t: SimTime, slice: SliceId) {
        self.cost.slice_active(t, (slice.gpu.0, slice.index));
    }

    /// Slice stopped processing.
    pub fn slice_idle(&mut self, t: SimTime, slice: SliceId) {
        self.cost.slice_idle(t, (slice.gpu.0, slice.index));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::catalog::FunctionCatalog;
    use ffs_mig::{GpuId, SliceId};
    use ffs_profile::PerfModel;
    use ffs_trace::WorkloadClass;

    fn hub() -> MetricsHub {
        let catalog =
            FunctionCatalog::for_workload(WorkloadClass::Light, 1.5, &PerfModel::default());
        MetricsHub::new(&catalog, 2, SimDuration::from_secs(1))
    }

    #[test]
    fn complete_and_abandon_record_requests() {
        let mut h = hub();
        let mut req = RequestState::new(1, SimTime::from_secs(1));
        req.exec_ms = 100.0;
        let done_at = SimTime::from_secs(1) + SimDuration::from_millis(200);
        let breakdown = req.finish(done_at);
        assert!(req.done);
        h.complete(0, &req, done_at, breakdown);
        let dropped = RequestState::new(0, SimTime::from_secs(2));
        assert!(!dropped.done);
        h.abandon(1, &dropped);
        assert_eq!(h.log.len(), 2);
        assert_eq!(h.log.records()[0].completed, Some(done_at));
        assert_eq!(
            (h.log.records()[0].id, h.log.records()[1].id),
            (0, 1),
            "records carry the ids the hub was given"
        );
        assert_eq!(h.log.records()[0].app_index, 1);
        assert!(h.log.records()[0].slo_hit());
        assert!(!h.log.records()[1].slo_hit(), "abandoned = miss");
        assert!((h.log.slo_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn slice_hooks_flow_into_cost_tracking() {
        let mut h = hub();
        let slice = SliceId::new(GpuId(1), 0);
        h.slice_allocated(SimTime::from_secs(0), slice, 4);
        h.slice_active(SimTime::from_secs(1), slice);
        h.slice_idle(SimTime::from_secs(3), slice);
        h.slice_released(SimTime::from_secs(5), slice);
        let report = h.cost.finalize(SimTime::from_secs(10));
        assert!((report.gpu_time_secs[1] - 5.0).abs() < 1e-9);
        assert!((report.active_secs[1] - 2.0).abs() < 1e-9);
        assert!((report.occupied_gpc_secs[1] - 20.0).abs() < 1e-9);
    }

    #[test]
    fn detached_hub_is_inert() {
        let h = MetricsHub::detached();
        assert!(h.log.is_empty());
        assert!(h.busy_gpcs.is_empty());
    }
}
