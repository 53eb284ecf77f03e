//! Exclusive-hot instances: monolithic or pipelined deployments pinned to
//! their MIG slices.

use std::collections::VecDeque;

use ffs_mig::NodeId;
use ffs_pipeline::{DeploymentPlan, InstanceEstimate};
use ffs_profile::FunctionProfile;
use ffs_sim::{SimDuration, SimTime};

use crate::platform::catalog::FuncId;
use crate::platform::events::InstanceId;

/// Per-stage timing constants of a deployment — pure functions of
/// (profile, plan), computed once at launch so the per-request hot path
/// reads precomputed values instead of cloning stage node lists,
/// re-walking the profile tables or rounding floats to durations.
#[derive(Clone, Debug)]
pub struct StageTimings {
    /// Execution time of each stage (ms) on its slice profile.
    pub exec_ms: Vec<f64>,
    /// In-process handoff time within each stage (ms).
    pub handoff_ms: Vec<f64>,
    /// Host-shared-memory transfer after each stage (ms); the final
    /// stage's entry is the planner's "no boundary" value (0).
    pub transfer_ms: Vec<f64>,
    /// How long each stage holds its slice per request: `exec_ms +
    /// handoff_ms` as a duration.
    pub service: Vec<SimDuration>,
    /// `transfer_ms` as a duration.
    pub transfer: Vec<SimDuration>,
}

impl StageTimings {
    /// Computes the timing table for `plan` running `profile`.
    pub fn compute(profile: &FunctionProfile, plan: &DeploymentPlan) -> Self {
        let crossings = plan.partition.boundary_transfers_mb(&profile.dag);
        let exec_ms = plan
            .stages
            .iter()
            .map(|s| profile.stage_exec_ms(&s.nodes, s.profile))
            .collect();
        let handoff_ms = plan
            .stages
            .iter()
            .map(|s| s.nodes.len().saturating_sub(1) as f64 * profile.perf.inprocess_handoff_ms)
            .collect();
        let transfer_ms = (0..plan.num_stages())
            .map(|s| {
                let mb = crossings.get(s).copied().unwrap_or(0.0);
                profile.perf.boundary_ms(mb)
            })
            .collect();
        Self::from_ms(exec_ms, handoff_ms, transfer_ms)
    }

    /// An all-zero table for `n` stages (test/bench scaffolding).
    pub fn zero(n: usize) -> Self {
        Self::from_ms(vec![0.0; n], vec![0.0; n], vec![0.0; n])
    }

    /// Completes a table from its millisecond columns.
    fn from_ms(exec_ms: Vec<f64>, handoff_ms: Vec<f64>, transfer_ms: Vec<f64>) -> Self {
        let service = exec_ms
            .iter()
            .zip(&handoff_ms)
            .map(|(&e, &h)| SimDuration::from_millis_f64(e + h))
            .collect();
        let transfer = transfer_ms
            .iter()
            .map(|&t| SimDuration::from_millis_f64(t))
            .collect();
        StageTimings {
            exec_ms,
            handoff_ms,
            transfer_ms,
            service,
            transfer,
        }
    }
}

/// Lifecycle phase of an exclusive instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Cold-starting; ready at the contained time.
    Launching {
        /// When the instance becomes ready.
        ready_at: SimTime,
    },
    /// Serving requests.
    Ready,
    /// Migration target exists: no new requests, retire when drained
    /// (§5.3, pipeline migration).
    Draining,
}

/// An exclusive-hot instance (always pinned, never evicted — §5.3).
#[derive(Clone, Debug)]
pub struct Instance {
    /// Instance id.
    pub id: InstanceId,
    /// The function it serves.
    pub func: FuncId,
    /// The deployment plan (stages + slices).
    pub plan: DeploymentPlan,
    /// Latency / throughput estimate for routing.
    pub est: InstanceEstimate,
    /// The node hosting all of the instance's slices.
    pub node: NodeId,
    /// Lifecycle phase.
    pub phase: Phase,
    /// Request currently executing on each stage.
    pub stage_busy: Vec<Option<u64>>,
    /// FIFO queue in front of each stage.
    pub stage_queues: Vec<VecDeque<u64>>,
    /// Precomputed per-stage timings (see [`StageTimings`]).
    pub timings: StageTimings,
    /// Requests currently crossing a stage boundary (in a host-shared-
    /// memory transfer): they occupy the instance but sit in no queue.
    pub in_transfer: usize,
    /// Last time the instance finished or accepted work.
    pub last_used: SimTime,
    busy_since: Option<SimTime>,
    busy_accum: SimDuration,
}

impl Instance {
    /// Creates a launching instance.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: InstanceId,
        func: FuncId,
        plan: DeploymentPlan,
        est: InstanceEstimate,
        timings: StageTimings,
        node: NodeId,
        now: SimTime,
        ready_at: SimTime,
    ) -> Self {
        let n = plan.num_stages();
        debug_assert_eq!(timings.exec_ms.len(), n);
        Instance {
            id,
            func,
            plan,
            est,
            node,
            phase: Phase::Launching { ready_at },
            stage_busy: vec![None; n],
            stage_queues: vec![VecDeque::new(); n],
            timings,
            in_transfer: 0,
            last_used: now,
            busy_since: None,
            busy_accum: SimDuration::ZERO,
        }
    }

    /// True once the cold start completed.
    pub fn is_ready(&self) -> bool {
        self.phase == Phase::Ready
    }

    /// True if no request is queued, executing, or mid-transfer.
    pub fn is_empty(&self) -> bool {
        self.stage_busy.iter().all(Option::is_none)
            && self.stage_queues.iter().all(VecDeque::is_empty)
            && self.in_transfer == 0
    }

    /// Total requests inside the instance (queued + executing +
    /// mid-transfer).
    pub fn occupancy(&self) -> usize {
        self.stage_busy.iter().filter(|b| b.is_some()).count()
            + self.stage_queues.iter().map(VecDeque::len).sum::<usize>()
            + self.in_transfer
    }

    /// Admission capacity: how many requests may be in flight before new
    /// ones would likely miss the SLO (slack over the bottleneck stage).
    pub fn capacity(&self, slo_ms: f64) -> usize {
        ((slo_ms / self.est.bottleneck_ms).floor() as usize).max(1)
    }

    /// True if the instance accepts another request.
    pub fn has_capacity(&self, slo_ms: f64) -> bool {
        self.is_ready() && self.phase != Phase::Draining && self.occupancy() < self.capacity(slo_ms)
    }

    /// Marks the front (stage-0) busy signal for utilization accounting.
    pub fn mark_busy(&mut self, now: SimTime) {
        if self.busy_since.is_none() {
            self.busy_since = Some(now);
        }
    }

    /// Clears the busy signal.
    pub fn mark_idle(&mut self, now: SimTime) {
        if let Some(since) = self.busy_since.take() {
            self.busy_accum += now.saturating_since(since);
        }
    }

    /// Consumes the busy time accumulated since the last call and returns
    /// the utilization over `window` (0.0..=1.0). Drives the Figure 8
    /// promote / demote transitions.
    pub fn take_utilization(&mut self, now: SimTime, window: SimDuration) -> f64 {
        let mut busy = self.busy_accum;
        self.busy_accum = SimDuration::ZERO;
        if let Some(since) = self.busy_since {
            busy += now.saturating_since(since);
            self.busy_since = Some(now);
        }
        if window.is_zero() {
            return 0.0;
        }
        (busy / window).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffs_dag::PipelinePartition;
    use ffs_mig::{GpuId, SliceId, SliceProfile};
    use ffs_pipeline::plan::StagePlan;

    fn plan(stages: usize) -> DeploymentPlan {
        let parts: Vec<Vec<ffs_dag::NodeId>> = (0..stages)
            .map(|i| vec![ffs_dag::NodeId(i as u32)])
            .collect();
        DeploymentPlan {
            partition: PipelinePartition::new(parts.clone()),
            stages: parts
                .iter()
                .enumerate()
                .map(|(i, nodes)| StagePlan {
                    nodes: nodes.clone(),
                    slice: SliceId::new(GpuId(0), i as u8),
                    profile: SliceProfile::G1_10,
                    mem_gb: 5.0,
                })
                .collect(),
            cv: 0.0,
        }
    }

    fn estimate() -> InstanceEstimate {
        InstanceEstimate {
            latency_ms: 300.0,
            bottleneck_ms: 100.0,
            throughput_rps: 10.0,
        }
    }

    fn instance() -> Instance {
        Instance::new(
            InstanceId(1),
            0,
            plan(3),
            estimate(),
            StageTimings::zero(3),
            NodeId(0),
            SimTime::ZERO,
            SimTime::from_secs(2),
        )
    }

    #[test]
    fn lifecycle_and_capacity() {
        let mut inst = instance();
        assert!(!inst.is_ready());
        assert!(!inst.has_capacity(500.0), "not ready yet");
        inst.phase = Phase::Ready;
        assert!(inst.is_ready());
        assert_eq!(inst.capacity(500.0), 5);
        assert_eq!(inst.capacity(450.0), 4, "partial slot would miss the SLO");
        assert!(inst.has_capacity(500.0));
        assert!(inst.is_empty());
        inst.stage_queues[0].push_back(7);
        assert_eq!(inst.occupancy(), 1);
        assert!(!inst.is_empty());
        inst.stage_queues[0].clear();
        inst.in_transfer = 1;
        assert_eq!(inst.occupancy(), 1, "mid-transfer requests still occupy");
        assert!(!inst.is_empty());
    }

    #[test]
    fn draining_refuses_requests() {
        let mut inst = instance();
        inst.phase = Phase::Draining;
        assert!(!inst.has_capacity(10_000.0));
    }

    #[test]
    fn capacity_at_least_one() {
        let mut inst = instance();
        inst.phase = Phase::Ready;
        assert_eq!(inst.capacity(10.0), 1, "tight SLO still admits one");
    }

    #[test]
    fn utilization_window_accounting() {
        let mut inst = instance();
        inst.phase = Phase::Ready;
        let t0 = SimTime::ZERO;
        inst.mark_busy(t0);
        inst.mark_idle(t0 + SimDuration::from_secs(1));
        // busy 1s of a 2s window = 0.5
        let u = inst.take_utilization(t0 + SimDuration::from_secs(2), SimDuration::from_secs(2));
        assert!((u - 0.5).abs() < 1e-9);
        // Window consumed: next window with no activity is 0.
        let u = inst.take_utilization(t0 + SimDuration::from_secs(4), SimDuration::from_secs(2));
        assert_eq!(u, 0.0);
    }

    #[test]
    fn utilization_spans_open_interval() {
        let mut inst = instance();
        inst.mark_busy(SimTime::ZERO);
        let u = inst.take_utilization(SimTime::from_secs(2), SimDuration::from_secs(2));
        assert!((u - 1.0).abs() < 1e-9);
        // Still busy: the next window counts it again from the tick.
        let u = inst.take_utilization(SimTime::from_secs(4), SimDuration::from_secs(2));
        assert!((u - 1.0).abs() < 1e-9);
    }
}
