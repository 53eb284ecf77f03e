//! The event alphabet shared by all simulated platforms.

use crate::chaos::FaultTarget;

/// Identifier of a launched instance (monotone counter).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId(pub u64);

/// Events driving a serverless platform simulation. Systems ignore the
/// variants they do not use (e.g. the baselines never see shared-slice
/// events).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Event {
    /// Request `id` (index into the run's request table) arrives at the
    /// controller.
    Arrival(u64),
    /// A launching instance finished its cold start and is ready.
    InstanceReady(InstanceId),
    /// Stage `stage` of an instance finished executing request `req`.
    StageDone {
        /// The instance.
        inst: InstanceId,
        /// The stage index.
        stage: usize,
        /// The request.
        req: u64,
    },
    /// Request `req` finished crossing the boundary into `stage` of an
    /// instance (host-shared-memory transfer done).
    TransferDone {
        /// The instance.
        inst: InstanceId,
        /// The destination stage.
        stage: usize,
        /// The request.
        req: u64,
    },
    /// A shared (time-sharing) slice finished evicting/reloading and can
    /// start executing request `req`.
    SharedLoadDone {
        /// Index into the shared-slice pool.
        slot: usize,
        /// The request.
        req: u64,
    },
    /// A shared slice finished executing request `req`.
    SharedDone {
        /// Index into the shared-slice pool.
        slot: usize,
        /// The request.
        req: u64,
    },
    /// Periodic autoscale / migration / state-transition check.
    ScaleTick,
    /// Keep-alive expiry check for function `f`'s time-sharing lineage.
    KeepAlive(usize),
    /// A fault fires against the target (chaos timeline).
    Fault(FaultTarget),
    /// Repair begins for a previously-failed target (reconfiguration
    /// starts; the target is still out of service).
    Repair(FaultTarget),
    /// A repaired target's slices re-enter placement.
    Recover(FaultTarget),
    /// Request `req` re-enters the controller after a fault-driven backoff.
    Retry(u64),
}

impl Event {
    /// Stable snake_case tag for trace/diagnostic output.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Arrival(_) => "arrival",
            Event::InstanceReady(_) => "instance_ready",
            Event::StageDone { .. } => "stage_done",
            Event::TransferDone { .. } => "transfer_done",
            Event::SharedLoadDone { .. } => "shared_load_done",
            Event::SharedDone { .. } => "shared_done",
            Event::ScaleTick => "scale_tick",
            Event::KeepAlive(_) => "keep_alive",
            Event::Fault(_) => "fault",
            Event::Repair(_) => "repair",
            Event::Recover(_) => "recover",
            Event::Retry(_) => "retry",
        }
    }
}
