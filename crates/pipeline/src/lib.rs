//! # ffs-pipeline — on-the-fly pipeline construction and execution
//!
//! Given a function's offline profile (ranked partitions, per-slice timing)
//! and the MIG slices currently free on an invoker, this crate builds the
//! pipeline the paper's runtime deploys (§5.2.2):
//!
//! * [`plan`] — walks the CV-ranked partition list and returns the first
//!   partition the free slices can host, together with the concrete
//!   stage-to-slice assignment. The monolithic single-stage "partition"
//!   ranks first, so non-pipelined deployments are preferred whenever a
//!   large-enough slice is available (matching the paper's pipeline
//!   migration policy).
//! * [`estimate()`] — latency / bottleneck / throughput algebra for a planned
//!   instance, used by the load balancer's heterogeneity-aware routing.
//! * [`executor`] — a real multi-threaded pipeline runtime mirroring the
//!   paper's Listing 1: one worker per stage, handoff through in-memory
//!   channels standing in for host shared memory, eviction flags, and
//!   graceful termination.
//! * [`replay`] — [`replay::stage_specs`], the one mapping from a planned
//!   deployment to the executor's stage list.
//!
//! ```
//! use ffs_mig::{Fleet, PartitionScheme};
//! use ffs_pipeline::plan::plan_deployment;
//! use ffs_profile::{App, FunctionProfile, PerfModel, Variant};
//!
//! let fleet = Fleet::new(1, 1, &PartitionScheme::p1()).unwrap();
//! let profile = FunctionProfile::build(App::ImageClassification, Variant::Medium,
//!                                      &PerfModel::default());
//! let free = fleet.free_slices(None);
//! let plan = plan_deployment(&profile, &free).expect("a 2g.20gb slice is free");
//! assert!(plan.is_monolithic(), "monolithic preferred while big slices are free");
//! ```

pub mod estimate;
pub mod executor;
pub mod plan;
pub mod replay;

pub use estimate::{estimate, InstanceEstimate};
pub use executor::{
    ExecutorError, ExecutorStats, KernelMode, PipelineExecutor, RequestTiming, StageSpec,
};
pub use plan::{
    explain_plan, plan_deployment, plan_deployment_unranked, DeploymentPlan, PlanExplanation,
    StagePlan,
};
