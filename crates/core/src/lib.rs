//! # fluidfaas — pipelined serverless scheduling with strong-isolation GPU sharing
//!
//! The paper's contribution, as an event-driven platform over the
//! workspace's substrates:
//!
//! * **On-the-fly pipeline construction** (§5.2): when scaling up, the
//!   invoker plans the best CV-ranked partition that fits the currently
//!   free (possibly fragmented) MIG slices and launches a pipelined
//!   instance across them ([`ffs_pipeline::plan_deployment`]).
//! * **Hotness-aware eviction-based time sharing** (§5.3): the multi-level
//!   keep-alive state machine of Figure 8 ([`keepalive`]), a shared-slice
//!   pool where at most one time-sharing instance per function resides,
//!   LRU eviction to CPU memory ([`shared`]), and a 10-minute idle
//!   termination to cold.
//! * **Heterogeneity-aware request routing** (§5.3): requests ordered by
//!   deadline minus estimated execution and load times, routed to
//!   exclusive-hot instances lowest-latency-first, overflowing to the
//!   time-sharing instance ([`system`]).
//! * **Pipeline migration** (§5.3): pipelined instances drain and retire
//!   when a large slice frees up and a monolithic replacement launches.
//!
//! The [`platform`] module holds the pieces shared with the ESG / INFless
//! baselines (`ffs-baselines`): request bookkeeping, the function catalog,
//! the metrics hub, the trace runner, and the policy-driven event-loop
//! engine ([`platform::engine`]) that every platform — FluidFaaS, the
//! baselines, MQFQ-Sticky and the ablation arms — runs on. A platform is
//! a [`platform::policy::PolicyBundle`] (router, shared-pool policy,
//! autoscaler, migrator, placer) handed to [`Engine::new`]; see
//! `docs/ARCHITECTURE.md` for the layering and how to add a policy.
//!
//! ```
//! use fluidfaas::{paper_policies, Engine, FfsConfig, platform::run_platform};
//! use ffs_trace::{AzureTraceConfig, WorkloadClass};
//!
//! let cfg = FfsConfig::paper_default(WorkloadClass::Light);
//! let trace = AzureTraceConfig::for_workload(WorkloadClass::Light, 30.0, 1).generate();
//! let policies = paper_policies(&cfg);
//! let mut engine = Engine::new(cfg, policies, &trace).expect("valid setup");
//! let out = run_platform(&mut engine, &trace);
//! assert!(out.log.slo_hit_rate() > 0.5);
//! ```

#![warn(clippy::unwrap_used)]

pub mod chaos;
pub mod config;
pub mod instance;
pub mod keepalive;
pub mod plancache;
pub mod platform;
pub mod shared;
pub mod system;

pub use chaos::{ChaosState, FaultSpec, FaultTarget};
pub use config::{FfsConfig, ScalingPolicy};
pub use keepalive::{KeepAliveState, Transition};
pub use platform::engine::{Engine, EngineCore, EngineError};
pub use platform::mqfq::{mqfq_policies, mqfq_policies_with, MqfqParams, MqfqState};
pub use platform::policy::PolicyBundle;
pub use platform::sharded::{
    run_output_digest, run_sharded, run_sharded_fluid, ShardRunStats, ShardSpec,
};
pub use system::{
    paper_policies, FluidAutoscaler, FluidMigrator, FluidPlacer, FluidRouter, FluidSharedPool,
    SchedulerLog,
};
