//! Machinery shared between FluidFaaS and the baseline platforms:
//! the function catalog, request bookkeeping, the metrics hub, the trace
//! runner, and the policy-driven event-loop engine every platform runs on.

pub mod arena;
pub mod catalog;
pub mod engine;
pub mod events;
pub mod hub;
pub mod policy;
pub mod request;
pub mod runner;
pub mod sharded;
pub mod slab;

pub use catalog::{FuncId, FunctionCatalog};
pub use engine::{Engine, EngineCore, EngineError, SchedulerLog, MAX_LAUNCHES_PER_TICK};
pub use events::{Event, InstanceId};
pub use hub::MetricsHub;
pub use policy::{
    Autoscaler, Migrator, NoMigrator, NoSharedPool, Placer, PolicyBundle, Router, SharedPoolPolicy,
};
pub use request::{RequestState, ServePath};
pub use runner::{run_platform, FaultStats, Platform, RunOutput};
pub use sharded::{run_output_digest, run_sharded, run_sharded_fluid, ShardRunStats, ShardSpec};
