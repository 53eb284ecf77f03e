//! # ffs-trace — Azure-Functions-style invocation traces and workloads
//!
//! The paper drives its evaluation with invocation frequencies and
//! intervals from the Azure Functions production traces (Shahrad et al.,
//! ATC'20). Those traces are not redistributable here, so this crate
//! generates synthetic invocation streams that reproduce the published
//! first-order characteristics the evaluation depends on: heavy-tailed
//! per-function rates, strong burstiness (inter-arrival CV > 1, from an
//! on/off Markov-modulated Poisson process), and slow diurnal modulation.
//!
//! [`workload::WorkloadClass`] maps the paper's three workloads onto the
//! app variants (§6: "light, medium, and heavy, where each application is
//! in small, medium, and large size respectively") and their request
//! rates.
//!
//! ```
//! use ffs_trace::{AzureTraceConfig, WorkloadClass};
//!
//! let cfg = AzureTraceConfig::for_workload(WorkloadClass::Medium, 60.0, 42);
//! let trace = cfg.generate();
//! assert!(!trace.invocations.is_empty());
//! // Deterministic: same seed, same trace.
//! assert_eq!(trace.invocations.len(), cfg.generate().invocations.len());
//! ```

#![warn(clippy::unwrap_used)]

pub mod azure;
pub mod fairness;
pub mod scale;
pub mod stats;
pub mod workload;

pub use azure::{AzureTraceConfig, Trace};
pub use fairness::FairnessScenario;
pub use scale::{partition_trace, CellTrace, ScaleTraceConfig};
pub use stats::{all_stats, app_stats, AppTraceStats};
pub use workload::{Invocation, WorkloadClass};
