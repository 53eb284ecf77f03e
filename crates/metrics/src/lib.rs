//! # ffs-metrics — SLO, latency, utilization and cost metrics
//!
//! Everything the paper's evaluation section measures, as reusable
//! recorders:
//!
//! * [`record`] — per-request lifecycle records (48 bytes each) with the
//!   latency breakdown of Figure 14 (queueing / loading / execution / data
//!   transfer) kept in a column for completed requests only, SLO hit
//!   accounting (Figure 9) and completion throughput (Figure 10).
//! * [`cdf`] — latency CDFs and percentiles (Figures 11–13, P95 tail
//!   latency claims). Run logs build theirs with
//!   [`LatencyCdf::from_micros`] over the integer-µs latencies
//!   ([`RequestLog::latencies_us`]); [`LatencyCdf::new`] takes arbitrary
//!   `f64` samples. A percentile is one order statistic, found by
//!   selection on the unsorted samples; only the plotted curve and
//!   `fraction_below` sort them. Every answer is bit-identical to reading
//!   the nearest rank off the sorted ms values.
//! * [`timeline`] — binned time series of utilization (Figures 3 and 16)
//!   and the occupied-vs-active accounting of Figure 5.
//! * [`cost`] — "GPU time" and "MIG time" accounting per §6 (Table 6): a
//!   GPU accrues GPU time whenever any of its slices is allocated; a slice
//!   accrues MIG time while allocated, and *active* time while actually
//!   processing.
//! * [`tenant`] — per-tenant latency/SLO slices and Jain's fairness index
//!   over tenant throughput (the fairness experiments).
//! * [`report`] — plain-text tables and JSON rows for the experiment
//!   binaries.

#![warn(clippy::unwrap_used)]

pub mod cdf;
pub mod cost;
pub mod histogram;
pub mod record;
pub mod report;
pub mod tenant;
pub mod timeline;

pub use cdf::LatencyCdf;
pub use cost::{CostReport, CostTracker};
pub use histogram::LogHistogram;
pub use record::{Breakdown, RequestLog, RequestRecord};
pub use report::TextTable;
pub use tenant::{jain_index, TenantReport, TenantStats};
pub use timeline::BinnedSeries;
