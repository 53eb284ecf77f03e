//! # ffs-baselines — the ESG and INFless+MIG baseline platforms
//!
//! The paper compares FluidFaaS against two monolithic-view baselines on
//! the same MIG fleet:
//!
//! * **ESG** (Hui et al., HPDC'24): the state-of-the-art MIG-based
//!   serverless scheduler. Monolithic function-to-slice assignment choosing
//!   the most resource-efficient slice that meets the SLO, deadline-aware
//!   request routing, exclusive keep-alive.
//! * **INFless+MIG** (Yang et al., ASPLOS'22, given MIG support per §6):
//!   monolithic assignment without ESG's resource-efficiency ranking —
//!   it grabs the largest free slice — and FIFO routing.
//!
//! Both are a [`mono::baseline_policies`] bundle (router, placer,
//! autoscaler), parameterised by [`mono::BaselineKind`], handed to the
//! shared `fluidfaas` engine (`Engine::new(cfg, baseline_policies(kind),
//! trace)`) — the baselines keep no event loop of their own. Neither can
//! split a function, so
//! neither can use fragmented slices smaller than the function's
//! monolithic footprint — the root cause of the under-utilization the
//! paper analyses (§4).

#![warn(clippy::unwrap_used)]

pub mod esg_search;
pub mod mono;

pub use esg_search::{placement_preference, search, ConfigPlan, SearchResult};
pub use mono::{baseline_policies, BaselineKind};
