//! Azure-scale multi-tenant trace synthesis, streamed per shard cell.
//!
//! The paper's testbed traces (a few apps, tens of req/s) fit comfortably
//! in one allocation. The scale experiments simulate 10⁴–10⁶ *tenant
//! functions* with heavy-tailed per-tenant rates (Shahrad et al. observe
//! that a small fraction of functions produces most invocations), against
//! fleets of thousands of GPUs split into shard cells. Materializing such
//! a trace as one `Vec` before slicing it per cell would dominate peak
//! memory, so this module generates *per cell*: [`ScaleTraceConfig::cell_trace`]
//! synthesizes only the functions homed on one cell, and the per-function
//! arrival streams are derived by [`ffs_sim::SimRng::split`] (a pure
//! function of the root seed and the function index) so the union of all
//! cells' invocations is independent of how many cells the fleet is split
//! into.
//!
//! Costs: [`ScaleTraceConfig::new`] pays O(functions) once, to sum the
//! rate distribution's normaliser; after that [`ScaleTraceConfig::rate_of`]
//! is O(1) and a cell costs only its own functions and invocations.
//!
//! Each tenant function is mapped onto one of the profiled [`App`]s
//! round-robin — the engine's catalog models the *execution* side, while
//! the tenant dimension shapes the *arrival* side (rates, burstiness,
//! cell placement).

use ffs_profile::App;
use ffs_sim::{SimDuration, SimRng, SimTime};

use crate::azure::Trace;
use crate::workload::{Invocation, WorkloadClass};

/// A shard cell's slice of a trace: locally dense invocation ids plus the
/// mapping back to trace-global ids, so per-cell runs can be merged into
/// one fleet-wide report.
#[derive(Clone, Debug)]
pub struct CellTrace {
    /// The cell-local trace (ids dense from 0, sorted by arrival).
    pub trace: Trace,
    /// `global_ids[local_id]` = the invocation's trace-global id.
    pub global_ids: Vec<u64>,
}

/// Splits an existing (testbed-scale) trace into per-cell traces, homing
/// each invocation on `app.index() % cells`. Global ids are the original
/// trace ids; every cell inherits the full trace duration so all cells
/// share one time horizon.
pub fn partition_trace(trace: &Trace, cells: usize) -> Vec<CellTrace> {
    assert!(cells >= 1, "need at least one cell");
    let mut out: Vec<CellTrace> = (0..cells)
        .map(|_| CellTrace {
            trace: Trace {
                invocations: Vec::new(),
                duration: trace.duration,
            },
            global_ids: Vec::new(),
        })
        .collect();
    for inv in &trace.invocations {
        let cell = &mut out[inv.app.index() % cells];
        cell.trace.invocations.push(Invocation {
            id: cell.global_ids.len() as u64,
            app: inv.app,
            arrival: inv.arrival,
            tenant: inv.tenant,
        });
        cell.global_ids.push(inv.id);
    }
    out
}

/// Configuration of the multi-tenant scale synthesizer.
#[derive(Clone, Debug)]
pub struct ScaleTraceConfig {
    /// Number of tenant functions (10⁴–10⁶ for the scale experiments).
    functions: usize,
    /// Apps the tenant functions execute as (round-robin by function).
    pub apps: Vec<App>,
    /// Trace length in seconds.
    pub duration_secs: f64,
    /// Aggregate arrival rate across all functions (req/s).
    pub total_rps: f64,
    /// Zipf-like tail exponent of the per-function rate distribution:
    /// function `f` gets weight `(1 + f)^-alpha`. Around 1.1 reproduces
    /// the "few hot tenants dominate" shape of production traces.
    alpha: f64,
    /// RNG seed.
    pub seed: u64,
    /// Σ_f (1 + f)^-alpha over all functions, summed once by [`Self::new`].
    total_weight: f64,
}

impl ScaleTraceConfig {
    /// The scale-experiment default: medium-workload apps and a mildly
    /// heavy tail.
    pub fn new(functions: usize, duration_secs: f64, total_rps: f64, seed: u64) -> Self {
        let alpha = 1.1;
        ScaleTraceConfig {
            functions,
            apps: WorkloadClass::Medium.apps(),
            duration_secs,
            total_rps,
            alpha,
            seed,
            total_weight: (0..functions).map(|f| weight(f, alpha)).sum(),
        }
    }

    /// Number of tenant functions.
    pub fn functions(&self) -> usize {
        self.functions
    }

    /// Tail exponent of the per-function rate distribution.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The trace-global id of occurrence `k` of function `f`: the function
    /// index in the high 32 bits, the occurrence in the low 32. Stable
    /// across any cell split, unlike a dense post-sort numbering, which
    /// is why merged reports can use it directly.
    #[inline]
    pub fn global_id(f: usize, k: u32) -> u64 {
        ((f as u64) << 32) | k as u64
    }

    /// Mean arrival rate (req/s) of function `f`.
    pub fn rate_of(&self, f: usize) -> f64 {
        self.total_rps * weight(f, self.alpha) / self.total_weight
    }

    /// Synthesizes cell `cell` of a `cells`-way split: Poisson arrivals for
    /// exactly the functions homed there, function `f` living in cell
    /// `f % cells`, sorted by `(arrival, global id)` with dense local ids.
    /// Time and peak memory are those of the cell's own functions and
    /// invocations, not the whole trace's.
    pub fn cell_trace(&self, cell: usize, cells: usize) -> CellTrace {
        assert!(cells >= 1, "need at least one cell");
        assert!(cell < cells, "cell {cell} out of range for {cells} cells");
        assert!(!self.apps.is_empty(), "need at least one app");
        assert!(self.duration_secs > 0.0);
        assert!(self.total_rps >= 0.0);
        let root = SimRng::seed_from_u64(self.seed);
        // (arrival, global id, app); the global id doubles as the
        // deterministic tie-break because it encodes (function, occurrence).
        let mut raw: Vec<(SimTime, u64, App)> = Vec::new();
        for f in (cell..self.functions).step_by(cells) {
            let rate = self.rate_of(f);
            if rate <= 0.0 {
                continue;
            }
            // The stream depends only on (seed, f): cell membership moves
            // whole functions between cells without changing their arrivals.
            let mut rng = root.split(f as u64 + 1);
            let app = self.apps[f % self.apps.len()];
            let mut t = 0.0;
            let mut k: u32 = 0;
            loop {
                t += rng.exp(1.0 / rate);
                if t >= self.duration_secs {
                    break;
                }
                raw.push((SimTime::from_secs_f64(t), Self::global_id(f, k), app));
                k = match k.checked_add(1) {
                    Some(v) => v,
                    None => break, // 2^32 occurrences of one function: stop
                };
            }
        }
        raw.sort_unstable_by_key(|&(arrival, global, _)| (arrival, global));
        let mut invocations = Vec::with_capacity(raw.len());
        let mut global_ids = Vec::with_capacity(raw.len());
        for (local, &(arrival, global, app)) in raw.iter().enumerate() {
            invocations.push(Invocation {
                id: local as u64,
                app,
                arrival,
                tenant: app.index() as u32,
            });
            global_ids.push(global);
        }
        CellTrace {
            trace: Trace {
                invocations,
                duration: SimDuration::from_secs_f64(self.duration_secs),
            },
            global_ids,
        }
    }
}

/// Unnormalized rate weight of function `f`: `(1 + f)^-alpha`.
#[inline]
fn weight(f: usize, alpha: f64) -> f64 {
    (1.0 + f as f64).powf(-alpha)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn cfg(functions: usize, seed: u64) -> ScaleTraceConfig {
        ScaleTraceConfig::new(functions, 60.0, 50.0, seed)
    }

    #[test]
    fn deterministic_per_seed() {
        let a = cfg(128, 7).cell_trace(0, 2);
        let b = cfg(128, 7).cell_trace(0, 2);
        assert_eq!(a.trace.invocations, b.trace.invocations);
        assert_eq!(a.global_ids, b.global_ids);
        let c = cfg(128, 8).cell_trace(0, 2);
        assert_ne!(a.trace.invocations, c.trace.invocations);
    }

    #[test]
    fn union_of_cells_is_independent_of_cell_count() {
        let c = cfg(64, 3);
        let mut single: Vec<(u64, SimTime)> = c
            .cell_trace(0, 1)
            .trace
            .invocations
            .iter()
            .zip(&c.cell_trace(0, 1).global_ids)
            .map(|(inv, &g)| (g, inv.arrival))
            .collect();
        for cells in [2usize, 4, 8] {
            let mut union: Vec<(u64, SimTime)> = Vec::new();
            for cell in 0..cells {
                let ct = c.cell_trace(cell, cells);
                union.extend(
                    ct.trace
                        .invocations
                        .iter()
                        .zip(&ct.global_ids)
                        .map(|(inv, &g)| (g, inv.arrival)),
                );
            }
            union.sort_unstable();
            single.sort_unstable();
            assert_eq!(single, union, "cells={cells}");
        }
    }

    #[test]
    fn cell_traces_are_sorted_with_dense_local_ids() {
        let ct = cfg(100, 5).cell_trace(1, 4);
        assert!(!ct.trace.invocations.is_empty());
        for w in ct.trace.invocations.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        for (i, inv) in ct.trace.invocations.iter().enumerate() {
            assert_eq!(inv.id, i as u64);
        }
        assert_eq!(ct.global_ids.len(), ct.trace.invocations.len());
    }

    #[test]
    fn rates_are_heavy_tailed_and_sum_to_total() {
        let c = cfg(1000, 1);
        assert!(c.rate_of(0) > 10.0 * c.rate_of(500));
        let sum: f64 = (0..c.functions).map(|f| c.rate_of(f)).sum();
        assert!((sum - c.total_rps).abs() < 1e-6, "sum {sum}");
    }

    #[test]
    fn aggregate_rate_roughly_matches_target() {
        let c = ScaleTraceConfig::new(256, 120.0, 40.0, 11);
        let total: usize = (0..4).map(|cell| c.cell_trace(cell, 4).trace.len()).sum();
        let rate = total as f64 / c.duration_secs;
        assert!((rate - 40.0).abs() / 40.0 < 0.15, "rate {rate}");
    }

    #[test]
    fn global_ids_encode_function_and_occurrence() {
        let ct = cfg(32, 2).cell_trace(1, 8);
        for &g in &ct.global_ids {
            let f = (g >> 32) as usize;
            assert_eq!(f % 8, 1, "function {f} homed on the wrong cell");
        }
    }

    #[test]
    fn partition_preserves_every_invocation() {
        let trace =
            crate::azure::AzureTraceConfig::for_workload(WorkloadClass::Medium, 60.0, 9).generate();
        let parts = partition_trace(&trace, 3);
        let total: usize = parts.iter().map(|p| p.trace.len()).sum();
        assert_eq!(total, trace.len());
        for p in &parts {
            assert_eq!(p.trace.duration, trace.duration);
            for (inv, &g) in p.trace.invocations.iter().zip(&p.global_ids) {
                let orig = &trace.invocations[g as usize];
                assert_eq!(orig.arrival, inv.arrival);
                assert_eq!(orig.app, inv.app);
            }
        }
    }
}
