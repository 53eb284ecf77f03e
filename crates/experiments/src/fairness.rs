//! Fairness experiment: per-tenant outcomes across the paper's three
//! systems and three multi-tenant scenarios.
//!
//! The paper's figures compare fleet-wide aggregates; this sweep slices
//! the same runs per tenant. Each [`FairnessScenario`] trace replays
//! against INFless, ESG and FluidFaaS, and every cell reports Jain's
//! index over tenant throughput and goodput, the cell's total goodput,
//! the worst per-tenant SLO attainment, and the aggressor/victim p99
//! split — the numbers a fleet-wide CDF hides.

use ffs_metrics::{TenantReport, TextTable};
use ffs_trace::{FairnessScenario, WorkloadClass};
use fluidfaas::FfsConfig;

use crate::parallel::run_matrix;
use crate::runner::{run_system, SystemKind};

/// The workload class whose apps the fairness scenarios perturb.
pub const WORKLOAD: WorkloadClass = WorkloadClass::Medium;

/// One (system, scenario) cell: the per-tenant report of a full run.
#[derive(Clone, Debug)]
pub struct FairnessCell {
    /// The scheduler.
    pub system: SystemKind,
    /// The scenario whose trace the run replayed.
    pub scenario: FairnessScenario,
    /// Per-tenant slices of the run's request log.
    pub report: TenantReport,
}

impl FairnessCell {
    /// The highest p99 among the scenario's victims (every tenant except
    /// the aggressor; all tenants when the scenario has no aggressor).
    pub fn victim_worst_p99_ms(&self) -> Option<f64> {
        let aggressor = self.scenario.aggressor(WORKLOAD);
        self.report
            .tenants
            .iter()
            .filter(|t| Some(t.tenant) != aggressor)
            .filter_map(|t| t.p99_ms)
            .fold(None, |acc, p| Some(acc.map_or(p, |a: f64| a.max(p))))
    }

    /// Goodput summed over tenants (SLO-compliant completions/s). Zero
    /// means no tenant got anything, the case where `jain_goodput` reads
    /// 1.0 for an all-zero allocation.
    pub fn total_goodput_rps(&self) -> f64 {
        self.report.tenants.iter().map(|t| t.goodput_rps).sum()
    }

    /// The aggressor tenant's p99, when the scenario has one.
    pub fn aggressor_p99_ms(&self) -> Option<f64> {
        let aggressor = self.scenario.aggressor(WORKLOAD)?;
        self.report.tenant(aggressor).and_then(|t| t.p99_ms)
    }
}

/// Runs the full cross-product (3 systems × 3 scenarios) over the
/// [`run_matrix`] worker pool. Cells come back system-major in
/// [`SystemKind::ALL`] × [`FairnessScenario::ALL`] order.
pub fn run(duration_secs: f64, seed: u64) -> Vec<FairnessCell> {
    let traces: Vec<_> = FairnessScenario::ALL
        .iter()
        .map(|sc| {
            let _synth = ffs_telemetry::span(ffs_telemetry::Phase::TraceSynth);
            sc.generate(WORKLOAD, duration_secs, seed)
        })
        .collect();
    let specs: Vec<(SystemKind, usize)> = SystemKind::ALL
        .iter()
        .flat_map(|&system| (0..FairnessScenario::ALL.len()).map(move |i| (system, i)))
        .collect();
    run_matrix(&specs, |&(system, scenario_idx)| {
        let scenario = FairnessScenario::ALL[scenario_idx];
        let trace = &traces[scenario_idx];
        let out = run_system(system, FfsConfig::paper_default(WORKLOAD), trace);
        FairnessCell {
            system,
            scenario,
            report: TenantReport::from_log(&out.log, out.duration),
        }
    })
}

/// The cell for one (system, scenario) pair, if present.
pub fn cell(
    cells: &[FairnessCell],
    system: SystemKind,
    scenario: FairnessScenario,
) -> Option<&FairnessCell> {
    cells
        .iter()
        .find(|c| c.system == system && c.scenario == scenario)
}

/// Renders the sweep as an aligned text table, scenario-major.
pub fn render(cells: &[FairnessCell]) -> String {
    let fmt_opt = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |p| format!("{p:.1}"));
    let mut t = TextTable::new(&[
        "scenario",
        "system",
        "jain (tput)",
        "jain (goodput)",
        "goodput rps",
        "worst SLO",
        "victim p99 (ms)",
        "aggressor p99 (ms)",
    ]);
    for scenario in FairnessScenario::ALL {
        for system in SystemKind::ALL {
            let Some(c) = cell(cells, system, scenario) else {
                continue;
            };
            t.row(&[
                scenario.name().to_string(),
                system.name().to_string(),
                format!("{:.4}", c.report.jain_throughput),
                format!("{:.4}", c.report.jain_goodput),
                format!("{:.3}", c.total_goodput_rps()),
                format!("{:.4}", c.report.worst_slo_attainment()),
                fmt_opt(c.victim_worst_p99_ms()),
                fmt_opt(c.aggressor_p99_ms()),
            ]);
        }
    }
    t.render()
}

/// Renders the per-tenant detail (one row per tenant per cell) —
/// the drill-down behind [`render`]'s aggregates.
pub fn render_detail(cells: &[FairnessCell]) -> String {
    let fmt_opt = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |p| format!("{p:.1}"));
    let mut t = TextTable::new(&[
        "scenario",
        "system",
        "tenant",
        "requests",
        "rps",
        "goodput rps",
        "SLO",
        "p50 (ms)",
        "p99 (ms)",
    ]);
    for scenario in FairnessScenario::ALL {
        for system in SystemKind::ALL {
            let Some(c) = cell(cells, system, scenario) else {
                continue;
            };
            for s in &c.report.tenants {
                t.row(&[
                    scenario.name().to_string(),
                    system.name().to_string(),
                    s.tenant.to_string(),
                    s.requests.to_string(),
                    format!("{:.3}", s.throughput_rps),
                    format!("{:.3}", s.goodput_rps),
                    format!("{:.4}", s.slo_attainment),
                    fmt_opt(s.p50_ms),
                    fmt_opt(s.p99_ms),
                ]);
            }
        }
    }
    t.render()
}

/// One row of the compact summary `BENCH_fairness.json` records.
#[derive(Clone, Debug)]
pub struct FairnessSummaryRow {
    /// Scenario key (snake_case).
    pub scenario: &'static str,
    /// System display name.
    pub system: &'static str,
    /// Jain's index over tenant completion throughput.
    pub jain_throughput: f64,
    /// Jain's index over tenant goodput (SLO-compliant completions/s).
    pub jain_goodput: f64,
    /// Goodput summed over tenants (req/s).
    pub total_goodput_rps: f64,
    /// Minimum per-tenant SLO attainment.
    pub worst_slo_attainment: f64,
    /// `(tenant, p99_ms)` pairs, ascending by tenant; `None` when the
    /// tenant completed nothing.
    pub tenant_p99_ms: Vec<(u32, Option<f64>)>,
}

/// Collapses the sweep into the rows of `BENCH_fairness.json`'s
/// fairness section, one per (system, scenario) cell.
pub fn summarize(cells: &[FairnessCell]) -> Vec<FairnessSummaryRow> {
    cells
        .iter()
        .map(|c| FairnessSummaryRow {
            scenario: c.scenario.name(),
            system: c.system.name(),
            jain_throughput: c.report.jain_throughput,
            jain_goodput: c.report.jain_goodput,
            total_goodput_rps: c.total_goodput_rps(),
            worst_slo_attainment: c.report.worst_slo_attainment(),
            tenant_p99_ms: c
                .report
                .tenants
                .iter()
                .map(|t| (t.tenant, t.p99_ms))
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_cell_with_every_tenant() {
        let cells = run(20.0, 3);
        assert_eq!(
            cells.len(),
            SystemKind::ALL.len() * FairnessScenario::ALL.len()
        );
        let tenants = WORKLOAD.apps().len();
        for c in &cells {
            assert_eq!(
                c.report.tenants.len(),
                tenants,
                "{} on {}",
                c.system.name(),
                c.scenario.name()
            );
            let j = c.report.jain_throughput;
            assert!(j > 0.0 && j <= 1.0 + 1e-12, "jain {j} out of range");
        }
        let rows = summarize(&cells);
        assert_eq!(rows.len(), cells.len());
        for r in &rows {
            assert!(r.total_goodput_rps > 0.0, "{} on {}", r.system, r.scenario);
        }
        for system in SystemKind::ALL {
            for scenario in FairnessScenario::ALL {
                assert!(
                    cell(&cells, system, scenario).is_some(),
                    "{} on {}: missing cell",
                    system.name(),
                    scenario.name()
                );
            }
        }
        assert!(!render(&cells).is_empty());
    }
}
