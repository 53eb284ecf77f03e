//! Auto-generated paper-vs-measured report.
//!
//! Runs the headline experiments and renders a markdown table comparing
//! each paper claim with the measured value and the check actually
//! applied to it — the machine-checkable core of `EXPERIMENTS.md`. Where
//! the check is a looser shape criterion than the paper's number, its
//! text says so.

use std::fmt::Write as _;

use ffs_trace::WorkloadClass;

use crate::runner::SystemKind;
use crate::{fig10, fig15, fig16, fig3, fig5, fig9, latency};

/// One claim check.
#[derive(Clone, Debug)]
pub struct Claim {
    /// Which artifact the claim comes from.
    pub artifact: &'static str,
    /// The paper's statement.
    pub paper: String,
    /// What we measured.
    pub measured: String,
    /// The threshold `holds` tests, stated as applied.
    pub check: String,
    /// Does the measured value pass `check`?
    pub holds: bool,
}

/// Runs the headline experiments and checks every claim.
pub fn run(duration_secs: f64, seed: u64) -> Vec<Claim> {
    let mut claims = Vec::new();

    // Figure 3.
    let f3 = fig3::run(duration_secs, seed);
    let min_over = 1.3;
    claims.push(Claim {
        artifact: "Fig 3",
        paper: "ESG demands far more than required (167% above, typical instant)".into(),
        measured: format!(
            "mean {:.0}% above required",
            (f3.mean_overallocation - 1.0) * 100.0
        ),
        check: format!(
            "mean > {:.0}% above required (shape check; paper says 167%)",
            (min_over - 1.0) * 100.0
        ),
        holds: f3.mean_overallocation > min_over,
    });

    // Figure 5.
    let f5 = fig5::run(duration_secs, seed);
    claims.push(Claim {
        artifact: "Fig 5",
        paper: "MIGs occupied far more than used (16.1% mean active)".into(),
        measured: format!(
            "occupied {:.1}% vs active {:.1}%",
            f5.mean_occupied_pct(),
            f5.mean_active_pct()
        ),
        check: "occupied > 2 × active (shape check)".into(),
        holds: f5.mean_occupied_pct() > 2.0 * f5.mean_active_pct(),
    });

    // Figure 9.
    let f9 = fig9::run(duration_secs, seed);
    let light_gap = (fig9::aggregate(&f9, WorkloadClass::Light, SystemKind::FluidFaaS)
        - fig9::aggregate(&f9, WorkloadClass::Light, SystemKind::Esg))
    .abs();
    claims.push(Claim {
        artifact: "Fig 9",
        paper: "light workloads: similar SLO hit rates".into(),
        measured: format!("Fluid and ESG {light_gap:.3} apart"),
        check: "gap < 0.1".into(),
        holds: light_gap < 0.1,
    });
    let min_slo_ratio = 1.1;
    for (wl, claim, paper_gain) in [
        (
            WorkloadClass::Medium,
            "medium: FluidFaaS up to 90% higher SLO hit rate",
            "up to +90%",
        ),
        (
            WorkloadClass::Heavy,
            "heavy: FluidFaaS 61% higher SLO hit rate",
            "+61%",
        ),
    ] {
        let fluid = fig9::aggregate(&f9, wl, SystemKind::FluidFaaS);
        let esg = fig9::aggregate(&f9, wl, SystemKind::Esg);
        claims.push(Claim {
            artifact: "Fig 9",
            paper: claim.into(),
            measured: format!(
                "Fluid {fluid:.3} vs ESG {esg:.3} ({:+.0}%)",
                (fluid / esg - 1.0) * 100.0
            ),
            check: format!("Fluid > ESG × {min_slo_ratio} (shape check; paper says {paper_gain})"),
            holds: fluid > esg * min_slo_ratio,
        });
    }

    // Figure 10.
    let f10 = fig10::run(duration_secs, seed);
    for (wl, paper, lo, hi) in [
        (
            WorkloadClass::Light,
            "light: similar throughput",
            -0.15,
            0.15,
        ),
        (
            WorkloadClass::Medium,
            "medium: ~25% higher throughput",
            0.10,
            0.60,
        ),
        (
            WorkloadClass::Heavy,
            "heavy: ~75% higher throughput",
            0.40,
            1.30,
        ),
    ] {
        let g = fig10::gain_over(&f10, wl, SystemKind::Esg);
        claims.push(Claim {
            artifact: "Fig 10",
            paper: paper.into(),
            measured: format!("{:+.0}%", g * 100.0),
            check: format!("gain in [{:+.0}%, {:+.0}%]", lo * 100.0, hi * 100.0),
            holds: (lo..=hi).contains(&g),
        });
    }

    // Figures 11–13 (P95 reduction, heavy).
    let cells = latency::run(WorkloadClass::Heavy, duration_secs, seed);
    let min_reduction = 0.3;
    let mut worst: f64 = 1.0;
    for app in WorkloadClass::Heavy.apps() {
        if let Some(r) = latency::p95_reduction(&cells, app.index()) {
            worst = worst.min(r);
        }
    }
    claims.push(Claim {
        artifact: "Fig 11",
        paper: ">= 50% P95 reduction per app in heavy workloads".into(),
        measured: format!("worst-app reduction {:.0}%", worst * 100.0),
        check: format!(
            "worst app > {:.0}% (shape check; paper says ≥ 50%)",
            min_reduction * 100.0
        ),
        holds: worst > min_reduction,
    });

    // Figure 15.
    let f15 = fig15::run(duration_secs, seed);
    let min_gain = 0.25;
    let all_positive = ["Hybrid", "P1", "P2"]
        .iter()
        .all(|s| fig15::gain(&f15, s) > min_gain);
    claims.push(Claim {
        artifact: "Fig 15",
        paper: "FluidFaaS wins under every partition (70–78%)".into(),
        measured: format!(
            "Hybrid {:+.0}% P1 {:+.0}% P2 {:+.0}%",
            fig15::gain(&f15, "Hybrid") * 100.0,
            fig15::gain(&f15, "P1") * 100.0,
            fig15::gain(&f15, "P2") * 100.0
        ),
        check: format!(
            "every partition > {:+.0}% (shape check; paper says 70–78%)",
            min_gain * 100.0
        ),
        holds: all_positive,
    });

    // Figure 16.
    let f16 = fig16::run(duration_secs, seed);
    let esg = fig16::find(&f16, WorkloadClass::Heavy, SystemKind::Esg);
    let fluid = fig16::find(&f16, WorkloadClass::Heavy, SystemKind::FluidFaaS);
    let (min_util_ratio, max_esg_peak) = (1.4, 4.0 / 7.0 + 0.05);
    claims.push(Claim {
        artifact: "Fig 16",
        paper: "heavy bursts: +75% GPU utilization (ESG stuck at 4g slices)".into(),
        measured: format!("Fluid {:.2} vs ESG {:.2} mean util", fluid.mean, esg.mean),
        check: format!(
            "Fluid > ESG × {min_util_ratio} and ESG peak ≤ {max_esg_peak:.2} (4g/7g + 0.05; shape check; paper says +75%)"
        ),
        holds: fluid.mean > esg.mean * min_util_ratio && esg.peak <= max_esg_peak,
    });

    claims
}

/// Renders the claims as a markdown table.
pub fn render(claims: &[Claim]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| artifact | paper claim | measured | check | holds |");
    let _ = writeln!(out, "|---|---|---|---|---|");
    for c in claims {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} |",
            c.artifact,
            c.paper,
            c.measured,
            c.check,
            if c.holds { "✔" } else { "✘" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_claims_hold_at_test_scale() {
        let claims = run(90.0, 1);
        assert!(claims.len() >= 9);
        let failing: Vec<&Claim> = claims.iter().filter(|c| !c.holds).collect();
        assert!(failing.is_empty(), "{failing:#?}");
        let md = render(&claims);
        assert!(md.contains("| Fig 9 |"));
        assert!(!md.contains('✘'));
    }
}
