//! Latency / throughput algebra for planned instances.
//!
//! The load balancer's heterogeneity-aware routing (§5.3) needs to know,
//! for every live instance: its end-to-end latency (pipelines add transfer
//! overhead), its bottleneck service time (which bounds throughput), and
//! therefore how many requests per second it can absorb while meeting SLOs.

use ffs_profile::FunctionProfile;

use crate::plan::DeploymentPlan;

/// Performance estimate for a deployed instance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InstanceEstimate {
    /// Unloaded end-to-end latency (ms): stage execution plus boundary
    /// transfers (pipelines) or in-process handoffs (monolithic).
    pub latency_ms: f64,
    /// Service time of the slowest pipeline stage (ms); equals the full
    /// execution time for monolithic instances.
    pub bottleneck_ms: f64,
    /// Sustainable throughput in requests/second (`1000 / bottleneck_ms`).
    pub throughput_rps: f64,
}

/// Estimates a planned deployment against its function profile.
pub fn estimate(profile: &FunctionProfile, plan: &DeploymentPlan) -> InstanceEstimate {
    let slices = plan.slice_profiles();
    let (latency_ms, bottleneck_ms) = if plan.is_monolithic() {
        let t = profile.mono_exec_ms(slices[0]);
        (t, t)
    } else {
        (
            profile.pipeline_latency_ms(&plan.partition, &slices),
            profile.pipeline_bottleneck_ms(&plan.partition, &slices),
        )
    };
    InstanceEstimate {
        latency_ms,
        bottleneck_ms,
        throughput_rps: 1_000.0 / bottleneck_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan_deployment;
    use ffs_mig::{Fleet, PartitionLayout, PartitionScheme};
    use ffs_profile::{App, PerfModel, Variant};

    fn profile(app: App, variant: Variant) -> FunctionProfile {
        FunctionProfile::build(app, variant, &PerfModel::default())
    }

    #[test]
    fn monolithic_estimate_matches_mono_exec() {
        let fleet = Fleet::new(1, 1, &PartitionScheme::p1()).unwrap();
        let p = profile(App::ImageClassification, Variant::Small);
        let plan = plan_deployment(&p, &fleet.free_slices(None)).unwrap();
        assert!(plan.is_monolithic());
        let est = estimate(&p, &plan);
        assert!((est.latency_ms - p.mono_exec_ms(plan.stages[0].profile)).abs() < 1e-9);
        assert_eq!(est.latency_ms, est.bottleneck_ms);
        assert!((est.throughput_rps - 1_000.0 / est.latency_ms).abs() < 1e-9);
    }

    #[test]
    fn pipeline_has_higher_latency_but_higher_throughput_than_1g_mono() {
        // A pipeline's latency includes transfers, but its bottleneck is a
        // fraction of the total work — that is the whole point of
        // pipelining fragments.
        let fleet = Fleet::new(
            1,
            1,
            &PartitionScheme::Uniform(PartitionLayout::preset_seven_small()),
        )
        .unwrap();
        let small = profile(App::ImageClassification, Variant::Small);
        let plan_mono = plan_deployment(&small, &fleet.free_slices(None)).unwrap();
        assert!(plan_mono.is_monolithic(), "small fits a 1g slice");
        let est_mono = estimate(&small, &plan_mono);

        let medium = profile(App::ImageClassification, Variant::Medium);
        let plan_pipe = plan_deployment(&medium, &fleet.free_slices(None)).unwrap();
        assert!(!plan_pipe.is_monolithic());
        let est_pipe = estimate(&medium, &plan_pipe);

        assert!(est_pipe.latency_ms > est_pipe.bottleneck_ms);
        // The medium pipeline on 1g slices sustains more than the medium
        // function would at 1 GPC monolithically (if it fit).
        let hypothetical_mono_1g = medium.mono_exec_ms(ffs_mig::SliceProfile::G1_10);
        assert!(est_pipe.bottleneck_ms < hypothetical_mono_1g);
        let _ = est_mono;
    }

    #[test]
    fn throughput_is_inverse_bottleneck() {
        let fleet = Fleet::new(1, 1, &PartitionScheme::p1()).unwrap();
        let p = profile(App::DepthRecognition, Variant::Medium);
        let plan = plan_deployment(&p, &fleet.free_slices(None)).unwrap();
        let est = estimate(&p, &plan);
        assert!((est.throughput_rps * est.bottleneck_ms - 1_000.0).abs() < 1e-6);
    }
}
