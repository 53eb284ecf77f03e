//! Workload classes and invocation records.

use ffs_profile::{App, Variant};
use ffs_sim::SimTime;

/// The paper's three workloads (§6): each application runs in its small,
/// medium, or large variant respectively.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// All apps in their small variants.
    Light,
    /// All apps in their medium variants.
    Medium,
    /// All apps in their large variants.
    Heavy,
}

impl WorkloadClass {
    /// All classes.
    pub const ALL: [WorkloadClass; 3] = [
        WorkloadClass::Light,
        WorkloadClass::Medium,
        WorkloadClass::Heavy,
    ];

    /// Short name.
    pub const fn name(self) -> &'static str {
        match self {
            WorkloadClass::Light => "light",
            WorkloadClass::Medium => "medium",
            WorkloadClass::Heavy => "heavy",
        }
    }

    /// The application variant this workload uses.
    pub const fn variant(self) -> Variant {
        match self {
            WorkloadClass::Light => Variant::Small,
            WorkloadClass::Medium => Variant::Medium,
            WorkloadClass::Heavy => Variant::Large,
        }
    }

    /// Mean request rate per application (requests/second), calibrated so
    /// the paper's regimes reproduce on the 2-node x 8-GPU default fleet:
    /// light stays comfortably inside every system's capacity; medium
    /// saturates the baseline's usable slices during bursts; heavy
    /// overloads the baseline (which can only run large variants on
    /// `4g.40gb` slices) while FluidFaaS still finds capacity in fragments.
    pub const fn mean_rps_per_app(self) -> f64 {
        match self {
            WorkloadClass::Light => 14.0,
            WorkloadClass::Medium => 10.0,
            WorkloadClass::Heavy => 9.0,
        }
    }

    /// The applications participating in this workload. The large expanded
    /// image classification is excluded per Table 5 (NULL row).
    pub fn apps(self) -> Vec<App> {
        App::ALL
            .iter()
            .copied()
            .filter(|a| !a.excluded_from_study(self.variant()))
            .collect()
    }
}

/// One function invocation in a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Invocation {
    /// Unique request id within the trace.
    pub id: u64,
    /// Which application is invoked.
    pub app: App,
    /// Arrival time at the platform.
    pub arrival: SimTime,
    /// Owning tenant (billing/fairness entity). Synthetic generators
    /// default it to the application index; multi-tenant scenarios
    /// assign it explicitly.
    pub tenant: u32,
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn workload_variant_mapping_matches_paper() {
        assert_eq!(WorkloadClass::Light.variant(), Variant::Small);
        assert_eq!(WorkloadClass::Medium.variant(), Variant::Medium);
        assert_eq!(WorkloadClass::Heavy.variant(), Variant::Large);
    }

    #[test]
    fn heavy_excludes_large_expanded_app() {
        let heavy = WorkloadClass::Heavy.apps();
        assert_eq!(heavy.len(), 3);
        assert!(!heavy.contains(&App::ExpandedImageClassification));
        assert_eq!(WorkloadClass::Light.apps().len(), 4);
        assert_eq!(WorkloadClass::Medium.apps().len(), 4);
    }

    #[test]
    fn rates_are_positive() {
        for w in WorkloadClass::ALL {
            assert!(w.mean_rps_per_app() > 0.0);
        }
    }
}
