//! The function catalog: one registered FluidFaaS function per application,
//! profiled offline.

use ffs_profile::{FunctionProfile, PerfModel};
use ffs_trace::WorkloadClass;

/// Index of a function in the catalog.
pub type FuncId = usize;

/// The set of functions a platform run serves, with their profiles and SLO
/// budgets.
#[derive(Clone, Debug)]
pub struct FunctionCatalog {
    profiles: Vec<FunctionProfile>,
    slo_ms: Vec<f64>,
}

impl FunctionCatalog {
    /// Builds the catalog for a workload class: every participating app at
    /// the class's variant, with SLO = `slo_scale` x reference latency.
    pub fn for_workload(workload: WorkloadClass, slo_scale: f64, perf: &PerfModel) -> Self {
        let variant = workload.variant();
        let profiles: Vec<FunctionProfile> = workload
            .apps()
            .into_iter()
            .map(|app| FunctionProfile::build(app, variant, perf))
            .collect();
        let slo_ms = profiles
            .iter()
            .map(|p| slo_scale * p.reference_latency_ms())
            .collect();
        FunctionCatalog { profiles, slo_ms }
    }

    /// Number of functions.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// True if the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// The profile of a function.
    pub fn profile(&self, f: FuncId) -> &FunctionProfile {
        &self.profiles[f]
    }

    /// All function ids.
    pub fn ids(&self) -> impl Iterator<Item = FuncId> {
        0..self.profiles.len()
    }

    /// The SLO latency budget (ms) of a function.
    pub fn slo_ms(&self, f: FuncId) -> f64 {
        self.slo_ms[f]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffs_profile::App;
    use ffs_trace::WorkloadClass;

    #[test]
    fn medium_catalog_has_all_four_apps() {
        let cat = FunctionCatalog::for_workload(WorkloadClass::Medium, 1.5, &PerfModel::default());
        assert_eq!(cat.len(), 4);
        for f in cat.ids() {
            assert!(cat.slo_ms(f) > 0.0);
            assert!((cat.slo_ms(f) - 1.5 * cat.profile(f).reference_latency_ms()).abs() < 1e-9);
        }
    }

    #[test]
    fn heavy_catalog_excludes_null_row() {
        let cat = FunctionCatalog::for_workload(WorkloadClass::Heavy, 1.5, &PerfModel::default());
        assert_eq!(cat.len(), 3);
        let serves = |app: App| cat.ids().any(|f| cat.profile(f).app == app);
        assert!(!serves(App::ExpandedImageClassification));
        assert!(serves(App::ImageClassification));
    }
}
