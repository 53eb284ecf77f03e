//! The four applications of the paper's Table 4, in the small / medium /
//! large variants of Table 5.

use ffs_dag::{FfsDag, NodeId};

use crate::zoo::ComponentKind;

/// The paper's applications (Table 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum App {
    /// App 0: super resolution → segmentation → classification.
    ImageClassification,
    /// App 1: deblur → super resolution → depth recognition.
    DepthRecognition,
    /// App 2: super resolution → deblur → background removal.
    BackgroundElimination,
    /// App 3: deblur → (super resolution | pass) → background removal →
    /// segmentation → classification. The only branched DAG.
    ExpandedImageClassification,
    /// Extension app (not in Table 4): multi-stage LLM inference —
    /// tokenization → transformer front half → transformer back half →
    /// response generation. §5.2.3 argues FluidFaaS maps such stages to
    /// GPU resources like any other FFS DAG; this app makes the claim
    /// executable. Excluded from [`App::ALL`] so the paper experiments are
    /// unaffected.
    LlmService,
}

/// Application variant (Table 5): memory requirement and batch size.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Variant {
    /// Small batch / resolution.
    Small,
    /// Medium batch / resolution.
    Medium,
    /// Large batch / resolution.
    Large,
}

impl App {
    /// All applications in paper order (App 0 – App 3).
    pub const ALL: [App; 4] = [
        App::ImageClassification,
        App::DepthRecognition,
        App::BackgroundElimination,
        App::ExpandedImageClassification,
    ];

    /// Short name used in reports.
    pub const fn name(self) -> &'static str {
        match self {
            App::ImageClassification => "image_classification",
            App::DepthRecognition => "depth_recognition",
            App::BackgroundElimination => "background_elimination",
            App::ExpandedImageClassification => "expanded_image_classification",
            App::LlmService => "llm_service",
        }
    }

    /// Paper index ("App 0" … "App 3").
    pub const fn index(self) -> usize {
        match self {
            App::ImageClassification => 0,
            App::DepthRecognition => 1,
            App::BackgroundElimination => 2,
            App::ExpandedImageClassification => 3,
            App::LlmService => 4,
        }
    }

    /// The component chain(s) of the application.
    pub fn components(self) -> Vec<ComponentKind> {
        use ComponentKind::*;
        match self {
            App::ImageClassification => vec![SuperResolution, Segmentation, Classification],
            App::DepthRecognition => vec![Deblur, SuperResolution, DepthRecognition],
            App::BackgroundElimination => vec![SuperResolution, Deblur, BackgroundRemoval],
            App::ExpandedImageClassification => vec![
                Deblur,
                SuperResolution,
                BackgroundRemoval,
                Segmentation,
                Classification,
            ],
            App::LlmService => vec![Tokenizer, TransformerFront, TransformerBack, Detokenizer],
        }
    }

    /// The variant scale factor applied to component memory and work.
    ///
    /// Factors are calibrated so the "MIG to run" columns of Table 5 hold:
    /// e.g. the three sequential apps total ≈6 GB small (fits `1g.10gb`
    /// monolithic), 15 GB medium (needs `2g.20gb` monolithic but every
    /// component stays under 10 GB, so a pipeline fits `1g.10gb` slices),
    /// and ≈30 GB large with 11–12 GB components (monolithic `3g.40gb`,
    /// pipelined `2g.20gb`).
    pub fn mem_scale(self, variant: Variant) -> f64 {
        match (self, variant) {
            (App::ExpandedImageClassification, Variant::Small) => 1.2,
            (App::ExpandedImageClassification, Variant::Medium) => 3.0,
            (App::ExpandedImageClassification, Variant::Large) => 6.0,
            // LLM sizes stand for ~7B / ~13B / ~30B parameter models.
            (App::LlmService, Variant::Small) => 1.0,
            (App::LlmService, Variant::Medium) => 2.0,
            (App::LlmService, Variant::Large) => 4.0,
            (_, Variant::Small) => 1.0,
            (_, Variant::Medium) => 2.5,
            (_, Variant::Large) => 5.0,
        }
    }

    /// The variant scale factor applied to component compute cost. Compute
    /// grows faster than memory with variant size (larger batches *and*
    /// higher resolutions), which is what pushes the paper's medium and
    /// heavy workloads into the baseline-saturating regimes of Figures 9
    /// and 10.
    pub fn work_scale(self, variant: Variant) -> f64 {
        match (self, variant) {
            (App::ExpandedImageClassification, Variant::Small) => 1.2,
            (App::LlmService, Variant::Medium) => 2.5,
            (App::LlmService, Variant::Large) => 6.0,
            (_, Variant::Small) => 1.0,
            (_, Variant::Medium) => 4.0,
            (_, Variant::Large) => 8.0,
        }
    }

    /// Minimum GPCs a *monolithic* deployment of this app-variant needs to
    /// sustain its SLO at the controller's target load. This reproduces the
    /// compute-bound rows of Table 5: `3g.40gb` and `4g.40gb` have the same
    /// 40 GB of memory, so the paper's "medium expanded image
    /// classification needs ≥ 4g.40gb" can only come from the compute
    /// requirement of its five-model workflow.
    pub fn min_gpcs_mono(self, variant: Variant) -> u32 {
        match (self, variant) {
            (App::ExpandedImageClassification, Variant::Medium) => 4,
            _ => 1,
        }
    }

    /// True for the app-variant the paper excludes from the study: the
    /// large expanded image classification cannot run on any slice of the
    /// default partition (its monolithic footprint exceeds `4g.40gb`), so
    /// Table 5 lists it as NULL.
    pub fn excluded_from_study(self, variant: Variant) -> bool {
        self == App::ExpandedImageClassification && variant == Variant::Large
    }

    /// Builds the FFS DAG of this application at the given variant.
    pub fn build_dag(self, variant: Variant) -> FfsDag {
        let scale = self.mem_scale(variant);
        let wscale = self.work_scale(variant);
        let mut dag = FfsDag::new(format!("{}_{}", self.name(), variant.name()));
        match self {
            App::ExpandedImageClassification => {
                use ComponentKind::*;
                let deblur = dag
                    .register(Deblur.component(scale, wscale), &[])
                    .expect("valid registration");
                let sr = dag
                    .register(SuperResolution.component(scale, wscale), &[deblur])
                    .expect("valid registration");
                // The "else: pass" branch: background removal reads either
                // the super-resolved image or the deblurred original.
                let bgrm = dag
                    .register(BackgroundRemoval.component(scale, wscale), &[sr, deblur])
                    .expect("valid registration");
                let seg = dag
                    .register(Segmentation.component(scale, wscale), &[bgrm])
                    .expect("valid registration");
                let _cls = dag
                    .register(Classification.component(scale, wscale), &[seg])
                    .expect("valid registration");
            }
            _ => {
                let mut prev: Option<NodeId> = None;
                for kind in self.components() {
                    let inputs: Vec<NodeId> = prev.into_iter().collect();
                    prev = Some(
                        dag.register(kind.component(scale, wscale), &inputs)
                            .expect("valid registration"),
                    );
                }
            }
        }
        debug_assert!(dag.validate().is_ok());
        dag
    }
}

impl Variant {
    /// All variants, small first.
    pub const ALL: [Variant; 3] = [Variant::Small, Variant::Medium, Variant::Large];

    /// Short name.
    pub const fn name(self) -> &'static str {
        match self {
            Variant::Small => "small",
            Variant::Medium => "medium",
            Variant::Large => "large",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_apps_are_chains() {
        for app in [
            App::ImageClassification,
            App::DepthRecognition,
            App::BackgroundElimination,
        ] {
            let dag = app.build_dag(Variant::Small);
            assert_eq!(dag.len(), 3);
            assert_eq!(dag.sources().len(), 1);
            assert_eq!(dag.sinks().len(), 1);
            assert_eq!(dag.edges().len(), 2);
        }
    }

    #[test]
    fn expanded_app_is_branched() {
        let dag = App::ExpandedImageClassification.build_dag(Variant::Medium);
        assert_eq!(dag.len(), 5);
        // The skip edge makes 5 edges instead of 4.
        assert_eq!(dag.edges().len(), 5);
        assert_eq!(dag.sinks().len(), 1);
    }

    #[test]
    fn total_memory_bands_match_table5() {
        // Sequential apps: small <= 10 GB, medium in (10, 20], large in (20, 40].
        for app in [
            App::ImageClassification,
            App::DepthRecognition,
            App::BackgroundElimination,
        ] {
            let small = app.build_dag(Variant::Small).total_mem_gb();
            let medium = app.build_dag(Variant::Medium).total_mem_gb();
            let large = app.build_dag(Variant::Large).total_mem_gb();
            assert!(small <= 10.0, "{} small {small}", app.name());
            assert!(
                medium > 10.0 && medium <= 20.0,
                "{} medium {medium}",
                app.name()
            );
            assert!(
                large > 20.0 && large <= 40.0,
                "{} large {large}",
                app.name()
            );
        }
        // Expanded app: small in (10, 20], medium in (20, 40], large > 40.
        let app = App::ExpandedImageClassification;
        let small = app.build_dag(Variant::Small).total_mem_gb();
        let medium = app.build_dag(Variant::Medium).total_mem_gb();
        let large = app.build_dag(Variant::Large).total_mem_gb();
        assert!(small > 10.0 && small <= 20.0, "small {small}");
        assert!(medium > 20.0 && medium <= 40.0, "medium {medium}");
        assert!(large > 40.0, "large {large}");
    }

    #[test]
    fn per_component_memory_allows_pipelines_per_table5() {
        // Medium variants: every component fits a 1g.10gb slice.
        for app in App::ALL {
            let dag = app.build_dag(Variant::Medium);
            for n in dag.nodes() {
                assert!(
                    dag.component(n).mem_gb <= 10.0,
                    "{} medium component {} = {}",
                    app.name(),
                    dag.component(n).name,
                    dag.component(n).mem_gb
                );
            }
        }
        // Large sequential variants: components in (10, 20]: pipeline needs 2g.
        for app in [
            App::ImageClassification,
            App::DepthRecognition,
            App::BackgroundElimination,
        ] {
            let dag = app.build_dag(Variant::Large);
            let max = dag
                .nodes()
                .map(|n| dag.component(n).mem_gb)
                .fold(0.0, f64::max);
            assert!(max > 10.0 && max <= 20.0, "{} large max {max}", app.name());
        }
    }

    #[test]
    fn exclusion_flag_matches_paper() {
        assert!(App::ExpandedImageClassification.excluded_from_study(Variant::Large));
        assert!(!App::ExpandedImageClassification.excluded_from_study(Variant::Medium));
        assert!(!App::ImageClassification.excluded_from_study(Variant::Large));
    }

    #[test]
    fn names_and_indices() {
        assert_eq!(App::ImageClassification.index(), 0);
        assert_eq!(App::ExpandedImageClassification.index(), 3);
        let mut names: Vec<&str> = App::ALL.iter().map(|a| a.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 4);
    }
}
