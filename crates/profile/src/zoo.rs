//! The model zoo: the six DNN components of the paper's applications
//! (Table 4), with calibrated base parameters.
//!
//! `work` is milliseconds on one GPC at the small-variant batch size;
//! `mem_gb` is the component's GPU footprint (weights + activations) at the
//! small-variant batch size; `output_mb` is the tensor the component hands
//! to its successor. Variants scale `work` and `mem_gb` (larger batches,
//! higher resolutions) but leave `output_mb` fixed: batched outputs stream
//! through the boundary per sample, so per-request transfer cost is
//! dominated by single-sample tensors (keeping the paper's 10–40 ms total).

use ffs_dag::Component;

/// The DNN components used by the paper's applications.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ComponentKind {
    /// SRGAN photo-realistic super resolution.
    SuperResolution,
    /// DeepLabV3 semantic segmentation.
    Segmentation,
    /// ResNet-50 image classification.
    Classification,
    /// DeblurGAN motion deblurring.
    Deblur,
    /// MiDaS monocular depth estimation.
    DepthRecognition,
    /// U²-Net salient-object / background removal.
    BackgroundRemoval,
    /// LLM tokenizer (extension app, §5.2.3).
    Tokenizer,
    /// First half of a transformer stack (LLM extension).
    TransformerFront,
    /// Second half of a transformer stack (LLM extension).
    TransformerBack,
    /// LLM detokenizer / response generation (extension).
    Detokenizer,
}

impl ComponentKind {
    /// All components (the six Table 4 components plus the LLM extension).
    pub const ALL: [ComponentKind; 10] = [
        ComponentKind::SuperResolution,
        ComponentKind::Segmentation,
        ComponentKind::Classification,
        ComponentKind::Deblur,
        ComponentKind::DepthRecognition,
        ComponentKind::BackgroundRemoval,
        ComponentKind::Tokenizer,
        ComponentKind::TransformerFront,
        ComponentKind::TransformerBack,
        ComponentKind::Detokenizer,
    ];

    /// Component name.
    pub const fn name(self) -> &'static str {
        match self {
            ComponentKind::SuperResolution => "super_resolution",
            ComponentKind::Segmentation => "segmentation",
            ComponentKind::Classification => "classification",
            ComponentKind::Deblur => "deblur",
            ComponentKind::DepthRecognition => "depth_recognition",
            ComponentKind::BackgroundRemoval => "background_removal",
            ComponentKind::Tokenizer => "tokenizer",
            ComponentKind::TransformerFront => "transformer_front",
            ComponentKind::TransformerBack => "transformer_back",
            ComponentKind::Detokenizer => "detokenizer",
        }
    }

    /// Base GPU memory footprint in GB (small variant).
    pub const fn base_mem_gb(self) -> f64 {
        match self {
            ComponentKind::SuperResolution => 2.2,
            ComponentKind::Segmentation => 2.4,
            ComponentKind::Classification => 1.6,
            ComponentKind::Deblur => 1.8,
            ComponentKind::DepthRecognition => 2.0,
            ComponentKind::BackgroundRemoval => 2.1,
            ComponentKind::Tokenizer => 0.4,
            ComponentKind::TransformerFront => 6.0,
            ComponentKind::TransformerBack => 6.0,
            ComponentKind::Detokenizer => 0.4,
        }
    }

    /// Base compute cost in ms on 1 GPC (small variant).
    pub const fn base_work_ms(self) -> f64 {
        match self {
            ComponentKind::SuperResolution => 90.0,
            ComponentKind::Segmentation => 70.0,
            ComponentKind::Classification => 30.0,
            ComponentKind::Deblur => 60.0,
            ComponentKind::DepthRecognition => 55.0,
            ComponentKind::BackgroundRemoval => 65.0,
            ComponentKind::Tokenizer => 4.0,
            ComponentKind::TransformerFront => 150.0,
            ComponentKind::TransformerBack => 150.0,
            ComponentKind::Detokenizer => 4.0,
        }
    }

    /// Output tensor size in MB.
    pub const fn output_mb(self) -> f64 {
        match self {
            ComponentKind::SuperResolution => 48.0,
            ComponentKind::Segmentation => 16.0,
            ComponentKind::Classification => 0.01,
            ComponentKind::Deblur => 24.0,
            ComponentKind::DepthRecognition => 12.0,
            ComponentKind::BackgroundRemoval => 16.0,
            ComponentKind::Tokenizer => 0.2,
            ComponentKind::TransformerFront => 24.0,
            ComponentKind::TransformerBack => 1.0,
            ComponentKind::Detokenizer => 0.01,
        }
    }

    /// The DAG component description at given memory / compute scale
    /// factors. Memory grows with batch size and resolution; compute grows
    /// faster (larger batches *and* more pixels per sample), which is why
    /// the two scales are independent.
    pub fn component(self, mem_scale: f64, work_scale: f64) -> Component {
        Component::new(
            self.name(),
            self.base_mem_gb() * mem_scale,
            self.base_work_ms() * work_scale,
            self.output_mb(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = ComponentKind::ALL.iter().map(|k| k.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn base_parameters_are_positive() {
        for k in ComponentKind::ALL {
            assert!(k.base_mem_gb() > 0.0);
            assert!(k.base_work_ms() > 0.0);
            assert!(k.output_mb() >= 0.0);
        }
    }

    #[test]
    fn scaling_affects_mem_and_work_not_output() {
        let k = ComponentKind::SuperResolution;
        let c1 = k.component(1.0, 1.0);
        let c5 = k.component(5.0, 8.0);
        assert!((c5.mem_gb - 5.0 * c1.mem_gb).abs() < 1e-12);
        assert!((c5.work - 8.0 * c1.work).abs() < 1e-12);
        assert_eq!(c5.output_mb, c1.output_mb);
    }
}
