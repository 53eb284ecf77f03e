//! The profile bundle the invoker consumes: DAG, linear blocks, per-slice
//! execution times, and the Table 5 feasibility queries.
//!
//! This is the Rust analogue of the paper's `BUILDDAG` mode: construct the
//! DAG, profile every component on every slice size, and cache the
//! CV-ranked pipeline partitions — all offline, so the invoker's launch
//! path only does table lookups.

use ffs_dag::{
    linear_blocks, try_rank_partitions, FfsDag, NodeId, PartitionError, PipelinePartition,
    RankedPartition,
};
use ffs_mig::SliceProfile;

use crate::apps::{App, Variant};
use crate::perf::PerfModel;

/// Offline profile of one FluidFaaS function (one app-variant).
#[derive(Clone, Debug)]
pub struct FunctionProfile {
    /// The function name (`"<app>_<variant>"`).
    pub name: String,
    /// Which paper application this is.
    pub app: App,
    /// Which variant.
    pub variant: Variant,
    /// The FFS DAG.
    pub dag: FfsDag,
    /// The dominator-linearised blocks (valid stage boundaries).
    pub blocks: Vec<Vec<NodeId>>,
    /// `exec_ms[node][p]` = execution time of `node` on slice profile `p`
    /// (indexed by `SliceProfile::ALL` order).
    pub exec_ms: Vec<[f64; 5]>,
    /// Minimum GPCs for a monolithic deployment (Table 5 compute-bound
    /// rows).
    pub min_gpcs_mono: u32,
    /// The performance model the profile was generated with.
    pub perf: PerfModel,
    /// CV-ranked pipeline partitions, precomputed at registration so the
    /// launch path borrows instead of re-ranking (private: the cache must
    /// stay consistent with `blocks`/`exec_ms`).
    ranked: Vec<RankedPartition>,
}

impl FunctionProfile {
    /// Profiles an application variant (the `BUILDDAG` entry point).
    ///
    /// Panics if the generated DAG yields a malformed partition spec —
    /// impossible for the built-in paper apps; use
    /// [`FunctionProfile::try_build`] when profiling untrusted specs.
    pub fn build(app: App, variant: Variant, perf: &PerfModel) -> Self {
        Self::try_build(app, variant, perf).expect("paper app DAGs are well-formed")
    }

    /// Fallible profiling: a malformed partition spec (empty DAG, degenerate
    /// blocks, non-finite modelled costs) is returned as an error instead of
    /// panicking the planner.
    pub fn try_build(app: App, variant: Variant, perf: &PerfModel) -> Result<Self, PartitionError> {
        let dag = app.build_dag(variant);
        let blocks = linear_blocks(&dag);
        let exec_ms = dag
            .nodes()
            .map(|n| {
                let work = dag.component(n).work;
                let mut row = [0.0; 5];
                for (i, p) in SliceProfile::ALL.iter().enumerate() {
                    row[i] = perf.exec_ms(work, p.gpcs());
                }
                row
            })
            .collect();
        let mut profile = FunctionProfile {
            name: dag.name().to_string(),
            app,
            variant,
            dag,
            blocks,
            exec_ms,
            min_gpcs_mono: app.min_gpcs_mono(variant),
            perf: perf.clone(),
            ranked: Vec::new(),
        };
        profile.ranked = try_rank_partitions(
            &profile.blocks,
            |n| profile.node_exec_ms(n, SliceProfile::G1_10),
            usize::MAX,
        )?;
        Ok(profile)
    }

    /// All 12 paper app-variants profiled with the default model.
    pub fn paper_suite(perf: &PerfModel) -> Vec<FunctionProfile> {
        let mut out = Vec::new();
        for app in App::ALL {
            for variant in Variant::ALL {
                out.push(FunctionProfile::build(app, variant, perf));
            }
        }
        out
    }

    /// Execution time of one component on a slice profile.
    pub fn node_exec_ms(&self, node: NodeId, slice: SliceProfile) -> f64 {
        let idx = SliceProfile::ALL
            .iter()
            .position(|&p| p == slice)
            .expect("profile is in ALL");
        self.exec_ms[node.index()][idx]
    }

    /// Execution time of the whole function run monolithically on one
    /// slice (components back-to-back in one process, with the baseline's
    /// cheap in-process handoffs).
    pub fn mono_exec_ms(&self, slice: SliceProfile) -> f64 {
        let compute: f64 = self.dag.nodes().map(|n| self.node_exec_ms(n, slice)).sum();
        let handoffs = (self.dag.len().saturating_sub(1)) as f64 * self.perf.inprocess_handoff_ms;
        compute + handoffs
    }

    /// Total memory footprint (the monolithic requirement).
    pub fn total_mem_gb(&self) -> f64 {
        self.dag.total_mem_gb()
    }

    /// Execution time of one pipeline stage (its components back-to-back)
    /// on a slice profile.
    pub fn stage_exec_ms(&self, stage: &[NodeId], slice: SliceProfile) -> f64 {
        stage.iter().map(|&n| self.node_exec_ms(n, slice)).sum()
    }

    /// End-to-end latency (ms) of a pipeline partition where stage `i` runs
    /// on `slices[i]`: stage times plus boundary transfers. (Unloaded
    /// latency; queueing is the simulator's business.)
    pub fn pipeline_latency_ms(
        &self,
        partition: &PipelinePartition,
        slices: &[SliceProfile],
    ) -> f64 {
        assert_eq!(partition.num_stages(), slices.len());
        let exec: f64 = partition
            .stages()
            .iter()
            .zip(slices)
            .map(|(stage, &s)| self.stage_exec_ms(stage, s))
            .sum();
        let transfers = self
            .perf
            .pipeline_transfer_ms(&partition.boundary_transfers_mb(&self.dag));
        exec + transfers
    }

    /// Bottleneck service time (ms) of a pipeline: the slowest stage, which
    /// bounds the instance's throughput.
    pub fn pipeline_bottleneck_ms(
        &self,
        partition: &PipelinePartition,
        slices: &[SliceProfile],
    ) -> f64 {
        partition
            .stages()
            .iter()
            .zip(slices)
            .map(|(stage, &s)| self.stage_exec_ms(stage, s))
            .fold(0.0, f64::max)
    }

    /// All pipeline partitions ranked by CV (Equation 1), using the 1-GPC
    /// execution times as the balance metric (the offline step of §5.2.2).
    ///
    /// Computed once in [`FunctionProfile::build`] and borrowed here, so
    /// the launch path never re-ranks.
    pub fn ranked_partitions(&self) -> &[RankedPartition] {
        &self.ranked
    }

    /// Smallest slice a *monolithic* (baseline) deployment fits on: memory
    /// for the whole function plus the compute floor (Table 5, "MIG to run
    /// (Baseline)"). `None` if not even `7g.80gb` suffices.
    pub fn min_baseline_slice(&self) -> Option<SliceProfile> {
        SliceProfile::smallest_fitting(self.total_mem_gb(), self.min_gpcs_mono)
    }

    /// Smallest slice a *pipelined* deployment needs per stage: the best
    /// partition minimises the largest stage footprint (Table 5, "MIG to
    /// run (FluidFaaS)").
    pub fn min_pipeline_slice(&self) -> Option<SliceProfile> {
        let best = ffs_dag::enumerate_partitions(&self.blocks)
            .into_iter()
            .map(|p| p.max_stage_mem_gb(&self.dag))
            .fold(f64::INFINITY, f64::min);
        SliceProfile::smallest_with_memory(best)
    }

    /// The reference latency `t` of §6: the function run alone on the
    /// minimum MIG instances of Table 5 — i.e. the fully-pipelined
    /// deployment on `min_pipeline_slice()` slices.
    pub fn reference_latency_ms(&self) -> f64 {
        let slice = self
            .min_pipeline_slice()
            .expect("every paper app fits pipelined");
        let full = PipelinePartition::new(self.blocks.clone());
        let slices = vec![slice; full.num_stages()];
        self.pipeline_latency_ms(&full, &slices)
    }

    /// The SLO latency for a given SLO scale (default 1.5 in the paper).
    pub fn slo_ms(&self, slo_scale: f64) -> f64 {
        slo_scale * self.reference_latency_ms()
    }

    /// Warm model-load time (ms) for a set of components.
    pub fn load_ms(&self, nodes: &[NodeId]) -> f64 {
        let mem: f64 = nodes.iter().map(|&n| self.dag.component(n).mem_gb).sum();
        self.perf.load_ms(mem)
    }

    /// Cold-start time (ms) for the whole function.
    pub fn cold_start_ms(&self) -> f64 {
        self.perf.cold_start_total_ms(self.total_mem_gb())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(app: App, variant: Variant) -> FunctionProfile {
        FunctionProfile::build(app, variant, &PerfModel::default())
    }

    /// The full Table 5 of the paper.
    #[test]
    fn table5_minimum_slices() {
        use SliceProfile::*;
        let rows: Vec<(App, Variant, Option<SliceProfile>, Option<SliceProfile>)> = vec![
            (
                App::ImageClassification,
                Variant::Small,
                Some(G1_10),
                Some(G1_10),
            ),
            (
                App::ImageClassification,
                Variant::Medium,
                Some(G2_20),
                Some(G1_10),
            ),
            (
                App::ImageClassification,
                Variant::Large,
                Some(G3_40),
                Some(G2_20),
            ),
            (
                App::DepthRecognition,
                Variant::Small,
                Some(G1_10),
                Some(G1_10),
            ),
            (
                App::DepthRecognition,
                Variant::Medium,
                Some(G2_20),
                Some(G1_10),
            ),
            (
                App::DepthRecognition,
                Variant::Large,
                Some(G3_40),
                Some(G2_20),
            ),
            (
                App::BackgroundElimination,
                Variant::Small,
                Some(G1_10),
                Some(G1_10),
            ),
            (
                App::BackgroundElimination,
                Variant::Medium,
                Some(G2_20),
                Some(G1_10),
            ),
            (
                App::BackgroundElimination,
                Variant::Large,
                Some(G3_40),
                Some(G2_20),
            ),
            (
                App::ExpandedImageClassification,
                Variant::Small,
                Some(G2_20),
                Some(G1_10),
            ),
            (
                App::ExpandedImageClassification,
                Variant::Medium,
                Some(G4_40),
                Some(G1_10),
            ),
        ];
        for (app, variant, baseline, pipeline) in rows {
            let p = profile(app, variant);
            assert_eq!(
                p.min_baseline_slice(),
                baseline,
                "{} {} baseline",
                app.name(),
                variant.name()
            );
            assert_eq!(
                p.min_pipeline_slice(),
                pipeline,
                "{} {} pipeline",
                app.name(),
                variant.name()
            );
        }
        // The NULL row: large expanded image classification cannot run on
        // the default partition (> 40 GB monolithic), and the paper
        // excludes it.
        let p = profile(App::ExpandedImageClassification, Variant::Large);
        assert!(p.app.excluded_from_study(p.variant));
        assert_eq!(
            p.min_baseline_slice(),
            Some(G7_80),
            "only a full GPU could host it"
        );
    }

    #[test]
    fn exec_times_shrink_with_slice_size() {
        let p = profile(App::ImageClassification, Variant::Medium);
        for n in p.dag.nodes() {
            let t1 = p.node_exec_ms(n, SliceProfile::G1_10);
            let t4 = p.node_exec_ms(n, SliceProfile::G4_40);
            let t7 = p.node_exec_ms(n, SliceProfile::G7_80);
            assert!(t1 > t4 && t4 > t7);
        }
    }

    #[test]
    fn pipeline_latency_exceeds_mono_on_same_slices() {
        // Splitting adds transfer overhead: a pipeline on slices equal to
        // the mono slice is strictly slower end-to-end.
        let p = profile(App::ImageClassification, Variant::Small);
        let full = PipelinePartition::new(p.blocks.clone());
        let slices = vec![SliceProfile::G2_20; full.num_stages()];
        let pipe = p.pipeline_latency_ms(&full, &slices);
        let mono = p.mono_exec_ms(SliceProfile::G2_20);
        assert!(pipe > mono, "pipe {pipe} mono {mono}");
    }

    #[test]
    fn bottleneck_below_latency() {
        let p = profile(App::DepthRecognition, Variant::Medium);
        let full = PipelinePartition::new(p.blocks.clone());
        let slices = vec![SliceProfile::G1_10; full.num_stages()];
        assert!(p.pipeline_bottleneck_ms(&full, &slices) < p.pipeline_latency_ms(&full, &slices));
    }

    #[test]
    fn reference_latency_and_slo() {
        let p = profile(App::ImageClassification, Variant::Medium);
        let t = p.reference_latency_ms();
        assert!(t > 0.0);
        assert!((p.slo_ms(1.5) - 1.5 * t).abs() < 1e-9);
        // Every deployment the schedulers may choose meets the unloaded SLO.
        let slo = p.slo_ms(1.5);
        assert!(p.mono_exec_ms(p.min_baseline_slice().unwrap()) < slo);
        assert!(t < slo);
    }

    #[test]
    fn ranked_partitions_start_balanced() {
        let p = profile(App::ImageClassification, Variant::Medium);
        let ranked = p.ranked_partitions();
        assert_eq!(ranked.len(), 1 << (p.blocks.len() - 1));
        for w in ranked.windows(2) {
            assert!(w[0].cv <= w[1].cv + 1e-12);
        }
    }

    #[test]
    fn paper_suite_is_complete() {
        let suite = FunctionProfile::paper_suite(&PerfModel::default());
        assert_eq!(suite.len(), 12);
        let mut names: Vec<&str> = suite.iter().map(|p| p.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn expanded_app_blocks_isolate_branch() {
        let p = profile(App::ExpandedImageClassification, Variant::Medium);
        // deblur | sr | bgrm | seg | cls — the skip edge keeps sr a gap
        // block between the cut nodes deblur and bgrm.
        assert_eq!(p.blocks.len(), 5);
    }

    #[test]
    fn load_and_cold_start_costs() {
        let p = profile(App::ImageClassification, Variant::Medium);
        let all: Vec<NodeId> = p.dag.nodes().collect();
        let full_load = p.load_ms(&all);
        assert!((full_load - p.perf.load_ms(p.total_mem_gb())).abs() < 1e-9);
        assert!(p.cold_start_ms() > full_load);
    }
}
