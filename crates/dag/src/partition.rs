//! Enumeration and CV-ranking of consecutive pipeline partitions.
//!
//! For a linearised DAG with `b` blocks there are `2^(b-1)` consecutive
//! partitions (each of the `b-1` boundaries is either a stage cut or not).
//! The paper ranks them offline by the coefficient of variation of the
//! stage execution times (Equation 1): lower CV means a better balanced
//! pipeline. At launch, the invoker walks the ranked list and deploys the
//! first partition the currently free MIG slices can host.

use crate::graph::{FfsDag, NodeId};

/// A concrete pipeline partition: an ordered list of stages, each holding
/// the DAG nodes it executes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PipelinePartition {
    stages: Vec<Vec<NodeId>>,
}

impl PipelinePartition {
    /// Creates a partition from explicit stages.
    pub fn new(stages: Vec<Vec<NodeId>>) -> Self {
        debug_assert!(stages.iter().all(|s| !s.is_empty()));
        PipelinePartition { stages }
    }

    /// The stages, in pipeline order.
    pub fn stages(&self) -> &[Vec<NodeId>] {
        &self.stages
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// True if this is the non-pipelined (single-stage) configuration.
    pub fn is_monolithic(&self) -> bool {
        self.stages.len() == 1
    }

    /// Memory footprint of each stage: the sum of its components'
    /// footprints (all components of a stage are co-resident on one slice).
    pub fn stage_mem_gb(&self, dag: &FfsDag) -> Vec<f64> {
        self.stages
            .iter()
            .map(|s| s.iter().map(|&n| dag.component(n).mem_gb).sum())
            .collect()
    }

    /// The largest single-stage memory footprint — the minimum slice memory
    /// a pipelined deployment of this partition needs.
    pub fn max_stage_mem_gb(&self, dag: &FfsDag) -> f64 {
        self.stage_mem_gb(dag).into_iter().fold(0.0, f64::max)
    }

    /// Execution cost of each stage under a per-node cost function
    /// (components of a stage run sequentially on the stage's slice).
    pub fn stage_costs(&self, cost: impl Fn(NodeId) -> f64) -> Vec<f64> {
        self.stages
            .iter()
            .map(|s| s.iter().map(|&n| cost(n)).sum())
            .collect()
    }

    /// The coefficient of variation of the stage costs (paper Equation 1):
    /// `std(t_1..t_n) / mean(t_1..t_n)`. Zero for a monolithic partition.
    pub fn cv(&self, cost: impl Fn(NodeId) -> f64) -> f64 {
        let costs = self.stage_costs(cost);
        let n = costs.len() as f64;
        let mean = costs.iter().sum::<f64>() / n;
        if mean == 0.0 {
            return 0.0;
        }
        let var = costs.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / n;
        var.sqrt() / mean
    }

    /// Megabytes transferred across each of the `num_stages - 1` boundaries
    /// (through host shared memory, because MIG slices cannot exchange data
    /// on the GPU).
    pub fn boundary_transfers_mb(&self, dag: &FfsDag) -> Vec<f64> {
        let mut prefix: Vec<NodeId> = Vec::new();
        let mut out = Vec::new();
        for stage in &self.stages[..self.stages.len().saturating_sub(1)] {
            prefix.extend_from_slice(stage);
            out.push(dag.crossing_mb(&prefix));
        }
        out
    }
}

/// Why a partition spec could not be enumerated or ranked.
///
/// These used to be asserts/unwraps on the planner path; a malformed spec
/// (an empty DAG, a degenerate block, a NaN profile cost) now surfaces as a
/// recoverable error instead of panicking the invoker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionError {
    /// The block sequence is empty — nothing to partition.
    NoBlocks,
    /// Too many blocks: enumeration is `2^(b-1)` and would explode.
    TooManyBlocks(usize),
    /// Block `{0}` contains no nodes.
    EmptyBlock(usize),
    /// The cost function produced a non-finite stage cost for block `{0}`'s
    /// node, so CV ranking would be meaningless.
    NonFiniteCost(u32),
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::NoBlocks => write!(f, "cannot partition zero blocks"),
            PartitionError::TooManyBlocks(b) => {
                write!(f, "partition enumeration is exponential: {b} blocks > 24")
            }
            PartitionError::EmptyBlock(i) => write!(f, "block {i} is empty"),
            PartitionError::NonFiniteCost(n) => {
                write!(f, "non-finite execution cost for node {n}")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

/// Maximum block count accepted by enumeration (`2^(b-1)` partitions).
pub const MAX_BLOCKS: usize = 24;

/// Fallible form of [`enumerate_partitions`]: returns an error instead of
/// panicking on a malformed block sequence.
pub fn try_enumerate_partitions(
    blocks: &[Vec<NodeId>],
) -> Result<Vec<PipelinePartition>, PartitionError> {
    let b = blocks.len();
    if b == 0 {
        return Err(PartitionError::NoBlocks);
    }
    if b > MAX_BLOCKS {
        return Err(PartitionError::TooManyBlocks(b));
    }
    if let Some(i) = blocks.iter().position(|blk| blk.is_empty()) {
        return Err(PartitionError::EmptyBlock(i));
    }
    let mut out = Vec::with_capacity(1 << (b - 1));
    for mask in 0u32..(1 << (b - 1)) {
        let mut stages: Vec<Vec<NodeId>> = Vec::new();
        let mut current: Vec<NodeId> = Vec::new();
        for (i, block) in blocks.iter().enumerate() {
            current.extend_from_slice(block);
            let boundary_after = i + 1 < b && mask & (1 << i) != 0;
            if boundary_after || i + 1 == b {
                stages.push(std::mem::take(&mut current));
            }
        }
        out.push(PipelinePartition::new(stages));
    }
    Ok(out)
}

/// Enumerates all `2^(blocks-1)` consecutive partitions of a block
/// sequence, monolithic first. Stages never split a block.
///
/// Panics on a malformed block sequence; planner-path callers should use
/// [`try_enumerate_partitions`] instead.
pub fn enumerate_partitions(blocks: &[Vec<NodeId>]) -> Vec<PipelinePartition> {
    try_enumerate_partitions(blocks).expect("valid block sequence")
}

/// A partition together with its balance score.
#[derive(Clone, Debug, PartialEq)]
pub struct RankedPartition {
    /// The partition.
    pub partition: PipelinePartition,
    /// Its coefficient of variation (lower = more balanced).
    pub cv: f64,
    /// The per-stage costs the CV was computed from.
    pub stage_costs: Vec<f64>,
}

/// Enumerates and ranks all partitions of `blocks` by CV, ascending, with
/// ties broken toward fewer stages (cheaper: fewer slices, fewer
/// transfers) and then deterministically by stage shape.
///
/// `max_stages` caps the pipeline depth (use `usize::MAX` for no cap). The
/// monolithic single-stage partition is always included: it has CV 0 and
/// one stage, so it sorts first — matching the paper's pipeline-migration
/// preference for non-pipelined deployments when a large slice is free.
pub fn rank_partitions(
    blocks: &[Vec<NodeId>],
    cost: impl Fn(NodeId) -> f64,
    max_stages: usize,
) -> Vec<RankedPartition> {
    try_rank_partitions(blocks, cost, max_stages).expect("valid partition spec")
}

/// Fallible form of [`rank_partitions`]: a malformed block sequence or a
/// cost function yielding non-finite values returns an error instead of
/// panicking (previously an `unwrap` inside the sort comparator).
pub fn try_rank_partitions(
    blocks: &[Vec<NodeId>],
    cost: impl Fn(NodeId) -> f64,
    max_stages: usize,
) -> Result<Vec<RankedPartition>, PartitionError> {
    // Validate costs once over the nodes rather than per partition: every
    // stage cost is a sum of node costs, so finite node costs imply finite
    // stage costs.
    for blk in blocks {
        for &n in blk {
            if !cost(n).is_finite() {
                return Err(PartitionError::NonFiniteCost(n.0));
            }
        }
    }
    let mut ranked: Vec<RankedPartition> = try_enumerate_partitions(blocks)?
        .into_iter()
        .filter(|p| p.num_stages() <= max_stages)
        .map(|p| {
            let stage_costs = p.stage_costs(&cost);
            let cv = p.cv(&cost);
            RankedPartition {
                partition: p,
                cv,
                stage_costs,
            }
        })
        .collect();
    // total_cmp keeps the comparator panic-free even if a cost function is
    // non-deterministic between the validation pass and here.
    ranked.sort_by(|a, b| {
        a.cv.total_cmp(&b.cv)
            .then_with(|| a.partition.num_stages().cmp(&b.partition.num_stages()))
            .then_with(|| a.partition.stages().cmp(b.partition.stages()))
    });
    Ok(ranked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Component;

    fn blocks_of(n: u32) -> Vec<Vec<NodeId>> {
        (0..n).map(|i| vec![NodeId(i)]).collect()
    }

    fn chain_dag(works: &[f64]) -> FfsDag {
        let mut dag = FfsDag::new("chain");
        let mut prev: Option<NodeId> = None;
        for (i, &w) in works.iter().enumerate() {
            let inputs: Vec<NodeId> = prev.into_iter().collect();
            prev = Some(
                dag.register(Component::new(format!("n{i}"), 1.0, w, 5.0), &inputs)
                    .unwrap(),
            );
        }
        dag
    }

    #[test]
    fn enumeration_count_is_2_pow_b_minus_1() {
        for b in 1..=6u32 {
            let parts = enumerate_partitions(&blocks_of(b));
            assert_eq!(parts.len(), 1 << (b - 1));
        }
    }

    #[test]
    fn five_model_example_has_16_partitions() {
        // The paper: "There are 2^4 possible consecutive partitions" for a
        // five-model sequential DAG.
        assert_eq!(enumerate_partitions(&blocks_of(5)).len(), 16);
    }

    #[test]
    fn every_partition_preserves_order_and_covers_all_nodes() {
        let blocks = blocks_of(4);
        for p in enumerate_partitions(&blocks) {
            let flat: Vec<NodeId> = p.stages().iter().flatten().copied().collect();
            assert_eq!(flat, (0..4).map(NodeId).collect::<Vec<_>>());
        }
    }

    #[test]
    fn cv_zero_for_perfectly_balanced() {
        let p = PipelinePartition::new(vec![vec![NodeId(0)], vec![NodeId(1)]]);
        assert_eq!(p.cv(|_| 10.0), 0.0);
    }

    #[test]
    fn cv_matches_equation_1() {
        // Stages with costs [10, 20, 30]: mean 20, std sqrt(200/3).
        let p = PipelinePartition::new(vec![vec![NodeId(0)], vec![NodeId(1)], vec![NodeId(2)]]);
        let cost = |n: NodeId| (n.0 as f64 + 1.0) * 10.0;
        let expected = (200.0f64 / 3.0).sqrt() / 20.0;
        assert!((p.cv(cost) - expected).abs() < 1e-12);
    }

    #[test]
    fn ranking_prefers_balanced_pipelines_among_equal_depth() {
        // Work [10, 10, 20]: among 2-stage partitions, [n0,n1|n2] has
        // stages (20, 20) → CV 0; [n0|n1,n2] has (10, 30) → CV 0.5.
        let blocks = blocks_of(3);
        let cost = |n: NodeId| if n.0 == 2 { 20.0 } else { 10.0 };
        let ranked = rank_partitions(&blocks, cost, usize::MAX);
        let two_stage: Vec<&RankedPartition> = ranked
            .iter()
            .filter(|r| r.partition.num_stages() == 2)
            .collect();
        assert_eq!(
            two_stage[0].partition.stages()[0],
            vec![NodeId(0), NodeId(1)]
        );
        assert!(two_stage[0].cv < two_stage[1].cv);
    }

    #[test]
    fn monolithic_sorts_first() {
        let ranked = rank_partitions(&blocks_of(3), |_| 10.0, usize::MAX);
        assert!(ranked[0].partition.is_monolithic());
        // Balanced multi-stage partitions also have CV 0 but more stages.
        assert_eq!(ranked[0].cv, 0.0);
    }

    #[test]
    fn max_stages_filter() {
        let ranked = rank_partitions(&blocks_of(5), |_| 1.0, 2);
        assert!(ranked.iter().all(|r| r.partition.num_stages() <= 2));
        assert_eq!(ranked.len(), 1 + 4); // monolithic + 4 two-stage cuts
    }

    #[test]
    fn stage_mem_and_max() {
        let dag = chain_dag(&[1.0, 1.0, 1.0]);
        let mut p = PipelinePartition::new(vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2)]]);
        // chain_dag gives each node 1.0 GB.
        assert_eq!(p.stage_mem_gb(&dag), vec![2.0, 1.0]);
        assert_eq!(p.max_stage_mem_gb(&dag), 2.0);
        p = PipelinePartition::new(vec![vec![NodeId(0)], vec![NodeId(1)], vec![NodeId(2)]]);
        assert_eq!(p.max_stage_mem_gb(&dag), 1.0);
    }

    #[test]
    fn boundary_transfers_follow_crossing_tensors() {
        let dag = chain_dag(&[1.0, 1.0, 1.0]); // each output is 5 MB
        let p = PipelinePartition::new(vec![vec![NodeId(0)], vec![NodeId(1), NodeId(2)]]);
        assert_eq!(p.boundary_transfers_mb(&dag), vec![5.0]);
        let mono = PipelinePartition::new(vec![vec![NodeId(0), NodeId(1), NodeId(2)]]);
        assert!(mono.boundary_transfers_mb(&dag).is_empty());
    }

    #[test]
    fn malformed_specs_error_instead_of_panicking() {
        assert_eq!(
            try_enumerate_partitions(&[]).unwrap_err(),
            PartitionError::NoBlocks
        );
        let too_many = blocks_of(25);
        assert_eq!(
            try_enumerate_partitions(&too_many).unwrap_err(),
            PartitionError::TooManyBlocks(25)
        );
        let holey = vec![vec![NodeId(0)], vec![], vec![NodeId(1)]];
        assert_eq!(
            try_enumerate_partitions(&holey).unwrap_err(),
            PartitionError::EmptyBlock(1)
        );
        assert_eq!(
            try_rank_partitions(&[], |_| 1.0, usize::MAX).unwrap_err(),
            PartitionError::NoBlocks
        );
    }

    #[test]
    fn non_finite_costs_error_instead_of_panicking() {
        let blocks = blocks_of(3);
        let err = try_rank_partitions(
            &blocks,
            |n| if n.0 == 1 { f64::NAN } else { 1.0 },
            usize::MAX,
        )
        .unwrap_err();
        assert_eq!(err, PartitionError::NonFiniteCost(1));
        assert!(err.to_string().contains("non-finite"));
    }

    #[test]
    fn try_rank_matches_infallible_on_valid_input() {
        let blocks = blocks_of(4);
        let cost = |n: NodeId| n.0 as f64 + 1.0;
        let a = rank_partitions(&blocks, cost, usize::MAX);
        let b = try_rank_partitions(&blocks, cost, usize::MAX).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn ranking_is_deterministic() {
        let blocks = blocks_of(4);
        let a = rank_partitions(&blocks, |n| n.0 as f64 + 1.0, usize::MAX);
        let b = rank_partitions(&blocks, |n| n.0 as f64 + 1.0, usize::MAX);
        assert_eq!(
            a.iter().map(|r| r.partition.clone()).collect::<Vec<_>>(),
            b.iter().map(|r| r.partition.clone()).collect::<Vec<_>>()
        );
    }
}
