//! Planning: from ranked partitions + free slices to a deployable plan.

use ffs_dag::{NodeId, PipelinePartition};
use ffs_mig::fleet::FreeSlice;
use ffs_mig::{SliceId, SliceProfile};
use ffs_profile::FunctionProfile;

/// One stage of a planned deployment: which components run on which slice.
#[derive(Clone, Debug, PartialEq)]
pub struct StagePlan {
    /// The DAG nodes executed by this stage, in topological order.
    pub nodes: Vec<NodeId>,
    /// The MIG slice hosting the stage.
    pub slice: SliceId,
    /// The slice's profile.
    pub profile: SliceProfile,
    /// The stage's memory footprint in GB.
    pub mem_gb: f64,
}

/// A deployable instance configuration: the partition plus its
/// stage-to-slice assignment. A single-stage plan is a conventional
/// (non-pipelined) deployment.
#[derive(Clone, Debug, PartialEq)]
pub struct DeploymentPlan {
    /// The chosen partition.
    pub partition: PipelinePartition,
    /// Per-stage slice assignments, in pipeline order.
    pub stages: Vec<StagePlan>,
    /// The CV balance score of the chosen partition.
    pub cv: f64,
}

impl DeploymentPlan {
    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// True for a conventional non-pipelined deployment.
    pub fn is_monolithic(&self) -> bool {
        self.stages.len() == 1
    }

    /// The slices used by this plan.
    pub fn slices(&self) -> Vec<SliceId> {
        self.stages.iter().map(|s| s.slice).collect()
    }

    /// The slice profiles per stage.
    pub fn slice_profiles(&self) -> Vec<SliceProfile> {
        self.stages.iter().map(|s| s.profile).collect()
    }

    /// Total GPCs consumed.
    pub fn total_gpcs(&self) -> u32 {
        self.stages.iter().map(|s| s.profile.gpcs()).sum()
    }
}

/// Tries to assign each stage (by memory demand) a distinct free slice.
///
/// Greedy, largest demand first, smallest fitting slice: for
/// one-dimensional capacities this succeeds whenever any assignment does.
/// Returns per-stage slice picks in the original stage order.
fn assign_slices(
    stage_mems: &[f64],
    min_gpcs_stage0: u32,
    free: &[FreeSlice],
) -> Option<Vec<FreeSlice>> {
    let mut order: Vec<usize> = (0..stage_mems.len()).collect();
    // Sort by descending demand; put GPC-constrained stages first among
    // equals so they get first pick.
    order.sort_by(|&a, &b| {
        stage_mems[b]
            .partial_cmp(&stage_mems[a])
            .expect("finite memory")
            .then_with(|| a.cmp(&b))
    });
    let mut available: Vec<FreeSlice> = free.to_vec();
    // Deterministic: smallest profile first, then by id.
    available.sort_by_key(|s| (s.profile, s.id));
    let mut picks: Vec<Option<FreeSlice>> = vec![None; stage_mems.len()];
    for &idx in &order {
        let need_gpcs = if idx == 0 && stage_mems.len() == 1 {
            min_gpcs_stage0
        } else {
            1
        };
        let pos = available.iter().position(|s| {
            s.profile.fits_memory(stage_mems[idx]) && s.profile.gpcs() >= need_gpcs
        })?;
        picks[idx] = Some(available.remove(pos));
    }
    Some(
        picks
            .into_iter()
            .map(|p| p.expect("all assigned"))
            .collect(),
    )
}

/// Plans a deployment of `profile` onto the currently free slices.
///
/// Walks the CV-ranked partition list (monolithic first) and returns the
/// first partition for which every stage can be assigned a distinct free
/// slice with sufficient memory (and, for monolithic plans, the compute
/// floor of Table 5). Returns `None` when no partition fits — the function
/// must wait or time-share.
pub fn plan_deployment(profile: &FunctionProfile, free: &[FreeSlice]) -> Option<DeploymentPlan> {
    plan_from_list(profile, free, profile.ranked_partitions())
}

/// Like [`plan_deployment`] but *without* CV ranking: partitions are tried
/// in raw enumeration order (monolithic first, then arbitrary cut
/// patterns). This is the ablation arm for the paper's balanced-pipeline
/// selection — it deploys the first partition that fits, balanced or not.
pub fn plan_deployment_unranked(
    profile: &FunctionProfile,
    free: &[FreeSlice],
) -> Option<DeploymentPlan> {
    // A malformed block spec yields "nothing deployable", never a panic.
    let list: Vec<ffs_dag::RankedPartition> = ffs_dag::try_enumerate_partitions(&profile.blocks)
        .ok()?
        .into_iter()
        .map(|p| {
            let stage_costs =
                p.stage_costs(|n| profile.node_exec_ms(n, ffs_mig::SliceProfile::G1_10));
            let cv = p.cv(|n| profile.node_exec_ms(n, ffs_mig::SliceProfile::G1_10));
            ffs_dag::RankedPartition {
                partition: p,
                cv,
                stage_costs,
            }
        })
        .collect();
    plan_from_list(profile, free, &list)
}

/// The trace-facing account of a planning decision: which rank won and why
/// every higher-ranked partition was passed over.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanExplanation {
    /// Rank of the deployed partition within the candidate list.
    pub chosen_rank: u32,
    /// Candidates ranked above the winner, with their rejection reasons.
    pub rejected: Vec<ffs_obs::RejectedCandidate>,
}

/// Reconstructs why `plan_from_list`-style planning settled on `plan`:
/// walks `list` up to the deployed partition and classifies each rejection.
///
/// Pure and side-effect-free — intended to run only when tracing is
/// enabled, after a plan has been produced, so the planning hot path stays
/// untouched.
pub fn explain_plan(
    profile: &FunctionProfile,
    free: &[FreeSlice],
    plan: &DeploymentPlan,
    list: &[ffs_dag::RankedPartition],
) -> PlanExplanation {
    let mut rejected = Vec::new();
    for (rank, ranked) in list.iter().enumerate() {
        if ranked.partition == plan.partition {
            return PlanExplanation {
                chosen_rank: rank as u32,
                rejected,
            };
        }
        rejected.push(ffs_obs::RejectedCandidate {
            rank: rank as u32,
            stages: ranked.partition.num_stages() as u32,
            cv: ranked.cv,
            reason: classify_rejection(profile, ranked, free),
        });
    }
    // The deployed partition was not in the list (shouldn't happen for
    // plans produced from it); report it as rank = list length.
    PlanExplanation {
        chosen_rank: list.len() as u32,
        rejected,
    }
}

/// Why a single candidate partition could not be hosted on `free`.
fn classify_rejection(
    profile: &FunctionProfile,
    ranked: &ffs_dag::RankedPartition,
    free: &[FreeSlice],
) -> ffs_obs::RejectReason {
    let partition = &ranked.partition;
    let stage_mems = partition.stage_mem_gb(&profile.dag);
    let min_gpcs = if partition.is_monolithic() {
        profile.min_gpcs_mono
    } else {
        1
    };
    for &mem in &stage_mems {
        if !free.iter().any(|s| s.profile.fits_memory(mem)) {
            return ffs_obs::RejectReason::MemoryNoFit;
        }
        if !free
            .iter()
            .any(|s| s.profile.fits_memory(mem) && s.profile.gpcs() >= min_gpcs)
        {
            // Memory-fitting slices exist but none meets the monolithic
            // compute floor (Table 5).
            return ffs_obs::RejectReason::ComputeFloor;
        }
    }
    // Every stage fits *some* free slice individually; the distinct
    // assignment failed, i.e. the paper's resource fragmentation.
    ffs_obs::RejectReason::Fragmentation
}

fn plan_from_list(
    profile: &FunctionProfile,
    free: &[FreeSlice],
    list: &[ffs_dag::RankedPartition],
) -> Option<DeploymentPlan> {
    for ranked in list {
        let partition = &ranked.partition;
        let stage_mems = partition.stage_mem_gb(&profile.dag);
        let min_gpcs = if partition.is_monolithic() {
            profile.min_gpcs_mono
        } else {
            1
        };
        if let Some(picks) = assign_slices(&stage_mems, min_gpcs, free) {
            let stages = partition
                .stages()
                .iter()
                .zip(&picks)
                .zip(&stage_mems)
                .map(|((nodes, pick), &mem_gb)| StagePlan {
                    nodes: nodes.clone(),
                    slice: pick.id,
                    profile: pick.profile,
                    mem_gb,
                })
                .collect();
            return Some(DeploymentPlan {
                partition: partition.clone(),
                stages,
                cv: ranked.cv,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffs_mig::{Fleet, NodeId as MigNodeId, PartitionScheme};
    use ffs_profile::{App, PerfModel, Variant};

    // Silence the unused-import lint trap: fleet's NodeId is not dag's.
    #[allow(unused)]
    fn _t(_: MigNodeId) {}

    fn profile(app: App, variant: Variant) -> FunctionProfile {
        FunctionProfile::build(app, variant, &PerfModel::default())
    }

    fn free_of(fleet: &Fleet) -> Vec<FreeSlice> {
        fleet.free_slices(None)
    }

    #[test]
    fn monolithic_preferred_when_big_slice_free() {
        let fleet = Fleet::new(1, 1, &PartitionScheme::p1()).unwrap();
        let p = profile(App::ImageClassification, Variant::Medium);
        let plan = plan_deployment(&p, &free_of(&fleet)).unwrap();
        assert!(plan.is_monolithic());
        // Smallest fitting slice picked: the 2g.20gb, not the 4g.40gb.
        assert_eq!(plan.stages[0].profile, SliceProfile::G2_20);
    }

    #[test]
    fn pipeline_built_from_fragments_when_no_big_slice() {
        // Only 1g.10gb slices free: medium app must pipeline (Figure 4 c/d).
        let fleet = Fleet::new(
            1,
            1,
            &PartitionScheme::Uniform(ffs_mig::PartitionLayout::preset_seven_small()),
        )
        .unwrap();
        let p = profile(App::ImageClassification, Variant::Medium);
        let plan = plan_deployment(&p, &free_of(&fleet)).unwrap();
        assert!(!plan.is_monolithic());
        assert!(plan.num_stages() >= 2);
        for s in &plan.stages {
            assert_eq!(s.profile, SliceProfile::G1_10);
            assert!(s.mem_gb <= 10.0);
        }
    }

    #[test]
    fn balanced_partition_chosen_among_feasible() {
        // With plenty of 1g slices, the chosen pipeline is the lowest-CV
        // multi-stage partition that fits.
        let fleet = Fleet::new(
            1,
            2,
            &PartitionScheme::Uniform(ffs_mig::PartitionLayout::preset_seven_small()),
        )
        .unwrap();
        let p = profile(App::DepthRecognition, Variant::Medium);
        let plan = plan_deployment(&p, &free_of(&fleet)).unwrap();
        let ranked = p.ranked_partitions();
        // The plan's partition must be the first feasible in rank order;
        // all multi-stage partitions of a 3-chain fit 1g slices, so it is
        // the first non-monolithic entry.
        let first_multi = ranked
            .iter()
            .find(|r| {
                !r.partition.is_monolithic() && {
                    r.partition.stage_mem_gb(&p.dag).iter().all(|&m| m <= 10.0)
                }
            })
            .unwrap();
        assert_eq!(plan.partition, first_multi.partition);
        assert!((plan.cv - first_multi.cv).abs() < 1e-12);
    }

    #[test]
    fn infeasible_when_no_resources() {
        let p = profile(App::ImageClassification, Variant::Large);
        assert_eq!(plan_deployment(&p, &[]), None);
        // Large needs 2g.20gb stages; 1g-only fleets cannot host it at all.
        let fleet = Fleet::new(
            1,
            1,
            &PartitionScheme::Uniform(ffs_mig::PartitionLayout::preset_seven_small()),
        )
        .unwrap();
        assert_eq!(plan_deployment(&p, &free_of(&fleet)), None);
    }

    #[test]
    fn compute_floor_respected_for_monolithic() {
        // Expanded-medium needs >= 4 GPCs monolithic (Table 5): a 3g.40gb
        // slice has the memory but not the compute, so with only a 3g free
        // the planner must pipeline instead.
        let fleet = Fleet::new(
            1,
            1,
            &PartitionScheme::Uniform(ffs_mig::PartitionLayout::preset_two_large()),
        )
        .unwrap();
        let p = profile(App::ExpandedImageClassification, Variant::Medium);
        // Free: 4g.40gb + 3g.40gb. Monolithic fits the 4g.
        let plan = plan_deployment(&p, &free_of(&fleet)).unwrap();
        assert!(plan.is_monolithic());
        assert_eq!(plan.stages[0].profile, SliceProfile::G4_40);

        // Occupy the 4g: only the 3g remains -> must pipeline... but a
        // single 3g slice cannot host a >= 2-stage pipeline of a 30 GB
        // function? It can: two stages don't fit one slice, so planning
        // fails on one slice; with the 3g alone the only option would be
        // monolithic (compute floor fails) -> None.
        let mut fleet2 = fleet.clone();
        let fourg = fleet2
            .free_slices(None)
            .into_iter()
            .find(|s| s.profile == SliceProfile::G4_40)
            .unwrap();
        fleet2.allocate(fourg.id).unwrap();
        assert_eq!(plan_deployment(&p, &free_of(&fleet2)), None);
    }

    #[test]
    fn large_app_monolithic_on_4g_else_pipelined() {
        let mut fleet = Fleet::new(1, 2, &PartitionScheme::p1()).unwrap();
        let p = profile(App::ImageClassification, Variant::Large);
        // The 4g.40gb can host the ~30 GB monolith ("ESG can only use the
        // 4g.40gb slices in heavy workloads").
        let plan = plan_deployment(&p, &free_of(&fleet)).unwrap();
        assert!(plan.is_monolithic());
        assert_eq!(plan.stages[0].profile, SliceProfile::G4_40);
        // With both 4g slices occupied, FluidFaaS still deploys: a pipeline
        // over the fragmented 2g + 1g slices of the node.
        for s in fleet
            .free_slices(None)
            .into_iter()
            .filter(|s| s.profile == SliceProfile::G4_40)
            .collect::<Vec<_>>()
        {
            fleet.allocate(s.id).unwrap();
        }
        let plan = plan_deployment(&p, &free_of(&fleet)).unwrap();
        assert!(!plan.is_monolithic());
        let mut slices = plan.slices();
        slices.sort();
        slices.dedup();
        assert_eq!(slices.len(), plan.num_stages(), "no slice reuse");
    }

    #[test]
    fn explain_plan_reports_rank_and_rejections() {
        // Only 1g.10gb slices free: the monolith (rank 0) cannot fit, so
        // the chosen pipeline sits at a later rank and every earlier rank
        // carries a rejection reason.
        let fleet = Fleet::new(
            1,
            1,
            &PartitionScheme::Uniform(ffs_mig::PartitionLayout::preset_seven_small()),
        )
        .unwrap();
        let p = profile(App::ImageClassification, Variant::Medium);
        let free = free_of(&fleet);
        let plan = plan_deployment(&p, &free).unwrap();
        assert!(!plan.is_monolithic());
        let ex = explain_plan(&p, &free, &plan, p.ranked_partitions());
        assert!(ex.chosen_rank >= 1);
        assert_eq!(ex.rejected.len(), ex.chosen_rank as usize);
        // Rank 0 is the monolith; a ~14 GB model on 10 GB slices is a
        // memory rejection.
        assert_eq!(ex.rejected[0].rank, 0);
        assert_eq!(ex.rejected[0].stages, 1);
        assert_eq!(ex.rejected[0].reason, ffs_obs::RejectReason::MemoryNoFit);
    }

    #[test]
    fn explain_plan_monolithic_choice_has_no_rejections() {
        let fleet = Fleet::new(1, 1, &PartitionScheme::p1()).unwrap();
        let p = profile(App::ImageClassification, Variant::Medium);
        let free = free_of(&fleet);
        let plan = plan_deployment(&p, &free).unwrap();
        assert!(plan.is_monolithic());
        let ex = explain_plan(&p, &free, &plan, p.ranked_partitions());
        assert_eq!(ex.chosen_rank, 0);
        assert!(ex.rejected.is_empty());
    }

    #[test]
    fn plan_accessors() {
        let fleet = Fleet::new(1, 1, &PartitionScheme::p1()).unwrap();
        let p = profile(App::ImageClassification, Variant::Small);
        let plan = plan_deployment(&p, &free_of(&fleet)).unwrap();
        assert_eq!(plan.slice_profiles().len(), plan.num_stages());
        assert!(plan.total_gpcs() >= 1);
    }
}
