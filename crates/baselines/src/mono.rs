//! The monolithic baseline platforms shared by ESG and INFless+MIG,
//! expressed as policy bundles over the shared `fluidfaas` engine.
//!
//! Both baselines view a serverless function as a single unit: every
//! component runs on one MIG slice that must hold the whole function
//! (Table 5, "MIG to run (Baseline)"). They differ in placement and
//! routing policy:
//!
//! * **ESG** picks the most resource-efficient (smallest viable) slice and
//!   routes deadline-aware to the lowest-latency instance with capacity.
//! * **INFless+MIG** grabs the largest free slice (throughput-greedy
//!   placement) and routes FIFO to the first instance with capacity.
//!
//! Both keep idle instances alive exclusively on their slices until a long
//! keep-alive expires — the "exclusive keep-alive" policy whose waste §4
//! quantifies (Figure 5). Neither time-shares slices nor migrates, so they
//! run with the engine's no-op shared pool and migrator.

use ffs_mig::NodeId;
use ffs_pipeline::DeploymentPlan;
use ffs_sim::{Scheduler, SimTime};

use fluidfaas::platform::catalog::FuncId;
use fluidfaas::platform::engine::{EngineCore, MAX_LAUNCHES_PER_TICK};
use fluidfaas::platform::events::{Event, InstanceId};
use fluidfaas::platform::policy::{
    lowest_latency_instance, route_to_instance, Autoscaler, NoMigrator, NoSharedPool, Placer,
    PolicyBundle, Router, SharedPoolPolicy,
};

/// Which baseline policy the system runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BaselineKind {
    /// ESG (HPDC'24): resource-efficient placement, deadline-aware routing.
    Esg,
    /// INFless with MIG support: largest-slice placement, FIFO routing.
    Infless,
}

impl BaselineKind {
    /// Display name.
    pub const fn name(self) -> &'static str {
        match self {
            BaselineKind::Esg => "ESG",
            BaselineKind::Infless => "INFless",
        }
    }
}

/// Baseline routing: ESG deadline-aware, INFless FIFO. No overflow path —
/// whatever the exclusive fleet cannot admit stays in the backlog.
pub struct BaselineRouter {
    /// The baseline's policy kind.
    pub kind: BaselineKind,
}

impl Router for BaselineRouter {
    fn dispatch(
        &self,
        core: &mut EngineCore,
        _shared: &dyn SharedPoolPolicy,
        f: FuncId,
        now: SimTime,
        sched: &mut Scheduler<Event>,
    ) {
        while let Some(&req) = core.pending[f].front() {
            let slo = core.catalog.slo_ms(f);
            let chosen: Option<InstanceId> = match self.kind {
                // Deadline-aware: lowest-latency instance with capacity.
                BaselineKind::Esg => lowest_latency_instance(core, f, slo),
                // FIFO: first instance (by id) with capacity. The routing
                // index is exactly the admissible set in ascending id
                // order, so its head is the same winner the filtered
                // per-function scan produced (cross-checked in debug).
                BaselineKind::Infless => {
                    let head = core
                        .instances
                        .admissible_of(f)
                        .first()
                        .map(|&idx| InstanceId(idx as u64));
                    debug_assert_eq!(
                        head,
                        core.instances_of[f]
                            .iter()
                            .copied()
                            .find(|&id| core.instances.has_admission_capacity(id)),
                        "routing index disagrees with the FIFO scan for function {f}"
                    );
                    head
                }
            };
            let Some(id) = chosen else { break };
            route_to_instance(core, id, req, now, sched);
            core.pending[f].pop_front();
        }
    }
}

/// Baseline placement: one slice holds the whole function, chosen per the
/// baseline's preference order.
pub struct BaselinePlacer {
    /// The baseline's policy kind.
    pub kind: BaselineKind,
}

impl BaselinePlacer {
    /// The free slice a new instance gets, per the baseline policy.
    fn pick_slice(&self, core: &EngineCore, f: FuncId) -> Option<ffs_mig::fleet::FreeSlice> {
        let p = core.catalog.profile(f);
        let min_mem = p.total_mem_gb();
        let min_gpcs = p.min_gpcs_mono;
        let mut viable: Vec<ffs_mig::fleet::FreeSlice> = core
            .fleet
            .free_slices(None)
            .into_iter()
            .filter(|s| s.profile.fits_memory(min_mem) && s.profile.gpcs() >= min_gpcs)
            .collect();
        match self.kind {
            BaselineKind::Esg => {
                // ESG's dual-blade search yields a GPC-efficiency preference
                // order over slice types (most resource-efficient meeting
                // the SLO first); place on the best-preferred free slice.
                let pref = crate::esg_search::placement_preference(p, core.catalog.slo_ms(f));
                let rank = |s: &ffs_mig::fleet::FreeSlice| {
                    pref.iter()
                        .position(|&q| q == s.profile)
                        .unwrap_or(usize::MAX)
                };
                viable.sort_by_key(|s| (rank(s), s.id));
            }
            BaselineKind::Infless => {
                // Throughput-greedy: largest slice first.
                viable.sort_by_key(|s| (std::cmp::Reverse(s.profile), s.id));
            }
        }
        viable.into_iter().next()
    }
}

impl Placer for BaselinePlacer {
    fn place(&self, core: &mut EngineCore, f: FuncId) -> Option<(DeploymentPlan, NodeId)> {
        let pick = self.pick_slice(core, f)?;
        let profile = core.catalog.profile(f);
        let all: Vec<ffs_dag::NodeId> = profile.dag.nodes().collect();
        let partition = ffs_dag::PipelinePartition::new(vec![all.clone()]);
        let plan = DeploymentPlan {
            partition,
            stages: vec![ffs_pipeline::plan::StagePlan {
                nodes: all,
                slice: pick.id,
                profile: pick.profile,
                mem_gb: profile.total_mem_gb(),
            }],
            cv: 0.0,
        };
        let node = core.fleet.node_id_of(pick.id.gpu).expect("valid gpu");
        Some((plan, node))
    }
}

/// Baseline scaling: reactive scale-up plus the exclusive keep-alive —
/// idle instances hold their slice until `baseline_keep_alive` expires.
pub struct BaselineAutoscaler;

impl Autoscaler for BaselineAutoscaler {
    fn on_arrival(&self, _core: &mut EngineCore, _f: FuncId) {}

    fn scale(
        &self,
        core: &mut EngineCore,
        placer: &dyn Placer,
        now: SimTime,
        sched: &mut Scheduler<Event>,
    ) {
        // Scale up. Only functions that have ever seen an arrival can be
        // pressured (demand and backlog both rest at zero otherwise), so
        // the sweep walks the engine's active set instead of the catalog.
        for fi in 0..core.active_funcs.len() {
            let f = core.active_funcs[fi];
            for _ in 0..MAX_LAUNCHES_PER_TICK {
                let cap = core.capacity_rps(f);
                // Epsilon floor: the demand EWMA never decays to exactly
                // zero, so an idle function must not oscillate between
                // releasing and re-acquiring its slice.
                let pressured = core.demand_rps[f] > (cap * core.cfg.scaleup_headroom).max(1e-6)
                    || core.pending[f].len() > 1;
                if !pressured {
                    break;
                }
                let Some((plan, node)) = placer.place(core, f) else {
                    break;
                };
                core.launch(f, plan, node, now, sched);
            }
        }
        // Exclusive keep-alive: release only after a long idle period.
        let ids: Vec<InstanceId> = core.instances.keys().collect();
        for id in ids {
            let (idle_for, empty, f, throughput) = {
                let inst = core.instances.get(&id).expect("live");
                (
                    now.saturating_since(inst.last_used),
                    inst.is_empty() && inst.is_ready(),
                    inst.func,
                    inst.est.throughput_rps,
                )
            };
            if empty && idle_for >= core.cfg.baseline_keep_alive {
                let remaining = core.capacity_rps(f) - throughput;
                let target = core.demand_rps[f] / core.cfg.scaleup_headroom;
                if remaining >= target || core.demand_rps[f] < 1e-6 {
                    core.retire_instance(id, now);
                }
            }
        }
    }

    fn keep_alive(&self, _core: &mut EngineCore, _now: SimTime) {}
}

/// The policy bundle a baseline kind selects: its router and placer over
/// the shared engine, reactive scaling with exclusive keep-alive, and no
/// time sharing or migration.
pub fn baseline_policies(kind: BaselineKind) -> PolicyBundle {
    PolicyBundle {
        router: Box::new(BaselineRouter { kind }),
        shared: Box::new(NoSharedPool),
        autoscaler: Box::new(BaselineAutoscaler),
        migrator: Box::new(NoMigrator),
        placer: Box::new(BaselinePlacer { kind }),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ffs_mig::SliceProfile;
    use ffs_trace::{AzureTraceConfig, Trace, WorkloadClass};
    use fluidfaas::platform::runner::run_platform;
    use fluidfaas::{Engine, FfsConfig};

    fn baseline_engine(kind: BaselineKind, cfg: FfsConfig, trace: &Trace) -> Engine {
        Engine::new(cfg, baseline_policies(kind), trace).unwrap()
    }

    fn run(
        kind: BaselineKind,
        workload: WorkloadClass,
        secs: f64,
        seed: u64,
    ) -> fluidfaas::platform::runner::RunOutput {
        let cfg = FfsConfig::paper_default(workload);
        let trace = AzureTraceConfig::for_workload(workload, secs, seed).generate();
        run_platform(&mut baseline_engine(kind, cfg, &trace), &trace)
    }

    /// The slice profiles the live instances hold (which slices a baseline
    /// actually uses, as in Figure 3(b)).
    fn allocated_profiles(engine: &Engine) -> Vec<SliceProfile> {
        engine
            .core
            .instances
            .values()
            .map(|i| i.plan.stages[0].profile)
            .collect()
    }

    #[test]
    fn esg_light_workload_is_healthy() {
        let out = run(BaselineKind::Esg, WorkloadClass::Light, 60.0, 1);
        assert!(
            out.log.slo_hit_rate() > 0.85,
            "ESG light hit rate {}",
            out.log.slo_hit_rate()
        );
    }

    #[test]
    fn esg_uses_smallest_viable_slice() {
        let cfg = FfsConfig::test_small(WorkloadClass::Light);
        let trace = AzureTraceConfig::steady(WorkloadClass::Light.apps(), 5.0, 2.0, 3).generate();
        let mut sys = baseline_engine(BaselineKind::Esg, cfg, &trace);
        let _ = run_platform(&mut sys, &trace);
        // Small variants fit 1g.10gb; ESG must have picked small slices
        // first (some spill to bigger ones as 1g slices run out).
        let profiles = allocated_profiles(&sys);
        assert!(profiles.contains(&SliceProfile::G1_10), "{profiles:?}");
    }

    #[test]
    fn infless_grabs_large_slices_first() {
        let cfg = FfsConfig::test_small(WorkloadClass::Light);
        let trace = AzureTraceConfig::steady(WorkloadClass::Light.apps(), 5.0, 2.0, 3).generate();
        let mut sys = baseline_engine(BaselineKind::Infless, cfg, &trace);
        let _ = run_platform(&mut sys, &trace);
        let profiles = allocated_profiles(&sys);
        assert!(profiles.contains(&SliceProfile::G4_40), "{profiles:?}");
    }

    #[test]
    fn heavy_workload_baseline_cannot_use_small_slices() {
        // Large variants need >= 3g.40gb monolithic: on the P1 partition
        // only 4g.40gb slices qualify, so at most one instance per GPU.
        let out = run(BaselineKind::Esg, WorkloadClass::Heavy, 60.0, 7);
        let gpus = 16.0;
        // Allocated GPCs can never exceed 4 per GPU for instances (the 2g
        // and 1g slices are unusable) — check the recorded peak.
        let peak = out
            .allocated_gpcs
            .iter()
            .map(|&(_, v)| v)
            .fold(0.0, f64::max);
        assert!(peak <= 4.0 * gpus + 1e-9, "peak {peak}");
    }

    #[test]
    fn deterministic() {
        let a = run(BaselineKind::Esg, WorkloadClass::Medium, 30.0, 5);
        let b = run(BaselineKind::Esg, WorkloadClass::Medium, 30.0, 5);
        assert_eq!(a.log.slo_hit_rate(), b.log.slo_hit_rate());
    }
}
