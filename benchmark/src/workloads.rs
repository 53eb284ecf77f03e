//! The four workloads and how each builds its inputs from a seed.
//!
//! A workload is a closed loop of simulation runs: one run starts when the
//! previous one returns. Inputs (traces, configs, policy choices) are built
//! once per benchmark process; the timed passes only simulate.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ffs_baselines::{baseline_policies, BaselineKind};
use ffs_experiments::resilience::MTBF_SWEEP;
use ffs_experiments::runner::{run_fluid_with, run_system, saturating_trace, SystemKind};
use ffs_mig::PartitionScheme;
use ffs_sim::SimDuration;
use ffs_trace::{AzureTraceConfig, CellTrace, ScaleTraceConfig, Trace, WorkloadClass};
use fluidfaas::platform::policy::{NoMigrator, NoSharedPool};
use fluidfaas::platform::RunOutput;
use fluidfaas::{
    paper_policies, FaultSpec, FfsConfig, FluidAutoscaler, FluidMigrator, FluidPlacer, FluidRouter,
    FluidSharedPool, PolicyBundle, ScalingPolicy,
};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `exp_all`'s simulation set.
    PaperSweep,
    /// The three systems on saturating Medium and Heavy traces.
    SaturatedBacklog,
    /// The three systems on one long, lightly loaded diurnal cycle.
    LightDiurnal,
    /// The sharded engine on a 1024-GPU fleet.
    Fleet1024Sharded,
}

/// Trace length of the paper sweep, as `exp_all` runs it.
const PAPER_SECS: f64 = 300.0;
/// Trace length of `saturated_backlog`.
const SATURATED_SECS: f64 = 1200.0;
/// Trace length of `light_diurnal`: one compressed diurnal cycle.
const DIURNAL_SECS: f64 = 3600.0;
/// The `multicore_probe` fleet: GPUs, nodes of 8, cells, trace seconds.
const FLEET_GPUS: usize = 1024;
const FLEET_CELLS: usize = 64;
const FLEET_SECS: f64 = 60.0;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperSweep,
        Workload::SaturatedBacklog,
        Workload::LightDiurnal,
        Workload::Fleet1024Sharded,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::SaturatedBacklog => "saturated_backlog",
            Workload::LightDiurnal => "light_diurnal",
            Workload::Fleet1024Sharded => "fleet1024_sharded",
        }
    }

    /// Why the workload is in the benchmark (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperSweep => {
                "exp_all's 78 runs at 300 s: every layer in the paper's proportions, per-run set-up counts, and identical specs repeat up to 5x"
            }
            Workload::SaturatedBacklog => {
                "saturating Medium/Heavy traces, 1200 s: queues reach 1e5 and most requests never finish, so routing, shared pool and finalize dominate"
            }
            Workload::LightDiurnal => {
                "Light bursty trace over one 3600 s diurnal cycle: arrivals find warm instances, handlers are cheapest and the event loop is half the run"
            }
            Workload::Fleet1024Sharded => {
                "1024 GPUs in 64 cells, 65,536 tenant functions: the only sharded and multi-core workload, with epoch barriers and the most placements"
            }
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Builds the workload's inputs from `seed`, synthesizing every trace
    /// from scratch (the experiment crate's trace cache is not used).
    pub fn build(self, seed: u64) -> Built {
        let mut synth = Synth::default();
        let inputs = match self {
            Workload::PaperSweep => Inputs::Solo(paper_sweep(&mut synth, seed)),
            Workload::SaturatedBacklog => {
                let mut sims = Vec::new();
                for w in [WorkloadClass::Medium, WorkloadClass::Heavy] {
                    let trace = synth.trace(|| saturating_trace(w, SATURATED_SECS, seed));
                    for system in SystemKind::ALL {
                        sims.push(Sim::new(system, FfsConfig::paper_default(w), &trace));
                    }
                }
                Inputs::Solo(sims)
            }
            Workload::LightDiurnal => {
                let w = WorkloadClass::Light;
                let trace = synth
                    .trace(|| AzureTraceConfig::for_workload(w, DIURNAL_SECS, seed).generate());
                let sims = SystemKind::ALL
                    .into_iter()
                    .map(|system| Sim::new(system, FfsConfig::paper_default(w), &trace))
                    .collect();
                Inputs::Solo(sims)
            }
            Workload::Fleet1024Sharded => Inputs::Fleet(Box::new(fleet(&mut synth, seed))),
        };
        Built {
            inputs,
            synth: synth.wall,
            invocations: synth.invocations,
        }
    }
}

/// A workload's inputs plus what synthesizing its traces cost.
pub struct Built {
    /// The simulations to run.
    pub inputs: Inputs,
    /// Wall time spent inside trace synthesis.
    pub synth: Duration,
    /// Invocations synthesized, over every distinct trace.
    pub invocations: u64,
}

/// The simulations of a workload.
pub enum Inputs {
    /// Independent single-engine runs, executed one after another.
    Solo(Vec<Sim>),
    /// One sharded-engine run.
    Fleet(Box<Fleet>),
}

/// Times trace synthesis and counts what it produced.
#[derive(Default)]
struct Synth {
    wall: Duration,
    invocations: u64,
}

impl Synth {
    fn trace(&mut self, make: impl FnOnce() -> Trace) -> Arc<Trace> {
        let t0 = Instant::now();
        let trace = make();
        self.wall += t0.elapsed();
        self.invocations += trace.invocations.len() as u64;
        Arc::new(trace)
    }
}

/// A substitute policy bundle (an ablation arm).
pub type Arm = fn() -> PolicyBundle;

/// One single-engine simulation run.
pub struct Sim {
    /// The system simulated.
    pub system: SystemKind,
    /// A substitute FluidFaaS policy bundle; `None` runs the system's own.
    pub arm: Option<Arm>,
    /// The platform config.
    pub cfg: FfsConfig,
    /// The trace replayed.
    pub trace: Arc<Trace>,
}

impl Sim {
    /// A run of `system`'s own policies.
    pub fn new(system: SystemKind, cfg: FfsConfig, trace: &Arc<Trace>) -> Sim {
        Sim {
            system,
            arm: None,
            cfg,
            trace: Arc::clone(trace),
        }
    }

    fn arm(cfg: FfsConfig, arm: Arm, trace: &Arc<Trace>) -> Sim {
        Sim {
            arm: Some(arm),
            ..Sim::new(SystemKind::FluidFaaS, cfg, trace)
        }
    }

    /// True for runs of FluidFaaS with the paper's own policies: the runs
    /// the simulated end-to-end metrics pool.
    pub fn is_paper_fluid(&self) -> bool {
        self.system == SystemKind::FluidFaaS && self.arm.is_none()
    }

    /// Runs through the experiment crate's entry points, as `exp_all` does.
    pub fn run(&self) -> RunOutput {
        match self.arm {
            None => run_system(self.system, self.cfg.clone(), &self.trace),
            Some(arm) => run_fluid_with(self.cfg.clone(), arm(), &self.trace),
        }
    }

    /// The policy bundle [`Sim::run`] simulates with.
    pub fn policies(&self) -> PolicyBundle {
        match (self.arm, self.system) {
            (Some(arm), _) => arm(),
            (None, SystemKind::FluidFaaS) => paper_policies(&self.cfg),
            (None, SystemKind::Esg) => baseline_policies(BaselineKind::Esg),
            (None, SystemKind::Infless) => baseline_policies(BaselineKind::Infless),
        }
    }
}

/// One sharded FluidFaaS run over per-cell traces.
pub struct Fleet {
    /// The whole fleet's config.
    pub cfg: FfsConfig,
    /// Cells the fleet is split into.
    pub cells: usize,
    /// One trace per cell.
    pub traces: Vec<CellTrace>,
}

/// `exp_all`'s simulation set, in `exp_all`'s order: fig3, fig5, fig9,
/// fig10, figs 11-13, fig14, fig15, fig16, table6, the ablation arms and
/// the resilience sweep.
fn paper_sweep(synth: &mut Synth, seed: u64) -> Vec<Sim> {
    use WorkloadClass::{Heavy, Light, Medium};
    let idx = |w: WorkloadClass| WorkloadClass::ALL.iter().position(|&c| c == w).unwrap_or(0);
    let bursty: Vec<Arc<Trace>> = WorkloadClass::ALL
        .into_iter()
        .map(|w| synth.trace(|| AzureTraceConfig::for_workload(w, PAPER_SECS, seed).generate()))
        .collect();
    let saturating: Vec<Arc<Trace>> = WorkloadClass::ALL
        .into_iter()
        .map(|w| synth.trace(|| saturating_trace(w, PAPER_SECS, seed)))
        .collect();
    let bursty_of = |w| &bursty[idx(w)];
    let saturating_of = |w| &saturating[idx(w)];
    let paper = FfsConfig::paper_default;
    let mut sims = Vec::with_capacity(78);

    // fig3, fig5.
    sims.push(Sim::new(SystemKind::Esg, paper(Medium), bursty_of(Medium)));
    let mut fig5 = paper(Light);
    fig5.baseline_keep_alive = SimDuration::from_mins(10);
    sims.push(Sim::new(SystemKind::Esg, fig5, bursty_of(Light)));
    // fig9 (bursty) and fig10 (saturating): every workload x system.
    for traces in [&bursty, &saturating] {
        for w in WorkloadClass::ALL {
            for system in SystemKind::ALL {
                sims.push(Sim::new(system, paper(w), &traces[idx(w)]));
            }
        }
    }
    // Figures 11-13: heavy, medium, light.
    for w in [Heavy, Medium, Light] {
        for system in SystemKind::ALL {
            sims.push(Sim::new(system, paper(w), bursty_of(w)));
        }
    }
    // fig14.
    for w in WorkloadClass::ALL {
        for system in [SystemKind::Esg, SystemKind::FluidFaaS] {
            sims.push(Sim::new(system, paper(w), bursty_of(w)));
        }
    }
    // fig15: the partition schemes of Table 7 on the heavy saturating trace.
    for scheme in [
        PartitionScheme::hybrid(),
        PartitionScheme::p1(),
        PartitionScheme::p2(),
    ] {
        for system in [SystemKind::Esg, SystemKind::FluidFaaS] {
            let mut cfg = paper(Heavy);
            cfg.scheme = scheme.clone();
            sims.push(Sim::new(system, cfg, saturating_of(Heavy)));
        }
    }
    // fig16: bursty light and medium, then the heavy saturation pair.
    for w in [Light, Medium] {
        for system in [SystemKind::Esg, SystemKind::FluidFaaS] {
            sims.push(Sim::new(system, paper(w), bursty_of(w)));
        }
    }
    for system in [SystemKind::Esg, SystemKind::FluidFaaS] {
        sims.push(Sim::new(system, paper(Heavy), saturating_of(Heavy)));
    }
    // table6.
    for w in WorkloadClass::ALL {
        for system in SystemKind::ALL {
            sims.push(Sim::new(system, paper(w), bursty_of(w)));
        }
    }
    // The ablation arms, on the heavy bursty trace.
    let arms: [Arm; 5] = [
        full_bundle,
        || PolicyBundle {
            placer: Box::new(FluidPlacer { ranked: false }),
            ..full_bundle()
        },
        || PolicyBundle {
            shared: Box::new(NoSharedPool),
            ..full_bundle()
        },
        || PolicyBundle {
            migrator: Box::new(NoMigrator),
            ..full_bundle()
        },
        || PolicyBundle {
            autoscaler: Box::new(FluidAutoscaler {
                policy: ScalingPolicy::ErlangC {
                    target_wait_frac: 0.25,
                },
            }),
            ..full_bundle()
        },
    ];
    for arm in arms {
        sims.push(Sim::arm(paper(Heavy), arm, bursty_of(Heavy)));
    }
    for mult in [2.0_f64, 4.0] {
        let mut cfg = paper(Heavy);
        cfg.perf.boundary_base_ms *= mult;
        cfg.perf.shm_gbps /= mult;
        sims.push(Sim::arm(cfg, full_bundle, bursty_of(Heavy)));
    }
    // Resilience: fault-free, then every MTBF arm.
    for system in SystemKind::ALL {
        sims.push(Sim::new(system, paper(Medium), bursty_of(Medium)));
    }
    for mtbf in MTBF_SWEEP {
        for system in SystemKind::ALL {
            let mut cfg = paper(Medium);
            cfg.faults = FaultSpec::slice_faults(seed ^ 0xFA17_5EED, mtbf);
            sims.push(Sim::new(system, cfg, bursty_of(Medium)));
        }
    }
    sims
}

/// The complete FluidFaaS bundle the ablation arms substitute into.
fn full_bundle() -> PolicyBundle {
    PolicyBundle {
        router: Box::new(FluidRouter),
        shared: Box::new(FluidSharedPool),
        autoscaler: Box::new(FluidAutoscaler {
            policy: ScalingPolicy::Reactive,
        }),
        migrator: Box::new(FluidMigrator),
        placer: Box::new(FluidPlacer { ranked: true }),
    }
}

/// The `multicore_probe` fleet: 128 nodes of 8 GPUs in 64 cells, 64
/// tenant functions per GPU, 3 req/s per GPU over 60 s.
fn fleet(synth: &mut Synth, seed: u64) -> Fleet {
    let mut cfg = FfsConfig::paper_default(WorkloadClass::Medium);
    cfg.gpus_per_node = 8;
    cfg.nodes = FLEET_GPUS / cfg.gpus_per_node;
    let tc = ScaleTraceConfig::new(FLEET_GPUS * 64, FLEET_SECS, 3.0 * FLEET_GPUS as f64, seed);
    let t0 = Instant::now();
    let traces: Vec<CellTrace> = (0..FLEET_CELLS)
        .map(|c| tc.cell_trace(c, FLEET_CELLS))
        .collect();
    synth.wall += t0.elapsed();
    synth.invocations += traces.iter().map(|c| c.trace.len() as u64).sum::<u64>();
    Fleet {
        cfg,
        cells: FLEET_CELLS,
        traces,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sweep_builds_exp_alls_78_simulations() {
        let Inputs::Solo(sims) = Workload::PaperSweep.build(1).inputs else {
            panic!("paper_sweep is a solo workload");
        };
        assert_eq!(sims.len(), 78);
        assert_eq!(sims.iter().filter(|s| s.arm.is_some()).count(), 7);
        assert_eq!(sims.iter().filter(|s| s.is_paper_fluid()).count(), 26);
        let faulted = sims
            .iter()
            .filter(|s| s.cfg.faults.slice_mtbf_secs > 0.0)
            .count();
        assert_eq!(faulted, MTBF_SWEEP.len() * 3);
    }

    #[test]
    fn names_round_trip_and_whys_are_one_short_line() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
