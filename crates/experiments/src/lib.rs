//! # ffs-experiments — regenerating every table and figure of the paper
//!
//! One module per evaluation artifact. Each experiment is a pure function
//! from (duration, seed) to structured rows, so the `exp_*` binaries and
//! the integration tests share the same code.
//!
//! | module | paper artifact |
//! |---|---|
//! | [`table2`] | Table 2 — MIG profiles on an A100 |
//! | [`table5`] | Table 5 — minimum MIG slice per app variant |
//! | [`fig3`]   | Figure 3 — ESG utilization vs required resources |
//! | [`fig5`]   | Figure 5 — occupied vs actively-used MIG percentage |
//! | [`fig9`]   | Figure 9 — SLO hit rates (3 workloads x 4 apps x 3 systems) |
//! | [`fig10`]  | Figure 10 — throughput under saturation |
//! | [`latency`]| Figures 11–13 — end-to-end latency CDFs |
//! | [`fig14`]  | Figure 14 — latency breakdown (queue/load/exec/transfer) |
//! | [`fig15`]  | Figure 15 — throughput under partitions Hybrid/P1/P2 |
//! | [`fig16`]  | Figure 16 — GPU utilization over time |
//! | [`table6`] | Table 6 — normalized GPU time and MIG time |
//! | [`ablation`] | design-choice ablations (CV ranking, time sharing, migration) |
//! | [`fairness`] | per-tenant fairness: 3 systems × 3 multi-tenant scenarios |
//! | [`sensitivity`] | SLO-scale sweep and seed-sweep statistics |
//! | [`resilience`] | SLO attainment and goodput vs fault rate (MTBF sweep) |
//! | [`scale`] | sharded-engine scale sweep (16→4096 GPUs, lane-count cross-check) |

pub mod ablation;
pub mod fairness;
pub mod fig10;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig3;
pub mod fig5;
pub mod fig9;
pub mod latency;
pub mod parallel;
pub mod report;
pub mod resilience;
pub mod runner;
pub mod scale;
pub mod sensitivity;
pub mod table2;
pub mod table5;
pub mod table6;
pub mod trace_out;

pub use parallel::{run_matrix, run_matrix_with_threads};
pub use runner::{run_workload, saturating_trace, SystemKind};
pub use trace_out::{init_trace_cli, trace_dir};
