//! # ffs-mig — a software model of NVIDIA A100 Multi-Instance GPU
//!
//! The FluidFaaS paper targets A100-80GB GPUs operated in MIG mode. Every
//! scheduling decision in the paper depends on the *discrete structure* of
//! MIG rather than on silicon: which slice profiles exist (Table 2 of the
//! paper), which combinations of slices can coexist on one GPU, the fact
//! that repartitioning takes minutes, and the strong isolation boundary
//! between slices. This crate models exactly that structure:
//!
//! * [`profile::SliceProfile`] — the five A100 slice profiles with their
//!   GPC count, memory size and max count (paper Table 2).
//! * [`placement`] — the hardware placement rules (start-slot constraints on
//!   the 7 compute slots and 8 memory slots). Enumerating all *maximal*
//!   placements reproduces the paper's claim that "there are only 18 MIG
//!   configurations on an A100 GPU".
//! * [`gpu`] / [`fleet`] — allocatable slices on GPUs, grouped into nodes,
//!   with multi-minute reconfiguration latency and the partition schemes of
//!   the paper's evaluation (default/P1, P2, Hybrid — Table 7).
//! * [`nvml`] — a thin NVML-flavoured management facade
//!   (`create_gpu_instance` / `destroy_gpu_instance` and friends), standing
//!   in for the real NVML bindings a production deployment would use.
//!
//! ```
//! use ffs_mig::{PartitionLayout, SliceProfile};
//!
//! // The default evaluation partition of the paper: 4g.40gb + 2g.20gb + 1g.10gb.
//! let layout = PartitionLayout::preset_p1();
//! assert!(layout.validate().is_ok());
//! assert_eq!(layout.total_gpcs(), 7);
//!
//! // The paper's "only 18 MIG configurations" claim.
//! assert_eq!(ffs_mig::placement::enumerate_maximal_layouts().len(), 18);
//!
//! let p = SliceProfile::smallest_with_memory(15.0).unwrap();
//! assert_eq!(p, SliceProfile::G2_20);
//! ```

pub mod error;
pub mod fleet;
pub mod gpu;
pub mod nvml;
pub mod placement;
pub mod profile;

pub use error::MigError;
pub use fleet::{Fleet, Node, NodeId, PartitionScheme};
pub use gpu::{Gpu, GpuId, MigSlice, SliceId};
pub use placement::{PartitionLayout, Placement};
pub use profile::SliceProfile;
