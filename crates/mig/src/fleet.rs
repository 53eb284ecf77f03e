//! Nodes and fleets of MIG-partitioned GPUs, with the paper's partition
//! schemes (Table 7) and allocation queries used by the schedulers.

use crate::error::MigError;
use crate::gpu::{Gpu, GpuId, SliceId};
use crate::placement::PartitionLayout;
use crate::profile::SliceProfile;

/// Identifier of an invoker node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

/// How the GPUs of a fleet are partitioned (paper Table 7).
#[derive(Clone, Debug, PartialEq)]
pub enum PartitionScheme {
    /// Every GPU uses the same layout.
    Uniform(PartitionLayout),
    /// GPU *i* (node-local index) uses `layouts[i % layouts.len()]`.
    PerGpu(Vec<PartitionLayout>),
}

impl PartitionScheme {
    /// The paper's default partition, "P1": every GPU is
    /// `4g.40gb + 2g.20gb + 1g.10gb`.
    pub fn p1() -> Self {
        PartitionScheme::Uniform(PartitionLayout::preset_p1())
    }

    /// Partition "P2": every GPU is `3g.40gb + 2g.20gb + 2g.20gb`.
    pub fn p2() -> Self {
        PartitionScheme::Uniform(PartitionLayout::preset_p2())
    }

    /// The "Hybrid" scheme of Table 7 for an 8-GPU node:
    /// `1 * [1g.10gb*7]`, `2 * [2g.20gb*3 + 1g.10gb]`, `4 * [3g.40gb+4g.40gb]`,
    /// `1 * [4g.40gb+2g.20gb+1g.10gb]`.
    pub fn hybrid() -> Self {
        PartitionScheme::PerGpu(vec![
            PartitionLayout::preset_seven_small(),
            PartitionLayout::preset_three_medium(),
            PartitionLayout::preset_three_medium(),
            PartitionLayout::preset_two_large(),
            PartitionLayout::preset_two_large(),
            PartitionLayout::preset_two_large(),
            PartitionLayout::preset_two_large(),
            PartitionLayout::preset_p1(),
        ])
    }

    /// The layout used for the GPU with node-local index `i`.
    pub fn layout_for(&self, i: usize) -> &PartitionLayout {
        match self {
            PartitionScheme::Uniform(l) => l,
            PartitionScheme::PerGpu(ls) => &ls[i % ls.len()],
        }
    }

    /// Short scheme name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            PartitionScheme::Uniform(l) if *l == PartitionLayout::preset_p1() => "P1",
            PartitionScheme::Uniform(l) if *l == PartitionLayout::preset_p2() => "P2",
            PartitionScheme::Uniform(_) => "Uniform",
            PartitionScheme::PerGpu(_) => "Hybrid",
        }
    }
}

/// An invoker node hosting several GPUs.
#[derive(Clone, Debug)]
pub struct Node {
    /// The node's identifier.
    pub id: NodeId,
    gpus: Vec<Gpu>,
}

impl Node {
    /// The GPUs on this node.
    pub fn gpus(&self) -> &[Gpu] {
        &self.gpus
    }
}

/// A fleet of nodes (the paper's testbed has 2 nodes x 8 A100s).
#[derive(Clone, Debug)]
pub struct Fleet {
    nodes: Vec<Node>,
    gpus_per_node: usize,
    /// Per-node count of free slices of each profile (`SliceProfile::ALL`
    /// order), maintained incrementally on every allocate/release so
    /// signature queries never walk the fleet.
    free_counts: Vec<[u32; SliceProfile::ALL.len()]>,
}

/// Position of `p` in `SliceProfile::ALL` (the canonical count order).
#[inline]
fn profile_index(p: SliceProfile) -> usize {
    p.index()
}

/// A free slice visible to a scheduler, with its location and profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FreeSlice {
    /// Where the slice lives.
    pub node: NodeId,
    /// The slice's identifier.
    pub id: SliceId,
    /// The slice's profile.
    pub profile: SliceProfile,
}

impl Fleet {
    /// Builds a fleet of `nodes` nodes with `gpus_per_node` GPUs each,
    /// partitioned per `scheme`. GPU ids are global
    /// (`node * gpus_per_node + local`).
    pub fn new(
        nodes: usize,
        gpus_per_node: usize,
        scheme: &PartitionScheme,
    ) -> Result<Self, MigError> {
        let mut out = Vec::with_capacity(nodes);
        for n in 0..nodes {
            let mut gpus = Vec::with_capacity(gpus_per_node);
            for g in 0..gpus_per_node {
                let gid = GpuId((n * gpus_per_node + g) as u16);
                gpus.push(Gpu::new(gid, scheme.layout_for(g).clone())?);
            }
            out.push(Node {
                id: NodeId(n as u16),
                gpus,
            });
        }
        let free_counts = out
            .iter()
            .map(|n| {
                let mut counts = [0u32; SliceProfile::ALL.len()];
                for g in &n.gpus {
                    for s in g.free_slices() {
                        counts[profile_index(s.profile)] += 1;
                    }
                }
                counts
            })
            .collect();
        Ok(Fleet {
            nodes: out,
            gpus_per_node,
            free_counts,
        })
    }

    /// The paper's evaluation fleet: 2 nodes x 8 A100s, default partition P1.
    pub fn paper_default() -> Self {
        Fleet::new(2, 8, &PartitionScheme::p1()).expect("preset layouts are valid")
    }

    /// The nodes of this fleet.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// GPUs per node.
    pub fn gpus_per_node(&self) -> usize {
        self.gpus_per_node
    }

    /// Total number of GPUs.
    pub fn gpu_count(&self) -> usize {
        self.nodes.iter().map(|n| n.gpus.len()).sum()
    }

    /// Iterates over all GPUs with their node ids.
    pub fn gpus(&self) -> impl Iterator<Item = (NodeId, &Gpu)> {
        self.nodes
            .iter()
            .flat_map(|n| n.gpus.iter().map(move |g| (n.id, g)))
    }

    fn node_of_gpu(&self, gpu: GpuId) -> Result<usize, MigError> {
        let idx = gpu.0 as usize / self.gpus_per_node;
        if idx < self.nodes.len() {
            Ok(idx)
        } else {
            Err(MigError::NoSuchGpu(gpu.0))
        }
    }

    fn gpu_mut(&mut self, gpu: GpuId) -> Result<&mut Gpu, MigError> {
        let n = self.node_of_gpu(gpu)?;
        let local = gpu.0 as usize % self.gpus_per_node;
        self.nodes[n]
            .gpus
            .get_mut(local)
            .ok_or(MigError::NoSuchGpu(gpu.0))
    }

    /// Shared access to one GPU.
    pub fn gpu(&self, gpu: GpuId) -> Result<&Gpu, MigError> {
        let n = self.node_of_gpu(gpu)?;
        let local = gpu.0 as usize % self.gpus_per_node;
        self.nodes[n]
            .gpus
            .get(local)
            .ok_or(MigError::NoSuchGpu(gpu.0))
    }

    /// The node id hosting a GPU.
    pub fn node_id_of(&self, gpu: GpuId) -> Result<NodeId, MigError> {
        self.node_of_gpu(gpu).map(|n| self.nodes[n].id)
    }

    /// All free slices, optionally restricted to one node, in (gpu, index)
    /// order for determinism.
    pub fn free_slices(&self, node: Option<NodeId>) -> Vec<FreeSlice> {
        let mut out = Vec::new();
        for n in &self.nodes {
            if let Some(want) = node {
                if n.id != want {
                    continue;
                }
            }
            for g in &n.gpus {
                for s in g.free_slices() {
                    out.push(FreeSlice {
                        node: n.id,
                        id: s.id,
                        profile: s.profile,
                    });
                }
            }
        }
        out
    }

    /// Free slices of at least `min_profile` on `node` (or anywhere).
    pub fn free_slices_at_least(&self, node: Option<NodeId>, min_mem_gb: f64) -> Vec<FreeSlice> {
        self.free_slices(node)
            .into_iter()
            .filter(|s| s.profile.fits_memory(min_mem_gb))
            .collect()
    }

    /// Allocates a specific slice.
    pub fn allocate(&mut self, id: SliceId) -> Result<(), MigError> {
        let node = self.node_of_gpu(id.gpu)?;
        let profile = self.profile_of(id)?;
        self.gpu_mut(id.gpu)?.allocate(id)?;
        self.free_counts[node][profile_index(profile)] -= 1;
        if ffs_obs::enabled() {
            ffs_obs::record(|| ffs_obs::ObsEvent::SliceAllocated {
                slice: ffs_obs::SliceRef::new(id.gpu.0, id.index),
                gpcs: profile.gpcs(),
            });
        }
        Ok(())
    }

    /// Releases a specific slice.
    pub fn release(&mut self, id: SliceId) -> Result<(), MigError> {
        let node = self.node_of_gpu(id.gpu)?;
        let profile = self.profile_of(id)?;
        self.gpu_mut(id.gpu)?.release(id)?;
        self.free_counts[node][profile_index(profile)] += 1;
        ffs_obs::record(|| ffs_obs::ObsEvent::SliceReleased {
            slice: ffs_obs::SliceRef::new(id.gpu.0, id.index),
        });
        Ok(())
    }

    /// Marks a free slice as failed (fault injection): it leaves the free
    /// set — and the incremental `node_signature` — until recovered. The
    /// caller must release any allocation on the slice first.
    pub fn fail_slice(&mut self, id: SliceId) -> Result<(), MigError> {
        let node = self.node_of_gpu(id.gpu)?;
        let profile = self.profile_of(id)?;
        self.gpu_mut(id.gpu)?.fail(id)?;
        self.free_counts[node][profile_index(profile)] -= 1;
        Ok(())
    }

    /// Returns a failed slice to the free set (and the signature).
    pub fn recover_slice(&mut self, id: SliceId) -> Result<(), MigError> {
        let node = self.node_of_gpu(id.gpu)?;
        let profile = self.profile_of(id)?;
        self.gpu_mut(id.gpu)?.recover(id)?;
        self.free_counts[node][profile_index(profile)] += 1;
        Ok(())
    }

    /// The profile of a slice.
    pub fn profile_of(&self, id: SliceId) -> Result<SliceProfile, MigError> {
        Ok(self.gpu(id.gpu)?.slice(id)?.profile)
    }

    /// Total GPCs in the fleet.
    pub fn total_gpcs(&self) -> u32 {
        self.gpus().map(|(_, g)| g.layout().total_gpcs()).sum()
    }

    /// Currently allocated GPCs in the fleet.
    pub fn allocated_gpcs(&self) -> u32 {
        self.gpus().map(|(_, g)| g.allocated_gpcs()).sum()
    }

    /// Number of GPUs with at least one allocated slice (the paper's "GPU is
    /// considered utilized if one MIG is processing requests" accounting).
    pub fn gpus_in_use(&self) -> usize {
        self.gpus().filter(|(_, g)| g.any_allocated()).count()
    }

    /// A fragmentation snapshot: for each free-slice profile, how many are
    /// free fleet-wide. Large demand that fits the *sum* but not any single
    /// slice is the paper's "resource fragmentation".
    pub fn free_profile_histogram(&self) -> Vec<(SliceProfile, usize)> {
        SliceProfile::ALL
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let n = self.free_counts.iter().map(|c| c[i] as usize).sum();
                (p, n)
            })
            .collect()
    }

    /// Canonical signature of `node`'s free-slice multiset: the count of
    /// each profile packed 12 bits wide (saturating) in `SliceProfile::ALL`
    /// order. Maintained incrementally, so this is O(profiles) — and the
    /// packing is bit-compatible with recomputing the signature from a
    /// materialized [`Fleet::free_slices`] list (the plan cache's key).
    pub fn node_signature(&self, node: NodeId) -> u64 {
        self.free_counts
            .get(node.0 as usize)
            .map(Self::pack_signature)
            .unwrap_or(0)
    }

    fn pack_signature(counts: &[u32; SliceProfile::ALL.len()]) -> u64 {
        counts.iter().enumerate().fold(0u64, |sig, (i, &c)| {
            sig | ((c.min(0xFFF) as u64) << (12 * i))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_fleet_shape() {
        let f = Fleet::paper_default();
        assert_eq!(f.node_count(), 2);
        assert_eq!(f.gpu_count(), 16);
        assert_eq!(f.total_gpcs(), 16 * 7);
        assert_eq!(f.free_slices(None).len(), 16 * 3);
        assert_eq!(f.gpus_in_use(), 0);
    }

    #[test]
    fn hybrid_scheme_matches_table7() {
        let f = Fleet::new(1, 8, &PartitionScheme::hybrid()).unwrap();
        let descriptions: Vec<String> = f.nodes()[0]
            .gpus()
            .iter()
            .map(|g| g.layout().describe())
            .collect();
        assert_eq!(
            descriptions,
            vec![
                "1g.10gb+1g.10gb+1g.10gb+1g.10gb+1g.10gb+1g.10gb+1g.10gb",
                "2g.20gb+2g.20gb+2g.20gb+1g.10gb",
                "2g.20gb+2g.20gb+2g.20gb+1g.10gb",
                "4g.40gb+3g.40gb",
                "4g.40gb+3g.40gb",
                "4g.40gb+3g.40gb",
                "4g.40gb+3g.40gb",
                "4g.40gb+2g.20gb+1g.10gb",
            ]
        );
    }

    #[test]
    fn allocate_and_release_update_queries() {
        let mut f = Fleet::paper_default();
        let free = f.free_slices(Some(NodeId(0)));
        let target = free
            .iter()
            .find(|s| s.profile == SliceProfile::G4_40)
            .unwrap()
            .id;
        f.allocate(target).unwrap();
        assert_eq!(f.allocated_gpcs(), 4);
        assert_eq!(f.gpus_in_use(), 1);
        assert_eq!(f.free_slices(None).len(), 16 * 3 - 1);
        assert!(f.allocate(target).is_err());
        f.release(target).unwrap();
        assert_eq!(f.allocated_gpcs(), 0);
    }

    #[test]
    fn free_slices_at_least_filters_by_memory() {
        let f = Fleet::new(1, 1, &PartitionScheme::p1()).unwrap();
        // Needs > 20GB: only the 4g.40gb qualifies.
        let big = f.free_slices_at_least(None, 25.0);
        assert_eq!(big.len(), 1);
        assert_eq!(big[0].profile, SliceProfile::G4_40);
    }

    #[test]
    fn node_scoping() {
        let f = Fleet::paper_default();
        assert_eq!(f.free_slices(Some(NodeId(0))).len(), 8 * 3);
        assert_eq!(f.free_slices(Some(NodeId(1))).len(), 8 * 3);
        assert_eq!(f.node_id_of(GpuId(0)).unwrap(), NodeId(0));
        assert_eq!(f.node_id_of(GpuId(8)).unwrap(), NodeId(1));
        assert!(f.node_id_of(GpuId(99)).is_err());
    }

    #[test]
    fn free_profile_histogram_counts() {
        let f = Fleet::new(1, 2, &PartitionScheme::p1()).unwrap();
        let hist = f.free_profile_histogram();
        let get = |p: SliceProfile| hist.iter().find(|(q, _)| *q == p).unwrap().1;
        assert_eq!(get(SliceProfile::G1_10), 2);
        assert_eq!(get(SliceProfile::G2_20), 2);
        assert_eq!(get(SliceProfile::G4_40), 2);
        assert_eq!(get(SliceProfile::G7_80), 0);
    }

    /// Recomputes a node's signature from a materialized free-slice list
    /// (the pre-incremental definition).
    fn recomputed_signature(f: &Fleet, node: NodeId) -> u64 {
        let mut counts = [0u64; SliceProfile::ALL.len()];
        for s in f.free_slices(Some(node)) {
            counts[profile_index(s.profile)] += 1;
        }
        counts
            .iter()
            .enumerate()
            .fold(0u64, |sig, (i, &c)| sig | (c.min(0xFFF) << (12 * i)))
    }

    #[test]
    fn node_signature_tracks_alloc_release_incrementally() {
        let mut f = Fleet::paper_default();
        for n in 0..f.node_count() {
            let node = NodeId(n as u16);
            assert_eq!(f.node_signature(node), recomputed_signature(&f, node));
        }
        let free = f.free_slices(Some(NodeId(0)));
        let before = f.node_signature(NodeId(0));
        let other_before = f.node_signature(NodeId(1));
        for s in &free[..3] {
            f.allocate(s.id).unwrap();
            assert_eq!(
                f.node_signature(NodeId(0)),
                recomputed_signature(&f, NodeId(0))
            );
            // The untouched node's signature must not move.
            assert_eq!(f.node_signature(NodeId(1)), other_before);
        }
        assert_ne!(f.node_signature(NodeId(0)), before);
        for s in &free[..3] {
            f.release(s.id).unwrap();
        }
        assert_eq!(f.node_signature(NodeId(0)), before);
        // Failed allocations must leave the counts untouched.
        f.allocate(free[0].id).unwrap();
        let mid = f.node_signature(NodeId(0));
        assert!(f.allocate(free[0].id).is_err());
        assert_eq!(f.node_signature(NodeId(0)), mid);
        assert_eq!(
            f.node_signature(NodeId(0)),
            recomputed_signature(&f, NodeId(0))
        );
    }

    #[test]
    fn fail_and_recover_track_the_signature() {
        let mut f = Fleet::paper_default();
        let free = f.free_slices(Some(NodeId(0)));
        let before = f.node_signature(NodeId(0));
        f.fail_slice(free[0].id).unwrap();
        assert_eq!(
            f.node_signature(NodeId(0)),
            recomputed_signature(&f, NodeId(0))
        );
        assert_ne!(f.node_signature(NodeId(0)), before);
        assert!(
            f.allocate(free[0].id).is_err(),
            "failed slice unallocatable"
        );
        f.recover_slice(free[0].id).unwrap();
        assert_eq!(f.node_signature(NodeId(0)), before);
        // Failing an allocated slice is rejected and changes nothing.
        f.allocate(free[1].id).unwrap();
        let mid = f.node_signature(NodeId(0));
        assert!(f.fail_slice(free[1].id).is_err());
        assert_eq!(f.node_signature(NodeId(0)), mid);
    }

    #[test]
    fn scheme_names() {
        assert_eq!(PartitionScheme::p1().name(), "P1");
        assert_eq!(PartitionScheme::p2().name(), "P2");
        assert_eq!(PartitionScheme::hybrid().name(), "Hybrid");
    }
}
