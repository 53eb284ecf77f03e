//! A single GPU partitioned into allocatable MIG slices.

use crate::error::MigError;
use crate::placement::PartitionLayout;
use crate::profile::SliceProfile;

/// Identifier of a GPU within a fleet (global index).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GpuId(pub u16);

/// Identifier of a MIG slice: a GPU plus the slice's index within the GPU's
/// current partition layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SliceId {
    /// The GPU hosting the slice.
    pub gpu: GpuId,
    /// Index of the slice within the GPU's layout (start-slot order).
    pub index: u8,
}

impl SliceId {
    /// Creates a slice id.
    pub const fn new(gpu: GpuId, index: u8) -> Self {
        SliceId { gpu, index }
    }
}

/// One MIG slice: a profile at a placement, plus allocation state.
#[derive(Clone, Debug)]
pub struct MigSlice {
    /// The slice's identifier.
    pub id: SliceId,
    /// The slice profile (size).
    pub profile: SliceProfile,
    /// Start compute slot of the placement.
    pub start_slot: u8,
    allocated: bool,
    failed: bool,
}

impl MigSlice {
    /// True if the slice is failed (fault-injected) and unavailable for
    /// allocation until recovered.
    pub fn is_failed(&self) -> bool {
        self.failed
    }
}

/// Seconds a MIG repartition takes (checkpoint, re-partition, resume). The
/// paper reports "several minutes"; we model 3 minutes. This latency is why
/// dynamic reconfiguration is impractical for serverless platforms.
pub const RECONFIGURE_SECS: u64 = 180;

/// A GPU in MIG mode with a fixed partition layout.
#[derive(Clone, Debug)]
pub struct Gpu {
    /// The GPU's identifier.
    pub id: GpuId,
    layout: PartitionLayout,
    slices: Vec<MigSlice>,
}

impl Gpu {
    /// Creates a GPU with the given (validated) partition layout.
    pub fn new(id: GpuId, layout: PartitionLayout) -> Result<Self, MigError> {
        layout.validate()?;
        let slices = Self::slices_for(id, &layout);
        Ok(Gpu { id, layout, slices })
    }

    fn slices_for(id: GpuId, layout: &PartitionLayout) -> Vec<MigSlice> {
        layout
            .placements()
            .iter()
            .enumerate()
            .map(|(i, p)| MigSlice {
                id: SliceId::new(id, i as u8),
                profile: p.profile,
                start_slot: p.start,
                allocated: false,
                failed: false,
            })
            .collect()
    }

    /// The current partition layout.
    pub fn layout(&self) -> &PartitionLayout {
        &self.layout
    }

    /// All slices on this GPU.
    pub fn slices(&self) -> &[MigSlice] {
        &self.slices
    }

    /// Looks up a slice by id.
    pub fn slice(&self, id: SliceId) -> Result<&MigSlice, MigError> {
        if id.gpu != self.id {
            return Err(MigError::NoSuchSlice(id));
        }
        self.slices
            .get(id.index as usize)
            .ok_or(MigError::NoSuchSlice(id))
    }

    /// Slices not currently allocated (and not failed).
    pub fn free_slices(&self) -> impl Iterator<Item = &MigSlice> {
        self.slices.iter().filter(|s| !s.allocated && !s.failed)
    }

    /// Number of allocated slices.
    pub fn allocated_count(&self) -> usize {
        self.slices.iter().filter(|s| s.allocated).count()
    }

    /// True if at least one slice is allocated. Under the paper's cost
    /// accounting ("GPU time"), a GPU is billed whenever any slice is in use.
    pub fn any_allocated(&self) -> bool {
        self.slices.iter().any(|s| s.allocated)
    }

    /// Total GPCs currently allocated.
    pub fn allocated_gpcs(&self) -> u32 {
        self.slices
            .iter()
            .filter(|s| s.allocated)
            .map(|s| s.profile.gpcs())
            .sum()
    }

    /// Marks a slice as allocated.
    pub fn allocate(&mut self, id: SliceId) -> Result<(), MigError> {
        if id.gpu != self.id {
            return Err(MigError::NoSuchSlice(id));
        }
        let slice = self
            .slices
            .get_mut(id.index as usize)
            .ok_or(MigError::NoSuchSlice(id))?;
        if slice.failed {
            return Err(MigError::SliceFailed(id));
        }
        if slice.allocated {
            return Err(MigError::SliceBusy(id));
        }
        slice.allocated = true;
        Ok(())
    }

    /// Marks a free slice as failed (fault injection). The caller releases
    /// any allocation first; failing an allocated slice is rejected so
    /// accounting can never leak a held slice.
    pub fn fail(&mut self, id: SliceId) -> Result<(), MigError> {
        if id.gpu != self.id {
            return Err(MigError::NoSuchSlice(id));
        }
        let slice = self
            .slices
            .get_mut(id.index as usize)
            .ok_or(MigError::NoSuchSlice(id))?;
        if slice.allocated {
            return Err(MigError::SliceBusy(id));
        }
        slice.failed = true;
        Ok(())
    }

    /// Returns a failed slice to service.
    pub fn recover(&mut self, id: SliceId) -> Result<(), MigError> {
        if id.gpu != self.id {
            return Err(MigError::NoSuchSlice(id));
        }
        let slice = self
            .slices
            .get_mut(id.index as usize)
            .ok_or(MigError::NoSuchSlice(id))?;
        if !slice.failed {
            return Err(MigError::SliceNotFailed(id));
        }
        slice.failed = false;
        Ok(())
    }

    /// Releases an allocated slice.
    pub fn release(&mut self, id: SliceId) -> Result<(), MigError> {
        if id.gpu != self.id {
            return Err(MigError::NoSuchSlice(id));
        }
        let slice = self
            .slices
            .get_mut(id.index as usize)
            .ok_or(MigError::NoSuchSlice(id))?;
        if !slice.allocated {
            return Err(MigError::SliceNotAllocated(id));
        }
        slice.allocated = false;
        Ok(())
    }

    /// Repartitions the GPU. Fails if any slice is still allocated. Returns
    /// the number of seconds the operation takes (the multi-minute latency
    /// that makes runtime repartitioning impractical).
    pub fn reconfigure(&mut self, layout: PartitionLayout) -> Result<u64, MigError> {
        let allocated = self.allocated_count();
        if allocated > 0 {
            return Err(MigError::GpuBusy { allocated });
        }
        layout.validate()?;
        self.slices = Self::slices_for(self.id, &layout);
        self.layout = layout;
        Ok(RECONFIGURE_SECS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu() -> Gpu {
        Gpu::new(GpuId(0), PartitionLayout::preset_p1()).unwrap()
    }

    #[test]
    fn new_gpu_has_free_slices_in_layout_order() {
        let g = gpu();
        let profiles: Vec<SliceProfile> = g.slices().iter().map(|s| s.profile).collect();
        assert_eq!(
            profiles,
            vec![
                SliceProfile::G4_40,
                SliceProfile::G2_20,
                SliceProfile::G1_10
            ]
        );
        assert_eq!(g.free_slices().count(), 3);
        assert!(!g.any_allocated());
    }

    #[test]
    fn allocate_release_cycle() {
        let mut g = gpu();
        let id = SliceId::new(GpuId(0), 0);
        g.allocate(id).unwrap();
        assert!(g.any_allocated());
        assert_eq!(g.allocated_gpcs(), 4);
        assert_eq!(g.free_slices().count(), 2);
        assert_eq!(g.allocate(id), Err(MigError::SliceBusy(id)));
        g.release(id).unwrap();
        assert_eq!(g.release(id), Err(MigError::SliceNotAllocated(id)));
        assert!(!g.any_allocated());
    }

    #[test]
    fn failed_slice_leaves_and_reenters_the_free_set() {
        let mut g = gpu();
        let id = SliceId::new(GpuId(0), 2);
        g.fail(id).unwrap();
        assert_eq!(g.free_slices().count(), 2);
        assert_eq!(g.allocate(id), Err(MigError::SliceFailed(id)));
        assert!(g.fail(SliceId::new(GpuId(9), 0)).is_err());
        g.recover(id).unwrap();
        assert_eq!(g.recover(id), Err(MigError::SliceNotFailed(id)));
        assert_eq!(g.free_slices().count(), 3);
        g.allocate(id).unwrap();
        assert_eq!(g.fail(id), Err(MigError::SliceBusy(id)), "release first");
    }

    #[test]
    fn wrong_gpu_or_index_rejected() {
        let mut g = gpu();
        let foreign = SliceId::new(GpuId(9), 0);
        assert_eq!(g.allocate(foreign), Err(MigError::NoSuchSlice(foreign)));
        let oob = SliceId::new(GpuId(0), 9);
        assert_eq!(g.allocate(oob), Err(MigError::NoSuchSlice(oob)));
        assert!(g.slice(oob).is_err());
    }

    #[test]
    fn reconfigure_requires_idle_gpu_and_takes_minutes() {
        let mut g = gpu();
        let id = SliceId::new(GpuId(0), 1);
        g.allocate(id).unwrap();
        assert_eq!(
            g.reconfigure(PartitionLayout::preset_p2()),
            Err(MigError::GpuBusy { allocated: 1 })
        );
        g.release(id).unwrap();
        let secs = g.reconfigure(PartitionLayout::preset_p2()).unwrap();
        assert_eq!(secs, RECONFIGURE_SECS);
        assert!(secs >= 120, "repartition must take minutes");
        assert_eq!(g.layout().describe(), "2g.20gb+2g.20gb+3g.40gb");
        assert_eq!(g.slices().len(), 3);
    }

    #[test]
    fn invalid_layout_rejected_at_construction() {
        use crate::placement::Placement;
        let bad = PartitionLayout::new(vec![Placement::new(SliceProfile::G4_40, 3)]);
        assert!(Gpu::new(GpuId(1), bad).is_err());
    }
}
