//! Fragmentation analysis (§4 of the paper).
//!
//! A fleet is *fragmented* with respect to a demand when the total free
//! capacity would satisfy it but no single free slice does — the Figure 1
//! scenario where "instance D" waits even though two idle fragments sum to
//! enough GPCs. This module quantifies that condition, both for a single
//! demand and as an aggregate fleet metric.

use crate::fleet::Fleet;

/// How a fleet can serve a monolithic demand of `mem_gb` / `gpcs`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placeability {
    /// Some free slice satisfies the demand directly.
    Placeable,
    /// No single slice fits, but the *sum* of free slices would — the
    /// demand is blocked purely by fragmentation (the Figure 1 situation;
    /// pipelining can rescue it).
    Fragmented,
    /// Even the aggregate free capacity is insufficient.
    Insufficient,
}

/// Classifies a monolithic demand against the fleet's current free slices.
pub fn classify_demand(fleet: &Fleet, mem_gb: f64, gpcs: u32) -> Placeability {
    let free = fleet.free_slices(None);
    let single = free
        .iter()
        .any(|s| s.profile.fits_memory(mem_gb) && s.profile.gpcs() >= gpcs);
    if single {
        return Placeability::Placeable;
    }
    let total_mem: f64 = free.iter().map(|s| s.profile.memory_gb() as f64).sum();
    let total_gpcs: u32 = free.iter().map(|s| s.profile.gpcs()).sum();
    if total_mem >= mem_gb && total_gpcs >= gpcs {
        Placeability::Fragmented
    } else {
        Placeability::Insufficient
    }
}

/// Fleet-level fragmentation snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct FragmentationReport {
    /// Total free GPCs.
    pub free_gpcs: u32,
    /// GPCs of the largest single free slice.
    pub largest_free_gpcs: u32,
    /// Free memory (GB) total.
    pub free_mem_gb: u32,
    /// Memory of the largest single free slice.
    pub largest_free_mem_gb: u32,
    /// The fragmentation index in `[0, 1]`: `1 - largest_free / total_free`
    /// (by GPCs). Zero when one slice holds all free capacity (or nothing
    /// is free); approaches one when capacity is shattered into many small
    /// slices.
    pub index: f64,
}

/// Computes the fleet's fragmentation report.
pub fn report(fleet: &Fleet) -> FragmentationReport {
    let free = fleet.free_slices(None);
    let free_gpcs: u32 = free.iter().map(|s| s.profile.gpcs()).sum();
    let largest_free_gpcs = free.iter().map(|s| s.profile.gpcs()).max().unwrap_or(0);
    let free_mem_gb: u32 = free.iter().map(|s| s.profile.memory_gb()).sum();
    let largest_free_mem_gb = free
        .iter()
        .map(|s| s.profile.memory_gb())
        .max()
        .unwrap_or(0);
    let index = if free_gpcs == 0 {
        0.0
    } else {
        1.0 - largest_free_gpcs as f64 / free_gpcs as f64
    };
    FragmentationReport {
        free_gpcs,
        largest_free_gpcs,
        free_mem_gb,
        largest_free_mem_gb,
        index,
    }
}

/// The largest monolithic memory demand (GB) the fleet can place right
/// now, i.e. the largest free slice's memory. A baseline scheduler can do
/// no better than this; a pipelining scheduler can reach
/// [`FragmentationReport::free_mem_gb`].
pub fn max_placeable_mem_gb(fleet: &Fleet) -> u32 {
    fleet
        .free_slices(None)
        .iter()
        .map(|s| s.profile.memory_gb())
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::PartitionScheme;
    use crate::profile::SliceProfile;

    /// Reproduces Figure 1 / Figure 4: a demand that fits the sum of the
    /// fragments but no single slice.
    #[test]
    fn figure1_fragmentation_detected() {
        let mut fleet = Fleet::new(1, 2, &PartitionScheme::p1()).unwrap();
        // Occupy both 4g.40gb slices (instances A/B of Figure 1).
        for s in fleet.free_slices(None) {
            if s.profile == SliceProfile::G4_40 {
                fleet.allocate(s.id).unwrap();
            }
        }
        // Demand: a 4g.40gb-class instance (30 GB, 3 GPCs).
        assert_eq!(
            classify_demand(&fleet, 30.0, 3),
            Placeability::Fragmented,
            "2g+2g+1g+1g fragments sum to enough but no slice fits"
        );
        // A small demand is still directly placeable.
        assert_eq!(classify_demand(&fleet, 8.0, 1), Placeability::Placeable);
        // An impossible demand is recognised as such.
        assert_eq!(
            classify_demand(&fleet, 500.0, 3),
            Placeability::Insufficient
        );
    }

    #[test]
    fn report_tracks_largest_fragment() {
        let mut fleet = Fleet::new(1, 1, &PartitionScheme::p1()).unwrap();
        let r = report(&fleet);
        assert_eq!(r.free_gpcs, 7);
        assert_eq!(r.largest_free_gpcs, 4);
        assert!((r.index - (1.0 - 4.0 / 7.0)).abs() < 1e-12);
        assert_eq!(max_placeable_mem_gb(&fleet), 40);

        // Occupy the 4g: fragmentation index rises.
        let big = fleet
            .free_slices(None)
            .into_iter()
            .find(|s| s.profile == SliceProfile::G4_40)
            .unwrap();
        fleet.allocate(big.id).unwrap();
        let r2 = report(&fleet);
        assert_eq!(r2.free_gpcs, 3);
        assert_eq!(r2.largest_free_gpcs, 2);
        assert!((r2.index - (1.0 - 2.0 / 3.0)).abs() < 1e-12);
        assert_eq!(max_placeable_mem_gb(&fleet), 20);
    }

    #[test]
    fn empty_fleet_has_zero_index() {
        let mut fleet = Fleet::new(1, 1, &PartitionScheme::p1()).unwrap();
        for s in fleet.free_slices(None) {
            fleet.allocate(s.id).unwrap();
        }
        let r = report(&fleet);
        assert_eq!(r.free_gpcs, 0);
        assert_eq!(r.index, 0.0);
        assert_eq!(classify_demand(&fleet, 1.0, 1), Placeability::Insufficient);
    }
}
