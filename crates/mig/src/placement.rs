//! MIG placement rules and partition layouts.
//!
//! NVIDIA positions A100 GPU instances on a line of **eight placement
//! units** corresponding to the GPU's eight memory slices (this is the
//! coordinate system `nvidia-smi mig -lgipp` reports). A profile occupies a
//! contiguous span of units — notably, `3g.40gb` spans 4 units despite
//! having 3 GPCs — and may start only at a small set of positions. These
//! placement rules, not just the resource totals, are what restrict the GPU
//! to a small, rigid set of partitions: enumerating all *maximal* placements
//! reproduces the paper's claim that "there are only 18 MIG configurations
//! on an A100 GPU".

use crate::error::MigError;
use crate::profile::SliceProfile;

/// Number of placement units (memory slices) on an A100.
pub const PLACEMENT_UNITS: u8 = 8;
/// Number of GPCs (compute slices) on an A100.
pub const COMPUTE_GPCS: u32 = 7;

/// One slice placed at a concrete placement-unit position.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Placement {
    /// First placement unit occupied (0-based).
    pub start: u8,
    /// The slice profile placed there.
    pub profile: SliceProfile,
}

impl Placement {
    /// Creates a placement, without validation (see
    /// [`PartitionLayout::validate`]).
    pub const fn new(profile: SliceProfile, start: u8) -> Self {
        Placement { start, profile }
    }

    /// The placement units `[start, start + span)` occupied by this
    /// placement.
    pub fn unit_range(&self) -> std::ops::Range<u8> {
        self.start..self.start + self.profile.placement_span()
    }

    /// True if the two placements overlap.
    pub fn overlaps(&self, other: &Placement) -> bool {
        let a = self.unit_range();
        let b = other.unit_range();
        a.start < b.end && b.start < a.end
    }
}

/// A partition of one GPU into MIG slices, as a set of placements.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PartitionLayout {
    placements: Vec<Placement>,
}

impl PartitionLayout {
    /// Builds a layout from placements. Placements are kept sorted by start
    /// unit; call [`PartitionLayout::validate`] to check hardware rules.
    pub fn new(mut placements: Vec<Placement>) -> Self {
        placements.sort();
        PartitionLayout { placements }
    }

    /// Builds a layout by auto-placing a multiset of profiles greedily
    /// (largest first, lowest feasible start unit). Returns an error if the
    /// profiles cannot all be placed.
    pub fn from_profiles(profiles: &[SliceProfile]) -> Result<Self, MigError> {
        let mut sorted: Vec<SliceProfile> = profiles.to_vec();
        sorted.sort_by_key(|p| std::cmp::Reverse(p.placement_span()));
        let mut layout = PartitionLayout {
            placements: Vec::new(),
        };
        for p in sorted {
            let placed = p
                .start_slots()
                .iter()
                .copied()
                .find(|&s| layout.with_added(Placement::new(p, s)).validate().is_ok());
            match placed {
                Some(s) => {
                    layout.placements.push(Placement::new(p, s));
                    layout.placements.sort();
                }
                None => return Err(MigError::InsufficientResources(p)),
            }
        }
        layout.validate()?;
        Ok(layout)
    }

    /// A copy of this layout with one more placement (unvalidated).
    fn with_added(&self, p: Placement) -> PartitionLayout {
        let mut placements = self.placements.clone();
        placements.push(p);
        PartitionLayout::new(placements)
    }

    /// The paper's default evaluation partition (also "P1" in Table 7):
    /// `4g.40gb + 2g.20gb + 1g.10gb`.
    pub fn preset_p1() -> Self {
        PartitionLayout::new(vec![
            Placement::new(SliceProfile::G4_40, 0),
            Placement::new(SliceProfile::G2_20, 4),
            Placement::new(SliceProfile::G1_10, 6),
        ])
    }

    /// Partition "P2" of Table 7: `3g.40gb + 2g.20gb + 2g.20gb`.
    pub fn preset_p2() -> Self {
        PartitionLayout::new(vec![
            Placement::new(SliceProfile::G2_20, 0),
            Placement::new(SliceProfile::G2_20, 2),
            Placement::new(SliceProfile::G3_40, 4),
        ])
    }

    /// `1g.10gb * 7` (used by the Hybrid scheme of Table 7).
    pub fn preset_seven_small() -> Self {
        PartitionLayout::new(
            (0..7)
                .map(|s| Placement::new(SliceProfile::G1_10, s))
                .collect(),
        )
    }

    /// `2g.20gb * 3 + 1g.10gb` (used by the Hybrid scheme of Table 7).
    pub fn preset_three_medium() -> Self {
        PartitionLayout::new(vec![
            Placement::new(SliceProfile::G2_20, 0),
            Placement::new(SliceProfile::G2_20, 2),
            Placement::new(SliceProfile::G2_20, 4),
            Placement::new(SliceProfile::G1_10, 6),
        ])
    }

    /// `3g.40gb + 4g.40gb` (used by the Hybrid scheme of Table 7).
    pub fn preset_two_large() -> Self {
        PartitionLayout::new(vec![
            Placement::new(SliceProfile::G4_40, 0),
            Placement::new(SliceProfile::G3_40, 4),
        ])
    }

    /// The whole GPU as one `7g.80gb` slice (MIG mode with a single
    /// instance).
    pub fn preset_full() -> Self {
        PartitionLayout::new(vec![Placement::new(SliceProfile::G7_80, 0)])
    }

    /// The placements, sorted by start unit.
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// The slice profiles, in start-unit order.
    pub fn profiles(&self) -> impl Iterator<Item = SliceProfile> + '_ {
        self.placements.iter().map(|p| p.profile)
    }

    /// Number of slices in this layout.
    pub fn len(&self) -> usize {
        self.placements.len()
    }

    /// True if the layout has no slices.
    pub fn is_empty(&self) -> bool {
        self.placements.is_empty()
    }

    /// Total GPCs across all slices.
    pub fn total_gpcs(&self) -> u32 {
        self.placements.iter().map(|p| p.profile.gpcs()).sum()
    }

    /// Total slice memory in GB.
    pub fn total_memory_gb(&self) -> u32 {
        self.placements.iter().map(|p| p.profile.memory_gb()).sum()
    }

    /// Total placement units (memory slices) used.
    pub fn units_used(&self) -> u32 {
        self.placements
            .iter()
            .map(|p| p.profile.placement_span() as u32)
            .sum()
    }

    /// Checks all A100 placement rules: permitted start units, no overlap,
    /// the compute budget, per-profile max counts, and the published
    /// placement-compatibility restriction (see comment in the body).
    pub fn validate(&self) -> Result<(), MigError> {
        for p in &self.placements {
            if !p.profile.start_slots().contains(&p.start) {
                return Err(MigError::InvalidStartSlot {
                    profile: p.profile,
                    start: p.start,
                });
            }
        }
        for (i, a) in self.placements.iter().enumerate() {
            for b in &self.placements[i + 1..] {
                if a.overlaps(b) {
                    return Err(MigError::OverlappingPlacement {
                        profile: b.profile,
                        start: b.start,
                    });
                }
            }
        }
        if self.units_used() > PLACEMENT_UNITS as u32 {
            return Err(MigError::MemoryOvercommit {
                demanded: self.units_used(),
            });
        }
        debug_assert!(
            self.total_gpcs() <= COMPUTE_GPCS,
            "placement rules should imply the compute budget"
        );
        for profile in SliceProfile::ALL {
            let n = self.profiles().filter(|&q| q == profile).count() as u32;
            if n > profile.max_count() {
                return Err(MigError::MaxCountExceeded {
                    profile,
                    requested: n,
                });
            }
        }
        // Placement-compatibility restriction: with a 3g.40gb holding the
        // upper half of the GPU (units 4-7), the lower half supports either
        // 2 x 2g.20gb, 1 x 2g.20gb at unit 0 plus 1g slices, or 1g slices —
        // but not a lone 2g.20gb at unit 2 flanked by 1g slices. Dropping
        // that combination is what takes the naive overlap-only enumeration
        // from 19 to NVIDIA's published 18 valid A100 configurations, which
        // the paper cites.
        let has_3g_hi = self
            .placements
            .iter()
            .any(|p| p.profile == SliceProfile::G3_40 && p.start == 4);
        let has_2g_mid = self
            .placements
            .iter()
            .any(|p| p.profile == SliceProfile::G2_20 && p.start == 2);
        let has_1g_low = self
            .placements
            .iter()
            .any(|p| p.profile == SliceProfile::G1_10 && p.start <= 1);
        if has_3g_hi && has_2g_mid && has_1g_low {
            return Err(MigError::InvalidStartSlot {
                profile: SliceProfile::G2_20,
                start: 2,
            });
        }
        Ok(())
    }

    /// True if no further slice of any profile can be added while keeping
    /// the layout valid.
    pub fn is_maximal(&self) -> bool {
        for profile in SliceProfile::ALL {
            for &start in profile.start_slots() {
                if self
                    .with_added(Placement::new(profile, start))
                    .validate()
                    .is_ok()
                {
                    return false;
                }
            }
        }
        true
    }

    /// A human-readable name like `"4g.40gb+2g.20gb+1g.10gb"`.
    pub fn describe(&self) -> String {
        if self.placements.is_empty() {
            return "(empty)".to_string();
        }
        self.placements
            .iter()
            .map(|p| p.profile.name())
            .collect::<Vec<_>>()
            .join("+")
    }
}

/// Enumerates every *valid* layout (including non-maximal ones), as distinct
/// placement sets.
pub fn enumerate_all_layouts() -> Vec<PartitionLayout> {
    let mut out = Vec::new();
    let mut current: Vec<Placement> = Vec::new();
    // Candidate placements in a canonical order; choose an increasing
    // subsequence so each placement set is generated once.
    let mut candidates: Vec<Placement> = Vec::new();
    for profile in SliceProfile::ALL {
        for &s in profile.start_slots() {
            candidates.push(Placement::new(profile, s));
        }
    }
    candidates.sort();
    fn recurse(
        candidates: &[Placement],
        from: usize,
        current: &mut Vec<Placement>,
        out: &mut Vec<PartitionLayout>,
    ) {
        let layout = PartitionLayout::new(current.clone());
        if layout.validate().is_ok() && !layout.is_empty() {
            out.push(layout);
        }
        for i in from..candidates.len() {
            let cand = candidates[i];
            if current.iter().any(|q| q.overlaps(&cand)) {
                continue;
            }
            current.push(cand);
            if PartitionLayout::new(current.clone()).validate().is_ok() {
                recurse(candidates, i + 1, current, out);
            }
            current.pop();
        }
    }
    recurse(&candidates, 0, &mut current, &mut out);
    out
}

/// Enumerates the *maximal* valid layouts — the configurations NVIDIA's MIG
/// documentation lists for an A100. The paper states there are exactly 18.
pub fn enumerate_maximal_layouts() -> Vec<PartitionLayout> {
    enumerate_all_layouts()
        .into_iter()
        .filter(PartitionLayout::is_maximal)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn presets_are_valid() {
        for layout in [
            PartitionLayout::preset_p1(),
            PartitionLayout::preset_p2(),
            PartitionLayout::preset_seven_small(),
            PartitionLayout::preset_three_medium(),
            PartitionLayout::preset_two_large(),
            PartitionLayout::preset_full(),
        ] {
            layout
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", layout.describe()));
        }
    }

    #[test]
    fn preset_p1_shape() {
        let l = PartitionLayout::preset_p1();
        assert_eq!(l.describe(), "4g.40gb+2g.20gb+1g.10gb");
        assert_eq!(l.total_gpcs(), 7);
        assert_eq!(l.total_memory_gb(), 70);
        assert!(l.is_maximal());
    }

    #[test]
    fn preset_p2_shape() {
        let l = PartitionLayout::preset_p2();
        assert_eq!(l.describe(), "2g.20gb+2g.20gb+3g.40gb");
        assert_eq!(l.total_gpcs(), 7);
        assert!(l.is_maximal());
    }

    #[test]
    fn invalid_start_slot_rejected() {
        let l = PartitionLayout::new(vec![Placement::new(SliceProfile::G4_40, 1)]);
        assert!(matches!(
            l.validate(),
            Err(MigError::InvalidStartSlot { .. })
        ));
    }

    #[test]
    fn overlap_rejected() {
        let l = PartitionLayout::new(vec![
            Placement::new(SliceProfile::G4_40, 0),
            Placement::new(SliceProfile::G2_20, 2),
        ]);
        assert!(matches!(
            l.validate(),
            Err(MigError::OverlappingPlacement { .. })
        ));
    }

    #[test]
    fn three_g_spans_four_units() {
        // A 3g.40gb at unit 0 spans units 0-3, so a 1g.10gb at unit 3
        // overlaps it even though the 3g has only 3 GPCs.
        let l = PartitionLayout::new(vec![
            Placement::new(SliceProfile::G3_40, 0),
            Placement::new(SliceProfile::G1_10, 3),
        ]);
        assert!(matches!(
            l.validate(),
            Err(MigError::OverlappingPlacement { .. })
        ));
    }

    #[test]
    fn two_3g_is_valid_and_maximal() {
        let l = PartitionLayout::new(vec![
            Placement::new(SliceProfile::G3_40, 0),
            Placement::new(SliceProfile::G3_40, 4),
        ]);
        l.validate().unwrap();
        assert!(l.is_maximal(), "all 8 units are covered");
    }

    #[test]
    fn compatibility_restriction_applies() {
        // 3g.40gb@4 + 2g.20gb@2 + 1g.10gb@0 is the placement NVIDIA's chart
        // omits.
        let l = PartitionLayout::new(vec![
            Placement::new(SliceProfile::G1_10, 0),
            Placement::new(SliceProfile::G2_20, 2),
            Placement::new(SliceProfile::G3_40, 4),
        ]);
        assert!(l.validate().is_err());
        // ... while the same profiles with the 2g at unit 0 are fine.
        let ok = PartitionLayout::new(vec![
            Placement::new(SliceProfile::G2_20, 0),
            Placement::new(SliceProfile::G1_10, 2),
            Placement::new(SliceProfile::G3_40, 4),
        ]);
        ok.validate().unwrap();
    }

    #[test]
    fn exactly_18_maximal_configurations() {
        // The paper: "There are only 18 MIG configurations on an A100 GPU."
        let maximal = enumerate_maximal_layouts();
        assert_eq!(
            maximal.len(),
            18,
            "{:#?}",
            maximal.iter().map(|l| l.describe()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn maximal_configurations_cover_expected_multisets() {
        let maximal = enumerate_maximal_layouts();
        let multisets: BTreeSet<String> = maximal
            .iter()
            .map(|l| {
                let mut names: Vec<&str> = l.profiles().map(|p| p.name()).collect();
                names.sort();
                names.join("+")
            })
            .collect();
        assert_eq!(multisets.len(), 14, "{multisets:#?}");
        assert!(multisets.contains("1g.10gb+2g.20gb+4g.40gb"));
        assert!(multisets.contains("3g.40gb+4g.40gb"));
        assert!(multisets.contains("2g.20gb+2g.20gb+3g.40gb"));
        assert!(multisets.contains("7g.80gb"));
        assert!(multisets.contains("1g.10gb+1g.10gb+1g.10gb+1g.10gb+1g.10gb+1g.10gb+1g.10gb"));
    }

    #[test]
    fn all_enumerated_layouts_validate() {
        let all = enumerate_all_layouts();
        assert!(all.len() > 18, "non-maximal layouts are included");
        for l in all {
            l.validate().unwrap();
            assert!(l.total_gpcs() <= COMPUTE_GPCS);
            assert!(l.units_used() <= PLACEMENT_UNITS as u32);
        }
    }

    #[test]
    fn from_profiles_places_greedily() {
        let l = PartitionLayout::from_profiles(&[
            SliceProfile::G1_10,
            SliceProfile::G2_20,
            SliceProfile::G4_40,
        ])
        .unwrap();
        assert_eq!(l.describe(), "4g.40gb+2g.20gb+1g.10gb");
    }

    #[test]
    fn from_profiles_rejects_infeasible() {
        assert!(
            PartitionLayout::from_profiles(&[SliceProfile::G4_40, SliceProfile::G4_40]).is_err()
        );
        assert!(
            PartitionLayout::from_profiles(&[SliceProfile::G7_80, SliceProfile::G1_10]).is_err()
        );
    }

    #[test]
    fn describe_empty() {
        assert_eq!(PartitionLayout::new(vec![]).describe(), "(empty)");
    }
}
