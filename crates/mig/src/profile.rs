//! The A100 MIG slice profiles (paper Table 2).

use std::fmt;

/// A MIG slice profile on an A100-80GB GPU.
///
/// The names follow NVIDIA's `<gpcs>g.<memory>gb` convention. The paper's
/// Table 2 lists the same five profiles together with the maximum number of
/// co-resident slices of each kind.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SliceProfile {
    /// `1g.10gb`: 1 GPC, 10 GB.
    G1_10,
    /// `2g.20gb`: 2 GPCs, 20 GB.
    G2_20,
    /// `3g.40gb`: 3 GPCs, 40 GB.
    G3_40,
    /// `4g.40gb`: 4 GPCs, 40 GB.
    G4_40,
    /// `7g.80gb`: the full GPU, 7 GPCs, 80 GB.
    G7_80,
}

impl SliceProfile {
    /// All profiles, smallest first.
    pub const ALL: [SliceProfile; 5] = [
        SliceProfile::G1_10,
        SliceProfile::G2_20,
        SliceProfile::G3_40,
        SliceProfile::G4_40,
        SliceProfile::G7_80,
    ];

    /// This profile's position in [`SliceProfile::ALL`] (smallest-first).
    ///
    /// Infallible by construction: the match is exhaustive over the enum,
    /// so callers indexing per-profile arrays never need a fallible
    /// `ALL.iter().position(..)` search.
    pub const fn index(self) -> usize {
        match self {
            SliceProfile::G1_10 => 0,
            SliceProfile::G2_20 => 1,
            SliceProfile::G3_40 => 2,
            SliceProfile::G4_40 => 3,
            SliceProfile::G7_80 => 4,
        }
    }

    /// Number of graphics processing clusters (compute slices).
    pub const fn gpcs(self) -> u32 {
        match self {
            SliceProfile::G1_10 => 1,
            SliceProfile::G2_20 => 2,
            SliceProfile::G3_40 => 3,
            SliceProfile::G4_40 => 4,
            SliceProfile::G7_80 => 7,
        }
    }

    /// Slice memory in gigabytes.
    pub const fn memory_gb(self) -> u32 {
        match self {
            SliceProfile::G1_10 => 10,
            SliceProfile::G2_20 => 20,
            SliceProfile::G3_40 => 40,
            SliceProfile::G4_40 => 40,
            SliceProfile::G7_80 => 80,
        }
    }

    /// Number of the GPU's 8 memory slices this profile occupies.
    pub const fn memory_slices(self) -> u32 {
        match self {
            SliceProfile::G1_10 => 1,
            SliceProfile::G2_20 => 2,
            SliceProfile::G3_40 => 4,
            SliceProfile::G4_40 => 4,
            SliceProfile::G7_80 => 8,
        }
    }

    /// Maximum number of slices of this profile on one GPU (Table 2, "Max
    /// Count").
    pub const fn max_count(self) -> u32 {
        match self {
            SliceProfile::G1_10 => 7,
            SliceProfile::G2_20 => 3,
            SliceProfile::G3_40 => 2,
            SliceProfile::G4_40 => 1,
            SliceProfile::G7_80 => 1,
        }
    }

    /// The number of contiguous placement units this profile spans.
    ///
    /// NVIDIA's placement chart positions GPU instances on the A100's eight
    /// *memory slices* (`nvidia-smi mig -lgipp` reports `{starts}:span`), so
    /// the span equals [`SliceProfile::memory_slices`]: a `3g.40gb` spans 4
    /// units even though it has only 3 GPCs.
    pub const fn placement_span(self) -> u8 {
        self.memory_slices() as u8
    }

    /// The placement units (0–7) at which this profile may start, per the
    /// MIG placement rules (`nvidia-smi mig -lgipp` on an A100-80GB). These
    /// constraints are what limit an A100 to 18 distinct maximal
    /// configurations.
    pub const fn start_slots(self) -> &'static [u8] {
        match self {
            SliceProfile::G1_10 => &[0, 1, 2, 3, 4, 5, 6],
            SliceProfile::G2_20 => &[0, 2, 4],
            SliceProfile::G3_40 => &[0, 4],
            SliceProfile::G4_40 => &[0],
            SliceProfile::G7_80 => &[0],
        }
    }

    /// The NVIDIA profile name, e.g. `"4g.40gb"`.
    pub const fn name(self) -> &'static str {
        match self {
            SliceProfile::G1_10 => "1g.10gb",
            SliceProfile::G2_20 => "2g.20gb",
            SliceProfile::G3_40 => "3g.40gb",
            SliceProfile::G4_40 => "4g.40gb",
            SliceProfile::G7_80 => "7g.80gb",
        }
    }

    /// Parses an NVIDIA profile name.
    pub fn parse(s: &str) -> Option<SliceProfile> {
        Self::ALL.iter().copied().find(|p| p.name() == s)
    }

    /// The smallest profile with at least `mem_gb` gigabytes of memory.
    pub fn smallest_with_memory(mem_gb: f64) -> Option<SliceProfile> {
        Self::ALL
            .iter()
            .copied()
            .find(|p| p.memory_gb() as f64 >= mem_gb)
    }

    /// The smallest profile with at least `mem_gb` gigabytes of memory *and*
    /// at least `gpcs` compute clusters.
    pub fn smallest_fitting(mem_gb: f64, gpcs: u32) -> Option<SliceProfile> {
        Self::ALL
            .iter()
            .copied()
            .find(|p| p.memory_gb() as f64 >= mem_gb && p.gpcs() >= gpcs)
    }

    /// True if a workload needing `mem_gb` gigabytes fits in this slice.
    pub fn fits_memory(self, mem_gb: f64) -> bool {
        self.memory_gb() as f64 >= mem_gb
    }
}

impl fmt::Debug for SliceProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl fmt::Display for SliceProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_values() {
        // Exactly the paper's Table 2.
        let rows: [(SliceProfile, u32, u32, u32); 5] = [
            (SliceProfile::G7_80, 7, 80, 1),
            (SliceProfile::G4_40, 4, 40, 1),
            (SliceProfile::G3_40, 3, 40, 2),
            (SliceProfile::G2_20, 2, 20, 3),
            (SliceProfile::G1_10, 1, 10, 7),
        ];
        for (p, gpcs, mem, maxc) in rows {
            assert_eq!(p.gpcs(), gpcs, "{p}");
            assert_eq!(p.memory_gb(), mem, "{p}");
            assert_eq!(p.max_count(), maxc, "{p}");
        }
    }

    #[test]
    fn ordering_is_smallest_first() {
        assert!(SliceProfile::G1_10 < SliceProfile::G2_20);
        assert!(SliceProfile::G4_40 < SliceProfile::G7_80);
        let mut all = SliceProfile::ALL;
        all.sort();
        assert_eq!(all, SliceProfile::ALL);
    }

    #[test]
    fn index_matches_position_in_all() {
        for (i, p) in SliceProfile::ALL.into_iter().enumerate() {
            assert_eq!(p.index(), i, "{p}");
        }
    }

    #[test]
    fn names_round_trip() {
        for p in SliceProfile::ALL {
            assert_eq!(SliceProfile::parse(p.name()), Some(p));
        }
        assert_eq!(SliceProfile::parse("5g.50gb"), None);
    }

    #[test]
    fn smallest_with_memory_boundaries() {
        assert_eq!(
            SliceProfile::smallest_with_memory(0.0),
            Some(SliceProfile::G1_10)
        );
        assert_eq!(
            SliceProfile::smallest_with_memory(10.0),
            Some(SliceProfile::G1_10)
        );
        assert_eq!(
            SliceProfile::smallest_with_memory(10.1),
            Some(SliceProfile::G2_20)
        );
        assert_eq!(
            SliceProfile::smallest_with_memory(20.1),
            Some(SliceProfile::G3_40)
        );
        assert_eq!(
            SliceProfile::smallest_with_memory(40.1),
            Some(SliceProfile::G7_80)
        );
        assert_eq!(SliceProfile::smallest_with_memory(80.1), None);
    }

    #[test]
    fn smallest_fitting_considers_compute() {
        assert_eq!(
            SliceProfile::smallest_fitting(5.0, 4),
            Some(SliceProfile::G4_40)
        );
        assert_eq!(
            SliceProfile::smallest_fitting(45.0, 1),
            Some(SliceProfile::G7_80)
        );
        assert_eq!(SliceProfile::smallest_fitting(5.0, 8), None);
    }

    #[test]
    fn memory_slices_sum_to_eight_for_full_gpu() {
        assert_eq!(SliceProfile::G7_80.memory_slices(), 8);
        // 4g+3g covers all 8 memory slices: 4 + 4.
        assert_eq!(
            SliceProfile::G4_40.memory_slices() + SliceProfile::G3_40.memory_slices(),
            8
        );
    }

    #[test]
    fn start_slots_are_within_placement_range() {
        for p in SliceProfile::ALL {
            for &s in p.start_slots() {
                assert!(
                    s + p.placement_span() <= 8,
                    "{p} start {s} overflows the 8 placement units"
                );
            }
        }
    }

    #[test]
    fn placement_span_matches_memory_slices() {
        assert_eq!(SliceProfile::G3_40.placement_span(), 4);
        assert_eq!(SliceProfile::G1_10.placement_span(), 1);
        assert_eq!(SliceProfile::G7_80.placement_span(), 8);
    }
}
