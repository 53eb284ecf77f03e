//! A machine-speed reference: a fixed kernel timed next to every pass, so
//! pass times can be stated at one reference speed.
//!
//! The shared virtual machines this benchmark runs on change speed under
//! it: on a 2-vCPU Xeon KVM guest, a plain CPU loop runs up to 1.7x slower
//! for stretches of one to six seconds, the normal speed drifts by 10-20%
//! over minutes, and neither shows up as steal or lost CPU time. Compute
//! and memory latency slow by different amounts, and the simulator needs
//! both (its working set is tens of MiB against a last-level cache shared
//! with the neighbours), so the kernel is half of each: a sort that stays
//! in the private caches, then a dependent random walk over 32 MiB. Over
//! six minutes of `paper_sweep` passes, it cut the spread of 12-pass
//! medians from 4.3% to 2.7%; either half alone did worse.
//!
//! The kernel is benchmark code, identical for a parent and a change, and
//! allocation-free after construction, so the simulator's heap state does
//! not leak into it.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's wall at reference speed: its typical time on the 2-vCPU
/// Xeon (Sapphire Rapids) KVM guest the bounds were set on. It only fixes
/// the unit; comparisons are unaffected by its value.
pub const NOMINAL_S: f64 = 0.0135;

/// Elements sorted by the compute half.
const SORTED: usize = 200_000;
/// Counters the compute half scatters into (1 MiB).
const TABLE: usize = 1 << 18;
/// Entries in the memory half's walk (32 MiB of `u32`).
const ENTRIES: usize = 8 << 20;
/// Dependent loads per walk.
const STEPS: usize = 60_000;

/// The kernel's buffers, built once.
pub struct Reference {
    sorted: Vec<u64>,
    table: Vec<u32>,
    next: Vec<u32>,
}

impl Reference {
    /// Builds the buffers (the walk is one cycle through every entry) and
    /// runs the kernel once, so no later run pays for first-touch page
    /// faults.
    pub fn new() -> Self {
        // A full-period LCG modulo a power of two: `a % 4 == 1`, `c` odd.
        const A: u64 = 0x5851_F42D_4C95_7F2D;
        const C: u64 = 0x1405_7B7E_F767_814F;
        let mask = ENTRIES as u64 - 1;
        let mut r = Reference {
            sorted: vec![0; SORTED],
            table: vec![0; TABLE],
            next: (0..ENTRIES as u64)
                .map(|i| (i.wrapping_mul(A).wrapping_add(C) & mask) as u32)
                .collect(),
        };
        r.slowdown();
        r
    }

    /// Runs the kernel once: how many times slower than reference speed
    /// the machine is right now.
    pub fn slowdown(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for v in &mut self.sorted {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = x;
        }
        self.sorted.sort_unstable();
        for &v in &self.sorted {
            let slot = (v >> 20) as usize & (TABLE - 1);
            self.table[slot] = self.table[slot].wrapping_add(1);
        }
        black_box(&self.table);
        let mut p = 0u32;
        for _ in 0..STEPS {
            p = self.next[p as usize];
        }
        black_box(p);
        t0.elapsed().as_secs_f64() / NOMINAL_S
    }

    /// Runs the kernel on every reference at once, one thread each, and
    /// returns the slowest one's slowdown: a run whose lanes meet at
    /// barriers goes at its slowest lane's pace.
    pub fn slowest(refs: &mut [Reference]) -> f64 {
        let Some((first, rest)) = refs.split_first_mut() else {
            return 1.0;
        };
        std::thread::scope(|s| {
            let helpers: Vec<_> = rest.iter_mut().map(|r| s.spawn(|| r.slowdown())).collect();
            let mine = first.slowdown();
            helpers
                .into_iter()
                .map(|h| h.join().expect("reference kernel thread panicked"))
                .fold(mine, f64::max)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_walk_is_one_cycle_through_every_entry() {
        let r = Reference::new();
        let mut seen = vec![false; ENTRIES];
        let mut p = 0usize;
        for _ in 0..ENTRIES {
            assert!(!seen[p], "entry {p} revisited early");
            seen[p] = true;
            p = r.next[p] as usize;
        }
        assert_eq!(p, 0, "the walk closes after visiting every entry");
    }

    #[test]
    fn slowdowns_are_positive_ratios() {
        let mut refs = [Reference::new(), Reference::new()];
        let s = refs[0].slowdown();
        assert!(s > 0.0 && s.is_finite());
        let slowest = Reference::slowest(&mut refs);
        assert!(slowest > 0.0 && slowest.is_finite());
        assert_eq!(Reference::slowest(&mut []), 1.0);
    }
}
