//! Launch-plan memoization keyed by the fleet's free-slice state.
//!
//! `plan_deployment` walks a function's CV-ranked partition list and runs
//! the greedy slice assignment for every candidate — per function, per
//! node, on every launch attempt and migration probe. Between fleet
//! mutations the free-slice set is unchanged, so the result is too. This
//! cache memoizes `(function, node, ranking mode, free-slice signature) →
//! plan` and is invalidated wholesale on *any* slice allocation or
//! release.
//!
//! The signature is the canonical multiset of free [`ffs_mig::SliceProfile`]s
//! (per-profile counts packed into a `u64`). Slice *ids* are not part of
//! the key: because every allocate/release clears the cache, the free set
//! behind a surviving entry is bitwise the exact set it was computed from,
//! and the cached plan's slice ids are still free.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use ffs_mig::fleet::FreeSlice;
use ffs_mig::NodeId;
use ffs_pipeline::{plan_deployment, plan_deployment_unranked, DeploymentPlan};
use ffs_profile::FunctionProfile;

use crate::platform::catalog::FuncId;

/// Canonical signature of a free-slice multiset: the count of each
/// [`ffs_mig::SliceProfile`] packed 12 bits wide in `SliceProfile::ALL` order
/// (saturating, far above any real fleet's per-node slice count).
pub fn slice_signature(free: &[FreeSlice]) -> u64 {
    let mut counts = [0u64; 5];
    for s in free {
        let idx = s.profile.index();
        counts[idx] = (counts[idx] + 1).min(0xFFF);
    }
    counts
        .iter()
        .enumerate()
        .fold(0u64, |sig, (i, &c)| sig | (c << (12 * i)))
}

/// Process-wide accumulation of plan-cache hits across every run that
/// called [`note_run_stats`] (each engine owns its own cache;
/// the harness surfaces the fleet-wide totals in its end-of-run summary).
static PROCESS_HITS: AtomicU64 = AtomicU64::new(0);
/// Process-wide accumulation of plan-cache misses; see [`PROCESS_HITS`].
static PROCESS_MISSES: AtomicU64 = AtomicU64::new(0);

/// Folds one run's cache counters into the process-wide totals.
pub fn note_run_stats(hits: u64, misses: u64) {
    PROCESS_HITS.fetch_add(hits, Ordering::Relaxed);
    PROCESS_MISSES.fetch_add(misses, Ordering::Relaxed);
}

/// The accumulated `(hits, misses)` across all runs in this process.
pub fn process_stats() -> (u64, u64) {
    (
        PROCESS_HITS.load(Ordering::Relaxed),
        PROCESS_MISSES.load(Ordering::Relaxed),
    )
}

type PlanKey = (FuncId, NodeId, bool, u64);

/// A multiply-rotate hasher for [`PlanKey`]'s four integer words, in place
/// of SipHash: the keys come from the simulation, not from an adversary,
/// and the cache only calls `get`/`insert`/`clear`, so its iteration order
/// (the one thing a hasher could leak) never reaches a result.
#[derive(Default)]
struct KeyHasher(u64);

impl KeyHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }
}

impl Hasher for KeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // The product's best-mixed bits are its high ones; bring them down
        // to the bucket-index bits.
        self.0.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.add(u64::from(x));
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.add(u64::from(x));
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.add(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.add(x);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.add(x as u64);
    }
}

/// Memoized launch plans for an unchanged fleet state.
#[derive(Default)]
pub struct PlanCache {
    map: HashMap<PlanKey, Option<DeploymentPlan>, BuildHasherDefault<KeyHasher>>,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Drops every cached plan. Must be called after any slice
    /// allocation or release; the cache is only sound between fleet
    /// mutations.
    pub fn invalidate(&mut self) {
        self.map.clear();
    }

    /// Cache lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache lookups that had to run the planner.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The plan for `profile` on `free`, memoized. `ranked` selects
    /// between [`plan_deployment`] and [`plan_deployment_unranked`];
    /// negative results (`None`) are cached too, so infeasible launches
    /// also skip the partition walk.
    pub fn plan(
        &mut self,
        f: FuncId,
        node: NodeId,
        ranked: bool,
        profile: &FunctionProfile,
        free: &[FreeSlice],
    ) -> Option<DeploymentPlan> {
        self.plan_with_signature(f, node, ranked, profile, slice_signature(free), || {
            free.to_vec()
        })
    }

    /// [`PlanCache::plan`] with the signature supplied by the caller (the
    /// fleet maintains it incrementally — `Fleet::node_signature`). The
    /// free-slice list is only materialized on a miss, via `fill`; the hit
    /// path (~98% of lookups in the paper sweeps) touches no slice data.
    pub fn plan_with_signature(
        &mut self,
        f: FuncId,
        node: NodeId,
        ranked: bool,
        profile: &FunctionProfile,
        signature: u64,
        fill: impl FnOnce() -> Vec<FreeSlice>,
    ) -> Option<DeploymentPlan> {
        let _lookup = ffs_telemetry::span(ffs_telemetry::Phase::PlanCacheLookup);
        let key = (f, node, ranked, signature);
        if let Some(cached) = self.map.get(&key) {
            self.hits += 1;
            ffs_obs::record(|| ffs_obs::ObsEvent::PlanCacheLookup {
                func: f as u32,
                node: node.0,
                hit: true,
            });
            return cached.clone();
        }
        self.misses += 1;
        ffs_obs::record(|| ffs_obs::ObsEvent::PlanCacheLookup {
            func: f as u32,
            node: node.0,
            hit: false,
        });
        let free = fill();
        debug_assert_eq!(
            signature,
            slice_signature(&free),
            "caller-supplied signature diverged from the free-slice list"
        );
        let plan = if ranked {
            plan_deployment(profile, &free)
        } else {
            plan_deployment_unranked(profile, &free)
        };
        self.map.insert(key, plan.clone());
        plan
    }

    /// Whether a *monolithic* ranked plan exists for `profile` on `free`
    /// (the migration probe), without cloning the plan on a hit.
    pub fn monolithic_possible(
        &mut self,
        f: FuncId,
        node: NodeId,
        profile: &FunctionProfile,
        free: &[FreeSlice],
    ) -> bool {
        self.monolithic_possible_with_signature(f, node, profile, slice_signature(free), || {
            free.to_vec()
        })
    }

    /// [`PlanCache::monolithic_possible`] with a caller-supplied signature;
    /// like [`PlanCache::plan_with_signature`], the slice list is only
    /// materialized (via `fill`) when the lookup misses.
    pub fn monolithic_possible_with_signature(
        &mut self,
        f: FuncId,
        node: NodeId,
        profile: &FunctionProfile,
        signature: u64,
        fill: impl FnOnce() -> Vec<FreeSlice>,
    ) -> bool {
        let _lookup = ffs_telemetry::span(ffs_telemetry::Phase::PlanCacheLookup);
        let key = (f, node, true, signature);
        if let Some(cached) = self.map.get(&key) {
            self.hits += 1;
            ffs_obs::record(|| ffs_obs::ObsEvent::PlanCacheLookup {
                func: f as u32,
                node: node.0,
                hit: true,
            });
            return cached.as_ref().map(|p| p.is_monolithic()).unwrap_or(false);
        }
        self.misses += 1;
        ffs_obs::record(|| ffs_obs::ObsEvent::PlanCacheLookup {
            func: f as u32,
            node: node.0,
            hit: false,
        });
        let free = fill();
        debug_assert_eq!(
            signature,
            slice_signature(&free),
            "caller-supplied signature diverged from the free-slice list"
        );
        let plan = plan_deployment(profile, &free);
        let mono = plan.as_ref().map(|p| p.is_monolithic()).unwrap_or(false);
        self.map.insert(key, plan);
        mono
    }
}
