//! GPU-time / MIG-time cost accounting (§6, Table 6) and the
//! occupied-vs-active percentages of Figure 5.
//!
//! Definitions from the paper: *GPU time* is the total time a GPU is
//! active, even if only one slice is used; *MIG time* measures the active
//! time of individual slices. For Figure 5 we additionally distinguish a
//! slice being *occupied* (allocated to an instance, i.e. kept alive) from
//! being *actively used* (processing a request) — the gap between the two
//! is the waste caused by exclusive keep-alive.

use ffs_sim::{SimDuration, SimTime};

/// Identifies a slice for accounting: (GPU index, slice index).
pub type SliceKey = (u16, u8);

/// Dense per-slice slots per GPU. MIG exposes at most 7 compute
/// instances per GPU, so 8 keeps `gpu * STRIDE + index` collision-free;
/// the tables grow on demand if a layout ever exceeds it.
const SLICE_STRIDE: usize = 8;

#[inline]
fn slot(key: SliceKey) -> usize {
    debug_assert!((key.1 as usize) < SLICE_STRIDE, "slice index over stride");
    key.0 as usize * SLICE_STRIDE + key.1 as usize
}

/// Tracks allocation and activity intervals for a fleet.
#[derive(Clone, Debug)]
pub struct CostTracker {
    start: SimTime,
    num_gpus: usize,
    /// Allocated-slice count per GPU (drives "GPU time").
    alloc_count: Vec<u32>,
    gpu_busy_since: Vec<Option<SimTime>>,
    gpu_time: Vec<SimDuration>,
    /// Allocation start per slice (drives "MIG time" / occupied), with the
    /// slice's GPC weight for compute-normalized cost. Dense, indexed by
    /// [`slot`] — the per-stage hooks are the metrics hot path.
    occupied_since: Vec<Option<(SimTime, u32)>>,
    occupied_total: Vec<SimDuration>,
    occupied_gpc_secs: Vec<f64>,
    /// Activity start per slice (drives "actively used"), indexed by
    /// [`slot`].
    active_since: Vec<Option<SimTime>>,
    active_total: Vec<SimDuration>,
    /// Negative intervals clamped to zero (see [`CostTracker::clamps`]).
    clamps: u64,
}

/// Finalised cost report.
#[derive(Clone, Debug, PartialEq)]
pub struct CostReport {
    /// Per-GPU "GPU time" in seconds.
    pub gpu_time_secs: Vec<f64>,
    /// Per-GPU occupied MIG-seconds (sum over the GPU's slices).
    pub occupied_secs: Vec<f64>,
    /// Per-GPU occupied GPC-seconds (slice-seconds weighted by slice GPCs).
    pub occupied_gpc_secs: Vec<f64>,
    /// Per-GPU actively-used MIG-seconds.
    pub active_secs: Vec<f64>,
    /// Observation window in seconds.
    pub window_secs: f64,
}

impl CostReport {
    /// Total GPU time across the fleet.
    pub fn total_gpu_time_secs(&self) -> f64 {
        self.gpu_time_secs.iter().sum()
    }

    /// Total MIG (occupied) time across the fleet.
    pub fn total_mig_time_secs(&self) -> f64 {
        self.occupied_secs.iter().sum()
    }

    /// Total GPC-weighted MIG time across the fleet (compute-seconds
    /// actually reserved).
    pub fn total_mig_gpc_secs(&self) -> f64 {
        self.occupied_gpc_secs.iter().sum()
    }

    /// Total actively-used MIG time across the fleet.
    pub fn total_active_secs(&self) -> f64 {
        self.active_secs.iter().sum()
    }

    /// Figure 5's per-GPU occupied percentage: occupied MIG-seconds divided
    /// by the GPU's total slice-seconds (`slices * window`). Requires the
    /// per-GPU slice count.
    pub fn occupied_pct(&self, gpu: usize, slices_on_gpu: usize) -> f64 {
        if self.window_secs == 0.0 || slices_on_gpu == 0 {
            return 0.0;
        }
        self.occupied_secs[gpu] / (slices_on_gpu as f64 * self.window_secs) * 100.0
    }

    /// Figure 5's per-GPU actively-used percentage.
    pub fn active_pct(&self, gpu: usize, slices_on_gpu: usize) -> f64 {
        if self.window_secs == 0.0 || slices_on_gpu == 0 {
            return 0.0;
        }
        self.active_secs[gpu] / (slices_on_gpu as f64 * self.window_secs) * 100.0
    }
}

impl CostTracker {
    /// Creates a tracker for `num_gpus` GPUs, starting at `start`.
    pub fn new(num_gpus: usize, start: SimTime) -> Self {
        CostTracker {
            start,
            num_gpus,
            alloc_count: vec![0; num_gpus],
            gpu_busy_since: vec![None; num_gpus],
            gpu_time: vec![SimDuration::ZERO; num_gpus],
            occupied_since: vec![None; num_gpus * SLICE_STRIDE],
            occupied_total: vec![SimDuration::ZERO; num_gpus],
            occupied_gpc_secs: vec![0.0; num_gpus],
            active_since: vec![None; num_gpus * SLICE_STRIDE],
            active_total: vec![SimDuration::ZERO; num_gpus],
            clamps: 0,
        }
    }

    /// Negative intervals this tracker clamped to zero (an interval's end
    /// preceded its start). Always zero in a fault-free run — a nonzero
    /// count there indicates an event-ordering bug, so the engine
    /// asserts on it; fault injection legitimately clamps when
    /// failures cut intervals short.
    pub fn clamps(&self) -> u64 {
        self.clamps
    }

    /// Measures `end - start` saturating at zero, counting the clamp (both
    /// locally and via the process-wide `ffs_obs::metric_clamps` counter)
    /// when the interval is negative instead of silently masking it.
    #[inline]
    fn interval(&mut self, end: SimTime, start: SimTime) -> SimDuration {
        if end < start {
            self.clamps += 1;
            ffs_obs::note_metric_clamp();
        }
        end.saturating_since(start)
    }

    /// Records that a slice with `gpcs` compute units was allocated to an
    /// instance at `t`.
    pub fn slice_allocated(&mut self, t: SimTime, key: SliceKey, gpcs: u32) {
        let gpu = key.0 as usize;
        debug_assert!(gpu < self.num_gpus);
        let i = slot(key);
        if i >= self.occupied_since.len() {
            self.occupied_since.resize(i + 1, None);
            self.active_since.resize(i + 1, None);
        }
        let prev = self.occupied_since[i].replace((t, gpcs));
        // Checked in release builds too: a second allocation would drop
        // the first one's open interval from the MIG-time totals.
        assert!(prev.is_none(), "double allocation of {key:?}");
        if self.alloc_count[gpu] == 0 {
            self.gpu_busy_since[gpu] = Some(t);
        }
        self.alloc_count[gpu] += 1;
    }

    /// Records that a slice was released at `t`.
    pub fn slice_released(&mut self, t: SimTime, key: SliceKey) {
        let gpu = key.0 as usize;
        if let Some((since, gpcs)) = self
            .occupied_since
            .get_mut(slot(key))
            .and_then(Option::take)
        {
            let d = self.interval(t, since);
            self.occupied_total[gpu] += d;
            self.occupied_gpc_secs[gpu] += d.as_secs_f64() * gpcs as f64;
        } else {
            debug_assert!(false, "release of unallocated {key:?}");
        }
        // Activity implicitly ends with the allocation.
        self.slice_idle(t, key);
        debug_assert!(self.alloc_count[gpu] > 0);
        self.alloc_count[gpu] -= 1;
        if self.alloc_count[gpu] == 0 {
            if let Some(since) = self.gpu_busy_since[gpu].take() {
                let d = self.interval(t, since);
                self.gpu_time[gpu] += d;
            }
        }
    }

    /// Records that a slice began processing a request at `t`. Idempotent
    /// while already active.
    pub fn slice_active(&mut self, t: SimTime, key: SliceKey) {
        let i = slot(key);
        if i >= self.active_since.len() {
            self.occupied_since.resize(i + 1, None);
            self.active_since.resize(i + 1, None);
        }
        self.active_since[i].get_or_insert(t);
    }

    /// Records that a slice stopped processing at `t`. Idempotent while
    /// already idle.
    pub fn slice_idle(&mut self, t: SimTime, key: SliceKey) {
        if let Some(since) = self.active_since.get_mut(slot(key)).and_then(Option::take) {
            let d = self.interval(t, since);
            self.active_total[key.0 as usize] += d;
        }
    }

    /// The first GPU whose active MIG time up to `end` exceeds its
    /// occupied MIG time, open intervals included, with both totals. A
    /// slice works only while allocated, so any answer but `None` is a
    /// bookkeeping bug. Reads only: nothing is closed or counted.
    pub fn active_overrun(&self, end: SimTime) -> Option<(usize, SimDuration, SimDuration)> {
        let mut active = self.active_total.clone();
        let mut occupied = self.occupied_total.clone();
        for (i, since) in self.active_since.iter().enumerate() {
            if let Some(since) = since {
                active[i / SLICE_STRIDE] += end.saturating_since(*since);
            }
        }
        for (i, since) in self.occupied_since.iter().enumerate() {
            if let Some((since, _)) = since {
                occupied[i / SLICE_STRIDE] += end.saturating_since(*since);
            }
        }
        let gpu = active.iter().zip(&occupied).position(|(a, o)| a > o)?;
        Some((gpu, active[gpu], occupied[gpu]))
    }

    /// Closes all open intervals at `end` and produces the report.
    pub fn finalize(mut self, end: SimTime) -> CostReport {
        for i in 0..self.active_since.len() {
            if let Some(since) = self.active_since[i].take() {
                let d = self.interval(end, since);
                self.active_total[i / SLICE_STRIDE] += d;
            }
        }
        for i in 0..self.occupied_since.len() {
            if let Some((since, gpcs)) = self.occupied_since[i].take() {
                let gpu = i / SLICE_STRIDE;
                let d = self.interval(end, since);
                self.occupied_total[gpu] += d;
                self.occupied_gpc_secs[gpu] += d.as_secs_f64() * gpcs as f64;
            }
        }
        for gpu in 0..self.num_gpus {
            if let Some(since) = self.gpu_busy_since[gpu].take() {
                let d = self.interval(end, since);
                self.gpu_time[gpu] += d;
            }
        }
        let start = self.start;
        let window = self.interval(end, start);
        CostReport {
            gpu_time_secs: self.gpu_time.iter().map(|d| d.as_secs_f64()).collect(),
            occupied_secs: self
                .occupied_total
                .iter()
                .map(|d| d.as_secs_f64())
                .collect(),
            occupied_gpc_secs: self.occupied_gpc_secs.clone(),
            active_secs: self.active_total.iter().map(|d| d.as_secs_f64()).collect(),
            window_secs: window.as_secs_f64(),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn gpu_time_counts_any_allocation() {
        let mut c = CostTracker::new(2, t(0));
        c.slice_allocated(t(10), (0, 0), 4);
        c.slice_allocated(t(20), (0, 1), 2); // overlapping on same GPU
        c.slice_released(t(30), (0, 0));
        c.slice_released(t(50), (0, 1));
        let r = c.finalize(t(100));
        // GPU 0 busy from 10 to 50 = 40 s, GPU 1 never.
        assert!((r.gpu_time_secs[0] - 40.0).abs() < 1e-9);
        assert_eq!(r.gpu_time_secs[1], 0.0);
        // MIG time: slice (0,0) 20 s + slice (0,1) 30 s = 50 s.
        assert!((r.occupied_secs[0] - 50.0).abs() < 1e-9);
        assert!((r.total_gpu_time_secs() - 40.0).abs() < 1e-9);
        assert!((r.total_mig_time_secs() - 50.0).abs() < 1e-9);
        // GPC-weighted: 20 s x 4 GPCs + 30 s x 2 GPCs = 140 GPC-seconds.
        assert!((r.total_mig_gpc_secs() - 140.0).abs() < 1e-9);
    }

    #[test]
    fn active_time_tracked_separately() {
        let mut c = CostTracker::new(1, t(0));
        c.slice_allocated(t(0), (0, 0), 1);
        c.slice_active(t(10), (0, 0));
        c.slice_idle(t(15), (0, 0));
        c.slice_active(t(20), (0, 0));
        c.slice_idle(t(30), (0, 0));
        c.slice_released(t(100), (0, 0));
        let r = c.finalize(t(100));
        assert!((r.active_secs[0] - 15.0).abs() < 1e-9);
        assert!((r.occupied_secs[0] - 100.0).abs() < 1e-9);
        // Figure 5's story: occupied 100%, active 15% of one slice over 100 s.
        assert!((r.occupied_pct(0, 1) - 100.0).abs() < 1e-9);
        assert!((r.active_pct(0, 1) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn finalize_closes_open_intervals() {
        let mut c = CostTracker::new(1, t(0));
        c.slice_allocated(t(40), (0, 2), 2);
        c.slice_active(t(50), (0, 2));
        let r = c.finalize(t(60));
        assert!((r.gpu_time_secs[0] - 20.0).abs() < 1e-9);
        assert!((r.occupied_secs[0] - 20.0).abs() < 1e-9);
        assert!((r.active_secs[0] - 10.0).abs() < 1e-9);
        assert!((r.window_secs - 60.0).abs() < 1e-9);
    }

    #[test]
    fn release_ends_activity() {
        let mut c = CostTracker::new(1, t(0));
        c.slice_allocated(t(0), (0, 0), 1);
        c.slice_active(t(5), (0, 0));
        c.slice_released(t(8), (0, 0));
        let r = c.finalize(t(10));
        assert!((r.active_secs[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn idempotent_activity_calls() {
        let mut c = CostTracker::new(1, t(0));
        c.slice_allocated(t(0), (0, 0), 1);
        c.slice_active(t(2), (0, 0));
        c.slice_active(t(4), (0, 0)); // ignored: already active since 2
        c.slice_idle(t(6), (0, 0));
        c.slice_idle(t(8), (0, 0)); // ignored
        c.slice_released(t(10), (0, 0));
        let r = c.finalize(t(10));
        assert!((r.active_secs[0] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn negative_intervals_are_counted_not_masked() {
        let mut c = CostTracker::new(1, t(0));
        c.slice_allocated(t(10), (0, 0), 1);
        c.slice_active(t(12), (0, 0));
        assert_eq!(c.clamps(), 0);
        // An out-of-order release: end precedes both open starts.
        c.slice_released(t(5), (0, 0));
        assert_eq!(c.clamps(), 3, "occupied + active + gpu-busy clamps counted");
        let before = c.clamps();
        let r = c.finalize(t(20));
        assert!((r.occupied_secs[0] - 0.0).abs() < 1e-9);
        assert!(before >= 2);
    }

    #[test]
    fn well_ordered_runs_report_zero_clamps() {
        let mut c = CostTracker::new(1, t(0));
        c.slice_allocated(t(0), (0, 0), 1);
        c.slice_active(t(1), (0, 0));
        c.slice_idle(t(2), (0, 0));
        c.slice_released(t(3), (0, 0));
        assert_eq!(c.clamps(), 0);
    }

    #[test]
    fn zero_window_percentages() {
        let c = CostTracker::new(1, t(0));
        let r = c.finalize(t(0));
        assert_eq!(r.occupied_pct(0, 3), 0.0);
        assert_eq!(r.active_pct(0, 0), 0.0);
    }

    #[test]
    fn active_overrun_flags_work_on_an_unallocated_slice() {
        let mut c = CostTracker::new(2, t(0));
        c.slice_allocated(t(0), (0, 0), 1);
        c.slice_active(t(2), (0, 0));
        c.slice_idle(t(4), (0, 0));
        // Open intervals count: slice (0, 0) is still allocated at t = 9.
        assert_eq!(c.active_overrun(t(9)), None);
        // GPU 1's slice works without ever being allocated.
        c.slice_active(t(5), (1, 3));
        assert_eq!(
            c.active_overrun(t(9)),
            Some((1, SimDuration::from_secs(4), SimDuration::ZERO))
        );
        assert_eq!(c.clamps(), 0, "reading closes and counts nothing");
    }

    #[test]
    #[should_panic(expected = "double allocation")]
    fn double_allocation_panics() {
        let mut c = CostTracker::new(1, t(0));
        c.slice_allocated(t(0), (0, 2), 1);
        c.slice_allocated(t(1), (0, 2), 1);
    }
}
