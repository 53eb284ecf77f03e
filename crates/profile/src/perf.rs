//! The analytic performance model standing in for on-hardware profiling.
//!
//! The schedulers only ever consume profile *numbers* (execution time per
//! slice size, load times, transfer times); the paper obtains them by
//! measurement, we obtain them from a small analytic model. The shapes that
//! matter for the evaluation are preserved: execution time shrinks
//! sublinearly with GPCs (Amdahl), model loading is PCIe-bound, pipeline
//! boundaries cost 10–40 ms through host shared memory while the baseline's
//! in-process handoff costs 1–5 ms.

/// Analytic cost model for DNN inference on MIG slices.
#[derive(Clone, Debug)]
pub struct PerfModel {
    /// Amdahl serial fraction of a DNN inference: the part that does not
    /// speed up with more GPCs (kernel launch, memory-bound layers).
    pub serial_fraction: f64,
    /// Effective host-to-device bandwidth for loading model weights, GB/s.
    pub pcie_gbps: f64,
    /// Effective bandwidth of a stage-boundary handoff through host shared
    /// memory (device-to-host copy, shm write + read, host-to-device copy),
    /// GB/s.
    pub shm_gbps: f64,
    /// Fixed overhead per pipeline-stage boundary, ms (queue wakeup,
    /// (de)serialisation).
    pub boundary_base_ms: f64,
    /// Fixed overhead of the baseline's in-process handoff between models
    /// on the same slice, ms (the paper's 1–5 ms).
    pub inprocess_handoff_ms: f64,
    /// Container / process cold-start cost, ms (excluding model load).
    pub cold_start_ms: f64,
}

impl Default for PerfModel {
    fn default() -> Self {
        PerfModel {
            serial_fraction: 0.2,
            pcie_gbps: 16.0,
            shm_gbps: 4.0,
            boundary_base_ms: 5.0,
            inprocess_handoff_ms: 1.5,
            cold_start_ms: 2_000.0,
        }
    }
}

impl PerfModel {
    /// Amdahl speedup factor on `gpcs` GPCs: the fraction of the 1-GPC
    /// execution time remaining.
    pub fn amdahl(&self, gpcs: u32) -> f64 {
        debug_assert!(gpcs >= 1);
        self.serial_fraction + (1.0 - self.serial_fraction) / gpcs as f64
    }

    /// Execution time (ms) of a component with 1-GPC cost `work_ms` on a
    /// slice with `gpcs` GPCs.
    pub fn exec_ms(&self, work_ms: f64, gpcs: u32) -> f64 {
        work_ms * self.amdahl(gpcs)
    }

    /// Time (ms) to load `mem_gb` of model state from host to device (the
    /// warm-start load, and also the eviction write-back cost).
    pub fn load_ms(&self, mem_gb: f64) -> f64 {
        mem_gb / self.pcie_gbps * 1_000.0
    }

    /// Cold-start time (ms): container start plus model load.
    pub fn cold_start_total_ms(&self, mem_gb: f64) -> f64 {
        self.cold_start_ms + self.load_ms(mem_gb)
    }

    /// Cost (ms) of moving `mb` megabytes across one pipeline-stage
    /// boundary through host shared memory.
    pub fn boundary_ms(&self, mb: f64) -> f64 {
        self.boundary_base_ms + mb / (self.shm_gbps * 1_000.0) * 1_000.0
    }

    /// Total transfer overhead (ms) for a pipeline with the given
    /// per-boundary tensor sizes.
    pub fn pipeline_transfer_ms(&self, boundaries_mb: &[f64]) -> f64 {
        boundaries_mb.iter().map(|&mb| self.boundary_ms(mb)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amdahl_is_monotone_and_bounded() {
        let m = PerfModel::default();
        assert_eq!(m.amdahl(1), 1.0);
        let mut prev = m.amdahl(1);
        for g in 2..=7 {
            let cur = m.amdahl(g);
            assert!(cur < prev, "more GPCs must not slow down");
            assert!(cur > m.serial_fraction, "bounded by the serial fraction");
            prev = cur;
        }
    }

    #[test]
    fn exec_scales_with_work() {
        let m = PerfModel::default();
        assert_eq!(m.exec_ms(100.0, 1), 100.0);
        assert!((m.exec_ms(100.0, 2) - 60.0).abs() < 1e-9);
        assert!((m.exec_ms(100.0, 4) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn load_time_is_pcie_bound() {
        let m = PerfModel::default();
        // 16 GB over 16 GB/s = 1 s.
        assert!((m.load_ms(16.0) - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn boundary_cost_in_paper_range() {
        // The paper reports 10–40 ms total pipeline transfer overhead; a
        // typical 20–100 MB of crossing tensors must land in that range.
        let m = PerfModel::default();
        let small = m.pipeline_transfer_ms(&[20.0]);
        let big = m.pipeline_transfer_ms(&[48.0, 48.0]);
        assert!(small >= 10.0 - 1e-9, "small transfer {small}");
        assert!(big <= 40.0, "big transfer {big}");
        // ... and the in-process handoff is the paper's 1–5 ms.
        assert!(m.inprocess_handoff_ms >= 1.0 && m.inprocess_handoff_ms <= 5.0);
    }

    #[test]
    fn cold_start_dominated_by_container() {
        let m = PerfModel::default();
        assert!(m.cold_start_total_ms(8.0) > m.load_ms(8.0));
    }
}
