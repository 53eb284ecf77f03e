//! `ffs-chaos` — deterministic, seed-driven fault injection.
//!
//! A [`FaultSpec`] describes a failure regime (per-class mean time between
//! failures, recovery latency, and a retry policy). From it,
//! [`ChaosState::build`] derives a *timeline* of fault events — slice
//! failures, whole-GPU (XID-style) failures, and node outages — as a pure
//! function of `(spec, fleet shape, horizon)`: the same spec always yields
//! the same failures at the same simulated instants, regardless of wall
//! clock, thread count or tracing. The engine schedules the timeline
//! through the ordinary ffs-sim event queue at the first scale tick and
//! handles the resulting `Fault` / `Repair` / `Recover` / `Retry` events
//! (see `platform::engine`).
//!
//! A disabled spec (all MTBFs zero — the default) costs the control plane
//! exactly one branch per tick and leaves the event-sequence counter
//! untouched, so fault-free runs stay bit-identical to the pre-chaos
//! determinism goldens.

use ffs_mig::nvml::NvmlSim;
use ffs_mig::{GpuId, NodeId, SliceId};

/// What a scheduled fault (or its repair/recovery) targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultTarget {
    /// One MIG slice fails in isolation (the paper's strong-isolation
    /// boundary: neighbours keep running).
    Slice(SliceId),
    /// A whole GPU fails (XID-style): every slice on it fails at once.
    Gpu(GpuId),
    /// A whole node goes down: every GPU on it fails.
    Node(NodeId),
}

/// Per-run fault-injection configuration.
///
/// Failure inter-arrival times are exponential with the given per-class
/// MTBF; an MTBF of zero disables that class. Victims are drawn uniformly.
/// All draws come from a private SplitMix64 stream seeded by `seed`, so
/// output is a pure function of `(run seed, FaultSpec)`.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// Seed of the fault stream (independent of the trace seed).
    pub seed: u64,
    /// Mean time between single-slice failures, seconds (0 = off).
    pub slice_mtbf_secs: f64,
    /// Mean time between whole-GPU failures, seconds (0 = off).
    pub gpu_mtbf_secs: f64,
    /// Mean time between node outages, seconds (0 = off).
    pub node_mtbf_secs: f64,
    /// Seconds between a failure and the start of its repair
    /// (reconfiguration); the slice re-enters placement
    /// `recovery_secs + RECONFIGURE_SECS` after failing.
    pub recovery_secs: f64,
    /// Base retry backoff for requests whose instance died (ms).
    pub retry_base_ms: u64,
    /// Cap on the exponential retry backoff (ms).
    pub retry_cap_ms: u64,
    /// Retries after which a request is dropped (counted as an SLO miss).
    pub max_retries: u32,
}

impl FaultSpec {
    /// The default: no faults. Costs one branch per scale tick.
    pub fn disabled() -> Self {
        FaultSpec {
            seed: 0,
            slice_mtbf_secs: 0.0,
            gpu_mtbf_secs: 0.0,
            node_mtbf_secs: 0.0,
            recovery_secs: 30.0,
            retry_base_ms: 50,
            retry_cap_ms: 2_000,
            max_retries: 5,
        }
    }

    /// A slice-failure regime with the given MTBF and defaults elsewhere.
    pub fn slice_faults(seed: u64, mtbf_secs: f64) -> Self {
        FaultSpec {
            seed,
            slice_mtbf_secs: mtbf_secs,
            ..Self::disabled()
        }
    }

    /// True if any failure class is active.
    pub fn enabled(&self) -> bool {
        self.slice_mtbf_secs > 0.0 || self.gpu_mtbf_secs > 0.0 || self.node_mtbf_secs > 0.0
    }

    /// Backoff before retry `attempt` (1-based): capped exponential.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        let factor = 1u64 << attempt.saturating_sub(1).min(20);
        self.retry_base_ms
            .saturating_mul(factor)
            .min(self.retry_cap_ms)
    }
}

/// SplitMix64: tiny, high-quality, dependency-free PRNG, so the chaos
/// timeline owns a stream no other component draws from.
#[derive(Clone, Debug)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]` — never zero, so `ln` below stays finite.
    fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }
}

/// The shape of the fleet the timeline draws victims from.
#[derive(Clone, Copy, Debug)]
pub struct FleetShape {
    /// Invoker nodes.
    pub nodes: usize,
    /// GPUs per node.
    pub gpus_per_node: usize,
    /// Slices per GPU (uniform partitions; per-GPU layouts use the
    /// smallest count so drawn slice indices always exist).
    pub slices_per_gpu: usize,
}

/// Per-run fault-injection state owned by the engine core.
#[derive(Debug)]
pub struct ChaosState {
    /// The driving spec.
    pub spec: FaultSpec,
    /// True when any failure class is active (cached `spec.enabled()`).
    pub enabled: bool,
    /// True once the timeline has been pushed into the scheduler.
    pub armed: bool,
    /// True once any fault has actually fired (stale-event tolerance is
    /// only granted after this point).
    pub fired: bool,
    /// The precomputed fault schedule: `(time µs, target)`, sorted.
    pub timeline: Vec<(u64, FaultTarget)>,
    /// Retry attempts per request id (grown on demand; only ever touched
    /// on the fault path).
    pub retries: Vec<u32>,
    /// Instance ids killed by faults, for stale-event classification.
    pub killed: Vec<u64>,
    /// NVML mirror that charges the real reconfiguration latency on the
    /// recovery path; `None` when chaos is disabled.
    pub nvml: Option<NvmlSim>,
    /// Slice failures injected.
    pub slice_failures: u64,
    /// Whole-GPU failure events injected.
    pub gpu_failures: u64,
    /// Request retries issued.
    pub request_retries: u64,
    /// Requests dropped after exhausting `max_retries`.
    pub retries_exhausted: u64,
    /// Pipelines rebuilt after a failure.
    pub pipeline_rebuilds: u64,
    /// Slices recovered back into placement.
    pub slice_recoveries: u64,
}

impl ChaosState {
    /// A disabled state: armed from the start, empty timeline, no mirror.
    pub fn disabled() -> Self {
        ChaosState {
            spec: FaultSpec::disabled(),
            enabled: false,
            armed: true,
            fired: false,
            timeline: Vec::new(),
            retries: Vec::new(),
            killed: Vec::new(),
            nvml: None,
            slice_failures: 0,
            gpu_failures: 0,
            request_retries: 0,
            retries_exhausted: 0,
            pipeline_rebuilds: 0,
            slice_recoveries: 0,
        }
    }

    /// Builds the state for `spec`: generates the fault timeline over
    /// `[1 µs, horizon_us]` and, when enabled, a MIG-enabled NVML mirror
    /// for charging reconfiguration latency at repair time.
    pub fn build(spec: FaultSpec, shape: FleetShape, horizon_us: u64) -> Self {
        if !spec.enabled() {
            return ChaosState {
                spec,
                ..Self::disabled()
            };
        }
        let timeline = generate_timeline(&spec, shape, horizon_us);
        let gpu_count = (shape.nodes * shape.gpus_per_node) as u16;
        let mut nvml = NvmlSim::init(gpu_count);
        for g in 0..gpu_count {
            // MIG mode on, but no repartition yet: the first repartition —
            // and its 180 s — is charged on the recovery path, not at boot
            // (partitions are prepared before the evaluation window, per
            // the paper's setup).
            let _ = nvml.set_mig_mode(g, ffs_mig::nvml::MigMode::Enabled);
        }
        ChaosState {
            spec,
            enabled: true,
            armed: false,
            fired: false,
            timeline,
            retries: Vec::new(),
            killed: Vec::new(),
            nvml: Some(nvml),
            slice_failures: 0,
            gpu_failures: 0,
            request_retries: 0,
            retries_exhausted: 0,
            pipeline_rebuilds: 0,
            slice_recoveries: 0,
        }
    }

    /// The retry attempt counter for `req`, growing the table on demand.
    pub fn bump_retry(&mut self, req: u64) -> u32 {
        let i = req as usize;
        if i >= self.retries.len() {
            self.retries.resize(i + 1, 0);
        }
        self.retries[i] += 1;
        self.retries[i]
    }

    /// True if `inst` was killed by a fault.
    pub fn was_killed(&self, inst: u64) -> bool {
        self.killed.contains(&inst)
    }
}

/// Rank used to order same-instant faults deterministically: slices fail
/// before GPUs before nodes, then by victim id.
fn class_rank(t: &FaultTarget) -> u8 {
    match t {
        FaultTarget::Slice(_) => 0,
        FaultTarget::Gpu(_) => 1,
        FaultTarget::Node(_) => 2,
    }
}

fn generate_timeline(
    spec: &FaultSpec,
    shape: FleetShape,
    horizon_us: u64,
) -> Vec<(u64, FaultTarget)> {
    let mut out: Vec<(u64, FaultTarget)> = Vec::new();
    let gpu_count = (shape.nodes * shape.gpus_per_node) as u64;
    let slice_count = gpu_count * shape.slices_per_gpu as u64;

    // Each class draws from its own stream (seed mixed with the class id)
    // so toggling one class never shifts another's schedule.
    let mut draw = |class: u64,
                    mtbf_secs: f64,
                    mut victim: Box<dyn FnMut(&mut SplitMix64) -> FaultTarget>| {
        if mtbf_secs <= 0.0 {
            return;
        }
        let mut rng =
            SplitMix64::new(spec.seed ^ (0xC1A0_5000 + class).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut t_us: u64 = 0;
        loop {
            let gap_secs = -spec_ln(rng.next_unit()) * mtbf_secs;
            let gap_us = (gap_secs * 1e6) as u64;
            t_us = t_us.saturating_add(gap_us.max(1));
            if t_us > horizon_us {
                break;
            }
            let target = victim(&mut rng);
            out.push((t_us.max(1), target));
        }
    };

    if slice_count > 0 {
        let spg = shape.slices_per_gpu as u64;
        draw(
            0,
            spec.slice_mtbf_secs,
            Box::new(move |rng| {
                let i = rng.below(slice_count);
                FaultTarget::Slice(SliceId::new(GpuId((i / spg) as u16), (i % spg) as u8))
            }),
        );
    }
    if gpu_count > 0 {
        draw(
            1,
            spec.gpu_mtbf_secs,
            Box::new(move |rng| FaultTarget::Gpu(GpuId(rng.below(gpu_count) as u16))),
        );
    }
    if shape.nodes > 0 {
        let nodes = shape.nodes as u64;
        draw(
            2,
            spec.node_mtbf_secs,
            Box::new(move |rng| FaultTarget::Node(NodeId(rng.below(nodes) as u16))),
        );
    }

    out.sort_by(|a, b| {
        a.0.cmp(&b.0)
            .then_with(|| class_rank(&a.1).cmp(&class_rank(&b.1)))
            .then_with(|| a.1.cmp(&b.1))
    });
    out
}

/// `ln` wrapper (kept separate so the one float-sensitive call site is
/// easy to audit: `ln` is correctly-rounded-enough and identical across
/// platforms for the IEEE doubles SplitMix64 produces).
#[inline]
fn spec_ln(u: f64) -> f64 {
    u.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> FleetShape {
        FleetShape {
            nodes: 2,
            gpus_per_node: 8,
            slices_per_gpu: 3,
        }
    }

    #[test]
    fn disabled_spec_builds_inert_state() {
        let s = ChaosState::build(FaultSpec::disabled(), shape(), 1_000_000);
        assert!(!s.enabled);
        assert!(s.armed, "disabled state needs no arming tick");
        assert!(s.timeline.is_empty());
        assert!(s.nvml.is_none());
    }

    #[test]
    fn timeline_is_a_pure_function_of_spec() {
        let spec = FaultSpec::slice_faults(42, 60.0);
        let a = ChaosState::build(spec.clone(), shape(), 600_000_000);
        let b = ChaosState::build(spec, shape(), 600_000_000);
        assert_eq!(a.timeline, b.timeline);
        assert!(!a.timeline.is_empty(), "600 s at 60 s MTBF must fault");
    }

    #[test]
    fn different_seeds_give_different_timelines() {
        let a = ChaosState::build(FaultSpec::slice_faults(1, 60.0), shape(), 600_000_000);
        let b = ChaosState::build(FaultSpec::slice_faults(2, 60.0), shape(), 600_000_000);
        assert_ne!(a.timeline, b.timeline);
    }

    #[test]
    fn timeline_is_sorted_and_in_horizon() {
        let spec = FaultSpec {
            gpu_mtbf_secs: 120.0,
            node_mtbf_secs: 500.0,
            ..FaultSpec::slice_faults(7, 30.0)
        };
        let s = ChaosState::build(spec, shape(), 600_000_000);
        assert!(s.timeline.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(s
            .timeline
            .iter()
            .all(|&(t, _)| (1..=600_000_000).contains(&t)));
        // All three classes present in a 10-minute window.
        assert!(s
            .timeline
            .iter()
            .any(|(_, t)| matches!(t, FaultTarget::Slice(_))));
        assert!(s
            .timeline
            .iter()
            .any(|(_, t)| matches!(t, FaultTarget::Gpu(_))));
    }

    #[test]
    fn victims_are_in_range() {
        let s = ChaosState::build(FaultSpec::slice_faults(9, 10.0), shape(), 600_000_000);
        for &(_, target) in &s.timeline {
            match target {
                FaultTarget::Slice(id) => {
                    assert!((id.gpu.0 as usize) < 16);
                    assert!((id.index as usize) < 3);
                }
                FaultTarget::Gpu(g) => assert!((g.0 as usize) < 16),
                FaultTarget::Node(n) => assert!((n.0 as usize) < 2),
            }
        }
    }

    #[test]
    fn toggling_one_class_does_not_shift_another() {
        let base = FaultSpec::slice_faults(11, 45.0);
        let with_gpu = FaultSpec {
            gpu_mtbf_secs: 200.0,
            ..base.clone()
        };
        let only_slices = ChaosState::build(base, shape(), 600_000_000);
        let both = ChaosState::build(with_gpu, shape(), 600_000_000);
        let slices_of = |s: &ChaosState| {
            s.timeline
                .iter()
                .filter(|(_, t)| matches!(t, FaultTarget::Slice(_)))
                .cloned()
                .collect::<Vec<_>>()
        };
        assert_eq!(slices_of(&only_slices), slices_of(&both));
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let spec = FaultSpec::disabled();
        assert_eq!(spec.backoff_ms(1), 50);
        assert_eq!(spec.backoff_ms(2), 100);
        assert_eq!(spec.backoff_ms(3), 200);
        assert_eq!(spec.backoff_ms(10), 2_000, "capped");
    }

    #[test]
    fn retry_table_grows_on_demand() {
        let mut s = ChaosState::disabled();
        assert_eq!(s.bump_retry(5), 1);
        assert_eq!(s.bump_retry(5), 2);
        assert_eq!(s.bump_retry(0), 1);
        assert!(!s.was_killed(3));
        s.killed.push(3);
        assert!(s.was_killed(3));
    }
}
