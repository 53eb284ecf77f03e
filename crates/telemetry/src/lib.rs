//! Engine self-observation: an always-compiled-in phase profiler plus a
//! static metrics registry.
//!
//! The other observability crates watch the *simulated system*: `ffs-obs`
//! records control-plane decisions, `ffs-metrics` scores the paper's
//! evaluation figures. This crate watches the *engine itself* — where the
//! host CPU cycles of a sweep actually go — cheaply enough to stay on in
//! every run:
//!
//! * **Phase profiler** ([`span`], [`Phase`]) — a fixed enum of hot
//!   phases, timed with scoped guards over a raw cycle counter
//!   (`rdtsc` on x86-64). Guards nest; each one charges **self-time
//!   only** (its elapsed cycles minus its children's), so per-phase
//!   totals sum to the root span's wall time instead of double counting.
//!   All hot-path state is per-thread, fixed-size and allocation-free
//!   (const-initialised TLS, an open-addressed path table), preserving
//!   the engine's zero-allocation steady state. Harness threads fold
//!   their accumulators into a process-wide snapshot via
//!   [`flush_thread`] / [`snapshot`].
//! * **Metrics registry** ([`counter`], [`gauge`], [`histogram`]) —
//!   named process-wide counters, gauges and mergeable log2-bucket
//!   histograms ([`Log2Histogram`]), registered once and updated with
//!   relaxed atomics.
//! * **Exporters** — Prometheus-style text exposition
//!   ([`render_prometheus`]) and a collapsed-stack file
//!   ([`write_collapsed`]) consumable by `inferno` / `flamegraph.pl`.
//!
//! Profiling defaults to **on**; set `FFS_TELEMETRY=0` (or `off` /
//! `false`) to reduce every guard to a single relaxed atomic load.
//! Telemetry only ever *reads* clocks — it feeds nothing back into the
//! simulation, so runs are bit-identical with profiling on or off.

use std::sync::atomic::{AtomicU8, Ordering};

pub mod clock;
mod export;
mod phase;
mod registry;

pub use export::{
    render_phase_exposition, render_prometheus, write_collapsed, write_prometheus_file,
};
pub use phase::{
    flush_thread, reset_for_tests, snapshot, span, PathStat, Phase, PhaseGuard, PhaseSnapshot,
    PHASE_COUNT,
};
pub use registry::{
    counter, default_registry, gauge, histogram, Counter, Gauge, Log2Histogram, Registry,
};

/// Tri-state switch: 0 = unresolved (consult the environment), 1 = on,
/// 2 = off. Resolved lazily so the first guard pays the env lookup, not
/// crate load.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Whether phase profiling is active. Defaults to on; `FFS_TELEMETRY=0`
/// (or `off` / `false`) disables it. One relaxed load on the hot path.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => resolve_enabled(),
    }
}

#[cold]
fn resolve_enabled() -> bool {
    let off = std::env::var("FFS_TELEMETRY")
        .map(|v| matches!(v.trim(), "0" | "off" | "false"))
        .unwrap_or(false);
    STATE.store(if off { 2 } else { 1 }, Ordering::Relaxed);
    !off
}

/// Force profiling on or off, overriding the environment (tests and
/// binaries that want an explicit baseline).
pub fn set_enabled(on: bool) {
    STATE.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// Serialises the unit tests that flip the process-wide enable flag or
/// reset and read the merged profile, so they stay deterministic under
/// parallel test threads. A panicking test must not cascade into the
/// others, so a poisoned lock is simply taken over.
#[cfg(test)]
pub(crate) fn serial_test() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_toggle_round_trips() {
        let _serial = serial_test();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
    }
}
