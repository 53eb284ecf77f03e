//! Format goldens for the Prometheus text exposition.
//!
//! Scrape pipelines parse this output with line regexes, so the exact
//! shape — HELP/TYPE headers, label quoting, cumulative `_bucket{le=}`
//! series, `_sum`/`_count` — is a compatibility surface. These tests pin
//! it byte-for-byte on a private registry and a hand-built snapshot
//! (never the process-global state, which other tests mutate).

use ffs_telemetry::{render_phase_exposition, Phase, PhaseSnapshot, Registry};

#[test]
fn registry_render_matches_golden() {
    let r = Registry::new();
    r.counter("ffs_demo_requests_total", "Requests accepted")
        .add(3);
    r.gauge("ffs_demo_queue_depth", "Pending requests").set(7);
    let h = r.histogram("ffs_demo_latency_ns", "Request latency");
    h.record(0);
    h.record(1);
    h.record(5);
    h.record(5);
    let golden = "\
# HELP ffs_demo_latency_ns Request latency
# TYPE ffs_demo_latency_ns histogram
ffs_demo_latency_ns_bucket{le=\"0\"} 1
ffs_demo_latency_ns_bucket{le=\"1\"} 2
ffs_demo_latency_ns_bucket{le=\"7\"} 4
ffs_demo_latency_ns_bucket{le=\"+Inf\"} 4
ffs_demo_latency_ns_sum 11
ffs_demo_latency_ns_count 4
# HELP ffs_demo_queue_depth Pending requests
# TYPE ffs_demo_queue_depth gauge
ffs_demo_queue_depth 7
# HELP ffs_demo_requests_total Requests accepted
# TYPE ffs_demo_requests_total counter
ffs_demo_requests_total 3
";
    assert_eq!(r.render(), golden);
}

#[test]
fn phase_exposition_matches_golden() {
    let mut snap = PhaseSnapshot::default();
    snap.cycles[Phase::WheelDrain as usize] = 1200;
    snap.calls[Phase::WheelDrain as usize] = 3;
    snap.cycles[Phase::BatchDispatch as usize] = 800;
    snap.calls[Phase::BatchDispatch as usize] = 40;
    snap.depth_overflows = 2;
    let golden = "\
# HELP ffs_phase_self_cycles_total Self-time cycles charged to each engine phase
# TYPE ffs_phase_self_cycles_total counter
ffs_phase_self_cycles_total{phase=\"trace_synth\"} 0
ffs_phase_self_cycles_total{phase=\"engine_setup\"} 0
ffs_phase_self_cycles_total{phase=\"wheel_drain\"} 1200
ffs_phase_self_cycles_total{phase=\"batch_dispatch\"} 800
ffs_phase_self_cycles_total{phase=\"routing_scan\"} 0
ffs_phase_self_cycles_total{phase=\"plan_cache_lookup\"} 0
ffs_phase_self_cycles_total{phase=\"policy_call\"} 0
ffs_phase_self_cycles_total{phase=\"autoscaler_tick\"} 0
ffs_phase_self_cycles_total{phase=\"obs_fold\"} 0
ffs_phase_self_cycles_total{phase=\"run_other\"} 0
ffs_phase_self_cycles_total{phase=\"route_index_maint\"} 0
# HELP ffs_phase_calls_total Completed spans per engine phase
# TYPE ffs_phase_calls_total counter
ffs_phase_calls_total{phase=\"trace_synth\"} 0
ffs_phase_calls_total{phase=\"engine_setup\"} 0
ffs_phase_calls_total{phase=\"wheel_drain\"} 3
ffs_phase_calls_total{phase=\"batch_dispatch\"} 40
ffs_phase_calls_total{phase=\"routing_scan\"} 0
ffs_phase_calls_total{phase=\"plan_cache_lookup\"} 0
ffs_phase_calls_total{phase=\"policy_call\"} 0
ffs_phase_calls_total{phase=\"autoscaler_tick\"} 0
ffs_phase_calls_total{phase=\"obs_fold\"} 0
ffs_phase_calls_total{phase=\"run_other\"} 0
ffs_phase_calls_total{phase=\"route_index_maint\"} 0
# HELP ffs_phase_depth_overflows_total Spans dropped for nesting deeper than the profiler tracks
# TYPE ffs_phase_depth_overflows_total counter
ffs_phase_depth_overflows_total 2
";
    assert_eq!(render_phase_exposition(&snap), golden);
}
