//! The sharded engine's determinism contract: `RunOutput` is a pure
//! function of `(trace, config, seed)` and the cell partition — never of
//! the lane (worker-thread) count — and a 1-cell sharded run reproduces
//! `run_platform` byte-for-byte.
//!
//! Digests come from [`fluidfaas::run_output_digest`], which folds every
//! request record (floats as raw bit patterns), the cost report, and all
//! three utilization curves, so even sub-ulp divergence fails.

use ffs_trace::{
    partition_trace, AzureTraceConfig, Invocation, ScaleTraceConfig, Trace, WorkloadClass,
};
use fluidfaas::platform::run_platform;
use fluidfaas::{
    paper_policies, run_output_digest, run_sharded_fluid, Engine, FfsConfig, ShardSpec,
};

/// A 1-cell sharded run is the solo engine with extra steps — the epoch
/// loop must telescope into one `run_until` and reproduce `run_platform`
/// exactly.
#[test]
fn one_cell_run_matches_run_platform() {
    for workload in [WorkloadClass::Light, WorkloadClass::Medium] {
        let cfg = FfsConfig::paper_default(workload);
        let trace = AzureTraceConfig::for_workload(workload, 30.0, 7).generate();
        let mut engine =
            Engine::new(cfg.clone(), paper_policies(&cfg), &trace).expect("valid setup");
        let solo = run_platform(&mut engine, &trace);
        let (sharded, stats) =
            run_sharded_fluid(&cfg, partition_trace(&trace, 1), &ShardSpec::new(1, 1))
                .expect("1-cell run");
        assert_eq!(stats.cells, 1);
        assert!(stats.epochs >= 1);
        assert_eq!(
            run_output_digest(&solo),
            run_output_digest(&sharded),
            "{} 1-cell sharded output diverged from run_platform",
            workload.name()
        );
        assert_eq!(solo.log.len(), sharded.log.len());
    }
}

/// The core property: for a fixed cell partition, every lane count
/// produces the identical digest (lanes are physics, cells are policy).
#[test]
fn lane_count_never_changes_output() {
    let mut cfg = FfsConfig::paper_default(WorkloadClass::Medium);
    cfg.nodes = 4;
    cfg.gpus_per_node = 4;
    let trace = AzureTraceConfig::for_workload(WorkloadClass::Medium, 45.0, 11).generate();
    let digests: Vec<u64> = [1usize, 2, 4, 8]
        .iter()
        .map(|&lanes| {
            let (out, stats) =
                run_sharded_fluid(&cfg, partition_trace(&trace, 4), &ShardSpec::new(4, lanes))
                    .expect("4-cell run");
            assert_eq!(stats.lanes, lanes.min(4));
            assert_eq!(out.log.len(), trace.len(), "every request must be logged");
            run_output_digest(&out)
        })
        .collect();
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "lane counts diverged: {digests:x?}"
    );
}

/// Same property over randomized multi-tenant scale traces: several
/// seeds, 1/2/4/8 lanes each, one digest per seed.
#[test]
fn lane_count_never_changes_output_on_random_scale_traces() {
    let mut cfg = FfsConfig::paper_default(WorkloadClass::Medium);
    cfg.nodes = 4;
    cfg.gpus_per_node = 2;
    for seed in [1u64, 7, 42] {
        let tc = ScaleTraceConfig::new(96, 20.0, 40.0, seed);
        let cell_traces: Vec<_> = (0..4).map(|c| tc.cell_trace(c, 4)).collect();
        let total: usize = cell_traces.iter().map(|ct| ct.trace.len()).sum();
        assert!(total > 0, "seed {seed} generated an empty trace");
        let digests: Vec<u64> = [1usize, 2, 4, 8]
            .iter()
            .map(|&lanes| {
                let (out, _) =
                    run_sharded_fluid(&cfg, cell_traces.clone(), &ShardSpec::new(4, lanes))
                        .expect("scale run");
                assert_eq!(out.log.len(), total);
                run_output_digest(&out)
            })
            .collect();
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "seed {seed} diverged across lane counts: {digests:x?}"
        );
    }
}

/// Repeating the identical sharded run must be bit-identical (no ambient
/// state leaks in via the arena, telemetry, or thread scheduling).
#[test]
fn repeated_sharded_runs_agree() {
    let mut cfg = FfsConfig::paper_default(WorkloadClass::Light);
    cfg.nodes = 4;
    cfg.gpus_per_node = 4;
    let trace = AzureTraceConfig::for_workload(WorkloadClass::Light, 30.0, 3).generate();
    let digest = |_: usize| {
        let (out, _) = run_sharded_fluid(&cfg, partition_trace(&trace, 2), &ShardSpec::new(2, 2))
            .expect("2-cell run");
        run_output_digest(&out)
    };
    assert_eq!(digest(0), digest(1));
}

/// Multi-cell sharded runs against digests recorded before the engine's
/// batch dispatch was collapsed to one per-event loop. Cells call
/// `run_until` on the engine directly (there is no platform wrapper in
/// between), so these pin the sharded path's output across refactors of
/// the event loop, not just its lane invariance. The overload case fires
/// same-timestamp arrival bursts and cross-cell forwards.
#[test]
fn multi_cell_runs_match_golden_digests() {
    let mut medium = FfsConfig::paper_default(WorkloadClass::Medium);
    medium.nodes = 4;
    medium.gpus_per_node = 4;
    let trace = AzureTraceConfig::for_workload(WorkloadClass::Medium, 20.0, 6).generate();
    let medium_cells = partition_trace(&trace, 4);
    let (overload, overload_cells) = overload_traces(48);
    let cases = [
        (&medium, medium_cells, 0xa393_f10d_6934_e285_u64),
        (&overload, overload_cells, 0xbe66_9cc9_aaa0_bbdf),
    ];
    for (cfg, cells, golden) in cases {
        let n = cells.len();
        for lanes in [1usize, 2] {
            let (out, _) = run_sharded_fluid(cfg, cells.clone(), &ShardSpec::new(n, lanes))
                .expect("sharded run");
            assert_eq!(
                run_output_digest(&out),
                golden,
                "{n}-cell run on {lanes} lanes moved off its golden digest"
            );
        }
    }
}

/// Builds a two-cell scenario that actually forwards: cell 0 gets a
/// blast of every app at once on a single tiny node (not every function
/// can hold an instance, so some starve with queued work), while cell 1
/// idles with identical free capacity.
fn overload_traces(per_app: usize) -> (FfsConfig, Vec<ffs_trace::CellTrace>) {
    let mut cfg = FfsConfig::paper_default(WorkloadClass::Medium);
    cfg.nodes = 2;
    cfg.gpus_per_node = 1;
    // No time-sharing slot to fall back on: a backlogged function with no
    // exclusive instance is starving, which is what the exchange forwards.
    cfg.enable_time_sharing = false;
    let apps = WorkloadClass::Medium.apps();
    let duration = ffs_sim::SimDuration::from_secs(12);
    let mut invocations = Vec::new();
    for k in 0..per_app {
        for &app in &apps {
            invocations.push(Invocation {
                id: invocations.len() as u64,
                app,
                // One burst per second so later waves still find cell 0
                // saturated after the first epoch exchange.
                arrival: ffs_sim::SimTime::from_secs_f64(0.25 + (k % 8) as f64),
                tenant: app.index() as u32,
            });
        }
    }
    invocations.sort_by_key(|inv| (inv.arrival, inv.id));
    for (i, inv) in invocations.iter_mut().enumerate() {
        inv.id = i as u64;
    }
    let busy = Trace {
        invocations,
        duration,
    };
    let idle = Trace {
        invocations: Vec::new(),
        duration,
    };
    let cells = vec![
        ffs_trace::CellTrace {
            global_ids: (0..busy.len() as u64).collect(),
            trace: busy,
        },
        ffs_trace::CellTrace {
            global_ids: Vec::new(),
            trace: idle,
        },
    ];
    (cfg, cells)
}

/// Cross-cell forwarding fires under overload, conserves every request
/// (a moved request is logged exactly once, at its adopter), and stays
/// lane-invariant.
#[test]
fn forwarding_fires_and_conserves_requests() {
    let (cfg, cell_traces) = overload_traces(48);
    let total: usize = cell_traces.iter().map(|ct| ct.trace.len()).sum();
    let mut digests = Vec::new();
    for lanes in [1usize, 2] {
        let (out, stats) = run_sharded_fluid(&cfg, cell_traces.clone(), &ShardSpec::new(2, lanes))
            .expect("overload run");
        assert!(
            stats.forwards > 0,
            "the overloaded cell must forward starving work (lanes {lanes})"
        );
        assert_eq!(
            out.log.len(),
            total,
            "forwarding must conserve requests (lanes {lanes})"
        );
        // Global ids must stay unique after the moved requests re-log at
        // their adopting cell.
        let mut ids: Vec<u64> = out.log.records().iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), total, "duplicate ids after forwarding");
        digests.push(run_output_digest(&out));
    }
    assert_eq!(digests[0], digests[1], "forwarding broke lane invariance");
}
