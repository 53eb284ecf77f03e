//! The sharded engine's determinism contract: `RunOutput` is a pure
//! function of `(trace, config, seed)` and the cell partition — never of
//! the lane (worker-thread) count — and every cell of a sharded run
//! reproduces `run_platform` on that cell's slice of the fleet and trace
//! byte-for-byte.
//!
//! Digests come from [`fluidfaas::run_output_digest`], which folds every
//! request record (floats as raw bit patterns), the cost report, and all
//! three utilization curves, so even sub-ulp divergence fails.

use ffs_metrics::RequestLog;
use ffs_trace::{
    partition_trace, AzureTraceConfig, CellTrace, Invocation, ScaleTraceConfig, Trace,
    WorkloadClass,
};
use fluidfaas::platform::run_platform;
use fluidfaas::{
    paper_policies, run_output_digest, run_sharded_fluid, Engine, FfsConfig, ShardSpec,
};

/// A 1-cell sharded run is the solo engine with extra steps, and must
/// reproduce `run_platform` exactly.
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
/// seeds, 1/2/3/4/8 lanes each, one digest per seed. Three lanes over four
/// cells leave one lane a cell more than the others.
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
        let digests: Vec<u64> = [1usize, 2, 3, 4, 8]
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

/// Multi-cell sharded runs against pinned digests, so the sharded path's
/// output is held across refactors of the event loop, not just its lane
/// invariance. The medium digest dates from before the engine's batch
/// dispatch was collapsed to one per-event loop. The overload case fires
/// same-timestamp arrival bursts into one cell while the other idles.
/// Three lanes leave one lane a cell short; eight exceed the cell count.
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
        (&overload, overload_cells, 0xf04a_0b9e_2741_cab9),
    ];
    for (cfg, cells, golden) in cases {
        let n = cells.len();
        for lanes in [1usize, 2, 3, 8] {
            let (out, stats) = run_sharded_fluid(cfg, cells.clone(), &ShardSpec::new(n, lanes))
                .expect("sharded run");
            assert_eq!(stats.lanes, lanes.min(n));
            assert_eq!(stats.lane_busy_secs.len(), stats.lanes);
            assert_eq!(
                run_output_digest(&out),
                golden,
                "{n}-cell run on {lanes} lanes moved off its golden digest"
            );
        }
    }
}

/// Builds a two-cell overload scenario: cell 0 gets a blast of every app
/// at once on a single tiny node (not every function can hold an
/// instance, so some starve with queued work), while cell 1 idles with
/// identical free capacity. Cells run independently, so the idle cell
/// never takes any of that work.
fn overload_traces(per_app: usize) -> (FfsConfig, Vec<CellTrace>) {
    let mut cfg = FfsConfig::paper_default(WorkloadClass::Medium);
    cfg.nodes = 2;
    cfg.gpus_per_node = 1;
    // No time-sharing slot to fall back on: a backlogged function with no
    // exclusive instance starves.
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
                // saturated.
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
        CellTrace {
            global_ids: (0..busy.len() as u64).collect(),
            trace: busy,
        },
        CellTrace {
            global_ids: Vec::new(),
            trace: idle,
        },
    ];
    (cfg, cells)
}

/// A request record with its breakdown, every f64 as its bit pattern.
type Row = (u64, u32, u64, Option<u64>, u64, u32, [u64; 4]);

fn rows(log: &RequestLog) -> Vec<Row> {
    log.records_with_breakdowns()
        .map(|(r, b)| {
            (
                r.id,
                r.app_index,
                r.arrival.as_micros(),
                r.completed.map(|t| t.as_micros()),
                r.slo_ms.to_bits(),
                r.tenant,
                [b.queue_ms, b.load_ms, b.exec_ms, b.transfer_ms].map(f64::to_bits),
            )
        })
        .collect()
}

/// Cells are independent runs: each cell's slice of a multi-cell run's
/// log equals that cell's trace run alone through `run_platform` on
/// `nodes / cells` nodes, with ids mapped to global ids. Every request is
/// logged exactly once, under a unique global id.
#[test]
fn each_cell_matches_its_solo_run() {
    let mut medium = FfsConfig::paper_default(WorkloadClass::Medium);
    medium.nodes = 4;
    medium.gpus_per_node = 4;
    let trace = AzureTraceConfig::for_workload(WorkloadClass::Medium, 20.0, 6).generate();
    let (overload, overload_cells) = overload_traces(48);
    for (cfg, cells) in [
        (&medium, partition_trace(&trace, 4)),
        (&overload, overload_cells),
    ] {
        let n = cells.len();
        let total: usize = cells.iter().map(|ct| ct.trace.len()).sum();
        let (out, _) =
            run_sharded_fluid(cfg, cells.clone(), &ShardSpec::new(n, 2)).expect("sharded run");
        assert_eq!(out.log.len(), total, "every request must be logged once");
        let mut ids: Vec<u64> = out.log.records().iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), total, "duplicate global ids");

        let mut cell_cfg = cfg.clone();
        cell_cfg.nodes = cfg.nodes / n;
        let got = rows(&out.log);
        let mut at = 0;
        for (c, ct) in cells.iter().enumerate() {
            let mut engine = Engine::new(cell_cfg.clone(), paper_policies(&cell_cfg), &ct.trace)
                .expect("valid cell setup");
            let mut solo = run_platform(&mut engine, &ct.trace).log;
            solo.remap_ids(|id| ct.global_ids[id as usize]);
            let want = rows(&solo);
            assert_eq!(
                got[at..at + want.len()],
                want[..],
                "cell {c} of {n} diverged from its solo run"
            );
            at += want.len();
        }
        assert_eq!(at, got.len());
    }
}
