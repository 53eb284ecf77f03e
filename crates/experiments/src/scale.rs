//! Scale sweep — thousand-GPU fleets on the sharded engine.
//!
//! The paper's evaluation stops at 2 nodes × 8 A100s; this module asks
//! how the simulator itself scales. For each fleet size it synthesizes an
//! Azure-scale multi-tenant trace ([`ffs_trace::ScaleTraceConfig`]),
//! partitions the fleet into cells, and runs the sharded engine on a
//! single lane and on `FFS_SHARDS` lanes, [`REPEATS`] times each —
//! cross-checking that every run produces the same
//! [`fluidfaas::run_output_digest`]. Rows report the median repeat's
//! runs/s and events/s, peak RSS, forwarding volume, per-cell events
//! (imbalance, min/median/max), steals and the lanes' busy share;
//! `exp_scale` writes them to `BENCH_scale.json` under the `"scale"` key.
//!
//! Knobs: `FFS_SCALE_GPUS` (comma-separated fleet sizes, default
//! `16,256,4096`), `FFS_SCALE_FUNCS` (tenant-function count override),
//! `FFS_SHARDS` (lane count for the multi-lane arm), `FFS_EXP_SECS`
//! (trace seconds, default 60 here — the scale fleets are much bigger
//! than the paper-reproduction runs).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use ffs_trace::{ScaleTraceConfig, WorkloadClass};
use fluidfaas::{run_output_digest, run_sharded_fluid, FfsConfig, ShardSpec};

/// Peak-RSS ceiling for the scale sweep, in kB (2 GiB). The scale-smoke
/// CI job enforces it externally; `exp_scale` also asserts it in-process
/// so a local run fails the same way CI would.
pub const RSS_CEILING_KB: u64 = 2 * 1024 * 1024;

/// Runs per (fleet × lane count) arm; a row reports the median by wall
/// time, since one sub-second run on a shared box is mostly noise.
pub const REPEATS: usize = 3;

/// Whether the 80%-of-ceiling warning already fired (one-shot).
static RSS_WARNED: AtomicBool = AtomicBool::new(false);

/// Emits a one-shot stderr warning the first time peak RSS crosses 80% of
/// [`RSS_CEILING_KB`] — early notice that the sweep is drifting toward
/// the hard ceiling, without failing the run.
pub fn warn_if_rss_high(peak_kb: u64) {
    if peak_kb * 5 >= RSS_CEILING_KB * 4 && !RSS_WARNED.swap(true, Ordering::Relaxed) {
        eprintln!(
            "harness: WARNING: peak RSS {:.1} MiB exceeds 80% of the {} MiB ceiling",
            peak_kb as f64 / 1024.0,
            RSS_CEILING_KB / 1024,
        );
    }
}

/// One (fleet size × lane count) measurement.
#[derive(Clone, Debug)]
pub struct ScaleRow {
    /// Total GPUs in the fleet.
    pub gpus: usize,
    /// Logical cells the fleet was partitioned into.
    pub cells: usize,
    /// Lanes (worker threads) that executed the run.
    pub lanes: usize,
    /// Tenant functions in the synthesized trace.
    pub functions: usize,
    /// Invocations across all cells.
    pub invocations: u64,
    /// Simulation events executed across all cells.
    pub events: u64,
    /// Requests forwarded between cells at epoch boundaries.
    pub forwards: u64,
    /// Wall-clock seconds of the median of the [`REPEATS`] runs (excludes
    /// trace synthesis).
    pub wall_secs: f64,
    /// Max-over-mean of per-cell executed events (1.0 = balanced).
    pub imbalance: f64,
    /// Per-cell executed events: minimum, median and maximum.
    pub cell_events: [u64; 3],
    /// Cells lanes stole from each other's home lists (median run).
    pub steals: u64,
    /// Share of the median run's lane-seconds the lanes spent working
    /// cells rather than waiting at barriers or on the serial exchange.
    pub busy_share: f64,
    /// Process peak RSS in kB after the run (`VmHWM`; 0 off Linux).
    pub peak_rss_kb: u64,
    /// [`run_output_digest`] of the merged output — must agree across
    /// lane counts for the same fleet.
    pub digest: u64,
}

impl ScaleRow {
    /// Simulation events per wall-clock second of this run.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Full fleet runs per wall-clock second (one run per row).
    pub fn runs_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            1.0 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// The sweep's rows plus the lane-count determinism verdict.
#[derive(Clone, Debug)]
pub struct ScaleSummary {
    /// One row per (fleet size × lane count).
    pub rows: Vec<ScaleRow>,
    /// `"ok"` when every fleet size produced one digest across all lane
    /// counts, `"mismatch"` otherwise (CI gates on this).
    pub cross_check: String,
}

/// Fleet sizes to sweep: `FFS_SCALE_GPUS` as a comma-separated list,
/// default `16,256,4096`.
pub fn gpu_points() -> Vec<usize> {
    let default = || vec![16, 256, 4096];
    let Ok(raw) = std::env::var("FFS_SCALE_GPUS") else {
        return default();
    };
    let parsed = raw
        .split(',')
        .map(|s| s.trim().parse::<usize>().ok().filter(|&g| g >= 1))
        .collect::<Option<Vec<_>>>()
        .filter(|points| !points.is_empty());
    parsed.unwrap_or_else(|| {
        crate::parallel::warn_env_once(
            "FFS_SCALE_GPUS",
            &raw,
            "a comma-separated list of positive integers",
        );
        default()
    })
}

/// Trace seconds for the scale sweep: `FFS_EXP_SECS` if set, else 60
/// (not [`crate::runner::experiment_secs`]'s 300 — these fleets are two
/// orders of magnitude larger than the paper's).
pub fn scale_secs() -> f64 {
    crate::parallel::parse_env_or_warn(
        "FFS_EXP_SECS",
        "a positive number of seconds",
        |&s: &f64| s.is_finite() && s > 0.0,
    )
    .unwrap_or(60.0)
}

/// Tenant-function count for a fleet: `FFS_SCALE_FUNCS` override, else
/// 64 functions per GPU with a floor of 1024.
fn scale_functions(gpus: usize) -> usize {
    crate::parallel::parse_env_or_warn("FFS_SCALE_FUNCS", "a positive integer", |&n: &usize| n >= 1)
        .unwrap_or_else(|| (gpus * 64).max(1024))
}

/// Maps a GPU count onto (nodes, gpus_per_node, cells): 8-GPU nodes when
/// the count divides evenly (the paper's node shape), one big node
/// otherwise; cells = the largest divisor of the node count ≤ 64, so
/// `cfg.nodes` is always divisible by the cell count.
fn fleet_shape(gpus: usize) -> (usize, usize, usize) {
    let (nodes, gpus_per_node) = if gpus >= 8 && gpus.is_multiple_of(8) {
        (gpus / 8, 8)
    } else {
        (1, gpus)
    };
    let cells = (1..=nodes.min(64))
        .rev()
        .find(|c| nodes % c == 0)
        .unwrap_or(1);
    (nodes, gpus_per_node, cells)
}

/// Process peak RSS in kB from `/proc/self/status` (`VmHWM`); 0 when the
/// file is unavailable (non-Linux hosts).
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|rest| rest.split_whitespace().next())
                    .and_then(|n| n.parse().ok())
            })
        })
        .unwrap_or(0)
}

/// Runs one fleet size at each lane count in `lane_arms`, [`REPEATS`]
/// times each, reusing one synthesized trace across all runs. Returns one
/// row per arm, from its median run; digests are compared across arms by
/// the caller.
///
/// # Panics
/// If repeats of one arm produce different digests.
pub fn run_point(
    gpus: usize,
    functions: usize,
    secs: f64,
    seed: u64,
    lane_arms: &[usize],
) -> Vec<ScaleRow> {
    let (nodes, gpus_per_node, cells) = fleet_shape(gpus);
    let mut cfg = FfsConfig::paper_default(WorkloadClass::Medium);
    cfg.nodes = nodes;
    cfg.gpus_per_node = gpus_per_node;
    let total_rps = 3.0 * gpus as f64;
    let tc = ScaleTraceConfig::new(functions, secs, total_rps, seed);
    let traces: Vec<_> = {
        let _synth = ffs_telemetry::span(ffs_telemetry::Phase::TraceSynth);
        (0..cells).map(|c| tc.cell_trace(c, cells)).collect()
    };
    let invocations: u64 = traces
        .iter()
        .map(|t| t.trace.invocations.len() as u64)
        .sum();
    let mut rows = Vec::with_capacity(lane_arms.len());
    let mut shared = Some(traces);
    let total_runs = lane_arms.len() * REPEATS;
    for (i, &lanes) in lane_arms.iter().enumerate() {
        let spec = ShardSpec::new(cells, lanes);
        let mut runs = Vec::with_capacity(REPEATS);
        for r in 0..REPEATS {
            // The last run consumes the shared trace; earlier runs clone it.
            let run_traces = if i * REPEATS + r + 1 == total_runs {
                shared.take().expect("scale trace consumed early")
            } else {
                shared.as_ref().expect("scale trace consumed early").clone()
            };
            let start = Instant::now();
            let (out, stats) =
                crate::parallel::run_tracked(|| run_sharded_fluid(&cfg, run_traces, &spec))
                    .expect("sharded scale run failed");
            let wall_secs = start.elapsed().as_secs_f64();
            runs.push((wall_secs, stats, run_output_digest(&out)));
        }
        let digest = runs[0].2;
        assert!(
            runs.iter().all(|run| run.2 == digest),
            "{gpus} GPUs on {lanes} lanes: repeated runs diverged"
        );
        runs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (wall_secs, stats, _) = &runs[REPEATS / 2];
        let mut per_cell = stats.events_per_cell.clone();
        per_cell.sort_unstable();
        let busy: f64 = stats.lane_busy_secs.iter().sum();
        rows.push(ScaleRow {
            gpus,
            cells: stats.cells,
            lanes: stats.lanes,
            functions,
            invocations,
            events: stats.events_total(),
            forwards: stats.forwards,
            wall_secs: *wall_secs,
            imbalance: stats.imbalance(),
            cell_events: [
                per_cell.first().copied().unwrap_or(0),
                per_cell.get(per_cell.len() / 2).copied().unwrap_or(0),
                per_cell.last().copied().unwrap_or(0),
            ],
            steals: stats.steals,
            busy_share: if *wall_secs > 0.0 {
                busy / (stats.lanes as f64 * wall_secs)
            } else {
                0.0
            },
            peak_rss_kb: peak_rss_kb(),
            digest,
        });
        warn_if_rss_high(rows.last().expect("row just pushed").peak_rss_kb);
    }
    rows
}

/// The multi-core probe folded into `BENCH_harness.json` under
/// `"multicore"`: one mid-size sharded fleet measured at 1 lane and at
/// [`crate::parallel::shards`] lanes, so the report carries a multi-core
/// events/s figure next to the sequential harness numbers.
#[derive(Clone, Debug)]
pub struct MulticoreSummary {
    /// Fleet size the probe ran on.
    pub gpus: usize,
    /// Cells the fleet was partitioned into.
    pub cells: usize,
    /// Lane count of the parallel arm.
    pub lanes: usize,
    /// Events executed by one arm (identical across arms by design).
    pub events: u64,
    /// Wall-clock seconds of the single-lane arm.
    pub sequential_wall_secs: f64,
    /// Wall-clock seconds of the `lanes`-lane arm.
    pub parallel_wall_secs: f64,
    /// Events/s on one lane.
    pub sequential_events_per_sec: f64,
    /// Events/s on `lanes` lanes.
    pub parallel_events_per_sec: f64,
    /// `"ok"` when both arms produced the same output digest.
    pub cross_check: String,
}

/// Runs the multicore probe: a 1024-GPU fleet (64 cells) over a
/// 60-second synthesized trace, on 1 lane and on `FFS_SHARDS` lanes
/// (minimum 2 so the probe always exercises real parallelism), each the
/// median of [`REPEATS`] runs.
/// The fleet is sized so the single-lane arm takes several hundred
/// milliseconds — long enough that lane spawn cost, epoch barriers and
/// timer granularity don't swamp the measurement. Both arms replay the
/// identical trace and must produce the same digest.
pub fn multicore_probe(seed: u64) -> MulticoreSummary {
    let lanes = crate::parallel::shards().max(2);
    let gpus = 1024;
    let rows = run_point(gpus, scale_functions(gpus), 60.0, seed, &[1, lanes]);
    let (seq, par) = (&rows[0], &rows[1]);
    MulticoreSummary {
        gpus,
        cells: par.cells,
        lanes: par.lanes,
        events: par.events,
        sequential_wall_secs: seq.wall_secs,
        parallel_wall_secs: par.wall_secs,
        sequential_events_per_sec: seq.events_per_sec(),
        parallel_events_per_sec: par.events_per_sec(),
        cross_check: if seq.digest == par.digest && seq.events == par.events {
            "ok"
        } else {
            "mismatch"
        }
        .to_string(),
    }
}

/// The full sweep: every [`gpu_points`] fleet at 1 lane and at
/// [`crate::parallel::shards`] lanes, with the per-fleet digest
/// cross-check folded into [`ScaleSummary::cross_check`].
pub fn run_sweep(secs: f64, seed: u64) -> ScaleSummary {
    let mut lane_arms = vec![1];
    let shards = crate::parallel::shards();
    if shards != 1 {
        lane_arms.push(shards);
    }
    let mut rows = Vec::new();
    let mut ok = true;
    for gpus in gpu_points() {
        let point = run_point(gpus, scale_functions(gpus), secs, seed, &lane_arms);
        ok &= point.windows(2).all(|w| w[0].digest == w[1].digest);
        rows.extend(point);
    }
    ScaleSummary {
        rows,
        cross_check: if ok { "ok" } else { "mismatch" }.to_string(),
    }
}

/// Renders the sweep as a human-readable table.
pub fn render(summary: &ScaleSummary) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "  {:>6} {:>6} {:>6} {:>8} {:>10} {:>12} {:>11} {:>9} {:>7} {:>23} {:>7} {:>6} {:>9} {:>10}  {}\n",
        "gpus",
        "cells",
        "lanes",
        "funcs",
        "invocs",
        "events",
        "events/s",
        "wall_s",
        "imbal",
        "cell_events min/med/max",
        "steals",
        "busy",
        "forwards",
        "rss_mb",
        "digest"
    ));
    for r in &summary.rows {
        let [min, median, max] = r.cell_events;
        out.push_str(&format!(
            "  {:>6} {:>6} {:>6} {:>8} {:>10} {:>12} {:>11.0} {:>9.3} {:>7.2} {:>23} {:>7} {:>6.2} {:>9} {:>10.1}  {:016x}\n",
            r.gpus,
            r.cells,
            r.lanes,
            r.functions,
            r.invocations,
            r.events,
            r.events_per_sec(),
            r.wall_secs,
            r.imbalance,
            format!("{min}/{median}/{max}"),
            r.steals,
            r.busy_share,
            r.forwards,
            r.peak_rss_kb as f64 / 1024.0,
            r.digest,
        ));
    }
    out.push_str(&format!("  cross_check: {}\n", summary.cross_check));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_shape_keeps_nodes_divisible_by_cells() {
        for gpus in [8, 16, 64, 256, 4096, 24, 7, 1] {
            let (nodes, gpus_per_node, cells) = fleet_shape(gpus);
            assert_eq!(nodes * gpus_per_node, gpus);
            assert_eq!(nodes % cells, 0, "gpus={gpus}");
            assert!(cells <= 64);
        }
    }

    #[test]
    fn small_point_is_lane_invariant() {
        let rows = run_point(16, 256, 3.0, 7, &[1, 2]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].digest, rows[1].digest);
        assert_eq!(rows[0].events, rows[1].events);
        assert_eq!(rows[0].cell_events, rows[1].cell_events);
        assert_eq!(rows[0].invocations, rows[1].invocations);
        assert!(rows[0].invocations > 0);
        let [min, median, max] = rows[0].cell_events;
        assert!(min <= median && median <= max && max > 0);
        assert_eq!(rows[0].steals, 0, "one lane has nobody to steal from");
        for r in &rows {
            assert!(
                r.busy_share > 0.0 && r.busy_share <= 1.0 + 1e-9,
                "{}",
                r.busy_share
            );
        }
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_kb() > 0);
        }
    }
}
