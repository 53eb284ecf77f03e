//! The benchmark's specification, the one source `BENCHMARK.json` is
//! rendered from: command, paths, workloads and every metric with its
//! unit, direction and bound, plus the layer map (which end-to-end metric
//! each layer metric should move, and on which workloads the layer does
//! the most and the least work).

use std::fmt::Write as _;

use crate::probe::Slot;
use crate::workloads::Workload;

/// Seconds each run measures for (the `--seconds` default).
pub const RUN_SECONDS: u64 = 10;

/// Directories that hold the benchmark.
pub const PATHS: [&str; 1] = ["benchmark"];

/// How to run the benchmark from the repository root; the workload flags
/// are appended.
pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric the benchmark reports.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name in results.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
    /// End-to-end metrics: the share of the parent's median by which it
    /// may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// The module the metric measures (`end_to_end` for end-to-end ones).
    pub layer: &'static str,
    /// The end-to-end metric a change in this layer metric should move.
    pub moves: &'static str,
    /// Workloads where the layer does the most work.
    pub most: &'static str,
    /// Workloads where the layer does the least work.
    pub least: &'static str,
}

fn e2e(name: &str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
        layer: "end_to_end",
        moves: "",
        most: "",
        least: "",
    }
}

/// The metrics a user of the simulator sees, measured untraced. Each
/// bound is at least three times the widest spread (interquartile range
/// over median) seen across two sets of ten seeds on a shared 2-vCPU box.
pub fn end_to_end() -> Vec<Metric> {
    use Better::{Higher, Lower};
    vec![
        e2e("requests_per_s", "req/s", Higher, 0.2),
        e2e("setup_s", "s", Lower, 0.25),
        e2e("peak_rss_per_invocation", "B/inv", Lower, 0.15),
        e2e("completed_frac", "fraction", Higher, 0.15),
        e2e("p50_latency_ms", "sim_ms", Lower, 0.25),
        e2e("p99_latency_ms", "sim_ms", Lower, 0.05),
    ]
}

/// Appends one layer's rows: `(name, unit, better)` each, sharing the
/// layer, the end-to-end metric they should move, and the workloads
/// (space-separated) where the layer takes the largest and the smallest
/// share of run time, as the traced pass measured them at seed 1 on a
/// 2-vCPU box.
fn layer(
    out: &mut Vec<Metric>,
    (layer, moves, most, least): (&'static str, &'static str, &'static str, &'static str),
    rows: Vec<(String, &'static str, Better)>,
) {
    out.extend(rows.into_iter().map(|(name, unit, better)| Metric {
        name,
        unit,
        better,
        bound: None,
        layer,
        moves,
        most,
        least,
    }));
}

/// The metrics of single layers, measured in the traced pass unless the
/// module docs say otherwise.
pub fn per_layer() -> Vec<Metric> {
    use Better::{Higher, Lower};
    let row = |name: &str, unit, better| (name.to_string(), unit, better);
    let per_call = |prefix: &str, slot: Slot| {
        vec![
            row(&format!("{prefix}.{}.calls", slot.name()), "count", Lower),
            row(
                &format!("{prefix}.{}.self_ns", slot.name()),
                "ns/call",
                Lower,
            ),
        ]
    };
    let solo = "paper_sweep saturated_backlog light_diurnal";
    let mut out = Vec::new();
    layer(
        &mut out,
        ("trace", "setup_s", "fleet1024_sharded", "light_diurnal"),
        vec![
            row("trace.synth_ms", "ms", Lower),
            row("trace.invocations", "count", Lower),
        ],
    );
    layer(
        &mut out,
        (
            "engine",
            "requests_per_s",
            "fleet1024_sharded",
            "light_diurnal",
        ),
        vec![
            row("engine.setup_us", "us", Lower),
            row("engine.arena_reuse_rate", "fraction", Higher),
        ],
    );
    layer(
        &mut out,
        (
            "engine",
            "requests_per_s",
            "light_diurnal",
            "saturated_backlog",
        ),
        Slot::HANDLERS
            .into_iter()
            .flat_map(|s| per_call("engine", s))
            .collect(),
    );
    layer(
        &mut out,
        (
            "engine",
            "requests_per_s",
            "saturated_backlog",
            "light_diurnal",
        ),
        vec![row("engine.finalize_ms", "ms", Lower)],
    );
    layer(
        &mut out,
        (
            "sim",
            "requests_per_s",
            "light_diurnal",
            "paper_sweep saturated_backlog",
        ),
        vec![
            row("sim.events", "count", Lower),
            row("sim.events_per_s", "events/s", Higher),
            row("sim.loop_ns_per_event", "ns/event", Lower),
            row("sim.loop_frac", "fraction", Lower),
        ],
    );
    for slot in Slot::POLICIES {
        let (most, least) = match slot {
            Slot::SharedAdmit | Slot::SharedDispatch | Slot::SharedMaintain => {
                ("saturated_backlog", "light_diurnal")
            }
            Slot::AutoscalerOnArrival | Slot::AutoscalerScale | Slot::AutoscalerKeepAlive => {
                ("fleet1024_sharded", "saturated_backlog")
            }
            _ => ("fleet1024_sharded", "light_diurnal"),
        };
        layer(
            &mut out,
            ("policy", "requests_per_s", most, least),
            per_call("policy", slot),
        );
    }
    layer(
        &mut out,
        (
            "policy",
            "requests_per_s",
            "fleet1024_sharded",
            "light_diurnal",
        ),
        vec![row("policy.placer_place.none_frac", "fraction", Lower)],
    );
    layer(
        &mut out,
        (
            "plancache",
            "requests_per_s",
            "fleet1024_sharded",
            "light_diurnal",
        ),
        vec![
            row("plancache.lookups", "count", Lower),
            row("plancache.hit_rate", "fraction", Higher),
        ],
    );
    layer(
        &mut out,
        ("metrics", "requests_per_s", "light_diurnal", "paper_sweep"),
        vec![
            row("metrics.summary_us", "us", Lower),
            row("metrics.completed", "count", Higher),
        ],
    );
    // Simulated outcomes that cannot be end-to-end metrics: SLO attainment
    // is 0 under saturation, throughput only mirrors the offered load of an
    // unsaturated trace, and GPU time per request moves ~10% with the seed.
    layer(
        &mut out,
        ("metrics", "none", "", ""),
        vec![
            row("metrics.slo_attainment", "fraction", Higher),
            row("metrics.throughput_rps", "sim_req/s", Higher),
            row("metrics.gpu_s_per_req", "gpu_s/req", Lower),
        ],
    );
    layer(
        &mut out,
        ("sharded", "requests_per_s", "fleet1024_sharded", solo),
        vec![
            row("sharded.lanes", "count", Higher),
            row("sharded.cells", "count", Higher),
            row("sharded.epochs", "count", Lower),
            row("sharded.forwards", "count", Lower),
            row("sharded.imbalance", "ratio", Lower),
            row("sharded.lane1_runs_per_s", "runs/s", Higher),
            row("sharded.lane_speedup", "ratio", Higher),
        ],
    );
    layer(
        &mut out,
        ("telemetry", "none", "paper_sweep", "fleet1024_sharded"),
        vec![
            row("telemetry.profiled_runs_per_s", "runs/s", Higher),
            row("telemetry.overhead_frac", "fraction", Lower),
        ],
    );
    layer(
        &mut out,
        ("obs", "none", "", ""),
        vec![
            row("obs.schedule_clamps", "count", Lower),
            row("obs.metric_clamps", "count", Lower),
            row("obs.arrival_saturations", "count", Lower),
            row("obs.nonfinite_latency_samples", "count", Lower),
        ],
    );
    layer(
        &mut out,
        ("traced", "none", "paper_sweep", "fleet1024_sharded"),
        vec![
            row("traced.spans", "count", Lower),
            row("traced.overhead_frac", "fraction", Lower),
            row("traced.reconcile_frac", "fraction", Lower),
        ],
    );
    layer(
        &mut out,
        (
            "report",
            "none",
            "paper_sweep",
            "saturated_backlog light_diurnal fleet1024_sharded",
        ),
        vec![row("paper_claims_held", "count", Higher)],
    );
    out
}

/// Looks a metric up by name, end-to-end first.
pub fn find(name: &str) -> Option<Metric> {
    end_to_end()
        .into_iter()
        .chain(per_layer())
        .find(|m| m.name == name)
}

/// `BENCHMARK.json`, byte for byte.
pub fn benchmark_json() -> String {
    let list = |items: &[&str]| {
        items
            .iter()
            .map(|s| crate::json::quote(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"command\": [{}],", list(&COMMAND));
    let _ = writeln!(out, "  \"paths\": [{}],", list(&PATHS));
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                crate::json::quote(w.name()),
                crate::json::quote(w.why())
            )
        })
        .collect();
    let _ = writeln!(out, "{}\n  ],", rows.join(",\n"));
    let metric_rows = |metrics: Vec<Metric>| {
        metrics
            .iter()
            .map(|m| {
                let bound = m
                    .bound
                    .map(|b| format!(", \"bound\": {b}"))
                    .unwrap_or_default();
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
                    crate::json::quote(&m.name),
                    crate::json::quote(m.unit),
                    crate::json::quote(m.better.as_str()),
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let _ = writeln!(
        out,
        "  \"end_to_end\": [\n{}\n  ],",
        metric_rows(end_to_end())
    );
    let _ = writeln!(out, "  \"per_layer\": [\n{}\n  ]", metric_rows(per_layer()));
    out.push_str("}\n");
    out
}

/// The layer map as a table: layer, metric, the end-to-end metric it
/// should move, and where the layer does the most and the least work.
pub fn layer_map() -> String {
    let mut out = format!(
        "{:<10} {:<36} {:<15} {:<30} {}\n",
        "layer", "metric", "moves", "most", "least"
    );
    for m in per_layer() {
        let _ = writeln!(
            out,
            "{:<10} {:<36} {:<15} {:<30} {}",
            m.layer, m.name, m.moves, m.most, m.least
        );
    }
    out
}

/// True when `name` is a legal metric or workload name: it starts with a
/// letter or digit and has at most 64 letters, digits, `_`, `.` and `-`.
#[cfg(test)]
pub fn is_valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_matches_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "run `benchmark spec > BENCHMARK.json`"
        );
    }

    #[test]
    fn spec_is_within_the_format_limits() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()));
        let mut names: Vec<&str> = e2e.iter().chain(&layers).map(|m| m.name.as_str()).collect();
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        for name in &names {
            assert!(is_valid_name(name), "{name}");
        }
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "names are used once");
        for m in e2e.iter().chain(&layers) {
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for m in &e2e {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        let setup = e2e.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            e2e.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn layer_rows_name_real_targets_and_workloads() {
        let e2e: Vec<String> = end_to_end().into_iter().map(|m| m.name).collect();
        for m in per_layer() {
            assert!(
                m.moves == "none" || e2e.iter().any(|n| n == m.moves),
                "{}",
                m.name
            );
            for w in m.most.split_whitespace().chain(m.least.split_whitespace()) {
                assert!(Workload::from_name(w).is_some(), "{}: {w}", m.name);
            }
        }
    }
}
