//! Exporters: Prometheus-style text exposition and collapsed stacks.
//!
//! The collapsed-stack format is one line per distinct call path —
//! `frame;frame;frame value` — consumable directly by
//! `inferno-flamegraph` or Brendan Gregg's `flamegraph.pl`:
//!
//! ```text
//! cargo run --release -p ffs-experiments --bin exp_all
//! inferno-flamegraph < telemetry.folded > engine_flame.svg
//! ```
//!
//! Values are self-cycles, so frame widths in the rendered flamegraph
//! are exact cycle shares; every path is rooted at a synthetic `ffs`
//! frame so the graph has a single base.

use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;

use crate::clock;
use crate::phase::{Phase, PhaseSnapshot};
use crate::registry;

/// Renders the per-phase profile as Prometheus exposition: one labelled
/// sample per phase under two counter families (`self cycles` and
/// `calls`), plus the drop diagnostics. Deterministic for a given
/// snapshot — the format-golden test pins it down.
pub fn render_phase_exposition(snap: &PhaseSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# HELP ffs_phase_self_cycles_total Self-time cycles charged to each engine phase"
    );
    let _ = writeln!(out, "# TYPE ffs_phase_self_cycles_total counter");
    for p in Phase::ALL {
        let _ = writeln!(
            out,
            "ffs_phase_self_cycles_total{{phase=\"{}\"}} {}",
            p.name(),
            snap.cycles[p as usize]
        );
    }
    let _ = writeln!(
        out,
        "# HELP ffs_phase_calls_total Completed spans per engine phase"
    );
    let _ = writeln!(out, "# TYPE ffs_phase_calls_total counter");
    for p in Phase::ALL {
        let _ = writeln!(
            out,
            "ffs_phase_calls_total{{phase=\"{}\"}} {}",
            p.name(),
            snap.calls[p as usize]
        );
    }
    let _ = writeln!(
        out,
        "# HELP ffs_phase_depth_overflows_total Spans dropped for nesting deeper than the profiler tracks"
    );
    let _ = writeln!(out, "# TYPE ffs_phase_depth_overflows_total counter");
    let _ = writeln!(
        out,
        "ffs_phase_depth_overflows_total {}",
        snap.depth_overflows
    );
    out
}

/// Renders the full process exposition: the default registry's metrics,
/// the merged phase profile, and the calibrated cycle rate. Flush
/// threads of interest first ([`crate::flush_thread`]).
pub fn render_prometheus() -> String {
    let mut out = registry::default_registry().render();
    out.push_str(&render_phase_exposition(&crate::snapshot()));
    let _ = writeln!(
        out,
        "# HELP ffs_telemetry_cycles_per_sec Calibrated profiler clock rate"
    );
    let _ = writeln!(out, "# TYPE ffs_telemetry_cycles_per_sec gauge");
    let _ = writeln!(
        out,
        "ffs_telemetry_cycles_per_sec {:.0}",
        clock::cycles_per_sec()
    );
    out
}

/// Writes [`render_prometheus`] to `path`.
pub fn write_prometheus_file(path: &Path) -> io::Result<()> {
    std::fs::write(path, render_prometheus())
}

/// Writes the snapshot's call paths in collapsed-stack format (self
/// cycles per path, one line each, rooted at a synthetic `ffs` frame).
pub fn write_collapsed<W: Write>(w: &mut W, snap: &PhaseSnapshot) -> io::Result<()> {
    // Deterministic order: by path, not by weight (diff-friendly).
    let mut lines: Vec<(String, u64)> = snap
        .paths
        .iter()
        .filter(|p| p.cycles > 0)
        .map(|p| {
            let mut frames = String::from("ffs");
            for ph in &p.path {
                frames.push(';');
                frames.push_str(ph.name());
            }
            (frames, p.cycles)
        })
        .collect();
    lines.sort();
    for (frames, cycles) in lines {
        writeln!(w, "{frames} {cycles}")?;
    }
    if snap.dropped_path_cycles > 0 {
        writeln!(w, "ffs;[paths_dropped] {}", snap.dropped_path_cycles)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::PathStat;

    fn fixed_snapshot() -> PhaseSnapshot {
        let mut snap = PhaseSnapshot::default();
        snap.cycles[Phase::QueueDrain as usize] = 1200;
        snap.calls[Phase::QueueDrain as usize] = 3;
        snap.cycles[Phase::BatchDispatch as usize] = 800;
        snap.calls[Phase::BatchDispatch as usize] = 40;
        snap.paths = vec![
            PathStat {
                path: vec![Phase::QueueDrain],
                cycles: 1200,
                calls: 3,
            },
            PathStat {
                path: vec![Phase::QueueDrain, Phase::BatchDispatch],
                cycles: 800,
                calls: 40,
            },
        ];
        snap
    }

    #[test]
    fn collapsed_stacks_are_semicolon_separated_and_sorted() {
        let mut buf = Vec::new();
        write_collapsed(&mut buf, &fixed_snapshot()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(
            text,
            "ffs;queue_drain 1200\nffs;queue_drain;batch_dispatch 800\n"
        );
    }

    #[test]
    fn full_exposition_includes_registry_and_phases() {
        let text = render_prometheus();
        assert!(text.contains("# TYPE ffs_phase_self_cycles_total counter"));
        assert!(text.contains("ffs_telemetry_cycles_per_sec "));
    }
}
