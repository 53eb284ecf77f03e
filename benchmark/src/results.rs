//! Turns what a run measured into the reported metrics, and prints them:
//! one JSON line on stdout, a table on stderr, and optionally a stamped
//! record appended to a JSONL file for `compare`.

use std::fmt::Write as _;
use std::io::Write as _;

use ffs_metrics::LatencyCdf;
use ffs_telemetry::clock::cycles_per_sec;

use crate::json::quote;
use crate::measure::{Measured, Options, TracedPass};
use crate::probe::Slot;
use crate::spec;
use crate::stats::{median, quartiles};

/// A reported metric: name and value.
pub type Value = (String, f64);

fn ns(cycles: f64) -> f64 {
    cycles / cycles_per_sec() * 1e9
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The typical rate of a set of passes: their upper quartile. A shared
/// machine's slow spells only ever slow a pass down, so the upper
/// quartile tracks its unloaded speed more steadily than the median (over
/// six minutes of passes, 2.0% against 2.7% spread between 12-pass
/// blocks).
fn typical(rates: &[f64]) -> f64 {
    quartiles(rates).q3
}

/// The end-to-end metrics, in spec order.
pub fn end_to_end(m: &Measured) -> Vec<Value> {
    let p = &m.pooled;
    let cdf = LatencyCdf::new(p.latencies_ms.clone());
    vec![
        ("requests_per_s".into(), requests_per_s(m)),
        ("setup_s".into(), median(&m.setup_s)),
        (
            "peak_rss_per_invocation".into(),
            ratio(m.peak_rss_kb as f64 * 1024.0, m.invocations as f64),
        ),
        (
            "completed_frac".into(),
            ratio(p.completed as f64, p.requests as f64),
        ),
        ("p50_latency_ms".into(), cdf.p50().unwrap_or(0.0)),
        ("p99_latency_ms".into(), cdf.p99().unwrap_or(0.0)),
    ]
}

/// Trace invocations replayed per second at reference speed: the timed
/// passes' typical runs/s times the invocations a run replays on average.
fn requests_per_s(m: &Measured) -> f64 {
    typical(&m.runs_per_s) * ratio(m.requests_per_pass as f64, m.runs_per_pass as f64)
}

/// The per-layer metrics, in spec order.
pub fn per_layer(m: &Measured) -> Vec<Value> {
    let fallback = TracedPass::default();
    let t = m.traced.as_ref().unwrap_or(&fallback);
    let prof = &t.profile;
    let cost = t.span_cost;
    let runs = t.runs as f64;
    let sharded = m.shard.is_some();
    // Span times at reference speed.
    let slowdown = if t.slowdown > 0.0 { t.slowdown } else { 1.0 };
    let ns = |cycles: f64| ns(cycles) / slowdown;
    let self_ns = |slot| prof.self_ns(slot, cost) / slowdown;
    let mut out: Vec<Value> = Vec::new();
    let mut put = |name: &str, v: f64| out.push((name.to_string(), v));

    put("trace.synth_ms", median(&m.synth_s) * 1e3);
    put("trace.invocations", m.invocations as f64);
    let setup_us = match t.cell_setup_cycles {
        Some(cycles) => ns(cycles) / 1e3,
        None => ratio(ns(prof.incl(Slot::EngineNew) as f64) / 1e3, runs),
    };
    put("engine.setup_us", setup_us);
    put(
        "engine.arena_reuse_rate",
        ratio(t.arena.0 as f64, (t.arena.0 + t.arena.1) as f64),
    );
    for slot in Slot::HANDLERS {
        let calls = prof.calls(slot) as f64;
        put(&format!("engine.{}.calls", slot.name()), calls);
        put(
            &format!("engine.{}.self_ns", slot.name()),
            ratio(self_ns(slot), calls),
        );
    }
    put(
        "engine.finalize_ms",
        ratio(
            ns((prof.incl(Slot::Finalize) + prof.incl(Slot::TakeHub)) as f64) / 1e6,
            runs,
        ),
    );

    // The event loop is what `run_platform` spends outside the handlers,
    // finalize and take_hub: the self time of its span. The sharded engine
    // runs its own handlers unwrapped, so its loop is not separable.
    let handled: u64 = Slot::HANDLERS.iter().map(|&s| prof.calls(s)).sum();
    let nested: u64 = Slot::HANDLERS
        .iter()
        .chain(&Slot::POLICIES)
        .chain(&[Slot::Finalize, Slot::TakeHub])
        .map(|&s| prof.calls(s))
        .sum();
    let loop_ns = if sharded {
        0.0
    } else {
        self_ns(Slot::Platform)
    };
    let platform_ns = ns(prof.incl(Slot::Platform) as f64 - nested as f64 * cost);
    put("sim.events", m.events as f64);
    put(
        "sim.events_per_s",
        typical(&m.runs_per_s) * ratio(m.events as f64, m.runs_per_pass as f64),
    );
    put("sim.loop_ns_per_event", ratio(loop_ns, handled as f64));
    put("sim.loop_frac", ratio(loop_ns, platform_ns));

    for slot in Slot::POLICIES {
        let calls = prof.calls(slot) as f64;
        put(&format!("policy.{}.calls", slot.name()), calls);
        put(
            &format!("policy.{}.self_ns", slot.name()),
            ratio(self_ns(slot), calls),
        );
    }
    put(
        "policy.placer_place.none_frac",
        ratio(
            prof.placer_none as f64,
            prof.calls(Slot::PlacerPlace) as f64,
        ),
    );
    let (hits, misses) = t.plan_cache;
    put("plancache.lookups", (hits + misses) as f64);
    put(
        "plancache.hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
    );
    put(
        "metrics.summary_us",
        ratio(ns(prof.incl(Slot::Summary) as f64) / 1e3, runs),
    );
    put("metrics.completed", m.completed as f64);
    let p = &m.pooled;
    put(
        "metrics.slo_attainment",
        ratio(p.hits as f64, p.requests as f64),
    );
    put("metrics.throughput_rps", ratio(p.completed as f64, p.sim_s));
    put("metrics.gpu_s_per_req", ratio(p.gpu_s, p.completed as f64));

    let shard = m.shard.as_ref();
    put("sharded.lanes", shard.map_or(0.0, |s| s.lanes as f64));
    put("sharded.cells", shard.map_or(0.0, |s| s.cells as f64));
    put("sharded.epochs", shard.map_or(0.0, |s| s.epochs as f64));
    put("sharded.forwards", shard.map_or(0.0, |s| s.forwards as f64));
    put("sharded.imbalance", shard.map_or(0.0, |s| s.imbalance()));
    let lane1 = typical(&m.lane1_runs_per_s);
    put("sharded.lane1_runs_per_s", lane1);
    put("sharded.lane_speedup", ratio(typical(&m.runs_per_s), lane1));

    let untraced = typical(&m.runs_per_s);
    let profiled = typical(&m.profiled_runs_per_s);
    put("telemetry.profiled_runs_per_s", profiled);
    put(
        "telemetry.overhead_frac",
        if profiled > 0.0 {
            1.0 - profiled / untraced
        } else {
            0.0
        },
    );
    for (name, v) in [
        "obs.schedule_clamps",
        "obs.metric_clamps",
        "obs.arrival_saturations",
        "obs.nonfinite_latency_samples",
    ]
    .into_iter()
    .zip(m.obs)
    {
        put(name, v as f64);
    }

    // The traced pass is one pass on one lane: compare it with the median
    // one-lane pass.
    let lane1 = if m.lane1_runs_per_s.is_empty() {
        &m.runs_per_s
    } else {
        &m.lane1_runs_per_s
    };
    let base = ratio(m.runs_per_pass as f64, median(lane1));
    let span_s = prof.spans() as f64 * cost / cycles_per_sec() / slowdown;
    put("traced.spans", prof.spans() as f64);
    put(
        "traced.overhead_frac",
        if base > 0.0 {
            t.wall_s / base - 1.0
        } else {
            0.0
        },
    );
    put("traced.reconcile_frac", ratio(t.wall_s - span_s, base));
    put("paper_claims_held", m.claims_held as f64);
    out
}

/// `v` as a JSON number with all its digits (non-finite values, which
/// JSON cannot carry, become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The `metrics` object: every value with its unit from the spec.
fn metrics_object(values: &[Value]) -> String {
    let fields: Vec<String> = values
        .iter()
        .map(|(name, v)| {
            let unit = spec::find(name).map_or("", |s| s.unit);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                num(*v),
                quote(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(m: &Measured, values: &[Value]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        m.failed == 0 && m.attempted > 0,
        m.attempted,
        m.failed,
        metrics_object(values)
    )
}

/// The human-readable table.
pub fn table(opts: &Options, m: &Measured, values: &[Value]) -> String {
    let mut out = format!(
        "benchmark {} seed {}: {} runs attempted, {} failed; {} timed passes of {} runs ({} requests, {} events) on {} lanes\n",
        opts.workload.name(),
        opts.seed,
        m.attempted,
        m.failed,
        m.runs_per_s.len(),
        m.runs_per_pass,
        m.requests_per_pass,
        m.events,
        m.lanes,
    );
    let slow = quartiles(&m.slowdowns);
    let _ = writeln!(
        out,
        "  pass times are at reference speed; the reference kernel read a slowdown of {:.3} (q1 {:.3}, q3 {:.3}, n {})",
        slow.median, slow.q1, slow.q3, slow.n
    );
    for (name, v) in values {
        let unit = spec::find(name).map_or("", |s| s.unit);
        let _ = write!(out, "  {name:<36} {v:>16.6} {unit}");
        match name.as_str() {
            "requests_per_s" => {
                let per_run = ratio(m.requests_per_pass as f64, m.runs_per_pass as f64);
                let rates: Vec<f64> = m.runs_per_s.iter().map(|r| r * per_run).collect();
                let q = quartiles(&rates);
                let _ = write!(
                    out,
                    "  (passes: q1 {:.0}, median {:.0}, q3 {:.0}, n {}; {:.3} runs/s)",
                    q.q1,
                    q.median,
                    q.q3,
                    q.n,
                    typical(&m.runs_per_s)
                );
            }
            "p50_latency_ms" | "p99_latency_ms" => {
                let _ = write!(out, "  ({} completed requests)", m.pooled.completed);
            }
            _ => {}
        }
        out.push('\n');
    }
    out
}

/// Appends the result as one stamped JSONL record to `path`.
pub fn append_record(
    path: &str,
    opts: &Options,
    m: &Measured,
    values: &[Value],
) -> std::io::Result<()> {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let mut env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("FFS_"))
        .collect();
    env.sort();
    let env = env
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
        .collect::<Vec<_>>()
        .join(", ");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let line = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"commit\": {}, \"nproc\": {nproc}, \"lanes\": {}, \"passes\": {}, \"env\": {{{env}}}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}\n",
        quote(opts.workload.name()),
        opts.seed,
        u8::from(opts.trace),
        quote(&commit),
        m.lanes,
        m.runs_per_s.len(),
        m.failed == 0 && m.attempted > 0,
        m.attempted,
        m.failed,
        metrics_object(values),
    );
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    f.write_all(line.as_bytes())?;
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn names(values: &[Value]) -> Vec<String> {
        values.iter().map(|(n, _)| n.clone()).collect()
    }

    #[test]
    fn emitted_names_are_exactly_the_spec() {
        let m = Measured::default();
        let want: Vec<String> = spec::end_to_end().into_iter().map(|s| s.name).collect();
        assert_eq!(names(&end_to_end(&m)), want);
        let want: Vec<String> = spec::per_layer().into_iter().map(|s| s.name).collect();
        assert_eq!(names(&per_layer(&m)), want);
        for (name, _) in end_to_end(&m).iter().chain(&per_layer(&m)) {
            assert!(spec::is_valid_name(name), "{name}");
        }
    }

    #[test]
    fn result_line_is_json_with_exactly_the_result_keys() {
        let m = Measured {
            attempted: 3,
            ..Measured::default()
        };
        let line = result_line(&m, &end_to_end(&m));
        let Json::Obj(kv) = Json::parse(&line).expect("valid JSON") else {
            panic!("an object");
        };
        let keys: Vec<&str> = kv.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let v = Json::parse(&line).expect("valid JSON");
        let rps = v
            .get("metrics")
            .and_then(|x| x.get("requests_per_s"))
            .expect("metric");
        assert_eq!(rps.get("unit").and_then(Json::str), Some("req/s"));
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
    }
}
