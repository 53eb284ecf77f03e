//! A/B comparison of two sets of benchmark records (`run --out FILE`):
//! per-metric medians and quartiles, the change's win share over paired
//! runs, and a verdict per end-to-end metric using the spec's bounds.
//!
//! The rules: a gain is claimed only when at least ten pairs ran, the
//! change wins at least nine tenths of them (ties count for neither), and
//! the medians differ by more than the parent's own interquartile range.
//! A metric whose parent spread is wider than its bound is unresolved
//! unless every change run beats every parent run. Otherwise a change
//! median worse than the parent's by more than the bound is a regression.
//! Each workload gets its own row; nothing is combined across workloads.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;
use crate::spec::{self, Better};
use crate::stats::quartiles;
use crate::workloads::Workload;

/// Pairs needed before a gain can be claimed.
const MIN_PAIRS: usize = 10;
/// Share of pairs the change must win to claim a gain.
const WIN_SHARE: f64 = 0.9;

/// Metric values of one file, by workload then metric, in file order.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let where_ = || format!("{path}:{}", i + 1);
        let rec = Json::parse(line).map_err(|e| format!("{}: {e}", where_()))?;
        let workload = rec
            .get("workload")
            .and_then(Json::str)
            .ok_or_else(|| format!("{}: no workload", where_()))?;
        let Some(Json::Obj(metrics)) = rec.get("metrics") else {
            return Err(format!("{}: no metrics", where_()));
        };
        let per = runs.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::num) {
                per.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(runs)
}

/// The verdict on one metric of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins by the gain rule.
    Improved,
    /// Within the bound, or better but not by the gain rule.
    NoWorse,
    /// Worse than the parent by more than the bound.
    Regressed,
    /// The parent's own spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoWorse => "no-worse",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `change` against `parent` for a metric improving in direction
/// `better` with regression bound `bound`. Returns the verdict and the
/// change's win share over the runs paired in order.
pub fn judge(parent: &[f64], change: &[f64], better: Better, bound: f64) -> (Verdict, f64) {
    let gain = |p: f64, c: f64| match better {
        Better::Higher => c - p,
        Better::Lower => p - c,
    };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| gain(p, c) > 0.0)
        .count();
    let share = if pairs == 0 {
        0.0
    } else {
        wins as f64 / pairs as f64
    };
    let (p, c) = (quartiles(parent), quartiles(change));
    let all_better = parent
        .iter()
        .all(|&pv| change.iter().all(|&cv| gain(pv, cv) > 0.0));
    let rel = gain(p.median, c.median) / p.median.abs().max(f64::MIN_POSITIVE);
    let verdict = if pairs >= MIN_PAIRS
        && share >= WIN_SHARE
        && rel > 0.0
        && (c.median - p.median).abs() > p.q3 - p.q1
    {
        Verdict::Improved
    } else if p.spread() > bound && !all_better {
        Verdict::Unresolved
    } else if rel < -bound {
        Verdict::Regressed
    } else {
        Verdict::NoWorse
    };
    (verdict, share)
}

/// Compares two record files. Returns the report and whether any
/// end-to-end metric regressed.
pub fn compare(parent_path: &str, change_path: &str) -> Result<(String, bool), String> {
    let parent = load(parent_path)?;
    let change = load(change_path)?;
    let mut workloads: Vec<&String> = parent.keys().filter(|w| change.contains_key(*w)).collect();
    if workloads.is_empty() {
        return Err("the two files share no workload".into());
    }
    let order = |w: &String| Workload::from_name(w).map_or(usize::MAX, |x| x as usize);
    workloads.sort_by_key(|w| (order(w), (*w).clone()));
    let e2e = spec::end_to_end();
    let mut regressed = false;

    let mut out = format!("{:<20}", "workload");
    for m in &e2e {
        let _ = write!(out, " {:>16}", m.name);
    }
    out.push('\n');
    let mut detail = format!(
        "{:<20} {:<34} {:>30} {:>30} {:>8} {:>6} verdict\n",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "wins"
    );
    for w in workloads {
        let (pw, cw) = (&parent[w], &change[w]);
        let _ = write!(out, "{w:<20}");
        let names = e2e.iter().map(|m| m.name.clone()).chain(
            spec::per_layer()
                .into_iter()
                .map(|m| m.name)
                .filter(|n| pw.contains_key(n)),
        );
        for name in names {
            let (Some(pv), Some(cv)) = (pw.get(&name), cw.get(&name)) else {
                if e2e.iter().any(|m| m.name == name) {
                    let _ = write!(out, " {:>16}", "-");
                }
                continue;
            };
            let metric = spec::find(&name).expect("names come from the spec");
            let (p, c) = (quartiles(pv), quartiles(cv));
            let delta = (c.median - p.median) / p.median.abs().max(f64::MIN_POSITIVE);
            let (verdict, share) = match metric.bound {
                Some(bound) => {
                    let (v, share) = judge(pv, cv, metric.better, bound);
                    regressed |= v == Verdict::Regressed;
                    let _ = write!(out, " {:>16}", v.as_str());
                    (v.as_str(), share)
                }
                None => ("-", judge(pv, cv, metric.better, f64::INFINITY).1),
            };
            let _ = writeln!(
                detail,
                "{w:<20} {name:<34} {:>30} {:>30} {:>+7.1}% {:>5.0}% {verdict}",
                format!("{:.6} [{:.6}, {:.6}]", p.median, p.q1, p.q3),
                format!("{:.6} [{:.6}, {:.6}]", c.median, c.q1, c.q3),
                delta * 100.0,
                share * 100.0,
            );
        }
        out.push('\n');
    }
    out.push('\n');
    out.push_str(&detail);
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * f64::from(i % 3)).collect()
    }

    #[test]
    fn verdicts_follow_the_gain_and_bound_rules() {
        let parent = runs(100.0, 1.0);
        let (v, share) = judge(&parent, &runs(110.0, 1.0), Better::Higher, 0.05);
        assert_eq!((v, share), (Verdict::Improved, 1.0));
        assert_eq!(
            judge(&parent, &runs(101.0, 1.0), Better::Higher, 0.05).0,
            Verdict::NoWorse
        );
        assert_eq!(
            judge(&parent, &runs(90.0, 1.0), Better::Higher, 0.05).0,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&parent, &runs(90.0, 1.0), Better::Lower, 0.05).0,
            Verdict::Improved
        );
        let noisy = runs(100.0, 30.0);
        assert_eq!(
            judge(&noisy, &runs(95.0, 30.0), Better::Higher, 0.05).0,
            Verdict::Unresolved
        );
        // Too few pairs to claim a gain, however clear.
        assert_eq!(
            judge(&parent[..4], &[200.0; 4], Better::Higher, 0.05).0,
            Verdict::NoWorse
        );
    }

    #[test]
    fn compares_record_files_per_workload() {
        let dir =
            std::env::temp_dir().join(format!("ffs-benchmark-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let write = |name: &str, rps: f64| {
            let path = dir.join(name);
            let lines: String = (0..10)
                .map(|i| {
                    format!(
                        "{{\"workload\": \"light_diurnal\", \"metrics\": {{\"requests_per_s\": {{\"value\": {}, \"unit\": \"req/s\"}}, \"sim.events\": {{\"value\": 5, \"unit\": \"count\"}}}}}}\n",
                        rps + f64::from(i % 2)
                    )
                })
                .collect();
            std::fs::write(&path, lines).expect("write records");
            path.to_string_lossy().into_owned()
        };
        let (a, b) = (write("a.jsonl", 100.0), write("b.jsonl", 70.0));
        let (report, regressed) = compare(&a, &b).expect("comparable");
        assert!(regressed);
        assert!(report.contains("light_diurnal") && report.contains("regressed"));
        assert!(report.contains("sim.events"));
        let (_, regressed) = compare(&a, &a).expect("comparable");
        assert!(!regressed);
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
