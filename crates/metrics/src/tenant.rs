//! Per-tenant fairness metrics: tenant latency/SLO slices of a
//! [`RequestLog`] and Jain's fairness index over tenant
//! throughput.
//!
//! Fleet-wide averages hide starvation: a noisy tenant can push another
//! tenant's p99 past its SLO while the aggregate CDF barely moves. The
//! fairness experiments therefore report per-tenant attainment (after
//! HAS-GPU) and a single scalar fairness figure (Jain's index) per system.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use ffs_sim::SimDuration;

use crate::cdf::LatencyCdf;
use crate::record::RequestLog;

/// Jain's fairness index over per-tenant allocations (throughput here):
/// `(Σx)² / (n · Σx²)`. Ranges over `(0, 1]`; 1.0 means all tenants
/// receive identical allocations, `1/n` means one tenant receives
/// everything. Returns 1.0 for an empty slice or an all-zero allocation
/// (nobody is being treated unequally when nobody is served).
pub fn jain_index(allocations: &[f64]) -> f64 {
    let n = allocations.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = allocations.iter().sum();
    let sum_sq: f64 = allocations.iter().map(|x| x * x).sum();
    if sum_sq <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sum_sq)
}

/// Fairness-relevant aggregates for one tenant.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TenantStats {
    /// The tenant id.
    pub tenant: u32,
    /// Requests attributed to this tenant (completed or not).
    pub requests: usize,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// SLO-compliant completions per second (goodput). Always at most
    /// `throughput_rps`; the gap is work delivered too late to matter.
    pub goodput_rps: f64,
    /// Fraction of this tenant's requests completed within SLO.
    pub slo_attainment: f64,
    /// Median latency (ms) over completed requests; `None` if none
    /// completed.
    pub p50_ms: Option<f64>,
    /// 99th-percentile latency (ms); `None` if none completed.
    pub p99_ms: Option<f64>,
}

/// Per-tenant view of one run's request log.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TenantReport {
    /// One row per tenant, ascending by tenant id.
    pub tenants: Vec<TenantStats>,
    /// Jain's index over the tenants' completion throughput. Under light
    /// load every request eventually completes, so this equals the
    /// offered-load skew regardless of scheduler.
    pub jain_throughput: f64,
    /// Jain's index over the tenants' goodput. This is the
    /// scheduler-sensitive figure: ordering decides *whose* requests make
    /// their deadlines even when everything eventually completes.
    pub jain_goodput: f64,
}

impl TenantReport {
    /// Builds the per-tenant report from a request log and the run
    /// duration (used for throughput normalisation), in one pass over the
    /// log.
    pub fn from_log(log: &RequestLog, duration: SimDuration) -> Self {
        /// Per-tenant tallies gathered in the pass.
        #[derive(Default)]
        struct Tally {
            requests: usize,
            completed: usize,
            slo_hits: usize,
            latencies_us: Vec<u64>,
        }
        let mut tallies: BTreeMap<u32, Tally> = BTreeMap::new();
        for r in log.records() {
            let t = tallies.entry(r.tenant).or_default();
            t.requests += 1;
            t.slo_hits += usize::from(r.slo_hit());
            if let Some(us) = r.latency_us() {
                t.completed += 1;
                t.latencies_us.push(us);
            }
        }
        let secs = duration.as_secs_f64().max(1e-9);
        let mut tenants = Vec::with_capacity(tallies.len());
        let mut rates = Vec::with_capacity(tallies.len());
        let mut goodputs = Vec::with_capacity(tallies.len());
        for (tenant, t) in tallies {
            let cdf = LatencyCdf::from_micros(t.latencies_us);
            let rps = t.completed as f64 / duration.as_secs_f64();
            let goodput = t.slo_hits as f64 / secs;
            rates.push(rps);
            goodputs.push(goodput);
            tenants.push(TenantStats {
                tenant,
                requests: t.requests,
                throughput_rps: rps,
                goodput_rps: goodput,
                slo_attainment: t.slo_hits as f64 / t.requests as f64,
                p50_ms: cdf.p50(),
                p99_ms: cdf.p99(),
            });
        }
        TenantReport {
            tenants,
            jain_throughput: jain_index(&rates),
            jain_goodput: jain_index(&goodputs),
        }
    }

    /// The stats row for one tenant, if present.
    pub fn tenant(&self, tenant: u32) -> Option<&TenantStats> {
        self.tenants.iter().find(|t| t.tenant == tenant)
    }

    /// The minimum per-tenant SLO attainment — the starved-tenant view the
    /// fairness tables lead with.
    pub fn worst_slo_attainment(&self) -> f64 {
        self.tenants
            .iter()
            .map(|t| t.slo_attainment)
            .fold(1.0, f64::min)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::record::{Breakdown, RequestRecord};
    use ffs_sim::SimTime;

    /// Logs one request of `tenant`: completed after `latency_ms`, or
    /// abandoned when `None`.
    fn push(log: &mut RequestLog, id: u64, tenant: u32, latency_ms: Option<f64>) {
        let arrival = SimTime::from_secs(1);
        let r = RequestRecord {
            id,
            app_index: 0,
            arrival,
            completed: latency_ms.map(|l| arrival + SimDuration::from_millis_f64(l)),
            slo_ms: 100.0,
            tenant,
        };
        match latency_ms {
            Some(_) => log.push_completed(r, Breakdown::default()),
            None => log.push_abandoned(r),
        }
    }

    #[test]
    fn jain_identical_allocations_is_one() {
        assert!((jain_index(&[5.0, 5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn jain_single_hog_is_one_over_n() {
        let j = jain_index(&[12.0, 0.0, 0.0, 0.0]);
        assert!((j - 0.25).abs() < 1e-12);
    }

    #[test]
    fn tenant_report_splits_by_tenant() {
        let mut log = RequestLog::new();
        push(&mut log, 0, 0, Some(50.0));
        push(&mut log, 1, 0, Some(150.0)); // miss
        push(&mut log, 2, 1, Some(10.0));
        push(&mut log, 3, 1, None); // abandoned: miss, no latency
        let report = TenantReport::from_log(&log, SimDuration::from_secs(10));
        assert_eq!(report.tenants.len(), 2);
        let t0 = report.tenant(0).expect("tenant 0");
        assert_eq!(t0.requests, 2);
        assert!((t0.slo_attainment - 0.5).abs() < 1e-12);
        assert!((t0.throughput_rps - 0.2).abs() < 1e-12);
        let t1 = report.tenant(1).expect("tenant 1");
        assert_eq!(t1.p99_ms, Some(10.0));
        assert!((t1.throughput_rps - 0.1).abs() < 1e-12);
        assert!((report.worst_slo_attainment() - 0.5).abs() < 1e-12);
        // Throughputs 0.2 vs 0.1 → Jain = (0.3)^2 / (2 * 0.05) = 0.9.
        assert!((report.jain_throughput - 0.9).abs() < 1e-12);
        // One SLO hit each (0.1 rps goodput apiece) → perfectly fair.
        assert!((t0.goodput_rps - 0.1).abs() < 1e-12);
        assert!((t1.goodput_rps - 0.1).abs() < 1e-12);
        assert!((report.jain_goodput - 1.0).abs() < 1e-12);
    }
}
