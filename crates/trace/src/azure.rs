//! Synthetic Azure-Functions-style invocation trace generation.
//!
//! Shahrad et al. (ATC'20) characterise production serverless traffic as
//! highly bursty (most functions see long idle periods punctuated by
//! bursts) with slow daily modulation. We model each application's arrival
//! process as a Markov-modulated Poisson process (an on/off burst state
//! multiplying the base rate) under a sinusoidal diurnal envelope, sampled
//! by thinning. The result is deterministic per seed.

use ffs_profile::App;
use ffs_sim::{SimDuration, SimRng, SimTime};

use crate::workload::{Invocation, WorkloadClass};

/// Configuration of the synthetic trace generator.
#[derive(Clone, Debug)]
pub struct AzureTraceConfig {
    /// Applications to generate arrivals for.
    pub apps: Vec<App>,
    /// Trace length in seconds.
    pub duration_secs: f64,
    /// Mean request rate per app (req/s), averaged over burst states.
    pub mean_rps_per_app: f64,
    /// Rate multiplier while a burst is active.
    pub burst_multiplier: f64,
    /// Mean length of a burst (seconds).
    pub burst_on_secs: f64,
    /// Mean gap between bursts (seconds).
    pub burst_off_secs: f64,
    /// Amplitude of the diurnal sinusoid, `0.0..1.0`.
    pub diurnal_amplitude: f64,
    /// Period of the diurnal sinusoid (seconds). Production traces have a
    /// 24 h period; experiments compress it to the trace length.
    pub diurnal_period_secs: f64,
    /// RNG seed.
    pub seed: u64,
}

impl AzureTraceConfig {
    /// The configuration used by the paper-reproduction experiments for a
    /// workload class: paper rates, strong bursts, one diurnal cycle per
    /// trace.
    pub fn for_workload(class: WorkloadClass, duration_secs: f64, seed: u64) -> Self {
        AzureTraceConfig {
            apps: class.apps(),
            duration_secs,
            mean_rps_per_app: class.mean_rps_per_app(),
            burst_multiplier: 2.5,
            burst_on_secs: duration_secs / 10.0,
            burst_off_secs: duration_secs / 5.0,
            diurnal_amplitude: 0.4,
            diurnal_period_secs: duration_secs,
            seed,
        }
    }

    /// A steady (non-bursty) Poisson variant, useful for capacity
    /// calibration and tests.
    pub fn steady(apps: Vec<App>, duration_secs: f64, rps: f64, seed: u64) -> Self {
        AzureTraceConfig {
            apps,
            duration_secs,
            mean_rps_per_app: rps,
            burst_multiplier: 1.0,
            burst_on_secs: duration_secs,
            burst_off_secs: duration_secs,
            diurnal_amplitude: 0.0,
            diurnal_period_secs: duration_secs,
            seed,
        }
    }

    /// Generates the trace.
    pub fn generate(&self) -> Trace {
        assert!(self.duration_secs > 0.0);
        assert!(self.mean_rps_per_app >= 0.0);
        assert!(self.burst_multiplier >= 1.0);
        assert!((0.0..1.0).contains(&self.diurnal_amplitude));
        let root = SimRng::seed_from_u64(self.seed);
        let mut invocations: Vec<Invocation> = Vec::new();
        for (k, &app) in self.apps.iter().enumerate() {
            let mut rng = root.split(k as u64 + 1);
            self.generate_app(app, &mut rng, &mut invocations);
        }
        invocations.sort_by_key(|i| (i.arrival, i.app.index()));
        for (i, inv) in invocations.iter_mut().enumerate() {
            inv.id = i as u64;
        }
        Trace {
            invocations,
            duration: SimDuration::from_secs_f64(self.duration_secs),
        }
    }

    /// The burst-state-dependent base rates: solves for on/off rates so the
    /// long-run mean is `mean_rps_per_app` given the duty cycle.
    fn rates(&self) -> (f64, f64) {
        let duty = self.burst_on_secs / (self.burst_on_secs + self.burst_off_secs);
        // mean = off_rate * (1 - duty) + on_rate * duty, on = mult * off.
        let off_rate = self.mean_rps_per_app / (1.0 - duty + self.burst_multiplier * duty);
        (off_rate, off_rate * self.burst_multiplier)
    }

    fn generate_app(&self, app: App, rng: &mut SimRng, out: &mut Vec<Invocation>) {
        let (off_rate, on_rate) = self.rates();
        let lambda_max = on_rate * (1.0 + self.diurnal_amplitude);
        if lambda_max <= 0.0 {
            return;
        }
        // Burst state process, pre-sampled as alternating off/on intervals.
        let mut burst_edges: Vec<(f64, bool)> = Vec::new(); // (start, is_on)
        let mut t = 0.0;
        let mut on = false;
        // Randomise the initial phase so apps do not all start "off".
        if rng.chance(self.burst_on_secs / (self.burst_on_secs + self.burst_off_secs)) {
            on = true;
        }
        burst_edges.push((0.0, on));
        while t < self.duration_secs {
            let mean = if on {
                self.burst_on_secs
            } else {
                self.burst_off_secs
            };
            t += rng.exp(mean);
            on = !on;
            burst_edges.push((t, on));
        }
        let state_at = |time: f64| -> bool {
            match burst_edges.binary_search_by(|&(s, _)| s.partial_cmp(&time).expect("finite time"))
            {
                Ok(i) => burst_edges[i].1,
                Err(0) => burst_edges[0].1,
                Err(i) => burst_edges[i - 1].1,
            }
        };
        // Thinning: candidates at lambda_max, accepted at lambda(t)/lambda_max.
        let mut time = 0.0;
        loop {
            time += rng.exp(1.0 / lambda_max);
            if time >= self.duration_secs {
                break;
            }
            let base = if state_at(time) { on_rate } else { off_rate };
            let diurnal = 1.0
                + self.diurnal_amplitude
                    * (2.0 * std::f64::consts::PI * time / self.diurnal_period_secs).sin();
            let lambda = base * diurnal;
            if rng.chance(lambda / lambda_max) {
                out.push(Invocation {
                    id: 0, // assigned after the global sort
                    app,
                    arrival: SimTime::from_secs_f64(time),
                    tenant: app.index() as u32,
                });
            }
        }
    }
}

/// A generated invocation trace, sorted by arrival time.
#[derive(Clone, Debug)]
pub struct Trace {
    /// The invocations, sorted by arrival, with dense ids.
    pub invocations: Vec<Invocation>,
    /// The trace length.
    pub duration: SimDuration,
}

impl Trace {
    /// Number of invocations.
    pub fn len(&self) -> usize {
        self.invocations.len()
    }

    /// True if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.invocations.is_empty()
    }

    /// Mean arrival rate over the whole trace (req/s), across all apps.
    pub fn mean_rate(&self) -> f64 {
        self.invocations.len() as f64 / self.duration.as_secs_f64()
    }

    /// Inter-arrival coefficient of variation for one app (burstiness
    /// measure; 1.0 for Poisson, > 1 for bursty traffic).
    ///
    /// One streaming pass: gaps feed a Welford accumulator as they are
    /// encountered, so the scan allocates nothing and stays linear even on
    /// the million-function scale traces.
    pub fn interarrival_cv(&self, app: App) -> f64 {
        let mut gaps = ffs_sim::OnlineStats::new();
        let mut count = 0usize;
        let mut prev = 0.0;
        for i in self.invocations.iter().filter(|i| i.app == app) {
            let t = i.arrival.as_secs_f64();
            if count > 0 {
                gaps.push(t - prev);
            }
            prev = t;
            count += 1;
        }
        if count < 3 {
            return 0.0;
        }
        gaps.cv()
    }

    /// Invocation count per app.
    pub fn count_for(&self, app: App) -> usize {
        self.invocations.iter().filter(|i| i.app == app).count()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let cfg = AzureTraceConfig::for_workload(WorkloadClass::Medium, 120.0, 7);
        let a = cfg.generate();
        let b = cfg.generate();
        assert_eq!(a.invocations, b.invocations);
        let mut cfg2 = cfg.clone();
        cfg2.seed = 8;
        let c = cfg2.generate();
        assert_ne!(a.invocations, c.invocations);
    }

    #[test]
    fn steady_trace_hits_target_rate() {
        let cfg = AzureTraceConfig::steady(vec![App::ImageClassification], 500.0, 10.0, 3);
        let trace = cfg.generate();
        let rate = trace.mean_rate();
        assert!((rate - 10.0).abs() < 1.0, "rate {rate}");
    }

    #[test]
    fn steady_trace_is_poisson_like() {
        let cfg = AzureTraceConfig::steady(vec![App::ImageClassification], 500.0, 10.0, 3);
        let trace = cfg.generate();
        let cv = trace.interarrival_cv(App::ImageClassification);
        assert!(
            (cv - 1.0).abs() < 0.15,
            "Poisson CV should be near 1, got {cv}"
        );
    }

    #[test]
    fn bursty_trace_is_overdispersed() {
        let cfg = AzureTraceConfig::for_workload(WorkloadClass::Medium, 600.0, 11);
        let trace = cfg.generate();
        for app in WorkloadClass::Medium.apps() {
            let cv = trace.interarrival_cv(app);
            assert!(cv > 1.05, "{} CV {cv} should exceed Poisson", app.name());
        }
    }

    #[test]
    fn bursty_trace_mean_rate_matches_config() {
        let cfg = AzureTraceConfig::for_workload(WorkloadClass::Light, 1200.0, 5);
        let trace = cfg.generate();
        let per_app = trace.mean_rate() / cfg.apps.len() as f64;
        let target = cfg.mean_rps_per_app;
        assert!(
            (per_app - target).abs() / target < 0.25,
            "per-app rate {per_app} vs target {target}"
        );
    }

    #[test]
    fn invocations_sorted_with_dense_ids() {
        let cfg = AzureTraceConfig::for_workload(WorkloadClass::Heavy, 60.0, 2);
        let trace = cfg.generate();
        for (i, w) in trace.invocations.windows(2).enumerate() {
            assert!(w[0].arrival <= w[1].arrival, "unsorted at {i}");
        }
        for (i, inv) in trace.invocations.iter().enumerate() {
            assert_eq!(inv.id, i as u64);
        }
    }

    #[test]
    fn all_workload_apps_present() {
        let cfg = AzureTraceConfig::for_workload(WorkloadClass::Medium, 300.0, 9);
        let trace = cfg.generate();
        for app in WorkloadClass::Medium.apps() {
            assert!(trace.count_for(app) > 0, "{} missing", app.name());
        }
    }
}
