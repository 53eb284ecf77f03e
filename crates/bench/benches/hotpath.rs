//! Microbenchmarks of the simulation hot path: scheduler set-up fresh
//! against pooled, SoA column scans against record scans, the incremental
//! routing index against the full admission scan, the maintained
//! exclusive-fleet summary against the per-request scan it replaced, the
//! incremental plan-cache signature against recomputing it from the
//! free-slice list, the radix latency CDF against the comparison sort,
//! preloaded arrivals against arrivals pushed through the event heap, a
//! harness summary over a saturated run's request log, and an end-to-end
//! run that exercises every hot-path change at once.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use ffs_metrics::{Breakdown, LatencyCdf, RequestLog, RequestRecord};
use ffs_mig::{Fleet, GpuId, NodeId, SliceId, SliceProfile};
use ffs_pipeline::plan::StagePlan;
use ffs_pipeline::{DeploymentPlan, InstanceEstimate};
use ffs_profile::{App, FunctionProfile, PerfModel, Variant};
use ffs_sim::{run_until, Scheduler, SimTime, World};
use ffs_trace::{AzureTraceConfig, WorkloadClass};
use fluidfaas::instance::{Instance, Phase, StageTimings};
use fluidfaas::plancache::{slice_signature, PlanCache};
use fluidfaas::platform::events::{Event, InstanceId};
use fluidfaas::platform::policy::exclusive_view_scan;
use fluidfaas::platform::runner::run_platform;
use fluidfaas::platform::slab::InstanceSlab;
use fluidfaas::{paper_policies, Engine, FfsConfig};

// ---------------------------------------------------------------------
// Scheduler set-up
// ---------------------------------------------------------------------

/// A deterministic xorshift stream.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// A run's standing population of pending events.
const PENDING: usize = 1_000;
const SEED: u64 = 0x2545_f491_4f6c_dd1d;

/// Per-run scheduler set-up: a fresh `Scheduler::new` (what a run or a
/// sharded cell pays when the run arena's pool is empty) against `reset`
/// of a pooled one. Both then load the same standing population, so the
/// arms differ only in whether the event heap grows from empty or reuses
/// a pooled one's capacity.
fn bench_scheduler_construct(c: &mut Criterion) {
    let seeds: Vec<u64> = {
        let mut x = SEED;
        (0..PENDING).map(|_| xorshift(&mut x) % 1_000_000).collect()
    };
    let load = |s: &mut Scheduler<Event>| {
        for (i, &t) in seeds.iter().enumerate() {
            s.at(SimTime::from_micros(t), Event::Arrival(i as u64));
        }
    };
    let mut g = c.benchmark_group("scheduler_construct");
    g.bench_function("fresh_new", |b| {
        b.iter(|| {
            let mut s: Scheduler<Event> = Scheduler::new();
            load(&mut s);
            black_box(s.pending())
        })
    });
    let mut pooled: Scheduler<Event> = Scheduler::new();
    g.bench_function("pooled_reset", |b| {
        b.iter(|| {
            pooled.reset();
            load(&mut pooled);
            black_box(pooled.pending())
        })
    });
    g.finish();
}

// ---------------------------------------------------------------------
// SoA column scan vs slab record scan
// ---------------------------------------------------------------------

/// A slab of `n` ready single-stage instances with varied latency
/// estimates and occupancies — the shape of the routing scan.
fn scan_slab(n: u64) -> InstanceSlab {
    let mut slab = InstanceSlab::new();
    let mut rng = SEED;
    for id in 0..n {
        let nodes = vec![ffs_dag::NodeId(0)];
        let plan = DeploymentPlan {
            partition: ffs_dag::PipelinePartition::new(vec![nodes.clone()]),
            stages: vec![StagePlan {
                nodes,
                slice: SliceId::new(GpuId((id / 7) as u16), (id % 7) as u8),
                profile: SliceProfile::G1_10,
                mem_gb: 1.0,
            }],
            cv: 0.0,
        };
        let jitter = (xorshift(&mut rng) % 64) as f64;
        let inst = Instance::new(
            InstanceId(id),
            0,
            plan,
            InstanceEstimate {
                latency_ms: 20.0 + jitter,
                bottleneck_ms: 10.0,
                throughput_rps: 100.0,
            },
            StageTimings::zero(1),
            NodeId(0),
            SimTime::ZERO,
            SimTime::ZERO,
        );
        slab.insert(InstanceId(id), inst, 100.0);
        slab.set_phase(&InstanceId(id), Phase::Ready);
        // A third of the fleet sits at its admission bound.
        if id % 3 == 0 {
            for req in 0..10 {
                slab.admit(InstanceId(id), req, SimTime::ZERO);
                slab.start_stage(InstanceId(id), 0, SimTime::ZERO);
            }
        }
    }
    slab
}

/// The lowest-latency routing scan (admission filter + latency argmin),
/// on the SoA hot columns against the instance records they mirror. The
/// record path drags each instance's plans, queues and timing tables
/// through the cache to read three scalars.
fn bench_soa_scan(c: &mut Criterion) {
    const FLEET: u64 = 256;
    let slab = scan_slab(FLEET);
    let slo_ms = 100.0;
    let mut g = c.benchmark_group("routing_scan_256_instances");
    g.bench_function("soa_columns", |b| {
        b.iter(|| {
            let mut best: Option<(InstanceId, f64)> = None;
            for id in (0..FLEET).map(InstanceId) {
                if !slab.has_admission_capacity(id) {
                    continue;
                }
                let lat = slab.latency_ms_of(id);
                if best.is_none_or(|(_, b)| lat < b) {
                    best = Some((id, lat));
                }
            }
            black_box(best)
        })
    });
    g.bench_function("slab_records", |b| {
        b.iter(|| {
            let mut best: Option<(InstanceId, f64)> = None;
            for inst in slab.values() {
                if !inst.has_capacity(slo_ms) {
                    continue;
                }
                let lat = inst.est.latency_ms;
                if best.is_none_or(|(_, b)| lat < b) {
                    best = Some((inst.id, lat));
                }
            }
            black_box(best)
        })
    });
    g.finish();
}

// ---------------------------------------------------------------------
// Incremental routing index vs full admission scan
// ---------------------------------------------------------------------

/// The routing lookup on the maintained per-function candidate index
/// against the full filter-scan it replaced. `scan_slab` parks a third of
/// the fleet at its admission bound, so the index holds ~2/3 of the
/// instances; the full scan still reads the phase/occupancy/cap columns
/// of all of them.
fn bench_route_index(c: &mut Criterion) {
    const FLEET: u64 = 256;
    let slab = scan_slab(FLEET);
    let mut g = c.benchmark_group("route_lookup_256_instances");
    g.bench_function("incremental_index", |b| {
        b.iter(|| {
            let mut best: Option<(u32, f64)> = None;
            for &idx in slab.admissible_of(0) {
                let lat = slab.latency_ms_of(InstanceId(u64::from(idx)));
                if best.is_none_or(|(_, b)| lat < b) {
                    best = Some((idx, lat));
                }
            }
            black_box(best)
        })
    });
    g.bench_function("full_scan", |b| {
        b.iter(|| {
            let mut best: Option<(InstanceId, f64)> = None;
            for id in (0..FLEET).map(InstanceId) {
                if !slab.has_admission_capacity(id) {
                    continue;
                }
                let lat = slab.latency_ms_of(id);
                if best.is_none_or(|(_, b)| lat < b) {
                    best = Some((id, lat));
                }
            }
            black_box(best)
        })
    });
    g.finish();
}

// ---------------------------------------------------------------------
// Exclusive-fleet summary vs per-request scan
// ---------------------------------------------------------------------

/// Views read per timed iteration, so one iteration is long enough for
/// the wall clock to resolve.
const VIEWS_PER_ITER: usize = 1_000;

/// The overflow rule's input, `ExclusiveView`, read from the slab's
/// maintained per-function summary against the scan over the function's
/// instances it replaced, at a small and a large fleet. The summary is
/// O(1); the scan grows with the instance count. Each iteration reads
/// [`VIEWS_PER_ITER`] views.
fn bench_overflow_view(c: &mut Criterion) {
    let mut g = c.benchmark_group("overflow_view");
    for fleet in [4u64, 64] {
        let slab = scan_slab(fleet);
        let ids: Vec<InstanceId> = (0..fleet).map(InstanceId).collect();
        g.bench_function(format!("scan_{fleet}_ready_x1000"), |b| {
            b.iter(|| {
                for _ in 0..VIEWS_PER_ITER {
                    black_box(exclusive_view_scan(&slab, black_box(&ids)));
                }
            })
        });
        g.bench_function(format!("summary_{fleet}_ready_x1000"), |b| {
            b.iter(|| {
                for _ in 0..VIEWS_PER_ITER {
                    black_box(slab.exclusive_view(black_box(0)));
                }
            })
        });
    }
    g.finish();
}

// ---------------------------------------------------------------------
// Latency CDF: radix sort of µs keys vs comparison sort of ms floats
// ---------------------------------------------------------------------

/// A run-sized latency CDF (~200k completions, 1 µs … ~100 s): the
/// comparison sort of `f64` ms values against the radix sort of the
/// integer µs keys they come from. Each iteration sorts a fresh copy.
fn bench_latency_cdf(c: &mut Criterion) {
    const SAMPLES: usize = 200_000;
    let mut rng = SEED;
    let micros: Vec<u64> = (0..SAMPLES)
        .map(|_| 1 + xorshift(&mut rng) % 100_000_000)
        .collect();
    let millis: Vec<f64> = micros
        .iter()
        .map(|&us| ffs_sim::SimDuration::from_micros(us).as_secs_f64() * 1_000.0)
        .collect();
    let mut g = c.benchmark_group("latency_cdf");
    g.bench_function("comparison_sort_ms", |b| {
        b.iter(|| black_box(LatencyCdf::new(millis.clone()).p99()))
    });
    g.bench_function("radix_sort_us", |b| {
        b.iter(|| black_box(LatencyCdf::from_micros(micros.clone()).p99()))
    });
    g.finish();
}

// ---------------------------------------------------------------------
// Arrival ingest: preloaded stream vs pushes through the heap
// ---------------------------------------------------------------------

/// Trace-sized arrival count (a saturating 1200 s trace offers ~250k).
const ARRIVALS: usize = 250_000;

/// Each arrival schedules one follow-up (a stage completion 1–100 ms
/// later); follow-ups schedule nothing.
struct Ingest {
    rng: u64,
}

impl World for Ingest {
    type Event = u32;
    fn handle(&mut self, _t: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
        if (ev as usize) < ARRIVALS {
            let d = 1_000 + xorshift(&mut self.rng) % 99_000;
            sched.after(ffs_sim::SimDuration::from_micros(d), ev + ARRIVALS as u32);
        }
    }
}

/// A sorted trace's arrivals loaded and drained two ways: the sorted bulk
/// path (`preload_sorted`, whose stream the drain merges with the event
/// heap) against pushing the same arrivals one by one with
/// `Scheduler::at`. Same delivery order either way; the delta is what
/// pushing arrivals through the heap costs.
fn bench_arrival_ingest(c: &mut Criterion) {
    // Poisson-like gaps averaging 4.8 ms: 250k arrivals over ~1200 s.
    let arrivals: Vec<SimTime> = {
        let mut x = SEED;
        let mut t = 0u64;
        (0..ARRIVALS)
            .map(|_| {
                t += xorshift(&mut x) % 9_600;
                SimTime::from_micros(t)
            })
            .collect()
    };
    let mut g = c.benchmark_group("arrival_ingest_250k");
    g.sample_size(10);
    g.bench_function("preload_sorted", |b| {
        b.iter(|| {
            let mut s: Scheduler<u32> = Scheduler::new();
            s.preload_sorted(arrivals.iter().copied(), |i| i as u32);
            run_until(&mut Ingest { rng: SEED }, &mut s, SimTime::MAX);
            black_box(s.executed())
        })
    });
    g.bench_function("pushed_at", |b| {
        b.iter(|| {
            let mut s: Scheduler<u32> = Scheduler::new();
            for (i, &t) in arrivals.iter().enumerate() {
                s.at(t, i as u32);
            }
            run_until(&mut Ingest { rng: SEED }, &mut s, SimTime::MAX);
            black_box(s.executed())
        })
    });
    g.finish();
}

// ---------------------------------------------------------------------
// Log summary over a saturated run's request log
// ---------------------------------------------------------------------

/// What a harness computes from every run's log: SLO hits, completions
/// and the latency CDF's p50/p99, over 250k records of which about two
/// thirds are abandoned (the saturated-backlog shape).
fn bench_log_summary(c: &mut Criterion) {
    let mut log = RequestLog::new();
    let mut rng = SEED;
    for id in 0..ARRIVALS as u64 {
        let r = xorshift(&mut rng);
        let arrival = SimTime::from_micros(id * 4_800);
        let mut rec = RequestRecord {
            id,
            arrival,
            completed: None,
            slo_ms: 500.0,
            app_index: (r % 4) as u32,
            tenant: 0,
        };
        if r.is_multiple_of(3) {
            rec.completed = Some(arrival + ffs_sim::SimDuration::from_micros(r % 2_000_000));
            log.push_completed(rec, Breakdown::default());
        } else {
            log.push_abandoned(rec);
        }
    }
    let mut g = c.benchmark_group("log_summary_250k");
    g.bench_function("hits_completed_cdf", |b| {
        b.iter(|| {
            let records = log.records();
            let hits = records.iter().filter(|r| r.slo_hit()).count();
            let completed = records.iter().filter(|r| r.completed.is_some()).count();
            let cdf = LatencyCdf::from_micros(log.latencies_us());
            black_box((hits, completed, cdf.p50(), cdf.p99()))
        })
    });
    g.finish();
}

// ---------------------------------------------------------------------
// Plan-cache hit: incremental signature vs recomputed signature
// ---------------------------------------------------------------------

fn bench_plan_cache_hit(c: &mut Criterion) {
    let fleet = Fleet::paper_default();
    let node = NodeId(0);
    let profile = FunctionProfile::build(
        App::ImageClassification,
        Variant::Small,
        &PerfModel::default(),
    );
    let mut cache = PlanCache::new();
    // Warm the single entry both variants will hit.
    cache.plan(7, node, true, &profile, &fleet.free_slices(Some(node)));

    let mut g = c.benchmark_group("plan_cache_hit");
    g.bench_function("incremental_signature", |b| {
        b.iter(|| {
            let sig = fleet.node_signature(node);
            black_box(cache.plan_with_signature(7, node, true, &profile, sig, || {
                fleet.free_slices(Some(node))
            }))
        })
    });
    g.bench_function("recomputed_signature", |b| {
        b.iter(|| {
            // The pre-incremental hot path: materialize the free-slice
            // list and hash it on every lookup.
            let free = fleet.free_slices(Some(node));
            let sig = slice_signature(&free);
            black_box(cache.plan_with_signature(7, node, true, &profile, sig, || free.clone()))
        })
    });
    g.finish();
}

// ---------------------------------------------------------------------
// End-to-end run (all hot-path changes at once)
// ---------------------------------------------------------------------

fn bench_end_to_end(c: &mut Criterion) {
    let trace = AzureTraceConfig::for_workload(WorkloadClass::Light, 60.0, 7).generate();
    let mut g = c.benchmark_group("end_to_end");
    g.sample_size(10);
    g.bench_function("fluidfaas_light_60s", |b| {
        b.iter(|| {
            let cfg = FfsConfig::paper_default(WorkloadClass::Light);
            let policies = paper_policies(&cfg);
            let mut engine = Engine::new(cfg, policies, &trace).expect("valid setup");
            let out = run_platform(&mut engine, &trace);
            black_box(out.log.len())
        })
    });
    g.finish();
}

criterion_group!(
    hotpath,
    bench_scheduler_construct,
    bench_soa_scan,
    bench_route_index,
    bench_overflow_view,
    bench_plan_cache_hit,
    bench_latency_cdf,
    bench_arrival_ingest,
    bench_log_summary,
    bench_end_to_end
);
criterion_main!(hotpath);
