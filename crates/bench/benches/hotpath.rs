//! Microbenchmarks of the simulation hot path: the timer-wheel scheduler
//! against the binary heap it replaced, batch slot drain against the
//! per-event loop it replaced, SoA column scans against record scans, the
//! incremental routing index against the full admission scan, the
//! incremental plan-cache signature against recomputing it from the
//! free-slice list, and an end-to-end run that exercises every hot-path
//! change at once.

use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::BinaryHeap;
use std::hint::black_box;

use ffs_mig::{Fleet, GpuId, NodeId, SliceId, SliceProfile};
use ffs_pipeline::plan::StagePlan;
use ffs_pipeline::{DeploymentPlan, InstanceEstimate};
use ffs_profile::{App, FunctionProfile, PerfModel, Variant};
use ffs_sim::{run_until, run_until_stepwise, Scheduler, SimTime, World};
use ffs_trace::{AzureTraceConfig, WorkloadClass};
use fluidfaas::instance::{Instance, Phase, StageTimings};
use fluidfaas::plancache::{slice_signature, PlanCache};
use fluidfaas::platform::events::InstanceId;
use fluidfaas::platform::runner::run_platform;
use fluidfaas::platform::slab::InstanceSlab;
use fluidfaas::{paper_policies, Engine, FfsConfig};

// ---------------------------------------------------------------------
// Wheel vs heap push/pop
// ---------------------------------------------------------------------

/// A deterministic xorshift stream.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The real event mix: a standing population of pending events, each pop
/// scheduling a short-horizon follow-up (stage completions, handoffs,
/// ticks are all `now + a-few-ms`). The heap pays `O(log pending)` per
/// op here; the wheel pays `O(1)`.
const PENDING: usize = 1_000;
const CHURN_OPS: usize = 50_000;
const SEED: u64 = 0x2545_f491_4f6c_dd1d;

/// Delta for the follow-up push: 1 µs ..= ~1 s.
fn delta(rng: &mut u64) -> u64 {
    1 + xorshift(rng) % 1_000_000
}

struct Churn {
    remaining: usize,
    rng: u64,
}

impl World for Churn {
    type Event = u32;
    fn handle(&mut self, _t: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            let d = delta(&mut self.rng);
            sched.after(ffs_sim::SimDuration::from_micros(d), ev);
        }
    }
}

/// The pre-wheel scheduler: a `(time, seq)`-ordered binary heap.
#[derive(PartialEq, Eq)]
struct HeapEntry {
    at: u64,
    seq: u64,
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

fn bench_scheduler_push_pop(c: &mut Criterion) {
    // Both sides seed the same standing population and consume the same
    // delta stream, so they do identical logical work.
    let seeds: Vec<u64> = {
        let mut x = SEED;
        (0..PENDING).map(|_| xorshift(&mut x) % 1_000_000).collect()
    };
    let mut g = c.benchmark_group("scheduler_steady_churn_1k_pending");
    g.bench_function("timer_wheel", |b| {
        b.iter(|| {
            let mut w = Churn {
                remaining: CHURN_OPS,
                rng: SEED,
            };
            let mut s: Scheduler<u32> = Scheduler::new();
            for (i, &t) in seeds.iter().enumerate() {
                s.at(SimTime::from_micros(t), i as u32);
            }
            run_until(&mut w, &mut s, SimTime::MAX);
            black_box(s.now())
        })
    });
    g.bench_function("binary_heap", |b| {
        b.iter(|| {
            let mut heap = BinaryHeap::with_capacity(PENDING + 1);
            let mut seq = 0u64;
            for &t in &seeds {
                heap.push(HeapEntry { at: t, seq });
                seq += 1;
            }
            let mut rng = SEED;
            let mut remaining = CHURN_OPS;
            let mut last = 0;
            while let Some(e) = heap.pop() {
                last = e.at;
                if remaining > 0 {
                    remaining -= 1;
                    heap.push(HeapEntry {
                        at: e.at + delta(&mut rng),
                        seq,
                    });
                    seq += 1;
                }
            }
            black_box(last)
        })
    });
    g.finish();
}

// ---------------------------------------------------------------------
// Batch slot drain vs per-event drain
// ---------------------------------------------------------------------

/// Follow-up deltas quantized to a 1 ms grid with 128 distinct values:
/// a standing population of 1k events collapses onto ~128 future slots,
/// so L0 slots hold multi-event batches — the shape the batched loop is
/// built for (simultaneous arrivals, same-tick completions).
fn bursty_delta(rng: &mut u64) -> u64 {
    (1 + xorshift(rng) % 128) * 1_000
}

struct BurstChurn {
    remaining: usize,
    rng: u64,
}

impl World for BurstChurn {
    type Event = u32;
    fn handle(&mut self, _t: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            let d = bursty_delta(&mut self.rng);
            sched.after(ffs_sim::SimDuration::from_micros(d), ev);
        }
    }
}

/// The batched drive loop (`run_until`: one clock update, one deadline
/// check, one obs flush per same-timestamp batch) against the per-event
/// loop it replaced (`run_until_stepwise`). Identical programs, identical
/// delivery order — the property tests pin that — so the delta is pure
/// loop overhead.
fn bench_batch_drain(c: &mut Criterion) {
    // Seeds on the same 1 ms grid as the follow-up deltas, so every event
    // the program ever schedules shares a timestamp with ~7 others.
    let seeds: Vec<u64> = {
        let mut x = SEED;
        (0..PENDING)
            .map(|_| (xorshift(&mut x) % 128) * 1_000)
            .collect()
    };
    let mut g = c.benchmark_group("drain_bursty_1k_pending");
    g.bench_function("batched", |b| {
        b.iter(|| {
            let mut w = BurstChurn {
                remaining: CHURN_OPS,
                rng: SEED,
            };
            let mut s: Scheduler<u32> = Scheduler::new();
            for (i, &t) in seeds.iter().enumerate() {
                s.at(SimTime::from_micros(t), i as u32);
            }
            run_until(&mut w, &mut s, SimTime::MAX);
            black_box(s.now())
        })
    });
    g.bench_function("per_event", |b| {
        b.iter(|| {
            let mut w = BurstChurn {
                remaining: CHURN_OPS,
                rng: SEED,
            };
            let mut s: Scheduler<u32> = Scheduler::new();
            for (i, &t) in seeds.iter().enumerate() {
                s.at(SimTime::from_micros(t), i as u32);
            }
            run_until_stepwise(&mut w, &mut s, SimTime::MAX);
            black_box(s.now())
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
            for _ in 0..10 {
                slab.note_admitted(InstanceId(id));
                slab.get_mut(&InstanceId(id)).unwrap().stage_queues[0].push_back(0);
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
    bench_scheduler_push_pop,
    bench_batch_drain,
    bench_soa_scan,
    bench_route_index,
    bench_plan_cache_hit,
    bench_end_to_end
);
criterion_main!(hotpath);
