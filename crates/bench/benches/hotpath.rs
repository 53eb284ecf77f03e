//! Microbenchmarks of the simulation hot path: scheduler set-up fresh
//! against pooled, the sorted-vector event queue against a binary heap at
//! several queue depths, SoA column scans against record scans, the
//! incremental routing index against the full admission scan, the
//! maintained exclusive-fleet summary against the per-request scan it
//! replaced, the incremental plan-cache signature against recomputing it
//! from the free-slice list, latency percentiles by selection against a
//! full sort, the preloaded arrival stream, a harness summary over a
//! saturated run's request log, and an end-to-end run that exercises every
//! hot-path change at once.
//!
//! ```sh
//! cargo bench -p ffs-bench --bench hotpath            # median and IQR per arm
//! cargo bench -p ffs-bench --bench hotpath -- --test  # each arm once
//! ```

use ffs_bench::Bench;
use std::hint::black_box;

use std::cmp::Ordering;
use std::collections::BinaryHeap;

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
/// arms differ only in whether the event queue grows from empty or reuses
/// a pooled one's capacity.
fn bench_scheduler_construct(b: &Bench) {
    let seeds: Vec<u64> = {
        let mut x = SEED;
        (0..PENDING).map(|_| xorshift(&mut x) % 1_000_000).collect()
    };
    let load = |s: &mut Scheduler<Event>| {
        for (i, &t) in seeds.iter().enumerate() {
            s.at(SimTime::from_micros(t), Event::Arrival(i as u64));
        }
    };
    b.run("scheduler_construct/fresh_new", || {
        let mut s: Scheduler<Event> = Scheduler::new();
        load(&mut s);
        black_box(s.pending())
    });
    let mut pooled: Scheduler<Event> = Scheduler::new();
    b.run("scheduler_construct/pooled_reset", || {
        pooled.reset();
        load(&mut pooled);
        black_box(pooled.pending())
    });
}

// ---------------------------------------------------------------------
// Event queue churn: sorted vector vs binary heap
// ---------------------------------------------------------------------

/// Events each churn iteration reschedules once its queue is full.
const CHURN_EVENTS: u64 = 16_384;

/// The next hold-model delay: 1 µs to 10 ms, uniform.
fn churn_delay(rng: &mut u64) -> u64 {
    1 + xorshift(rng) % 10_000
}

/// The hold model: every event reschedules itself a pseudo-random delay
/// ahead until the budget runs out, so the pending count stays at its
/// initial population and then drains.
struct Churn {
    rng: u64,
    left: u64,
}

impl World for Churn {
    type Event = Event;
    fn handle(&mut self, _t: SimTime, ev: Event, sched: &mut Scheduler<Event>) {
        if self.left > 0 {
            self.left -= 1;
            let d = churn_delay(&mut self.rng);
            sched.after(ffs_sim::SimDuration::from_micros(d), ev);
        }
    }
}

/// A fallback-queue entry: earliest `(time, insertion-seq)` on top of a
/// `BinaryHeap`, the event stored inline as the scheduler stores it.
struct HeapEntry {
    at: u64,
    seq: u64,
    ev: Event,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A bare event queue for the hold model: push at a time, pop the
/// earliest (ties in push order).
trait HoldQueue: Default {
    fn push(&mut self, at: u64, ev: Event);
    fn pop(&mut self) -> Option<(u64, Event)>;
}

/// The scheduler's queue without its drain loop: one `Vec` sorted by
/// time (equal times in push order) behind a cursor, inserted into by
/// binary search; taken entries are dropped once they are half the
/// vector.
#[derive(Default)]
struct SortedVec {
    queue: Vec<(u64, Option<Event>)>,
    next: usize,
}

impl HoldQueue for SortedVec {
    fn push(&mut self, at: u64, ev: Event) {
        let slot = self.next + self.queue[self.next..].partition_point(|e| e.0 <= at);
        self.queue.insert(slot, (at, Some(ev)));
    }
    fn pop(&mut self) -> Option<(u64, Event)> {
        let (at, ev) = self.queue.get_mut(self.next)?;
        let popped = (*at, ev.take()?);
        self.next += 1;
        if self.next * 2 >= self.queue.len() {
            self.queue.drain(..self.next);
            self.next = 0;
        }
        Some(popped)
    }
}

/// The fallback: one `BinaryHeap` ordered by `(time, insertion-seq)`,
/// the scheduler's queue before it became a sorted vector.
#[derive(Default)]
struct SeqHeap {
    heap: BinaryHeap<HeapEntry>,
    seq: u64,
}

impl HoldQueue for SeqHeap {
    fn push(&mut self, at: u64, ev: Event) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(HeapEntry { at, seq, ev });
    }
    fn pop(&mut self) -> Option<(u64, Event)> {
        self.heap.pop().map(|e| (e.at, e.ev))
    }
}

/// Runs the hold model on a bare queue: `pending` events, then
/// [`CHURN_EVENTS`] reschedules, then the drain. Returns events popped.
fn hold_churn<Q: HoldQueue>(pending: u64) -> u64 {
    let mut rng = SEED;
    let mut queue = Q::default();
    for i in 0..pending {
        queue.push(churn_delay(&mut rng), Event::Arrival(i));
    }
    let (mut left, mut executed) = (CHURN_EVENTS, 0u64);
    while let Some((at, ev)) = queue.pop() {
        executed += 1;
        if left > 0 {
            left -= 1;
            queue.push(at + churn_delay(&mut rng), ev);
        }
    }
    executed
}

/// The sorted-vector event queue against the binary heap it replaced,
/// churned at a fixed depth: the mean queue length at push on
/// `light_diurnal` (8), the benchmark's maximum (48), `exp_scale`'s
/// maximum at 4,096 GPUs (193) and a deep 1,024. The vector inserts in
/// O(n) moves; the heap in O(log n) sift steps, each a data-dependent
/// branch. `sorted_vec` and `binary_heap` are the bare queues, running
/// the same events in the same order; `scheduler` is the same model
/// through `Scheduler` and `run_until`, which also take batches and
/// merge the (empty) stream. Delays are uniform, so a push lands mid-queue
/// on average; in the repository's workloads it lands with about a
/// quarter of the queue behind it, so this churn moves about twice the
/// entries a real push does. Profiling is off for the group, so no arm
/// pays for spans.
fn bench_event_queue(b: &Bench) {
    let profiled = ffs_telemetry::enabled();
    ffs_telemetry::set_enabled(false);
    let mut sched: Scheduler<Event> = Scheduler::new();
    for pending in [8u64, 48, 193, 1_024] {
        b.run(&format!("event_queue_churn/sorted_vec_{pending}"), || {
            black_box(hold_churn::<SortedVec>(pending))
        });
        b.run(&format!("event_queue_churn/binary_heap_{pending}"), || {
            black_box(hold_churn::<SeqHeap>(pending))
        });
        b.run(&format!("event_queue_churn/scheduler_{pending}"), || {
            sched.reset();
            let mut world = Churn {
                rng: SEED,
                left: CHURN_EVENTS,
            };
            for i in 0..pending {
                let at = SimTime::from_micros(churn_delay(&mut world.rng));
                sched.at(at, Event::Arrival(i));
            }
            run_until(&mut world, &mut sched, SimTime::MAX);
            black_box(sched.executed())
        });
    }
    ffs_telemetry::set_enabled(profiled);
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
fn bench_soa_scan(b: &Bench) {
    const FLEET: u64 = 256;
    let slab = scan_slab(FLEET);
    let slo_ms = 100.0;
    b.run("routing_scan_256_instances/soa_columns", || {
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
    });
    b.run("routing_scan_256_instances/slab_records", || {
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
    });
}

// ---------------------------------------------------------------------
// Incremental routing index vs full admission scan
// ---------------------------------------------------------------------

/// The routing lookup on the maintained per-function candidate index
/// against the full filter-scan it replaced. `scan_slab` parks a third of
/// the fleet at its admission bound, so the index holds ~2/3 of the
/// instances; the full scan still reads the phase/occupancy/cap columns
/// of all of them.
fn bench_route_index(b: &Bench) {
    const FLEET: u64 = 256;
    let slab = scan_slab(FLEET);
    b.run("route_lookup_256_instances/incremental_index", || {
        let mut best: Option<(u32, f64)> = None;
        for &idx in slab.admissible_of(0) {
            let lat = slab.latency_ms_of(InstanceId(u64::from(idx)));
            if best.is_none_or(|(_, b)| lat < b) {
                best = Some((idx, lat));
            }
        }
        black_box(best)
    });
    b.run("route_lookup_256_instances/full_scan", || {
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
    });
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
fn bench_overflow_view(b: &Bench) {
    for fleet in [4u64, 64] {
        let slab = scan_slab(fleet);
        let ids: Vec<InstanceId> = (0..fleet).map(InstanceId).collect();
        b.run(&format!("overflow_view/scan_{fleet}_ready_x1000"), || {
            for _ in 0..VIEWS_PER_ITER {
                black_box(exclusive_view_scan(&slab, black_box(&ids)));
            }
        });
        b.run(
            &format!("overflow_view/summary_{fleet}_ready_x1000"),
            || {
                for _ in 0..VIEWS_PER_ITER {
                    black_box(slab.exclusive_view(black_box(0)));
                }
            },
        );
    }
}

// ---------------------------------------------------------------------
// Latency percentiles: selection vs full sort
// ---------------------------------------------------------------------

/// A run-sized latency CDF (~200k completions, 1 µs … ~100 s) asked for
/// its p50 and p99, as every run summary does: by two k-th-order
/// selections on the unsorted keys, against a full sort first (what
/// `fraction_below` or `curve` triggers, and what every percentile cost
/// before selection). Each iteration builds from a fresh copy.
fn bench_latency_cdf(b: &Bench) {
    const SAMPLES: usize = 200_000;
    let mut rng = SEED;
    let micros: Vec<u64> = (0..SAMPLES)
        .map(|_| 1 + xorshift(&mut rng) % 100_000_000)
        .collect();
    b.run("latency_cdf/select_p50_p99", || {
        let cdf = LatencyCdf::from_micros(micros.clone());
        black_box((cdf.p50(), cdf.p99()))
    });
    b.run("latency_cdf/sort_p50_p99", || {
        let cdf = LatencyCdf::from_micros(micros.clone());
        black_box(cdf.fraction_below(0.0));
        black_box((cdf.p50(), cdf.p99()))
    });
}

// ---------------------------------------------------------------------
// Arrival ingest: preloaded stream vs pushes through the queue
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

/// A sorted trace's arrivals loaded through the sorted bulk path
/// (`preload_sorted`, whose stream the drain merges with the event queue)
/// and drained. The fallback, pushing the same arrivals one by one with
/// `Scheduler::at`, is no longer timed: each arrival's follow-up lands in
/// front of every arrival still pending and moves them all, so it is
/// quadratic on the sorted-vector queue, and no run takes that path. Its
/// last measured cost is in EXPERIMENTS.md's accelerator ledger.
fn bench_arrival_ingest(b: &Bench) {
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
    b.run("arrival_ingest_250k/preload_sorted", || {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.preload_sorted(arrivals.iter().copied(), |i| i as u32);
        run_until(&mut Ingest { rng: SEED }, &mut s, SimTime::MAX);
        black_box(s.executed())
    });
}

// ---------------------------------------------------------------------
// Log summary over a saturated run's request log
// ---------------------------------------------------------------------

/// What a harness computes from every run's log: SLO hits, completions
/// and the latency CDF's p50/p99, over 250k records of which about two
/// thirds are abandoned (the saturated-backlog shape).
fn bench_log_summary(b: &Bench) {
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
    b.run("log_summary_250k/hits_completed_cdf", || {
        let records = log.records();
        let hits = records.iter().filter(|r| r.slo_hit()).count();
        let completed = records.iter().filter(|r| r.completed.is_some()).count();
        let cdf = LatencyCdf::from_micros(log.latencies_us());
        black_box((hits, completed, cdf.p50(), cdf.p99()))
    });
}

// ---------------------------------------------------------------------
// Plan-cache hit: incremental signature vs recomputed signature
// ---------------------------------------------------------------------

fn bench_plan_cache_hit(b: &Bench) {
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

    b.run("plan_cache_hit/incremental_signature", || {
        let sig = fleet.node_signature(node);
        black_box(cache.plan_with_signature(7, node, true, &profile, sig, || {
            fleet.free_slices(Some(node))
        }))
    });
    b.run("plan_cache_hit/recomputed_signature", || {
        // The pre-incremental hot path: materialize the free-slice
        // list and hash it on every lookup.
        let free = fleet.free_slices(Some(node));
        let sig = slice_signature(&free);
        black_box(cache.plan_with_signature(7, node, true, &profile, sig, || free.clone()))
    });
}

// ---------------------------------------------------------------------
// End-to-end run (all hot-path changes at once)
// ---------------------------------------------------------------------

fn bench_end_to_end(b: &Bench) {
    let trace = AzureTraceConfig::for_workload(WorkloadClass::Light, 60.0, 7).generate();
    b.run("end_to_end/fluidfaas_light_60s", || {
        let cfg = FfsConfig::paper_default(WorkloadClass::Light);
        let policies = paper_policies(&cfg);
        let mut engine = Engine::new(cfg, policies, &trace).expect("valid setup");
        let out = run_platform(&mut engine, &trace);
        black_box(out.log.len())
    });
}

fn main() {
    let b = Bench::from_args();
    bench_scheduler_construct(&b);
    bench_event_queue(&b);
    bench_soa_scan(&b);
    bench_route_index(&b);
    bench_overflow_view(&b);
    bench_plan_cache_hit(&b);
    bench_latency_cdf(&b);
    bench_arrival_ingest(&b);
    bench_log_summary(&b);
    bench_end_to_end(&b);
}
