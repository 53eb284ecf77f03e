//! A live multi-threaded pipeline executor mirroring the paper's Listing 1.
//!
//! On real hardware, `FFaaS.run()` spawns one process per MIG slice, wires
//! them with host shared memory plus trigger queues, and loops
//! `_run_inference` in each. This executor reproduces that runtime shape in
//! miniature:
//!
//! * one worker **thread** per stage (standing in for the per-MIG process),
//! * bounded channels carrying tensors between stages (standing in for the
//!   shared-memory regions plus trigger queues),
//! * a per-stage **eviction flag** that makes the worker drop its model and
//!   exit (the `self.eviction[stage]` check in Listing 1), and
//! * graceful termination that drains in-flight requests
//!   (`_terminate_processes`).
//!
//! Each stage applies a deterministic affine transform to its tensor, so a
//! pipelined run is bit-identical to the sequential reference — the
//! integration tests rely on this to prove that splitting a function does
//! not change its output.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a stage's synthetic kernel burns its service time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelMode {
    /// Sleep for the (scaled) service time — cheap, good for tests.
    Sleep,
    /// Spin on real floating-point work for the (scaled) service time —
    /// keeps a core busy like a real inference would keep a GPC busy.
    Compute,
}

/// Static description of one pipeline stage.
#[derive(Clone, Debug)]
pub struct StageSpec {
    /// Stage name (for timings and debugging).
    pub name: String,
    /// Service time per request, in milliseconds (already scaled to the
    /// stage's slice by the caller).
    pub service_ms: f64,
    /// Affine transform applied to every tensor element: `x * scale + bias`.
    /// This is the stage's stand-in "model".
    pub scale: f32,
    /// See `scale`.
    pub bias: f32,
}

impl StageSpec {
    /// Creates a stage spec.
    pub fn new(name: impl Into<String>, service_ms: f64, scale: f32, bias: f32) -> Self {
        StageSpec {
            name: name.into(),
            service_ms,
            scale,
            bias,
        }
    }
}

/// Per-request timing collected by the executor.
#[derive(Clone, Debug)]
pub struct RequestTiming {
    /// The caller-assigned request id.
    pub request_id: u64,
    /// Wall-clock time from submit to completion.
    pub total: Duration,
    /// Time spent inside each stage's kernel.
    pub stage_service: Vec<Duration>,
}

/// Aggregate statistics over a set of request timings.
#[derive(Clone, Debug)]
pub struct ExecutorStats {
    /// Requests measured.
    pub count: usize,
    /// Mean end-to-end latency (ms).
    pub mean_ms: f64,
    /// P95 end-to-end latency estimate (ms).
    pub p95_ms: Option<f64>,
    /// Mean per-stage service time (ms), by stage index.
    pub stage_mean_ms: Vec<f64>,
}

impl ExecutorStats {
    /// Summarises request timings.
    pub fn from_timings(timings: &[RequestTiming]) -> Self {
        let mut hist = ffs_metrics::LogHistogram::for_latency_ms();
        let stages = timings
            .iter()
            .map(|t| t.stage_service.len())
            .max()
            .unwrap_or(0);
        let mut stage_sums = vec![0.0f64; stages];
        let mut stage_counts = vec![0usize; stages];
        for t in timings {
            hist.record(t.total.as_secs_f64() * 1e3);
            for (i, d) in t.stage_service.iter().enumerate() {
                stage_sums[i] += d.as_secs_f64() * 1e3;
                stage_counts[i] += 1;
            }
        }
        ExecutorStats {
            count: timings.len(),
            mean_ms: hist.mean(),
            p95_ms: hist.percentile(0.95),
            stage_mean_ms: stage_sums
                .iter()
                .zip(&stage_counts)
                .map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
                .collect(),
        }
    }
}

/// Errors from the executor.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecutorError {
    /// The executor has been shut down (or a stage was evicted).
    Terminated,
}

impl std::fmt::Display for ExecutorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecutorError::Terminated => write!(f, "pipeline executor terminated"),
        }
    }
}

impl std::error::Error for ExecutorError {}

struct Envelope {
    request_id: u64,
    tensor: Vec<f32>,
    submitted: Instant,
    stage_service: Vec<Duration>,
}

/// A running pipeline: worker threads connected by bounded channels.
pub struct PipelineExecutor {
    specs: Vec<StageSpec>,
    input: Option<SyncSender<Envelope>>,
    output: Receiver<Envelope>,
    eviction: Vec<Arc<AtomicBool>>,
    workers: Vec<JoinHandle<()>>,
    timings: Mutex<Vec<RequestTiming>>,
    time_scale: f64,
    /// When the executor was spawned; trace timestamps for this live
    /// (wall-clock) runtime are microseconds since this instant.
    spawned: Instant,
}

impl PipelineExecutor {
    /// Spawns the pipeline.
    ///
    /// `time_scale` multiplies every stage's service time (use a small
    /// value, e.g. `0.01`, to run paper-scale pipelines in test time).
    /// `queue_cap` bounds each inter-stage queue, providing backpressure
    /// like the paper's job queues.
    pub fn spawn(
        specs: Vec<StageSpec>,
        mode: KernelMode,
        time_scale: f64,
        queue_cap: usize,
    ) -> Self {
        assert!(!specs.is_empty(), "a pipeline needs at least one stage");
        assert!(time_scale > 0.0);
        assert!(queue_cap >= 1);

        let n = specs.len();
        let eviction: Vec<Arc<AtomicBool>> =
            (0..n).map(|_| Arc::new(AtomicBool::new(false))).collect();

        // Channel k feeds stage k; channel n is the completion queue. Each
        // stage owns its receiver and the sender of the next channel, so a
        // stage that exits closes its downstream channel and the closure
        // cascades to the completion queue.
        let (input, mut rx) = sync_channel::<Envelope>(queue_cap);
        let mut workers = Vec::with_capacity(n);
        for (i, spec) in specs.iter().enumerate() {
            let (tx, next_rx) = sync_channel::<Envelope>(queue_cap);
            let rx = std::mem::replace(&mut rx, next_rx);
            let evict = Arc::clone(&eviction[i]);
            let spec = spec.clone();
            let service = Duration::from_secs_f64(spec.service_ms / 1_000.0 * time_scale);
            workers.push(std::thread::spawn(move || {
                // The stage's "model": loaded once, dropped on eviction —
                // mirrors `_load_models` / `model.cpu(); del model`.
                let mut model: Option<(f32, f32)> = Some((spec.scale, spec.bias));
                // `_run_inference`: read from shared memory, infer, write
                // to the next stage's shared memory, signal its queue.
                while let Ok(mut env) = rx.recv() {
                    if evict.load(Ordering::Acquire) {
                        model = None;
                    }
                    let Some((scale, bias)) = model else {
                        // Evicted mid-stream: drop remaining work. The
                        // invoker only evicts idle instances, so in-flight
                        // loss is a test-only scenario.
                        break;
                    };
                    let start = Instant::now();
                    match mode {
                        KernelMode::Sleep => {
                            if !service.is_zero() {
                                std::thread::sleep(service);
                            }
                        }
                        KernelMode::Compute => {
                            let deadline = start + service;
                            let mut acc = 1.000_000_1_f64;
                            while Instant::now() < deadline {
                                for _ in 0..1_000 {
                                    acc = acc * 1.000_000_3 + 1e-9;
                                }
                                std::hint::black_box(acc);
                            }
                        }
                    }
                    for x in &mut env.tensor {
                        *x = *x * scale + bias;
                    }
                    env.stage_service.push(start.elapsed());
                    if tx.send(env).is_err() {
                        break;
                    }
                }
                // Channel closed: clean exit (`_terminate_processes`).
            }));
        }

        PipelineExecutor {
            specs,
            input: Some(input),
            output: rx,
            eviction,
            workers,
            timings: Mutex::new(Vec::new()),
            time_scale,
            spawned: Instant::now(),
        }
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.specs.len()
    }

    /// The configured time scale.
    pub fn time_scale(&self) -> f64 {
        self.time_scale
    }

    /// Submits a request tensor; blocks if the first stage's queue is full
    /// (backpressure).
    ///
    /// Total in-flight capacity is `stages * (queue_cap + 1) + queue_cap`
    /// (per-stage queues plus in-service slots plus the completion queue).
    /// A producer that submits more than that without concurrently calling
    /// [`PipelineExecutor::recv`] will block until a consumer drains
    /// completions — the same backpressure a real invoker applies.
    pub fn submit(&self, request_id: u64, tensor: Vec<f32>) -> Result<(), ExecutorError> {
        ffs_obs::record_at(self.spawned.elapsed().as_micros() as u64, || {
            ffs_obs::ObsEvent::ExecutorSubmit { req: request_id }
        });
        let env = Envelope {
            request_id,
            tensor,
            submitted: Instant::now(),
            stage_service: Vec::with_capacity(self.specs.len()),
        };
        self.input
            .as_ref()
            .ok_or(ExecutorError::Terminated)?
            .send(env)
            .map_err(|_| ExecutorError::Terminated)
    }

    /// Receives the next completed request (in completion order), recording
    /// its timing.
    pub fn recv(&self) -> Result<(u64, Vec<f32>), ExecutorError> {
        let env = self.output.recv().map_err(|_| ExecutorError::Terminated)?;
        let timing = RequestTiming {
            request_id: env.request_id,
            total: env.submitted.elapsed(),
            stage_service: env.stage_service,
        };
        ffs_obs::record_at(self.spawned.elapsed().as_micros() as u64, || {
            ffs_obs::ObsEvent::ExecutorComplete {
                req: timing.request_id,
                total_ms: timing.total.as_secs_f64() * 1e3,
            }
        });
        self.timings_mut().push(timing);
        Ok((env.request_id, env.tensor))
    }

    /// The timings log. Only the owning thread touches it, so the lock is
    /// never contended; a poisoned lock still holds a valid log.
    fn timings_mut(&self) -> MutexGuard<'_, Vec<RequestTiming>> {
        self.timings.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Raises the eviction flag of one stage (Listing 1's
    /// `self.eviction[stage] = True`). The stage drops its model when it
    /// next looks at the flag.
    pub fn evict_stage(&self, stage: usize) {
        self.eviction[stage].store(true, Ordering::Release);
    }

    /// The reference (sequential) output for an input tensor: what the
    /// un-pipelined function would produce.
    pub fn reference_output(&self, mut tensor: Vec<f32>) -> Vec<f32> {
        for spec in &self.specs {
            for x in &mut tensor {
                *x = *x * spec.scale + spec.bias;
            }
        }
        tensor
    }

    /// Timings of all requests received so far.
    pub fn timings(&self) -> Vec<RequestTiming> {
        self.timings_mut().clone()
    }

    /// Shuts the pipeline down, draining in-flight requests, and joins the
    /// workers.
    pub fn shutdown(mut self) -> Vec<RequestTiming> {
        self.input = None; // close the first channel; closure cascades
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        std::mem::take(&mut *self.timings_mut())
    }
}

impl Drop for PipelineExecutor {
    fn drop(&mut self) {
        self.input = None;
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs3() -> Vec<StageSpec> {
        vec![
            StageSpec::new("sr", 90.0, 2.0, 1.0),
            StageSpec::new("seg", 70.0, 0.5, -1.0),
            StageSpec::new("cls", 30.0, 3.0, 0.0),
        ]
    }

    #[test]
    fn pipeline_output_matches_sequential_reference() {
        let ex = PipelineExecutor::spawn(specs3(), KernelMode::Sleep, 0.001, 4);
        let input = vec![1.0_f32, -2.0, 0.5, 7.25];
        let expected = ex.reference_output(input.clone());
        ex.submit(1, input).unwrap();
        let (id, out) = ex.recv().unwrap();
        assert_eq!(id, 1);
        assert_eq!(out, expected);
        ex.shutdown();
    }

    #[test]
    fn many_requests_complete_in_order_through_fifo_stages() {
        // queue_cap 8 gives 3*(8+1)+8 = 35 in-flight slots, comfortably
        // above the 20 requests submitted before any recv (submitting past
        // capacity without a consumer would deadlock by design).
        let ex = PipelineExecutor::spawn(specs3(), KernelMode::Sleep, 0.0001, 8);
        for i in 0..20 {
            ex.submit(i, vec![i as f32]).unwrap();
        }
        let mut ids = Vec::new();
        for _ in 0..20 {
            let (id, _) = ex.recv().unwrap();
            ids.push(id);
        }
        assert_eq!(ids, (0..20).collect::<Vec<_>>());
        let timings = ex.shutdown();
        assert_eq!(timings.len(), 20);
        assert!(timings.iter().all(|t| t.stage_service.len() == 3));
    }

    #[test]
    fn pipelining_overlaps_stages() {
        // With 3 stages of ~30 ms (scaled), 6 requests take ~(6+2)*30 ms
        // pipelined vs ~6*90 ms sequentially. Assert we beat 70% of
        // sequential — loose enough for CI noise.
        let specs: Vec<StageSpec> = (0..3)
            .map(|i| StageSpec::new(format!("s{i}"), 30.0, 1.0, 1.0))
            .collect();
        let ex = PipelineExecutor::spawn(specs, KernelMode::Sleep, 1.0, 4);
        let start = Instant::now();
        for i in 0..6 {
            ex.submit(i, vec![0.0]).unwrap();
        }
        for _ in 0..6 {
            ex.recv().unwrap();
        }
        let elapsed = start.elapsed();
        ex.shutdown();
        let sequential = Duration::from_millis(6 * 90);
        assert!(
            elapsed < sequential.mul_f64(0.7),
            "pipelined {elapsed:?} vs sequential {sequential:?}"
        );
    }

    #[test]
    fn compute_kernel_busy_spins_for_service_time() {
        let specs = vec![StageSpec::new("k", 20.0, 1.0, 0.0)];
        let ex = PipelineExecutor::spawn(specs, KernelMode::Compute, 1.0, 2);
        ex.submit(0, vec![1.0]).unwrap();
        ex.recv().unwrap();
        let timings = ex.shutdown();
        assert!(timings[0].stage_service[0] >= Duration::from_millis(19));
    }

    #[test]
    fn eviction_stops_a_stage() {
        let ex = PipelineExecutor::spawn(specs3(), KernelMode::Sleep, 0.0001, 4);
        ex.submit(1, vec![1.0]).unwrap();
        ex.recv().unwrap();
        ex.evict_stage(1);
        // The evicted stage drops its model on the next request; the
        // request never completes and the pipeline winds down.
        ex.submit(2, vec![1.0]).unwrap();
        let res = ex.recv();
        assert_eq!(res, Err(ExecutorError::Terminated));
    }

    #[test]
    fn shutdown_drains_in_flight_requests() {
        let ex = PipelineExecutor::spawn(specs3(), KernelMode::Sleep, 0.001, 8);
        for i in 0..5 {
            ex.submit(i, vec![i as f32]).unwrap();
        }
        for _ in 0..5 {
            ex.recv().unwrap();
        }
        let timings = ex.shutdown();
        assert_eq!(timings.len(), 5);
    }

    #[test]
    fn stats_summarise_timings() {
        let ex = PipelineExecutor::spawn(specs3(), KernelMode::Sleep, 0.05, 4);
        for i in 0..10 {
            ex.submit(i, vec![1.0]).unwrap();
        }
        for _ in 0..10 {
            ex.recv().unwrap();
        }
        let timings = ex.shutdown();
        let stats = ExecutorStats::from_timings(&timings);
        assert_eq!(stats.count, 10);
        assert!(stats.mean_ms > 0.0);
        assert!(stats.p95_ms.unwrap() >= stats.mean_ms * 0.5);
        assert_eq!(stats.stage_mean_ms.len(), 3);
        // sr (90 ms * 0.05 scale) is the slowest stage.
        assert!(stats.stage_mean_ms[0] > stats.stage_mean_ms[2]);
    }

    #[test]
    fn submit_after_shutdown_fails() {
        let ex = PipelineExecutor::spawn(specs3(), KernelMode::Sleep, 0.001, 2);
        let timings = ex.shutdown();
        assert!(timings.is_empty());
    }
}
