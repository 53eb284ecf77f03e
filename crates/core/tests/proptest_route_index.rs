//! Property test: the slab's incremental routing index is equivalent to a
//! full scan, under arbitrary interleavings of the slab transitions that
//! maintain it (insert, remove, phase transitions, and requests driven
//! through `admit` → `start_stage` → `finish_stage`).
//!
//! The test drives an [`InstanceSlab`] through random operation sequences
//! while keeping its own model of which instance belongs to which
//! function, then after *every* operation re-derives the admissible set
//! from the slab's public accessors and asserts:
//!
//! * `ids_of(f)` holds exactly the model's live instances of `f`, in
//!   ascending id order;
//! * `admissible_of(f)` holds exactly the live, `Ready`,
//!   below-admission-bound instances of `f`, in ascending id order;
//! * the argmin-latency winner over the index equals the winner of the
//!   full filter-scan it replaced (strict `<`, so the lowest id wins
//!   ties — the first-best-by-id contract routing relies on);
//! * the slab's O(1) exclusive-fleet summary (`exclusive_view`) equals
//!   the scan it replaced (`exclusive_view_scan`) over the function's
//!   instances, ascending;
//! * `debug_assert_hot_consistent` passes (record and columns in
//!   lockstep).
//!
//! Latencies are drawn from a tiny set so ties are the common case, and
//! bottleneck times are chosen to give admission caps of 1–3 so
//! admissions actually saturate instances in and out of the index. Two
//! extra ops take the ready instance holding a function's minimum latency
//! or bottleneck out of the ready set (removal, draining), the only
//! mutations that make the summary recompute a minimum.

use proptest::prelude::*;

use ffs_dag::PipelinePartition;
use ffs_mig::{GpuId, NodeId, SliceId, SliceProfile};
use ffs_pipeline::plan::StagePlan;
use ffs_pipeline::{DeploymentPlan, InstanceEstimate};
use ffs_sim::SimTime;
use fluidfaas::instance::{Instance, Phase, StageTimings};
use fluidfaas::platform::events::InstanceId;
use fluidfaas::platform::policy::exclusive_view_scan;
use fluidfaas::platform::slab::{InstanceSlab, PhaseTag};

/// Functions the test spreads instances across.
const FUNCS: usize = 3;
/// SLO handed to `insert`; with bottlenecks of 1.0/1.5/3.0 ms the
/// admission caps come out as 3, 2 and 1.
const SLO_MS: f64 = 3.0;

fn inst(id: u64, func: usize, latency_ms: f64, bottleneck_ms: f64) -> Instance {
    let nodes = vec![ffs_dag::NodeId(0)];
    let plan = DeploymentPlan {
        partition: PipelinePartition::new(vec![nodes.clone()]),
        stages: vec![StagePlan {
            nodes,
            slice: SliceId::new(GpuId(0), 0),
            profile: SliceProfile::G1_10,
            mem_gb: 1.0,
        }],
        cv: 0.0,
    };
    Instance::new(
        InstanceId(id),
        func,
        plan,
        InstanceEstimate {
            latency_ms,
            bottleneck_ms,
            throughput_rps: 1.0,
        },
        StageTimings::zero(1),
        NodeId(0),
        SimTime::ZERO,
        SimTime::ZERO,
    )
}

/// The full-scan reference: filter the model's instances of `f` by the
/// slab's own admissibility predicate, ascending by id.
fn derive_admissible(slab: &InstanceSlab, model: &[(u64, usize)], f: usize) -> Vec<u32> {
    let mut ids: Vec<u32> = model
        .iter()
        .filter(|&&(id, func)| func == f && slab.has_admission_capacity(InstanceId(id)))
        .map(|&(id, _)| id as u32)
        .collect();
    ids.sort_unstable();
    ids
}

/// Argmin latency with strict `<` over the index's candidate list.
fn argmin_index(slab: &InstanceSlab, ids: &[u32]) -> Option<u32> {
    let mut best: Option<(u32, f64)> = None;
    for &id in ids {
        let lat = slab.latency_ms_of(InstanceId(id as u64));
        if best.is_none_or(|(_, b)| lat < b) {
            best = Some((id, lat));
        }
    }
    best.map(|(id, _)| id)
}

/// The scan the index replaced: every instance of `f` ascending by id,
/// admissibility checked inline, argmin latency with strict `<`.
fn argmin_full_scan(slab: &InstanceSlab, model: &[(u64, usize)], f: usize) -> Option<u32> {
    let mut ids: Vec<u64> = model
        .iter()
        .filter(|&&(_, func)| func == f)
        .map(|&(id, _)| id)
        .collect();
    ids.sort_unstable();
    let mut best: Option<(u32, f64)> = None;
    for id in ids {
        if !slab.has_admission_capacity(InstanceId(id)) {
            continue;
        }
        let lat = slab.latency_ms_of(InstanceId(id));
        if best.is_none_or(|(_, b)| lat < b) {
            best = Some((id as u32, lat));
        }
    }
    best.map(|(id, _)| id)
}

/// The live instances of `f`, ascending by id.
fn ids_of(model: &[(u64, usize)], f: usize) -> Vec<InstanceId> {
    let mut ids: Vec<InstanceId> = model
        .iter()
        .filter(|&&(_, func)| func == f)
        .map(|&(id, _)| InstanceId(id))
        .collect();
    ids.sort_unstable();
    ids
}

/// The lowest-id ready instance of `f` holding the minimum of `column`
/// over `f`'s ready instances.
fn min_holder(
    slab: &InstanceSlab,
    model: &[(u64, usize)],
    f: usize,
    column: fn(&InstanceSlab, InstanceId) -> f64,
) -> Option<InstanceId> {
    let mut best: Option<(InstanceId, f64)> = None;
    for id in ids_of(model, f) {
        if slab.phase_tag(id) != PhaseTag::Ready {
            continue;
        }
        let v = column(slab, id);
        if best.is_none_or(|(_, b)| v < b) {
            best = Some((id, v));
        }
    }
    best.map(|(id, _)| id)
}

proptest! {
    /// Index ≡ full scan after every mutation of a random operation
    /// sequence.
    #[test]
    fn index_matches_full_scan(
        ops in proptest::collection::vec((0u8..7, 0usize..64, 0u8..8), 1..96),
    ) {
        let mut slab = InstanceSlab::new();
        // (id, func) of every live instance — the test's own model.
        let mut model: Vec<(u64, usize)> = Vec::new();
        let mut next_id = 0u64;

        for (step, (op, pick, salt)) in ops.into_iter().enumerate() {
            let now = SimTime::from_micros(step as u64);
            match op {
                // Insert a launching instance: never admissible yet.
                0 => {
                    let func = pick % FUNCS;
                    // Few distinct latencies → argmin ties are common.
                    let latency = 1.0 + f64::from(salt % 3);
                    let bottleneck = [1.0, 1.5, 3.0][(salt % 3) as usize];
                    slab.insert(InstanceId(next_id), inst(next_id, func, latency, bottleneck), SLO_MS);
                    model.push((next_id, func));
                    next_id += 1;
                }
                // Remove a live instance (admissible or not).
                1 if !model.is_empty() => {
                    let (id, _) = model.swap_remove(pick % model.len());
                    prop_assert!(slab.remove(&InstanceId(id)).is_some());
                }
                // Phase transition: launching/draining → Ready, or
                // Ready → Draining (the engine's migration path).
                2 if !model.is_empty() => {
                    let (id, _) = model[pick % model.len()];
                    let iid = InstanceId(id);
                    if slab.phase_tag(iid) == PhaseTag::Ready {
                        slab.set_phase(&iid, Phase::Draining);
                    } else {
                        slab.set_phase(&iid, Phase::Ready);
                    }
                }
                // Admission: routing only ever targets admissible
                // instances, so gate exactly as the router does; then kick
                // stage 0 as the engine does (a no-op while it is busy).
                3 if !model.is_empty() => {
                    let (id, _) = model[pick % model.len()];
                    let iid = InstanceId(id);
                    if slab.has_admission_capacity(iid) {
                        prop_assert!(slab.admit(iid, u64::from(salt), now));
                        slab.start_stage(iid, 0, now);
                    }
                }
                // Departure: the executing request finishes its only
                // stage and leaves; the stage is refed from its queue.
                4 if !model.is_empty() => {
                    let (id, _) = model[pick % model.len()];
                    let iid = InstanceId(id);
                    if let Some(req) = slab.get(&iid).unwrap().stage_busy[0] {
                        prop_assert!(slab.finish_stage(iid, 0, req, now).is_some());
                        slab.start_stage(iid, 0, now);
                    }
                }
                // Remove the ready instance holding its function's
                // minimum latency (ties: the lowest id of several holders).
                5 => {
                    if let Some(id) = min_holder(&slab, &model, pick % FUNCS, InstanceSlab::latency_ms_of) {
                        model.retain(|&(m, _)| m != id.0);
                        prop_assert!(slab.remove(&id).is_some());
                    }
                }
                // Drain the ready instance holding its function's minimum
                // bottleneck.
                6 => {
                    if let Some(id) = min_holder(&slab, &model, pick % FUNCS, InstanceSlab::bottleneck_ms_of) {
                        slab.set_phase(&id, Phase::Draining);
                    }
                }
                _ => {}
            }

            // The index must match the full scan after *every* op, not
            // just at the end — a transiently wrong list would route a
            // request before any later op repaired it.
            for f in 0..FUNCS {
                let ids = ids_of(&model, f);
                prop_assert_eq!(
                    slab.ids_of(f),
                    ids.as_slice(),
                    "id list diverged for function {}",
                    f
                );
                let expect = derive_admissible(&slab, &model, f);
                prop_assert_eq!(
                    slab.admissible_of(f),
                    expect.as_slice(),
                    "admissible list diverged for function {}",
                    f
                );
                prop_assert_eq!(
                    argmin_index(&slab, slab.admissible_of(f)),
                    argmin_full_scan(&slab, &model, f),
                    "argmin winner diverged for function {}",
                    f
                );
                prop_assert_eq!(
                    slab.exclusive_view(f),
                    exclusive_view_scan(&slab, &ids),
                    "exclusive-fleet summary diverged for function {}",
                    f
                );
            }
            slab.debug_assert_hot_consistent();
        }
    }
}
