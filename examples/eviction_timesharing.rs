//! Demonstrate hotness-aware eviction-based time sharing (§5.3): several
//! low-rate functions share one MIG slice through LRU eviction, and the
//! keep-alive state machine of Figure 8 drives their lifecycles.
//!
//! ```sh
//! cargo run --example eviction_timesharing
//! ```

use fluidfaas_repro::fluidfaas::shared::SharedPool;
use fluidfaas_repro::fluidfaas::{KeepAliveState, Transition};
use fluidfaas_repro::mig::fleet::FreeSlice;
use fluidfaas_repro::mig::{GpuId, NodeId, SliceId, SliceProfile};
use fluidfaas_repro::sim::SimTime;

fn main() {
    // --- Figure 8's state machine, step by step ---------------------------
    println!("Figure 8 keep-alive transitions:");
    let mut state = KeepAliveState::Cold;
    let script = [
        (
            Transition::RequestArrived,
            "first request creates a time-sharing instance (1)",
        ),
        (
            Transition::UtilizationHigh,
            "load spike promotes it to exclusive hot (2)",
        ),
        (
            Transition::UtilizationLow,
            "demand drops, back to time sharing (3)",
        ),
        (
            Transition::Evicted,
            "another function needs the slice: evicted to CPU = warm (4)",
        ),
        (
            Transition::RequestArrived,
            "a request reloads it from CPU memory",
        ),
        (Transition::Evicted, "evicted again"),
        (
            Transition::IdleTimeout,
            "10 idle minutes terminate it: cold (5)",
        ),
    ];
    for (t, what) in script {
        let next = state.next(t);
        println!("  {state:?} --[{t:?}]--> {next:?}   ({what})");
        state = next;
    }

    // --- LRU eviction on a shared slice -----------------------------------
    println!("\nShared-slice time sharing (one 2g.20gb slice, three functions):");
    let mut pool = SharedPool::new();
    let slice = FreeSlice {
        node: NodeId(0),
        id: SliceId::new(GpuId(0), 1),
        profile: SliceProfile::G2_20,
    };
    let slot = pool.add_slot(slice, SimTime::ZERO);
    for f in 0..3usize {
        // Each function's monolithic footprint (e.g. ~6 GB) fits the slice.
        let bound = pool.bind(f, 6.0);
        assert_eq!(bound, Some(slot));
    }
    println!("  bound functions: {:?}", pool.slot(slot).bound());

    // Requests arrive round-robin; each non-resident dispatch evicts the
    // LRU resident (strong isolation preserved: one function at a time).
    let mut evictions = 0;
    for (step, f) in [0usize, 1, 0, 2, 1, 0, 2, 2, 1].into_iter().enumerate() {
        let s = pool.slot_mut(slot);
        let action = match s.resident {
            Some(r) if r == f => "hit (model resident)".to_string(),
            Some(r) => {
                evictions += 1;
                format!("evict f{r} -> warm, load f{f}")
            }
            None => format!("cold slot, load f{f}"),
        };
        s.touch_resident(f);
        println!(
            "  step {step}: request for f{f}: {action}; LRU order now {:?}",
            s.lru
        );
    }
    println!("  total evictions: {evictions}");
    println!(
        "\nThe eviction cost is worth paying because occupied slices are active\n\
         only a small fraction of the time (paper Figure 5: 16.1% on average)."
    );
}
