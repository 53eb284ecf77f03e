//! Pins the synthesized fleet input of the `fleet1024_sharded` benchmark
//! workload (1024 GPUs, 64 cells, 65,536 tenant functions, 60 s), so a
//! drift in trace synthesis fails here rather than only in downstream
//! run digests.

use ffs_trace::ScaleTraceConfig;

const FUNCTIONS: usize = 65_536;
const CELLS: usize = 64;

fn fleet() -> ScaleTraceConfig {
    ScaleTraceConfig::new(FUNCTIONS, 60.0, 3_072.0, 1)
}

/// Folds one little-endian u64 word into an FNV-1a state.
fn fnv(h: u64, word: u64) -> u64 {
    word.to_le_bytes()
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100000001b3))
}

#[test]
fn fleet_cell_traces_match_the_pinned_digest() {
    let tc = fleet();
    let mut digest: u64 = 0xcbf29ce484222325;
    let mut invocations = 0;
    for cell in 0..CELLS {
        let ct = tc.cell_trace(cell, CELLS);
        invocations += ct.trace.invocations.len();
        for (inv, &global) in ct.trace.invocations.iter().zip(&ct.global_ids) {
            for word in [
                inv.id,
                global,
                inv.arrival.as_micros(),
                inv.app.index() as u64,
            ] {
                digest = fnv(digest, word);
            }
        }
    }
    assert_eq!(
        (invocations, format!("{digest:016x}")),
        (184_321, "ff117f67df79e5c0".to_string()),
        "fleet input drifted"
    );
}

#[test]
fn rates_match_a_freshly_summed_normaliser_bit_for_bit() {
    let tc = fleet();
    assert_eq!(tc.functions(), FUNCTIONS);
    let weight = |f: usize| (1.0 + f as f64).powf(-tc.alpha());
    let total: f64 = (0..tc.functions()).map(weight).sum();
    for f in [0, 1, 63, FUNCTIONS - 1] {
        let want = tc.total_rps * weight(f) / total;
        assert_eq!(tc.rate_of(f).to_bits(), want.to_bits(), "function {f}");
    }
}
