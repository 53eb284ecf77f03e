//! Pins the merged-output digests of the sharded scale sweep (60 s
//! traces, seed 1, `gpus * 64` tenant functions) on 1 and 2 lanes. Lanes
//! agreeing with each other does not catch a bug that gives the same wrong
//! output at every lane count; these known values do.

use ffs_experiments::scale::run_point;

fn assert_digest(gpus: usize, want: u64) {
    let rows = run_point(gpus, gpus * 64, 60.0, 1, &[1, 2]);
    assert_eq!(rows.len(), 2);
    for row in &rows {
        assert_eq!(
            row.digest, want,
            "{gpus} GPUs on {} lanes: digest {:016x}, want {want:016x}",
            row.lanes, row.digest
        );
    }
}

#[test]
fn fleet_16_gpus() {
    assert_digest(16, 0x12d8f068a7bf4275);
}

#[test]
fn fleet_256_gpus() {
    assert_digest(256, 0xc71584abb1bff33f);
}

#[test]
fn fleet_1024_gpus() {
    assert_digest(1024, 0x463ae97fcb10e72d);
}
