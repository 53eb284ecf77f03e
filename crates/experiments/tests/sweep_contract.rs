//! The full paper sweep's behaviour contract: `exp_all` at its defaults
//! (300 s traces, seed 1), on one worker thread and with the phase
//! profiler off, executes exactly [`EVENTS`] events and prints exactly
//! the stdout whose FNV-1a hash is [`STDOUT_FNV1A`]. A change that moves
//! one event or one printed digit anywhere in the sweep fails here.
//!
//! Runs the built `exp_all` binary in a scratch directory (it writes its
//! `BENCH_harness.json` and telemetry files to the working directory),
//! with every `FFS_*` knob cleared first.

use std::process::Command;

/// Events the sequential 300 s sweep executes (76 runs, seed 1).
const EVENTS: u64 = 3_233_261;

/// FNV-1a (64-bit) of the sweep's stdout, thread-count banner included.
const STDOUT_FNV1A: u64 = 0xdc4e_a59c_05ba_1cd4;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The count in `exp_all`'s `harness: N events executed (...)` line.
fn executed_events(stderr: &str) -> Option<u64> {
    stderr.lines().find_map(|line| {
        let rest = line.strip_prefix("harness: ")?;
        let (n, tail) = rest.split_once(' ')?;
        tail.starts_with("events executed")
            .then(|| n.parse().ok())?
    })
}

#[test]
fn sequential_sweep_keeps_its_event_count_and_stdout() {
    let dir = std::env::temp_dir().join(format!("ffs-sweep-contract-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_exp_all"));
    cmd.current_dir(&dir);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("FFS_") {
            cmd.env_remove(key);
        }
    }
    let out = cmd
        .env("FFS_EXP_THREADS", "1")
        .env("FFS_TELEMETRY", "0")
        .output()
        .expect("exp_all starts");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exp_all failed:\n{stderr}");
    assert_eq!(
        executed_events(&stderr),
        Some(EVENTS),
        "event count moved; stderr:\n{stderr}"
    );
    let hash = fnv1a(&out.stdout);
    assert_eq!(
        hash,
        STDOUT_FNV1A,
        "stdout hash {hash:016x}, want {STDOUT_FNV1A:016x}; stdout:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
