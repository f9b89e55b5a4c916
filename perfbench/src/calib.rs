//! Host-speed calibration.
//!
//! The reference host is a shared 2-vCPU VM whose speed drifts by a
//! fifth or more over minutes, and the drift moves every kind of work
//! alike. Timing a fixed kernel that shares no code with the program
//! right after each pass measures the host's speed at that moment.
//! Dividing it out reports host-clock metrics in seconds of the
//! reference host at its nominal speed. A change to the program cannot
//! move the kernel, so it cannot hide in the scale.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Median wall time of [`calibrate`] on the reference host (2-vCPU
/// Intel Xeon VM at 2.0 GHz), measured when the benchmark was defined.
pub const REFERENCE_S: f64 = 0.007_5;

/// Fixed work in the simulator's mix: a fresh allocation, FNV hashing
/// over it, and hash-map inserts. One thread: the kernel tracked the
/// passes' speed better than a two-thread version, whose thread
/// start-up added noise of its own.
fn kernel() -> u64 {
    let bytes: Vec<u8> = (0..200_000u32).map(|i| (i * 31 % 251) as u8).collect();
    let mut seen = HashMap::new();
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for round in 0..4u64 {
        for &b in &bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            if hash.is_multiple_of(7) {
                seen.insert(hash % 4096, round);
            }
        }
    }
    hash ^ seen.len() as u64
}

/// How much slower than nominal the host runs right now (above 1 when
/// slow): one timed run of the kernel over [`REFERENCE_S`].
pub fn slowdown() -> f64 {
    let start = Instant::now();
    black_box(kernel());
    start.elapsed().as_secs_f64() / REFERENCE_S
}
