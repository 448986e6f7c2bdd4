//! Minimal `rand` API shim: `rand::random::<T>()` over a thread-local
//! xorshift64* generator.
//!
//! The build image has no access to a cargo registry, so the workspace
//! vendors the external APIs it uses as tiny shims. Not cryptographic.
//! No workspace crate calls it any more; it stays only because the
//! benchmark harness lockfile still lists it.
//!
//! Swap `shims/rand` for the real crates.io `rand` in
//! `[workspace.dependencies]` once the registry is reachable.

use std::cell::Cell;
use std::time::{SystemTime, UNIX_EPOCH};

thread_local! {
    static STATE: Cell<u64> = Cell::new(seed());
}

fn seed() -> u64 {
    let t = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x9E37_79B9_7F4A_7C15);
    // Mix in the address of a thread-local so concurrent threads seeded in
    // the same nanosecond still diverge.
    let local = 0u8;
    let mix = &local as *const u8 as u64;
    splitmix64(t ^ mix.rotate_left(17)) | 1
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn next_u64() -> u64 {
    STATE.with(|s| {
        let mut x = s.get();
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        s.set(x);
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    })
}

/// Types producible by [`random`]. Stand-in for rand's
/// `Standard`-distribution sampling.
pub trait Random {
    fn random() -> Self;
}

impl Random for u64 {
    fn random() -> Self {
        next_u64()
    }
}

impl Random for u32 {
    fn random() -> Self {
        (next_u64() >> 32) as u32
    }
}

impl Random for bool {
    fn random() -> Self {
        next_u64() & 1 == 1
    }
}

impl Random for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn random() -> Self {
        (next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Random for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn random() -> Self {
        (next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// `rand::random()`: sample a value from the thread-local generator.
pub fn random<T: Random>() -> T {
    T::random()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_in_unit_interval() {
        for _ in 0..10_000 {
            let x: f64 = random();
            assert!((0.0..1.0).contains(&x), "{x} out of [0,1)");
        }
    }

    #[test]
    fn not_constant() {
        let a: u64 = random();
        let b: u64 = random();
        assert_ne!(a, b);
    }
}
