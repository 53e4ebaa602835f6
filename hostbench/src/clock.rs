//! The core clock the host runs the benchmark at, read from a dependency
//! chain of known length.
//!
//! The host steps its core clock in 100 MHz bins (2.6–3.0 GHz were seen)
//! as its other tenants load it, for minutes at a time. Wall time then
//! drifts by up to 15% with no change to the program. The chain below
//! takes a fixed number of core cycles per iteration, so its wall time
//! gives the clock. The end-to-end times are scaled by it to one
//! nominal clock.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of the reference chain: about 0.2 ms at 3 GHz.
const CHAIN_ITERS: u32 = 100_000;

/// Core cycles one iteration takes: three dependent steps, each a shift
/// then an xor of one cycle apiece. On the benchmark's host the chain's
/// fastest times fall on 200.2, 206.9, 214.3, 222.2 and 230.8 µs, the
/// 3.0, 2.9, 2.8, 2.7 and 2.6 GHz bins of this count.
const CYCLES_PER_ITER: f64 = 6.0;

/// The clock end-to-end times are scaled to.
pub const NOMINAL_HZ: f64 = 3.0e9;

/// Times the chain once and returns the core clock it implies, in Hz.
/// Anything that interrupts the chain makes the clock read low, never
/// high.
pub fn core_hz() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15_u64);
    for _ in 0..CHAIN_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    f64::from(CHAIN_ITERS) * CYCLES_PER_ITER / start.elapsed().as_secs_f64()
}

/// The factor that turns wall seconds measured between two clock
/// readings into seconds at [`NOMINAL_HZ`]: the highest reading over
/// [`NOMINAL_HZ`]. The highest is the least disturbed, and a single
/// clock step in between only makes the scaled time read long.
pub fn scale(readings: &[f64]) -> f64 {
    readings.iter().copied().fold(0.0, f64::max) / NOMINAL_HZ
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_takes_the_highest_reading() {
        assert_eq!(scale(&[2.7e9, 3.0e9, 2.6e9]), 1.0);
        assert_eq!(scale(&[1.5e9]), 0.5);
    }

    #[test]
    fn the_chain_runs_and_reads_a_plausible_clock() {
        // An optimized-away chain would read an absurdly high clock.
        let hz = core_hz();
        assert!((1e8..1e10).contains(&hz), "{hz} Hz");
    }
}
