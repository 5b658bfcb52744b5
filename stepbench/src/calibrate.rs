//! Same-invocation machine-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed drifts by tens of
//! percent over minutes, in step across every workload. Raw wall-clock
//! figures of two sets of runs then disagree by more than any useful
//! bound. So every end-to-end time is scaled to a reference machine
//! speed: a fixed kernel suite is timed before the set-up and before
//! every rep, and each time is multiplied by
//! `REFERENCE_S / median(suite time)`. The suite is this package's own
//! code and calls nothing of the program under test, so a change to the
//! program moves the scaled figures exactly as it would move raw ones on
//! a steady machine.

use crate::median;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Median suite time on the machine the benchmark was sized on (a
/// 2-vCPU Intel Xeon VM). Scaled figures read as raw ones would on that
/// machine at that speed.
pub const REFERENCE_S: f64 = 0.025;

/// 4 MiB of table: larger than the per-core caches, so the random and
/// sequential kernels reach the shared cache.
const TABLE_WORDS: usize = 1 << 19;

/// The kernels' table. A static, so the suite never allocates: heap
/// frees would move the allocator's thresholds under the program being
/// measured. Its pages stay resident, a constant 4 MiB of every peak.
/// Relaxed atomics compile to plain loads and stores.
static TABLE: [AtomicU64; TABLE_WORDS] = [const { AtomicU64::new(0) }; TABLE_WORDS];

fn next(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn timed(kernel: impl FnOnce() -> u64) -> f64 {
    let start = Instant::now();
    black_box(kernel());
    start.elapsed().as_secs_f64()
}

/// One run of the suite: the geometric mean of the seconds an integer
/// mixing loop, random read-modify-writes over a 4 MiB table and
/// sequential passes over it take.
fn suite_seconds() -> f64 {
    let mut state = 1;
    let mix = timed(|| (0..16_000_000).fold(0, |acc: u64, _| acc ^ next(&mut state)));
    let random = timed(|| {
        for _ in 0..8_000_000 {
            let word = &TABLE[next(&mut state) as usize % TABLE_WORDS];
            word.store(word.load(Relaxed).wrapping_add(state), Relaxed);
        }
        TABLE[0].load(Relaxed)
    });
    let sequential = timed(|| {
        (0..64)
            .fold(0, |acc: u64, _| TABLE.iter().fold(acc, |a, w| a.wrapping_add(w.load(Relaxed))))
    });
    (mix * random * sequential).cbrt()
}

/// Suite times collected over one invocation.
#[derive(Debug, Default)]
pub struct Calibration {
    samples: Vec<f64>,
}

impl Calibration {
    /// Runs the suite once more.
    pub fn sample(&mut self) {
        self.samples.push(suite_seconds());
    }

    /// `REFERENCE_S / median(suite time)`: multiply a time by it, or
    /// divide a rate by it, to express it at the reference speed.
    pub fn factor(&self) -> f64 {
        REFERENCE_S / median(&self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_scales_to_the_reference() {
        let mut c = Calibration::default();
        c.sample();
        assert!(c.factor() > 0.0 && c.factor().is_finite());
        let c = Calibration { samples: vec![0.1, 0.2, 0.4] };
        assert_eq!(c.factor(), REFERENCE_S / 0.2);
    }
}
