//! Seed-stable per-process randomness.
//!
//! Experiment tables must be reproducible run-to-run even though OS
//! threads interleave nondeterministically, so every process draws from
//! its own stream derived from `(experiment seed, pid)`: stream `pid` of a
//! ChaCha8 stream cipher seeded with `seed`. ChaCha8 is seed-portable
//! across platforms (unlike `StdRng`, whose algorithm is unspecified);
//! every committed number and pinned step total was produced by it, and
//! its draw schedule is pinned bit-for-bit by the draws-per-step goldens.

use rand::rngs::ChaCha8Rng;
use rand::{RngExt, SeedableRng};

/// A fieldless marker for the one process RNG, ChaCha8.
///
/// It exists only because the standalone `stepbench` package names
/// `RngMode::default()` and passes it to
/// `TightRenaming::instantiate_shared_rng`; the next change to that
/// benchmark removes both. `non_exhaustive` keeps `default()` the one
/// way to spell it outside this crate, as `stepbench` does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub struct RngMode;

/// SplitMix64 finalizer (Steele, Lea, Flood 2014) — the same mixer the
/// vendored `SeedableRng::seed_from_u64` expands seeds with. Public for
/// callers that need one cheap well-mixed word from a seed (e.g. a
/// corpus pick) without standing up a whole cipher.
#[inline]
#[must_use]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A process-private random stream.
///
/// Fixes the derivation scheme — stream `pid` of seed `seed` — and
/// centralizes the operations the renaming algorithms need (a uniform
/// index draw and a fair coin), so the announced-intent machinery can
/// log exactly the values drawn.
///
/// The pid is stored once, as the ChaCha8 stream id. A stream is 88
/// bytes and owns no heap memory, so a run's processes can hold theirs
/// inline.
#[derive(Debug)]
pub struct ProcessRng {
    rng: ChaCha8Rng,
}

impl ProcessRng {
    /// Stream for process `pid` under experiment `seed`.
    ///
    /// # Panics
    /// Panics if `pid` does not fit in 32 bits (the ChaCha8 stream word).
    pub fn new(seed: u64, pid: usize) -> Self {
        let pid = u32::try_from(pid)
            .unwrap_or_else(|_| panic!("pid {pid} does not fit in the 32-bit stream id"));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        rng.set_stream(u64::from(pid));
        Self { rng }
    }

    /// The owning process id.
    #[inline]
    pub fn pid(&self) -> usize {
        self.rng.get_stream() as usize
    }

    /// Uniform draw from `[0, bound)`: one 64-bit draw (two cipher
    /// words), redrawn on the biased tail.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    pub fn index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "cannot draw from an empty range");
        self.rng.random_range(0..bound)
    }

    /// Fair coin. Spends one 32-bit cipher word per flip (the historical
    /// schedule, kept bit-identical).
    #[inline]
    pub fn coin(&mut self) -> bool {
        self.rng.random()
    }

    /// 32-bit cipher words drawn so far — the draw-schedule fingerprint
    /// the goldens pin.
    pub fn words_drawn(&self) -> u64 {
        self.rng.words_consumed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_is_deterministic() {
        let mut a = ProcessRng::new(42, 7);
        let mut b = ProcessRng::new(42, 7);
        for _ in 0..100 {
            assert_eq!(a.index(1000), b.index(1000));
        }
    }

    #[test]
    fn different_pids_get_different_streams() {
        let mut a = ProcessRng::new(42, 0);
        let mut b = ProcessRng::new(42, 1);
        let draws_a: Vec<_> = (0..32).map(|_| a.index(1 << 30)).collect();
        let draws_b: Vec<_> = (0..32).map(|_| b.index(1 << 30)).collect();
        assert_ne!(draws_a, draws_b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = ProcessRng::new(1, 0);
        let mut b = ProcessRng::new(2, 0);
        let draws_a: Vec<_> = (0..32).map(|_| a.index(1 << 30)).collect();
        let draws_b: Vec<_> = (0..32).map(|_| b.index(1 << 30)).collect();
        assert_ne!(draws_a, draws_b);
    }

    #[test]
    fn index_respects_bound() {
        let mut r = ProcessRng::new(0, 0);
        for bound in [1usize, 2, 3, 17, 1000] {
            for _ in 0..200 {
                assert!(r.index(bound) < bound);
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn zero_bound_panics() {
        ProcessRng::new(0, 0).index(0);
    }

    #[test]
    fn coin_is_roughly_fair() {
        let mut r = ProcessRng::new(123, 0);
        let heads = (0..10_000).filter(|_| r.coin()).count();
        assert!((4000..6000).contains(&heads), "suspicious coin: {heads}/10000 heads");
    }

    #[test]
    fn pid_accessor() {
        for pid in [0, 9, u32::MAX as usize] {
            assert_eq!(ProcessRng::new(0, pid).pid(), pid);
        }
    }

    #[test]
    #[should_panic(expected = "pid 4294967296 does not fit in the 32-bit stream id")]
    fn pid_beyond_u32_is_rejected() {
        ProcessRng::new(0, u32::MAX as usize + 1);
    }

    /// Layout guard: a tight process holds its stream inline and must
    /// stay within two cache lines; past 96 B the stream would push it to
    /// three, half again the resident memory of every tight run. The
    /// bound is the stream's current size, so any growth is deliberate.
    #[test]
    fn stream_is_compact_and_owns_no_heap() {
        assert!(std::mem::size_of::<ProcessRng>() <= 88, "{}", std::mem::size_of::<ProcessRng>());
        assert!(!std::mem::needs_drop::<ProcessRng>());
    }

    #[test]
    fn default_mode_draw_schedule_is_pinned() {
        // The exact words every committed run drew: one 64-bit
        // range draw = two cipher words, one coin = one cipher word.
        // Any change to these counts breaks bit-compatibility with
        // every committed experiment table.
        let mut r = ProcessRng::new(7, 3);
        assert_eq!(r.words_drawn(), 0);
        r.index(1000);
        assert_eq!(r.words_drawn(), 2, "one non-rejected index draw = one u64 = two words");
        r.coin();
        assert_eq!(r.words_drawn(), 3, "one coin = one full 32-bit word (historical waste)");
        let again = ProcessRng::new(7, 3).index(1000);
        assert_eq!(again, ProcessRng::new(7, 3).index(1000));
    }
}
