//! Seed-stable per-process randomness.
//!
//! Experiment tables must be reproducible run-to-run even though OS
//! threads interleave nondeterministically, so every process draws from
//! its own stream derived from `(experiment seed, pid)`. Two backends
//! exist, selected by [`RngMode`]:
//!
//! * [`RngMode::ChaCha8`] (the default) — a ChaCha8 stream cipher,
//!   seed-portable across platforms (unlike `StdRng`, whose algorithm is
//!   unspecified). This is the reproduction-grade mode: every committed
//!   number and pinned step total was produced under it, and its draw
//!   schedule is pinned bit-for-bit by the draws-per-step goldens.
//! * [`RngMode::Counter`] — a stateless SplitMix64-style mix of
//!   `(seed, pid, draw counter)`. One 64-bit mix per draw instead of a
//!   cipher block every 16 words, a cached coin block serving `coin()`
//!   one bit at a time, and a mask fast path for power-of-two `index()`
//!   bounds. Switching to it is a **modelling change** — schedules,
//!   step counts and adversary interactions all differ — so it is never
//!   applied silently: every configuration surface that accepts it
//!   (`RunConfig --rng`, `BatchRun::rng_mode`, the scenario records)
//!   carries the mode explicitly.

use rand::rngs::ChaCha8Rng;
use rand::{sample_exact, RngCore, RngExt, SeedableRng};

/// Which pseudo-random backend a [`ProcessRng`] draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RngMode {
    /// ChaCha8 stream cipher — the reproduction-grade default whose
    /// draw schedule matches every committed experiment number.
    #[default]
    ChaCha8,
    /// Counter-based SplitMix64 mix of `(seed, pid, draw counter)` —
    /// the cheap mode for throughput work. A documented modelling
    /// change: schedules differ from the default mode.
    Counter,
}

impl RngMode {
    /// Every mode, in `key()` order.
    pub const ALL: [RngMode; 2] = [RngMode::ChaCha8, RngMode::Counter];

    /// Stable configuration key (`chacha8` / `counter`).
    pub fn key(self) -> &'static str {
        match self {
            RngMode::ChaCha8 => "chacha8",
            RngMode::Counter => "counter",
        }
    }

    /// Parses a configuration key.
    ///
    /// # Errors
    /// Returns a message listing the known keys on an unknown one.
    pub fn parse(key: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|m| m.key() == key)
            .ok_or_else(|| format!("unknown rng mode `{key}` (known: chacha8, counter)"))
    }
}

impl std::fmt::Display for RngMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

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

/// The counter backend: word `i` of stream `(seed, pid)` is
/// `mix64(base + i·GOLDEN)` where `base` folds seed and pid through the
/// finalizer. No cipher state, no buffer — just the counter.
#[derive(Debug)]
struct CounterRng {
    base: u64,
    ctr: u64,
    /// Cached coin bits served LSB-first; refilled one mix per 64 flips.
    coin_block: u64,
    coin_left: u32,
    /// The owning pid, kept in what would otherwise be padding (the
    /// ChaCha backend holds it as its stream id instead).
    pid: u32,
}

impl CounterRng {
    fn new(seed: u64, pid: u32) -> Self {
        // Finalize pid before folding it in so that (seed, pid) pairs
        // along either axis land in decorrelated counter ranges.
        let base = mix64(seed ^ mix64(u64::from(pid).wrapping_mul(GOLDEN) ^ 0x6A09_E667_F3BC_C909));
        Self { base, ctr: 0, coin_block: 0, coin_left: 0, pid }
    }

    #[inline]
    fn next_word(&mut self) -> u64 {
        self.ctr += 1;
        mix64(self.base.wrapping_add(self.ctr.wrapping_mul(GOLDEN)))
    }

    #[inline]
    fn coin(&mut self) -> bool {
        if self.coin_left == 0 {
            self.coin_block = self.next_word();
            self.coin_left = 64;
        }
        let bit = self.coin_block & 1 == 1;
        self.coin_block >>= 1;
        self.coin_left -= 1;
        bit
    }
}

impl RngCore for CounterRng {
    fn next_u32(&mut self) -> u32 {
        self.next_word() as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.next_word()
    }
}

/// A process-private random stream.
///
/// Fixes the derivation scheme — stream `pid` of seed `seed` — and
/// centralizes the operations the renaming algorithms need (a uniform
/// index draw and a fair coin), so the announced-intent machinery can
/// log exactly the values drawn. [`ProcessRng::new`] always builds the
/// default [`RngMode::ChaCha8`] backend; [`ProcessRng::with_mode`] is
/// the only way to opt into another mode.
///
/// The pid is stored once, inside the backend: as the ChaCha8 stream id,
/// or next to the counter. A stream is 96 bytes and owns no heap memory,
/// so a run's processes can hold theirs inline.
#[derive(Debug)]
pub struct ProcessRng {
    backend: Backend,
}

#[derive(Debug)]
enum Backend {
    ChaCha8(ChaCha8Rng),
    Counter(CounterRng),
}

impl ProcessRng {
    /// Stream for process `pid` under experiment `seed`, in the default
    /// ChaCha8 mode (bit-identical to every committed schedule).
    pub fn new(seed: u64, pid: usize) -> Self {
        Self::with_mode(RngMode::ChaCha8, seed, pid)
    }

    /// Stream for process `pid` under experiment `seed` in an explicit
    /// [`RngMode`].
    ///
    /// # Panics
    /// Panics if `pid` does not fit in 32 bits (the ChaCha8 stream word).
    pub fn with_mode(mode: RngMode, seed: u64, pid: usize) -> Self {
        let pid = u32::try_from(pid)
            .unwrap_or_else(|_| panic!("pid {pid} does not fit in the 32-bit stream id"));
        let backend = match mode {
            RngMode::ChaCha8 => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                rng.set_stream(u64::from(pid));
                Backend::ChaCha8(rng)
            }
            RngMode::Counter => Backend::Counter(CounterRng::new(seed, pid)),
        };
        Self { backend }
    }

    /// The owning process id.
    #[inline]
    pub fn pid(&self) -> usize {
        match &self.backend {
            Backend::ChaCha8(rng) => rng.get_stream() as usize,
            Backend::Counter(rng) => rng.pid as usize,
        }
    }

    /// The backend this stream draws from.
    pub fn mode(&self) -> RngMode {
        match self.backend {
            Backend::ChaCha8(_) => RngMode::ChaCha8,
            Backend::Counter(_) => RngMode::Counter,
        }
    }

    /// Uniform draw from `[0, bound)`.
    ///
    /// In counter mode a power-of-two bound is a single masked mix and
    /// other bounds use the exact rejection threshold
    /// ([`rand::sample_exact`]) — never a redraw on bounds dividing
    /// 2^64. The ChaCha mode keeps its historical draw schedule.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    pub fn index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "cannot draw from an empty range");
        match &mut self.backend {
            Backend::ChaCha8(rng) => rng.random_range(0..bound),
            Backend::Counter(rng) => sample_exact(rng, bound as u64) as usize,
        }
    }

    /// Fair coin.
    ///
    /// The ChaCha mode spends one 32-bit word per flip (the historical
    /// schedule, kept bit-identical); counter mode serves 64 flips per
    /// mix from a cached coin block.
    #[inline]
    pub fn coin(&mut self) -> bool {
        match &mut self.backend {
            Backend::ChaCha8(rng) => rng.random(),
            Backend::Counter(rng) => rng.coin(),
        }
    }

    /// Raw generator draws so far — 32-bit cipher words in ChaCha mode,
    /// 64-bit mixes in counter mode. Not comparable across modes; it is
    /// the per-mode draw-schedule fingerprint the goldens pin.
    pub fn words_drawn(&self) -> u64 {
        match &self.backend {
            Backend::ChaCha8(rng) => rng.words_consumed(),
            Backend::Counter(rng) => rng.ctr,
        }
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
        for mode in RngMode::ALL {
            for pid in [0, 9, u32::MAX as usize] {
                assert_eq!(ProcessRng::with_mode(mode, 0, pid).pid(), pid, "{mode}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "pid 4294967296 does not fit in the 32-bit stream id")]
    fn pid_beyond_u32_is_rejected() {
        ProcessRng::with_mode(RngMode::ChaCha8, 0, u32::MAX as usize + 1);
    }

    /// Layout guard: one stream per process is streamed through the cache
    /// every fair round, so it stays within 96 bytes (an 88-byte ChaCha8
    /// generator plus the backend tag) and owns no heap memory.
    #[test]
    fn stream_is_compact_and_owns_no_heap() {
        assert!(std::mem::size_of::<ProcessRng>() <= 96, "{}", std::mem::size_of::<ProcessRng>());
        assert!(!std::mem::needs_drop::<ProcessRng>());
    }

    #[test]
    fn mode_keys_round_trip() {
        for mode in RngMode::ALL {
            assert_eq!(RngMode::parse(mode.key()), Ok(mode));
            assert_eq!(mode.to_string(), mode.key());
        }
        assert_eq!(
            RngMode::parse("mersenne").unwrap_err(),
            "unknown rng mode `mersenne` (known: chacha8, counter)"
        );
        assert_eq!(RngMode::default(), RngMode::ChaCha8);
    }

    #[test]
    fn default_mode_draw_schedule_is_pinned() {
        // The exact words the pre-RngMode ProcessRng drew: one 64-bit
        // range draw = two cipher words, one coin = one cipher word.
        // Any change to these counts breaks bit-compatibility with
        // every committed experiment table.
        let mut r = ProcessRng::new(7, 3);
        assert_eq!(r.mode(), RngMode::ChaCha8);
        assert_eq!(r.words_drawn(), 0);
        r.index(1000);
        assert_eq!(r.words_drawn(), 2, "one non-rejected index draw = one u64 = two words");
        r.coin();
        assert_eq!(r.words_drawn(), 3, "one coin = one full 32-bit word (historical waste)");
        let again = ProcessRng::new(7, 3).index(1000);
        assert_eq!(again, ProcessRng::new(7, 3).index(1000));
    }

    #[test]
    fn counter_mode_is_deterministic_and_distinct_per_pid_and_seed() {
        let draws = |seed, pid| {
            let mut r = ProcessRng::with_mode(RngMode::Counter, seed, pid);
            (0..32).map(|_| r.index(1 << 30)).collect::<Vec<_>>()
        };
        assert_eq!(draws(42, 7), draws(42, 7));
        assert_ne!(draws(42, 0), draws(42, 1));
        assert_ne!(draws(1, 0), draws(2, 0));
    }

    #[test]
    fn counter_mode_coin_block_amortizes_to_one_mix_per_64_flips() {
        let mut r = ProcessRng::with_mode(RngMode::Counter, 9, 2);
        for _ in 0..64 {
            r.coin();
        }
        assert_eq!(r.words_drawn(), 1, "64 flips must cost exactly one mix");
        r.coin();
        assert_eq!(r.words_drawn(), 2, "flip 65 refills the block");
    }

    #[test]
    fn counter_mode_power_of_two_index_is_one_mix() {
        let mut r = ProcessRng::with_mode(RngMode::Counter, 11, 0);
        for _ in 0..100 {
            r.index(1 << 20);
        }
        assert_eq!(r.words_drawn(), 100, "mask fast path: one mix per draw, no rejection");
    }

    #[test]
    fn counter_mode_coin_is_roughly_fair_and_index_in_bounds() {
        let mut r = ProcessRng::with_mode(RngMode::Counter, 123, 0);
        let heads = (0..10_000).filter(|_| r.coin()).count();
        assert!((4000..6000).contains(&heads), "suspicious coin: {heads}/10000 heads");
        for bound in [1usize, 2, 3, 17, 1000] {
            for _ in 0..200 {
                assert!(r.index(bound) < bound);
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn counter_mode_zero_bound_panics() {
        ProcessRng::with_mode(RngMode::Counter, 0, 0).index(0);
    }
}
