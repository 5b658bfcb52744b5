//! Seed-stable per-process randomness.
//!
//! Experiment tables must be reproducible run-to-run even though OS
//! threads interleave nondeterministically, so every process draws from
//! its own stream derived from `(experiment seed, pid)`: stream `pid` of a
//! ChaCha8 stream cipher seeded with `seed`. ChaCha8 is seed-portable
//! across platforms (unlike `StdRng`, whose algorithm is unspecified);
//! every committed number and pinned step total was produced by it, and
//! its draw schedule is pinned bit-for-bit by the draws-per-step goldens.
//!
//! The stream is split in two. A [`StreamKey`] is the cipher key of one
//! `(run, seed)`, built once and kept in the protocol's shared memory; a
//! [`ProcessRng`] is one process's position in its stream plus the half
//! block it is reading. ChaCha is counter-based, so any block of any
//! stream can be recomputed from `(key, block number, pid)` (Salmon et
//! al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011), and the
//! words drawn are those of `ChaCha8Rng::seed_from_u64(seed)` on stream
//! `pid`.

use rand::rngs::{chacha8_block, chacha8_key};
use rand::{RngCore, RngExt};

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

/// The ChaCha8 key of one run's process streams: the key
/// `ChaCha8Rng::seed_from_u64(seed)` expands `seed` to. One per
/// `(run, seed)`, kept in the protocol's shared memory and lent to every
/// draw, so no process carries a copy.
#[derive(Debug)]
pub struct StreamKey([u32; 8]);

impl StreamKey {
    /// The key of seed `seed`.
    pub fn new(seed: u64) -> Self {
        Self(chacha8_key(seed))
    }
}

/// Words in the half block a [`ProcessRng`] buffers.
const HALF: u32 = 8;

/// A process-private random stream: stream `pid` under a run's
/// [`StreamKey`].
///
/// Fixes the derivation scheme and centralizes the operations the
/// renaming algorithms need (a uniform index draw and a fair coin), so
/// the announced-intent machinery can log exactly the values drawn.
/// Every draw takes the key, which the run's shared memory holds.
///
/// It keeps the half block it is reading, its word position and its pid:
/// 40 bytes, no heap. Each 16-word block is computed twice, once per
/// half, which costs one block function call every 8 words.
///
/// The position is a `u32`, so a stream serves `2^32 − 8` words and then
/// panics rather than wrap. No protocol comes near that, because each
/// bounds a process's draws by its own schedule of `O(log n)` probes: a
/// tight process draws once per probing round; a Lemma 6 or Lemma 8 stage
/// and a finisher once per scheduled probe, plus one sweep start; the
/// uniform baseline once per budgeted probe; and an adaptive process
/// starts a fresh stream in each segment it climbs to. A draw is two
/// words, redrawn with probability below `bound / 2^64`. Only a
/// long-lived client draws without end, one draw per probe, so it would
/// need 2^31 probes.
#[derive(Debug)]
pub struct ProcessRng {
    /// Words `8·k .. 8·k + 8` of the stream for `k = ⌊(pos − 1) / 8⌋`;
    /// stale whenever `pos` is a multiple of 8.
    half: [u32; HALF as usize],
    /// Words drawn so far, which is also the next word's position.
    pos: u32,
    /// The owning process, which is the ChaCha8 stream id.
    pid: u32,
}

impl ProcessRng {
    /// Stream `pid`, at its start.
    ///
    /// # Panics
    /// Panics if `pid` does not fit in 32 bits (the ChaCha8 stream word).
    pub fn new(pid: usize) -> Self {
        let pid = u32::try_from(pid)
            .unwrap_or_else(|_| panic!("pid {pid} does not fit in the 32-bit stream id"));
        Self { half: [0; HALF as usize], pos: 0, pid }
    }

    /// The owning process id.
    #[inline]
    pub fn pid(&self) -> usize {
        self.pid as usize
    }

    /// Uniform draw from `[0, bound)`: one 64-bit draw (two cipher
    /// words), redrawn on the biased tail.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    pub fn index(&mut self, key: &StreamKey, bound: usize) -> usize {
        assert!(bound > 0, "cannot draw from an empty range");
        Keyed { rng: self, key }.random_range(0..bound)
    }

    /// Fair coin. Spends one 32-bit cipher word per flip (the historical
    /// schedule, kept bit-identical).
    #[inline]
    pub fn coin(&mut self, key: &StreamKey) -> bool {
        Keyed { rng: self, key }.random()
    }

    /// 32-bit cipher words drawn so far — the draw-schedule fingerprint
    /// the goldens pin.
    pub fn words_drawn(&self) -> u64 {
        u64::from(self.pos)
    }

    /// Loads the half block word `pos` lies in; `pos` is a multiple of 8.
    /// Kept out of line: it runs once per 8 words, and inlining the
    /// cipher rounds into every draw site would bloat each protocol step.
    #[inline(never)]
    fn refill(&mut self, key: &StreamKey) {
        assert!(self.pos < u32::MAX - (HALF - 1), "stream {} drew 2^32 - 8 words", self.pid);
        let block = chacha8_block(&key.0, u64::from(self.pos / 16), self.pid);
        let start = (self.pos % 16) as usize;
        self.half.copy_from_slice(&block[start..start + HALF as usize]);
    }
}

/// A [`ProcessRng`] with its key lent, as the vendored samplers' word
/// source.
struct Keyed<'a> {
    rng: &'a mut ProcessRng,
    key: &'a StreamKey,
}

impl RngCore for Keyed<'_> {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        let rng = &mut *self.rng;
        let at = rng.pos % HALF;
        if at == 0 {
            rng.refill(self.key);
        }
        rng.pos += 1;
        rng.half[at as usize]
    }

    /// Two words, low then high, exactly as two `next_u32` calls; read
    /// from the half block in one go unless they straddle two halves.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let rng = &mut *self.rng;
        let at = rng.pos % HALF;
        if at == 0 {
            rng.refill(self.key);
        }
        if at < HALF - 1 {
            rng.pos += 2;
            let at = at as usize;
            return u64::from(rng.half[at]) | (u64::from(rng.half[at + 1]) << 32);
        }
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        (hi << 32) | lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stream `pid` under the key of `seed`.
    fn stream(seed: u64, pid: usize) -> (StreamKey, ProcessRng) {
        (StreamKey::new(seed), ProcessRng::new(pid))
    }

    #[test]
    fn same_seed_same_stream_is_deterministic() {
        let (key, mut a) = stream(42, 7);
        let (_, mut b) = stream(42, 7);
        for _ in 0..100 {
            assert_eq!(a.index(&key, 1000), b.index(&key, 1000));
        }
    }

    #[test]
    fn different_pids_get_different_streams() {
        let (key, mut a) = stream(42, 0);
        let (_, mut b) = stream(42, 1);
        let draws_a: Vec<_> = (0..32).map(|_| a.index(&key, 1 << 30)).collect();
        let draws_b: Vec<_> = (0..32).map(|_| b.index(&key, 1 << 30)).collect();
        assert_ne!(draws_a, draws_b);
    }

    #[test]
    fn different_seeds_differ() {
        let (key_a, mut a) = stream(1, 0);
        let (key_b, mut b) = stream(2, 0);
        let draws_a: Vec<_> = (0..32).map(|_| a.index(&key_a, 1 << 30)).collect();
        let draws_b: Vec<_> = (0..32).map(|_| b.index(&key_b, 1 << 30)).collect();
        assert_ne!(draws_a, draws_b);
    }

    #[test]
    fn index_respects_bound() {
        let (key, mut r) = stream(0, 0);
        for bound in [1usize, 2, 3, 17, 1000] {
            for _ in 0..200 {
                assert!(r.index(&key, bound) < bound);
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn zero_bound_panics() {
        let (key, mut r) = stream(0, 0);
        r.index(&key, 0);
    }

    #[test]
    fn coin_is_roughly_fair() {
        let (key, mut r) = stream(123, 0);
        let heads = (0..10_000).filter(|_| r.coin(&key)).count();
        assert!((4000..6000).contains(&heads), "suspicious coin: {heads}/10000 heads");
    }

    #[test]
    fn pid_accessor() {
        for pid in [0, 9, u32::MAX as usize] {
            assert_eq!(ProcessRng::new(pid).pid(), pid);
        }
    }

    #[test]
    #[should_panic(expected = "pid 4294967296 does not fit in the 32-bit stream id")]
    fn pid_beyond_u32_is_rejected() {
        ProcessRng::new(u32::MAX as usize + 1);
    }

    /// The last half block a stream may load starts at `2^32 − 16`; the
    /// one after it would carry the position past `u32::MAX`.
    #[test]
    #[should_panic(expected = "stream 3 drew 2^32 - 8 words")]
    fn position_past_u32_is_rejected() {
        let key = StreamKey::new(0);
        let mut r = ProcessRng { half: [0; HALF as usize], pos: u32::MAX - 15, pid: 3 };
        for _ in 0..8 {
            r.coin(&key);
        }
        assert_eq!(r.words_drawn(), u64::from(u32::MAX - 7));
        r.coin(&key);
    }

    /// Layout guard: a stream is its half block, its position and its
    /// pid, 40 bytes with no heap, so a 64-byte tight process has room
    /// for it next to its shared-memory pointer and its 12-byte state.
    #[test]
    fn stream_is_compact_and_owns_no_heap() {
        assert_eq!(std::mem::size_of::<ProcessRng>(), 40);
        assert!(!std::mem::needs_drop::<ProcessRng>());
    }

    #[test]
    fn default_mode_draw_schedule_is_pinned() {
        // The exact words every committed run drew: one 64-bit
        // range draw = two cipher words, one coin = one cipher word.
        // Any change to these counts breaks bit-compatibility with
        // every committed experiment table.
        let (key, mut r) = stream(7, 3);
        assert_eq!(r.words_drawn(), 0);
        r.index(&key, 1000);
        assert_eq!(r.words_drawn(), 2, "one non-rejected index draw = one u64 = two words");
        r.coin(&key);
        assert_eq!(r.words_drawn(), 3, "one coin = one full 32-bit word (historical waste)");
        let again = ProcessRng::new(3).index(&key, 1000);
        assert_eq!(again, ProcessRng::new(3).index(&key, 1000));
    }
}
