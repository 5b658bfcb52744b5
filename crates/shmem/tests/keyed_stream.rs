//! A keyed process stream is the seekable generator, word for word.
//!
//! `ProcessRng` keeps half a block and recomputes blocks from the run's
//! `StreamKey`; `ChaCha8Rng::seed_from_u64(seed)` on stream `pid` keeps
//! its key and whole blocks. Both must give every draw the same value
//! and leave the same word count after it.

use proptest::prelude::*;
use rand::rngs::ChaCha8Rng;
use rand::{RngExt, SeedableRng};
use rr_shmem::rng::{ProcessRng, StreamKey};

/// Index bounds: a one-value range, small ones, one whose rejection zone
/// redraws about half the time (so a draw can take four words), and the
/// raw 64-bit draw.
const BOUNDS: [usize; 5] = [1, 6, 1000, (1 << 63) + 1, usize::MAX];

/// The keyed stream and the reference generator for `(seed, pid)`.
fn pair(seed: u64, pid: usize) -> (StreamKey, ProcessRng, ChaCha8Rng) {
    let mut reference = ChaCha8Rng::seed_from_u64(seed);
    reference.set_stream(pid as u64);
    (StreamKey::new(seed), ProcessRng::new(pid), reference)
}

/// Applies draw `op` (a coin below 3, else an index under `BOUNDS`) to
/// both streams and checks the values and the word counts.
fn draw_both(key: &StreamKey, keyed: &mut ProcessRng, reference: &mut ChaCha8Rng, op: usize) {
    let ctx = format!("pid {} op {op} at word {}", keyed.pid(), keyed.words_drawn());
    if op < 3 {
        assert_eq!(keyed.coin(key), reference.random::<bool>(), "{ctx}");
    } else {
        let bound = BOUNDS[op - 3];
        assert_eq!(keyed.index(key, bound), reference.random_range(0..bound), "{ctx}");
    }
    assert_eq!(keyed.words_drawn(), reference.words_consumed(), "{ctx}");
}

proptest! {
    #[test]
    fn keyed_stream_matches_the_seekable_generator(
        seed: u64,
        pid in 0usize..1 << 32,
        ops in proptest::collection::vec(0usize..3 + BOUNDS.len(), 0..120),
    ) {
        let (key, mut keyed, mut reference) = pair(seed, pid);
        for op in ops {
            draw_both(&key, &mut keyed, &mut reference, op);
        }
    }
}

/// `coins` coins put the next 64-bit draw at word `coins`, so the
/// draws after 7, 15, 23 and 31 coins straddle a half block (words 7/8,
/// 23/24) or a whole block (words 15/16, 31/32).
#[test]
fn wide_draws_straddling_half_and_block_edges_match() {
    for (seed, pid) in [(42, 0), (u64::MAX, 5), (7, 1_048_575)] {
        for coins in 0..40 {
            let (key, mut keyed, mut reference) = pair(seed, pid);
            for _ in 0..coins {
                draw_both(&key, &mut keyed, &mut reference, 0);
            }
            for _ in 0..6 {
                draw_both(&key, &mut keyed, &mut reference, 3 + BOUNDS.len() - 1);
            }
        }
    }
}
