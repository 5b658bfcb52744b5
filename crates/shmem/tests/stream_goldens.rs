//! Literal goldens for the values of the per-process random streams.
//!
//! The draw-schedule goldens pin how many words each step consumes; these
//! pin the words themselves, for three `(seed, pid)` pairs.
//! `index(usize::MAX)` returns a raw 64-bit draw unchanged
//! (its rejection zone is the single value `u64::MAX`), so 24 such draws
//! expose the first 48 ChaCha8 words: three 16-word cipher blocks. A
//! second, mixed pattern of coins and bounded draws pins the drawn values
//! together with `words_drawn()` after every draw.

use rand::rngs::ChaCha8Rng;
use rand::{RngExt, SeedableRng};
use rr_shmem::rng::{ProcessRng, StreamKey};

/// `(seed, pid)` pairs: `pid = 0`, `seed = u64::MAX`, and the last pid of
/// an n = 2^20 run.
const PAIRS: [(u64, usize); 3] = [(42, 0), (u64::MAX, 5), (7, 1_048_575)];

/// First 48 32-bit cipher words of each ChaCha8 stream, in draw order.
const CHACHA_WORDS: [[u32; 48]; 3] = [
    // (42, 0)
    [
        0x87c91afc, 0x31159ef9, 0xb4169001, 0x17559844, 0x9ad9a69f, 0xf7d0afbf, 0xfd37495a,
        0xb9207ad5, 0x61329c11, 0x072db0db, 0xeca26593, 0x4051bc3b, 0xcc4703b6, 0xbfaab970,
        0x8f89d223, 0xaff5425d, 0x6b947e05, 0xf6875512, 0x953f9601, 0x26706e48, 0x6a9f2b2f,
        0x54ff14b5, 0x150e06ce, 0x9cf9c5f7, 0x8e1d738c, 0xe3507e34, 0x4c28e1a6, 0xc89c0205,
        0x38520378, 0xb51fdc8f, 0xb1c896b5, 0x6384b6fe, 0x13e28956, 0xa1d6606a, 0xc62320de,
        0x009499f6, 0xeecf5513, 0x66e879a9, 0x49ee5d3a, 0xc96ff513, 0x31d6b0ea, 0x21ad4a95,
        0x93879897, 0x1610979f, 0xb7c99eb3, 0xc32d7ad1, 0xc7f030f3, 0x6f096b0d,
    ],
    // (u64::MAX, 5)
    [
        0xa974d7fc, 0x86c09c39, 0x2f2f38b2, 0xa1e05219, 0x8b12aea4, 0x6ea67a79, 0x693062a2,
        0x733dd9fb, 0xfbd989df, 0x86cb89cc, 0x7f8cd4b4, 0xafeac5bb, 0x2b552f13, 0x582dd2ac,
        0xc91c2264, 0x66bd9469, 0x78ecedf8, 0xeb0b37af, 0x65313b7e, 0x383713e5, 0x2a4d68de,
        0x7acf25b2, 0xf7ba380e, 0xccfc3c60, 0xadfbf61f, 0xadca9800, 0xdaf5c4ce, 0x249a98bc,
        0x309e2a50, 0x865bfc3c, 0x33fbd4af, 0xed04a507, 0x373b02a6, 0x94e7c2b5, 0x46d965a9,
        0xf930681b, 0x271e3b82, 0xac293184, 0xc252249d, 0x12db3f5a, 0x9ba2888c, 0xd07fd306,
        0xe4160cde, 0x8e25c443, 0x29f6cf05, 0x087d4f91, 0x7758c751, 0x710ceb2c,
    ],
    // (7, 1_048_575)
    [
        0xe6e696e9, 0xcba19b2b, 0x356a1183, 0x4a2f9df0, 0xe93561cc, 0xd08ffaa1, 0xbfb97963,
        0xc09075a5, 0x15b37b37, 0x8dc665f3, 0x211401b0, 0x42813e8d, 0xebdb4e88, 0x703723fe,
        0x0f4294f2, 0x4c81aa21, 0x5ca9d7e5, 0x802bcb12, 0x2907bda0, 0xba0119cb, 0x5aa7d2ac,
        0x0de7d53b, 0x422d4b97, 0x194dbea2, 0xad8c00da, 0x09337ec6, 0xb09091e3, 0xffcba27b,
        0xfb1ea512, 0xfc188e7e, 0x89603308, 0x91cd7044, 0x54384487, 0x190c6371, 0x6f860a0d,
        0xfb31a2c2, 0xd1779b97, 0x48c1ab31, 0x85ea3c28, 0x6ac411c4, 0x329a266a, 0xb99e6338,
        0xfd2eeaf1, 0xc8a5878b, 0x4cadac5a, 0x5572450f, 0x6a9ea37c, 0x808ff734,
    ],
];

/// `(value, words_drawn())` after each draw of [`mixed_draws`], ChaCha8.
const CHACHA_MIXED: [[(usize, u64); 40]; 3] = [
    // (42, 0)
    [
        (0, 1),
        (489, 3),
        (4, 5),
        (44991, 7),
        (1, 8),
        (177, 10),
        (3, 12),
        (459702, 14),
        (1, 15),
        (605, 17),
        (4, 19),
        (28232, 21),
        (1, 22),
        (126, 24),
        (2, 26),
        (582054, 28),
        (0, 29),
        (23, 31),
        (4, 33),
        (417898, 35),
        (0, 36),
        (723, 38),
        (0, 40),
        (438506, 42),
        (1, 43),
        (879, 45),
        (5, 47),
        (617229, 49),
        (1, 50),
        (921, 52),
        (5, 54),
        (909678, 56),
        (1, 57),
        (561, 59),
        (1, 61),
        (563136, 63),
        (0, 64),
        (928, 66),
        (3, 68),
        (391927, 70),
    ],
    // (u64::MAX, 5)
    [
        (0, 1),
        (817, 3),
        (3, 5),
        (424569, 7),
        (1, 8),
        (111, 10),
        (0, 12),
        (339731, 14),
        (0, 15),
        (785, 17),
        (1, 19),
        (463845, 21),
        (0, 22),
        (630, 24),
        (1, 26),
        (378062, 28),
        (0, 29),
        (996, 31),
        (5, 33),
        (508597, 35),
        (1, 36),
        (722, 38),
        (1, 40),
        (166028, 42),
        (0, 43),
        (611, 45),
        (1, 47),
        (846636, 49),
        (0, 50),
        (659, 52),
        (2, 54),
        (902089, 56),
        (0, 57),
        (289, 59),
        (5, 61),
        (214156, 63),
        (1, 64),
        (920, 66),
        (1, 68),
        (867332, 70),
    ],
    // (7, 1_048_575)
    [
        (1, 1),
        (979, 3),
        (4, 5),
        (1047201, 7),
        (1, 8),
        (191, 10),
        (4, 12),
        (741000, 14),
        (0, 15),
        (713, 17),
        (0, 19),
        (72139, 21),
        (1, 22),
        (31, 24),
        (0, 26),
        (37347, 28),
        (0, 29),
        (926, 31),
        (0, 33),
        (811889, 35),
        (0, 36),
        (959, 38),
        (4, 40),
        (665194, 42),
        (1, 43),
        (75, 45),
        (3, 47),
        (1046324, 49),
        (0, 50),
        (163, 52),
        (3, 54),
        (574843, 56),
        (1, 57),
        (806, 59),
        (4, 61),
        (1036151, 63),
        (0, 64),
        (527, 66),
        (0, 68),
        (651282, 70),
    ],
];

/// 24 full-width draws as `(value, words_drawn())` pairs.
fn full_draws(seed: u64, pid: usize) -> Vec<(u64, u64)> {
    let key = StreamKey::new(seed);
    let mut rng = ProcessRng::new(pid);
    (0..24).map(|_| (rng.index(&key, usize::MAX) as u64, rng.words_drawn())).collect()
}

/// A coin, then bounds 1000, 6 and 2^20, repeated ten times.
fn mixed_draws(seed: u64, pid: usize) -> Vec<(usize, u64)> {
    let key = StreamKey::new(seed);
    let mut rng = ProcessRng::new(pid);
    (0..40)
        .map(|i| {
            let value = match i % 4 {
                0 => usize::from(rng.coin(&key)),
                1 => rng.index(&key, 1000),
                2 => rng.index(&key, 6),
                _ => rng.index(&key, 1 << 20),
            };
            (value, rng.words_drawn())
        })
        .collect()
}

#[test]
fn chacha_stream_words_are_pinned() {
    for ((seed, pid), golden) in PAIRS.into_iter().zip(CHACHA_WORDS) {
        let draws = full_draws(seed, pid);
        let words: Vec<u32> =
            draws.iter().flat_map(|&(v, _)| [v as u32, (v >> 32) as u32]).collect();
        assert_eq!(words, golden, "ChaCha8 stream ({seed}, {pid})");
        let drawn: Vec<u64> = draws.iter().map(|&(_, w)| w).collect();
        assert_eq!(drawn, (1..=24).map(|i| 2 * i).collect::<Vec<u64>>(), "({seed}, {pid})");
    }
}

#[test]
fn mixed_draws_and_word_counts_are_pinned() {
    for ((seed, pid), golden) in PAIRS.into_iter().zip(CHACHA_MIXED) {
        assert_eq!(mixed_draws(seed, pid), golden, "({seed}, {pid})");
    }
}

#[test]
fn new_is_the_chacha8_mode() {
    for (seed, pid) in PAIRS {
        let key = StreamKey::new(seed);
        let mut a = ProcessRng::new(pid);
        let mut b = ChaCha8Rng::seed_from_u64(seed);
        b.set_stream(pid as u64);
        for _ in 0..48 {
            assert_eq!(a.index(&key, usize::MAX), b.random_range(0..usize::MAX));
        }
    }
}
