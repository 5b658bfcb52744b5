//! Word-packed per-process state: the bit-level layer under the
//! execution hot loop.
//!
//! PR 3's profiling blamed the dense arena's remaining per-step cost on
//! per-slot status scans and per-decision dispatch, not on virtual
//! calls. This module attacks the scan half: per-process lifecycle
//! state is packed into `u64` words behind a declarative bitfield
//! layout ([`bitfield_layout!`](crate::bitfield_layout), the `register_bitfields!` idiom from
//! embedded register maps), and the runnable set is scanned
//! word-at-a-time with `u64::trailing_zeros` instead of slot-at-a-time
//! over a tombstoned `Vec<Pid>`.
//!
//! Three types:
//!
//! * [`Status`] — the 2-bit lifecycle value
//!   (`Running`/`Named`/`GaveUp`/`Crashed`), 32 lanes per `u64` word,
//!   generated by [`bitfield_layout!`](crate::bitfield_layout) together with its layout
//!   constants (`OFFSET`/`NUMBITS`/`MASK`/`LANES`).
//! * [`StatusBitmap`] — the packed table, indexed by typed
//!   [`Pid`]s like an [`EntityVec`](crate::ids::EntityVec). Alongside
//!   the 2-bit lanes it maintains a coherent 1-bit *runnable* companion
//!   (64 pids per word, bit set ⟺ `Running`), so "the runnable pids ≥
//!   `from`" is one ascending walk that masks the first word below
//!   `from` and then yields every set bit of each word it loads by
//!   count-trailing-zeros, and a running count makes "runnable
//!   population" one load. An adversary that grants a batch of
//!   ascending pids takes them all from one such walk, so a word of up
//!   to 64 grants is loaded once, not once per grant.
//! * [`SlotSnapshot`] — the flat list of pids runnable at a capture
//!   point, so `select(i)` is one load. This reproduces,
//!   observationally, the historical executor's tombstoned `active`
//!   vector: `len()` is the tombstoned length, `select(i)` is
//!   `active[i]`, and the executor recaptures under exactly the old
//!   lazy-compaction trigger. Adversaries that index slots by number
//!   (rejection sampling) therefore consume RNG identically to every
//!   previous snapshot of this repo — the bit-identity contract the
//!   equivalence suites pin.

use crate::ids::Pid;

/// Declares a bitfield lane layout: a value enum plus the constants
/// (`OFFSET`, `NUMBITS`, `MASK`, `LANES`) and encode/decode helpers for
/// packing many lanes of it into machine words.
///
/// Modeled on the `register_bitfields!` idiom from embedded register
/// maps — the layout is *declared*, not hand-derived, so lane width,
/// shift arithmetic and the value set live in one place:
///
/// ```
/// rr_sched::bitfield_layout![u8,
///     /// A 1-bit flag, 8 lanes per byte.
///     pub Flag OFFSET(0) NUMBITS(1) [
///         /// Lane clear.
///         Off = 0,
///         /// Lane set.
///         On = 1,
///     ]
/// ];
///
/// assert_eq!(Flag::LANES, 8);
/// assert_eq!(Flag::MASK, 0b1);
/// assert_eq!(Flag::shift(3), 3);
/// let word: u8 = Flag::On.bits() << Flag::shift(3);
/// assert_eq!(Flag::from_bits(word >> Flag::shift(3)), Flag::On);
/// ```
///
/// Variant values must be literals covering distinct lane patterns;
/// decoding a pattern outside the declared set panics.
#[macro_export]
macro_rules! bitfield_layout {
    ($word:ty,
        $(#[$meta:meta])*
        $vis:vis $name:ident OFFSET($offset:literal) NUMBITS($numbits:literal) [
            $($(#[$vmeta:meta])* $variant:ident = $value:literal),+ $(,)?
        ]
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        $vis enum $name {
            $($(#[$vmeta])* $variant = $value,)+
        }

        impl $name {
            /// Bit offset of lane 0 within a word.
            pub const OFFSET: u32 = $offset;
            /// Width of one lane in bits.
            pub const NUMBITS: u32 = $numbits;
            /// Mask covering one lane (at shift 0).
            pub const MASK: $word = ((1 as $word) << $numbits) - 1;
            /// Lanes packed per word.
            pub const LANES: usize = ((<$word>::BITS - $offset) / $numbits) as usize;

            /// Bit position of `lane`'s field within its word.
            #[inline]
            pub const fn shift(lane: usize) -> u32 {
                Self::OFFSET + lane as u32 * Self::NUMBITS
            }

            /// Encodes the value as its lane pattern (at shift 0).
            #[inline]
            pub const fn bits(self) -> $word {
                self as $word
            }

            /// Decodes a lane pattern (the word already shifted so the
            /// lane sits at bit 0; high bits are masked off here).
            ///
            /// # Panics
            /// Panics if the masked pattern is not a declared value.
            #[inline]
            pub fn from_bits(bits: $word) -> Self {
                match bits & Self::MASK {
                    $($value => Self::$variant,)+
                    other => panic!(
                        "invalid {} lane pattern {other:#b}",
                        stringify!($name)
                    ),
                }
            }
        }
    };
}

bitfield_layout![u64,
    /// Per-process lifecycle state, packed 32 lanes per `u64` word by
    /// [`StatusBitmap`]. `Running = 0b00` so a freshly zeroed word is
    /// 32 running processes.
    pub Status OFFSET(0) NUMBITS(2) [
        /// Still taking steps.
        Running = 0,
        /// Halted holding a name.
        Named = 1,
        /// Halted unnamed of its own accord.
        GaveUp = 2,
        /// Crashed by the adversary.
        Crashed = 3,
    ]
];

/// Bits-per-word of the 1-bit runnable companion array.
const RUN_BITS: usize = u64::BITS as usize;

/// The packed per-process lifecycle table: 2-bit [`Status`] lanes (32
/// pids per `u64`) plus a coherent 1-bit runnable companion (64 pids
/// per `u64`; bit `p` set ⟺ `get(p) == Status::Running`). Indexing is
/// typed by [`Pid`], like an [`EntityVec`](crate::ids::EntityVec) —
/// raw `usize` indexing does not type-check.
///
/// The companion is what makes the hot-loop queries word-wide:
/// [`StatusBitmap::runnable_from`] loads each runnable word once and
/// yields its pids by `trailing_zeros`, [`StatusBitmap::runnable_count`]
/// is one load of a count `set` keeps, and [`SlotSnapshot::capture`]
/// one walk over the runnable words.
#[derive(Debug, Default, Clone)]
pub struct StatusBitmap {
    /// 2-bit status lanes, [`Status::LANES`] pids per word.
    lanes: Vec<u64>,
    /// 1-bit runnable words, kept coherent with `lanes` by `set`.
    run: Vec<u64>,
    /// Set bits in `run`, kept coherent by `reset` and `set`.
    running: usize,
    len: usize,
}

impl StatusBitmap {
    /// An empty bitmap; size it with [`StatusBitmap::reset`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Resizes to `n` pids, all [`Status::Running`] (the ragged tail of
    /// the last runnable word is kept zero so scans never yield a pid
    /// ≥ `n`).
    pub fn reset(&mut self, n: usize) {
        self.len = n;
        self.running = n;
        self.lanes.clear();
        self.lanes.resize(n.div_ceil(Status::LANES), 0);
        self.run.clear();
        self.run.resize(n.div_ceil(RUN_BITS), !0);
        if let Some(last) = self.run.last_mut() {
            let tail = n % RUN_BITS;
            if tail != 0 {
                *last = (1u64 << tail) - 1;
            }
        }
    }

    /// Number of pids tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap tracks zero pids.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The status of `pid`.
    #[inline]
    pub fn get(&self, pid: Pid) -> Status {
        let i = pid.index();
        debug_assert!(i < self.len, "pid {pid} out of range {}", self.len);
        Status::from_bits(self.lanes[i / Status::LANES] >> Status::shift(i % Status::LANES))
    }

    /// Sets the status of `pid`, keeping the runnable companion bit
    /// coherent.
    #[inline]
    pub fn set(&mut self, pid: Pid, status: Status) {
        let i = pid.index();
        debug_assert!(i < self.len, "pid {pid} out of range {}", self.len);
        let shift = Status::shift(i % Status::LANES);
        let lane = &mut self.lanes[i / Status::LANES];
        *lane = (*lane & !(Status::MASK << shift)) | (status.bits() << shift);
        let bit = 1u64 << (i % RUN_BITS);
        let word = &mut self.run[i / RUN_BITS];
        let was_running = *word & bit != 0;
        if status == Status::Running {
            *word |= bit;
            self.running += usize::from(!was_running);
        } else {
            *word &= !bit;
            self.running -= usize::from(was_running);
        }
    }

    /// Whether `pid` is still running — one load + mask, the ground
    /// truth the executor also exposes as `announced[pid].is_some()`.
    #[inline]
    pub fn is_runnable(&self, pid: Pid) -> bool {
        let i = pid.index();
        debug_assert!(i < self.len, "pid {pid} out of range {}", self.len);
        self.run[i / RUN_BITS] >> (i % RUN_BITS) & 1 != 0
    }

    /// Number of running pids.
    #[inline]
    pub fn runnable_count(&self) -> usize {
        self.running
    }

    /// The first running pid with index ≥ `from`: the first item of
    /// [`StatusBitmap::runnable_from`].
    #[inline]
    pub fn next_runnable(&self, from: usize) -> Option<Pid> {
        self.runnable_from(from).next()
    }

    /// All running pids, ascending — the word-at-a-time replacement for
    /// "iterate `active`, filter `announced.is_some()`".
    #[inline]
    pub fn runnable(&self) -> RunnableIter<'_> {
        self.runnable_from(0)
    }

    /// The running pids with index ≥ `from`, ascending: the one scan
    /// every other query is built on. Only the first word is masked
    /// below `from`; after that the iterator clears one bit per item
    /// (`w &= w − 1`) of a word it holds, so a caller taking a batch of
    /// grants loads each runnable word once.
    #[inline]
    pub fn runnable_from(&self, from: usize) -> RunnableIter<'_> {
        let at = from / RUN_BITS;
        let word = self.run.get(at).map_or(0, |&w| w & (!0u64 << (from % RUN_BITS)));
        RunnableIter { words: &self.run, word, at }
    }
}

/// Iterator over running pids, ascending; see
/// [`StatusBitmap::runnable_from`].
#[derive(Debug, Clone)]
pub struct RunnableIter<'a> {
    words: &'a [u64],
    /// Remaining bits of `words[at]`.
    word: u64,
    at: usize,
}

impl Iterator for RunnableIter<'_> {
    type Item = Pid;

    #[inline]
    fn next(&mut self) -> Option<Pid> {
        while self.word == 0 {
            self.at += 1;
            if self.at >= self.words.len() {
                return None;
            }
            self.word = self.words[self.at];
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(Pid::new(self.at * RUN_BITS + bit))
    }
}

/// The slot roster at a capture point: the pids runnable then, ascending
/// — the observational replacement for the historical executor's
/// tombstoned `active: Vec<Pid>`.
///
/// The old vector started as `[0..n]`, kept halted pids as tombstones,
/// and was compacted (retaining the then-runnable pids, in order) when
/// more than half were dead. Between compactions it never changed. So
/// at every decision point it equaled *the sorted runnable set as of
/// the last compaction* — which is exactly what this flat list holds:
///
/// * [`SlotSnapshot::len`] ≡ the tombstoned `active.len()`,
/// * [`SlotSnapshot::select`]`(i)` ≡ `active[i]`, one load,
///
/// and the executor recaptures under the old compaction trigger
/// (`len() > 2 · live`). Adversaries that rejection-sample slot indices
/// (`random`, the fuzzer's perturbation draw) therefore consume RNG
/// bit-identically to the historical executor.
///
/// A capture walks the runnable words once: O(n / 64 + live). The
/// trigger halves the roster between captures, so over a run in which
/// every process halts the captures cost O(1) amortised per halt. The
/// price is 4 B per slot (a [`Pid`] is a `u32`), 1 MiB at 2¹⁸ pids.
#[derive(Debug, Default, Clone)]
pub struct SlotSnapshot {
    pids: Vec<Pid>,
}

impl SlotSnapshot {
    /// An empty snapshot; [`SlotSnapshot::capture`] before use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the roster with `status`'s runnable pids, ascending.
    pub fn capture(&mut self, status: &StatusBitmap) {
        self.pids.clear();
        self.pids.reserve(status.runnable_count());
        self.pids.extend(status.runnable());
    }

    /// Number of slots (the tombstoned length the old `active.len()`
    /// exposed).
    pub fn len(&self) -> usize {
        self.pids.len()
    }

    /// Whether the snapshot holds zero slots.
    pub fn is_empty(&self) -> bool {
        self.pids.is_empty()
    }

    /// The pid in slot `i` (what the old `active[i]` returned).
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn select(&self, i: usize) -> Pid {
        assert!(i < self.pids.len(), "slot {i} out of range {}", self.pids.len());
        self.pids[i]
    }

    /// All slots ascending (tests and diagnostics; the hot paths use
    /// [`SlotSnapshot::select`]).
    pub fn iter(&self) -> impl Iterator<Item = Pid> + '_ {
        self.pids.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_constants_from_the_macro() {
        assert_eq!(Status::OFFSET, 0);
        assert_eq!(Status::NUMBITS, 2);
        assert_eq!(Status::MASK, 0b11);
        assert_eq!(Status::LANES, 32);
        assert_eq!(Status::shift(0), 0);
        assert_eq!(Status::shift(31), 62);
        for s in [Status::Running, Status::Named, Status::GaveUp, Status::Crashed] {
            assert_eq!(Status::from_bits(s.bits()), s);
        }
        // High bits beyond the lane mask are ignored on decode.
        assert_eq!(Status::from_bits(0b101), Status::Named);
    }

    #[test]
    fn reset_marks_everything_running_with_clean_tail() {
        let mut bm = StatusBitmap::new();
        // 65 = one full runnable word + a 1-bit ragged tail.
        bm.reset(65);
        assert_eq!(bm.len(), 65);
        assert_eq!(bm.runnable_count(), 65);
        assert_eq!(bm.runnable().last(), Some(Pid::new(64)), "no phantom pid past the tail");
        for i in 0..65 {
            assert_eq!(bm.get(Pid::new(i)), Status::Running);
            assert!(bm.is_runnable(Pid::new(i)));
        }
    }

    #[test]
    fn set_updates_lane_and_runnable_bit_coherently() {
        let mut bm = StatusBitmap::new();
        bm.reset(40);
        bm.set(Pid::new(0), Status::Named);
        bm.set(Pid::new(31), Status::Crashed);
        bm.set(Pid::new(32), Status::GaveUp);
        assert_eq!(bm.get(Pid::new(0)), Status::Named);
        assert_eq!(bm.get(Pid::new(31)), Status::Crashed);
        assert_eq!(bm.get(Pid::new(32)), Status::GaveUp);
        assert_eq!(bm.get(Pid::new(1)), Status::Running);
        assert!(!bm.is_runnable(Pid::new(0)));
        assert!(!bm.is_runnable(Pid::new(31)));
        assert!(!bm.is_runnable(Pid::new(32)));
        assert!(bm.is_runnable(Pid::new(1)));
        assert_eq!(bm.runnable_count(), 37);
        // Resurrect (the executor never does; the bitmap must anyway).
        bm.set(Pid::new(31), Status::Running);
        assert!(bm.is_runnable(Pid::new(31)));
        assert_eq!(bm.runnable_count(), 38);
    }

    #[test]
    fn next_runnable_scans_across_word_boundaries() {
        let mut bm = StatusBitmap::new();
        bm.reset(130);
        for i in 0..129 {
            if i != 70 {
                bm.set(Pid::new(i), Status::Named);
            }
        }
        // Runnable: {70, 129}.
        assert_eq!(bm.next_runnable(0), Some(Pid::new(70)));
        assert_eq!(bm.next_runnable(70), Some(Pid::new(70)));
        assert_eq!(bm.next_runnable(71), Some(Pid::new(129)));
        assert_eq!(bm.next_runnable(129), Some(Pid::new(129)));
        assert_eq!(bm.next_runnable(130), None);
        assert_eq!(bm.runnable().collect::<Vec<_>>(), vec![Pid::new(70), Pid::new(129)]);
    }

    #[test]
    fn snapshot_select_reproduces_the_sorted_slot_list() {
        let mut bm = StatusBitmap::new();
        bm.reset(200);
        let dead: Vec<usize> = (0..200).filter(|i| i % 3 == 0).collect();
        for &i in &dead {
            bm.set(Pid::new(i), Status::Crashed);
        }
        let mut snap = SlotSnapshot::new();
        snap.capture(&bm);
        let expect: Vec<usize> = (0..200).filter(|i| i % 3 != 0).collect();
        assert_eq!(snap.len(), expect.len());
        for (slot, &pid) in expect.iter().enumerate() {
            assert_eq!(snap.select(slot), Pid::new(pid), "slot {slot}");
        }
        assert_eq!(snap.iter().map(|p| p.index()).collect::<Vec<_>>(), expect);
        // The snapshot is a *capture*: later transitions don't move it.
        bm.set(Pid::new(1), Status::Named);
        assert_eq!(snap.select(0), Pid::new(1));
    }

    #[test]
    fn empty_sizes_are_trivial() {
        let mut bm = StatusBitmap::new();
        bm.reset(0);
        assert!(bm.is_empty());
        assert_eq!(bm.runnable_count(), 0);
        assert_eq!(bm.next_runnable(0), None);
        assert_eq!(bm.runnable().count(), 0);
        assert_eq!(bm.runnable_from(64).count(), 0);
        let mut snap = SlotSnapshot::new();
        snap.capture(&bm);
        assert!(snap.is_empty());
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The satellite oracle: random transition sequences applied
            /// to the bitmap and to a plain `Vec<Status>` produce
            /// identical state and identical scan order — including
            /// sizes with ragged 2-bit and 1-bit tail words.
            #[test]
            fn bitmap_matches_vec_status_oracle(
                n in 1usize..200,
                ops in proptest::collection::vec((0usize..512, 0u8..4), 0..300),
            ) {
                let mut bm = StatusBitmap::new();
                bm.reset(n);
                let mut oracle = vec![Status::Running; n];
                for (raw, code) in ops {
                    let pid = Pid::new(raw % n);
                    let status = match code {
                        0 => Status::Running,
                        1 => Status::Named,
                        2 => Status::GaveUp,
                        _ => Status::Crashed,
                    };
                    bm.set(pid, status);
                    oracle[pid.index()] = status;
                    // The kept count tracks every transition, including
                    // Running -> Running and halted -> halted.
                    prop_assert_eq!(
                        bm.runnable_count(),
                        oracle.iter().filter(|&&s| s == Status::Running).count()
                    );
                }

                // Identical per-pid state.
                for (i, &status) in oracle.iter().enumerate() {
                    prop_assert_eq!(bm.get(Pid::new(i)), status);
                    prop_assert_eq!(bm.is_runnable(Pid::new(i)), status == Status::Running);
                }

                // Identical scan order (the tail word must not leak
                // phantom pids ≥ n).
                let scan: Vec<usize> = bm.runnable().map(|p| p.index()).collect();
                let oracle_scan: Vec<usize> =
                    (0..n).filter(|&i| oracle[i] == Status::Running).collect();
                prop_assert_eq!(&scan, &oracle_scan);
                prop_assert_eq!(bm.runnable_count(), oracle_scan.len());

                // next_runnable and runnable_from from every origin
                // match a filtered scan: word boundaries, the ragged
                // tail and origins at or past the end (a whole word
                // beyond it included).
                for from in 0..=n + 64 {
                    prop_assert_eq!(
                        bm.next_runnable(from).map(|p| p.index()),
                        oracle_scan.iter().copied().find(|&i| i >= from)
                    );
                    let tail: Vec<usize> = bm.runnable().map(|p| p.index()).filter(|&i| i >= from).collect();
                    prop_assert_eq!(
                        bm.runnable_from(from).map(|p| p.index()).collect::<Vec<_>>(),
                        tail
                    );
                }

                // Snapshot select(i) is the i-th runnable pid in order.
                let mut snap = SlotSnapshot::new();
                snap.capture(&bm);
                prop_assert_eq!(snap.len(), oracle_scan.len());
                for (slot, &pid) in oracle_scan.iter().enumerate() {
                    prop_assert_eq!(snap.select(slot).index(), pid);
                }
            }

            /// The roster's `select` equals a naive scan of the captured
            /// runnable set, over dense (1 in 20 halted), sparse (1 in
            /// 30 running), full (every ragged tail exposed) and
            /// long-empty-run (1 000-pid gaps) bitmaps.
            #[test]
            fn roster_select_matches_naive_scan(
                n in 1usize..4000,
                shape in 0u8..4,
                seed in any::<u64>(),
            ) {
                use rand::rngs::ChaCha8Rng;
                use rand::{RngExt, SeedableRng};
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let mut bm = StatusBitmap::new();
                bm.reset(n);
                for i in 0..n {
                    let running = match shape {
                        0 => rng.random_range(0..20u32) != 0,
                        1 => rng.random_range(0..30u32) == 0,
                        2 => true,
                        _ => (i / 1000) % 2 == 1 && rng.random_range(0..2u32) == 0,
                    };
                    if !running {
                        bm.set(Pid::new(i), Status::GaveUp);
                    }
                }
                let naive: Vec<usize> = (0..n).filter(|&i| bm.is_runnable(Pid::new(i))).collect();
                let mut snap = SlotSnapshot::new();
                snap.capture(&bm);
                prop_assert_eq!(snap.len(), naive.len());
                for (slot, &pid) in naive.iter().enumerate() {
                    prop_assert_eq!(snap.select(slot).index(), pid);
                }
            }
        }
    }
}
