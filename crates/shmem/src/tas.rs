//! Test-and-set register arrays.
//!
//! A TAS register is the paper's primitive: any number of processes may
//! *test* it concurrently, but exactly one wins (observes the 0 → 1
//! transition). [`AtomicTasArray`] packs 64 registers per cache line word
//! and implements the operation with `fetch_or`, so a win costs one
//! atomic read-modify-write — the `AtomicUsize` CAS fit called out in the
//! reproduction brief.

use crate::atomics::AtomicWord;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fixed-size array of single-bit test-and-set registers.
///
/// Implementations must be linearizable: for each index, exactly one
/// [`TasMemory::tas`] call across all threads returns `true`, and once a
/// register is set it stays set (renaming never releases names).
pub trait TasMemory: Sync {
    /// Number of TAS registers in the array.
    fn len(&self) -> usize;

    /// Returns `true` iff the array contains no registers.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Test-and-set register `index`. Returns `true` iff the caller won
    /// the register (it was unset and this call set it).
    ///
    /// # Panics
    /// Panics if `index >= self.len()`.
    fn tas(&self, index: usize) -> bool;

    /// Read register `index` without modifying it.
    fn is_set(&self, index: usize) -> bool;

    /// Number of registers currently set. Not linearizable as a whole —
    /// used only for post-run audits and statistics.
    fn count_set(&self) -> usize {
        (0..self.len()).filter(|&i| self.is_set(i)).count()
    }
}

/// Bit-packed lock-free TAS array: 64 registers per atomic word.
///
/// `tas` is one `fetch_or(bit, AcqRel)`; the caller won iff the bit was
/// clear in the returned previous value. `AcqRel` gives the winner a
/// happens-before edge to every later reader that observes the bit set,
/// which is all the synchronization the renaming protocols require.
///
/// Generic over the [`AtomicWord`] instantiation: the `AtomicU64`
/// default is the production array (every call site that writes
/// `AtomicTasArray` unqualified gets exactly the pre-abstraction
/// codegen), while the model checker instantiates the same struct with
/// its instrumented word to enumerate interleavings of `tas` calls.
///
/// ```
/// use rr_shmem::tas::{AtomicTasArray, TasMemory};
///
/// let names = AtomicTasArray::new(8);
/// assert!(names.tas(3), "first test-and-set wins the register");
/// assert!(!names.tas(3), "every later attempt loses");
/// assert_eq!(names.count_set(), 1);
/// ```
#[derive(Debug)]
pub struct AtomicTasArray<W: AtomicWord = AtomicU64> {
    words: Box<[W]>,
    len: usize,
}

impl AtomicTasArray {
    /// Creates a production (`AtomicU64`) array of `len` unset
    /// registers. Defined on the default instantiation so plain
    /// `AtomicTasArray::new(..)` call sites infer `W = AtomicU64`.
    pub fn new(len: usize) -> Self {
        Self::with_atomics(len)
    }
}

impl<W: AtomicWord> AtomicTasArray<W> {
    /// Creates an array of `len` unset registers over any
    /// [`AtomicWord`] instantiation (the model checker's entry point).
    pub fn with_atomics(len: usize) -> Self {
        let n_words = len.div_ceil(64);
        let words = (0..n_words).map(|_| W::new(0)).collect();
        Self { words, len }
    }

    /// Resets every register to unset. Requires exclusive access, so it
    /// cannot race with concurrent `tas` calls by construction.
    pub fn reset(&mut self) {
        for w in self.words.iter_mut() {
            *w.unsync_mut() = 0;
        }
    }

    /// Indices of all set registers, for post-run audits.
    pub fn set_indices(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for (wi, w) in self.words.iter().enumerate() {
            let mut bits = w.load(Ordering::Acquire);
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                let idx = wi * 64 + b;
                if idx < self.len {
                    out.push(idx);
                }
                bits &= bits - 1;
            }
        }
        out
    }

    #[inline]
    fn locate(&self, index: usize) -> (usize, u64) {
        assert!(index < self.len, "TAS index {index} out of bounds (len {})", self.len);
        (index / 64, 1u64 << (index % 64))
    }
}

impl<W: AtomicWord> TasMemory for AtomicTasArray<W> {
    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn tas(&self, index: usize) -> bool {
        let (w, bit) = self.locate(index);
        self.words[w].fetch_or(bit, Ordering::AcqRel) & bit == 0
    }

    #[inline]
    fn is_set(&self, index: usize) -> bool {
        let (w, bit) = self.locate(index);
        self.words[w].load(Ordering::Acquire) & bit != 0
    }

    fn count_set(&self) -> usize {
        let mut total = 0usize;
        for (wi, w) in self.words.iter().enumerate() {
            let mut bits = w.load(Ordering::Acquire);
            // Mask out padding bits beyond `len` in the last word.
            if (wi + 1) * 64 > self.len {
                let valid = self.len - wi * 64;
                if valid < 64 {
                    bits &= (1u64 << valid) - 1;
                }
            }
            total += bits.count_ones() as usize;
        }
        total
    }
}

impl<M: TasMemory + ?Sized> TasMemory for &M {
    fn len(&self) -> usize {
        (**self).len()
    }
    fn tas(&self, index: usize) -> bool {
        (**self).tas(index)
    }
    fn is_set(&self, index: usize) -> bool {
        (**self).is_set(index)
    }
    fn count_set(&self) -> usize {
        (**self).count_set()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn tas_wins_exactly_once() {
        let arr = AtomicTasArray::new(10);
        assert!(arr.tas(3));
        assert!(!arr.tas(3));
        assert!(!arr.tas(3));
        assert!(arr.is_set(3));
        assert!(!arr.is_set(2));
    }

    #[test]
    fn len_and_empty() {
        assert_eq!(AtomicTasArray::new(0).len(), 0);
        assert!(AtomicTasArray::new(0).is_empty());
        assert_eq!(AtomicTasArray::new(65).len(), 65);
        assert!(!AtomicTasArray::new(65).is_empty());
    }

    #[test]
    fn word_boundaries() {
        let arr = AtomicTasArray::new(130);
        for i in [0, 63, 64, 127, 128, 129] {
            assert!(arr.tas(i), "first tas at {i} must win");
            assert!(!arr.tas(i), "second tas at {i} must lose");
        }
        assert_eq!(arr.count_set(), 6);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        AtomicTasArray::new(64).tas(64);
    }

    #[test]
    fn count_set_masks_padding() {
        let arr = AtomicTasArray::new(3);
        arr.tas(0);
        arr.tas(2);
        assert_eq!(arr.count_set(), 2);
        assert_eq!(arr.set_indices(), vec![0, 2]);
    }

    #[test]
    fn reset_clears_everything() {
        let mut arr = AtomicTasArray::new(100);
        for i in 0..100 {
            arr.tas(i);
        }
        assert_eq!(arr.count_set(), 100);
        arr.reset();
        assert_eq!(arr.count_set(), 0);
        assert!(arr.tas(50));
    }

    #[test]
    fn concurrent_single_winner_per_register() {
        // 8 threads fight over every register of a 256-register array;
        // each register must be won exactly once in total.
        let arr = Arc::new(AtomicTasArray::new(256));
        let wins = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let arr = Arc::clone(&arr);
                let wins = Arc::clone(&wins);
                std::thread::spawn(move || {
                    for i in 0..arr.len() {
                        if arr.tas(i) {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(wins.load(Ordering::Relaxed), 256);
        assert_eq!(arr.count_set(), 256);
    }

    #[test]
    fn trait_object_through_reference() {
        fn takes_mem<M: TasMemory>(m: M) -> usize {
            m.len()
        }
        let arr = AtomicTasArray::new(12);
        assert_eq!(takes_mem(&arr), 12);
        assert_eq!(arr.len(), 12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    proptest! {
        /// `AtomicTasArray` agrees with a trivial set-based model under
        /// arbitrary single-threaded operation sequences.
        #[test]
        fn matches_set_model(
            len in 1usize..300,
            ops in proptest::collection::vec((0usize..300, proptest::bool::ANY), 0..200),
        ) {
            let arr = AtomicTasArray::new(len);
            let mut model = BTreeSet::new();
            for (idx, is_tas) in ops {
                let idx = idx % len;
                if is_tas {
                    let won = arr.tas(idx);
                    prop_assert_eq!(won, model.insert(idx));
                } else {
                    prop_assert_eq!(arr.is_set(idx), model.contains(&idx));
                }
            }
            prop_assert_eq!(arr.count_set(), model.len());
            prop_assert_eq!(arr.set_indices(), model.into_iter().collect::<Vec<_>>());
        }
    }
}
