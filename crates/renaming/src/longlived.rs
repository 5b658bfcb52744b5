//! Long-lived renaming: names can be *released* and re-acquired.
//!
//! The paper's protocols are one-shot; its related-work section cites
//! Eberly–Higham–Warpechowska-Gruca \[13\] for long-lived renaming with
//! optimal name space. This module provides the long-lived extension of
//! the model: [`ReleasableTasArray`] — TAS registers whose *owner* may
//! reset them — and a loose long-lived protocol whose amortized
//! acquire cost stays O(1/ε) expected while names keep cycling. The E13
//! experiment measures amortized steps under churn.
//!
//! Model note (documented deviation): releasing requires the owner to
//! clear its register, an operation the one-shot TAS model does not
//! offer. We add it as owner-only `release`, which is how hardware TAS
//! (e.g. a lock bit) behaves in practice.

use rr_shmem::rng::{ProcessRng, StreamKey};
use std::sync::atomic::{AtomicU64, Ordering};

/// TAS registers with owner release: bit set = name held.
#[derive(Debug)]
pub struct ReleasableTasArray {
    words: Box<[AtomicU64]>,
    len: usize,
}

impl ReleasableTasArray {
    /// `len` free registers.
    pub fn new(len: usize) -> Self {
        let words = (0..len.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        Self { words, len }
    }

    /// Number of registers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn locate(&self, index: usize) -> (usize, u64) {
        assert!(index < self.len, "index {index} out of bounds");
        (index / 64, 1u64 << (index % 64))
    }

    /// Test-and-set: `true` iff the caller now owns `index`.
    #[inline]
    pub fn tas(&self, index: usize) -> bool {
        let (w, bit) = self.locate(index);
        self.words[w].fetch_or(bit, Ordering::AcqRel) & bit == 0
    }

    /// Owner-only release of `index`.
    ///
    /// # Panics
    /// Panics if the register was not held — releasing a free name is
    /// always a caller bug, so it is caught in every build profile.
    #[inline]
    pub fn release(&self, index: usize) {
        let (w, bit) = self.locate(index);
        let prev = self.words[w].fetch_and(!bit, Ordering::AcqRel);
        assert!(prev & bit != 0, "released a free register {index}");
    }

    /// Registers currently held.
    pub fn held_count(&self) -> usize {
        self.words.iter().map(|w| w.load(Ordering::Acquire).count_ones() as usize).sum()
    }
}

/// A long-lived loose renaming client: acquire a name by uniform probing
/// into `(1+ε)·n` registers, use it, release it.
///
/// Expected acquire cost is at most `(1+ε)/ε` probes while at most `n`
/// names are simultaneously held. A client is driven directly, not as a
/// run's process array, so it keeps its own copy of the stream key.
#[derive(Debug)]
pub struct LongLivedClient {
    pid: usize,
    key: StreamKey,
    rng: ProcessRng,
    held: Option<usize>,
    probes: u64,
    acquires: u64,
}

impl LongLivedClient {
    /// Client `pid` with stream `(seed, pid)`.
    pub fn new(pid: usize, seed: u64) -> Self {
        Self {
            pid,
            key: StreamKey::new(seed),
            rng: ProcessRng::new(pid),
            held: None,
            probes: 0,
            acquires: 0,
        }
    }

    /// Client id.
    pub fn pid(&self) -> usize {
        self.pid
    }

    /// Currently held name, if any.
    pub fn held(&self) -> Option<usize> {
        self.held
    }

    /// Acquires a name by uniform probing. Returns the name.
    ///
    /// # Panics
    /// Panics if the client already holds a name.
    pub fn acquire(&mut self, names: &ReleasableTasArray) -> usize {
        assert!(self.held.is_none(), "client {} already holds a name", self.pid);
        loop {
            self.probes += 1;
            let idx = self.rng.index(&self.key, names.len());
            if names.tas(idx) {
                self.held = Some(idx);
                self.acquires += 1;
                return idx;
            }
        }
    }

    /// Releases the held name.
    ///
    /// # Panics
    /// Panics if no name is held.
    pub fn release(&mut self, names: &ReleasableTasArray) {
        let name = self.held.take().expect("release without a held name");
        names.release(name);
    }

    /// `(total probes, total acquires)` — amortized cost is their ratio.
    pub fn stats(&self) -> (u64, u64) {
        (self.probes, self.acquires)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering as AOrd};

    #[test]
    fn tas_release_roundtrip() {
        let arr = ReleasableTasArray::new(10);
        assert!(arr.tas(3));
        assert!(!arr.tas(3));
        arr.release(3);
        assert!(arr.tas(3), "released register must be reacquirable");
        assert_eq!(arr.held_count(), 1);
    }

    #[test]
    #[should_panic(expected = "released a free register")]
    fn double_release_is_caught() {
        let arr = ReleasableTasArray::new(4);
        arr.tas(1);
        arr.release(1);
        arr.release(1);
    }

    #[test]
    fn client_acquire_release_cycles() {
        let names = ReleasableTasArray::new(16);
        let mut client = LongLivedClient::new(0, 1);
        for _ in 0..100 {
            let name = client.acquire(&names);
            assert!(name < 16);
            assert_eq!(client.held(), Some(name));
            client.release(&names);
            assert_eq!(client.held(), None);
        }
        let (probes, acquires) = client.stats();
        assert_eq!(acquires, 100);
        // Alone in a space of 16: every probe wins.
        assert_eq!(probes, 100);
    }

    #[test]
    fn amortized_cost_bounded_under_full_load() {
        // n clients, (1+ε)n names with ε = 1: expected ≤ 2 probes per
        // acquire even when all clients hold simultaneously.
        let n = 64;
        let names = ReleasableTasArray::new(2 * n);
        let mut clients: Vec<_> = (0..n).map(|p| LongLivedClient::new(p, 7)).collect();
        for round in 0..50 {
            for c in clients.iter_mut() {
                c.acquire(&names);
            }
            assert_eq!(names.held_count(), n, "round {round}");
            // Names held simultaneously must be distinct.
            let held: HashSet<_> = clients.iter().map(|c| c.held().unwrap()).collect();
            assert_eq!(held.len(), n);
            for c in clients.iter_mut() {
                c.release(&names);
            }
            assert_eq!(names.held_count(), 0);
        }
        let total_probes: u64 = clients.iter().map(|c| c.stats().0).sum();
        let total_acquires: u64 = clients.iter().map(|c| c.stats().1).sum();
        let amortized = total_probes as f64 / total_acquires as f64;
        assert!(amortized < 4.0, "amortized probes {amortized} too high");
    }

    #[test]
    fn concurrent_churn_never_duplicates() {
        let names = ReleasableTasArray::new(96);
        let live_max = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for pid in 0..64 {
                let names = &names;
                let live_max = &live_max;
                s.spawn(move || {
                    let mut client = LongLivedClient::new(pid, 3);
                    for _ in 0..500 {
                        client.acquire(names);
                        live_max.fetch_max(names.held_count(), AOrd::Relaxed);
                        client.release(names);
                    }
                });
            }
        });
        assert_eq!(names.held_count(), 0);
        assert!(live_max.load(AOrd::Relaxed) <= 64, "more held names than clients");
    }
}
