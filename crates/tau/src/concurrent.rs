//! Lock-free multi-thread front end for the τ-register.
//!
//! Real hardware clocks the counting device independently of the
//! processes; requests arrive asynchronously and are answered at the
//! next cycle boundary (§II-C). The batched form of that model — many
//! requests absorbed by one cycle — lives in
//! [`CountingDevice::clock_cycle`](crate::device::CountingDevice::clock_cycle) and is
//! exercised directly by the device experiments. This front end realizes
//! the degenerate (but equally legal) schedule in which every request is
//! its own cycle, which lets the whole device state live in **one atomic
//! word**: the confirmed bit map *is* the `in_reg`/`out_reg` of a device
//! between cycles, so a request is a single compare-and-swap that
//! validates "bit free **and** quota remaining" against one consistent
//! snapshot. No locks, no queues, no allocation:
//!
//! * single-threaded executors (`rr-sched`'s dense and shard backends)
//!   pay a handful of nanoseconds per request — this is the hot path of
//!   every tight-renaming step at n = 2²⁰, where the earlier
//!   flat-combining design (ticket allocation plus queue and device
//!   locks per request) dominated whole-run wall clock;
//! * free-running threads get a linearizable register: the CAS either
//!   observes the bit free with quota remaining and wins, or loses —
//!   exactly one winner per bit, never more than τ winners total, no
//!   matter the interleaving.
//!
//! The outcome of an uncontended request is bit-for-bit the outcome of
//! [`CountingDevice::request_one`](crate::device::CountingDevice::request_one),
//! so the deterministic executors'
//! step counts are unchanged by the front-end representation.

use crate::device::MAX_WIDTH;
use rr_shmem::atomics::AtomicWord;
use std::sync::atomic::{AtomicU64, Ordering};

/// A τ-register shared by free-running threads.
///
/// A plain inline struct — no `Arc`, no boxed slot array, not `Clone` —
/// so a `Vec<ConcurrentTauRegister>` is one contiguous register bank
/// and every request or slot TAS touches only the register's own words.
/// Threads share a register by reference: borrow it into
/// `std::thread::scope`, or wrap it in an explicit `Arc` when the
/// threads must be `'static`.
///
/// Generic over the [`AtomicWord`] instantiation of its state and
/// name-slot words: production code uses the `AtomicU64` default (the
/// unqualified `ConcurrentTauRegister` type), while `rr_sched::model`
/// instantiates the same struct with an instrumented word so every
/// load/CAS/TAS becomes a schedulable event in an exhaustive
/// interleaving search.
#[derive(Debug)]
pub struct ConcurrentTauRegister<W: AtomicWord = AtomicU64> {
    /// The confirmed bit map — the device's `out_reg` (== `in_reg`
    /// between cycles). Single source of truth, updated by CAS.
    state: W,
    /// Clock cycles executed (one per answered request). Plain `std`
    /// atomic even under instrumentation: it is observability metadata,
    /// not checked state, and modelling it would double every
    /// interleaving point for no verification value.
    cycles: AtomicU64,
    width: u32,
    tau: u32,
    /// The τ name slots, one TAS bit each: bit `s` set means name
    /// `base_name + s` is taken. One word suffices since τ ≤ width ≤ 64.
    slots: W,
    base_name: usize,
}

impl ConcurrentTauRegister {
    /// A production (`AtomicU64`) register handing out names
    /// `base_name .. base_name + tau`. Defined on the default
    /// instantiation so plain `ConcurrentTauRegister::new(..)` call
    /// sites infer `W = AtomicU64`.
    ///
    /// # Panics
    /// Panics if `width == 0`, `width > 64` or `tau > width`.
    pub fn new(width: u32, tau: u32, base_name: usize) -> Self {
        Self::with_atomics(width, tau, base_name)
    }

    /// The paper's `(log n)`-register for population `n`: `2·⌈log₂ n⌉`
    /// bits with τ = `⌈log₂ n⌉` — sized by
    /// [`CountingDevice::log_register`](crate::device::CountingDevice::log_register)
    /// so the front end can never diverge from the device's policy.
    pub fn log_register(n: usize, base_name: usize) -> Self {
        let device = crate::device::CountingDevice::log_register(n);
        Self::new(device.width(), device.tau(), base_name)
    }
}

impl<W: AtomicWord> ConcurrentTauRegister<W> {
    /// A register over any [`AtomicWord`] instantiation (the model
    /// checker's entry point).
    ///
    /// # Panics
    /// Panics if `width == 0`, `width > 64` or `tau > width`.
    pub fn with_atomics(width: u32, tau: u32, base_name: usize) -> Self {
        assert!(width > 0, "device needs at least one bit");
        assert!(width <= MAX_WIDTH, "device width {width} exceeds one machine word");
        assert!(tau <= width, "threshold τ={tau} exceeds width {width}");
        Self {
            state: W::new(0),
            cycles: AtomicU64::new(0),
            width,
            tau,
            slots: W::new(0),
            base_name,
        }
    }

    /// Number of device TAS bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of names (τ).
    pub fn tau(&self) -> u32 {
        self.tau
    }

    /// First name handed out by this register.
    pub fn base_name(&self) -> usize {
        self.base_name
    }

    /// Device clock cycles executed so far (one per answered request).
    pub fn cycles(&self) -> u64 {
        self.cycles.load(Ordering::Relaxed)
    }

    /// Confirmed winner count (≤ τ always).
    pub fn confirmed_count(&self) -> u32 {
        self.confirmed_bits().count_ones()
    }

    /// Snapshot of the confirmed bit map (`out_reg`). The paper assumes
    /// all `2·log n` bits of a register can be read in one operation, so
    /// callers may charge this as a single step.
    pub fn confirmed_bits(&self) -> u64 {
        self.state.load(Ordering::Acquire)
    }

    /// Remaining winner quota (τ − confirmed).
    pub fn remaining_quota(&self) -> u32 {
        self.tau - self.confirmed_count()
    }

    /// `(remaining_quota, confirmed_bits)` from one atomic snapshot —
    /// the one-step register inspection the tight protocol's final-round
    /// sweep charges (the paper reads a whole register in one
    /// operation).
    pub fn quota_and_bits(&self) -> (u32, u64) {
        let bits = self.confirmed_bits();
        (self.tau - bits.count_ones(), bits)
    }

    /// Requests device bit `bit`: one clock cycle, answered immediately.
    ///
    /// Returns `true` iff the bit was won. The compare-and-swap commits
    /// the bit only against a snapshot in which it was free **and** the
    /// τ quota had room — the device invariant (≤ τ confirmed winners,
    /// one winner per bit) holds under any interleaving.
    ///
    /// # Panics
    /// Panics if `bit` is out of range.
    pub fn request_bit(&self, bit: usize) -> bool {
        assert!((bit as u32) < self.width, "bit {bit} out of range (width {})", self.width);
        let b = 1u64 << bit;
        let won = loop {
            let cur = self.state.load(Ordering::Acquire);
            if cur & b != 0 || cur.count_ones() >= self.tau {
                break false;
            }
            if self
                .state
                .compare_exchange_weak(cur, cur | b, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break true;
            }
        };
        self.cycles.fetch_add(1, Ordering::Relaxed);
        won
    }

    /// Number of name slots (τ).
    pub fn slots_len(&self) -> usize {
        self.tau as usize
    }

    /// TAS a single name slot — one shared-memory step. Returns `true`
    /// iff the slot (and hence name `base_name + slot`) was won. The
    /// step-granular building block the renaming state machines use
    /// instead of the batched [`Self::claim_name`].
    ///
    /// One `fetch_or(bit, AcqRel)`: the caller won iff the bit was clear
    /// before, and `AcqRel` gives the winner a happens-before edge to
    /// every later reader that observes the slot taken.
    ///
    /// # Panics
    /// Panics if `slot >= τ`.
    pub fn try_slot(&self, slot: usize) -> bool {
        assert!(slot < self.tau as usize, "name slot {slot} out of bounds (τ = {})", self.tau);
        let bit = 1u64 << slot;
        self.slots.fetch_or(bit, Ordering::AcqRel) & bit == 0
    }

    /// Name-slot search for a process that won a device bit: TAS the τ
    /// slots in order; guaranteed to succeed (≤ τ admitted searchers).
    /// Returns `(name, probes)`.
    pub fn claim_name(&self) -> (usize, u32) {
        let mut probes = 0;
        for slot in 0..self.tau as usize {
            probes += 1;
            if self.try_slot(slot) {
                return (self.base_name + slot, probes);
            }
        }
        unreachable!("≤ τ admitted searchers, τ slots: a free slot must exist");
    }

    /// Full acquisition: request `bit`; on admission, claim a name.
    /// Returns `(name, steps)` on success, `(steps)` spent on failure —
    /// steps counts the bit request (1) plus slot probes.
    pub fn acquire(&self, bit: usize) -> Result<(usize, u32), u32> {
        if self.request_bit(bit) {
            let (name, probes) = self.claim_name();
            Ok((name, 1 + probes))
        } else {
            Err(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::CountingDevice;
    use std::collections::HashSet;
    use std::thread;

    #[test]
    fn single_thread_acquire() {
        let reg = ConcurrentTauRegister::new(8, 4, 10);
        assert_eq!(reg.acquire(0), Ok((10, 2)));
        // Slot 0 now taken: next winner probes twice.
        assert_eq!(reg.acquire(1), Ok((11, 3)));
        assert!(reg.acquire(0).is_err(), "bit 0 already set");
        assert_eq!(reg.confirmed_count(), 2);
    }

    #[test]
    fn quota_enforced_sequentially() {
        let reg = ConcurrentTauRegister::new(8, 2, 0);
        assert!(reg.acquire(0).is_ok());
        assert!(reg.acquire(1).is_ok());
        assert!(reg.acquire(2).is_err());
        assert!(reg.acquire(3).is_err());
        assert_eq!(reg.confirmed_count(), 2);
    }

    #[test]
    fn concurrent_contention_names_distinct_and_quota_held() {
        // 64 threads contend for a register with τ = 8 names over 16 bits.
        let reg = ConcurrentTauRegister::new(16, 8, 100);
        let names: Vec<usize> = thread::scope(|s| {
            let handles: Vec<_> = (0..64)
                .map(|i| {
                    let reg = &reg;
                    s.spawn(move || reg.acquire(i % 16).ok().map(|(name, _)| name))
                })
                .collect();
            handles.into_iter().filter_map(|h| h.join().unwrap()).collect()
        });
        let distinct: HashSet<_> = names.iter().copied().collect();
        assert_eq!(names.len(), distinct.len(), "duplicate names handed out");
        assert!(names.len() <= 8, "more winners than τ");
        assert!(names.iter().all(|&n| (100..108).contains(&n)));
        assert_eq!(reg.confirmed_count() as usize, names.len());
    }

    #[test]
    fn all_names_eventually_handed_out_under_full_coverage() {
        // With every bit requested by some thread and τ = width/2, the
        // register must fill completely.
        let reg = ConcurrentTauRegister::new(16, 8, 0);
        let won = thread::scope(|s| {
            let reg = &reg;
            let handles: Vec<_> =
                (0..16).map(|bit| s.spawn(move || reg.acquire(bit).is_ok())).collect();
            handles.into_iter().map(|h| h.join().unwrap()).filter(|&w| w).count()
        });
        assert_eq!(won, 8);
        assert_eq!(reg.confirmed_count(), 8);
    }

    /// Every name slot is won exactly once however many threads TAS it.
    #[test]
    fn concurrent_slot_tas_single_winner_per_slot() {
        let reg = ConcurrentTauRegister::new(64, 64, 0);
        let won: usize = thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| (0..64).filter(|&slot| reg.try_slot(slot)).count()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(won, 64);
        assert!((0..64).all(|slot| !reg.try_slot(slot)), "every slot stays taken");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn try_slot_rejects_slot_tau() {
        ConcurrentTauRegister::new(8, 4, 0).try_slot(4);
    }

    /// The register is stored inline: no `Arc` or boxed slot array
    /// (which would need a drop) and no alignment padding beyond its
    /// five words.
    #[test]
    fn register_is_inline_and_unpadded() {
        assert!(!std::mem::needs_drop::<ConcurrentTauRegister>());
        assert!(std::mem::size_of::<ConcurrentTauRegister>() <= 40);
    }

    #[test]
    fn log_register_constructor() {
        let reg = ConcurrentTauRegister::log_register(256, 42);
        assert_eq!(reg.width(), 16);
        assert_eq!(reg.tau(), 8);
        assert_eq!(reg.base_name(), 42);
    }

    #[test]
    fn cycles_advance_only_with_requests() {
        let reg = ConcurrentTauRegister::new(8, 4, 0);
        assert_eq!(reg.cycles(), 0);
        reg.acquire(0).unwrap();
        assert!(reg.cycles() >= 1);
    }

    /// The lock-free front end and the batched device agree request for
    /// request when driven sequentially — the equivalence that keeps the
    /// deterministic executors' step counts independent of the front-end
    /// representation.
    #[test]
    fn sequential_requests_match_counting_device() {
        let reg = ConcurrentTauRegister::new(16, 6, 0);
        let mut device = CountingDevice::new(16, 6);
        // A fixed probe pattern with repeats and overflow attempts.
        let probes = [3usize, 7, 3, 0, 1, 2, 9, 4, 5, 8, 10, 0, 15];
        for &bit in &probes {
            let fast = reg.request_bit(bit);
            let slow = device.request_one(bit) == crate::device::BitOutcome::Won;
            assert_eq!(fast, slow, "bit {bit}");
            assert_eq!(reg.confirmed_bits(), device.confirmed(), "bit {bit}");
        }
        assert_eq!(reg.cycles(), probes.len() as u64);
        assert_eq!(reg.confirmed_count(), 6);
        assert_eq!(reg.remaining_quota(), 0);
        assert_eq!(reg.quota_and_bits(), (0, device.confirmed()));
    }
}
