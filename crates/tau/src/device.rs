//! The counting device (§II-C of the paper), cycle-accurate.
//!
//! A counting device manages `w = 2·log n` single-bit TAS registers and
//! guarantees that at most `τ ≤ w` of them are ever *confirmed* set. It
//! operates in clock cycles of two phases:
//!
//! 1. **Request phase** (pseudocode lines 1–3): every pending request to
//!    bit `b` fails if `b` is already set in `in_reg`; otherwise exactly
//!    one requester preliminarily sets it.
//! 2. **Discard phase** (lines 4–14): if the preliminary bits push
//!    `popcnt(in_reg)` above τ, the device keeps only `allowed_bits =
//!    τ − popcnt(old)` of the *new* bits and unsets the rest; `out_reg`
//!    then mirrors `in_reg`. A process owns its bit only once it appears
//!    in `out_reg`.
//!
//! The published pseudocode selects the surviving new bits with a shift /
//! `popcnt` / bit-test search over auxiliary registers. Read with bit
//! position 1 as the **most significant** position of the `w`-bit window
//! (the only reading under which `bt(util_reg_i, 1)` can ever be true for
//! `i ≥ 2`), that search has a unique fixed point: *keep the
//! `allowed_bits` new bits with the lowest index*. [`rtl::shift_select`]
//! transcribes the search literally and the property tests pin it to the
//! direct oracle used by [`CountingDevice::clock_cycle`]. See README
//! "Deviations from the paper", item 2.

/// Maximum device width: the registers are simulated in one `u64` word,
/// exactly like the paper's assumption that all `2·log n` bits can be
/// read and combined in `O(1)` machine operations.
pub const MAX_WIDTH: u32 = 64;

/// Outcome of one request after the cycle that consumed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitOutcome {
    /// The request's bit is confirmed in `out_reg`; the process may go
    /// claim a name slot.
    Won,
    /// The bit was already set, lost the per-bit arbitration, or was
    /// discarded in phase 2. The process must try elsewhere.
    Lost,
}

/// A request presented to the device: `(tag, bit)`. The tag is opaque to
/// the hardware (process id in practice) and is only echoed in the report.
pub type Request = (usize, usize);

/// Everything one clock cycle did — consumed by tests, the E10 experiment
/// and the `tau_register_demo` example.
#[derive(Debug, Clone)]
pub struct CycleReport {
    /// Cycle number (0-based).
    pub cycle: u64,
    /// `in_reg` (== `out_reg`) before the cycle.
    pub before: u64,
    /// Confirmed register contents after the cycle.
    pub after: u64,
    /// Bits preliminarily set in phase 1 and then discarded in phase 2.
    pub discarded: u64,
    /// Per-request outcomes, same order as the request slice.
    pub outcomes: Vec<(usize, BitOutcome)>,
}

impl CycleReport {
    /// Tags that won their bit this cycle.
    pub fn winners(&self) -> impl Iterator<Item = usize> + '_ {
        self.outcomes.iter().filter(|(_, o)| *o == BitOutcome::Won).map(|(t, _)| *t)
    }

    /// Number of requests that won this cycle.
    pub fn win_count(&self) -> usize {
        self.outcomes.iter().filter(|(_, o)| *o == BitOutcome::Won).count()
    }
}

/// Cycle-accurate counting device state: `in_reg`, `out_reg`, width, τ.
///
/// ```
/// use rr_tau::CountingDevice;
///
/// // 8 TAS bits, at most 2 confirmed winners — ever.
/// let mut device = CountingDevice::new(8, 2);
/// let report = device.clock_cycle(&[(0, 1), (1, 4), (2, 6)]);
/// assert_eq!(report.win_count(), 2, "the discard phase unset one bit");
/// assert!(device.full());
/// assert_eq!(device.clock_cycle(&[(3, 0)]).win_count(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct CountingDevice {
    width: u32,
    tau: u32,
    in_reg: u64,
    out_reg: u64,
    cycles: u64,
}

impl CountingDevice {
    /// A device with `width` TAS bits admitting at most `tau` winners.
    ///
    /// # Panics
    /// Panics if `width == 0`, `width > 64` or `tau > width`.
    pub fn new(width: u32, tau: u32) -> Self {
        assert!(width > 0, "device needs at least one bit");
        assert!(width <= MAX_WIDTH, "device width {width} exceeds one machine word");
        assert!(tau <= width, "threshold τ={tau} exceeds width {width}");
        Self { width, tau, in_reg: 0, out_reg: 0, cycles: 0 }
    }

    /// Device sized for the paper's `(log n)`-register: `2·⌈log₂ n⌉` bits
    /// with τ = `⌈log₂ n⌉`.
    pub fn log_register(n: usize) -> Self {
        let log_n = (usize::BITS - (n.max(2) - 1).leading_zeros()).max(1);
        Self::new(2 * log_n, log_n)
    }

    /// Number of TAS bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Winner threshold τ.
    pub fn tau(&self) -> u32 {
        self.tau
    }

    /// Confirmed register contents (`out_reg`).
    pub fn confirmed(&self) -> u64 {
        self.out_reg
    }

    /// Number of confirmed winners so far.
    pub fn confirmed_count(&self) -> u32 {
        self.out_reg.count_ones()
    }

    /// Remaining winner quota.
    pub fn remaining_quota(&self) -> u32 {
        self.tau - self.confirmed_count()
    }

    /// Whether the device has reached its τ quota.
    pub fn full(&self) -> bool {
        self.remaining_quota() == 0
    }

    /// Clock cycles executed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Whether `bit` is confirmed set.
    pub fn is_confirmed(&self, bit: usize) -> bool {
        assert!((bit as u32) < self.width);
        self.out_reg >> bit & 1 == 1
    }

    fn mask(&self) -> u64 {
        if self.width == 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        }
    }

    /// Executes one clock cycle over `requests`.
    ///
    /// Per-bit arbitration among same-cycle requesters picks the first in
    /// slice order (the paper allows "an arbitrary one"; the scheduler
    /// controls arrival order, so this is adversary-compatible).
    ///
    /// # Panics
    /// Panics if any requested bit is out of range.
    pub fn clock_cycle(&mut self, requests: &[Request]) -> CycleReport {
        let before = self.in_reg;
        debug_assert_eq!(self.in_reg, self.out_reg, "registers must agree between cycles");
        // Line 1: allowed_bits ← τ − popcnt(in_reg).
        let allowed = self.tau - self.in_reg.count_ones();

        // Phase 1 (lines 2–3): preliminary TAS of each requested bit.
        let mut prelim_winner: Vec<Option<usize>> = vec![None; requests.len()];
        for (slot, &(_, bit)) in requests.iter().enumerate() {
            assert!((bit as u32) < self.width, "bit {bit} out of range (width {})", self.width);
            let b = 1u64 << bit;
            if self.in_reg & b == 0 {
                self.in_reg |= b;
                prelim_winner[slot] = Some(bit);
            }
        }

        // Phase 2 (lines 4–14): discard supernumerary new bits.
        let new_bits = self.in_reg ^ self.out_reg;
        let (kept, discarded) = if self.in_reg.count_ones() > self.tau {
            let kept = keep_lowest(new_bits, allowed);
            (kept, new_bits & !kept)
        } else {
            (new_bits, 0)
        };
        self.out_reg |= kept;
        self.in_reg = self.out_reg;

        debug_assert!(self.out_reg.count_ones() <= self.tau, "τ invariant violated");
        debug_assert_eq!(self.out_reg & !self.mask(), 0, "bits outside the window");

        let outcomes = requests
            .iter()
            .zip(&prelim_winner)
            .map(|(&(tag, _), prelim)| {
                let won = prelim.is_some_and(|bit| self.out_reg >> bit & 1 == 1);
                (tag, if won { BitOutcome::Won } else { BitOutcome::Lost })
            })
            .collect();

        let report =
            CycleReport { cycle: self.cycles, before, after: self.out_reg, discarded, outcomes };
        self.cycles += 1;
        report
    }

    /// One-request clock cycle without the [`CycleReport`] allocation —
    /// the single-threaded executors' hot path. State transitions and
    /// outcome are exactly those of `clock_cycle(&[(tag, bit)])`:
    /// a set bit loses; an unset bit wins iff quota remains (with one
    /// request, phase 2 discards the preliminary TAS precisely when the
    /// device was already full).
    ///
    /// # Panics
    /// Panics if `bit` is out of range.
    pub fn request_one(&mut self, bit: usize) -> BitOutcome {
        assert!((bit as u32) < self.width, "bit {bit} out of range (width {})", self.width);
        debug_assert_eq!(self.in_reg, self.out_reg, "registers must agree between cycles");
        self.cycles += 1;
        let b = 1u64 << bit;
        if self.in_reg & b != 0 || self.in_reg.count_ones() >= self.tau {
            return BitOutcome::Lost;
        }
        self.in_reg |= b;
        self.out_reg = self.in_reg;
        BitOutcome::Won
    }
}

/// Keeps the `allowed` set bits of `bits` with the lowest indices; clears
/// the rest. The oracle form of the pseudocode's shift-select.
#[inline]
pub(crate) fn keep_lowest(bits: u64, allowed: u32) -> u64 {
    let mut kept = 0u64;
    let mut rest = bits;
    for _ in 0..allowed {
        if rest == 0 {
            break;
        }
        let lowest = rest & rest.wrapping_neg();
        kept |= lowest;
        rest ^= lowest;
    }
    kept
}

/// Literal register-transfer transcription of pseudocode lines 5–11.
pub mod rtl {
    /// Selects the surviving new bits exactly as the published shift
    /// search does, under MSB-first position numbering (position 1 = most
    /// significant bit of the `width`-bit window).
    ///
    /// `new_bits` is `out_reg xor in_reg` (the bits set this cycle),
    /// `allowed` is `τ − popcnt(old)`. Returns the kept subset of
    /// `new_bits`. Returns `new_bits` unchanged when no discarding is
    /// needed (`popcnt(new_bits) ≤ allowed`), mirroring the pseudocode's
    /// line-4 guard.
    pub fn shift_select(new_bits: u64, allowed: u32, width: u32) -> u64 {
        assert!((1..=64).contains(&width));
        let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        assert_eq!(new_bits & !mask, 0, "new bits outside the window");
        if new_bits.count_ones() <= allowed {
            return new_bits;
        }
        if allowed == 0 {
            return 0;
        }
        // util_reg_0 ← out_reg xor in_reg (line 5). Under MSB-first
        // numbering, the paper's left shift moves bits toward position 1,
        // i.e. toward the window's most significant bit; bits shifted past
        // it fall out of the register.
        let util0 = new_bits;
        for i in 1..=width {
            // Line 7: util_reg_i ← util_reg_0 << (i − 1), within the window.
            let util_i = (util0 << (i - 1)) & mask;
            // Line 8: popcnt(util_reg_i) = allowed_bits.
            // Line 9: bt(util_reg_i, 1) — position 1 is the window MSB.
            let msb_set = util_i >> (width - 1) & 1 == 1;
            if util_i.count_ones() == allowed && msb_set {
                // Line 10: shift back.
                return util_i >> (i - 1);
            }
        }
        unreachable!(
            "shift search always terminates: shifting until the \
             (popcnt−allowed+1)-th highest new bit reaches position 1 \
             satisfies both conditions"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_up_to_tau() {
        let mut d = CountingDevice::new(8, 3);
        let r = d.clock_cycle(&[(0, 0), (1, 1), (2, 2)]);
        assert_eq!(r.win_count(), 3);
        assert!(d.full());
        assert_eq!(d.confirmed(), 0b111);
    }

    #[test]
    fn rejects_beyond_tau_in_one_cycle() {
        let mut d = CountingDevice::new(8, 2);
        let r = d.clock_cycle(&[(10, 5), (11, 1), (12, 7), (13, 3)]);
        assert_eq!(r.win_count(), 2);
        // Lowest-indexed new bits survive: bits 1 and 3.
        assert_eq!(d.confirmed(), 0b0000_1010);
        assert_eq!(r.discarded, (1 << 5) | (1 << 7));
        let winners: Vec<_> = r.winners().collect();
        assert_eq!(winners, vec![11, 13]);
    }

    #[test]
    fn rejects_beyond_tau_across_cycles() {
        let mut d = CountingDevice::new(8, 2);
        assert_eq!(d.clock_cycle(&[(0, 0)]).win_count(), 1);
        assert_eq!(d.clock_cycle(&[(1, 1)]).win_count(), 1);
        assert_eq!(d.clock_cycle(&[(2, 2)]).win_count(), 0);
        assert_eq!(d.confirmed(), 0b11);
        assert_eq!(d.remaining_quota(), 0);
    }

    #[test]
    fn same_bit_single_winner() {
        let mut d = CountingDevice::new(8, 8);
        let r = d.clock_cycle(&[(0, 4), (1, 4), (2, 4)]);
        assert_eq!(r.win_count(), 1);
        assert_eq!(r.outcomes[0], (0, BitOutcome::Won));
        assert_eq!(r.outcomes[1], (1, BitOutcome::Lost));
        assert_eq!(r.outcomes[2], (2, BitOutcome::Lost));
    }

    #[test]
    fn already_set_bit_fails() {
        let mut d = CountingDevice::new(8, 8);
        d.clock_cycle(&[(0, 4)]);
        let r = d.clock_cycle(&[(1, 4)]);
        assert_eq!(r.win_count(), 0);
    }

    #[test]
    fn old_bits_never_discarded() {
        let mut d = CountingDevice::new(16, 3);
        d.clock_cycle(&[(0, 10), (1, 12)]);
        // Quota 1 left; request three low bits — only one may win, and
        // bits 10/12 must survive.
        let r = d.clock_cycle(&[(2, 0), (3, 1), (4, 2)]);
        assert_eq!(r.win_count(), 1);
        assert!(d.is_confirmed(10));
        assert!(d.is_confirmed(12));
        assert!(d.is_confirmed(0));
        assert_eq!(d.confirmed_count(), 3);
    }

    #[test]
    fn empty_cycle_is_noop() {
        let mut d = CountingDevice::new(8, 4);
        d.clock_cycle(&[(0, 0)]);
        let before = d.confirmed();
        let r = d.clock_cycle(&[]);
        assert_eq!(d.confirmed(), before);
        assert_eq!(r.win_count(), 0);
        assert_eq!(d.cycles(), 2);
    }

    #[test]
    fn log_register_dimensions() {
        let d = CountingDevice::log_register(1024);
        assert_eq!(d.width(), 20);
        assert_eq!(d.tau(), 10);
        let d = CountingDevice::log_register(1000);
        assert_eq!(d.width(), 20); // ⌈log₂ 1000⌉ = 10
        let d = CountingDevice::log_register(2);
        assert_eq!(d.width(), 2);
        assert_eq!(d.tau(), 1);
    }

    #[test]
    fn full_width_device() {
        let mut d = CountingDevice::new(64, 64);
        let reqs: Vec<_> = (0..64).map(|b| (b, b)).collect();
        assert_eq!(d.clock_cycle(&reqs).win_count(), 64);
        assert_eq!(d.confirmed(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "exceeds width")]
    fn tau_bounded_by_width() {
        CountingDevice::new(8, 9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_bounds_checked() {
        CountingDevice::new(8, 4).clock_cycle(&[(0, 8)]);
    }

    #[test]
    fn keep_lowest_oracle() {
        assert_eq!(keep_lowest(0b1011_0100, 2), 0b0001_0100);
        assert_eq!(keep_lowest(0b1011_0100, 0), 0);
        assert_eq!(keep_lowest(0b1011_0100, 10), 0b1011_0100);
        assert_eq!(keep_lowest(0, 3), 0);
    }

    #[test]
    fn rtl_matches_hand_example() {
        // Example from the module docs: width 4, new bits at positions
        // {1, 4} (u64 bits {3, 0}), allowed 1 ⇒ keep u64 bit 0.
        assert_eq!(rtl::shift_select(0b1001, 1, 4), 0b0001);
    }

    #[test]
    fn rtl_no_discard_needed() {
        assert_eq!(rtl::shift_select(0b0110, 2, 4), 0b0110);
        assert_eq!(rtl::shift_select(0b0110, 3, 4), 0b0110);
        assert_eq!(rtl::shift_select(0, 0, 8), 0);
    }

    #[test]
    fn rtl_allowed_zero() {
        assert_eq!(rtl::shift_select(0b0110, 0, 4), 0);
    }

    #[test]
    fn report_bookkeeping() {
        let mut d = CountingDevice::new(8, 1);
        let r = d.clock_cycle(&[(7, 2), (9, 6)]);
        assert_eq!(r.cycle, 0);
        assert_eq!(r.before, 0);
        assert_eq!(r.after, 0b100);
        assert_eq!(r.discarded, 1 << 6);
        assert_eq!(r.winners().collect::<Vec<_>>(), vec![7]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The literal RTL shift-select and the keep-lowest oracle agree
        /// on every input where discarding is required.
        #[test]
        fn rtl_equals_oracle(width in 1u32..=64, bits: u64, allowed in 0u32..=64) {
            let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
            let bits = bits & mask;
            let allowed = allowed.min(width);
            let rtl_result = rtl::shift_select(bits, allowed, width);
            let oracle = if bits.count_ones() <= allowed {
                bits
            } else {
                keep_lowest(bits, allowed)
            };
            prop_assert_eq!(rtl_result, oracle);
        }

        /// τ-invariant and monotonicity hold under arbitrary request
        /// sequences.
        #[test]
        fn device_invariants(
            width in 1u32..=32,
            tau_frac in 0u32..=32,
            cycles in proptest::collection::vec(
                proptest::collection::vec((0usize..1000, 0u32..32), 0..10), 0..20),
        ) {
            let tau = tau_frac.min(width);
            let mut d = CountingDevice::new(width, tau);
            let mut prev = 0u64;
            let mut total_wins = 0usize;
            for batch in cycles {
                let reqs: Vec<_> = batch
                    .into_iter()
                    .map(|(tag, bit)| (tag, (bit % width) as usize))
                    .collect();
                let r = d.clock_cycle(&reqs);
                total_wins += r.win_count();
                // Monotone: confirmed bits never disappear.
                prop_assert_eq!(d.confirmed() & prev, prev);
                // τ-invariant.
                prop_assert!(d.confirmed_count() <= tau);
                prev = d.confirmed();
            }
            // Exactly one win per confirmed bit.
            prop_assert_eq!(total_wins as u32, d.confirmed_count());
        }

        /// With quota available and distinct fresh bits requested, all
        /// requests win.
        #[test]
        fn fresh_distinct_requests_win(width in 2u32..=64, k in 1u32..=8) {
            let k = k.min(width);
            let mut d = CountingDevice::new(width, width);
            let reqs: Vec<_> = (0..k).map(|b| (b as usize, b as usize)).collect();
            let r = d.clock_cycle(&reqs);
            prop_assert_eq!(r.win_count(), k as usize);
        }

        /// Batched cycles and single-request cycles admit the same
        /// *number* of processes when all requested bits are distinct.
        #[test]
        fn batching_preserves_admission_count(
            width in 4u32..=64,
            tau_raw in 1u32..=64,
            k in 1usize..64,
        ) {
            let tau = tau_raw.min(width);
            let k = k.min(width as usize);
            // Batch: all k distinct bits in one cycle.
            let mut batched = CountingDevice::new(width, tau);
            let reqs: Vec<_> = (0..k).map(|p| (p, p)).collect();
            let batch_wins = batched.clock_cycle(&reqs).win_count();
            // Serial: one request per cycle.
            let mut serial = CountingDevice::new(width, tau);
            let serial_wins =
                (0..k).map(|p| serial.clock_cycle(&[(p, p)]).win_count()).sum::<usize>();
            prop_assert_eq!(batch_wins, k.min(tau as usize));
            prop_assert_eq!(serial_wins, k.min(tau as usize));
        }
    }
}
