//! Parameterizations of the paper's constructions.
//!
//! * [`TightPlan`] — the cluster layout of §III (Definition 2), in both
//!   the paper-exact form and the *calibrated* form described in
//!   README "Deviations from the paper", item 1, whose cluster sizes track the
//!   surviving population so that the total auxiliary array is exactly
//!   the paper's stated `2n` TAS bits and all `n` names get covered.
//! * [`Lemma6Schedule`] / [`Lemma8Schedule`] — round/step budgets of the
//!   two loose-renaming protocols.
//! * [`FinisherPlan`] — segment layout of the \[8\]-style finisher used by
//!   Corollaries 7 and 9.
//!
//! Everything here is pure arithmetic; the algorithms consume these plans
//! verbatim, and the unit tests pin the identities the analysis relies on
//! (e.g. `Σ cluster bits ≈ 2n` for the calibrated plan).

use rr_analysis::ballsbins::ceil_log2;

/// Which §III parameterization to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TightVariant {
    /// Definition 2 verbatim: `c_i = n/(2c)^i`,
    /// `R = (log n − log log n − 1)/(log c + 1)` rounds. Under-provisions
    /// names (README "Deviations from the paper", item 1); processes
    /// rely on the fallback scan.
    PaperExact,
    /// Cluster sizes matched to the surviving population,
    /// `c_i = ρ_i/(2c)` with `ρ_{i+1} = ρ_i(1 − 1/(4c))`, which makes
    /// `Σ c_i = 2n` exactly and covers all names. The variant we believe
    /// the paper intends; used for the Theorem 5 experiment.
    Calibrated,
}

/// One cluster: a contiguous run of `(log n)`-registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cluster {
    /// Index of the first register in the cluster.
    pub first_register: usize,
    /// Number of registers.
    pub registers: usize,
}

impl Cluster {
    /// Number of device TAS bits in this cluster (each register has `2L`).
    pub fn bits(&self, l: u32) -> usize {
        self.registers * 2 * l as usize
    }
}

/// The full layout for a tight-renaming run.
#[derive(Debug, Clone)]
pub struct TightPlan {
    /// Number of processes (= number of names; tight renaming).
    pub n: usize,
    /// `L = ⌈log₂ n⌉`: τ of a full register; device width is `2L`.
    pub l: u32,
    /// Per-register winner quota; all `L` except possibly the last.
    pub register_tau: Vec<u32>,
    /// The probing clusters, in round order.
    pub clusters: Vec<Cluster>,
    /// Which parameterization produced this plan.
    pub variant: TightVariant,
    /// The constant `c` of Definition 2 / Lemma 3 (`c ≥ 2ℓ+2` for the
    /// w.h.p. guarantee with exponent ℓ).
    pub c: u32,
}

impl TightPlan {
    /// Smallest `n` [`TightPlan::calibrated`] accepts.
    pub const MIN_N_CALIBRATED: usize = 2;

    /// Smallest `n` [`TightPlan::paper_exact`] accepts (`log n ≥ 2`).
    pub const MIN_N_PAPER_EXACT: usize = 4;

    /// Builds the calibrated plan (see [`TightVariant::Calibrated`]).
    ///
    /// # Panics
    /// Panics if `n < 2` or `c < 1`.
    pub fn calibrated(n: usize, c: u32) -> Self {
        assert!(n >= Self::MIN_N_CALIBRATED, "need at least two processes");
        assert!(c >= 1);
        let l = ceil_log2(n) as u32;
        let register_tau = Self::register_taus(n, l);
        let total_regs = register_tau.len();

        let mut clusters = Vec::new();
        let mut first = 0usize;
        // ρ_i: processes still unnamed entering round i; each round the
        // cluster offers b_i·L names and (w.h.p.) hands all of them out.
        let mut rho = n as f64;
        while first < total_regs {
            // c_i = ρ_i/(2c) bits ⇒ b_i = c_i/(2L) = ρ_i/(4cL) registers,
            // so each register sees ρ_i/b_i = 4cL expected requests —
            // exactly the premise of Lemma 4. Small ρ yields singleton
            // clusters (still Lemma-3-saturated: more requesters than
            // quota), ending with the paper's final round of one
            // register, which processes sweep systematically.
            let ideal = rho / (4.0 * c as f64 * l as f64);
            let b = (ideal.round() as usize).clamp(1, total_regs - first);
            clusters.push(Cluster { first_register: first, registers: b });
            first += b;
            rho = (rho - (b as f64 * l as f64)).max(l as f64);
        }

        Self { n, l, register_tau, clusters, variant: TightVariant::Calibrated, c }
    }

    /// Builds the paper-exact plan (Definition 2).
    ///
    /// Registers not reachable through any cluster round (the paper
    /// under-provisions; README "Deviations from the paper", item 1)
    /// still exist and hold names — the
    /// fallback scan reaches them.
    pub fn paper_exact(n: usize, c: u32) -> Self {
        assert!(n >= Self::MIN_N_PAPER_EXACT, "Definition 2 needs log n ≥ 2");
        assert!(c >= 1);
        let l = ceil_log2(n) as u32;
        let register_tau = Self::register_taus(n, l);
        let total_regs = register_tau.len();

        // R = (log n − log log n − 1)/(log c + 1)  [Definition 2(1); the
        // derivation in Lemma 4(1) shows the denominator is log(2c)].
        let log_n = l as f64;
        let log_log_n = (l as f64).log2();
        let r = ((log_n - log_log_n - 1.0) / ((c as f64).log2() + 1.0)).floor().max(1.0) as usize;

        let mut clusters = Vec::new();
        let mut first = 0usize;
        for i in 1..=r {
            if first >= total_regs {
                break;
            }
            // c_i = n/(2c)^i bits ⇒ b_i = c_i / (2L) registers.
            let bits = n as f64 / (2.0 * c as f64).powi(i as i32);
            let b = ((bits / (2.0 * l as f64)).floor() as usize).clamp(1, total_regs - first);
            clusters.push(Cluster { first_register: first, registers: b });
            first += b;
        }

        Self { n, l, register_tau, clusters, variant: TightVariant::PaperExact, c }
    }

    /// Per-register quotas covering exactly `n` names.
    fn register_taus(n: usize, l: u32) -> Vec<u32> {
        let regs = n.div_ceil(l as usize);
        let mut taus = vec![l; regs];
        let last = n - (regs - 1) * l as usize;
        taus[regs - 1] = last as u32;
        taus
    }

    /// Number of registers.
    pub fn n_registers(&self) -> usize {
        self.register_tau.len()
    }

    /// Total names covered (must equal `n`).
    pub fn total_names(&self) -> usize {
        self.register_tau.iter().map(|&t| t as usize).sum()
    }

    /// Total device TAS bits across all registers (the paper's `|T_aux|`).
    pub fn total_bits(&self) -> usize {
        self.n_registers() * 2 * self.l as usize
    }

    /// Device TAS bits reachable through cluster rounds.
    pub fn clustered_bits(&self) -> usize {
        self.clusters.iter().map(|cl| cl.bits(self.l)).sum()
    }

    /// Number of probing rounds.
    pub fn rounds(&self) -> usize {
        self.clusters.len()
    }

    /// Clusters probed with random requests. In the calibrated plan the
    /// last cluster is the paper's *final round* and is swept
    /// systematically instead of probed; in the paper-exact plan every
    /// Definition 2 cluster is probed and the sweep only runs afterwards.
    pub fn probing_rounds(&self) -> usize {
        match self.variant {
            TightVariant::Calibrated => self.clusters.len().saturating_sub(1),
            TightVariant::PaperExact => self.clusters.len(),
        }
    }

    /// First name handed out by register `r`.
    pub fn base_name(&self, r: usize) -> usize {
        r * self.l as usize
    }
}

/// Round/step schedule of Lemma 6.
#[derive(Debug, Clone, PartialEq)]
pub struct Lemma6Schedule {
    /// `ℓ` — the exponent in the name-space/step trade-off.
    pub ell: u32,
    /// `ℓ · ⌈log log log n⌉` rounds.
    pub rounds: u32,
    /// Round `i` (1-based) performs `2^i` probes.
    pub total_steps: u64,
    /// The w.h.p. bound on unnamed processes: `2n/(log log n)^ℓ`.
    pub unnamed_bound: f64,
}

impl Lemma6Schedule {
    /// Smallest `n` [`Lemma6Schedule::new`] accepts.
    pub const MIN_N: usize = 4;

    /// Schedule for `n` processes with exponent `ell`.
    ///
    /// # Panics
    /// Panics if `n < 4` or `ell == 0`.
    pub fn new(n: usize, ell: u32) -> Self {
        assert!(n >= Self::MIN_N && ell >= 1);
        let log_n = ceil_log2(n) as f64;
        let log_log_n = log_n.log2().max(1.0);
        let log_log_log_n = log_log_n.log2().max(1.0);
        let rounds = ell * (log_log_log_n.ceil() as u32);
        let total_steps = (1..=rounds).map(|i| 1u64 << i).sum();
        let unnamed_bound = 2.0 * n as f64 / log_log_n.powi(ell as i32);
        Self { ell, rounds, total_steps, unnamed_bound }
    }

    /// Probes performed in round `i` (1-based).
    pub fn steps_in_round(&self, i: u32) -> u64 {
        assert!(i >= 1 && i <= self.rounds);
        1u64 << i
    }
}

/// Phase/cluster schedule of Lemma 8.
///
/// **Correction over the paper** (README "Deviations from the paper",
/// item 4): the paper runs `log log n` phases over clusters of sizes
/// `n/2^j`, whose total capacity is `n − n/log n` — so at least
/// `n/log n` processes must stay unnamed, contradicting the claimed
/// `n/(log n)^ℓ` bound for `ℓ ≥ 2` (the proof bounds empty *registers*,
/// not unnamed *processes*). We run `ℓ·⌈log log n⌉` phases instead:
/// capacity becomes `n·(1 − (log n)^{−ℓ})`, matching the claim, while the
/// step complexity stays `2ℓ²(log log n)² = O((log log n)²)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Lemma8Schedule {
    /// `ℓ` — the exponent in the name-space/step trade-off.
    pub ell: u32,
    /// `ℓ·⌈log log n⌉` phases (the corrected count; the paper says
    /// `log log n`, which is capacity-infeasible for `ℓ ≥ 2`).
    pub phases: u32,
    /// Probes per phase: `2ℓ·⌈log log n⌉`.
    pub steps_per_phase: u64,
    /// `offset[j]`, `size[j]` of cluster `j` (0-based phase index):
    /// cluster `j+1` in paper numbering has `n/2^{j+1}` registers.
    pub cluster_offsets: Vec<usize>,
    /// Cluster sizes.
    pub cluster_sizes: Vec<usize>,
    /// The w.h.p. bound on unnamed processes: `n/(log n)^ℓ`.
    pub unnamed_bound: f64,
}

impl Lemma8Schedule {
    /// Smallest `n` [`Lemma8Schedule::new`] accepts.
    pub const MIN_N: usize = 4;

    /// Schedule for `n` processes with exponent `ell`.
    ///
    /// # Panics
    /// Panics if `n < 4` or `ell == 0`.
    pub fn new(n: usize, ell: u32) -> Self {
        assert!(n >= Self::MIN_N && ell >= 1);
        let log_n = ceil_log2(n) as f64;
        let log_log_n = (log_n.log2().max(1.0)).ceil() as u32;
        // Corrected phase count (see type docs); capped where the
        // geometric sizes bottom out at zero registers.
        let mut phases = ell * log_log_n;
        let steps_per_phase = 2 * ell as u64 * log_log_n as u64;
        let mut cluster_offsets = Vec::with_capacity(phases as usize);
        let mut cluster_sizes = Vec::with_capacity(phases as usize);
        let mut offset = 0usize;
        for j in 1..=phases {
            let size = n >> j;
            if size == 0 {
                phases = j - 1;
                break;
            }
            cluster_offsets.push(offset);
            cluster_sizes.push(size);
            offset += size;
        }
        assert!(offset <= n, "clusters must fit in the n-register name space");
        assert!(phases >= 1, "need at least one phase");
        let unnamed_bound = n as f64 / log_n.powi(ell as i32);
        Self { ell, phases, steps_per_phase, cluster_offsets, cluster_sizes, unnamed_bound }
    }

    /// Total probes a process may spend: `2ℓ²(log log n)²`.
    pub fn total_steps(&self) -> u64 {
        self.steps_per_phase * self.phases as u64
    }

    /// Total register capacity across clusters: `n·(1 − 2^{−phases})`.
    pub fn capacity(&self) -> usize {
        self.cluster_sizes.iter().sum()
    }
}

/// Spare name space sizes of the corollaries.
pub mod spare {
    use super::ceil_log2;

    /// Corollary 7: `2n/(log log n)^ℓ` extra names.
    pub fn cor7(n: usize, ell: u32) -> usize {
        let log_log_n = (ceil_log2(n) as f64).log2().max(1.0);
        (2.0 * n as f64 / log_log_n.powi(ell as i32)).ceil() as usize
    }

    /// Corollary 9: `2n/(log n)^ℓ` extra names.
    pub fn cor9(n: usize, ell: u32) -> usize {
        let log_n = ceil_log2(n) as f64;
        (2.0 * n as f64 / log_n.powi(ell as i32)).ceil() as usize
    }
}

/// Segment layout of the \[8\]-style finisher (README "Deviations from
/// the paper", item 3): geometric
/// windows with linearly growing probe budgets, then a deterministic
/// full-scan fallback.
#[derive(Debug, Clone, PartialEq)]
pub struct FinisherPlan {
    /// Total spare names available.
    pub spare: usize,
    /// `offset[j]`, within the spare space, of segment `j`.
    pub offsets: Vec<usize>,
    /// Segment sizes, geometrically decreasing.
    pub sizes: Vec<usize>,
    /// Probes allotted in segment `j` (grows linearly: `j + 2`).
    pub probes: Vec<u32>,
}

impl FinisherPlan {
    /// Plan for a spare space of `spare` names.
    ///
    /// # Panics
    /// Panics if `spare == 0`.
    pub fn new(spare: usize) -> Self {
        assert!(spare > 0, "finisher needs a non-empty spare space");
        let mut offsets = Vec::new();
        let mut sizes = Vec::new();
        let mut probes = Vec::new();
        let mut offset = 0usize;
        let mut j = 1u32;
        loop {
            let size = spare >> j;
            if size < 8 || offset + size > spare {
                break;
            }
            offsets.push(offset);
            sizes.push(size);
            probes.push(j + 2);
            offset += size;
            j += 1;
        }
        Self { spare, offsets, sizes, probes }
    }

    /// Number of probing segments (0 for tiny spares: straight to the
    /// fallback scan).
    pub fn segments(&self) -> usize {
        self.sizes.len()
    }

    /// Total randomized probes before the fallback: `Σ (j+2) =
    /// O((log log spare)²)` … in fact `O((log spare)²)` segments-wise;
    /// the *effective* count is doubly logarithmic because w.h.p. a
    /// process succeeds within the first `O(log log)` segments (contention
    /// decays doubly exponentially; README "Deviations from the paper",
    /// item 3).
    pub fn max_random_probes(&self) -> u64 {
        self.probes.iter().map(|&p| p as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_covers_exactly_n_names() {
        for n in [16usize, 100, 1 << 10, 12_345, 1 << 16] {
            let plan = TightPlan::calibrated(n, 4);
            assert_eq!(plan.total_names(), n, "n = {n}");
            // Every register reachable through some cluster.
            let covered: usize = plan.clusters.iter().map(|c| c.registers).sum();
            assert_eq!(covered, plan.n_registers(), "n = {n}");
            // Clusters are contiguous and ordered.
            let mut expect = 0;
            for c in &plan.clusters {
                assert_eq!(c.first_register, expect);
                expect += c.registers;
            }
        }
    }

    #[test]
    fn calibrated_total_bits_close_to_2n() {
        // Σ c_i = 2n is the identity that motivated the calibration; with
        // integer rounding we ask for ±20%.
        for n in [1usize << 12, 1 << 16, 1 << 18] {
            let plan = TightPlan::calibrated(n, 4);
            let bits = plan.total_bits() as f64;
            assert!(
                (bits / (2.0 * n as f64) - 1.0).abs() < 0.2,
                "n = {n}: bits = {bits}, 2n = {}",
                2 * n
            );
        }
    }

    #[test]
    fn calibrated_rounds_are_logarithmic() {
        // Rounds ≈ 4c·ln(n/L); check O(log n) growth with sane constants.
        // Theory: ρ decays by (1 − 1/4c) per round, so rounds ≈
        // 4c·ln(n/(6cL)) + 1. Check the formula within 2× both ways, and
        // that the count is O(log n) with the predicted constant.
        for exp in [10u32, 14, 20] {
            let n = 1usize << exp;
            let c = 4u32;
            let plan = TightPlan::calibrated(n, c);
            let l = plan.l as f64;
            let predicted = 4.0 * c as f64 * (n as f64 / (6.0 * c as f64 * l)).ln().max(0.1) + 1.0;
            let rounds = plan.rounds() as f64;
            assert!(
                rounds < predicted * 2.0 + 4.0 && rounds > predicted / 3.0,
                "n=2^{exp}: rounds {rounds} vs predicted {predicted:.1}"
            );
        }
        let r10 = TightPlan::calibrated(1 << 10, 4).rounds();
        let r20 = TightPlan::calibrated(1 << 20, 4).rounds();
        assert!(r20 > r10, "rounds must grow with n");
    }

    #[test]
    fn calibrated_first_cluster_saturation_ratio() {
        // First cluster: n processes over b_1 = n/(4cL) registers ⇒ 4cL
        // expected requests per register.
        let n = 1 << 16;
        let c = 4;
        let plan = TightPlan::calibrated(n, c);
        let b1 = plan.clusters[0].registers as f64;
        let per_register = n as f64 / b1;
        let target = 4.0 * c as f64 * plan.l as f64;
        assert!((per_register / target - 1.0).abs() < 0.1, "{per_register} vs {target}");
    }

    #[test]
    fn paper_exact_matches_definition_2() {
        let n = 1 << 16;
        let c = 4;
        let plan = TightPlan::paper_exact(n, c);
        assert_eq!(plan.l, 16);
        // R = (16 − 4 − 1)/(2 + 1) = 3 rounds (floor).
        assert_eq!(plan.rounds(), 3);
        // b_1 = n/(2c · 2L) = 65536/(8·32) = 256.
        assert_eq!(plan.clusters[0].registers, 256);
        // b_2 = n/((2c)² · 2L) = 65536/(64·32) = 32.
        assert_eq!(plan.clusters[1].registers, 32);
        // b_3 = 65536/(512·32) = 4.
        assert_eq!(plan.clusters[2].registers, 4);
        // Under-provisioning: clusters cover far fewer registers than
        // exist — the documented gap.
        let covered: usize = plan.clusters.iter().map(|cl| cl.registers).sum();
        assert!(covered < plan.n_registers() / 2);
        assert_eq!(plan.total_names(), n);
    }

    #[test]
    fn last_register_tau_handles_remainder() {
        let plan = TightPlan::calibrated(100, 4);
        // L = 7, regs = ⌈100/7⌉ = 15, last τ = 100 − 14·7 = 2.
        assert_eq!(plan.l, 7);
        assert_eq!(plan.n_registers(), 15);
        assert_eq!(*plan.register_tau.last().unwrap(), 2);
        assert_eq!(plan.total_names(), 100);
        assert_eq!(plan.base_name(3), 21);
    }

    #[test]
    fn lemma6_schedule_shape() {
        let s = Lemma6Schedule::new(1 << 20, 1);
        // log n = 20, log log n ≈ 4.32, log log log ≈ 2.11 ⇒ 3 rounds.
        assert_eq!(s.rounds, 3);
        assert_eq!(s.total_steps, 2 + 4 + 8);
        assert_eq!(s.steps_in_round(1), 2);
        assert_eq!(s.steps_in_round(3), 8);
        // Total steps ≲ (log log n)^ℓ bound claimed in the proof — the
        // sum Σ2^i = 2^{rounds+1}−2 with rounds = ℓ·⌈lll n⌉.
        let s2 = Lemma6Schedule::new(1 << 20, 2);
        assert_eq!(s2.rounds, 6);
        assert_eq!(s2.total_steps, 126);
    }

    #[test]
    fn lemma6_unnamed_bound_formula() {
        let n = 1 << 16;
        let s = Lemma6Schedule::new(n, 2);
        let log_log_n: f64 = 4.0; // log2(16)
        assert!((s.unnamed_bound - 2.0 * n as f64 / log_log_n.powi(2)).abs() < 1e-9);
    }

    #[test]
    fn lemma8_schedule_shape() {
        let n = 1 << 16;
        let s = Lemma8Schedule::new(n, 1);
        assert_eq!(s.phases, 4); // ⌈log₂ log₂ 65536⌉ = ⌈log₂ 16⌉ = 4
        assert_eq!(s.steps_per_phase, 8); // 2·1·4
        assert_eq!(s.cluster_sizes, vec![n / 2, n / 4, n / 8, n / 16]);
        assert_eq!(s.cluster_offsets, vec![0, n / 2, 3 * n / 4, 7 * n / 8]);
        assert_eq!(s.total_steps(), 32);
        let s20 = Lemma8Schedule::new(1 << 20, 2);
        assert_eq!(s20.phases, 10); // 2·⌈log₂ 20⌉ = 10 (corrected count)
        assert_eq!(s20.steps_per_phase, 20); // 2·2·5
        assert_eq!(s20.cluster_sizes.len(), 10);
        // Capacity now supports the n/(log n)^ℓ claim.
        let n = 1usize << 20;
        let uncovered = n - s20.capacity();
        assert!((uncovered as f64) <= n as f64 / (20.0f64).powi(2) + 1.0, "uncovered {uncovered}");
    }

    #[test]
    fn lemma8_clusters_fit_in_namespace() {
        for n in [16usize, 1 << 10, 1 << 20] {
            let s = Lemma8Schedule::new(n, 3);
            let end = s.cluster_offsets.last().unwrap() + s.cluster_sizes.last().unwrap();
            assert!(end <= n);
        }
    }

    #[test]
    fn spare_sizes() {
        let n = 1 << 16;
        // log log n = 4 ⇒ cor7(ℓ=1) = 2n/4 = n/2.
        assert_eq!(spare::cor7(n, 1), n / 2);
        assert_eq!(spare::cor7(n, 2), n / 8);
        // log n = 16 ⇒ cor9(ℓ=1) = 2n/16 = n/8.
        assert_eq!(spare::cor9(n, 1), n / 8);
        assert_eq!(spare::cor9(n, 2), n / 128);
        // Spare shrinks with ℓ — the paper's trade-off.
        assert!(spare::cor9(n, 3) < spare::cor9(n, 2));
    }

    #[test]
    fn finisher_plan_fits_and_decays() {
        let plan = FinisherPlan::new(1 << 12);
        assert!(plan.segments() >= 3);
        let used: usize = plan.sizes.iter().sum();
        assert!(used <= plan.spare);
        // Geometric decay.
        for w in plan.sizes.windows(2) {
            assert!(w[1] < w[0]);
        }
        // Probe budgets grow linearly.
        assert_eq!(plan.probes[0], 3);
        assert_eq!(plan.probes[1], 4);
        assert!(plan.max_random_probes() < 200);
    }

    #[test]
    fn finisher_tiny_spare_goes_straight_to_fallback() {
        let plan = FinisherPlan::new(7);
        assert_eq!(plan.segments(), 0);
        assert_eq!(plan.max_random_probes(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every calibrated plan covers exactly n names with contiguous,
        /// exhaustive clusters and a sane register geometry.
        #[test]
        fn calibrated_plan_invariants(n in 2usize..100_000, c in 1u32..10) {
            let plan = TightPlan::calibrated(n, c);
            prop_assert_eq!(plan.total_names(), n);
            prop_assert_eq!(plan.n_registers(), n.div_ceil(plan.l as usize));
            let mut next = 0usize;
            for cl in &plan.clusters {
                prop_assert_eq!(cl.first_register, next);
                prop_assert!(cl.registers >= 1);
                next += cl.registers;
            }
            prop_assert_eq!(next, plan.n_registers());
            // Per-register quotas are in (0, L] and only the last differs.
            for (i, &t) in plan.register_tau.iter().enumerate() {
                prop_assert!(t >= 1 && t <= plan.l);
                if i + 1 < plan.register_tau.len() {
                    prop_assert_eq!(t, plan.l);
                }
            }
        }

        /// Paper-exact plans respect Definition 2's shapes.
        #[test]
        fn paper_plan_invariants(n in 4usize..100_000, c in 1u32..10) {
            let plan = TightPlan::paper_exact(n, c);
            prop_assert_eq!(plan.total_names(), n);
            // Cluster sizes weakly decrease (geometric decay, clamped).
            for w in plan.clusters.windows(2) {
                prop_assert!(w[1].registers <= w[0].registers);
            }
            prop_assert!(plan.probing_rounds() == plan.clusters.len());
        }

        /// Lemma 6 schedules: total steps are the exact geometric sum and
        /// the unnamed bound is monotone in ℓ.
        #[test]
        fn lemma6_schedule_invariants(n in 4usize..1_000_000, ell in 1u32..5) {
            let s = Lemma6Schedule::new(n, ell);
            let total: u64 = (1..=s.rounds).map(|i| s.steps_in_round(i)).sum();
            prop_assert_eq!(total, s.total_steps);
            if ell > 1 {
                let weaker = Lemma6Schedule::new(n, ell - 1);
                prop_assert!(s.unnamed_bound <= weaker.unnamed_bound);
                prop_assert!(s.total_steps >= weaker.total_steps);
            }
        }

        /// Lemma 8 schedules: clusters fit in [0, n), are disjoint, decay
        /// geometrically, and capacity matches the phase count.
        #[test]
        fn lemma8_schedule_invariants(n in 4usize..1_000_000, ell in 1u32..5) {
            let s = Lemma8Schedule::new(n, ell);
            prop_assert_eq!(s.cluster_offsets.len(), s.phases as usize);
            let mut end = 0usize;
            for (j, (&off, &size)) in
                s.cluster_offsets.iter().zip(&s.cluster_sizes).enumerate()
            {
                prop_assert_eq!(off, end);
                prop_assert_eq!(size, n >> (j + 1));
                prop_assert!(size >= 1);
                end = off + size;
            }
            prop_assert!(end <= n);
            prop_assert_eq!(s.capacity(), end);
        }

        /// Finisher plans: segments fit in the spare space, decay, and
        /// leave the whole space reachable by the sweep.
        #[test]
        fn finisher_plan_invariants(spare in 1usize..1_000_000) {
            let plan = FinisherPlan::new(spare);
            let used: usize = plan.sizes.iter().sum();
            prop_assert!(used <= spare);
            for w in plan.sizes.windows(2) {
                prop_assert!(w[1] < w[0]);
            }
            for (j, &p) in plan.probes.iter().enumerate() {
                prop_assert_eq!(p, j as u32 + 3);
            }
        }

        /// Spare sizes shrink with ℓ and stay o(n)-sized.
        #[test]
        fn spare_sizes_monotone(n in 16usize..1_000_000, ell in 1u32..4) {
            prop_assert!(spare::cor7(n, ell + 1) <= spare::cor7(n, ell));
            prop_assert!(spare::cor9(n, ell + 1) <= spare::cor9(n, ell));
            prop_assert!(spare::cor9(n, ell) <= spare::cor7(n, ell));
            prop_assert!(spare::cor7(n, 1) <= 2 * n);
        }
    }
}
