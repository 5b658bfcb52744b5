//! Moir–Anderson splitter-grid renaming: deterministic, wait-free, and
//! built from **read/write registers only** — no test-and-set at all.
//!
//! This is the classical deterministic comparison point for the paper's
//! model discussion: renaming *without* TAS costs a quadratic name space
//! (`m = n(n+1)/2`) and Θ(n) steps, which is exactly the regime the
//! randomized TAS-based protocols escape.
//!
//! A *splitter* (Lamport/Moir–Anderson) is two registers `X` (process id)
//! and `Y` (bool) with the wait-free procedure
//!
//! ```text
//! X ← p
//! if Y: return Right
//! Y ← true
//! if X = p: return Stop     else: return Down
//! ```
//!
//! Among the `j` processes that enter a splitter, at most one *stops*,
//! at most `j−1` leave `Right` and at most `j−1` leave `Down` — so in a
//! triangular grid of splitters (move right on `Right`, down on `Down`)
//! every process stops within `n−1` moves, and the stop position is its
//! unique name. Every register access is charged as one step (four per
//! splitter visit), faithful to the read/write cost model.

use rr_renaming::traits::RenamingProtocol;
use rr_sched::ids::Pid;
use rr_sched::process::{Process, StepOutcome};
use rr_shmem::Access;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Sentinel for an unwritten `X` register.
const NOBODY: usize = usize::MAX;

/// One splitter: the two read/write registers.
#[derive(Debug)]
pub struct Splitter {
    x: AtomicUsize,
    y: AtomicBool,
}

impl Default for Splitter {
    fn default() -> Self {
        Self { x: AtomicUsize::new(NOBODY), y: AtomicBool::new(false) }
    }
}

/// Result of a completed splitter visit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitOutcome {
    /// This process owns the splitter's grid cell.
    Stop,
    /// Leave right.
    Right,
    /// Leave down.
    Down,
}

impl Splitter {
    /// Runs the whole splitter procedure at once (test helper; the
    /// [`GridProcess`] state machine performs it register by register).
    pub fn split(&self, pid: usize) -> SplitOutcome {
        self.x.store(pid, Ordering::SeqCst);
        if self.y.load(Ordering::SeqCst) {
            return SplitOutcome::Right;
        }
        self.y.store(true, Ordering::SeqCst);
        if self.x.load(Ordering::SeqCst) == pid {
            SplitOutcome::Stop
        } else {
            SplitOutcome::Down
        }
    }
}

/// The triangular grid: cells `(r, d)` with `r + d < n`.
#[derive(Debug)]
pub struct GridShared {
    n: usize,
    /// Row-major triangular storage.
    splitters: Vec<Splitter>,
}

impl GridShared {
    /// Grid for `n` processes.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        let cells = n * (n + 1) / 2;
        Self { n, splitters: (0..cells).map(|_| Splitter::default()).collect() }
    }

    /// Flat index of cell `(r, d)` (diagonal enumeration — also the name
    /// assigned to a process stopping there).
    pub fn cell_index(&self, right: usize, down: usize) -> usize {
        let diag = right + down;
        debug_assert!(diag < self.n, "walked off the grid: ({right}, {down})");
        diag * (diag + 1) / 2 + down
    }

    /// The splitter at `(r, d)`.
    pub fn splitter(&self, right: usize, down: usize) -> &Splitter {
        &self.splitters[self.cell_index(right, down)]
    }

    /// Total cells (= name-space size).
    pub fn cells(&self) -> usize {
        self.splitters.len()
    }
}

/// Where a process is inside the four-access splitter procedure.
#[derive(Debug, Clone, Copy)]
enum Micro {
    WriteX,
    ReadY,
    WriteY,
    ReadX,
}

/// One grid walker.
pub struct GridProcess {
    pid: usize,
    shared: Arc<GridShared>,
    right: usize,
    down: usize,
    micro: Micro,
}

impl GridProcess {
    /// Process `pid` entering at cell (0, 0).
    pub fn new(pid: usize, shared: Arc<GridShared>) -> Self {
        Self { pid, shared, right: 0, down: 0, micro: Micro::WriteX }
    }

    /// Current cell, for tests.
    pub fn position(&self) -> (usize, usize) {
        (self.right, self.down)
    }

    fn move_to(&mut self, outcome: SplitOutcome) -> Option<usize> {
        match outcome {
            SplitOutcome::Stop => Some(self.shared.cell_index(self.right, self.down)),
            SplitOutcome::Right => {
                self.right += 1;
                self.micro = Micro::WriteX;
                None
            }
            SplitOutcome::Down => {
                self.down += 1;
                self.micro = Micro::WriteX;
                None
            }
        }
    }
}

impl Process for GridProcess {
    fn announce(&mut self) -> Access {
        let cell = self.shared.cell_index(self.right, self.down);
        // Registers of cell i live at pseudo-addresses 2i (X) and 2i+1
        // (Y) in array 5, so the adversary can distinguish them.
        match self.micro {
            Micro::WriteX | Micro::ReadX => Access::Read { array: 5, index: 2 * cell },
            Micro::ReadY | Micro::WriteY => Access::Read { array: 5, index: 2 * cell + 1 },
        }
    }

    fn step(&mut self) -> StepOutcome {
        let s = self.shared.splitter(self.right, self.down);
        match self.micro {
            Micro::WriteX => {
                s.x.store(self.pid, Ordering::SeqCst);
                self.micro = Micro::ReadY;
                StepOutcome::Continue
            }
            Micro::ReadY => {
                if s.y.load(Ordering::SeqCst) {
                    match self.move_to(SplitOutcome::Right) {
                        Some(name) => StepOutcome::Done(name),
                        None => StepOutcome::Continue,
                    }
                } else {
                    self.micro = Micro::WriteY;
                    StepOutcome::Continue
                }
            }
            Micro::WriteY => {
                s.y.store(true, Ordering::SeqCst);
                self.micro = Micro::ReadX;
                StepOutcome::Continue
            }
            Micro::ReadX => {
                let outcome = if s.x.load(Ordering::SeqCst) == self.pid {
                    SplitOutcome::Stop
                } else {
                    SplitOutcome::Down
                };
                match self.move_to(outcome) {
                    Some(name) => StepOutcome::Done(name),
                    None => StepOutcome::Continue,
                }
            }
        }
    }

    fn pid(&self) -> Pid {
        Pid::new(self.pid)
    }
}

/// Splitter-grid renaming as a [`RenamingProtocol`]:
/// `m = n(n+1)/2`, deterministic, read/write registers only.
#[derive(Debug, Clone, Copy)]
pub struct SplitterGrid;

impl RenamingProtocol for SplitterGrid {
    type Proc = GridProcess;

    fn name(&self) -> String {
        "splitter-grid(r/w)".into()
    }

    fn m(&self, n: usize) -> usize {
        n * (n + 1) / 2
    }

    fn step_budget(&self, n: usize) -> u64 {
        // ≤ n splitters on a path, 4 accesses each, for each process.
        16 * (n as u64) * (n as u64) + 1024
    }

    /// Deterministic: draws no coins, so the seed is ignored.
    fn build(&self, n: usize, _seed: u64) -> Vec<GridProcess> {
        let shared = Arc::new(GridShared::new(n));
        (0..n).map(|pid| GridProcess::new(pid, Arc::clone(&shared))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_renaming::traits::RenamingAlgorithm;
    use rr_sched::adversary::{CollisionMaximizer, FairAdversary, RandomAdversary};
    use rr_sched::shard::Arena;

    #[test]
    fn solo_process_stops_at_origin() {
        let shared = Arc::new(GridShared::new(4));
        let mut p = GridProcess::new(7, Arc::clone(&shared));
        let (name, steps) = rr_sched::process::run_to_completion(&mut p, 100);
        assert_eq!(name, Some(0), "alone, the first splitter stops you");
        assert_eq!(steps, 4, "one full splitter procedure");
        assert_eq!(p.position(), (0, 0));
    }

    #[test]
    fn splitter_at_most_one_stop() {
        // Sequential entries: first stops, later ones leave Right (Y set).
        let s = Splitter::default();
        assert_eq!(s.split(1), SplitOutcome::Stop);
        assert_eq!(s.split(2), SplitOutcome::Right);
        assert_eq!(s.split(3), SplitOutcome::Right);
    }

    #[test]
    fn full_grid_renames_distinctly() {
        for n in [1usize, 2, 5, 16, 64] {
            let m = RenamingAlgorithm::m(&SplitterGrid, n);
            let out = SplitterGrid
                .run_dense(n, 0, &mut FairAdversary::default(), &mut Arena::new())
                .unwrap();
            out.verify_renaming(m).unwrap();
            assert_eq!(out.gave_up_count(), 0);
        }
    }

    #[test]
    fn adversarial_schedules_respect_grid_bound() {
        let n = 32;
        for mut adv in [
            Box::new(RandomAdversary::new(3)) as Box<dyn rr_sched::Adversary>,
            Box::new(CollisionMaximizer::default()),
        ] {
            let out = SplitterGrid.run_dense(n, 0, adv.as_mut(), &mut Arena::new()).unwrap();
            out.verify_renaming(n * (n + 1) / 2).unwrap();
            // ≤ n−1 moves of 4 accesses each, plus the final stop visit.
            assert!(out.step_complexity() <= 4 * n as u64);
        }
    }

    #[test]
    fn step_complexity_is_linear_not_logarithmic() {
        // The deterministic read/write lower-bound regime: max steps grow
        // linearly in n under the worst (fair, all-enter) schedule.
        let mut prev = 0;
        for n in [8usize, 32, 128] {
            let out = SplitterGrid
                .run_dense(n, 0, &mut FairAdversary::default(), &mut Arena::new())
                .unwrap();
            let steps = out.step_complexity();
            assert!(steps > prev, "steps must grow with n");
            assert!(steps as usize >= n / 2, "Θ(n) regime expected, got {steps} at n={n}");
            prev = steps;
        }
    }

    #[test]
    fn grid_indexing_is_injective_and_in_range() {
        let g = GridShared::new(10);
        let mut seen = std::collections::HashSet::new();
        for r in 0..10 {
            for d in 0..10 - r {
                let i = g.cell_index(r, d);
                assert!(i < g.cells());
                assert!(seen.insert(i), "duplicate index for ({r},{d})");
            }
        }
        assert_eq!(seen.len(), g.cells());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rr_renaming::traits::RenamingAlgorithm;
    use rr_sched::adversary::RandomAdversary;
    use rr_sched::shard::Arena;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Distinct names for every n and schedule seed.
        #[test]
        fn names_always_distinct(n in 1usize..80, seed in 0u64..500) {
            let out = SplitterGrid
                .run_dense(n, 0, &mut RandomAdversary::new(seed), &mut Arena::new())
                .unwrap();
            prop_assert!(out.verify_renaming(RenamingAlgorithm::m(&SplitterGrid, n)).is_ok());
            prop_assert_eq!(out.gave_up_count(), 0);
        }

        /// Threaded: real interleavings also keep names distinct.
        #[test]
        fn threaded_distinct(n in 2usize..48) {
            let inst = SplitterGrid.instantiate(n, 0);
            let m = inst.m;
            let out = rr_sched::run_threads(inst.processes, 1 << 20);
            prop_assert!(out.verify_renaming(m).is_ok());
        }
    }
}
