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
//!
//! The grid is stored as registers, not as splitter structs: a cell's
//! `X` is a 4-byte word holding `pid + 1` (0 for nobody) and its `Y` is
//! one bit of a 64-cell word, so a cell costs 4 B plus 1 bit. Both
//! tables start zeroed, so the pages of cells no process reaches are
//! never touched. Every access is `SeqCst`, as the splitter's
//! correctness argument assumes.

use rr_renaming::traits::RenamingProtocol;
use rr_sched::ids::Pid;
use rr_sched::process::{Process, StepOutcome};
use rr_shmem::Access;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

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

/// The triangular grid: cells `(r, d)` with `r + d < n`.
#[derive(Debug)]
pub struct GridShared {
    n: usize,
    /// `x[cell]` — `pid + 1` of the cell's last `X` writer, 0 for nobody.
    x: Vec<AtomicU32>,
    /// The `Y` flag of `cell` is bit `cell % 64` of `y[cell / 64]`.
    y: Vec<AtomicU64>,
}

impl GridShared {
    /// Grid for `n` processes.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        let cells = n * (n + 1) / 2;
        // Collected in place from zeroed allocations: no cell is written
        // until a process visits it.
        let x = vec![0u32; cells].into_iter().map(AtomicU32::new).collect();
        let y = vec![0u64; cells.div_ceil(64)].into_iter().map(AtomicU64::new).collect();
        Self { n, x, y }
    }

    /// Flat index of cell `(r, d)` (diagonal enumeration — also the name
    /// assigned to a process stopping there).
    pub fn cell_index(&self, right: usize, down: usize) -> usize {
        let diag = right + down;
        debug_assert!(diag < self.n, "walked off the grid: ({right}, {down})");
        diag * (diag + 1) / 2 + down
    }

    /// Total cells (= name-space size).
    pub fn cells(&self) -> usize {
        self.x.len()
    }

    /// `X ← pid` at `cell`.
    fn write_x(&self, cell: usize, pid: usize) {
        self.x[cell].store(pid as u32 + 1, Ordering::SeqCst);
    }

    /// Whether `X = pid` at `cell`.
    fn x_is(&self, cell: usize, pid: usize) -> bool {
        self.x[cell].load(Ordering::SeqCst) == pid as u32 + 1
    }

    /// Reads `Y` at `cell`.
    fn y(&self, cell: usize) -> bool {
        self.y[cell / 64].load(Ordering::SeqCst) & (1 << (cell % 64)) != 0
    }

    /// `Y ← true` at `cell`.
    fn set_y(&self, cell: usize) {
        self.y[cell / 64].fetch_or(1 << (cell % 64), Ordering::SeqCst);
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
    ///
    /// # Panics
    /// Panics if `pid + 1` does not fit an `X` register.
    pub fn new(pid: usize, shared: Arc<GridShared>) -> Self {
        assert!(pid < u32::MAX as usize, "pid {pid} does not fit an X register");
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
        let cell = self.shared.cell_index(self.right, self.down);
        match self.micro {
            Micro::WriteX => {
                self.shared.write_x(cell, self.pid);
                self.micro = Micro::ReadY;
                StepOutcome::Continue
            }
            Micro::ReadY => {
                if self.shared.y(cell) {
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
                self.shared.set_y(cell);
                self.micro = Micro::ReadX;
                StepOutcome::Continue
            }
            Micro::ReadX => {
                let outcome = if self.shared.x_is(cell, self.pid) {
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

    /// The whole splitter procedure of `pid` at `cell`, at once.
    fn split(g: &GridShared, cell: usize, pid: usize) -> SplitOutcome {
        g.write_x(cell, pid);
        if g.y(cell) {
            return SplitOutcome::Right;
        }
        g.set_y(cell);
        if g.x_is(cell, pid) {
            SplitOutcome::Stop
        } else {
            SplitOutcome::Down
        }
    }

    #[test]
    fn splitter_at_most_one_stop() {
        // Sequential entries: first stops, later ones leave Right (Y set).
        // Pid 0 is stored as 1, so it is told apart from an unwritten X.
        let g = GridShared::new(2);
        assert_eq!(split(&g, 0, 0), SplitOutcome::Stop);
        assert_eq!(split(&g, 0, 1), SplitOutcome::Right);
        assert_eq!(split(&g, 0, 0), SplitOutcome::Right);
        // Neighbouring cells share a Y word but not a Y bit.
        assert_eq!(split(&g, 1, 1), SplitOutcome::Stop);
        assert_eq!(split(&g, 2, 0), SplitOutcome::Stop);
    }

    /// An `X` read after another process's write sends the reader down.
    #[test]
    fn overwritten_x_sends_the_reader_down() {
        let g = GridShared::new(2);
        g.write_x(0, 0);
        assert!(!g.y(0));
        g.write_x(0, 1);
        g.set_y(0);
        assert!(!g.x_is(0, 0), "pid 0 sees pid 1's write and leaves down");
        assert!(g.x_is(0, 1));
    }

    /// Layout guard: a cell is a 4-byte `X` register plus one `Y` bit
    /// (it was a 16-byte splitter), so the n(n+1)/2-cell grid stays at
    /// about 4 B per name.
    #[test]
    fn splitter_cell_is_four_bytes_and_a_bit() {
        for n in [1usize, 11, 64, 100] {
            let g = GridShared::new(n);
            let cells = g.cells();
            assert_eq!(cells, n * (n + 1) / 2);
            assert_eq!(std::mem::size_of_val(g.x.as_slice()), 4 * cells);
            assert_eq!(std::mem::size_of_val(g.y.as_slice()), 8 * cells.div_ceil(64));
        }
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
