//! E14 — ablations: cluster constant c, device width, finisher budgets.
//! See [`rr_bench::scenario::specs::ablation`] for details.

fn main() -> std::process::ExitCode {
    rr_bench::scenario::drive(rr_bench::scenario::specs::ablation)
}
