//! E15 — progress curves: named fraction vs per-process steps.
//! See [`rr_bench::scenario::specs::progress`] for details.

fn main() -> std::process::ExitCode {
    rr_bench::scenario::drive(rr_bench::scenario::specs::progress)
}
