//! E13 — long-lived renaming: amortized acquire cost under churn.
//! See [`rr_bench::scenario::specs::longlived`] for details.

fn main() -> std::process::ExitCode {
    rr_bench::scenario::drive(rr_bench::scenario::specs::longlived)
}
