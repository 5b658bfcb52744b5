//! E10 — counting device: τ-quota invariant, cycle counts, concurrency.
//! See [`rr_bench::scenario::specs::tau`] for details.

fn main() -> std::process::ExitCode {
    rr_bench::scenario::drive(rr_bench::scenario::specs::tau)
}
