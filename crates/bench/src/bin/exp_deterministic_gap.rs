//! E11 — deterministic Θ(n) vs randomized O(log n) / O((loglog n)²).
//! See [`rr_bench::scenario::specs::deterministic_gap`] for details.

fn main() -> std::process::ExitCode {
    rr_bench::scenario::drive(rr_bench::scenario::specs::deterministic_gap)
}
