//! E12 — adaptive renaming: name usage O(k) with k unknown to the
//! processes. See [`rr_bench::scenario::specs::adaptive`] for details.

fn main() -> std::process::ExitCode {
    rr_bench::scenario::drive(rr_bench::scenario::specs::adaptive)
}
