//! E9 — model validation: adaptive adversaries and crashes — safety and
//! step inflation. See [`rr_bench::scenario::specs::adversary`].

fn main() -> std::process::ExitCode {
    rr_bench::scenario::drive(rr_bench::scenario::specs::adversary)
}
