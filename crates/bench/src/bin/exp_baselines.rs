//! E8 — the paper's comparison landscape: τ-register vs sorting
//! networks vs loose baselines. See
//! [`rr_bench::scenario::specs::baselines`] for details.

fn main() -> std::process::ExitCode {
    rr_bench::scenario::drive(rr_bench::scenario::specs::baselines)
}
