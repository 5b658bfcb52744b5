//! E2 — Lemma 3: ≤ log n empty bins w.h.p. (balls into bins).
//! See [`rr_bench::scenario::specs::lemma3`] for the claim details.

fn main() -> std::process::ExitCode {
    rr_bench::scenario::drive(rr_bench::scenario::specs::lemma3)
}
