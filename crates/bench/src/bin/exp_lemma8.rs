//! E6 — Lemma 8: n/(log n)^ℓ-almost-tight renaming in 2ℓ(loglog n)²
//! steps. See [`rr_bench::scenario::specs::lemma8`] for details.

fn main() -> std::process::ExitCode {
    rr_bench::scenario::drive(rr_bench::scenario::specs::lemma8)
}
