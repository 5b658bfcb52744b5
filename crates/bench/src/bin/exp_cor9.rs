//! E7 — Corollary 9: loose renaming, m = n + 2n/(log n)^ℓ in
//! O((loglog n)²) steps. See [`rr_bench::scenario::specs::cor9`].

fn main() -> std::process::ExitCode {
    rr_bench::scenario::drive(rr_bench::scenario::specs::cor9)
}
