//! E5 — Corollary 7: loose renaming, m = n + 2n/(loglog n)^ℓ in
//! O((loglog n)^ℓ) steps. See [`rr_bench::scenario::specs::cor7`].

fn main() -> std::process::ExitCode {
    rr_bench::scenario::drive(rr_bench::scenario::specs::cor7)
}
