//! E4 — Lemma 6: n/(loglog n)^ℓ-almost-tight renaming in
//! O((loglog n)^ℓ) steps. See [`rr_bench::scenario::specs::lemma6`].

fn main() -> std::process::ExitCode {
    rr_bench::scenario::drive(rr_bench::scenario::specs::lemma6)
}
