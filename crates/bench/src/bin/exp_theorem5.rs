//! E1 — Theorem 5: tight renaming in O(log n) steps w.h.p., O(n) space.
//! See [`rr_bench::scenario::specs::theorem5`] for the claim details.

fn main() -> std::process::ExitCode {
    rr_bench::scenario::drive(rr_bench::scenario::specs::theorem5)
}
