//! E3 — Lemma 4: per-round register saturation (≥ 2c log n requests
//! w.h.p.). See [`rr_bench::scenario::specs::lemma4`] for details.

fn main() -> std::process::ExitCode {
    rr_bench::scenario::drive(rr_bench::scenario::specs::lemma4)
}
