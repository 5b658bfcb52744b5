//! `stepbench` — the repository benchmark.
//!
//! End to end, it measures simulated shared-memory steps per second on
//! four workloads, driven only through the public entry points: the
//! algorithm and adversary registries, `RenamingAlgorithm::run_dense`,
//! `rr_sched::shard::run_sharded` and `RunOutcome::verify_renaming`. A
//! separate traced run wraps the calls into each layer from outside and
//! splits one step's cost by layer, with the remainder reported as the
//! arena's residual. `README.md` in this directory says why each workload
//! exists and which end-to-end metric each layer metric should move.

#![forbid(unsafe_code)]

pub mod calibrate;
pub mod pins;
pub mod trace;
pub mod workload;

/// Median of `xs` (the mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0 — every ratio the benchmark prints
/// stays a finite JSON number.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MiB (`VmHWM` of
/// `/proc/self/status`), or `None` where the kernel does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ratio_guards_zero_denominators() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
