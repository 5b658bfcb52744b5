//! Free-running thread mode: the same state machines on real atomics,
//! with the independent `NameSpaceAudit` referee claiming names as the
//! algorithms emit them.

use randomized_renaming::baselines::{
    BitonicRenaming, FetchAddRenaming, RouteRenaming, RouteTopology, SplitterGrid, UniformProbing,
};
use randomized_renaming::renaming::traits::{Cor7, Cor9, RenamingAlgorithm};
use randomized_renaming::renaming::TightRenaming;
use randomized_renaming::sched::process::run_to_completion;
use randomized_renaming::sched::run_threads_bounded;
use randomized_renaming::shmem::NameSpaceAudit;
use std::sync::Arc;

fn threaded_audit(algo: &dyn RenamingAlgorithm, n: usize, threads: usize) {
    let inst = algo.instantiate(n, 77);
    let m = inst.m;
    let audit = Arc::new(NameSpaceAudit::new(n, m));
    std::thread::scope(|scope| {
        let mut queue = inst.processes;
        while !queue.is_empty() {
            let wave: Vec<_> = queue.drain(..queue.len().min(threads)).collect();
            let handles: Vec<_> = wave
                .into_iter()
                .map(|mut p| {
                    let audit = Arc::clone(&audit);
                    scope.spawn(move || {
                        let pid = p.pid();
                        let (name, _) = run_to_completion(p.as_mut(), 1 << 24);
                        let name = name.expect("full protocols name everyone");
                        audit.claim(pid.index(), name).expect("audit rejected a claim");
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        }
    });
    assert_eq!(audit.named_count(), n, "{}: not everyone audited", algo.name());
    audit.verify_complete(&(0..n).collect::<Vec<_>>()).unwrap();
}

#[test]
fn tight_tau_on_threads_with_audit() {
    threaded_audit(&TightRenaming::calibrated(4), 512, 32);
}

#[test]
fn cor7_on_threads_with_audit() {
    threaded_audit(&Cor7 { ell: 1 }, 512, 32);
}

#[test]
fn cor9_on_threads_with_audit() {
    threaded_audit(&Cor9 { ell: 1 }, 512, 32);
}

#[test]
fn bitonic_on_threads_with_audit() {
    threaded_audit(&BitonicRenaming, 256, 32);
}

/// Every Beneš stage pairs all wires, so concurrent processes meet at
/// switches found in closed form from the stage-bit schedule.
#[test]
fn route_benes_on_threads_with_audit() {
    threaded_audit(&RouteRenaming { topology: RouteTopology::Benes, stages: None }, 256, 32);
}

/// Real interleavings of the read/write splitters: 64 cells share each
/// `Y` word, which the visitors set with `fetch_or`, and `X` holds
/// `pid + 1` in 4 bytes.
#[test]
fn splitter_grid_on_threads_with_audit() {
    threaded_audit(&SplitterGrid, 256, 32);
}

#[test]
fn fetch_add_on_threads_with_audit() {
    threaded_audit(&FetchAddRenaming, 1024, 64);
}

#[test]
fn uniform_on_threads_with_audit() {
    threaded_audit(&UniformProbing::double(), 512, 32);
}

#[test]
fn bounded_executor_matches_unbounded_name_sets() {
    // Different thread counts may change who gets which name, but never
    // the named-set properties.
    let algo = TightRenaming::calibrated(4);
    for threads in [1usize, 4, 64] {
        let inst = algo.instantiate(200, 5);
        let out = run_threads_bounded(inst.processes, threads, 1 << 24);
        out.verify_renaming(200).unwrap();
        let mut names: Vec<usize> = out.names.iter().flatten().copied().collect();
        names.sort_unstable();
        assert_eq!(names, (0..200).collect::<Vec<_>>());
    }
}

#[test]
fn heavy_contention_stress() {
    // Small name space, many waves — maximal contention on the
    // τ-registers' lock-free request path.
    for round in 0..8 {
        let algo = TightRenaming::calibrated(2);
        let inst = algo.instantiate(64, round);
        let out = run_threads_bounded(inst.processes, 64, 1 << 22);
        out.verify_renaming(64).unwrap();
    }
}
