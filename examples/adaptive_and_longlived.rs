//! Beyond the one-shot protocols: the two extensions the paper points
//! at — adaptive renaming (participant count unknown, §IV remark) and
//! long-lived renaming (names released and reacquired, related work
//! [13]).
//!
//! Run with: `cargo run --release --example adaptive_and_longlived`

use randomized_renaming::renaming::adaptive::AdaptiveRenaming;
use randomized_renaming::renaming::longlived::{LongLivedClient, ReleasableTasArray};
use randomized_renaming::renaming::traits::RenamingAlgorithm;
use randomized_renaming::sched::adversary::FairAdversary;
use randomized_renaming::sched::shard::Arena;
use randomized_renaming::shmem::rng::RngMode;

fn adaptive_demo() {
    println!("adaptive: the ladder is provisioned for ≤ 4096 participants,");
    println!("but the processes never learn k — names used stay O(k):\n");
    println!("{:>8} {:>15} {:>9} {:>11}", "k", "max name used", "used/k", "steps max");
    for k in [8usize, 64, 512, 4096] {
        let (shared, mut procs) =
            AdaptiveRenaming.instantiate_participants_rng(k, 4096, 7, RngMode::default());
        let out = Arena::new()
            .run(
                &mut procs,
                &mut FairAdversary::default(),
                RenamingAlgorithm::step_budget(&AdaptiveRenaming, 4096),
            )
            .unwrap();
        out.verify_renaming(shared.layout().total).unwrap();
        let max_name = out.names.iter().flatten().max().copied().unwrap();
        println!(
            "{k:>8} {max_name:>15} {:>9.2} {:>11}",
            max_name as f64 / k as f64,
            out.step_complexity()
        );
    }
}

fn longlived_demo() {
    println!("\nlong-lived: 256 workers acquire/release names 1000 times each");
    println!("into a 1.5x space — amortized probe cost stays flat:\n");
    let n = 256;
    let names = ReleasableTasArray::new(n * 3 / 2);
    let mut clients: Vec<_> = (0..n).map(|p| LongLivedClient::new(p, 3)).collect();
    for checkpoint in [10usize, 100, 1000] {
        let already: u64 = clients.iter().map(|c| c.stats().1).sum();
        let target = (n * checkpoint) as u64;
        while clients.iter().map(|c| c.stats().1).sum::<u64>() < target {
            for c in clients.iter_mut() {
                c.acquire(&names);
            }
            for c in clients.iter_mut() {
                c.release(&names);
            }
        }
        let probes: u64 = clients.iter().map(|c| c.stats().0).sum();
        let acquires: u64 = clients.iter().map(|c| c.stats().1).sum();
        println!(
            "  after {acquires:>7} acquires (from {already:>7}): amortized {:.3} probes/acquire",
            probes as f64 / acquires as f64
        );
    }
    println!("  (expected bound at eps = 0.5: (1+eps)/eps = 3.0)");
}

fn main() {
    adaptive_demo();
    longlived_demo();
}
