//! Helpers shared by the integration tests that sweep the adversary
//! registry.

use rr_sched::registry::standard;

/// Every deterministically-schedulable adversary, as its registry
/// example key — the full registry minus the stateful searchers
/// `explore` and `fuzz`, whose builders continue one shared walk across
/// the seeds of a prepared batch, so two separately-prepared batches are
/// defined to diverge.
pub fn swept_adversary_keys() -> Vec<&'static str> {
    let swept: Vec<&'static str> = standard()
        .entries()
        .iter()
        .filter(|(name, ..)| !matches!(*name, "explore" | "fuzz"))
        .map(|&(_, _, example)| example)
        .collect();
    // The exclusion list is exactly the two searchers: a new registry
    // key is swept automatically, and this guard makes shrinking the
    // sweep a loud, deliberate edit.
    assert_eq!(swept.len(), standard().keys().len() - 2, "unexpected sweep exclusion");
    assert!(swept.len() >= 9, "adversary registry shrank: {swept:?}");
    swept
}
