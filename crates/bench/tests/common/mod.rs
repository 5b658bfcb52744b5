//! Helpers shared by the integration tests that sweep the adversary
//! registry.

use rr_sched::registry::standard;

/// Every registry adversary, as its registry example key, so a new
/// registry key is swept automatically.
pub fn swept_adversary_keys() -> Vec<&'static str> {
    let swept: Vec<&'static str> =
        standard().entries().iter().map(|&(_, _, example)| example).collect();
    // Shrinking the registry (and with it the sweep) must be a loud,
    // deliberate edit.
    assert_eq!(swept.len(), 9, "adversary registry changed size: {swept:?}");
    swept
}
