//! README drift guards: the algorithm/adversary/backend key tables in
//! README.md are generated from the registries (the same state
//! `exp_matrix --list` prints). If a registration changes and the
//! committed README block is not regenerated, these tests fail with the
//! replacement text.

use rr_bench::listing::{registry_listing, registry_tables_markdown};

const BEGIN: &str = "<!-- BEGIN GENERATED REGISTRY TABLES \
                     (rr_bench::listing::registry_tables_markdown; drift-checked by \
                     crates/bench/tests/readme_sync.rs) -->";
const END: &str = "<!-- END GENERATED REGISTRY TABLES -->";

fn readme() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
    std::fs::read_to_string(path).expect("README.md at the repo root")
}

fn generated_block(readme: &str) -> &str {
    let start = readme.find(BEGIN).expect("README must contain the BEGIN marker") + BEGIN.len();
    let end = readme.find(END).expect("README must contain the END marker");
    readme[start..end].trim_matches('\n')
}

#[test]
fn readme_registry_tables_match_the_registries() {
    let readme = readme();
    let committed = generated_block(&readme);
    let fresh = registry_tables_markdown();
    assert_eq!(
        committed,
        fresh.trim_matches('\n'),
        "README registry tables drifted from the registries — replace the block between \
         the markers with the output of rr_bench::listing::registry_tables_markdown()",
    );
}

/// The README tables and `exp_matrix --list` are the same listing
/// module; every key one shows, the other shows.
#[test]
fn readme_tables_and_matrix_list_agree_on_every_key() {
    let listing = registry_listing();
    let tables = registry_tables_markdown();
    let mut keys: Vec<String> =
        rr_bench::scenario::registry().keys().iter().map(|k| k.to_string()).collect();
    keys.extend(rr_sched::registry::standard().keys().iter().map(|k| k.to_string()));
    assert!(!keys.is_empty());
    for key in keys {
        assert!(listing.contains(&key), "exp_matrix --list lost key {key}");
        assert!(tables.contains(&format!("`{key}`")), "README tables lost key {key}");
    }
}

/// Every example key the README tables advertise actually builds.
#[test]
fn advertised_example_keys_build() {
    for (_, _, example, ..) in rr_bench::scenario::registry().entries() {
        assert!(
            rr_bench::scenario::registry().build(example).is_ok(),
            "algorithm example key `{example}` no longer builds"
        );
    }
    for (_, _, example) in rr_sched::registry::standard().entries() {
        assert!(
            rr_sched::registry::standard().build(example, 16, 0).is_ok(),
            "adversary example key `{example}` no longer builds"
        );
    }
}
