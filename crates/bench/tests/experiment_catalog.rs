//! Pins the README experiment catalog to the actual experiment
//! binaries: every `crates/bench/src/bin/exp_*.rs` must appear in the
//! README's "Experiment catalog" table, so the table cannot silently rot
//! as experiments are added or renamed.

use std::fs;
use std::path::Path;

#[test]
fn readme_catalog_covers_every_experiment_binary() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = fs::read_to_string(manifest.join("../../README.md")).expect("README.md readable");

    let (_, catalog) = readme
        .split_once("## Experiment catalog")
        .expect("README must have an '## Experiment catalog' section");
    // The table ends at the next section heading (if any).
    let catalog = catalog.split("\n## ").next().unwrap();

    let bin_dir = manifest.join("src/bin");
    let mut missing = Vec::new();
    let mut count = 0usize;
    for entry in fs::read_dir(&bin_dir).expect("src/bin readable") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy();
        let Some(stem) = name.strip_suffix(".rs") else { continue };
        if !stem.starts_with("exp_") {
            continue;
        }
        count += 1;
        // Each experiment is listed by its binary name, backticked.
        if !catalog.contains(&format!("`{stem}`")) {
            missing.push(stem.to_string());
        }
    }
    assert!(count >= 25, "expected the full E1–E25 experiment set, found {count}");
    assert!(
        missing.is_empty(),
        "experiment binaries missing from the README catalog table: {missing:?}"
    );

    // And the reverse: every catalog row must name a real binary, so
    // renamed or deleted experiments cannot leave stale rows behind.
    let mut stale = Vec::new();
    for line in catalog.lines() {
        let Some(rest) = line.strip_prefix("| `exp_") else { continue };
        let Some(stem) = rest.split('`').next().map(|s| format!("exp_{s}")) else { continue };
        if !bin_dir.join(format!("{stem}.rs")).is_file() {
            stale.push(stem);
        }
    }
    assert!(stale.is_empty(), "README catalog rows with no matching binary: {stale:?}");
}
