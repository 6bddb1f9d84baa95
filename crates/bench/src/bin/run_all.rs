//! Runs every experiment binary in sequence and summarizes the verdicts.
//!
//! Honours `SYMBREAK_SCALE`; use `SYMBREAK_SCALE=0.25` for a quick smoke
//! sweep. Exits non-zero if any experiment fails or crashes.

use std::process::Command;

const EXPERIMENTS: &[&str] = &[
    "exp_e01_three_majority_sublinear",
    "exp_e02_two_choices_lower_bound",
    "exp_e03_separation",
    "exp_e04_voter_dominates_3m",
    "exp_e05_voter_bound",
    "exp_e06_duality",
    "exp_e07_one_step_law",
    "exp_e08_expectation_identity",
    "exp_e09_counterexample",
    "exp_e10_hierarchy",
    "exp_e11_bias_regime",
    "exp_e12_fault_tolerance",
    "exp_e13_voter_linear",
    "exp_e14_nonac_counterexample",
    "exp_e15_phase_decomposition",
    "exp_e16_lazy_voter",
    "exp_e17_distributed_runtime",
    "exp_e18_topologies",
    "exp_e19_graph_bias",
    "exp_e20_cluster_theorem5",
    "exp_e21_multiset_wire",
    "exp_e22_cluster_faults",
    "exp_e23_condensed_shards",
    "exp_e24_transport",
    "exp_e25_grouped_pull",
];

fn main() {
    let exe_dir = std::env::current_exe()
        .expect("current exe path")
        .parent()
        .expect("exe has a parent dir")
        .to_path_buf();
    let mut failures = Vec::new();
    for name in EXPERIMENTS {
        println!("\n================ {name} ================");
        let path = exe_dir.join(name);
        let status = Command::new(&path)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {}: {e}", path.display()));
        if !status.success() {
            failures.push(*name);
        }
    }
    println!("\n================ SUMMARY ================");
    if failures.is_empty() {
        println!("all {} experiments completed", EXPERIMENTS.len());
    } else {
        println!("failed experiments: {failures:?}");
        std::process::exit(1);
    }
}
