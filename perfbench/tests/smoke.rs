//! Smoke test of the benchmark itself: every workload at tiny sizes
//! (`--smoke`), through the same code path as a full run, in both trace
//! modes.

use std::path::Path;
use std::process::Command;

use perfbench::{END_TO_END, PER_LAYER, WORKLOADS};

/// Runs the benchmark binary and returns its last stdout line.
fn run(workload: &str, trace: &str, worker: &str) -> String {
    let sockets = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-sockets");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", trace])
        .args(["--smoke", "--worker", worker, "--socket-dir"])
        .arg(&sockets)
        .output()
        .expect("run the benchmark binary");
    assert!(out.status.success(), "{workload} --trace {trace} exited with {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    let worker = env!("CARGO_BIN_EXE_perfbench_shard_worker");
    for workload in WORKLOADS {
        for (trace, metrics) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
            let line = run(workload, trace, worker);
            let context = format!("{workload} --trace {trace}: {line}");
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{context}");
            assert!(line.contains("\"failed\": 0, "), "{context}");
            assert!(!line.contains("null"), "{context}");
            assert_eq!(line.matches("\"value\": ").count(), metrics.len(), "{context}");
            for (name, unit) in metrics {
                let at = line.find(&format!("\"{name}\": {{\"value\": ")).unwrap_or_else(|| {
                    panic!("{name} missing from {context}");
                });
                let entry = &line[at..at + line[at..].find('}').expect("closed entry")];
                assert!(entry.ends_with(&format!("\"unit\": \"{unit}\"")), "{name}: {entry}");
            }
        }
    }
}

#[test]
fn a_missing_worker_fails_the_socket_workload() {
    let line = run("socket_2c_stalled", "0", "no-such-worker");
    assert!(line.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1,"), "{line}");
}

#[test]
fn benchmark_json_lists_what_the_binary_prints() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    for workload in WORKLOADS {
        assert!(json.contains(&format!("{{\"name\": \"{workload}\", \"why\": ")), "{workload}");
    }
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            json.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ")),
            "{name}"
        );
    }
    assert_eq!(json.matches("\"better\": ").count(), END_TO_END.len() + PER_LAYER.len());
}
