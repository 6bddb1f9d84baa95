//! Property-based tests of the message-passing cluster.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use proptest::prelude::*;
use rand::RngCore;
use symbreak_core::rules::{ThreeMajority, Voter};
use symbreak_core::{Configuration, Opinion, UpdateRule};
use symbreak_runtime::{Cluster, ClusterConfig, ShardRepr, StopReason};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn consensus_from_any_start(
        counts in proptest::collection::vec(1u64..20, 2..5),
        shards in 1usize..5,
        seed in 0u64..500,
    ) {
        let start = Configuration::from_counts(counts);
        prop_assume!(start.n() >= shards as u64);
        let cluster = Cluster::new(ThreeMajority, &start, ClusterConfig::new(shards, seed));
        let out = cluster.run_to_consensus(1_000_000).expect("consensus");
        prop_assert!(out.final_config.is_consensus());
        prop_assert_eq!(out.final_config.n(), start.n());
    }

    #[test]
    fn winner_is_initially_supported(
        counts in proptest::collection::vec(0u64..15, 3..6),
        seed in 0u64..500,
    ) {
        let start = Configuration::from_counts(counts);
        prop_assume!(start.n() >= 4);
        let cluster = Cluster::new(Voter, &start, ClusterConfig::new(2, seed));
        let out = cluster.run_to_consensus(2_000_000).expect("consensus");
        let winner = out.final_config.plurality();
        prop_assert!(
            start.support(winner.index()) > 0,
            "winner {winner} had no initial support in {start}"
        );
    }

    #[test]
    fn trace_round_indices_are_sequential(seed in 0u64..200) {
        let start = Configuration::uniform(40, 4);
        let cluster = Cluster::new(ThreeMajority, &start, ClusterConfig::new(3, seed));
        let out = cluster.run_to_consensus(1_000_000).expect("consensus");
        for (i, r) in out.trace.rounds().iter().enumerate() {
            prop_assert_eq!(r.round, i as u64 + 1);
            prop_assert!(r.max_support <= 40);
        }
    }

    #[test]
    fn deterministic_per_seed(seed in 0u64..100) {
        let start = Configuration::uniform(30, 3);
        let run = |s| {
            Cluster::new(ThreeMajority, &start, ClusterConfig::new(2, s))
                .run_to_consensus(1_000_000)
                .expect("consensus")
                .consensus_round
        };
        prop_assert_eq!(run(seed), run(seed));
    }
}

/// Voter, except that the first `update` of a node holding `target`
/// panics (once per run: clones share the flag).
#[derive(Clone)]
struct PanicsOnce {
    target: Opinion,
    fired: Arc<AtomicBool>,
}

impl UpdateRule for PanicsOnce {
    fn name(&self) -> &'static str {
        "panics-once"
    }

    fn sample_count(&self) -> usize {
        1
    }

    fn update(&self, own: Opinion, samples: &[Opinion], _rng: &mut dyn RngCore) -> Opinion {
        if own == self.target && !self.fired.swap(true, Ordering::SeqCst) {
            panic!("update rule panicked on purpose");
        }
        samples[0]
    }
}

/// Runs a 4-shard agent fleet from 4096 singletons whose rule panics in
/// the shard owning node `target`, and returns the stop reason, or
/// `None` if the run did not end within 30 s.
fn stop_after_worker_panic(target: u32) -> Option<StopReason> {
    let rule = PanicsOnce { target: Opinion::new(target), fired: Arc::new(AtomicBool::new(false)) };
    let config = ClusterConfig::new(4, 3).with_shard_repr(ShardRepr::Agents);
    let cluster = Cluster::new(rule, &Configuration::singletons(4096), config);
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(cluster.run_horizon(50).stop);
    });
    rx.recv_timeout(Duration::from_secs(30)).ok()
}

#[test]
fn worker_panic_stops_the_fleet_with_transport_lost() {
    // Node `target` holds opinion `target` at the start: node 0 lives on
    // shard 0, node 2500 on shard 2 (nodes 2048..3072).
    for target in [0, 2500] {
        assert_eq!(stop_after_worker_panic(target), Some(StopReason::TransportLost), "{target}");
    }
}
