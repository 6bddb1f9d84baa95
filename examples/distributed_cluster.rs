//! Run 3-Majority as an actual message-passing system: sharded node
//! actors exchanging Uniform Pull request/reply batches over channels,
//! with a coordinator driving the synchronous rounds.
//!
//! ```sh
//! cargo run --release --example distributed_cluster
//! ```

use symbreak::prelude::*;

fn main() {
    let n = 2_000;
    let k = 20;
    let start = Configuration::uniform(n, k);
    println!("cluster: {n} nodes over 8 shard threads, k = {k} colors, 3-Majority\n");

    let cluster = Cluster::new(ThreeMajority, &start, ClusterConfig::new(8, 7));
    let outcome = cluster.run_to_consensus(100_000).expect("consensus");

    println!("round | colors | max support | bias");
    for r in outcome.trace.rounds() {
        println!("{:5} | {:6} | {:11} | {}", r.round, r.num_colors, r.max_support, r.bias);
        if r.num_colors == 1 {
            break;
        }
    }
    println!(
        "\nconsensus at round {} on color {}",
        outcome.consensus_round,
        outcome.final_config.plurality()
    );
    println!(
        "wire entries: {} total, {:.0}/round (one request + one reply per pull would be {}/round)",
        outcome.total_messages,
        outcome.total_messages as f64 / outcome.consensus_round as f64,
        n * 3 * 2
    );
}
