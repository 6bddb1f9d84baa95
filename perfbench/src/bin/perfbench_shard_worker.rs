//! Shard worker process for the socket workload: the runtime's worker
//! entry point, built inside the benchmark package so that every run
//! uses a worker compiled from the same sources as the coordinator.

fn main() {
    symbreak_runtime::shard_process_main();
}
