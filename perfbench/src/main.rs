//! Runs one workload of the benchmark and prints its JSON result as the
//! last line of standard output (see `run.py`, which builds this crate
//! and is the command to use).

fn main() {
    let args = match perfbench::Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.setup_call {
        match perfbench::workloads::setup_once(&args) {
            Some(secs) => println!("{secs:?}"),
            None => std::process::exit(1),
        }
        return;
    }
    let report = perfbench::run(&args);
    println!("{}", report.to_json());
}
