//! The symbreak benchmark: five closed-loop workloads over the public
//! API, each reporting end-to-end metrics, plus a traced mode that splits
//! every end-to-end number by layer from replayed calls.
//!
//! `run.py` next to this crate builds it and is the command to use; the
//! binary takes
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1> --worker <path> --socket-dir <dir>`
//! (and `--smoke` for tiny sizes) and prints one JSON result as the last
//! line of its standard output. With `--setup-call` it instead times one
//! set-up of the workload and prints its CPU seconds (see [`Setups`]).

pub mod replay;
pub mod workloads;

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 5] = [
    "engine_race_3m",
    "engine_race_2c",
    "fleet_3m_singletons",
    "fleet_2c_stalled",
    "socket_2c_stalled",
];

/// `(name, unit)` of every end-to-end metric. Every workload reports all
/// of them, measured with tracing off. Times are CPU time (see
/// [`cpu_time`]), so time the host steals from the machine is not counted.
pub const END_TO_END: [(&str, &str); 3] =
    [("round_cpu_ms", "ms"), ("setup_s", "s"), ("peak_rss_mib", "MiB")];

/// `(name, unit)` of every per-layer metric, reported by every workload's
/// traced run. A layer the workload never enters reports 0; the others
/// are measured by replaying the layer's calls at the workload's own
/// captured shapes.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("sim.dist.binomial_ns", "ns"),
    ("sim.dist.multinomial_sparse_us", "us"),
    ("sim.dist.multinomial_tally_us", "us"),
    ("sim.dist.multinomial_us", "us"),
    ("sim.dist.categorical_build_us", "us"),
    ("sim.dist.group_splitter_ms", "ms"),
    ("sim.dist.hypergeometric_ns", "ns"),
    ("sim.dist.fenwick_deal_ns", "ns"),
    ("core.rules.vector_step_ms.3m", "ms"),
    ("core.rules.vector_step_ms.2c", "ms"),
    ("core.rules.alpha_us.3m", "us"),
    ("core.rules.self_ms.3m", "ms"),
    ("core.rules.self_ms.2c", "ms"),
    ("core.rules.condensed_push_step_ms", "ms"),
    ("core.rules.condensed_window_step_ms", "ms"),
    ("core.rules.update_ns.2c", "ns"),
    ("core.engine.round_ms.3m", "ms"),
    ("core.engine.round_ms.2c", "ms"),
    ("core.engine.step_ms_p50.3m", "ms"),
    ("core.engine.step_ms_p50.2c", "ms"),
    ("core.engine.step_ms_p99.3m", "ms"),
    ("core.engine.step_ms_p99.2c", "ms"),
    ("core.engine.self_ms.3m", "ms"),
    ("core.engine.self_ms.2c", "ms"),
    ("core.config.merge_sparse_us", "us"),
    ("core.config.apply_deltas_us", "us"),
    ("runtime.codec.encode_palette_us", "us"),
    ("runtime.codec.decode_palette_us", "us"),
    ("runtime.codec.encode_report_us", "us"),
    ("runtime.codec.decode_report_us", "us"),
    ("runtime.cluster.entries_per_round", "count"),
    ("runtime.cluster.report_entries_per_round", "count"),
    ("runtime.cluster.wall_ms_per_round", "ms"),
    ("runtime.cluster.unattributed_ms_per_round", "ms"),
    ("runtime.transport.wire_bytes_per_round", "B"),
    ("runtime.transport.socket_ms_per_round", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Shards per fleet: at most the two cores the benchmark machine has, so
/// the numbers measure the program rather than the scheduler.
pub const SHARDS: usize = 2;

/// Input sizes. Each workload fixes `n`, the start (always `k = n`
/// singletons), the rule and the shard count; the horizons are chosen so
/// one fleet run takes a few seconds.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `n` of the engine races.
    pub race_n: u64,
    /// `n` of `fleet_3m_singletons`.
    pub fleet_3m_n: u64,
    /// Rounds per `fleet_3m_singletons` run: long enough for the push
    /// union to shrink from ~0.63·n entries to thousands.
    pub fleet_3m_horizon: u64,
    /// `n` of the 2-Choices fleets.
    pub fleet_2c_n: u64,
    /// Rounds per 2-Choices fleet run.
    pub fleet_2c_horizon: u64,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const FULL: Sizes = Sizes {
        race_n: 1 << 18,
        fleet_3m_n: 1 << 20,
        fleet_3m_horizon: 400,
        fleet_2c_n: 1 << 17,
        fleet_2c_horizon: 100,
    };

    /// Tiny sizes for the smoke test: the same code paths in milliseconds.
    pub const SMOKE: Sizes = Sizes {
        race_n: 1 << 10,
        fleet_3m_n: 1 << 12,
        fleet_3m_horizon: 40,
        fleet_2c_n: 1 << 10,
        fleet_2c_horizon: 20,
    };
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed every input of the run is derived from.
    pub seed: u64,
    /// Length of the measured closed loop.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// The shard worker binary for the socket workload.
    pub worker: Option<PathBuf>,
    /// Directory for the socket workload's Unix sockets.
    pub socket_dir: PathBuf,
    /// Input sizes.
    pub sizes: Sizes,
    /// Time one set-up instead of running the workload.
    pub setup_call: bool,
    /// The arguments as given, for the set-up processes.
    argv: Vec<String>,
}

impl Args {
    /// Parses `--workload`, `--seed`, `--seconds`, `--trace`, `--worker`,
    /// `--socket-dir`, `--smoke` and `--setup-call` (arguments after the
    /// program name).
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let argv: Vec<String> = argv.into_iter().collect();
        let mut args = Args {
            workload: String::new(),
            seed: 0,
            seconds: 0.0,
            trace: false,
            worker: None,
            socket_dir: PathBuf::from("."),
            sizes: Sizes::FULL,
            setup_call: false,
            argv: argv.clone(),
        };
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--smoke" => {
                    args.sizes = Sizes::SMOKE;
                    continue;
                }
                "--setup-call" => {
                    args.setup_call = true;
                    continue;
                }
                _ => {}
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
                "--seconds" => {
                    args.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                        return Err(bad("expected 0 < seconds <= 600"));
                    }
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    }
                }
                "--worker" => args.worker = Some(PathBuf::from(&value)),
                "--socket-dir" => args.socket_dir = PathBuf::from(&value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!("--workload must be one of {WORKLOADS:?}"));
        }
        if args.seconds == 0.0 {
            return Err("--seconds is required".into());
        }
        Ok(args)
    }
}

/// One run's result: operations attempted and failed, and the metrics.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Closed-loop operations run (races or fleet runs).
    pub attempted: u64,
    /// Operations whose output failed a correctness check.
    pub failed: u64,
    /// `(name, value)`; units come from [`END_TO_END`] / [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// The result line: `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
    pub fn to_json(&self) -> String {
        let units: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|&(name, value)| {
                let unit = units.iter().find(|u| u.0 == name).map_or("?", |u| u.1);
                // JSON has no NaN or infinity; a non-finite value is a bug
                // upstream, reported as a missing number rather than hidden.
                let value = if value.is_finite() { format!("{value:?}") } else { "null".into() };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.metrics.iter().all(|m| m.1.is_finite()),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs the workload `args` names.
pub fn run(args: &Args) -> Report {
    match args.workload.as_str() {
        "engine_race_3m" => workloads::engine_race_3m(args),
        "engine_race_2c" => workloads::engine_race_2c(args),
        "fleet_3m_singletons" => workloads::fleet_3m_singletons(args),
        "fleet_2c_stalled" => workloads::fleet_2c_stalled(args, false),
        "socket_2c_stalled" => workloads::fleet_2c_stalled(args, true),
        other => unreachable!("workload {other} passed Args::parse"),
    }
}

/// Median of `values` (sorted in place); 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` (sorted in place) by linear
/// interpolation; 0 for an empty slice.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Set-up calls timed per run.
const SETUP_CALLS: u32 = 12;

/// A run's set-up series: [`SETUP_CALLS`] runs of this program with
/// `--setup-call`, each timing one set-up of the workload (see
/// [`workloads::setup_once`]) in a fresh process, as a user's first run
/// pays it. The calls are spread over the loop, between its operations,
/// and the result is the fastest: a set-up call is short, and the load
/// other tenants put on the machine changes over seconds, so calls made
/// back to back all see the same load.
#[derive(Debug)]
pub struct Setups {
    exe: Option<PathBuf>,
    argv: Vec<String>,
    start: Instant,
    interval: Duration,
    calls: u32,
    fastest: f64,
    failed: bool,
}

impl Setups {
    /// A series spread over a loop of `args.seconds`.
    pub fn new(args: &Args) -> Setups {
        Setups {
            exe: std::env::current_exe().ok(),
            argv: args.argv.clone(),
            start: Instant::now(),
            interval: Duration::from_secs_f64(args.seconds) / SETUP_CALLS,
            calls: 0,
            fastest: f64::INFINITY,
            failed: false,
        }
    }

    /// Makes the calls due by now; called between operations.
    pub fn poll(&mut self) {
        let due = (self.start.elapsed().as_secs_f64() / self.interval.as_secs_f64()) as u32 + 1;
        while self.calls < due.min(SETUP_CALLS) {
            self.call();
        }
    }

    /// Makes the remaining calls. The fastest call's CPU seconds, or
    /// `None` if a call failed.
    pub fn finish(mut self) -> Option<f64> {
        while self.calls < SETUP_CALLS {
            self.call();
        }
        (!self.failed).then_some(self.fastest)
    }

    fn call(&mut self) {
        self.calls += 1;
        let secs = self.exe.as_ref().and_then(|exe| {
            let out = Command::new(exe)
                .args(&self.argv)
                .arg("--setup-call")
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .ok()?;
            let secs = String::from_utf8_lossy(&out.stdout).trim().parse::<f64>().ok();
            secs.filter(|_| out.status.success())
        });
        match secs {
            Some(secs) => self.fastest = self.fastest.min(secs),
            None => self.failed = true,
        }
    }
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User plus system CPU time of `who` (`RUSAGE_SELF` = 0, `RUSAGE_CHILDREN` = -1).
fn rusage_cpu(who: i32) -> Duration {
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `u` is a valid, writable `struct rusage` for the call.
    let rc = unsafe { getrusage(who, &mut u) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    let us = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Duration::from_micros(us(&u.utime) + us(&u.stime))
}

/// CPU time used so far by this process (every thread) and by its reaped
/// children (the socket fleets' worker processes). Linux accounts it from
/// the scheduler's task clock, which leaves out time the hypervisor steals
/// from the machine, so a noisy neighbour does not inflate it the way it
/// inflates wall time.
pub fn cpu_time() -> Duration {
    rusage_cpu(0) + rusage_cpu(-1)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
