//! The five workloads. Each is a closed loop with a single caller — the
//! next operation starts when the previous one ends — at a fixed `n`,
//! start (`k = n` singletons), rule and shard count. Every operation's
//! output is checked, and a failed check counts as a failed operation.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use symbreak_core::rules::{ThreeMajority, TwoChoices};
use symbreak_core::{Configuration, Engine, VectorEngine};
use symbreak_runtime::{
    Cluster, ClusterConfig, HorizonOutcome, ReportMode, ShardRepr, SocketConfig, StopReason,
    TransportAddr,
};
use symbreak_sim::rng::trial_seed;

use crate::replay::{self, Metric, Snap};
use crate::{cpu_time, ms, peak_rss_mib, quantile, Args, Report, Setups, PER_LAYER, SHARDS};

/// Cap on 2-Choices' largest support over a race or a stalled fleet run:
/// `2·⌈log₂ n⌉`. From singletons 2-Choices stays stalled for `Ω(n/log n)`
/// rounds (Theorem 5); at the benchmark's sizes the largest support stays
/// at 2–3.
fn support_cap(n: u64) -> u64 {
    2 * u64::from(64 - (n - 1).leading_zeros())
}

/// How the CPU time of repeated units of equal work is summarized. The
/// machine's cores are shared with other tenants, whose load slows the
/// same code up to 2x in windows a few milliseconds long. A unit that
/// spans many windows (a 3-Majority race, a fleet run) averages over them,
/// and the median over units is steady. A stalled 2-Choices step fits in
/// one window, and only the fastest step is steady: it is the step's cost
/// on an unshared core, since every step does work of the same law.
const MEDIAN: f64 = 0.5;
const FASTEST: f64 = 0.0;

/// Timed channel runs the socket workload's transport cost is taken
/// against, at the socket runs' first seeds.
const CHANNEL_RUNS: u64 = 5;

/// Rounds at which a traced race keeps a snapshot: 0, 1, 4, 16, 64, 256, …
fn snap_round(round: u64) -> bool {
    round == 0 || (round.is_power_of_two() && round.trailing_zeros().is_multiple_of(2))
}

/// The end-to-end metrics in `END_TO_END` order. The peak RSS is taken
/// once the first operation has ended, before set-up is timed: later
/// operations only add allocator noise (each fleet run spawns fresh shard
/// threads, and with them fresh malloc arenas).
fn end_to_end(round_cpu_ms: f64, setup_s: f64, rss_mib: f64) -> Vec<Metric> {
    vec![("round_cpu_ms", round_cpu_ms), ("setup_s", setup_s), ("peak_rss_mib", rss_mib)]
}

/// The value of metric `name` in `m` (NaN, printed as `null`, if absent).
fn value(m: &[Metric], name: &str) -> f64 {
    m.iter().find(|x| x.0 == name).map_or(f64::NAN, |x| x.1)
}

/// Orders per-layer metrics as `PER_LAYER` lists them; a layer the
/// workload never enters reports 0.
///
/// # Panics
/// Panics if a metric is not in `PER_LAYER`.
fn per_layer(metrics: Vec<Metric>) -> Vec<Metric> {
    for m in &metrics {
        assert!(PER_LAYER.iter().any(|p| p.0 == m.0), "unknown per-layer metric {}", m.0);
    }
    PER_LAYER
        .iter()
        .map(|&(name, _)| (name, metrics.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1)))
        .collect()
}

/// Totals of a stretch of races of one rule.
#[derive(Debug, Default)]
struct Races {
    ops: u64,
    failed: u64,
    /// CPU ms per round of every timed unit: a whole race, or with
    /// `per_step` a single step.
    units: Vec<f64>,
    /// Peak RSS (MiB) once the first race has run.
    rss_mib: f64,
    /// Wall ms of every step (traced stretches only).
    spans: Vec<f64>,
    /// Snapshots of the first race (traced stretches only).
    snaps: Vec<Snap>,
}

impl Races {
    /// The `q`-quantile of the units' CPU ms per round.
    fn round_cpu_ms(&self, q: f64) -> f64 {
        quantile(&mut self.units.clone(), q)
    }

    /// Mean wall ms of a traced step.
    fn span_ms(&self) -> f64 {
        self.spans.iter().sum::<f64>() / self.spans.len().max(1) as f64
    }
}

/// Steps `e` while `go` holds, adding its CPU time per round to `tally`:
/// one unit per step with `per_step` (for steps of equal law, as in a
/// stalled 2-Choices race), else one per race. Traced, every step is also
/// a wall-time span, and the stretch's first race keeps snapshots at
/// [`snap_round`] rounds and at its end.
fn drive<E: Engine>(
    e: &mut E,
    tally: &mut Races,
    trace: bool,
    per_step: bool,
    mut go: impl FnMut(&E) -> bool,
) {
    let keep = trace && tally.ops == 0;
    let snap = |e: &E| Snap { round: e.round(), config: e.config_ref().clone() };
    let first = e.round();
    let race = cpu_time();
    while go(e) {
        if keep && snap_round(e.round()) {
            tally.snaps.push(snap(e));
        }
        let (w, t) = (Instant::now(), per_step.then(cpu_time));
        e.step();
        if let Some(t) = t {
            tally.units.push(ms(cpu_time() - t));
        }
        if trace {
            tally.spans.push(ms(w.elapsed()));
        }
    }
    if !per_step && e.round() > first {
        tally.units.push(ms(cpu_time() - race) / (e.round() - first) as f64);
    }
    if keep && tally.snaps.last().is_none_or(|s| s.round < e.round()) {
        tally.snaps.push(snap(e));
    }
}

/// Races until `budget` has passed. Untraced, every race goes to the first
/// tally; traced, races alternate between the two (untraced, traced), so
/// both see the same load from other tenants. Each tally gets at least one
/// race. `race` runs one race at a seed, with the deadline, and returns
/// why it failed a check; `setups` makes its calls between races.
fn races(
    seed: u64,
    budget: Duration,
    trace: bool,
    mut race: impl FnMut(u64, &mut Races, bool, Instant) -> Result<(), String>,
    mut setups: Option<&mut Setups>,
) -> [Races; 2] {
    let deadline = Instant::now() + budget;
    let mut tallies = [Races::default(), Races::default()];
    let mut op = 0;
    while op < 1 + u64::from(trace) || Instant::now() < deadline {
        let traced = trace && op % 2 == 1;
        let tally = &mut tallies[usize::from(traced)];
        let result = race(trial_seed(seed, op), tally, traced, deadline);
        op += 1;
        tally.ops += 1;
        if op == 1 {
            tally.rss_mib = peak_rss_mib();
        }
        if let Err(why) = result {
            tally.failed += 1;
            eprintln!("race {op} failed its checks: {why}");
        }
        if let Some(setups) = setups.as_deref_mut() {
            setups.poll();
        }
    }
    tallies
}

/// One engine race workload's summary quantile (see [`MEDIAN`]) and
/// per-layer names: the step span's mean, p50, p99 and self time, and the
/// replayed vector step it is split against.
struct EngineSpec {
    quantile: f64,
    round_ms: &'static str,
    p50: &'static str,
    p99: &'static str,
    self_ms: &'static str,
    vector_step: &'static str,
}

/// An engine race workload. Untraced: races for `--seconds`, then the
/// set-up. Traced: races alternating without and with step spans, then
/// `replays` at the first traced race's snapshots.
fn engine_race(
    args: &Args,
    mut race: impl FnMut(u64, &mut Races, bool, Instant) -> Result<(), String>,
    replays: impl FnOnce(&[Snap]) -> Vec<Metric>,
    spec: EngineSpec,
) -> Report {
    let budget = Duration::from_secs_f64(args.seconds);
    if !args.trace {
        let mut setups = Setups::new(args);
        let [r, _] = races(args.seed, budget, false, &mut race, Some(&mut setups));
        return untraced(args, setups, r.ops, r.failed, r.round_cpu_ms(spec.quantile), r.rss_mib);
    }
    let [plain, mut traced] = races(args.seed, budget, true, &mut race, None);
    let mut m = replays(&traced.snaps);
    let round_ms = traced.span_ms();
    let overhead = traced.round_cpu_ms(spec.quantile) / plain.round_cpu_ms(spec.quantile) - 1.0;
    m.extend([
        (spec.round_ms, round_ms),
        (spec.p50, quantile(&mut traced.spans, 0.5)),
        (spec.p99, quantile(&mut traced.spans, 0.99)),
        (spec.self_ms, round_ms - value(&m, spec.vector_step)),
        ("trace.overhead_pct", overhead * 100.0),
    ]);
    Report {
        attempted: plain.ops + traced.ops,
        failed: plain.failed + traced.failed,
        metrics: per_layer(m),
    }
}

/// `engine_race_3m`: `VectorEngine<ThreeMajority>` to consensus from
/// `k = n` singletons.
pub fn engine_race_3m(args: &Args) -> Report {
    let n = args.sizes.race_n;
    let start = Configuration::singletons(n);
    let race = |seed, tally: &mut Races, trace, _deadline| {
        let mut e = VectorEngine::new(ThreeMajority, start.clone(), seed);
        drive(&mut e, tally, trace, false, |e| !e.is_consensus());
        if e.config_ref().n() != n {
            return Err(format!("mass {} != {n}", e.config_ref().n()));
        }
        Ok(())
    };
    let spec = EngineSpec {
        quantile: MEDIAN,
        round_ms: "core.engine.round_ms.3m",
        p50: "core.engine.step_ms_p50.3m",
        p99: "core.engine.step_ms_p99.3m",
        self_ms: "core.engine.self_ms.3m",
        vector_step: "core.rules.vector_step_ms.3m",
    };
    engine_race(args, race, |snaps| replay::race_3m(n, snaps, args.seed), spec)
}

/// `engine_race_2c`: `VectorEngine<TwoChoices>` from `k = n` singletons
/// for as many rounds as 3-Majority needs to reach consensus from the same
/// start and seed (run untimed first), cut at the deadline. The race shows
/// the separation: 3-Majority reaches consensus, while 2-Choices' largest
/// support stays under [`support_cap`] every round.
pub fn engine_race_2c(args: &Args) -> Report {
    let n = args.sizes.race_n;
    let cap = support_cap(n);
    let start = Configuration::singletons(n);
    let race = |seed, tally: &mut Races, trace, deadline| {
        let mut e3 = VectorEngine::new(ThreeMajority, start.clone(), seed);
        while !e3.is_consensus() {
            e3.step();
        }
        let rounds = e3.round();
        let mut e = VectorEngine::new(TwoChoices, start.clone(), seed);
        let mut max_support = 0;
        drive(&mut e, tally, trace, true, |e| {
            max_support = max_support.max(e.max_support());
            e.round() < rounds && Instant::now() < deadline
        });
        if e3.config_ref().n() != n || e.config_ref().n() != n {
            return Err(format!("mass {} / {} != {n}", e3.config_ref().n(), e.config_ref().n()));
        }
        if max_support > cap {
            return Err(format!("2-Choices max support {max_support} > cap {cap}"));
        }
        Ok(())
    };
    let spec = EngineSpec {
        quantile: FASTEST,
        round_ms: "core.engine.round_ms.2c",
        p50: "core.engine.step_ms_p50.2c",
        p99: "core.engine.step_ms_p99.2c",
        self_ms: "core.engine.self_ms.2c",
        vector_step: "core.rules.vector_step_ms.2c",
    };
    engine_race(args, race, |snaps| replay::race_2c(snaps, args.seed), spec)
}

/// Totals of a stretch of fleet runs.
#[derive(Debug, Default)]
struct Runs {
    ops: u64,
    failed: u64,
    /// CPU ms per round of each run (this process and its worker
    /// processes).
    cpu_ms: Vec<f64>,
    /// Wall ms per round of each run.
    wall_ms: Vec<f64>,
    rounds: u64,
    wire_bytes: u64,
    messages: u64,
    report_entries: u64,
    /// The first run's outcome, for snapshots and the cross-backend check.
    first: Option<HorizonOutcome>,
    /// Peak RSS (MiB) once the first run has ended.
    rss_mib: f64,
}

impl Runs {
    fn round_cpu_ms(&self) -> f64 {
        quantile(&mut self.cpu_ms.clone(), MEDIAN)
    }

    fn round_wall_ms(&self) -> f64 {
        quantile(&mut self.wall_ms.clone(), MEDIAN)
    }

    fn per_round(&self, total: u64) -> f64 {
        total as f64 / self.rounds.max(1) as f64
    }

    /// The `runtime.cluster` and `runtime.transport` counts and times of
    /// the stretch; `blocking_ms` is the replayed layer time per round on
    /// the round's blocking path.
    fn layers(&self, blocking_ms: f64) -> Vec<Metric> {
        let wall = self.round_wall_ms();
        vec![
            ("runtime.cluster.entries_per_round", self.per_round(self.messages)),
            ("runtime.cluster.report_entries_per_round", self.per_round(self.report_entries)),
            ("runtime.cluster.wall_ms_per_round", wall),
            ("runtime.cluster.unattributed_ms_per_round", wall - blocking_ms),
            ("runtime.transport.wire_bytes_per_round", self.per_round(self.wire_bytes)),
        ]
    }
}

/// Whether a fleet run's outcome passes the checks: mass conserved, a
/// normal stop (consensus or the horizon, never a lost transport), the
/// whole horizon run unless consensus came first, and — for the stalled
/// 2-Choices fleets — the largest support under the cap every round.
fn outcome_ok(out: &HorizonOutcome, n: u64, horizon: u64, cap: Option<u64>) -> bool {
    let stop_ok = match out.stop {
        StopReason::Consensus => out.consensus_round.is_some(),
        StopReason::HorizonExhausted => out.rounds_run == horizon,
        StopReason::TooManyFaults | StopReason::TransportLost => false,
    };
    let cap_ok = cap.is_none_or(|c| out.trace.rounds().iter().all(|r| r.max_support <= c));
    out.final_config.n() == n && stop_ok && cap_ok && out.wire_bytes > 0
}

/// Fleet runs until `budget` has passed (at least one). `run` returns
/// `None` for a run that could not complete (a launch failure); `setups`
/// makes its calls between runs.
fn fleet_runs(
    seed: u64,
    budget: Duration,
    mut run: impl FnMut(u64) -> Option<HorizonOutcome>,
    ok: impl Fn(&HorizonOutcome) -> bool,
    mut setups: Option<&mut Setups>,
) -> Runs {
    let deadline = Instant::now() + budget;
    let mut tally = Runs::default();
    while tally.ops == 0 || Instant::now() < deadline {
        let (t, cpu) = (Instant::now(), cpu_time());
        let out = run(trial_seed(seed, tally.ops));
        let (wall, cpu) = (ms(t.elapsed()), ms(cpu_time() - cpu));
        if let Some(setups) = setups.as_deref_mut() {
            setups.poll();
        }
        tally.ops += 1;
        if tally.ops == 1 {
            tally.rss_mib = peak_rss_mib();
        }
        let Some(out) = out else {
            tally.failed += 1;
            continue;
        };
        if !ok(&out) {
            tally.failed += 1;
            eprintln!("fleet run {} failed its checks: stop {:?}", tally.ops, out.stop);
        }
        let rounds = out.rounds_run.max(1) as f64;
        tally.cpu_ms.push(cpu / rounds);
        tally.wall_ms.push(wall / rounds);
        tally.rounds += out.rounds_run;
        tally.wire_bytes += out.wire_bytes;
        tally.messages += out.total_messages;
        tally.report_entries += out.report_entries.iter().sum::<u64>();
        if tally.first.is_none() {
            tally.first = Some(out);
        }
    }
    tally
}

/// `fleet_3m_singletons`: 3-Majority on 2 condensed channel shards with
/// default knobs from `k = n` singletons, for a fixed horizon per run.
pub fn fleet_3m_singletons(args: &Args) -> Report {
    let n = args.sizes.fleet_3m_n;
    let horizon = args.sizes.fleet_3m_horizon;
    let start = Configuration::singletons(n);
    let mut setups = Setups::new(args);
    let runs = fleet_runs(
        args.seed,
        Duration::from_secs_f64(args.seconds),
        |s| Some(fleet_3m(&start, s, horizon)),
        |out| outcome_ok(out, n, horizon, None),
        (!args.trace).then_some(&mut setups),
    );
    if !args.trace {
        return untraced(args, setups, runs.ops, runs.failed, runs.round_cpu_ms(), runs.rss_mib);
    }
    // Snapshots of the first run's trajectory: runs are deterministic per
    // seed, so a shorter horizon replays its prefix.
    let seed = trial_seed(args.seed, 0);
    let mut snaps = vec![Snap { round: 0, config: start.clone() }];
    for round in [1, horizon / 40] {
        if round > 0 && snaps.last().is_none_or(|s| s.round < round) {
            snaps.push(Snap { round, config: fleet_3m(&start, seed, round).final_config });
        }
    }
    let first = runs.first.as_ref().expect("a stretch runs at least once");
    snaps.push(Snap { round: first.rounds_run, config: first.final_config.clone() });
    let mut m = replay::fleet_3m(n, &snaps, args.seed);
    // A round: one condensed push step per shard (shards run in
    // parallel), the coordinator's sparse fold, and the boot round's
    // window step spread over the horizon.
    let blocking = value(&m, "core.rules.condensed_push_step_ms")
        + value(&m, "core.config.merge_sparse_us") / 1e3
        + value(&m, "core.rules.condensed_window_step_ms") / horizon as f64;
    m.extend(runs.layers(blocking));
    Report { attempted: runs.ops, failed: runs.failed, metrics: per_layer(m) }
}

/// `fleet_2c_stalled` (channels) and `socket_2c_stalled` (one worker
/// process per shard over Unix sockets): 2-Choices on 2 agent-backed
/// shards with delta reports from `k = n` singletons.
pub fn fleet_2c_stalled(args: &Args, socket: bool) -> Report {
    let n = args.sizes.fleet_2c_n;
    let horizon = args.sizes.fleet_2c_horizon;
    if socket && !args.worker.as_ref().is_some_and(|w| w.is_file()) {
        // Never fall back to channels: a missing worker fails the run.
        eprintln!("socket_2c_stalled: no shard worker binary at {:?}", args.worker);
        return Report { attempted: 1, failed: 1, metrics: Vec::new() };
    }
    if socket {
        if let Err(e) = std::fs::create_dir_all(&args.socket_dir) {
            eprintln!("socket_2c_stalled: cannot create {:?}: {e}", args.socket_dir);
            return Report { attempted: 1, failed: 1, metrics: Vec::new() };
        }
    }
    let run =
        |start: &Configuration, seed: u64, rounds: u64| fleet_2c(args, socket, start, seed, rounds);
    let start = Configuration::singletons(n);
    let mut setups = Setups::new(args);
    let runs = fleet_runs(
        args.seed,
        Duration::from_secs_f64(args.seconds),
        |s| run(&start, s, horizon),
        |out| outcome_ok(out, n, horizon, Some(support_cap(n))),
        (!args.trace).then_some(&mut setups),
    );
    let mut attempted = runs.ops;
    let mut failed = runs.failed;

    // Outside the timed section: the socket fleet must reproduce the
    // channel fleet's final configuration and wire bytes for its seed.
    // Traced, more channel runs at the next seeds time the transport.
    let mut channel_ms = Vec::new();
    if let (true, Some(first)) = (socket, &runs.first) {
        let timed = if args.trace { CHANNEL_RUNS.min(runs.ops) } else { 1 };
        for i in 0..timed {
            let t = Instant::now();
            let reference = fleet_2c(args, false, &start, trial_seed(args.seed, i), horizon)
                .expect("a channel fleet always launches");
            channel_ms.push(ms(t.elapsed()) / reference.rounds_run.max(1) as f64);
            if i == 0
                && (reference.final_config != first.final_config
                    || reference.wire_bytes != first.wire_bytes)
            {
                failed += 1;
                eprintln!(
                    "socket_2c_stalled: socket run differs from the channel run (wire bytes {} vs {})",
                    first.wire_bytes, reference.wire_bytes
                );
            }
        }
    }

    if !args.trace {
        return untraced(args, setups, runs.ops, failed, runs.round_cpu_ms(), runs.rss_mib);
    }

    // The round-1 snapshot is one more operation: a one-round run, which
    // fails if it cannot launch.
    attempted += 1;
    let boot = run(&start, args.seed, 1);
    if boot.as_ref().is_none_or(|b| b.final_config.n() != n) {
        failed += 1;
        eprintln!("{}: one-round run failed", args.workload);
    }

    let mut snaps = vec![Snap { round: 0, config: start.clone() }];
    if let Some(boot) = boot {
        snaps.push(Snap { round: 1, config: boot.final_config });
    }
    if let Some(first) = &runs.first {
        snaps.push(Snap { round: first.rounds_run, config: first.final_config.clone() });
    }
    let report_entries = runs.per_round(runs.report_entries);
    let mut m = replay::fleet_2c(&snaps, report_entries, socket, args.seed);
    // A round: every node's 2-Choices update on its shard (shards run in
    // parallel), the coordinator's delta fold, and on sockets one shard's
    // palette and report through the codec both ways.
    let codec: f64 = [
        "runtime.codec.encode_palette_us",
        "runtime.codec.decode_palette_us",
        "runtime.codec.encode_report_us",
        "runtime.codec.decode_report_us",
    ]
    .iter()
    .map(|name| if socket { value(&m, name) } else { 0.0 })
    .sum();
    let blocking = (n / SHARDS as u64) as f64 * value(&m, "core.rules.update_ns.2c") / 1e6
        + value(&m, "core.config.apply_deltas_us") / 1e3
        + codec / 1e3;
    m.extend(runs.layers(blocking));
    if socket {
        // Socket minus channel wall ms per round, each the median of its
        // runs; the channel runs share the first socket runs' seeds.
        let transport = runs.round_wall_ms() - quantile(&mut channel_ms, MEDIAN);
        m.push(("runtime.transport.socket_ms_per_round", transport));
    }
    Report { attempted, failed, metrics: per_layer(m) }
}

/// One 2-Choices fleet run on 2 agent-backed shards with delta reports:
/// on channels, or with `socket` one worker process per shard over Unix
/// sockets. A launch failure (no worker binary, a worker that cannot
/// start, a socket that cannot bind) is a failed run, reported as `None`.
fn fleet_2c(
    args: &Args,
    socket: bool,
    start: &Configuration,
    seed: u64,
    rounds: u64,
) -> Option<HorizonOutcome> {
    let config = ClusterConfig::new(SHARDS, seed)
        .with_report_mode(ReportMode::Delta)
        .with_shard_repr(ShardRepr::Agents);
    let cluster = Cluster::new(TwoChoices, start, config);
    if !socket {
        return Some(cluster.run_horizon(rounds));
    }
    let worker = args.worker.clone().filter(|w| w.is_file())?;
    let addr = args.socket_dir.join(format!("pb{}-{}.sock", std::process::id(), seed % 1_000_000));
    let socket =
        SocketConfig { addr: Some(TransportAddr::Unix(addr)), worker: Some(worker), kill: None };
    catch_unwind(AssertUnwindSafe(|| cluster.run_horizon_socket(rounds, &socket))).ok()
}

/// One `fleet_3m_singletons` run: 3-Majority on 2 condensed channel shards
/// with default knobs.
fn fleet_3m(start: &Configuration, seed: u64, rounds: u64) -> HorizonOutcome {
    Cluster::new(ThreeMajority, start, ClusterConfig::new(SHARDS, seed)).run_horizon(rounds)
}

/// CPU seconds of one set-up of `args`' workload, as `--setup-call` runs
/// it in a fresh process: the start configuration plus the engine, or a
/// one-round fleet run (spawn, handshake, boot, join). `None` if the
/// fleet run fails to launch or loses mass.
pub fn setup_once(args: &Args) -> Option<f64> {
    let t = cpu_time();
    let ok = match args.workload.as_str() {
        "engine_race_3m" => {
            let start = Configuration::singletons(args.sizes.race_n);
            black_box(VectorEngine::new(ThreeMajority, start, args.seed));
            true
        }
        "engine_race_2c" => {
            let start = Configuration::singletons(args.sizes.race_n);
            black_box(VectorEngine::new(TwoChoices, start, args.seed));
            true
        }
        "fleet_3m_singletons" => {
            let n = args.sizes.fleet_3m_n;
            fleet_3m(&Configuration::singletons(n), args.seed, 1).final_config.n() == n
        }
        workload => {
            let n = args.sizes.fleet_2c_n;
            let socket = workload == "socket_2c_stalled";
            fleet_2c(args, socket, &Configuration::singletons(n), args.seed, 1)
                .is_some_and(|out| out.final_config.n() == n)
        }
    };
    ok.then(|| (cpu_time() - t).as_secs_f64())
}

/// The untraced result: the loop's operations and round cost, and the
/// set-up series, finished after the loop, which counts as one more
/// operation.
fn untraced(
    args: &Args,
    setups: Setups,
    ops: u64,
    failed: u64,
    round_cpu_ms: f64,
    rss_mib: f64,
) -> Report {
    let setup = setups.finish();
    if setup.is_none() {
        eprintln!("{}: a set-up call failed", args.workload);
    }
    Report {
        attempted: ops + 1,
        failed: failed + u64::from(setup.is_none()),
        metrics: end_to_end(round_cpu_ms, setup.unwrap_or(f64::NAN), rss_mib),
    }
}
