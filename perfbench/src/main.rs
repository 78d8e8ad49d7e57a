//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload fleet_wire|design_flow
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every workload runs in one process on one thread. Inputs are made from
//! the seed before any timing starts; each run then repeats the
//! workload's fixed round until `--seconds` of timed work have passed.
//! Timings are the run's best round, and `setup_s` the run's best
//! seating: the host alternates between fast and slow spells lasting
//! seconds (the slow ones ~1.5x slower), which any mean or median of a
//! run's rounds would mix in by chance, while the best round measures the
//! program in the fast state in most runs and the median across runs
//! drops the rest. The last line of standard output is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`): with `--trace 0` the
//! end-to-end metrics, with `--trace 1` the per-layer metrics of a
//! separate traced run. Any failed check makes the exit code non-zero.
//! See `README.md` for the workloads, metrics and design decisions.

mod design;
mod inputs;
mod serving;
mod traced;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use clr_core::platform::Platform;
use clr_core::serve::{Daemon, DecisionRecord, Tenant, TenantOutcome};

use inputs::{Fleet, Stream};

/// The seed a run uses when none is given.
pub const DEFAULT_SEED: u64 = 1;
/// Seatings before each round are timed until they add up to this many
/// seconds (at least one), so the seatings sample the whole run.
const SETUP_PER_ROUND_S: f64 = 0.05;
/// Timed rounds per run, at least and at most.
const MIN_ROUNDS: usize = 3;
const MAX_ROUNDS: usize = 64;

const USAGE: &str = "usage: perfbench --workload fleet_wire|design_flow \
[--seed N] [--seconds S] [--trace 0|1]";

/// Operations attempted and failed in one run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failed <= 20 {
            eprintln!("perfbench: FAILED: {message}");
        }
    }
}

/// Metrics in print order: `(name, value, unit)`.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                };
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !["fleet_wire", "design_flow"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let result = if args.trace {
        traced::run(&args.workload, args.seed, &mut tally, &mut metrics)
    } else if args.workload == "design_flow" {
        e2e_design(&args, &mut tally, &mut metrics)
    } else {
        let (fleet, stream) = inputs::wire_workload(args.seed);
        e2e_serving(&args, &fleet, &stream, &mut tally, &mut metrics)
    };
    if let Err(e) = result {
        tally.attempt();
        tally.fail(e);
    }
    for (name, value, unit) in &metrics.0 {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        metrics.json()
    );
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `(VmHWM, VmRSS)` of this process in KiB.
pub fn rss_kib() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|n| n.parse().ok())
            .unwrap_or(0)
    };
    (field("VmHWM:"), field("VmRSS:"))
}

/// Resets the process's peak-RSS mark to its current RSS, so the peak
/// read later covers only what ran in between.
pub fn reset_peak_rss() {
    // A kernel without the interface keeps the lifetime peak; the
    // figure then also covers input generation.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Scratch state kept next to the benchmark executable, inside the
/// build directory of the checkout.
pub fn state_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("perfbench-state")))
        .unwrap_or_else(|| PathBuf::from("perfbench-state"))
}

/// Checks this run's counts against every earlier run of the same
/// executable, workload, seed and mode: a count that moves is a failure.
pub fn check_ledger(
    workload: &str,
    seed: u64,
    mode: &str,
    counts: &BTreeMap<String, u64>,
    tally: &mut Tally,
) {
    tally.attempt();
    let exe = std::env::current_exe()
        .ok()
        .and_then(|p| std::fs::read(p).ok())
        .unwrap_or_default();
    let dir = state_dir()
        .join("ledger")
        .join(format!("{:016x}", serving::fingerprint(&exe)));
    let path = dir.join(format!("{workload}-{seed}-{mode}.txt"));
    let text: String = counts.iter().map(|(k, v)| format!("{k}={v}\n")).collect();
    match std::fs::read_to_string(&path) {
        Ok(previous) if previous != text => {
            let old: BTreeMap<&str, &str> =
                previous.lines().filter_map(|l| l.split_once('=')).collect();
            for (k, v) in counts {
                if old.get(k.as_str()) != Some(&v.to_string().as_str()) {
                    tally.fail(format!(
                        "count {k} moved between runs of seed {seed}: {} then {v}",
                        old.get(k.as_str()).unwrap_or(&"absent")
                    ));
                }
            }
        }
        Ok(_) => {}
        Err(_) => {
            let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text));
            if let Err(e) = written {
                eprintln!("perfbench: cannot record counts at {}: {e}", path.display());
            }
        }
    }
}

/// Flags every count of `now` that differs from `first`.
pub fn check_counts(
    first: &BTreeMap<String, u64>,
    now: &BTreeMap<String, u64>,
    what: &str,
    tally: &mut Tally,
) {
    tally.attempt();
    if first != now {
        for (k, v) in now {
            if first.get(k) != Some(v) {
                tally.fail(format!(
                    "{what}: count {k} moved: {:?} then {v}",
                    first.get(k)
                ));
            }
        }
    }
}

/// Smallest value of a sample (NaN when empty).
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// Largest value of a sample (NaN when empty).
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::max).unwrap_or(f64::NAN)
}

/// Median of a sample (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of a sample (NaN when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// One served fleet, ready for repeated rounds.
struct ServeLoop<'a> {
    workload: &'a str,
    tenants: Vec<Tenant>,
    stream: &'a Stream,
    out: Vec<u8>,
    learn_dir: Option<PathBuf>,
    expected: Vec<DecisionRecord>,
    reference: Vec<TenantOutcome>,
    first: Option<BTreeMap<String, u64>>,
    serve_s: Vec<f64>,
    drain_s: Vec<f64>,
    /// Every timed window's round trip, for the p99 line.
    windows_us: Vec<f64>,
    p50_us: Vec<f64>,
    p90_us: Vec<f64>,
    retained_per_event: f64,
    /// Peak RSS of the first round over the RSS before it.
    peak_mib: f64,
}

impl<'a> ServeLoop<'a> {
    fn new(
        workload: &'a str,
        fleet: &Fleet,
        tenants: Vec<Tenant>,
        stream: &'a Stream,
    ) -> Result<Self, String> {
        let learns = fleet.policies.iter().any(|p| p.learn_config().is_some());
        let learn_dir =
            learns.then(|| state_dir().join(format!("learn-{workload}-{}", std::process::id())));
        let (expected, reference) = serving::reference_decisions(&tenants, stream)?;
        Ok(Self {
            workload,
            out: serving::resident_buffer(serving::output_capacity(stream)),
            tenants,
            stream,
            learn_dir,
            expected,
            reference,
            first: None,
            serve_s: Vec::new(),
            drain_s: Vec::new(),
            windows_us: Vec::new(),
            p50_us: Vec::new(),
            p90_us: Vec::new(),
            retained_per_event: 0.0,
            peak_mib: 0.0,
        })
    }

    /// Serves one round. The first (untimed) round is checked in full;
    /// every later one must reproduce its counts and fingerprints.
    /// Returns the round's timed seconds.
    fn round(&mut self, tally: &mut Tally) -> Result<f64, String> {
        let capacity = self.out.capacity();
        // Peak memory is read over the first round only: later rounds
        // reuse heap the allocator kept from earlier ones, so their peak
        // depends on history, while the first round's repeats exactly.
        let (_, base_kib) = rss_kib();
        if self.first.is_none() {
            reset_peak_rss();
        }
        let round = serving::serve_round(
            &self.tenants,
            self.stream,
            &mut self.out,
            self.learn_dir.as_deref(),
        )?;
        if self.first.is_none() {
            let (hwm_kib, _) = rss_kib();
            self.peak_mib = hwm_kib.saturating_sub(base_kib) as f64 / 1024.0;
        }
        if self.out.capacity() != capacity {
            return Err("response buffer outgrew its estimate".to_string());
        }
        let counts = serving::round_counts(&round, self.stream, &self.out);
        tally.attempted += (self.stream.requests.len() + self.stream.controls()) as u64;
        match &self.first {
            None => {
                serving::check_responses(self.stream, &self.out, &self.expected, tally);
                if !self
                    .stream
                    .cycles
                    .iter()
                    .any(|c| matches!(c, inputs::Cycle::Promote(_)))
                {
                    tally.attempt();
                    if round.report.outcomes() != self.reference.as_slice() {
                        tally.fail("daemon outcomes differ from batch replay".to_string());
                    }
                }
                serving::check_drain(&round, tally);
                if round.rejected > 0 {
                    tally.fail(format!("{} frames rejected", round.rejected));
                }
                self.retained_per_event = serving::retained_bytes(round.report.outcomes()) as f64
                    / round.served.max(1) as f64;
                self.first = Some(counts);
                Ok(0.0)
            }
            Some(first) => {
                check_counts(first, &counts, self.workload, tally);
                self.serve_s.push(round.serve_s);
                self.drain_s.push(round.drain_s);
                self.p50_us.push(quantile(&round.windows_us, 0.5));
                self.p90_us.push(quantile(&round.windows_us, 0.9));
                self.windows_us.extend_from_slice(&round.windows_us);
                Ok(round.serve_s + round.drain_s)
            }
        }
    }

    fn finish(&self) {
        if let Some(dir) = &self.learn_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// Reports the best timed round of the run (see the module docs).
    fn report(&self, metrics: &mut Metrics) {
        let requests = self.stream.requests.len() as f64;
        let rates: Vec<f64> = self.serve_s.iter().map(|s| requests / s).collect();
        metrics.put("events_per_s", max(&rates), "events/s");
        metrics.put("latency_p50_us", min(&self.p50_us), "us");
        metrics.put("latency_p90_us", min(&self.p90_us), "us");
        metrics.put("drain_s", min(&self.drain_s), "s");
        println!(
            "# {} rounds x {} requests in {} windows (+{} control frames); medians over rounds: \
             {:.0} events/s, window p50 {:.1} us, p90 {:.1} us, drain {:.4} s; window p99 {:.1} us \
             over all rounds",
            self.serve_s.len(),
            self.stream.requests.len(),
            self.windows_us.len() / self.serve_s.len().max(1),
            self.stream.controls(),
            median(&rates),
            median(&self.p50_us),
            median(&self.p90_us),
            median(&self.drain_s),
            quantile(&self.windows_us, 0.99),
        );
        println!(
            "# rounds: serve_s [{}] drain_s [{}]",
            list(&self.serve_s),
            list(&self.drain_s)
        );
    }
}

fn list(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:.3}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// One timed seating of `fleet`, the steps `clr-served` runs at startup:
/// snapshot bytes → tenants → `Daemon::new`. `extra` runs inside the
/// timing (`design_flow` builds its graph and platform there). The
/// daemon is dropped after the timing: `clr-served` keeps its daemon
/// until exit, so teardown is no part of its startup.
fn timed_setup(fleet: &Fleet, extra: &impl Fn()) -> Result<(Vec<Tenant>, f64), String> {
    let start = Instant::now();
    extra();
    let tenants = serving::tenants_of(fleet)?;
    let daemon = Daemon::new(&tenants, &serving::daemon_config(None)).map_err(|e| e.to_string())?;
    let secs = start.elapsed().as_secs_f64();
    drop(std::hint::black_box(daemon));
    Ok((tenants, secs))
}

/// The seatings before one round: at least one, and
/// [`SETUP_PER_ROUND_S`] of them. Returns the last seating's tenants.
fn seatings(fleet: &Fleet, extra: &impl Fn(), times: &mut Vec<f64>) -> Result<Vec<Tenant>, String> {
    let mut spent = 0.0;
    loop {
        let (tenants, secs) = timed_setup(fleet, extra)?;
        times.push(secs);
        spent += secs;
        if spent >= SETUP_PER_ROUND_S {
            return Ok(tenants);
        }
    }
}

/// Reports the run's best seating as `setup_s`, the median on a `#` line.
fn report_setup(setups: &[f64], metrics: &mut Metrics) {
    metrics.put("setup_s", min(setups), "s");
    println!(
        "# setup: {} seatings, best {:.4} s, median {:.4} s",
        setups.len(),
        min(setups),
        median(setups)
    );
}

fn memory_line(class: &str, retained: f64, peak_mib: f64) {
    println!(
        "# memory: tenant class {class}: serve.retained_bytes_per_event {retained:.1} B, \
         serve peak {peak_mib:.2} MiB"
    );
}

/// `fleet_wire`.
fn e2e_serving(
    args: &Args,
    fleet: &Fleet,
    stream: &Stream,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let no_extra = || {};
    let mut setups = Vec::new();
    let tenants = seatings(fleet, &no_extra, &mut setups)?;
    let points: Vec<usize> = tenants.iter().map(|t| t.db().len()).collect();
    println!(
        "# fleet: {} tenants ({}), {}..{} stored points each",
        tenants.len(),
        fleet.class,
        points.iter().min().unwrap_or(&0),
        points.iter().max().unwrap_or(&0)
    );
    let mut serve = ServeLoop::new(&args.workload, fleet, tenants, stream)?;
    serve.round(tally)?;
    let mut measured = 0.0;
    let mut rounds = 0;
    let mut run_s = Vec::new();
    while rounds < MIN_ROUNDS || (measured < args.seconds && rounds < MAX_ROUNDS) {
        seatings(fleet, &no_extra, &mut setups)?;
        let t = serve.round(tally)?;
        run_s.push(t);
        measured += t;
        rounds += 1;
    }
    let peak = serve.peak_mib;
    serve.finish();
    let mut counts = serve.first.clone().unwrap_or_default();
    counts.insert("events".to_string(), stream.requests.len() as u64);
    check_ledger(&args.workload, args.seed, "e2e", &counts, tally);

    report_setup(&setups, metrics);
    serve.report(metrics);
    metrics.put("run_s", min(&run_s), "s");
    metrics.put("peak_rss_mb", peak, "MiB");
    memory_line(fleet.class, serve.retained_per_event, peak);
    Ok(())
}

/// `design_flow`: the design-time flow per round, plus the validation
/// stream a designer serves on the freshly designed database.
fn e2e_design(args: &Args, tally: &mut Tally, metrics: &mut Metrics) -> Result<(), String> {
    let graph = inputs::design_graph();
    let platform = Platform::dac19();
    // The first flow's peak memory over the RSS before it: the GA
    // populations, BaseD, ReD and the prior's tables.
    let (_, base_kib) = rss_kib();
    reset_peak_rss();
    let first = design::design(&graph, &platform, args.seed);
    let design_mib = rss_kib().0.saturating_sub(base_kib) as f64 / 1024.0;
    design::check_design(&graph, &platform, &first, tally);
    let red_fnv = serving::fingerprint(first.red.to_csv().as_bytes());

    let (fleet, stream) = inputs::deploy_workload(&first.red, args.seed);
    let build_models = || {
        std::hint::black_box((inputs::design_graph(), Platform::dac19()));
    };
    let mut setups = Vec::new();
    let tenants = seatings(&fleet, &build_models, &mut setups)?;
    let mut serve = ServeLoop::new(&args.workload, &fleet, tenants, &stream)?;
    serve.round(tally)?;
    let mut measured = 0.0;
    let mut rounds = 0;
    let mut run_s = Vec::new();
    while rounds < MIN_ROUNDS || (measured < args.seconds && rounds < MAX_ROUNDS) {
        seatings(&fleet, &build_models, &mut setups)?;
        let d = design::design(&graph, &platform, args.seed);
        tally.attempt();
        if serving::fingerprint(d.red.to_csv().as_bytes()) != red_fnv {
            tally.fail("ReD database moved between rounds".to_string());
        }
        run_s.push(d.run_s);
        drop(d);
        measured += run_s.last().copied().unwrap_or(0.0) + serve.round(tally)?;
        rounds += 1;
    }
    let serve_mib = serve.peak_mib;
    serve.finish();
    let mut counts = serve.first.clone().unwrap_or_default();
    counts.insert("based_points".to_string(), first.based.len() as u64);
    counts.insert("red_points".to_string(), first.red.len() as u64);
    counts.insert("red_fnv".to_string(), red_fnv);
    check_ledger(&args.workload, args.seed, "e2e", &counts, tally);
    println!(
        "# design: {} BaseD points, {} ReD points; run_s [{}]",
        first.based.len(),
        first.red.len(),
        list(&run_s)
    );

    report_setup(&setups, metrics);
    serve.report(metrics);
    metrics.put("run_s", min(&run_s), "s");
    // The two timed phases peak at different times, each over the RSS
    // before it; their sum moves with a regression in either.
    metrics.put("peak_rss_mb", design_mib + serve_mib, "MiB");
    println!(
        "# memory: design flow peak {design_mib:.2} MiB + validation serve peak \
         {serve_mib:.2} MiB"
    );
    memory_line(fleet.class, serve.retained_per_event, serve_mib);
    Ok(())
}
