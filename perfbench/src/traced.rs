//! The traced run: per-layer metrics from spans the benchmark records
//! around its calls into each layer's public functions.
//!
//! A span is `(name, start, end, parent, seq)`; spans stay in memory and
//! are written to `perfbench-state/spans/<workload>.spans` at the end. A
//! span's self time is its duration minus its children's, less the
//! calibrated cost of the clock reads it encloses.
//!
//! Three passes replay the stream the end-to-end run serves, in lockstep
//! slices of [`SLICE_WINDOWS`] windows so that a drifting host slows all
//! of them alike:
//!
//! - **wire ladder** — `Frame::read_from` per frame, `Daemon::handle_batch`
//!   per window, `Daemon::stats_response`/`promote_response` per control
//!   frame and `Frame::write_to` per response, each a child of its
//!   admission-cycle span. Its output must equal the untraced
//!   `serve_stream` output byte for byte, and its self times must add up
//!   to the fastest untraced `serve_stream` round: the run prints the gap
//!   and the tracing overhead.
//! - **session rung** — fresh `TenantSession`s fed with `feed_at` in
//!   stream order; each decision must equal the served response byte for
//!   byte. `route` is the batch time the sessions do not account for.
//! - **isolated rungs** — the recorded `(from, spec, to)` inputs replayed
//!   through `RuntimeContext::feasible_into`, each tenant's decision step
//!   as its session runs it (`RuntimePolicy::decide`, or `LearnerState`
//!   decide + observe when the tenant learns) and `HealthState::observe`.
//!   They split the session time into the ladder's feasibility,
//!   uRA/AuRA, learn, telemetry and journal rungs.
//!
//! A layer is measured only on a workload that runs it: the learner
//! where tenants learn, the GA evaluators only in `design_flow`. Those
//! figures are printed on `#` lines.

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::PathBuf;
use std::time::Instant;

use clr_core::dse::{ClrMappingProblem, DesignPointDb, DseConfig, ExplorationMode};
use clr_core::moea::{hypervolume, Problem};
use clr_core::obs::{Event, Obs, ObsMode};
use clr_core::platform::Platform;
use clr_core::reliability::{ConfigSpace, FaultModel};
use clr_core::runtime::{
    AuraAgent, DecisionInput, Feedback, QosVariationModel, RuntimeContext, RuntimePolicy,
};
use clr_core::serve::wire::{Frame, Response};
use clr_core::serve::{
    Daemon, DecisionRecord, HealthState, ReplayReport, Snapshot, Tenant, TenantOutcome,
    TenantSession,
};
use clr_core::taskgraph::TaskGraph;
use clr_learn::LearnerState;

use crate::inputs::{self, Cycle, Fleet, Stream};
use crate::{design, median, serving, Metrics, Tally};

/// Repetitions of the three passes, each followed by an untraced
/// `serve_stream` round.
const REPS: usize = 3;
/// Windows per lockstep slice of the three passes.
const SLICE_WINDOWS: usize = 256;
/// Largest gap allowed between the summed rung self times and the
/// untraced serve time, as a share of the latter.
const GAP_BOUND: f64 = 0.25;
/// Traced seatings of the fleet.
const SETUP_REPS: usize = 5;

/// Span names; the discriminant indexes [`NAMES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Name {
    Cycle,
    Decode,
    Batch,
    Encode,
    Stats,
    Promote,
    Session,
    Feasible,
    Decide,
    Learn,
    Health,
    SnapshotDecode,
    TenantSeat,
    DaemonNew,
    ContextNew,
    FromParts,
    Emit,
    Render,
    Csv,
    Checkpoint,
    Based,
    Red,
    Prior,
    Evaluate,
    Hypervolume,
}

const NAMES: [&str; 25] = [
    "serve.cycle",
    "wire.decode",
    "serve.batch",
    "wire.encode",
    "serve.stats",
    "serve.promote",
    "serve.session",
    "runtime.feasible",
    "runtime.decide",
    "learn.step",
    "serve.health",
    "serve.snapshot_decode",
    "serve.tenant",
    "serve.daemon_new",
    "runtime.context_new",
    "serve.from_parts",
    "obs.emit",
    "obs.render",
    "serve.csv",
    "learn.checkpoint",
    "dse.based",
    "dse.red",
    "runtime.prior",
    "moea.evaluate",
    "moea.hv",
];

/// The wire-ladder span names: their self times sum to the serve time.
const WIRE_LADDER: [Name; 6] = [
    Name::Cycle,
    Name::Decode,
    Name::Batch,
    Name::Encode,
    Name::Stats,
    Name::Promote,
];

const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    start: u64,
    end: u64,
    parent: u32,
    seq: u32,
    name: Name,
}

/// Calls and self time of every span with one name.
#[derive(Debug, Clone, Copy, Default)]
struct Agg {
    calls: usize,
    self_ns: f64,
}

impl Agg {
    fn mean_ns(&self) -> f64 {
        per(self.self_ns, self.calls)
    }
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Cost of one clock read, subtracted per enclosed read.
    clock_ns: f64,
}

impl Tracer {
    fn new() -> Self {
        let origin = Instant::now();
        let reads: Vec<f64> = (0..20_001)
            .map(|_| origin.elapsed().as_nanos() as f64)
            .collect();
        let mut deltas: Vec<f64> = reads.windows(2).map(|w| w[1] - w[0]).collect();
        deltas.sort_by(f64::total_cmp);
        Self {
            origin,
            spans: Vec::with_capacity(1 << 20),
            clock_ns: deltas[deltas.len() / 2],
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: Name, parent: u32, seq: u64) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("span count fits u32");
        self.spans.push(Span {
            start: self.now(),
            end: 0,
            parent,
            seq: u32::try_from(seq).unwrap_or(u32::MAX),
            name,
        });
        id
    }

    fn close(&mut self, id: u32) {
        let end = self.now();
        self.spans[id as usize].end = end;
    }

    fn secs(&self, id: u32) -> f64 {
        let s = &self.spans[id as usize];
        (s.end - s.start) as f64 / 1e9
    }

    /// Per-name aggregates of the spans in `range` (parents included),
    /// with the clock-read cost removed.
    fn aggregate(&self, range: Range<usize>) -> BTreeMap<&'static str, Agg> {
        let spans = &self.spans[range.clone()];
        let mut child_ns = vec![0u64; spans.len()];
        let mut children = vec![0u32; spans.len()];
        for s in spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize - range.start] += s.end - s.start;
                children[s.parent as usize - range.start] += 1;
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let raw = (s.end - s.start) as f64;
            let a = out.entry(NAMES[s.name as usize]).or_default();
            a.calls += 1;
            a.self_ns += raw - child_ns[i] as f64 - self.clock_ns * (1.0 + f64::from(children[i]));
        }
        out
    }

    /// Writes every span: `PBSPANS1`, the name table, then fixed
    /// 26-byte little-endian records (name u16, parent u32, seq u32,
    /// start u64, end u64; times in ns since the run's origin).
    fn write(&self, workload: &str) -> std::io::Result<PathBuf> {
        let dir = crate::state_dir().join("spans");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{workload}.spans"));
        let mut buf = Vec::with_capacity(512 + self.spans.len() * 26);
        buf.extend_from_slice(b"PBSPANS1");
        buf.extend_from_slice(&(NAMES.len() as u32).to_le_bytes());
        for name in NAMES {
            buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
            buf.extend_from_slice(name.as_bytes());
        }
        buf.extend_from_slice(&(self.spans.len() as u64).to_le_bytes());
        for s in &self.spans {
            buf.extend_from_slice(&(s.name as u16).to_le_bytes());
            buf.extend_from_slice(&s.parent.to_le_bytes());
            buf.extend_from_slice(&s.seq.to_le_bytes());
            buf.extend_from_slice(&s.start.to_le_bytes());
            buf.extend_from_slice(&s.end.to_le_bytes());
        }
        std::fs::write(&path, buf)?;
        Ok(path)
    }
}

fn per(total: f64, n: usize) -> f64 {
    total / n.max(1) as f64
}

/// Entry point of `--trace 1`.
pub fn run(
    workload: &str,
    seed: u64,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let mut tr = Tracer::new();
    println!(
        "# trace: one clock read costs {:.1} ns, subtracted per enclosed read",
        tr.clock_ns
    );
    let (fleet, stream) = if workload == "design_flow" {
        let graph = inputs::design_graph();
        let platform = Platform::dac19();
        let red = design_layers(&mut tr, &graph, &platform, seed, tally);
        evaluator_layers(&mut tr, &graph, &platform, &red, tally);
        inputs::deploy_workload(&red, seed)
    } else {
        inputs::wire_workload(seed)
    };
    serving_layers(&mut tr, workload, seed, &fleet, &stream, tally, metrics)?;
    match tr.write(workload) {
        Ok(path) => println!(
            "# trace: {} spans written to {}",
            tr.spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: cannot write spans: {e}"),
    }
    Ok(())
}

/// Seats the fleet [`SETUP_REPS`] times under spans; returns the tenants
/// and the `Daemon::new` seconds of each repetition.
fn setup_layers(tr: &mut Tracer, fleet: &Fleet) -> Result<(Vec<Tenant>, Vec<f64>), String> {
    let config = serving::daemon_config(None);
    let mut daemon_new_s = Vec::new();
    let mut tenants = Vec::new();
    for _ in 0..SETUP_REPS {
        tenants.clear();
        for ((name, bytes), policy) in fleet
            .names
            .iter()
            .zip(&fleet.snapshots)
            .zip(&fleet.policies)
        {
            let s = tr.open(Name::SnapshotDecode, ROOT, 0);
            let snapshot = Snapshot::from_bytes(bytes);
            tr.close(s);
            let snapshot = snapshot.map_err(|e| e.to_string())?;
            let s = tr.open(Name::TenantSeat, ROOT, 0);
            let tenant = Tenant::from_snapshot(name.clone(), &snapshot, *policy);
            tr.close(s);
            tenants.push(tenant.map_err(|e| e.to_string())?);
        }
        let s = tr.open(Name::DaemonNew, ROOT, 0);
        let daemon = Daemon::new(&tenants, &config).map_err(|e| e.to_string())?;
        tr.close(s);
        drop(daemon);
        daemon_new_s.push(tr.secs(s));
    }
    Ok((tenants, daemon_new_s))
}

/// The untraced `serve_stream` reference rounds.
struct Untraced {
    out: Vec<u8>,
    learn_dir: Option<PathBuf>,
    serve_s: Vec<f64>,
    /// `(output fingerprint, counts)` of the first round.
    first: Option<(u64, BTreeMap<String, u64>)>,
}

impl Untraced {
    fn new(workload: &str, fleet: &Fleet, stream: &Stream) -> Self {
        let learns = fleet.policies.iter().any(|p| p.learn_config().is_some());
        Self {
            out: serving::resident_buffer(serving::output_capacity(stream)),
            learn_dir: learns.then(|| {
                crate::state_dir().join(format!("learn-trace-{workload}-{}", std::process::id()))
            }),
            serve_s: Vec::new(),
            first: None,
        }
    }

    fn rounds(
        &mut self,
        tenants: &[Tenant],
        stream: &Stream,
        n: usize,
        tally: &mut Tally,
    ) -> Result<(), String> {
        for _ in 0..n {
            let r =
                serving::serve_round(tenants, stream, &mut self.out, self.learn_dir.as_deref())?;
            let counts = serving::round_counts(&r, stream, &self.out);
            match &self.first {
                None => self.first = Some((serving::fingerprint(&self.out), counts)),
                Some((_, first)) => {
                    crate::check_counts(first, &counts, "untraced round", tally);
                    self.serve_s.push(r.serve_s);
                }
            }
        }
        Ok(())
    }

    /// Removes the checkpoint directory; returns the fastest round's
    /// serve time.
    fn finish(self) -> f64 {
        if let Some(dir) = &self.learn_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        crate::min(&self.serve_s)
    }
}

/// Splits a stream's cycles into slices of [`SLICE_WINDOWS`] windows,
/// each control frame staying with the window before it.
fn slices(stream: &Stream) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let (mut start, mut windows) = (0, 0);
    for (i, cycle) in stream.cycles.iter().enumerate() {
        if matches!(cycle, Cycle::Window(_)) {
            if windows == SLICE_WINDOWS {
                out.push(start..i);
                start = i;
                windows = 0;
            }
            windows += 1;
        }
    }
    out.push(start..stream.cycles.len());
    out
}

/// What the isolated rungs counted.
#[derive(Debug, Default)]
struct Rungs {
    feasible_sum: usize,
    reconfigs: usize,
    violations: usize,
    shadows: usize,
    agree: usize,
}

/// A tenant's decision step in the isolated rungs, as its session runs
/// it: the learner fronts the base policy when the tenant learns.
enum Decider {
    Policy(Box<dyn RuntimePolicy>),
    Learner(Box<LearnerState>),
}

/// What one repetition of the three passes measured.
struct Rep {
    /// This repetition's spans in the tracer.
    spans: Range<usize>,
    /// Wall time of the wire ladder's slices.
    wire_wall_s: f64,
    batches: usize,
    rungs: Rungs,
    prefetch_hits: u64,
    prefetch_misses: u64,
    promotions: u64,
    /// The daemon's drained outcomes.
    drained: Vec<TenantOutcome>,
}

/// The untraced run a repetition is checked against.
struct Served {
    output_fnv: u64,
    counts: BTreeMap<String, u64>,
}

/// One repetition of the wire ladder, session rung and isolated rungs,
/// in lockstep slices, each checked against the untraced output.
#[allow(clippy::too_many_lines)]
fn lockstep(
    tr: &mut Tracer,
    tenants: &[Tenant],
    stream: &Stream,
    served: &Served,
    tally: &mut Tally,
) -> Result<Rep, String> {
    let first_span = tr.spans.len();
    let config = serving::daemon_config(None);
    let replay = config.replay;
    let daemon = Daemon::new(tenants, &config).map_err(|e| e.to_string())?;
    let mut sessions: Vec<TenantSession<'_>> = tenants
        .iter()
        .enumerate()
        .map(|(i, t)| TenantSession::new(t, i, &replay))
        .collect();
    let mut ctxs = Vec::with_capacity(tenants.len());
    for t in tenants {
        let s = tr.open(Name::ContextNew, ROOT, 0);
        let ctx = RuntimeContext::new(t.graph(), t.platform(), t.db());
        tr.close(s);
        ctxs.push(ctx);
    }
    let mut deciders: Vec<Decider> = tenants
        .iter()
        .map(|t| match t.policy().learn_config() {
            Some(cfg) => LearnerState::new(t.name(), t.db().len(), t.generation(), cfg)
                .map(|l| Decider::Learner(Box::new(l))),
            None => Ok(Decider::Policy(t.policy().build(t.db().len()))),
        })
        .collect::<Result<_, String>>()?;
    let mut health: Vec<HealthState> = tenants.iter().map(|_| HealthState::new()).collect();
    let makespans: Vec<Vec<f64>> = tenants
        .iter()
        .map(|t| t.db().points().iter().map(|p| p.metrics.makespan).collect())
        .collect();
    let index: BTreeMap<&str, usize> = tenants
        .iter()
        .enumerate()
        .map(|(i, t)| (t.name(), i))
        .collect();
    let mut next_episode = vec![replay.episode_cycles; tenants.len()];
    let mut feas = Vec::new();
    let mut rungs = Rungs::default();
    let mut input: &[u8] = &stream.bytes;
    let mut wire_out = serving::resident_buffer(serving::output_capacity(stream));
    let mut wire_wall_s = 0.0;
    let (mut batches, mut mismatches) = (0usize, 0usize);
    let mut records: Vec<DecisionRecord> = Vec::new();
    let mut promotes: Vec<(usize, usize)> = Vec::new();

    for slice in slices(stream) {
        // Pass A: the wire ladder over this slice.
        let out_start = wire_out.len();
        let a_start = tr.now();
        for ci in slice.clone() {
            let cyc = tr.open(Name::Cycle, ROOT, ci as u64);
            let n_frames = match &stream.cycles[ci] {
                Cycle::Window(range) => range.len(),
                Cycle::Stats(_) | Cycle::Promote(_) => 1,
            };
            let mut batch = Vec::with_capacity(n_frames);
            let mut control = None;
            for _ in 0..n_frames {
                let s = tr.open(Name::Decode, cyc, 0);
                let frame = Frame::read_from(&mut input);
                tr.close(s);
                match frame.map_err(|e| format!("request stream: {e}"))? {
                    Some(Frame::Request(r)) => batch.push(r),
                    Some(other) => control = Some(other),
                    None => return Err("request stream ended early".to_string()),
                }
            }
            let answers = if batch.is_empty() {
                let (span, frame) = match control {
                    Some(Frame::Stats(q)) => {
                        let s = tr.open(Name::Stats, cyc, q.seq);
                        (s, daemon.stats_response(&q))
                    }
                    Some(Frame::Promote(p)) => {
                        let s = tr.open(Name::Promote, cyc, p.seq);
                        (s, daemon.promote_response(&p))
                    }
                    other => return Err(format!("unexpected control frame {other:?}")),
                };
                tr.close(span);
                vec![frame]
            } else {
                let s = tr.open(Name::Batch, cyc, batch[0].seq);
                let frames = daemon.handle_batch(&batch);
                tr.close(s);
                batches += 1;
                frames
            };
            for frame in answers {
                let s = tr.open(Name::Encode, cyc, 0);
                let written = frame.write_to(&mut wire_out);
                tr.close(s);
                written.map_err(|e| e.to_string())?;
            }
            tr.close(cyc);
        }
        wire_wall_s += (tr.now() - a_start) as f64 / 1e9;
        let slice_out = &wire_out[out_start..];

        // Pass B: the session rung over this slice, checked against the
        // wire ladder's responses byte for byte.
        records.clear();
        promotes.clear();
        let mut first_request = None;
        for ci in slice.clone() {
            match &stream.cycles[ci] {
                Cycle::Window(range) => {
                    first_request.get_or_insert(range.start);
                    for (r, &t) in stream.requests[range.clone()]
                        .iter()
                        .zip(&stream.tenant_of[range.clone()])
                    {
                        let s = tr.open(Name::Session, ROOT, r.seq);
                        let d = sessions[t].feed_at(r.time, r.spec);
                        tr.close(s);
                        records.push(d);
                    }
                }
                Cycle::Promote(p) => {
                    let t = index[p.tenant.as_str()];
                    sessions[t].promote();
                    promotes.push((records.len(), t));
                }
                Cycle::Stats(_) => {}
            }
        }
        let first_request = first_request.unwrap_or(0);
        let (mut pos, mut k) = (0usize, 0usize);
        while pos < slice_out.len() {
            let (frame, used) = Frame::from_bytes(&slice_out[pos..]).map_err(|e| e.to_string())?;
            if let Frame::Response(_) = frame {
                let r = &stream.requests[first_request + k];
                let want = records.get(k).map(|d| {
                    Frame::Response(Response {
                        seq: r.seq,
                        tenant: r.tenant.clone(),
                        decision: d.clone(),
                    })
                    .to_bytes()
                });
                if want.as_deref() != Some(&slice_out[pos..pos + used]) {
                    mismatches += 1;
                }
                k += 1;
            }
            pos += used;
        }
        mismatches += records.len().abs_diff(k);

        // Pass C: the isolated rungs over the slice's recorded inputs.
        let mut pending = promotes.iter().peekable();
        for (i, d) in records.iter().enumerate() {
            while let Some(&(_, t)) = pending.next_if(|&&(at, _)| at == i) {
                if let Decider::Learner(l) = &mut deciders[t] {
                    l.promote();
                }
            }
            let t = stream.tenant_of[first_request + i];
            let seq = stream.requests[first_request + i].seq;
            let ctx = &ctxs[t];
            while next_episode[t] <= d.time {
                match &mut deciders[t] {
                    Decider::Policy(p) => p.end_episode(),
                    Decider::Learner(l) => l.end_episode(),
                }
                next_episode[t] += replay.episode_cycles;
            }
            let s = tr.open(Name::Feasible, ROOT, seq);
            ctx.feasible_into(&d.spec, &mut feas);
            tr.close(s);
            rungs.feasible_sum += feas.len();
            let input = DecisionInput {
                ctx,
                current: d.from,
                spec: &d.spec,
                feasible: &feas,
            };
            let feedback = Feedback {
                ctx,
                from: d.from,
                to: d.to,
            };
            let decided = match &mut deciders[t] {
                Decider::Policy(p) => {
                    let s = tr.open(Name::Decide, ROOT, seq);
                    let decided = p.decide(&input);
                    tr.close(s);
                    p.observe(&feedback);
                    decided
                }
                Decider::Learner(l) => {
                    let s = tr.open(Name::Learn, ROOT, seq);
                    let decided = l.decide(&input);
                    l.observe(&feedback);
                    let shadow = l.take_shadow();
                    tr.close(s);
                    rungs.shadows += usize::from(shadow.is_some());
                    decided
                }
            };
            rungs.agree += usize::from(decided.choice.unwrap_or(d.from) == d.to);
            let slack = makespans[t]
                .get(d.to)
                .map_or(0.0, |m| (d.spec.max_makespan - m).max(0.0));
            let s = tr.open(Name::Health, ROOT, seq);
            health[t].observe(d, slack);
            tr.close(s);
            rungs.reconfigs += usize::from(d.to != d.from);
            rungs.violations += usize::from(d.violated);
        }
        for &(_, t) in pending {
            if let Decider::Learner(l) = &mut deciders[t] {
                l.promote();
            }
        }
    }
    match Frame::read_from(&mut input) {
        Ok(Some(Frame::Shutdown)) if input.is_empty() => {}
        other => {
            return Err(format!(
                "stream does not end in one shutdown frame: {other:?}"
            ))
        }
    }

    tally.attempt();
    if serving::fingerprint(&wire_out) != served.output_fnv {
        tally.fail("traced wire ladder output differs from serve_stream output".to_string());
    }
    tally.attempt();
    if mismatches > 0 {
        tally.fail(format!(
            "session rung: {mismatches} decisions differ from the served responses"
        ));
    }
    // Checkpoints of the session rung's learners must equal the drained ones.
    let mut ckpt = Vec::new();
    for session in &sessions {
        if let Some(l) = session.learner() {
            let s = tr.open(Name::Checkpoint, ROOT, 0);
            let bytes = l.to_bytes();
            tr.close(s);
            ckpt.extend_from_slice(session.tenant().name().as_bytes());
            ckpt.extend_from_slice(&bytes);
        }
    }
    tally.attempt();
    if serving::fingerprint(&ckpt) != served.counts["checkpoint_fnv"] {
        tally.fail("session-rung checkpoints differ from the drained ones".to_string());
    }
    let drained = daemon.into_outcomes();
    let session_outcomes: Vec<_> = sessions
        .into_iter()
        .map(TenantSession::into_outcome)
        .collect();
    tally.attempt();
    if session_outcomes != drained {
        tally.fail("session rung outcomes differ from the daemon's".to_string());
    }
    let (mut hits, mut misses, mut promotions) = (0, 0, 0);
    for decider in &deciders {
        if let Decider::Learner(l) = decider {
            hits += l.prefetch_hits();
            misses += l.prefetch_misses();
            promotions += l.promotions();
        }
    }
    tally.attempt();
    if (hits, misses)
        != (
            served.counts["prefetch_hits"],
            served.counts["prefetch_misses"],
        )
    {
        tally.fail("isolated learn rung prefetch counts differ from the served run".to_string());
    }
    Ok(Rep {
        spans: first_span..tr.spans.len(),
        wire_wall_s,
        batches,
        rungs,
        prefetch_hits: hits,
        prefetch_misses: misses,
        promotions,
        drained,
    })
}

/// The serving layers of one workload: setup, repetitions of the three
/// passes between untraced rounds, and the drain.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
fn serving_layers(
    tr: &mut Tracer,
    workload: &str,
    seed: u64,
    fleet: &Fleet,
    stream: &Stream,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let events = stream.requests.len();
    let (tenants, daemon_new_s) = setup_layers(tr, fleet)?;
    let mut untraced = Untraced::new(workload, fleet, stream);
    // A warm-up round that also fixes the reference output, then traced
    // repetitions and untraced rounds in turn.
    untraced.rounds(&tenants, stream, 2, tally)?;
    let served = {
        let (output_fnv, counts) = untraced.first.clone().expect("rounds ran");
        Served { output_fnv, counts }
    };
    let mut reps = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        reps.push(lockstep(tr, &tenants, stream, &served, tally)?);
        untraced.rounds(&tenants, stream, 1, tally)?;
    }
    let untraced_s = untraced.finish();
    println!(
        "# trace: isolated rungs reproduce {} of {events} served choices",
        reps[0].rungs.agree
    );

    // The repetition whose wire ladder summed fastest stands for the
    // run, against the fastest untraced round: both are the run's best.
    let wire_self_s = |tr: &Tracer, rep: &Rep| {
        let agg = tr.aggregate(rep.spans.clone());
        WIRE_LADDER
            .iter()
            .map(|&n| agg.get(NAMES[n as usize]).map_or(0.0, |a| a.self_ns))
            .sum::<f64>()
            / 1e9
    };
    let sums: Vec<f64> = reps.iter().map(|r| wire_self_s(tr, r)).collect();
    let best_idx = (0..reps.len())
        .min_by(|&a, &b| sums[a].total_cmp(&sums[b]))
        .expect("at least one repetition");
    let rep = reps.swap_remove(best_idx);
    let wire_sum_s = sums[best_idx];
    drop(reps);

    let retained = serving::retained_bytes(&rep.drained);
    let journal_bytes = drain_layers(tr, rep.drained, &served.counts, tally);

    let best = tr.aggregate(rep.spans.clone());
    let all = tr.aggregate(0..tr.spans.len());
    let get = |n: Name| best.get(NAMES[n as usize]).copied().unwrap_or_default();
    let get_all = |n: Name| all.get(NAMES[n as usize]).copied().unwrap_or_default();
    let gap = (untraced_s - wire_sum_s) / untraced_s;
    let overhead = (rep.wire_wall_s - untraced_s) / untraced_s;
    tally.attempt();
    if gap.abs() > GAP_BOUND {
        tally.fail(format!(
            "rung self times sum to {wire_sum_s:.4} s against {untraced_s:.4} s untraced \
             (gap {:+.1}%)",
            gap * 100.0
        ));
    }
    let session = get(Name::Session).self_ns;
    let feasible = get(Name::Feasible).self_ns;
    let policy_rung = get(Name::Decide).self_ns;
    let learn_rung = get(Name::Learn).self_ns;
    let telemetry = get(Name::Health).self_ns;
    let batch = get(Name::Batch).self_ns;
    let ladder = [
        ("admission", get(Name::Cycle).self_ns),
        ("decode", get(Name::Decode).self_ns),
        ("route", batch - session),
        ("feasibility", feasible),
        ("uRA/AuRA", policy_rung),
        ("learn", learn_rung),
        ("telemetry", telemetry),
        (
            "journal",
            session - feasible - policy_rung - learn_rung - telemetry,
        ),
        ("encode", get(Name::Encode).self_ns),
        (
            "control",
            get(Name::Stats).self_ns + get(Name::Promote).self_ns,
        ),
    ];
    println!(
        "# ladder: self time per request and share of the fastest untraced serve_stream \
         round, {untraced_s:.4} s (repetition {} of {REPS})",
        best_idx + 1
    );
    for (rung, ns) in ladder {
        println!(
            "#   {rung:<12} {:>10.1} ns {:>7.1}%",
            per(ns, events),
            ns / 1e9 / untraced_s * 100.0
        );
    }
    println!(
        "# rung sum {wire_sum_s:.4} s vs untraced {untraced_s:.4} s: gap {:+.2}%; traced wall \
         {:.4} s: tracing overhead {:+.2}%",
        gap * 100.0,
        rep.wire_wall_s,
        overhead * 100.0
    );

    let rungs = &rep.rungs;
    let (hits, misses) = (rep.prefetch_hits, rep.prefetch_misses);
    metrics.put("wire.decode_ns", get(Name::Decode).mean_ns(), "ns");
    metrics.put("wire.encode_ns", get(Name::Encode).mean_ns(), "ns");
    metrics.put(
        "wire.bytes_in_per_event",
        per(stream.bytes.len() as f64, events),
        "B",
    );
    metrics.put(
        "wire.bytes_out_per_event",
        per(served.counts["bytes_out"] as f64, events),
        "B",
    );
    metrics.put("serve.batch_ns", per(batch, events), "ns");
    metrics.put("serve.session_ns", per(session, events), "ns");
    metrics.put("serve.route_ns", per(batch - session, events), "ns");
    metrics.put("serve.health_ns", per(telemetry, events), "ns");
    metrics.put("serve.stats_us", get(Name::Stats).mean_ns() / 1e3, "us");
    metrics.put("serve.batches", rep.batches as f64, "count");
    metrics.put("serve.batch_mean", per(events as f64, rep.batches), "count");
    metrics.put(
        "serve.retained_bytes_per_event",
        per(retained as f64, events),
        "B",
    );
    metrics.put(
        "serve.snapshot_decode_us",
        get_all(Name::SnapshotDecode).mean_ns() / 1e3,
        "us",
    );
    metrics.put(
        "runtime.context_new_us",
        get(Name::ContextNew).mean_ns() / 1e3,
        "us",
    );
    metrics.put("serve.daemon_new_s", median(&daemon_new_s), "s");
    metrics.put("runtime.feasible_ns", per(feasible, events), "ns");
    metrics.put(
        "runtime.feasible_mean",
        per(rungs.feasible_sum as f64, events),
        "count",
    );
    // The decision step that serves: the base policy's, or the
    // learner's where tenants learn.
    metrics.put(
        "runtime.decide_ns",
        per(policy_rung + learn_rung, events),
        "ns",
    );
    metrics.put(
        "runtime.reconfig_ratio",
        per(rungs.reconfigs as f64, events),
        "ratio",
    );
    metrics.put(
        "runtime.violation_ratio",
        per(rungs.violations as f64, events),
        "ratio",
    );
    metrics.put(
        "obs.emit_ns",
        per(get_all(Name::Emit).self_ns, events),
        "ns",
    );
    metrics.put(
        "obs.render_ns",
        per(get_all(Name::Render).self_ns, events),
        "ns",
    );
    metrics.put(
        "obs.journal_bytes_per_event",
        per(journal_bytes as f64, events),
        "B",
    );
    metrics.put(
        "serve.csv_ns",
        per(get_all(Name::Csv).self_ns, events),
        "ns",
    );
    metrics.put("trace.gap_ratio", gap, "ratio");
    metrics.put("trace.overhead_ratio", overhead, "ratio");
    if get(Name::Learn).calls > 0 {
        let promote = get(Name::Promote);
        println!(
            "# learn: learn.step_ns {:.1}, learn.prefetch_hit_ratio {:.4} ({hits} hits of {} \
             predictions), learn.shadows_per_event {:.4}, learn.promotions {}, \
             learn.checkpoint_us {:.3}; serve.promote_us {:.3} over {} promotes",
            per(learn_rung, events),
            per(hits as f64, (hits + misses) as usize),
            hits + misses,
            per(rungs.shadows as f64, events),
            rep.promotions,
            get(Name::Checkpoint).mean_ns() / 1e3,
            promote.mean_ns() / 1e3,
            promote.calls
        );
    }

    let mut counts = served.counts;
    for (k, v) in [
        ("trace.feasible_sum", rungs.feasible_sum),
        ("trace.reconfigurations", rungs.reconfigs),
        ("trace.violations", rungs.violations),
        ("trace.shadows", rungs.shadows),
        ("trace.retained_bytes", retained),
        ("trace.batches", rep.batches),
        ("trace.journal_bytes", journal_bytes),
    ] {
        counts.insert(k.to_string(), v as u64);
    }
    counts.insert("trace.prefetch_hits".to_string(), hits);
    counts.insert("trace.prefetch_misses".to_string(), misses);
    crate::check_ledger(workload, seed, "trace", &counts, tally);
    Ok(())
}

/// The drain `clr-served` runs at exit, one span per step; returns the
/// journal length.
fn drain_layers(
    tr: &mut Tracer,
    drained: Vec<TenantOutcome>,
    e2e_counts: &BTreeMap<String, u64>,
    tally: &mut Tally,
) -> usize {
    let s = tr.open(Name::FromParts, ROOT, 0);
    let report = ReplayReport::from_parts(drained, Vec::new());
    tr.close(s);
    let obs = Obs::new(ObsMode::Json);
    let s = tr.open(Name::Emit, ROOT, 0);
    report.emit_obs(&obs);
    tr.close(s);
    let s = tr.open(Name::Render, ROOT, 0);
    let journal = obs.render_det_jsonl();
    tr.close(s);
    let s = tr.open(Name::Csv, ROOT, 0);
    let csv = report.decisions_csv();
    tr.close(s);
    tally.attempt();
    if serving::fingerprint(journal.as_bytes()) != e2e_counts["journal_fnv"]
        || serving::fingerprint(csv.as_bytes()) != e2e_counts["csv_fnv"]
    {
        tally.fail("traced drain differs from the served drain".to_string());
    }
    journal.len()
}

/// `Problem::evaluate` over every mapping of the designed database and
/// `hypervolume` over its stored front, printed on a `#` line.
fn evaluator_layers(
    tr: &mut Tracer,
    graph: &TaskGraph,
    platform: &Platform,
    db: &DesignPointDb,
    tally: &mut Tally,
) {
    let first_span = tr.spans.len();
    let problem = ClrMappingProblem::new(
        graph,
        platform,
        FaultModel::default(),
        ConfigSpace::fine(),
        ExplorationMode::Full,
    );
    for p in db.points() {
        let s = tr.open(Name::Evaluate, ROOT, 0);
        std::hint::black_box(problem.evaluate(&p.mapping));
        tr.close(s);
    }
    let objectives: Vec<Vec<f64>> = db
        .points()
        .iter()
        .map(|p| ExplorationMode::Full.objectives_of(&p.metrics))
        .collect();
    let reference: Vec<f64> = (0..objectives[0].len())
        .map(|i| {
            objectives
                .iter()
                .map(|o| o[i])
                .fold(f64::NEG_INFINITY, f64::max)
                .abs()
                * 1.1
                + 1.0
        })
        .collect();
    let s = tr.open(Name::Hypervolume, ROOT, 0);
    let volume = hypervolume(&objectives, &reference);
    tr.close(s);
    tally.attempt();
    if !volume.is_ok_and(f64::is_finite) {
        tally.fail("hypervolume of the stored front failed".to_string());
    }
    let agg = tr.aggregate(first_span..tr.spans.len());
    let get = |n: Name| agg.get(NAMES[n as usize]).copied().unwrap_or_default();
    println!(
        "# moea: moea.eval_us {:.3} over {} stored mappings, moea.hv_ms {:.3} over a \
         {}-point front",
        get(Name::Evaluate).mean_ns() / 1e3,
        get(Name::Evaluate).calls,
        get(Name::Hypervolume).mean_ns() / 1e6,
        db.len()
    );
}

/// The design-time layers of `design_flow`: BaseD, ReD and the prior,
/// each one span, with the GA and ReD counts read from the flow's
/// journal. Returns the ReD database (checked equal to the untraced
/// flow's).
fn design_layers(
    tr: &mut Tracer,
    graph: &TaskGraph,
    platform: &Platform,
    seed: u64,
    tally: &mut Tally,
) -> DesignPointDb {
    let untraced = design::design(graph, platform, seed);
    design::check_design(graph, platform, &untraced, tally);
    let obs = Obs::new(ObsMode::Json);
    // HybridFlow's storage split: BaseD keeps two thirds of the budget,
    // ReD fills the whole of it.
    let dse = DseConfig {
        ga: design::based_ga(),
        mode: ExplorationMode::Full,
        reference: None,
        max_points: Some((design::STORAGE_LIMIT * 2 / 3).max(2)),
    };
    let red_config = clr_core::dse::RedConfig {
        max_total: Some(design::STORAGE_LIMIT),
        ..design::red_config()
    };
    let space = ConfigSpace::fine();
    let start = tr.now();
    let based_span = tr.open(Name::Based, ROOT, 0);
    let based = clr_core::dse::explore_based_with(
        graph,
        platform,
        FaultModel::default(),
        space.clone(),
        &dse,
        seed,
        &obs,
    );
    tr.close(based_span);
    let red_span = tr.open(Name::Red, ROOT, 0);
    let red = clr_core::dse::explore_red_with(
        graph,
        platform,
        FaultModel::default(),
        space,
        ExplorationMode::Full,
        &based,
        &red_config,
        seed.wrapping_add(1),
        &obs,
    );
    tr.close(red_span);
    let ctx = RuntimeContext::new(graph, platform, &red);
    let qos = QosVariationModel::calibrated_walk(&red, 0.25, 0.3);
    let mut agent = AuraAgent::new(ctx.len(), 0.5, 0.6, 0.1).expect("valid agent parameters");
    let prior_span = tr.open(Name::Prior, ROOT, 0);
    agent.train_prior_with(
        &ctx,
        &qos,
        design::PRIOR_EPISODES,
        design::PRIOR_EPISODE_CYCLES,
        seed,
        1,
    );
    tr.close(prior_span);
    let traced_run_s = (tr.now() - start) as f64 / 1e9;
    tally.attempt();
    if red != untraced.red || based != untraced.based {
        tally.fail("traced design flow produced another database".to_string());
    }
    let (mut evals, mut found, mut kept) = (0usize, 0usize, 0usize);
    for e in obs.det_events() {
        match e {
            Event::GaGen { evals: n, .. } => evals += n,
            Event::RedSeed {
                candidates,
                kept: k,
                ..
            } => {
                found += candidates;
                kept += k;
            }
            _ => {}
        }
    }
    let prior_s = tr.secs(prior_span);
    println!(
        "# design layers: dse.based_s {:.4}, dse.red_s {:.4}, runtime.prior_s {prior_s:.4} \
         (runtime.prior_episodes_per_s {:.1}); dse.based_points {}, dse.red_points {}, \
         dse.red_kept_ratio {:.4} ({kept} kept of {found} found), moea.evals {evals}; \
         traced run_s {traced_run_s:.4} vs untraced {:.4}",
        tr.secs(based_span),
        tr.secs(red_span),
        design::PRIOR_EPISODES as f64 / prior_s,
        based.len(),
        red.len(),
        per(kept as f64, found),
        untraced.run_s
    );
    red
}
