//! The resident serving loop behind the `clr-served` binary.
//!
//! A [`Daemon`] holds one [`TenantSession`] per tenant, sharded across
//! `min(threads, tenants)` mutex-protected shards by fleet index. Each
//! admitted batch of [`Request`]s is partitioned by shard and fanned out
//! over `clr_par::par_map` — one worker item per shard, so every lock is
//! uncontended — then the responses are merged back into **arrival
//! order** before they are written. Within a shard, events are fed in
//! arrival order, so each tenant sees exactly the subsequence of the
//! input stream addressed to it: a daemon fed a time-sorted trace
//! produces decision-for-decision the same records as one batch
//! [`crate::replay`] call. `ci.sh` byte-compares the two.
//!
//! ## Admission, backpressure, drain
//!
//! [`serve_stream`] admits at most [`DaemonConfig::batch`] frames before
//! it must serve and flush them — the bounded queue. Backpressure is the
//! transport's: while the daemon serves a batch it does not read, so a
//! pipe or socket buffer fills and the client blocks. A batch closes
//! early on end-of-stream, an explicit [`Frame::Shutdown`], or any
//! other non-request frame — a control frame (`Stats`, `SwapDb`,
//! `Promote`) is answered only after the pending requests are served,
//! so its answer is a pure function of the stream prefix before it
//! (byte-identical at any `CLR_THREADS`; DESIGN.md §13). Shutdown and
//! end-of-stream drain gracefully (every admitted request is served and
//! flushed before the loop exits). Interactive closed-loop clients
//! whose request window is smaller than `batch` should run `--batch 1`,
//! otherwise admission waits for frames the client will never send.
//!
//! ## Error policy
//!
//! A request addressed to no tenant in the fleet is answered with a
//! [`Frame::Error`] echoing its `seq` — never silently dropped (the
//! bug class this layer's batch path was cured of). A structurally
//! corrupt frame (bad magic, checksum mismatch, truncation) is fatal:
//! framing can no longer be trusted, so the daemon writes a last error
//! frame and returns [`DaemonError::Wire`].

// clr-audit: allow(CLR101) name router is lookup-only; nothing iterates it
use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::sync::Mutex;

use crate::wire::{
    ErrorFrame, Frame, PromoteRequest, PromoteResponse, PromoteStatus, Request, Response,
    StatsRequest, StatsResponse, SwapDbRequest, SwapDbResponse, SwapStatus, WireError,
    MAX_PAYLOAD_LEN, STATS_VERSION,
};
use crate::{
    fleet_snapshot, DecisionRecord, HealthState, LineageSnapshot, ReplayConfig, ReplayError,
    Tenant, TenantOutcome, TenantSession, FLIGHT_RECORDER_LEN,
};
use clr_learn::LearnerState;
use clr_obs::TelemetrySnapshot;

/// Daemon parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonConfig {
    /// Maximum frames admitted per serve/flush cycle (the bounded
    /// queue). Clamped to at least 1.
    pub batch: usize,
    /// The engine configuration (threads, episode boundaries, fault
    /// plan, quarantine threshold) — shared verbatim with batch replay
    /// so the two paths cannot diverge.
    pub replay: ReplayConfig,
    /// Directory for `CLRLRN1` learner checkpoints (`<tenant>.learn`).
    /// When set, learning tenants warm-start from a matching
    /// checkpoint at seating and write one back at drain, so value
    /// tables survive restarts. `None` = cold start, nothing written.
    pub learn_dir: Option<std::path::PathBuf>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            batch: 256,
            replay: ReplayConfig::default(),
            learn_dir: None,
        }
    }
}

/// Why the daemon stopped serving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DaemonError {
    /// The fleet could not be seated (duplicate tenant names).
    Replay(ReplayError),
    /// The request stream is structurally corrupt; framing can no
    /// longer be trusted.
    Wire(WireError),
    /// The response stream could not be written.
    Io(String),
    /// A learner checkpoint could not be written at drain.
    Learn(String),
}

impl std::fmt::Display for DaemonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Replay(e) => write!(f, "{e}"),
            Self::Wire(e) => write!(f, "request stream: {e}"),
            Self::Io(e) => write!(f, "response stream: {e}"),
            Self::Learn(e) => write!(f, "learn checkpoint: {e}"),
        }
    }
}

impl std::error::Error for DaemonError {}

impl From<ReplayError> for DaemonError {
    fn from(e: ReplayError) -> Self {
        Self::Replay(e)
    }
}

/// What one [`serve_stream`] run did, with the drained per-tenant
/// outcomes (fleet order — the same shape batch replay reports).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DaemonReport {
    /// Requests served with a response frame (quarantined decisions
    /// included: recording is serving).
    pub served: usize,
    /// Frames answered with an error frame: unknown tenants, refused
    /// stats queries and protocol-violating frames (a client sending
    /// response/error kinds).
    pub rejected: usize,
    /// Serve/flush cycles executed.
    pub batches: usize,
    /// Stats queries answered with a snapshot frame.
    pub stats: usize,
    /// `SwapDb` requests answered with a swap-response frame (the
    /// frame's status says whether the rollout applied).
    pub swaps: usize,
    /// `Promote` requests answered with a promote-response frame (the
    /// frame's status says whether the shadow table shipped).
    pub promotes: usize,
    /// Learner checkpoint restore/save notes, in fleet order — the
    /// binary prints these to stderr. Empty without a
    /// [`DaemonConfig::learn_dir`].
    pub learn_notes: Vec<String>,
    /// `true` when an explicit [`Frame::Shutdown`] closed the stream,
    /// `false` on plain end-of-stream (both drain fully).
    pub clean_shutdown: bool,
    /// Per-tenant outcomes accumulated by the sessions, in fleet order.
    pub outcomes: Vec<TenantOutcome>,
    /// Requests addressed to tenants absent from the fleet, counted per
    /// offending name (sorted by name — same shape batch replay's
    /// `dropped_by_tenant` reports).
    pub dropped_by_tenant: Vec<(String, u64)>,
}

impl DaemonReport {
    /// Counts one answer frame written to the peer.
    fn tally(&mut self, answer: &Frame) {
        match answer {
            Frame::Response(_) => self.served += 1,
            Frame::StatsResponse(_) => self.stats += 1,
            Frame::SwapDbResponse(_) => self.swaps += 1,
            Frame::PromoteResponse(_) => self.promotes += 1,
            _ => self.rejected += 1,
        }
    }
}

/// One shard: the sessions of every tenant with `idx % shards == s`.
struct Shard<'a> {
    sessions: Vec<TenantSession<'a>>,
}

/// The resident engine: sharded sessions plus the name router.
///
/// [`serve_stream`] is the framed transport front; the load harness
/// drives [`Daemon::handle_batch`] directly to measure the engine
/// without transport I/O.
pub struct Daemon<'a> {
    /// Name router (lookup only, so hash order cannot leak into any
    /// output — responses are merged by arrival position).
    // clr-audit: allow(CLR101) lookup-only router; responses merge by arrival position
    by_name: HashMap<&'a str, usize>,
    shards: Vec<Mutex<Shard<'a>>>,
    /// `tenant_idx → (shard, slot)`.
    locate: Vec<(usize, usize)>,
    /// Unknown-tenant request counts, keyed by the offending name.
    /// Recorded in the serial routing pass, so a BTreeMap keeps the
    /// report order independent of arrival interleaving across batches.
    dropped: Mutex<BTreeMap<String, u64>>,
    tenant_count: usize,
    threads: usize,
}

impl std::fmt::Debug for Daemon<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("tenants", &self.tenant_count)
            .field("shards", &self.shards.len())
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl<'a> Daemon<'a> {
    /// Seats one session per tenant, sharded for the configured thread
    /// count.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Replay`] when two tenants share a name.
    pub fn new(tenants: &'a [Tenant], config: &DaemonConfig) -> Result<Self, DaemonError> {
        // clr-audit: allow(CLR101) lookup-only router; never iterated, order cannot leak
        let mut by_name: HashMap<&str, usize> = HashMap::with_capacity(tenants.len());
        for (idx, tenant) in tenants.iter().enumerate() {
            if by_name.insert(tenant.name(), idx).is_some() {
                return Err(ReplayError::DuplicateTenant(tenant.name().to_string()).into());
            }
        }
        let threads = clr_par::resolve_threads(config.replay.threads);
        let shard_count = threads.min(tenants.len()).max(1);
        let mut shards: Vec<Shard<'a>> = (0..shard_count)
            .map(|_| Shard {
                sessions: Vec::new(),
            })
            .collect();
        let mut locate = Vec::with_capacity(tenants.len());
        for (idx, tenant) in tenants.iter().enumerate() {
            let shard = idx % shard_count;
            locate.push((shard, shards[shard].sessions.len()));
            shards[shard]
                .sessions
                .push(TenantSession::new(tenant, idx, &config.replay));
        }
        Ok(Self {
            by_name,
            shards: shards.into_iter().map(Mutex::new).collect(),
            locate,
            dropped: Mutex::new(BTreeMap::new()),
            tenant_count: tenants.len(),
            threads,
        })
    }

    /// Tenants seated.
    pub fn tenant_count(&self) -> usize {
        self.tenant_count
    }

    /// Serves one admitted batch, returning exactly one frame per
    /// request, **in arrival order**: a [`Frame::Response`] echoing the
    /// request's `seq`, or a [`Frame::Error`] for an unknown tenant.
    ///
    /// Deterministic: each shard feeds its requests in arrival order, so
    /// every tenant sees its subsequence of the stream regardless of how
    /// shards are scheduled across workers.
    pub fn handle_batch(&self, requests: &[Request]) -> Vec<Frame> {
        let mut out: Vec<Option<Frame>> = vec![None; requests.len()];
        // (arrival position, session slot, request) per shard.
        let mut per_shard: Vec<Vec<(usize, usize, &Request)>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        for (pos, request) in requests.iter().enumerate() {
            match self.by_name.get(request.tenant.as_str()) {
                Some(&idx) => {
                    let (shard, slot) = self.locate[idx];
                    per_shard[shard].push((pos, slot, request));
                }
                None => {
                    let mut dropped = self
                        .dropped
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    *dropped.entry(request.tenant.clone()).or_insert(0) += 1;
                    drop(dropped);
                    out[pos] = Some(Frame::Error(ErrorFrame {
                        seq: request.seq,
                        message: format!("unknown tenant {:?}", request.tenant),
                    }));
                }
            }
        }
        let produced = clr_par::par_map(self.threads, &per_shard, |shard_idx, work| {
            let mut shard = self.shards[shard_idx]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            work.iter()
                .map(|&(pos, slot, request)| {
                    // Routing already matched the name; feed_at skips the
                    // per-request TraceEvent (and its String clone).
                    let decision = shard.sessions[slot].feed_at(request.time, request.spec);
                    (
                        pos,
                        Frame::Response(Response {
                            seq: request.seq,
                            tenant: request.tenant.clone(),
                            decision,
                        }),
                    )
                })
                .collect::<Vec<_>>()
        });
        for (pos, frame) in produced.into_iter().flatten() {
            out[pos] = Some(frame);
        }
        out.into_iter().flatten().collect()
    }

    /// Unknown-tenant request counts so far, sorted by offending name.
    pub fn dropped_counts(&self) -> Vec<(String, u64)> {
        self.dropped
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|(name, &n)| (name.clone(), n))
            .collect()
    }

    /// A point-in-time fleet telemetry snapshot in fleet order,
    /// optionally narrowed to one tenant.
    ///
    /// Called between batches (never concurrently with
    /// [`Daemon::handle_batch`] on the same stream), so the snapshot is
    /// a pure function of the request prefix served so far — the
    /// determinism harness byte-compares it across thread counts.
    pub fn telemetry(
        &self,
        label: &str,
        include_flight: bool,
        tenant: Option<&str>,
    ) -> TelemetrySnapshot {
        let indices = match tenant.map(|name| self.by_name.get(name)) {
            None => 0..self.tenant_count,
            Some(Some(&idx)) => idx..idx + 1,
            Some(None) => 0..0,
        };
        let states: Vec<(String, u64, HealthState, Vec<DecisionRecord>)> = indices
            .map(|idx| self.with_index(idx, |session| telemetry_state(session, include_flight)))
            .collect();
        fleet_snapshot(
            label,
            states
                .iter()
                .map(|(n, g, h, d)| (n.as_str(), *g, h, d.as_slice())),
            &self.dropped_counts(),
            include_flight,
        )
    }

    /// Runs `f` on session `idx` (fleet order) under its shard lock.
    fn with_index<R>(&self, idx: usize, f: impl FnOnce(&mut TenantSession<'a>) -> R) -> R {
        let (shard, slot) = self.locate[idx];
        let mut shard = self.shards[shard]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f(&mut shard.sessions[slot])
    }

    /// Runs `f` on the named tenant's session under its shard lock;
    /// `None` when no tenant has that name.
    fn with_session<R>(
        &self,
        name: &str,
        f: impl FnOnce(&mut TenantSession<'a>) -> R,
    ) -> Option<R> {
        let &idx = self.by_name.get(name)?;
        Some(self.with_index(idx, f))
    }

    /// Answers one control frame. Called between batches (never
    /// concurrently with [`Daemon::handle_batch`] on the same stream), so
    /// the answer is a pure function of the stream prefix before the
    /// frame and byte-identical at any `CLR_THREADS`. A frame a client
    /// must not send (a response or error kind) is answered with an
    /// error frame.
    fn control_response(&self, control: &Frame) -> Frame {
        match control {
            Frame::Stats(query) => self.stats_response(query),
            Frame::SwapDb(request) => self.swap_response(request),
            Frame::Promote(request) => self.promote_response(request),
            other => Frame::Error(ErrorFrame {
                seq: 0,
                message: format!("unexpected frame kind {}", other.kind()),
            }),
        }
    }

    /// Answers one stats query: a [`Frame::StatsResponse`] carrying the
    /// snapshot JSON, or a [`Frame::Error`] echoing the query's `seq`
    /// when the query speaks a different stats version, names a tenant
    /// outside the fleet, or the fleet snapshot would overflow the wire
    /// payload cap.
    pub fn stats_response(&self, query: &StatsRequest) -> Frame {
        let error = |message: String| {
            Frame::Error(ErrorFrame {
                seq: query.seq,
                message,
            })
        };
        if query.version != STATS_VERSION {
            return error(format!(
                "unsupported stats version {} (daemon speaks {STATS_VERSION})",
                query.version
            ));
        }
        if let Some(name) = query.tenant.as_deref() {
            if !self.by_name.contains_key(name) {
                return error(format!("unknown tenant {name:?}"));
            }
        }
        let snapshot = self
            .telemetry("fleet", query.flight, query.tenant.as_deref())
            .to_json();
        // seq u64 + u32 text length precede the snapshot in the payload.
        if snapshot.len() + 12 > MAX_PAYLOAD_LEN {
            return error(format!(
                "fleet snapshot is {} bytes, over the {MAX_PAYLOAD_LEN}-byte frame cap; \
                 narrow the query with a tenant filter",
                snapshot.len()
            ));
        }
        Frame::StatsResponse(StatsResponse {
            seq: query.seq,
            snapshot,
        })
    }

    /// Applies one live database swap, answering with a
    /// [`Frame::SwapDbResponse`] whose status says how the rollout
    /// ended and whose `generation` is the tenant's active generation
    /// *after* the attempt.
    ///
    /// The frame carries the artifact *path* (containers outgrow the
    /// wire payload cap); an unreadable file is `io-error`, a corrupt or
    /// lineage-invalid container is `verify-failed`, and both leave the
    /// running database serving as the last-known-good.
    pub fn swap_response(&self, request: &SwapDbRequest) -> Frame {
        let (status, generation) = self
            .with_session(&request.tenant, |session| {
                let record = match std::fs::read(&request.path) {
                    Err(_) => session.note_swap_failure(SwapStatus::IoError),
                    Ok(bytes) => match LineageSnapshot::from_bytes(&bytes) {
                        Err(_) => session.note_swap_failure(SwapStatus::VerifyFailed),
                        Ok(snapshot) => session.swap_db(&snapshot, request.expected_generation),
                    },
                };
                (record.status, session.generation())
            })
            .unwrap_or((SwapStatus::UnknownTenant, 0));
        Frame::SwapDbResponse(SwapDbResponse {
            seq: request.seq,
            tenant: request.tenant.clone(),
            status,
            generation,
        })
    }

    /// Applies one shadow→live policy promotion, answering with a
    /// [`Frame::PromoteResponse`] whose status says whether the
    /// candidate table shipped and whose `promotions` is the tenant's
    /// running promotion count after the attempt.
    pub fn promote_response(&self, request: &PromoteRequest) -> Frame {
        let (status, promotions) = self
            .with_session(&request.tenant, |session| {
                let record = session.promote();
                (record.status, record.promotions)
            })
            .unwrap_or((PromoteStatus::UnknownTenant, 0));
        Frame::PromoteResponse(PromoteResponse {
            seq: request.seq,
            tenant: request.tenant.clone(),
            status,
            promotions,
        })
    }

    /// Warm-starts every learning tenant from a `CLRLRN1` checkpoint in
    /// `dir` (named `<tenant>.learn`), returning one note per learning
    /// tenant saying what happened. A missing, corrupt or mismatched
    /// checkpoint is a cold start, never a seating failure — the note
    /// says why.
    pub fn restore_learners(&self, dir: &std::path::Path) -> Vec<String> {
        let mut notes = Vec::new();
        for idx in 0..self.tenant_count {
            notes.extend(self.with_index(idx, |session| {
                session.learner()?;
                let name = session.tenant().name().to_string();
                let path = dir.join(format!("{name}.learn"));
                let restored = std::fs::read(&path)
                    .map_err(|_| format!("no checkpoint at {}", path.display()))
                    .and_then(|bytes| {
                        LearnerState::from_bytes(&bytes)
                            .map_err(|e| format!("checkpoint rejected: {e}"))
                    })
                    .and_then(|state| {
                        let decisions = state.decisions();
                        session
                            .restore_learner(state)
                            .map(|()| decisions)
                            .map_err(|e| format!("checkpoint refused: {e}"))
                    });
                Some(match restored {
                    Ok(decisions) => format!(
                        "learn: {name}: restored {} ({decisions} decisions)",
                        path.display()
                    ),
                    Err(why) => format!("learn: {name}: {why} (cold start)"),
                })
            }));
        }
        notes
    }

    /// Writes every learning tenant's `CLRLRN1` checkpoint into `dir`
    /// (`<tenant>.learn`), creating the directory if needed. Checkpoint
    /// bytes are a pure function of the served stream, so they are
    /// byte-identical at any `CLR_THREADS`.
    ///
    /// # Errors
    ///
    /// A human-readable message for the first unwritable path.
    pub fn save_learners(&self, dir: &std::path::Path) -> Result<Vec<String>, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let mut notes = Vec::new();
        for idx in 0..self.tenant_count {
            let note = self.with_index(idx, |session| {
                let learner = session.learner()?;
                let path = dir.join(format!("{}.learn", session.tenant().name()));
                Some(
                    std::fs::write(&path, learner.to_bytes())
                        .map(|()| {
                            format!(
                                "learn: wrote {} ({} decisions, {} promotions)",
                                path.display(),
                                learner.decisions(),
                                learner.promotions()
                            )
                        })
                        .map_err(|e| format!("cannot write {}: {e}", path.display())),
                )
            });
            notes.extend(note.transpose()?);
        }
        Ok(notes)
    }

    /// Drains the daemon, yielding every session's accumulated outcome
    /// in fleet order (byte-comparable against a batch replay of the
    /// same event stream).
    pub fn into_outcomes(self) -> Vec<TenantOutcome> {
        let mut slots: Vec<Option<TenantOutcome>> = (0..self.tenant_count).map(|_| None).collect();
        for shard in self.shards {
            let shard = shard
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for session in shard.sessions {
                let idx = session.tenant_idx();
                slots[idx] = Some(session.into_outcome());
            }
        }
        slots.into_iter().flatten().collect()
    }
}

/// One tenant's telemetry row: name, generation, health and — only
/// when the snapshot will render it — the flight tail, the last K
/// served decisions oldest → newest.
fn telemetry_state(
    session: &TenantSession<'_>,
    include_flight: bool,
) -> (String, u64, HealthState, Vec<DecisionRecord>) {
    let health = session.health().clone();
    let mut tail: Vec<DecisionRecord> = Vec::new();
    if include_flight || health.quarantine_entries > 0 {
        tail = session
            .outcome()
            .decisions
            .iter()
            .rev()
            .filter(|d| d.status.is_served())
            .take(FLIGHT_RECORDER_LEN)
            .cloned()
            .collect();
        tail.reverse();
    }
    (
        session.tenant().name().to_string(),
        session.generation(),
        health,
        tail,
    )
}

/// Runs the daemon loop over a framed transport: read up to
/// `config.batch` request frames, serve them, write and flush the
/// responses, repeat until end-of-stream or a shutdown frame. See the
/// module docs for the admission and error policy.
///
/// # Errors
///
/// [`DaemonError`] on a duplicate fleet, a structurally corrupt request
/// stream, or an unwritable response stream. Admitted requests are
/// always served before an orderly exit; on a wire error a final error
/// frame is written best-effort.
pub fn serve_stream(
    tenants: &[Tenant],
    input: &mut dyn Read,
    output: &mut dyn Write,
    config: &DaemonConfig,
) -> Result<DaemonReport, DaemonError> {
    let daemon = Daemon::new(tenants, config)?;
    let cap = config.batch.max(1);
    let mut report = DaemonReport::default();
    if let Some(dir) = &config.learn_dir {
        report.learn_notes = daemon.restore_learners(dir);
    }
    let mut open = true;
    while open {
        let mut batch: Vec<Request> = Vec::with_capacity(cap);
        let mut control: Option<Frame> = None;
        while batch.len() < cap {
            match Frame::read_from(input) {
                Ok(Some(Frame::Request(request))) => batch.push(request),
                Ok(None) => {
                    open = false;
                    break;
                }
                Ok(Some(Frame::Shutdown)) => {
                    report.clean_shutdown = true;
                    open = false;
                    break;
                }
                Ok(Some(frame)) => {
                    // Batch flush first: the frame is answered after
                    // every request admitted before it.
                    control = Some(frame);
                    break;
                }
                Err(e) => {
                    // Framing is lost; tell the peer why, then stop.
                    let error = Frame::Error(ErrorFrame {
                        seq: 0,
                        message: format!("request stream corrupt: {e}"),
                    });
                    let _ = error.write_to(output);
                    let _ = output.flush();
                    return Err(DaemonError::Wire(e));
                }
            }
        }
        let mut answers = Vec::new();
        if !batch.is_empty() {
            answers = daemon.handle_batch(&batch);
            report.batches += 1;
        }
        answers.extend(control.map(|frame| daemon.control_response(&frame)));
        for answer in answers {
            report.tally(&answer);
            answer
                .write_to(output)
                .map_err(|e| DaemonError::Io(e.to_string()))?;
        }
        output.flush().map_err(|e| DaemonError::Io(e.to_string()))?;
    }
    if let Some(dir) = &config.learn_dir {
        let notes = daemon.save_learners(dir).map_err(DaemonError::Learn)?;
        report.learn_notes.extend(notes);
    }
    report.dropped_by_tenant = daemon.dropped_counts();
    report.outcomes = daemon.into_outcomes();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_trace, replay, PolicySpec, Trace};
    use clr_dse::{DesignPoint, DesignPointDb, PointOrigin, QosSpec};
    use clr_platform::Platform;
    use clr_sched::{Mapping, SystemMetrics};
    use clr_taskgraph::jpeg_encoder;

    fn small_db(n: usize, skew: f64) -> DesignPointDb {
        let mapping = Mapping::first_fit(&jpeg_encoder(), &Platform::dac19()).unwrap();
        let mut db = DesignPointDb::new("t");
        for i in 0..n {
            let f = i as f64 / n as f64;
            db.push(DesignPoint::new(
                mapping.clone(),
                SystemMetrics {
                    makespan: 50.0 + 100.0 * f * skew,
                    reliability: 0.6 + 0.35 * f,
                    energy: 1.0 + f,
                    peak_power: 1.0,
                    mean_mttf: 100.0,
                },
                PointOrigin::Pareto,
            ));
        }
        db
    }

    fn fleet(n: usize) -> Vec<Tenant> {
        (0..n)
            .map(|i| {
                Tenant::from_parts(
                    format!("t{i}"),
                    jpeg_encoder(),
                    Platform::dac19(),
                    small_db(8, 1.0 + i as f64 * 0.1),
                    PolicySpec::Ura { p_rc: 0.5 },
                )
                .unwrap()
            })
            .collect()
    }

    fn frames_for(trace: &Trace, shutdown: bool) -> Vec<u8> {
        let mut bytes = Vec::new();
        for (i, event) in trace.events().iter().enumerate() {
            bytes.extend_from_slice(
                &Frame::Request(Request::from_event(i as u64 + 1, event)).to_bytes(),
            );
        }
        if shutdown {
            bytes.extend_from_slice(&Frame::Shutdown.to_bytes());
        }
        bytes
    }

    /// Decodes every frame in `bytes`, in order.
    fn decode_all(mut bytes: &[u8]) -> Vec<Frame> {
        let mut frames = Vec::new();
        while !bytes.is_empty() {
            let (frame, used) = Frame::from_bytes(bytes).unwrap();
            frames.push(frame);
            bytes = &bytes[used..];
        }
        frames
    }

    #[test]
    fn daemon_outcomes_match_batch_replay_exactly() {
        let tenants = fleet(5);
        let trace = generate_trace(&tenants, 23, 3_000.0, 100.0);
        assert!(trace.len() > 20);
        let batch_report = replay(&tenants, &trace, &ReplayConfig::default()).unwrap();
        for threads in [1usize, 8] {
            let config = DaemonConfig {
                batch: 7, // deliberately odd: spans several admission cycles
                replay: ReplayConfig {
                    threads,
                    ..ReplayConfig::default()
                },
                learn_dir: None,
            };
            let mut input = std::io::Cursor::new(frames_for(&trace, true));
            let mut output = Vec::new();
            let report = serve_stream(&tenants, &mut input, &mut output, &config).unwrap();
            assert!(report.clean_shutdown);
            assert_eq!(report.served, trace.len());
            assert_eq!(report.rejected, 0);
            assert_eq!(
                report.outcomes,
                batch_report.outcomes(),
                "threads = {threads}"
            );
            // Responses come back in arrival order with echoed seqs and
            // carry the same decisions the batch engine recorded.
            let frames = decode_all(&output);
            assert_eq!(frames.len(), trace.len());
            let mut next_event: HashMap<String, usize> = HashMap::new();
            for (i, frame) in frames.iter().enumerate() {
                let Frame::Response(r) = frame else {
                    panic!("frame {i} is not a response: {frame:?}")
                };
                assert_eq!(r.seq, i as u64 + 1);
                let cursor = next_event.entry(r.tenant.clone()).or_insert(0);
                let outcome = batch_report
                    .outcomes()
                    .iter()
                    .find(|o| o.name == r.tenant)
                    .unwrap();
                assert_eq!(r.decision, outcome.decisions[*cursor]);
                *cursor += 1;
            }
        }
    }

    #[test]
    fn unknown_tenants_get_error_frames_not_silence() {
        let tenants = fleet(1);
        let lax = QosSpec::new(f64::MAX, 0.0);
        let trace = Trace::new(vec![
            crate::TraceEvent {
                tenant: "t0".into(),
                time: 0.0,
                spec: lax,
            },
            crate::TraceEvent {
                tenant: "ghost".into(),
                time: 1.0,
                spec: lax,
            },
        ]);
        // A frame only a daemon may send is answered in stream position,
        // after the requests admitted before it.
        let mut bytes = frames_for(&trace, false);
        bytes.extend_from_slice(
            &Frame::Error(ErrorFrame {
                seq: 3,
                message: "not yours".into(),
            })
            .to_bytes(),
        );
        let mut input = std::io::Cursor::new(bytes);
        let mut output = Vec::new();
        let report =
            serve_stream(&tenants, &mut input, &mut output, &DaemonConfig::default()).unwrap();
        assert!(!report.clean_shutdown, "EOF drain, no shutdown frame");
        assert_eq!(report.served, 1);
        assert_eq!(report.rejected, 2);
        let frames = decode_all(&output);
        assert!(matches!(&frames[0], Frame::Response(r) if r.seq == 1));
        let Frame::Error(e) = &frames[1] else {
            panic!("expected an error frame, got {:?}", frames[1])
        };
        assert_eq!(e.seq, 2);
        assert!(e.message.contains("ghost"), "message: {}", e.message);
        assert!(matches!(&frames[2], Frame::Error(e) if e.message == "unexpected frame kind 3"));
    }

    #[test]
    fn corrupt_frame_stops_the_daemon_with_a_wire_error() {
        let tenants = fleet(1);
        let mut bytes = Frame::Request(Request {
            seq: 1,
            tenant: "t0".into(),
            time: 0.0,
            spec: QosSpec::new(f64::MAX, 0.0),
        })
        .to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let mut input = std::io::Cursor::new(bytes);
        let mut output = Vec::new();
        let err =
            serve_stream(&tenants, &mut input, &mut output, &DaemonConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            DaemonError::Wire(WireError::ChecksumMismatch { .. })
        ));
        // The peer was told why before the stream closed.
        let frames = decode_all(&output);
        assert!(matches!(&frames[0], Frame::Error(e) if e.message.contains("checksum")));
    }

    #[test]
    fn final_error_frame_fits_the_payload_cap() {
        // A request exactly at the payload cap whose 65,502-byte tenant
        // name holds a space: the decode error quotes the whole name, and
        // the final error frame must still decode on the peer's side.
        let tenants = fleet(1);
        let mut bytes = Frame::Request(Request {
            seq: 1,
            tenant: "a".repeat(65_502),
            time: 0.0,
            spec: QosSpec::new(1.0, 0.5),
        })
        .to_bytes();
        assert_eq!(bytes.len(), crate::wire::WIRE_HEADER_LEN + MAX_PAYLOAD_LEN);
        let last = bytes.len() - 1;
        bytes[last] = b' ';
        let sum = crate::fnv1a64(&bytes[crate::wire::WIRE_HEADER_LEN..]);
        bytes[24..32].copy_from_slice(&sum.to_le_bytes());
        let mut output = Vec::new();
        let err = serve_stream(
            &tenants,
            &mut std::io::Cursor::new(bytes),
            &mut output,
            &DaemonConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, DaemonError::Wire(WireError::Malformed(_))));
        let (frame, used) = Frame::from_bytes(&output).unwrap();
        assert_eq!(used, output.len());
        assert!(matches!(frame, Frame::Error(e) if e.message.contains("bad tenant name")));
    }

    #[test]
    fn stats_queries_are_answered_mid_stream() {
        let tenants = fleet(3);
        let trace = generate_trace(&tenants, 7, 2_000.0, 100.0);
        let mut bytes = Vec::new();
        for (i, event) in trace.events().iter().enumerate() {
            bytes.extend_from_slice(
                &Frame::Request(Request::from_event(i as u64 + 1, event)).to_bytes(),
            );
        }
        let probe_seq = trace.len() as u64 + 1;
        bytes.extend_from_slice(&Frame::Stats(StatsRequest::fleet(probe_seq, false)).to_bytes());
        bytes.extend_from_slice(
            &Frame::Stats(StatsRequest {
                seq: probe_seq + 1,
                version: 9,
                flight: false,
                tenant: None,
            })
            .to_bytes(),
        );
        bytes.extend_from_slice(
            &Frame::Stats(StatsRequest {
                seq: probe_seq + 2,
                version: STATS_VERSION,
                flight: false,
                tenant: Some("ghost".into()),
            })
            .to_bytes(),
        );
        bytes.extend_from_slice(&Frame::Shutdown.to_bytes());
        let mut input = std::io::Cursor::new(bytes);
        let mut output = Vec::new();
        let report =
            serve_stream(&tenants, &mut input, &mut output, &DaemonConfig::default()).unwrap();
        assert!(report.clean_shutdown);
        assert_eq!(report.served, trace.len());
        assert_eq!(report.stats, 1);
        assert_eq!(report.rejected, 2, "bad version + ghost filter");
        let frames = decode_all(&output);
        let Frame::StatsResponse(r) = &frames[trace.len()] else {
            panic!("expected a stats response, got {:?}", frames[trace.len()])
        };
        assert_eq!(r.seq, probe_seq);
        // The answered snapshot decodes and covers every served event.
        let snapshot = clr_obs::TelemetrySnapshot::from_json(&r.snapshot).unwrap();
        assert_eq!(snapshot.events, trace.len() as u64);
        assert_eq!(snapshot.tenants.len(), 3);
        assert!(matches!(
            &frames[trace.len() + 1],
            Frame::Error(e) if e.seq == probe_seq + 1 && e.message.contains("stats version")
        ));
        assert!(matches!(
            &frames[trace.len() + 2],
            Frame::Error(e) if e.seq == probe_seq + 2 && e.message.contains("ghost")
        ));
    }

    #[test]
    fn empty_stream_drains_cleanly() {
        let tenants = fleet(2);
        let mut input = std::io::Cursor::new(Vec::new());
        let mut output = Vec::new();
        let report =
            serve_stream(&tenants, &mut input, &mut output, &DaemonConfig::default()).unwrap();
        assert_eq!(report.served, 0);
        assert_eq!(report.batches, 0);
        assert_eq!(report.outcomes.len(), 2);
        assert!(report.outcomes.iter().all(|o| o.events == 0));
        assert!(output.is_empty());
    }

    /// Writes a verified generation-`g` snapshot of `db` to `path`.
    fn write_rollout(path: &std::path::Path, db: DesignPointDb, generation: u64) {
        let snapshot = crate::Snapshot::new("jpeg", "dac19", db);
        let lineage = crate::Lineage {
            generation,
            parent: (generation > 0).then(|| generation - 1),
            publisher: "roll".into(),
            stamps: crate::compute_stamps(snapshot.db(), generation),
        };
        let wrapped = LineageSnapshot::from_parts(lineage, snapshot);
        wrapped.verify().expect("constructed rollout verifies");
        wrapped.write_file(path).expect("rollout writes");
    }

    #[test]
    fn mid_stream_swap_is_deterministic_and_reseats_the_tenant() {
        let dir = std::env::temp_dir().join("clr-serve-daemon-swap");
        std::fs::create_dir_all(&dir).unwrap();
        let rollout = dir.join("t1-gen5.snap");
        write_rollout(&rollout, small_db(12, 2.0), 5);

        let tenants = fleet(3);
        let trace = generate_trace(&tenants, 31, 3_000.0, 100.0);
        let mut bytes = Vec::new();
        let mid = trace.len() / 2;
        for (i, event) in trace.events().iter().enumerate() {
            if i == mid {
                bytes.extend_from_slice(
                    &Frame::SwapDb(SwapDbRequest {
                        seq: 90_000,
                        tenant: "t1".into(),
                        expected_generation: Some(5),
                        path: rollout.to_string_lossy().into_owned(),
                    })
                    .to_bytes(),
                );
            }
            bytes.extend_from_slice(
                &Frame::Request(Request::from_event(i as u64 + 1, event)).to_bytes(),
            );
        }
        bytes.extend_from_slice(&Frame::Stats(StatsRequest::fleet(90_001, false)).to_bytes());
        bytes.extend_from_slice(&Frame::Shutdown.to_bytes());

        let mut outputs = Vec::new();
        for threads in [1usize, 8] {
            let config = DaemonConfig {
                batch: 7,
                replay: ReplayConfig {
                    threads,
                    ..ReplayConfig::default()
                },
                learn_dir: None,
            };
            let mut input = std::io::Cursor::new(bytes.clone());
            let mut output = Vec::new();
            let report = serve_stream(&tenants, &mut input, &mut output, &config).unwrap();
            assert!(report.clean_shutdown);
            assert_eq!(report.served, trace.len());
            assert_eq!(report.swaps, 1);
            let swapped = report.outcomes.iter().find(|o| o.name == "t1").unwrap();
            assert_eq!(swapped.generation, 5);
            assert_eq!(swapped.points, 12);
            assert_eq!(swapped.swaps.len(), 1);
            assert_eq!(swapped.swaps[0].status, SwapStatus::Swapped);
            assert_eq!(swapped.swaps[0].from_gen, 0);
            assert_eq!(swapped.swaps[0].to_gen, 5);
            // The untouched tenants never left their seeded database.
            for o in report.outcomes.iter().filter(|o| o.name != "t1") {
                assert_eq!(o.generation, 0);
                assert!(o.swaps.is_empty());
            }
            outputs.push(output);
        }
        assert_eq!(
            outputs[0], outputs[1],
            "swap-under-traffic output must be byte-identical at threads 1 and 8"
        );
        let frames = decode_all(&outputs[0]);
        let swap_ack = frames
            .iter()
            .find_map(|f| match f {
                Frame::SwapDbResponse(r) => Some(r),
                _ => None,
            })
            .expect("the swap was acknowledged in stream position");
        assert_eq!(swap_ack.seq, 90_000);
        assert_eq!(swap_ack.status, SwapStatus::Swapped);
        assert_eq!(swap_ack.generation, 5);
        // The closing stats snapshot reports the rolled-out generation.
        let Some(Frame::StatsResponse(stats)) =
            frames.iter().find(|f| matches!(f, Frame::StatsResponse(_)))
        else {
            panic!("expected a stats response")
        };
        let snapshot = TelemetrySnapshot::from_json(&stats.snapshot).unwrap();
        let t1 = snapshot.tenants.iter().find(|t| t.name == "t1").unwrap();
        assert_eq!(t1.generation, 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn swap_failures_keep_the_old_database_serving() {
        let dir = std::env::temp_dir().join("clr-serve-daemon-swap-fail");
        std::fs::create_dir_all(&dir).unwrap();
        let corrupt = dir.join("corrupt.snap");
        std::fs::write(&corrupt, b"not a container").unwrap();
        let rollout = dir.join("gen3.snap");
        write_rollout(&rollout, small_db(12, 2.0), 3);

        let tenants = fleet(1);
        let config = DaemonConfig::default();
        let daemon = Daemon::new(&tenants, &config).unwrap();
        let swap = |tenant: &str, path: &std::path::Path, expected: Option<u64>| {
            daemon.swap_response(&SwapDbRequest {
                seq: 7,
                tenant: tenant.into(),
                expected_generation: expected,
                path: path.to_string_lossy().into_owned(),
            })
        };
        let cases = [
            (swap("ghost", &rollout, None), SwapStatus::UnknownTenant),
            (swap("t0", &dir.join("missing"), None), SwapStatus::IoError),
            (swap("t0", &corrupt, None), SwapStatus::VerifyFailed),
            // A generation precondition that does not hold is refused.
            (swap("t0", &rollout, Some(9)), SwapStatus::VerifyFailed),
        ];
        for (frame, expected_status) in cases {
            let Frame::SwapDbResponse(r) = frame else {
                panic!("expected a swap response, got {frame:?}")
            };
            assert_eq!(r.status, expected_status);
            assert_eq!(r.generation, 0, "the seeded generation keeps serving");
        }
        // Every refusal was recorded; none of them re-seated the tenant.
        let outcomes = daemon.into_outcomes();
        assert_eq!(outcomes[0].generation, 0);
        assert_eq!(outcomes[0].points, 8);
        assert_eq!(
            outcomes[0].swaps.len(),
            3,
            "unknown-tenant never reaches a session"
        );
        assert!(outcomes[0]
            .swaps
            .iter()
            .all(|s| s.status != SwapStatus::Swapped));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn swap_to_another_applications_rollout_keeps_the_old_database_serving() {
        // A well-formed, lineage-valid rollout of a 40-task application:
        // its mappings do not fit the tenant's jpeg graph, so it cannot
        // build a runtime context.
        let dir = std::env::temp_dir().join("clr-serve-daemon-swap-foreign");
        std::fs::create_dir_all(&dir).unwrap();
        let rollout = dir.join("tgff40-gen1.snap");
        let graph = clr_taskgraph::TgffGenerator::new(clr_taskgraph::TgffConfig::with_tasks(40))
            .generate(1);
        let foreign = Mapping::first_fit(&graph, &Platform::dac19()).unwrap();
        let mut db = DesignPointDb::new("tgff40");
        for point in &small_db(12, 2.0) {
            db.push(DesignPoint::new(
                foreign.clone(),
                point.metrics,
                point.origin,
            ));
        }
        let snapshot = crate::Snapshot::new("tgff:40:1", "dac19", db);
        let lineage = crate::Lineage {
            generation: 1,
            parent: Some(0),
            publisher: "roll".into(),
            stamps: crate::compute_stamps(snapshot.db(), 1),
        };
        let wrapped = LineageSnapshot::from_parts(lineage, snapshot);
        wrapped.verify().expect("the rollout is lineage-valid");
        wrapped.write_file(&rollout).unwrap();

        let tenants = fleet(1);
        let trace = generate_trace(&tenants, 5, 2_000.0, 100.0);
        let mut bytes = Vec::new();
        let mid = trace.len() / 2;
        for (i, event) in trace.events().iter().enumerate() {
            if i == mid {
                bytes.extend_from_slice(
                    &Frame::SwapDb(SwapDbRequest {
                        seq: 80_000,
                        tenant: "t0".into(),
                        expected_generation: None,
                        path: rollout.to_string_lossy().into_owned(),
                    })
                    .to_bytes(),
                );
            }
            bytes.extend_from_slice(
                &Frame::Request(Request::from_event(i as u64 + 1, event)).to_bytes(),
            );
        }
        bytes.extend_from_slice(&Frame::Shutdown.to_bytes());
        let mut input = std::io::Cursor::new(bytes);
        let mut output = Vec::new();
        let report =
            serve_stream(&tenants, &mut input, &mut output, &DaemonConfig::default()).unwrap();
        assert!(report.clean_shutdown);
        assert_eq!(report.served, trace.len());
        let outcome = &report.outcomes[0];
        assert_eq!(outcome.swaps.len(), 1);
        assert_eq!(outcome.swaps[0].status, SwapStatus::VerifyFailed);
        assert_eq!(outcome.generation, 0);
        assert_eq!(outcome.points, 8);
        assert_eq!(outcome.events, trace.len());
        assert_eq!(outcome.quarantined, 0, "the old database kept serving");
        assert!(outcome.failure.is_none());
        let ack = decode_all(&output)
            .into_iter()
            .find_map(|f| match f {
                Frame::SwapDbResponse(r) => Some(r),
                _ => None,
            })
            .expect("the swap was answered");
        assert_eq!(ack.status, SwapStatus::VerifyFailed);
        assert_eq!(ack.generation, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn learn_fleet(n: usize) -> Vec<Tenant> {
        (0..n)
            .map(|i| {
                Tenant::from_parts(
                    format!("t{i}"),
                    jpeg_encoder(),
                    Platform::dac19(),
                    small_db(8, 1.0 + i as f64 * 0.1),
                    PolicySpec::AuraLearn {
                        p_rc: 0.5,
                        gamma: 0.6,
                        alpha: 0.2,
                        epsilon: 0.1,
                        seed: 7,
                    },
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn mid_stream_promote_learns_and_checkpoints_survive_restart() {
        let dir = std::env::temp_dir().join("clr-serve-daemon-learn");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let tenants = learn_fleet(3);
        let trace = generate_trace(&tenants, 41, 4_000.0, 100.0);
        assert!(trace.len() > 20);
        let mut bytes = Vec::new();
        let mid = trace.len() / 2;
        for (i, event) in trace.events().iter().enumerate() {
            if i == mid {
                bytes.extend_from_slice(
                    &Frame::Promote(PromoteRequest {
                        seq: 91_000,
                        tenant: "t1".into(),
                    })
                    .to_bytes(),
                );
            }
            bytes.extend_from_slice(
                &Frame::Request(Request::from_event(i as u64 + 1, event)).to_bytes(),
            );
        }
        bytes.extend_from_slice(
            &Frame::Promote(PromoteRequest {
                seq: 91_001,
                tenant: "ghost".into(),
            })
            .to_bytes(),
        );
        bytes.extend_from_slice(&Frame::Shutdown.to_bytes());

        let mut outputs = Vec::new();
        let mut checkpoints = Vec::new();
        let mut first_run_decisions = 0;
        for threads in [1usize, 8] {
            let learn_dir = dir.join(format!("threads-{threads}"));
            let config = DaemonConfig {
                batch: 7,
                replay: ReplayConfig {
                    threads,
                    ..ReplayConfig::default()
                },
                learn_dir: Some(learn_dir.clone()),
            };
            let mut input = std::io::Cursor::new(bytes.clone());
            let mut output = Vec::new();
            let report = serve_stream(&tenants, &mut input, &mut output, &config).unwrap();
            assert!(report.clean_shutdown);
            assert_eq!(report.promotes, 2, "t1 promote + ghost promote answered");
            let t1 = report.outcomes.iter().find(|o| o.name == "t1").unwrap();
            assert_eq!(t1.promotes.len(), 1);
            assert_eq!(t1.promotes[0].status, PromoteStatus::Promoted);
            let learn = t1.learn.expect("learning tenant carries a summary");
            assert_eq!(learn.promotions, 1);
            assert!(!t1.shadows.is_empty(), "every decision was shadow-scored");
            first_run_decisions = learn.decisions;
            // One CLRLRN1 checkpoint per learning tenant was written.
            let cp: Vec<Vec<u8>> = (0..3)
                .map(|i| std::fs::read(learn_dir.join(format!("t{i}.learn"))).unwrap())
                .collect();
            assert!(cp.iter().all(|b| clr_learn::is_learn_checkpoint(b)));
            outputs.push(output);
            checkpoints.push(cp);
        }
        assert_eq!(
            outputs[0], outputs[1],
            "promote-under-traffic output must be byte-identical at threads 1 and 8"
        );
        assert_eq!(
            checkpoints[0], checkpoints[1],
            "checkpoint bytes must be byte-identical at threads 1 and 8"
        );
        let ack = decode_all(&outputs[0])
            .into_iter()
            .find_map(|f| match f {
                Frame::PromoteResponse(r) if r.seq == 91_000 => Some(r),
                _ => None,
            })
            .expect("the promotion was acknowledged in stream position");
        assert_eq!(ack.status, PromoteStatus::Promoted);
        assert_eq!(ack.promotions, 1);

        // Restart against the saved checkpoints: the learner warm-starts
        // and keeps accumulating where the first run stopped.
        let config = DaemonConfig {
            batch: 7,
            replay: ReplayConfig::default(),
            learn_dir: Some(dir.join("threads-1")),
        };
        let mut input = std::io::Cursor::new(frames_for(&trace, true));
        let mut output = Vec::new();
        let report = serve_stream(&tenants, &mut input, &mut output, &config).unwrap();
        assert!(
            report.learn_notes.iter().any(|n| n.contains("restored")),
            "notes: {:?}",
            report.learn_notes
        );
        let t1 = report.outcomes.iter().find(|o| o.name == "t1").unwrap();
        let learn = t1.learn.expect("learning tenant carries a summary");
        assert_eq!(
            learn.decisions,
            2 * first_run_decisions,
            "warm start keeps the first run's scored decisions"
        );
        assert_eq!(learn.promotions, 1, "promotion count survives the restart");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_fleet_is_rejected_at_seating() {
        let mut tenants = fleet(1);
        tenants.push(tenants[0].clone());
        let err = Daemon::new(&tenants, &DaemonConfig::default()).unwrap_err();
        assert_eq!(
            err,
            DaemonError::Replay(ReplayError::DuplicateTenant("t0".into()))
        );
    }
}
