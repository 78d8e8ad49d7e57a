//! Incremental per-tenant serving: one [`TenantSession`] is the resident
//! state machine behind both the batch [`crate::replay`] loop and the
//! `clr-served` daemon.
//!
//! A session owns everything one tenant needs to turn a QoS event into a
//! decision — its [`clr_runtime::RuntimeContext`], a fresh policy
//! instance, the monotonised clock, the degradation-ladder state
//! (last-known-good, consecutive-fault counter, quarantine flag) and the
//! fault plan's site coordinates — so `feed(event)` is a total function:
//! every event produces a [`DecisionRecord`], whatever the input looks
//! like. Batch replay is a thin loop over sessions (`new` + `feed`*),
//! which is what makes the batch and incremental paths provably one code
//! path: the proptest in `tests/feed_replay.rs` asserts byte-identical
//! CSVs and journals between the two.
//!
//! ## Malformed timestamps
//!
//! A non-finite event time (`NaN`/`±inf`) cannot come from a JSONL trace
//! (JSON has no such tokens) but can arrive through the wire protocol or
//! the API. It used to be silently clamped to "now" and served as if
//! nothing happened; a session instead classifies it as **malformed
//! input**: the event is served through the degradation ladder at the
//! current clock, recorded with [`clr_chaos::FaultKind::TraceMalformed`],
//! journaled like any absorbed fault and counted toward quarantine.

use clr_chaos::FaultKind;
use clr_learn::LearnerState;
use clr_runtime::{DecisionInput, Feedback, HvPolicy, RuntimeContext, RuntimePolicy};

use crate::wire::{PromoteStatus, SwapStatus};
use crate::{
    DecisionRecord, HealthState, LineageSnapshot, PromoteRecord, ReplayConfig, ServeStatus,
    SwapRecord, Tenant, TenantOutcome, TraceEvent,
};

/// The decision-layer fault kinds, in the fixed priority order used when
/// several fire on the same event.
const DECISION_FAULTS: [FaultKind; 3] = [
    FaultKind::TransientInfeasible,
    FaultKind::BudgetExhausted,
    FaultKind::PolicyFailure,
];

/// One tenant's resident decision state machine.
///
/// Feed events in the tenant's stream order; the session accumulates the
/// same [`TenantOutcome`] a batch replay would produce. Sessions share no
/// mutable state, so a fleet of sessions can be sharded across worker
/// threads freely — a decision depends only on `(tenant, tenant_idx,
/// config, events so far)`, never on scheduling.
pub struct TenantSession<'a> {
    tenant: &'a Tenant,
    /// Fleet index: one half of the fault plan's site coordinates, so
    /// injection is independent of worker scheduling.
    tenant_idx: usize,
    config: ReplayConfig,
    /// `None` when the runtime context failed to build (corrupted
    /// artifact): the ladder's terminal case, every event quarantines.
    ctx: Option<RuntimeContext<'a>>,
    baseline: HvPolicy,
    policy: Box<dyn RuntimePolicy>,
    /// The online learner, when the tenant's spec is `aura+learn:` —
    /// it decides and observes *instead of* `policy`, so a quarantined
    /// session (which never observes) freezes learning automatically.
    learn: Option<LearnerState>,
    current: usize,
    lkg: Option<usize>,
    consecutive_faults: usize,
    quarantined: bool,
    next_episode_end: f64,
    feas_buf: Vec<usize>,
    /// Per-point makespans, extracted once at seat time so the
    /// per-decision slack computation reads a dense array instead of
    /// chasing into the full design-point records.
    makespans: Vec<f64>,
    now: f64,
    outcome: TenantOutcome,
}

impl std::fmt::Debug for TenantSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantSession")
            .field("tenant", &self.tenant.name())
            .field("tenant_idx", &self.tenant_idx)
            .field("events", &self.outcome.events)
            .field("current", &self.current)
            .field("quarantined", &self.quarantined)
            .finish_non_exhaustive()
    }
}

impl<'a> TenantSession<'a> {
    /// Opens a session for `tenant` at fleet index `tenant_idx`.
    ///
    /// A tenant whose runtime context cannot be built (e.g. a corrupted
    /// artifact with non-finite metrics) is quarantined outright instead
    /// of panicking: the failure is recorded in the outcome and every fed
    /// event is recorded-but-not-served.
    pub fn new(tenant: &'a Tenant, tenant_idx: usize, config: &ReplayConfig) -> Self {
        let mut outcome = TenantOutcome {
            name: tenant.name().to_string(),
            points: tenant.db().len(),
            events: 0,
            reconfigurations: 0,
            violations: 0,
            degraded: 0,
            quarantined: 0,
            faults: 0,
            total_drc: 0.0,
            failure: None,
            generation: tenant.generation(),
            swaps: Vec::new(),
            decisions: Vec::new(),
            shadows: Vec::new(),
            promotes: Vec::new(),
            learn: None,
            health: HealthState::new(),
        };
        let ctx = match RuntimeContext::try_new(tenant.graph(), tenant.platform(), tenant.db()) {
            Ok(ctx) => Some(ctx),
            Err(e) => {
                outcome.failure = Some(e.to_string());
                None
            }
        };
        let quarantined = ctx.is_none();
        if quarantined {
            // A failed runtime context is a quarantine entry at seat
            // time: the registry reports it before any event arrives.
            outcome.health.last_status = ServeStatus::Quarantined;
            outcome.health.note_quarantine_entry();
        }
        let learn = tenant.policy().learn_config().map(|cfg| {
            LearnerState::new(tenant.name(), tenant.db().len(), tenant.generation(), cfg)
                // clr-audit: allow(CLR105) Tenant::from_parts validates every spec this builds
                .expect("checked by PolicySpec::validate")
        });
        if let Some(l) = &learn {
            outcome.learn = Some(crate::LearnSummary::of(l));
        }
        Self {
            tenant,
            tenant_idx,
            config: *config,
            ctx,
            baseline: HvPolicy::new(),
            policy: tenant.policy().build(tenant.db().len()),
            learn,
            current: tenant.initial_point(),
            lkg: None,
            consecutive_faults: 0,
            quarantined,
            next_episode_end: config.episode_cycles,
            feas_buf: Vec::new(),
            makespans: (0..tenant.db().len())
                .map(|i| {
                    tenant
                        .db()
                        .get(i)
                        .map_or(f64::INFINITY, |p| p.metrics.makespan)
                })
                .collect(),
            now: 0.0,
            outcome,
        }
    }

    /// The tenant this session serves.
    pub fn tenant(&self) -> &'a Tenant {
        self.tenant
    }

    /// The session's fleet index (fault-plan site coordinate).
    pub fn tenant_idx(&self) -> usize {
        self.tenant_idx
    }

    /// Events fed so far.
    pub fn events(&self) -> usize {
        self.outcome.events
    }

    /// `true` once the session has stopped serving (K consecutive faults
    /// or a failed runtime context).
    pub fn is_quarantined(&self) -> bool {
        self.quarantined
    }

    /// The live health registry — what a `Stats` query reports for this
    /// tenant.
    pub fn health(&self) -> &HealthState {
        &self.outcome.health
    }

    /// The active snapshot-store generation of the database serving
    /// this session (the seated tenant's until a successful
    /// [`TenantSession::swap_db`]).
    pub fn generation(&self) -> u64 {
        self.outcome.generation
    }

    /// Hot-swaps the session's database from a decoded lineage
    /// snapshot, between decisions.
    ///
    /// The offered artifact must pass [`LineageSnapshot::verify`], match
    /// `expected_generation` when one is given, and rebuild a runtime
    /// context over the tenant's resolved graph/platform. On any of
    /// those failures the running database is kept serving — the
    /// ladder's last-known-good artifact — and the attempt is recorded
    /// with [`SwapStatus::VerifyFailed`].
    ///
    /// A successful swap re-seats the session deterministically: fresh
    /// policy instance, operating point back at the tenant's initial
    /// index (clamped to the new database), cleared last-known-good and
    /// fault streak (point indices are not comparable across
    /// generations), and quarantine lifted — a verified rollout is the
    /// recovery path for a tenant that stopped serving.
    pub fn swap_db(
        &mut self,
        snapshot: &LineageSnapshot,
        expected_generation: Option<u64>,
    ) -> SwapRecord {
        let from_gen = self.outcome.generation;
        let to_gen = snapshot.lineage().generation;
        let acceptable = snapshot.verify().is_ok()
            && expected_generation.is_none_or(|expected| expected == to_gen);
        let built = if acceptable {
            RuntimeContext::try_new_owned(
                self.tenant.graph(),
                self.tenant.platform(),
                snapshot.snapshot().db().clone(),
            )
            .ok()
        } else {
            None
        };
        let record = match built {
            None => SwapRecord {
                event: self.outcome.events,
                from_gen,
                to_gen,
                points: self.outcome.points,
                status: SwapStatus::VerifyFailed,
            },
            Some(ctx) => {
                let db = snapshot.snapshot().db();
                let points = db.len();
                self.makespans = (0..points)
                    .map(|i| db.get(i).map_or(f64::INFINITY, |p| p.metrics.makespan))
                    .collect();
                self.ctx = Some(ctx);
                self.policy = self.tenant.policy().build(points);
                // The learner survives the hot-swap: tables re-seat to
                // the new point count, counters and regret accumulators
                // carry over (checkpoint lineage follows the new
                // generation).
                if let Some(l) = self.learn.as_mut() {
                    l.reseat(points, to_gen);
                    self.outcome.learn = Some(crate::LearnSummary::of(l));
                }
                self.current = self.tenant.initial_point().min(points - 1);
                self.lkg = None;
                self.consecutive_faults = 0;
                self.quarantined = false;
                self.outcome.failure = None;
                self.outcome.points = points;
                self.outcome.generation = to_gen;
                SwapRecord {
                    event: self.outcome.events,
                    from_gen,
                    to_gen,
                    points,
                    status: SwapStatus::Swapped,
                }
            }
        };
        self.outcome.swaps.push(record.clone());
        record
    }

    /// Records a swap attempt that failed before an artifact could be
    /// decoded (an unreadable file, a corrupt container): the running
    /// database keeps serving, and the failed rollout still reaches the
    /// journal.
    pub fn note_swap_failure(&mut self, status: SwapStatus) -> SwapRecord {
        let record = SwapRecord {
            event: self.outcome.events,
            from_gen: self.outcome.generation,
            to_gen: self.outcome.generation,
            points: self.outcome.points,
            status,
        };
        self.outcome.swaps.push(record.clone());
        record
    }

    /// Promotes the tenant's candidate policy over its incumbent,
    /// between decisions. Deterministic given the stream position it is
    /// applied at — the daemon applies it batch-flush-first, like
    /// `SwapDb`. A tenant without a learner records the refusal.
    pub fn promote(&mut self) -> PromoteRecord {
        let record = match self.learn.as_mut() {
            Some(l) => {
                l.promote();
                let promotions = l.promotions();
                self.outcome.learn = Some(crate::LearnSummary::of(l));
                PromoteRecord {
                    event: self.outcome.events,
                    promotions,
                    status: PromoteStatus::Promoted,
                }
            }
            None => PromoteRecord {
                event: self.outcome.events,
                promotions: 0,
                status: PromoteStatus::NoLearner,
            },
        };
        self.outcome.promotes.push(record.clone());
        record
    }

    /// The live learner, when the tenant's spec asks for online
    /// learning — checkpoint it with [`LearnerState::to_bytes`].
    pub fn learner(&self) -> Option<&LearnerState> {
        self.learn.as_ref()
    }

    /// Restores learner state from a decoded checkpoint (a restart's
    /// warm start). The checkpoint must belong to this tenant, carry
    /// the same hyper-parameters, and index the same number of stored
    /// points at the same generation as the serving database.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the first mismatch; the session
    /// keeps its current learner state on any error.
    pub fn restore_learner(&mut self, state: LearnerState) -> Result<(), String> {
        let Some(live) = self.learn.as_mut() else {
            return Err(format!(
                "tenant {:?} has no learner (policy {})",
                self.tenant.name(),
                self.tenant.policy()
            ));
        };
        if state.tenant() != self.tenant.name() {
            return Err(format!(
                "checkpoint belongs to tenant {:?}, not {:?}",
                state.tenant(),
                self.tenant.name()
            ));
        }
        if state.config() != live.config() {
            return Err("checkpoint hyper-parameters differ from the tenant's spec".to_string());
        }
        if state.points() != self.outcome.points {
            return Err(format!(
                "checkpoint indexes {} points, the serving database stores {}",
                state.points(),
                self.outcome.points
            ));
        }
        if state.generation() != self.outcome.generation {
            return Err(format!(
                "checkpoint is for generation {}, the session serves generation {}",
                state.generation(),
                self.outcome.generation
            ));
        }
        *live = state;
        self.outcome.learn = Some(crate::LearnSummary::of(live));
        Ok(())
    }

    /// The accumulated outcome (identical to what a batch replay of the
    /// same event sequence would report).
    pub fn outcome(&self) -> &TenantOutcome {
        &self.outcome
    }

    /// Closes the session, yielding its outcome.
    pub fn into_outcome(self) -> TenantOutcome {
        self.outcome
    }

    /// Serves one event, returning the decision record (also appended to
    /// the session's outcome).
    ///
    /// Total by construction: malformed timestamps degrade (see the
    /// module docs), quarantined sessions record without serving, empty
    /// feasible sets hold position and count a violation. The event's
    /// `tenant` field is the caller's routing concern and is not
    /// re-checked here (a `debug_assert!` guards mismatches in dev
    /// builds).
    pub fn feed(&mut self, event: &TraceEvent) -> DecisionRecord {
        debug_assert!(
            event.tenant == self.tenant.name(),
            "event for {:?} fed to session {:?}",
            event.tenant,
            self.tenant.name()
        );
        self.feed_at(event.time, event.spec)
    }

    /// [`feed`](Self::feed) without the event envelope: the wire path
    /// (`clr-served`) has already routed the request by tenant name, so
    /// it serves `(time, spec)` directly instead of materialising a
    /// [`TraceEvent`] (and its owned name `String`) per request.
    pub fn feed_at(&mut self, event_time: f64, spec: clr_dse::QosSpec) -> DecisionRecord {
        // Monotonised clock: duplicate timestamps serve in file order at
        // the same instant; a regressing timestamp serves "now"; a
        // non-finite timestamp is malformed input, served "now" through
        // the ladder.
        let malformed = !event_time.is_finite();
        let time = if malformed {
            self.now
        } else {
            event_time.max(self.now)
        };
        self.now = time;
        self.outcome.events += 1;
        let ordinal = self.outcome.events as u64;

        let (Some(ctx), false) = (self.ctx.as_ref(), self.quarantined) else {
            self.outcome.quarantined += 1;
            let record = DecisionRecord {
                event: self.outcome.events,
                time,
                spec,
                feasible: 0,
                from: self.current,
                to: self.current,
                drc: 0.0,
                score: None,
                p_rc: None,
                violated: false,
                status: ServeStatus::Quarantined,
                fault: None,
            };
            self.outcome.health.observe(&record, 0.0);
            self.outcome.decisions.push(record.clone());
            return record;
        };

        if self.config.episode_cycles.is_finite() && self.config.episode_cycles > 0.0 {
            while self.next_episode_end <= time {
                match self.learn.as_mut() {
                    Some(l) => l.end_episode(),
                    None => self.policy.end_episode(),
                }
                self.next_episode_end += self.config.episode_cycles;
            }
        }

        ctx.feasible_into(&spec, &mut self.feas_buf);
        // Malformed input outranks injected decision faults: the event
        // itself is the damage.
        let fault = if malformed {
            Some(FaultKind::TraceMalformed)
        } else {
            DECISION_FAULTS
                .iter()
                .copied()
                .find(|&k| self.config.faults.fires(k, self.tenant_idx as u64, ordinal))
        };
        if fault == Some(FaultKind::TransientInfeasible) {
            // The feasibility index is the faulted component: the
            // feasible set transiently reads empty.
            self.feas_buf.clear();
        }

        let (to, violated, score, p_rc, status) = match fault {
            None => {
                let input = DecisionInput {
                    ctx,
                    current: self.current,
                    spec: &spec,
                    feasible: &self.feas_buf,
                };
                // The learner fronts the base policy when the spec asks
                // for online learning; both speak `RuntimePolicy`.
                let outcome = match self.learn.as_mut() {
                    Some(l) => l.decide(&input),
                    None => self.policy.decide(&input),
                };
                let (decision, score, p_rc) = (outcome.choice, outcome.score, outcome.p_rc);
                match decision {
                    Some(p) => (p, false, score, p_rc, ServeStatus::Normal),
                    None => (self.current, true, score, p_rc, ServeStatus::Normal),
                }
            }
            Some(kind) => {
                // The ladder: last-known-good → hypervolume baseline →
                // hold (+violation).
                let feas_buf = &self.feas_buf;
                let lkg_usable = self.lkg.filter(|&l| {
                    // Under a transient-infeasibility fault the index is
                    // down, so the stale point is served unverified.
                    kind == FaultKind::TransientInfeasible || feas_buf.binary_search(&l).is_ok()
                });
                if let Some(l) = lkg_usable {
                    (l, false, None, None, ServeStatus::DegradedLkg)
                } else if let Some(b) = self.baseline.select_from(ctx, &spec, &self.feas_buf) {
                    (b, false, None, None, ServeStatus::DegradedBaseline)
                } else {
                    (self.current, true, None, None, ServeStatus::DegradedHold)
                }
            }
        };
        let drc = ctx.drc(self.current, to);
        let feedback = Feedback {
            ctx,
            from: self.current,
            to,
        };
        match self.learn.as_mut() {
            // The learner observes every *executed* transition —
            // including ladder-served ones its decide never picked: the
            // candidate learns from reality, not from its own plan.
            Some(l) => l.observe(&feedback),
            None => self.policy.observe(&feedback),
        }
        // Harvest the shadow evaluation of a clean scored decision,
        // stamped with the stream ordinal (the learner counts only its
        // own scored decisions; the journal speaks stream positions).
        if let Some(l) = self.learn.as_mut() {
            if let Some(mut shadow) = l.take_shadow() {
                shadow.event = self.outcome.events;
                self.outcome.shadows.push(shadow);
            }
            self.outcome.learn = Some(crate::LearnSummary::of(l));
        }

        if violated {
            self.outcome.violations += 1;
        }
        if to != self.current {
            self.outcome.reconfigurations += 1;
        }
        let mut entered_quarantine = false;
        if fault.is_some() {
            self.outcome.faults += 1;
            self.outcome.degraded += 1;
            self.consecutive_faults += 1;
            if self.config.quarantine_after > 0
                && self.consecutive_faults >= self.config.quarantine_after
            {
                self.quarantined = true;
                entered_quarantine = true;
            }
        } else {
            self.consecutive_faults = 0;
            if !violated {
                self.lkg = Some(to);
            }
        }
        self.outcome.total_drc += drc;
        let record = DecisionRecord {
            event: self.outcome.events,
            time,
            spec,
            feasible: self.feas_buf.len(),
            from: self.current,
            to,
            drc,
            score,
            p_rc,
            violated,
            status,
            fault,
        };
        // Decision "latency" in simulated time: how much makespan
        // headroom the served point leaves under the requirement.
        let slack = self
            .makespans
            .get(to)
            .map_or(0.0, |m| (spec.max_makespan - m).max(0.0));
        self.outcome.health.observe(&record, slack);
        if entered_quarantine {
            self.outcome.health.note_quarantine_entry();
        }
        self.outcome.decisions.push(record.clone());
        self.current = to;
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolicySpec;
    use clr_dse::{DesignPoint, DesignPointDb, PointOrigin, QosSpec};
    use clr_platform::Platform;
    use clr_sched::{Mapping, SystemMetrics};
    use clr_taskgraph::jpeg_encoder;

    fn small_db(n: usize) -> DesignPointDb {
        let mapping = Mapping::first_fit(&jpeg_encoder(), &Platform::dac19()).unwrap();
        let mut db = DesignPointDb::new("t");
        for i in 0..n {
            let f = i as f64 / n as f64;
            db.push(DesignPoint::new(
                mapping.clone(),
                SystemMetrics {
                    makespan: 50.0 + 100.0 * f,
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

    fn session_tenant() -> Tenant {
        Tenant::from_parts(
            "solo",
            jpeg_encoder(),
            Platform::dac19(),
            small_db(8),
            PolicySpec::Ura { p_rc: 0.5 },
        )
        .unwrap()
    }

    fn ev(time: f64, s: f64, f: f64) -> TraceEvent {
        TraceEvent {
            tenant: "solo".into(),
            time,
            spec: QosSpec::new(s, f),
        }
    }

    #[test]
    fn feed_accumulates_the_outcome_in_stream_order() {
        let tenant = session_tenant();
        let mut session = TenantSession::new(&tenant, 0, &ReplayConfig::default());
        for i in 0..5 {
            let d = session.feed(&ev(f64::from(i) * 10.0, f64::MAX, 0.0));
            assert_eq!(d.event, i as usize + 1);
            assert_eq!(d.status, ServeStatus::Normal);
        }
        assert_eq!(session.events(), 5);
        assert_eq!(session.outcome().decisions.len(), 5);
        assert!(!session.is_quarantined());
        let outcome = session.into_outcome();
        assert_eq!(outcome.events, 5);
        assert_eq!(outcome.violations, 0);
    }

    #[test]
    fn non_finite_timestamps_are_classified_malformed() {
        let tenant = session_tenant();
        let config = ReplayConfig {
            quarantine_after: 0,
            ..ReplayConfig::default()
        };
        let mut session = TenantSession::new(&tenant, 0, &config);
        let clean = session.feed(&ev(10.0, f64::MAX, 0.0));
        assert_eq!(clean.status, ServeStatus::Normal);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let d = session.feed(&ev(bad, f64::MAX, 0.0));
            assert_eq!(d.fault, Some(FaultKind::TraceMalformed));
            assert!(d.status.is_degraded(), "malformed input must degrade");
            assert_eq!(d.time, 10.0, "malformed input serves at the current clock");
        }
        assert_eq!(session.outcome().faults, 3);
        // The ladder serves the last-known-good point, so service
        // continues despite the damage.
        assert_eq!(session.outcome().degraded, 3);
    }

    #[test]
    fn consecutive_malformed_timestamps_quarantine() {
        let tenant = session_tenant();
        let config = ReplayConfig {
            quarantine_after: 2,
            ..ReplayConfig::default()
        };
        let mut session = TenantSession::new(&tenant, 0, &config);
        session.feed(&ev(f64::NAN, f64::MAX, 0.0));
        assert!(!session.is_quarantined());
        session.feed(&ev(f64::NAN, f64::MAX, 0.0));
        assert!(session.is_quarantined(), "K consecutive malformed events");
        let d = session.feed(&ev(30.0, f64::MAX, 0.0));
        assert_eq!(d.status, ServeStatus::Quarantined);
    }

    #[test]
    fn malformed_first_event_serves_at_time_zero() {
        let tenant = session_tenant();
        let config = ReplayConfig {
            quarantine_after: 0,
            ..ReplayConfig::default()
        };
        let mut session = TenantSession::new(&tenant, 0, &config);
        let d = session.feed(&ev(f64::NAN, f64::MAX, 0.0));
        assert_eq!(d.time, 0.0);
        assert_eq!(d.fault, Some(FaultKind::TraceMalformed));
        // No LKG yet: the baseline rung serves it.
        assert_eq!(d.status, ServeStatus::DegradedBaseline);
    }
}
