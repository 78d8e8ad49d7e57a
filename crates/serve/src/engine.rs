//! The deterministic multi-tenant event engine.
//!
//! [`replay`] drives a batched QoS-event [`Trace`] through a fleet of
//! [`Tenant`]s: events are routed to tenants by name, each tenant's
//! events are processed in file order through its own
//! [`clr_runtime::RuntimeContext`] and [`clr_runtime::RuntimePolicy`],
//! and independent tenants fan out across `clr-par` workers.
//!
//! ## Determinism contract
//!
//! A replay is a pure function of `(tenants, trace, config)`:
//!
//! - tenants share no mutable state, and each tenant's policy instance
//!   is built fresh inside its worker, so no learned state leaks across
//!   tenants or replays;
//! - `clr_par::par_map` returns tenant outcomes in input order whatever
//!   the thread count;
//! - journal emission ([`ReplayReport::emit_obs`]) and CSV rendering
//!   walk the collected outcomes serially, after the parallel section.
//!
//! `ci.sh` enforces the consequence: `clr-serve replay` byte-identical
//! decision CSVs and deterministic journal sections at `CLR_THREADS=1`
//! and `8`.
//!
//! ## Degradation ladder
//!
//! The engine survives injected decision-layer faults (a seeded
//! [`clr_chaos::FaultPlan`] in [`ReplayConfig::faults`]) instead of
//! panicking. When a fault fires on an event — the policy errors, its
//! time budget is exhausted, or the feasibility index transiently reads
//! empty — the decision is served through a fixed fallback order:
//!
//! 1. **Last-known-good** ([`ServeStatus::DegradedLkg`]): the most
//!    recent successfully decided point, when it still satisfies the
//!    requirement;
//! 2. **Hypervolume baseline** ([`ServeStatus::DegradedBaseline`]):
//!    [`clr_runtime::HvPolicy`]'s max-hypervolume feasible point;
//! 3. **Hold** ([`ServeStatus::DegradedHold`]): keep the current point
//!    and count a violation.
//!
//! A tenant whose stream hits [`ReplayConfig::quarantine_after`]
//! *consecutive* faults is quarantined: its remaining events are
//! recorded (status `quarantined`) but no longer served. Because a
//! fault plan is a pure function of `(seed, rates, tenant index, event
//! ordinal)`, the ladder composes with the parallel tenant fan-out —
//! chaos replays stay bit-identical at any thread count.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use clr_chaos::{FaultKind, FaultPlan};
use clr_dse::QosSpec;
use clr_obs::{num, Event, Obs};

use crate::wire::{PromoteStatus, SwapStatus};
use crate::{Tenant, TenantSession, Trace, TraceEvent};

/// Replay parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayConfig {
    /// Worker threads for the tenant fan-out (`0` = automatic: the
    /// `CLR_THREADS` environment variable, falling back to available
    /// parallelism). The result never depends on this.
    pub threads: usize,
    /// Episode length in cycles for learning policies' value updates
    /// (`f64::INFINITY` disables episode boundaries).
    pub episode_cycles: f64,
    /// The fault-injection plan driving the degradation ladder. The
    /// default is [`FaultPlan::inert`]: no faults, byte-identical to a
    /// pre-chaos replay.
    pub faults: FaultPlan,
    /// Quarantine a tenant after this many *consecutive* faulted events
    /// (`0` disables quarantine).
    pub quarantine_after: usize,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            episode_cycles: 1_000.0,
            faults: FaultPlan::inert(0),
            quarantine_after: 3,
        }
    }
}

/// How a decision was served: normally, through a degradation rung, or
/// not at all (quarantined).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeStatus {
    /// The tenant's own policy decided.
    Normal,
    /// Fault absorbed by re-serving the last-known-good point.
    DegradedLkg,
    /// Fault absorbed by the max-hypervolume baseline policy.
    DegradedBaseline,
    /// Fault absorbed by holding the current point (counts a violation).
    DegradedHold,
    /// The tenant is quarantined; the event was recorded, not served.
    Quarantined,
}

impl ServeStatus {
    /// The stable textual tag (CSV `status` column, journal `action`).
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Normal => "normal",
            Self::DegradedLkg => "lkg",
            Self::DegradedBaseline => "baseline",
            Self::DegradedHold => "hold",
            Self::Quarantined => "quarantined",
        }
    }

    /// `true` for the three fallback rungs.
    pub fn is_degraded(self) -> bool {
        matches!(
            self,
            Self::DegradedLkg | Self::DegradedBaseline | Self::DegradedHold
        )
    }

    /// `true` when the decision was actually served (degraded or not).
    pub fn is_served(self) -> bool {
        self != Self::Quarantined
    }
}

/// One served decision, as recorded per tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// 1-based event ordinal within the tenant's stream.
    pub event: usize,
    /// Event time (monotonised: a regressing input timestamp is served
    /// at the tenant's current clock).
    pub time: f64,
    /// The requirement served.
    pub spec: QosSpec,
    /// Size of the feasible set.
    pub feasible: usize,
    /// Active point before the event.
    pub from: usize,
    /// Active point after the event.
    pub to: usize,
    /// Reconfiguration cost paid.
    pub drc: f64,
    /// The policy's winning RET score, when it exposes one.
    pub score: Option<f64>,
    /// The policy's `p_RC` parameter, when it exposes one.
    pub p_rc: Option<f64>,
    /// `true` if no stored point satisfied the requirement.
    pub violated: bool,
    /// How the decision was served (which ladder rung, if any).
    pub status: ServeStatus,
    /// The injected fault this decision absorbed, if one fired.
    pub fault: Option<FaultKind>,
}

/// One attempted live database swap, as recorded in the tenant's
/// outcome (successful or not — a failed rollout is an operational
/// event worth journaling, and the ladder's fallback to the running
/// last-known-good database is only visible if the attempt is).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapRecord {
    /// Events served before the swap was applied (the swap takes effect
    /// between event `event` and `event + 1` of the tenant's stream).
    pub event: usize,
    /// Active generation before the attempt.
    pub from_gen: u64,
    /// The offered snapshot's generation (equals `from_gen` when the
    /// artifact never decoded).
    pub to_gen: u64,
    /// Stored points after the attempt (the new db's size on success,
    /// the retained db's size on failure).
    pub points: usize,
    /// How the attempt ended.
    pub status: SwapStatus,
}

/// One attempted candidate-policy promotion, as recorded in the
/// tenant's outcome (a refused promotion — no learner seated — is an
/// operational event worth journaling, like a failed swap).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromoteRecord {
    /// Events served before the promotion was applied (it takes effect
    /// between event `event` and `event + 1` of the tenant's stream).
    pub event: usize,
    /// Total promotions applied to the tenant *after* the attempt.
    pub promotions: u64,
    /// How the attempt ended.
    pub status: PromoteStatus,
}

/// Rolled-up online-learning state of one tenant, refreshed after every
/// observed event — what `clr-serve ab` and the prefetch telemetry
/// counters report without walking the full shadow stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearnSummary {
    /// Seeded A/B variant the tenant was assigned to.
    pub variant: clr_learn::Variant,
    /// Which value table is currently serving.
    pub serving: clr_learn::Table,
    /// Scored (clean-path) decisions so far.
    pub decisions: u64,
    /// Decisions on which seeded exploration overrode the candidate.
    pub explored: u64,
    /// Reconfigurations whose destination the prefetcher predicted.
    pub prefetch_hits: u64,
    /// Reconfigurations predicted wrongly (or not at all).
    pub prefetch_misses: u64,
    /// Reconfiguration cost overlapped with execution on hits.
    pub prefetch_saved_drc: f64,
    /// Cumulative one-step oracle regret of the incumbent's picks.
    pub cum_live_regret: f64,
    /// Cumulative one-step oracle regret of the candidate's picks.
    pub cum_shadow_regret: f64,
    /// Promotions applied so far.
    pub promotions: u64,
}

impl LearnSummary {
    /// Snapshots the rollup counters of a live learner.
    pub fn of(l: &clr_learn::LearnerState) -> Self {
        Self {
            variant: l.variant(),
            serving: l.serving(),
            decisions: l.decisions(),
            explored: l.explored(),
            prefetch_hits: l.prefetch_hits(),
            prefetch_misses: l.prefetch_misses(),
            prefetch_saved_drc: l.prefetch_saved_drc(),
            cum_live_regret: l.cum_live_regret(),
            cum_shadow_regret: l.cum_shadow_regret(),
            promotions: l.promotions(),
        }
    }
}

/// Aggregate outcome of one tenant's replay.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantOutcome {
    /// Tenant name.
    pub name: String,
    /// Stored design points in the tenant's database.
    pub points: usize,
    /// Events served.
    pub events: usize,
    /// Events that moved the operating point.
    pub reconfigurations: usize,
    /// Events with an empty feasible set.
    pub violations: usize,
    /// Events served through a degradation rung.
    pub degraded: usize,
    /// Events recorded while the tenant was quarantined (not served).
    pub quarantined: usize,
    /// Injected decision-layer faults (every one is absorbed by a rung).
    pub faults: usize,
    /// Sum of paid reconfiguration costs.
    pub total_drc: f64,
    /// Why the tenant could not serve at all (its runtime context failed
    /// to build), when that happened; all its events are then quarantined.
    pub failure: Option<String>,
    /// Active snapshot-store generation of the database that served the
    /// *last* event (seated generation until a successful `SwapDb`).
    pub generation: u64,
    /// Every attempted live database swap, in stream order.
    pub swaps: Vec<SwapRecord>,
    /// Every decision, in service order.
    pub decisions: Vec<DecisionRecord>,
    /// Shadow evaluations of clean scored decisions (learning tenants
    /// only), stamped with stream ordinals, in service order.
    pub shadows: Vec<clr_learn::ShadowRecord>,
    /// Every attempted candidate promotion, in stream order.
    pub promotes: Vec<PromoteRecord>,
    /// Rolled-up online-learning state, `None` for frozen policies.
    pub learn: Option<LearnSummary>,
    /// Live telemetry registry (quantiles, dwell occupancy, rolling
    /// rates, flight recorder), accumulated alongside the counters
    /// above.
    pub health: crate::HealthState,
}

impl TenantOutcome {
    /// Events actually served, normally or degraded.
    pub fn served(&self) -> usize {
        self.events - self.quarantined
    }
}

/// The outcome of a full replay: per-tenant outcomes in fleet order.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    outcomes: Vec<TenantOutcome>,
    /// Trace events addressed to no tenant in the fleet (counted, not
    /// served — a trace may legitimately cover a larger fleet).
    pub dropped: usize,
    /// The unknown tenant names the dropped events addressed, with their
    /// event counts, in name order. Surfaced as `serve.dropped` counter
    /// increments plus one journal `fault` event per name
    /// ([`ReplayReport::emit_obs`]), warned about by `clr-serve replay`,
    /// and denied by the CLR065 trace lint.
    pub dropped_by_tenant: Vec<(String, usize)>,
}

/// A replay could not start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// Two tenants share a name, making event routing ambiguous.
    DuplicateTenant(String),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DuplicateTenant(name) => write!(f, "duplicate tenant name {name:?}"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Header line of the decision CSV (shared by [`ReplayReport::decisions_csv`]
/// and `clr-serve wire-decode`, so the two outputs stay byte-comparable).
pub const DECISIONS_CSV_HEADER: &str =
    "tenant,event,time,s_max,f_min,feasible,from,to,drc,score,p_rc,violated,status";

impl DecisionRecord {
    /// Renders this decision as one CSV row (no trailing newline), in
    /// the [`DECISIONS_CSV_HEADER`] column order.
    pub fn csv_row(&self, tenant: &str) -> String {
        let mut row = String::new();
        self.write_csv_row(tenant, &mut row);
        row
    }

    /// Appends this decision's CSV row (no trailing newline) to `out` —
    /// the one row writer behind [`ReplayReport::decisions_csv`], the
    /// flight recorder and `clr-serve wire-decode`.
    pub fn write_csv_row(&self, tenant: &str, out: &mut String) {
        out.push_str(tenant);
        out.push(',');
        num::push_usize(out, self.event);
        for x in [self.time, self.spec.max_makespan, self.spec.min_reliability] {
            out.push(',');
            num::push_f64(out, x);
        }
        for n in [self.feasible, self.from, self.to] {
            out.push(',');
            num::push_usize(out, n);
        }
        out.push(',');
        num::push_f64(out, self.drc);
        for x in [self.score, self.p_rc] {
            out.push(',');
            if let Some(x) = x {
                num::push_f64(out, x);
            }
        }
        out.push(',');
        num::push_bool(out, self.violated);
        out.push(',');
        out.push_str(self.status.as_str());
    }
}

impl ReplayReport {
    /// Assembles a report from externally collected outcomes (fleet
    /// order) and per-unknown-tenant drop counts (name order) — the
    /// incremental path's bridge to the batch path's renderers:
    /// outcomes accumulated by [`TenantSession`]s or drained from a
    /// daemon render through the same [`Self::decisions_csv`] /
    /// [`Self::emit_obs`] code, so equality of outcomes is equality of
    /// bytes.
    pub fn from_parts(
        outcomes: Vec<TenantOutcome>,
        dropped_by_tenant: Vec<(String, usize)>,
    ) -> Self {
        let dropped = dropped_by_tenant.iter().map(|(_, n)| n).sum();
        Self {
            outcomes,
            dropped,
            dropped_by_tenant,
        }
    }

    /// Per-tenant outcomes, in fleet order.
    pub fn outcomes(&self) -> &[TenantOutcome] {
        &self.outcomes
    }

    /// Total events served across all tenants.
    pub fn total_events(&self) -> usize {
        self.outcomes.iter().map(|o| o.events).sum()
    }

    /// Total decisions actually served (degraded or normal) across all
    /// tenants.
    pub fn total_served(&self) -> usize {
        self.outcomes.iter().map(TenantOutcome::served).sum()
    }

    /// The shared CLI summary: one line per tenant (fleet order) plus,
    /// when any event addressed a tenant absent from the fleet, a
    /// trailing dropped-events warning. Malformed-timestamp absorptions
    /// come from the same [`TenantOutcome::health`] registries the
    /// telemetry snapshot reports, so the CLI summary and `stats` can
    /// never disagree — `clr-serve replay` and `clr-served` print these
    /// verbatim (with their own program prefix on the warning).
    pub fn summary_lines(&self) -> Vec<String> {
        let malformed_slot = FaultKind::ALL
            .iter()
            .position(|k| *k == FaultKind::TraceMalformed)
            .unwrap_or(0);
        let mut lines: Vec<String> = self
            .outcomes
            .iter()
            .map(|o| {
                let mut line = format!(
                    "tenant {} (gen {}): {} events, {} reconfigurations, {} violations, total dRC {}",
                    o.name, o.generation, o.events, o.reconfigurations, o.violations, o.total_drc
                );
                let malformed = o.health.faults_by_kind[malformed_slot];
                if malformed > 0 {
                    let _ = write!(line, ", {malformed} malformed");
                }
                if !o.swaps.is_empty() {
                    let applied = o
                        .swaps
                        .iter()
                        .filter(|s| s.status == SwapStatus::Swapped)
                        .count();
                    let _ = write!(line, ", {}/{} swaps applied", applied, o.swaps.len());
                }
                line
            })
            .collect();
        let dropped: usize = self.dropped_by_tenant.iter().map(|(_, n)| n).sum();
        if dropped > 0 {
            let names: Vec<String> = self
                .dropped_by_tenant
                .iter()
                .map(|(name, count)| format!("{name:?} ({count})"))
                .collect();
            lines.push(format!(
                "warning: {dropped} events dropped — trace addresses tenants absent \
                 from the fleet: {}",
                names.join(", ")
            ));
        }
        lines
    }

    /// Renders the A/B rollout report: per learning tenant one line
    /// (variant, serving table, scored decisions, cumulative regret of
    /// both policies, prefetch hit rate), then per-variant aggregates
    /// and a verdict comparing candidate vs incumbent regret. Empty
    /// when no tenant runs an `aura+learn:` spec.
    pub fn ab_lines(&self) -> Vec<String> {
        use clr_learn::Variant;
        let learners: Vec<(&str, &LearnSummary)> = self
            .outcomes
            .iter()
            .filter_map(|o| o.learn.as_ref().map(|l| (o.name.as_str(), l)))
            .collect();
        if learners.is_empty() {
            return Vec::new();
        }
        let mut lines = Vec::new();
        for (name, l) in &learners {
            let total_moves = l.prefetch_hits + l.prefetch_misses;
            let hit_rate = if total_moves == 0 {
                0.0
            } else {
                #[allow(clippy::cast_precision_loss)]
                let r = l.prefetch_hits as f64 / total_moves as f64;
                r
            };
            lines.push(format!(
                "tenant {name}: {} serving {}, {} scored, regret live {} shadow {}, \
                 prefetch {}/{} ({:.1}% hit), {} explored, {} promotions",
                l.variant,
                l.serving,
                l.decisions,
                l.cum_live_regret,
                l.cum_shadow_regret,
                l.prefetch_hits,
                total_moves,
                hit_rate * 100.0,
                l.explored,
                l.promotions
            ));
        }
        for variant in [Variant::Control, Variant::Treatment] {
            let arm: Vec<&LearnSummary> = learners
                .iter()
                .filter(|(_, l)| l.variant == variant)
                .map(|(_, l)| *l)
                .collect();
            let decisions: u64 = arm.iter().map(|l| l.decisions).sum();
            let live: f64 = arm.iter().map(|l| l.cum_live_regret).sum();
            let shadow: f64 = arm.iter().map(|l| l.cum_shadow_regret).sum();
            lines.push(format!(
                "arm {variant}: {} tenants, {decisions} scored decisions, \
                 cumulative regret live {live} shadow {shadow}",
                arm.len()
            ));
        }
        let live: f64 = learners.iter().map(|(_, l)| l.cum_live_regret).sum();
        let shadow: f64 = learners.iter().map(|(_, l)| l.cum_shadow_regret).sum();
        let saved: f64 = learners.iter().map(|(_, l)| l.prefetch_saved_drc).sum();
        lines.push(format!(
            "verdict: candidate cumulative regret {shadow} vs incumbent {live} — {}; \
             prefetch overlapped {saved} dRC",
            if shadow < live {
                "candidate leads"
            } else if shadow > live {
                "incumbent leads"
            } else {
                "tied"
            }
        ));
        lines
    }

    /// Assembles the schema-v2 fleet telemetry snapshot from the
    /// per-tenant health registries (fleet order) and the
    /// unknown-tenant drop counts (name order) — the same numbers the
    /// CLI summary and a live daemon's `Stats` response report.
    pub fn telemetry(&self, label: &str, include_flight: bool) -> clr_obs::TelemetrySnapshot {
        let dropped: Vec<(String, u64)> = self
            .dropped_by_tenant
            .iter()
            .map(|(name, n)| (name.clone(), u64::try_from(*n).unwrap_or(u64::MAX)))
            .collect();
        crate::health::fleet_snapshot(
            label,
            self.outcomes.iter().map(|o| {
                (
                    o.name.as_str(),
                    o.generation,
                    &o.health,
                    o.decisions.as_slice(),
                )
            }),
            &dropped,
            include_flight,
        )
    }

    /// Renders every decision as CSV
    /// (`tenant,event,time,s_max,f_min,feasible,from,to,drc,score,p_rc,violated,status`),
    /// tenants in fleet order — the byte-comparable decision output.
    pub fn decisions_csv(&self) -> String {
        let mut out = String::from(DECISIONS_CSV_HEADER);
        out.push('\n');
        for o in &self.outcomes {
            for d in &o.decisions {
                d.write_csv_row(&o.name, &mut out);
                out.push('\n');
            }
        }
        out
    }

    /// Emits the report into an observability journal: per tenant one
    /// `sim_start`/`sim_end` bracket with a `decision` record per served
    /// event, plus `serve.*` recorder metrics. Call from serial code only
    /// (the deterministic-section contract); [`replay`] has already
    /// collected the outcomes, so this is pure iteration.
    ///
    /// The per-decision `serve.*` counters are tallied locally and added
    /// once per replay, the `serve.drc` samples once per tenant: counter
    /// adds and histogram records commute, so the snapshot equals
    /// per-decision recording, and a count of zero is never added
    /// because the recorder lists every counter ever touched.
    pub fn emit_obs(&self, obs: &Obs) {
        if !obs.enabled() {
            return;
        }
        let mut tally = ServeTally::default();
        for o in &self.outcomes {
            obs.emit(Event::SimStart {
                label: o.name.clone(),
                points: o.points,
                seed: 0,
            });
            // Swaps are journaled in stream position: a record with
            // `event == k` applied between the tenant's k-th and
            // (k+1)-th decisions, so it is emitted there.
            let emit_swap = |s: &SwapRecord| {
                obs.emit(Event::DbSwap {
                    label: o.name.clone(),
                    tenant: o.name.clone(),
                    event: s.event,
                    from_gen: s.from_gen,
                    to_gen: s.to_gen,
                    points: s.points,
                    status: s.status.label().to_string(),
                });
            };
            // Promotions share the swaps' stream-position semantics; a
            // shadow evaluation belongs to exactly one decision and is
            // journaled right after it.
            let emit_promote = |p: &PromoteRecord| {
                obs.emit(Event::Promote {
                    label: o.name.clone(),
                    tenant: o.name.clone(),
                    event: p.event,
                    promotions: p.promotions,
                    status: p.status.label().to_string(),
                });
            };
            let mut swaps = o.swaps.iter().peekable();
            let mut promotes = o.promotes.iter().peekable();
            let mut shadows = o.shadows.iter().peekable();
            for d in &o.decisions {
                while let Some(s) = swaps.next_if(|s| s.event < d.event) {
                    emit_swap(s);
                }
                while let Some(p) = promotes.next_if(|p| p.event < d.event) {
                    emit_promote(p);
                }
                obs.emit(Event::Decision {
                    event: d.event,
                    cycle: d.time,
                    feasible: d.feasible,
                    from: d.from,
                    to: d.to,
                    drc: d.drc,
                    score: d.score,
                    p_rc: d.p_rc,
                    violated: d.violated,
                });
                while let Some(s) = shadows.next_if(|s| s.event <= d.event) {
                    obs.emit(Event::Shadow {
                        label: o.name.clone(),
                        tenant: o.name.clone(),
                        event: s.event,
                        variant: s.variant.label().to_string(),
                        serving: s.serving.label().to_string(),
                        live_choice: s.live_choice,
                        shadow_choice: s.shadow_choice,
                        live_regret: s.live_regret,
                        shadow_regret: s.shadow_regret,
                    });
                }
                tally.reconfigurations += usize::from(d.to != d.from);
                tally.violations += usize::from(d.violated);
                tally.degraded += usize::from(d.status.is_degraded());
                // One `fault` journal event per absorbed fault (the
                // rung that served it is the action) and one per
                // quarantined event — `clr-verify` cross-checks these
                // counts against the campaign CSV (CLR072).
                if let Some(kind) = d.fault {
                    obs.emit(Event::Fault {
                        label: o.name.clone(),
                        layer: kind.layer().to_string(),
                        kind: kind.name().to_string(),
                        tenant: o.name.clone(),
                        event: d.event,
                        action: d.status.as_str().to_string(),
                    });
                    tally.faults += 1;
                }
                if d.status == ServeStatus::Quarantined {
                    obs.emit(Event::Fault {
                        label: o.name.clone(),
                        layer: "decision".to_string(),
                        kind: "quarantine".to_string(),
                        tenant: o.name.clone(),
                        event: d.event,
                        action: "quarantine".to_string(),
                    });
                    tally.quarantined += 1;
                }
            }
            obs.histogram_record_all(
                "serve.drc",
                &DRC_BUCKET_BOUNDS,
                o.decisions.iter().map(|d| d.drc),
            );
            for s in swaps {
                emit_swap(s);
            }
            for p in promotes {
                emit_promote(p);
            }
            tally.events += o.decisions.len();
            tally.db_swaps += o.swaps.len();
            tally.db_swaps_applied += o
                .swaps
                .iter()
                .filter(|s| s.status == SwapStatus::Swapped)
                .count();
            tally.promotes += o.promotes.len();
            tally.promotes_applied += o
                .promotes
                .iter()
                .filter(|p| p.status == PromoteStatus::Promoted)
                .count();
            if let Some(l) = &o.learn {
                obs.counter_add("serve.prefetch_hit", l.prefetch_hits);
                obs.counter_add("serve.prefetch_miss", l.prefetch_misses);
                obs.counter_add("serve.explored", l.explored);
            }
            obs.emit(Event::SimEnd {
                label: o.name.clone(),
                events: o.events,
                reconfigurations: o.reconfigurations,
                violations: o.violations,
                total_drc: o.total_drc,
            });
        }
        // Dropped events are damage, not bookkeeping: one journal `fault`
        // event per unknown tenant name (the `event` field carries the
        // count) so an operator reading the journal sees *which* names
        // the trace addressed in vain.
        for (name, count) in &self.dropped_by_tenant {
            obs.emit(Event::Fault {
                label: name.clone(),
                layer: "serve".to_string(),
                kind: "unknown_tenant".to_string(),
                tenant: name.clone(),
                event: *count,
                action: "dropped".to_string(),
            });
        }
        tally.dropped = self.dropped;
        tally.add_to(obs);
    }
}

/// The `serve.*` counters [`ReplayReport::emit_obs`] folds over a
/// replay before adding each once.
#[derive(Debug, Default)]
struct ServeTally {
    events: usize,
    reconfigurations: usize,
    violations: usize,
    degraded: usize,
    faults: usize,
    quarantined: usize,
    db_swaps: usize,
    db_swaps_applied: usize,
    promotes: usize,
    promotes_applied: usize,
    dropped: usize,
}

impl ServeTally {
    /// Adds every non-zero count (an untouched counter stays unlisted).
    fn add_to(&self, obs: &Obs) {
        for (name, n) in [
            ("serve.events", self.events),
            ("serve.reconfigurations", self.reconfigurations),
            ("serve.violations", self.violations),
            ("serve.degraded", self.degraded),
            ("serve.faults.injected", self.faults),
            ("serve.faults.absorbed", self.faults),
            ("serve.quarantined", self.quarantined),
            ("serve.db_swaps", self.db_swaps),
            ("serve.db_swaps.applied", self.db_swaps_applied),
            ("serve.promotes", self.promotes),
            ("serve.promotes.applied", self.promotes_applied),
            ("serve.dropped", self.dropped),
        ] {
            if n > 0 {
                obs.counter_add(name, u64::try_from(n).unwrap_or(u64::MAX));
            }
        }
    }
}

/// Upper bucket bounds of the `serve.drc` reconfiguration-cost histogram
/// (mirrors the simulator's `sim.drc`).
const DRC_BUCKET_BOUNDS: [f64; 8] = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0];

/// Replays a trace through a tenant fleet. See the crate docs for the
/// determinism contract.
///
/// Degrades gracefully on edge inputs: an empty fleet serves nothing
/// (all events dropped), an empty trace yields zero-event outcomes,
/// all-infeasible specs count violations while the tenants hold their
/// initial points, and duplicate or regressing timestamps are served in
/// file order on a monotonised clock.
///
/// # Errors
///
/// [`ReplayError::DuplicateTenant`] when two tenants share a name.
pub fn replay(
    tenants: &[Tenant],
    trace: &Trace,
    config: &ReplayConfig,
) -> Result<ReplayReport, ReplayError> {
    let mut by_name: BTreeMap<&str, usize> = BTreeMap::new();
    for (idx, tenant) in tenants.iter().enumerate() {
        if by_name.insert(tenant.name(), idx).is_some() {
            return Err(ReplayError::DuplicateTenant(tenant.name().to_string()));
        }
    }

    // Route events to tenants; file order within a tenant is preserved.
    // Events addressed to no tenant are *dropped*, counted per unknown
    // name so callers can surface them (journal, CLI warning, CLR065).
    let mut routed: Vec<Vec<&TraceEvent>> = vec![Vec::new(); tenants.len()];
    let mut dropped = 0usize;
    let mut dropped_names: BTreeMap<&str, usize> = BTreeMap::new();
    for event in trace.events() {
        match by_name.get(event.tenant.as_str()) {
            Some(&idx) => routed[idx].push(event),
            None => {
                dropped += 1;
                *dropped_names.entry(event.tenant.as_str()).or_insert(0) += 1;
            }
        }
    }

    // The batch path is a thin loop over the incremental state machine:
    // one `TenantSession` per tenant, fed its routed events in file
    // order. `clr-served` drives the *same* sessions event by event, so
    // batch and incremental serving cannot drift.
    let work: Vec<(usize, Vec<&TraceEvent>)> = routed.into_iter().enumerate().collect();
    let outcomes = clr_par::par_map(config.threads, &work, |_, (idx, events)| {
        let mut session = TenantSession::new(&tenants[*idx], *idx, config);
        for event in events {
            session.feed(event);
        }
        session.into_outcome()
    });

    Ok(ReplayReport {
        outcomes,
        dropped,
        dropped_by_tenant: dropped_names
            .into_iter()
            .map(|(name, count)| (name.to_string(), count))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_trace, PolicySpec, Snapshot};
    use clr_dse::{explore_based, DesignPointDb, DseConfig, ExplorationMode};
    use clr_moea::GaParams;
    use clr_obs::ObsMode;
    use clr_platform::Platform;
    use clr_reliability::{ConfigSpace, FaultModel};
    use clr_runtime::{HvPolicy, RuntimeContext};
    use clr_taskgraph::{TgffConfig, TgffGenerator};

    fn explored_db(seed: u64) -> (clr_taskgraph::TaskGraph, Platform, DesignPointDb) {
        let graph = TgffGenerator::new(TgffConfig::with_tasks(8)).generate(seed);
        let platform = Platform::dac19();
        let cfg = DseConfig {
            ga: GaParams::small(),
            mode: ExplorationMode::Full,
            reference: None,
            max_points: None,
        };
        let db = explore_based(
            &graph,
            &platform,
            FaultModel::default(),
            ConfigSpace::fine(),
            &cfg,
            seed,
        );
        (graph, platform, db)
    }

    fn tenant(name: &str, seed: u64, policy: PolicySpec) -> Tenant {
        let (graph, platform, db) = explored_db(seed);
        Tenant::from_parts(name, graph, platform, db, policy).unwrap()
    }

    fn fleet() -> Vec<Tenant> {
        vec![
            tenant("cam0", 61, PolicySpec::Ura { p_rc: 0.5 }),
            tenant(
                "nav",
                62,
                PolicySpec::Aura {
                    p_rc: 0.5,
                    gamma: 0.6,
                    alpha: 0.1,
                },
            ),
            tenant("audio", 63, PolicySpec::Hv),
        ]
    }

    #[test]
    fn empty_trace_yields_zero_event_outcomes() {
        let tenants = fleet();
        let report = replay(&tenants, &Trace::default(), &ReplayConfig::default()).unwrap();
        assert_eq!(report.outcomes().len(), 3);
        assert_eq!(report.total_events(), 0);
        assert_eq!(report.dropped, 0);
        // The CSV still has its header.
        assert_eq!(report.decisions_csv().lines().count(), 1);
    }

    #[test]
    fn empty_fleet_drops_everything_gracefully() {
        let tenants = fleet();
        let trace = generate_trace(&tenants, 7, 2_000.0, 100.0);
        assert!(!trace.is_empty());
        let report = replay(&[], &trace, &ReplayConfig::default()).unwrap();
        assert!(report.outcomes().is_empty());
        assert_eq!(report.dropped, trace.len());
        let counted: usize = report.dropped_by_tenant.iter().map(|(_, n)| n).sum();
        assert_eq!(counted, trace.len());
        assert_eq!(report.dropped_by_tenant.len(), 3, "one entry per name");
    }

    #[test]
    fn dropped_events_are_journaled_per_unknown_tenant() {
        // Two tenants in the fleet, a trace addressing a third: the
        // drops must surface as a counter and a journal fault event, not
        // vanish into a silent tally.
        let tenants = vec![tenant("cam0", 61, PolicySpec::Ura { p_rc: 0.5 })];
        let lax = QosSpec::new(f64::MAX, 0.0);
        let mk = |name: &str, time| TraceEvent {
            tenant: name.into(),
            time,
            spec: lax,
        };
        let trace = Trace::new(vec![
            mk("cam0", 0.0),
            mk("ghost", 1.0),
            mk("ghost", 2.0),
            mk("phantom", 3.0),
        ]);
        let report = replay(&tenants, &trace, &ReplayConfig::default()).unwrap();
        assert_eq!(report.dropped, 3);
        assert_eq!(
            report.dropped_by_tenant,
            vec![("ghost".to_string(), 2), ("phantom".to_string(), 1)]
        );
        let obs = Obs::new(ObsMode::Json);
        report.emit_obs(&obs);
        let dropped_events: Vec<(String, usize)> = obs
            .det_events()
            .iter()
            .filter_map(|e| match e {
                Event::Fault {
                    kind,
                    tenant,
                    event,
                    action,
                    ..
                } if action == "dropped" => {
                    assert_eq!(kind, "unknown_tenant");
                    Some((tenant.clone(), *event))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            dropped_events,
            vec![("ghost".to_string(), 2), ("phantom".to_string(), 1)]
        );
    }

    #[test]
    fn single_event_single_tenant() {
        let tenants = vec![tenant("solo", 64, PolicySpec::Ura { p_rc: 0.5 })];
        let trace = Trace::new(vec![TraceEvent {
            tenant: "solo".into(),
            time: 10.0,
            spec: QosSpec::new(f64::MAX, 0.0),
        }]);
        let report = replay(&tenants, &trace, &ReplayConfig::default()).unwrap();
        let o = &report.outcomes()[0];
        assert_eq!(o.events, 1);
        assert_eq!(o.violations, 0);
        assert_eq!(o.decisions[0].feasible, o.points);
    }

    #[test]
    fn all_infeasible_specs_hold_position_and_count_violations() {
        let tenants = vec![tenant("solo", 65, PolicySpec::Ura { p_rc: 0.5 })];
        let impossible = QosSpec::new(0.0, 1.0);
        let trace = Trace::new(
            (0..5)
                .map(|i| TraceEvent {
                    tenant: "solo".into(),
                    time: f64::from(i) * 10.0,
                    spec: impossible,
                })
                .collect(),
        );
        let report = replay(&tenants, &trace, &ReplayConfig::default()).unwrap();
        let o = &report.outcomes()[0];
        assert_eq!(o.violations, 5);
        assert_eq!(o.reconfigurations, 0);
        assert!(o.decisions.iter().all(|d| d.to == 0 && d.violated));
    }

    #[test]
    fn duplicate_timestamps_serve_in_file_order() {
        let tenants = vec![tenant("solo", 66, PolicySpec::Ura { p_rc: 1.0 })];
        let lax = QosSpec::new(f64::MAX, 0.0);
        let trace = Trace::new(vec![
            TraceEvent {
                tenant: "solo".into(),
                time: 10.0,
                spec: lax,
            },
            TraceEvent {
                tenant: "solo".into(),
                time: 10.0,
                spec: QosSpec::new(0.0, 1.0),
            },
            // Regressing timestamp: monotonised to 10.0, still served.
            TraceEvent {
                tenant: "solo".into(),
                time: 5.0,
                spec: lax,
            },
        ]);
        let report = replay(&tenants, &trace, &ReplayConfig::default()).unwrap();
        let o = &report.outcomes()[0];
        assert_eq!(o.events, 3);
        assert_eq!(o.decisions[1].time, 10.0);
        assert_eq!(o.decisions[2].time, 10.0);
        assert!(o.decisions[1].violated);
        assert!(!o.decisions[2].violated);
    }

    #[test]
    fn duplicate_tenant_names_are_rejected() {
        let t = tenant("twin", 67, PolicySpec::Hv);
        let tenants = vec![t.clone(), t];
        let err = replay(&tenants, &Trace::default(), &ReplayConfig::default()).unwrap_err();
        assert_eq!(err, ReplayError::DuplicateTenant("twin".into()));
    }

    #[test]
    fn replay_is_bit_identical_across_thread_counts() {
        let tenants = fleet();
        let trace = generate_trace(&tenants, 11, 5_000.0, 100.0);
        assert!(trace.len() > 50, "trace has {} events", trace.len());
        let run = |threads: usize| {
            let config = ReplayConfig {
                threads,
                ..ReplayConfig::default()
            };
            let report = replay(&tenants, &trace, &config).unwrap();
            let obs = Obs::new(ObsMode::Json);
            report.emit_obs(&obs);
            (
                report.decisions_csv(),
                obs.render_det_jsonl_labeled("replay"),
                report,
            )
        };
        let (csv1, journal1, report1) = run(1);
        let (csv8, journal8, report8) = run(8);
        assert_eq!(report1, report8);
        assert_eq!(csv1, csv8, "decision CSV must be byte-identical");
        assert_eq!(journal1, journal8, "journal must be byte-identical");
        assert!(report1.total_events() > 0);
    }

    #[test]
    fn inert_fault_plan_serves_everything_normally() {
        let tenants = fleet();
        let trace = generate_trace(&tenants, 13, 3_000.0, 100.0);
        let report = replay(&tenants, &trace, &ReplayConfig::default()).unwrap();
        assert_eq!(report.total_served(), report.total_events());
        for o in report.outcomes() {
            assert_eq!(o.degraded, 0);
            assert_eq!(o.quarantined, 0);
            assert_eq!(o.faults, 0);
            assert!(o.failure.is_none());
            assert!(o
                .decisions
                .iter()
                .all(|d| d.status == ServeStatus::Normal && d.fault.is_none()));
        }
        // The CSV carries the status column.
        assert!(report
            .decisions_csv()
            .lines()
            .nth(1)
            .unwrap()
            .ends_with(",normal"));
    }

    #[test]
    fn fallback_order_is_lkg_then_baseline_then_hold() {
        use clr_chaos::FaultRates;
        let tenants = vec![tenant("solo", 64, PolicySpec::Ura { p_rc: 0.5 })];
        let lax = QosSpec::new(f64::MAX, 0.0);
        let impossible = QosSpec::new(0.0, 1.0);
        // Find a seed where, for tenant 0, event 1 is clean and events
        // 2–4 are faulted — fault plans are pure functions, so the search
        // is deterministic.
        let seed = (0..10_000u64)
            .find(|&s| {
                let p = FaultPlan::new(s, FaultRates::only(FaultKind::PolicyFailure, 0.5)).unwrap();
                let hit = |e| p.fires(FaultKind::PolicyFailure, 0, e);
                !hit(1) && hit(2) && hit(3) && hit(4)
            })
            .expect("a clean-then-faulted seed exists");
        let plan = FaultPlan::new(seed, FaultRates::only(FaultKind::PolicyFailure, 0.5)).unwrap();
        let config = ReplayConfig {
            faults: plan,
            quarantine_after: 0, // isolate the fallback order from quarantine
            ..ReplayConfig::default()
        };
        let mk = |time, spec| TraceEvent {
            tenant: "solo".into(),
            time,
            spec,
        };
        // Event 1 decides normally (establishing the LKG), event 2 must
        // fall back to it, event 3 (LKG infeasible, baseline available)
        // must take the baseline, event 4 (nothing feasible) must hold.
        let trace = Trace::new(vec![
            mk(0.0, lax),
            mk(10.0, lax),
            mk(20.0, impossible),
            mk(30.0, impossible),
        ]);
        let report = replay(&tenants, &trace, &config).unwrap();
        let d = &report.outcomes()[0].decisions;
        assert_eq!(d[0].status, ServeStatus::Normal);
        assert!(!d[0].violated);
        assert_eq!(d[1].status, ServeStatus::DegradedLkg);
        assert_eq!(d[1].to, d[0].to, "LKG re-serves the last good point");
        assert_eq!(d[1].fault, Some(FaultKind::PolicyFailure));
        // Impossible spec: no LKG (infeasible), no baseline → hold.
        assert_eq!(d[2].status, ServeStatus::DegradedHold);
        assert!(d[2].violated);
        assert_eq!(d[2].to, d[1].to);
        assert_eq!(d[3].status, ServeStatus::DegradedHold);
        assert_eq!(report.outcomes()[0].degraded, 3);
        assert_eq!(report.outcomes()[0].quarantined, 0);
    }

    #[test]
    fn first_event_fault_takes_the_baseline_rung() {
        use clr_chaos::FaultRates;
        // Rate 1.0: every event is faulted. With no LKG established the
        // ladder must land on the hypervolume baseline.
        let tenants = vec![tenant("solo", 64, PolicySpec::Ura { p_rc: 0.5 })];
        let plan = FaultPlan::new(3, FaultRates::only(FaultKind::BudgetExhausted, 1.0)).unwrap();
        let config = ReplayConfig {
            faults: plan,
            quarantine_after: 0,
            ..ReplayConfig::default()
        };
        let trace = Trace::new(vec![TraceEvent {
            tenant: "solo".into(),
            time: 0.0,
            spec: QosSpec::new(f64::MAX, 0.0),
        }]);
        let report = replay(&tenants, &trace, &config).unwrap();
        let d = &report.outcomes()[0].decisions[0];
        assert_eq!(d.status, ServeStatus::DegradedBaseline);
        assert!(!d.violated);
        // The baseline rung is exactly HvPolicy's choice.
        let t = &tenants[0];
        let ctx = RuntimeContext::new(t.graph(), t.platform(), t.db());
        let expect = HvPolicy::new().select(&ctx, &QosSpec::new(f64::MAX, 0.0));
        assert_eq!(Some(d.to), expect);
    }

    #[test]
    fn quarantine_fires_after_exactly_k_consecutive_faults() {
        use clr_chaos::FaultRates;
        let k = 3usize;
        let tenants = vec![tenant("solo", 64, PolicySpec::Ura { p_rc: 0.5 })];
        let plan = FaultPlan::new(9, FaultRates::only(FaultKind::PolicyFailure, 1.0)).unwrap();
        let config = ReplayConfig {
            faults: plan,
            quarantine_after: k,
            ..ReplayConfig::default()
        };
        let lax = QosSpec::new(f64::MAX, 0.0);
        let trace = Trace::new(
            (0..6)
                .map(|i| TraceEvent {
                    tenant: "solo".into(),
                    time: f64::from(i) * 10.0,
                    spec: lax,
                })
                .collect(),
        );
        let report = replay(&tenants, &trace, &config).unwrap();
        let o = &report.outcomes()[0];
        // Events 1..=k are served degraded; everything after is
        // quarantined — not k-1, not k+1.
        for d in &o.decisions[..k] {
            assert!(d.status.is_degraded(), "event {} should degrade", d.event);
        }
        for d in &o.decisions[k..] {
            assert_eq!(d.status, ServeStatus::Quarantined);
        }
        assert_eq!(o.quarantined, 6 - k);
        assert_eq!(o.served(), k);
        assert_eq!(o.faults, k);
        // Quarantine disabled: the same plan degrades every event instead.
        let relaxed = ReplayConfig {
            quarantine_after: 0,
            ..config
        };
        let report = replay(&tenants, &trace, &relaxed).unwrap();
        assert_eq!(report.outcomes()[0].quarantined, 0);
        assert_eq!(report.outcomes()[0].degraded, 6);
    }

    #[test]
    fn clean_event_resets_the_quarantine_counter() {
        use clr_chaos::FaultRates;
        // Find a seed whose fault pattern for events 1..=5 is
        // fault,fault,clean,fault,fault — no 3 consecutive, so a K=3
        // quarantine must never trigger.
        let rates = FaultRates::only(FaultKind::BudgetExhausted, 0.5);
        let seed = (0..100_000u64)
            .find(|&s| {
                let p = FaultPlan::new(s, rates).unwrap();
                let hit = |e| p.fires(FaultKind::BudgetExhausted, 0, e);
                hit(1) && hit(2) && !hit(3) && hit(4) && hit(5)
            })
            .expect("pattern seed exists");
        let tenants = vec![tenant("solo", 64, PolicySpec::Ura { p_rc: 0.5 })];
        let config = ReplayConfig {
            faults: FaultPlan::new(seed, rates).unwrap(),
            quarantine_after: 3,
            ..ReplayConfig::default()
        };
        let lax = QosSpec::new(f64::MAX, 0.0);
        let trace = Trace::new(
            (0..5)
                .map(|i| TraceEvent {
                    tenant: "solo".into(),
                    time: f64::from(i) * 10.0,
                    spec: lax,
                })
                .collect(),
        );
        let report = replay(&tenants, &trace, &config).unwrap();
        let o = &report.outcomes()[0];
        assert_eq!(o.quarantined, 0, "interrupted runs must not quarantine");
        assert_eq!(o.degraded, 4);
        assert_eq!(o.decisions[2].status, ServeStatus::Normal);
    }

    #[test]
    fn chaos_replay_is_bit_identical_across_thread_counts() {
        use clr_chaos::FaultRates;
        let tenants = fleet();
        let trace = generate_trace(&tenants, 11, 5_000.0, 100.0);
        let plan = FaultPlan::new(77, FaultRates::default_campaign()).unwrap();
        let run = |threads: usize| {
            let config = ReplayConfig {
                threads,
                faults: plan,
                ..ReplayConfig::default()
            };
            let report = replay(&tenants, &trace, &config).unwrap();
            let obs = Obs::new(ObsMode::Json);
            report.emit_obs(&obs);
            (
                report.decisions_csv(),
                obs.render_det_jsonl_labeled("chaos"),
                report,
            )
        };
        let (csv1, journal1, report1) = run(1);
        let (csv8, journal8, report8) = run(8);
        assert_eq!(report1, report8);
        assert_eq!(csv1, csv8);
        assert_eq!(journal1, journal8);
        // The default campaign rate actually exercises the ladder …
        let degraded: usize = report1.outcomes().iter().map(|o| o.degraded).sum();
        assert!(degraded > 0, "no fault fired at the default rate");
        // … while keeping service above the survival bar.
        assert!(
            report1.total_served() * 100 >= report1.total_events() * 95,
            "served {}/{}",
            report1.total_served(),
            report1.total_events()
        );
    }

    #[test]
    fn fault_journal_events_match_decision_records() {
        use clr_chaos::FaultRates;
        let tenants = fleet();
        let trace = generate_trace(&tenants, 17, 4_000.0, 100.0);
        let config = ReplayConfig {
            faults: FaultPlan::new(5, FaultRates::default_campaign()).unwrap(),
            ..ReplayConfig::default()
        };
        let report = replay(&tenants, &trace, &config).unwrap();
        let obs = Obs::new(ObsMode::Json);
        report.emit_obs(&obs);
        let events = obs.det_events();
        let fault_events = events
            .iter()
            .filter(|e| matches!(e, Event::Fault { action, .. } if action != "quarantine"))
            .count();
        let quarantine_events = events
            .iter()
            .filter(|e| matches!(e, Event::Fault { action, .. } if action == "quarantine"))
            .count();
        let faults: usize = report.outcomes().iter().map(|o| o.faults).sum();
        let quarantined: usize = report.outcomes().iter().map(|o| o.quarantined).sum();
        assert!(faults > 0);
        assert_eq!(fault_events, faults, "one fault event per absorbed fault");
        assert_eq!(quarantine_events, quarantined);
    }

    #[test]
    fn snapshot_round_trip_preserves_decisions() {
        // Publishing a tenant's database through the snapshot container
        // and reloading it serves identical decisions.
        let (graph, platform, db) = explored_db(68);
        let direct = Tenant::from_parts(
            "t",
            graph,
            platform,
            db.clone(),
            PolicySpec::Ura { p_rc: 0.5 },
        )
        .unwrap();
        let snap = Snapshot::new("jpeg", "dac19", db);
        let decoded = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(decoded.db(), direct.db());
    }

    #[test]
    fn trace_generation_is_deterministic_and_sorted() {
        let tenants = fleet();
        let a = generate_trace(&tenants, 21, 3_000.0, 100.0);
        let b = generate_trace(&tenants, 21, 3_000.0, 100.0);
        assert_eq!(a, b);
        let c = generate_trace(&tenants, 22, 3_000.0, 100.0);
        assert_ne!(a, c, "different seeds give different workloads");
        for w in a.events().windows(2) {
            assert!(w[1].time >= w[0].time, "merged trace is time-sorted");
        }
        // Every tenant is exercised.
        for t in &tenants {
            assert!(a.events().iter().any(|e| e.tenant == t.name()));
        }
    }

    #[test]
    fn journal_brackets_are_well_formed_per_tenant() {
        let tenants = fleet();
        let trace = generate_trace(&tenants, 31, 2_000.0, 100.0);
        let report = replay(&tenants, &trace, &ReplayConfig::default()).unwrap();
        let obs = Obs::new(ObsMode::Json);
        report.emit_obs(&obs);
        let events = obs.det_events();
        let starts = events
            .iter()
            .filter(|e| matches!(e, Event::SimStart { .. }))
            .count();
        let ends = events
            .iter()
            .filter(|e| matches!(e, Event::SimEnd { .. }))
            .count();
        assert_eq!(starts, tenants.len());
        assert_eq!(ends, tenants.len());
        let decisions = events
            .iter()
            .filter(|e| matches!(e, Event::Decision { .. }))
            .count();
        assert_eq!(decisions, report.total_events());
    }
}
