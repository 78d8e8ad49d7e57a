//! Per-tenant health accounting and the fleet telemetry snapshot.
//!
//! A [`HealthState`] rides inside every [`crate::TenantOutcome`]: the
//! session updates it on each decision (serial, per-tenant stream
//! order), so the batch replay loop, an incremental [`crate::TenantSession`]
//! and the `clr-served` daemon all accumulate the exact same numbers —
//! one shared source for the CLI summary, the journal counters and the
//! `Stats` wire response. Aggregation into a [`TelemetrySnapshot`]
//! walks tenants in fleet (seating) order regardless of how sessions
//! are sharded across worker threads, which is what makes snapshots
//! byte-identical at any `CLR_THREADS`.
//!
//! The flight recorder is the last [`FLIGHT_RECORDER_LEN`] *served*
//! decisions, derived at snapshot time from the decision log every
//! session already keeps (so the serving hot path pays nothing for it).
//! Quarantined events are recorded but never served, so the recorder
//! freezes at the moment a tenant enters quarantine — the snapshot then
//! always carries that tenant's final approach, even when the caller
//! did not ask for flight data.

use clr_chaos::FaultKind;
use clr_obs::telemetry::{
    BitWindow, QuantileHistogram, TelemetrySnapshot, TenantTelemetry, TELEMETRY_SCHEMA_VERSION,
};
use clr_obs::Event;

use crate::{DecisionRecord, ServeStatus};

/// Served decisions kept per tenant in the flight recorder.
pub const FLIGHT_RECORDER_LEN: usize = 16;

/// Capacity (events) of the per-tenant rolling rate windows.
pub const HEALTH_WINDOW: usize = 64;

/// The five ladder rungs, in [`ServeStatus`] declaration order — the
/// dwell-occupancy axis.
pub const STATUS_TAGS: [&str; 5] = ["normal", "lkg", "baseline", "hold", "quarantined"];

fn status_index(status: ServeStatus) -> usize {
    match status {
        ServeStatus::Normal => 0,
        ServeStatus::DegradedLkg => 1,
        ServeStatus::DegradedBaseline => 2,
        ServeStatus::DegradedHold => 3,
        ServeStatus::Quarantined => 4,
    }
}

/// One tenant's live health registry.
///
/// Updated only from the tenant's serial decision stream; everything in
/// here is a pure function of the decisions observed so far.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthState {
    /// Events observed (served or quarantined-recorded).
    pub decisions: u64,
    /// Events actually served (normally or degraded).
    pub served: u64,
    /// Served events that moved the operating point.
    pub reconfigurations: u64,
    /// Events with an empty feasible set.
    pub violations: u64,
    /// Absorbed faults per [`FaultKind::ALL`] slot.
    pub faults_by_kind: [u64; FaultKind::ALL.len()],
    /// Events spent on each ladder rung ([`STATUS_TAGS`] order).
    pub dwell: [u64; 5],
    /// Times the tenant entered quarantine (at most once per session,
    /// plus one for a failed runtime context at seat time).
    pub quarantine_entries: u64,
    /// The rung the most recent event landed on.
    pub last_status: ServeStatus,
    /// Decision "latency": simulated-time slack (`s_max` minus the
    /// served point's makespan, clamped at zero) per served event.
    pub slack: QuantileHistogram,
    /// Feasible-set size per served event.
    pub feasible: QuantileHistogram,
    /// Fault indicator (0/1) over the last [`HEALTH_WINDOW`] events.
    pub fault_window: BitWindow,
    /// Violation indicator (0/1) over the last [`HEALTH_WINDOW`] events.
    pub violation_window: BitWindow,
}

impl Default for HealthState {
    fn default() -> Self {
        Self::new()
    }
}

impl HealthState {
    /// A fresh registry: nothing observed, status `normal`.
    pub fn new() -> Self {
        Self {
            decisions: 0,
            served: 0,
            reconfigurations: 0,
            violations: 0,
            faults_by_kind: [0; FaultKind::ALL.len()],
            dwell: [0; 5],
            quarantine_entries: 0,
            last_status: ServeStatus::Normal,
            slack: QuantileHistogram::new(),
            feasible: QuantileHistogram::new(),
            fault_window: BitWindow::new(HEALTH_WINDOW),
            violation_window: BitWindow::new(HEALTH_WINDOW),
        }
    }

    /// Folds one decision into the registry. `slack` is the served
    /// point's simulated-time slack (ignored for unserved events).
    #[inline]
    pub fn observe(&mut self, d: &DecisionRecord, slack: f64) {
        self.decisions += 1;
        self.last_status = d.status;
        self.dwell[status_index(d.status)] += 1;
        if let Some(kind) = d.fault {
            if let Some(slot) = FaultKind::ALL.iter().position(|k| *k == kind) {
                self.faults_by_kind[slot] += 1;
            }
        }
        self.fault_window.push(d.fault.is_some());
        self.violation_window.push(d.violated);
        if d.violated {
            self.violations += 1;
        }
        if d.status.is_served() {
            self.served += 1;
            if d.to != d.from {
                self.reconfigurations += 1;
            }
            self.feasible.record(usize_to_f64(d.feasible));
            self.slack.record(slack);
        }
    }

    /// Counts one quarantine entry (the consecutive-fault trip, or a
    /// failed runtime context at seat time).
    pub fn note_quarantine_entry(&mut self) {
        self.quarantine_entries += 1;
    }

    /// Total absorbed faults, all kinds.
    pub fn faults(&self) -> u64 {
        self.faults_by_kind.iter().sum()
    }

    /// Mean of the fault indicator over the rolling window.
    pub fn fault_rate(&self) -> Option<f64> {
        self.fault_window.mean()
    }

    /// Renders the registry as one snapshot tenant entry. `generation`
    /// is the tenant's active db generation (the registry itself tracks
    /// decisions, not artifacts, so the caller supplies it). `decisions`
    /// is the tenant's decision log (or any suffix of it): the flight
    /// rows — the last [`FLIGHT_RECORDER_LEN`] *served* decisions — are
    /// derived from it on demand, and included when asked for or always
    /// once the tenant has entered quarantine (the frozen final
    /// approach).
    pub fn telemetry(
        &self,
        name: &str,
        generation: u64,
        include_flight: bool,
        decisions: &[DecisionRecord],
    ) -> TenantTelemetry {
        let mut counters: Vec<(String, u64)> = vec![
            ("decisions".to_string(), self.decisions),
            ("served".to_string(), self.served),
            ("reconfigurations".to_string(), self.reconfigurations),
            ("violations".to_string(), self.violations),
            ("quarantine.entries".to_string(), self.quarantine_entries),
        ];
        for (slot, kind) in FaultKind::ALL.iter().enumerate() {
            counters.push((
                format!("fault.{}.{}", kind.layer(), kind.name()),
                self.faults_by_kind[slot],
            ));
        }
        for (slot, tag) in STATUS_TAGS.iter().enumerate() {
            counters.push((format!("dwell.{tag}"), self.dwell[slot]));
        }
        counters.sort();
        let flight = if include_flight || self.quarantine_entries > 0 {
            flight_rows(name, decisions)
        } else {
            Vec::new()
        };
        TenantTelemetry {
            name: name.to_string(),
            events: self.decisions,
            status: self.last_status.as_str().to_string(),
            generation,
            counters,
            windows: vec![
                ("fault_rate".to_string(), self.fault_window.stat()),
                ("violation_rate".to_string(), self.violation_window.stat()),
            ],
            histograms: vec![
                ("feasible".to_string(), self.feasible.clone()),
                ("slack".to_string(), self.slack.clone()),
            ],
            flight,
        }
    }
}

/// Exact usize → f64 for event-scale values (far below 2^53).
fn usize_to_f64(n: usize) -> f64 {
    n as f64
}

/// The flight-recorder rows for one tenant: the last
/// [`FLIGHT_RECORDER_LEN`] *served* decisions from its decision log,
/// oldest → newest, rendered as CSV rows.
pub fn flight_rows(name: &str, decisions: &[DecisionRecord]) -> Vec<String> {
    let mut rows: Vec<String> = decisions
        .iter()
        .rev()
        .filter(|d| d.status.is_served())
        .take(FLIGHT_RECORDER_LEN)
        .map(|d| d.csv_row(name))
        .collect();
    rows.reverse();
    rows
}

/// Assembles the fleet snapshot from per-tenant registries (with their
/// active db generations and decision logs, for the flight recorder)
/// in fleet (seating) order plus the unknown-tenant drop counts (name
/// order). Both orders are scheduling-independent, so the snapshot is
/// byte-identical at any thread count.
pub fn fleet_snapshot<'a, I>(
    label: &str,
    tenants: I,
    dropped: &[(String, u64)],
    include_flight: bool,
) -> TelemetrySnapshot
where
    I: IntoIterator<Item = (&'a str, u64, &'a HealthState, &'a [DecisionRecord])>,
{
    let tenants: Vec<TenantTelemetry> = tenants
        .into_iter()
        .map(|(name, generation, health, decisions)| {
            health.telemetry(name, generation, include_flight, decisions)
        })
        .collect();
    let events = tenants.iter().map(|t| t.events).sum();
    TelemetrySnapshot {
        schema: TELEMETRY_SCHEMA_VERSION,
        label: label.to_string(),
        events,
        dropped: dropped.to_vec(),
        tenants,
    }
}

/// Renders a snapshot as Prometheus-style text exposition lines (the
/// `clr-serve stats` non-JSON output). Purely mechanical: counters,
/// window means and histogram quantiles, in snapshot order.
pub fn render_prometheus(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# clr telemetry schema {} label {}\n",
        snap.schema, snap.label
    ));
    out.push_str(&format!("clr_serve_events_total {}\n", snap.events));
    for (name, count) in &snap.dropped {
        out.push_str(&format!(
            "clr_serve_dropped_total{{tenant=\"{name}\"}} {count}\n"
        ));
    }
    for t in &snap.tenants {
        let label = format!("tenant=\"{}\"", t.name);
        out.push_str(&format!(
            "clr_serve_status{{{label},state=\"{}\"}} 1\n",
            t.status
        ));
        out.push_str(&format!(
            "clr_serve_generation{{{label}}} {}\n",
            t.generation
        ));
        for (name, v) in &t.counters {
            let metric = name.replace('.', "_");
            out.push_str(&format!("clr_serve_{metric}_total{{{label}}} {v}\n"));
        }
        for (name, stat) in &t.windows {
            if let Some(mean) = stat.mean() {
                out.push_str(&format!("clr_serve_{name}{{{label}}} {mean}\n"));
            }
        }
        for (name, hist) in &t.histograms {
            if hist.is_empty() {
                continue;
            }
            for (tag, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
                if let Some(v) = hist.quantile(q) {
                    out.push_str(&format!("clr_serve_{name}_{tag}{{{label}}} {v}\n"));
                }
            }
            if let Some(v) = hist.max_value() {
                out.push_str(&format!("clr_serve_{name}_max{{{label}}} {v}\n"));
            }
            out.push_str(&format!(
                "clr_serve_{name}_count{{{label}}} {}\n",
                hist.total()
            ));
        }
    }
    out
}

/// Reconstructs a (partial) telemetry snapshot from a deterministic
/// journal: decisions, feasible-set histograms, fault counters, dwell
/// occupancy and rolling rates are rebuilt per tenant; slack histograms
/// need the design-point database and stay empty (rendered `-` by
/// `clr-serve top`).
pub fn telemetry_from_journal(text: &str) -> Result<TelemetrySnapshot, String> {
    struct JournalTenant {
        health: HealthState,
        /// Active db generation: 0 until a `db_swap` event with status
        /// `swapped` moves it.
        generation: u64,
        /// Fault / quarantine actions keyed by event ordinal, gathered
        /// before the per-decision fold below.
        actions: std::collections::BTreeMap<usize, (String, String)>,
        decisions: Vec<(usize, usize, usize, usize, bool)>,
    }
    let mut order: Vec<String> = Vec::new();
    let mut tenants: std::collections::BTreeMap<String, JournalTenant> =
        std::collections::BTreeMap::new();
    let mut dropped: Vec<(String, u64)> = Vec::new();
    let mut current: Option<String> = None;

    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let (_seq, event) =
            Event::from_json_line(line).map_err(|e| format!("journal line {}: {e}", lineno + 1))?;
        match event {
            Event::SimStart { label, .. } => {
                if !tenants.contains_key(&label) {
                    order.push(label.clone());
                    tenants.insert(
                        label.clone(),
                        JournalTenant {
                            health: HealthState::new(),
                            generation: 0,
                            actions: std::collections::BTreeMap::new(),
                            decisions: Vec::new(),
                        },
                    );
                }
                current = Some(label);
            }
            Event::SimEnd { .. } => current = None,
            Event::Decision {
                event,
                feasible,
                from,
                to,
                violated,
                ..
            } => {
                if let Some(t) = current.as_ref().and_then(|c| tenants.get_mut(c)) {
                    t.decisions.push((event, feasible, from, to, violated));
                }
            }
            // Only an applied rollout moves the generation; failed
            // attempts leave the last-known-good artifact serving.
            Event::DbSwap {
                tenant,
                to_gen,
                status,
                ..
            } if status == "swapped" => {
                if let Some(t) = tenants.get_mut(&tenant) {
                    t.generation = to_gen;
                }
            }
            Event::DbSwap { .. } => {}
            Event::Fault {
                tenant,
                event,
                kind,
                action,
                ..
            } => {
                if tenant.is_empty() || event == 0 {
                    continue; // load-time faults carry no per-event telemetry
                }
                match tenants.get_mut(&tenant) {
                    Some(t) => {
                        t.actions.insert(event, (kind, action));
                    }
                    None => {
                        // An unknown-tenant drop surfaced as a journal
                        // fault event: its ordinal field is the count.
                        match dropped.iter_mut().find(|(n, _)| *n == tenant) {
                            Some((_, c)) => {
                                *c += u64::try_from(event).unwrap_or(u64::MAX);
                            }
                            None => {
                                dropped.push((tenant, u64::try_from(event).unwrap_or(u64::MAX)));
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }

    dropped.sort();
    let entries: Vec<TenantTelemetry> = order
        .iter()
        .filter_map(|name| tenants.get(name).map(|t| (name, t)))
        .map(|(name, t)| {
            let mut health = t.health.clone();
            for &(event, feasible, from, to, violated) in &t.decisions {
                let (fault, status) = match t.actions.get(&event) {
                    None => (None, ServeStatus::Normal),
                    Some((kind, action)) => (
                        FaultKind::from_name(kind),
                        match action.as_str() {
                            "lkg" => ServeStatus::DegradedLkg,
                            "baseline" => ServeStatus::DegradedBaseline,
                            "hold" => ServeStatus::DegradedHold,
                            "quarantine" | "quarantined" => ServeStatus::Quarantined,
                            _ => ServeStatus::Normal,
                        },
                    ),
                };
                if status == ServeStatus::Quarantined && health.last_status.is_served() {
                    health.note_quarantine_entry();
                }
                let d = DecisionRecord {
                    event,
                    time: 0.0,
                    spec: clr_dse::QosSpec::new(0.0, 0.0),
                    feasible,
                    from,
                    to,
                    drc: 0.0,
                    score: None,
                    p_rc: None,
                    violated,
                    status,
                    fault,
                };
                health.observe(&d, 0.0);
            }
            // Journal decisions carry no spec/makespan: drop the slack
            // histogram (and pass no decision log, so no synthesised
            // flight rows) rather than publish zeros as measurements.
            health.slack = QuantileHistogram::new();
            health.telemetry(name, t.generation, false, &[])
        })
        .collect();
    let events = entries.iter().map(|t| t.events).sum();
    Ok(TelemetrySnapshot {
        schema: TELEMETRY_SCHEMA_VERSION,
        label: "journal".to_string(),
        events,
        dropped,
        tenants: entries,
    })
}

/// Renders the A/B rollout report from a `replay.obs.jsonl` journal:
/// one line per learning tenant (variant, serving table, scored
/// decisions, cumulative counterfactual regret of both policies,
/// promotions), then per-arm aggregates and a verdict comparing
/// candidate vs incumbent regret. Empty when the journal carries no
/// `shadow` events — i.e. no tenant ran an `aura+learn:` policy.
///
/// This is the offline sibling of
/// [`crate::ReplayReport::ab_lines`]: that one reads the live
/// learner summaries, this one refolds the journal, so the two agree
/// on every number both can see (the journal does not carry prefetch
/// counters per tenant, so those columns are absent here).
///
/// # Errors
///
/// Returns the first malformed journal line.
pub fn ab_report_from_journal(text: &str) -> Result<Vec<String>, String> {
    struct AbTenant {
        variant: String,
        serving: String,
        decisions: u64,
        live_regret: f64,
        shadow_regret: f64,
        promotions: u64,
    }
    let mut order: Vec<String> = Vec::new();
    let mut tenants: std::collections::BTreeMap<String, AbTenant> =
        std::collections::BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let (_seq, event) =
            Event::from_json_line(line).map_err(|e| format!("journal line {}: {e}", lineno + 1))?;
        match event {
            Event::Shadow {
                tenant,
                variant,
                serving,
                live_regret,
                shadow_regret,
                ..
            } => {
                let entry = tenants.entry(tenant.clone()).or_insert_with(|| {
                    order.push(tenant.clone());
                    AbTenant {
                        variant: variant.clone(),
                        serving: serving.clone(),
                        decisions: 0,
                        live_regret: 0.0,
                        shadow_regret: 0.0,
                        promotions: 0,
                    }
                });
                entry.variant = variant;
                entry.serving = serving;
                entry.decisions += 1;
                entry.live_regret += live_regret;
                entry.shadow_regret += shadow_regret;
            }
            Event::Promote {
                tenant,
                promotions,
                status,
                ..
            } if status == "promoted" => {
                let entry = tenants.entry(tenant.clone()).or_insert_with(|| {
                    order.push(tenant.clone());
                    AbTenant {
                        variant: String::new(),
                        serving: String::new(),
                        decisions: 0,
                        live_regret: 0.0,
                        shadow_regret: 0.0,
                        promotions: 0,
                    }
                });
                entry.promotions = entry.promotions.max(promotions);
            }
            _ => {}
        }
    }
    if tenants.is_empty() {
        return Ok(Vec::new());
    }
    let mut lines = Vec::new();
    for name in &order {
        let t = &tenants[name];
        lines.push(format!(
            "tenant {name}: {} serving {}, {} scored, regret live {} shadow {}, {} promotions",
            t.variant, t.serving, t.decisions, t.live_regret, t.shadow_regret, t.promotions
        ));
    }
    for variant in ["control", "treatment"] {
        let arm: Vec<&AbTenant> = order
            .iter()
            .map(|name| &tenants[name])
            .filter(|t| t.variant == variant)
            .collect();
        // Folded from +0.0, as in `ab_lines`: an empty arm prints `0`.
        let decisions: u64 = arm.iter().map(|t| t.decisions).sum();
        let live = arm.iter().fold(0.0, |acc, t| acc + t.live_regret);
        let shadow = arm.iter().fold(0.0, |acc, t| acc + t.shadow_regret);
        lines.push(format!(
            "arm {variant}: {} tenants, {decisions} scored decisions, \
             cumulative regret live {live} shadow {shadow}",
            arm.len()
        ));
    }
    let live = tenants.values().fold(0.0, |acc, t| acc + t.live_regret);
    let shadow = tenants.values().fold(0.0, |acc, t| acc + t.shadow_regret);
    lines.push(format!(
        "verdict: candidate cumulative regret {shadow} vs incumbent {live} — {}",
        if shadow < live {
            "candidate leads"
        } else if shadow > live {
            "incumbent leads"
        } else {
            "tied"
        }
    ));
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clr_dse::QosSpec;

    fn decision(event: usize, status: ServeStatus, fault: Option<FaultKind>) -> DecisionRecord {
        DecisionRecord {
            event,
            time: f64::from(u32::try_from(event).unwrap_or(0)),
            spec: QosSpec::new(100.0, 0.9),
            feasible: 5,
            from: 0,
            to: event % 3,
            drc: 0.0,
            score: None,
            p_rc: None,
            violated: false,
            status,
            fault,
        }
    }

    #[test]
    fn observe_accumulates_counters_windows_and_histograms() {
        let log = [
            decision(1, ServeStatus::Normal, None),
            decision(2, ServeStatus::DegradedLkg, Some(FaultKind::PolicyFailure)),
            decision(3, ServeStatus::Quarantined, None),
        ];
        let mut h = HealthState::new();
        h.observe(&log[0], 10.0);
        h.observe(&log[1], 5.0);
        h.observe(&log[2], 0.0);
        assert_eq!(h.decisions, 3);
        assert_eq!(h.served, 2);
        assert_eq!(h.dwell, [1, 1, 0, 0, 1]);
        assert_eq!(h.faults(), 1);
        assert_eq!(h.slack.total(), 2);
        assert_eq!(h.fault_window.index(), 3);
        assert_eq!(h.fault_window.sum(), 1);
        let t = h.telemetry("cam", 3, false, &log);
        assert_eq!(t.counter("decisions"), Some(3));
        assert_eq!(t.counter("fault.decision.policy"), Some(1));
        assert_eq!(t.counter("dwell.lkg"), Some(1));
        assert_eq!(t.status, "quarantined");
        assert_eq!(t.generation, 3);
        assert!(
            t.flight.is_empty(),
            "no flight without request or quarantine"
        );
        let with_flight = h.telemetry("cam", 3, true, &log);
        assert_eq!(
            with_flight.flight.len(),
            2,
            "quarantined events never reach flight"
        );
        assert!(with_flight.flight[0].starts_with("cam,1,"));
        assert!(with_flight.flight[1].starts_with("cam,2,"));
    }

    #[test]
    fn quarantine_entry_forces_flight_rows_out() {
        let log = [decision(1, ServeStatus::Normal, None)];
        let mut h = HealthState::new();
        h.observe(&log[0], 1.0);
        h.note_quarantine_entry();
        let t = h.telemetry("cam", 0, false, &log);
        assert_eq!(t.flight.len(), 1);
        assert!(t.flight[0].starts_with("cam,1,"));
    }

    #[test]
    fn flight_rows_keep_the_last_served_decisions_in_order() {
        let log: Vec<DecisionRecord> = (1..=40)
            .map(|i| {
                let status = if i % 2 == 0 {
                    ServeStatus::Quarantined
                } else {
                    ServeStatus::Normal
                };
                decision(i, status, None)
            })
            .collect();
        let rows = flight_rows("cam", &log);
        assert_eq!(rows.len(), FLIGHT_RECORDER_LEN);
        assert!(rows[0].starts_with("cam,9,"), "oldest kept served event");
        assert!(
            rows[FLIGHT_RECORDER_LEN - 1].starts_with("cam,39,"),
            "newest served event last"
        );
    }

    #[test]
    fn fleet_snapshot_orders_tenants_as_given() {
        let a = HealthState::new();
        let b = HealthState::new();
        let snap = fleet_snapshot(
            "fleet",
            [("nav", 1, &a, &[][..]), ("cam", 0, &b, &[][..])],
            &[("ghost".to_string(), 2)],
            false,
        );
        let names: Vec<&str> = snap.tenants.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["nav", "cam"], "fleet order, not name order");
        assert_eq!(snap.dropped, [("ghost".to_string(), 2)]);
        let line = snap.to_json();
        assert_eq!(TelemetrySnapshot::from_json(&line).unwrap().to_json(), line);
    }

    #[test]
    fn prometheus_rendering_is_line_per_metric() {
        let mut h = HealthState::new();
        h.observe(&decision(1, ServeStatus::Normal, None), 10.0);
        let snap = fleet_snapshot("fleet", [("cam", 2, &h, &[][..])], &[], false);
        let text = render_prometheus(&snap);
        assert!(text.contains("clr_serve_events_total 1\n"));
        assert!(text.contains("clr_serve_decisions_total{tenant=\"cam\"} 1\n"));
        assert!(text.contains("clr_serve_generation{tenant=\"cam\"} 2\n"));
        assert!(text.contains("clr_serve_slack_p50{tenant=\"cam\"}"));
        assert!(text.contains("clr_serve_fault_rate{tenant=\"cam\"} 0\n"));
    }
}
