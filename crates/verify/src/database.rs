//! DSE-database lints (`CLR030`–`CLR037`).

use clr_dse::{DesignPointDb, ExplorationMode, PointOrigin};
use clr_moea::dominates;
use clr_platform::Platform;
use clr_reliability::{FaultModel, TaskMetrics};
use clr_sched::{reconfiguration_cost, Evaluator};
use clr_stats::{approx_eq_probability, approx_eq_time, EPS_TIME};
use clr_taskgraph::TaskGraph;

use crate::{check_mapping, Diagnostic, LintCode, Report};

/// Runs every database lint over `db`, recomputing metrics against
/// `graph`/`platform`/`fault_model` and judging dominance in the
/// objective space of `mode`. `red_tolerance` is the ReD degradation
/// bound (use [`clr_dse::RedConfig::default`]'s `tolerance` unless the
/// database was built with another).
pub fn check_database(
    graph: &TaskGraph,
    platform: &Platform,
    fault_model: &FaultModel,
    mode: ExplorationMode,
    db: &DesignPointDb,
    red_tolerance: f64,
) -> Report {
    let artifact = format!("db:{}", db.name());
    let mut report = check_database_standalone(db, mode, red_tolerance);
    if db.is_empty() {
        return report;
    }

    // The embedded mappings must themselves be valid (reusing the mapping
    // lints) before metric recomputation makes sense.
    let mut mappings_valid = true;
    for (i, p) in db.iter().enumerate() {
        let sub = check_mapping(graph, platform, &p.mapping, &format!("{}[{i}]", db.name()));
        if !sub.is_empty() {
            mappings_valid = false;
        }
        report.merge(sub);
    }

    // CLR036: stored metrics must match a fresh evaluation of the mapping.
    // The evaluator reads each task's Table-2 metrics from a table it
    // fills once, so each task's looked-up metrics are also checked bit
    // for bit against the cost model itself: a wrong table would
    // otherwise agree with the metrics it produced.
    if mappings_valid {
        let eval = Evaluator::new(graph, platform, *fault_model);
        for (i, p) in db.iter().enumerate() {
            let off_model = graph.task_ids().find(|&t| {
                let gene = p.mapping.gene(t);
                let direct = TaskMetrics::evaluate(
                    graph.implementation(t, gene.impl_id),
                    platform.type_of(gene.pe),
                    &gene.clr,
                    fault_model,
                );
                eval.task_metrics(&p.mapping, t).to_bits() != direct.to_bits()
            });
            if let Some(t) = off_model {
                report.push(Diagnostic::new(
                    LintCode::StaleMetrics,
                    &artifact,
                    format!("point {i}"),
                    format!(
                        "the evaluator's Table-2 metrics of task {t} differ from \
                         TaskMetrics::evaluate"
                    ),
                ));
            }
            let fresh = eval.evaluate(&p.mapping);
            let consistent = approx_eq_time(fresh.makespan, p.metrics.makespan)
                && approx_eq_probability(fresh.reliability, p.metrics.reliability)
                && approx_eq_time(fresh.energy, p.metrics.energy)
                && approx_eq_time(fresh.peak_power, p.metrics.peak_power)
                && approx_eq_time(fresh.mean_mttf, p.metrics.mean_mttf);
            if !consistent {
                report.push(Diagnostic::new(
                    LintCode::StaleMetrics,
                    &artifact,
                    format!("point {i}"),
                    format!(
                        "stored (makespan {}, reliability {}, energy {}) but re-evaluation \
                         yields (makespan {}, reliability {}, energy {})",
                        p.metrics.makespan,
                        p.metrics.reliability,
                        p.metrics.energy,
                        fresh.makespan,
                        fresh.reliability,
                        fresh.energy,
                    ),
                ));
            }
        }
    }

    report
}

/// Runs the context-free subset of the database lints — everything that
/// needs no graph or platform: emptiness, metric ranges, duplicates,
/// BaseD non-domination, ReD degradation bounds and codec round-trip.
/// [`check_database`] adds the mapping and metric-recomputation lints on
/// top; use this form when auditing a database file whose source
/// graph/platform are unavailable.
pub fn check_database_standalone(
    db: &DesignPointDb,
    mode: ExplorationMode,
    red_tolerance: f64,
) -> Report {
    let artifact = format!("db:{}", db.name());
    let mut report = Report::new();

    // CLR030: an empty database leaves the runtime agent without options.
    if db.is_empty() {
        report.push(Diagnostic::new(
            LintCode::EmptyDatabase,
            &artifact,
            "points",
            "database stores no design points".to_string(),
        ));
        return report;
    }

    // CLR034: the stored metrics must be sane.
    for (i, p) in db.iter().enumerate() {
        let m = &p.metrics;
        let mut bad = |what: &str, value: f64| {
            report.push(Diagnostic::new(
                LintCode::MetricOutOfRange,
                &artifact,
                format!("point {i}"),
                format!("{what} = {value} is outside its valid range"),
            ));
        };
        if !(m.makespan.is_finite() && m.makespan >= 0.0) {
            bad("makespan", m.makespan);
        }
        if !(m.reliability.is_finite() && (0.0..=1.0).contains(&m.reliability)) {
            bad("reliability", m.reliability);
        }
        if !(m.energy.is_finite() && m.energy >= 0.0) {
            bad("energy", m.energy);
        }
        if !(m.peak_power.is_finite() && m.peak_power >= 0.0) {
            bad("peak_power", m.peak_power);
        }
        if !(m.mean_mttf.is_finite() && m.mean_mttf >= 0.0) {
            bad("mean_mttf", m.mean_mttf);
        }
    }

    // CLR033: duplicate points waste storage (warn).
    for i in 0..db.len() {
        for j in (i + 1)..db.len() {
            let (a, b) = (&db.points()[i].metrics, &db.points()[j].metrics);
            if approx_eq_time(a.makespan, b.makespan)
                && approx_eq_probability(a.reliability, b.reliability)
                && approx_eq_time(a.energy, b.energy)
            {
                report.push(Diagnostic::new(
                    LintCode::DuplicatePoints,
                    &artifact,
                    format!("points {i}, {j}"),
                    "both points carry the same (makespan, reliability, energy)".to_string(),
                ));
            }
        }
    }

    // CLR031: the BaseD subset must be mutually non-dominated in the
    // objective space the exploration ran in.
    let objectives: Vec<(usize, Vec<f64>)> = db
        .iter()
        .enumerate()
        .filter(|(_, p)| p.origin == PointOrigin::Pareto)
        .map(|(i, p)| (i, mode.objectives_of(&p.metrics)))
        .collect();
    for (i, oi) in &objectives {
        for (j, oj) in &objectives {
            if i != j && dominates(oj, oi) {
                report.push(Diagnostic::new(
                    LintCode::DominatedParetoPoint,
                    &artifact,
                    format!("point {i}"),
                    format!("claimed Pareto-optimal but point {j} dominates it ({oj:?} ≺ {oi:?})"),
                ));
            }
        }
    }

    // CLR032: every ReD extra must sit within the tolerated degradation of
    // at least one BaseD seed, per objective.
    if !objectives.is_empty() {
        for (i, p) in db.iter().enumerate() {
            if p.origin != PointOrigin::ReconfigAware {
                continue;
            }
            let oe = mode.objectives_of(&p.metrics);
            // All objectives are minimised and non-negative (makespan,
            // error rate, energy, inverse MTTF), so the bound is a plain
            // relative inflation of the seed's value.
            let within_some_seed = objectives.iter().any(|(_, os)| {
                oe.iter()
                    .zip(os)
                    .all(|(&e, &s)| e <= s * (1.0 + red_tolerance) + EPS_TIME)
            });
            if !within_some_seed {
                report.push(Diagnostic::new(
                    LintCode::RedDegradationExceeded,
                    &artifact,
                    format!("point {i}"),
                    format!(
                        "reconfiguration-aware extra degrades beyond tolerance {red_tolerance} \
                         of every BaseD seed (objectives {oe:?})"
                    ),
                ));
            }
        }
    }

    // CLR035: the database must survive its own text codec.
    match DesignPointDb::from_text(&db.to_text()) {
        Ok(decoded) if &decoded == db => {}
        Ok(_) => {
            report.push(Diagnostic::new(
                LintCode::RoundTripMismatch,
                &artifact,
                "codec",
                "decode(encode(db)) differs from db (non-finite metrics break equality)"
                    .to_string(),
            ));
        }
        Err(e) => {
            report.push(Diagnostic::new(
                LintCode::RoundTripMismatch,
                &artifact,
                "codec",
                format!("database does not re-parse through its own codec: {e}"),
            ));
        }
    }

    report
}

/// `CLR037`: a persisted dRC matrix (`matrix[i][j]` = cost of switching
/// the running configuration from point `i` to point `j`) must agree with
/// the costs recomputed from the stored mappings.
pub fn check_drc_matrix(
    graph: &TaskGraph,
    platform: &Platform,
    db: &DesignPointDb,
    matrix: &[Vec<f64>],
) -> Report {
    let artifact = format!("db:{}", db.name());
    let mut report = Report::new();
    if matrix.len() != db.len() || matrix.iter().any(|row| row.len() != db.len()) {
        report.push(Diagnostic::new(
            LintCode::DrcMatrixMismatch,
            &artifact,
            "drc matrix",
            format!(
                "matrix shape {}x{} does not cover the {} stored point(s)",
                matrix.len(),
                matrix.first().map_or(0, Vec::len),
                db.len()
            ),
        ));
        return report;
    }
    for (i, row) in matrix.iter().enumerate() {
        for (j, &stored) in row.iter().enumerate() {
            let fresh = reconfiguration_cost(
                graph,
                platform,
                &db.points()[i].mapping,
                &db.points()[j].mapping,
            )
            .total();
            if !approx_eq_time(stored, fresh) {
                report.push(Diagnostic::new(
                    LintCode::DrcMatrixMismatch,
                    &artifact,
                    format!("drc[{i}][{j}]"),
                    format!("stored cost {stored} but recomputation yields {fresh}"),
                ));
            }
        }
    }
    report
}
