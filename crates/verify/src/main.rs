//! `clr-verify` — audit cross-layer design artifacts against the lint
//! registry and exit nonzero when a deny-level invariant is broken.
//!
//! ```text
//! clr-verify [--json] all             end-to-end audit of the bundled artifacts
//! clr-verify [--json] tgff <FILE>..   parse and lint TGFF task graphs
//! clr-verify [--json] db <FILE>..     decode and lint design-point databases
//! clr-verify [--json] journal <FILE>.. lint observability journals (*.obs.jsonl)
//! clr-verify [--json] snapshot <FILE>.. lint serving snapshots (*.snap)
//! clr-verify [--json] plan <FILE>..   lint fault plans (clr-fault-plan v1)
//! clr-verify [--json] campaign <CSV> [JOURNAL]
//!                                     lint a campaign CSV, cross-checking
//!                                     quarantine counts against its journal
//! clr-verify [--json] trace <FILE> <NAME,NAME,..>
//!                                     lint a QoS-event trace against a
//!                                     fleet's tenant names (CLR065)
//! clr-verify [--json] stats <FILE>..  lint fleet telemetry snapshots
//!                                     (CLR066–CLR068)
//! clr-verify [--json] learn <FILE>..  lint online-learner artifacts
//!                                     (CLR090–CLR092): CLRLRN1
//!                                     checkpoints, or journals holding
//!                                     shadow/promote events
//! clr-verify [--json] store <LOG> [CHANGESET]
//!                                     lint a clr-store replica log —
//!                                     lineage, stamps, merge laws, GC
//!                                     reachability (CLR080–CLR085) —
//!                                     and optionally a shipped
//!                                     changeset against it (CLR082)
//! clr-verify list                     print the lint registry
//! ```
//!
//! Exit codes: `0` clean or warn-only, `1` at least one deny-level
//! finding, `2` usage / IO / parse error.

use std::process::ExitCode;

use clr_core::{ScenarioKind, ScenarioSuite};
use clr_dse::{
    explore_based, explore_red, DesignPointDb, DseConfig, ExplorationMode, QosSpec, RedConfig,
};
use clr_moea::GaParams;
use clr_platform::Platform;
use clr_reliability::{ConfigSpace, FaultModel};
use clr_runtime::{AuraAgent, RuntimeContext};
use clr_sched::heft_mapping;
use clr_sched::Evaluator;
use clr_serve::Trace;
use clr_store::{Changeset, Store};
use clr_taskgraph::{
    fork_join_graph, jpeg_encoder, parse_tgff, TgffConfig, TgffGenerator, TgffParseOptions,
};
use clr_verify::{
    check_aura_subsumes_ura, check_campaign_consistency, check_campaign_csv, check_changeset,
    check_database, check_database_standalone, check_drc_matrix, check_fault_plan, check_journal,
    check_learn_checkpoint, check_mapping, check_platform, check_platform_supports,
    check_policy_params, check_schedule, check_shadow_journal, check_snapshot, check_stats,
    check_store, check_task_graph, check_trace, Diagnostic, LintCode, Report,
};

const USAGE: &str = "usage: clr-verify [--json] <all | tgff FILE.. | db FILE.. | journal FILE.. \
| snapshot FILE.. | plan FILE.. | campaign CSV [JOURNAL] | trace FILE NAME,NAME,.. \
| stats FILE.. | learn FILE.. | store LOG [CHANGESET] | list>";

fn main() -> ExitCode {
    let mut json = false;
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    args.retain(|a| {
        if a == "--json" {
            json = true;
            false
        } else {
            true
        }
    });
    let Some(command) = args.first().cloned() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let operands = &args[1..];

    let report = match command.as_str() {
        "list" => {
            print_registry();
            return ExitCode::SUCCESS;
        }
        "all" => {
            if !operands.is_empty() {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
            audit_all()
        }
        "tgff" => match audit_files(operands, audit_tgff_file) {
            Ok(r) => r,
            Err(code) => return code,
        },
        "db" => match audit_files(operands, audit_db_file) {
            Ok(r) => r,
            Err(code) => return code,
        },
        "journal" => match audit_files(operands, audit_journal_file) {
            Ok(r) => r,
            Err(code) => return code,
        },
        "snapshot" => match audit_binary_files(operands, audit_snapshot_file) {
            Ok(r) => r,
            Err(code) => return code,
        },
        "plan" => match audit_files(operands, audit_plan_file) {
            Ok(r) => r,
            Err(code) => return code,
        },
        "campaign" => match audit_campaign(operands) {
            Ok(r) => r,
            Err(code) => return code,
        },
        "trace" => match audit_trace(operands) {
            Ok(r) => r,
            Err(code) => return code,
        },
        "stats" => match audit_files(operands, audit_stats_file) {
            Ok(r) => r,
            Err(code) => return code,
        },
        "learn" => match audit_binary_files(operands, audit_learn_file) {
            Ok(r) => r,
            Err(code) => return code,
        },
        "store" => match audit_store(operands) {
            Ok(r) => r,
            Err(code) => return code,
        },
        other => {
            eprintln!("clr-verify: unknown command {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    ExitCode::from(u8::try_from(report.exit_code()).unwrap_or(1))
}

/// Prints the full lint registry as an aligned table: the CLR0xx
/// artifact lints owned by this crate, then the CLR1xx source lints
/// owned by `clr-audit`. A cross-crate test keeps the two code ranges
/// disjoint, so the merged listing can never show a collision.
fn print_registry() {
    println!("{:<8} {:<5} description", "code", "level");
    println!("— CLR0xx artifact lints (clr-verify) —");
    for lint in LintCode::ALL {
        println!(
            "{:<8} {:<5} {}",
            lint.code(),
            lint.severity().to_string(),
            lint.description()
        );
        println!("{:<14} fix: {}", "", lint.fix_hint());
    }
    println!("— CLR1xx source lints (clr-audit) —");
    for lint in clr_audit::AuditCode::ALL {
        println!(
            "{:<8} {:<5} {}",
            lint.code(),
            lint.severity().to_string(),
            lint.description()
        );
        println!("{:<14} fix: {}", "", lint.fix_hint());
    }
}

/// Runs `audit` over each operand file, merging reports; IO errors are
/// fatal (exit 2).
fn audit_files(
    files: &[String],
    audit: impl Fn(&str, &str) -> Result<Report, String>,
) -> Result<Report, ExitCode> {
    if files.is_empty() {
        eprintln!("{USAGE}");
        return Err(ExitCode::from(2));
    }
    let mut report = Report::new();
    for path in files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("clr-verify: cannot read {path}: {e}");
                return Err(ExitCode::from(2));
            }
        };
        match audit(&text, path) {
            Ok(r) => report.merge(r),
            Err(e) => {
                eprintln!("clr-verify: {path}: {e}");
                return Err(ExitCode::from(2));
            }
        }
    }
    Ok(report)
}

/// Like [`audit_files`], for binary artifacts.
fn audit_binary_files(
    files: &[String],
    audit: impl Fn(&[u8], &str) -> Report,
) -> Result<Report, ExitCode> {
    if files.is_empty() {
        eprintln!("{USAGE}");
        return Err(ExitCode::from(2));
    }
    let mut report = Report::new();
    for path in files {
        match std::fs::read(path) {
            Ok(bytes) => report.merge(audit(&bytes, path)),
            Err(e) => {
                eprintln!("clr-verify: cannot read {path}: {e}");
                return Err(ExitCode::from(2));
            }
        }
    }
    Ok(report)
}

/// Parses one TGFF document and lints every graph-level invariant.
fn audit_tgff_file(text: &str, path: &str) -> Result<Report, String> {
    let graph = parse_tgff(text, &TgffParseOptions::default())
        .map_err(|e| format!("TGFF parse error: {e}"))?;
    let mut report = check_task_graph(&graph);
    report.merge(check_platform_supports(&graph, &Platform::dac19(), "dac19"));
    eprintln!(
        "clr-verify: {path}: graph {:?} ({} tasks, {} edges)",
        graph.name(),
        graph.num_tasks(),
        graph.num_edges()
    );
    Ok(report)
}

/// Decodes one design-point database and runs the context-free lints.
fn audit_db_file(text: &str, path: &str) -> Result<Report, String> {
    let db = DesignPointDb::from_text(text).map_err(|e| format!("database decode error: {e}"))?;
    eprintln!(
        "clr-verify: {path}: database {:?} ({} points)",
        db.name(),
        db.len()
    );
    Ok(check_database_standalone(
        &db,
        ExplorationMode::Full,
        RedConfig::default().tolerance,
    ))
}

/// Lints one fault-plan document (CLR070).
fn audit_plan_file(text: &str, path: &str) -> Result<Report, String> {
    eprintln!("clr-verify: {path}: fault plan");
    Ok(check_fault_plan(text, path))
}

/// Lints a campaign CSV (CLR071) and, when a journal operand is given,
/// the quarantine-consistency law between the two (CLR072).
fn audit_campaign(operands: &[String]) -> Result<Report, ExitCode> {
    let (csv_path, journal_path) = match operands {
        [csv] => (csv, None),
        [csv, journal] => (csv, Some(journal)),
        _ => {
            eprintln!("{USAGE}");
            return Err(ExitCode::from(2));
        }
    };
    let read = |path: &String| {
        std::fs::read_to_string(path).map_err(|e| {
            eprintln!("clr-verify: cannot read {path}: {e}");
            ExitCode::from(2)
        })
    };
    let csv = read(csv_path)?;
    eprintln!(
        "clr-verify: {csv_path}: campaign CSV ({} lines)",
        csv.lines().count()
    );
    match journal_path {
        None => Ok(check_campaign_csv(&csv, csv_path)),
        Some(journal_path) => {
            let journal = read(journal_path)?;
            let mut report = check_campaign_consistency(&csv, &journal, csv_path);
            report.merge(check_journal(&journal, journal_path));
            Ok(report)
        }
    }
}

/// Lints a QoS-event trace against a comma-separated fleet of tenant
/// names (CLR065: every event must address a seated tenant).
fn audit_trace(operands: &[String]) -> Result<Report, ExitCode> {
    let [trace_path, fleet_spec] = operands else {
        eprintln!("{USAGE}");
        return Err(ExitCode::from(2));
    };
    let fleet: Vec<&str> = fleet_spec.split(',').filter(|s| !s.is_empty()).collect();
    if fleet.is_empty() {
        eprintln!("clr-verify: trace needs a non-empty NAME,NAME,.. fleet list");
        return Err(ExitCode::from(2));
    }
    let text = match std::fs::read_to_string(trace_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("clr-verify: cannot read {trace_path}: {e}");
            return Err(ExitCode::from(2));
        }
    };
    let trace = match Trace::from_jsonl(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("clr-verify: {trace_path}: {e}");
            return Err(ExitCode::from(2));
        }
    };
    eprintln!(
        "clr-verify: {trace_path}: trace ({} events, fleet of {})",
        trace.len(),
        fleet.len()
    );
    Ok(check_trace(&trace, &fleet, trace_path))
}

/// Lints a clr-store replica log (CLR080–CLR085) and, when a changeset
/// operand is given, the shipped changeset against the generation it
/// claims as its source (CLR082).
fn audit_store(operands: &[String]) -> Result<Report, ExitCode> {
    let (log_path, cs_path) = match operands {
        [log] => (log, None),
        [log, cs] => (log, Some(cs)),
        _ => {
            eprintln!("{USAGE}");
            return Err(ExitCode::from(2));
        }
    };
    // `Store::open` treats a missing log as empty (the backend creates
    // it on first publish); for an audit that would silently pass, so
    // require the path to exist like the other file subcommands.
    if !std::path::Path::new(log_path).exists() {
        eprintln!("clr-verify: cannot read {log_path}: No such file or directory (os error 2)");
        return Err(ExitCode::from(2));
    }
    let store = match Store::open(log_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("clr-verify: cannot open store {log_path}: {e}");
            return Err(ExitCode::from(2));
        }
    };
    let generations = match store.generations() {
        Ok(g) => g,
        Err(e) => {
            eprintln!("clr-verify: cannot read store {log_path}: {e}");
            return Err(ExitCode::from(2));
        }
    };
    let mut report = Report::new();
    let mut snapshots = Vec::new();
    for generation in generations {
        match store.get(generation) {
            Ok(snapshot) => snapshots.push(snapshot),
            // A held generation that no longer decodes is a damaged
            // container, not a usage error — same code the snapshot
            // audit assigns.
            Err(e) => report.push(Diagnostic::new(
                LintCode::SnapshotContainerInvalid,
                format!("store:{log_path}"),
                format!("generation {generation}"),
                format!("stored container does not decode: {e}"),
            )),
        }
    }
    eprintln!(
        "clr-verify: {log_path}: store ({} generations)",
        snapshots.len()
    );
    report.merge(check_store(&snapshots, log_path));
    if let Some(cs_path) = cs_path {
        let text = match std::fs::read_to_string(cs_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("clr-verify: cannot read {cs_path}: {e}");
                return Err(ExitCode::from(2));
            }
        };
        let source = Changeset::from_text(&text).ok().and_then(|cs| {
            snapshots
                .iter()
                .find(|s| s.lineage().generation == cs.from_generation)
        });
        eprintln!("clr-verify: {cs_path}: changeset ({} bytes)", text.len());
        report.merge(check_changeset(&text, source, cs_path));
    }
    Ok(report)
}

/// Lints one fleet telemetry snapshot (CLR066–CLR068: schema + round
/// trip, window arithmetic, histogram population).
fn audit_stats_file(text: &str, path: &str) -> Result<Report, String> {
    eprintln!(
        "clr-verify: {path}: telemetry snapshot ({} bytes)",
        text.len()
    );
    Ok(check_stats(text, path))
}

/// Lints one online-learner artifact (CLR090–CLR092). The operand is
/// sniffed by magic: a `CLRLRN1` file audits as a checkpoint, anything
/// else as journal text whose shadow/promote events are checked.
fn audit_learn_file(bytes: &[u8], path: &str) -> Report {
    if clr_learn::is_learn_checkpoint(bytes) {
        eprintln!(
            "clr-verify: {path}: learner checkpoint ({} bytes)",
            bytes.len()
        );
        return check_learn_checkpoint(bytes, path);
    }
    let text = String::from_utf8_lossy(bytes);
    eprintln!(
        "clr-verify: {path}: journal ({} lines)",
        text.lines().filter(|l| !l.trim().is_empty()).count()
    );
    check_shadow_journal(&text, path)
}

/// Lints one observability journal (either section; see
/// [`check_journal`]).
fn audit_journal_file(text: &str, path: &str) -> Result<Report, String> {
    eprintln!(
        "clr-verify: {path}: journal ({} lines)",
        text.lines().filter(|l| !l.trim().is_empty()).count()
    );
    Ok(check_journal(text, path))
}

/// Lints one serving snapshot: container structure, checksum, round
/// trip, model resolution and index ≡ linear-scan equivalence.
fn audit_snapshot_file(bytes: &[u8], path: &str) -> Report {
    eprintln!("clr-verify: {path}: snapshot ({} bytes)", bytes.len());
    check_snapshot(bytes, path)
}

/// A runtime context's dRC matrix as rows, for CLR037.
fn drc_matrix(ctx: &RuntimeContext<'_>) -> Vec<Vec<f64>> {
    (0..ctx.len())
        .map(|i| (0..ctx.len()).map(|j| ctx.drc(i, j)).collect())
        .collect()
}

/// End-to-end audit of the bundled artifacts: presets, TGFF generation,
/// HEFT mapping/scheduling, a small BaseD exploration and the capped ReD
/// grown from it with their dRC matrices, the runtime policies and every
/// scenario-suite instance.
fn audit_all() -> Report {
    let mut report = Report::new();
    let fm = FaultModel::default();
    let dac19 = Platform::dac19();

    // Platforms.
    report.merge(check_platform(&dac19, "dac19"));
    report.merge(check_platform(&Platform::tiny(), "tiny"));

    // Graphs: the JPEG preset plus generated TGFF and fork-join graphs.
    let jpeg = jpeg_encoder();
    report.merge(check_task_graph(&jpeg));
    report.merge(check_platform_supports(&jpeg, &dac19, "dac19"));
    for seed in 0..2u64 {
        let g = TgffGenerator::new(TgffConfig::with_tasks(20)).generate(seed);
        report.merge(check_task_graph(&g));
        report.merge(check_platform_supports(&g, &dac19, "dac19"));
        let fj = fork_join_graph(&TgffConfig::with_tasks(16), seed);
        report.merge(check_task_graph(&fj));
    }

    // Mapping + schedule via HEFT on the JPEG preset.
    match heft_mapping(&jpeg, &dac19, &fm) {
        Ok(mapping) => {
            report.merge(check_mapping(&jpeg, &dac19, &mapping, "heft-jpeg"));
            let eval = Evaluator::new(&jpeg, &dac19, fm);
            let (_, schedule) = eval.evaluate_with_schedule(&mapping);
            report.merge(check_schedule(&jpeg, &mapping, &schedule, "heft-jpeg"));
        }
        Err(e) => eprintln!("clr-verify: heft on jpeg/dac19 failed: {e:?}"),
    }

    // A small BaseD exploration, its codec round-trip and dRC matrix.
    let dse = DseConfig {
        ga: GaParams::small(),
        mode: ExplorationMode::Full,
        reference: None,
        max_points: None,
    };
    let db = explore_based(&jpeg, &dac19, fm, ConfigSpace::fine(), &dse, 7);
    report.merge(check_database(
        &jpeg,
        &dac19,
        &fm,
        dse.mode,
        &db,
        RedConfig::default().tolerance,
    ));
    let ctx = RuntimeContext::new(&jpeg, &dac19, &db);
    report.merge(check_drc_matrix(&jpeg, &dac19, &db, &drc_matrix(&ctx)));
    // The ReD grown from it under a cap of eight extras: the extras are
    // the points ReD's dRC kernel ranked, and their matrix rows and
    // columns are the ones only ReD has.
    let red_config = RedConfig {
        ga: GaParams::small(),
        max_total: Some(db.len() + 8),
        ..RedConfig::default()
    };
    let red = explore_red(
        &jpeg,
        &dac19,
        fm,
        ConfigSpace::fine(),
        dse.mode,
        &db,
        &red_config,
        7,
    );
    let red_ctx = RuntimeContext::new(&jpeg, &dac19, &red);
    report.merge(check_drc_matrix(&jpeg, &dac19, &red, &drc_matrix(&red_ctx)));

    // Runtime policies: parameter ranges and the AuRA-subsumes-uRA law.
    report.merge(check_policy_params(0.5, 0.9, 0.1, "defaults"));
    match AuraAgent::new(db.len(), 0.5, 0.0, 0.5) {
        Ok(mut agent) => {
            let specs = [QosSpec::new(f64::INFINITY, 0.0), QosSpec::new(1e6, 0.5)];
            report.merge(check_aura_subsumes_ura(
                &ctx,
                &mut agent,
                &specs,
                "aura-gamma0",
            ));
        }
        Err(bad) => eprintln!("clr-verify: cannot build aura agent: bad parameter {bad}"),
    }

    // Scenario suite: every degraded platform must still lint clean and
    // keep supporting the application.
    let suite = ScenarioSuite::new(&dac19, fm)
        .with_pe_failures()
        .with_lambda_shifts(&[2e-6, 5e-5]);
    for instance in suite.instances() {
        let label = instance.kind().to_string();
        report.merge(check_platform(instance.platform(), &label));
        if matches!(instance.kind(), ScenarioKind::PeFailure { .. }) && !instance.supports(&jpeg) {
            eprintln!("clr-verify: scenario {label} no longer supports the jpeg graph");
        }
        report.merge(check_platform_supports(&jpeg, instance.platform(), &label));
    }

    report
}
