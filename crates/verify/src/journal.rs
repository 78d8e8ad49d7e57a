//! Lints for observability journals (`CLR05x`): the `*.obs.jsonl` files
//! exported by [`clr_obs::Obs::export`].
//!
//! A journal is valid when every line is a well-formed schema-versioned event
//! ([`LintCode::JournalSchemaInvalid`]), logical time is monotone — the
//! `seq` numbers strictly increase and decision cycles never regress
//! within one `sim_start`/`sim_end` bracket
//! ([`LintCode::JournalNonMonotoneSeq`]) — every decision record indexes
//! into the enclosing simulation's stored database
//! ([`LintCode::JournalDecisionIndexOutOfRange`]), and each line
//! re-encodes to its exact input bytes
//! ([`LintCode::JournalRoundTripMismatch`]).

use clr_obs::Event;

use crate::{Diagnostic, LintCode, Report};

/// Audits one journal document (deterministic or non-deterministic
/// section) line by line; `artifact` names the file in diagnostics.
pub fn check_journal(text: &str, artifact: &str) -> Report {
    let mut report = Report::new();
    let mut last_seq: Option<u64> = None;
    // `Some((points, last_cycle))` while inside a sim_start/sim_end
    // bracket of a database with `points` stored design points.
    let mut sim: Option<(usize, f64)> = None;
    // One re-encode buffer for every line; locations are formatted only
    // when a diagnostic fires.
    let mut reencoded = String::new();
    for (i, line) in text.lines().enumerate() {
        let loc = || format!("line {}", i + 1);
        if line.trim().is_empty() {
            continue;
        }
        let (seq, event) = match Event::from_json_line(line) {
            Ok(parsed) => parsed,
            Err(e) => {
                report.push(Diagnostic::new(
                    LintCode::JournalSchemaInvalid,
                    artifact,
                    loc(),
                    format!("unparseable event: {e}"),
                ));
                continue;
            }
        };
        reencoded.clear();
        event.write_json_line(seq, &mut reencoded);
        if reencoded != line {
            report.push(Diagnostic::new(
                LintCode::JournalRoundTripMismatch,
                artifact,
                loc(),
                "line does not re-encode to its own bytes".to_string(),
            ));
        }
        if let Some(prev) = last_seq {
            if seq <= prev {
                report.push(Diagnostic::new(
                    LintCode::JournalNonMonotoneSeq,
                    artifact,
                    loc(),
                    format!("seq {seq} after {prev}"),
                ));
            }
        }
        last_seq = Some(seq);
        match &event {
            Event::SimStart { points, .. } => sim = Some((*points, f64::NEG_INFINITY)),
            Event::SimEnd { .. } => sim = None,
            Event::Decision {
                cycle, from, to, ..
            } => match &mut sim {
                Some((points, last_cycle)) => {
                    if *from >= *points || *to >= *points {
                        report.push(Diagnostic::new(
                            LintCode::JournalDecisionIndexOutOfRange,
                            artifact,
                            loc(),
                            format!("points {from} -> {to} in a {points}-point database"),
                        ));
                    }
                    if *cycle < *last_cycle {
                        report.push(Diagnostic::new(
                            LintCode::JournalNonMonotoneSeq,
                            artifact,
                            loc(),
                            format!("decision cycle {cycle} after {last_cycle}"),
                        ));
                    } else {
                        *last_cycle = *cycle;
                    }
                }
                None => report.push(Diagnostic::new(
                    LintCode::JournalSchemaInvalid,
                    artifact,
                    loc(),
                    "decision record outside a sim_start/sim_end bracket".to_string(),
                )),
            },
            _ => {}
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal well-formed journal with one simulation bracket.
    fn sample() -> String {
        let events = [
            Event::Meta {
                label: "t".into(),
                schema: clr_obs::SCHEMA_VERSION,
            },
            Event::SimStart {
                label: "s".into(),
                points: 3,
                seed: 1,
            },
            Event::Decision {
                event: 1,
                cycle: 10.0,
                feasible: 2,
                from: 0,
                to: 2,
                drc: 1.5,
                score: Some(0.25),
                p_rc: Some(0.5),
                violated: false,
            },
            Event::Decision {
                event: 2,
                cycle: 25.0,
                feasible: 1,
                from: 2,
                to: 2,
                drc: 0.0,
                score: None,
                p_rc: None,
                violated: true,
            },
            Event::SimEnd {
                label: "s".into(),
                events: 2,
                reconfigurations: 1,
                violations: 1,
                total_drc: 1.5,
            },
        ];
        events
            .iter()
            .enumerate()
            .map(|(i, e)| e.to_json_line(i as u64))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn well_formed_journal_is_clean() {
        let report = check_journal(&sample(), "journal:test");
        assert!(report.is_empty(), "{}", report.render_human());
    }

    #[test]
    fn garbage_line_is_schema_invalid() {
        let text = format!("{}\nnot json", sample());
        let report = check_journal(&text, "t");
        assert!(report.has_code(LintCode::JournalSchemaInvalid));
        assert_eq!(report.exit_code(), 1);
    }

    #[test]
    fn reordered_seq_is_non_monotone() {
        let mut lines: Vec<String> = sample().lines().map(str::to_string).collect();
        lines.swap(3, 4);
        let report = check_journal(&lines.join("\n"), "t");
        assert!(report.has_code(LintCode::JournalNonMonotoneSeq));
    }

    #[test]
    fn regressing_decision_cycle_is_non_monotone() {
        let text = sample().replace("\"cycle\":25", "\"cycle\":5");
        let report = check_journal(&text, "t");
        assert!(report.has_code(LintCode::JournalNonMonotoneSeq));
    }

    #[test]
    fn out_of_range_decision_index_is_flagged() {
        let text = sample().replace("\"to\":2,\"drc\":1.5", "\"to\":7,\"drc\":1.5");
        let report = check_journal(&text, "t");
        assert!(report.has_code(LintCode::JournalDecisionIndexOutOfRange));
    }

    #[test]
    fn decision_outside_bracket_is_schema_invalid() {
        let lines: Vec<String> = sample()
            .lines()
            .filter(|l| !l.contains("sim_start"))
            .map(str::to_string)
            .collect();
        let report = check_journal(&lines.join("\n"), "t");
        assert!(report.has_code(LintCode::JournalSchemaInvalid));
    }

    #[test]
    fn hand_edited_line_fails_round_trip() {
        // Extra whitespace parses fine but does not re-encode identically.
        let text = sample().replace("\"points\":3", "\"points\": 3");
        let report = check_journal(&text, "t");
        assert!(report.has_code(LintCode::JournalRoundTripMismatch));
    }
}
