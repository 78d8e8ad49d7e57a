//! `clr-served` — the long-running multi-tenant decision daemon.
//!
//! ```text
//! clr-served --tenant NAME=SNAP@POLICY.. [--batch N] [--threads N]
//!            [--episode-cycles C] [--quarantine-after K]
//!            [--obs-dir DIR] [--learn-dir DIR]
//! ```
//!
//! Speaks the `CLRWIRE1` framed protocol on stdin/stdout: request
//! frames in, response (or error) frames out, batched admission with
//! bounded-queue backpressure, graceful drain on end-of-stream or an
//! explicit shutdown frame. A stats-query frame is answered in stream
//! position with a schema-v2 fleet telemetry snapshot (byte-identical
//! at any `--threads` value). Responses for a time-sorted trace are
//! decision-for-decision identical to one batch `clr-serve replay` of
//! the same fleet — `ci.sh` byte-compares the two via
//! `clr-serve wire-encode` / `wire-decode`.
//!
//! Diagnostics go to stderr (stdout carries only frames). On drain the
//! daemon prints the same per-tenant summary lines `clr-serve replay`
//! prints (active db generation included), and with `--obs-dir DIR`
//! exports the drain as a `served.obs.jsonl` journal — `SwapDb` rollouts
//! appear as `db_swap` events in stream position, auditable with
//! `clr-verify journal`.
//!
//! With `--learn-dir DIR`, tenants running an `aura+learn:` policy
//! warm-start from a `CLRLRN1` checkpoint (`DIR/<tenant>.learn`) at
//! seating and write one back at drain, so online value tables survive
//! restarts; a missing or mismatched checkpoint is a logged cold start,
//! never a seating failure. A mid-stream `Promote` frame ships a
//! tenant's shadow table to live in stream position (see
//! `clr-serve promote`).
//!
//! Flag parsing is strict: an unknown or typo'd `--flag` is a usage
//! error.
//!
//! Exit codes: `0` clean drain (shutdown frame or end-of-stream), `1`
//! serving failure (corrupt request stream, unwritable responses), `2`
//! usage error.

use std::process::ExitCode;

use clr_obs::{Obs, ObsMode};
use clr_serve::cli::{flag, parse_fleet, split_flags};
use clr_serve::{serve_stream, DaemonConfig, ReplayReport};

const USAGE: &str = "usage: clr-served --tenant NAME=SNAP@POLICY.. \
[--batch N] [--threads N] [--episode-cycles C] [--quarantine-after K] \
[--obs-dir DIR] [--learn-dir DIR]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let allowed = [
        "tenant",
        "batch",
        "threads",
        "episode-cycles",
        "quarantine-after",
        "obs-dir",
        "learn-dir",
    ];
    let (positional, flags) = match split_flags(&args, &allowed) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    if !positional.is_empty() {
        return usage_error("clr-served takes flags only");
    }
    let mut config = DaemonConfig::default();
    if let Some(v) = flag(&flags, "batch") {
        match v.parse::<usize>() {
            Ok(n) if n >= 1 => config.batch = n,
            _ => return usage_error("bad --batch (a positive integer)"),
        }
    }
    if let Some(v) = flag(&flags, "threads") {
        match v.parse() {
            Ok(n) => config.replay.threads = n,
            Err(_) => return usage_error("bad --threads"),
        }
    }
    if let Some(v) = flag(&flags, "episode-cycles") {
        match v.parse::<f64>() {
            Ok(c) if c > 0.0 => config.replay.episode_cycles = c,
            _ => return usage_error("bad --episode-cycles"),
        }
    }
    if let Some(v) = flag(&flags, "quarantine-after") {
        match v.parse::<usize>() {
            Ok(k) => config.replay.quarantine_after = k,
            Err(_) => return usage_error("bad --quarantine-after"),
        }
    }
    if let Some(dir) = flag(&flags, "learn-dir") {
        config.learn_dir = Some(std::path::PathBuf::from(dir));
    }
    let tenants = match parse_fleet(&flags) {
        Ok(t) => t,
        Err(e) => return usage_error(&e),
    };
    eprintln!(
        "clr-served: {} tenants seated, batch {}, serving on stdin/stdout",
        tenants.len(),
        config.batch
    );

    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut input = stdin.lock();
    let mut output = stdout.lock();
    match serve_stream(&tenants, &mut input, &mut output, &config) {
        Ok(report) => {
            // The same summary source `clr-serve replay` prints, so a
            // drained daemon and a batch replay of the same trace agree
            // line for line (dropped counts included). The one report
            // feeds the summary, the A/B lines and the journal export.
            let dropped: Vec<(String, usize)> = report
                .dropped_by_tenant
                .iter()
                .map(|(name, n)| (name.clone(), usize::try_from(*n).unwrap_or(usize::MAX)))
                .collect();
            let drained = ReplayReport::from_parts(report.outcomes, dropped);
            for line in drained.summary_lines() {
                if line.starts_with("warning:") {
                    eprintln!("clr-served: {line}");
                } else {
                    eprintln!("{line}");
                }
            }
            for note in &report.learn_notes {
                eprintln!("clr-served: {note}");
            }
            for line in drained.ab_lines() {
                eprintln!("{line}");
            }
            eprintln!(
                "clr-served: drained — {} served, {} rejected, {} batches, {} stats, \
                 {} swaps, {} promotes ({})",
                report.served,
                report.rejected,
                report.batches,
                report.stats,
                report.swaps,
                report.promotes,
                if report.clean_shutdown {
                    "shutdown frame"
                } else {
                    "end of stream"
                }
            );
            // `--obs-dir`: export the drain as an observability journal
            // through the exact renderer batch replay uses, so a swap
            // applied mid-stream shows up as a `db_swap` event in
            // stream position and the journal byte-compares across
            // thread counts like the response frames do.
            if let Some(dir) = flag(&flags, "obs-dir") {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("clr-served: cannot create {dir}: {e}");
                    return ExitCode::from(2);
                }
                let obs = Obs::new(ObsMode::Json);
                drained.emit_obs(&obs);
                match obs.export(dir, "served") {
                    Ok(paths) => {
                        for p in paths {
                            eprintln!("wrote {}", p.display());
                        }
                    }
                    Err(e) => {
                        eprintln!("clr-served: cannot export journal to {dir}: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("clr-served: {e}");
            ExitCode::from(1)
        }
    }
}

/// Prints a usage error and returns the usage exit code.
fn usage_error(message: &str) -> ExitCode {
    eprintln!("clr-served: {message}\n{USAGE}");
    ExitCode::from(2)
}
