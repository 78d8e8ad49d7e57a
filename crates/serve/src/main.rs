//! `clr-serve` — publish design-time databases as snapshots and replay
//! multi-tenant QoS-event traces through the runtime decision engine.
//!
//! ```text
//! clr-serve snapshot <IN.db> <OUT.snap> [--graph G] [--platform P]
//! clr-serve inspect <SNAP>..
//! clr-serve gen-trace --out FILE --tenant NAME=SNAP@POLICY.. [--seed N]
//!                     [--cycles C] [--mean-gap G]
//! clr-serve replay --trace FILE --tenant NAME=SNAP@POLICY..
//!                  [--out-dir DIR] [--threads N] [--episode-cycles C]
//! clr-serve wire-encode --trace FILE --out FILE [--shutdown BOOL]
//! clr-serve wire-decode --in FILE --tenants NAME,NAME,..
//! clr-serve stats --request-out FILE [--tenant NAME] [--flight BOOL] [--seq N]
//! clr-serve stats (--in RESPONSES | --snapshot FILE) [--json]
//! clr-serve top (--in RESPONSES | --snapshot FILE | --journal FILE) [--limit N]
//! clr-serve swap-db --request-out FILE --tenant NAME --path SNAP [--expect GEN] [--seq N]
//! clr-serve promote --request-out FILE --tenant NAME [--seq N]
//! clr-serve ab --journal FILE
//! ```
//!
//! A tenant argument is `NAME=SNAP@POLICY`: a plain name, a snapshot
//! path, and a policy spec (`ura:<p_rc>`, `aura:<p_rc>,<gamma>,<alpha>`,
//! or `hv`), split on the *last* `=` and `@` so snapshot paths may
//! contain either character.
//!
//! `replay` writes `decisions.csv` plus a `replay.obs.jsonl` journal into
//! `--out-dir` (CSV goes to stdout when no directory is given). Both
//! outputs are byte-identical at any `--threads` value — `ci.sh` diffs
//! them across thread counts.
//!
//! `wire-encode` turns a JSONL trace into a `CLRWIRE1` request-frame
//! stream for `clr-served` (appending a shutdown frame unless
//! `--shutdown false`); `wire-decode` turns the daemon's response-frame
//! stream back into the decision CSV, grouping rows by tenant in the
//! `--tenants` fleet order so the result is byte-comparable against
//! `replay`'s `decisions.csv`. `ci.sh` closes that loop as its daemon
//! smoke test.
//!
//! `stats` speaks the live-telemetry side of the protocol: with
//! `--request-out` it encodes a `CLRWIRE1` stats-query frame (splice it
//! into a request stream before the shutdown frame); with `--in` it
//! pulls the snapshot out of the daemon's response stream; with
//! `--snapshot` it re-renders a saved snapshot line. Output is
//! Prometheus-style text unless `--json` asks for the canonical
//! schema-v2 JSON line. `top` renders the same snapshot (or a
//! `replay.obs.jsonl` journal) as a fleet health table, worst p99 slack
//! first.
//!
//! Flag parsing is strict: an unknown or typo'd `--flag` is a usage
//! error, not silently ignored. (`--json` on `stats`/`top` is the one
//! bare switch — it takes no value.)
//!
//! Exit codes: `0` success, `1` replay/serving failure, `2` usage / IO /
//! decode error.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::ExitCode;

use clr_obs::{Obs, ObsMode, TelemetrySnapshot};
use clr_serve::cli::{flag, parse_fleet, split_flags};
use clr_serve::wire::{Frame, PromoteRequest, Request, StatsRequest, SwapDbRequest, STATS_VERSION};
use clr_serve::{
    ab_report_from_journal, generate_trace, is_plain_name, render_prometheus, replay,
    telemetry_from_journal, ReplayConfig, Snapshot, Trace, DECISIONS_CSV_HEADER,
};

const USAGE: &str = "usage: clr-serve <command>
  snapshot <IN.db> <OUT.snap> [--graph G] [--platform P]
  inspect <SNAP>..
  gen-trace --out FILE --tenant NAME=SNAP@POLICY.. [--seed N] [--cycles C] [--mean-gap G]
  replay --trace FILE --tenant NAME=SNAP@POLICY.. [--out-dir DIR] [--threads N] [--episode-cycles C]
  wire-encode --trace FILE --out FILE [--shutdown BOOL]
  wire-decode --in FILE --tenants NAME,NAME,..
  stats --request-out FILE [--tenant NAME] [--flight BOOL] [--seq N]
  stats (--in RESPONSES | --snapshot FILE) [--json]
  top (--in RESPONSES | --snapshot FILE | --journal FILE) [--limit N]
  swap-db --request-out FILE --tenant NAME --path SNAP [--expect GEN] [--seq N]
  promote --request-out FILE --tenant NAME [--seq N]
  ab --journal FILE";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match command.as_str() {
        "snapshot" => cmd_snapshot(&args[1..]),
        "inspect" => cmd_inspect(&args[1..]),
        "gen-trace" => cmd_gen_trace(&args[1..]),
        "replay" => cmd_replay(&args[1..]),
        "wire-encode" => cmd_wire_encode(&args[1..]),
        "wire-decode" => cmd_wire_decode(&args[1..]),
        "stats" => cmd_stats(&args[1..]),
        "top" => cmd_top(&args[1..]),
        "swap-db" => cmd_swap_db(&args[1..]),
        "promote" => cmd_promote(&args[1..]),
        "ab" => cmd_ab(&args[1..]),
        other => {
            eprintln!("clr-serve: unknown command {other:?}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Prints a usage error and returns the usage exit code.
fn usage_error(message: &str) -> ExitCode {
    eprintln!("clr-serve: {message}\n{USAGE}");
    ExitCode::from(2)
}

/// `snapshot`: wrap a text-codec database in the binary snapshot
/// container.
fn cmd_snapshot(args: &[String]) -> ExitCode {
    let (positional, flags) = match split_flags(args, &["graph", "platform"]) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    let [input, output] = positional[..] else {
        return usage_error("snapshot takes <IN.db> <OUT.snap>");
    };
    let graph = flag(&flags, "graph").unwrap_or("jpeg");
    let platform = flag(&flags, "platform").unwrap_or("dac19");
    let text = match std::fs::read_to_string(input) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("clr-serve: cannot read {input}: {e}");
            return ExitCode::from(2);
        }
    };
    let db = match clr_dse::DesignPointDb::from_text(&text) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("clr-serve: {input}: database decode error: {e}");
            return ExitCode::from(2);
        }
    };
    let snapshot = Snapshot::new(graph, platform, db);
    if let Err(e) = snapshot.resolve() {
        eprintln!("clr-serve: warning: {e} (snapshot written, but it will not replay here)");
    }
    if let Err(e) = snapshot.write_file(output) {
        eprintln!("clr-serve: cannot write {output}: {e}");
        return ExitCode::from(2);
    }
    println!(
        "wrote {output}: graph {} platform {} points {}",
        snapshot.graph_desc(),
        snapshot.platform_desc(),
        snapshot.db().len()
    );
    ExitCode::SUCCESS
}

/// `inspect`: decode snapshots and print their metadata.
fn cmd_inspect(args: &[String]) -> ExitCode {
    let (positional, _) = match split_flags(args, &[]) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    if positional.is_empty() {
        return usage_error("inspect takes at least one snapshot path");
    }
    for path in positional {
        match Snapshot::read_file(path) {
            Ok(snap) => println!(
                "{path}: graph {} platform {} points {} db {:?}",
                snap.graph_desc(),
                snap.platform_desc(),
                snap.db().len(),
                snap.db().name()
            ),
            Err(e) => {
                eprintln!("clr-serve: {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    ExitCode::SUCCESS
}

/// `gen-trace`: seeded multi-tenant workload generation.
fn cmd_gen_trace(args: &[String]) -> ExitCode {
    let allowed = ["out", "tenant", "seed", "cycles", "mean-gap"];
    let (positional, flags) = match split_flags(args, &allowed) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    if !positional.is_empty() {
        return usage_error("gen-trace takes flags only");
    }
    let Some(out) = flag(&flags, "out") else {
        return usage_error("gen-trace needs --out FILE");
    };
    let parse_f64 = |name: &str, default: f64| -> Result<f64, String> {
        flag(&flags, name)
            .map_or(Ok(default), |v| {
                v.parse().map_err(|_| format!("bad --{name} {v:?}"))
            })
            .and_then(|v: f64| {
                if v.is_finite() && v > 0.0 {
                    Ok(v)
                } else {
                    Err(format!("--{name} must be finite and positive"))
                }
            })
    };
    let seed: u64 = match flag(&flags, "seed").map_or(Ok(1), str::parse) {
        Ok(s) => s,
        Err(_) => return usage_error("bad --seed"),
    };
    let (cycles, mean_gap) = match (parse_f64("cycles", 10_000.0), parse_f64("mean-gap", 100.0)) {
        (Ok(c), Ok(g)) => (c, g),
        (Err(e), _) | (_, Err(e)) => return usage_error(&e),
    };
    let tenants = match parse_fleet(&flags) {
        Ok(t) => t,
        Err(e) => return usage_error(&e),
    };
    let trace = generate_trace(&tenants, seed, cycles, mean_gap);
    if let Err(e) = std::fs::write(out, trace.to_jsonl()) {
        eprintln!("clr-serve: cannot write {out}: {e}");
        return ExitCode::from(2);
    }
    println!(
        "wrote {out}: {} events for {} tenants (seed {seed}, {cycles} cycles)",
        trace.len(),
        tenants.len()
    );
    ExitCode::SUCCESS
}

/// `replay`: drive a trace through the engine, writing deterministic
/// decision outputs.
fn cmd_replay(args: &[String]) -> ExitCode {
    let allowed = ["trace", "tenant", "out-dir", "threads", "episode-cycles"];
    let (positional, flags) = match split_flags(args, &allowed) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    if !positional.is_empty() {
        return usage_error("replay takes flags only");
    }
    let Some(trace_path) = flag(&flags, "trace") else {
        return usage_error("replay needs --trace FILE");
    };
    let text = match std::fs::read_to_string(trace_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("clr-serve: cannot read {trace_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let trace = match Trace::from_jsonl(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("clr-serve: {trace_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let tenants = match parse_fleet(&flags) {
        Ok(t) => t,
        Err(e) => return usage_error(&e),
    };
    let mut config = ReplayConfig::default();
    if let Some(v) = flag(&flags, "threads") {
        match v.parse() {
            Ok(n) => config.threads = n,
            Err(_) => return usage_error("bad --threads"),
        }
    }
    if let Some(v) = flag(&flags, "episode-cycles") {
        match v.parse::<f64>() {
            Ok(c) if c > 0.0 => config.episode_cycles = c,
            _ => return usage_error("bad --episode-cycles"),
        }
    }

    let report = match replay(&tenants, &trace, &config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("clr-serve: {e}");
            return ExitCode::from(1);
        }
    };

    for line in report.summary_lines() {
        if line.starts_with("warning:") {
            eprintln!("clr-serve: {line}");
        } else {
            eprintln!("{line}");
        }
    }
    for line in report.ab_lines() {
        eprintln!("{line}");
    }

    match flag(&flags, "out-dir") {
        Some(dir) => {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("clr-serve: cannot create {dir}: {e}");
                return ExitCode::from(2);
            }
            let csv_path = format!("{dir}/decisions.csv");
            if let Err(e) = std::fs::write(&csv_path, report.decisions_csv()) {
                eprintln!("clr-serve: cannot write {csv_path}: {e}");
                return ExitCode::from(2);
            }
            let obs = Obs::new(ObsMode::Json);
            report.emit_obs(&obs);
            match obs.export(dir, "replay") {
                Ok(paths) => {
                    for p in paths {
                        eprintln!("wrote {}", p.display());
                    }
                    eprintln!("wrote {csv_path}");
                }
                Err(e) => {
                    eprintln!("clr-serve: cannot export journal to {dir}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        None => print!("{}", report.decisions_csv()),
    }
    ExitCode::SUCCESS
}

/// `wire-encode`: a JSONL trace as a `CLRWIRE1` request-frame stream
/// (seq = 1-based event index), shutdown-terminated by default.
fn cmd_wire_encode(args: &[String]) -> ExitCode {
    let (positional, flags) = match split_flags(args, &["trace", "out", "shutdown"]) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    if !positional.is_empty() {
        return usage_error("wire-encode takes flags only");
    }
    let (Some(trace_path), Some(out)) = (flag(&flags, "trace"), flag(&flags, "out")) else {
        return usage_error("wire-encode needs --trace FILE and --out FILE");
    };
    let shutdown = match flag(&flags, "shutdown").unwrap_or("true") {
        "true" => true,
        "false" => false,
        other => return usage_error(&format!("bad --shutdown {other:?} (true or false)")),
    };
    let text = match std::fs::read_to_string(trace_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("clr-serve: cannot read {trace_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let trace = match Trace::from_jsonl(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("clr-serve: {trace_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut bytes = Vec::new();
    for (i, event) in trace.events().iter().enumerate() {
        bytes.extend_from_slice(
            &Frame::Request(Request::from_event(i as u64 + 1, event)).to_bytes(),
        );
    }
    if shutdown {
        bytes.extend_from_slice(&Frame::Shutdown.to_bytes());
    }
    if let Err(e) = std::fs::write(out, &bytes) {
        eprintln!("clr-serve: cannot write {out}: {e}");
        return ExitCode::from(2);
    }
    eprintln!(
        "wrote {out}: {} request frames{} ({} bytes)",
        trace.len(),
        if shutdown { " + shutdown" } else { "" },
        bytes.len()
    );
    ExitCode::SUCCESS
}

/// `wire-decode`: a `CLRWIRE1` response-frame stream back into the
/// decision CSV, grouped by tenant in the given fleet order.
fn cmd_wire_decode(args: &[String]) -> ExitCode {
    let (positional, flags) = match split_flags(args, &["in", "tenants"]) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    if !positional.is_empty() {
        return usage_error("wire-decode takes flags only");
    }
    let (Some(input), Some(tenants)) = (flag(&flags, "in"), flag(&flags, "tenants")) else {
        return usage_error("wire-decode needs --in FILE and --tenants NAME,NAME,..");
    };
    let order: Vec<&str> = tenants.split(',').filter(|s| !s.is_empty()).collect();
    if order.is_empty() || !order.iter().all(|name| is_plain_name(name)) {
        return usage_error("bad --tenants (comma-separated plain names)");
    }
    let bytes = match std::fs::read(input) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("clr-serve: cannot read {input}: {e}");
            return ExitCode::from(2);
        }
    };
    // One row buffer per tenant, in `--tenants` order (a repeated name
    // keeps its first slot).
    let mut slot: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, &name) in order.iter().enumerate() {
        slot.entry(name).or_insert(i);
    }
    let mut rows: Vec<String> = vec![String::new(); order.len()];
    let mut rest = &bytes[..];
    let mut errors = 0usize;
    while !rest.is_empty() {
        let (frame, used) = match Frame::from_bytes(rest) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("clr-serve: {input}: {e}");
                return ExitCode::from(2);
            }
        };
        rest = &rest[used..];
        match frame {
            Frame::Response(r) => {
                let Some(&idx) = slot.get(r.tenant.as_str()) else {
                    eprintln!(
                        "clr-serve: {input}: response for tenant {:?} not in --tenants",
                        r.tenant
                    );
                    return ExitCode::from(2);
                };
                r.decision.write_csv_row(&r.tenant, &mut rows[idx]);
                rows[idx].push('\n');
            }
            Frame::Error(e) => {
                eprintln!(
                    "clr-serve: warning: error frame seq {}: {}",
                    e.seq, e.message
                );
                errors += 1;
            }
            Frame::SwapDbResponse(r) => {
                // Valid daemon output in a mixed stream; surfaced on
                // stderr so the CSV stays byte-comparable.
                eprintln!(
                    "clr-serve: note: swap response seq {} tenant {}: {} (gen {})",
                    r.seq,
                    r.tenant,
                    r.status.label(),
                    r.generation
                );
            }
            Frame::PromoteResponse(r) => {
                eprintln!(
                    "clr-serve: note: promote response seq {} tenant {}: {} ({} promotions)",
                    r.seq,
                    r.tenant,
                    r.status.label(),
                    r.promotions
                );
            }
            // A stats response is valid daemon output in a mixed
            // stream; the CSV only wants decisions.
            Frame::Shutdown | Frame::StatsResponse(_) => {}
            Frame::Request(_) | Frame::Stats(_) | Frame::SwapDb(_) | Frame::Promote(_) => {
                eprintln!("clr-serve: {input}: request-side frame in a response stream");
                return ExitCode::from(2);
            }
        }
    }
    let mut stdout = std::io::stdout().lock();
    let written = writeln!(stdout, "{DECISIONS_CSV_HEADER}")
        .and_then(|()| rows.iter().try_for_each(|r| stdout.write_all(r.as_bytes())))
        .and_then(|()| stdout.flush());
    if let Err(e) = written {
        eprintln!("clr-serve: cannot write the decision CSV: {e}");
        return ExitCode::from(2);
    }
    if errors > 0 {
        eprintln!("clr-serve: warning: {errors} requests were rejected by the daemon");
    }
    ExitCode::SUCCESS
}

/// Strips a bare `--json` switch (the one valueless flag) before strict
/// flag splitting, returning the remaining args and whether it was set.
fn take_json_switch(args: &[String]) -> (Vec<String>, bool) {
    let mut json = false;
    let rest = args
        .iter()
        .filter(|a| {
            if a.as_str() == "--json" {
                json = true;
                false
            } else {
                true
            }
        })
        .cloned()
        .collect();
    (rest, json)
}

/// Pulls the telemetry snapshot out of a `CLRWIRE1` response stream:
/// the first stats-response frame wins; error frames are surfaced.
fn snapshot_from_frames(path: &str) -> Result<TelemetrySnapshot, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut rest = &bytes[..];
    while !rest.is_empty() {
        let (frame, used) = Frame::from_bytes(rest).map_err(|e| format!("{path}: {e}"))?;
        rest = &rest[used..];
        match frame {
            Frame::StatsResponse(r) => {
                return TelemetrySnapshot::from_json(&r.snapshot)
                    .map_err(|e| format!("{path}: stats response seq {}: {e}", r.seq));
            }
            Frame::Error(e) => {
                eprintln!(
                    "clr-serve: warning: error frame seq {}: {}",
                    e.seq, e.message
                );
            }
            _ => {}
        }
    }
    Err(format!("{path}: no stats response frame in the stream"))
}

/// Loads a snapshot from whichever source flag is present.
fn load_snapshot(flags: &[(&str, &str)]) -> Result<TelemetrySnapshot, String> {
    match (
        flag(flags, "in"),
        flag(flags, "snapshot"),
        flag(flags, "journal"),
    ) {
        (Some(path), None, None) => snapshot_from_frames(path),
        (None, Some(path), None) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            TelemetrySnapshot::from_json(&text).map_err(|e| format!("{path}: {e}"))
        }
        (None, None, Some(path)) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            telemetry_from_journal(&text).map_err(|e| format!("{path}: {e}"))
        }
        _ => Err("exactly one snapshot source is required".into()),
    }
}

/// `stats`: encode a stats-query frame, or render a fleet snapshot from
/// a response stream / saved snapshot line.
fn cmd_stats(args: &[String]) -> ExitCode {
    let (args, json) = take_json_switch(args);
    let allowed = ["request-out", "tenant", "flight", "seq", "in", "snapshot"];
    let (positional, flags) = match split_flags(&args, &allowed) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    if !positional.is_empty() {
        return usage_error("stats takes flags only");
    }
    if let Some(out) = flag(&flags, "request-out") {
        if flag(&flags, "in").is_some() || flag(&flags, "snapshot").is_some() {
            return usage_error("--request-out excludes --in and --snapshot");
        }
        return write_request(out, &flags, "stats", |seq| {
            let flight = match flag(&flags, "flight").unwrap_or("false") {
                "true" => true,
                "false" => false,
                other => return Err(format!("bad --flight {other:?} (true or false)")),
            };
            Ok(Frame::Stats(StatsRequest {
                seq,
                version: STATS_VERSION,
                flight,
                tenant: flag(&flags, "tenant").map(str::to_string),
            }))
        });
    }
    let snapshot = match load_snapshot(&flags) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("clr-serve: {e}");
            return ExitCode::from(2);
        }
    };
    if json {
        println!("{}", snapshot.to_json());
    } else {
        print!("{}", render_prometheus(&snapshot));
    }
    ExitCode::SUCCESS
}

/// `swap-db`: encode a `CLRWIRE1` live database-swap request frame
/// (splice it into a request stream between decision requests; the
/// daemon applies it between batches and answers in stream position).
fn cmd_swap_db(args: &[String]) -> ExitCode {
    let allowed = ["request-out", "tenant", "path", "expect", "seq"];
    let (positional, flags) = match split_flags(args, &allowed) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    if !positional.is_empty() {
        return usage_error("swap-db takes flags only");
    }
    let (Some(out), Some(tenant), Some(path)) = (
        flag(&flags, "request-out"),
        flag(&flags, "tenant"),
        flag(&flags, "path"),
    ) else {
        return usage_error("swap-db needs --request-out FILE, --tenant NAME and --path SNAP");
    };
    write_request(out, &flags, "swap-db", |seq| {
        let expected_generation = flag(&flags, "expect")
            .map(str::parse)
            .transpose()
            .map_err(|_| "bad --expect (a generation number)".to_string())?;
        Ok(Frame::SwapDb(SwapDbRequest {
            seq,
            tenant: tenant.to_string(),
            expected_generation,
            path: path.to_string(),
        }))
    })
}

/// `promote`: encode a `CLRWIRE1` shadow→live promotion request frame
/// (splice it into a request stream; the daemon applies it between
/// batches — the A/B rollout's "ship it" step).
fn cmd_promote(args: &[String]) -> ExitCode {
    let allowed = ["request-out", "tenant", "seq"];
    let (positional, flags) = match split_flags(args, &allowed) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    if !positional.is_empty() {
        return usage_error("promote takes flags only");
    }
    let (Some(out), Some(tenant)) = (flag(&flags, "request-out"), flag(&flags, "tenant")) else {
        return usage_error("promote needs --request-out FILE and --tenant NAME");
    };
    write_request(out, &flags, "promote", |seq| {
        Ok(Frame::Promote(PromoteRequest {
            seq,
            tenant: tenant.to_string(),
        }))
    })
}

/// Writes one control request frame to `out` for the `stats`,
/// `swap-db` and `promote` subcommands: checks the shared `--tenant`
/// (a plain name) and `--seq` (default 1) flags, then lets `build` fill
/// in the frame; a `build` error is a usage error.
fn write_request(
    out: &str,
    flags: &[(&str, &str)],
    what: &str,
    build: impl FnOnce(u64) -> Result<Frame, String>,
) -> ExitCode {
    if let Some(name) = flag(flags, "tenant").filter(|name| !is_plain_name(name)) {
        return usage_error(&format!("bad --tenant {name:?} (a plain name)"));
    }
    let Ok(seq) = flag(flags, "seq").map_or(Ok(1), str::parse) else {
        return usage_error("bad --seq");
    };
    let bytes = match build(seq) {
        Ok(frame) => frame.to_bytes(),
        Err(e) => return usage_error(&e),
    };
    if let Err(e) = std::fs::write(out, &bytes) {
        eprintln!("clr-serve: cannot write {out}: {e}");
        return ExitCode::from(2);
    }
    eprintln!(
        "wrote {out}: 1 {what} request frame ({} bytes)",
        bytes.len()
    );
    ExitCode::SUCCESS
}

/// `ab`: the A/B rollout report refolded from a replay journal —
/// per-tenant regret lines, per-arm aggregates and the promotion
/// verdict.
fn cmd_ab(args: &[String]) -> ExitCode {
    let (positional, flags) = match split_flags(args, &["journal"]) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    if !positional.is_empty() {
        return usage_error("ab takes flags only");
    }
    let Some(path) = flag(&flags, "journal") else {
        return usage_error("ab needs --journal FILE");
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("clr-serve: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let lines = match ab_report_from_journal(&text) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("clr-serve: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    if lines.is_empty() {
        eprintln!("clr-serve: {path}: no shadow events (no tenant ran an aura+learn policy)");
        return ExitCode::from(1);
    }
    for line in lines {
        println!("{line}");
    }
    ExitCode::SUCCESS
}

/// `top`: the fleet health table — one row per tenant, worst p99 slack
/// first (least headroom at the tail), fault-rate desc as tie-break.
fn cmd_top(args: &[String]) -> ExitCode {
    let (args, json) = take_json_switch(args);
    if json {
        return usage_error("top renders a table; use stats --json for the raw snapshot");
    }
    let allowed = ["in", "snapshot", "journal", "limit"];
    let (positional, flags) = match split_flags(&args, &allowed) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    if !positional.is_empty() {
        return usage_error("top takes flags only");
    }
    let limit: usize = match flag(&flags, "limit").map_or(Ok(usize::MAX), str::parse) {
        Ok(0) | Err(_) => return usage_error("bad --limit (a positive integer)"),
        Ok(n) => n,
    };
    let snapshot = match load_snapshot(&flags) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("clr-serve: {e}");
            return ExitCode::from(2);
        }
    };
    let mut rows: Vec<&clr_obs::TenantTelemetry> = snapshot.tenants.iter().collect();
    rows.sort_by(|a, b| {
        let p99 = |t: &clr_obs::TenantTelemetry| {
            t.histogram("slack")
                .and_then(clr_obs::QuantileHistogram::p99)
                .unwrap_or(f64::INFINITY)
        };
        let faults = |t: &clr_obs::TenantTelemetry| t.window_mean("fault_rate").unwrap_or(0.0);
        p99(a)
            .total_cmp(&p99(b))
            .then(faults(b).total_cmp(&faults(a)))
            .then_with(|| a.name.cmp(&b.name))
    });
    let fmt_q = |q: Option<f64>| q.map_or("-".to_string(), |v| format!("{v:.2}"));
    let fmt_rate = |r: Option<f64>| r.map_or("-".to_string(), |v| format!("{v:.3}"));
    println!(
        "{:<12} {:<12} {:>4} {:>8} {:>8} {:>10} {:>10} {:>8} {:>8} {:>5}  DWELL",
        "TENANT",
        "STATUS",
        "GEN",
        "EVENTS",
        "SERVED",
        "SLACK-P50",
        "SLACK-P99",
        "FAULT/W",
        "VIOL/W",
        "QUAR"
    );
    for t in rows.iter().take(limit) {
        let slack = t.histogram("slack");
        let dwell: Vec<String> = t
            .counters
            .iter()
            .filter(|(name, v)| name.starts_with("dwell.") && *v > 0)
            .map(|(name, v)| format!("{} {v}", &name["dwell.".len()..]))
            .collect();
        println!(
            "{:<12} {:<12} {:>4} {:>8} {:>8} {:>10} {:>10} {:>8} {:>8} {:>5}  {}",
            t.name,
            t.status,
            t.generation,
            t.events,
            t.counter("served").unwrap_or(0),
            fmt_q(slack.and_then(clr_obs::QuantileHistogram::p50)),
            fmt_q(slack.and_then(clr_obs::QuantileHistogram::p99)),
            fmt_rate(t.window_mean("fault_rate")),
            fmt_rate(t.window_mean("violation_rate")),
            t.counter("quarantine.entries").unwrap_or(0),
            dwell.join(", ")
        );
    }
    if snapshot.tenants.len() > limit {
        eprintln!(
            "clr-serve: {} of {} tenants shown (--limit {limit})",
            limit,
            snapshot.tenants.len()
        );
    }
    if !snapshot.dropped.is_empty() {
        let total: u64 = snapshot.dropped.iter().map(|(_, n)| n).sum();
        eprintln!("clr-serve: warning: {total} events dropped for unknown tenants");
    }
    ExitCode::SUCCESS
}
