//! The end-to-end serving path: seat a fleet the way `clr-served` does at
//! startup, push a pre-encoded CLRWIRE1 stream through `serve_stream`
//! one window at a time, then drain the way `clr-served --obs-dir
//! --learn-dir` does at exit. Output checks run after the timed section.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use clr_core::obs::{Obs, ObsMode};
use clr_core::serve::wire::{Frame, PromoteStatus, Response};
use clr_core::serve::{
    replay, serve_stream, DaemonConfig, DecisionRecord, PromoteRecord, ReplayConfig, ReplayReport,
    Snapshot, SwapRecord, Tenant, TenantOutcome, TenantSession, Trace, TraceEvent,
};
use clr_learn::ShadowRecord;

use crate::inputs::{Cycle, Fleet, Stream, WINDOW};
use crate::Tally;

/// The daemon configuration every workload serves under: one worker,
/// whatever `CLR_THREADS` says, and `clr-served`'s default batch.
pub fn daemon_config(learn_dir: Option<PathBuf>) -> DaemonConfig {
    DaemonConfig {
        batch: WINDOW,
        replay: ReplayConfig {
            threads: 1,
            ..ReplayConfig::default()
        },
        learn_dir,
    }
}

/// Decodes a fleet's snapshots into tenants (`clr-served --tenant`).
pub fn tenants_of(fleet: &Fleet) -> Result<Vec<Tenant>, String> {
    fleet
        .names
        .iter()
        .zip(&fleet.snapshots)
        .zip(&fleet.policies)
        .map(|((name, bytes), policy)| {
            let snapshot = Snapshot::from_bytes(bytes).map_err(|e| format!("{name}: {e}"))?;
            Tenant::from_snapshot(name.clone(), &snapshot, *policy)
                .map_err(|e| format!("{name}: {e}"))
        })
        .collect()
}

/// Stamps the first read after each flush: the moment a window arrives.
struct StampReader<'a> {
    data: &'a [u8],
    armed: &'a Cell<bool>,
    starts: Vec<Instant>,
}

impl Read for StampReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.armed.replace(false) {
            self.starts.push(Instant::now());
        }
        let n = buf.len().min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// Keeps the response bytes and stamps each flush: the moment a window
/// is answered and the closed-loop client may send the next one.
struct StampWriter<'a> {
    buf: &'a mut Vec<u8>,
    armed: &'a Cell<bool>,
    flushes: Vec<Instant>,
}

impl Write for StampWriter<'_> {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.flushes.push(Instant::now());
        self.armed.set(true);
        Ok(())
    }
}

/// Upper bound of the response bytes a stream can produce, so the
/// response buffer is allocated (and made resident) before timing.
pub fn output_capacity(stream: &Stream) -> usize {
    let longest = stream
        .requests
        .iter()
        .map(|r| r.tenant.len())
        .max()
        .unwrap_or(0);
    let worst = Frame::Response(Response {
        seq: u64::MAX,
        tenant: "x".repeat(longest),
        decision: DecisionRecord {
            event: usize::MAX,
            time: 1.0,
            spec: clr_core::dse::QosSpec::new(1.0, 0.5),
            feasible: usize::MAX,
            from: usize::MAX,
            to: usize::MAX,
            drc: 1.0,
            score: Some(1.0),
            p_rc: Some(0.5),
            violated: true,
            status: clr_core::serve::ServeStatus::DegradedBaseline,
            fault: Some(clr_core::serve::FaultKind::BudgetExhausted),
        },
    })
    .to_bytes()
    .len();
    stream.requests.len() * worst + stream.controls() * 64 * 1024 + 4096
}

/// A response buffer whose pages are already resident.
pub fn resident_buffer(capacity: usize) -> Vec<u8> {
    let mut buf = vec![1u8; capacity];
    buf.clear();
    buf
}

/// What one served-and-drained round produced.
pub struct Round {
    /// Wall time from the first read to the last flush.
    pub serve_s: f64,
    /// Wall time from the last flush to the rendered journal and CSV.
    pub drain_s: f64,
    /// Round-trip time of each request window (control frames are
    /// cycles of their own and stay out of this sample).
    pub windows_us: Vec<f64>,
    pub served: usize,
    pub rejected: usize,
    pub batches: usize,
    pub report: ReplayReport,
    pub journal: String,
    pub csv: String,
    /// `(tenant, CLRLRN1 bytes)` of every learning tenant.
    pub checkpoints: Vec<(String, Vec<u8>)>,
}

/// Serves `stream` once through `serve_stream` over in-memory bytes
/// and drains it.
pub fn serve_round(
    tenants: &[Tenant],
    stream: &Stream,
    out: &mut Vec<u8>,
    learn_dir: Option<&Path>,
) -> Result<Round, String> {
    out.clear();
    if let Some(dir) = learn_dir {
        // A fresh directory: every round starts cold, like the first.
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
    }
    let config = daemon_config(learn_dir.map(Path::to_path_buf));
    let armed = Cell::new(true);
    let mut reader = StampReader {
        data: &stream.bytes,
        armed: &armed,
        starts: Vec::with_capacity(stream.cycles.len() + 1),
    };
    let mut writer = StampWriter {
        buf: out,
        armed: &armed,
        flushes: Vec::with_capacity(stream.cycles.len() + 1),
    };
    let report = serve_stream(tenants, &mut reader, &mut writer, &config)
        .map_err(|e| format!("serve_stream: {e}"))?;
    let dropped: Vec<(String, usize)> = report
        .dropped_by_tenant
        .iter()
        .map(|(name, n)| (name.clone(), usize::try_from(*n).unwrap_or(usize::MAX)))
        .collect();
    let replayed = ReplayReport::from_parts(report.outcomes, dropped);
    let obs = Obs::new(ObsMode::Json);
    replayed.emit_obs(&obs);
    let journal = obs.render_det_jsonl();
    let csv = replayed.decisions_csv();
    let drained = Instant::now();

    let (starts, flushes) = (reader.starts, writer.flushes);
    if starts.len() != stream.cycles.len() + 1 || flushes.len() != starts.len() {
        return Err(format!(
            "{} admission cycles read and {} flushed, stream has {}",
            starts.len(),
            flushes.len(),
            stream.cycles.len() + 1
        ));
    }
    let last_flush = *flushes.last().expect("at least the shutdown cycle");
    let windows_us: Vec<f64> = stream
        .cycles
        .iter()
        .enumerate()
        .filter(|(_, c)| matches!(c, Cycle::Window(_)))
        .map(|(i, _)| flushes[i].duration_since(starts[i]).as_secs_f64() * 1e6)
        .collect();
    let mut checkpoints = Vec::new();
    if let Some(dir) = learn_dir {
        for (tenant, outcome) in tenants.iter().zip(replayed.outcomes()) {
            if outcome.learn.is_some() {
                let path = dir.join(format!("{}.learn", tenant.name()));
                let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
                checkpoints.push((tenant.name().to_string(), bytes));
            }
        }
    }
    Ok(Round {
        serve_s: last_flush.duration_since(starts[0]).as_secs_f64(),
        drain_s: drained.duration_since(last_flush).as_secs_f64(),
        windows_us,
        served: report.served,
        rejected: report.rejected,
        batches: report.batches,
        report: replayed,
        journal,
        csv,
        checkpoints,
    })
}

/// Bytes the drained outcomes retain: decision, shadow, promote and swap
/// records times their sizes.
pub fn retained_bytes(outcomes: &[TenantOutcome]) -> usize {
    outcomes
        .iter()
        .map(|o| {
            o.decisions.len() * std::mem::size_of::<DecisionRecord>()
                + o.shadows.len() * std::mem::size_of::<ShadowRecord>()
                + o.promotes.len() * std::mem::size_of::<PromoteRecord>()
                + o.swaps.len() * std::mem::size_of::<SwapRecord>()
        })
        .sum()
}

/// FNV-1a 64 of a byte string (output fingerprints for the
/// round-to-round and run-to-run count checks).
pub fn fingerprint(bytes: &[u8]) -> u64 {
    clr_core::serve::fnv1a64(bytes)
}

/// The counts of one round that must repeat exactly for one seed.
pub fn round_counts(round: &Round, stream: &Stream, out: &[u8]) -> BTreeMap<String, u64> {
    let outcomes = round.report.outcomes();
    let mut c = BTreeMap::new();
    let mut put = |k: &str, v: u64| {
        c.insert(k.to_string(), v);
    };
    put("served", round.served as u64);
    put("rejected", round.rejected as u64);
    put("batches", round.batches as u64);
    put("bytes_in", stream.bytes.len() as u64);
    put("bytes_out", out.len() as u64);
    put("journal_bytes", round.journal.len() as u64);
    put("csv_bytes", round.csv.len() as u64);
    put("retained_bytes", retained_bytes(outcomes) as u64);
    put(
        "reconfigurations",
        outcomes.iter().map(|o| o.reconfigurations as u64).sum(),
    );
    put(
        "violations",
        outcomes.iter().map(|o| o.violations as u64).sum(),
    );
    put(
        "feasible_sum",
        outcomes
            .iter()
            .flat_map(|o| &o.decisions)
            .map(|d| d.feasible as u64)
            .sum(),
    );
    put(
        "shadows",
        outcomes.iter().map(|o| o.shadows.len() as u64).sum(),
    );
    let learn = outcomes.iter().filter_map(|o| o.learn.as_ref());
    let (mut hits, mut misses, mut promotions) = (0, 0, 0);
    for l in learn {
        hits += l.prefetch_hits;
        misses += l.prefetch_misses;
        promotions += l.promotions;
    }
    put("prefetch_hits", hits);
    put("prefetch_misses", misses);
    put("promotions", promotions);
    put("output_fnv", fingerprint(out));
    put("journal_fnv", fingerprint(round.journal.as_bytes()));
    put("csv_fnv", fingerprint(round.csv.as_bytes()));
    let mut ckpt = Vec::new();
    for (name, bytes) in &round.checkpoints {
        ckpt.extend_from_slice(name.as_bytes());
        ckpt.extend_from_slice(bytes);
    }
    put("checkpoint_bytes", ckpt.len() as u64);
    put("checkpoint_fnv", fingerprint(&ckpt));
    c
}

/// The reference decisions of a stream, by batch replay: `clr_serve::replay`
/// when the stream has no promotions, otherwise fresh `TenantSession`s fed
/// in stream order with each `Promote` applied at its position (the loop
/// `replay` itself runs). Returns one record per request, in stream order.
pub fn reference_decisions(
    tenants: &[Tenant],
    stream: &Stream,
) -> Result<(Vec<DecisionRecord>, Vec<TenantOutcome>), String> {
    let config = daemon_config(None).replay;
    let promotes = stream.cycles.iter().any(|c| matches!(c, Cycle::Promote(_)));
    let outcomes: Vec<TenantOutcome> = if promotes {
        let mut sessions: Vec<TenantSession<'_>> = tenants
            .iter()
            .enumerate()
            .map(|(i, t)| TenantSession::new(t, i, &config))
            .collect();
        let index: BTreeMap<&str, usize> = tenants
            .iter()
            .enumerate()
            .map(|(i, t)| (t.name(), i))
            .collect();
        for cycle in &stream.cycles {
            match cycle {
                Cycle::Window(range) => {
                    for (r, &t) in stream.requests[range.clone()]
                        .iter()
                        .zip(&stream.tenant_of[range.clone()])
                    {
                        sessions[t].feed_at(r.time, r.spec);
                    }
                }
                Cycle::Promote(p) => {
                    let t = *index
                        .get(p.tenant.as_str())
                        .ok_or_else(|| format!("promote for unknown tenant {}", p.tenant))?;
                    sessions[t].promote();
                }
                Cycle::Stats(_) => {}
            }
        }
        sessions
            .into_iter()
            .map(TenantSession::into_outcome)
            .collect()
    } else {
        let trace = Trace::new(
            stream
                .requests
                .iter()
                .map(|r| TraceEvent {
                    tenant: r.tenant.clone(),
                    time: r.time,
                    spec: r.spec,
                })
                .collect(),
        );
        replay(tenants, &trace, &config)
            .map_err(|e| format!("replay: {e}"))?
            .outcomes()
            .to_vec()
    };
    let mut cursor = vec![0usize; tenants.len()];
    let mut decisions = Vec::with_capacity(stream.requests.len());
    for &t in &stream.tenant_of {
        let d = outcomes[t]
            .decisions
            .get(cursor[t])
            .ok_or_else(|| format!("reference replay is short for tenant {t}"))?;
        decisions.push(d.clone());
        cursor[t] += 1;
    }
    Ok((decisions, outcomes))
}

/// Checks the served bytes against the reference decisions: one response
/// per request echoing its `seq` and tenant, byte-identical to the frame
/// a batch replay implies, and every control frame answered without an
/// error. Each miss is one failed operation.
pub fn check_responses(
    stream: &Stream,
    out: &[u8],
    expected: &[DecisionRecord],
    tally: &mut Tally,
) {
    let mut pos = 0usize;
    let mut next = |tally: &mut Tally, what: &str| -> Option<(Frame, std::ops::Range<usize>)> {
        match Frame::from_bytes(&out[pos..]) {
            Ok((frame, used)) => {
                let range = pos..pos + used;
                pos += used;
                Some((frame, range))
            }
            Err(e) => {
                tally.fail(format!(
                    "{what}: response stream undecodable at byte {pos}: {e}"
                ));
                None
            }
        }
    };
    for cycle in &stream.cycles {
        match cycle {
            Cycle::Window(range) => {
                for k in range.clone() {
                    let request = &stream.requests[k];
                    tally.attempt();
                    let Some((_, bytes)) = next(tally, "request") else {
                        return;
                    };
                    let want = Frame::Response(Response {
                        seq: request.seq,
                        tenant: request.tenant.clone(),
                        decision: expected[k].clone(),
                    })
                    .to_bytes();
                    if out[bytes] != want[..] {
                        tally.fail(format!(
                            "request seq {} ({}): response differs from batch replay",
                            request.seq, request.tenant
                        ));
                    }
                }
            }
            Cycle::Stats(q) => {
                tally.attempt();
                let Some((frame, _)) = next(tally, "stats") else {
                    return;
                };
                match frame {
                    Frame::StatsResponse(r) if r.seq == q.seq => {}
                    other => tally.fail(format!("stats seq {}: answered {other:?}", q.seq)),
                }
            }
            Cycle::Promote(p) => {
                tally.attempt();
                let Some((frame, _)) = next(tally, "promote") else {
                    return;
                };
                match frame {
                    Frame::PromoteResponse(r)
                        if r.seq == p.seq
                            && r.tenant == p.tenant
                            && r.status == PromoteStatus::Promoted => {}
                    other => tally.fail(format!("promote seq {}: answered {other:?}", p.seq)),
                }
            }
        }
    }
    if pos != out.len() {
        tally.fail(format!(
            "{} unexpected bytes after the last response",
            out.len() - pos
        ));
    }
}

/// The drained artifacts pass the journal, shadow-journal and
/// checkpoint lints.
pub fn check_drain(round: &Round, tally: &mut Tally) {
    tally.attempt();
    let report = clr_verify::check_journal(&round.journal, "served.obs.jsonl");
    if report.deny_count() > 0 {
        tally.fail(format!("journal lint: {}", report.render_human()));
    }
    tally.attempt();
    let report = clr_verify::check_shadow_journal(&round.journal, "served.obs.jsonl");
    if report.deny_count() > 0 {
        tally.fail(format!("shadow journal lint: {}", report.render_human()));
    }
    for (name, bytes) in &round.checkpoints {
        tally.attempt();
        let report = clr_verify::check_learn_checkpoint(bytes, name);
        if report.deny_count() > 0 {
            tally.fail(format!("checkpoint {name}: {}", report.render_human()));
        }
    }
}
