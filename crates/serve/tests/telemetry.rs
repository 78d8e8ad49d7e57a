//! The live-telemetry contracts, end to end:
//!
//! 1. The schema-2 snapshot codec round-trips **byte-identically** for
//!    arbitrary observed histories (proptest).
//! 2. A `Stats` frame answered mid-stream by [`serve_stream`] yields
//!    the same bytes at `threads = 1` and `threads = 8`, and the
//!    end-of-stream snapshot equals what a batch [`replay`] of the same
//!    trace reports — one shared source for CLI summary, stats wire
//!    response and replay telemetry.
//! 3. Quarantine freezes the flight recorder: the snapshot carries the
//!    tenant's final served approach even when flight was not requested.

use std::sync::OnceLock;

use clr_dse::{DesignPoint, DesignPointDb, PointOrigin, QosSpec};
use clr_platform::Platform;
use clr_sched::{Mapping, SystemMetrics};
use clr_serve::wire::{Frame, Request, StatsRequest};
use clr_serve::{
    fleet_snapshot, generate_trace, replay, serve_stream, DaemonConfig, DecisionRecord, FaultKind,
    HealthState, PolicySpec, ReplayConfig, ServeStatus, Tenant, TraceEvent,
};
use clr_taskgraph::jpeg_encoder;
use proptest::prelude::*;

/// A small synthetic fleet: shared mapped graph, per-tenant metric skew
/// (no DSE run needed).
fn fleet() -> &'static [Tenant] {
    static FLEET: OnceLock<Vec<Tenant>> = OnceLock::new();
    FLEET.get_or_init(|| {
        let graph = jpeg_encoder();
        let platform = Platform::dac19();
        let mapping = Mapping::first_fit(&graph, &platform).expect("jpeg maps onto dac19");
        (0..6)
            .map(|i| {
                let skew = 1.0 + (i % 5) as f64 * 0.07;
                let mut db = DesignPointDb::new("telemetry-test");
                for p in 0..12 {
                    let f = f64::from(p) / 12.0;
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
                Tenant::from_parts(
                    format!("t{i}"),
                    graph.clone(),
                    platform.clone(),
                    db,
                    PolicySpec::Ura { p_rc: 0.5 },
                )
                .expect("synthetic tenants are valid")
            })
            .collect()
    })
}

/// Decodes every frame from a daemon's output stream.
fn decode_frames(mut bytes: &[u8]) -> Vec<Frame> {
    let mut frames = Vec::new();
    while !bytes.is_empty() {
        let (frame, used) = Frame::from_bytes(bytes).expect("daemon output decodes");
        frames.push(frame);
        bytes = &bytes[used..];
    }
    frames
}

/// The snapshot texts carried by the stream's stats responses, in order.
fn stats_texts(frames: &[Frame]) -> Vec<String> {
    frames
        .iter()
        .filter_map(|f| match f {
            Frame::StatsResponse(r) => Some(r.snapshot.clone()),
            _ => None,
        })
        .collect()
}

#[test]
fn stats_snapshots_are_byte_identical_across_thread_counts() {
    let tenants = fleet();
    let trace = generate_trace(tenants, 23, 3_000.0, 100.0);
    // Requests with a mid-stream stats probe and a final one: the
    // mid-stream probe lands at a fixed stream position, so its answer
    // is a pure function of the prefix — whatever the thread count.
    let mut stream = Vec::new();
    let events: Vec<&TraceEvent> = trace.events().iter().collect();
    let mid = events.len() / 2;
    for (i, event) in events.iter().enumerate() {
        if i == mid {
            stream.extend_from_slice(&Frame::Stats(StatsRequest::fleet(90_000, false)).to_bytes());
        }
        stream.extend_from_slice(
            &Frame::Request(Request {
                seq: i as u64 + 1,
                tenant: event.tenant.clone(),
                time: event.time,
                spec: event.spec,
            })
            .to_bytes(),
        );
    }
    stream.extend_from_slice(&Frame::Stats(StatsRequest::fleet(90_001, true)).to_bytes());
    stream.extend_from_slice(&Frame::Shutdown.to_bytes());

    let mut per_threads: Vec<Vec<String>> = Vec::new();
    for threads in [1usize, 8] {
        let config = DaemonConfig {
            replay: ReplayConfig {
                threads,
                ..ReplayConfig::default()
            },
            ..DaemonConfig::default()
        };
        let mut reader = &stream[..];
        let mut out = Vec::new();
        let report =
            serve_stream(tenants, &mut reader, &mut out, &config).expect("stream serves cleanly");
        assert!(report.clean_shutdown);
        assert_eq!(report.stats, 2, "both stats probes answered");
        assert_eq!(report.served, events.len());
        let texts = stats_texts(&decode_frames(&out));
        assert_eq!(texts.len(), 2);
        per_threads.push(texts);
    }
    assert_eq!(
        per_threads[0], per_threads[1],
        "stats snapshots must be byte-identical at threads 1 and 8"
    );

    // The end-of-stream snapshot is the batch replay's telemetry: one
    // shared source behind the CLI summary, replay telemetry and the
    // stats wire response.
    let batch = replay(tenants, &trace, &ReplayConfig::default()).expect("trace replays");
    assert_eq!(
        per_threads[0][1],
        batch.telemetry("fleet", true).to_json(),
        "daemon stats and batch replay report the same fleet snapshot"
    );
}

#[test]
fn quarantine_freezes_the_flight_recorder() {
    let tenants = fleet();
    let tenant = &tenants[0];
    let config = ReplayConfig {
        quarantine_after: 2,
        ..ReplayConfig::default()
    };
    let mut session = clr_serve::TenantSession::new(tenant, 0, &config);
    let ev = |time: f64| TraceEvent {
        tenant: tenant.name().to_string(),
        time,
        spec: QosSpec::new(f64::MAX, 0.0),
    };
    for i in 0..5 {
        session.feed(&ev(f64::from(i) * 10.0));
    }
    // Two malformed timestamps in a row trip the quarantine threshold.
    session.feed(&ev(f64::NAN));
    session.feed(&ev(f64::NAN));
    assert!(session.is_quarantined());
    let frozen_served = session.outcome().health.served;
    for i in 0..4 {
        session.feed(&ev(100.0 + f64::from(i)));
    }
    let outcome = session.outcome();
    assert_eq!(
        outcome.health.served, frozen_served,
        "quarantined events are recorded, never served"
    );
    // Flight rows surface without being requested once quarantined, and
    // the newest row is the last *served* decision, not a quarantined one.
    let t = outcome
        .health
        .telemetry(tenant.name(), outcome.generation, false, &outcome.decisions);
    assert!(!t.flight.is_empty(), "quarantine forces flight rows out");
    let last_served = outcome
        .decisions
        .iter()
        .rev()
        .find(|d| d.status.is_served())
        .expect("five clean events were served");
    assert!(
        t.flight[t.flight.len() - 1].starts_with(&format!(
            "{},{},",
            tenant.name(),
            last_served.event
        )),
        "the flight recorder's newest row is the final served approach"
    );
}

/// Builds a health registry + decision log from generated row seeds:
/// each seed's bits pick the status, violation flag, feasible-set size
/// and a slack value spanning many binary exponents.
fn observed_history(seeds: &[u64]) -> (HealthState, Vec<DecisionRecord>) {
    let mut health = HealthState::new();
    let mut log = Vec::new();
    for (i, &s) in seeds.iter().enumerate() {
        let status = match s % 5 {
            0 => ServeStatus::Normal,
            1 => ServeStatus::DegradedLkg,
            2 => ServeStatus::DegradedBaseline,
            3 => ServeStatus::DegradedHold,
            _ => ServeStatus::Quarantined,
        };
        let fault = match status {
            ServeStatus::Normal | ServeStatus::Quarantined => None,
            _ => Some(FaultKind::ALL[usize::try_from(s >> 3).unwrap_or(0) % FaultKind::ALL.len()]),
        };
        let feasible = usize::try_from((s >> 7) & 0x3ff).unwrap_or(0);
        let d = DecisionRecord {
            event: i + 1,
            time: i as f64,
            spec: QosSpec::new(100.0, 0.5),
            feasible,
            from: usize::try_from(s >> 17).unwrap_or(0) % 7,
            to: feasible % 7,
            drc: 0.0,
            score: None,
            p_rc: None,
            violated: (s >> 6) & 1 == 1,
            status,
            fault,
        };
        let slack = f64::from_bits(s % (1u64 << 62)).abs();
        let slack = if slack.is_finite() { slack } else { 0.0 };
        health.observe(&d, slack);
        log.push(d);
    }
    (health, log)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn snapshot_codec_round_trips_byte_identically(
        rows in collection::vec(0u64..u64::MAX, 0..200),
        shape in 0u64..1_000_000,
    ) {
        // Shape bits: quarantine entries, flight inclusion and the
        // dropped-tenant list all derive from one seed, keeping the
        // macro arity low.
        let (mut health, log) = observed_history(&rows);
        for _ in 0..(shape % 3) {
            health.note_quarantine_entry();
        }
        let include_flight = shape % 2 == 1;
        let dropped: Vec<(String, u64)> = (0..(shape / 3) % 4)
            .map(|i| (format!("ghost{i}"), (shape / 7) % 100 + 1))
            .collect();
        let snap = fleet_snapshot(
            "prop",
            [("cam", shape % 9, &health, log.as_slice())],
            &dropped,
            include_flight,
        );
        let line = snap.to_json();
        let back = clr_obs::TelemetrySnapshot::from_json(&line)
            .expect("self-encoded snapshot decodes");
        prop_assert_eq!(back.to_json(), line, "decode(encode(s)) must re-encode identically");
        prop_assert_eq!(back.schema, 2u64);
        prop_assert_eq!(back.tenants.len(), 1);
        prop_assert_eq!(back.tenants[0].events, rows.len() as u64);
    }
}
