//! Golden drain bytes: the decision CSV, the deterministic journal and
//! the fleet telemetry snapshot a drain renders from hand-built
//! outcomes that reach every kind of line `emit_obs` writes — decisions
//! with `score`/`p_rc` both present and both absent, non-finite dRC,
//! applied and refused swaps and promotes, shadow evaluations, absorbed
//! faults, degraded and quarantined decisions, a zero-event tenant and
//! dropped unknown tenants — plus a clean fleet whose never-touched
//! `serve.*` counters must stay out of the journal.
//!
//! The journal, CSV and snapshot renderers are checked everywhere else
//! by round trips and cross-thread byte-compares, which a change to the
//! rendered bytes would pass. These lengths and FNV-1a fingerprints were
//! recorded once from the renderers and must never be edited to follow
//! a code change: a diff here is an output-format break.

use clr_dse::QosSpec;
use clr_learn::{ShadowRecord, Table, Variant};
use clr_obs::{Obs, ObsMode};
use clr_serve::wire::{PromoteStatus, SwapStatus};
use clr_serve::{
    fnv1a64, DecisionRecord, FaultKind, HealthState, LearnSummary, PromoteRecord, ReplayReport,
    ServeStatus, SwapRecord, TenantOutcome,
};

#[allow(clippy::too_many_arguments)]
fn decision(
    event: usize,
    time: f64,
    spec: QosSpec,
    (from, to): (usize, usize),
    drc: f64,
    scored: Option<(f64, f64)>,
    violated: bool,
    status: ServeStatus,
    fault: Option<FaultKind>,
) -> DecisionRecord {
    DecisionRecord {
        event,
        time,
        spec,
        feasible: if violated { 0 } else { 5 },
        from,
        to,
        drc,
        score: scored.map(|(s, _)| s),
        p_rc: scored.map(|(_, p)| p),
        violated,
        status,
        fault,
    }
}

fn outcome(name: &str, decisions: Vec<DecisionRecord>) -> TenantOutcome {
    let mut health = HealthState::new();
    for d in &decisions {
        health.observe(d, 100.0);
    }
    let served = decisions.iter().filter(|d| d.status.is_served());
    TenantOutcome {
        name: name.to_string(),
        points: 16,
        events: decisions.len(),
        reconfigurations: served.clone().filter(|d| d.to != d.from).count(),
        violations: decisions.iter().filter(|d| d.violated).count(),
        degraded: decisions.iter().filter(|d| d.status.is_degraded()).count(),
        quarantined: decisions.iter().filter(|d| !d.status.is_served()).count(),
        faults: decisions.iter().filter(|d| d.fault.is_some()).count(),
        total_drc: served.map(|d| d.drc).sum(),
        failure: None,
        generation: 0,
        swaps: Vec::new(),
        decisions,
        shadows: Vec::new(),
        promotes: Vec::new(),
        learn: None,
        health,
    }
}

fn shadow(event: usize, live: (usize, f64), cand: (usize, f64)) -> ShadowRecord {
    ShadowRecord {
        event,
        live_choice: live.0,
        shadow_choice: cand.0,
        live_regret: live.1,
        shadow_regret: cand.1,
        serving: Table::Shadow,
        variant: Variant::Treatment,
    }
}

/// Every line kind the drain writes.
fn full_report() -> ReplayReport {
    let lax = QosSpec::new(1e21, 1e-7);
    let tight = QosSpec::new(120.5, 0.92);
    let impossible = QosSpec::new(0.0, 1.0);
    let n = ServeStatus::Normal;
    let mut cam = outcome(
        "cam",
        vec![
            decision(1, 0.0, lax, (0, 3), 1.75, Some((0.25, 0.5)), false, n, None),
            decision(2, 103.25, tight, (3, 3), 0.0, None, false, n, None),
            decision(3, 110.5, tight, (3, 7), f64::INFINITY, None, false, n, None),
            decision(
                4,
                0.1 + 0.2,
                lax,
                (7, 2),
                f64::NAN,
                Some((-0.0, 1.0)),
                false,
                n,
                None,
            ),
            decision(
                5,
                200.0,
                lax,
                (2, 2),
                0.0,
                None,
                false,
                ServeStatus::DegradedLkg,
                Some(FaultKind::PolicyFailure),
            ),
            decision(
                6,
                210.0,
                tight,
                (2, 9),
                12.5,
                None,
                false,
                ServeStatus::DegradedBaseline,
                Some(FaultKind::BudgetExhausted),
            ),
            decision(
                7,
                220.0,
                impossible,
                (9, 9),
                0.0,
                None,
                true,
                ServeStatus::DegradedHold,
                Some(FaultKind::TransientInfeasible),
            ),
            decision(
                8,
                230.0,
                impossible,
                (9, 9),
                0.0,
                None,
                true,
                ServeStatus::Quarantined,
                None,
            ),
            decision(
                9,
                240.0,
                lax,
                (9, 9),
                0.0,
                None,
                false,
                ServeStatus::Quarantined,
                None,
            ),
        ],
    );
    cam.swaps = vec![
        SwapRecord {
            event: 0,
            from_gen: 0,
            to_gen: 0,
            points: 16,
            status: SwapStatus::VerifyFailed,
        },
        SwapRecord {
            event: 2,
            from_gen: 0,
            to_gen: 1,
            points: 18,
            status: SwapStatus::Swapped,
        },
        SwapRecord {
            event: 9,
            from_gen: 1,
            to_gen: 2,
            points: 18,
            status: SwapStatus::IoError,
        },
    ];
    cam.generation = 1;
    cam.promotes = vec![PromoteRecord {
        event: 3,
        promotions: 0,
        status: PromoteStatus::NoLearner,
    }];

    let mut nav = outcome(
        "nav",
        vec![
            decision(
                1,
                5.0,
                tight,
                (0, 4),
                2.5,
                Some((0.75, 0.5)),
                false,
                n,
                None,
            ),
            decision(
                2,
                15.0,
                tight,
                (4, 4),
                0.0,
                Some((1e21, 0.5)),
                false,
                n,
                None,
            ),
            decision(
                3,
                25.0,
                lax,
                (4, 1),
                1e-7,
                Some((0.125, 0.5)),
                false,
                n,
                None,
            ),
        ],
    );
    nav.shadows = vec![
        shadow(1, (4, 0.0), (4, 0.0)),
        shadow(2, (4, 0.5), (3, 0.25)),
        shadow(3, (1, 1e-7), (2, 1e21)),
    ];
    nav.promotes = vec![
        PromoteRecord {
            event: 1,
            promotions: 1,
            status: PromoteStatus::Promoted,
        },
        PromoteRecord {
            event: 3,
            promotions: 2,
            status: PromoteStatus::Promoted,
        },
    ];
    nav.learn = Some(LearnSummary {
        variant: Variant::Treatment,
        serving: Table::Shadow,
        decisions: 3,
        explored: 0,
        prefetch_hits: 1,
        prefetch_misses: 1,
        prefetch_saved_drc: 2.5,
        cum_live_regret: 0.5 + 1e-7,
        cum_shadow_regret: 0.25 + 1e21,
        promotions: 2,
    });

    let idle = outcome("idle", Vec::new());
    ReplayReport::from_parts(
        vec![cam, nav, idle],
        vec![("gh\"ost\\".to_string(), 3), ("phantom".to_string(), 1)],
    )
}

/// A fleet with nothing to report but clean decisions: no reconfiguration,
/// violation, fault, degradation, quarantine, swap, promote or drop.
fn clean_report() -> ReplayReport {
    let spec = QosSpec::new(300.0, 0.5);
    let n = ServeStatus::Normal;
    ReplayReport::from_parts(
        vec![outcome(
            "solo",
            vec![
                decision(1, 1.0, spec, (0, 0), 0.0, Some((0.5, 0.25)), false, n, None),
                decision(2, 2.0, spec, (0, 0), 0.0, None, false, n, None),
            ],
        )],
        Vec::new(),
    )
}

/// `(length, FNV-1a)` of the drain's CSV, journal and telemetry snapshot.
fn drain(report: &ReplayReport) -> [(usize, u64); 3] {
    let obs = Obs::new(ObsMode::Json);
    report.emit_obs(&obs);
    let pin = |s: &str| (s.len(), fnv1a64(s.as_bytes()));
    [
        pin(&report.decisions_csv()),
        pin(&obs.render_det_jsonl_labeled("served")),
        pin(&report.telemetry("fleet", true).to_json()),
    ]
}

#[test]
fn full_drain_bytes_are_pinned() {
    assert_eq!(
        drain(&full_report()),
        [
            (792, 4166877360558929709),
            (5401, 308507559381289947),
            (3026, 9543947652668660576)
        ]
    );
}

#[test]
fn clean_drain_bytes_are_pinned() {
    assert_eq!(
        drain(&clean_report()),
        [
            (165, 12416198962340536384),
            (667, 16735411581955522773),
            (923, 14918873471318073645)
        ]
    );
}

#[test]
fn clean_drain_touches_only_its_counters() {
    let obs = Obs::new(ObsMode::Json);
    clean_report().emit_obs(&obs);
    let counters: Vec<String> = obs
        .render_det_jsonl_labeled("served")
        .lines()
        .filter(|l| l.contains("\"type\":\"counter\""))
        .map(str::to_string)
        .collect();
    assert_eq!(
        counters,
        ["{\"seq\":6,\"type\":\"counter\",\"name\":\"serve.events\",\"value\":2}"]
    );
}

/// The floats a shortest-digit writer most easily gets wrong: signed
/// zero, the `{}` switch-over magnitudes, the smallest subnormal, the
/// largest finite value and every non-finite value.
const EDGE: [f64; 8] = [
    -0.0,
    1e21,
    1e-7,
    5e-324,
    f64::MAX,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// One tenant whose decisions carry each edge value in every float
/// field (time, both spec bounds, dRC, score, `p_rc`), once with
/// `score`/`p_rc` present and once absent.
fn edge_report(values: &[f64]) -> ReplayReport {
    let n = ServeStatus::Normal;
    let decisions = values
        .iter()
        .enumerate()
        .flat_map(|(i, &v)| {
            let spec = QosSpec::new(v, v);
            [
                decision(2 * i + 1, v, spec, (0, 1), v, Some((v, v)), false, n, None),
                decision(2 * i + 2, v, spec, (1, 1), v, None, true, n, None),
            ]
        })
        .collect();
    ReplayReport::from_parts(vec![outcome("edge", decisions)], Vec::new())
}

#[test]
fn edge_float_csv_is_pinned() {
    let short = [-0.0, 1e21, 1e-7, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    assert_eq!(
        edge_report(&short).decisions_csv(),
        concat!(
            "tenant,event,time,s_max,f_min,feasible,from,to,drc,score,p_rc,violated,status\n",
            "edge,1,-0,-0,-0,5,0,1,-0,-0,-0,false,normal\n",
            "edge,2,-0,-0,-0,0,1,1,-0,,,true,normal\n",
            "edge,3,1000000000000000000000,1000000000000000000000,1000000000000000000000,5,0,1,1000000000000000000000,1000000000000000000000,1000000000000000000000,false,normal\n",
            "edge,4,1000000000000000000000,1000000000000000000000,1000000000000000000000,0,1,1,1000000000000000000000,,,true,normal\n",
            "edge,5,0.0000001,0.0000001,0.0000001,5,0,1,0.0000001,0.0000001,0.0000001,false,normal\n",
            "edge,6,0.0000001,0.0000001,0.0000001,0,1,1,0.0000001,,,true,normal\n",
            "edge,7,NaN,NaN,NaN,5,0,1,NaN,NaN,NaN,false,normal\n",
            "edge,8,NaN,NaN,NaN,0,1,1,NaN,,,true,normal\n",
            "edge,9,inf,inf,inf,5,0,1,inf,inf,inf,false,normal\n",
            "edge,10,inf,inf,inf,0,1,1,inf,,,true,normal\n",
            "edge,11,-inf,-inf,-inf,5,0,1,-inf,-inf,-inf,false,normal\n",
            "edge,12,-inf,-inf,-inf,0,1,1,-inf,,,true,normal\n",
        )
    );
}

#[test]
fn edge_float_drain_bytes_are_pinned() {
    assert_eq!(
        drain(&edge_report(&EDGE)),
        [
            (7369, 6295782247819960349),
            (6586, 15957657210773190382),
            (8173, 1868934047664476337)
        ]
    );
}
