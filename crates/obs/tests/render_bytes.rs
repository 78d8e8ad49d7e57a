//! Golden journal, snapshot and trace bytes: one `to_json_line` per
//! [`Event`] variant, one [`TelemetrySnapshot::to_json`] and one
//! [`Obs::render_chrome`] document, over labels that need every JSON
//! escape (quote, backslash, newline, tab, carriage return, U+0001) and a
//! non-ASCII character, and over the floats whose formatting is easiest
//! to get wrong (NaN, infinity, `-0.0`, `1e21`, `1e-7`).
//!
//! The round-trip tests would pass a symmetric change to encoder and
//! decoder. These strings were recorded once from the renderers and must
//! never be edited to follow a code change: a diff here is a journal,
//! snapshot or trace format break.

use clr_obs::telemetry::{QuantileHistogram, RollingWindow};
use clr_obs::{Event, Obs, ObsMode, TelemetrySnapshot, TenantTelemetry, TELEMETRY_SCHEMA_VERSION};

/// A label that needs every escape the writer knows, plus a non-ASCII
/// character that must pass through unescaped.
const LABEL: &str = "q\"b\\s\u{1}é\n\t\r|";

fn s(text: &str) -> String {
    text.to_string()
}

/// One event per variant, in declaration order.
fn every_variant() -> Vec<Event> {
    vec![
        Event::Meta {
            label: s(LABEL),
            schema: 3,
        },
        Event::GaGen {
            algo: s("hvga"),
            label: s(LABEL),
            gen: 7,
            evals: 24,
            feasible: 20,
            front: 5,
            archive: 6,
            hv: Some(1e21),
        },
        Event::DseStage {
            stage: s(LABEL),
            points: 96,
        },
        Event::RedSeed {
            index: 2,
            candidates: 4,
            kept: 3,
        },
        Event::Episode {
            index: u64::MAX,
            steps: 11,
            ret: -0.0,
        },
        Event::SimStart {
            label: s(LABEL),
            points: 14,
            seed: u64::MAX,
        },
        Event::Decision {
            event: 1,
            cycle: 1e-7,
            feasible: 4,
            from: 0,
            to: 2,
            drc: f64::NAN,
            score: Some(-0.0),
            p_rc: None,
            violated: true,
        },
        Event::SimEnd {
            label: s(LABEL),
            events: 200,
            reconfigurations: 50,
            violations: 2,
            total_drc: f64::INFINITY,
        },
        Event::Inject {
            label: s(LABEL),
            trials: 10_000,
            errors: 12,
            err_prob: 1e-7,
        },
        Event::Fault {
            label: s(LABEL),
            layer: s("decision"),
            kind: s("budget"),
            tenant: s(LABEL),
            event: 17,
            action: s("lkg"),
        },
        Event::DbSwap {
            label: s(LABEL),
            tenant: s("cam"),
            event: 42,
            from_gen: 0,
            to_gen: u64::MAX,
            points: 128,
            status: s("swapped"),
        },
        Event::Shadow {
            label: s(LABEL),
            tenant: s("cam"),
            event: 17,
            variant: s("treatment"),
            serving: s("shadow"),
            live_choice: 2,
            shadow_choice: 3,
            live_regret: 1e21,
            shadow_regret: f64::NAN,
        },
        Event::Promote {
            label: s(LABEL),
            tenant: s("cam"),
            event: 42,
            promotions: 1,
            status: s("promoted"),
        },
        Event::Span {
            label: s(LABEL),
            clock: s("cycle"),
            start: -0.0,
            end: 1e21,
        },
        Event::Counter {
            name: s(LABEL),
            value: u64::MAX,
        },
        Event::Gauge {
            name: s(LABEL),
            value: f64::NEG_INFINITY,
        },
        Event::Histogram {
            name: s(LABEL),
            bounds: vec![-0.0, 1e-7, 0.5, 1e21, f64::NAN],
            counts: vec![5, 0, 3, 2, 1, u64::MAX],
            total: 11,
            min: Some(-0.0),
            max: None,
        },
        Event::Pool {
            site: s(LABEL),
            items: 12,
            workers: 4,
            per_worker: vec![3, 0, 9, u64::MAX],
            queue_hwm: 12,
        },
        Event::Wall {
            label: s(LABEL),
            nanos: 123_456,
        },
    ]
}

const EVERY_VARIANT: [&str; 19] = [
    "{\"seq\":0,\"type\":\"meta\",\"label\":\"q\\\"b\\\\s\\u0001é\\n\\t\\r|\",\"schema\":3}",
    "{\"seq\":1000003,\"type\":\"ga_gen\",\"algo\":\"hvga\",\"label\":\"q\\\"b\\\\s\\u0001é\\n\\t\\r|\",\"gen\":7,\"evals\":24,\"feasible\":20,\"front\":5,\"archive\":6,\"hv\":1000000000000000000000}",
    "{\"seq\":2000006,\"type\":\"dse_stage\",\"stage\":\"q\\\"b\\\\s\\u0001é\\n\\t\\r|\",\"points\":96}",
    "{\"seq\":3000009,\"type\":\"red_seed\",\"index\":2,\"candidates\":4,\"kept\":3}",
    "{\"seq\":4000012,\"type\":\"episode\",\"index\":18446744073709551615,\"steps\":11,\"ret\":-0}",
    "{\"seq\":5000015,\"type\":\"sim_start\",\"label\":\"q\\\"b\\\\s\\u0001é\\n\\t\\r|\",\"points\":14,\"seed\":18446744073709551615}",
    "{\"seq\":6000018,\"type\":\"decision\",\"event\":1,\"cycle\":0.0000001,\"feasible\":4,\"from\":0,\"to\":2,\"drc\":null,\"score\":-0,\"p_rc\":null,\"violated\":true}",
    "{\"seq\":7000021,\"type\":\"sim_end\",\"label\":\"q\\\"b\\\\s\\u0001é\\n\\t\\r|\",\"events\":200,\"reconfigurations\":50,\"violations\":2,\"total_drc\":null}",
    "{\"seq\":8000024,\"type\":\"inject\",\"label\":\"q\\\"b\\\\s\\u0001é\\n\\t\\r|\",\"trials\":10000,\"errors\":12,\"err_prob\":0.0000001}",
    "{\"seq\":9000027,\"type\":\"fault\",\"label\":\"q\\\"b\\\\s\\u0001é\\n\\t\\r|\",\"layer\":\"decision\",\"kind\":\"budget\",\"tenant\":\"q\\\"b\\\\s\\u0001é\\n\\t\\r|\",\"event\":17,\"action\":\"lkg\"}",
    "{\"seq\":10000030,\"type\":\"db_swap\",\"label\":\"q\\\"b\\\\s\\u0001é\\n\\t\\r|\",\"tenant\":\"cam\",\"event\":42,\"from_gen\":0,\"to_gen\":18446744073709551615,\"points\":128,\"status\":\"swapped\"}",
    "{\"seq\":11000033,\"type\":\"shadow\",\"label\":\"q\\\"b\\\\s\\u0001é\\n\\t\\r|\",\"tenant\":\"cam\",\"event\":17,\"variant\":\"treatment\",\"serving\":\"shadow\",\"live_choice\":2,\"shadow_choice\":3,\"live_regret\":1000000000000000000000,\"shadow_regret\":null}",
    "{\"seq\":12000036,\"type\":\"promote\",\"label\":\"q\\\"b\\\\s\\u0001é\\n\\t\\r|\",\"tenant\":\"cam\",\"event\":42,\"promotions\":1,\"status\":\"promoted\"}",
    "{\"seq\":13000039,\"type\":\"span\",\"label\":\"q\\\"b\\\\s\\u0001é\\n\\t\\r|\",\"clock\":\"cycle\",\"start\":-0,\"end\":1000000000000000000000}",
    "{\"seq\":14000042,\"type\":\"counter\",\"name\":\"q\\\"b\\\\s\\u0001é\\n\\t\\r|\",\"value\":18446744073709551615}",
    "{\"seq\":15000045,\"type\":\"gauge\",\"name\":\"q\\\"b\\\\s\\u0001é\\n\\t\\r|\",\"value\":null}",
    "{\"seq\":16000048,\"type\":\"histogram\",\"name\":\"q\\\"b\\\\s\\u0001é\\n\\t\\r|\",\"bounds\":[-0,0.0000001,0.5,1000000000000000000000,null],\"counts\":[5,0,3,2,1,18446744073709551615],\"total\":11,\"min\":-0,\"max\":null}",
    "{\"seq\":17000051,\"type\":\"pool\",\"site\":\"q\\\"b\\\\s\\u0001é\\n\\t\\r|\",\"items\":12,\"workers\":4,\"per_worker\":[3,0,9,18446744073709551615],\"queue_hwm\":12}",
    "{\"seq\":18000054,\"type\":\"wall\",\"label\":\"q\\\"b\\\\s\\u0001é\\n\\t\\r|\",\"nanos\":123456}",
];

#[test]
fn every_variant_renders_its_pinned_line() {
    let events = every_variant();
    assert_eq!(events.len(), EVERY_VARIANT.len());
    for (seq, (event, want)) in events.iter().zip(EVERY_VARIANT).enumerate() {
        let seq = u64::try_from(seq).unwrap() * 1_000_003;
        assert_eq!(event.to_json_line(seq), want, "{}", event.type_tag());
    }
}

fn snapshot() -> TelemetrySnapshot {
    let mut slack = QuantileHistogram::new();
    for v in [1e-7, 0.25, 4.0, 4.5, 1e21, -0.0, f64::NAN] {
        slack.record(v);
    }
    let mut rate = RollingWindow::new(4);
    for v in [1.0, 0.1, 0.2, 1e-7, 1e21] {
        rate.push(v);
    }
    TelemetrySnapshot {
        schema: TELEMETRY_SCHEMA_VERSION,
        label: s(LABEL),
        events: 7,
        dropped: vec![(s(LABEL), 2), (s("zz"), u64::MAX)],
        tenants: vec![
            TenantTelemetry {
                name: s(LABEL),
                events: 7,
                status: s("lkg"),
                generation: 3,
                counters: vec![(s("decisions"), 7), (s(LABEL), 0)],
                windows: vec![(s("fault_rate"), rate.stat()), (s(LABEL), rate.stat())],
                histograms: vec![(s("empty"), QuantileHistogram::new()), (s("slack"), slack)],
                flight: vec![s("cam,1,0,1e21,,,false,normal"), s(LABEL)],
            },
            TenantTelemetry {
                name: s("bare"),
                events: 0,
                status: s("normal"),
                generation: 0,
                counters: Vec::new(),
                windows: Vec::new(),
                histograms: Vec::new(),
                flight: Vec::new(),
            },
        ],
    }
}

const SNAPSHOT: &str = "{\"schema\":2,\"label\":\"q\\\"b\\\\s\\u0001é\\n\\t\\r|\",\"events\":7,\"dropped\":[[\"q\\\"b\\\\s\\u0001é\\n\\t\\r|\",2],[\"zz\",18446744073709551615]],\"tenants\":[{\"name\":\"q\\\"b\\\\s\\u0001é\\n\\t\\r|\",\"events\":7,\"status\":\"lkg\",\"generation\":3,\"counters\":[[\"decisions\",7],[\"q\\\"b\\\\s\\u0001é\\n\\t\\r|\",0]],\"windows\":[[\"fault_rate\",{\"window\":4,\"index\":5,\"len\":4,\"sum\":1000000000000000000000}],[\"q\\\"b\\\\s\\u0001é\\n\\t\\r|\",{\"window\":4,\"index\":5,\"len\":4,\"sum\":1000000000000000000000}]],\"histograms\":[[\"empty\",{\"total\":0,\"min\":null,\"max\":null,\"buckets\":[]}],[\"slack\",{\"total\":7,\"min\":-0,\"max\":1000000000000000000000,\"buckets\":[[0,2],[8,1],[30,1],[34,2],[95,1]]}]],\"flight\":[\"cam,1,0,1e21,,,false,normal\",\"q\\\"b\\\\s\\u0001é\\n\\t\\r|\"]},{\"name\":\"bare\",\"events\":0,\"status\":\"normal\",\"generation\":0,\"counters\":[],\"windows\":[],\"histograms\":[],\"flight\":[]}]}";

#[test]
fn telemetry_snapshot_renders_its_pinned_line() {
    assert_eq!(snapshot().to_json(), SNAPSHOT);
}

const CHROME: &str = "{\"traceEvents\":[{\"name\":\"q\\\"b\\\\s\\u0001é\\n\\t\\r|/g7\",\"cat\":\"hvga\",\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":7,\"dur\":1},{\"name\":\"to2\",\"cat\":\"decision\",\"ph\":\"i\",\"pid\":1,\"tid\":3,\"ts\":0.0000001,\"s\":\"t\"},{\"name\":\"q\\\"b\\\\s\\u0001é\\n\\t\\r|\",\"cat\":\"cycle\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":-0,\"dur\":1000000000000000000000},{\"name\":\"back\",\"cat\":\"gen\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":5,\"dur\":0},{\"name\":\"to0\",\"cat\":\"decision\",\"ph\":\"i\",\"pid\":1,\"tid\":3,\"ts\":0.30000000000000004,\"s\":\"t\"}]}\n";

#[test]
fn chrome_trace_renders_its_pinned_document() {
    let obs = Obs::new(ObsMode::Chrome);
    for e in every_variant() {
        obs.emit(e);
    }
    // A span running backwards is clamped to zero duration.
    obs.emit(Event::Span {
        label: s("back"),
        clock: s("gen"),
        start: 5.0,
        end: 1.5,
    });
    obs.emit(Event::Decision {
        event: 2,
        cycle: 0.1 + 0.2,
        feasible: 1,
        from: 2,
        to: 0,
        drc: 0.0,
        score: None,
        p_rc: None,
        violated: false,
    });
    assert_eq!(obs.render_chrome(), CHROME);
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

/// Every float-carrying event variant with `v` in each float field, and
/// a decision with `score`/`p_rc` both absent.
fn edge_events(v: f64) -> Vec<Event> {
    vec![
        Event::GaGen {
            algo: s("nsga2"),
            label: s("edge"),
            gen: 1,
            evals: 2,
            feasible: 3,
            front: 4,
            archive: 5,
            hv: Some(v),
        },
        Event::Episode {
            index: 3,
            steps: 4,
            ret: v,
        },
        Event::Decision {
            event: 9,
            cycle: v,
            feasible: 2,
            from: 1,
            to: 0,
            drc: v,
            score: Some(v),
            p_rc: Some(v),
            violated: false,
        },
        Event::Decision {
            event: 10,
            cycle: v,
            feasible: 0,
            from: 0,
            to: 0,
            drc: v,
            score: None,
            p_rc: None,
            violated: true,
        },
        Event::SimEnd {
            label: s("edge"),
            events: 2,
            reconfigurations: 1,
            violations: 1,
            total_drc: v,
        },
        Event::Inject {
            label: s("edge"),
            trials: 1,
            errors: 0,
            err_prob: v,
        },
        Event::Shadow {
            label: s("edge"),
            tenant: s("cam"),
            event: 9,
            variant: s("control"),
            serving: s("live"),
            live_choice: 0,
            shadow_choice: 1,
            live_regret: v,
            shadow_regret: v,
        },
        Event::Span {
            label: s("edge"),
            clock: s("cycle"),
            start: v,
            end: v,
        },
        Event::Gauge {
            name: s("edge"),
            value: v,
        },
        Event::Histogram {
            name: s("edge"),
            bounds: vec![v, v],
            counts: vec![1, 0, 1],
            total: 2,
            min: Some(v),
            max: Some(v),
        },
    ]
}

/// 64-bit FNV-1a, to pin documents too long to spell out.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The two decision lines of `edge_events`, spelled out for the values
/// whose text is short.
const EDGE_DECISIONS: [(f64, [&str; 2]); 6] = [
    (
        -0.0,
        [
            "{\"seq\":2,\"type\":\"decision\",\"event\":9,\"cycle\":-0,\"feasible\":2,\"from\":1,\"to\":0,\"drc\":-0,\"score\":-0,\"p_rc\":-0,\"violated\":false}",
            "{\"seq\":3,\"type\":\"decision\",\"event\":10,\"cycle\":-0,\"feasible\":0,\"from\":0,\"to\":0,\"drc\":-0,\"score\":null,\"p_rc\":null,\"violated\":true}",
        ],
    ),
    (
        1e21,
        [
            "{\"seq\":2,\"type\":\"decision\",\"event\":9,\"cycle\":1000000000000000000000,\"feasible\":2,\"from\":1,\"to\":0,\"drc\":1000000000000000000000,\"score\":1000000000000000000000,\"p_rc\":1000000000000000000000,\"violated\":false}",
            "{\"seq\":3,\"type\":\"decision\",\"event\":10,\"cycle\":1000000000000000000000,\"feasible\":0,\"from\":0,\"to\":0,\"drc\":1000000000000000000000,\"score\":null,\"p_rc\":null,\"violated\":true}",
        ],
    ),
    (
        1e-7,
        [
            "{\"seq\":2,\"type\":\"decision\",\"event\":9,\"cycle\":0.0000001,\"feasible\":2,\"from\":1,\"to\":0,\"drc\":0.0000001,\"score\":0.0000001,\"p_rc\":0.0000001,\"violated\":false}",
            "{\"seq\":3,\"type\":\"decision\",\"event\":10,\"cycle\":0.0000001,\"feasible\":0,\"from\":0,\"to\":0,\"drc\":0.0000001,\"score\":null,\"p_rc\":null,\"violated\":true}",
        ],
    ),
    (
        f64::NAN,
        [
            "{\"seq\":2,\"type\":\"decision\",\"event\":9,\"cycle\":null,\"feasible\":2,\"from\":1,\"to\":0,\"drc\":null,\"score\":null,\"p_rc\":null,\"violated\":false}",
            "{\"seq\":3,\"type\":\"decision\",\"event\":10,\"cycle\":null,\"feasible\":0,\"from\":0,\"to\":0,\"drc\":null,\"score\":null,\"p_rc\":null,\"violated\":true}",
        ],
    ),
    (
        f64::INFINITY,
        [
            "{\"seq\":2,\"type\":\"decision\",\"event\":9,\"cycle\":null,\"feasible\":2,\"from\":1,\"to\":0,\"drc\":null,\"score\":null,\"p_rc\":null,\"violated\":false}",
            "{\"seq\":3,\"type\":\"decision\",\"event\":10,\"cycle\":null,\"feasible\":0,\"from\":0,\"to\":0,\"drc\":null,\"score\":null,\"p_rc\":null,\"violated\":true}",
        ],
    ),
    (
        f64::NEG_INFINITY,
        [
            "{\"seq\":2,\"type\":\"decision\",\"event\":9,\"cycle\":null,\"feasible\":2,\"from\":1,\"to\":0,\"drc\":null,\"score\":null,\"p_rc\":null,\"violated\":false}",
            "{\"seq\":3,\"type\":\"decision\",\"event\":10,\"cycle\":null,\"feasible\":0,\"from\":0,\"to\":0,\"drc\":null,\"score\":null,\"p_rc\":null,\"violated\":true}",
        ],
    ),
];

#[test]
fn edge_float_decisions_render_their_pinned_lines() {
    for (v, want) in EDGE_DECISIONS {
        let events = edge_events(v);
        assert_eq!(events[2].to_json_line(2), want[0], "{v:?}");
        assert_eq!(events[3].to_json_line(3), want[1], "{v:?}");
    }
}

/// `(length, FNV-1a)` of every `edge_events` line of each value.
const EDGE_JOURNALS: [(usize, u64); 8] = [
    (1011, 791342439999599351),
    (1391, 4746284453343160731),
    (1144, 9227378907397257133),
    (7167, 11037521587191129507),
    (6844, 6419735957569976144),
    (1049, 14372223789558314691),
    (1049, 14372223789558314691),
    (1049, 14372223789558314691),
];

#[test]
fn edge_float_journals_are_pinned() {
    let got: Vec<(usize, u64)> = EDGE
        .iter()
        .map(|&v| {
            let mut text = String::new();
            for (seq, e) in (0u64..).zip(edge_events(v)) {
                e.write_json_line(seq, &mut text);
                text.push('\n');
            }
            (text.len(), fnv1a64(text.as_bytes()))
        })
        .collect();
    assert_eq!(got, EDGE_JOURNALS);
}

fn edge_snapshot() -> TelemetrySnapshot {
    let mut extremes = QuantileHistogram::new();
    let mut finite = QuantileHistogram::new();
    for v in EDGE {
        extremes.record(v);
        if v.is_finite() {
            finite.record(v);
        }
    }
    let windows = EDGE
        .iter()
        .map(|&v| {
            let mut w = RollingWindow::new(2);
            w.push(v);
            (format!("{v:?}"), w.stat())
        })
        .collect();
    TelemetrySnapshot {
        schema: TELEMETRY_SCHEMA_VERSION,
        label: s("edge"),
        events: u64::MAX,
        dropped: Vec::new(),
        tenants: vec![TenantTelemetry {
            name: s("edge"),
            events: u64::MAX,
            status: s("normal"),
            generation: u64::MAX,
            counters: vec![(s("max"), u64::MAX)],
            windows,
            histograms: vec![(s("extremes"), extremes), (s("finite"), finite)],
            flight: Vec::new(),
        }],
    }
}

const EDGE_SNAPSHOT: (usize, u64) = (1791, 11739659242260217089);

#[test]
fn edge_float_snapshot_is_pinned() {
    let text = edge_snapshot().to_json();
    assert_eq!((text.len(), fnv1a64(text.as_bytes())), EDGE_SNAPSHOT);
}

const EDGE_CHROME: (usize, u64) = (4330, 11298750981575143282);

#[test]
fn edge_float_chrome_trace_is_pinned() {
    let obs = Obs::new(ObsMode::Chrome);
    for v in EDGE {
        for e in edge_events(v) {
            obs.emit(e);
        }
    }
    let text = obs.render_chrome();
    assert_eq!((text.len(), fnv1a64(text.as_bytes())), EDGE_CHROME);
}
