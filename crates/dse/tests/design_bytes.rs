//! Golden design-time bytes: BaseD and ReD over two seeds in every
//! exploration mode, with a ReD storage cap tight enough that extras are
//! evicted, at GA thread counts 1 and 4.
//!
//! Each case pins length + FNV-1a of the BaseD text codec, the ReD text
//! codec and the deterministic journal of both stages (`ga_gen`,
//! `red_seed`, `dse_stage`, spans and the recorder snapshot). The
//! recorded values were taken once from the exploration code and must
//! never be edited to follow a code change: a diff here means a design
//! point, an objective bit, an eviction or a journal line moved.

use clr_dse::{
    explore_based_with, explore_red_with, DseConfig, ExplorationMode, PointOrigin, RedConfig,
};
use clr_moea::GaParams;
use clr_obs::{Event, Obs, ObsMode};
use clr_platform::Platform;
use clr_reliability::{ConfigSpace, FaultModel};
use clr_taskgraph::{jpeg_encoder, TaskGraph, TgffConfig, TgffGenerator};

/// 64-bit FNV-1a.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn pin(text: &str) -> (usize, u64) {
    (text.len(), fnv1a64(text.as_bytes()))
}

/// Seed 1 explores the JPEG encoder, seed 7 a 12-task TGFF graph.
fn graph(seed: u64) -> TaskGraph {
    if seed == 1 {
        jpeg_encoder()
    } else {
        TgffGenerator::new(TgffConfig::with_tasks(12)).generate(seed)
    }
}

/// `[BaseD text, ReD text, journal]` pins of one design run.
fn design_bytes(seed: u64, mode: ExplorationMode, threads: usize) -> [(usize, u64); 3] {
    let graph = graph(seed);
    let platform = Platform::dac19();
    let fm = FaultModel::default();
    let obs = Obs::new(ObsMode::Json);
    let dse = DseConfig {
        ga: GaParams {
            threads,
            ..GaParams::small()
        },
        mode,
        reference: None,
        max_points: None,
    };
    let based = explore_based_with(&graph, &platform, fm, ConfigSpace::fine(), &dse, seed, &obs);
    let red_cfg = RedConfig {
        ga: GaParams {
            population: 16,
            generations: 8,
            threads,
            ..GaParams::small()
        },
        max_extra_per_seed: 3,
        max_total: Some(based.len() + 2),
        ..RedConfig::default()
    };
    let red = explore_red_with(
        &graph,
        &platform,
        fm,
        ConfigSpace::fine(),
        mode,
        &based,
        &red_cfg,
        seed,
        &obs,
    );
    // The cap must actually evict: more extras were kept per seed than
    // the database holds at the end.
    let kept: usize = obs
        .det_events()
        .iter()
        .map(|e| match e {
            Event::RedSeed { kept, .. } => *kept,
            _ => 0,
        })
        .sum();
    let extras = red.count_origin(PointOrigin::ReconfigAware);
    assert!(
        kept > extras,
        "seed {seed} {mode:?}: cap evicted nothing ({kept} kept, {extras} stored)"
    );
    [
        pin(&based.to_text()),
        pin(&red.to_text()),
        pin(&obs.render_det_jsonl()),
    ]
}

fn check(seed: u64, mode: ExplorationMode, expected: [(usize, u64); 3]) {
    for threads in [1, 4] {
        assert_eq!(
            design_bytes(seed, mode, threads),
            expected,
            "seed {seed} {mode:?} at {threads} thread(s)"
        );
    }
}

#[test]
fn full_mode_design_bytes() {
    check(
        1,
        ExplorationMode::Full,
        [
            (11215, 14419048827024783980),
            (12312, 9986624105488629352),
            (5336, 4026413048206946318),
        ],
    );
    check(
        7,
        ExplorationMode::Full,
        [
            (15914, 8389141941187330782),
            (17108, 17535677993062029045),
            (5715, 17980434388245230609),
        ],
    );
}

#[test]
fn csp_mode_design_bytes() {
    check(
        1,
        ExplorationMode::Csp,
        [
            (5045, 9924146075594845709),
            (6183, 10752830873438372600),
            (4537, 9095998146397798775),
        ],
    );
    check(
        7,
        ExplorationMode::Csp,
        [
            (4833, 11804143801366074510),
            (6005, 18196772449892961871),
            (4476, 3233595343834641999),
        ],
    );
}

#[test]
fn lifetime_mode_design_bytes() {
    check(
        1,
        ExplorationMode::Lifetime,
        [
            (26298, 1747210136156675017),
            (27406, 1522309937584343182),
            (7079, 8326754998327111244),
        ],
    );
    check(
        7,
        ExplorationMode::Lifetime,
        [
            (16532, 11959562762892507397),
            (17665, 7678926890026252872),
            (5859, 10197807962359912481),
        ],
    );
}
