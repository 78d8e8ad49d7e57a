//! `DrcSources` against the itemised reference: for every source of a
//! set, the task-major kernel's total must be bit-equal to
//! `reconfiguration_cost(from, to).total()`.

use clr_platform::{Interconnect, PeKind, PeType, PeTypeId, Platform};
use clr_reliability::{AswMethod, ClrConfig, HwMethod, SswMethod};
use clr_sched::{reconfiguration_cost, DrcBuffers, DrcSources, Gene, Mapping};
use clr_taskgraph::{jpeg_encoder, TaskGraph, TgffConfig, TgffGenerator};
use proptest::prelude::*;

/// dac19's processing elements and regions on `interconnect`; with
/// `prrs` false there are no reconfigurable regions, so accelerated
/// implementations pay no bit-stream term.
fn dac19_shape(prrs: bool, interconnect: Interconnect) -> Platform {
    let ty = |name| PeType::new(name, PeKind::GeneralPurpose);
    let mut builder = Platform::builder()
        .pe_type(ty("lp-core"))
        .pe_type(ty("hp-core"))
        .pe_type(ty("hard-core"))
        .pes(2, PeTypeId::new(0), 2048)
        .pes(2, PeTypeId::new(1), 2048)
        .pes(1, PeTypeId::new(2), 2048)
        .interconnect(interconnect);
    if prrs {
        builder = builder.prr(384, 0.02).prr(512, 0.02).prr(768, 0.02);
    }
    builder.build().expect("a dac19-shaped platform is valid")
}

fn dac19_without_prrs() -> Platform {
    dac19_shape(false, Interconnect::default())
}

/// A valid mapping drawn from `draw`: per task, one of the
/// `(implementation, PE)` pairs whose types agree, with the CLR
/// configuration and priority (both free to change) drawn too.
fn mapping(graph: &TaskGraph, platform: &Platform, draw: u64) -> Mapping {
    let mut state = draw;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = state;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    };
    let configs = [
        ClrConfig::NONE,
        ClrConfig::new(HwMethod::FullTmr, SswMethod::None, AswMethod::Checksum),
    ];
    let genes = graph
        .task_ids()
        .map(|t| {
            let pairs: Vec<_> = graph
                .implementations(t)
                .iter()
                .flat_map(|im| {
                    platform
                        .pe_ids()
                        .filter(move |&pe| platform.pe(pe).type_id() == im.pe_type())
                        .map(move |pe| (im.id(), pe))
                })
                .collect();
            // Half the draws take the first pair, so mappings often share
            // a task's placement.
            let r = next();
            let k = if r & 1 == 0 {
                0
            } else {
                (r >> 1) % pairs.len() as u64
            };
            let (impl_id, pe) = pairs[k as usize];
            let r = next();
            Gene {
                pe,
                impl_id,
                clr: configs[(r % 2) as usize],
                priority: (r >> 8) as u32 % 64,
            }
        })
        .collect();
    Mapping::new(genes)
}

/// Checks every source's kernel total against the reference, bit for bit.
fn check(graph: &TaskGraph, platform: &Platform, sources: &[Mapping], to: &Mapping) {
    let packed = DrcSources::new(graph, sources);
    assert_eq!(packed.len(), sources.len());
    assert_eq!(packed.is_empty(), sources.is_empty());
    let mut buffers = DrcBuffers::default();
    // Twice through the same buffers: the second pass must not see the
    // first one's sums.
    for _ in 0..2 {
        let totals = packed.totals(graph, platform, to, &mut buffers);
        assert_eq!(totals.len(), sources.len());
        for (f, (from, &total)) in sources.iter().zip(totals).enumerate() {
            let reference = reconfiguration_cost(graph, platform, from, to).total();
            assert_eq!(total.to_bits(), reference.to_bits(), "source {f}");
        }
    }
}

/// The cases: 0 and 1 source, then 2–70 sources drawn from a few
/// distinct mappings (so the set holds duplicates), with the target
/// itself placed among them.
fn sets(graph: &TaskGraph, platform: &Platform, draws: &[u64], to_draw: u64, kinds: u64) {
    let to = mapping(graph, platform, to_draw);
    check(graph, platform, &[], &to);
    check(graph, platform, &[mapping(graph, platform, draws[0])], &to);
    check(graph, platform, std::slice::from_ref(&to), &to);
    let mut sources: Vec<Mapping> = draws
        .iter()
        .map(|&d| mapping(graph, platform, d % kinds))
        .collect();
    let at = (to_draw % sources.len() as u64) as usize;
    sources[at] = to.clone();
    check(graph, platform, &sources, &to);
}

fn graphs() -> [TaskGraph; 2] {
    [
        jpeg_encoder(),
        TgffGenerator::new(TgffConfig::with_tasks(40)).generate(11),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kernel_totals_are_bit_equal_to_the_reference(
        draws in collection::vec(0u64..u64::MAX, 2..=70usize),
        to_draw in 0u64..u64::MAX,
        kinds in 1u64..8,
    ) {
        for platform in [Platform::dac19(), dac19_without_prrs()] {
            for graph in &graphs() {
                sets(graph, &platform, &draws, to_draw, kinds);
            }
        }
    }
}

#[test]
fn the_prr_free_platform_drops_only_the_bitstream_term() {
    // The check above covers both platforms; this pins that they differ
    // where they should, so the PRR-free case is not vacuous.
    let graph = jpeg_encoder();
    let (with, without) = (Platform::dac19(), dac19_without_prrs());
    let found = (0..64u64).any(|d| {
        let (a, b) = (mapping(&graph, &with, d), mapping(&graph, &with, d + 64));
        let full = reconfiguration_cost(&graph, &with, &a, &b);
        let bare = reconfiguration_cost(&graph, &without, &a, &b);
        full.bitstream_time > 0.0
            && bare.bitstream_time == 0.0
            && full.migration_time == bare.migration_time
    });
    assert!(found, "some draw moves an accelerated implementation");
}

#[test]
fn an_infinite_term_on_an_unmoved_task_adds_nothing() {
    // A mask multiply would turn an unmoved task's inf·0 into NaN.
    let graph = jpeg_encoder();
    // The smallest positive bandwidth turns every copy of a binary of a
    // KiB or more into an infinite time.
    let slow = Interconnect::new(f64::from_bits(1), 1.0, 0.02).expect("positive bandwidth");
    let platform = dac19_shape(true, slow);
    let a = mapping(&graph, &platform, 1);
    let b = mapping(&graph, &platform, 2);
    assert_eq!(
        reconfiguration_cost(&graph, &platform, &b, &a).total(),
        f64::INFINITY
    );
    check(&graph, &platform, &[a.clone(), b.clone(), a.clone()], &a);
    check(&graph, &platform, &[a, b.clone()], &b);
}
