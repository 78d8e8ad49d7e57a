//! Golden evaluator bits: the Table-3 metrics, the schedules and the
//! memory footprints of seeded random mappings on the JPEG encoder and on
//! a 40-task TGFF graph (generator seed 40), platform `dac19`.
//!
//! The mappings draw their CLR configurations from every entry of the
//! fine catalogue plus two off it (`Retry { max_retries: 3 }`,
//! `Checkpoint { intervals: 8 }`), and every fourth one places a gene on
//! a PE whose type differs from its implementation's target type. Each
//! case pins length + FNV-1a of the little-endian bits of every
//! `SystemMetrics` field, of every schedule entry and of every
//! `memory_footprint` vector. The recorded values were taken once from
//! the evaluator that recomputed every task's Table-2 metrics on each
//! call, and must never be edited to follow a code change: a diff here
//! means an output bit of the evaluator moved.

use clr_platform::Platform;
use clr_reliability::{
    AswMethod, ClrConfig, ConfigSpace, FaultModel, HwMethod, SswMethod, TaskMetrics,
};
use clr_sched::{Evaluator, Gene, Mapping};
use clr_taskgraph::{jpeg_encoder, TaskGraph, TaskId, TgffConfig, TgffGenerator};
use proptest::prelude::*;

/// 64-bit FNV-1a.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// splitmix64 stream.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The fine catalogue followed by two configurations off it.
fn configs() -> Vec<ClrConfig> {
    let mut configs = ConfigSpace::fine().configs().to_vec();
    configs.push(ClrConfig::new(
        HwMethod::PartialTmr,
        SswMethod::Retry { max_retries: 3 },
        AswMethod::Checksum,
    ));
    configs.push(ClrConfig::new(
        HwMethod::None,
        SswMethod::Checkpoint { intervals: 8 },
        AswMethod::HammingCorrection,
    ));
    configs
}

/// Mapping `k` of a case: per task a random type-compatible
/// `(PE, implementation)` pair and priority, and the configuration that
/// walks the list in task order from a random offset. When `stray` is
/// set, one random task then moves to a PE of another type.
fn mapping(graph: &TaskGraph, platform: &Platform, draw: &mut Draw, stray: bool) -> Mapping {
    let configs = configs();
    let offset = draw.below(configs.len());
    let mut genes: Vec<Gene> = graph
        .task_ids()
        .map(|t| {
            let pairs: Vec<_> = graph
                .implementations(t)
                .iter()
                .flat_map(|im| {
                    platform
                        .pe_ids()
                        .filter(move |&pe| platform.pe(pe).type_id() == im.pe_type())
                        .map(move |pe| (pe, im.id()))
                })
                .collect();
            let (pe, impl_id) = pairs[draw.below(pairs.len())];
            Gene {
                pe,
                impl_id,
                clr: configs[(offset + t.index()) % configs.len()],
                priority: draw.below(1024) as u32,
            }
        })
        .collect();
    if stray {
        let t = draw.below(genes.len());
        let target = graph
            .implementation(TaskId::new(t), genes[t].impl_id)
            .pe_type();
        let others: Vec<_> = platform
            .pe_ids()
            .filter(|&pe| platform.pe(pe).type_id() != target)
            .collect();
        genes[t].pe = others[draw.below(others.len())];
    }
    Mapping::new(genes)
}

fn mappings(graph: &TaskGraph, platform: &Platform, seed: u64, count: usize) -> Vec<Mapping> {
    let mut draw = Draw(seed);
    (0..count)
        .map(|k| mapping(graph, platform, &mut draw, k % 4 == 3))
        .collect()
}

fn tgff40() -> TaskGraph {
    TgffGenerator::new(TgffConfig::with_tasks(40)).generate(40)
}

fn harsh() -> FaultModel {
    FaultModel::new(2e-3, 1e6, 1.0)
}

/// `[metrics, schedules, footprints]` pins of one case.
fn pins(graph: &TaskGraph, fm: FaultModel, seed: u64) -> [(usize, u64); 3] {
    let platform = Platform::dac19();
    let eval = Evaluator::new(graph, &platform, fm);
    let (mut metrics, mut schedules, mut footprints) = (Vec::new(), Vec::new(), Vec::new());
    for m in mappings(graph, &platform, seed, 96) {
        let sm = eval.evaluate(&m);
        let (again, schedule) = eval.evaluate_with_schedule(&m);
        assert_eq!(sm, again);
        for x in [
            sm.makespan,
            sm.reliability,
            sm.energy,
            sm.peak_power,
            sm.mean_mttf,
        ] {
            metrics.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        for e in schedule.entries() {
            schedules.extend_from_slice(&(e.pe as u64).to_le_bytes());
            schedules.extend_from_slice(&e.start.to_bits().to_le_bytes());
            schedules.extend_from_slice(&e.end.to_bits().to_le_bytes());
        }
        for kib in m.memory_footprint(graph, &platform) {
            footprints.extend_from_slice(&kib.to_le_bytes());
        }
    }
    [metrics, schedules, footprints].map(|b| (b.len(), fnv1a64(&b)))
}

#[test]
fn the_cases_cover_the_catalogue_and_the_stray_gene() {
    let platform = Platform::dac19();
    for graph in [jpeg_encoder(), tgff40()] {
        let ms = mappings(&graph, &platform, 1, 96);
        for cfg in configs() {
            assert!(
                ms.iter().any(|m| m.genes().iter().any(|g| g.clr == cfg)),
                "{cfg} is never drawn on {}",
                graph.name()
            );
        }
        let strays = ms
            .iter()
            .filter(|m| m.validate(&graph, &platform).is_err())
            .count();
        assert_eq!(strays, 24, "{}", graph.name());
    }
}

#[test]
fn the_catalogue_index_follows_the_fine_order() {
    let fine = ConfigSpace::fine();
    assert_eq!(fine.len(), 80);
    for i in 0..fine.len() {
        let cfg = fine.get(i).expect("index in range");
        assert_eq!(cfg.catalogue_index(), Some(i), "{cfg}");
    }
    for cfg in &configs()[fine.len()..] {
        assert_eq!(cfg.catalogue_index(), None, "{cfg}");
    }
}

#[test]
fn jpeg_bits_are_pinned() {
    assert_eq!(
        pins(&jpeg_encoder(), FaultModel::default(), 1),
        [
            (3840, 13515342721243104029),
            (25344, 82736720905630908),
            (3840, 2430788653223016677)
        ]
    );
    assert_eq!(
        pins(&jpeg_encoder(), harsh(), 2),
        [
            (3840, 6634306690736883951),
            (25344, 9443319565293569468),
            (3840, 10730535000474343173)
        ]
    );
}

#[test]
fn tgff40_bits_are_pinned() {
    assert_eq!(
        pins(&tgff40(), FaultModel::default(), 1),
        [
            (3840, 13116848115215351869),
            (92160, 14915669699038504820),
            (3840, 12037829419927009885)
        ]
    );
    assert_eq!(
        pins(&tgff40(), harsh(), 2),
        [
            (3840, 5989878605711103891),
            (92160, 12810015253769093639),
            (3840, 856847247867032086)
        ]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn task_metrics_are_bit_equal_to_the_cost_model(
        seed in 0u64..u64::MAX,
        case in 0u8..4,
    ) {
        let platform = Platform::dac19();
        let graph = if case & 1 == 1 { tgff40() } else { jpeg_encoder() };
        let fm = if case & 2 == 2 { harsh() } else { FaultModel::default() };
        let eval = Evaluator::new(&graph, &platform, fm);
        for m in mappings(&graph, &platform, seed, 8) {
            for t in graph.task_ids() {
                let gene = m.gene(t);
                let direct = TaskMetrics::evaluate(
                    graph.implementation(t, gene.impl_id),
                    platform.type_of(gene.pe),
                    &gene.clr,
                    &fm,
                );
                let got = eval.task_metrics(&m, t);
                prop_assert_eq!(got.to_bits(), direct.to_bits(), "task {} gene {:?}", t, gene);
            }
        }
    }
}
