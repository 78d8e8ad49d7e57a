//! The paper's design-time flow: graph → BaseD → ReD → AuRA prior, at
//! one worker.

use std::time::Instant;

use clr_core::dse::{DesignPointDb, ExplorationMode, RedConfig};
use clr_core::moea::GaParams;
use clr_core::platform::Platform;
use clr_core::reliability::FaultModel;
use clr_core::runtime::AuraAgent;
use clr_core::taskgraph::TaskGraph;
use clr_core::{DbChoice, HybridFlow};

use crate::Tally;

/// Stored design points (paper Fig. 3's storage constraint): BaseD keeps
/// two thirds, so every seed explores the same number of ReD seeds.
pub const STORAGE_LIMIT: usize = 96;
/// Monte-Carlo prior episodes trained on the ReD context.
pub const PRIOR_EPISODES: usize = 12_288;
/// Cycles per prior episode.
pub const PRIOR_EPISODE_CYCLES: f64 = 1_000.0;

/// BaseD's GA budget: population × generations.
pub fn based_ga() -> GaParams {
    GaParams {
        population: 100,
        generations: 60,
        threads: 1,
        ..GaParams::default()
    }
}

/// ReD's per-seed neighbourhood search, run serially across seeds.
pub fn red_config() -> RedConfig {
    RedConfig {
        ga: GaParams {
            population: 24,
            generations: 10,
            threads: 1,
            ..GaParams::default()
        },
        ..RedConfig::default()
    }
}

/// The flow's products.
pub struct Design {
    pub based: DesignPointDb,
    pub red: DesignPointDb,
    pub run_s: f64,
}

/// Runs the flow once and times it end to end.
pub fn design(graph: &TaskGraph, platform: &Platform, seed: u64) -> Design {
    let start = Instant::now();
    let flow = HybridFlow::builder(graph, platform)
        .ga(based_ga())
        .red(red_config())
        .storage_limit(STORAGE_LIMIT)
        .seed(seed)
        .run();
    let ctx = flow.context(DbChoice::Red);
    let qos = flow.qos_model(DbChoice::Red);
    let mut agent = AuraAgent::new(ctx.len(), 0.5, 0.6, 0.1).expect("valid agent parameters");
    agent.train_prior_with(&ctx, &qos, PRIOR_EPISODES, PRIOR_EPISODE_CYCLES, seed, 1);
    std::hint::black_box(&agent);
    let run_s = start.elapsed().as_secs_f64();
    let based = flow.based().clone();
    let red = flow.red().expect("the ReD stage ran").clone();
    Design { based, red, run_s }
}

/// ReD holds every BaseD point, and the database passes the lints.
pub fn check_design(graph: &TaskGraph, platform: &Platform, d: &Design, tally: &mut Tally) {
    tally.attempt();
    let missing = d
        .based
        .iter()
        .filter(|p| !d.red.iter().any(|q| q == *p))
        .count();
    if missing > 0 {
        tally.fail(format!("ReD lacks {missing} BaseD points"));
    }
    tally.attempt();
    let report = clr_verify::check_database(
        graph,
        platform,
        &FaultModel::default(),
        ExplorationMode::Full,
        &d.red,
        red_config().tolerance,
    );
    if report.deny_count() > 0 {
        tally.fail(format!("ReD lint: {}", report.render_human()));
    }
}
