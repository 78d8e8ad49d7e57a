//! Interactive-scale design-space exploration: BaseD vs ReD side by side.
//!
//! Runs the CSP-mode (R = 0) exploration of §5.2 on a 30-task application
//! and prints both databases — the QoS Pareto front and the additional
//! low-dRC points the reconfiguration-cost-aware stage contributes — plus
//! each point's average reconfiguration distance to the Pareto set (the
//! quantity the ReD stage minimises).
//!
//! Run with: `cargo run --release --example design_space_explorer`

use hybrid_clr::prelude::*;
use hybrid_clr::sched::{DrcBuffers, DrcSources};

fn main() {
    let graph = TgffGenerator::new(TgffConfig::with_tasks(30)).generate(11);
    let platform = Platform::dac19();

    let flow = HybridFlow::builder(&graph, &platform)
        .mode(ExplorationMode::Csp)
        .ga(GaParams {
            population: 60,
            generations: 40,
            ..GaParams::default()
        })
        .red(RedConfig::default())
        .seed(11)
        .run();

    let based = flow.based();
    let red = flow.red().expect("red stage was configured");
    println!(
        "BaseD: {} Pareto points | ReD: {} points (+{} reconfiguration-aware)\n",
        based.len(),
        red.len(),
        red.len() - based.len()
    );

    // The same task-major dRC kernel ReD ranks its extras with.
    let sources = DrcSources::new(&graph, based.iter().map(|p| &p.mapping));
    let mut buffers = DrcBuffers::default();
    let mut avg_drc = |m: &Mapping| -> f64 {
        sources
            .totals(&graph, &platform, m, &mut buffers)
            .iter()
            .sum::<f64>()
            / sources.len() as f64
    };

    println!(
        "{:<6} {:>10} {:>12} {:>10} {:<16}",
        "idx", "makespan", "reliability", "avg dRC", "origin"
    );
    for (i, p) in red.iter().enumerate() {
        println!(
            "{:<6} {:>10.1} {:>12.5} {:>10.2} {:<16}",
            i,
            p.metrics.makespan,
            p.metrics.reliability,
            avg_drc(&p.mapping),
            format!("{:?}", p.origin)
        );
    }

    // Quantify what the extras buy at run time.
    let sim = SimConfig {
        total_cycles: 100_000.0,
        ..SimConfig::paper(3)
    };
    let based_run = flow.simulate_ura(DbChoice::Based, 0.0, &sim);
    let red_run = flow.simulate_ura(DbChoice::Red, 0.0, &sim);
    println!(
        "\nrun-time (p_RC = 0, 100k cycles): BaseD avg dRC {:.2} vs ReD avg dRC {:.2}",
        based_run.avg_reconfig_cost, red_run.avg_reconfig_cost
    );
}
