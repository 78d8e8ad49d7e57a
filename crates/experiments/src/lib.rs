//! Shared harness for the experiment binaries regenerating every table and
//! figure of the paper's evaluation (§5).
//!
//! Each binary (`fig1`, `table4`, `fig5`, `fig6`, `table5`, `table6`,
//! `fig7`, `table7`, and the drift experiment `learn_drift`) prints a
//! markdown rendition of its table/figure data and writes the raw series
//! as CSV under `results/`.
//!
//! Scale is controlled by the `CLR_FULL` environment variable: unset, the
//! experiments run at a laptop-friendly reduced scale (smaller GA budgets,
//! 200 k simulated cycles); `CLR_FULL=1` switches to the paper's setup
//! (one million application execution cycles, full GA budgets);
//! `CLR_QUICK=1` selects the tiny smoke scale of [`Env::quick`].
//!
//! Observability is controlled by `CLR_OBS` (see [`clr_core::obs`]): with
//! `CLR_OBS=json` or `CLR_OBS=chrome`, [`Env::from_env`] attaches an
//! enabled [`Obs`] handle and the binaries export the run journal next to
//! their CSVs under `results/`.

pub mod kernels;
pub mod report;

use clr_core::prelude::*;

/// Experiment-scale configuration.
#[derive(Debug, Clone)]
pub struct Env {
    /// GA parameters of the system-level MOEA.
    pub ga: GaParams,
    /// Configuration of the ReD stage.
    pub red: RedConfig,
    /// Simulated application cycles per Monte-Carlo run.
    pub sim_cycles: f64,
    /// Task counts swept by the tables (10–100, step 10, per the paper).
    pub task_counts: Vec<usize>,
    /// Base seed.
    pub seed: u64,
    /// Storage constraint: maximum BaseD design points kept (Fig. 3).
    pub storage_limit: usize,
    /// Independent event-stream replicas averaged per comparison (reduces
    /// single-stream noise in the tables).
    pub replicas: u64,
    /// σ of the QoS variation as a fraction of the achievable range.
    pub qos_sigma_frac: f64,
    /// Correlation between the two QoS requirements.
    pub qos_correlation: f64,
    /// Observability handle threaded through every flow and simulation
    /// (cloning an [`Env`] shares the journal).
    pub obs: Obs,
}

impl Env {
    /// Scale selected by `CLR_FULL` / `CLR_QUICK`, with the observability
    /// mode selected by `CLR_OBS` (see the [crate docs](crate)).
    pub fn from_env() -> Self {
        let mut env = if std::env::var("CLR_FULL").is_ok_and(|v| v == "1") {
            Self::paper()
        } else if std::env::var("CLR_QUICK").is_ok_and(|v| v == "1") {
            Self::quick()
        } else {
            Self::reduced()
        };
        env.obs = Obs::from_env();
        env
    }

    /// The paper's scale: GA defaults (population 100, 60 generations) and
    /// one million simulated cycles.
    pub fn paper() -> Self {
        Self {
            ga: GaParams::default(),
            red: RedConfig::default(),
            sim_cycles: 1_000_000.0,
            task_counts: (10..=100).step_by(10).collect(),
            seed: 2019,
            storage_limit: 48,
            replicas: 3,
            qos_sigma_frac: 0.25,
            qos_correlation: 0.3,
            obs: Obs::off(),
        }
    }

    /// Reduced scale for interactive runs.
    pub fn reduced() -> Self {
        Self {
            ga: GaParams {
                population: 40,
                generations: 25,
                ..GaParams::default()
            },
            red: RedConfig {
                ga: GaParams {
                    population: 32,
                    generations: 12,
                    ..GaParams::default()
                },
                ..RedConfig::default()
            },
            sim_cycles: 200_000.0,
            task_counts: (10..=100).step_by(10).collect(),
            seed: 2019,
            storage_limit: 48,
            replicas: 3,
            qos_sigma_frac: 0.25,
            qos_correlation: 0.3,
            obs: Obs::off(),
        }
    }

    /// A tiny scale for unit tests and smoke benches.
    pub fn quick() -> Self {
        Self {
            ga: GaParams::small(),
            red: RedConfig {
                ga: GaParams::small(),
                ..RedConfig::default()
            },
            sim_cycles: 20_000.0,
            task_counts: vec![10, 20],
            seed: 2019,
            storage_limit: 48,
            replicas: 1,
            qos_sigma_frac: 0.25,
            qos_correlation: 0.3,
            obs: Obs::off(),
        }
    }

    /// The simulation configuration at this scale.
    pub fn sim_config(&self, seed: u64) -> SimConfig {
        SimConfig {
            total_cycles: self.sim_cycles,
            mean_event_gap: 100.0,
            episode_cycles: 1_000.0,
            seed,
            initial_point: 0,
            max_trace: 0,
        }
    }

    /// Generates the synthetic application with `n` tasks (seeded from the
    /// environment's base seed so every experiment sees the same graphs).
    pub fn graph(&self, n: usize) -> TaskGraph {
        TgffGenerator::new(TgffConfig::with_tasks(n)).generate(self.seed ^ (n as u64) << 8)
    }
}

/// Relative reduction of `new` w.r.t. `base` in percent
/// (`(base − new) / base × 100`); `0` when the base is ~zero.
pub fn pct_reduction(base: f64, new: f64) -> f64 {
    if base.abs() < 1e-12 {
        0.0
    } else {
        (base - new) / base * 100.0
    }
}

/// Relative increase of `new` w.r.t. `base` in percent.
pub fn pct_increase(base: f64, new: f64) -> f64 {
    -pct_reduction(base, new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_scales_differ() {
        assert!(Env::paper().sim_cycles > Env::reduced().sim_cycles);
        assert_eq!(Env::paper().task_counts.len(), 10);
        assert!(Env::quick().task_counts.len() < 10);
    }

    #[test]
    fn graphs_are_deterministic() {
        let env = Env::quick();
        assert_eq!(env.graph(10), env.graph(10));
        assert_eq!(env.graph(10).num_tasks(), 10);
    }

    #[test]
    fn pct_helpers() {
        assert_eq!(pct_reduction(100.0, 80.0), 20.0);
        assert_eq!(pct_increase(100.0, 110.0), 10.0);
        assert_eq!(pct_reduction(0.0, 5.0), 0.0);
    }
}
