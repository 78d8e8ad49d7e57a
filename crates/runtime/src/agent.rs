//! Agent-based run-time adaptation — AuRA (paper §4.3.2).
//!
//! The reinforcement-learning formulation:
//!
//! - **State space** — each stored design point is one state.
//! - **Policy** — fixed, uRA-shaped: among the feasible states, pick the
//!   arg-max of the immediate uRA reward plus `γ` times the state's value
//!   function. Setting `γ = 0` during policy evaluation subsumes uRA.
//! - **Value optimisation** — every-visit Monte-Carlo: at the end of each
//!   episode (a fixed number of application cycles) the discounted return
//!   `G_t` of each visited state updates `V(s) ← V(s) + α (G_t − V(s))`.
//! - **Prior knowledge** — instead of starting from uniform values, an
//!   offline Monte-Carlo simulation with the fixed policy over the known
//!   QoS-variation distribution bootstraps the initial value functions
//!   ([`AuraAgent::train_prior`]).
//!
//! ## Reproduction note (Table 7)
//!
//! In our discrete-event model the value term rarely *beats* plain uRA:
//! uRA's stay-while-feasible behaviour is already near-optimal, because a
//! value-informed deviation pays a certain reconfiguration cost now
//! against an uncertain future saving, and noisy value estimates bias the
//! arg-max toward over-eager moves (the classic maximisation bias). Our
//! Table-7 reproduction therefore shows AuRA ≈ uRA (±3 %) instead of the
//! paper's mostly-positive improvements; with `γ = 0` the agent
//! reproduces uRA decision-for-decision (unit-tested), and the prior
//! demonstrably reduces cold-start cost (see the `ablations` binary).

use clr_obs::{Event, Obs};
use serde::{Deserialize, Serialize};

use crate::sim::{simulate, DecisionInput, DecisionOutcome, Feedback, RuntimePolicy, SimConfig};
use crate::ura::ura_argmax;
use crate::{QosVariationModel, RuntimeContext};

/// The AuRA reinforcement-learning agent.
///
/// # Examples
///
/// ```
/// use clr_runtime::AuraAgent;
/// let agent = AuraAgent::new(8, 0.5, 0.6, 0.1).unwrap();
/// assert_eq!(agent.values().len(), 8);
/// // γ = 0 degenerates to plain uRA.
/// assert!(AuraAgent::new(8, 0.5, 0.0, 0.1).is_ok());
/// assert!(AuraAgent::new(8, 2.0, 0.5, 0.1).is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuraAgent {
    p_rc: f64,
    gamma: f64,
    alpha: f64,
    values: Vec<f64>,
    /// `(state entered, immediate reward)` sequence of the open episode.
    episode: Vec<(usize, f64)>,
}

impl AuraAgent {
    /// Creates an agent over `num_states` stored design points.
    ///
    /// # Errors
    ///
    /// Returns the offending value if `p_rc ∉ [0, 1]`, `gamma ∉ [0, 1)` or
    /// `alpha ∉ (0, 1]`.
    pub fn new(num_states: usize, p_rc: f64, gamma: f64, alpha: f64) -> Result<Self, f64> {
        if !(0.0..=1.0).contains(&p_rc) {
            return Err(p_rc);
        }
        if !(0.0..1.0).contains(&gamma) {
            return Err(gamma);
        }
        if !(alpha > 0.0 && alpha <= 1.0) {
            return Err(alpha);
        }
        Ok(Self {
            p_rc,
            gamma,
            alpha,
            values: vec![0.0; num_states],
            episode: Vec::new(),
        })
    }

    /// The user modulation parameter.
    pub fn p_rc(&self) -> f64 {
        self.p_rc
    }

    /// The discount factor.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The learning rate.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The current state-value estimates.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Overwrites the state-value estimates wholesale — the checkpoint
    /// restore and shadow-promotion path. Non-finite entries are rejected
    /// so a corrupt artifact cannot poison the arg-max.
    ///
    /// # Errors
    ///
    /// Returns the replacement length when it does not match the state
    /// count, or the state count when any entry is non-finite.
    pub fn set_values(&mut self, values: &[f64]) -> Result<(), usize> {
        if values.len() != self.values.len() {
            return Err(values.len());
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(self.values.len());
        }
        self.values.copy_from_slice(values);
        Ok(())
    }

    /// The immediate uRA-shaped reward of transitioning `from → to`.
    fn reward(&self, ctx: &RuntimeContext<'_>, from: usize, to: usize) -> f64 {
        ctx.ret_term(from, self.p_rc).score(to).0
    }

    /// Offline Monte-Carlo prior: simulates `episodes` independent episodes
    /// of `cycles_per_episode` cycles against the known QoS-variation
    /// distribution, updating the value functions with the fixed policy.
    /// Call before deployment to inject prior knowledge about the
    /// operating environment.
    ///
    /// Episodes run in batches of [`PRIOR_BATCH`]: within a batch each
    /// episode simulates against a frozen snapshot of the value functions
    /// (its RNG stream derived from `(seed, episode index)`), then the
    /// collected trajectories apply their value updates serially in episode
    /// order. Batches are therefore free to fan out over worker threads —
    /// see [`train_prior_with`](Self::train_prior_with) — and the learned
    /// values are bit-identical for every thread count.
    pub fn train_prior(
        &mut self,
        ctx: &RuntimeContext<'_>,
        qos: &QosVariationModel,
        episodes: usize,
        cycles_per_episode: f64,
        seed: u64,
    ) {
        self.train_prior_with(ctx, qos, episodes, cycles_per_episode, seed, 0);
    }

    /// [`train_prior`](Self::train_prior) with an explicit worker-thread
    /// count (`0` = automatic: the `CLR_THREADS` environment variable,
    /// falling back to available parallelism).
    pub fn train_prior_with(
        &mut self,
        ctx: &RuntimeContext<'_>,
        qos: &QosVariationModel,
        episodes: usize,
        cycles_per_episode: f64,
        seed: u64,
        threads: usize,
    ) {
        self.train_prior_obs(
            ctx,
            qos,
            episodes,
            cycles_per_episode,
            seed,
            threads,
            &Obs::off(),
        );
    }

    /// [`train_prior_with`](Self::train_prior_with) plus journal
    /// instrumentation: one `episode` event per prior episode (step count
    /// and discounted return), emitted from the serial value-update loop
    /// in episode order, an `episode` logical-clock span, and aggregated
    /// pool statistics in the non-deterministic section. The inner probe
    /// simulations stay un-instrumented — they run on worker threads.
    #[allow(clippy::too_many_arguments)]
    pub fn train_prior_obs(
        &mut self,
        ctx: &RuntimeContext<'_>,
        qos: &QosVariationModel,
        episodes: usize,
        cycles_per_episode: f64,
        seed: u64,
        threads: usize,
        obs: &Obs,
    ) {
        let indices: Vec<u64> = (0..episodes as u64).collect();
        let mut pool = clr_par::PoolStats::default();
        for batch in indices.chunks(PRIOR_BATCH) {
            // Frozen policy snapshot: every episode of the batch sees the
            // value functions as of the batch start, which decouples the
            // episodes from each other and from evaluation order.
            let snapshot = self.clone();
            let (trajectories, stats) = clr_par::par_map_stats(threads, batch, |_, &ep| {
                let mut probe = snapshot.clone();
                probe.episode.clear();
                let config = SimConfig {
                    total_cycles: cycles_per_episode,
                    mean_event_gap: 100.0,
                    // One simulate() call is exactly one episode; the
                    // trajectory is harvested below, so the simulation
                    // itself must never fire `end_episode`.
                    episode_cycles: f64::INFINITY,
                    seed: clr_par::derive_seed(seed ^ prior_mask(), ep),
                    initial_point: 0,
                    max_trace: 0,
                };
                let _ = simulate(ctx, &mut probe, qos, &config);
                probe.episode
            });
            pool.merge(&stats);
            // Value updates are sequential in episode order.
            for (offset, trajectory) in trajectories.into_iter().enumerate() {
                if obs.enabled() {
                    // Discounted return of the trajectory, accumulated
                    // backward exactly as `end_episode` does.
                    let mut g = 0.0f64;
                    for &(_, reward) in trajectory.iter().rev() {
                        g = reward + self.gamma * g;
                    }
                    obs.emit(Event::Episode {
                        index: batch[offset],
                        steps: trajectory.len(),
                        ret: g,
                    });
                }
                self.episode = trajectory;
                self.end_episode();
            }
        }
        if obs.enabled() {
            obs.emit(Event::Span {
                label: "aura.prior".to_string(),
                clock: "episode".to_string(),
                start: 0.0,
                end: episodes as f64,
            });
            obs.emit_nondet(Event::Pool {
                site: "aura.prior".to_string(),
                items: pool.items,
                workers: pool.workers,
                per_worker: pool.per_worker,
                queue_hwm: pool.queue_hwm,
            });
        }
    }
}

/// Episodes per frozen-snapshot batch of the offline prior pass.
pub const PRIOR_BATCH: usize = 8;

/// Seed scrambling constant for the offline prior pass.
#[inline]
fn prior_mask() -> u64 {
    0x00_70_72_69_6f_72_00_01 // "prior"
}

impl RuntimePolicy for AuraAgent {
    fn decide(&mut self, input: &DecisionInput<'_, '_>) -> DecisionOutcome {
        match ura_argmax(
            input.ctx,
            input.current,
            input.feasible,
            self.p_rc,
            |s| self.values[s],
            self.gamma,
        ) {
            Some((p, ret)) => DecisionOutcome {
                choice: Some(p),
                score: Some(ret),
                p_rc: Some(self.p_rc),
            },
            None => DecisionOutcome {
                choice: None,
                score: None,
                p_rc: Some(self.p_rc),
            },
        }
    }

    fn observe(&mut self, feedback: &Feedback<'_, '_>) {
        let r = self.reward(feedback.ctx, feedback.from, feedback.to);
        self.episode.push((feedback.to, r));
    }

    fn end_episode(&mut self) {
        // Every-visit Monte-Carlo, backward accumulation. `V(s)` estimates
        // the discounted return of the steps *after* entering `s` — the
        // entering reward itself is excluded, because the decision rule
        // already adds the immediate term (`r(s→p) + γ·V(p)`); including
        // it would double-count the reconfiguration cost of reaching `p`.
        let mut g = 0.0f64;
        for &(state, reward) in self.episode.iter().rev() {
            let v = &mut self.values[state];
            *v += self.alpha * (g - *v);
            g = reward + self.gamma * g;
        }
        self.episode.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UraPolicy;
    use clr_dse::QosSpec;
    use clr_dse::{explore_based, DesignPointDb, DseConfig, ExplorationMode};
    use clr_moea::GaParams;
    use clr_platform::Platform;
    use clr_reliability::{ConfigSpace, FaultModel};
    use clr_taskgraph::{TgffConfig, TgffGenerator};

    fn fixture(seed: u64) -> (clr_taskgraph::TaskGraph, Platform, DesignPointDb) {
        let graph = TgffGenerator::new(TgffConfig::with_tasks(12)).generate(seed);
        let platform = Platform::dac19();
        let cfg = DseConfig {
            ga: GaParams::small(),
            mode: ExplorationMode::Full,
            reference: None,
            max_points: None,
        };
        let db = explore_based(
            &graph,
            &platform,
            FaultModel::default(),
            ConfigSpace::fine(),
            &cfg,
            seed,
        );
        (graph, platform, db)
    }

    #[test]
    fn parameter_validation() {
        assert!(AuraAgent::new(4, 0.5, 1.0, 0.1).is_err()); // γ must be < 1
        assert!(AuraAgent::new(4, 0.5, 0.5, 0.0).is_err()); // α must be > 0
        assert!(AuraAgent::new(4, -0.1, 0.5, 0.1).is_err());
    }

    #[test]
    fn gamma_zero_matches_ura_decisions() {
        let (g, p, db) = fixture(41);
        let ctx = RuntimeContext::new(&g, &p, &db);
        let mut agent = AuraAgent::new(db.len(), 0.6, 0.0, 0.1).unwrap();
        let ura = UraPolicy::new(0.6).unwrap();
        let spec = QosSpec::new(f64::INFINITY, 0.0);
        let feasible = ctx.feasible(&spec);
        for current in 0..db.len() {
            let input = DecisionInput {
                ctx: &ctx,
                current,
                spec: &spec,
                feasible: &feasible,
            };
            assert_eq!(
                agent.decide(&input).choice,
                ura.select(&ctx, current, &spec)
            );
        }
    }

    #[test]
    fn episode_updates_move_values() {
        let (g, p, db) = fixture(42);
        let ctx = RuntimeContext::new(&g, &p, &db);
        if db.len() < 2 {
            return;
        }
        let mut agent = AuraAgent::new(db.len(), 1.0, 0.5, 0.2).unwrap();
        // Two-step episode: enter state 0, then state 1. V(s) estimates the
        // return *after* entering s, so V(0) learns from the second step's
        // reward and V(1) (episode end) learns a zero return.
        agent.observe(&Feedback {
            ctx: &ctx,
            from: 0,
            to: 0,
        });
        agent.observe(&Feedback {
            ctx: &ctx,
            from: 0,
            to: 1,
        });
        agent.end_episode();
        let second_reward = ctx.norm_performance(1); // p_rc = 1
        assert!((agent.values()[0] - 0.2 * second_reward).abs() < 1e-12);
        assert_eq!(agent.values()[1], 0.0);
    }

    #[test]
    fn prior_training_changes_values_and_is_deterministic() {
        let (g, p, db) = fixture(43);
        let ctx = RuntimeContext::new(&g, &p, &db);
        let qos = QosVariationModel::calibrated(&db, 0.25, 0.3);
        let mut a = AuraAgent::new(db.len(), 0.5, 0.6, 0.1).unwrap();
        let mut b = AuraAgent::new(db.len(), 0.5, 0.6, 0.1).unwrap();
        a.train_prior(&ctx, &qos, 20, 1000.0, 7);
        b.train_prior(&ctx, &qos, 20, 1000.0, 7);
        assert_eq!(a.values(), b.values());
        assert!(a.values().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn serial_and_parallel_prior_training_are_bit_identical() {
        let (g, p, db) = fixture(45);
        let ctx = RuntimeContext::new(&g, &p, &db);
        let qos = QosVariationModel::calibrated(&db, 0.25, 0.3);
        let mut serial = AuraAgent::new(db.len(), 0.5, 0.6, 0.1).unwrap();
        let mut parallel = AuraAgent::new(db.len(), 0.5, 0.6, 0.1).unwrap();
        // 20 episodes span multiple PRIOR_BATCH batches.
        serial.train_prior_with(&ctx, &qos, 20, 1000.0, 7, 1);
        parallel.train_prior_with(&ctx, &qos, 20, 1000.0, 7, 4);
        let a: Vec<u64> = serial.values().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = parallel.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
        assert!(serial.values().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn trained_agent_still_respects_feasibility() {
        let (g, p, db) = fixture(44);
        let ctx = RuntimeContext::new(&g, &p, &db);
        let qos = QosVariationModel::calibrated(&db, 0.25, 0.3);
        let mut agent = AuraAgent::new(db.len(), 0.5, 0.6, 0.1).unwrap();
        agent.train_prior(&ctx, &qos, 10, 1000.0, 3);
        let impossible = QosSpec::new(0.0, 1.0);
        let feasible = ctx.feasible(&impossible);
        let input = DecisionInput {
            ctx: &ctx,
            current: 0,
            spec: &impossible,
            feasible: &feasible,
        };
        assert_eq!(agent.decide(&input).choice, None);
    }
}
