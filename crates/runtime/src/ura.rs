//! User-modulated run-time adaptation — uRA (paper Algorithm 1).

use clr_dse::QosSpec;
use serde::{Deserialize, Serialize};

use crate::sim::{DecisionInput, DecisionOutcome, RuntimePolicy};
use crate::{ArgMax, RuntimeContext};

/// The uRA policy of Algorithm 1.
///
/// On each discrete event the feasible stored points are scored by
///
/// ```text
/// RET(p) = p_RC · norm(R(p)) − (1 − p_RC) · norm(dRC(current → p))
/// ```
///
/// and the system reconfigures to the arg-max. The user parameter
/// `p_RC ∈ [0, 1]` trades performance improvement (`p_RC = 1`, the
/// baseline behaviour of purely performance-oriented hybrid remapping)
/// against reconfiguration cost (`p_RC = 0`, where staying put — `dRC = 0`
/// — wins whenever the current point still meets the QoS requirement).
///
/// # Examples
///
/// ```
/// use clr_runtime::UraPolicy;
/// assert!(UraPolicy::new(0.5).is_ok());
/// assert!(UraPolicy::new(1.5).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UraPolicy {
    p_rc: f64,
}

impl UraPolicy {
    /// Creates a uRA policy with the given user modulation parameter.
    ///
    /// # Errors
    ///
    /// Returns the offending value if `p_rc` is outside `[0, 1]`.
    pub fn new(p_rc: f64) -> Result<Self, f64> {
        if (0.0..=1.0).contains(&p_rc) {
            Ok(Self { p_rc })
        } else {
            Err(p_rc)
        }
    }

    /// The user modulation parameter.
    pub fn p_rc(&self) -> f64 {
        self.p_rc
    }

    /// Algorithm 1, lines 3–11: returns the selected design-point index,
    /// or `None` when no stored point satisfies the requirement (the
    /// system then keeps its current configuration).
    pub fn select(
        &self,
        ctx: &RuntimeContext<'_>,
        current: usize,
        spec: &QosSpec,
    ) -> Option<usize> {
        let feas = ctx.feasible(spec);
        ura_argmax(ctx, current, &feas, self.p_rc, |_| 0.0, 0.0).map(|(p, _)| p)
    }
}

/// Shared arg-max of Algorithm 1's scoring loop, parameterised by a state
/// value function so AuRA (`score += γ·V(p)`) reuses it; uRA passes
/// `γ = 0`. Returns the winner and its `RET` score (surfaced in journal
/// decision records).
///
/// The score is [`RetTerm::score`](crate::RetTerm::score) plus
/// `γ·V(p)`, and ties follow [`ArgMax`]: equal-RET candidates resolve
/// toward the better performer, then the lower index. External learners
/// (clr-learn's shadow evaluation) build on the same two pieces, so they
/// score with *exactly* the live tie-breaking.
pub fn ura_argmax(
    ctx: &RuntimeContext<'_>,
    current: usize,
    feasible: &[usize],
    p_rc: f64,
    value: impl Fn(usize) -> f64,
    gamma: f64,
) -> Option<(usize, f64)> {
    let term = ctx.ret_term(current, p_rc);
    let mut best = ArgMax::default();
    for &p in feasible {
        let (base, perf) = term.score(p);
        best.offer(p, base + gamma * value(p), perf);
    }
    best.best()
}

impl RuntimePolicy for UraPolicy {
    fn decide(&mut self, input: &DecisionInput<'_, '_>) -> DecisionOutcome {
        match ura_argmax(
            input.ctx,
            input.current,
            input.feasible,
            self.p_rc,
            |_| 0.0,
            0.0,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use clr_dse::{explore_based, DseConfig, ExplorationMode};
    use clr_moea::GaParams;
    use clr_platform::Platform;
    use clr_reliability::{ConfigSpace, FaultModel};
    use clr_taskgraph::{TgffConfig, TgffGenerator};

    struct Fixture {
        graph: clr_taskgraph::TaskGraph,
        platform: Platform,
        db: clr_dse::DesignPointDb,
    }

    fn fixture(seed: u64) -> Fixture {
        let graph = TgffGenerator::new(TgffConfig::with_tasks(10)).generate(seed);
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
        Fixture {
            graph,
            platform,
            db,
        }
    }

    #[test]
    fn p_rc_is_validated() {
        assert_eq!(UraPolicy::new(-0.1).unwrap_err(), -0.1);
        assert_eq!(UraPolicy::new(0.7).unwrap().p_rc(), 0.7);
    }

    #[test]
    fn infeasible_spec_returns_none() {
        let f = fixture(21);
        let ctx = RuntimeContext::new(&f.graph, &f.platform, &f.db);
        let impossible = QosSpec::new(0.0, 1.0);
        assert_eq!(
            UraPolicy::new(0.5).unwrap().select(&ctx, 0, &impossible),
            None
        );
    }

    #[test]
    fn p_rc_one_picks_best_performance() {
        let f = fixture(22);
        let ctx = RuntimeContext::new(&f.graph, &f.platform, &f.db);
        let spec = QosSpec::new(f64::INFINITY, 0.0); // everything feasible
        let chosen = UraPolicy::new(1.0).unwrap().select(&ctx, 0, &spec).unwrap();
        let best = (0..f.db.len())
            .min_by(|&a, &b| {
                f.db.get(a)
                    .unwrap()
                    .metrics
                    .energy
                    .total_cmp(&f.db.get(b).unwrap().metrics.energy)
            })
            .unwrap();
        assert_eq!(
            f.db.get(chosen).unwrap().metrics.energy,
            f.db.get(best).unwrap().metrics.energy
        );
    }

    #[test]
    fn p_rc_zero_stays_when_current_is_feasible() {
        let f = fixture(23);
        let ctx = RuntimeContext::new(&f.graph, &f.platform, &f.db);
        let spec = QosSpec::new(f64::INFINITY, 0.0);
        for current in 0..f.db.len() {
            let chosen = UraPolicy::new(0.0)
                .unwrap()
                .select(&ctx, current, &spec)
                .unwrap();
            // Staying is free (norm_drc = 0) and maximal, so the policy
            // must pick a zero-cost destination — the current point itself
            // unless another point is also zero-dRC away.
            assert_eq!(ctx.drc(current, chosen), 0.0);
        }
    }

    #[test]
    fn single_point_feasible_set_is_well_defined() {
        // Regression: with a one-point database the energy and dRC ranges
        // are degenerate (max == min). The normalisers must yield 0 (not
        // NaN/inf) so the arg-max still selects the lone feasible point,
        // at every p_RC setting.
        let f = fixture(25);
        let mut single = clr_dse::DesignPointDb::new("single");
        single.push(f.db.get(0).unwrap().clone());
        let ctx = RuntimeContext::new(&f.graph, &f.platform, &single);
        let spec = QosSpec::new(f64::INFINITY, 0.0);
        for p_rc in [0.0, 0.5, 1.0] {
            let chosen = UraPolicy::new(p_rc).unwrap().select(&ctx, 0, &spec);
            assert_eq!(chosen, Some(0), "p_rc = {p_rc}");
        }
    }

    #[test]
    fn selection_respects_feasibility_filter() {
        let f = fixture(24);
        let ctx = RuntimeContext::new(&f.graph, &f.platform, &f.db);
        // Tight spec: only some points feasible. Use a spec around the
        // median point.
        let mut makespans: Vec<f64> = f.db.iter().map(|p| p.metrics.makespan).collect();
        makespans.sort_by(f64::total_cmp);
        let spec = QosSpec::new(makespans[makespans.len() / 2], 0.0);
        let feas = ctx.feasible(&spec);
        if feas.is_empty() {
            return;
        }
        let chosen = UraPolicy::new(0.8).unwrap().select(&ctx, 0, &spec).unwrap();
        assert!(feas.contains(&chosen));
        assert!(f.db.get(chosen).unwrap().satisfies(&spec));
    }
}
