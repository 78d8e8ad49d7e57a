//! The optimisation-problem abstraction.

use rand::RngCore;
use serde::{Deserialize, Serialize};

/// The result of evaluating one candidate solution: objective values (all
/// minimised) and an aggregate constraint violation (`0` = feasible).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// Objective values, all to be minimised.
    pub objectives: Vec<f64>,
    /// Aggregate constraint violation; `0.0` means feasible, larger is
    /// worse. Constraint-dominated comparisons use this before objectives.
    pub violation: f64,
}

impl Evaluation {
    /// A feasible evaluation.
    pub fn feasible(objectives: Vec<f64>) -> Self {
        Self {
            objectives,
            violation: 0.0,
        }
    }

    /// An evaluation with the given violation.
    pub fn with_violation(objectives: Vec<f64>, violation: f64) -> Self {
        Self {
            objectives,
            violation: violation.max(0.0),
        }
    }

    /// `true` if no constraint is violated.
    pub fn is_feasible(&self) -> bool {
        self.violation <= 0.0
    }
}

/// A multi-objective optimisation problem over solutions of type
/// [`Problem::Solution`].
///
/// The engine owns the evolutionary loop; the problem supplies the
/// domain-specific pieces — random initialisation, evaluation and the
/// variation operators. Operators take `dyn RngCore` so problems stay
/// object-safe and the engine controls seeding.
///
/// Problems and their solutions must be [`Sync`]/[`Send`]: `evaluate`
/// takes `&self` and is free of shared mutable state, so the engines
/// fan population evaluation out across a worker pool (`clr-par`) while
/// all RNG-driven variation stays on the master thread — results are
/// bit-identical for every thread count.
///
/// `evaluate` must be a pure function of the solution: two solutions
/// that compare equal under [`PartialEq`] must evaluate to the same
/// bits. The engines rely on it to skip repeated work — a child equal to
/// one of its two parents (no crossover and no mutation, a crossover of
/// equal genes, or a mutation that rewrote a gene with its own value)
/// takes a clone of that parent's [`Evaluation`] instead of a fresh
/// `evaluate` call.
pub trait Problem: Sync {
    /// The genotype being evolved.
    type Solution: Clone + PartialEq + Send + Sync;

    /// Samples a random valid solution.
    fn random_solution(&self, rng: &mut dyn RngCore) -> Self::Solution;

    /// Evaluates a solution into objectives + constraint violation. Must
    /// be pure: equal solutions give equal evaluations (see the trait
    /// docs).
    fn evaluate(&self, solution: &Self::Solution) -> Evaluation;

    /// Recombines two parents into an offspring.
    fn crossover(
        &self,
        a: &Self::Solution,
        b: &Self::Solution,
        rng: &mut dyn RngCore,
    ) -> Self::Solution;

    /// Mutates a solution in place.
    fn mutate(&self, solution: &mut Self::Solution, rng: &mut dyn RngCore);
}

/// Evaluates a brood in order: a child that carries an inherited
/// evaluation (it equals one of its parents) keeps it, and only the rest
/// fan out over `threads` workers (`0` = automatic).
pub(crate) fn evaluate_brood<P: Problem>(
    problem: &P,
    threads: usize,
    brood: Vec<(P::Solution, Option<Evaluation>)>,
    pool: &mut clr_par::PoolStats,
) -> Vec<(P::Solution, Evaluation)> {
    let fresh: Vec<&P::Solution> = brood
        .iter()
        .filter(|(_, inherited)| inherited.is_none())
        .map(|(s, _)| s)
        .collect();
    let (evals, stats) = clr_par::par_map_stats(threads, &fresh, |_, s| problem.evaluate(s));
    pool.merge(&stats);
    let mut evals = evals.into_iter();
    brood
        .into_iter()
        .map(|(s, inherited)| {
            let eval =
                inherited.unwrap_or_else(|| evals.next().expect("one evaluation per fresh child"));
            (s, eval)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feasibility_flags() {
        assert!(Evaluation::feasible(vec![1.0]).is_feasible());
        assert!(!Evaluation::with_violation(vec![1.0], 0.5).is_feasible());
        // Negative violations are clamped to zero.
        assert!(Evaluation::with_violation(vec![1.0], -3.0).is_feasible());
    }
}
