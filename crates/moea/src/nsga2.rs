//! Constraint-dominated NSGA-II (Deb et al. 2002).

use clr_obs::{Event, Obs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dominance::{crowding_distances, non_dominated_sort};
use crate::problem::evaluate_brood;
use crate::{Evaluation, GaParams, Problem};

/// One evaluated population member.
#[derive(Debug, Clone)]
pub struct Individual<S> {
    /// The genotype.
    pub solution: S,
    /// Objective values (all minimised).
    pub objectives: Vec<f64>,
    /// Aggregate constraint violation (`0` = feasible).
    pub violation: f64,
    /// Non-domination rank (0 = best front) within the final population.
    pub rank: usize,
    /// Crowding distance within its front.
    pub crowding: f64,
}

impl<S> Individual<S> {
    fn new(solution: S, eval: Evaluation) -> Self {
        Self {
            solution,
            objectives: eval.objectives,
            violation: eval.violation,
            rank: usize::MAX,
            crowding: 0.0,
        }
    }

    /// The evaluation this individual was built from, handed down to a
    /// child equal to it.
    fn evaluation(&self) -> Evaluation {
        Evaluation {
            objectives: self.objectives.clone(),
            violation: self.violation,
        }
    }

    /// `true` if no constraint is violated.
    pub fn is_feasible(&self) -> bool {
        self.violation <= 0.0
    }
}

/// The NSGA-II optimiser.
///
/// Constraint handling follows Deb's constrained-domination: feasible
/// beats infeasible, two infeasibles compare by violation, two feasibles
/// by `(rank, crowding)`.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug)]
pub struct Nsga2<P: Problem> {
    problem: P,
    params: GaParams,
    obs: Obs,
    label: String,
}

impl<P: Problem> Nsga2<P> {
    /// Creates an optimiser.
    pub fn new(problem: P, params: GaParams) -> Self {
        Self {
            problem,
            params,
            obs: Obs::off(),
            label: "nsga2".to_string(),
        }
    }

    /// Attaches an observability handle and a run label; per-generation
    /// `ga_gen` events, a `gen` logical-clock span, and aggregated pool
    /// statistics are recorded under that label.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs, label: impl Into<String>) -> Self {
        self.obs = obs;
        self.label = label.into();
        self
    }

    /// The wrapped problem.
    pub fn problem(&self) -> &P {
        &self.problem
    }

    /// Runs the evolutionary loop from `seed` and returns the feasible
    /// first front of the final population (the whole first front if
    /// nothing is feasible).
    pub fn run(&self, seed: u64) -> Vec<Individual<P::Solution>> {
        let final_pop = self.run_population(seed);
        let feasible_front: Vec<Individual<P::Solution>> = final_pop
            .iter()
            .filter(|i| i.rank == 0 && i.is_feasible())
            .cloned()
            .collect();
        if feasible_front.is_empty() {
            final_pop.into_iter().filter(|i| i.rank == 0).collect()
        } else {
            feasible_front
        }
    }

    /// Runs the evolutionary loop and returns the entire final population
    /// with ranks and crowding assigned.
    ///
    /// Population evaluation fans out over `params.threads` workers
    /// (`0` = automatic); all RNG-driven variation stays on the master
    /// thread, so the result is bit-identical for every thread count.
    pub fn run_population(&self, seed: u64) -> Vec<Individual<P::Solution>> {
        let p = &self.params;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_5eed_0bad_f00d);
        let initial: Vec<(P::Solution, Option<Evaluation>)> = (0..p.population)
            .map(|_| (self.problem.random_solution(&mut rng), None))
            .collect();
        let mut pool = clr_par::PoolStats::default();
        let mut pop = self.evaluate_all(initial, &mut pool);
        assign_rank_and_crowding(&mut pop);
        self.emit_generation(0, p.population, &pop);

        for gen in 0..p.generations {
            let mut children = Vec::with_capacity(p.population);
            while children.len() < p.population {
                let a = tournament(&pop, p.tournament, &mut rng);
                let b = tournament(&pop, p.tournament, &mut rng);
                let mut child = if rng.gen_bool(p.crossover_prob) {
                    self.problem
                        .crossover(&pop[a].solution, &pop[b].solution, &mut rng)
                } else {
                    pop[a].solution.clone()
                };
                if rng.gen_bool(p.mutation_prob.clamp(0.0, 1.0)) {
                    self.problem.mutate(&mut child, &mut rng);
                }
                let inherited = [a, b]
                    .into_iter()
                    .find(|&i| pop[i].solution == child)
                    .map(|i| pop[i].evaluation());
                children.push((child, inherited));
            }
            pop.extend(self.evaluate_all(children, &mut pool));
            assign_rank_and_crowding(&mut pop);
            pop = environmental_selection(pop, p.population);
            self.emit_generation(gen + 1, p.population, &pop);
        }
        assign_rank_and_crowding(&mut pop);
        if self.obs.enabled() {
            self.obs.emit(Event::Span {
                label: self.label.clone(),
                clock: "gen".to_string(),
                start: 0.0,
                end: p.generations as f64,
            });
            self.obs.emit_nondet(Event::Pool {
                site: format!("moea.nsga2.{}", self.label),
                items: pool.items,
                workers: pool.workers,
                per_worker: pool.per_worker,
                queue_hwm: pool.queue_hwm,
            });
        }
        pop
    }

    /// Emits one `ga_gen` journal event (serially, from the master loop).
    /// NSGA-II has no reference point, so the hyper-volume field is absent.
    fn emit_generation(&self, gen: usize, evals: usize, pop: &[Individual<P::Solution>]) {
        if !self.obs.enabled() {
            return;
        }
        self.obs.emit(Event::GaGen {
            algo: "nsga2".to_string(),
            label: self.label.clone(),
            gen,
            evals,
            feasible: pop.iter().filter(|i| i.is_feasible()).count(),
            front: pop.iter().filter(|i| i.rank == 0).count(),
            archive: pop.len(),
            hv: None,
        });
    }

    /// Evaluates a batch of genotypes on the worker pool, preserving input
    /// order; a child that inherited a parent's evaluation is not
    /// evaluated again.
    fn evaluate_all(
        &self,
        brood: Vec<(P::Solution, Option<Evaluation>)>,
        pool: &mut clr_par::PoolStats,
    ) -> Vec<Individual<P::Solution>> {
        evaluate_brood(&self.problem, self.params.threads, brood, pool)
            .into_iter()
            .map(|(s, e)| Individual::new(s, e))
            .collect()
    }
}

/// Binary/k-ary tournament on constrained-domination order; returns the
/// winner's index.
fn tournament<S>(pop: &[Individual<S>], k: usize, rng: &mut StdRng) -> usize {
    let mut best = rng.gen_range(0..pop.len());
    for _ in 1..k.max(1) {
        let challenger = rng.gen_range(0..pop.len());
        if better(&pop[challenger], &pop[best]) {
            best = challenger;
        }
    }
    best
}

/// Constrained-domination comparison used by selection.
fn better<S>(a: &Individual<S>, b: &Individual<S>) -> bool {
    match (a.is_feasible(), b.is_feasible()) {
        (true, false) => true,
        (false, true) => false,
        (false, false) => a.violation < b.violation,
        (true, true) => a.rank < b.rank || (a.rank == b.rank && a.crowding > b.crowding),
    }
}

/// Assigns ranks (feasible individuals sorted into fronts; infeasible ones
/// ranked after all feasible fronts by violation) and crowding distances.
fn assign_rank_and_crowding<S>(pop: &mut [Individual<S>]) {
    let feasible: Vec<usize> = (0..pop.len()).filter(|&i| pop[i].is_feasible()).collect();
    let infeasible: Vec<usize> = (0..pop.len()).filter(|&i| !pop[i].is_feasible()).collect();

    let objs: Vec<Vec<f64>> = feasible
        .iter()
        .map(|&i| pop[i].objectives.clone())
        .collect();
    let fronts = non_dominated_sort(&objs);
    let mut num_fronts = 0;
    for (rank, front) in fronts.iter().enumerate() {
        num_fronts = rank + 1;
        let front_objs: Vec<Vec<f64>> = front.iter().map(|&fi| objs[fi].clone()).collect();
        let crowd = crowding_distances(&front_objs);
        for (pos, &fi) in front.iter().enumerate() {
            let idx = feasible[fi];
            pop[idx].rank = rank;
            pop[idx].crowding = crowd[pos];
        }
    }
    // Infeasible: ranked past every feasible front, ordered by violation.
    let mut by_violation = infeasible;
    by_violation.sort_by(|&a, &b| pop[a].violation.total_cmp(&pop[b].violation));
    for (pos, idx) in by_violation.into_iter().enumerate() {
        pop[idx].rank = num_fronts + pos;
        pop[idx].crowding = 0.0;
    }
}

/// Keeps the best `n` individuals by `(rank, crowding)`.
fn environmental_selection<S>(mut pop: Vec<Individual<S>>, n: usize) -> Vec<Individual<S>> {
    pop.sort_by(|a, b| a.rank.cmp(&b.rank).then(b.crowding.total_cmp(&a.crowding)));
    pop.truncate(n);
    pop
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    /// min (x², (x−2)²) over x ∈ [−10, 10].
    struct Schaffer;
    impl Problem for Schaffer {
        type Solution = f64;
        fn random_solution(&self, rng: &mut dyn RngCore) -> f64 {
            (rng.next_u32() as f64 / u32::MAX as f64) * 20.0 - 10.0
        }
        fn evaluate(&self, x: &f64) -> Evaluation {
            Evaluation::feasible(vec![x * x, (x - 2.0) * (x - 2.0)])
        }
        fn crossover(&self, a: &f64, b: &f64, _r: &mut dyn RngCore) -> f64 {
            (a + b) / 2.0
        }
        fn mutate(&self, x: &mut f64, rng: &mut dyn RngCore) {
            *x += (rng.next_u32() as f64 / u32::MAX as f64) - 0.5;
        }
    }

    /// Same, but constrained to x ≥ 1 (violation = 1 − x when x < 1).
    struct ConstrainedSchaffer;
    impl Problem for ConstrainedSchaffer {
        type Solution = f64;
        fn random_solution(&self, rng: &mut dyn RngCore) -> f64 {
            (rng.next_u32() as f64 / u32::MAX as f64) * 20.0 - 10.0
        }
        fn evaluate(&self, x: &f64) -> Evaluation {
            Evaluation::with_violation(vec![x * x, (x - 2.0) * (x - 2.0)], (1.0 - x).max(0.0))
        }
        fn crossover(&self, a: &f64, b: &f64, _r: &mut dyn RngCore) -> f64 {
            (a + b) / 2.0
        }
        fn mutate(&self, x: &mut f64, rng: &mut dyn RngCore) {
            *x += (rng.next_u32() as f64 / u32::MAX as f64) - 0.5;
        }
    }

    #[test]
    fn schaffer_front_converges_to_pareto_set() {
        let front = Nsga2::new(Schaffer, GaParams::default()).run(3);
        assert!(front.len() > 5, "front size {}", front.len());
        for ind in &front {
            assert!(
                (-0.3..=2.3).contains(&ind.solution),
                "x = {} outside Pareto set",
                ind.solution
            );
        }
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = Nsga2::new(Schaffer, GaParams::small()).run(9);
        let b = Nsga2::new(Schaffer, GaParams::small()).run(9);
        let ax: Vec<f64> = a.iter().map(|i| i.solution).collect();
        let bx: Vec<f64> = b.iter().map(|i| i.solution).collect();
        assert_eq!(ax, bx);
    }

    #[test]
    fn serial_and_parallel_runs_are_bit_identical() {
        for seed in [0u64, 9, 77] {
            let serial = Nsga2::new(
                ConstrainedSchaffer,
                GaParams {
                    threads: 1,
                    ..GaParams::small()
                },
            )
            .run_population(seed);
            let parallel = Nsga2::new(
                ConstrainedSchaffer,
                GaParams {
                    threads: 4,
                    ..GaParams::small()
                },
            )
            .run_population(seed);
            let a: Vec<(u64, Vec<u64>)> = serial
                .iter()
                .map(|i| {
                    (
                        i.solution.to_bits(),
                        i.objectives.iter().map(|o| o.to_bits()).collect(),
                    )
                })
                .collect();
            let b: Vec<(u64, Vec<u64>)> = parallel
                .iter()
                .map(|i| {
                    (
                        i.solution.to_bits(),
                        i.objectives.iter().map(|o| o.to_bits()).collect(),
                    )
                })
                .collect();
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn constraints_are_honoured() {
        let front = Nsga2::new(ConstrainedSchaffer, GaParams::default()).run(4);
        for ind in &front {
            assert!(ind.is_feasible(), "x = {} infeasible", ind.solution);
            assert!(ind.solution >= 0.99, "x = {}", ind.solution);
        }
    }

    #[test]
    fn final_front_is_mutually_non_dominated() {
        let front = Nsga2::new(Schaffer, GaParams::small()).run(5);
        for a in &front {
            for b in &front {
                assert!(!crate::dominates(&a.objectives, &b.objectives));
            }
        }
    }

    #[test]
    fn population_run_exposes_all_ranks() {
        let pop = Nsga2::new(Schaffer, GaParams::small()).run_population(6);
        assert_eq!(pop.len(), GaParams::small().population);
        assert!(pop.iter().any(|i| i.rank == 0));
    }
}
