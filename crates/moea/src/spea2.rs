//! SPEA2 (Zitzler, Laumanns & Thiele, 2001): strength-Pareto evolutionary
//! algorithm with nearest-neighbour density estimation and archive
//! truncation.
//!
//! The paper's original implementation drew its GAs from DEAP/PYGMO, which
//! ship SPEA2 alongside NSGA-II; providing both lets the ablation benches
//! compare engine choices on the CLR mapping problem.

use clr_obs::{Event, Obs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dominance::dominates;
use crate::nsga2::Individual;
use crate::problem::evaluate_brood;
use crate::{Evaluation, GaParams, Problem};

/// The SPEA2 optimiser.
///
/// Constraint handling mirrors the crate's NSGA-II: a feasible individual
/// constraint-dominates any infeasible one; infeasibles compare by
/// violation.
///
/// # Examples
///
/// ```
/// use clr_moea::{Evaluation, GaParams, Problem, Spea2};
/// use rand::Rng;
///
/// struct Schaffer;
/// impl Problem for Schaffer {
///     type Solution = f64;
///     fn random_solution(&self, rng: &mut dyn rand::RngCore) -> f64 {
///         rng.gen_range(-10.0..10.0)
///     }
///     fn evaluate(&self, x: &f64) -> Evaluation {
///         Evaluation::feasible(vec![x * x, (x - 2.0) * (x - 2.0)])
///     }
///     fn crossover(&self, a: &f64, b: &f64, _r: &mut dyn rand::RngCore) -> f64 {
///         (a + b) / 2.0
///     }
///     fn mutate(&self, x: &mut f64, rng: &mut dyn rand::RngCore) {
///         *x += rng.gen_range(-0.5..0.5);
///     }
/// }
///
/// let front = Spea2::new(Schaffer, GaParams::small()).run(3);
/// assert!(!front.is_empty());
/// ```
#[derive(Debug)]
pub struct Spea2<P: Problem> {
    problem: P,
    params: GaParams,
    obs: Obs,
    label: String,
}

impl<P: Problem> Spea2<P> {
    /// Creates an optimiser (the archive size equals the population size).
    pub fn new(problem: P, params: GaParams) -> Self {
        Self {
            problem,
            params,
            obs: Obs::off(),
            label: "spea2".to_string(),
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

    /// Runs SPEA2 from `seed` and returns the final archive's feasible
    /// non-dominated individuals (the whole archive if none is feasible).
    ///
    /// Population evaluation fans out over `params.threads` workers
    /// (`0` = automatic); all RNG-driven variation stays on the master
    /// thread, so the result is bit-identical for every thread count.
    pub fn run(&self, seed: u64) -> Vec<Individual<P::Solution>> {
        let p = &self.params;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5bea_2000_dead_beef);
        let initial: Vec<(P::Solution, Option<Evaluation>)> = (0..p.population)
            .map(|_| (self.problem.random_solution(&mut rng), None))
            .collect();
        let mut pool = clr_par::PoolStats::default();
        let mut population = self.evaluate_all(initial, &mut pool);
        let mut archive: Vec<Entry<P::Solution>> = Vec::new();

        for gen in 0..=p.generations {
            // --- Fitness over the union. --------------------------------
            let mut union: Vec<Entry<P::Solution>> = Vec::new();
            union.append(&mut population);
            union.append(&mut archive);
            let fitness = spea2_fitness(&union);

            // --- Environmental selection into the next archive. ---------
            let mut idx: Vec<usize> = (0..union.len()).collect();
            idx.sort_by(|&a, &b| fitness[a].total_cmp(&fitness[b]));
            let cap = p.population;
            let non_dominated: Vec<usize> =
                idx.iter().copied().filter(|&i| fitness[i] < 1.0).collect();
            let chosen: Vec<usize> = if non_dominated.len() > cap {
                truncate_by_density(&union, non_dominated, cap)
            } else {
                idx.into_iter().take(cap).collect()
            };
            let front = chosen.iter().filter(|&&i| fitness[i] < 1.0).count();
            let mut keep = vec![false; union.len()];
            for &i in &chosen {
                keep[i] = true;
            }
            let mut next_archive = Vec::with_capacity(cap);
            for (i, e) in union.into_iter().enumerate() {
                if keep[i] {
                    next_archive.push(e);
                }
            }
            archive = next_archive;
            if self.obs.enabled() {
                // Serial master-loop emission: one `ga_gen` per generation
                // (no reference point, so no hyper-volume series).
                self.obs.emit(Event::GaGen {
                    algo: "spea2".to_string(),
                    label: self.label.clone(),
                    gen,
                    evals: p.population,
                    feasible: archive.iter().filter(|e| e.eval.is_feasible()).count(),
                    front,
                    archive: archive.len(),
                    hv: None,
                });
            }

            // --- Mating from the archive. --------------------------------
            let arch_fitness = spea2_fitness(&archive);
            let children: Vec<(P::Solution, Option<Evaluation>)> = (0..cap)
                .map(|_| {
                    let a = tournament(&arch_fitness, p.tournament, &mut rng);
                    let b = tournament(&arch_fitness, p.tournament, &mut rng);
                    let mut child = if rng.gen_bool(p.crossover_prob) {
                        self.problem
                            .crossover(&archive[a].solution, &archive[b].solution, &mut rng)
                    } else {
                        archive[a].solution.clone()
                    };
                    if rng.gen_bool(p.mutation_prob.clamp(0.0, 1.0)) {
                        self.problem.mutate(&mut child, &mut rng);
                    }
                    let inherited = [a, b]
                        .into_iter()
                        .find(|&i| archive[i].solution == child)
                        .map(|i| archive[i].eval.clone());
                    (child, inherited)
                })
                .collect();
            population = self.evaluate_all(children, &mut pool);
        }
        if self.obs.enabled() {
            self.obs.emit(Event::Span {
                label: self.label.clone(),
                clock: "gen".to_string(),
                start: 0.0,
                end: p.generations as f64,
            });
            self.obs.emit_nondet(Event::Pool {
                site: format!("moea.spea2.{}", self.label),
                items: pool.items,
                workers: pool.workers,
                per_worker: pool.per_worker.clone(),
                queue_hwm: pool.queue_hwm,
            });
        }

        // --- Extract the feasible non-dominated archive members. ---------
        let feasible: Vec<&Entry<P::Solution>> =
            archive.iter().filter(|e| e.eval.is_feasible()).collect();
        let pool: Vec<&Entry<P::Solution>> = if feasible.is_empty() {
            archive.iter().collect()
        } else {
            feasible
        };
        let mut out = Vec::new();
        'outer: for (i, e) in pool.iter().enumerate() {
            for (j, other) in pool.iter().enumerate() {
                if i != j && constrained_dominates(other, e) {
                    continue 'outer;
                }
            }
            out.push(Individual {
                solution: e.solution.clone(),
                objectives: e.eval.objectives.clone(),
                violation: e.eval.violation,
                rank: 0,
                crowding: 0.0,
            });
        }
        out
    }

    /// Evaluates a batch of genotypes on the worker pool, preserving input
    /// order; a child that inherited a parent's evaluation is not
    /// evaluated again.
    fn evaluate_all(
        &self,
        brood: Vec<(P::Solution, Option<Evaluation>)>,
        pool: &mut clr_par::PoolStats,
    ) -> Vec<Entry<P::Solution>> {
        evaluate_brood(&self.problem, self.params.threads, brood, pool)
            .into_iter()
            .map(|(solution, eval)| Entry { solution, eval })
            .collect()
    }
}

struct Entry<S> {
    solution: S,
    eval: Evaluation,
}

fn constrained_dominates<S>(a: &Entry<S>, b: &Entry<S>) -> bool {
    match (a.eval.is_feasible(), b.eval.is_feasible()) {
        (true, false) => true,
        (false, true) => false,
        (false, false) => a.eval.violation < b.eval.violation,
        (true, true) => dominates(&a.eval.objectives, &b.eval.objectives),
    }
}

/// SPEA2 fitness: raw strength-based fitness + density (lower is better;
/// `< 1` ⇔ non-dominated).
fn spea2_fitness<S>(entries: &[Entry<S>]) -> Vec<f64> {
    let n = entries.len();
    if n == 0 {
        return Vec::new();
    }
    // Strengths.
    let mut strength = vec![0usize; n];
    for i in 0..n {
        for j in 0..n {
            if i != j && constrained_dominates(&entries[i], &entries[j]) {
                strength[i] += 1;
            }
        }
    }
    // Raw fitness.
    let mut raw = vec![0.0f64; n];
    for i in 0..n {
        for j in 0..n {
            if i != j && constrained_dominates(&entries[j], &entries[i]) {
                raw[i] += strength[j] as f64;
            }
        }
    }
    // Density: k-th nearest neighbour in objective space.
    let k = (n as f64).sqrt() as usize;
    let mut fitness = Vec::with_capacity(n);
    for i in 0..n {
        let mut dists: Vec<f64> = (0..n)
            .filter(|&j| j != i)
            .map(|j| euclid(&entries[i].eval.objectives, &entries[j].eval.objectives))
            .collect();
        dists.sort_by(f64::total_cmp);
        let sigma_k = dists.get(k.saturating_sub(1)).copied().unwrap_or(0.0);
        fitness.push(raw[i] + 1.0 / (sigma_k + 2.0));
    }
    fitness
}

fn euclid(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        // Mixed dimensionalities only occur transiently for bogus init
        // entries; treat them as infinitely far.
        return f64::MAX;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Iterative truncation: repeatedly drop the entry with the smallest
/// nearest-neighbour distance until `cap` remain.
fn truncate_by_density<S>(entries: &[Entry<S>], mut chosen: Vec<usize>, cap: usize) -> Vec<usize> {
    while chosen.len() > cap {
        let mut victim = 0usize;
        let mut best = f64::MAX;
        for (pos, &i) in chosen.iter().enumerate() {
            let nn = chosen
                .iter()
                .filter(|&&j| j != i)
                .map(|&j| euclid(&entries[i].eval.objectives, &entries[j].eval.objectives))
                .fold(f64::MAX, f64::min);
            if nn < best {
                best = nn;
                victim = pos;
            }
        }
        chosen.swap_remove(victim);
    }
    chosen
}

fn tournament(fitness: &[f64], k: usize, rng: &mut StdRng) -> usize {
    let mut best = rng.gen_range(0..fitness.len());
    for _ in 1..k.max(1) {
        let c = rng.gen_range(0..fitness.len());
        if fitness[c] < fitness[best] {
            best = c;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

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
    fn schaffer_front_converges() {
        let params = GaParams {
            population: 60,
            generations: 30,
            ..GaParams::default()
        };
        let front = Spea2::new(Schaffer, params).run(1);
        assert!(front.len() >= 5, "front size {}", front.len());
        for ind in &front {
            assert!((-0.5..=2.5).contains(&ind.solution), "x = {}", ind.solution);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<f64> = Spea2::new(Schaffer, GaParams::small())
            .run(4)
            .into_iter()
            .map(|i| i.solution)
            .collect();
        let b: Vec<f64> = Spea2::new(Schaffer, GaParams::small())
            .run(4)
            .into_iter()
            .map(|i| i.solution)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn serial_and_parallel_runs_are_bit_identical() {
        for seed in [0u64, 4, 31] {
            let serial = Spea2::new(
                ConstrainedSchaffer,
                GaParams {
                    threads: 1,
                    ..GaParams::small()
                },
            )
            .run(seed);
            let parallel = Spea2::new(
                ConstrainedSchaffer,
                GaParams {
                    threads: 4,
                    ..GaParams::small()
                },
            )
            .run(seed);
            let a: Vec<u64> = serial.iter().map(|i| i.solution.to_bits()).collect();
            let b: Vec<u64> = parallel.iter().map(|i| i.solution.to_bits()).collect();
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn output_is_mutually_non_dominated() {
        let front = Spea2::new(Schaffer, GaParams::small()).run(5);
        for a in &front {
            for b in &front {
                assert!(!dominates(&a.objectives, &b.objectives));
            }
        }
    }

    #[test]
    fn constraints_are_respected() {
        let params = GaParams {
            population: 60,
            generations: 30,
            ..GaParams::default()
        };
        let front = Spea2::new(ConstrainedSchaffer, params).run(6);
        for ind in &front {
            assert!(ind.is_feasible(), "x = {}", ind.solution);
        }
    }
}
