//! Hyper-volume-fitness GA: the solution technique of paper Eq. (5) /
//! Fig. 4a.
//!
//! Each individual's scalar fitness is its *signed* hyper-volume w.r.t.
//! the reference point `R` that encodes the QoS constraints (maximum
//! `S_SPEC`, minimum `F_SPEC` expressed as maximum error rate, and an
//! energy ceiling): feasible points earn the volume they sweep, infeasible
//! points are charged the violation box. Tournament selection (size 5 by
//! default) maximises this fitness, and every feasible evaluation is offered
//! to a non-dominated archive — the optimiser's result is the archive, i.e.
//! the collection `p_i` whose summed hyper-volume Eq. (5) maximises.

use clr_obs::{Event, Obs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::hypervolume::{hypervolume, signed_hypervolume_fitness};
use crate::problem::evaluate_brood;
use crate::{Evaluation, GaParams, ParetoArchive, Problem};

/// One scored population member. The evaluation is kept so a child equal
/// to this member inherits it instead of being evaluated again.
#[derive(Debug)]
struct Member<S> {
    solution: S,
    eval: Evaluation,
    fitness: f64,
    feasible: bool,
}

/// The hyper-volume-maximisation GA.
///
/// # Examples
///
/// ```
/// use clr_moea::{Evaluation, GaParams, HvGa, Problem};
/// use rand::Rng;
///
/// struct Sphere;
/// impl Problem for Sphere {
///     type Solution = (f64, f64);
///     fn random_solution(&self, rng: &mut dyn rand::RngCore) -> (f64, f64) {
///         (rng.gen_range(0.0..4.0), rng.gen_range(0.0..4.0))
///     }
///     fn evaluate(&self, s: &(f64, f64)) -> Evaluation {
///         Evaluation::feasible(vec![s.0, s.1])
///     }
///     fn crossover(&self, a: &(f64, f64), b: &(f64, f64), _r: &mut dyn rand::RngCore) -> (f64, f64) {
///         (a.0, b.1)
///     }
///     fn mutate(&self, s: &mut (f64, f64), rng: &mut dyn rand::RngCore) {
///         s.0 = (s.0 + rng.gen_range(-0.2..0.2)).max(0.0);
///         s.1 = (s.1 + rng.gen_range(-0.2..0.2)).max(0.0);
///     }
/// }
///
/// let hv = HvGa::new(Sphere, GaParams::small(), vec![2.0, 2.0]);
/// let archive = hv.run(1);
/// // Only points inside the reference box survive.
/// assert!(archive.iter().all(|(_, o)| o[0] <= 2.0 && o[1] <= 2.0));
/// ```
#[derive(Debug)]
pub struct HvGa<P: Problem> {
    problem: P,
    params: GaParams,
    reference: Vec<f64>,
    obs: Obs,
    label: String,
}

impl<P: Problem> HvGa<P> {
    /// Creates an optimiser with the given QoS reference point (one bound
    /// per objective, same order as the problem's objective vector).
    pub fn new(problem: P, params: GaParams, reference: Vec<f64>) -> Self {
        Self {
            problem,
            params,
            reference,
            obs: Obs::off(),
            label: "hvga".to_string(),
        }
    }

    /// Attaches an observability handle and a run label; per-generation
    /// `ga_gen` events (including the Eq. 5 hyper-volume series), a `gen`
    /// logical-clock span, and aggregated pool statistics are recorded
    /// under that label.
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

    /// The QoS reference point.
    pub fn reference(&self) -> &[f64] {
        &self.reference
    }

    /// Runs the GA and returns the non-dominated archive of *feasible*
    /// design points discovered across all generations.
    ///
    /// Population evaluation fans out over `params.threads` workers
    /// (`0` = automatic); all RNG-driven variation stays on the master
    /// thread, so the result is bit-identical for every thread count.
    ///
    /// # Panics
    ///
    /// Panics if the problem emits objective vectors whose length differs
    /// from the reference point's.
    pub fn run(&self, seed: u64) -> ParetoArchive<P::Solution> {
        let p = &self.params;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4856_4741_8d5a_11c3);
        let mut archive = ParetoArchive::unbounded();
        let mut pool = clr_par::PoolStats::default();

        let initial: Vec<(P::Solution, Option<Evaluation>)> = (0..p.population)
            .map(|_| (self.problem.random_solution(&mut rng), None))
            .collect();
        let mut pop = self.score_all(initial, &mut archive, &mut pool);
        self.emit_generation(0, &pop, &archive);

        for gen in 0..p.generations {
            let mut children = Vec::with_capacity(p.population);
            while children.len() < p.population {
                let a = self.tournament(&pop, &mut rng);
                let b = self.tournament(&pop, &mut rng);
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
                    .map(|i| pop[i].eval.clone());
                children.push((child, inherited));
            }
            let mut next = self.score_all(children, &mut archive, &mut pool);
            // Elitism: keep the single best of the old generation. The old
            // population is about to be dropped, so swapping the elite into
            // slot 0 is allocation-free (the displaced child was already
            // scored and offered to the archive above).
            if let Some(best) = pop
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| a.fitness.total_cmp(&b.fitness))
                .map(|(i, _)| i)
            {
                std::mem::swap(&mut next[0], &mut pop[best]);
            }
            pop = next;
            self.emit_generation(gen + 1, &pop, &archive);
        }
        if self.obs.enabled() {
            self.obs.emit(Event::Span {
                label: self.label.clone(),
                clock: "gen".to_string(),
                start: 0.0,
                end: p.generations as f64,
            });
            self.obs.emit_nondet(Event::Pool {
                site: format!("moea.hvga.{}", self.label),
                items: pool.items,
                workers: pool.workers,
                per_worker: pool.per_worker,
                queue_hwm: pool.queue_hwm,
            });
        }
        archive
    }

    /// Emits one `ga_gen` journal event (serially, from the master loop)
    /// with the current population and archive statistics, including the
    /// Eq. 5 hyper-volume of the archive w.r.t. the reference point. The
    /// hyper-volume is only computed when observability is enabled, so the
    /// disabled path stays overhead-free.
    fn emit_generation(
        &self,
        gen: usize,
        pop: &[Member<P::Solution>],
        archive: &ParetoArchive<P::Solution>,
    ) {
        if !self.obs.enabled() {
            return;
        }
        let hv = hypervolume(&archive.objectives(), &self.reference).ok();
        self.obs.emit(Event::GaGen {
            algo: "hvga".to_string(),
            label: self.label.clone(),
            gen,
            evals: pop.len(),
            feasible: pop.iter().filter(|m| m.feasible).count(),
            front: archive.len(),
            archive: archive.len(),
            hv,
        });
    }

    /// Evaluates a batch of solutions on the worker pool (children that
    /// inherited a parent's evaluation are not evaluated again), then —
    /// serially, in index order — offers feasible points to the archive
    /// and attaches each solution's signed hyper-volume fitness.
    fn score_all(
        &self,
        brood: Vec<(P::Solution, Option<Evaluation>)>,
        archive: &mut ParetoArchive<P::Solution>,
        pool: &mut clr_par::PoolStats,
    ) -> Vec<Member<P::Solution>> {
        evaluate_brood(&self.problem, self.params.threads, brood, pool)
            .into_iter()
            .map(|(solution, eval)| {
                let (fitness, feasible) = self.score(&eval);
                if feasible {
                    archive.offer(&solution, eval.objectives.clone());
                }
                Member {
                    solution,
                    eval,
                    fitness,
                    feasible,
                }
            })
            .collect()
    }

    /// Signed hyper-volume fitness of one evaluation. Non-finite objective
    /// vectors are treated as hard-infeasible (`-inf` fitness) so they can
    /// never reach the archive or poison comparisons with NaN.
    fn score(&self, eval: &Evaluation) -> (f64, bool) {
        assert_eq!(
            eval.objectives.len(),
            self.reference.len(),
            "objective/reference dimension mismatch"
        );
        if eval.objectives.iter().any(|o| !o.is_finite()) {
            return (f64::NEG_INFINITY, false);
        }
        let mut fitness = signed_hypervolume_fitness(&eval.objectives, &self.reference);
        if !eval.is_feasible() {
            // Problem-level constraint violations (beyond the reference
            // box) push fitness further negative.
            fitness -= eval.violation.max(0.0) * (1.0 + fitness.abs());
        }
        let feasible = eval.is_feasible() && fitness >= 0.0;
        (fitness, feasible)
    }

    fn tournament(&self, pop: &[Member<P::Solution>], rng: &mut StdRng) -> usize {
        let mut best = rng.gen_range(0..pop.len());
        for _ in 1..self.params.tournament.max(1) {
            let c = rng.gen_range(0..pop.len());
            if pop[c].fitness > pop[best].fitness {
                best = c;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    fn unit(rng: &mut dyn RngCore) -> f64 {
        rng.next_u32() as f64 / u32::MAX as f64
    }

    /// min (x, 1−x) — the front is the whole diagonal segment.
    struct Diagonal;
    impl Problem for Diagonal {
        type Solution = f64;
        fn random_solution(&self, rng: &mut dyn RngCore) -> f64 {
            unit(rng) * 2.0
        }
        fn evaluate(&self, x: &f64) -> Evaluation {
            Evaluation::feasible(vec![*x, (1.0 - x).abs()])
        }
        fn crossover(&self, a: &f64, b: &f64, _r: &mut dyn RngCore) -> f64 {
            (a + b) / 2.0
        }
        fn mutate(&self, x: &mut f64, rng: &mut dyn RngCore) {
            *x = (*x + unit(rng) * 0.4 - 0.2).clamp(0.0, 2.0);
        }
    }

    #[test]
    fn archive_respects_reference_box() {
        let hv = HvGa::new(Diagonal, GaParams::small(), vec![0.8, 0.8]);
        let archive = hv.run(2);
        assert!(!archive.is_empty());
        for (_, o) in &archive {
            assert!(o[0] <= 0.8 && o[1] <= 0.8, "{o:?} outside box");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = HvGa::new(Diagonal, GaParams::small(), vec![1.0, 1.0]).run(5);
        let b = HvGa::new(Diagonal, GaParams::small(), vec![1.0, 1.0]).run(5);
        assert_eq!(a.objectives(), b.objectives());
    }

    #[test]
    fn serial_and_parallel_runs_are_bit_identical() {
        for seed in [0u64, 7, 42] {
            let serial = HvGa::new(
                Diagonal,
                GaParams {
                    threads: 1,
                    ..GaParams::small()
                },
                vec![1.0, 1.0],
            )
            .run(seed);
            let parallel = HvGa::new(
                Diagonal,
                GaParams {
                    threads: 4,
                    ..GaParams::small()
                },
                vec![1.0, 1.0],
            )
            .run(seed);
            let a: Vec<Vec<u64>> = serial
                .objectives()
                .iter()
                .map(|o| o.iter().map(|x| x.to_bits()).collect())
                .collect();
            let b: Vec<Vec<u64>> = parallel
                .objectives()
                .iter()
                .map(|o| o.iter().map(|x| x.to_bits()).collect())
                .collect();
            assert_eq!(a, b, "seed {seed}");
        }
    }

    /// Emits a NaN objective for part of the search space; the GA must
    /// treat those candidates as hard-infeasible instead of panicking.
    struct PartiallyNaN;
    impl Problem for PartiallyNaN {
        type Solution = f64;
        fn random_solution(&self, rng: &mut dyn RngCore) -> f64 {
            unit(rng) * 2.0
        }
        fn evaluate(&self, x: &f64) -> Evaluation {
            if *x > 1.0 {
                Evaluation::feasible(vec![f64::NAN, *x])
            } else {
                Evaluation::feasible(vec![*x, 1.0 - x])
            }
        }
        fn crossover(&self, a: &f64, b: &f64, _r: &mut dyn RngCore) -> f64 {
            (a + b) / 2.0
        }
        fn mutate(&self, x: &mut f64, rng: &mut dyn RngCore) {
            *x = (*x + unit(rng) * 0.8 - 0.4).clamp(0.0, 2.0);
        }
    }

    #[test]
    fn nan_objectives_never_reach_the_archive() {
        let archive = HvGa::new(PartiallyNaN, GaParams::small(), vec![1.0, 1.0]).run(11);
        for (_, o) in &archive {
            assert!(o.iter().all(|x| x.is_finite()), "{o:?} archived");
        }
    }

    #[test]
    fn obs_records_one_ga_gen_per_generation_with_hv_series() {
        use clr_obs::{Event, Obs, ObsMode};
        let obs = Obs::new(ObsMode::Json);
        let params = GaParams::small();
        HvGa::new(Diagonal, params, vec![1.0, 1.0])
            .with_obs(obs.clone(), "unit-hv")
            .run(5);
        let events = obs.det_events();
        let gens: Vec<&Event> = events
            .iter()
            .filter(|e| matches!(e, Event::GaGen { .. }))
            .collect();
        // Initial population + one per generation.
        assert_eq!(gens.len(), params.generations + 1);
        for (i, e) in gens.iter().enumerate() {
            let Event::GaGen {
                algo,
                label,
                gen,
                evals,
                hv,
                ..
            } = e
            else {
                unreachable!()
            };
            assert_eq!(algo, "hvga");
            assert_eq!(label, "unit-hv");
            assert_eq!(*gen, i);
            assert_eq!(*evals, params.population);
            assert!(hv.is_some(), "hyper-volume series must be populated");
        }
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::Span { clock, .. } if clock == "gen")));
    }

    #[test]
    fn obs_instrumentation_does_not_change_results() {
        let plain = HvGa::new(Diagonal, GaParams::small(), vec![1.0, 1.0]).run(5);
        let observed = HvGa::new(Diagonal, GaParams::small(), vec![1.0, 1.0])
            .with_obs(clr_obs::Obs::new(clr_obs::ObsMode::Json), "x")
            .run(5);
        assert_eq!(plain.objectives(), observed.objectives());
    }

    #[test]
    fn infeasible_reference_yields_empty_archive() {
        // Objectives are x and |1−x|, both can't be below 0.2 at once
        // (their sum is ≥ 1 for x ≤ 1... but x can exceed 1: then o0 > 1 >
        // 0.2). With ref (0.2, 0.2) nothing is feasible.
        let hv = HvGa::new(Diagonal, GaParams::small(), vec![0.2, 0.2]);
        let archive = hv.run(3);
        assert!(archive.is_empty());
    }
}
