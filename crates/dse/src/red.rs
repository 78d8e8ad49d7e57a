//! Run-time-reconfiguration-cost-aware DSE — **ReD** (paper §4.2.1,
//! Fig. 4b).
//!
//! Rationale: when the QoS requirement moves from `S` to `S'`, adapting
//! between pure Pareto points (`F_Op → F'_Op`) can migrate many tasks.
//! Some *non-dominant* point `F''_Op` may satisfy the new requirement at a
//! far smaller reconfiguration distance from wherever the system currently
//! sits. This stage grows the database with exactly such points: each
//! Pareto point seeds a neighbourhood GA whose extra objective is the
//! average `dRC` to the Pareto set, under a bounded tolerance on the
//! degradation of the seed's own QoS/performance metrics.

use std::sync::{Mutex, PoisonError};

use clr_moea::{Evaluation, GaParams, Nsga2, Problem};
use clr_obs::{Event, Obs};
use clr_platform::Platform;
use clr_reliability::{ConfigSpace, FaultModel};
use clr_sched::{DrcBuffers, DrcSources, Mapping};
use clr_taskgraph::TaskGraph;
use rand::RngCore;
use serde::{Deserialize, Serialize};

use crate::{ClrMappingProblem, DesignPoint, DesignPointDb, ExplorationMode, PointOrigin};

/// Configuration of the reconfiguration-cost-aware stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RedConfig {
    /// Tolerated relative degradation of each of the seed point's
    /// objectives (paper: "within some tolerance limit w.r.t. the
    /// degradation of that point's QoS metrics and R(X_i)").
    pub tolerance: f64,
    /// GA parameters of each per-seed neighbourhood search.
    pub ga: GaParams,
    /// At most this many additional points are kept per seed (the lowest
    /// average-`dRC` candidates).
    pub max_extra_per_seed: usize,
    /// Storage constraint on the *whole* ReD database (paper Fig. 3): when
    /// set, the lowest-value extras (highest average `dRC`) are dropped
    /// until BaseD + extras fit the budget. BaseD points are never dropped.
    pub max_total: Option<usize>,
}

impl Default for RedConfig {
    fn default() -> Self {
        Self {
            tolerance: 0.15,
            ga: GaParams {
                population: 40,
                generations: 20,
                ..GaParams::default()
            },
            max_extra_per_seed: 3,
            max_total: None,
        }
    }
}

/// Runs the reconfiguration-cost-aware stage over a BaseD database and
/// returns **ReD**: every BaseD point plus the additional low-`dRC`
/// non-dominant points.
///
/// # Panics
///
/// Panics if `based` is empty (there is nothing to seed from) or its
/// mappings do not fit the graph/platform.
///
/// # Stored metrics
///
/// Each BaseD point's stored `metrics` stand for its evaluation: the
/// seed's tolerance band is read from them, not recomputed. `based` must
/// therefore have been evaluated on this `graph` and `platform` under
/// this `fault_model`, as [`crate::explore_based`] given the same
/// arguments does. A database evaluated under another fault model gives
/// different bands without any error in release builds; debug builds
/// re-evaluate each seed and assert that its objectives match.
// Mirrors `explore_based`'s parameter list plus the seed database; a
// params struct would just restate the problem definition.
#[allow(clippy::too_many_arguments)]
pub fn explore_red(
    graph: &TaskGraph,
    platform: &Platform,
    fault_model: FaultModel,
    config_space: ConfigSpace,
    mode: ExplorationMode,
    based: &DesignPointDb,
    config: &RedConfig,
    seed: u64,
) -> DesignPointDb {
    explore_red_with(
        graph,
        platform,
        fault_model,
        config_space,
        mode,
        based,
        config,
        seed,
        &Obs::off(),
    )
}

/// [`explore_red`] with journal instrumentation: one `red_seed` event per
/// BaseD seed point (candidates found below the seed's average `dRC`, and
/// how many were actually kept after dedup), emitted in seed order from
/// the serial merge, plus a `dse_stage` summary and aggregated pool
/// statistics for the per-seed fan-out. The inner neighbourhood GAs stay
/// un-instrumented — they run on worker threads. With a disabled handle
/// this is exactly [`explore_red`].
///
/// # Panics
///
/// Panics if `based` is empty (there is nothing to seed from) or its
/// mappings do not fit the graph/platform. `based` must carry metrics
/// evaluated under these arguments; see [`explore_red`].
#[allow(clippy::too_many_arguments)]
pub fn explore_red_with(
    graph: &TaskGraph,
    platform: &Platform,
    fault_model: FaultModel,
    config_space: ConfigSpace,
    mode: ExplorationMode,
    based: &DesignPointDb,
    config: &RedConfig,
    seed: u64,
    obs: &Obs,
) -> DesignPointDb {
    assert!(!based.is_empty(), "based database must not be empty");
    let based_sources = DrcSources::new(graph, based.iter().map(|p| &p.mapping));

    let mut db = DesignPointDb::new("red");
    for p in based {
        db.push(p.clone());
    }

    // Per-seed neighbourhood searches are independent: fan them out over
    // the worker pool (`config.ga.threads`, `0` = automatic) and merge the
    // resulting candidate lists serially in seed order, so the database is
    // bit-identical for every thread count. Each inner GA runs serially
    // (threads = 1) — the parallelism budget is spent across seeds.
    let inner_ga = GaParams {
        threads: 1,
        ..config.ga
    };
    // One problem, and so one task-metrics table, serves every seed.
    let inner = ClrMappingProblem::new(graph, platform, fault_model, config_space, mode);
    let seed_points: Vec<&DesignPoint> = based.iter().collect();
    let (per_seed, pool) =
        clr_par::par_map_stats(config.ga.threads, &seed_points, |i, seed_point| {
            // The seed's stored metrics are its evaluation; no need to
            // schedule it again.
            let seed_objs = mode.objectives_of(&seed_point.metrics);
            debug_assert_eq!(
                seed_objs,
                inner.objectives(&seed_point.mapping),
                "BaseD point {i}'s stored metrics disagree with a fresh evaluation"
            );
            let mut drc_buffers = DrcBuffers::default();
            let seed_avg_drc = average_drc(
                graph,
                platform,
                &based_sources,
                &seed_point.mapping,
                &mut drc_buffers,
            );
            let problem = RedProblem {
                inner: &inner,
                graph,
                platform,
                seed_mapping: seed_point.mapping.clone(),
                seed_objectives: seed_objs,
                based_sources: &based_sources,
                drc_buffers: Mutex::new(drc_buffers),
                tolerance: config.tolerance,
            };
            let front = Nsga2::new(problem, inner_ga).run(seed.wrapping_add(i as u64 * 7919));

            // Keep the candidates that actually beat the seed on average dRC.
            let mut candidates: Vec<(Mapping, f64)> = front
                .into_iter()
                .filter(clr_moea::Individual::is_feasible)
                .map(|ind| {
                    let drc = *ind.objectives.last().expect("red problem appends drc");
                    (ind.solution, drc)
                })
                .filter(|(_, drc)| *drc + 1e-9 < seed_avg_drc)
                .collect();
            candidates.sort_by(|a, b| a.1.total_cmp(&b.1));
            let found = candidates.len();
            let points = candidates
                .into_iter()
                .take(config.max_extra_per_seed)
                .map(|(mapping, _)| {
                    let metrics = inner.evaluator().evaluate(&mapping);
                    DesignPoint::new(mapping, metrics, PointOrigin::ReconfigAware)
                })
                .collect::<Vec<DesignPoint>>();
            (found, points)
        });
    // Serial merge in seed order: the journal events (and the database) are
    // bit-identical for every thread count.
    for (index, (candidates, points)) in per_seed.into_iter().enumerate() {
        let mut kept = 0usize;
        for point in points {
            if db.push_if_new(point) {
                kept += 1;
            }
        }
        if obs.enabled() {
            obs.emit(Event::RedSeed {
                index,
                candidates,
                kept,
            });
        }
    }

    // Honour the total storage constraint: extras are evicted worst (highest
    // average dRC to the Pareto set) first; Pareto points always survive.
    if let Some(cap) = config.max_total {
        let mut buffers = DrcBuffers::default();
        db = evict_extras(db, cap.max(based.len()), |p| {
            average_drc(graph, platform, &based_sources, &p.mapping, &mut buffers)
        });
    }
    if obs.enabled() {
        obs.emit_nondet(Event::Pool {
            site: "red.seeds".to_string(),
            items: pool.items,
            workers: pool.workers,
            per_worker: pool.per_worker,
            queue_hwm: pool.queue_hwm,
        });
        obs.emit(Event::DseStage {
            stage: "red".to_string(),
            points: db.len(),
        });
        obs.gauge_set("dse.red.points", db.len() as f64);
    }
    db
}

/// Drops reconfiguration-aware points until at most `cap` remain (or none
/// of them is left), worst `drc` first; ties go to the later point. Each
/// point's `drc` is computed once, and the survivors keep their order.
fn evict_extras(
    db: DesignPointDb,
    cap: usize,
    mut drc: impl FnMut(&DesignPoint) -> f64,
) -> DesignPointDb {
    let excess = db.len().saturating_sub(cap);
    if excess == 0 {
        return db;
    }
    let mut extras: Vec<(usize, f64)> = db
        .iter()
        .enumerate()
        .filter(|(_, p)| p.origin == PointOrigin::ReconfigAware)
        .map(|(i, p)| (i, drc(p)))
        .collect();
    extras.sort_by(|a, b| b.1.total_cmp(&a.1).then(b.0.cmp(&a.0)));
    let mut evicted = vec![false; db.len()];
    for &(i, _) in extras.iter().take(excess) {
        evicted[i] = true;
    }
    let mut kept = DesignPointDb::new(db.name().to_string());
    for (p, gone) in db.points().iter().zip(evicted) {
        if !gone {
            kept.push(p.clone());
        }
    }
    kept
}

/// Mean reconfiguration cost of adapting from each source mapping to
/// `to`: the per-source totals summed in source order.
pub(crate) fn average_drc(
    graph: &TaskGraph,
    platform: &Platform,
    sources: &DrcSources,
    to: &Mapping,
    buffers: &mut DrcBuffers,
) -> f64 {
    if sources.is_empty() {
        return 0.0;
    }
    sources
        .totals(graph, platform, to, buffers)
        .iter()
        .sum::<f64>()
        / sources.len() as f64
}

/// The per-seed neighbourhood problem: the inner mapping objectives plus
/// the average `dRC` to the Pareto set, constrained to the tolerance band
/// around the seed point.
struct RedProblem<'a> {
    inner: &'a ClrMappingProblem<'a>,
    graph: &'a TaskGraph,
    platform: &'a Platform,
    seed_mapping: Mapping,
    seed_objectives: Vec<f64>,
    based_sources: &'a DrcSources,
    /// `evaluate` takes `&self`; the inner GA runs serially, so the lock
    /// is never contended.
    drc_buffers: Mutex<DrcBuffers>,
    tolerance: f64,
}

impl Problem for RedProblem<'_> {
    type Solution = Mapping;

    fn random_solution(&self, rng: &mut dyn RngCore) -> Mapping {
        // Neighbourhood initialisation: a lightly mutated copy of the seed.
        let mut m = self.seed_mapping.clone();
        let hops = (rng.next_u32() % 4) + 1;
        for _ in 0..hops {
            self.inner.mutate(&mut m, rng);
        }
        m
    }

    fn evaluate(&self, mapping: &Mapping) -> Evaluation {
        let inner_eval = self.inner.evaluate(mapping);
        let mut violation = inner_eval.violation;
        // Tolerance band around the seed's objectives.
        for (o, s) in inner_eval.objectives.iter().zip(&self.seed_objectives) {
            let bound = if *s >= 0.0 {
                s * (1.0 + self.tolerance) + 1e-12
            } else {
                s * (1.0 - self.tolerance)
            };
            if *o > bound {
                let scale = s.abs().max(1e-9);
                violation += (o - bound) / scale;
            }
        }
        let drc = average_drc(
            self.graph,
            self.platform,
            self.based_sources,
            mapping,
            &mut self
                .drc_buffers
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        let mut objectives = inner_eval.objectives;
        objectives.push(drc);
        Evaluation::with_violation(objectives, violation)
    }

    fn crossover(&self, a: &Mapping, b: &Mapping, rng: &mut dyn RngCore) -> Mapping {
        self.inner.crossover(a, b, rng)
    }

    fn mutate(&self, mapping: &mut Mapping, rng: &mut dyn RngCore) {
        self.inner.mutate(mapping, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{explore_based, DseConfig};
    use clr_taskgraph::{TgffConfig, TgffGenerator};

    fn pipeline(seed: u64) -> (DesignPointDb, DesignPointDb) {
        let graph = TgffGenerator::new(TgffConfig::with_tasks(10)).generate(seed);
        let platform = Platform::dac19();
        let fm = FaultModel::default();
        let dse_cfg = DseConfig {
            ga: GaParams::small(),
            mode: ExplorationMode::Csp,
            reference: None,
            max_points: None,
        };
        let based = explore_based(&graph, &platform, fm, ConfigSpace::fine(), &dse_cfg, seed);
        let red_cfg = RedConfig {
            ga: GaParams::small(),
            ..RedConfig::default()
        };
        let red = explore_red(
            &graph,
            &platform,
            fm,
            ConfigSpace::fine(),
            ExplorationMode::Csp,
            &based,
            &red_cfg,
            seed,
        );
        (based, red)
    }

    #[test]
    fn red_contains_every_based_point() {
        let (based, red) = pipeline(5);
        assert!(red.len() >= based.len());
        for p in &based {
            assert!(
                red.iter().any(|q| q.metrics == p.metrics),
                "based point missing from red"
            );
        }
    }

    #[test]
    fn serial_and_parallel_red_runs_are_bit_identical() {
        let graph = TgffGenerator::new(TgffConfig::with_tasks(8)).generate(3);
        let platform = Platform::dac19();
        let fm = FaultModel::default();
        let dse_cfg = DseConfig {
            ga: GaParams::small(),
            mode: ExplorationMode::Csp,
            reference: None,
            max_points: None,
        };
        let based = explore_based(&graph, &platform, fm, ConfigSpace::fine(), &dse_cfg, 3);
        let run = |threads: usize| {
            let red_cfg = RedConfig {
                ga: GaParams {
                    threads,
                    ..GaParams::small()
                },
                ..RedConfig::default()
            };
            explore_red(
                &graph,
                &platform,
                fm,
                ConfigSpace::fine(),
                ExplorationMode::Csp,
                &based,
                &red_cfg,
                3,
            )
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(parallel.iter()) {
            assert_eq!(a.mapping, b.mapping);
            assert_eq!(a.metrics, b.metrics);
            assert_eq!(a.origin, b.origin);
        }
    }

    #[test]
    fn red_extras_are_marked() {
        let (based, red) = pipeline(6);
        let extras = red.count_origin(PointOrigin::ReconfigAware);
        assert_eq!(red.len(), based.len() + extras);
    }

    #[test]
    fn obs_journals_one_red_seed_event_per_based_point() {
        let graph = TgffGenerator::new(TgffConfig::with_tasks(8)).generate(4);
        let platform = Platform::dac19();
        let fm = FaultModel::default();
        let dse_cfg = DseConfig {
            ga: GaParams::small(),
            mode: ExplorationMode::Csp,
            reference: None,
            max_points: None,
        };
        let based = explore_based(&graph, &platform, fm, ConfigSpace::fine(), &dse_cfg, 4);
        let red_cfg = RedConfig {
            ga: GaParams::small(),
            ..RedConfig::default()
        };
        let obs = Obs::new(clr_obs::ObsMode::Json);
        let red = explore_red_with(
            &graph,
            &platform,
            fm,
            ConfigSpace::fine(),
            ExplorationMode::Csp,
            &based,
            &red_cfg,
            4,
            &obs,
        );
        let events = obs.det_events();
        let seeds: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                Event::RedSeed {
                    index,
                    candidates,
                    kept,
                } => Some((*index, *candidates, *kept)),
                _ => None,
            })
            .collect();
        assert_eq!(seeds.len(), based.len());
        // Seed events arrive in seed order and never keep more than found.
        for (i, (index, candidates, kept)) in seeds.iter().enumerate() {
            assert_eq!(*index, i);
            assert!(kept <= candidates);
        }
        let total_kept: usize = seeds.iter().map(|(_, _, k)| k).sum();
        assert_eq!(red.len(), based.len() + total_kept);
        assert!(events.iter().any(|e| matches!(
            e,
            Event::DseStage { stage, points } if stage == "red" && *points == red.len()
        )));
    }

    /// A point whose mapping is `first_fit` with the first task rebound
    /// to the other PE of its type when `moved`, that task's CLR
    /// configuration set to `clr` and its priority raised by `priority`;
    /// `tag` keeps the metrics distinct.
    fn variant(
        graph: &TaskGraph,
        platform: &Platform,
        moved: bool,
        clr: clr_reliability::ClrConfig,
        priority: u32,
        tag: f64,
        origin: PointOrigin,
    ) -> DesignPoint {
        let mut m = Mapping::first_fit(graph, platform).unwrap();
        let gene = &mut m.genes_mut()[0];
        if moved {
            let ty = platform.pe(gene.pe).type_id();
            gene.pe = platform
                .pe_ids()
                .find(|&id| id != gene.pe && platform.pe(id).type_id() == ty)
                .expect("dac19 has two PEs per general-purpose type");
        }
        gene.clr = clr;
        gene.priority += priority;
        let metrics = clr_sched::SystemMetrics {
            makespan: 100.0 + tag,
            reliability: 0.9,
            energy: 10.0 + tag,
            peak_power: 1.0,
            mean_mttf: 100.0,
        };
        DesignPoint::new(m, metrics, origin)
    }

    /// The eviction loop `evict_extras` replaced: one `max_by` over the
    /// extras per evicted point.
    fn evict_one_at_a_time(
        mut db: DesignPointDb,
        cap: usize,
        drc: impl Fn(&DesignPoint) -> f64,
    ) -> DesignPointDb {
        while db.len() > cap {
            let Some(victim) = db
                .iter()
                .enumerate()
                .filter(|(_, p)| p.origin == PointOrigin::ReconfigAware)
                .max_by(|(_, a), (_, b)| drc(a).total_cmp(&drc(b)))
                .map(|(i, _)| i)
            else {
                break;
            };
            let mut pruned = DesignPointDb::new(db.name().to_string());
            for (j, p) in db.iter().enumerate() {
                if j != victim {
                    pruned.push(p.clone());
                }
            }
            db = pruned;
        }
        db
    }

    #[test]
    fn eviction_ties_go_to_the_later_extra() {
        use clr_reliability::{AswMethod, ClrConfig, HwMethod, SswMethod};
        let graph = TgffGenerator::new(TgffConfig::with_tasks(6)).generate(2);
        let platform = Platform::dac19();
        let tmr = ClrConfig::new(HwMethod::FullTmr, SswMethod::None, AswMethod::Checksum);
        let pareto = variant(
            &graph,
            &platform,
            false,
            ClrConfig::NONE,
            0,
            0.0,
            PointOrigin::Pareto,
        );
        let based = DrcSources::new(&graph, [&pareto.mapping]);
        // Two equal-dRC pairs: one differs only in the CLR configuration,
        // the other only in the priority. Moving costs dRC, so the moved
        // pair is worse than the unmoved one.
        let extras = [
            (true, ClrConfig::NONE, 0),
            (false, ClrConfig::NONE, 0),
            (true, tmr, 0),
            (false, ClrConfig::NONE, 5),
        ];
        let mut db = DesignPointDb::new("red");
        db.push(pareto.clone());
        for (k, &(moved, clr, priority)) in extras.iter().enumerate() {
            let tag = 1.0 + k as f64;
            db.push(variant(
                &graph,
                &platform,
                moved,
                clr,
                priority,
                tag,
                PointOrigin::ReconfigAware,
            ));
        }
        let drc = |p: &DesignPoint| {
            average_drc(
                &graph,
                &platform,
                &based,
                &p.mapping,
                &mut DrcBuffers::default(),
            )
        };
        assert_eq!(drc(&db.points()[1]), drc(&db.points()[3]));
        assert!(drc(&db.points()[1]) > 0.0);
        assert_eq!(drc(&db.points()[2]), drc(&db.points()[4]));

        let makespans =
            |db: &DesignPointDb| -> Vec<f64> { db.iter().map(|p| p.metrics.makespan).collect() };
        // One eviction: the later of the worst pair (the CLR variant).
        let one = evict_extras(db.clone(), 4, drc);
        assert_eq!(makespans(&one), [100.0, 101.0, 102.0, 104.0]);
        // Three: then the earlier of the worst pair, then the later of
        // the free pair (the priority variant).
        let three = evict_extras(db.clone(), 2, drc);
        assert_eq!(makespans(&three), [100.0, 102.0]);
        // A cap below the Pareto points drops every extra, no more.
        let all = evict_extras(db.clone(), 0, drc);
        assert_eq!(makespans(&all), [100.0]);
        for cap in 0..=db.len() {
            assert_eq!(
                evict_extras(db.clone(), cap, drc),
                evict_one_at_a_time(db.clone(), cap, drc),
                "cap {cap}"
            );
        }
    }

    #[test]
    fn average_drc_of_member_counts_self_as_zero() {
        let graph = TgffGenerator::new(TgffConfig::with_tasks(8)).generate(1);
        let platform = Platform::dac19();
        let m = Mapping::first_fit(&graph, &platform).unwrap();
        let mut buffers = DrcBuffers::default();
        let sources = DrcSources::new(&graph, [&m]);
        let d = average_drc(&graph, &platform, &sources, &m, &mut buffers);
        assert_eq!(d, 0.0);
        let none = DrcSources::new(&graph, []);
        assert_eq!(average_drc(&graph, &platform, &none, &m, &mut buffers), 0.0);
    }
}
