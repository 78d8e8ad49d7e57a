//! System-level QoS and performance estimation (paper Table 3).

use std::sync::Arc;

use clr_platform::Platform;
use clr_reliability::{AswMethod, ConfigSpace, FaultModel, HwMethod, SswMethod, TaskMetrics};
use clr_taskgraph::{TaskGraph, TaskId};
use serde::{Deserialize, Serialize};

use crate::{list_schedule, Mapping, Schedule};

/// The Table-3 system-level metrics of one design point `X_i`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemMetrics {
    /// Average makespan `S_app` (Eq. 1).
    pub makespan: f64,
    /// Functional reliability `F_app ∈ (0, 1]` (Eq. 2).
    pub reliability: f64,
    /// Average energy `J_app = Σ AvgExT_t · W_t` (Eq. 3).
    pub energy: f64,
    /// Peak power `W_app` over the schedule (Eq. 3).
    pub peak_power: f64,
    /// Mean of the per-task MTTFs (lifetime indicator; optional objective).
    pub mean_mttf: f64,
}

impl SystemMetrics {
    /// The run-time performance `R(X_i) = −J_app` of Eq. (4): higher is
    /// better, energy reduction signifies improved performance.
    pub fn performance(&self) -> f64 {
        -self.energy
    }

    /// Application error rate `1 − F_app` (the QoS metric Fig. 1 plots).
    pub fn error_rate(&self) -> f64 {
        1.0 - self.reliability
    }
}

/// Size of the CLR method catalogue `HwMethod::ALL × SswMethod::COMMON ×
/// AswMethod::ALL` that [`clr_reliability::ClrConfig::catalogue_index`]
/// numbers.
const CATALOGUE: usize = HwMethod::ALL.len() * SswMethod::COMMON.len() * AswMethod::ALL.len();

/// Evaluation context binding a task graph, a platform and a fault model.
///
/// Pre-computes the task criticalities `ζ_t` and a lookup table of the
/// Table-2 metrics of every task implementation on its target PE type
/// under every configuration of the CLR method catalogue, filled by
/// [`TaskMetrics::evaluate`] itself; every call to
/// [`Evaluator::evaluate`] reads each task's metrics from it,
/// list-schedules with the average execution times and aggregates
/// Table 3.
///
/// # Examples
///
/// ```
/// use clr_platform::Platform;
/// use clr_reliability::FaultModel;
/// use clr_sched::{Evaluator, Mapping};
/// use clr_taskgraph::jpeg_encoder;
///
/// let g = jpeg_encoder();
/// let p = Platform::dac19();
/// let eval = Evaluator::new(&g, &p, FaultModel::default());
/// let m = Mapping::first_fit(&g, &p).unwrap();
/// let sm = eval.evaluate(&m);
/// assert!(sm.error_rate() < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Evaluator<'a> {
    graph: &'a TaskGraph,
    platform: &'a Platform,
    fault_model: FaultModel,
    criticality: Vec<f64>,
    /// Per task, the table row of its first implementation; implementation
    /// `i` of task `t` owns row `rows[t] + i`.
    rows: Vec<usize>,
    /// Row-major `[row][catalogue index]` Table-2 metrics, shared by
    /// clones.
    table: Arc<[TaskMetrics]>,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator for one `(graph, platform, environment)` and
    /// fills its task-metrics table.
    pub fn new(graph: &'a TaskGraph, platform: &'a Platform, fault_model: FaultModel) -> Self {
        let criticality = graph.criticalities();
        let catalogue = ConfigSpace::fine();
        debug_assert_eq!(catalogue.len(), CATALOGUE);
        let mut rows = Vec::with_capacity(graph.num_tasks());
        let mut table = Vec::new();
        for t in graph.task_ids() {
            rows.push(table.len() / CATALOGUE);
            for im in graph.implementations(t) {
                match platform.pe_types().get(im.pe_type().index()) {
                    Some(pe_type) => table.extend(
                        catalogue
                            .configs()
                            .iter()
                            .map(|cfg| TaskMetrics::evaluate(im, pe_type, cfg, &fault_model)),
                    ),
                    // The platform lacks the target type, so a gene can only
                    // put this implementation on a PE of another type, which
                    // never reads the table: the row is a placeholder.
                    None => table.extend(std::iter::repeat_n(UNREAD, CATALOGUE)),
                }
            }
        }
        Self {
            graph,
            platform,
            fault_model,
            criticality,
            rows,
            table: table.into(),
        }
    }

    /// The bound task graph.
    pub fn graph(&self) -> &'a TaskGraph {
        self.graph
    }

    /// The bound platform.
    pub fn platform(&self) -> &'a Platform {
        self.platform
    }

    /// The fault model in effect.
    pub fn fault_model(&self) -> &FaultModel {
        &self.fault_model
    }

    /// The normalised task criticalities `ζ_t`.
    pub fn criticalities(&self) -> &[f64] {
        &self.criticality
    }

    /// Table-2 metrics of task `t` under `mapping`'s choices: bit for bit
    /// [`TaskMetrics::evaluate`] of the gene's implementation on its PE's
    /// type. Read from the table; computed afresh for a configuration off
    /// the catalogue or a PE whose type is not the implementation's
    /// target type.
    ///
    /// # Panics
    ///
    /// Panics if the mapping is invalid for the bound graph/platform.
    pub fn task_metrics(&self, mapping: &Mapping, t: TaskId) -> TaskMetrics {
        let gene = mapping.gene(t);
        let im = self.graph.implementation(t, gene.impl_id);
        let pe_type = self.platform.pe(gene.pe).type_id();
        if pe_type == im.pe_type() {
            if let Some(c) = gene.clr.catalogue_index() {
                let row = self.rows[t.index()] + gene.impl_id.index();
                return self.table[row * CATALOGUE + c];
            }
        }
        TaskMetrics::evaluate(
            im,
            self.platform.pe_type(pe_type),
            &gene.clr,
            &self.fault_model,
        )
    }

    /// Evaluates the full Table-3 system metrics of a mapping.
    ///
    /// # Panics
    ///
    /// Panics if the mapping is invalid for the bound graph/platform
    /// (validate first; the DSE only generates valid mappings).
    pub fn evaluate(&self, mapping: &Mapping) -> SystemMetrics {
        self.evaluate_with_schedule(mapping).0
    }

    /// Like [`Evaluator::evaluate`] but also exposes the schedule (useful
    /// for traces and Gantt output).
    pub fn evaluate_with_schedule(&self, mapping: &Mapping) -> (SystemMetrics, Schedule) {
        let n = self.graph.num_tasks();
        let mut task_metrics = Vec::with_capacity(n);
        for t in self.graph.task_ids() {
            task_metrics.push(self.task_metrics(mapping, t));
        }
        let times: Vec<f64> = task_metrics.iter().map(|m| m.avg_ex_t).collect();
        let schedule = list_schedule(self.graph, mapping, &times);

        // Eq. 1: makespan.
        let makespan = schedule.makespan();

        // Eq. 2: criticality-weighted functional reliability.
        let reliability: f64 = task_metrics
            .iter()
            .zip(&self.criticality)
            .map(|(m, z)| z * m.reliability())
            .sum();

        // Eq. 3: energy and peak power.
        let energy: f64 = task_metrics.iter().map(TaskMetrics::energy).sum();
        let peak_power = peak_power(&schedule, &task_metrics);

        let mean_mttf = task_metrics.iter().map(|m| m.mttf).sum::<f64>() / n.max(1) as f64;

        (
            SystemMetrics {
                makespan,
                reliability,
                energy,
                peak_power,
                mean_mttf,
            },
            schedule,
        )
    }
}

/// The placeholder of a table row no lookup reads.
const UNREAD: TaskMetrics = TaskMetrics {
    min_ex_t: f64::NAN,
    avg_ex_t: f64::NAN,
    err_prob: f64::NAN,
    power_mw: f64::NAN,
    eta: f64::NAN,
    mttf: f64::NAN,
};

/// Peak instantaneous power: the maximum over time of the summed power of
/// concurrently executing tasks (Eq. 3's `W_app`), computed by sweeping
/// task start/end events.
fn peak_power(schedule: &Schedule, metrics: &[TaskMetrics]) -> f64 {
    let mut events: Vec<(f64, f64)> = Vec::with_capacity(schedule.entries().len() * 2);
    for e in schedule.entries() {
        let w = metrics[e.task.index()].power_mw;
        events.push((e.start, w));
        events.push((e.end, -w));
    }
    // Ends before starts at the same instant so touching intervals do not
    // double-count. Events equal under this order are equal bit for bit,
    // so the unstable sort sums them in the same sequence as a stable one.
    events.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut current = 0.0f64;
    let mut peak = 0.0f64;
    for (_, dw) in events {
        current += dw;
        if current > peak {
            peak = current;
        }
    }
    peak
}

#[cfg(test)]
mod tests {
    use super::*;
    use clr_platform::{PeId, PeTypeId};
    use clr_reliability::{AswMethod, ClrConfig, HwMethod, SswMethod};
    use clr_taskgraph::{jpeg_encoder, ImplId, SwStack};

    fn setup() -> (TaskGraph, Platform) {
        (jpeg_encoder(), Platform::dac19())
    }

    use clr_taskgraph::TaskGraph;

    #[test]
    fn reliability_is_weighted_mean_of_task_reliabilities() {
        let (g, p) = setup();
        let eval = Evaluator::new(&g, &p, FaultModel::default());
        let m = Mapping::first_fit(&g, &p).unwrap();
        let sm = eval.evaluate(&m);
        let manual: f64 = g
            .task_ids()
            .zip(eval.criticalities())
            .map(|(t, &z)| z * eval.task_metrics(&m, t).reliability())
            .sum();
        assert!((sm.reliability - manual).abs() < 1e-12);
    }

    #[test]
    fn clr_mitigation_raises_reliability_and_energy() {
        let (g, p) = setup();
        let eval = Evaluator::new(&g, &p, FaultModel::new(2e-3, 1e6, 1.0));
        let bare = Mapping::first_fit(&g, &p).unwrap();
        let mut protected = bare.clone();
        for gene in protected.genes_mut() {
            gene.clr = ClrConfig::new(
                HwMethod::FullTmr,
                SswMethod::Retry { max_retries: 2 },
                AswMethod::Checksum,
            );
        }
        let sm_bare = eval.evaluate(&bare);
        let sm_prot = eval.evaluate(&protected);
        assert!(sm_prot.reliability > sm_bare.reliability);
        assert!(sm_prot.energy > sm_bare.energy);
    }

    #[test]
    fn peak_power_counts_only_concurrent_tasks() {
        let (g, p) = setup();
        let eval = Evaluator::new(&g, &p, FaultModel::default());
        // All tasks serialised on one compatible PE per task type — use
        // first_fit and force every gene onto its current PE but with the
        // same priority ordering; the serial case on a single PE gives peak
        // == max task power.
        let m = Mapping::first_fit(&g, &p).unwrap();
        let single_pe = m.genes()[0].pe;
        let all_same = m.genes().iter().all(|gene| gene.pe == single_pe);
        let sm = eval.evaluate(&m);
        let max_task_power = g
            .task_ids()
            .map(|t| eval.task_metrics(&m, t).power_mw)
            .fold(0.0, f64::max);
        if all_same {
            assert!((sm.peak_power - max_task_power).abs() < 1e-9);
        } else {
            assert!(sm.peak_power >= max_task_power - 1e-9);
        }
    }

    #[test]
    fn spreading_load_shortens_makespan() {
        let (g, p) = setup();
        let eval = Evaluator::new(&g, &p, FaultModel::default());
        let m = Mapping::first_fit(&g, &p).unwrap();
        // Serialise everything implementable on PE0's type onto PE0's
        // sibling-free schedule vs the first-fit spread: spread must not be
        // worse when first_fit already spreads across types.
        let sm = eval.evaluate(&m);
        // Move the four DCT tasks across the two type-1 PEs (ids depend on
        // preset: type 1 PEs are indices 2 and 3).
        let mut spread = m.clone();
        for (i, t) in (1..=4).enumerate() {
            spread.genes_mut()[t].pe = PeId::new(2 + (i % 2));
        }
        if spread.validate(&g, &p).is_ok() {
            let sm2 = eval.evaluate(&spread);
            assert!(sm2.makespan <= sm.makespan + 1e-9);
        }
    }

    #[test]
    fn an_implementation_for_a_missing_pe_type_is_computed_afresh() {
        // Each task also has an implementation for PE type 5, which the
        // one-type tiny platform lacks.
        let mut b = clr_taskgraph::TaskGraphBuilder::new("two-types", 100.0);
        for i in 0..2 {
            b.task(format!("t{i}"))
                .implementation(PeTypeId::new(5), SwStack::Rtos, 30.0)
                .implementation(PeTypeId::new(0), SwStack::Rtos, 40.0);
        }
        b.edge(0.into(), 1.into(), 2.0, 4.0);
        let g = b.build().unwrap();
        let p = Platform::tiny();
        let fm = FaultModel::new(2e-3, 1e6, 1.0);
        let eval = Evaluator::new(&g, &p, fm);
        let mut m = Mapping::first_fit(&g, &p).unwrap();
        m.genes_mut()[0].impl_id = ImplId::new(0);
        for t in g.task_ids() {
            let gene = m.gene(t);
            let direct = TaskMetrics::evaluate(
                g.implementation(t, gene.impl_id),
                p.type_of(gene.pe),
                &gene.clr,
                &fm,
            );
            assert_eq!(eval.task_metrics(&m, t).to_bits(), direct.to_bits());
        }
        assert!(eval.evaluate(&m).makespan.is_finite());
    }

    #[test]
    fn performance_is_negated_energy() {
        let (g, p) = setup();
        let eval = Evaluator::new(&g, &p, FaultModel::default());
        let m = Mapping::first_fit(&g, &p).unwrap();
        let sm = eval.evaluate(&m);
        assert_eq!(sm.performance(), -sm.energy);
        assert!((sm.error_rate() + sm.reliability - 1.0).abs() < 1e-12);
    }
}
