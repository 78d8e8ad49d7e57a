//! Static list scheduling of a mapping onto a platform.
//!
//! CLR-integrated task scheduling (paper §3.4) executes every task's chosen
//! implementation, with its CLR configuration, on its bound PE in priority
//! order. The resulting schedule yields the average start/end execution
//! times `SST_t` / `SET_t` that Table 3's estimations consume.

use clr_taskgraph::{TaskGraph, TaskId};
use serde::{Deserialize, Serialize};

use crate::Mapping;

/// One scheduled task occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduleEntry {
    /// The scheduled task.
    pub task: TaskId,
    /// Index of the hosting PE.
    pub pe: usize,
    /// Average start execution time `SST_t`.
    pub start: f64,
    /// Average end execution time `SET_t`.
    pub end: f64,
}

/// A complete static schedule of one application iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    entries: Vec<ScheduleEntry>,
    makespan: f64,
}

impl Schedule {
    /// Assembles a schedule from externally produced entries (e.g. an
    /// imported trace); the makespan is derived. Prefer
    /// [`list_schedule`] for schedules the engine computes itself, and
    /// check imports with [`crate::validate_schedule`].
    pub fn from_entries(entries: Vec<ScheduleEntry>) -> Schedule {
        let makespan = entries.iter().map(|e| e.end).fold(0.0, f64::max);
        Schedule { entries, makespan }
    }

    /// Scheduled entries in task-id order.
    pub fn entries(&self) -> &[ScheduleEntry] {
        &self.entries
    }

    /// The entry of task `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn entry(&self, t: TaskId) -> &ScheduleEntry {
        &self.entries[t.index()]
    }

    /// The schedule makespan `S_app = max_t SET_t` (Eq. 1).
    pub fn makespan(&self) -> f64 {
        self.makespan
    }
}

/// List-schedules `mapping` using per-task execution times `exec_time[t]`.
///
/// Dependency semantics: a task becomes ready when all predecessors have
/// finished; crossing PEs additionally pays the edge's `comm_time`
/// (same-PE communication through local memory is free). Among ready
/// tasks, higher gene priority runs first (ties broken by task id), and
/// each PE executes one task at a time.
///
/// # Panics
///
/// Panics if `mapping`/`exec_time` lengths disagree with the graph (a
/// caller bug — validate mappings first).
///
/// # Examples
///
/// ```
/// use clr_platform::Platform;
/// use clr_sched::{list_schedule, Mapping};
/// use clr_taskgraph::jpeg_encoder;
///
/// let g = jpeg_encoder();
/// let p = Platform::dac19();
/// let m = Mapping::first_fit(&g, &p).unwrap();
/// let times: Vec<f64> = g.task_ids().map(|_| 10.0).collect();
/// let s = list_schedule(&g, &m, &times);
/// assert!(s.makespan() >= 10.0);
/// ```
pub fn list_schedule(graph: &TaskGraph, mapping: &Mapping, exec_time: &[f64]) -> Schedule {
    let n = graph.num_tasks();
    assert_eq!(mapping.len(), n, "mapping length must equal task count");
    assert_eq!(exec_time.len(), n, "exec_time length must equal task count");

    let num_pes = mapping
        .genes()
        .iter()
        .map(|g| g.pe.index() + 1)
        .max()
        .unwrap_or(1);
    let mut pe_free = vec![0.0f64; num_pes];
    let mut remaining_preds: Vec<usize> = graph
        .task_ids()
        .map(|t| graph.predecessors(t).count())
        .collect();
    // data_ready[t]: all predecessor outputs (incl. comm) available.
    let mut data_ready = vec![0.0f64; n];
    let mut entries: Vec<ScheduleEntry> = (0..n)
        .map(|t| ScheduleEntry {
            task: TaskId::new(t),
            pe: mapping.genes()[t].pe.index(),
            start: 0.0,
            end: 0.0,
        })
        .collect();

    let mut ready: Vec<usize> = (0..n).filter(|&t| remaining_preds[t] == 0).collect();
    let mut scheduled = 0usize;
    while scheduled < n {
        // Pick the ready task with the highest priority (ties: lowest id).
        let (pos, &t) = ready
            .iter()
            .enumerate()
            .max_by(|(_, &a), (_, &b)| {
                let pa = mapping.genes()[a].priority;
                let pb = mapping.genes()[b].priority;
                pa.cmp(&pb).then(b.cmp(&a))
            })
            .expect("ready list cannot be empty while tasks remain in a DAG");
        ready.swap_remove(pos);

        let pe = mapping.genes()[t].pe.index();
        let start = pe_free[pe].max(data_ready[t]);
        let end = start + exec_time[t];
        pe_free[pe] = end;
        entries[t].start = start;
        entries[t].end = end;
        scheduled += 1;

        for e in graph.out_edges(TaskId::new(t)) {
            let d = e.dst().index();
            let arrival = if mapping.genes()[d].pe == mapping.genes()[t].pe {
                end
            } else {
                end + e.comm_time()
            };
            if arrival > data_ready[d] {
                data_ready[d] = arrival;
            }
            remaining_preds[d] -= 1;
            if remaining_preds[d] == 0 {
                ready.push(d);
            }
        }
    }

    let makespan = entries.iter().map(|e| e.end).fold(0.0, f64::max);

    // Debug-build post-conditions at the construction site: the cheapest
    // subset of the `clr-verify` schedule lints (well-formed intervals and
    // precedence edges), so scheduler regressions fail here rather than in
    // a downstream audit.
    debug_assert!(
        entries
            .iter()
            .all(|e| e.start.is_finite() && e.end.is_finite() && e.end >= e.start),
        "list_schedule produced a malformed entry interval"
    );
    debug_assert!(
        graph
            .edges()
            .iter()
            .all(|e| { entries[e.dst().index()].start >= entries[e.src().index()].end - 1e-9 }),
        "list_schedule violated a precedence edge"
    );

    Schedule { entries, makespan }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clr_platform::PeTypeId;
    use clr_platform::{PeId, Platform};
    use clr_taskgraph::{SwStack, TaskGraph, TaskGraphBuilder};
    use proptest::prelude::*;

    fn chain(n: usize) -> TaskGraph {
        let mut b = TaskGraphBuilder::new("chain", 100.0);
        for i in 0..n {
            b.task(format!("t{i}"))
                .implementation(PeTypeId::new(0), SwStack::BareMetal, 10.0);
        }
        for i in 1..n {
            b.edge((i - 1).into(), i.into(), 5.0, 4.0);
        }
        b.build().unwrap()
    }

    fn fork() -> TaskGraph {
        // 0 -> {1, 2}
        let mut b = TaskGraphBuilder::new("fork", 100.0);
        for i in 0..3 {
            b.task(format!("t{i}"))
                .implementation(PeTypeId::new(0), SwStack::BareMetal, 10.0);
        }
        b.edge(0.into(), 1.into(), 5.0, 4.0);
        b.edge(0.into(), 2.into(), 5.0, 4.0);
        b.build().unwrap()
    }

    fn mapping_on(graph: &TaskGraph, pes: &[usize]) -> Mapping {
        let p = Platform::tiny();
        let mut m = Mapping::first_fit(graph, &p).unwrap();
        for (t, &pe) in pes.iter().enumerate() {
            m.genes_mut()[t].pe = PeId::new(pe);
        }
        m
    }

    #[test]
    fn same_pe_chain_has_no_comm_cost() {
        let g = chain(3);
        let m = mapping_on(&g, &[0, 0, 0]);
        let s = list_schedule(&g, &m, &[10.0, 10.0, 10.0]);
        assert_eq!(s.makespan(), 30.0);
    }

    #[test]
    fn cross_pe_chain_pays_communication() {
        let g = chain(3);
        let m = mapping_on(&g, &[0, 1, 0]);
        let s = list_schedule(&g, &m, &[10.0, 10.0, 10.0]);
        // 10 + 5 + 10 + 5 + 10.
        assert_eq!(s.makespan(), 40.0);
    }

    #[test]
    fn parallel_branches_overlap_on_two_pes() {
        let g = fork();
        let m = mapping_on(&g, &[0, 0, 1]);
        let s = list_schedule(&g, &m, &[10.0, 10.0, 10.0]);
        // Branch on PE0 finishes at 20; branch on PE1 at 10+5+10 = 25.
        assert_eq!(s.makespan(), 25.0);
        assert_eq!(s.entry(TaskId::new(1)).start, 10.0);
        assert_eq!(s.entry(TaskId::new(2)).start, 15.0);
    }

    #[test]
    fn priority_breaks_ready_ties() {
        let g = fork();
        let mut m = mapping_on(&g, &[0, 0, 0]);
        // Give task 2 higher priority than task 1: it should run first.
        m.genes_mut()[1].priority = 1;
        m.genes_mut()[2].priority = 9;
        let s = list_schedule(&g, &m, &[10.0, 10.0, 10.0]);
        assert!(s.entry(TaskId::new(2)).start < s.entry(TaskId::new(1)).start);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn makespan_respects_theoretical_bounds(seed in 0u64..200, n in 2usize..25) {
            use clr_taskgraph::{TgffConfig, TgffGenerator};
            let g = TgffGenerator::new(TgffConfig::with_tasks(n)).generate(seed);
            let p = Platform::dac19();
            let m = Mapping::first_fit(&g, &p).unwrap();
            let times: Vec<f64> = g.task_ids().map(|t| 5.0 + (t.index() % 7) as f64).collect();
            let s = list_schedule(&g, &m, &times);

            // Lower bounds: the critical path (with cross-PE comm only
            // where the mapping crosses PEs — the all-comm critical path
            // over-estimates, so use the zero-comm one) and the busiest
            // PE's total work.
            let cp_no_comm = {
                let mut finish = vec![0.0f64; g.num_tasks()];
                for &t in g.topological_order() {
                    let ready = g
                        .predecessors(t)
                        .map(|pr| finish[pr.index()])
                        .fold(0.0f64, f64::max);
                    finish[t.index()] = ready + times[t.index()];
                }
                finish.iter().copied().fold(0.0, f64::max)
            };
            let mut pe_work = std::collections::HashMap::new();
            for t in g.task_ids() {
                *pe_work.entry(m.gene(t).pe).or_insert(0.0f64) += times[t.index()];
            }
            let busiest = pe_work.values().copied().fold(0.0f64, f64::max);
            prop_assert!(s.makespan() >= cp_no_comm - 1e-9);
            prop_assert!(s.makespan() >= busiest - 1e-9);

            // Upper bound: complete serialisation of all work + all comm.
            let total: f64 = times.iter().sum::<f64>()
                + g.edges().iter().map(clr_taskgraph::Edge::comm_time).sum::<f64>();
            prop_assert!(s.makespan() <= total + 1e-9);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn schedule_respects_dependencies_and_exclusivity(
            seed in 0u64..500,
            n in 2usize..40,
        ) {
            use clr_taskgraph::{TgffConfig, TgffGenerator};
            use clr_reliability::FaultModel;
            let g = TgffGenerator::new(TgffConfig::with_tasks(n)).generate(seed);
            let p = Platform::dac19();
            let m = Mapping::first_fit(&g, &p).unwrap();
            let eval = crate::Evaluator::new(&g, &p, FaultModel::default());
            let times: Vec<f64> = g
                .task_ids()
                .map(|t| eval.task_metrics(&m, t).avg_ex_t)
                .collect();
            let s = list_schedule(&g, &m, &times);
            // Precedence: every edge's dst starts at/after src end (+comm if
            // cross-PE).
            for e in g.edges() {
                let src = s.entry(e.src());
                let dst = s.entry(e.dst());
                let bound = if src.pe == dst.pe {
                    src.end
                } else {
                    src.end + e.comm_time()
                };
                prop_assert!(dst.start >= bound - 1e-9);
            }
            // PE exclusivity: entries on one PE never overlap.
            for pe in 0..p.num_pes() {
                let mut on_pe: Vec<_> = s.entries().iter().filter(|e| e.pe == pe).collect();
                on_pe.sort_by(|a, b| a.start.total_cmp(&b.start));
                for w in on_pe.windows(2) {
                    prop_assert!(w[1].start >= w[0].end - 1e-9);
                }
            }
            prop_assert!((s.makespan() - s.entries().iter().map(|e| e.end).fold(0.0, f64::max)).abs() < 1e-9);
        }
    }
}
