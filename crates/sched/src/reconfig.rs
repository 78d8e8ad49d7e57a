//! Reconfiguration model (paper §3.5): the cost `dRC` of moving the system
//! between two CLR-integrated task-mapping configurations.
//!
//! The four adaptation modes and their costs:
//!
//! 1. **Re-ordering** task execution on each PE — free (priorities are
//!    control state).
//! 2. **Changing the CLR configuration** of a task — free (every PE stores
//!    the binaries of the tasks mapped on it, and reliability-method
//!    selection is control state).
//! 3. **Changing the implementation** used for a task — pays the new
//!    binary's copy over the interconnect (plus a PRR bit-stream reload if
//!    the new implementation is an accelerator).
//! 4. **Re-binding a task to a different PE** — pays the binary copy to the
//!    destination PE's local memory (plus the bit-stream reload for
//!    accelerated implementations).

use clr_platform::Platform;
use clr_taskgraph::{TaskGraph, TaskId};
use serde::{Deserialize, Serialize};

use crate::{Gene, Mapping};

/// Itemised reconfiguration cost between two mappings.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ReconfigBreakdown {
    /// Time spent copying task binaries across the interconnect.
    pub migration_time: f64,
    /// Time spent reloading PRR bit-streams through the ICAP.
    pub bitstream_time: f64,
    /// Interconnect energy of the binary copies.
    pub migration_energy: f64,
    /// Number of tasks whose binding or implementation changed.
    pub migrated_tasks: usize,
}

impl ReconfigBreakdown {
    /// The scalar reconfiguration cost `dRC` (time components summed) used
    /// by the run-time policies.
    pub fn total(&self) -> f64 {
        self.migration_time + self.bitstream_time
    }

    /// `true` if the adaptation touches nothing that costs.
    pub fn is_free(&self) -> bool {
        self.migrated_tasks == 0
    }
}

/// Computes the reconfiguration distance `dRC(from → to)`.
///
/// A task contributes cost iff its PE binding or its implementation
/// changes; pure CLR-configuration or priority changes are free. Each
/// migrated accelerated implementation additionally reloads the bit-stream
/// of the PRR it lands in (PRRs are assigned round-robin by task index,
/// matching the platform's fixed PRR count).
///
/// # Panics
///
/// Panics if either mapping's length disagrees with the graph (validate
/// mappings before costing them).
///
/// # Examples
///
/// ```
/// use clr_platform::Platform;
/// use clr_sched::{reconfiguration_cost, Mapping};
/// use clr_taskgraph::jpeg_encoder;
///
/// let g = jpeg_encoder();
/// let p = Platform::dac19();
/// let m = Mapping::first_fit(&g, &p).unwrap();
/// assert!(reconfiguration_cost(&g, &p, &m, &m).is_free());
/// ```
pub fn reconfiguration_cost(
    graph: &TaskGraph,
    platform: &Platform,
    from: &Mapping,
    to: &Mapping,
) -> ReconfigBreakdown {
    let n = graph.num_tasks();
    assert_eq!(from.len(), n, "`from` mapping length mismatch");
    assert_eq!(to.len(), n, "`to` mapping length mismatch");

    let mut out = ReconfigBreakdown::default();
    for t in graph.task_ids() {
        let a = from.gene(t);
        let b = to.gene(t);
        let moved = a.pe != b.pe || a.impl_id != b.impl_id;
        if !moved {
            continue;
        }
        let terms = move_terms(graph, platform, t, b);
        out.migrated_tasks += 1;
        out.migration_time += terms.migration_time;
        out.migration_energy += terms.migration_energy;
        out.bitstream_time += terms.bitstream_time;
    }
    out
}

/// The cost terms of one moved task.
struct MoveTerms {
    migration_time: f64,
    migration_energy: f64,
    bitstream_time: f64,
}

/// What moving task `t` onto gene `to` costs: the copy of its new binary
/// over the interconnect, plus the reload of the PRR it lands in when the
/// new implementation is accelerated (PRRs are assigned round-robin by
/// task index). The one statement of the cost model: both
/// [`reconfiguration_cost`] and [`DrcSources`] add these terms.
fn move_terms(graph: &TaskGraph, platform: &Platform, t: TaskId, to: &Gene) -> MoveTerms {
    let ic = platform.interconnect();
    let im = graph.implementation(t, to.impl_id);
    let kib = im.binary_kib() as f64;
    let bitstream_time = if im.accelerated() && platform.num_prrs() > 0 {
        platform.prrs()[t.index() % platform.num_prrs()].reload_cost()
    } else {
        0.0
    };
    MoveTerms {
        migration_time: ic.transfer_time(kib),
        migration_energy: ic.transfer_energy(kib),
        bitstream_time,
    }
}

/// The `(pe, impl)` pair of a gene as one comparable word: a task moves
/// between two mappings exactly when its keys in them differ.
///
/// # Panics
///
/// Panics if the PE or implementation index does not fit 32 bits.
fn placement_key(gene: &Gene) -> u64 {
    let half =
        |index: usize| u32::try_from(index).expect("pe and implementation indices fit 32 bits");
    (u64::from(half(gene.pe.index())) << 32) | u64::from(half(gene.impl_id.index()))
}

/// A fixed set of source mappings, packed for the `dRC` from each of them
/// to one target at a time: the quantity ReD ranks its extra points by
/// (the average `dRC` to the Pareto set) and one column of a run-time
/// context's `dRC` matrix.
///
/// Each source keeps one placement key per task, stored task-major
/// (`keys[t * n + f]` for source `f` of `n`). [`DrcSources::totals`] then
/// walks the tasks once, computes the target's terms for each task once,
/// and adds them into every source's two accumulators with a
/// straight-line select over that task's keys; a task that no source
/// moves is skipped. Every total is bit-equal
/// to `reconfiguration_cost(from, to).total()`: each source adds the same
/// terms in the same task order, and the `+0.0` an unmoved task adds
/// leaves a partial sum unchanged (a sum that starts at `+0.0` is never
/// `-0.0`).
///
/// # Examples
///
/// ```
/// use clr_platform::Platform;
/// use clr_sched::{reconfiguration_cost, DrcBuffers, DrcSources, Mapping};
/// use clr_taskgraph::jpeg_encoder;
///
/// let g = jpeg_encoder();
/// let p = Platform::dac19();
/// let m = Mapping::first_fit(&g, &p).unwrap();
/// let sources = DrcSources::new(&g, [&m, &m]);
/// let mut buffers = DrcBuffers::default();
/// let totals = sources.totals(&g, &p, &m, &mut buffers);
/// assert_eq!(totals, [reconfiguration_cost(&g, &p, &m, &m).total(); 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrcSources {
    sources: usize,
    keys: Vec<u64>,
    /// Per task, the key every source shares, if they all share one.
    shared: Vec<Option<u64>>,
}

/// Caller-owned accumulators of [`DrcSources::totals`], reused across
/// targets so the kernel allocates nothing per target.
#[derive(Debug, Clone, Default)]
pub struct DrcBuffers {
    migration: Vec<f64>,
    bitstream: Vec<f64>,
}

impl DrcSources {
    /// Packs `sources`, in order, for costing on `graph`.
    ///
    /// # Panics
    ///
    /// Panics if a source's length disagrees with the graph, or a PE or
    /// implementation index does not fit 32 bits.
    pub fn new<'m>(graph: &TaskGraph, sources: impl IntoIterator<Item = &'m Mapping>) -> Self {
        let sources: Vec<&Mapping> = sources.into_iter().collect();
        let n = sources.len();
        let tasks = graph.num_tasks();
        for from in &sources {
            assert_eq!(from.len(), tasks, "`from` mapping length mismatch");
        }
        let mut keys = Vec::with_capacity(tasks * n);
        let mut shared = Vec::with_capacity(tasks);
        for t in 0..tasks {
            let row = keys.len();
            keys.extend(sources.iter().map(|from| placement_key(&from.genes()[t])));
            let first = keys.get(row).copied();
            shared.push(first.filter(|&k| keys[row..].iter().all(|&other| other == k)));
        }
        Self {
            sources: n,
            keys,
            shared,
        }
    }

    /// Number of source mappings.
    pub fn len(&self) -> usize {
        self.sources
    }

    /// `true` if the set holds no source mapping.
    pub fn is_empty(&self) -> bool {
        self.sources == 0
    }

    /// `reconfiguration_cost(from, to).total()` for every source `from`,
    /// in source order, written into `buffers` and returned as a slice of
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if `to`'s length disagrees with the graph the sources were
    /// packed for, or where [`reconfiguration_cost`] would panic on `to`.
    pub fn totals<'b>(
        &self,
        graph: &TaskGraph,
        platform: &Platform,
        to: &Mapping,
        buffers: &'b mut DrcBuffers,
    ) -> &'b [f64] {
        let n = self.sources;
        assert_eq!(to.len(), graph.num_tasks(), "`to` mapping length mismatch");
        assert_eq!(
            self.keys.len(),
            to.len() * n,
            "sources packed for another graph"
        );
        let DrcBuffers {
            migration,
            bitstream,
        } = buffers;
        migration.clear();
        migration.resize(n, 0.0);
        bitstream.clear();
        bitstream.resize(n, 0.0);
        if n == 0 {
            return migration;
        }
        for ((t, keys), &shared) in graph
            .task_ids()
            .zip(self.keys.chunks_exact(n))
            .zip(&self.shared)
        {
            let b = to.gene(t);
            let key = placement_key(b);
            if shared == Some(key) {
                // No source moves this task: every sum would add +0.0.
                // Databases whose points share a placement skip the
                // terms and the adds altogether.
                continue;
            }
            let terms = move_terms(graph, platform, t, b);
            let (m, r) = (terms.migration_time, terms.bitstream_time);
            // A select, not a multiply by a 0/1 mask: an infinite term on
            // an unmoved task must add 0, not NaN.
            for ((&k, mig), bit) in keys
                .iter()
                .zip(migration.iter_mut())
                .zip(bitstream.iter_mut())
            {
                let moved = k != key;
                *mig += if moved { m } else { 0.0 };
                *bit += if moved { r } else { 0.0 };
            }
        }
        for (mig, bit) in migration.iter_mut().zip(bitstream.iter()) {
            *mig += *bit;
        }
        migration
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clr_reliability::{AswMethod, ClrConfig, HwMethod, SswMethod};
    use clr_taskgraph::jpeg_encoder;
    use proptest::prelude::*;

    fn setup() -> (clr_taskgraph::TaskGraph, Platform, Mapping) {
        let g = jpeg_encoder();
        let p = Platform::dac19();
        let m = Mapping::first_fit(&g, &p).unwrap();
        (g, p, m)
    }

    #[test]
    fn identity_is_free() {
        let (g, p, m) = setup();
        let c = reconfiguration_cost(&g, &p, &m, &m);
        assert!(c.is_free());
        assert_eq!(c.total(), 0.0);
    }

    #[test]
    fn clr_and_priority_changes_are_free() {
        let (g, p, m) = setup();
        let mut m2 = m.clone();
        for gene in m2.genes_mut() {
            gene.clr = ClrConfig::new(
                HwMethod::FullTmr,
                SswMethod::Retry { max_retries: 2 },
                AswMethod::Checksum,
            );
            gene.priority = gene.priority.wrapping_add(17);
        }
        assert!(reconfiguration_cost(&g, &p, &m, &m2).is_free());
    }

    #[test]
    fn rebinding_pays_binary_copy() {
        let (g, p, m) = setup();
        let mut m2 = m.clone();
        // Move task 0 to another PE of the same type (dac19 has two
        // lp-cores and two hp-cores).
        let t0_type = p.pe(m.gene(0.into()).pe).type_id();
        let other = p
            .pe_ids()
            .find(|&id| id != m.gene(0.into()).pe && p.pe(id).type_id() == t0_type)
            .expect("dac19 has pe pairs per type");
        m2.genes_mut()[0].pe = other;
        let c = reconfiguration_cost(&g, &p, &m, &m2);
        assert_eq!(c.migrated_tasks, 1);
        let kib = g
            .implementation(0.into(), m.gene(0.into()).impl_id)
            .binary_kib() as f64;
        assert!((c.migration_time - p.interconnect().transfer_time(kib)).abs() < 1e-12);
        assert!(c.migration_energy > 0.0);
    }

    #[test]
    fn accelerator_change_pays_bitstream() {
        let (g, p, m) = setup();
        // Task 1 (a DCT) has an accelerated implementation in the sample.
        let accel_impl = g
            .implementations(1.into())
            .iter()
            .find(|i| i.accelerated())
            .expect("dct has accelerator");
        let mut m2 = m.clone();
        m2.genes_mut()[1].impl_id = accel_impl.id();
        // Bind to a PE of the accelerator's type.
        let pe = p
            .pe_ids()
            .find(|&id| p.pe(id).type_id() == accel_impl.pe_type())
            .unwrap();
        m2.genes_mut()[1].pe = pe;
        let c = reconfiguration_cost(&g, &p, &m, &m2);
        assert!(c.bitstream_time > 0.0);
        assert!(c.total() > c.migration_time);
    }

    #[test]
    fn cost_is_additive_over_tasks() {
        let (g, p, m) = setup();
        // Two independent single-task moves cost the same as both together.
        let t0_type = p.pe(m.gene(0.into()).pe).type_id();
        let other0 = p
            .pe_ids()
            .find(|&id| id != m.gene(0.into()).pe && p.pe(id).type_id() == t0_type)
            .unwrap();
        let t5_type = p.pe(m.gene(5.into()).pe).type_id();
        let other5 = p
            .pe_ids()
            .find(|&id| id != m.gene(5.into()).pe && p.pe(id).type_id() == t5_type)
            .unwrap();
        let mut only0 = m.clone();
        only0.genes_mut()[0].pe = other0;
        let mut only5 = m.clone();
        only5.genes_mut()[5].pe = other5;
        let mut both = m.clone();
        both.genes_mut()[0].pe = other0;
        both.genes_mut()[5].pe = other5;
        let c0 = reconfiguration_cost(&g, &p, &m, &only0).total();
        let c5 = reconfiguration_cost(&g, &p, &m, &only5).total();
        let cb = reconfiguration_cost(&g, &p, &m, &both).total();
        assert!((cb - (c0 + c5)).abs() < 1e-9);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn drc_is_nonnegative_and_zero_only_for_no_moves(shift in 0usize..5) {
            let (g, p, m) = setup();
            let mut m2 = m.clone();
            // Shift some priorities (free) and possibly one binding.
            for gene in m2.genes_mut() {
                gene.priority += shift as u32;
            }
            let c = reconfiguration_cost(&g, &p, &m, &m2);
            prop_assert!(c.total() >= 0.0);
            prop_assert!(c.is_free());
        }
    }
}
