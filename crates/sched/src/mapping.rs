//! CLR-integrated task-mapping configurations (the design points `X_i`).

use clr_platform::{PeId, Platform};
use clr_reliability::ClrConfig;
use clr_taskgraph::{ImplId, TaskGraph, TaskId};
use serde::{Deserialize, Serialize};

use crate::MappingError;

/// Per-task decision variables: PE binding, implementation choice, CLR
/// configuration and schedule priority (paper Eq. 4:
/// `Ψ_t = M_t × C_t` with `M_t = P_t × I_t × Q_t`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Gene {
    /// The PE executing this task.
    pub pe: PeId,
    /// The implementation used (index into the task's implementation set).
    pub impl_id: ImplId,
    /// The cross-layer reliability configuration.
    pub clr: ClrConfig,
    /// List-scheduling priority (higher runs earlier among ready tasks) —
    /// the schedule-position component `Q_t`.
    pub priority: u32,
}

/// One complete CLR-integrated task mapping of an application.
///
/// # Examples
///
/// ```
/// use clr_platform::Platform;
/// use clr_sched::Mapping;
/// use clr_taskgraph::jpeg_encoder;
///
/// let g = jpeg_encoder();
/// let p = Platform::dac19();
/// let m = Mapping::first_fit(&g, &p).unwrap();
/// assert_eq!(m.len(), g.num_tasks());
/// assert!(m.validate(&g, &p).is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mapping {
    genes: Vec<Gene>,
}

impl Mapping {
    /// Creates a mapping from per-task genes (one per task, in task order).
    pub fn new(genes: Vec<Gene>) -> Self {
        Self { genes }
    }

    /// A deterministic baseline mapping: every task picks its first
    /// implementation whose PE type exists on the platform, bound to the
    /// first PE of that type, with no CLR mitigation and topological
    /// priorities.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::Unmappable`] if some task has no
    /// implementation compatible with any PE of the platform.
    pub fn first_fit(graph: &TaskGraph, platform: &Platform) -> Result<Self, MappingError> {
        let mut genes = Vec::with_capacity(graph.num_tasks());
        for t in graph.task_ids() {
            let mut found = None;
            'outer: for im in graph.implementations(t) {
                for pe in platform.pes() {
                    if pe.type_id() == im.pe_type() {
                        found = Some((pe.id(), im.id()));
                        break 'outer;
                    }
                }
            }
            let (pe, impl_id) = found.ok_or(MappingError::Unmappable { task: t.index() })?;
            genes.push(Gene {
                pe,
                impl_id,
                clr: ClrConfig::NONE,
                priority: (graph.num_tasks() - t.index()) as u32,
            });
        }
        Ok(Self { genes })
    }

    /// The per-task genes in task order.
    pub fn genes(&self) -> &[Gene] {
        &self.genes
    }

    /// Mutable access to the genes (for GA operators).
    pub fn genes_mut(&mut self) -> &mut [Gene] {
        &mut self.genes
    }

    /// The gene of task `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn gene(&self, t: TaskId) -> &Gene {
        &self.genes[t.index()]
    }

    /// Number of tasks covered.
    pub fn len(&self) -> usize {
        self.genes.len()
    }

    /// `true` if the mapping covers no tasks.
    pub fn is_empty(&self) -> bool {
        self.genes.is_empty()
    }

    /// Validates this mapping against a graph and platform: gene count,
    /// PE indices, implementation indices and PE-type compatibility.
    ///
    /// # Errors
    ///
    /// Returns the first [`MappingError`] found.
    pub fn validate(&self, graph: &TaskGraph, platform: &Platform) -> Result<(), MappingError> {
        if self.genes.len() != graph.num_tasks() {
            return Err(MappingError::LengthMismatch {
                genes: self.genes.len(),
                tasks: graph.num_tasks(),
            });
        }
        for (t, g) in self.genes.iter().enumerate() {
            if g.pe.index() >= platform.num_pes() {
                return Err(MappingError::UnknownPe {
                    task: t,
                    pe: g.pe.index(),
                });
            }
            let impls = graph.implementations(TaskId::new(t));
            if g.impl_id.index() >= impls.len() {
                return Err(MappingError::UnknownImpl {
                    task: t,
                    impl_id: g.impl_id.index(),
                });
            }
            let im = &impls[g.impl_id.index()];
            if platform.pe(g.pe).type_id() != im.pe_type() {
                return Err(MappingError::IncompatiblePeType { task: t });
            }
        }
        Ok(())
    }

    /// Total binary footprint (KiB) resident on each PE under this mapping;
    /// index `i` is PE `i`. Tasks of the same functionality type sharing a
    /// PE share one binary.
    pub fn memory_footprint(&self, graph: &TaskGraph, platform: &Platform) -> Vec<u64> {
        let mut footprint = vec![0u64; platform.num_pes()];
        // (pe, task type, impl, task), sorted: each key's group starts at
        // its first task in task order, which supplies the binary.
        let mut keys: Vec<(usize, usize, usize, usize)> = self
            .genes
            .iter()
            .enumerate()
            .map(|(t, g)| {
                let ty = graph.task(TaskId::new(t)).type_id().index();
                (g.pe.index(), ty, g.impl_id.index(), t)
            })
            .collect();
        keys.sort_unstable();
        let mut previous = None;
        for (pe, ty, impl_index, t) in keys {
            if previous == Some((pe, ty, impl_index)) {
                continue;
            }
            previous = Some((pe, ty, impl_index));
            let im = graph.implementation(TaskId::new(t), self.genes[t].impl_id);
            footprint[pe] += im.binary_kib() as u64;
        }
        footprint
    }

    /// `true` if every PE's resident binaries fit in its local memory.
    pub fn fits_memory(&self, graph: &TaskGraph, platform: &Platform) -> bool {
        self.memory_footprint(graph, platform)
            .iter()
            .zip(platform.pes())
            .all(|(&used, pe)| used <= pe.local_memory_kib() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clr_platform::{PeKind, PeType, PeTypeId};
    use clr_taskgraph::{
        jpeg_encoder, ImplId, Implementation, SwStack, TaskGraphBuilder, TaskTypeId,
    };

    fn tiny_graph() -> TaskGraph {
        let mut b = TaskGraphBuilder::new("t", 100.0);
        b.task("a")
            .implementation(PeTypeId::new(0), SwStack::BareMetal, 10.0);
        b.task("b")
            .implementation(PeTypeId::new(0), SwStack::BareMetal, 10.0);
        b.edge(0.into(), 1.into(), 1.0, 4.0);
        b.build().unwrap()
    }

    #[test]
    fn first_fit_is_valid_on_dac19() {
        let g = jpeg_encoder();
        let p = Platform::dac19();
        let m = Mapping::first_fit(&g, &p).unwrap();
        assert!(m.validate(&g, &p).is_ok());
    }

    #[test]
    fn first_fit_fails_on_incompatible_platform() {
        // A platform with only type-5 PEs cannot host type-0 implementations.
        let p = Platform::builder()
            .pe_type(PeType::new("a", PeKind::GeneralPurpose))
            .pe_type(PeType::new("b", PeKind::GeneralPurpose))
            .pe(PeTypeId::new(1), 64)
            .build()
            .unwrap();
        let g = tiny_graph();
        assert_eq!(
            Mapping::first_fit(&g, &p).unwrap_err(),
            MappingError::Unmappable { task: 0 }
        );
    }

    #[test]
    fn validate_catches_length_mismatch() {
        let g = tiny_graph();
        let p = Platform::tiny();
        let m = Mapping::new(vec![]);
        assert!(matches!(
            m.validate(&g, &p),
            Err(MappingError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn validate_catches_incompatible_type() {
        let g = jpeg_encoder();
        let p = Platform::dac19();
        let mut m = Mapping::first_fit(&g, &p).unwrap();
        // Rebind task 0 to a PE of the wrong type for its chosen impl.
        let bad_pe = p
            .pe_ids()
            .find(|&id| {
                p.pe(id).type_id()
                    != g.implementations(0.into())[m.gene(0.into()).impl_id.index()].pe_type()
            })
            .unwrap();
        m.genes_mut()[0].pe = bad_pe;
        assert_eq!(
            m.validate(&g, &p).unwrap_err(),
            MappingError::IncompatiblePeType { task: 0 }
        );
    }

    #[test]
    fn memory_footprint_shares_same_type_binaries() {
        let g = jpeg_encoder();
        let p = Platform::dac19();
        let mut m = Mapping::first_fit(&g, &p).unwrap();
        // Bind all four DCT tasks (ids 1..=4, same task type) to one PE with
        // the same impl: they share a single binary.
        let target = m.gene(1.into()).pe;
        let impl_id = m.gene(1.into()).impl_id;
        for t in 2..=4 {
            m.genes_mut()[t].pe = target;
            m.genes_mut()[t].impl_id = impl_id;
        }
        let fp = m.memory_footprint(&g, &p);
        let single = g.implementation(1.into(), impl_id).binary_kib() as u64;
        // The DCT share of that PE's footprint is a single binary.
        let others: u64 = g
            .task_ids()
            .filter(|t| !(1..=4).contains(&t.index()))
            .filter(|&t| m.gene(t).pe == target)
            .map(|t| g.implementation(t, m.gene(t).impl_id).binary_kib() as u64)
            .sum();
        assert_eq!(fp[target.index()], single + others);
    }

    #[test]
    fn the_first_task_of_a_shared_key_supplies_its_binary() {
        // Three tasks of one type whose first implementations differ in
        // size, listed out of size order; all share one PE.
        let mut b = TaskGraphBuilder::new("shared", 100.0);
        for kib in [48, 16, 80] {
            let im = Implementation::new(ImplId::new(0), PeTypeId::new(0), SwStack::Rtos, 10.0)
                .with_binary_kib(kib);
            b.task_with_type(format!("t{kib}"), TaskTypeId::new(0))
                .implementation_full(im);
        }
        let g = b.build().unwrap();
        let p = Platform::tiny();
        let mut m = Mapping::first_fit(&g, &p).unwrap();
        assert_eq!(m.memory_footprint(&g, &p)[0], 48);
        // Task 0 moves away: task 1 is now the first on PE 0.
        m.genes_mut()[0].pe = PeId::new(1);
        assert_eq!(m.memory_footprint(&g, &p), vec![16, 48]);
    }

    #[test]
    fn fits_memory_detects_overflow() {
        let g = tiny_graph();
        // 1 KiB of local memory cannot host a 32 KiB binary.
        let p = Platform::builder()
            .pe_type(PeType::new("c", PeKind::GeneralPurpose))
            .pe(PeTypeId::new(0), 1)
            .build()
            .unwrap();
        let m = Mapping::first_fit(&g, &p).unwrap();
        assert!(!m.fits_memory(&g, &p));
    }
}
