//! Shared run-time adaptation context: the stored database plus
//! pre-computed reconfiguration distances and normalisers.

use std::borrow::Cow;
use std::cmp::Ordering;

use clr_dse::{DesignPointDb, FeasibilityIndex, QosSpec};
use clr_platform::Platform;
use clr_sched::{DrcBuffers, DrcSources};
use clr_stats::Normalizer;
use clr_taskgraph::TaskGraph;

use crate::RuntimeError;

/// Pre-computed run-time state: the pairwise `dRC` matrix between stored
/// design points, the min–max normalisers Algorithm 1 applies to `R(p)`
/// and `dRC(p)`, and a [`FeasibilityIndex`] answering the `FEAS` filter
/// in O(log n + k) instead of a per-event linear scan.
///
/// The matrix makes each adaptation decision O(|DB|) instead of
/// O(|DB| · |tasks|), which is what lets the Monte-Carlo evaluation run
/// for a million application cycles.
#[derive(Debug, Clone)]
pub struct RuntimeContext<'a> {
    /// Borrowed for the common load-once serve path; owned
    /// (`RuntimeContext<'static>`) when a database is hot-swapped in at
    /// run time and must outlive whatever produced it.
    db: Cow<'a, DesignPointDb>,
    index: FeasibilityIndex,
    /// Row-major `n × n` matrix: `drc[from * n + to]`.
    drc: Vec<f64>,
    /// `norm(R(p))` per stored point.
    norm_perf: Vec<f64>,
    drc_norm: Normalizer,
}

impl<'a> RuntimeContext<'a> {
    /// Builds the context for a stored database on its graph/platform.
    ///
    /// # Panics
    ///
    /// Panics where [`RuntimeContext::try_new`] would error — prefer
    /// `try_new` when the database comes from external input (a loaded
    /// snapshot, a decoded artifact) so the failure can flow into the
    /// serve path's degradation ladder instead of aborting the process.
    pub fn new(graph: &TaskGraph, platform: &Platform, db: &'a DesignPointDb) -> Self {
        Self::try_new(graph, platform, db).unwrap_or_else(|e| panic!("invalid runtime inputs: {e}"))
    }

    /// Builds the context, reporting invalid inputs as a typed
    /// [`RuntimeError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::EmptyDatabase`] for an empty database,
    /// [`RuntimeError::InvalidMapping`] when a stored mapping does not fit
    /// the graph and platform, and [`RuntimeError::NonFiniteMetric`] when
    /// a stored energy or a derived reconfiguration cost is not finite.
    pub fn try_new(
        graph: &TaskGraph,
        platform: &Platform,
        db: &'a DesignPointDb,
    ) -> Result<Self, RuntimeError> {
        Self::try_from_cow(graph, platform, Cow::Borrowed(db))
    }

    /// Builds a context that **owns** its database — the hot-swap path:
    /// a freshly pulled snapshot has no owner to borrow from, so the
    /// context takes the database by value and the result is
    /// `RuntimeContext<'static>` (it coerces into any shorter lifetime).
    ///
    /// # Errors
    ///
    /// As [`RuntimeContext::try_new`].
    pub fn try_new_owned(
        graph: &TaskGraph,
        platform: &Platform,
        db: DesignPointDb,
    ) -> Result<RuntimeContext<'static>, RuntimeError> {
        RuntimeContext::try_from_cow(graph, platform, Cow::Owned(db))
    }

    fn try_from_cow(
        graph: &TaskGraph,
        platform: &Platform,
        db: Cow<'a, DesignPointDb>,
    ) -> Result<Self, RuntimeError> {
        if db.is_empty() {
            return Err(RuntimeError::EmptyDatabase);
        }
        let points = db.points();
        let n = points.len();
        // The kernel indexes every mapping by task; a point that does not
        // fit the graph and platform is an input error, not a panic.
        for (point, p) in points.iter().enumerate() {
            p.mapping
                .validate(graph, platform)
                .map_err(|source| RuntimeError::InvalidMapping { point, source })?;
        }
        // Column j holds the costs from every point to point j: one
        // kernel pass per target (the diagonal comes out +0.0).
        let sources = DrcSources::new(graph, points.iter().map(|p| &p.mapping));
        let mut buffers = DrcBuffers::default();
        let mut drc = vec![0.0f64; n * n];
        for (j, to) in points.iter().enumerate() {
            let column = sources.totals(graph, platform, &to.mapping, &mut buffers);
            for (i, &c) in column.iter().enumerate() {
                drc[i * n + j] = c;
            }
        }
        let mut max_drc = 0.0f64;
        for (k, &c) in drc.iter().enumerate() {
            if !c.is_finite() {
                let (i, j) = (k / n, k % n);
                return Err(RuntimeError::NonFiniteMetric {
                    what: format!("dRC({i},{j})"),
                });
            }
            if c > max_drc {
                max_drc = c;
            }
        }
        let energy_norm = Normalizer::from_values(db.iter().map(|p| p.metrics.energy)).ok_or(
            RuntimeError::NonFiniteMetric {
                what: "energy".to_string(),
            },
        )?;
        // When every stored point has the same energy (e.g. a single-point
        // database) the candidates are indistinguishable on performance:
        // every score is 0 rather than NaN/inf.
        let norm_perf = if energy_norm.max() <= energy_norm.min() {
            vec![0.0; n]
        } else {
            db.iter()
                .map(|p| 1.0 - energy_norm.normalize(p.metrics.energy))
                .collect()
        };
        // A single-point database (or identical-cost points) gives a
        // degenerate [0, 0] range; `Normalizer` maps it to 0 rather than
        // dividing by zero.
        let drc_norm = Normalizer::new(0.0, max_drc).ok_or(RuntimeError::NonFiniteMetric {
            what: "dRC range".to_string(),
        })?;
        let index = FeasibilityIndex::new(db.as_ref());
        Ok(Self {
            db,
            index,
            drc,
            norm_perf,
            drc_norm,
        })
    }

    /// The stored database.
    pub fn db(&self) -> &DesignPointDb {
        &self.db
    }

    /// Number of stored design points (= RL states).
    pub fn len(&self) -> usize {
        self.db.len()
    }

    /// `true` if the database holds no points (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.db.is_empty()
    }

    /// Reconfiguration cost of moving from point `from` to point `to`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn drc(&self, from: usize, to: usize) -> f64 {
        self.drc_row(from)[to]
    }

    /// Normalised (0–1) reconfiguration cost.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn norm_drc(&self, from: usize, to: usize) -> f64 {
        self.drc_norm.normalize(self.drc(from, to))
    }

    /// Normalised (0–1) performance `R(p) = −J(p)`: 1 is the *best*
    /// (lowest-energy) stored point.
    ///
    /// When every stored point has the same energy (`max == min`, e.g. a
    /// single-point database) the score is `0.0` for all points — the
    /// candidates are indistinguishable on performance and must not inject
    /// NaN/inf into [`ura_argmax`](crate::UraPolicy).
    pub fn norm_performance(&self, point: usize) -> f64 {
        // Out-of-range indices score as worst-performance rather than
        // panicking mid-decision; the caller's feasible sets only contain
        // valid indices, so this is unreachable in practice.
        self.norm_perf.get(point).copied().unwrap_or(0.0)
    }

    /// The γ-free immediate RET term of Algorithm 1 out of `current`,
    /// resolved to flat table reads once per decision — see [`RetTerm`].
    /// An out-of-range `current` only panics once a candidate is scored.
    pub fn ret_term(&self, current: usize, p_rc: f64) -> RetTerm<'_> {
        RetTerm {
            p_rc,
            norm_perf: &self.norm_perf,
            drc_row: self.drc_row(current),
            drc_norm: self.drc_norm,
        }
    }

    /// Row `from` of the dRC matrix, empty when `from` is out of range,
    /// so indexing it panics for any bad `(from, to)` instead of reading
    /// into the next row.
    fn drc_row(&self, from: usize) -> &[f64] {
        let n = self.norm_perf.len();
        self.drc
            .get(from.saturating_mul(n)..)
            .and_then(|rest| rest.get(..n))
            .unwrap_or(&[])
    }

    /// Indices of points satisfying `spec` (Algorithm 1's `FEAS`),
    /// ascending — answered through the [`FeasibilityIndex`], which is
    /// property-tested to return exactly the linear scan's index set.
    pub fn feasible(&self, spec: &QosSpec) -> Vec<usize> {
        self.index.query(spec)
    }

    /// [`feasible`](Self::feasible) into a caller-owned buffer (cleared
    /// first), so per-event hot loops reuse one allocation across the
    /// whole event stream instead of allocating a fresh `Vec` per query.
    pub fn feasible_into(&self, spec: &QosSpec, out: &mut Vec<usize>) {
        self.index.query_into(spec, out);
    }

    /// The feasibility index over the stored database.
    pub fn feasibility_index(&self) -> &FeasibilityIndex {
        &self.index
    }
}

/// Algorithm 1's γ-free immediate term out of one current point,
///
/// ```text
/// RET₀(p) = p_RC · norm(R(p)) − (1 − p_RC) · norm(dRC(current → p))
/// ```
///
/// — the one definition every scorer shares: [`ura_argmax`](crate::ura_argmax)
/// adds `γ·V(p)` to it, AuRA's reward is it, and clr-learn's shadow
/// evaluation and oracle regret are measured with it.
#[derive(Debug, Clone, Copy)]
pub struct RetTerm<'a> {
    p_rc: f64,
    norm_perf: &'a [f64],
    drc_row: &'a [f64],
    drc_norm: Normalizer,
}

impl RetTerm<'_> {
    /// `(RET₀(p), norm(R(p)))` — the performance term is returned too
    /// because it is the first tie-break of [`ArgMax`].
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn score(&self, p: usize) -> (f64, f64) {
        let perf = self.norm_perf[p];
        let ret = self.p_rc * perf - (1.0 - self.p_rc) * self.drc_norm.normalize(self.drc_row[p]);
        (ret, perf)
    }
}

/// Running arg-max under Algorithm 1's tie rule: the higher RET wins,
/// equal RETs (e.g. several zero-dRC moves at `p_RC = 0` — points that
/// differ only in CLR configuration are free to switch between) resolve
/// toward the better performer, both by `total_cmp`, then the lower
/// index. The order is total over distinct indices, so the winner does
/// not depend on the order candidates are offered in.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArgMax {
    best: Option<(usize, f64, f64)>,
}

impl ArgMax {
    /// Offers candidate `p` with score `ret` and performance `perf`.
    #[inline]
    pub fn offer(&mut self, p: usize, ret: f64, perf: f64) {
        let wins = match self.best {
            None => true,
            // Most candidates lose on RET alone; the tie-breaks are only
            // evaluated for an exact tie.
            Some((q, best_ret, best_perf)) => match ret.total_cmp(&best_ret) {
                Ordering::Less => false,
                Ordering::Greater => true,
                Ordering::Equal => perf.total_cmp(&best_perf).then(q.cmp(&p)).is_ge(),
            },
        };
        if wins {
            self.best = Some((p, ret, perf));
        }
    }

    /// The winner and its score, `None` if nothing was offered.
    pub fn best(&self) -> Option<(usize, f64)> {
        self.best.map(|(p, ret, _)| (p, ret))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clr_dse::{explore_based, DseConfig, ExplorationMode};
    use clr_moea::GaParams;
    use clr_reliability::{ConfigSpace, FaultModel};
    use clr_sched::{reconfiguration_cost, Mapping, MappingError};
    use clr_taskgraph::{jpeg_encoder, ImplId, TgffConfig, TgffGenerator};

    fn fixture() -> (TaskGraph, Platform, DesignPointDb) {
        let graph = TgffGenerator::new(TgffConfig::with_tasks(8)).generate(17);
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
            17,
        );
        (graph, platform, db)
    }

    #[test]
    fn diagonal_is_free_and_matrix_is_nonnegative() {
        let (g, p, db) = fixture();
        let ctx = RuntimeContext::new(&g, &p, &db);
        for i in 0..ctx.len() {
            assert_eq!(ctx.drc(i, i), 0.0);
            for j in 0..ctx.len() {
                assert!(ctx.drc(i, j) >= 0.0);
                assert!((0.0..=1.0).contains(&ctx.norm_drc(i, j)));
            }
        }
    }

    #[test]
    fn best_energy_point_has_unit_performance() {
        let (g, p, db) = fixture();
        let ctx = RuntimeContext::new(&g, &p, &db);
        let best = (0..db.len())
            .min_by(|&a, &b| {
                db.get(a)
                    .unwrap()
                    .metrics
                    .energy
                    .total_cmp(&db.get(b).unwrap().metrics.energy)
            })
            .unwrap();
        assert!((ctx.norm_performance(best) - 1.0).abs() < 1e-12);
        for i in 0..ctx.len() {
            assert!((0.0..=1.0).contains(&ctx.norm_performance(i)));
        }
    }

    #[test]
    fn single_point_db_has_zero_norms() {
        // Degenerate feasible set: one stored point, so both the energy
        // range and the dRC range collapse to a single value. All
        // normalised scores must be exactly 0, never NaN or inf.
        let (g, p, db) = fixture();
        let mut single = DesignPointDb::new("single");
        single.push(db.get(0).unwrap().clone());
        let ctx = RuntimeContext::new(&g, &p, &single);
        assert_eq!(ctx.norm_performance(0), 0.0);
        assert_eq!(ctx.norm_drc(0, 0), 0.0);
    }

    /// Every accessor, bit for bit, against the `Normalizer` expressions
    /// over a freshly computed `reconfiguration_cost` matrix.
    fn assert_accessors_match(g: &TaskGraph, p: &Platform, db: &DesignPointDb) {
        let ctx = RuntimeContext::new(g, p, db);
        let n = db.len();
        let raw = |i: usize, j: usize| {
            if i == j {
                0.0
            } else {
                let (a, b) = (&db.get(i).unwrap().mapping, &db.get(j).unwrap().mapping);
                reconfiguration_cost(g, p, a, b).total()
            }
        };
        let max_drc = (0..n * n).map(|k| raw(k / n, k % n)).fold(0.0, f64::max);
        let drc_norm = Normalizer::new(0.0, max_drc).unwrap();
        let energy = Normalizer::from_values(db.iter().map(|p| p.metrics.energy)).unwrap();
        let perf: Vec<f64> = db
            .iter()
            .map(|p| {
                if energy.max() <= energy.min() {
                    0.0
                } else {
                    1.0 - energy.normalize(p.metrics.energy)
                }
            })
            .collect();
        for (i, perf_i) in perf.iter().enumerate() {
            assert_eq!(ctx.norm_performance(i).to_bits(), perf_i.to_bits());
            for (j, perf_j) in perf.iter().enumerate() {
                assert_eq!(ctx.drc(i, j).to_bits(), raw(i, j).to_bits());
                let norm = drc_norm.normalize(raw(i, j));
                assert_eq!(ctx.norm_drc(i, j).to_bits(), norm.to_bits());
                for p_rc in [0.0, 0.3, 1.0] {
                    let expected = p_rc * perf_j - (1.0 - p_rc) * norm;
                    let (ret, at) = ctx.ret_term(i, p_rc).score(j);
                    assert_eq!(ret.to_bits(), expected.to_bits());
                    assert_eq!(at.to_bits(), perf_j.to_bits());
                }
            }
        }
        assert_eq!(ctx.norm_performance(n), 0.0, "out of range scores 0");
    }

    #[test]
    fn accessors_are_bit_equal_to_the_normalizer_expressions() {
        let (g, p, db) = fixture();
        assert_accessors_match(&g, &p, &db);
        let mut single = DesignPointDb::new("single");
        single.push(db.get(0).unwrap().clone());
        assert_accessors_match(&g, &p, &single);
        let mut flat = DesignPointDb::new("flat");
        for point in &db {
            let mut point = point.clone();
            point.metrics.energy = 3.0;
            flat.push(point);
        }
        assert_accessors_match(&g, &p, &flat);
    }

    #[test]
    #[should_panic]
    fn drc_past_the_row_end_panics() {
        // A flat `from * n + to` index would silently read row 1 here.
        let (g, p, db) = fixture();
        let ctx = RuntimeContext::new(&g, &p, &db);
        let _ = ctx.drc(0, ctx.len());
    }

    #[test]
    fn argmax_is_max_by_in_every_order() {
        // Ties on RET, on performance and on both, offered in every
        // rotation of both directions.
        let cands: [(usize, f64, f64); 7] = [
            (0, 0.5, 0.2),
            (1, 0.7, 0.1),
            (2, 0.7, 0.3),
            (3, 0.7, 0.3),
            (4, -0.0, 0.9),
            (5, 0.0, 0.9),
            (6, 0.7, 0.3),
        ];
        for k in 0..cands.len() {
            for rev in [false, true] {
                let mut order = cands.to_vec();
                order.rotate_left(k);
                if rev {
                    order.reverse();
                }
                let expected = order
                    .iter()
                    .max_by(|a, b| {
                        a.1.total_cmp(&b.1)
                            .then(a.2.total_cmp(&b.2))
                            .then(b.0.cmp(&a.0))
                    })
                    .map(|&(p, ret, _)| (p, ret));
                let mut acc = ArgMax::default();
                for &(p, ret, perf) in &order {
                    acc.offer(p, ret, perf);
                }
                assert_eq!(acc.best(), expected);
                assert_eq!(acc.best(), Some((2, 0.7)));
            }
        }
        assert_eq!(ArgMax::default().best(), None);
    }

    #[test]
    fn feasible_matches_db_filter() {
        let (g, p, db) = fixture();
        let ctx = RuntimeContext::new(&g, &p, &db);
        let spec = QosSpec::new(f64::INFINITY, 0.0);
        assert_eq!(ctx.feasible(&spec).len(), db.len());
    }

    #[test]
    fn try_new_reports_empty_databases_as_typed_errors() {
        let (g, p, _db) = fixture();
        let empty = DesignPointDb::new("empty");
        assert_eq!(
            RuntimeContext::try_new(&g, &p, &empty).unwrap_err(),
            RuntimeError::EmptyDatabase
        );
    }

    /// `db` with point `at`'s mapping replaced by `mapping`.
    fn with_mapping(db: &DesignPointDb, at: usize, mapping: Mapping) -> DesignPointDb {
        let mut out = DesignPointDb::new(db.name().to_string());
        for (i, point) in db.iter().enumerate() {
            let mut point = point.clone();
            if i == at {
                point.mapping = mapping.clone();
            }
            out.push(point);
        }
        out
    }

    #[test]
    fn try_new_reports_a_mapping_of_another_graph_as_a_typed_error() {
        // A 40-gene mapping stored for the 11-task jpeg encoder.
        let p = Platform::dac19();
        let jpeg = jpeg_encoder();
        let cfg = DseConfig {
            ga: GaParams::small(),
            mode: ExplorationMode::Full,
            reference: None,
            max_points: None,
        };
        let db = explore_based(
            &jpeg,
            &p,
            FaultModel::default(),
            ConfigSpace::fine(),
            &cfg,
            3,
        );
        let tgff = TgffGenerator::new(TgffConfig::with_tasks(40)).generate(1);
        let foreign = Mapping::first_fit(&tgff, &p).unwrap();
        let at = db.len() - 1;
        let bad = with_mapping(&db, at, foreign);
        assert_eq!(
            RuntimeContext::try_new(&jpeg, &p, &bad).unwrap_err(),
            RuntimeError::InvalidMapping {
                point: at,
                source: MappingError::LengthMismatch {
                    genes: 40,
                    tasks: jpeg.num_tasks(),
                },
            }
        );
        assert!(RuntimeContext::try_new(&jpeg, &p, &db).is_ok());
    }

    #[test]
    fn try_new_reports_an_out_of_range_implementation_as_a_typed_error() {
        let (g, p, db) = fixture();
        let mut mapping = db.get(0).unwrap().mapping.clone();
        let impls = g.implementations(0.into()).len();
        mapping.genes_mut()[0].impl_id = ImplId::new(impls);
        let bad = with_mapping(&db, 0, mapping);
        let err = RuntimeContext::try_new(&g, &p, &bad).unwrap_err();
        assert_eq!(
            err,
            RuntimeError::InvalidMapping {
                point: 0,
                source: MappingError::UnknownImpl {
                    task: 0,
                    impl_id: impls,
                },
            }
        );
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn indexed_feasible_equals_linear_scan_exactly() {
        let (g, p, db) = fixture();
        let ctx = RuntimeContext::new(&g, &p, &db);
        let mut makespans: Vec<f64> = db.iter().map(|p| p.metrics.makespan).collect();
        makespans.sort_by(f64::total_cmp);
        let mut buf = Vec::new();
        for &s_max in &makespans {
            for f_min in [0.0, 0.5, 0.9, 0.99, 1.0] {
                let spec = QosSpec::new(s_max, f_min);
                assert_eq!(ctx.feasible(&spec), db.feasible_indices(&spec));
                ctx.feasible_into(&spec, &mut buf);
                assert_eq!(buf, db.feasible_indices(&spec));
            }
        }
    }
}
