//! The per-tenant online learner: incumbent/candidate value tables,
//! shadow evaluation with counterfactual regret, seeded exploration,
//! and reconfiguration prefetch.

use clr_runtime::{ArgMax, DecisionInput, DecisionOutcome, Feedback};

use crate::ab::{assign_variant, fnv1a64, splitmix64, Variant};
use crate::LearnConfig;

/// Which value table is serving live decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table {
    /// The incumbent (frozen) table.
    Live,
    /// The online-learned candidate table.
    Shadow,
}

impl Table {
    /// Stable lowercase label (journal `shadow` events).
    pub fn label(self) -> &'static str {
        match self {
            Self::Live => "live",
            Self::Shadow => "shadow",
        }
    }

    /// Parses a [`Table::label`] string.
    ///
    /// # Errors
    ///
    /// Returns the unrecognised input.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "live" => Ok(Self::Live),
            "shadow" => Ok(Self::Shadow),
            other => Err(format!("unknown serving table {other:?}")),
        }
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One scored decision's shadow evaluation: what the incumbent and the
/// candidate each picked, and each pick's one-step oracle regret.
///
/// Regret is measured against the one-step oracle over the same feasible
/// set: `regret(p) = max_q RET₀(q) − RET₀(p)` with
/// `RET₀(p) = p_RC·norm(R(p)) − (1 − p_RC)·norm(dRC(current → p))` —
/// the γ-free immediate term, so the number is non-negative, finite, and
/// recomputable by a lint without the learner's value state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShadowRecord {
    /// Tenant-local event ordinal (1-based). The learner stamps its own
    /// scored-decision count; the serving session overwrites this with
    /// the stream ordinal before journaling.
    pub event: usize,
    /// The incumbent table's pick.
    pub live_choice: usize,
    /// The candidate table's pick (after any seeded exploration).
    pub shadow_choice: usize,
    /// One-step oracle regret of the incumbent's pick (≥ 0).
    pub live_regret: f64,
    /// One-step oracle regret of the candidate's pick (≥ 0).
    pub shadow_regret: f64,
    /// Which table's pick was actually served.
    pub serving: Table,
    /// The tenant's A/B variant.
    pub variant: Variant,
}

/// A per-tenant online learner implementing
/// [`RuntimePolicy`](clr_runtime::RuntimePolicy).
///
/// Two value tables share one AuRA-shaped decision rule (the
/// [`ura_argmax`](clr_runtime::ura_argmax) scoring and tie rule, both
/// tables in one pass): the **incumbent** (`live`) is frozen until an
/// explicit [`promote`](LearnerState::promote); the **candidate**
/// (`shadow`) is TD(0)-updated from every executed transition delivered
/// through the [`observe`](clr_runtime::RuntimePolicy::observe) hook.
/// Every scored decision evaluates both tables and records a
/// [`ShadowRecord`] with each pick's counterfactual regret; the seeded
/// A/B [`Variant`] decides which table serves.
///
/// Everything is a pure function of `(config, tenant name, event
/// stream)`: exploration draws from a counter-based stream keyed by
/// `(seed, tenant, decision ordinal)`, so replays are byte-identical at
/// any thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct LearnerState {
    pub(crate) cfg: LearnConfig,
    pub(crate) tenant: String,
    pub(crate) tenant_hash: u64,
    pub(crate) variant: Variant,
    pub(crate) serving: Table,
    pub(crate) live: Vec<f64>,
    pub(crate) shadow: Vec<f64>,
    /// Dense `from × to` transition counts over stored points.
    pub(crate) transitions: Vec<u64>,
    /// Per source row, the most-travelled off-diagonal destination (ties
    /// to the lower index; `None` without history) — a running arg-max of
    /// `transitions`, kept in step on every increment. Derived state: not
    /// checkpointed, rebuilt from the counts on restore.
    pub(crate) row_best: Vec<Option<usize>>,
    pub(crate) points: usize,
    /// Snapshot-store generation of the database the tables index into.
    pub(crate) generation: u64,
    /// Scored (clean-path) decisions so far — the exploration counter.
    pub(crate) decisions: u64,
    pub(crate) explored: u64,
    /// Predicted destination of the next reconfiguration, from the
    /// transition counts out of the current state.
    pub(crate) prediction: Option<usize>,
    pub(crate) prefetch_hits: u64,
    pub(crate) prefetch_misses: u64,
    /// Reconfiguration cost overlapped with execution on prefetch hits.
    pub(crate) prefetch_saved_drc: f64,
    pub(crate) cum_live_regret: f64,
    pub(crate) cum_shadow_regret: f64,
    pub(crate) promotions: u64,
    pub(crate) last_shadow: Option<ShadowRecord>,
}

impl LearnerState {
    /// Opens a learner for `tenant` over `points` stored design points at
    /// snapshot-store generation `generation`. The A/B variant is derived
    /// from `(cfg.seed, tenant)`; both tables start at zero (fresh cold
    /// start — restore a checkpoint to resume).
    ///
    /// # Errors
    ///
    /// Propagates [`LearnConfig::validate`] failures.
    pub fn new(
        tenant: impl Into<String>,
        points: usize,
        generation: u64,
        cfg: LearnConfig,
    ) -> Result<Self, String> {
        cfg.validate()?;
        let tenant = tenant.into();
        let variant = assign_variant(cfg.seed, &tenant);
        let serving = match variant {
            Variant::Control => Table::Live,
            Variant::Treatment => Table::Shadow,
        };
        let tenant_hash = fnv1a64(tenant.as_bytes());
        Ok(Self {
            cfg,
            tenant,
            tenant_hash,
            variant,
            serving,
            live: vec![0.0; points],
            shadow: vec![0.0; points],
            transitions: vec![0; points * points],
            row_best: vec![None; points],
            points,
            generation,
            decisions: 0,
            explored: 0,
            prediction: None,
            prefetch_hits: 0,
            prefetch_misses: 0,
            prefetch_saved_drc: 0.0,
            cum_live_regret: 0.0,
            cum_shadow_regret: 0.0,
            promotions: 0,
            last_shadow: None,
        })
    }

    /// The learner's hyper-parameters.
    pub fn config(&self) -> &LearnConfig {
        &self.cfg
    }

    /// The tenant this learner is attached to.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The tenant's seeded A/B variant.
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// Which table is currently serving live decisions.
    pub fn serving(&self) -> Table {
        self.serving
    }

    /// Number of stored points the tables index into.
    pub fn points(&self) -> usize {
        self.points
    }

    /// Snapshot-store generation the learned state belongs to.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Scored (clean-path) decisions so far.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Decisions on which seeded exploration overrode the candidate.
    pub fn explored(&self) -> u64 {
        self.explored
    }

    /// Reconfigurations whose destination the prefetcher predicted.
    pub fn prefetch_hits(&self) -> u64 {
        self.prefetch_hits
    }

    /// Reconfigurations the prefetcher predicted wrongly (or not at all).
    pub fn prefetch_misses(&self) -> u64 {
        self.prefetch_misses
    }

    /// Total reconfiguration cost overlapped with execution on hits.
    pub fn prefetch_saved_drc(&self) -> f64 {
        self.prefetch_saved_drc
    }

    /// Cumulative one-step oracle regret of the incumbent's picks.
    pub fn cum_live_regret(&self) -> f64 {
        self.cum_live_regret
    }

    /// Cumulative one-step oracle regret of the candidate's picks.
    pub fn cum_shadow_regret(&self) -> f64 {
        self.cum_shadow_regret
    }

    /// Promotions applied so far.
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// The incumbent value table.
    pub fn live_values(&self) -> &[f64] {
        &self.live
    }

    /// The candidate value table.
    pub fn shadow_values(&self) -> &[f64] {
        &self.shadow
    }

    /// Takes the shadow evaluation of the most recent scored decision
    /// (`None` if the last event was unscored: empty feasible set, fault
    /// ladder, quarantine).
    pub fn take_shadow(&mut self) -> Option<ShadowRecord> {
        self.last_shadow.take()
    }

    /// Promotes the candidate: the shadow table is copied over the
    /// incumbent and the incumbent serves from the next decision on.
    /// Deterministic given the stream position it is applied at — the
    /// daemon applies it batch-flush-first, like `SwapDb`.
    pub fn promote(&mut self) {
        self.live.copy_from_slice(&self.shadow);
        self.serving = Table::Live;
        self.promotions += 1;
    }

    /// Re-seats the learner after a database hot-swap: tables resize to
    /// the new point count (retained where indices overlap, zero beyond),
    /// transition counts and the prefetch prediction reset (point indices
    /// are not comparable across generations), counters and regret
    /// accumulators survive.
    pub fn reseat(&mut self, points: usize, generation: u64) {
        self.live.resize(points, 0.0);
        self.shadow.resize(points, 0.0);
        self.transitions = vec![0; points * points];
        self.row_best = vec![None; points];
        self.prediction = None;
        self.points = points;
        self.generation = generation;
        self.last_shadow = None;
    }

    /// Recomputes [`row_best`](Self::row_best) from the transition counts
    /// (checkpoint restore).
    pub(crate) fn rebuild_row_best(&mut self) {
        self.row_best.clear();
        if self.points == 0 {
            return;
        }
        for (from, row) in self.transitions.chunks_exact(self.points).enumerate() {
            let mut best: Option<usize> = None;
            for (to, &c) in row.iter().enumerate() {
                if to != from && c > 0 && best.is_none_or(|b| c > row[b]) {
                    best = Some(to);
                }
            }
            self.row_best.push(best);
        }
    }

    /// The exploration stream: one avalanche-mixed draw per scored
    /// decision, keyed by `(seed, tenant, ordinal)`.
    fn explore_draw(&self, ordinal: u64) -> u64 {
        splitmix64(self.cfg.seed ^ self.tenant_hash ^ splitmix64(ordinal))
    }
}

impl clr_runtime::RuntimePolicy for LearnerState {
    fn decide(&mut self, input: &DecisionInput<'_, '_>) -> DecisionOutcome {
        let (ctx, current, feasible) = (input.ctx, input.current, input.feasible);
        let p_rc = self.cfg.p_rc;
        let gamma = self.cfg.gamma;
        // One pass scores both tables and the γ-free oracle: the immediate
        // term is computed once per candidate and shared.
        let term = ctx.ret_term(current, p_rc);
        let (mut live_best, mut shadow_best) = (ArgMax::default(), ArgMax::default());
        let mut oracle = f64::NEG_INFINITY;
        for &p in feasible {
            let (base, perf) = term.score(p);
            live_best.offer(p, base + gamma * self.live[p], perf);
            shadow_best.offer(p, base + gamma * self.shadow[p], perf);
            oracle = oracle.max(base);
        }
        let (Some((live_choice, live_ret)), Some((mut shadow_choice, mut shadow_ret))) =
            (live_best.best(), shadow_best.best())
        else {
            // Empty feasible set: nothing to score, nothing to shadow.
            self.last_shadow = None;
            return DecisionOutcome {
                choice: None,
                score: None,
                p_rc: Some(p_rc),
            };
        };

        self.decisions += 1;
        // Seeded ε-greedy exploration, applied to the candidate only when
        // the candidate serves: a control tenant's behaviour must be
        // exactly the frozen incumbent's.
        if self.serving == Table::Shadow && self.cfg.epsilon > 0.0 {
            let draw = self.explore_draw(self.decisions);
            #[allow(clippy::cast_precision_loss)]
            let unit = (draw >> 11) as f64 / (1u64 << 53) as f64;
            if unit < self.cfg.epsilon {
                let forced = feasible[(splitmix64(draw) % feasible.len() as u64) as usize];
                shadow_choice = forced;
                shadow_ret = term.score(forced).0 + gamma * self.shadow[forced];
                self.explored += 1;
            }
        }

        // One-step regret against the γ-free oracle of the same pass.
        let live_regret = (oracle - term.score(live_choice).0).max(0.0);
        let shadow_regret = (oracle - term.score(shadow_choice).0).max(0.0);
        self.cum_live_regret += live_regret;
        self.cum_shadow_regret += shadow_regret;

        let (choice, score) = match self.serving {
            Table::Live => (live_choice, live_ret),
            Table::Shadow => (shadow_choice, shadow_ret),
        };
        self.last_shadow = Some(ShadowRecord {
            event: self.decisions as usize,
            live_choice,
            shadow_choice,
            live_regret,
            shadow_regret,
            serving: self.serving,
            variant: self.variant,
        });
        DecisionOutcome {
            choice: Some(choice),
            score: Some(score),
            p_rc: Some(p_rc),
        }
    }

    fn observe(&mut self, feedback: &Feedback<'_, '_>) {
        let (ctx, from, to) = (feedback.ctx, feedback.from, feedback.to);
        if from >= self.points || to >= self.points {
            return;
        }
        // Prefetch accounting: a reconfiguration whose destination the
        // previous prediction named overlaps its cost with execution.
        if to != from {
            if self.prediction == Some(to) {
                self.prefetch_hits += 1;
                self.prefetch_saved_drc += ctx.drc(from, to);
            } else {
                self.prefetch_misses += 1;
            }
        }
        let row = &mut self.transitions[from * self.points..(from + 1) * self.points];
        row[to] += 1;
        if to != from {
            // Counts only grow, so the row's arg-max can only move to the
            // entry just incremented: higher count wins, then lower index.
            let best = &mut self.row_best[from];
            if best.is_none_or(|b| (row[to], b) > (row[b], to)) {
                *best = Some(to);
            }
        }
        // TD(0) update of the candidate from the executed transition —
        // including ladder-served transitions the policy did not pick:
        // the candidate learns from reality, not from its own plan.
        let reward = ctx.ret_term(from, self.cfg.p_rc).score(to).0;
        let alpha = self.cfg.alpha;
        let gamma = self.cfg.gamma;
        self.shadow[from] += alpha * (reward + gamma * self.shadow[to] - self.shadow[from]);
        // The prediction out of the new state: its most-travelled move,
        // ties to the lower index, none without history.
        self.prediction = self.row_best[to];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clr_dse::{DesignPoint, DesignPointDb, PointOrigin, QosSpec};
    use clr_platform::Platform;
    use clr_runtime::{RuntimeContext, RuntimePolicy};
    use clr_sched::{Mapping, SystemMetrics};
    use clr_taskgraph::jpeg_encoder;

    fn fixture(n: usize) -> (clr_taskgraph::TaskGraph, Platform, DesignPointDb) {
        let graph = jpeg_encoder();
        let platform = Platform::dac19();
        let mapping = Mapping::first_fit(&graph, &platform).unwrap();
        let mut db = DesignPointDb::new("t");
        for i in 0..n {
            let f = i as f64 / n as f64;
            db.push(DesignPoint::new(
                mapping.clone(),
                SystemMetrics {
                    makespan: 50.0 + 100.0 * f,
                    reliability: 0.6 + 0.35 * f,
                    energy: 1.0 + f,
                    peak_power: 1.0,
                    mean_mttf: 100.0,
                },
                PointOrigin::Pareto,
            ));
        }
        (graph, platform, db)
    }

    fn learner(tenant: &str, points: usize, epsilon: f64, seed: u64) -> LearnerState {
        LearnerState::new(
            tenant,
            points,
            0,
            LearnConfig::new(0.5, 0.6, 0.2, epsilon, seed).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn scored_decisions_record_nonnegative_regret() {
        let (g, p, db) = fixture(8);
        let ctx = RuntimeContext::new(&g, &p, &db);
        let spec = QosSpec::new(f64::MAX, 0.0);
        let feasible = ctx.feasible(&spec);
        let mut l = learner("cam0", db.len(), 0.0, 7);
        let mut current = 0usize;
        for _ in 0..20 {
            let out = l.decide(&DecisionInput {
                ctx: &ctx,
                current,
                spec: &spec,
                feasible: &feasible,
            });
            let to = out.choice.unwrap();
            l.observe(&Feedback {
                ctx: &ctx,
                from: current,
                to,
            });
            let s = l.take_shadow().unwrap();
            assert!(s.live_regret >= 0.0 && s.live_regret.is_finite());
            assert!(s.shadow_regret >= 0.0 && s.shadow_regret.is_finite());
            current = to;
        }
        assert_eq!(l.decisions(), 20);
        assert!(l.cum_live_regret() >= 0.0);
    }

    #[test]
    fn empty_feasible_set_scores_nothing() {
        let (g, p, db) = fixture(4);
        let ctx = RuntimeContext::new(&g, &p, &db);
        let spec = QosSpec::new(0.0, 1.0);
        let mut l = learner("cam0", db.len(), 0.1, 7);
        let out = l.decide(&DecisionInput {
            ctx: &ctx,
            current: 0,
            spec: &spec,
            feasible: &[],
        });
        assert_eq!(out.choice, None);
        assert_eq!(l.take_shadow(), None);
        assert_eq!(l.decisions(), 0);
    }

    #[test]
    fn control_tenants_never_explore() {
        let (g, p, db) = fixture(8);
        let ctx = RuntimeContext::new(&g, &p, &db);
        let spec = QosSpec::new(f64::MAX, 0.0);
        let feasible = ctx.feasible(&spec);
        // Find a control tenant under this seed.
        let name = (0..32)
            .map(|i| format!("t{i}"))
            .find(|n| assign_variant(7, n) == Variant::Control)
            .unwrap();
        let mut l = learner(&name, db.len(), 0.9, 7);
        assert_eq!(l.serving(), Table::Live);
        for _ in 0..50 {
            let _ = l.decide(&DecisionInput {
                ctx: &ctx,
                current: 0,
                spec: &spec,
                feasible: &feasible,
            });
        }
        assert_eq!(l.explored(), 0, "exploration is candidate-serving only");
    }

    #[test]
    fn treatment_tenants_explore_at_the_seeded_rate() {
        let (g, p, db) = fixture(8);
        let ctx = RuntimeContext::new(&g, &p, &db);
        let spec = QosSpec::new(f64::MAX, 0.0);
        let feasible = ctx.feasible(&spec);
        let name = (0..32)
            .map(|i| format!("t{i}"))
            .find(|n| assign_variant(7, n) == Variant::Treatment)
            .unwrap();
        let mut a = learner(&name, db.len(), 0.5, 7);
        let mut b = learner(&name, db.len(), 0.5, 7);
        for _ in 0..200 {
            let oa = a.decide(&DecisionInput {
                ctx: &ctx,
                current: 0,
                spec: &spec,
                feasible: &feasible,
            });
            let ob = b.decide(&DecisionInput {
                ctx: &ctx,
                current: 0,
                spec: &spec,
                feasible: &feasible,
            });
            assert_eq!(oa, ob, "the exploration stream is deterministic");
        }
        assert!(a.explored() > 50 && a.explored() < 150, "{}", a.explored());
    }

    #[test]
    fn td_updates_move_the_candidate_only() {
        let (g, p, db) = fixture(6);
        let ctx = RuntimeContext::new(&g, &p, &db);
        let mut l = learner("cam0", db.len(), 0.0, 7);
        l.observe(&Feedback {
            ctx: &ctx,
            from: 0,
            to: 1,
        });
        assert!(l.shadow_values().iter().any(|&v| v != 0.0));
        assert!(l.live_values().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn promote_copies_the_candidate_over_the_incumbent() {
        let (g, p, db) = fixture(6);
        let ctx = RuntimeContext::new(&g, &p, &db);
        let mut l = learner("cam0", db.len(), 0.0, 7);
        for _ in 0..5 {
            l.observe(&Feedback {
                ctx: &ctx,
                from: 0,
                to: 1,
            });
        }
        assert_ne!(l.live_values(), l.shadow_values());
        l.promote();
        assert_eq!(l.live_values(), l.shadow_values());
        assert_eq!(l.serving(), Table::Live);
        assert_eq!(l.promotions(), 1);
    }

    #[test]
    fn prefetch_predicts_the_most_travelled_move() {
        let (g, p, db) = fixture(6);
        let ctx = RuntimeContext::new(&g, &p, &db);
        let mut l = learner("cam0", db.len(), 0.0, 7);
        // Build history: 1 → 2 twice, 1 → 3 once; from state 1 the
        // prediction must be 2.
        for to in [2, 3, 2] {
            l.observe(&Feedback {
                ctx: &ctx,
                from: 1,
                to,
            });
            // Return to 1 each time (refreshes prediction from state 1's
            // row last).
            l.observe(&Feedback {
                ctx: &ctx,
                from: to,
                to: 1,
            });
        }
        assert_eq!(l.prediction, Some(2));
        let before = l.prefetch_hits();
        l.observe(&Feedback {
            ctx: &ctx,
            from: 1,
            to: 2,
        });
        assert_eq!(l.prefetch_hits(), before + 1);
        l.observe(&Feedback {
            ctx: &ctx,
            from: 2,
            to: 1,
        });
        l.observe(&Feedback {
            ctx: &ctx,
            from: 1,
            to: 3,
        });
        assert!(l.prefetch_misses() >= 1);
        assert!(l.prefetch_saved_drc() >= 0.0);
    }

    #[test]
    fn reseat_resizes_tables_and_clears_history() {
        let (g, p, db) = fixture(6);
        let ctx = RuntimeContext::new(&g, &p, &db);
        let mut l = learner("cam0", db.len(), 0.0, 7);
        for _ in 0..3 {
            l.observe(&Feedback {
                ctx: &ctx,
                from: 0,
                to: 1,
            });
        }
        let kept = l.shadow_values()[0];
        l.reseat(4, 9);
        assert_eq!(l.points(), 4);
        assert_eq!(l.generation(), 9);
        assert_eq!(l.shadow_values().len(), 4);
        assert_eq!(l.shadow_values()[0], kept, "overlapping indices survive");
        assert_eq!(l.prediction, None);
        assert!(l.transitions.iter().all(|&c| c == 0));
    }

    /// The row-scan prefetch predictor the running row arg-max replaces:
    /// the most-travelled off-diagonal move, ties to the lower index.
    fn scanned_prediction(l: &LearnerState, state: usize) -> Option<usize> {
        let row = &l.transitions[state * l.points..(state + 1) * l.points];
        row.iter()
            .enumerate()
            .filter(|&(j, &c)| j != state && c > 0)
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(j, _)| j)
    }

    #[test]
    fn running_row_argmax_equals_the_row_scan() {
        let (g, p, db) = fixture(9);
        let ctx = RuntimeContext::new(&g, &p, &db);
        let n = db.len();
        let mut l = learner("cam0", n, 0.0, 7);
        let mut draw = 0x5eed_u64;
        let mut current = 0usize;
        let mut step = |l: &mut LearnerState, current: &mut usize| {
            draw = splitmix64(draw);
            // A skewed walk (low indices favoured) so rows build real
            // ties and reversals; self-loops included.
            let to = ((draw % n as u64) * ((draw >> 32) & 1)) as usize;
            l.observe(&Feedback {
                ctx: &ctx,
                from: *current,
                to,
            });
            *current = to;
            assert_eq!(l.prediction, scanned_prediction(l, to));
            for s in 0..l.points {
                assert_eq!(l.row_best[s], scanned_prediction(l, s), "row {s}");
            }
        };
        for _ in 0..300 {
            step(&mut l, &mut current);
        }
        // Restored from a checkpoint: the cache is rebuilt from the counts.
        l = LearnerState::from_bytes(&l.to_bytes()).unwrap();
        for s in 0..n {
            assert_eq!(l.row_best[s], scanned_prediction(&l, s), "restored row {s}");
        }
        for _ in 0..300 {
            step(&mut l, &mut current);
        }
        // Re-seated: the cache is cleared with the counts.
        l.reseat(n, 1);
        assert!(l.row_best.iter().all(Option::is_none));
        for _ in 0..300 {
            step(&mut l, &mut current);
        }
        assert!(l.prefetch_hits() > 0);
    }
}
