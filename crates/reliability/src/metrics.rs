//! Task-level performance metrics (paper Table 2).
//!
//! For one implementation of a task, one hosting PE type, one CLR
//! configuration and one fault environment, [`TaskMetrics::evaluate`]
//! derives:
//!
//! - `MinExT(t, i)` — fault-free execution time with all redundancy
//!   overheads but no retries,
//! - `AvgExT(t, i)` — expected execution time over fault outcomes,
//! - `ErrProb(t, i)` — probability an error escapes into the task output,
//! - `W(t, i)` — average active power,
//! - `η(t, i)` — Weibull scale parameter (stress indicator),
//! - `MTTF(t, i)` — mean time to failure.
//!
//! ## Composition model
//!
//! 1. The per-attempt time is the implementation's nominal time divided by
//!    the PE type's speed factor, inflated by the hardware and
//!    application-software time factors.
//! 2. The effective SEU rate is `λ_SEU × masking(PE) × rate(HW)`; exposure
//!    over one attempt gives the raw manifested-error probability
//!    `p = 1 − exp(−λ_eff · t_attempt)`.
//! 3. The hardware voter masks (`HwMethod::mask`), then the
//!    application-software layer corrects (`AswMethod::correct`) and
//!    provides detection coverage for the system-software layer's
//!    temporal redundancy (`SswMethod::apply`).

use clr_platform::PeType;
use clr_taskgraph::Implementation;
use serde::{Deserialize, Serialize};

use crate::{lifetime, ClrConfig, FaultModel};

/// The Table-2 task-level metrics of one `(implementation, PE type, CLR
/// configuration)` choice.
///
/// See the [module documentation](crate::TaskMetrics) and the module-level
/// docs for the derivation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskMetrics {
    /// Minimum (fault-free) execution time.
    pub min_ex_t: f64,
    /// Average execution time over fault outcomes.
    pub avg_ex_t: f64,
    /// Probability of an error escaping into the task's output.
    pub err_prob: f64,
    /// Average active power in milliwatts.
    pub power_mw: f64,
    /// Weibull scale parameter (stress indicator).
    pub eta: f64,
    /// Mean time to failure.
    pub mttf: f64,
}

impl TaskMetrics {
    /// Evaluates the task-level metrics.
    ///
    /// # Examples
    ///
    /// ```
    /// use clr_reliability::{ClrConfig, FaultModel, TaskMetrics};
    /// use clr_platform::{PeKind, PeType};
    /// use clr_taskgraph::{ImplId, Implementation, SwStack};
    ///
    /// let pe = PeType::new("c", PeKind::GeneralPurpose);
    /// let im = Implementation::new(ImplId::new(0), 0.into(), SwStack::Rtos, 80.0);
    /// let m = TaskMetrics::evaluate(&im, &pe, &ClrConfig::NONE, &FaultModel::default());
    /// assert_eq!(m.min_ex_t, 80.0); // speed factor 1.0, no overheads
    /// assert!(m.err_prob > 0.0);
    /// ```
    pub fn evaluate(
        im: &Implementation,
        pe_type: &PeType,
        cfg: &ClrConfig,
        fm: &FaultModel,
    ) -> TaskMetrics {
        // 1. Per-attempt execution time.
        let t_base = im.nominal_time() / pe_type.speed_factor();
        let t_attempt = t_base * cfg.hw.time_factor() * cfg.asw.time_factor();

        // 2. Exposure → raw manifested error probability.
        let lambda_eff = fm.lambda_seu() * pe_type.masking_factor() * cfg.hw.rate_factor();
        let p_raw = 1.0 - (-lambda_eff * t_attempt).exp();

        // 3. Layered masking / correction / temporal redundancy.
        let p_hw = cfg.hw.mask(p_raw);
        let p_asw = cfg.asw.correct(p_hw);
        let detection = cfg.asw.detection();
        let (min_ex_t, avg_ex_t, err_prob) =
            cfg.ssw.apply(t_attempt, p_asw, detection, im.sw_stack());

        // 4. Power, stress and lifetime.
        let power_mw = pe_type.active_power_mw()
            * im.power_scale()
            * cfg.hw.power_factor()
            * cfg.asw.power_factor();
        let eta = lifetime::weibull_scale(fm, power_mw);
        let mttf = lifetime::mttf(eta, pe_type.aging_beta());

        TaskMetrics {
            min_ex_t,
            avg_ex_t,
            err_prob: err_prob.clamp(0.0, 1.0),
            power_mw,
            eta,
            mttf,
        }
    }

    /// Expected energy of one execution: `AvgExT × W`.
    pub fn energy(&self) -> f64 {
        self.avg_ex_t * self.power_mw
    }

    /// Functional reliability of the task: `F_t = 1 − ErrProb` (Eq. 2).
    pub fn reliability(&self) -> f64 {
        1.0 - self.err_prob
    }

    /// The raw bits of every field, in declaration order: two records are
    /// the same computation's result exactly when these agree.
    pub fn to_bits(&self) -> [u64; 6] {
        [
            self.min_ex_t,
            self.avg_ex_t,
            self.err_prob,
            self.power_mw,
            self.eta,
            self.mttf,
        ]
        .map(f64::to_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AswMethod, ConfigSpace, HwMethod, SswMethod};
    use clr_platform::PeKind;
    use clr_taskgraph::{ImplId, SwStack};
    use proptest::prelude::*;

    fn pe(masking: f64, speed: f64) -> PeType {
        PeType::new("t", PeKind::GeneralPurpose)
            .with_masking_factor(masking)
            .unwrap()
            .with_speed_factor(speed)
            .unwrap()
    }

    fn im(t: f64) -> Implementation {
        Implementation::new(ImplId::new(0), 0.into(), SwStack::Rtos, t)
    }

    #[test]
    fn faster_pe_shortens_execution() {
        let fm = FaultModel::default();
        let slow = TaskMetrics::evaluate(&im(100.0), &pe(0.5, 1.0), &ClrConfig::NONE, &fm);
        let fast = TaskMetrics::evaluate(&im(100.0), &pe(0.5, 2.0), &ClrConfig::NONE, &fm);
        assert!(fast.min_ex_t < slow.min_ex_t);
        assert!(fast.err_prob < slow.err_prob, "less exposure, fewer errors");
    }

    #[test]
    fn lower_masking_factor_is_more_robust() {
        let fm = FaultModel::default();
        let frail = TaskMetrics::evaluate(&im(100.0), &pe(0.9, 1.0), &ClrConfig::NONE, &fm);
        let hard = TaskMetrics::evaluate(&im(100.0), &pe(0.2, 1.0), &ClrConfig::NONE, &fm);
        assert!(hard.err_prob < frail.err_prob);
    }

    #[test]
    fn tmr_trades_power_for_reliability() {
        let fm = FaultModel::default();
        let cfg = ClrConfig::new(HwMethod::FullTmr, SswMethod::None, AswMethod::None);
        let none = TaskMetrics::evaluate(&im(100.0), &pe(0.5, 1.0), &ClrConfig::NONE, &fm);
        let tmr = TaskMetrics::evaluate(&im(100.0), &pe(0.5, 1.0), &cfg, &fm);
        assert!(tmr.err_prob < none.err_prob);
        assert!(tmr.power_mw > none.power_mw);
        assert!(tmr.eta < none.eta, "hotter implementation ages faster");
        assert!(tmr.mttf < none.mttf);
    }

    #[test]
    fn retry_with_checksum_beats_retry_alone() {
        let fm = FaultModel::new(5e-3, 1e6, 1.0); // harsh environment
        let retry = ClrConfig::new(
            HwMethod::None,
            SswMethod::Retry { max_retries: 2 },
            AswMethod::None,
        );
        let retry_ck = ClrConfig::new(
            HwMethod::None,
            SswMethod::Retry { max_retries: 2 },
            AswMethod::Checksum,
        );
        let a = TaskMetrics::evaluate(&im(100.0), &pe(0.5, 1.0), &retry, &fm);
        let b = TaskMetrics::evaluate(&im(100.0), &pe(0.5, 1.0), &retry_ck, &fm);
        assert!(
            b.err_prob < a.err_prob,
            "better detection makes retry more effective: {} vs {}",
            b.err_prob,
            a.err_prob
        );
    }

    #[test]
    fn energy_and_reliability_helpers() {
        let fm = FaultModel::default();
        let m = TaskMetrics::evaluate(&im(50.0), &pe(0.5, 1.0), &ClrConfig::NONE, &fm);
        assert!((m.energy() - m.avg_ex_t * m.power_mw).abs() < 1e-9);
        assert!((m.reliability() - (1.0 - m.err_prob)).abs() < 1e-12);
    }

    #[test]
    fn zero_fault_rate_means_no_errors() {
        let fm = FaultModel::new(0.0, 1e6, 1.0);
        for cfg in ConfigSpace::fine().configs() {
            let m = TaskMetrics::evaluate(&im(100.0), &pe(0.5, 1.0), cfg, &fm);
            assert!(m.err_prob < 1e-12, "{cfg}: {}", m.err_prob);
            assert!((m.avg_ex_t - m.min_ex_t).abs() < 1e-9, "{cfg}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn metrics_are_well_formed_across_space(
            t in 1.0f64..500.0,
            masking in 0.05f64..1.0,
            speed in 0.5f64..2.0,
            lambda in 0.0f64..1e-2,
        ) {
            let fm = FaultModel::new(lambda, 1e6, 1.0);
            let p = pe(masking, speed);
            let i = im(t);
            for cfg in ConfigSpace::fine().configs() {
                let m = TaskMetrics::evaluate(&i, &p, cfg, &fm);
                prop_assert!(m.min_ex_t > 0.0);
                prop_assert!(m.avg_ex_t >= m.min_ex_t - 1e-9);
                prop_assert!((0.0..=1.0).contains(&m.err_prob));
                prop_assert!(m.power_mw > 0.0);
                prop_assert!(m.eta > 0.0 && m.mttf > 0.0);
            }
        }

        #[test]
        fn any_mitigation_never_raises_error_vs_none(
            t in 1.0f64..500.0,
            lambda in 1e-6f64..5e-3,
        ) {
            let fm = FaultModel::new(lambda, 1e6, 1.0);
            let p = pe(0.6, 1.0);
            let i = im(t);
            let base = TaskMetrics::evaluate(&i, &p, &ClrConfig::NONE, &fm);
            for cfg in ConfigSpace::fine().configs() {
                // Mitigation lengthens attempts (more exposure) but the
                // masking/correction/retry must still win overall in the
                // small-error regime the models target.
                let m = TaskMetrics::evaluate(&i, &p, cfg, &fm);
                if cfg.is_none() { continue; }
                if base.err_prob < 0.2 {
                    prop_assert!(
                        m.err_prob <= base.err_prob * cfg.hw.time_factor() * cfg.asw.time_factor() + 1e-9,
                        "{cfg}: {} vs base {}", m.err_prob, base.err_prob
                    );
                }
            }
        }
    }
}
