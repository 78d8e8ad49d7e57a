//! CLR-integrated task mapping, scheduling and system-level metrics
//! (paper §3.4, Table 3) plus the reconfiguration model (§3.5).
//!
//! A [`Mapping`] assigns every task a PE binding, an implementation choice,
//! a CLR configuration and a schedule priority — one point `X_i` of the
//! design space `X_app = Π_t (M_t × C_t)` of Eq. (4). The [`Evaluator`]
//! list-schedules a mapping on a platform and derives the Table-3
//! system-level metrics:
//!
//! - average makespan `S_app = max_t SET_t` (Eq. 1),
//! - functional reliability `F_app = Σ_t ζ_t · F_t` with normalised task
//!   criticalities (Eq. 2),
//! - peak power `W_app` and average energy `J_app = Σ_t AvgExT_t · W_t`
//!   (Eq. 3).
//!
//! [`reconfiguration_cost`] implements the `dRC` distance between two
//! mappings: re-ordering and CLR-configuration changes are free (binaries
//! stay resident), implementation/PE-binding changes pay the binary copy
//! over the interconnect, and accelerator changes add the PRR bit-stream
//! reload (§3.5).
//!
//! # Examples
//!
//! ```
//! use clr_platform::Platform;
//! use clr_reliability::FaultModel;
//! use clr_sched::{Evaluator, Mapping};
//! use clr_taskgraph::jpeg_encoder;
//!
//! let platform = Platform::dac19();
//! let graph = jpeg_encoder();
//! let eval = Evaluator::new(&graph, &platform, FaultModel::default());
//! let mapping = Mapping::first_fit(&graph, &platform).expect("jpeg maps onto dac19");
//! let metrics = eval.evaluate(&mapping);
//! assert!(metrics.makespan > 0.0);
//! assert!(metrics.reliability > 0.0 && metrics.reliability <= 1.0);
//! ```

mod error;
mod evaluate;
mod gantt;
mod heft;
mod mapping;
mod reconfig;
mod scheduler;
mod utilization;

pub use error::MappingError;
pub use evaluate::{Evaluator, SystemMetrics};
pub use gantt::{gantt_ascii, schedule_csv};
pub use heft::heft_mapping;
pub use mapping::{Gene, Mapping};
pub use reconfig::{reconfiguration_cost, DrcBuffers, DrcSources, ReconfigBreakdown};
pub use scheduler::{list_schedule, Schedule, ScheduleEntry};
pub use utilization::{utilization, validate_schedule, ScheduleViolation, Utilization};

#[cfg(test)]
mod tests {
    use super::*;
    use clr_platform::Platform;
    use clr_reliability::FaultModel;
    use clr_taskgraph::jpeg_encoder;

    #[test]
    fn end_to_end_jpeg_on_dac19() {
        let platform = Platform::dac19();
        let graph = jpeg_encoder();
        let eval = Evaluator::new(&graph, &platform, FaultModel::default());
        let m = Mapping::first_fit(&graph, &platform).unwrap();
        let sm = eval.evaluate(&m);
        assert!(sm.energy > 0.0);
        assert!(sm.peak_power > 0.0);
        // Identity reconfiguration is free.
        assert_eq!(reconfiguration_cost(&graph, &platform, &m, &m).total(), 0.0);
    }
}
