//! Run-time adaptation layer (paper §4.3).
//!
//! On every discrete event — a change of the QoS requirement
//! `(S_SPEC, F_SPEC)` — the system may reconfigure to a different stored
//! design point. Two policies are provided:
//!
//! - [`UraPolicy`] — *user-modulated run-time adaptation* (Algorithm 1):
//!   filter the feasible stored points, score each by
//!   `RET(p) = p_RC · norm(R(p)) − (1 − p_RC) · norm(dRC(p))`
//!   and reconfigure to the arg-max. `p_RC = 1` recovers the purely
//!   performance-oriented baseline of Rehman et al.\ (ref.\ 11); `p_RC = 0`
//!   minimises reconfiguration cost (the system then only moves on a QoS
//!   violation, since staying costs `dRC = 0`).
//! - [`AuraAgent`] — *agent-based uRA*: a reinforcement-learning agent that
//!   scores feasible states by learned value functions (first-visit
//!   Monte-Carlo updates with discount `γ`; `γ = 0` degenerates to uRA).
//!   Prior knowledge about the QoS-variation distribution is injected by
//!   an offline Monte-Carlo pass ([`AuraAgent::train_prior`]).
//!
//! [`simulate`] runs the discrete-event Monte-Carlo evaluation of §5.1:
//! QoS requirements drawn from a bivariate Gaussian, inter-event gaps from
//! an exponential distribution with a mean of 100 cycles.
//!
//! # Examples
//!
//! ```
//! use clr_dse::{explore_based, DseConfig, ExplorationMode};
//! use clr_moea::GaParams;
//! use clr_platform::Platform;
//! use clr_reliability::{ConfigSpace, FaultModel};
//! use clr_runtime::{simulate, QosVariationModel, RuntimeContext, SimConfig, UraPolicy};
//! use clr_taskgraph::{TgffConfig, TgffGenerator};
//!
//! let graph = TgffGenerator::new(TgffConfig::with_tasks(10)).generate(9);
//! let platform = Platform::dac19();
//! let cfg = DseConfig { ga: GaParams::small(), ..DseConfig::default() };
//! let db = explore_based(&graph, &platform, FaultModel::default(),
//!                        ConfigSpace::fine(), &cfg, 9);
//! let ctx = RuntimeContext::new(&graph, &platform, &db);
//! let qos = QosVariationModel::calibrated(&db, 0.25, 0.3);
//! let mut policy = UraPolicy::new(0.5).unwrap();
//! let result = simulate(&ctx, &mut policy, &qos, &SimConfig::quick(11));
//! assert!(result.events > 0);
//! ```

mod agent;
mod analysis;
mod context;
mod error;
mod hv_policy;
mod qos;
mod sim;
mod ura;

pub use agent::{AuraAgent, PRIOR_BATCH};
pub use analysis::TraceAnalysis;
pub use context::{ArgMax, RetTerm, RuntimeContext};
pub use error::RuntimeError;
pub use hv_policy::HvPolicy;
pub use qos::{EventStream, QosEvent, QosVariationModel, VariationMode};
pub use sim::{
    simulate, simulate_checked, simulate_obs, simulate_replications, DecisionInput,
    DecisionOutcome, Feedback, RuntimePolicy, SimConfig, SimResult, TraceRecord,
};
pub use ura::{ura_argmax, UraPolicy};
