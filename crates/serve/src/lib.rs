//! clr-serve: the multi-tenant runtime decision engine.
//!
//! The design-time half of the methodology produces design-point
//! databases (BaseD/ReD); this crate is the run-time serving layer that
//! consumes them at fleet scale. Three pieces:
//!
//! - **Snapshot store** ([`Snapshot`]): a compact versioned binary
//!   container for a published database plus the model descriptors
//!   needed to rebuild its [`clr_runtime::RuntimeContext`], protected by
//!   an FNV-1a integrity checksum. `examples/export_db.rs` emits it;
//!   `clr-verify snapshot` lints it (CLR06x).
//! - **Trace codec** ([`Trace`]): batched QoS-event workloads as JSONL,
//!   either seeded-generated ([`generate_trace`]) or replayed from disk.
//! - **Event engine** ([`replay`]): a deterministic event loop
//!   multiplexing many [`Tenant`]s (application × database × policy),
//!   fanning independent tenants across `clr-par` workers bit-identically
//!   at any thread count, and emitting per-tenant decision journals
//!   through `clr-obs`.
//!
//! The `clr-serve` binary fronts all three (`snapshot`, `inspect`,
//! `gen-trace`, `replay`).

pub mod cli;
mod daemon;
mod engine;
pub mod health;
mod session;
mod snapshot;
mod tenant;
mod trace;
pub mod wire;

pub use clr_chaos::{FaultKind, FaultPlan, FaultPlanError, FaultRates};
/// The payload checksum of snapshots and wire frames (the workspace's one
/// FNV-1a).
pub use clr_learn::fnv1a64;
pub use daemon::{serve_stream, Daemon, DaemonConfig, DaemonError, DaemonReport};
pub use engine::{
    replay, DecisionRecord, LearnSummary, PromoteRecord, ReplayConfig, ReplayError, ReplayReport,
    ServeStatus, SwapRecord, TenantOutcome, DECISIONS_CSV_HEADER,
};
pub use health::{
    ab_report_from_journal, fleet_snapshot, flight_rows, render_prometheus, telemetry_from_journal,
    HealthState, FLIGHT_RECORDER_LEN, HEALTH_WINDOW,
};
pub use session::TenantSession;
pub use snapshot::{
    compute_stamps, resolve_graph, resolve_platform, Lineage, LineageSnapshot, PointStamp,
    Snapshot, SnapshotError, FORMAT_VERSION, FORMAT_VERSION2, GENESIS_PUBLISHER, HEADER_LEN, MAGIC,
    MAGIC2,
};
pub use tenant::{PolicySpec, Tenant};
pub use trace::{generate_trace, is_plain_name, Trace, TraceError, TraceEvent};
