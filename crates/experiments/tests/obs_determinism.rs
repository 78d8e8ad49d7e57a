//! The deterministic journal section must be bit-identical for every
//! worker-thread count (the acceptance test behind the `ci.sh`
//! instrumented smoke run, exercised here at the quick scale).

use clr_core::prelude::*;
use clr_experiments::kernels::{csp_migration_comparison, Bundle};
use clr_experiments::Env;

/// Runs a table4-style CSP comparison at the given thread count with a
/// fresh journal and returns the rendered deterministic section.
fn journal_at(threads: usize) -> String {
    let mut env = Env::quick();
    env.ga.threads = threads;
    env.red.ga.threads = threads;
    env.obs = Obs::new(ObsMode::Json);
    let bundle = Bundle::new(&env, 10);
    let c = csp_migration_comparison(&env, &bundle, 0);
    assert!(c.baseline.events > 0 && c.proposed.events > 0);
    env.obs.render_det_jsonl_labeled("table4-smoke")
}

#[test]
fn deterministic_journal_is_bit_identical_across_thread_counts() {
    let serial = journal_at(1);
    let parallel = journal_at(8);
    assert!(!serial.is_empty());
    assert_eq!(serial, parallel, "det journal must not depend on threads");
    // The journal carries the per-generation MOEA statistics and at least
    // one agent decision record per QoS event.
    assert!(serial.contains("\"type\":\"ga_gen\""));
    assert!(serial.contains("\"hv\":"));
    assert!(serial.contains("\"type\":\"decision\""));
    assert!(serial.contains("\"type\":\"red_seed\""));
    assert!(serial.contains("\"type\":\"sim_end\""));
}
