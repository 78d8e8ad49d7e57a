// Seeded violation: a call to the RuntimePolicy shim that predated the
// DecisionInput redesign; it no longer exists outside this fixture.
pub fn legacy_decide(
    policy: &mut dyn clr_runtime::RuntimePolicy,
    ctx: &clr_runtime::RuntimeContext<'_>,
    spec: &clr_dse::QosSpec,
) {
    let _ = policy.decide_scored(ctx, 0, spec);
}
