//! Frozen versus online AuRA under requirement drift.
//!
//! The drifting workload models a fault-pressure cycle: each tenant's
//! QoS stream sweeps between a relaxed regime (loose reliability floor,
//! tight latency) and a high-pressure regime (tight reliability floor,
//! relaxed latency) several times over the run. The comparison uses the
//! seeded A/B machinery itself: one fleet is seeded so every tenant
//! lands in the **control** arm (serving the frozen live incumbent),
//! a twin fleet so every tenant lands in **treatment** (serving the
//! online TD candidate with reconfiguration prefetch). Same graphs,
//! same databases, same drifting trace — the arms differ only in which
//! table serves, so per-tenant realized trajectories are directly
//! comparable.
//!
//! The headline is realized service latency per served event:
//! `makespan(active point) + reconfiguration stall`, where each arm's
//! stall is reduced by the dRC cycles its prefetcher overlapped with
//! execution. The exploration regret is the ε-greedy candidate table's
//! regret, which only the online arm serves. Every figure is a pure
//! function of the seeds — no clock is read — so
//! `results/learn_drift.csv` is the same at any `CLR_THREADS`. The
//! scale is fixed (`CLR_FULL`/`CLR_QUICK` do not apply): the whole run
//! takes well under a second in a release build.

use clr_core::prelude::*;
use clr_core::serve::{ReplayReport, ServeStatus};
use clr_experiments::pct_increase;
use clr_experiments::report::{f3, Table};
use clr_learn::{assign_variant, Variant};

/// Tenants per fleet.
const TENANTS: usize = 8;

/// Drifting requests per tenant.
const EVENTS_PER_TENANT: usize = 6_000;

/// A tiny deterministic generator (a 64-bit LCG).
struct Lcg(u64);

impl Lcg {
    fn next_f64(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The smallest seed ≥ 1 that lands `name` in `arm` — the deterministic
/// assignment is a pure function of `(seed, name)`, so pinning a fleet
/// to one arm is just a seed search.
fn arm_seed(name: &str, arm: Variant) -> u64 {
    (1..)
        .find(|&s| assign_variant(s, name) == arm)
        .expect("both arms are reachable")
}

/// An explored fleet: distinct TGFF applications over dac19 so stored
/// points carry genuinely different mappings (reconfiguration distance
/// and therefore prefetch are meaningful), under the given policy.
fn fleet(n: usize, policy: impl Fn(&str) -> PolicySpec) -> Vec<Tenant> {
    let platform = Platform::dac19();
    let cfg = DseConfig {
        ga: GaParams::small(),
        mode: ExplorationMode::Full,
        reference: None,
        max_points: None,
    };
    (0..n)
        .map(|i| {
            let seed = 300 + i as u64;
            let name = format!("t{i}");
            let graph = TgffGenerator::new(TgffConfig::with_tasks(8)).generate(seed);
            let db = explore_based(
                &graph,
                &platform,
                FaultModel::default(),
                ConfigSpace::fine(),
                &cfg,
                seed,
            );
            let spec = policy(&name);
            Tenant::from_parts(name, graph, platform.clone(), db, spec)
                .expect("synthetic fleet tenants are valid")
        })
        .collect()
}

/// The drifting workload: per-tenant QoS streams whose fault pressure
/// sweeps three full low → high → low cycles across the run. Bounds are
/// calibrated to each tenant's stored metric ranges so the feasible set
/// stays non-trivial at every phase; jitter comes from a seeded LCG.
fn drifting_trace(tenants: &[Tenant], seed: u64, events_per_tenant: usize) -> Trace {
    let mean_gap = 100.0;
    let mut tagged: Vec<(f64, usize, TraceEvent)> = Vec::new();
    for (idx, tenant) in tenants.iter().enumerate() {
        let (mut lo_m, mut hi_m) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut lo_r, mut hi_r) = (f64::INFINITY, f64::NEG_INFINITY);
        for p in tenant.db().points() {
            lo_m = lo_m.min(p.metrics.makespan);
            hi_m = hi_m.max(p.metrics.makespan);
            lo_r = lo_r.min(p.metrics.reliability);
            hi_r = hi_r.max(p.metrics.reliability);
        }
        let mut lcg = Lcg(seed ^ ((idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1));
        let mut time = 0.0;
        for i in 0..events_per_tenant {
            time += mean_gap * (0.5 + lcg.next_f64());
            let phase = (i as f64 / events_per_tenant as f64) * 3.0 * std::f64::consts::TAU;
            // 0 = relaxed regime, 1 = peak fault pressure.
            let pressure = 0.5 - 0.5 * phase.cos();
            let jitter = 0.9 + 0.2 * lcg.next_f64();
            // High pressure demands reliability (floor sweeps toward the
            // best stored point) and relaxes the latency bound; low
            // pressure inverts the trade.
            let rel_floor = (lo_r + (hi_r - lo_r) * (0.15 + 0.7 * pressure)) * jitter.min(1.0);
            let latency = lo_m + (hi_m - lo_m) * (1.2 - 0.9 * pressure) * jitter;
            tagged.push((
                time,
                idx,
                TraceEvent {
                    tenant: tenant.name().to_string(),
                    time,
                    spec: QosSpec::new(latency.max(lo_m), rel_floor.clamp(0.0, hi_r)),
                },
            ));
        }
    }
    tagged.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    Trace::new(tagged.into_iter().map(|(_, _, e)| e).collect())
}

/// Aggregated realized trajectory of one fleet run.
struct Realized {
    served: u64,
    makespan: f64,
    drc_paid: f64,
    drc_overlapped: f64,
    /// Sum of the per-event oracle: the cheapest stored point feasible
    /// under that event's spec, served with zero reconfiguration stall.
    oracle: f64,
    violations: u64,
    shadow_regret: f64,
    hits: u64,
    misses: u64,
}

/// Folds a run's realized latency: per served event, the makespan of
/// the point that served it plus the reconfiguration cost paid to get
/// there; the prefetch-overlapped share is tracked separately.
fn realized(report: &ReplayReport, tenants: &[Tenant]) -> Realized {
    let mut out = Realized {
        served: 0,
        makespan: 0.0,
        drc_paid: 0.0,
        drc_overlapped: 0.0,
        oracle: 0.0,
        violations: 0,
        shadow_regret: 0.0,
        hits: 0,
        misses: 0,
    };
    for (outcome, tenant) in report.outcomes().iter().zip(tenants) {
        assert_eq!(outcome.name, tenant.name(), "outcomes are fleet-ordered");
        let points = tenant.db().points();
        for d in &outcome.decisions {
            if d.status == ServeStatus::Quarantined {
                continue;
            }
            out.served += 1;
            out.makespan += points[d.to].metrics.makespan;
            out.drc_paid += d.drc;
            if d.violated {
                out.violations += 1;
            }
            // Per-event oracle: the cheapest feasible point served with
            // no stall; a violated event (empty feasible set) bottoms
            // out at the globally fastest point.
            let oracle = points
                .iter()
                .filter(|p| {
                    p.metrics.reliability >= d.spec.min_reliability
                        && p.metrics.makespan <= d.spec.max_makespan
                })
                .map(|p| p.metrics.makespan)
                .fold(f64::INFINITY, f64::min);
            out.oracle += if oracle.is_finite() {
                oracle
            } else {
                points
                    .iter()
                    .map(|p| p.metrics.makespan)
                    .fold(f64::INFINITY, f64::min)
            };
        }
        if let Some(learn) = &outcome.learn {
            out.drc_overlapped += learn.prefetch_saved_drc;
            out.shadow_regret += learn.cum_shadow_regret;
            out.hits += learn.prefetch_hits;
            out.misses += learn.prefetch_misses;
        }
    }
    out
}

impl Realized {
    /// Mean realized service latency in cycles per served event, with
    /// prefetch-overlapped reconfiguration cycles taken off the stall.
    fn latency_per_event(&self) -> f64 {
        (self.makespan + self.drc_paid - self.drc_overlapped) / self.served.max(1) as f64
    }

    /// Cumulative regret in cycles against the per-event oracle (the
    /// cheapest feasible point with zero stall) — both arms pay this,
    /// so it compares directly across runs on the same trace.
    fn cumulative_regret(&self) -> f64 {
        self.makespan + self.drc_paid - self.drc_overlapped - self.oracle
    }
}

fn main() {
    eprintln!("# learn_drift: {TENANTS} tenants, {EVENTS_PER_TENANT} drift events/tenant");

    // TD(0) observes every served decision, so the candidate learns
    // from the natural drift without heavy exploration; a small ε keeps
    // the reconfiguration churn of random arms from dominating the
    // stall budget.
    let learn_spec = |arm: Variant| {
        move |name: &str| PolicySpec::AuraLearn {
            p_rc: 0.5,
            gamma: 0.6,
            alpha: 0.2,
            epsilon: 0.02,
            seed: arm_seed(name, arm),
        }
    };
    let control = fleet(TENANTS, learn_spec(Variant::Control));
    let treatment = fleet(TENANTS, learn_spec(Variant::Treatment));
    let trace = drifting_trace(&control, 2_027, EVENTS_PER_TENANT);
    eprintln!("  trace: {} events over the fleet", trace.len());

    // Frozen incumbent (all-control fleet) versus online candidate
    // (all-treatment fleet) on identical tenants and trace.
    let config = ReplayConfig::default();
    let frozen_report = replay(&control, &trace, &config).expect("synthetic replay is clean");
    let online_report = replay(&treatment, &trace, &config).expect("synthetic replay is clean");
    let frozen = realized(&frozen_report, &control);
    let online = realized(&online_report, &treatment);

    println!("# Frozen vs online AuRA under a drifting fault-pressure trace");
    let mut table = Table::new(
        "Realized latency and regret: frozen incumbent vs online candidate",
        &[
            "arm",
            "served",
            "latency_cycles_per_event",
            "cumulative_regret",
            "violations",
            "prefetch_hits",
            "prefetch_misses",
            "prefetch_saved_drc",
            "exploration_regret",
        ],
    );
    for (arm, r) in [("frozen", &frozen), ("online", &online)] {
        table.row([
            arm.to_string(),
            r.served.to_string(),
            f3(r.latency_per_event()),
            format!("{:.2}", r.cumulative_regret()),
            r.violations.to_string(),
            r.hits.to_string(),
            r.misses.to_string(),
            format!("{:.2}", r.drc_overlapped),
            format!("{:.4}", r.shadow_regret),
        ]);
    }
    table.emit("learn_drift");
    for line in online_report.ab_lines() {
        eprintln!("  {line}");
    }
    let change_pct = pct_increase(frozen.latency_per_event(), online.latency_per_event());
    println!("\nOnline vs frozen realized latency: {change_pct:+.2}% cycles/event.");
}
