//! Golden decision-kernel bytes: seeded event streams through
//! [`LearnerState`] (both A/B arms, seeded exploration on a treatment
//! tenant, a mid-stream promote, a re-seat and a checkpoint round trip),
//! [`UraPolicy`], [`AuraAgent`] and [`ura_argmax`] over databases built
//! to force ties — equal energies, duplicate mappings (zero dRC between
//! distinct points) and a single-point database — at `p_RC` ∈ {0, ½, 1}.
//!
//! Every choice, every score and regret bit, the prefetch counters and
//! the final CLRLRN1 checkpoint bytes are concatenated and pinned as
//! length + FNV-1a. The recorded values were taken once from the
//! scoring code and must never be edited to follow a code change: a diff
//! here means a decision, a score or a regret moved.

use clr_dse::{DesignPoint, DesignPointDb, PointOrigin, QosSpec};
use clr_learn::{assign_variant, fnv1a64, LearnConfig, LearnerState, Variant};
use clr_platform::Platform;
use clr_runtime::{
    ura_argmax, AuraAgent, DecisionInput, DecisionOutcome, Feedback, RuntimeContext, RuntimePolicy,
    UraPolicy,
};
use clr_sched::{Mapping, SystemMetrics};
use clr_taskgraph::{jpeg_encoder, TaskGraph};

/// Seeded stream of the golden runs (splitmix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `first_fit` with every task whose bit is set in `mask` rebound to
/// another PE of the same type, so distinct masks cost distinct dRC and
/// equal masks cost none.
fn mapping(graph: &TaskGraph, platform: &Platform, mask: u32) -> Mapping {
    let mut m = Mapping::first_fit(graph, platform).unwrap();
    for (t, gene) in m.genes_mut().iter_mut().enumerate() {
        if mask & (1 << (t % 8)) == 0 {
            continue;
        }
        let ty = platform.pe(gene.pe).type_id();
        if let Some(other) = platform
            .pe_ids()
            .find(|&id| id != gene.pe && platform.pe(id).type_id() == ty)
        {
            gene.pe = other;
        }
    }
    m
}

/// `(mask, energy, makespan, reliability)` per stored point: masks 3 and
/// 9 repeat (zero-dRC pairs), energies 2.0 and 3.5 repeat (equal
/// performance), and one pair repeats both.
const POINTS: [(u32, f64, f64, f64); 12] = [
    (0, 3.5, 90.0, 0.70),
    (3, 2.0, 120.0, 0.92),
    (5, 4.25, 60.0, 0.81),
    (3, 2.0, 80.0, 0.66),
    (9, 3.5, 150.0, 0.97),
    (12, 1.5, 140.0, 0.88),
    (9, 5.0, 55.0, 0.62),
    (17, 2.0, 100.0, 0.75),
    (33, 3.5, 70.0, 0.90),
    (64, 6.0, 50.0, 0.95),
    (130, 2.75, 110.0, 0.60),
    (255, 1.5, 130.0, 0.99),
];

fn database(
    graph: &TaskGraph,
    platform: &Platform,
    points: &[(u32, f64, f64, f64)],
) -> DesignPointDb {
    let mut db = DesignPointDb::new("kernel");
    for &(mask, energy, makespan, reliability) in points {
        db.push(DesignPoint::new(
            mapping(graph, platform, mask),
            SystemMetrics {
                makespan,
                reliability,
                energy,
                peak_power: 1.0,
                mean_mttf: 100.0,
            },
            PointOrigin::Pareto,
        ));
    }
    db
}

/// A spec drawn across the stored range, sometimes unsatisfiable.
fn spec(rng: &mut Rng) -> QosSpec {
    let makespan = 45.0 + rng.below(120) as f64;
    let reliability = 0.55 + rng.below(48) as f64 / 100.0;
    QosSpec::new(makespan, reliability)
}

/// The feasible set in one of three orders: ascending (what
/// `feasible_into` yields), reversed, or rotated.
fn reorder(feasible: &mut [usize], event: usize) {
    match event % 3 {
        1 => feasible.reverse(),
        2 if !feasible.is_empty() => {
            let k = event % feasible.len();
            feasible.rotate_left(k);
        }
        _ => {}
    }
}

fn push_outcome(out: &mut Vec<u8>, o: &DecisionOutcome) {
    match o.choice {
        Some(p) => out.extend_from_slice(&(p as u64).to_le_bytes()),
        None => out.extend_from_slice(&u64::MAX.to_le_bytes()),
    }
    out.extend_from_slice(&o.score.map_or(u64::MAX, f64::to_bits).to_le_bytes());
}

fn push_learner(out: &mut Vec<u8>, l: &LearnerState) {
    for v in [
        l.decisions(),
        l.explored(),
        l.prefetch_hits(),
        l.prefetch_misses(),
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for v in [
        l.prefetch_saved_drc(),
        l.cum_live_regret(),
        l.cum_shadow_regret(),
    ] {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// A treatment tenant and a control tenant under `seed`.
fn tenants(seed: u64) -> (String, String) {
    let find = |want: Variant| {
        (0..64)
            .map(|i| format!("tenant{i}"))
            .find(|n| assign_variant(seed, n) == want)
            .unwrap()
    };
    (find(Variant::Treatment), find(Variant::Control))
}

/// One seeded stream of `events` decisions through a learner, a uRA
/// policy, an AuRA agent and the bare `ura_argmax`, appending every
/// output to `out`.
fn stream(ctx: &RuntimeContext<'_>, p_rc: f64, seed: u64, events: usize, out: &mut Vec<u8>) {
    let n = ctx.len();
    let (treatment, control) = tenants(seed);
    let mut learners: Vec<LearnerState> = [(treatment.as_str(), 0.3), (control.as_str(), 0.3)]
        .iter()
        .chain([(treatment.as_str(), 0.0)].iter())
        .map(|&(name, eps)| {
            LearnerState::new(
                name,
                n,
                1,
                LearnConfig::new(p_rc, 0.6, 0.2, eps, seed).unwrap(),
            )
            .unwrap()
        })
        .collect();
    let mut ura = UraPolicy::new(p_rc).unwrap();
    let mut aura = AuraAgent::new(n, p_rc, 0.6, 0.2).unwrap();
    let mut rng = Rng(seed);
    let prior: Vec<f64> = (0..n).map(|_| rng.below(1000) as f64 / 997.0).collect();
    aura.set_values(&prior).unwrap();

    let mut current = vec![0usize; learners.len() + 2];
    let mut feasible = Vec::new();
    for event in 1..=events {
        let spec = spec(&mut rng);
        ctx.feasible_into(&spec, &mut feasible);
        reorder(&mut feasible, event);
        // A ladder-served move the policy did not pick, now and then.
        let forced = (event % 7 == 0).then(|| rng.below(n));

        for (k, l) in learners.iter_mut().enumerate() {
            let input = DecisionInput {
                ctx,
                current: current[k],
                spec: &spec,
                feasible: &feasible,
            };
            let o = l.decide(&input);
            push_outcome(out, &o);
            if let Some(s) = l.take_shadow() {
                for v in [s.event, s.live_choice, s.shadow_choice] {
                    out.extend_from_slice(&(v as u64).to_le_bytes());
                }
                out.extend_from_slice(&s.live_regret.to_bits().to_le_bytes());
                out.extend_from_slice(&s.shadow_regret.to_bits().to_le_bytes());
                out.push(s.serving.label().as_bytes()[0]);
                out.push(s.variant.label().as_bytes()[0]);
            }
            let to = forced.or(o.choice).unwrap_or(current[k]);
            l.observe(&Feedback {
                ctx,
                from: current[k],
                to,
            });
            current[k] = to;
            push_learner(out, l);
        }

        let k = learners.len();
        for (slot, policy) in [&mut ura as &mut dyn RuntimePolicy, &mut aura]
            .into_iter()
            .enumerate()
        {
            let from = current[k + slot];
            let o = policy.decide(&DecisionInput {
                ctx,
                current: from,
                spec: &spec,
                feasible: &feasible,
            });
            push_outcome(out, &o);
            let to = forced.or(o.choice).unwrap_or(from);
            policy.observe(&Feedback { ctx, from, to });
            current[k + slot] = to;
        }
        if event % 25 == 0 {
            aura.end_episode();
        }
        for v in aura.values() {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }

        // The shared scorer with a value function, from every state.
        let values = aura.values();
        for from in [0, current[k], n - 1] {
            let pick = ura_argmax(ctx, from, &feasible, p_rc, |s| values[s], 0.6);
            push_outcome(
                out,
                &DecisionOutcome {
                    choice: pick.map(|(p, _)| p),
                    score: pick.map(|(_, s)| s),
                    p_rc: None,
                },
            );
        }

        if event == events / 3 {
            for l in &mut learners {
                l.promote();
            }
        }
        if event == events / 2 {
            for l in &mut learners {
                let bytes = l.to_bytes();
                *l = LearnerState::from_bytes(&bytes).unwrap();
            }
        }
        if event == 3 * events / 4 {
            for l in &mut learners {
                l.reseat(n, 2);
            }
        }
    }
    for l in &learners {
        out.extend_from_slice(&l.to_bytes());
    }
}

fn kernel_bytes(points: &[(u32, f64, f64, f64)], events: usize) -> (usize, u64) {
    let graph = jpeg_encoder();
    let platform = Platform::dac19();
    let db = database(&graph, &platform, points);
    let ctx = RuntimeContext::new(&graph, &platform, &db);
    let mut out = Vec::new();
    for (i, p_rc) in [0.0, 0.5, 1.0].into_iter().enumerate() {
        stream(&ctx, p_rc, 11 + i as u64, events, &mut out);
    }
    (out.len(), fnv1a64(&out))
}

#[test]
fn tied_database_kernel_bytes_are_pinned() {
    assert_eq!(kernel_bytes(&POINTS, 240), (368153, 12627157469073650320));
}

#[test]
fn single_point_kernel_bytes_are_pinned() {
    assert_eq!(
        kernel_bytes(&POINTS[..1], 60),
        (63522, 12594907127767622808)
    );
}

#[test]
fn equal_energy_kernel_bytes_are_pinned() {
    // Every point at one energy: the performance range is degenerate and
    // every candidate scores 0 on performance.
    let flat: Vec<_> = POINTS.iter().map(|&(m, _, s, r)| (m, 2.0, s, r)).collect();
    assert_eq!(kernel_bytes(&flat, 120), (186504, 13593633076096457075));
}
