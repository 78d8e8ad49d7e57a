//! Seeded workload inputs: the published fleets (CLRSNAP1 bytes plus a
//! policy per tenant) and the pre-encoded CLRWIRE1 request streams.
//!
//! Everything here runs before any timing starts. The same seed always
//! yields the same bytes, so counts and retained memory repeat exactly.

use std::ops::Range;

use clr_core::dse::{DesignPoint, DesignPointDb, PointOrigin, QosSpec};
use clr_core::platform::Platform;
use clr_core::sched::{Mapping, SystemMetrics};
use clr_core::serve::wire::{Frame, PromoteRequest, Request, StatsRequest, STATS_VERSION};
use clr_core::serve::{PolicySpec, Snapshot};
use clr_core::taskgraph::{jpeg_encoder, TaskGraph, TgffConfig, TgffGenerator};
use clr_learn::{assign_variant, Variant};

/// Request frames per admission window: `DaemonConfig::batch`, so each
/// window is exactly one serve/flush cycle of the daemon.
pub const WINDOW: usize = 256;

/// `fleet_wire`: tenants seated.
pub const WIRE_TENANTS: usize = 1_000;
/// `fleet_wire`: requests per round.
pub const WIRE_EVENTS: usize = 1_024 * WINDOW;
/// `fleet_wire`: a tenant-scoped stats probe after every this many windows.
pub const WIRE_STATS_EVERY: usize = 16;

/// Stats probe cadence of the drifting stream, in windows.
pub const DRIFT_STATS_EVERY: usize = 32;

/// `design_flow`: tasks in the designed application.
pub const DESIGN_TASKS: usize = 40;
/// `design_flow`: tenants serving the designed database.
pub const DEPLOY_TENANTS: usize = 8;
/// `design_flow`: requests of the validation stream per round.
pub const DEPLOY_EVENTS: usize = 512 * WINDOW;

/// SplitMix64: the seeded generator behind every workload input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One published fleet: what `clr-served --tenant NAME=SNAP@POLICY`
/// would be given.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// Tenant class, for the memory report.
    pub class: &'static str,
    pub names: Vec<String>,
    /// CLRSNAP1 container bytes per tenant.
    pub snapshots: Vec<Vec<u8>>,
    pub policies: Vec<PolicySpec>,
}

/// One admission cycle of a request stream: a full window of requests,
/// or a control frame that the daemon answers in a cycle of its own.
#[derive(Debug, Clone)]
pub enum Cycle {
    Window(Range<usize>),
    Stats(StatsRequest),
    Promote(PromoteRequest),
}

/// A pre-encoded request stream and its layout.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Every request, in stream order.
    pub requests: Vec<Request>,
    /// Fleet index of each request's tenant.
    pub tenant_of: Vec<usize>,
    pub cycles: Vec<Cycle>,
    /// The CLRWIRE1 bytes of every cycle, then a `Shutdown` frame.
    pub bytes: Vec<u8>,
}

impl Stream {
    fn encode(requests: Vec<Request>, tenant_of: Vec<usize>, cycles: Vec<Cycle>) -> Self {
        let mut bytes = Vec::with_capacity(requests.len() * 72);
        for cycle in &cycles {
            match cycle {
                Cycle::Window(range) => {
                    for r in &requests[range.clone()] {
                        bytes.extend_from_slice(&Frame::Request(r.clone()).to_bytes());
                    }
                }
                Cycle::Stats(q) => bytes.extend_from_slice(&Frame::Stats(q.clone()).to_bytes()),
                Cycle::Promote(p) => {
                    bytes.extend_from_slice(&Frame::Promote(p.clone()).to_bytes());
                }
            }
        }
        bytes.extend_from_slice(&Frame::Shutdown.to_bytes());
        Self {
            requests,
            tenant_of,
            cycles,
            bytes,
        }
    }

    /// Control frames in the stream.
    pub fn controls(&self) -> usize {
        self.cycles
            .iter()
            .filter(|c| !matches!(c, Cycle::Window(_)))
            .count()
    }
}

/// The smallest seed that lands `name` in `arm` (A/B assignment is a
/// pure function of `(seed, name)`).
fn arm_seed(name: &str, arm: Variant) -> u64 {
    (1..)
        .find(|&s| assign_variant(s, name) == arm)
        .expect("both arms are reachable")
}

/// The online-learning policy of the validation fleet, pinned to the
/// treatment arm so the TD candidate serves.
fn learn_policy(name: &str) -> PolicySpec {
    PolicySpec::AuraLearn {
        p_rc: 0.5,
        gamma: 0.6,
        alpha: 0.2,
        epsilon: 0.02,
        seed: arm_seed(name, Variant::Treatment),
    }
}

/// `fleet_wire`'s fleet: 1000 tenants on `jpeg`/`dac19`, each a 16-point
/// synthetic database with per-tenant makespan skew, all under uRA.
fn wire_fleet() -> Fleet {
    let graph = jpeg_encoder();
    let platform = Platform::dac19();
    let mapping = Mapping::first_fit(&graph, &platform).expect("jpeg maps onto dac19");
    let mut fleet = Fleet {
        class: "ura/synthetic-16pt",
        names: Vec::new(),
        snapshots: Vec::new(),
        policies: Vec::new(),
    };
    for i in 0..WIRE_TENANTS {
        let skew = wire_skew(i);
        let mut db = DesignPointDb::new("load");
        for p in 0..16 {
            let f = f64::from(p) / 16.0;
            db.push(DesignPoint::new(
                mapping.clone(),
                SystemMetrics {
                    makespan: 50.0 + 100.0 * f * skew,
                    reliability: 0.6 + 0.35 * f,
                    energy: 1.0 + f,
                    peak_power: 1.0,
                    mean_mttf: 100.0,
                },
                PointOrigin::Pareto,
            ));
        }
        fleet.names.push(format!("t{i}"));
        fleet
            .snapshots
            .push(Snapshot::new("jpeg", "dac19", db).to_bytes());
        fleet.policies.push(PolicySpec::Ura { p_rc: 0.5 });
    }
    fleet
}

fn wire_skew(tenant: usize) -> f64 {
    1.0 + (tenant % 17) as f64 * 0.05
}

/// `fleet_wire`'s stream: uniformly random tenants, specs drawn across
/// each tenant's stored range, a tenant-scoped stats probe (flight on)
/// every [`WIRE_STATS_EVERY`] windows.
fn wire_stream(fleet: &Fleet, seed: u64) -> Stream {
    let mut rng = Rng::new(seed ^ 0x5749_5245);
    let mut requests = Vec::with_capacity(WIRE_EVENTS);
    let mut tenant_of = Vec::with_capacity(WIRE_EVENTS);
    let mut cycles = Vec::new();
    let mut seq = 0u64;
    for w in 0..WIRE_EVENTS / WINDOW {
        let start = requests.len();
        for _ in 0..WINDOW {
            let t = rng.below(fleet.names.len());
            // The makespan bound sweeps the upper 70% of the tenant's
            // stored range and the reliability floor the lower half, so
            // feasible sets hold a few of the 16 points and rarely none.
            let hi_m = 50.0 + 100.0 * (15.0 / 16.0) * wire_skew(t);
            let s = 50.0 + (hi_m - 50.0) * (0.3 + 0.7 * rng.next_f64());
            let f = 0.6 + 0.35 * (15.0 / 16.0) * 0.5 * rng.next_f64();
            seq += 1;
            requests.push(Request {
                seq,
                tenant: fleet.names[t].clone(),
                time: seq as f64,
                spec: QosSpec::new(s, f),
            });
            tenant_of.push(t);
        }
        cycles.push(Cycle::Window(start..requests.len()));
        if (w + 1) % WIRE_STATS_EVERY == 0 {
            seq += 1;
            cycles.push(Cycle::Stats(StatsRequest {
                seq,
                version: STATS_VERSION,
                flight: true,
                tenant: Some(fleet.names[rng.below(fleet.names.len())].clone()),
            }));
        }
    }
    Stream::encode(requests, tenant_of, cycles)
}

/// `fleet_wire`'s fleet and request stream.
pub fn wire_workload(seed: u64) -> (Fleet, Stream) {
    let fleet = wire_fleet();
    let stream = wire_stream(&fleet, seed);
    (fleet, stream)
}

/// Per-tenant `(makespan, reliability)` ranges of a fleet's databases.
type Ranges = Vec<((f64, f64), (f64, f64))>;

/// The stored metric ranges of each database.
fn metric_ranges(dbs: &[&DesignPointDb]) -> Ranges {
    dbs.iter()
        .map(|db| {
            let (mut lo_m, mut hi_m) = (f64::INFINITY, f64::NEG_INFINITY);
            let (mut lo_r, mut hi_r) = (f64::INFINITY, f64::NEG_INFINITY);
            for p in db.points() {
                lo_m = lo_m.min(p.metrics.makespan);
                hi_m = hi_m.max(p.metrics.makespan);
                lo_r = lo_r.min(p.metrics.reliability);
                hi_r = hi_r.max(p.metrics.reliability);
            }
            ((lo_m, hi_m), (lo_r, hi_r))
        })
        .collect()
}

/// The drifting fault-pressure stream: each tenant's requirement sweeps
/// three full relaxed → pressured → relaxed cycles over the run (the
/// `learn_bench` trace). At each of the six regime shifts every tenant
/// gets a `Promote`; a tenant-scoped stats probe follows every
/// [`DRIFT_STATS_EVERY`] windows.
fn drift_stream(names: &[String], ranges: &Ranges, events: usize, seed: u64) -> Stream {
    let per_tenant = events / names.len();
    let mut tagged: Vec<(f64, usize, QosSpec)> = Vec::with_capacity(events);
    for (idx, &((lo_m, hi_m), (lo_r, hi_r))) in ranges.iter().enumerate() {
        let mut rng = Rng::new(seed ^ (idx as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        let mut time = 0.0;
        for i in 0..per_tenant {
            time += 100.0 * (0.5 + rng.next_f64());
            let phase = (i as f64 / per_tenant as f64) * 3.0 * std::f64::consts::TAU;
            // 0 = relaxed regime, 1 = peak fault pressure.
            let pressure = 0.5 - 0.5 * phase.cos();
            let jitter = 0.9 + 0.2 * rng.next_f64();
            let rel_floor = (lo_r + (hi_r - lo_r) * (0.15 + 0.7 * pressure)) * jitter.min(1.0);
            let latency = lo_m + (hi_m - lo_m) * (1.2 - 0.9 * pressure) * jitter;
            tagged.push((
                time,
                idx,
                QosSpec::new(latency.max(lo_m), rel_floor.clamp(0.0, hi_r)),
            ));
        }
    }
    tagged.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let total = tagged.len() - tagged.len() % WINDOW;
    tagged.truncate(total);
    // Pressure crosses 1/2 at stream fractions 1/12 + k/6.
    let windows = total / WINDOW;
    let shifts: Vec<usize> = (0..6)
        .map(|k| ((1.0 / 12.0 + k as f64 / 6.0) * windows as f64).round() as usize)
        .collect();
    let mut rng = Rng::new(seed ^ 0x5354_4154);
    let mut requests = Vec::with_capacity(total);
    let mut tenant_of = Vec::with_capacity(total);
    let mut cycles = Vec::new();
    let mut seq = 0u64;
    for (w, chunk) in tagged.chunks(WINDOW).enumerate() {
        let start = requests.len();
        for &(time, idx, spec) in chunk {
            seq += 1;
            requests.push(Request {
                seq,
                tenant: names[idx].clone(),
                time,
                spec,
            });
            tenant_of.push(idx);
        }
        cycles.push(Cycle::Window(start..requests.len()));
        if shifts.contains(&(w + 1)) {
            for name in names {
                seq += 1;
                cycles.push(Cycle::Promote(PromoteRequest {
                    seq,
                    tenant: name.clone(),
                }));
            }
        }
        if (w + 1) % DRIFT_STATS_EVERY == 0 {
            seq += 1;
            cycles.push(Cycle::Stats(StatsRequest {
                seq,
                version: STATS_VERSION,
                flight: true,
                tenant: Some(names[rng.below(names.len())].clone()),
            }));
        }
    }
    Stream::encode(requests, tenant_of, cycles)
}

/// TGFF seed of `design_flow`'s application. The application is the
/// same for every workload seed, which drives the GA and the traffic, so
/// every seed does the same amount of design work.
pub const DESIGN_GRAPH_SEED: u64 = 40;

/// The designed application of `design_flow`.
pub fn design_graph() -> TaskGraph {
    TgffGenerator::new(TgffConfig::with_tasks(DESIGN_TASKS)).generate(DESIGN_GRAPH_SEED)
}

/// The validation fleet a designer seats on a freshly designed database,
/// and the drifting stream it serves.
pub fn deploy_workload(red: &DesignPointDb, seed: u64) -> (Fleet, Stream) {
    let graph_desc = format!("tgff:{DESIGN_TASKS}:{DESIGN_GRAPH_SEED}");
    let snapshot = Snapshot::new(graph_desc, "dac19", red.clone()).to_bytes();
    let names: Vec<String> = (0..DEPLOY_TENANTS).map(|i| format!("d{i}")).collect();
    let ranges = metric_ranges(&[red; DEPLOY_TENANTS]);
    let stream = drift_stream(&names, &ranges, DEPLOY_EVENTS, seed);
    let fleet = Fleet {
        class: "aura+learn/designed",
        snapshots: vec![snapshot; DEPLOY_TENANTS],
        policies: names.iter().map(|n| learn_policy(n)).collect(),
        names,
    };
    (fleet, stream)
}
