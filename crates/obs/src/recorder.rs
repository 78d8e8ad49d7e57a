//! Sharded, thread-safe metrics recorder.
//!
//! Metrics are keyed by `&'static str` names and live in one of 16 shards
//! (FNV-hashed by name) so concurrent workers updating *different* metrics
//! rarely contend on the same lock. All update operations are
//! **commutative** — counter adds, histogram bucket increments, and
//! min/max folds give the same final state regardless of the order worker
//! threads apply them — which is what lets the snapshot be part of the
//! deterministic journal section. Gauges are last-write-wins and therefore
//! must only be set from serial (master-thread) code; the wiring in this
//! workspace follows that rule.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::event::Event;

const SHARDS: usize = 16;

/// One metric's accumulated state.
#[derive(Debug, Clone)]
enum Cell {
    /// Monotone event count.
    Counter(u64),
    /// Last value set (serial writers only).
    Gauge(f64),
    /// Fixed-bucket histogram with running min/max.
    Hist {
        bounds: &'static [f64],
        counts: Vec<u64>,
        total: u64,
        min: f64,
        max: f64,
    },
}

/// Thread-safe recorder for counters, gauges, and fixed-bucket histograms.
///
/// See the module docs for the determinism contract. Obtain snapshots with
/// [`Recorder::snapshot_events`], which sorts metrics by name so the
/// emitted journal lines are order-independent.
pub struct Recorder {
    shards: [Mutex<BTreeMap<&'static str, Cell>>; SHARDS],
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").finish_non_exhaustive()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a over the metric name; cheap and stable across runs.
fn shard_of(name: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % SHARDS as u64) as usize
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Recorder {
            shards: std::array::from_fn(|_| Mutex::new(BTreeMap::new())),
        }
    }

    fn with_cell(&self, name: &'static str, default: Cell, f: impl FnOnce(&mut Cell)) {
        let mut shard = self.shards[shard_of(name)]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f(shard.entry(name).or_insert(default));
    }

    /// Adds `n` to the counter `name` (creating it at zero).
    ///
    /// Commutative: safe to call from worker threads.
    pub fn counter_add(&self, name: &'static str, n: u64) {
        self.with_cell(name, Cell::Counter(0), |cell| {
            if let Cell::Counter(v) = cell {
                *v = v.wrapping_add(n);
            }
        });
    }

    /// Sets the gauge `name` to `value`.
    ///
    /// Last-write-wins: call only from serial (master-thread) code when the
    /// snapshot must be deterministic.
    pub fn gauge_set(&self, name: &'static str, value: f64) {
        self.with_cell(name, Cell::Gauge(value), |cell| {
            if let Cell::Gauge(v) = cell {
                *v = value;
            }
        });
    }

    /// Records `value` into the histogram `name` with the given upper
    /// bucket `bounds` (bucket `i` counts samples `≤ bounds[i]`, plus one
    /// overflow bucket). The first caller's `bounds` win; all call sites
    /// for one name must pass the same static slice.
    ///
    /// Commutative: safe to call from worker threads.
    pub fn histogram_record(&self, name: &'static str, bounds: &'static [f64], value: f64) {
        self.histogram_record_all(name, bounds, [value]);
    }

    /// Records every value of `values` into the histogram `name` under one
    /// shard lock — the same final state as one
    /// [`Recorder::histogram_record`] per value. An empty `values` leaves
    /// the histogram untouched (and unlisted if it never was).
    ///
    /// Commutative: safe to call from worker threads.
    pub fn histogram_record_all(
        &self,
        name: &'static str,
        bounds: &'static [f64],
        values: impl IntoIterator<Item = f64>,
    ) {
        let mut values = values.into_iter().peekable();
        if values.peek().is_none() {
            return;
        }
        let empty = Cell::Hist {
            bounds,
            counts: vec![0; bounds.len() + 1],
            total: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        };
        self.with_cell(name, empty, |cell| {
            if let Cell::Hist {
                bounds,
                counts,
                total,
                min,
                max,
            } = cell
            {
                for value in values {
                    let bucket = bounds
                        .iter()
                        .position(|&b| value <= b)
                        .unwrap_or(bounds.len());
                    counts[bucket] += 1;
                    *total += 1;
                    *min = min.min(value);
                    *max = max.max(value);
                }
            }
        });
    }

    /// Snapshots every metric as a journal [`Event`], sorted by name.
    pub fn snapshot_events(&self) -> Vec<Event> {
        let mut named: Vec<(&'static str, Cell)> = Vec::new();
        for shard in &self.shards {
            let shard = shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            named.extend(shard.iter().map(|(&k, v)| (k, v.clone())));
        }
        named.sort_by_key(|&(name, _)| name);
        named
            .into_iter()
            .map(|(name, cell)| match cell {
                Cell::Counter(value) => Event::Counter {
                    name: name.to_string(),
                    value,
                },
                Cell::Gauge(value) => Event::Gauge {
                    name: name.to_string(),
                    value,
                },
                Cell::Hist {
                    bounds,
                    counts,
                    total,
                    min,
                    max,
                } => Event::Histogram {
                    name: name.to_string(),
                    bounds: bounds.to_vec(),
                    counts,
                    total,
                    min: (total > 0).then_some(min),
                    max: (total > 0).then_some(max),
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_sorts_by_name() {
        let r = Recorder::new();
        r.counter_add("z.last", 1);
        r.counter_add("a.first", 2);
        r.counter_add("a.first", 3);
        let snap = r.snapshot_events();
        assert_eq!(
            snap,
            vec![
                Event::Counter {
                    name: "a.first".into(),
                    value: 5
                },
                Event::Counter {
                    name: "z.last".into(),
                    value: 1
                },
            ]
        );
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let r = Recorder::new();
        r.gauge_set("db.points", 3.0);
        r.gauge_set("db.points", 14.0);
        assert_eq!(
            r.snapshot_events(),
            vec![Event::Gauge {
                name: "db.points".into(),
                value: 14.0
            }]
        );
    }

    #[test]
    fn histogram_buckets_totals_and_extremes() {
        static BOUNDS: [f64; 3] = [1.0, 10.0, 100.0];
        let r = Recorder::new();
        for v in [0.5, 1.0, 5.0, 50.0, 500.0] {
            r.histogram_record("sim.drc", &BOUNDS, v);
        }
        assert_eq!(
            r.snapshot_events(),
            vec![Event::Histogram {
                name: "sim.drc".into(),
                bounds: BOUNDS.to_vec(),
                counts: vec![2, 1, 1, 1],
                total: 5,
                min: Some(0.5),
                max: Some(500.0),
            }]
        );
    }

    #[test]
    fn batch_recording_matches_one_record_per_value() {
        static BOUNDS: [f64; 3] = [1.0, 10.0, 100.0];
        let values = [0.5, f64::NAN, 5.0, f64::INFINITY, -0.0, 50.0];
        let one = Recorder::new();
        for v in values {
            one.histogram_record("h", &BOUNDS, v);
        }
        let all = Recorder::new();
        all.histogram_record_all("h", &BOUNDS, values);
        all.histogram_record_all("untouched", &BOUNDS, []);
        assert_eq!(all.snapshot_events(), one.snapshot_events());
    }

    #[test]
    fn single_sample_histogram_pins_both_extremes() {
        static BOUNDS: [f64; 1] = [1.0];
        let r = Recorder::new();
        r.histogram_record("h", &BOUNDS, 2.0);
        assert_eq!(
            r.snapshot_events(),
            vec![Event::Histogram {
                name: "h".into(),
                bounds: BOUNDS.to_vec(),
                counts: vec![0, 1],
                total: 1,
                min: Some(2.0),
                max: Some(2.0),
            }]
        );
    }

    #[test]
    fn updates_from_many_threads_converge() {
        let r = Recorder::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        r.counter_add("hits", 1);
                    }
                });
            }
        });
        assert_eq!(
            r.snapshot_events(),
            vec![Event::Counter {
                name: "hits".into(),
                value: 8000
            }]
        );
    }
}
