//! Deterministic telemetry primitives: log-bucketed quantile
//! histograms, event-indexed rolling windows, a bounded ring, and the
//! schema-versioned [`TelemetrySnapshot`] v1 codec.
//!
//! Everything here rides the logical clock. Histograms bucket values by
//! their IEEE-754 binary exponent (fixed power-of-two bucket bounds, no
//! float `log`), windows advance one slot per *event* (never wall
//! time), and the snapshot encoder emits a single canonical JSON line —
//! sorted keys, sparse bucket pairs, shortest round-trip floats — so a
//! snapshot taken at `CLR_THREADS=1` and one taken at `CLR_THREADS=8`
//! are byte-identical whenever the same events were observed in the
//! same per-tenant order.

use crate::json::{self, Value};
use crate::num;

/// Version stamp written into every [`TelemetrySnapshot`]; decoders
/// reject other versions. Version 2 added the per-tenant active db
/// `generation`.
pub const TELEMETRY_SCHEMA_VERSION: u64 = 2;

/// Fixed bucket count of every [`QuantileHistogram`]: one bucket per
/// binary exponent from `2^-32` up to `2^63`, with underflow clamped
/// into bucket 0 and overflow into the last bucket.
pub const HIST_BUCKETS: usize = 96;

/// Biased IEEE-754 exponent field that maps to bucket 0 (`2^-32`).
const BUCKET_ZERO_EXP_FIELD: u64 = 991;

// ---------------------------------------------------------------------------
// Quantile histogram
// ---------------------------------------------------------------------------

/// A log-bucketed histogram with fixed power-of-two bucket bounds.
///
/// Bucket `b` holds values in `[2^(b-32), 2^(b-31))`; values `<= 0`
/// (and NaN) clamp into bucket 0, `+inf` into the last bucket. The
/// exact observed minimum and maximum are tracked alongside, so
/// reported quantiles never leave the observed range. Recording is two
/// integer ops and two float compares — cheap enough for the serve hot
/// path.
///
/// # Examples
///
/// ```
/// use clr_obs::telemetry::QuantileHistogram;
/// let mut h = QuantileHistogram::new();
/// for v in [1.0, 2.0, 3.0, 100.0] {
///     h.record(v);
/// }
/// assert_eq!(h.total(), 4);
/// assert_eq!(h.quantile(1.0), Some(100.0));
/// assert!(h.quantile(0.5).unwrap() <= 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileHistogram {
    /// Inline (not heap-boxed) so a histogram — and anything embedding
    /// one, like a per-tenant health registry — is one contiguous
    /// block: recording touches no pointer indirection.
    counts: [u64; HIST_BUCKETS],
    total: u64,
    min: f64,
    max: f64,
}

impl Default for QuantileHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            counts: [0; HIST_BUCKETS],
            total: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The bucket a value falls into, from its binary exponent.
    #[inline]
    pub fn bucket_index(v: f64) -> usize {
        if v.is_nan() || v <= 0.0 {
            return 0; // zero, negative and NaN all clamp to the lowest bucket
        }
        let field = (v.to_bits() >> 52) & 0x7ff;
        usize::try_from(field.saturating_sub(BUCKET_ZERO_EXP_FIELD))
            .unwrap_or(0)
            .min(HIST_BUCKETS - 1)
    }

    /// The exclusive upper bound of a bucket — the exact power of two
    /// `2^(index - 31)`, assembled from the IEEE-754 bits.
    pub fn bucket_upper_bound(index: usize) -> f64 {
        let biased =
            u64::try_from(index.min(HIST_BUCKETS - 1)).unwrap_or(0) + BUCKET_ZERO_EXP_FIELD + 1;
        f64::from_bits(biased << 52)
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, v: f64) {
        self.counts[Self::bucket_index(v)] += 1;
        self.total += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total observations recorded (as stamped; decoders keep the
    /// stored value even when inconsistent so lints can flag it).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The exact observed minimum.
    pub fn min_value(&self) -> Option<f64> {
        (self.min != f64::INFINITY).then_some(self.min)
    }

    /// The exact observed maximum.
    pub fn max_value(&self) -> Option<f64> {
        Some(self.max).filter(|m| *m != f64::NEG_INFINITY)
    }

    /// The dense per-bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket containing the rank-`ceil(q * n)` observation, clamped
    /// into the exact observed `[min, max]` range (so `quantile(1.0)`
    /// is the exact maximum).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n: u64 = self.counts.iter().sum();
        if n == 0 {
            return None;
        }
        let rank_f = (q.clamp(0.0, 1.0) * u64_to_f64(n)).ceil().max(1.0);
        let rank = if rank_f >= u64_to_f64(n) {
            n
        } else {
            f64_to_u64(rank_f)
        };
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Some(Self::bucket_upper_bound(i).min(self.max).max(self.min));
            }
        }
        Some(self.max)
    }

    /// Median estimate.
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> Option<f64> {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    fn from_parts(
        total: u64,
        min: Option<f64>,
        max: Option<f64>,
        sparse: &[(usize, u64)],
    ) -> Result<Self, String> {
        let mut h = Self::new();
        h.total = total;
        h.min = min.unwrap_or(f64::INFINITY);
        h.max = max.unwrap_or(f64::NEG_INFINITY);
        let mut prev: Option<usize> = None;
        for &(idx, count) in sparse {
            if idx >= HIST_BUCKETS {
                return Err(format!("bucket index {idx} out of range"));
            }
            if prev.is_some_and(|p| p >= idx) {
                return Err("bucket indices not strictly increasing".to_string());
            }
            prev = Some(idx);
            h.counts[idx] = count;
        }
        Ok(h)
    }
}

/// Exact u64 → f64 (values here are event counts, far below 2^53).
fn u64_to_f64(n: u64) -> f64 {
    n as f64
}

/// Truncating f64 → u64 for a value already known to be in range.
fn f64_to_u64(x: f64) -> u64 {
    x as u64
}

// ---------------------------------------------------------------------------
// Rolling window
// ---------------------------------------------------------------------------

/// Frozen view of a [`RollingWindow`], as carried in a snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStat {
    /// Window capacity (slots).
    pub window: u64,
    /// Total values ever pushed (the logical-clock index).
    pub index: u64,
    /// Values currently held: `min(index, window)`.
    pub len: u64,
    /// Sum of the held values, accumulated oldest → newest.
    pub sum: f64,
}

impl WindowStat {
    /// Mean of the held values.
    pub fn mean(&self) -> Option<f64> {
        if self.len == 0 {
            None
        } else {
            Some(self.sum / u64_to_f64(self.len))
        }
    }
}

/// An event-indexed rolling window: the last `capacity` values pushed,
/// with rates computed over events — never wall time. Summation runs
/// oldest → newest, so the sum is a pure function of the push sequence.
///
/// # Examples
///
/// ```
/// use clr_obs::telemetry::RollingWindow;
/// let mut w = RollingWindow::new(3);
/// for v in [1.0, 0.0, 1.0, 1.0] {
///     w.push(v);
/// }
/// assert_eq!(w.len(), 3);
/// assert_eq!(w.index(), 4);
/// assert_eq!(w.sum(), 2.0); // the first push rolled out
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RollingWindow {
    buf: Vec<f64>,
    cap: usize,
    head: usize,
    index: u64,
}

impl RollingWindow {
    /// Creates a window holding the last `capacity` (>= 1) values.
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        Self {
            buf: Vec::with_capacity(cap),
            cap,
            head: 0,
            index: 0,
        }
    }

    /// Pushes one value, evicting the oldest once full.
    #[inline]
    pub fn push(&mut self, v: f64) {
        if self.buf.len() < self.cap {
            self.buf.push(v);
        } else {
            self.buf[self.head] = v;
            self.head = (self.head + 1) % self.cap;
        }
        self.index += 1;
    }

    /// Values currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` before the first push.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total values ever pushed.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// Window capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Sum of the held values, oldest → newest.
    pub fn sum(&self) -> f64 {
        let (tail, hd) = self.buf.split_at(self.head.min(self.buf.len()));
        let mut sum = 0.0;
        for v in hd.iter().chain(tail) {
            sum += *v;
        }
        sum
    }

    /// Mean of the held values.
    pub fn mean(&self) -> Option<f64> {
        if self.buf.is_empty() {
            None
        } else {
            Some(self.sum() / u64_to_f64(u64::try_from(self.buf.len()).unwrap_or(u64::MAX)))
        }
    }

    /// Freezes the window into its snapshot form.
    pub fn stat(&self) -> WindowStat {
        WindowStat {
            window: u64::try_from(self.cap).unwrap_or(u64::MAX),
            index: self.index,
            len: u64::try_from(self.buf.len()).unwrap_or(u64::MAX),
            sum: self.sum(),
        }
    }
}

/// A 0/1 indicator window over the last `capacity` (≤ 64) events,
/// packed into one machine word: a push is a shift-and-or, the sum is a
/// popcount. This is the hot-path carrier behind the per-tenant fault
/// and violation rates — it produces exactly the [`WindowStat`] a
/// [`RollingWindow`] fed the same 0/1 values would, without touching a
/// heap buffer per event.
///
/// # Examples
///
/// ```
/// use clr_obs::telemetry::BitWindow;
/// let mut w = BitWindow::new(3);
/// for hit in [true, false, true, true] {
///     w.push(hit);
/// }
/// assert_eq!(w.len(), 3);
/// assert_eq!(w.index(), 4);
/// assert_eq!(w.sum(), 2); // the first push rolled out
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitWindow {
    bits: u64,
    cap: u32,
    index: u64,
}

impl BitWindow {
    /// Creates a window over the last `capacity` events, clamped into
    /// `1..=64` (one machine word).
    pub fn new(capacity: usize) -> Self {
        Self {
            bits: 0,
            cap: u32::try_from(capacity.clamp(1, 64)).unwrap_or(64),
            index: 0,
        }
    }

    /// Pushes one indicator, evicting the oldest once full.
    #[inline]
    pub fn push(&mut self, hit: bool) {
        self.bits = (self.bits << 1) | u64::from(hit);
        self.index += 1;
    }

    /// Window capacity.
    pub fn capacity(&self) -> usize {
        usize::try_from(self.cap).unwrap_or(usize::MAX)
    }

    /// Total indicators ever pushed.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// Indicators currently held: `min(index, capacity)`.
    pub fn len(&self) -> u64 {
        self.index.min(u64::from(self.cap))
    }

    /// `true` before the first push.
    pub fn is_empty(&self) -> bool {
        self.index == 0
    }

    /// Count of set indicators among the held ones.
    pub fn sum(&self) -> u64 {
        let len = self.len();
        let mask = if len >= 64 {
            u64::MAX
        } else {
            (1u64 << len) - 1
        };
        u64::from((self.bits & mask).count_ones())
    }

    /// Mean of the held indicators (the windowed rate).
    pub fn mean(&self) -> Option<f64> {
        let len = self.len();
        if len == 0 {
            None
        } else {
            Some(u64_to_f64(self.sum()) / u64_to_f64(len))
        }
    }

    /// Freezes the window into its snapshot form.
    pub fn stat(&self) -> WindowStat {
        WindowStat {
            window: u64::from(self.cap),
            index: self.index,
            len: self.len(),
            sum: u64_to_f64(self.sum()),
        }
    }
}

// ---------------------------------------------------------------------------
// Bounded ring
// ---------------------------------------------------------------------------

/// A bounded ring keeping the last `capacity` pushed items — the
/// flight-recorder container. Iteration yields oldest → newest.
#[derive(Debug, Clone, PartialEq)]
pub struct Ring<T> {
    buf: Vec<T>,
    cap: usize,
    head: usize,
    pushed: u64,
}

impl<T> Ring<T> {
    /// Creates a ring holding the last `capacity` (>= 1) items.
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        Self {
            buf: Vec::with_capacity(cap),
            cap,
            head: 0,
            pushed: 0,
        }
    }

    /// Pushes one item, overwriting the oldest once full.
    #[inline]
    pub fn push(&mut self, item: T) {
        if self.buf.len() < self.cap {
            self.buf.push(item);
        } else {
            self.buf[self.head] = item;
            self.head = (self.head + 1) % self.cap;
        }
        self.pushed += 1;
    }

    /// Items currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` before the first push.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total items ever pushed.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Iterates the held items, oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let split = self.head.min(self.buf.len());
        let (tail, hd) = self.buf.split_at(split);
        hd.iter().chain(tail)
    }
}

// ---------------------------------------------------------------------------
// Snapshot model
// ---------------------------------------------------------------------------

/// One tenant's telemetry in a fleet snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantTelemetry {
    /// Tenant name.
    pub name: String,
    /// Events observed (decisions recorded, served or not).
    pub events: u64,
    /// Current ladder rung tag (`normal`, `lkg`, `baseline`, `hold`,
    /// `quarantined`).
    pub status: String,
    /// Active snapshot-store generation of the tenant's database (0 for
    /// an unlineaged CLRSNAP1 load).
    pub generation: u64,
    /// Named counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Named rolling-window stats, sorted by name.
    pub windows: Vec<(String, WindowStat)>,
    /// Named histograms, sorted by name.
    pub histograms: Vec<(String, QuantileHistogram)>,
    /// Flight-recorder tail: pre-rendered decision CSV rows, oldest →
    /// newest. Empty unless requested or the tenant entered quarantine.
    pub flight: Vec<String>,
}

impl TenantTelemetry {
    /// Mean of a named window, when present and non-empty.
    pub fn window_mean(&self, name: &str) -> Option<f64> {
        self.windows
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, s)| s.mean())
    }

    /// A named histogram, when present.
    pub fn histogram(&self, name: &str) -> Option<&QuantileHistogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// A named counter's value, when present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// A schema-versioned fleet telemetry snapshot (v1). Encodes to one
/// canonical JSON line; `from_json(to_json(s)) == s` and re-encoding a
/// decoded snapshot reproduces the input bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Always [`TELEMETRY_SCHEMA_VERSION`] when produced by this build.
    pub schema: u64,
    /// Snapshot label (e.g. `fleet`, `journal`).
    pub label: String,
    /// Fleet-wide events observed (sum of tenant events).
    pub events: u64,
    /// Per-unknown-tenant dropped-event counts, sorted by name.
    pub dropped: Vec<(String, u64)>,
    /// Per-tenant telemetry, in fleet (seating) order.
    pub tenants: Vec<TenantTelemetry>,
}

impl TelemetrySnapshot {
    /// Encodes the snapshot to its canonical single-line JSON form (no
    /// trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.tenants.len() * 512);
        out.push_str("{\"schema\":");
        num::push_u64(&mut out, self.schema);
        out.push_str(",\"label\":");
        json::write_str(&mut out, &self.label);
        out.push_str(",\"events\":");
        num::push_u64(&mut out, self.events);
        out.push_str(",\"dropped\":[");
        for (i, (name, n)) in self.dropped.iter().enumerate() {
            write_pair(&mut out, i, name, *n);
        }
        out.push_str("],\"tenants\":[");
        for (i, t) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            encode_tenant(&mut out, t);
        }
        out.push_str("]}");
        out
    }

    /// Decodes a snapshot from its JSON line, rejecting structural
    /// damage and unknown schema versions. Semantic inconsistencies
    /// (histogram totals vs. bucket sums, window lengths) are kept as
    /// stored so `clr-verify stats` can flag them.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text.trim_end_matches(['\n', '\r']))?;
        let schema = req_u64(&v, "schema")?;
        if schema != TELEMETRY_SCHEMA_VERSION {
            return Err(format!(
                "unsupported telemetry schema {schema} (this build speaks {TELEMETRY_SCHEMA_VERSION})"
            ));
        }
        let label = req_str(&v, "label")?.to_string();
        let events = req_u64(&v, "events")?;
        let mut dropped = Vec::new();
        for (i, pair) in req_arr(&v, "dropped")?.iter().enumerate() {
            let p = pair
                .as_arr()
                .ok_or_else(|| format!("dropped[{i}]: expected [name, count]"))?;
            match p {
                [name, count] => dropped.push((
                    name.as_str()
                        .ok_or_else(|| format!("dropped[{i}]: name not a string"))?
                        .to_string(),
                    count
                        .as_u64()
                        .ok_or_else(|| format!("dropped[{i}]: count not a u64"))?,
                )),
                _ => return Err(format!("dropped[{i}]: expected a 2-element pair")),
            }
        }
        let mut tenants = Vec::new();
        for (i, tv) in req_arr(&v, "tenants")?.iter().enumerate() {
            tenants.push(decode_tenant(tv).map_err(|e| format!("tenants[{i}]: {e}"))?);
        }
        Ok(Self {
            schema,
            label,
            events,
            dropped,
            tenants,
        })
    }

    /// Finds a tenant entry by name.
    pub fn tenant(&self, name: &str) -> Option<&TenantTelemetry> {
        self.tenants.iter().find(|t| t.name == name)
    }
}

/// Appends the `i`-th `[name,value]` pair of a sparse list (with its
/// leading comma after the first).
fn write_pair(out: &mut String, i: usize, name: &str, value: u64) {
    if i > 0 {
        out.push(',');
    }
    out.push('[');
    json::write_str(out, name);
    out.push(',');
    num::push_u64(out, value);
    out.push(']');
}

fn encode_tenant(out: &mut String, t: &TenantTelemetry) {
    out.push_str("{\"name\":");
    json::write_str(out, &t.name);
    out.push_str(",\"events\":");
    num::push_u64(out, t.events);
    out.push_str(",\"status\":");
    json::write_str(out, &t.status);
    out.push_str(",\"generation\":");
    num::push_u64(out, t.generation);
    out.push_str(",\"counters\":[");
    for (i, (name, v)) in t.counters.iter().enumerate() {
        write_pair(out, i, name, *v);
    }
    out.push_str("],\"windows\":[");
    for (i, (name, s)) in t.windows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        json::write_str(out, name);
        out.push_str(",{\"window\":");
        num::push_u64(out, s.window);
        out.push_str(",\"index\":");
        num::push_u64(out, s.index);
        out.push_str(",\"len\":");
        num::push_u64(out, s.len);
        out.push_str(",\"sum\":");
        json::write_f64(out, s.sum);
        out.push_str("}]");
    }
    out.push_str("],\"histograms\":[");
    for (i, (name, h)) in t.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        json::write_str(out, name);
        out.push_str(",{\"total\":");
        num::push_u64(out, h.total);
        out.push_str(",\"min\":");
        json::write_opt_f64(out, h.min_value());
        out.push_str(",\"max\":");
        json::write_opt_f64(out, h.max_value());
        out.push_str(",\"buckets\":[");
        let buckets = h.counts.iter().enumerate().filter(|&(_, &c)| c > 0);
        for (i, (idx, c)) in buckets.enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            num::push_usize(out, idx);
            out.push(',');
            num::push_u64(out, *c);
            out.push(']');
        }
        out.push_str("]}]");
    }
    out.push_str("],\"flight\":[");
    for (i, row) in t.flight.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_str(out, row);
    }
    out.push_str("]}");
}

fn decode_tenant(v: &Value) -> Result<TenantTelemetry, String> {
    let name = req_str(v, "name")?.to_string();
    let events = req_u64(v, "events")?;
    let status = req_str(v, "status")?.to_string();
    let generation = req_u64(v, "generation")?;

    let mut counters = Vec::new();
    for (i, pair) in req_arr(v, "counters")?.iter().enumerate() {
        let (n, val) = decode_pair(pair, i, "counters")?;
        counters.push((
            n,
            val.as_u64()
                .ok_or_else(|| format!("counters[{i}]: value not a u64"))?,
        ));
    }

    let mut windows = Vec::new();
    for (i, pair) in req_arr(v, "windows")?.iter().enumerate() {
        let (n, val) = decode_pair(pair, i, "windows")?;
        windows.push((
            n,
            WindowStat {
                window: req_u64(val, "window").map_err(|e| format!("windows[{i}]: {e}"))?,
                index: req_u64(val, "index").map_err(|e| format!("windows[{i}]: {e}"))?,
                len: req_u64(val, "len").map_err(|e| format!("windows[{i}]: {e}"))?,
                sum: req_f64(val, "sum").map_err(|e| format!("windows[{i}]: {e}"))?,
            },
        ));
    }

    let mut histograms = Vec::new();
    for (i, pair) in req_arr(v, "histograms")?.iter().enumerate() {
        let (n, val) = decode_pair(pair, i, "histograms")?;
        let total = req_u64(val, "total").map_err(|e| format!("histograms[{i}]: {e}"))?;
        let min = opt_f64(val, "min").map_err(|e| format!("histograms[{i}]: {e}"))?;
        let max = opt_f64(val, "max").map_err(|e| format!("histograms[{i}]: {e}"))?;
        let mut sparse = Vec::new();
        for (j, b) in req_arr(val, "buckets")
            .map_err(|e| format!("histograms[{i}]: {e}"))?
            .iter()
            .enumerate()
        {
            let p = b
                .as_arr()
                .ok_or_else(|| format!("histograms[{i}].buckets[{j}]: expected [index, count]"))?;
            match p {
                [idx, count] => sparse.push((
                    idx.as_usize().ok_or_else(|| {
                        format!("histograms[{i}].buckets[{j}]: index not a usize")
                    })?,
                    count
                        .as_u64()
                        .ok_or_else(|| format!("histograms[{i}].buckets[{j}]: count not a u64"))?,
                )),
                _ => {
                    return Err(format!(
                        "histograms[{i}].buckets[{j}]: expected a 2-element pair"
                    ))
                }
            }
        }
        let h = QuantileHistogram::from_parts(total, min, max, &sparse)
            .map_err(|e| format!("histograms[{i}] ({n}): {e}"))?;
        histograms.push((n, h));
    }

    let mut flight = Vec::new();
    for (i, row) in req_arr(v, "flight")?.iter().enumerate() {
        flight.push(
            row.as_str()
                .ok_or_else(|| format!("flight[{i}]: not a string"))?
                .to_string(),
        );
    }

    Ok(TenantTelemetry {
        name,
        events,
        status,
        generation,
        counters,
        windows,
        histograms,
        flight,
    })
}

fn decode_pair<'a>(pair: &'a Value, i: usize, ctx: &str) -> Result<(String, &'a Value), String> {
    let p = pair
        .as_arr()
        .ok_or_else(|| format!("{ctx}[{i}]: expected [name, value]"))?;
    match p {
        [name, value] => Ok((
            name.as_str()
                .ok_or_else(|| format!("{ctx}[{i}]: name not a string"))?
                .to_string(),
            value,
        )),
        _ => Err(format!("{ctx}[{i}]: expected a 2-element pair")),
    }
}

fn req_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing or non-u64 field `{key}`"))
}

fn req_f64(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field `{key}`"))
}

fn opt_f64(v: &Value, key: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => x
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("non-numeric field `{key}`")),
    }
}

fn req_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing or non-string field `{key}`"))
}

fn req_arr<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    v.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("missing or non-array field `{key}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_follow_binary_exponents() {
        // 1.0 has exponent 0 → bucket 32; its upper bound is 2.0.
        assert_eq!(QuantileHistogram::bucket_index(1.0), 32);
        assert_eq!(QuantileHistogram::bucket_upper_bound(32), 2.0);
        assert_eq!(QuantileHistogram::bucket_index(1.999), 32);
        assert_eq!(QuantileHistogram::bucket_index(2.0), 33);
        assert_eq!(QuantileHistogram::bucket_index(0.5), 31);
        // Underflow, zero, negatives and NaN clamp low; +inf clamps high.
        assert_eq!(QuantileHistogram::bucket_index(0.0), 0);
        assert_eq!(QuantileHistogram::bucket_index(-3.0), 0);
        assert_eq!(QuantileHistogram::bucket_index(f64::NAN), 0);
        assert_eq!(QuantileHistogram::bucket_index(1e-300), 0);
        assert_eq!(
            QuantileHistogram::bucket_index(f64::INFINITY),
            HIST_BUCKETS - 1
        );
        assert_eq!(QuantileHistogram::bucket_index(1e300), HIST_BUCKETS - 1);
    }

    #[test]
    fn quantiles_stay_inside_the_observed_range() {
        let mut h = QuantileHistogram::new();
        for i in 1..=100 {
            h.record(f64::from(i));
        }
        let p50 = h.p50().unwrap();
        let p99 = h.p99().unwrap();
        assert!((1.0..=100.0).contains(&p50));
        assert!(p99 >= p50);
        assert_eq!(h.quantile(1.0), Some(100.0));
        assert_eq!(h.quantile(0.0).unwrap(), 2.0); // upper bound of 1.0's bucket
        assert!(QuantileHistogram::new().p50().is_none());
    }

    #[test]
    fn merge_adds_counts_and_widens_the_range() {
        let mut a = QuantileHistogram::new();
        a.record(1.0);
        let mut b = QuantileHistogram::new();
        b.record(64.0);
        a.merge(&b);
        assert_eq!(a.total(), 2);
        assert_eq!(a.min_value(), Some(1.0));
        assert_eq!(a.max_value(), Some(64.0));
    }

    #[test]
    fn windows_roll_on_the_event_index() {
        let mut w = RollingWindow::new(4);
        assert!(w.is_empty());
        for i in 0..10 {
            w.push(f64::from(i));
        }
        assert_eq!(w.len(), 4);
        assert_eq!(w.index(), 10);
        assert_eq!(w.sum(), 6.0 + 7.0 + 8.0 + 9.0);
        assert_eq!(w.mean(), Some(7.5));
        let s = w.stat();
        assert_eq!((s.window, s.index, s.len), (4, 10, 4));
    }

    #[test]
    fn bit_windows_match_rolling_windows_on_indicators() {
        for cap in [1usize, 3, 7, 64, 200] {
            let mut bits = BitWindow::new(cap);
            let mut rolling = RollingWindow::new(cap.clamp(1, 64));
            for i in 0..150u64 {
                let hit = i % 3 == 0 || i % 7 == 0;
                bits.push(hit);
                rolling.push(if hit { 1.0 } else { 0.0 });
                assert_eq!(bits.stat(), rolling.stat(), "cap {cap}, push {i}");
                assert_eq!(bits.mean(), rolling.mean(), "cap {cap}, push {i}");
            }
        }
    }

    #[test]
    fn rings_keep_the_last_k_in_order() {
        let mut r = Ring::new(3);
        for i in 0..7 {
            r.push(i);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.pushed(), 7);
        let held: Vec<i32> = r.iter().copied().collect();
        assert_eq!(held, [4, 5, 6]);
    }

    fn sample_snapshot() -> TelemetrySnapshot {
        let mut slack = QuantileHistogram::new();
        for v in [0.25, 4.0, 4.5, 1000.0] {
            slack.record(v);
        }
        let mut w = RollingWindow::new(8);
        for v in [1.0, 0.0, 0.0, 1.0] {
            w.push(v);
        }
        TelemetrySnapshot {
            schema: TELEMETRY_SCHEMA_VERSION,
            label: "fleet".to_string(),
            events: 4,
            dropped: vec![("ghost".to_string(), 2)],
            tenants: vec![TenantTelemetry {
                name: "cam".to_string(),
                events: 4,
                status: "normal".to_string(),
                generation: 1,
                counters: vec![("decisions".to_string(), 4), ("served".to_string(), 3)],
                windows: vec![("fault_rate".to_string(), w.stat())],
                histograms: vec![("slack".to_string(), slack)],
                flight: vec!["cam,1,0,100,0.9,5,0,0,0,,,false,normal".to_string()],
            }],
        }
    }

    #[test]
    fn snapshot_codec_round_trips_byte_for_byte() {
        let snap = sample_snapshot();
        let line = snap.to_json();
        assert!(!line.contains('\n'));
        let back = TelemetrySnapshot::from_json(&line).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_json(), line);
    }

    #[test]
    fn snapshot_decoder_rejects_structural_damage() {
        assert!(TelemetrySnapshot::from_json("{").is_err());
        assert!(TelemetrySnapshot::from_json("{\"schema\":9}").is_err());
        let mut snap = sample_snapshot();
        snap.schema = 1;
        assert!(TelemetrySnapshot::from_json(&snap.to_json())
            .unwrap_err()
            .contains("unsupported telemetry schema"));
        // Out-of-range bucket index.
        let bad = sample_snapshot()
            .to_json()
            .replace("\"buckets\":[[30,", "\"buckets\":[[960,");
        assert!(TelemetrySnapshot::from_json(&bad).is_err());
    }

    #[test]
    fn empty_histograms_encode_null_bounds() {
        let mut snap = sample_snapshot();
        snap.tenants[0].histograms = vec![("slack".to_string(), QuantileHistogram::new())];
        let line = snap.to_json();
        assert!(line.contains("\"min\":null,\"max\":null,\"buckets\":[]"));
        let back = TelemetrySnapshot::from_json(&line).unwrap();
        assert_eq!(back.to_json(), line);
    }
}
