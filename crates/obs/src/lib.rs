//! `clr-obs`: deterministic observability for the hybrid CLR flow.
//!
//! The workspace-wide invariant is that results are **bit-identical at any
//! `CLR_THREADS` setting**; this crate extends that invariant to
//! observability data. It provides three layers:
//!
//! 1. A sharded, thread-safe [`Recorder`] for counters, gauges, and
//!    fixed-bucket histograms keyed by static names (see
//!    [`recorder`] for the commutativity rules that keep snapshots
//!    deterministic).
//! 2. Logical-clock [`Event::Span`]s measured in generation indices,
//!    simulated cycles, or episode numbers — never wall time. Wall-clock
//!    timings exist too ([`Obs::wall_timer`]) but are quarantined in a
//!    separate non-deterministic journal section.
//! 3. A structured event journal ([`Event`]) exported as JSONL and as
//!    Chrome `chrome://tracing` JSON.
//!
//! ## Determinism contract
//!
//! The journal has two sections. The **deterministic** section may only be
//! appended to from serial (master-thread) code — MOEA generation loops,
//! the ReD seed-order merge, the AuRA serial value-update loop, the
//! simulation event loop, and post-aggregation campaign tallies — so its
//! rendered bytes are identical across thread counts (CI byte-compares
//! `CLR_THREADS=1` vs `8`). The **non-deterministic** section holds
//! worker-pool statistics and wall-clock timings, which legitimately vary
//! between runs, and is exported to a separate `*.nondet.jsonl` file.
//!
//! ## Usage
//!
//! ```
//! use clr_obs::{Obs, ObsMode, Event};
//!
//! let obs = Obs::new(ObsMode::Json);
//! obs.counter_add("sim.events", 1);
//! obs.emit(Event::DseStage { stage: "based".into(), points: 12 });
//! let jsonl = obs.render_det_jsonl();
//! assert!(jsonl.lines().count() >= 2); // meta header + the stage event
//! ```
//!
//! A disabled handle ([`Obs::off`]) makes every call a cheap no-op (one
//! `Option` check), which is what keeps instrumented hot paths within the
//! <5 % overhead budget when observability is off.

pub mod event;
pub mod json;
pub mod num;
pub mod recorder;
pub mod telemetry;

pub use event::{Event, SCHEMA_VERSION};
pub use json::{parse as parse_json, Value};
pub use recorder::Recorder;
pub use telemetry::{
    BitWindow, QuantileHistogram, Ring, RollingWindow, TelemetrySnapshot, TenantTelemetry,
    WindowStat, TELEMETRY_SCHEMA_VERSION,
};

use std::io::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Environment variable selecting the observability mode
/// (`off` | `json` | `chrome`).
pub const OBS_ENV: &str = "CLR_OBS";

/// Output mode of an enabled [`Obs`] handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsMode {
    /// Observability disabled; all calls are no-ops.
    Off,
    /// Journal exported as JSONL (deterministic + non-deterministic files).
    Json,
    /// JSONL plus a Chrome `chrome://tracing` JSON trace.
    Chrome,
}

#[derive(Debug, Default)]
struct JournalState {
    det: Vec<Event>,
    nondet: Vec<Event>,
}

#[derive(Debug)]
struct ObsInner {
    mode: ObsMode,
    recorder: Recorder,
    journal: Mutex<JournalState>,
}

/// Cheaply clonable observability handle.
///
/// `Obs` is either *off* (all methods are no-ops; see [`Obs::off`]) or
/// holds shared journal/recorder state behind an [`Arc`] — clones observe
/// into the same journal. Thread it through the flow by value; cloning is
/// one atomic increment.
#[derive(Clone, Default)]
pub struct Obs(Option<Arc<ObsInner>>);

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Obs").field(&self.mode()).finish()
    }
}

impl Obs {
    /// A disabled handle: every method is a cheap no-op.
    pub fn off() -> Self {
        Obs(None)
    }

    /// An enabled handle in the given mode ([`ObsMode::Off`] yields a
    /// disabled handle).
    pub fn new(mode: ObsMode) -> Self {
        match mode {
            ObsMode::Off => Obs(None),
            mode => Obs(Some(Arc::new(ObsInner {
                mode,
                recorder: Recorder::new(),
                journal: Mutex::new(JournalState::default()),
            }))),
        }
    }

    /// Builds a handle from the [`OBS_ENV`] environment variable:
    /// `json` / `chrome` enable it, anything else (including unset) is off.
    pub fn from_env() -> Self {
        match std::env::var(OBS_ENV).as_deref() {
            Ok("json") => Obs::new(ObsMode::Json),
            Ok("chrome") => Obs::new(ObsMode::Chrome),
            _ => Obs::off(),
        }
    }

    /// `true` when the handle records anything at all.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The handle's mode ([`ObsMode::Off`] when disabled).
    pub fn mode(&self) -> ObsMode {
        self.0.as_ref().map_or(ObsMode::Off, |inner| inner.mode)
    }

    /// Appends `event` to the **deterministic** journal section.
    ///
    /// Call only from serial (master-thread) code; the sequence number is
    /// the append index, so worker-thread emission would make the journal
    /// depend on scheduling. Emitting a [`Event::Pool`] or [`Event::Wall`]
    /// here is a contract violation caught by the `clr-verify` journal
    /// lint.
    pub fn emit(&self, event: Event) {
        if let Some(inner) = &self.0 {
            inner
                .journal
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .det
                .push(event);
        }
    }

    /// Appends `event` to the **non-deterministic** journal section
    /// (worker-pool stats, wall-clock timings).
    pub fn emit_nondet(&self, event: Event) {
        if let Some(inner) = &self.0 {
            inner
                .journal
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .nondet
                .push(event);
        }
    }

    /// Adds `n` to counter `name` (no-op when disabled). Safe from any
    /// thread: counter adds commute.
    pub fn counter_add(&self, name: &'static str, n: u64) {
        if let Some(inner) = &self.0 {
            inner.recorder.counter_add(name, n);
        }
    }

    /// Sets gauge `name` (no-op when disabled). Serial code only — gauges
    /// are last-write-wins.
    pub fn gauge_set(&self, name: &'static str, value: f64) {
        if let Some(inner) = &self.0 {
            inner.recorder.gauge_set(name, value);
        }
    }

    /// Records `value` into histogram `name` (no-op when disabled). Safe
    /// from any thread: bucket increments and min/max folds commute.
    pub fn histogram_record(&self, name: &'static str, bounds: &'static [f64], value: f64) {
        if let Some(inner) = &self.0 {
            inner.recorder.histogram_record(name, bounds, value);
        }
    }

    /// Records every value of `values` into histogram `name` under one
    /// lock (no-op when disabled); the same snapshot as one
    /// [`Obs::histogram_record`] per value, and an empty `values` leaves
    /// the histogram untouched.
    pub fn histogram_record_all(
        &self,
        name: &'static str,
        bounds: &'static [f64],
        values: impl IntoIterator<Item = f64>,
    ) {
        if let Some(inner) = &self.0 {
            inner.recorder.histogram_record_all(name, bounds, values);
        }
    }

    /// Starts a wall-clock timer that emits a [`Event::Wall`] into the
    /// non-deterministic section when dropped. Inert when disabled.
    pub fn wall_timer(&self, label: &str) -> WallTimer {
        // clr-audit: nondet(begin) wall timers feed only the journal's nondeterministic section
        WallTimer {
            obs: self.clone(),
            label: label.to_string(),
            start: self.enabled().then(Instant::now),
        }
        // clr-audit: nondet(end)
    }

    /// The deterministic events emitted so far (for tests).
    pub fn det_events(&self) -> Vec<Event> {
        self.0.as_ref().map_or_else(Vec::new, |inner| {
            inner
                .journal
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .det
                .clone()
        })
    }

    /// Renders the deterministic journal section as JSONL: a `meta`
    /// header, every deterministic event in emission order, then the
    /// recorder snapshot sorted by metric name. Returns an empty string
    /// when disabled.
    pub fn render_det_jsonl(&self) -> String {
        self.render_det_jsonl_labeled("run")
    }

    /// [`Obs::render_det_jsonl`] with an explicit run label in the `meta`
    /// header.
    pub fn render_det_jsonl_labeled(&self, label: &str) -> String {
        let Some(inner) = &self.0 else {
            return String::new();
        };
        let journal = inner
            .journal
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let meta = Event::Meta {
            label: label.to_string(),
            schema: SCHEMA_VERSION,
        };
        let snapshot = inner.recorder.snapshot_events();
        let mut out = String::new();
        let events = std::iter::once(&meta).chain(&journal.det).chain(&snapshot);
        for (seq, e) in (0u64..).zip(events) {
            e.write_json_line(seq, &mut out);
            out.push('\n');
        }
        out
    }

    /// Renders the non-deterministic journal section (pool stats, wall
    /// timings) as JSONL. Empty when disabled or nothing was recorded.
    pub fn render_nondet_jsonl(&self) -> String {
        let Some(inner) = &self.0 else {
            return String::new();
        };
        let journal = inner
            .journal
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut out = String::new();
        for (seq, e) in (0u64..).zip(&journal.nondet) {
            e.write_json_line(seq, &mut out);
            out.push('\n');
        }
        out
    }

    /// Renders the deterministic journal as a Chrome `chrome://tracing`
    /// document (`{"traceEvents": [...]}`): spans and GA generations
    /// become complete (`"X"`) events on the logical clock, decisions
    /// become instant (`"i"`) events.
    pub fn render_chrome(&self) -> String {
        let Some(inner) = &self.0 else {
            return String::new();
        };
        let journal = inner
            .journal
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut out = String::from("{\"traceEvents\":[");
        for e in &journal.det {
            // Items are objects, so a `}` before this one needs a comma.
            let comma = if out.ends_with('}') { "," } else { "" };
            match e {
                Event::Span {
                    label,
                    clock,
                    start,
                    end,
                } => {
                    out.push_str(comma);
                    out.push_str("{\"name\":");
                    json::write_str(&mut out, label);
                    out.push_str(",\"cat\":");
                    json::write_str(&mut out, clock);
                    out.push_str(",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":");
                    json::write_f64(&mut out, *start);
                    out.push_str(",\"dur\":");
                    json::write_f64(&mut out, (end - start).max(0.0));
                    out.push('}');
                }
                Event::GaGen {
                    algo, label, gen, ..
                } => {
                    // The name is `<label>/g<gen>`: the escaped label with
                    // its closing quote reopened for the plain suffix.
                    out.push_str(comma);
                    out.push_str("{\"name\":");
                    json::write_str(&mut out, label);
                    out.pop();
                    out.push_str("/g");
                    num::push_usize(&mut out, *gen);
                    out.push_str("\",\"cat\":");
                    json::write_str(&mut out, algo);
                    out.push_str(",\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":");
                    num::push_usize(&mut out, *gen);
                    out.push_str(",\"dur\":1}");
                }
                Event::Decision { cycle, to, .. } => {
                    out.push_str(comma);
                    out.push_str("{\"name\":\"to");
                    num::push_usize(&mut out, *to);
                    out.push_str(
                        "\",\"cat\":\"decision\",\"ph\":\"i\",\"pid\":1,\"tid\":3,\"ts\":",
                    );
                    json::write_f64(&mut out, *cycle);
                    out.push_str(",\"s\":\"t\"}");
                }
                _ => {}
            }
        }
        out.push_str("]}\n");
        out
    }

    /// Writes the journal files into `dir` using `name` as the file stem:
    /// `<name>.obs.jsonl` (deterministic section), `<name>.obs.nondet.jsonl`
    /// (only when non-deterministic events exist), and `<name>.trace.json`
    /// (Chrome mode only). Returns the paths written; none when disabled.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from creating `dir` or writing files.
    pub fn export(&self, dir: &str, name: &str) -> std::io::Result<Vec<std::path::PathBuf>> {
        if !self.enabled() {
            return Ok(Vec::new());
        }
        std::fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        let det_path = std::path::Path::new(dir).join(format!("{name}.obs.jsonl"));
        write_file(&det_path, &self.render_det_jsonl_labeled(name))?;
        written.push(det_path);
        let nondet = self.render_nondet_jsonl();
        if !nondet.is_empty() {
            let path = std::path::Path::new(dir).join(format!("{name}.obs.nondet.jsonl"));
            write_file(&path, &nondet)?;
            written.push(path);
        }
        if self.mode() == ObsMode::Chrome {
            let path = std::path::Path::new(dir).join(format!("{name}.trace.json"));
            write_file(&path, &self.render_chrome())?;
            written.push(path);
        }
        Ok(written)
    }
}

fn write_file(path: &std::path::Path, content: &str) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(content.as_bytes())
}

/// Wall-clock timer returned by [`Obs::wall_timer`]; emits a
/// [`Event::Wall`] into the non-deterministic journal section on drop.
#[derive(Debug)]
pub struct WallTimer {
    obs: Obs,
    label: String,
    start: Option<Instant>,
}

impl Drop for WallTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.obs.emit_nondet(Event::Wall {
                label: std::mem::take(&mut self.label),
                nanos,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_is_inert() {
        let obs = Obs::off();
        assert!(!obs.enabled());
        assert_eq!(obs.mode(), ObsMode::Off);
        obs.counter_add("x", 1);
        obs.emit(Event::DseStage {
            stage: "based".into(),
            points: 1,
        });
        drop(obs.wall_timer("t"));
        assert!(obs.render_det_jsonl().is_empty());
        assert!(obs.render_nondet_jsonl().is_empty());
        assert!(obs.det_events().is_empty());
    }

    #[test]
    fn new_with_off_mode_is_disabled() {
        assert!(!Obs::new(ObsMode::Off).enabled());
    }

    #[test]
    fn clones_share_the_journal() {
        let obs = Obs::new(ObsMode::Json);
        let clone = obs.clone();
        clone.emit(Event::DseStage {
            stage: "based".into(),
            points: 3,
        });
        assert_eq!(obs.det_events().len(), 1);
    }

    #[test]
    fn det_jsonl_has_meta_header_events_then_sorted_snapshot() {
        let obs = Obs::new(ObsMode::Json);
        obs.emit(Event::DseStage {
            stage: "based".into(),
            points: 3,
        });
        obs.counter_add("z", 1);
        obs.gauge_set("a", 2.0);
        let text = obs.render_det_jsonl_labeled("t");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[0],
            "{\"seq\":0,\"type\":\"meta\",\"label\":\"t\",\"schema\":3}"
        );
        assert_eq!(
            lines[1],
            "{\"seq\":1,\"type\":\"dse_stage\",\"stage\":\"based\",\"points\":3}"
        );
        assert_eq!(
            lines[2],
            "{\"seq\":2,\"type\":\"gauge\",\"name\":\"a\",\"value\":2}"
        );
        assert_eq!(
            lines[3],
            "{\"seq\":3,\"type\":\"counter\",\"name\":\"z\",\"value\":1}"
        );
        // Every line parses back and the seq numbers are strictly monotone.
        for (i, line) in lines.iter().enumerate() {
            let (seq, _) = Event::from_json_line(line).unwrap();
            assert_eq!(seq, i as u64);
        }
    }

    #[test]
    fn wall_timer_lands_in_the_nondet_section_only() {
        let obs = Obs::new(ObsMode::Json);
        drop(obs.wall_timer("stage"));
        assert!(obs.det_events().is_empty());
        let nondet = obs.render_nondet_jsonl();
        let (_, e) = Event::from_json_line(nondet.trim()).unwrap();
        assert!(matches!(e, Event::Wall { ref label, .. } if label == "stage"));
    }

    #[test]
    fn chrome_rendering_wraps_trace_events() {
        let obs = Obs::new(ObsMode::Chrome);
        obs.emit(Event::Span {
            label: "based".into(),
            clock: "gen".into(),
            start: 0.0,
            end: 12.0,
        });
        obs.emit(Event::Decision {
            event: 1,
            cycle: 10.5,
            feasible: 2,
            from: 0,
            to: 1,
            drc: 0.5,
            score: None,
            p_rc: None,
            violated: false,
        });
        let doc = obs.render_chrome();
        let v = parse_json(doc.trim()).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(events[1].get("ph").unwrap().as_str(), Some("i"));
    }

    #[test]
    fn export_writes_det_and_chrome_files() {
        let dir = std::env::temp_dir().join("clr-obs-test-export");
        let dir = dir.to_str().unwrap();
        let obs = Obs::new(ObsMode::Chrome);
        obs.emit(Event::DseStage {
            stage: "based".into(),
            points: 1,
        });
        drop(obs.wall_timer("w"));
        let written = obs.export(dir, "unit").unwrap();
        assert_eq!(written.len(), 3);
        let det = std::fs::read_to_string(&written[0]).unwrap();
        assert_eq!(det, obs.render_det_jsonl_labeled("unit"));
        for p in &written {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn identical_emission_renders_identical_bytes() {
        let make = || {
            let obs = Obs::new(ObsMode::Json);
            for g in 0..3 {
                obs.emit(Event::GaGen {
                    algo: "hvga".into(),
                    label: "l".into(),
                    gen: g,
                    evals: 24,
                    feasible: 20,
                    front: 4,
                    archive: 4,
                    hv: Some(1.0 + g as f64),
                });
            }
            obs.counter_add("c", 7);
            obs.render_det_jsonl()
        };
        assert_eq!(make(), make());
    }
}
