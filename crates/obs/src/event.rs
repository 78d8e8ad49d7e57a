//! The structured journal schema: one [`Event`] per JSONL line.
//!
//! Every event encodes to a single-line JSON object with a **fixed key
//! order** starting with `seq` (the logical sequence number assigned by
//! the journal) and `type`. Encoding is deterministic down to the byte —
//! floats use Rust's shortest-round-trip formatting — so two runs that
//! emit the same events produce identical files, which is the foundation
//! of the thread-count byte-compare gate. [`Event::write_json_line`]
//! appends a line to a caller-owned buffer, so a whole journal renders
//! into one `String`; [`Event::from_json_line`] inverts it exactly, and
//! the `clr-verify` journal round-trip lint re-encodes each parsed line
//! and compares bytes.

use crate::json::{self, Value};
use crate::num;

/// Version stamped into every journal's leading `meta` event; bump when
/// the schema of any event changes shape. Version 2 added the `db_swap`
/// event; version 3 added the `shadow` and `promote` events of the
/// online-learning loop.
pub const SCHEMA_VERSION: u64 = 3;

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Journal header: run label and schema version (always the first
    /// deterministic event).
    Meta {
        /// Run label (e.g. the experiment binary name).
        label: String,
        /// Schema version ([`SCHEMA_VERSION`] at write time).
        schema: u64,
    },
    /// Per-generation MOEA statistics, emitted from the master thread of
    /// an optimiser's generation loop.
    GaGen {
        /// Optimiser kind: `hvga`, `nsga2` or `spea2`.
        algo: String,
        /// Caller-assigned run label (e.g. `based-hv-0`).
        label: String,
        /// Generation index (0 = the evaluated initial population).
        gen: usize,
        /// Solutions evaluated this generation.
        evals: usize,
        /// Feasible individuals in the generation.
        feasible: usize,
        /// Current first-front size.
        front: usize,
        /// Current archive (or population) size.
        archive: usize,
        /// Hyper-volume of the archive w.r.t. the reference point, when
        /// the optimiser has one (HvGA only).
        hv: Option<f64>,
    },
    /// A design-time exploration stage finished with this many stored
    /// points.
    DseStage {
        /// Stage name (`based`, `red`).
        stage: String,
        /// Database size after the stage.
        points: usize,
    },
    /// Outcome of one ReD per-seed neighbourhood search (emitted in seed
    /// order from the serial merge).
    RedSeed {
        /// Seed-point index within BaseD.
        index: usize,
        /// Candidates the inner GA produced below the seed's average dRC.
        candidates: usize,
        /// Candidates actually kept after dedup against the database.
        kept: usize,
    },
    /// One Monte-Carlo prior-training episode (emitted in episode order
    /// from the serial value-update loop).
    Episode {
        /// Global episode index.
        index: u64,
        /// Steps (QoS events) in the episode.
        steps: usize,
        /// Discounted return of the episode's trajectory.
        ret: f64,
    },
    /// A run-time simulation starts.
    SimStart {
        /// Simulation label (unique within the journal).
        label: String,
        /// Stored design points the policy adapts over.
        points: usize,
        /// Event-stream RNG seed.
        seed: u64,
    },
    /// One agent adaptation decision (paper Algorithm 1 / §4.3).
    Decision {
        /// Event index within the enclosing simulation (1-based).
        event: usize,
        /// Simulated cycle of the QoS change (logical clock, not wall
        /// time).
        cycle: f64,
        /// Size of the feasible stored-point set for the new requirement.
        feasible: usize,
        /// Active point before the decision.
        from: usize,
        /// Active point after the decision.
        to: usize,
        /// Reconfiguration cost paid.
        drc: f64,
        /// Winning `RET` score, when the policy exposes one (uRA/AuRA).
        score: Option<f64>,
        /// The policy's `p_RC` modulation parameter, when it has one.
        p_rc: Option<f64>,
        /// `true` when no stored point satisfied the requirement.
        violated: bool,
    },
    /// A run-time simulation finished.
    SimEnd {
        /// Simulation label (matches the `sim_start`).
        label: String,
        /// QoS-change events processed.
        events: usize,
        /// Events that moved the operating point.
        reconfigurations: usize,
        /// Events with no feasible stored point.
        violations: usize,
        /// Sum of paid reconfiguration costs.
        total_drc: f64,
    },
    /// Tally of one Monte-Carlo fault-injection campaign (emitted after
    /// the chunk-ordered reduction).
    Inject {
        /// Campaign label.
        label: String,
        /// Injected trials.
        trials: u64,
        /// Trials whose error escaped to the task output.
        errors: u64,
        /// Estimated error probability.
        err_prob: f64,
    },
    /// One injected-or-absorbed fault on the serve path: which layer it
    /// hit, what kind it was, and which degradation-ladder rung absorbed
    /// it. Emitted serially from collected outcomes, so fault journals are
    /// bit-identical across thread counts like every deterministic event.
    Fault {
        /// Campaign-cell or run label the fault belongs to.
        label: String,
        /// Layer the fault was injected at: `snapshot`, `trace` or
        /// `decision`.
        layer: String,
        /// Fault kind (`bitflip`, `truncate`, `malformed`, `reorder`,
        /// `budget`, `policy`, `infeasible`, …).
        kind: String,
        /// Affected tenant name (empty for fleet-wide load faults).
        tenant: String,
        /// 1-based event ordinal within the tenant's stream (0 for
        /// load-time faults).
        event: usize,
        /// Ladder action that absorbed the fault: `retry`, `skip`, `lkg`,
        /// `baseline`, `hold` or `quarantine`.
        action: String,
    },
    /// A tenant's database was hot-swapped (or the swap was refused)
    /// between decisions on the serve path. Emitted serially in stream
    /// order, so swap journals are bit-identical across thread counts.
    DbSwap {
        /// Run label the swap belongs to.
        label: String,
        /// The tenant whose database was addressed.
        tenant: String,
        /// 1-based ordinal of the last admitted request before the swap
        /// (0 = before any request was served).
        event: usize,
        /// Generation serving before the attempt.
        from_gen: u64,
        /// Generation the command asked for.
        to_gen: u64,
        /// Design points in the database serving *after* the attempt.
        points: usize,
        /// Outcome: `swapped`, `verify-failed`, `unknown-tenant` or
        /// `io-error`.
        status: String,
    },
    /// One scored decision's shadow evaluation: the incumbent and
    /// candidate policies' picks on the same event and each pick's
    /// one-step counterfactual regret. Emitted serially in stream order
    /// right after the matching `decision`, so shadow journals are
    /// bit-identical across thread counts.
    Shadow {
        /// Run label the evaluation belongs to.
        label: String,
        /// The tenant whose decision was shadow-scored.
        tenant: String,
        /// 1-based event ordinal within the tenant's stream.
        event: usize,
        /// Seeded A/B variant: `control` or `treatment`.
        variant: String,
        /// Which table served the pick: `live` or `shadow`.
        serving: String,
        /// The incumbent table's pick.
        live_choice: usize,
        /// The candidate table's pick (after any seeded exploration).
        shadow_choice: usize,
        /// One-step oracle regret of the incumbent's pick (≥ 0).
        live_regret: f64,
        /// One-step oracle regret of the candidate's pick (≥ 0).
        shadow_regret: f64,
    },
    /// A candidate policy was promoted over the incumbent (or the
    /// promotion was refused) between decisions on the serve path.
    /// Emitted serially in stream order like `db_swap`.
    Promote {
        /// Run label the promotion belongs to.
        label: String,
        /// The tenant whose learner was addressed.
        tenant: String,
        /// 1-based ordinal of the last admitted request before the
        /// promotion (0 = before any request was served).
        event: usize,
        /// Total promotions applied to the tenant *after* the attempt.
        promotions: u64,
        /// Outcome: `promoted`, `unknown-tenant` or `no-learner`.
        status: String,
    },
    /// A logical-clock span: a named interval measured in generations,
    /// simulated cycles or episodes — never wall time, so spans are
    /// bit-identical across thread counts.
    Span {
        /// Span label.
        label: String,
        /// Clock domain: `gen`, `cycle` or `episode`.
        clock: String,
        /// Inclusive start on the logical clock.
        start: f64,
        /// Exclusive end on the logical clock.
        end: f64,
    },
    /// A recorder counter at snapshot time.
    Counter {
        /// Metric name.
        name: String,
        /// Accumulated count.
        value: u64,
    },
    /// A recorder gauge at snapshot time.
    Gauge {
        /// Metric name.
        name: String,
        /// Last value set.
        value: f64,
    },
    /// A recorder histogram at snapshot time.
    Histogram {
        /// Metric name.
        name: String,
        /// Upper bucket bounds (bucket `i` counts samples `≤ bounds[i]`;
        /// one overflow bucket follows).
        bounds: Vec<f64>,
        /// Per-bucket sample counts (`bounds.len() + 1` entries).
        counts: Vec<u64>,
        /// Total samples recorded.
        total: u64,
        /// Smallest sample (absent when empty).
        min: Option<f64>,
        /// Largest sample (absent when empty).
        max: Option<f64>,
    },
    /// Worker-pool statistics of one parallel fan-out site
    /// (**non-deterministic**: scheduling decides the per-worker split).
    Pool {
        /// Fan-out site label.
        site: String,
        /// Work items executed.
        items: usize,
        /// Worker threads used.
        workers: usize,
        /// Items executed per worker.
        per_worker: Vec<u64>,
        /// Queue-backlog high-water mark observed at pull time.
        queue_hwm: usize,
    },
    /// A wall-clock measurement (**non-deterministic** by nature; never
    /// part of the deterministic journal section).
    Wall {
        /// Timer label.
        label: String,
        /// Elapsed nanoseconds.
        nanos: u64,
    },
}

impl Event {
    /// The event's `type` tag as written to the journal.
    pub fn type_tag(&self) -> &'static str {
        match self {
            Event::Meta { .. } => "meta",
            Event::GaGen { .. } => "ga_gen",
            Event::DseStage { .. } => "dse_stage",
            Event::RedSeed { .. } => "red_seed",
            Event::Episode { .. } => "episode",
            Event::SimStart { .. } => "sim_start",
            Event::Decision { .. } => "decision",
            Event::SimEnd { .. } => "sim_end",
            Event::Inject { .. } => "inject",
            Event::Fault { .. } => "fault",
            Event::DbSwap { .. } => "db_swap",
            Event::Shadow { .. } => "shadow",
            Event::Promote { .. } => "promote",
            Event::Span { .. } => "span",
            Event::Counter { .. } => "counter",
            Event::Gauge { .. } => "gauge",
            Event::Histogram { .. } => "histogram",
            Event::Pool { .. } => "pool",
            Event::Wall { .. } => "wall",
        }
    }

    /// `true` for event kinds that are deterministic across thread counts.
    pub fn is_deterministic(&self) -> bool {
        !matches!(self, Event::Pool { .. } | Event::Wall { .. })
    }

    /// Encodes the event as one JSONL line (no trailing newline) with the
    /// given sequence number; a fresh-`String` wrapper over
    /// [`Event::write_json_line`].
    pub fn to_json_line(&self, seq: u64) -> String {
        let mut out = String::new();
        self.write_json_line(seq, &mut out);
        out
    }

    /// Appends the event's JSONL line (no trailing newline) with the given
    /// sequence number to `out`, allocating nothing beyond `out`'s own
    /// growth — the writer behind every journal renderer.
    pub fn write_json_line(&self, seq: u64, out: &mut String) {
        out.push_str("{\"seq\":");
        num::push_u64(out, seq);
        out.push_str(",\"type\":\"");
        out.push_str(self.type_tag());
        out.push('"');
        let mut f = Fields(out);
        match self {
            Event::Meta { label, schema } => {
                f.str("label", label).u64("schema", *schema);
            }
            Event::GaGen {
                algo,
                label,
                gen,
                evals,
                feasible,
                front,
                archive,
                hv,
            } => {
                f.str("algo", algo)
                    .str("label", label)
                    .usize("gen", *gen)
                    .usize("evals", *evals)
                    .usize("feasible", *feasible)
                    .usize("front", *front)
                    .usize("archive", *archive)
                    .opt_f64("hv", *hv);
            }
            Event::DseStage { stage, points } => {
                f.str("stage", stage).usize("points", *points);
            }
            Event::RedSeed {
                index,
                candidates,
                kept,
            } => {
                f.usize("index", *index)
                    .usize("candidates", *candidates)
                    .usize("kept", *kept);
            }
            Event::Episode { index, steps, ret } => {
                f.u64("index", *index)
                    .usize("steps", *steps)
                    .f64("ret", *ret);
            }
            Event::SimStart {
                label,
                points,
                seed,
            } => {
                f.str("label", label)
                    .usize("points", *points)
                    .u64("seed", *seed);
            }
            Event::Decision {
                event,
                cycle,
                feasible,
                from,
                to,
                drc,
                score,
                p_rc,
                violated,
            } => {
                f.usize("event", *event)
                    .f64("cycle", *cycle)
                    .usize("feasible", *feasible)
                    .usize("from", *from)
                    .usize("to", *to)
                    .f64("drc", *drc)
                    .opt_f64("score", *score)
                    .opt_f64("p_rc", *p_rc)
                    .bool("violated", *violated);
            }
            Event::SimEnd {
                label,
                events,
                reconfigurations,
                violations,
                total_drc,
            } => {
                f.str("label", label)
                    .usize("events", *events)
                    .usize("reconfigurations", *reconfigurations)
                    .usize("violations", *violations)
                    .f64("total_drc", *total_drc);
            }
            Event::Inject {
                label,
                trials,
                errors,
                err_prob,
            } => {
                f.str("label", label)
                    .u64("trials", *trials)
                    .u64("errors", *errors)
                    .f64("err_prob", *err_prob);
            }
            Event::Fault {
                label,
                layer,
                kind,
                tenant,
                event,
                action,
            } => {
                f.str("label", label)
                    .str("layer", layer)
                    .str("kind", kind)
                    .str("tenant", tenant)
                    .usize("event", *event)
                    .str("action", action);
            }
            Event::DbSwap {
                label,
                tenant,
                event,
                from_gen,
                to_gen,
                points,
                status,
            } => {
                f.str("label", label)
                    .str("tenant", tenant)
                    .usize("event", *event)
                    .u64("from_gen", *from_gen)
                    .u64("to_gen", *to_gen)
                    .usize("points", *points)
                    .str("status", status);
            }
            Event::Shadow {
                label,
                tenant,
                event,
                variant,
                serving,
                live_choice,
                shadow_choice,
                live_regret,
                shadow_regret,
            } => {
                f.str("label", label)
                    .str("tenant", tenant)
                    .usize("event", *event)
                    .str("variant", variant)
                    .str("serving", serving)
                    .usize("live_choice", *live_choice)
                    .usize("shadow_choice", *shadow_choice)
                    .f64("live_regret", *live_regret)
                    .f64("shadow_regret", *shadow_regret);
            }
            Event::Promote {
                label,
                tenant,
                event,
                promotions,
                status,
            } => {
                f.str("label", label)
                    .str("tenant", tenant)
                    .usize("event", *event)
                    .u64("promotions", *promotions)
                    .str("status", status);
            }
            Event::Span {
                label,
                clock,
                start,
                end,
            } => {
                f.str("label", label)
                    .str("clock", clock)
                    .f64("start", *start)
                    .f64("end", *end);
            }
            Event::Counter { name, value } => {
                f.str("name", name).u64("value", *value);
            }
            Event::Gauge { name, value } => {
                f.str("name", name).f64("value", *value);
            }
            Event::Histogram {
                name,
                bounds,
                counts,
                total,
                min,
                max,
            } => {
                f.str("name", name)
                    .f64s("bounds", bounds)
                    .u64s("counts", counts)
                    .u64("total", *total)
                    .opt_f64("min", *min)
                    .opt_f64("max", *max);
            }
            Event::Pool {
                site,
                items,
                workers,
                per_worker,
                queue_hwm,
            } => {
                f.str("site", site)
                    .usize("items", *items)
                    .usize("workers", *workers)
                    .u64s("per_worker", per_worker)
                    .usize("queue_hwm", *queue_hwm);
            }
            Event::Wall { label, nanos } => {
                f.str("label", label).u64("nanos", *nanos);
            }
        }
        out.push('}');
    }

    /// Parses one JSONL line produced by [`Event::to_json_line`],
    /// returning the sequence number and the event.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem: syntax
    /// errors, a missing/`non-number` `seq`, an unknown `type`, or a
    /// missing/badly typed field.
    pub fn from_json_line(line: &str) -> Result<(u64, Event), String> {
        let v = json::parse(line)?;
        if !matches!(v, Value::Obj(_)) {
            return Err("journal line is not a JSON object".to_string());
        }
        let seq = v
            .get("seq")
            .and_then(Value::as_u64)
            .ok_or("missing or non-integer \"seq\"")?;
        let ty = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or("missing \"type\"")?;

        let str_field = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or(format!("missing or non-string {k:?}"))
        };
        let usize_field = |k: &str| -> Result<usize, String> {
            v.get(k)
                .and_then(Value::as_usize)
                .ok_or(format!("missing or non-integer {k:?}"))
        };
        let u64_field = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or(format!("missing or non-integer {k:?}"))
        };
        let f64_field = |k: &str| -> Result<f64, String> {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or(format!("missing or non-number {k:?}"))
        };
        let opt_f64_field = |k: &str| -> Result<Option<f64>, String> {
            match v.get(k) {
                None => Err(format!("missing {k:?}")),
                Some(Value::Null) => Ok(None),
                Some(x) => x.as_f64().map(Some).ok_or(format!("non-number {k:?}")),
            }
        };
        let bool_field = |k: &str| -> Result<bool, String> {
            v.get(k)
                .and_then(Value::as_bool)
                .ok_or(format!("missing or non-boolean {k:?}"))
        };

        let event = match ty {
            "meta" => Event::Meta {
                label: str_field("label")?,
                schema: u64_field("schema")?,
            },
            "ga_gen" => Event::GaGen {
                algo: str_field("algo")?,
                label: str_field("label")?,
                gen: usize_field("gen")?,
                evals: usize_field("evals")?,
                feasible: usize_field("feasible")?,
                front: usize_field("front")?,
                archive: usize_field("archive")?,
                hv: opt_f64_field("hv")?,
            },
            "dse_stage" => Event::DseStage {
                stage: str_field("stage")?,
                points: usize_field("points")?,
            },
            "red_seed" => Event::RedSeed {
                index: usize_field("index")?,
                candidates: usize_field("candidates")?,
                kept: usize_field("kept")?,
            },
            "episode" => Event::Episode {
                index: u64_field("index")?,
                steps: usize_field("steps")?,
                ret: f64_field("ret")?,
            },
            "sim_start" => Event::SimStart {
                label: str_field("label")?,
                points: usize_field("points")?,
                seed: u64_field("seed")?,
            },
            "decision" => Event::Decision {
                event: usize_field("event")?,
                cycle: f64_field("cycle")?,
                feasible: usize_field("feasible")?,
                from: usize_field("from")?,
                to: usize_field("to")?,
                drc: f64_field("drc")?,
                score: opt_f64_field("score")?,
                p_rc: opt_f64_field("p_rc")?,
                violated: bool_field("violated")?,
            },
            "sim_end" => Event::SimEnd {
                label: str_field("label")?,
                events: usize_field("events")?,
                reconfigurations: usize_field("reconfigurations")?,
                violations: usize_field("violations")?,
                total_drc: f64_field("total_drc")?,
            },
            "inject" => Event::Inject {
                label: str_field("label")?,
                trials: u64_field("trials")?,
                errors: u64_field("errors")?,
                err_prob: f64_field("err_prob")?,
            },
            "fault" => Event::Fault {
                label: str_field("label")?,
                layer: str_field("layer")?,
                kind: str_field("kind")?,
                tenant: str_field("tenant")?,
                event: usize_field("event")?,
                action: str_field("action")?,
            },
            "db_swap" => Event::DbSwap {
                label: str_field("label")?,
                tenant: str_field("tenant")?,
                event: usize_field("event")?,
                from_gen: u64_field("from_gen")?,
                to_gen: u64_field("to_gen")?,
                points: usize_field("points")?,
                status: str_field("status")?,
            },
            "shadow" => Event::Shadow {
                label: str_field("label")?,
                tenant: str_field("tenant")?,
                event: usize_field("event")?,
                variant: str_field("variant")?,
                serving: str_field("serving")?,
                live_choice: usize_field("live_choice")?,
                shadow_choice: usize_field("shadow_choice")?,
                live_regret: f64_field("live_regret")?,
                shadow_regret: f64_field("shadow_regret")?,
            },
            "promote" => Event::Promote {
                label: str_field("label")?,
                tenant: str_field("tenant")?,
                event: usize_field("event")?,
                promotions: u64_field("promotions")?,
                status: str_field("status")?,
            },
            "span" => Event::Span {
                label: str_field("label")?,
                clock: str_field("clock")?,
                start: f64_field("start")?,
                end: f64_field("end")?,
            },
            "counter" => Event::Counter {
                name: str_field("name")?,
                value: u64_field("value")?,
            },
            "gauge" => Event::Gauge {
                name: str_field("name")?,
                value: f64_field("value")?,
            },
            "histogram" => {
                let arr_f64 = |k: &str| -> Result<Vec<f64>, String> {
                    v.get(k)
                        .and_then(Value::as_arr)
                        .ok_or(format!("missing or non-array {k:?}"))?
                        .iter()
                        .map(|x| x.as_f64().ok_or(format!("non-number in {k:?}")))
                        .collect()
                };
                let arr_u64 = |k: &str| -> Result<Vec<u64>, String> {
                    v.get(k)
                        .and_then(Value::as_arr)
                        .ok_or(format!("missing or non-array {k:?}"))?
                        .iter()
                        .map(|x| x.as_u64().ok_or(format!("non-integer in {k:?}")))
                        .collect()
                };
                Event::Histogram {
                    name: str_field("name")?,
                    bounds: arr_f64("bounds")?,
                    counts: arr_u64("counts")?,
                    total: u64_field("total")?,
                    min: opt_f64_field("min")?,
                    max: opt_f64_field("max")?,
                }
            }
            "pool" => {
                let per_worker = v
                    .get("per_worker")
                    .and_then(Value::as_arr)
                    .ok_or("missing or non-array \"per_worker\"")?
                    .iter()
                    .map(|x| {
                        x.as_u64()
                            .ok_or("non-integer in \"per_worker\"".to_string())
                    })
                    .collect::<Result<Vec<u64>, String>>()?;
                Event::Pool {
                    site: str_field("site")?,
                    items: usize_field("items")?,
                    workers: usize_field("workers")?,
                    per_worker,
                    queue_hwm: usize_field("queue_hwm")?,
                }
            }
            "wall" => Event::Wall {
                label: str_field("label")?,
                nanos: u64_field("nanos")?,
            },
            other => return Err(format!("unknown event type {other:?}")),
        };
        Ok((seq, event))
    }
}

/// Appends `,"key":value` members to one journal object; keys are
/// static schema names and never need escaping.
struct Fields<'a>(&'a mut String);

impl Fields<'_> {
    fn key(&mut self, key: &str) -> &mut String {
        self.0.push_str(",\"");
        self.0.push_str(key);
        self.0.push_str("\":");
        self.0
    }

    fn str(&mut self, key: &str, v: &str) -> &mut Self {
        json::write_str(self.key(key), v);
        self
    }

    fn u64(&mut self, key: &str, v: u64) -> &mut Self {
        num::push_u64(self.key(key), v);
        self
    }

    fn usize(&mut self, key: &str, v: usize) -> &mut Self {
        num::push_usize(self.key(key), v);
        self
    }

    fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        num::push_bool(self.key(key), v);
        self
    }

    fn f64(&mut self, key: &str, v: f64) -> &mut Self {
        json::write_f64(self.key(key), v);
        self
    }

    fn opt_f64(&mut self, key: &str, v: Option<f64>) -> &mut Self {
        json::write_opt_f64(self.key(key), v);
        self
    }

    fn f64s(&mut self, key: &str, v: &[f64]) -> &mut Self {
        json::write_f64_array(self.key(key), v);
        self
    }

    fn u64s(&mut self, key: &str, v: &[u64]) -> &mut Self {
        json::write_u64_array(self.key(key), v);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Event> {
        vec![
            Event::Meta {
                label: "t".into(),
                schema: SCHEMA_VERSION,
            },
            Event::GaGen {
                algo: "hvga".into(),
                label: "based-hv-0".into(),
                gen: 3,
                evals: 24,
                feasible: 20,
                front: 5,
                archive: 5,
                hv: Some(1.25),
            },
            Event::GaGen {
                algo: "nsga2".into(),
                label: "based-nsga2".into(),
                gen: 0,
                evals: 24,
                feasible: 24,
                front: 7,
                archive: 24,
                hv: None,
            },
            Event::DseStage {
                stage: "based".into(),
                points: 12,
            },
            Event::RedSeed {
                index: 2,
                candidates: 4,
                kept: 3,
            },
            Event::Episode {
                index: 7,
                steps: 11,
                ret: -0.5,
            },
            Event::SimStart {
                label: "csp-red".into(),
                points: 14,
                seed: u64::MAX,
            },
            Event::Decision {
                event: 1,
                cycle: 103.25,
                feasible: 4,
                from: 0,
                to: 2,
                drc: 1.5,
                score: Some(0.25),
                p_rc: Some(0.0),
                violated: false,
            },
            Event::SimEnd {
                label: "csp-red".into(),
                events: 200,
                reconfigurations: 50,
                violations: 2,
                total_drc: 123.5,
            },
            Event::Inject {
                label: "jpeg".into(),
                trials: 10_000,
                errors: 12,
                err_prob: 0.0012,
            },
            Event::Fault {
                label: "budget@0.01".into(),
                layer: "decision".into(),
                kind: "budget".into(),
                tenant: "cam0".into(),
                event: 17,
                action: "lkg".into(),
            },
            Event::DbSwap {
                label: "fleet".into(),
                tenant: "cam0".into(),
                event: 42,
                from_gen: 0,
                to_gen: 1,
                points: 128,
                status: "swapped".into(),
            },
            Event::Shadow {
                label: "fleet".into(),
                tenant: "cam0".into(),
                event: 17,
                variant: "treatment".into(),
                serving: "shadow".into(),
                live_choice: 2,
                shadow_choice: 3,
                live_regret: 0.125,
                shadow_regret: 0.0,
            },
            Event::Promote {
                label: "fleet".into(),
                tenant: "cam0".into(),
                event: 42,
                promotions: 1,
                status: "promoted".into(),
            },
            Event::Span {
                label: "based-hv-0".into(),
                clock: "gen".into(),
                start: 0.0,
                end: 12.0,
            },
            Event::Counter {
                name: "sim.events".into(),
                value: 200,
            },
            Event::Gauge {
                name: "db.points".into(),
                value: 14.0,
            },
            Event::Histogram {
                name: "sim.drc".into(),
                bounds: vec![0.0, 1.0, 10.0],
                counts: vec![5, 3, 2, 1],
                total: 11,
                min: Some(0.0),
                max: Some(25.5),
            },
            Event::Pool {
                site: "red.seeds".into(),
                items: 12,
                workers: 4,
                per_worker: vec![3, 3, 3, 3],
                queue_hwm: 12,
            },
            Event::Wall {
                label: "based".into(),
                nanos: 123_456,
            },
        ]
    }

    #[test]
    fn every_event_round_trips_to_identical_bytes() {
        for (i, e) in samples().into_iter().enumerate() {
            let line = e.to_json_line(i as u64);
            let (seq, back) = Event::from_json_line(&line).expect("parses");
            assert_eq!(seq, i as u64);
            assert_eq!(back, e, "event round trip");
            assert_eq!(back.to_json_line(seq), line, "byte round trip");
        }
    }

    #[test]
    fn deterministic_flag_separates_pool_and_wall() {
        for e in samples() {
            let det = e.is_deterministic();
            match e {
                Event::Pool { .. } | Event::Wall { .. } => assert!(!det),
                _ => assert!(det),
            }
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Event::from_json_line("not json").is_err());
        assert!(Event::from_json_line("{\"type\":\"meta\"}").is_err()); // no seq
        assert!(Event::from_json_line("{\"seq\":0,\"type\":\"nope\"}").is_err());
        assert!(
            Event::from_json_line("{\"seq\":0,\"type\":\"meta\",\"label\":\"x\"}").is_err(),
            "missing schema field"
        );
    }
}
