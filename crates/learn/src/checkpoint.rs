//! Generation-stamped learner checkpoints: the `CLRLRN1` sealed
//! container.
//!
//! Layout mirrors the snapshot containers (32-byte header: magic,
//! version u32 LE, flags u32 LE (0), payload length u64 LE, FNV-1a 64
//! checksum u64 LE, then a UTF-8 text payload). Floats are stored as
//! their IEEE-754 bit patterns in hex, so a decode → re-encode round
//! trip is **byte-identical** — the CLR092 lint's invariant.

use crate::ab::fnv1a64;
use crate::learner::{LearnerState, Table};
use crate::{LearnConfig, Variant};

/// Magic bytes opening every learner checkpoint.
pub const LEARN_MAGIC: [u8; 8] = *b"CLRLRN1\0";

/// The checkpoint format version this build reads and writes.
pub const LEARN_FORMAT_VERSION: u32 = 1;

const HEADER_LEN: usize = 32;

/// Why a learner checkpoint failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Fewer bytes than the fixed header.
    TooShort {
        /// Bytes actually present.
        len: usize,
    },
    /// The first 8 bytes are not [`LEARN_MAGIC`].
    BadMagic,
    /// The header declares a version this build does not read.
    UnsupportedVersion {
        /// Declared version.
        version: u32,
    },
    /// Reserved flag bits are set.
    BadFlags {
        /// Declared flags word.
        flags: u32,
    },
    /// The declared payload length disagrees with the bytes present.
    LengthMismatch {
        /// Length declared in the header.
        declared: u64,
        /// Payload bytes actually present.
        actual: u64,
    },
    /// The payload checksum does not match the header.
    ChecksumMismatch {
        /// Checksum declared in the header.
        declared: u64,
        /// Checksum of the bytes present.
        actual: u64,
    },
    /// A payload field is missing, malformed, or inconsistent.
    Meta(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TooShort { len } => {
                write!(
                    f,
                    "{len} bytes is shorter than the {HEADER_LEN}-byte header"
                )
            }
            Self::BadMagic => write!(f, "bad magic (not a clr learner checkpoint)"),
            Self::UnsupportedVersion { version } => write!(
                f,
                "unsupported checkpoint version {version} (this build reads {LEARN_FORMAT_VERSION})"
            ),
            Self::BadFlags { flags } => write!(f, "reserved flag bits set: {flags:#x}"),
            Self::LengthMismatch { declared, actual } => write!(
                f,
                "declared payload length {declared} but {actual} bytes present"
            ),
            Self::ChecksumMismatch { declared, actual } => write!(
                f,
                "checksum mismatch: header {declared:#018x}, payload {actual:#018x}"
            ),
            Self::Meta(m) => write!(f, "bad checkpoint payload: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn parse_hex_f64(s: &str, what: &str) -> Result<f64, CheckpointError> {
    let bits = u64::from_str_radix(s, 16)
        .map_err(|_| CheckpointError::Meta(format!("bad {what} bits {s:?}")))?;
    Ok(f64::from_bits(bits))
}

fn parse_u64(s: &str, what: &str) -> Result<u64, CheckpointError> {
    s.parse()
        .map_err(|_| CheckpointError::Meta(format!("bad {what} {s:?}")))
}

impl LearnerState {
    /// Serialises the learner into a sealed `CLRLRN1` container.
    pub fn to_bytes(&self) -> Vec<u8> {
        use std::fmt::Write as _;
        let mut p = String::new();
        let _ = writeln!(p, "tenant {}", self.tenant);
        let _ = writeln!(p, "generation {}", self.generation);
        let _ = writeln!(p, "p_rc {}", hex(self.cfg.p_rc));
        let _ = writeln!(p, "gamma {}", hex(self.cfg.gamma));
        let _ = writeln!(p, "alpha {}", hex(self.cfg.alpha));
        let _ = writeln!(p, "epsilon {}", hex(self.cfg.epsilon));
        let _ = writeln!(p, "seed {}", self.cfg.seed);
        let _ = writeln!(p, "variant {}", self.variant.label());
        let _ = writeln!(p, "serving {}", self.serving.label());
        let _ = writeln!(p, "decisions {}", self.decisions);
        let _ = writeln!(p, "explored {}", self.explored);
        let _ = writeln!(p, "prefetch_hits {}", self.prefetch_hits);
        let _ = writeln!(p, "prefetch_misses {}", self.prefetch_misses);
        let _ = writeln!(p, "prefetch_saved_drc {}", hex(self.prefetch_saved_drc));
        let _ = writeln!(p, "cum_live_regret {}", hex(self.cum_live_regret));
        let _ = writeln!(p, "cum_shadow_regret {}", hex(self.cum_shadow_regret));
        let _ = writeln!(p, "promotions {}", self.promotions);
        let _ = writeln!(p, "points {}", self.points);
        match self.prediction {
            Some(j) => {
                let _ = writeln!(p, "prediction {j}");
            }
            None => {
                let _ = writeln!(p, "prediction none");
            }
        }
        let join = |vs: &[f64]| vs.iter().map(|&v| hex(v)).collect::<Vec<_>>().join(" ");
        let _ = writeln!(p, "live {}", join(&self.live));
        let _ = writeln!(p, "shadow {}", join(&self.shadow));
        let nonzero: Vec<(usize, u64)> = self
            .transitions
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect();
        let _ = writeln!(p, "transitions {}", nonzero.len());
        for (i, c) in nonzero {
            let _ = writeln!(p, "t {} {} {c}", i / self.points, i % self.points);
        }
        let payload = p.into_bytes();
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&LEARN_MAGIC);
        out.extend_from_slice(&LEARN_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Parses and integrity-checks a `CLRLRN1` container.
    ///
    /// # Errors
    ///
    /// Returns the first failed container invariant (magic, version,
    /// flags, length, checksum), or a [`CheckpointError::Meta`] for a
    /// malformed or internally inconsistent payload — including a
    /// `variant` field that disagrees with the deterministic
    /// [`crate::assign_variant`] of the stored `(seed, tenant)`.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < HEADER_LEN {
            return Err(CheckpointError::TooShort { len: bytes.len() });
        }
        if bytes[0..8] != LEARN_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        let quad = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        let version = word(8);
        if version != LEARN_FORMAT_VERSION {
            return Err(CheckpointError::UnsupportedVersion { version });
        }
        let flags = word(12);
        if flags != 0 {
            return Err(CheckpointError::BadFlags { flags });
        }
        let payload = &bytes[HEADER_LEN..];
        let declared_len = quad(16);
        if declared_len != payload.len() as u64 {
            return Err(CheckpointError::LengthMismatch {
                declared: declared_len,
                actual: payload.len() as u64,
            });
        }
        let declared_sum = quad(24);
        let actual_sum = fnv1a64(payload);
        if declared_sum != actual_sum {
            return Err(CheckpointError::ChecksumMismatch {
                declared: declared_sum,
                actual: actual_sum,
            });
        }
        let text = std::str::from_utf8(payload)
            .map_err(|e| CheckpointError::Meta(format!("payload is not UTF-8: {e}")))?;

        let mut lines = text.lines();
        let mut field = |key: &str| -> Result<String, CheckpointError> {
            let line = lines
                .next()
                .ok_or_else(|| CheckpointError::Meta(format!("missing {key} line")))?;
            line.strip_prefix(key)
                .and_then(|rest| rest.strip_prefix(' '))
                .map(str::to_string)
                .ok_or_else(|| {
                    CheckpointError::Meta(format!("expected `{key} <value>`, got {line:?}"))
                })
        };
        let tenant = field("tenant")?;
        let generation = parse_u64(&field("generation")?, "generation")?;
        let p_rc = parse_hex_f64(&field("p_rc")?, "p_rc")?;
        let gamma = parse_hex_f64(&field("gamma")?, "gamma")?;
        let alpha = parse_hex_f64(&field("alpha")?, "alpha")?;
        let epsilon = parse_hex_f64(&field("epsilon")?, "epsilon")?;
        let seed = parse_u64(&field("seed")?, "seed")?;
        let variant = Variant::parse(&field("variant")?).map_err(CheckpointError::Meta)?;
        let serving = Table::parse(&field("serving")?).map_err(CheckpointError::Meta)?;
        let decisions = parse_u64(&field("decisions")?, "decisions")?;
        let explored = parse_u64(&field("explored")?, "explored")?;
        let prefetch_hits = parse_u64(&field("prefetch_hits")?, "prefetch_hits")?;
        let prefetch_misses = parse_u64(&field("prefetch_misses")?, "prefetch_misses")?;
        let prefetch_saved_drc =
            parse_hex_f64(&field("prefetch_saved_drc")?, "prefetch_saved_drc")?;
        let cum_live_regret = parse_hex_f64(&field("cum_live_regret")?, "cum_live_regret")?;
        let cum_shadow_regret = parse_hex_f64(&field("cum_shadow_regret")?, "cum_shadow_regret")?;
        let promotions = parse_u64(&field("promotions")?, "promotions")?;
        let index = |v: u64, key: &str| -> Result<usize, CheckpointError> {
            usize::try_from(v)
                .map_err(|_| CheckpointError::Meta(format!("{key} {v} exceeds the address space")))
        };
        let points = index(parse_u64(&field("points")?, "points")?, "points")?;
        let prediction = match field("prediction")?.as_str() {
            "none" => None,
            s => {
                let j = index(parse_u64(s, "prediction")?, "prediction")?;
                if j >= points {
                    return Err(CheckpointError::Meta(format!(
                        "prediction {j} out of range for {points} points"
                    )));
                }
                Some(j)
            }
        };
        let table = |line: String, key: &str| -> Result<Vec<f64>, CheckpointError> {
            if line.is_empty() && points == 0 {
                return Ok(Vec::new());
            }
            let vs: Result<Vec<f64>, _> = line.split(' ').map(|s| parse_hex_f64(s, key)).collect();
            let vs = vs?;
            if vs.len() != points {
                return Err(CheckpointError::Meta(format!(
                    "{key} table holds {} values for {points} points",
                    vs.len()
                )));
            }
            Ok(vs)
        };
        let live = table(field("live")?, "live")?;
        let shadow = table(field("shadow")?, "shadow")?;
        let n_trans = index(
            parse_u64(&field("transitions")?, "transitions")?,
            "transitions",
        )?;
        let mut transitions = vec![0u64; points * points];
        let mut last: Option<(usize, usize)> = None;
        for _ in 0..n_trans {
            let line = lines
                .next()
                .ok_or_else(|| CheckpointError::Meta("missing transition line".into()))?;
            let mut parts = line.split(' ');
            if parts.next() != Some("t") {
                return Err(CheckpointError::Meta(format!(
                    "expected `t <from> <to> <count>`, got {line:?}"
                )));
            }
            let from = index(
                parse_u64(parts.next().unwrap_or(""), "transition from")?,
                "transition from",
            )?;
            let to = index(
                parse_u64(parts.next().unwrap_or(""), "transition to")?,
                "transition to",
            )?;
            let count = parse_u64(parts.next().unwrap_or(""), "transition count")?;
            if parts.next().is_some() {
                return Err(CheckpointError::Meta(format!(
                    "trailing tokens in {line:?}"
                )));
            }
            if from >= points || to >= points {
                return Err(CheckpointError::Meta(format!(
                    "transition {from} → {to} out of range for {points} points"
                )));
            }
            if count == 0 {
                return Err(CheckpointError::Meta(format!(
                    "zero-count transition {from} → {to}"
                )));
            }
            if last.is_some_and(|l| l >= (from, to)) {
                return Err(CheckpointError::Meta("transitions out of order".into()));
            }
            last = Some((from, to));
            transitions[from * points + to] = count;
        }
        if lines.next().is_some() {
            return Err(CheckpointError::Meta(
                "trailing lines after transitions".into(),
            ));
        }

        let cfg = LearnConfig {
            p_rc,
            gamma,
            alpha,
            epsilon,
            seed,
        };
        cfg.validate().map_err(CheckpointError::Meta)?;
        let mut state = LearnerState::new(tenant.clone(), points, generation, cfg)
            .map_err(CheckpointError::Meta)?;
        if state.variant != variant {
            return Err(CheckpointError::Meta(format!(
                "variant {variant} disagrees with assign_variant({seed}, {tenant:?}) = {}",
                state.variant
            )));
        }
        if !(prefetch_saved_drc.is_finite()
            && cum_live_regret.is_finite()
            && cum_shadow_regret.is_finite())
        {
            return Err(CheckpointError::Meta("non-finite accumulator".into()));
        }
        state.serving = serving;
        state.prediction = prediction;
        state.live = live;
        state.shadow = shadow;
        state.transitions = transitions;
        state.rebuild_row_best();
        state.decisions = decisions;
        state.explored = explored;
        state.prefetch_hits = prefetch_hits;
        state.prefetch_misses = prefetch_misses;
        state.prefetch_saved_drc = prefetch_saved_drc;
        state.cum_live_regret = cum_live_regret;
        state.cum_shadow_regret = cum_shadow_regret;
        state.promotions = promotions;
        Ok(state)
    }
}

/// `true` when `bytes` opens with the learner-checkpoint magic (cheap
/// artifact sniffing for directory scans).
pub fn is_learn_checkpoint(bytes: &[u8]) -> bool {
    bytes.len() >= 8 && bytes[0..8] == LEARN_MAGIC
}

#[cfg(test)]
mod tests {
    use super::*;
    use clr_runtime::{Feedback, RuntimeContext, RuntimePolicy};

    fn trained() -> LearnerState {
        use clr_dse::{DesignPoint, DesignPointDb, PointOrigin};
        use clr_sched::{Mapping, SystemMetrics};
        let graph = clr_taskgraph::jpeg_encoder();
        let platform = clr_platform::Platform::dac19();
        let mapping = Mapping::first_fit(&graph, &platform).unwrap();
        let mut db = DesignPointDb::new("t");
        for i in 0..5 {
            let f = f64::from(i) / 5.0;
            db.push(DesignPoint::new(
                mapping.clone(),
                SystemMetrics {
                    makespan: 50.0 + 100.0 * f,
                    reliability: 0.6 + 0.35 * f,
                    energy: 1.0 + f,
                    peak_power: 1.0,
                    mean_mttf: 100.0,
                },
                PointOrigin::Pareto,
            ));
        }
        let ctx = RuntimeContext::new(&graph, &platform, &db);
        let mut l = LearnerState::new(
            "cam0",
            5,
            3,
            LearnConfig::new(0.5, 0.6, 0.2, 0.1, 7).unwrap(),
        )
        .unwrap();
        for (from, to) in [(0, 1), (1, 2), (2, 1), (1, 2), (2, 0)] {
            l.observe(&Feedback {
                ctx: &ctx,
                from,
                to,
            });
        }
        l
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let l = trained();
        let bytes = l.to_bytes();
        let back = LearnerState::from_bytes(&bytes).unwrap();
        assert_eq!(back, l);
        assert_eq!(back.to_bytes(), bytes, "decode → re-encode must be exact");
        assert!(is_learn_checkpoint(&bytes));
    }

    #[test]
    fn corruption_is_detected() {
        let l = trained();
        let bytes = l.to_bytes();
        assert_eq!(
            LearnerState::from_bytes(&bytes[..16]),
            Err(CheckpointError::TooShort { len: 16 })
        );
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            LearnerState::from_bytes(&bad_magic),
            Err(CheckpointError::BadMagic)
        );
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(matches!(
            LearnerState::from_bytes(&flipped),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
        let mut bad_version = bytes.clone();
        bad_version[8] = 99;
        assert_eq!(
            LearnerState::from_bytes(&bad_version),
            Err(CheckpointError::UnsupportedVersion { version: 99 })
        );
    }

    #[test]
    fn tampered_variant_is_rejected() {
        let l = trained();
        let bytes = l.to_bytes();
        let text = std::str::from_utf8(&bytes[32..]).unwrap();
        let flipped = match l.variant {
            Variant::Control => text.replace("variant control", "variant treatment"),
            Variant::Treatment => text.replace("variant treatment", "variant control"),
        };
        let mut out = Vec::new();
        out.extend_from_slice(&LEARN_MAGIC);
        out.extend_from_slice(&LEARN_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&(flipped.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a64(flipped.as_bytes()).to_le_bytes());
        out.extend_from_slice(flipped.as_bytes());
        let err = LearnerState::from_bytes(&out).unwrap_err();
        assert!(matches!(err, CheckpointError::Meta(m) if m.contains("assign_variant")));
    }
}
