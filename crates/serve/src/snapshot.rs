//! The versioned binary snapshot container for published design-point
//! databases.
//!
//! The design-time stage explores once and *publishes*; the serving
//! engine loads the published artifact instead of re-running DSE. A
//! snapshot is a small binary container around the existing text codec:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"CLRSNAP1"
//! 8       4     format version, u32 LE (currently 1)
//! 12      4     flags, u32 LE (reserved, must be 0)
//! 16      8     payload length in bytes, u64 LE
//! 24      8     FNV-1a 64 checksum of the payload, u64 LE
//! 32      n     payload (UTF-8 text)
//! ```
//!
//! The payload is self-describing provenance plus the database itself:
//!
//! ```text
//! graph jpeg
//! platform dac19
//! clr-design-point-db v1
//! ...
//! ```
//!
//! The `graph`/`platform` lines carry *model descriptors* (see
//! [`Snapshot::resolve`]) because replaying decisions needs the matching
//! task graph and platform to rebuild the reconfiguration-cost matrix —
//! a snapshot without them would be a database that cannot serve.
//! Integrity is checked on load (magic, version, declared length,
//! checksum) so a tampered or truncated artifact fails loudly instead of
//! serving wrong decisions; `clr-verify snapshot` re-audits the same
//! invariants plus index/codec equivalence as the CLR06x lint family.

use std::fmt;
use std::path::Path;

use clr_dse::{CodecError, DesignPointDb};
use clr_learn::fnv1a64;
use clr_platform::Platform;
use clr_taskgraph::{jpeg_encoder, TaskGraph, TgffConfig, TgffGenerator};

/// Magic bytes opening every snapshot file.
pub const MAGIC: [u8; 8] = *b"CLRSNAP1";

/// Magic bytes opening every generation-lineaged (v2) snapshot file.
pub const MAGIC2: [u8; 8] = *b"CLRSNAP2";

/// The snapshot format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;

/// The lineaged snapshot format version ([`MAGIC2`] containers).
pub const FORMAT_VERSION2: u32 = 2;

/// Size of the fixed header preceding the payload.
pub const HEADER_LEN: usize = 32;

/// Why a snapshot failed to load or resolve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Fewer bytes than the fixed header.
    TooShort {
        /// Bytes actually present.
        len: usize,
    },
    /// The first 8 bytes are not [`MAGIC`].
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
    /// The payload's provenance lines are missing or malformed.
    Meta(String),
    /// A v2 container's lineage block is malformed or inconsistent with
    /// the embedded database (stamp count, stamp hash, parent ordering).
    Lineage(String),
    /// The embedded database text failed to decode.
    Codec(CodecError),
    /// A `graph`/`platform` descriptor names no known model.
    UnknownModel(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TooShort { len } => {
                write!(
                    f,
                    "{len} bytes is shorter than the {HEADER_LEN}-byte header"
                )
            }
            Self::BadMagic => write!(f, "bad magic (not a clr snapshot)"),
            Self::UnsupportedVersion { version } => {
                write!(
                    f,
                    "unsupported format version {version} (this build reads {FORMAT_VERSION})"
                )
            }
            Self::BadFlags { flags } => write!(f, "reserved flag bits set: {flags:#x}"),
            Self::LengthMismatch { declared, actual } => {
                write!(
                    f,
                    "declared payload length {declared} but {actual} bytes present"
                )
            }
            Self::ChecksumMismatch { declared, actual } => {
                write!(
                    f,
                    "checksum mismatch: header {declared:#018x}, payload {actual:#018x}"
                )
            }
            Self::Meta(m) => write!(f, "bad snapshot metadata: {m}"),
            Self::Lineage(m) => write!(f, "bad snapshot lineage: {m}"),
            Self::Codec(e) => write!(f, "embedded database: {e}"),
            Self::UnknownModel(d) => write!(f, "unknown model descriptor {d:?}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> Self {
        Self::Codec(e)
    }
}

/// A loaded design-time artifact: the database plus the descriptors of
/// the task graph and platform it was explored for.
///
/// # Examples
///
/// ```
/// use clr_dse::DesignPointDb;
/// use clr_serve::Snapshot;
/// let snap = Snapshot::new("jpeg", "dac19", DesignPointDb::new("based"));
/// let bytes = snap.to_bytes();
/// assert_eq!(Snapshot::from_bytes(&bytes).unwrap(), snap);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    graph: String,
    platform: String,
    db: DesignPointDb,
}

impl Snapshot {
    /// Wraps a database with its model descriptors (not resolved until
    /// [`resolve`](Self::resolve) — publishing does not require the
    /// descriptors to name bundled models, serving does).
    pub fn new(graph: impl Into<String>, platform: impl Into<String>, db: DesignPointDb) -> Self {
        Self {
            graph: graph.into(),
            platform: platform.into(),
            db,
        }
    }

    /// The task-graph descriptor (e.g. `"jpeg"`, `"tgff:20:7"`).
    pub fn graph_desc(&self) -> &str {
        &self.graph
    }

    /// The platform descriptor (e.g. `"dac19"`).
    pub fn platform_desc(&self) -> &str {
        &self.platform
    }

    /// The embedded database.
    pub fn db(&self) -> &DesignPointDb {
        &self.db
    }

    /// Consumes the snapshot, returning the embedded database.
    pub fn into_db(self) -> DesignPointDb {
        self.db
    }

    /// Serialises into the binary container format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload = format!(
            "graph {}\nplatform {}\n{}",
            self.graph,
            self.platform,
            self.db.to_text()
        );
        let payload = payload.into_bytes();
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Parses and integrity-checks a binary snapshot.
    ///
    /// # Errors
    ///
    /// Returns the first failed container invariant (magic, version,
    /// flags, length, checksum), or a metadata/codec error from the
    /// payload. Model descriptors are *not* resolved here.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let text = container_payload(bytes, &MAGIC, FORMAT_VERSION)?;
        Self::from_meta_text(text)
    }

    /// Parses the `graph`/`platform`/db section of a payload (everything
    /// after the v2 lineage block, or the whole v1 payload).
    fn from_meta_text(text: &str) -> Result<Self, SnapshotError> {
        let (graph_line, rest) = text
            .split_once('\n')
            .ok_or_else(|| SnapshotError::Meta("missing graph line".into()))?;
        let graph = graph_line
            .strip_prefix("graph ")
            .ok_or_else(|| SnapshotError::Meta("expected `graph <descriptor>`".into()))?;
        let (platform_line, db_text) = rest
            .split_once('\n')
            .ok_or_else(|| SnapshotError::Meta("missing platform line".into()))?;
        let platform = platform_line
            .strip_prefix("platform ")
            .ok_or_else(|| SnapshotError::Meta("expected `platform <descriptor>`".into()))?;
        let db = DesignPointDb::from_text(db_text)?;
        Ok(Self::new(graph, platform, db))
    }

    /// Resolves the model descriptors into the bundled task graph and
    /// platform, so a [`clr_runtime::RuntimeContext`] can be built.
    ///
    /// Descriptors:
    ///
    /// - graph `jpeg` — the JPEG-encoder preset; `tgff:<tasks>:<seed>` —
    ///   the deterministic TGFF-style generator.
    /// - platform `dac19` — the paper's platform; `tiny` — the reduced
    ///   test platform.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::UnknownModel`] when a descriptor names no bundled
    /// model.
    pub fn resolve(&self) -> Result<(TaskGraph, Platform), SnapshotError> {
        Ok((
            resolve_graph(&self.graph)?,
            resolve_platform(&self.platform)?,
        ))
    }

    /// Reads and integrity-checks a snapshot file.
    ///
    /// # Errors
    ///
    /// IO errors are reported as [`SnapshotError::Meta`]; container
    /// damage as in [`Snapshot::from_bytes`].
    pub fn read_file(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)
            .map_err(|e| SnapshotError::Meta(format!("cannot read {}: {e}", path.display())))?;
        Self::from_bytes(&bytes)
    }

    /// Writes the snapshot to a file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_file(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }
}

/// Integrity-checks a snapshot container against the expected magic and
/// version, returning the UTF-8 payload.
fn container_payload<'b>(
    bytes: &'b [u8],
    magic: &[u8; 8],
    format_version: u32,
) -> Result<&'b str, SnapshotError> {
    if bytes.len() < HEADER_LEN {
        return Err(SnapshotError::TooShort { len: bytes.len() });
    }
    if &bytes[0..8] != magic {
        return Err(SnapshotError::BadMagic);
    }
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    let quad = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let version = word(8);
    if version != format_version {
        return Err(SnapshotError::UnsupportedVersion { version });
    }
    let flags = word(12);
    if flags != 0 {
        return Err(SnapshotError::BadFlags { flags });
    }
    let declared_len = quad(16);
    let payload = &bytes[HEADER_LEN..];
    if declared_len != payload.len() as u64 {
        return Err(SnapshotError::LengthMismatch {
            declared: declared_len,
            actual: payload.len() as u64,
        });
    }
    let declared_sum = quad(24);
    let actual_sum = fnv1a64(payload);
    if declared_sum != actual_sum {
        return Err(SnapshotError::ChecksumMismatch {
            declared: declared_sum,
            actual: actual_sum,
        });
    }
    std::str::from_utf8(payload)
        .map_err(|e| SnapshotError::Meta(format!("payload is not UTF-8: {e}")))
}

/// Wraps a payload in the 32-byte container header.
fn seal_container(magic: &[u8; 8], format_version: u32, payload: &str) -> Vec<u8> {
    let payload = payload.as_bytes();
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(magic);
    out.extend_from_slice(&format_version.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// The publisher id stamped onto lineage roots promoted from plain
/// CLRSNAP1 artifacts.
pub const GENESIS_PUBLISHER: &str = "genesis";

/// One stored point's content-addressed version stamp: the FNV-1a 64
/// hash of its canonical [`clr_dse::point_text`] block, and the
/// generation in which that content was introduced at its index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointStamp {
    /// FNV-1a 64 of the point's canonical text block.
    pub hash: u64,
    /// Generation that introduced this content at this index.
    pub generation: u64,
}

/// The replication metadata of a v2 (CLRSNAP2) snapshot: where the
/// artifact sits in its generation lineage and who published it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lineage {
    /// This snapshot's generation number (0 = lineage root).
    pub generation: u64,
    /// The generation this snapshot was derived from (`None` for roots).
    /// Always strictly less than [`Lineage::generation`] — the single
    /// structural fact that makes lineage cycles unrepresentable.
    pub parent: Option<u64>,
    /// Publisher id — the symmetric tiebreaker for concurrent publishes
    /// of the same generation (lexicographically smaller id wins).
    pub publisher: String,
    /// Per-point version stamps, index-aligned with the embedded
    /// database.
    pub stamps: Vec<PointStamp>,
}

/// A lineaged snapshot: the v1 [`Snapshot`] payload plus [`Lineage`]
/// replication metadata, sealed as a CLRSNAP2 container.
///
/// Decoding accepts both container generations: a plain CLRSNAP1
/// artifact is *promoted* to a lineage root (generation 0, publisher
/// [`GENESIS_PUBLISHER`], freshly computed stamps), so every snapshot
/// ever exported is a valid starting point for replication.
#[derive(Debug, Clone, PartialEq)]
pub struct LineageSnapshot {
    lineage: Lineage,
    snapshot: Snapshot,
}

impl LineageSnapshot {
    /// Wraps a snapshot as a lineage root: generation 0, no parent, all
    /// stamps introduced at generation 0.
    pub fn genesis(snapshot: Snapshot, publisher: impl Into<String>) -> Self {
        let stamps = compute_stamps(snapshot.db(), 0);
        Self {
            lineage: Lineage {
                generation: 0,
                parent: None,
                publisher: publisher.into(),
                stamps,
            },
            snapshot,
        }
    }

    /// Assembles a lineaged snapshot from explicit parts (the store's
    /// publish path). Structural lineage invariants are **not** checked
    /// here — call [`LineageSnapshot::verify`] before trusting external
    /// input.
    pub fn from_parts(lineage: Lineage, snapshot: Snapshot) -> Self {
        Self { lineage, snapshot }
    }

    /// The replication metadata.
    pub fn lineage(&self) -> &Lineage {
        &self.lineage
    }

    /// The wrapped snapshot (descriptors + database).
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// Consumes the wrapper, returning the plain snapshot.
    pub fn into_snapshot(self) -> Snapshot {
        self.snapshot
    }

    /// Checks the lineage invariants the serve path relies on before a
    /// hot swap:
    ///
    /// - the parent generation (when present) is strictly below this one,
    ///   and a generation-0 snapshot has no parent;
    /// - the publisher id is a plain name;
    /// - there is exactly one stamp per stored point;
    /// - every stamp hash matches its point's canonical text block
    ///   (content addressing holds);
    /// - no stamp claims a generation later than the snapshot's.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Lineage`] naming the first violated invariant.
    pub fn verify(&self) -> Result<(), SnapshotError> {
        let l = &self.lineage;
        if let Some(parent) = l.parent {
            if parent >= l.generation {
                return Err(SnapshotError::Lineage(format!(
                    "parent generation {parent} is not below generation {}",
                    l.generation
                )));
            }
        } else if l.generation != 0 {
            return Err(SnapshotError::Lineage(format!(
                "generation {} has no parent (only generation 0 is a root)",
                l.generation
            )));
        }
        if !crate::is_plain_name(&l.publisher) {
            return Err(SnapshotError::Lineage(format!(
                "publisher {:?} must match [A-Za-z0-9_-]+",
                l.publisher
            )));
        }
        let db = self.snapshot.db();
        if l.stamps.len() != db.len() {
            return Err(SnapshotError::Lineage(format!(
                "{} stamps for {} stored points",
                l.stamps.len(),
                db.len()
            )));
        }
        for (i, (stamp, point)) in l.stamps.iter().zip(db.iter()).enumerate() {
            let actual = fnv1a64(clr_dse::point_text(point).as_bytes());
            if stamp.hash != actual {
                return Err(SnapshotError::Lineage(format!(
                    "point {i}: stamp hash {:#018x} does not address the stored content {actual:#018x}",
                    stamp.hash
                )));
            }
            if stamp.generation > l.generation {
                return Err(SnapshotError::Lineage(format!(
                    "point {i}: stamp generation {} is ahead of snapshot generation {}",
                    stamp.generation, l.generation
                )));
            }
        }
        Ok(())
    }

    /// Serialises into the CLRSNAP2 container format.
    pub fn to_bytes(&self) -> Vec<u8> {
        use std::fmt::Write as _;
        let mut payload = String::new();
        let _ = writeln!(payload, "generation {}", self.lineage.generation);
        match self.lineage.parent {
            Some(p) => {
                let _ = writeln!(payload, "parent {p}");
            }
            None => payload.push_str("parent none\n"),
        }
        let _ = writeln!(payload, "publisher {}", self.lineage.publisher);
        let _ = writeln!(payload, "stamps {}", self.lineage.stamps.len());
        for stamp in &self.lineage.stamps {
            let _ = writeln!(payload, "{:016x} {}", stamp.hash, stamp.generation);
        }
        let _ = write!(
            payload,
            "graph {}\nplatform {}\n{}",
            self.snapshot.graph_desc(),
            self.snapshot.platform_desc(),
            self.snapshot.db().to_text()
        );
        seal_container(&MAGIC2, FORMAT_VERSION2, &payload)
    }

    /// Parses either container generation: a CLRSNAP2 artifact decodes
    /// with its recorded lineage; a CLRSNAP1 artifact is promoted to a
    /// genesis lineage root.
    ///
    /// # Errors
    ///
    /// As [`Snapshot::from_bytes`], plus [`SnapshotError::Lineage`] for a
    /// malformed v2 lineage block. Lineage *semantic* invariants are only
    /// checked by [`LineageSnapshot::verify`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() >= 8 && bytes[0..8] == MAGIC {
            return Ok(Self::genesis(
                Snapshot::from_bytes(bytes)?,
                GENESIS_PUBLISHER,
            ));
        }
        let text = container_payload(bytes, &MAGIC2, FORMAT_VERSION2)?;
        let mut lines = text.splitn(5, '\n');
        let bad = |what: &str| SnapshotError::Lineage(format!("missing or malformed {what} line"));
        let generation: u64 = lines
            .next()
            .and_then(|l| l.strip_prefix("generation "))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("generation"))?;
        let parent_raw = lines
            .next()
            .and_then(|l| l.strip_prefix("parent "))
            .ok_or_else(|| bad("parent"))?;
        let parent = match parent_raw {
            "none" => None,
            v => Some(v.parse::<u64>().map_err(|_| bad("parent"))?),
        };
        let publisher = lines
            .next()
            .and_then(|l| l.strip_prefix("publisher "))
            .ok_or_else(|| bad("publisher"))?
            .to_string();
        let count: usize = lines
            .next()
            .and_then(|l| l.strip_prefix("stamps "))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("stamps"))?;
        let mut rest = lines.next().ok_or_else(|| bad("stamps"))?;
        let mut stamps = Vec::with_capacity(count);
        for i in 0..count {
            let (line, tail) = rest
                .split_once('\n')
                .ok_or_else(|| SnapshotError::Lineage(format!("truncated stamp list at {i}")))?;
            let (hash, generation) = line
                .split_once(' ')
                .ok_or_else(|| SnapshotError::Lineage(format!("malformed stamp {i}: {line:?}")))?;
            let hash = u64::from_str_radix(hash, 16)
                .map_err(|_| SnapshotError::Lineage(format!("bad stamp hash {hash:?}")))?;
            let generation: u64 = generation.parse().map_err(|_| {
                SnapshotError::Lineage(format!("bad stamp generation {generation:?}"))
            })?;
            stamps.push(PointStamp { hash, generation });
            rest = tail;
        }
        let snapshot = Snapshot::from_meta_text(rest)?;
        Ok(Self {
            lineage: Lineage {
                generation,
                parent,
                publisher,
                stamps,
            },
            snapshot,
        })
    }

    /// Reads and integrity-checks a snapshot file of either container
    /// generation.
    ///
    /// # Errors
    ///
    /// IO errors as [`SnapshotError::Meta`]; container damage as in
    /// [`LineageSnapshot::from_bytes`].
    pub fn read_file(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)
            .map_err(|e| SnapshotError::Meta(format!("cannot read {}: {e}", path.display())))?;
        Self::from_bytes(&bytes)
    }

    /// Writes the CLRSNAP2 container to a file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_file(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }
}

/// Freshly stamps every point of `db` as introduced at `generation`.
pub fn compute_stamps(db: &DesignPointDb, generation: u64) -> Vec<PointStamp> {
    db.iter()
        .map(|p| PointStamp {
            hash: fnv1a64(clr_dse::point_text(p).as_bytes()),
            generation,
        })
        .collect()
}

/// Resolves a task-graph descriptor (see [`Snapshot::resolve`]).
pub fn resolve_graph(desc: &str) -> Result<TaskGraph, SnapshotError> {
    if desc == "jpeg" {
        return Ok(jpeg_encoder());
    }
    if let Some(rest) = desc.strip_prefix("tgff:") {
        if let Some((tasks, seed)) = rest.split_once(':') {
            if let (Ok(tasks), Ok(seed)) = (tasks.parse::<usize>(), seed.parse::<u64>()) {
                if tasks > 0 {
                    return Ok(TgffGenerator::new(TgffConfig::with_tasks(tasks)).generate(seed));
                }
            }
        }
    }
    Err(SnapshotError::UnknownModel(desc.to_string()))
}

/// Resolves a platform descriptor (see [`Snapshot::resolve`]).
pub fn resolve_platform(desc: &str) -> Result<Platform, SnapshotError> {
    match desc {
        "dac19" => Ok(Platform::dac19()),
        "tiny" => Ok(Platform::tiny()),
        other => Err(SnapshotError::UnknownModel(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clr_dse::{DesignPoint, PointOrigin};
    use clr_sched::{Mapping, SystemMetrics};

    fn sample_db() -> DesignPointDb {
        let mut db = DesignPointDb::new("based");
        for (m, r) in [(10.0, 0.99), (20.0, 0.95), (50.0, 0.80)] {
            db.push(DesignPoint::new(
                Mapping::new(vec![]),
                SystemMetrics {
                    makespan: m,
                    reliability: r,
                    energy: m / 2.0,
                    peak_power: 1.0,
                    mean_mttf: 1e6,
                },
                PointOrigin::Pareto,
            ));
        }
        db
    }

    #[test]
    fn round_trip_is_identity() {
        let snap = Snapshot::new("jpeg", "dac19", sample_db());
        let decoded = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(decoded, snap);
        // Canonical artifacts re-encode byte-identically.
        assert_eq!(decoded.to_bytes(), snap.to_bytes());
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = Snapshot::new("jpeg", "dac19", sample_db()).to_bytes();
        assert_eq!(
            Snapshot::from_bytes(&bytes[..10]),
            Err(SnapshotError::TooShort { len: 10 })
        );
        assert!(matches!(
            Snapshot::from_bytes(&bytes[..bytes.len() - 1]),
            Err(SnapshotError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut bytes = Snapshot::new("jpeg", "dac19", sample_db()).to_bytes();
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert_eq!(Snapshot::from_bytes(&wrong), Err(SnapshotError::BadMagic));
        bytes[8] = 9; // version 9
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion { version: 9 })
        ));
    }

    #[test]
    fn payload_corruption_fails_the_checksum() {
        let mut bytes = Snapshot::new("jpeg", "dac19", sample_db()).to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn reserved_flags_are_rejected() {
        let mut bytes = Snapshot::new("jpeg", "dac19", sample_db()).to_bytes();
        bytes[12] = 1;
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::BadFlags { flags: 1 })
        ));
    }

    #[test]
    fn descriptors_resolve_to_models() {
        let (graph, platform) = Snapshot::new("jpeg", "dac19", sample_db())
            .resolve()
            .unwrap();
        assert!(graph.num_tasks() > 0);
        assert!(platform.num_pes() > 0);
        let (g2, _) = Snapshot::new("tgff:12:7", "tiny", sample_db())
            .resolve()
            .unwrap();
        assert_eq!(g2.num_tasks(), 12);
        // Deterministic: the same descriptor resolves to the same graph.
        let (g3, _) = Snapshot::new("tgff:12:7", "tiny", sample_db())
            .resolve()
            .unwrap();
        assert_eq!(g2, g3);
    }

    #[test]
    fn unknown_descriptors_are_reported() {
        assert!(matches!(
            Snapshot::new("mystery", "dac19", sample_db()).resolve(),
            Err(SnapshotError::UnknownModel(_))
        ));
        assert!(matches!(
            Snapshot::new("jpeg", "mega", sample_db()).resolve(),
            Err(SnapshotError::UnknownModel(_))
        ));
        assert!(resolve_graph("tgff:0:1").is_err(), "zero tasks");
        assert!(resolve_graph("tgff:abc:1").is_err());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("clr-serve-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.snap");
        let snap = Snapshot::new("jpeg", "dac19", sample_db());
        snap.write_file(&path).unwrap();
        assert_eq!(Snapshot::read_file(&path).unwrap(), snap);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v2_round_trip_is_identity() {
        let snap = LineageSnapshot::genesis(Snapshot::new("jpeg", "dac19", sample_db()), "node-a");
        let bytes = snap.to_bytes();
        let decoded = LineageSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, snap);
        assert_eq!(decoded.to_bytes(), bytes, "canonical re-encode");
        decoded.verify().unwrap();
    }

    #[test]
    fn v1_artifacts_promote_to_genesis_roots() {
        let v1 = Snapshot::new("jpeg", "dac19", sample_db());
        let promoted = LineageSnapshot::from_bytes(&v1.to_bytes()).unwrap();
        assert_eq!(promoted.lineage().generation, 0);
        assert_eq!(promoted.lineage().parent, None);
        assert_eq!(promoted.lineage().publisher, GENESIS_PUBLISHER);
        assert_eq!(promoted.lineage().stamps.len(), v1.db().len());
        assert_eq!(promoted.snapshot(), &v1);
        promoted.verify().unwrap();
        // Promotion re-seals as v2, and that form round-trips exactly.
        let reencoded = LineageSnapshot::from_bytes(&promoted.to_bytes()).unwrap();
        assert_eq!(reencoded, promoted);
    }

    #[test]
    fn lineage_verify_rejects_broken_invariants() {
        let base = LineageSnapshot::genesis(Snapshot::new("jpeg", "dac19", sample_db()), "node-a");
        // Non-root without a parent.
        let mut orphan = base.clone();
        orphan.lineage.generation = 3;
        assert!(matches!(orphan.verify(), Err(SnapshotError::Lineage(_))));
        // Parent at or above its own generation.
        let mut looped = base.clone();
        looped.lineage.generation = 2;
        looped.lineage.parent = Some(2);
        assert!(matches!(looped.verify(), Err(SnapshotError::Lineage(_))));
        // A stamp that no longer addresses its content.
        let mut tampered = base.clone();
        tampered.lineage.stamps[0].hash ^= 1;
        assert!(matches!(tampered.verify(), Err(SnapshotError::Lineage(_))));
        // A stamp from the future.
        let mut future = base.clone();
        future.lineage.stamps[0].generation = 9;
        assert!(matches!(future.verify(), Err(SnapshotError::Lineage(_))));
        // A publisher that is not a plain name.
        let mut spacey = base;
        spacey.lineage.publisher = "a b".into();
        assert!(matches!(spacey.verify(), Err(SnapshotError::Lineage(_))));
    }

    #[test]
    fn v2_payload_corruption_fails_the_checksum() {
        let mut bytes =
            LineageSnapshot::genesis(Snapshot::new("jpeg", "dac19", sample_db()), "n").to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            LineageSnapshot::from_bytes(&bytes),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn fnv_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
