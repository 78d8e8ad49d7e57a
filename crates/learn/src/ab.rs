//! Deterministic seeded A/B assignment of tenants to policy variants.
//!
//! The assignment is a pure function of `(seed, tenant name)` — no
//! coordinator, no stored table. Any process holding the fleet seed
//! (the daemon, `clr-serve ab`, a `clr-verify learn` lint) recomputes
//! the same split, which is what makes the rollout auditable: the
//! CLR091 lint re-derives every journaled variant and flags drift.

use serde::{Deserialize, Serialize};

/// Which policy variant a tenant is assigned to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Variant {
    /// The incumbent (frozen) value table serves this tenant's decisions
    /// until an explicit `Promote`.
    Control,
    /// The online-learned candidate table serves this tenant's decisions
    /// from the first event.
    Treatment,
}

impl Variant {
    /// Stable lowercase label (journal `shadow` events, `ab` reports).
    pub fn label(self) -> &'static str {
        match self {
            Self::Control => "control",
            Self::Treatment => "treatment",
        }
    }

    /// Parses a [`Variant::label`] string.
    ///
    /// # Errors
    ///
    /// Returns the unrecognised input.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "control" => Ok(Self::Control),
            "treatment" => Ok(Self::Treatment),
            other => Err(format!("unknown variant {other:?}")),
        }
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// FNV-1a 64 over a byte string — the workspace's standard cheap stable
/// hash: tenant A/B assignment here, and the integrity checksum of
/// snapshot and wire payloads in `clr-serve`, which re-exports it. Not
/// cryptographic; it guards against truncation and bit rot.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// SplitMix64 finaliser: one full-avalanche mixing step.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Assigns a tenant to its A/B variant: a pure function of the fleet
/// seed and the tenant's name, split 50/50 by one avalanche-mixed bit.
///
/// # Examples
///
/// ```
/// use clr_learn::{assign_variant, Variant};
/// let v = assign_variant(7, "cam0");
/// assert_eq!(v, assign_variant(7, "cam0")); // stable
/// assert!(matches!(v, Variant::Control | Variant::Treatment));
/// ```
pub fn assign_variant(seed: u64, tenant: &str) -> Variant {
    if splitmix64(seed ^ fnv1a64(tenant.as_bytes())) & 1 == 0 {
        Variant::Control
    } else {
        Variant::Treatment
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_is_stable_and_seed_sensitive() {
        let a = assign_variant(1, "cam0");
        assert_eq!(a, assign_variant(1, "cam0"));
        // Across many tenants, both arms must be populated.
        let names: Vec<String> = (0..64).map(|i| format!("tenant{i}")).collect();
        let controls = names
            .iter()
            .filter(|n| assign_variant(1, n) == Variant::Control)
            .count();
        assert!(controls > 8 && controls < 56, "split is unbalanced");
        // A different seed reshuffles at least one tenant.
        assert!(names
            .iter()
            .any(|n| assign_variant(1, n) != assign_variant(2, n)));
    }

    #[test]
    fn labels_round_trip() {
        for v in [Variant::Control, Variant::Treatment] {
            assert_eq!(Variant::parse(v.label()).unwrap(), v);
        }
        assert!(Variant::parse("candidate").is_err());
    }
}
