//! Per-task CLR configurations and configuration spaces.
//!
//! Paper §4.1: the set of all possible cross-layer reliability
//! configurations for a task is the Cartesian product
//! `C_t = HWRel_t × SSWRel_t × ASWRel_t`. [`ConfigSpace`] enumerates such a
//! product; the preset granularities (`hw_only`, `coarse`, `fine`)
//! correspond to the *HW-Only*, *CLR1* and *CLR2* systems of Fig. 1.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::{AswMethod, HwMethod, SswMethod};

/// One cross-layer reliability configuration: a method per layer.
///
/// # Examples
///
/// ```
/// use clr_reliability::{AswMethod, ClrConfig, HwMethod, SswMethod};
/// let cfg = ClrConfig::new(
///     HwMethod::PartialTmr,
///     SswMethod::Retry { max_retries: 2 },
///     AswMethod::Checksum,
/// );
/// assert_ne!(cfg, ClrConfig::NONE);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct ClrConfig {
    /// Hardware-layer method.
    pub hw: HwMethod,
    /// System-software-layer method.
    pub ssw: SswMethod,
    /// Application-software-layer method.
    pub asw: AswMethod,
}

impl ClrConfig {
    /// The all-`None` configuration (no fault mitigation anywhere).
    pub const NONE: ClrConfig = ClrConfig {
        hw: HwMethod::None,
        ssw: SswMethod::None,
        asw: AswMethod::None,
    };

    /// Creates a configuration from one method per layer.
    pub fn new(hw: HwMethod, ssw: SswMethod, asw: AswMethod) -> Self {
        Self { hw, ssw, asw }
    }

    /// `true` if no layer applies any mitigation.
    pub fn is_none(&self) -> bool {
        *self == Self::NONE
    }

    /// Dense index of this configuration in the method catalogue
    /// `HwMethod::ALL × SswMethod::COMMON × AswMethod::ALL`, in the order
    /// [`ConfigSpace::fine`] enumerates it (so `fine().get(i)` has index
    /// `i`); `None` for a system-software method off the catalogue, such
    /// as `Retry { max_retries: 3 }`.
    ///
    /// # Examples
    ///
    /// ```
    /// use clr_reliability::{AswMethod, ClrConfig, ConfigSpace, HwMethod, SswMethod};
    /// let fine = ConfigSpace::fine();
    /// assert_eq!(fine.get(7).and_then(ClrConfig::catalogue_index), Some(7));
    /// let off = ClrConfig::new(HwMethod::None, SswMethod::Retry { max_retries: 3 }, AswMethod::None);
    /// assert_eq!(off.catalogue_index(), None);
    /// ```
    pub fn catalogue_index(&self) -> Option<usize> {
        let hw = match self.hw {
            HwMethod::None => 0,
            HwMethod::Hardening => 1,
            HwMethod::PartialTmr => 2,
            HwMethod::FullTmr => 3,
        };
        let ssw = match self.ssw {
            SswMethod::None => 0,
            SswMethod::Retry { max_retries: 1 } => 1,
            SswMethod::Retry { max_retries: 2 } => 2,
            SswMethod::Checkpoint { intervals: 2 } => 3,
            SswMethod::Checkpoint { intervals: 4 } => 4,
            _ => return None,
        };
        let asw = match self.asw {
            AswMethod::None => 0,
            AswMethod::Checksum => 1,
            AswMethod::HammingCorrection => 2,
            AswMethod::CodeTripling => 3,
        };
        Some((hw * SswMethod::COMMON.len() + ssw) * AswMethod::ALL.len() + asw)
    }
}

impl fmt::Display for ClrConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}+{}+{}", self.hw, self.ssw, self.asw)
    }
}

/// An enumerable space of CLR configurations shared by all tasks.
///
/// # Examples
///
/// ```
/// use clr_reliability::ConfigSpace;
/// assert!(ConfigSpace::fine().len() > ConfigSpace::coarse().len());
/// assert!(ConfigSpace::coarse().len() > ConfigSpace::hw_only().len());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigSpace {
    name: String,
    configs: Vec<ClrConfig>,
}

impl ConfigSpace {
    /// Builds a space as the Cartesian product of the given per-layer
    /// method lists (duplicates removed, order preserved).
    pub fn product(
        name: impl Into<String>,
        hw: &[HwMethod],
        ssw: &[SswMethod],
        asw: &[AswMethod],
    ) -> Self {
        let mut configs = Vec::with_capacity(hw.len() * ssw.len() * asw.len());
        for &h in hw {
            for &s in ssw {
                for &a in asw {
                    let cfg = ClrConfig::new(h, s, a);
                    if !configs.contains(&cfg) {
                        configs.push(cfg);
                    }
                }
            }
        }
        Self {
            name: name.into(),
            configs,
        }
    }

    /// Hardware-only mitigation (the *HW-Only* system of Fig. 1): the
    /// traditional single-layer approach.
    pub fn hw_only() -> Self {
        Self::product(
            "hw-only",
            &HwMethod::ALL,
            &[SswMethod::None],
            &[AswMethod::None],
        )
    }

    /// Coarse cross-layer space (*CLR1*): two options per layer.
    pub fn coarse() -> Self {
        Self::product(
            "clr1",
            &[HwMethod::None, HwMethod::FullTmr],
            &[SswMethod::None, SswMethod::Retry { max_retries: 2 }],
            &[AswMethod::None, AswMethod::Checksum],
        )
    }

    /// Fine cross-layer space (*CLR2*): the full method catalogue; finer
    /// granularity yields more Pareto design points for run-time
    /// adaptation.
    pub fn fine() -> Self {
        Self::product("clr2", &HwMethod::ALL, &SswMethod::COMMON, &AswMethod::ALL)
    }

    /// Space name (e.g. `"clr2"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The configurations in this space.
    pub fn configs(&self) -> &[ClrConfig] {
        &self.configs
    }

    /// Number of configurations.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// `true` if the space is empty.
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// Looks up a configuration by dense index (chromosome gene value).
    pub fn get(&self, index: usize) -> Option<&ClrConfig> {
        self.configs.get(index)
    }
}

impl<'a> IntoIterator for &'a ConfigSpace {
    type Item = &'a ClrConfig;
    type IntoIter = std::slice::Iter<'a, ClrConfig>;

    fn into_iter(self) -> Self::IntoIter {
        self.configs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn product_removes_duplicates() {
        let s = ConfigSpace::product(
            "dup",
            &[HwMethod::None, HwMethod::None],
            &[SswMethod::None],
            &[AswMethod::None],
        );
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn presets_have_expected_sizes() {
        assert_eq!(ConfigSpace::hw_only().len(), 4);
        assert_eq!(ConfigSpace::coarse().len(), 8);
        assert_eq!(
            ConfigSpace::fine().len(),
            HwMethod::ALL.len() * SswMethod::COMMON.len() * AswMethod::ALL.len()
        );
    }

    #[test]
    fn spaces_contain_the_none_config() {
        for s in [
            ConfigSpace::hw_only(),
            ConfigSpace::coarse(),
            ConfigSpace::fine(),
        ] {
            assert!(s.configs().contains(&ClrConfig::NONE), "{}", s.name());
        }
    }

    #[test]
    fn get_by_index_matches_order() {
        let s = ConfigSpace::fine();
        assert_eq!(s.get(0), Some(&s.configs()[0]));
        assert_eq!(s.get(s.len()), None);
    }

    #[test]
    fn display_mentions_all_layers() {
        let text = ClrConfig::new(
            HwMethod::FullTmr,
            SswMethod::Retry { max_retries: 1 },
            AswMethod::Checksum,
        )
        .to_string();
        assert!(text.contains("hw:tmr") && text.contains("retry1") && text.contains("cksum"));
    }

    #[test]
    fn iteration_visits_every_config() {
        let s = ConfigSpace::coarse();
        assert_eq!((&s).into_iter().count(), s.len());
    }
}
