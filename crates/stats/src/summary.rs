//! Summary statistics and normalisation helpers.
//!
//! The run-time adaptation policy (Algorithm 1 in the paper) scores candidate
//! design points with *normalised* performance and reconfiguration-cost
//! values; [`Normalizer`] provides that min–max normalisation, and
//! [`Summary`] aggregates Monte-Carlo traces into the averages the paper's
//! tables report.

use serde::{Deserialize, Serialize};

/// Aggregate statistics over a sequence of `f64` observations.
///
/// # Examples
///
/// ```
/// use clr_stats::Summary;
/// let s = Summary::from_values([1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(s.count, 4);
/// assert_eq!(s.mean, 2.5);
/// assert_eq!(s.min, 1.0);
/// assert_eq!(s.max, 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean (0 for an empty sequence).
    pub mean: f64,
    /// Sample standard deviation (0 for fewer than two observations).
    pub std_dev: f64,
    /// Minimum observation (+inf for an empty sequence).
    pub min: f64,
    /// Maximum observation (−inf for an empty sequence).
    pub max: f64,
    /// Sum of all observations.
    pub sum: f64,
}

impl Summary {
    /// Computes summary statistics over an iterator of observations.
    pub fn from_values<I: IntoIterator<Item = f64>>(values: I) -> Self {
        let mut count = 0usize;
        let mut mean = 0.0f64;
        let mut m2 = 0.0f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0f64;
        for v in values {
            count += 1;
            sum += v;
            let delta = v - mean;
            mean += delta / count as f64;
            m2 += delta * (v - mean);
            if v < min {
                min = v;
            }
            if v > max {
                max = v;
            }
        }
        let std_dev = if count > 1 {
            (m2 / (count as f64 - 1.0)).sqrt()
        } else {
            0.0
        };
        Self {
            count,
            mean: if count == 0 { 0.0 } else { mean },
            std_dev,
            min,
            max,
            sum,
        }
    }

    /// `true` if no observations were aggregated.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

impl Default for Summary {
    fn default() -> Self {
        Self::from_iter(std::iter::empty())
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Summary::from_values(iter)
    }
}

/// Min–max normaliser mapping an observed range onto `[0, 1]`.
///
/// Degenerate ranges (`max == min`) normalise to `0.0` so that a set of
/// identical candidates score identically rather than dividing by zero.
///
/// # Examples
///
/// ```
/// use clr_stats::Normalizer;
/// let n = Normalizer::from_values([10.0, 20.0, 30.0]).unwrap();
/// assert_eq!(n.normalize(10.0), 0.0);
/// assert_eq!(n.normalize(30.0), 1.0);
/// assert_eq!(n.normalize(20.0), 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Normalizer {
    min: f64,
    max: f64,
}

impl Normalizer {
    /// Creates a normaliser for the closed range `[min, max]`.
    ///
    /// # Errors
    ///
    /// Returns `None` if `min > max` or either bound is non-finite.
    pub fn new(min: f64, max: f64) -> Option<Self> {
        if !min.is_finite() || !max.is_finite() || min > max {
            return None;
        }
        Some(Self { min, max })
    }

    /// Builds a normaliser from the observed range of an iterator.
    ///
    /// Returns `None` if the iterator is empty or contains non-finite values.
    pub fn from_values<I: IntoIterator<Item = f64>>(values: I) -> Option<Self> {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut any = false;
        for v in values {
            if !v.is_finite() {
                return None;
            }
            any = true;
            if v < min {
                min = v;
            }
            if v > max {
                max = v;
            }
        }
        if any {
            Self::new(min, max)
        } else {
            None
        }
    }

    /// The lower bound of the normalised range.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// The upper bound of the normalised range.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Maps `value` onto `[0, 1]`, clamping values outside the range.
    #[inline]
    pub fn normalize(&self, value: f64) -> f64 {
        normalize(value, self.min, self.max)
    }
}

/// Min–max normalisation of `value` from `[min, max]` onto `[0, 1]`,
/// clamping out-of-range inputs and mapping degenerate ranges to `0.0`.
///
/// # Examples
///
/// ```
/// assert_eq!(clr_stats::normalize(5.0, 0.0, 10.0), 0.5);
/// assert_eq!(clr_stats::normalize(-1.0, 0.0, 10.0), 0.0);
/// assert_eq!(clr_stats::normalize(3.0, 3.0, 3.0), 0.0);
/// ```
#[inline]
pub fn normalize(value: f64, min: f64, max: f64) -> f64 {
    if max <= min {
        return 0.0;
    }
    ((value - min) / (max - min)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn summary_empty_is_sane() {
        let s = Summary::default();
        assert!(s.is_empty());
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.sum, 0.0);
    }

    #[test]
    fn summary_single_value() {
        let s = Summary::from_values([7.5]);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 7.5);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, 7.5);
        assert_eq!(s.max, 7.5);
    }

    #[test]
    fn summary_known_std() {
        let s = Summary::from_values([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample std-dev of this classic data set is sqrt(32/7).
        assert!((s.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_collects_from_iterator() {
        let s: Summary = vec![1.0, 3.0].into_iter().collect();
        assert_eq!(s.mean, 2.0);
    }

    #[test]
    fn normalizer_rejects_bad_ranges() {
        assert!(Normalizer::new(2.0, 1.0).is_none());
        assert!(Normalizer::new(f64::NAN, 1.0).is_none());
        assert!(Normalizer::from_values(std::iter::empty()).is_none());
        assert!(Normalizer::from_values([1.0, f64::INFINITY]).is_none());
    }

    #[test]
    fn normalizer_degenerate_range_is_zero() {
        let n = Normalizer::new(4.0, 4.0).unwrap();
        assert_eq!(n.normalize(4.0), 0.0);
        assert_eq!(n.normalize(100.0), 0.0);
    }

    proptest! {
        #[test]
        fn normalize_is_in_unit_interval(v in -1e9f64..1e9, a in -1e6f64..1e6, w in 0.0f64..1e6) {
            let x = normalize(v, a, a + w);
            prop_assert!((0.0..=1.0).contains(&x));
        }

        #[test]
        fn normalize_is_monotone(a in -1e6f64..1e6, w in 1e-6f64..1e6, t1 in 0.0f64..1.0, t2 in 0.0f64..1.0) {
            let (lo, hi) = (t1.min(t2), t1.max(t2));
            let v1 = a + lo * w;
            let v2 = a + hi * w;
            prop_assert!(normalize(v1, a, a + w) <= normalize(v2, a, a + w) + 1e-12);
        }

        #[test]
        fn summary_mean_within_bounds(values in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let s = Summary::from_values(values.iter().copied());
            prop_assert!(s.min <= s.mean + 1e-9);
            prop_assert!(s.mean <= s.max + 1e-9);
            prop_assert_eq!(s.count, values.len());
        }
    }
}
