//! Statistical primitives shared across the `hybrid-clr` workspace.
//!
//! The DAC'19 evaluation drives its Monte-Carlo run-time simulations with a
//! *bivariate Gaussian* distribution over the two QoS requirements and an
//! *exponential* distribution (rate 100 cycles) over the time between
//! discrete events.  This crate implements exactly those samplers — plus the
//! summary statistics and special functions the reliability models need —
//! without pulling in distribution crates beyond [`rand`].
//!
//! # Examples
//!
//! ```
//! use clr_stats::{Normal, Exponential, Summary};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let normal = Normal::new(10.0, 2.0).unwrap();
//! let exp = Exponential::new(0.01).unwrap();
//! let xs: Vec<f64> = (0..1000).map(|_| normal.sample(&mut rng)).collect();
//! let summary = Summary::from_values(xs.iter().copied());
//! assert!((summary.mean - 10.0).abs() < 0.5);
//! let _gap = exp.sample(&mut rng);
//! ```

mod approx;
mod distributions;
mod special;
mod summary;

pub use approx::{approx_eq, approx_eq_probability, approx_eq_time, EPS_PROBABILITY, EPS_TIME};
pub use distributions::{BivariateNormal, DistributionError, Exponential, Normal};
pub use special::{gamma, ln_gamma};
pub use summary::{normalize, Normalizer, Summary};

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn crate_level_smoke() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let n = Normal::new(0.0, 1.0).unwrap();
        let s = Summary::from_values((0..10_000).map(|_| n.sample(&mut rng)));
        assert!(s.mean.abs() < 0.05, "mean {}", s.mean);
        assert!((s.std_dev - 1.0).abs() < 0.05, "std {}", s.std_dev);
    }
}
