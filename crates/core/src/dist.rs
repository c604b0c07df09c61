//! Parametric and empirical probability distributions for service and
//! inter-arrival times.
//!
//! All distributions sample **durations in seconds** as `f64`; callers
//! convert to [`crate::time::SimDuration`] at the point of use. The enum is
//! closed (not a trait) so scenario files can describe distributions
//! declaratively and so samples stay allocation-free on the hot path.

use crate::histogram::Histogram;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A distribution over non-negative durations, in seconds.
///
/// # Examples
///
/// ```
/// use uqsim_core::dist::Distribution;
/// use uqsim_core::rng::RngFactory;
///
/// let d = Distribution::exponential(1e-3);
/// let mut rng = RngFactory::new(1).stream("doc", 0);
/// let x = d.sample(&mut rng);
/// assert!(x >= 0.0);
/// assert!((d.mean() - 1e-3).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum Distribution {
    /// Always the same value.
    Constant {
        /// The value, seconds.
        value: f64,
    },
    /// Exponential with the given mean (i.e. rate `1/mean`).
    Exponential {
        /// Mean, seconds.
        mean: f64,
    },
    /// Uniform on `[low, high]`.
    Uniform {
        /// Lower bound, seconds.
        low: f64,
        /// Upper bound, seconds.
        high: f64,
    },
    /// Log-normal with the given location/scale of the underlying normal.
    LogNormal {
        /// Mean of the underlying normal (of ln x).
        mu: f64,
        /// Standard deviation of the underlying normal.
        sigma: f64,
    },
    /// Pareto (heavy-tailed) with scale `x_min` and shape `alpha`.
    Pareto {
        /// Minimum value, seconds.
        x_min: f64,
        /// Tail index; must be > 1 for a finite mean.
        alpha: f64,
    },
    /// Empirical histogram, typically collected by profiling (Table I).
    Empirical {
        /// The histogram.
        histogram: Histogram,
    },
    /// A deterministic offset plus another distribution; convenient for
    /// "fixed cost + variable cost" stage models.
    Shifted {
        /// Constant offset, seconds.
        offset: f64,
        /// The variable part.
        inner: Box<Distribution>,
    },
    /// Mixture of distributions with the given weights.
    Mixture {
        /// `(weight, distribution)` components; weights must sum to 1.
        components: Vec<(f64, Distribution)>,
    },
}

impl Distribution {
    /// A constant (deterministic) duration.
    pub fn constant(value: f64) -> Self {
        Distribution::Constant { value }
    }

    /// An exponential distribution with the given mean.
    pub fn exponential(mean: f64) -> Self {
        Distribution::Exponential { mean }
    }

    /// A uniform distribution on `[low, high]`.
    pub fn uniform(low: f64, high: f64) -> Self {
        Distribution::Uniform { low, high }
    }

    /// A log-normal distribution parameterized by its own mean and the
    /// coefficient of variation `cv` (sigma of ln x derived from cv).
    pub fn lognormal_mean_cv(mean: f64, cv: f64) -> Self {
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        Distribution::LogNormal {
            mu,
            sigma: sigma2.sqrt(),
        }
    }

    /// Validates parameters; call when accepting untrusted configuration.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first invalid parameter found.
    pub fn validate(&self) -> Result<(), String> {
        fn pos(name: &str, v: f64) -> Result<(), String> {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(format!("{name} must be positive and finite, got {v}"))
            }
        }
        match self {
            Distribution::Constant { value } => {
                if value.is_finite() && *value >= 0.0 {
                    Ok(())
                } else {
                    Err(format!("constant value must be non-negative, got {value}"))
                }
            }
            Distribution::Exponential { mean } => pos("mean", *mean),
            Distribution::Uniform { low, high } => {
                if low.is_finite() && *low >= 0.0 && high.is_finite() && high > low {
                    Ok(())
                } else {
                    Err(format!("uniform bounds invalid: [{low}, {high}]"))
                }
            }
            Distribution::LogNormal { mu, sigma } => {
                if mu.is_finite() && sigma.is_finite() && *sigma >= 0.0 {
                    Ok(())
                } else {
                    Err(format!("lognormal params invalid: mu={mu} sigma={sigma}"))
                }
            }
            Distribution::Pareto { x_min, alpha } => {
                pos("x_min", *x_min)?;
                if alpha.is_finite() && *alpha > 1.0 {
                    Ok(())
                } else {
                    Err(format!("pareto alpha must be > 1, got {alpha}"))
                }
            }
            Distribution::Empirical { .. } => Ok(()),
            Distribution::Shifted { offset, inner } => {
                if !offset.is_finite() || *offset < 0.0 {
                    return Err(format!("shift offset must be non-negative, got {offset}"));
                }
                inner.validate()
            }
            Distribution::Mixture { components } => {
                if components.is_empty() {
                    return Err("mixture has no components".into());
                }
                let total: f64 = components.iter().map(|(w, _)| *w).sum();
                if (total - 1.0).abs() > 1e-6 {
                    return Err(format!("mixture weights sum to {total}, expected 1"));
                }
                for (w, d) in components {
                    if !w.is_finite() || *w < 0.0 {
                        return Err(format!("mixture weight {w} invalid"));
                    }
                    d.validate()?;
                }
                Ok(())
            }
        }
    }

    /// Draws one duration (seconds).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match self {
            Distribution::Constant { value } => *value,
            Distribution::Exponential { mean } => crate::rng::sample_exponential(rng, *mean),
            Distribution::Uniform { low, high } => low + (high - low) * rng.gen::<f64>(),
            Distribution::LogNormal { mu, sigma } => {
                let z = sample_standard_normal(rng);
                (mu + sigma * z).exp()
            }
            Distribution::Pareto { x_min, alpha } => {
                let u: f64 = 1.0 - rng.gen::<f64>();
                x_min / u.powf(1.0 / alpha)
            }
            Distribution::Empirical { histogram } => histogram.sample(rng),
            Distribution::Shifted { offset, inner } => offset + inner.sample(rng),
            Distribution::Mixture { components } => {
                let mut u: f64 = rng.gen();
                for (w, d) in components {
                    if u < *w {
                        return d.sample(rng);
                    }
                    u -= w;
                }
                components
                    .last()
                    .expect("mixture validated non-empty")
                    .1
                    .sample(rng)
            }
        }
    }

    /// The analytic mean, seconds.
    pub fn mean(&self) -> f64 {
        match self {
            Distribution::Constant { value } => *value,
            Distribution::Exponential { mean } => *mean,
            Distribution::Uniform { low, high } => (low + high) / 2.0,
            Distribution::LogNormal { mu, sigma } => (mu + sigma * sigma / 2.0).exp(),
            Distribution::Pareto { x_min, alpha } => alpha * x_min / (alpha - 1.0),
            Distribution::Empirical { histogram } => histogram.mean(),
            Distribution::Shifted { offset, inner } => offset + inner.mean(),
            Distribution::Mixture { components } => {
                components.iter().map(|(w, d)| w * d.mean()).sum()
            }
        }
    }

    /// The greatest lower bound of the distribution's support, seconds: no
    /// sample can be smaller. For a wire-latency distribution this is the
    /// minimum simulated delay any cross-machine hop must pay — the
    /// lookahead a conservative cross-cell link would use (DESIGN.md §11,
    /// appendix) — so it must be a true infimum, never an estimate.
    ///
    /// # Examples
    ///
    /// ```
    /// use uqsim_core::dist::Distribution;
    ///
    /// assert_eq!(Distribution::constant(2e-5).lower_bound(), 2e-5);
    /// assert_eq!(Distribution::exponential(1e-3).lower_bound(), 0.0);
    /// assert_eq!(Distribution::uniform(1e-6, 3e-6).lower_bound(), 1e-6);
    /// let shifted = Distribution::Shifted {
    ///     offset: 5e-6,
    ///     inner: Box::new(Distribution::exponential(1e-4)),
    /// };
    /// assert_eq!(shifted.lower_bound(), 5e-6);
    /// ```
    pub fn lower_bound(&self) -> f64 {
        match self {
            Distribution::Constant { value } => *value,
            // The inverse-CDF samplers can return values arbitrarily close
            // to zero (u → 1 gives -mean·ln(u) → 0), so the only safe
            // bound is zero.
            Distribution::Exponential { .. } => 0.0,
            Distribution::Uniform { low, .. } => *low,
            // exp(mu + sigma·z) with unbounded-below z: infimum zero.
            Distribution::LogNormal { sigma, mu } => {
                if *sigma == 0.0 {
                    mu.exp()
                } else {
                    0.0
                }
            }
            Distribution::Pareto { x_min, .. } => *x_min,
            Distribution::Empirical { histogram } => histogram.min_value(),
            Distribution::Shifted { offset, inner } => offset + inner.lower_bound(),
            Distribution::Mixture { components } => components
                .iter()
                .map(|(_, d)| d.lower_bound())
                .fold(f64::INFINITY, f64::min),
        }
    }

    /// Returns a copy with all durations multiplied by `factor` (frequency
    /// scaling). Parametric forms scale analytically; empirical histograms
    /// scale their bounds.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite.
    pub fn scaled(&self, factor: f64) -> Distribution {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive"
        );
        match self {
            Distribution::Constant { value } => Distribution::Constant {
                value: value * factor,
            },
            Distribution::Exponential { mean } => Distribution::Exponential {
                mean: mean * factor,
            },
            Distribution::Uniform { low, high } => Distribution::Uniform {
                low: low * factor,
                high: high * factor,
            },
            Distribution::LogNormal { mu, sigma } => Distribution::LogNormal {
                mu: mu + factor.ln(),
                sigma: *sigma,
            },
            Distribution::Pareto { x_min, alpha } => Distribution::Pareto {
                x_min: x_min * factor,
                alpha: *alpha,
            },
            Distribution::Empirical { histogram } => Distribution::Empirical {
                histogram: histogram.scaled(factor),
            },
            Distribution::Shifted { offset, inner } => Distribution::Shifted {
                offset: offset * factor,
                inner: Box::new(inner.scaled(factor)),
            },
            Distribution::Mixture { components } => Distribution::Mixture {
                components: components
                    .iter()
                    .map(|(w, d)| (*w, d.scaled(factor)))
                    .collect(),
            },
        }
    }
}

/// Box–Muller standard normal.
fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngFactory;

    fn rng() -> rand::rngs::SmallRng {
        RngFactory::new(77).stream("dist", 0)
    }

    fn sample_mean(d: &Distribution, n: usize) -> f64 {
        let mut r = rng();
        (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_is_constant() {
        let d = Distribution::constant(5e-6);
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(d.sample(&mut r), 5e-6);
        }
    }

    #[test]
    fn means_match_sampling() {
        let cases = vec![
            Distribution::exponential(1e-3),
            Distribution::uniform(1e-6, 3e-6),
            Distribution::lognormal_mean_cv(2e-4, 0.5),
            Distribution::Pareto {
                x_min: 1e-4,
                alpha: 3.0,
            },
            Distribution::Shifted {
                offset: 1e-5,
                inner: Box::new(Distribution::exponential(1e-5)),
            },
            Distribution::Mixture {
                components: vec![
                    (0.3, Distribution::constant(1e-5)),
                    (0.7, Distribution::exponential(1e-4)),
                ],
            },
        ];
        for d in cases {
            let m = sample_mean(&d, 300_000);
            let a = d.mean();
            assert!(
                (m - a).abs() / a < 0.05,
                "distribution {d:?}: sample mean {m} vs analytic {a}"
            );
        }
    }

    #[test]
    fn scaled_scales_mean() {
        let cases = vec![
            Distribution::constant(1e-5),
            Distribution::exponential(1e-3),
            Distribution::uniform(1e-6, 3e-6),
            Distribution::lognormal_mean_cv(2e-4, 0.5),
            Distribution::Pareto {
                x_min: 1e-4,
                alpha: 3.0,
            },
        ];
        for d in cases {
            let s = d.scaled(2.5);
            assert!(
                (s.mean() - 2.5 * d.mean()).abs() / d.mean() < 1e-9,
                "scaling failed for {d:?}"
            );
        }
    }

    #[test]
    fn validation_catches_bad_params() {
        assert!(Distribution::exponential(0.0).validate().is_err());
        assert!(Distribution::uniform(2.0, 1.0).validate().is_err());
        assert!(Distribution::Pareto {
            x_min: 1.0,
            alpha: 1.0
        }
        .validate()
        .is_err());
        assert!(Distribution::Constant { value: -1.0 }.validate().is_err());
        assert!(Distribution::Mixture { components: vec![] }
            .validate()
            .is_err());
        assert!(Distribution::Mixture {
            components: vec![(0.4, Distribution::constant(1.0))]
        }
        .validate()
        .is_err());
        assert!(Distribution::exponential(1.0).validate().is_ok());
    }

    #[test]
    fn lognormal_mean_cv_hits_requested_mean() {
        let d = Distribution::lognormal_mean_cv(3e-3, 1.2);
        assert!((d.mean() - 3e-3).abs() / 3e-3 < 1e-9);
    }

    #[test]
    fn serde_roundtrip() {
        let d = Distribution::Mixture {
            components: vec![
                (0.5, Distribution::exponential(1e-3)),
                (0.5, Distribution::constant(1e-4)),
            ],
        };
        let json = serde_json::to_string(&d).unwrap();
        let back: Distribution = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
        // Tagged representation is human-authorable:
        assert!(json.contains("\"type\":\"mixture\""));
    }

    #[test]
    fn empirical_distribution_survives_serde() {
        // Deserialized histograms must have a usable CDF (it is skipped in
        // serde and rebuilt on deserialization).
        let h =
            crate::histogram::Histogram::from_bins(0.0, vec![(1e-6, 0.4), (2e-6, 0.6)]).unwrap();
        let d = Distribution::Empirical { histogram: h };
        let json = serde_json::to_string(&d).unwrap();
        let back: Distribution = serde_json::from_str(&json).unwrap();
        let mut r = rng();
        for _ in 0..100 {
            let x = back.sample(&mut r);
            assert!((0.0..=2e-6).contains(&x), "sample {x} out of support");
        }
    }

    #[test]
    fn lower_bound_is_never_undercut_by_samples() {
        let h =
            crate::histogram::Histogram::from_bins(2e-6, vec![(3e-6, 0.5), (5e-6, 0.5)]).unwrap();
        let cases = vec![
            Distribution::constant(4e-6),
            Distribution::exponential(1e-3),
            Distribution::uniform(1e-6, 3e-6),
            Distribution::lognormal_mean_cv(2e-4, 0.5),
            Distribution::Pareto {
                x_min: 1e-4,
                alpha: 3.0,
            },
            Distribution::Empirical { histogram: h },
            Distribution::Shifted {
                offset: 7e-6,
                inner: Box::new(Distribution::exponential(1e-5)),
            },
            Distribution::Mixture {
                components: vec![
                    (0.3, Distribution::constant(9e-6)),
                    (
                        0.7,
                        Distribution::Shifted {
                            offset: 2e-6,
                            inner: Box::new(Distribution::exponential(1e-4)),
                        },
                    ),
                ],
            },
        ];
        let mut r = rng();
        for d in cases {
            let lb = d.lower_bound();
            assert!(lb.is_finite() && lb >= 0.0, "bad bound for {d:?}");
            for _ in 0..20_000 {
                let x = d.sample(&mut r);
                assert!(x >= lb, "{d:?} sampled {x} below its lower bound {lb}");
            }
        }
        // Mixture bound is the min over components; shift adds through.
        assert_eq!(
            Distribution::Mixture {
                components: vec![
                    (0.5, Distribution::constant(3e-6)),
                    (0.5, Distribution::constant(1e-6)),
                ],
            }
            .lower_bound(),
            1e-6
        );
    }

    #[test]
    fn samples_nonnegative() {
        let cases = vec![
            Distribution::exponential(1e-3),
            Distribution::lognormal_mean_cv(1e-4, 2.0),
            Distribution::Pareto {
                x_min: 1e-5,
                alpha: 2.0,
            },
        ];
        let mut r = rng();
        for d in cases {
            for _ in 0..10_000 {
                assert!(d.sample(&mut r) >= 0.0);
            }
        }
    }
}
