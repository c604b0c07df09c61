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

mod ziggurat;
use ziggurat::{EXP_F, EXP_R, EXP_X, NORM_F, NORM_R, NORM_X};

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
            Distribution::Exponential { mean } => sample_exponential(rng, *mean),
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
            // The ziggurat returns zero itself when its uniform is zero,
            // so the only safe bound is zero.
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

/// Samples an exponentially distributed value with the given mean: every
/// exponential draw of the engine (service times, arrivals, MMPP dwell,
/// thinning) comes through here.
pub(crate) fn sample_exponential<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    mean * sample_exp1(rng)
}

/// The uniform in `[0, 1)` carried by the high 53 bits of `bits`; the
/// ziggurats take their layer (and the normal its sign) from the low ones.
fn high_unit(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Exp(1) by the 256-layer ziggurat (Marsaglia & Tsang, JSS 2000; tables in
/// [`ziggurat`]). A draw takes one `u64`: its low 8 bits pick a layer of
/// equal area, its high 53 a point across it, and 97.8 % of points lie
/// under the density outright. The rest take a second `u64` and an `exp`
/// for the wedge test, or — past the base layer's edge — start over at
/// `R` (the tail beyond `R` is `R` plus an Exp(1), memorylessness).
fn sample_exp1<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let mut base = 0.0;
    loop {
        let bits = rng.next_u64();
        let i = (bits & 0xff) as usize;
        let x = high_unit(bits) * EXP_X[i];
        if x < EXP_X[i + 1] {
            return base + x;
        }
        if i == 0 {
            base += EXP_R;
            continue;
        }
        if EXP_F[i + 1] + (EXP_F[i] - EXP_F[i + 1]) * rng.gen::<f64>() < (-x).exp() {
            return base + x;
        }
    }
}

/// N(0, 1) by the 256-layer ziggurat over the half-normal, bit 8 of the
/// same `u64` giving the sign: one `u64` for 98.5 % of draws, a second and
/// an `exp` in a wedge, and Marsaglia's two-logarithm method in the tail
/// beyond `R` (one draw in about 4,000).
fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let bits = rng.next_u64();
        let i = (bits & 0xff) as usize;
        let sign = if bits & 0x100 == 0 { 1.0 } else { -1.0 };
        let x = high_unit(bits) * NORM_X[i];
        if x < NORM_X[i + 1] {
            return sign * x;
        }
        if i == 0 {
            loop {
                let t = -(1.0 - rng.gen::<f64>()).ln() / NORM_R;
                let y = -(1.0 - rng.gen::<f64>()).ln();
                if y + y >= t * t {
                    return sign * (NORM_R + t);
                }
            }
        }
        if NORM_F[i + 1] + (NORM_F[i] - NORM_F[i + 1]) * rng.gen::<f64>() < (-0.5 * x * x).exp() {
            return sign * x;
        }
    }
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

    /// A ziggurat's `(X, F)` regenerated from its tail start `r` and layer
    /// area `v` by the recurrence of [`ziggurat`](super::ziggurat).
    fn ziggurat(r: f64, v: f64, f: fn(f64) -> f64, f_inv: fn(f64) -> f64) -> (Vec<f64>, Vec<f64>) {
        let mut x = vec![0.0; 257];
        x[0] = v / f(r);
        x[1] = r;
        for i in 1..255 {
            x[i + 1] = f_inv(f(x[i]) + v / x[i]);
        }
        let fx = x.iter().map(|&x| f(x)).collect();
        (x, fx)
    }

    /// Composite Simpson's rule over `[a, b]` in `n` (even) intervals.
    fn simpson(f: fn(f64) -> f64, a: f64, b: f64, n: usize) -> f64 {
        let h = (b - a) / n as f64;
        let mut s = f(a) + f(b);
        for k in 1..n {
            s += if k % 2 == 1 { 4.0 } else { 2.0 } * f(a + h * k as f64);
        }
        s * h / 3.0
    }

    fn half_normal(x: f64) -> f64 {
        (-0.5 * x * x).exp()
    }

    /// The layer area of the half-normal ziggurat: `R f(R)` plus the tail
    /// beyond `R` (to `R + 12`, past which it is below 1e-40).
    fn normal_layer_area() -> f64 {
        NORM_R * half_normal(NORM_R) + simpson(half_normal, NORM_R, NORM_R + 12.0, 2_000_000)
    }

    #[test]
    fn ziggurat_tables_follow_the_recurrence() {
        let exp_v = (EXP_R + 1.0) * (-EXP_R).exp();
        let tables = [
            (
                "exp",
                EXP_X,
                EXP_F,
                exp_v,
                ziggurat(EXP_R, exp_v, |x| (-x).exp(), |y| -y.ln()),
            ),
            ("normal", NORM_X, NORM_F, normal_layer_area(), {
                let v = normal_layer_area();
                ziggurat(NORM_R, v, half_normal, |y| (-2.0 * y.ln()).sqrt())
            }),
        ];
        for (name, x, f, v, (gx, gf)) in tables {
            assert_eq!(x[..256], gx[..256], "{name}: X is not the recurrence's");
            assert_eq!(f[..256], gf[..256], "{name}: F is not f(X)");
            assert_eq!(
                (x[256], f[256]),
                (0.0, 1.0),
                "{name}: the top layer ends at 0"
            );
            assert!(
                x.windows(2).all(|w| w[0] > w[1]),
                "{name}: X not decreasing"
            );
            for i in 0..256 {
                let area = if i == 0 {
                    x[0] * f[1]
                } else {
                    x[i] * (f[i + 1] - f[i])
                };
                assert!(
                    (area - v).abs() < 1e-12,
                    "{name}: layer {i} area {area} vs {v}"
                );
            }
        }
    }

    /// `erfc` to a fractional error below 1.2e-7 (Numerical Recipes'
    /// Chebyshev fit): ample for a KS distance of 1e-3.
    fn erfc(x: f64) -> f64 {
        let z = x.abs();
        let t = 1.0 / (1.0 + 0.5 * z);
        let poly = -1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77))))))));
        let r = t * (-z * z + poly).exp();
        if x >= 0.0 {
            r
        } else {
            2.0 - r
        }
    }

    fn normal_cdf(x: f64) -> f64 {
        0.5 * erfc(-x / std::f64::consts::SQRT_2)
    }

    /// `sqrt(n) D_n`, the Kolmogorov–Smirnov distance of `xs` from `cdf`.
    fn ks_distance(mut xs: Vec<f64>, cdf: fn(f64) -> f64) -> f64 {
        xs.sort_by(f64::total_cmp);
        let n = xs.len() as f64;
        let d = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let c = cdf(x);
                (c - i as f64 / n).max((i + 1) as f64 / n - c)
            })
            .fold(0.0, f64::max);
        d * n.sqrt()
    }

    const N: usize = 1_000_000;

    /// `P(sqrt(n) D_n > 1.95) ≈ 0.001` for a sample of the distribution.
    const KS_BOUND: f64 = 1.95;

    #[test]
    fn exponential_passes_kolmogorov_smirnov() {
        let mut r = rng();
        let xs: Vec<f64> = (0..N).map(|_| sample_exp1(&mut r)).collect();
        let d = ks_distance(xs, |x| 1.0 - (-x).exp());
        assert!(d < KS_BOUND, "sqrt(n) D = {d}");
    }

    #[test]
    fn normal_passes_kolmogorov_smirnov() {
        let mut r = rng();
        let xs: Vec<f64> = (0..N).map(|_| sample_standard_normal(&mut r)).collect();
        let d = ks_distance(xs, normal_cdf);
        assert!(d < KS_BOUND, "sqrt(n) D = {d}");
    }

    /// Draws beyond `R` come from the tail paths alone: their count must be
    /// the tail's mass, and (Exp) their excess over `R` an Exp(1) again.
    #[test]
    fn the_tails_beyond_r_carry_their_mass() {
        let mut r = rng();
        let tail: Vec<f64> = (0..N)
            .map(|_| sample_exp1(&mut r))
            .filter(|&x| x > EXP_R)
            .collect();
        let expected = N as f64 * (-EXP_R).exp();
        let got = tail.len() as f64;
        assert!(
            (got - expected).abs() < 5.0 * expected.sqrt(),
            "exp: {got} draws beyond R, expected {expected:.0}"
        );
        let excess = tail.iter().map(|x| x - EXP_R).sum::<f64>() / got;
        assert!(
            (excess - 1.0).abs() < 5.0 / got.sqrt(),
            "exp tail excess mean {excess}"
        );

        let beyond = (0..N)
            .filter(|_| sample_standard_normal(&mut r).abs() > NORM_R)
            .count() as f64;
        let expected = N as f64 * erfc(NORM_R / std::f64::consts::SQRT_2);
        assert!(
            (beyond - expected).abs() < 5.0 * expected.sqrt(),
            "normal: {beyond} draws beyond R, expected {expected:.0}"
        );
    }

    /// The first 16 draws of each ziggurat at a fixed seed, bit for bit:
    /// any change to a table, to the bits a draw takes, or to the order it
    /// takes them in moves every trajectory, and must show here first.
    #[test]
    fn ziggurat_known_answers() {
        let mut r = RngFactory::new(1).stream("ziggurat", 0);
        let exp: Vec<f64> = (0..16).map(|_| sample_exp1(&mut r)).collect();
        let normal: Vec<f64> = (0..16).map(|_| sample_standard_normal(&mut r)).collect();
        assert_eq!(exp, EXP_KNOWN);
        assert_eq!(normal, NORMAL_KNOWN);
    }

    const EXP_KNOWN: [f64; 16] = [
        0.6227068039513431,
        0.15122389286168392,
        0.8001696987408048,
        0.10490351761920087,
        0.7254383599122209,
        1.17996248104536,
        0.01340031613448642,
        1.8137572691823547,
        1.025670316573112,
        0.06984490102975492,
        1.5157285963363745,
        0.22671583744309431,
        1.5388041532892527,
        0.43492171712730854,
        0.2305160226123336,
        0.2142245292411995,
    ];
    const NORMAL_KNOWN: [f64; 16] = [
        0.7079409489127511,
        -0.3179348695398587,
        0.7849181019105956,
        -0.33839382747183105,
        -0.7546467536845356,
        0.4353528537420819,
        -0.991597371829087,
        2.301045393573576,
        1.5175711249686654,
        -0.07389528595475285,
        0.9745807267963406,
        -0.3931854944637361,
        -1.5863714556184672,
        0.4260900214729024,
        1.469154557533471,
        -0.28579402914167135,
    ];

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = RngFactory::new(99).stream("exp", 0);
        let n = 200_000;
        let mean = 2.5;
        let sum: f64 = (0..n).map(|_| sample_exponential(&mut rng, mean)).sum();
        let sample_mean = sum / n as f64;
        assert!(
            (sample_mean - mean).abs() < 0.03,
            "sample mean {sample_mean} too far from {mean}"
        );
    }

    #[test]
    fn exponential_is_nonnegative() {
        let mut rng = RngFactory::new(5).stream("exp", 1);
        for _ in 0..10_000 {
            assert!(sample_exponential(&mut rng, 1.0) >= 0.0);
        }
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
    fn lognormal_mean_cv_samples_have_that_mean_and_cv() {
        for (mean, cv) in [(2e-4, 0.5), (3e-3, 1.2), (1e-5, 0.1)] {
            let d = Distribution::lognormal_mean_cv(mean, cv);
            let mut r = rng();
            let xs: Vec<f64> = (0..400_000).map(|_| d.sample(&mut r)).collect();
            let n = xs.len() as f64;
            let m = xs.iter().sum::<f64>() / n;
            let sd = (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (n - 1.0)).sqrt();
            assert!(
                (m / mean - 1.0).abs() < 0.01,
                "mean {m} vs {mean} (cv {cv})"
            );
            assert!(
                (sd / m / cv - 1.0).abs() < 0.03,
                "cv {} vs {cv} (mean {mean})",
                sd / m
            );
        }
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
