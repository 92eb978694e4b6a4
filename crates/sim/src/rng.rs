//! Deterministic randomness for simulations.
//!
//! Every run derives all of its randomness from a single root seed. Distinct
//! components draw from *named substreams* so that adding a consumer in one
//! part of the model does not perturb the sample sequence of another — a
//! property that keeps regression comparisons meaningful.
//!
//! The substream derivation is a simple FNV-1a-style mix of the root seed
//! with the stream label; `rand::rngs::StdRng` provides the actual stream.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The geometric distribution of [`SimRng::geometric`] with its
/// logarithm `ln(1 − p)` taken once, for a process that draws many
/// attempt counts at one success probability.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Geometric {
    p: f64,
    ln_fail: f64,
}

impl Geometric {
    /// Trials until the first success at probability `p`.
    pub fn new(p: f64) -> Self {
        Geometric {
            p,
            ln_fail: (1.0 - p).ln(),
        }
    }

    /// The success probability per trial.
    pub fn p(&self) -> f64 {
        self.p
    }
}

/// A deterministic random stream.
pub struct SimRng {
    inner: StdRng,
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn mix(seed: u64, label: &str) -> u64 {
    let mut h = FNV_OFFSET ^ seed;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    // Final avalanche (splitmix64 finaliser) so similar labels diverge.
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d049bb133111eb);
    h ^ (h >> 31)
}

impl SimRng {
    /// Root stream for a run.
    pub fn from_seed(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derive an independent named substream. Equal `(seed, label)` pairs
    /// yield identical streams.
    pub fn substream(seed: u64, label: &str) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(mix(seed, label)),
        }
    }

    /// Derive an indexed substream, e.g. one per link.
    pub fn substream_indexed(seed: u64, label: &str, index: u64) -> Self {
        let combined = mix(seed, label) ^ index.wrapping_mul(0x9e3779b97f4a7c15);
        SimRng {
            inner: StdRng::seed_from_u64(combined),
        }
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.gen::<f64>() < p
        }
    }

    /// Uniform integer in `[0, n)`. `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        self.inner.gen_range(0..n)
    }

    /// Number of Bernoulli(`p`) trials up to and including the first
    /// success (support `1, 2, 3, …`), sampled in O(1) via inversion:
    /// [`SimRng::sample_geometric`] of [`Geometric::new`]`(p)`.
    ///
    /// Saturates at `u64::MAX` for vanishingly small `p`; panics on `p <= 0`
    /// in debug builds (the caller must guard impossible processes).
    pub fn geometric(&mut self, p: f64) -> u64 {
        self.sample_geometric(Geometric::new(p))
    }

    /// A draw from `g`: the same value, from the same draws, as
    /// [`SimRng::geometric`] at `g`'s `p`. `p >= 1` returns 1 and
    /// `p <= 0` returns `u64::MAX`, both without a draw.
    pub fn sample_geometric(&mut self, g: Geometric) -> u64 {
        debug_assert!(g.p > 0.0, "geometric sampling requires p > 0");
        if g.p >= 1.0 {
            return 1;
        }
        if g.p <= 0.0 {
            return u64::MAX;
        }
        // Inversion: k = ceil(ln(1-u) / ln(1-p)), u ~ U[0,1).
        let u: f64 = self.inner.gen::<f64>();
        let k = ((1.0 - u).ln() / g.ln_fail).ceil();
        if !k.is_finite() || k >= u64::MAX as f64 {
            u64::MAX
        } else {
            (k as u64).max(1)
        }
    }

    /// Exponentially distributed value with the given rate (mean `1/rate`).
    pub fn exponential(&mut self, rate: f64) -> f64 {
        debug_assert!(rate > 0.0);
        let u: f64 = self.inner.gen::<f64>();
        -(1.0 - u).ln() / rate
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        self.inner.gen_range(lo..hi)
    }

    /// Sample an index from a discrete distribution given by `weights`
    /// (need not be normalised; non-positive total panics in debug builds).
    pub fn discrete(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        debug_assert!(
            total > 0.0,
            "discrete sampling requires positive total weight"
        );
        let mut x = self.inner.gen::<f64>() * total;
        for (i, w) in weights.iter().enumerate() {
            x -= w;
            if x <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Access the underlying `rand` RNG for APIs that want `impl Rng`.
    pub fn raw(&mut self) -> &mut impl Rng {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::from_seed(7);
        let mut b = SimRng::from_seed(7);
        for _ in 0..100 {
            assert_eq!(a.f64().to_bits(), b.f64().to_bits());
        }
    }

    #[test]
    fn substreams_are_independent_of_each_other() {
        let mut a = SimRng::substream(7, "alpha");
        let mut b = SimRng::substream(7, "beta");
        let va: Vec<u64> = (0..8).map(|_| a.f64().to_bits()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.f64().to_bits()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn substream_reproducible() {
        let mut a = SimRng::substream_indexed(42, "link", 3);
        let mut b = SimRng::substream_indexed(42, "link", 3);
        assert_eq!(a.below(1000), b.below(1000));
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = SimRng::from_seed(1);
        assert!(!r.bernoulli(0.0));
        assert!(r.bernoulli(1.0));
        assert!(!r.bernoulli(-0.5));
        assert!(r.bernoulli(1.5));
    }

    #[test]
    fn geometric_mean_matches_inverse_p() {
        let mut r = SimRng::from_seed(99);
        let p = 0.02;
        let n = 20_000;
        let total: u64 = (0..n).map(|_| r.geometric(p)).sum();
        let mean = total as f64 / n as f64;
        let expect = 1.0 / p;
        assert!(
            (mean - expect).abs() / expect < 0.05,
            "geometric mean {mean} too far from {expect}"
        );
    }

    #[test]
    fn geometric_of_one_is_one() {
        let mut r = SimRng::from_seed(3);
        assert_eq!(r.geometric(1.0), 1);
    }

    /// The stored-logarithm sampler against `geometric(p)` and against
    /// the inversion formula written out over `f64()`, bit for bit and
    /// draw for draw, over random `p` spanning 1e-12 to 1, and at
    /// `p = 1`, which returns 1 without a draw.
    #[test]
    fn stored_log_sampler_matches_geometric() {
        let mut ps = SimRng::from_seed(41);
        let mut cases: Vec<f64> = (0..2000).map(|_| 10f64.powf(-12.0 * ps.f64())).collect();
        cases.extend([1.0, 1.0 - f64::EPSILON, 0.5, f64::MIN_POSITIVE]);
        let (mut a, mut b, mut c) = (
            SimRng::from_seed(43),
            SimRng::from_seed(43),
            SimRng::from_seed(43),
        );
        for p in cases {
            let g = Geometric::new(p);
            assert_eq!(g.p().to_bits(), p.to_bits());
            let stored = a.sample_geometric(g);
            assert_eq!(stored, b.geometric(p), "p = {p}");
            let reference = if p >= 1.0 {
                1
            } else {
                let k = ((1.0 - c.f64()).ln() / (1.0 - p).ln()).ceil();
                if !k.is_finite() || k >= u64::MAX as f64 {
                    u64::MAX
                } else {
                    (k as u64).max(1)
                }
            };
            assert_eq!(stored, reference, "p = {p}");
        }
        // The three streams consumed the same draws.
        let next = a.f64().to_bits();
        assert_eq!(next, b.f64().to_bits());
        assert_eq!(next, c.f64().to_bits());
    }

    #[test]
    fn geometric_minimum_is_one() {
        let mut r = SimRng::from_seed(5);
        assert!((0..1000).all(|_| r.geometric(0.9) >= 1));
    }

    #[test]
    fn exponential_mean() {
        let mut r = SimRng::from_seed(17);
        let rate = 4.0;
        let n = 20_000;
        let total: f64 = (0..n).map(|_| r.exponential(rate)).sum();
        let mean = total / n as f64;
        assert!((mean - 0.25).abs() < 0.02, "exponential mean {mean}");
    }

    #[test]
    fn discrete_respects_weights() {
        let mut r = SimRng::from_seed(23);
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            counts[r.discrete(&[1.0, 2.0, 1.0])] += 1;
        }
        let mid = counts[1] as f64 / 30_000.0;
        assert!((mid - 0.5).abs() < 0.03, "middle weight got {mid}");
    }
}
