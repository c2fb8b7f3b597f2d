//! Seeded, forkable randomness and the distributions the underlay and
//! workload models draw from.
//!
//! Every stochastic component of the simulation takes its randomness
//! from an [`RngFactory`] fork, keyed by a stream label, so that the
//! whole experiment is a pure function of one `u64` seed — adding a
//! new consumer of randomness does not perturb the draws of existing
//! ones.
//!
//! The distribution helpers (normal via Box–Muller, lognormal,
//! exponential, bounded Zipf) are implemented here directly on
//! [`rand::Rng`] streams: the reproduction's dependency policy allows
//! `rand` but not `rand_distr`.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Derives independent RNG streams from a single experiment seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngFactory {
    seed: u64,
}

impl RngFactory {
    /// Creates a factory for `seed`.
    pub fn new(seed: u64) -> Self {
        RngFactory { seed }
    }

    /// The experiment seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Forks a deterministic stream for `label`. Streams with
    /// different labels are statistically independent; the same label
    /// always yields the same stream.
    pub fn fork(&self, label: &str) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ splitmix(fnv1a(label)))
    }

    /// Forks a stream for a numbered entity (e.g. one per peer).
    pub fn fork_indexed(&self, label: &str, index: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ splitmix(fnv1a(label) ^ splitmix(index)))
    }
}

pub(crate) fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A standard-normal draw (Box–Muller).
pub fn normal<R: rand::Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.random_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        if z.is_finite() {
            return z;
        }
    }
}

/// A normal draw with the given mean and standard deviation.
///
/// # Panics
///
/// Panics if `std_dev` is negative.
pub fn normal_with<R: rand::Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    assert!(std_dev >= 0.0, "standard deviation must be non-negative");
    mean + std_dev * normal(rng)
}

/// A lognormal draw: `exp(N(mu, sigma))`.
///
/// `mu` and `sigma` parameterize the *underlying* normal; the median
/// of the result is `exp(mu)`.
pub fn lognormal<R: rand::Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    normal_with(rng, mu, sigma).exp()
}

/// Lognormal parameterized by its median and the sigma of the
/// underlying normal — the form the underlay models use.
pub fn lognormal_median<R: rand::Rng + ?Sized>(rng: &mut R, median: f64, sigma: f64) -> f64 {
    assert!(median > 0.0, "median must be positive");
    lognormal(rng, median.ln(), sigma)
}

/// An exponential draw with the given rate (mean `1/rate`).
///
/// # Panics
///
/// Panics if `rate` is not strictly positive.
pub fn exponential<R: rand::Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0, "rate must be positive");
    let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    -u.ln() / rate
}

/// A bounded Zipf draw over `1..=n` with exponent `s`, via inverted
/// CDF on precomputed weights. For repeated draws prefer
/// [`ZipfTable`].
pub fn zipf<R: rand::Rng + ?Sized>(rng: &mut R, n: usize, s: f64) -> usize {
    ZipfTable::new(n, s).sample(rng)
}

/// Precomputed bounded Zipf distribution over ranks `1..=n`.
#[derive(Debug, Clone)]
pub struct ZipfTable {
    cdf: Vec<f64>,
}

impl ZipfTable {
    /// Builds the table for `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s >= 0.0, "Zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        ZipfTable { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the table is empty (never true: `new` requires n > 0).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Probability of rank `k` (1-based).
    pub fn probability(&self, k: usize) -> f64 {
        assert!(k >= 1 && k <= self.cdf.len(), "rank out of range");
        if k == 1 {
            self.cdf[0]
        } else {
            self.cdf[k - 1] - self.cdf[k - 2]
        }
    }

    /// Draws a rank in `1..=n`.
    pub fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random_range(0.0..1.0);
        // `u` falls in rank i+1 when cdf[i-1] <= u < cdf[i].
        let i = match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => i + 1, // exact boundary hit: next rank up
            Err(i) => i,
        };
        (i + 1).min(self.cdf.len())
    }
}

/// Draws an index from a slice of non-negative weights.
///
/// # Panics
///
/// Panics if the weights are empty or all zero.
pub fn weighted_index<R: rand::Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    weighted_index_iter(rng, weights.iter().sum(), weights.iter().copied())
}

/// Allocation-free core of [`weighted_index`]: draws against the
/// pre-summed `total` and walks `weights` once, so hot-path callers
/// can sample straight off their own storage without materializing a
/// scratch slice. The single `random_range` call consumes the RNG
/// exactly like the slice wrapper, keeping seeded streams identical.
///
/// # Panics
///
/// Panics if `total` is not positive.
pub fn weighted_index_iter<R, I>(rng: &mut R, total: f64, weights: I) -> usize
where
    R: rand::Rng + ?Sized,
    I: IntoIterator<Item = f64>,
{
    assert!(total > 0.0, "weights must not be all zero");
    let mut u: f64 = rng.random_range(0.0..total);
    let mut last = 0;
    for (i, w) in weights.into_iter().enumerate() {
        if u < w {
            return i;
        }
        u -= w;
        last = i;
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    #[test]
    fn forks_are_deterministic_and_distinct() {
        let f = RngFactory::new(42);
        let a: u64 = f.fork("arrivals").random_range(0..u64::MAX);
        let a2: u64 = f.fork("arrivals").random_range(0..u64::MAX);
        let b: u64 = f.fork("sessions").random_range(0..u64::MAX);
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }

    #[test]
    fn indexed_forks_differ_by_index() {
        let f = RngFactory::new(7);
        let x: u64 = f.fork_indexed("peer", 1).random_range(0..u64::MAX);
        let y: u64 = f.fork_indexed("peer", 2).random_range(0..u64::MAX);
        assert_ne!(x, y);
    }

    #[test]
    fn different_seeds_differ() {
        let a: u64 = RngFactory::new(1).fork("x").random_range(0..u64::MAX);
        let b: u64 = RngFactory::new(2).fork("x").random_range(0..u64::MAX);
        assert_ne!(a, b);
    }

    #[test]
    fn normal_moments() {
        let mut rng = RngFactory::new(3).fork("normal");
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng)).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.03, "var = {var}");
    }

    #[test]
    fn lognormal_median_is_respected() {
        let mut rng = RngFactory::new(5).fork("lognormal");
        let mut samples: Vec<f64> = (0..50_001)
            .map(|_| lognormal_median(&mut rng, 30.0, 0.5))
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[25_000];
        assert!((median - 30.0).abs() < 1.5, "median = {median}");
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn exponential_mean() {
        let mut rng = RngFactory::new(9).fork("exp");
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| exponential(&mut rng, 0.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean = {mean}");
    }

    #[test]
    #[should_panic(expected = "rate")]
    fn exponential_rejects_zero_rate() {
        let mut rng = RngFactory::new(0).fork("exp");
        let _ = exponential(&mut rng, 0.0);
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let table = ZipfTable::new(100, 1.2);
        let mut rng = RngFactory::new(11).fork("zipf");
        let n = 50_000;
        let ones = (0..n).filter(|_| table.sample(&mut rng) == 1).count();
        let expect = table.probability(1);
        let got = ones as f64 / n as f64;
        assert!((got - expect).abs() < 0.02, "got {got}, expect {expect}");
    }

    #[test]
    fn zipf_probabilities_sum_to_one() {
        let table = ZipfTable::new(50, 0.8);
        let sum: f64 = (1..=50).map(|k| table.probability(k)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_samples_in_range() {
        let table = ZipfTable::new(10, 1.0);
        let mut rng = RngFactory::new(13).fork("zipf2");
        for _ in 0..10_000 {
            let k = table.sample(&mut rng);
            assert!((1..=10).contains(&k));
        }
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let table = ZipfTable::new(4, 0.0);
        for k in 1..=4 {
            assert!((table.probability(k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = RngFactory::new(17).fork("weights");
        let weights = [0.0, 3.0, 1.0];
        let n = 40_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[weighted_index(&mut rng, &weights)] += 1;
        }
        assert_eq!(counts[0], 0);
        let frac1 = counts[1] as f64 / n as f64;
        assert!((frac1 - 0.75).abs() < 0.02, "frac = {frac1}");
    }

    #[test]
    #[should_panic(expected = "weights")]
    fn weighted_index_rejects_all_zero() {
        let mut rng = RngFactory::new(0).fork("w");
        let _ = weighted_index(&mut rng, &[0.0, 0.0]);
    }
}
