//! The harness's own seeded randomness: every input is a pure function of
//! `--seed`, so two runs at one seed feed the program byte-identical
//! statements (the exact work counters rely on it).

/// SplitMix64: small, fast, and good enough to drive workload generation.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// An independent stream for one named purpose, so adding draws to one
    /// generator never shifts the inputs of another.
    pub fn fork(seed: u64, stream: &str) -> Self {
        let mut h = seed;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut r = Rng::new(h);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻³² for every
    /// `n` the generators use.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s = 1.0) over ranks `0..n`: rank `k` is drawn with probability
/// proportional to `1 / (k + 1)`. Ranks are mapped to ids through a seeded
/// permutation by the caller, so "popular" is not "low id".
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / (k as f64 + 1.0);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let a: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::fork(7, "x").next_u64(), Rng::fork(7, "y").next_u64());
        assert_ne!(Rng::fork(7, "x").next_u64(), Rng::fork(8, "x").next_u64());
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(100);
        let mut rng = Rng::new(1);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > 4 * counts[9]);
        assert!(counts[0] > 20 * counts[99].max(1) / 2);
        assert_eq!(counts.iter().sum::<usize>(), 20_000);
    }
}
