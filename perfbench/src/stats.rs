//! Small numeric helpers: a seeded generator, a Zipf sampler, order
//! statistics, and a content hash for byte-identity gates.

/// SplitMix64: a tiny, fast, seedable generator. Every input the benchmark
/// generates (datagen seed aside) is drawn from one of these, so the same
/// `--seed` always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so the samplers of
    /// one run (query mix, update slices, cell sample) never share draws.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf-distributed ranks over `0..n`: rank `r` is drawn with probability
/// proportional to `1 / (r + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty universe");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Median of unsorted samples (the mean of the middle two for an even
/// count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// The lower-middle sample of unsorted samples: the median for an odd
/// count, the smaller of the middle two for an even one. Unlike
/// [`median`] it is always one of the samples, so a per-sample breakdown
/// of it exists.
pub fn lower_median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    v[(v.len() - 1) / 2]
}

/// The tail percentile a latency sample supports: the highest reporting
/// level, up to p99, that still has at least ten samples beyond it (so it
/// is not a single outlier), or the maximum when there are too few
/// samples for any. Returns `(label, value)` over ascending `sorted`.
pub fn tail(sorted: &[f64]) -> (&'static str, f64) {
    const LEVELS: [(&str, f64); 5] =
        [("p99", 0.99), ("p95", 0.95), ("p90", 0.90), ("p75", 0.75), ("p50", 0.5)];
    let n = sorted.len() as f64;
    for (label, q) in LEVELS {
        if n * (1.0 - q) >= 10.0 {
            return (label, quantile(sorted, q));
        }
    }
    ("max", *sorted.last().expect("tail of no samples"))
}

/// Split timed samples `(t, value)`, `t` in `[0, span)`, into `windows`
/// equal windows, apply `stat` to each non-empty window's values, and
/// return the median of the results: one window disturbed by a noisy
/// neighbour moves it far less than it moves a whole-run statistic.
pub fn window_median(
    samples: &[(f64, f64)],
    span: f64,
    windows: usize,
    stat: impl Fn(&[f64]) -> f64,
) -> f64 {
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(t, v) in samples {
        let w = ((t / span * windows as f64) as usize).min(windows - 1);
        buckets[w].push(v);
    }
    let per: Vec<f64> = buckets.iter().filter(|b| !b.is_empty()).map(|b| stat(b)).collect();
    median(&per)
}

/// Ascending copy.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 64-bit FNV-1a over a file's 8-byte words (tail bytes folded singly),
/// streamed in 1 MiB blocks: a fast, deterministic content hash for the
/// snapshot-bytes gate that allocates one block, not the file.
pub fn file_hash(path: &std::path::Path) -> std::io::Result<u64> {
    use std::io::Read;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut file = std::fs::File::open(path)?;
    let mut block = vec![0u8; 1 << 20];
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    loop {
        let mut filled = 0;
        while filled < block.len() {
            match file.read(&mut block[filled..])? {
                0 => break,
                n => filled += n,
            }
        }
        let mut words = block[..filled].chunks_exact(8);
        for w in &mut words {
            h = (h ^ u64::from_le_bytes(w.try_into().expect("8-byte chunk"))).wrapping_mul(PRIME);
        }
        for &b in words.remainder() {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
        if filled < block.len() {
            return Ok(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(8, 1);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng::new(1, 0);
        let draws: Vec<usize> = (0..10_000).map(|_| z.sample(&mut rng)).collect();
        let low = draws.iter().filter(|&&r| r < 10).count();
        assert!(low > 4_000, "{low}");
        assert!(draws.iter().all(|&r| r < 100));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..100_000).map(f64::from).collect();
        assert_eq!(tail(&v).0, "p99");
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(lower_median(&[4.0, 1.0, 2.0, 3.0]), 2.0);
        assert_eq!(lower_median(&[4.0, 1.0, 3.0]), 3.0);
        let v: Vec<f64> = (0..120).map(f64::from).collect();
        assert_eq!(tail(&v).0, "p90");
        assert_eq!(tail(&[1.0, 3.0]), ("max", 3.0));
    }

    #[test]
    fn window_median_ignores_one_bad_window() {
        let mut samples: Vec<(f64, f64)> = (0..300).map(|i| (i as f64 / 100.0, 1.0)).collect();
        samples.push((0.5, 1000.0));
        let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
        assert_eq!(window_median(&samples, 3.0, 3, max), 1.0);
    }
}
