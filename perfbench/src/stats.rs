//! Deterministic inputs and summary statistics: a seeded splitmix64 stream,
//! Zipf and Poisson samplers, nearest-rank percentiles and a body digest.

use std::time::Duration;

/// splitmix64: tiny, seedable, and identical on every platform, so one seed
/// always yields the same workload.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf over ranks `0..n`: `P(r) ∝ 1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Poisson arrival offsets at `rate` per second over `window`, conditioned
/// on the expected count: `round(rate * window)` instants drawn uniformly
/// and sorted, which is exactly a Poisson process given its count. Fixing
/// the count keeps the offered load identical across seeds.
pub fn poisson_arrivals(rng: &mut Rng, rate: f64, window: Duration) -> Vec<Duration> {
    let n = (rate * window.as_secs_f64()).round() as usize;
    let mut t: Vec<f64> = (0..n)
        .map(|_| rng.next_f64() * window.as_secs_f64())
        .collect();
    t.sort_by(f64::total_cmp);
    t.into_iter().map(Duration::from_secs_f64).collect()
}

/// Nearest-rank percentile (`p` in `(0, 100]`) of an ascending slice: the
/// smallest sample with at least `p`% of the samples at or below it. Always
/// an observed value, never an interpolation.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy and takes [`percentile`].
pub fn pct(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, p)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// FNV-1a over `bytes`, continuing from `state` (start from [`FNV_OFFSET`]).
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// A digest folded to 48 bits, so it survives the trip through an f64
/// metric value exactly.
pub fn digest48(h: u64) -> f64 {
    ((h ^ (h >> 48)) & 0xFFFF_FFFF_FFFF) as f64
}

/// The output check for served bodies: byte-for-byte identity.
pub fn body_matches(expected: &[u8], got: &[u8]) -> bool {
    expected == got
}

/// `/proc/<pid>/status` `VmHWM` (peak resident set) in MiB.
pub fn vm_hwm_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 5.0), 15.0);
        assert_eq!(percentile(&v, 30.0), 20.0);
        assert_eq!(percentile(&v, 40.0), 20.0);
        assert_eq!(percentile(&v, 50.0), 35.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        let w = [3.0, 6.0, 7.0, 8.0, 8.0, 10.0, 13.0, 15.0, 16.0, 20.0];
        assert_eq!(percentile(&w, 25.0), 7.0);
        assert_eq!(percentile(&w, 50.0), 8.0);
        assert_eq!(percentile(&w, 75.0), 15.0);
        assert_eq!(percentile(&w, 90.0), 16.0);
        assert_eq!(percentile(&w, 99.0), 20.0);
        assert_eq!(pct(&[2.0, 1.0], 50.0), 1.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(percentile(&hundred, 90.0), 90.0);
    }

    #[test]
    fn seeded_streams_repeat_and_differ() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            let z = Zipf::new(450, 0.9);
            let ranks: Vec<usize> = (0..200).map(|_| z.sample(&mut rng)).collect();
            let times = poisson_arrivals(&mut rng, 100.0, Duration::from_secs(2));
            (ranks, times)
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn zipf_and_poisson_have_their_shape() {
        let mut rng = Rng::new(1);
        let z = Zipf::new(450, 1.0);
        let mut counts = vec![0usize; 450];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // Rank 1 is twice as likely as rank 2 and ten times rank 10.
        let r12 = counts[0] as f64 / counts[1] as f64;
        let r1_10 = counts[0] as f64 / counts[9] as f64;
        assert!((1.8..2.2).contains(&r12), "{r12}");
        assert!((8.5..11.5).contains(&r1_10), "{r1_10}");
        let arrivals = poisson_arrivals(&mut rng, 200.0, Duration::from_secs(20));
        assert_eq!(arrivals.len(), 4000);
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        // Exponential gaps: mean 1/rate, and about e^-1 of them exceed it.
        let gaps: Vec<f64> = arrivals
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect();
        let mean_gap = mean(&gaps);
        assert!((0.0048..0.0052).contains(&mean_gap), "{mean_gap}");
        let long = gaps.iter().filter(|&&g| g > 0.005).count() as f64 / gaps.len() as f64;
        assert!((0.34..0.40).contains(&long), "{long}");
    }

    #[test]
    fn body_identity_rejects_a_one_byte_diff() {
        let body = br#"{"layer":"conv1","energy_uj":1.25}"#.to_vec();
        assert!(body_matches(&body, &body.clone()));
        for i in 0..body.len() {
            let mut flipped = body.clone();
            flipped[i] ^= 1;
            assert!(!body_matches(&body, &flipped), "diff at byte {i} accepted");
        }
        let mut longer = body.clone();
        longer.push(b'\n');
        assert!(!body_matches(&body, &longer));
        assert!(!body_matches(&body, &body[..body.len() - 1]));
    }

    #[test]
    fn digest_is_exact_in_f64() {
        let d = digest48(fnv1a(FNV_OFFSET, b"abc"));
        assert_eq!(d, (d as u64) as f64);
        assert!(d < (1u64 << 48) as f64);
    }
}
