//! Seeded inputs: arrival schedules and request order.
//!
//! Everything a workload sends is a pure function of its `--seed`, so a
//! run can be repeated exactly and two commits can be compared on the
//! same traffic.

use std::time::Duration;

/// SplitMix64: a tiny, well-mixed generator whose stream is fixed by its
/// seed on every platform.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`, salted so that different uses of
    /// one workload seed draw unrelated streams.
    pub fn new(seed: u64, salt: u64) -> Self {
        Self(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `(0, 1]` (never 0, so its logarithm is finite).
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Send offsets of `n` requests arriving as a Poisson process at `rate`
/// requests per second: exponential gaps, starting from the first gap.
pub fn poisson_schedule(seed: u64, rate: f64, n: usize) -> Vec<Duration> {
    let mut rng = SplitMix::new(seed, 1);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t += -rng.next_unit().ln() / rate;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// Which pool row each of `n` requests carries: back-to-back shuffles of
/// the whole pool, so every row is sent equally often (±1) and the
/// accuracy of a window does not hinge on which rows the seed drew.
pub fn request_order(seed: u64, pool: usize, n: usize) -> Vec<usize> {
    let mut rng = SplitMix::new(seed, 2);
    let mut order = Vec::with_capacity(n);
    while order.len() < n {
        let mut rows: Vec<usize> = (0..pool).collect();
        for i in (1..pool).rev() {
            rows.swap(i, rng.below(i + 1));
        }
        order.extend(rows.into_iter().take(n - order.len()));
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_reproduces_from_its_seed() {
        let a = poisson_schedule(42, 500.0, 2000);
        let b = poisson_schedule(42, 500.0, 2000);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, poisson_schedule(43, 500.0, 2000), "seed moves it");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets ascend");
        // 2000 exponential gaps at 500/s: mean 2 ms, and the sum lands
        // within a few standard errors (σ/√n ≈ 2.2 %) of 4 s.
        let total = a.last().expect("non-empty").as_secs_f64();
        assert!((total - 4.0).abs() < 0.4, "total span {total}");
        // Exponential gaps: about 63 % fall below the mean.
        let mut prev = Duration::ZERO;
        let short = a
            .iter()
            .filter(|&&t| {
                let gap = t - prev;
                prev = t;
                gap < Duration::from_millis(2)
            })
            .count();
        let share = short as f64 / a.len() as f64;
        assert!((share - 0.632).abs() < 0.05, "short-gap share {share}");
    }

    #[test]
    fn request_order_reproduces_and_sends_every_row_equally() {
        let a = request_order(9, 50, 5000);
        assert_eq!(a, request_order(9, 50, 5000));
        assert_ne!(a, request_order(10, 50, 5000));
        assert!(a.iter().all(|&i| i < 50));
        for row in 0..50 {
            assert_eq!(a.iter().filter(|&&i| i == row).count(), 100, "row {row}");
        }
        assert_ne!(&a[..50], &a[50..100], "each pass is shuffled anew");
    }
}
