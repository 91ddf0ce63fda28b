//! The benchmark's own generator, so an op stream is a function of the
//! seed alone and not of whichever `rand` the repository vendors.

/// SplitMix64: one 64-bit state word, full period, good enough mixing
/// for key choice, op mix and exponential inter-arrival times.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for sub-purpose `lane` of `seed` (phase
    /// index, schedule vs. keys), so lengthening one phase never shifts
    /// the inputs of another.
    pub fn lane(seed: u64, lane: u64) -> Self {
        let mut r = Rng(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for the
    /// key counts used here).
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * u64::from(n)) >> 32) as u32
    }

    /// Uniform in the open interval (0, 1).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival time in nanoseconds for a Poisson
    /// process of `rate` events per second.
    pub fn exp_ns(&mut self, rate: f64) -> u64 {
        (-self.unit().ln() / rate * 1e9) as u64
    }
}

/// SplitMix64's finalizer; also used to derive value bytes from
/// (key, version).
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_lanes_differ() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(Rng::lane(7, 0).next_u64(), Rng::lane(7, 1).next_u64());
    }

    #[test]
    fn below_and_exp_stay_in_range() {
        let mut r = Rng::new(1);
        let mut sum = 0u64;
        for _ in 0..20_000 {
            assert!(r.below(48) < 48);
            sum += r.exp_ns(1000.0);
        }
        // Mean inter-arrival of a 1000/s process is 1 ms.
        let mean = sum as f64 / 20_000.0;
        assert!((0.95e6..1.05e6).contains(&mean), "mean {mean}");
    }
}
