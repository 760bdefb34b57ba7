//! Seeded inputs: a small PRNG, a Zipf sampler, measurement series drawn
//! from the Table-1 kernel shapes, and the FNV hash of a request stream.

use estima_core::{KernelKind, Measurement, MeasurementSet, StallCategory};

/// Clock frequency every generated series is measured at.
pub const FREQUENCY_GHZ: f64 = 2.1;

/// SplitMix64: deterministic, tiny, and good enough for input generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
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

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Zipf over `0..n` with exponent `s`, by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Kernel shapes of Table 1 with parameters that stay positive, finite and
/// smooth over 1..=64 cores. A law scales and perturbs one per category.
const SHAPES: [(KernelKind, &[f64]); 6] = [
    (KernelKind::Rat22, &[1.0, 0.2, 0.02, 0.05, 0.0005]),
    (KernelKind::Rat23, &[1.0, 0.3, 0.03, 0.05, 0.001, 0.00001]),
    (
        KernelKind::Rat33,
        &[1.0, 0.2, 0.02, 0.001, 0.05, 0.001, 0.00001],
    ),
    (KernelKind::CubicLn, &[1.0, 0.3, 0.1, 0.02]),
    (KernelKind::ExpRat, &[0.1, 0.05, 1.0, 0.02]),
    (KernelKind::Poly25, &[1.0, 0.05, 0.002, 0.0001]),
];

/// The three stall categories every generated series carries.
fn categories() -> [StallCategory; 3] {
    [
        StallCategory::backend("rob_full"),
        StallCategory::backend("ls_full"),
        StallCategory::software("lock_spin"),
    ]
}

/// The ground truth of one synthetic application. Per core, category `k`
/// stalls `scale_k * shape_k(n) / shape_k(1)` cycles, a Table-1 kernel
/// shape; execution time is the parallel work `work / n` plus the stalled
/// cycles per core at the clock frequency. Noise is deterministic per point:
/// `point(cores)` is a pure function of the law and the core count, so
/// re-measuring a core count reproduces the stored point bit for bit.
#[derive(Debug, Clone)]
pub struct Law {
    work_s: f64,
    shapes: [(KernelKind, Vec<f64>, f64); 3],
    noise_seed: u64,
}

impl Law {
    pub fn random(rng: &mut Rng) -> Law {
        let mut shape = |cycles: f64| {
            let (kind, base) = SHAPES[rng.below(SHAPES.len())];
            let params: Vec<f64> = base.iter().map(|p| p * rng.range(0.9, 1.1)).collect();
            (kind, params, cycles * rng.range(0.8, 1.2))
        };
        let shapes = [shape(1.0e9), shape(5.0e8), shape(2.0e8)];
        Law {
            work_s: rng.range(30.0, 60.0),
            shapes,
            noise_seed: rng.next_u64(),
        }
    }

    /// Deterministic noise in `[-amplitude, amplitude)` for one point.
    fn noise(&self, cores: u32, salt: u64, amplitude: f64) -> f64 {
        let mut rng = Rng::new(self.noise_seed ^ (u64::from(cores) << 8) ^ salt);
        rng.range(-amplitude, amplitude)
    }

    pub fn point(&self, cores: u32) -> Measurement {
        let n = f64::from(cores);
        let mut stalled_s = 0.0;
        let mut stalls = Vec::new();
        for (k, (category, (kind, params, scale))) in
            categories().into_iter().zip(&self.shapes).enumerate()
        {
            let per_core = scale * kind.eval(params, n) / kind.eval(params, 1.0)
                * (1.0 + self.noise(cores, k as u64 + 1, 0.01));
            stalled_s += per_core / (FREQUENCY_GHZ * 1e9);
            stalls.push((category, per_core * n));
        }
        let time = (self.work_s / n + stalled_s) * (1.0 + self.noise(cores, 0, 0.005));
        stalls
            .into_iter()
            .fold(Measurement::new(cores, time), |m, (c, cycles)| {
                m.with_stall(c, cycles)
            })
    }

    pub fn set(&self, name: &str, cores: impl IntoIterator<Item = u32>) -> MeasurementSet {
        let mut set = MeasurementSet::new(name, FREQUENCY_GHZ);
        for c in cores {
            set.push(self.point(c));
        }
        set
    }
}

/// Incremental 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laws_give_positive_finite_points() {
        let mut rng = Rng::new(7);
        for _ in 0..50 {
            let law = Law::random(&mut rng);
            for cores in 1..=64 {
                let p = law.point(cores);
                assert!(p.exec_time.is_finite() && p.exec_time > 0.0);
                assert!(p.stalls.values().all(|c| c.is_finite() && *c > 0.0));
                assert_eq!(p, law.point(cores));
            }
        }
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let zipf = Zipf::new(64, 1.0);
        let mut rng = Rng::new(1);
        let mut counts = [0usize; 64];
        for _ in 0..10_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10]);
    }
}
