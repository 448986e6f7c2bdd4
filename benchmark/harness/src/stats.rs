//! Seeded randomness and order statistics.

/// splitmix64: the workload's only source of randomness, so one `--seed`
/// always yields the same flows, visit order and rule sets.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Linear-interpolated quantile of an ascending slice (0 for an empty one).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Quartiles and sample count.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    Summary {
        q1: quantile_sorted(&sorted, 0.25),
        median: quantile_sorted(&sorted, 0.5),
        q3: quantile_sorted(&sorted, 0.75),
        n: sorted.len(),
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// The `q` quantile of unsorted nanosecond samples, in microseconds.
pub fn quantile_us(samples_ns: &mut [u32], q: f64) -> f64 {
    if samples_ns.is_empty() {
        return 0.0;
    }
    let idx = ((samples_ns.len() - 1) as f64 * q).round() as usize;
    let (_, v, _) = samples_ns.select_nth_unstable(idx);
    *v as f64 / 1e3
}
