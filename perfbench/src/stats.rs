//! Order statistics for wall-clock samples, and the seeded generator the
//! workloads draw their inputs from.

/// The percentile a tail figure reports and how many samples lie beyond
/// it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// 99, 95 or 90; 0 when no percentile has ten samples beyond it.
    pub percentile: u32,
    /// The value at that percentile.
    pub value: f64,
    /// Samples ranked above the percentile's rank.
    pub beyond: usize,
    /// All samples.
    pub samples: usize,
}

/// Samples needed beyond a tail percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank position (1-based) of percentile `p` among `n`
/// samples: the smallest rank with at least `p` % of the samples at or
/// below it. Integer arithmetic, so p99 of 1000 is exactly rank 990.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).clamp(1, n.max(1))
}

/// The value at percentile `p` of ascending-sorted `sorted`.
fn percentile(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// How many of `n` samples are ranked above percentile `p`.
pub fn beyond(n: usize, p: u32) -> usize {
    n.saturating_sub(rank(n, p))
}

/// Median of unsorted samples (the mean of the middle pair for even
/// counts, as Python's `statistics.median`).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest of p99, p95 and p90 that leaves at least [`MIN_BEYOND`]
/// of `n` samples beyond it; 0 when none does.
pub fn tail_percentile(n: usize) -> u32 {
    [99u32, 95, 90]
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(0)
}

/// The value at percentile `p` of `samples` (the maximum for `p` = 0),
/// so a workload with a planned sample count can pin its percentile.
pub fn tail_at(samples: &[f64], p: u32) -> Tail {
    assert!(!samples.is_empty(), "tail of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let (value, beyond) = if p == 0 {
        (s[s.len() - 1], 0)
    } else {
        (percentile(&s, p), beyond(s.len(), p))
    };
    Tail {
        percentile: p,
        value,
        beyond,
        samples: s.len(),
    }
}

/// The tail at [`tail_percentile`] of the sample count. With too few
/// samples for any percentile the result carries percentile 0 and the
/// maximum, so a thin tail never passes for a measured one.
pub fn tail(samples: &[f64]) -> Tail {
    tail_at(samples, tail_percentile(samples.len()))
}

/// SplitMix64: a small, well-mixed seeded generator. Every input the
/// benchmark hands the program (run seeds, arrival times, request
/// classes, the replayed episode sample) comes from one of these.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on the named `stream`, so independent input
    /// families of one run never share a sequence.
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (self.next_u64() % n as u64) as usize
    }
}

/// Peak resident set size of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
