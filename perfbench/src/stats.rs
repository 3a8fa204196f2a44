//! Measurement helpers: exact percentiles, a seeded Zipf sampler, and the
//! span model with its self-time computation.
//!
//! Percentiles come from exact sorted samples rather than the
//! `softrep_obs` histograms: those buckets carry up to 12.5 % relative
//! error, more than the run-to-run agreement the benchmark must show.

use std::time::{Duration, Instant};

/// The benchmark's one clock read. Every timing in this package goes
/// through here, so the wall-clock dependence lives in one line.
pub fn now() -> Instant {
    Instant::now() // lint: allow(clock, "wall-clock timing is the benchmark's measurement itself")
}

/// Microseconds in `d`, as a float with sub-microsecond digits.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A set of exact samples, summarised by nearest-rank percentiles.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Nearest-rank percentile `p` in `[0, 100]`; `None` when empty.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        percentile_sorted(&self.values, p)
    }

    pub fn median(&mut self) -> Option<f64> {
        self.percentile(50.0)
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` % of the samples at or below it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.saturating_sub(1).min(sorted.len() - 1)).copied()
}

/// Median of a small list of values (set-up repetitions, aggregation
/// passes); `None` when empty.
pub fn median_of(values: &[f64]) -> Option<f64> {
    let mut s = Samples::new();
    for &v in values {
        s.push(v);
    }
    s.median()
}

/// SplitMix64: a tiny seeded generator. The workload streams are drawn
/// from it so that one `--seed` always yields the same requests.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
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

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Exponential with the given mean (Poisson-process gaps).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

impl rand::RngCore for SplitMix {
    fn next_u32(&mut self) -> u32 {
        (SplitMix::next_u64(self) >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        SplitMix::next_u64(self)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = SplitMix::next_u64(self).to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// Zipf(s) over ranks `0..n`: rank `k` is drawn with weight `1/(k+1)^s`.
/// Sampling is a binary search of the precomputed CDF, so a given
/// generator state always yields the same rank.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over an empty set");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// One recorded span: a named interval, the request it belongs to, and
/// the span that caused it. Times are nanoseconds from the trace origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span, in the order given: its duration minus the
/// part of its interval that its children cover. Overlapping children
/// are merged first, and child time outside the parent is ignored.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u32, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children.entry(parent).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else { return s.duration_ns() };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank_on_exact_samples() {
        let mut s = Samples::new();
        for v in (1..=100).rev() {
            s.push(v as f64);
        }
        assert_eq!(s.percentile(50.0), Some(50.0));
        assert_eq!(s.percentile(99.0), Some(99.0));
        assert_eq!(s.percentile(100.0), Some(100.0));
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.percentile(0.5), Some(1.0));
        assert_eq!(Samples::new().median(), None);
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(percentile_sorted(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn zipf_is_deterministic_per_seed_and_skewed() {
        let zipf = Zipf::new(1000, 1.0);
        let draw = |seed| {
            let mut rng = SplitMix::new(seed);
            (0..5000).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let ranks = draw(7);
        assert!(ranks.iter().all(|&r| r < 1000));
        let top = ranks.iter().filter(|&&r| r == 0).count();
        let tail = ranks.iter().filter(|&&r| r == 999).count();
        // Rank 0 carries ~1/H(1000) ≈ 13 % of the mass; rank 999 ~0.013 %.
        assert!(top > 400 && top < 900, "rank 0 drawn {top} times");
        assert!(tail < 10, "rank 999 drawn {tail} times");
    }

    #[test]
    fn self_time_subtracts_merged_child_coverage() {
        let span = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            request: 0,
            name: "s",
            start_ns,
            end_ns,
        };
        let spans = vec![
            span(1, None, 0, 100),
            // Two overlapping children covering 10..40, one at 60..70, and
            // one poking past the parent's end (only 90..100 counts).
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 40),
            span(4, Some(1), 60, 70),
            span(5, Some(1), 90, 120),
            // A grandchild must not count against the root.
            span(6, Some(2), 12, 18),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 30 - 10 - 10);
        assert_eq!(selfs[1], 20 - 6);
        assert_eq!(selfs[2], 20);
        assert_eq!(selfs[5], 6);
    }
}
