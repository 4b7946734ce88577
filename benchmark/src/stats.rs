//! Order statistics: percentiles of raw samples and the median-of-slices
//! summary every timed metric is reported as.

/// The `q`-quantile (`0 <= q <= 1`) of `sorted` by linear interpolation
/// between closest ranks; `None` when there are no samples.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let rank = q.clamp(0.0, 1.0) * last as f64;
    let below = rank.floor() as usize;
    let above = rank.ceil() as usize;
    let weight = rank - below as f64;
    Some(sorted[below] + (sorted[above] - sorted[below]) * weight)
}

/// Sorts `samples` in place and returns their `q`-quantile.
pub fn percentile(samples: &mut [f64], q: f64) -> Option<f64> {
    samples.sort_by(f64::total_cmp);
    percentile_sorted(samples, q)
}

/// How one metric read over the slices (or rounds) of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Median of the samples: the reported value.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// The samples themselves, sorted.
    pub samples: Vec<f64>,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(mut samples: Vec<f64>) -> Option<Self> {
        samples.sort_by(f64::total_cmp);
        Some(Self {
            median: percentile_sorted(&samples, 0.5)?,
            q1: percentile_sorted(&samples, 0.25)?,
            q3: percentile_sorted(&samples, 0.75)?,
            samples,
        })
    }

    /// Inter-quartile range as a share of the median (0 for a zero median).
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        self.samples.last().copied().unwrap_or(0.0)
    }
}

/// Sub-buckets per power of two of a [`Histogram`]: values are resolved to
/// 1 part in 64.
const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Values at or above `2^MAX_BITS` ns (18 minutes) land in the last bucket.
const MAX_BITS: u32 = 40;
const BUCKETS: usize = (MAX_BITS - SUB_BITS + 1) as usize * SUB;

/// A fixed-size histogram of nanosecond latencies with 1.6 % resolution.
///
/// Load threads record every completed event.  A list of samples would grow
/// with the throughput of the system under test and show up in its
/// `peak_rss_mb`; this takes 9 KiB whatever the throughput, and two of them
/// add up bucket by bucket.
#[derive(Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Histogram({} samples)", self.total)
    }
}

impl Histogram {
    /// Bucket of `ns`: exact below `2^SUB_BITS`, then `SUB` buckets per
    /// power of two.
    fn bucket(ns: u64) -> usize {
        let ns = ns.min((1 << MAX_BITS) - 1);
        let top = 63 - (ns | 1).leading_zeros();
        if top < SUB_BITS {
            ns as usize
        } else {
            let shift = top - SUB_BITS;
            (shift as usize + 1) * SUB + ((ns >> shift) as usize & (SUB - 1))
        }
    }

    /// Smallest value of bucket `index` and the bucket's width.
    fn bounds(index: usize) -> (f64, f64) {
        if index < SUB {
            (index as f64, 1.0)
        } else {
            let shift = (index / SUB - 1) as u32;
            let low = ((SUB + index % SUB) as u64) << shift;
            (low as f64, (1u64 << shift) as f64)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Adds the samples of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// The `q`-quantile in nanoseconds, interpolated inside its bucket;
    /// `None` when there are no samples.
    pub fn percentile_ns(&self, q: f64) -> Option<f64> {
        let last = self.total.checked_sub(1)?;
        let rank = q.clamp(0.0, 1.0) * last as f64;
        let mut before = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            if count > 0 && rank < (before + u64::from(count)) as f64 {
                let (low, width) = Self::bounds(index);
                let inside = (rank - before as f64 + 0.5) / f64::from(count);
                return Some(low + width * inside);
            }
            before += u64::from(count);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_are_within_its_resolution_of_the_exact_ones() {
        // A heavy-tailed sample: mostly ~200 us, a few at tens of ms.
        let mut exact = Vec::new();
        let mut histogram = Histogram::default();
        let mut x = 12345u64;
        for i in 0..50_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let ns = 150_000 + (x >> 40) % 100_000 + if i % 97 == 0 { 20_000_000 } else { 0 };
            exact.push(ns as f64);
            histogram.record(ns);
        }
        assert_eq!(histogram.len(), 50_000);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let want = percentile(&mut exact, q).unwrap();
            let got = histogram.percentile_ns(q).unwrap();
            assert!((got - want).abs() <= want / 64.0, "q {q}: {got} vs {want}");
        }
        assert_eq!(Histogram::default().percentile_ns(0.5), None);
    }

    #[test]
    fn histograms_merge_bucket_by_bucket_and_clamp_huge_values() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for ns in [5, 40, 1_000] {
            a.record(ns);
        }
        for ns in [2_000_000, u64::MAX] {
            b.record(ns);
        }
        a.merge(&b);
        assert_eq!(a.len(), 5);
        // Small values are exact; the median sample is the 1 us one.
        assert_eq!(a.percentile_ns(0.0), Some(5.5));
        let median = a.percentile_ns(0.5).unwrap();
        assert!((median - 1_000.0).abs() <= 1_000.0 / 64.0);
        assert!(a.percentile_ns(1.0).unwrap() < (1u64 << MAX_BITS) as f64);
        // Every bucket starts where the one before it ends.
        for index in 1..BUCKETS {
            let (low, _) = Histogram::bounds(index);
            let (before, width) = Histogram::bounds(index - 1);
            assert_eq!(before + width, low, "bucket {index}");
        }
        for ns in [0, 63, 64, 65, 127, 128, 1_000_003, (1 << MAX_BITS) - 1] {
            let (low, width) = Histogram::bounds(Histogram::bucket(ns));
            assert!(low <= ns as f64 && (ns as f64) < low + width, "{ns}");
        }
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&mut v, 0.0), Some(1.0));
        assert_eq!(percentile(&mut v, 1.0), Some(4.0));
        assert_eq!(percentile(&mut v, 0.5), Some(2.5));
        assert_eq!(percentile(&mut v, 0.25), Some(1.75));
        assert_eq!(percentile(&mut [], 0.5), None);
        assert_eq!(percentile(&mut [7.0], 0.99), Some(7.0));
    }

    #[test]
    fn p99_of_a_thousand_has_ten_beyond_it() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&mut v, 0.99).unwrap();
        assert_eq!(v.iter().filter(|x| **x > p99).count(), 10);
    }

    #[test]
    fn summary_is_the_median_of_slices_not_their_mean() {
        // One slow slice (a stall of the shared host) must not move the
        // reported value the way it moves a whole-run mean.
        let s = Summary::of(vec![100.0, 101.0, 99.0, 100.0, 10.0]).unwrap();
        assert_eq!(s.median, 100.0);
        assert_eq!(s.q1, 99.0);
        assert_eq!(s.q3, 100.0);
        assert_eq!(s.max(), 101.0);
        assert!((s.iqr_share() - 0.01).abs() < 1e-12);
        assert!(Summary::of(Vec::new()).is_none());
    }
}
