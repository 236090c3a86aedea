//! Tail-accurate latency accumulation.
//!
//! Per-request latencies need percentiles up to p999 across many runs
//! without carrying every sample through the cache and telemetry merge.
//! [`TailHistogram`] combines two order-independent structures:
//!
//! * a log-scale histogram — values below 16 ns are exact, larger values
//!   land in buckets of 16 sub-divisions per power of two, so a quantile
//!   read off a bucket's upper bound overestimates the exact sample by at
//!   most a factor of 1/16 (6.25%) and never underestimates it;
//! * an exact reservoir of the largest [`TOP_K`] samples — the extreme
//!   tail (where log-bucket error would be most visible in absolute
//!   nanoseconds) is answered exactly as long as the queried rank falls
//!   within the reservoir.
//!
//! Merging two histograms sums bucket counts and keeps the largest
//! `TOP_K` of the union, both commutative and associative, so folding
//! per-run histograms in slot order yields the same result at any
//! worker count.

use nest_simcore::json::{self, Json};
use nest_simcore::snap::{self, Snap};

/// Sub-buckets per power of two; also the reciprocal of the worst-case
/// relative quantile error.
const SUBBUCKETS: u64 = 16;

/// Number of exact largest samples retained.
pub const TOP_K: usize = 1024;

/// Maps a value to its bucket index.
fn bucket_index(v: u64) -> usize {
    if v < SUBBUCKETS {
        return v as usize;
    }
    let e = 63 - v.leading_zeros() as u64;
    let sub = (v >> (e - 4)) & (SUBBUCKETS - 1);
    ((e - 3) * SUBBUCKETS + sub) as usize
}

/// The largest value mapping to bucket `index` (the estimate a quantile
/// read returns).
fn bucket_upper(index: usize) -> u64 {
    let index = index as u64;
    if index < 2 * SUBBUCKETS {
        // Buckets 0..31 are exact: 16..31 have e = 4, width 1.
        return index;
    }
    let e = index / SUBBUCKETS + 3;
    let sub = index % SUBBUCKETS;
    // The topmost bucket's exclusive bound is 2^64; the wrap yields the
    // correct inclusive u64::MAX.
    ((SUBBUCKETS + sub + 1) << (e - 4)).wrapping_sub(1)
}

/// A mergeable log-scale histogram with an exact top-`K` reservoir.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TailHistogram {
    /// Per-bucket sample counts, trailing zeros trimmed.
    pub counts: Vec<u64>,
    /// Total samples recorded.
    pub total: u64,
    /// Sum of all samples (for the mean).
    pub sum: u64,
    /// The largest [`TOP_K`] samples, ascending.
    pub topk: Vec<u64>,
}

impl TailHistogram {
    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let i = bucket_index(v);
        if self.counts.len() <= i {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(v);
        if self.topk.len() < TOP_K || v > self.topk[0] {
            let pos = self.topk.partition_point(|x| *x < v);
            self.topk.insert(pos, v);
            if self.topk.len() > TOP_K {
                self.topk.remove(0);
            }
        }
    }

    /// Folds `other` in: bucket-wise count sums plus the largest `TOP_K`
    /// of the combined reservoirs. Merge order never changes the result.
    pub fn merge(&mut self, other: &TailHistogram) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (d, s) in self.counts.iter_mut().zip(&other.counts) {
            *d += s;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
        let mut all = std::mem::take(&mut self.topk);
        all.extend_from_slice(&other.topk);
        all.sort_unstable();
        if all.len() > TOP_K {
            all.drain(..all.len() - TOP_K);
        }
        self.topk = all;
    }

    /// Number of samples recorded.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// `true` with no samples.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Mean sample value, or `None` with no samples.
    pub fn mean(&self) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        Some(self.sum as f64 / self.total as f64)
    }

    /// The `q`-quantile by nearest rank (the [`crate::WakeupLatencies`]
    /// convention), or `None` with no samples.
    ///
    /// Ranks inside the top-`K` reservoir are exact; lower ranks return
    /// their bucket's upper bound, so the estimate `est` of an exact
    /// sample `x` satisfies `x ≤ est ≤ x·(1 + 1/16)`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let from_top = self.total - rank;
        if (from_top as usize) < self.topk.len() {
            return Some(self.topk[self.topk.len() - 1 - from_top as usize]);
        }
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Some(bucket_upper(i));
            }
        }
        unreachable!("rank {rank} beyond recorded total {}", self.total)
    }
}

impl Snap for TailHistogram {
    fn save(&self) -> Json {
        json::obj(vec![
            ("counts", self.counts.save()),
            ("total", self.total.save()),
            ("sum", self.sum.save()),
            ("topk", self.topk.save()),
        ])
    }

    /// Rebuilds a saved histogram, rejecting a reservoir over the cap or
    /// out of order.
    fn load(state: &Json) -> Result<TailHistogram, String> {
        let topk: Vec<u64> = snap::load(state, "topk")?;
        if topk.len() > TOP_K {
            return Err(format!(
                "histogram reservoir carries {} samples, the cap is {TOP_K}",
                topk.len()
            ));
        }
        if !topk.windows(2).all(|w| w[0] <= w[1]) {
            return Err("histogram reservoir is not sorted".to_string());
        }
        Ok(TailHistogram {
            counts: snap::load(state, "counts")?,
            total: snap::load(state, "total")?,
            sum: snap::load(state, "sum")?,
            topk,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_consistent() {
        // Highest index: e = 63, sub = 15 → 975.
        assert_eq!(bucket_index(u64::MAX), 975);
        for v in [0, 1, 15, 16, 31, 32, 100, 4096, u64::MAX / 2, u64::MAX] {
            let i = bucket_index(v);
            assert!(bucket_upper(i) >= v, "upper({i}) < {v}");
            if i > 0 {
                assert!(bucket_upper(i - 1) < v, "bucket {i} not minimal for {v}");
            }
        }
        // Small values are exact.
        for v in 0..32 {
            assert_eq!(bucket_upper(bucket_index(v)), v);
        }
    }

    #[test]
    fn small_sets_are_exact_via_reservoir() {
        let mut h = TailHistogram::default();
        for v in [9000, 17, 3, 123_456_789, 500] {
            h.record(v);
        }
        assert_eq!(h.len(), 5);
        assert_eq!(h.quantile(0.0), Some(3));
        assert_eq!(h.quantile(0.5), Some(500));
        assert_eq!(h.quantile(1.0), Some(123_456_789));
        assert_eq!(
            h.mean(),
            Some((9000 + 17 + 3 + 123_456_789 + 500) as f64 / 5.0)
        );
    }

    #[test]
    fn quantile_error_is_bounded() {
        // More samples than TOP_K so low quantiles exercise the
        // histogram path.
        let mut h = TailHistogram::default();
        let mut exact: Vec<u64> = Vec::new();
        let mut rng = nest_simcore::SimRng::new(99);
        for _ in 0..5000 {
            let v = rng.exponential(2_000_000.0) as u64;
            h.record(v);
            exact.push(v);
        }
        exact.sort_unstable();
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
            let x = exact[rank - 1];
            let est = h.quantile(q).unwrap();
            assert!(est >= x, "q={q}: {est} < exact {x}");
            assert!(est <= x + x / 16 + 1, "q={q}: {est} too far above {x}");
        }
    }

    #[test]
    fn merge_is_order_independent_and_matches_single_stream() {
        let mut rng = nest_simcore::SimRng::new(7);
        let samples: Vec<u64> = (0..4000).map(|_| rng.uniform_u64(0, 50_000_000)).collect();
        let mut whole = TailHistogram::default();
        let mut a = TailHistogram::default();
        let mut b = TailHistogram::default();
        for (i, &v) in samples.iter().enumerate() {
            whole.record(v);
            if i % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab, whole);
    }

    #[test]
    fn empty_histogram_answers_none() {
        let h = TailHistogram::default();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
    }
}
