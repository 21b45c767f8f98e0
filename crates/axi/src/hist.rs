//! The one latency histogram of the workspace.
//!
//! [`Hist`] carries every latency distribution: a row's per-direction
//! latency (`hbm_traffic::GenStats::read_lat` / `write_lat`), the
//! tracer's attribution components ([`crate::instrument::AttrHists`]),
//! and the metric registry's histogram series, whose lock-free recorder
//! (`hbm_core::metrics::Histo`) fills the same buckets through
//! [`bucket`] and snapshots to a `Hist`.
//!
//! * **Integer moments.** Count and Σv are `u64`. Σv² is a `u64` that
//!   saturates; [`Hist::std_dev`] is `None` once it has. Merging adds
//!   integers, so merge order never changes a bit.
//! * **One bucket rule.** Bucket 0 holds only zero, bucket `i` holds
//!   `[2^(i-1), 2^i)`, and the top bucket is open: it holds everything
//!   from `2^(HIST_BUCKETS - 2)` up.
//! * **Percentiles** are the upper edge `2^i − 1` of the bucket that holds
//!   the wanted rank, clamped to the observed max; in the open top bucket,
//!   the max itself. A percentile of samples ≥ 1 thus lies in
//!   `[true, 2·true)`.
//! * **Trimmed serde.** The bucket array is written up to its last
//!   non-empty bucket.

use serde::{Deserialize, Serialize};

/// Number of buckets: zero, 46 finite powers of two, and the open top.
pub const HIST_BUCKETS: usize = 48;

/// Index of the open top bucket.
const TOP: usize = HIST_BUCKETS - 1;

/// The bucket of `v`: 0 for zero, `floor(log2(v)) + 1` otherwise, capped
/// at the open top bucket.
#[inline]
pub fn bucket(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(TOP)
}

/// A power-of-two latency histogram with exact count, sum, min and max.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Hist {
    /// Sample count.
    pub n: u64,
    /// Σv.
    pub sum: u64,
    /// Σv², saturating at `u64::MAX`.
    pub sum_sq: u64,
    /// Smallest sample, 0 when empty.
    pub min: u64,
    /// Largest sample, 0 when empty.
    pub max: u64,
    /// Per-bucket counts (see [`bucket`]), saturating.
    #[serde(with = "trimmed")]
    pub buckets: [u32; HIST_BUCKETS],
}

/// The bucket array's one serde form: counts up to the last non-empty
/// bucket.
mod trimmed {
    use super::HIST_BUCKETS;
    use serde::de::Error;
    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    pub fn serialize<S: Serializer>(b: &[u32; HIST_BUCKETS], s: S) -> Result<S::Ok, S::Error> {
        let len = b.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
        b[..len].serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<[u32; HIST_BUCKETS], D::Error> {
        let v = Vec::<u32>::deserialize(d)?;
        if v.len() > HIST_BUCKETS {
            return Err(D::Error::custom("more buckets than a Hist holds"));
        }
        let mut out = [0; HIST_BUCKETS];
        out[..v.len()].copy_from_slice(&v);
        Ok(out)
    }
}

impl Default for Hist {
    fn default() -> Hist {
        Hist { n: 0, sum: 0, sum_sq: 0, min: 0, max: 0, buckets: [0; HIST_BUCKETS] }
    }
}

impl Hist {
    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.min = if self.n == 0 { v } else { self.min.min(v) };
        self.max = self.max.max(v);
        self.n += 1;
        self.sum += v;
        self.sum_sq = self.sum_sq.saturating_add(v.saturating_mul(v));
        let b = &mut self.buckets[bucket(v)];
        *b = b.saturating_add(1);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, o: &Hist) {
        if o.n == 0 {
            return;
        }
        self.min = if self.n == 0 { o.min } else { self.min.min(o.min) };
        self.max = self.max.max(o.max);
        self.n += o.n;
        self.sum += o.sum;
        self.sum_sq = self.sum_sq.saturating_add(o.sum_sq);
        for (a, b) in self.buckets.iter_mut().zip(&o.buckets) {
            *a = a.saturating_add(*b);
        }
    }

    /// Mean, or `None` with no samples.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then(|| self.sum as f64 / self.n as f64)
    }

    /// Population standard deviation, or `None` with no samples or once
    /// Σv² has saturated.
    pub fn std_dev(&self) -> Option<f64> {
        let mean = self.mean()?;
        if self.sum_sq == u64::MAX {
            return None;
        }
        let var = (self.sum_sq as f64 / self.n as f64 - mean * mean).max(0.0);
        Some(var.sqrt())
    }

    /// The value below which `q` of the samples fall (`q` in 0..=1): the
    /// upper edge of the bucket holding that rank, clamped to the max,
    /// or the max itself in the open top bucket. `None` with no samples.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.n == 0 {
            return None;
        }
        let want = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (i, &c) in self.buckets[..TOP].iter().enumerate() {
            seen += u64::from(c);
            if seen >= want {
                return Some(((1u64 << i) - 1).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Median.
    pub fn p50(&self) -> Option<u64> {
        self.percentile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> Option<u64> {
        self.percentile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<u64> {
        self.percentile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> Option<u64> {
        self.percentile(0.999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use serde::value::{from_value, to_value, Value, ValueDeserializer};

    fn of(samples: &[u64]) -> Hist {
        let mut h = Hist::default();
        for &v in samples {
            h.record(v);
        }
        h
    }

    /// Samples of every bit width from 0 to 49: zeros, every finite
    /// bucket and the open top, with Σv² saturating in some lists and
    /// not in others.
    fn samples() -> impl Strategy<Value = Vec<u64>> {
        prop::collection::vec(
            (0u32..50, any::<u64>()).prop_map(|(bits, r)| r.checked_shr(64 - bits).unwrap_or(0)),
            0..64,
        )
    }

    #[test]
    fn a_row_histogram_fits_in_232_bytes() {
        assert_eq!(std::mem::size_of::<Hist>(), 232);
    }

    #[test]
    fn bucket_zero_holds_only_zero_and_the_top_is_open() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!((bucket(2), bucket(3), bucket(4)), (2, 2, 3));
        assert_eq!(bucket((1 << 46) - 1), TOP - 1);
        assert_eq!(bucket(1 << 46), TOP);
        assert_eq!(bucket(u64::MAX), TOP);
    }

    #[test]
    fn moments_of_a_small_sample() {
        let h = of(&[2, 4, 4, 4, 5, 5, 7, 9]);
        assert_eq!(h.mean(), Some(5.0));
        assert_eq!(h.std_dev(), Some(2.0));
        assert_eq!((h.min, h.max), (2, 9));
        let one = of(&[42]);
        assert_eq!((one.mean(), one.std_dev(), one.min, one.max), (Some(42.0), Some(0.0), 42, 42));
        let empty = Hist::default();
        assert_eq!((empty.mean(), empty.std_dev(), empty.p50()), (None, None, None));
    }

    #[test]
    fn zeros_sort_first_and_read_exactly_zero() {
        let h = of(&[0, 0, 1, 2, 3, 5, 8, 13, 100, 1000]);
        assert_eq!(h.percentile(0.2), Some(0));
        assert_eq!(h.percentile(0.3), Some(1));
        assert_eq!(h.percentile(1.0), Some(1000));
        let (p50, p95, p99, p999) = (h.p50(), h.p95(), h.p99(), h.p999());
        assert!(p50 <= p95 && p95 <= p99 && p99 <= p999 && p999 <= Some(h.max));
    }

    /// 90 samples of 100 and 10 beyond the top bucket's floor: the p99
    /// is the observed max, not a finite edge the samples exceed.
    #[test]
    fn a_percentile_in_the_top_bucket_reads_the_max() {
        let mut h = Hist::default();
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(1 << 50);
        }
        assert_eq!(h.p50(), Some(127));
        assert_eq!(h.p99(), Some(1 << 50));
    }

    #[test]
    fn saturated_sum_of_squares_has_no_std_dev() {
        let h = of(&[1 << 40, 1 << 40]);
        assert_eq!(h.sum_sq, u64::MAX);
        assert_eq!(h.mean(), Some((1u64 << 40) as f64));
        assert_eq!(h.std_dev(), None);
    }

    #[test]
    fn serde_drops_trailing_empty_buckets() {
        let json = to_value(&of(&[3, 5])).to_string();
        assert_eq!(json, r#"{"n":2,"sum":8,"sum_sq":34,"min":3,"max":5,"buckets":[0,0,1,1]}"#);
        let too_long = Value::Seq(vec![Value::U64(0); HIST_BUCKETS + 1]);
        assert!(trimmed::deserialize(ValueDeserializer(too_long)).is_err());
    }

    proptest! {
        /// (a) Any split of a sample list, merged in any order, equals
        /// recording the whole list at once, Σv² saturation included.
        #[test]
        fn any_split_merged_in_any_order_equals_the_whole(
            v in samples(),
            cuts in prop::collection::vec(any::<usize>(), 0..4),
            order in any::<usize>(),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (v.len() + 1)).collect();
            cuts.sort_unstable();
            let mut parts = Vec::new();
            let mut start = 0;
            for end in cuts.into_iter().chain([v.len()]) {
                parts.push(of(&v[start..end]));
                start = end;
            }
            let k = parts.len();
            parts.rotate_left(order % k);
            if order / k % 2 == 1 {
                parts.reverse();
            }
            let mut merged = Hist::default();
            for p in &parts {
                merged.merge(p);
            }
            prop_assert_eq!(merged, of(&v));
        }

        /// (b) Against a sorted-sample oracle, each percentile of samples
        /// ≥ 1 lies in [true, 2·true), and in the top bucket equals the
        /// max.
        #[test]
        fn percentiles_lie_within_a_factor_two_of_the_oracle(
            v in samples().prop_map(|v| v.into_iter().map(|x| x.max(1)).collect::<Vec<_>>()),
            q in 0u32..=1000,
        ) {
            if v.is_empty() {
                continue;
            }
            let h = of(&v);
            let mut sorted = v.clone();
            sorted.sort_unstable();
            let q = f64::from(q) / 1000.0;
            let truth = sorted[((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1];
            let got = h.percentile(q).unwrap();
            if bucket(truth) == TOP {
                prop_assert_eq!(got, h.max);
            } else {
                prop_assert!(truth <= got && got / 2 < truth, "q {q}: {got} not in [{truth}, 2×{truth})");
            }
        }

        /// (d) Serde round trip, the empty histogram and top-bucket
        /// samples included.
        #[test]
        fn serde_round_trips(v in samples(), top in any::<bool>()) {
            let mut h = of(&v);
            if top {
                h.record(u64::MAX >> 1);
            }
            for h in [h, Hist::default()] {
                prop_assert_eq!(from_value::<Hist>(to_value(&h)).unwrap(), h);
            }
        }
    }
}
