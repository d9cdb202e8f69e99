//! Measurement and error-metric helpers used by the evaluation harness.
//!
//! The paper reports averages, percentiles (Figure 9), mean squared errors
//! (Table 3, Table 4), deviation-from-baseline percentages (Figures 5 and 7)
//! and throughput time series (Figures 6 and 8). The types in this module
//! compute all of those from raw samples.

use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimTime};
use crate::units::DataSize;

/// A collection of scalar samples with summary statistics.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct Summary {
    samples: Vec<f64>,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary::default()
    }

    /// Adds a sample.
    pub fn record(&mut self, value: f64) {
        self.samples.push(value);
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Population variance, or 0 if empty.
    pub fn variance(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mean = self.mean();
        self.samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / self.samples.len() as f64
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum sample, or 0 if empty.
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    /// Maximum sample, or 0 if empty.
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        }
    }

    /// The `p`-th percentile (0-100) using nearest-rank on sorted samples.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }

    /// Median (50th percentile).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// All samples recorded so far.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// A bounded ring buffer of the most recent samples with lossless running
/// aggregates.
///
/// Long-lived telemetry accumulation (a session streaming flow samples for
/// hours) cannot keep every sample the way [`Summary`] does: memory here
/// stays `O(capacity)` while `count`/`mean`/`min`/`max` remain exact over
/// the whole lifetime. Percentiles are computed over the retained window —
/// exact until the ring wraps, recent-window estimates afterwards (pair
/// with a [`Histogram`] when a whole-lifetime percentile is needed past
/// the wrap point, as the scenario telemetry aggregator does).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SampleSet {
    capacity: usize,
    ring: Vec<f64>,
    head: usize,
    total: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl SampleSet {
    /// Creates a set retaining at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        SampleSet {
            capacity,
            ring: Vec::new(),
            head: 0,
            total: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records a sample, evicting the oldest retained one when full.
    pub fn record(&mut self, value: f64) {
        if self.ring.len() < self.capacity {
            self.ring.push(value);
        } else {
            self.ring[self.head] = value;
            self.head = (self.head + 1) % self.capacity;
        }
        self.total += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples currently retained in the window.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Total samples recorded over the set's lifetime, evicted included.
    pub fn total_count(&self) -> u64 {
        self.total
    }

    /// Samples that have been evicted from the window (`0` until the ring
    /// wraps — while it is `0`, [`SampleSet::percentile`] is exact).
    pub fn dropped(&self) -> u64 {
        self.total - self.ring.len() as u64
    }

    /// Lifetime arithmetic mean (all samples, evicted included), or 0 if
    /// empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Lifetime minimum, or 0 if empty.
    pub fn min(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Lifetime maximum, or 0 if empty.
    pub fn max(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The `p`-th percentile (0-100) over the retained window, nearest-rank
    /// on the sorted samples; 0 if empty. Exact while
    /// [`SampleSet::dropped`] is 0.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.ring.is_empty() {
            return 0.0;
        }
        let mut sorted = self.ring.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }
}

/// A fixed-bucket-width histogram for latency-style measurements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    bucket_width: f64,
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Creates a histogram with the given bucket width and upper bound;
    /// values above the bound land in the final (overflow) bucket.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` or `upper_bound` is not strictly positive.
    pub fn new(bucket_width: f64, upper_bound: f64) -> Self {
        assert!(bucket_width > 0.0, "bucket width must be positive");
        assert!(upper_bound > 0.0, "upper bound must be positive");
        let n = (upper_bound / bucket_width).ceil() as usize + 1;
        Histogram {
            bucket_width,
            buckets: vec![0; n],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records a value (negative values clamp to zero).
    pub fn record(&mut self, value: f64) {
        let v = value.max(0.0);
        let idx = ((v / self.bucket_width) as usize).min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded values, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Minimum recorded value, or 0 if empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum recorded value, or 0 if empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Approximate `p`-th percentile (0-100) from the bucket boundaries.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (p.clamp(0.0, 100.0) / 100.0 * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return (i as f64 + 1.0) * self.bucket_width;
            }
        }
        self.max
    }
}

/// A point in a throughput/latency time series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimePoint {
    /// When the sample was taken.
    pub time: SimTime,
    /// The sampled value.
    pub value: f64,
}

/// A time series of scalar samples (e.g. Mb/s per second of an iPerf run).
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct TimeSeries {
    points: Vec<TimePoint>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Appends a sample taken at `time`.
    pub fn record(&mut self, time: SimTime, value: f64) {
        self.points.push(TimePoint { time, value });
    }

    /// The recorded points in insertion order.
    pub fn points(&self) -> &[TimePoint] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Mean of all values, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            0.0
        } else {
            self.points.iter().map(|p| p.value).sum::<f64>() / self.points.len() as f64
        }
    }

    /// Mean of the values whose timestamps fall in `[from, to)`.
    pub fn mean_between(&self, from: SimTime, to: SimTime) -> f64 {
        let vals: Vec<f64> = self
            .points
            .iter()
            .filter(|p| p.time >= from && p.time < to)
            .map(|p| p.value)
            .collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }
}

/// Measures an average rate over fixed windows from byte-count increments.
///
/// The windows lie on a grid of multiples of `window`, starting at the one
/// that holds the metered flow's start. Every window before it ends at or
/// before the start, would read 0 and is not recorded, so a meter's series
/// and its `roll` work grow with the flow's own lifetime, not with the time
/// that passed before it began.
#[derive(Debug, Clone)]
pub struct RateMeter {
    window: SimDuration,
    window_start: SimTime,
    bytes_in_window: DataSize,
    total_bytes: DataSize,
    series: TimeSeries,
}

impl RateMeter {
    /// Creates a meter that reports one averaged rate sample per `window`,
    /// for a flow whose first instant is `start`: the first sample closes
    /// the grid window that holds `start`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: SimDuration, start: SimTime) -> Self {
        let offset = start.as_nanos() % window.as_nanos();
        RateMeter {
            window,
            window_start: SimTime::from_nanos(start.as_nanos() - offset),
            bytes_in_window: DataSize::ZERO,
            total_bytes: DataSize::ZERO,
            series: TimeSeries::new(),
        }
    }

    /// Accounts `bytes` delivered at time `now`, closing windows as needed.
    pub fn record(&mut self, now: SimTime, bytes: DataSize) {
        self.roll(now);
        self.bytes_in_window += bytes;
        self.total_bytes += bytes;
    }

    /// Closes any windows that ended before `now` (recording their averages)
    /// without adding new bytes.
    pub fn roll(&mut self, now: SimTime) {
        while now >= self.window_start + self.window {
            let rate = self.bytes_in_window.rate_over(self.window);
            self.series
                .record(self.window_start + self.window, rate.as_mbps());
            self.bytes_in_window = DataSize::ZERO;
            self.window_start += self.window;
        }
    }

    /// Total bytes recorded over the meter's lifetime.
    pub fn total_bytes(&self) -> DataSize {
        self.total_bytes
    }

    /// The per-window rate series in Mb/s.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }
}

/// Mean squared error between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn mean_squared_error(observed: &[f64], expected: &[f64]) -> f64 {
    assert_eq!(observed.len(), expected.len(), "length mismatch");
    if observed.is_empty() {
        return 0.0;
    }
    observed
        .iter()
        .zip(expected)
        .map(|(o, e)| (o - e).powi(2))
        .sum::<f64>()
        / observed.len() as f64
}

/// Relative deviation `|1 - observed/baseline|` expressed as a percentage,
/// the error metric of Figures 5 and 7. Returns 0 when the baseline is 0.
pub fn deviation_percent(observed: f64, baseline: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        (1.0 - observed / baseline).abs() * 100.0
    }
}

/// Signed relative error `(observed - expected) / expected` as a percentage,
/// the format of Table 2 ("122 (-5%)"). Returns 0 when `expected` is 0.
pub fn relative_error_percent(observed: f64, expected: f64) -> f64 {
    if expected == 0.0 {
        0.0
    } else {
        (observed - expected) / expected * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics() {
        let mut s = Summary::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(v);
        }
        assert_eq!(s.len(), 8);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.std_dev(), 2.0);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.median(), 5.0);
    }

    #[test]
    fn summary_empty_is_zero() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.percentile(99.0), 0.0);
    }

    #[test]
    fn summary_percentiles() {
        let mut s = Summary::new();
        for i in 1..=100 {
            s.record(i as f64);
        }
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 100.0);
        let p90 = s.percentile(90.0);
        assert!((89.0..=91.0).contains(&p90), "p90 = {p90}");
    }

    #[test]
    fn histogram_counts_and_percentiles() {
        let mut h = Histogram::new(1.0, 100.0);
        for i in 1..=100 {
            h.record(i as f64);
        }
        assert_eq!(h.count(), 100);
        assert!((h.mean() - 50.5).abs() < 1e-9);
        let p50 = h.percentile(50.0);
        assert!((49.0..=52.0).contains(&p50), "p50 = {p50}");
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 100.0);
    }

    #[test]
    fn histogram_overflow_bucket() {
        let mut h = Histogram::new(1.0, 10.0);
        h.record(1000.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 1000.0);
        assert!(h.percentile(99.0) >= 10.0);
    }

    #[test]
    fn sample_set_empty_is_zero() {
        let s = SampleSet::new(8);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.total_count(), 0);
        assert_eq!(s.dropped(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.percentile(0.0), 0.0);
        assert_eq!(s.percentile(50.0), 0.0);
        assert_eq!(s.percentile(100.0), 0.0);
    }

    #[test]
    fn sample_set_single_sample_is_every_percentile() {
        let mut s = SampleSet::new(8);
        s.record(42.0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.mean(), 42.0);
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(s.percentile(p), 42.0, "p{p}");
        }
    }

    #[test]
    fn sample_set_p0_and_p100_are_window_extremes() {
        let mut s = SampleSet::new(128);
        for i in 1..=100 {
            s.record(i as f64);
        }
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 100.0);
        // Out-of-range p clamps instead of indexing out of bounds.
        assert_eq!(s.percentile(-5.0), 1.0);
        assert_eq!(s.percentile(250.0), 100.0);
        let p90 = s.percentile(90.0);
        assert!((89.0..=91.0).contains(&p90), "p90 = {p90}");
    }

    #[test]
    fn sample_set_ring_evicts_oldest_but_keeps_lifetime_aggregates() {
        let mut s = SampleSet::new(4);
        for i in 1..=10 {
            s.record(i as f64);
        }
        // Window holds 7..=10; lifetime aggregates still cover 1..=10.
        assert_eq!(s.len(), 4);
        assert_eq!(s.total_count(), 10);
        assert_eq!(s.dropped(), 6);
        assert_eq!(s.mean(), 5.5);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 10.0);
        assert_eq!(s.percentile(0.0), 7.0);
        assert_eq!(s.percentile(100.0), 10.0);
    }

    #[test]
    fn summary_single_sample_is_every_percentile() {
        let mut s = Summary::new();
        s.record(7.5);
        for p in [0.0, 50.0, 90.0, 100.0] {
            assert_eq!(s.percentile(p), 7.5, "p{p}");
        }
    }

    /// For in-range values the histogram percentile reports a bucket upper
    /// edge: at most one bucket width above the true sample, plus at most
    /// one more width when its ceil-rank and the exact nearest-rank
    /// straddle a bucket boundary — a two-bucket-width error bound.
    #[test]
    fn histogram_percentile_error_is_bounded_by_bucket_width() {
        let width = 2.5;
        let mut h = Histogram::new(width, 100.0);
        let mut exact = Summary::new();
        for i in 1..=1000 {
            let v = (i % 97) as f64 + 0.37;
            h.record(v);
            exact.record(v);
        }
        for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let approx = h.percentile(p);
            let truth = exact.percentile(p);
            assert!(
                (approx - truth).abs() <= 2.0 * width,
                "p{p}: histogram {approx} vs exact {truth} (width {width})"
            );
        }
    }

    /// Values past the upper bound collapse into the single overflow
    /// bucket: percentiles that land there report the overflow boundary
    /// (the approximation floor), while min/max stay exact.
    #[test]
    fn histogram_overflow_bucket_percentile_approximation() {
        let width = 1.0;
        let upper = 10.0;
        let mut h = Histogram::new(width, upper);
        for v in [1.0, 2.0, 3.0, 500.0, 1000.0] {
            h.record(v);
        }
        // p100 lands in the overflow bucket: the reported value is its
        // upper edge — bounded, never the (unknowable) raw overflow value.
        let p100 = h.percentile(100.0);
        assert!(
            p100 >= upper && p100 <= upper + 2.0 * width,
            "overflow percentile {p100} must clamp near the bound {upper}"
        );
        // Percentiles below the overflow mass stay exact to bucket width.
        assert!((h.percentile(40.0) - 2.0).abs() <= width);
        // Exact extremes survive aggregation.
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 1000.0);
    }

    #[test]
    fn time_series_window_mean() {
        let mut ts = TimeSeries::new();
        for sec in 0..10 {
            ts.record(SimTime::from_secs(sec), sec as f64);
        }
        assert_eq!(ts.len(), 10);
        assert_eq!(ts.mean(), 4.5);
        assert_eq!(
            ts.mean_between(SimTime::from_secs(2), SimTime::from_secs(5)),
            3.0
        );
    }

    #[test]
    fn rate_meter_windows() {
        let mut m = RateMeter::new(SimDuration::from_secs(1), SimTime::ZERO);
        // 1 MB in the first second, 2 MB in the second.
        m.record(SimTime::from_millis(500), DataSize::from_megabytes(1));
        m.record(SimTime::from_millis(1_500), DataSize::from_megabytes(2));
        m.roll(SimTime::from_secs(3));
        let pts = m.series().points();
        assert_eq!(pts.len(), 3);
        assert!((pts[0].value - 8.0).abs() < 1e-9, "first window 8 Mb/s");
        assert!((pts[1].value - 16.0).abs() < 1e-9, "second window 16 Mb/s");
        assert_eq!(pts[2].value, 0.0);
        assert_eq!(m.total_bytes().as_bytes(), 3_000_000);
    }

    /// A meter started inside a window records from that window on, and
    /// each sample equals what a meter started at 0 records for it: only
    /// the zero windows wholly before the start are left out.
    #[test]
    fn rate_meter_grid_starts_at_the_window_holding_the_start() {
        let window = SimDuration::from_secs(1);
        let start = SimTime::from_millis(3_250);
        let mut late = RateMeter::new(window, start);
        let mut early = RateMeter::new(window, SimTime::ZERO);
        for (ms, mb) in [(3_400, 1), (4_100, 2), (6_900, 3)] {
            let at = SimTime::from_millis(ms);
            late.record(at, DataSize::from_megabytes(mb));
            early.record(at, DataSize::from_megabytes(mb));
        }
        late.roll(SimTime::from_secs(8));
        early.roll(SimTime::from_secs(8));
        let times: Vec<u64> = late
            .series()
            .points()
            .iter()
            .map(|p| p.time.as_millis())
            .collect();
        assert_eq!(times, [4_000, 5_000, 6_000, 7_000, 8_000]);
        let (skipped, kept) = early.series().points().split_at(3);
        assert!(skipped.iter().all(|p| p.value == 0.0 && p.time <= start));
        assert_eq!(kept, late.series().points());
        assert_eq!(late.total_bytes(), early.total_bytes());
        // A start on a grid line opens that line's window.
        let mut aligned = RateMeter::new(window, SimTime::from_secs(2));
        aligned.roll(SimTime::from_secs(3));
        assert_eq!(aligned.series().points()[0].time, SimTime::from_secs(3));
    }

    #[test]
    fn error_metrics() {
        assert_eq!(mean_squared_error(&[1.0, 2.0], &[1.0, 4.0]), 2.0);
        assert_eq!(deviation_percent(95.0, 100.0), 5.000000000000004);
        assert_eq!(relative_error_percent(122.0, 128.0), -4.6875);
        assert_eq!(deviation_percent(10.0, 0.0), 0.0);
        assert_eq!(relative_error_percent(10.0, 0.0), 0.0);
    }

    #[test]
    #[should_panic]
    fn mse_length_mismatch_panics() {
        let _ = mean_squared_error(&[1.0], &[1.0, 2.0]);
    }
}
