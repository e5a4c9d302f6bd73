//! Metric primitives: monotonic counters, point-in-time gauges, and
//! log2-bucketed histograms, collected in a [`MetricsRegistry`].
//!
//! Names are free-form dotted strings (`"fed_knn.fagin.enc_instances"`);
//! the registry stores them in sorted order so snapshots and JSON exports
//! are deterministic regardless of recording order.

use std::collections::BTreeMap;

/// Number of histogram buckets. Bucket 0 holds values in `[0, 1)`; bucket
/// `i >= 1` holds values in `[2^(i-1), 2^i)`; the last bucket absorbs
/// everything larger.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A fixed-shape histogram over non-negative values (op timings in
/// microseconds are the intended payload). Power-of-two buckets keep
/// recording allocation-free and O(1).
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl Histogram {
    /// Records one observation. Negative values clamp to 0; non-finite
    /// values are dropped.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        let v = value.max(0.0);
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[Self::bucket(v)] += 1;
    }

    fn bucket(v: f64) -> usize {
        if v < 1.0 {
            0
        } else {
            (v.log2() as usize + 1).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation, `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean, `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// The raw bucket counts.
    #[must_use]
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }
}

/// A named collection of counters, gauges, and histograms.
///
/// A registry is plain data: the global capture in the crate root owns one
/// behind its single lock, and tests can use a standalone instance
/// directly.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Adds `delta` to the (monotonic) counter `name`, creating it at 0.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += delta;
    }

    /// Sets gauge `name` to `value` (last write wins).
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// Records `value` into histogram `name`, creating it when absent.
    pub fn histogram_record(&mut self, name: &str, value: f64) {
        self.histograms.entry(name.to_owned()).or_default().record(value);
    }

    /// Current value of counter `name` (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of gauge `name`.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram `name`, if anything has been recorded into it.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, sorted by name.
    #[must_use]
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// All gauges, sorted by name.
    #[must_use]
    pub fn gauges(&self) -> &BTreeMap<String, f64> {
        &self.gauges
    }

    /// All histograms, sorted by name.
    #[must_use]
    pub fn histograms(&self) -> &BTreeMap<String, Histogram> {
        &self.histograms
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::default();
        m.counter_add("a.b", 2);
        m.counter_add("a.b", 3);
        assert_eq!(m.counter("a.b"), 5);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn gauges_overwrite() {
        let mut m = MetricsRegistry::default();
        m.gauge_set("g", 1.5);
        m.gauge_set("g", 2.5);
        assert_eq!(m.gauge("g"), Some(2.5));
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::default();
        h.record(0.2); // bucket 0: [0, 1)
        h.record(1.0); // bucket 1: [1, 2)
        h.record(3.0); // bucket 2: [2, 4)
        h.record(1e30); // clamps into the last bucket
        assert_eq!(h.count(), 4);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[2], 1);
        assert_eq!(h.buckets()[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(h.min(), Some(0.2));
        assert_eq!(h.max(), Some(1e30));
    }

    #[test]
    fn histogram_ignores_non_finite_and_clamps_negative() {
        let mut h = Histogram::default();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 0);
        h.record(-5.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), Some(0.0));
    }

    #[test]
    fn empty_registry_reports_empty() {
        let m = MetricsRegistry::default();
        assert!(m.is_empty());
        assert!(m.gauge("x").is_none());
        assert!(m.histogram("x").is_none());
    }

    #[test]
    fn histograms_are_listed_by_name_with_their_stats() {
        let mut m = MetricsRegistry::default();
        m.histogram_record("z.lat_us", 3.0);
        m.histogram_record("a.lat_us", 1.0);
        m.histogram_record("a.lat_us", 5.0);
        let names: Vec<&str> = m.histograms().keys().map(String::as_str).collect();
        assert_eq!(names, ["a.lat_us", "z.lat_us"]);
        let a = &m.histograms()["a.lat_us"];
        assert_eq!((a.count(), a.sum(), a.mean()), (2, 6.0, Some(3.0)));
        assert!(m.counters().is_empty() && m.gauges().is_empty());
        assert!(!m.is_empty());
        assert_eq!(Histogram::default().mean(), None);
    }
}
