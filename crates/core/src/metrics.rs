//! Cluster-wide metrics registry: counters, gauges, and histograms.
//!
//! The registry is the engine's *self-monitoring* surface: where a
//! [`crate::profile::QueryProfile`] explains one query, the registry
//! aggregates across all queries and the fabric — dispatcher queue depth,
//! admission wait, active queries, scheduler barrier rounds, per-link
//! bytes. Instruments are cheap lock-free atomics handed out as `Arc`s;
//! the registry itself is only locked to create or enumerate them.
//!
//! [`Session::metrics`](crate::session::Session::metrics) snapshots the
//! registry into a plain-data [`MetricsSnapshot`] that the CLI prints and
//! tests assert on.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous level that can move both ways (queue depths, active
/// queries).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Increment by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrement by one.
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Set to an absolute value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

const BUCKETS: usize = 64;

/// Log₂-bucketed histogram of non-negative integer observations
/// (microsecond latencies, byte sizes).
///
/// Observation `v` lands in bucket `bits(v)` — the number of significant
/// bits — so bucket `i > 0` covers `[2^(i−1), 2^i)`. Quantiles are
/// approximated by each bucket's upper bound, biasing *up* (pessimistic):
/// good enough for spotting regressions without storing samples.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    fn bucket_of(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// Record one observation.
    pub fn observe(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Plain-data copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Plain-data copy of a [`Histogram`].
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Log₂ bucket counts (`buckets[i]` covers `[2^(i−1), 2^i)`).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q ∈ [0, 1]`: the upper bound of the bucket
    /// holding the q-th observation (0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = if i == 0 { 0 } else { (1u64 << i) - 1 };
                return upper.min(self.max);
            }
        }
        self.max
    }
}

/// Named-instrument registry shared across the cluster.
///
/// Instruments are created on first use and live for the registry's
/// lifetime; handing out `Arc`s keeps the hot paths (a counter increment
/// in the dispatcher) free of any map lookup.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Arc::clone(self.counters.lock().entry(name.to_string()).or_default())
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Arc::clone(self.gauges.lock().entry(name.to_string()).or_default())
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Arc::clone(self.histograms.lock().entry(name.to_string()).or_default())
    }

    /// Consistent-enough point-in-time copy of every instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Point-in-time view of the cluster's metrics, sorted by name.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Value of gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Snapshot of histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    /// Add `value` to counter `name`, which is created in name order if
    /// absent: how the clusters merge in the nodes' counters at snapshot
    /// time, summing each over the nodes.
    pub fn add_counter(&mut self, name: &str, value: u64) {
        let pos = self.counters.partition_point(|(n, _)| n.as_str() < name);
        match self.counters.get_mut(pos) {
            Some((n, v)) if n == name => *v += value,
            _ => self.counters.insert(pos, (name.to_string(), value)),
        }
    }

    /// Human-readable rendering, one instrument per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "{name:<40} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "{name:<40} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "{name:<40} count={} mean={:.1} p50={} p99={} max={}",
                h.count,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99),
                h.max,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("queries.submitted");
        c.inc();
        c.add(4);
        // Same name returns the same instrument.
        assert_eq!(reg.counter("queries.submitted").get(), 5);
        let g = reg.gauge("dispatcher.queue_depth");
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(-3);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        for v in [0u64, 1, 1, 2, 3, 100, 1000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 1107);
        assert_eq!(s.max, 1000);
        assert_eq!(s.quantile(0.0), 0);
        // p50 of 7 obs is the 4th (value 2) → bucket [2,4) upper bound 3.
        assert_eq!(s.quantile(0.5), 3);
        // p100 is capped at the true max, not the bucket bound.
        assert_eq!(s.quantile(1.0), 1000);
        assert!(s.mean() > 158.0 && s.mean() < 159.0);
    }

    #[test]
    fn snapshot_renders_and_merges_derived() {
        let reg = MetricsRegistry::new();
        reg.counter("queries.completed").add(3);
        reg.gauge("queries.active").set(1);
        reg.histogram("admission.wait_us").observe(17);
        let mut snap = reg.snapshot();
        snap.add_counter("net.scheduler.rounds", 9);
        snap.add_counter("aaa.first", 1);
        snap.add_counter("net.scheduler.rounds", 4);
        assert_eq!(snap.counter("queries.completed"), Some(3));
        assert_eq!(snap.counter("net.scheduler.rounds"), Some(13));
        // Insertion keeps sorted order.
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert_eq!(snap.gauge("queries.active"), Some(1));
        let rendered = snap.render();
        assert!(rendered.contains("queries.completed"));
        assert!(rendered.contains("admission.wait_us"));
        assert!(rendered.contains("p99="));
    }
}
