//! The process-wide metrics registry: named counters, gauges and
//! log2-bucketed latency histograms.
//!
//! Unlike spans, metrics are always on — every instrument is a relaxed
//! atomic touched at coarse points (per job, per update, per cache
//! probe), never inside scan inner loops, so there is nothing to gate.
//! Handles are `Arc`s resolved by name through the registry; call sites
//! that increment repeatedly cache the handle in a `OnceLock`.
//!
//! [`MetricsRegistry::snapshot`] freezes everything into a
//! [`MetricsSnapshot`] that serialises either as JSON (the CLI's
//! `--metrics-out`) or as Prometheus text exposition
//! ([`MetricsSnapshot::to_prometheus`]) for the future async server.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::json_escape;

/// A monotonically increasing counter.
pub struct Counter(AtomicU64);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value.
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log2 buckets: bucket `i` counts values `v` with
/// `bucket_index(v) == i`, i.e. `v == 0` → 0 and otherwise
/// `⌊log2 v⌋ + 1`, covering the full `u64` range.
const BUCKETS: usize = 65;

/// A log2-bucketed histogram (latencies in microseconds by convention,
/// but any `u64` measure works). Recording is one relaxed `fetch_add`
/// into the value's bucket plus count/sum upkeep.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }
}

/// Frozen histogram state inside a [`MetricsSnapshot`].
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    /// `(upper_bound, cumulative_count)` per non-trailing-empty bucket;
    /// bucket `i`'s inclusive upper bound is `2^i - 1` (`0` for the
    /// zero bucket).
    pub buckets: Vec<(u64, u64)>,
}

/// The process-wide registry (see [`metrics`]).
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

/// The process-wide [`MetricsRegistry`].
pub fn metrics() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| MetricsRegistry {
        counters: Mutex::new(BTreeMap::new()),
        gauges: Mutex::new(BTreeMap::new()),
        histograms: Mutex::new(BTreeMap::new()),
    })
}

fn get_or_insert<T>(
    map: &Mutex<BTreeMap<String, Arc<T>>>,
    name: &str,
    make: impl FnOnce() -> T,
) -> Arc<T> {
    let mut m = map.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(v) = m.get(name) {
        return v.clone();
    }
    let v = Arc::new(make());
    m.insert(name.to_string(), v.clone());
    v
}

impl MetricsRegistry {
    /// The counter named `name`, created on first use. Dots group
    /// metrics by subsystem (`service.cache.hits`).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&self.counters, name, || Counter(AtomicU64::new(0)))
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name, || Gauge(AtomicI64::new(0)))
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_insert(&self.histograms, name, Histogram::new)
    }

    /// Freezes every instrument into a [`MetricsSnapshot`]. Relaxed
    /// reads: concurrent updates may or may not be included, which is
    /// the usual metrics contract. The counters always include
    /// `par.threads_spawned`, read from [`mincut_ds::par::threads_spawned`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<(String, u64)> = self
            .counters
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let spawned = "par.threads_spawned";
        let at = counters.partition_point(|(k, _)| k.as_str() < spawned);
        counters.insert(at, (spawned.to_string(), mincut_ds::par::threads_spawned()));
        let gauges = self
            .gauges
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(k, h)| {
                let mut cumulative = 0;
                let mut buckets = Vec::new();
                let last = h
                    .buckets
                    .iter()
                    .rposition(|b| b.load(Ordering::Relaxed) != 0)
                    .unwrap_or(0);
                for (i, b) in h.buckets.iter().enumerate().take(last + 1) {
                    cumulative += b.load(Ordering::Relaxed);
                    let le = if i == 0 {
                        0
                    } else {
                        (1u64 << i).wrapping_sub(1)
                    };
                    buckets.push((if i == 64 { u64::MAX } else { le }, cumulative));
                }
                (
                    k.clone(),
                    HistogramSnapshot {
                        count: h.count(),
                        sum: h.sum(),
                        buckets,
                    },
                )
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Zeroes every registered instrument (tests and bench harnesses;
    /// handles stay valid). `par.threads_spawned` is not registered here
    /// and keeps counting from process start.
    pub fn reset(&self) {
        for c in self
            .counters
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .values()
        {
            c.0.store(0, Ordering::Relaxed);
        }
        for g in self
            .gauges
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .values()
        {
            g.0.store(0, Ordering::Relaxed);
        }
        for h in self
            .histograms
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .values()
        {
            for b in &h.buckets {
                b.store(0, Ordering::Relaxed);
            }
            h.count.store(0, Ordering::Relaxed);
            h.sum.store(0, Ordering::Relaxed);
        }
    }
}

/// A frozen view of the registry, ready to serialise.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// `a.b.c` → `a_b_c` (Prometheus metric names allow `[a-zA-Z0-9_:]`).
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

impl MetricsSnapshot {
    /// JSON export (the CLI's `--metrics-out` payload).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{}:{v}", json_escape(k)));
        }
        s.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{}:{v}", json_escape(k)));
        }
        s.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{}:{{\"count\":{},\"sum\":{},\"buckets\":[",
                json_escape(k),
                h.count,
                h.sum
            ));
            for (j, (le, c)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&format!("{{\"le\":{le},\"count\":{c}}}"));
            }
            s.push_str("]}");
        }
        s.push_str("}}");
        s
    }

    /// Prometheus text exposition (counters as `counter`, gauges as
    /// `gauge`, histograms as cumulative `_bucket`/`_sum`/`_count`
    /// series with `+Inf` always present).
    pub fn to_prometheus(&self) -> String {
        let mut s = String::new();
        for (k, v) in &self.counters {
            let n = prom_name(k);
            s.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (k, v) in &self.gauges {
            let n = prom_name(k);
            s.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
        }
        for (k, h) in &self.histograms {
            let n = prom_name(k);
            s.push_str(&format!("# TYPE {n} histogram\n"));
            for (le, c) in &h.buckets {
                s.push_str(&format!("{n}_bucket{{le=\"{le}\"}} {c}\n"));
            }
            s.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            s.push_str(&format!("{n}_sum {}\n{n}_count {}\n", h.sum, h.count));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn registry_instruments_round_trip() {
        let r = metrics();
        r.counter("test.jobs").add(3);
        r.counter("test.jobs").inc(); // same handle by name
        r.gauge("test.depth").set(-2);
        let h = r.histogram("test.latency_us");
        for v in [0, 1, 5, 5, 300, 70_000] {
            h.record(v);
        }

        let snap = r.snapshot();
        let get = |name: &str| {
            snap.counters
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| *v)
        };
        assert_eq!(get("test.jobs"), Some(4));
        assert!(get("par.threads_spawned").is_some());
        assert!(snap.counters.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(
            snap.gauges
                .iter()
                .find(|(k, _)| k == "test.depth")
                .map(|(_, v)| *v),
            Some(-2)
        );
        let (_, hs) = snap
            .histograms
            .iter()
            .find(|(k, _)| k == "test.latency_us")
            .unwrap();
        assert_eq!(hs.count, 6);
        assert_eq!(hs.sum, 70_311);
        // Cumulative: last bucket covers everything recorded.
        assert_eq!(hs.buckets.last().unwrap().1, 6);
        // le=1 covers the 0 and 1 records.
        assert!(hs.buckets.iter().any(|&(le, c)| le == 1 && c == 2));

        let json = snap.to_json();
        assert!(json.contains("\"test.jobs\":4"));
        assert!(json.contains("\"count\":6"));

        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE test_jobs counter"));
        assert!(prom.contains("test_jobs 4"));
        assert!(prom.contains("# TYPE test_depth gauge"));
        assert!(prom.contains("test_latency_us_bucket{le=\"+Inf\"} 6"));
        assert!(prom.contains("test_latency_us_count 6"));
    }
}
