//! The process-wide metrics registry: counters, gauges and log-bucketed
//! latency histograms keyed by static names plus label pairs, rendered as
//! Prometheus text exposition (`version 0.0.4`).
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc` clones of
//! the registered instrument: look one up once (the cold path takes the
//! registry mutex and scans by name + labels) and bump it forever after
//! with relaxed atomics. Re-registering the same `(name, labels)` returns
//! the existing instrument, so two call sites share one time series.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of histogram buckets: 26 finite powers-of-two upper bounds from
/// 1 µs to ~33.6 s, plus the implicit `+Inf` bucket.
pub const HISTOGRAM_BUCKETS: usize = 27;

/// The upper bound (seconds) of finite bucket `i`: `1e-6 * 2^i`.
fn bucket_bound(i: usize) -> f64 {
    1.0e-6 * (i as f64).exp2()
}

/// A monotonically increasing counter.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1. A relaxed `fetch_add` when enabled, a load and branch when not.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down (stored as `f64` bits).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        if crate::enabled() {
            self.0.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Adds `delta` (negative to decrement) with a CAS loop.
    #[inline]
    pub fn add(&self, delta: f64) {
        if !crate::enabled() {
            return;
        }
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Non-cumulative per-bucket counts; the last slot is `+Inf`.
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    /// Sum of observed values, as `f64` bits (CAS-accumulated).
    sum_bits: AtomicU64,
    count: AtomicU64,
}

/// A latency histogram over fixed log-spaced (powers-of-two) buckets from
/// 1 µs to ~33.6 s. Quantiles are read from bucket upper bounds, so p50/p99
/// carry bucket resolution (a factor of 2), which is what an operational
/// latency signal needs — exact per-round timings stay in `TrainingTrace`.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one observation, in seconds.
    #[inline]
    pub fn observe(&self, secs: f64) {
        if !crate::enabled() {
            return;
        }
        let core = &self.0;
        let mut idx = HISTOGRAM_BUCKETS - 1;
        for i in 0..HISTOGRAM_BUCKETS - 1 {
            if secs <= bucket_bound(i) {
                idx = i;
                break;
            }
        }
        core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = core.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + secs).to_bits();
            match core.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Records one observation from a `Duration`.
    #[inline]
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_secs_f64());
    }

    /// A consistent-enough copy of the current bucket counts (individual
    /// loads are relaxed; concurrent observers may straddle the snapshot).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (slot, b) in buckets.iter_mut().zip(self.0.buckets.iter()) {
            *slot = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum: f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed)),
            count: self.0.count.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a histogram's buckets, as [`render`] exposes them.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    buckets: [u64; HISTOGRAM_BUCKETS],
    sum: f64,
    count: u64,
}

impl HistogramSnapshot {
    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observed values, in seconds.
    pub fn sum(&self) -> f64 {
        self.sum
    }
}

enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Entry {
    name: &'static str,
    help: &'static str,
    labels: Vec<(&'static str, String)>,
    instrument: Instrument,
}

fn registry() -> &'static Mutex<Vec<Entry>> {
    static REGISTRY: OnceLock<Mutex<Vec<Entry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn lock_registry() -> std::sync::MutexGuard<'static, Vec<Entry>> {
    registry().lock().unwrap_or_else(|e| e.into_inner())
}

fn lookup<T: Clone>(
    name: &'static str,
    help: &'static str,
    labels: &[(&'static str, &str)],
    pick: impl Fn(&Instrument) -> Option<T>,
    create: impl FnOnce() -> (T, Instrument),
) -> T {
    let mut reg = lock_registry();
    for e in reg.iter() {
        if e.name == name
            && e.labels.len() == labels.len()
            && e.labels
                .iter()
                .zip(labels)
                .all(|(have, want)| have.0 == want.0 && have.1 == want.1)
        {
            return pick(&e.instrument).unwrap_or_else(|| {
                panic!("metric '{name}' already registered with a different type")
            });
        }
    }
    let (handle, instrument) = create();
    reg.push(Entry {
        name,
        help,
        labels: labels.iter().map(|(k, v)| (*k, v.to_string())).collect(),
        instrument,
    });
    handle
}

/// Registers (or finds) a counter. Cold path — cache the handle.
pub fn counter(name: &'static str, help: &'static str, labels: &[(&'static str, &str)]) -> Counter {
    lookup(
        name,
        help,
        labels,
        |i| match i {
            Instrument::Counter(c) => Some(c.clone()),
            _ => None,
        },
        || {
            let c = Counter(Arc::new(AtomicU64::new(0)));
            (c.clone(), Instrument::Counter(c))
        },
    )
}

/// Registers (or finds) a gauge. Cold path — cache the handle.
pub fn gauge(name: &'static str, help: &'static str, labels: &[(&'static str, &str)]) -> Gauge {
    lookup(
        name,
        help,
        labels,
        |i| match i {
            Instrument::Gauge(g) => Some(g.clone()),
            _ => None,
        },
        || {
            let g = Gauge(Arc::new(AtomicU64::new(0f64.to_bits())));
            (g.clone(), Instrument::Gauge(g))
        },
    )
}

/// Registers (or finds) a histogram. Cold path — cache the handle.
pub fn histogram(
    name: &'static str,
    help: &'static str,
    labels: &[(&'static str, &str)],
) -> Histogram {
    lookup(
        name,
        help,
        labels,
        |i| match i {
            Instrument::Histogram(h) => Some(h.clone()),
            _ => None,
        },
        || {
            let h = Histogram(Arc::new(HistogramCore {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                sum_bits: AtomicU64::new(0f64.to_bits()),
                count: AtomicU64::new(0),
            }));
            (h.clone(), Instrument::Histogram(h))
        },
    )
}

fn label_block(labels: &[(&'static str, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    // Prometheus text exposition escapes: backslash first (so the escapes
    // introduced for quotes and newlines are not themselves re-escaped),
    // then quotes, then literal newlines (which would otherwise split the
    // sample line and corrupt the whole exposition).
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| {
            format!(
                "{k}=\"{}\"",
                v.replace('\\', "\\\\")
                    .replace('"', "\\\"")
                    .replace('\n', "\\n")
            )
        })
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    format!("{{{}}}", parts.join(","))
}

fn fmt_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Renders every registered metric as Prometheus text exposition. Families
/// (same name, different labels) share one `# HELP`/`# TYPE` header;
/// histograms expand to cumulative `_bucket{le=...}`, `_sum` and `_count`.
pub fn render() -> String {
    use std::fmt::Write as _;
    let reg = lock_registry();
    let mut order: Vec<&Entry> = reg.iter().collect();
    order.sort_by_key(|e| e.name);
    let mut out = String::new();
    let mut last_name = "";
    for e in order {
        if e.name != last_name {
            let kind = match e.instrument {
                Instrument::Counter(_) => "counter",
                Instrument::Gauge(_) => "gauge",
                Instrument::Histogram(_) => "histogram",
            };
            let _ = writeln!(out, "# HELP {} {}", e.name, e.help);
            let _ = writeln!(out, "# TYPE {} {kind}", e.name);
            last_name = e.name;
        }
        match &e.instrument {
            Instrument::Counter(c) => {
                let _ = writeln!(
                    out,
                    "{}{} {}",
                    e.name,
                    label_block(&e.labels, None),
                    c.value()
                );
            }
            Instrument::Gauge(g) => {
                let _ = writeln!(
                    out,
                    "{}{} {}",
                    e.name,
                    label_block(&e.labels, None),
                    fmt_f64(g.value())
                );
            }
            Instrument::Histogram(h) => {
                let snap = h.snapshot();
                let mut cumulative = 0u64;
                for i in 0..HISTOGRAM_BUCKETS {
                    cumulative += snap.buckets[i];
                    let le = if i == HISTOGRAM_BUCKETS - 1 {
                        "+Inf".to_string()
                    } else {
                        fmt_f64(bucket_bound(i))
                    };
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {cumulative}",
                        e.name,
                        label_block(&e.labels, Some(("le", &le)))
                    );
                }
                let _ = writeln!(
                    out,
                    "{}_sum{} {}",
                    e.name,
                    label_block(&e.labels, None),
                    fmt_f64(snap.sum)
                );
                let _ = writeln!(
                    out,
                    "{}_count{} {}",
                    e.name,
                    label_block(&e.labels, None),
                    snap.count
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_shared() {
        let _g = crate::test_guard();
        crate::enable();
        let a = counter("obs_m_shared_total", "test", &[("node", "1")]);
        let b = counter("obs_m_shared_total", "test", &[("node", "1")]);
        let other = counter("obs_m_shared_total", "test", &[("node", "2")]);
        a.inc();
        b.inc();
        other.inc();
        assert_eq!(a.value(), 2);
        assert_eq!(other.value(), 1);
    }

    #[test]
    fn gauge_add_and_set() {
        let _g = crate::test_guard();
        crate::enable();
        let g = gauge("obs_m_gauge", "test", &[]);
        g.set(5.0);
        g.add(2.5);
        g.add(-4.0);
        assert!((g.value() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let _g = crate::test_guard();
        crate::enable();
        let h = histogram("obs_m_hist_seconds", "test", &[]);
        for _ in 0..90 {
            h.observe(0.001); // ≤ 1.024 ms bucket
        }
        for _ in 0..10 {
            h.observe(0.1); // ≤ 0.131 s bucket
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 100);
        assert!((snap.sum() - 1.09).abs() < 1e-9);
        // The cumulative buckets a scraper reads its quantiles from: p50
        // falls in the ~1 ms bucket, p99 in the ~0.1 s one.
        let text = render();
        let bucket = |i: usize, n: u64| {
            let le = fmt_f64(bucket_bound(i));
            format!("obs_m_hist_seconds_bucket{{le=\"{le}\"}} {n}\n")
        };
        for (i, n) in [(9, 0), (10, 90), (16, 90), (17, 100)] {
            assert!(text.contains(&bucket(i, n)), "missing {}", bucket(i, n));
        }
    }

    #[test]
    fn oversized_observations_land_in_inf_bucket() {
        let _g = crate::test_guard();
        crate::enable();
        let h = histogram("obs_m_hist_inf_seconds", "test", &[]);
        h.observe(1.0e9);
        assert_eq!(h.snapshot().count(), 1);
        let text = render();
        let last = fmt_f64(bucket_bound(HISTOGRAM_BUCKETS - 2));
        assert!(text.contains(&format!(
            "obs_m_hist_inf_seconds_bucket{{le=\"{last}\"}} 0\n"
        )));
        assert!(text.contains("obs_m_hist_inf_seconds_bucket{le=\"+Inf\"} 1\n"));
    }

    #[test]
    fn label_values_are_escaped_in_render() {
        let _g = crate::test_guard();
        crate::enable();
        counter(
            "obs_m_escape_total",
            "Escaping test counter.",
            &[("peer", "quote\"backslash\\newline\nend")],
        )
        .inc();
        let text = render();
        assert!(
            text.contains("obs_m_escape_total{peer=\"quote\\\"backslash\\\\newline\\nend\"} 1"),
            "escaped sample missing in:\n{text}"
        );
        // The corrupt raw forms must not appear: an unescaped newline would
        // split the sample line, an unescaped quote would end the value early.
        assert!(!text.contains("newline\nend"));
    }

    #[test]
    fn render_emits_prometheus_text() {
        let _g = crate::test_guard();
        crate::enable();
        counter(
            "obs_m_render_total",
            "Render test counter.",
            &[("gar", "krum")],
        )
        .add(3);
        gauge("obs_m_render_depth", "Render test gauge.", &[]).set(2.0);
        histogram("obs_m_render_seconds", "Render test histogram.", &[]).observe(0.5);
        let text = render();
        assert!(text.contains("# TYPE obs_m_render_total counter"));
        assert!(text.contains("obs_m_render_total{gar=\"krum\"} 3"));
        assert!(text.contains("obs_m_render_depth 2"));
        assert!(text.contains("# TYPE obs_m_render_seconds histogram"));
        assert!(text.contains("obs_m_render_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("obs_m_render_seconds_count 1"));
    }
}
