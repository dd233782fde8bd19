//! Lock-cheap metric registry: counters, gauges, and fixed-bucket
//! histograms with quantile readout, rendered as Prometheus text
//! exposition.
//!
//! Registration takes the registry lock once and hands back an `Arc`'d
//! cell; every subsequent `inc`/`observe` is a plain atomic op. Families
//! and label sets live in `BTreeMap`s so the rendered exposition is
//! byte-stable for a given set of values.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default latency buckets in seconds, chosen to resolve p50/p95/p99 for
/// both sub-millisecond metadata routes and multi-second fit phases.
pub const LATENCY_BUCKETS_S: &[f64] = &[
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
];

/// A monotonically increasing counter handle.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Add `n` to the counter. No-op on a detached (disabled) handle.
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 when detached).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A gauge handle holding an `f64` (stored as bits in an atomic).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Set the gauge. No-op on a detached (disabled) handle.
    pub fn set(&self, v: f64) {
        if let Some(g) = &self.0 {
            g.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 when detached).
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |g| f64::from_bits(g.load(Ordering::Relaxed)))
    }
}

/// Fixed-bucket histogram: per-bucket atomic counts plus a running sum.
#[derive(Debug)]
pub struct Histogram {
    /// Ascending finite upper bounds; an implicit `+Inf` bucket follows.
    bounds: Vec<f64>,
    /// One count per bound, plus the overflow bucket (not cumulative).
    counts: Vec<AtomicU64>,
    /// Sum of observed values, stored as `f64` bits.
    sum_bits: AtomicU64,
    /// Total observation count.
    count: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        let bounds: Vec<f64> = bounds.to_vec();
        let counts = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            counts,
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let idx = self.bounds.partition_point(|&b| v > b);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let _ = self
            .sum_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + v).to_bits())
            });
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// within the owning bucket. Observations in the overflow bucket
    /// clamp to the last finite bound; an empty histogram reads 0.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            let n = c.load(Ordering::Relaxed);
            if n == 0 {
                cum += n;
                continue;
            }
            if (cum + n) as f64 >= target {
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let hi = match self.bounds.get(i) {
                    Some(&b) => b,
                    None => return *self.bounds.last().unwrap_or(&0.0),
                };
                let frac = (target - cum as f64) / n as f64;
                return lo + (hi - lo) * frac.clamp(0.0, 1.0);
            }
            cum += n;
        }
        *self.bounds.last().unwrap_or(&0.0)
    }

    /// Cumulative `(upper_bound, count)` pairs, ending with `+Inf`.
    pub fn cumulative(&self) -> Vec<(f64, u64)> {
        let mut cum = 0u64;
        let mut out = Vec::with_capacity(self.counts.len());
        for (i, c) in self.counts.iter().enumerate() {
            cum += c.load(Ordering::Relaxed);
            let bound = self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            out.push((bound, cum));
        }
        out
    }
}

/// A histogram handle (detached on disabled observability).
#[derive(Clone, Debug, Default)]
pub struct Histo(Option<Arc<Histogram>>);

impl Histo {
    /// Record one observation. No-op on a detached handle.
    pub fn observe(&self, v: f64) {
        if let Some(h) = &self.0 {
            h.observe(v);
        }
    }

    /// Access the underlying histogram, when attached.
    pub fn inner(&self) -> Option<&Histogram> {
        self.0.as_deref()
    }
}

#[derive(Debug)]
enum Series {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<Histogram>),
}

#[derive(Debug, Default)]
struct Family {
    kind: &'static str,
    /// Keyed by the rendered label set (`{a="b"}`), which sorts stably.
    series: BTreeMap<String, Series>,
}

/// The metric registry. One lock guards the name → family map; the
/// returned handles bypass it entirely.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

/// Render a label slice as a Prometheus label set, sorted by key for
/// byte-stable output. Empty labels render as an empty string.
fn label_key(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<_> = labels.to_vec();
    sorted.sort();
    let body: Vec<String> = sorted
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Merge extra labels (e.g. `le`) into an existing rendered label set.
fn label_key_with(rendered: &str, extra: &str) -> String {
    if rendered.is_empty() {
        format!("{{{extra}}}")
    } else {
        format!("{},{extra}}}", &rendered[..rendered.len() - 1])
    }
}

fn fmt_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".into()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

impl Registry {
    /// Get or register a counter series.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = label_key(labels);
        let mut fams = self.families.lock().unwrap();
        let fam = fams.entry(name.to_string()).or_insert_with(|| Family {
            kind: "counter",
            ..Family::default()
        });
        if fam.kind != "counter" {
            return Counter::default();
        }
        let cell = fam
            .series
            .entry(key)
            .or_insert_with(|| Series::Counter(Arc::new(AtomicU64::new(0))));
        match cell {
            Series::Counter(c) => Counter(Some(Arc::clone(c))),
            _ => Counter::default(),
        }
    }

    /// Get or register a gauge series.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = label_key(labels);
        let mut fams = self.families.lock().unwrap();
        let fam = fams.entry(name.to_string()).or_insert_with(|| Family {
            kind: "gauge",
            ..Family::default()
        });
        if fam.kind != "gauge" {
            return Gauge::default();
        }
        let cell = fam
            .series
            .entry(key)
            .or_insert_with(|| Series::Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))));
        match cell {
            Series::Gauge(g) => Gauge(Some(Arc::clone(g))),
            _ => Gauge::default(),
        }
    }

    /// Get or register a histogram series with the given finite bounds.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], bounds: &[f64]) -> Histo {
        let key = label_key(labels);
        let mut fams = self.families.lock().unwrap();
        let fam = fams.entry(name.to_string()).or_insert_with(|| Family {
            kind: "histogram",
            ..Family::default()
        });
        if fam.kind != "histogram" {
            return Histo::default();
        }
        let cell = fam
            .series
            .entry(key)
            .or_insert_with(|| Series::Histogram(Arc::new(Histogram::new(bounds))));
        match cell {
            Series::Histogram(h) => Histo(Some(Arc::clone(h))),
            _ => Histo::default(),
        }
    }

    /// Render the whole registry as Prometheus text exposition
    /// (version 0.0.4): one `# TYPE` line per family, series in
    /// deterministic label order.
    pub fn render_prometheus(&self) -> String {
        let fams = self.families.lock().unwrap();
        let mut out = String::new();
        for (name, fam) in fams.iter() {
            out.push_str(&format!("# TYPE {name} {}\n", fam.kind));
            for (labels, series) in fam.series.iter() {
                match series {
                    Series::Counter(c) => {
                        out.push_str(&format!("{name}{labels} {}\n", c.load(Ordering::Relaxed)));
                    }
                    Series::Gauge(g) => {
                        out.push_str(&format!(
                            "{name}{labels} {}\n",
                            fmt_f64(f64::from_bits(g.load(Ordering::Relaxed)))
                        ));
                    }
                    Series::Histogram(h) => {
                        for (bound, cum) in h.cumulative() {
                            let le = format!("le=\"{}\"", fmt_f64(bound));
                            let k = label_key_with(labels, &le);
                            out.push_str(&format!("{name}_bucket{k} {cum}\n"));
                        }
                        out.push_str(&format!("{name}_sum{labels} {}\n", fmt_f64(h.sum())));
                        out.push_str(&format!("{name}_count{labels} {}\n", h.count()));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_assignment_is_upper_inclusive() {
        let h = Histogram::new(&[1.0, 2.0]);
        h.observe(0.5); // bucket 0 (le 1.0)
        h.observe(1.0); // bucket 0 (le is inclusive)
        h.observe(1.5); // bucket 1
        h.observe(9.0); // overflow
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 12.0).abs() < 1e-12);
        assert_eq!(h.cumulative(), vec![(1.0, 2), (2.0, 3), (f64::INFINITY, 4)]);
    }

    #[test]
    fn quantiles_interpolate_and_clamp() {
        let h = Histogram::new(&[10.0, 20.0, 40.0]);
        for _ in 0..50 {
            h.observe(5.0);
        }
        for _ in 0..50 {
            h.observe(15.0);
        }
        // p50 sits at the boundary of the first bucket
        let p50 = h.quantile(0.5);
        assert!((0.0..=10.0).contains(&p50), "p50={p50}");
        // p99 lands inside the second bucket
        let p99 = h.quantile(0.99);
        assert!((10.0..=20.0).contains(&p99), "p99={p99}");
        // overflow observations clamp to the last finite bound
        let h2 = Histogram::new(&[1.0]);
        h2.observe(100.0);
        assert_eq!(h2.quantile(0.99), 1.0);
        // empty histogram reads zero
        assert_eq!(Histogram::new(&[1.0]).quantile(0.5), 0.0);
    }

    #[test]
    fn registry_renders_stable_prometheus_text() {
        let r = Registry::default();
        r.counter(
            "kamino_requests_total",
            &[("route", "/b"), ("status", "200")],
        )
        .inc();
        let c = r.counter(
            "kamino_requests_total",
            &[("status", "200"), ("route", "/a")],
        );
        c.add(2);
        r.gauge("kamino_up", &[]).set(1.0);
        r.histogram("kamino_latency_seconds", &[], &[0.1, 1.0])
            .observe(0.05);
        let text = r.render_prometheus();
        let expect = "# TYPE kamino_latency_seconds histogram\n\
                      kamino_latency_seconds_bucket{le=\"0.1\"} 1\n\
                      kamino_latency_seconds_bucket{le=\"1\"} 1\n\
                      kamino_latency_seconds_bucket{le=\"+Inf\"} 1\n\
                      kamino_latency_seconds_sum 0.05\n\
                      kamino_latency_seconds_count 1\n\
                      # TYPE kamino_requests_total counter\n\
                      kamino_requests_total{route=\"/a\",status=\"200\"} 2\n\
                      kamino_requests_total{route=\"/b\",status=\"200\"} 1\n\
                      # TYPE kamino_up gauge\n\
                      kamino_up 1\n";
        assert_eq!(text, expect);
        // re-registering an existing series returns the same cell
        assert_eq!(
            r.counter(
                "kamino_requests_total",
                &[("route", "/a"), ("status", "200")]
            )
            .get(),
            2
        );
    }

    #[test]
    fn counters_accumulate_and_render() {
        let r = Registry::default();
        // a handle kept across events and a re-registered one share a cell
        let rows = r.counter("kamino_rows_synthesized_total", &[]);
        rows.add(100);
        r.counter("kamino_rows_synthesized_total", &[]).add(50);
        assert_eq!(rows.get(), 150);
        // gauges overwrite; an infinite ε bound renders as +Inf
        let eps = r.gauge("kamino_ledger_epsilon_total", &[]);
        eps.set(1.5);
        eps.set(f64::INFINITY);
        r.gauge("kamino_pool_depth", &[("model", "1")]).set(3.0);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE kamino_rows_synthesized_total counter\n"));
        assert!(text.contains("\nkamino_rows_synthesized_total 150\n"));
        assert!(text.contains("\nkamino_ledger_epsilon_total +Inf\n"));
        assert!(text.contains("\nkamino_pool_depth{model=\"1\"} 3\n"));
    }

    #[test]
    fn kind_mismatch_detaches_instead_of_panicking() {
        let r = Registry::default();
        r.counter("m", &[]).inc();
        let g = r.gauge("m", &[]);
        g.set(5.0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(r.counter("m", &[]).get(), 1);
    }
}
