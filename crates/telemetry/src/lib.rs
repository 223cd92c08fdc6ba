//! Pipeline telemetry: lock-free counters, gauges and fixed-bucket
//! latency histograms behind cheap cloneable handles, collected in a
//! [`Registry`] that renders both Prometheus text exposition and a
//! serializable JSON [`Snapshot`].
//!
//! Design constraints, in order:
//!
//! * **Hot-path cost.** A metric handle is an `Arc` around atomics;
//!   `inc`/`observe` are a handful of relaxed atomic adds and never
//!   touch a lock. The registry mutex is taken only at registration
//!   and snapshot time.
//! * **Determinism.** All histogram state is integer (`u64`
//!   observations, `u64` sums). Floating-point accumulation is
//!   order-dependent, which would make snapshots vary with thread
//!   count and interleaving; integer adds are associative, so a
//!   snapshot taken after N observations is identical no matter how
//!   many threads produced them. Latencies are recorded in integer
//!   nanoseconds.
//! * **Mergeability.** A worker can fill a registry of its own and
//!   fold its [`Snapshot`] into the shared one once
//!   ([`Registry::absorb`]); histogram merge
//!   ([`HistogramSnapshot::merge`]) is associative and commutative, so
//!   per-worker registries combine in any grouping to the same totals.
//!
//! Naming follows Prometheus conventions: counters end in `_total`,
//! latency histograms in `_ns` (base unit recorded in the name since
//! the values are integers, not seconds).
//!
//! [`pool`] is the workspace's one worker pool, here because this is
//! the crate both capture ingest and the learners build on.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};

pub mod pool;

/// Monotone event counter. Cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`. Counters are monotone: there is deliberately no way to
    /// subtract or reset through the public API.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed value (e.g. live conversation count).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: i64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Default latency bucket upper bounds, in nanoseconds: 1 µs → 5 s,
/// roughly logarithmic. Covers everything from a single feature
/// extraction (~µs) to a full forest fit (~s).
pub const LATENCY_BOUNDS_NS: [u64; 20] = [
    1_000,
    2_500,
    5_000,
    10_000,
    25_000,
    50_000,
    100_000,
    250_000,
    500_000,
    1_000_000,
    2_500_000,
    5_000_000,
    10_000_000,
    25_000_000,
    50_000_000,
    100_000_000,
    250_000_000,
    500_000_000,
    1_000_000_000,
    5_000_000_000,
];

/// Fixed-bucket histogram over `u64` observations. Buckets hold
/// non-cumulative counts internally; `bounds[i]` is the inclusive
/// upper bound of bucket `i` and a final implicit `+Inf` bucket
/// catches the rest (`buckets.len() == bounds.len() + 1`).
#[derive(Clone, Debug)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

#[derive(Debug)]
struct HistogramInner {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// `bounds` must be strictly increasing; panics otherwise (a
    /// registration-time programming error, not a runtime condition).
    pub fn new(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            inner: Arc::new(HistogramInner {
                bounds: bounds.to_vec(),
                buckets,
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }

    fn bucket_index(bounds: &[u64], v: u64) -> usize {
        // partition_point: first bound >= v fails `< v`, so this is
        // the index of the first bucket whose inclusive bound admits v
        // (== bounds.len() for the +Inf bucket).
        bounds.partition_point(|&b| b < v)
    }

    #[inline]
    pub fn observe(&self, v: u64) {
        let idx = Self::bucket_index(&self.inner.bounds, v);
        self.inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Observe the elapsed time since `start`, in nanoseconds.
    #[inline]
    pub fn observe_since(&self, start: Instant) {
        let ns = start.elapsed().as_nanos();
        self.observe(u64::try_from(ns).unwrap_or(u64::MAX));
    }

    /// Fold a point-in-time snapshot of another histogram in. One
    /// atomic add per non-empty bucket; bounds must match (panics
    /// otherwise). This is how an aggregating registry absorbs
    /// per-shard registries whose live handles it never held.
    fn record_snapshot(&self, snap: &HistogramSnapshot) {
        assert_eq!(
            self.inner.bounds, snap.bounds,
            "histogram merge requires identical bounds"
        );
        for (cell, &n) in self.inner.buckets.iter().zip(&snap.buckets) {
            if n > 0 {
                cell.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.inner.count.fetch_add(snap.count, Ordering::Relaxed);
        self.inner.sum.fetch_add(snap.sum, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.inner.bounds.clone(),
            buckets: self
                .inner
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.inner.count.load(Ordering::Relaxed),
            sum: self.inner.sum.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time histogram state inside a [`Snapshot`]. `buckets` are
/// non-cumulative and one longer than `bounds` (+Inf last).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    pub bounds: Vec<u64>,
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Associative, commutative merge; panics on bound mismatch.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        assert_eq!(self.bounds, other.bounds, "histogram merge requires identical bounds");
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// Serializable point-in-time view of a registry. Maps are sorted by
/// metric name, so equal telemetry states serialize byte-identically —
/// the property the golden-snapshot test pins.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Merge another snapshot in: counters and histogram buckets add,
    /// gauges take the other side's value (last-writer semantics for
    /// instantaneous values).
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            self.gauges.insert(name.clone(), *v);
        }
        for (name, h) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(name.clone(), h.clone());
                }
            }
        }
    }

    /// Counter value, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram observation count, 0 when absent.
    pub fn histogram_count(&self, name: &str) -> u64 {
        self.histograms.get(name).map_or(0, |h| h.count)
    }
}

#[derive(Debug)]
enum Metric {
    Counter { help: String, handle: Counter },
    Gauge { help: String, handle: Gauge },
    Histogram { help: String, handle: Histogram },
}

/// Named collection of metrics. Cloning shares the collection;
/// registration is idempotent (same name + kind returns the existing
/// handle, so independently-constructed pipeline stages aggregate into
/// the same cells). Registering a name under a different kind panics —
/// that is a wiring bug, not a runtime condition.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn counter(&self, name: &str, help: &str) -> Counter {
        let mut metrics = self.metrics.lock().unwrap();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter { help: help.to_string(), handle: Counter::new() })
        {
            Metric::Counter { handle, .. } => handle.clone(),
            other => panic!("metric {name:?} already registered as {}", kind_name(other)),
        }
    }

    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        let mut metrics = self.metrics.lock().unwrap();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge { help: help.to_string(), handle: Gauge::new() })
        {
            Metric::Gauge { handle, .. } => handle.clone(),
            other => panic!("metric {name:?} already registered as {}", kind_name(other)),
        }
    }

    /// Register a histogram with explicit bucket bounds. Re-registering
    /// must use identical bounds (panics otherwise).
    pub fn histogram(&self, name: &str, help: &str, bounds: &[u64]) -> Histogram {
        let mut metrics = self.metrics.lock().unwrap();
        match metrics.entry(name.to_string()).or_insert_with(|| Metric::Histogram {
            help: help.to_string(),
            handle: Histogram::new(bounds),
        }) {
            Metric::Histogram { handle, .. } => {
                assert_eq!(
                    handle.inner.bounds, bounds,
                    "metric {name:?} re-registered with different bounds"
                );
                handle.clone()
            }
            other => panic!("metric {name:?} already registered as {}", kind_name(other)),
        }
    }

    /// Latency histogram in nanoseconds with the default bounds.
    pub fn latency_histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram(name, help, &LATENCY_BOUNDS_NS)
    }

    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.metrics.lock().unwrap();
        let mut snap = Snapshot::default();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter { handle, .. } => {
                    snap.counters.insert(name.clone(), handle.get());
                }
                Metric::Gauge { handle, .. } => {
                    snap.gauges.insert(name.clone(), handle.get());
                }
                Metric::Histogram { handle, .. } => {
                    snap.histograms.insert(name.clone(), handle.snapshot());
                }
            }
        }
        snap
    }

    /// Fold another registry's snapshot into this registry's live
    /// metrics: counters and histogram buckets add, and — unlike
    /// [`Snapshot::merge`]'s last-writer rule — gauges add too, because
    /// the caller is aggregating disjoint shards whose live state sums
    /// (N shards' live-conversation gauges are N disjoint populations).
    /// Metrics absent here are registered on the fly; call once per
    /// shard, not periodically, or monotone totals double-count.
    pub fn absorb(&self, snap: &Snapshot) {
        for (name, v) in &snap.counters {
            self.counter(name, "").add(*v);
        }
        for (name, v) in &snap.gauges {
            self.gauge(name, "").add(*v);
        }
        for (name, h) in &snap.histograms {
            self.histogram(name, "", &h.bounds).record_snapshot(h);
        }
    }

    /// Prometheus text exposition (format version 0.0.4): `# HELP` /
    /// `# TYPE` preamble per metric, cumulative `_bucket{le="..."}`
    /// series plus `_sum` / `_count` for histograms.
    pub fn render_prometheus(&self) -> String {
        let metrics = self.metrics.lock().unwrap();
        let mut out = String::new();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter { help, handle } => {
                    let _ = writeln!(out, "# HELP {name} {help}");
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {}", handle.get());
                }
                Metric::Gauge { help, handle } => {
                    let _ = writeln!(out, "# HELP {name} {help}");
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name} {}", handle.get());
                }
                Metric::Histogram { help, handle } => {
                    let snap = handle.snapshot();
                    let _ = writeln!(out, "# HELP {name} {help}");
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let mut cumulative = 0u64;
                    for (i, n) in snap.buckets.iter().enumerate() {
                        cumulative += n;
                        match snap.bounds.get(i) {
                            Some(bound) => {
                                let _ = writeln!(
                                    out,
                                    "{name}_bucket{{le=\"{bound}\"}} {cumulative}"
                                );
                            }
                            None => {
                                let _ = writeln!(
                                    out,
                                    "{name}_bucket{{le=\"+Inf\"}} {cumulative}"
                                );
                            }
                        }
                    }
                    let _ = writeln!(out, "{name}_sum {}", snap.sum);
                    let _ = writeln!(out, "{name}_count {}", snap.count);
                }
            }
        }
        out
    }
}

fn kind_name(m: &Metric) -> &'static str {
    match m {
        Metric::Counter { .. } => "counter",
        Metric::Gauge { .. } => "gauge",
        Metric::Histogram { .. } => "histogram",
    }
}

/// CPU time consumed by the *calling thread*, in nanoseconds.
///
/// Wall-clock speedups on a shared or single-core container say nothing
/// about whether parallel code duplicates work; per-thread CPU time does
/// (`CLOCK_THREAD_CPUTIME_ID`: the kernel's per-thread execution-time
/// accounting, unaffected by preemption or other tenants). The workspace
/// links no libc, so the clock is read with a raw `clock_gettime`
/// syscall. On platforms where that isn't available this returns 0;
/// callers treat 0 as "unmeasured" and skip CPU-derived metrics.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(3) // CLOCK_THREAD_CPUTIME_ID
}

/// CPU time consumed by the *whole process* (all threads, live and
/// exited), in nanoseconds. Same caveats as [`thread_cpu_ns`]; returns 0
/// where the clock cannot be read. Deltas around a parallel region give
/// the total CPU the region burned across every worker — the denominator
/// of an honest parallel-efficiency number on a time-sliced host.
pub fn process_cpu_ns() -> u64 {
    clock_ns(2) // CLOCK_PROCESS_CPUTIME_ID
}

#[allow(unused_variables)]
fn clock_ns(clock_id: u64) -> u64 {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        const SYS_CLOCK_GETTIME: u64 = 228;
        let mut ts = [0i64; 2]; // struct timespec { tv_sec, tv_nsec }
        let ret: i64;
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") SYS_CLOCK_GETTIME as i64 => ret,
                in("rdi") clock_id,
                in("rsi") ts.as_mut_ptr(),
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        if ret == 0 {
            return (ts[0] as u64).saturating_mul(1_000_000_000) + ts[1] as u64;
        }
        0
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_clock_advances_with_work() {
        let start = thread_cpu_ns();
        if start == 0 {
            return; // unmeasured platform
        }
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc);
        let end = thread_cpu_ns();
        assert!(end > start, "CPU clock must advance: {start} -> {end}");
    }

    #[test]
    fn process_cpu_clock_covers_the_calling_thread() {
        let t = thread_cpu_ns();
        let p = process_cpu_ns();
        if t == 0 || p == 0 {
            return; // unmeasured platform
        }
        // The process clock aggregates every thread, so it can never sit
        // below the calling thread's own clock (modulo the read gap).
        assert!(p.saturating_add(1_000_000) >= t, "process {p} < thread {t}");
    }

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("events_total", "events");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Idempotent registration shares the cell.
        assert_eq!(reg.counter("events_total", "events").get(), 5);
        let g = reg.gauge("live", "live items");
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("events_total"), 5);
        assert_eq!(snap.gauges["live"], 4);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflict_panics() {
        let reg = Registry::new();
        reg.counter("x", "");
        reg.gauge("x", "");
    }

    #[test]
    fn histogram_buckets_inclusive_upper_bound() {
        let h = Histogram::new(&[10, 20]);
        h.observe(5); // bucket 0 (<= 10)
        h.observe(10); // bucket 0, inclusive
        h.observe(11); // bucket 1
        h.observe(21); // +Inf
        let snap = h.snapshot();
        assert_eq!(snap.buckets, vec![2, 1, 1]);
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum, 5 + 10 + 11 + 21);
    }

    #[test]
    fn prometheus_rendering_shape() {
        let reg = Registry::new();
        reg.counter("ingest_packets_read_total", "packets").add(3);
        let h = reg.histogram("stage_ns", "stage latency", &[10, 100]);
        h.observe(7);
        h.observe(500);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE ingest_packets_read_total counter"));
        assert!(text.contains("ingest_packets_read_total 3"));
        assert!(text.contains("# TYPE stage_ns histogram"));
        assert!(text.contains("stage_ns_bucket{le=\"10\"} 1"));
        assert!(text.contains("stage_ns_bucket{le=\"100\"} 1"));
        assert!(text.contains("stage_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("stage_ns_sum 507"));
        assert!(text.contains("stage_ns_count 2"));
    }

    #[test]
    fn snapshot_merge_adds_counters_and_buckets() {
        let reg_a = Registry::new();
        reg_a.counter("c_total", "").add(2);
        reg_a.histogram("h", "", &[10]).observe(5);
        let reg_b = Registry::new();
        reg_b.counter("c_total", "").add(3);
        reg_b.counter("only_b_total", "").add(1);
        reg_b.histogram("h", "", &[10]).observe(50);
        let mut merged = reg_a.snapshot();
        merged.merge(&reg_b.snapshot());
        assert_eq!(merged.counter("c_total"), 5);
        assert_eq!(merged.counter("only_b_total"), 1);
        assert_eq!(merged.histograms["h"].buckets, vec![1, 1]);
        assert_eq!(merged.histograms["h"].count, 2);
    }

    #[test]
    fn absorb_sums_counters_and_gauges_across_shards() {
        let total = Registry::new();
        total.counter("alerts_total", "alerts").add(1);
        total.gauge("live", "live").set(3);
        for shard in 0..2 {
            let reg = Registry::new();
            reg.counter("alerts_total", "alerts").add(2);
            reg.gauge("live", "live").set(5 + shard);
            reg.histogram("lat_ns", "", &[10]).observe(4);
            total.absorb(&reg.snapshot());
        }
        let snap = total.snapshot();
        assert_eq!(snap.counter("alerts_total"), 5);
        assert_eq!(snap.gauges["live"], 3 + 5 + 6);
        assert_eq!(snap.histograms["lat_ns"].count, 2);
        assert_eq!(snap.histograms["lat_ns"].buckets, vec![2, 0]);
    }

    #[test]
    fn snapshot_serde_roundtrip() {
        let reg = Registry::new();
        reg.counter("a_total", "").add(9);
        reg.gauge("g", "").set(-4);
        reg.latency_histogram("lat_ns", "").observe(123_456);
        let snap = reg.snapshot();
        let value = serde::to_value(&snap).unwrap();
        let back: Snapshot = serde::from_value(value).unwrap();
        assert_eq!(back, snap);
    }
}
