//! The benchmark's declared surface: workloads and metric names.
//!
//! `BENCHMARK.json` at the repository root is this table rendered by
//! `wirebench --describe`; `check.sh` fails when the two differ, and a
//! run prints exactly these names, so a metric cannot be declared and
//! not measured or measured and not declared.

use std::collections::BTreeMap;

use serde::Value;

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// `(name, why)` of every workload.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "pcap_bulk",
        "clean 128 MiB capture of 2560 exchanges, ~50 KB bodies, a quarter of text gzip-coded: nettrace's per-byte paths do the work, the detector little",
    ),
    (
        "pcap_lossy",
        "small bodies on keep-alive connections, some gzip or chunked, a third of episodes damaged by faultgen: per-packet cost, resync, gap and salvage paths",
    ),
    (
        "stream_benign",
        "8192 clients, 2% infected, into a 1-shard StreamEngine: no nettrace; session assignment, host interning and the ring hand-off dominate",
    ),
    (
        "stream_infected",
        "4096 clients, 50% infected, same call: most transactions sit in watched conversations, so the 37 features and forest scoring dominate",
    ),
    (
        "wire_proxy",
        "closed-loop keep-alive clients over loopback through wirefront::ProxySource: the proxy and the connection tap work while the engine idles",
    ),
];

/// `(name, unit, better, bound)` of every end-to-end metric. The bounds
/// are three times the widest spread over ten seeds measured on the
/// reference host, up to the 25 % the driver allows (README.md,
/// "End-to-end metrics").
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("tx_per_s", "1/s", "higher", 0.25),
    ("cpu_us_per_tx", "us", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
];

/// `(name, unit, better)` of every per-layer metric.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // nettrace
    ("nettrace.self_share", "share", "lower"),
    ("nettrace.walk_ns_per_pkt", "ns", "lower"),
    ("nettrace.reassemble_ns_per_pkt", "ns", "lower"),
    ("nettrace.http_synth_ns_per_tx", "ns", "lower"),
    ("nettrace.extract_mb_per_s", "MB/s", "higher"),
    ("nettrace.streams_gathered_share", "share", "lower"),
    ("nettrace.streams_damaged_share", "share", "lower"),
    ("nettrace.inflate_mb_per_s", "MB/s", "higher"),
    ("nettrace.digest_mb_per_s", "MB/s", "higher"),
    ("nettrace.allocs_per_pkt", "count", "lower"),
    ("nettrace.allocs_per_tx", "count", "lower"),
    ("nettrace.tap_ns_per_tx", "ns", "lower"),
    ("nettrace.ingest.packets_read", "count", "higher"),
    ("nettrace.ingest.records_dropped", "count", "lower"),
    ("nettrace.ingest.bytes_skipped", "count", "lower"),
    ("nettrace.ingest.capture_truncated", "count", "lower"),
    ("nettrace.ingest.packets_dropped_decode", "count", "lower"),
    ("nettrace.ingest.packets_non_tcp", "count", "lower"),
    ("nettrace.ingest.streams_total", "count", "higher"),
    ("nettrace.ingest.streams_salvaged", "count", "higher"),
    ("nettrace.ingest.streams_discarded", "count", "lower"),
    ("nettrace.ingest.streams_skipped_non_http", "count", "lower"),
    ("nettrace.ingest.reassembly_gaps", "count", "lower"),
    ("nettrace.ingest.transactions_recovered", "count", "higher"),
    ("nettrace.ingest.gzip_failures", "count", "lower"),
    ("nettrace.ingest.deflate_failures", "count", "lower"),
    ("nettrace.ingest.chunked_failures", "count", "lower"),
    ("nettrace.ingest.decode_cap_exceeded", "count", "lower"),
    // wirefront
    ("wirefront.rtt_p50_us", "us", "lower"),
    ("wirefront.rtt_p99_us", "us", "lower"),
    ("wirefront.rtt_samples", "count", "higher"),
    ("wirefront.relay_mb_per_s", "MB/s", "higher"),
    ("wirefront.pump_ns_per_tx", "ns", "lower"),
    ("wirefront.pump_busy_share", "share", "lower"),
    ("wirefront.wait_share", "share", "higher"),
    ("wirefront.idle_pump_share", "share", "lower"),
    ("wirefront.conns_accepted", "count", "higher"),
    ("wirefront.source_drops", "count", "lower"),
    ("wirefront.tap_overflows", "count", "lower"),
    ("wirefront.proxyproto_rejects", "count", "lower"),
    ("wirefront.capture_ns_per_pkt", "ns", "lower"),
    // streamd
    ("streamd.feeder_cpu_ns_per_tx", "ns", "lower"),
    ("streamd.shard_cpu_ns_per_tx", "ns", "lower"),
    ("streamd.shard_cpu_share", "share", "lower"),
    ("streamd.handoff_ns_per_tx", "ns", "lower"),
    ("streamd.queue_depth_max", "count", "lower"),
    ("streamd.backpressure_waits", "count", "lower"),
    ("streamd.dropped", "count", "lower"),
    ("streamd.imbalance_permille", "permille", "lower"),
    ("streamd.cpu_sum_ratio_2shard", "ratio", "lower"),
    ("streamd.snapshot_ms", "ms", "lower"),
    ("streamd.snapshot_mb", "MB", "lower"),
    ("streamd.restore_ms", "ms", "lower"),
    // core
    ("core.observe_ns_per_tx", "ns", "lower"),
    ("core.observe_p50_ns", "ns", "lower"),
    ("core.observe_p99_ns", "ns", "lower"),
    ("core.observe_max_us", "us", "lower"),
    ("core.assign_ns_per_tx", "ns", "lower"),
    ("core.wcg_push_ns_per_tx", "ns", "lower"),
    ("core.features_ns_per_wcg", "ns", "lower"),
    ("core.score_ns_per_wcg", "ns", "lower"),
    ("core.finish_report_ms", "ms", "lower"),
    ("core.allocs_per_tx", "count", "lower"),
    ("core.watched_tx_share", "share", "lower"),
    ("core.clues_per_ktx", "count", "lower"),
    ("core.classifications_per_ktx", "count", "lower"),
    ("core.rebuilds_per_ktx", "count", "lower"),
    ("core.alerts", "count", "higher"),
    ("core.conversations", "count", "higher"),
    ("core.build_dataset_ms", "ms", "lower"),
    // wcgraph
    ("wcgraph.view_load_ns_per_wcg", "ns", "lower"),
    ("wcgraph.brandes_ns_per_wcg", "ns", "lower"),
    // mlearn
    ("mlearn.fit_ms", "ms", "lower"),
    ("mlearn.fit_cpu_ms", "ms", "lower"),
    ("mlearn.predict_ns_per_row", "ns", "lower"),
    // synthtraffic: the generator, not under test; here because it is most of set-up
    ("synthtraffic.generate_s", "s", "lower"),
    ("synthtraffic.render_pcap_s", "s", "lower"),
    // bench: the harness's own floor
    ("bench.direct_rtt_p50_us", "us", "lower"),
    ("bench.loadgen_cpu_share", "share", "lower"),
    ("bench.timer_ns", "ns", "lower"),
    ("bench.trace_overhead_share", "share", "lower"),
    ("bench.stage_sum_ratio", "ratio", "higher"),
    ("bench.pass_spread_share", "share", "lower"),
];

/// Per-layer values of one traced run: every declared name, 0 until a
/// workload that exercises the layer sets it.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Self {
        Layers(PER_LAYER.iter().map(|&(name, _, _)| (name, 0.0)).collect())
    }
}

impl Layers {
    /// Sets a declared metric.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared name: that is a bug in this benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("undeclared layer metric {name}"));
        *slot = if value.is_finite() { value } else { 0.0 };
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }

    /// `(name, value, unit)` in declaration order.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, self.0[name], unit))
    }
}

/// `BENCHMARK.json` as this table declares it.
pub fn describe() -> Value {
    let s = |v: &str| Value::String(v.into());
    Value::Object(vec![
        (
            "command".into(),
            Value::Array(vec![s("bash"), s("benchmark/run.sh")]),
        ),
        ("paths".into(), Value::Array(vec![s("benchmark")])),
        ("run_seconds".into(), Value::UInt(RUN_SECONDS)),
        (
            "workloads".into(),
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|&(name, why)| {
                        Value::Object(vec![("name".into(), s(name)), ("why".into(), s(why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|&(name, unit, better, bound)| {
                        Value::Object(vec![
                            ("name".into(), s(name)),
                            ("unit".into(), s(unit)),
                            ("better".into(), s(better)),
                            ("bound".into(), Value::Float(bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|&(name, unit, better)| {
                        Value::Object(vec![
                            ("name".into(), s(name)),
                            ("unit".into(), s(unit)),
                            ("better".into(), s(better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// One timed pass: wall-clock and CPU time of the system under test.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    pub wall_ns: u64,
    pub cpu_ns: u64,
}

/// Times `f` as one pass. CPU time is the calling thread's
/// (`CLOCK_THREAD_CPUTIME_ID`); a workload whose system under test runs
/// shard workers adds the CPU time the engine reports for them. The
/// final verdict pass scores on the calling thread
/// (`check::SCORING_THREADS`), so no thread of the system under test is
/// left off the clocks, and no thread of the harness is on them.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Pass) {
    let (t, cpu) = (std::time::Instant::now(), telemetry::thread_cpu_ns());
    let value = f();
    let pass = Pass {
        wall_ns: t.elapsed().as_nanos() as u64,
        cpu_ns: telemetry::thread_cpu_ns().saturating_sub(cpu),
    };
    (value, pass)
}

/// The timed passes of one end-to-end run and the size of one pass.
#[derive(Debug, Default)]
pub struct Passes {
    pub passes: Vec<Pass>,
    /// Transactions judged per pass.
    pub transactions: u64,
    /// `VmHWM` once the warm-up pass is done, MiB: set-up, the
    /// reference computation and one pass of the system under test.
    /// Later passes add nothing but allocator history, which differs
    /// from run to run when two threads allocate.
    pub peak_rss_mib: f64,
}

impl Passes {
    pub fn tx_per_s(&self) -> Vec<f64> {
        self.passes
            .iter()
            .map(|p| self.transactions as f64 * 1e9 / p.wall_ns as f64)
            .collect()
    }

    pub fn cpu_us_per_tx(&self) -> Vec<f64> {
        self.passes
            .iter()
            .map(|p| p.cpu_ns as f64 / 1e3 / self.transactions as f64)
            .collect()
    }
}

/// Runs `pass` until `seconds` have gone by, and at least three times.
/// Before each pass `between` is told what share of the window has gone
/// by; an end-to-end run times its further set-ups there, spread over
/// the window, so that one slow spell of the host does not fall on all
/// of them.
pub fn repeat_for(
    seconds: f64,
    between: &mut dyn FnMut(f64),
    mut pass: impl FnMut() -> Pass,
) -> Vec<Pass> {
    let started = std::time::Instant::now();
    let mut passes = Vec::new();
    while passes.len() < 3 || started.elapsed().as_secs_f64() < seconds {
        between(started.elapsed().as_secs_f64() / seconds);
        passes.push(pass());
    }
    passes
}
