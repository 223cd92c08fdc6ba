//! `wire_proxy`: real loopback connections through
//! `wirefront::ProxySource`, joined to a one-shard engine by
//! `wirefront::run`.
//!
//! The load is a closed loop: [`crate::loadgen`] keeps as many client
//! slots busy as the host has CPUs, each replaying one client's
//! transactions over keep-alive connections that announce the client's
//! own address by PROXY protocol v1. Traffic crosses the host's loopback
//! interface, not a link. The proxy pumps on the calling thread, the
//! engine's shard on its own, the generator (origin and clients) on a
//! third; the generator's CPU time is taken out of `cpu_us_per_tx`.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use dynaminer::forensic::DownloadRecord;
use nettrace::proxyproto::encode_v1_tcp4;
use nettrace::source::{PumpOutcome, SourceStats, TrafficSource};
use nettrace::wiretap::{ConnectionTap, TapConfig, TapDir};
use nettrace::{HttpTransaction, IngestReport};
use streamd::{finish_report, BackpressurePolicy, StreamConfig, StreamEngine};
use synthtraffic::wire::{replay_request_bytes, replay_response_bytes};
use wirefront::{ProxyConfig, ProxySource, RunOptions};

use crate::check::{
    alert_keys, detector_config, download_record, reference, report_digest, AlertKey, Reference,
    Verdict, SCORING_THREADS,
};
use crate::env::nproc;
use crate::gen::{self, Fingerprint, Model};
use crate::layers::fastest;
use crate::loadgen::{self, Connection, Driven, Exchange, Plan, PER_CONNECTION};
use crate::metrics::{timed, Layers, Pass, Passes};
use crate::stats;
use crate::trace::Tracer;

/// Clients replayed per pass: a slice of the `stream_benign` mix, small
/// enough that a pass takes a third of a second and a run holds dozens.
const CLIENTS: usize = 512;
/// How long an idle `wait` may block, which bounds how late the run loop
/// notices that the generator has finished.
const POLL_WAIT_MS: u32 = 2;

pub struct Inputs {
    pub model: Model,
    plan: Plan,
    /// The transactions the proxy should observe, `(ts, seq)`-ordered.
    observed: Vec<HttpTransaction>,
    pub fingerprint: Fingerprint,
    pub generate_s: f64,
}

/// Generates the clients and renders every exchange.
pub fn setup(seed: u64) -> Inputs {
    let model = gen::fit_model(seed);
    let t = Instant::now();
    let corpus = gen::corpus(seed, CLIENTS, CLIENTS / 50);
    let generate_s = t.elapsed().as_secs_f64();

    let mut plan = Plan {
        exchanges: Vec::new(),
        connections: Vec::new(),
        clients: Vec::new(),
    };
    let mut observed: Vec<HttpTransaction> = Vec::new();
    for episode in &corpus {
        let first_connection = plan.connections.len();
        // A connection ends after PER_CONNECTION exchanges, or at a request
        // the origin will hang up on instead of answering.
        let mut rest = episode.transactions.as_slice();
        while !rest.is_empty() {
            let hangup = rest
                .iter()
                .position(|tx| tx.status == 0)
                .map_or(usize::MAX, |i| i + 1);
            let (chunk, tail) = rest.split_at(PER_CONNECTION.min(hangup).min(rest.len()));
            rest = tail;
            // Every exchange of a connection is seen between the
            // endpoints its PROXY preamble announced.
            let (client, server) = (chunk[0].client, chunk[0].server);
            let first = plan.exchanges.len();
            for tx in chunk {
                let id = plan.exchanges.len();
                plan.exchanges.push(Exchange {
                    request: replay_request_bytes(tx, id as u64),
                    response: replay_response_bytes(tx),
                });
                observed.push(HttpTransaction {
                    client,
                    server,
                    ..gen::as_rendered(tx)
                });
            }
            plan.connections.push(Connection {
                preamble: encode_v1_tcp4((client.addr, client.port), (server.addr, server.port)),
                exchanges: first..plan.exchanges.len(),
            });
        }
        plan.clients.push(first_connection..plan.connections.len());
    }
    observed.sort_by(|a, b| a.ts.total_cmp(&b.ts));
    nettrace::assign_seq(&mut observed);
    let mut fingerprint = gen::stream_fingerprint(&observed, CLIENTS, CLIENTS / 50);
    fingerprint.bytes = plan
        .exchanges
        .iter()
        .map(|e| (e.request.len() + e.response.as_ref().map_or(0, Vec::len)) as u64)
        .sum();
    Inputs {
        model,
        plan,
        observed,
        fingerprint,
        generate_s,
    }
}

fn proxy_for(origin: SocketAddr) -> ProxySource {
    let mut config = ProxyConfig::new(origin);
    config.proxy_protocol = true;
    config.policy = BackpressurePolicy::Block;
    config.tap = TapConfig {
        honor_replay_ts: true,
        ..TapConfig::default()
    };
    ProxySource::bind("127.0.0.1:0".parse().expect("literal address"), config)
        .expect("bind the proxy on loopback")
}

fn origin_listener() -> TcpListener {
    TcpListener::bind("127.0.0.1:0").expect("bind the origin on loopback")
}

/// What the proxy side of one pass reported.
struct Observed {
    alerts: Vec<AlertKey>,
    digest: u64,
    enqueued: u64,
    processed: u64,
    dropped: u64,
    stats: SourceStats,
    rejects: u64,
    shard_cpu_ns: u64,
}

/// Holds one pass against the driven load and the offline replay of the
/// same exchanges in `(ts, seq)` order.
fn check(
    inputs: &Inputs,
    offline: &Reference,
    seen: &Observed,
    driven: &Driven,
    verdict: &mut Verdict,
) {
    let n = inputs.plan.exchanges.len() as u64;
    let lost = (n - seen.processed.min(n)).max(driven.failed) + seen.dropped;
    verdict.record(n, lost, || {
        format!(
            "drove {n}: {} answered, {} observed, {} processed, {} dropped",
            driven.completed, seen.stats.transactions, seen.processed, seen.dropped
        )
    });
    verdict.require(seen.enqueued == seen.processed + seen.dropped, || {
        "enqueued != processed + dropped".into()
    });
    verdict.require(
        seen.stats.source_drops == 0 && seen.stats.tap_overflows == 0 && seen.rejects == 0,
        || {
            format!(
                "proxy refused traffic: {:?}, {} PROXY rejects",
                seen.stats, seen.rejects
            )
        },
    );
    verdict.require(seen.alerts == offline.alerts, || {
        format!(
            "{} alerts on the wire, {} in the offline replay",
            seen.alerts.len(),
            offline.alerts.len()
        )
    });
    verdict.require(seen.digest == offline.digest, || {
        "wire report differs from the offline replay's".into()
    });
}

/// One pass: `wirefront::run` on this thread until the generator, on its
/// own thread, has replayed every client. The pass's CPU time is this
/// thread's (the pump and the final verdict pass) plus the shard
/// worker's, which the engine records in its `streamd_shard_cpu_ns`
/// histogram; the generator's thread is on neither clock.
fn pass(inputs: &Inputs, offline: &Reference, verdict: &mut Verdict) -> (Pass, Driven) {
    let origin = origin_listener();
    let mut source = proxy_for(origin.local_addr().expect("bound"));
    let target = source.local_addr();
    let stop = AtomicBool::new(false);
    let classifier = inputs.model.classifier.clone();
    let ((seen, driven), mut pass) = timed(|| {
        std::thread::scope(|scope| {
            let generator = scope.spawn(|| {
                let driven = loadgen::drive(&origin, target, &inputs.plan, nproc(), true);
                stop.store(true, Ordering::Relaxed);
                driven
            });
            let mut engine =
                StreamEngine::new(classifier, detector_config(), StreamConfig::default());
            let summary = wirefront::run(
                &mut source,
                &mut engine,
                &stop,
                RunOptions {
                    poll_wait_ms: POLL_WAIT_MS,
                    scoring_threads: SCORING_THREADS,
                    ..RunOptions::default()
                },
            )
            .expect("wire run");
            let seen = Observed {
                alerts: alert_keys(&summary.alerts),
                digest: report_digest(&summary.report),
                enqueued: summary.enqueued,
                processed: summary.processed,
                dropped: summary.dropped,
                stats: summary.stats,
                rejects: source.proxyproto_rejects().values().sum(),
                shard_cpu_ns: engine
                    .telemetry()
                    .snapshot()
                    .histograms
                    .get("streamd_shard_cpu_ns")
                    .map_or(0, |h| h.sum),
            };
            (seen, generator.join().expect("generator thread"))
        })
    });
    pass.cpu_ns += seen.shard_cpu_ns;
    check(inputs, offline, &seen, &driven, verdict);
    (pass, driven)
}

/// The end-to-end run: a warm-up pass, then timed passes for `seconds`.
pub fn e2e(
    inputs: &Inputs,
    seconds: f64,
    between: &mut dyn FnMut(f64),
    verdict: &mut Verdict,
) -> Passes {
    let offline = reference(&inputs.observed, &inputs.model.classifier);
    pass(inputs, &offline, verdict);
    let peak_rss_mib = crate::env::peak_rss_mib();
    Passes {
        passes: crate::metrics::repeat_for(seconds, between, || pass(inputs, &offline, verdict).0),
        transactions: inputs.plan.exchanges.len() as u64,
        peak_rss_mib,
    }
}

/// What the traced pump loop accumulated. Pump and wait calls are far
/// too short for spans of their own, so they are summed and counted.
#[derive(Default)]
struct PumpLedger {
    pump_ns: u64,
    wait_ns: u64,
    pumps: u64,
    idle_pumps: u64,
}

/// One traced pass: the same join of source and engine as
/// `wirefront::run`, driven from here so each `pump` and `wait` is timed.
fn traced_pass(
    inputs: &Inputs,
    tracer: &mut Tracer,
    ledger: &mut PumpLedger,
) -> (Observed, Driven, u64) {
    let origin = origin_listener();
    let mut source = proxy_for(origin.local_addr().expect("bound"));
    let target = source.local_addr();
    let stop = AtomicBool::new(false);
    let classifier = inputs.model.classifier.clone();
    tracer.next_pass();
    let ((seen, driven), wall) = tracer.span("pass", |t| {
        std::thread::scope(|scope| {
            let generator = scope.spawn(|| {
                let driven = loadgen::drive(&origin, target, &inputs.plan, nproc(), true);
                stop.store(true, Ordering::Relaxed);
                driven
            });
            let mut engine =
                StreamEngine::new(classifier, detector_config(), StreamConfig::default());
            let mut downloads: Vec<DownloadRecord> = Vec::new();
            let (fed, _) = t.span("wirefront.pump_loop", |_| {
                let mut out: Vec<HttpTransaction> = Vec::new();
                let mut next_seq = 0u64;
                let ((), fed) = engine.feed(|handle| loop {
                    let stopping = stop.load(Ordering::Relaxed);
                    if stopping {
                        source.shutdown(&mut out);
                    } else {
                        let started = Instant::now();
                        let outcome = source.pump(&mut out).expect("pump");
                        ledger.pump_ns += started.elapsed().as_nanos() as u64;
                        ledger.pumps += 1;
                        if outcome == PumpOutcome::Idle {
                            ledger.idle_pumps += 1;
                            if out.is_empty() {
                                handle.flush();
                                let started = Instant::now();
                                source.wait(POLL_WAIT_MS);
                                ledger.wait_ns += started.elapsed().as_nanos() as u64;
                            }
                        }
                    }
                    for mut tx in out.drain(..) {
                        tx.seq = next_seq;
                        next_seq += 1;
                        downloads.extend(download_record(&tx));
                        handle.push(tx);
                    }
                    if stopping {
                        return;
                    }
                });
                fed
            });
            let (report, _) = t.span("streamd.finish_report", |_| {
                finish_report(&mut engine, downloads, SCORING_THREADS, None)
            });
            let seen = Observed {
                alerts: alert_keys(&fed.alerts),
                digest: report_digest(&report),
                enqueued: fed.enqueued,
                processed: fed.processed,
                dropped: fed.dropped,
                stats: source.stats(),
                rejects: source.proxyproto_rejects().values().sum(),
                shard_cpu_ns: fed.per_shard_cpu_ns.iter().sum(),
            };
            (seen, generator.join().expect("generator thread"))
        })
    });
    (seen, driven, wall)
}

/// The traced run: `run`-driven passes for the latency figures and the
/// overhead base, self-driven passes for the pump ledger, then the
/// no-proxy baseline and the tap on its own.
pub fn traced(
    inputs: &Inputs,
    seconds: f64,
    tracer: &mut Tracer,
    layers: &mut Layers,
    verdict: &mut Verdict,
) {
    let n = inputs.plan.exchanges.len() as f64;
    let (mut plain, mut spanned, mut rtt_ns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut ledger, mut last) = (PumpLedger::default(), None);
    let (mut generator_cpu, mut generator_wall, mut shard_cpu) = (0u64, 0u64, 0u64);
    let offline = reference(&inputs.observed, &inputs.model.classifier);
    pass(inputs, &offline, verdict); // warm-up
    let started = Instant::now();
    while plain.len() < 2 || started.elapsed().as_secs_f64() < seconds * 0.6 {
        let (p, driven) = pass(inputs, &offline, verdict);
        plain.push(n * 1e9 / p.wall_ns as f64);
        rtt_ns.extend(driven.rtt_ns);
        generator_cpu += driven.cpu_ns;
        generator_wall += driven.wall_ns;

        let (seen, driven, wall) = traced_pass(inputs, tracer, &mut ledger);
        check(inputs, &offline, &seen, &driven, verdict);
        spanned.push(n * 1e9 / wall as f64);
        shard_cpu += seen.shard_cpu_ns;
        last = Some(seen);
    }
    let seen = last.expect("at least two passes ran");
    let passes = spanned.len() as f64;
    let loop_ns = tracer.total("wirefront.pump_loop").0 as f64;
    crate::layers::harness_layers(&plain, &spanned, tracer, layers);
    layers.set(
        "bench.loadgen_cpu_share",
        stats::ratio(generator_cpu as f64, generator_wall as f64),
    );
    layers.set(
        "wirefront.relay_mb_per_s",
        stats::median(&plain) / n * inputs.fingerprint.bytes as f64 / 1e6,
    );
    layers.set(
        "wirefront.rtt_p50_us",
        stats::percentile(&rtt_ns, 50.0) as f64 / 1e3,
    );
    layers.set(
        "wirefront.rtt_p99_us",
        stats::percentile(&rtt_ns, 99.0) as f64 / 1e3,
    );
    layers.set("wirefront.rtt_samples", rtt_ns.len() as f64);
    layers.set(
        "wirefront.pump_ns_per_tx",
        ledger.pump_ns as f64 / passes / n,
    );
    layers.set("wirefront.pump_busy_share", ledger.pump_ns as f64 / loop_ns);
    layers.set("wirefront.wait_share", ledger.wait_ns as f64 / loop_ns);
    layers.set(
        "wirefront.idle_pump_share",
        stats::ratio(ledger.idle_pumps as f64, ledger.pumps as f64),
    );
    layers.set("wirefront.conns_accepted", seen.stats.connections as f64);
    layers.set("wirefront.source_drops", seen.stats.source_drops as f64);
    layers.set("wirefront.tap_overflows", seen.stats.tap_overflows as f64);
    layers.set("wirefront.proxyproto_rejects", seen.rejects as f64);
    layers.set("streamd.shard_cpu_ns_per_tx", shard_cpu as f64 / passes / n);
    layers.set(
        "streamd.shard_cpu_share",
        stats::ratio(shard_cpu as f64, tracer.total("pass").0 as f64),
    );
    layers.set("streamd.dropped", seen.dropped as f64);
    layers.set("core.alerts", seen.alerts.len() as f64);

    // The same exchanges, client to origin with no proxy between: what
    // the generator and the loopback cost by themselves.
    let origin = origin_listener();
    let (driven, _) = tracer.span("bench.direct", |t| {
        t.count(inputs.plan.exchanges.len() as u64);
        loadgen::drive(
            &origin,
            origin.local_addr().expect("bound"),
            &inputs.plan,
            nproc(),
            false,
        )
    });
    verdict.record(inputs.plan.exchanges.len() as u64, driven.failed, || {
        format!("{} of the no-proxy exchanges failed", driven.failed)
    });
    layers.set(
        "bench.direct_rtt_p50_us",
        stats::percentile(&driven.rtt_ns, 50.0) as f64 / 1e3,
    );

    // The connection tap alone, fed the rendered bytes with no socket.
    let mut emitted = Vec::new();
    let mut report = IngestReport::new();
    let ((), ns) = fastest(tracer, "nettrace.tap", inputs.plan.exchanges.len(), || {
        emitted.clear();
        for conn in &inputs.plan.connections {
            let mut tap = ConnectionTap::new(
                nettrace::reassembly::Endpoint::new([10, 0, 0, 1].into(), 40000),
                nettrace::reassembly::Endpoint::new([192, 0, 2, 1].into(), 80),
                TapConfig {
                    honor_replay_ts: true,
                    ..TapConfig::default()
                },
            );
            for id in conn.exchanges.clone() {
                let exchange = &inputs.plan.exchanges[id];
                tap.offer(
                    TapDir::Request,
                    &exchange.request,
                    0.0,
                    &mut report,
                    &mut emitted,
                );
                if let Some(response) = &exchange.response {
                    tap.offer(TapDir::Response, response, 0.0, &mut report, &mut emitted);
                }
            }
            tap.close(&mut report, &mut emitted);
        }
    });
    verdict.record(
        inputs.plan.exchanges.len() as u64,
        inputs.plan.exchanges.len() as u64 - emitted.len() as u64,
        || {
            format!(
                "the tap alone emitted {} of {} exchanges",
                emitted.len(),
                inputs.plan.exchanges.len()
            )
        },
    );
    layers.set("nettrace.tap_ns_per_tx", ns as f64 / n);
}
