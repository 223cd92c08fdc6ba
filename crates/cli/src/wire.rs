//! `dynaminer wire` — the on-the-wire ingress subcommands.
//!
//! `wire proxy` and `wire capture` join a live [`TrafficSource`] to a
//! stream engine through `wirefront::run` (`--shards`, `--snapshot-out`,
//! `--resume`, `--checkpoint-every`, `--reload-model`, read as `replay`
//! reads them); `SIGTERM`/`SIGINT` triggers the zero-loss graceful
//! drain. `wire origin`, `wire drive`, and `wire pcap` are
//! the deterministic loopback parity harness: for the same
//! `--seed`/`--infections`/`--benign` they serve, drive, and render
//! the *same* episode set, so a proxy run and an offline `replay` of
//! the generated capture can be compared field for field.

use std::collections::BTreeMap;
use std::fs;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::Duration;

use dynaminer::forensic::ForensicReport;
use nettrace::source::TrafficSource;
use nettrace::wiretap::TapConfig;
use streamd::{BackpressurePolicy, StreamConfig, StreamEngine};
use synthtraffic::pcapgen::episodes_pcap;
use synthtraffic::wire::{drive_episodes, merged_wire_transactions, wire_episode_set, OriginServer};
use synthtraffic::Episode;
use wirefront::{metrics, run, CaptureConfig, CaptureSource, ProxyConfig, ProxySource, RunOptions};

use crate::commands::{self, Options, Out};

/// Dispatches `dynaminer wire <subcommand>`.
///
/// # Errors
///
/// Unknown subcommand, bad flags, or any subcommand failure.
pub fn wire(args: &[String], out: &mut Out) -> Result<(), String> {
    let Some((sub, rest)) = args.split_first() else {
        return Err(format!("wire expects a subcommand\n{}", commands::USAGE));
    };
    match sub.as_str() {
        "proxy" => proxy(rest, out),
        "capture" => capture(rest, out),
        "origin" => origin(rest),
        "drive" => drive(rest, out),
        "pcap" => pcap(rest, out),
        other => Err(format!("unknown wire subcommand {other:?}\n{}", commands::USAGE)),
    }
}

/// The deterministic episode set shared by `origin`, `drive`, and
/// `pcap`: same flags, same episodes, in every process.
fn episode_set(opts: &Options) -> Result<Vec<Episode>, String> {
    let seed = opts.u64_flag("seed", 7)?;
    let infections = opts.u64_flag("infections", 2)? as usize;
    let benign = opts.u64_flag("benign", 2)? as usize;
    wire_episode_set(seed, infections, benign)
}

/// Publishes the bound address for harness coordination: written to
/// `--ready-file` atomically (tmp + rename), so a watcher never reads
/// a partial address.
fn announce_ready(opts: &Options, addr: SocketAddr) -> Result<(), String> {
    let Some(path) = opts.flags.get("ready-file") else {
        return Ok(());
    };
    let tmp = format!("{path}.tmp");
    fs::write(&tmp, format!("{addr}\n")).map_err(|e| format!("cannot write {tmp}: {e}"))?;
    fs::rename(&tmp, path).map_err(|e| format!("cannot rename {tmp} to {path}: {e}"))
}

fn parse_addr(opts: &Options, flag: &str) -> Result<SocketAddr, String> {
    let text = opts.required(flag)?;
    text.parse().map_err(|_| format!("--{flag} expects HOST:PORT, got {text:?}"))
}

fn tap_config(opts: &Options) -> Result<TapConfig, String> {
    let mut tap = TapConfig::default();
    let capacity = opts.u64_flag("tap-capacity", 0)?;
    if capacity > 0 {
        tap.capacity = capacity as usize;
    }
    tap.honor_replay_ts = opts.bool_flag("honor-replay-ts");
    Ok(tap)
}

/// `wire proxy` — inline forward proxy feeding the engine.
fn proxy(args: &[String], out: &mut Out) -> Result<(), String> {
    let opts = commands::parse(args, "wire proxy")?;
    let listen = parse_addr(&opts, "listen")?;
    let origin_addr = parse_addr(&opts, "origin")?;
    let mut config = ProxyConfig::new(origin_addr);
    config.proxy_protocol = opts.bool_flag("proxy-protocol");
    config.tap = tap_config(&opts)?;
    if opts.bool_flag("drop-newest") {
        config.policy = BackpressurePolicy::DropNewest;
    }
    config.max_connections = opts.u64_flag("max-connections", 1024)? as usize;
    let mut source = ProxySource::bind(listen, config)
        .map_err(|e| format!("cannot listen on {listen}: {e}"))?;
    announce_ready(&opts, source.local_addr())?;
    eprintln!("wire proxy: {} -> {origin_addr}", source.local_addr());
    run_source(&opts, &mut source, |proxy| proxy.proxyproto_rejects().clone(), out)
}

#[cfg(target_os = "linux")]
fn live_source(iface: &str, config: CaptureConfig) -> Result<CaptureSource, String> {
    CaptureSource::live(iface, config)
        .map_err(|e| format!("cannot capture on {iface} (CAP_NET_RAW required): {e}"))
}

#[cfg(not(target_os = "linux"))]
fn live_source(iface: &str, _config: CaptureConfig) -> Result<CaptureSource, String> {
    Err(format!("--iface {iface}: live capture requires Linux AF_PACKET support"))
}

/// `wire capture` — packet source (pcap tail or AF_PACKET) feeding
/// the engine.
fn capture(args: &[String], out: &mut Out) -> Result<(), String> {
    let opts = commands::parse(args, "wire capture")?;
    let mut config = CaptureConfig { tap: tap_config(&opts)?, ..CaptureConfig::default() };
    if let Some(ports) = opts.flags.get("ports") {
        config.ports = ports
            .split(',')
            .map(|p| {
                p.trim()
                    .parse()
                    .map_err(|_| format!("--ports expects comma-separated ports, got {p:?}"))
            })
            .collect::<Result<_, _>>()?;
    }
    let mut source = match (opts.flags.get("pcap"), opts.flags.get("iface")) {
        (Some(path), None) => {
            CaptureSource::pcap_file(Path::new(path), opts.bool_flag("follow"), config)
                .map_err(|e| format!("cannot open {path}: {e}"))?
        }
        (None, Some(iface)) => live_source(iface, config)?,
        _ => return Err("wire capture needs exactly one of --pcap or --iface".into()),
    };
    run_source(&opts, &mut source, |_| BTreeMap::new(), out)
}

/// `wire origin` — the loopback replay origin, serving the episode
/// set until terminated.
fn origin(args: &[String]) -> Result<(), String> {
    let opts = commands::parse(args, "wire origin")?;
    let episodes = episode_set(&opts)?;
    let transactions = merged_wire_transactions(&episodes);
    let server = OriginServer::start(&transactions).map_err(|e| format!("cannot bind: {e}"))?;
    announce_ready(&opts, server.addr())?;
    eprintln!("wire origin: serving {} transactions on {}", transactions.len(), server.addr());
    let stop = wirefront::sys::install_termination_handler();
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(50));
    }
    server.stop();
    Ok(())
}

/// `wire drive` — replays the episode set through a proxy, as real
/// sequential client connections.
fn drive(args: &[String], out: &mut Out) -> Result<(), String> {
    let opts = commands::parse(args, "wire drive")?;
    let proxy_addr = parse_addr(&opts, "proxy")?;
    let episodes = episode_set(&opts)?;
    let transactions = merged_wire_transactions(&episodes);
    let driven = drive_episodes(proxy_addr, &transactions, opts.bool_flag("proxy-protocol"))
        .map_err(|e| format!("drive through {proxy_addr} failed: {e}"))?;
    writeln!(out, "driven {driven} transactions through {proxy_addr}");
    Ok(())
}

/// `wire pcap` — renders the same episode set as an offline capture
/// file (the parity reference for `replay`).
fn pcap(args: &[String], out: &mut Out) -> Result<(), String> {
    let opts = commands::parse(args, "wire pcap")?;
    let path = opts.required("out")?;
    let episodes = episode_set(&opts)?;
    let bytes = episodes_pcap(&episodes);
    fs::write(path, &bytes).map_err(|e| format!("cannot write {path}: {e}"))?;
    writeln!(out, "{path}: {} bytes, {} episodes", bytes.len(), episodes.len());
    Ok(())
}

/// The drain accounting and report a wire run emits with
/// `--report-out` (and `--format json`).
#[derive(serde::Serialize)]
struct WireReport {
    enqueued: u64,
    processed: u64,
    dropped: u64,
    backpressure_waits: u64,
    connections: u64,
    bytes_in: u64,
    transactions: u64,
    tap_overflows: u64,
    source_drops: u64,
    checkpoints: u64,
    report: ForensicReport,
}

/// Shared engine loop for `wire proxy` and `wire capture`: engine
/// set-up, signal handling, run, source metrics, and reporting.
/// `rejects` reads a concrete source's PROXY handshake rejects, which
/// [`TrafficSource`] does not carry.
fn run_source<S: TrafficSource>(
    opts: &Options,
    source: &mut S,
    rejects: fn(&S) -> BTreeMap<&'static str, u64>,
    out: &mut Out,
) -> Result<(), String> {
    let registry = telemetry::Registry::new();
    let metrics_out = opts.flags.get("metrics-out");
    let idle_exit_ms = opts.u64_flag("idle-exit-ms", 0)?;
    let threads = opts.threads_flag()?;
    let (classifier, detector_config) = commands::detector(opts, &registry, threads)?;
    let stream_config = StreamConfig {
        shards: (opts.u64_flag("shards", 1)? as usize).max(1),
        ..StreamConfig::default()
    };
    let mut engine = match opts.flags.get("resume") {
        Some(p) => StreamEngine::restore(
            classifier,
            detector_config,
            stream_config,
            &registry,
            streamd::read_snapshot(Path::new(p))?,
        ),
        None => StreamEngine::with_telemetry(classifier, detector_config, stream_config, &registry),
    };
    let reload = commands::reload_flag(opts)?;
    let mut sink = opts.flags.get("snapshot-out").map(|p| {
        let path = std::path::PathBuf::from(p);
        move |snap: &streamd::EngineSnapshot| streamd::write_snapshot_atomic(&path, snap)
    });
    let run_opts = RunOptions {
        checkpoint_every: opts.u64_flag("checkpoint-every", 0)?,
        snapshot_sink: sink.as_mut().map(|f| f as wirefront::SnapshotSink<'_>),
        reload,
        idle_timeout: (idle_exit_ms > 0).then(|| Duration::from_millis(idle_exit_ms)),
        poll_wait_ms: 50,
        scoring_threads: threads,
        registry: Some(&registry),
    };
    let stop = wirefront::sys::install_termination_handler();
    let mut summary = run(source, &mut engine, stop, run_opts)?;
    // The source is final once `run` has shut it down; re-snapshot so
    // the report's stats carry its series too.
    metrics::publish_source(&registry, &summary.stats);
    metrics::publish_proxyproto_rejects(&registry, &rejects(source));
    summary.report.stats = Some(registry.snapshot());

    if let Some(path) = metrics_out {
        commands::write_metrics(&registry, path)?;
    }
    let wire_report = WireReport {
        enqueued: summary.enqueued,
        processed: summary.processed,
        dropped: summary.dropped,
        backpressure_waits: summary.backpressure_waits,
        connections: summary.stats.connections,
        bytes_in: summary.stats.bytes_in,
        transactions: summary.stats.transactions,
        tap_overflows: summary.stats.tap_overflows,
        source_drops: summary.stats.source_drops,
        checkpoints: summary.checkpoints,
        report: summary.report,
    };
    if let Some(path) = opts.flags.get("report-out") {
        let json = serde_json::to_string_pretty(&wire_report).map_err(|e| e.to_string())?;
        fs::write(path, json + "\n").map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("report written to {path}");
    }
    if opts.flags.get("format").map(String::as_str) == Some("json") {
        let json = serde_json::to_string_pretty(&wire_report).map_err(|e| e.to_string())?;
        writeln!(out, "{json}");
        return Ok(());
    }
    writeln!(
        out,
        "wire: {} transactions, {} conversations, {} alert(s)",
        wire_report.report.transactions,
        wire_report.report.conversations.len(),
        wire_report.report.alerts,
    );
    writeln!(
        out,
        "  drain: enqueued={} processed={} dropped={} backpressure_waits={}",
        summary.enqueued, summary.processed, summary.dropped, summary.backpressure_waits,
    );
    writeln!(
        out,
        "  source: connections={} bytes_in={} transactions={} tap_overflows={} source_drops={}",
        summary.stats.connections,
        summary.stats.bytes_in,
        summary.stats.transactions,
        summary.stats.tap_overflows,
        summary.stats.source_drops,
    );
    if let Some(ingest) = &wire_report.report.ingest {
        writeln!(out, "  ingest: {ingest}");
    }
    Ok(())
}
