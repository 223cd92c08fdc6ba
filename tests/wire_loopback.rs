//! Loopback parity: the wire ingress vs offline pcap analysis.
//!
//! The tentpole claim of the wirefront subsystem is parity by
//! construction — traffic observed on the wire produces the same
//! alerts and the same `ForensicReport` as offline analysis of a
//! capture of the same conversations. These tests hold that claim
//! end-to-end with *real sockets*: a replay origin server, real client
//! connections driven through the inline forward proxy (PROXY-protocol
//! v1 preserving the episode's true endpoints), and the run loop
//! feeding a sharded `StreamEngine` — compared field-for-field against
//! `wirefront::replay` of the equivalent pcap bytes, the path
//! `dynaminer replay` takes.
//!
//! Also pinned here: the zero-loss graceful drain
//! (`enqueued == processed + dropped` over everything the source
//! emitted) when the stop flag latches mid-stream, and the capture
//! source's parity through the same run loop.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::Duration;

use dynaminer::classifier::{build_dataset, Classifier};
use dynaminer::detector::DetectorConfig;
use dynaminer::forensic::ForensicReport;
use nettrace::wiretap::TapConfig;
use nettrace::source::ReplaySource;
use nettrace::{HttpTransaction, IngestReport, SpanPipeline};
use rand::rngs::StdRng;
use rand::SeedableRng;
use streamd::{StreamConfig, StreamEngine};
use synthtraffic::benign::generate_benign;
use synthtraffic::episode::generate_infection;
use synthtraffic::pcapgen::episodes_pcap;
use synthtraffic::wire::{drive_episodes, merged_wire_transactions, wire_episode_set, OriginServer};
use synthtraffic::{BenignScenario, EkFamily};
use wirefront::{
    replay, run, CaptureConfig, CaptureSource, ProxyConfig, ProxySource, RunOptions,
};

const SHARDS: usize = 2;

fn classifier() -> &'static Classifier {
    static CLF: OnceLock<Classifier> = OnceLock::new();
    CLF.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(7);
        let mut items: Vec<(Vec<HttpTransaction>, bool)> = Vec::new();
        for i in 0..30 {
            items.push((
                generate_infection(&mut rng, EkFamily::ALL[i % 10], 1.4e9).transactions,
                true,
            ));
            items.push((
                generate_benign(&mut rng, BenignScenario::WEIGHTED[i % 8].0, 1.43e9).transactions,
                false,
            ));
        }
        let data = build_dataset(items.iter().map(|(t, l)| (t.as_slice(), *l)));
        Classifier::fit_default(&data, 11)
    })
}

fn detector_config() -> DetectorConfig {
    DetectorConfig { scoring_threads: 1, ..DetectorConfig::default() }
}

fn stream_config() -> StreamConfig {
    StreamConfig { shards: SHARDS, ..StreamConfig::default() }
}

/// Offline leg: lenient extraction of the episode pcap, replayed into
/// the sharded engine — the exact path `dynaminer replay --shards N`
/// takes.
fn offline_report(episodes_pcap_bytes: &[u8]) -> (ForensicReport, usize) {
    let mut ingest = IngestReport::new();
    let txs = SpanPipeline::extract_capture_lenient(episodes_pcap_bytes, &mut ingest);
    let n = txs.len();
    let mut engine = StreamEngine::new(classifier().clone(), detector_config(), stream_config());
    let options = RunOptions { scoring_threads: 1, ..RunOptions::default() };
    let summary = replay(ReplaySource::new(txs), &mut engine, options).expect("offline replay");
    (summary.report, n)
}

/// Strips the legs' out-of-band fields (`ingest` counts different
/// units per source; `stats` needs a registry) and compares the rest
/// of the two reports field-for-field via their JSON forms.
fn assert_reports_equal(mut wire: ForensicReport, mut offline: ForensicReport) {
    wire.ingest = None;
    offline.ingest = None;
    wire.stats = None;
    offline.stats = None;
    let wire_json = serde_json::to_string_pretty(&wire).expect("serialize wire report");
    let offline_json =
        serde_json::to_string_pretty(&offline).expect("serialize offline report");
    assert_eq!(wire_json, offline_json, "wire and offline forensic reports diverge");
}

#[test]
fn proxy_loopback_matches_offline_pcap_analysis() {
    let episodes = wire_episode_set(31, 2, 2).unwrap();
    let transactions = merged_wire_transactions(&episodes);
    let pcap = episodes_pcap(&episodes);
    let (offline, offline_txs) = offline_report(&pcap);
    assert_eq!(offline_txs, transactions.len(), "offline extraction lost transactions");

    // Wire leg: origin ← proxy ← sequential real clients.
    let origin = OriginServer::start(&transactions).expect("start origin");
    let mut config = ProxyConfig::new(origin.addr());
    config.proxy_protocol = true;
    config.tap = TapConfig { honor_replay_ts: true, ..TapConfig::default() };
    let mut source =
        ProxySource::bind("127.0.0.1:0".parse().unwrap(), config).expect("bind proxy");
    let proxy_addr = source.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let driver = {
        let txs = transactions.clone();
        let stop = stop.clone();
        thread::spawn(move || {
            let driven = drive_episodes(proxy_addr, &txs, true).expect("drive episodes");
            stop.store(true, Ordering::SeqCst);
            driven
        })
    };

    let mut engine = StreamEngine::new(classifier().clone(), detector_config(), stream_config());
    let summary = run(
        &mut source,
        &mut engine,
        &stop,
        RunOptions { poll_wait_ms: 5, scoring_threads: 1, ..RunOptions::default() },
    )
    .expect("wire run");
    let driven = driver.join().expect("driver thread");
    origin.stop();

    // Zero-loss accounting over everything the clients sent.
    assert_eq!(driven, transactions.len() as u64);
    assert_eq!(summary.enqueued, driven, "proxy lost or invented transactions");
    assert_eq!(summary.enqueued, summary.processed + summary.dropped);
    assert_eq!(summary.dropped, 0);
    assert_eq!(summary.stats.connections, driven, "one client connection per transaction");

    assert_reports_equal(summary.report, offline);
}

#[test]
fn capture_tail_through_run_loop_matches_offline_analysis() {
    let episodes = wire_episode_set(32, 2, 1).unwrap();
    let pcap = episodes_pcap(&episodes);
    let (offline, offline_txs) = offline_report(&pcap);

    let path = std::env::temp_dir()
        .join(format!("wire_loopback_capture_{}.pcap", std::process::id()));
    std::fs::write(&path, &pcap).expect("write pcap");

    let mut source = CaptureSource::pcap_file(&path, false, CaptureConfig::default())
        .expect("open capture");
    let mut engine = StreamEngine::new(classifier().clone(), detector_config(), stream_config());
    let stop = AtomicBool::new(false);
    // Checkpoint aggressively so the segment/snapshot path is exercised
    // by a real source run, not just by the durable replay tests.
    let mut snapshots = 0u64;
    let mut sink = |_snap: &streamd::EngineSnapshot| {
        snapshots += 1;
        Ok(())
    };
    let summary = run(
        &mut source,
        &mut engine,
        &stop,
        RunOptions {
            checkpoint_every: 8,
            snapshot_sink: Some(&mut sink),
            scoring_threads: 1,
            ..RunOptions::default()
        },
    )
    .expect("capture run");
    std::fs::remove_file(&path).ok();

    assert_eq!(summary.enqueued, offline_txs as u64);
    assert_eq!(summary.enqueued, summary.processed + summary.dropped);
    assert_eq!(summary.dropped, 0);
    assert_eq!(summary.checkpoints, snapshots);
    assert!(snapshots >= 2, "checkpoint cadence never fired (got {snapshots})");
    assert_reports_equal(summary.report, offline);
}

#[test]
fn stop_mid_stream_drains_with_zero_loss() {
    let episodes = wire_episode_set(33, 1, 1).unwrap();
    let transactions = merged_wire_transactions(&episodes);
    let origin = OriginServer::start(&transactions).expect("start origin");
    let mut config = ProxyConfig::new(origin.addr());
    config.proxy_protocol = true;
    config.tap = TapConfig { honor_replay_ts: true, ..TapConfig::default() };
    let mut source =
        ProxySource::bind("127.0.0.1:0".parse().unwrap(), config).expect("bind proxy");
    let proxy_addr = source.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    // The driver races a mid-stream termination: connections after the
    // drain start are refused, which drive_episodes tolerates only for
    // response reads — so swallow its error like a real client fleet
    // losing its proxy.
    let driver = {
        let txs = transactions.clone();
        thread::spawn(move || drive_episodes(proxy_addr, &txs, true).unwrap_or(0))
    };
    let stopper = {
        let stop = stop.clone();
        thread::spawn(move || {
            thread::sleep(Duration::from_millis(40));
            stop.store(true, Ordering::SeqCst);
        })
    };

    let mut engine = StreamEngine::new(classifier().clone(), detector_config(), stream_config());
    let summary = run(
        &mut source,
        &mut engine,
        &stop,
        RunOptions { poll_wait_ms: 5, scoring_threads: 1, ..RunOptions::default() },
    )
    .expect("wire run");
    stopper.join().unwrap();
    driver.join().unwrap();
    origin.stop();

    // Whatever made it onto the wire before the drain is fully
    // accounted: nothing lost between socket and shard.
    assert_eq!(summary.enqueued, summary.processed + summary.dropped);
    assert_eq!(summary.dropped, 0);
    assert_eq!(summary.enqueued, summary.stats.transactions);
    assert!(summary.enqueued <= transactions.len() as u64);
    assert_eq!(summary.report.transactions as u64, summary.enqueued);
}
