//! Fault-injection suite: every mutation class from
//! `synthtraffic::faultgen` must go through the lenient ingest pipeline
//! without a panic or an error, with the ingest counters accounting for
//! what was lost, and with detection surviving on whatever conversations
//! the damage left intact.
//!
//! The span pipeline's two offline policies (lenient and strict) are
//! pinned to `tests/golden/ingest_faults_seed{7,42}.json`. Those files
//! were produced at commit d0dbf03 by the copying reference path (owned
//! packets → copying reassembler → packet-fed extractor) just before it
//! was deleted, so its verdict on every fault class is carried forward. To regenerate after a deliberate behaviour change:
//!
//! ```text
//! UPDATE_INGEST_GOLDEN=1 cargo test --test fault_injection
//! ```

use std::sync::OnceLock;

use dynaminer::classifier::{build_dataset, Classifier};
use dynaminer::detector::DetectorConfig;
use dynaminer::forensic;
use nettrace::transaction::fnv1a;
use nettrace::{HttpTransaction, IngestReport, SpanPipeline};
use serde::{Deserialize, Serialize};
use rand::rngs::StdRng;
use rand::SeedableRng;
use synthtraffic::benign::generate_benign;
use synthtraffic::episode::generate_infection;
use synthtraffic::faultgen::{self, Fault};
use synthtraffic::pcapgen::episodes_pcap;
use synthtraffic::{BenignScenario, EkFamily};

fn classifier() -> &'static Classifier {
    static CLF: OnceLock<Classifier> = OnceLock::new();
    CLF.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(77);
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
        Classifier::fit_default(&data, 7)
    })
}

fn infection_pcap(seed: u64, family: EkFamily) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    episodes_pcap(&[generate_infection(&mut rng, family, 1.4e9)])
}

/// Runs damaged bytes through capture → reassembly → transactions and
/// checks the counters are internally consistent.
fn lenient_extract_checked(bytes: &[u8]) -> (Vec<HttpTransaction>, IngestReport) {
    let mut report = IngestReport::new();
    let txs = SpanPipeline::extract_capture_lenient(bytes, &mut report);
    assert_eq!(txs.len() as u64, report.transactions_recovered);
    assert!(report.packets_dropped_decode + report.packets_non_tcp <= report.packets_read);
    assert!(
        report.streams_salvaged + report.streams_discarded + report.streams_skipped_non_http
            <= report.streams_total,
        "{report}"
    );
    (txs, report)
}

#[test]
fn every_fault_class_survives_the_pipeline() {
    for (i, fault) in Fault::ALL.into_iter().enumerate() {
        for seed in 0..4u64 {
            let pcap = infection_pcap(seed + 1, EkFamily::ALL[(i + seed as usize) % 10]);
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let hurt = faultgen::apply(&pcap, fault, &mut rng);
            let (txs, report) = lenient_extract_checked(&hurt);
            // Structure-preserving faults must not cost transactions.
            if matches!(fault, Fault::DuplicatePackets | Fault::ReorderPackets) {
                let clean = SpanPipeline::extract_capture_strict(&pcap).unwrap();
                assert_eq!(txs.len(), clean.len(), "{fault} lost transactions");
                assert!(!report.has_loss(), "{fault}: {report}");
            }
        }
    }
}

#[test]
fn compound_damage_survives_the_pipeline() {
    for seed in 0..3u64 {
        let pcap = infection_pcap(seed + 20, EkFamily::ALL[seed as usize % 10]);
        let mut rng = StdRng::seed_from_u64(40 + seed);
        let hurt = faultgen::apply_all(&pcap, &mut rng);
        let _ = lenient_extract_checked(&hurt);
    }
}

#[test]
fn clean_capture_lenient_matches_strict() {
    for (seed, family) in [(3, EkFamily::Angler), (4, EkFamily::Rig), (5, EkFamily::Goon)] {
        let pcap = infection_pcap(seed, family);
        let strict = SpanPipeline::extract_capture_strict(&pcap).unwrap();
        let (lenient, report) = lenient_extract_checked(&pcap);
        assert_eq!(lenient, strict);
        assert!(!report.has_loss(), "{report}");
    }
}

#[test]
fn fault_free_portions_are_fully_recovered() {
    // Two episodes from different victims, B's packets corrupted, A's
    // untouched: every one of A's transactions must still come through.
    let mut rng = StdRng::seed_from_u64(8);
    let ep_a = generate_infection(&mut rng, EkFamily::Nuclear, 1.4e9);
    let ep_b = generate_infection(&mut rng, EkFamily::Fiesta, 1.4e9);
    assert_ne!(ep_a.victim.addr, ep_b.victim.addr, "episodes must be distinguishable");
    let pcap_a = episodes_pcap(std::slice::from_ref(&ep_a));
    let clean_a = SpanPipeline::extract_capture_strict(&pcap_a).unwrap();
    let pcap_b = episodes_pcap(&[ep_b]);
    for fault in [Fault::MangleRequestLines, Fault::BreakChunkFraming, Fault::CorruptTcpSeq] {
        let mut fault_rng = StdRng::seed_from_u64(9);
        let hurt_b = faultgen::apply(&pcap_b, fault, &mut fault_rng);
        // Merge A's packets with the damaged B packets into one capture
        // (packet-level faults leave a well-framed file behind).
        let mut merged = nettrace::capture::read_packets(&pcap_a).unwrap();
        merged.extend(nettrace::capture::read_packets(&hurt_b).unwrap());
        merged.sort_by(|a, b| a.ts.total_cmp(&b.ts));
        let (txs, _) = lenient_extract_checked(&nettrace::pcap::write_packets(&merged));
        let recovered_a =
            txs.iter().filter(|t| t.client.addr == ep_a.victim.addr).count();
        assert!(
            recovered_a >= clean_a.len(),
            "{fault}: recovered {recovered_a} of {} fault-free transactions",
            clean_a.len()
        );
    }
}

#[test]
fn corrupted_infection_replay_still_alerts() {
    // Find an infection capture the detector alerts on when clean…
    let clf = classifier();
    let mut chosen = None;
    for seed in 0..12u64 {
        let pcap = infection_pcap(100 + seed, EkFamily::ALL[seed as usize % 10]);
        let report =
            forensic::analyze_pcap_lenient(&pcap, clf.clone(), DetectorConfig::default());
        if report.alerts > 0 {
            chosen = Some(pcap);
            break;
        }
    }
    let pcap = chosen.expect("no clean infection capture alerted");
    // …then confirm structure-preserving damage does not silence it.
    for fault in [Fault::DuplicatePackets, Fault::ReorderPackets] {
        let mut rng = StdRng::seed_from_u64(13);
        let hurt = faultgen::apply(&pcap, fault, &mut rng);
        let report =
            forensic::analyze_pcap_lenient(&hurt, clf.clone(), DetectorConfig::default());
        assert!(report.alerts > 0, "{fault} silenced the detector");
        assert!(report.ingest.is_some());
    }
    // A tail truncation loses data but the surviving conversations still
    // carry the infection.
    let cut = &pcap[..pcap.len() - 3];
    let report = forensic::analyze_pcap_lenient(cut, clf.clone(), DetectorConfig::default());
    assert!(report.alerts > 0, "tail truncation silenced the detector");
    assert!(report.ingest.unwrap().has_loss());
}

#[test]
fn telemetry_counters_track_ingest_reports_across_all_fault_classes() {
    // One long-lived registry over every fault class: after each
    // hostile capture's own report is published, every ingest counter
    // must equal the merged report's — the 1:1 field↔counter contract
    // of `nettrace::ingest::publish`.
    let registry = telemetry::Registry::new();
    let mut merged = IngestReport::new();
    let mut captures = 0u64;
    let mut truncated = 0u64;
    for (i, fault) in Fault::ALL.into_iter().enumerate() {
        for seed in 0..3u64 {
            let pcap = infection_pcap(200 + seed, EkFamily::ALL[(i + seed as usize) % 10]);
            let mut rng = StdRng::seed_from_u64(3000 + i as u64 * 10 + seed);
            let hurt = faultgen::apply(&pcap, fault, &mut rng);
            let mut report = IngestReport::new();
            SpanPipeline::extract_capture_lenient(&hurt, &mut report);
            nettrace::ingest::publish(&registry, &report);
            captures += 1;
            truncated += u64::from(report.capture_truncated);
            merged.merge(&report);
            // Consistency must hold after every capture, not only at
            // the end — a divergence points at the offending fault.
            assert_counters_match(&registry, &merged, captures, truncated, fault);
        }
    }
    // The hostile corpus must actually have exercised the malformed-
    // record cause counters, not just the happy path.
    let snap = registry.snapshot();
    assert_eq!(snap.counter("ingest_captures_total"), 11 * 3);
    assert!(snap.counter("ingest_transactions_recovered_total") > 0);
    let loss_causes = [
        "ingest_records_dropped_total",
        "ingest_capture_truncations_total",
        "ingest_packets_dropped_decode_total",
        "ingest_streams_salvaged_total",
        "ingest_streams_discarded_total",
        "ingest_reassembly_gaps_total",
        "ingest_gzip_failures_total",
        "ingest_deflate_failures_total",
        "ingest_chunked_failures_total",
    ];
    let recorded: Vec<&str> =
        loss_causes.into_iter().filter(|c| snap.counter(c) > 0).collect();
    assert!(
        recorded.len() >= 4,
        "fault corpus only moved {} loss-cause counters: {recorded:?}",
        recorded.len()
    );
}

/// Asserts that `registry`'s ingest counters equal `merged` plus a
/// capture count and a truncation count (the merged report ORs its
/// truncation flag). The expected counters are `merged` published into a
/// fresh registry, so every row of the one field→counter table is
/// compared and none is listed here.
fn assert_counters_match(
    registry: &telemetry::Registry,
    merged: &IngestReport,
    captures: u64,
    truncated: u64,
    fault: Fault,
) {
    let expected = telemetry::Registry::new();
    nettrace::ingest::publish(&expected, merged);
    let got = registry.snapshot().counters;
    let want = expected.snapshot().counters;
    assert_eq!(got.keys().collect::<Vec<_>>(), want.keys().collect::<Vec<_>>());
    for (name, &value) in &want {
        let value = match name.as_str() {
            "ingest_captures_total" => captures,
            "ingest_capture_truncations_total" => truncated,
            _ => value,
        };
        assert_eq!(got[name], value, "telemetry/IngestReport divergence on {name} after {fault}");
    }
}

/// Conversation accounting across the hostile corpus: for every fault
/// class, a detector with a one-second idle timeout and tight caps (2
/// conversations per client, 4 transactions per conversation) must keep
/// the conversation ledger balanced — every created conversation is live
/// or evicted by the cap — and the telemetry mirror must match the
/// tracker exactly.
#[test]
fn eviction_accounting_balances_across_all_fault_classes() {
    use dynaminer::detector::OnTheWireDetector;
    let clf = classifier();
    let (mut cap_evicted_total, mut dropped_total) = (0usize, 0u64);
    for (i, fault) in Fault::ALL.into_iter().enumerate() {
        let pcap = infection_pcap(300 + i as u64, EkFamily::ALL[i % 10]);
        let mut rng = StdRng::seed_from_u64(500 + i as u64);
        let hurt = faultgen::apply(&pcap, fault, &mut rng);
        let (txs, _) = lenient_extract_checked(&hurt);
        let registry = telemetry::Registry::new();
        let config = DetectorConfig {
            idle_timeout: 1.0,
            max_conversations_per_client: 2,
            max_transactions_per_conversation: 4,
            ..DetectorConfig::default()
        };
        let mut det = OnTheWireDetector::with_telemetry(clf.clone(), config, &registry);
        for tx in &txs {
            det.observe(tx);
        }
        let t = det.tracker();
        assert_eq!(
            t.created_count(),
            (t.conversation_count() + t.cap_evicted_count()) as u64,
            "{fault}: conversation ledger out of balance"
        );
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("session_cap_evictions_total"),
            t.cap_evicted_count() as u64,
            "{fault}"
        );
        assert_eq!(
            snap.counter("session_transactions_dropped_total"),
            t.dropped_transaction_count(),
            "{fault}"
        );
        assert_eq!(
            snap.gauges["session_conversations_live"],
            t.conversation_count() as i64,
            "{fault}"
        );
        cap_evicted_total += t.cap_evicted_count();
        dropped_total += t.dropped_transaction_count();
    }
    // The corpus must actually bind both caps — otherwise the identity
    // above is vacuous.
    assert!(cap_evicted_total > 0, "the conversation cap never evicted");
    assert!(dropped_total > 0, "the transaction cap never dropped");
}

/// What the reference implementation said about one damaged capture.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct GoldenCase {
    fault: String,
    family: String,
    /// `pcap` for `faultgen`'s own output; `pcapng` when the clean
    /// episode was transcoded first and damaged at the byte level.
    format: String,
    transactions: usize,
    /// FNV-1a over the `Debug` rendering of every lenient transaction.
    tx_digest: String,
    ingest: IngestReport,
    /// FNV-1a over the lenient `ForensicReport` JSON document.
    forensic_digest: String,
    /// `Ok(n)`, or `Err(Variant): <Display>`.
    strict: String,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Golden {
    seed: u64,
    reference: String,
    cases: Vec<GoldenCase>,
}

fn strict_outcome(result: &nettrace::Result<Vec<HttpTransaction>>) -> String {
    match result {
        Ok(txs) => format!("Ok({})", txs.len()),
        Err(e) => {
            let debug = format!("{e:?}");
            let variant = debug.split(|c: char| !c.is_alphanumeric()).next().unwrap_or("");
            format!("Err({variant}): {e}")
        }
    }
}

fn golden_case(fault: &str, family: EkFamily, format: &str, hurt: &[u8]) -> GoldenCase {
    let (txs, ingest) = lenient_extract_checked(hurt);
    let rendered: String = txs.iter().map(|t| format!("{t:?}\n")).collect();
    let strict = SpanPipeline::extract_capture_strict(hurt);
    if let Ok(strict_txs) = &strict {
        assert_eq!(strict_txs, &txs, "{fault}/{}: strict and lenient disagree", family.name());
    }
    let forensic_json = serde_json::to_string(&forensic::analyze_pcap_lenient(
        hurt,
        classifier().clone(),
        DetectorConfig::default(),
    ))
    .unwrap();
    GoldenCase {
        fault: fault.to_string(),
        family: family.name().to_string(),
        format: format.to_string(),
        transactions: txs.len(),
        tx_digest: format!("{:#018x}", fnv1a(rendered.as_bytes())),
        ingest,
        forensic_digest: format!("{:#018x}", fnv1a(forensic_json.as_bytes())),
        strict: strict_outcome(&strict),
    }
}

/// Hand-placed framing damage, one case per stop the record walkers can
/// report: `faultgen`'s random flips almost never land on a length field
/// or a magic, so the strict policy's framing errors are pinned here. The
/// damage goes into the middle record of each capture.
fn framing_cases(family: EkFamily, pcap: &[u8], pcapng: &[u8]) -> Vec<GoldenCase> {
    let middle = |bytes: &[u8]| {
        let mut spans = Vec::new();
        nettrace::capture::read_packet_spans_lenient(bytes, &mut IngestReport::new(), &mut spans);
        spans[spans.len() / 2].range.start
    };
    let damaged = |bytes: &[u8], at: usize, with: &[u8]| {
        let mut hurt = bytes.to_vec();
        hurt[at..at + with.len()].copy_from_slice(with);
        hurt
    };
    // Classic record header: caplen sits 8 bytes before the frame.
    let record = middle(pcap) - 16;
    // pcapng EPB: 28 bytes of block header before the frame, total
    // length at +4 and again in the last four bytes of the block.
    let block = middle(pcapng) - 28;
    let block_len = u32::from_le_bytes(pcapng[block + 4..block + 8].try_into().unwrap()) as usize;
    let cases = [
        ("OversizedCaplen", "pcap", damaged(pcap, record + 8, &[0xff; 4])),
        ("BadMagic", "pcap", damaged(pcap, 0, &[0x00])),
        ("ShortHeader", "pcap", pcap[..10].to_vec()),
        ("TrailerMismatch", "pcapng", damaged(pcapng, block + block_len - 4, &[0xff])),
        ("BadBlockLength", "pcapng", damaged(pcapng, block + 4, &[7, 0, 0, 0])),
        ("BadByteOrderMagic", "pcapng", damaged(pcapng, 8, &[0x00])),
    ];
    cases.iter().map(|(label, format, hurt)| golden_case(label, family, format, hurt)).collect()
}

/// Every `faultgen` class × every family on classic pcap, plus the two
/// byte-level classes on a pcapng transcoding of the same episode (the
/// packet-level classes re-serialize as classic pcap whatever they read),
/// plus [`framing_cases`] on the first three families.
fn golden_corpus(seed: u64) -> Golden {
    let mut cases = Vec::new();
    for (f, family) in EkFamily::ALL.into_iter().enumerate() {
        let pcap = infection_pcap(seed * 1000 + f as u64, family);
        let pcapng =
            nettrace::pcapng::write_packets(&nettrace::capture::read_packets(&pcap).unwrap());
        for (i, fault) in Fault::ALL.into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(seed * 10_000 + i as u64 * 100 + f as u64);
            let label = fault.to_string();
            cases.push(golden_case(&label, family, "pcap", &faultgen::apply(&pcap, fault, &mut rng)));
            if matches!(fault, Fault::TruncateTail | Fault::FlipBytes) {
                let hurt = faultgen::apply(&pcapng, fault, &mut rng);
                cases.push(golden_case(&label, family, "pcapng", &hurt));
            }
        }
        if f < 3 {
            cases.extend(framing_cases(family, &pcap, &pcapng));
        }
    }
    Golden { seed, reference: GOLDEN_REFERENCE.to_string(), cases }
}

const GOLDEN_REFERENCE: &str = "copying ingest path at d0dbf03, deleted by the change that added this file";

fn check_against_golden(seed: u64) {
    let path = format!(
        "{}/tests/golden/ingest_faults_seed{seed}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let actual = golden_corpus(seed);
    if std::env::var_os("UPDATE_INGEST_GOLDEN").is_some() {
        std::fs::write(&path, serde_json::to_string_pretty(&actual).unwrap() + "\n").unwrap();
        eprintln!("regenerated {path}");
        return;
    }
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path}: {e}; regenerate with UPDATE_INGEST_GOLDEN=1"));
    let golden: Golden = serde_json::from_str(&text).unwrap();
    assert_eq!(golden.cases.len(), actual.cases.len(), "case count changed");
    for (want, got) in golden.cases.iter().zip(&actual.cases) {
        assert_eq!(want, got, "{}/{}/{} diverged from the reference", want.fault, want.family, want.format);
    }
    // Every class must be present, and the corpus must have exercised
    // both strict outcomes.
    assert_eq!(actual.cases.len(), (Fault::ALL.len() + 2) * EkFamily::ALL.len() + 6 * 3);
    assert!(actual.cases.iter().any(|c| c.strict.starts_with("Ok(")));
    assert!(actual.cases.iter().any(|c| c.strict.starts_with("Err(")));
}

/// The span pipeline, lenient and strict, reproduces the deleted copying
/// path's transactions, ingest accounting, forensic report and strict
/// outcome on every fault class × family.
#[test]
fn span_pipeline_matches_reference_goldens_seed7() {
    check_against_golden(7);
}

#[test]
fn span_pipeline_matches_reference_goldens_seed42() {
    check_against_golden(42);
}

#[test]
fn every_fault_class_replays_through_the_detector() {
    let clf = classifier();
    for (i, fault) in Fault::ALL.into_iter().enumerate() {
        let pcap = infection_pcap(50 + i as u64, EkFamily::ALL[i % 10]);
        let mut rng = StdRng::seed_from_u64(60 + i as u64);
        let hurt = faultgen::apply(&pcap, fault, &mut rng);
        let report = forensic::analyze_pcap_lenient(&hurt, clf.clone(), DetectorConfig::default());
        let ingest = report.ingest.expect("lenient replay always reports ingest health");
        // Replay counts after trusted-vendor weed-out, so recovered is
        // an upper bound.
        assert!(ingest.transactions_recovered as usize >= report.transactions);
    }
}
