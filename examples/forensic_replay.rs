//! Forensic detection on a recorded capture (the paper's Case Study 1).
//!
//! Builds a pcap of a long streaming-site session with injected infection
//! conversations, then replays the capture through DynaMiner and prints
//! per-conversation verdicts plus every exploit-type download with its
//! digest (the artifacts the paper submits to VirusTotal).
//!
//! Run with: `cargo run --example forensic_replay`

use dynaminer::classifier::{build_dataset, Classifier};
use dynaminer::detector::DetectorConfig;
use dynaminer::forensic;
use rand::rngs::StdRng;
use rand::SeedableRng;
use synthtraffic::benign::generate_benign;
use synthtraffic::episode::generate_infection;
use synthtraffic::pcapgen;
use synthtraffic::{BenignScenario, EkFamily};

fn main() {
    // Train on a small ground-truth-style corpus.
    let mut rng = StdRng::seed_from_u64(11);
    let mut corpus: Vec<(Vec<nettrace::HttpTransaction>, bool)> = Vec::new();
    for i in 0..50 {
        corpus.push((
            generate_infection(&mut rng, EkFamily::ALL[i % 10], 1.4e9).transactions,
            true,
        ));
        corpus.push((
            generate_benign(&mut rng, BenignScenario::WEIGHTED[i % 8].0, 1.43e9).transactions,
            false,
        ));
    }
    let data = build_dataset(corpus.iter().map(|(t, l)| (t.as_slice(), *l)));
    let classifier = Classifier::fit_default(&data, 5);

    // Record a "streaming session": benign video traffic with two
    // injected infections, serialized to real pcap bytes.
    let mut rec_rng = StdRng::seed_from_u64(77);
    let mut episodes = Vec::new();
    let session_start = 1.468e9; // July 2016, like the EURO2016 capture
    for i in 0..4 {
        let start = session_start + i as f64 * 400.0;
        episodes.push(generate_benign(&mut rec_rng, BenignScenario::Video, start));
    }
    for (i, family) in [EkFamily::Angler, EkFamily::Neutrino].iter().enumerate() {
        let start = session_start + 900.0 + i as f64 * 600.0;
        episodes.push(generate_infection(&mut rec_rng, *family, start));
    }
    let pcap = pcapgen::episodes_pcap(&episodes);
    println!("recorded session: {} episodes, {} pcap bytes", episodes.len(), pcap.len());

    // Replay through DynaMiner. Damaged records would be skipped and
    // counted in the ingest line rather than stop the replay.
    let report = forensic::analyze_pcap_lenient(&pcap, classifier, DetectorConfig::default());
    if let Some(ingest) = &report.ingest {
        println!("ingest: {ingest}");
    }
    println!(
        "replayed {} transactions across {} conversations; {} alert(s)",
        report.transactions,
        report.conversations.len(),
        report.alerts
    );
    for verdict in &report.conversations {
        println!(
            "  conversation {}: {} txs, {} hosts, score {:.3}{}",
            verdict.id,
            verdict.transactions,
            verdict.hosts,
            verdict.score,
            if verdict.alerted { "  ← ALERT" } else { "" },
        );
    }
    println!("exploit-type downloads observed (submit these to a scanner):");
    for d in &report.downloads {
        println!("  {} {} {} bytes digest={:016x}", d.host, d.class, d.size, d.digest);
    }
}
