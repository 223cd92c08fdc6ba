//! What the trained detector does to traffic it has not seen: Table V,
//! the two case studies, the clue-gate ablation, evasion and drift.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::net::Ipv4Addr;

use driftlab::{run_drift_lab, DriftLabConfig, DriftScheduleConfig, RetrainConfig};
use dynaminer::detector::{ClueConfig, DetectorConfig, OnTheWireDetector};
use dynaminer::forensic;
use dynaminer::trusted::TrustedHosts;
use dynaminer::wcg::Wcg;
use dynaminer::Classifier;
use mlearn::metrics::Confusion;
use nettrace::payload::PayloadClass;
use nettrace::HttpTransaction;
use rand::rngs::StdRng;
use rand::SeedableRng;
use synthtraffic::benign::generate_benign;
use synthtraffic::episode::generate_infection;
use synthtraffic::evasion::{self, Evasion};
use synthtraffic::{BenignScenario, EkFamily, Episode, EpisodeLabel};
use vtsim::{VirusTotalSim, DAY_SECS};

use super::submission;
use crate::claims::Report;
use crate::{Fixtures, EXPERIMENT_SEED};

/// **Table V**: classifier performance on independent test data —
/// DynaMiner vs the VirusTotal-style comparator on a held-out validation
/// set (paper: 1500 benign + 7489 infection WCGs).
///
/// DynaMiner classifies each conversation's WCG; the comparator scans
/// every downloaded payload and flags a conversation when any payload
/// reaches the 3-engine threshold.
pub(super) fn table5_validation(fx: &Fixtures, out: &mut Report) {
    let classifier = fx.classifier();
    let vt = VirusTotalSim::with_default_engines(EXPERIMENT_SEED);
    // The paper submitted the archived test set to VirusTotal at analysis
    // time, months after capture.
    let analysis_ts = synthtraffic::corpus::INFECTION_WINDOW_END + 90.0 * DAY_SECS;

    let mut dm = Confusion::default();
    let mut vt_counts = Confusion::default();
    let mut vt_timeouts = 0usize;

    for ep in fx.validation() {
        let infected = ep.is_infection();
        // --- DynaMiner ---------------------------------------------------
        let verdict = classifier.predict_wcg(&Wcg::from_transactions(&ep.transactions));
        dm.record(infected, verdict);

        // --- VirusTotal-sim ----------------------------------------------
        let unofficial = matches!(
            ep.label,
            EpisodeLabel::Benign(BenignScenario::UnofficialDownload)
                | EpisodeLabel::Benign(BenignScenario::TorrentSession)
        );
        let mut flagged = false;
        let mut any_scan = false;
        let mut all_timed_out = true;
        for tx in &ep.transactions {
            let scannable = tx.status / 100 == 2
                && tx.payload_size > 0
                && (tx.payload_class.is_exploit_type() || tx.payload_class.is_binary());
            if !scannable {
                continue;
            }
            any_scan = true;
            let request =
                submission(tx.payload_digest, &ep.malicious_digests, ep.start_ts, unofficial);
            let report = vt.scan(&request, analysis_ts);
            if !report.timed_out {
                all_timed_out = false;
            }
            flagged |= report.is_flagged();
        }
        if infected && any_scan && all_timed_out {
            vt_timeouts += 1;
        }
        vt_counts.record(infected, flagged);
    }

    outln!(
        out, "{:<12} {:>22} {:>24} {:>6} {:>6}",
        "System", "benign correct", "infection correct", "FP", "FN"
    );
    for (name, c) in [("DynaMiner", &dm), ("VirusTotal", &vt_counts)] {
        outln!(
            out, "{:<12} {:>9}/{:<6} {:>4.1}% {:>10}/{:<6} {:>5.2}% {:>6} {:>6}",
            name,
            c.tn,
            c.tn + c.fp,
            100.0 * c.tn as f64 / (c.tn + c.fp).max(1) as f64,
            c.tp,
            c.tp + c.fn_,
            100.0 * c.tpr(),
            c.fp,
            c.fn_,
        );
    }
    outln!(out, "\nVirusTotal scan timeouts among missed infections: {vt_timeouts}");
    outln!(
        out,
        "\npaper: DynaMiner benign 1471/1500 (98.1%), infection 7283/7489 (97.38%), 29 FP, 206 FN\n\
         paper: VirusTotal benign 1409/1500 (94.0%), infection 6310/7489 (84.3%), 91 FP, 1179 FN (110 timeouts)\n\
         headline: DynaMiner outperforms the content-based ensemble by ~11.5% on infections."
    );
    let margin = 100.0 * (dm.tpr() - vt_counts.tpr());
    outln!(out, "measured margin: {margin:.1}%");
    out.measure("table5_validation.margin", margin);
    out.measure("table5_validation.vt_rate", 100.0 * vt_counts.tpr());
    out.measure("table5_validation.dynaminer_rate", 100.0 * dm.tpr());
}

/// **Case Study 1** (Sec. VI-C): forensic detection on a recorded
/// free-live-streaming session.
///
/// The paper's capture: a 90-minute EURO2016 stream with 18 open tabs,
/// three "out-of-date player" interruptions whose download links the user
/// followed, 32 downloaded payloads, longest redirect chain 4, 3011 HTTP
/// transactions; DynaMiner (redirect threshold 3) raised 5 alerts —
/// 3 Flash-player executables, a JAR, and a PDF. VirusTotal immediately
/// confirmed 4 of the 5; the PDF was flagged clean by all 56 engines and
/// only detected 11 days later by 3 engines.
pub(super) fn case1_forensic(fx: &Fixtures, out: &mut Report) {
    // Record the session: ~90 minutes of streaming/browsing tabs plus
    // five player-update infection conversations.
    let mut rng = StdRng::seed_from_u64(716); // July 2016
    let session_start = 1_468_166_400.0; // 2016-07-10
    let mut stream: Vec<HttpTransaction> = Vec::new();
    for i in 0..18 {
        let scenario = if i % 3 == 0 { BenignScenario::Video } else { BenignScenario::AlexaBrowse };
        let ep = generate_benign(&mut rng, scenario, session_start + i as f64 * 280.0);
        stream.extend(ep.transactions);
    }
    let families =
        [EkFamily::Angler, EkFamily::Angler, EkFamily::FlashPack, EkFamily::Rig, EkFamily::Nuclear];
    let mut malicious = BTreeSet::new();
    for (i, family) in families.iter().enumerate() {
        let ep = generate_infection(&mut rng, *family, session_start + 1000.0 + i as f64 * 850.0);
        malicious.extend(ep.malicious_digests.iter().copied());
        stream.extend(ep.transactions);
    }
    stream.sort_by(|a, b| a.ts.total_cmp(&b.ts));
    outln!(
        out, "session: {} transactions over {:.0} minutes",
        stream.len(),
        (stream.last().unwrap().ts - session_start) / 60.0
    );

    // Replay with the paper's forensic settings: redirect threshold 3.
    let config = DetectorConfig {
        clue: ClueConfig { redirect_threshold: 3, ..ClueConfig::default() },
        ..DetectorConfig::default()
    };
    let report = forensic::analyze_transactions(&stream, fx.classifier().clone(), config);
    outln!(
        out, "DynaMiner alerts: {} on {} conversations (paper: 5 alerts on 3011 transactions)",
        report.alerts,
        report.conversations.len()
    );
    outln!(out, "payload downloads observed: {} (paper: 32)", report.downloads.len());

    // Submit every downloaded payload to the comparator, at capture time
    // and again 11 days later (the paper's resubmission).
    let vt = VirusTotalSim::with_default_engines(EXPERIMENT_SEED);
    let mut flagged_now = 0usize;
    let mut flagged_later = 0usize;
    let mut lag_examples: Vec<(String, usize)> = Vec::new();
    for d in &report.downloads {
        let req = submission(d.digest, &malicious, d.ts, false);
        let now = vt.scan(&req, d.ts);
        let later = vt.scan(&req, d.ts + 11.0 * DAY_SECS);
        flagged_now += usize::from(now.is_flagged());
        flagged_later += usize::from(later.is_flagged());
        if !now.is_flagged() && later.is_flagged() {
            if let Some(days) = vt.days_until_flagged(&req, 30) {
                lag_examples.push((format!("{} ({})", d.host, d.class), days));
            }
        }
    }
    outln!(
        out, "comparator at capture time: {flagged_now}/{} payloads flagged",
        report.downloads.len()
    );
    outln!(
        out, "comparator 11 days later:   {flagged_later}/{} payloads flagged",
        report.downloads.len()
    );
    for (what, days) in lag_examples.iter().take(5) {
        outln!(out, "  {what}: first flagged after {days} day(s)");
    }
    outln!(
        out, "\npaper: VirusTotal confirmed 4/5 alerted payloads immediately; the PDF\n\
         was flagged clean by all 56 engines and took 11 days to be detected\n\
         (prior work reports a 9.25-day average lag)."
    );
    out.measure("case1_forensic.alerts", report.alerts as f64);
    out.measure("case1_forensic.vt_lag_gain", flagged_later as f64 - flagged_now as f64);
}

/// Last address octet of the Windows, Ubuntu and macOS hosts of Table VI.
const TABLE6_HOSTS: [u8; 3] = [11, 12, 13];

fn rebind(txs: &mut [HttpTransaction], addr: Ipv4Addr) {
    for tx in txs {
        tx.client = nettrace::reassembly::Endpoint::new(addr, tx.client.port);
    }
}

/// **Table VI / Case Study 2** (Sec. VI-D): 48 hours of live
/// on-the-wire detection in a 3-host mini-enterprise (Windows + IE,
/// Ubuntu + Firefox, macOS + Chrome) with DynaMiner deployed as a proxy.
///
/// The paper's outcome: 62 downloads total; 8 alerts (Windows 4 — three
/// after Flash-player executables and one after a JAR; Ubuntu 3 — JARs;
/// macOS 1 — a `.dmg`); the comparator confirmed all 8 and additionally
/// flagged 2 PDFs with embedded Flash on the Windows host that the
/// payload-agnostic DynaMiner did not alert on.
pub(super) fn table6_live(fx: &Fixtures, out: &mut Report) {
    let mut detector = OnTheWireDetector::new(fx.classifier().clone(), DetectorConfig::default());

    let t0 = 1_470_000_000.0;
    let mut rng = StdRng::seed_from_u64(4849);
    let mut stream: Vec<HttpTransaction> = Vec::new();

    // 48 hours of routine browsing per host.
    for (i, last_octet) in TABLE6_HOSTS.iter().enumerate() {
        let addr = Ipv4Addr::new(10, 2, 0, *last_octet);
        for k in 0..16 {
            let scenario = BenignScenario::WEIGHTED[(i + k) % 8].0;
            let mut ep = generate_benign(&mut rng, scenario, t0 + k as f64 * 10_500.0);
            rebind(&mut ep.transactions, addr);
            stream.extend(ep.transactions);
        }
    }
    // Injected infections: Windows 4 (3 Flash-exe-ish + 1 JAR-ish kits),
    // Ubuntu 3 (JAR-heavy kits), macOS 1.
    let injections: [(usize, EkFamily, f64); 8] = [
        (0, EkFamily::Angler, 9_000.0),
        (0, EkFamily::FlashPack, 48_000.0),
        (0, EkFamily::Angler, 90_000.0),
        (0, EkFamily::Rig, 132_000.0),
        (1, EkFamily::Rig, 21_000.0),
        (1, EkFamily::Fiesta, 70_000.0),
        (1, EkFamily::Neutrino, 120_000.0),
        (2, EkFamily::SweetOrange, 60_000.0),
    ];
    let mut malicious = BTreeSet::new();
    for (host_idx, family, offset) in injections {
        let addr = Ipv4Addr::new(10, 2, 0, TABLE6_HOSTS[host_idx]);
        let mut ep = generate_infection(&mut rng, family, t0 + offset);
        rebind(&mut ep.transactions, addr);
        malicious.extend(ep.malicious_digests.iter().copied());
        stream.extend(ep.transactions);
    }
    stream.sort_by(|a, b| a.ts.total_cmp(&b.ts));

    // Live replay.
    for tx in &stream {
        detector.observe(tx);
    }

    // Per-host accounting: downloads by type, redirect chains, alerts.
    const ROWS: [&str; 8] = [
        "PDF", "Executable", "Flash", "Silverlight", "JAR",
        "Avg. redirect chain", "Max. redirect chain", "DynaMiner alerts",
    ];
    let mut alerts = [0usize; 3];
    let mut cells: Vec<[String; 8]> = Vec::new();
    for (host, last_octet) in TABLE6_HOSTS.iter().enumerate() {
        let addr = Ipv4Addr::new(10, 2, 0, *last_octet);
        // pdf, executable, flash, silverlight, jar
        let mut downloads = [0usize; 5];
        for tx in stream.iter().filter(|t| t.client.addr == addr) {
            if tx.status / 100 == 2 && tx.payload_size > 0 {
                match tx.payload_class {
                    PayloadClass::Pdf => downloads[0] += 1,
                    PayloadClass::Exe | PayloadClass::Crypt | PayloadClass::Dmg => downloads[1] += 1,
                    PayloadClass::Swf => downloads[2] += 1,
                    PayloadClass::Xap => downloads[3] += 1,
                    PayloadClass::Jar => downloads[4] += 1,
                    _ => {}
                }
            }
        }
        let chains: Vec<usize> = detector
            .tracker()
            .conversations()
            .filter(|c| c.transactions.first().is_some_and(|t| t.client.addr == addr))
            .map(|c| c.redirects_seen)
            .collect();
        let avg_chain = chains.iter().sum::<usize>() as f64 / chains.len().max(1) as f64;
        alerts[host] = detector.alerts().iter().filter(|a| a.client == addr).count();
        let [pdf, executable, flash, silverlight, jar] = downloads.map(|n| n.to_string());
        let max_chain = chains.iter().copied().max().unwrap_or(0).to_string();
        cells.push([
            pdf, executable, flash, silverlight, jar,
            format!("{avg_chain:.1}"), max_chain, alerts[host].to_string(),
        ]);
    }

    outln!(out, "{:<22} {:>9} {:>8} {:>7}", "", "Windows", "Ubuntu", "MacOS");
    for (i, label) in ROWS.iter().enumerate() {
        outln!(out, "{label:<22} {:>9} {:>8} {:>7}", cells[0][i], cells[1][i], cells[2][i]);
    }
    let total_alerts: usize = alerts.iter().sum();
    outln!(out, "\ntotal alerts: {total_alerts} (paper: 8 = 4 Windows + 3 Ubuntu + 1 MacOS)");

    // Comparator cross-check at +30 days (the paper submitted all 62
    // downloads): every alerted conversation's exploit payloads should be
    // confirmed; content-embedded maliciousness (Flash inside PDFs) is
    // visible only to content engines.
    let vt = VirusTotalSim::with_default_engines(EXPERIMENT_SEED);
    let mut confirmed = 0usize;
    let mut alerted_payloads = 0usize;
    for conv in detector.tracker().conversations().filter(|c| c.alerted) {
        for tx in &conv.transactions {
            if tx.status / 100 == 2 && tx.payload_class.is_exploit_type() && tx.payload_size > 0 {
                alerted_payloads += 1;
                let request = submission(tx.payload_digest, &malicious, tx.ts, false);
                confirmed += usize::from(vt.scan(&request, tx.ts + 30.0 * DAY_SECS).is_flagged());
            }
        }
    }
    outln!(
        out, "comparator confirmed {confirmed}/{alerted_payloads} exploit payloads in alerted \
         conversations (paper: 8/8, plus 2 Flash-embedding PDFs only content engines caught)"
    );
    out.measure("table6_live.alerts_windows", alerts[0] as f64);
    out.measure("table6_live.alerts_ubuntu", alerts[1] as f64);
    out.measure("table6_live.alerts_macos", alerts[2] as f64);
}

/// Replays each episode through a fresh live detector: `(infections
/// alerted on, benign episodes alerted on, classifier invocations)`.
/// Invocations are counted as the transactions watched conversations
/// hold — one re-classification per update of the conversation's
/// incrementally folded WCG — which is the work the clue gate bounds.
fn replay_each(
    episodes: &[(&Episode, bool)],
    classifier: &Classifier,
    config: DetectorConfig,
) -> (usize, usize, usize) {
    let mut detected = 0usize;
    let mut false_alerts = 0usize;
    let mut classifier_calls = 0usize;
    for (ep, infected) in episodes {
        let mut det = OnTheWireDetector::new(classifier.clone(), config.clone());
        for tx in &ep.transactions {
            det.observe(tx);
        }
        classifier_calls += det
            .tracker()
            .conversations()
            .filter(|c| c.watched)
            .map(|c| c.transactions.len())
            .sum::<usize>();
        let alerted = !det.alerts().is_empty();
        if *infected {
            detected += usize::from(alerted);
        } else {
            false_alerts += usize::from(alerted);
        }
    }
    (detected, false_alerts, classifier_calls)
}

/// Ablation: the **infection-clue redirect threshold** *l* and the
/// trusted-vendor weed-out.
///
/// Sweeps *l* over 1..=5 (with the high-likelihood download override both
/// on and off) and replays a mixed stream through the live detector,
/// measuring detection rate, classifier invocations (the cost the clue
/// gate exists to bound), and false alerts. Also reports the effect of
/// disabling the trusted-vendor weed-out.
pub(super) fn ablation_threshold(fx: &Fixtures, out: &mut Report) {
    let classifier = fx.classifier();
    // Evaluation stream: held-out episodes. The sweep replays every
    // episode through the live detector twelve times; cap the stream at
    // ~400 episodes (deterministic stride) to keep it seconds-scale.
    let validation = fx.validation();
    let stride = (validation.len() / 400).max(1);
    let episodes: Vec<(&Episode, bool)> =
        validation.iter().step_by(stride).map(|e| (e, e.is_infection())).collect();
    let infections = episodes.iter().filter(|(_, i)| *i).count();
    let benign = episodes.len() - infections;
    outln!(out, "{} infection and {} benign episodes\n", infections, benign);

    outln!(
        out, "{:<34} {:>10} {:>12} {:>12}",
        "Configuration", "detected", "false alerts", "clf calls"
    );
    for l in 1..=5usize {
        for high_override in [true, false] {
            let clue = ClueConfig {
                redirect_threshold: l,
                min_payload_likelihood: 0.5,
                high_payload_likelihood: if high_override { 0.8 } else { 2.0 },
            };
            let config = DetectorConfig { clue, ..DetectorConfig::default() };
            let (detected, false_alerts, calls) = replay_each(&episodes, classifier, config);
            outln!(
                out, "l={l} download-override={:<5}        {:>6}/{:<4} {:>12} {:>12}",
                high_override, detected, infections, false_alerts, calls
            );
        }
    }

    // Trusted-vendor weed-out on/off.
    outln!(out);
    for (label, trusted) in
        [("weed-out ON", TrustedHosts::default()), ("weed-out OFF", TrustedHosts::none())]
    {
        let config = DetectorConfig { trusted, ..DetectorConfig::default() };
        let (detected, false_alerts, calls) = replay_each(&episodes, classifier, config);
        outln!(
            out, "{label:<34} {:>6}/{:<4} {:>12} {:>12}",
            detected, infections, false_alerts, calls
        );
    }
    outln!(
        out, "\nexpected: raising l cuts classifier invocations but starts missing the\n\
         low-redirect families once the download override is disabled; the paper\n\
         used l=3 forensically and relies on the weed-out to suppress vendor noise."
    );
}

/// Extension: **evasion resilience** (the paper's Sec. VII discussion,
/// quantified).
///
/// Applies each cloaking strategy a determined adversary might use —
/// fileless (in-memory) infection, direct infection without redirects,
/// silent or delayed C&C — to held-out infections and measures both the
/// offline classifier's detection rate and the live detector's alert
/// rate. The paper predicts graceful degradation: missing one kind of
/// dynamics is survivable because the ERF averages over substructures;
/// fileless + no-redirect + silent ("full cloaking") removes the most
/// revealing features and should evade.
pub(super) fn evasion_resilience(fx: &Fixtures, out: &mut Report) {
    let classifier = fx.classifier();
    let validation = fx.validation();
    let stride = (validation.len() / 500).max(1);
    let infections: Vec<&Episode> =
        validation.iter().step_by(stride).filter(|e| e.is_infection()).collect();
    outln!(out, "{} held-out infections per variant\n", infections.len());

    outln!(
        out, "{:<22} {:>18} {:>18} {:>12}",
        "Evasion", "offline detected", "live alerted", "mean score"
    );
    for evasion in Evasion::ALL {
        let mut offline = 0usize;
        let mut live = 0usize;
        let mut score_sum = 0.0f64;
        for &ep in &infections {
            let cloaked = evasion::apply(evasion, ep.clone());
            let wcg = Wcg::from_transactions(&cloaked.transactions);
            let score = classifier.score_wcg(&wcg);
            score_sum += score;
            offline += usize::from(score >= 0.5);
            let mut det = OnTheWireDetector::new(classifier.clone(), DetectorConfig::default());
            for tx in &cloaked.transactions {
                det.observe(tx);
            }
            live += usize::from(!det.alerts().is_empty());
        }
        let n = infections.len();
        outln!(
            out, "{:<22} {:>11}/{:<5} {:>12}/{:<5} {:>11.3}",
            evasion.label(),
            offline,
            n,
            live,
            n,
            score_sum / n as f64
        );
    }
    outln!(
        out, "\nreading guide: single-stage cloaking should cost the attacker little\n\
         effectiveness but also buy limited evasion (the ERF's substructure\n\
         averaging); full cloaking defeats a payload-agnostic detector — the\n\
         limitation the paper concedes for fileless drive-bys. Note the live\n\
         detector depends on the clue gate: fileless infections without risky\n\
         downloads are only caught when their redirect chains trip it."
    );
}

/// Extension: the **adversarial drift lab** — detector decay under
/// time-walking evasion campaigns, and what shadow-model retraining
/// wins back.
///
/// Runs the same seeded drift campaign twice: once with the day-0
/// champion pinned for the whole campaign (the decay curve) and once
/// with the shadow-retraining loop promoting challengers between epochs
/// (the recovery curve). VirusTotal is scored alongside so the
/// signature-lag advantage (Table V, 9.25-day average lag) is visible
/// per epoch as the adversary drifts.
///
/// Runs at the lab's native scale, 0.05 — the campaign
/// `tests/drift_decay.rs` pins to goldens — and shares no fixture.
pub(super) fn drift_lab(_: &Fixtures, out: &mut Report) {
    let scale = 0.05;
    let schedule =
        DriftScheduleConfig { seed: EXPERIMENT_SEED, scale, ..DriftScheduleConfig::default() };
    let base = DriftLabConfig { schedule, train_scale: scale, ..DriftLabConfig::default() };

    outln!(
        out, "campaign: {} epochs x {:.0} days, scale {scale}\n",
        base.schedule.epochs,
        base.schedule.epoch_secs / 86_400.0
    );

    let pinned = run_drift_lab(&base, None);
    let retrained_cfg = DriftLabConfig { retrain: Some(RetrainConfig::default()), ..base.clone() };
    let retrained = run_drift_lab(&retrained_cfg, None);

    outln!(
        out, "{:<6} {:>10} {:>10} {:>9} {:>9} {:>9} {:>8} {:>8}",
        "epoch", "recall", "recall", "fpr", "vt-live", "vt-end", "model", "knobs"
    );
    outln!(
        out, "{:<6} {:>10} {:>10} {:>9} {:>9} {:>9} {:>8} {:>8}",
        "", "(pinned)", "(retrain)", "(retrain)", "", "", "(retr.)", "(mimic)"
    );
    for (p, r) in pinned.curve.entries.iter().zip(&retrained.curve.entries) {
        outln!(
            out, "{:<6} {:>10.3} {:>10.3} {:>9.3} {:>9.3} {:>9.3} {:>8} {:>8.2}",
            p.epoch,
            p.recall,
            r.recall,
            r.fpr,
            p.vt_recall_live,
            p.vt_recall_epoch_end,
            r.model_version,
            p.mean_knobs.benign_mimicry,
        );
    }

    outln!(out, "\npromotion ledger ({} decisions):", retrained.ledger.len());
    for e in &retrained.ledger {
        outln!(
            out,
            "  epoch {}: champion v{} r={:.3} vs challenger r={:.3} (margin {:+.3}, fpr {:+.3}) -> {}",
            e.epoch,
            e.champion_version,
            e.champion_recall,
            e.challenger_recall,
            e.recall_margin,
            e.fpr_regression,
            if e.promoted { format!("PROMOTED (v{})", e.model_version_after) } else { "held".into() },
        );
    }

    let initial = pinned.curve.initial_recall();
    let decayed = pinned.curve.final_recall();
    let recovered = retrained.curve.final_recall();
    let lost = initial - decayed;
    outln!(out, "\ninitial recall          {initial:.3}");
    outln!(out, "final recall, pinned    {decayed:.3}  (lost {lost:.3})");
    outln!(
        out, "final recall, retrained {recovered:.3}  (won back {:.0}% of the loss)",
        if lost > 0.0 { 100.0 * (recovered - decayed) / lost } else { 0.0 }
    );

    // The gate: retraining must beat the pinned model where it ends.
    out.measure("drift_lab.recovery", recovered - decayed);
    if recovered <= decayed {
        outln!(
            out,
            "\nFAIL: retrained final-epoch recall {recovered:.3} did not recover above pinned {decayed:.3}"
        );
    } else {
        outln!(out, "\nPASS: retrained final-epoch recall recovered above the pinned model");
    }
}
