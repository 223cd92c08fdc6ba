//! Content-coding parity: the decode gate must make response-body
//! compression invisible to everything downstream of the extractor.
//!
//! The same episode is written to pcap three more times with every
//! body-carrying response re-encoded as `gzip`, `x-gzip`, and `deflate`
//! (the wire body is compressed by `pcapgen` per the header, exactly as
//! a server would). Extraction must then yield `HttpTransaction`s that
//! are byte-identical to the plain run — bodies, payload sizes, redirect
//! targets, everything except the `Content-Encoding` line itself — and a
//! detector replaying them must raise identical alerts. This is the
//! regression fence for the pre-fix behavior where `deflate` bodies
//! passed through compressed and redirect evidence inside them was
//! invisible to mining.

use proptest::prelude::*;

use dynaminer::detector::{DetectorConfig, OnTheWireDetector};
use nettrace::http::HeaderMap;
use nettrace::{HttpTransaction, SpanPipeline};
use rand::rngs::StdRng;
use rand::SeedableRng;
use synthtraffic::episode::generate_infection;
use synthtraffic::{EkFamily, Episode};

/// The episode's pcap with every body-carrying response forced to the
/// given content coding (`None` = plain). Existing `Content-Encoding`
/// lines are dropped first, so the three variants differ only in that
/// one header.
fn pcap_with_coding(ep: &Episode, coding: Option<&str>) -> Vec<u8> {
    let mut ep = ep.clone();
    for tx in &mut ep.transactions {
        let mut headers: HeaderMap = tx
            .resp_headers
            .iter()
            .filter(|(n, _)| !n.eq_ignore_ascii_case("Content-Encoding"))
            .map(|(n, v)| (n.to_string(), v.to_string()))
            .collect();
        if let Some(c) = coding {
            // Synthetic episodes carry the full body in `body_preview`;
            // that is exactly what `pcapgen` writes (and re-encodes) on
            // the wire.
            if !tx.body_preview.is_empty() {
                headers.append("Content-Encoding", c);
            }
        }
        tx.resp_headers = headers;
    }
    synthtraffic::pcapgen::episodes_pcap(&[ep])
}

fn extract(pcap: &[u8]) -> Vec<HttpTransaction> {
    SpanPipeline::extract_capture_strict(pcap).unwrap()
}

/// Serialized transactions with the two headers that legitimately
/// describe the *wire* form removed: `Content-Encoding` (the coding
/// under test) and `Content-Length` (rewritten on the wire to the coded
/// body's length). Every other byte — decoded body, payload size and
/// digest, redirect evidence — must be identical across codings.
fn normalized(txs: &[HttpTransaction]) -> String {
    let stripped: Vec<HttpTransaction> = txs
        .iter()
        .map(|tx| {
            let mut tx = tx.clone();
            tx.resp_headers = tx
                .resp_headers
                .iter()
                .filter(|(n, _)| {
                    !n.eq_ignore_ascii_case("Content-Encoding")
                        && !n.eq_ignore_ascii_case("Content-Length")
                })
                .map(|(n, v)| (n.to_string(), v.to_string()))
                .collect();
            tx
        })
        .collect();
    serde_json::to_string(&stripped).unwrap()
}

/// A small but real classifier, trained once per process.
fn parity_classifier() -> &'static dynaminer::classifier::Classifier {
    static CLF: std::sync::OnceLock<dynaminer::classifier::Classifier> =
        std::sync::OnceLock::new();
    CLF.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(17);
        let mut items: Vec<(Vec<HttpTransaction>, bool)> = Vec::new();
        for i in 0..8 {
            items.push((
                generate_infection(&mut rng, EkFamily::ALL[i], 1.4e9).transactions,
                true,
            ));
            items.push((
                synthtraffic::benign::generate_benign(
                    &mut rng,
                    synthtraffic::BenignScenario::WEIGHTED[i % 8].0,
                    1.43e9,
                )
                .transactions,
                false,
            ));
        }
        let data = dynaminer::classifier::build_dataset(
            items.iter().map(|(t, l)| (t.as_slice(), *l)),
        );
        dynaminer::classifier::Classifier::fit_default(&data, 13)
    })
}

/// Serialized alert log of a detector replay over the transactions.
fn alert_log(txs: &[HttpTransaction]) -> String {
    let mut det =
        OnTheWireDetector::new(parity_classifier().clone(), DetectorConfig::default());
    let mut alerts = Vec::new();
    for tx in txs {
        if let Some(a) = det.observe(tx) {
            alerts.push(a);
        }
    }
    serde_json::to_string(&alerts).unwrap()
}

proptest! {
    #[test]
    fn content_codings_are_invisible_downstream(
        seed in 0u64..1_000_000,
        fam_idx in 0usize..10,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ep = generate_infection(&mut rng, EkFamily::ALL[fam_idx], 1.4e9);

        let plain = extract(&pcap_with_coding(&ep, None));
        prop_assert!(!plain.is_empty(), "episode must extract transactions");
        let plain_norm = normalized(&plain);
        let plain_alerts = alert_log(&plain);

        for coding in ["gzip", "x-gzip", "deflate"] {
            let coded = extract(&pcap_with_coding(&ep, Some(coding)));
            prop_assert_eq!(
                &normalized(&coded),
                &plain_norm,
                "{} bodies must decode to byte-identical transactions",
                coding
            );
            prop_assert_eq!(
                &alert_log(&coded),
                &plain_alerts,
                "{} bodies must produce identical alerts",
                coding
            );
        }
    }
}
