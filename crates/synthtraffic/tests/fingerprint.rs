//! Fingerprint fence: a digest of every byte the generator emits.
//!
//! Each entry is an FNV-1a digest of one generator output — corpora and
//! transforms through their `Debug` rendering (every field, floats in
//! shortest round-trip form), captures and replay bytes as raw bytes.
//! The pinned values were computed at commit 86641f6, before the
//! generator's bodies were folded together, so they prove the fold moved
//! no RNG draw and no byte.
//!
//! A deliberate generator change re-pins: run
//! `cargo test --release -p synthtraffic --test fingerprint`, check the
//! change is meant to move the listed entries, and paste the printed
//! table over `PINNED`.

use nettrace::transaction::fnv1a;
use rand::rngs::StdRng;
use rand::SeedableRng;
use synthtraffic::drift::{apply_drift, DriftKnobs};
use synthtraffic::episode::generate_infection;
use synthtraffic::evasion::{self, Evasion};
use synthtraffic::faultgen::{self, Fault};
use synthtraffic::pcapgen::episodes_pcap;
use synthtraffic::wire::{
    merged_wire_transactions, replay_request_bytes, replay_response_bytes, wire_episode_set,
};
use synthtraffic::{ground_truth, validation_set, CorpusStats, EkFamily, Episode};

const PINNED: &[(&str, u64)] = &[
    ("ground_truth(42, 0.05)", 0xff9c9aa51e33585d),
    ("validation_set(42, 0.02)", 0xdeb1c1bc36fe317f),
    ("CorpusStats::table_rows", 0x8db4603b30f6f820),
    ("wire_episode_set(7, 2, 2)", 0x6f9a4615e48aa342),
    ("episodes_pcap", 0x3854daa37f08980d),
    ("replay_request_bytes", 0x9cbd349d5b1efb40),
    ("replay_response_bytes", 0x978c844f7302279f),
    ("episodes_pcap(infections)", 0x3aecff6c8c3fe495),
    ("faultgen::apply(TruncateTail)", 0x425a919117119290),
    ("faultgen::apply(FlipBytes)", 0x3e94d9860d95c611),
    ("faultgen::apply(DropPackets)", 0xac5b48efeac976ea),
    ("faultgen::apply(DuplicatePackets)", 0xc827be4fb0a02e37),
    ("faultgen::apply(ReorderPackets)", 0xf963da7897f3092b),
    ("faultgen::apply(CorruptTcpSeq)", 0xafca2f6af0042a6a),
    ("faultgen::apply(CorruptTcpFlags)", 0xc55bfc1e761e8a73),
    ("faultgen::apply(MangleRequestLines)", 0xcbe20750428502de),
    ("faultgen::apply(BreakChunkFraming)", 0x58aa2ba02b604907),
    ("faultgen::apply(CorruptGzipStreams)", 0x18cfe6b1af06cc50),
    ("faultgen::apply(MidStreamStart)", 0xedbedd049af67ba8),
    ("faultgen::apply_all", 0x8c68adb0fd74f416),
    ("apply_drift", 0xafffc1180ffc0902),
    ("evasion::apply(None)", 0x486b8d188c93ae40),
    ("evasion::apply(FilelessDownload)", 0xb9c2c9efa9a6cafa),
    ("evasion::apply(NoRedirects)", 0x0b8b6e91ef742fc2),
    ("evasion::apply(NoCallback)", 0x66ba1a74b45b138a),
    ("evasion::apply(DelayedCallback)", 0x3d524caead39bb0a),
    ("evasion::apply(Full)", 0xa68c878e50a6c7e8),
];

fn debug_digest(value: &impl std::fmt::Debug) -> u64 {
    fnv1a(format!("{value:?}").as_bytes())
}

/// Ten infections, one per family, each from its own seed.
fn infections() -> Vec<Episode> {
    (0..10u64)
        .map(|seed| {
            let family = EkFamily::ALL[seed as usize];
            generate_infection(&mut StdRng::seed_from_u64(seed), family, 1.46e9)
        })
        .collect()
}

fn actual() -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = Vec::new();
    let truth = ground_truth(42, 0.05);
    out.push(("ground_truth(42, 0.05)".into(), debug_digest(&truth)));
    out.push(("validation_set(42, 0.02)".into(), debug_digest(&validation_set(42, 0.02))));
    out.push(("CorpusStats::table_rows".into(), debug_digest(&CorpusStats::table_rows(&truth))));

    let episodes = wire_episode_set(7, 2, 2).expect("four episodes fit the port space");
    out.push(("wire_episode_set(7, 2, 2)".into(), debug_digest(&episodes)));
    let pcap = episodes_pcap(&episodes);
    out.push(("episodes_pcap".into(), fnv1a(&pcap)));
    let txs = merged_wire_transactions(&episodes);
    let requests: Vec<Vec<u8>> =
        txs.iter().enumerate().map(|(id, tx)| replay_request_bytes(tx, id as u64)).collect();
    out.push(("replay_request_bytes".into(), debug_digest(&requests)));
    let responses: Vec<Option<Vec<u8>>> = txs.iter().map(replay_response_bytes).collect();
    out.push(("replay_response_bytes".into(), debug_digest(&responses)));

    // The ten infections carry content-coded redirect hops, so every
    // fault class has something to damage.
    let capture = episodes_pcap(&infections());
    out.push(("episodes_pcap(infections)".into(), fnv1a(&capture)));
    for fault in Fault::ALL {
        let hurt = faultgen::apply(&capture, fault, &mut StdRng::seed_from_u64(11));
        out.push((format!("faultgen::apply({fault})"), fnv1a(&hurt)));
    }
    let hurt = faultgen::apply_all(&capture, &mut StdRng::seed_from_u64(17));
    out.push(("faultgen::apply_all".into(), fnv1a(&hurt)));

    let knobs = DriftKnobs {
        redirect_shorten: 0.4,
        benign_mimicry: 0.6,
        payload_shift: 0.4,
        evasion_prob: 0.5,
    };
    let mut drift_rng = StdRng::seed_from_u64(7);
    let drifted: Vec<Episode> =
        infections().into_iter().map(|ep| apply_drift(&mut drift_rng, &knobs, ep)).collect();
    out.push(("apply_drift".into(), debug_digest(&drifted)));

    for strategy in Evasion::ALL {
        let cloaked: Vec<Episode> =
            infections().into_iter().map(|ep| evasion::apply(strategy, ep)).collect();
        out.push((format!("evasion::apply({strategy:?})"), debug_digest(&cloaked)));
    }
    out
}

#[test]
fn generator_output_matches_the_pinned_fingerprints() {
    let actual = actual();
    let table: String =
        actual.iter().map(|(name, digest)| format!("    ({name:?}, {digest:#018x}),\n")).collect();
    let pinned: Vec<(String, u64)> =
        PINNED.iter().map(|&(name, digest)| (name.to_string(), digest)).collect();
    let moved: Vec<&str> = actual
        .iter()
        .filter(|entry| !pinned.contains(entry))
        .map(|(name, _)| name.as_str())
        .collect();
    assert!(
        moved.is_empty() && pinned.len() == actual.len(),
        "generator output moved: {moved:?}\nactual fingerprints:\n{table}"
    );
}
