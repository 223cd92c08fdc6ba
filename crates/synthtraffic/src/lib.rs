//! Synthetic HTTP traffic calibrated to the DynaMiner ground truth.
//!
//! The paper trains on 770 real exploit-kit infection PCAPs (9 families,
//! 06/2013–07/2016, from malware-traffic-analysis.net) and 980 benign
//! browsing PCAPs. Those captures are not redistributable, so this crate
//! generates statistically equivalent episodes:
//!
//! * [`families`] — per-family profiles calibrated to **Table I** (host
//!   counts, redirect-chain lengths, payload-type mixes) and to the global
//!   properties of Sec. III-D (10 nodes avg / 2–404, 46 edges avg /
//!   2–1778, 123 s mean lifetime / 0.5–4061 s),
//! * [`entice`] — the enticement-origin distribution of **Figures 1–2**
//!   (search engines 62 %, compromised sites 12.84 %, empty referrers
//!   17.76 %, …),
//! * [`episode`] — infection episodes with the paper's three-stage
//!   structure: pre-download redirection (Location headers, meta-refresh,
//!   and base64-obfuscated JavaScript redirects), exploit payload
//!   downloads, and post-download C&C call-backs to never-before-seen
//!   hosts (92 % of traces),
//! * [`benign`] — benign scenarios matching Sec. II-A's collection
//!   methodology (search, social, webmail with attachments, video,
//!   Alexa-random browsing) plus the false-positive-inducing cases of
//!   Sec. VI-B (unofficial download sites, torrent sessions with
//!   246 MB–1.1 GB payloads),
//! * `hostgen` (private) — the host, IP, URI and payload-body draws the
//!   generators share,
//! * [`corpus`] — ground-truth and held-out validation corpus builders
//!   and the Table I summary rows,
//! * [`evasion`] — the Sec. VII cloaking strategies (fileless download,
//!   no redirects, no or delayed call-back) as episode transforms,
//! * [`drift`] — graduated adversarial-drift transforms (redirect-chain
//!   shortening, benign mimicry, payload-type shifts, stepped evasions)
//!   that walk a family's parameters over simulated time,
//! * [`pcapgen`] — the one renderer: episodes to classic pcap bytes, one
//!   TCP connection per transaction, so the `nettrace` parsing pipeline
//!   is exercised end-to-end,
//! * [`wire`] — the loopback replay harness: a replay origin server, a
//!   sequential episode driver, and merged episode sets with globally
//!   unique client ports and pcap-quantized timestamps, so wire-proxy
//!   observation and offline pcap analysis of the same episodes can be
//!   compared field-for-field,
//! * [`faultgen`] — seeded capture mutation (truncation, bit rot, packet
//!   loss, TCP and HTTP corruption) for fault-injection testing of the
//!   lenient ingest pipeline.
//!
//! Every RNG draw happens in a fixed order, so all generation is a
//! deterministic function of the seed; `tests/fingerprint.rs` pins a
//! digest of every byte generated.

pub mod benign;
pub mod corpus;
pub mod drift;
pub mod entice;
pub mod episode;
pub mod evasion;
pub mod families;
pub mod faultgen;
mod hostgen;
pub mod pcapgen;
pub mod wire;

pub use corpus::{ground_truth, validation_set, CorpusStats};
pub use drift::DriftKnobs;
pub use entice::Enticement;
pub use episode::{Episode, EpisodeLabel};
pub use families::EkFamily;

pub use benign::BenignScenario;
