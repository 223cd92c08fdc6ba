//! Versioned, length-prefixed engine snapshots (DESIGN.md §13).
//!
//! An [`EngineSnapshot`] is everything a restarted engine needs to
//! continue an interrupted replay with bit-identical output: the merged
//! per-shard [`DetectorState`]s, the ingest watermark (how far into the
//! `(ts, seq)`-ordered stream the feed had progressed), the deployed
//! model's generation, and the detector telemetry accumulated so far.
//! A capture replay's [`Checkpoint`] holds the same, so the two convert
//! into each other and either resumes from the other's file.
//!
//! The byte format mirrors the CLI model format's version gate: a fixed
//! magic, a little-endian format version that is checked before any
//! payload parsing, and a little-endian payload length that is checked
//! against the actual payload — truncated or trailing-garbage files are
//! rejected instead of half-parsed.
//!
//! ```text
//! offset  size  field
//! 0       8     magic "DYNSNAP\0"
//! 8       4     format version, u32 LE
//! 12      8     payload length,  u64 LE
//! 20      n     payload: EngineSnapshot as JSON
//! ```

use dynaminer::detector::DetectorState;
use dynaminer::forensic::Checkpoint;
use nettrace::HttpTransaction;
use serde::{Deserialize, Serialize};

/// Snapshot format generation this build writes and accepts.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 1;

/// Fixed leading magic of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"DYNSNAP\0";

/// Position in the `(ts, seq)` total order up to which the stream had
/// been fed when the snapshot was taken. The timestamp travels as raw
/// bits so the boundary is exact — no float formatting round-trip can
/// move it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Watermark {
    /// `f64::to_bits` of the last fed transaction's timestamp.
    pub ts_bits: u64,
    /// Ingest sequence number of the last fed transaction.
    pub seq: u64,
}

impl Watermark {
    /// The watermark at `tx`.
    pub(crate) fn of(tx: &HttpTransaction) -> Self {
        Watermark { ts_bits: tx.ts.to_bits(), seq: tx.seq }
    }

    /// Whether `tx` is at or before this watermark in the `(ts, seq)`
    /// total order — i.e. was already fed when the snapshot was taken.
    pub(crate) fn covers(&self, tx: &HttpTransaction) -> bool {
        match tx.ts.total_cmp(&f64::from_bits(self.ts_bits)) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Equal => tx.seq <= self.seq,
            std::cmp::Ordering::Greater => false,
        }
    }
}

/// Full durable image of a [`StreamEngine`](crate::StreamEngine).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineSnapshot {
    /// Feed position; `None` when nothing had been fed yet.
    pub watermark: Option<Watermark>,
    /// Transactions fed across the engine's lifetime (including any
    /// earlier restores this engine itself resumed from).
    pub fed: u64,
    /// Shard count of the engine that wrote the snapshot — informational
    /// only; restore re-partitions into the restoring engine's count.
    pub shards: u32,
    /// Deployed model generation, so post-restore alerts continue the
    /// numbering of the interrupted run.
    pub model_version: u64,
    /// Merged detector state of all shards.
    pub detector: DetectorState,
    /// Aggregated detector telemetry at snapshot time (gauges cleared:
    /// restored detectors re-publish them live, and
    /// [`telemetry::Registry::absorb`] adds gauges, so carrying them
    /// would double-count).
    pub stats: telemetry::Snapshot,
}

/// A capture replay's checkpoint, its group detectors counted as shards.
impl From<Checkpoint> for EngineSnapshot {
    fn from(c: Checkpoint) -> Self {
        EngineSnapshot {
            watermark: c.watermark.map(|(ts, seq)| Watermark { ts_bits: ts.to_bits(), seq }),
            fed: c.fed,
            shards: c.detectors,
            model_version: c.model_version,
            detector: c.detector,
            stats: c.stats,
        }
    }
}

/// The checkpoint a capture replay resumes from.
impl From<EngineSnapshot> for Checkpoint {
    fn from(s: EngineSnapshot) -> Self {
        Checkpoint {
            watermark: s.watermark.map(|w| (f64::from_bits(w.ts_bits), w.seq)),
            fed: s.fed,
            detectors: s.shards,
            model_version: s.model_version,
            detector: s.detector,
            stats: s.stats,
        }
    }
}

impl EngineSnapshot {
    /// Serializes to the versioned, length-prefixed byte format.
    pub fn to_bytes(&self) -> Result<Vec<u8>, String> {
        let payload = serde_json::to_string(self)
            .map_err(|e| format!("cannot serialize snapshot: {e}"))?;
        let payload = payload.into_bytes();
        let mut out = Vec::with_capacity(20 + payload.len());
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        Ok(out)
    }

    /// Parses the byte format, rejecting wrong magic, an unsupported
    /// format version (checked before the payload is even looked at),
    /// and truncated or oversized payloads.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        if bytes.len() < 20 {
            return Err(format!("snapshot header truncated ({} bytes)", bytes.len()));
        }
        if bytes[..8] != SNAPSHOT_MAGIC {
            return Err("not a DynaMiner engine snapshot (bad magic)".to_string());
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != SNAPSHOT_FORMAT_VERSION {
            return Err(format!(
                "uses snapshot format {version} but this build expects {SNAPSHOT_FORMAT_VERSION}"
            ));
        }
        let len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")) as usize;
        let payload = &bytes[20..];
        if payload.len() != len {
            return Err(format!(
                "snapshot payload length mismatch: header says {len}, file has {}",
                payload.len()
            ));
        }
        let text = std::str::from_utf8(payload)
            .map_err(|e| format!("snapshot payload is not UTF-8: {e}"))?;
        serde_json::from_str(text).map_err(|e| format!("cannot parse snapshot payload: {e}"))
    }
}

/// Writes a snapshot atomically: the bytes land in a sibling temp file
/// that is renamed over `path`, so a crash mid-write leaves either the
/// previous snapshot or the new one — never a torn file.
pub fn write_snapshot_atomic(path: &std::path::Path, snapshot: &EngineSnapshot) -> Result<(), String> {
    let bytes = snapshot.to_bytes()?;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, &bytes)
        .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("cannot rename {} over {}: {e}", tmp.display(), path.display()))
}

/// Reads and parses a snapshot file, prefixing errors with the path.
pub fn read_snapshot(path: &std::path::Path) -> Result<EngineSnapshot, String> {
    let bytes =
        std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    EngineSnapshot::from_bytes(&bytes).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynaminer::detector::DetectorState;

    fn empty_snapshot() -> EngineSnapshot {
        EngineSnapshot {
            watermark: Some(Watermark { ts_bits: 1.5f64.to_bits(), seq: 42 }),
            fed: 43,
            shards: 2,
            model_version: 3,
            detector: DetectorState::merge([]),
            stats: telemetry::Snapshot::default(),
        }
    }

    #[test]
    fn byte_round_trip_is_lossless() {
        let snap = empty_snapshot();
        let bytes = snap.to_bytes().unwrap();
        assert_eq!(bytes[..8], SNAPSHOT_MAGIC);
        let back = EngineSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back.watermark, snap.watermark);
        assert_eq!(back.fed, 43);
        assert_eq!(back.shards, 2);
        assert_eq!(back.model_version, 3);
    }

    #[test]
    fn version_gate_rejects_future_formats_before_parsing() {
        let mut bytes = empty_snapshot().to_bytes().unwrap();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        // Garbage payload too: the gate must fire before any parsing.
        let n = bytes.len();
        bytes[20..n].fill(0xff);
        let err = EngineSnapshot::from_bytes(&bytes).unwrap_err();
        assert!(
            err.contains("uses snapshot format 99 but this build expects 1"),
            "{err}"
        );
    }

    #[test]
    fn truncation_and_bad_magic_are_rejected() {
        let bytes = empty_snapshot().to_bytes().unwrap();
        let err = EngineSnapshot::from_bytes(&bytes[..bytes.len() - 1]).unwrap_err();
        assert!(err.contains("length mismatch"), "{err}");
        assert!(EngineSnapshot::from_bytes(&bytes[..10]).unwrap_err().contains("truncated"));
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(EngineSnapshot::from_bytes(&bad).unwrap_err().contains("bad magic"));
    }

    #[test]
    fn deeply_nested_payload_is_an_error_not_an_abort() {
        let payload = "[".repeat(1_000_000);
        let mut bytes = SNAPSHOT_MAGIC.to_vec();
        bytes.extend_from_slice(&SNAPSHOT_FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(payload.as_bytes());
        let err = EngineSnapshot::from_bytes(&bytes).unwrap_err();
        assert!(err.contains("cannot parse snapshot payload: nesting deeper than"), "{err}");
    }

    #[test]
    fn watermark_covers_respects_the_total_order() {
        use nettrace::http::HeaderMap;
        use nettrace::reassembly::Endpoint;
        use std::net::Ipv4Addr;
        let wm = Watermark { ts_bits: 100.0f64.to_bits(), seq: 5 };
        let mut tx = nettrace::HttpTransaction {
            seq: 5,
            ts: 100.0,
            resp_ts: 100.0,
            client: Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 1),
            server: Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80),
            host: "a".into(),
            method: nettrace::http::Method::Get,
            uri: "/".into(),
            req_headers: HeaderMap::new(),
            status: 200,
            resp_headers: HeaderMap::new(),
            payload_class: nettrace::payload::PayloadClass::Html,
            payload_size: 0,
            body_preview: Vec::new(),
            payload_digest: 0,
        };
        assert!(wm.covers(&tx), "equal position is covered");
        tx.seq = 6;
        assert!(!wm.covers(&tx), "same ts, later seq is not");
        tx.ts = 99.0;
        assert!(wm.covers(&tx), "earlier ts is, regardless of seq");
        tx.ts = 101.0;
        tx.seq = 0;
        assert!(!wm.covers(&tx));
    }
}
