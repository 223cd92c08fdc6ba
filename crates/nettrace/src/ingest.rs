//! Ingest-health accounting: the lenient policy's side of offline ingest.
//!
//! Real-world captures are hostile inputs: live rotation truncates files
//! mid-record, faulty taps flip bytes, middleboxes mangle TCP, and
//! servers emit broken chunked framing or corrupt gzip. There is one
//! capture → transaction path ([`crate::SpanPipeline`]); it never stops
//! at damage, it salvages what it can and records *why and where* each
//! layer lost something. The two offline policies read that one run
//! differently. **Strict** ([`crate::SpanPipeline::extract_capture_strict`])
//! returns the first framing or HTTP-syntax stop as an error — the right
//! default for tests and for inputs that are supposed to be clean.
//! **Lenient** ([`crate::SpanPipeline::extract_lenient`]) is for forensic
//! replay: an analyst wants every conversation that *can* be recovered,
//! plus an honest account of what was lost.
//!
//! [`IngestReport`] is that account, one counter per way a layer can lose
//! data:
//!
//! * **capture layer** — records read vs. dropped, bytes abandoned,
//!   whether the file ended mid-record,
//! * **packet layer** — frames that failed Ethernet/IPv4/TCP decoding,
//!   and well-formed frames that simply are not TCP/IPv4,
//! * **stream layer** — reassembled streams salvaged after a mid-stream
//!   parse error, discarded entirely, or skipped as non-HTTP,
//! * **HTTP layer** — transactions recovered, content-coding and
//!   chunked-framing failures, bodies over the decode cap.
//!
//! [`publish`] adds one capture's report to a telemetry registry, one
//! `ingest_*_total` counter per field.

use serde::{Deserialize, Serialize};
use telemetry::Registry;

/// Per-layer counters describing what one lenient ingest run recovered
/// and what it dropped.
///
/// All counters are cumulative: the same report can be threaded through
/// several captures and merged with [`IngestReport::merge`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestReport {
    /// Capture records successfully decoded into packets.
    pub packets_read: u64,
    /// Capture records skipped or abandoned (corrupt header, oversized
    /// capture length, truncation mid-record).
    pub records_dropped: u64,
    /// Capture bytes abandoned without being decoded.
    pub bytes_skipped: u64,
    /// Whether the capture ended in the middle of a record or block.
    pub capture_truncated: bool,
    /// Packets that failed Ethernet/IPv4/TCP decoding.
    pub packets_dropped_decode: u64,
    /// Well-formed packets that are not IPv4/TCP (ARP, UDP, IPv6, …).
    pub packets_non_tcp: u64,
    /// Reassembled unidirectional streams seen in total.
    pub streams_total: u64,
    /// Streams that hit a mid-stream HTTP parse error but yielded at
    /// least one message before it (the parseable prefix is kept).
    pub streams_salvaged: u64,
    /// Streams quarantined without recovering a single message: either
    /// malformed from the first byte, or an orphan HTTP response whose
    /// request direction was never captured.
    pub streams_discarded: u64,
    /// Streams carrying something other than HTTP (TLS, SSH, …),
    /// counted instead of silently dropped.
    pub streams_skipped_non_http: u64,
    /// Sequence-number discontinuities (lost segments) skipped during
    /// reassembly: each is a point where later bytes were appended
    /// directly after earlier ones instead of stalling the stream.
    pub reassembly_gaps: u64,
    /// HTTP transactions recovered end-to-end.
    pub transactions_recovered: u64,
    /// Response bodies whose gzip content encoding failed to decode
    /// (the raw bytes are kept).
    pub gzip_failures: u64,
    /// Response bodies whose deflate content encoding (zlib or raw)
    /// failed to decode (the raw bytes are kept).
    pub deflate_failures: u64,
    /// Chunked transfer framing errors (the stream prefix is kept).
    pub chunked_failures: u64,
    /// Response bodies whose decoded size would exceed the expansion
    /// cap ([`crate::transaction::MAX_DECODED_BODY_BYTES`]) — the
    /// zip-bomb guard. The still-encoded wire bytes are kept.
    pub decode_cap_exceeded: u64,
}

impl IngestReport {
    /// Creates an all-zero report.
    pub fn new() -> Self {
        IngestReport::default()
    }

    /// Accumulates `other` into `self` (counter-wise sum; the truncation
    /// flag is OR-ed).
    pub fn merge(&mut self, other: &IngestReport) {
        self.packets_read += other.packets_read;
        self.records_dropped += other.records_dropped;
        self.bytes_skipped += other.bytes_skipped;
        self.capture_truncated |= other.capture_truncated;
        self.packets_dropped_decode += other.packets_dropped_decode;
        self.packets_non_tcp += other.packets_non_tcp;
        self.streams_total += other.streams_total;
        self.streams_salvaged += other.streams_salvaged;
        self.streams_discarded += other.streams_discarded;
        self.streams_skipped_non_http += other.streams_skipped_non_http;
        self.reassembly_gaps += other.reassembly_gaps;
        self.transactions_recovered += other.transactions_recovered;
        self.gzip_failures += other.gzip_failures;
        self.deflate_failures += other.deflate_failures;
        self.chunked_failures += other.chunked_failures;
        self.decode_cap_exceeded += other.decode_cap_exceeded;
    }

    /// Whether any layer dropped, skipped, or salvaged anything — i.e.
    /// whether the capture decoded less than perfectly.
    pub fn has_loss(&self) -> bool {
        self.records_dropped > 0
            || self.bytes_skipped > 0
            || self.capture_truncated
            || self.packets_dropped_decode > 0
            || self.streams_salvaged > 0
            || self.streams_discarded > 0
            || self.reassembly_gaps > 0
            || self.gzip_failures > 0
            || self.deflate_failures > 0
            || self.chunked_failures > 0
            || self.decode_cap_exceeded > 0
    }

    /// `(metric name, help, value)` for every counter [`publish`] adds:
    /// one per field, plus `ingest_captures_total`, to which a report
    /// counts as one capture.
    fn counters(&self) -> [(&'static str, &'static str, u64); 17] {
        [
            ("ingest_captures_total", "Captures ingested through the lenient path", 1),
            (
                "ingest_packets_read_total",
                "Capture records decoded into packets",
                self.packets_read,
            ),
            (
                "ingest_records_dropped_total",
                "Capture records skipped or abandoned",
                self.records_dropped,
            ),
            ("ingest_bytes_skipped_total", "Capture bytes abandoned undecoded", self.bytes_skipped),
            (
                "ingest_capture_truncations_total",
                "Captures that ended mid-record or mid-block",
                u64::from(self.capture_truncated),
            ),
            (
                "ingest_packets_dropped_decode_total",
                "Packets that failed Ethernet/IPv4/TCP decoding",
                self.packets_dropped_decode,
            ),
            (
                "ingest_packets_non_tcp_total",
                "Well-formed packets that are not IPv4/TCP",
                self.packets_non_tcp,
            ),
            ("ingest_streams_total", "Reassembled unidirectional streams seen", self.streams_total),
            (
                "ingest_streams_salvaged_total",
                "Streams with a parseable prefix kept after a mid-stream error",
                self.streams_salvaged,
            ),
            (
                "ingest_streams_discarded_total",
                "Streams quarantined without recovering a message",
                self.streams_discarded,
            ),
            (
                "ingest_streams_non_http_total",
                "Streams carrying a non-HTTP protocol",
                self.streams_skipped_non_http,
            ),
            (
                "ingest_reassembly_gaps_total",
                "Sequence discontinuities skipped during TCP reassembly",
                self.reassembly_gaps,
            ),
            (
                "ingest_transactions_recovered_total",
                "HTTP transactions recovered end-to-end",
                self.transactions_recovered,
            ),
            (
                "ingest_gzip_failures_total",
                "Response bodies whose gzip encoding failed to decode",
                self.gzip_failures,
            ),
            (
                "ingest_deflate_failures_total",
                "Response bodies whose deflate encoding failed to decode",
                self.deflate_failures,
            ),
            (
                "ingest_chunked_failures_total",
                "Chunked transfer framing errors",
                self.chunked_failures,
            ),
            (
                "ingest_decode_cap_exceeded_total",
                "Response bodies kept encoded because decoding would exceed the expansion cap",
                self.decode_cap_exceeded,
            ),
        ]
    }
}

/// Adds one capture's report to the `ingest_*_total` counters in
/// `registry`, registering them on first use. `report` must be that
/// capture's own (a fresh report threaded through one lenient ingest),
/// not a running total: the counters are monotone and would count it
/// twice.
pub fn publish(registry: &Registry, report: &IngestReport) {
    for (name, help, value) in report.counters() {
        registry.counter(name, help).add(value);
    }
}

impl std::fmt::Display for IngestReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "capture: {} packets read, {} records dropped, {} bytes skipped{}; \
             decode: {} undecodable, {} non-tcp; \
             streams: {} total, {} salvaged, {} discarded, {} non-http, {} gaps; \
             http: {} transactions, {} gzip failures, {} deflate failures, \
             {} chunked failures, {} over decode cap",
            self.packets_read,
            self.records_dropped,
            self.bytes_skipped,
            if self.capture_truncated { " (truncated)" } else { "" },
            self.packets_dropped_decode,
            self.packets_non_tcp,
            self.streams_total,
            self.streams_salvaged,
            self.streams_discarded,
            self.streams_skipped_non_http,
            self.reassembly_gaps,
            self.transactions_recovered,
            self.gzip_failures,
            self.deflate_failures,
            self.chunked_failures,
            self.decode_cap_exceeded,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_counters_and_ors_truncation() {
        let mut a = IngestReport { packets_read: 3, gzip_failures: 1, ..IngestReport::new() };
        let b = IngestReport {
            packets_read: 2,
            capture_truncated: true,
            streams_salvaged: 4,
            ..IngestReport::new()
        };
        a.merge(&b);
        assert_eq!(a.packets_read, 5);
        assert_eq!(a.gzip_failures, 1);
        assert_eq!(a.streams_salvaged, 4);
        assert!(a.capture_truncated);
    }

    #[test]
    fn loss_detection() {
        assert!(!IngestReport::new().has_loss());
        assert!(!IngestReport { packets_read: 10, streams_total: 2, ..IngestReport::new() }
            .has_loss());
        assert!(IngestReport { records_dropped: 1, ..IngestReport::new() }.has_loss());
        assert!(IngestReport { deflate_failures: 1, ..IngestReport::new() }.has_loss());
        assert!(IngestReport { chunked_failures: 1, ..IngestReport::new() }.has_loss());
        assert!(IngestReport { decode_cap_exceeded: 1, ..IngestReport::new() }.has_loss());
    }

    #[test]
    fn display_mentions_every_layer() {
        let r = format!("{}", IngestReport::new());
        for word in ["capture", "decode", "streams", "http"] {
            assert!(r.contains(word), "{r}");
        }
    }

    /// Every counter carries the field it is named after, read from the
    /// serialized report; distinct values per field expose a crossed or
    /// forgotten row.
    #[test]
    fn publish_maps_every_field_to_its_own_counter() {
        let report = IngestReport {
            packets_read: 2,
            records_dropped: 3,
            bytes_skipped: 5,
            capture_truncated: true,
            packets_dropped_decode: 7,
            packets_non_tcp: 11,
            streams_total: 13,
            streams_salvaged: 17,
            streams_discarded: 19,
            streams_skipped_non_http: 23,
            reassembly_gaps: 29,
            transactions_recovered: 31,
            gzip_failures: 37,
            deflate_failures: 43,
            chunked_failures: 41,
            decode_cap_exceeded: 47,
        };
        let registry = Registry::new();
        publish(&registry, &report);
        let fields = serde::to_value(&report).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for (name, value) in registry.snapshot().counters {
            let field = match name.as_str() {
                "ingest_captures_total" => {
                    assert_eq!(value, 1);
                    continue;
                }
                "ingest_capture_truncations_total" => "capture_truncated",
                "ingest_streams_total" => "streams_total",
                "ingest_streams_non_http_total" => "streams_skipped_non_http",
                _ => name.strip_prefix("ingest_").and_then(|n| n.strip_suffix("_total")).unwrap(),
            };
            let want = match fields.get_field(field) {
                Some(serde::Value::UInt(v)) => *v,
                Some(serde::Value::Int(v)) => u64::try_from(*v).unwrap(),
                Some(serde::Value::Bool(b)) => u64::from(*b),
                other => panic!("{name}: no field {field:?} ({other:?})"),
            };
            assert_eq!(value, want, "{name}");
            assert!(seen.insert(field.to_string()), "two counters read {field}");
        }
        assert_eq!(seen.len(), 16, "a field has no counter");
    }

    #[test]
    fn report_round_trips_through_value() {
        let r = IngestReport { packets_read: 7, capture_truncated: true, ..IngestReport::new() };
        let v = serde::to_value(&r).unwrap();
        let back: IngestReport = serde::from_value(v).unwrap();
        assert_eq!(back, r);
    }
}
