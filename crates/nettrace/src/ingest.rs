//! Ingest-health accounting: the lenient policy's side of offline ingest.
//!
//! Real-world captures are hostile inputs: live rotation truncates files
//! mid-record, faulty taps flip bytes, middleboxes mangle TCP, and
//! servers emit broken chunked framing or corrupt gzip. There is one
//! capture → transaction path ([`crate::SpanPipeline`]); it never stops
//! at damage, it salvages what it can and records *why and where* each
//! layer lost something. The two offline policies read that one run
//! differently. **Strict** ([`crate::SpanPipeline::extract_strict`])
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
//! * **HTTP layer** — transactions recovered, gzip and chunked-framing
//!   decode failures.

use serde::{Deserialize, Serialize};

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

    #[test]
    fn report_round_trips_through_value() {
        let r = IngestReport { packets_read: 7, capture_truncated: true, ..IngestReport::new() };
        let v = serde::to_value(&r).unwrap();
        let back: IngestReport = serde::from_value(v).unwrap();
        assert_eq!(back, r);
    }
}
