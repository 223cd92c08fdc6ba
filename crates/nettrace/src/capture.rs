//! Format-agnostic capture reading: classic pcap or pcapng, detected by
//! magic.
//!
//! There is one capture walk. A single pass serves both offline ingest
//! policies: the **lenient** reading lands in the [`IngestReport`] (what
//! was salvaged, what was skipped), the **strict** reading is the
//! walk's `Result` (the first framing error, with a truncated final
//! record tolerated).

use std::ops::Range;

use crate::arena::PacketSpan;
use crate::ingest::IngestReport;
use crate::pcap::{self, Packet};
use crate::{pcapng, Result};

/// Walks a capture in either format, calling `emit` with the `(ts,
/// range)` span into `bytes` of every salvageable packet.
///
/// Unreadable records are skipped — pcapng resynchronises on block
/// framing, classic pcap yields the prefix before the first corrupt
/// record — and accounted in `report`. Bytes that are not a recognisable
/// capture at all are counted as skipped and produce no packets.
///
/// # Errors
///
/// The strict reading of the same walk: [`crate::Error::BadPcapMagic`]
/// when the bytes are neither format, or the first framing error. `emit`
/// has seen and `report` holds the lenient salvage either way.
pub(crate) fn walk_packets(
    bytes: &[u8],
    report: &mut IngestReport,
    mut emit: impl FnMut(f64, Range<usize>),
) -> Result<()> {
    if pcapng::is_pcapng(bytes) {
        return pcapng::walk_blocks(bytes, report, emit);
    }
    let mut packets = 0;
    let end = pcap::walk_records(bytes, usize::MAX, |ts, range| {
        packets += 1;
        emit(ts, range);
    });
    report.packets_read += packets;
    end.account(bytes.len(), report);
    end.strict()
}

/// The lenient policy over the capture walk: one `(ts, range)` span per
/// salvageable packet appended to `out` (an append sink, so a
/// caller-owned buffer can be reused across captures). Never fails;
/// losses are in `report`.
pub fn read_packet_spans_lenient(
    bytes: &[u8],
    report: &mut IngestReport,
    out: &mut Vec<PacketSpan>,
) {
    let _ = walk_packets(bytes, report, |ts, range| out.push(PacketSpan { ts, range }));
}

/// The strict policy over the capture walk, materialised as owned
/// packets for tools that edit them (`synthtraffic::faultgen`, test
/// fixtures). A capture that ends in the middle of its final record
/// yields every packet before it.
///
/// # Errors
///
/// [`crate::Error::BadPcapMagic`] when the bytes are neither format, or
/// the first framing error.
pub fn read_packets(bytes: &[u8]) -> Result<Vec<Packet>> {
    let mut packets = Vec::new();
    walk_packets(bytes, &mut IngestReport::new(), |ts, range| {
        packets.push(Packet::new(ts, bytes[range].to_vec()));
    })?;
    Ok(packets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Error;

    fn sample_packets() -> Vec<Packet> {
        vec![Packet::new(1.0, vec![1, 2]), Packet::new(2.5, vec![3])]
    }

    #[test]
    fn reads_both_formats_by_magic() {
        let classic = pcap::write_packets(&sample_packets());
        let ng = pcapng::write_packets(&sample_packets());
        for bytes in [classic, ng] {
            assert_eq!(read_packets(&bytes).unwrap(), sample_packets());
            let mut report = IngestReport::new();
            let mut spans = Vec::new();
            read_packet_spans_lenient(&bytes, &mut report, &mut spans);
            assert_eq!(spans.len(), 2);
            assert_eq!(spans[1].bytes(&bytes), [3]);
            assert_eq!(report.packets_read, 2);
            assert!(!report.has_loss());
        }
    }

    #[test]
    fn unknown_formats_fail_strict_and_are_counted_by_lenient() {
        assert!(matches!(read_packets(b"not a capture"), Err(Error::BadPcapMagic(_))));
        assert!(matches!(read_packets(b""), Err(Error::BadPcapMagic(0))));
        let mut report = IngestReport::new();
        let mut spans = Vec::new();
        read_packet_spans_lenient(b"not a capture", &mut report, &mut spans);
        assert!(spans.is_empty());
        assert_eq!(report.bytes_skipped, 13);
        assert_eq!(report.packets_read, 0);
    }

    #[test]
    fn strict_read_tolerates_a_truncated_final_record() {
        for bytes in [pcap::write_packets(&sample_packets()), pcapng::write_packets(&sample_packets())] {
            let got = read_packets(&bytes[..bytes.len() - 1]).unwrap();
            assert_eq!(got, sample_packets()[..1]);
        }
    }
}
