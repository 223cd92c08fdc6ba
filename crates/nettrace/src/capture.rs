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

    /// Every prefix of a small classic pcap and a small pcapng capture,
    /// and 2 000 seeded single-bit flips of each, walk without a panic:
    /// each emitted range lies inside the input, after the one before,
    /// and decodes (or fails to) without a panic, and no packet is read
    /// from fewer than 16 bytes (a classic record header).
    #[test]
    fn capture_walk_totality() {
        use crate::ether::{self, MacAddr, ETHERTYPE_IPV4};
        use crate::ipv4::PROTO_TCP;
        use crate::reassembly::decode_frame;
        use crate::tcp::{self, TcpFlags};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::net::Ipv4Addr;

        let (client, server) = (Ipv4Addr::new(10, 0, 0, 7), Ipv4Addr::new(192, 0, 2, 80));
        let frame = |protocol, flags, payload: &[u8]| {
            let seg = tcp::build(40000, 80, 1, 0, flags, payload);
            let ip = crate::ipv4::build(client, server, protocol, 1, &seg);
            ether::build(MacAddr::default(), MacAddr::default(), ETHERTYPE_IPV4, &ip)
        };
        let packets = vec![
            Packet::new(1.0, frame(PROTO_TCP, TcpFlags::data(), b"GET / HTTP/1.1\r\n\r\n")),
            Packet::new(1.5, frame(17, TcpFlags::data(), b"udp")),
            Packet::new(2.0, vec![0xff; 42]),
            Packet::new(2.5, frame(PROTO_TCP, TcpFlags::data(), b"")),
        ];
        let captures = [pcap::write_packets(&packets), pcapng::write_packets(&packets)];
        let walk = |bytes: &[u8]| {
            let mut report = IngestReport::new();
            let mut last_end = 0;
            let _ = walk_packets(bytes, &mut report, |_, range| {
                assert!(range.start >= last_end && range.end <= bytes.len(), "{range:?}");
                last_end = range.end;
                let _ = decode_frame(&bytes[range]);
            });
            assert!(report.packets_read as usize <= bytes.len() / 16, "{report}");
        };
        for capture in &captures {
            for cut in 0..=capture.len() {
                walk(&capture[..cut]);
            }
        }
        let mut rng = StdRng::seed_from_u64(0xca97);
        for capture in &captures {
            for _ in 0..2_000 {
                let mut bytes = capture.clone();
                let bit = rng.gen_range(0..bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
                walk(&bytes);
            }
        }
    }

    #[test]
    fn strict_read_tolerates_a_truncated_final_record() {
        for bytes in [pcap::write_packets(&sample_packets()), pcapng::write_packets(&sample_packets())] {
            let got = read_packets(&bytes[..bytes.len() - 1]).unwrap();
            assert_eq!(got, sample_packets()[..1]);
        }
    }
}
