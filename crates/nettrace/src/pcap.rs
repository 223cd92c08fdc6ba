//! Reading and writing the classic libpcap capture format.
//!
//! Only the classic (non-ng) format is implemented: a 24-byte global header
//! followed by `(16-byte record header, packet bytes)` pairs. All four
//! magic variants are accepted on read — microsecond or nanosecond
//! timestamps, in either byte order; files are always written
//! little-endian with microsecond timestamps.
//!
//! [`walk_records`] is the one record reader. It never fails: it reports
//! *why and where it stopped* as a [`WalkEnd`], and the callers are
//! policies over that value — strict turns a framing stop into an
//! [`Error`] ([`WalkEnd::strict`]), lenient folds it into an
//! [`IngestReport`] (`WalkEnd::account`), and a tailing reader keeps
//! the bytes from [`WalkEnd::at`] on pending for the next read.

use std::io::Write;
use std::ops::Range;

use crate::ingest::IngestReport;
use crate::{Error, Result};

/// Magic number of microsecond-resolution captures.
pub const MAGIC_USEC: u32 = 0xa1b2_c3d4;
/// Magic number of nanosecond-resolution captures.
pub const MAGIC_NSEC: u32 = 0xa1b2_3c4d;
/// Link type for Ethernet frames (DLT_EN10MB).
pub const LINKTYPE_ETHERNET: u32 = 1;
/// Upper bound on `caplen` that we accept; larger values indicate corruption.
pub const MAX_CAPTURE_LEN: u32 = 1 << 24;
/// Length of the global file header.
pub const HEADER_LEN: usize = 24;
/// Length of each record header.
const RECORD_LEN: usize = 16;

/// A single captured packet: a timestamp plus the captured bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Capture time in seconds since the Unix epoch (microsecond precision).
    pub ts: f64,
    /// Captured bytes, starting at the link layer.
    pub data: Vec<u8>,
}

impl Packet {
    /// Creates a packet from a timestamp and raw bytes.
    pub fn new(ts: f64, data: Vec<u8>) -> Self {
        Packet { ts, data }
    }
}

/// What a file's magic number says about how to read its records.
#[derive(Debug, Clone, Copy)]
struct Layout {
    /// Integer fields are in the opposite byte order to little-endian.
    swapped: bool,
    /// The sub-second field counts nanoseconds, not microseconds.
    nanos: bool,
}

impl Layout {
    /// The one magic table: {µs, ns} × {little-endian, byte-swapped}.
    /// `magic` is the first four bytes of the file read little-endian.
    fn from_magic(magic: u32) -> Option<Layout> {
        let layout = |swapped, nanos| Some(Layout { swapped, nanos });
        match magic {
            MAGIC_USEC => layout(false, false),
            MAGIC_NSEC => layout(false, true),
            m if m.swap_bytes() == MAGIC_USEC => layout(true, false),
            m if m.swap_bytes() == MAGIC_NSEC => layout(true, true),
            _ => None,
        }
    }

    fn u32_at(&self, b: &[u8], at: usize) -> u32 {
        let v = [b[at], b[at + 1], b[at + 2], b[at + 3]];
        if self.swapped {
            u32::from_be_bytes(v)
        } else {
            u32::from_le_bytes(v)
        }
    }

    /// Decodes a record header into `(timestamp, caplen)`. Nanosecond
    /// files are read at microsecond precision — an `f64` of seconds
    /// since the epoch resolves no finer — so the same capture stored at
    /// either resolution yields bit-identical timestamps.
    fn record(&self, rec: &[u8]) -> (f64, u32) {
        let mut usec = self.u32_at(rec, 4);
        if self.nanos {
            usec /= 1000;
        }
        (self.u32_at(rec, 0) as f64 + usec as f64 * 1e-6, self.u32_at(rec, 8))
    }
}

/// Why a record walk stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// Every byte was consumed; the input ends on a record boundary.
    End,
    /// The caller's record limit was reached with input left over.
    Limit,
    /// The input ends inside the global header, a record header or a
    /// record body — a live-rotated or still-growing capture.
    Truncated,
    /// A record header declares a capture length above
    /// [`MAX_CAPTURE_LEN`]. Classic pcap has no per-record magic, so
    /// nothing after a corrupt length can be framed.
    BadLength(u32),
    /// The global header's magic number is not a classic pcap magic.
    BadMagic(u32),
}

/// Where and why [`walk_records`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkEnd {
    /// The reason.
    pub stop: Stop,
    /// Offset of the first byte not consumed: the start of the record
    /// the walk stopped at (0 when the global header itself is bad or
    /// incomplete).
    pub at: usize,
}

impl WalkEnd {
    /// The strict policy: corruption is an error, a truncated final
    /// record is tolerated (the normal shape of an interrupted capture),
    /// a file too short to hold its own header is not.
    ///
    /// # Errors
    ///
    /// [`Error::BadPcapMagic`], [`Error::BadCaptureLength`], or
    /// [`Error::Io`] (unexpected end of file) for a truncated header.
    pub fn strict(&self) -> Result<()> {
        match self.stop {
            Stop::BadMagic(m) => Err(Error::BadPcapMagic(m)),
            Stop::BadLength(l) => Err(Error::BadCaptureLength(l)),
            Stop::Truncated if self.at < HEADER_LEN => Err(Error::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "failed to fill whole buffer",
            ))),
            Stop::End | Stop::Limit | Stop::Truncated => Ok(()),
        }
    }

    /// The lenient policy: the unconsumed tail of a `len`-byte input is
    /// counted as skipped, the record the walk stopped at as dropped,
    /// and truncation is flagged.
    pub(crate) fn account(&self, len: usize, report: &mut IngestReport) {
        report.bytes_skipped += (len - self.at) as u64;
        report.capture_truncated |= self.stop == Stop::Truncated;
        if self.at >= HEADER_LEN && matches!(self.stop, Stop::Truncated | Stop::BadLength(_)) {
            report.records_dropped += 1;
        }
    }
}

/// Walks the records of a classic pcap file held in `bytes`, calling
/// `emit` with each complete record's timestamp and the byte range of
/// its frame, for at most `limit` records. This is the only record
/// walker over a byte slice; see the module docs for the policies built
/// on its return value.
pub fn walk_records(
    bytes: &[u8],
    limit: usize,
    mut emit: impl FnMut(f64, Range<usize>),
) -> WalkEnd {
    let magic = bytes.get(..4).map_or(0, |b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
    let Some(layout) = Layout::from_magic(magic) else {
        return WalkEnd { stop: Stop::BadMagic(magic), at: 0 };
    };
    if bytes.len() < HEADER_LEN {
        return WalkEnd { stop: Stop::Truncated, at: 0 };
    }
    let mut at = HEADER_LEN;
    let mut emitted = 0usize;
    let stop = loop {
        if at == bytes.len() {
            break Stop::End;
        }
        if emitted == limit {
            break Stop::Limit;
        }
        if at + RECORD_LEN > bytes.len() {
            break Stop::Truncated;
        }
        let (ts, caplen) = layout.record(&bytes[at..at + RECORD_LEN]);
        if caplen > MAX_CAPTURE_LEN {
            break Stop::BadLength(caplen);
        }
        let end = at + RECORD_LEN + caplen as usize;
        if end > bytes.len() {
            break Stop::Truncated;
        }
        emit(ts, at + RECORD_LEN..end);
        emitted += 1;
        at = end;
    };
    WalkEnd { stop, at }
}

/// Renders packets as a classic pcap file in memory.
///
/// # Panics
///
/// Panics when a packet exceeds [`MAX_CAPTURE_LEN`] bytes.
pub fn write_packets(packets: &[Packet]) -> Vec<u8> {
    let mut writer = PcapWriter::new(Vec::new()).expect("writing to a Vec cannot fail");
    for p in packets {
        writer.write_packet(p).expect("packet within MAX_CAPTURE_LEN");
    }
    writer.finish().expect("writing to a Vec cannot fail")
}

/// Streaming writer for classic pcap files (little-endian, microseconds).
#[derive(Debug)]
pub struct PcapWriter<W> {
    inner: W,
}

impl<W: Write> PcapWriter<W> {
    /// Writes the global header with an Ethernet link type.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the header cannot be written.
    pub fn new(mut inner: W) -> Result<Self> {
        let mut hdr = [0u8; 24];
        hdr[0..4].copy_from_slice(&MAGIC_USEC.to_le_bytes());
        hdr[4..6].copy_from_slice(&2u16.to_le_bytes()); // version major
        hdr[6..8].copy_from_slice(&4u16.to_le_bytes()); // version minor
        // thiszone and sigfigs stay zero.
        hdr[16..20].copy_from_slice(&(MAX_CAPTURE_LEN).to_le_bytes()); // snaplen
        hdr[20..24].copy_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
        inner.write_all(&hdr)?;
        Ok(PcapWriter { inner })
    }

    /// Appends one packet record.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadCaptureLength`] when the packet exceeds
    /// [`MAX_CAPTURE_LEN`] bytes, or [`Error::Io`] on write failure.
    pub fn write_packet(&mut self, packet: &Packet) -> Result<()> {
        if packet.data.len() as u64 > MAX_CAPTURE_LEN as u64 {
            return Err(Error::BadCaptureLength(packet.data.len() as u32));
        }
        let ts_sec = packet.ts.floor() as u32;
        let ts_usec = ((packet.ts - ts_sec as f64) * 1e6).round() as u32;
        let len = packet.data.len() as u32;
        let mut rec = [0u8; 16];
        rec[0..4].copy_from_slice(&ts_sec.to_le_bytes());
        rec[4..8].copy_from_slice(&ts_usec.to_le_bytes());
        rec[8..12].copy_from_slice(&len.to_le_bytes());
        rec[12..16].copy_from_slice(&len.to_le_bytes());
        self.inner.write_all(&rec)?;
        self.inner.write_all(&packet.data)?;
        Ok(())
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when flushing fails.
    pub fn finish(mut self) -> Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lenient walk of `bytes` into owned packets plus the folded report.
    fn walk(bytes: &[u8]) -> (Vec<Packet>, IngestReport, WalkEnd) {
        let mut out = Vec::new();
        let end = walk_records(bytes, usize::MAX, |ts, range| {
            out.push(Packet::new(ts, bytes[range].to_vec()));
        });
        let mut report = IngestReport { packets_read: out.len() as u64, ..IngestReport::new() };
        end.account(bytes.len(), &mut report);
        (out, report, end)
    }

    #[test]
    fn empty_file_roundtrips() {
        let (got, report, end) = walk(&write_packets(&[]));
        assert!(got.is_empty());
        assert_eq!(end, WalkEnd { stop: Stop::End, at: HEADER_LEN });
        assert!(!report.has_loss());
    }

    #[test]
    fn packets_roundtrip_with_timestamps() {
        let pkts = vec![
            Packet::new(0.0, vec![]),
            Packet::new(1.000001, vec![1, 2, 3]),
            Packet::new(1234567.5, vec![0xff; 1500]),
        ];
        let (got, report, _) = walk(&write_packets(&pkts));
        assert_eq!(got.len(), 3);
        assert!(!report.has_loss());
        for (a, b) in pkts.iter().zip(&got) {
            assert_eq!(a.data, b.data);
            assert!((a.ts - b.ts).abs() < 1e-5, "ts {} vs {}", a.ts, b.ts);
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let mut buf = vec![0u8; 24];
        buf[0..4].copy_from_slice(&0x1111_2222u32.to_le_bytes());
        let (got, report, end) = walk(&buf);
        assert!(got.is_empty());
        assert_eq!(end, WalkEnd { stop: Stop::BadMagic(0x1111_2222), at: 0 });
        assert!(matches!(end.strict(), Err(Error::BadPcapMagic(0x1111_2222))));
        assert_eq!(report.bytes_skipped, 24);
        assert!(!report.capture_truncated);
    }

    #[test]
    fn truncated_final_record_is_tolerated_by_strict_and_counted_by_lenient() {
        let mut buf =
            write_packets(&[Packet::new(1.0, vec![1; 10]), Packet::new(2.0, vec![2; 10])]);
        buf.truncate(buf.len() - 4); // chop the second packet's body
        let (got, report, end) = walk(&buf);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].data, vec![1; 10]);
        assert_eq!(end, WalkEnd { stop: Stop::Truncated, at: HEADER_LEN + 16 + 10 });
        assert!(end.strict().is_ok());
        assert_eq!(report.records_dropped, 1);
        assert_eq!(report.bytes_skipped, 16 + 6); // record header + partial body
        assert!(report.capture_truncated);
    }

    #[test]
    fn truncated_header_fails_strict_and_is_flagged_by_lenient() {
        let buf = write_packets(&[]);
        let (_, report, end) = walk(&buf[..10]);
        assert_eq!(end, WalkEnd { stop: Stop::Truncated, at: 0 });
        assert!(matches!(end.strict(), Err(Error::Io(_))));
        assert_eq!(report.bytes_skipped, 10);
        assert_eq!(report.records_dropped, 0);
        assert!(report.capture_truncated);
    }

    #[test]
    fn walk_stops_at_oversized_caplen() {
        let mut buf = write_packets(&[Packet::new(1.0, vec![7; 3])]);
        let mut rec = [0u8; 16];
        rec[8..12].copy_from_slice(&(MAX_CAPTURE_LEN + 1).to_le_bytes());
        buf.extend_from_slice(&rec);
        let (got, report, end) = walk(&buf);
        assert_eq!(got.len(), 1);
        assert_eq!(end.stop, Stop::BadLength(MAX_CAPTURE_LEN + 1));
        assert!(matches!(end.strict(), Err(Error::BadCaptureLength(_))));
        assert_eq!(report.records_dropped, 1);
        assert_eq!(report.bytes_skipped, 16);
        assert!(!report.capture_truncated, "corruption, not truncation");
    }

    #[test]
    fn walk_honours_the_record_limit_and_resumes_from_its_offset() {
        let pkts: Vec<Packet> = (0..5u8).map(|i| Packet::new(i as f64, vec![i; 4])).collect();
        let buf = write_packets(&pkts);
        let mut seen = 0;
        let end = walk_records(&buf, 2, |_, _| seen += 1);
        assert_eq!(seen, 2);
        assert_eq!(end, WalkEnd { stop: Stop::Limit, at: HEADER_LEN + 2 * (16 + 4) });
        // A tailing reader drops the consumed records and walks again.
        let mut rest = buf[..HEADER_LEN].to_vec();
        rest.extend_from_slice(&buf[end.at..]);
        assert_eq!(walk(&rest).0, pkts[2..]);
    }

    /// One record in each of the four header layouts.
    fn variant(magic: u32, big_endian: bool, ticks_per_usec: u32) -> Vec<u8> {
        let put = |v: u32| if big_endian { v.to_be_bytes() } else { v.to_le_bytes() };
        let put16 = |v: u16| if big_endian { v.to_be_bytes() } else { v.to_le_bytes() };
        let mut buf = Vec::new();
        buf.extend_from_slice(&put(magic));
        buf.extend_from_slice(&put16(2));
        buf.extend_from_slice(&put16(4));
        buf.extend_from_slice(&[0u8; 8]); // thiszone, sigfigs
        buf.extend_from_slice(&put(65535));
        buf.extend_from_slice(&put(LINKTYPE_ETHERNET));
        buf.extend_from_slice(&put(7)); // ts_sec
        buf.extend_from_slice(&put(500_000 * ticks_per_usec)); // sub-second ticks
        buf.extend_from_slice(&put(2)); // caplen
        buf.extend_from_slice(&put(2)); // origlen
        buf.extend_from_slice(&[0xab, 0xcd]);
        buf
    }

    #[test]
    fn all_four_magic_variants_read_identically() {
        for (magic, big_endian, ticks) in [
            (MAGIC_USEC, false, 1),
            (MAGIC_USEC, true, 1),
            (MAGIC_NSEC, false, 1000),
            (MAGIC_NSEC, true, 1000),
        ] {
            let buf = variant(magic, big_endian, ticks);
            let (got, report, _) = walk(&buf);
            assert_eq!(got, [Packet::new(7.5, vec![0xab, 0xcd])], "{magic:#x} be={big_endian}");
            assert!(!report.has_loss());
        }
    }
}
