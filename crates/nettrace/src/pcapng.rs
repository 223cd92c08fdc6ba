//! Minimal pcapng (next-generation capture) support.
//!
//! Wireshark writes pcapng by default, so a deployable replay path must
//! read it. This module implements the block structure needed for packet
//! replay — Section Header (byte-order detection), Interface Description
//! (timestamp resolution), Enhanced and Simple Packet Blocks — and a
//! writer sufficient for round-trip tests. Unknown block types are
//! skipped, as the specification requires.
//!
//! [`walk_blocks`] is the one block walker; like
//! [`crate::pcap::walk_records`] it serves both ingest policies from a
//! single pass. Use [`crate::capture`] to accept either classic pcap or
//! pcapng transparently.

use crate::ingest::IngestReport;
use crate::pcap::Packet;
use crate::{Error, Result};
use std::ops::Range;

/// Block type of the Section Header Block.
pub const SHB_TYPE: u32 = 0x0A0D_0D0A;
/// Byte-order magic inside the SHB.
pub const BYTE_ORDER_MAGIC: u32 = 0x1A2B_3C4D;
/// Interface Description Block.
pub const IDB_TYPE: u32 = 0x0000_0001;
/// Simple Packet Block.
pub const SPB_TYPE: u32 = 0x0000_0003;
/// Enhanced Packet Block.
pub const EPB_TYPE: u32 = 0x0000_0006;

fn syntax(msg: &str) -> Error {
    Error::HttpSyntax(format!("pcapng: {msg}"))
}

struct Cursor<'a> {
    data: &'a [u8],

    big_endian: bool,
}

impl<'a> Cursor<'a> {
    fn u32_at(&self, offset: usize) -> Result<u32> {
        let b = self
            .data
            .get(offset..offset + 4)
            .ok_or_else(|| syntax("truncated block"))?;
        let v = [b[0], b[1], b[2], b[3]];
        Ok(if self.big_endian { u32::from_be_bytes(v) } else { u32::from_le_bytes(v) })
    }
}

/// Whether `bytes` starts with a pcapng Section Header Block.
pub(crate) fn is_pcapng(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && bytes[0..4] == SHB_TYPE.to_le_bytes()
}

/// Detects the byte order from the SHB magic, or errors on garbage.
fn byte_order(bytes: &[u8]) -> Result<bool> {
    if bytes.len() < 12 || !is_pcapng(bytes) {
        return Err(syntax("missing section header block"));
    }
    // Byte order from the SHB magic (block type 0x0A0D0D0A reads the same
    // in both orders; the magic does not).
    let magic_le = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    match magic_le {
        BYTE_ORDER_MAGIC => Ok(false),
        m if m.swap_bytes() == BYTE_ORDER_MAGIC => Ok(true),
        _ => Err(syntax("bad byte-order magic")),
    }
}

/// Parses one block at `pos`, emitting any packet as a `(ts, range)`
/// pair into `emit` and updating `tsresol` on interface blocks.
///
/// Returns `Ok(Some(next_pos))` on success, `Ok(None)` when the
/// remaining bytes are a truncated final block (the declared block
/// length runs past the end of the input), and a structural error for
/// in-place corruption (bad length fields, trailer mismatch).
///
/// Invariant relied on by the lenient walker: `emit` is called only
/// after every validation for the block has passed, so an `Err` return
/// implies nothing was emitted for this block.
fn parse_block(
    cur: &Cursor<'_>,
    bytes: &[u8],
    pos: usize,
    tsresol: &mut Vec<f64>,
    emit: &mut impl FnMut(f64, Range<usize>),
) -> Result<Option<usize>> {
    let block_type = cur.u32_at(pos)?;
    let total_len = cur.u32_at(pos + 4)? as usize;
    if total_len < 12 || !total_len.is_multiple_of(4) {
        return Err(syntax("bad block length"));
    }
    if pos + total_len > bytes.len() {
        return Ok(None); // truncated final block
    }
    let trailer = cur.u32_at(pos + total_len - 4)? as usize;
    if trailer != total_len {
        return Err(syntax("block length trailer mismatch"));
    }
    let body_len = total_len - 12;
    match block_type {
        SHB_TYPE => {
            // New section: interfaces reset.
            tsresol.clear();
        }
        IDB_TYPE => {
            tsresol.push(parse_idb_tsresol(cur, pos + 8, body_len)?);
        }
        EPB_TYPE => {
            if body_len < 20 {
                return Err(syntax("truncated enhanced packet block"));
            }
            let iface = cur.u32_at(pos + 8)? as usize;
            let ts_high = cur.u32_at(pos + 12)? as u64;
            let ts_low = cur.u32_at(pos + 16)? as u64;
            let caplen = cur.u32_at(pos + 20)? as usize;
            if caplen > body_len - 20 {
                return Err(syntax("packet data overruns its block"));
            }
            let resol = tsresol.get(iface).copied().unwrap_or(1e6);
            let ticks = (ts_high << 32) | ts_low;
            emit(ticks as f64 / resol, pos + 28..pos + 28 + caplen);
        }
        SPB_TYPE => {
            if body_len < 4 {
                return Err(syntax("truncated simple packet block"));
            }
            let orig_len = cur.u32_at(pos + 8)? as usize;
            let caplen = orig_len.min(body_len - 4);
            emit(0.0, pos + 12..pos + 12 + caplen);
        }
        _ => {} // options, name resolution, statistics… skipped
    }
    Ok(Some(pos + total_len))
}

/// Walks the blocks of a pcapng byte stream, calling `emit` with each
/// packet's timestamp and the byte range of its frame.
///
/// Timestamps honour each interface's `if_tsresol` option (default
/// microseconds). Unknown blocks are skipped; Simple Packet Blocks carry
/// no timestamp and are emitted with `ts = 0.0`.
///
/// One pass serves both ingest policies. The **lenient** reading is
/// folded into `report`: pcapng blocks carry their own type and length
/// framing, so after a corrupt block the walk resynchronises on the next
/// offset that looks like a valid block (known type, sane length,
/// matching trailer) and carries on, counting dropped blocks and skipped
/// bytes; a final block cut short (live rotation, interrupted copy) is
/// counted as truncation. The **strict** reading is the return value.
///
/// # Errors
///
/// The first structural error met — a malformed section header,
/// inconsistent block lengths, a length-trailer mismatch. A truncated
/// final block is not an error. Packets emitted after the first error
/// are the lenient salvage; a strict caller discards them.
pub fn walk_blocks(
    bytes: &[u8],
    report: &mut IngestReport,
    mut emit: impl FnMut(f64, Range<usize>),
) -> Result<()> {
    let big_endian = match byte_order(bytes) {
        Ok(big_endian) => big_endian,
        Err(e) => {
            report.bytes_skipped += bytes.len() as u64;
            return Err(e);
        }
    };
    let cur = Cursor { data: bytes, big_endian };
    let mut first_error = Ok(());
    let mut pos = 0usize;
    // Per-interface timestamp resolution (ticks per second).
    let mut tsresol: Vec<f64> = Vec::new();
    while pos + 12 <= bytes.len() {
        let mut emitted = 0u64;
        let sink = &mut |ts, range| {
            emitted += 1;
            emit(ts, range);
        };
        // A failed block emits nothing (see `parse_block`), so the error
        // path needs no rollback of already-emitted packets.
        match parse_block(&cur, bytes, pos, &mut tsresol, sink) {
            Ok(Some(next)) => {
                report.packets_read += emitted;
                pos = next;
            }
            Ok(None) => {
                report.records_dropped += 1;
                report.bytes_skipped += (bytes.len() - pos) as u64;
                report.capture_truncated = true;
                return first_error;
            }
            Err(e) => {
                first_error = first_error.and(Err(e));
                report.records_dropped += 1;
                match resync(&cur, bytes, pos + 1) {
                    Some(next) => {
                        report.bytes_skipped += (next - pos) as u64;
                        pos = next;
                    }
                    None => {
                        report.bytes_skipped += (bytes.len() - pos) as u64;
                        return first_error;
                    }
                }
            }
        }
    }
    if pos < bytes.len() {
        report.bytes_skipped += (bytes.len() - pos) as u64;
        report.capture_truncated = true;
    }
    first_error
}

/// Finds the next plausible block start at or after `from`: a known
/// block type whose declared length is sane and whose length trailer
/// matches. Returns `None` when no such offset exists.
fn resync(cur: &Cursor<'_>, bytes: &[u8], from: usize) -> Option<usize> {
    for q in from..bytes.len().saturating_sub(12) {
        let Ok(block_type) = cur.u32_at(q) else { continue };
        if !matches!(block_type, SHB_TYPE | IDB_TYPE | EPB_TYPE | SPB_TYPE) {
            continue;
        }
        let Ok(total_len) = cur.u32_at(q + 4) else { continue };
        let total_len = total_len as usize;
        if total_len < 12 || !total_len.is_multiple_of(4) || q + total_len > bytes.len() {
            continue;
        }
        if cur.u32_at(q + total_len - 4).ok()? as usize != total_len {
            continue;
        }
        return Some(q);
    }
    None
}

/// Extracts `if_tsresol` (option 9) from an IDB, returning ticks/second.
fn parse_idb_tsresol(cur: &Cursor<'_>, body_start: usize, body_len: usize) -> Result<f64> {
    // IDB body: linktype u16, reserved u16, snaplen u32, then options.
    let mut opt = body_start + 8;
    let end = body_start + body_len;
    while opt + 4 <= end {
        let code = cur.u32_at(opt)? & 0xffff;
        let len = ((cur.u32_at(opt)? >> 16) & 0xffff) as usize;
        // Careful: option code/length are two u16s; endianness handled by
        // reading the combined u32 above in file order.
        let (code, len) = if cur.big_endian {
            ((cur.u32_at(opt)? >> 16) & 0xffff, (cur.u32_at(opt)? & 0xffff) as usize)
        } else {
            (code, len)
        };
        if code == 0 {
            break; // opt_endofopt
        }
        if code == 9 && len >= 1 {
            let raw = *cur.data.get(opt + 4).ok_or_else(|| syntax("truncated option"))?;
            return Ok(if raw & 0x80 != 0 {
                2f64.powi((raw & 0x7f) as i32)
            } else {
                10f64.powi(raw as i32)
            });
        }
        opt += 4 + len.div_ceil(4) * 4;
    }
    Ok(1e6)
}

/// Writes packets as a minimal little-endian pcapng stream (one section,
/// one Ethernet interface with microsecond timestamps, one EPB per
/// packet). Sufficient for interchange and round-trip testing.
pub fn write_packets(packets: &[Packet]) -> Vec<u8> {
    let mut out = Vec::new();
    // SHB: type, len=28, magic, version 1.0, section length -1, trailer.
    out.extend_from_slice(&SHB_TYPE.to_le_bytes());
    out.extend_from_slice(&28u32.to_le_bytes());
    out.extend_from_slice(&BYTE_ORDER_MAGIC.to_le_bytes());
    out.extend_from_slice(&1u16.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&u64::MAX.to_le_bytes());
    out.extend_from_slice(&28u32.to_le_bytes());
    // IDB: linktype 1 (ethernet), snaplen 0 (no limit), no options.
    out.extend_from_slice(&IDB_TYPE.to_le_bytes());
    out.extend_from_slice(&20u32.to_le_bytes());
    out.extend_from_slice(&1u16.to_le_bytes()); // linktype
    out.extend_from_slice(&0u16.to_le_bytes()); // reserved
    out.extend_from_slice(&0u32.to_le_bytes()); // snaplen
    out.extend_from_slice(&20u32.to_le_bytes());
    for p in packets {
        let caplen = p.data.len();
        let padded = caplen.div_ceil(4) * 4;
        let total = 32 + padded;
        let ticks = (p.ts * 1e6).round() as u64;
        out.extend_from_slice(&EPB_TYPE.to_le_bytes());
        out.extend_from_slice(&(total as u32).to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes()); // interface 0
        out.extend_from_slice(&((ticks >> 32) as u32).to_le_bytes());
        out.extend_from_slice(&(ticks as u32).to_le_bytes());
        out.extend_from_slice(&(caplen as u32).to_le_bytes());
        out.extend_from_slice(&(caplen as u32).to_le_bytes());
        out.extend_from_slice(&p.data);
        out.resize(out.len() + (padded - caplen), 0);
        out.extend_from_slice(&(total as u32).to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One walk, both readings: the salvaged packets, the strict verdict,
    /// and the lenient report.
    fn walk(bytes: &[u8]) -> (Vec<Packet>, Result<()>, IngestReport) {
        let mut packets = Vec::new();
        let mut report = IngestReport::new();
        let strict = walk_blocks(bytes, &mut report, |ts, range| {
            packets.push(Packet::new(ts, bytes[range].to_vec()));
        });
        (packets, strict, report)
    }

    #[test]
    fn roundtrip_preserves_data_and_timestamps() {
        let packets = vec![
            Packet::new(1.5, vec![1, 2, 3]),
            Packet::new(1_400_000_000.000001, vec![0xde, 0xad, 0xbe, 0xef, 0x01]),
            Packet::new(0.0, vec![]),
        ];
        let bytes = write_packets(&packets);
        assert!(is_pcapng(&bytes));
        let (got, strict, report) = walk(&bytes);
        assert!(strict.is_ok());
        assert_eq!(report.packets_read, 3);
        assert!(!report.has_loss());
        assert_eq!(got.len(), 3);
        for (a, b) in packets.iter().zip(&got) {
            assert_eq!(a.data, b.data);
            assert!((a.ts - b.ts).abs() < 1e-5, "{} vs {}", a.ts, b.ts);
        }
    }

    #[test]
    fn unknown_blocks_are_skipped() {
        let mut bytes = write_packets(&[Packet::new(1.0, vec![9, 9])]);
        // Append a Name Resolution Block (type 4) with empty body.
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&12u32.to_le_bytes());
        bytes.extend_from_slice(&12u32.to_le_bytes());
        // And another packet after it.
        let tail = write_packets(&[Packet::new(2.0, vec![7])]);
        bytes.extend_from_slice(&tail[28 + 20..]); // skip SHB+IDB of tail
        let (got, strict, _) = walk(&bytes);
        assert!(strict.is_ok());
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].data, vec![7]);
    }

    #[test]
    fn rejects_classic_pcap_and_garbage() {
        let mut classic = crate::pcap::MAGIC_USEC.to_le_bytes().to_vec();
        classic.extend_from_slice(&[0u8; 20]);
        assert!(walk(&classic).1.is_err());
        assert!(!is_pcapng(&classic));
        let (got, strict, report) = walk(b"garbage");
        assert!(got.is_empty());
        assert!(strict.is_err());
        assert_eq!(report.bytes_skipped, 7);
    }

    #[test]
    fn truncated_final_block_is_tolerated_by_strict_and_counted_by_lenient() {
        let bytes = write_packets(&[
            Packet::new(1.0, vec![1, 2, 3, 4, 5]),
            Packet::new(2.0, vec![6, 7, 8]),
        ]);
        // Chop into the final EPB: the first packet must survive.
        let (got, strict, report) = walk(&bytes[..bytes.len() - 6]);
        assert!(strict.is_ok());
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].data, vec![1, 2, 3, 4, 5]);
        assert_eq!(report.packets_read, 1);
        assert_eq!(report.records_dropped, 1);
        assert!(report.capture_truncated);
    }

    #[test]
    fn corrupt_block_fails_strict_and_is_resynced_past_by_lenient() {
        let packets = vec![
            Packet::new(1.0, vec![0xaa; 16]),
            Packet::new(2.0, vec![0xbb; 16]),
            Packet::new(3.0, vec![0xcc; 16]),
        ];
        let mut bytes = write_packets(&packets);
        // Corrupt the second EPB's length trailer.
        let epb_len = 32 + 16;
        let second_epb_start = 28 + 20 + epb_len;
        let trailer_at = second_epb_start + epb_len - 4;
        bytes[trailer_at] ^= 0xff;
        let (got, strict, report) = walk(&bytes);
        assert!(strict.is_err(), "strict must fail at the mismatch");
        // First and third packets recovered; the corrupt middle dropped.
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].data, vec![0xaa; 16]);
        assert_eq!(got[1].data, vec![0xcc; 16]);
        assert_eq!(report.records_dropped, 1);
        assert!(report.bytes_skipped > 0);
    }
}
