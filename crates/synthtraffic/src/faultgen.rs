//! Seeded capture mutator for fault-injection testing.
//!
//! Takes a well-formed classic pcap (for example from
//! [`crate::pcapgen::episodes_pcap`]) and applies one class of damage to
//! it, producing the kind of hostile or degraded input a capture point
//! sees in practice: truncated files, bit rot, packet loss and
//! duplication, middleboxes rewriting TCP fields, malformed HTTP, broken
//! content encodings, and captures that start mid-connection.
//!
//! All mutations are driven by a caller-supplied seeded RNG, so every
//! corrupted capture is reproducible from `(pcap, fault, seed)`.

use rand::Rng;
use rand::RngCore;

use nettrace::ingest::IngestReport;
use nettrace::pcap::Packet;
use nettrace::scan::find;

/// One class of capture damage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Chop bytes off the end of the file (interrupted capture).
    TruncateTail,
    /// Flip random bytes anywhere after the file header (bit rot).
    FlipBytes,
    /// Drop a random subset of packets (capture loss).
    DropPackets,
    /// Duplicate a random subset of packets (switch mirroring artifacts).
    DuplicatePackets,
    /// Shuffle packets within small windows (multi-queue reordering).
    ReorderPackets,
    /// Overwrite TCP sequence numbers on some data segments.
    CorruptTcpSeq,
    /// Scramble TCP flag bytes on some segments.
    CorruptTcpFlags,
    /// Damage HTTP request lines in client payloads.
    MangleRequestLines,
    /// Break response body framing (chunk sizes / Content-Length).
    BreakChunkFraming,
    /// Corrupt gzip-compressed response bodies past their magic.
    CorruptGzipStreams,
    /// Drop the leading packets: the capture starts mid-stream.
    MidStreamStart,
}

impl Fault {
    /// Every fault class, for exhaustive harness sweeps.
    pub const ALL: [Fault; 11] = [
        Fault::TruncateTail,
        Fault::FlipBytes,
        Fault::DropPackets,
        Fault::DuplicatePackets,
        Fault::ReorderPackets,
        Fault::CorruptTcpSeq,
        Fault::CorruptTcpFlags,
        Fault::MangleRequestLines,
        Fault::BreakChunkFraming,
        Fault::CorruptGzipStreams,
        Fault::MidStreamStart,
    ];
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Applies one fault class to a capture, returning the damaged bytes.
///
/// The input should be a classic pcap; inputs that do not parse are
/// returned unchanged (there is nothing structured left to damage).
pub fn apply<R: RngCore>(pcap: &[u8], fault: Fault, rng: &mut R) -> Vec<u8> {
    match fault {
        Fault::TruncateTail => truncate_tail(pcap, rng),
        Fault::FlipBytes => flip_bytes(pcap, rng),
        Fault::DropPackets => on_packets(pcap, |pkts| drop_packets(pkts, rng)),
        Fault::DuplicatePackets => on_packets(pcap, |pkts| duplicate_packets(pkts, rng)),
        Fault::ReorderPackets => on_packets(pcap, |pkts| reorder_packets(pkts, rng)),
        Fault::CorruptTcpSeq => on_packets(pcap, |pkts| corrupt_tcp_seq(pkts, rng)),
        Fault::CorruptTcpFlags => on_packets(pcap, |pkts| corrupt_tcp_flags(pkts, rng)),
        Fault::MangleRequestLines => on_packets(pcap, |pkts| mangle_request_lines(pkts, rng)),
        Fault::BreakChunkFraming => on_packets(pcap, |pkts| break_framing(pkts, rng)),
        Fault::CorruptGzipStreams => on_packets(pcap, |pkts| corrupt_gzip(pkts, rng)),
        Fault::MidStreamStart => on_packets(pcap, |pkts| mid_stream_start(pkts, rng)),
    }
}

/// Applies every fault class in sequence with one RNG (compound damage).
pub fn apply_all<R: RngCore>(pcap: &[u8], rng: &mut R) -> Vec<u8> {
    let mut out = pcap.to_vec();
    for fault in Fault::ALL {
        out = apply(&out, fault, rng);
    }
    out
}

/// Decodes, transforms, and re-serializes the packet list. Unparseable
/// input is passed through untouched. The read is the lenient walk —
/// compound damage re-reads captures an earlier fault already hurt — and
/// the owned packets the transforms edit are materialised here.
fn on_packets(pcap: &[u8], transform: impl FnOnce(&mut Vec<Packet>)) -> Vec<u8> {
    let mut spans = Vec::new();
    nettrace::capture::read_packet_spans_lenient(pcap, &mut IngestReport::new(), &mut spans);
    let mut packets: Vec<Packet> =
        spans.iter().map(|s| Packet::new(s.ts, s.bytes(pcap).to_vec())).collect();
    if packets.is_empty() {
        return pcap.to_vec();
    }
    // No transform grows a packet, so every one still fits a record.
    transform(&mut packets);
    nettrace::pcap::write_packets(&packets)
}

fn truncate_tail<R: RngCore>(pcap: &[u8], rng: &mut R) -> Vec<u8> {
    if pcap.len() < 2 {
        return pcap.to_vec();
    }
    let max_cut = (pcap.len() / 4).max(1);
    let cut = rng.gen_range(1..=max_cut);
    pcap[..pcap.len() - cut].to_vec()
}

fn flip_bytes<R: RngCore>(pcap: &[u8], rng: &mut R) -> Vec<u8> {
    let mut out = pcap.to_vec();
    // Leave the 24-byte global header alone so the file stays
    // recognizable as a capture; bit rot inside the header is the
    // unrecognizable-input case, covered separately.
    if out.len() <= 24 {
        return out;
    }
    let flips = rng.gen_range(1..=16usize);
    for _ in 0..flips {
        let at = rng.gen_range(24..out.len());
        out[at] ^= 1 << rng.gen_range(0..8u8);
    }
    out
}

fn drop_packets<R: RngCore>(packets: &mut Vec<Packet>, rng: &mut R) {
    let keep_one = rng.gen_range(0..packets.len());
    let mut i = 0;
    packets.retain(|_| {
        let keep = i == keep_one || !rng.gen_bool(0.2);
        i += 1;
        keep
    });
}

fn duplicate_packets<R: RngCore>(packets: &mut Vec<Packet>, rng: &mut R) {
    let mut out = Vec::with_capacity(packets.len() + packets.len() / 4);
    for p in packets.drain(..) {
        let dup = rng.gen_bool(0.2);
        if dup {
            out.push(p.clone());
        }
        out.push(p);
    }
    *packets = out;
}

fn reorder_packets<R: RngCore>(packets: &mut [Packet], rng: &mut R) {
    use rand::seq::SliceRandom;
    for window in packets.chunks_mut(4) {
        window.shuffle(rng);
    }
}

/// Offset of the TCP header within an Ethernet/IPv4 frame, when the
/// frame is long enough to hold one.
fn tcp_header_offset(frame: &[u8]) -> Option<usize> {
    if frame.len() < 14 + 20 {
        return None;
    }
    let ihl = usize::from(frame[14] & 0x0f) * 4;
    let off = 14 + ihl;
    if ihl < 20 || frame.len() < off + 20 {
        return None;
    }
    Some(off)
}

fn corrupt_tcp_seq<R: RngCore>(packets: &mut [Packet], rng: &mut R) {
    for p in packets.iter_mut() {
        if !rng.gen_bool(0.2) {
            continue;
        }
        if let Some(off) = tcp_header_offset(&p.data) {
            let bogus: u32 = rng.gen();
            p.data[off + 4..off + 8].copy_from_slice(&bogus.to_be_bytes());
        }
    }
}

fn corrupt_tcp_flags<R: RngCore>(packets: &mut [Packet], rng: &mut R) {
    for p in packets.iter_mut() {
        if !rng.gen_bool(0.2) {
            continue;
        }
        if let Some(off) = tcp_header_offset(&p.data) {
            p.data[off + 13] ^= rng.gen_range(1..32u8);
        }
    }
}

fn mangle_request_lines<R: RngCore>(packets: &mut [Packet], rng: &mut R) {
    for p in packets.iter_mut() {
        let Some(off) = tcp_header_offset(&p.data) else { continue };
        let payload_at = off + 20;
        let is_request = [&b"GET "[..], b"POST ", b"HEAD "]
            .iter()
            .any(|m| p.data[payload_at..].starts_with(m));
        if !is_request || !rng.gen_bool(0.5) {
            continue;
        }
        // Erase the space before the URI: the request line no longer
        // splits into method + uri + version.
        if let Some(sp) = p.data[payload_at..].iter().position(|&b| b == b' ') {
            p.data[payload_at + sp] = b'_';
        }
    }
}

fn break_framing<R: RngCore>(packets: &mut [Packet], rng: &mut R) {
    for p in packets.iter_mut() {
        let Some(off) = tcp_header_offset(&p.data) else { continue };
        let payload_at = off + 20;
        if !p.data[payload_at..].starts_with(b"HTTP/") || !rng.gen_bool(0.5) {
            continue;
        }
        let payload = &mut p.data[payload_at..];
        // Chunked responses: corrupt the first chunk-size line after the
        // head. Otherwise make the declared Content-Length non-numeric,
        // which breaks body framing the same way.
        if let Some(head_end) = find(payload, b"\r\n\r\n") {
            if find(payload, b"chunked").is_some() && payload.len() > head_end + 4 {
                payload[head_end + 4] = b'Z';
                continue;
            }
        }
        if let Some(cl) = find(payload, b"Content-Length: ") {
            let digit = cl + b"Content-Length: ".len();
            if digit < payload.len() {
                payload[digit] = b'x';
            }
        }
    }
}

fn corrupt_gzip<R: RngCore>(packets: &mut [Packet], _rng: &mut R) {
    for p in packets.iter_mut() {
        let Some(off) = tcp_header_offset(&p.data) else { continue };
        let payload_at = off + 20;
        let Some(magic) = find(&p.data[payload_at..], &[0x1f, 0x8b, 0x08]) else { continue };
        let stream_at = payload_at + magic;
        // Flip a byte past the 10-byte member header, inside the
        // deflate stream, so decompression fails mid-body. Gzip bodies
        // are rare enough that every one found gets corrupted.
        if stream_at + 12 < p.data.len() {
            p.data[stream_at + 11] ^= 0xff;
        }
    }
}

fn mid_stream_start<R: RngCore>(packets: &mut Vec<Packet>, rng: &mut R) {
    if packets.len() < 2 {
        return;
    }
    let skip = rng.gen_range(1..=packets.len() / 2);
    packets.drain(..skip);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::episode::generate_infection;
    use crate::families::EkFamily;
    use crate::pcapgen::episodes_pcap;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_pcap(seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        let ep = generate_infection(&mut rng, EkFamily::Rig, 1.4e9);
        episodes_pcap(&[ep])
    }

    #[test]
    fn every_fault_changes_the_capture() {
        // Content-dependent faults (gzip, chunked) need an episode that
        // actually carries that content, so sample a few.
        let pcaps: Vec<Vec<u8>> = (1..=5).map(sample_pcap).collect();
        for fault in Fault::ALL {
            let changed = pcaps.iter().any(|pcap| {
                let mut rng = StdRng::seed_from_u64(7);
                apply(pcap, fault, &mut rng) != *pcap
            });
            assert!(changed, "{fault} was a no-op on {} sample captures", pcaps.len());
        }
    }

    #[test]
    fn mutations_are_deterministic_per_seed() {
        let pcap = sample_pcap(2);
        for fault in Fault::ALL {
            let a = apply(&pcap, fault, &mut StdRng::seed_from_u64(11));
            let b = apply(&pcap, fault, &mut StdRng::seed_from_u64(11));
            assert_eq!(a, b, "{fault} not reproducible");
        }
    }

    #[test]
    fn packet_level_faults_keep_a_readable_capture() {
        let pcap = sample_pcap(3);
        for fault in [
            Fault::DropPackets,
            Fault::DuplicatePackets,
            Fault::ReorderPackets,
            Fault::CorruptTcpSeq,
            Fault::CorruptTcpFlags,
            Fault::MangleRequestLines,
            Fault::BreakChunkFraming,
            Fault::CorruptGzipStreams,
            Fault::MidStreamStart,
        ] {
            let mut rng = StdRng::seed_from_u64(13);
            let hurt = apply(&pcap, fault, &mut rng);
            let packets = nettrace::capture::read_packets(&hurt)
                .unwrap_or_else(|e| panic!("{fault}: {e}"));
            assert!(!packets.is_empty(), "{fault} emptied the capture");
        }
    }

    #[test]
    fn compound_damage_still_produces_bytes() {
        let pcap = sample_pcap(4);
        let mut rng = StdRng::seed_from_u64(17);
        let hurt = apply_all(&pcap, &mut rng);
        assert!(!hurt.is_empty());
    }

    #[test]
    fn unparseable_input_passes_through() {
        let mut rng = StdRng::seed_from_u64(19);
        let junk = b"not a capture at all".to_vec();
        assert_eq!(apply(&junk, Fault::DropPackets, &mut rng), junk);
    }
}

