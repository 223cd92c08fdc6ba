//! IPv4 packet parsing and construction with header checksums.

use std::net::Ipv4Addr;

use crate::{Error, Result};

/// Minimum IPv4 header length (no options) in bytes.
pub const MIN_HEADER_LEN: usize = 20;
/// Protocol number for TCP.
pub const PROTO_TCP: u8 = 6;

/// A parsed IPv4 packet borrowing its payload from the input buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Packet<'a> {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Transport protocol number (e.g. [`PROTO_TCP`]).
    pub protocol: u8,
    /// Time-to-live.
    pub ttl: u8,
    /// Identification field.
    pub ident: u16,
    /// Transport payload, bounded by the header's total-length field.
    pub payload: &'a [u8],
}

impl<'a> Ipv4Packet<'a> {
    /// Parses an IPv4 packet.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Truncated`] when the buffer is shorter than the
    /// declared header or total length, and [`Error::InvalidField`] when the
    /// version is not 4 or the IHL is below 5.
    pub fn parse(data: &'a [u8]) -> Result<Self> {
        if data.len() < MIN_HEADER_LEN {
            return Err(Error::Truncated { layer: "ipv4", needed: MIN_HEADER_LEN, got: data.len() });
        }
        let version = data[0] >> 4;
        if version != 4 {
            return Err(Error::InvalidField { layer: "ipv4", field: "version" });
        }
        let ihl = (data[0] & 0x0f) as usize * 4;
        if ihl < MIN_HEADER_LEN {
            return Err(Error::InvalidField { layer: "ipv4", field: "ihl" });
        }
        if data.len() < ihl {
            return Err(Error::Truncated { layer: "ipv4", needed: ihl, got: data.len() });
        }
        let total_len = u16::from_be_bytes([data[2], data[3]]) as usize;
        if total_len < ihl || data.len() < total_len {
            return Err(Error::Truncated {
                layer: "ipv4",
                needed: total_len.max(ihl),
                got: data.len(),
            });
        }
        let ident = u16::from_be_bytes([data[4], data[5]]);
        let ttl = data[8];
        let protocol = data[9];
        let src = Ipv4Addr::new(data[12], data[13], data[14], data[15]);
        let dst = Ipv4Addr::new(data[16], data[17], data[18], data[19]);
        Ok(Ipv4Packet { src, dst, protocol, ttl, ident, payload: &data[ihl..total_len] })
    }
}

/// Builds an IPv4 packet (20-byte header, valid checksum) around `payload`.
///
/// # Panics
///
/// Panics if `payload` exceeds the IPv4 total-length field (65515 bytes).
pub fn build(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, ident: u16, payload: &[u8]) -> Vec<u8> {
    let total_len = MIN_HEADER_LEN + payload.len();
    assert!(total_len <= u16::MAX as usize, "ipv4 payload too large: {}", payload.len());
    let mut out = vec![0u8; total_len];
    out[0] = 0x45; // version 4, IHL 5
    out[2..4].copy_from_slice(&(total_len as u16).to_be_bytes());
    out[4..6].copy_from_slice(&ident.to_be_bytes());
    out[8] = 64; // ttl
    out[9] = protocol;
    out[12..16].copy_from_slice(&src.octets());
    out[16..20].copy_from_slice(&dst.octets());
    let csum = checksum(&out[..MIN_HEADER_LEN]);
    out[10..12].copy_from_slice(&csum.to_be_bytes());
    out[MIN_HEADER_LEN..].copy_from_slice(payload);
    out
}

/// Computes the Internet checksum (RFC 1071) over `data`.
pub(crate) fn checksum(data: &[u8]) -> u16 {
    let mut sum = 0u32;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u16::from_be_bytes([c[0], c[1]]) as u32;
    }
    if let [last] = chunks.remainder() {
        sum += (*last as u32) << 8;
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_parse_roundtrip() {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(192, 168, 1, 7);
        let pkt = build(src, dst, PROTO_TCP, 42, b"payload");
        let parsed = Ipv4Packet::parse(&pkt).unwrap();
        assert_eq!(parsed.src, src);
        assert_eq!(parsed.dst, dst);
        assert_eq!(parsed.protocol, PROTO_TCP);
        assert_eq!(parsed.ident, 42);
        assert_eq!(parsed.payload, b"payload");
    }

    #[test]
    fn built_header_checksum_verifies() {
        let pkt = build(Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(5, 6, 7, 8), 6, 0, b"x");
        // Re-checksumming a valid header (checksum field included) yields 0.
        assert_eq!(checksum(&pkt[..MIN_HEADER_LEN]), 0);
    }

    #[test]
    fn rejects_wrong_version() {
        let mut pkt = build(Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED, 6, 0, b"");
        pkt[0] = 0x65; // version 6
        assert!(matches!(
            Ipv4Packet::parse(&pkt),
            Err(Error::InvalidField { field: "version", .. })
        ));
    }

    #[test]
    fn rejects_short_ihl() {
        let mut pkt = build(Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED, 6, 0, b"");
        pkt[0] = 0x44; // IHL 4 words = 16 bytes < 20
        assert!(matches!(Ipv4Packet::parse(&pkt), Err(Error::InvalidField { field: "ihl", .. })));
    }

    #[test]
    fn payload_bounded_by_total_length() {
        // Append trailing Ethernet padding: the parser must not include it.
        let mut pkt = build(Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED, 6, 0, b"abc");
        pkt.extend_from_slice(&[0u8; 10]);
        let parsed = Ipv4Packet::parse(&pkt).unwrap();
        assert_eq!(parsed.payload, b"abc");
    }

    #[test]
    fn rejects_truncated_body() {
        let pkt = build(Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED, 6, 0, b"abcdef");
        assert!(Ipv4Packet::parse(&pkt[..pkt.len() - 2]).is_err());
    }

    #[test]
    fn checksum_odd_length() {
        // RFC 1071 example-style check: odd-length data is padded with zero.
        let even = checksum(&[0x01, 0x02, 0x03, 0x00]);
        let odd = checksum(&[0x01, 0x02, 0x03]);
        assert_eq!(even, odd);
    }
}
