//! HAProxy PROXY-protocol header parsing (versions 1 and 2).
//!
//! An inline proxy deployed behind a load balancer sees the balancer's
//! address as the TCP peer; the PROXY protocol prepends one header to
//! each connection carrying the *original* client address. DynaMiner
//! shards all detector state by client address, so recovering it is not
//! cosmetic — without the real address every conversation would collapse
//! onto the balancer's IP and onto one shard.
//!
//! [`parse_proxy_header`] is incremental (`Ok(None)` = feed more bytes)
//! and **fail-closed**: anything that is not a well-formed header of a
//! supported version is an error with a machine-usable
//! [`reason`](ProxyProtoError::reason), and the caller is expected to
//! drop the connection. Accepting a malformed header would let a client
//! forge its identity, which for a detector keyed by client address is
//! an evasion primitive.

use std::net::Ipv4Addr;

/// The 12-byte constant signature every v2 header starts with.
pub const V2_SIGNATURE: [u8; 12] =
    [0x0d, 0x0a, 0x0d, 0x0a, 0x00, 0x0d, 0x0a, 0x51, 0x55, 0x49, 0x54, 0x0a];

/// Longest permitted v1 header line including CRLF (per the spec: 107
/// bytes covers the largest TCP6 form).
pub const V1_MAX_LEN: usize = 107;

/// Cap on the v2 payload length field. The spec allows up to 65535
/// bytes of TLVs; no balancer emits more than a few hundred, so a
/// larger claim is treated as hostile rather than buffered.
pub const V2_MAX_LEN: usize = 2048;

/// A successfully parsed PROXY-protocol header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProxyHeader {
    /// v2 `LOCAL` (health check) or v1 `UNKNOWN`: the sender declines
    /// to relay an address — use the socket peer address.
    Local,
    /// An IPv4 TCP connection with relayed endpoints.
    Tcp4 {
        /// Original client address and port.
        src: (Ipv4Addr, u16),
        /// Original destination address and port.
        dst: (Ipv4Addr, u16),
    },
    /// An IPv6 TCP connection. Parsed and reported faithfully; the
    /// IPv4-only engine falls back to the socket peer address unless
    /// the address is IPv4-mapped.
    Tcp6 {
        /// Original client address and port.
        src: ([u8; 16], u16),
        /// Original destination address and port.
        dst: ([u8; 16], u16),
    },
}

impl ProxyHeader {
    /// The relayed client endpoint as IPv4, when representable:
    /// `Tcp4` directly, `Tcp6` only for IPv4-mapped (`::ffff:a.b.c.d`)
    /// addresses.
    pub fn client_v4(&self) -> Option<(Ipv4Addr, u16)> {
        match self {
            ProxyHeader::Local => None,
            ProxyHeader::Tcp4 { src, .. } => Some(*src),
            ProxyHeader::Tcp6 { src: (addr, port), .. } => {
                let mapped = addr[..10] == [0; 10] && addr[10] == 0xff && addr[11] == 0xff;
                mapped
                    .then(|| (Ipv4Addr::new(addr[12], addr[13], addr[14], addr[15]), *port))
            }
        }
    }
}

/// Why a PROXY-protocol header was rejected. Every variant maps to one
/// telemetry counter so rejection reasons are observable in production.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProxyProtoError {
    /// The first bytes match neither the v1 text form nor the v2
    /// binary signature.
    BadSignature,
    /// Structurally invalid: bad field counts, unparsable addresses or
    /// ports, a v2 length too short for its address family, or an
    /// unknown v2 command.
    Malformed,
    /// The header claims or occupies more bytes than the caps allow
    /// ([`V1_MAX_LEN`] / [`V2_MAX_LEN`]).
    Oversized,
    /// A v2 header with a version nibble other than 2.
    UnsupportedVersion,
    /// A transport/family this engine does not accept (v1 protocols
    /// beyond TCP4/TCP6/UNKNOWN, v2 families beyond UNSPEC/TCP4/TCP6).
    UnsupportedFamily,
}

impl ProxyProtoError {
    /// Short stable slug for telemetry counter names.
    pub fn reason(&self) -> &'static str {
        match self {
            ProxyProtoError::BadSignature => "bad_signature",
            ProxyProtoError::Malformed => "malformed",
            ProxyProtoError::Oversized => "oversized",
            ProxyProtoError::UnsupportedVersion => "unsupported_version",
            ProxyProtoError::UnsupportedFamily => "unsupported_family",
        }
    }

    /// Every variant's [`reason`](Self::reason), for registering one
    /// counter per reason.
    pub fn reasons() -> [&'static str; 5] {
        use ProxyProtoError::*;
        let all = [BadSignature, Malformed, Oversized, UnsupportedVersion, UnsupportedFamily];
        all.map(|e| e.reason())
    }
}

impl std::fmt::Display for ProxyProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            ProxyProtoError::BadSignature => "not a PROXY protocol header",
            ProxyProtoError::Malformed => "malformed PROXY protocol header",
            ProxyProtoError::Oversized => "PROXY protocol header exceeds size cap",
            ProxyProtoError::UnsupportedVersion => "unsupported PROXY protocol version",
            ProxyProtoError::UnsupportedFamily => "unsupported PROXY protocol address family",
        };
        f.write_str(msg)
    }
}

/// Attempts to parse a PROXY-protocol header (v1 or v2, auto-detected)
/// from the front of `buf`.
///
/// Returns `Ok(None)` when the bytes so far are a valid prefix but the
/// header is incomplete, or `Ok(Some((header, consumed)))` on success —
/// application bytes begin at `buf[consumed..]`.
///
/// # Errors
///
/// Returns a [`ProxyProtoError`] naming the rejection reason; the
/// connection should be dropped (fail-closed).
pub fn parse_proxy_header(
    buf: &[u8],
) -> std::result::Result<Option<(ProxyHeader, usize)>, ProxyProtoError> {
    // Version sniff on the longest available prefix: the v1 and v2
    // magics diverge at the first byte, so matching the shorter prefix
    // against both is unambiguous.
    let sig_len = buf.len().min(V2_SIGNATURE.len());
    if buf[..sig_len] == V2_SIGNATURE[..sig_len] {
        if buf.len() < V2_SIGNATURE.len() {
            return Ok(None);
        }
        return parse_v2(buf);
    }
    const V1_MAGIC: &[u8] = b"PROXY ";
    let m = buf.len().min(V1_MAGIC.len());
    if buf[..m] == V1_MAGIC[..m] {
        if buf.len() < V1_MAGIC.len() {
            return Ok(None);
        }
        return parse_v1(buf);
    }
    Err(ProxyProtoError::BadSignature)
}

fn parse_v1(buf: &[u8]) -> std::result::Result<Option<(ProxyHeader, usize)>, ProxyProtoError> {
    let window = &buf[..buf.len().min(V1_MAX_LEN)];
    let Some(nl) = window.iter().position(|&b| b == b'\n') else {
        if buf.len() >= V1_MAX_LEN {
            return Err(ProxyProtoError::Oversized);
        }
        return Ok(None);
    };
    if nl == 0 || window[nl - 1] != b'\r' {
        return Err(ProxyProtoError::Malformed);
    }
    let line = std::str::from_utf8(&window[..nl - 1]).map_err(|_| ProxyProtoError::Malformed)?;
    let consumed = nl + 1;
    let mut fields = line.split(' ');
    if fields.next() != Some("PROXY") {
        return Err(ProxyProtoError::BadSignature);
    }
    let proto = fields.next().ok_or(ProxyProtoError::Malformed)?;
    match proto {
        // "PROXY UNKNOWN" may carry trailing junk per the spec; the
        // sender is declaring it has nothing to relay.
        "UNKNOWN" => Ok(Some((ProxyHeader::Local, consumed))),
        "TCP4" | "TCP6" => {
            let src_addr = fields.next().ok_or(ProxyProtoError::Malformed)?;
            let dst_addr = fields.next().ok_or(ProxyProtoError::Malformed)?;
            let src_port = parse_port(fields.next().ok_or(ProxyProtoError::Malformed)?)?;
            let dst_port = parse_port(fields.next().ok_or(ProxyProtoError::Malformed)?)?;
            if fields.next().is_some() {
                return Err(ProxyProtoError::Malformed);
            }
            let header = if proto == "TCP4" {
                ProxyHeader::Tcp4 {
                    src: (parse_v4(src_addr)?, src_port),
                    dst: (parse_v4(dst_addr)?, dst_port),
                }
            } else {
                ProxyHeader::Tcp6 {
                    src: (parse_v6(src_addr)?, src_port),
                    dst: (parse_v6(dst_addr)?, dst_port),
                }
            };
            Ok(Some((header, consumed)))
        }
        _ => Err(ProxyProtoError::UnsupportedFamily),
    }
}

fn parse_port(s: &str) -> std::result::Result<u16, ProxyProtoError> {
    // Leading zeros and signs are forbidden by the spec ("0" itself is
    // a valid ephemeral-source port).
    if s.len() > 1 && s.starts_with('0') {
        return Err(ProxyProtoError::Malformed);
    }
    if !s.bytes().all(|b| b.is_ascii_digit()) {
        return Err(ProxyProtoError::Malformed);
    }
    s.parse().map_err(|_| ProxyProtoError::Malformed)
}

fn parse_v4(s: &str) -> std::result::Result<Ipv4Addr, ProxyProtoError> {
    s.parse().map_err(|_| ProxyProtoError::Malformed)
}

fn parse_v6(s: &str) -> std::result::Result<[u8; 16], ProxyProtoError> {
    s.parse::<std::net::Ipv6Addr>().map(|a| a.octets()).map_err(|_| ProxyProtoError::Malformed)
}

fn parse_v2(buf: &[u8]) -> std::result::Result<Option<(ProxyHeader, usize)>, ProxyProtoError> {
    if buf.len() < 16 {
        return Ok(None);
    }
    let ver_cmd = buf[12];
    if ver_cmd >> 4 != 2 {
        return Err(ProxyProtoError::UnsupportedVersion);
    }
    let cmd = ver_cmd & 0x0f;
    let fam = buf[13];
    let len = u16::from_be_bytes([buf[14], buf[15]]) as usize;
    if len > V2_MAX_LEN {
        return Err(ProxyProtoError::Oversized);
    }
    let total = 16 + len;
    if buf.len() < total {
        return Ok(None);
    }
    let body = &buf[16..total];
    match cmd {
        // LOCAL: address block (if any) must be ignored.
        0 => Ok(Some((ProxyHeader::Local, total))),
        1 => match fam {
            // UNSPEC: a proxy that cannot classify the transport.
            0x00 => Ok(Some((ProxyHeader::Local, total))),
            // AF_INET / STREAM.
            0x11 => {
                if body.len() < 12 {
                    return Err(ProxyProtoError::Malformed);
                }
                let src = Ipv4Addr::new(body[0], body[1], body[2], body[3]);
                let dst = Ipv4Addr::new(body[4], body[5], body[6], body[7]);
                let src_port = u16::from_be_bytes([body[8], body[9]]);
                let dst_port = u16::from_be_bytes([body[10], body[11]]);
                Ok(Some((
                    ProxyHeader::Tcp4 { src: (src, src_port), dst: (dst, dst_port) },
                    total,
                )))
            }
            // AF_INET6 / STREAM.
            0x21 => {
                if body.len() < 36 {
                    return Err(ProxyProtoError::Malformed);
                }
                let mut src = [0u8; 16];
                let mut dst = [0u8; 16];
                src.copy_from_slice(&body[..16]);
                dst.copy_from_slice(&body[16..32]);
                let src_port = u16::from_be_bytes([body[32], body[33]]);
                let dst_port = u16::from_be_bytes([body[34], body[35]]);
                Ok(Some((
                    ProxyHeader::Tcp6 { src: (src, src_port), dst: (dst, dst_port) },
                    total,
                )))
            }
            _ => Err(ProxyProtoError::UnsupportedFamily),
        },
        _ => Err(ProxyProtoError::Malformed),
    }
}

/// Renders a v1 `PROXY TCP4` header line for `src`/`dst` — what a load
/// balancer (or the loopback replay driver) prepends to a connection.
pub fn encode_v1_tcp4(src: (Ipv4Addr, u16), dst: (Ipv4Addr, u16)) -> Vec<u8> {
    format!("PROXY TCP4 {} {} {} {}\r\n", src.0, dst.0, src.1, dst.1).into_bytes()
}

/// Renders a v2 `PROXY` header for an IPv4 TCP connection.
#[cfg(test)]
fn encode_v2_tcp4(src: (Ipv4Addr, u16), dst: (Ipv4Addr, u16)) -> Vec<u8> {
    let mut out = V2_SIGNATURE.to_vec();
    out.push(0x21); // version 2, command PROXY
    out.push(0x11); // AF_INET, STREAM
    out.extend_from_slice(&12u16.to_be_bytes());
    out.extend_from_slice(&src.0.octets());
    out.extend_from_slice(&dst.0.octets());
    out.extend_from_slice(&src.1.to_be_bytes());
    out.extend_from_slice(&dst.1.to_be_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn parse_all(buf: &[u8]) -> std::result::Result<Option<(ProxyHeader, usize)>, ProxyProtoError> {
        // Every prefix of a valid header must be `Ok(None)`, never an
        // error: incremental callers feed bytes as they arrive.
        if parse_proxy_header(buf).is_ok() {
            for cut in 0..buf.len() {
                match parse_proxy_header(&buf[..cut]) {
                    Ok(Some((_, consumed))) => assert!(consumed <= cut),
                    Ok(None) => {}
                    Err(e) => panic!("prefix of len {cut} rejected: {e:?}"),
                }
            }
        }
        parse_proxy_header(buf)
    }

    #[test]
    fn v1_tcp4_golden() {
        let hdr = b"PROXY TCP4 192.168.0.1 10.0.0.9 56324 443\r\nGET /";
        let (h, consumed) = parse_all(hdr).unwrap().unwrap();
        assert_eq!(consumed, hdr.len() - 5);
        assert_eq!(
            h,
            ProxyHeader::Tcp4 {
                src: (Ipv4Addr::new(192, 168, 0, 1), 56324),
                dst: (Ipv4Addr::new(10, 0, 0, 9), 443),
            }
        );
        assert_eq!(h.client_v4(), Some((Ipv4Addr::new(192, 168, 0, 1), 56324)));
    }

    #[test]
    fn v1_tcp6_golden() {
        let hdr = b"PROXY TCP6 2001:db8::1 ::ffff:10.0.0.2 4242 80\r\n";
        let (h, consumed) = parse_all(hdr).unwrap().unwrap();
        assert_eq!(consumed, hdr.len());
        match &h {
            ProxyHeader::Tcp6 { src, dst } => {
                assert_eq!(src.1, 4242);
                assert_eq!(dst.1, 80);
                assert_eq!(src.0[..4], [0x20, 0x01, 0x0d, 0xb8]);
            }
            other => panic!("wrong header {other:?}"),
        }
        // Plain (non-mapped) IPv6 source has no IPv4 form.
        assert_eq!(h.client_v4(), None);
    }

    #[test]
    fn v1_tcp6_mapped_source_recovers_v4() {
        let hdr = b"PROXY TCP6 ::ffff:172.16.0.5 2001:db8::2 9999 80\r\n";
        let (h, _) = parse_all(hdr).unwrap().unwrap();
        assert_eq!(h.client_v4(), Some((Ipv4Addr::new(172, 16, 0, 5), 9999)));
    }

    #[test]
    fn v1_unknown_is_local() {
        let hdr = b"PROXY UNKNOWN whatever trailing junk\r\n";
        let (h, consumed) = parse_all(hdr).unwrap().unwrap();
        assert_eq!(h, ProxyHeader::Local);
        assert_eq!(consumed, hdr.len());
        assert_eq!(h.client_v4(), None);
    }

    #[test]
    fn v2_proxy_golden() {
        let src = (Ipv4Addr::new(198, 51, 100, 7), 40001);
        let dst = (Ipv4Addr::new(203, 0, 113, 1), 8080);
        let mut wire = encode_v2_tcp4(src, dst);
        wire.extend_from_slice(b"POST /");
        let (h, consumed) = parse_all(&wire).unwrap().unwrap();
        assert_eq!(consumed, 28);
        assert_eq!(h, ProxyHeader::Tcp4 { src, dst });
    }

    #[test]
    fn v2_local_golden() {
        let mut wire = V2_SIGNATURE.to_vec();
        wire.push(0x20); // version 2, command LOCAL
        wire.push(0x00); // UNSPEC
        wire.extend_from_slice(&0u16.to_be_bytes());
        let (h, consumed) = parse_all(&wire).unwrap().unwrap();
        assert_eq!(h, ProxyHeader::Local);
        assert_eq!(consumed, 16);
    }

    #[test]
    fn v2_tcp6_round_trips() {
        let mut wire = V2_SIGNATURE.to_vec();
        wire.push(0x21);
        wire.push(0x21); // AF_INET6, STREAM
        wire.extend_from_slice(&36u16.to_be_bytes());
        let src: std::net::Ipv6Addr = "::ffff:10.1.2.3".parse().unwrap();
        let dst: std::net::Ipv6Addr = "2001:db8::9".parse().unwrap();
        wire.extend_from_slice(&src.octets());
        wire.extend_from_slice(&dst.octets());
        wire.extend_from_slice(&700u16.to_be_bytes());
        wire.extend_from_slice(&80u16.to_be_bytes());
        let (h, consumed) = parse_all(&wire).unwrap().unwrap();
        assert_eq!(consumed, 52);
        assert_eq!(h.client_v4(), Some((Ipv4Addr::new(10, 1, 2, 3), 700)));
    }

    #[test]
    fn truncated_headers_ask_for_more() {
        assert_eq!(parse_proxy_header(b""), Ok(None));
        assert_eq!(parse_proxy_header(b"PRO"), Ok(None));
        assert_eq!(parse_proxy_header(b"PROXY TCP4 1.2.3.4"), Ok(None));
        assert_eq!(parse_proxy_header(&V2_SIGNATURE[..7]), Ok(None));
        let mut v2 = V2_SIGNATURE.to_vec();
        v2.extend_from_slice(&[0x21, 0x11, 0x00, 0x0c, 1, 2, 3]); // 3 of 12 body bytes
        assert_eq!(parse_proxy_header(&v2), Ok(None));
    }

    #[test]
    fn oversized_headers_fail_closed() {
        // v1: no CRLF within the 107-byte cap.
        let mut line = b"PROXY TCP4 1.2.3.4 5.6.7.8 80 80".to_vec();
        line.extend(std::iter::repeat_n(b' ', 120));
        assert_eq!(parse_proxy_header(&line), Err(ProxyProtoError::Oversized));
        // v2: length field beyond the cap.
        let mut v2 = V2_SIGNATURE.to_vec();
        v2.extend_from_slice(&[0x21, 0x11]);
        v2.extend_from_slice(&(V2_MAX_LEN as u16 + 1).to_be_bytes());
        assert_eq!(parse_proxy_header(&v2), Err(ProxyProtoError::Oversized));
    }

    #[test]
    fn garbage_is_bad_signature() {
        assert_eq!(parse_proxy_header(b"GET / HTTP/1.1\r\n"), Err(ProxyProtoError::BadSignature));
        assert_eq!(parse_proxy_header(b"\x16\x03\x01\x02\x00"), Err(ProxyProtoError::BadSignature));
        assert_eq!(
            parse_proxy_header(b"PROXY-ish nonsense\r\n"),
            Err(ProxyProtoError::BadSignature)
        );
    }

    #[test]
    fn malformed_v1_variants() {
        for bad in [
            "PROXY TCP4 1.2.3.4 5.6.7.8 80\r\n",              // missing field
            "PROXY TCP4 1.2.3.4 5.6.7.8 80 80 extra\r\n",     // trailing field
            "PROXY TCP4 1.2.3.999 5.6.7.8 80 80\r\n",         // bad address
            "PROXY TCP4 1.2.3.4 5.6.7.8 70000 80\r\n",        // port overflow
            "PROXY TCP4 1.2.3.4 5.6.7.8 080 80\r\n",          // leading zero
            "PROXY TCP4 1.2.3.4 5.6.7.8 -1 80\r\n",           // signed port
            "PROXY TCP6 1.2.3.4 ::1 80 80\r\n",               // v4 addr in TCP6
        ] {
            assert_eq!(
                parse_proxy_header(bad.as_bytes()),
                Err(ProxyProtoError::Malformed),
                "{bad:?}"
            );
        }
        // Bare LF without CR.
        assert_eq!(
            parse_proxy_header(b"PROXY UNKNOWN\n"),
            Err(ProxyProtoError::Malformed)
        );
    }

    #[test]
    fn unsupported_version_and_family() {
        assert_eq!(
            parse_proxy_header(b"PROXY UDP4 1.2.3.4 5.6.7.8 80 80\r\n"),
            Err(ProxyProtoError::UnsupportedFamily)
        );
        let mut v3 = V2_SIGNATURE.to_vec();
        v3.extend_from_slice(&[0x31, 0x11, 0x00, 0x00]);
        assert_eq!(parse_proxy_header(&v3), Err(ProxyProtoError::UnsupportedVersion));
        let mut unix = V2_SIGNATURE.to_vec();
        unix.extend_from_slice(&[0x21, 0x31, 0x00, 0x00]); // AF_UNIX
        assert_eq!(parse_proxy_header(&unix), Err(ProxyProtoError::UnsupportedFamily));
        // v2 with an unknown command nibble.
        let mut cmd = V2_SIGNATURE.to_vec();
        cmd.extend_from_slice(&[0x2f, 0x11, 0x00, 0x00]);
        assert_eq!(parse_proxy_header(&cmd), Err(ProxyProtoError::Malformed));
        // v2 TCP4 whose length can't hold the address block.
        let mut short = V2_SIGNATURE.to_vec();
        short.extend_from_slice(&[0x21, 0x11, 0x00, 0x04, 1, 2, 3, 4]);
        assert_eq!(parse_proxy_header(&short), Err(ProxyProtoError::Malformed));
    }

    #[test]
    fn reason_slugs_are_stable() {
        assert_eq!(ProxyProtoError::BadSignature.reason(), "bad_signature");
        // Every variant's slug is listed exactly once.
        use ProxyProtoError::*;
        let variants = [BadSignature, Malformed, Oversized, UnsupportedVersion, UnsupportedFamily];
        for v in &variants {
            // Exhaustive: a new variant does not compile here until it
            // is added to `variants` (and to `ProxyProtoError::reasons`).
            match v {
                BadSignature | Malformed | Oversized | UnsupportedVersion | UnsupportedFamily => {}
            }
            assert!(!v.reason().is_empty());
            let listed = ProxyProtoError::reasons().iter().filter(|r| **r == v.reason()).count();
            assert_eq!(listed, 1, "{v:?}");
        }
        assert_eq!(ProxyProtoError::reasons().len(), variants.len());
    }

    /// One valid header of every form the parser accepts: v1 `TCP4`,
    /// `TCP6` and `UNKNOWN`, v2 `LOCAL`, `TCP4` and `TCP6`.
    fn valid_headers() -> Vec<Vec<u8>> {
        let v2 = |ver_cmd: u8, fam: u8, body: &[u8]| {
            let mut wire = V2_SIGNATURE.to_vec();
            wire.extend_from_slice(&[ver_cmd, fam]);
            wire.extend_from_slice(&(body.len() as u16).to_be_bytes());
            wire.extend_from_slice(body);
            wire
        };
        let mut tcp6 = Vec::new();
        tcp6.extend_from_slice(&"2001:db8::1".parse::<std::net::Ipv6Addr>().unwrap().octets());
        tcp6.extend_from_slice(&"::ffff:10.0.0.2".parse::<std::net::Ipv6Addr>().unwrap().octets());
        tcp6.extend_from_slice(&[0x10, 0x92, 0x00, 0x50]);
        vec![
            b"PROXY TCP4 192.168.0.1 10.0.0.9 56324 443\r\n".to_vec(),
            b"PROXY TCP6 2001:db8::1 ::ffff:10.0.0.2 4242 80\r\n".to_vec(),
            b"PROXY UNKNOWN\r\n".to_vec(),
            v2(0x20, 0x00, &[]),
            encode_v2_tcp4(
                (Ipv4Addr::new(198, 51, 100, 7), 40001),
                (Ipv4Addr::new(203, 0, 113, 1), 8080),
            ),
            v2(0x21, 0x21, &tcp6),
        ]
    }

    #[test]
    fn proxy_header_totality() {
        let headers = valid_headers();
        for wire in &headers {
            for cut in 0..wire.len() {
                assert_eq!(parse_proxy_header(&wire[..cut]), Ok(None), "{wire:?} cut at {cut}");
            }
            let (_, consumed) = parse_proxy_header(wire).unwrap().unwrap();
            assert_eq!(consumed, wire.len(), "{wire:?}");
        }
        // Single-bit flips anywhere in any header: an error, a shorter
        // header, or a request for more bytes, and never a panic or a
        // claim past the end of the input.
        let mut rng = StdRng::seed_from_u64(0x9e0c);
        for _ in 0..2_000 {
            let mut wire = headers[rng.gen_range(0..headers.len())].clone();
            let bit = rng.gen_range(0..wire.len() * 8);
            wire[bit / 8] ^= 1 << (bit % 8);
            if let Ok(Some((_, consumed))) = parse_proxy_header(&wire) {
                assert!(consumed <= wire.len(), "{wire:?} consumed {consumed}");
            }
        }
    }

    #[test]
    fn v1_round_trip_through_encoder() {
        let src = (Ipv4Addr::new(10, 0, 0, 77), 49161);
        let dst = (Ipv4Addr::new(192, 0, 2, 4), 80);
        let wire = encode_v1_tcp4(src, dst);
        let (h, consumed) = parse_proxy_header(&wire).unwrap().unwrap();
        assert_eq!(consumed, wire.len());
        assert_eq!(h, ProxyHeader::Tcp4 { src, dst });
    }
}
