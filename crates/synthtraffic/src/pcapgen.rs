//! Serializing episodes to real pcap bytes.
//!
//! Each transaction becomes its own TCP connection (SYN handshake, request
//! segment, response segments, FIN) so the `nettrace` reassembly and
//! HTTP-pairing pipeline is exercised exactly as it would be on a real
//! capture.
//!
//! Payload bodies larger than the generator materializes (4 KiB) are
//! only *declared* in the transaction's `payload_size`; on the wire the
//! materialized bytes are written with a matching `Content-Length`, so a
//! reparsed transaction reports the materialized size. Offline analytics
//! consume the transaction stream directly and keep the declared sizes.

use nettrace::ether::{self, MacAddr, ETHERTYPE_IPV4};
use nettrace::ipv4::{self, PROTO_TCP};
use nettrace::pcap::Packet;
use nettrace::reassembly::Endpoint;
use nettrace::tcp::{self, TcpFlags};
use nettrace::transaction::HttpTransaction;

use crate::episode::Episode;

/// Maximum TCP payload bytes per synthesized segment.
const MSS: usize = 1400;

/// Renders the request bytes of a transaction.
pub fn request_bytes(tx: &HttpTransaction) -> Vec<u8> {
    let mut out = format!("{} {} HTTP/1.1\r\n", tx.method, tx.uri).into_bytes();
    for (name, value) in tx.req_headers.iter() {
        out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    out.extend_from_slice(b"\r\n");
    out
}

/// Renders the response bytes of a transaction, with `Content-Length`
/// rewritten to the on-wire body length. Transactions marked with a
/// `Content-Encoding` carry their body *decoded* (that is the
/// [`HttpTransaction`] contract), so the wire form re-applies each
/// coding token in listed order — gzip (and its `x-gzip` alias) as a
/// gzip container, deflate as zlib — and the extractor decodes it back
/// to identical bytes.
pub(crate) fn response_bytes(tx: &HttpTransaction) -> Vec<u8> {
    let mut wire_body = tx.body_preview.clone();
    if let Some(encodings) = tx.resp_headers.get("Content-Encoding") {
        for token in encodings.split(',') {
            let token = token.trim();
            if token.eq_ignore_ascii_case("gzip") || token.eq_ignore_ascii_case("x-gzip") {
                wire_body = nettrace::flate::gzip_compress(&wire_body);
            } else if token.eq_ignore_ascii_case("deflate") {
                wire_body = nettrace::flate::zlib_compress(&wire_body);
            }
        }
    }
    let mut out = format!("HTTP/1.1 {} X\r\n", tx.status).into_bytes();
    for (name, value) in tx.resp_headers.iter() {
        if name.eq_ignore_ascii_case("content-length") {
            continue;
        }
        out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    out.extend_from_slice(format!("Content-Length: {}\r\n", wire_body.len()).as_bytes());
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(&wire_body);
    out
}

struct PacketSink {
    packets: Vec<Packet>,
    ident: u16,
}

impl PacketSink {
    fn push(
        &mut self,
        ts: f64,
        src: Endpoint,
        dst: Endpoint,
        seq: u32,
        flags: TcpFlags,
        payload: &[u8],
    ) {
        let seg = tcp::build(src.port, dst.port, seq, 0, flags, payload);
        let ip = ipv4::build(src.addr, dst.addr, PROTO_TCP, self.ident, &seg);
        self.ident = self.ident.wrapping_add(1);
        let eth = ether::build(MacAddr([2; 6]), MacAddr([1; 6]), ETHERTYPE_IPV4, &ip);
        self.packets.push(Packet::new(ts, eth));
    }

    /// One transaction's connection: handshake, request segments,
    /// response segments, teardown.
    fn connection(&mut self, tx: &HttpTransaction) {
        let (client, server) = (tx.client, tx.server);
        let req = request_bytes(tx);
        let resp = if tx.status != 0 { response_bytes(tx) } else { Vec::new() };
        let mut t = tx.ts;
        // Handshake.
        self.push(t - 0.002, client, server, 999, TcpFlags::syn(), &[]);
        self.push(t - 0.001, server, client, 4999, TcpFlags::syn(), &[]);
        // Request segments.
        let mut seq = 1000u32;
        for chunk in req.chunks(MSS) {
            self.push(t, client, server, seq, TcpFlags::data(), chunk);
            seq += chunk.len() as u32;
            t += 0.0005;
        }
        // Response segments, spread between request time and resp_ts.
        // The final segment is pinned at exactly `resp_ts`, so the
        // transaction's declared completion time survives the pcap
        // round-trip bit-for-bit no matter how many segments the wire
        // body occupies (content codings change the wire length but not
        // when the response, per the episode, finished).
        let mut rseq = 5000u32;
        let n_chunks = resp.len().div_ceil(MSS).max(1);
        let end_ts = tx.resp_ts.max(tx.ts + 0.001);
        let dt = (end_ts - tx.ts) / n_chunks as f64;
        let mut fin_ts = tx.ts + dt.min(0.05);
        for (i, chunk) in resp.chunks(MSS).enumerate() {
            let rt = if i + 1 == n_chunks { end_ts } else { tx.ts + dt * (i + 1) as f64 };
            self.push(rt, server, client, rseq, TcpFlags::data(), chunk);
            rseq += chunk.len() as u32;
            fin_ts = rt + dt.min(0.05);
        }
        // Teardown.
        self.push(fin_ts, client, server, seq, TcpFlags::fin(), &[]);
        self.push(fin_ts + 0.001, server, client, rseq, TcpFlags::fin(), &[]);
    }
}

/// Renders episodes into one classic pcap: every transaction's
/// connection, with packets of all episodes interleaved in timestamp
/// order (ties keep episode order, then emission order). IPv4
/// identifiers count from 1 in each episode.
pub fn episodes_pcap(episodes: &[Episode]) -> Vec<u8> {
    let mut sink = PacketSink { packets: Vec::new(), ident: 1 };
    for episode in episodes {
        sink.ident = 1;
        for tx in &episode.transactions {
            sink.connection(tx);
        }
    }
    sink.packets.sort_by(|a, b| a.ts.total_cmp(&b.ts));
    nettrace::pcap::write_packets(&sink.packets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benign::{generate_benign, BenignScenario};
    use crate::episode::generate_infection;
    use crate::families::EkFamily;
    use nettrace::SpanPipeline;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn roundtrip(ep: &Episode) -> Vec<HttpTransaction> {
        SpanPipeline::extract_capture_strict(&episodes_pcap(std::slice::from_ref(ep))).unwrap()
    }

    #[test]
    fn infection_episode_roundtrips_through_pcap() {
        let mut rng = StdRng::seed_from_u64(21);
        let ep = generate_infection(&mut rng, EkFamily::Rig, 1_400_000_000.0);
        let parsed = roundtrip(&ep);
        assert_eq!(parsed.len(), ep.transactions.len());
        for (orig, got) in ep.transactions.iter().zip(&parsed) {
            assert_eq!(orig.host, got.host);
            assert_eq!(orig.uri, got.uri);
            assert_eq!(orig.method, got.method);
            assert_eq!(orig.status, got.status);
            assert_eq!(orig.referer(), got.referer());
            assert_eq!(orig.location(), got.location());
            assert!((orig.ts - got.ts).abs() < 0.01, "{} vs {}", orig.ts, got.ts);
            // Fully materialized payloads keep their size and digest.
            if orig.payload_size == orig.body_preview.len() {
                assert_eq!(orig.payload_size, got.payload_size);
                assert_eq!(orig.payload_digest, got.payload_digest);
                assert_eq!(orig.payload_class, got.payload_class, "uri {}", orig.uri);
            }
        }
    }

    #[test]
    fn benign_episode_roundtrips_through_pcap() {
        let mut rng = StdRng::seed_from_u64(22);
        let ep = generate_benign(&mut rng, BenignScenario::Search, 1_430_000_000.0);
        let parsed = roundtrip(&ep);
        assert_eq!(parsed.len(), ep.transactions.len());
    }

    #[test]
    fn pcap_bytes_start_with_magic() {
        let mut rng = StdRng::seed_from_u64(23);
        let ep = generate_benign(&mut rng, BenignScenario::AlexaBrowse, 1_430_000_000.0);
        let bytes = episodes_pcap(&[ep]);
        assert_eq!(&bytes[..4], &nettrace::pcap::MAGIC_USEC.to_le_bytes());
    }

    #[test]
    fn request_bytes_are_parseable() {
        let mut rng = StdRng::seed_from_u64(24);
        let ep = generate_infection(&mut rng, EkFamily::Angler, 1_400_000_000.0);
        for tx in &ep.transactions {
            let bytes = request_bytes(tx);
            let (head, _) = nettrace::http::parse_request_head(&bytes).unwrap().unwrap();
            assert_eq!(head.uri, tx.uri);
        }
    }
}
