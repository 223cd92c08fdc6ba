//! End-to-end test: build raw packets for an HTTP conversation, serialize
//! them to pcap bytes, read the pcap back, and extract paired transactions.

use std::net::Ipv4Addr;

use nettrace::ether::{self, MacAddr, ETHERTYPE_IPV4};
use nettrace::http::Method;
use nettrace::ipv4::{self, PROTO_TCP};
use nettrace::payload::PayloadClass;
use nettrace::pcap::{self, Packet};
use nettrace::tcp::{self, TcpFlags};
use nettrace::{HttpTransaction, SpanPipeline};

/// Renders hand-built packets as a pcap file and extracts it strictly.
fn extract(packets: &[Packet]) -> nettrace::Result<Vec<HttpTransaction>> {
    SpanPipeline::extract_capture_strict(&pcap::write_packets(packets))
}

struct PacketFactory {
    ident: u16,
}

impl PacketFactory {
    fn new() -> Self {
        PacketFactory { ident: 1 }
    }

    #[allow(clippy::too_many_arguments)]
    fn tcp_packet(
        &mut self,
        ts: f64,
        src: (Ipv4Addr, u16),
        dst: (Ipv4Addr, u16),
        seq: u32,
        flags: TcpFlags,
        payload: &[u8],
    ) -> Packet {
        let seg = tcp::build(src.1, dst.1, seq, 0, flags, payload);
        let ip = ipv4::build(src.0, dst.0, PROTO_TCP, self.ident, &seg);
        self.ident = self.ident.wrapping_add(1);
        let eth = ether::build(MacAddr([2; 6]), MacAddr([1; 6]), ETHERTYPE_IPV4, &ip);
        Packet::new(ts, eth)
    }
}

#[test]
fn full_pipeline_pcap_roundtrip() {
    let client = (Ipv4Addr::new(10, 0, 0, 5), 49321u16);
    let server = (Ipv4Addr::new(93, 184, 216, 34), 80u16);
    let mut fac = PacketFactory::new();

    let request = b"GET /exploit/payload.exe HTTP/1.1\r\nHost: evil.example\r\nReferer: http://bing.com/search?q=stream\r\n\r\n";
    let body = b"MZ\x90\x00fakewindowsbinary";
    let response = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-msdownload\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );

    let mut packets = Vec::new();
    // Handshake (SYN both ways), request, response split across two
    // segments arriving out of order, FIN.
    packets.push(fac.tcp_packet(1.00, client, server, 1000, TcpFlags::syn(), b""));
    packets.push(fac.tcp_packet(1.01, server, client, 5000, TcpFlags::syn(), b""));
    packets.push(fac.tcp_packet(1.02, client, server, 1001, TcpFlags::data(), request));

    let mut resp_bytes = response.into_bytes();
    resp_bytes.extend_from_slice(body);
    let (first, second) = resp_bytes.split_at(40);
    // Deliver the second half first to exercise reordering.
    packets.push(fac.tcp_packet(1.20, server, client, 5001 + 40, TcpFlags::data(), second));
    packets.push(fac.tcp_packet(1.25, server, client, 5001, TcpFlags::data(), first));
    packets.push(fac.tcp_packet(1.30, client, server, 1001 + request.len() as u32, TcpFlags::fin(), b""));

    // Serialize to pcap and read back.
    let buf = pcap::write_packets(&packets);
    let replayed = nettrace::capture::read_packets(&buf).unwrap();
    assert_eq!(replayed.len(), packets.len());

    let txs = SpanPipeline::extract_capture_strict(&buf).unwrap();
    assert_eq!(txs.len(), 1);
    let t = &txs[0];
    assert_eq!(t.host, "evil.example");
    assert_eq!(t.method, Method::Get);
    assert_eq!(t.uri, "/exploit/payload.exe");
    assert_eq!(t.status, 200);
    assert_eq!(t.payload_class, PayloadClass::Exe);
    assert_eq!(t.payload_size, body.len());
    assert_eq!(t.referer(), Some("http://bing.com/search?q=stream"));
    assert_eq!(t.client.port, client.1);
    assert_eq!(t.server.addr, server.0);
    assert!((t.ts - 1.02).abs() < 1e-6);
}

#[test]
fn non_http_traffic_is_ignored() {
    let a = (Ipv4Addr::new(10, 0, 0, 5), 40000u16);
    let b = (Ipv4Addr::new(10, 0, 0, 6), 443u16);
    let mut fac = PacketFactory::new();
    let packets = vec![
        fac.tcp_packet(1.0, a, b, 1, TcpFlags::data(), b"\x16\x03\x01\x02\x00binary-tls"),
        fac.tcp_packet(1.1, b, a, 1, TcpFlags::data(), b"\x16\x03\x03junk"),
    ];
    let txs = extract(&packets).unwrap();
    assert!(txs.is_empty());
}

#[test]
fn multiple_connections_sorted_by_time() {
    let client = (Ipv4Addr::new(10, 0, 0, 5), 49321u16);
    let s1 = (Ipv4Addr::new(198, 51, 100, 1), 80u16);
    let s2 = (Ipv4Addr::new(198, 51, 100, 2), 80u16);
    let mut fac = PacketFactory::new();
    let req1 = b"GET /late HTTP/1.1\r\nHost: one\r\n\r\n";
    let req2 = b"GET /early HTTP/1.1\r\nHost: two\r\n\r\n";
    let packets = vec![
        fac.tcp_packet(5.0, client, s1, 1, TcpFlags::data(), req1),
        fac.tcp_packet(2.0, (client.0, 49322), s2, 1, TcpFlags::data(), req2),
    ];
    let txs = extract(&packets).unwrap();
    assert_eq!(txs.len(), 2);
    assert_eq!(txs[0].uri, "/early");
    assert_eq!(txs[1].uri, "/late");
}
