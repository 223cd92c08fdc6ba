//! Failure-injection tests: corrupted captures, malformed HTTP, and
//! adversarial framing must degrade gracefully (error or skip), never
//! panic or mis-pair.

use std::net::Ipv4Addr;

use nettrace::ether::{self, MacAddr, ETHERTYPE_IPV4};
use nettrace::ipv4::{self, PROTO_TCP};
use nettrace::pcap::{self, Packet};
use nettrace::tcp::{self, TcpFlags};
use nettrace::{Error, HttpTransaction, SpanPipeline};

/// Renders hand-built packets as a pcap file and extracts it strictly.
fn extract(packets: &[Packet]) -> nettrace::Result<Vec<HttpTransaction>> {
    SpanPipeline::extract_capture_strict(&pcap::write_packets(packets))
}

const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const SERVER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);

/// Client-to-server data segment (server port 80).
fn http_packet(ts: f64, src_port: u16, dst_port: u16, seq: u32, payload: &[u8]) -> Packet {
    let (src, dst) = if dst_port == 80 { (CLIENT, SERVER) } else { (SERVER, CLIENT) };
    let seg = tcp::build(src_port, dst_port, seq, 0, TcpFlags::data(), payload);
    let ip = ipv4::build(src, dst, PROTO_TCP, 1, &seg);
    Packet::new(ts, ether::build(MacAddr([1; 6]), MacAddr([2; 6]), ETHERTYPE_IPV4, &ip))
}

#[test]
fn truncated_pcap_header_is_an_error() {
    for len in 0..24 {
        let buf = vec![0xa1u8; len];
        assert!(nettrace::capture::read_packets(&buf).is_err(), "len {len}");
    }
}

#[test]
fn corrupted_record_length_detected() {
    let mut buf = pcap::write_packets(&[Packet::new(1.0, vec![1, 2, 3])]);
    // Corrupt the caplen field of the first record (offset 24 + 8).
    buf[32] = 0xff;
    buf[33] = 0xff;
    buf[34] = 0xff;
    buf[35] = 0x7f;
    assert!(matches!(nettrace::capture::read_packets(&buf), Err(Error::BadCaptureLength(_))));
}

#[test]
fn garbage_packets_are_skipped_not_fatal() {
    let packets = vec![
        Packet::new(1.0, vec![0u8; 3]),                    // too short for ethernet
        Packet::new(1.1, vec![0xffu8; 64]),                // not ipv4
        http_packet(1.2, 40000, 80, 1, b"GET / HTTP/1.1\r\nHost: ok.example\r\n\r\n"),
    ];
    let txs = extract(&packets).unwrap();
    assert_eq!(txs.len(), 1);
    assert_eq!(txs[0].host, "ok.example");
}

#[test]
fn malformed_request_stream_is_reported() {
    // A stream that *starts* like HTTP but carries a malformed header
    // line. (Streams that never look like HTTP are skipped silently;
    // version-less HTTP/0.9-style request lines are tolerated.)
    let packets = vec![http_packet(
        1.0,
        40001,
        80,
        1,
        b"GET /x HTTP/1.1\r\nbroken header without colon\r\n\r\n",
    )];
    assert!(extract(&packets).is_err());
    let lenient =
        vec![http_packet(1.0, 40005, 80, 1, b"GET /no-version\r\nHost: x\r\n\r\n")];
    let txs = extract(&lenient).unwrap();
    assert_eq!(txs.len(), 1);
    assert_eq!(txs[0].uri, "/no-version");
}

#[test]
fn binary_stream_on_port_80_is_ignored() {
    let packets = vec![http_packet(1.0, 40002, 80, 1, &[0x16, 0x03, 0x01, 0x00, 0x50])];
    let txs = extract(&packets).unwrap();
    assert!(txs.is_empty());
}

#[test]
fn response_without_request_is_ignored() {
    // Server-to-client data with no request direction captured.
    let packets =
        vec![http_packet(1.0, 80, 40003, 1, b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")];
    let txs = extract(&packets).unwrap();
    assert!(txs.is_empty());
}

#[test]
fn oversized_declared_body_is_clamped_to_stream() {
    // Content-Length far beyond what actually arrived: the extractor must
    // take what exists instead of blocking.
    let req = http_packet(1.0, 40004, 80, 1, b"GET /big HTTP/1.1\r\nHost: h\r\n\r\n");
    let resp = http_packet(
        1.1,
        80,
        40004,
        1,
        b"HTTP/1.1 200 OK\r\nContent-Length: 999999\r\n\r\nonly-this",
    );
    let txs = extract(&[req, resp]).unwrap();
    assert_eq!(txs.len(), 1);
    assert_eq!(txs[0].payload_size, 9);
}

#[test]
fn interleaved_connections_do_not_cross_pair() {
    // Two clients talk to the same server concurrently; responses must
    // pair within their own connection.
    let a_req = http_packet(1.0, 50001, 80, 1, b"GET /a HTTP/1.1\r\nHost: h\r\n\r\n");
    let b_req = http_packet(1.05, 50002, 80, 1, b"GET /b HTTP/1.1\r\nHost: h\r\n\r\n");
    let b_resp = http_packet(
        1.10,
        80,
        50002,
        1,
        b"HTTP/1.1 404 NF\r\nContent-Length: 1\r\n\r\nB",
    );
    let a_resp = http_packet(
        1.20,
        80,
        50001,
        1,
        b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nA",
    );
    let txs = extract(&[a_req, b_req, b_resp, a_resp]).unwrap();
    assert_eq!(txs.len(), 2);
    let a = txs.iter().find(|t| t.uri == "/a").unwrap();
    let b = txs.iter().find(|t| t.uri == "/b").unwrap();
    assert_eq!(a.status, 200);
    assert_eq!(b.status, 404);
}

#[test]
fn head_responses_do_not_consume_bodyless_frames() {
    // HEAD answers carry Content-Length but no body; the next response on
    // the connection must still pair correctly.
    let reqs = http_packet(
        1.0,
        50003,
        80,
        1,
        b"HEAD /h HTTP/1.1\r\nHost: x\r\n\r\nGET /g HTTP/1.1\r\nHost: x\r\n\r\n",
    );
    let resps = http_packet(
        1.1,
        80,
        50003,
        1,
        b"HTTP/1.1 200 OK\r\nContent-Length: 5000\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nGG",
    );
    let txs = extract(&[reqs, resps]).unwrap();
    assert_eq!(txs.len(), 2);
    assert_eq!(txs[0].uri, "/h");
    assert_eq!(txs[0].payload_size, 0, "HEAD has no body");
    assert_eq!(txs[1].uri, "/g");
    assert_eq!(txs[1].payload_size, 2);
}

#[test]
fn rst_terminated_stream_still_yields_transactions() {
    let req = http_packet(1.0, 50004, 80, 1, b"GET /r HTTP/1.1\r\nHost: x\r\n\r\n");
    let rst_seg = tcp::build(50004, 80, 30, 0, TcpFlags { rst: true, ..TcpFlags::default() }, &[]);
    let ip = ipv4::build(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(198, 51, 100, 1), PROTO_TCP, 2, &rst_seg);
    let rst = Packet::new(1.2, ether::build(MacAddr([1; 6]), MacAddr([2; 6]), ETHERTYPE_IPV4, &ip));
    let txs = extract(&[req, rst]).unwrap();
    assert_eq!(txs.len(), 1);
    assert_eq!(txs[0].status, 0, "no response observed");
}
