//! Heap fence for offline capture ingest: extraction stages the bytes of
//! multi-segment streams a window at a time, so its heap follows the
//! window, not the capture. Kept as the only test in this binary so no
//! concurrent test thread can move the process-wide byte gauge.

use std::net::Ipv4Addr;

use nettrace::ether::{self, MacAddr, ETHERTYPE_IPV4};
use nettrace::ipv4::{self, PROTO_TCP};
use nettrace::pcap::{Packet, PcapWriter};
use nettrace::tcp::{self, TcpFlags};
use nettrace::transaction::fnv1a;
use nettrace::{IngestReport, SpanPipeline};

#[global_allocator]
static ALLOC: bench::alloc_count::CountingAllocator = bench::alloc_count::CountingAllocator;

/// Connections in the capture, each one request and one response.
const CONNECTIONS: u32 = 768;
/// Response body size: 46 full-size segments per response.
const BODY_BYTES: usize = 64 << 10;
/// TCP payload per segment, as on a 1500-byte MTU.
const MSS: usize = 1448;

fn frame(src: (Ipv4Addr, u16), dst: (Ipv4Addr, u16), seq: u32, payload: &[u8]) -> Vec<u8> {
    let segment = tcp::build(src.1, dst.1, seq, 0, TcpFlags::data(), payload);
    let packet = ipv4::build(src.0, dst.0, PROTO_TCP, 1, &segment);
    ether::build(
        MacAddr::default(),
        MacAddr::default(),
        ETHERTYPE_IPV4,
        &packet,
    )
}

/// A clean capture of `CONNECTIONS` downloads of `body`, every response
/// split into `MSS`-byte segments.
fn capture(body: &[u8]) -> Vec<u8> {
    let server = (Ipv4Addr::new(203, 0, 113, 9), 80);
    let mut writer = PcapWriter::new(Vec::new()).expect("writing to a Vec cannot fail");
    let mut ts = 1.4e9;
    for c in 0..CONNECTIONS {
        let client = (Ipv4Addr::from(0x0a00_0000 + c), 40000 + (c % 20000) as u16);
        let request = format!("GET /file/{c}.bin HTTP/1.1\r\nHost: files.example\r\n\r\n");
        let mut response = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        response.extend_from_slice(body);
        let mut record = |frame: Vec<u8>| {
            ts += 1e-4;
            writer
                .write_packet(&Packet::new(ts, frame))
                .expect("frame fits a record");
        };
        record(frame(client, server, 1, request.as_bytes()));
        for (i, piece) in response.chunks(MSS).enumerate() {
            record(frame(server, client, 1 + (i * MSS) as u32, piece));
        }
    }
    writer.finish().expect("writing to a Vec cannot fail")
}

/// Before staging was windowed, extraction gathered every multi-segment
/// stream into one buffer about the size of the capture, so its peak heap
/// exceeded the capture. Now it must stay under half of it.
#[test]
fn extraction_heap_follows_the_window_not_the_capture() {
    let body: Vec<u8> = (0..BODY_BYTES).map(|i| (i * 7 + i / 251) as u8).collect();
    let capture = capture(&body);
    assert!(
        capture.len() > 48 << 20,
        "capture of {} bytes",
        capture.len()
    );

    let before = bench::alloc_count::restart_peak();
    let mut report = IngestReport::new();
    let transactions = SpanPipeline::new().extract_lenient(&capture, &mut report);
    let grown = bench::alloc_count::peak_bytes() - before;

    assert_eq!(transactions.len(), CONNECTIONS as usize, "{report}");
    assert!(!report.has_loss(), "{report}");
    let digest = fnv1a(&body);
    assert!(transactions
        .iter()
        .all(|t| t.payload_size == BODY_BYTES && t.payload_digest == digest));
    let budget = capture.len() as u64 / 2;
    assert!(
        grown < budget,
        "extracting a {}-byte capture grew the heap by {grown} bytes; the budget is half the \
         capture, {budget}",
        capture.len()
    );
}
