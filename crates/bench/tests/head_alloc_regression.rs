//! Allocation-count fence for HTTP head parsing and for the transactions
//! the wire tap synthesizes from it. Kept as the only test in this
//! binary so no concurrent test thread can perturb the process-wide
//! allocation counter.

use std::hint::black_box;
use std::net::Ipv4Addr;

use nettrace::http::{parse_request_head, parse_response_head};
use nettrace::reassembly::Endpoint;
use nettrace::wiretap::{ConnectionTap, TapConfig, TapDir};
use nettrace::IngestReport;

#[global_allocator]
static ALLOC: bench::alloc_count::CountingAllocator = bench::alloc_count::CountingAllocator;

/// Heap acquisitions made while `f` runs.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = bench::alloc_count::allocations();
    f();
    bench::alloc_count::allocations() - before
}

/// Header lines of a head with `n` headers: a mix of interned hot names
/// and cold ones, the way real heads carry them.
fn header_lines(n: usize, first: &str) -> String {
    let mut lines = format!("{first}\r\n");
    for i in 1..n {
        lines.push_str(&match i % 4 {
            0 => format!("Referer: http://ref{i}.example.test/from/{i}.html\r\n"),
            1 => format!("X-Request-Id:  req-{i:08x} \r\n"),
            2 => format!("Cookie: session={i}; theme=dark\r\n"),
            _ => format!("Accept-Language: en-US,en;q=0.{i}\r\n"),
        });
    }
    lines
}

fn request(n: usize) -> Vec<u8> {
    let lines = header_lines(n, "Host: www.example.test");
    format!("GET /landing/page.html?id=7 HTTP/1.1\r\n{lines}\r\n").into_bytes()
}

fn response(n: usize, body: &[u8]) -> Vec<u8> {
    let lines = header_lines(n, &format!("Content-Length: {}", body.len()));
    let mut out = format!("HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n{lines}\r\n").into_bytes();
    out.extend_from_slice(body);
    out
}

/// A head is a fixed number of heap blocks whatever its header count:
/// the request's URI and version strings, or the response's version and
/// reason, plus the header map's one text buffer and one entry vector.
/// A map of a `String` per name and per value took 6 / 21 / 139 blocks
/// for a request head of 1 / 8 / 64 headers. A transaction the tap
/// synthesizes on a warm keep-alive connection then costs its two heads,
/// its host and its body preview: 10 blocks at any header count
/// (16 / 48 / 284 with a `String` per name and per value).
#[test]
fn head_parsing_allocates_a_fixed_number_of_blocks() {
    const HEAD_ALLOCS: u64 = 4;
    for n in [1, 8, 64] {
        let req = request(n);
        let resp = response(n, b"<html></html>");
        let got = allocations_in(|| {
            let (head, _) = parse_request_head(&req).unwrap().unwrap();
            assert_eq!(head.headers.len(), n);
            black_box(head);
        });
        assert_eq!(got, HEAD_ALLOCS, "request head with {n} headers");
        let got = allocations_in(|| {
            let (head, _) = parse_response_head(&resp).unwrap().unwrap();
            assert_eq!(head.headers.len(), n + 1);
            black_box(head);
        });
        assert_eq!(got, HEAD_ALLOCS, "response head with {n} headers");
    }

    const TRANSACTIONS: usize = 200;
    const TAP_BOUND_PER_TX: u64 = 10;
    let body = [b'x'; 64];
    for n in [1, 8, 64] {
        let (req, resp) = (request(n), response(n, &body));
        let mut tap = ConnectionTap::new(
            Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 50000),
            Endpoint::new(Ipv4Addr::new(203, 0, 113, 9), 80),
            TapConfig::default(),
        );
        let mut report = IngestReport::new();
        let mut out = Vec::with_capacity(TRANSACTIONS + 8);
        let mut exchange = |tap: &mut ConnectionTap, out: &mut Vec<_>, ts: f64| {
            tap.offer(TapDir::Request, &req, ts, &mut report, out);
            tap.offer(TapDir::Response, &resp, ts + 0.01, &mut report, out);
        };
        for i in 0..4 {
            exchange(&mut tap, &mut out, i as f64);
        }
        let got = allocations_in(|| {
            for i in 0..TRANSACTIONS {
                exchange(&mut tap, &mut out, 10.0 + i as f64);
            }
        });
        assert_eq!(out.len(), TRANSACTIONS + 4, "every exchange emits");
        assert_eq!(out.last().unwrap().resp_headers.len(), n + 1);
        let per_tx = got as f64 / TRANSACTIONS as f64;
        println!("tap, {n} headers: {per_tx:.2} allocations per transaction");
        assert!(
            got <= TAP_BOUND_PER_TX * TRANSACTIONS as u64,
            "tap with {n} headers per head: {per_tx:.2} allocations per transaction \
             (bound {TAP_BOUND_PER_TX})"
        );
    }
}
