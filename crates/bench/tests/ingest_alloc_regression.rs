//! Allocation-count regression fence for the zero-copy ingest packet
//! stage. Kept as the only test in this binary so no concurrent test
//! thread can perturb the process-wide allocation counter.

use nettrace::arena::{subslice_range, PacketSpan};
use nettrace::ether::{EtherFrame, ETHERTYPE_IPV4};
use nettrace::ipv4::{Ipv4Packet, PROTO_TCP};
use nettrace::reassembly::{Endpoint, FlowKey, SpanReassembler, StreamBuf};
use nettrace::tcp::TcpSegment;
use rand::rngs::StdRng;
use rand::SeedableRng;
use synthtraffic::episode::generate_infection;
use synthtraffic::pcapgen::episodes_pcap;
use synthtraffic::EkFamily;

#[global_allocator]
static ALLOC: bench::alloc_count::CountingAllocator = bench::alloc_count::CountingAllocator;

/// One pass of the per-packet ingest stage: capture walk → spans →
/// link/network/transport decode → span reassembly → stream gather.
/// This is the loop `ingest/packets_steady_allocs` in the bench suite
/// times; the fence here pins its allocation count so a regression
/// fails a test before it shows up as bench noise.
fn packet_stage(
    capture: &[u8],
    spans: &mut Vec<PacketSpan>,
    reassembler: &mut SpanReassembler,
    streams: &mut StreamBuf,
    gaps: &mut u64,
) -> usize {
    let mut report = nettrace::IngestReport::new();
    spans.clear();
    nettrace::capture::read_packet_spans_lenient(capture, &mut report, spans);
    for span in spans.iter() {
        let data = &capture[span.range.clone()];
        let Ok(eth) = EtherFrame::parse(data) else { continue };
        if eth.ethertype != ETHERTYPE_IPV4 {
            continue;
        }
        let Ok(ip) = Ipv4Packet::parse(eth.payload) else { continue };
        if ip.protocol != PROTO_TCP {
            continue;
        }
        let Ok(tcp) = TcpSegment::parse(ip.payload) else { continue };
        let key = FlowKey::new(
            Endpoint::new(ip.src, tcp.src_port),
            Endpoint::new(ip.dst, tcp.dst_port),
        );
        reassembler.push_span(span.ts, key, &tcp, subslice_range(capture, tcp.payload));
    }
    reassembler.gather_streams(capture, gaps, streams);
    spans.len()
}

/// After one warm-up pass grows the span vector, the flow table, the
/// segment pools, and the gather buffer to their high-water marks, the
/// packet stage must not touch the heap again: spans index the capture
/// buffer in place and reassembly only materializes bytes on conflict,
/// which a clean warm capture never triggers twice. The counter pins
/// the ISSUE target of ≤1 alloc/packet amortized at exactly 0.
#[test]
fn ingest_packet_stage_is_allocation_free_in_steady_state() {
    let mut rng = StdRng::seed_from_u64(3);
    let ep = generate_infection(&mut rng, EkFamily::Nuclear, 1.4e9);
    let pcap = episodes_pcap(&[ep]);

    let mut spans = Vec::new();
    let mut reassembler = SpanReassembler::default();
    let mut streams = StreamBuf::new();
    let mut gaps = 0u64;
    // Two warm-up passes: the first grows buffers to the capture's
    // high-water mark, the second lets pool free-lists settle (a pooled
    // segment released on pass N is only reusable on pass N+1).
    let n_packets = packet_stage(&pcap, &mut spans, &mut reassembler, &mut streams, &mut gaps);
    packet_stage(&pcap, &mut spans, &mut reassembler, &mut streams, &mut gaps);
    assert!(n_packets > 50, "fixture capture too small to be meaningful");

    let before = bench::alloc_count::allocations();
    let mut acc = 0usize;
    for _ in 0..3 {
        acc += packet_stage(&pcap, &mut spans, &mut reassembler, &mut streams, &mut gaps);
    }
    std::hint::black_box(acc);
    let delta = bench::alloc_count::allocations() - before;
    assert_eq!(
        delta,
        0,
        "steady-state ingest packet stage performed {delta} heap allocations \
         over {} packets ({:.3} allocs/packet); the per-packet path must not \
         allocate once buffers are warm",
        3 * n_packets,
        delta as f64 / (3 * n_packets) as f64
    );
}
