//! The live-capture traffic source: packets in, transactions out.
//!
//! Two backends sit behind one [`CaptureSource`]:
//!
//! * **pcap tail** (portable, the testable path) — follows a classic
//!   libpcap file as it grows, `tail -f` style: partial records at the
//!   current end of file are retried on the next pump, so a capture
//!   being written by another process streams through incrementally.
//! * **`AF_PACKET`** (Linux, compile-gated, requires `CAP_NET_RAW`) —
//!   a non-blocking raw socket bound to one interface, with kernel
//!   ring-drop accounting folded into `source_drops`.
//!
//! Both feed the same flow table: TCP segments reach a [`ConnectionTap`]
//! per flow in sequence order per direction, and the tap frames them
//! with the offline pairer's framer. A segment ahead of its stream
//! waits, with its own capture timestamp, in a bounded buffer; when the
//! flow ends (both directions closed, observation dropped, shutdown) or
//! the buffer is full, what is held is laid in sequence order across
//! the hole and each hole counted in `reassembly_gaps` — what offline
//! reassembly makes of the same segments. A segment that turns up after
//! its hole was given up on is trimmed as a retransmission (offline
//! would have sorted it into place; the hole stays counted).
//! `source_drops` counts what the kernel ring dropped on the live
//! backend, `tap_overflows` the flows whose observation was abandoned;
//! flows the BPF-style port filter keeps out of the taps are not
//! counted at all.
//!
//! Record framing and frame decoding are `nettrace`'s
//! ([`pcap::walk_records`], [`decode_frame`]) — the same functions the
//! offline pipeline runs. The tail is the walker's third policy: where
//! strict ingest fails on a stop and lenient ingest counts it, the tail
//! keeps the unconsumed bytes pending until the writer appends more.
//! Reassembly shares its arbitration step with offline ingest — overlap
//! trimmed first-copy-wins, holes skipped and counted, both through
//! [`lay_segment`] — but not its storage: delivering bytes as they
//! become contiguous and sorting a finished capture are different
//! algorithms.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};

use nettrace::arena::PacketSpan;
use nettrace::pcap;
use nettrace::reassembly::{decode_frame, lay_segment, Endpoint};
use nettrace::source::{PumpOutcome, SourceStats, TrafficSource};
use nettrace::wiretap::{ConnectionTap, TapConfig, TapDir};
use nettrace::{Error, HttpTransaction, IngestReport};

use crate::sys;

/// Frames handled per pump slice, bounding one slice's work.
const FRAMES_PER_SLICE: usize = 256;
/// Out-of-order segments held per flow direction before the hole they
/// wait behind is given up on.
const MAX_OOO_SEGMENTS: usize = 64;

/// Capture tuning knobs.
#[derive(Debug, Clone)]
pub struct CaptureConfig {
    /// Flows are admitted only when either endpoint's port is listed
    /// (BPF-style `port A or port B` filtering). Empty admits all.
    pub ports: Vec<u16>,
    /// Per-flow observation buffers.
    pub tap: TapConfig,
}

impl Default for CaptureConfig {
    fn default() -> Self {
        CaptureConfig { ports: vec![80], tap: TapConfig::default() }
    }
}

/// One direction's in-order delivery state.
#[derive(Default)]
struct DirState {
    /// Sequence number of the direction's first byte (a SYN's plus one,
    /// else the first data segment's); `None` until either is seen.
    origin: Option<u32>,
    /// Stream offset of the first byte not handed to the tap yet.
    next: u64,
    /// Segments that arrived ahead of `next`, each with its own capture
    /// timestamp, keyed by stream offset: offsets are measured from the
    /// moving watermark, so they keep growing where raw sequence
    /// numbers wrap at 2³².
    held: BTreeMap<u64, (f64, Vec<u8>)>,
    fin: bool,
}

/// One observed TCP flow.
struct Flow {
    tap: ConnectionTap,
    client: Endpoint,
    c2s: DirState,
    s2c: DirState,
}

/// Where a flow's bytes and tallies go: the tap, the source's counters
/// and the pump's output.
struct Sink<'a> {
    tap: &'a mut ConnectionTap,
    stats: &'a mut SourceStats,
    report: &'a mut IngestReport,
    out: &'a mut Vec<HttpTransaction>,
}

impl DirState {
    /// Takes one TCP segment in sequence order: bytes at the watermark
    /// go straight to the tap and release whatever they made contiguous,
    /// a segment ahead of it waits (bounded), bytes behind it are
    /// retransmission and trimmed.
    fn deliver(&mut self, seq: u32, payload: &[u8], ts: f64, dir: TapDir, sink: &mut Sink<'_>) {
        let origin = *self.origin.get_or_insert(seq);
        let ahead = seq.wrapping_sub(origin.wrapping_add(self.next as u32)) as i32;
        let Some(rel) = self.next.checked_add_signed(i64::from(ahead)) else {
            return; // claims to precede the stream's first byte: stale
        };
        if rel > self.next && self.held.len() >= MAX_OOO_SEGMENTS {
            // The hole has outlasted the buffer: give up on it.
            self.flush(dir, sink);
        }
        if rel > self.next {
            self.held.entry(rel).or_insert_with(|| (ts, payload.to_vec()));
            return;
        }
        self.lay(rel, ts, payload, dir, sink);
        while self.held.first_key_value().is_some_and(|(&rel, _)| rel <= self.next) {
            let (rel, (ts, data)) = self.held.pop_first().expect("peeked");
            self.lay(rel, ts, &data, dir, sink);
        }
    }

    /// Lays every held segment in sequence order, each hole between them
    /// skipped and counted — what offline reassembly does with the same
    /// segments once the capture has ended.
    fn flush(&mut self, dir: TapDir, sink: &mut Sink<'_>) {
        while let Some((rel, (ts, data))) = self.held.pop_first() {
            self.lay(rel, ts, &data, dir, sink);
        }
    }

    fn lay(&mut self, rel: u64, ts: f64, bytes: &[u8], dir: TapDir, sink: &mut Sink<'_>) {
        let gaps = &mut sink.report.reassembly_gaps;
        if let Some(trim) = lay_segment(&mut self.next, rel, bytes.len(), gaps) {
            sink.stats.bytes_in += (bytes.len() - trim) as u64;
            sink.tap.offer(dir, &bytes[trim..], ts, sink.report, sink.out);
        }
    }
}

impl Flow {
    /// The flow is over (both directions closed, observation dropped, or
    /// the source shutting down): what was still held is laid across
    /// its holes, requests first, and the tap flushes its tail.
    fn finish(
        mut self,
        stats: &mut SourceStats,
        report: &mut IngestReport,
        out: &mut Vec<HttpTransaction>,
    ) {
        let mut sink = Sink { tap: &mut self.tap, stats, report, out };
        self.c2s.flush(TapDir::Request, &mut sink);
        self.s2c.flush(TapDir::Response, &mut sink);
        self.tap.close(report, out);
    }
}

/// Incremental pcap-file reader state.
struct PcapTail {
    file: File,
    path: PathBuf,
    /// The file's global header followed by its unconsumed bytes (which
    /// may end mid-record): always a well-formed pcap prefix, so each
    /// pump hands it to [`pcap::walk_records`] as it stands.
    pending: Vec<u8>,
    /// Reused per-pump list of the complete records found in `pending`.
    spans: Vec<PacketSpan>,
    /// Keep polling for growth after EOF (`tail -f`), or report
    /// [`PumpOutcome::Exhausted`] once the file is drained.
    follow: bool,
}

enum Backend {
    PcapTail(PcapTail),
    #[cfg(target_os = "linux")]
    Live { socket: sys::packet::PacketSocket, iface: String },
}

/// Packet capture as a [`TrafficSource`].
pub struct CaptureSource {
    backend: Backend,
    config: CaptureConfig,
    /// Keyed by [`nettrace::reassembly::FlowKey::connection_id`].
    flows: BTreeMap<(Endpoint, Endpoint), Flow>,
    stats: SourceStats,
    report: IngestReport,
    shut: bool,
}

impl CaptureSource {
    /// Opens a pcap file source. With `follow` the source tails the
    /// file indefinitely (a capture being written live); without it
    /// the source is exhausted at end of file.
    ///
    /// # Errors
    ///
    /// Only an unopenable file; damaged records are absorbed into the
    /// ingest report during pumping.
    pub fn pcap_file(path: &Path, follow: bool, config: CaptureConfig) -> std::io::Result<Self> {
        let file = File::open(path)?;
        Ok(CaptureSource {
            backend: Backend::PcapTail(PcapTail {
                file,
                path: path.to_path_buf(),
                pending: Vec::new(),
                spans: Vec::new(),
                follow,
            }),
            config,
            flows: BTreeMap::new(),
            stats: SourceStats::default(),
            report: IngestReport::new(),
            shut: false,
        })
    }

    /// Opens a live `AF_PACKET` source on `iface` (Linux only;
    /// requires `CAP_NET_RAW` at runtime).
    ///
    /// # Errors
    ///
    /// Missing capability, unknown interface, or socket failure.
    #[cfg(target_os = "linux")]
    pub fn live(iface: &str, config: CaptureConfig) -> std::io::Result<Self> {
        let socket = sys::packet::PacketSocket::open(iface)?;
        Ok(CaptureSource {
            backend: Backend::Live { socket, iface: iface.to_string() },
            config,
            flows: BTreeMap::new(),
            stats: SourceStats::default(),
            report: IngestReport::new(),
            shut: false,
        })
    }

    /// Flows currently tracked.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Decodes one captured frame down to TCP and routes it to its
    /// flow. Non-IPv4/non-TCP frames are counted, not lost; filtered-out
    /// ports never create flows.
    fn handle_frame(&mut self, ts: f64, frame: &[u8], out: &mut Vec<HttpTransaction>) {
        self.report.packets_read += 1;
        let (flow_key, seg) = match decode_frame(frame) {
            Ok(Some(decoded)) => decoded,
            Ok(None) => {
                self.report.packets_non_tcp += 1;
                return;
            }
            Err(_) => {
                self.report.packets_dropped_decode += 1;
                return;
            }
        };
        let (src, dst) = (flow_key.src, flow_key.dst);
        if !self.config.ports.is_empty()
            && !self.config.ports.contains(&src.port)
            && !self.config.ports.contains(&dst.port)
        {
            return;
        }
        let key = flow_key.connection_id();
        let flow = match self.flows.get_mut(&key) {
            Some(f) => f,
            None => {
                // First packet decides direction: a bare SYN is the
                // client; otherwise whoever is talking *to* a filtered
                // port; otherwise the first speaker.
                let client_is_src = if seg.flags.syn && !seg.flags.ack {
                    true
                } else if !self.config.ports.is_empty() {
                    self.config.ports.contains(&dst.port)
                } else {
                    true
                };
                let (client, server) = if client_is_src { (src, dst) } else { (dst, src) };
                self.stats.connections += 1;
                self.flows.entry(key).or_insert(Flow {
                    tap: ConnectionTap::new(client, server, self.config.tap),
                    client,
                    c2s: DirState::default(),
                    s2c: DirState::default(),
                })
            }
        };
        let from_client = src == flow.client;
        let dir = if from_client { TapDir::Request } else { TapDir::Response };
        let state = if from_client { &mut flow.c2s } else { &mut flow.s2c };
        if seg.flags.syn {
            state.origin.get_or_insert(seg.seq.wrapping_add(1));
        }
        if !seg.payload.is_empty() {
            let mut sink = Sink {
                tap: &mut flow.tap,
                stats: &mut self.stats,
                report: &mut self.report,
                out,
            };
            state.deliver(seg.seq, seg.payload, ts, dir, &mut sink);
        }
        if seg.flags.fin || seg.flags.rst {
            state.fin = true;
        }
        let overflowed = flow.tap.overflowed();
        let finished = flow.c2s.fin && flow.s2c.fin;
        if overflowed {
            self.stats.tap_overflows += 1;
        }
        if overflowed || finished {
            let flow = self.flows.remove(&key).expect("flow present");
            flow.finish(&mut self.stats, &mut self.report, out);
        }
    }

    fn tail(&mut self) -> &mut PcapTail {
        match &mut self.backend {
            Backend::PcapTail(t) => t,
            #[cfg(target_os = "linux")]
            Backend::Live { .. } => unreachable!("pcap tail on live backend"),
        }
    }

    /// Pumps the pcap-tail backend: read new bytes, handle the complete
    /// records, leave the partial tail pending.
    fn pump_pcap(&mut self, out: &mut Vec<HttpTransaction>) -> nettrace::Result<PumpOutcome> {
        let tail = self.tail();
        let mut chunk = [0u8; 64 * 1024];
        let mut read_any = false;
        loop {
            match tail.file.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    read_any = true;
                    tail.pending.extend_from_slice(&chunk[..n]);
                    if tail.pending.len() >= 1 << 26 {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(Error::Io(e)),
            }
        }
        let starved = if tail.follow { PumpOutcome::Idle } else { PumpOutcome::Exhausted };
        if tail.pending.len() < pcap::HEADER_LEN {
            return Ok(starved);
        }
        // Frames are handled with `self` borrowed whole, so the buffers
        // step outside it for the duration.
        let mut pending = std::mem::take(&mut tail.pending);
        let mut spans = std::mem::take(&mut tail.spans);
        spans.clear();
        let end = pcap::walk_records(&pending, FRAMES_PER_SLICE, |ts, range| {
            spans.push(PacketSpan { ts, range });
        });
        // The tail's policy over the walker's stop: corruption is as
        // fatal as under strict ingest (classic pcap cannot be re-framed
        // past it), while a record split at the end of file stays
        // pending for the next pump — the writer is mid-append.
        let verdict = end.strict();
        if verdict.is_ok() {
            for span in &spans {
                self.handle_frame(span.ts, span.bytes(&pending), out);
            }
            pending.drain(pcap::HEADER_LEN..end.at);
        }
        let progressed = !spans.is_empty() || read_any;
        let tail = self.tail();
        tail.pending = pending;
        tail.spans = spans;
        verdict?;
        Ok(if progressed { PumpOutcome::Progress } else { starved })
    }

    #[cfg(target_os = "linux")]
    fn pump_live(&mut self, out: &mut Vec<HttpTransaction>) -> nettrace::Result<PumpOutcome> {
        let mut buf = vec![0u8; 64 * 1024];
        let mut frames: Vec<(f64, Vec<u8>)> = Vec::new();
        {
            let Backend::Live { socket, .. } = &mut self.backend else { unreachable!() };
            for _ in 0..FRAMES_PER_SLICE {
                match socket.recv_frame(&mut buf) {
                    Ok(Some(n)) => frames.push((sys::wall_clock(), buf[..n].to_vec())),
                    Ok(None) => break,
                    Err(e) => return Err(Error::Io(e)),
                }
            }
            self.stats.source_drops = socket.kernel_drops();
        }
        let any = !frames.is_empty();
        for (ts, frame) in &frames {
            self.handle_frame(*ts, frame, out);
        }
        Ok(if any { PumpOutcome::Progress } else { PumpOutcome::Idle })
    }
}

impl TrafficSource for CaptureSource {
    fn pump(&mut self, out: &mut Vec<HttpTransaction>) -> nettrace::Result<PumpOutcome> {
        if self.shut {
            return Ok(PumpOutcome::Exhausted);
        }
        let before = out.len();
        let is_pcap = matches!(self.backend, Backend::PcapTail(_));
        #[cfg(target_os = "linux")]
        let outcome = if is_pcap { self.pump_pcap(out) } else { self.pump_live(out) };
        #[cfg(not(target_os = "linux"))]
        let outcome = {
            debug_assert!(is_pcap);
            self.pump_pcap(out)
        };
        self.stats.transactions += (out.len() - before) as u64;
        // An exhausted non-follow capture still holds open flows; they
        // flush at shutdown.
        outcome
    }

    fn shutdown(&mut self, out: &mut Vec<HttpTransaction>) {
        if self.shut {
            return;
        }
        self.shut = true;
        let before = out.len();
        for (_, flow) in std::mem::take(&mut self.flows) {
            flow.finish(&mut self.stats, &mut self.report, out);
        }
        self.stats.transactions += (out.len() - before) as u64;
    }

    fn stats(&self) -> SourceStats {
        self.stats
    }

    fn ingest_report(&self) -> IngestReport {
        self.report
    }
}

impl std::fmt::Debug for CaptureSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let backend = match &self.backend {
            Backend::PcapTail(t) => format!("pcap-tail {:?} (follow={})", t.path, t.follow),
            #[cfg(target_os = "linux")]
            Backend::Live { iface, .. } => format!("af-packet {iface}"),
        };
        f.debug_struct("CaptureSource")
            .field("backend", &backend)
            .field("flows", &self.flows.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::ether::{self, MacAddr};
    use nettrace::tcp::{self, TcpFlags};
    use nettrace::transaction::assign_seq;
    use nettrace::{ipv4, SpanPipeline};
    use std::io::Write;
    use std::net::Ipv4Addr;
    use synthtraffic::pcapgen::episodes_pcap;
    use synthtraffic::wire::wire_episode_set;

    fn tmp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("wirefront_capture_{name}_{}", std::process::id()))
    }

    fn pump_to_exhaustion(src: &mut CaptureSource, out: &mut Vec<HttpTransaction>) {
        for _ in 0..10_000 {
            match src.pump(out).expect("pump") {
                PumpOutcome::Exhausted => return,
                PumpOutcome::Progress | PumpOutcome::Idle => {}
            }
        }
        panic!("capture never exhausted");
    }

    /// The tentpole parity claim, held at the source level: tailing a
    /// pcap through the live flow table produces transactions
    /// bit-identical to the offline span pipeline over the same bytes.
    #[test]
    fn pcap_tail_matches_offline_extraction() {
        let episodes = wire_episode_set(21, 1, 1).unwrap();
        let bytes = episodes_pcap(&episodes);
        let path = tmp_path("parity.pcap");
        std::fs::write(&path, &bytes).unwrap();

        let mut src =
            CaptureSource::pcap_file(&path, false, CaptureConfig::default()).unwrap();
        let mut out = Vec::new();
        pump_to_exhaustion(&mut src, &mut out);
        src.shutdown(&mut out);
        out.sort_by(|a, b| a.ts.total_cmp(&b.ts));
        assign_seq(&mut out);

        let mut report = IngestReport::new();
        let offline = SpanPipeline::extract_capture_lenient(&bytes, &mut report);
        assert_eq!(out.len(), offline.len(), "transaction count");
        assert!(!out.is_empty());
        for (wire, off) in out.iter().zip(&offline) {
            assert_eq!(format!("{wire:?}"), format!("{off:?}"));
        }
        std::fs::remove_file(&path).ok();
    }

    /// `wire_episode_set(21, 1, 1)` as packets, with the positions of the
    /// data segments of its longest response, in capture order.
    fn packets_and_a_long_response() -> (Vec<pcap::Packet>, Vec<usize>) {
        let bytes = episodes_pcap(&wire_episode_set(21, 1, 1).unwrap());
        let packets = nettrace::capture::read_packets(&bytes).unwrap();
        let mut responses: BTreeMap<_, Vec<usize>> = BTreeMap::new();
        for (i, p) in packets.iter().enumerate() {
            let (key, seg) = decode_frame(&p.data).unwrap().expect("tcp");
            if key.src.port == 80 && !seg.payload.is_empty() {
                responses.entry(key).or_default().push(i);
            }
        }
        let segments = responses.into_values().max_by_key(Vec::len).expect("a response");
        assert!(segments.len() >= 3, "a response with a middle segment");
        (packets, segments)
    }

    /// Tails `packets` and extracts them offline: the transactions must
    /// agree to the last field and the gap counts be equal. Returns the
    /// tail's report and stats.
    fn tail_matches_offline(name: &str, packets: &[pcap::Packet]) -> (IngestReport, SourceStats) {
        let bytes = pcap::write_packets(packets);
        let path = tmp_path(name);
        std::fs::write(&path, &bytes).unwrap();
        let mut src = CaptureSource::pcap_file(&path, false, CaptureConfig::default()).unwrap();
        let mut tailed = Vec::new();
        pump_to_exhaustion(&mut src, &mut tailed);
        src.shutdown(&mut tailed);
        std::fs::remove_file(&path).ok();
        tailed.sort_by(|a, b| a.ts.total_cmp(&b.ts));
        assign_seq(&mut tailed);

        let mut report = IngestReport::new();
        let offline = SpanPipeline::extract_capture_lenient(&bytes, &mut report);
        assert!(!offline.is_empty());
        assert_eq!(tailed, offline, "{name}: transactions");
        assert_eq!(src.ingest_report().reassembly_gaps, report.reassembly_gaps, "{name}: gaps");
        (src.ingest_report(), src.stats())
    }

    /// A data segment the capture never saw: the segments behind it are
    /// laid across the hole when the flow ends, as offline lays them, and
    /// the hole is counted — not dropped unseen.
    #[test]
    fn lost_segment_is_skipped_and_counted_like_offline() {
        let (mut packets, response) = packets_and_a_long_response();
        packets.remove(response[response.len() / 2]);
        let (report, stats) = tail_matches_offline("lost.pcap", &packets);
        assert_eq!(report.reassembly_gaps, 1);
        assert_eq!(stats.source_drops, 0);
    }

    /// Two segments that swapped places on the way to the capture point:
    /// the held one is released with its own capture timestamp, not the
    /// timestamp of the segment that released it.
    #[test]
    fn reordered_segments_keep_their_own_timestamps() {
        let (mut packets, response) = packets_and_a_long_response();
        let [.., a, b] = response[..] else { unreachable!() };
        let (head, tail) = packets.split_at_mut(b);
        std::mem::swap(&mut head[a].data, &mut tail[0].data);
        let (report, _) = tail_matches_offline("swapped.pcap", &packets);
        assert_eq!(report.reassembly_gaps, 0, "reordering is not loss");
    }

    /// A retransmitted segment adds nothing on either side: both
    /// reassemblers trim it by the one `lay_segment` rule.
    #[test]
    fn duplicated_segment_is_trimmed_like_offline() {
        let (mut packets, response) = packets_and_a_long_response();
        let at = response[response.len() / 2];
        packets.insert(at + 1, packets[at].clone());
        let (report, _) = tail_matches_offline("duplicated.pcap", &packets);
        assert_eq!(report.reassembly_gaps, 0);
    }

    /// `tail -f` semantics: a record split at the end of file is
    /// retried once the writer appends the rest.
    #[test]
    fn tail_retries_partial_records_across_appends() {
        let episodes = wire_episode_set(22, 1, 0).unwrap();
        let bytes = episodes_pcap(&episodes);
        let split = pcap::HEADER_LEN + 8; // mid first record header
        let path = tmp_path("tail.pcap");
        std::fs::write(&path, &bytes[..split]).unwrap();

        let mut src = CaptureSource::pcap_file(&path, true, CaptureConfig::default()).unwrap();
        let mut out = Vec::new();
        for _ in 0..10 {
            assert_ne!(src.pump(&mut out).expect("pump"), PumpOutcome::Exhausted);
        }
        assert!(out.is_empty(), "no transaction can exist yet");

        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&bytes[split..]).unwrap();
        drop(f);
        // Follow mode never exhausts; pump until quiet.
        let mut idle = 0;
        while idle < 5 {
            match src.pump(&mut out).expect("pump") {
                PumpOutcome::Progress => idle = 0,
                _ => idle += 1,
            }
        }
        src.shutdown(&mut out);

        let mut report = IngestReport::new();
        let offline = SpanPipeline::extract_capture_lenient(&bytes, &mut report);
        assert_eq!(out.len(), offline.len());
        std::fs::remove_file(&path).ok();
    }

    fn frame(
        src: (Ipv4Addr, u16),
        dst: (Ipv4Addr, u16),
        seq: u32,
        flags: TcpFlags,
        payload: &[u8],
    ) -> Vec<u8> {
        let t = tcp::build(src.1, dst.1, seq, 0, flags, payload);
        let ip = ipv4::build(src.0, dst.0, ipv4::PROTO_TCP, 7, &t);
        ether::build(MacAddr([1; 6]), MacAddr([2; 6]), ether::ETHERTYPE_IPV4, &ip)
    }

    fn empty_source(config: CaptureConfig) -> CaptureSource {
        let path = tmp_path("empty.pcap");
        std::fs::write(&path, b"").unwrap();
        CaptureSource::pcap_file(&path, true, config).unwrap()
    }

    /// Segments delivered out of order still reassemble: the bounded
    /// OOO buffer holds the future segment until the gap fills.
    #[test]
    fn out_of_order_segments_reassemble() {
        let client = (Ipv4Addr::new(10, 0, 0, 5), 30001u16);
        let server = (Ipv4Addr::new(93, 0, 0, 1), 80u16);
        let req = b"GET /x HTTP/1.1\r\nHost: ooo.test\r\n\r\n";
        let (a, b) = req.split_at(10);
        let resp = b"HTTP/1.1 200 X\r\nContent-Length: 0\r\n\r\n";

        let mut src = empty_source(CaptureConfig::default());
        let mut out = Vec::new();
        src.handle_frame(1.0, &frame(client, server, 100, TcpFlags::syn(), &[]), &mut out);
        // Second chunk first: must wait in the OOO buffer.
        src.handle_frame(
            1.1,
            &frame(client, server, 101 + a.len() as u32, TcpFlags::data(), b),
            &mut out,
        );
        assert!(out.is_empty());
        src.handle_frame(1.2, &frame(client, server, 101, TcpFlags::data(), a), &mut out);
        src.handle_frame(2.0, &frame(server, client, 500, TcpFlags::data(), resp), &mut out);
        src.handle_frame(2.1, &frame(client, server, 200, TcpFlags::fin(), &[]), &mut out);
        src.handle_frame(2.2, &frame(server, client, 600, TcpFlags::fin(), &[]), &mut out);

        assert_eq!(out.len(), 1, "one request/response pair, one transaction");
        assert_eq!(out[0].host, "ooo.test");
        assert_eq!(out[0].status, 200);
        assert_eq!(src.stats().connections, 1);
        assert_eq!(src.active_flows(), 0, "finished flow was reaped");
    }

    /// Retransmitted overlap is trimmed, not re-delivered.
    #[test]
    fn retransmission_overlap_is_trimmed() {
        let client = (Ipv4Addr::new(10, 0, 0, 6), 30002u16);
        let server = (Ipv4Addr::new(93, 0, 0, 2), 80u16);
        let req = b"GET /r HTTP/1.1\r\nHost: dup.test\r\n\r\n";
        let mut src = empty_source(CaptureConfig::default());
        let mut out = Vec::new();
        src.handle_frame(1.0, &frame(client, server, 100, TcpFlags::syn(), &[]), &mut out);
        src.handle_frame(1.1, &frame(client, server, 101, TcpFlags::data(), req), &mut out);
        // Full retransmission: zero new bytes.
        let before = src.stats().bytes_in;
        src.handle_frame(1.2, &frame(client, server, 101, TcpFlags::data(), req), &mut out);
        assert_eq!(src.stats().bytes_in, before, "retransmission added bytes");
        src.shutdown(&mut out);
        assert_eq!(out.len(), 1, "one unanswered request");
        assert_eq!(out[0].status, 0);
        assert_eq!(out[0].host, "dup.test");
    }

    /// A stream whose sequence numbers wrap past 2³² mid-message still
    /// reassembles, whatever order its segments arrive in: the OOO
    /// buffer orders by distance from the direction's origin, so the
    /// post-wrap segment (raw seq `0x…`) cannot jump ahead of the
    /// pre-wrap one the stream is waiting for.
    #[test]
    fn sequence_wrap_does_not_stall_the_ooo_buffer() {
        let client = (Ipv4Addr::new(10, 0, 0, 8), 30004u16);
        let server = (Ipv4Addr::new(93, 0, 0, 4), 80u16);
        let isn = 0xFFFF_FF00u32;
        let mut req = b"GET /wrap HTTP/1.1\r\nHost: wrap.test\r\nX-Pad: ".to_vec();
        req.resize(0x1f0, b'p');
        req.extend_from_slice(b"\r\n\r\n");
        // Three segments: the second ends exactly at the wrap, the third
        // starts at sequence number 0.
        let first = isn.wrapping_add(1);
        let cuts = [0usize, 0x80, 0xff, req.len()];
        assert_eq!(first.wrapping_add(cuts[2] as u32), 0, "third segment sits past the wrap");
        let segment = |i: usize| {
            let seq = first.wrapping_add(cuts[i] as u32);
            frame(client, server, seq, TcpFlags::data(), &req[cuts[i]..cuts[i + 1]])
        };
        // 3-1-2 holds one segment across the wrap; 3-2-1 holds two, which
        // is the order raw-sequence keys get wrong.
        for order in [[2, 0, 1], [2, 1, 0]] {
            let mut src = empty_source(CaptureConfig::default());
            let mut out = Vec::new();
            src.handle_frame(1.0, &frame(client, server, isn, TcpFlags::syn(), &[]), &mut out);
            for (n, i) in order.into_iter().enumerate() {
                src.handle_frame(1.1 + n as f64 * 0.1, &segment(i), &mut out);
            }
            src.shutdown(&mut out);
            assert_eq!(out.len(), 1, "order {order:?}: one request, one transaction");
            assert_eq!(out[0].uri, "/wrap");
            assert_eq!(out[0].host, "wrap.test");
            assert_eq!(src.stats().source_drops, 0, "order {order:?}");
            assert_eq!(src.stats().bytes_in, req.len() as u64, "order {order:?}");
        }
    }

    /// One magic table: the same capture stored with microsecond or
    /// nanosecond timestamps, in either byte order, yields bit-identical
    /// transactions through the offline pipeline and through the tail.
    #[test]
    fn all_four_pcap_magic_variants_read_identically_offline_and_tailed() {
        let episodes = wire_episode_set(23, 1, 1).unwrap();
        let native = episodes_pcap(&episodes);
        let mut report = IngestReport::new();
        let reference = SpanPipeline::extract_capture_lenient(&native, &mut report);
        assert!(!reference.is_empty());

        // The same packets under each header layout: every integer field
        // in the variant's byte order, sub-second ticks at its resolution.
        let packets = nettrace::capture::read_packets(&native).unwrap();
        let variant = |magic: u32, big_endian: bool, ticks_per_usec: u32| {
            let put = |out: &mut Vec<u8>, fields: &[u32]| {
                for v in fields {
                    out.extend_from_slice(&if big_endian { v.to_be_bytes() } else { v.to_le_bytes() });
                }
            };
            let mut out = Vec::with_capacity(native.len());
            // magic, version, thiszone, sigfigs, snaplen, linktype
            put(&mut out, &[magic, 0, 0, 0, 65535, pcap::LINKTYPE_ETHERNET]);
            for p in &packets {
                let sec = p.ts.floor();
                let ticks = ((p.ts - sec) * 1e6).round() as u32 * ticks_per_usec;
                let len = p.data.len() as u32;
                put(&mut out, &[sec as u32, ticks, len, len]);
                out.extend_from_slice(&p.data);
            }
            out
        };
        for (name, magic, big_endian, ticks) in [
            ("usec-le", pcap::MAGIC_USEC, false, 1),
            ("usec-be", pcap::MAGIC_USEC, true, 1),
            ("nsec-le", pcap::MAGIC_NSEC, false, 1000),
            ("nsec-be", pcap::MAGIC_NSEC, true, 1000),
        ] {
            let bytes = variant(magic, big_endian, ticks);
            let mut report = IngestReport::new();
            let offline = SpanPipeline::extract_capture_lenient(&bytes, &mut report);
            assert_eq!(offline, reference, "{name}: offline pipeline");
            assert!(SpanPipeline::extract_capture_strict(&bytes).is_ok(), "{name}: strict");

            let path = tmp_path(&format!("{name}.pcap"));
            std::fs::write(&path, &bytes).unwrap();
            let mut src =
                CaptureSource::pcap_file(&path, false, CaptureConfig::default()).unwrap();
            let mut tailed = Vec::new();
            pump_to_exhaustion(&mut src, &mut tailed);
            src.shutdown(&mut tailed);
            tailed.sort_by(|a, b| a.ts.total_cmp(&b.ts));
            assign_seq(&mut tailed);
            assert_eq!(tailed, reference, "{name}: capture source");
            std::fs::remove_file(&path).ok();
        }
    }

    /// A non-follow capture that ends mid-record is exhausted, not idle
    /// forever: the tail keeps the partial record pending, and with no
    /// writer to wait for that is the end.
    #[test]
    fn truncated_capture_without_follow_exhausts() {
        let episodes = wire_episode_set(24, 1, 0).unwrap();
        let bytes = episodes_pcap(&episodes);
        let path = tmp_path("cut.pcap");
        std::fs::write(&path, &bytes[..bytes.len() - 20]).unwrap();
        let mut src = CaptureSource::pcap_file(&path, false, CaptureConfig::default()).unwrap();
        let mut out = Vec::new();
        pump_to_exhaustion(&mut src, &mut out);
        src.shutdown(&mut out);
        assert!(!out.is_empty());
        std::fs::remove_file(&path).ok();
    }

    /// The BPF-style port filter keeps non-web flows out of the flow
    /// table entirely.
    #[test]
    fn port_filter_excludes_other_flows() {
        let client = (Ipv4Addr::new(10, 0, 0, 7), 30003u16);
        let other = (Ipv4Addr::new(93, 0, 0, 3), 9999u16);
        let mut src = empty_source(CaptureConfig::default());
        let mut out = Vec::new();
        src.handle_frame(1.0, &frame(client, other, 1, TcpFlags::syn(), &[]), &mut out);
        src.handle_frame(1.1, &frame(client, other, 2, TcpFlags::data(), b"hello"), &mut out);
        assert_eq!(src.active_flows(), 0);
        assert_eq!(src.stats().connections, 0);
        assert!(out.is_empty());
    }
}
