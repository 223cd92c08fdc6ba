//! TCP stream reassembly.
//!
//! Segments are grouped per unidirectional flow (source → destination
//! endpoint pair), ordered by sequence number relative to the flow's initial
//! sequence number, de-duplicated on retransmission, and flattened into a
//! contiguous byte stream. Each stream remembers the arrival timestamp of
//! every byte range so downstream consumers (the HTTP transaction extractor)
//! can attach timestamps to parsed messages.
//!
//! [`SpanReassembler`] is the offline (sort-at-end) reassembler: it
//! logs a capture's segments in arrival order as spans of the capture,
//! groups the log by flow with one counting sort, lays each flow as
//! trimmed arena ranges, and copies bytes only when a flow with more
//! than one chunk is staged for reading.
//! [`decode_frame`] is the one Ethernet → IPv4 → TCP decode ladder and
//! [`lay_segment`] the one overlap-trim / gap-skip step, both shared with
//! the online capture source in `wirefront`; [`timestamp_at`] is the one
//! timeline lookup, shared with the wire tap's live buffers.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::ether::{EtherFrame, ETHERTYPE_IPV4};
use crate::ipv4::{Ipv4Packet, PROTO_TCP};
use crate::tcp::TcpSegment;
use crate::Result;

/// One endpoint of a TCP flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Endpoint {
    /// IPv4 address.
    pub addr: Ipv4Addr,
    /// TCP port.
    pub port: u16,
}

impl Endpoint {
    /// Creates an endpoint from an address and port.
    pub fn new(addr: Ipv4Addr, port: u16) -> Self {
        Endpoint { addr, port }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.addr, self.port)
    }
}

/// A unidirectional flow key (sender → receiver).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FlowKey {
    /// Sending endpoint.
    pub src: Endpoint,
    /// Receiving endpoint.
    pub dst: Endpoint,
}

impl FlowKey {
    /// Creates a flow key.
    pub fn new(src: Endpoint, dst: Endpoint) -> Self {
        FlowKey { src, dst }
    }

    /// The same connection viewed from the opposite direction.
    pub fn reversed(&self) -> FlowKey {
        FlowKey { src: self.dst, dst: self.src }
    }

    /// A direction-independent identifier for the connection: the smaller
    /// endpoint (by address, then port) first.
    pub fn connection_id(&self) -> (Endpoint, Endpoint) {
        if self.src <= self.dst {
            (self.src, self.dst)
        } else {
            (self.dst, self.src)
        }
    }
}

/// Decodes one captured link-layer frame down to its TCP segment and
/// the unidirectional flow it belongs to.
///
/// `Ok(None)` is a well-formed frame that simply is not IPv4/TCP (ARP,
/// UDP, IPv6, …); the segment borrows from `frame`.
///
/// # Errors
///
/// The layer error when the Ethernet, IPv4 or TCP header fails to parse.
pub fn decode_frame(frame: &[u8]) -> Result<Option<(FlowKey, TcpSegment<'_>)>> {
    let eth = EtherFrame::parse(frame)?;
    if eth.ethertype != ETHERTYPE_IPV4 {
        return Ok(None);
    }
    let ip = Ipv4Packet::parse(eth.payload)?;
    if ip.protocol != PROTO_TCP {
        return Ok(None);
    }
    let tcp = TcpSegment::parse(ip.payload)?;
    let key =
        FlowKey::new(Endpoint::new(ip.src, tcp.src_port), Endpoint::new(ip.dst, tcp.dst_port));
    Ok(Some((key, tcp)))
}

/// A borrowed view of one reassembled unidirectional stream: it borrows
/// from the capture arena or from the buffer its stream was staged into.
/// The HTTP transaction extractor parses views.
#[derive(Debug, Clone, Copy)]
pub struct StreamView<'a> {
    /// The flow this stream belongs to.
    pub key: FlowKey,
    /// Reassembled application bytes in sequence order.
    pub data: &'a [u8],
    /// `(byte_offset, timestamp)` markers, sorted by offset.
    pub timeline: &'a [(usize, f64)],
    /// Whether a FIN or RST was observed on this direction.
    pub closed: bool,
}

impl StreamView<'_> {
    /// Arrival timestamp of the byte at `offset` (see [`timestamp_at`]).
    pub fn timestamp_at(&self, offset: usize) -> f64 {
        timestamp_at(self.timeline, offset)
    }
}

/// Arrival timestamp of the byte at `offset` under a `(byte_offset,
/// timestamp)` timeline sorted by offset: that of the last marker at or
/// before it (the segment that carried the byte), so offsets past the end
/// read the last known timestamp; the first marker's when `offset`
/// precedes them all, 0 for an empty timeline. The one lookup behind
/// reassembled streams and the wire tap's live buffers.
#[inline]
pub fn timestamp_at(timeline: &[(usize, f64)], offset: usize) -> f64 {
    let after = timeline.partition_point(|&(o, _)| o <= offset);
    timeline.get(after.saturating_sub(1)).map_or(0.0, |&(_, ts)| ts)
}

/// The reassemblers' shared arbitration step: lays one segment of `len`
/// bytes at stream offset `rel` against `next`, the offset of the first
/// byte not laid yet. A segment starting past `next` leaves a hole that is
/// skipped and counted in `gaps`; bytes below `next` were laid before and
/// the first copy wins. Returns how many leading bytes to trim (`next`
/// then moves past the segment), or `None` when nothing in it is new.
#[inline]
pub fn lay_segment(next: &mut u64, rel: u64, len: usize, gaps: &mut u64) -> Option<usize> {
    if rel > *next {
        *gaps += 1;
        *next = rel;
    }
    let overlap = (*next - rel) as usize;
    if overlap >= len {
        return None;
    }
    *next = rel + len as u64;
    Some(overlap)
}

/// One logged segment: its flow, its sequence number and flags, and its
/// payload as a span of the capture arena.
#[derive(Debug, Clone, Copy)]
struct Logged {
    flow: u32,
    seq: u32,
    ts: f64,
    start: usize,
    len: u32,
    syn: bool,
    /// A FIN or an RST.
    close: bool,
}

/// One flow's state while its logged segments are admitted in arrival
/// order.
#[derive(Debug, Default)]
struct SpanFlowState {
    /// Sequence number of the flow's first data byte: one past a SYN's,
    /// else provisional, that of the lowest data segment so far.
    base: Option<u32>,
    from_syn: bool,
    closed: bool,
}

impl SpanFlowState {
    /// Admits logged segment `at`, the flow's next in arrival order, onto
    /// `chunks`, the flow's `(offset from the flow base, log index)`
    /// chunks so far.
    fn admit(&mut self, seg: &Logged, at: u32, chunks: &mut Vec<(u64, u32)>) {
        if seg.syn {
            let syn_base = seg.seq.wrapping_add(1);
            if let (Some(base), false) = (self.base, self.from_syn) {
                // Data outran the SYN (reordered capture): re-key the
                // buffered chunks to the SYN's base so they line up with
                // segments still to come.
                match u64::try_from(base.wrapping_sub(syn_base) as i32) {
                    Ok(shift) => chunks.iter_mut().for_each(|c| c.0 += shift),
                    // Buffered data claimed to precede the SYN: stale
                    // retransmission, dropped.
                    Err(_) => chunks.clear(),
                }
            }
            (self.base, self.from_syn) = (Some(syn_base), true);
        }
        self.closed |= seg.close;
        if seg.len == 0 {
            return;
        }
        let rel = seg.seq.wrapping_sub(*self.base.get_or_insert(seg.seq)) as i32;
        if rel < 0 {
            if self.from_syn {
                return; // data claiming to precede the SYN: stale retransmission
            }
            // Out-of-order arrival below the provisional base: rebase.
            chunks.iter_mut().for_each(|c| c.0 += u64::from(rel.unsigned_abs()));
            self.base = Some(seg.seq);
        }
        chunks.push((u64::from(rel.max(0) as u32), at));
    }
}

/// Where one laid stream's bytes lie in the capture arena.
#[derive(Debug, PartialEq)]
enum StreamSrc {
    /// One chunk: the stream is this span of the arena, viewed in place
    /// and never copied.
    Arena(Range<usize>),
    /// Several chunks, arbitrated: trimmed arena ranges
    /// (`LaidStreams::pieces[range]`, in stream order) that staging
    /// copies end to end.
    Pieces(Range<usize>),
}

#[derive(Debug, PartialEq)]
struct StreamDesc {
    key: FlowKey,
    src: StreamSrc,
    timeline: Range<usize>,
    closed: bool,
}

/// Every stream of one capture as [`SpanReassembler::lay_streams`] laid
/// it: where its bytes lie in the arena and when they arrived, with no
/// byte copied. A stream of several pieces has no contiguous bytes yet,
/// so there is no view of it here, only its first bytes
/// ([`LaidStreams::head`]) and what staging it would copy
/// ([`LaidStreams::copy_len`]); [`LaidStreams::stage`] gives the views.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct LaidStreams {
    pieces: Vec<Range<usize>>,
    timeline: Vec<(usize, f64)>,
    streams: Vec<StreamDesc>,
}

impl LaidStreams {
    /// Number of streams laid.
    pub(crate) fn len(&self) -> usize {
        self.streams.len()
    }

    /// The flow stream `i` belongs to.
    pub(crate) fn key(&self, i: usize) -> FlowKey {
        self.streams[i].key
    }

    /// Stream `i`'s bytes as arena ranges, in stream order.
    fn ranges(&self, i: usize) -> &[Range<usize>] {
        match &self.streams[i].src {
            StreamSrc::Arena(r) => std::slice::from_ref(r),
            StreamSrc::Pieces(p) => &self.pieces[p.clone()],
        }
    }

    /// Bytes that staging stream `i` copies: 0 for a stream viewed in
    /// place.
    pub(crate) fn copy_len(&self, i: usize) -> usize {
        match &self.streams[i].src {
            StreamSrc::Arena(_) => 0,
            StreamSrc::Pieces(p) => self.pieces[p.clone()].iter().map(Range::len).sum(),
        }
    }

    /// The first `out.len()` bytes of stream `i` (all of it if shorter),
    /// read across its pieces without staging it.
    pub(crate) fn head<'o>(&self, arena: &[u8], i: usize, out: &'o mut [u8]) -> &'o [u8] {
        let mut n = 0;
        for r in self.ranges(i) {
            let take = (out.len() - n).min(r.len());
            out[n..n + take].copy_from_slice(&arena[r.start..r.start + take]);
            n += take;
        }
        &out[..n]
    }

    /// Stages streams `ids`, in that order, into `stage` (whatever it
    /// held before is dropped): each stream of several pieces is copied
    /// end to end into its one reused buffer, the only copy of stream
    /// bytes in reassembly. The views it returns are the only views of
    /// those streams.
    pub(crate) fn stage<'a>(
        &'a self,
        arena: &'a [u8],
        ids: impl Iterator<Item = usize> + Clone,
        stage: &'a mut Stage,
    ) -> Staged<'a> {
        stage.bytes.clear();
        stage.staged.clear();
        stage.bytes.reserve(ids.clone().map(|i| self.copy_len(i)).sum());
        for i in ids {
            let start = stage.bytes.len();
            if let StreamSrc::Pieces(p) = &self.streams[i].src {
                for r in &self.pieces[p.clone()] {
                    stage.bytes.extend_from_slice(&arena[r.clone()]);
                }
            }
            stage.staged.push((i, start..stage.bytes.len()));
        }
        Staged { laid: self, arena, stage }
    }
}

/// Reused staging buffer for [`LaidStreams::stage`]: the copied bytes of
/// the streams staged last, and where each staged stream's bytes are.
/// Its capacity survives across stagings and captures.
#[derive(Debug, Default)]
pub(crate) struct Stage {
    bytes: Vec<u8>,
    /// Per staged stream, in staging order: its index and its bytes in
    /// `bytes` (empty for a stream viewed in place).
    staged: Vec<(usize, Range<usize>)>,
}

/// The streams one [`LaidStreams::stage`] call staged, viewable.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Staged<'a> {
    laid: &'a LaidStreams,
    arena: &'a [u8],
    stage: &'a Stage,
}

impl<'a> Staged<'a> {
    /// Borrows the `k`-th stream staged.
    pub(crate) fn view(self, k: usize) -> StreamView<'a> {
        let (i, copied) = &self.stage.staged[k];
        let d = &self.laid.streams[*i];
        let data = match &d.src {
            StreamSrc::Arena(r) => &self.arena[r.clone()],
            StreamSrc::Pieces(_) => &self.stage.bytes[copied.clone()],
        };
        StreamView {
            key: d.key,
            data,
            timeline: &self.laid.timeline[d.timeline.clone()],
            closed: d.closed,
        }
    }
}

/// Reused output buffer for [`SpanReassembler::gather_streams`]: every
/// stream of a capture, laid and staged at once. All of it lives in flat
/// vectors whose capacity survives across captures, so steady-state
/// reassembly allocates nothing.
#[derive(Debug, Default)]
pub struct StreamBuf {
    laid: LaidStreams,
    /// Every laid stream, staged in index order.
    stage: Stage,
}

impl StreamBuf {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        StreamBuf::default()
    }

    /// Number of streams held.
    pub fn len(&self) -> usize {
        self.laid.len()
    }

    /// Whether no streams are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates all stream views in first-seen flow order. `arena` must
    /// be the capture the spans were pushed from (single-span streams
    /// read straight out of it).
    pub fn views<'a>(&'a self, arena: &'a [u8]) -> impl Iterator<Item = StreamView<'a>> {
        let staged = Staged { laid: &self.laid, arena, stage: &self.stage };
        (0..self.len()).map(move |i| staged.view(i))
    }
}

#[cfg(test)]
thread_local! {
    /// Flow-table probes made on this thread, for the tests that count them.
    static FLOW_PROBES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Reassembles TCP segments into per-flow byte streams without copying
/// them on the way in: logs `(ts, span)` segments in arrival order and,
/// when the capture ends, lays each flow as trimmed arena ranges; bytes
/// are copied only when a flow of more than one chunk is staged.
///
/// Feed every segment of a capture with [`SpanReassembler::push_span`],
/// then call [`SpanReassembler::gather_streams`] (or, inside the crate,
/// `lay_streams` and stage what is needed a window at a time). Within a
/// flow the first copy of each byte wins, and gaps (lost segments) are
/// skipped and counted: later bytes are appended directly after earlier
/// ones, as libpcap-based HTTP tooling does on lossy captures. Laying
/// empties the reassembler but keeps its capacity, so a warm one, with a
/// warm [`StreamBuf`], processes a capture without allocating.
#[derive(Debug, Default)]
pub struct SpanReassembler {
    /// Each flow's id: its place in `keys`, the flows in first-seen order.
    ids: HashMap<FlowKey, u32>,
    keys: Vec<FlowKey>,
    /// Every segment but bare ACKs, in arrival order.
    log: Vec<Logged>,
    /// Laying's scratch: each flow's start in `by_flow` (then the end),
    /// the log's indices grouped by flow, and one flow's chunks.
    starts: Vec<u32>,
    by_flow: Vec<u32>,
    chunks: Vec<(u64, u32)>,
}

impl SpanReassembler {
    /// Creates an empty reassembler.
    pub fn new() -> Self {
        SpanReassembler::default()
    }

    /// Adds one segment observed at time `ts` on flow `key`, with
    /// `payload` locating `seg.payload` inside the capture arena
    /// (callers recover it with [`crate::arena::subslice_range`]): one
    /// flow-table probe and, unless the segment is a bare ACK, one
    /// append to the log.
    pub fn push_span(
        &mut self,
        ts: f64,
        key: FlowKey,
        seg: &TcpSegment<'_>,
        payload: Range<usize>,
    ) {
        debug_assert_eq!(payload.len(), seg.payload.len());
        #[cfg(test)]
        FLOW_PROBES.with(|n| n.set(n.get() + 1));
        let id = u32::try_from(self.keys.len()).expect("fewer than 2^32 flows");
        let flow = *self.ids.entry(key).or_insert_with(|| {
            self.keys.push(key);
            id
        });
        let (syn, close) = (seg.flags.syn, seg.flags.fin || seg.flags.rst);
        if syn || close || !payload.is_empty() {
            let len = u32::try_from(payload.len()).expect("an IPv4 total length bounds a payload");
            let start = payload.start;
            self.log.push(Logged { flow, seq: seg.seq, ts, start, len, syn, close });
        }
    }

    /// Finishes reassembly into `buf`: the streams are laid (see
    /// `lay_streams`), then all staged, readable through
    /// [`StreamBuf::views`]. Every skipped sequence discontinuity is
    /// counted into `gaps`, so ingest reports reassembly stalls instead of
    /// papering over them.
    pub fn gather_streams(&mut self, arena: &[u8], gaps: &mut u64, buf: &mut StreamBuf) {
        self.lay_streams(gaps, &mut buf.laid);
        buf.laid.stage(arena, 0..buf.laid.len(), &mut buf.stage);
    }

    /// Finishes reassembly into `laid` (cleared first), one stream per
    /// flow in first-seen order, copying no byte. One counting sort
    /// groups the log by flow, each flow's segments in arrival order;
    /// each flow's segments are admitted through its SYN / base / stale
    /// rules, sorted by `(offset, arrival)` and arbitrated by
    /// [`lay_segment`] into trimmed arena ranges and a timeline, and every
    /// skipped discontinuity is counted into `gaps`. Empties the
    /// reassembler like [`SpanReassembler::gather_streams`].
    pub(crate) fn lay_streams(&mut self, gaps: &mut u64, laid: &mut LaidStreams) {
        laid.pieces.clear();
        laid.timeline.clear();
        laid.streams.clear();
        // Count each flow's segments, sum the counts to bucket ends, and
        // fill each bucket from its end down: the ends become the starts.
        let starts = &mut self.starts;
        starts.clear();
        starts.resize(self.keys.len() + 1, 0);
        self.log.iter().for_each(|seg| starts[seg.flow as usize] += 1);
        let mut end = 0;
        for n in starts.iter_mut() {
            end += *n;
            *n = end;
        }
        self.by_flow.resize(self.log.len(), 0);
        for (at, seg) in self.log.iter().enumerate().rev() {
            let start = &mut starts[seg.flow as usize];
            *start -= 1;
            self.by_flow[*start as usize] = u32::try_from(at).expect("fewer than 2^32 segments");
        }
        for (flow, &key) in self.keys.iter().enumerate() {
            let mut state = SpanFlowState::default();
            self.chunks.clear();
            for &at in &self.by_flow[starts[flow] as usize..starts[flow + 1] as usize] {
                state.admit(&self.log[at as usize], at, &mut self.chunks);
            }
            // A log index orders arrivals: a retransmission landing on an
            // already-buffered offset loses to the first arrival.
            self.chunks.sort_unstable();
            let (tl_start, pieces_start) = (laid.timeline.len(), laid.pieces.len());
            let (mut len, mut next_rel, mut prev_rel) = (0usize, 0u64, u64::MAX);
            for &(rel, at) in &self.chunks {
                if rel == prev_rel {
                    continue; // later arrival at a taken offset: dropped wholly
                }
                prev_rel = rel;
                let c = &self.log[at as usize];
                let Some(trim) = lay_segment(&mut next_rel, rel, c.len as usize, gaps) else {
                    continue; // fully retransmitted
                };
                laid.timeline.push((len, c.ts));
                laid.pieces.push(c.start + trim..c.start + c.len as usize);
                len += c.len as usize - trim;
            }
            // A flow of one chunk is its one piece, viewed in place.
            let src = match self.chunks.len() {
                1 => StreamSrc::Arena(laid.pieces.pop().expect("one chunk lays one piece")),
                _ => StreamSrc::Pieces(pieces_start..laid.pieces.len()),
            };
            let timeline = tl_start..laid.timeline.len();
            laid.streams.push(StreamDesc { key, src, timeline, closed: state.closed });
        }
        self.ids.clear();
        self.keys.clear();
        self.log.clear();
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::{self, TcpFlags};

    fn key() -> FlowKey {
        FlowKey::new(
            Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 40000),
            Endpoint::new(Ipv4Addr::new(93, 184, 216, 34), 80),
        )
    }

    /// One gathered stream, copied out of the arena for assertions.
    struct Gathered {
        key: FlowKey,
        data: Vec<u8>,
        timeline: Vec<(usize, f64)>,
        closed: bool,
    }

    impl Gathered {
        fn timestamp_at(&self, offset: usize) -> f64 {
            StreamView { key: self.key, data: &self.data, timeline: &self.timeline, closed: self.closed }
                .timestamp_at(offset)
        }
    }

    /// A scripted capture: segments are laid end to end in one arena and
    /// pushed by span with payload offsets recovered via `subslice_range`,
    /// exactly like the production pipeline.
    #[derive(Default)]
    pub(super) struct Script {
        arena: Vec<u8>,
        segments: Vec<(f64, FlowKey, Range<usize>)>,
    }

    impl Script {
        pub(super) fn segment(
            &mut self,
            ts: f64,
            k: FlowKey,
            seq: u32,
            flags: TcpFlags,
            data: &[u8],
        ) {
            let raw = tcp::build(k.src.port, k.dst.port, seq, 0, flags, data);
            self.segments.push((ts, k, self.arena.len()..self.arena.len() + raw.len()));
            self.arena.extend_from_slice(&raw);
        }

        fn data(&mut self, ts: f64, k: FlowKey, seq: u32, data: &[u8]) {
            self.segment(ts, k, seq, TcpFlags::data(), data);
        }

        /// Hands every segment to `push` with its payload's span.
        pub(super) fn each(
            &self,
            mut push: impl FnMut(f64, FlowKey, &TcpSegment<'_>, Range<usize>),
        ) {
            for (ts, k, raw) in &self.segments {
                let seg = TcpSegment::parse(&self.arena[raw.clone()]).unwrap();
                push(*ts, *k, &seg, crate::arena::subslice_range(&self.arena, seg.payload));
            }
        }

        pub(super) fn push_all(&self, r: &mut SpanReassembler) {
            self.each(|ts, k, seg, payload| r.push_span(ts, k, seg, payload));
        }

        /// Reassembles the script: the gathered streams and the gap count.
        fn run(&self) -> (Vec<Gathered>, u64) {
            let mut r = SpanReassembler::new();
            self.push_all(&mut r);
            let mut gaps = 0;
            let mut buf = StreamBuf::new();
            r.gather_streams(&self.arena, &mut gaps, &mut buf);
            let streams = buf
                .views(&self.arena)
                .map(|v| Gathered {
                    key: v.key,
                    data: v.data.to_vec(),
                    timeline: v.timeline.to_vec(),
                    closed: v.closed,
                })
                .collect();
            (streams, gaps)
        }

        fn streams(&self) -> Vec<Gathered> {
            self.run().0
        }
    }

    #[test]
    fn in_order_segments_concatenate() {
        let mut s = Script::default();
        s.data(1.0, key(), 100, b"hello ");
        s.data(2.0, key(), 106, b"world");
        let streams = s.streams();
        assert_eq!(streams.len(), 1);
        assert_eq!(streams[0].data, b"hello world");
    }

    #[test]
    fn out_of_order_segments_are_sorted() {
        let mut s = Script::default();
        s.data(2.0, key(), 106, b"world");
        s.data(1.0, key(), 100, b"hello ");
        assert_eq!(s.streams()[0].data, b"hello world");
    }

    #[test]
    fn syn_arriving_after_data_rebases_buffered_chunks() {
        // Multi-queue reordering can deliver data segments before the
        // SYN. The buffered bytes must be re-keyed to the SYN's base:
        // no false gap, no dropped bytes.
        let mut s = Script::default();
        s.data(2.0, key(), 6400, b"world"); // second chunk, first to arrive
        s.segment(1.0, key(), 4999, TcpFlags::syn(), b"");
        s.data(1.5, key(), 5000, &[b'x'; 1400]);
        let (streams, gaps) = s.run();
        assert_eq!(gaps, 0, "reordering is not loss");
        assert_eq!(streams[0].data.len(), 1405);
        assert!(streams[0].data.ends_with(b"world"));
    }

    #[test]
    fn stale_data_below_a_late_syn_is_dropped() {
        // A segment below the SYN's base is a stale retransmission from
        // an earlier connection on the same 4-tuple; a late SYN must
        // discard it rather than splice it in.
        let mut s = Script::default();
        s.data(1.0, key(), 100, b"stale");
        s.segment(2.0, key(), 499, TcpFlags::syn(), b"");
        s.data(3.0, key(), 500, b"fresh");
        let (streams, gaps) = s.run();
        assert_eq!(gaps, 0);
        assert_eq!(streams[0].data, b"fresh");
    }

    #[test]
    fn stale_data_below_an_established_syn_is_dropped() {
        let mut s = Script::default();
        s.segment(1.0, key(), 4999, TcpFlags::syn(), b"");
        s.data(1.5, key(), 5000, b"front");
        s.data(2.5, key(), 4000, b"stale");
        assert_eq!(s.streams()[0].data, b"front");
    }

    #[test]
    fn data_below_a_provisional_base_rebases_the_flow() {
        // No SYN captured: the base comes from the first segment seen,
        // and an earlier segment arriving later moves it down.
        let mut s = Script::default();
        s.data(1.0, key(), 500, b"tail");
        s.data(2.0, key(), 100, b"head");
        let (streams, gaps) = s.run();
        assert_eq!(streams[0].data, b"headtail");
        assert_eq!(gaps, 1, "the bytes between were never captured");
    }

    #[test]
    fn retransmissions_are_deduplicated() {
        let mut s = Script::default();
        s.data(1.0, key(), 100, b"abc");
        s.data(2.0, key(), 100, b"abc");
        s.data(3.0, key(), 103, b"def");
        assert_eq!(s.streams()[0].data, b"abcdef");
    }

    #[test]
    fn longer_retransmission_at_a_taken_offset_is_dropped_whole() {
        let mut s = Script::default();
        s.data(1.0, key(), 100, b"abc");
        s.data(2.0, key(), 100, b"abcdef");
        s.data(3.0, key(), 103, b"XYZ");
        assert_eq!(s.streams()[0].data, b"abcXYZ");
    }

    #[test]
    fn partial_overlap_keeps_first_copy() {
        let mut s = Script::default();
        s.data(1.0, key(), 100, b"abcd");
        s.data(2.0, key(), 102, b"CDEF");
        assert_eq!(s.streams()[0].data, b"abcdEF");
    }

    #[test]
    fn reordering_retransmission_and_overlap_compose() {
        let mut s = Script::default();
        s.data(2.0, key(), 106, b"world");
        s.data(1.0, key(), 100, b"hello ");
        s.data(3.0, key(), 100, b"HELLO ");
        s.data(4.0, key(), 104, b"o WOR");
        let (streams, gaps) = s.run();
        assert_eq!(streams[0].data, b"hello WORld");
        assert_eq!(gaps, 0);
    }

    #[test]
    fn syn_consumes_one_sequence_number() {
        let mut s = Script::default();
        s.segment(0.5, key(), 999, TcpFlags::syn(), b"");
        s.data(1.0, key(), 1000, b"data");
        let streams = s.streams();
        assert_eq!(streams[0].data, b"data");
        assert!(!streams[0].closed);
    }

    #[test]
    fn fin_and_rst_mark_stream_closed() {
        let rst = TcpFlags { rst: true, ack: true, ..TcpFlags::default() };
        for flags in [TcpFlags::fin(), rst] {
            let mut s = Script::default();
            s.data(1.0, key(), 1, b"x");
            s.segment(2.0, key(), 2, flags, b"");
            assert!(s.streams()[0].closed);
        }
    }

    #[test]
    fn directions_are_separate_flows() {
        let mut s = Script::default();
        s.data(1.0, key(), 1, b"request");
        s.data(2.0, key().reversed(), 1, b"response");
        let streams = s.streams();
        assert_eq!(streams.len(), 2);
        assert_eq!(streams[0].data, b"request");
        assert_eq!(streams[1].data, b"response");
        assert_eq!(streams[0].key.connection_id(), streams[1].key.connection_id());
    }

    #[test]
    fn timeline_maps_offsets_to_timestamps() {
        let mut s = Script::default();
        s.data(1.0, key(), 100, b"aaaa");
        s.data(5.0, key(), 104, b"bbbb");
        let st = &s.streams()[0];
        assert_eq!(st.timestamp_at(0), 1.0);
        assert_eq!(st.timestamp_at(3), 1.0);
        assert_eq!(st.timestamp_at(4), 5.0);
        assert_eq!(st.timestamp_at(100), 5.0); // past-the-end falls back
    }

    #[test]
    fn gap_is_skipped_rather_than_stalling() {
        let mut s = Script::default();
        s.data(1.0, key(), 100, b"abc");
        s.data(2.0, key(), 200, b"xyz");
        assert_eq!(s.streams()[0].data, b"abcxyz");
    }

    #[test]
    fn gaps_are_counted_per_discontinuity() {
        let mut s = Script::default();
        s.data(1.0, key(), 100, b"abc"); // rel 0
        s.data(2.0, key(), 200, b"xyz"); // gap 1
        s.data(3.0, key(), 300, b"pqr"); // gap 2
        s.data(4.0, key().reversed(), 1, b"clean");
        let (streams, gaps) = s.run();
        assert_eq!(streams.len(), 2);
        assert_eq!(gaps, 2);
    }

    #[test]
    fn contiguous_and_retransmitted_streams_count_no_gaps() {
        let mut s = Script::default();
        s.data(1.0, key(), 100, b"abc");
        s.data(2.0, key(), 100, b"abc"); // retransmit
        s.data(3.0, key(), 103, b"def");
        assert_eq!(s.run().1, 0);
    }

    #[test]
    fn single_segment_stream_borrows_the_arena() {
        let mut s = Script::default();
        s.data(1.0, key(), 100, b"only");
        let mut r = SpanReassembler::new();
        s.push_all(&mut r);
        let mut buf = StreamBuf::new();
        r.gather_streams(&s.arena, &mut 0, &mut buf);
        let view = buf.views(&s.arena).next().expect("one stream");
        assert_eq!(view.data, b"only");
        assert!(s.arena.as_ptr_range().contains(&view.data.as_ptr()), "no gather copy");
    }

    #[test]
    fn laid_stream_heads_read_across_pieces_without_staging() {
        let mut s = Script::default();
        s.data(1.0, key(), 100, b"GE");
        s.data(2.0, key(), 102, b"T /");
        s.data(3.0, key(), 102, b"T /"); // retransmission: not a piece
        s.data(4.0, key(), 105, b"index.html");
        s.data(5.0, key().reversed(), 1, b"HTTP/1.1 200 OK");
        let mut r = SpanReassembler::new();
        s.push_all(&mut r);
        let mut laid = LaidStreams::default();
        r.lay_streams(&mut 0, &mut laid);
        let mut head = [0u8; 8];
        assert_eq!(laid.head(&s.arena, 0, &mut head), b"GET /ind");
        assert_eq!(laid.head(&s.arena, 1, &mut head), b"HTTP/1.1");
        let mut wide = [0u8; 32];
        assert_eq!(laid.head(&s.arena, 0, &mut wide), b"GET /index.html");
        // Only the stream of several pieces copies when staged.
        assert_eq!((laid.copy_len(0), laid.copy_len(1)), (15, 0));
        let mut stage = Stage::default();
        let staged = laid.stage(&s.arena, [1, 0].into_iter(), &mut stage);
        assert_eq!(staged.view(0).data, b"HTTP/1.1 200 OK");
        assert_eq!(staged.view(1).data, b"GET /index.html");
        assert!(s.arena.as_ptr_range().contains(&staged.view(0).data.as_ptr()), "borrowed");
    }

    #[test]
    fn span_reassembler_reuse_is_clean_across_captures() {
        let mut s = Script::default();
        s.data(1.0, key(), 100, b"abc");
        s.data(2.0, key(), 103, b"def");
        let mut spans = SpanReassembler::new();
        let mut buf = StreamBuf::new();
        for round in 0..3 {
            s.push_all(&mut spans);
            let mut gaps = 0;
            spans.gather_streams(&s.arena, &mut gaps, &mut buf);
            assert_eq!(gaps, 0, "round {round}");
            assert_eq!(buf.len(), 1);
            assert_eq!(buf.views(&s.arena).next().expect("one stream").data, b"abcdef");
        }
    }

    #[test]
    fn decode_frame_sorts_frames_three_ways() {
        use crate::ether::MacAddr;
        let seg = tcp::build(40000, 80, 7, 0, TcpFlags::data(), b"hi");
        let ip = crate::ipv4::build(key().src.addr, key().dst.addr, PROTO_TCP, 1, &seg);
        let frame = crate::ether::build(MacAddr::default(), MacAddr::default(), ETHERTYPE_IPV4, &ip);
        let (k, tcp) = decode_frame(&frame).unwrap().expect("tcp");
        assert_eq!(k, key());
        assert_eq!((tcp.seq, tcp.payload), (7, &b"hi"[..]));
        let udp = crate::ipv4::build(key().src.addr, key().dst.addr, 17, 1, &seg);
        let udp_frame = crate::ether::build(MacAddr::default(), MacAddr::default(), ETHERTYPE_IPV4, &udp);
        assert!(decode_frame(&udp_frame).unwrap().is_none());
        assert!(decode_frame(&[0xff; 60]).unwrap().is_none(), "not IPv4");
        assert!(decode_frame(&[0u8; 4]).is_err(), "too short for Ethernet");
        assert!(decode_frame(&frame[..20]).is_err(), "truncated IPv4 header");
    }

    /// Every prefix of a TCP frame with IPv4 and TCP options, a UDP frame
    /// and an ARP frame, and 2 000 seeded single-bit flips of each, decode
    /// without a panic: a TCP payload is a subslice of the frame that ends
    /// where the IPv4 total length says, and an IHL, total length or data
    /// offset declared beyond the frame is an error, not a clamp.
    #[test]
    fn decode_frame_totality() {
        use crate::ether::{self, MacAddr, HEADER_LEN};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let ipv4 = |protocol, transport: &[u8], options: &[u8]| {
            let mut ip = crate::ipv4::build(key().src.addr, key().dst.addr, protocol, 1, transport);
            ip[0] = 0x45 + options.len() as u8 / 4;
            ip.splice(20..20, options.iter().copied());
            let total = ip.len() as u16;
            ip[2..4].copy_from_slice(&total.to_be_bytes());
            ether::build(MacAddr::default(), MacAddr::default(), ETHERTYPE_IPV4, &ip)
        };
        let mut seg = tcp::build(40000, 80, 7, 0, TcpFlags::data(), b"");
        seg[12] = 8 << 4; // MSS, SACK permitted, NOPs, end of options
        seg.extend_from_slice(&[2, 4, 0x05, 0xb4, 4, 2, 1, 1, 1, 1, 1, 0]);
        seg.extend_from_slice(b"GET / HTTP/1.1\r\n\r\n");
        let arp = [&[0, 1, 8, 0, 6, 4, 0, 1][..], &[0; 20]].concat();
        let frames = [
            ipv4(PROTO_TCP, &seg, &[1, 1, 1, 0]),
            ipv4(17, &[0x9c, 0x40, 0, 53, 0, 11, 0, 0, b'u', b'd', b'p'], &[]),
            ether::build(MacAddr::default(), MacAddr::default(), 0x0806, &arp),
        ];
        let check = |f: &[u8]| {
            let decoded = decode_frame(f);
            let is_ipv4 = f.len() >= HEADER_LEN + 20 && f[12..14] == [8, 0] && f[14] >> 4 == 4;
            if !is_ipv4 {
                return;
            }
            let ip = &f[HEADER_LEN..];
            let ihl = usize::from(ip[0] & 0x0f) * 4;
            let total = usize::from(u16::from_be_bytes([ip[2], ip[3]]));
            let beyond = ihl > ip.len() || total > ip.len();
            let offset_beyond = !beyond
                && ip[9] == PROTO_TCP
                && (20..=total).contains(&ihl)
                && total >= ihl + 13
                && ihl + usize::from(ip[ihl + 12] >> 4) * 4 > total;
            if beyond || offset_beyond {
                assert!(decoded.is_err(), "declared beyond the frame: {f:02x?}");
            }
            if let Ok(Some((_, tcp))) = decoded {
                let payload = tcp.payload.as_ptr_range();
                assert!(f.as_ptr_range().contains(&payload.start) || tcp.payload.is_empty());
                assert_eq!(payload.end, f[HEADER_LEN + total..].as_ptr(), "ends at total length");
            }
        };
        for frame in &frames {
            (0..=frame.len()).for_each(|cut| check(&frame[..cut]));
        }
        let mut rng = StdRng::seed_from_u64(0xdec0);
        for frame in &frames {
            for _ in 0..2_000 {
                let mut bytes = frame.clone();
                let bit = rng.gen_range(0..bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
                check(&bytes);
            }
        }
    }
}
