//! The per-flow reassembler the segment log replaced, kept as the test
//! oracle: every flow owns its chunk vector, and each push runs the flow's
//! SYN / provisional-base / stale-data rules at once, rebasing the chunks
//! buffered so far. The differential test below feeds generated
//! multi-flow segment schedules to both reassemblers and requires the
//! same laid streams (pieces, timelines, closed flags, stream order) and
//! the same gap count.

use std::collections::HashMap;
use std::ops::Range;

use super::{lay_segment, FlowKey, LaidStreams, StreamDesc, StreamSrc};
use crate::tcp::TcpSegment;

/// One buffered TCP chunk: payload bytes as a range into the capture
/// arena.
#[derive(Debug, Clone)]
struct SpanChunk {
    /// Offset from the flow base (mutable: rebases shift it).
    rel: u64,
    /// Arrival order within the flow: the sort's tie-break.
    order: u32,
    ts: f64,
    range: Range<usize>,
}

#[derive(Debug, Default)]
struct SpanFlowState {
    chunks: Vec<SpanChunk>,
    next_order: u32,
    /// Initial sequence number (sequence of SYN, or first data byte when no
    /// SYN was captured).
    isn: Option<u32>,
    /// Whether the ISN came from a SYN (data then starts at `isn + 1`).
    isn_from_syn: bool,
    closed: bool,
}

impl SpanFlowState {
    /// Sequence number of the flow's first data byte.
    fn base(&self) -> u32 {
        let isn = self.isn.expect("isn set before base()");
        if self.isn_from_syn {
            isn.wrapping_add(1)
        } else {
            isn
        }
    }
}

/// The per-flow reassembler: a chunk vector per flow and the flows'
/// first-seen order.
#[derive(Debug, Default)]
pub(super) struct SpanReassembler {
    flows: HashMap<FlowKey, SpanFlowState>,
    order: Vec<FlowKey>,
}

impl SpanReassembler {
    pub(super) fn push_span(
        &mut self,
        ts: f64,
        key: FlowKey,
        seg: &TcpSegment<'_>,
        payload: Range<usize>,
    ) {
        let state = match self.flows.get_mut(&key) {
            Some(s) => s,
            None => {
                self.order.push(key);
                self.flows.entry(key).or_default()
            }
        };
        if seg.flags.syn {
            if let (Some(old_isn), false) = (state.isn, state.isn_from_syn) {
                // Data outran the SYN: re-key the buffered chunks from the
                // provisional base to the SYN's.
                let new_base = seg.seq.wrapping_add(1);
                let diff = old_isn.wrapping_sub(new_base) as i32;
                if diff >= 0 {
                    let shift = diff as u64;
                    for c in &mut state.chunks {
                        c.rel += shift;
                    }
                } else {
                    // Buffered data claimed to precede the SYN: stale.
                    state.chunks.clear();
                }
            }
            state.isn = Some(seg.seq);
            state.isn_from_syn = true;
        }
        if seg.flags.fin || seg.flags.rst {
            state.closed = true;
        }
        if seg.payload.is_empty() {
            return;
        }
        if state.isn.is_none() {
            state.isn = Some(seg.seq);
            state.isn_from_syn = false;
        }
        let rel_signed = seg.seq.wrapping_sub(state.base()) as i32;
        if rel_signed < 0 {
            if state.isn_from_syn {
                // Data claiming to precede the SYN: stale retransmission.
                return;
            }
            // Out-of-order arrival below the provisional base: rebase.
            let shift = (-(rel_signed as i64)) as u64;
            for c in &mut state.chunks {
                c.rel += shift;
            }
            state.isn = Some(seg.seq);
        }
        let rel = u64::from(seg.seq.wrapping_sub(state.base()));
        let order = state.next_order;
        state.next_order += 1;
        state.chunks.push(SpanChunk { rel, order, ts, range: payload });
    }

    pub(super) fn lay_streams(&mut self, gaps: &mut u64, laid: &mut LaidStreams) {
        laid.pieces.clear();
        laid.timeline.clear();
        laid.streams.clear();
        for key in std::mem::take(&mut self.order) {
            let mut state = self.flows.remove(&key).expect("flow recorded in order");
            state.chunks.sort_unstable_by_key(|c| (c.rel, c.order));
            let tl_start = laid.timeline.len();
            let src = if let [c] = state.chunks.as_slice() {
                if c.rel > 0 {
                    *gaps += 1; // opening bytes lost below a pinned base
                }
                laid.timeline.push((0, c.ts));
                StreamSrc::Arena(c.range.clone())
            } else {
                let pieces_start = laid.pieces.len();
                let mut len = 0usize;
                let mut next_rel = 0u64;
                let mut prev_rel = u64::MAX;
                for c in &state.chunks {
                    if c.rel == prev_rel {
                        continue; // later arrival at a taken offset: dropped wholly
                    }
                    prev_rel = c.rel;
                    let Some(trim) = lay_segment(&mut next_rel, c.rel, c.range.len(), gaps) else {
                        continue; // fully retransmitted
                    };
                    laid.timeline.push((len, c.ts));
                    laid.pieces.push(c.range.start + trim..c.range.end);
                    len += c.range.len() - trim;
                }
                StreamSrc::Pieces(pieces_start..laid.pieces.len())
            };
            laid.streams.push(StreamDesc {
                key,
                src,
                timeline: tl_start..laid.timeline.len(),
                closed: state.closed,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::super::tests::Script;
    use super::super::{Endpoint, SpanReassembler, FLOW_PROBES};
    use super::*;
    use crate::tcp::TcpFlags;

    /// One generated segment: which flow sends it, its offset from the
    /// flow's initial sequence number, its SYN, FIN and RST flags and
    /// its payload length.
    #[derive(Debug, Clone)]
    struct Seg {
        flow: usize,
        offset: u32,
        flags: (bool, bool, bool),
        len: usize,
    }

    /// Offsets on a 4-byte grid around the initial sequence number, so
    /// that data lands below a provisional base and below a SYN, repeats
    /// an offset and overlaps other segments; now and then anywhere in
    /// sequence space.
    fn offset() -> impl Strategy<Value = u32> {
        prop_oneof![
            (0u32..48).prop_map(|k| (k * 4).wrapping_sub(32)),
            (0u32..48).prop_map(|k| (k * 4).wrapping_sub(32)),
            (0u32..48).prop_map(|k| (k * 4).wrapping_sub(32)),
            any::<u32>(),
        ]
    }

    /// Mostly plain segments; otherwise any mix of SYN, FIN and RST.
    fn flags() -> impl Strategy<Value = (bool, bool, bool)> {
        prop_oneof![
            Just((false, false, false)),
            Just((false, false, false)),
            (any::<bool>(), any::<bool>(), any::<bool>()),
        ]
    }

    /// A bare segment (an ACK, or a SYN, FIN or RST alone) or up to 24
    /// payload bytes.
    fn len() -> impl Strategy<Value = usize> {
        prop_oneof![Just(0usize), 1usize..24, 1usize..24]
    }

    /// Up to six flows, interleaved; each flow's segments at offsets from
    /// its own initial sequence number.
    fn schedule() -> impl Strategy<Value = (Vec<u32>, Vec<Seg>)> {
        (vec(any::<u32>(), 1..7), vec((0usize..6, offset(), flags(), len()), 0..60)).prop_map(
            |(isns, segs)| {
                let n = isns.len();
                let segs = segs
                    .into_iter()
                    .map(|(flow, offset, flags, len)| Seg { flow: flow % n, offset, flags, len })
                    .collect();
                (isns, segs)
            },
        )
    }

    fn flow_key(flow: usize) -> FlowKey {
        let client = Endpoint::new(Ipv4Addr::new(10, 0, 0, 1 + (flow / 2) as u8), 40000);
        let server = Endpoint::new(Ipv4Addr::new(192, 0, 2, 80), 80);
        // Flows pair up into connections: even ones send, odd ones answer.
        [FlowKey::new(client, server), FlowKey::new(server, client)][flow % 2]
    }

    /// The schedule as a capture of TCP segments, a quarter second apart.
    fn render(isns: &[u32], segs: &[Seg]) -> Script {
        let mut script = Script::default();
        for (i, seg) in segs.iter().enumerate() {
            let (syn, fin, rst) = seg.flags;
            let flags = TcpFlags { syn, fin, rst, ack: !syn, ..TcpFlags::default() };
            let payload: Vec<u8> = (0..seg.len).map(|b| (i * 31 + b) as u8).collect();
            let seq = isns[seg.flow].wrapping_add(seg.offset);
            script.segment(i as f64 * 0.25, flow_key(seg.flow), seq, flags, &payload);
        }
        script
    }

    proptest! {
        #[test]
        fn segment_log_lays_what_per_flow_chunks_laid(schedule in schedule()) {
            let (isns, segs) = schedule;
            let script = render(&isns, &segs);
            let mut reference = super::SpanReassembler::default();
            script.each(|ts, key, seg, payload| reference.push_span(ts, key, seg, payload));
            let (mut want, mut want_gaps) = (LaidStreams::default(), 0);
            reference.lay_streams(&mut want_gaps, &mut want);
            // Twice through one reassembler: a warm one lays the same.
            let mut log = SpanReassembler::new();
            let mut got = LaidStreams::default();
            for round in 0..2 {
                let probes = FLOW_PROBES.with(std::cell::Cell::get);
                script.push_all(&mut log);
                let pushed = FLOW_PROBES.with(std::cell::Cell::get);
                prop_assert_eq!(pushed - probes, segs.len() as u64, "one flow probe per packet");
                let mut gaps = 0;
                log.lay_streams(&mut gaps, &mut got);
                prop_assert_eq!(FLOW_PROBES.with(std::cell::Cell::get), pushed, "laying probes no flow");
                prop_assert_eq!(gaps, want_gaps, "gaps, round {}", round);
                prop_assert_eq!(&got, &want, "laid streams, round {}", round);
            }
        }
    }
}
