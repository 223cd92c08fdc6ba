//! Live-wire HTTP observation: incremental framing and pairing of one
//! TCP connection, producing the same [`HttpTransaction`]s the offline
//! capture pipeline would.
//!
//! A [`ConnectionTap`] sits beside a connection someone else owns — a
//! forward proxy relaying bytes, or a packet-capture flow reassembler —
//! and is fed each direction's bytes as they arrive. It has no HTTP
//! reading of its own: messages are framed by the offline pairer's
//! framer (`crate::transaction::frame_request` / `frame_response`),
//! whose `eof` argument — "this direction has closed" here, always set
//! over a finished reassembled stream there — is the only difference
//! between the two callers; a stream that stops is folded into the
//! report by the same `account`; and transactions come out of the same
//! synthesis routine (`crate::transaction::synthesize_transaction`:
//! Host resolution, the content-coding decode gate, payload
//! classification, body previews). What the tap adds is what only a
//! live observer needs: bounded buffers, first-bytes triage, overflow,
//! replay timestamps and `close`.
//!
//! # Pairing
//!
//! Requests are framed before responses, and a response is framed as
//! the answer to the oldest unanswered request (FIFO), as offline. Two
//! rules keep that true while bytes are still arriving:
//!
//! * **a response waits for the request it answers** — with no request
//!   pending but unframed request bytes buffered and that direction
//!   still open, the response is left in its buffer until the request
//!   completes or [`ConnectionTap::close`] frames it with what arrived.
//!   A response nobody asked for (no request pending, none arriving) is
//!   framed as if to a `GET` and dropped, like offline's surplus
//!   responses;
//! * **a stopped direction is a sink** — a malformed message ends the
//!   framing of its direction for good (HTTP has no resynchronization
//!   point mid-stream). From then on that direction counts the bytes it
//!   is offered and keeps none, reports unlimited
//!   [`ConnectionTap::free_space`], and leaves the other direction and
//!   the unanswered requests alone: they emit at close with status 0,
//!   as offline.
//!
//! # Bounded buffering
//!
//! Each direction buffers at most `capacity` bytes (the *tap buffer*).
//! The owner of the connection decides what buffer exhaustion means:
//!
//! * **backpressure** — consult [`ConnectionTap::free_space`] before
//!   reading from the socket and read at most that much, so TCP flow
//!   control slows the peer down instead of losing observation;
//! * **drop-newest** — keep reading and relaying at full speed; when
//!   the tap cannot keep up it overflows.
//!
//! Either way, a single HTTP message too large for the tap (a head or
//! framed body that can never complete within `capacity`) *abandons
//! observation* of the connection: both directions stop, the
//! unanswered requests are dropped, and the tap reports
//! [`ConnectionTap::overflowed`] — the owner keeps relaying bytes, only
//! the observation is lost. Size `capacity` above
//! [`crate::http::MAX_HEAD_LEN`] plus the largest body worth observing.
//!
//! # Close semantics
//!
//! While the connection is open the tap only emits *completely framed*
//! messages. [`ConnectionTap::close`] sets `eof` and frames the tail as
//! the end of a reassembled stream is framed: `Content-Length` bodies
//! truncate to what arrived, unterminated chunked and until-close
//! bodies take the rest, and still-unanswered requests become status-0
//! transactions. Because truncation can only ever affect the stream
//! tail, incremental emission and offline extraction of the same bytes
//! agree on every transaction.
//!
//! # Replay timestamps
//!
//! With [`TapConfig::honor_replay_ts`] enabled the tap recognizes the
//! loopback-replay headers ([`REPLAY_TS_HEADER`],
//! [`REPLAY_RESP_TS_HEADER`], [`REPLAY_ID_HEADER`]): a replay driver
//! annotates each request with the original capture timestamp, the
//! replay origin annotates each response, and the tap adopts those
//! timestamps and strips the headers — so transactions synthesized
//! from a live replay carry the *episode's* timeline, not the
//! wall-clock of the replay, and compare equal to offline extraction.
//! The flag is off by default and must stay off outside parity
//! harnesses: honoring client-supplied timestamps on a real deployment
//! would let a peer reorder its own conversation history.

use std::collections::VecDeque;

use crate::http::Method;
use crate::ingest::IngestReport;
use crate::reassembly::{timestamp_at, Endpoint};
use crate::transaction::{
    account, count_unpaired, fnv1a, frame_request, frame_response, looks_like_request,
    synthesize_transaction, HttpTransaction, ParsedRequest, ParsedResponse, Unframed,
};

/// Request header carrying the original capture timestamp of a
/// replayed request (`f64` seconds, as printed by Rust).
pub const REPLAY_TS_HEADER: &str = "X-Replay-Ts";
/// Response header carrying the original capture timestamp at which
/// the replayed response finished.
pub const REPLAY_RESP_TS_HEADER: &str = "X-Replay-Resp-Ts";
/// Request header correlating a replayed request with its episode
/// transaction (opaque to the tap; stripped alongside the timestamps).
pub const REPLAY_ID_HEADER: &str = "X-Replay-Id";

/// Default per-direction tap buffer: roomy enough for a maximum-size
/// head plus a substantial body.
pub const DEFAULT_TAP_CAPACITY: usize = 1 << 20;

/// Which direction of the connection bytes belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapDir {
    /// Client → server (requests).
    Request,
    /// Server → client (responses).
    Response,
}

/// Configuration for a [`ConnectionTap`].
#[derive(Debug, Clone, Copy)]
pub struct TapConfig {
    /// Per-direction buffer bound in bytes.
    pub capacity: usize,
    /// Adopt and strip `X-Replay-*` timestamp headers (parity
    /// harnesses only — see the module docs for why this is unsafe on
    /// untrusted traffic).
    pub honor_replay_ts: bool,
}

impl Default for TapConfig {
    fn default() -> Self {
        TapConfig { capacity: DEFAULT_TAP_CAPACITY, honor_replay_ts: false }
    }
}

/// One direction's bounded byte buffer with a coarse timeline, the
/// live analogue of a reassembled stream's `(offset, ts)` pairs.
#[derive(Debug, Default)]
struct DirBuf {
    /// The unframed bytes: what arrived and no message has consumed.
    data: Vec<u8>,
    /// `(absolute stream offset, ts)` per burst of appended bytes.
    timeline: Vec<(usize, f64)>,
    /// Absolute stream offset of `data[0]`: the bytes framed so far, so
    /// non-zero exactly when the direction has yielded a message.
    base: usize,
    /// Total bytes ever offered to this direction.
    total_in: u64,
    /// First few bytes of the stream, kept for protocol triage after
    /// the live buffer has been drained.
    first: Vec<u8>,
    closed: bool,
    /// Framing has stopped for good (malformed, not HTTP, overflow):
    /// the direction is a sink that counts bytes and keeps none.
    stopped: bool,
}

impl DirBuf {
    fn push(&mut self, bytes: &[u8], ts: f64) {
        let triage = 8usize.saturating_sub(self.first.len()).min(bytes.len());
        self.first.extend_from_slice(&bytes[..triage]);
        self.total_in += bytes.len() as u64;
        if !self.stopped {
            self.timeline.push((self.base + self.data.len(), ts));
            self.data.extend_from_slice(bytes);
        }
    }

    /// Bytes this direction can take before `capacity` is reached.
    fn free(&self, capacity: usize) -> usize {
        if self.stopped || self.closed {
            return usize::MAX;
        }
        capacity.saturating_sub(self.data.len())
    }

    /// Timestamp of the byte at relative offset `rel`.
    fn ts_at(&self, rel: usize) -> f64 {
        timestamp_at(&self.timeline, self.base + rel)
    }

    /// Drops `n` framed bytes from the front, keeping the last
    /// timeline burst at or before the new base as the floor.
    fn consume(&mut self, n: usize) {
        self.data.drain(..n);
        self.base += n;
        if let Some(i) = self.timeline.iter().rposition(|&(o, _)| o <= self.base) {
            self.timeline.drain(..i);
        }
    }

    fn stop(&mut self) {
        self.stopped = true;
        self.data = Vec::new();
        self.timeline = Vec::new();
    }
}

/// Incremental HTTP observer for one TCP connection (see the module
/// docs for semantics).
///
/// Emitted transactions have `seq == 0`; the caller numbers them in
/// emission order (e.g. [`crate::transaction::assign_seq`] or a stream
/// engine's feed order).
#[derive(Debug)]
pub struct ConnectionTap {
    client: Endpoint,
    server: Endpoint,
    config: TapConfig,
    req: DirBuf,
    resp: DirBuf,
    /// Requests framed but not yet answered, FIFO.
    pending: VecDeque<ParsedRequest>,
    /// The client's first bytes are not an HTTP request: both
    /// directions stopped, accounted at close like offline non-HTTP
    /// streams.
    non_http: bool,
    /// A message outgrew the tap buffer: both directions stopped,
    /// observation of the connection dropped.
    overflowed: bool,
    closed: bool,
}

impl ConnectionTap {
    /// Creates a tap for one connection. `client`/`server` become the
    /// transaction endpoints — for proxied traffic, pass the *true*
    /// client (e.g. recovered from a PROXY-protocol header), since the
    /// client address drives shard partitioning downstream.
    pub fn new(client: Endpoint, server: Endpoint, config: TapConfig) -> Self {
        ConnectionTap {
            client,
            server,
            config,
            req: DirBuf::default(),
            resp: DirBuf::default(),
            pending: VecDeque::new(),
            non_http: false,
            overflowed: false,
            closed: false,
        }
    }

    fn dir_mut(&mut self, dir: TapDir) -> &mut DirBuf {
        match dir {
            TapDir::Request => &mut self.req,
            TapDir::Response => &mut self.resp,
        }
    }

    /// Bytes this direction can accept before the buffer is full.
    /// Backpressuring owners read at most this much from the socket;
    /// a direction that has stopped framing (or a closed tap) is a sink
    /// and reports unlimited space.
    pub fn free_space(&self, dir: TapDir) -> usize {
        let d = match dir {
            TapDir::Request => &self.req,
            TapDir::Response => &self.resp,
        };
        d.free(self.config.capacity)
    }

    /// Whether observation was dropped because a single message could
    /// not complete within the tap buffer.
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Feeds one burst of `dir`-direction bytes observed at time `ts`.
    /// Completed transactions are appended to `out` (digested, seq 0)
    /// and decode/salvage outcomes are counted in `report`. Always
    /// swallows the full burst: bytes beyond what can be buffered
    /// *and* framed mean an oversized message, which abandons
    /// observation (see module docs).
    pub fn offer(
        &mut self,
        dir: TapDir,
        mut bytes: &[u8],
        ts: f64,
        report: &mut IngestReport,
        out: &mut Vec<HttpTransaction>,
    ) {
        if self.closed {
            return;
        }
        let capacity = self.config.capacity;
        while !bytes.is_empty() {
            let d = self.dir_mut(dir);
            let take = d.free(capacity).min(bytes.len());
            if take == 0 {
                // The framer is stuck mid-message on a full buffer:
                // this message can never complete within the tap.
                self.overflow();
                continue;
            }
            d.push(&bytes[..take], ts);
            bytes = &bytes[take..];
            if !d.stopped {
                self.pump(report, out);
            }
        }
    }

    /// Marks the connection closed and flushes the tail: truncated
    /// bodies resolve with end-of-stream semantics and unanswered
    /// requests emit as status-0 transactions. Also settles per-stream
    /// accounting (`streams_total`, orphan/non-HTTP classification).
    /// Idempotent; the tap emits nothing after.
    pub fn close(&mut self, report: &mut IngestReport, out: &mut Vec<HttpTransaction>) {
        if self.closed {
            return;
        }
        self.closed = true;
        let carried = |d: &DirBuf| d.total_in > 0;
        report.streams_total += u64::from(carried(&self.req)) + u64::from(carried(&self.resp));
        self.req.closed = true;
        self.resp.closed = true;
        if self.overflowed {
            return;
        }
        self.pump(report, out);
        if self.non_http {
            // Mirror the offline pairer: streams on a connection with
            // no request direction are triaged by their first bytes.
            for d in [&self.req, &self.resp] {
                if carried(d) {
                    count_unpaired(report, &d.first);
                }
            }
            return;
        }
        while let Some(req) = self.pending.pop_front() {
            out.push(synthesize(self.client, self.server, req, None, report));
        }
        if !carried(&self.req) && carried(&self.resp) {
            // Response bytes with no request direction at all: the
            // offline pairer never frames these (orphan stream).
            count_unpaired(report, &self.resp.first);
        }
    }

    fn overflow(&mut self) {
        self.overflowed = true;
        self.req.stop();
        self.resp.stop();
        self.pending.clear();
    }

    /// Frames what the buffers hold, requests before responses.
    fn pump(&mut self, report: &mut IngestReport, out: &mut Vec<HttpTransaction>) {
        self.pump_requests(report);
        self.pump_responses(report, out);
    }

    /// Queues every request the buffer holds whole.
    fn pump_requests(&mut self, report: &mut IngestReport) {
        // Protocol triage once the prefix is decisive (or the stream
        // closed short): a client that doesn't open with an HTTP
        // method is not worth framing at all.
        if self.req.base == 0 && !self.req.first.is_empty() {
            let decisive = self.req.first.len() >= 5 || self.req.closed;
            if decisive && !looks_like_request(&self.req.first) {
                self.non_http = true;
                self.req.stop();
                self.resp.stop();
            }
        }
        while !self.req.data.is_empty() {
            match frame_request(&self.req.data, self.req.closed) {
                Ok((head, len)) => {
                    let mut req = ParsedRequest { head, ts: self.req.ts_at(0) };
                    if self.config.honor_replay_ts {
                        let headers = &mut req.head.headers;
                        let replayed = headers.get(REPLAY_TS_HEADER);
                        req.ts = replayed.and_then(|v| v.parse().ok()).unwrap_or(req.ts);
                        headers.remove(REPLAY_TS_HEADER);
                        headers.remove(REPLAY_ID_HEADER);
                    }
                    self.req.consume(len);
                    self.pending.push_back(req);
                }
                Err(Unframed::Incomplete) => break,
                Err(Unframed::Malformed { chunked, .. }) => {
                    account(report, self.req.base > 0, chunked);
                    self.req.stop();
                }
            }
        }
    }

    /// Frames every response the buffer holds whole, each the answer to
    /// the oldest unanswered request.
    fn pump_responses(&mut self, report: &mut IngestReport, out: &mut Vec<HttpTransaction>) {
        while !self.resp.data.is_empty() {
            // A response waits for the request it answers: while that
            // request is still arriving its method is not known yet.
            if self.pending.is_empty() && !self.req.data.is_empty() && !self.req.closed {
                break;
            }
            let method = self.pending.front().map_or(&Method::Get, |req| &req.head.method);
            match frame_response(&self.resp.data, method, self.resp.closed) {
                Ok(((head, body), len)) => {
                    let end_ts = self.resp.ts_at(len.saturating_sub(1));
                    let mut resp = ParsedResponse { head, body, end_ts };
                    if self.config.honor_replay_ts {
                        let headers = &mut resp.head.headers;
                        let replayed = headers.get(REPLAY_RESP_TS_HEADER);
                        resp.end_ts = replayed.and_then(|v| v.parse().ok()).unwrap_or(end_ts);
                        headers.remove(REPLAY_RESP_TS_HEADER);
                    }
                    match self.pending.pop_front() {
                        Some(req) => {
                            out.push(synthesize(self.client, self.server, req, Some(resp), report));
                        }
                        None => drop(resp), // nobody asked
                    }
                    self.resp.consume(len);
                }
                Err(Unframed::Incomplete) => break,
                Err(Unframed::Malformed { chunked, .. }) => {
                    // With no request byte seen the stream is an orphan,
                    // which `close` settles by its first bytes instead.
                    if self.req.total_in > 0 {
                        account(report, self.resp.base > 0, chunked);
                    }
                    self.resp.stop();
                }
            }
        }
    }
}

/// One transaction through the offline pairer's synthesis routine,
/// digested on the spot (a live tap has no batch to defer to).
fn synthesize(
    client: Endpoint,
    server: Endpoint,
    req: ParsedRequest,
    resp: Option<ParsedResponse<'_>>,
    report: &mut IngestReport,
) -> HttpTransaction {
    let (mut tx, body) = synthesize_transaction(client, server, req, resp, report);
    tx.payload_digest = fnv1a(body.as_ref());
    report.transactions_recovered += 1;
    tx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::HeaderMap;
    use crate::payload::PayloadClass;
    use crate::reassembly::{FlowKey, StreamView};
    use crate::transaction::{assign_seq, digest_deferred, pair_connection, Framed};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::net::Ipv4Addr;

    fn client() -> Endpoint {
        Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 50000)
    }

    fn server() -> Endpoint {
        Endpoint::new(Ipv4Addr::new(203, 0, 113, 9), 80)
    }

    /// The offline reading of one connection's two byte streams: the
    /// triage `SpanPipeline` runs ahead of the pairer (a stream that does
    /// not open like a request is nobody's request direction), then
    /// `pair_connection` — the transactions and the report.
    fn offline(req: &[u8], resp: Option<&[u8]>) -> (Vec<HttpTransaction>, IngestReport) {
        let mut report = IngestReport::new();
        if !looks_like_request(req) {
            for stream in [req, resp.unwrap_or(&[])] {
                if !stream.is_empty() {
                    count_unpaired(&mut report, stream);
                }
            }
            return (Vec::new(), report);
        }
        let key = FlowKey::new(client(), server());
        let req_stream = StreamView { key, data: req, timeline: &[(0, 1.0)], closed: true };
        let resp_stream = resp.map(|data| StreamView {
            key: key.reversed(),
            data,
            timeline: &[(0, 2.0)],
            closed: true,
        });
        let mut out = Vec::new();
        let mut deferred = Vec::new();
        let _ = pair_connection(req_stream, resp_stream, &mut report, &mut out, &mut deferred);
        digest_deferred(&mut out, &deferred, &mut Vec::new());
        assign_seq(&mut out);
        (out, report)
    }

    fn offline_pair(req: &[u8], resp: Option<&[u8]>) -> Vec<HttpTransaction> {
        offline(req, resp).0
    }

    /// The counters the tap and the offline pairer both own (stream and
    /// transaction totals are settled a layer up on the offline side).
    fn owned(report: &IngestReport) -> [u64; 6] {
        [
            report.streams_salvaged,
            report.streams_discarded,
            report.chunked_failures,
            report.gzip_failures,
            report.deflate_failures,
            report.decode_cap_exceeded,
        ]
    }

    /// Feeds bytes through a tap in `chunk`-sized bursts; the counters it
    /// shares with the offline pairer must come out as the pairer's do.
    fn tap_pair(req: &[u8], resp: Option<&[u8]>, chunk: usize) -> Vec<HttpTransaction> {
        let mut tap = ConnectionTap::new(client(), server(), TapConfig::default());
        let mut report = IngestReport::new();
        let mut out = Vec::new();
        // Interleave directions to exercise incremental pairing.
        let mut r = 0;
        let mut s = 0;
        let resp_bytes = resp.unwrap_or(&[]);
        while r < req.len() || s < resp_bytes.len() {
            if r < req.len() {
                let end = (r + chunk).min(req.len());
                tap.offer(TapDir::Request, &req[r..end], 1.0, &mut report, &mut out);
                r = end;
            }
            if s < resp_bytes.len() {
                let end = (s + chunk).min(resp_bytes.len());
                tap.offer(TapDir::Response, &resp_bytes[s..end], 2.0, &mut report, &mut out);
                s = end;
            }
        }
        tap.close(&mut report, &mut out);
        assign_seq(&mut out);
        assert_eq!(owned(&report), owned(&offline(req, resp).1), "counters, chunk size {chunk}");
        out
    }

    /// The parity-by-construction contract: any chunking of the same
    /// bytes produces transactions identical to offline pairing.
    #[test]
    fn incremental_tap_matches_offline_pairing() {
        let req: &[u8] =
            b"GET /a.html HTTP/1.1\r\nHost: h\r\n\r\nGET /mz.exe HTTP/1.1\r\nHost: h\r\n\r\n";
        let resp: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 5\r\n\r\nhello\
                  HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nMZxx";
        let offline = offline_pair(req, Some(resp));
        assert_eq!(offline.len(), 2);
        assert_eq!(offline[1].payload_class, PayloadClass::Exe);
        for chunk in [1, 3, 7, 1024] {
            let live = tap_pair(req, Some(resp), chunk);
            assert_eq!(live, offline, "chunk size {chunk}");
        }
    }

    #[test]
    fn chunked_and_until_close_bodies_match_offline() {
        let req: &[u8] = b"GET /c HTTP/1.1\r\nHost: h\r\n\r\nGET /u HTTP/1.1\r\nHost: h\r\n\r\n";
        let resp: &[u8] = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
                  4\r\nMZxx\r\n3\r\nyyy\r\n0\r\n\r\n\
                  HTTP/1.1 200 OK\r\n\r\nrest-until-close";
        for chunk in [1, 5, 4096] {
            assert_eq!(tap_pair(req, Some(resp), chunk), offline_pair(req, Some(resp)));
        }
    }

    #[test]
    fn close_truncates_like_offline_stream_end() {
        // Content-Length promises 100 bytes, the wire delivers 6, the
        // connection closes: offline truncates, so must the tap.
        let req: &[u8] = b"GET /t HTTP/1.1\r\nHost: h\r\n\r\n";
        let resp: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\npartia";
        let live = tap_pair(req, Some(resp), 4);
        assert_eq!(live, offline_pair(req, Some(resp)));
        assert_eq!(live[0].payload_size, 6);
    }

    #[test]
    fn unanswered_request_becomes_status_zero_at_close() {
        let req: &[u8] = b"POST /exfil HTTP/1.1\r\nHost: cc.evil\r\nContent-Length: 4\r\n\r\ndata";
        let live = tap_pair(req, None, 9);
        assert_eq!(live, offline_pair(req, None));
        assert_eq!(live[0].status, 0);
        assert_eq!(live[0].resp_ts, live[0].ts);
    }

    #[test]
    fn gzip_decode_gate_is_shared_with_offline_path() {
        let html = b"<html>ok</html>";
        let gz = crate::flate::gzip_compress(html);
        let req: &[u8] = b"GET /z HTTP/1.1\r\nHost: h\r\n\r\n";
        let mut resp = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Encoding: gzip\r\nContent-Length: {}\r\n\r\n",
            gz.len()
        )
        .into_bytes();
        resp.extend_from_slice(&gz);
        let live = tap_pair(req, Some(&resp), 3);
        assert_eq!(live, offline_pair(req, Some(&resp)));
        assert_eq!(live[0].payload_size, html.len(), "decoded size");
        assert_eq!(live[0].payload_digest, fnv1a(html), "decoded digest");
    }

    #[test]
    fn replay_headers_override_timestamps_and_are_stripped() {
        let req: &[u8] = b"GET /r HTTP/1.1\r\nHost: h\r\nX-Replay-Ts: 1234.5\r\nX-Replay-Id: ep1:7\r\n\r\n";
        let resp: &[u8] =
            b"HTTP/1.1 200 OK\r\nX-Replay-Resp-Ts: 1234.75\r\nContent-Length: 2\r\n\r\nok";
        let config = TapConfig { honor_replay_ts: true, ..TapConfig::default() };
        let mut tap = ConnectionTap::new(client(), server(), config);
        let mut report = IngestReport::new();
        let mut out = Vec::new();
        tap.offer(TapDir::Request, req, 99.0, &mut report, &mut out);
        tap.offer(TapDir::Response, resp, 99.5, &mut report, &mut out);
        tap.close(&mut report, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ts, 1234.5, "wall clock replaced by episode ts");
        assert_eq!(out[0].resp_ts, 1234.75);
        assert!(out[0].req_headers.get(REPLAY_TS_HEADER).is_none(), "stripped");
        assert!(out[0].req_headers.get(REPLAY_ID_HEADER).is_none(), "stripped");
        assert!(out[0].resp_headers.get(REPLAY_RESP_TS_HEADER).is_none(), "stripped");
        assert_eq!(out[0].req_headers.len(), 1, "only Host survives");
    }

    #[test]
    fn replay_headers_pass_through_untouched_by_default() {
        let req: &[u8] = b"GET /r HTTP/1.1\r\nHost: h\r\nX-Replay-Ts: 1234.5\r\n\r\n";
        let mut tap = ConnectionTap::new(client(), server(), TapConfig::default());
        let mut report = IngestReport::new();
        let mut out = Vec::new();
        tap.offer(TapDir::Request, req, 99.0, &mut report, &mut out);
        tap.close(&mut report, &mut out);
        assert_eq!(out[0].ts, 99.0, "client-supplied ts not honored");
        assert_eq!(out[0].req_headers.get(REPLAY_TS_HEADER), Some("1234.5"));
    }

    #[test]
    fn oversized_message_abandons_observation() {
        let config = TapConfig { capacity: 128, ..TapConfig::default() };
        let mut tap = ConnectionTap::new(client(), server(), config);
        let mut report = IngestReport::new();
        let mut out = Vec::new();
        let req: &[u8] = b"GET /ok HTTP/1.1\r\nHost: h\r\n\r\n";
        tap.offer(TapDir::Request, req, 1.0, &mut report, &mut out);
        // A 10 KiB response body can never complete in a 128-byte tap.
        let head: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 10240\r\n\r\n";
        tap.offer(TapDir::Response, head, 2.0, &mut report, &mut out);
        tap.offer(TapDir::Response, &[0x41; 10240], 2.1, &mut report, &mut out);
        assert!(tap.overflowed());
        assert_eq!(tap.free_space(TapDir::Response), usize::MAX, "tap is now a sink");
        tap.close(&mut report, &mut out);
        assert!(out.is_empty(), "observation dropped, nothing emitted");
        assert_eq!(report.streams_total, 2, "both directions still counted");
    }

    #[test]
    fn backpressure_contract_never_overflows() {
        // An owner that respects free_space() can push a body far
        // larger than... the *burst*, as long as each message fits.
        let config = TapConfig { capacity: 256, ..TapConfig::default() };
        let mut tap = ConnectionTap::new(client(), server(), config);
        let mut report = IngestReport::new();
        let mut out = Vec::new();
        for i in 0..50 {
            let req = format!("GET /{i} HTTP/1.1\r\nHost: h\r\n\r\n");
            let resp: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
            for (dir, bytes) in [(TapDir::Request, req.as_bytes()), (TapDir::Response, resp)]
            {
                let mut off = 0;
                while off < bytes.len() {
                    let take = tap.free_space(dir).min(bytes.len() - off);
                    assert!(take > 0, "parser always drains complete messages");
                    tap.offer(dir, &bytes[off..off + take], i as f64, &mut report, &mut out);
                    off += take;
                }
            }
        }
        tap.close(&mut report, &mut out);
        assert!(!tap.overflowed());
        assert_eq!(out.len(), 50);
    }

    #[test]
    fn non_http_client_bytes_are_triaged_not_parsed() {
        let mut tap = ConnectionTap::new(client(), server(), TapConfig::default());
        let mut report = IngestReport::new();
        let mut out = Vec::new();
        // A TLS ClientHello-ish prefix on both directions.
        tap.offer(TapDir::Request, &[0x16, 0x03, 0x01, 0x02, 0x00, 0x01], 1.0, &mut report, &mut out);
        tap.offer(TapDir::Response, &[0x16, 0x03, 0x03, 0x00, 0x7a], 1.1, &mut report, &mut out);
        tap.close(&mut report, &mut out);
        assert!(out.is_empty());
        assert_eq!(report.streams_total, 2);
        assert_eq!(report.streams_skipped_non_http, 2);
    }

    #[test]
    fn garbage_after_valid_messages_salvages_prefix() {
        let req: &[u8] = b"GET /ok HTTP/1.1\r\nHost: h\r\n\r\nGET bogus\xff\xfe\r\nnope\r\n\r\n";
        let resp: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
        let mut tap = ConnectionTap::new(client(), server(), TapConfig::default());
        let mut report = IngestReport::new();
        let mut out = Vec::new();
        tap.offer(TapDir::Request, req, 1.0, &mut report, &mut out);
        tap.offer(TapDir::Response, resp, 2.0, &mut report, &mut out);
        tap.close(&mut report, &mut out);
        assert_eq!(out.len(), 1, "valid prefix kept");
        assert_eq!(out[0].status, 200);
        assert_eq!(report.streams_salvaged, 1);
    }

    #[test]
    fn orphan_response_stream_counts_as_discarded() {
        let mut tap = ConnectionTap::new(client(), server(), TapConfig::default());
        let mut report = IngestReport::new();
        let mut out = Vec::new();
        let resp: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
        tap.offer(TapDir::Response, resp, 1.0, &mut report, &mut out);
        tap.close(&mut report, &mut out);
        assert!(out.is_empty(), "a response with no request pairs with nothing");
        assert_eq!(report.streams_discarded, 1);
    }

    #[test]
    fn timeline_tracks_burst_timestamps_across_consumption() {
        let mut tap = ConnectionTap::new(client(), server(), TapConfig::default());
        let mut report = IngestReport::new();
        let mut out = Vec::new();
        let req1: &[u8] = b"GET /a HTTP/1.1\r\nHost: h\r\n\r\n";
        let req2: &[u8] = b"GET /b HTTP/1.1\r\nHost: h\r\n\r\n";
        tap.offer(TapDir::Request, req1, 10.0, &mut report, &mut out);
        tap.offer(TapDir::Request, req2, 20.0, &mut report, &mut out);
        tap.close(&mut report, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].ts, 10.0);
        assert_eq!(out[1].ts, 20.0, "second request keeps its own burst ts");
    }

    #[test]
    fn header_maps_survive_roundtrip() {
        // Sanity: HeaderMap equality is what the parity tests lean on.
        let mut a = HeaderMap::new();
        a.append("Host", "h");
        let mut b = HeaderMap::new();
        b.append("Host", "h");
        assert_eq!(a, b);
    }

    /// A response that arrives while the request it answers is still
    /// short of its body waits for it — it is not framed against `GET`
    /// and dropped as surplus. Offline, the truncated `POST` pairs with
    /// the third response; so must the tap, however the bytes are cut.
    #[test]
    fn a_response_waits_for_the_request_it_answers() {
        let req: &[u8] = b"GET /a HTTP/1.1\r\nHost: h\r\n\r\nGET /b HTTP/1.1\r\nHost: h\r\n\r\n\
                           POST /c HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\nab";
        let resp: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nA\
                            HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nB\
                            HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nC";
        let (offline, _) = offline(req, Some(resp));
        assert_eq!(offline.iter().map(|t| t.status).collect::<Vec<_>>(), [200, 200, 200]);
        // Interleaved, and every request byte ahead of every response byte.
        for chunk in [1, 2, 7, 64, 1500, usize::MAX / 2] {
            assert_eq!(tap_pair(req, Some(resp), chunk), offline, "interleaved, chunk {chunk}");
            let mut tap = ConnectionTap::new(client(), server(), TapConfig::default());
            let (mut report, mut out) = (IngestReport::new(), Vec::new());
            tap.offer(TapDir::Request, req, 1.0, &mut report, &mut out);
            for burst in resp.chunks(chunk) {
                tap.offer(TapDir::Response, burst, 2.0, &mut report, &mut out);
            }
            assert_eq!(out.len(), 2, "the third response is waiting, not dropped");
            tap.close(&mut report, &mut out);
            assign_seq(&mut out);
            assert_eq!(out, offline, "requests first, chunk {chunk}");
        }
    }

    /// A direction that stopped framing is a sink: what it is offered
    /// afterwards is counted, not buffered, so it cannot fill the tap and
    /// take the other direction's unanswered requests down with it.
    #[test]
    fn a_stopped_direction_is_a_sink() {
        let config = TapConfig { capacity: 1 << 16, ..TapConfig::default() };
        let req: &[u8] = b"GET /a HTTP/1.1\r\nHost: h\r\n\r\nGET /b HTTP/1.1\r\nHost: h\r\n\r\n";
        let mut resp =
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokHTTP/1.1 2OO OK\r\n\r\n".to_vec();
        let stop = resp.len();
        resp.resize(stop + 2 * config.capacity + 4096, b'x');

        let mut tap = ConnectionTap::new(client(), server(), config);
        let (mut report, mut out) = (IngestReport::new(), Vec::new());
        tap.offer(TapDir::Request, req, 1.0, &mut report, &mut out);
        tap.offer(TapDir::Response, &resp[..stop], 2.0, &mut report, &mut out);
        assert_eq!(tap.free_space(TapDir::Response), usize::MAX, "stopped: unlimited space");
        assert_eq!(tap.free_space(TapDir::Request), config.capacity, "the other frames on");
        for burst in resp[stop..].chunks(4096) {
            tap.offer(TapDir::Response, burst, 2.0, &mut report, &mut out);
        }
        assert!(!tap.overflowed());
        tap.close(&mut report, &mut out);
        assign_seq(&mut out);

        let (offline, offline_report) = offline(req, Some(&resp));
        assert_eq!(out, offline);
        assert_eq!(out.iter().map(|t| t.status).collect::<Vec<_>>(), [200, 0]);
        assert_eq!(owned(&report), owned(&offline_report));
        assert_eq!(report.streams_salvaged, 1);
    }

    /// Minimised from the property below: a response stream nobody
    /// requested stays an orphan when it stops framing — settled at close
    /// by its first bytes, as offline, not salvage-accounted on the way.
    #[test]
    fn a_malformed_orphan_response_stream_is_still_an_orphan() {
        let resp: &[u8] = b"HTTP/1.1 304 Not Modified\r\n\r\n\
                            HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nZZ\r\n";
        assert_eq!(owned(&offline(b"", Some(resp)).1), [0, 1, 0, 0, 0, 0], "one discarded stream");
        for chunk in [1, 7, 1024] {
            assert!(tap_pair(b"", Some(resp), chunk).is_empty());
        }
    }

    /// Found on the way: a client that closes before its first five bytes
    /// can decide the triage is triaged at close — and then counted like
    /// any other non-HTTP connection, not left out of the report.
    #[test]
    fn a_short_non_http_stream_is_triaged_and_counted_at_close() {
        let resp: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n";
        assert_eq!(owned(&offline(b"GE", Some(resp)).1), [0, 1, 0, 0, 0, 0], "orphaned response");
        for chunk in [1, 1024] {
            assert!(tap_pair(b"GE", Some(resp), chunk).is_empty());
        }
    }

    /// One generated keep-alive connection: both byte streams and, per
    /// exchange, `(where its request ends, where its response starts)`.
    struct Connection {
        req: Vec<u8>,
        resp: Vec<u8>,
        marks: Vec<(usize, usize)>,
    }

    /// 1–4 pipelined exchanges over every framing the framer knows.
    fn connection(rng: &mut StdRng) -> Connection {
        let mut c = Connection { req: Vec::new(), resp: Vec::new(), marks: Vec::new() };
        let exchanges = rng.gen_range(1..=4usize);
        for i in 0..exchanges {
            let mut body = vec![0u8; rng.gen_range(0..200usize)];
            const ALPHABET: &[u8] = b"<html>MZ \r\n0aF;";
            body.iter_mut().for_each(|b| *b = ALPHABET[rng.gen_range(0..ALPHABET.len())]);
            let method = ["GET", "HEAD", "POST", "POST"][rng.gen_range(0..4usize)];
            c.req.extend_from_slice(format!("{method} /{i} HTTP/1.1\r\nHost: h{i}\r\n").as_bytes());
            if method == "POST" {
                let upload = &body[..body.len() / 2];
                if rng.gen_bool(0.5) {
                    c.req.extend_from_slice(b"Transfer-Encoding: chunked\r\n\r\n");
                    c.req.extend_from_slice(&crate::http::encode_chunked(upload));
                } else {
                    let length = format!("Content-Length: {}\r\n\r\n", upload.len());
                    c.req.extend_from_slice(length.as_bytes());
                    c.req.extend_from_slice(upload);
                }
            } else {
                c.req.extend_from_slice(b"\r\n");
            }
            c.marks.push((c.req.len(), c.resp.len()));
            let sized = |wire: &[u8]| format!("Content-Length: {}\r\n", wire.len());
            let (status, headers, wire) = match rng.gen_range(0..5u32) {
                0 => ("200 OK", sized(&body), body),
                1 => {
                    let chunked = crate::http::encode_chunked(&body);
                    ("200 OK", "Transfer-Encoding: chunked\r\n".into(), chunked)
                }
                2 => {
                    let gz = crate::flate::gzip_compress(&body);
                    ("200 OK", format!("Content-Encoding: gzip\r\n{}", sized(&gz)), gz)
                }
                3 => ("304 Not Modified", sized(&body), Vec::new()),
                _ if i + 1 == exchanges => ("200 OK", String::new(), body),
                _ => ("404 Not Found", sized(&body), body),
            };
            c.resp.extend_from_slice(format!("HTTP/1.1 {status}\r\n{headers}\r\n").as_bytes());
            if method != "HEAD" {
                c.resp.extend_from_slice(&wire);
            }
        }
        c
    }

    /// Damages `stream` — cut at any byte, one bit flipped, or garbage
    /// spliced in, a third of the time within its first bytes, where the
    /// triage reads — and returns where an undamaged offset now sits.
    /// `splice_moves` says whether an offset right at the splice point
    /// lands behind the garbage.
    fn damage(
        rng: &mut StdRng,
        stream: &mut Vec<u8>,
        splice_moves: bool,
    ) -> impl Fn(usize) -> usize {
        let (mut cut, mut splice) = (usize::MAX, (usize::MAX, 0));
        let reach = if rng.gen_range(0..3u32) == 0 { 8 } else { stream.len() };
        let at = rng.gen_range(0..=reach.min(stream.len()));
        match rng.gen_range(0..4u32) {
            0 => {
                cut = at;
                stream.truncate(cut);
            }
            1 if at < stream.len() => stream[at] ^= 1 << rng.gen_range(0..8u32),
            2 => {
                let garbage: Vec<u8> = (0..rng.gen_range(1..=16usize)).map(|_| rng.gen()).collect();
                splice = (at + usize::from(!splice_moves), garbage.len());
                stream.splice(at..at, garbage);
            }
            _ => {}
        }
        move |offset| if offset >= splice.0 { offset + splice.1 } else { offset }.min(cut)
    }

    /// Runs one connection through a tap in `burst`-sized offers, the two
    /// directions interleaved at random but no response byte ahead of
    /// the request that causes it.
    fn tap_connection(
        rng: &mut StdRng,
        c: &Connection,
        burst: usize,
    ) -> (Vec<HttpTransaction>, IngestReport) {
        let mut tap = ConnectionTap::new(client(), server(), TapConfig::default());
        let (mut report, mut out) = (IngestReport::new(), Vec::new());
        let (mut r, mut s) = (0, 0);
        while r < c.req.len() || s < c.resp.len() {
            let s_end = s.saturating_add(burst).min(c.resp.len());
            // The request bytes the response burst's last byte needs.
            let caused_by = c.marks.iter().rev().find(|m| m.1 < s_end).map_or(0, |m| m.0);
            let response_may_go = s < c.resp.len() && r >= caused_by.min(c.req.len());
            if response_may_go && (r == c.req.len() || rng.gen_bool(0.5)) {
                tap.offer(TapDir::Response, &c.resp[s..s_end], 2.0, &mut report, &mut out);
                s = s_end;
            } else {
                let r_end = r.saturating_add(burst).min(c.req.len());
                tap.offer(TapDir::Request, &c.req[r..r_end], 1.0, &mut report, &mut out);
                r = r_end;
            }
        }
        assert!(!tap.overflowed());
        tap.close(&mut report, &mut out);
        assign_seq(&mut out);
        (out, report)
    }

    const ROUNDS: usize = if cfg!(debug_assertions) { 30 } else { 100 };

    proptest! {
        /// Tap ≡ offline pairer over damaged pipelined connections at any
        /// burst size: the transactions and every counter both sides own.
        #[test]
        fn tap_matches_offline_pairing_on_damaged_connections(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            for round in 0..ROUNDS {
                let mut c = connection(&mut rng);
                let (req_at, resp_at) =
                    (damage(&mut rng, &mut c.req, true), damage(&mut rng, &mut c.resp, false));
                c.marks.iter_mut().for_each(|m| *m = (req_at(m.0), resp_at(m.1)));
                let (offline, offline_report) = offline(&c.req, Some(&c.resp));
                for burst in [1, 2, 7, 64, 1500, usize::MAX] {
                    let (live, report) = tap_connection(&mut rng, &c, burst);
                    let case = format!(
                        "seed {seed} round {round} burst {burst}\nreq {:?}\nresp {:?}",
                        String::from_utf8_lossy(&c.req),
                        String::from_utf8_lossy(&c.resp),
                    );
                    prop_assert_eq!(&live, &offline, "{}", case);
                    prop_assert_eq!(owned(&report), owned(&offline_report), "{}", case);
                }
            }
        }
    }

    /// The framer is total: on every prefix of generated streams and on
    /// 10 000 seeded bit-flips it never panics, never claims bytes it was
    /// not given, and at end of stream never asks for more after a
    /// complete head.
    #[test]
    fn framer_is_total_on_prefixes_and_bit_flips() {
        fn holds<T>(framed: Framed<T>, data: &[u8], eof: bool) {
            match framed {
                Ok((_, len)) => assert!(len <= data.len(), "{len} of {}", data.len()),
                Err(Unframed::Incomplete) => assert!(
                    !eof || crate::scan::find_head_end(data).is_none(),
                    "incomplete at end of stream behind a whole head: {data:?}"
                ),
                Err(Unframed::Malformed { .. }) => {}
            }
        }
        fn check(data: &[u8]) {
            for eof in [false, true] {
                holds(frame_request(data, eof), data, eof);
                holds(frame_response(data, &Method::Get, eof), data, eof);
                holds(frame_response(data, &Method::Head, eof), data, eof);
            }
        }
        let mut rng = StdRng::seed_from_u64(0x22);
        let streams: Vec<Vec<u8>> = (0..24)
            .flat_map(|_| {
                let c = connection(&mut rng);
                [c.req, c.resp]
            })
            .collect();
        for stream in &streams {
            for end in 0..=stream.len() {
                check(&stream[..end]);
            }
        }
        for _ in 0..10_000 {
            let mut stream = streams[rng.gen_range(0..streams.len())].clone();
            let at = rng.gen_range(0..stream.len());
            stream[at] ^= 1 << rng.gen_range(0..8u32);
            check(&stream);
            check(&stream[rng.gen_range(0..stream.len())..]);
        }
    }
}
