//! Live-wire HTTP observation: incremental parse and pairing of one
//! TCP connection, producing the same [`HttpTransaction`]s the offline
//! capture pipeline would.
//!
//! A [`ConnectionTap`] sits beside a connection someone else owns — a
//! forward proxy relaying bytes, or a packet-capture flow reassembler —
//! and is fed each direction's bytes as they arrive. It parses
//! requests and responses incrementally, FIFO-pairs them exactly like
//! [`crate::transaction`]'s offline pairing, and emits transactions
//! through the *same* synthesis routine
//! (`crate::transaction::synthesize_transaction`): Host resolution,
//! the content-coding decode gate, payload classification, and body
//! previews are shared code, so a transaction observed on the wire is
//! byte-identical to the same exchange extracted from a pcap.
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
//! observation* of the connection: HTTP has no resynchronization point
//! mid-stream, so the tap stops parsing, drops its buffers, and
//! reports [`ConnectionTap::overflowed`] — the owner keeps relaying
//! bytes, only the observation is lost. Size `capacity` above
//! [`crate::http::MAX_HEAD_LEN`] plus the largest body worth observing.
//!
//! # Close semantics
//!
//! While the connection is open the tap only emits *completely framed*
//! messages. [`ConnectionTap::close`] flushes the tail with the same
//! truncating end-of-stream semantics the offline parser applies at
//! the end of a reassembled stream: `Content-Length` bodies truncate
//! to what arrived, unterminated chunked bodies keep the decodable
//! prefix, until-close bodies take the rest, and still-unanswered
//! requests become status-0 transactions. Because truncation can only
//! ever affect the stream tail, incremental emission and offline
//! extraction of the same bytes agree on every transaction.
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

use crate::http::{
    decode_chunked, parse_request_head, parse_response_head, request_body_framing,
    response_body_framing, BodyFraming, Method,
};
use crate::ingest::IngestReport;
use crate::reassembly::Endpoint;
use crate::transaction::{
    count_unpaired, fnv1a, looks_like_request, synthesize_transaction, Body, HttpTransaction,
    ParsedRequest, ParsedResponse,
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
    data: Vec<u8>,
    /// `(absolute stream offset, ts)` per burst of appended bytes.
    timeline: Vec<(usize, f64)>,
    /// Absolute stream offset of `data[0]` (bytes consumed so far).
    base: usize,
    /// Total bytes ever offered to this direction.
    total_in: u64,
    /// First few bytes of the stream, kept for protocol triage after
    /// the live buffer has been drained.
    first: Vec<u8>,
    closed: bool,
}

impl DirBuf {
    fn push(&mut self, bytes: &[u8], ts: f64) {
        if bytes.is_empty() {
            return;
        }
        if self.first.len() < 8 {
            let want = 8 - self.first.len();
            self.first.extend_from_slice(&bytes[..bytes.len().min(want)]);
        }
        self.timeline.push((self.base + self.data.len(), ts));
        self.data.extend_from_slice(bytes);
    }

    /// Timestamp of the byte at relative offset `rel`, mirroring
    /// [`crate::reassembly::StreamView::timestamp_at`]: the last burst
    /// starting at or before it, else the first burst, else 0.
    fn ts_at(&self, rel: usize) -> f64 {
        let abs = self.base + rel;
        match self.timeline.binary_search_by(|(o, _)| o.cmp(&abs)) {
            Ok(i) => self.timeline[i].1,
            Err(0) => self.timeline.first().map(|&(_, t)| t).unwrap_or(0.0),
            Err(i) => self.timeline[i - 1].1,
        }
    }

    /// Drops `n` parsed bytes from the front, keeping the last
    /// timeline burst at or before the new base as the floor.
    fn consume(&mut self, n: usize) {
        self.data.drain(..n);
        self.base += n;
        if let Some(i) = self.timeline.iter().rposition(|&(o, _)| o <= self.base) {
            self.timeline.drain(..i);
        }
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
    /// Requests parsed but not yet answered, FIFO.
    pending: VecDeque<ParsedRequest>,
    /// Messages successfully parsed per direction (salvage accounting).
    req_msgs: u64,
    resp_msgs: u64,
    emitted: u64,
    /// A parse error killed this direction (no mid-stream resync).
    req_poisoned: bool,
    resp_poisoned: bool,
    /// The client's first bytes are not an HTTP request: observation
    /// disabled, accounted at close like an offline non-HTTP stream.
    non_http: bool,
    overflowed: bool,
    /// Observation dropped (overflow); bytes are swallowed unseen.
    abandoned: bool,
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
            req_msgs: 0,
            resp_msgs: 0,
            emitted: 0,
            req_poisoned: false,
            resp_poisoned: false,
            non_http: false,
            overflowed: false,
            abandoned: false,
            closed: false,
        }
    }

    /// Bytes this direction can accept before the buffer is full.
    /// Backpressuring owners read at most this much from the socket;
    /// once observation is abandoned the tap is a sink and reports
    /// unlimited space.
    pub fn free_space(&self, dir: TapDir) -> usize {
        if self.abandoned || self.non_http || self.closed {
            return usize::MAX;
        }
        let d = match dir {
            TapDir::Request => &self.req,
            TapDir::Response => &self.resp,
        };
        self.config.capacity.saturating_sub(d.data.len())
    }

    /// Whether observation was dropped because a single message could
    /// not complete within the tap buffer.
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Transactions emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Feeds one burst of `dir`-direction bytes observed at time `ts`.
    /// Completed transactions are appended to `out` (digested, seq 0)
    /// and decode/salvage outcomes are counted in `report`. Always
    /// swallows the full burst: bytes beyond what can be buffered
    /// *and* parsed mean an oversized message, which abandons
    /// observation (see module docs).
    pub fn offer(
        &mut self,
        dir: TapDir,
        bytes: &[u8],
        ts: f64,
        report: &mut IngestReport,
        out: &mut Vec<HttpTransaction>,
    ) {
        if self.abandoned || self.closed || bytes.is_empty() {
            return;
        }
        if self.non_http {
            // Observation is off but stream accounting still applies:
            // the direction existed, close() will triage it.
            let d = match dir {
                TapDir::Request => &mut self.req,
                TapDir::Response => &mut self.resp,
            };
            if d.first.len() < 8 {
                let want = 8 - d.first.len();
                d.first.extend_from_slice(&bytes[..bytes.len().min(want)]);
            }
            d.total_in += bytes.len() as u64;
            return;
        }
        let cap = self.config.capacity;
        let mut off = 0;
        while off < bytes.len() {
            let d = match dir {
                TapDir::Request => &mut self.req,
                TapDir::Response => &mut self.resp,
            };
            let free = cap.saturating_sub(d.data.len());
            if free == 0 {
                // The parser is stuck mid-message on a full buffer:
                // this message can never complete within the tap.
                self.overflow();
                return;
            }
            let take = free.min(bytes.len() - off);
            d.total_in += take as u64;
            d.push(&bytes[off..off + take], ts);
            off += take;
            self.pump(report, out);
            if self.abandoned || self.non_http {
                return;
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
        for d in [&self.req, &self.resp] {
            if d.total_in > 0 {
                report.streams_total += 1;
            }
        }
        if self.abandoned {
            return;
        }
        if self.non_http {
            // Mirror the offline pairer: streams on a connection with
            // no request direction are triaged by their first bytes.
            for d in [&self.req, &self.resp] {
                if d.total_in > 0 {
                    count_unpaired(report, &d.first);
                }
            }
            return;
        }
        self.req.closed = true;
        self.resp.closed = true;
        self.pump(report, out);
        while let Some(req) = self.pending.pop_front() {
            self.emit(req, None, report, out);
        }
        if self.req.total_in == 0 && self.resp.total_in > 0 && !self.resp_poisoned {
            // Response bytes with no request direction at all: the
            // offline pairer never parses these (orphan stream).
            count_unpaired(report, &self.resp.first);
        }
    }

    fn overflow(&mut self) {
        self.overflowed = true;
        self.abandoned = true;
        self.req.data = Vec::new();
        self.req.timeline = Vec::new();
        self.resp.data = Vec::new();
        self.resp.timeline = Vec::new();
        self.pending.clear();
    }

    fn pump(&mut self, report: &mut IngestReport, out: &mut Vec<HttpTransaction>) {
        self.pump_requests(report);
        if self.non_http {
            return;
        }
        self.pump_responses(report, out);
    }

    /// Parses as many completely framed requests as the buffer holds.
    fn pump_requests(&mut self, report: &mut IngestReport) {
        // Protocol triage once the prefix is decisive (or the stream
        // closed short): a client that doesn't open with an HTTP
        // method is not worth parsing at all.
        if self.req_msgs == 0 && !self.req.first.is_empty() {
            let decisive = self.req.first.len() >= 5 || self.req.closed;
            if decisive && !looks_like_request(&self.req.first) {
                self.non_http = true;
                self.req.data = Vec::new();
                self.resp.data = Vec::new();
                return;
            }
        }
        while !self.req_poisoned && !self.req.data.is_empty() {
            let eof = self.req.closed;
            let (head, consumed) = match parse_request_head(&self.req.data) {
                Ok(Some(parsed)) => parsed,
                Ok(None) => break, // incomplete head; close() ignores the tail
                Err(_) => {
                    self.poison(TapDir::Request, false, report);
                    break;
                }
            };
            let avail = self.req.data.len() - consumed;
            let body_len = match request_body_framing(&head) {
                BodyFraming::None => 0,
                BodyFraming::Length(n) if n <= avail => n,
                BodyFraming::Length(_) if eof => avail,
                BodyFraming::Length(_) => break,
                BodyFraming::Chunked => match decode_chunked(&self.req.data[consumed..]) {
                    Ok(Some((_, c))) => c,
                    Ok(None) if eof => avail,
                    Ok(None) => break,
                    Err(_) => {
                        self.poison(TapDir::Request, true, report);
                        break;
                    }
                },
                BodyFraming::UntilClose if eof => avail,
                BodyFraming::UntilClose => break,
            };
            let mut req = ParsedRequest { head, ts: self.req.ts_at(0) };
            if self.config.honor_replay_ts {
                if let Some(ts) = req.head.headers.get(REPLAY_TS_HEADER).and_then(|v| v.parse().ok())
                {
                    req.ts = ts;
                }
                req.head.headers.remove(REPLAY_TS_HEADER);
                req.head.headers.remove(REPLAY_ID_HEADER);
            }
            self.req.consume(consumed + body_len);
            self.req_msgs += 1;
            self.pending.push_back(req);
        }
    }

    /// Parses completely framed responses and pairs each with the
    /// oldest unanswered request.
    fn pump_responses(&mut self, report: &mut IngestReport, out: &mut Vec<HttpTransaction>) {
        while !self.resp_poisoned && !self.resp.data.is_empty() {
            let eof = self.resp.closed;
            let (head, consumed) = match parse_response_head(&self.resp.data) {
                Ok(Some(parsed)) => parsed,
                Ok(None) => break,
                Err(_) => {
                    self.poison(TapDir::Response, false, report);
                    break;
                }
            };
            // FIFO pairing: the framing method comes from the oldest
            // unanswered request, like the offline pairer's index
            // alignment. A response with no request (causally
            // impossible on a real connection) falls back to GET and
            // is dropped after framing, matching the offline pairer
            // discarding surplus responses.
            let method = self.pending.front().map(|r| r.head.method.clone()).unwrap_or(Method::Get);
            let avail = &self.resp.data[consumed..];
            let (body, body_consumed) = match response_body_framing(&head, &method) {
                BodyFraming::None => (Vec::new(), 0),
                BodyFraming::Length(n) if n <= avail.len() => (avail[..n].to_vec(), n),
                BodyFraming::Length(_) if eof => (avail.to_vec(), avail.len()),
                BodyFraming::Length(_) => break,
                BodyFraming::Chunked => match decode_chunked(avail) {
                    Ok(Some((body, c))) => (body, c),
                    Ok(None) if eof => (avail.to_vec(), avail.len()),
                    Ok(None) => break,
                    Err(_) => {
                        self.poison(TapDir::Response, true, report);
                        break;
                    }
                },
                BodyFraming::UntilClose if eof => (avail.to_vec(), avail.len()),
                BodyFraming::UntilClose => break,
            };
            let end = consumed + body_consumed;
            let mut resp = ParsedResponse {
                head,
                body: Body::Owned(body),
                end_ts: self.resp.ts_at(end.saturating_sub(1)),
            };
            if self.config.honor_replay_ts {
                if let Some(ts) =
                    resp.head.headers.get(REPLAY_RESP_TS_HEADER).and_then(|v| v.parse().ok())
                {
                    resp.end_ts = ts;
                }
                resp.head.headers.remove(REPLAY_RESP_TS_HEADER);
            }
            self.resp.consume(end);
            self.resp_msgs += 1;
            if let Some(req) = self.pending.pop_front() {
                self.emit(req, Some(resp), report, out);
            }
        }
    }

    fn emit(
        &mut self,
        req: ParsedRequest,
        resp: Option<ParsedResponse<'static>>,
        report: &mut IngestReport,
        out: &mut Vec<HttpTransaction>,
    ) {
        let (mut tx, body) =
            synthesize_transaction(self.client, self.server, req, resp, report);
        tx.payload_digest = fnv1a(body.as_slice());
        report.transactions_recovered += 1;
        self.emitted += 1;
        out.push(tx);
    }

    /// A parse error ends observation of one direction — salvage
    /// accounting mirrors the offline [`crate::transaction`] pairer:
    /// directions that yielded messages count as salvaged, barren ones
    /// as discarded, chunked-framing failures tallied separately.
    fn poison(&mut self, dir: TapDir, chunked: bool, report: &mut IngestReport) {
        if chunked {
            report.chunked_failures += 1;
        }
        let (flag, msgs, buf) = match dir {
            TapDir::Request => (&mut self.req_poisoned, self.req_msgs, &mut self.req),
            TapDir::Response => (&mut self.resp_poisoned, self.resp_msgs, &mut self.resp),
        };
        *flag = true;
        buf.data = Vec::new();
        buf.timeline = Vec::new();
        if msgs == 0 {
            report.streams_discarded += 1;
        } else {
            report.streams_salvaged += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::HeaderMap;
    use crate::payload::PayloadClass;
    use crate::reassembly::{FlowKey, StreamView};
    use crate::transaction::{assign_seq, digest_deferred, pair_connection};
    use std::net::Ipv4Addr;

    fn client() -> Endpoint {
        Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 50000)
    }

    fn server() -> Endpoint {
        Endpoint::new(Ipv4Addr::new(203, 0, 113, 9), 80)
    }

    fn offline_pair(req: &[u8], resp: Option<&[u8]>) -> Vec<HttpTransaction> {
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
        let _ = pair_connection(
            req_stream,
            resp_stream,
            &mut IngestReport::new(),
            &mut out,
            &mut deferred,
        );
        digest_deferred(&mut out, &deferred, &mut Vec::new());
        assign_seq(&mut out);
        out
    }

    /// Feeds bytes through a tap in `chunk`-sized bursts.
    fn tap_pair(req: &[u8], resp: Option<&[u8]>, chunk: usize) -> Vec<HttpTransaction> {
        let mut tap = ConnectionTap::new(client(), server(), TapConfig::default());
        let mut report = IngestReport::new();
        let mut out = Vec::new();
        // Interleave directions to exercise incremental pairing.
        let mut r = 0;
        let mut s = 0;
        let resp = resp.unwrap_or(&[]);
        while r < req.len() || s < resp.len() {
            if r < req.len() {
                let end = (r + chunk).min(req.len());
                tap.offer(TapDir::Request, &req[r..end], 1.0, &mut report, &mut out);
                r = end;
            }
            if s < resp.len() {
                let end = (s + chunk).min(resp.len());
                tap.offer(TapDir::Response, &resp[s..end], 2.0, &mut report, &mut out);
                s = end;
            }
        }
        tap.close(&mut report, &mut out);
        assign_seq(&mut out);
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
        assert_eq!(tap.emitted(), 50);
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
}
