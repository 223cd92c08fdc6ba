//! Pairing of HTTP requests and responses into transactions.
//!
//! An [`HttpTransaction`] is the unit every downstream DynaMiner component
//! consumes: one request/response exchange between a client and a server,
//! carrying timestamps, headers, and a classified payload summary.
//!
//! [`SpanPipeline`] reconstructs transactions from raw capture bytes:
//! record walk → Ethernet → IPv4 → TCP → stream reassembly → HTTP
//! parsing → FIFO request/response pairing per connection. It is the only
//! capture → transaction path; strict and lenient ingest are two policies
//! over the same run.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::arena::subslice_range;
use crate::http::{
    decode_chunked, parse_request_head, parse_response_head, request_body_framing,
    response_body_framing, BodyFraming, HeaderMap, Method, RequestHead, ResponseHead,
};
use crate::ingest::IngestReport;
use crate::payload::{classify, PayloadClass};
use crate::reassembly::{decode_frame, Endpoint, LaidStreams, SpanReassembler, Stage, StreamView};
use crate::{Error, Result};

/// Number of leading body bytes retained for inspection (redirect
/// de-obfuscation, signature hashing previews).
pub const BODY_PREVIEW_LEN: usize = 4096;

/// Maximum decoded (post-`Content-Encoding`) body size the decode gate
/// will materialize — the zip-bomb guard. A kilobyte-scale gzip body
/// can claim gigabytes of output; decoding is aborted at this bound
/// (the partial output is discarded, the still-encoded wire bytes are
/// kept, and [`IngestReport::decode_cap_exceeded`] counts the event).
/// 8 MiB comfortably covers every payload the detector inspects —
/// classification reads magic bytes and the [`BODY_PREVIEW_LEN`]
/// prefix, and real drive-by payloads are single-digit megabytes.
pub const MAX_DECODED_BODY_BYTES: usize = 8 << 20;

/// One paired HTTP request/response exchange.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HttpTransaction {
    /// Monotone ingest sequence number: the transaction's position in
    /// the stream it was ingested from. Timestamps can tie (coarse
    /// capture clocks, batched exports), so every replay path orders by
    /// `(ts, seq)` — a total order — instead of `ts` alone, and the
    /// sharded stream engine uses `seq` as the merge tie-break when
    /// recombining per-shard alert streams. [`SpanPipeline`] numbers
    /// transactions in emission order; [`assign_seq`] renumbers a merged
    /// or re-sorted stream.
    pub seq: u64,
    /// Time the request head was observed (seconds since epoch).
    pub ts: f64,
    /// Time the response body completed.
    pub resp_ts: f64,
    /// Client endpoint (the request sender).
    pub client: Endpoint,
    /// Server endpoint.
    pub server: Endpoint,
    /// Server hostname: the `Host` header when present, otherwise the
    /// server IP rendered as a string.
    pub host: String,
    /// Request method.
    pub method: Method,
    /// Request URI as sent.
    pub uri: String,
    /// All request headers.
    pub req_headers: HeaderMap,
    /// Response status code (0 when the response was never observed).
    pub status: u16,
    /// All response headers.
    pub resp_headers: HeaderMap,
    /// Classified payload type of the response body.
    pub payload_class: PayloadClass,
    /// Response body size in bytes.
    pub payload_size: usize,
    /// First [`BODY_PREVIEW_LEN`] bytes of the response body.
    pub body_preview: Vec<u8>,
    /// FNV-1a digest of the full response body (payload identity for the
    /// comparator engines).
    pub payload_digest: u64,
}

impl HttpTransaction {
    /// The `Referer` request header, if set and non-empty.
    pub fn referer(&self) -> Option<&str> {
        self.req_headers.get("Referer").filter(|v| !v.is_empty())
    }

    /// The `Location` response header, if set.
    pub fn location(&self) -> Option<&str> {
        self.resp_headers.get("Location")
    }

    /// Whether the `DNT` (do-not-track) request header is enabled.
    pub fn dnt_enabled(&self) -> bool {
        self.req_headers.get("DNT").is_some_and(|v| v.trim() == "1")
    }

    /// The `X-Flash-Version` request header, if set.
    pub fn x_flash_version(&self) -> Option<&str> {
        self.req_headers.get("X-Flash-Version")
    }

    /// A session identifier: the `Cookie` header when present, otherwise a
    /// session-id-like URI query parameter (`PHPSESSID`, `sessionid`,
    /// `sid`, `jsessionid`). The search ends at the first query parameter
    /// without a `=`. Borrowed: the tracker copies one only when it is new
    /// to a conversation.
    pub fn session_id(&self) -> Option<&str> {
        if let Some(c) = self.req_headers.get("Cookie") {
            return Some(c);
        }
        let query = self.uri.split_once('?')?.1;
        for kv in query.split('&') {
            let (k, v) = kv.split_once('=')?;
            if ["phpsessid", "sessionid", "sid", "jsessionid"]
                .iter()
                .any(|key| k.eq_ignore_ascii_case(key))
            {
                return Some(v);
            }
        }
        None
    }

    /// Whether the response is a redirect (3xx status).
    pub fn is_redirect(&self) -> bool {
        self.status / 100 == 3
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Computes the 64-bit FNV-1a digest of `data`.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in data {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Digests many bodies, producing exactly `fnv1a(bodies[i])` in
/// `out[i]` — but several times faster on a batch.
///
/// FNV-1a is a strict dependency chain (`xor` then multiply per byte),
/// so a single body digests at the multiplier's *latency*, not its
/// throughput. Bodies are independent, though: interleaving four of them
/// keeps four multiply chains in flight, and the out-of-order core
/// overlaps them. When a lane's body ends it is refilled from the queue;
/// once the queue is empty, an idle lane shadows a busy one, so the last
/// one to three bodies still run interleaved rather than one after
/// another. The per-body values are bit-identical to [`fnv1a`] by
/// construction.
pub fn fnv1a_many<B: AsRef<[u8]>>(bodies: &[B], out: &mut Vec<u64>) {
    out.clear();
    // Empty bodies hash to the offset basis; pre-fill so the lane refill
    // can skip them without occupying a lane.
    out.resize(bodies.len(), FNV_OFFSET);
    let mut next = 0usize;
    let mut lane = [usize::MAX; 4];
    let mut pos = [0usize; 4];
    let mut hash = [FNV_OFFSET; 4];
    loop {
        for l in 0..4 {
            while lane[l] == usize::MAX && next < bodies.len() {
                if bodies[next].as_ref().is_empty() {
                    next += 1;
                    continue;
                }
                lane[l] = next;
                pos[l] = 0;
                hash[l] = FNV_OFFSET;
                next += 1;
            }
        }
        let Some(busy) = (0..4).find(|&l| lane[l] != usize::MAX) else {
            return;
        };
        // Queue exhausted: an idle lane copies a busy lane's state. It
        // ends with its twin and writes the same digest to the same slot.
        for l in 0..4 {
            if lane[l] == usize::MAX {
                (lane[l], pos[l], hash[l]) = (lane[busy], pos[busy], hash[busy]);
            }
        }
        // All four lanes occupied: advance them in lockstep until the
        // shortest remaining body ends.
        let body = |l: usize| bodies[lane[l]].as_ref();
        let step = (0..4).map(|l| body(l).len() - pos[l]).min().expect("4 lanes");
        let s0 = &body(0)[pos[0]..pos[0] + step];
        let s1 = &body(1)[pos[1]..pos[1] + step];
        let s2 = &body(2)[pos[2]..pos[2] + step];
        let s3 = &body(3)[pos[3]..pos[3] + step];
        let (mut h0, mut h1, mut h2, mut h3) = (hash[0], hash[1], hash[2], hash[3]);
        for j in 0..step {
            h0 = (h0 ^ s0[j] as u64).wrapping_mul(FNV_PRIME);
            h1 = (h1 ^ s1[j] as u64).wrapping_mul(FNV_PRIME);
            h2 = (h2 ^ s2[j] as u64).wrapping_mul(FNV_PRIME);
            h3 = (h3 ^ s3[j] as u64).wrapping_mul(FNV_PRIME);
        }
        hash = [h0, h1, h2, h3];
        for l in 0..4 {
            pos[l] += step;
            if pos[l] == bodies[lane[l]].as_ref().len() {
                out[lane[l]] = hash[l];
                lane[l] = usize::MAX;
            }
        }
    }
}

/// A response entity body: borrowed from reassembled stream storage when
/// the framing permits (`Content-Length`, read-until-close), owned when
/// chunk decoding or content-coding removal had to materialize it.
#[derive(Debug)]
pub(crate) enum Body<'a> {
    Borrowed(&'a [u8]),
    Owned(Vec<u8>),
}

impl AsRef<[u8]> for Body<'_> {
    fn as_ref(&self) -> &[u8] {
        match self {
            Body::Borrowed(b) => b,
            Body::Owned(v) => v,
        }
    }
}

/// The capture → transaction pipeline, zero-copy on the way in.
///
/// The capture walk ([`crate::capture`]) hands each packet's `(ts,
/// range)` span into the capture buffer straight to frame decoding and
/// [`SpanReassembler`], which logs it with one flow-table probe and lays
/// streams as arena ranges, nothing copied. That front runs on the
/// calling thread. Triage pairs each connection's directions with one
/// sort and puts the connection in a client group, the
/// [`telemetry::pool::shard_of`] of its request side's source address
/// (its transactions' `client`, the partition a stream engine shards by),
/// and cuts the connections, in (group, connection) order, into windows
/// that never span two groups. The windows are [`telemetry::pool`] tasks
/// on every core: a worker copies a window's multi-segment streams into
/// its own reused buffer, pairs them from [`StreamView`]s that borrow it
/// (single-segment streams borrow the capture), and digests the window's
/// bodies in one batch ([`fnv1a_many`]). A window holds about 8 MiB of
/// copied streams divided by the worker count, so the staged bytes in
/// flight stay near 8 MiB whatever the core count. The worker that
/// finishes a group's last window sorts the group's transactions and
/// hands them to a consumer in the same task
/// ([`SpanPipeline::extract_grouped`]), so per-client work runs on every
/// core with no barrier before it. The other entry points merge the
/// groups back into one stream, so their transactions, report and strict
/// stop are the same at any worker and group count. Every buffer lives in
/// the pipeline and is reused across captures.
///
/// One run serves both ingest policies. Everything that can be salvaged
/// is, and every loss is counted in an [`IngestReport`] — that is
/// [`SpanPipeline::extract_lenient`]. The same run also remembers the
/// first stop a fail-stop reader would have made: a capture framing error,
/// else the first HTTP syntax error in connection order.
/// [`SpanPipeline::extract_capture_strict`] returns that stop as an error
/// and the transactions only when there was none. Truncated final
/// records, reassembly gaps, undecodable packets, non-HTTP streams,
/// orphan responses and broken content codings are losses, not stops.
#[derive(Debug, Default)]
pub struct SpanPipeline {
    reassembler: SpanReassembler,
    laid: LaidStreams,
    /// Every connection with a request direction, in (group, connection)
    /// order.
    conns: Vec<Conn>,
    /// Where each window starts in `conns`, then where the last ends.
    windows: Vec<usize>,
    /// Where each non-empty group's windows start in `windows`, then
    /// where the last group's end.
    groups: Vec<usize>,
    /// One scratch per worker; the first is the calling thread's.
    workers: Vec<Worker>,
}

/// A connection to pair: its rank in connection order, its client group
/// and its request and response stream indices.
#[derive(Debug, Clone, Copy)]
struct Conn {
    rank: u64,
    group: usize,
    req: usize,
    resp: Option<usize>,
}

/// Bytes of multi-segment streams [`SpanPipeline`] stages at once, split
/// evenly between its workers' windows (a connection larger than its
/// share is a window of its own). Large enough that a window holds many
/// connections and a full digest batch, small enough that the buffers
/// stay small and mapped across windows. Of 1, 2, 8 and 32 MiB on one
/// thread, 8 gave the lowest CPU per transaction on the benchmark's
/// 128 MiB `pcap_bulk` capture (2 vCPUs, x86-64).
const STAGE_WINDOW_BYTES: usize = 8 << 20;

/// Client groups per pool worker. A group is what one consumer call
/// works, so more groups balance uneven clients across workers and start
/// consuming sooner, and fewer keep windows larger. On the benchmark's
/// `pcap_lossy` capture (2 vCPUs, x86-64), 4, 8, 16 and 32 read alike
/// within run-to-run spread (medians 132–140 k transactions/s).
const GROUPS_PER_WORKER: usize = 16;

/// How a run divides a capture: staged bytes per window, pool workers
/// and client groups. Any split gives the same output.
#[derive(Debug, Clone, Copy)]
struct Split {
    window_bytes: usize,
    workers: usize,
    groups: usize,
}

impl Split {
    /// `workers` pool workers (`0`: one per core), the staging budget
    /// shared between them and [`GROUPS_PER_WORKER`] groups each.
    fn of(workers: usize) -> Split {
        let workers = telemetry::pool::resolve_threads(workers);
        Split {
            window_bytes: STAGE_WINDOW_BYTES / workers,
            workers,
            groups: GROUPS_PER_WORKER * workers,
        }
    }
}

impl SpanPipeline {
    /// Creates an empty pipeline.
    pub fn new() -> Self {
        SpanPipeline::default()
    }

    /// Extracts transactions from one capture, leniently. Never fails;
    /// losses are accounted in `report`.
    pub fn extract_lenient(
        &mut self,
        capture: &[u8],
        report: &mut IngestReport,
    ) -> Vec<HttpTransaction> {
        self.extract(capture, report, Split::of(0)).0
    }

    /// Extracts transactions from one capture, leniently, one client
    /// group at a time on `workers` pool workers (`0`: one per core):
    /// `consume` gets each group's transactions on the worker that paired
    /// its last window, and what it returns comes back in group order. A
    /// client's transactions are all in one group, sorted by
    /// [`feed_order`], and `seq` orders them as in the whole capture but is
    /// not renumbered: it is the connection's rank in connection order
    /// (high 32 bits), then the transaction's place in its connection. A
    /// group with no transactions is not consumed. Never fails; losses are
    /// accounted in `report`, and the first stop a strict reader would
    /// have made is returned beside the results.
    pub fn extract_grouped<T: Send>(
        &mut self,
        capture: &[u8],
        report: &mut IngestReport,
        workers: usize,
        consume: impl Fn(Vec<HttpTransaction>) -> T + Sync,
    ) -> (Vec<T>, Result<()>) {
        self.run(capture, report, Split::of(workers), consume)
    }

    /// [`SpanPipeline::extract_grouped`] with the staged bytes per window,
    /// the pool workers and the client groups given, for tests that hold
    /// a consumer's merged output fixed across all three.
    #[doc(hidden)]
    pub fn extract_grouped_at<T: Send>(
        &mut self,
        capture: &[u8],
        report: &mut IngestReport,
        window_bytes: usize,
        workers: usize,
        groups: usize,
        consume: impl Fn(Vec<HttpTransaction>) -> T + Sync,
    ) -> Vec<T> {
        self.run(capture, report, Split { window_bytes, workers, groups }, consume).0
    }

    /// The whole capture's transactions in feed order, numbered, and the
    /// first strict stop, if any: the groups merged by [`feed_order`].
    fn extract(
        &mut self,
        capture: &[u8],
        report: &mut IngestReport,
        split: Split,
    ) -> (Vec<HttpTransaction>, Result<()>) {
        let (groups, stop) = self.run(capture, report, split, |txs| txs);
        let mut out = Vec::with_capacity(groups.iter().map(Vec::len).sum());
        groups.into_iter().for_each(|group| out.extend(group));
        // Each group is sorted already; the stable sort merges the runs.
        out.sort_by(feed_order);
        assign_seq(&mut out);
        (out, stop)
    }

    /// The one run behind every entry point: `consume`'s result for every
    /// group with transactions, in group order, and the first strict
    /// stop, if any. The output depends on none of `split` (tests run
    /// windows of one byte to unbounded, one to eight workers and one
    /// group to many).
    fn run<T: Send>(
        &mut self,
        capture: &[u8],
        report: &mut IngestReport,
        split: Split,
        consume: impl Fn(Vec<HttpTransaction>) -> T + Sync,
    ) -> (Vec<T>, Result<()>) {
        let (mut non_tcp, mut undecodable) = (0, 0);
        let reassembler = &mut self.reassembler;
        let first_stop = crate::capture::walk_packets(capture, report, |ts, range| {
            match decode_frame(&capture[range]) {
                Ok(Some((key, tcp))) => {
                    reassembler.push_span(ts, key, &tcp, subslice_range(capture, tcp.payload));
                }
                Ok(None) => non_tcp += 1,
                Err(_) => undecodable += 1,
            }
        });
        report.packets_non_tcp += non_tcp;
        report.packets_dropped_decode += undecodable;
        self.reassembler.lay_streams(&mut report.reassembly_gaps, &mut self.laid);
        report.streams_total += self.laid.len() as u64;
        // Triage by first bytes, read across a stream's pieces: which
        // direction of each connection is the request. One sort groups the
        // connections' streams, each group in first-seen order.
        let mut head = [0u8; TRIAGE_BYTES];
        let mut by_conn: Vec<_> =
            (0..self.laid.len()).map(|i| (self.laid.key(i).connection_id(), i)).collect();
        by_conn.sort_unstable();
        self.conns.clear();
        for streams in by_conn.chunk_by(|a, b| a.0 == b.0) {
            let (mut req, mut resp) = (None, None);
            for &(_, i) in streams {
                let is_request = looks_like_request(self.laid.head(capture, i, &mut head));
                let slot = if is_request { &mut req } else { &mut resp };
                if let Some(displaced) = slot.replace(i) {
                    count_unpaired(report, self.laid.head(capture, displaced, &mut head));
                }
            }
            let Some(req) = req else {
                if let Some(orphan) = resp {
                    count_unpaired(report, self.laid.head(capture, orphan, &mut head));
                }
                continue;
            };
            let group = telemetry::pool::shard_of(self.laid.key(req).src.addr, split.groups);
            self.conns.push(Conn { rank: self.conns.len() as u64, group, req, resp });
        }
        // Stable: each group keeps connection order.
        self.conns.sort_by_key(|conn| conn.group);
        self.windows.clear();
        self.groups.clear();
        let mut staged_bytes = 0usize;
        for (i, conn) in self.conns.iter().enumerate() {
            let bytes =
                self.laid.copy_len(conn.req) + conn.resp.map_or(0, |r| self.laid.copy_len(r));
            let new_group = i == 0 || self.conns[i - 1].group != conn.group;
            if new_group || staged_bytes + bytes > split.window_bytes {
                if new_group {
                    self.groups.push(self.windows.len());
                }
                self.windows.push(i);
                staged_bytes = 0;
            }
            staged_bytes += bytes;
        }
        self.groups.push(self.windows.len());
        self.windows.push(self.conns.len());
        let n_windows = self.windows.len() - 1;
        let workers = split.workers.min(n_windows);
        if self.workers.len() < workers {
            self.workers.resize_with(workers, Worker::default);
        }
        // A window's transactions wait in its slot until the worker that
        // finishes the group's last window takes them all.
        let slots: Vec<Mutex<Vec<HttpTransaction>>> =
            (0..n_windows).map(|_| Mutex::default()).collect();
        let pending: Vec<AtomicUsize> =
            self.groups.windows(2).map(|g| AtomicUsize::new(g[1] - g[0])).collect();
        let take = |slot: &Mutex<Vec<HttpTransaction>>| {
            std::mem::take(&mut *slot.lock().expect("no slot is locked across a panic"))
        };
        let (laid, conns, windows, groups) =
            (&self.laid, &self.conns[..], &self.windows[..], &self.groups[..]);
        let paired = telemetry::pool::run_indexed_with(
            &mut self.workers[..workers],
            n_windows,
            |worker, w| {
                let window = worker.pair_window(laid, capture, &conns[windows[w]..windows[w + 1]]);
                let g = groups.partition_point(|&start| start <= w) - 1;
                *slots[w].lock().expect("no slot is locked across a panic") = window.txs;
                // AcqRel: every other window of the group released its
                // slot before its countdown, and the last one acquires
                // them all.
                let consumed = (pending[g].fetch_sub(1, Ordering::AcqRel) == 1).then(|| {
                    let mut runs = slots[groups[g]..groups[g + 1]].iter().map(take);
                    let mut txs = runs.next().unwrap_or_default();
                    runs.for_each(|run| txs.extend(run));
                    txs.sort_unstable_by(feed_order);
                    (!txs.is_empty()).then(|| consume(txs))
                });
                (window.report, window.stop, consumed.flatten())
            },
        );
        let mut out = Vec::with_capacity(groups.len() - 1);
        let mut stops = Vec::new();
        for (window_report, stop, consumed) in paired {
            report.merge(&window_report);
            stops.extend(stop);
            out.extend(consumed);
        }
        let stop = stops.into_iter().min_by_key(|&(rank, _)| rank).map_or(Ok(()), |(_, e)| Err(e));
        (out, first_stop.and(stop))
    }

    /// Convenience: one-shot lenient extraction from raw capture bytes.
    pub fn extract_capture_lenient(
        capture: &[u8],
        report: &mut IngestReport,
    ) -> Vec<HttpTransaction> {
        SpanPipeline::new().extract_lenient(capture, report)
    }

    /// Extracts transactions from one capture, fail-stop: transactions
    /// sorted by request timestamp, or the first framing or HTTP-syntax
    /// stop.
    ///
    /// # Errors
    ///
    /// [`Error::BadPcapMagic`], [`Error::BadCaptureLength`] or a pcapng
    /// structural error when the capture cannot be framed;
    /// [`Error::HttpSyntax`] when a stream that begins like an HTTP
    /// message is malformed. Streams that do not look like HTTP at all
    /// are skipped silently.
    pub fn extract_capture_strict(capture: &[u8]) -> Result<Vec<HttpTransaction>> {
        let (transactions, first_stop) =
            SpanPipeline::new().extract(capture, &mut IngestReport::new(), Split::of(0));
        first_stop.map(|()| transactions)
    }
}

/// One pairing worker's scratch, reused across windows and captures.
#[derive(Debug, Default)]
struct Worker {
    stage: Stage,
    digests: Vec<u64>,
    /// The bodies of the window being paired, queued for digesting.
    /// They borrow its staging buffer, so between windows the list is
    /// empty and only its allocation is kept.
    bodies: Vec<Body<'static>>,
}

/// What pairing one window gives: its transactions, its share of the
/// report and its first strict stop, if any, with the rank of the
/// connection that made it.
#[derive(Debug)]
struct Paired {
    txs: Vec<HttpTransaction>,
    report: IngestReport,
    stop: Option<(u64, Error)>,
}

impl Worker {
    /// Stages the streams of one window of connections, pairs the
    /// connections in order, and digests their bodies in one interleaved
    /// batch, written back before the next window reuses the buffer the
    /// bodies borrow. Each transaction's `seq` is its connection's rank
    /// (high 32 bits), then its place in the connection.
    fn pair_window(&mut self, laid: &LaidStreams, capture: &[u8], conns: &[Conn]) -> Paired {
        let ids = conns.iter().flat_map(|conn| std::iter::once(conn.req).chain(conn.resp));
        let staged = laid.stage(capture, ids, &mut self.stage);
        let mut bodies = recycle(std::mem::take(&mut self.bodies));
        let mut report = IngestReport::new();
        let mut stop = None;
        let mut txs = Vec::with_capacity(conns.len());
        let mut k = 0;
        for conn in conns {
            let req = staged.view(k);
            let resp = conn.resp.map(|_| staged.view(k + 1));
            k += 1 + usize::from(resp.is_some());
            let first = txs.len();
            let result = pair_connection(req, resp, &mut report, &mut txs, &mut bodies);
            if stop.is_none() {
                stop = result.err().map(|e| (conn.rank, e));
            }
            for (i, tx) in (0..).zip(&mut txs[first..]) {
                tx.seq = conn.rank << 32 | i;
            }
        }
        digest_deferred(&mut txs, &bodies, &mut self.digests);
        self.bodies = recycle(bodies);
        report.transactions_recovered = txs.len() as u64;
        Paired { txs, report, stop }
    }
}

/// Empties `v` and returns it as a vector of `U`, keeping its allocation
/// when `T` and `U` share a layout (the standard library collects a
/// mapped `into_iter` in place). It carries a borrowing element type's
/// buffer, such as `Body`'s, from one borrow to the next.
fn recycle<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter().map(|_| unreachable!("the vector is empty")).collect()
}

/// Digests every queued body in one interleaved batch ([`fnv1a_many`])
/// and writes body `i`'s digest to `out[i]`, the transaction it was
/// queued with.
pub(crate) fn digest_deferred(
    out: &mut [HttpTransaction],
    bodies: &[Body<'_>],
    digests: &mut Vec<u64>,
) {
    assert_eq!(out.len(), bodies.len(), "one queued body per transaction");
    fnv1a_many(bodies, digests);
    for (tx, &digest) in out.iter_mut().zip(digests.iter()) {
        tx.payload_digest = digest;
    }
}

/// The feed order of every replay path: `(ts, seq)`, a total order over
/// a numbered stream (`ts` alone leaves tied timestamps incidental).
pub fn feed_order(a: &HttpTransaction, b: &HttpTransaction) -> std::cmp::Ordering {
    a.ts.total_cmp(&b.ts).then(a.seq.cmp(&b.seq))
}

/// Renumbers a transaction stream's [`HttpTransaction::seq`] ingest
/// sequence numbers to match the stream's current order. Call after
/// merging or re-sorting streams from several sources so `(ts, seq)`
/// ordering is a total order again (duplicate sequence numbers from
/// independent extractions would otherwise leave ties).
pub fn assign_seq(transactions: &mut [HttpTransaction]) {
    for (i, tx) in transactions.iter_mut().enumerate() {
        tx.seq = i as u64;
    }
}

/// Accounts for a stream that will produce no transactions: orphan HTTP
/// responses count as discarded, anything else as non-HTTP.
pub(crate) fn count_unpaired(report: &mut IngestReport, data: &[u8]) {
    if data.starts_with(b"HTTP/") {
        report.streams_discarded += 1;
    } else {
        report.streams_skipped_non_http += 1;
    }
}

/// Leading bytes of a stream the triage reads: enough for every prefix
/// [`looks_like_request`] and [`count_unpaired`] test.
const TRIAGE_BYTES: usize = 8;

/// Whether a byte stream begins with a plausible HTTP request line.
pub(crate) fn looks_like_request(data: &[u8]) -> bool {
    const METHODS: [&[u8]; 8] =
        [b"GET ", b"POST ", b"HEAD ", b"PUT ", b"DELET", b"OPTIO", b"PATCH", b"CONNE"];
    METHODS.iter().any(|m| data.starts_with(m))
}

#[derive(Debug)]
pub(crate) struct ParsedRequest {
    pub(crate) head: RequestHead,
    pub(crate) ts: f64,
}

pub(crate) struct ParsedResponse<'a> {
    pub(crate) head: ResponseHead,
    pub(crate) body: Body<'a>,
    pub(crate) end_ts: f64,
}

/// Why the front of a byte stream is not a whole message.
#[derive(Debug)]
pub(crate) enum Unframed {
    /// The stream ends inside a message. Before end of stream that is any
    /// unfinished head or body; at it only an unfinished head, because a
    /// body then truncates to what arrived.
    Incomplete,
    /// No message starts here, and HTTP has no point to resynchronize on
    /// further in: the stream stops. `chunked` tells a chunk-framing
    /// failure from a bad head.
    Malformed { error: Error, chunked: bool },
}

/// The framer's answer: the message at the front of the stream and the
/// number of bytes it occupies, or why there is none.
pub(crate) type Framed<T> = std::result::Result<(T, usize), Unframed>;

/// Frames the request at the front of `data`. The one request framer:
/// [`pair_connection`] runs it over a finished stream (`eof` set), the
/// wire tap over what has arrived so far (`eof` = direction closed).
pub(crate) fn frame_request(data: &[u8], eof: bool) -> Framed<RequestHead> {
    let (head, head_len) = whole_head(parse_request_head(data))?;
    let (_, len) = frame_body(request_body_framing(&head), &data[head_len..], eof)?;
    Ok((head, head_len + len))
}

/// Frames the response at the front of `data`, answering a `method`
/// request; the body borrows `data` unless chunk decoding had to
/// materialize it. The one response framer (see [`frame_request`]).
pub(crate) fn frame_response<'a>(
    data: &'a [u8],
    method: &Method,
    eof: bool,
) -> Framed<(ResponseHead, Body<'a>)> {
    let (head, head_len) = whole_head(parse_response_head(data))?;
    let (body, len) = frame_body(response_body_framing(&head, method), &data[head_len..], eof)?;
    Ok(((head, body), head_len + len))
}

fn whole_head<H>(parsed: Result<Option<(H, usize)>>) -> Framed<H> {
    match parsed {
        Ok(Some(head)) => Ok(head),
        Ok(None) => Err(Unframed::Incomplete),
        Err(error) => Err(Unframed::Malformed { error, chunked: false }),
    }
}

fn frame_body(framing: BodyFraming, avail: &[u8], eof: bool) -> Framed<Body<'_>> {
    // A body the stream ends inside: all that arrived at end of stream,
    // not yet a message before it.
    let rest = || {
        if eof {
            Ok((Body::Borrowed(avail), avail.len()))
        } else {
            Err(Unframed::Incomplete)
        }
    };
    match framing {
        BodyFraming::None => Ok((Body::Borrowed(&avail[..0]), 0)),
        BodyFraming::Length(n) if n <= avail.len() => Ok((Body::Borrowed(&avail[..n]), n)),
        BodyFraming::Length(_) | BodyFraming::UntilClose => rest(),
        BodyFraming::Chunked => match decode_chunked(avail) {
            Ok(Some((body, len))) => Ok((Body::Owned(body), len)),
            Ok(None) => rest(),
            Err(error) => Err(Unframed::Malformed { error, chunked: true }),
        },
    }
}

/// Folds a stream that stopped at an [`Unframed::Malformed`] into the ingest
/// report: salvaged if it had yielded messages, discarded if none, and
/// chunked-framing failures tallied.
pub(crate) fn account(report: &mut IngestReport, yielded: bool, chunked: bool) {
    if chunked {
        report.chunked_failures += 1;
    }
    if yielded {
        report.streams_salvaged += 1;
    } else {
        report.streams_discarded += 1;
    }
}

/// Frames every message of one finished stream, each with the byte range
/// it occupies; `frame` gets the unframed rest and the message's index.
/// The `Err` is where a strict reader stops, already [`account`]ed.
fn frame_stream<'a, T>(
    data: &'a [u8],
    report: &mut IngestReport,
    mut frame: impl FnMut(&'a [u8], usize) -> Framed<T>,
) -> (Vec<(T, Range<usize>)>, Result<()>) {
    let mut messages = Vec::new();
    let mut pos = 0usize;
    while pos < data.len() {
        match frame(&data[pos..], messages.len()) {
            Ok((message, len)) => {
                messages.push((message, pos..pos + len));
                pos += len;
            }
            Err(Unframed::Incomplete) => break,
            Err(Unframed::Malformed { error, chunked }) => {
                account(report, !messages.is_empty(), chunked);
                return (messages, Err(error));
            }
        }
    }
    (messages, Ok(()))
}

/// Pairs whatever both directions of one connection could salvage,
/// appending transactions to `out` with `payload_digest` left at 0 and
/// each one's body to `deferred`, in the same order, for batch
/// digesting (see [`digest_deferred`]). Stream-level outcomes and
/// body-decode failures are recorded in `report`.
///
/// # Errors
///
/// Never fails to pair; the `Err` is the first HTTP syntax error met
/// (requests before responses), for the strict policy to return.
pub(crate) fn pair_connection<'a>(
    req_stream: StreamView<'a>,
    resp_stream: Option<StreamView<'a>>,
    report: &mut IngestReport,
    out: &mut Vec<HttpTransaction>,
    deferred: &mut Vec<Body<'a>>,
) -> Result<()> {
    let (requests, req_stop) =
        frame_stream(req_stream.data, report, |data, _| frame_request(data, true));
    // Response `i` is framed as the answer to request `i`; a surplus one
    // as if to a `GET`, and then dropped.
    let resp_stream = resp_stream.unwrap_or(StreamView {
        key: req_stream.key.reversed(),
        data: &[],
        timeline: &[],
        closed: true,
    });
    let (responses, resp_stop) = frame_stream(resp_stream.data, report, |data, i| {
        let method = requests.get(i).map_or(&Method::Get, |(head, _)| &head.method);
        frame_response(data, method, true)
    });
    let mut responses = responses.into_iter();
    for (head, at) in requests {
        let req = ParsedRequest { head, ts: req_stream.timestamp_at(at.start) };
        let resp = responses.next().map(|((head, body), at)| {
            let end_ts = resp_stream.timestamp_at(at.end.saturating_sub(1));
            ParsedResponse { head, body, end_ts }
        });
        let (tx, body) =
            synthesize_transaction(req_stream.key.src, req_stream.key.dst, req, resp, report);
        deferred.push(body);
        out.push(tx);
    }
    req_stop.and(resp_stop)
}

/// Removes the response's `Content-Encoding` layers from `body`.
///
/// The header is a comma-separated list of coding tokens applied in
/// order, so decoding unwraps them in reverse. Per token
/// (ASCII-case-insensitive, no allocation): `gzip` and its legacy alias
/// `x-gzip` go through [`crate::flate::gzip_decompress`], `deflate`
/// (zlib or raw) through [`crate::flate::deflate_decompress`], and
/// `identity` (or an empty token) is a no-op. Decoding stops at the
/// first failure or unknown coding (`br`, `zstd`, …) — the bytes
/// recovered so far are kept so payload sizing still works, and
/// failures are counted per coding in `report`. Decoded output is
/// bounded by [`MAX_DECODED_BODY_BYTES`]: a body that would expand past
/// it (a zip bomb) keeps its encoded bytes and is counted in
/// [`IngestReport::decode_cap_exceeded`].
fn decode_content_codings<'a>(
    body: Body<'a>,
    resp_headers: &HeaderMap,
    report: &mut IngestReport,
) -> Body<'a> {
    let Some(encodings) = resp_headers.get("Content-Encoding") else {
        // The common case: no coding, nothing to materialize — the body
        // stays a borrow of reassembled stream storage.
        return body;
    };
    // Each layer decodes straight from the bytes under it — the first
    // from the borrowed wire body — so the only copy is a decoder's output.
    let mut decoded: Option<Vec<u8>> = None;
    for token in encodings.rsplit(',') {
        let token = token.trim();
        if token.is_empty() || token.eq_ignore_ascii_case("identity") {
            continue;
        }
        let coded = decoded.as_deref().unwrap_or(body.as_ref());
        let layer = if token.eq_ignore_ascii_case("gzip") || token.eq_ignore_ascii_case("x-gzip")
        {
            crate::flate::gzip_decompress_capped(coded, MAX_DECODED_BODY_BYTES)
        } else if token.eq_ignore_ascii_case("deflate") {
            crate::flate::deflate_decompress_capped(coded, MAX_DECODED_BODY_BYTES)
        } else {
            break;
        };
        match layer {
            Ok(layer) => decoded = Some(layer),
            Err(e) => {
                match e {
                    Error::DecodedTooLarge { .. } => report.decode_cap_exceeded += 1,
                    _ if token.eq_ignore_ascii_case("deflate") => report.deflate_failures += 1,
                    _ => report.gzip_failures += 1,
                }
                break;
            }
        }
    }
    decoded.map_or(body, Body::Owned)
}

/// Synthesizes one [`HttpTransaction`] from a parsed request and its
/// (optional) parsed response: Host resolution, the decode gate,
/// payload classification, and the body preview — shared verbatim by
/// the offline pairing above and the live wire tap ([`crate::wiretap`]),
/// so a transaction observed on the wire is byte-identical to the same
/// exchange extracted from a capture. Body decode failures are counted
/// per coding in `report` (the raw body is kept either way).
///
/// `payload_digest` is left at 0; the caller digests `body` directly
/// ([`fnv1a`]) or queues it for batch digesting ([`fnv1a_many`]) — FNV's
/// serial dependency chain makes per-body digesting the single hottest
/// step of ingest.
pub(crate) fn synthesize_transaction<'a>(
    client: Endpoint,
    server: Endpoint,
    req: ParsedRequest,
    resp: Option<ParsedResponse<'a>>,
    report: &mut IngestReport,
) -> (HttpTransaction, Body<'a>) {
    let host = req
        .head
        .headers
        .get("Host")
        .map(str::to_string)
        .unwrap_or_else(|| server.addr.to_string());
    let (status, resp_headers, body, end_ts) = match resp {
        Some(r) => (r.head.status, r.head.headers, r.body, r.end_ts),
        None => (0, HeaderMap::new(), Body::Borrowed(&[][..]), req.ts),
    };
    // Entity bodies are exposed *decoded*: content codings are
    // removed so payload classification, digests, and redirect mining
    // see the real content (where meta-refresh tags and obfuscated
    // JavaScript actually live). Undecodable bodies fall back to the
    // raw bytes, counted per coding.
    let body = decode_content_codings(body, &resp_headers, report);
    let bytes = body.as_ref();
    let content_type = resp_headers.get("Content-Type");
    let payload_class = classify(&req.head.uri, content_type, bytes.len(), bytes);
    let preview_len = bytes.len().min(BODY_PREVIEW_LEN);
    let tx = HttpTransaction {
        seq: 0, // numbered in emission order by the caller
        ts: req.ts,
        resp_ts: end_ts,
        client,
        server,
        host,
        method: req.head.method,
        uri: req.head.uri,
        req_headers: req.head.headers,
        status,
        resp_headers,
        payload_class,
        payload_size: bytes.len(),
        payload_digest: 0,
        body_preview: bytes[..preview_len].to_vec(),
    };
    (tx, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ether::ETHERTYPE_IPV4;
    use crate::ipv4::PROTO_TCP;
    use crate::pcap::Packet;
    use crate::reassembly::FlowKey;
    use std::collections::BTreeMap;
    use std::net::Ipv4Addr;

    /// Pairs one connection's two reassembled directions, each a single
    /// burst of bytes stamped `ts`: the transactions (digested), the
    /// lenient report, and the strict stop.
    fn pair_full(
        req: (&[u8], f64),
        resp: Option<(&[u8], f64)>,
    ) -> (Vec<HttpTransaction>, IngestReport, crate::Result<()>) {
        let req_timeline = [(0, req.1)];
        let resp_timeline = [(0, resp.map_or(0.0, |r| r.1))];
        let req_view =
            StreamView { key: conn(), data: req.0, timeline: &req_timeline, closed: true };
        let resp_view = resp.map(|(data, _)| StreamView {
            key: conn().reversed(),
            data,
            timeline: &resp_timeline,
            closed: true,
        });
        let mut report = IngestReport::new();
        let mut out = Vec::new();
        let mut deferred = Vec::new();
        let stop = pair_connection(req_view, resp_view, &mut report, &mut out, &mut deferred);
        digest_deferred(&mut out, &deferred, &mut Vec::new());
        (out, report, stop)
    }

    fn pair(req: (&[u8], f64), resp: Option<(&[u8], f64)>) -> Vec<HttpTransaction> {
        pair_full(req, resp).0
    }

    fn conn() -> FlowKey {
        FlowKey::new(
            Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 50000),
            Endpoint::new(Ipv4Addr::new(203, 0, 113, 9), 80),
        )
    }

    #[test]
    fn pairs_single_transaction() {
        let req = b"GET /page.html HTTP/1.1\r\nHost: example.com\r\nReferer: http://google.com/\r\n\r\n";
        let resp = b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 5\r\n\r\nhello";
        let txs = pair((req, 1.0), Some((resp, 1.2)));
        assert_eq!(txs.len(), 1);
        let t = &txs[0];
        assert_eq!(t.host, "example.com");
        assert_eq!(t.method, Method::Get);
        assert_eq!(t.status, 200);
        assert_eq!(t.payload_size, 5);
        assert_eq!(t.payload_class, PayloadClass::Html);
        assert_eq!(t.referer(), Some("http://google.com/"));
        assert_eq!(t.ts, 1.0);
    }

    #[test]
    fn pairs_pipelined_transactions_in_order() {
        let req = b"GET /a HTTP/1.1\r\nHost: h\r\n\r\nGET /b.js HTTP/1.1\r\nHost: h\r\n\r\n";
        let resp = b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nAHTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n\r\nBB";
        let txs = pair((req, 1.0), Some((resp, 1.1)));
        assert_eq!(txs.len(), 2);
        assert_eq!(txs[0].uri, "/a");
        assert_eq!(txs[0].status, 200);
        assert_eq!(txs[1].uri, "/b.js");
        assert_eq!(txs[1].status, 404);
        assert_eq!(txs[1].payload_size, 2);
    }

    #[test]
    fn missing_response_yields_status_zero() {
        let req = b"POST /exfil HTTP/1.1\r\nHost: cc.evil\r\nContent-Length: 4\r\n\r\ndata";
        let txs = pair((req, 2.0), None);
        assert_eq!(txs.len(), 1);
        assert_eq!(txs[0].status, 0);
        assert_eq!(txs[0].method, Method::Post);
        assert_eq!(txs[0].payload_class, PayloadClass::Empty);
    }

    #[test]
    fn chunked_response_body_is_decoded() {
        let req = b"GET /d.bin HTTP/1.1\r\nHost: h\r\n\r\n";
        let resp =
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nMZxx\r\n3\r\nyyy\r\n0\r\n\r\n";
        let txs = pair((req, 0.0), Some((resp, 0.0)));
        assert_eq!(txs[0].payload_size, 7);
        assert_eq!(txs[0].payload_class, PayloadClass::Exe); // MZ magic
    }

    #[test]
    fn until_close_body_consumes_rest() {
        let req = b"GET /v HTTP/1.1\r\nHost: h\r\n\r\n";
        let resp = b"HTTP/1.1 200 OK\r\n\r\nstream-until-close";
        let txs = pair((req, 0.0), Some((resp, 0.0)));
        assert_eq!(txs[0].payload_size, 18);
    }

    #[test]
    fn session_id_from_cookie_and_query() {
        let mut t = HttpTransaction {
            seq: 0,
            ts: 0.0,
            resp_ts: 0.0,
            client: Endpoint::new(Ipv4Addr::LOCALHOST, 1),
            server: Endpoint::new(Ipv4Addr::LOCALHOST, 80),
            host: "h".into(),
            method: Method::Get,
            uri: "/x?PHPSESSID=abc123&o=1".into(),
            req_headers: HeaderMap::new(),
            status: 200,
            resp_headers: HeaderMap::new(),
            payload_class: PayloadClass::Html,
            payload_size: 0,
            body_preview: Vec::new(),
            payload_digest: 0,
        };
        assert_eq!(t.session_id(), Some("abc123"));
        // A parameter without `=` ends the search.
        t.uri = "/x?flag&sid=abc123".into();
        assert_eq!(t.session_id(), None);
        t.req_headers.append("Cookie", "sid=zzz");
        assert_eq!(t.session_id(), Some("sid=zzz"));
    }

    #[test]
    fn gzip_bodies_are_decoded_for_classification() {
        let html = b"<html><meta http-equiv=\"refresh\" content=\"0;url=http://next.example/\"></html>";
        let gz = crate::flate::gzip_compress(html);
        let req = b"GET /page HTTP/1.1\r\nHost: h\r\n\r\n";
        let resp = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Encoding: gzip\r\nContent-Length: {}\r\n\r\n",
            gz.len()
        );
        let mut resp_bytes = resp.into_bytes();
        resp_bytes.extend_from_slice(&gz);
        let txs = pair((req, 0.0), Some((&resp_bytes, 0.1)));
        assert_eq!(txs.len(), 1);
        assert_eq!(txs[0].payload_class, PayloadClass::Html);
        assert_eq!(txs[0].payload_size, html.len(), "decoded size");
        assert_eq!(txs[0].payload_digest, fnv1a(html), "decoded digest");
        assert!(String::from_utf8_lossy(&txs[0].body_preview).contains("next.example"));
    }

    fn resp_with_encoding(encoding: &str, wire_body: &[u8]) -> Vec<u8> {
        let mut resp = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Encoding: {encoding}\r\nContent-Length: {}\r\n\r\n",
            wire_body.len()
        )
        .into_bytes();
        resp.extend_from_slice(wire_body);
        resp
    }

    fn single_tx(encoding: &str, wire_body: &[u8]) -> HttpTransaction {
        let req = b"GET /page HTTP/1.1\r\nHost: h\r\n\r\n";
        let resp = resp_with_encoding(encoding, wire_body);
        let mut txs = pair((req, 0.0), Some((&resp, 0.1)));
        assert_eq!(txs.len(), 1);
        txs.remove(0)
    }

    #[test]
    fn deflate_bodies_are_decoded_for_classification() {
        let html = b"<html><meta http-equiv=\"refresh\" content=\"0;url=http://next.example/\"></html>";
        // Both on-wire forms of `deflate`: zlib-wrapped and raw.
        for wire in [crate::flate::zlib_compress(html), crate::flate::deflate_stored(html)] {
            let tx = single_tx("deflate", &wire);
            assert_eq!(tx.payload_class, PayloadClass::Html);
            assert_eq!(tx.payload_size, html.len(), "decoded size");
            assert_eq!(tx.payload_digest, fnv1a(html), "decoded digest");
            assert!(String::from_utf8_lossy(&tx.body_preview).contains("next.example"));
        }
    }

    #[test]
    fn x_gzip_alias_decodes_like_gzip() {
        let body = b"<html>aliased</html>";
        let tx = single_tx("x-gzip", &crate::flate::gzip_compress(body));
        assert_eq!(tx.payload_size, body.len());
        assert_eq!(tx.payload_digest, fnv1a(body));
    }

    #[test]
    fn content_encoding_token_list_is_parsed_not_substring_matched() {
        let body = b"<html>token list</html>";
        // Multi-token values decode the real coding, `identity` is a
        // no-op in any position, and case/whitespace are irrelevant.
        for enc in ["gzip, identity", "identity, gzip", " GZIP ", "identity,\tgzip"] {
            let tx = single_tx(enc, &crate::flate::gzip_compress(body));
            assert_eq!(tx.payload_size, body.len(), "encoding {enc:?}");
            assert_eq!(tx.payload_digest, fnv1a(body), "encoding {enc:?}");
        }
        // A non-encoding token merely *containing* "gzip" must not
        // trigger gzip decoding (the old substring bug).
        let raw = b"not actually compressed";
        let tx = single_tx("not-gzip-at-all", raw);
        assert_eq!(tx.payload_size, raw.len(), "raw bytes kept");
        assert_eq!(tx.payload_digest, fnv1a(raw));
    }

    #[test]
    fn identity_encoding_is_a_no_op() {
        let raw = b"plain text body";
        let tx = single_tx("identity", raw);
        assert_eq!(tx.payload_size, raw.len());
        assert_eq!(tx.payload_digest, fnv1a(raw));
    }

    #[test]
    fn stacked_codings_unwrap_in_reverse_order() {
        let body = b"<html>double wrapped</html>";
        // Applied deflate-then-gzip on the wire ⇒ listed "deflate, gzip"
        // ⇒ decoder unwraps gzip first, then deflate.
        let wire = crate::flate::gzip_compress(&crate::flate::zlib_compress(body));
        let tx = single_tx("deflate, gzip", &wire);
        assert_eq!(tx.payload_size, body.len());
        assert_eq!(tx.payload_digest, fnv1a(body));
    }

    #[test]
    fn only_a_decoder_s_output_is_materialized() {
        let wire = crate::flate::gzip_compress(b"<html>coded</html>");
        let gate = |encoding: &str, wire: &[u8]| {
            let mut headers = HeaderMap::new();
            headers.append("Content-Encoding", encoding);
            let mut report = IngestReport::new();
            match decode_content_codings(Body::Borrowed(wire), &headers, &mut report) {
                Body::Borrowed(kept) => {
                    assert_eq!(kept.as_ptr(), wire.as_ptr(), "the wire bytes themselves");
                    None
                }
                Body::Owned(decoded) => Some(decoded),
            }
        };
        // Never decoded (unknown outermost coding), nothing to decode, or
        // undecodable: the body stays a borrow of the wire bytes.
        for encoding in ["gzip, br", "zstd", "identity", "deflate, gzip, br"] {
            assert_eq!(gate(encoding, &wire), None, "{encoding}");
        }
        assert_eq!(gate("gzip", &wire[..wire.len() - 3]), None);
        assert_eq!(gate("gzip", &wire).as_deref(), Some(&b"<html>coded</html>"[..]));
        // A layer that decodes is kept when the layer under it does not.
        assert_eq!(gate("br, gzip", &wire).as_deref(), Some(&b"<html>coded</html>"[..]));
    }

    #[test]
    fn lenient_counts_deflate_failure_and_keeps_raw_bytes() {
        let garbage = [0x07, 0xff, 0x12, 0x34, 0x56];
        let req = b"GET /x HTTP/1.1\r\nHost: h\r\n\r\n";
        let resp = resp_with_encoding("deflate", &garbage);
        let (txs, report, _) = pair_full((req, 0.0), Some((&resp, 0.1)));
        assert_eq!(txs[0].payload_size, garbage.len(), "raw bytes kept");
        assert_eq!(report.deflate_failures, 1);
        assert_eq!(report.gzip_failures, 0);
    }

    #[test]
    fn corrupt_gzip_falls_back_to_raw_bytes() {
        let mut gz = crate::flate::gzip_compress(b"body");
        let mid = gz.len() / 2;
        gz[mid] ^= 1;
        let req = b"GET /x HTTP/1.1\r\nHost: h\r\n\r\n";
        let resp = format!(
            "HTTP/1.1 200 OK\r\nContent-Encoding: gzip\r\nContent-Length: {}\r\n\r\n",
            gz.len()
        );
        let mut resp_bytes = resp.into_bytes();
        resp_bytes.extend_from_slice(&gz);
        let txs = pair((req, 0.0), Some((&resp_bytes, 0.1)));
        assert_eq!(txs[0].payload_size, gz.len(), "raw bytes kept");
    }

    #[test]
    fn zip_bomb_keeps_encoded_bytes_and_counts_cap() {
        // ~44 KiB on the wire claiming ~8.6 MiB decoded — past
        // MAX_DECODED_BODY_BYTES. The trailer (CRC/ISIZE) is garbage,
        // which is fine: the guard must trip before it is ever checked.
        let reps = MAX_DECODED_BODY_BYTES / 258 + 2;
        let mut bomb = vec![0x1f, 0x8b, 0x08, 0x00, 0, 0, 0, 0, 0x00, 0xff];
        bomb.extend_from_slice(&crate::flate::deflate_run(b'A', reps * 258 + 1));
        bomb.extend_from_slice(&[0u8; 8]);
        assert!(bomb.len() < 64 * 1024, "bomb is small on the wire: {}", bomb.len());
        let req = b"GET /big HTTP/1.1\r\nHost: h\r\n\r\n";
        let resp = resp_with_encoding("gzip", &bomb);
        let (txs, report, _) = pair_full((req, 0.0), Some((&resp, 0.1)));
        assert_eq!(txs.len(), 1);
        assert_eq!(txs[0].payload_size, bomb.len(), "encoded wire bytes kept");
        assert_eq!(txs[0].payload_digest, fnv1a(&bomb));
        assert_eq!(report.decode_cap_exceeded, 1);
        assert_eq!(report.gzip_failures, 0, "a bomb is not a corrupt stream");
    }

    #[test]
    fn lenient_salvages_prefix_of_malformed_request_stream() {
        let req = b"GET /good HTTP/1.1\r\nHost: h\r\n\r\nGET /bad HTTP/1.1\r\nBROKENHEADER\r\n\r\n";
        let resp = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
        let (txs, report, stop) = pair_full((req, 1.0), Some((resp, 1.2)));
        assert!(matches!(stop, Err(Error::HttpSyntax(_))), "strict stops here");
        assert_eq!(txs.len(), 1);
        assert_eq!(txs[0].uri, "/good");
        assert_eq!(txs[0].status, 200);
        assert_eq!(report.streams_salvaged, 1);
        assert_eq!(report.streams_discarded, 0);
    }

    #[test]
    fn lenient_discards_stream_with_nothing_recoverable() {
        // Begins like a request (passes the triage) but the head is
        // malformed from the first message.
        let req = b"GET /x HTTP/1.1\r\nNOCOLON\r\n\r\n";
        let (txs, report, stop) = pair_full((req, 1.0), None);
        assert!(stop.is_err());
        assert!(txs.is_empty());
        assert_eq!(report.streams_discarded, 1);
        assert_eq!(report.streams_salvaged, 0);
    }

    #[test]
    fn lenient_counts_chunked_framing_failure() {
        let req = b"GET /d HTTP/1.1\r\nHost: h\r\n\r\n";
        let resp = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nZZ\r\njunk";
        let (txs, report, stop) = pair_full((req, 0.0), Some((resp, 0.1)));
        assert!(stop.is_err(), "broken chunk framing is a strict stop");
        // The request survives with no paired response (status 0).
        assert_eq!(txs.len(), 1);
        assert_eq!(txs[0].status, 0);
        assert_eq!(report.chunked_failures, 1);
        assert_eq!(report.streams_discarded, 1, "response stream yielded nothing");
    }

    #[test]
    fn lenient_counts_gzip_failure_and_keeps_raw_bytes() {
        let mut gz = crate::flate::gzip_compress(b"body");
        let mid = gz.len() / 2;
        gz[mid] ^= 1;
        let req = b"GET /x HTTP/1.1\r\nHost: h\r\n\r\n";
        let resp = format!(
            "HTTP/1.1 200 OK\r\nContent-Encoding: gzip\r\nContent-Length: {}\r\n\r\n",
            gz.len()
        );
        let mut resp_bytes = resp.into_bytes();
        resp_bytes.extend_from_slice(&gz);
        let (txs, report, _) = pair_full((req, 0.0), Some((&resp_bytes, 0.1)));
        assert_eq!(txs[0].payload_size, gz.len());
        assert_eq!(report.gzip_failures, 1);
    }

    #[test]
    fn pipeline_counts_non_http_and_orphan_streams() {
        // A TLS-looking stream on one connection, plus an orphan HTTP
        // response on another.
        let c = Ipv4Addr::new(10, 0, 0, 2);
        let s = Ipv4Addr::new(203, 0, 113, 9);
        let capture = crate::pcap::write_packets(&[
            Packet::new(0.1, frame(c, s, 50000, 80, 1, b"\x16\x03\x01\x02\x00")),
            Packet::new(0.2, frame(s, c, 80, 50001, 1, b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")),
        ]);
        let mut report = IngestReport::new();
        let txs = SpanPipeline::extract_capture_lenient(&capture, &mut report);
        assert!(txs.is_empty());
        assert_eq!(report.streams_total, 2);
        assert_eq!(report.streams_skipped_non_http, 1);
        assert_eq!(report.streams_discarded, 1, "orphan response quarantined");
        // Neither is a strict stop.
        assert!(SpanPipeline::extract_capture_strict(&capture).unwrap().is_empty());
    }

    #[test]
    fn pipeline_counts_decode_drops() {
        let capture = crate::pcap::write_packets(&[
            Packet::new(0.0, vec![0u8; 4]),     // too short for Ethernet
            Packet::new(0.1, vec![0xffu8; 60]), // not IPv4
        ]);
        let mut report = IngestReport::new();
        let txs = SpanPipeline::extract_capture_lenient(&capture, &mut report);
        assert!(txs.is_empty());
        assert_eq!((report.packets_dropped_decode, report.packets_non_tcp), (1, 1));
        assert!(SpanPipeline::extract_capture_strict(&capture).unwrap().is_empty());
    }

    #[test]
    fn fnv_digest_is_stable_and_discriminating() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b"payload"), fnv1a(b"payload"));
    }

    #[test]
    fn fnv1a_many_matches_sequential_digests() {
        let pool: Vec<Vec<u8>> = vec![
            b"".to_vec(),
            b"a".to_vec(),
            (0u8..=255).cycle().take(1000).collect(),
            b"hello world".to_vec(),
            vec![0x4d; 7],
            (0u8..=255).cycle().take(4097).collect(),
            b"xy".to_vec(),
            b"".to_vec(),
            (1u8..=255).cycle().take(333).collect(),
            vec![0xff; 64],
        ];
        // Every batch size from 0 to 9 at every rotation of the pool: the
        // lockstep loop, its refills and a tail of one to three bodies
        // with shadowing lanes each end on empty, short and long bodies.
        let mut out = Vec::new();
        for n in 0..=9 {
            for rotation in 0..pool.len() {
                let batch: Vec<&[u8]> =
                    (0..n).map(|j| pool[(rotation + j) % pool.len()].as_slice()).collect();
                fnv1a_many(&batch, &mut out);
                assert_eq!(out.len(), n);
                for (body, digest) in batch.iter().zip(&out) {
                    assert_eq!(*digest, fnv1a(body), "batch of {n} from rotation {rotation}");
                }
            }
        }
    }

    /// What windowed extraction must reproduce: every stream gathered at
    /// once by `gather_streams`, triaged and paired over whole-capture
    /// views, every body digested in one batch.
    fn whole_capture_extract(
        capture: &[u8],
        report: &mut IngestReport,
    ) -> (Vec<HttpTransaction>, Result<()>) {
        let mut spans = Vec::new();
        let mut first_stop =
            crate::capture::walk_packets(capture, report, |ts, range| spans.push((ts, range)));
        let mut reassembler = SpanReassembler::new();
        for (ts, range) in spans {
            match decode_frame(&capture[range]) {
                Ok(Some((key, tcp))) => {
                    reassembler.push_span(ts, key, &tcp, subslice_range(capture, tcp.payload))
                }
                Ok(None) => report.packets_non_tcp += 1,
                Err(_) => report.packets_dropped_decode += 1,
            }
        }
        let mut streams = crate::reassembly::StreamBuf::new();
        reassembler.gather_streams(capture, &mut report.reassembly_gaps, &mut streams);
        report.streams_total += streams.len() as u64;
        let views: Vec<StreamView<'_>> = streams.views(capture).collect();
        let mut connections: BTreeMap<(Endpoint, Endpoint), (Option<usize>, Option<usize>)> =
            BTreeMap::new();
        for (i, view) in views.iter().enumerate() {
            let entry = connections.entry(view.key.connection_id()).or_default();
            let slot = if looks_like_request(view.data) { &mut entry.0 } else { &mut entry.1 };
            if let Some(displaced) = slot.replace(i) {
                count_unpaired(report, views[displaced].data);
            }
        }
        let mut out = Vec::new();
        let mut deferred = Vec::new();
        for (req, resp) in connections.into_values() {
            match req {
                Some(req) => {
                    let stop = pair_connection(
                        views[req],
                        resp.map(|i| views[i]),
                        report,
                        &mut out,
                        &mut deferred,
                    );
                    first_stop = first_stop.and(stop);
                }
                None => resp.into_iter().for_each(|i| count_unpaired(report, views[i].data)),
            }
        }
        digest_deferred(&mut out, &deferred, &mut Vec::new());
        out.sort_by(|a, b| a.ts.total_cmp(&b.ts));
        assign_seq(&mut out);
        report.transactions_recovered += out.len() as u64;
        (out, first_stop)
    }

    /// Field-by-field equality, timestamps bit for bit.
    fn assert_same_transaction(got: &HttpTransaction, want: &HttpTransaction, case: &str) {
        assert_eq!(got.seq, want.seq, "{case}: seq");
        assert_eq!(got.ts.to_bits(), want.ts.to_bits(), "{case}: ts");
        assert_eq!(got.resp_ts.to_bits(), want.resp_ts.to_bits(), "{case}: resp_ts");
        assert_eq!((got.client, got.server), (want.client, want.server), "{case}: endpoints");
        assert_eq!(got.host, want.host, "{case}: host");
        assert_eq!(got.method, want.method, "{case}: method");
        assert_eq!(got.uri, want.uri, "{case}: uri");
        assert_eq!(got.req_headers, want.req_headers, "{case}: request headers");
        assert_eq!(got.status, want.status, "{case}: status");
        assert_eq!(got.resp_headers, want.resp_headers, "{case}: response headers");
        assert_eq!(got.payload_class, want.payload_class, "{case}: payload class");
        assert_eq!(got.payload_size, want.payload_size, "{case}: payload size");
        assert_eq!(got.body_preview, want.body_preview, "{case}: body preview");
        assert_eq!(got.payload_digest, want.payload_digest, "{case}: payload digest");
    }

    /// One GET per client, each answered in two segments (so staging
    /// copies it); the last client sorts last in connection order and
    /// falls in the last of `groups`, and its response claims a gzip body
    /// it does not carry. So its connection is the last window of the last
    /// group, and its report carries a counted loss.
    fn last_connection_lossy(groups: usize) -> Vec<u8> {
        let s = Ipv4Addr::new(203, 0, 113, 9);
        let last = (0..=255)
            .rev()
            .map(|i| Ipv4Addr::new(10, 255, 255, i))
            .find(|&c| telemetry::pool::shard_of(c, groups) == groups - 1)
            .expect("an address in the last group");
        let clients = (1..=12).map(|i| Ipv4Addr::new(10, 0, 0, i)).chain([last]);
        let mut packets = Vec::new();
        for (i, c) in clients.enumerate() {
            let ts = 1.0 + i as f64;
            let req = format!("GET /{i} HTTP/1.1\r\nHost: ex.com\r\n\r\n");
            let resp: &[u8] = if c == last {
                b"HTTP/1.1 200 OK\r\nContent-Encoding: gzip\r\nContent-Length: 4\r\n\r\njunk"
            } else {
                b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
            };
            let (head, tail) = resp.split_at(20);
            packets.push(Packet::new(ts, frame(c, s, 50000, 80, 1, req.as_bytes())));
            packets.push(Packet::new(ts + 0.1, frame(s, c, 80, 50000, 1, head)));
            packets.push(Packet::new(ts + 0.2, frame(s, c, 80, 50000, 21, tail)));
        }
        crate::pcap::write_packets(&packets)
    }

    /// Windows of 1 byte (every connection that copies anything is a
    /// window of its own), a few KiB (several connections per window) and
    /// unbounded (one window per group), each paired by 1, 2, 3 and 8
    /// workers in one group and in one per client hash, against
    /// `gather_streams` over the whole capture. Captures whose packets all
    /// carry one timestamp keep connection order past the timestamp sort,
    /// so a window or a group merged out of order shows in `seq`; captures
    /// of several clients split into groups; the capture whose last
    /// connection is lossy shows a window's report left unmerged.
    #[test]
    fn windowed_extraction_equals_whole_capture_gather() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use synthtraffic::faultgen::{self, Fault};

        let mut captures: Vec<(String, Vec<u8>)> = Vec::new();
        for seed in 0..3u64 {
            let family = synthtraffic::EkFamily::ALL[seed as usize * 3];
            let mut rng = StdRng::seed_from_u64(seed + 1);
            let episode = synthtraffic::episode::generate_infection(&mut rng, family, 1.4e9);
            let clean = synthtraffic::pcapgen::episodes_pcap(&[episode]);
            for fault in Fault::ALL {
                let mut rng = StdRng::seed_from_u64(100 + seed);
                let hurt = faultgen::apply(&clean, fault, &mut rng);
                captures.push((format!("{fault} seed {seed}"), hurt));
            }
            let mut rng = StdRng::seed_from_u64(200 + seed);
            let hurt = faultgen::apply_all(&clean, &mut rng);
            captures.push((format!("all faults seed {seed}"), hurt));
            let mut packets = crate::capture::read_packets(&clean).expect("a generated capture");
            packets.iter_mut().for_each(|p| p.ts = 1.4e9);
            let tied = crate::pcap::write_packets(&packets);
            let mut rng = StdRng::seed_from_u64(300 + seed);
            let hurt = faultgen::apply_all(&tied, &mut rng);
            captures.push((format!("one timestamp, all faults seed {seed}"), hurt));
            captures.push((format!("one timestamp seed {seed}"), tied));
            captures.push((format!("clean seed {seed}"), clean));
            let mut rng = StdRng::seed_from_u64(400 + seed);
            let clients: Vec<_> = (0..6)
                .map(|i| {
                    let family = synthtraffic::EkFamily::ALL[i];
                    synthtraffic::episode::generate_infection(&mut rng, family, 1.4e9)
                })
                .collect();
            let many = synthtraffic::pcapgen::episodes_pcap(&clients);
            let mut packets = crate::capture::read_packets(&many).expect("a generated capture");
            packets.iter_mut().for_each(|p| p.ts = 1.4e9);
            let hurt = faultgen::apply_all(&many, &mut rng);
            captures.push((format!("six clients, all faults seed {seed}"), hurt));
            let tied = crate::pcap::write_packets(&packets);
            captures.push((format!("six clients, one timestamp seed {seed}"), tied));
            captures.push((format!("six clients seed {seed}"), many));
        }
        let group_counts = |workers| [1, GROUPS_PER_WORKER * workers];
        for groups in [1, 2, 3, 8].into_iter().flat_map(group_counts) {
            let lossy = last_connection_lossy(groups);
            captures.push((format!("last connection lossy in {groups} groups"), lossy));
        }
        let wants: Vec<_> = captures
            .iter()
            .map(|(_, capture)| {
                let mut report = IngestReport::new();
                let (txs, stop) = whole_capture_extract(capture, &mut report);
                (txs, report, stop)
            })
            .collect();
        for ((name, _), (_, report, _)) in captures.iter().zip(&wants) {
            if name.starts_with("last connection lossy") {
                assert_eq!(report.gzip_failures, 1, "{name}: the last connection's loss");
            }
        }
        for workers in [1, 2, 3, 8] {
            let mut pipeline = SpanPipeline::new();
            let (mut split_windows, mut split_groups) = (0, 0);
            for ((name, capture), (want, want_report, want_stop)) in captures.iter().zip(&wants) {
                for groups in group_counts(workers) {
                    for window_bytes in [1, 3 << 10, usize::MAX] {
                        let case = format!("{name}, {workers} workers, {groups} groups");
                        let case = format!("{case}, window {window_bytes}");
                        let mut report = IngestReport::new();
                        let split = Split { window_bytes, workers, groups };
                        let (got, stop) = pipeline.extract(capture, &mut report, split);
                        assert_eq!(report, *want_report, "{case}: ingest report");
                        assert_eq!(
                            format!("{stop:?}"),
                            format!("{want_stop:?}"),
                            "{case}: strict stop"
                        );
                        assert_eq!(got.len(), want.len(), "{case}: transaction count");
                        for (g, w) in got.iter().zip(want) {
                            assert_same_transaction(g, w, &case);
                        }
                    }
                    split_groups += usize::from(pipeline.groups.len() > 2);
                }
                // Streams that copy: with two or more, one-byte windows split.
                let copying = (0..pipeline.laid.len()).filter(|&i| pipeline.laid.copy_len(i) > 0);
                split_windows += usize::from(copying.count() >= 2);
            }
            let n = captures.len();
            assert!(split_windows * 4 > n * 3, "{split_windows} of {n} captures split");
            assert!(split_groups >= 9, "{split_groups} of {n} captures in several groups");
            // Every worker paired windows, not only the caller.
            let busy = pipeline.workers.iter().filter(|w| w.digests.capacity() > 0).count();
            assert_eq!(busy, workers, "{busy} of {workers} workers paired a window");
        }
    }

    #[test]
    fn recycled_vectors_keep_their_allocation() {
        let mut bytes: Vec<u8> = Vec::with_capacity(64);
        bytes.extend_from_slice(b"window");
        let mut bodies: Vec<Body<'_>> = Vec::with_capacity(16);
        bodies.push(Body::Borrowed(&bytes));
        let at = bodies.as_ptr() as usize;
        let kept: Vec<Body<'static>> = recycle(bodies);
        assert!(kept.is_empty());
        assert_eq!((kept.as_ptr() as usize, kept.capacity()), (at, 16));
    }

    fn frame(
        src: Ipv4Addr,
        dst: Ipv4Addr,
        sp: u16,
        dp: u16,
        seq: u32,
        payload: &[u8],
    ) -> Vec<u8> {
        use crate::ether::MacAddr;
        let tcp = crate::tcp::build(sp, dp, seq, 0, crate::tcp::TcpFlags::data(), payload);
        let ip = crate::ipv4::build(src, dst, PROTO_TCP, 1, &tcp);
        crate::ether::build(MacAddr::default(), MacAddr::default(), ETHERTYPE_IPV4, &ip)
    }

    /// Two conversations plus out-of-order, retransmitted, and
    /// undecodable packets.
    fn sample_capture() -> Vec<u8> {
        let c = Ipv4Addr::new(10, 0, 0, 2);
        let s = Ipv4Addr::new(203, 0, 113, 9);
        let req1 = b"GET /a.html HTTP/1.1\r\nHost: ex.com\r\n\r\n";
        let resp1 = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello";
        let req2 = b"GET /b.js HTTP/1.1\r\nHost: ex.com\r\n\r\n";
        let resp2a: &[u8] = b"HTTP/1.1 302 Found\r\nLocation: http://n/\r\nContent-Le";
        let resp2b: &[u8] = b"ngth: 2\r\n\r\nok";
        crate::pcap::write_packets(&[
            Packet::new(1.0, frame(c, s, 50000, 80, 1, req1)),
            Packet::new(1.1, frame(s, c, 80, 50000, 1, resp1)),
            Packet::new(1.2, frame(c, s, 50001, 80, 1, req2)),
            // Out-of-order second half, then the first, then a retransmit.
            Packet::new(1.4, frame(s, c, 80, 50001, 1 + resp2a.len() as u32, resp2b)),
            Packet::new(1.3, frame(s, c, 80, 50001, 1, resp2a)),
            Packet::new(1.5, frame(s, c, 80, 50001, 1, resp2a)),
            Packet::new(1.6, vec![0u8; 6]), // undecodable
        ])
    }

    #[test]
    fn pipeline_extracts_reordered_capture_and_reuses_cleanly() {
        let capture = sample_capture();
        let mut report = IngestReport::new();
        let mut pipeline = SpanPipeline::new();
        let txs = pipeline.extract_lenient(&capture, &mut report);
        assert_eq!(txs.len(), 2);
        assert_eq!((txs[0].uri.as_str(), txs[0].status, txs[0].payload_size), ("/a.html", 200, 5));
        assert_eq!((txs[1].uri.as_str(), txs[1].status, txs[1].payload_size), ("/b.js", 302, 2));
        assert_eq!(txs[0].payload_digest, fnv1a(b"hello"));
        assert_eq!(txs[1].location(), Some("http://n/"));
        assert_eq!((txs[0].seq, txs[1].seq), (0, 1));
        assert_eq!(
            report,
            IngestReport {
                packets_read: 7,
                packets_dropped_decode: 1,
                streams_total: 4,
                transactions_recovered: 2,
                ..IngestReport::new()
            }
        );
        // Nothing here is a strict stop, and both policies are one run.
        assert_eq!(SpanPipeline::extract_capture_strict(&capture).unwrap(), txs);
        // Reusing the pipeline across captures leaks no state.
        let mut again = IngestReport::new();
        assert_eq!(pipeline.extract_lenient(&capture, &mut again), txs);
        assert_eq!(again, report);
    }

    #[test]
    fn strict_returns_the_first_stop_framing_before_syntax() {
        let c = Ipv4Addr::new(10, 0, 0, 2);
        let s = Ipv4Addr::new(203, 0, 113, 9);
        let bad = b"GET /x HTTP/1.1\r\nbroken header without colon\r\n\r\n";
        let mut capture = crate::pcap::write_packets(&[Packet::new(1.0, frame(c, s, 50000, 80, 1, bad))]);
        assert!(matches!(
            SpanPipeline::extract_capture_strict(&capture),
            Err(Error::HttpSyntax(_))
        ));
        // An oversized record length behind it: framing is reported first.
        let mut rec = [0u8; 16];
        rec[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        capture.extend_from_slice(&rec);
        assert!(matches!(
            SpanPipeline::extract_capture_strict(&capture),
            Err(Error::BadCaptureLength(u32::MAX))
        ));
        // Lenient salvages nothing here but says why.
        let mut report = IngestReport::new();
        assert!(SpanPipeline::extract_capture_lenient(&capture, &mut report).is_empty());
        assert_eq!((report.records_dropped, report.streams_discarded), (1, 1));
    }

    #[test]
    fn looks_like_request_discriminates() {
        assert!(looks_like_request(b"GET / HTTP/1.1\r\n"));
        assert!(looks_like_request(b"POST /x HTTP/1.1\r\n"));
        assert!(!looks_like_request(b"HTTP/1.1 200 OK\r\n"));
        assert!(!looks_like_request(b"\x16\x03\x01")); // TLS
    }
}
