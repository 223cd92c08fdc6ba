//! Deterministic workload generator.
//!
//! Everything the system under test is handed — transaction streams,
//! capture files, the classifier — is made here from `--seed` and
//! nothing else, so one seed always gives byte-identical inputs. The
//! episodes come from `synthtraffic`; this module gives every episode
//! its own client address, spaces their start times so that hundreds of
//! conversations are live at once, pads, gzip-codes and chunks response
//! bodies, pools exchanges into keep-alive connections, damages one
//! episode in three, and renders merged captures. It also
//! keeps the generator's own record of what it emitted, which is what
//! the output checks compare against.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::iter::Peekable;
use std::net::Ipv4Addr;
use std::time::Instant;

use dynaminer::classifier::{build_dataset, Classifier};
use nettrace::ether::{self, MacAddr, ETHERTYPE_IPV4};
use nettrace::ipv4::{self, PROTO_TCP};
use nettrace::payload::PayloadClass;
use nettrace::pcap::{Packet, PcapWriter};
use nettrace::reassembly::Endpoint;
use nettrace::tcp::{self, TcpFlags};
use nettrace::transaction::BODY_PREVIEW_LEN;
use nettrace::HttpTransaction;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use synthtraffic::benign::generate_benign;
use synthtraffic::episode::generate_infection;
use synthtraffic::faultgen::{self, Fault};
use synthtraffic::{BenignScenario, EkFamily, Episode};

/// First episode's start time (seconds since epoch).
const BASE_TS: f64 = 1_500_000_000.0;
/// Mean of the exponential gap between episode starts, seconds. Episodes
/// last tens of seconds to minutes, so this keeps hundreds of them live.
const MEAN_START_GAP_S: f64 = 0.25;
/// First client address; episode `i` browses from `FIRST_CLIENT + i`.
const FIRST_CLIENT: u32 = 0x0a01_0000;
/// TCP payload bytes per rendered segment.
const MSS: usize = 1400;

/// SplitMix64 step: the generator's own seed derivation, so workloads do
/// not change when the code under test changes its hashing.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a with a running seed, for fingerprints and report digests.
/// (Body digests are by definition `nettrace::transaction::fnv1a`, whose
/// multiplier is not the standard FNV prime; the generator computes them
/// with that serial form, the pipeline with the four-lane `fnv1a_many`.)
pub fn fnv1a(seed: u64, data: &[u8]) -> u64 {
    data.iter().fold(seed, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Rounds a timestamp to the microsecond grid a pcap record stores, so a
/// generated time survives rendering and re-reading bit for bit.
fn quantize(ts: f64) -> f64 {
    let sec = ts.floor();
    sec + ((ts - sec) * 1e6).round() * 1e-6
}

/// `count` episodes of which `infections` are infections (evenly
/// interleaved), each with its own client address and RNG stream.
/// Request times are unique across the corpus, so `(ts)` alone orders
/// the merged stream.
pub fn corpus(seed: u64, count: usize, infections: usize) -> Vec<Episode> {
    let mut arrivals = StdRng::seed_from_u64(mix(seed, u64::MAX));
    let mut start_ts = BASE_TS;
    let mut used_ts: HashSet<u64> = HashSet::new();
    (0..count)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(mix(seed, i as u64));
            start_ts += -MEAN_START_GAP_S * (1.0 - arrivals.gen::<f64>()).ln();
            let infected = (i + 1) * infections / count > i * infections / count;
            let mut ep = if infected {
                let family = EkFamily::sample_weighted(&mut rng);
                generate_infection(&mut rng, family, start_ts)
            } else {
                let scenario = BenignScenario::sample(&mut rng);
                generate_benign(&mut rng, scenario, start_ts)
            };
            let client = Ipv4Addr::from(FIRST_CLIENT + i as u32);
            ep.victim.addr = client;
            for tx in &mut ep.transactions {
                tx.client.addr = client;
                // Bodies are held decoded; the few synthtraffic marks as
                // coded are sent plain, and the capture workloads code their own.
                tx.resp_headers.remove("Content-Encoding");
                if matches!(tx.status, 100..=199 | 204 | 304) && tx.payload_size > 0 {
                    // synthtraffic gives some 204 beacons a body; HTTP gives
                    // them none, and on a keep-alive connection the stray
                    // bytes would corrupt the next response.
                    tx.body_preview.clear();
                    tx.payload_size = 0;
                    tx.payload_digest = nettrace::transaction::fnv1a(&[]);
                    tx.payload_class = PayloadClass::Empty;
                    tx.resp_headers.set("Content-Length", "0");
                }
                tx.ts = quantize(tx.ts);
                while !used_ts.insert(tx.ts.to_bits()) {
                    tx.ts = quantize(tx.ts + 1e-6);
                }
                tx.resp_ts = quantize(tx.resp_ts).max(tx.ts);
            }
            ep
        })
        .collect()
}

/// The episodes' transactions as one `(ts, seq)`-ordered stream.
pub fn into_stream(episodes: Vec<Episode>) -> Vec<HttpTransaction> {
    let mut all: Vec<HttpTransaction> = episodes.into_iter().flat_map(|e| e.transactions).collect();
    all.sort_by(|a, b| a.ts.total_cmp(&b.ts));
    nettrace::assign_seq(&mut all);
    all
}

/// The classifier every workload scores with, and how long its parts took.
pub struct Model {
    pub classifier: Classifier,
    pub generate_s: f64,
    pub build_dataset_ms: f64,
    pub fit_ms: f64,
    pub fit_cpu_ms: f64,
}

/// Fits the default forest on `ground_truth(seed, 0.25)`, whose RNG
/// stream shares nothing with [`corpus`]'s per-episode streams.
pub fn fit_model(seed: u64) -> Model {
    let t = Instant::now();
    let truth = synthtraffic::ground_truth(seed, 0.25);
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let data = build_dataset(
        truth
            .iter()
            .map(|e| (e.transactions.as_slice(), e.is_infection())),
    );
    let build_dataset_ms = t.elapsed().as_secs_f64() * 1e3;
    let (t, cpu) = (Instant::now(), telemetry::process_cpu_ns());
    let classifier = Classifier::fit_default(&data, seed);
    Model {
        classifier,
        generate_s,
        build_dataset_ms,
        fit_ms: t.elapsed().as_secs_f64() * 1e3,
        fit_cpu_ms: (telemetry::process_cpu_ns() - cpu) as f64 / 1e6,
    }
}

/// What a workload's input looked like; identical across runs of one seed.
#[derive(Debug, Clone, Default)]
pub struct Fingerprint {
    pub transactions: u64,
    pub packets: u64,
    pub bytes: u64,
    pub distinct_clients: u64,
    pub infection_share: f64,
    /// FNV-1a over the input as handed to the program.
    pub digest: u64,
}

impl Fingerprint {
    pub fn to_value(&self) -> serde::Value {
        use serde::Value;
        Value::Object(vec![
            ("transactions".into(), Value::UInt(self.transactions)),
            ("packets".into(), Value::UInt(self.packets)),
            ("bytes".into(), Value::UInt(self.bytes)),
            (
                "distinct_clients".into(),
                Value::UInt(self.distinct_clients),
            ),
            ("infection_share".into(), Value::Float(self.infection_share)),
            (
                "digest".into(),
                Value::String(format!("{:016x}", self.digest)),
            ),
        ])
    }
}

/// Folds the fields of a transaction the detector can see into `h`.
pub fn tx_digest(h: u64, tx: &HttpTransaction) -> u64 {
    let mut h = fnv1a(h, &tx.ts.to_bits().to_le_bytes());
    h = fnv1a(h, &tx.resp_ts.to_bits().to_le_bytes());
    h = fnv1a(h, &tx.client.addr.octets());
    h = fnv1a(h, &tx.client.port.to_le_bytes());
    h = fnv1a(h, tx.host.as_bytes());
    h = fnv1a(h, tx.uri.as_bytes());
    h = fnv1a(h, &tx.status.to_le_bytes());
    h = fnv1a(h, &(tx.payload_size as u64).to_le_bytes());
    fnv1a(h, &tx.payload_digest.to_le_bytes())
}

/// Fingerprint of a transaction stream drawn from `clients` episodes.
pub fn stream_fingerprint(
    stream: &[HttpTransaction],
    clients: usize,
    infections: usize,
) -> Fingerprint {
    Fingerprint {
        transactions: stream.len() as u64,
        packets: 0,
        bytes: stream.iter().map(wire_bytes).sum(),
        distinct_clients: clients as u64,
        infection_share: infections as f64 / clients as f64,
        digest: stream.iter().fold(FNV_OFFSET, tx_digest),
    }
}

/// Bytes a transaction record carries: both heads and the body bytes it
/// holds (declared sizes run to gigabytes that were never on any wire).
pub fn wire_bytes(tx: &HttpTransaction) -> u64 {
    let head = |h: &nettrace::http::HeaderMap| -> usize {
        h.iter().map(|(n, v)| n.len() + v.len() + 4).sum::<usize>() + 2
    };
    (tx.uri.len()
        + 16
        + head(&tx.req_headers)
        + 17
        + head(&tx.resp_headers)
        + tx.body_preview.len()) as u64
}

/// What lenient extraction of `synthtraffic::pcapgen`'s rendering of `tx`
/// must give back: the materialized body is the whole body, and
/// `Content-Length` (last on the wire) says so. A request nobody answered
/// (status 0, a dead C&C host) ends when it was sent.
pub fn as_rendered(tx: &HttpTransaction) -> HttpTransaction {
    let mut out = tx.clone();
    if out.status == 0 {
        out.resp_ts = out.ts;
        return out;
    }
    out.payload_size = out.body_preview.len();
    out.resp_headers.remove("Content-Length");
    out.resp_headers
        .append("Content-Length", out.payload_size.to_string());
    out
}

// --- Rendering exchanges, connections and capture files -----------------

/// Whether a payload class is text a server would gzip.
fn is_text(class: PayloadClass) -> bool {
    matches!(
        class,
        PayloadClass::Html
            | PayloadClass::Js
            | PayloadClass::Css
            | PayloadClass::Json
            | PayloadClass::Text
    )
}

/// How a response body goes on the wire.
#[derive(Debug, Clone, Copy, Default)]
struct Coding {
    /// `Content-Encoding: gzip`, one fixed-Huffman block.
    gzip: bool,
    /// `Transfer-Encoding: chunked` in place of `Content-Length`.
    chunked: bool,
}

/// Body bytes per chunk of a chunked response.
const CHUNK: usize = 1024;

/// One exchange as it goes on the wire, and the record extraction must
/// give back for it.
struct Rendered {
    record: HttpTransaction,
    request: Vec<u8>,
    /// Empty when nobody answers (status 0, a dead C&C host).
    response: Vec<u8>,
    /// The gzip container put on the wire, for the inflate probe.
    gzip_container: Option<Vec<u8>>,
}

/// Renders `tx` answered with `body` (decoded), coded as `coding` says.
fn render_exchange(tx: &HttpTransaction, body: Vec<u8>, coding: Coding) -> Rendered {
    let request = synthtraffic::pcapgen::request_bytes(tx);
    let mut record = tx.clone();
    if tx.status == 0 {
        return Rendered {
            record,
            request,
            response: Vec::new(),
            gzip_container: None,
        };
    }
    record.payload_size = body.len();
    record.payload_digest = nettrace::transaction::fnv1a(&body);
    record.body_preview = body[..body.len().min(BODY_PREVIEW_LEN)].to_vec();
    let gzip_container = coding.gzip.then(|| gzip_fixed(&body));
    let wire_body = gzip_container.as_deref().unwrap_or(&body);
    record.resp_headers.remove("Content-Length");
    if coding.gzip {
        record.resp_headers.append("Content-Encoding", "gzip");
    }
    if coding.chunked {
        record.resp_headers.append("Transfer-Encoding", "chunked");
    } else {
        record
            .resp_headers
            .append("Content-Length", wire_body.len().to_string());
    }

    let mut response = format!("HTTP/1.1 {} X\r\n", record.status).into_bytes();
    for (name, value) in record.resp_headers.iter() {
        response.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    response.extend_from_slice(b"\r\n");
    if coding.chunked {
        for chunk in wire_body.chunks(CHUNK) {
            response.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
            response.extend_from_slice(chunk);
            response.extend_from_slice(b"\r\n");
        }
        response.extend_from_slice(b"0\r\n\r\n");
    } else {
        response.extend_from_slice(wire_body);
    }
    Rendered {
        record,
        request,
        response,
        gzip_container,
    }
}

/// gzip container around one fixed-Huffman, literals-only DEFLATE block:
/// unlike a stored block, decoding it walks the Huffman path.
fn gzip_fixed(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() + data.len() / 8 + 32);
    out.extend_from_slice(&[0x1f, 0x8b, 0x08, 0, 0, 0, 0, 0, 0, 0xff]);
    let (mut acc, mut bits) = (0u64, 0u32);
    let mut put = |out: &mut Vec<u8>, value: u64, n: u32| {
        acc |= value << bits;
        bits += n;
        while bits >= 8 {
            out.push(acc as u8);
            acc >>= 8;
            bits -= 8;
        }
    };
    put(&mut out, 0b011, 3); // BFINAL=1, BTYPE=01
    for &b in data {
        // Huffman codes go out most significant bit first.
        let (code, len) = if b < 144 {
            (0x30 + u64::from(b), 8)
        } else {
            (0x190 + u64::from(b) - 144, 9)
        };
        put(&mut out, code.reverse_bits() >> (64 - len), len);
    }
    put(&mut out, 0, 7); // end of block
    put(&mut out, 0, 7); // flush the last partial byte
    out.extend_from_slice(&nettrace::flate::crc32(data).to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out
}

/// Splits an episode's transactions (in time order) into keep-alive
/// connections, as a browser's connection pool does: a request reuses a
/// connection to the same server whose last response has fully arrived,
/// else opens one. A connection closes after `per_connection` exchanges
/// or at a request nobody answers. Returns each connection's
/// transactions by index.
fn connections(transactions: &[HttpTransaction], per_connection: usize) -> Vec<Vec<usize>> {
    // (server, when its last response ends, index into `out`)
    let mut open: Vec<(Endpoint, f64, usize)> = Vec::new();
    let mut out: Vec<Vec<usize>> = Vec::new();
    for (i, tx) in transactions.iter().enumerate() {
        let slot = open
            .iter()
            .position(|&(server, free_at, _)| server == tx.server && free_at < tx.ts);
        let slot = slot.unwrap_or_else(|| {
            out.push(Vec::new());
            open.push((tx.server, 0.0, out.len() - 1));
            open.len() - 1
        });
        let connection = &mut out[open[slot].2];
        connection.push(i);
        if tx.status == 0 || connection.len() == per_connection {
            open.swap_remove(slot);
        } else {
            open[slot].1 = response_end(tx);
        }
    }
    out
}

/// When the last segment of `tx`'s response is on the wire.
fn response_end(tx: &HttpTransaction) -> f64 {
    tx.resp_ts.max(tx.ts + 0.001)
}

/// Microseconds since the epoch, the unit both capture formats store.
fn micros(ts: f64) -> u64 {
    (ts * 1e6).round() as u64
}

/// The capture file formats `nettrace` reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    /// Classic libpcap: no per-record framing, so a reader stops at the
    /// first unreadable record.
    Pcap,
    /// pcapng: blocks carry type and length twice, so a reader can find
    /// the next block after a damaged one.
    PcapNg,
}

impl Format {
    /// The time `nettrace`'s reader of this format gives back for a
    /// packet stamped `ts`; records carry it so they compare bit for bit.
    fn read_back(self, ts: f64) -> f64 {
        let ticks = micros(ts);
        match self {
            Format::Pcap => (ticks / 1_000_000) as f64 + (ticks % 1_000_000) as f64 * 1e-6,
            Format::PcapNg => ticks as f64 / 1e6,
        }
    }

    /// The bytes a capture file of no packets consists of.
    fn file_header(self) -> Vec<u8> {
        match self {
            Format::Pcap => PcapWriter::new(Vec::new())
                .and_then(PcapWriter::finish)
                .expect("write to memory"),
            Format::PcapNg => nettrace::pcapng::write_packets(&[]),
        }
    }

    /// One packet record (classic) or Enhanced Packet Block (pcapng)
    /// around `frame`, with the header fields as given: a damaged record
    /// carries its damaged fields over.
    fn record(self, ticks: u64, caplen: u32, origlen: u32, frame: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(frame.len() + 36);
        let mut put = |v: u32| out.extend_from_slice(&v.to_le_bytes());
        match self {
            Format::Pcap => {
                put((ticks / 1_000_000) as u32);
                put((ticks % 1_000_000) as u32);
                put(caplen);
                put(origlen);
                out.extend_from_slice(frame);
            }
            Format::PcapNg => {
                let padded = frame.len().div_ceil(4) * 4;
                let total = (32 + padded) as u32;
                put(nettrace::pcapng::EPB_TYPE);
                put(total);
                put(0); // interface
                put((ticks >> 32) as u32);
                put(ticks as u32);
                put(caplen);
                put(origlen);
                out.extend_from_slice(frame);
                out.resize(28 + padded, 0);
                out.extend_from_slice(&total.to_le_bytes());
            }
        }
        out
    }

    /// The record of an undamaged packet.
    fn packet_record(self, packet: &Packet) -> Record {
        let len = packet.data.len() as u32;
        (
            packet.ts,
            self.record(micros(packet.ts), len, len, &packet.data),
        )
    }
}

/// Renders one keep-alive connection, laid out in time as
/// `synthtraffic::pcapgen` lays out its one-exchange connections:
/// handshake just before the first request, each response spread up to
/// its `resp_ts` with the last segment exactly there, teardown after the
/// last response. Every record gets the connection's endpoints (those
/// of its first exchange) and the times a reader of `format` gives back.
fn connection_packets(format: Format, exchanges: &mut [Rendered], out: &mut Vec<Packet>) {
    let (client, server) = (exchanges[0].record.client, exchanges[0].record.server);
    let mut push =
        |ts: f64, from: Endpoint, to: Endpoint, seq: u32, flags: TcpFlags, data: &[u8]| {
            let seg = tcp::build(from.port, to.port, seq, 0, flags, data);
            let ip = ipv4::build(from.addr, to.addr, PROTO_TCP, 0, &seg);
            out.push(Packet::new(
                ts,
                ether::build(MacAddr([2; 6]), MacAddr([1; 6]), ETHERTYPE_IPV4, &ip),
            ));
        };
    let first_ts = exchanges[0].record.ts;
    push(first_ts - 0.002, client, server, 999, TcpFlags::syn(), &[]);
    push(first_ts - 0.001, server, client, 4999, TcpFlags::syn(), &[]);
    let (mut seq, mut rseq, mut fin_ts) = (1000u32, 5000u32, first_ts);
    for exchange in exchanges {
        let tx = &mut exchange.record;
        (tx.client, tx.server) = (client, server);
        let mut t = tx.ts;
        for chunk in exchange.request.chunks(MSS) {
            push(t, client, server, seq, TcpFlags::data(), chunk);
            seq += chunk.len() as u32;
            t += 0.0005;
        }
        let end_ts = response_end(tx);
        let segments = exchange.response.len().div_ceil(MSS).max(1);
        let dt = (end_ts - tx.ts) / segments as f64;
        for (i, chunk) in exchange.response.chunks(MSS).enumerate() {
            let ts = if i + 1 == segments {
                end_ts
            } else {
                tx.ts + dt * (i + 1) as f64
            };
            push(ts, server, client, rseq, TcpFlags::data(), chunk);
            rseq += chunk.len() as u32;
        }
        fin_ts = if exchange.response.is_empty() {
            tx.ts + dt.min(0.05)
        } else {
            end_ts + dt.min(0.05)
        };
        tx.resp_ts = format.read_back(if exchange.response.is_empty() {
            tx.ts
        } else {
            end_ts
        });
        tx.ts = format.read_back(tx.ts);
    }
    push(fin_ts, client, server, seq, TcpFlags::fin(), &[]);
    push(fin_ts + 0.001, server, client, rseq, TcpFlags::fin(), &[]);
}

/// A rendered capture and the generator's record of what is in it.
pub struct Capture {
    pub bytes: Vec<u8>,
    /// Transactions extraction must give back, `(ts, seq)`-ordered.
    /// For `pcap_lossy` these are the undamaged episodes' only.
    pub expected: Vec<HttpTransaction>,
    pub fingerprint: Fingerprint,
    /// gzip containers put on the wire (for the inflate probe).
    pub gzip_bodies: Vec<Vec<u8>>,
}

/// A record of a capture file as written, and the time that places it
/// among other episodes' records.
type Record = (f64, Vec<u8>);

/// Merges per-episode record lists into one capture file in time order,
/// rendering an episode only when the merge reaches its start and
/// dropping it when its records are spent, so set-up holds the capture
/// plus the episodes live at one instant rather than everything twice.
/// Each episode's records keep their own order (a reordering fault stays
/// a reordering); `starts` must be ascending. Returns the file and the
/// number of records in it.
fn merge_capture(
    format: Format,
    starts: &[f64],
    mut records_of: impl FnMut(usize) -> Vec<Record>,
    size_hint: usize,
) -> (Vec<u8>, u64) {
    let mut file = Vec::with_capacity(size_hint);
    file.extend_from_slice(&format.file_header());
    // Episodes admitted so far; `None` once spent.
    let mut live: Vec<Option<Peekable<std::vec::IntoIter<Record>>>> = Vec::new();
    // (time of an episode's next record, episode), earliest first.
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let key = |ts: f64| ts.max(0.0).to_bits(); // non-negative f64 bits order like the floats
    let mut records = 0u64;
    loop {
        // The SYN leads an exchange by 2 ms; admit with that margin.
        while live.len() < starts.len()
            && heap
                .peek()
                .is_none_or(|Reverse((k, _))| key(starts[live.len()] - 0.01) <= *k)
        {
            let mut episode = records_of(live.len()).into_iter().peekable();
            if let Some((ts, _)) = episode.peek() {
                heap.push(Reverse((key(*ts), live.len())));
            }
            live.push(Some(episode));
        }
        let Some(Reverse((_, ep))) = heap.pop() else {
            break;
        };
        let episode = live[ep].as_mut().expect("queued episodes are live");
        let (_, record) = episode.next().expect("queued episodes have a record");
        file.extend_from_slice(&record);
        records += 1;
        match episode.peek() {
            Some((ts, _)) => heap.push(Reverse((key(*ts), ep))),
            None => live[ep] = None,
        }
    }
    (file, records)
}

/// Body bytes `pcap_bulk` puts on the wire for `tx`, before any coding:
/// the declared size, at least what is materialized, at most `cap`.
fn padded_len(tx: &HttpTransaction, cap: usize) -> usize {
    let held = tx.body_preview.len();
    tx.payload_size.clamp(held, cap.max(held))
}

/// The cap on a padded body under which `transactions` carry
/// `body_bytes` between them. Declared sizes have a heavy tail (a few
/// run to gigabytes), so a fixed cap leaves the capture's size to the
/// few largest; solving for the cap gives every seed a capture of the
/// same size and the same number of transactions, whose throughput can
/// be compared.
fn body_cap<'a>(
    transactions: impl Iterator<Item = &'a HttpTransaction> + Clone,
    body_bytes: usize,
) -> usize {
    let total = |cap: usize| -> usize { transactions.clone().map(|tx| padded_len(tx, cap)).sum() };
    let (mut lo, mut hi) = (0usize, 16 << 20);
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        if total(mid) <= body_bytes {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// `tx`'s body padded to `len` with seeded bytes.
fn padded_body(tx: &HttpTransaction, len: usize, pad_seed: u64) -> Vec<u8> {
    let mut body = tx.body_preview.clone();
    let mut x = pad_seed | 1;
    body.reserve(len.saturating_sub(body.len()) + 8);
    while body.len() < len {
        // xorshift64*: fast enough that padding is not the set-up cost.
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        body.extend_from_slice(&x.wrapping_mul(0x2545_f491_4f6c_dd1d).to_le_bytes());
    }
    body.truncate(len);
    body
}

/// Which bodies of a capture go out coded: every fourth text body gzip,
/// every fifth body chunked (`pcap_lossy` only), counted across the capture.
#[derive(Default)]
struct CodingSchedule {
    chunk_some: bool,
    text_seen: usize,
    bodies_seen: usize,
}

impl CodingSchedule {
    fn next(&mut self, tx: &HttpTransaction) -> Coding {
        if tx.status == 0 || tx.body_preview.is_empty() {
            return Coding::default();
        }
        self.bodies_seen += 1;
        let gzip = is_text(tx.payload_class) && {
            self.text_seen += 1;
            self.text_seen.is_multiple_of(4)
        };
        Coding {
            gzip,
            chunked: self.chunk_some && self.bodies_seen.is_multiple_of(5),
        }
    }
}

/// One episode's packets in time order: its transactions pooled into
/// connections of at most `per_connection` exchanges, each answered
/// with the body `body_of` gives. Records and gzip containers are
/// appended to the two lists.
fn episode_packets(
    format: Format,
    episode: &Episode,
    per_connection: usize,
    schedule: &mut CodingSchedule,
    mut body_of: impl FnMut(usize, &HttpTransaction) -> Vec<u8>,
    records: &mut Vec<HttpTransaction>,
    gzip_bodies: &mut Vec<Vec<u8>>,
) -> Vec<Packet> {
    let transactions = &episode.transactions;
    // Codings follow transaction order, whatever connection carries each.
    let codings: Vec<Coding> = transactions.iter().map(|tx| schedule.next(tx)).collect();
    let mut packets = Vec::new();
    for connection in connections(transactions, per_connection) {
        let mut exchanges: Vec<Rendered> = connection
            .iter()
            .map(|&j| render_exchange(&transactions[j], body_of(j, &transactions[j]), codings[j]))
            .collect();
        connection_packets(format, &mut exchanges, &mut packets);
        for exchange in exchanges {
            gzip_bodies.extend(exchange.gzip_container);
            records.push(exchange.record);
        }
    }
    packets.sort_by(|a, b| a.ts.total_cmp(&b.ts));
    packets
}

/// `pcap_bulk`: a clean classic-pcap capture of the first `transactions`
/// transactions of `corpus` (whole episodes, the last cut short), every
/// exchange on a connection of its own, bodies padded to their declared
/// size under the cap that makes the capture `target_bytes` long, and
/// one text body in four gzip-coded.
pub fn bulk_capture(
    seed: u64,
    corpus: &[Episode],
    transactions: usize,
    target_bytes: usize,
) -> Capture {
    let mut left = transactions;
    let episodes: Vec<Episode> = corpus
        .iter()
        .map_while(|ep| {
            let mut ep = ep.clone();
            ep.transactions.truncate(left);
            left -= ep.transactions.len();
            (!ep.transactions.is_empty()).then_some(ep)
        })
        .collect();
    let (episodes, take) = (&episodes[..], episodes.len());
    // ~1 KB of heads and control packets per exchange; 70 bytes of record
    // and frame headers per 1400 of body.
    let cap = body_cap(
        episodes.iter().flat_map(|ep| &ep.transactions),
        (target_bytes.saturating_sub(transactions * 1000)) * 100 / 105,
    );
    let starts: Vec<f64> = episodes.iter().map(|e| e.transactions[0].ts).collect();
    let mut expected = Vec::new();
    let mut gzip_bodies = Vec::new();
    let mut schedule = CodingSchedule::default();
    let (bytes, packets) = merge_capture(
        Format::Pcap,
        &starts,
        |i| {
            episode_packets(
                Format::Pcap,
                &episodes[i],
                1,
                &mut schedule,
                |j, tx| {
                    padded_body(
                        tx,
                        padded_len(tx, cap),
                        mix(seed, ((i as u64) << 20) | j as u64),
                    )
                },
                &mut expected,
                &mut gzip_bodies,
            )
            .iter()
            .map(|p| Format::Pcap.packet_record(p))
            .collect()
        },
        target_bytes + target_bytes / 8,
    );
    expected.sort_by(|a, b| a.ts.total_cmp(&b.ts));
    nettrace::assign_seq(&mut expected);
    let fingerprint = Fingerprint {
        transactions: expected.len() as u64,
        packets,
        bytes: bytes.len() as u64,
        distinct_clients: take as u64,
        infection_share: episodes.iter().filter(|e| e.is_infection()).count() as f64 / take as f64,
        digest: fnv1a(FNV_OFFSET, &bytes),
    };
    Capture {
        bytes,
        expected,
        fingerprint,
        gzip_bodies,
    }
}

// --- pcap_lossy: keep-alive connections, coded bodies, damaged episodes --

/// Exchanges a `pcap_lossy` connection carries at most.
const LOSSY_PER_CONNECTION: usize = 8;
/// One episode in this many is damaged in `pcap_lossy`.
const LOSSY_DAMAGE_EVERY: usize = 3;

/// The classic-pcap file of `packets`, and where each record starts.
fn classic_file(packets: &[Packet]) -> (Vec<u8>, Vec<usize>) {
    let mut file = Format::Pcap.file_header();
    let mut offsets = Vec::with_capacity(packets.len() + 1);
    for packet in packets {
        offsets.push(file.len());
        file.extend_from_slice(&Format::Pcap.packet_record(packet).1);
    }
    offsets.push(file.len());
    (file, offsets)
}

/// One classic record of a damaged episode as the pcapng block that
/// carries it in the merged capture: the record's header fields go over
/// as they are, flipped bits and all, and a record the damage cut short
/// (`raw` shorter than `full_len`) gives a block cut at the same place,
/// which the reader has to resynchronise after.
fn transcribe(raw: &[u8], full_len: usize) -> Vec<u8> {
    let mut whole = raw.to_vec();
    whole.resize(full_len.max(16), 0);
    let field =
        |at: usize| u32::from_le_bytes([whole[at], whole[at + 1], whole[at + 2], whole[at + 3]]);
    let ticks = u64::from(field(0)) * 1_000_000 + u64::from(field(4));
    let mut block = Format::PcapNg.record(ticks, field(8), field(12), &whole[16..]);
    if raw.len() < full_len {
        // The block header is twelve bytes longer than the record's.
        block.truncate(raw.len() + 12);
    }
    block
}

/// Damages one episode's packets with `fault` and returns its records
/// for the merged pcapng capture. The damage is `synthtraffic::faultgen`'s,
/// applied to the episode's own classic-pcap file; nothing here reads the
/// result leniently, so what the fault did reaches the timed call: the
/// nine packet-level classes give back a well-formed file, which is
/// walked record by record, and the two file-level classes (a chopped
/// tail, flipped bytes) keep the layout of the undamaged file, which
/// says where each record was.
fn damaged_records(packets: &[Packet], fault: Fault, rng: &mut StdRng) -> Vec<Record> {
    let (clean, offsets) = classic_file(packets);
    let damaged = faultgen::apply(&clean, fault, rng);
    if matches!(fault, Fault::TruncateTail | Fault::FlipBytes) {
        return packets
            .iter()
            .zip(offsets.windows(2))
            .map_while(|(packet, at)| {
                let raw = damaged.get(at[0]..at[1].min(damaged.len()))?;
                (!raw.is_empty()).then(|| (packet.ts, transcribe(raw, at[1] - at[0])))
            })
            .collect();
    }
    let mut records = Vec::new();
    let mut at = Format::Pcap.file_header().len();
    while at + 16 <= damaged.len() {
        let field = |i: usize| {
            let b = &damaged[at + i..at + i + 4];
            u32::from_le_bytes([b[0], b[1], b[2], b[3]])
        };
        let end = at + 16 + field(8) as usize;
        let ts = f64::from(field(0)) + f64::from(field(4)) * 1e-6;
        records.push((ts, transcribe(&damaged[at..end], end - at)));
        at = end;
    }
    records
}

/// `pcap_lossy`: the first `take` episodes with bodies as generated, on
/// keep-alive connections, every fourth text body gzip-coded and every
/// fifth body chunked, as one pcapng capture. One episode in
/// [`LOSSY_DAMAGE_EVERY`] is damaged by one `faultgen` class, cycling
/// all eleven, and the capture ends in the middle of a block, as one
/// does when the capturing process is stopped.
pub fn lossy_capture(seed: u64, corpus: &[Episode], take: usize) -> Capture {
    let episodes = &corpus[..take.min(corpus.len())];
    let starts: Vec<f64> = episodes.iter().map(|e| e.transactions[0].ts).collect();
    let mut expected = Vec::new();
    let mut schedule = CodingSchedule {
        chunk_some: true,
        ..CodingSchedule::default()
    };
    let mut last_damaged_block = Vec::new();
    let mut gzip_bodies = Vec::new();
    let (mut bytes, packets) = merge_capture(
        Format::PcapNg,
        &starts,
        |i| {
            let ep = &episodes[i];
            let damage = i % LOSSY_DAMAGE_EVERY == LOSSY_DAMAGE_EVERY - 1;
            let mut records = Vec::new();
            let packets = episode_packets(
                Format::PcapNg,
                ep,
                LOSSY_PER_CONNECTION,
                &mut schedule,
                |_, tx| tx.body_preview.clone(),
                &mut records,
                &mut gzip_bodies,
            );
            if !damage {
                expected.extend(records);
                return packets
                    .iter()
                    .map(|p| Format::PcapNg.packet_record(p))
                    .collect();
            }
            let fault = Fault::ALL[(i / LOSSY_DAMAGE_EVERY) % Fault::ALL.len()];
            let mut rng = StdRng::seed_from_u64(mix(seed ^ 0xfa17, i as u64));
            let records = damaged_records(&packets, fault, &mut rng);
            if let Some((_, block)) = records.last() {
                last_damaged_block.clone_from(block);
            }
            records
        },
        take * (32 << 10),
    );
    // The capture stops while a block is being written.
    bytes.extend_from_slice(&last_damaged_block[..last_damaged_block.len() / 2]);
    expected.sort_by(|a, b| a.ts.total_cmp(&b.ts));
    let fingerprint = Fingerprint {
        transactions: episodes.iter().map(|e| e.transactions.len() as u64).sum(),
        packets,
        bytes: bytes.len() as u64,
        distinct_clients: episodes.len() as u64,
        infection_share: episodes.iter().filter(|e| e.is_infection()).count() as f64
            / episodes.len() as f64,
        digest: fnv1a(FNV_OFFSET, &bytes),
    };
    Capture {
        bytes,
        expected,
        fingerprint,
        gzip_bodies,
    }
}
