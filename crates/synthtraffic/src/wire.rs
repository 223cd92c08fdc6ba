//! Loopback replay harness: drive synthetic episodes through a *real*
//! proxy over real sockets, against a real origin server, and compare
//! the wire-observed forensics with an offline analysis of the same
//! episodes rendered to pcap.
//!
//! The replay preserves the episode timeline through the
//! `X-Replay-*` header mechanism (see [`nettrace::wiretap`]): the
//! driver stamps each request with the episode timestamp and a
//! transaction id, the origin stamps each response with the episode's
//! response-completion timestamp, and a tap configured with
//! `honor_replay_ts` adopts and strips them — so a transaction
//! observed on the wire is byte-identical to the same transaction
//! extracted from the episode's pcap rendering, timestamps included.
//!
//! Determinism notes baked into the harness:
//!
//! * [`wire_episode_set`] remaps every client port to a globally
//!   unique value so the merged pcap rendering
//!   ([`crate::pcapgen::episodes_pcap`]) has no colliding TCP
//!   4-tuples, and spaces episode start times so no two transactions
//!   share a timestamp (ties would make the offline sort order
//!   ambiguous).
//! * [`drive_episodes`] replays transactions *sequentially in global
//!   timestamp order*, one connection per transaction — so the wire
//!   feed order equals the offline `(ts, seq)` sort order and ingest
//!   sequence numbers match end to end.
//! * With PROXY protocol enabled the driver announces each
//!   transaction's original client/server endpoints, so even the
//!   synthesized endpoints match the pcap rendering exactly.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::benign::{generate_benign, BenignScenario};
use crate::episode::{generate_infection, Episode};
use crate::families::EkFamily;
use crate::pcapgen::{request_bytes, response_bytes};
use nettrace::http::parse_request_head;
use nettrace::proxyproto::encode_v1_tcp4;
use nettrace::scan::find_head_end;
use nettrace::transaction::assign_seq;
use nettrace::wiretap::{REPLAY_ID_HEADER, REPLAY_RESP_TS_HEADER, REPLAY_TS_HEADER};
use nettrace::HttpTransaction;

/// First client port handed out by the global remap.
const REMAP_PORT_BASE: u16 = 20000;
/// Client ports the remap can hand out: `REMAP_PORT_BASE..=65535`.
const REMAP_PORTS: u32 = 65536 - REMAP_PORT_BASE as u32;

/// Builds a deterministic mixed episode set sized for loopback replay:
/// `infections` exploit-kit episodes interleaved with `benign` browsing
/// episodes, start times spaced well apart, and every client port
/// remapped to a globally unique value (so the merged pcap rendering
/// has no 4-tuple collisions and a sequential replay has no timestamp
/// ties).
///
/// # Errors
///
/// The set holds more distinct client ports than the 45 536 the remap
/// hands out (20000–65535): a few thousand episodes.
pub fn wire_episode_set(
    seed: u64,
    infections: usize,
    benign: usize,
) -> Result<Vec<Episode>, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0017_e57a_11ed_u64);
    let mut episodes = Vec::new();
    let base_ts = 1_500_000_000.0;
    let (mut inf_left, mut ben_left) = (infections, benign);
    for i in 0..infections + benign {
        let start_ts = base_ts + i as f64 * 7200.0;
        let make_infection = inf_left > 0 && (ben_left == 0 || i % 2 == 0);
        let ep = if make_infection {
            inf_left -= 1;
            let family = EkFamily::sample_weighted(&mut rng);
            generate_infection(&mut rng, family, start_ts)
        } else {
            ben_left -= 1;
            let scenario = BenignScenario::sample(&mut rng);
            generate_benign(&mut rng, scenario, start_ts)
        };
        episodes.push(ep);
    }
    remap_client_ports(&mut episodes)?;
    dedupe_timestamps(&mut episodes);
    Ok(episodes)
}

/// Projects a timestamp through the classic-pcap sec/usec round trip,
/// with the *identical arithmetic* the `nettrace` writer and reader
/// use. Episode timestamps are pre-quantized with this so both replay
/// legs see the same bits: the pcap leg reproduces the value because
/// the projection is idempotent, and the wire leg reproduces it
/// because the `X-Replay-*` headers print/parse f64 exactly.
fn pcap_quantize(ts: f64) -> f64 {
    let sec = ts.floor() as u32;
    let usec = ((ts - f64::from(sec)) * 1e6).round() as u32;
    f64::from(sec) + f64::from(usec) * 1e-6
}

/// Quantizes every timestamp to pcap microsecond resolution and nudges
/// duplicate request timestamps apart so the merged stream has a
/// unique, unambiguous timestamp order. Both replay legs see the
/// adjusted values — the annotation headers and the pcap rendering
/// read the same transaction — so parity is unaffected.
fn dedupe_timestamps(episodes: &mut [Episode]) {
    let mut used = std::collections::BTreeSet::new();
    for ep in episodes {
        for tx in &mut ep.transactions {
            tx.ts = pcap_quantize(tx.ts);
            tx.resp_ts = pcap_quantize(tx.resp_ts);
            while !used.insert(tx.ts.to_bits()) {
                tx.ts = pcap_quantize(tx.ts + 2e-6);
            }
        }
    }
}

/// Rewrites every transaction's client port to a globally unique value
/// (preserving the client address). Two episodes otherwise reuse the
/// same ephemeral range, which would merge distinct connections when
/// their renderings share a pcap. Fails, naming the limit, when the
/// set needs more than [`REMAP_PORTS`].
fn remap_client_ports(episodes: &mut [Episode]) -> Result<(), String> {
    let mut next: u32 = u32::from(REMAP_PORT_BASE);
    for ep in episodes {
        let mut mapping: BTreeMap<u16, u16> = BTreeMap::new();
        for tx in &mut ep.transactions {
            let port = match mapping.get(&tx.client.port) {
                Some(&port) => port,
                None => {
                    let port = u16::try_from(next).map_err(|_| {
                        format!(
                            "the episode set needs more than {REMAP_PORTS} client ports \
                             (the remap hands out {REMAP_PORT_BASE}-65535); use fewer episodes"
                        )
                    })?;
                    next += 1;
                    mapping.insert(tx.client.port, port);
                    port
                }
            };
            tx.client.port = port;
        }
    }
    Ok(())
}

/// Flattens episodes into one transaction stream in the offline replay
/// order: sorted by timestamp, ingest sequence numbers assigned in
/// that order. This is both the drive order and the reference the
/// wire-side forensics are compared against.
pub fn merged_wire_transactions(episodes: &[Episode]) -> Vec<HttpTransaction> {
    let mut all: Vec<HttpTransaction> =
        episodes.iter().flat_map(|e| e.transactions.iter().cloned()).collect();
    all.sort_by(|a, b| a.ts.total_cmp(&b.ts));
    assign_seq(&mut all);
    all
}

/// The request bytes the driver sends for transaction `id`: the
/// episode rendering with `X-Replay-Ts` (original request timestamp)
/// and `X-Replay-Id` (the merged-stream index) inserted before the
/// final CRLF. A replay-trusting tap adopts the timestamp and strips
/// both, recovering the original head byte-for-byte.
pub fn replay_request_bytes(tx: &HttpTransaction, id: u64) -> Vec<u8> {
    let mut head = request_bytes(tx);
    debug_assert!(head.ends_with(b"\r\n\r\n"));
    let insert_at = head.len() - 2;
    let extra = format!("{REPLAY_TS_HEADER}: {}\r\n{REPLAY_ID_HEADER}: {id}\r\n", tx.ts);
    head.splice(insert_at..insert_at, extra.into_bytes());
    head
}

/// The response bytes the origin serves for `tx`: the episode
/// rendering with `X-Replay-Resp-Ts` (original response-completion
/// timestamp) inserted at the end of the head. `None` for status-0
/// transactions — the origin hangs up without answering, and the tap
/// synthesizes the unanswered-request transaction at close, exactly
/// like offline ingest does for a response-less stream.
pub fn replay_response_bytes(tx: &HttpTransaction) -> Option<Vec<u8>> {
    if tx.status == 0 {
        return None;
    }
    let mut bytes = response_bytes(tx);
    let head_end = find_head_end(&bytes).expect("rendered response has a head terminator");
    let extra = format!("{REPLAY_RESP_TS_HEADER}: {}\r\n", tx.resp_ts);
    bytes.splice(head_end - 2..head_end - 2, extra.into_bytes());
    Some(bytes)
}

/// A minimal single-threaded HTTP origin for loopback replay: keyed by
/// the `X-Replay-Id` request header, it serves each transaction's
/// rendered response (with the replay timestamp annotation) or hangs
/// up for status-0 transactions.
pub struct OriginServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl OriginServer {
    /// Binds `127.0.0.1:0` and serves `transactions` (indexed by their
    /// position, which is the id [`drive_episodes`] announces) on a
    /// background thread until dropped or [`OriginServer::stop`]ped.
    ///
    /// # Errors
    ///
    /// Any bind failure.
    pub fn start(transactions: &[HttpTransaction]) -> io::Result<OriginServer> {
        let responses: Vec<Option<Vec<u8>>> =
            transactions.iter().map(replay_response_bytes).collect();
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let handle = std::thread::spawn(move || serve(&listener, &responses, &stop_flag));
        Ok(OriginServer { addr, stop, handle: Some(handle) })
    }

    /// The bound address (pass as the proxy's origin).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the serving thread (what
    /// dropping the server does).
    pub fn stop(self) {}
}

impl Drop for OriginServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// The origin accept/serve loop. Single-threaded: the loopback driver
/// replays one connection at a time, so there is never more than one
/// in-flight request.
fn serve(listener: &TcpListener, responses: &[Option<Vec<u8>>], stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
                if let Some(id) = read_request_id(&mut stream) {
                    // Status-0 transactions (and unknown ids) hang
                    // up without answering.
                    if let Some(Some(body)) = responses.get(id) {
                        let _ = stream.write_all(body);
                        let _ = stream.flush();
                    }
                }
                // Dropping the stream closes the connection; the proxy
                // relays the EOF to the client.
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => break,
        }
    }
}

/// Reads one request head off `stream` and extracts its
/// `X-Replay-Id`. `None` on timeout, malformed or oversized head, or
/// missing id.
fn read_request_id(stream: &mut TcpStream) -> Option<usize> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some((head, _)) = parse_request_head(&buf).ok()? {
            return head.headers.get(REPLAY_ID_HEADER)?.parse().ok();
        }
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return None,
        }
    }
}

/// Replays `transactions` (the [`merged_wire_transactions`] order)
/// through the proxy at `proxy`, sequentially: one connection per
/// transaction, optional PROXY-protocol v1 preamble announcing the
/// *episode's* client/server endpoints, the annotated request, and —
/// for answered transactions — a full read of the relayed response.
/// Returns the number of transactions driven.
///
/// # Errors
///
/// Connect or write failures to the proxy (response-read failures are
/// tolerated: a mid-drive proxy shutdown is an expected test case).
pub fn drive_episodes(
    proxy: SocketAddr,
    transactions: &[HttpTransaction],
    proxy_protocol: bool,
) -> io::Result<u64> {
    let mut driven = 0u64;
    for (id, tx) in transactions.iter().enumerate() {
        let mut stream = TcpStream::connect(proxy)?;
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        let _ = stream.set_nodelay(true);
        if proxy_protocol {
            let preamble = encode_v1_tcp4(
                (tx.client.addr, tx.client.port),
                (tx.server.addr, tx.server.port),
            );
            stream.write_all(&preamble)?;
        }
        stream.write_all(&replay_request_bytes(tx, id as u64))?;
        stream.flush()?;
        if tx.status != 0 {
            // Drain the relayed response so the tap observes all of it
            // before the next transaction begins (sequential replay is
            // what makes wire order == offline order). The origin
            // closes every connection after one response.
            let _ = io::copy(&mut stream, &mut io::sink());
        }
        // For status-0: drop the connection; the origin never answered,
        // and the proxy tap synthesizes the unanswered request at close.
        driven += 1;
    }
    Ok(driven)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::reassembly::Endpoint;

    #[test]
    fn episode_set_is_deterministic_with_unique_ports_and_ts() {
        let a = wire_episode_set(7, 2, 2).unwrap();
        let b = wire_episode_set(7, 2, 2).unwrap();
        assert_eq!(a.len(), 4);
        assert_eq!(a.iter().filter(|e| e.is_infection()).count(), 2);
        let txs_a = merged_wire_transactions(&a);
        let txs_b = merged_wire_transactions(&b);
        assert_eq!(txs_a.len(), txs_b.len());
        for (x, y) in txs_a.iter().zip(&txs_b) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
        // Client (addr, port) pairs never collide across the merged set.
        let mut endpoints: Vec<(std::net::Ipv4Addr, u16)> =
            txs_a.iter().map(|t| (t.client.addr, t.client.port)).collect();
        let before = endpoints.len();
        endpoints.sort_unstable();
        endpoints.dedup();
        assert_eq!(endpoints.len(), before, "colliding client endpoints");
        // No two transactions share a timestamp (would make the offline
        // sort order ambiguous).
        let mut ts: Vec<u64> = txs_a.iter().map(|t| t.ts.to_bits()).collect();
        ts.sort_unstable();
        ts.dedup();
        assert_eq!(ts.len(), before, "timestamp ties in the merged stream");
    }

    #[test]
    fn remap_fills_the_port_space_then_fails_naming_the_limit() {
        let template = wire_episode_set(3, 1, 0).unwrap().swap_remove(0);
        let mut tx = template.transactions[0].clone();
        tx.body_preview.clear();
        // Two episodes of `ports` transactions, each on its own client port.
        let set = |ports: u16| -> Vec<Episode> {
            let transactions: Vec<HttpTransaction> = (0..ports)
                .map(|port| {
                    let client = Endpoint::new(tx.client.addr, port);
                    HttpTransaction { client, ..tx.clone() }
                })
                .collect();
            vec![Episode { transactions, ..template.clone() }; 2]
        };
        let mut fits = set(22_768); // 2 × 22 768 = 45 536
        remap_client_ports(&mut fits).unwrap();
        assert_eq!(fits[1].transactions.last().unwrap().client.port, 65535);
        let err = remap_client_ports(&mut set(22_769)).unwrap_err();
        assert!(err.contains("45536 client ports"), "{err}");
    }

    #[test]
    fn replay_annotations_insert_and_roundtrip() {
        let episodes = wire_episode_set(3, 1, 0).unwrap();
        let txs = merged_wire_transactions(&episodes);
        let tx = &txs[0];
        let req = replay_request_bytes(tx, 42);
        let text = String::from_utf8_lossy(&req);
        assert!(text.contains(&format!("{REPLAY_TS_HEADER}: {}\r\n", tx.ts)));
        assert!(text.contains(&format!("{REPLAY_ID_HEADER}: 42\r\n")));
        assert!(req.ends_with(b"\r\n\r\n"));
        if let Some(resp) = replay_response_bytes(tx) {
            let text = String::from_utf8_lossy(&resp);
            assert!(text.contains(&format!("{REPLAY_RESP_TS_HEADER}: {}\r\n", tx.resp_ts)));
        }
        // The replay timestamp must survive a text round-trip exactly
        // (shortest-roundtrip f64 formatting).
        let printed = format!("{}", tx.ts);
        assert_eq!(printed.parse::<f64>().unwrap().to_bits(), tx.ts.to_bits());
    }

    #[test]
    fn origin_serves_by_replay_id_and_hangs_up_on_status_zero() {
        let episodes = wire_episode_set(11, 1, 1).unwrap();
        let txs = merged_wire_transactions(&episodes);
        let origin = OriginServer::start(&txs).unwrap();
        let answered =
            txs.iter().position(|t| t.status != 0).expect("an answered transaction exists");
        let mut stream = TcpStream::connect(origin.addr()).unwrap();
        stream.write_all(&replay_request_bytes(&txs[answered], answered as u64)).unwrap();
        let mut got = Vec::new();
        stream.read_to_end(&mut got).unwrap();
        assert_eq!(got, replay_response_bytes(&txs[answered]).unwrap());
        // Unknown id: connection closes with no bytes.
        let mut stream = TcpStream::connect(origin.addr()).unwrap();
        stream.write_all(&replay_request_bytes(&txs[answered], 999_999)).unwrap();
        let mut got = Vec::new();
        stream.read_to_end(&mut got).unwrap();
        assert!(got.is_empty());
        origin.stop();
    }

    #[test]
    fn merged_pcap_extracts_every_transaction() {
        let episodes = wire_episode_set(5, 1, 1).unwrap();
        let txs = merged_wire_transactions(&episodes);
        let pcap = crate::pcapgen::episodes_pcap(&episodes);
        let mut report = nettrace::IngestReport::new();
        let extracted =
            nettrace::SpanPipeline::new().extract_lenient(&pcap, &mut report);
        assert_eq!(extracted.len(), txs.len());
    }
}
