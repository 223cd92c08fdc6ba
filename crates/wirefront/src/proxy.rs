//! The inline HTTP forward proxy: a poll(2)-friendly, non-blocking
//! relay that forwards client connections to an origin while a
//! [`ConnectionTap`] observes both directions and synthesizes
//! [`HttpTransaction`]s for the stream engine.
//!
//! # Address fidelity
//!
//! With `proxy_protocol` enabled the source parses a HAProxy
//! PROXY-protocol v1/v2 preamble on every accepted connection
//! (fail-closed: a bad header drops the connection and bumps a
//! per-reason reject counter) and uses the *relayed* client/server
//! endpoints for the synthesized transactions. Shard partitioning and
//! conversation tracking key on the client address, so traffic that
//! crosses a load balancer keeps its true client identity.
//!
//! # Backpressure
//!
//! Relay buffers are bounded and never drop real traffic — a full
//! relay buffer simply stops socket reads, which is TCP backpressure.
//! The *observation* buffers (the tap) follow the engine's
//! [`BackpressurePolicy`] vocabulary:
//!
//! * [`BackpressurePolicy::Block`] — socket reads are additionally
//!   gated on tap free space, so the peer is slowed down until the
//!   parser catches up and a parseable message is never dropped. The
//!   only way to overflow is a single HTTP message larger than the tap
//!   buffer, which abandons observation of that connection (relay
//!   continues; counted in `tap_overflows`).
//! * [`BackpressurePolicy::DropNewest`] — reads run at line rate and
//!   the tap is allowed to overflow, trading observation completeness
//!   for zero added latency.
//!
//! # Blocking caveat
//!
//! The origin connect (`TcpStream::connect_timeout`) is the one
//! blocking call in the pump path; a slow or blackholed origin can
//! stall a work slice for up to `connect_timeout`. Everything else —
//! accept, reads, writes, PROXY-header parsing — is non-blocking.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::time::Duration;

use nettrace::proxyproto::{self, ProxyHeader};
use nettrace::reassembly::Endpoint;
use nettrace::source::{PumpOutcome, SourceStats, TrafficSource};
use nettrace::wiretap::{ConnectionTap, TapConfig, TapDir};
use nettrace::{Error, HttpTransaction, IngestReport};
use streamd::BackpressurePolicy;

use crate::sys::{self, PollFd, POLLIN, POLLOUT};

/// Socket read size per call.
const READ_CHUNK: usize = 16 * 1024;
/// Bound on each per-connection relay (forwarding) buffer. Reads stop
/// when the peer's write side is this far behind — TCP backpressure,
/// never a drop.
const RELAY_BUF_CAP: usize = 64 * 1024;
/// Bytes a PROXY-protocol preamble may occupy before the connection is
/// rejected as oversized (the parser's own caps are tighter; this is
/// the buffering bound).
const HANDSHAKE_CAP: usize = proxyproto::V2_MAX_LEN + 64;
/// Reads per direction per pump slice, bounding one connection's share
/// of a work slice.
const READS_PER_SLICE: usize = 4;

/// Proxy tuning knobs.
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// Where accepted connections are forwarded.
    pub origin: SocketAddr,
    /// Require and parse a PROXY-protocol v1/v2 preamble on every
    /// connection (fail-closed on anything malformed).
    pub proxy_protocol: bool,
    /// Per-connection observation buffers (and the `X-Replay-Ts`
    /// trust switch — loopback parity harnesses only).
    pub tap: TapConfig,
    /// Observation backpressure (see module docs); relayed traffic is
    /// never dropped under either policy.
    pub policy: BackpressurePolicy,
    /// Accepted connections beyond this are closed immediately and
    /// counted as `source_drops`.
    pub max_connections: usize,
    /// Bound on the (blocking) origin connect.
    pub connect_timeout: Duration,
}

impl ProxyConfig {
    /// Defaults for forwarding to `origin`: no PROXY protocol, 1 MiB
    /// taps, `Block` observation backpressure, 1024 connections.
    pub fn new(origin: SocketAddr) -> Self {
        ProxyConfig {
            origin,
            proxy_protocol: false,
            tap: TapConfig::default(),
            policy: BackpressurePolicy::Block,
            max_connections: 1024,
            connect_timeout: Duration::from_secs(3),
        }
    }
}

/// Connection lifecycle.
enum ConnState {
    /// Accumulating the PROXY-protocol preamble.
    Handshake(Vec<u8>),
    /// Forwarding bytes; the tap observes both directions.
    Relay(Box<Relay>),
}

/// An established relay: origin socket, tap, and per-direction
/// forwarding buffers.
struct Relay {
    origin: TcpStream,
    tap: ConnectionTap,
    to_origin: Vec<u8>,
    to_client: Vec<u8>,
    client_eof: bool,
    origin_eof: bool,
    client_wr_shut: bool,
    origin_wr_shut: bool,
    overflow_counted: bool,
}

struct Conn {
    client: TcpStream,
    peer: SocketAddr,
    state: ConnState,
    dead: bool,
}

/// The inline forward proxy as a [`TrafficSource`].
pub struct ProxySource {
    /// The listening socket; `None` once shut down, so the kernel
    /// refuses new connections instead of queueing them.
    listener: Option<TcpListener>,
    local_addr: SocketAddr,
    config: ProxyConfig,
    conns: Vec<Conn>,
    stats: SourceStats,
    report: IngestReport,
    rejects: BTreeMap<&'static str, u64>,
    scratch: Vec<u8>,
}

/// Best-effort IPv4 view of a socket address (IPv6 peers keep their
/// port under the unspecified address; the engine is IPv4-keyed).
fn v4_endpoint(addr: SocketAddr) -> Endpoint {
    match addr {
        SocketAddr::V4(v4) => Endpoint::new(*v4.ip(), v4.port()),
        SocketAddr::V6(v6) => Endpoint::new(Ipv4Addr::UNSPECIFIED, v6.port()),
    }
}

/// True for errors that mean "this peer is gone", which the relay
/// treats as end-of-stream so the tap still flushes.
fn is_disconnect(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::NotConnected
    )
}

impl ProxySource {
    /// Binds the listening socket and prepares the source. With
    /// `proxy_protocol` on, every connection must start with a valid
    /// v1/v2 preamble.
    ///
    /// # Errors
    ///
    /// Any bind/listen failure.
    pub fn bind(listen: SocketAddr, config: ProxyConfig) -> io::Result<ProxySource> {
        let listener = TcpListener::bind(listen)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let rejects =
            proxyproto::ProxyProtoError::reasons().iter().map(|r| (*r, 0u64)).collect();
        Ok(ProxySource {
            listener: Some(listener),
            local_addr,
            config,
            conns: Vec::new(),
            stats: SourceStats::default(),
            report: IngestReport::new(),
            rejects,
            scratch: vec![0; READ_CHUNK],
        })
    }

    /// The bound listening address (resolves `:0` requests).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections currently open through the proxy.
    pub fn active_connections(&self) -> usize {
        self.conns.len()
    }

    /// PROXY-protocol rejections so far, by reason slug.
    pub fn proxyproto_rejects(&self) -> &BTreeMap<&'static str, u64> {
        &self.rejects
    }

    /// Accepts pending connections (non-blocking), draining the queue
    /// once the listener polls readable. Returns whether any arrived.
    fn accept_pending(&mut self, out: &mut Vec<HttpTransaction>) -> nettrace::Result<bool> {
        // A zero-timeout poll costs a fraction of an `accept` on an empty
        // queue, for which the kernel allocates a socket and a file before
        // it finds nothing (≈ 0.4 µs against ≈ 2.9 µs on a 2-vCPU Linux
        // VM). A failed poll falls through, so `accept` reports the error.
        let Some(listener) = &self.listener else { return Ok(false) };
        let mut poll = [PollFd::new(listener.as_raw_fd(), POLLIN)];
        if sys::poll_fds(&mut poll, 0).is_ok_and(|ready| ready == 0) {
            return Ok(false);
        }
        let mut progress = false;
        loop {
            match listener.accept() {
                Ok((stream, peer)) => {
                    progress = true;
                    if self.conns.len() >= self.config.max_connections {
                        self.stats.source_drops += 1;
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        self.stats.source_drops += 1;
                        continue;
                    }
                    self.stats.connections += 1;
                    let mut conn = Conn {
                        client: stream,
                        peer,
                        state: ConnState::Handshake(Vec::new()),
                        dead: false,
                    };
                    if !self.config.proxy_protocol {
                        let client_ep = v4_endpoint(peer);
                        let server_ep = v4_endpoint(self.config.origin);
                        open_relay(
                            &self.config,
                            &mut self.stats,
                            &mut self.report,
                            &mut conn,
                            client_ep,
                            server_ep,
                            &[],
                            out,
                        );
                    }
                    if !conn.dead {
                        self.conns.push(conn);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(Error::Io(e)),
            }
        }
        Ok(progress)
    }

    /// Advances one connection still reading its PROXY preamble.
    fn advance_handshake(&mut self, idx: usize, out: &mut Vec<HttpTransaction>) -> bool {
        let mut progress = false;
        loop {
            let conn = &mut self.conns[idx];
            let ConnState::Handshake(buf) = &mut conn.state else { return progress };
            let mut chunk = [0u8; 512];
            match conn.client.read(&mut chunk) {
                Ok(0) => {
                    // Preamble never completed: fail closed.
                    *self.rejects.entry("malformed").or_insert(0) += 1;
                    self.stats.source_drops += 1;
                    conn.dead = true;
                    return true;
                }
                Ok(n) => {
                    progress = true;
                    buf.extend_from_slice(&chunk[..n]);
                    match proxyproto::parse_proxy_header(buf) {
                        Ok(Some((header, consumed))) => {
                            let leftover = buf[consumed..].to_vec();
                            let client_ep = header
                                .client_v4()
                                .map(|(a, p)| Endpoint::new(a, p))
                                .unwrap_or_else(|| v4_endpoint(conn.peer));
                            let server_ep = match &header {
                                ProxyHeader::Tcp4 { dst, .. } => Endpoint::new(dst.0, dst.1),
                                _ => v4_endpoint(self.config.origin),
                            };
                            open_relay(
                                &self.config,
                                &mut self.stats,
                                &mut self.report,
                                conn,
                                client_ep,
                                server_ep,
                                &leftover,
                                out,
                            );
                            return true;
                        }
                        Ok(None) => {
                            if buf.len() >= HANDSHAKE_CAP {
                                *self.rejects.entry("oversized").or_insert(0) += 1;
                                self.stats.source_drops += 1;
                                conn.dead = true;
                                return true;
                            }
                        }
                        Err(e) => {
                            *self.rejects.entry(e.reason()).or_insert(0) += 1;
                            self.stats.source_drops += 1;
                            conn.dead = true;
                            return true;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return progress,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.stats.source_drops += 1;
                    conn.dead = true;
                    return true;
                }
            }
        }
    }

    /// Advances one established relay. Returns whether bytes moved.
    fn advance_relay(&mut self, idx: usize, out: &mut Vec<HttpTransaction>) -> bool {
        let gate = matches!(self.config.policy, BackpressurePolicy::Block);
        let ts = sys::wall_clock();
        let conn = &mut self.conns[idx];
        let ConnState::Relay(relay) = &mut conn.state else { return false };
        let r = &mut **relay;
        let mut progress = false;

        // Client → origin.
        progress |= pump_direction(
            &mut conn.client,
            &mut r.client_eof,
            &mut r.origin,
            &mut r.origin_wr_shut,
            &mut r.to_origin,
            &mut r.tap,
            TapDir::Request,
            gate,
            &mut self.scratch,
            &mut self.stats,
            &mut self.report,
            out,
            ts,
        );
        // Origin → client.
        progress |= pump_direction(
            &mut r.origin,
            &mut r.origin_eof,
            &mut conn.client,
            &mut r.client_wr_shut,
            &mut r.to_client,
            &mut r.tap,
            TapDir::Response,
            gate,
            &mut self.scratch,
            &mut self.stats,
            &mut self.report,
            out,
            ts,
        );
        if r.tap.overflowed() && !r.overflow_counted {
            r.overflow_counted = true;
            self.stats.tap_overflows += 1;
        }
        if r.client_eof && r.origin_eof && r.to_origin.is_empty() && r.to_client.is_empty() {
            r.tap.close(&mut self.report, out);
            conn.dead = true;
            progress = true;
        }
        progress
    }

    /// Drops dead connections (their taps were already closed or never
    /// opened).
    fn reap(&mut self) {
        self.conns.retain(|c| !c.dead);
    }
}

/// Dials the origin and installs the relay state for one accepted
/// connection. `leftover` is any client bytes that followed the PROXY
/// preamble in the same read. A failed origin connect kills the
/// connection and counts a `source_drop`.
#[allow(clippy::too_many_arguments)]
fn open_relay(
    config: &ProxyConfig,
    stats: &mut SourceStats,
    report: &mut IngestReport,
    conn: &mut Conn,
    client_ep: Endpoint,
    server_ep: Endpoint,
    leftover: &[u8],
    out: &mut Vec<HttpTransaction>,
) {
    let origin = match TcpStream::connect_timeout(&config.origin, config.connect_timeout) {
        Ok(s) => s,
        Err(_) => {
            stats.source_drops += 1;
            conn.dead = true;
            return;
        }
    };
    let _ = origin.set_nonblocking(true);
    let _ = origin.set_nodelay(true);
    let _ = conn.client.set_nodelay(true);
    let mut relay = Box::new(Relay {
        origin,
        tap: ConnectionTap::new(client_ep, server_ep, config.tap),
        to_origin: Vec::new(),
        to_client: Vec::new(),
        client_eof: false,
        origin_eof: false,
        client_wr_shut: false,
        origin_wr_shut: false,
        overflow_counted: false,
    });
    if !leftover.is_empty() {
        stats.bytes_in += leftover.len() as u64;
        relay.tap.offer(TapDir::Request, leftover, sys::wall_clock(), report, out);
        relay.to_origin.extend_from_slice(leftover);
    }
    conn.state = ConnState::Relay(relay);
}

/// Moves bytes one direction: socket reads (tap-gated under `Block`),
/// tap observation, relay-buffer writes, and the half-close once the
/// reader hit EOF and the buffer drained. Returns whether anything
/// moved. Hard I/O failures degrade to EOF so the tap still flushes.
#[allow(clippy::too_many_arguments)]
fn pump_direction(
    from: &mut TcpStream,
    from_eof: &mut bool,
    to: &mut TcpStream,
    to_wr_shut: &mut bool,
    relay_buf: &mut Vec<u8>,
    tap: &mut ConnectionTap,
    dir: TapDir,
    gate_on_tap: bool,
    scratch: &mut [u8],
    stats: &mut SourceStats,
    report: &mut IngestReport,
    out: &mut Vec<HttpTransaction>,
    ts: f64,
) -> bool {
    let mut progress = false;
    for _ in 0..READS_PER_SLICE {
        if *from_eof {
            break;
        }
        let headroom = RELAY_BUF_CAP.saturating_sub(relay_buf.len());
        if headroom == 0 {
            break;
        }
        let mut want = headroom.min(READ_CHUNK);
        if gate_on_tap {
            let free = tap.free_space(dir);
            // free == 0 means a message is stuck mid-parse on a full
            // buffer and can never complete: offer one more burst so
            // the tap abandons observation instead of deadlocking.
            if free > 0 && free != usize::MAX {
                want = want.min(free);
            }
        }
        match from.read(&mut scratch[..want]) {
            Ok(0) => {
                *from_eof = true;
                progress = true;
            }
            Ok(n) => {
                progress = true;
                stats.bytes_in += n as u64;
                tap.offer(dir, &scratch[..n], ts, report, out);
                relay_buf.extend_from_slice(&scratch[..n]);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if is_disconnect(&e) => {
                *from_eof = true;
                progress = true;
            }
            Err(_) => {
                *from_eof = true;
                progress = true;
            }
        }
    }
    // Drain the relay buffer into the peer.
    while !relay_buf.is_empty() {
        match to.write(relay_buf) {
            Ok(0) => break,
            Ok(n) => {
                relay_buf.drain(..n);
                progress = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // Peer is gone: forwarding this direction is over.
                relay_buf.clear();
                *to_wr_shut = true;
                progress = true;
                break;
            }
        }
    }
    if *from_eof && relay_buf.is_empty() && !*to_wr_shut {
        let _ = to.shutdown(Shutdown::Write);
        *to_wr_shut = true;
        progress = true;
    }
    progress
}

impl TrafficSource for ProxySource {
    fn pump(&mut self, out: &mut Vec<HttpTransaction>) -> nettrace::Result<PumpOutcome> {
        if self.listener.is_none() && self.conns.is_empty() {
            return Ok(PumpOutcome::Exhausted);
        }
        let before = out.len();
        let mut progress = self.accept_pending(out)?;
        for idx in 0..self.conns.len() {
            if self.conns[idx].dead {
                continue;
            }
            progress |= match self.conns[idx].state {
                ConnState::Handshake(_) => self.advance_handshake(idx, out),
                ConnState::Relay(_) => self.advance_relay(idx, out),
            };
        }
        self.reap();
        self.stats.transactions += (out.len() - before) as u64;
        if progress {
            Ok(PumpOutcome::Progress)
        } else if self.listener.is_none() && self.conns.is_empty() {
            Ok(PumpOutcome::Exhausted)
        } else {
            Ok(PumpOutcome::Idle)
        }
    }

    fn shutdown(&mut self, out: &mut Vec<HttpTransaction>) {
        if self.listener.take().is_none() && self.conns.is_empty() {
            return;
        }
        let before = out.len();
        // One last non-blocking sweep drains whatever the kernel
        // already buffered, then every tap flushes with end-of-stream
        // semantics (status-0 for unanswered requests).
        for idx in 0..self.conns.len() {
            if self.conns[idx].dead {
                continue;
            }
            match self.conns[idx].state {
                ConnState::Handshake(_) => {
                    self.advance_handshake(idx, out);
                }
                ConnState::Relay(_) => {
                    self.advance_relay(idx, out);
                }
            }
        }
        for conn in &mut self.conns {
            if let ConnState::Relay(relay) = &mut conn.state {
                relay.tap.close(&mut self.report, out);
            }
        }
        self.conns.clear();
        self.stats.transactions += (out.len() - before) as u64;
    }

    fn stats(&self) -> SourceStats {
        self.stats
    }

    fn ingest_report(&self) -> IngestReport {
        let mut report = IngestReport::new();
        report.merge(&self.report);
        report
    }

    fn wait(&mut self, ms: u32) {
        let mut fds = Vec::with_capacity(1 + self.conns.len() * 2);
        if let Some(listener) = &self.listener {
            fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
        }
        for conn in &self.conns {
            match &conn.state {
                ConnState::Handshake(_) => {
                    fds.push(PollFd::new(conn.client.as_raw_fd(), POLLIN));
                }
                ConnState::Relay(relay) => {
                    let mut client_ev = 0i16;
                    if !relay.client_eof && relay.to_origin.len() < RELAY_BUF_CAP {
                        client_ev |= POLLIN;
                    }
                    if !relay.to_client.is_empty() {
                        client_ev |= POLLOUT;
                    }
                    if client_ev != 0 {
                        fds.push(PollFd::new(conn.client.as_raw_fd(), client_ev));
                    }
                    let mut origin_ev = 0i16;
                    if !relay.origin_eof && relay.to_client.len() < RELAY_BUF_CAP {
                        origin_ev |= POLLIN;
                    }
                    if !relay.to_origin.is_empty() {
                        origin_ev |= POLLOUT;
                    }
                    if origin_ev != 0 {
                        fds.push(PollFd::new(relay.origin.as_raw_fd(), origin_ev));
                    }
                }
            }
        }
        if fds.is_empty() {
            std::thread::sleep(Duration::from_millis(u64::from(ms)));
            return;
        }
        let _ = sys::poll_fds(&mut fds, ms as i32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::ErrorKind;
    use std::sync::mpsc;
    use std::thread;

    const REQUEST: &[u8] = b"GET /landing HTTP/1.1\r\nHost: example.test\r\n\r\n";

    fn canned_response(body_len: usize) -> Vec<u8> {
        let mut resp = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: {body_len}\r\n\r\n"
        )
        .into_bytes();
        resp.extend(std::iter::repeat_n(b'x', body_len));
        resp
    }

    /// A one-connection origin: reads a request head, then writes
    /// `resp` — or, when `hold` is given, withholds the response until
    /// the channel fires (for mid-stream shutdown tests).
    fn one_shot_origin(
        resp: Vec<u8>,
        hold: Option<mpsc::Receiver<()>>,
    ) -> (SocketAddr, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = thread::spawn(move || {
            let Ok((mut sock, _)) = listener.accept() else { return };
            sock.set_read_timeout(Some(Duration::from_secs(5))).ok();
            let mut head = Vec::new();
            let mut buf = [0u8; 4096];
            loop {
                match sock.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        head.extend_from_slice(&buf[..n]);
                        if head.windows(4).any(|w| w == b"\r\n\r\n") {
                            break;
                        }
                    }
                }
            }
            if let Some(rx) = hold {
                let _ = rx.recv_timeout(Duration::from_secs(10));
                return;
            }
            let _ = sock.write_all(&resp);
        });
        (addr, handle)
    }

    fn bind_proxy(config: ProxyConfig) -> ProxySource {
        ProxySource::bind("127.0.0.1:0".parse().unwrap(), config).unwrap()
    }

    fn pump_until(
        src: &mut ProxySource,
        out: &mut Vec<HttpTransaction>,
        mut done: impl FnMut(&ProxySource, &[HttpTransaction]) -> bool,
    ) {
        for _ in 0..5_000 {
            if done(src, out) {
                return;
            }
            src.pump(out).expect("pump");
            thread::sleep(Duration::from_millis(1));
        }
        panic!("pump condition never reached");
    }

    /// Pumps the proxy while draining the client socket, until `want`
    /// response bytes (then EOF tolerated) have arrived.
    fn relay_read(
        src: &mut ProxySource,
        out: &mut Vec<HttpTransaction>,
        client: &mut TcpStream,
        want: usize,
    ) -> Vec<u8> {
        client.set_nonblocking(true).unwrap();
        let mut got = Vec::new();
        let mut buf = [0u8; 4096];
        for _ in 0..5_000 {
            src.pump(out).expect("pump");
            match client.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => got.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => panic!("client read: {e}"),
            }
            if got.len() >= want {
                return got;
            }
            thread::sleep(Duration::from_millis(1));
        }
        got
    }

    #[test]
    fn relays_one_transaction_and_taps_it() {
        let resp = canned_response(5);
        let (origin, origin_thread) = one_shot_origin(resp.clone(), None);
        let mut src = bind_proxy(ProxyConfig::new(origin));
        let mut out = Vec::new();

        let mut client = TcpStream::connect(src.local_addr()).unwrap();
        client.write_all(REQUEST).unwrap();
        let got = relay_read(&mut src, &mut out, &mut client, resp.len());
        assert_eq!(got, resp, "relay altered the bytes");

        drop(client);
        pump_until(&mut src, &mut out, |s, _| s.active_connections() == 0);
        origin_thread.join().unwrap();

        assert_eq!(out.len(), 1);
        let tx = &out[0];
        assert_eq!(tx.host, "example.test");
        assert_eq!(tx.uri, "/landing");
        assert_eq!(tx.status, 200);
        assert_eq!(src.stats().transactions, 1);
        assert_eq!(src.stats().connections, 1);
        assert_eq!(src.stats().source_drops, 0);
    }

    #[test]
    fn connection_arriving_during_a_relay_is_accepted_by_the_next_pump() {
        let (release_tx, release_rx) = mpsc::channel();
        let (origin, origin_thread) = one_shot_origin(Vec::new(), Some(release_rx));
        let mut src = bind_proxy(ProxyConfig::new(origin));
        let mut out = Vec::new();

        let mut first = TcpStream::connect(src.local_addr()).unwrap();
        first.write_all(REQUEST).unwrap();
        pump_until(&mut src, &mut out, |s, _| s.stats().bytes_in >= REQUEST.len() as u64);
        assert_eq!(src.active_connections(), 1);
        // With the relay idle (its origin withholds the answer), only the
        // listener can wake the wait below.
        let second = TcpStream::connect(src.local_addr()).unwrap();
        src.wait(5_000);
        assert_eq!(src.pump(&mut out).expect("pump"), PumpOutcome::Progress);
        assert_eq!(src.active_connections(), 2, "the queued connection was accepted");
        assert_eq!(src.stats().connections, 2);
        assert_eq!(src.stats().source_drops, 0);

        src.shutdown(&mut out);
        release_tx.send(()).ok();
        drop((first, second));
        origin_thread.join().unwrap();
    }

    #[test]
    fn proxy_protocol_v1_preserves_client_endpoint() {
        let resp = canned_response(5);
        let (origin, origin_thread) = one_shot_origin(resp.clone(), None);
        let mut config = ProxyConfig::new(origin);
        config.proxy_protocol = true;
        let mut src = bind_proxy(config);
        let mut out = Vec::new();

        let true_client = (Ipv4Addr::new(198, 51, 100, 7), 40001u16);
        let true_server = (Ipv4Addr::new(203, 0, 113, 9), 80u16);
        let mut client = TcpStream::connect(src.local_addr()).unwrap();
        client.write_all(&proxyproto::encode_v1_tcp4(true_client, true_server)).unwrap();
        client.write_all(REQUEST).unwrap();
        let got = relay_read(&mut src, &mut out, &mut client, resp.len());
        assert_eq!(got, resp, "PROXY preamble leaked into the relay");

        drop(client);
        pump_until(&mut src, &mut out, |s, _| s.active_connections() == 0);
        origin_thread.join().unwrap();

        assert_eq!(out.len(), 1);
        let tx = &out[0];
        assert_eq!((tx.client.addr, tx.client.port), true_client);
        assert_eq!((tx.server.addr, tx.server.port), true_server);
    }

    #[test]
    fn malformed_proxy_preamble_fails_closed() {
        let (origin, origin_thread) = one_shot_origin(Vec::new(), None);
        let mut config = ProxyConfig::new(origin);
        config.proxy_protocol = true;
        let mut src = bind_proxy(config);
        let mut out = Vec::new();

        let mut client = TcpStream::connect(src.local_addr()).unwrap();
        // Plain HTTP where a PROXY preamble is required.
        client.write_all(REQUEST).unwrap();
        pump_until(&mut src, &mut out, |s, _| s.stats().source_drops >= 1);
        pump_until(&mut src, &mut out, |s, _| s.active_connections() == 0);

        assert_eq!(src.proxyproto_rejects().get("bad_signature").copied(), Some(1));
        assert_eq!(src.stats().source_drops, 1);
        // The TCP connection itself was observed; the drop counter
        // records that it produced nothing.
        assert_eq!(src.stats().connections, 1);
        assert!(out.is_empty());

        // The client side was closed, not forwarded.
        client.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 16];
        assert!(matches!(client.read(&mut buf), Ok(0) | Err(_)));
        drop(client);
        // Unblock the origin thread (it never saw a connection).
        TcpStream::connect(origin).unwrap();
        origin_thread.join().unwrap();
    }

    #[test]
    fn shutdown_mid_stream_flushes_unanswered_request() {
        let (release_tx, release_rx) = mpsc::channel();
        let (origin, origin_thread) = one_shot_origin(Vec::new(), Some(release_rx));
        let mut src = bind_proxy(ProxyConfig::new(origin));
        let mut out = Vec::new();

        let mut client = TcpStream::connect(src.local_addr()).unwrap();
        client.write_all(REQUEST).unwrap();
        pump_until(&mut src, &mut out, |s, _| s.stats().bytes_in >= REQUEST.len() as u64);

        src.shutdown(&mut out);
        assert_eq!(src.active_connections(), 0);
        assert_eq!(out.len(), 1, "in-flight request must drain on shutdown");
        assert_eq!(out[0].host, "example.test");
        assert_eq!(out[0].status, 0, "unanswered request carries status 0");
        assert_eq!(src.stats().transactions, 1);

        release_tx.send(()).ok();
        drop(client);
        origin_thread.join().unwrap();
    }

    #[test]
    fn shutdown_closes_the_listener() {
        let mut src = bind_proxy(ProxyConfig::new("127.0.0.1:9".parse().unwrap()));
        let addr = src.local_addr();
        // Queued by the kernel, never accepted: shutdown resets it.
        let mut queued = TcpStream::connect(addr).unwrap();
        let mut out = Vec::new();
        src.shutdown(&mut out);
        queued.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let read = queued.read(&mut [0u8; 16]);
        let waited = read
            .as_ref()
            .is_err_and(|e| matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut));
        assert!(!waited, "a queued client waited out its read timeout: {read:?}");
        let refused = TcpStream::connect(addr).expect_err("connect after shutdown");
        assert_eq!(refused.kind(), ErrorKind::ConnectionRefused);
        assert_eq!(src.pump(&mut out).expect("pump"), PumpOutcome::Exhausted);
        assert!(out.is_empty());
    }

    #[test]
    fn drop_newest_overflow_keeps_relay_intact() {
        let resp = canned_response(8 * 1024);
        let (origin, origin_thread) = one_shot_origin(resp.clone(), None);
        let mut config = ProxyConfig::new(origin);
        config.policy = BackpressurePolicy::DropNewest;
        config.tap = TapConfig { capacity: 512, honor_replay_ts: false };
        let mut src = bind_proxy(config);
        let mut out = Vec::new();

        let mut client = TcpStream::connect(src.local_addr()).unwrap();
        client.write_all(REQUEST).unwrap();
        let got = relay_read(&mut src, &mut out, &mut client, resp.len());
        assert_eq!(got.len(), resp.len(), "overflow must not cost relayed bytes");
        assert_eq!(got, resp);

        drop(client);
        pump_until(&mut src, &mut out, |s, _| s.active_connections() == 0);
        origin_thread.join().unwrap();

        assert_eq!(src.stats().tap_overflows, 1, "abandoned observation goes uncounted");
        assert!(out.is_empty(), "observation was abandoned, not salvaged");
    }
}
