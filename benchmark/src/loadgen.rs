//! The `wire_proxy` load generator: one thread that is both the origin
//! server and a fixed number of closed-loop client slots.
//!
//! Everything runs on non-blocking sockets behind one `poll(2)` — no
//! sleeps, no second thread — so the generator's own cost is one
//! thread's CPU, reported beside the results. A slot takes the next
//! client, replays that client's transactions in order over keep-alive
//! connections of at most [`PER_CONNECTION`] exchanges each, and only
//! then takes another client: the loop is closed and the concurrency is
//! the slot count. Responses are compared byte for byte with what the
//! origin was told to send.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use nettrace::wiretap::REPLAY_ID_HEADER;
use wirefront::sys::{poll_fds, PollFd, POLLIN, POLLOUT};

/// Exchanges one connection carries before the client closes it.
pub const PER_CONNECTION: usize = 8;

/// One request/response pair, rendered ahead of time. The request names
/// its own index in an `X-Replay-Id` header; the origin answers by it.
/// No response means the origin hangs up instead of answering (the
/// generator's dead C&C hosts), which ends the connection.
pub struct Exchange {
    pub request: Vec<u8>,
    pub response: Option<Vec<u8>>,
}

/// One client connection: its PROXY-protocol preamble and the exchanges
/// it carries, in order.
pub struct Connection {
    pub preamble: Vec<u8>,
    pub exchanges: Range<usize>,
}

/// Everything the generator will drive.
pub struct Plan {
    pub exchanges: Vec<Exchange>,
    pub connections: Vec<Connection>,
    /// Each client's connections, as a range into `connections`.
    pub clients: Vec<Range<usize>>,
}

/// What one drive observed.
pub struct Driven {
    /// Request written → last response byte read, per exchange.
    pub rtt_ns: Vec<u64>,
    pub completed: u64,
    pub failed: u64,
    pub connections: u64,
    pub bytes: u64,
    /// CPU time of the generator thread.
    pub cpu_ns: u64,
    pub wall_ns: u64,
}

/// A socket with bytes still to be written to it.
struct Outbox {
    buf: Vec<u8>,
    sent: usize,
}

impl Outbox {
    fn new() -> Self {
        Outbox {
            buf: Vec::new(),
            sent: 0,
        }
    }

    fn pending(&self) -> bool {
        self.sent < self.buf.len()
    }

    /// Writes as much as the socket takes; `Err` means the peer is gone.
    fn flush(&mut self, stream: &mut TcpStream) -> io::Result<()> {
        while self.pending() {
            match stream.write(&self.buf[self.sent..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.sent = 0;
        Ok(())
    }
}

/// One accepted origin-side connection.
struct OriginConn {
    stream: TcpStream,
    inbox: Vec<u8>,
    outbox: Outbox,
    closed: bool,
}

impl OriginConn {
    /// Reads what arrived, answers every complete request head by its
    /// replay id, and writes what the socket takes.
    fn service(&mut self, plan: &Plan, scratch: &mut [u8]) {
        loop {
            match self.stream.read(scratch) {
                Ok(0) => {
                    self.closed = true;
                    return;
                }
                Ok(n) => self.inbox.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.closed = true;
                    return;
                }
            }
        }
        while let Some(end) = self.inbox.windows(4).position(|w| w == b"\r\n\r\n") {
            let exchange = replay_id(&self.inbox[..end]).and_then(|id| plan.exchanges.get(id));
            match exchange.and_then(|e| e.response.as_ref()) {
                Some(response) => self.outbox.buf.extend_from_slice(response),
                None => self.closed = true,
            }
            self.inbox.drain(..end + 4);
        }
        if self.outbox.flush(&mut self.stream).is_err() {
            self.closed = true;
        }
    }
}

/// The `X-Replay-Id` of a request head.
fn replay_id(head: &[u8]) -> Option<usize> {
    let text = std::str::from_utf8(head).ok()?;
    text.split("\r\n")
        .find_map(|line| line.strip_prefix(REPLAY_ID_HEADER)?.strip_prefix(':'))
        .and_then(|v| v.trim().parse().ok())
}

/// One closed-loop client slot.
struct Slot {
    /// Connections of the client this slot is replaying, still to open.
    todo: Range<usize>,
    conn: Option<ClientConn>,
}

struct ClientConn {
    stream: TcpStream,
    outbox: Outbox,
    /// Exchanges still to run on this connection; `start` is in flight.
    exchanges: Range<usize>,
    received: usize,
    sent_at: Instant,
}

/// Outcome of servicing a client connection.
enum Step {
    Open,
    Done,
    Failed,
}

impl ClientConn {
    fn open(
        target: SocketAddr,
        conn: &Connection,
        plan: &Plan,
        announce: bool,
    ) -> io::Result<ClientConn> {
        // A loopback connect completes in the kernel against the
        // listener's backlog, so this does not wait on the peer's loop.
        let stream = TcpStream::connect(target)?;
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        let mut c = ClientConn {
            stream,
            outbox: Outbox::new(),
            exchanges: conn.exchanges.clone(),
            received: 0,
            sent_at: Instant::now(),
        };
        if announce {
            c.outbox.buf.extend_from_slice(&conn.preamble);
        }
        c.send_current(plan)?;
        Ok(c)
    }

    fn send_current(&mut self, plan: &Plan) -> io::Result<()> {
        self.outbox
            .buf
            .extend_from_slice(&plan.exchanges[self.exchanges.start].request);
        self.received = 0;
        self.sent_at = Instant::now();
        self.outbox.flush(&mut self.stream)
    }

    fn service(&mut self, plan: &Plan, scratch: &mut [u8], out: &mut Driven) -> Step {
        if self.outbox.flush(&mut self.stream).is_err() {
            return Step::Failed;
        }
        loop {
            let expected: &[u8] = plan.exchanges[self.exchanges.start]
                .response
                .as_deref()
                .unwrap_or(&[]);
            match self.stream.read(scratch) {
                // A hang-up is the answer when none was planned, and a failure otherwise.
                Ok(0) if expected.is_empty() && self.exchanges.len() == 1 => {
                    out.rtt_ns.push(self.sent_at.elapsed().as_nanos() as u64);
                    out.completed += 1;
                    return Step::Done;
                }
                Ok(0) => return Step::Failed,
                Ok(n) => {
                    let end = self.received + n;
                    if end > expected.len() || scratch[..n] != expected[self.received..end] {
                        return Step::Failed;
                    }
                    self.received = end;
                    out.bytes += n as u64;
                    if end < expected.len() {
                        continue;
                    }
                    out.rtt_ns.push(self.sent_at.elapsed().as_nanos() as u64);
                    out.completed += 1;
                    self.exchanges.start += 1;
                    if self.exchanges.is_empty() {
                        return Step::Done;
                    }
                    if self.send_current(plan).is_err() {
                        return Step::Failed;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Step::Open,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Step::Failed,
            }
        }
    }
}

/// Serves `origin` and drives `plan` at `target` (a proxy in front of
/// `origin`, or `origin` itself for the no-proxy baseline) from `slots`
/// closed-loop slots, until every client is replayed; `announce` sends
/// each connection's PROXY preamble first. Gives up, failing what is
/// left, if nothing completes for `STALL`.
pub fn drive(
    origin: &TcpListener,
    target: SocketAddr,
    plan: &Plan,
    slots: usize,
    announce: bool,
) -> Driven {
    const STALL: Duration = Duration::from_secs(20);
    origin
        .set_nonblocking(true)
        .expect("non-blocking origin listener");
    let started = Instant::now();
    let cpu_started = telemetry::thread_cpu_ns();
    let total: u64 = plan.exchanges.len() as u64;
    let mut out = Driven {
        rtt_ns: Vec::with_capacity(plan.exchanges.len()),
        completed: 0,
        failed: 0,
        connections: 0,
        bytes: 0,
        cpu_ns: 0,
        wall_ns: 0,
    };
    let mut scratch = vec![0u8; 64 << 10];
    let mut origins: Vec<OriginConn> = Vec::new();
    let mut slots: Vec<Slot> = (0..slots.max(1))
        .map(|_| Slot {
            todo: 0..0,
            conn: None,
        })
        .collect();
    let mut next_client = 0usize;
    let mut fds: Vec<PollFd> = Vec::new();
    let mut last_progress = Instant::now();
    let mut seen = 0u64;

    loop {
        // Closed loop: an idle slot opens its client's next connection,
        // or moves on to the next client.
        for slot in &mut slots {
            while slot.conn.is_none() {
                if slot.todo.is_empty() {
                    let Some(client) = plan.clients.get(next_client) else {
                        break;
                    };
                    slot.todo = client.clone();
                    next_client += 1;
                    continue;
                }
                let conn = &plan.connections[slot.todo.start];
                slot.todo.start += 1;
                out.connections += 1;
                match ClientConn::open(target, conn, plan, announce) {
                    Ok(c) => slot.conn = Some(c),
                    Err(_) => out.failed += conn.exchanges.len() as u64,
                }
            }
        }
        if slots.iter().all(|s| s.conn.is_none()) {
            break;
        }
        if out.completed + out.failed != seen {
            seen = out.completed + out.failed;
            last_progress = Instant::now();
        } else if last_progress.elapsed() > STALL {
            break;
        }

        fds.clear();
        fds.push(PollFd::new(origin.as_raw_fd(), POLLIN));
        for o in &origins {
            let events = if o.outbox.pending() {
                POLLIN | POLLOUT
            } else {
                POLLIN
            };
            fds.push(PollFd::new(o.stream.as_raw_fd(), events));
        }
        let first_slot = fds.len();
        for slot in &slots {
            // A negative fd is a hole in the set: the slot keeps its index.
            fds.push(match &slot.conn {
                Some(c) => PollFd::new(
                    c.stream.as_raw_fd(),
                    if c.outbox.pending() {
                        POLLIN | POLLOUT
                    } else {
                        POLLIN
                    },
                ),
                None => PollFd::new(-1, 0),
            });
        }
        if poll_fds(&mut fds, 1000).is_err() {
            break;
        }

        for (o, fd) in origins.iter_mut().zip(&fds[1..first_slot]) {
            if fd.revents != 0 {
                o.service(plan, &mut scratch);
            }
        }
        origins.retain(|o| !o.closed);
        if fds[0].revents != 0 {
            while let Ok((stream, _)) = origin.accept() {
                if stream.set_nonblocking(true).is_ok() {
                    let _ = stream.set_nodelay(true);
                    let mut conn = OriginConn {
                        stream,
                        inbox: Vec::new(),
                        outbox: Outbox::new(),
                        closed: false,
                    };
                    conn.service(plan, &mut scratch); // the request is usually already there
                    origins.push(conn);
                }
            }
        }
        for (slot, fd) in slots.iter_mut().zip(&fds[first_slot..]) {
            if fd.revents == 0 {
                continue;
            }
            let Some(conn) = &mut slot.conn else { continue };
            match conn.service(plan, &mut scratch, &mut out) {
                Step::Open => {}
                Step::Done => slot.conn = None,
                Step::Failed => {
                    out.failed += conn.exchanges.len() as u64;
                    slot.conn = None;
                }
            }
        }
    }
    // Whatever did not complete failed, however it got there.
    out.failed = total - out.completed;
    out.cpu_ns = telemetry::thread_cpu_ns().saturating_sub(cpu_started);
    out.wall_ns = started.elapsed().as_nanos() as u64;
    out
}
