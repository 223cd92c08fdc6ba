//! Real-wire ingress for DynaMiner: the front end that turns actual
//! network traffic into the digested [`HttpTransaction`] stream the
//! detection engine consumes.
//!
//! Two traffic sources implement the
//! [`TrafficSource`](nettrace::source::TrafficSource) abstraction:
//!
//! * [`capture::CaptureSource`] — passive observation. Reads whole L2
//!   frames either from a live `AF_PACKET` socket (Linux,
//!   `CAP_NET_RAW`) or by tailing a growing pcap file (portable; also
//!   the offline-replay bridge), reassembles each TCP flow in order
//!   with a bounded out-of-order buffer, and feeds both directions
//!   through a [`wiretap`](nettrace::wiretap) connection tap.
//! * [`proxy::ProxySource`] — inline interception. A `poll(2)`-driven
//!   non-blocking HTTP forward proxy that relays bytes between clients
//!   and an origin while a tap observes the relayed stream. Optional
//!   HAProxy PROXY-protocol (v1/v2) handshakes preserve the true
//!   client address through load balancers, so shard partitioning and
//!   per-client detector state key on the real client.
//!
//! Both sources synthesize transactions through the *same*
//! `synthesize_transaction`
//! path the offline pcap pipeline uses — parity by construction: a
//! conversation observed on the wire produces byte-identical
//! transactions (and therefore identical alerts and forensics) to the
//! same conversation extracted from a capture file. The loopback
//! parity suite in `tests/wire_loopback.rs` of the facade crate holds
//! this equivalence under test.
//!
//! [`run::run`] is the loop joining a source to a
//! [`StreamEngine`](streamd::StreamEngine): feed-order sequence
//! numbering, download ledger, snapshots at an exact cadence, model
//! hot-reload, and a zero-loss graceful drain on `SIGTERM`/`SIGINT`
//! (`enqueued == processed + dropped` over everything the source ever
//! emitted). A recorded capture (`dynaminer replay`) does not come
//! through here: it replays per client group
//! (`dynaminer::forensic::replay_capture`). The `wire_*` series
//! ([`metrics`]) are published by the owner of the concrete source, not
//! by the loop. [`sys`] is the thin raw-syscall layer (`poll(2)`,
//! signal latch, `AF_PACKET`) that keeps the crate dependency-free.
//!
//! [`HttpTransaction`]: nettrace::transaction::HttpTransaction

pub mod capture;
pub mod metrics;
pub mod proxy;
pub mod run;
pub mod sys;

pub use capture::{CaptureConfig, CaptureSource};
pub use proxy::{ProxyConfig, ProxySource};
pub use run::{run, RunOptions, RunSummary, SnapshotSink};
