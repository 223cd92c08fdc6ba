//! Packet-capture substrate for the DynaMiner reproduction.
//!
//! This crate implements, from scratch, everything needed to go from raw
//! packet-capture bytes to paired HTTP transactions:
//!
//! * [`pcap`], [`pcapng`] — the capture formats: one record walker each,
//!   which reports why and where it stopped instead of failing, and
//!   [`capture`] to accept either by magic,
//! * [`ether`], [`ipv4`], [`tcp`] — parsing and building the packet layers,
//! * [`reassembly`] — ordering TCP segments into per-direction byte streams
//!   by span, without copying them out of the capture,
//! * [`http`] — incremental HTTP/1.1 request/response parsing, including
//!   `Content-Length` and chunked bodies,
//! * [`transaction`] — pairing requests with responses into
//!   [`HttpTransaction`]s, the unit every downstream DynaMiner component
//!   consumes; [`SpanPipeline`] is the one capture → transaction path,
//! * [`payload`] — payload-type classification from URI extension,
//!   `Content-Type`, and magic bytes, including the 45 ransomware file
//!   extensions the paper matches against,
//! * [`ingest`] — per-layer health counters ([`IngestReport`]): the
//!   lenient policy's account of what a hostile or damaged capture cost,
//!   published as telemetry counters by [`ingest::publish`]. The strict
//!   policy reads the same run and returns its first framing or
//!   HTTP-syntax stop as an [`Error`] instead.
//!
//! # Example
//!
//! ```
//! use nettrace::pcap::{self, Packet};
//! use nettrace::{IngestReport, SpanPipeline};
//!
//! # fn main() -> Result<(), nettrace::Error> {
//! let capture = pcap::write_packets(&[Packet::new(1.5, vec![0xde, 0xad])]);
//! assert_eq!(nettrace::capture::read_packets(&capture)?[0].data, [0xde, 0xad]);
//!
//! // One pipeline, two policies over the same run.
//! let mut report = IngestReport::new();
//! let salvaged = SpanPipeline::extract_capture_lenient(&capture, &mut report);
//! assert_eq!(report.packets_dropped_decode, 1); // two bytes are no Ethernet frame
//! assert_eq!(SpanPipeline::extract_capture_strict(&capture)?, salvaged);
//! # Ok(())
//! # }
//! ```

pub mod arena;
pub mod base64;
pub mod capture;
pub mod ether;
pub mod flate;
pub mod http;
pub mod ingest;
pub mod ipv4;
pub mod payload;
pub mod pcap;
pub mod pcapng;
pub mod proxyproto;
pub mod reassembly;
pub mod scan;
pub mod source;
pub mod tcp;
pub mod transaction;
pub mod wiretap;

mod error;

pub use error::Error;
pub use ingest::IngestReport;
pub use transaction::{assign_seq, feed_order, HttpTransaction, SpanPipeline};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;
