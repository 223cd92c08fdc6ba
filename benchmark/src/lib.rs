//! The repo benchmark (see `README.md` in this directory).
//!
//! Five seeded workloads drive the crates' public functions from the
//! outside: [`pcap`] replays generated captures through
//! `dynaminer::forensic::analyze_pcap_lenient`, [`stream`] feeds a
//! transaction stream to `streamd::StreamEngine`, and [`wire`] pushes
//! real loopback connections through `wirefront::ProxySource`. Every
//! output is checked against a reference computed here. The `wirebench`
//! binary reports the end-to-end metrics with tracing off; the
//! `wirebench-traced` binary re-runs the workload stage by stage behind
//! a counting allocator and reports the per-layer metrics.

pub mod check;
pub mod cli;
pub mod env;
pub mod gen;
pub mod layers;
pub mod loadgen;
pub mod metrics;
pub mod pcap;
pub mod stats;
pub mod stream;
pub mod trace;
pub mod wire;
