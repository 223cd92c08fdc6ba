//! `pcap_bulk` and `pcap_lossy`: a merged capture file through
//! `dynaminer::forensic::analyze_pcap_lenient`.
//!
//! Both workloads time the same call. `pcap_bulk` hands it a clean
//! capture of large bodies, so the bytes decide the cost; `pcap_lossy`
//! hands it small bodies on keep-alive connections with one episode in
//! three damaged, so the packets and the salvage paths do.

use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::path::Path;
use std::time::Instant;

use dynaminer::forensic::{analyze_pcap_lenient, analyze_transactions};
use nettrace::arena::{subslice_range, PacketSpan};
use nettrace::ether::{EtherFrame, ETHERTYPE_IPV4};
use nettrace::ipv4::{Ipv4Packet, PROTO_TCP};
use nettrace::reassembly::{Endpoint, FlowKey, SpanReassembler, StreamBuf};
use nettrace::source::{PumpOutcome, TrafficSource};
use nettrace::tcp::TcpSegment;
use nettrace::transaction::{fnv1a_many, MAX_DECODED_BODY_BYTES};
use nettrace::{HttpTransaction, IngestReport, SpanPipeline};
use wirefront::{CaptureConfig, CaptureSource};

use crate::check::{detector_config, replay_borrowed, report_digest, Verdict};
use crate::gen::{self, Capture, Model};
use crate::layers::fastest;
use crate::metrics::{repeat_for, timed, Layers, Passes};
use crate::stats;
use crate::trace::Tracer;

/// Which of the two capture workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Bulk,
    Lossy,
}

/// `pcap_bulk` capture size.
const BULK_BYTES: usize = 128 << 20;
/// Transactions in the `pcap_bulk` capture (so ~52 KB each).
const BULK_TRANSACTIONS: usize = 2560;
/// Episodes generated for `pcap_bulk`; the capture takes a prefix.
const BULK_EPISODES: usize = 512;
/// Episodes in the `pcap_lossy` capture (about 32 MiB).
const LOSSY_EPISODES: usize = 1280;

pub struct Inputs {
    pub model: Model,
    pub capture: Capture,
    pub generate_s: f64,
    pub render_s: f64,
}

/// Generates the episodes (2 % infections) and renders the capture.
pub fn setup(seed: u64, kind: Kind) -> Inputs {
    let model = gen::fit_model(seed);
    let t = Instant::now();
    let episodes = match kind {
        Kind::Bulk => BULK_EPISODES,
        Kind::Lossy => LOSSY_EPISODES,
    };
    let corpus = gen::corpus(seed, episodes, episodes / 50);
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let capture = match kind {
        Kind::Bulk => gen::bulk_capture(seed, &corpus, BULK_TRANSACTIONS, BULK_BYTES),
        Kind::Lossy => gen::lossy_capture(seed, &corpus, LOSSY_EPISODES),
    };
    Inputs {
        model,
        capture,
        generate_s,
        render_s: t.elapsed().as_secs_f64(),
    }
}

/// The first field in which two transactions differ.
fn first_difference(got: &HttpTransaction, want: &HttpTransaction) -> &'static str {
    if got.ts != want.ts || got.resp_ts != want.resp_ts {
        "timestamps"
    } else if got.client != want.client || got.server != want.server {
        "endpoints"
    } else if got.host != want.host || got.uri != want.uri || got.method != want.method {
        "request line"
    } else if got.status != want.status {
        "status"
    } else if got.payload_digest != want.payload_digest || got.payload_size != want.payload_size {
        "body digest"
    } else if got.payload_class != want.payload_class {
        "payload class"
    } else if got.body_preview != want.body_preview {
        "body preview"
    } else if got.req_headers != want.req_headers || got.resp_headers != want.resp_headers {
        "headers"
    } else {
        "sequence number"
    }
}

/// What the checks need from one reference extraction.
struct Reference {
    ingest: IngestReport,
    digest: u64,
    extracted: Vec<HttpTransaction>,
}

/// Extracts the capture once and holds it against the generator's
/// record: every expected transaction must come back field for field
/// (`pcap_bulk`: all of them, in order; `pcap_lossy`: all of the
/// undamaged episodes'). Also fixes the verdicts a pass must reproduce.
fn reference(inputs: &Inputs, kind: Kind, verdict: &mut Verdict) -> Reference {
    let capture = &inputs.capture;
    let mut ingest = IngestReport::new();
    let extracted = SpanPipeline::extract_capture_lenient(&capture.bytes, &mut ingest);
    // Exchanges of one keep-alive connection share a client port; request
    // times are unique across the corpus.
    let by_client: HashMap<(Ipv4Addr, u64), &HttpTransaction> = extracted
        .iter()
        .map(|t| ((t.client.addr, t.ts.to_bits()), t))
        .collect();
    let mut wrong = 0u64;
    let mut first = None;
    for want in &capture.expected {
        let why = match by_client.get(&(want.client.addr, want.ts.to_bits())) {
            None => "missing",
            Some(got) if kind == Kind::Lossy => {
                // Survivors of damaged episodes shift the numbering.
                let mut want = want.clone();
                want.seq = got.seq;
                if **got == want {
                    continue;
                } else {
                    first_difference(got, &want)
                }
            }
            Some(got) if *got == want => continue,
            Some(got) => first_difference(got, want),
        };
        wrong += 1;
        first.get_or_insert((why, want.host.clone(), want.uri.clone()));
    }
    verdict.record(capture.expected.len() as u64, wrong, || {
        let (why, host, uri) = first.expect("a failure was recorded");
        format!("{wrong} generated transactions not recovered; first: {why} of {host}{uri}")
    });
    let config = detector_config();
    let digest = match kind {
        Kind::Bulk => {
            verdict.require(
                extracted.len() == capture.expected.len() && !ingest.has_loss(),
                || format!("clean capture decoded with loss: {ingest}"),
            );
            report_digest(&analyze_transactions(
                &capture.expected,
                inputs.model.classifier.clone(),
                config,
            ))
        }
        Kind::Lossy => {
            // Nothing but what the generator sent may turn up on an
            // undamaged episode's connections. (By address alone it can:
            // a bit flipped in a damaged packet's source address makes
            // a request from the client next door.)
            let connections: HashSet<(Endpoint, Endpoint)> = capture
                .expected
                .iter()
                .map(|t| (t.client, t.server))
                .collect();
            let seen = extracted
                .iter()
                .filter(|t| connections.contains(&(t.client, t.server)))
                .count();
            verdict.require(seen == capture.expected.len(), || {
                format!(
                    "{seen} transactions on the undamaged episodes' connections, generated {}",
                    capture.expected.len()
                )
            });
            require_damage(capture, &ingest, verdict);
            report_digest(&analyze_transactions(
                &extracted,
                inputs.model.classifier.clone(),
                config,
            ))
        }
    };
    Reference {
        ingest,
        digest,
        extracted,
    }
}

/// Share of `pcap_lossy`'s streams that must have more than one segment
/// (so reassembly copies them) or show damage, at the least.
const LOSSY_MIN_GATHERED_SHARE: f64 = 0.5;
const LOSSY_MIN_DAMAGED_SHARE: f64 = 0.03;

/// `pcap_lossy` is here for the paths a clean capture never takes. This
/// fails the run when the generated capture does not take them: every
/// kind of loss the damage is meant to cause must have been counted, and
/// the stated shares of streams must leave the borrow-only path and
/// show damage.
fn require_damage(capture: &Capture, ingest: &IngestReport, verdict: &mut Verdict) {
    for (name, count) in [
        ("records_dropped", ingest.records_dropped),
        ("bytes_skipped", ingest.bytes_skipped),
        ("capture_truncated", u64::from(ingest.capture_truncated)),
        ("streams_salvaged", ingest.streams_salvaged),
        ("streams_discarded", ingest.streams_discarded),
        ("reassembly_gaps", ingest.reassembly_gaps),
        ("gzip_failures", ingest.gzip_failures),
        ("chunked_failures", ingest.chunked_failures),
    ] {
        verdict.require(count > 0, || {
            format!("the damaged capture caused no {name}: {ingest}")
        });
    }
    let gathered = gathered_share(&capture.bytes);
    verdict.require(gathered >= LOSSY_MIN_GATHERED_SHARE, || {
        format!("only {gathered:.3} of the streams leave the borrow-only path")
    });
    let damaged = damaged_share(ingest);
    verdict.require(damaged >= LOSSY_MIN_DAMAGED_SHARE, || {
        format!("only {damaged:.3} of the streams show damage")
    });
}

/// Streams that were salvaged, discarded or reassembled over a gap, as a
/// share of all streams.
fn damaged_share(ingest: &IngestReport) -> f64 {
    (ingest.streams_salvaged + ingest.streams_discarded + ingest.reassembly_gaps) as f64
        / ingest.streams_total.max(1) as f64
}

/// The first two stages of extraction as the pipeline runs them: the
/// record walk, then frame parsing and reassembly into `streams`.
fn reassemble(bytes: &[u8], spans: &[PacketSpan], streams: &mut StreamBuf) {
    let mut reassembler = SpanReassembler::new();
    for span in spans {
        let Ok(eth) = EtherFrame::parse(&bytes[span.range.clone()]) else {
            continue;
        };
        if eth.ethertype != ETHERTYPE_IPV4 {
            continue;
        }
        let Ok(ip) = Ipv4Packet::parse(eth.payload) else {
            continue;
        };
        if ip.protocol != PROTO_TCP {
            continue;
        }
        let Ok(tcp) = TcpSegment::parse(ip.payload) else {
            continue;
        };
        let key = FlowKey::new(
            Endpoint::new(ip.src, tcp.src_port),
            Endpoint::new(ip.dst, tcp.dst_port),
        );
        reassembler.push_span(span.ts, key, &tcp, subslice_range(bytes, tcp.payload));
    }
    reassembler.gather_streams(bytes, &mut 0, streams);
}

/// Share of the capture's streams whose bytes reassembly had to copy
/// out of the capture (more than one segment, or a conflict) instead of
/// borrowing one span of it.
fn gathered_share(bytes: &[u8]) -> f64 {
    let mut spans = Vec::new();
    nettrace::capture::read_packet_spans_lenient(bytes, &mut IngestReport::new(), &mut spans);
    let mut streams = StreamBuf::new();
    reassemble(bytes, &spans, &mut streams);
    // A flow that carried no payload (the silent side of an unanswered
    // request) has nothing to borrow or copy.
    let (mut carrying, mut borrowed) = (0usize, 0usize);
    for view in streams.views(bytes).filter(|view| !view.data.is_empty()) {
        carrying += 1;
        borrowed += usize::from(bytes.as_ptr_range().contains(&view.data.as_ptr()));
    }
    1.0 - borrowed as f64 / carrying.max(1) as f64
}

/// One call of the timed function; checks the report it gave back.
fn pass(inputs: &Inputs, reference: &Reference, verdict: &mut Verdict) -> crate::metrics::Pass {
    let classifier = inputs.model.classifier.clone();
    let (report, pass) =
        timed(|| analyze_pcap_lenient(&inputs.capture.bytes, classifier, detector_config()));
    let same =
        report_digest(&report) == reference.digest && report.ingest == Some(reference.ingest);
    let n = inputs.capture.expected.len() as u64;
    verdict.record(n, if same { 0 } else { n }, || {
        "a pass's report or ingest counters differ from the reference".into()
    });
    pass
}

/// The end-to-end run: a warm-up pass, then timed passes for `seconds`.
pub fn e2e(
    inputs: &Inputs,
    kind: Kind,
    seconds: f64,
    between: &mut dyn FnMut(f64),
    verdict: &mut Verdict,
) -> Passes {
    let reference = reference(inputs, kind, verdict);
    pass(inputs, &reference, verdict);
    let peak_rss_mib = crate::env::peak_rss_mib();
    Passes {
        passes: repeat_for(seconds, between, || pass(inputs, &reference, verdict)),
        transactions: reference.ingest.transactions_recovered,
        peak_rss_mib,
    }
}

/// The traced run: the call taken apart into the public pieces it is
/// made of, then each `nettrace` stage on its own.
#[allow(clippy::too_many_arguments)]
pub fn traced(
    inputs: &Inputs,
    kind: Kind,
    seconds: f64,
    out_dir: &Path,
    allocations: fn() -> u64,
    tracer: &mut Tracer,
    layers: &mut Layers,
    verdict: &mut Verdict,
) {
    let bytes = &inputs.capture.bytes;
    let reference = reference(inputs, kind, verdict);
    let (packets, recovered) = (
        reference.ingest.packets_read as f64,
        reference.ingest.transactions_recovered as f64,
    );

    // Black-box passes against staged ones, alternating, for half the window.
    pass(inputs, &reference, verdict); // warm-up
    let (mut plain, mut staged) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while plain.len() < 2 || started.elapsed().as_secs_f64() < seconds * 0.5 {
        let p = pass(inputs, &reference, verdict);
        plain.push(recovered * 1e9 / p.wall_ns as f64);

        tracer.next_pass();
        let (digest, wall) = tracer.span("pass", |t| {
            let (transactions, _) = t.span("nettrace.extract", |t| {
                t.count(packets as u64);
                SpanPipeline::extract_capture_lenient(bytes, &mut IngestReport::new())
            });
            let replay = replay_borrowed(
                &transactions,
                inputs.model.classifier.clone(),
                allocations,
                t,
            );
            let digest = report_digest(&replay.report);
            // The call under test frees what it built before it returns.
            t.span("core.teardown", |_| drop((transactions, replay)));
            digest
        });
        staged.push(recovered * 1e9 / wall as f64);
        verdict.require(digest == reference.digest, || {
            "the staged pass's report differs from the black-box call's".into()
        });
    }
    crate::layers::harness_layers(&plain, &staged, tracer, layers);
    // Stage costs pass by pass: a share is taken within its own pass, a
    // time is the quartile of passes the host disturbed least.
    let (extracts, passes) = (tracer.per_pass("nettrace.extract"), tracer.per_pass("pass"));
    let shares: Vec<f64> = extracts.iter().zip(&passes).map(|(e, p)| e / p).collect();
    layers.set("nettrace.self_share", stats::median(&shares));
    let extract_ns = stats::lower_quartile(&extracts);
    layers.set(
        "nettrace.extract_mb_per_s",
        bytes.len() as f64 * 1e3 / extract_ns,
    );
    layers.set(
        "core.finish_report_ms",
        stats::lower_quartile(&tracer.per_pass("core.finish")) / 1e6,
    );

    // The first two stages of extraction on their own, as the pipeline runs them.
    let mut spans = Vec::new();
    let ((), walk_ns) = fastest(tracer, "nettrace.walk", packets as usize, || {
        spans.clear();
        nettrace::capture::read_packet_spans_lenient(bytes, &mut IngestReport::new(), &mut spans);
    });
    let ((), reassemble_ns) = fastest(tracer, "nettrace.reassemble", spans.len(), || {
        let mut streams = StreamBuf::new();
        reassemble(bytes, &spans, &mut streams);
        std::hint::black_box(streams.len());
    });
    layers.set("nettrace.walk_ns_per_pkt", walk_ns as f64 / packets);
    layers.set(
        "nettrace.reassemble_ns_per_pkt",
        reassemble_ns as f64 / packets,
    );
    layers.set(
        "nettrace.http_synth_ns_per_tx",
        (extract_ns - walk_ns as f64 - reassemble_ns as f64).max(0.0) / recovered,
    );

    let allocs = allocations();
    std::hint::black_box(SpanPipeline::extract_capture_lenient(
        bytes,
        &mut IngestReport::new(),
    ));
    let allocs = (allocations() - allocs) as f64;
    layers.set("nettrace.allocs_per_pkt", allocs / packets);
    layers.set("nettrace.allocs_per_tx", allocs / recovered);

    // Inflate over the gzip containers the generator put on the wire;
    // digests over the capture cut to the sizes of the workload's bodies.
    let coded = &inputs.capture.gzip_bodies;
    if !coded.is_empty() {
        let (inflated, ns) = fastest(tracer, "nettrace.inflate", coded.len(), || {
            coded
                .iter()
                .map(|body| {
                    nettrace::flate::gzip_decompress_capped(body, MAX_DECODED_BODY_BYTES)
                        .map_or(0, |b| b.len())
                })
                .sum::<usize>()
        });
        layers.set(
            "nettrace.inflate_mb_per_s",
            inflated as f64 * 1e3 / ns as f64,
        );
    }
    let mut at = 0usize;
    let bodies: Vec<&[u8]> = reference
        .extracted
        .iter()
        .filter_map(|tx| {
            let body = bytes.get(at..at + tx.payload_size)?;
            at += tx.payload_size;
            Some(body)
        })
        .collect();
    let mut digests = Vec::new();
    let ((), ns) = fastest(tracer, "nettrace.digest", bodies.len(), || {
        fnv1a_many(&bodies, &mut digests);
    });
    layers.set("nettrace.digest_mb_per_s", at as f64 * 1e3 / ns as f64);

    let ingest = &reference.ingest;
    layers.set("nettrace.streams_gathered_share", gathered_share(bytes));
    layers.set("nettrace.streams_damaged_share", damaged_share(ingest));
    for (name, value) in [
        ("packets_read", ingest.packets_read),
        ("records_dropped", ingest.records_dropped),
        ("bytes_skipped", ingest.bytes_skipped),
        ("capture_truncated", u64::from(ingest.capture_truncated)),
        ("packets_dropped_decode", ingest.packets_dropped_decode),
        ("packets_non_tcp", ingest.packets_non_tcp),
        ("streams_total", ingest.streams_total),
        ("streams_salvaged", ingest.streams_salvaged),
        ("streams_discarded", ingest.streams_discarded),
        ("streams_skipped_non_http", ingest.streams_skipped_non_http),
        ("reassembly_gaps", ingest.reassembly_gaps),
        ("transactions_recovered", ingest.transactions_recovered),
        ("gzip_failures", ingest.gzip_failures),
        ("deflate_failures", ingest.deflate_failures),
        ("chunked_failures", ingest.chunked_failures),
        ("decode_cap_exceeded", ingest.decode_cap_exceeded),
    ] {
        layers.set(&format!("nettrace.ingest.{name}"), value as f64);
    }

    // `CaptureSource` reads classic pcap only, which `pcap_bulk` is.
    if kind == Kind::Bulk {
        capture_source_probe(bytes, packets, out_dir, tracer, layers, verdict);
    }

    // The detector's layers, over one more replay of what was extracted.
    let replay = replay_borrowed(
        &reference.extracted,
        inputs.model.classifier.clone(),
        allocations,
        tracer,
    );
    let n = replay.report.transactions.max(1) as f64;
    crate::layers::observe_layers(&replay, n, layers);
    crate::layers::core_probes(
        &replay.detector,
        &reference.extracted,
        &inputs.model,
        tracer,
        layers,
    );
}

/// `wirefront::CaptureSource` over the same file, pumped dry: the third
/// reassembler in the tree, on the packets the span pipeline just saw.
fn capture_source_probe(
    bytes: &[u8],
    packets: f64,
    out_dir: &Path,
    tracer: &mut Tracer,
    layers: &mut Layers,
    verdict: &mut Verdict,
) {
    let path = out_dir.join(format!("capture-{}.pcap", std::process::id()));
    if std::fs::write(&path, bytes).is_err() {
        verdict.require(false, || format!("cannot write {}", path.display()));
        return;
    }
    let mut emitted = Vec::new();
    let (outcome, ns) = tracer.span("wirefront.capture", |t| {
        t.count(packets as u64);
        let mut source = CaptureSource::pcap_file(&path, false, CaptureConfig::default())?;
        loop {
            match source.pump(&mut emitted) {
                Ok(PumpOutcome::Exhausted) => break,
                Ok(_) => {}
                Err(e) => return Err(std::io::Error::other(e.to_string())),
            }
        }
        source.shutdown(&mut emitted);
        Ok(())
    });
    let _ = std::fs::remove_file(&path);
    verdict.require(outcome.is_ok() && !emitted.is_empty(), || {
        format!(
            "capture source over the capture file: {outcome:?}, {} transactions",
            emitted.len()
        )
    });
    layers.set("wirefront.capture_ns_per_pkt", ns as f64 / packets);
}
