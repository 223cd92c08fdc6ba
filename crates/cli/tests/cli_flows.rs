//! End-to-end CLI flows driven in-process: generate → train → classify →
//! replay → inspect, in both capture formats.

use dynaminer_cli::commands;

fn tmp(name: &str) -> String {
    // Per-process directory so stale artifacts from older builds (e.g. a
    // previous model format) never leak into a run.
    let dir = std::env::temp_dir().join(format!("dynaminer-cli-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_string_lossy().into_owned()
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

/// Trains the shared model once per test process: tests run on parallel
/// threads, and none may read the file while another is writing it.
fn trained_model_path() -> String {
    static MODEL: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    MODEL
        .get_or_init(|| {
            let model = tmp("model.json");
            commands::train(&args(&["--scale", "0.05", "--seed", "7", "--out", &model])).unwrap();
            model
        })
        .clone()
}

#[test]
fn generate_train_classify_replay_roundtrip() {
    let infection = tmp("angler.pcap");
    let benign = tmp("search.pcap");
    commands::generate(&args(&["--family", "angler", "--seed", "3", "--out", &infection]))
        .unwrap();
    commands::generate(&args(&["--benign", "search", "--seed", "4", "--out", &benign]))
        .unwrap();
    let model = trained_model_path();
    commands::classify(&args(&["--model", &model, &infection, &benign])).unwrap();
    commands::replay(&args(&["--model", &model, "--threshold", "3", &infection])).unwrap();
    commands::dot(&args(&[&infection])).unwrap();
    commands::features(&args(&[&benign])).unwrap();
    commands::inspect(&args(&["--model", &model, "--top", "5"])).unwrap();
}

#[test]
fn classify_accepts_pcapng_captures() {
    // Convert a generated classic capture to pcapng and classify it.
    let classic = tmp("rig.pcap");
    commands::generate(&args(&["--family", "rig", "--seed", "9", "--out", &classic])).unwrap();
    let bytes = std::fs::read(&classic).unwrap();
    let packets = nettrace::capture::read_packets(&bytes).unwrap();
    let ng = tmp("rig.pcapng");
    std::fs::write(&ng, nettrace::pcapng::write_packets(&packets)).unwrap();
    let model = trained_model_path();
    commands::classify(&args(&["--model", &model, &ng])).unwrap();
}

#[test]
fn metrics_out_writes_json_snapshot_and_prometheus_text() {
    let infection = tmp("nuclear.pcap");
    commands::generate(&args(&["--family", "nuclear", "--seed", "13", "--out", &infection]))
        .unwrap();
    let model = trained_model_path();
    let metrics = tmp("replay-metrics.json");
    commands::replay(&args(&["--model", &model, "--metrics-out", &metrics, &infection]))
        .unwrap();
    // The JSON side is a parseable telemetry snapshot with both ingest
    // and detector counters populated.
    let json = std::fs::read_to_string(&metrics).unwrap();
    let snap: telemetry::Snapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(snap.counter("ingest_captures_total"), 1);
    assert!(snap.counter("ingest_transactions_recovered_total") > 0);
    assert!(snap.counter("detector_transactions_total") > 0);
    assert!(snap.histogram_count("classifier_scoring_ns") > 0);
    // The Prometheus side carries the exposition preamble and
    // cumulative histogram series.
    let prom = std::fs::read_to_string(tmp("replay-metrics.prom")).unwrap();
    assert!(prom.contains("# TYPE detector_transactions_total counter"));
    assert!(prom.contains("# TYPE classifier_scoring_ns histogram"));
    assert!(prom.contains("_bucket{le=\"+Inf\"}"));
    assert!(prom.contains("classifier_scoring_ns_count"));

    // classify --metrics-out goes through the batched path.
    let metrics = tmp("classify-metrics.json");
    commands::classify(&args(&["--model", &model, "--metrics-out", &metrics, &infection]))
        .unwrap();
    let snap: telemetry::Snapshot =
        serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    assert_eq!(snap.counter("ingest_captures_total"), 1);
    assert_eq!(snap.histogram_count("classifier_feature_extraction_ns"), 1);
}

/// The full model round trip: `train --out` produces a file that
/// `classify --model` and `replay --model` accept, and a model whose
/// `format_version` is from the future is rejected up front with the
/// version mismatch message instead of a parse error deep in scoring.
#[test]
fn model_format_version_round_trip_and_mismatch_rejection() {
    let capture = tmp("goon.pcap");
    commands::generate(&args(&["--family", "goon", "--seed", "21", "--out", &capture])).unwrap();
    let model = tmp("roundtrip-model.json");
    commands::train(&args(&["--scale", "0.05", "--seed", "17", "--out", &model])).unwrap();
    commands::classify(&args(&["--model", &model, &capture])).unwrap();
    commands::replay(&args(&["--model", &model, &capture])).unwrap();

    // Same bytes, format_version bumped: every consumer must refuse it.
    let text = std::fs::read_to_string(&model).unwrap();
    let tampered = text.replacen("\"format_version\":1", "\"format_version\":99", 1);
    assert_ne!(tampered, text, "the saved model carries its format version");
    let bumped = tmp("model-v99.json");
    std::fs::write(&bumped, tampered).unwrap();
    for result in [
        commands::classify(&args(&["--model", &bumped, &capture])),
        commands::replay(&args(&["--model", &bumped, &capture])),
        commands::inspect(&args(&["--model", &bumped])),
    ] {
        let err = result.unwrap_err();
        assert!(
            err.contains("uses model format 99 but this build expects 1"),
            "unexpected error: {err}"
        );
    }
}

/// `text` with what lies between the first `open` and the next `close`
/// replaced by `with`.
fn splice(text: &str, open: &str, close: &str, with: &str) -> String {
    let start = text.find(open).expect(open) + open.len();
    let end = start + text[start..].find(close).expect(close);
    format!("{}{with}{}", &text[..start], &text[end..])
}

/// A model file that parses and carries the right format version but
/// could not score — a selection wider or narrower than its trees, no
/// trees, a split on a feature the rows lack, a leaf without both class
/// probabilities — is refused when it is loaded, naming the file, by
/// every consumer; it never reaches scoring, where it would panic or
/// print NaN.
#[test]
fn structurally_invalid_models_are_rejected_at_load() {
    let capture = tmp("nuclear-hostile.pcap");
    commands::generate(&args(&["--family", "nuclear", "--seed", "23", "--out", &capture]))
        .unwrap();
    let model = trained_model_path();
    commands::classify(&args(&["--model", &model, &capture])).unwrap();
    let text = std::fs::read_to_string(&model).unwrap();
    let tamperings = [
        ("selection", text.replacen("\"selection\":\"All\"", "\"selection\":\"GraphOnly\"", 1)),
        ("no-trees", splice(&text, "\"trees\":[", "],\"n_classes\"", "")),
        ("split-feature", splice(&text, "\"feature\":", ",", "99")),
        ("short-leaf", splice(&text, "\"probs\":[", "]", "1.0")),
    ];
    for (what, tampered) in tamperings {
        assert_ne!(tampered, text, "{what}: the tampering changed nothing");
        let path = tmp(&format!("model-{what}.json"));
        std::fs::write(&path, tampered).unwrap();
        for result in [
            commands::classify(&args(&["--model", &path, &capture])),
            commands::replay(&args(&["--model", &path, &capture])),
            commands::inspect(&args(&["--model", &path])),
        ] {
            let err = result.unwrap_err();
            assert!(
                err.contains(&path) && err.contains("is not a valid model"),
                "{what}: unexpected error: {err}"
            );
        }
    }
}

/// `replay --shards N` drives the streamd engine: the run succeeds, the
/// engine's telemetry lands in --metrics-out, and the zero-loss drain
/// invariant (enqueued == processed, nothing dropped) holds.
#[test]
fn replay_sharded_reports_engine_metrics_with_zero_loss() {
    let capture = tmp("magnitude.pcap");
    commands::generate(&args(&["--family", "magnitude", "--seed", "19", "--out", &capture]))
        .unwrap();
    let model = trained_model_path();
    let metrics = tmp("sharded-metrics.json");
    commands::replay(&args(&[
        "--model", &model, "--shards", "4", "--metrics-out", &metrics, &capture,
    ]))
    .unwrap();
    let snap: telemetry::Snapshot =
        serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    assert_eq!(snap.gauges["streamd_shards"], 4);
    assert!(snap.counter("streamd_enqueued_total") > 0);
    assert_eq!(
        snap.counter("streamd_enqueued_total"),
        snap.counter("streamd_processed_total"),
        "graceful drain loses nothing"
    );
    assert_eq!(snap.counter("streamd_dropped_total"), 0);
    // Ingest + per-shard detector metrics were folded into the snapshot.
    assert_eq!(snap.counter("ingest_captures_total"), 1);
    assert!(snap.counter("detector_transactions_total") > 0);
    // Strict sharded replay works too (no ingest report attached).
    commands::replay(&args(&["--model", &model, "--shards", "2", "--strict", &capture]))
        .unwrap();
}

/// The engine snapshot round trip: `replay --snapshot-out` writes a
/// checkpoint file that `--resume` accepts (including into a different
/// shard count), and a snapshot whose format version is from the
/// future is rejected up front with the version-mismatch message —
/// mirroring the model-format gate.
#[test]
fn snapshot_format_version_round_trip_and_mismatch_rejection() {
    let capture = tmp("neutrino.pcap");
    commands::generate(&args(&["--family", "neutrino", "--seed", "29", "--out", &capture]))
        .unwrap();
    let model = trained_model_path();
    let snap = tmp("engine.snap");
    commands::replay(&args(&[
        "--model", &model, "--snapshot-out", &snap, "--checkpoint-every", "8", &capture,
    ]))
    .unwrap();

    // Resume the finished run into a different shard count: the
    // watermark already covers the whole stream, so the replay feeds
    // nothing new but still restores, re-partitions 1→4, and writes a
    // fresh checkpoint.
    let resumed = tmp("engine-resumed.snap");
    commands::replay(&args(&[
        "--model", &model, "--resume", &snap, "--shards", "4", "--snapshot-out", &resumed,
        &capture,
    ]))
    .unwrap();
    assert!(std::fs::metadata(&resumed).unwrap().len() > 0);

    // Same bytes, format version bumped (u32 LE at offset 8): refused
    // before any payload parsing.
    let mut bytes = std::fs::read(&snap).unwrap();
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    let bumped = tmp("engine-v99.snap");
    std::fs::write(&bumped, &bytes).unwrap();
    let err = commands::replay(&args(&["--model", &model, "--resume", &bumped, &capture]))
        .unwrap_err();
    assert!(
        err.contains("uses snapshot format 99 but this build expects 1"),
        "unexpected error: {err}"
    );
}

/// A hot-reload mid-replay (`--reload-model --reload-at`) goes through
/// the model-format gate too: a tampered reload model is refused.
#[test]
fn reload_model_flag_passes_the_model_format_gate() {
    let capture = tmp("sweetorange.pcap");
    commands::generate(&args(&[
        "--family", "sweetorange", "--seed", "31", "--out", &capture,
    ]))
    .unwrap();
    let model = trained_model_path();
    let snap = tmp("reload.snap");
    commands::replay(&args(&[
        "--model", &model, "--snapshot-out", &snap, "--reload-model", &model, "--reload-at",
        "10", &capture,
    ]))
    .unwrap();

    let text = std::fs::read_to_string(&model).unwrap();
    let tampered = text.replacen("\"format_version\":1", "\"format_version\":99", 1);
    let bumped = tmp("reload-model-v99.json");
    std::fs::write(&bumped, tampered).unwrap();
    let err = commands::replay(&args(&[
        "--model", &model, "--snapshot-out", &snap, "--reload-model", &bumped, &capture,
    ]))
    .unwrap_err();
    assert!(
        err.contains("uses model format 99 but this build expects 1"),
        "unexpected error: {err}"
    );
}

#[test]
fn helpful_errors_for_bad_input() {
    assert!(commands::classify(&args(&["--model", "/nonexistent.json", "x.pcap"]))
        .unwrap_err()
        .contains("cannot read"));
    assert!(commands::generate(&args(&["--family", "bogus", "--out", &tmp("x.pcap")]))
        .unwrap_err()
        .contains("unknown family"));
    assert!(commands::generate(&args(&[
        "--family", "rig", "--benign", "search", "--out", &tmp("x.pcap")
    ]))
    .unwrap_err()
    .contains("mutually exclusive"));
    let model = trained_model_path();
    assert!(commands::replay(&args(&["--model", &model])).unwrap_err().contains("exactly one"));
    // A non-capture file errors cleanly in strict mode; the lenient
    // default degrades gracefully (zero transactions, counted loss).
    let junk = tmp("junk.bin");
    std::fs::write(&junk, b"not a capture at all").unwrap();
    assert!(commands::classify(&args(&["--model", &model, "--strict", &junk])).is_err());
    assert!(commands::classify(&args(&["--model", &model, &junk])).is_ok());
    for command in [commands::dot, commands::features] {
        assert!(command(&args(&["--strict", &junk])).is_err());
        assert!(command(&args(&[&junk])).is_ok());
    }
    let drift = ["--epochs", "2", "--scale", "0.02", "--retrain", "--promote-margin", "abc"];
    assert!(commands::drift(&args(&drift)).unwrap_err().contains("--promote-margin"));
}

/// A `wire` episode set whose transactions need more client ports than
/// the merged capture can give them is refused with an error that names
/// the limit, before anything is written.
#[test]
fn wire_episode_set_past_the_port_space_is_an_error() {
    let out = tmp("too-many-episodes.pcap");
    let pcap = ["pcap", "--out", &out, "--infections", "2000", "--benign", "2000"];
    let err = dynaminer_cli::wire::wire(&args(&pcap)).unwrap_err();
    assert!(err.contains("45536 client ports"), "unexpected error: {err}");
    assert!(!std::path::Path::new(&out).exists());
}

#[test]
fn strict_and_lenient_agree_on_clean_captures() {
    let clean = tmp("fiesta.pcap");
    commands::generate(&args(&["--family", "fiesta", "--seed", "11", "--out", &clean]))
        .unwrap();
    let model = trained_model_path();
    commands::classify(&args(&["--model", &model, "--strict", &clean])).unwrap();
    commands::classify(&args(&["--model", &model, &clean])).unwrap();
    commands::replay(&args(&["--model", &model, "--strict", &clean])).unwrap();
    commands::replay(&args(&["--model", &model, &clean])).unwrap();
    // A corrupted capture fail-stops strictly but replays leniently.
    let bytes = std::fs::read(&clean).unwrap();
    let hurt = tmp("fiesta-truncated.pcap");
    std::fs::write(&hurt, &bytes[..bytes.len() - 3]).unwrap();
    commands::replay(&args(&["--model", &model, &hurt])).unwrap();
}

/// `wire proxy --metrics-out` publishes the proxy's per-reason PROXY
/// handshake rejects: one connection that opens with plain HTTP where a
/// preamble is required moves exactly one `wire_proxyproto_reject_*`
/// counter to 1.
#[test]
fn wire_proxy_metrics_count_a_malformed_proxy_preamble() {
    use std::io::{Read, Write};

    let model = trained_model_path();
    let metrics = tmp("proxy-metrics.json");
    let ready = tmp("proxy.ready");
    let proxy = {
        let (model, metrics, ready) = (model.clone(), metrics.clone(), ready.clone());
        std::thread::spawn(move || {
            dynaminer_cli::wire::wire(&args(&[
                "proxy", "--listen", "127.0.0.1:0", "--origin", "127.0.0.1:9", "--proxy-protocol",
                "--model", &model, "--metrics-out", &metrics, "--ready-file", &ready,
                "--idle-exit-ms", "300",
            ]))
        })
    };
    let addr = loop {
        match std::fs::read_to_string(&ready) {
            Ok(text) if text.ends_with('\n') => break text.trim().to_string(),
            _ => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    };
    let mut client = std::net::TcpStream::connect(&addr).unwrap();
    client.write_all(b"GET / HTTP/1.1\r\nHost: example.test\r\n\r\n").unwrap();
    // Rejected connections are closed, not forwarded.
    let mut buf = [0u8; 16];
    assert!(matches!(client.read(&mut buf), Ok(0) | Err(_)));
    drop(client);
    proxy.join().unwrap().unwrap();

    let snap: telemetry::Snapshot =
        serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    let rejects: Vec<(&String, &u64)> = snap
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("wire_proxyproto_reject_"))
        .collect();
    assert!(rejects.len() > 1, "one family per reason");
    assert_eq!(rejects.iter().map(|(_, n)| **n).sum::<u64>(), 1, "{rejects:?}");
    assert_eq!(snap.counter("wire_proxyproto_reject_bad_signature_total"), 1);
    assert_eq!(snap.counter("wire_source_drops_total"), 1);
    assert_eq!(snap.counter("wire_connections_total"), 1);
}
