//! End-to-end CLI flows driven in-process: generate → train → classify →
//! replay → inspect, in both capture formats.

use dynaminer_cli::commands::{self, Out};

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

/// Standard output for an in-process command, discarded.
fn quiet() -> Out {
    Out::new(std::io::sink())
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
    commands::classify(&args(&["--model", &model, &infection, &benign]), &mut quiet()).unwrap();
    commands::replay(&args(&["--model", &model, "--threshold", "3", &infection]), &mut quiet())
        .unwrap();
    commands::dot(&args(&[&infection]), &mut quiet()).unwrap();
    commands::features(&args(&[&benign]), &mut quiet()).unwrap();
    commands::inspect(&args(&["--model", &model, "--top", "5"]), &mut quiet()).unwrap();
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
    commands::classify(&args(&["--model", &model, &ng]), &mut quiet()).unwrap();
}

#[test]
fn metrics_out_writes_json_snapshot_and_prometheus_text() {
    let infection = tmp("nuclear.pcap");
    commands::generate(&args(&["--family", "nuclear", "--seed", "13", "--out", &infection]))
        .unwrap();
    let model = trained_model_path();
    let metrics = tmp("replay-metrics.json");
    commands::replay(
        &args(&["--model", &model, "--metrics-out", &metrics, &infection]),
        &mut quiet(),
    )
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
    commands::classify(
        &args(&["--model", &model, "--metrics-out", &metrics, &infection]),
        &mut quiet(),
    )
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
    commands::classify(&args(&["--model", &model, &capture]), &mut quiet()).unwrap();
    commands::replay(&args(&["--model", &model, &capture]), &mut quiet()).unwrap();

    // Same bytes, format_version bumped: every consumer must refuse it.
    let text = std::fs::read_to_string(&model).unwrap();
    let tampered = text.replacen("\"format_version\":1", "\"format_version\":99", 1);
    assert_ne!(tampered, text, "the saved model carries its format version");
    let bumped = tmp("model-v99.json");
    std::fs::write(&bumped, tampered).unwrap();
    for result in [
        commands::classify(&args(&["--model", &bumped, &capture]), &mut quiet()),
        commands::replay(&args(&["--model", &bumped, &capture]), &mut quiet()),
        commands::inspect(&args(&["--model", &bumped]), &mut quiet()),
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
    commands::classify(&args(&["--model", &model, &capture]), &mut quiet()).unwrap();
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
            commands::classify(&args(&["--model", &path, &capture]), &mut quiet()),
            commands::replay(&args(&["--model", &path, &capture]), &mut quiet()),
            commands::inspect(&args(&["--model", &path]), &mut quiet()),
        ] {
            let err = result.unwrap_err();
            assert!(
                err.contains(&path) && err.contains("is not a valid model"),
                "{what}: unexpected error: {err}"
            );
        }
    }
}

/// A model file nested a million levels deep is refused with an error
/// naming the file and exit status 1, where a reader without a nesting
/// bound overflows the stack and aborts. The trained model still loads.
#[test]
fn deeply_nested_model_is_an_error_not_an_abort() {
    let model = trained_model_path();
    let text = std::fs::read_to_string(&model).unwrap();
    let nested = format!("\"classifier\":{}", "[".repeat(1_000_000));
    let deep = tmp("model-deep.json");
    std::fs::write(&deep, text.replacen("\"classifier\":", &nested, 1)).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_dynaminer"))
        .args(["inspect", "--model", &deep])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!("{deep} is not a valid model: nesting deeper than 128 levels")),
        "{stderr}"
    );
    commands::inspect(&args(&["--model", &model]), &mut quiet()).unwrap();
}

/// The same model as a `replay --reload-model` is refused the same way,
/// before the replay starts: exit status 1 and the nesting message.
#[test]
fn deeply_nested_reload_model_is_an_error_not_an_abort() {
    let capture = tmp("magnitude-reload.pcap");
    commands::generate(&args(&["--family", "magnitude", "--seed", "5", "--out", &capture]))
        .unwrap();
    let model = trained_model_path();
    let text = std::fs::read_to_string(&model).unwrap();
    let nested = format!("\"classifier\":{}", "[".repeat(1_000_000));
    let deep = tmp("reload-model-deep.json");
    std::fs::write(&deep, text.replacen("\"classifier\":", &nested, 1)).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_dynaminer"))
        .args(["replay", "--model", &model, "--reload-model", &deep, "--reload-at", "3", &capture])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!("{deep} is not a valid model: nesting deeper than 128 levels")),
        "{stderr}"
    );
}

/// `wire capture --shards N` over a capture file drives the streamd
/// engine: the run succeeds, the engine's telemetry lands in
/// --metrics-out, and the zero-loss drain invariant (enqueued ==
/// processed, nothing dropped) holds.
#[test]
fn replay_sharded_reports_engine_metrics_with_zero_loss() {
    let capture = tmp("magnitude.pcap");
    commands::generate(&args(&["--family", "magnitude", "--seed", "19", "--out", &capture]))
        .unwrap();
    let model = trained_model_path();
    let metrics = tmp("sharded-metrics.json");
    let wire = [
        "capture", "--pcap", &capture, "--model", &model, "--shards", "4", "--metrics-out",
        &metrics,
    ];
    dynaminer_cli::wire::wire(&args(&wire), &mut quiet()).unwrap();
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
    // Source + per-shard detector metrics were folded into the snapshot.
    assert_eq!(snap.counter("wire_transactions_total"), snap.counter("streamd_enqueued_total"));
    assert!(snap.counter("detector_transactions_total") > 0);
    // A strict replay on several workers works too (no ingest report
    // attached).
    commands::replay(
        &args(&["--model", &model, "--threads", "2", "--strict", &capture]),
        &mut quiet(),
    )
    .unwrap();
}

/// A flag the command does not read is refused, exit status 1, before
/// anything runs: one that another command reads is named as theirs,
/// any other gets the command's closest flag. A misspelt boolean flag
/// does not swallow the capture after it.
#[test]
fn flags_a_command_does_not_read_are_refused() {
    let capture = tmp("refused-flags.pcap");
    commands::generate(&args(&["--family", "rig", "--seed", "2", "--out", &capture])).unwrap();
    let cases: [(&[&str], &str); 5] = [
        (
            &["replay", "--bogus-flag", "3"],
            "replay has no flag --bogus-flag; the closest is --model",
        ),
        (&["replay", "--shards", "2"], "--shards is a wire/drift flag; replay does not take it"),
        (&["replay", "--strickt"], "replay has no flag --strickt; the closest is --strict"),
        (&["train", "--thread", "2"], "train has no flag --thread; the closest is --threads"),
        (&["wire", "proxy", "--pcap"], "--pcap is a wire flag; wire proxy does not take it"),
    ];
    for (command, first_line) in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_dynaminer"))
            .args(command)
            .arg(&capture)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command:?}: {stderr}");
        let first_line = format!("error: {first_line}");
        assert_eq!(stderr.lines().next(), Some(first_line.as_str()), "{command:?}");
        assert!(out.stdout.is_empty(), "{command:?} ran");
    }
}

/// The engine snapshot round trip: `replay --snapshot-out` writes a
/// checkpoint file that `--resume` accepts (at another thread count
/// too), and a snapshot whose format version is from the
/// future is rejected up front with the version-mismatch message —
/// mirroring the model-format gate.
#[test]
fn snapshot_format_version_round_trip_and_mismatch_rejection() {
    let capture = tmp("neutrino.pcap");
    commands::generate(&args(&["--family", "neutrino", "--seed", "29", "--out", &capture]))
        .unwrap();
    let model = trained_model_path();
    let snap = tmp("engine.snap");
    commands::replay(
        &args(&["--model", &model, "--snapshot-out", &snap, "--checkpoint-every", "8", &capture]),
        &mut quiet(),
    )
    .unwrap();

    // Resume the finished run on four workers: the watermark already
    // covers the whole stream, so the replay feeds nothing new but still
    // restores, re-partitions into the client groups, and writes a fresh
    // checkpoint.
    let resumed = tmp("engine-resumed.snap");
    let resume = [
        "--model", &model, "--resume", &snap, "--threads", "4", "--snapshot-out", &resumed,
        &capture,
    ];
    commands::replay(&args(&resume), &mut quiet()).unwrap();
    assert!(std::fs::metadata(&resumed).unwrap().len() > 0);

    // Same bytes, format version bumped (u32 LE at offset 8): refused
    // before any payload parsing.
    let mut bytes = std::fs::read(&snap).unwrap();
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    let bumped = tmp("engine-v99.snap");
    std::fs::write(&bumped, &bytes).unwrap();
    let err =
        commands::replay(&args(&["--model", &model, "--resume", &bumped, &capture]), &mut quiet())
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
    let reload = [
        "--model", &model, "--snapshot-out", &snap, "--reload-model", &model, "--reload-at",
        "10", &capture,
    ];
    commands::replay(&args(&reload), &mut quiet()).unwrap();

    let text = std::fs::read_to_string(&model).unwrap();
    let tampered = text.replacen("\"format_version\":1", "\"format_version\":99", 1);
    let bumped = tmp("reload-model-v99.json");
    std::fs::write(&bumped, tampered).unwrap();
    let err = commands::replay(
        &args(&["--model", &model, "--snapshot-out", &snap, "--reload-model", &bumped, &capture]),
        &mut quiet(),
    )
    .unwrap_err();
    assert!(
        err.contains("uses model format 99 but this build expects 1"),
        "unexpected error: {err}"
    );
}

#[test]
fn helpful_errors_for_bad_input() {
    assert!(commands::classify(&args(&["--model", "/nonexistent.json", "x.pcap"]), &mut quiet())
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
    assert!(commands::replay(&args(&["--model", &model]), &mut quiet())
        .unwrap_err()
        .contains("exactly one"));
    // A non-capture file errors cleanly in strict mode; the lenient
    // default degrades gracefully (zero transactions, counted loss).
    let junk = tmp("junk.bin");
    std::fs::write(&junk, b"not a capture at all").unwrap();
    assert!(
        commands::classify(&args(&["--model", &model, "--strict", &junk]), &mut quiet()).is_err()
    );
    assert!(commands::classify(&args(&["--model", &model, &junk]), &mut quiet()).is_ok());
    for command in [commands::dot, commands::features] {
        assert!(command(&args(&["--strict", &junk]), &mut quiet()).is_err());
        assert!(command(&args(&[&junk]), &mut quiet()).is_ok());
    }
    let drift = ["--epochs", "2", "--scale", "0.02", "--retrain", "--promote-margin", "abc"];
    assert!(commands::drift(&args(&drift), &mut quiet()).unwrap_err().contains("--promote-margin"));
}

/// A `wire` episode set whose transactions need more client ports than
/// the merged capture can give them is refused with an error that names
/// the limit, before anything is written.
#[test]
fn wire_episode_set_past_the_port_space_is_an_error() {
    let out = tmp("too-many-episodes.pcap");
    let pcap = ["pcap", "--out", &out, "--infections", "2000", "--benign", "2000"];
    let err = dynaminer_cli::wire::wire(&args(&pcap), &mut quiet()).unwrap_err();
    assert!(err.contains("45536 client ports"), "unexpected error: {err}");
    assert!(!std::path::Path::new(&out).exists());
}

#[test]
fn strict_and_lenient_agree_on_clean_captures() {
    let clean = tmp("fiesta.pcap");
    commands::generate(&args(&["--family", "fiesta", "--seed", "11", "--out", &clean]))
        .unwrap();
    let model = trained_model_path();
    commands::classify(&args(&["--model", &model, "--strict", &clean]), &mut quiet()).unwrap();
    commands::classify(&args(&["--model", &model, &clean]), &mut quiet()).unwrap();
    commands::replay(&args(&["--model", &model, "--strict", &clean]), &mut quiet()).unwrap();
    commands::replay(&args(&["--model", &model, &clean]), &mut quiet()).unwrap();
    // A corrupted capture fail-stops strictly but replays leniently.
    let bytes = std::fs::read(&clean).unwrap();
    let hurt = tmp("fiesta-truncated.pcap");
    std::fs::write(&hurt, &bytes[..bytes.len() - 3]).unwrap();
    commands::replay(&args(&["--model", &model, &hurt]), &mut quiet()).unwrap();
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
            let proxy = [
                "proxy", "--listen", "127.0.0.1:0", "--origin", "127.0.0.1:9", "--proxy-protocol",
                "--model", &model, "--metrics-out", &metrics, "--ready-file", &ready,
                "--idle-exit-ms", "300",
            ];
            dynaminer_cli::wire::wire(&args(&proxy), &mut quiet())
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

/// A reader that stops early ends the output, not the run: `replay
/// --format json` of a capture several staging windows long, with its
/// stdout's read end already closed, exits 0 without a panic.
#[test]
fn replay_into_a_closed_pipe_exits_quietly() {
    let capture = tmp("closed-pipe.pcap");
    let pcap = ["pcap", "--out", &capture, "--seed", "9", "--infections", "120", "--benign", "120"];
    dynaminer_cli::wire::wire(&args(&pcap), &mut quiet()).unwrap();
    let model = trained_model_path();
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_dynaminer"))
        .args(["replay", "--model", &model, "--format", "json", &capture])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// `train` refuses a scale that is not a positive number, as `drift`
/// does, before it trains or writes anything.
#[test]
fn train_refuses_a_non_positive_scale() {
    for scale in ["0", "-1", "NaN"] {
        let model = tmp(&format!("scale-{scale}.json"));
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_dynaminer"))
            .args(["train", "--scale", scale, "--out", &model])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--scale {scale}: {stderr}");
        assert_eq!(stderr.lines().next(), Some("error: --scale must be positive"), "{scale}");
        assert!(!std::path::Path::new(&model).exists(), "--scale {scale} wrote a model");
    }
}
