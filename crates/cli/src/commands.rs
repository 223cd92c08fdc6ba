//! Subcommand implementations and minimal flag parsing.

use std::collections::BTreeMap;
use std::fs;

use dynaminer::classifier::Classifier;
use dynaminer::detector::{ClueConfig, DetectorConfig};
use dynaminer::wcg::Wcg;
use dynaminer::features;
use nettrace::source::ReplaySource;
use nettrace::HttpTransaction;
use rand::rngs::StdRng;
use rand::SeedableRng;
use synthtraffic::benign::generate_benign;
use synthtraffic::episode::generate_infection;
use synthtraffic::pcapgen;
use synthtraffic::{BenignScenario, EkFamily};
use wirefront::{RunOptions, RunSummary};

/// Top-level usage text.
pub const USAGE: &str = "\
dynaminer — payload-agnostic web-conversation-graph malware detection

USAGE:
  dynaminer train    [--scale S] [--seed N] [--threads N] [--metrics-out FILE] --out model.json
  dynaminer classify --model model.json [--threads N] [--strict] [--metrics-out FILE] <capture.pcap>...
  dynaminer replay   [--model model.json] [--threshold L] [--threads N] [--shards N] [--format text|json] [--strict] [--metrics-out FILE]
                     [--snapshot-out FILE] [--resume FILE] [--checkpoint-every N] [--pace-ms MS] [--reload-model FILE] [--reload-at N] <capture.pcap>
  dynaminer generate [--family <name> | --benign <scenario>] [--seed N] --out <file.pcap>
  dynaminer drift    [--epochs N] [--scale S] [--seed N] [--shards N] [--retrain] [--promote-margin M]
                     [--out FILE] [--ledger-out FILE] [--metrics-out FILE]
  dynaminer dot      [--strict] <capture.pcap>
  dynaminer features [--strict] <capture.pcap>
  dynaminer inspect  --model model.json [--top N]
  dynaminer wire proxy   --listen ADDR --origin ADDR [--proxy-protocol] [--honor-replay-ts] [--drop-newest]
                         [--model model.json] [--threshold L] [--threads N] [--shards N] [--tap-capacity BYTES]
                         [--max-connections N] [--snapshot-out FILE] [--resume FILE] [--checkpoint-every N]
                         [--reload-model FILE] [--reload-at N] [--metrics-out FILE] [--report-out FILE]
                         [--ready-file FILE] [--idle-exit-ms MS] [--format text|json]
  dynaminer wire capture (--pcap FILE [--follow] | --iface IFACE) [--ports 80,8080] [--honor-replay-ts]
                         [engine flags as for wire proxy]
  dynaminer wire origin  [--seed N] [--infections N] [--benign N] [--ready-file FILE]
  dynaminer wire drive   --proxy ADDR [--proxy-protocol] [--seed N] [--infections N] [--benign N]
  dynaminer wire pcap    --out FILE [--seed N] [--infections N] [--benign N]

Captures are read leniently by default: damaged records and malformed
streams are skipped and accounted in ingest-health counters. --strict
fails on the first unparseable byte instead.

--threads N sets the threads for feature extraction, training and
batch scoring (default: available parallelism; capture ingest always
sizes its own from that, not N). Results are bit-identical at any N.

--metrics-out FILE writes pipeline telemetry after the run: a JSON
snapshot at FILE and Prometheus text exposition at FILE with the
extension swapped to .prom.

replay and wire run one loop over one engine — replay's source is the
capture's transactions in timestamp order, wire's a live proxy or packet
source — so the engine flags mean the same on both. --shards N partitions
the stream by client address across N detectors (default 1; with default
state caps the report is bit-identical at any count). --snapshot-out FILE
checkpoints the engine's durable state to FILE (atomic tmp+rename) every
--checkpoint-every transactions, exactly (default 2048 for replay; 0 for
wire: at the end only), and at end of stream. --resume FILE restores a
checkpoint first, at any --shards count; a resumed replay skips what the
checkpoint covers and reports byte-identically to an uninterrupted run,
and refuses a checkpoint of another capture. --pace-ms (replay) sleeps
between checkpoints (crash drills). --reload-model FILE [--reload-at N]
hot-swaps in a second model at the first checkpoint boundary once N
transactions have been fed, or before the final verdicts if none comes.

wire runs the on-the-wire ingress: `wire proxy` is an inline HTTP
forward proxy (optionally PROXY-protocol v1/v2 aware) and `wire
capture` a packet source (pcap tail or AF_PACKET interface).
SIGTERM/SIGINT triggers a graceful zero-loss drain. `wire origin`,
`wire drive`, and `wire pcap` are the loopback parity harness: a
deterministic replay origin, an episode driver, and the equivalent
offline capture for the same --seed/--infections/--benign.

drift runs a seeded adversarial-drift campaign: per-family evasion
parameters walk over simulated time while each epoch replays through a
persistent stream engine, printing per-epoch recall/FPR/latency next to
a simulated VirusTotal. --retrain enables the shadow champion/challenger
loop (atomic model promotion between epochs; --promote-margin sets the
minimum recall gain, default 0.02). --out writes the decay curve as
JSON, --ledger-out the promotion ledger.

Families:  angler rig nuclear magnitude sweetorange flashpack neutrino goon fiesta other
Scenarios: search social webmail video alexa-browse software-update unofficial-download torrent-session";

/// Parsed `--flag value` options plus positional arguments.
pub(crate) struct Options {
    pub(crate) flags: BTreeMap<String, String>,
    pub(crate) positional: Vec<String>,
}

/// Flags that take no value.
const BOOL_FLAGS: [&str; 6] =
    ["strict", "retrain", "proxy-protocol", "honor-replay-ts", "drop-newest", "follow"];

pub(crate) fn parse(args: &[String]) -> Result<Options, String> {
    let mut flags = BTreeMap::new();
    let mut positional = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if let Some(name) = arg.strip_prefix("--") {
            if BOOL_FLAGS.contains(&name) {
                flags.insert(name.to_string(), "true".to_string());
                continue;
            }
            let value = iter
                .next()
                .ok_or_else(|| format!("flag --{name} requires a value"))?;
            flags.insert(name.to_string(), value.clone());
        } else {
            positional.push(arg.clone());
        }
    }
    Ok(Options { flags, positional })
}

impl Options {
    pub(crate) fn f64_flag(&self, name: &str, default: f64) -> Result<f64, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name} expects a number, got {v:?}")),
        }
    }

    pub(crate) fn u64_flag(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name} expects an integer, got {v:?}")),
        }
    }

    pub(crate) fn required(&self, name: &str) -> Result<&str, String> {
        self.flags
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    pub(crate) fn bool_flag(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// Worker threads from `--threads` (default: available parallelism;
    /// `0` also means "auto").
    pub(crate) fn threads_flag(&self) -> Result<usize, String> {
        Ok(mlearn::parallel::resolve_threads(self.u64_flag("threads", 0)? as usize))
    }
}

/// Writes the registry as a JSON snapshot at `path` plus Prometheus
/// text exposition at `path` with the extension swapped to `.prom`
/// (`metrics.json` → `metrics.prom`; extensionless paths just gain
/// `.prom`).
pub(crate) fn write_metrics(registry: &telemetry::Registry, path: &str) -> Result<(), String> {
    let snapshot = registry.snapshot();
    let json = serde_json::to_string_pretty(&snapshot).map_err(|e| e.to_string())?;
    fs::write(path, json + "\n").map_err(|e| format!("cannot write {path}: {e}"))?;
    let prom_path = match path.rsplit_once('.') {
        Some((stem, ext)) if !ext.contains('/') => format!("{stem}.prom"),
        _ => format!("{path}.prom"),
    };
    fs::write(&prom_path, registry.render_prometheus())
        .map_err(|e| format!("cannot write {prom_path}: {e}"))?;
    eprintln!("metrics written to {path} and {prom_path}");
    Ok(())
}

/// Reads a capture (classic pcap or pcapng, detected by magic) under
/// the strict policy — the first unparseable byte is the error — or the
/// lenient one, which salvages whatever the capture still holds and
/// accounts the losses in the returned report; then only an unreadable
/// file is an error.
fn load_capture(
    path: &str,
    strict: bool,
) -> Result<(Vec<HttpTransaction>, Option<nettrace::IngestReport>), String> {
    let bytes = fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if strict {
        let txs = nettrace::SpanPipeline::extract_capture_strict(&bytes)
            .map_err(|e| format!("{path}: {e}"))?;
        return Ok((txs, None));
    }
    let mut report = nettrace::IngestReport::new();
    let txs = nettrace::SpanPipeline::extract_capture_lenient(&bytes, &mut report);
    Ok((txs, Some(report)))
}

/// On-disk model format: the classifier plus provenance metadata.
#[derive(serde::Serialize, serde::Deserialize)]
struct SavedModel {
    format_version: u32,
    trained_on: String,
    scale: f64,
    seed: u64,
    classifier: Classifier,
}

const MODEL_FORMAT_VERSION: u32 = 1;

pub(crate) fn load_model(path: &str) -> Result<Classifier, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_model(path, &text)
}

/// [`load_model`] of `text`, the contents of the file `path`.
fn parse_model(path: &str, text: &str) -> Result<Classifier, String> {
    let saved: SavedModel = serde_json::from_str(text)
        .map_err(|e| format!("{path} is not a valid model: {e}"))?;
    if saved.format_version != MODEL_FORMAT_VERSION {
        return Err(format!(
            "{path} uses model format {} but this build expects {MODEL_FORMAT_VERSION}",
            saved.format_version
        ));
    }
    saved.classifier.check().map_err(|e| format!("{path} is not a valid model: {e}"))?;
    Ok(saved.classifier)
}

/// `dynaminer train` — train on the calibrated synthetic ground truth and
/// save the model as JSON.
pub fn train(args: &[String]) -> Result<(), String> {
    let opts = parse(args)?;
    let scale = opts.f64_flag("scale", 0.25)?;
    let seed = opts.u64_flag("seed", 42)?;
    let threads = opts.threads_flag()?;
    let out = opts.required("out")?;
    eprintln!("training on ground-truth corpus (scale {scale}, seed {seed}, {threads} threads)…");
    let registry = telemetry::Registry::new();
    let metrics_out = opts.flags.get("metrics-out");
    let corpus = synthtraffic::ground_truth(seed, scale);
    let classifier = driftlab::fit_forest(&corpus, seed, threads, metrics_out.map(|_| &registry));
    let saved = SavedModel {
        format_version: MODEL_FORMAT_VERSION,
        trained_on: "synthtraffic ground truth (Table I calibration)".to_string(),
        scale,
        seed,
        classifier,
    };
    let json = serde_json::to_string(&saved).map_err(|e| e.to_string())?;
    fs::write(out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!("model written to {out}");
    if let Some(path) = metrics_out {
        write_metrics(&registry, path)?;
    }
    Ok(())
}

/// `dynaminer classify` — score each capture's WCG with a trained model.
/// Captures are featurized and scored as one batch across the worker
/// pool, so classifying a directory of captures scales with `--threads`.
pub fn classify(args: &[String]) -> Result<(), String> {
    let opts = parse(args)?;
    let classifier = load_model(opts.required("model")?)?;
    let threads = opts.threads_flag()?;
    if opts.positional.is_empty() {
        return Err("no capture files given".into());
    }
    let registry = telemetry::Registry::new();
    let metrics_out = opts.flags.get("metrics-out");
    let extraction_ns = registry.latency_histogram(
        "classifier_feature_extraction_ns",
        "WCG construction + 37-feature extraction latency per capture",
    );
    let scoring_ns = registry.latency_histogram(
        "classifier_scoring_ns",
        "Random-forest scoring latency per classification or batch",
    );
    let verdicts =
        registry.counter("classify_infection_verdicts_total", "Captures judged infectious");
    // Load + featurize every capture first, then score all of them in one
    // batched forest pass.
    struct Loaded {
        txs: usize,
        hosts: usize,
        fv: Option<features::FeatureVector>,
        ingest: Option<nettrace::IngestReport>,
    }
    let mut loaded = Vec::new();
    for path in &opts.positional {
        let (txs, ingest) = load_capture(path, opts.bool_flag("strict"))?;
        if let Some(report) = &ingest {
            nettrace::ingest::publish(&registry, report);
        }
        // A lenient read that salvaged nothing has no conversation to
        // judge; a verdict over zero evidence would be noise.
        if txs.is_empty() && ingest.is_some() {
            loaded.push(Loaded { txs: 0, hosts: 0, fv: None, ingest });
        } else {
            let started = std::time::Instant::now();
            let wcg = Wcg::from_transactions(&txs);
            let fv = features::extract(&wcg);
            extraction_ns.observe_since(started);
            loaded.push(Loaded {
                txs: txs.len(),
                hosts: wcg.remote_host_count(),
                fv: Some(fv),
                ingest,
            });
        }
    }
    let fvs: Vec<features::FeatureVector> =
        loaded.iter().filter_map(|l| l.fv.clone()).collect();
    let started = std::time::Instant::now();
    let scored = classifier.score_features_batch(&fvs, threads);
    scoring_ns.observe_since(started);
    let mut scores = scored.into_iter();
    for (path, item) in opts.positional.iter().zip(&loaded) {
        if item.fv.is_none() {
            println!("{path}: 0 transactions recovered, no verdict");
        } else {
            let score = scores.next().expect("one score per featurized capture");
            if score >= 0.5 {
                verdicts.inc();
            }
            println!(
                "{path}: {} transactions, {} hosts, P(infection) = {score:.3} → {}",
                item.txs,
                item.hosts,
                if score >= 0.5 { "INFECTION" } else { "benign" },
            );
        }
        if let Some(report) = &item.ingest {
            println!("  ingest: {report}");
        }
    }
    if let Some(path) = metrics_out {
        write_metrics(&registry, path)?;
    }
    Ok(())
}

/// What `replay` and `wire` do the same way from the same flags: model
/// (`--model`, or a default trained on the spot), `--threshold`,
/// `--threads`, `--shards`, a fresh engine or a `--resume`d one,
/// `--reload-model`/`--reload-at`, the `--snapshot-out` sink and
/// `--checkpoint-every` (`default_cadence` when absent). `drive` gets
/// the engine and the [`RunOptions`] that amounts to; `stats` is the
/// registry whose snapshot should ride on the report, if any.
pub(crate) fn run_engine(
    opts: &Options,
    registry: &telemetry::Registry,
    default_cadence: u64,
    stats: Option<&telemetry::Registry>,
    drive: impl FnOnce(&mut streamd::StreamEngine, RunOptions<'_>) -> Result<RunSummary, String>,
) -> Result<RunSummary, String> {
    let threads = opts.threads_flag()?;
    let classifier = match opts.flags.get("model") {
        Some(path) => load_model(path)?,
        None => {
            eprintln!("no --model given; training a default model first…");
            let metrics_out = opts.flags.get("metrics-out");
            let corpus = synthtraffic::ground_truth(42, 0.25);
            driftlab::fit_forest(&corpus, 42, threads, metrics_out.map(|_| registry))
        }
    };
    let detector_config = DetectorConfig {
        clue: ClueConfig {
            redirect_threshold: opts.u64_flag("threshold", 2)? as usize,
            ..ClueConfig::default()
        },
        scoring_threads: threads,
        ..DetectorConfig::default()
    };
    let stream_config = streamd::StreamConfig {
        shards: (opts.u64_flag("shards", 1)? as usize).max(1),
        ..streamd::StreamConfig::default()
    };
    let mut engine = match opts.flags.get("resume") {
        Some(p) => streamd::StreamEngine::restore(
            classifier,
            detector_config,
            stream_config,
            registry,
            streamd::read_snapshot(std::path::Path::new(p))?,
        ),
        None => {
            streamd::StreamEngine::with_telemetry(classifier, detector_config, stream_config, registry)
        }
    };
    let reload = match opts.flags.get("reload-model") {
        // Reload models go through load_model, so they pass the same
        // format-version gate as the initial --model.
        Some(p) => Some((load_model(p)?, opts.u64_flag("reload-at", 0)?)),
        None => None,
    };
    let mut sink = opts.flags.get("snapshot-out").map(|p| {
        let path = std::path::PathBuf::from(p);
        move |snap: &streamd::EngineSnapshot| streamd::write_snapshot_atomic(&path, snap)
    });
    let run_opts = RunOptions {
        checkpoint_every: opts.u64_flag("checkpoint-every", default_cadence)?,
        snapshot_sink: sink.as_mut().map(|f| f as wirefront::SnapshotSink<'_>),
        reload,
        idle_timeout: None,
        poll_wait_ms: 50,
        scoring_threads: threads,
        registry: stats,
    };
    drive(&mut engine, run_opts)
}

/// `dynaminer replay` — forensic replay of a capture through the full
/// detector (session clustering, clue gate, WCG classification): the
/// capture's transactions as a [`ReplaySource`] into the engine and run
/// loop `wire` attaches to live traffic.
pub fn replay(args: &[String]) -> Result<(), String> {
    let opts = parse(args)?;
    let registry = telemetry::Registry::new();
    let metrics_out = opts.flags.get("metrics-out");
    let stats = metrics_out.map(|_| &registry);
    let [path] = opts.positional.as_slice() else {
        return Err("replay expects exactly one capture file".into());
    };
    let mut ingest = None;
    let summary = run_engine(&opts, &registry, 2048, stats, |engine, run_opts| {
        let txs;
        (txs, ingest) = load_capture(path, opts.bool_flag("strict"))?;
        if let (Some(registry), Some(ingest)) = (stats, &ingest) {
            nettrace::ingest::publish(registry, ingest);
        }
        let mut source = ReplaySource::new(txs);
        let pace_ms = opts.u64_flag("pace-ms", 0)?;
        if pace_ms > 0 {
            // One checkpoint's worth per pump, so the sleep falls
            // between consecutive checkpoints.
            let per_pump = usize::try_from(run_opts.checkpoint_every).unwrap_or(usize::MAX);
            source = source.paced(per_pump, std::time::Duration::from_millis(pace_ms));
        }
        wirefront::replay(source, engine, run_opts)
    })?;
    let mut report = summary.report;
    report.ingest = ingest;
    if let Some(path) = metrics_out {
        write_metrics(&registry, path)?;
    }
    if opts.flags.get("format").map(String::as_str) == Some("json") {
        let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        println!("{json}");
        return Ok(());
    }
    println!(
        "{path}: {} transactions, {} conversations, {} alert(s)",
        report.transactions,
        report.conversations.len(),
        report.alerts
    );
    if let Some(ingest) = &report.ingest {
        println!("  ingest: {ingest}");
    }
    if let Some(stats) = &report.stats {
        println!(
            "  stats: {} clue(s), {} WCG rebuild(s), {} re-classification(s), {} eviction(s)",
            stats.counter("detector_clues_total"),
            stats.counter("detector_wcg_rebuilds_total"),
            stats.counter("detector_reclassifications_total"),
            stats.counter("session_retention_evictions_total")
                + stats.counter("session_cap_evictions_total"),
        );
    }
    for verdict in &report.conversations {
        println!(
            "  conversation {}: {} txs, {} hosts, score {:.3}{}",
            verdict.id,
            verdict.transactions,
            verdict.hosts,
            verdict.score,
            if verdict.alerted { "  ← ALERT" } else { "" },
        );
    }
    for d in &report.downloads {
        println!("  download {} {} {}B digest={:016x}", d.host, d.class, d.size, d.digest);
    }
    Ok(())
}

/// `dynaminer generate` — write a synthetic episode as a pcap file.
pub fn generate(args: &[String]) -> Result<(), String> {
    let opts = parse(args)?;
    let seed = opts.u64_flag("seed", 1)?;
    let out = opts.required("out")?;
    let mut rng = StdRng::seed_from_u64(seed);
    let episode = match (opts.flags.get("family"), opts.flags.get("benign")) {
        (Some(f), None) => {
            let family = parse_family(f)?;
            generate_infection(&mut rng, family, 1.45e9)
        }
        (None, Some(s)) => {
            let scenario = parse_scenario(s)?;
            generate_benign(&mut rng, scenario, 1.45e9)
        }
        (None, None) => generate_infection(&mut rng, EkFamily::Angler, 1.45e9),
        (Some(_), Some(_)) => {
            return Err("--family and --benign are mutually exclusive".into())
        }
    };
    let pcap = pcapgen::episodes_pcap(std::slice::from_ref(&episode));
    fs::write(out, pcap).map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!(
        "{out}: {} transactions, {} hosts, label {:?}",
        episode.transactions.len(),
        episode.unique_hosts(),
        episode.label
    );
    Ok(())
}

/// `dynaminer drift` — run an adversarial drift campaign and print the
/// detector's decay curve (optionally with shadow retraining).
pub fn drift(args: &[String]) -> Result<(), String> {
    let opts = parse(args)?;
    let epochs = opts.u64_flag("epochs", 6)? as usize;
    let scale = opts.f64_flag("scale", 0.05)?;
    let seed = opts.u64_flag("seed", 42)?;
    let shards = opts.u64_flag("shards", 1)? as usize;
    if epochs == 0 {
        return Err("--epochs must be at least 1".into());
    }
    if !scale.is_finite() || scale <= 0.0 {
        return Err("--scale must be positive".into());
    }
    let min_recall_gain = opts.f64_flag("promote-margin", 0.02)?;
    let retrain = opts.bool_flag("retrain").then(|| driftlab::RetrainConfig {
        policy: driftlab::PromotionPolicy {
            min_recall_gain,
            ..driftlab::PromotionPolicy::default()
        },
        ..driftlab::RetrainConfig::default()
    });
    let config = driftlab::DriftLabConfig {
        schedule: driftlab::DriftScheduleConfig {
            seed,
            scale,
            epochs,
            ..driftlab::DriftScheduleConfig::default()
        },
        shards,
        train_scale: scale,
        retrain,
        ..driftlab::DriftLabConfig::default()
    };

    eprintln!(
        "drift campaign: {epochs} epochs, scale {scale}, seed {seed}, {shards} shard(s), retrain {}…",
        if config.retrain.is_some() { "on" } else { "off" }
    );
    let registry = telemetry::Registry::new();
    let metrics_out = opts.flags.get("metrics-out");
    let out = driftlab::run_drift_lab(&config, Some(&registry));

    println!(
        "{:<6} {:>8} {:>8} {:>10} {:>9} {:>9} {:>7}",
        "epoch", "recall", "fpr", "latency-s", "vt-live", "vt-end", "model"
    );
    for e in &out.curve.entries {
        println!(
            "{:<6} {:>8.3} {:>8.3} {:>10} {:>9.3} {:>9.3} {:>7}",
            e.epoch,
            e.recall,
            e.fpr,
            e.mean_alert_latency.map_or_else(|| "-".into(), |l| format!("{l:.1}")),
            e.vt_recall_live,
            e.vt_recall_epoch_end,
            e.model_version,
        );
    }
    for entry in &out.ledger {
        println!(
            "epoch {}: challenger margin {:+.3} (fpr {:+.3}) -> {}",
            entry.epoch,
            entry.recall_margin,
            entry.fpr_regression,
            if entry.promoted {
                format!("promoted to v{}", entry.model_version_after)
            } else {
                "held".into()
            },
        );
    }

    if let Some(path) = opts.flags.get("out") {
        let json = serde_json::to_string_pretty(&out.curve).map_err(|e| e.to_string())?;
        fs::write(path, json + "\n").map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("decay curve written to {path}");
    }
    if let Some(path) = opts.flags.get("ledger-out") {
        let json = serde_json::to_string_pretty(&out.ledger).map_err(|e| e.to_string())?;
        fs::write(path, json + "\n").map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("promotion ledger written to {path}");
    }
    if let Some(path) = metrics_out {
        write_metrics(&registry, path)?;
    }
    Ok(())
}

/// The WCG of the one capture `dot` and `features` read; `None`, said
/// on stderr, when a lenient read recovered no transaction.
fn capture_wcg(args: &[String], command: &str) -> Result<Option<Wcg>, String> {
    let opts = parse(args)?;
    let [path] = opts.positional.as_slice() else {
        return Err(format!("{command} expects exactly one capture file"));
    };
    let (txs, ingest) = load_capture(path, opts.bool_flag("strict"))?;
    if let Some(report) = ingest.filter(|_| txs.is_empty()) {
        eprintln!("{path}: 0 transactions recovered, no WCG\n  ingest: {report}");
        return Ok(None);
    }
    Ok(Some(Wcg::from_transactions(&txs)))
}

/// `dynaminer dot` — print the capture's WCG in Graphviz DOT format.
pub fn dot(args: &[String]) -> Result<(), String> {
    if let Some(wcg) = capture_wcg(args, "dot")? {
        println!("{}", wcg.to_dot("wcg"));
    }
    Ok(())
}

/// `dynaminer features` — print the capture's 37 feature values.
pub fn features(args: &[String]) -> Result<(), String> {
    let Some(wcg) = capture_wcg(args, "features")? else {
        return Ok(());
    };
    let fv = features::extract(&wcg);
    for (name, value) in features::NAMES.iter().zip(fv.values()) {
        println!("{name:<30} {value:.6}");
    }
    Ok(())
}

/// `dynaminer inspect` — print a trained model's feature importances.
pub fn inspect(args: &[String]) -> Result<(), String> {
    let opts = parse(args)?;
    let classifier = load_model(opts.required("model")?)?;
    let top = opts.u64_flag("top", 20)? as usize;
    println!("feature importances (mean decrease in impurity):");
    for (name, importance) in classifier.feature_importances().into_iter().take(top) {
        let bar_len = (importance * 200.0).round() as usize;
        println!("  {name:<30} {importance:>7.4} {}", "#".repeat(bar_len.min(60)));
    }
    Ok(())
}

fn parse_family(name: &str) -> Result<EkFamily, String> {
    let lowered = name.to_ascii_lowercase();
    EkFamily::ALL
        .into_iter()
        .find(|f| f.name().to_ascii_lowercase().replace(' ', "") == lowered.replace('-', ""))
        .or(match lowered.as_str() {
            "other" => Some(EkFamily::OtherKits),
            _ => None,
        })
        .ok_or_else(|| format!("unknown family {name:?}; see `dynaminer help`"))
}

fn parse_scenario(name: &str) -> Result<BenignScenario, String> {
    BenignScenario::WEIGHTED
        .iter()
        .map(|&(s, _)| s)
        .find(|s| s.label() == name.to_ascii_lowercase())
        .ok_or_else(|| format!("unknown scenario {name:?}; see `dynaminer help`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_splits_flags_and_positionals() {
        let args: Vec<String> =
            ["--seed", "7", "a.pcap", "--out", "x", "b.pcap"].iter().map(|s| s.to_string()).collect();
        let opts = parse(&args).unwrap();
        assert_eq!(opts.flags["seed"], "7");
        assert_eq!(opts.flags["out"], "x");
        assert_eq!(opts.positional, ["a.pcap", "b.pcap"]);
    }

    #[test]
    fn parse_rejects_dangling_flag() {
        let args = vec!["--out".to_string()];
        assert!(parse(&args).is_err());
    }

    #[test]
    fn strict_flag_consumes_no_value() {
        let args: Vec<String> =
            ["--strict", "a.pcap"].iter().map(|s| s.to_string()).collect();
        let opts = parse(&args).unwrap();
        assert!(opts.bool_flag("strict"));
        assert!(!opts.bool_flag("lenient"));
        assert_eq!(opts.positional, ["a.pcap"]);
        // Trailing --strict is fine too (no dangling-value error).
        let args = vec!["a.pcap".to_string(), "--strict".to_string()];
        assert!(parse(&args).unwrap().bool_flag("strict"));
    }

    /// A small trained model file's text.
    fn model_text() -> String {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let mut items = Vec::new();
        for i in 0..6 {
            let infection = synthtraffic::episode::generate_infection(
                &mut rng, EkFamily::ALL[i], 1.4e9);
            let scenario = BenignScenario::WEIGHTED[i].0;
            let benign = synthtraffic::benign::generate_benign(&mut rng, scenario, 1.43e9);
            items.push((infection.transactions, true));
            items.push((benign.transactions, false));
        }
        let data = dynaminer::classifier::build_dataset(items.iter().map(|(t, l)| (t.as_slice(), *l)));
        let saved = SavedModel {
            format_version: MODEL_FORMAT_VERSION,
            trained_on: "test".to_string(),
            scale: 0.0,
            seed: 5,
            classifier: Classifier::fit_default(&data, 5),
        };
        serde_json::to_string(&saved).unwrap()
    }

    /// Every truncation of a model file is an error: 4 096 evenly spaced
    /// cuts, and every cut within its first and last 4 KiB.
    #[test]
    fn every_prefix_of_a_model_is_an_error() {
        let text = model_text();
        parse_model("m.json", &text).unwrap();
        let n = text.len();
        let spaced = (0..4096).map(|i| i * n / 4096);
        let ends = (0..4096.min(n)).chain(n.saturating_sub(4096)..n);
        for cut in spaced.chain(ends) {
            let Some(prefix) = text.get(..cut) else { continue };
            assert!(parse_model("m.json", prefix).is_err(), "the first {cut} of {n} bytes loaded");
        }
    }

    /// A model file with one bit flipped either fails to load or loads a
    /// model that scores without panicking: 2 000 seeded flips.
    #[test]
    fn bit_flipped_models_load_only_if_they_score() {
        use dynaminer::features::{FeatureVector, FEATURE_COUNT};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let text = model_text();
        let mut rng = StdRng::seed_from_u64(17);
        let (mut loaded, mut refused) = (0, 0);
        for _ in 0..2000 {
            let mut bytes = text.clone().into_bytes();
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= 1 << rng.gen_range(0..8u32);
            // Text that is not UTF-8 is refused before parsing.
            let Ok(flipped) = std::str::from_utf8(&bytes) else {
                refused += 1;
                continue;
            };
            match parse_model("m.json", flipped) {
                Ok(model) => {
                    let row = FeatureVector([rng.gen_range(0.0..100.0); FEATURE_COUNT]);
                    std::hint::black_box(model.score_features(&row));
                    loaded += 1;
                }
                Err(_) => refused += 1,
            }
        }
        assert!(loaded > 0 && refused > 0, "{loaded} loaded, {refused} refused");
    }

    #[test]
    fn family_and_scenario_names_resolve() {
        assert_eq!(parse_family("angler").unwrap(), EkFamily::Angler);
        assert_eq!(parse_family("sweetorange").unwrap(), EkFamily::SweetOrange);
        assert_eq!(parse_family("other").unwrap(), EkFamily::OtherKits);
        assert!(parse_family("nope").is_err());
        assert_eq!(parse_scenario("search").unwrap(), BenignScenario::Search);
        assert_eq!(
            parse_scenario("torrent-session").unwrap(),
            BenignScenario::TorrentSession
        );
        assert!(parse_scenario("bogus").is_err());
    }
}
