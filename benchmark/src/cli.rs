//! Arguments, the run itself, and what it prints and writes.

use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::Value;

use crate::check::Verdict;
use crate::env::{self, Allocator};
use crate::gen::Fingerprint;
use crate::metrics::{self, Layers, Passes, END_TO_END, WORKLOADS};
use crate::pcap::Kind;
use crate::stats::{self, Quartiles};
use crate::trace::Tracer;
use crate::{layers, pcap, stream, wire};

/// Times set-up runs in an end-to-end run; `setup_s` is their median.
/// The first builds the inputs the passes run on; the others are spread
/// over the measuring window (their inputs are dropped at once), so one
/// slow spell of the host does not fall on all of them.
const SETUP_REPEATS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

const USAGE: &str =
    "usage: wirebench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
       wirebench --describe";

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 11,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--describe" {
            return Ok(None);
        }
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}\n{USAGE}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(bad("between 0 and 60"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    if !WORKLOADS.iter().any(|(name, _)| *name == args.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!(
            "--workload must be one of {}\n{USAGE}",
            names.join(", ")
        ));
    }
    Ok(Some(args))
}

/// A workload's generated inputs.
enum Inputs {
    Pcap(Kind, pcap::Inputs),
    Stream(stream::Inputs),
    Wire(wire::Inputs),
}

impl Inputs {
    fn build(workload: &str, seed: u64) -> Inputs {
        match workload {
            "pcap_bulk" => Inputs::Pcap(Kind::Bulk, pcap::setup(seed, Kind::Bulk)),
            "pcap_lossy" => Inputs::Pcap(Kind::Lossy, pcap::setup(seed, Kind::Lossy)),
            "stream_benign" => {
                let clients = stream::BENIGN_CLIENTS;
                Inputs::Stream(stream::setup(seed, clients, clients / 50))
            }
            "stream_infected" => {
                let clients = stream::INFECTED_CLIENTS;
                Inputs::Stream(stream::setup(seed, clients, clients / 2))
            }
            "wire_proxy" => Inputs::Wire(wire::setup(seed)),
            other => unreachable!("workload {other} passed validation"),
        }
    }

    fn fingerprint(&self) -> &Fingerprint {
        match self {
            Inputs::Pcap(_, i) => &i.capture.fingerprint,
            Inputs::Stream(i) => &i.fingerprint,
            Inputs::Wire(i) => &i.fingerprint,
        }
    }
}

/// Entry point of both binaries. `allocations` reads the binary's
/// allocation counter (always 0 for the end-to-end binary).
pub fn main(allocator: Allocator, allocations: fn() -> u64) -> std::process::ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!(
                "{}",
                serde_json::to_string_pretty(&metrics::describe()).expect("plain JSON")
            );
            return std::process::ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("{message}");
            return std::process::ExitCode::from(2);
        }
    };
    if args.trace != (allocator == Allocator::Counting) {
        eprintln!("--trace 1 runs in wirebench-traced, --trace 0 in wirebench (run.sh picks)");
        return std::process::ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("cannot create {}: {e}", args.out_dir.display());
        return std::process::ExitCode::from(2);
    }

    let mut verdict = Verdict::default();
    let (metrics, result) = if args.trace {
        run_traced(&args, allocations, &mut verdict)
    } else {
        run_e2e(&args, &mut verdict)
    };
    let correct = verdict.failed == 0;
    for reason in &verdict.reasons {
        eprintln!("check failed: {reason}");
    }

    let mut file = vec![
        ("workload".to_string(), Value::String(args.workload.clone())),
        (
            "environment".to_string(),
            env::fingerprint(args.seed, result.passes, allocator),
        ),
        ("input".to_string(), result.fingerprint.to_value()),
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::UInt(verdict.attempted)),
        ("failed".to_string(), Value::UInt(verdict.failed)),
        (
            "failures".to_string(),
            Value::Array(verdict.reasons.iter().cloned().map(Value::String).collect()),
        ),
    ];
    file.extend(result.extra);
    let kind = if args.trace { "layers" } else { "result" };
    write_json(
        &args.out_dir.join(format!("{kind}-{}.json", args.workload)),
        &Value::Object(file),
    );

    let fp = &result.fingerprint;
    println!(
        "{} seed {}: {} transactions, {} packets, {} bytes, {} clients, {:.3} infected, input {:016x}",
        args.workload, args.seed, fp.transactions, fp.packets, fp.bytes, fp.distinct_clients,
        fp.infection_share, fp.digest
    );
    for (name, value, unit) in &metrics {
        println!("{name:<42} {value:>16.4} {unit}");
    }
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(verdict.attempted.max(1))),
        ("failed".into(), Value::UInt(verdict.failed)),
        ("metrics".into(), metric_cells(&metrics)),
    ]);
    println!("{}", serde_json::to_string(&line).expect("plain JSON"));
    if correct {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::from(1)
    }
}

type Rows = Vec<(&'static str, f64, &'static str)>;

/// What a run hands back for its result file.
struct RunResult {
    fingerprint: Fingerprint,
    passes: usize,
    extra: Vec<(String, Value)>,
}

/// `{name: {"value", "unit"}}`, the shape the driver reads.
fn metric_cells(rows: &Rows) -> Value {
    Value::Object(
        rows.iter()
            .map(|(name, value, unit)| {
                let cell = Value::Object(vec![
                    ("value".into(), Value::Float(*value)),
                    ("unit".into(), Value::String((*unit).into())),
                ]);
                ((*name).to_string(), cell)
            })
            .collect(),
    )
}

fn quartiles_value(q: &Quartiles, reported: f64, unit: &str) -> Value {
    Value::Object(vec![
        ("reported".into(), Value::Float(reported)),
        ("median".into(), Value::Float(q.median)),
        ("q1".into(), Value::Float(q.q1)),
        ("q3".into(), Value::Float(q.q3)),
        ("samples".into(), Value::UInt(q.samples as u64)),
        ("unit".into(), Value::String(unit.into())),
    ])
}

fn write_json(path: &Path, value: &Value) {
    let text = serde_json::to_string_pretty(value).expect("plain JSON");
    if let Err(e) = std::fs::write(path, text + "\n") {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

/// Tracing off: the timed passes, with the set-ups timed among them.
fn run_e2e(args: &Args, verdict: &mut Verdict) -> (Rows, RunResult) {
    let mut setup_s = Vec::new();
    let mut timed_setup = || {
        let started = Instant::now();
        let inputs = Inputs::build(&args.workload, args.seed);
        setup_s.push(started.elapsed().as_secs_f64());
        inputs
    };
    let inputs = timed_setup();
    let mut setups = 1;
    let mut between = |window_share: f64| {
        if setups < SETUP_REPEATS && window_share * SETUP_REPEATS as f64 >= setups as f64 {
            setups += 1;
            drop(timed_setup());
        }
    };
    let passes: Passes = match &inputs {
        Inputs::Pcap(kind, i) => pcap::e2e(i, *kind, args.seconds, &mut between, verdict),
        Inputs::Stream(i) => stream::e2e(i, args.seconds, &mut between, verdict),
        Inputs::Wire(i) => wire::e2e(i, args.seconds, &mut between, verdict),
    };
    // A window too short to hold them all: the rest follow it.
    for _ in 1..SETUP_REPEATS {
        between(1.0);
    }
    // The host slows everything down for seconds at a time and never
    // speeds anything up, so the two per-pass figures report the quartile
    // of passes it disturbed least; set-up, timed five times, its median.
    let (tx_per_s, cpu_us_per_tx) = (
        stats::quartiles(&passes.tx_per_s()),
        stats::quartiles(&passes.cpu_us_per_tx()),
    );
    let setup = stats::quartiles(&setup_s);
    let series = [
        ("tx_per_s", tx_per_s.q3, tx_per_s),
        ("cpu_us_per_tx", cpu_us_per_tx.q1, cpu_us_per_tx),
        (
            "peak_rss_mb",
            passes.peak_rss_mib,
            stats::quartiles(&[passes.peak_rss_mib]),
        ),
        ("setup_s", setup.median, setup),
    ];
    let mut rows = Rows::new();
    let mut detail = Vec::new();
    for (&(name, unit, _, _), (series_name, reported, q)) in END_TO_END.iter().zip(&series) {
        assert_eq!(name, *series_name, "series follow the declared order");
        rows.push((name, *reported, unit));
        detail.push((name.to_string(), quartiles_value(q, *reported, unit)));
    }
    let result = RunResult {
        fingerprint: inputs.fingerprint().clone(),
        passes: passes.passes.len(),
        extra: vec![
            ("end_to_end".into(), Value::Object(detail)),
            (
                "pass_wall_ms".into(),
                Value::Array(
                    passes
                        .passes
                        .iter()
                        .map(|p| Value::Float(p.wall_ns as f64 / 1e6))
                        .collect(),
                ),
            ),
        ],
    };
    (rows, result)
}

/// Tracing on: one set-up, then the workload stage by stage.
fn run_traced(args: &Args, allocations: fn() -> u64, verdict: &mut Verdict) -> (Rows, RunResult) {
    let inputs = Inputs::build(&args.workload, args.seed);
    let mut tracer = Tracer::new();
    let mut values = Layers::default();
    match &inputs {
        Inputs::Pcap(kind, i) => {
            layers::setup_layers(&i.model, i.generate_s, i.render_s, &mut values);
            pcap::traced(
                i,
                *kind,
                args.seconds,
                &args.out_dir,
                allocations,
                &mut tracer,
                &mut values,
                verdict,
            );
        }
        Inputs::Stream(i) => {
            layers::setup_layers(&i.model, i.generate_s, 0.0, &mut values);
            let snapshot_probe = args.workload == "stream_benign";
            stream::traced(
                i,
                args.seconds,
                snapshot_probe,
                allocations,
                &mut tracer,
                &mut values,
                verdict,
            );
        }
        Inputs::Wire(i) => {
            layers::setup_layers(&i.model, i.generate_s, 0.0, &mut values);
            wire::traced(i, args.seconds, &mut tracer, &mut values, verdict);
        }
    }
    let self_times = Value::Object(
        tracer
            .self_times()
            .into_iter()
            .map(|(name, ns)| (name.to_string(), Value::UInt(ns)))
            .collect(),
    );
    write_json(
        &args.out_dir.join(format!("trace-{}.json", args.workload)),
        &Value::Object(vec![
            ("workload".into(), Value::String(args.workload.clone())),
            ("seed".into(), Value::UInt(args.seed)),
            ("self_time_ns".into(), self_times),
            ("spans".into(), tracer.to_value()),
        ]),
    );
    let rows: Rows = values.rows().collect();
    let result = RunResult {
        fingerprint: inputs.fingerprint().clone(),
        passes: tracer.passes() as usize,
        extra: vec![("per_layer".into(), metric_cells(&rows))],
    };
    (rows, result)
}
