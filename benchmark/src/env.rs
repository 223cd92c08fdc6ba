//! Environment fingerprint and process-level gauges.
//!
//! Every result file carries the fingerprint so that results from
//! different hosts, toolchains or build settings are never compared.

use serde::Value;

/// Which allocator the running binary registered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Allocator {
    /// `std::alloc::System`, untouched (end-to-end runs).
    System,
    /// `System` behind an acquisition counter (traced runs).
    Counting,
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A `kB` field of `/proc/self/status`, in MiB (0 where procfs is absent).
fn status_mib(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| {
            l.strip_prefix(field)?
                .trim()
                .strip_suffix("kB")?
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// The fingerprint object written into every result file. `rustc` and
/// `commit` come from `run.sh` through the environment: the driver's
/// checkout is not a git repository, so the commit may be `unknown`.
pub fn fingerprint(seed: u64, passes: usize, allocator: Allocator) -> Value {
    let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    Value::Object(vec![
        ("nproc".into(), Value::UInt(nproc() as u64)),
        ("rustc".into(), Value::String(var("WIREBENCH_RUSTC"))),
        ("commit".into(), Value::String(var("WIREBENCH_COMMIT"))),
        (
            "build_profile".into(),
            Value::String(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release (cargo defaults)"
                }
                .into(),
            ),
        ),
        (
            "allocator".into(),
            Value::String(
                match allocator {
                    Allocator::System => "system",
                    Allocator::Counting => "system+counting",
                }
                .into(),
            ),
        ),
        ("seed".into(), Value::UInt(seed)),
        ("passes".into(), Value::UInt(passes as u64)),
        ("os".into(), Value::String(std::env::consts::OS.into())),
        ("arch".into(), Value::String(std::env::consts::ARCH.into())),
    ])
}
