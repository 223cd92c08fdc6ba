//! Offline stand-in for the `criterion` crate.
//!
//! Provides the types and macros this workspace's benches use —
//! [`Criterion`], [`BenchmarkGroup`], [`Bencher`] with `iter`/`iter_batched`,
//! [`Throughput`], [`BatchSize`], `criterion_group!`, `criterion_main!` —
//! backed by a simple wall-clock timer: warm-up, then `sample_size` timed
//! samples, reporting median per-iteration time (and derived throughput)
//! to stdout. No statistics engine, plotting, or result persistence.

use std::time::{Duration, Instant};

/// Declared work-per-iteration, for derived rates.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Iteration processes this many bytes.
    Bytes(u64),
    /// Iteration processes this many logical elements.
    Elements(u64),
}

/// How batched setup output is sized (accepted, not acted on).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small per-iteration input: one setup per measured call.
    SmallInput,
    /// Large per-iteration input.
    LargeInput,
}

/// Top-level benchmark driver.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            measurement_time: Duration::from_secs(3),
            warm_up_time: Duration::from_secs(1),
        }
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark.
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Sets the target total measurement time per benchmark.
    #[must_use]
    pub fn measurement_time(mut self, t: Duration) -> Self {
        self.measurement_time = t;
        self
    }

    /// Sets the warm-up time per benchmark.
    #[must_use]
    pub fn warm_up_time(mut self, t: Duration) -> Self {
        self.warm_up_time = t;
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }
}

/// A named set of benchmarks sharing throughput context.
pub struct BenchmarkGroup<'a> {
    criterion: &'a Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Declares the work performed by one iteration of following benches.
    pub fn throughput(&mut self, throughput: Throughput) {
        self.throughput = Some(throughput);
    }

    /// Runs one benchmark and prints its timing line.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        let mut bencher = Bencher {
            warm_up: self.criterion.warm_up_time,
            measurement: self.criterion.measurement_time,
            samples: self.criterion.sample_size,
            per_iter: Duration::ZERO,
        };
        f(&mut bencher);
        report(&self.name, id, bencher.per_iter, self.throughput);
        self
    }

    /// Ends the group (purely cosmetic here).
    pub fn finish(&mut self) {}
}

/// Timer handle passed to each benchmark closure.
pub struct Bencher {
    warm_up: Duration,
    measurement: Duration,
    samples: usize,
    per_iter: Duration,
}

impl Bencher {
    /// Times `routine` repeatedly, recording the median sample.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        self.iter_batched(|| (), |()| routine(), BatchSize::SmallInput);
    }

    /// Times `routine` over fresh `setup` output each iteration; setup
    /// time is excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        // Warm-up: run until the warm-up budget elapses (at least once).
        let warm_start = Instant::now();
        loop {
            let input = setup();
            let _ = std::hint::black_box(routine(std::hint::black_box(input)));
            if warm_start.elapsed() >= self.warm_up {
                break;
            }
        }

        let budget_per_sample = self.measurement / self.samples as u32;
        let mut durations = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            // Run as many iterations as fit the per-sample budget.
            let sample_start = Instant::now();
            let mut iters = 0u32;
            let mut busy = Duration::ZERO;
            loop {
                let input = setup();
                let t = Instant::now();
                let _ = std::hint::black_box(routine(std::hint::black_box(input)));
                busy += t.elapsed();
                iters += 1;
                if sample_start.elapsed() >= budget_per_sample {
                    break;
                }
            }
            durations.push(busy / iters);
        }
        durations.sort_unstable();
        self.per_iter = durations[durations.len() / 2];
    }
}

fn report(group: &str, id: &str, per_iter: Duration, throughput: Option<Throughput>) {
    let rate = match throughput {
        Some(Throughput::Bytes(n)) if per_iter > Duration::ZERO => {
            let mbps = n as f64 / per_iter.as_secs_f64() / 1e6;
            format!("  {mbps:.1} MB/s")
        }
        Some(Throughput::Elements(n)) if per_iter > Duration::ZERO => {
            let eps = n as f64 / per_iter.as_secs_f64();
            format!("  {eps:.0} elem/s")
        }
        _ => String::new(),
    };
    println!("{group}/{id}: {per_iter:?}/iter{rate}");
}

/// Declares a benchmark harness entry: a `Criterion` config plus targets.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Emits `main` running the given benchmark groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_and_reports() {
        let mut c = Criterion::default()
            .sample_size(2)
            .measurement_time(Duration::from_millis(20))
            .warm_up_time(Duration::from_millis(1));
        let mut group = c.benchmark_group("shim");
        group.throughput(Throughput::Bytes(1024));
        let mut ran = 0u64;
        group.bench_function("spin", |b| {
            b.iter(|| {
                ran += 1;
                std::hint::black_box(ran)
            })
        });
        group.finish();
        assert!(ran > 0);
    }
}
