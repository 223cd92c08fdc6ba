//! The paper's evaluation as one checked table.
//!
//! [`experiments::EXPERIMENTS`] holds one row per paper table, figure,
//! ablation and extension (DESIGN.md's per-experiment index): an id, a
//! title, the body that renders `results/<id>.txt`, and the claims that
//! output supports. The `experiments` binary runs the rows over one
//! [`Fixtures`] — every shared input is built once per process — and
//! exits non-zero when a claim's measured value leaves its tolerance
//! ([`claims`]). All corpora are paper-sized and seeded with
//! [`EXPERIMENT_SEED`], so every file regenerates byte for byte.
//!
//! Beside it live the counting allocator behind the three
//! `*_alloc_regression.rs` fences and `benches/perf.rs`, the kernel
//! bench.

use std::cell::OnceCell;
use std::time::Instant;

use dynaminer::classifier::Classifier;
use mlearn::crossval::{cross_validate, CvResult};
use mlearn::dataset::Dataset;
use mlearn::forest::ForestConfig;
use synthtraffic::Episode;

pub mod claims;
pub mod experiments;

/// Seed of every corpus, fold split and forest, so tables regenerate identically.
pub const EXPERIMENT_SEED: u64 = 42;

/// Heap-allocation counting for bench builds.
///
/// Binaries and tests that want allocation counts register the wrapper as
/// their global allocator:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: bench::alloc_count::CountingAllocator = bench::alloc_count::CountingAllocator;
/// ```
///
/// and read [`alloc_count::allocations`] deltas around the region of
/// interest. Counting is a relaxed atomic increment per `alloc`/`realloc`
/// plus two for the byte gauge, cheap enough to leave on for whole bench
/// runs; it exists so "allocation-free in steady state" and "memory
/// linear in the input" claims are pinned by a measured number rather
/// than prose.
pub mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
    static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
    static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

    /// Total heap acquisitions (`alloc` + `realloc` calls, process-wide)
    /// since start. Frees are not counted: the steady-state claims are
    /// about *acquiring* memory on the hot path.
    pub fn allocations() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }

    /// Bytes requested from the allocator and not yet freed, process-wide.
    pub fn live_bytes() -> u64 {
        LIVE_BYTES.load(Ordering::Relaxed)
    }

    /// Restarts the high-water mark at the current live size and returns
    /// that size: `peak_bytes() - restart_peak()` around a region is how
    /// far the region grew the heap at its worst moment.
    pub fn restart_peak() -> u64 {
        let live = live_bytes();
        PEAK_BYTES.store(live, Ordering::Relaxed);
        live
    }

    /// Largest [`live_bytes`] since the last [`restart_peak`].
    pub fn peak_bytes() -> u64 {
        PEAK_BYTES.load(Ordering::Relaxed)
    }

    fn acquired(bytes: usize) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }

    fn released(bytes: usize) {
        LIVE_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed);
    }

    /// `std::alloc::System` wrapper that counts heap acquisitions and
    /// keeps the live and peak byte gauges.
    pub struct CountingAllocator;

    // SAFETY: delegates every operation unchanged to `System`; the only
    // additions are relaxed counter updates, which allocate nothing.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            acquired(layout.size());
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            acquired(layout.size());
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            released(layout.size());
            acquired(new_size);
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            released(layout.size());
            unsafe { System.dealloc(ptr, layout) }
        }
    }
}

/// The inputs experiments share, each built on first use and at most
/// once per process (a line on stderr says when, and how long it took).
#[derive(Default)]
pub struct Fixtures {
    ground_truth: OnceCell<Vec<Episode>>,
    validation: OnceCell<Vec<Episode>>,
    dataset: OnceCell<Dataset>,
    classifier: OnceCell<Classifier>,
    cv_default: OnceCell<CvResult>,
}

fn built<'a, T>(cell: &'a OnceCell<T>, name: &str, build: impl FnOnce() -> T) -> &'a T {
    cell.get_or_init(|| {
        let start = Instant::now();
        let value = build();
        eprintln!("fixture {name}: built in {:.1} s", start.elapsed().as_secs_f64());
        value
    })
}

impl Fixtures {
    /// No fixture is built until an experiment asks for it.
    pub fn new() -> Self {
        Self::default()
    }

    /// The paper-sized ground-truth corpus (Table I: 980 benign + 770 infections).
    pub fn ground_truth(&self) -> &[Episode] {
        built(&self.ground_truth, "ground_truth", || {
            synthtraffic::ground_truth(EXPERIMENT_SEED, 1.0)
        })
        .as_slice()
    }

    /// The held-out validation corpus (Table V: 1500 benign + 7489 infections).
    pub fn validation(&self) -> &[Episode] {
        built(&self.validation, "validation", || synthtraffic::validation_set(EXPERIMENT_SEED, 1.0))
            .as_slice()
    }

    /// The ground truth as a 37-column dataset, one row per episode in
    /// corpus order (benign = 0, infection = 1).
    pub fn dataset(&self) -> &Dataset {
        built(&self.dataset, "dataset", || corpus_dataset(self.ground_truth()))
    }

    /// The paper's default classifier, trained on [`Fixtures::dataset`].
    pub fn classifier(&self) -> &Classifier {
        built(&self.classifier, "classifier", || {
            Classifier::fit_default(self.dataset(), EXPERIMENT_SEED)
        })
    }

    /// 10-fold cross-validation of the default forest on all 37 features.
    pub fn cv_default(&self) -> &CvResult {
        built(&self.cv_default, "cv_default", || cv10(self.dataset(), &ForestConfig::default()))
    }
}

/// Featurizes a corpus into a 37-column dataset (benign = 0, infection = 1),
/// extracting in parallel across available cores.
pub fn corpus_dataset(corpus: &[Episode]) -> Dataset {
    let items: Vec<(&[nettrace::HttpTransaction], bool)> =
        corpus.iter().map(|e| (e.transactions.as_slice(), e.is_infection())).collect();
    dynaminer::classifier::build_dataset_parallel(&items, telemetry::pool::resolve_threads(0))
}

/// The evaluation protocol of every classifier table: stratified
/// 10-fold cross-validation at the experiment seed.
pub fn cv10(data: &Dataset, config: &ForestConfig) -> CvResult {
    cross_validate(data, 10, config, 1, EXPERIMENT_SEED, 0)
}
