//! Property-based invariants for the telemetry crate: counter
//! monotonicity, histogram merge algebra (associative + commutative +
//! count-additive), and thread-count invariance of snapshots, whether
//! threads share handles or fill registries of their own that are
//! absorbed into one — the properties the deterministic parallel
//! pipeline relies on.

use proptest::collection::vec;
use proptest::prelude::*;

use telemetry::{Counter, HistogramSnapshot, Registry, Snapshot, LATENCY_BOUNDS_NS};

/// Random strictly-increasing bucket bounds.
fn arb_bounds() -> impl Strategy<Value = Vec<u64>> {
    vec(1u64..100_000, 1..10).prop_map(|mut b| {
        b.sort_unstable();
        b.dedup();
        b
    })
}

/// The snapshot of a histogram over `bounds` that observed `values`.
fn filled(bounds: &[u64], values: &[u64]) -> HistogramSnapshot {
    let reg = Registry::new();
    let h = reg.histogram("h", "", bounds);
    for &v in values {
        h.observe(v);
    }
    reg.snapshot().histograms.remove("h").unwrap()
}

proptest! {
    #[test]
    fn counters_are_monotone_under_any_add_sequence(adds in vec(0u64..1_000_000, 0..50)) {
        let c = Counter::new();
        let mut last = c.get();
        let mut expected = 0u64;
        for n in adds {
            c.add(n);
            expected += n;
            let now = c.get();
            prop_assert!(now >= last, "counter went backwards: {last} -> {now}");
            last = now;
        }
        prop_assert_eq!(c.get(), expected);
    }

    #[test]
    fn histogram_merge_is_commutative(
        bounds in arb_bounds(),
        xs in vec(0u64..1_000_000, 0..40),
        ys in vec(0u64..1_000_000, 0..40),
    ) {
        let a = filled(&bounds, &xs);
        let b = filled(&bounds, &ys);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn histogram_merge_is_associative(
        bounds in arb_bounds(),
        xs in vec(0u64..1_000_000, 0..30),
        ys in vec(0u64..1_000_000, 0..30),
        zs in vec(0u64..1_000_000, 0..30),
    ) {
        let (a, b, c) = (filled(&bounds, &xs), filled(&bounds, &ys), filled(&bounds, &zs));
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn histogram_merge_adds_counts_and_sums(
        bounds in arb_bounds(),
        xs in vec(0u64..1_000_000, 0..40),
        ys in vec(0u64..1_000_000, 0..40),
    ) {
        let a = filled(&bounds, &xs);
        let b = filled(&bounds, &ys);
        let mut merged = a.clone();
        merged.merge(&b);
        prop_assert_eq!(merged.count, a.count + b.count);
        prop_assert_eq!(merged.sum, a.sum + b.sum);
        prop_assert_eq!(merged.count, (xs.len() + ys.len()) as u64);
    }

    #[test]
    fn snapshot_merge_is_commutative_and_counts_add(
        xs in vec(0u64..1_000_000, 0..30),
        ys in vec(0u64..1_000_000, 0..30),
        ca in 0u64..1_000_000,
        cb in 0u64..1_000_000,
    ) {
        let build = |values: &[u64], c: u64| {
            let reg = Registry::new();
            reg.counter("events_total", "").add(c);
            let h = reg.histogram("lat_ns", "", &[100, 10_000]);
            for &v in values {
                h.observe(v);
            }
            reg.snapshot()
        };
        let a = build(&xs, ca);
        let b = build(&ys, cb);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.counter("events_total"), ca + cb);
        prop_assert_eq!(ab.histogram_count("lat_ns"), (xs.len() + ys.len()) as u64);
    }

    #[test]
    fn snapshot_totals_are_thread_count_invariant(
        values in vec(0u64..5_000_000_000, 1..120),
    ) {
        // The same observation workload, split across 1, 2 and 8
        // threads (shared atomic handles in one run, per-thread
        // registries absorbed into one in the other), must yield
        // byte-identical snapshots: all histogram state is integer, so
        // accumulation order cannot leak into the totals.
        let run_shared = |threads: usize| {
            let reg = Registry::new();
            let c = reg.counter("observed_total", "");
            let h = reg.histogram("v_ns", "", &LATENCY_BOUNDS_NS);
            let chunk = values.len().div_ceil(threads);
            std::thread::scope(|s| {
                for part in values.chunks(chunk) {
                    let (c, h) = (c.clone(), h.clone());
                    s.spawn(move || {
                        for &v in part {
                            h.observe(v);
                            c.inc();
                        }
                    });
                }
            });
            reg.snapshot()
        };
        let run_sharded = |threads: usize| {
            let reg = Registry::new();
            let chunk = values.len().div_ceil(threads);
            let shards = std::thread::scope(|s| {
                let handles: Vec<_> = values
                    .chunks(chunk)
                    .map(|part| {
                        s.spawn(move || {
                            let shard = Registry::new();
                            let c = shard.counter("observed_total", "");
                            let h = shard.histogram("v_ns", "", &LATENCY_BOUNDS_NS);
                            for &v in part {
                                h.observe(v);
                                c.inc();
                            }
                            shard.snapshot()
                        })
                    })
                    .collect();
                handles.into_iter().map(|j| j.join().unwrap()).collect::<Vec<_>>()
            });
            for shard in &shards {
                reg.absorb(shard);
            }
            reg.snapshot()
        };
        let reference = run_shared(1);
        for threads in [2usize, 8] {
            prop_assert_eq!(&run_shared(threads), &reference);
            prop_assert_eq!(&run_sharded(threads), &reference);
        }
        prop_assert_eq!(reference.counter("observed_total"), values.len() as u64);
        prop_assert_eq!(reference.histogram_count("v_ns"), values.len() as u64);
    }

    #[test]
    fn histogram_count_equals_bucket_total(
        bounds in arb_bounds(),
        values in vec(0u64..1_000_000, 0..60),
    ) {
        let reg = Registry::new();
        let h = reg.histogram("h", "", &bounds);
        for &v in &values {
            h.observe(v);
        }
        let snap = reg.snapshot();
        let hist = &snap.histograms["h"];
        prop_assert_eq!(hist.buckets.len(), hist.bounds.len() + 1);
        prop_assert_eq!(hist.buckets.iter().sum::<u64>(), hist.count);
        prop_assert_eq!(hist.count, values.len() as u64);
        prop_assert_eq!(hist.sum, values.iter().sum::<u64>());
    }

    #[test]
    fn atomic_and_local_histograms_agree(
        bounds in arb_bounds(),
        values in vec(0u64..1_000_000, 0..60),
    ) {
        let reg = Registry::new();
        let shared = reg.histogram("h", "", &bounds);
        for &v in &values {
            shared.observe(v);
        }
        let local = filled(&bounds, &values);
        prop_assert_eq!(shared.count(), local.count);
        prop_assert_eq!(shared.sum(), local.sum);
        // Absorbing another registry's snapshot of the same values
        // doubles the live totals exactly, bucket for bucket.
        let mut shard = Snapshot::default();
        shard.histograms.insert("h".to_string(), local.clone());
        reg.absorb(&shard);
        prop_assert_eq!(shared.count(), 2 * local.count);
        prop_assert_eq!(shared.sum(), 2 * local.sum);
        let mut doubled = local.clone();
        doubled.merge(&local);
        prop_assert_eq!(&reg.snapshot().histograms["h"], &doubled);
    }
}
