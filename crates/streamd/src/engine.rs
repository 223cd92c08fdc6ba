//! The sharded stream engine.

use std::net::Ipv4Addr;
use std::time::Instant;

use dynaminer::classifier::Classifier;
use dynaminer::detector::{Alert, DetectorConfig, DetectorState, OnTheWireDetector};
use dynaminer::forensic::ConversationVerdict;
use mlearn::slot::ModelSlot;
use nettrace::HttpTransaction;
use telemetry::{Counter, Gauge, Histogram, Registry, Snapshot};

use crate::queue::ShardQueue;
use crate::snapshot::{EngineSnapshot, Watermark};

/// What the feeder does when a shard queue is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Block the feeder until the worker catches up. Nothing is lost;
    /// ingest slows to the speed of the slowest shard.
    Block,
    /// Drop the whole offered batch and count it. Ingest never stalls;
    /// the drop counters say what the verdict is worth.
    DropNewest,
}

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Number of shards (detector instances + worker threads), >= 1.
    pub shards: usize,
    /// Per-shard queue bound, in buffered transactions. Clamped to at
    /// least `batch_size` so a full batch always fits an empty queue.
    pub queue_capacity: usize,
    /// Transactions handed over per queue operation. Larger batches
    /// amortize synchronization; smaller ones reduce alert latency.
    pub batch_size: usize,
    /// Full-queue behavior.
    pub backpressure: BackpressurePolicy,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            shards: 1,
            queue_capacity: 4096,
            // 256 amortizes the (already cheap) ring handoff to well
            // under a nanosecond per transaction while keeping worst
            // case alert latency to a quarter of the queue bound.
            batch_size: 256,
            backpressure: BackpressurePolicy::Block,
        }
    }
}

/// Fixed base for the shard hash. The client→shard mapping must be a
/// pure function of the client address so that replaying a capture
/// shards identically across runs and machines.
const SHARD_HASH_SEED: u64 = 0x7a3c_9f21_0b5d_e711;

/// Shard index for a client address: SplitMix64-finalized hash of the
/// IPv4 address, reduced modulo the shard count. All detector state is
/// keyed by client, so this is the *only* partitioning decision in the
/// engine — everything downstream is per-shard-local.
pub fn shard_of(client: Ipv4Addr, shards: usize) -> usize {
    (mlearn::parallel::derive_seed(SHARD_HASH_SEED, u64::from(u32::from(client)))
        % shards.max(1) as u64) as usize
}

/// Outcome of one [`StreamEngine::process`] call.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Alerts from all shards, merged into `(ts, ingest seq)` order —
    /// the same total order a single-threaded detector fed the
    /// `(ts, seq)`-sorted stream emits them in.
    pub alerts: Vec<Alert>,
    /// Transactions offered to shard queues.
    pub enqueued: u64,
    /// Transactions consumed by shard workers.
    pub processed: u64,
    /// Transactions dropped by the `DropNewest` policy. The drain
    /// invariant is `enqueued == processed + dropped`, with
    /// `dropped == 0` under `Block`.
    pub dropped: u64,
    /// Times the feeder blocked on a full queue (`Block` policy).
    pub backpressure_waits: u64,
    /// Transactions processed per shard, for imbalance inspection.
    pub per_shard_processed: Vec<u64>,
    /// CPU time each shard worker burned inside this call
    /// (`CLOCK_THREAD_CPUTIME_ID` delta), nanoseconds. All zeros on
    /// platforms without a per-thread CPU clock. This is the honest
    /// scaling denominator: wall-clock speedup on a busy or single-core
    /// host is noise, but `sum(per_shard_cpu_ns)` versus a
    /// single-thread run shows whether sharding duplicates work.
    pub per_shard_cpu_ns: Vec<u64>,
    /// CPU time the feeder thread burned inside this call (partitioning,
    /// batching, queue pushes), nanoseconds; 0 when unmeasured.
    pub feeder_cpu_ns: u64,
}

impl EngineReport {
    /// Max-over-mean shard load, in permille (1000 = perfectly even;
    /// `shards * 1000` = everything on one shard). 1000 when idle.
    pub fn imbalance_permille(&self) -> u64 {
        let n = self.per_shard_processed.len().max(1) as u64;
        if self.processed == 0 {
            return 1000;
        }
        let max = self.per_shard_processed.iter().copied().max().unwrap_or(0);
        max * n * 1000 / self.processed
    }
}

/// Per-shard engine metrics, named `streamd_shard<i>_*` (the registry
/// has no label support, so the shard index rides in the name).
struct ShardMetrics {
    queue_depth: Gauge,
    enqueued: Counter,
    processed: Counter,
    dropped: Counter,
    backpressure_waits: Counter,
    alerts: Counter,
    evictions: Counter,
}

impl ShardMetrics {
    fn new(registry: &Registry, shard: usize) -> Self {
        let name = |suffix: &str| format!("streamd_shard{shard}_{suffix}");
        ShardMetrics {
            queue_depth: registry
                .gauge(&name("queue_depth"), "Transactions buffered in this shard's queue"),
            enqueued: registry
                .counter(&name("enqueued_total"), "Transactions offered to this shard"),
            processed: registry
                .counter(&name("processed_total"), "Transactions consumed by this shard"),
            dropped: registry.counter(
                &name("dropped_total"),
                "Transactions dropped at this shard's full queue (DropNewest)",
            ),
            backpressure_waits: registry.counter(
                &name("backpressure_waits_total"),
                "Feeder blocks on this shard's full queue (Block)",
            ),
            alerts: registry
                .counter(&name("alerts_total"), "Alerts raised by this shard's detector"),
            evictions: registry.counter(
                &name("evictions_total"),
                "Conversations evicted by this shard's tracker (retention + caps)",
            ),
        }
    }
}

/// Engine-wide totals.
struct EngineMetrics {
    enqueued: Counter,
    processed: Counter,
    dropped: Counter,
    backpressure_waits: Counter,
    model_reloads: Counter,
    shards: Gauge,
    imbalance_permille: Gauge,
    snapshot_write_ns: Histogram,
    snapshot_restore_ns: Histogram,
    shard_cpu_ns: Histogram,
}

impl EngineMetrics {
    fn new(registry: &Registry) -> Self {
        EngineMetrics {
            enqueued: registry
                .counter("streamd_enqueued_total", "Transactions offered to shard queues"),
            processed: registry
                .counter("streamd_processed_total", "Transactions consumed by shard workers"),
            dropped: registry.counter(
                "streamd_dropped_total",
                "Transactions dropped at full queues (DropNewest)",
            ),
            backpressure_waits: registry.counter(
                "streamd_backpressure_waits_total",
                "Feeder blocks on full queues (Block)",
            ),
            model_reloads: registry.counter(
                "streamd_model_reloads_total",
                "Atomic model hot-reloads applied to all shards",
            ),
            shards: registry.gauge("streamd_shards", "Configured shard count"),
            imbalance_permille: registry.gauge(
                "streamd_shard_imbalance_permille",
                "Max-over-mean shard load of the last process() call, permille",
            ),
            snapshot_write_ns: registry.latency_histogram(
                "streamd_snapshot_write_ns",
                "Engine state capture time per snapshot",
            ),
            snapshot_restore_ns: registry.latency_histogram(
                "streamd_snapshot_restore_ns",
                "Engine state restore time per resume",
            ),
            shard_cpu_ns: registry.latency_histogram(
                "streamd_shard_cpu_ns",
                "Worker thread CPU time per shard per process() call",
            ),
        }
    }
}

struct ShardRun {
    /// `(ingest seq, alert)` pairs in this shard's emission order.
    alerts: Vec<(u64, Alert)>,
    processed: u64,
    /// Worker-thread CPU consumed by this run (0 when unmeasured).
    cpu_ns: u64,
}

/// The push side of one [`StreamEngine::feed`] call: partitions
/// transactions by client address onto the live shard queues while the
/// workers consume them.
///
/// A handle only exists inside the closure passed to `feed` — the
/// workers are guaranteed to be running for exactly as long as the
/// handle can push. Pushes batch per shard ([`StreamConfig::batch_size`])
/// and apply the engine's backpressure policy at full queues: `Block`
/// parks the pushing thread until the worker catches up, `DropNewest`
/// discards the offered batch and counts it.
pub struct FeedHandle<'a> {
    queues: &'a [ShardQueue],
    depth_gauges: &'a [Gauge],
    policy: BackpressurePolicy,
    batch_size: usize,
    pending: Vec<Vec<HttpTransaction>>,
    enqueued: Vec<u64>,
    dropped: Vec<u64>,
    waits: Vec<u64>,
    last_fed: Option<Watermark>,
}

impl FeedHandle<'_> {
    /// Feeds one transaction: advances the watermark, hashes the
    /// client onto its shard, and hands over a batch when one fills.
    pub fn push(&mut self, tx: HttpTransaction) {
        let advance = match self.last_fed {
            Some(prev) => !prev.covers(&tx),
            None => true,
        };
        if advance {
            self.last_fed = Some(Watermark::of(&tx));
        }
        let s = shard_of(tx.client.addr, self.queues.len());
        self.pending[s].push(tx);
        if self.pending[s].len() >= self.batch_size {
            self.flush_shard(s);
        }
    }

    /// Hands over every partially filled batch immediately. Lowers
    /// alert latency when the push side goes quiet (a live source with
    /// no traffic); `feed` flushes automatically when the closure
    /// returns.
    pub fn flush(&mut self) {
        for s in 0..self.pending.len() {
            if !self.pending[s].is_empty() {
                self.flush_shard(s);
            }
        }
    }

    fn flush_shard(&mut self, s: usize) {
        let batch =
            std::mem::replace(&mut self.pending[s], Vec::with_capacity(self.batch_size));
        self.enqueued[s] += batch.len() as u64;
        match self.policy {
            BackpressurePolicy::Block => self.waits[s] += self.queues[s].push_blocking(batch),
            BackpressurePolicy::DropNewest => {
                if let Err(rejected) = self.queues[s].push_or_reject(batch) {
                    self.dropped[s] += rejected.len() as u64;
                }
            }
        }
        self.depth_gauges[s].set(self.queues[s].depth() as i64);
    }
}

/// Sharded, multi-worker wrapper around N per-shard
/// [`OnTheWireDetector`] instances.
///
/// Transactions are hash-partitioned by client address onto bounded
/// per-shard queues and processed by one worker thread per shard; since
/// every piece of detector state (conversations, clue windows, WCG
/// builders) is client-keyed, shards never coordinate. Emitted alerts
/// are merged into `(ts, ingest seq)` order.
///
/// **Determinism contract:** with `retention: None` and the
/// state-exhaustion caps not binding, [`StreamEngine::process`] over a
/// `(ts, seq)`-sorted stream produces exactly the alert sequence a
/// single-threaded detector produces, at any shard count and any
/// worker timing. Per-detector caps become per-*shard* caps: a capped
/// regime can diverge because each shard evicts based on its own
/// clients only (see DESIGN.md §12).
///
/// Detector state persists across `process` calls; dropping the engine
/// is the shutdown. A graceful drain happens at the end of every
/// `process` call: queues are closed, workers consume every buffered
/// batch, and the merged alerts of the call are returned.
pub struct StreamEngine {
    detectors: Vec<OnTheWireDetector>,
    shard_registries: Vec<Registry>,
    shard_metrics: Vec<ShardMetrics>,
    totals: EngineMetrics,
    registry: Registry,
    config: StreamConfig,
    /// Per-shard detector totals already folded into the monotone
    /// engine counters (counters take deltas).
    synced_alerts: Vec<usize>,
    synced_evictions: Vec<usize>,
    /// One model slot shared by every shard: a single
    /// [`StreamEngine::reload_model`] swap deploys the new model to all
    /// shards atomically (each in-flight transaction finishes under the
    /// model generation it loaded).
    model: ModelSlot<Classifier>,
    /// Detector telemetry carried over from the snapshot this engine
    /// was restored from (empty for a fresh engine); folded into
    /// [`StreamEngine::detector_stats`] so whole-run stats survive a
    /// restart.
    carried_stats: Snapshot,
    /// Transactions fed across the engine's lifetime, including those
    /// fed by interrupted runs this engine resumed from.
    fed_total: u64,
    /// Feed position of the last transaction this engine was fed (or
    /// inherited from a restore).
    watermark: Option<Watermark>,
}

impl StreamEngine {
    /// Builds an engine of `config.shards` detectors, each a clone of
    /// `classifier` under `detector_config`, with engine telemetry in a
    /// private registry.
    pub fn new(
        classifier: Classifier,
        detector_config: DetectorConfig,
        config: StreamConfig,
    ) -> Self {
        Self::with_telemetry(classifier, detector_config, config, &Registry::new())
    }

    /// Like [`StreamEngine::new`] with engine metrics registered in
    /// `registry`. Each shard's detector keeps a *private* registry
    /// (shards share metric names, which must not collide in one
    /// registry); the engine aggregates them into the report's stats.
    pub fn with_telemetry(
        classifier: Classifier,
        detector_config: DetectorConfig,
        config: StreamConfig,
        registry: &Registry,
    ) -> Self {
        let shards = config.shards.max(1);
        let model = ModelSlot::new(classifier);
        let shard_registries: Vec<Registry> = (0..shards).map(|_| Registry::new()).collect();
        let detectors = shard_registries
            .iter()
            .map(|reg| {
                OnTheWireDetector::with_model_slot(model.clone(), detector_config.clone(), reg)
            })
            .collect();
        let shard_metrics = (0..shards).map(|i| ShardMetrics::new(registry, i)).collect();
        let totals = EngineMetrics::new(registry);
        totals.shards.set(shards as i64);
        StreamEngine {
            detectors,
            shard_registries,
            shard_metrics,
            totals,
            registry: registry.clone(),
            config: StreamConfig { shards, ..config },
            synced_alerts: vec![0; shards],
            synced_evictions: vec![0; shards],
            model,
            carried_stats: Snapshot::default(),
            fed_total: 0,
            watermark: None,
        }
    }

    /// Rebuilds an engine from a snapshot, re-partitioning the saved
    /// state into `config.shards` shards (which need not match the
    /// shard count of the engine that wrote the snapshot). `classifier`
    /// is loaded separately — snapshots deliberately do not embed the
    /// model, so the CLI's model-format validation stays the single
    /// gate models pass through. The slot resumes at the snapshot's
    /// model generation so post-restore alerts continue its numbering.
    pub fn restore(
        classifier: Classifier,
        detector_config: DetectorConfig,
        config: StreamConfig,
        registry: &Registry,
        snapshot: EngineSnapshot,
    ) -> Self {
        let started = Instant::now();
        let mut engine = Self::with_telemetry(classifier, detector_config, config, registry);
        engine.model.force_version(snapshot.model_version);
        let shards = engine.detectors.len();
        let states = snapshot.detector.partition(shards, |addr| shard_of(addr, shards));
        for (i, state) in states.into_iter().enumerate() {
            engine.detectors[i].restore_state(state);
            engine.synced_alerts[i] = engine.detectors[i].alerts().len();
            let tracker = engine.detectors[i].tracker();
            engine.synced_evictions[i] = tracker.evicted_count() + tracker.cap_evicted_count();
        }
        engine.carried_stats = snapshot.stats;
        engine.fed_total = snapshot.fed;
        engine.watermark = snapshot.watermark;
        engine.totals.snapshot_restore_ns.observe_since(started);
        engine
    }

    /// Captures a full durable image of the engine: merged per-shard
    /// detector state, the feed watermark, the deployed model
    /// generation, and the detector telemetry accumulated so far
    /// (including any carried over from earlier restores). Call between
    /// [`StreamEngine::process`] calls — the engine is quiescent then
    /// (workers only live inside `process`).
    pub fn snapshot(&self) -> EngineSnapshot {
        let started = Instant::now();
        let mut stats = self.detector_stats();
        // Gauges describe the *current* population; the restored
        // detectors re-publish them live, and `Registry::absorb` adds
        // gauges, so carrying them would double-count.
        stats.gauges.clear();
        let snap = EngineSnapshot {
            watermark: self.watermark,
            fed: self.fed_total,
            shards: self.detectors.len() as u32,
            model_version: self.model.version(),
            detector: DetectorState::merge(self.detectors.iter().map(|d| d.state())),
            stats,
        };
        self.totals.snapshot_write_ns.observe_since(started);
        snap
    }

    /// Atomically deploys a new model to every shard and returns the
    /// new model generation. Safe to call concurrently with
    /// [`StreamEngine::process`]: each transaction is classified
    /// entirely under the generation it loaded, so no transaction is
    /// dropped or reordered by a reload.
    pub fn reload_model(&self, classifier: Classifier) -> u64 {
        let version = self.model.swap(classifier);
        self.totals.model_reloads.inc();
        version
    }

    /// Generation of the currently deployed model.
    pub fn model_version(&self) -> u64 {
        self.model.version()
    }

    /// The shared model slot (swapping through a clone hot-reloads
    /// every shard).
    pub fn model_slot(&self) -> &ModelSlot<Classifier> {
        &self.model
    }

    /// Every shard's
    /// [`final_verdicts`](OnTheWireDetector::final_verdicts), in
    /// conversation-id order.
    pub fn final_verdicts(&mut self, threads: usize) -> Vec<ConversationVerdict> {
        let mut verdicts: Vec<ConversationVerdict> =
            self.detectors.iter_mut().flat_map(|det| det.final_verdicts(threads)).collect();
        verdicts.sort_by_key(|v| v.id);
        verdicts
    }

    /// Alerts raised across all shards over the engine's lifetime
    /// (including alerts restored from a snapshot).
    pub(crate) fn total_alerts(&self) -> usize {
        self.detectors.iter().map(|d| d.alerts().len()).sum()
    }

    /// Transactions fed over the engine's lifetime, including those fed
    /// by interrupted runs this engine resumed from.
    pub fn fed(&self) -> u64 {
        self.fed_total
    }

    /// Feed position of the last transaction fed (or inherited from a
    /// restore); `None` when nothing has been fed.
    pub fn watermark(&self) -> Option<Watermark> {
        self.watermark
    }

    /// The per-shard detectors (for forensic summaries over their
    /// trackers). Index `i` is shard `i`.
    pub fn detectors(&self) -> &[OnTheWireDetector] {
        &self.detectors
    }

    /// The registry holding the engine's own metrics.
    pub fn telemetry(&self) -> &Registry {
        &self.registry
    }

    /// Aggregated snapshot of all shards' detector metrics: counters
    /// and histograms sum across shards, and gauges sum too (each
    /// shard's live conversations are a disjoint population). Telemetry
    /// carried from the snapshot this engine was restored from is
    /// folded in, so the stats always describe the whole logical run.
    pub(crate) fn detector_stats(&self) -> Snapshot {
        let aggregate = Registry::new();
        aggregate.absorb(&self.carried_stats);
        for reg in &self.shard_registries {
            aggregate.absorb(&reg.snapshot());
        }
        aggregate.snapshot()
    }

    /// Runs a transaction stream through the shards and drains —
    /// pull-style sugar over [`StreamEngine::feed`]: the feeder
    /// (caller's thread) pushes every transaction of `stream` and the
    /// drain happens when the iterator ends.
    pub fn process<I>(&mut self, stream: I) -> EngineReport
    where
        I: IntoIterator<Item = HttpTransaction>,
    {
        let ((), report) = self.feed(|handle| {
            for tx in stream {
                handle.push(tx);
            }
        });
        report
    }

    /// Runs the shard workers for the duration of `feeder`, which
    /// pushes transactions through the [`FeedHandle`] it is given —
    /// the push-style core that live sources (proxies, capture
    /// readers) drive directly, interleaving socket work with pushes.
    ///
    /// When the closure returns, the engine drains: partial batches are
    /// flushed, the queues close, every buffered batch is consumed, and
    /// the workers join. Returns the closure's value and the call's
    /// [`EngineReport`] with alerts merged into `(ts, ingest seq)`
    /// order. The report's `feeder_cpu_ns` covers everything the
    /// closure did on the feed thread, not just queue pushes.
    pub fn feed<R>(&mut self, feeder: impl FnOnce(&mut FeedHandle<'_>) -> R) -> (R, EngineReport) {
        let shards = self.detectors.len();
        let batch_size = self.config.batch_size.max(1);
        let capacity = self.config.queue_capacity.max(batch_size);
        let policy = self.config.backpressure;
        let queues: Vec<ShardQueue> = (0..shards).map(|_| ShardQueue::new(capacity)).collect();
        let queues = &queues;

        let depth_gauges: Vec<Gauge> =
            self.shard_metrics.iter().map(|m| m.queue_depth.clone()).collect();

        let feeder_cpu_start = telemetry::thread_cpu_ns();
        let (value, enqueued, dropped, waits, last_fed, mut runs) =
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .detectors
                    .iter_mut()
                    .zip(queues)
                    .zip(&depth_gauges)
                    .map(|((detector, queue), depth)| {
                        scope.spawn(move || {
                            let cpu_start = telemetry::thread_cpu_ns();
                            let mut alerts: Vec<(u64, Alert)> = Vec::new();
                            let mut processed = 0u64;
                            while let Some(batch) = queue.pop() {
                                depth.set(queue.depth() as i64);
                                processed += batch.len() as u64;
                                for tx in batch {
                                    let seq = tx.seq;
                                    if let Some(alert) = detector.observe_owned(tx) {
                                        alerts.push((seq, alert));
                                    }
                                }
                            }
                            // The delta excludes park time: a parked
                            // thread accrues no CPU, so an idle shard
                            // reads near 0.
                            let cpu_ns =
                                telemetry::thread_cpu_ns().saturating_sub(cpu_start);
                            ShardRun { alerts, processed, cpu_ns }
                        })
                    })
                    .collect();

                let mut handle = FeedHandle {
                    queues,
                    depth_gauges: &depth_gauges,
                    policy,
                    batch_size,
                    pending: (0..shards).map(|_| Vec::with_capacity(batch_size)).collect(),
                    enqueued: vec![0u64; shards],
                    dropped: vec![0u64; shards],
                    waits: vec![0u64; shards],
                    last_fed: self.watermark,
                };
                let value = feeder(&mut handle);
                // Drain: flush partial batches, then close every queue
                // so workers finish what is buffered and exit.
                handle.flush();
                let FeedHandle { enqueued, dropped, waits, last_fed, .. } = handle;
                for queue in queues {
                    queue.close();
                }
                let runs: Vec<ShardRun> = handles
                    .into_iter()
                    .map(|h| h.join().expect("shard worker panicked"))
                    .collect();
                (value, enqueued, dropped, waits, last_fed, runs)
            });
        // Joining parks the feeder, so this delta is feed work only.
        let feeder_cpu_ns = telemetry::thread_cpu_ns().saturating_sub(feeder_cpu_start);

        // Fold this call's traffic into the monotone engine counters and
        // sync the per-shard detector totals (alerts, evictions).
        let per_shard_processed: Vec<u64> = runs.iter().map(|r| r.processed).collect();
        let per_shard_cpu_ns: Vec<u64> = runs.iter().map(|r| r.cpu_ns).collect();
        for &cpu in &per_shard_cpu_ns {
            self.totals.shard_cpu_ns.observe(cpu);
        }
        for (i, m) in self.shard_metrics.iter().enumerate() {
            m.enqueued.add(enqueued[i]);
            m.processed.add(per_shard_processed[i]);
            m.dropped.add(dropped[i]);
            m.backpressure_waits.add(waits[i]);
            m.queue_depth.set(0);
            let alerts = self.detectors[i].alerts().len();
            m.alerts.add((alerts - self.synced_alerts[i]) as u64);
            self.synced_alerts[i] = alerts;
            let tracker = self.detectors[i].tracker();
            let evictions = tracker.evicted_count() + tracker.cap_evicted_count();
            m.evictions.add((evictions - self.synced_evictions[i]) as u64);
            self.synced_evictions[i] = evictions;
        }
        let report = EngineReport {
            alerts: Vec::new(),
            enqueued: enqueued.iter().sum(),
            processed: per_shard_processed.iter().sum(),
            dropped: dropped.iter().sum(),
            backpressure_waits: waits.iter().sum(),
            per_shard_processed,
            per_shard_cpu_ns,
            feeder_cpu_ns,
        };
        self.totals.enqueued.add(report.enqueued);
        self.totals.processed.add(report.processed);
        self.totals.dropped.add(report.dropped);
        self.totals.backpressure_waits.add(report.backpressure_waits);
        self.totals.imbalance_permille.set(report.imbalance_permille() as i64);
        self.fed_total += report.enqueued;
        self.watermark = last_fed;

        // Merge shard alert streams into (ts, ingest seq) order. Each
        // shard's list is deterministic and the sort is stable, so the
        // merged stream is independent of worker timing.
        let mut tagged: Vec<(u64, Alert)> =
            runs.iter_mut().flat_map(|r| r.alerts.drain(..)).collect();
        tagged.sort_by(|a, b| a.1.ts.total_cmp(&b.1.ts).then(a.0.cmp(&b.0)));
        (value, EngineReport { alerts: tagged.into_iter().map(|(_, a)| a).collect(), ..report })
    }
}
