//! Grouping a live HTTP stream into per-client conversations (Sec. V-B).
//!
//! The paper groups transactions using the session ID of the download and
//! redirection chains, falling back to a heuristic over referrer values
//! and timestamps when a client holds multiple session IDs. This module
//! implements that clustering:
//!
//! 1. an explicit session-ID match binds a transaction to a conversation,
//! 2. otherwise a referrer pointing at a URL or host already in a
//!    conversation binds it there,
//! 3. otherwise a repeated host binds it,
//! 4. otherwise a referrer-less transaction joins the client's most
//!    recently active conversation,
//! 5. otherwise a fresh conversation starts.
//!
//! Conversations idle longer than the timeout no longer accept new
//! transactions (the paper watches a WCG "until it stops growing").
//!
//! # Stored and derived state
//!
//! There is one conversation type, [`Conversation`]. What it *stores* is
//! the transactions, the detector's scalars and the match keys (hosts,
//! session ids, URLs); what it *derives* from the transactions is the
//! WCG builder and its topology-feature cache, held together in one
//! optional `graph` field. Two robustness tiers rest on that cut
//! (DESIGN.md §13):
//!
//! * **Spill tier** — with a [`SpillConfig`], idle conversations are
//!   frozen under a byte-accounted budget: the graph is dropped, the
//!   stored state (match keys included) stays where it is, so a frozen
//!   conversation answers the match predicate exactly as it did live.
//!   Its next transaction thaws it with one [`WcgBuilder::rebuild`] over
//!   the stored transactions. Hard eviction becomes the last resort and
//!   is counted separately from spill.
//! * **Snapshot** — [`SessionTracker::state`] serializes the stored
//!   state less the match keys ([`TrackerState`]); restoring replays
//!   each conversation's transactions through the absorb fold, which
//!   re-derives keys and graph alike.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use nettrace::HttpTransaction;
use serde::{Deserialize, Serialize};

use crate::features::TopoCache;
use crate::wcg::{PushOutcome, Wcg, WcgBuilder};

/// Baseline heap estimate for a live conversation: builder, feature
/// cache, and match-key set overhead before any transaction arrives.
const CONV_BASE_BYTES: usize = 512;
/// Per-stored-transaction overhead of a *live* conversation beyond the
/// transaction itself: WCG node/edge bookkeeping and the URL match key.
const LIVE_TX_OVERHEAD: usize = 96;
/// Baseline heap estimate for a frozen conversation.
const FROZEN_BASE_BYTES: usize = 128;

/// Rough heap cost of one stored transaction: the struct plus its owned
/// strings and body preview, with a flat allowance for headers. An
/// estimate, not an allocator measurement — it only has to be
/// deterministic and roughly proportional to real usage for the spill
/// budgets to mean anything.
fn tx_cost(tx: &HttpTransaction) -> usize {
    std::mem::size_of::<HttpTransaction>()
        + tx.host.len()
        + tx.uri.len()
        + tx.body_preview.len()
        + 160
}

/// Serializable image of a [`Conversation`]: the stored transactions
/// plus exactly the scalars the absorb fold cannot reconstruct —
/// detector-maintained flags and the residue of cap-dropped
/// transactions (which were never stored). Everything else (WCG
/// builder, feature cache, match-key sets) is rebuilt by replaying the
/// transactions through [`Conversation::from_state`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConversationState {
    /// Stable conversation id (see [`Conversation::id`]).
    pub id: u64,
    /// Stored transactions in arrival order.
    pub transactions: Vec<HttpTransaction>,
    /// Detector flag: an alert has fired.
    pub alerted: bool,
    /// Detector flag: a clue fired and the conversation is watched.
    pub watched: bool,
    /// Detector counter: redirect hops seen (including capped ones).
    pub redirects_seen: usize,
    /// Detector maximum over downloaded payload likelihoods.
    pub max_payload_likelihood: f64,
    /// Whether the most recent transaction introduced a new host.
    pub last_tx_added_host: bool,
    /// Whether the most recent transaction was a redirect hop.
    pub last_tx_redirectish: bool,
    /// Time of the most recent activity (stored or capped).
    pub last_ts: f64,
    /// Trigger host of a cap-dropped most-recent transaction.
    pub capped_host: Option<String>,
}

/// Monotone tracker counters carried through a snapshot, so a restored
/// tracker keeps reporting totals for the whole logical run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrackerCounters {
    /// Conversations ever created (the accounting anchor: `created ==
    /// live + frozen + evicted + cap_evicted + spill_evicted`).
    pub created: u64,
    /// Conversations evicted by the retention window.
    pub evicted: u64,
    /// Conversations evicted by the per-client conversation cap.
    pub cap_evicted: u64,
    /// Frozen conversations hard-evicted by the spill budget.
    pub spill_evicted: u64,
    /// Live→frozen demotions (a conversation can spill repeatedly).
    pub spilled: u64,
    /// Frozen→live rehydrations.
    pub rehydrated: u64,
    /// Transactions dropped by the per-conversation cap.
    pub dropped_transactions: u64,
}

impl std::ops::AddAssign for TrackerCounters {
    /// Field-wise sum: how per-shard totals merge into whole-run ones.
    fn add_assign(&mut self, other: Self) {
        self.created += other.created;
        self.evicted += other.evicted;
        self.cap_evicted += other.cap_evicted;
        self.spill_evicted += other.spill_evicted;
        self.spilled += other.spilled;
        self.rehydrated += other.rehydrated;
        self.dropped_transactions += other.dropped_transactions;
    }
}

/// One client's serialized conversations plus its private id counter
/// (without the counter a restored tracker would reuse conversation
/// ids). The image does not say which conversations were frozen; a
/// restored tracker starts with everything live and re-demotes on the
/// next budget check.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientRecord {
    /// The client address (also the shard-routing key on restore).
    pub addr: Ipv4Addr,
    /// Next per-client conversation id.
    pub next_local: u32,
    /// Conversation states in tracker order — order matters, because
    /// assignment pass 1 takes the *first* structural match.
    pub convs: Vec<ConversationState>,
}

/// Full serializable tracker state: per-client conversations plus the
/// monotone counters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrackerState {
    /// Per-client records, in address order.
    pub clients: Vec<ClientRecord>,
    /// Monotone counter totals at snapshot time.
    pub counters: TrackerCounters,
}

/// One conversation under observation, live or frozen (see the module
/// docs). The tracker only ever hands out live ones.
#[derive(Debug, Clone)]
pub struct Conversation {
    /// Stable conversation id, unique per tracker and *client-scoped*:
    /// the high 32 bits are the client's IPv4 address, the low 32 bits a
    /// per-client creation counter. Because the id never depends on how
    /// other clients' transactions interleave, a stream sharded by
    /// client address assigns the same ids as a single tracker seeing
    /// the whole stream — the property the sharded engine's determinism
    /// contract rests on.
    pub id: u64,
    /// Transactions assigned so far, in arrival order.
    pub transactions: Vec<HttpTransaction>,
    /// Whether an alert has been raised for this conversation.
    pub alerted: bool,
    /// Whether the conversation is being watched (a clue fired).
    pub watched: bool,
    /// Redirect hops seen so far (incremental clue counter).
    pub redirects_seen: usize,
    /// Highest payload infectiousness likelihood downloaded so far.
    pub max_payload_likelihood: f64,
    /// Whether the most recent transaction introduced a host this
    /// conversation had not contacted before.
    pub last_tx_added_host: bool,
    /// Whether the most recent transaction was a redirect hop (3xx or a
    /// detectable redirect target). Computed once here so the detector
    /// does not re-derive redirect targets per transaction.
    pub last_tx_redirectish: bool,
    /// Derived state, `None` while frozen: the incrementally maintained
    /// WCG over the stored transactions — equivalent to
    /// `Wcg::from_transactions(&self.transactions)` at every point — and
    /// the detector's memoized topology-dependent feature values.
    graph: Option<(WcgBuilder, TopoCache)>,
    /// Lowercased hosts contacted so far or named by a redirect target.
    hosts: BTreeSet<String>,
    session_ids: BTreeSet<String>,
    urls: BTreeSet<String>,
    /// Reusable buffer for building match keys (URL, lowercased target
    /// host) without a fresh allocation per transaction.
    scratch: String,
    last_ts: f64,
    /// Host of the most recent transaction *if* it was dropped by the
    /// per-conversation cap (cleared on every stored transaction).
    capped_host: Option<String>,
    /// Heap-usage estimate charged to the tier the conversation is in:
    /// [`Conversation::live_bytes`] (maintained incrementally, so the
    /// spill tier's budget check is O(1)) or
    /// [`Conversation::frozen_bytes`]. Either way a pure function of
    /// the stored state, which is what lets thaw recompute it.
    approx_bytes: usize,
}

impl Conversation {
    fn new(id: u64, ts: f64) -> Self {
        Conversation {
            id,
            transactions: Vec::new(),
            alerted: false,
            watched: false,
            redirects_seen: 0,
            max_payload_likelihood: 0.0,
            last_tx_added_host: false,
            last_tx_redirectish: false,
            graph: Some((WcgBuilder::new(), TopoCache::new())),
            hosts: BTreeSet::new(),
            session_ids: BTreeSet::new(),
            urls: BTreeSet::new(),
            scratch: String::new(),
            last_ts: ts,
            capped_host: None,
            approx_bytes: CONV_BASE_BYTES,
        }
    }

    /// Serializable image of this conversation (transactions cloned).
    pub fn to_state(&self) -> ConversationState {
        ConversationState {
            id: self.id,
            transactions: self.transactions.clone(),
            alerted: self.alerted,
            watched: self.watched,
            redirects_seen: self.redirects_seen,
            max_payload_likelihood: self.max_payload_likelihood,
            last_tx_added_host: self.last_tx_added_host,
            last_tx_redirectish: self.last_tx_redirectish,
            last_ts: self.last_ts,
            capped_host: self.capped_host.clone(),
        }
    }

    /// Rebuilds a conversation from its serialized image by replaying
    /// the stored transactions through the same absorb fold that built
    /// the original. The fold is deterministic in the transaction
    /// sequence, so the reconstructed match keys and WCG are identical
    /// to the ones that were dropped. Scalars the fold cannot see
    /// (detector flags and the effects of cap-dropped transactions) are
    /// then overwritten from the state.
    pub fn from_state(state: ConversationState) -> Self {
        let ConversationState {
            id,
            transactions,
            alerted,
            watched,
            redirects_seen,
            max_payload_likelihood,
            last_tx_added_host,
            last_tx_redirectish,
            last_ts,
            capped_host,
        } = state;
        let mut conv = Conversation::new(id, last_ts);
        for tx in transactions {
            let host_lower = tx.host.to_ascii_lowercase();
            conv.absorb_prepared(tx, &host_lower);
        }
        conv.alerted = alerted;
        conv.watched = watched;
        conv.redirects_seen = redirects_seen;
        conv.max_payload_likelihood = max_payload_likelihood;
        conv.last_tx_added_host = last_tx_added_host;
        conv.last_tx_redirectish = last_tx_redirectish;
        conv.last_ts = last_ts;
        conv.approx_bytes += capped_host.as_ref().map_or(0, String::len);
        conv.capped_host = capped_host;
        conv
    }

    /// Time of the most recent transaction.
    pub fn last_ts(&self) -> f64 {
        self.last_ts
    }

    fn is_live(&self) -> bool {
        self.graph.is_some()
    }

    /// The incrementally maintained WCG over the stored transactions,
    /// its topology version, and the conversation's feature cache —
    /// split-borrowed so the caller can extract features while the cache
    /// is held mutably.
    pub fn wcg_state(&mut self) -> (&Wcg, u64, &mut TopoCache) {
        let (builder, cache) = self.graph.as_mut().expect(HANDED_OUT_LIVE);
        (builder.wcg(), builder.topo_version(), cache)
    }

    /// [`Conversation::wcg_state`] for readers holding only `&self` (the
    /// final verdict sweep): the cache can be consulted, not refilled.
    pub fn wcg_cached(&self) -> (&Wcg, u64, &TopoCache) {
        let (builder, cache) = self.graph.as_ref().expect(HANDED_OUT_LIVE);
        (builder.wcg(), builder.topo_version(), cache)
    }

    /// The live tier's byte estimate for the stored state.
    fn live_bytes(&self) -> usize {
        CONV_BASE_BYTES
            + self.transactions.iter().map(|t| tx_cost(t) + LIVE_TX_OVERHEAD).sum::<usize>()
            + self.capped_host.as_ref().map_or(0, String::len)
    }

    /// The frozen tier's byte estimate: the transactions and the match
    /// keys, without the per-transaction graph bookkeeping.
    fn frozen_bytes(&self) -> usize {
        let keys = self.hosts.iter().chain(&self.session_ids).chain(&self.urls);
        FROZEN_BASE_BYTES
            + self.transactions.iter().map(tx_cost).sum::<usize>()
            + keys.map(|s| s.len() + 32).sum::<usize>()
    }

    /// Demotes a live conversation: the graph goes, everything stored
    /// stays. It still takes part in assignment exactly as before (same
    /// match predicate over the same keys, same activity timestamp), so
    /// demotion is behavior-neutral.
    fn freeze(&mut self) {
        debug_assert_eq!(self.approx_bytes, self.live_bytes(), "thaw recomputes this");
        self.graph = None;
        self.scratch = String::new();
        self.approx_bytes = self.frozen_bytes();
    }

    /// Rehydrates a frozen conversation: one rebuild over the stored
    /// transactions, which is `Wcg::from_transactions` — what the live
    /// builder equalled when it was dropped.
    fn thaw(&mut self) {
        let mut builder = WcgBuilder::new();
        builder.rebuild(&self.transactions);
        self.graph = Some((builder, TopoCache::new()));
        self.approx_bytes = self.live_bytes();
    }

    /// Records a transaction that was dropped by the per-conversation
    /// cap: activity is acknowledged (so idle/retention timers behave)
    /// but nothing is stored, bounding memory against a hostile endpoint
    /// streaming unbounded transactions into one conversation. Only the
    /// host survives (moved, not cloned, and replacing the previous
    /// capped host in the byte estimate) so an alert fired by a capped
    /// transaction can still name its trigger.
    fn note_capped(&mut self, tx: HttpTransaction) {
        self.last_tx_added_host = false;
        self.last_tx_redirectish =
            tx.is_redirect() || !crate::wcg::redirect::targets(&tx).is_empty();
        self.last_ts = self.last_ts.max(tx.ts);
        self.approx_bytes += tx.host.len();
        self.release_capped_host();
        self.capped_host = Some(tx.host);
    }

    /// Clears the capped host and its share of the byte estimate.
    fn release_capped_host(&mut self) {
        if let Some(previous) = self.capped_host.take() {
            self.approx_bytes -= previous.len();
        }
    }

    /// Host of the most recently arrived transaction, whether it was
    /// stored or dropped by the per-conversation cap.
    pub fn last_host(&self) -> &str {
        self.capped_host
            .as_deref()
            .or_else(|| self.transactions.last().map(|t| t.host.as_str()))
            .unwrap_or("")
    }

    /// Hosts contacted in this conversation, in lexicographic order.
    pub fn hosts(&self) -> impl Iterator<Item = &str> {
        self.hosts.iter().map(String::as_str)
    }

    /// Folds one transaction into the stored and the derived state.
    /// `host_lower` is the transaction's lowercased host, which the live
    /// path computes once per transaction in
    /// [`SessionTracker::assign_owned`].
    fn absorb_prepared(&mut self, tx: HttpTransaction, host_lower: &str) {
        self.approx_bytes += tx_cost(&tx) + LIVE_TX_OVERHEAD;
        self.release_capped_host();
        // Contains-before-insert: only a new host or session id is copied
        // to the heap.
        self.last_tx_added_host = !self.hosts.contains(host_lower);
        if self.last_tx_added_host {
            self.hosts.insert(host_lower.to_string());
        }
        if let Some(sid) = tx.session_id() {
            if !self.session_ids.contains(sid) {
                self.session_ids.insert(sid.to_string());
            }
        }
        // The URL match key is assembled in the reusable scratch buffer
        // and only copied to the heap when it is actually new.
        self.scratch.clear();
        self.scratch.push_str("http://");
        self.scratch.push_str(&tx.host);
        self.scratch.push_str(&tx.uri);
        if !self.urls.contains(self.scratch.as_str()) {
            self.urls.insert(self.scratch.clone());
        }
        // Redirect targets are derived once per transaction and shared by
        // host pre-registration, the detector's redirect clue, and the
        // incremental WCG push.
        let targets = crate::wcg::redirect::targets(&tx);
        self.last_tx_redirectish = tx.is_redirect() || !targets.is_empty();
        // Redirect targets become expected hosts, so follow-up requests
        // with stripped referrers still cluster correctly.
        for target in &targets {
            if let Some(host) = target.split_once("://").map(|(_, r)| r) {
                if let Some(h) = host.split(['/', '?', '#']).next() {
                    self.scratch.clear();
                    self.scratch.push_str(h.split(':').next().unwrap_or(h));
                    self.scratch.make_ascii_lowercase();
                    if !self.hosts.contains(self.scratch.as_str()) {
                        self.hosts.insert(self.scratch.clone());
                    }
                }
            }
        }
        self.last_ts = self.last_ts.max(tx.ts);
        // The transaction is moved into storage — the shard queues of the
        // stream engine hand transactions over by value, so the live path
        // never clones one.
        self.transactions.push(tx);
        let stored = self.transactions.last().expect("just pushed");
        let (builder, _) = self.graph.as_mut().expect(HANDED_OUT_LIVE);
        if builder.push_with_targets(stored, &targets) == PushOutcome::NeedsRebuild {
            builder.rebuild(&self.transactions);
        }
    }

    /// The structural match of assignment pass 1, over the stored match
    /// keys only — so it reads the same on a live and a frozen
    /// conversation.
    fn matches(
        &self,
        tx: &HttpTransaction,
        sid: Option<&str>,
        referer_host: Option<&str>,
        host_lower: &str,
    ) -> bool {
        sid.is_some_and(|sid| self.session_ids.contains(sid))
            || tx.referer().is_some_and(|r| self.urls.contains(r))
            || referer_host.is_some_and(|h| self.hosts.contains(h))
            || self.hosts.contains(host_lower)
    }
}

/// Lowercased host part of the transaction's referrer, if it has one,
/// built in `buf`.
fn referer_host<'b>(tx: &HttpTransaction, buf: &'b mut String) -> Option<&'b str> {
    let r = tx.referer()?;
    let rest = r.split_once("://").map_or(r, |(_, x)| x);
    let host = rest.split(['/', '?', '#']).next()?;
    buf.clear();
    buf.push_str(host);
    buf.make_ascii_lowercase();
    Some(buf)
}

/// Why reading a conversation's graph cannot fail: the tracker thaws a
/// frozen conversation before [`SessionTracker::assign_owned`] returns
/// it, and [`SessionTracker::conversations`] skips frozen ones.
const HANDED_OUT_LIVE: &str = "only live conversations are absorbed into or handed out";

/// Budgets for the LRU spill tier. Both budgets are estimates over
/// `tx_cost`-style accounting, not allocator measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpillConfig {
    /// Live-tier budget: when the estimated bytes of live conversations
    /// exceed this, the globally least-recently-active conversations
    /// idle at least `min_idle_secs` are frozen until back under.
    pub max_live_bytes: usize,
    /// Frozen-tier budget: when exceeded, the oldest frozen
    /// conversations are hard-evicted (the true last resort, counted
    /// separately from both spill and the retention/cap evictions).
    pub max_spill_bytes: usize,
    /// A conversation this recently active is never frozen by the
    /// budget sweep (it is probably about to grow again).
    pub min_idle_secs: f64,
}

impl Default for SpillConfig {
    fn default() -> Self {
        SpillConfig {
            max_live_bytes: 64 << 20,
            max_spill_bytes: 256 << 20,
            min_idle_secs: 30.0,
        }
    }
}

/// Conversation counts and byte estimates per tier, maintained
/// incrementally so the per-transaction gauge updates and budget checks
/// are O(1). Every tier change goes through here, which keeps the
/// counts and bytes in step with the conversations' own state. A
/// separate struct so callers holding a client-entry borrow can still
/// update it (disjoint field borrows).
#[derive(Debug, Default)]
struct TierTally {
    live: usize,
    frozen: usize,
    live_bytes: usize,
    spill_bytes: usize,
}

impl TierTally {
    fn freeze(&mut self, conv: &mut Conversation) {
        self.forget(conv);
        conv.freeze();
        self.admit(conv);
    }

    fn thaw(&mut self, conv: &mut Conversation) {
        self.forget(conv);
        conv.thaw();
        self.admit(conv);
    }

    /// Counts a conversation into the tier it is in.
    fn admit(&mut self, conv: &Conversation) {
        if conv.is_live() {
            self.live += 1;
            self.live_bytes += conv.approx_bytes;
        } else {
            self.frozen += 1;
            self.spill_bytes += conv.approx_bytes;
        }
    }

    /// Takes a conversation out of the tier it is in.
    fn forget(&mut self, conv: &Conversation) {
        if conv.is_live() {
            self.live -= 1;
            self.live_bytes = self.live_bytes.saturating_sub(conv.approx_bytes);
        } else {
            self.frozen -= 1;
            self.spill_bytes = self.spill_bytes.saturating_sub(conv.approx_bytes);
        }
    }
}

/// One client's conversations plus its private id counter. Conversation
/// ids are `(client_ip << 32) | local_counter`, so two trackers that see
/// the same per-client substreams assign identical ids regardless of how
/// the clients' transactions interleave — the invariant that lets the
/// sharded stream engine reproduce single-threaded output bit for bit.
#[derive(Debug, Default)]
struct ClientSessions {
    convs: Vec<Conversation>,
    next_local: u32,
}

/// Per-client conversation tracker.
#[derive(Debug)]
pub struct SessionTracker {
    clients: BTreeMap<Ipv4Addr, ClientSessions>,
    idle_timeout: f64,
    retention: Option<f64>,
    max_conversations: usize,
    max_transactions: usize,
    /// LRU spill tier budgets; `None` disables demotion entirely (the
    /// pre-spill behavior, and the default).
    spill: Option<SpillConfig>,
    counters: TrackerCounters,
    tally: TierTally,
    /// Reusable buffers for the lowercased host and referrer host of the
    /// transaction being assigned — computed once per transaction, not
    /// per candidate conversation.
    host_lower: String,
    referer_lower: String,
}

impl SessionTracker {
    /// Creates a tracker; conversations idle longer than `idle_timeout`
    /// seconds stop accepting transactions. All conversations are kept in
    /// memory (forensic mode) — use [`SessionTracker::with_retention`] for
    /// long-running deployments.
    pub fn new(idle_timeout: f64) -> Self {
        SessionTracker {
            clients: BTreeMap::new(),
            idle_timeout,
            retention: None,
            max_conversations: usize::MAX,
            max_transactions: usize::MAX,
            spill: None,
            counters: TrackerCounters::default(),
            tally: TierTally::default(),
            host_lower: String::new(),
            referer_lower: String::new(),
        }
    }

    /// Creates a tracker that evicts conversations idle longer than
    /// `retention` seconds, bounding memory on long-running proxies. An
    /// evicted conversation can no longer be matched or re-alerted; its
    /// alert (if any) was already emitted when it fired.
    pub fn with_retention(idle_timeout: f64, retention: f64) -> Self {
        SessionTracker { retention: Some(retention.max(idle_timeout)), ..Self::new(idle_timeout) }
    }

    /// Caps tracker state against hostile clients: at most
    /// `max_conversations_per_client` live conversations per client (the
    /// least-recently-active one is evicted to make room) and at most
    /// `max_transactions_per_conversation` stored transactions per
    /// conversation (further transactions refresh the activity timestamp
    /// but are not stored). Both caps are clamped to at least 1.
    pub fn with_caps(
        mut self,
        max_conversations_per_client: usize,
        max_transactions_per_conversation: usize,
    ) -> Self {
        self.max_conversations = max_conversations_per_client.max(1);
        self.max_transactions = max_transactions_per_conversation.max(1);
        self
    }

    /// Enables the LRU spill tier: idle conversations over the live
    /// budget are demoted to their frozen form instead of staying
    /// resident, and the per-client conversation cap demotes instead of
    /// evicting — hard eviction only happens when the frozen tier's own
    /// budget is exceeded.
    pub fn with_spill(mut self, config: SpillConfig) -> Self {
        self.spill = Some(config);
        self
    }

    /// The monotone counter totals so far.
    pub fn counters(&self) -> TrackerCounters {
        self.counters
    }

    /// Number of conversations evicted so far.
    pub fn evicted_count(&self) -> usize {
        self.counters.evicted as usize
    }

    /// Conversations ever created.
    pub fn created_count(&self) -> u64 {
        self.counters.created
    }

    /// Live→frozen demotions so far.
    pub fn spilled_count(&self) -> u64 {
        self.counters.spilled
    }

    /// Frozen→live rehydrations so far.
    pub fn rehydrated_count(&self) -> u64 {
        self.counters.rehydrated
    }

    /// Frozen conversations hard-evicted by the spill budget.
    pub fn spill_evicted_count(&self) -> usize {
        self.counters.spill_evicted as usize
    }

    /// Current frozen conversation count.
    pub fn frozen_count(&self) -> usize {
        self.tally.frozen
    }

    /// Estimated bytes currently held by the frozen tier.
    pub fn spill_bytes(&self) -> usize {
        self.tally.spill_bytes
    }

    /// Estimated bytes currently held by live conversations.
    pub fn live_bytes(&self) -> usize {
        self.tally.live_bytes
    }

    /// Conversations evicted by the per-client conversation cap (as
    /// opposed to the retention window).
    pub fn cap_evicted_count(&self) -> usize {
        self.counters.cap_evicted as usize
    }

    /// Transactions dropped by the per-conversation transaction cap.
    pub fn dropped_transaction_count(&self) -> u64 {
        self.counters.dropped_transactions
    }

    /// Drops every conversation of every client whose last activity
    /// precedes `now - retention`. No-op without a retention window.
    ///
    /// A client whose conversations were all evicted loses its map entry
    /// (and with it the local id counter), so conversation ids can be
    /// reused after the client returns — retention mode trades the
    /// unique-id guarantee for bounded memory, which is why the sharded
    /// engine's bit-identity contract is stated for `retention: None`.
    fn evict_stale(&mut self, now: f64) {
        let Some(retention) = self.retention else { return };
        let (tally, counters) = (&mut self.tally, &mut self.counters);
        for entry in self.clients.values_mut() {
            entry.convs.retain(|conv| {
                let keep = now - conv.last_ts() <= retention;
                if !keep {
                    tally.forget(conv);
                    counters.evicted += 1;
                }
                keep
            });
        }
        self.clients.retain(|_, entry| !entry.convs.is_empty());
    }

    /// `(last_ts, client, index)` of every conversation `pick` accepts,
    /// oldest first — the fully deterministic order both budget sweeps
    /// work through.
    fn oldest_first(
        &self,
        pick: impl Fn(&Conversation) -> bool,
    ) -> Vec<(f64, Ipv4Addr, usize)> {
        let mut out: Vec<(f64, Ipv4Addr, usize)> = Vec::new();
        for (addr, entry) in &self.clients {
            for (i, conv) in entry.convs.iter().enumerate() {
                if pick(conv) {
                    out.push((conv.last_ts(), *addr, i));
                }
            }
        }
        out.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        out
    }

    /// Enforces the spill budgets. First demotes the globally
    /// least-recently-active idle conversations until the live tier is
    /// back under budget, then hard-evicts the oldest frozen
    /// conversations if the frozen tier itself overflows.
    fn spill_enforce(&mut self, now: f64) {
        let Some(cfg) = self.spill else { return };
        if self.tally.live_bytes > cfg.max_live_bytes {
            let idle =
                self.oldest_first(|c| c.is_live() && now - c.last_ts() >= cfg.min_idle_secs);
            for (_, addr, i) in idle {
                if self.tally.live_bytes <= cfg.max_live_bytes {
                    break;
                }
                let entry = self.clients.get_mut(&addr).expect("candidate client exists");
                self.tally.freeze(&mut entry.convs[i]);
                self.counters.spilled += 1;
            }
        }
        if self.tally.spill_bytes > cfg.max_spill_bytes {
            let mut projected = self.tally.spill_bytes;
            let mut doomed: BTreeMap<Ipv4Addr, Vec<usize>> = BTreeMap::new();
            for (_, addr, i) in self.oldest_first(|c| !c.is_live()) {
                if projected <= cfg.max_spill_bytes {
                    break;
                }
                projected = projected.saturating_sub(self.clients[&addr].convs[i].approx_bytes);
                doomed.entry(addr).or_default().push(i);
            }
            for (addr, mut idxs) in doomed {
                // Remove back to front so earlier indices stay valid.
                idxs.sort_unstable_by(|a, b| b.cmp(a));
                let entry = self.clients.get_mut(&addr).expect("doomed client exists");
                for i in idxs {
                    self.tally.forget(&entry.convs.remove(i));
                    self.counters.spill_evicted += 1;
                }
                // The (possibly now-empty) client entry is kept: its id
                // counter must survive so conversation ids are not
                // reused while the client is still being tracked.
            }
        }
    }

    /// Assigns a transaction to a conversation (existing or new) and
    /// returns a mutable reference to it. Clones the transaction; the
    /// live path uses [`SessionTracker::assign_owned`] to move it
    /// instead.
    pub fn assign(&mut self, tx: &HttpTransaction) -> &mut Conversation {
        self.assign_owned(tx.clone())
    }

    /// Assigns an owned transaction to a conversation (existing or new)
    /// and returns a mutable reference to it. The transaction is moved
    /// into the conversation's storage — no clone on the hot path.
    pub fn assign_owned(&mut self, tx: HttpTransaction) -> &mut Conversation {
        self.evict_stale(tx.ts);
        self.spill_enforce(tx.ts);
        let client = tx.client.addr;
        let idle_timeout = self.idle_timeout;
        // Per-transaction match keys, derived once here rather than once
        // per candidate conversation, and borrowed: the session id, and
        // the lowercased host and referrer host (built in scratch buffers
        // reused across transactions).
        let sid = tx.session_id();
        let host_lower = &mut self.host_lower;
        host_lower.clear();
        host_lower.push_str(&tx.host);
        host_lower.make_ascii_lowercase();
        let host_lower = host_lower.as_str();
        let referer_host = referer_host(&tx, &mut self.referer_lower);
        let entry = self.clients.entry(client).or_default();
        let convs = &mut entry.convs;

        // Frozen conversations participate in both passes exactly like
        // live ones (same predicate, same timestamps) — demotion never
        // changes which conversation a transaction joins.
        let active = |c: &Conversation| tx.ts - c.last_ts() <= idle_timeout;
        // Pass 1: structural match among active conversations.
        let mut chosen: Option<usize> = convs
            .iter()
            .position(|c| active(c) && c.matches(&tx, sid, referer_host, host_lower));
        // Pass 2: referrer-less transactions join the most recently
        // active conversation (timestamp heuristic).
        if chosen.is_none() && tx.referer().is_none() && sid.is_none() {
            chosen = convs
                .iter()
                .enumerate()
                .filter(|(_, c)| active(c))
                .max_by(|a, b| a.1.last_ts().total_cmp(&b.1.last_ts()))
                .map(|(i, _)| i);
        }
        let idx = match chosen {
            Some(i) => i,
            None => {
                if convs.iter().filter(|c| c.is_live()).count() >= self.max_conversations {
                    // At the cap: the least-recently-active live
                    // conversation makes room — demoted to the frozen
                    // tier when spill is enabled (eviction is the last
                    // resort), discarded outright otherwise. Its alert
                    // (if any) was already emitted when it fired.
                    let lru = convs
                        .iter()
                        .enumerate()
                        .filter(|(_, c)| c.is_live())
                        .min_by(|a, b| a.1.last_ts().total_cmp(&b.1.last_ts()))
                        .map(|(i, _)| i)
                        .expect("cap is >= 1, so a full client has live conversations");
                    if self.spill.is_some() {
                        self.tally.freeze(&mut convs[lru]);
                        self.counters.spilled += 1;
                    } else {
                        self.tally.forget(&convs.remove(lru));
                        self.counters.cap_evicted += 1;
                    }
                }
                // Client-scoped id: high 32 bits the client address, low
                // 32 bits the per-client creation counter.
                let id = (u64::from(u32::from(client)) << 32) | u64::from(entry.next_local);
                entry.next_local = entry.next_local.wrapping_add(1);
                let conv = Conversation::new(id, tx.ts);
                self.tally.admit(&conv);
                self.counters.created += 1;
                convs.push(conv);
                convs.len() - 1
            }
        };
        let conv = &mut convs[idx];
        if !conv.is_live() {
            self.tally.thaw(conv);
            self.counters.rehydrated += 1;
        }
        let bytes_before = conv.approx_bytes;
        if conv.transactions.len() >= self.max_transactions {
            self.counters.dropped_transactions += 1;
            conv.note_capped(tx);
        } else {
            conv.absorb_prepared(tx, host_lower);
        }
        self.tally.live_bytes = self.tally.live_bytes - bytes_before + conv.approx_bytes;
        conv
    }

    /// All live conversations of all clients (for offline/forensic
    /// summaries). Frozen conversations are not visible here; call
    /// [`SessionTracker::rehydrate_all`] first when a complete view is
    /// needed.
    pub fn conversations(&self) -> impl Iterator<Item = &Conversation> {
        self.clients.values().flat_map(|entry| entry.convs.iter().filter(|c| c.is_live()))
    }

    /// Number of live conversations (O(1); maintained incrementally).
    pub fn conversation_count(&self) -> usize {
        debug_assert_eq!(self.tally.live, self.conversations().count());
        self.tally.live
    }

    /// Thaws every frozen conversation back to the live tier (counted
    /// as rehydrations). Used before forensic verdict passes, which
    /// need every conversation resident.
    pub fn rehydrate_all(&mut self) {
        let frozen = self.clients.values_mut().flat_map(|e| &mut e.convs).filter(|c| !c.is_live());
        for conv in frozen {
            self.tally.thaw(conv);
            self.counters.rehydrated += 1;
        }
    }

    /// Serializable image of the whole tracker, frozen conversations
    /// included.
    pub fn state(&self) -> TrackerState {
        let clients = self
            .clients
            .iter()
            .map(|(addr, entry)| ClientRecord {
                addr: *addr,
                next_local: entry.next_local,
                convs: entry.convs.iter().map(Conversation::to_state).collect(),
            })
            .collect();
        TrackerState { clients, counters: self.counters }
    }

    /// Replaces this tracker's conversations and counters with a
    /// serialized image, rebuilding every WCG by replaying the stored
    /// transactions. Configuration (timeouts, caps, spill budgets) is
    /// NOT part of the image — it stays whatever this tracker was
    /// constructed with, so a snapshot can be restored under new
    /// operational settings.
    pub fn restore(&mut self, state: TrackerState) {
        self.clients.clear();
        self.tally = TierTally::default();
        for record in state.clients {
            let convs: Vec<Conversation> =
                record.convs.into_iter().map(Conversation::from_state).collect();
            convs.iter().for_each(|conv| self.tally.admit(conv));
            self.clients
                .insert(record.addr, ClientSessions { convs, next_local: record.next_local });
        }
        self.counters = state.counters;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wcg::tests::tx;
    use nettrace::http::Method;
    use nettrace::payload::PayloadClass;

    fn get(ts: f64, host: &str, uri: &str, referer: Option<&str>) -> HttpTransaction {
        tx(ts, host, uri, Method::Get, 200, PayloadClass::Html, 100, referer, None)
    }

    #[test]
    fn referrer_chain_clusters_into_one_conversation() {
        let mut tracker = SessionTracker::new(300.0);
        tracker.assign(&get(1.0, "a.com", "/x", None));
        tracker.assign(&get(2.0, "b.com", "/y", Some("http://a.com/x")));
        tracker.assign(&get(3.0, "c.com", "/z", Some("http://b.com/y")));
        assert_eq!(tracker.conversation_count(), 1);
        let conv = tracker.conversations().next().unwrap();
        assert_eq!(conv.transactions.len(), 3);
    }

    #[test]
    fn unrelated_hosts_with_referrers_split() {
        let mut tracker = SessionTracker::new(300.0);
        tracker.assign(&get(1.0, "a.com", "/x", None));
        tracker.assign(&get(2.0, "other.net", "/q", Some("http://elsewhere.org/")));
        assert_eq!(tracker.conversation_count(), 2);
    }

    #[test]
    fn session_id_binds_across_hosts() {
        let mut tracker = SessionTracker::new(300.0);
        let mut t1 = get(1.0, "a.com", "/x", None);
        t1.req_headers.append("Cookie", "sid=abc");
        let mut t2 = get(100.0, "z.net", "/q?r=1", Some("http://unrelated.example/"));
        t2.req_headers.append("Cookie", "sid=abc");
        tracker.assign(&t1);
        tracker.assign(&t2);
        assert_eq!(tracker.conversation_count(), 1);
    }

    #[test]
    fn referrerless_posts_join_most_recent_conversation() {
        // C&C callbacks carry no referrer and hit fresh hosts; the
        // timestamp heuristic binds them to the active conversation.
        let mut tracker = SessionTracker::new(300.0);
        tracker.assign(&get(1.0, "a.com", "/x", None));
        let post = tx(
            30.0, "198.51.100.77", "/gate", Method::Post, 200,
            PayloadClass::Text, 10, None, None,
        );
        tracker.assign(&post);
        assert_eq!(tracker.conversation_count(), 1);
    }

    #[test]
    fn idle_timeout_starts_new_conversation() {
        let mut tracker = SessionTracker::new(60.0);
        tracker.assign(&get(1.0, "a.com", "/x", None));
        tracker.assign(&get(500.0, "a.com", "/x", None));
        assert_eq!(tracker.conversation_count(), 2);
    }

    #[test]
    fn clients_are_isolated() {
        let mut tracker = SessionTracker::new(300.0);
        let t1 = get(1.0, "a.com", "/x", None);
        let mut t2 = get(2.0, "a.com", "/x", None);
        t2.client = nettrace::reassembly::Endpoint::new(Ipv4Addr::new(10, 0, 0, 99), 1234);
        tracker.assign(&t1);
        tracker.assign(&t2);
        assert_eq!(tracker.conversation_count(), 2);
    }

    #[test]
    fn retention_bounds_memory_on_long_streams() {
        let mut tracker = SessionTracker::with_retention(60.0, 600.0);
        // A day of hourly one-shot conversations from one client.
        for hour in 0..24 {
            let t = hour as f64 * 3600.0;
            tracker.assign(&get(t, "a.com", "/x", None));
        }
        assert!(tracker.conversation_count() <= 2, "{}", tracker.conversation_count());
        assert!(tracker.evicted_count() >= 22, "{}", tracker.evicted_count());
    }

    #[test]
    fn forensic_mode_keeps_everything() {
        let mut tracker = SessionTracker::new(60.0);
        for hour in 0..24 {
            tracker.assign(&get(hour as f64 * 3600.0, "a.com", "/x", None));
        }
        assert_eq!(tracker.conversation_count(), 24);
        assert_eq!(tracker.evicted_count(), 0);
    }

    #[test]
    fn retention_never_undercuts_idle_timeout() {
        let mut tracker = SessionTracker::with_retention(300.0, 1.0);
        tracker.assign(&get(0.0, "a.com", "/x", None));
        // 200 s later: inside idle timeout, must still match despite the
        // (clamped) 1-second retention request.
        tracker.assign(&get(200.0, "a.com", "/x", None));
        assert_eq!(tracker.conversation_count(), 1);
    }

    #[test]
    fn conversation_cap_bounds_hostile_client() {
        // A hostile client spraying 10k one-shot transactions, each with
        // a unique host and a unique referrer so none of them cluster:
        // without a cap this is 10k live conversations for one client.
        let mut tracker = SessionTracker::new(300.0).with_caps(64, 4096);
        for i in 0..10_000 {
            let host = format!("h{i}.example");
            let referer = format!("http://unique-{i}.example/");
            tracker.assign(&get(i as f64 * 0.01, &host, "/x", Some(&referer)));
        }
        assert!(tracker.conversation_count() <= 64, "{}", tracker.conversation_count());
        assert_eq!(tracker.cap_evicted_count(), 10_000 - 64);
        assert_eq!(tracker.dropped_transaction_count(), 0);
    }

    #[test]
    fn transaction_cap_bounds_hostile_conversation() {
        let mut tracker = SessionTracker::new(300.0).with_caps(64, 8);
        for i in 0..20 {
            tracker.assign(&get(i as f64, "a.com", "/x", None));
        }
        assert_eq!(tracker.conversation_count(), 1);
        let conv = tracker.conversations().next().unwrap();
        assert_eq!(conv.transactions.len(), 8);
        // Activity is still acknowledged, so the conversation stays live.
        assert_eq!(conv.last_ts(), 19.0);
        assert!(!conv.last_tx_added_host);
        assert_eq!(tracker.dropped_transaction_count(), 12);
    }

    #[test]
    fn caps_do_not_perturb_normal_clustering() {
        let mut capped = SessionTracker::new(300.0).with_caps(512, 8192);
        let mut plain = SessionTracker::new(300.0);
        for t in [
            get(1.0, "a.com", "/x", None),
            get(2.0, "b.com", "/y", Some("http://a.com/x")),
            get(400.0, "a.com", "/x", None),
        ] {
            capped.assign(&t);
            plain.assign(&t);
        }
        assert_eq!(capped.conversation_count(), plain.conversation_count());
        assert_eq!(capped.cap_evicted_count(), 0);
        assert_eq!(capped.dropped_transaction_count(), 0);
    }

    #[test]
    fn redirect_targets_pre_register_hosts() {
        let mut tracker = SessionTracker::new(300.0);
        let hop = tx(
            1.0, "a.com", "/r", Method::Get, 302, PayloadClass::Empty, 0,
            None, Some("http://next.example/l"),
        );
        tracker.assign(&hop);
        // The follow-up request has its referrer stripped but targets the
        // redirect destination.
        let follow = get(2.0, "next.example", "/l", Some("http://stripped.example/"));
        tracker.assign(&follow);
        assert_eq!(tracker.conversation_count(), 1);
    }

    /// A budget of 1 byte with a short idle threshold: every idle
    /// conversation spills, and the next matching transaction thaws it
    /// with its full history intact.
    #[test]
    fn spill_demotes_idle_conversations_and_rehydrates_on_match() {
        let spill = SpillConfig { max_live_bytes: 1, max_spill_bytes: usize::MAX, min_idle_secs: 10.0 };
        let mut tracker = SessionTracker::new(300.0).with_spill(spill);
        tracker.assign(&get(0.0, "a.com", "/x", None));
        // 100 s later an unrelated conversation starts; a.com is idle
        // past the threshold, so the budget sweep freezes it.
        tracker.assign(&get(100.0, "b.com", "/y", Some("http://elsewhere.org/")));
        assert_eq!(tracker.spilled_count(), 1);
        assert_eq!(tracker.frozen_count(), 1);
        assert_eq!(tracker.conversation_count(), 1, "only b.com is live");
        assert!(tracker.spill_bytes() > 0);
        // A transaction matching the frozen conversation thaws it.
        tracker.assign(&get(101.0, "a.com", "/x2", None));
        assert_eq!(tracker.rehydrated_count(), 1);
        assert_eq!(tracker.frozen_count(), 0);
        assert_eq!(tracker.conversation_count(), 2);
        let a = tracker
            .conversations()
            .find(|c| c.hosts().any(|h| h == "a.com"))
            .expect("a.com conversation is live again");
        assert_eq!(a.transactions.len(), 2, "history survived the spill cycle");
        // Nothing was ever hard-evicted.
        assert_eq!(tracker.evicted_count(), 0);
        assert_eq!(tracker.cap_evicted_count(), 0);
        assert_eq!(tracker.spill_evicted_count(), 0);
    }

    #[test]
    fn spill_budget_hard_evicts_oldest_frozen_as_last_resort() {
        let spill = SpillConfig { max_live_bytes: 1, max_spill_bytes: 1, min_idle_secs: 10.0 };
        let mut tracker = SessionTracker::new(300.0).with_spill(spill);
        tracker.assign(&get(0.0, "a.com", "/x", None));
        // The sweep at t=100 freezes a.com, immediately overflows the
        // 1-byte frozen budget, and hard-evicts it.
        tracker.assign(&get(100.0, "b.com", "/y", Some("http://elsewhere.org/")));
        assert_eq!(tracker.spilled_count(), 1);
        assert_eq!(tracker.spill_evicted_count(), 1);
        assert_eq!(tracker.frozen_count(), 0);
        assert_eq!(tracker.spill_bytes(), 0);
        // a.com is gone: the same host now starts a fresh conversation.
        tracker.assign(&get(101.0, "a.com", "/x", None));
        assert_eq!(tracker.rehydrated_count(), 0);
        // Accounting anchor.
        assert_eq!(
            tracker.created_count(),
            (tracker.conversation_count()
                + tracker.frozen_count()
                + tracker.evicted_count()
                + tracker.cap_evicted_count()
                + tracker.spill_evicted_count()) as u64
        );
    }

    #[test]
    fn conversation_cap_demotes_instead_of_evicting_when_spill_enabled() {
        let spill = SpillConfig::default();
        let mut tracker = SessionTracker::new(300.0).with_caps(4, 4096).with_spill(spill);
        for i in 0..10 {
            let host = format!("h{i}.example");
            let referer = format!("http://unique-{i}.example/");
            tracker.assign(&get(i as f64 * 0.01, &host, "/x", Some(&referer)));
        }
        assert_eq!(tracker.conversation_count(), 4);
        assert_eq!(tracker.cap_evicted_count(), 0, "spill replaces cap eviction");
        assert_eq!(tracker.spilled_count(), 6);
        assert_eq!(tracker.frozen_count(), 6);
        // A frozen conversation still matches and rehydrates.
        tracker.assign(&get(1.0, "h0.example", "/again", None));
        assert_eq!(tracker.rehydrated_count(), 1);
    }

    #[test]
    fn state_round_trip_preserves_conversations_and_counters() {
        let mut tracker = SessionTracker::new(300.0).with_caps(64, 8);
        tracker.assign(&get(1.0, "a.com", "/x", None));
        tracker.assign(&get(2.0, "b.com", "/y", Some("http://a.com/x")));
        for i in 0..12 {
            tracker.assign(&get(3.0 + i as f64, "a.com", "/more", None));
        }
        let mut t2 = get(50.0, "c.net", "/q", None);
        t2.client = nettrace::reassembly::Endpoint::new(Ipv4Addr::new(10, 0, 0, 99), 1234);
        tracker.assign(&t2);

        let state = tracker.state();
        let mut restored = SessionTracker::new(300.0).with_caps(64, 8);
        restored.restore(state.clone());

        assert_eq!(restored.conversation_count(), tracker.conversation_count());
        assert_eq!(restored.created_count(), tracker.created_count());
        assert_eq!(
            restored.dropped_transaction_count(),
            tracker.dropped_transaction_count()
        );
        // The restored tracker serializes to the identical state: the
        // WCG rebuild and scalar overwrite lose nothing.
        assert_eq!(restored.state().clients, state.clients);
        assert_eq!(restored.state().counters, state.counters);
        // And it behaves identically: the next transaction lands in the
        // same conversation with the same id in both trackers.
        let next = get(60.0, "b.com", "/z", None);
        let a = tracker.assign(&next).id;
        let b = restored.assign(&next).id;
        assert_eq!(a, b);
    }

    /// Spilling must never change clustering decisions: an aggressive
    /// budget run and an unbounded run see identical conversations.
    #[test]
    fn spill_is_behavior_neutral_for_clustering() {
        let spill = SpillConfig { max_live_bytes: 1, max_spill_bytes: usize::MAX, min_idle_secs: 0.0 };
        let mut spilled = SessionTracker::new(300.0).with_spill(spill);
        let mut plain = SessionTracker::new(300.0);
        let stream = [
            get(1.0, "a.com", "/x", None),
            get(2.0, "b.com", "/y", Some("http://a.com/x")),
            get(40.0, "c.org", "/q", Some("http://unrelated.example/")),
            get(41.0, "a.com", "/z", None),
            get(90.0, "c.org", "/r", None),
        ];
        for t in &stream {
            let a = spilled.assign(t).id;
            let b = plain.assign(t).id;
            assert_eq!(a, b, "same conversation for {}", t.host);
        }
        assert!(spilled.spilled_count() > 0, "the budget actually forced spills");
        assert_eq!(spilled.spilled_count(), spilled.rehydrated_count() + spilled.frozen_count() as u64);
        spilled.rehydrate_all();
        assert_eq!(spilled.frozen_count(), 0);
        assert_eq!(spilled.conversation_count(), plain.conversation_count());
    }

    /// The cap's whole point is one endless conversation: what it
    /// drops must not grow the byte estimate the spill budget reads.
    #[test]
    fn capped_transactions_leave_live_bytes_where_they_were() {
        fn feed(tracker: &mut SessionTracker, i: usize, host: &str) -> usize {
            tracker.assign(&get(i as f64 * 0.01, host, "/x", None));
            tracker.live_bytes()
        }
        let mut tracker = SessionTracker::new(300.0).with_caps(64, 8);
        let after_ninth = (0..9).map(|i| feed(&mut tracker, i, "a.com")).last().unwrap();
        for i in 9..10_000 {
            feed(&mut tracker, i, ["a.com", "b.com"][i % 2]);
        }
        assert_eq!(tracker.dropped_transaction_count(), 10_000 - 8);
        assert_eq!(tracker.live_bytes(), after_ninth);
        // Only the last capped host is held, so only it is charged —
        // also when the new one is shorter than the one it replaces.
        assert_eq!(feed(&mut tracker, 10_000, "a-longer-host.example"), after_ninth + 16);
        assert_eq!(feed(&mut tracker, 10_001, "c.io"), after_ninth - 1);
        // The estimate is a function of what is stored: thaw finds it again.
        let conv = &mut tracker.clients.values_mut().next().unwrap().convs[0];
        tracker.tally.freeze(conv);
        assert_eq!((tracker.tally.live_bytes, tracker.tally.live), (0, 0));
        tracker.tally.thaw(conv);
        assert_eq!(tracker.live_bytes(), after_ninth - 1);
        assert_eq!(tracker.spill_bytes(), 0);
    }

    /// Probe transactions for every way pass 1 can bind to a
    /// conversation holding `stored` — its session id, its URL as a
    /// referrer, only its host as a referrer, its host — and one miss.
    fn probes(stored: &[HttpTransaction]) -> Vec<HttpTransaction> {
        let mut out = vec![get(0.0, "miss.example", "/", Some("http://nowhere.example/"))];
        for t in stored {
            let url = format!("http://{}{}", t.host, t.uri);
            let other_page = format!("http://{}/not-stored", t.host.to_ascii_uppercase());
            out.push(get(0.0, "probe.example", "/", Some(&url)));
            out.push(get(0.0, "probe.example", "/", Some(&other_page)));
            out.push(get(0.0, &t.host, "/not-stored", Some("http://nowhere.example/")));
            if let Some(cookie) = t.req_headers.get("Cookie") {
                let mut by_sid = get(0.0, "probe.example", "/", Some("http://nowhere.example/"));
                by_sid.req_headers.append("Cookie", cookie);
                out.push(by_sid);
            }
        }
        out
    }

    /// What [`SessionTracker::assign_owned`] would ask of `conv`.
    fn answers(conv: &Conversation, probes: &[HttpTransaction]) -> Vec<bool> {
        let ask = |p: &HttpTransaction| {
            let mut buf = String::new();
            let referer_host = referer_host(p, &mut buf);
            conv.matches(p, p.session_id(), referer_host, &p.host.to_ascii_lowercase())
        };
        probes.iter().map(ask).collect()
    }

    fn wcg_json(wcg: &Wcg) -> String {
        serde_json::to_string(wcg).unwrap()
    }

    /// Freezes every conversation after `stream[..freeze_at]` and checks
    /// that nothing observable can tell: not the match predicate while
    /// frozen, not the state, graph or byte estimate after a thaw, and
    /// not the rest of the stream, compared with a tracker that never
    /// froze anything.
    fn check_freeze_thaw_is_identity(stream: &[HttpTransaction], freeze_at: usize) {
        let mut tracker = SessionTracker::new(300.0).with_caps(64, 6);
        let mut plain = SessionTracker::new(300.0).with_caps(64, 6);
        for t in &stream[..freeze_at] {
            tracker.assign(t);
            plain.assign(t);
        }
        let probes = probes(&stream[..freeze_at]);
        for conv in tracker.conversations() {
            let mut twin = conv.clone();
            twin.freeze();
            assert_eq!(answers(&twin, &probes), answers(conv, &probes), "frozen match keys");
            assert_eq!(twin.to_state(), conv.to_state(), "state while frozen");
            twin.thaw();
            assert_eq!(twin.to_state(), conv.to_state(), "state after thaw");
            assert_eq!(twin.approx_bytes, conv.approx_bytes);
            assert_eq!(
                wcg_json(twin.wcg_cached().0),
                wcg_json(&Wcg::from_transactions(&conv.transactions))
            );
        }
        for conv in tracker.clients.values_mut().flat_map(|e| &mut e.convs) {
            tracker.tally.freeze(conv);
        }
        assert_eq!(tracker.conversations().count(), 0, "frozen conversations stay hidden");
        assert_eq!((tracker.conversation_count(), tracker.live_bytes()), (0, 0));
        assert_eq!(tracker.frozen_count(), plain.conversation_count());
        // The rest of the stream thaws what it touches and nothing else.
        for t in &stream[freeze_at..] {
            let conv = tracker.assign(t);
            assert!(conv.is_live(), "assign hands out live conversations only");
            let (id, wcg) = (conv.id, wcg_json(conv.wcg_state().0));
            let twin = plain.assign(t);
            assert_eq!((id, wcg), (twin.id, wcg_json(twin.wcg_state().0)));
            assert!(tracker.conversations().all(Conversation::is_live));
            assert_eq!(tracker.conversations().count(), tracker.conversation_count());
        }
        tracker.rehydrate_all();
        assert_eq!((tracker.frozen_count(), tracker.spill_bytes()), (0, 0));
        assert_eq!(tracker.state().clients, plain.state().clients);
        assert_eq!(tracker.live_bytes(), plain.live_bytes());
    }

    #[test]
    fn freeze_thaw_is_the_identity_on_a_generated_client_stream() {
        use rand::{rngs::StdRng, SeedableRng};
        use synthtraffic::benign::generate_benign;
        use synthtraffic::episode::generate_infection;
        use synthtraffic::{BenignScenario, EkFamily};
        // One client's afternoon: infections and browsing interleaved,
        // some of it carrying a session cookie.
        let mut rng = StdRng::seed_from_u64(77);
        let mut stream = Vec::new();
        for (i, family) in [EkFamily::Angler, EkFamily::Rig, EkFamily::Magnitude].iter().enumerate() {
            let t0 = 1.45e9 + i as f64 * 120.0;
            stream.extend(generate_infection(&mut rng, *family, t0).transactions);
            let scenario = BenignScenario::WEIGHTED[i].0;
            stream.extend(generate_benign(&mut rng, scenario, t0 + 40.0).transactions);
        }
        stream.sort_by(|a, b| a.ts.total_cmp(&b.ts));
        for (i, t) in stream.iter_mut().enumerate() {
            t.client = nettrace::reassembly::Endpoint::new(Ipv4Addr::new(10, 0, 0, 5), 50000);
            if i % 5 == 0 {
                t.req_headers.append("Cookie", "sid=afternoon");
            }
        }
        for freeze_at in (0..=stream.len()).step_by(5) {
            check_freeze_thaw_is_identity(&stream, freeze_at);
        }
    }

    proptest::proptest! {
        /// Arbitrary short streams (out-of-order arrivals, idle gaps that
        /// split conversations, capped conversations) and any freeze point.
        #[test]
        fn freeze_thaw_is_the_identity_at_any_point_of_any_stream(
            stream in proptest::collection::vec(crate::wcg::tests::arb_tx(), 0..40),
            cut in 0usize..41
        ) {
            check_freeze_thaw_is_identity(&stream, cut.min(stream.len()));
        }
    }
}
