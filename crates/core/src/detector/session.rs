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
//! # Durable state
//!
//! Two robustness tiers sit on top of the clustering (DESIGN.md §13):
//!
//! * **Spill tier** — with a [`SpillConfig`], idle conversations are
//!   demoted to a compact frozen form (the
//!   transactions plus the match keys; the WCG builder and feature
//!   caches are dropped) under a byte-accounted budget, and rehydrated
//!   through the existing absorb fold when their next transaction
//!   arrives. Hard eviction becomes the last resort and is counted
//!   separately from spill.
//! * **Snapshot** — [`SessionTracker::state`] serializes everything a
//!   restarted tracker needs ([`TrackerState`]); restoring replays each
//!   conversation's stored transactions through the same fold, so the
//!   rebuilt WCGs are identical to the originals.

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
    /// Conversations ever created.
    pub created: u64,
    /// Conversations evicted by the retention window.
    pub evicted: u64,
    /// Conversations evicted by the per-client conversation cap.
    pub cap_evicted: u64,
    /// Frozen conversations hard-evicted by the spill budget.
    pub spill_evicted: u64,
    /// Live→frozen demotions.
    pub spilled: u64,
    /// Frozen→live rehydrations.
    pub rehydrated: u64,
    /// Transactions dropped by the per-conversation cap.
    pub dropped_transactions: u64,
}

/// One client's serialized conversations plus its private id counter
/// (without the counter a restored tracker would reuse conversation
/// ids). Frozen conversations are decoded into plain states at snapshot
/// time; a restored tracker starts with everything live and re-demotes
/// on the next budget check.
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

/// Per-conversation host symbol table: lowercased host names are
/// interned to dense `u32` symbols once, so the per-transaction
/// match/absorb path stores and compares symbols instead of allocating a
/// fresh lowercase copy per candidate conversation.
#[derive(Debug, Clone, Default)]
struct HostInterner {
    /// Lowercased name → symbol; symbols are dense insertion indices.
    index: BTreeMap<String, u32>,
}

impl HostInterner {
    /// Symbol for an already-lowercased host, interning it when new —
    /// the only path that copies the host string.
    fn intern(&mut self, lower: &str) -> u32 {
        if let Some(&sym) = self.index.get(lower) {
            return sym;
        }
        let sym = self.index.len() as u32;
        self.index.insert(lower.to_string(), sym);
        sym
    }

    /// Symbol of an already-interned lowercased host, if any.
    fn lookup(&self, lower: &str) -> Option<u32> {
        self.index.get(lower).copied()
    }

    /// Interned names in lexicographic order (the iteration order the
    /// pre-interner `BTreeSet<String>` host set had).
    fn names(&self) -> impl Iterator<Item = &str> {
        self.index.keys().map(String::as_str)
    }

    /// Consumes the interner into its name set (freeze path).
    fn into_names(self) -> BTreeSet<String> {
        self.index.into_keys().collect()
    }
}

/// One conversation under observation.
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
    /// Incrementally maintained WCG over the stored transactions,
    /// equivalent to `Wcg::from_transactions(&self.transactions)` at
    /// every point.
    builder: WcgBuilder,
    /// Memoized topology-dependent feature values for the detector.
    feature_cache: TopoCache,
    /// Symbols (from `interner`) of the hosts contacted so far.
    hosts: BTreeSet<u32>,
    /// Host symbol table; its name set is exactly the hosts contacted.
    interner: HostInterner,
    session_ids: BTreeSet<String>,
    urls: BTreeSet<String>,
    /// Reusable buffer for building match keys (URL, lowercased target
    /// host) without a fresh allocation per transaction.
    scratch: String,
    last_ts: f64,
    /// Host of the most recent transaction *if* it was dropped by the
    /// per-conversation cap (cleared on every stored transaction).
    capped_host: Option<String>,
    /// Monotone heap-usage estimate (see [`tx_cost`]) maintained
    /// incrementally so the spill tier's budget check is O(1).
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
            builder: WcgBuilder::new(),
            feature_cache: TopoCache::new(),
            hosts: BTreeSet::new(),
            interner: HostInterner::default(),
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
    /// sequence, so the reconstructed WCG builder — including its
    /// topology version — is identical to the one that was dropped.
    /// Scalars the fold cannot see (detector flags and the effects of
    /// cap-dropped transactions) are then overwritten from the state.
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
            conv.absorb(tx);
        }
        conv.alerted = alerted;
        conv.watched = watched;
        conv.redirects_seen = redirects_seen;
        conv.max_payload_likelihood = max_payload_likelihood;
        conv.last_tx_added_host = last_tx_added_host;
        conv.last_tx_redirectish = last_tx_redirectish;
        conv.last_ts = last_ts;
        if let Some(host) = capped_host {
            conv.approx_bytes += host.len();
            conv.capped_host = Some(host);
        }
        conv
    }

    /// Time of the most recent transaction.
    pub fn last_ts(&self) -> f64 {
        self.last_ts
    }

    /// The incrementally maintained WCG over the stored transactions,
    /// its topology version, and the conversation's feature cache —
    /// split-borrowed so the caller can extract features while the cache
    /// is held mutably.
    pub fn wcg_state(&mut self) -> (&Wcg, u64, &mut TopoCache) {
        let Conversation { builder, feature_cache, .. } = self;
        (builder.wcg(), builder.topo_version(), feature_cache)
    }

    /// [`Conversation::wcg_state`] for readers holding only `&self` (the
    /// final verdict sweep): the cache can be consulted, not refilled.
    pub fn wcg_cached(&self) -> (&Wcg, u64, &TopoCache) {
        (self.builder.wcg(), self.builder.topo_version(), &self.feature_cache)
    }

    /// Records a transaction that was dropped by the per-conversation
    /// cap: activity is acknowledged (so idle/retention timers behave)
    /// but nothing is stored, bounding memory against a hostile endpoint
    /// streaming unbounded transactions into one conversation. Only the
    /// host survives (moved, not cloned) so an alert fired by a capped
    /// transaction can still name its trigger.
    fn note_capped(&mut self, tx: HttpTransaction) {
        self.last_tx_added_host = false;
        self.last_tx_redirectish =
            tx.is_redirect() || !crate::wcg::redirect::targets(&tx).is_empty();
        self.last_ts = self.last_ts.max(tx.ts);
        self.approx_bytes += tx.host.len();
        self.capped_host = Some(tx.host);
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
        self.interner.names()
    }

    /// Cold-path absorb (snapshot replay): derives the per-transaction
    /// match keys itself. The live path computes them once per
    /// transaction in [`SessionTracker::assign_owned`] and calls
    /// [`Conversation::absorb_prepared`] directly.
    fn absorb(&mut self, tx: HttpTransaction) {
        let sid = tx.session_id();
        let host_lower = tx.host.to_ascii_lowercase();
        self.absorb_prepared(tx, sid, &host_lower);
    }

    fn absorb_prepared(
        &mut self,
        tx: HttpTransaction,
        sid: Option<String>,
        host_lower: &str,
    ) {
        self.approx_bytes += tx_cost(&tx) + LIVE_TX_OVERHEAD;
        self.capped_host = None;
        let sym = self.interner.intern(host_lower);
        self.last_tx_added_host = self.hosts.insert(sym);
        if let Some(sid) = sid {
            self.session_ids.insert(sid);
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
                    let sym = self.interner.intern(&self.scratch);
                    self.hosts.insert(sym);
                }
            }
        }
        self.last_ts = self.last_ts.max(tx.ts);
        // The transaction is moved into storage — the shard queues of the
        // stream engine hand transactions over by value, so the live path
        // never clones one.
        self.transactions.push(tx);
        let stored = self.transactions.last().expect("just pushed");
        if self.builder.push_with_targets(stored, &targets) == PushOutcome::NeedsRebuild {
            self.builder.rebuild(&self.transactions);
        }
    }

    fn matches(
        &self,
        tx: &HttpTransaction,
        sid: Option<&str>,
        referer_host: Option<&str>,
        host_lower: &str,
    ) -> bool {
        if let Some(sid) = sid {
            if self.session_ids.contains(sid) {
                return true;
            }
        }
        if let Some(r) = tx.referer() {
            if self.urls.contains(r) {
                return true;
            }
        }
        if let Some(h) = referer_host {
            if self.interner.lookup(h).is_some() {
                return true;
            }
        }
        self.interner.lookup(host_lower).is_some()
    }
}

/// A demoted idle conversation: the serializable state plus the match
/// keys, with the WCG builder, feature cache, and per-transaction graph
/// bookkeeping dropped. It still participates in assignment exactly
/// like a live conversation (same match predicate, same activity
/// timestamp), so demotion is behavior-neutral; the first transaction
/// that matches thaws it back through [`Conversation::from_state`].
#[derive(Debug, Clone)]
struct FrozenConversation {
    state: ConversationState,
    hosts: BTreeSet<String>,
    session_ids: BTreeSet<String>,
    urls: BTreeSet<String>,
    /// Byte estimate charged against the spill budget.
    accounted_bytes: usize,
}

impl FrozenConversation {
    fn freeze(conv: Conversation) -> Self {
        let state = ConversationState {
            id: conv.id,
            alerted: conv.alerted,
            watched: conv.watched,
            redirects_seen: conv.redirects_seen,
            max_payload_likelihood: conv.max_payload_likelihood,
            last_tx_added_host: conv.last_tx_added_host,
            last_tx_redirectish: conv.last_tx_redirectish,
            last_ts: conv.last_ts,
            capped_host: conv.capped_host,
            transactions: conv.transactions,
        };
        // Host symbols are resolved back to their names at the freeze
        // boundary: the frozen tier keeps plain strings so its byte
        // accounting and match predicate are interner-independent.
        let hosts = conv.interner.into_names();
        let key_bytes: usize = hosts
            .iter()
            .chain(&conv.session_ids)
            .chain(&conv.urls)
            .map(|s| s.len() + 32)
            .sum();
        let accounted_bytes = FROZEN_BASE_BYTES
            + state.transactions.iter().map(tx_cost).sum::<usize>()
            + key_bytes;
        FrozenConversation {
            state,
            hosts,
            session_ids: conv.session_ids,
            urls: conv.urls,
            accounted_bytes,
        }
    }

    fn thaw(self) -> Conversation {
        Conversation::from_state(self.state)
    }

    fn last_ts(&self) -> f64 {
        self.state.last_ts
    }

    /// Same predicate as [`Conversation::matches`], over the retained
    /// match keys.
    fn matches(
        &self,
        tx: &HttpTransaction,
        sid: Option<&str>,
        referer_host: Option<&str>,
        host_lower: &str,
    ) -> bool {
        if let Some(sid) = sid {
            if self.session_ids.contains(sid) {
                return true;
            }
        }
        if let Some(r) = tx.referer() {
            if self.urls.contains(r) {
                return true;
            }
        }
        if let Some(h) = referer_host {
            if self.hosts.contains(h) {
                return true;
            }
        }
        self.hosts.contains(host_lower)
    }
}

/// A tracked conversation in either lifecycle tier.
// Not boxed: `Live` is the hot variant touched on every transaction,
// and the frozen tier's footprint is governed by `accounted_bytes`
// budgets, not the enum's in-place size.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Slot {
    Live(Conversation),
    Frozen(FrozenConversation),
}

impl Slot {
    fn last_ts(&self) -> f64 {
        match self {
            Slot::Live(c) => c.last_ts(),
            Slot::Frozen(f) => f.last_ts(),
        }
    }

    fn matches(
        &self,
        tx: &HttpTransaction,
        sid: Option<&str>,
        referer_host: Option<&str>,
        host_lower: &str,
    ) -> bool {
        match self {
            Slot::Live(c) => c.matches(tx, sid, referer_host, host_lower),
            Slot::Frozen(f) => f.matches(tx, sid, referer_host, host_lower),
        }
    }

    fn is_live(&self) -> bool {
        matches!(self, Slot::Live(_))
    }
}

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

/// Swaps the slot at `convs[idx]` from live to frozen in place,
/// returning `(live bytes freed, spill bytes charged)`. Free function
/// so callers holding a client-entry borrow can still update tracker
/// counters (disjoint field borrows).
fn freeze_slot(convs: &mut [Slot], idx: usize) -> (usize, usize) {
    let placeholder = Slot::Live(Conversation::new(0, 0.0));
    let Slot::Live(conv) = std::mem::replace(&mut convs[idx], placeholder) else {
        unreachable!("freeze_slot caller checked the slot is live");
    };
    let freed = conv.approx_bytes;
    let frozen = FrozenConversation::freeze(conv);
    let charged = frozen.accounted_bytes;
    convs[idx] = Slot::Frozen(frozen);
    (freed, charged)
}

/// One client's conversations plus its private id counter. Conversation
/// ids are `(client_ip << 32) | local_counter`, so two trackers that see
/// the same per-client substreams assign identical ids regardless of how
/// the clients' transactions interleave — the invariant that lets the
/// sharded stream engine reproduce single-threaded output bit for bit.
#[derive(Debug, Default)]
struct ClientSessions {
    convs: Vec<Slot>,
    next_local: u32,
}

/// Per-client conversation tracker.
#[derive(Debug)]
pub struct SessionTracker {
    clients: BTreeMap<Ipv4Addr, ClientSessions>,
    idle_timeout: f64,
    retention: Option<f64>,
    /// Live conversation count, maintained incrementally so the
    /// per-transaction telemetry gauge update is O(1) instead of a sum
    /// over all clients.
    live: usize,
    evicted: usize,
    max_conversations: usize,
    max_transactions: usize,
    cap_evicted: usize,
    dropped_transactions: u64,
    /// LRU spill tier budgets; `None` disables demotion entirely (the
    /// pre-spill behavior, and the default).
    spill: Option<SpillConfig>,
    /// Conversations ever created (the accounting anchor:
    /// `created == live + frozen + evicted + cap_evicted + spill_evicted`).
    created: u64,
    /// Live→frozen demotions (a conversation can spill repeatedly).
    spilled: u64,
    /// Frozen→live rehydrations.
    rehydrated: u64,
    /// Frozen conversations hard-evicted by the spill budget.
    spill_evicted: usize,
    /// Current frozen conversation count.
    frozen: usize,
    /// Estimated bytes held by live conversations.
    live_bytes: usize,
    /// Estimated bytes held by frozen conversations.
    spill_bytes: usize,
    /// Reusable buffer for the lowercased host of the transaction being
    /// assigned — computed once per transaction, not per candidate
    /// conversation.
    host_lower: String,
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
            live: 0,
            evicted: 0,
            max_conversations: usize::MAX,
            max_transactions: usize::MAX,
            cap_evicted: 0,
            dropped_transactions: 0,
            spill: None,
            created: 0,
            spilled: 0,
            rehydrated: 0,
            spill_evicted: 0,
            frozen: 0,
            live_bytes: 0,
            spill_bytes: 0,
            host_lower: String::new(),
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

    /// Number of conversations evicted so far.
    pub fn evicted_count(&self) -> usize {
        self.evicted
    }

    /// Conversations ever created.
    pub fn created_count(&self) -> u64 {
        self.created
    }

    /// Live→frozen demotions so far.
    pub fn spilled_count(&self) -> u64 {
        self.spilled
    }

    /// Frozen→live rehydrations so far.
    pub fn rehydrated_count(&self) -> u64 {
        self.rehydrated
    }

    /// Frozen conversations hard-evicted by the spill budget.
    pub fn spill_evicted_count(&self) -> usize {
        self.spill_evicted
    }

    /// Current frozen conversation count.
    pub fn frozen_count(&self) -> usize {
        self.frozen
    }

    /// Estimated bytes currently held by the frozen tier.
    pub fn spill_bytes(&self) -> usize {
        self.spill_bytes
    }

    /// Estimated bytes currently held by live conversations.
    pub fn live_bytes(&self) -> usize {
        self.live_bytes
    }

    /// Conversations evicted by the per-client conversation cap (as
    /// opposed to the retention window).
    pub fn cap_evicted_count(&self) -> usize {
        self.cap_evicted
    }

    /// Transactions dropped by the per-conversation transaction cap.
    pub fn dropped_transaction_count(&self) -> u64 {
        self.dropped_transactions
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
        let (mut gone_live, mut gone_frozen) = (0usize, 0usize);
        let (mut freed_live, mut freed_spill) = (0usize, 0usize);
        for entry in self.clients.values_mut() {
            entry.convs.retain(|slot| {
                if now - slot.last_ts() <= retention {
                    return true;
                }
                match slot {
                    Slot::Live(c) => {
                        gone_live += 1;
                        freed_live += c.approx_bytes;
                    }
                    Slot::Frozen(f) => {
                        gone_frozen += 1;
                        freed_spill += f.accounted_bytes;
                    }
                }
                false
            });
        }
        self.clients.retain(|_, entry| !entry.convs.is_empty());
        self.evicted += gone_live + gone_frozen;
        self.live -= gone_live;
        self.frozen -= gone_frozen;
        self.live_bytes = self.live_bytes.saturating_sub(freed_live);
        self.spill_bytes = self.spill_bytes.saturating_sub(freed_spill);
    }

    /// Enforces the spill budgets. First demotes the globally
    /// least-recently-active idle conversations until the live tier is
    /// back under budget, then hard-evicts the oldest frozen
    /// conversations if the frozen tier itself overflows. Candidate
    /// order is `(last_ts, client, slot index)` — fully deterministic.
    fn spill_enforce(&mut self, now: f64) {
        let Some(cfg) = self.spill else { return };
        if self.live_bytes > cfg.max_live_bytes {
            let mut candidates: Vec<(f64, Ipv4Addr, usize)> = Vec::new();
            for (addr, entry) in &self.clients {
                for (i, slot) in entry.convs.iter().enumerate() {
                    if let Slot::Live(c) = slot {
                        if now - c.last_ts() >= cfg.min_idle_secs {
                            candidates.push((c.last_ts(), *addr, i));
                        }
                    }
                }
            }
            candidates
                .sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
            for (_, addr, i) in candidates {
                if self.live_bytes <= cfg.max_live_bytes {
                    break;
                }
                let entry = self.clients.get_mut(&addr).expect("candidate client exists");
                let (freed, charged) = freeze_slot(&mut entry.convs, i);
                self.live_bytes = self.live_bytes.saturating_sub(freed);
                self.spill_bytes += charged;
                self.live -= 1;
                self.frozen += 1;
                self.spilled += 1;
            }
        }
        if self.spill_bytes > cfg.max_spill_bytes {
            let mut frozen_slots: Vec<(f64, Ipv4Addr, usize, usize)> = Vec::new();
            for (addr, entry) in &self.clients {
                for (i, slot) in entry.convs.iter().enumerate() {
                    if let Slot::Frozen(f) = slot {
                        frozen_slots.push((f.last_ts(), *addr, i, f.accounted_bytes));
                    }
                }
            }
            frozen_slots
                .sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
            let mut projected = self.spill_bytes;
            let mut doomed: BTreeMap<Ipv4Addr, Vec<usize>> = BTreeMap::new();
            for (_, addr, i, bytes) in frozen_slots {
                if projected <= cfg.max_spill_bytes {
                    break;
                }
                projected = projected.saturating_sub(bytes);
                doomed.entry(addr).or_default().push(i);
            }
            for (addr, mut idxs) in doomed {
                // Remove back to front so earlier indices stay valid.
                idxs.sort_unstable_by(|a, b| b.cmp(a));
                let entry = self.clients.get_mut(&addr).expect("doomed client exists");
                for i in idxs {
                    let Slot::Frozen(f) = entry.convs.remove(i) else {
                        unreachable!("doomed slot was frozen when collected");
                    };
                    self.spill_bytes = self.spill_bytes.saturating_sub(f.accounted_bytes);
                    self.frozen -= 1;
                    self.spill_evicted += 1;
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
        let spill_enabled = self.spill.is_some();
        // Per-transaction match keys, derived once here rather than once
        // per candidate conversation: the session id, the lowercased host
        // (built in a scratch buffer reused across transactions), and the
        // referrer host.
        let sid = tx.session_id();
        let mut host_lower = std::mem::take(&mut self.host_lower);
        host_lower.clear();
        host_lower.push_str(&tx.host);
        host_lower.make_ascii_lowercase();
        let entry = self.clients.entry(client).or_default();
        let convs = &mut entry.convs;
        let referer_host = tx.referer().and_then(|r| {
            let rest = r.split_once("://").map_or(r, |(_, x)| x);
            rest.split(['/', '?', '#']).next().map(|h| h.to_ascii_lowercase())
        });

        // Frozen conversations participate in both passes exactly like
        // live ones (same predicate, same timestamps) — demotion never
        // changes which conversation a transaction joins.
        let active = |s: &Slot| tx.ts - s.last_ts() <= idle_timeout;
        // Pass 1: structural match among active conversations.
        let mut chosen: Option<usize> = None;
        for (i, s) in convs.iter().enumerate() {
            if active(s) && s.matches(&tx, sid.as_deref(), referer_host.as_deref(), &host_lower)
            {
                chosen = Some(i);
                break;
            }
        }
        // Pass 2: referrer-less transactions join the most recently
        // active conversation (timestamp heuristic).
        if chosen.is_none() && tx.referer().is_none() && sid.is_none() {
            chosen = convs
                .iter()
                .enumerate()
                .filter(|(_, s)| active(s))
                .max_by(|a, b| a.1.last_ts().total_cmp(&b.1.last_ts()))
                .map(|(i, _)| i);
        }
        let idx = match chosen {
            Some(i) => i,
            None => {
                if convs.iter().filter(|s| s.is_live()).count() >= self.max_conversations {
                    // At the cap: the least-recently-active live
                    // conversation makes room — demoted to the frozen
                    // tier when spill is enabled (eviction is the last
                    // resort), discarded outright otherwise. Its alert
                    // (if any) was already emitted when it fired.
                    let lru = convs
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| s.is_live())
                        .min_by(|a, b| a.1.last_ts().total_cmp(&b.1.last_ts()))
                        .map(|(i, _)| i)
                        .expect("cap is >= 1, so a full client has live conversations");
                    if spill_enabled {
                        let (freed, charged) = freeze_slot(convs, lru);
                        self.live_bytes = self.live_bytes.saturating_sub(freed);
                        self.spill_bytes += charged;
                        self.frozen += 1;
                        self.spilled += 1;
                    } else {
                        let Slot::Live(gone) = convs.remove(lru) else {
                            unreachable!("lru slot was live when selected");
                        };
                        self.live_bytes = self.live_bytes.saturating_sub(gone.approx_bytes);
                        self.cap_evicted += 1;
                    }
                    self.live -= 1;
                }
                // Client-scoped id: high 32 bits the client address, low
                // 32 bits the per-client creation counter.
                let id = (u64::from(u32::from(client)) << 32) | u64::from(entry.next_local);
                entry.next_local = entry.next_local.wrapping_add(1);
                convs.push(Slot::Live(Conversation::new(id, tx.ts)));
                self.created += 1;
                self.live += 1;
                self.live_bytes += CONV_BASE_BYTES;
                convs.len() - 1
            }
        };
        // Rehydrate if the transaction matched a frozen conversation.
        if !convs[idx].is_live() {
            let placeholder = Slot::Live(Conversation::new(0, 0.0));
            let Slot::Frozen(frozen) = std::mem::replace(&mut convs[idx], placeholder) else {
                unreachable!("just checked the slot is frozen");
            };
            self.spill_bytes = self.spill_bytes.saturating_sub(frozen.accounted_bytes);
            let conv = frozen.thaw();
            self.live_bytes += conv.approx_bytes;
            convs[idx] = Slot::Live(conv);
            self.rehydrated += 1;
            self.frozen -= 1;
            self.live += 1;
        }
        let Slot::Live(conv) = &mut convs[idx] else {
            unreachable!("chosen slot is live after rehydration");
        };
        let bytes_before = conv.approx_bytes;
        if conv.transactions.len() >= self.max_transactions {
            self.dropped_transactions += 1;
            conv.note_capped(tx);
        } else {
            conv.absorb_prepared(tx, sid, &host_lower);
        }
        self.live_bytes += conv.approx_bytes - bytes_before;
        self.host_lower = host_lower;
        conv
    }

    /// All live conversations of all clients (for offline/forensic
    /// summaries). Frozen conversations are not visible here; call
    /// [`SessionTracker::rehydrate_all`] first when a complete view is
    /// needed.
    pub fn conversations(&self) -> impl Iterator<Item = &Conversation> {
        self.clients.values().flat_map(|entry| {
            entry.convs.iter().filter_map(|slot| match slot {
                Slot::Live(c) => Some(c),
                Slot::Frozen(_) => None,
            })
        })
    }

    /// Number of live conversations (O(1); maintained incrementally).
    pub fn conversation_count(&self) -> usize {
        debug_assert_eq!(
            self.live,
            self.clients
                .values()
                .map(|entry| entry.convs.iter().filter(|s| s.is_live()).count())
                .sum::<usize>()
        );
        self.live
    }

    /// Thaws every frozen conversation back to the live tier (counted
    /// as rehydrations). Used before forensic verdict passes, which
    /// need every conversation resident.
    pub fn rehydrate_all(&mut self) {
        let mut thawed = 0usize;
        let (mut freed, mut added) = (0usize, 0usize);
        for entry in self.clients.values_mut() {
            for slot in &mut entry.convs {
                if slot.is_live() {
                    continue;
                }
                let placeholder = Slot::Live(Conversation::new(0, 0.0));
                let Slot::Frozen(frozen) = std::mem::replace(slot, placeholder) else {
                    unreachable!("just checked the slot is frozen");
                };
                freed += frozen.accounted_bytes;
                let conv = frozen.thaw();
                added += conv.approx_bytes;
                *slot = Slot::Live(conv);
                thawed += 1;
            }
        }
        self.rehydrated += thawed as u64;
        self.frozen -= thawed;
        self.live += thawed;
        self.spill_bytes = self.spill_bytes.saturating_sub(freed);
        self.live_bytes += added;
    }

    /// Serializable image of the whole tracker. Frozen conversations
    /// are decoded into plain states; a restored tracker starts with
    /// everything live and re-demotes on its next budget check.
    pub fn state(&self) -> TrackerState {
        let clients = self
            .clients
            .iter()
            .map(|(addr, entry)| ClientRecord {
                addr: *addr,
                next_local: entry.next_local,
                convs: entry
                    .convs
                    .iter()
                    .map(|slot| match slot {
                        Slot::Live(c) => c.to_state(),
                        Slot::Frozen(f) => f.state.clone(),
                    })
                    .collect(),
            })
            .collect();
        TrackerState {
            clients,
            counters: TrackerCounters {
                created: self.created,
                evicted: self.evicted as u64,
                cap_evicted: self.cap_evicted as u64,
                spill_evicted: self.spill_evicted as u64,
                spilled: self.spilled,
                rehydrated: self.rehydrated,
                dropped_transactions: self.dropped_transactions,
            },
        }
    }

    /// Replaces this tracker's conversations and counters with a
    /// serialized image, rebuilding every WCG by replaying the stored
    /// transactions. Configuration (timeouts, caps, spill budgets) is
    /// NOT part of the image — it stays whatever this tracker was
    /// constructed with, so a snapshot can be restored under new
    /// operational settings.
    pub fn restore(&mut self, state: TrackerState) {
        self.clients.clear();
        self.live = 0;
        self.frozen = 0;
        self.live_bytes = 0;
        self.spill_bytes = 0;
        for record in state.clients {
            let mut convs = Vec::with_capacity(record.convs.len());
            for cs in record.convs {
                let conv = Conversation::from_state(cs);
                self.live += 1;
                self.live_bytes += conv.approx_bytes;
                convs.push(Slot::Live(conv));
            }
            self.clients
                .insert(record.addr, ClientSessions { convs, next_local: record.next_local });
        }
        let c = state.counters;
        self.created = c.created;
        self.evicted = c.evicted as usize;
        self.cap_evicted = c.cap_evicted as usize;
        self.spill_evicted = c.spill_evicted as usize;
        self.spilled = c.spilled;
        self.rehydrated = c.rehydrated;
        self.dropped_transactions = c.dropped_transactions;
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
}
