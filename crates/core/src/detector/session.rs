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
//! the transactions, the detector's scalars, and a record table: one
//! fixed-size record per transaction, made while it is hot, holding
//! exactly what the WCG fold reads, with every host, URI and redirect
//! target interned once in one per-conversation string buffer. The match
//! keys (hosts, session ids, URLs) are strings of the same buffer, marked
//! by role. Its WCG is built retrospectively, as the paper builds it
//! around the clue: the `graph` field (a builder) stays empty until the
//! detector first looks at the conversation, which builds it with one
//! rebuild from the records; from then on each record is folded in as
//! it arrives. A conversation never looked at gets its graph only in the
//! final verdict sweep, which builds it from the records, scores it and
//! drops it; no graph build reads a transaction. Tracker memory is
//! bounded by the two caps ([`SessionTracker::with_caps`]; DESIGN.md
//! §13).
//! [`SessionTracker::state`] serializes the stored state less the
//! records ([`TrackerState`]); restoring replays each conversation's
//! transactions through the absorb fold, which makes them again and
//! builds no graph.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use nettrace::HttpTransaction;
use serde::{Deserialize, Serialize};

use crate::wcg::record::TxTable;
use crate::wcg::{PushOutcome, Wcg, WcgBuilder};

/// Roles of a conversation's strings among its match keys.
const HOST: u8 = 1;
/// A URL a transaction requested, stored without its `http://`.
const URL: u8 = 2;
const SESSION: u8 = 4;

/// Serializable image of a [`Conversation`]: the stored transactions
/// plus exactly the scalars the absorb fold cannot reconstruct —
/// detector-maintained flags and the residue of cap-dropped
/// transactions (which were never stored). The records and match keys
/// are rebuilt on [`SessionTracker::restore`] by replaying the
/// transactions through the absorb fold; the WCG is built again when the
/// detector next looks.
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
    /// live + cap_evicted`).
    pub created: u64,
    /// Conversations evicted by the per-client conversation cap.
    pub cap_evicted: u64,
    /// Transactions dropped by the per-conversation cap.
    pub dropped_transactions: u64,
}

impl std::ops::AddAssign for TrackerCounters {
    /// Field-wise sum: how per-shard totals merge into whole-run ones.
    fn add_assign(&mut self, other: Self) {
        self.created += other.created;
        self.cap_evicted += other.cap_evicted;
        self.dropped_transactions += other.dropped_transactions;
    }
}

/// One client's serialized conversations plus its private id counter
/// (without the counter a restored tracker would reuse conversation
/// ids).
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

/// One conversation under observation (see the module docs).
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
    /// Whether the most recent transaction was a redirect hop (3xx or a
    /// detectable redirect target). Computed once here so the detector
    /// does not re-derive redirect targets per transaction.
    pub last_tx_redirectish: bool,
    /// Derived state, built on the detector's first look: the
    /// incrementally maintained WCG over the stored transactions —
    /// equivalent to `Wcg::from_transactions(&self.transactions)` at every
    /// point. `None` until then; boxed, so a conversation without one
    /// does not carry the builder's several hundred bytes inline.
    graph: Option<Box<WcgBuilder>>,
    /// One record per stored transaction, and the strings they and the
    /// match keys name: what every graph build reads.
    table: TxTable,
    last_ts: f64,
    /// Host of the most recent transaction *if* it was dropped by the
    /// per-conversation cap (cleared on every stored transaction).
    capped_host: Option<String>,
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
            last_tx_redirectish: false,
            graph: None,
            table: TxTable::default(),
            last_ts: ts,
            capped_host: None,
        }
    }

    /// Serializable image of this conversation (transactions cloned).
    fn to_state(&self) -> ConversationState {
        ConversationState {
            id: self.id,
            transactions: self.transactions.clone(),
            alerted: self.alerted,
            watched: self.watched,
            redirects_seen: self.redirects_seen,
            max_payload_likelihood: self.max_payload_likelihood,
            last_tx_redirectish: self.last_tx_redirectish,
            last_ts: self.last_ts,
            capped_host: self.capped_host.clone(),
        }
    }

    /// Rebuilds a conversation from its serialized image by replaying
    /// the stored transactions through the same absorb fold that built
    /// the original. The fold is deterministic in the transaction
    /// sequence, so the reconstructed records and match keys are
    /// identical to the ones that were dropped; no graph is built until
    /// the detector next looks. Scalars the fold cannot see
    /// (detector flags and the effects of cap-dropped transactions) are
    /// then overwritten from the state.
    fn from_state(state: ConversationState) -> Self {
        let ConversationState {
            id,
            transactions,
            alerted,
            watched,
            redirects_seen,
            max_payload_likelihood,
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
        conv.last_tx_redirectish = last_tx_redirectish;
        conv.last_ts = last_ts;
        conv.capped_host = capped_host;
        conv
    }

    /// Time of the most recent transaction.
    pub fn last_ts(&self) -> f64 {
        self.last_ts
    }

    /// The conversation's WCG over the stored transactions. The first
    /// call builds it (one rebuild from the records); every later
    /// transaction is then folded in on arrival.
    // Out of line: inlined into `observe_owned`, this once-per-conversation
    // build doubles as hot-path code and `stream_infected` pays for it
    // (10–20 % more CPU per transaction on a 2-vCPU host).
    #[inline(never)]
    pub(crate) fn wcg_state(&mut self) -> &Wcg {
        self.graph
            .get_or_insert_with(|| {
                let mut builder = WcgBuilder::new();
                builder.rebuild_records(&self.table);
                Box::new(builder)
            })
            .wcg()
    }

    /// The WCG the conversation holds, for readers holding only `&self`
    /// (the final verdict sweep). `None` while the detector has never
    /// looked at the conversation.
    pub fn held_wcg(&self) -> Option<&Wcg> {
        self.graph.as_deref().map(WcgBuilder::wcg)
    }

    /// Builds the conversation's WCG into `builder` from the records:
    /// what `Wcg::from_transactions(&self.transactions)` builds, without
    /// reading a transaction.
    pub(crate) fn build_wcg<'b>(&self, builder: &'b mut WcgBuilder) -> &'b Wcg {
        builder.rebuild_records(&self.table);
        builder.wcg()
    }

    /// Records a transaction that was dropped by the per-conversation
    /// cap: activity is acknowledged (so the idle timer behaves)
    /// but nothing is stored, bounding memory against a hostile endpoint
    /// streaming unbounded transactions into one conversation. Only the
    /// host survives (moved, not cloned, and replacing the previous
    /// capped host) so an alert fired by a capped transaction can still
    /// name its trigger.
    fn note_capped(&mut self, tx: HttpTransaction) {
        self.last_tx_redirectish =
            tx.is_redirect() || !crate::wcg::redirect::targets(&tx).is_empty();
        self.last_ts = self.last_ts.max(tx.ts);
        self.capped_host = Some(tx.host);
    }

    /// Host of the most recently arrived transaction, whether it was
    /// stored or dropped by the per-conversation cap.
    pub(crate) fn last_host(&self) -> &str {
        self.capped_host
            .as_deref()
            .or_else(|| self.transactions.last().map(|t| t.host.as_str()))
            .unwrap_or("")
    }

    /// Hosts contacted in this conversation or named by a redirect
    /// target, lowercased, in lexicographic order.
    pub fn hosts(&self) -> impl Iterator<Item = &str> {
        self.table.strings.with_role(HOST)
    }

    /// How many hosts [`Conversation::hosts`] lists.
    pub(crate) fn host_count(&self) -> usize {
        self.table.strings.count_role(HOST)
    }

    /// Folds one transaction into the stored and the derived state: its
    /// record and match keys, then, when the conversation holds a graph,
    /// the graph.
    fn absorb(&mut self, tx: HttpTransaction) {
        self.capped_host = None;
        // Redirect targets are derived once per transaction and shared by
        // the record, host pre-registration and the detector's redirect
        // clue.
        let targets = crate::wcg::redirect::targets(&tx);
        self.last_tx_redirectish = tx.is_redirect() || !targets.is_empty();
        let rec = self.table.push(&tx, &targets);
        let (host, uri, uri_is_url) = (rec.host, rec.uri_key().0, rec.uri_key_is_url());
        let keys = &mut self.table.strings;
        keys.add_role(host, HOST);
        if let Some(sid) = tx.session_id() {
            keys.intern(sid, SESSION);
        }
        if uri_is_url {
            keys.add_role(uri, URL);
        } else {
            keys.intern_with(URL, |buf| {
                buf.push_str(&tx.host);
                buf.push_str(&tx.uri);
            });
        }
        // Redirect targets become expected hosts, so follow-up requests
        // with stripped referrers still cluster correctly.
        for target in &targets {
            if let Some(rest) = target.split_once("://").map(|(_, r)| r) {
                if let Some(h) = rest.split(['/', '?', '#']).next() {
                    keys.intern_lower(h.split(':').next().unwrap_or(h), HOST);
                }
            }
        }
        self.last_ts = self.last_ts.max(tx.ts);
        // The transaction is moved into storage — the shard queues of the
        // stream engine hand transactions over by value, so the live path
        // never clones one.
        self.transactions.push(tx);
        // Only a conversation the detector has looked at holds a graph.
        let Some(builder) = &mut self.graph else { return };
        let last = self.table.records.len() - 1;
        if builder.push_record(&self.table, last) == PushOutcome::NeedsRebuild {
            builder.rebuild_records(&self.table);
        }
    }

    /// The structural match of assignment pass 1, over the stored match
    /// keys.
    fn matches(
        &self,
        tx: &HttpTransaction,
        sid: Option<&str>,
        referer_host: Option<&str>,
        host_lower: &str,
    ) -> bool {
        let keys = &self.table.strings;
        sid.is_some_and(|sid| keys.has(sid, SESSION))
            || tx
                .referer()
                .and_then(|r| r.strip_prefix("http://"))
                .is_some_and(|url| keys.has(url, URL))
            || referer_host.is_some_and(|h| keys.has(h, HOST))
            || keys.has(host_lower, HOST)
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
    max_conversations: usize,
    max_transactions: usize,
    counters: TrackerCounters,
    /// Conversations held across all clients, kept in step with every
    /// create and evict so [`SessionTracker::conversation_count`] is O(1).
    live: usize,
    /// Reusable buffers for the lowercased host and referrer host of the
    /// transaction being assigned — computed once per transaction, not
    /// per candidate conversation.
    host_lower: String,
    referer_lower: String,
}

impl SessionTracker {
    /// Creates a tracker; conversations idle longer than `idle_timeout`
    /// seconds stop accepting transactions. Conversations are kept until
    /// a cap ([`SessionTracker::with_caps`]) evicts them.
    pub fn new(idle_timeout: f64) -> Self {
        SessionTracker {
            clients: BTreeMap::new(),
            idle_timeout,
            max_conversations: usize::MAX,
            max_transactions: usize::MAX,
            counters: TrackerCounters::default(),
            live: 0,
            host_lower: String::new(),
            referer_lower: String::new(),
        }
    }

    /// Caps tracker state against hostile clients: at most
    /// `max_conversations_per_client` conversations per client (the
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

    /// The monotone counter totals so far.
    pub fn counters(&self) -> TrackerCounters {
        self.counters
    }

    /// Conversations ever created.
    pub fn created_count(&self) -> u64 {
        self.counters.created
    }

    /// Conversations evicted by the per-client conversation cap.
    pub fn cap_evicted_count(&self) -> usize {
        self.counters.cap_evicted as usize
    }

    /// Transactions dropped by the per-conversation transaction cap.
    pub fn dropped_transaction_count(&self) -> u64 {
        self.counters.dropped_transactions
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
                if convs.len() >= self.max_conversations {
                    // At the cap: the least-recently-active conversation
                    // makes room. Its alert (if any) was already emitted
                    // when it fired.
                    let lru = convs
                        .iter()
                        .enumerate()
                        .min_by(|a, b| a.1.last_ts().total_cmp(&b.1.last_ts()))
                        .map(|(i, _)| i)
                        .expect("cap is >= 1, so a full client has conversations");
                    convs.remove(lru);
                    self.live -= 1;
                    self.counters.cap_evicted += 1;
                }
                // Client-scoped id: high 32 bits the client address, low
                // 32 bits the per-client creation counter.
                let id = (u64::from(u32::from(client)) << 32) | u64::from(entry.next_local);
                entry.next_local = entry.next_local.wrapping_add(1);
                self.live += 1;
                self.counters.created += 1;
                convs.push(Conversation::new(id, tx.ts));
                convs.len() - 1
            }
        };
        let conv = &mut convs[idx];
        if conv.transactions.len() >= self.max_transactions {
            self.counters.dropped_transactions += 1;
            conv.note_capped(tx);
        } else {
            conv.absorb(tx);
        }
        conv
    }

    /// All conversations of all clients (for offline/forensic
    /// summaries).
    pub fn conversations(&self) -> impl Iterator<Item = &Conversation> {
        self.clients.values().flat_map(|entry| entry.convs.iter())
    }

    /// Number of conversations (O(1); maintained incrementally).
    pub fn conversation_count(&self) -> usize {
        debug_assert_eq!(self.live, self.conversations().count());
        self.live
    }

    /// Serializable image of the whole tracker.
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
    /// serialized image, replaying each conversation's stored
    /// transactions through the absorb fold (which builds no graph).
    /// Configuration (timeouts, caps) is NOT part of the image — it stays
    /// whatever this tracker was constructed with, so a snapshot can be
    /// restored under new operational settings.
    pub fn restore(&mut self, state: TrackerState) {
        self.clients.clear();
        self.live = 0;
        for record in state.clients {
            let convs: Vec<Conversation> =
                record.convs.into_iter().map(Conversation::from_state).collect();
            self.live += convs.len();
            self.clients
                .insert(record.addr, ClientSessions { convs, next_local: record.next_local });
        }
        self.counters = state.counters;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wcg::tests::{same_wcg, tx, REDIRECTING_PREVIEWS};
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

    /// Pins today's behaviour: `active` tests `tx.ts - last_ts <=
    /// idle_timeout`, so a gap that is negative passes it, and a
    /// transaction stamped before a closed conversation's last activity
    /// rejoins it. Its `last_ts` does not move back.
    #[test]
    fn an_earlier_stamp_rejoins_a_closed_conversation() {
        let mut tracker = SessionTracker::new(60.0);
        let first = tracker.assign(&get(1000.0, "a.com", "/x", None)).id;
        // 1 000 s idle: `a.com`'s conversation is closed to this one.
        let second = tracker.assign(&get(2000.0, "b.com", "/y", Some("http://b.com/"))).id;
        assert_ne!(first, second);
        let late = tracker.assign(&get(500.0, "a.com", "/z", Some("http://a.com/x")));
        assert_eq!(late.id, first, "a negative gap counts as active");
        assert_eq!(late.transactions.len(), 2);
        assert_eq!(late.last_ts(), 1000.0);
        assert_eq!(tracker.conversation_count(), 2);
    }

    /// Pins today's behaviour: a NaN gap fails `active` both ways, so a
    /// NaN-stamped transaction joins nothing, and its conversation, whose
    /// `last_ts` stays NaN, is joined by no later transaction, not even
    /// one carrying its session id and naming its URL as referrer.
    #[test]
    fn a_nan_stamp_opens_a_conversation_nothing_joins() {
        let mut tracker = SessionTracker::new(300.0);
        let before = tracker.assign(&get(1.0, "a.com", "/x", None)).id;
        let mut nan = get(f64::NAN, "a.com", "/n", None);
        nan.req_headers.append("Cookie", "sid=s");
        let lone = tracker.assign(&nan);
        assert_ne!(lone.id, before);
        assert!(lone.last_ts().is_nan());
        let lone = lone.id;
        for (i, ts) in [2.0, 3.0, f64::NAN].into_iter().enumerate() {
            let mut next = get(ts, "a.com", "/m", Some("http://a.com/n"));
            next.req_headers.append("Cookie", "sid=s");
            let conv = tracker.assign(&next);
            assert_ne!(conv.id, lone, "transaction {i} joined the NaN-stamped conversation");
        }
        let held: Vec<(u64, usize)> =
            tracker.conversations().map(|c| (c.id, c.transactions.len())).collect();
        assert_eq!(held[0], (before, 3), "the finite stamps join the first conversation");
        assert_eq!(held[1], (lone, 1));
        assert_eq!(held.len(), 3, "the second NaN stamp opens a conversation of its own");
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
    fn forensic_mode_keeps_everything() {
        let mut tracker = SessionTracker::new(60.0);
        for hour in 0..24 {
            tracker.assign(&get(hour as f64 * 3600.0, "a.com", "/x", None));
        }
        assert_eq!(tracker.conversation_count(), 24);
        assert_eq!(tracker.created_count(), 24);
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
        // absorb replay and scalar overwrite lose nothing.
        assert_eq!(restored.state().clients, state.clients);
        assert_eq!(restored.state().counters, state.counters);
        // And it behaves identically: the next transaction lands in the
        // same conversation with the same id in both trackers.
        let next = get(60.0, "b.com", "/z", None);
        let a = tracker.assign(&next).id;
        let b = restored.assign(&next).id;
        assert_eq!(a, b);
    }

    /// Feeds `stream` through a capped tracker and checks, after every
    /// `assign`, each graph a conversation can be scored from against the
    /// reference fold over its stored transactions: the one the final
    /// verdict sweep builds from the records, and, once the conversation
    /// has been looked at (here from its first redirect hop on, as a clue
    /// would), the one it holds and folds forward. Returns how many
    /// stored transactions redirect from a body preview rather than a
    /// `Location` header.
    fn check_graphs_equal_rebuilds(stream: &[HttpTransaction]) -> usize {
        let mut tracker = SessionTracker::new(300.0).with_caps(64, 6);
        let mut sweep = WcgBuilder::new();
        for t in stream {
            let conv = tracker.assign(t);
            if conv.last_tx_redirectish {
                let _ = conv.wcg_state();
            }
            for conv in tracker.conversations() {
                let expected = crate::wcg::reference::build(&conv.transactions);
                let id = conv.id;
                assert!(same_wcg(conv.build_wcg(&mut sweep), &expected), "swept {id:#x}");
                if let Some(held) = conv.held_wcg() {
                    assert!(same_wcg(held, &expected), "held {id:#x}");
                }
            }
        }
        tracker
            .conversations()
            .flat_map(|c| c.table.records.iter().zip(&c.transactions))
            .filter(|(r, t)| r.is_redirectish() && !t.is_redirect())
            .count()
    }

    #[test]
    fn graphs_equal_rebuilds_on_a_generated_client_stream() {
        use rand::{rngs::StdRng, SeedableRng};
        use synthtraffic::benign::generate_benign;
        use synthtraffic::episode::generate_infection;
        use synthtraffic::{BenignScenario, EkFamily};
        // One client's afternoon: infections and browsing interleaved,
        // some of it carrying a session cookie, some of its pages
        // redirecting from the body.
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
            if i % 7 == 3 && t.status == 200 {
                t.body_preview = REDIRECTING_PREVIEWS[i % 3].as_bytes().to_vec();
            }
        }
        let mined = check_graphs_equal_rebuilds(&stream);
        assert!(mined >= 3, "{mined} transactions redirect from body previews");
    }

    #[test]
    fn mixed_case_referrer_host_is_no_origin_once_contacted() {
        // The first transaction's referrer names a host the conversation
        // later contacts under another spelling: no origin node, however
        // the two are cased.
        let stream = [
            get(1.0, "landing.example", "/", Some("http://Search.EXAMPLE/q")),
            get(2.0, "sEarch.example", "/q", Some("http://landing.example/")),
        ];
        let mut tracker = SessionTracker::new(300.0);
        let conv = tracker.assign(&stream[0]);
        assert!(conv.wcg_state().origin.is_some(), "an origin until the host is contacted");
        let conv = tracker.assign(&stream[1]);
        assert_eq!(conv.transactions.len(), 2);
        assert!(conv.wcg_state().origin.is_none());
        assert!(Wcg::from_transactions(&stream).origin.is_none());
        check_graphs_equal_rebuilds(&stream);
    }

    proptest::proptest! {
        /// Arbitrary short streams: out-of-order arrivals, idle gaps that
        /// split conversations, capped conversations, redirects from
        /// headers and from bodies.
        #[test]
        fn graphs_equal_rebuilds_on_any_stream(
            stream in proptest::collection::vec(
                (crate::wcg::tests::arb_tx(), 0..REDIRECTING_PREVIEWS.len() + 2),
                0..40,
            )
        ) {
            let stream: Vec<HttpTransaction> = stream
                .into_iter()
                .map(|(mut t, preview)| {
                    if let Some(body) = REDIRECTING_PREVIEWS.get(preview) {
                        t.body_preview = body.as_bytes().to_vec();
                    }
                    t
                })
                .collect();
            check_graphs_equal_rebuilds(&stream);
        }
    }
}
