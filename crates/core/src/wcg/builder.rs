//! Incremental WCG construction.
//!
//! The on-the-wire detector re-classifies a conversation on (nearly) every
//! transaction. Rebuilding the WCG from scratch each time makes the live
//! path O(n²) in conversation length; [`WcgBuilder`] instead folds one
//! transaction at a time into an existing [`Wcg`] with O(1) amortized work
//! per append, and [`Wcg::from_transactions`] is itself implemented as a
//! fold over the builder — so there is exactly one construction code path
//! and incremental output is the from-scratch output by definition.
//!
//! Two aspects of WCG semantics are retroactive and need care:
//!
//! * **Stage annotation** (see [`super::stages::annotate`]) assigns stages
//!   from global knowledge: the pre-download horizon is the last
//!   redirect-ish GET before the *first* exploit download, and
//!   post-download status depends on the *last* exploit download and the
//!   full set of exploit-serving hosts. Both are monotone as transactions
//!   append in time order, so the builder maintains them as a small state
//!   machine and patches the stages of earlier transactions' edges when a
//!   new transaction moves a horizon (each transaction's edge ids are
//!   recorded as a contiguous range, so a stage flip is a cheap in-place
//!   sweep).
//! * **Origin inference** declares the first transaction's referrer host an
//!   origin node only while no transaction contacts that host. A push that
//!   contacts the active origin host — or arrives out of timestamp order —
//!   cannot be folded in place; [`WcgBuilder::push`] then returns
//!   [`PushOutcome::NeedsRebuild`] and the caller replays the conversation
//!   through [`WcgBuilder::rebuild`]. Both triggers are rare (origin hosts
//!   are by construction off-path; captures are near-sorted), keeping the
//!   amortized cost linear.
//!
//! A rebuild mines each transaction's redirect targets again unless the
//! caller kept them: the detector's conversations record the targets they
//! mined on arrival and replay through the crate-private
//! `WcgBuilder::rebuild_with`, which reads them instead of the body
//! previews.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

use nettrace::http::Method;
use nettrace::HttpTransaction;
use wcgraph::{DiGraph, EdgeId, NodeId};

use super::{
    host_of_url, redirect, registrable_domain, tld, EdgeAttr, EdgeKind, MethodCounts, NodeAttr,
    NodeKind, RedirectStats, Stage, Wcg,
};

/// Result of [`WcgBuilder::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub enum PushOutcome {
    /// The transaction was folded into the graph in place.
    Applied,
    /// In-place maintenance is impossible (the transaction arrived out of
    /// timestamp order, or it contacts the active origin host and thereby
    /// invalidates the origin node). The builder state is unchanged; call
    /// [`WcgBuilder::rebuild`] with the full transaction list.
    NeedsRebuild,
}

/// Per-transaction bookkeeping needed for retroactive stage patches.
#[derive(Debug, Clone)]
struct TxMeta {
    stage: Stage,
    is_get: bool,
    /// Edge ids `[start, end)` contributed by this transaction (for the
    /// first transaction this includes the origin edge, so stage patches
    /// cover it automatically).
    edge_start: usize,
    edge_end: usize,
}

/// Origin-node lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
enum OriginState {
    /// No transaction pushed yet.
    Unset,
    /// An origin node exists under this (lowercase) host name; contacting
    /// it invalidates the inference.
    Active(String),
    /// No origin node — the first transaction had no usable referrer, or
    /// the referrer host is contacted in this conversation. Permanent:
    /// the contacted set only grows.
    None,
}

/// Incrementally maintained [`Wcg`].
///
/// ```
/// use dynaminer::wcg::{PushOutcome, Wcg, WcgBuilder};
/// use rand::{rngs::StdRng, SeedableRng};
/// use synthtraffic::{episode::generate_infection, EkFamily};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let ep = generate_infection(&mut rng, EkFamily::Rig, 1.45e9);
/// let mut builder = WcgBuilder::new();
/// for tx in &ep.transactions {
///     if builder.push(tx) == PushOutcome::NeedsRebuild {
///         builder.rebuild(&ep.transactions);
///         break;
///     }
/// }
/// let fresh = Wcg::from_transactions(&ep.transactions);
/// assert_eq!(builder.wcg().graph.edge_count(), fresh.graph.edge_count());
/// ```
#[derive(Debug, Clone)]
pub struct WcgBuilder {
    wcg: Wcg,
    /// Interned host name → node id (includes the victim and origin).
    nodes: BTreeMap<String, NodeId>,
    /// Host → length of the longest redirect chain that led to it.
    chain_len: BTreeMap<String, usize>,
    last_redirect_ts: Option<f64>,
    prev_ts: Option<f64>,
    /// Largest timestamp pushed so far (by `total_cmp`, mirroring the sort
    /// in [`Wcg::from_transactions`]).
    max_ts: f64,
    txs: Vec<TxMeta>,
    origin: OriginState,
    /// Origin decision precomputed by [`WcgBuilder::rebuild`] with full
    /// knowledge of the contacted set; consumed by the first apply.
    forced_origin: Option<Option<String>>,
    // Stage state machine (mirrors the global quantities of
    // `stages::annotate`).
    pre_end: Option<usize>,
    first_dl: Option<usize>,
    last_dl: Option<usize>,
    /// Raw (case-preserved) hosts that served an exploit payload, matching
    /// `annotate`'s case-sensitive host comparison.
    download_hosts: BTreeSet<String>,
    // Topology versioning for feature memoization.
    topo_version: u64,
    /// Distinct directed simple pairs (self-loops excluded) already in the
    /// graph; a new pair or node bumps `topo_version`.
    seen_pairs: BTreeSet<(NodeId, NodeId)>,
    /// Reusable buffer for the lowercased host of the transaction being
    /// applied, so the steady-state fold does not allocate one per
    /// transaction.
    host_scratch: String,
    /// Reusable timestamp-order permutation of a rebuild's transactions.
    /// Like `host_scratch`, it survives rebuilds, so a builder reused
    /// across conversations sorts each one without a fresh buffer.
    order: Vec<usize>,
}

impl Default for WcgBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl WcgBuilder {
    /// An empty builder whose [`WcgBuilder::wcg`] equals
    /// `Wcg::from_transactions(&[])`.
    pub fn new() -> Self {
        WcgBuilder {
            wcg: Wcg {
                graph: DiGraph::new(),
                victim: None,
                origin: None,
                dnt: false,
                x_flash: false,
                method_counts: MethodCounts::default(),
                status_class_counts: [0; 6],
                referrer_set: 0,
                referrer_unset: 0,
                uri_length_total: 0,
                uri_count: 0,
                first_ts: 0.0,
                last_ts: 0.0,
                inter_tx_gaps: Vec::new(),
                redirects: RedirectStats::default(),
                tx_count: 0,
                payload_bytes: 0,
                stage_counts: [0; 3],
            },
            nodes: BTreeMap::new(),
            chain_len: BTreeMap::new(),
            last_redirect_ts: None,
            prev_ts: None,
            max_ts: 0.0,
            txs: Vec::new(),
            origin: OriginState::Unset,
            forced_origin: None,
            pre_end: None,
            first_dl: None,
            last_dl: None,
            download_hosts: BTreeSet::new(),
            topo_version: 0,
            seen_pairs: BTreeSet::new(),
            host_scratch: String::new(),
            order: Vec::new(),
        }
    }

    /// The maintained graph. Always equal to
    /// `Wcg::from_transactions(pushed transactions)`.
    pub fn wcg(&self) -> &Wcg {
        &self.wcg
    }

    /// Consumes the builder, returning the graph.
    pub fn into_wcg(self) -> Wcg {
        self.wcg
    }

    /// Number of transactions folded in.
    pub fn tx_count(&self) -> usize {
        self.txs.len()
    }

    /// Monotone counter that advances whenever the *simple directed
    /// topology* of the graph changes (a node appears, or a first edge
    /// between an ordered node pair appears). Stage flips, parallel edges,
    /// and attribute updates do not advance it, so feature extraction can
    /// memoize topology-only metrics against this version.
    pub fn topo_version(&self) -> u64 {
        self.topo_version
    }

    /// Appends one transaction, computing redirect targets internally.
    /// See [`WcgBuilder::push_with_targets`].
    pub fn push(&mut self, tx: &HttpTransaction) -> PushOutcome {
        self.push_with_targets(tx, &redirect::targets(tx))
    }

    /// Appends one transaction with its precomputed redirect targets
    /// (`redirect::targets(tx)`), so callers that already mined the
    /// response body do not pay for it twice.
    ///
    /// Returns [`PushOutcome::NeedsRebuild`] — leaving the builder
    /// untouched — when the transaction cannot be folded in place.
    pub fn push_with_targets(&mut self, tx: &HttpTransaction, targets: &[String]) -> PushOutcome {
        if !self.txs.is_empty() && tx.ts.total_cmp(&self.max_ts) == Ordering::Less {
            return PushOutcome::NeedsRebuild;
        }
        if let OriginState::Active(name) = &self.origin {
            if tx.host.eq_ignore_ascii_case(name) {
                return PushOutcome::NeedsRebuild;
            }
        }
        self.apply(tx, targets);
        PushOutcome::Applied
    }

    /// Discards the current state and replays `transactions` (stably sorted
    /// by timestamp, exactly like [`Wcg::from_transactions`]). Unlike the
    /// push path, the replay decides the origin node with full knowledge of
    /// the contacted set, so it never needs a second pass.
    pub fn rebuild(&mut self, transactions: &[HttpTransaction]) {
        self.replay(transactions, |_, tx| Cow::Owned(redirect::targets(tx)));
    }

    /// [`WcgBuilder::rebuild`] over redirect targets mined earlier:
    /// `targets` holds `(index into transactions, redirect::targets(tx))`
    /// in ascending index order for every transaction that has any, and a
    /// transaction it does not list has none. No body preview is read.
    pub(crate) fn rebuild_with(
        &mut self,
        transactions: &[HttpTransaction],
        targets: &[(usize, Vec<String>)],
    ) {
        self.replay(transactions, |i, _| {
            let kept = targets.binary_search_by_key(&i, |(at, _)| *at);
            Cow::Borrowed(kept.map_or(&[][..], |k| targets[k].1.as_slice()))
        });
    }

    fn replay<'t>(
        &mut self,
        transactions: &'t [HttpTransaction],
        targets_of: impl Fn(usize, &'t HttpTransaction) -> Cow<'t, [String]>,
    ) {
        let prior_version = self.topo_version;
        // Reset to a new builder, moving the buffers that hold no state
        // once cleared back in: a builder reused across conversations
        // (the final verdict sweep) grows them to the largest one and
        // allocates them no more.
        let WcgBuilder {
            wcg:
                Wcg {
                    mut graph,
                    mut inter_tx_gaps,
                    redirects: RedirectStats { mut redirect_gaps, .. },
                    ..
                },
            mut txs,
            host_scratch,
            mut order,
            ..
        } = std::mem::take(self);
        graph.clear();
        inter_tx_gaps.clear();
        redirect_gaps.clear();
        txs.clear();
        self.wcg.graph = graph;
        self.wcg.inter_tx_gaps = inter_tx_gaps;
        self.wcg.redirects.redirect_gaps = redirect_gaps;
        self.txs = txs;
        self.host_scratch = host_scratch;
        order.clear();
        order.extend(0..transactions.len());
        order.sort_by(|&a, &b| transactions[a].ts.total_cmp(&transactions[b].ts));
        if let Some(&first) = order.first() {
            // `host_of_url` lowercases, so a caseless comparison with each
            // contacted host is the membership test in the set of their
            // lowercased names.
            self.forced_origin = Some(
                transactions[first]
                    .referer()
                    .and_then(host_of_url)
                    .filter(|h| !transactions.iter().any(|t| t.host.eq_ignore_ascii_case(h)))
                    .map(Cow::into_owned),
            );
        }
        for &i in &order {
            let tx = &transactions[i];
            self.apply(tx, &targets_of(i, tx));
        }
        self.order = order;
        // Keep the version strictly monotone across the rebuild so feature
        // caches keyed on an older builder state can never collide.
        self.topo_version += prior_version + 1;
    }

    fn node_for(&mut self, host: &str) -> NodeId {
        if let Some(&id) = self.nodes.get(host) {
            return id;
        }
        let id = self.wcg.graph.add_node(NodeAttr::new(host, NodeKind::Remote));
        self.topo_version += 1;
        self.nodes.insert(host.to_string(), id);
        id
    }

    fn add_edge(&mut self, src: NodeId, dst: NodeId, attr: EdgeAttr) {
        if src != dst && self.seen_pairs.insert((src, dst)) {
            self.topo_version += 1;
        }
        self.wcg.graph.add_edge(src, dst, attr);
    }

    /// Re-stages transaction `i`: patches its edges and the stage counts.
    fn restage(&mut self, i: usize, new_stage: Stage) {
        let meta = &mut self.txs[i];
        if meta.stage == new_stage {
            return;
        }
        self.wcg.stage_counts[meta.stage.index()] -= 1;
        self.wcg.stage_counts[new_stage.index()] += 1;
        for e in meta.edge_start..meta.edge_end {
            self.wcg.graph.edge_mut(EdgeId(e)).stage = new_stage;
        }
        meta.stage = new_stage;
    }

    fn apply(&mut self, tx: &HttpTransaction, targets: &[String]) {
        let index = self.txs.len();
        // The lowercased host is built in a buffer reused across
        // transactions, moved out of `self` for the duration of the apply
        // so the borrow does not pin the builder.
        let mut tx_host = std::mem::take(&mut self.host_scratch);
        tx_host.clear();
        tx_host.push_str(&tx.host);
        tx_host.make_ascii_lowercase();

        if index == 0 {
            self.wcg.first_ts = tx.ts;
            self.wcg.last_ts = tx.ts;
            // Victim node.
            let victim_name = format!("victim:{}", tx.client.addr);
            let victim = self.wcg.graph.add_node(NodeAttr {
                ip: Some(tx.client.addr),
                ..NodeAttr::new(&victim_name, NodeKind::Victim)
            });
            self.topo_version += 1;
            self.nodes.insert(victim_name, victim);
            self.wcg.victim = Some(victim);
            // Origin node: either decided by rebuild() with the full
            // contacted set, or inferred live against the only host known
            // so far (later contacts invalidate via NeedsRebuild).
            let origin_host = match self.forced_origin.take() {
                Some(decided) => decided,
                None => tx
                    .referer()
                    .and_then(host_of_url)
                    .filter(|h| h.as_ref() != tx_host)
                    .map(|h| h.into_owned()),
            };
            match origin_host {
                Some(h) => {
                    let id = self.wcg.graph.add_node(NodeAttr::new(&h, NodeKind::Origin));
                    self.topo_version += 1;
                    self.nodes.insert(h.clone(), id);
                    self.wcg.origin = Some(id);
                    self.origin = OriginState::Active(h);
                }
                None => self.origin = OriginState::None,
            }
        }

        // --- Stage state machine (mirrors `stages::annotate`) ---
        let is_get = tx.method == Method::Get;
        let is_exploit = tx.status / 100 == 2 && tx.payload_class.is_exploit_type();
        let is_redirectish = tx.is_redirect() || !targets.is_empty();
        if self.first_dl.is_none() && !is_exploit && is_get && is_redirectish {
            // The pre-download horizon extends through this transaction:
            // every earlier GET joins the pre stage. (GETs at or before the
            // previous horizon are already PreDownload.)
            let from = self.pre_end.map_or(0, |pe| pe + 1);
            for i in from..index {
                if self.txs[i].is_get {
                    self.restage(i, Stage::PreDownload);
                }
            }
            self.pre_end = Some(index);
        }
        if is_exploit {
            // A new latest download: nothing before it can be
            // post-download any more. (Transactions at or before the
            // previous last download were already swept.)
            let from = self.last_dl.map_or(0, |ld| ld + 1);
            for i in from..index {
                if self.txs[i].stage == Stage::PostDownload {
                    self.restage(i, Stage::Download);
                }
            }
            if self.first_dl.is_none() {
                self.first_dl = Some(index);
            }
            self.last_dl = Some(index);
            if !self.download_hosts.contains(&tx.host) {
                self.download_hosts.insert(tx.host.clone());
            }
        }
        // This transaction's own stage under the updated global state.
        let stage = if is_get && self.pre_end.is_some_and(|pe| index <= pe) {
            Stage::PreDownload
        } else if tx.method == Method::Post
            && !self.download_hosts.contains(&tx.host)
            && (tx.status == 0 || tx.status / 100 == 2 || tx.status / 100 == 4)
            && self.last_dl.is_none_or(|ld| index > ld)
        {
            Stage::PostDownload
        } else {
            Stage::Download
        };
        self.wcg.stage_counts[stage.index()] += 1;

        // --- Graph updates ---
        let victim = self.wcg.victim.expect("victim node exists after first apply");
        let host_node = self.node_for(&tx_host);
        {
            let attr = self.wcg.graph.node_mut(host_node);
            attr.ip = Some(tx.server.addr);
            if !attr.uris.contains(&tx.uri) {
                attr.uris.insert(tx.uri.clone());
            }
            if tx.status != 0 {
                *attr.payload_summary.entry(tx.payload_class).or_insert(0) += 1;
            }
        }
        let edge_start = self.wcg.graph.edge_count();
        // Request edge.
        self.add_edge(victim, host_node, EdgeAttr {
            kind: EdgeKind::Request,
            stage,
            ts: tx.ts,
            method: Some(tx.method.clone()),
            uri_len: tx.uri.len(),
            status: 0,
            payload_class: None,
            payload_size: 0,
        });
        // Response edge.
        if tx.status != 0 {
            self.add_edge(host_node, victim, EdgeAttr {
                kind: EdgeKind::Response,
                stage,
                ts: tx.resp_ts,
                method: None,
                uri_len: 0,
                status: tx.status,
                payload_class: Some(tx.payload_class),
                payload_size: tx.payload_size,
            });
            self.wcg.payload_bytes += tx.payload_size;
        }
        // Redirect edges.
        let incoming_chain = self.chain_len.get(tx_host.as_str()).copied().unwrap_or(0);
        for target_url in targets {
            let Some(target_host) = host_of_url(target_url) else { continue };
            if target_host.as_ref() == tx_host {
                continue; // same-host refresh, not a hop
            }
            let target_node = self.node_for(&target_host);
            self.add_edge(host_node, target_node, EdgeAttr {
                kind: EdgeKind::Redirect,
                stage,
                ts: tx.resp_ts,
                method: None,
                uri_len: 0,
                status: tx.status,
                payload_class: None,
                payload_size: 0,
            });
            self.wcg.redirects.total += 1;
            let new_chain = incoming_chain + 1;
            match self.chain_len.get_mut(target_host.as_ref()) {
                Some(entry) => *entry = (*entry).max(new_chain),
                None => {
                    self.chain_len.insert(target_host.as_ref().to_string(), new_chain);
                }
            }
            self.wcg.redirects.max_chain = self.wcg.redirects.max_chain.max(new_chain);
            if registrable_domain(&tx_host) != registrable_domain(&target_host) {
                self.wcg.redirects.cross_domain += 1;
            }
            for h in [tx_host.as_str(), target_host.as_ref()] {
                if let Some(t) = tld(h) {
                    if !self.wcg.redirects.tlds.contains(t) {
                        self.wcg.redirects.tlds.insert(t.to_string());
                    }
                }
            }
            if let Some(prev) = self.last_redirect_ts {
                self.wcg.redirects.redirect_gaps.push((tx.resp_ts - prev).max(0.0));
            }
            self.last_redirect_ts = Some(tx.resp_ts);
        }
        // Origin edge: origin → first contacted host, inside the first
        // transaction's edge range so stage patches reach it.
        if index == 0 {
            if let Some(origin_id) = self.wcg.origin {
                self.add_edge(origin_id, host_node, EdgeAttr {
                    kind: EdgeKind::Redirect,
                    stage,
                    ts: tx.ts,
                    method: None,
                    uri_len: 0,
                    status: 0,
                    payload_class: None,
                    payload_size: 0,
                });
            }
        }
        let edge_end = self.wcg.graph.edge_count();

        // --- Aggregates ---
        match tx.method {
            Method::Get => self.wcg.method_counts.get += 1,
            Method::Post => self.wcg.method_counts.post += 1,
            _ => self.wcg.method_counts.other += 1,
        }
        let class = (tx.status / 100).min(5) as usize;
        self.wcg.status_class_counts[class] += 1;
        if tx.referer().is_some() {
            self.wcg.referrer_set += 1;
        } else {
            self.wcg.referrer_unset += 1;
        }
        self.wcg.uri_length_total += tx.uri.len();
        self.wcg.uri_count += 1;
        self.wcg.dnt |= tx.dnt_enabled();
        self.wcg.x_flash |= tx.x_flash_version().is_some();
        self.wcg.last_ts = self.wcg.last_ts.max(tx.resp_ts).max(tx.ts);
        if let Some(p) = self.prev_ts {
            self.wcg.inter_tx_gaps.push((tx.ts - p).max(0.0));
        }
        self.prev_ts = Some(tx.ts);
        self.wcg.tx_count += 1;

        self.txs.push(TxMeta { stage, is_get, edge_start, edge_end });
        if self.txs.len() == 1 || tx.ts.total_cmp(&self.max_ts) == Ordering::Greater {
            self.max_ts = tx.ts;
        }
        self.host_scratch = tx_host;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wcg::tests::tx;
    use nettrace::payload::PayloadClass;

    fn assert_same(builder: &WcgBuilder, txs: &[HttpTransaction]) {
        let fresh = Wcg::from_transactions(txs);
        let a = serde_json::to_string(builder.wcg()).unwrap();
        let b = serde_json::to_string(&fresh).unwrap();
        assert_eq!(a, b, "incremental state diverged from from-scratch build");
    }

    #[test]
    fn incremental_prefixes_match_from_scratch() {
        let txs = [
            tx(1.0, "a.com", "/r", Method::Get, 302, PayloadClass::Empty, 0,
               Some("http://search.example/q"), Some("http://b.com/l")),
            tx(1.2, "b.com", "/l", Method::Get, 302, PayloadClass::Empty, 0, None,
               Some("http://c.com/g")),
            tx(1.4, "c.com", "/g", Method::Get, 200, PayloadClass::Html, 100, None, None),
            tx(1.6, "c.com", "/x.exe", Method::Get, 200, PayloadClass::Exe, 9000, None, None),
            tx(9.0, "1.2.3.4", "/gate", Method::Post, 200, PayloadClass::Text, 4, None, None),
            tx(9.5, "1.2.3.4", "/gate2", Method::Post, 0, PayloadClass::Empty, 0, None, None),
        ];
        let mut builder = WcgBuilder::new();
        for (i, t) in txs.iter().enumerate() {
            assert_eq!(builder.push(t), PushOutcome::Applied);
            assert_same(&builder, &txs[..=i]);
        }
    }

    #[test]
    fn late_exploit_demotes_post_download_stages() {
        // A post-shaped POST followed by a later exploit download must be
        // retroactively re-staged to Download.
        let txs = [
            tx(1.0, "c.com", "/x.jar", Method::Get, 200, PayloadClass::Jar, 900, None, None),
            tx(5.0, "9.9.9.9", "/g", Method::Post, 0, PayloadClass::Empty, 0, None, None),
            tx(7.0, "d.com", "/y.exe", Method::Get, 200, PayloadClass::Exe, 800, None, None),
        ];
        let mut builder = WcgBuilder::new();
        for (i, t) in txs.iter().enumerate() {
            assert_eq!(builder.push(t), PushOutcome::Applied);
            assert_same(&builder, &txs[..=i]);
        }
        assert_eq!(builder.wcg().stage_counts, [0, 3, 0]);
    }

    #[test]
    fn contacting_the_origin_host_requires_rebuild() {
        let txs = vec![
            tx(1.0, "landing.com", "/x", Method::Get, 200, PayloadClass::Html, 10,
               Some("http://search.example/q"), None),
            tx(2.0, "search.example", "/q", Method::Get, 200, PayloadClass::Html, 10, None, None),
        ];
        let mut builder = WcgBuilder::new();
        assert_eq!(builder.push(&txs[0]), PushOutcome::Applied);
        assert!(builder.wcg().origin.is_some());
        assert_eq!(builder.push(&txs[1]), PushOutcome::NeedsRebuild);
        builder.rebuild(&txs);
        assert!(builder.wcg().origin.is_none());
        assert_same(&builder, &txs);
        // After the rebuild decided "no origin", pushes resume in place.
        let extra = tx(3.0, "search.example", "/q2", Method::Get, 200, PayloadClass::Html, 5,
                       None, None);
        assert_eq!(builder.push(&extra), PushOutcome::Applied);
        let all = vec![txs[0].clone(), txs[1].clone(), extra];
        assert_same(&builder, &all);
    }

    #[test]
    fn out_of_order_timestamps_require_rebuild() {
        let t1 = tx(5.0, "a.com", "/", Method::Get, 200, PayloadClass::Html, 10, None, None);
        let t2 = tx(1.0, "b.com", "/", Method::Get, 200, PayloadClass::Html, 10, None, None);
        let mut builder = WcgBuilder::new();
        assert_eq!(builder.push(&t1), PushOutcome::Applied);
        assert_eq!(builder.push(&t2), PushOutcome::NeedsRebuild);
        let all = vec![t1, t2];
        builder.rebuild(&all);
        assert_same(&builder, &all);
        // Equal timestamps keep the arrival order (stable sort) and stay
        // in-place.
        let t3 = tx(5.0, "c.com", "/", Method::Get, 200, PayloadClass::Html, 10, None, None);
        assert_eq!(builder.push(&t3), PushOutcome::Applied);
        let all = vec![all[0].clone(), all[1].clone(), t3];
        assert_same(&builder, &all);
    }

    #[test]
    fn topo_version_tracks_topology_not_attributes() {
        let mut builder = WcgBuilder::new();
        let t1 = tx(1.0, "a.com", "/", Method::Get, 200, PayloadClass::Html, 10, None, None);
        assert_eq!(builder.push(&t1), PushOutcome::Applied);
        let v1 = builder.topo_version();
        // Same host, same edge pairs: a parallel request/response changes
        // counts but not the simple topology.
        let t2 = tx(2.0, "a.com", "/b", Method::Get, 200, PayloadClass::Html, 10, None, None);
        assert_eq!(builder.push(&t2), PushOutcome::Applied);
        assert_eq!(builder.topo_version(), v1);
        // A new host changes topology.
        let t3 = tx(3.0, "b.com", "/", Method::Get, 200, PayloadClass::Html, 10, None, None);
        assert_eq!(builder.push(&t3), PushOutcome::Applied);
        assert!(builder.topo_version() > v1);
        // Rebuilds advance the version past every previously seen value.
        let all = vec![t1, t2, t3];
        let before = builder.topo_version();
        builder.rebuild(&all);
        assert!(builder.topo_version() > before);
    }

    /// The builder's stage machine against its definition:
    /// [`stages::annotate`](crate::wcg::stages::annotate) over the
    /// time-sorted transactions, which assigns every stage from global
    /// knowledge and shares no code with the incremental patches.
    fn assert_stages_match_annotate(builder: &WcgBuilder, txs: &[HttpTransaction]) {
        let mut order: Vec<&HttpTransaction> = txs.iter().collect();
        order.sort_by(|a, b| a.ts.total_cmp(&b.ts));
        let expected = crate::wcg::stages::annotate(&order);
        let staged: Vec<Stage> = builder.txs.iter().map(|meta| meta.stage).collect();
        assert_eq!(staged, expected, "stages diverged after {} transactions", txs.len());
        let mut counts = [0usize; 3];
        for stage in &expected {
            counts[stage.index()] += 1;
        }
        assert_eq!(builder.wcg().stage_counts, counts);
    }

    /// Pushes `txs` one at a time (rebuilding when asked to) and checks
    /// the stages at every prefix; returns how many pushes rebuilt.
    fn check_stages_at_every_prefix(txs: &[HttpTransaction]) -> usize {
        let mut builder = WcgBuilder::new();
        let mut rebuilds = 0;
        for i in 0..txs.len() {
            if builder.push(&txs[i]) == PushOutcome::NeedsRebuild {
                builder.rebuild(&txs[..=i]);
                rebuilds += 1;
            }
            assert_stages_match_annotate(&builder, &txs[..=i]);
        }
        rebuilds
    }

    #[test]
    fn stages_match_annotate_at_every_prefix_of_generated_episodes() {
        use rand::{rngs::StdRng, SeedableRng};
        use synthtraffic::benign::generate_benign;
        use synthtraffic::episode::generate_infection;
        use synthtraffic::{BenignScenario, EkFamily};
        let mut rng = StdRng::seed_from_u64(21);
        let mut staged = [0usize; 3];
        for round in 0..8 {
            let t0 = 1.4e9 + f64::from(round) * 1e4;
            let infections =
                EkFamily::ALL.iter().map(|&f| generate_infection(&mut rng, f, t0).transactions);
            let mut episodes: Vec<Vec<HttpTransaction>> = infections.collect();
            for (scenario, _) in BenignScenario::WEIGHTED {
                episodes.push(generate_benign(&mut rng, scenario, t0).transactions);
            }
            for txs in &episodes {
                check_stages_at_every_prefix(txs);
                let wcg = Wcg::from_transactions(txs);
                for (total, n) in staged.iter_mut().zip(wcg.stage_counts) {
                    *total += n;
                }
            }
        }
        assert!(staged.iter().all(|&n| n > 0), "every stage was exercised: {staged:?}");
    }

    proptest::proptest! {
        /// Short arbitrary sequences: out-of-order timestamps and contacts
        /// to the origin host make the rebuild path common, late exploit
        /// downloads and redirects move both horizons backwards.
        #[test]
        fn stages_match_annotate_on_arbitrary_sequences(
            txs in proptest::collection::vec(crate::wcg::tests::arb_tx(), 0..25)
        ) {
            let rebuilds = check_stages_at_every_prefix(&txs);
            proptest::prop_assert!(txs.len() < 12 || rebuilds > 0, "no rebuild in {} pushes", txs.len());
        }
    }

    #[test]
    fn empty_builder_matches_empty_from_scratch() {
        let builder = WcgBuilder::new();
        assert_same(&builder, &[]);
        assert_eq!(builder.tx_count(), 0);
    }
}
