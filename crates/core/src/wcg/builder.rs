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
//! The fold reads `TxRecord`s, not transactions: the public
//! [`WcgBuilder::push`] and [`WcgBuilder::rebuild`] (and so
//! [`Wcg::from_transactions`]) make each transaction's record into a table
//! the builder owns, and the detector's conversations pass the table they
//! filled at assign time, so no build reads a header or mines a body
//! preview again. Hosts and URIs are interned ids, so the node map, the
//! redirect-chain lengths, the exploit servers and each node's distinct
//! URIs are vectors indexed by id, kept across rebuilds.

use std::cmp::Ordering;

use nettrace::HttpTransaction;
use wcgraph::{DiGraph, EdgeId, NodeId};

use super::record::{MethodId, StrId, TxTable};
use super::{
    redirect, registrable_domain, tld, EdgeAttr, EdgeKind, MethodCounts, NodeAttr, NodeKind,
    RedirectStats, Stage, Wcg,
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OriginState {
    /// No transaction pushed yet.
    Unset,
    /// An origin node exists under this (lowercase) host; contacting it
    /// invalidates the inference.
    Active(StrId),
    /// No origin node — the first transaction had no usable referrer, or
    /// the referrer host is contacted in this conversation. Permanent:
    /// the contacted set only grows.
    None,
}

/// A [`WcgBuilder::node_of`] entry naming no node.
const NO_NODE: u32 = u32::MAX;

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
    /// String id → node ([`NO_NODE`] while it names none).
    node_of: Vec<u32>,
    /// Node → length of the longest redirect chain that led to it.
    chain_len: Vec<usize>,
    /// String id → whether that case-kept host served an exploit payload,
    /// matching `annotate`'s case-sensitive host comparison.
    download_hosts: Vec<bool>,
    /// URI key → the key forms already counted in its host's
    /// [`NodeAttr::uris`] (bit 0 the host-and-URI form, bit 1 the by-id
    /// form).
    seen_uris: Vec<u8>,
    last_redirect_ts: Option<f64>,
    prev_ts: Option<f64>,
    /// Largest timestamp pushed so far (by `total_cmp`, mirroring the sort
    /// in [`Wcg::from_transactions`]).
    max_ts: f64,
    txs: Vec<TxMeta>,
    origin: OriginState,
    /// Origin decision precomputed by a rebuild with full knowledge of the
    /// contacted set; consumed by the first apply.
    forced_origin: Option<Option<StrId>>,
    // Stage state machine (mirrors the global quantities of
    // `stages::annotate`).
    pre_end: Option<usize>,
    first_dl: Option<usize>,
    last_dl: Option<usize>,
    /// Reusable timestamp-order permutation of a rebuild's records.
    order: Vec<usize>,
    /// Records of the transactions given to [`WcgBuilder::push`] and
    /// [`WcgBuilder::rebuild`]. A conversation's builder folds the
    /// conversation's table instead and leaves this one empty.
    own: TxTable,
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
            node_of: Vec::new(),
            chain_len: Vec::new(),
            download_hosts: Vec::new(),
            seen_uris: Vec::new(),
            last_redirect_ts: None,
            prev_ts: None,
            max_ts: 0.0,
            txs: Vec::new(),
            origin: OriginState::Unset,
            forced_origin: None,
            pre_end: None,
            first_dl: None,
            last_dl: None,
            order: Vec::new(),
            own: TxTable::default(),
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

    /// Appends one transaction.
    ///
    /// Returns [`PushOutcome::NeedsRebuild`] — leaving the builder
    /// untouched — when the transaction cannot be folded in place.
    pub fn push(&mut self, tx: &HttpTransaction) -> PushOutcome {
        let mut own = std::mem::take(&mut self.own);
        own.push(tx, &redirect::targets(tx));
        let outcome = self.push_record(&own, own.records.len() - 1);
        if outcome == PushOutcome::NeedsRebuild {
            own.pop();
        }
        self.own = own;
        outcome
    }

    /// Discards the current state and replays `transactions` (stably sorted
    /// by timestamp, exactly like [`Wcg::from_transactions`]). Unlike the
    /// push path, the replay decides the origin node with full knowledge of
    /// the contacted set, so it never needs a second pass.
    pub fn rebuild(&mut self, transactions: &[HttpTransaction]) {
        let mut own = std::mem::take(&mut self.own);
        own.clear();
        for tx in transactions {
            own.push(tx, &redirect::targets(tx));
        }
        self.rebuild_records(&own);
        self.own = own;
    }

    /// [`WcgBuilder::push`] of `table`'s record `i`, when this builder has
    /// folded exactly `table`'s first `i` records (since its last
    /// [`WcgBuilder::rebuild_records`] of `table`).
    pub(crate) fn push_record(&mut self, table: &TxTable, i: usize) -> PushOutcome {
        debug_assert_eq!(self.txs.len(), i, "records are pushed in table order");
        let rec = &table.records[i];
        if !self.txs.is_empty() && rec.ts.total_cmp(&self.max_ts) == Ordering::Less {
            return PushOutcome::NeedsRebuild;
        }
        if self.origin == OriginState::Active(rec.host) {
            return PushOutcome::NeedsRebuild;
        }
        self.apply(table, i);
        PushOutcome::Applied
    }

    /// [`WcgBuilder::rebuild`] over every record of `table`.
    pub(crate) fn rebuild_records(&mut self, table: &TxTable) {
        self.reset();
        let records = &table.records;
        let mut order = std::mem::take(&mut self.order);
        order.extend(0..records.len());
        order.sort_by(|&a, &b| records[a].ts.total_cmp(&records[b].ts));
        if let Some(&first) = order.first() {
            // Hosts are interned lowercased, so id equality is the
            // caseless comparison with each contacted host.
            self.forced_origin = Some(
                records[first]
                    .referrer_host()
                    .filter(|&h| !records.iter().any(|r| r.host == h)),
            );
        }
        for &i in &order {
            self.apply(table, i);
        }
        self.order = order;
    }

    /// Back to a new builder, moving the buffers that hold no state once
    /// cleared back in: a builder reused across conversations (the final
    /// verdict sweep) grows them to the largest one and allocates them no
    /// more.
    fn reset(&mut self) {
        let WcgBuilder {
            wcg:
                Wcg {
                    mut graph,
                    mut inter_tx_gaps,
                    redirects: RedirectStats { mut redirect_gaps, .. },
                    ..
                },
            mut node_of,
            mut chain_len,
            mut download_hosts,
            mut seen_uris,
            mut txs,
            mut order,
            own,
            ..
        } = std::mem::take(self);
        graph.clear();
        inter_tx_gaps.clear();
        redirect_gaps.clear();
        node_of.clear();
        chain_len.clear();
        download_hosts.clear();
        seen_uris.clear();
        txs.clear();
        order.clear();
        self.wcg.graph = graph;
        self.wcg.inter_tx_gaps = inter_tx_gaps;
        self.wcg.redirects.redirect_gaps = redirect_gaps;
        self.node_of = node_of;
        self.chain_len = chain_len;
        self.download_hosts = download_hosts;
        self.seen_uris = seen_uris;
        self.txs = txs;
        self.order = order;
        self.own = own;
    }

    fn add_node(&mut self, attr: NodeAttr) -> NodeId {
        let id = self.wcg.graph.add_node(attr);
        self.chain_len.push(0);
        id
    }

    /// The node of host `id`, made on first sight. A host spelled like
    /// the victim node's name is the victim, as a map by name has it.
    fn node_for(&mut self, table: &TxTable, id: StrId) -> NodeId {
        let slot = self.node_of[id as usize];
        if slot != NO_NODE {
            return NodeId(slot as usize);
        }
        let name = table.strings.get(id);
        let node = match self.wcg.victim {
            Some(victim) if self.wcg.graph.node(victim).name == name => victim,
            _ => self.add_node(NodeAttr::new(name.to_string(), NodeKind::Remote)),
        };
        self.node_of[id as usize] = node.0 as u32;
        node
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

    /// The one fold: `table`'s record `i` into the graph.
    fn apply(&mut self, table: &TxTable, i: usize) {
        let rec = &table.records[i];
        let index = self.txs.len();
        // Strings interned since the last apply get their id slots.
        let ids = table.strings.len();
        self.node_of.resize(ids, NO_NODE);
        self.download_hosts.resize(ids, false);
        self.seen_uris.resize(ids, 0);

        if index == 0 {
            self.wcg.first_ts = rec.ts;
            self.wcg.last_ts = rec.ts;
            let victim = self.add_node(NodeAttr {
                ip: Some(rec.client),
                ..NodeAttr::new(format!("victim:{}", rec.client), NodeKind::Victim)
            });
            self.wcg.victim = Some(victim);
            // Origin node: either decided by a rebuild with the full
            // contacted set, or inferred live against the only host known
            // so far (later contacts invalidate via NeedsRebuild).
            let origin_host = match self.forced_origin.take() {
                Some(decided) => decided,
                None => rec.referrer_host().filter(|&h| h != rec.host),
            };
            match origin_host {
                Some(h) => {
                    let name = table.strings.get(h).to_string();
                    let id = self.add_node(NodeAttr::new(name, NodeKind::Origin));
                    self.node_of[h as usize] = id.0 as u32;
                    self.wcg.origin = Some(id);
                    self.origin = OriginState::Active(h);
                }
                None => self.origin = OriginState::None,
            }
        }

        // --- Stage state machine (mirrors `stages::annotate`) ---
        let method = rec.method();
        let is_get = method == MethodId::Get;
        let is_exploit = rec.status / 100 == 2 && rec.payload_class.is_exploit_type();
        if self.first_dl.is_none() && !is_exploit && is_get && rec.is_redirectish() {
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
            self.download_hosts[rec.kept_host as usize] = true;
        }
        // This transaction's own stage under the updated global state.
        let stage = if is_get && self.pre_end.is_some_and(|pe| index <= pe) {
            Stage::PreDownload
        } else if method == MethodId::Post
            && !self.download_hosts[rec.kept_host as usize]
            && (rec.status == 0 || rec.status / 100 == 2 || rec.status / 100 == 4)
            && self.last_dl.is_none_or(|ld| index > ld)
        {
            Stage::PostDownload
        } else {
            Stage::Download
        };
        self.wcg.stage_counts[stage.index()] += 1;

        // --- Graph updates ---
        let victim = self.wcg.victim.expect("victim node exists after first apply");
        let host_node = self.node_for(table, rec.host);
        let (uri, by_id) = rec.uri_key();
        let form = 1 << u8::from(by_id);
        let seen = &mut self.seen_uris[uri as usize];
        let new_uri = *seen & form == 0;
        *seen |= form;
        {
            let attr = self.wcg.graph.node_mut(host_node);
            attr.ip = Some(rec.server);
            attr.uris += usize::from(new_uri);
            if rec.status != 0 {
                *attr.payload_summary.entry(rec.payload_class).or_insert(0) += 1;
            }
        }
        let edge_start = self.wcg.graph.edge_count();
        // Request edge.
        self.wcg.graph.add_edge(victim, host_node, EdgeAttr {
            kind: EdgeKind::Request,
            stage,
            ts: rec.ts,
            method: Some(table.method_of(rec)),
            uri_len: rec.uri_len as usize,
            status: 0,
            payload_class: None,
            payload_size: 0,
        });
        // Response edge.
        if rec.status != 0 {
            self.wcg.graph.add_edge(host_node, victim, EdgeAttr {
                kind: EdgeKind::Response,
                stage,
                ts: rec.resp_ts,
                method: None,
                uri_len: 0,
                status: rec.status,
                payload_class: Some(rec.payload_class),
                payload_size: rec.payload_size,
            });
            self.wcg.payload_bytes += rec.payload_size;
        }
        // Redirect edges.
        let incoming_chain = self.chain_len[host_node.0];
        let tx_host = table.strings.get(rec.host);
        for &target in table.targets_of(i) {
            if target == rec.host {
                continue; // same-host refresh, not a hop
            }
            let target_node = self.node_for(table, target);
            self.wcg.graph.add_edge(host_node, target_node, EdgeAttr {
                kind: EdgeKind::Redirect,
                stage,
                ts: rec.resp_ts,
                method: None,
                uri_len: 0,
                status: rec.status,
                payload_class: None,
                payload_size: 0,
            });
            self.wcg.redirects.total += 1;
            let new_chain = incoming_chain + 1;
            let chain = &mut self.chain_len[target_node.0];
            *chain = (*chain).max(new_chain);
            self.wcg.redirects.max_chain = self.wcg.redirects.max_chain.max(new_chain);
            let target_host = table.strings.get(target);
            if registrable_domain(tx_host) != registrable_domain(target_host) {
                self.wcg.redirects.cross_domain += 1;
            }
            for h in [tx_host, target_host] {
                if let Some(t) = tld(h) {
                    if !self.wcg.redirects.tlds.contains(t) {
                        self.wcg.redirects.tlds.insert(t.to_string());
                    }
                }
            }
            if let Some(prev) = self.last_redirect_ts {
                self.wcg.redirects.redirect_gaps.push((rec.resp_ts - prev).max(0.0));
            }
            self.last_redirect_ts = Some(rec.resp_ts);
        }
        // Origin edge: origin → first contacted host, inside the first
        // transaction's edge range so stage patches reach it.
        if index == 0 {
            if let Some(origin_id) = self.wcg.origin {
                self.wcg.graph.add_edge(origin_id, host_node, EdgeAttr {
                    kind: EdgeKind::Redirect,
                    stage,
                    ts: rec.ts,
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
        match method {
            MethodId::Get => self.wcg.method_counts.get += 1,
            MethodId::Post => self.wcg.method_counts.post += 1,
            _ => self.wcg.method_counts.other += 1,
        }
        let class = (rec.status / 100).min(5) as usize;
        self.wcg.status_class_counts[class] += 1;
        if rec.has_referer() {
            self.wcg.referrer_set += 1;
        } else {
            self.wcg.referrer_unset += 1;
        }
        self.wcg.uri_length_total += rec.uri_len as usize;
        self.wcg.uri_count += 1;
        self.wcg.dnt |= rec.dnt();
        self.wcg.x_flash |= rec.x_flash();
        self.wcg.last_ts = self.wcg.last_ts.max(rec.resp_ts).max(rec.ts);
        if let Some(p) = self.prev_ts {
            self.wcg.inter_tx_gaps.push((rec.ts - p).max(0.0));
        }
        self.prev_ts = Some(rec.ts);
        self.wcg.tx_count += 1;

        self.txs.push(TxMeta { stage, is_get, edge_start, edge_end });
        if self.txs.len() == 1 || rec.ts.total_cmp(&self.max_ts) == Ordering::Greater {
            self.max_ts = rec.ts;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wcg::tests::tx;
    use nettrace::http::Method;
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
