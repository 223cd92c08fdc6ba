//! The transaction-reading WCG fold the record fold replaced, kept as the
//! test oracle: it reads each `HttpTransaction` (hosts by name, redirect
//! targets mined from the transaction, URIs as strings) where
//! [`WcgBuilder`](super::WcgBuilder) reads interned [`TxRecord`]s, so a
//! record that drops or conflates what the fold needs shows up as a
//! graph that differs from this one.
//!
//! [`TxRecord`]: super::record::TxRecord

use std::collections::{BTreeMap, BTreeSet};

use nettrace::http::Method;
use nettrace::HttpTransaction;
use wcgraph::{EdgeId, NodeId};

use super::{
    redirect, registrable_domain, tld, url_host, EdgeAttr, EdgeKind, NodeAttr, NodeKind, Stage,
    Wcg, WcgBuilder,
};

fn host_of_url(url: &str) -> Option<String> {
    url_host(url).map(str::to_ascii_lowercase)
}

struct TxMeta {
    stage: Stage,
    is_get: bool,
    edge_start: usize,
    edge_end: usize,
}

struct Reference {
    wcg: Wcg,
    nodes: BTreeMap<String, NodeId>,
    chain_len: BTreeMap<String, usize>,
    uris: BTreeSet<(NodeId, String)>,
    last_redirect_ts: Option<f64>,
    prev_ts: Option<f64>,
    txs: Vec<TxMeta>,
    origin: Option<String>,
    pre_end: Option<usize>,
    first_dl: Option<usize>,
    last_dl: Option<usize>,
    download_hosts: BTreeSet<String>,
}

/// `Wcg::from_transactions` by the transaction-reading fold.
pub(crate) fn build(transactions: &[HttpTransaction]) -> Wcg {
    let mut order: Vec<&HttpTransaction> = transactions.iter().collect();
    order.sort_by(|a, b| a.ts.total_cmp(&b.ts));
    let origin = order.first().and_then(|first| {
        first
            .referer()
            .and_then(host_of_url)
            .filter(|h| !transactions.iter().any(|t| t.host.eq_ignore_ascii_case(h)))
    });
    let mut r = Reference {
        wcg: WcgBuilder::new().into_wcg(),
        nodes: BTreeMap::new(),
        chain_len: BTreeMap::new(),
        uris: BTreeSet::new(),
        last_redirect_ts: None,
        prev_ts: None,
        txs: Vec::new(),
        origin,
        pre_end: None,
        first_dl: None,
        last_dl: None,
        download_hosts: BTreeSet::new(),
    };
    for tx in order {
        r.apply(tx, &redirect::targets(tx));
    }
    r.wcg
}

impl Reference {
    fn node_for(&mut self, host: &str) -> NodeId {
        if let Some(&id) = self.nodes.get(host) {
            return id;
        }
        let id = self
            .wcg
            .graph
            .add_node(NodeAttr::new(host.to_string(), NodeKind::Remote));
        self.nodes.insert(host.to_string(), id);
        id
    }

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
        let tx_host = tx.host.to_ascii_lowercase();
        if index == 0 {
            self.wcg.first_ts = tx.ts;
            self.wcg.last_ts = tx.ts;
            let victim_name = format!("victim:{}", tx.client.addr);
            let victim = self.wcg.graph.add_node(NodeAttr {
                ip: Some(tx.client.addr),
                ..NodeAttr::new(victim_name.clone(), NodeKind::Victim)
            });
            self.nodes.insert(victim_name, victim);
            self.wcg.victim = Some(victim);
            if let Some(h) = self.origin.clone() {
                let id = self
                    .wcg
                    .graph
                    .add_node(NodeAttr::new(h.clone(), NodeKind::Origin));
                self.nodes.insert(h, id);
                self.wcg.origin = Some(id);
            }
        }

        let is_get = tx.method == Method::Get;
        let is_exploit = tx.status / 100 == 2 && tx.payload_class.is_exploit_type();
        let is_redirectish = tx.is_redirect() || !targets.is_empty();
        if self.first_dl.is_none() && !is_exploit && is_get && is_redirectish {
            let from = self.pre_end.map_or(0, |pe| pe + 1);
            for i in from..index {
                if self.txs[i].is_get {
                    self.restage(i, Stage::PreDownload);
                }
            }
            self.pre_end = Some(index);
        }
        if is_exploit {
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
            self.download_hosts.insert(tx.host.clone());
        }
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

        let victim = self
            .wcg
            .victim
            .expect("victim node exists after first apply");
        let host_node = self.node_for(&tx_host);
        let new_uri = self.uris.insert((host_node, tx.uri.clone()));
        {
            let attr = self.wcg.graph.node_mut(host_node);
            attr.ip = Some(tx.server.addr);
            attr.uris += usize::from(new_uri);
            if tx.status != 0 {
                *attr.payload_summary.entry(tx.payload_class).or_insert(0) += 1;
            }
        }
        let edge_start = self.wcg.graph.edge_count();
        self.wcg.graph.add_edge(
            victim,
            host_node,
            EdgeAttr {
                kind: EdgeKind::Request,
                stage,
                ts: tx.ts,
                method: Some(tx.method.clone()),
                uri_len: tx.uri.len(),
                status: 0,
                payload_class: None,
                payload_size: 0,
            },
        );
        if tx.status != 0 {
            self.wcg.graph.add_edge(
                host_node,
                victim,
                EdgeAttr {
                    kind: EdgeKind::Response,
                    stage,
                    ts: tx.resp_ts,
                    method: None,
                    uri_len: 0,
                    status: tx.status,
                    payload_class: Some(tx.payload_class),
                    payload_size: tx.payload_size,
                },
            );
            self.wcg.payload_bytes += tx.payload_size;
        }
        let incoming_chain = self.chain_len.get(&tx_host).copied().unwrap_or(0);
        for target_url in targets {
            let Some(target_host) = host_of_url(target_url) else {
                continue;
            };
            if target_host == tx_host {
                continue;
            }
            let target_node = self.node_for(&target_host);
            self.wcg.graph.add_edge(
                host_node,
                target_node,
                EdgeAttr {
                    kind: EdgeKind::Redirect,
                    stage,
                    ts: tx.resp_ts,
                    method: None,
                    uri_len: 0,
                    status: tx.status,
                    payload_class: None,
                    payload_size: 0,
                },
            );
            self.wcg.redirects.total += 1;
            let new_chain = incoming_chain + 1;
            let chain = self.chain_len.entry(target_host.clone()).or_insert(0);
            *chain = (*chain).max(new_chain);
            self.wcg.redirects.max_chain = self.wcg.redirects.max_chain.max(new_chain);
            if registrable_domain(&tx_host) != registrable_domain(&target_host) {
                self.wcg.redirects.cross_domain += 1;
            }
            for h in [tx_host.as_str(), target_host.as_str()] {
                if let Some(t) = tld(h) {
                    self.wcg.redirects.tlds.insert(t.to_string());
                }
            }
            if let Some(prev) = self.last_redirect_ts {
                self.wcg
                    .redirects
                    .redirect_gaps
                    .push((tx.resp_ts - prev).max(0.0));
            }
            self.last_redirect_ts = Some(tx.resp_ts);
        }
        if index == 0 {
            if let Some(origin_id) = self.wcg.origin {
                self.wcg.graph.add_edge(
                    origin_id,
                    host_node,
                    EdgeAttr {
                        kind: EdgeKind::Redirect,
                        stage,
                        ts: tx.ts,
                        method: None,
                        uri_len: 0,
                        status: 0,
                        payload_class: None,
                        payload_size: 0,
                    },
                );
            }
        }
        let edge_end = self.wcg.graph.edge_count();

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
        self.txs.push(TxMeta {
            stage,
            is_get,
            edge_start,
            edge_end,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wcg::tests::{arb_tx, same_wcg, REDIRECTING_PREVIEWS};
    use crate::wcg::PushOutcome;

    /// Pushes `txs` one at a time, rebuilding when asked to, and checks
    /// the record fold against the reference at every prefix, both
    /// folded forward and built from scratch.
    fn check_every_prefix(txs: &[HttpTransaction]) {
        let mut builder = WcgBuilder::new();
        for i in 0..txs.len() {
            if builder.push(&txs[i]) == PushOutcome::NeedsRebuild {
                builder.rebuild(&txs[..=i]);
            }
            let expected = build(&txs[..=i]);
            assert!(
                same_wcg(builder.wcg(), &expected),
                "pushed prefix of {}",
                i + 1
            );
            assert!(
                same_wcg(&Wcg::from_transactions(&txs[..=i]), &expected),
                "rebuilt prefix of {}",
                i + 1
            );
        }
    }

    proptest::proptest! {
        /// Arbitrary streams whose bodies redirect, relatively too.
        #[test]
        fn record_fold_matches_the_reference_at_every_prefix(
            stream in proptest::collection::vec(
                (arb_tx(), 0..REDIRECTING_PREVIEWS.len() + 2),
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
            check_every_prefix(&stream);
        }
    }

    /// Every episode of the paper-sized ground truth, at every prefix.
    #[test]
    fn record_fold_matches_the_reference_on_the_ground_truth() {
        let corpus = synthtraffic::corpus::ground_truth(42, 0.25);
        assert!(!corpus.is_empty());
        for episode in &corpus {
            check_every_prefix(&episode.transactions);
        }
    }

    #[test]
    fn a_host_named_like_the_victim_is_the_victim() {
        use crate::wcg::tests::tx;
        use nettrace::payload::PayloadClass;
        let txs = [
            tx(
                1.0,
                "a.com",
                "/",
                Method::Get,
                200,
                PayloadClass::Html,
                1,
                None,
                None,
            ),
            tx(
                2.0,
                "victim:10.0.0.5",
                "/",
                Method::Get,
                200,
                PayloadClass::Html,
                1,
                None,
                None,
            ),
        ];
        check_every_prefix(&txs);
        assert_eq!(build(&txs).graph.node_count(), 2);
    }
}
