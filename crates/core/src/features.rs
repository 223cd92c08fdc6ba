//! The 37 payload-agnostic features of Table II.
//!
//! Features are grouped as in the paper: high-level (f1–f6), graph
//! (f7–f25), header (f26–f35), and temporal (f36–f37). Where the paper's
//! one-line description is ambiguous, the rustdoc on the corresponding
//! constant in [`NAMES`]'s order documents the definition chosen:
//!
//! * **f3 WCG-Size** — total payload bytes delivered in the WCG (the
//!   downloader-graph "size" of the cited prior work), which keeps it
//!   distinct from f8 (edge count).
//! * **f9 Degree** — the maximum total degree over nodes, Δ(G).
//! * **f24 Avg-K-Nearest-Neighbors** — average number of nodes within
//!   distance k = 2 of each node.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use wcgraph::algo;
use wcgraph::GraphView;

use crate::wcg::Wcg;

/// Number of features (f1–f37).
pub const FEATURE_COUNT: usize = 37;

/// Feature names, index 0 = f1 … index 36 = f37, matching Table II.
pub const NAMES: [&str; FEATURE_COUNT] = [
    "origin",                      // f1
    "x-flash-version",             // f2
    "wcg-size",                    // f3
    "conversation-length",         // f4
    "avg-uris-per-host",           // f5
    "average-uri-length",          // f6
    "order",                       // f7
    "size",                        // f8
    "degree",                      // f9
    "density",                     // f10
    "volume",                      // f11
    "diameter",                    // f12
    "avg-in-degree",               // f13
    "avg-out-degree",              // f14
    "reciprocity",                 // f15
    "avg-degree-centrality",       // f16
    "avg-closeness-centrality",    // f17
    "avg-betweenness-centrality",  // f18
    "avg-load-centrality",         // f19
    "avg-node-centrality",         // f20
    "avg-clustering-coefficient",  // f21
    "avg-neighbor-degree",         // f22
    "avg-degree-connectivity",     // f23
    "avg-k-nearest-neighbors",     // f24
    "avg-pagerank",                // f25
    "gets",                        // f26
    "posts",                       // f27
    "other-methods",               // f28
    "http-10xs",                   // f29
    "http-20xs",                   // f30
    "http-30xs",                   // f31
    "http-40xs",                   // f32
    "http-50xs",                   // f33
    "referrer-ctrs",               // f34
    "no-referrer-ctrs",            // f35
    "duration",                    // f36
    "avg-inter-transact-time",     // f37
];

/// A feature group from Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FeatureGroup {
    /// High-level features f1–f6 (HLFs).
    HighLevel,
    /// Graph features f7–f25 (GFs).
    Graph,
    /// Header features f26–f35 (HFs).
    Header,
    /// Temporal features f36–f37 (TFs).
    Temporal,
}

impl FeatureGroup {
    /// Column range of this group within a feature vector.
    pub const fn columns(self) -> std::ops::Range<usize> {
        match self {
            FeatureGroup::HighLevel => 0..6,
            FeatureGroup::Graph => 6..25,
            FeatureGroup::Header => 25..35,
            FeatureGroup::Temporal => 35..37,
        }
    }

    /// The group a feature column belongs to.
    pub fn of_column(column: usize) -> FeatureGroup {
        match column {
            0..=5 => FeatureGroup::HighLevel,
            6..=24 => FeatureGroup::Graph,
            25..=34 => FeatureGroup::Header,
            _ => FeatureGroup::Temporal,
        }
    }
}

/// A 37-dimensional feature vector extracted from one WCG.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureVector(pub [f64; FEATURE_COUNT]);

impl Serialize for FeatureVector {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.0.as_slice().serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for FeatureVector {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let values = Vec::<f64>::deserialize(deserializer)?;
        let arr: [f64; FEATURE_COUNT] = values
            .try_into()
            .map_err(|v: Vec<f64>| {
                serde::de::Error::invalid_length(v.len(), &"37 feature values")
            })?;
        Ok(FeatureVector(arr))
    }
}

impl FeatureVector {
    /// The underlying values in f1…f37 order.
    pub fn values(&self) -> &[f64; FEATURE_COUNT] {
        &self.0
    }

    /// Value of the named feature.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not one of [`NAMES`].
    pub fn get(&self, name: &str) -> f64 {
        let idx = NAMES
            .iter()
            .position(|&n| n == name)
            .unwrap_or_else(|| panic!("unknown feature {name:?}"));
        self.0[idx]
    }
}

/// Columns of the feature vector that depend only on the graph's simple
/// topology (which nodes exist and which ordered pairs are connected),
/// not on edge multiplicities, attributes, or traffic aggregates. These
/// are exactly the columns [`FeatureExtractor`] remembers per graph
/// shape: f12 diameter, f15 reciprocity, f17 closeness, f18 betweenness,
/// f19 load, f20 node connectivity, f21 clustering, f22 neighbor degree,
/// f24 k-nearest (k = 2), f25 pagerank.
pub const TOPO_COLUMNS: [usize; 10] = [11, 14, 16, 17, 18, 19, 20, 21, 23, 24];

/// Reusable feature-extraction workspace.
///
/// Owns a [`GraphView`] whose CSR adjacency buffers are rebuilt in place
/// per extraction, plus an [`algo::AlgoScratch`] threaded through every
/// topology traversal, so steady-state extraction performs no heap
/// allocation beyond a new shape's memo entry: adjacency, BFS, Brandes,
/// PageRank, and max-flow buffers grow to the largest conversation seen
/// and are reused from then on. Results are bit-identical to
/// [`extract`].
///
/// It also remembers the [`TOPO_COLUMNS`] values of every graph *shape*
/// it has computed — the order plus the sorted, deduplicated, non-loop
/// `(src, dst)` pairs, which is all [`GraphView::load`] reads — so a
/// graph whose shape it has seen costs no topology pass. The values are
/// a function of the shape alone, so a hit returns the bits a pass
/// would. The memo holds at most [`MEMO_WORDS`] key words and is emptied
/// when the next key would not fit.
#[derive(Debug, Default)]
pub struct FeatureExtractor {
    view: GraphView,
    scratch: algo::AlgoScratch,
    memo: HashMap<Box<[u32]>, [f64; TOPO_COLUMNS.len()]>,
    /// Words in the memo's keys.
    memo_words: usize,
    /// The shape being looked up: order, then the pairs flattened.
    key: Vec<u32>,
}

/// Bound on the words (`u32`s) the shape memo's keys hold together: a
/// quarter mebibyte of keys, about 3 000 shapes of a dozen pairs.
pub const MEMO_WORDS: usize = 1 << 16;

impl FeatureExtractor {
    /// A fresh extractor with empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Extracts all 37 features, reusing this extractor's scratch space
    /// and the [`TOPO_COLUMNS`] values of a shape it has seen.
    pub fn extract(&mut self, wcg: &Wcg) -> FeatureVector {
        let mut f = [0.0f64; FEATURE_COUNT];
        base_features(wcg, &mut f);
        let mut topo = [0.0f64; TOPO_COLUMNS.len()];
        self.topo_values(wcg, &mut topo);
        for (&col, &v) in TOPO_COLUMNS.iter().zip(&topo) {
            f[col] = v;
        }
        FeatureVector(f)
    }

    /// The [`TOPO_COLUMNS`] values of `wcg`'s graph: remembered by shape,
    /// or computed by one topology pass and remembered.
    fn topo_values(&mut self, wcg: &Wcg, out: &mut [f64; TOPO_COLUMNS.len()]) {
        self.view.load_pairs(&wcg.graph);
        self.key.clear();
        self.key.push(self.view.order() as u32);
        self.key.extend(self.view.pairs().iter().flat_map(|&(u, v)| [u, v]));
        if let Some(values) = self.memo.get(self.key.as_slice()) {
            *out = *values;
            return;
        }
        self.view.build_rows();
        topo_features(&self.view, &mut self.scratch, out);
        if self.key.len() > MEMO_WORDS {
            return;
        }
        if self.memo_words + self.key.len() > MEMO_WORDS {
            self.memo.clear();
            self.memo_words = 0;
        }
        self.memo_words += self.key.len();
        self.memo.insert(self.key.as_slice().into(), *out);
    }
}

#[cfg(test)]
thread_local! {
    /// Topology passes run on this thread, for the tests that count them.
    static TOPO_PASSES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Topology passes run on the calling thread so far.
#[cfg(test)]
pub(crate) fn topo_passes() -> u64 {
    TOPO_PASSES.with(std::cell::Cell::get)
}

/// Fills every feature column except [`TOPO_COLUMNS`].
fn base_features(wcg: &Wcg, f: &mut [f64; FEATURE_COUNT]) {
    let g = &wcg.graph;
    let n = g.node_count();
    let e = g.edge_count();

    // --- High-level features f1–f6 --------------------------------------
    f[0] = f64::from(wcg.origin.is_some() || wcg.referrer_set > 0); // f1 origin known
    f[1] = f64::from(wcg.x_flash); // f2
    f[2] = wcg.payload_bytes as f64; // f3 WCG-Size (bytes)
    f[3] = wcg.remote_host_count() as f64; // f4 conversation length
    // f5 numerator counts remote-host nodes only, matching the
    // remote-host denominator. Victim and origin nodes never carry URIs
    // (only contacted servers accumulate them), so the filter is a
    // semantic guard rather than a value change.
    let total_uris: usize = g
        .node_ids()
        .filter(|&v| g.node(v).kind == crate::wcg::NodeKind::Remote)
        .map(|v| g.node(v).uris)
        .sum();
    let host_count = wcg.remote_host_count().max(1);
    f[4] = total_uris as f64 / host_count as f64; // f5
    f[5] = if wcg.uri_count > 0 {
        wcg.uri_length_total as f64 / wcg.uri_count as f64
    } else {
        0.0
    }; // f6

    // --- Graph features f7–f25 (multiplicity/degree-sensitive part) ------
    f[6] = n as f64; // f7 order
    f[7] = e as f64; // f8 size
    f[8] = g.node_ids().map(|v| g.degree(v)).max().unwrap_or(0) as f64; // f9 degree Δ(G)
    f[9] = if n > 1 { e as f64 / (n * (n - 1)) as f64 } else { 0.0 }; // f10 density
    f[10] = (2 * e) as f64; // f11 volume
    f[12] = if n > 0 { e as f64 / n as f64 } else { 0.0 }; // f13 avg in-degree
    f[13] = f[12]; // f14 avg out-degree (equal on any digraph; the paper
                   // ranks these adjacently with identical gain)
    f[15] = algo::centrality::avg_degree_centrality(g); // f16
    f[22] = algo::connectivity::avg_degree_connectivity(g); // f23

    // --- Header features f26–f35 -----------------------------------------
    f[25] = wcg.method_counts.get as f64;
    f[26] = wcg.method_counts.post as f64;
    f[27] = wcg.method_counts.other as f64;
    f[28] = wcg.status_class_counts[1] as f64;
    f[29] = wcg.status_class_counts[2] as f64;
    f[30] = wcg.status_class_counts[3] as f64;
    f[31] = wcg.status_class_counts[4] as f64;
    f[32] = wcg.status_class_counts[5] as f64;
    f[33] = wcg.referrer_set as f64;
    f[34] = wcg.referrer_unset as f64;

    // --- Temporal features f36–f37 ---------------------------------------
    // f36 is the conversation duration itself (Table II); the mean
    // inter-transaction gap is already f37. (An earlier revision divided
    // by uri_count, silently shrinking f36 on busy conversations.)
    f[35] = wcg.duration();
    f[36] = if wcg.inter_tx_gaps.is_empty() {
        0.0
    } else {
        wcg.inter_tx_gaps.iter().sum::<f64>() / wcg.inter_tx_gaps.len() as f64
    };
}

/// Computes the [`TOPO_COLUMNS`] features from a loaded view, in column
/// order. The five that need every node's distance row (f12, f17, f18,
/// f19, f24) come out of one all-sources sweep. Every traversal runs over
/// `scratch`'s buffers, so this function allocates nothing once those
/// have grown to the graph's order.
fn topo_features(
    view: &GraphView,
    scratch: &mut algo::AlgoScratch,
    out: &mut [f64; TOPO_COLUMNS.len()],
) {
    #[cfg(test)]
    TOPO_PASSES.with(|n| n.set(n.get() + 1));
    let sweep = algo::centrality::sweep_means_scratch(view, 2, scratch);
    out[0] = sweep.diameter as f64; // f12
    out[1] = algo::reciprocity::reciprocity_view(view); // f15
    out[2] = sweep.closeness; // f17
    out[3] = sweep.betweenness; // f18
    out[4] = sweep.betweenness; // f19: mean load is mean betweenness (flow conservation)
    out[5] = algo::connectivity::average_node_connectivity_view_scratch(view, scratch); // f20
    out[6] = algo::clustering::clustering_coefficient_mean_view(view); // f21
    out[7] = algo::clustering::neighbor_degree_mean_view(view); // f22
    out[8] = sweep.within_k; // f24 (k = 2)
    out[9] = algo::pagerank::pagerank_mean_scratch(
        view,
        algo::pagerank::DEFAULT_DAMPING,
        algo::pagerank::DEFAULT_TOL,
        algo::pagerank::DEFAULT_MAX_ITER,
        scratch,
    ); // f25
}

/// Extracts all 37 features from a WCG.
///
/// One-shot convenience over [`FeatureExtractor`]; repeated callers (the
/// live detector, training loops) should hold an extractor to reuse its
/// adjacency buffers.
///
/// # Example
///
/// ```
/// use dynaminer::{features, wcg::Wcg};
///
/// let wcg = Wcg::from_transactions(&[]);
/// let fv = features::extract(&wcg);
/// assert_eq!(fv.values().len(), features::FEATURE_COUNT);
/// assert_eq!(fv.get("order"), 0.0);
/// ```
pub fn extract(wcg: &Wcg) -> FeatureVector {
    FeatureExtractor::new().extract(wcg)
}

/// Number of extension features (f38–f45).
pub const EXTENDED_EXTRA: usize = 8;
/// Total feature count with extensions.
pub const EXTENDED_COUNT: usize = FEATURE_COUNT + EXTENDED_EXTRA;

/// Names of the extension features f38–f45 — graph-level WCG annotations
/// the paper computes (Sec. III-C, graph level) but does not include in
/// its 37-feature classifier. We expose them as an extension and measure
/// their contribution in `experiments extension_features`.
pub const EXTENDED_NAMES: [&str; EXTENDED_EXTRA] = [
    "pre-stage-fraction",      // f38: share of transactions in pre-download
    "post-stage-fraction",     // f39: share of transactions in post-download
    "redirect-total",          // f40: total redirect hops
    "max-redirect-chain",      // f41: longest redirect chain
    "cross-domain-redirects",  // f42: redirections crossing registrable domains
    "tld-diversity",           // f43: distinct TLDs among redirect participants
    "avg-redirect-delay",      // f44: mean delay between consecutive redirects
    "dnt-enabled",             // f45: DNT header observed
];

/// All 45 feature names (base 37 + extensions) in column order.
pub fn extended_names() -> Vec<String> {
    NAMES.iter().chain(EXTENDED_NAMES.iter()).map(|s| s.to_string()).collect()
}

/// Extracts the 37 base features plus the 8 extension features.
pub fn extract_extended(wcg: &Wcg) -> Vec<f64> {
    let base = extract(wcg);
    let mut out = base.values().to_vec();
    let txs = wcg.tx_count.max(1) as f64;
    out.push(wcg.stage_counts[0] as f64 / txs);
    out.push(wcg.stage_counts[2] as f64 / txs);
    out.push(wcg.redirects.total as f64);
    out.push(wcg.redirects.max_chain as f64);
    out.push(wcg.redirects.cross_domain as f64);
    out.push(wcg.redirects.tlds.len() as f64);
    out.push(if wcg.redirects.redirect_gaps.is_empty() {
        0.0
    } else {
        wcg.redirects.redirect_gaps.iter().sum::<f64>()
            / wcg.redirects.redirect_gaps.len() as f64
    });
    out.push(f64::from(wcg.dnt));
    debug_assert_eq!(out.len(), EXTENDED_COUNT);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::http::Method;
    use nettrace::payload::PayloadClass;

    use crate::wcg::tests::tx;

    fn infection_wcg() -> Wcg {
        let txs = vec![
            tx(1.0, "a.com", "/r", Method::Get, 302, PayloadClass::Empty, 0,
               Some("http://www.google.com/search?q=z"), Some("http://b.com/l")),
            tx(1.2, "b.com", "/l", Method::Get, 302, PayloadClass::Empty, 0, None,
               Some("http://c.com/gate.php?verylongquerystring=abcdef")),
            tx(1.4, "c.com", "/gate.php?verylongquerystring=abcdef", Method::Get, 200,
               PayloadClass::Html, 40_000, None, None),
            tx(1.8, "c.com", "/p.exe", Method::Get, 200, PayloadClass::Exe, 200_000, None, None),
            tx(9.0, "8.8.4.4", "/g", Method::Post, 200, PayloadClass::Text, 20, None, None),
        ];
        Wcg::from_transactions(&txs)
    }

    #[test]
    fn names_are_unique_and_count_37() {
        let mut names = NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 37);
    }

    #[test]
    fn groups_partition_all_columns() {
        let mut covered = [false; FEATURE_COUNT];
        for group in [
            FeatureGroup::HighLevel,
            FeatureGroup::Graph,
            FeatureGroup::Header,
            FeatureGroup::Temporal,
        ] {
            for c in group.columns() {
                assert!(!covered[c], "column {c} covered twice");
                covered[c] = true;
                assert_eq!(FeatureGroup::of_column(c), group);
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn extraction_produces_finite_values() {
        let fv = extract(&infection_wcg());
        for (i, v) in fv.values().iter().enumerate() {
            assert!(v.is_finite(), "feature {} = {v}", NAMES[i]);
        }
    }

    #[test]
    fn high_level_features() {
        let fv = extract(&infection_wcg());
        assert_eq!(fv.get("origin"), 1.0);
        assert_eq!(fv.get("x-flash-version"), 0.0);
        assert_eq!(fv.get("wcg-size"), 240_020.0);
        assert_eq!(fv.get("conversation-length"), 4.0); // a, b, c, 8.8.4.4
        assert!(fv.get("average-uri-length") > 5.0);
    }

    #[test]
    fn header_features_count_methods_and_statuses() {
        let fv = extract(&infection_wcg());
        assert_eq!(fv.get("gets"), 4.0);
        assert_eq!(fv.get("posts"), 1.0);
        assert_eq!(fv.get("http-20xs"), 3.0);
        assert_eq!(fv.get("http-30xs"), 2.0);
        assert_eq!(fv.get("referrer-ctrs"), 1.0);
        assert_eq!(fv.get("no-referrer-ctrs"), 4.0);
    }

    #[test]
    fn graph_features_consistency() {
        let wcg = infection_wcg();
        let fv = extract(&wcg);
        assert_eq!(fv.get("order"), wcg.graph.node_count() as f64);
        assert_eq!(fv.get("size"), wcg.graph.edge_count() as f64);
        assert_eq!(fv.get("volume"), 2.0 * fv.get("size"));
        assert!(fv.get("degree") >= fv.get("avg-in-degree"));
        assert!(fv.get("avg-pagerank") > 0.0);
        assert!(fv.get("diameter") >= 1.0);
    }

    #[test]
    fn temporal_features() {
        let wcg = infection_wcg();
        let fv = extract(&wcg);
        // f36 is the WCG lifetime itself: last response (9.0 + 0.1) minus
        // first request (1.0). Pinned exactly — the bug this guards
        // against divided it by uri_count.
        assert_eq!(fv.get("duration"), (9.0 + 0.1) - 1.0);
        assert_eq!(fv.get("duration"), wcg.duration());
        // Inter-transaction mean: gaps (0.2, 0.2, 0.4, 7.2)/4 = 2.0.
        assert!((fv.get("avg-inter-transact-time") - 2.0).abs() < 1e-9);
    }

    #[test]
    fn avg_uris_per_host_counts_remote_nodes_only() {
        let wcg = infection_wcg();
        let fv = extract(&wcg);
        // 5 distinct URIs over 4 remote hosts (c.com serves two). The
        // victim node and any origin node carry no URIs, so the remote-only
        // numerator equals the all-nodes sum — asserted here so a future
        // change to node annotations can't silently drift f5.
        assert_eq!(fv.get("avg-uris-per-host"), 5.0 / 4.0);
        let all_nodes: usize =
            wcg.graph.node_ids().map(|v| wcg.graph.node(v).uris).sum();
        let remote_only: usize = wcg
            .graph
            .node_ids()
            .filter(|&v| wcg.graph.node(v).kind == crate::wcg::NodeKind::Remote)
            .map(|v| wcg.graph.node(v).uris)
            .sum();
        assert_eq!(all_nodes, remote_only, "victim/origin nodes must not carry URIs");
    }

    /// Golden vector: every one of the 37 features pinned exactly on the
    /// fixture WCG. Any extractor edit that shifts the model input space
    /// now fails loudly instead of silently retraining a different model.
    #[test]
    fn golden_vector_all_37_features_exact() {
        let fv = extract(&infection_wcg());
        let golden = [
            ("origin", 1.0),
            ("x-flash-version", 0.0),
            ("wcg-size", 240_020.0),
            ("conversation-length", 4.0),
            ("avg-uris-per-host", 1.25),
            ("average-uri-length", 9.6),
            ("order", 6.0),
            ("size", 13.0),
            ("degree", 10.0),
            ("density", 13.0 / 30.0),
            ("volume", 26.0),
            ("diameter", 3.0),
            ("avg-in-degree", 13.0 / 6.0),
            ("avg-out-degree", 13.0 / 6.0),
            ("reciprocity", 8.0 / 11.0),
            ("avg-degree-centrality", 0.8666666666666667),
            ("avg-closeness-centrality", 0.6286676286676287),
            ("avg-betweenness-centrality", 1.0 / 6.0),
            ("avg-load-centrality", 1.0 / 6.0),
            ("avg-node-centrality", 1.4666666666666666),
            ("avg-clustering-coefficient", 0.38888888888888884),
            ("avg-neighbor-degree", 3.069444444444444),
            ("avg-degree-connectivity", 13.0 / 3.0),
            ("avg-k-nearest-neighbors", 13.0 / 3.0),
            ("avg-pagerank", 1.0 / 6.0),
            ("gets", 4.0),
            ("posts", 1.0),
            ("other-methods", 0.0),
            ("http-10xs", 0.0),
            ("http-20xs", 3.0),
            ("http-30xs", 2.0),
            ("http-40xs", 0.0),
            ("http-50xs", 0.0),
            ("referrer-ctrs", 1.0),
            ("no-referrer-ctrs", 4.0),
            ("duration", (9.0 + 0.1) - 1.0),
            ("avg-inter-transact-time", (0.2 + 0.2 + 0.4 + 7.2) / 4.0),
        ];
        assert_eq!(golden.len(), FEATURE_COUNT);
        for (i, (name, expected)) in golden.iter().enumerate() {
            assert_eq!(NAMES[i], *name, "golden vector out of order at {i}");
            assert_eq!(fv.get(name), *expected, "f{} {name}", i + 1);
        }
    }

    /// A WCG whose graph has `n` nodes and the given edges and nothing
    /// else.
    fn shape(n: usize, edges: &[(usize, usize)]) -> Wcg {
        use crate::wcg::{EdgeAttr, EdgeKind, NodeAttr, NodeKind, Stage};
        let mut wcg = Wcg::from_transactions(&[]);
        let ids: Vec<_> = (0..n)
            .map(|i| {
                wcg.graph.add_node(NodeAttr {
                    name: format!("h{i}"),
                    kind: NodeKind::Remote,
                    ip: None,
                    uris: 0,
                    payload_summary: Default::default(),
                })
            })
            .collect();
        for &(a, b) in edges {
            wcg.graph.add_edge(ids[a], ids[b], EdgeAttr {
                kind: EdgeKind::Redirect,
                stage: Stage::Download,
                ts: 0.0,
                method: None,
                uri_len: 0,
                status: 0,
                payload_class: None,
                payload_size: 0,
            });
        }
        wcg
    }

    fn assert_bits_equal(a: &FeatureVector, b: &FeatureVector, what: &str) {
        for (i, (x, y)) in a.values().iter().zip(b.values()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: f{} {}", i + 1, NAMES[i]);
        }
    }

    /// One long-lived extractor over ground-truth WCG prefixes and random
    /// multigraphs (self-loops, parallel edges, repeats), shuffled, enough
    /// distinct shapes to empty the memo several times: every vector has
    /// the bits of a fresh extraction, which computes every topology.
    #[test]
    fn shape_memo_is_exact_across_evictions() {
        use rand::seq::SliceRandom;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let mut graphs: Vec<Wcg> = Vec::new();
        for episode in synthtraffic::corpus::ground_truth(42, 0.05) {
            let txs = &episode.transactions;
            for end in [1, txs.len() / 2, txs.len()] {
                graphs.push(Wcg::from_transactions(&txs[..end.max(1).min(txs.len())]));
            }
        }
        let mut words = 0;
        while words < 3 * MEMO_WORDS {
            let n = rng.gen_range(1..48usize);
            let edges: Vec<(usize, usize)> = (0..rng.gen_range(0..4 * n))
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .collect();
            words += 1 + 2 * edges.len();
            graphs.push(shape(n, &edges));
        }
        let repeats: Vec<Wcg> = graphs.iter().step_by(3).cloned().collect();
        graphs.extend(repeats);
        graphs.shuffle(&mut rng);
        let mut memo = FeatureExtractor::new();
        let (mut evictions, mut held) = (0, 0);
        for (i, wcg) in graphs.iter().enumerate() {
            assert_bits_equal(&memo.extract(wcg), &extract(wcg), &format!("graph {i}"));
            evictions += usize::from(memo.memo_words < held);
            held = memo.memo_words;
            assert!(memo.memo_words <= MEMO_WORDS);
        }
        assert!(evictions >= 2, "{evictions} evictions");
    }

    /// Distinct shapes past the bound, and one shape whose key alone
    /// exceeds a share of it, never hold more key words than the bound.
    #[test]
    fn shape_memo_holds_at_most_its_bound() {
        let mut memo = FeatureExtractor::new();
        let mut most = 0;
        for n in 1..400 {
            let edges: Vec<(usize, usize)> = (1..n).map(|v| (0, v)).collect();
            let _ = memo.extract(&shape(n, &edges));
            most = most.max(memo.memo_words);
        }
        let star: Vec<(usize, usize)> = (1..=2000).flat_map(|v| [(0, v), (v, 0)]).collect();
        let wcg = shape(2001, &star);
        assert_bits_equal(&memo.extract(&wcg), &extract(&wcg), "star");
        most = most.max(memo.memo_words);
        assert!(most <= MEMO_WORDS, "{most} key words held");
        assert!(most > MEMO_WORDS / 2, "the bound was reached: {most}");
        let passes = topo_passes();
        assert_bits_equal(&memo.extract(&wcg), &extract(&wcg), "star again");
        assert_eq!(topo_passes(), passes + 1, "the star is remembered: only the fresh pass ran");
    }

    #[test]
    fn topo_columns_lie_in_the_graph_group() {
        for &c in TOPO_COLUMNS.iter() {
            assert_eq!(FeatureGroup::of_column(c), FeatureGroup::Graph);
        }
        let mut sorted = TOPO_COLUMNS.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), TOPO_COLUMNS.len(), "columns must be unique");
    }

    #[test]
    fn empty_wcg_extracts_zeros() {
        let fv = extract(&Wcg::from_transactions(&[]));
        for (i, v) in fv.values().iter().enumerate() {
            assert!(v.is_finite(), "{}", NAMES[i]);
        }
        assert_eq!(fv.get("order"), 0.0);
        assert_eq!(fv.get("origin"), 0.0);
    }

    #[test]
    #[should_panic(expected = "unknown feature")]
    fn unknown_feature_name_panics() {
        extract(&infection_wcg()).get("not-a-feature");
    }

    #[test]
    fn extended_extraction_appends_eight_features() {
        let wcg = infection_wcg();
        let base = extract(&wcg);
        let ext = extract_extended(&wcg);
        assert_eq!(ext.len(), EXTENDED_COUNT);
        assert_eq!(&ext[..FEATURE_COUNT], base.values());
        assert_eq!(extended_names().len(), EXTENDED_COUNT);
        // Stage fractions are fractions and sum with the download share
        // to 1 over the transaction count.
        let pre = ext[FEATURE_COUNT];
        let post = ext[FEATURE_COUNT + 1];
        assert!((0.0..=1.0).contains(&pre));
        assert!((0.0..=1.0).contains(&post));
        assert!(pre + post <= 1.0 + 1e-12);
        // The fixture has a two-hop redirect chain across domains.
        assert_eq!(ext[FEATURE_COUNT + 2], 2.0, "redirect-total");
        assert_eq!(ext[FEATURE_COUNT + 3], 2.0, "max-redirect-chain");
        assert_eq!(ext[FEATURE_COUNT + 4], 2.0, "cross-domain-redirects");
        assert_eq!(ext[FEATURE_COUNT + 5], 1.0, "tld-diversity (all hops are .com)");
        assert_eq!(ext[FEATURE_COUNT + 7], 0.0, "dnt");
    }

    #[test]
    fn extended_names_are_unique() {
        let mut names = extended_names();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), EXTENDED_COUNT);
    }

    #[test]
    fn extended_extraction_finite_on_empty_wcg() {
        let ext = extract_extended(&Wcg::from_transactions(&[]));
        assert!(ext.iter().all(|v| v.is_finite()));
    }
}
