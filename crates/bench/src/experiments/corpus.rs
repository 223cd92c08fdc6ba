//! What the ground-truth corpus looks like: Table I, Figures 1–4 and
//! 6–9, and the Sec. III-D / II-D global properties.

use std::fmt::Write as _;
use std::net::Ipv4Addr;

use dynaminer::features::NAMES;
use dynaminer::wcg::{Stage, Wcg};
use nettrace::http::{HeaderMap, Method};
use nettrace::payload::PayloadClass;
use nettrace::reassembly::Endpoint;
use nettrace::HttpTransaction;
use synthtraffic::corpus::CorpusStats;
use synthtraffic::{EkFamily, Enticement, EpisodeLabel};
use wcgraph::algo::paths::weak_components;

use crate::claims::Report;
use crate::Fixtures;

/// Column of a named feature in the 37-column dataset.
fn column(name: &str) -> usize {
    NAMES.iter().position(|n| *n == name).expect("known feature")
}

/// Column means of `rows` per class, `(infection, benign)`: sums in
/// corpus order, then one division.
fn class_means<const N: usize>(
    rows: impl Iterator<Item = (bool, [f64; N])>,
) -> ([f64; N], [f64; N]) {
    let mut sums = [[0.0f64; N]; 2];
    let mut counts = [0usize; 2];
    for (infected, row) in rows {
        let class = usize::from(!infected);
        counts[class] += 1;
        for (sum, value) in sums[class].iter_mut().zip(row) {
            *sum += value;
        }
    }
    (sums[0].map(|s| s / counts[0] as f64), sums[1].map(|s| s / counts[1] as f64))
}

/// Paper values: (label, pcaps, hosts(min,max,avg), redirects(min,max,avg)).
#[allow(clippy::type_complexity)]
const TABLE1_PAPER: [(&str, usize, (usize, usize, usize), (usize, usize, usize)); 11] = [
    ("Benign", 980, (2, 34, 3), (0, 2, 0)),
    ("Angler", 253, (2, 74, 6), (0, 18, 1)),
    ("RIG", 62, (2, 17, 4), (0, 3, 1)),
    ("Nuclear", 132, (2, 213, 8), (0, 18, 1)),
    ("Magnitude", 43, (2, 231, 20), (0, 12, 2)),
    ("SweetOrange", 33, (2, 90, 8), (0, 6, 1)),
    ("FlashPack", 29, (2, 15, 5), (0, 8, 2)),
    ("Neutrino", 40, (2, 30, 6), (0, 14, 2)),
    ("Goon", 19, (2, 90, 9), (0, 30, 2)),
    ("Fiesta", 89, (2, 182, 7), (0, 3, 1)),
    ("Other Kits", 70, (2, 68, 4), (0, 5, 1)),
];

/// **Table I**: the ground-truth dataset summary — per-family trace
/// counts, host-count min/max/avg, redirect min/max/avg, and payload
/// counts per file type.
pub(super) fn table1(fx: &Fixtures, out: &mut Report) {
    let corpus = fx.ground_truth();
    let rows = CorpusStats::table_rows(corpus);
    outln!(
        out,
        "{:<12} {:>6} | {:>4} {:>4} {:>5} | {:>4} {:>4} {:>5} | {:>5} {:>5} {:>5} {:>5} {:>6} {:>5}",
        "Family", "PCAPs", "Hmin", "Hmax", "Havg", "Rmin", "Rmax", "Ravg", "pdf", "exe", "jar",
        "swf", "crypt", "js"
    );
    for row in &rows {
        let p = row.payload_counts;
        outln!(
            out,
            "{:<12} {:>6} | {:>4} {:>4} {:>5.1} | {:>4} {:>4} {:>5.1} | {:>5} {:>5} {:>5} {:>5} {:>6} {:>5}",
            row.label, row.episodes, row.hosts.0, row.hosts.1, row.hosts.2, row.redirects.0,
            row.redirects.1, row.redirects.2, p[0], p[1], p[2], p[3], p[4], p[5]
        );
    }
    outln!(out, "\npaper reference (hosts / redirects):");
    for (label, pcaps, h, r) in TABLE1_PAPER {
        outln!(
            out, "{label:<12} {pcaps:>6} | {:>4} {:>4} {:>5} | {:>4} {:>4} {:>5}",
            h.0, h.1, h.2, r.0, r.1, r.2
        );
    }
    let infections = corpus.iter().filter(|e| e.is_infection()).count();
    out.measure("table1.benign", (corpus.len() - infections) as f64);
    out.measure("table1.infections", infections as f64);
    let matching = rows
        .iter()
        .zip(TABLE1_PAPER)
        .filter(|(row, paper)| row.label == paper.0 && row.episodes == paper.1)
        .count();
    out.measure("table1.family_counts_match", matching as f64);
}

/// **Figure 1**: the overall distribution of enticement strategies
/// across infection traces (category, count, percentage).
pub(super) fn fig1_enticement(fx: &Fixtures, out: &mut Report) {
    let infections: Vec<_> = fx.ground_truth().iter().filter(|e| e.is_infection()).collect();
    let total = infections.len();
    outln!(out, "{:<20} {:>6} {:>9} {:>14}", "Category", "Count", "Measured", "Paper share");
    for category in Enticement::ALL {
        let count = infections.iter().filter(|e| e.enticement == category).count();
        outln!(
            out, "{:<20} {:>6} {:>8.2}% {:>13.2}%",
            category.label(),
            count,
            100.0 * count as f64 / total as f64,
            100.0 * category.paper_share(),
        );
    }
    let search = infections
        .iter()
        .filter(|e| matches!(e.enticement, Enticement::GoogleSearch | Enticement::BingSearch))
        .count();
    let search_share = 100.0 * search as f64 / total as f64;
    outln!(out, "\nsearch engines drive {search_share:.1}% of exposure (paper: 62%)");
    out.measure("fig1_enticement.search_share", search_share);
}

/// **Figure 2**: per-family infection-origin distributions — which
/// enticement strategies each exploit-kit family relies on.
pub(super) fn fig2_origins(fx: &Fixtures, out: &mut Report) {
    let corpus = fx.ground_truth();
    out!(out, "{:<12}", "Family");
    for cat in Enticement::ALL {
        out!(out, " {:>10}", &cat.label()[..cat.label().len().min(10)]);
    }
    outln!(out);
    for family in EkFamily::ALL {
        let members: Vec<_> =
            corpus.iter().filter(|e| e.label == EpisodeLabel::Infection(family)).collect();
        if members.is_empty() {
            continue;
        }
        out!(out, "{:<12}", family.name());
        for cat in Enticement::ALL {
            let count = members.iter().filter(|e| e.enticement == cat).count();
            out!(out, " {:>9.1}%", 100.0 * count as f64 / members.len() as f64);
        }
        outln!(out);
    }
    outln!(
        out, "\npaper: search engines and compromised sites consistently rank as the top\n\
         enticement strategies across all families (shared black-hat SEO)."
    );
}

const FIG3_PROPS: [&str; 14] = [
    "order",
    "size",
    "degree",
    "density",
    "volume",
    "diameter",
    "avg-degree-centrality",
    "avg-closeness-centrality",
    "avg-betweenness-centrality",
    "avg-load-centrality",
    "avg-node-centrality",
    "avg-neighbor-degree",
    "avg-degree-connectivity",
    "avg-pagerank",
];

/// **Figure 3**: average measures of graph properties for infection vs
/// benign WCGs — order, size, diameter, degree, volume, centralities,
/// connectivity, neighbor measures, and PageRank.
///
/// The paper's qualitative findings (Sec. II-C): infection graphs have
/// more nodes/edges, higher diameter/degree/volume; lower degree-,
/// closeness-, and betweenness-centrality (except load); higher
/// degree-connectivity, neighbor measures, and PageRank mass spread.
///
/// Also measures, without printing them, the two structural bounds on
/// generated topology that the claims table takes from Šćepanović et
/// al.: where the victim sits and how heavy the hubs are.
pub(super) fn fig3_graph_props(fx: &Fixtures, out: &mut Report) {
    let corpus = fx.ground_truth();
    let data = fx.dataset();
    let columns = FIG3_PROPS.map(column);
    let (inf, ben) = class_means(
        corpus.iter().enumerate().map(|(i, ep)| (ep.is_infection(), columns.map(|c| data.row(i)[c]))),
    );
    outln!(out, "{:<28} {:>12} {:>12} {:>8}", "Property", "Infection", "Benign", "Ratio");
    for (prop, (inf, ben)) in FIG3_PROPS.iter().zip(inf.into_iter().zip(ben)) {
        let ratio = if ben.abs() > 1e-12 { inf / ben } else { f64::NAN };
        outln!(out, "{prop:<28} {inf:>12.4} {ben:>12.4} {ratio:>8.2}");
    }
    outln!(
        out, "\npaper direction: infection > benign for order/size/diameter/degree/volume\n\
         and connectedness measures; infection < benign for degree/closeness/\n\
         betweenness centrality (load excepted)."
    );

    // Per WCG: the heaviest node's degree, and whether the victim sits
    // in the largest weakly connected component.
    let structure: Vec<(bool, usize, bool)> = corpus
        .iter()
        .map(|ep| {
            let wcg = Wcg::from_transactions(&ep.transactions);
            let hub = wcg.graph.node_ids().map(|v| wcg.graph.degree(v)).max().unwrap_or(0);
            let component = weak_components(&wcg.graph);
            let mut sizes = vec![0usize; component.len()];
            for &c in &component {
                sizes[c] += 1;
            }
            let largest = sizes.iter().copied().max().unwrap_or(0);
            let central = wcg.victim.is_some_and(|v| sizes[component[v.0]] == largest);
            (ep.is_infection(), hub, central)
        })
        .collect();
    let ([inf_hub], [ben_hub]) =
        class_means(structure.iter().map(|&(infected, hub, _)| (infected, [hub as f64])));
    let central = structure.iter().filter(|&&(_, _, central)| central).count();
    out.measure(
        "fig3_graph_props.victim_in_largest_component",
        central as f64 / corpus.len() as f64,
    );
    out.measure("fig3_graph_props.max_degree_ratio", inf_hub / ben_hub);
}

/// **Figure 4**: average counts of HTTP header elements for infection
/// vs benign traces — GET/POST requests, redirection chains, and
/// response-code classes.
///
/// Paper finding (Sec. II-D): infections show visibly higher (sometimes
/// more than double) averages for GETs, POSTs, redirection chains, and
/// HTTP 40x codes; a typical infection has ≥ 2 redirection hops while a
/// typical benign trace has none.
pub(super) fn fig4_header_props(fx: &Fixtures, out: &mut Report) {
    let (inf, ben) = class_means(fx.ground_truth().iter().map(|ep| {
        let wcg = Wcg::from_transactions(&ep.transactions);
        let row = [
            wcg.method_counts.get as f64,
            wcg.method_counts.post as f64,
            wcg.redirects.total as f64,
            wcg.redirects.max_chain as f64,
            wcg.status_class_counts[2] as f64,
            wcg.status_class_counts[3] as f64,
            wcg.status_class_counts[4] as f64,
            wcg.referrer_set as f64,
        ];
        (ep.is_infection(), row)
    }));
    let labels = [
        "GET requests",
        "POST requests",
        "redirect hops",
        "max redirect chain",
        "HTTP 20x",
        "HTTP 30x",
        "HTTP 40x",
        "referrers set",
    ];
    outln!(out, "{:<20} {:>10} {:>10} {:>8}", "Element", "Infection", "Benign", "Ratio");
    for (label, (a, b)) in labels.iter().zip(inf.into_iter().zip(ben)) {
        outln!(
            out, "{label:<20} {a:>10.2} {b:>10.2} {:>8.2}",
            if b.abs() > 1e-12 { a / b } else { f64::NAN }
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn fig6_tx(
    ts: f64,
    host: &str,
    uri: &str,
    method: Method,
    status: u16,
    class: PayloadClass,
    size: usize,
    referer: Option<&str>,
    location: Option<&str>,
) -> HttpTransaction {
    let mut req_headers = HeaderMap::new();
    req_headers.append("Host", host);
    req_headers.append("User-Agent", "Mozilla/4.0 (compatible; MSIE 8.0; Windows NT 6.1)");
    if let Some(r) = referer {
        req_headers.append("Referer", r);
    }
    let mut resp_headers = HeaderMap::new();
    resp_headers.append("Content-Type", "text/html");
    if let Some(l) = location {
        resp_headers.append("Location", l);
    }
    HttpTransaction {
        seq: 0,
        ts,
        resp_ts: ts + 0.08,
        client: Endpoint::new(Ipv4Addr::new(10, 1, 1, 20), 49500),
        server: Endpoint::new(Ipv4Addr::new(185, 14, 28, 6), 80),
        host: host.into(),
        method,
        uri: uri.into(),
        req_headers,
        status,
        resp_headers,
        payload_class: class,
        payload_size: size,
        body_preview: Vec::new(),
        payload_digest: (ts * 1000.0) as u64,
    }
}

/// **Figure 6**: the example Angler WCG captured 12/21/2015 — a
/// bing.com origin, a compromised site A, a landing page B, an exploit
/// server C serving Flash, and post-download POSTs to three C&C IPs
/// serving CryptoWall. The paper's graph has 8 nodes and 31 edges.
///
/// Prints the DOT rendering plus the node/edge/stage accounting.
pub(super) fn fig6_example_wcg(_: &Fixtures, out: &mut Report) {
    // Timestamps relative to 2015-12-21 00:00 UTC.
    let t0 = 1_450_656_000.0;
    use Method::{Get, Post};
    use PayloadClass as P;
    let tx = fig6_tx;
    let g = |d: f64| t0 + d;
    let txs = vec![
        // Pre-download: bing (origin) referred the victim to compromised
        // site A, which bounces through landing B to exploit server C.
        tx(g(0.0), "compromised-a.com", "/blog/entry.html", Get, 302, P::Empty, 0,
            Some("http://www.bing.com/search?q=live+stream"),
            Some("http://landing-b.net/forum/view.php?id=9")),
        tx(g(0.4), "landing-b.net", "/forum/view.php?id=9", Get, 302, P::Empty, 0,
            Some("http://compromised-a.com/blog/entry.html"),
            Some("http://exploit-c.ru/gate.php?k=dGVzdA")),
        tx(g(0.9), "exploit-c.ru", "/gate.php?k=dGVzdA", Get, 200, P::Html, 38_221,
            Some("http://landing-b.net/forum/view.php?id=9"), None),
        // Fingerprinting probes on the exploit server.
        tx(g(1.4), "exploit-c.ru", "/check.js", Get, 200, P::Js, 4_412,
            Some("http://exploit-c.ru/gate.php?k=dGVzdA"), None),
        tx(g(1.8), "exploit-c.ru", "/viewtopic.js", Get, 200, P::Js, 2_007,
            Some("http://exploit-c.ru/gate.php?k=dGVzdA"), None),
        // Download dynamics: Flash exploit payloads.
        tx(g(2.4), "exploit-c.ru", "/media/player.swf", Get, 200, P::Swf, 91_337,
            Some("http://exploit-c.ru/gate.php?k=dGVzdA"), None),
        tx(g(3.1), "exploit-c.ru", "/media/loader.swf", Get, 200, P::Swf, 44_092,
            Some("http://exploit-c.ru/gate.php?k=dGVzdA"), None),
        tx(g(4.0), "exploit-c.ru", "/media/update.exe", Get, 200, P::Exe, 312_448,
            Some("http://exploit-c.ru/gate.php?k=dGVzdA"), None),
        // Stray asset fetches on A and B while the page rendered.
        tx(g(1.1), "compromised-a.com", "/wp-content/theme.css", Get, 200, P::Css, 8_114,
            Some("http://compromised-a.com/blog/entry.html"), None),
        tx(g(1.2), "landing-b.net", "/img/banner.png", Get, 200, P::Image, 17_551,
            Some("http://landing-b.net/forum/view.php?id=9"), None),
        // Post-download: CryptoWall C&C call-backs to hosts D, E, F.
        tx(g(22.0), "103.21.59.9", "/gate.php", Post, 200, P::Text, 52, None, None),
        tx(g(31.5), "91.223.88.14", "/gate.php", Post, 200, P::Text, 44, None, None),
        tx(g(47.2), "185.46.11.30", "/gate.php", Post, 404, P::Empty, 0, None, None),
        tx(g(55.0), "103.21.59.9", "/tasks.php", Post, 200, P::Text, 96, None, None),
    ];

    let wcg = Wcg::from_transactions(&txs);
    outln!(out, "{}", wcg.to_dot("angler_fig6"));
    outln!(
        out, "nodes = {} (paper: 8), edges = {} (paper: 31)",
        wcg.graph.node_count(),
        wcg.graph.edge_count()
    );
    outln!(
        out, "stage transactions: pre-download {}, download {}, post-download {}",
        wcg.stage_counts[0], wcg.stage_counts[1], wcg.stage_counts[2]
    );
    outln!(out, "max redirect chain: {}", wcg.redirects.max_chain);
    let origin = wcg.origin.map(|o| wcg.graph.node(o).name.clone());
    outln!(out, "origin node: {:?} (paper: bing.com)", origin);
    let post_edges =
        wcg.graph.edges().filter(|(_, _, _, e)| e.stage == Stage::PostDownload).count();
    outln!(out, "post-download edges: {post_edges} (paper: POSTs to 3 CryptoWall IPs)");
    out.measure("fig6_example_wcg.nodes", wcg.graph.node_count() as f64);
    out.measure("fig6_example_wcg.edges", wcg.graph.edge_count() as f64);
}

const FIG7_9_MEASURES: [(&str, &str); 3] = [
    ("avg-node-centrality", "Fig. 7: average node connectivity"),
    ("avg-betweenness-centrality", "Fig. 8: average betweenness centrality"),
    ("avg-closeness-centrality", "Fig. 9: average closeness centrality"),
];

fn deciles(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    (0..=10).map(|d| values[((values.len() - 1) * d) / 10]).collect()
}

/// **Figures 7–9**: the distributions of average node connectivity
/// (Fig. 7), average betweenness centrality (Fig. 8), and average
/// closeness centrality (Fig. 9) for benign vs infection WCGs — the
/// figures the paper uses to show the discriminating power of its graph
/// features. Prints per-class decile summaries for each measure.
pub(super) fn fig7_9_distributions(fx: &Fixtures, out: &mut Report) {
    let data = fx.dataset();
    for (name, title) in FIG7_9_MEASURES {
        let col = column(name);
        let of_class = |class: usize| -> Vec<f64> {
            (0..data.len()).filter(|&i| data.label(i) == class).map(|i| data.row(i)[col]).collect()
        };
        let (infection, benign) = (of_class(1), of_class(0));
        outln!(out, "{title}");
        let inf_mean = infection.iter().sum::<f64>() / infection.len() as f64;
        let ben_mean = benign.iter().sum::<f64>() / benign.len() as f64;
        outln!(out, "  mean: infection {inf_mean:.4}  benign {ben_mean:.4}");
        for (label, values) in [("infection", infection), ("benign", benign)] {
            out!(out, "  {label:<10}");
            for x in deciles(values) {
                out!(out, " {x:>7.4}");
            }
            outln!(out);
        }
        outln!(out);
    }
    outln!(out, "(columns are the 0th..100th percentile in steps of 10)");
}

/// The **Sec. III-D global properties** and the **Sec. II-D call-back
/// statistics** of the infection ground truth:
///
/// * 10 nodes on average per infection WCG (min 2, max 404),
/// * 46 edges on average (range 2–1778),
/// * mean lifetime 123 s (range 0.5–4061 s),
/// * 708 of 770 traces (92 %) contain at least one post-download
///   call-back, always to hosts never seen before the download stage,
/// * 92 % of infection WCGs contain at least one post-download edge.
pub(super) fn global_props(fx: &Fixtures, out: &mut Report) {
    let mut nodes = Vec::new();
    let mut edges = Vec::new();
    let mut lifetimes = Vec::new();
    let mut with_callback = 0usize;
    let mut infections = 0usize;
    for ep in fx.ground_truth().iter().filter(|e| e.is_infection()) {
        infections += 1;
        let wcg = Wcg::from_transactions(&ep.transactions);
        nodes.push(wcg.graph.node_count());
        edges.push(wcg.graph.edge_count());
        lifetimes.push(wcg.duration());
        with_callback += usize::from(wcg.has_post_download());
    }
    let summary = |v: &[usize]| {
        (
            v.iter().copied().min().unwrap_or(0),
            v.iter().copied().max().unwrap_or(0),
            v.iter().sum::<usize>() as f64 / v.len().max(1) as f64,
        )
    };
    let (nmin, nmax, navg) = summary(&nodes);
    let (emin, emax, eavg) = summary(&edges);
    let lmin = lifetimes.iter().copied().fold(f64::INFINITY, f64::min);
    let lmax = lifetimes.iter().copied().fold(0.0f64, f64::max);
    let lavg = lifetimes.iter().sum::<f64>() / lifetimes.len().max(1) as f64;
    let callback_share = 100.0 * with_callback as f64 / infections.max(1) as f64;

    outln!(out, "infection WCGs analyzed: {infections}");
    outln!(out, "nodes:    avg {navg:.1} range {nmin}..{nmax}   (paper: avg 10, range 2..404)");
    outln!(out, "edges:    avg {eavg:.1} range {emin}..{emax}   (paper: avg 46, range 2..1778)");
    outln!(
        out,
        "lifetime: avg {lavg:.0}s range {lmin:.1}s..{lmax:.0}s (paper: avg 123s, range 0.5..4061s)"
    );
    outln!(
        out,
        "call-backs: {with_callback}/{infections} = {callback_share:.1}% of infection WCGs have ≥1 \
         post-download edge (paper: 708/770 = 92%)"
    );
    out.measure("global_props.nodes_avg", navg);
    out.measure("global_props.edges_avg", eavg);
    out.measure("global_props.lifetime_avg", lavg);
    out.measure("global_props.callback_share", callback_share);
}
