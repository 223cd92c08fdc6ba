//! Conversation-stage annotation (Sec. III-C, edge level).
//!
//! Each transaction (and hence each of its edges) is assigned one of three
//! stages following the paper's heuristics:
//!
//! * **pre-download** — GET request/response pairs before any known
//!   exploit payload reached the victim, whose response is a 30x or whose
//!   body carries redirect evidence; the last such response ends the
//!   pre-download stage,
//! * **download** — everything from there through the last successful
//!   exploit-payload delivery ("all the remaining request-response pairs
//!   are assigned to download stage"),
//! * **post-download** — POSTs, after the last exploit download, to hosts
//!   from which no exploit payload was downloaded, answered with 200/40x
//!   (or never answered).

use std::collections::BTreeSet;

use nettrace::http::Method;
use nettrace::HttpTransaction;
use serde::{Deserialize, Serialize};

use super::redirect;

/// The three conversation stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Stage {
    /// Pre-download redirection dynamics (paper value 0).
    PreDownload,
    /// Payload download dynamics (paper value 1).
    Download,
    /// Post-download / C&C dynamics (paper value 2).
    PostDownload,
}

impl Stage {
    /// The paper's numeric encoding (0, 1, 2).
    pub fn index(self) -> usize {
        match self {
            Stage::PreDownload => 0,
            Stage::Download => 1,
            Stage::PostDownload => 2,
        }
    }
}

fn is_redirectish(tx: &HttpTransaction) -> bool {
    tx.is_redirect() || !redirect::targets(tx).is_empty()
}

/// Assigns a stage to each transaction of a time-ordered conversation.
///
/// This is the definition, written from global knowledge of the whole
/// conversation. Production graphs get their stages from
/// [`WcgBuilder`](super::WcgBuilder)'s incremental state machine, which
/// shares no code with this function; it is kept as the oracle the
/// builder's tests compare every prefix against.
pub fn annotate(order: &[&HttpTransaction]) -> Vec<Stage> {
    let n = order.len();
    // Successful exploit-payload downloads and the hosts serving them.
    let exploit_idx: Vec<usize> = (0..n)
        .filter(|&i| {
            order[i].status / 100 == 2 && order[i].payload_class.is_exploit_type()
        })
        .collect();
    let download_hosts: BTreeSet<&str> =
        exploit_idx.iter().map(|&i| order[i].host.as_str()).collect();
    let first_dl = exploit_idx.first().copied();
    let last_dl = exploit_idx.last().copied();

    // End of pre-download: the last redirect-ish GET before the first
    // exploit download (or before everything when no download exists).
    let pre_horizon = first_dl.unwrap_or(n);
    let pre_end = (0..pre_horizon)
        .rev()
        .find(|&i| order[i].method == Method::Get && is_redirectish(order[i]));

    (0..n)
        .map(|i| {
            if let Some(pe) = pre_end {
                if i <= pe && order[i].method == Method::Get {
                    return Stage::PreDownload;
                }
            }
            if let Some(ld) = last_dl {
                if i > ld && is_post_download(order[i], &download_hosts) {
                    return Stage::PostDownload;
                }
            } else if is_post_download(order[i], &download_hosts) {
                // No download observed at all: POSTs to side hosts are
                // still post-download-shaped dynamics.
                return Stage::PostDownload;
            }
            Stage::Download
        })
        .collect()
}

fn is_post_download(tx: &HttpTransaction, download_hosts: &BTreeSet<&str>) -> bool {
    tx.method == Method::Post
        && !download_hosts.contains(tx.host.as_str())
        && (tx.status == 0 || tx.status / 100 == 2 || tx.status / 100 == 4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wcg::tests::tx;
    use nettrace::payload::PayloadClass;

    #[test]
    fn canonical_infection_is_three_staged() {
        let txs = [
            tx(1.0, "a.com", "/r", Method::Get, 302, PayloadClass::Empty, 0, None,
               Some("http://b.com/l")),
            tx(1.2, "b.com", "/l", Method::Get, 302, PayloadClass::Empty, 0, None,
               Some("http://c.com/g")),
            tx(1.4, "c.com", "/g", Method::Get, 200, PayloadClass::Html, 100, None, None),
            tx(1.6, "c.com", "/x.exe", Method::Get, 200, PayloadClass::Exe, 9000, None, None),
            tx(9.0, "1.2.3.4", "/gate", Method::Post, 200, PayloadClass::Text, 4, None, None),
        ];
        let order: Vec<&_> = txs.iter().collect();
        let stages = annotate(&order);
        assert_eq!(
            stages,
            vec![
                Stage::PreDownload,
                Stage::PreDownload,
                Stage::Download,
                Stage::Download,
                Stage::PostDownload
            ]
        );
    }

    #[test]
    fn post_requires_non_download_host() {
        let txs = [
            tx(1.0, "c.com", "/x.exe", Method::Get, 200, PayloadClass::Exe, 9000, None, None),
            tx(2.0, "c.com", "/beacon", Method::Post, 200, PayloadClass::Text, 4, None, None),
            tx(3.0, "other.com", "/beacon", Method::Post, 200, PayloadClass::Text, 4, None, None),
        ];
        let order: Vec<&_> = txs.iter().collect();
        let stages = annotate(&order);
        assert_eq!(stages[1], Stage::Download, "POST to download host stays download");
        assert_eq!(stages[2], Stage::PostDownload);
    }

    #[test]
    fn post_with_server_error_is_not_post_download() {
        let txs = [
            tx(1.0, "c.com", "/x.exe", Method::Get, 200, PayloadClass::Exe, 9000, None, None),
            tx(2.0, "cc.com", "/g", Method::Post, 500, PayloadClass::Empty, 0, None, None),
        ];
        let order: Vec<&_> = txs.iter().collect();
        assert_eq!(annotate(&order)[1], Stage::Download);
    }

    #[test]
    fn benign_browse_is_all_download_stage() {
        let txs = [
            tx(1.0, "site.com", "/", Method::Get, 200, PayloadClass::Html, 100, None, None),
            tx(2.0, "site.com", "/a.js", Method::Get, 200, PayloadClass::Js, 50, None, None),
            tx(3.0, "cdn.com", "/i.png", Method::Get, 200, PayloadClass::Image, 500, None, None),
        ];
        let order: Vec<&_> = txs.iter().collect();
        assert!(annotate(&order).iter().all(|&s| s == Stage::Download));
    }

    #[test]
    fn redirects_after_download_do_not_extend_pre_stage() {
        // Benign ad-click: download first, then a redirect — the redirect
        // must not be classified pre-download.
        let txs = [
            tx(1.0, "m.com", "/f.pdf", Method::Get, 200, PayloadClass::Pdf, 900, None, None),
            tx(2.0, "ad.com", "/click", Method::Get, 302, PayloadClass::Empty, 0, None,
               Some("http://lander.com/")),
            tx(2.5, "lander.com", "/", Method::Get, 200, PayloadClass::Html, 80, None, None),
        ];
        let order: Vec<&_> = txs.iter().collect();
        let stages = annotate(&order);
        assert_eq!(stages[1], Stage::Download);
        assert_eq!(stages[2], Stage::Download);
    }

    #[test]
    fn unanswered_posts_count_as_post_download() {
        let txs = [
            tx(1.0, "c.com", "/x.jar", Method::Get, 200, PayloadClass::Jar, 900, None, None),
            tx(5.0, "9.9.9.9", "/g", Method::Post, 0, PayloadClass::Empty, 0, None, None),
        ];
        let order: Vec<&_> = txs.iter().collect();
        assert_eq!(annotate(&order)[1], Stage::PostDownload);
    }

    #[test]
    fn empty_conversation() {
        assert!(annotate(&[]).is_empty());
    }

    #[test]
    fn stage_indices_match_paper_encoding() {
        assert_eq!(Stage::PreDownload.index(), 0);
        assert_eq!(Stage::Download.index(), 1);
        assert_eq!(Stage::PostDownload.index(), 2);
    }
}
