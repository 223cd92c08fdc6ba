//! Redirect-target mining from responses.
//!
//! Redirection evidence comes in three forms (Sec. II "Challenges in
//! connecting the dots"):
//!
//! 1. `Location` headers on 3xx responses,
//! 2. `<meta http-equiv="refresh" content="0;url=…">` tags in HTML,
//! 3. JavaScript redirects, frequently obfuscated — we decode the common
//!    `atob("…")`-wrapped `window.location` idiom and percent-encoded
//!    literals, the reproduction's stand-in for the paper's "reverse
//!    engineering of obfuscated JavaScript and HTML code".

use std::ops::ControlFlow;

use nettrace::HttpTransaction;

/// Extracts every redirect target URL this transaction's response carries.
pub fn targets(tx: &HttpTransaction) -> Vec<String> {
    let mut out = Vec::new();
    if tx.is_redirect() {
        if let Some(l) = tx.location() {
            out.push(l.to_string());
        }
    }
    // Raw-byte prechecks before paying for UTF-8 conversion. ASCII bytes
    // survive `from_utf8_lossy` unchanged and in order (invalid sequences
    // become the non-ASCII U+FFFD), so a pure-ASCII pattern absent from
    // the raw preview is absent from the converted body too. Most bodies
    // — all binary payloads and nearly all benign HTML — stop here.
    let raw = &tx.body_preview;
    let (might_meta, might_js) = prechecks(raw);
    if might_meta || might_js {
        let body = String::from_utf8_lossy(raw);
        if might_meta {
            if let Some(url) = meta_refresh_target(&body) {
                out.push(url);
            }
        }
        if might_js {
            out.extend(js_targets(&body));
        }
    }
    out
}

/// The needle of a meta-refresh tag, matched ASCII-case-insensitively;
/// byte 4 (`-`) is its caseless anchor.
const META_REFRESH: &[u8] = b"http-equiv=\"refresh\"";
/// The needles of the two JavaScript idioms, matched exactly; their
/// anchors are byte 4 (`(`) and byte 6 (`.`).
const ATOB: &[u8] = b"atob(\"";
const WINDOW_LOCATION: &[u8] = b"window.location";

/// `(might_meta, might_js)`: whether the raw preview holds
/// [`META_REFRESH`], and whether it holds [`ATOB`] or
/// [`WINDOW_LOCATION`]. One pass over the preview finds each needle's
/// anchor byte followed by the needle's next byte; each hit confirms
/// the needle it anchors, and the scan stops once both answers are
/// yes. Equal to three [`find_anchored`] scans on every input.
fn prechecks(raw: &[u8]) -> (bool, bool) {
    let (mut meta, mut js) = (false, false);
    let pairs = [(b'-', b'e'), (b'(', b'"'), (b'.', b'l')];
    nettrace::scan::pair3_each(pairs, raw, |pos| {
        match raw[pos] {
            b'-' => meta = meta || anchored_at(raw, pos, META_REFRESH, 4, true),
            b'(' => js = js || anchored_at(raw, pos, ATOB, 4, false),
            _ => js = js || anchored_at(raw, pos, WINDOW_LOCATION, 6, false),
        }
        if meta && js { ControlFlow::Break(()) } else { ControlFlow::Continue(()) }
    });
    (meta, js)
}

/// Whether `n` occurs in `h` with its byte `anchor` at `h[pos]`.
fn anchored_at(h: &[u8], pos: usize, n: &[u8], anchor: usize, ci: bool) -> bool {
    let Some(start) = pos.checked_sub(anchor) else { return false };
    let window = h.get(start..start + n.len());
    window.is_some_and(|w| if ci { w.eq_ignore_ascii_case(n) } else { w == n })
}

/// Substring search over raw bytes, skipping via a SIMD single-byte scan
/// ([`nettrace::scan::memchr`]) for the needle byte at `anchor` — chosen
/// by the caller as a byte without case variants (`-`, `(`, `.`) so one
/// scan serves the case-insensitive mode too. A windowed compare at every
/// offset is ~20× slower. [`prechecks`] is three of these in one pass.
fn find_anchored(h: &[u8], n: &[u8], anchor: usize, ci: bool) -> Option<usize> {
    debug_assert!(!n[anchor].is_ascii_alphabetic(), "anchor byte must be caseless");
    if h.len() < n.len() {
        return None;
    }
    let last = h.len() - n.len();
    let mut at = anchor;
    loop {
        let pos = nettrace::scan::memchr(n[anchor], h.get(at..)?)? + at;
        let start = pos - anchor; // pos >= at >= anchor
        if start > last {
            return None;
        }
        let w = &h[start..start + n.len()];
        if if ci { w.eq_ignore_ascii_case(n) } else { w == n } {
            return Some(start);
        }
        at = pos + 1;
    }
}

/// ASCII-case-insensitive substring search. Returns a byte offset that is
/// always a char boundary (the needle's first byte is ASCII on a match).
/// Avoids lowercasing the whole haystack.
fn find_ci(haystack: &str, needle: &str) -> Option<usize> {
    let h = haystack.as_bytes();
    let n = needle.as_bytes();
    if n.is_empty() {
        return Some(0);
    }
    match n.iter().position(|b| !b.is_ascii_alphabetic()) {
        Some(a) => find_anchored(h, n, a, true),
        // All-alphabetic needles have no caseless anchor byte; fall back
        // to the generic SIMD case-folding scan.
        None => {
            let lower = n.to_ascii_lowercase();
            nettrace::scan::find_ignore_ascii_case(h, &lower)
        }
    }
}

/// Parses a meta-refresh redirect target out of an HTML body.
pub fn meta_refresh_target(body: &str) -> Option<String> {
    let meta_at = find_ci(body, "http-equiv=\"refresh\"")?;
    let content_at = find_ci(&body[meta_at..], "content=\"")? + meta_at + "content=\"".len();
    let content_end = body[content_at..].find('"')? + content_at;
    let content = &body[content_at..content_end];
    let url_at = find_ci(content, "url=")?;
    let url = content[url_at + 4..].trim();
    if url.is_empty() {
        None
    } else {
        Some(url.to_string())
    }
}

/// Extracts JavaScript redirect targets: plain `window.location = "…"`
/// assignments and base64-obfuscated `atob("…")` arguments that decode to
/// URLs.
pub fn js_targets(body: &str) -> Vec<String> {
    use nettrace::scan;
    let mut out = Vec::new();
    // Match offsets are char boundaries: every needle is ASCII, and a
    // match's first byte equals the needle's, so slicing the str there is
    // sound.
    // Obfuscated: any atob("<base64>") whose decoded form looks like a URL.
    let mut rest = body;
    while let Some(at) = scan::find(rest.as_bytes(), b"atob(\"") {
        let after = &rest[at + 6..];
        if let Some(end) = scan::memchr(b'"', after.as_bytes()) {
            if let Some(decoded) = nettrace::base64::decode(&after[..end]) {
                if let Ok(text) = String::from_utf8(decoded) {
                    if text.starts_with("http://") || text.starts_with("https://") {
                        out.push(text);
                    }
                }
            }
            rest = &after[end..];
        } else {
            break;
        }
    }
    // Plain assignment: window.location = "http://…".
    let mut rest = body;
    while let Some(at) = scan::find(rest.as_bytes(), b"window.location") {
        let after = &rest[at..];
        if let Some(q) = scan::memchr(b'"', after.as_bytes()) {
            let after_q = &after[q + 1..];
            if let Some(end) = scan::memchr(b'"', after_q.as_bytes()) {
                let candidate = &after_q[..end];
                if candidate.starts_with("http://") || candidate.starts_with("https://") {
                    out.push(candidate.to_string());
                }
                rest = &after_q[end..];
                continue;
            }
        }
        rest = &after[15..];
    }
    // A plain assignment to a just-decoded atob variable produces the URL
    // once via the atob branch; dedupe.
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::http::{HeaderMap, Method};
    use nettrace::payload::PayloadClass;
    use nettrace::reassembly::Endpoint;
    use std::net::Ipv4Addr;

    fn tx_with(status: u16, location: Option<&str>, body: &[u8]) -> HttpTransaction {
        let mut resp_headers = HeaderMap::new();
        if let Some(l) = location {
            resp_headers.append("Location", l);
        }
        HttpTransaction {
            seq: 0,
            ts: 0.0,
            resp_ts: 0.1,
            client: Endpoint::new(Ipv4Addr::LOCALHOST, 1),
            server: Endpoint::new(Ipv4Addr::LOCALHOST, 80),
            host: "h.com".into(),
            method: Method::Get,
            uri: "/".into(),
            req_headers: HeaderMap::new(),
            status,
            resp_headers,
            payload_class: PayloadClass::Html,
            payload_size: body.len(),
            body_preview: body.to_vec(),
            payload_digest: 0,
        }
    }

    #[test]
    fn location_header_on_3xx() {
        let tx = tx_with(302, Some("http://next.example/x"), b"");
        assert_eq!(targets(&tx), vec!["http://next.example/x"]);
    }

    #[test]
    fn location_ignored_on_200() {
        let tx = tx_with(200, Some("http://next.example/x"), b"");
        assert!(targets(&tx).is_empty());
    }

    #[test]
    fn meta_refresh_is_parsed() {
        let body = br#"<html><head><meta http-equiv="refresh" content="0;url=http://hop.example/next"></head></html>"#;
        let tx = tx_with(200, None, body);
        assert_eq!(targets(&tx), vec!["http://hop.example/next"]);
    }

    #[test]
    fn obfuscated_atob_redirect_is_decoded() {
        let url = "http://exploit.example/gate?x=1";
        let b64 = nettrace::base64::encode(url.as_bytes());
        let body = format!("<script>var u=atob(\"{b64}\");window.location=u;</script>");
        let tx = tx_with(200, None, body.as_bytes());
        assert_eq!(targets(&tx), vec![url.to_string()]);
    }

    #[test]
    fn plain_window_location_assignment() {
        let body = br#"<script>window.location = "http://plain.example/l";</script>"#;
        let tx = tx_with(200, None, body);
        assert_eq!(targets(&tx), vec!["http://plain.example/l"]);
    }

    #[test]
    fn non_url_atob_is_ignored() {
        let b64 = nettrace::base64::encode(b"just some data");
        let body = format!("<script>var d=atob(\"{b64}\");</script>");
        let tx = tx_with(200, None, body.as_bytes());
        assert!(targets(&tx).is_empty());
    }

    #[test]
    fn malformed_markup_is_ignored() {
        for body in [
            &b"<meta http-equiv=\"refresh\" content=\"0\">"[..],
            b"<script>atob(\"%%%bad%%%\")</script>",
            b"<script>window.location = notaliteral;</script>",
            b"",
        ] {
            let tx = tx_with(200, None, body);
            assert!(targets(&tx).is_empty(), "body {:?}", String::from_utf8_lossy(body));
        }
    }

    /// The one-pass precheck against the three scans it replaced, on
    /// bodies of random bytes and anchor bytes spliced with whole and cut
    /// prefixes of the three needles, in lower, upper or mixed case.
    #[test]
    fn prechecks_equal_three_anchored_scans() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(29);
        let needles = [META_REFRESH, ATOB, WINDOW_LOCATION];
        let mut seen = [[0usize; 2]; 2];
        for _ in 0..100_000 {
            let len = rng.gen_range(0..200);
            let mut body = Vec::with_capacity(len + 20);
            while body.len() < len {
                match rng.gen_range(0..10) {
                    0..=5 => body.push(rng.gen::<u8>()),
                    6 => body.push(b"-(.\""[rng.gen_range(0..4usize)]),
                    _ => {
                        let n = needles[rng.gen_range(0..needles.len())];
                        let cut =
                            if rng.gen_bool(0.5) { n.len() } else { rng.gen_range(0..n.len()) };
                        let case = rng.gen_range(0..3);
                        body.extend(n[..cut].iter().map(|&b| match case {
                            0 => b,
                            1 => b.to_ascii_uppercase(),
                            _ if rng.gen_bool(0.5) => b.to_ascii_uppercase(),
                            _ => b,
                        }));
                    }
                }
            }
            body.truncate(len);
            let meta = find_anchored(&body, META_REFRESH, 4, true).is_some();
            let js = find_anchored(&body, ATOB, 4, false).is_some()
                || find_anchored(&body, WINDOW_LOCATION, 6, false).is_some();
            assert_eq!(prechecks(&body), (meta, js), "body {:?}", String::from_utf8_lossy(&body));
            seen[usize::from(meta)][usize::from(js)] += 1;
        }
        // Every combination of answers is well represented.
        assert!(seen.iter().flatten().all(|&n| n > 5_000), "{seen:?}");
    }

    #[test]
    fn multiple_targets_deduplicated() {
        let url = "http://dup.example/x";
        let b64 = nettrace::base64::encode(url.as_bytes());
        let body = format!(
            "<script>window.location = \"{url}\";var u=atob(\"{b64}\");</script>"
        );
        let tx = tx_with(200, None, body.as_bytes());
        assert_eq!(targets(&tx), vec![url.to_string()]);
    }
}
