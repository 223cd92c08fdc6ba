//! Incremental HTTP/1.x message parsing.
//!
//! The parsers here operate on reassembled byte streams and follow the
//! "return `None` until enough bytes have arrived" convention so they can be
//! driven both offline (whole capture in memory) and on-the-wire
//! (segment-by-segment).

use serde::{Deserialize, Serialize};

use crate::{Error, Result};

#[cfg(test)]
mod reference;

/// Maximum accepted head (start line + headers) size. Real servers use
/// similar limits; anything larger is treated as a syntax error.
pub const MAX_HEAD_LEN: usize = 64 * 1024;

/// An HTTP request method.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    /// `GET`
    Get,
    /// `POST`
    Post,
    /// `HEAD`
    Head,
    /// `PUT`
    Put,
    /// `DELETE`
    Delete,
    /// `OPTIONS`
    Options,
    /// Any other token (e.g. `PATCH`, `CONNECT`).
    Other(String),
}

impl Method {
    /// Parses a method token.
    pub(crate) fn from_token(tok: &str) -> Method {
        match tok {
            "GET" => Method::Get,
            "POST" => Method::Post,
            "HEAD" => Method::Head,
            "PUT" => Method::Put,
            "DELETE" => Method::Delete,
            "OPTIONS" => Method::Options,
            other => Method::Other(other.to_string()),
        }
    }

    /// The canonical token for this method.
    pub fn as_str(&self) -> &str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Head => "HEAD",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
            Method::Options => "OPTIONS",
            Method::Other(s) => s,
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The hot header names interned to dense ids at parse time. Every name
/// the extractor, decode gate, redirect miner, or feature layer looks up
/// on the per-transaction path is here; the long tail falls back to the
/// linear case-insensitive scan.
const HOT_HEADERS: [&str; 12] = [
    "Host",
    "Content-Length",
    "Content-Type",
    "Content-Encoding",
    "Transfer-Encoding",
    "Location",
    "Referer",
    "User-Agent",
    "Cookie",
    "Connection",
    "DNT",
    "X-Flash-Version",
];

/// Sentinel id for names outside [`HOT_HEADERS`].
const COLD_HEADER: u8 = u8::MAX;

/// Interns a header name: `(length, lowercased first byte)` is a perfect
/// hash over [`HOT_HEADERS`] (every pair is unique), so the lookup is one
/// match plus at most one case-insensitive confirmation.
fn hot_id(name: &str) -> u8 {
    let bytes = name.as_bytes();
    let Some(&first) = bytes.first() else { return COLD_HEADER };
    let id: u8 = match (bytes.len(), first | 0x20) {
        (4, b'h') => 0,   // Host
        (14, b'c') => 1,  // Content-Length
        (12, b'c') => 2,  // Content-Type
        (16, b'c') => 3,  // Content-Encoding
        (17, b't') => 4,  // Transfer-Encoding
        (8, b'l') => 5,   // Location
        (7, b'r') => 6,   // Referer
        (10, b'u') => 7,  // User-Agent
        (6, b'c') => 8,   // Cookie
        (10, b'c') => 9,  // Connection
        (3, b'd') => 10,  // DNT
        (15, b'x') => 11, // X-Flash-Version
        _ => return COLD_HEADER,
    };
    if name.eq_ignore_ascii_case(HOT_HEADERS[id as usize]) {
        id
    } else {
        COLD_HEADER
    }
}

/// One header line of a [`HeaderMap`]: byte offsets into its `text`.
/// The name is `text[name..value]` and the value `text[value..end]`.
#[derive(Clone, Copy)]
struct Entry {
    name: u32,
    value: u32,
    end: u32,
    /// `hot_id` of the name.
    id: u8,
}

/// An ordered, case-insensitive multimap of HTTP headers.
///
/// Every name and value sits back to back in one `text` buffer, and
/// each line is an `Entry` of offsets into it, so a map costs two
/// heap blocks however many headers it holds. Hot header names (see
/// `HOT_HEADERS`) are interned to dense ids when a header is inserted,
/// so [`HeaderMap::get`]/[`HeaderMap::set`] on those names compare one
/// byte per entry instead of running `eq_ignore_ascii_case` over every
/// stored name. Lookups of other names fall back to the scan,
/// restricted to the non-interned entries (a case-insensitive match
/// implies an identical id).
#[derive(Clone, Default)]
pub struct HeaderMap {
    text: String,
    entries: Vec<Entry>,
}

/// A `text` offset as stored in an [`Entry`].
fn offset(at: usize) -> u32 {
    u32::try_from(at).expect("header text exceeds 4 GiB")
}

impl HeaderMap {
    /// Creates an empty header map.
    pub fn new() -> Self {
        HeaderMap::default()
    }

    fn name_of(&self, e: &Entry) -> &str {
        &self.text[e.name as usize..e.value as usize]
    }

    fn value_of(&self, e: &Entry) -> &str {
        &self.text[e.value as usize..e.end as usize]
    }

    fn push(&mut self, name: &str, value: &str) {
        let start = self.text.len();
        self.text.push_str(name);
        self.text.push_str(value);
        self.entries.push(Entry {
            name: offset(start),
            value: offset(start + name.len()),
            end: offset(self.text.len()),
            id: hot_id(name),
        });
    }

    /// Index of the first entry named `name`, compared case-insensitively.
    fn position(&self, name: &str) -> Option<usize> {
        let id = hot_id(name);
        if id != COLD_HEADER {
            self.entries.iter().position(|e| e.id == id)
        } else {
            self.entries
                .iter()
                .position(|e| e.id == COLD_HEADER && self.name_of(e).eq_ignore_ascii_case(name))
        }
    }

    /// Appends a header, preserving insertion order.
    pub fn append(&mut self, name: impl AsRef<str>, value: impl AsRef<str>) {
        self.push(name.as_ref(), value.as_ref());
    }

    /// First value for `name`, compared case-insensitively.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.position(name).map(|i| self.value_of(&self.entries[i]))
    }

    /// Whether a header with `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.position(name).is_some()
    }

    /// Replaces the first header named `name` (case-insensitively) in
    /// place, or appends it when absent. Later duplicates are left
    /// untouched — rewriting tools want to update the value a reader
    /// would observe via [`HeaderMap::get`] without reshuffling order.
    pub fn set(&mut self, name: impl AsRef<str>, value: impl AsRef<str>) {
        let (name, value) = (name.as_ref(), value.as_ref());
        let Some(i) = self.position(name) else {
            self.push(name, value);
            return;
        };
        let e = self.entries[i];
        self.text.replace_range(e.value as usize..e.end as usize, value);
        // Every offset from the old value's end on moves by the change
        // in length (none of them is below the old value's length).
        let moved = |at: u32| offset(at as usize + value.len() - (e.end - e.value) as usize);
        self.entries[i].end = moved(e.end);
        for later in &mut self.entries[i + 1..] {
            later.name = moved(later.name);
            later.value = moved(later.value);
            later.end = moved(later.end);
        }
    }

    /// Removes every header named `name` (case-insensitively), returning
    /// whether anything was removed. Order of the surviving entries is
    /// preserved.
    pub fn remove(&mut self, name: &str) -> bool {
        let id = hot_id(name);
        let before = self.entries.len();
        let text = &mut self.text;
        // Bytes cut from `text` so far; every later offset moves down by it.
        let mut cut = 0u32;
        self.entries.retain_mut(|e| {
            let (start, value, end) = (e.name - cut, e.value - cut, e.end - cut);
            let hit = if id != COLD_HEADER {
                e.id == id
            } else {
                e.id == COLD_HEADER
                    && text[start as usize..value as usize].eq_ignore_ascii_case(name)
            };
            if hit {
                text.replace_range(start as usize..end as usize, "");
                cut += end - start;
            } else {
                *e = Entry { name: start, value, end, id: e.id };
            }
            !hit
        });
        self.entries.len() != before
    }

    /// Number of header lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map holds no headers.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|e| (self.name_of(e), self.value_of(e)))
    }
}

impl PartialEq for HeaderMap {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for HeaderMap {}

// Prints exactly what `#[derive(Debug)]` printed over the two-vector
// layout (`HeaderMap { entries: [(name, value), …], ids: […] }`): the
// fault-injection goldens hash the `Debug` rendering of transactions.
impl std::fmt::Debug for HeaderMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        struct Pairs<'a>(&'a HeaderMap);
        impl std::fmt::Debug for Pairs<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_list().entries(self.0.iter()).finish()
            }
        }
        struct Ids<'a>(&'a [Entry]);
        impl std::fmt::Debug for Ids<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_list().entries(self.0.iter().map(|e| e.id)).finish()
            }
        }
        f.debug_struct("HeaderMap")
            .field("entries", &Pairs(self))
            .field("ids", &Ids(&self.entries))
            .finish()
    }
}

impl FromIterator<(String, String)> for HeaderMap {
    fn from_iter<T: IntoIterator<Item = (String, String)>>(iter: T) -> Self {
        let mut map = HeaderMap::new();
        map.extend(iter);
        map
    }
}

impl Extend<(String, String)> for HeaderMap {
    fn extend<T: IntoIterator<Item = (String, String)>>(&mut self, iter: T) {
        for (name, value) in iter {
            self.push(&name, &value);
        }
    }
}

// Manual serde impls: the wire format is what the derive produced over
// `entries: Vec<(String, String)>` (`{"entries": [[name, value], …]}`);
// the offsets and interning ids are rebuilt from the pairs on
// deserialize, never serialized.
impl Serialize for HeaderMap {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> std::result::Result<S::Ok, S::Error> {
        let pair = |(n, v): (&str, &str)| {
            serde::Value::Array(vec![
                serde::Value::String(n.to_string()),
                serde::Value::String(v.to_string()),
            ])
        };
        let entries = serde::Value::Array(self.iter().map(pair).collect());
        serializer.serialize_value(serde::Value::Object(vec![("entries".to_string(), entries)]))
    }
}

impl<'de> Deserialize<'de> for HeaderMap {
    fn deserialize<D: serde::Deserializer<'de>>(
        deserializer: D,
    ) -> std::result::Result<Self, D::Error> {
        let value = serde::Deserializer::deserialize_value(deserializer)?;
        match value {
            serde::Value::Object(mut fields) => {
                let entries: Vec<(String, String)> =
                    match serde::__private::take_field(&mut fields, "entries") {
                        Some(v) => {
                            serde::from_value(v).map_err(<D::Error as serde::de::Error>::custom)?
                        }
                        None => return Err(<D::Error as serde::de::Error>::missing_field("entries")),
                    };
                Ok(entries.into_iter().collect())
            }
            other => Err(<D::Error as serde::de::Error>::custom(format_args!(
                "expected object for struct HeaderMap, found {other:?}"
            ))),
        }
    }
}

/// A parsed request head (start line + headers, no body).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestHead {
    /// Request method.
    pub method: Method,
    /// Request target (URI as sent).
    pub uri: String,
    /// Protocol version, e.g. `"HTTP/1.1"`.
    pub version: String,
    /// Request headers.
    pub headers: HeaderMap,
}

/// A parsed response head (status line + headers, no body).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResponseHead {
    /// Protocol version, e.g. `"HTTP/1.1"`.
    pub version: String,
    /// Numeric status code.
    pub status: u16,
    /// Reason phrase (may be empty).
    pub reason: String,
    /// Response headers.
    pub headers: HeaderMap,
}

/// How a message body is framed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BodyFraming {
    /// No body (e.g. GET request, 204/304 response, HEAD response).
    None,
    /// Exactly this many bytes follow.
    Length(usize),
    /// `Transfer-Encoding: chunked`.
    Chunked,
    /// Body runs until the connection closes.
    UntilClose,
}

/// Finds the end of a message head: the index one past the blank line.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    crate::scan::find_head_end(buf)
}

/// Parses the CRLF-separated header lines after a start line into a map
/// of exactly two heap blocks: one pass counts the lines and reserves
/// both, the second pushes each trimmed name and value as slices.
fn parse_headers(lines: &str) -> Result<HeaderMap> {
    if lines.is_empty() {
        return Ok(HeaderMap::new());
    }
    let mut count = 1;
    let mut at = 0;
    while let Some(p) = crate::scan::find_crlf(&lines.as_bytes()[at..]) {
        count += 1;
        at += p + 2;
    }
    // Each line but the last gives up its CRLF and each its colon.
    let mut headers = HeaderMap {
        text: String::with_capacity(lines.len().saturating_sub(3 * count - 2)),
        entries: Vec::with_capacity(count),
    };
    let mut rest = lines;
    loop {
        let (line, next) = match crate::scan::find_crlf(rest.as_bytes()) {
            Some(p) => (&rest[..p], Some(&rest[p + 2..])),
            None => (rest, None),
        };
        if !line.is_empty() {
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| Error::HttpSyntax(format!("header line without colon: {line:?}")))?;
            headers.push(name.trim(), value.trim());
        }
        match next {
            Some(next) => rest = next,
            None => return Ok(headers),
        }
    }
}

/// Attempts to parse a request head from the front of `buf`.
///
/// Returns `Ok(None)` when more bytes are needed, or `Ok(Some((head,
/// consumed)))` on success.
///
/// # Errors
///
/// Returns [`Error::HttpSyntax`] on malformed start lines or headers, or
/// when the head exceeds [`MAX_HEAD_LEN`].
pub fn parse_request_head(buf: &[u8]) -> Result<Option<(RequestHead, usize)>> {
    let end = match find_head_end(buf) {
        Some(e) => e,
        None if buf.len() > MAX_HEAD_LEN => {
            return Err(Error::HttpSyntax("request head exceeds maximum length".into()))
        }
        None => return Ok(None),
    };
    let head = std::str::from_utf8(&buf[..end - 4])
        .map_err(|_| Error::HttpSyntax("request head is not utf-8".into()))?;
    let (start_line, rest) = head.split_once("\r\n").unwrap_or((head, ""));
    let mut parts = start_line.splitn(3, ' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| Error::HttpSyntax("empty request line".into()))?;
    let uri = parts
        .next()
        .ok_or_else(|| Error::HttpSyntax(format!("request line missing uri: {start_line:?}")))?;
    let version = parts.next().unwrap_or("HTTP/1.0");
    if !version.starts_with("HTTP/") {
        return Err(Error::HttpSyntax(format!("bad http version: {version:?}")));
    }
    Ok(Some((
        RequestHead {
            method: Method::from_token(method),
            uri: uri.to_string(),
            version: version.to_string(),
            headers: parse_headers(rest)?,
        },
        end,
    )))
}

/// Attempts to parse a response head from the front of `buf`.
///
/// Returns `Ok(None)` when more bytes are needed.
///
/// # Errors
///
/// Returns [`Error::HttpSyntax`] on malformed status lines or headers, or
/// when the head exceeds [`MAX_HEAD_LEN`].
pub fn parse_response_head(buf: &[u8]) -> Result<Option<(ResponseHead, usize)>> {
    let end = match find_head_end(buf) {
        Some(e) => e,
        None if buf.len() > MAX_HEAD_LEN => {
            return Err(Error::HttpSyntax("response head exceeds maximum length".into()))
        }
        None => return Ok(None),
    };
    let head = std::str::from_utf8(&buf[..end - 4])
        .map_err(|_| Error::HttpSyntax("response head is not utf-8".into()))?;
    let (status_line, rest) = head.split_once("\r\n").unwrap_or((head, ""));
    let mut parts = status_line.splitn(3, ' ');
    let version = parts
        .next()
        .filter(|v| v.starts_with("HTTP/"))
        .ok_or_else(|| Error::HttpSyntax(format!("bad status line: {status_line:?}")))?;
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| Error::HttpSyntax(format!("bad status code in: {status_line:?}")))?;
    let reason = parts.next().unwrap_or("").to_string();
    Ok(Some((
        ResponseHead {
            version: version.to_string(),
            status,
            reason,
            headers: parse_headers(rest)?,
        },
        end,
    )))
}

/// Allocation-free ASCII case-insensitive substring test, equivalent to
/// `haystack.to_ascii_lowercase().contains(needle)` for an already-lowercase
/// non-empty needle. Runs once per parsed message head, so the lowercase
/// copy it replaces was a per-response allocation on the decode gate.
fn contains_ignore_ascii_case(haystack: &str, needle: &str) -> bool {
    debug_assert!(!needle.is_empty());
    haystack.as_bytes().windows(needle.len()).any(|w| w.eq_ignore_ascii_case(needle.as_bytes()))
}

/// How a body is framed by its headers: chunked, else `Content-Length`,
/// else `otherwise`.
fn framing_by_headers(headers: &HeaderMap, otherwise: BodyFraming) -> BodyFraming {
    if headers.get("Transfer-Encoding").is_some_and(|v| contains_ignore_ascii_case(v, "chunked")) {
        return BodyFraming::Chunked;
    }
    headers.get("Content-Length").and_then(|v| v.parse().ok()).map_or(otherwise, BodyFraming::Length)
}

/// Determines how the body after a request head is framed.
pub(crate) fn request_body_framing(head: &RequestHead) -> BodyFraming {
    framing_by_headers(&head.headers, BodyFraming::None)
}

/// Determines how the body after a response head is framed, given the method
/// of the request it answers.
pub(crate) fn response_body_framing(head: &ResponseHead, request_method: &Method) -> BodyFraming {
    if *request_method == Method::Head
        || head.status / 100 == 1
        || head.status == 204
        || head.status == 304
    {
        return BodyFraming::None;
    }
    framing_by_headers(&head.headers, BodyFraming::UntilClose)
}

/// Attempts to decode a chunked body from the front of `buf`.
///
/// Returns `Ok(None)` when the terminating zero-chunk has not arrived yet,
/// or `Ok(Some((body, consumed)))` once complete. Trailer headers are
/// consumed but discarded.
///
/// # Errors
///
/// Returns [`Error::HttpSyntax`] when a chunk-size line is malformed.
pub fn decode_chunked(buf: &[u8]) -> Result<Option<(Vec<u8>, usize)>> {
    let mut body = Vec::new();
    let mut pos = 0usize;
    loop {
        let line_end = match crate::scan::find_crlf(&buf[pos..]) {
            Some(e) => pos + e,
            None => return Ok(None),
        };
        let size_str = std::str::from_utf8(&buf[pos..line_end])
            .map_err(|_| Error::HttpSyntax("chunk size line is not utf-8".into()))?;
        let size_str = size_str.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_str, 16)
            .map_err(|_| Error::HttpSyntax(format!("bad chunk size: {size_str:?}")))?;
        pos = line_end + 2;
        if size == 0 {
            // Trailers: consume until blank line.
            loop {
                let t_end = match crate::scan::find_crlf(&buf[pos..]) {
                    Some(e) => pos + e,
                    None => return Ok(None),
                };
                let empty = t_end == pos;
                pos = t_end + 2;
                if empty {
                    return Ok(Some((body, pos)));
                }
            }
        }
        if buf.len() < pos + size + 2 {
            return Ok(None);
        }
        body.extend_from_slice(&buf[pos..pos + size]);
        if &buf[pos + size..pos + size + 2] != b"\r\n" {
            return Err(Error::HttpSyntax("chunk data not terminated by crlf".into()));
        }
        pos += size + 2;
    }
}

/// Encodes `body` using chunked transfer-encoding with a single chunk.
pub fn encode_chunked(body: &[u8]) -> Vec<u8> {
    if body.is_empty() {
        return b"0\r\n\r\n".to_vec();
    }
    let mut out = format!("{:x}\r\n", body.len()).into_bytes();
    out.extend_from_slice(body);
    out.extend_from_slice(b"\r\n0\r\n\r\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_map_is_case_insensitive_and_ordered() {
        let mut h = HeaderMap::new();
        h.append("Host", "a.example");
        h.append("X-Test", "1");
        h.append("x-test", "2");
        assert_eq!(h.get("host"), Some("a.example"));
        assert_eq!(h.get("X-TEST"), Some("1")); // first match wins
        assert_eq!(h.len(), 3);
        let names: Vec<_> = h.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["Host", "X-Test", "x-test"]);
    }

    #[test]
    fn header_map_remove_deletes_all_matches() {
        let mut h = HeaderMap::new();
        h.append("Host", "a.example");
        h.append("X-Replay-Ts", "1.5");
        h.append("Cookie", "sid=1");
        h.append("x-replay-ts", "2.5");
        assert!(h.remove("X-REPLAY-TS"), "case-insensitive removal");
        assert!(!h.remove("X-Replay-Ts"), "already gone");
        assert_eq!(h.len(), 2);
        let names: Vec<_> = h.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["Host", "Cookie"], "survivor order preserved");
        // Hot (interned) names go through the id fast path.
        assert!(h.remove("cookie"));
        assert_eq!(h.get("Cookie"), None);
        assert_eq!(h.get("Host"), Some("a.example"));
    }

    #[test]
    fn parses_request_head() {
        let raw = b"GET /index.html?q=1 HTTP/1.1\r\nHost: example.com\r\nReferer: http://bing.com/\r\n\r\nBODY";
        let (head, consumed) = parse_request_head(raw).unwrap().unwrap();
        assert_eq!(head.method, Method::Get);
        assert_eq!(head.uri, "/index.html?q=1");
        assert_eq!(head.version, "HTTP/1.1");
        assert_eq!(head.headers.get("host"), Some("example.com"));
        assert_eq!(consumed, raw.len() - 4);
    }

    #[test]
    fn incomplete_head_returns_none() {
        assert!(parse_request_head(b"GET / HTTP/1.1\r\nHost: x").unwrap().is_none());
        assert!(parse_response_head(b"HTTP/1.1 200 OK\r\n").unwrap().is_none());
    }

    #[test]
    fn malformed_request_line_is_error() {
        assert!(parse_request_head(b"NONSENSE\r\n\r\n").is_err());
        assert!(parse_request_head(b"GET / FTP/1.1\r\n\r\n").is_err());
    }

    #[test]
    fn parses_response_head() {
        let raw = b"HTTP/1.1 302 Found\r\nLocation: http://evil.example/gate\r\n\r\n";
        let (head, consumed) = parse_response_head(raw).unwrap().unwrap();
        assert_eq!(head.status, 302);
        assert_eq!(head.reason, "Found");
        assert_eq!(head.headers.get("location"), Some("http://evil.example/gate"));
        assert_eq!(consumed, raw.len());
    }

    #[test]
    fn response_missing_reason_is_accepted() {
        let (head, _) = parse_response_head(b"HTTP/1.1 200\r\n\r\n").unwrap().unwrap();
        assert_eq!(head.status, 200);
        assert_eq!(head.reason, "");
    }

    #[test]
    fn request_framing_rules() {
        let mk = |extra: &str| {
            let raw = format!("POST / HTTP/1.1\r\nHost: x\r\n{extra}\r\n");
            parse_request_head(raw.as_bytes()).unwrap().unwrap().0
        };
        assert_eq!(request_body_framing(&mk("")), BodyFraming::None);
        assert_eq!(request_body_framing(&mk("Content-Length: 10\r\n")), BodyFraming::Length(10));
        // An empty declared body frames like no body (zero bytes taken).
        assert_eq!(request_body_framing(&mk("Content-Length: 0\r\n")), BodyFraming::Length(0));
        assert_eq!(
            request_body_framing(&mk("Transfer-Encoding: chunked\r\n")),
            BodyFraming::Chunked
        );
    }

    #[test]
    fn response_framing_rules() {
        let mk = |status: u16, extra: &str| {
            let raw = format!("HTTP/1.1 {status} X\r\n{extra}\r\n");
            parse_response_head(raw.as_bytes()).unwrap().unwrap().0
        };
        assert_eq!(
            response_body_framing(&mk(200, "Content-Length: 5\r\n"), &Method::Get),
            BodyFraming::Length(5)
        );
        assert_eq!(response_body_framing(&mk(204, ""), &Method::Get), BodyFraming::None);
        assert_eq!(response_body_framing(&mk(304, ""), &Method::Get), BodyFraming::None);
        assert_eq!(
            response_body_framing(&mk(200, "Content-Length: 5\r\n"), &Method::Head),
            BodyFraming::None
        );
        assert_eq!(response_body_framing(&mk(200, ""), &Method::Get), BodyFraming::UntilClose);
        assert_eq!(
            response_body_framing(&mk(200, "Transfer-Encoding: chunked\r\n"), &Method::Get),
            BodyFraming::Chunked
        );
    }

    #[test]
    fn chunked_roundtrip() {
        let body = b"hello chunked world".to_vec();
        let encoded = encode_chunked(&body);
        let (decoded, consumed) = decode_chunked(&encoded).unwrap().unwrap();
        assert_eq!(decoded, body);
        assert_eq!(consumed, encoded.len());
    }

    #[test]
    fn chunked_multi_chunk() {
        let raw = b"3\r\nabc\r\n4\r\ndefg\r\n0\r\n\r\n";
        let (decoded, consumed) = decode_chunked(raw).unwrap().unwrap();
        assert_eq!(decoded, b"abcdefg");
        assert_eq!(consumed, raw.len());
    }

    #[test]
    fn chunked_with_extension_and_trailers() {
        let raw = b"3;ext=1\r\nabc\r\n0\r\nX-Trailer: v\r\n\r\n";
        let (decoded, consumed) = decode_chunked(raw).unwrap().unwrap();
        assert_eq!(decoded, b"abc");
        assert_eq!(consumed, raw.len());
    }

    #[test]
    fn chunked_incomplete_returns_none() {
        assert!(decode_chunked(b"3\r\nab").unwrap().is_none());
        assert!(decode_chunked(b"3\r\nabc\r\n").unwrap().is_none());
        assert!(decode_chunked(b"").unwrap().is_none());
    }

    #[test]
    fn chunked_bad_size_is_error() {
        assert!(decode_chunked(b"zz\r\nabc\r\n").is_err());
    }

    #[test]
    fn empty_body_chunked_roundtrip() {
        let encoded = encode_chunked(b"");
        let (decoded, consumed) = decode_chunked(&encoded).unwrap().unwrap();
        assert!(decoded.is_empty());
        assert_eq!(consumed, encoded.len());
    }

    #[test]
    fn method_token_roundtrip() {
        for tok in ["GET", "POST", "HEAD", "PUT", "DELETE", "OPTIONS", "PATCH"] {
            assert_eq!(Method::from_token(tok).as_str(), tok);
        }
    }

    #[test]
    fn hot_header_interning_is_a_perfect_hash() {
        // Every hot name maps to its own id in any case; near-misses with
        // the same (length, first byte) signature stay cold.
        for (i, name) in HOT_HEADERS.iter().enumerate() {
            assert_eq!(hot_id(name), i as u8, "{name}");
            assert_eq!(hot_id(&name.to_ascii_uppercase()), i as u8);
            assert_eq!(hot_id(&name.to_ascii_lowercase()), i as u8);
        }
        for cold in ["Host-", "Hast", "Content-Lengtt", "Xonnection", "X-Request-Id", ""] {
            assert_eq!(hot_id(cold), COLD_HEADER, "{cold}");
        }
        // The (len, first-byte) signatures must be pairwise distinct or
        // the match above would shadow an entry.
        let sigs: Vec<_> =
            HOT_HEADERS.iter().map(|n| (n.len(), n.as_bytes()[0] | 0x20)).collect();
        for i in 0..sigs.len() {
            for j in i + 1..sigs.len() {
                assert_ne!(sigs[i], sigs[j], "{} vs {}", HOT_HEADERS[i], HOT_HEADERS[j]);
            }
        }
    }

    #[test]
    fn interned_lookups_match_scan_semantics() {
        let mut h = HeaderMap::new();
        h.append("content-type", "text/html");
        h.append("X-Custom", "a");
        h.append("Content-Type", "application/pdf");
        h.append("x-custom", "b");
        // Hot name: first entry in insertion order wins, any query case.
        assert_eq!(h.get("Content-Type"), Some("text/html"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("text/html"));
        // Cold name: same rule via the fallback scan.
        assert_eq!(h.get("X-CUSTOM"), Some("a"));
        assert_eq!(h.get("Absent"), None);
        // set() replaces the first match in place for both classes.
        h.set("CONTENT-TYPE", "image/gif");
        assert_eq!(h.get("content-type"), Some("image/gif"));
        assert_eq!(h.iter().filter(|(n, _)| n.eq_ignore_ascii_case("content-type")).count(), 2);
        h.set("X-Custom", "c");
        assert_eq!(h.get("x-custom"), Some("c"));
        h.set("New-Name", "v");
        assert_eq!(h.get("new-name"), Some("v"));
        assert_eq!(h.len(), 5);
    }

    #[test]
    fn header_map_debug_text_is_pinned() {
        // The fault-injection goldens hash this rendering of every
        // transaction: it is the old two-vector derive's, ids included.
        let mut h = HeaderMap::new();
        h.append("Host", "a.example");
        h.append("X-Note", "say \"hi\" é");
        h.set("host", "b.example");
        assert_eq!(
            format!("{h:?}"),
            r#"HeaderMap { entries: [("Host", "b.example"), ("X-Note", "say \"hi\" é")], ids: [0, 255] }"#
        );
        assert_eq!(format!("{:?}", HeaderMap::new()), "HeaderMap { entries: [], ids: [] }");
    }

    #[test]
    fn header_map_serde_format_is_entries_only() {
        // The interning ids must never leak into the wire format: the
        // serialized shape is exactly the pre-interning derive's.
        let mut h = HeaderMap::new();
        h.append("Host", "x.example");
        h.append("X-Cold", "1");
        let v = serde::to_value(&h).unwrap();
        match &v {
            serde::Value::Object(fields) => {
                assert_eq!(fields.len(), 1);
                assert_eq!(fields[0].0, "entries");
            }
            other => panic!("expected object, got {other:?}"),
        }
        let back: HeaderMap = serde::from_value(v).unwrap();
        assert_eq!(back, h);
        // Interning survives the round trip (fast path finds the entry).
        assert_eq!(back.get("HOST"), Some("x.example"));
        assert_eq!(back.get("x-cold"), Some("1"));
    }
}
