//! Per-transaction records: what the WCG fold reads of a transaction,
//! made once while the transaction is still hot.
//!
//! A [`TxTable`] holds one fixed-size [`TxRecord`] per transaction plus
//! the strings the records name, each distinct string once in one buffer
//! ([`Strings`]). Every WCG build — the detector's first look, a
//! `NeedsRebuild` replay, the live push and the final verdict sweep —
//! folds records, so none of them reads an `HttpTransaction` again: the
//! headers, the body preview and the redirect mining stay behind at
//! assign time.

use std::net::Ipv4Addr;

use nettrace::http::Method;
use nettrace::payload::PayloadClass;
use nettrace::HttpTransaction;

use super::url_host;

/// Index of a string in a [`Strings`] table.
pub(crate) type StrId = u32;

/// The absent [`StrId`].
const NO_STR: StrId = StrId::MAX;

/// Interned strings: each distinct string once, in one buffer, with a
/// bitmask of roles per string for callers that keep several key sets in
/// one table (the session tracker's match keys). Lookups go through an
/// open-addressed index keyed by a per-process random hash, so no input
/// can make them collide on purpose.
#[derive(Debug, Clone, Default)]
pub(crate) struct Strings {
    text: String,
    /// String `i` spans `text[ends[i - 1]..ends[i]]` (from 0 for `i == 0`).
    ends: Vec<u32>,
    roles: Vec<u8>,
    /// `id + 1` per occupied slot, 0 for a free one; at most half full.
    slots: Vec<u32>,
}

/// Capacities a table's first string reserves, so a short conversation
/// grows each buffer a few times rather than from the minimum up.
const FIRST_TEXT_BYTES: usize = 128;
const FIRST_STRINGS: usize = 16;

fn hash(s: &str) -> usize {
    use std::hash::BuildHasher;
    static KEYS: std::sync::OnceLock<std::collections::hash_map::RandomState> =
        std::sync::OnceLock::new();
    KEYS.get_or_init(Default::default).hash_one(s) as usize
}

impl Strings {
    /// Number of distinct strings; every [`StrId`] is below it.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// The string `id` names.
    pub(crate) fn get(&self, id: StrId) -> &str {
        let i = id as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    /// The slot holding `s`, or the free slot where it would go.
    fn slot(&self, s: &str) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = hash(s) & mask;
        loop {
            match self.slots[at] {
                0 => return at,
                e if self.get(e - 1) == s => return at,
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// The id of `s`, if it is interned.
    pub(crate) fn find(&self, s: &str) -> Option<StrId> {
        if self.slots.is_empty() {
            return None;
        }
        self.slots[self.slot(s)].checked_sub(1)
    }

    /// Whether `s` is interned with `role` among its roles.
    pub(crate) fn has(&self, s: &str, role: u8) -> bool {
        self.find(s)
            .is_some_and(|id| self.roles[id as usize] & role != 0)
    }

    /// Interns `s`, adding `role` to its roles.
    pub(crate) fn intern(&mut self, s: &str, role: u8) -> StrId {
        self.intern_with(role, |buf| buf.push_str(s))
    }

    /// Interns `s` lowercased (ASCII), adding `role` to its roles.
    pub(crate) fn intern_lower(&mut self, s: &str, role: u8) -> StrId {
        self.intern_with(role, |buf| {
            let at = buf.len();
            buf.push_str(s);
            buf[at..].make_ascii_lowercase();
        })
    }

    /// Interns the string `write` appends to the buffer, adding `role` to
    /// its roles. The candidate is written in place, so a string already
    /// held costs no copy beyond the one it is compared from.
    pub(crate) fn intern_with(&mut self, role: u8, write: impl FnOnce(&mut String)) -> StrId {
        if self.text.capacity() == 0 {
            self.text.reserve(FIRST_TEXT_BYTES);
            self.ends.reserve(FIRST_STRINGS);
            self.roles.reserve(FIRST_STRINGS);
        }
        if 2 * (self.len() + 1) > self.slots.len() {
            self.grow_index();
        }
        let start = self.text.len();
        write(&mut self.text);
        let at = self.slot(&self.text[start..]);
        if let Some(id) = self.slots[at].checked_sub(1) {
            self.text.truncate(start);
            self.roles[id as usize] |= role;
            return id;
        }
        let id = StrId::try_from(self.len())
            .ok()
            .filter(|&id| id != NO_STR)
            .expect("fewer than 2^32 - 1 strings per table");
        let end = u32::try_from(self.text.len()).expect("a table's strings fit in 4 GiB");
        self.ends.push(end);
        self.roles.push(role);
        self.slots[at] = id + 1;
        id
    }

    /// Doubles the index and files every string again.
    fn grow_index(&mut self) {
        let size = (2 * self.slots.len()).max(2 * FIRST_STRINGS);
        self.slots.clear();
        self.slots.resize(size, 0);
        for id in 0..self.len() as StrId {
            let at = self.slot(self.get(id));
            self.slots[at] = id + 1;
        }
    }

    /// Adds `role` to the roles of string `id`.
    pub(crate) fn add_role(&mut self, id: StrId, role: u8) {
        self.roles[id as usize] |= role;
    }

    /// How many strings hold `role`.
    pub(crate) fn count_role(&self, role: u8) -> usize {
        self.roles.iter().filter(|&&r| r & role != 0).count()
    }

    /// The strings holding `role`, in lexicographic order.
    pub(crate) fn with_role(&self, role: u8) -> impl Iterator<Item = &str> {
        let mut held: Vec<&str> = (0..self.len() as StrId)
            .filter(|&id| self.roles[id as usize] & role != 0)
            .map(|id| self.get(id))
            .collect();
        held.sort_unstable();
        held.into_iter()
    }

    fn clear(&mut self) {
        self.text.clear();
        self.ends.clear();
        self.roles.clear();
        self.slots.iter_mut().for_each(|e| *e = 0);
    }
}

/// A request method without its token's heap string: the six named
/// methods, or another token by its interned id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MethodId {
    Get,
    Post,
    Head,
    Put,
    Delete,
    Options,
    Other(StrId),
}

/// [`MethodId`]s in a `u32`: the named methods in declaration order, then
/// another token's id past them.
const NAMED_METHODS: [MethodId; 6] = [
    MethodId::Get,
    MethodId::Post,
    MethodId::Head,
    MethodId::Put,
    MethodId::Delete,
    MethodId::Options,
];

/// [`TxRecord::flags`] bits.
const REFERER: u8 = 1;
const DNT: u8 = 2;
const X_FLASH: u8 = 4;
/// The response names a redirect target, parseable or not.
const TARGETS: u8 = 8;
/// [`TxRecord::uri`] is the second URI key form (see [`TxTable::push`]).
const URI_BY_ID: u8 = 16;

/// Exactly what the WCG fold reads of one transaction, in 64 bytes.
/// Hosts and URIs are ids into the owning [`TxTable`]'s strings, so two
/// records compare hosts by id.
#[derive(Debug, Clone)]
pub(crate) struct TxRecord {
    pub(crate) ts: f64,
    pub(crate) resp_ts: f64,
    pub(crate) payload_size: usize,
    pub(crate) client: Ipv4Addr,
    pub(crate) server: Ipv4Addr,
    /// The host, lowercased: the node key.
    pub(crate) host: StrId,
    /// The host as sent: the stage machine compares exploit servers by it.
    pub(crate) kept_host: StrId,
    /// The URI under the lowercased host: equal URIs on two hosts have two
    /// keys, so a node counts its distinct URIs by key.
    uri: StrId,
    /// Lowercased host of the referrer, [`NO_STR`] without one.
    referrer_host: StrId,
    /// Where this record's redirect-target hosts start in
    /// [`TxTable::target_hosts`]; the next record's start ends them.
    targets: u32,
    pub(crate) uri_len: u32,
    method: u32,
    pub(crate) status: u16,
    pub(crate) payload_class: PayloadClass,
    flags: u8,
}

impl TxRecord {
    /// Whether the request carried a (non-empty) `Referer`.
    pub(crate) fn has_referer(&self) -> bool {
        self.flags & REFERER != 0
    }

    /// Whether the request enabled DNT.
    pub(crate) fn dnt(&self) -> bool {
        self.flags & DNT != 0
    }

    /// Whether the request carried `X-Flash-Version`.
    pub(crate) fn x_flash(&self) -> bool {
        self.flags & X_FLASH != 0
    }

    /// A 3xx, or a response that names any redirect target.
    pub(crate) fn is_redirectish(&self) -> bool {
        self.status / 100 == 3 || self.flags & TARGETS != 0
    }

    /// Lowercased host of the referrer URL, when it has one.
    pub(crate) fn referrer_host(&self) -> Option<StrId> {
        (self.referrer_host != NO_STR).then_some(self.referrer_host)
    }

    /// The request method.
    pub(crate) fn method(&self) -> MethodId {
        match NAMED_METHODS.get(self.method as usize) {
            Some(&named) => named,
            None => MethodId::Other(self.method - NAMED_METHODS.len() as u32),
        }
    }

    /// The URI key and its form: one key per (lowercased host, URI) pair
    /// in each form, and no pair in both.
    pub(crate) fn uri_key(&self) -> (StrId, bool) {
        (self.uri, self.flags & URI_BY_ID != 0)
    }

    /// Whether the URI key is also the string `host + uri` as sent, the
    /// tracker's URL match key.
    pub(crate) fn uri_key_is_url(&self) -> bool {
        self.flags & URI_BY_ID == 0 && self.kept_host == self.host
    }
}

/// Records of a sequence of transactions and the strings they name.
#[derive(Debug, Clone, Default)]
pub(crate) struct TxTable {
    pub(crate) records: Vec<TxRecord>,
    pub(crate) strings: Strings,
    /// Every record's redirect-target host ids, back to back.
    target_hosts: Vec<StrId>,
}

impl TxTable {
    /// Appends the record of `tx`, whose redirect targets
    /// (`redirect::targets(tx)`) are `targets`, and returns it.
    ///
    /// The URI key has two forms. When the host holds no `/` and the URI
    /// starts with one, it is the lowercased host followed by the URI,
    /// which the first `/` splits back into the two, and which is the
    /// tracker's URL key as well whenever the host is lowercase already.
    /// Otherwise it is the host id's decimal digits, least significant
    /// first, then `:` and the URI. Either form names one pair, and the
    /// fold tells the forms apart by [`TxRecord::uri_key`]'s flag.
    pub(crate) fn push(&mut self, tx: &HttpTransaction, targets: &[String]) -> &TxRecord {
        let s = &mut self.strings;
        let host = s.intern_lower(&tx.host, 0);
        let kept_host = if tx.host.bytes().any(|b| b.is_ascii_uppercase()) {
            s.intern(&tx.host, 0)
        } else {
            host
        };
        let by_id = tx.host.contains('/') || !tx.uri.starts_with('/');
        let uri = if by_id {
            s.intern_with(0, |buf| {
                let mut rest = host;
                loop {
                    buf.push(char::from(b'0' + (rest % 10) as u8));
                    rest /= 10;
                    if rest == 0 {
                        break;
                    }
                }
                buf.push(':');
                buf.push_str(&tx.uri);
            })
        } else {
            s.intern_with(0, |buf| {
                let at = buf.len();
                buf.push_str(&tx.host);
                buf[at..].make_ascii_lowercase();
                buf.push_str(&tx.uri);
            })
        };
        let referrer_host = tx
            .referer()
            .and_then(url_host)
            .map_or(NO_STR, |h| s.intern_lower(h, 0));
        let method = match &tx.method {
            Method::Get => 0,
            Method::Post => 1,
            Method::Head => 2,
            Method::Put => 3,
            Method::Delete => 4,
            Method::Options => 5,
            Method::Other(token) => {
                let id = s.intern(token, 0);
                id.checked_add(NAMED_METHODS.len() as u32)
                    .expect("a method id fits in 32 bits")
            }
        };
        let first = u32::try_from(self.target_hosts.len()).expect("fewer than 2^32 targets");
        for target in targets {
            if let Some(h) = url_host(target) {
                let id = s.intern_lower(h, 0);
                self.target_hosts.push(id);
            }
        }
        let mut flags = 0;
        for (bit, set) in [
            (REFERER, tx.referer().is_some()),
            (DNT, tx.dnt_enabled()),
            (X_FLASH, tx.x_flash_version().is_some()),
            (TARGETS, !targets.is_empty()),
            (URI_BY_ID, by_id),
        ] {
            if set {
                flags |= bit;
            }
        }
        self.records.push(TxRecord {
            ts: tx.ts,
            resp_ts: tx.resp_ts,
            payload_size: tx.payload_size,
            client: tx.client.addr,
            server: tx.server.addr,
            host,
            kept_host,
            uri,
            referrer_host,
            targets: first,
            // The URI is in the table's text, which holds under 4 GiB.
            uri_len: tx.uri.len() as u32,
            method,
            status: tx.status,
            payload_class: tx.payload_class,
            flags,
        });
        self.records.last().expect("just pushed")
    }

    /// Removes the last record (its strings stay interned).
    pub(crate) fn pop(&mut self) {
        if let Some(rec) = self.records.pop() {
            self.target_hosts.truncate(rec.targets as usize);
        }
    }

    /// The redirect-target host ids of record `i`.
    pub(crate) fn targets_of(&self, i: usize) -> &[StrId] {
        let end = self
            .records
            .get(i + 1)
            .map_or(self.target_hosts.len(), |r| r.targets as usize);
        &self.target_hosts[self.records[i].targets as usize..end]
    }

    /// The method of `rec`, as the edge attribute carries it.
    pub(crate) fn method_of(&self, rec: &TxRecord) -> Method {
        match rec.method() {
            MethodId::Get => Method::Get,
            MethodId::Post => Method::Post,
            MethodId::Head => Method::Head,
            MethodId::Put => Method::Put,
            MethodId::Delete => Method::Delete,
            MethodId::Options => Method::Options,
            MethodId::Other(id) => Method::Other(self.strings.get(id).to_string()),
        }
    }

    /// Empties the table, keeping its buffers.
    pub(crate) fn clear(&mut self) {
        self.records.clear();
        self.strings.clear();
        self.target_hosts.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_intern_once_and_list_by_role_in_order() {
        let mut s = Strings::default();
        let b = s.intern("b.example", 1);
        let a = s.intern_lower("A.Example", 0);
        assert_eq!(s.intern("a.example", 1), a);
        assert_eq!(
            s.intern_with(0, |buf| buf.push_str("b.exa")),
            s.intern("b.exa", 0)
        );
        assert_ne!(s.find("b.exa"), Some(b));
        assert_eq!(s.find("b.example"), Some(b));
        assert_eq!(s.get(a), "a.example");
        assert_eq!(s.len(), 3);
        assert!(s.has("a.example", 1) && !s.has("b.exa", 1) && !s.has("c", 1));
        assert_eq!(
            s.with_role(1).collect::<Vec<_>>(),
            ["a.example", "b.example"]
        );
    }

    #[test]
    fn a_record_is_64_bytes() {
        assert_eq!(std::mem::size_of::<TxRecord>(), 64);
    }

    #[test]
    fn uri_keys_name_one_host_and_uri_pair() {
        use crate::wcg::tests::tx;
        use nettrace::payload::PayloadClass;
        let pairs = [
            ("a.com", "/b/c"),
            ("a.com/b", "/c"),
            ("a.co", "m/b/c"),
            ("A.com", "/b/c"),
        ];
        let mut table = TxTable::default();
        for (host, uri) in pairs {
            table.push(
                &tx(
                    1.0,
                    host,
                    uri,
                    Method::Get,
                    200,
                    PayloadClass::Html,
                    1,
                    None,
                    None,
                ),
                &[],
            );
        }
        let keys: Vec<(StrId, bool)> = table.records.iter().map(TxRecord::uri_key).collect();
        assert_eq!(keys[0], keys[3], "one pair under two spellings of its host");
        let mut distinct = keys[..3].to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 3, "{keys:?}");
    }

    #[test]
    fn uri_ids_are_per_host_and_redirectish_counts_unparseable_targets() {
        use crate::wcg::tests::tx;
        use nettrace::payload::PayloadClass;
        let mut table = TxTable::default();
        let a = tx(
            1.0,
            "A.com",
            "/x",
            Method::Get,
            200,
            PayloadClass::Html,
            1,
            None,
            None,
        );
        let b = tx(
            2.0,
            "b.com",
            "/x",
            Method::Get,
            200,
            PayloadClass::Html,
            1,
            None,
            None,
        );
        let c = tx(
            3.0,
            "a.com",
            "/x",
            Method::Get,
            200,
            PayloadClass::Html,
            1,
            None,
            None,
        );
        table.push(&a, &[]);
        table.push(&b, &["/relative".to_string(), "http://C.com/".to_string()]);
        table.push(&c, &[]);
        let [ra, rb, rc] = [&table.records[0], &table.records[1], &table.records[2]];
        assert_ne!(ra.uri_key(), rb.uri_key());
        assert_eq!(ra.uri_key(), rc.uri_key());
        assert_eq!(ra.host, rc.host);
        assert_ne!(ra.kept_host, rc.kept_host);
        assert!(!ra.uri_key_is_url() && rc.uri_key_is_url());
        assert!(rb.is_redirectish() && !ra.is_redirectish());
        let targets: Vec<&str> = table
            .targets_of(1)
            .iter()
            .map(|&id| table.strings.get(id))
            .collect();
        assert_eq!(targets, ["c.com"]);
        assert!(table.targets_of(0).is_empty() && table.targets_of(2).is_empty());
    }
}
