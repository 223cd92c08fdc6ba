//! The two-vector `HeaderMap` the one-buffer map replaced, kept as the
//! test oracle: every name and value is its own `String`, and the hot
//! ids sit in a parallel vector. The differential test below drives
//! both maps with the same calls and requires every observable to agree
//! after every step: lookups, order, the serde form and the `Debug`
//! text the fault-injection goldens hash.

use serde::Serialize;

use super::{hot_id, COLD_HEADER};

/// The old layout, field for field, so `#[derive(Debug)]` prints what
/// the goldens were hashed from.
#[derive(Debug, Clone, Default)]
pub(super) struct HeaderMap {
    entries: Vec<(String, String)>,
    /// Parallel to `entries`: `hot_id` of each entry's name.
    ids: Vec<u8>,
}

impl HeaderMap {
    pub(super) fn append(&mut self, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        self.ids.push(hot_id(&name));
        self.entries.push((name, value.into()));
    }

    pub(super) fn get(&self, name: &str) -> Option<&str> {
        let id = hot_id(name);
        if id != COLD_HEADER {
            let i = self.ids.iter().position(|&e| e == id)?;
            Some(self.entries[i].1.as_str())
        } else {
            self.entries
                .iter()
                .zip(&self.ids)
                .find(|((n, _), &e)| e == COLD_HEADER && n.eq_ignore_ascii_case(name))
                .map(|((_, v), _)| v.as_str())
        }
    }

    pub(super) fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    pub(super) fn set(&mut self, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        let value = value.into();
        let id = hot_id(&name);
        let pos = if id != COLD_HEADER {
            self.ids.iter().position(|&e| e == id)
        } else {
            self.entries
                .iter()
                .zip(&self.ids)
                .position(|((n, _), &e)| e == COLD_HEADER && n.eq_ignore_ascii_case(&name))
        };
        match pos {
            Some(i) => self.entries[i].1 = value,
            None => {
                self.ids.push(id);
                self.entries.push((name, value));
            }
        }
    }

    pub(super) fn remove(&mut self, name: &str) -> bool {
        let id = hot_id(name);
        let before = self.entries.len();
        let keep = if id != COLD_HEADER {
            self.ids.iter().map(|&e| e != id).collect::<Vec<bool>>()
        } else {
            self.entries
                .iter()
                .zip(&self.ids)
                .map(|((n, _), &e)| e != COLD_HEADER || !n.eq_ignore_ascii_case(name))
                .collect()
        };
        let mut it = keep.iter();
        self.entries.retain(|_| *it.next().expect("parallel"));
        let mut it = keep.iter();
        self.ids.retain(|_| *it.next().expect("parallel"));
        self.entries.len() != before
    }

    pub(super) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(super) fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }
}

impl Serialize for HeaderMap {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let entries =
            serde::to_value(&self.entries).map_err(<S::Error as serde::ser::Error>::custom)?;
        serializer
            .serialize_value(serde::Value::Object(vec![("entries".to_string(), entries)]))
    }
}

#[cfg(test)]
mod tests {
    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::super::HeaderMap;
    use super::HeaderMap as Reference;

    /// Every hot name, near-misses that share a hot name's `(length,
    /// first byte)` signature, and ordinary cold names.
    const NAMES: [&str; 18] = [
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
        "Hast",
        "Xonnection",
        "X-Replay-Ts",
        "Accept",
        "X-Custom",
        "",
    ];

    /// Value characters: ASCII, the separators a head carries, and
    /// multi-byte UTF-8 so offsets must land on character boundaries.
    const VALUE_CHARS: [char; 10] = ['a', 'Z', '0', ' ', ':', '/', ';', 'é', '→', '𝄞'];

    #[derive(Debug, Clone)]
    enum Op {
        Append(String, String),
        Set(String, String),
        Remove(String),
        Get(String),
    }

    /// A pool name with each letter's case drawn from `mask`.
    fn name() -> impl Strategy<Value = String> {
        (0..NAMES.len(), any::<u64>()).prop_map(|(i, mask)| {
            NAMES[i]
                .chars()
                .enumerate()
                .map(|(k, c)| {
                    if mask >> (k % 64) & 1 == 1 {
                        c.to_ascii_uppercase()
                    } else {
                        c.to_ascii_lowercase()
                    }
                })
                .collect()
        })
    }

    /// Values from empty to a few dozen characters, so a `set` on an
    /// existing entry grows it or shrinks it.
    fn value() -> impl Strategy<Value = String> {
        vec(0..VALUE_CHARS.len(), 0..40)
            .prop_map(|ix| ix.into_iter().map(|i| VALUE_CHARS[i]).collect())
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (name(), value()).prop_map(|(n, v)| Op::Append(n, v)),
            (name(), value()).prop_map(|(n, v)| Op::Append(n, v)),
            (name(), value()).prop_map(|(n, v)| Op::Set(n, v)),
            name().prop_map(Op::Remove),
            name().prop_map(Op::Get),
        ]
    }

    /// Every observable of `map` equals the reference's.
    fn agree(map: &HeaderMap, reference: &Reference) -> Result<(), String> {
        prop_assert_eq!(map.len(), reference.len());
        prop_assert_eq!(map.is_empty(), reference.len() == 0);
        prop_assert_eq!(map.iter().collect::<Vec<_>>(), reference.iter().collect::<Vec<_>>());
        for probe in NAMES.iter().flat_map(|n| [n.to_string(), n.to_ascii_uppercase()]) {
            prop_assert_eq!(map.get(&probe), reference.get(&probe), "get({probe:?})");
            prop_assert_eq!(map.contains(&probe), reference.contains(&probe));
        }
        let value = serde::to_value(map).expect("serialize");
        prop_assert_eq!(&value, &serde::to_value(reference).expect("serialize"));
        prop_assert_eq!(format!("{map:?}"), format!("{reference:?}"));
        prop_assert_eq!(format!("{map:#?}"), format!("{reference:#?}"));
        let back: HeaderMap = serde::from_value(value).expect("deserialize");
        prop_assert!(back == *map, "serde round trip changed the map");
        prop_assert_eq!(format!("{back:?}"), format!("{map:?}"));
        Ok(())
    }

    proptest! {
        #[test]
        fn one_buffer_map_matches_the_two_vector_reference(ops in vec(op(), 0..200)) {
            let mut map = HeaderMap::new();
            let mut reference = Reference::default();
            for op in ops {
                match op {
                    Op::Append(n, v) => {
                        map.append(&n, &v);
                        reference.append(n, v);
                    }
                    Op::Set(n, v) => {
                        map.set(&n, &v);
                        reference.set(n, v);
                    }
                    Op::Remove(n) => prop_assert_eq!(map.remove(&n), reference.remove(&n)),
                    Op::Get(n) => prop_assert_eq!(map.get(&n), reference.get(&n)),
                }
                agree(&map, &reference)?;
                prop_assert!(map.clone() == map, "clone differs");
            }
        }
    }
}
