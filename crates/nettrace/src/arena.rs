//! Span types for the zero-copy ingest pipeline.
//!
//! A capture file is loaded (or mapped) into memory exactly once — that
//! buffer is the *arena* — and every later stage — packet framing, TCP
//! reassembly, HTTP parsing — refers to it by [`PacketSpan`] byte ranges
//! instead of copying payload bytes forward.

use std::ops::Range;

/// One captured packet as a timestamped range into the capture arena.
///
/// The range covers the captured link-layer frame bytes (what an owned
/// [`crate::pcap::Packet::data`] holds).
#[derive(Debug, Clone, PartialEq)]
pub struct PacketSpan {
    /// Capture timestamp (seconds since epoch).
    pub ts: f64,
    /// Frame bytes as a range into the arena.
    pub range: Range<usize>,
}

impl PacketSpan {
    /// The frame bytes this span covers.
    #[inline]
    pub fn bytes<'a>(&self, arena: &'a [u8]) -> &'a [u8] {
        &arena[self.range.clone()]
    }
}

/// Position of the subslice `sub` within its parent slice `base`, as a
/// byte range into `base`.
///
/// This is how the span pipeline recovers arena offsets from the
/// existing borrow-based Ethernet/IPv4/TCP parsers: parse a frame
/// borrowed from the arena, then map the payload slice back to arena
/// coordinates without re-deriving header lengths.
///
/// # Panics
///
/// Panics (debug assertion) when `sub` is not contained in `base`.
#[inline]
pub fn subslice_range(base: &[u8], sub: &[u8]) -> Range<usize> {
    let base_start = base.as_ptr() as usize;
    let sub_start = sub.as_ptr() as usize;
    debug_assert!(
        sub_start >= base_start && sub_start + sub.len() <= base_start + base.len(),
        "subslice_range: sub is not within base"
    );
    let start = sub_start - base_start;
    start..start + sub.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_resolves_bytes() {
        let arena = [0u8, 1, 2, 3, 4, 5];
        let span = PacketSpan { ts: 1.5, range: 2..5 };
        assert_eq!(span.bytes(&arena), &[2, 3, 4]);
    }

    #[test]
    fn subslice_range_recovers_offsets() {
        let base = [0u8; 32];
        assert_eq!(subslice_range(&base, &base[5..17]), 5..17);
        assert_eq!(subslice_range(&base, &base[..0]), 0..0);
        assert_eq!(subslice_range(&base, &base[32..]), 32..32);
    }
}
