//! SIMD byte scanning for the hot parse paths.
//!
//! The HTTP parser and the redirect miner spend their time finding
//! delimiters (`\r\n\r\n`, `\r\n`, `:`) and anchor bytes in entity
//! bodies. The scalar forms (`windows(n).position(..)`, `str::find`)
//! compare one byte per iteration; the scanners here examine 16 bytes
//! per step with SSE2 on `x86_64` (baseline for the target, no feature
//! detection needed) and fall back to a SWAR word-at-a-time scan on
//! other architectures. No external crates: the build environment is
//! offline, so this is a hand-rolled `memchr` subset covering exactly
//! what the parsers need.

use std::ops::ControlFlow;

/// Returns the index of the first occurrence of `needle` in `haystack`.
#[inline]
pub fn memchr(needle: u8, haystack: &[u8]) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    {
        memchr_sse2(needle, haystack)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        memchr_swar(needle, haystack)
    }
}

/// Returns the index of the first byte equal to `a` or `b`.
#[inline]
pub(crate) fn memchr2(a: u8, b: u8, haystack: &[u8]) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    {
        memchr2_sse2(a, b, haystack)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        haystack.iter().position(|&c| c == a || c == b)
    }
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn memchr_sse2(needle: u8, haystack: &[u8]) -> Option<usize> {
    use std::arch::x86_64::{_mm_cmpeq_epi8, _mm_loadu_si128, _mm_movemask_epi8, _mm_set1_epi8};
    // SAFETY: SSE2 is part of the x86_64 baseline; loads are unaligned
    // (`loadu`) and stay within `haystack` by the loop bounds.
    unsafe {
        let pat = _mm_set1_epi8(needle as i8);
        let mut i = 0usize;
        while i + 16 <= haystack.len() {
            let chunk = _mm_loadu_si128(haystack.as_ptr().add(i).cast());
            let mask = _mm_movemask_epi8(_mm_cmpeq_epi8(chunk, pat));
            if mask != 0 {
                return Some(i + mask.trailing_zeros() as usize);
            }
            i += 16;
        }
        haystack[i..].iter().position(|&c| c == needle).map(|p| i + p)
    }
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn memchr2_sse2(a: u8, b: u8, haystack: &[u8]) -> Option<usize> {
    use std::arch::x86_64::{
        _mm_cmpeq_epi8, _mm_loadu_si128, _mm_movemask_epi8, _mm_or_si128, _mm_set1_epi8,
    };
    // SAFETY: see `memchr_sse2`.
    unsafe {
        let pa = _mm_set1_epi8(a as i8);
        let pb = _mm_set1_epi8(b as i8);
        let mut i = 0usize;
        while i + 16 <= haystack.len() {
            let chunk = _mm_loadu_si128(haystack.as_ptr().add(i).cast());
            let hits = _mm_or_si128(_mm_cmpeq_epi8(chunk, pa), _mm_cmpeq_epi8(chunk, pb));
            let mask = _mm_movemask_epi8(hits);
            if mask != 0 {
                return Some(i + mask.trailing_zeros() as usize);
            }
            i += 16;
        }
        haystack[i..].iter().position(|&c| c == a || c == b).map(|p| i + p)
    }
}

/// Calls `hit` with every index `i` at which one of three byte pairs
/// starts — `haystack[i] == first` and `haystack[i + 1] | 0x20 ==
/// second` for some `(first, second)` in `pairs` — in order, until it
/// returns [`ControlFlow::Break`]. Setting bit 0x20 of the second byte
/// folds ASCII case, so a lowercase letter as `second` matches either
/// case; a `second` without that bit never matches.
///
/// One pass serves several needles: each is found by the pair at its
/// caseless anchor byte and the byte after it, and the caller confirms
/// the whole needle at each hit. The hits of a 16-byte block are walked
/// out of its compare mask without restarting the scan. Filtering on
/// pairs rather than on anchor bytes alone keeps hits rare (random bytes
/// start one of three pairs once in ≈ 11 000 rather than once in 85),
/// and each hit costs a branch the scan loop cannot predict.
#[inline]
pub fn pair3_each(
    pairs: [(u8, u8); 3],
    haystack: &[u8],
    mut hit: impl FnMut(usize) -> ControlFlow<()>,
) {
    let mut i = 0usize;
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{
            _mm_and_si128, _mm_cmpeq_epi8, _mm_loadu_si128, _mm_movemask_epi8, _mm_or_si128,
            _mm_set1_epi8,
        };
        // SAFETY: SSE2 is part of the x86_64 baseline.
        let (first, second, fold) = unsafe {
            (
                pairs.map(|(a, _)| _mm_set1_epi8(a as i8)),
                pairs.map(|(_, b)| _mm_set1_epi8(b as i8)),
                _mm_set1_epi8(0x20),
            )
        };
        while i + 17 <= haystack.len() {
            // SAFETY: SSE2 as above; both loads are unaligned (`loadu`)
            // and read `haystack[i..i + 17]`, in bounds by the loop
            // condition.
            let mut mask = unsafe {
                let at = _mm_loadu_si128(haystack.as_ptr().add(i).cast());
                let next = _mm_or_si128(_mm_loadu_si128(haystack.as_ptr().add(i + 1).cast()), fold);
                let pair = |k: usize| {
                    _mm_and_si128(_mm_cmpeq_epi8(at, first[k]), _mm_cmpeq_epi8(next, second[k]))
                };
                _mm_movemask_epi8(_mm_or_si128(_mm_or_si128(pair(0), pair(1)), pair(2))) as u32
            };
            while mask != 0 {
                if hit(i + mask.trailing_zeros() as usize).is_break() {
                    return;
                }
                mask &= mask - 1;
            }
            i += 16;
        }
    }
    for (j, w) in haystack[i..].windows(2).enumerate() {
        if pairs.iter().any(|&(a, b)| w[0] == a && w[1] | 0x20 == b) && hit(i + j).is_break() {
            return;
        }
    }
}

/// Portable word-at-a-time fallback (Mycroft's "has zero byte" trick).
#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn memchr_swar(needle: u8, haystack: &[u8]) -> Option<usize> {
    const LO: usize = usize::from_ne_bytes([0x01; std::mem::size_of::<usize>()]);
    const HI: usize = usize::from_ne_bytes([0x80; std::mem::size_of::<usize>()]);
    let word = usize::from_ne_bytes([needle; std::mem::size_of::<usize>()]);
    let step = std::mem::size_of::<usize>();
    let mut i = 0usize;
    while i + step <= haystack.len() {
        let chunk = usize::from_ne_bytes(haystack[i..i + step].try_into().unwrap());
        let x = chunk ^ word;
        if x.wrapping_sub(LO) & !x & HI != 0 {
            // A matching byte is in this word; pin it down bytewise.
            return haystack[i..i + step].iter().position(|&c| c == needle).map(|p| i + p);
        }
        i += step;
    }
    haystack[i..].iter().position(|&c| c == needle).map(|p| i + p)
}

/// Finds the first occurrence of `needle` (non-empty) in `haystack`:
/// SIMD scan for the first byte, then a direct comparison of the rest.
#[inline]
pub fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    debug_assert!(!needle.is_empty());
    let first = needle[0];
    let mut base = 0usize;
    while base + needle.len() <= haystack.len() {
        let i = base + memchr(first, &haystack[base..=haystack.len() - needle.len()])?;
        if haystack[i..i + needle.len()] == *needle {
            return Some(i);
        }
        base = i + 1;
    }
    None
}

/// ASCII-case-insensitive [`find`] for an already-lowercase non-empty
/// needle: SIMD scan for either case of the first byte, then one
/// `eq_ignore_ascii_case` confirmation.
#[inline]
pub fn find_ignore_ascii_case(haystack: &[u8], needle_lower: &[u8]) -> Option<usize> {
    debug_assert!(!needle_lower.is_empty());
    let lo = needle_lower[0];
    let up = lo.to_ascii_uppercase();
    let mut base = 0usize;
    while base + needle_lower.len() <= haystack.len() {
        let window = &haystack[base..=haystack.len() - needle_lower.len()];
        let i = base
            + if lo == up { memchr(lo, window)? } else { memchr2(lo, up, window)? };
        if haystack[i..i + needle_lower.len()].eq_ignore_ascii_case(needle_lower) {
            return Some(i);
        }
        base = i + 1;
    }
    None
}

/// Finds the `\r\n\r\n` head terminator: the index one past the blank
/// line. Scans for `\r` and confirms the 4-byte sequence — head bytes
/// are overwhelmingly non-`\r`, so nearly every position is skipped 16
/// at a time.
#[inline]
pub fn find_head_end(buf: &[u8]) -> Option<usize> {
    find(buf, b"\r\n\r\n").map(|p| p + 4)
}

/// Finds the next `\r\n` at or after the start of `buf`.
#[inline]
pub(crate) fn find_crlf(buf: &[u8]) -> Option<usize> {
    find(buf, b"\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytes the haystacks below are drawn from, and the single-byte
    /// needles of the scanners under test.
    const ALPHABET: &[u8] = b"aA\r\n-(.:\x80\xc3\xa9\xff";

    /// The scalar definition of `pair3_each`'s hits.
    fn pair_positions(h: &[u8], pairs: [(u8, u8); 3]) -> Vec<usize> {
        let starts = |i: usize| pairs.iter().any(|&(a, b)| h[i] == a && h[i + 1] | 0x20 == b);
        (0..h.len().saturating_sub(1)).filter(|&i| starts(i)).collect()
    }

    /// `pair3_each`'s hits, stopping after `limit` of them.
    fn pair3_hits(pairs: [(u8, u8); 3], h: &[u8], limit: usize) -> Vec<usize> {
        let mut hits = Vec::new();
        pair3_each(pairs, h, |i| {
            hits.push(i);
            if hits.len() == limit { ControlFlow::Break(()) } else { ControlFlow::Continue(()) }
        });
        hits
    }

    /// Two 144-byte haystacks over an alphabet of the needles below,
    /// bytes ≥ 0x80 among them (`_mm_set1_epi8` takes an `i8`): one with
    /// hits nearly everywhere, one with a few among filler, so that
    /// whole blocks are skipped. Each carries the multi-byte needles
    /// whole at a few places, where random draws would rarely put them.
    fn haystacks() -> [Vec<u8>; 2] {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut dense: Vec<u8> =
            (0..144).map(|_| ALPHABET[next() as usize % ALPHABET.len()]).collect();
        let mut sparse: Vec<u8> = (0..144)
            .map(|_| if next() % 8 == 0 { dense[next() as usize % 144] } else { b'x' })
            .collect();
        for (at, n) in [(75, &b"\r\n\r\n"[..]), (20, b"Aa"), (100, b"\xc3\xa9")] {
            dense[at..at + n.len()].copy_from_slice(n);
        }
        for (at, n) in [(17, &b"a\xff:"[..]), (40, b"\r\n\r\n"), (60, b"\xc3\xa9"), (90, b"-("),
            (100, b"\xff\x80"), (120, b"aA"), (131, b"\r\n\r\n")]
        {
            sparse[at..at + n.len()].copy_from_slice(n);
        }
        [dense, sparse]
    }

    /// Each scanner equals its scalar definition on every sub-slice that
    /// starts at alignment 0..64 and runs 0..80 bytes: the SIMD body
    /// enters in every phase and the scalar tail sees every length.
    #[test]
    fn scanners_match_their_scalar_definitions_at_every_alignment_and_tail() {
        let needles: [&[u8]; 7] =
            [b"aa", b"\r\n\r\n", b"-(", b"\xff\x80", b"\xc3\xa9", b".", b"a\xff:"];
        for buf in haystacks() {
            for start in 0..64 {
                for len in 0..80 {
                    let h = &buf[start..start + len];
                    let at = format!("start {start} len {len}");
                    for &n in ALPHABET {
                        let want = h.iter().position(|&c| c == n);
                        assert_eq!(memchr(n, h), want, "{at} {n:#x}");
                    }
                    for w in ALPHABET.windows(2) {
                        let (a, b) = (w[0], w[1]);
                        let want = h.iter().position(|&c| c == a || c == b);
                        assert_eq!(memchr2(a, b, h), want, "{at} {a:#x} {b:#x}");
                    }
                    for w in ALPHABET.windows(4) {
                        // Seconds with bit 0x20 set, so that every pair can match.
                        let fold = |k: usize| (w[k], w[k + 1] | 0x20);
                        let pairs = [fold(0), fold(1), fold(2)];
                        let all = pair_positions(h, pairs);
                        assert_eq!(pair3_hits(pairs, h, usize::MAX), all, "{at} {pairs:x?}");
                        // Break stops the scan at exactly the hit it came from.
                        let first_two = all.iter().copied().take(2).collect::<Vec<_>>();
                        assert_eq!(pair3_hits(pairs, h, 2), first_two, "{at} {pairs:x?}");
                    }
                    for n in needles {
                        let want = h.windows(n.len()).position(|w| w == n);
                        assert_eq!(find(h, n), want, "{at} {n:x?}");
                        let lower = n.to_ascii_lowercase();
                        let want = h.windows(n.len()).position(|w| w.eq_ignore_ascii_case(&lower));
                        assert_eq!(find_ignore_ascii_case(h, &lower), want, "{at} {n:x?}");
                    }
                    let head = h.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4);
                    assert_eq!(find_head_end(h), head, "{at}");
                }
            }
        }
    }

    #[test]
    fn find_locates_subslices() {
        let hay = b"abcXabcabYabcab\r\n\r\ntail";
        assert_eq!(find(hay, b"abcab"), Some(4));
        assert_eq!(find(hay, b"\r\n\r\n"), Some(15));
        assert_eq!(find(hay, b"zzz"), None);
        assert_eq!(find(b"ab", b"abc"), None);
        assert_eq!(find(b"abc", b"abc"), Some(0));
    }

    #[test]
    fn find_handles_repeated_first_bytes() {
        // First-byte hits that fail confirmation must not skip matches.
        let hay = b"aaaaaaaaaaaaaaaaaaaaaaab";
        assert_eq!(find(hay, b"aab"), Some(21));
    }

    #[test]
    fn find_ci_matches_any_case() {
        let hay = b"...Location: x ...LOCATION: y";
        assert_eq!(find_ignore_ascii_case(hay, b"location"), Some(3));
        assert_eq!(find_ignore_ascii_case(&hay[4..], b"location"), Some(14));
        assert_eq!(find_ignore_ascii_case(hay, b"refresh"), None);
        // Non-alphabetic first byte (single-case path).
        assert_eq!(find_ignore_ascii_case(hay, b":"), Some(11));
    }

    #[test]
    fn head_end_and_crlf() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\nHost: x\r\n\r\nbody"), Some(27));
        assert_eq!(find_head_end(b"no terminator"), None);
        assert_eq!(find_crlf(b"abc\r\ndef"), Some(3));
        assert_eq!(find_crlf(b"abc\rdef"), None);
    }
}
