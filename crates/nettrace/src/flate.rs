//! DEFLATE (RFC 1951) decompression with gzip (RFC 1952) and zlib
//! (RFC 1950) framing, from scratch.
//!
//! Real-world HTTP responses routinely arrive `Content-Encoding: gzip`,
//! and the redirect evidence DynaMiner mines (meta-refresh tags,
//! obfuscated JavaScript) hides inside those compressed bodies, so this
//! decoder sits on the wire-to-verdict path: the decode gate in
//! [`crate::transaction`] calls [`gzip_decompress_capped`] and
//! [`deflate_decompress_capped`] for every coded body.
//!
//! # Decode kernels
//!
//! * **Bits** come from a 64-bit buffer refilled by one unaligned 8-byte
//!   little-endian load (`Bits::refill`); a refill leaves at least 56
//!   valid bits, enough for a whole length/distance pair (at most 48).
//! * **Symbols** come from two-level tables of packed `u32` entries
//!   (`build_table`): a 10-bit primary table for literals/lengths and
//!   an 8-bit one for distances, each followed by the subtables of codes
//!   longer than that. An entry carries the bits to consume, the literal
//!   byte or the length/distance base, and the count of extra bits, so
//!   decoding a symbol is one load, a shift and a mask. The fixed code's
//!   tables are built once per process; a dynamic block rebuilds into
//!   fixed-size arrays on the stack, without allocating.
//! * **Two loops** share those tables. The fast loop runs while
//!   `IN_MARGIN` (16) input bytes and `OUT_MARGIN` (314) output bytes
//!   remain, so it never asks whether a load, a literal or a whole
//!   258-byte match (copied in 8-byte words that may overshoot by 7)
//!   fits. Within the margins the careful loop decodes one symbol at a
//!   time and checks every bit against the end of input and every byte
//!   against the cap; truncation, bad distances and the cap are reported
//!   from there exactly as the bit-at-a-time decoder reported them.
//! * **Output** is a window that is never longer than the caller's cap,
//!   sized up front from the gzip ISIZE field when there is one — clamped
//!   to the cap and to what the input could possibly expand to — and
//!   doubled when a stream outgrows it. A stream is refused with
//!   [`crate::Error::DecodedTooLarge`] at the byte that would pass the
//!   cap, on every output path.
//! * **Checksums**: [`crc32`] is slicing-by-16 over tables built at
//!   compile time. `adler32` stays the plain two-sum loop: the compiler
//!   vectorizes it, and hand-unrolled forms measured slower.
//!
//! The bit-at-a-time decoder these replaced lives on in `reference.rs`
//! for tests only: every stream either decodes to the same bytes under
//! both or fails under both with the same class of error.
//!
//! The compressor side is intentionally minimal — a stored-block encoder,
//! a fixed-Huffman literal encoder and a run encoder — enough for
//! round-trip tests and for re-encoding synthetic bodies on the wire.

#![forbid(unsafe_code)]

use crate::{Error, Result};
use std::sync::OnceLock;

#[cfg(test)]
mod reference;
#[cfg(test)]
mod tests;

fn corrupt(msg: &str) -> Error {
    Error::HttpSyntax(format!("deflate: {msg}"))
}

// ---------------------------------------------------------------------
// Bit input (LSB-first, as DEFLATE requires).
// ---------------------------------------------------------------------

/// The input as a bit stream: `buf` holds the `cnt` bits that precede
/// byte `pos`, lowest bit first. Bits of `buf` above `cnt` are either
/// zero or a copy of the stream bits that the next refill will put there.
struct Bits<'a> {
    data: &'a [u8],
    pos: usize,
    buf: u64,
    cnt: u32,
}

impl<'a> Bits<'a> {
    /// Tops the buffer up to at least 56 bits, or to the end of input.
    #[inline(always)]
    fn refill(&mut self) {
        if let Some(word) = self.data.get(self.pos..self.pos + 8) {
            let word = u64::from_le_bytes(word.try_into().expect("an 8-byte slice"));
            self.buf |= word << self.cnt;
            self.pos += ((63 - self.cnt) >> 3) as usize;
            self.cnt |= 56;
        } else {
            while self.cnt < 56 && self.pos < self.data.len() {
                self.buf |= u64::from(self.data[self.pos]) << self.cnt;
                self.pos += 1;
                self.cnt += 8;
            }
        }
    }

    /// Drops `n` bits that a table entry or a field read from `buf`, where
    /// the caller knows the buffer holds them.
    #[inline(always)]
    fn skip(&mut self, n: u32) {
        self.buf >>= n;
        self.cnt -= n;
    }

    /// [`Bits::skip`] where the input may have ended short of them.
    #[inline(always)]
    fn consume(&mut self, n: u32) -> Result<()> {
        if n > self.cnt {
            return Err(corrupt("unexpected end of input"));
        }
        self.skip(n);
        Ok(())
    }

    /// The lowest `n` bits of the buffer (`n` ≤ 15), not yet consumed.
    #[inline(always)]
    fn peek(&self, n: u32) -> usize {
        (self.buf & ((1 << n) - 1)) as usize
    }

    /// Reads an `n`-bit field (`n` ≤ 15), LSB first.
    fn take(&mut self, n: u32) -> Result<usize> {
        if self.cnt < n {
            self.refill();
        }
        let v = self.peek(n);
        self.consume(n)?;
        Ok(v)
    }

    /// Skips to the next byte boundary and hands the whole bytes still in
    /// the buffer back to `pos` (stored blocks).
    fn align_to_byte(&mut self) {
        self.pos -= (self.cnt / 8) as usize;
        self.buf = 0;
        self.cnt = 0;
    }
}

// ---------------------------------------------------------------------
// Decode tables.
// ---------------------------------------------------------------------

/// Length-code base values and extra bits (codes 257–285).
const LENGTH_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115,
    131, 163, 195, 227, 258,
];
const LENGTH_EXTRA: [u8; 29] =
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0];
/// Distance-code base values and extra bits (codes 0–29).
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12,
    13, 13,
];
/// Order in which code-length code lengths are transmitted.
const CLC_ORDER: [usize; 19] =
    [16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15];

// A table entry, low bits to high:
//
//   0..=3    bits to consume: the codeword's length, or what is left of it
//            after a subtable pointer took the primary table's share
//   8..=11   extra bits that follow a length or distance codeword; for a
//            subtable pointer, the width of the subtable's index
//   12..=15  PENDING (while building), END_OF_BLOCK, SUBTABLE, EXCEPTIONAL
//   16..=30  the length or distance base, the literal byte, the
//            code-length symbol, or a subtable's offset in the table
//   31       LITERAL
//
// EXCEPTIONAL marks everything that is not a literal, length or distance:
// with SUBTABLE a pointer, with END_OF_BLOCK symbol 256, alone a bit
// pattern no codeword starts with (an incomplete code, or one of the
// symbols 286, 287, 30 and 31 that have a codeword but no meaning).
const LITERAL: u32 = 1 << 31;
const EXCEPTIONAL: u32 = 1 << 15;
const SUBTABLE: u32 = 1 << 14;
const END_OF_BLOCK: u32 = 1 << 13;
const PENDING: u32 = 1 << 12;

#[inline(always)]
fn code_bits(entry: u32) -> u32 {
    entry & 0xf
}

#[inline(always)]
fn extra_bits(entry: u32) -> u32 {
    (entry >> 8) & 0xf
}

#[inline(always)]
fn payload(entry: u32) -> usize {
    ((entry >> 16) & 0x7fff) as usize
}

const LITLEN_BITS: u32 = 10;
const DIST_BITS: u32 = 8;
const CLC_BITS: u32 = 7;

// Room for the subtables. Canonical codes fill code space from zero in
// order of length, so the codes under one primary index are consecutive
// and never get shorter from one index to the next. A subtable whose codes
// all have one length has as many entries as symbols; one that spans a
// change of length has at most 2^(its longest length - primary bits)
// entries, and no two of those share a longest length; the last may be
// partly filled. That bounds the entries by
// symbols + (2^(16 - bits) - 4) + 2^(15 - bits): 288 + 60 + 32 and
// 30 + 252 + 128.
const LITLEN_LEN: usize = (1 << LITLEN_BITS) + 384;
const DIST_LEN: usize = (1 << DIST_BITS) + 416;

fn litlen_entry(sym: usize) -> u32 {
    match sym {
        0..=255 => LITERAL | (sym as u32) << 16,
        256 => EXCEPTIONAL | END_OF_BLOCK,
        257..=285 => {
            u32::from(LENGTH_BASE[sym - 257]) << 16 | u32::from(LENGTH_EXTRA[sym - 257]) << 8
        }
        _ => EXCEPTIONAL,
    }
}

fn dist_entry(sym: usize) -> u32 {
    match sym {
        0..=29 => u32::from(DIST_BASE[sym]) << 16 | u32::from(DIST_EXTRA[sym]) << 8,
        _ => EXCEPTIONAL,
    }
}

fn clc_entry(sym: usize) -> u32 {
    (sym as u32) << 16
}

/// Builds the decode table of the canonical code with these per-symbol
/// codeword `lengths` (0 = unused, at most 15): `table[..1 << root]` is
/// indexed by the next `root` input bits; codewords longer than `root`
/// go through a subtable pointer. `entry_of` gives a symbol's entry less
/// its bit count. Incomplete codes are accepted, as the bit-at-a-time
/// decoder accepted them: the unassigned patterns decode as errors.
fn build_table(
    lengths: &[u8],
    root: u32,
    table: &mut [u32],
    entry_of: fn(usize) -> u32,
) -> Result<()> {
    let mut count = [0u16; 16];
    for &len in lengths {
        count[len as usize] += 1;
    }
    count[0] = 0;
    let mut left = 1i32;
    for &n in &count[1..] {
        left = (left << 1) - i32::from(n);
        if left < 0 {
            return Err(corrupt("over-subscribed code"));
        }
    }
    // The first codeword of each length; the rest follow in symbol order.
    let mut first = [0u16; 16];
    for len in 1..15 {
        first[len + 1] = (first[len] + count[len]) << 1;
    }

    let primary = 1usize << root;
    table[..primary].fill(EXCEPTIONAL);
    let mut next = first;
    let mut long_codes = false;
    for (sym, &len) in lengths.iter().enumerate() {
        if len == 0 {
            continue;
        }
        let code = next[len as usize];
        next[len as usize] += 1;
        let len = u32::from(len);
        // Codewords arrive first bit first, so they index bit-reversed.
        let index = usize::from(code.reverse_bits() >> (16 - len));
        if len <= root {
            let entry = entry_of(sym) | len;
            for slot in table[index..primary].iter_mut().step_by(1 << len) {
                *slot = entry;
            }
        } else {
            // Until the second pass, the primary slot remembers the
            // longest codeword under it, which sizes its subtable.
            let slot = &mut table[index & (primary - 1)];
            *slot = PENDING | code_bits(*slot).max(len);
            long_codes = true;
        }
    }
    if !long_codes {
        return Ok(());
    }

    let mut next = first;
    let mut free = primary;
    for (sym, &len) in lengths.iter().enumerate() {
        if u32::from(len) <= root {
            continue;
        }
        let code = next[len as usize];
        next[len as usize] += 1;
        let len = u32::from(len);
        let index = usize::from(code.reverse_bits() >> (16 - len));
        let slot = index & (primary - 1);
        if table[slot] & PENDING != 0 {
            let width = code_bits(table[slot]) - root;
            table[slot] = EXCEPTIONAL | SUBTABLE | (free as u32) << 16 | width << 8 | root;
            table[free..free + (1 << width)].fill(EXCEPTIONAL);
            free += 1 << width;
        }
        let (start, size) = (payload(table[slot]), 1 << extra_bits(table[slot]));
        let subtable = &mut table[start..start + size];
        let entry = entry_of(sym) | (len - root);
        for slot in subtable[index >> root..].iter_mut().step_by(1 << (len - root)) {
            *slot = entry;
        }
    }
    Ok(())
}

/// The two tables a Huffman block decodes with.
struct Tables {
    litlen: [u32; LITLEN_LEN],
    dist: [u32; DIST_LEN],
}

impl Tables {
    fn zeroed() -> Tables {
        Tables { litlen: [0; LITLEN_LEN], dist: [0; DIST_LEN] }
    }

    /// Tables of the fixed code (RFC 1951 §3.2.6), built on first use.
    fn fixed() -> &'static Tables {
        static FIXED: OnceLock<Tables> = OnceLock::new();
        FIXED.get_or_init(|| {
            let mut lengths = [8u8; 288];
            lengths[144..256].fill(9);
            lengths[256..280].fill(7);
            let mut t = Tables::zeroed();
            build_table(&lengths, LITLEN_BITS, &mut t.litlen, litlen_entry)
                .and_then(|()| build_table(&[5u8; 30], DIST_BITS, &mut t.dist, dist_entry))
                .expect("the fixed code is not over-subscribed");
            t
        })
    }

    /// Reads a dynamic block's code description into `self`.
    fn read_dynamic(&mut self, bits: &mut Bits<'_>) -> Result<()> {
        let hlit = bits.take(5)? + 257;
        let hdist = bits.take(5)? + 1;
        let hclen = bits.take(4)? + 4;
        if hlit > 286 || hdist > 30 {
            return Err(corrupt("dynamic header out of range"));
        }
        let mut clc_lengths = [0u8; 19];
        for &pos in CLC_ORDER.iter().take(hclen) {
            clc_lengths[pos] = bits.take(3)? as u8;
        }
        let mut clc = [0u32; 1 << CLC_BITS];
        build_table(&clc_lengths, CLC_BITS, &mut clc, clc_entry)?;

        let mut lengths = [0u8; 286 + 30];
        let lengths = &mut lengths[..hlit + hdist];
        let mut i = 0usize;
        while i < lengths.len() {
            bits.refill();
            let entry = clc[bits.peek(CLC_BITS)];
            if entry & EXCEPTIONAL != 0 {
                return Err(corrupt("invalid huffman code"));
            }
            bits.consume(code_bits(entry))?;
            let (value, times) = match payload(entry) {
                sym @ 0..=15 => (sym as u8, 1),
                16 => {
                    if i == 0 {
                        return Err(corrupt("repeat with no previous length"));
                    }
                    (lengths[i - 1], 3 + bits.take(2)?)
                }
                17 => (0, 3 + bits.take(3)?),
                _ => (0, 11 + bits.take(7)?),
            };
            let run = lengths.get_mut(i..i + times).ok_or_else(|| corrupt("run past table end"))?;
            run.fill(value);
            i += times;
        }
        if lengths[256] == 0 {
            return Err(corrupt("missing end-of-block code"));
        }
        build_table(&lengths[..hlit], LITLEN_BITS, &mut self.litlen, litlen_entry)?;
        build_table(&lengths[hlit..], DIST_BITS, &mut self.dist, dist_entry)
    }
}

// ---------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------

/// The decoded bytes so far, `buf[..pos]`, inside a zeroed window that is
/// never longer than `cap`.
struct Sink {
    buf: Vec<u8>,
    pos: usize,
    cap: usize,
}

impl Sink {
    fn new(cap: usize, window: usize) -> Sink {
        Sink { buf: vec![0; window.min(cap)], pos: 0, cap }
    }

    /// Makes `buf[pos..pos + n]` writable, or reports that it lies past
    /// the cap.
    #[inline(always)]
    fn reserve(&mut self, n: usize) -> Result<()> {
        let end = self.pos + n;
        if end > self.buf.len() {
            if end > self.cap {
                return Err(Error::DecodedTooLarge { cap: self.cap });
            }
            self.grow(end);
        }
        Ok(())
    }

    #[cold]
    fn grow(&mut self, at_least: usize) {
        let len = at_least.max(self.buf.len().saturating_mul(2)).min(self.cap);
        self.buf.resize(len, 0);
    }

    /// Whether the fast loop's output margin holds, widening the window
    /// if the cap allows.
    #[inline(always)]
    fn fast_room(&mut self) -> bool {
        let end = self.pos + OUT_MARGIN;
        if end > self.buf.len() && self.buf.len() < self.cap {
            self.grow(end);
        }
        end <= self.buf.len()
    }

    fn push(&mut self, byte: u8) -> Result<()> {
        self.reserve(1)?;
        self.buf[self.pos] = byte;
        self.pos += 1;
        Ok(())
    }

    fn extend(&mut self, bytes: &[u8]) -> Result<()> {
        self.reserve(bytes.len())?;
        self.buf[self.pos..self.pos + bytes.len()].copy_from_slice(bytes);
        self.pos += bytes.len();
        Ok(())
    }

    /// Appends `len` bytes starting `distance` back, byte by byte so that
    /// a match may run into itself.
    fn copy_match(&mut self, distance: usize, len: usize) -> Result<()> {
        self.reserve(len)?;
        for at in self.pos..self.pos + len {
            self.buf[at] = self.buf[at - distance];
        }
        self.pos += len;
        Ok(())
    }

    fn finish(mut self) -> Vec<u8> {
        self.buf.truncate(self.pos);
        self.buf
    }
}

// ---------------------------------------------------------------------
// Inflate.
// ---------------------------------------------------------------------

/// Upper bound on decompressed output we accept (zip-bomb guard).
pub const MAX_INFLATED: usize = 64 << 20;

/// The most a declared size is believed of the input ahead of decoding:
/// past what text compresses to, far short of the 1032 a DEFLATE stream
/// can reach. A stream that does expand further grows the window as it
/// goes; a lying ISIZE on a small member reserves little.
const MAX_EXPANSION: usize = 16;

/// Input the fast loop keeps ahead of itself: two 8-byte refills, the
/// second up to 7 bytes on from the first.
const IN_MARGIN: usize = 16;

/// Output the fast loop keeps ahead of itself: the literals one refill
/// can hold (each takes a bit or more of the 63 and the run stops under
/// 15), one 258-byte match, and the 7 bytes its last word may overshoot.
const OUT_MARGIN: usize = 49 + 258 + 7;

/// Decompresses a raw DEFLATE stream.
///
/// # Errors
///
/// Returns an error on malformed streams, truncation, or output larger
/// than [`MAX_INFLATED`].
pub fn inflate(data: &[u8]) -> Result<Vec<u8>> {
    inflate_capped(data, MAX_INFLATED)
}

/// Decompresses a raw DEFLATE stream, refusing to produce more than
/// `cap` output bytes.
///
/// The cap is enforced *during* decompression, on every output path — a
/// zip bomb is rejected at the byte that would pass `cap`, with at most
/// `cap` bytes materialized, not after expanding fully.
///
/// # Errors
///
/// Returns [`crate::Error::DecodedTooLarge`] when the output exceeds
/// `cap`, or another error on malformed or truncated streams.
pub(crate) fn inflate_capped(data: &[u8], cap: usize) -> Result<Vec<u8>> {
    // Without a declared size, guess a typical text ratio; the window
    // doubles from there.
    inflate_hinted(data, cap, data.len().saturating_mul(4))
}

/// [`inflate_capped`] with the output window sized from `hint`, a decoded
/// size the container declared: one output margin past it, so that a
/// stream of exactly that size never leaves the fast loop on account of
/// output. The hint is untrusted: the window is clamped to the cap and to
/// what `data` could expand to, and a stream that outgrows it still
/// decodes.
fn inflate_hinted(data: &[u8], cap: usize, hint: usize) -> Result<Vec<u8>> {
    let mut sink = Sink::new(cap, initial_window(data.len(), hint));
    inflate_into(data, &mut sink)?;
    Ok(sink.finish())
}

fn initial_window(input_len: usize, hint: usize) -> usize {
    hint.saturating_add(OUT_MARGIN).min(input_len.saturating_mul(MAX_EXPANSION))
}

fn inflate_into(data: &[u8], sink: &mut Sink) -> Result<()> {
    let mut bits = Bits { data, pos: 0, buf: 0, cnt: 0 };
    let mut dynamic: Option<Tables> = None;
    loop {
        let header = bits.take(3)?;
        match header >> 1 {
            0 => stored_block(&mut bits, sink)?,
            1 => huffman_block(&mut bits, Tables::fixed(), sink)?,
            2 => {
                let tables = dynamic.get_or_insert_with(Tables::zeroed);
                tables.read_dynamic(&mut bits)?;
                huffman_block(&mut bits, tables, sink)?;
            }
            _ => return Err(corrupt("reserved block type")),
        }
        if header & 1 == 1 {
            return Ok(());
        }
    }
}

fn stored_block(bits: &mut Bits<'_>, sink: &mut Sink) -> Result<()> {
    bits.align_to_byte();
    let truncated = || corrupt("stored block truncated");
    let header = bits.data.get(bits.pos..bits.pos + 4).ok_or_else(truncated)?;
    let len = u16::from_le_bytes([header[0], header[1]]);
    if u16::from_le_bytes([header[2], header[3]]) != !len {
        return Err(corrupt("stored block LEN/NLEN mismatch"));
    }
    let start = bits.pos + 4;
    let body = bits.data.get(start..start + usize::from(len)).ok_or_else(truncated)?;
    bits.pos = start + body.len();
    sink.extend(body)
}

/// Decodes one Huffman block's symbols, through its end-of-block.
fn huffman_block(bits: &mut Bits<'_>, tables: &Tables, sink: &mut Sink) -> Result<()> {
    loop {
        if bits.pos + IN_MARGIN <= bits.data.len()
            && sink.fast_room()
            && fast_loop(bits, tables, sink)?
        {
            return Ok(());
        }
        if careful_symbol(bits, tables, sink)? {
            return Ok(());
        }
    }
}

/// Looks the next symbol up, following a subtable pointer. The pointer's
/// bits are consumed, the returned entry's are not. For a buffer that
/// holds a whole codeword, 15 bits or more.
#[inline(always)]
fn lookup<const N: usize>(table: &[u32; N], root: u32, bits: &mut Bits<'_>) -> u32 {
    let mut entry = table[bits.peek(root)];
    if entry & SUBTABLE != 0 {
        bits.buf >>= root;
        bits.cnt -= root;
        entry = table[payload(entry) + bits.peek(extra_bits(entry))];
    }
    entry
}

/// Decodes symbols without asking whether input or output suffice, until
/// end-of-block (`Ok(true)`) or until one of the margins the caller
/// checked runs out (`Ok(false)`).
fn fast_loop(bits: &mut Bits<'_>, tables: &Tables, sink: &mut Sink) -> Result<bool> {
    let in_last = bits.data.len() - IN_MARGIN;
    let out = sink.buf.as_mut_slice();
    let out_last = out.len() - OUT_MARGIN;
    // Locals, so that the loop's state stays in registers.
    let mut b = Bits { data: bits.data, pos: bits.pos, buf: bits.buf, cnt: bits.cnt };
    let mut at = sink.pos;
    let result = 'symbols: loop {
        if b.pos > in_last || at > out_last {
            break Ok(false);
        }
        b.refill();
        let mut entry = lookup(&tables.litlen, LITLEN_BITS, &mut b);
        // A run of literals, for as long as a whole codeword is buffered.
        while entry & LITERAL != 0 {
            out[at] = (entry >> 16) as u8;
            at += 1;
            b.skip(code_bits(entry));
            if b.cnt < 15 {
                continue 'symbols;
            }
            entry = lookup(&tables.litlen, LITLEN_BITS, &mut b);
        }
        if entry & EXCEPTIONAL != 0 {
            if entry & END_OF_BLOCK == 0 {
                break Err(corrupt("invalid huffman code"));
            }
            b.skip(code_bits(entry));
            break Ok(true);
        }
        // A match: at most 15 + 5 + 15 + 13 bits from here.
        if b.cnt < 48 {
            b.refill();
        }
        b.skip(code_bits(entry));
        let len = payload(entry) + b.peek(extra_bits(entry));
        b.skip(extra_bits(entry));
        let entry = lookup(&tables.dist, DIST_BITS, &mut b);
        if entry & EXCEPTIONAL != 0 {
            break Err(corrupt("invalid huffman code"));
        }
        b.skip(code_bits(entry));
        let distance = payload(entry) + b.peek(extra_bits(entry));
        b.skip(extra_bits(entry));
        if distance > at {
            break Err(corrupt("distance beyond output"));
        }
        copy_match_fast(out, at, distance, len);
        at += len;
    };
    *bits = b;
    sink.pos = at;
    result
}

/// Copies a match whose destination has [`OUT_MARGIN`] writable bytes
/// behind it: whole 8-byte words when source and destination words cannot
/// overlap, a fill for the run-length case, bytes otherwise.
#[inline(always)]
fn copy_match_fast(out: &mut [u8], at: usize, distance: usize, len: usize) {
    let mut from = at - distance;
    if distance >= 8 {
        let mut to = at;
        while to < at + len {
            let word: [u8; 8] = out[from..from + 8].try_into().expect("an 8-byte slice");
            out[to..to + 8].copy_from_slice(&word);
            from += 8;
            to += 8;
        }
    } else if distance == 1 {
        let byte = out[from];
        out[at..at + len].fill(byte);
    } else {
        for to in at..at + len {
            out[to] = out[from];
            from += 1;
        }
    }
}

/// Decodes one symbol with every bit checked against the end of input and
/// every byte against the cap. `Ok(true)` at end-of-block.
fn careful_symbol(bits: &mut Bits<'_>, tables: &Tables, sink: &mut Sink) -> Result<bool> {
    bits.refill();
    let entry = careful_lookup(bits, &tables.litlen, LITLEN_BITS)?;
    bits.consume(code_bits(entry))?;
    if entry & LITERAL != 0 {
        sink.push((entry >> 16) as u8)?;
        return Ok(false);
    }
    if entry & EXCEPTIONAL != 0 {
        return Ok(true);
    }
    let len = payload(entry) + bits.peek(extra_bits(entry));
    bits.consume(extra_bits(entry))?;
    let entry = careful_lookup(bits, &tables.dist, DIST_BITS)?;
    bits.consume(code_bits(entry))?;
    let distance = payload(entry) + bits.peek(extra_bits(entry));
    bits.consume(extra_bits(entry))?;
    if distance > sink.pos {
        return Err(corrupt("distance beyond output"));
    }
    sink.copy_match(distance, len)?;
    Ok(false)
}

/// [`lookup`] on a buffer that may hold fewer bits than a codeword: the
/// missing bits read as zero, and the caller's `consume` of the entry's
/// bits is what notices. Returns only literal, length, distance and
/// end-of-block entries.
fn careful_lookup(bits: &mut Bits<'_>, table: &[u32], root: u32) -> Result<u32> {
    let mut entry = table[bits.peek(root)];
    if entry & SUBTABLE != 0 {
        bits.consume(root)?;
        entry = table[payload(entry) + bits.peek(extra_bits(entry))];
    }
    if entry & EXCEPTIONAL != 0 && entry & END_OF_BLOCK == 0 {
        return Err(corrupt("invalid huffman code"));
    }
    Ok(entry)
}

// ---------------------------------------------------------------------
// Minimal compressors (tests + wire re-encoding).
// ---------------------------------------------------------------------

/// DEFLATE-compresses `data` as stored (uncompressed) blocks.
pub(crate) fn deflate_stored(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() + data.len() / 65_535 * 5 + 6);
    let mut chunks = data.chunks(65_535).peekable();
    if data.is_empty() {
        out.extend_from_slice(&[0x01, 0x00, 0x00, 0xff, 0xff]);
        return out;
    }
    while let Some(chunk) = chunks.next() {
        let bfinal = u8::from(chunks.peek().is_none());
        out.push(bfinal); // BFINAL + BTYPE=00 (byte-aligned by construction)
        let len = chunk.len() as u16;
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&(!len).to_le_bytes());
        out.extend_from_slice(chunk);
    }
    out
}

/// DEFLATE-compresses `data` with the fixed Huffman code, literals only
/// (no back-references). Larger than `deflate_stored` for random data but
/// exercises the fixed-Huffman decode path and is what several embedded
/// gzip writers emit.
pub fn deflate_fixed_literals(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut bitpos = 0u32;
    let push_bits = |out: &mut Vec<u8>, bits: u32, count: u32, pos: &mut u32| {
        for i in 0..count {
            if pos.is_multiple_of(8) {
                out.push(0);
            }
            let bit = (bits >> i) & 1;
            let byte = out.last_mut().expect("pushed above");
            *byte |= (bit as u8) << (*pos % 8);
            *pos += 1;
        }
    };
    // BFINAL=1, BTYPE=01.
    push_bits(&mut out, 1, 1, &mut bitpos);
    push_bits(&mut out, 1, 2, &mut bitpos);
    let emit_code = |out: &mut Vec<u8>, code: u32, len: u32, pos: &mut u32| {
        // Huffman codes are written MSB-first.
        for i in (0..len).rev() {
            let bit = (code >> i) & 1;
            if pos.is_multiple_of(8) {
                out.push(0);
            }
            let byte = out.last_mut().expect("pushed above");
            *byte |= (bit as u8) << (*pos % 8);
            *pos += 1;
        }
    };
    for &b in data {
        let (code, len) = if b < 144 {
            (0x30 + b as u32, 8)
        } else {
            (0x190 + (b - 144) as u32, 9)
        };
        emit_code(&mut out, code, len, &mut bitpos);
    }
    emit_code(&mut out, 0, 7, &mut bitpos); // end-of-block (symbol 256)
    out
}

/// DEFLATE-compresses `count` copies of `byte` using the fixed Huffman
/// code and maximal (length-258, distance-1) back-references — the
/// densest stream this crate can emit, roughly 13 bits per 258 output
/// bytes (a ~160× expansion ratio). Exercises the zip-bomb guard from
/// the compressing side; also handy for synthesizing large compressible
/// bodies without storing them.
#[cfg(test)]
pub(crate) fn deflate_run(byte: u8, count: usize) -> Vec<u8> {
    let mut out = Vec::new();
    let mut pos = 0u32;
    let push_bit = |out: &mut Vec<u8>, bit: u32, pos: &mut u32| {
        if pos.is_multiple_of(8) {
            out.push(0);
        }
        *out.last_mut().expect("pushed above") |= (bit as u8) << (*pos % 8);
        *pos += 1;
    };
    let code_msb = |out: &mut Vec<u8>, c: u32, len: u32, pos: &mut u32| {
        for i in (0..len).rev() {
            push_bit(out, (c >> i) & 1, pos);
        }
    };
    let literal = |out: &mut Vec<u8>, b: u8, pos: &mut u32| {
        if b < 144 {
            code_msb(out, 0x30 + b as u32, 8, pos);
        } else {
            code_msb(out, 0x190 + (b - 144) as u32, 9, pos);
        }
    };
    // BFINAL=1, BTYPE=01 (fixed Huffman), LSB first.
    push_bit(&mut out, 1, &mut pos);
    push_bit(&mut out, 1, &mut pos);
    push_bit(&mut out, 0, &mut pos);
    let mut remaining = count;
    if remaining > 0 {
        literal(&mut out, byte, &mut pos);
        remaining -= 1;
    }
    while remaining >= 258 {
        code_msb(&mut out, 0xc5, 8, &mut pos); // length symbol 285 → 258
        code_msb(&mut out, 0, 5, &mut pos); // distance symbol 0 → 1
        remaining -= 258;
    }
    // Tail shorter than one full back-reference: literals are simpler
    // than picking length codes with extra bits, and the tail is < 258
    // bytes regardless of `count`.
    for _ in 0..remaining {
        literal(&mut out, byte, &mut pos);
    }
    code_msb(&mut out, 0, 7, &mut pos); // end of block (symbol 256)
    out
}

// ---------------------------------------------------------------------
// CRC32 and gzip framing.
// ---------------------------------------------------------------------

/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// which lets sixteen input bytes be folded in with sixteen independent
/// loads: the chain from one CRC value to the next is one lookup deep
/// however many bytes a step takes.
static CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, as used by gzip), slicing-by-16.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(16);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[15][(lo & 0xff) as usize]
            ^ t[14][((lo >> 8) & 0xff) as usize]
            ^ t[13][((lo >> 16) & 0xff) as usize]
            ^ t[12][(lo >> 24) as usize]
            ^ t[11][w[4] as usize]
            ^ t[10][w[5] as usize]
            ^ t[9][w[6] as usize]
            ^ t[8][w[7] as usize]
            ^ t[7][w[8] as usize]
            ^ t[6][w[9] as usize]
            ^ t[5][w[10] as usize]
            ^ t[4][w[11] as usize]
            ^ t[3][w[12] as usize]
            ^ t[2][w[13] as usize]
            ^ t[1][w[14] as usize]
            ^ t[0][w[15] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

/// Wraps `data` in a gzip container (stored-block deflate inside).
pub fn gzip_compress(data: &[u8]) -> Vec<u8> {
    let mut out = vec![
        0x1f, 0x8b, // magic
        0x08, // CM = deflate
        0x00, // no flags
        0, 0, 0, 0, // mtime
        0x00, // XFL
        0xff, // OS = unknown
    ];
    out.extend_from_slice(&deflate_stored(data));
    out.extend_from_slice(&crc32(data).to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out
}

/// Whether `data` starts with a gzip magic.
pub(crate) fn is_gzip(data: &[u8]) -> bool {
    data.len() >= 2 && data[0] == 0x1f && data[1] == 0x8b
}

/// Decompresses a gzip container, validating magic, CRC-32, and ISIZE.
///
/// # Errors
///
/// Returns an error on bad framing, unsupported compression methods,
/// truncation, CRC mismatch, or oversized output.
pub fn gzip_decompress(data: &[u8]) -> Result<Vec<u8>> {
    gzip_decompress_capped(data, MAX_INFLATED)
}

/// The DEFLATE stream inside a gzip member, and the CRC-32 and ISIZE its
/// trailer declares.
fn gzip_member(data: &[u8]) -> Result<(&[u8], u32, u32)> {
    if !is_gzip(data) {
        return Err(corrupt("missing gzip magic"));
    }
    if data.len() < 18 {
        return Err(corrupt("gzip container truncated"));
    }
    if data[2] != 0x08 {
        return Err(corrupt("unsupported gzip compression method"));
    }
    let flags = data[3];
    let mut pos = 10usize;
    if flags & 0x04 != 0 {
        // FEXTRA
        let xlen = u16::from_le_bytes([data[pos], data[pos + 1]]) as usize;
        pos += 2 + xlen;
    }
    for flag in [0x08u8, 0x10] {
        // FNAME, FCOMMENT: zero-terminated strings.
        if flags & flag != 0 {
            while *data.get(pos).ok_or_else(|| corrupt("gzip header truncated"))? != 0 {
                pos += 1;
            }
            pos += 1;
        }
    }
    if flags & 0x02 != 0 {
        pos += 2; // FHCRC
    }
    if pos + 8 > data.len() {
        return Err(corrupt("gzip header truncated"));
    }
    let (body, tail) = data[pos..].split_at(data.len() - 8 - pos);
    let crc = u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]);
    let isize = u32::from_le_bytes([tail[4], tail[5], tail[6], tail[7]]);
    Ok((body, crc, isize))
}

/// [`gzip_decompress`] with an explicit output cap.
///
/// The trailer's ISIZE sizes the output up front, so an honest member
/// decodes into one allocation; it is only a hint, bounded by `cap` and
/// by what the member's bytes could expand to, and checked afterwards.
///
/// # Errors
///
/// Returns [`crate::Error::DecodedTooLarge`] when the decompressed body
/// would exceed `cap` bytes, or another error on bad framing.
pub fn gzip_decompress_capped(data: &[u8], cap: usize) -> Result<Vec<u8>> {
    let (body, expect_crc, expect_size) = gzip_member(data)?;
    let out = inflate_hinted(body, cap, expect_size as usize)?;
    if crc32(&out) != expect_crc {
        return Err(corrupt("gzip crc mismatch"));
    }
    if out.len() as u32 != expect_size {
        return Err(corrupt("gzip size mismatch"));
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// `Content-Encoding: deflate` (zlib or raw DEFLATE).
// ---------------------------------------------------------------------

/// Adler-32 checksum (RFC 1950, as used by zlib).
pub(crate) fn adler32(data: &[u8]) -> u32 {
    const MOD: u32 = 65_521;
    let mut a: u32 = 1;
    let mut b: u32 = 0;
    // 5552 is the largest n with 255n(n+1)/2 + (n+1)(MOD-1) < 2^32.
    for chunk in data.chunks(5552) {
        for &byte in chunk {
            a += byte as u32;
            b += a;
        }
        a %= MOD;
        b %= MOD;
    }
    (b << 16) | a
}

/// Wraps `data` in a zlib container (RFC 1950, stored-block deflate
/// inside) — the nominal on-wire form of `Content-Encoding: deflate`.
pub fn zlib_compress(data: &[u8]) -> Vec<u8> {
    let mut out = vec![
        0x78, // CM = deflate, CINFO = 7 (32 KiB window)
        0x01, // FLEVEL = fastest, no preset dict; (0x7801 % 31 == 0)
    ];
    out.extend_from_slice(&deflate_stored(data));
    out.extend_from_slice(&adler32(data).to_be_bytes());
    out
}

/// Decompresses a `Content-Encoding: deflate` body.
///
/// RFC 9110 defines `deflate` as a zlib container (RFC 1950), but a
/// long tail of servers sends the raw DEFLATE stream instead — browsers
/// accept both, so we do too: when the first two bytes check out as a
/// zlib header the wrapper is stripped (and the Adler-32 trailer
/// verified when present), otherwise the bytes inflate as-is.
///
/// # Errors
///
/// Returns an error on malformed streams, truncation, checksum
/// mismatch, or output larger than [`MAX_INFLATED`].
pub fn deflate_decompress(data: &[u8]) -> Result<Vec<u8>> {
    deflate_decompress_capped(data, MAX_INFLATED)
}

/// [`deflate_decompress`] with an explicit output cap.
///
/// # Errors
///
/// Returns [`crate::Error::DecodedTooLarge`] when the decompressed body
/// would exceed `cap` bytes, or another error on malformed streams.
pub fn deflate_decompress_capped(data: &[u8], cap: usize) -> Result<Vec<u8>> {
    if data.len() >= 2 {
        let cmf = data[0];
        let flg = data[1];
        let zlib_header = cmf & 0x0f == 8 // CM = deflate
            && cmf >> 4 <= 7 // CINFO ≤ 32 KiB window
            && flg & 0x20 == 0 // no preset dictionary
            && u16::from_be_bytes([cmf, flg]).is_multiple_of(31);
        if zlib_header {
            match inflate_capped(&data[2..], cap) {
                Ok(out) => {
                    // Deflate consumes bits, not bytes; only a full 4-byte
                    // trailer after the compressed stream is checkable.
                    if data.len() >= 6 {
                        let tail = &data[data.len() - 4..];
                        let expect =
                            u32::from_be_bytes([tail[0], tail[1], tail[2], tail[3]]);
                        if adler32(&out) != expect {
                            return Err(corrupt("zlib adler32 mismatch"));
                        }
                    }
                    return Ok(out);
                }
                // A stream that blew the cap as zlib would blow it raw
                // too; don't inflate it a second time to find out.
                Err(e @ crate::Error::DecodedTooLarge { .. }) => return Err(e),
                Err(_) => {}
            }
        }
    }
    inflate_capped(data, cap)
}
