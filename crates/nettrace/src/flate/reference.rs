//! The bit-at-a-time decoder and checksums the table-driven kernels
//! replaced, kept as the differential oracle: one bounds-checked byte
//! load per bit, puff-style canonical decode, no tables to get wrong.
//! [`Shape`] additionally records what a stream is made of, so the golden
//! vectors can prove they contain what their names say.

use super::{corrupt, CLC_ORDER, DIST_BASE, DIST_EXTRA, LENGTH_BASE, LENGTH_EXTRA};
use crate::Result;

struct BitReader<'a> {
    data: &'a [u8],
    byte: usize,
    bit: u32,
}

impl<'a> BitReader<'a> {
    fn read_bit(&mut self) -> Result<u32> {
        let b = *self
            .data
            .get(self.byte)
            .ok_or_else(|| corrupt("unexpected end of input"))?;
        let v = (b >> self.bit) & 1;
        self.bit += 1;
        if self.bit == 8 {
            self.bit = 0;
            self.byte += 1;
        }
        Ok(v as u32)
    }

    fn read_bits(&mut self, n: u32) -> Result<u32> {
        let mut v = 0u32;
        for i in 0..n {
            v |= self.read_bit()? << i;
        }
        Ok(v)
    }

    fn align(&mut self) {
        if self.bit != 0 {
            self.bit = 0;
            self.byte += 1;
        }
    }

    fn take_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        let start = self.byte;
        let end = start
            .checked_add(n)
            .ok_or_else(|| corrupt("length overflow"))?;
        if end > self.data.len() {
            return Err(corrupt("stored block truncated"));
        }
        self.byte = end;
        Ok(&self.data[start..end])
    }
}

struct Huffman {
    counts: [u16; 16],
    symbols: Vec<u16>,
}

impl Huffman {
    fn from_lengths(lengths: &[u8]) -> Result<Huffman> {
        let mut counts = [0u16; 16];
        for &l in lengths {
            counts[l as usize] += 1;
        }
        counts[0] = 0;
        let mut left = 1i32;
        for &count in &counts[1..16] {
            left <<= 1;
            left -= count as i32;
            if left < 0 {
                return Err(corrupt("over-subscribed code"));
            }
        }
        let mut offsets = [0u16; 16];
        for len in 1..15 {
            offsets[len + 1] = offsets[len] + counts[len];
        }
        let mut symbols = vec![0u16; lengths.iter().filter(|&&l| l > 0).count()];
        for (sym, &l) in lengths.iter().enumerate() {
            if l > 0 {
                symbols[offsets[l as usize] as usize] = sym as u16;
                offsets[l as usize] += 1;
            }
        }
        Ok(Huffman { counts, symbols })
    }

    fn is_complete(&self) -> bool {
        (1..16)
            .map(|len| (self.counts[len] as u32) << (15 - len))
            .sum::<u32>()
            == 1 << 15
    }

    fn decode(&self, r: &mut BitReader<'_>) -> Result<u16> {
        let mut code = 0i32;
        let mut first = 0i32;
        let mut index = 0i32;
        for len in 1..16 {
            code |= r.read_bit()? as i32;
            let count = self.counts[len] as i32;
            if code - first < count {
                return Ok(self.symbols[(index + (code - first)) as usize]);
            }
            index += count;
            first = (first + count) << 1;
            code <<= 1;
        }
        Err(corrupt("invalid huffman code"))
    }
}

/// The symbol the canonical code with these `lengths` reads off `bits`
/// (first bit lowest) and the bits it took, or `None` where no codeword
/// matches.
pub(super) fn decode_symbol(lengths: &[u8], bits: u16) -> Option<(u16, u32)> {
    let code = Huffman::from_lengths(lengths).expect("a code that is not over-subscribed");
    let bytes = bits.to_le_bytes();
    let mut r = BitReader {
        data: &bytes,
        byte: 0,
        bit: 0,
    };
    let sym = code.decode(&mut r).ok()?;
    Some((sym, r.byte as u32 * 8 + r.bit))
}

/// What a stream exercised, counted as the reference walks it.
#[derive(Debug, Default, PartialEq, Eq)]
pub(super) struct Shape {
    pub stored_blocks: usize,
    pub fixed_blocks: usize,
    pub dynamic_blocks: usize,
    /// Dynamic blocks whose distance code leaves code space unassigned.
    pub incomplete_distance_codes: usize,
    pub matches: usize,
    pub max_distance: usize,
    pub max_length: usize,
    /// Matches that read bytes they are themselves writing.
    pub overlapping_matches: usize,
}

pub(super) fn inflate_capped(data: &[u8], cap: usize) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    inflate_to(data, cap, &mut out, &mut Shape::default())?;
    Ok(out)
}

/// The decoder as it was, except that the output and the stream's shape
/// outlive an error, so a test can see how far a failed stream got.
pub(super) fn inflate_to(
    data: &[u8],
    cap: usize,
    out: &mut Vec<u8>,
    shape: &mut Shape,
) -> Result<()> {
    let mut r = BitReader {
        data,
        byte: 0,
        bit: 0,
    };
    loop {
        let bfinal = r.read_bit()?;
        let btype = r.read_bits(2)?;
        match btype {
            0 => {
                shape.stored_blocks += 1;
                r.align();
                let header = r.take_bytes(4)?;
                let len = u16::from_le_bytes([header[0], header[1]]) as usize;
                let nlen = u16::from_le_bytes([header[2], header[3]]);
                if nlen != !(len as u16) {
                    return Err(corrupt("stored block LEN/NLEN mismatch"));
                }
                out.extend_from_slice(r.take_bytes(len)?);
            }
            1 => {
                shape.fixed_blocks += 1;
                let mut lengths = [8u8; 288];
                lengths[144..256].fill(9);
                lengths[256..280].fill(7);
                let lit = Huffman::from_lengths(&lengths)?;
                let dist = Huffman::from_lengths(&[5u8; 30])?;
                inflate_block(&mut r, &lit, &dist, out, cap, shape)?;
            }
            2 => {
                shape.dynamic_blocks += 1;
                let hlit = r.read_bits(5)? as usize + 257;
                let hdist = r.read_bits(5)? as usize + 1;
                let hclen = r.read_bits(4)? as usize + 4;
                if hlit > 286 || hdist > 30 {
                    return Err(corrupt("dynamic header out of range"));
                }
                let mut clc_lengths = [0u8; 19];
                for &pos in CLC_ORDER.iter().take(hclen) {
                    clc_lengths[pos] = r.read_bits(3)? as u8;
                }
                let clc = Huffman::from_lengths(&clc_lengths)?;
                let mut lengths = vec![0u8; hlit + hdist];
                let mut i = 0usize;
                while i < lengths.len() {
                    let sym = clc.decode(&mut r)?;
                    match sym {
                        0..=15 => {
                            lengths[i] = sym as u8;
                            i += 1;
                        }
                        16 => {
                            if i == 0 {
                                return Err(corrupt("repeat with no previous length"));
                            }
                            let prev = lengths[i - 1];
                            let times = 3 + r.read_bits(2)? as usize;
                            for _ in 0..times {
                                if i >= lengths.len() {
                                    return Err(corrupt("repeat past table end"));
                                }
                                lengths[i] = prev;
                                i += 1;
                            }
                        }
                        17 | 18 => {
                            let times = if sym == 17 {
                                3 + r.read_bits(3)? as usize
                            } else {
                                11 + r.read_bits(7)? as usize
                            };
                            if i + times > lengths.len() {
                                return Err(corrupt("zero-run past table end"));
                            }
                            i += times;
                        }
                        _ => return Err(corrupt("bad code-length symbol")),
                    }
                }
                if lengths[256] == 0 {
                    return Err(corrupt("missing end-of-block code"));
                }
                let lit = Huffman::from_lengths(&lengths[..hlit])?;
                let dist = Huffman::from_lengths(&lengths[hlit..])?;
                if !dist.is_complete() {
                    shape.incomplete_distance_codes += 1;
                }
                inflate_block(&mut r, &lit, &dist, out, cap, shape)?;
            }
            _ => return Err(corrupt("reserved block type")),
        }
        if out.len() > cap {
            return Err(crate::Error::DecodedTooLarge { cap });
        }
        if bfinal == 1 {
            return Ok(());
        }
    }
}

fn inflate_block(
    r: &mut BitReader<'_>,
    lit: &Huffman,
    dist: &Huffman,
    out: &mut Vec<u8>,
    cap: usize,
    shape: &mut Shape,
) -> Result<()> {
    loop {
        let sym = lit.decode(r)?;
        match sym {
            0..=255 => out.push(sym as u8),
            256 => return Ok(()),
            257..=285 => {
                let idx = (sym - 257) as usize;
                let len =
                    LENGTH_BASE[idx] as usize + r.read_bits(LENGTH_EXTRA[idx] as u32)? as usize;
                let dsym = dist.decode(r)? as usize;
                if dsym >= 30 {
                    return Err(corrupt("bad distance code"));
                }
                let distance =
                    DIST_BASE[dsym] as usize + r.read_bits(DIST_EXTRA[dsym] as u32)? as usize;
                if distance > out.len() {
                    return Err(corrupt("distance beyond output"));
                }
                shape.matches += 1;
                shape.max_distance = shape.max_distance.max(distance);
                shape.max_length = shape.max_length.max(len);
                shape.overlapping_matches += usize::from(distance < len);
                let start = out.len() - distance;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
                if out.len() > cap {
                    return Err(crate::Error::DecodedTooLarge { cap });
                }
            }
            _ => return Err(corrupt("bad literal/length symbol")),
        }
    }
}

/// CRC-32 one bit at a time, straight from the polynomial.
pub(super) fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

/// Adler-32 one byte at a time, reduced after every byte.
pub(super) fn adler32(data: &[u8]) -> u32 {
    let (mut a, mut b) = (1u32, 0u32);
    for &byte in data {
        a = (a + byte as u32) % 65_521;
        b = (b + a) % 65_521;
    }
    (b << 16) | a
}
