#!/usr/bin/env python3
"""Writes the DEFLATE golden vectors and MANIFEST.tsv beside this file.

    python3 tests/golden/flate/generate.py

Every stream is compressed by stock zlib (Python's `zlib` module) except
two that zlib's compressor cannot produce and that are assembled bit by
bit below: `dist32768.deflate` (its window search stops at 32 768 - 262
bytes) and `single_distance_code.deflate` (it pads a lone distance code
with a second one to keep the code complete; other compressors do not).
Every file, including those two and the hand-framed gzip header, is
decompressed again by stock zlib's inflate before it is written.
"""
import os
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
MASK64 = (1 << 64) - 1


class Rng:
    """xorshift64*: the inputs must not depend on the Python version."""

    def __init__(self, seed):
        self.s = seed

    def next(self):
        s = self.s
        s ^= s >> 12
        s ^= (s << 25) & MASK64
        s ^= s >> 27
        self.s = s
        return (s * 0x2545F4914F6CDD1D) & MASK64

    def below(self, n):
        return self.next() % n

    def bytes(self, n):
        return bytes(self.below(256) for _ in range(n))


WORDS = (
    "the redirect chain landing page exploit kit payload download iframe "
    "script document window location href function return var eval unescape "
    "content refresh url http www example com index html php id session "
    "banner click track pixel width height style display none"
).split()


def html(rng, size):
    out = bytearray(b"<!DOCTYPE html><html><head><title>landing</title></head><body>\n")
    while len(out) < size:
        kind = rng.below(4)
        words = " ".join(WORDS[rng.below(len(WORDS))] for _ in range(3 + rng.below(9)))
        if kind == 0:
            out += b'<a href="http://%s.example.com/%s?id=%d">%s</a>\n' % (
                WORDS[rng.below(len(WORDS))].encode(),
                WORDS[rng.below(len(WORDS))].encode(),
                rng.below(100000),
                words.encode(),
            )
        elif kind == 1:
            out += b"<script>var %s = unescape('%%u%04x%%u%04x');</script>\n" % (
                WORDS[rng.below(len(WORDS))].encode(),
                rng.below(65536),
                rng.below(65536),
            )
        else:
            out += b"<p>" + words.encode() + b"</p>\n"
    return bytes(out[:size])


def raw(data, level, strategy=zlib.Z_DEFAULT_STRATEGY):
    c = zlib.compressobj(level, zlib.DEFLATED, -15, 9, strategy)
    return c.compress(data) + c.flush()


def fnv1a(data):
    """`nettrace::transaction::fnv1a`, multiplier and all (2^44 + 0x1b3)."""
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x1000000001B3) & MASK64
    return h


class BitWriter:
    def __init__(self):
        self.out = bytearray()
        self.acc = 0
        self.n = 0

    def bits(self, value, count):  # LSB first: header and extra-bit fields
        self.acc |= value << self.n
        self.n += count
        while self.n >= 8:
            self.out.append(self.acc & 0xFF)
            self.acc >>= 8
            self.n -= 8

    def code(self, value, count):  # Huffman codes go out MSB first
        for i in reversed(range(count)):
            self.bits((value >> i) & 1, 1)

    def fixed_literal(self, b):
        if b < 144:
            self.code(0x30 + b, 8)
        else:
            self.code(0x190 + b - 144, 9)

    def finish(self):
        if self.n:
            self.bits(0, 8 - self.n)
        return bytes(self.out)


def dist32768():
    """A stored block of 32 768 random bytes, then one fixed-Huffman block
    of 64 length-258 matches at distance 32 768 (distance code 29 with all
    13 extra bits set), a literal, and a length-3 match at the same
    distance."""
    rng = Rng(0x32768)
    window = rng.bytes(32768)
    w = BitWriter()
    w.bits(0, 1)  # BFINAL = 0
    w.bits(0, 2)  # stored
    w.bits(0, 5)  # to the byte boundary
    stream = bytearray(w.out)
    stream += (32768).to_bytes(2, "little") + (32768 ^ 0xFFFF).to_bytes(2, "little") + window
    w = BitWriter()
    w.bits(1, 1)  # BFINAL = 1
    w.bits(1, 2)  # fixed Huffman
    expect = bytearray(window)
    for _ in range(64):
        w.code(0xC5, 8)  # length symbol 285: 258
        w.code(29, 5)  # distance symbol 29: base 24 577
        w.bits(8191, 13)
        expect += expect[-32768 : -32768 + 258]
    w.fixed_literal(0x21)
    expect.append(0x21)
    w.code(1, 7)  # length symbol 257: 3
    w.code(29, 5)
    w.bits(8191, 13)
    expect += expect[-32768 : -32768 + 3]
    w.code(0, 7)  # end of block
    return bytes(stream) + w.finish(), bytes(expect)


def single_distance_code():
    """One dynamic block whose distance code is a single one-bit codeword,
    so half its code space is unassigned: 'a', 40 length-258 matches at
    distance 1, three more 'a's."""
    litlen = [0] * 286
    litlen[ord("a")], litlen[256], litlen[285] = 1, 2, 2  # codes 0, 10, 11
    w = BitWriter()
    w.bits(1, 1)  # BFINAL = 1
    w.bits(2, 2)  # dynamic Huffman
    w.bits(286 - 257, 5)  # HLIT
    w.bits(0, 5)  # HDIST = 1
    w.bits(18 - 4, 4)  # HCLEN
    # Code-length code: symbol 0 in one bit (0), 1 and 2 in two (10, 11).
    order = [16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1]
    for sym in order:
        w.bits({0: 1, 1: 2, 2: 2}.get(sym, 0), 3)
    for length in litlen + [1]:  # and the one distance code, one bit long
        w.code(*{0: (0, 1), 1: (2, 2), 2: (3, 2)}[length])
    w.code(0, 1)  # 'a'
    for _ in range(40):
        w.code(3, 2)  # length symbol 285: 258
        w.code(0, 1)  # distance symbol 0: 1
    for _ in range(3):
        w.code(0, 1)
    w.code(2, 2)  # end of block
    return w.finish(), b"a" * (1 + 40 * 258 + 3)


def gzip_with_header_fields(data, level):
    """gzip member with FEXTRA, FNAME, FCOMMENT and FHCRC set; Python's
    zlib binding cannot ask deflateSetHeader for them, so the header is
    framed here and the whole member is read back by zlib below."""
    head = bytearray(b"\x1f\x8b\x08")
    head.append(0x02 | 0x04 | 0x08 | 0x10)  # FHCRC | FEXTRA | FNAME | FCOMMENT
    head += (1_500_000_000).to_bytes(4, "little")
    head += b"\x02\x03"  # XFL = best compression, OS = unix
    extra = b"DM\x04\x00wire"
    head += len(extra).to_bytes(2, "little") + extra
    head += b"landing.html\x00"
    head += b"golden vector\x00"
    head += (zlib.crc32(bytes(head)) & 0xFFFF).to_bytes(2, "little")
    tail = zlib.crc32(data).to_bytes(4, "little") + (len(data) & 0xFFFFFFFF).to_bytes(4, "little")
    return bytes(head) + raw(data, level) + tail


def multiblock():
    """Dynamic, stored and fixed blocks in one stream, with the empty
    stored blocks that Z_SYNC_FLUSH and Z_FULL_FLUSH leave between them."""
    rng = Rng(4)
    parts = [
        (html(rng, 90_000), zlib.Z_SYNC_FLUSH),
        (rng.bytes(70_000), zlib.Z_FULL_FLUSH),  # incompressible: stored blocks
        (b"short tail", zlib.Z_SYNC_FLUSH),  # too short for a dynamic header: fixed
        (html(rng, 40_000), zlib.Z_FINISH),
    ]
    c = zlib.compressobj(6, zlib.DEFLATED, -15)
    stream = b"".join(c.compress(data) + c.flush(mode) for data, mode in parts)
    return stream, b"".join(data for data, _ in parts)


def overlaps():
    rng = Rng(7)
    out = bytearray()
    for period in (2, 3, 4, 5, 6, 7, 9, 300):
        out += rng.bytes(period) * (4000 // period)
        out += rng.bytes(17)
    return bytes(out)


def main():
    page = html(Rng(1), 65536)
    small = html(Rng(2), 1500)
    vectors = [
        ("html_l1.deflate", raw(page, 1), page),
        ("html_l6.zlib", zlib.compress(page, 6), page),
        ("html_l9_hdr.gz", gzip_with_header_fields(page, 9), page),
        ("multiblock_l6.deflate",) + multiblock(),
        ("dist32768.deflate",) + dist32768(),
        ("single_distance_code.deflate",) + single_distance_code(),
        ("zeros_l9.deflate", raw(bytes(100_000), 9), bytes(100_000)),
        ("overlap_l6.deflate", raw(overlaps(), 6), overlaps()),
        ("small_l9.deflate", raw(small, 9), small),
        ("small_fixed_l6.deflate", raw(small[:120], 6, zlib.Z_FIXED), small[:120]),
    ]
    lines = ["# file\toutput bytes\tnettrace::transaction::fnv1a of the output (hex)"]
    for name, stream, expect in vectors:
        wbits = {"deflate": -15, "zlib": 15, "gz": 31}[name.rsplit(".", 1)[1]]
        assert zlib.decompress(stream, wbits) == expect, name
        with open(os.path.join(HERE, name), "wb") as f:
            f.write(stream)
        lines.append("%s\t%d\t%016x" % (name, len(expect), fnv1a(expect)))
        print("%-24s %7d -> %7d bytes" % (name, len(stream), len(expect)))
    with open(os.path.join(HERE, "MANIFEST.tsv"), "w") as f:
        f.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
