//! Streams that real compressors wrote, through the public decode gate.
//!
//! `tests/golden/flate/` holds DEFLATE streams produced by stock zlib at
//! levels 1, 6 and 9 — raw, zlib-wrapped, and gzip with every optional
//! header field — plus two that zlib's inflate accepts but its compressor
//! never emits (see the README there). `MANIFEST.tsv` pins the length and
//! FNV-1a digest of what each must decode to. The decoder's own unit
//! tests run the same files against the bit-at-a-time reference decoder;
//! this test is the outside view: container in, bytes out.

use nettrace::flate;
use nettrace::transaction::{fnv1a, MAX_DECODED_BODY_BYTES};

const DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/flate");

#[test]
fn golden_vectors_decode_to_their_pinned_digests() {
    let manifest = std::fs::read_to_string(format!("{DIR}/MANIFEST.tsv")).unwrap();
    let mut vectors = 0;
    for line in manifest.lines().filter(|l| !l.starts_with('#')) {
        let fields: Vec<&str> = line.split('\t').collect();
        let [name, len, digest] = fields[..] else {
            panic!("malformed manifest line {line:?}")
        };
        let wire = std::fs::read(format!("{DIR}/{name}")).unwrap();
        let decode: fn(&[u8], usize) -> nettrace::Result<Vec<u8>> = match name.rsplit('.').next() {
            Some("gz") => flate::gzip_decompress_capped,
            // `Content-Encoding: deflate` takes the zlib wrapper or none.
            Some("zlib" | "deflate") => flate::deflate_decompress_capped,
            _ => panic!("{name}: unknown container"),
        };
        let out = decode(&wire, MAX_DECODED_BODY_BYTES).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(out.len(), len.parse::<usize>().unwrap(), "{name}: length");
        assert_eq!(format!("{:016x}", fnv1a(&out)), digest, "{name}: digest");
        // One byte under the output is refused as too large, not as corrupt.
        assert!(
            matches!(
                decode(&wire, out.len() - 1),
                Err(nettrace::Error::DecodedTooLarge { .. })
            ),
            "{name}: cap"
        );
        vectors += 1;
    }
    assert_eq!(vectors, 10);
}
