//! Deterministic generation of hostnames, IPs, URIs, and payload bodies.

use std::net::Ipv4Addr;

use nettrace::payload::PayloadClass;
use rand::Rng;

/// Top-level domains used when synthesizing hostnames, weighted toward the
/// mix observed in exploit-kit infrastructure (cheap TLDs dominate).
const TLDS: [&str; 8] = ["com", "net", "org", "info", "biz", "ru", "top", "xyz"];

/// Word stems for plausible-looking domains.
const STEMS: [&str; 16] = [
    "media", "cloud", "track", "stat", "cdn", "img", "update", "secure", "portal", "shop",
    "news", "game", "video", "host", "data", "web",
];

/// Generates a pseudo-random domain name, e.g. `stat-k3f9.example.ru`.
pub(crate) fn random_domain<R: Rng>(rng: &mut R) -> String {
    let stem = STEMS[rng.gen_range(0..STEMS.len())];
    let tld = TLDS[rng.gen_range(0..TLDS.len())];
    format!("{stem}-{}.{tld}", random_token(rng, 4))
}

/// Generates a compromised-WordPress-style domain (the paper traces 56/94
/// compromised-site enticements to default WordPress installs).
pub(crate) fn compromised_domain<R: Rng>(rng: &mut R) -> String {
    let stem = STEMS[rng.gen_range(0..STEMS.len())];
    format!("{stem}{}.com", random_token(rng, 3))
}

/// A routable-looking public IPv4 address (avoids private ranges).
pub(crate) fn random_public_ip<R: Rng>(rng: &mut R) -> Ipv4Addr {
    loop {
        let a = rng.gen_range(1..224u8);
        if a == 10 || a == 127 || a == 172 || a == 192 {
            continue;
        }
        return Ipv4Addr::new(a, rng.gen_range(0..=255), rng.gen_range(0..=255), rng.gen_range(1..=254));
    }
}

/// Lowercase alphanumeric token of length `len`.
pub(crate) fn random_token<R: Rng>(rng: &mut R, len: usize) -> String {
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
    (0..len).map(|_| CHARS[rng.gen_range(0..CHARS.len())] as char).collect()
}

/// Exploit-kit landing URI: long path plus a high-entropy query string
/// (drives the Average-URI-Length feature the way real EK landings do).
pub(crate) fn landing_uri<R: Rng>(rng: &mut R) -> String {
    let dir = random_token(rng, 6);
    let page = random_token(rng, 8);
    let k1 = random_token(rng, 4);
    let v1_len = rng.gen_range(24..64);
    let v1 = random_token(rng, v1_len);
    let k2 = random_token(rng, 4);
    let v2_len = rng.gen_range(16..48);
    let v2 = random_token(rng, v2_len);
    format!("/{dir}/{page}.php?{k1}={v1}&{k2}={v2}")
}

/// Benign page URI: usually a short path, sometimes a tracking-laden
/// query string long enough to overlap the exploit-kit landing range
/// (real benign URLs carry UTM parameters, search queries, and session
/// tokens, so URI length alone must not separate the classes).
pub(crate) fn benign_uri<R: Rng>(rng: &mut R) -> String {
    match rng.gen_range(0..10) {
        0..=2 => format!("/{}?id={}", random_token(rng, 6), rng.gen_range(1..10_000)),
        3..=4 => {
            let path = random_token(rng, 6);
            let utm_len = rng.gen_range(20..70);
            let utm = random_token(rng, utm_len);
            format!("/{path}?utm_source=news&utm_campaign={utm}&ref=home")
        }
        _ => format!("/{}/{}.html", random_token(rng, 5), random_token(rng, 6)),
    }
}

/// URI for a payload of class `class`, e.g. `/files/k3j9d.exe`.
pub(crate) fn payload_uri<R: Rng>(rng: &mut R, class: PayloadClass) -> String {
    let ext = match class {
        PayloadClass::Pdf => "pdf",
        PayloadClass::Exe => "exe",
        PayloadClass::Jar => "jar",
        PayloadClass::Swf => "swf",
        PayloadClass::Xap => "xap",
        PayloadClass::Dmg => "dmg",
        PayloadClass::Crypt => {
            let exts = nettrace::payload::RANSOMWARE_EXTENSIONS;
            exts[rng.gen_range(0..exts.len())]
        }
        PayloadClass::Js => "js",
        PayloadClass::Html => "html",
        PayloadClass::Css => "css",
        PayloadClass::Image => "png",
        PayloadClass::Archive => "zip",
        PayloadClass::Json => "json",
        PayloadClass::Text => "txt",
        PayloadClass::Other | PayloadClass::Empty => "bin",
    };
    format!("/{}/{}.{ext}", random_token(rng, 5), random_token(rng, 7))
}

/// The `Content-Type` header value typically served for `class`.
pub(crate) fn content_type_for(class: PayloadClass) -> &'static str {
    match class {
        PayloadClass::Pdf => "application/pdf",
        PayloadClass::Exe => "application/x-msdownload",
        PayloadClass::Jar => "application/java-archive",
        PayloadClass::Swf => "application/x-shockwave-flash",
        PayloadClass::Xap => "application/x-silverlight-app",
        PayloadClass::Dmg => "application/x-apple-diskimage",
        PayloadClass::Crypt => "application/octet-stream",
        PayloadClass::Js => "application/javascript",
        PayloadClass::Html => "text/html",
        PayloadClass::Css => "text/css",
        PayloadClass::Image => "image/png",
        PayloadClass::Archive => "application/zip",
        PayloadClass::Json => "application/json",
        PayloadClass::Text => "text/plain",
        PayloadClass::Other => "application/octet-stream",
        PayloadClass::Empty => "text/plain",
    }
}

/// Synthesizes a payload body of up to `materialize` bytes with the right
/// magic bytes for `class`, filled with seeded pseudo-random content so
/// every payload gets a distinct digest.
pub(crate) fn payload_body<R: Rng>(
    rng: &mut R,
    class: PayloadClass,
    materialize: usize,
) -> Vec<u8> {
    let magic: &[u8] = match class {
        PayloadClass::Pdf => b"%PDF-1.5\n",
        PayloadClass::Exe | PayloadClass::Dmg => b"MZ\x90\x00",
        PayloadClass::Jar => &[0xca, 0xfe, 0xba, 0xbe],
        PayloadClass::Swf => b"CWS\x0b",
        PayloadClass::Image => &[0x89, b'P', b'N', b'G'],
        PayloadClass::Html => b"<!DOCTYPE html><html>",
        PayloadClass::Js => b"(function(){",
        PayloadClass::Empty => return Vec::new(),
        _ => b"\x00SYN",
    };
    let mut body = magic.to_vec();
    while body.len() < materialize {
        body.push(rng.gen());
    }
    body.truncate(materialize.max(magic.len()));
    body
}

/// Typical payload size ranges in bytes per class (log-uniform sample).
pub(crate) fn payload_size<R: Rng>(rng: &mut R, class: PayloadClass) -> usize {
    let (lo, hi): (f64, f64) = match class {
        PayloadClass::Pdf => (20e3, 2e6),
        PayloadClass::Exe => (50e3, 3e6),
        PayloadClass::Jar => (10e3, 500e3),
        PayloadClass::Swf => (5e3, 300e3),
        PayloadClass::Xap => (20e3, 400e3),
        PayloadClass::Dmg => (1e6, 50e6),
        PayloadClass::Crypt => (30e3, 2e6),
        PayloadClass::Js => (500.0, 100e3),
        PayloadClass::Html => (1e3, 200e3),
        PayloadClass::Css => (300.0, 50e3),
        PayloadClass::Image => (500.0, 500e3),
        PayloadClass::Archive => (10e3, 10e6),
        PayloadClass::Json => (100.0, 20e3),
        PayloadClass::Text => (50.0, 10e3),
        PayloadClass::Other => (100.0, 1e6),
        PayloadClass::Empty => return 0,
    };
    let ln = rng.gen_range(lo.ln()..hi.ln());
    ln.exp() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn domains_are_plausible_and_deterministic() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(1);
        let da = random_domain(&mut a);
        let db = random_domain(&mut b);
        assert_eq!(da, db);
        assert!(da.contains('.'));
        assert!(da.is_ascii());
    }

    #[test]
    fn public_ips_avoid_private_ranges() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..200 {
            let ip = random_public_ip(&mut rng);
            assert!(!ip.is_private(), "{ip}");
            assert!(!ip.is_loopback());
        }
    }

    #[test]
    fn landing_uris_are_long() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            assert!(landing_uri(&mut rng).len() > 50);
        }
    }

    #[test]
    fn payload_bodies_classify_back_to_their_class() {
        let mut rng = StdRng::seed_from_u64(4);
        for class in [
            PayloadClass::Pdf,
            PayloadClass::Exe,
            PayloadClass::Jar,
            PayloadClass::Swf,
            PayloadClass::Image,
        ] {
            let body = payload_body(&mut rng, class, 256);
            let uri = payload_uri(&mut rng, class);
            let got = nettrace::payload::classify(&uri, Some(content_type_for(class)), body.len(), &body);
            assert_eq!(got, class, "class {class}");
        }
    }

    #[test]
    fn crypt_uris_use_ransomware_extensions() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let uri = payload_uri(&mut rng, PayloadClass::Crypt);
            let ext = nettrace::payload::uri_extension(&uri).unwrap();
            assert!(nettrace::payload::is_ransomware_extension(&ext), "{uri}");
        }
    }

    #[test]
    fn payload_sizes_respect_ranges() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..100 {
            let s = payload_size(&mut rng, PayloadClass::Exe);
            assert!((50_000..=3_000_000).contains(&s), "{s}");
        }
        assert_eq!(payload_size(&mut rng, PayloadClass::Empty), 0);
    }

    #[test]
    fn bodies_differ_between_draws() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = payload_body(&mut rng, PayloadClass::Exe, 128);
        let b = payload_body(&mut rng, PayloadClass::Exe, 128);
        assert_ne!(a, b);
    }
}
