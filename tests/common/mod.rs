//! Strategies shared by the integration tests.

use std::net::Ipv4Addr;

use nettrace::http::{HeaderMap, Method};
use nettrace::payload::PayloadClass;
use nettrace::reassembly::Endpoint;
use nettrace::HttpTransaction;
use proptest::prelude::*;

/// One transaction of one client over five hosts, any timestamp.
pub fn arb_transaction() -> impl Strategy<Value = HttpTransaction> {
    // "origin.example" matches the Referer host below, so streams can
    // contact an inferred origin node — the rare case that forces the
    // incremental builder down its rebuild path.
    let hosts = prop_oneof![
        Just("a.example.com".to_string()),
        Just("b.example.net".to_string()),
        Just("c.example.org".to_string()),
        Just("198.51.100.7".to_string()),
        Just("origin.example".to_string()),
    ];
    let methods = prop_oneof![Just(Method::Get), Just(Method::Post), Just(Method::Head)];
    let statuses = prop_oneof![
        Just(0u16), Just(200u16), Just(204u16), Just(302u16), Just(404u16), Just(500u16)
    ];
    let classes = prop_oneof![
        Just(PayloadClass::Html),
        Just(PayloadClass::Js),
        Just(PayloadClass::Exe),
        Just(PayloadClass::Image),
        Just(PayloadClass::Empty),
    ];
    (hosts, methods, statuses, classes, 0.0f64..1000.0, 0usize..100_000, any::<bool>()).prop_map(
        |(host, method, status, class, ts, size, with_referer)| {
            let mut req_headers = HeaderMap::new();
            req_headers.append("Host", host.clone());
            if with_referer {
                req_headers.append("Referer", "http://origin.example/start");
            }
            HttpTransaction {
                seq: 0,
                ts,
                resp_ts: ts + 0.05,
                client: Endpoint::new(Ipv4Addr::new(10, 0, 0, 9), 50000),
                server: Endpoint::new(Ipv4Addr::new(203, 0, 113, 1), 80),
                host,
                method,
                uri: "/p/q.html".to_string(),
                req_headers,
                status,
                resp_headers: HeaderMap::new(),
                payload_class: class,
                payload_size: size,
                body_preview: Vec::new(),
                payload_digest: size as u64,
            }
        },
    )
}
