//! Wire-ingress telemetry: one `wire_*` counter per [`SourceStats`]
//! field, plus a per-reason family for PROXY-protocol handshake
//! rejects.
//!
//! Both functions *add* a source's cumulative totals, so they are
//! called once, by whoever owns the concrete source and the registry,
//! after the run loop has shut the source down and its counters are
//! final.

use std::collections::BTreeMap;

use nettrace::source::SourceStats;
use telemetry::Registry;

/// Publishes a finished source's counters.
pub fn publish_source(registry: &Registry, stats: &SourceStats) {
    let families = [
        ("wire_connections_total", "Connections (or capture flows) observed", stats.connections),
        ("wire_bytes_in_total", "Application-layer bytes taken off the wire", stats.bytes_in),
        ("wire_transactions_total", "Transactions emitted by the wire source", stats.transactions),
        (
            "wire_tap_overflows_total",
            "Connections whose observation was abandoned on a full tap buffer",
            stats.tap_overflows,
        ),
        (
            "wire_source_drops_total",
            "Input units lost before HTTP parsing (kernel drops, rejected connections)",
            stats.source_drops,
        ),
    ];
    for (name, help, total) in families {
        registry.counter(name, help).add(total);
    }
}

/// Publishes a finished proxy's PROXY-protocol handshake rejects
/// ([`ProxySource::proxyproto_rejects`](crate::ProxySource::proxyproto_rejects)):
/// one `wire_proxyproto_reject_{reason}_total` family per slug of
/// [`ProxyProtoError::reasons`](nettrace::proxyproto::ProxyProtoError::reasons),
/// zero or not, so dashboards need not guess which exist.
pub fn publish_proxyproto_rejects(registry: &Registry, rejects: &BTreeMap<&'static str, u64>) {
    for reason in nettrace::proxyproto::ProxyProtoError::reasons() {
        registry
            .counter(
                &format!("wire_proxyproto_reject_{reason}_total"),
                "Connections rejected at the PROXY-protocol handshake, by reason",
            )
            .add(rejects.get(reason).copied().unwrap_or(0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter_value(registry: &Registry, name: &str) -> u64 {
        registry.snapshot().counters.get(name).copied().unwrap_or(u64::MAX)
    }

    #[test]
    fn source_counters_land_in_their_families() {
        let registry = Registry::new();
        let stats = SourceStats {
            bytes_in: 100,
            transactions: 3,
            connections: 2,
            tap_overflows: 1,
            source_drops: 0,
        };
        publish_source(&registry, &stats);
        assert_eq!(counter_value(&registry, "wire_bytes_in_total"), 100);
        assert_eq!(counter_value(&registry, "wire_transactions_total"), 3);
        assert_eq!(counter_value(&registry, "wire_connections_total"), 2);
        assert_eq!(counter_value(&registry, "wire_tap_overflows_total"), 1);
        assert_eq!(counter_value(&registry, "wire_source_drops_total"), 0);
    }

    #[test]
    fn reject_counters_exist_per_reason() {
        let registry = Registry::new();
        let mut rejects: BTreeMap<&'static str, u64> = BTreeMap::new();
        rejects.insert("malformed", 2);
        publish_proxyproto_rejects(&registry, &rejects);
        assert_eq!(counter_value(&registry, "wire_proxyproto_reject_malformed_total"), 2);
        // Every reason slug has a family, even at zero.
        for reason in nettrace::proxyproto::ProxyProtoError::reasons() {
            let name = format!("wire_proxyproto_reject_{reason}_total");
            assert_ne!(counter_value(&registry, &name), u64::MAX, "missing family {name}");
        }
    }
}
