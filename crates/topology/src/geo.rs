//! Geo-distributed (AWS-like) latency and jitter data used by the
//! evaluation.
//!
//! The paper measures inter-region latency/jitter on Amazon EC2 and then
//! reproduces those conditions inside Kollaps:
//!
//! * Table 3 lists the measured latency and jitter from `us-east-1` to
//!   twelve other regions (used for the jitter-accuracy experiment);
//! * the BFT-SMaRt / Wheat reproduction (Figure 9) uses the five regions of
//!   Sousa & Bessani \[78\];
//! * the memcached scalability experiment (Figure 4) uses four regions;
//! * the Cassandra experiments (Figures 10/11) use Frankfurt and Sydney
//!   (and Seoul for the what-if scenario).
//!
//! The EC2 measurements themselves are not available to this reproduction,
//! so the matrices below embed the paper's published numbers where given
//! (Table 3) and publicly documented inter-region RTTs elsewhere; the
//! experiment harness treats them as the "measured on EC2" ground truth.

use kollaps_sim::time::SimDuration;
use kollaps_sim::units::Bandwidth;

use crate::model::{LinkProperties, NodeId, Topology};

/// Latency/jitter from `us-east-1` to each destination region (Table 3).
///
/// Entries are `(region, one-way latency ms, jitter ms)`. The paper reports
/// these as measured RTT-level latencies; the emulation assigns them to the
/// single link of a two-node topology, so we keep the same numbers.
pub const TABLE3_FROM_US_EAST_1: &[(&str, f64, f64)] = &[
    ("us-east-1", 6.0, 0.5607),
    ("us-east-2", 17.0, 1.2411),
    ("ca-central-1", 24.0, 1.2451),
    ("us-west-1", 70.0, 1.3627),
    ("eu-west-1", 78.0, 1.2000),
    ("eu-west-2", 85.0, 1.6609),
    ("eu-north-1", 119.0, 1.2850),
    ("ap-northeast-1", 170.0, 1.4217),
    ("ap-south-1", 194.0, 2.0233),
    ("ap-northeast-2", 200.0, 1.8364),
    ("ap-southeast-2", 208.0, 1.4277),
    ("ap-southeast-1", 249.0, 1.2111),
];

/// A named region participating in a geo-distributed deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Region(pub &'static str);

/// The five regions of the BFT-SMaRt / Wheat experiment \[78\] (Figure 9).
pub const WHEAT_REGIONS: &[Region] = &[
    Region("Oregon"),
    Region("Ireland"),
    Region("Sydney"),
    Region("SaoPaulo"),
    Region("Virginia"),
];

/// The four regions of the memcached scalability experiment (Figure 4).
pub const MEMCACHED_REGIONS: &[Region] = &[
    Region("Frankfurt"),
    Region("Ireland"),
    Region("Virginia"),
    Region("Sydney"),
];

/// One-way latency in milliseconds between two named regions.
///
/// Symmetric; intra-region latency is ~0.3 ms. Values follow publicly
/// documented EC2 inter-region RTTs (halved to one-way).
pub fn one_way_latency_ms(a: Region, b: Region) -> f64 {
    if a == b {
        return 0.3;
    }
    let key = |r: Region| r.0;
    let (x, y) = if key(a) < key(b) {
        (a.0, b.0)
    } else {
        (b.0, a.0)
    };
    let table: &[(&str, &str, f64)] = &[
        // Wheat / Figure 9 regions.
        ("Ireland", "Oregon", 62.0),
        ("Ireland", "SaoPaulo", 92.0),
        ("Ireland", "Sydney", 140.0),
        ("Ireland", "Virginia", 38.0),
        ("Oregon", "SaoPaulo", 91.0),
        ("Oregon", "Sydney", 70.0),
        ("Oregon", "Virginia", 36.0),
        ("SaoPaulo", "Sydney", 160.0),
        ("SaoPaulo", "Virginia", 60.0),
        ("Sydney", "Virginia", 102.0),
        // Additional regions for the memcached and Cassandra experiments.
        ("Frankfurt", "Ireland", 12.0),
        ("Frankfurt", "Virginia", 44.0),
        ("Frankfurt", "Sydney", 145.0),
        ("Frankfurt", "SaoPaulo", 102.0),
        ("Frankfurt", "Oregon", 79.0),
        ("Frankfurt", "Seoul", 118.0),
        ("Ireland", "Seoul", 120.0),
        ("Seoul", "Sydney", 72.0),
        ("Seoul", "Virginia", 92.0),
        ("Ireland", "Sydney2", 140.0),
    ];
    for (p, q, ms) in table {
        if *p == x && *q == y {
            return *ms;
        }
    }
    // Fall back to a conservative intercontinental latency so an unknown
    // pair never silently becomes a zero-latency link.
    100.0
}

/// Typical jitter (ms) applied to an inter-region link of the given latency,
/// following the shape of Table 3 (jitter grows slowly with distance).
pub fn typical_jitter_ms(latency_ms: f64) -> f64 {
    0.5 + latency_ms * 0.007
}

/// A geo-distributed topology: one bridge per region, inter-region links
/// with the latencies above, and `services_per_region` containers attached
/// to each regional bridge.
///
/// Returns the topology plus, for each region (in input order), the node
/// ids of its services.
pub fn build_geo_topology(
    regions: &[Region],
    services_per_region: usize,
    inter_region_bandwidth: Bandwidth,
    image: &str,
) -> (Topology, Vec<Vec<NodeId>>) {
    let mut topo = Topology::new();
    let mut bridges = Vec::new();
    for region in regions {
        bridges.push(topo.add_bridge(&format!("br-{}", region.0)));
    }
    // Full mesh between regional bridges.
    for i in 0..regions.len() {
        for j in (i + 1)..regions.len() {
            let lat = one_way_latency_ms(regions[i], regions[j]);
            let props =
                LinkProperties::new(SimDuration::from_millis_f64(lat), inter_region_bandwidth)
                    .with_jitter(SimDuration::from_millis_f64(typical_jitter_ms(lat)));
            topo.add_bidirectional_link(bridges[i], bridges[j], props, "geo");
        }
    }
    // Services attach to their regional bridge over a fast local link.
    let mut per_region = Vec::new();
    for (i, region) in regions.iter().enumerate() {
        let mut ids = Vec::new();
        for r in 0..services_per_region {
            let id = topo.add_service(&format!("{}-{}", region.0, r), 0, image);
            let props =
                LinkProperties::new(SimDuration::from_millis_f64(0.3), Bandwidth::from_gbps(10));
            topo.add_bidirectional_link(id, bridges[i], props, "geo");
            ids.push(id);
        }
        per_region.push(ids);
    }
    (topo, per_region)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{PathProperties, TopologyGraph};

    #[test]
    fn table3_has_twelve_destinations() {
        assert_eq!(TABLE3_FROM_US_EAST_1.len(), 12);
        // Latency grows monotonically in the paper's ordering.
        for w in TABLE3_FROM_US_EAST_1.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn latency_matrix_is_symmetric_and_positive() {
        for &a in WHEAT_REGIONS {
            for &b in WHEAT_REGIONS {
                let ab = one_way_latency_ms(a, b);
                let ba = one_way_latency_ms(b, a);
                assert_eq!(ab, ba);
                assert!(ab > 0.0);
                if a == b {
                    assert!(ab < 1.0);
                }
            }
        }
    }

    #[test]
    fn geo_topology_end_to_end_latency_matches_matrix() {
        let (topo, per_region) =
            build_geo_topology(WHEAT_REGIONS, 1, Bandwidth::from_mbps(1_000), "bft-smart");
        assert_eq!(per_region.len(), 5);
        let g = TopologyGraph::new(&topo);
        let oregon = per_region[0][0];
        let ireland = per_region[1][0];
        let path = g.shortest_path_tree(oregon).path_to(ireland).unwrap();
        let p = PathProperties::compose(&topo, &path).unwrap();
        // 0.3 (access) + 62 (inter-region) + 0.3 (access) ms.
        let expected = 62.0 + 0.6;
        assert!((p.latency.as_millis_f64() - expected).abs() < 1e-6);
    }

    #[test]
    fn jitter_grows_with_distance() {
        assert!(typical_jitter_ms(200.0) > typical_jitter_ms(10.0));
        assert!(typical_jitter_ms(6.0) > 0.0);
    }

    #[test]
    fn unknown_pairs_fall_back_conservatively() {
        let lat = one_way_latency_ms(Region("Atlantis"), Region("Mu"));
        assert_eq!(lat, 100.0);
    }
}
