//! Self-tests of the instrument, smoke-sized (every horizon ÷ 10).

use std::collections::HashSet;

use kollaps_benchmark::catalog::{END_TO_END, PER_LAYER};
use kollaps_benchmark::probe::Probe;
use kollaps_benchmark::run::{self, Budget};
use kollaps_benchmark::workloads::{Spec, WORKLOADS};
use kollaps_core::{Addressable, Dataplane, KollapsDataplane, Runtime};
use kollaps_sim::prelude::*;
use kollaps_topology::generators;
use kollaps_transport::tcp::{TcpSenderConfig, TransferSize};
use serde_json::Value;

// Installed so that the heap metrics read non-zero; their exact values are
// checked in `determinism.rs`, whose single test has the counters to itself.
#[global_allocator]
static ALLOCATOR: kollaps_benchmark::heap::Counting = kollaps_benchmark::heap::Counting;

const SMOKE: u64 = 10;

fn spec(name: &str, seed: u64) -> Spec {
    Spec::generate(name, seed, SMOKE).expect("known workload")
}

/// Drives a small mixed UDP/TCP flow set over `wrap(dataplane)` and returns
/// the delivered bytes per flow.
fn drive<D: Dataplane>(wrap: impl FnOnce(KollapsDataplane) -> D) -> Vec<u64> {
    let (topology, clients, servers) = generators::dumbbell(
        4,
        Bandwidth::from_mbps(100),
        Bandwidth::from_mbps(20),
        SimDuration::from_millis(1),
        SimDuration::from_millis(10),
    );
    let dataplane = KollapsDataplane::with_defaults(topology, 2);
    let addr = |node| dataplane.address_of_node(node).expect("service");
    let pairs: Vec<_> = clients
        .iter()
        .zip(&servers)
        .map(|(&c, &s)| (addr(c), addr(s)))
        .collect();
    let mut rt = Runtime::new(wrap(dataplane));
    let end = SimTime::from_secs(2);
    let udp: Vec<_> = pairs[..2]
        .iter()
        .map(|&(c, s)| rt.add_udp_flow(c, s, Bandwidth::from_mbps(8), SimTime::ZERO, Some(end)))
        .collect();
    let tcp: Vec<_> = pairs[2..]
        .iter()
        .map(|&(c, s)| {
            rt.add_tcp_flow(
                c,
                s,
                TransferSize::Unbounded,
                TcpSenderConfig::default(),
                SimTime::ZERO,
            )
        })
        .collect();
    let _ = rt.run_until(end);
    udp.iter()
        .map(|&f| rt.udp_delivered_bytes(f))
        .chain(tcp.iter().map(|&f| rt.tcp_received_bytes(f)))
        .collect()
}

#[test]
fn probe_is_transparent() {
    let bare = drive(|dp| dp);
    let probed = drive(Probe::new);
    assert!(
        bare.iter().all(|&bytes| bytes > 0),
        "every flow moved data: {bare:?}"
    );
    assert_eq!(
        bare, probed,
        "Runtime<Probe<D>> must deliver what Runtime<D> delivers"
    );
}

#[test]
fn layered_pass_is_faithful_and_its_ledger_adds_up() {
    for name in WORKLOADS {
        let result = run::per_layer(&spec(name, 1), Budget::Passes(1));
        assert!(
            result.faithful,
            "{name}: layered goodput differs from the untraced report"
        );
        assert!(
            result.ledger_ok,
            "{name}: ledger covers {:.2}% of the pass",
            result.metrics["ledger.coverage_pct"].median
        );
        assert_eq!(result.outcome.failed, 0, "{name}: failed operations");
        for (metric, _) in PER_LAYER {
            let value = result.metrics.get(metric).map(|q| q.median);
            assert!(
                value.is_some_and(f64::is_finite),
                "{name}: per-layer metric `{metric}` missing or not finite: {value:?}"
            );
        }
    }
}

#[test]
fn digests_follow_the_seed() {
    for name in WORKLOADS {
        let run = |seed| run::end_to_end(&[spec(name, seed)], Budget::Passes(1)).remove(0);
        let (a, b, other) = (run(1), run(1), run(2));
        assert_eq!(a.outcome, b.outcome, "{name}: same seed, different outcome");
        assert_ne!(
            a.outcome.digest, other.outcome.digest,
            "{name}: different seeds, same digest"
        );
        for (metric, _) in END_TO_END {
            let value = a.metrics.get(metric).map(|q| q.median);
            assert!(
                value.is_some_and(|v| v.is_finite() && v != 0.0),
                "{name}: end-to-end metric `{metric}` missing, zero or not finite: {value:?}"
            );
        }
    }
}

fn names_of(list: &Value) -> Vec<(String, String)> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|entry| {
            let text = |key| {
                entry
                    .get(key)
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (text("name"), text("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_names_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let benchmark = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    let end_to_end = names_of(benchmark.get("end_to_end").expect("end_to_end"));
    let per_layer = names_of(benchmark.get("per_layer").expect("per_layer"));
    assert_eq!(end_to_end, own(&END_TO_END));
    assert_eq!(per_layer, own(&PER_LAYER));
    let workloads: Vec<String> = names_of(benchmark.get("workloads").expect("workloads"))
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    assert_eq!(workloads, WORKLOADS);

    let mut seen = HashSet::new();
    for (name, unit) in end_to_end.iter().chain(&per_layer) {
        let legal = |s: &str, extra: &str| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        assert!(
            legal(name, "_.-") && name.len() <= 64,
            "illegal metric name `{name}`"
        );
        assert!(
            legal(unit, "_/%.-") && unit.len() <= 16,
            "illegal unit `{unit}` of `{name}`"
        );
        assert!(seen.insert(name.clone()), "metric name `{name}` used twice");
    }
    for name in &workloads {
        assert!(
            seen.insert(name.clone()),
            "workload name `{name}` collides with a metric"
        );
    }
    for metric in benchmark
        .get("end_to_end")
        .and_then(Value::as_array)
        .expect("list")
    {
        let bound = metric.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
    }
}
