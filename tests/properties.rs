//! Property-based tests over the core invariants of the reproduction.

use std::collections::BTreeMap;

use proptest::prelude::*;

use kollaps::core::sharing::{allocate, FlowDemand};
use kollaps::metadata::codec::{FlowUsage, MetadataMessage};
use kollaps::scenario::{Scenario, ScenarioError, Workload};
use kollaps::sim::prelude::*;
use kollaps::topology::dsl::parse_bandwidth;
use kollaps::topology::generators;
use kollaps::topology::graph::{PathProperties, TopologyGraph};
use kollaps::topology::model::{LinkId, LinkProperties, Topology};

proptest! {
    /// The share solver never oversubscribes a link and never hands out
    /// negative bandwidth, whatever the flow set looks like.
    #[test]
    fn sharing_never_oversubscribes(
        n_flows in 1usize..12,
        n_links in 1usize..8,
        caps in proptest::collection::vec(1u64..1_000, 1..8),
        rtts in proptest::collection::vec(1u64..400, 1..12),
    ) {
        let capacities: BTreeMap<LinkId, Bandwidth> = (0..n_links)
            .map(|i| (LinkId(i as u32), Bandwidth::from_mbps(caps[i % caps.len()])))
            .collect();
        let flows: Vec<FlowDemand> = (0..n_flows)
            .map(|i| FlowDemand {
                id: i as u64,
                links: vec![LinkId((i % n_links) as u32), LinkId(((i * 3 + 1) % n_links) as u32)],
                rtt: SimDuration::from_millis(rtts[i % rtts.len()]),
                demand: Bandwidth::from_mbps(2_000),
            })
            .collect();
        let allocation = allocate(&flows, &capacities);
        for (&link, &cap) in &capacities {
            let used: f64 = flows
                .iter()
                .filter(|f| f.links.contains(&link))
                .map(|f| allocation.of(f.id).as_mbps())
                .sum();
            prop_assert!(used <= cap.as_mbps() * 1.001 + 0.001,
                "link {link:?} oversubscribed: {used} > {}", cap.as_mbps());
        }
    }

    /// Metadata messages survive an encode/decode round trip exactly.
    #[test]
    fn metadata_round_trip(
        flows in proptest::collection::vec((0u32..5_000_000, proptest::collection::vec(0u16..4_096, 0..12)), 0..40)
    ) {
        let mut msg = MetadataMessage::new();
        for (kbps, links) in &flows {
            msg.flows.push(FlowUsage { used_kbps: *kbps, link_ids: links.as_slice().into() });
        }
        let decoded = MetadataMessage::decode(msg.encode()).unwrap();
        prop_assert_eq!(decoded, msg);
    }

    /// Framed metadata datagrams — the length-prefixed wire form the
    /// distributed runtime puts on UDP sockets — round-trip exactly,
    /// every strict prefix is rejected as truncated, and trailing garbage
    /// is rejected as a frame mismatch. No cut point ever decodes to a
    /// different message.
    #[test]
    fn framed_metadata_round_trips_and_rejects_bad_frames(
        sender in 0u32..64,
        published_ms in 0u64..1_000_000,
        flows in proptest::collection::vec((0u32..5_000_000, proptest::collection::vec(0u16..4_096, 0..12)), 0..40),
        cut in 0usize..10_000,
    ) {
        use kollaps::metadata::bus::HostId;
        use kollaps::metadata::codec::DecodeError;

        let mut msg = MetadataMessage::new();
        msg.sender = HostId(sender);
        msg.published = SimTime::from_millis(published_ms);
        for (kbps, links) in &flows {
            msg.flows.push(FlowUsage { used_kbps: *kbps, link_ids: links.as_slice().into() });
        }
        let frame = msg.encode_framed();
        let decoded = MetadataMessage::decode_framed(&frame).unwrap();
        prop_assert_eq!(&decoded, &msg);

        let cut = cut % frame.len();
        let err = MetadataMessage::decode_framed(&frame[..cut]).unwrap_err();
        prop_assert!(
            matches!(err, DecodeError::Truncated | DecodeError::FrameMismatch),
            "prefix of {cut} bytes produced {err:?}"
        );

        let mut padded = frame.to_vec();
        padded.push(0);
        prop_assert!(MetadataMessage::decode_framed(&padded).is_err());
    }

    /// Bandwidth strings parse for every supported unit and magnitude.
    #[test]
    fn bandwidth_parsing_round_trips(value in 1u64..100_000, unit in 0usize..3) {
        let units = ["Kbps", "Mbps", "Gbps"];
        let text = format!("{value}{}", units[unit]);
        let parsed = parse_bandwidth(&text).unwrap();
        let expected = value * 10u64.pow(3 + 3 * unit as u32);
        prop_assert_eq!(parsed.as_bps(), expected);
    }

    /// Path composition over a random chain topology follows the paper's
    /// formulas: latencies add, bandwidth is the minimum, loss composes
    /// multiplicatively and never exceeds 1.
    #[test]
    fn chain_composition_matches_formulas(
        latencies in proptest::collection::vec(1u64..100, 1..10),
        bandwidths in proptest::collection::vec(1u64..1_000, 1..10),
        losses in proptest::collection::vec(0.0f64..0.3, 1..10),
    ) {
        let hops = latencies.len().min(bandwidths.len()).min(losses.len());
        let mut topo = Topology::new();
        let src = topo.add_service("src", 0, "x");
        let dst = topo.add_service("dst", 0, "x");
        let mut prev = src;
        for i in 0..hops {
            let next = if i == hops - 1 { dst } else { topo.add_bridge(&format!("b{i}")) };
            let props = LinkProperties::new(
                SimDuration::from_millis(latencies[i]),
                Bandwidth::from_mbps(bandwidths[i]),
            ).with_loss(losses[i]);
            topo.add_link(prev, next, props, "net");
            prev = next;
        }
        let graph = TopologyGraph::new(&topo);
        let path = graph.shortest_path_tree(src).path_to(dst).unwrap();
        let composed = PathProperties::compose(&topo, &path).unwrap();
        let expected_latency: u64 = latencies[..hops].iter().sum();
        prop_assert_eq!(composed.latency, SimDuration::from_millis(expected_latency));
        let expected_bw = bandwidths[..hops].iter().min().unwrap();
        prop_assert_eq!(composed.max_bandwidth, Bandwidth::from_mbps(*expected_bw));
        prop_assert!(composed.loss >= *losses[..hops].iter().max_by(|a, b| a.partial_cmp(b).unwrap()).unwrap() - 1e-9);
        prop_assert!(composed.loss < 1.0);
    }

    /// The scenario builder rejects every workload that references a name
    /// outside the declared topology with the typed `UnknownNode` error —
    /// nothing ever runs, whatever the name looks like.
    #[test]
    fn scenario_rejects_arbitrary_unknown_names(seed in 0u64..1_000_000, pick in 0usize..3) {
        // Any name outside {client, server} must be rejected before the
        // scenario runs, whichever endpoint slot it appears in.
        let name = match pick {
            0 => format!("ghost-{seed}"),
            1 => format!("node_{seed}"),
            _ => format!("C{seed}"),
        };
        let (topo, _, _) = generators::point_to_point(
            Bandwidth::from_mbps(10),
            SimDuration::from_millis(1),
            SimDuration::ZERO,
        );
        let err = Scenario::from_topology(topo)
            .workload(Workload::iperf_tcp("client", &name))
            .run()
            .unwrap_err();
        prop_assert!(
            matches!(err, ScenarioError::UnknownNodes { names: ref n } if *n == vec![name.clone()]),
            "{err}"
        );
    }

    /// The event queue pops events in non-decreasing time order regardless
    /// of insertion order.
    #[test]
    fn event_queue_is_time_ordered(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q: EventQueue<usize> = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        while let Some((at, _)) = q.pop() {
            prop_assert!(at >= last);
            last = at;
        }
    }
}

proptest! {
    /// The property the ground truth's routing rests on: under the
    /// tie-break contract, the shortest path of any node `n` on `s`'s path
    /// to `d` is the rest of `s`'s path from `n`, so forwarding at every
    /// node along its own shortest path equals routing along the source's,
    /// hop for hop. Checked for every `s`, `d` and `n` on graphs built to
    /// tie: equal and zero latencies, parallel and one-way links, and the
    /// scale-free generator with one latency on every link.
    #[test]
    fn every_node_on_a_path_continues_it(seed in 0u64..100_000) {
        use kollaps::topology::generators::ScaleFreeParams;
        use kollaps::topology::model::NodeId;

        let mut rng = SimRng::new(seed);
        let latencies = [[0, 0, 1], [1, 1, 1], [0, 2, 2], [5, 5, 10]][rng.gen_index(4)];
        let topo = if rng.chance(0.5) {
            let ms = latencies[rng.gen_index(3)] as f64;
            let params = ScaleFreeParams {
                total_elements: 12 + rng.gen_index(30),
                min_latency_ms: ms,
                max_latency_ms: ms,
                ..ScaleFreeParams::default()
            };
            generators::barabasi_albert(&params, &mut rng).0
        } else {
            let mut t = Topology::new();
            let n = 3 + rng.gen_index(12);
            let nodes: Vec<NodeId> = (0..n)
                .map(|i| {
                    if rng.chance(0.5) {
                        t.add_service(&format!("h{i}"), 0, "img")
                    } else {
                        t.add_bridge(&format!("s{i}"))
                    }
                })
                .collect();
            for _ in 0..n + rng.gen_index(3 * n) {
                let (a, b) = (nodes[rng.gen_index(n)], nodes[rng.gen_index(n)]);
                let latency = SimDuration::from_millis(latencies[rng.gen_index(3)]);
                let props = LinkProperties::new(latency, Bandwidth::from_mbps(10));
                // One draw in four adds a parallel twin.
                for _ in 0..1 + usize::from(rng.chance(0.25)) {
                    if rng.chance(0.3) {
                        t.add_link(a, b, props, "net");
                    } else {
                        t.add_bidirectional_link(a, b, props, "net");
                    }
                }
            }
            t
        };
        let graph = TopologyGraph::new(&topo);
        let ids: Vec<NodeId> = topo.nodes().iter().map(|node| node.id).collect();
        let trees: Vec<_> = ids.iter().map(|&id| graph.shortest_path_tree(id)).collect();
        let tree_of = |id: NodeId| &trees[ids.binary_search(&id).unwrap()];
        for (&s, tree) in ids.iter().zip(&trees) {
            for &d in &ids {
                let Some(path) = tree.path_to(d) else { continue };
                for i in 1..path.len() {
                    let n = topo.link(path[i - 1]).unwrap().to;
                    let rest = tree_of(n).path_to(d);
                    prop_assert!(
                        rest.as_deref() == Some(&path[i..]),
                        "{s} -> {d} via {n}: {path:?}, then {rest:?}"
                    );
                }
            }
        }
    }
}

proptest! {
    /// The dynamics acceptance property: on seeded generated topologies
    /// under random schedules (churn-generator flaps, ramps, node leaves,
    /// link joins — including route-*improving* changes), every precomputed
    /// timeline snapshot is **exactly** equal to the old online re-collapse
    /// of the evolved topology, and the bandwidth allocations derived from
    /// the two are bit-identical. This is what lets the emulation loop swap
    /// deltas instead of re-running all-pairs shortest paths per event.
    #[test]
    fn timeline_equals_online_recollapse(seed in 0u64..100_000) {
        use kollaps::core::timeline::SnapshotTimeline;
        use kollaps::core::CollapsedTopology;
        use kollaps::dynamics::Churn;
        use kollaps::topology::events::{
            apply_action, DynamicAction, DynamicEvent, LinkChange,
        };
        use kollaps::topology::generators::ScaleFreeParams;

        let mut rng = SimRng::new(seed);
        let params = ScaleFreeParams {
            total_elements: 18,
            ..ScaleFreeParams::default()
        };
        let (topo, nodes, switches) = generators::barabasi_albert(&params, &mut rng);
        prop_assert!(nodes.len() >= 4);
        let name_of = |id| {
            topo.node(id).map(|n| n.kind.display_name()).unwrap()
        };

        // A random schedule mixing every change family. The churn generator
        // contributes flaps (leave + restore); raw events contribute a
        // latency degradation, a node departure and a brand-new link (the
        // route-improving case the selective precompute must detect).
        let flapped = name_of(nodes[rng.gen_index(nodes.len())]);
        let peer = topo
            .node(topo.links_from(topo.node_by_name(&flapped).unwrap()).next().unwrap().to)
            .map(|n| n.kind.display_name())
            .unwrap();
        let mut schedule = Churn::poisson_flaps(&[(flapped.as_str(), peer.as_str())])
            .mean_uptime(SimDuration::from_secs(3))
            .mean_downtime(SimDuration::from_millis(500))
            .horizon(SimDuration::from_secs(12))
            .seed(seed ^ 0xc0ffee)
            .generate(&topo)
            .expect("valid flap spec");
        schedule.push(DynamicEvent {
            at: SimDuration::from_millis(rng.gen_range(1, 12_000)),
            action: DynamicAction::SetLinkProperties {
                orig: name_of(switches[0]),
                dest: name_of(switches[1 % switches.len()]),
                change: LinkChange {
                    latency: Some(SimDuration::from_millis(rng.gen_range(20, 80))),
                    up: Some(Bandwidth::from_mbps(rng.gen_range(5, 50))),
                    down: Some(Bandwidth::from_mbps(rng.gen_range(5, 50))),
                    ..LinkChange::default()
                },
            },
        });
        schedule.push(DynamicEvent {
            at: SimDuration::from_millis(rng.gen_range(1, 12_000)),
            action: DynamicAction::NodeLeave {
                name: name_of(nodes[rng.gen_index(nodes.len())]),
            },
        });
        // A new shortcut between two random switches: latency 0.1 ms makes
        // it attractive, forcing re-routes far from the changed link.
        schedule.push(DynamicEvent {
            at: SimDuration::from_millis(rng.gen_range(1, 12_000)),
            action: DynamicAction::LinkJoin {
                orig: name_of(switches[rng.gen_index(switches.len())]),
                dest: name_of(switches[rng.gen_index(switches.len())]),
                change: LinkChange {
                    latency: Some(SimDuration::from_millis_f64(0.1)),
                    up: Some(Bandwidth::from_gbps(1)),
                    down: Some(Bandwidth::from_gbps(1)),
                    ..LinkChange::default()
                },
            },
        });

        let timeline = SnapshotTimeline::precompute(&topo, &schedule);
        prop_assert_eq!(timeline.len(), schedule.change_times().len());

        // Replay online with the full re-collapse and compare exactly.
        let mut online = topo.clone();
        let mut reference = CollapsedTopology::build(&topo);
        for delta in timeline.deltas() {
            for event in schedule.events_at(delta.at) {
                apply_action(&mut online, &event.action);
            }
            reference = reference.rebuild_with_addresses(&online);
            prop_assert_eq!(delta.snapshot.pair_count(), reference.pair_count());
            for path in reference.paths() {
                let timeline_path = delta.snapshot.path(path.src, path.dst);
                prop_assert!(timeline_path.is_some());
                prop_assert_eq!(timeline_path.unwrap(), path);
            }
            prop_assert_eq!(delta.snapshot.link_capacities(), reference.link_capacities());

            // Allocations from the two snapshots are bit-identical: feed the
            // same active pairs through `flow_demand` + `allocate` on both.
            let mut pairs: Vec<(kollaps::netmodel::packet::Addr, kollaps::netmodel::packet::Addr)> =
                Vec::new();
            for (src, dst) in reference.paths().map(|path| (path.src, path.dst)) {
                if let (Some(a), Some(b)) = (reference.address_of(src), reference.address_of(dst)) {
                    pairs.push((a, b));
                }
            }
            pairs.sort();
            pairs.truncate(8);
            let demands = |view: &CollapsedTopology| -> Vec<FlowDemand> {
                pairs
                    .iter()
                    .enumerate()
                    .filter_map(|(i, &(a, b))| view.flow_demand(i as u64, a, b))
                    .collect()
            };
            let from_timeline = demands(&delta.snapshot);
            let from_reference = demands(&reference);
            prop_assert_eq!(from_timeline.len(), from_reference.len());
            let alloc_timeline = allocate(&from_timeline, delta.snapshot.link_capacities());
            let alloc_reference = allocate(&from_reference, reference.link_capacities());
            for i in 0..from_timeline.len() as u64 {
                prop_assert_eq!(alloc_timeline.of(i), alloc_reference.of(i));
            }
        }
    }
}

proptest! {
    /// Snapshots hold trees and derive paths on demand, so this checks them
    /// pair by pair: on seeded generated topologies — where every service
    /// hangs off one switch, and a leaf's tree is derived from its root's,
    /// plus multi-homed services and links between services, which have
    /// trees of their own — under random schedules (flaps, jitter and loss
    /// edits, a service leaving, a switch leaving and joining again, a new
    /// shortcut, a service gaining a second link and losing a first), every
    /// ordered pair of the
    /// service table — reachable or not — gets from each snapshot the path
    /// and the RTT the online re-collapse gives, `changed_paths` is exactly
    /// the pairs whose path value differs from the previous snapshot's,
    /// `gained_paths` exactly those of them that had no path before,
    /// `removed_paths` exactly those that lost theirs, and a timeline
    /// extended from its middle derives what the full precompute does.
    #[test]
    fn snapshot_paths_and_deltas_match_the_online_rebuild(seed in 0u64..100_000) {
        use kollaps::core::timeline::SnapshotTimeline;
        use kollaps::core::CollapsedTopology;
        use kollaps::dynamics::Churn;
        use kollaps::topology::events::{
            apply_action, DynamicAction, DynamicEvent, EventSchedule, LinkChange,
        };
        use kollaps::topology::generators::ScaleFreeParams;
        use kollaps::topology::model::NodeId;

        let mut rng = SimRng::new(seed);
        let params = ScaleFreeParams {
            total_elements: 16,
            ..ScaleFreeParams::default()
        };
        let (mut topo, nodes, switches) = generators::barabasi_albert(&params, &mut rng);
        prop_assert!(nodes.len() >= 4 && switches.len() >= 2);
        // Up to two services multi-homed to a second switch, and up to two
        // links between services, some one way.
        for _ in 0..rng.gen_index(3) {
            let service = nodes[rng.gen_index(nodes.len())];
            let switch = switches[rng.gen_index(switches.len())];
            let latency = SimDuration::from_millis(rng.gen_range(1, 10));
            let props = LinkProperties::new(latency, Bandwidth::from_mbps(100));
            topo.add_bidirectional_link(service, switch, props, "net");
        }
        for _ in 0..rng.gen_index(3) {
            let (a, b) = (nodes[rng.gen_index(nodes.len())], nodes[rng.gen_index(nodes.len())]);
            let latency = SimDuration::from_millis(rng.gen_range(0, 4));
            let props = LinkProperties::new(latency, Bandwidth::from_mbps(100));
            match (a == b, rng.chance(0.3)) {
                (true, _) => {}
                (false, true) => {
                    topo.add_link(a, b, props, "net");
                }
                (false, false) => {
                    topo.add_bidirectional_link(a, b, props, "net");
                }
            }
        }
        let topo = topo;
        let name_of = |id| topo.node(id).map(|n| n.kind.display_name()).unwrap();
        let switch = |rng: &mut SimRng| name_of(switches[rng.gen_index(switches.len())]);
        let at = |ms: u64| SimDuration::from_millis(ms);

        let flapped = name_of(nodes[rng.gen_index(nodes.len())]);
        let peer = topo
            .node(topo.links_from(topo.node_by_name(&flapped).unwrap()).next().unwrap().to)
            .map(|n| n.kind.display_name())
            .unwrap();
        let mut schedule = Churn::poisson_flaps(&[(flapped.as_str(), peer.as_str())])
            .mean_uptime(SimDuration::from_secs(3))
            .mean_downtime(SimDuration::from_millis(500))
            .horizon(SimDuration::from_secs(12))
            .seed(seed ^ 0xfade)
            .generate(&topo)
            .expect("valid flap spec");
        let mut push = |ms: u64, action: DynamicAction| {
            schedule.push(DynamicEvent { at: at(ms), action });
        };
        let (a, b) = (switch(&mut rng), switch(&mut rng));
        push(rng.gen_range(1, 12_000), DynamicAction::SetLinkProperties {
            orig: a,
            dest: b,
            change: LinkChange {
                jitter: Some(SimDuration::from_millis(rng.gen_range(1, 5))),
                loss: Some(0.01 * rng.gen_range(1, 4) as f64),
                ..LinkChange::default()
            },
        });
        push(rng.gen_range(1, 12_000), DynamicAction::NodeLeave {
            name: name_of(nodes[rng.gen_index(nodes.len())]),
        });
        // A switch leaves, then joins again with two fresh links.
        let gone = switch(&mut rng);
        let left = rng.gen_range(1, 6_000);
        let back = left + rng.gen_range(1, 6_000);
        push(left, DynamicAction::NodeLeave { name: gone.clone() });
        push(back, DynamicAction::NodeJoin { name: gone.clone() });
        for _ in 0..2 {
            push(back, DynamicAction::LinkJoin {
                orig: gone.clone(),
                dest: switch(&mut rng),
                change: LinkChange {
                    latency: Some(at(rng.gen_range(1, 10))),
                    up: Some(Bandwidth::from_mbps(100)),
                    ..LinkChange::default()
                },
            });
        }
        push(rng.gen_range(1, 12_000), DynamicAction::LinkJoin {
            orig: switch(&mut rng),
            dest: switch(&mut rng),
            change: LinkChange {
                latency: Some(SimDuration::from_millis_f64(0.1)),
                up: Some(Bandwidth::from_gbps(1)),
                ..LinkChange::default()
            },
        });
        // A service gains a link to a switch or to another service, and
        // another loses the link to its first switch.
        let gains = name_of(nodes[rng.gen_index(nodes.len())]);
        let to = if rng.chance(0.5) {
            switch(&mut rng)
        } else {
            name_of(nodes[rng.gen_index(nodes.len())])
        };
        if gains != to {
            push(rng.gen_range(1, 12_000), DynamicAction::LinkJoin {
                orig: gains,
                dest: to,
                change: LinkChange {
                    latency: Some(at(rng.gen_range(0, 5))),
                    up: Some(Bandwidth::from_mbps(100)),
                    ..LinkChange::default()
                },
            });
        }
        let loses = nodes[rng.gen_index(nodes.len())];
        let first = topo.links_from(loses).next().unwrap().to;
        push(rng.gen_range(1, 12_000), DynamicAction::LinkLeave {
            orig: name_of(loses),
            dest: name_of(first),
        });

        let timeline = SnapshotTimeline::precompute(&topo, &schedule);
        prop_assert_eq!(timeline.len(), schedule.change_times().len());
        let mut online = topo.clone();
        let mut reference = CollapsedTopology::build(&topo);
        let table: Vec<(NodeId, kollaps::netmodel::packet::Addr)> =
            reference.addresses().collect();
        for delta in timeline.deltas() {
            for event in schedule.events_at(delta.at) {
                apply_action(&mut online, &event.action);
            }
            let before = std::mem::take(&mut reference);
            reference = before.rebuild_with_addresses(&online);
            let (mut changed, mut gained, mut removed) = (Vec::new(), Vec::new(), Vec::new());
            for &(src, src_addr) in &table {
                for &(dst, dst_addr) in &table {
                    let path = reference.path(src, dst);
                    prop_assert_eq!(&delta.snapshot.path(src, dst), &path);
                    prop_assert_eq!(
                        delta.snapshot.flow_path(src_addr, dst_addr),
                        reference.flow_path(src_addr, dst_addr)
                    );
                    match (before.path(src, dst), &path) {
                        (Some(_), None) => removed.push((src, dst)),
                        (None, Some(_)) => {
                            changed.push((src, dst));
                            gained.push((src, dst));
                        }
                        (was, Some(now)) if was.as_ref() != Some(now) => changed.push((src, dst)),
                        _ => {}
                    }
                }
            }
            prop_assert_eq!(&delta.changed_paths, &changed);
            prop_assert_eq!(&delta.gained_paths, &gained);
            prop_assert_eq!(&delta.removed_paths, &removed);
            prop_assert_eq!(delta.snapshot.pair_count(), reference.pair_count());
        }

        // The same timeline, precomputed up to a cut and extended from it.
        let cut = at(rng.gen_range(1, 12_000));
        let (early, late): (Vec<DynamicEvent>, Vec<DynamicEvent>) =
            schedule.events().iter().cloned().partition(|e| e.at < cut);
        let mut extended = SnapshotTimeline::precompute(&topo, &EventSchedule::from_events(early));
        extended.extend(&EventSchedule::from_events(late));
        prop_assert_eq!(extended.len(), timeline.len());
        for (ours, theirs) in extended.deltas().iter().zip(timeline.deltas()) {
            prop_assert_eq!(&ours.changed_paths, &theirs.changed_paths);
            prop_assert_eq!(&ours.gained_paths, &theirs.gained_paths);
            prop_assert_eq!(&ours.removed_paths, &theirs.removed_paths);
            prop_assert_eq!(ours.snapshot.pair_count(), theirs.snapshot.pair_count());
            for &(src, _) in &table {
                for &(dst, _) in &table {
                    prop_assert_eq!(ours.snapshot.path(src, dst), theirs.snapshot.path(src, dst));
                }
            }
        }
    }
}

/// Strips the nondeterministic report fields — the wall-clock stamp of the
/// offline timeline precompute and the wall-clock-only phase-timing block
/// the flight recorder fills in — so two otherwise identical runs
/// serialize to identical bytes.
fn normalized_json(mut report: kollaps::scenario::Report) -> String {
    if let Some(dynamics) = report.dynamics.as_mut() {
        dynamics.precompute_micros = 0;
    }
    report.phase_timing = None;
    report.to_json_string()
}

proptest! {
    /// The session-redesign acceptance property: driving a scenario
    /// through `session()` in arbitrary step sizes produces a
    /// **byte-identical** JSON report to the one-shot `run()` path — with
    /// and without churn, across seeds. Stepping granularity must never
    /// leak into results: runtime events that land between the session's
    /// internal dispatch points are buffered and handled at the same
    /// instants the one-shot loop would have handled them. The request /
    /// response workload (wrk2) is the sensitive one: its connections
    /// re-arm on completion events, so any dispatch-time drift would move
    /// every subsequent transfer.
    #[test]
    fn stepped_session_is_byte_identical_to_one_shot(
        seed in 0u64..1_000_000,
        step_ms in 1u64..900,
        with_churn in 0u8..2,
    ) {
        use kollaps::dynamics::Churn;
        let make = || {
            let (topo, _, _) = generators::dumbbell(
                2,
                Bandwidth::from_mbps(100),
                Bandwidth::from_mbps(50),
                SimDuration::from_millis(1),
                SimDuration::from_millis(10),
            );
            let mut scenario = Scenario::from_topology(topo)
                .named("equivalence")
                .hosts(2)
                .metadata_delay(SimDuration::from_millis(2))
                .workload(
                    Workload::wrk2("server-0", "client-0")
                        .connections(2)
                        .request_size(DataSize::from_kib(32))
                        .duration(SimDuration::from_millis(1800)),
                )
                .workload(
                    Workload::iperf_udp("client-1", "server-1", Bandwidth::from_mbps(30))
                        .duration(SimDuration::from_millis(1800)),
                )
                .workload(
                    Workload::ping("client-0", "server-1")
                        .count(5)
                        .interval(SimDuration::from_millis(250))
                        .start(SimDuration::from_millis(300))
                        .duration(SimDuration::from_millis(1400)),
                );
            if with_churn == 1 {
                scenario = scenario.churn(
                    Churn::poisson_flaps(&[("client-1", "bridge-left")])
                        .mean_uptime(SimDuration::from_millis(800))
                        .mean_downtime(SimDuration::from_millis(200))
                        .horizon(SimDuration::from_millis(1800))
                        .seed(seed),
                );
            }
            scenario
        };
        let one_shot = make().run().expect("valid scenario");
        let mut session = make().session().expect("valid scenario");
        while session.clock() < session.end() {
            session.step(SimDuration::from_millis(step_ms)).expect("stepping");
        }
        let stepped = session.finish();
        prop_assert_eq!(normalized_json(one_shot), normalized_json(stepped));
    }
}

/// The same two identities — stepped == one-shot, traced == untraced — on
/// a topology nobody hand-wrote: a seeded scale-free mesh whose paths have
/// unequal latencies, so a datagram on a short path supersedes the dataplane
/// wake-up a datagram on a long path had scheduled (on a dumbbell every path
/// is as long as the next and that never happens). The runtime drops the
/// superseded wake-ups unhandled; that, the slicing and the recorder must
/// all stay invisible in the report — with bulk TCP in the mix, whose
/// back-pressured senders are pumped on every *handled* wake-up.
#[test]
fn mesh_session_is_byte_identical_stepped_and_traced() {
    use kollaps::core::emulation::EmulationConfig;
    use kollaps::core::CollapsedTopology;
    use kollaps::dynamics::Churn;
    use kollaps::scenario::Backend;
    use kollaps::topology::generators::ScaleFreeParams;

    const HORIZON: SimDuration = SimDuration::from_millis(1_500);
    const NANO: SimDuration = SimDuration::from_nanos(1);

    for seed in [3u64, 17, 4242] {
        let mut rng = SimRng::new(seed);
        let params = ScaleFreeParams {
            total_elements: 40,
            access_bandwidth: Bandwidth::from_mbps(10),
            ..ScaleFreeParams::default()
        };
        let (topo, nodes, _) = generators::barabasi_albert(&params, &mut rng);
        let name_of = |id| topo.node(id).map(|n| n.kind.display_name()).unwrap();
        let mut core: Vec<(String, String)> = topo
            .links()
            .iter()
            .filter(|l| l.network == "core" && l.from < l.to)
            .map(|l| (name_of(l.from), name_of(l.to)))
            .collect();
        let flapped: Vec<(String, String)> = (0..2)
            .map(|_| core.swap_remove(rng.gen_index(core.len())))
            .collect();
        let collapsed = CollapsedTopology::build(&topo);
        let mut pairs: Vec<(SimDuration, String, String)> = (0..11)
            .map(|_| {
                let i = rng.gen_index(nodes.len());
                let j = (i + 1 + rng.gen_index(nodes.len() - 1)) % nodes.len();
                let (a, b) = (nodes[i], nodes[j]);
                let path = collapsed.path(a, b).expect("the mesh is connected");
                (path.latency, name_of(a), name_of(b))
            })
            .collect();
        // The datagram flows all send at 0, in declaration order: longest
        // path first, so each one's wake-up supersedes the one before. With
        // no host or container overhead configured, a datagram through idle
        // qdiscs is due exactly one path latency after it was sent.
        pairs[..8].sort_by(|x, y| y.cmp(x));
        let first_due = pairs[0].0;

        let make = |trace: bool| {
            let flapped: Vec<(&str, &str)> = flapped
                .iter()
                .map(|(a, b)| (a.as_str(), b.as_str()))
                .collect();
            Scenario::from_topology(topo.clone())
                .named("mesh-equivalence")
                .backend(Backend::kollaps_with(
                    3,
                    EmulationConfig {
                        cross_host_delay: SimDuration::ZERO,
                        container_overhead: SimDuration::ZERO,
                        metadata_delay: SimDuration::from_millis(2),
                        ..EmulationConfig::default()
                    },
                ))
                .trace(trace)
                .churn(
                    Churn::poisson_flaps(&flapped)
                        .mean_uptime(SimDuration::from_millis(400))
                        .mean_downtime(SimDuration::from_millis(100))
                        .horizon(HORIZON)
                        .seed(seed),
                )
                .workloads(pairs.iter().enumerate().map(|(i, (_, a, b))| {
                    if i < 8 {
                        Workload::iperf_udp(a, b, Bandwidth::from_kbps(800 + 100 * i as u64))
                    } else {
                        Workload::iperf_tcp(a, b)
                    }
                    .duration(HORIZON)
                }))
        };

        let one_shot = normalized_json(make(false).run().expect("valid scenario"));

        // Stepped: the first slice boundary is the instant of a wake-up
        // (nothing of the first flow has arrived one nanosecond earlier,
        // its first datagram has arrived on the boundary); the rest are
        // drawn, down to slices shorter than the gap between two packets.
        let mut session = make(false).session().expect("valid scenario");
        session.step(first_due - NANO).expect("stepping");
        assert_eq!(session.flow_progress()[0].bytes, 0, "seed {seed}");
        session.step(NANO).expect("stepping");
        assert!(session.flow_progress()[0].bytes > 0, "seed {seed}");
        while session.clock() < session.end() {
            let slice = SimDuration::from_micros(rng.gen_range(50, 60_000));
            session.step(slice).expect("stepping");
        }
        let stats = session.event_loop_stats();
        assert!(
            stats.stale_wakeups >= 7,
            "seed {seed}: {stats:?} — the case no longer exercises the stale wake-up guard"
        );
        assert_eq!(one_shot, normalized_json(session.finish()), "seed {seed}");

        assert_eq!(
            one_shot,
            normalized_json(make(true).run().expect("valid scenario")),
            "seed {seed}"
        );
    }
}

/// The same identities across a partition that removes qdisc chains **while
/// they hold packets** — the one case in which a manager polls a tree whose
/// wake is not due (the `revisit` list in `crates/core/src/manager.rs`), and
/// one no benchmark workload reaches.
/// Every client sends to three servers at once (several active chains per
/// tree; the slow flows' chains drain and re-enter the active list between
/// packets) and the partition cuts two of the four servers off for 500 ms.
/// The per-flow bytes were recorded on `b92df6b`, where every tree of every
/// manager was still polled on every event.
#[test]
fn partition_under_fanout_is_byte_identical_stepped_and_traced() {
    use kollaps::dynamics::Churn;

    const HORIZON: SimDuration = SimDuration::from_millis(1_800);
    const RATES_KBPS: [u64; 3] = [2_000, 1_000, 400];

    let make = |trace: bool| {
        let (topo, _, _) = generators::dumbbell(
            4,
            Bandwidth::from_mbps(10),
            Bandwidth::from_mbps(20),
            SimDuration::from_millis(1),
            SimDuration::from_millis(5),
        );
        let fanout = (0..4usize).flat_map(|client| {
            RATES_KBPS.iter().enumerate().map(move |(k, &kbps)| {
                Workload::iperf_udp(
                    &format!("client-{client}"),
                    &format!("server-{}", (client + k + 1) % 4),
                    Bandwidth::from_kbps(kbps),
                )
                .duration(HORIZON)
            })
        });
        Scenario::from_topology(topo)
            .named("partition-fanout")
            .hosts(4)
            .metadata_delay(SimDuration::from_millis(2))
            .trace(trace)
            .churn(
                Churn::partition(&["bridge-right"], &["server-0", "server-1"])
                    .start(SimDuration::from_millis(600))
                    .heal_after(Some(SimDuration::from_millis(500))),
            )
            .workloads(fanout)
            .workload(Workload::iperf_tcp("client-0", "server-0").duration(HORIZON))
    };

    let one_shot = make(false).run().expect("valid scenario");
    let dynamics = one_shot.dynamics.as_ref().expect("a churned scenario");
    assert_eq!(dynamics.events_applied, 4, "two links leave, two rejoin");
    let one_shot = normalized_json(one_shot);

    let mut rng = SimRng::new(23);
    let mut session = make(false).session().expect("valid scenario");
    while session.clock() < session.end() {
        let slice = SimDuration::from_micros(rng.gen_range(50, 60_000));
        session.step(slice).expect("stepping");
    }
    let delivered: Vec<u64> = session.flow_progress().iter().map(|f| f.bytes).collect();
    assert_eq!(one_shot, normalized_json(session.finish()));
    assert_eq!(
        one_shot,
        normalized_json(make(true).run().expect("valid scenario"))
    );
    // Three datagram flows per client (2 Mb/s, 1 Mb/s, 400 kb/s towards the
    // next three servers), then the bulk TCP flow; the flows towards
    // server-0 and server-1 lose the 500 ms and what the cut chains held.
    let (datagrams, bulk) = delivered.split_at(12);
    assert_eq!(
        datagrams,
        [
            [283_240, 224_840, 90_520], // client-0 → server-1, -2, -3
            [430_700, 224_840, 65_700], // client-1 → server-2, -3, -0
            [430_700, 160_600, 65_700], // client-2 → server-3, -0, -1
            [283_240, 160_600, 90_520], // client-3 → server-0, -1, -2
        ]
        .concat()
    );
    assert_eq!(bulk, [202_940], "client-0 → server-0");
}

/// The steering-equivalence contract: a dynamic event injected mid-run
/// into a live session produces exactly the report the same event declared
/// up front produces. The injection path extends the precomputed snapshot
/// timeline incrementally; this pins that the incrementally derived
/// snapshots drive the emulation identically to precomputed ones.
#[test]
fn mid_run_injection_equals_up_front_declaration() {
    use kollaps::topology::events::{DynamicAction, DynamicEvent, LinkChange};

    let make = || {
        let (topo, _, _) = generators::dumbbell(
            2,
            Bandwidth::from_mbps(100),
            Bandwidth::from_mbps(50),
            SimDuration::from_millis(1),
            SimDuration::from_millis(10),
        );
        Scenario::from_topology(topo)
            .named("injection-parity")
            .workload(
                Workload::iperf_udp("client-0", "server-0", Bandwidth::from_mbps(20))
                    .duration(SimDuration::from_secs(5)),
            )
            .workload(
                Workload::ping("client-1", "server-1")
                    .count(20)
                    .interval(SimDuration::from_millis(200))
                    .duration(SimDuration::from_secs(5)),
            )
    };
    let event = || DynamicEvent {
        at: SimDuration::from_secs(3),
        action: DynamicAction::SetLinkProperties {
            orig: "bridge-left".into(),
            dest: "bridge-right".into(),
            change: LinkChange {
                latency: Some(SimDuration::from_millis(45)),
                up: Some(Bandwidth::from_mbps(10)),
                down: Some(Bandwidth::from_mbps(10)),
                ..LinkChange::default()
            },
        },
    };

    let declared = make().event(event()).run().expect("valid scenario");
    let mut session = make().session().expect("valid scenario");
    session
        .run_until(kollaps::sim::time::SimTime::from_secs(1))
        .expect("stepping");
    session.inject_event(event()).expect("valid injection");
    let injected = session.finish();
    assert_eq!(normalized_json(declared), normalized_json(injected));
}

/// With `metadata_delay = 0` and a single host, the decentralized per-host
/// Emulation Manager sees exactly what the old centralized loop saw, so its
/// allocation must equal the centralized `allocate()` result — on random
/// scale-free generator topologies (fixed seeds), not just the paper's
/// hand-built ones.
#[test]
fn single_host_decentralized_allocation_matches_centralized() {
    use kollaps::core::emulation::{EmulationConfig, KollapsDataplane};
    use kollaps::core::runtime::Runtime;
    use kollaps::core::timeline::SnapshotTimeline;
    use kollaps::core::CollapsedTopology;
    use kollaps::topology::events::EventSchedule;
    use kollaps::topology::generators::ScaleFreeParams;
    use std::collections::HashMap;

    for seed in [1u64, 7, 42] {
        let mut rng = SimRng::new(seed);
        let params = ScaleFreeParams {
            total_elements: 24,
            ..ScaleFreeParams::default()
        };
        let (topo, nodes, _) = generators::barabasi_albert(&params, &mut rng);
        let collapsed = CollapsedTopology::build(&topo);
        let config = EmulationConfig {
            metadata_delay: SimDuration::ZERO,
            ..EmulationConfig::default()
        };
        let timeline = SnapshotTimeline::precompute(&topo, &EventSchedule::new());
        let dp = KollapsDataplane::with_prepared(timeline, 1, &HashMap::new(), config);
        let mut rt = Runtime::new(dp);
        let mut pairs = Vec::new();
        for (i, &a) in nodes.iter().enumerate().take(8) {
            let b = nodes[(i + 3) % nodes.len()];
            if a == b || collapsed.path(a, b).is_none() {
                continue;
            }
            let (Some(src), Some(dst)) = (collapsed.address_of(a), collapsed.address_of(b)) else {
                continue;
            };
            rt.add_udp_flow(src, dst, Bandwidth::from_mbps(40), SimTime::ZERO, None);
            pairs.push((src, dst));
        }
        assert!(pairs.len() >= 4, "seed {seed} produced too few flows");
        let _ = rt.run_until(SimTime::from_millis(600));

        // Rebuild the old centralized solver input from the same usage the
        // managers measured, in the same deterministic order.
        pairs.sort();
        let mut flows = Vec::new();
        let mut keys = Vec::new();
        for &(src, dst) in &pairs {
            if rt.dataplane.measured_usage(src, dst).is_none() {
                continue;
            }
            let path = collapsed.path_by_addr(src, dst).unwrap();
            let src_node = collapsed.service_at(src).unwrap();
            let dst_node = collapsed.service_at(dst).unwrap();
            flows.push(FlowDemand {
                id: keys.len() as u64,
                links: path.links.clone(),
                rtt: collapsed.rtt(src_node, dst_node).unwrap(),
                demand: path.max_bandwidth,
            });
            keys.push((src, dst));
        }
        assert!(!flows.is_empty(), "seed {seed} measured no usage");
        let centralized = allocate(&flows, collapsed.link_capacities());
        for (i, &(src, dst)) in keys.iter().enumerate() {
            let decentralized = rt
                .dataplane
                .allocation(src, dst)
                .expect("active pair has an allocation");
            let expected = centralized.of(i as u64);
            let diff = decentralized.as_bps().abs_diff(expected.as_bps());
            assert!(
                diff <= 1,
                "seed {seed}, pair {i}: decentralized {decentralized} vs centralized {expected}"
            );
        }
        let stats = rt.dataplane.convergence();
        assert!(stats.samples > 0);
        assert!(
            stats.max_gap < 1e-9,
            "seed {seed}: single-host gap {}",
            stats.max_gap
        );
    }
}

proptest! {
    /// The flight-recorder acceptance property: tracing may only move
    /// wall-clock time, never results. The same churned scenario with
    /// tracing off and on produces **byte-identical** reports once the
    /// wall-clock-only phase-timing block is stripped.
    #[test]
    fn tracing_is_byte_identical_to_untraced(
        seed in 0u64..1_000_000,
        step_ms in 50u64..500,
    ) {
        use kollaps::dynamics::Churn;
        let run = |trace: bool| {
            let (topo, _, _) = generators::dumbbell(
                3,
                Bandwidth::from_mbps(100),
                Bandwidth::from_mbps(50),
                SimDuration::from_millis(1),
                SimDuration::from_millis(10),
            );
            let scenario = Scenario::from_topology(topo)
                .named("trace-equivalence")
                .hosts(4)
                .trace(trace)
                .metadata_delay(SimDuration::from_millis(2))
                .churn(
                    Churn::poisson_flaps(&[("client-2", "bridge-left")])
                        .mean_uptime(SimDuration::from_millis(800))
                        .mean_downtime(SimDuration::from_millis(200))
                        .horizon(SimDuration::from_millis(900))
                        .seed(seed),
                )
                .workloads((0..3).map(|i| {
                    Workload::iperf_udp(
                        &format!("client-{i}"),
                        &format!("server-{}", (i + 1) % 3),
                        Bandwidth::from_mbps(40),
                    )
                    .duration(SimDuration::from_millis(900))
                }));
            let mut session = scenario.session().expect("valid scenario");
            while session.clock() < session.end() {
                session.step(SimDuration::from_millis(step_ms)).expect("stepping");
            }
            let tracer = session.tracer().clone();
            let report = session.finish();
            // The traced runs must actually have recorded something, or
            // this property would pass vacuously.
            prop_assert_eq!(tracer.is_enabled(), trace);
            if trace {
                prop_assert!(!tracer.events().is_empty());
                prop_assert!(report.phase_timing.is_some());
            } else {
                prop_assert!(report.phase_timing.is_none());
            }
            Ok(normalized_json(report))
        };
        prop_assert_eq!(&run(false)?, &run(true)?);
    }
}

/// The trace itself is stable: two identical seeded runs record the same
/// event sequence — same kinds, lanes, names and args — differing only in
/// wall-clock timestamps. This is what makes traces
/// diffable across runs when hunting a regression.
#[test]
fn seeded_runs_record_identical_trace_event_sequences() {
    use kollaps::dynamics::Churn;
    let run = || {
        let (topo, _, _) = generators::dumbbell(
            2,
            Bandwidth::from_mbps(100),
            Bandwidth::from_mbps(50),
            SimDuration::from_millis(1),
            SimDuration::from_millis(10),
        );
        let scenario = Scenario::from_topology(topo)
            .named("trace-stability")
            .hosts(2)
            .trace(true)
            .metadata_delay(SimDuration::from_millis(2))
            .churn(
                Churn::poisson_flaps(&[("client-1", "bridge-left")])
                    .mean_uptime(SimDuration::from_millis(600))
                    .mean_downtime(SimDuration::from_millis(200))
                    .horizon(SimDuration::from_millis(1200))
                    .seed(42),
            )
            .workloads((0..2).map(|i| {
                Workload::iperf_udp(
                    &format!("client-{i}"),
                    &format!("server-{i}"),
                    Bandwidth::from_mbps(40),
                )
                .duration(SimDuration::from_millis(1200))
            }));
        let mut session = scenario.session().expect("valid scenario");
        while session.clock() < session.end() {
            session
                .step(SimDuration::from_millis(100))
                .expect("stepping");
        }
        let tracer = session.tracer().clone();
        session.finish();
        tracer
            .events()
            .into_iter()
            .map(|e| {
                let args: Vec<(String, Option<f64>)> = e
                    .args
                    .into_iter()
                    // Allocation spans carry their own wall-clock cost as
                    // a `micros` arg; keep the key, ignore the value.
                    .map(|(k, v)| {
                        let value = (k != "micros").then_some(v);
                        (k, value)
                    })
                    .collect();
                (e.kind, e.lane, e.name, args)
            })
            .collect::<Vec<_>>()
    };
    let first = run();
    assert!(!first.is_empty(), "traced run recorded no events");
    assert_eq!(first, run());
}

proptest! {
    /// The emulation loop's `Allocator` is an exact drop-in for the one-shot
    /// min-max solver: across seeded scale-free topologies with flows
    /// joining and leaving every step (so the positional flow ids shift) and
    /// demands mutating in place, every positional grant equals the keyed
    /// `allocate()` on the same inputs.
    #[test]
    fn incremental_allocation_equals_full_solver_under_churn(
        seed in 0u64..100_000,
        steps in 4usize..24,
    ) {
        use kollaps::core::{Allocator, CollapsedTopology, FlowRef};
        use kollaps::topology::generators::ScaleFreeParams;

        let mut rng = SimRng::new(seed);
        let params = ScaleFreeParams {
            total_elements: 30,
            ..ScaleFreeParams::default()
        };
        let (topo, nodes, _) = generators::barabasi_albert(&params, &mut rng);
        let collapsed = CollapsedTopology::build(&topo);
        let mut candidates = Vec::new();
        for (i, &a) in nodes.iter().enumerate() {
            let b = nodes[(i * 7 + 3) % nodes.len()];
            if a != b && collapsed.path(a, b).is_some() {
                if let (Some(src), Some(dst)) =
                    (collapsed.address_of(a), collapsed.address_of(b))
                {
                    candidates.push((src, dst));
                }
            }
        }
        prop_assert!(candidates.len() >= 4);

        let mut active = Vec::new();
        let mut allocator = Allocator::default();
        for _ in 0..steps {
            // Membership churn: usually a join, sometimes a leave.
            if active.len() < 2
                || (rng.gen_index(3) != 0 && active.len() < candidates.len())
            {
                let next = candidates[rng.gen_index(candidates.len())];
                if !active.contains(&next) {
                    active.push(next);
                }
            } else {
                let gone = rng.gen_index(active.len());
                active.remove(gone);
            }
            let mut flows: Vec<FlowDemand> = active
                .iter()
                .enumerate()
                .filter_map(|(i, &(src, dst))| collapsed.flow_demand(i as u64, src, dst))
                .collect();
            if flows.is_empty() {
                continue;
            }
            // Occasionally mutate one demand in place: same membership,
            // another input — the memo must notice.
            if rng.gen_index(2) == 0 {
                let victim = rng.gen_index(flows.len());
                flows[victim].demand = Bandwidth::from_mbps(rng.gen_range(1, 200));
            }
            let full = allocate(&flows, collapsed.link_capacities());
            let refs: Vec<FlowRef<'_>> = flows.iter().map(FlowDemand::borrowed).collect();
            let grants = allocator.solve(&refs, collapsed.link_table());
            prop_assert_eq!(grants.len(), flows.len());
            for (flow, &grant) in flows.iter().zip(grants) {
                prop_assert_eq!(grant, full.of(flow.id));
            }
        }
    }
}
