//! Malformed input through the wire-spec and churn-trace decoders: seeded
//! truncations, and every field of a valid input missing, of the wrong
//! kind, negative or too wide for its type. Each must come back as the
//! decoder's typed error, and none may panic; what a decoder may accept
//! (an optional field left out, a number too wide for a 32-bit field but
//! not for this one) is spelled out per input.

use kollaps::dynamics::{parse_trace, trace_to_json};
use kollaps::prelude::*;
use kollaps::topology::events::{DynamicAction, DynamicEvent, LinkChange};
use kollaps::topology::generators;
use serde_json::Value;

/// A path into a JSON tree: positions in each object's field list or
/// array, from the root.
type Path = Vec<usize>;

/// Every path into `value` except the root, parents before children.
fn paths(value: &Value) -> Vec<Path> {
    fn walk(value: &Value, at: &mut Path, out: &mut Vec<Path>) {
        let children: Vec<&Value> = match value {
            Value::Object(fields) => fields.iter().map(|(_, v)| v).collect(),
            Value::Array(items) => items.iter().collect(),
            _ => return,
        };
        for (i, child) in children.into_iter().enumerate() {
            at.push(i);
            out.push(at.clone());
            walk(child, at, out);
            at.pop();
        }
    }
    let mut out = Vec::new();
    walk(value, &mut Vec::new(), &mut out);
    out
}

/// The keys along `path` (an array index reads as `[]`).
fn keys(value: &Value, path: &[usize]) -> Vec<String> {
    let mut node = value;
    let mut keys = Vec::new();
    for &i in path {
        node = match node {
            Value::Object(fields) => {
                keys.push(fields[i].0.clone());
                &fields[i].1
            }
            Value::Array(items) => {
                keys.push("[]".to_string());
                &items[i]
            }
            _ => unreachable!("paths only descend into containers"),
        };
    }
    keys
}

fn node_mut<'a>(value: &'a mut Value, path: &[usize]) -> &'a mut Value {
    path.iter().fold(value, |node, &i| match node {
        Value::Object(fields) => &mut fields[i].1,
        Value::Array(items) => &mut items[i],
        _ => unreachable!("paths only descend into containers"),
    })
}

/// `value` with the node at `path` replaced.
fn replaced(value: &Value, path: &[usize], with: Value) -> Value {
    let mut out = value.clone();
    *node_mut(&mut out, path) = with;
    out
}

/// `value` with the object field at `path` removed, when its parent is an
/// object.
fn removed(value: &Value, path: &[usize]) -> Option<Value> {
    let (&last, parent) = path.split_last()?;
    let mut out = value.clone();
    match node_mut(&mut out, parent) {
        Value::Object(fields) => {
            fields.remove(last);
            Some(out)
        }
        _ => None,
    }
}

/// A value of another kind than `value`.
fn swapped(value: &Value) -> Value {
    match value {
        Value::String(_) => Value::from(1u64),
        _ => Value::from("x"),
    }
}

/// Seeded cut points strictly inside `text`.
fn cuts(text: &str, seed: u64) -> Vec<usize> {
    let mut state = seed;
    (0..96)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % text.len() as u64) as usize
        })
        .collect()
}

/// Runs every mutation of `valid` through `decode`. `optional(keys)` says
/// whether the field at that key path may be left out, `signed(keys)`
/// whether a negative number decodes there, and `narrow(keys)` whether
/// 2³² is out of the field's range (a 32-bit integer, a version, an index).
fn check_mutations(
    valid: &Value,
    decode: impl Fn(&str) -> Result<(), String>,
    optional: impl Fn(&[String]) -> bool,
    signed: impl Fn(&[String]) -> bool,
    narrow: impl Fn(&[String]) -> bool,
) -> usize {
    let text = valid.to_string();
    decode(&text).expect("the valid input decodes");
    let mut checked = 0;
    for cut in cuts(&text, 0x9E37_79B9_7F4A_7C15) {
        assert!(
            decode(&text[..cut]).is_err(),
            "cut at {cut}: {}",
            &text[..cut]
        );
        checked += 1;
    }
    for path in paths(valid) {
        let keys = keys(valid, &path);
        let node = {
            let mut copy = valid.clone();
            std::mem::replace(node_mut(&mut copy, &path), Value::Null)
        };
        let mut expect = |input: Value, ok: bool, what: &str| {
            let result = decode(&input.to_string());
            assert_eq!(result.is_ok(), ok, "{what} at {keys:?}: {result:?}");
            checked += 1;
        };
        expect(replaced(valid, &path, swapped(&node)), false, "kind swap");
        if let Some(input) = removed(valid, &path) {
            expect(input, optional(&keys), "missing key");
        }
        if matches!(node, Value::Uint(_)) {
            let negative = replaced(valid, &path, Value::Number(-1.0));
            expect(negative, signed(&keys), "negative");
            let wide = replaced(valid, &path, Value::from(1u64 << 32));
            expect(wide, !narrow(&keys), "2^32");
        }
    }
    checked
}

fn last(keys: &[String]) -> &str {
    keys.last().map_or("", String::as_str)
}

/// A spec that carries every event action, a pin and a workload of every
/// endpoint shape.
fn spec() -> Value {
    let (topo, _, _) = generators::dumbbell(
        2,
        Bandwidth::from_mbps(100),
        Bandwidth::from_mbps(50),
        SimDuration::from_millis(1),
        SimDuration::from_millis(10),
    );
    let at = SimDuration::from_millis;
    let change = LinkChange {
        latency: Some(SimDuration::from_millis(20)),
        loss: Some(0.01),
        ..LinkChange::default()
    };
    let (orig, dest) = ("client-1".to_string(), "bridge-left".to_string());
    let events = [
        DynamicAction::SetLinkProperties {
            orig: orig.clone(),
            dest: dest.clone(),
            change,
        },
        DynamicAction::LinkLeave {
            orig: orig.clone(),
            dest: dest.clone(),
        },
        DynamicAction::LinkJoin { orig, dest, change },
        DynamicAction::NodeLeave {
            name: "server-1".to_string(),
        },
        DynamicAction::NodeJoin {
            name: "server-1".to_string(),
        },
    ];
    let mut scenario = Scenario::from_topology(topo)
        .named("malformed")
        .hosts(2)
        .place("client-0", 1)
        .duration(SimDuration::from_secs(2))
        .workload(Workload::iperf_udp(
            "client-0",
            "server-0",
            Bandwidth::from_mbps(5),
        ))
        .workload(Workload::ping("client-1", "server-1").duration(at(1500)))
        .workload(Workload::curl("server-0", &["client-1"]));
    for (i, action) in events.into_iter().enumerate() {
        scenario = scenario.event(DynamicEvent {
            at: at(100 * (i as u64 + 1)),
            action,
        });
    }
    serde_json::from_str(&scenario.to_spec_string().expect("serializable")).expect("JSON")
}

#[test]
fn malformed_specs_are_typed_errors() {
    let decode = |text: &str| match Scenario::from_spec_str(text) {
        Ok(_) => Ok(()),
        Err(e @ ScenarioError::Spec { .. }) => Err(e.to_string()),
        Err(other) => panic!("not a spec error: {other}"),
    };
    let optional = |keys: &[String]| {
        let parent = keys.len().checked_sub(2).map(|i| keys[i].as_str());
        parent == Some("change")
            || matches!(last(keys), "trace" | "duration_ns" | "step_interval_ns")
    };
    // A loss is a probability the session validates, not the decoder.
    let signed = |keys: &[String]| last(keys) == "loss";
    // 32-bit: a service replica and a placement host; and the version and
    // the link endpoints, which must name a node.
    let narrow = |keys: &[String]| {
        matches!(last(keys), "replica" | "spec_version" | "from" | "to")
            || keys.first().is_some_and(|k| k == "placement")
    };
    let checked = check_mutations(&spec(), decode, optional, signed, narrow);
    assert!(checked > 400, "{checked}");
}

/// One record of every action; every property appears, and the `set_link`
/// record keeps one whichever single property is removed.
const TRACE: &str = r#"{ "events": [
    { "at_ms": 500, "action": "link_down", "orig": "c1", "dest": "s1" },
    { "at_ms": 900, "action": "link_up", "orig": "c1", "dest": "s1",
      "latency_ms": 10, "jitter_ms": 1, "up_mbps": 50, "down_mbps": 25, "loss": 0.5 },
    { "at_ms": 1200, "action": "set_link", "orig": "s1", "dest": "s2",
      "latency_ms": 40, "loss": 0 },
    { "at_ms": 2000, "action": "node_down", "name": "sv" },
    { "at_ms": 2500, "action": "node_up", "name": "sw" }
] }"#;

#[test]
fn malformed_traces_are_typed_errors() {
    let valid: Value = serde_json::from_str(TRACE).expect("JSON");
    let decode = |text: &str| parse_trace(text).map(drop).map_err(|e| e.to_string());
    let optional = |keys: &[String]| {
        matches!(
            last(keys),
            "latency_ms" | "jitter_ms" | "up_mbps" | "down_mbps" | "loss"
        )
    };
    let probability = |keys: &[String]| last(keys) == "loss";
    let checked = check_mutations(&valid, decode, optional, |_| false, probability);
    assert!(checked > 150, "{checked}");
    // Out of range: a loss above 1 (a percentage is no probability), and
    // times and properties that are not finite.
    for (from, to, needle) in [
        (r#""loss": 0.5"#, r#""loss": 1.5"#, "probability"),
        (r#""loss": 0 "#, r#""loss": 100 "#, "probability"),
        (r#""at_ms": 500"#, r#""at_ms": 1e999"#, "at_ms"),
        (r#""up_mbps": 50"#, r#""up_mbps": -1e999"#, "up_mbps"),
    ] {
        let bad = TRACE.replacen(from, to, 1);
        assert_ne!(bad, TRACE, "{from}");
        let err = parse_trace(&bad).unwrap_err();
        assert!(err.to_string().contains(needle), "{to}: {err}");
        assert!(err.record.is_some(), "{to}: {err}");
    }
    // The serialized form decodes back to the same schedule.
    let schedule = parse_trace(TRACE).expect("valid");
    assert_eq!(parse_trace(&trace_to_json(&schedule)), Ok(schedule));
}
