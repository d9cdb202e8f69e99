//! Trace replay: a simple JSON format for recorded dynamic-topology traces.
//!
//! The format is a flat record list (optionally wrapped in an object under
//! an `"events"` key), friendly to hand-editing and to tooling that dumps
//! observed churn from a real deployment:
//!
//! ```json
//! { "events": [
//!   { "at_ms": 500,  "action": "link_down", "orig": "c1", "dest": "s1" },
//!   { "at_ms": 900,  "action": "link_up",   "orig": "c1", "dest": "s1",
//!     "latency_ms": 10, "up_mbps": 50, "down_mbps": 50 },
//!   { "at_ms": 1200, "action": "set_link",  "orig": "s1", "dest": "s2",
//!     "latency_ms": 40, "loss": 0.01 },
//!   { "at_ms": 2000, "action": "node_down", "name": "sv" },
//!   { "at_ms": 2500, "action": "node_up",   "name": "sw" }
//! ] }
//! ```
//!
//! * `action` is one of `link_down`, `link_up`, `set_link`, `node_down`,
//!   `node_up`.
//! * Property fields (`latency_ms`, `jitter_ms`, `up_mbps`, `down_mbps`,
//!   `loss`) are optional; for `set_link` at least one must be present.
//! * Records may appear in **any order** — the parsed [`EventSchedule`] is
//!   normalized on construction (see
//!   [`EventSchedule::from_events`]), so an out-of-order trace
//!   can never break the emulation loop's sorted due-event scan.

use kollaps_sim::time::SimDuration;
use kollaps_sim::units::Bandwidth;
use kollaps_topology::events::{DynamicAction, DynamicEvent, EventSchedule, LinkChange};
use serde_json::{FieldError, Value};

/// A malformed trace: what was wrong and — when the problem is inside a
/// record — which record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceError {
    /// Human-readable reason.
    pub reason: String,
    /// Index of the offending record, if the trace parsed as JSON.
    pub record: Option<usize>,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.record {
            Some(i) => write!(f, "record {i}: {}", self.reason),
            None => write!(f, "{}", self.reason),
        }
    }
}

impl std::error::Error for TraceError {}

fn err(reason: impl Into<String>, record: Option<usize>) -> TraceError {
    TraceError {
        reason: reason.into(),
        record,
    }
}

impl From<FieldError> for TraceError {
    fn from(e: FieldError) -> Self {
        err(e.to_string(), None)
    }
}

/// Parses a JSON trace into a normalized (sorted) [`EventSchedule`].
pub fn parse_trace(json: &str) -> Result<EventSchedule, TraceError> {
    let value = serde_json::from_str(json).map_err(|e| err(format!("invalid JSON: {e}"), None))?;
    let records = match &value {
        Value::Array(items) => items.as_slice(),
        Value::Object(_) => value.field("events")?,
        _ => return Err(err("expected an array of records", None)),
    };
    let mut events = Vec::with_capacity(records.len());
    for (i, record) in records.iter().enumerate() {
        events.push(parse_record(record).map_err(|e| TraceError {
            record: Some(i),
            ..e
        })?);
    }
    Ok(EventSchedule::from_events(events))
}

/// A finite, non-negative number under `key`, when the record has one.
fn quantity(record: &Value, key: &str) -> Result<Option<f64>, TraceError> {
    match record.opt_field::<f64>(key)? {
        Some(n) if n < 0.0 => Err(err(format!("`{key}` must be a non-negative number"), None)),
        n => Ok(n),
    }
}

fn parse_record(record: &Value) -> Result<DynamicEvent, TraceError> {
    let at_ms = quantity(record, "at_ms")?.ok_or_else(|| err("missing numeric `at_ms`", None))?;
    let at = SimDuration::from_millis_f64(at_ms);
    let name = |key| record.field::<&str>(key).map(str::to_string);
    let action = match record.field("action")? {
        "link_down" => DynamicAction::LinkLeave {
            orig: name("orig")?,
            dest: name("dest")?,
        },
        "link_up" => DynamicAction::LinkJoin {
            orig: name("orig")?,
            dest: name("dest")?,
            change: parse_change(record)?,
        },
        "set_link" => {
            let change = parse_change(record)?;
            if change == LinkChange::default() {
                return Err(err("`set_link` needs at least one property field", None));
            }
            DynamicAction::SetLinkProperties {
                orig: name("orig")?,
                dest: name("dest")?,
                change,
            }
        }
        "node_down" => DynamicAction::NodeLeave {
            name: name("name")?,
        },
        "node_up" => DynamicAction::NodeJoin {
            name: name("name")?,
        },
        other => return Err(err(format!("unknown action `{other}`"), None)),
    };
    Ok(DynamicEvent { at, action })
}

fn parse_change(record: &Value) -> Result<LinkChange, TraceError> {
    let loss = quantity(record, "loss")?;
    // A probability, not a percentage: the rest of the stack asserts the
    // [0, 1] range, so reject it here with the record index.
    if loss.is_some_and(|loss| loss > 1.0) {
        return Err(err("`loss` must be a probability in [0, 1]", None));
    }
    Ok(LinkChange {
        latency: quantity(record, "latency_ms")?.map(SimDuration::from_millis_f64),
        jitter: quantity(record, "jitter_ms")?.map(SimDuration::from_millis_f64),
        up: quantity(record, "up_mbps")?.map(Bandwidth::from_mbps_f64),
        down: quantity(record, "down_mbps")?.map(Bandwidth::from_mbps_f64),
        loss,
    })
}

/// Serializes a schedule back into the trace format (an object with an
/// `"events"` array), so recorded or generated churn can be stored and
/// replayed. `parse_trace(&trace_to_json(s))` reproduces `s` up to the
/// millisecond resolution of `at_ms`.
pub fn trace_to_json(schedule: &EventSchedule) -> String {
    let records: Vec<Value> = schedule.events().iter().map(record_to_json).collect();
    Value::from_iter([("events", Value::Array(records))]).to_string()
}

fn record_to_json(event: &DynamicEvent) -> Value {
    let link = |orig: &String, dest: &String| vec![("orig", orig.clone()), ("dest", dest.clone())];
    let (action, names, change) = match &event.action {
        DynamicAction::LinkLeave { orig, dest } => ("link_down", link(orig, dest), None),
        DynamicAction::LinkJoin { orig, dest, change } => {
            ("link_up", link(orig, dest), Some(change))
        }
        DynamicAction::SetLinkProperties { orig, dest, change } => {
            ("set_link", link(orig, dest), Some(change))
        }
        DynamicAction::NodeLeave { name } => ("node_down", vec![("name", name.clone())], None),
        DynamicAction::NodeJoin { name } => ("node_up", vec![("name", name.clone())], None),
    };
    let mut fields = vec![
        ("at_ms", event.at.as_millis_f64().into()),
        ("action", action.into()),
    ];
    fields.extend(names.into_iter().map(|(key, name)| (key, name.into())));
    if let Some(change) = change {
        let ms = |d: Option<SimDuration>| d.map(|d| d.as_millis_f64());
        let mbps = |b: Option<Bandwidth>| b.map(|b| b.as_mbps());
        let properties = [
            ("latency_ms", ms(change.latency)),
            ("jitter_ms", ms(change.jitter)),
            ("up_mbps", mbps(change.up)),
            ("down_mbps", mbps(change.down)),
            ("loss", change.loss),
        ];
        fields.extend(
            properties
                .into_iter()
                .filter_map(|(key, v)| Some((key, v?.into()))),
        );
    }
    Value::from_iter(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_actions_and_normalizes_order() {
        // Records deliberately out of order: the deserialized schedule must
        // come out sorted, or the emulation loop's due-event scan (and the
        // sortedness `change_times` relies on) would silently break.
        let trace = r#"{ "events": [
            { "at_ms": 2000, "action": "node_down", "name": "sv" },
            { "at_ms": 500,  "action": "link_down", "orig": "c1", "dest": "s1" },
            { "at_ms": 900,  "action": "link_up", "orig": "c1", "dest": "s1",
              "latency_ms": 10, "up_mbps": 50, "down_mbps": 25, "loss": 0.01 },
            { "at_ms": 1200, "action": "set_link", "orig": "s1", "dest": "s2",
              "latency_ms": 40.5 },
            { "at_ms": 2500, "action": "node_up", "name": "sw" }
        ] }"#;
        let schedule = parse_trace(trace).expect("valid trace");
        assert_eq!(schedule.len(), 5);
        let times: Vec<f64> = schedule
            .events()
            .iter()
            .map(|e| e.at.as_millis_f64())
            .collect();
        assert_eq!(times, [500.0, 900.0, 1200.0, 2000.0, 2500.0]);
        let DynamicAction::LinkJoin { change, .. } = &schedule.events()[1].action else {
            panic!("expected link_up second");
        };
        assert_eq!(change.latency, Some(SimDuration::from_millis(10)));
        assert_eq!(change.up, Some(Bandwidth::from_mbps(50)));
        assert_eq!(change.down, Some(Bandwidth::from_mbps(25)));
        assert_eq!(change.loss, Some(0.01));
        assert_eq!(change.jitter, None);
        assert!(matches!(
            &schedule.events()[2].action,
            DynamicAction::SetLinkProperties { .. }
        ));
        assert_eq!(schedule.change_times().len(), 5);
    }

    #[test]
    fn bare_arrays_are_accepted() {
        let schedule =
            parse_trace(r#"[{ "at_ms": 10, "action": "node_down", "name": "x" }]"#).unwrap();
        assert_eq!(schedule.len(), 1);
    }

    #[test]
    fn malformed_traces_are_typed_errors() {
        for (trace, needle) in [
            ("nonsense", "invalid JSON"),
            ("{}", "events"),
            (r#"[{ "action": "node_down", "name": "x" }]"#, "at_ms"),
            (r#"[{ "at_ms": 5 }]"#, "action"),
            (r#"[{ "at_ms": 5, "action": "warp" }]"#, "unknown action"),
            (
                r#"[{ "at_ms": 5, "action": "link_down", "orig": "a" }]"#,
                "dest",
            ),
            (
                r#"[{ "at_ms": 5, "action": "set_link", "orig": "a", "dest": "b" }]"#,
                "at least one property",
            ),
            (
                r#"[{ "at_ms": 5, "action": "set_link", "orig": "a", "dest": "b", "loss": -1 }]"#,
                "non-negative",
            ),
            (
                r#"[{ "at_ms": 5, "action": "set_link", "orig": "a", "dest": "b", "loss": 1.5 }]"#,
                "probability",
            ),
            (
                r#"[{ "at_ms": -2, "action": "node_down", "name": "x" }]"#,
                "at_ms",
            ),
        ] {
            let error = parse_trace(trace).expect_err(trace);
            assert!(
                error.to_string().contains(needle),
                "`{trace}` → `{error}` (wanted `{needle}`)"
            );
        }
    }

    #[test]
    fn round_trips_through_the_json_form() {
        let trace = r#"[
            { "at_ms": 500, "action": "link_down", "orig": "c1", "dest": "s1" },
            { "at_ms": 900, "action": "link_up", "orig": "c1", "dest": "s1",
              "latency_ms": 10, "jitter_ms": 0.5, "up_mbps": 50, "down_mbps": 25,
              "loss": 0.01 },
            { "at_ms": 1000, "action": "node_down", "name": "sv" }
        ]"#;
        let schedule = parse_trace(trace).unwrap();
        let reparsed = parse_trace(&trace_to_json(&schedule)).unwrap();
        assert_eq!(schedule, reparsed);
    }
}
