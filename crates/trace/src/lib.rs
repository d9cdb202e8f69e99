//! Perturbation-tolerant flight recorder for the Kollaps emulation core.
//!
//! Large-scale emulation runs cannot be tuned from end-of-run aggregates
//! alone: the interesting questions — where does a tick spend its time,
//! how long did a worker wait at the barrier, what did an allocation round
//! cost — need *structured traces*. At the same time the recorder must
//! never perturb the run it observes: Kollaps reports are property-pinned
//! byte-identical with tracing on or off, so instrumentation has to be
//! wall-clock-only and a strict no-op when disabled.
//!
//! The design follows classic flight recorders:
//!
//! * a [`Recorder`] handle is a cheap clone of an `Arc`; the disabled
//!   recorder holds no allocation, takes no timestamps, and every call on
//!   it returns immediately;
//! * events land in per-*lane* bounded ring buffers (lane 0 is the
//!   control/dataplane lane, lanes `1..` are per-manager worker lanes), so
//!   concurrent workers never contend on one lock and a runaway run can
//!   only ever cost a fixed amount of memory — old events are dropped and
//!   counted, never reallocated;
//! * timestamps come from one shared monotonic epoch
//!   ([`std::time::Instant`]), cheap enough for per-phase spans;
//! * exporters turn the drained event list into Chrome trace-event JSON
//!   (loadable in Perfetto or `chrome://tracing`) or a structured form
//!   built on the vendored `serde_json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde_json::Value;

/// Default bound on buffered events per lane. At ~5 events per tick this
/// covers tens of thousands of ticks before the ring starts recycling.
pub const DEFAULT_LANE_CAPACITY: usize = 65_536;

/// What a single trace [`Event`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A duration span opened (`ph: "B"` in Chrome trace terms).
    SpanBegin,
    /// A duration span closed (`ph: "E"`).
    SpanEnd,
    /// A point-in-time marker (`ph: "i"`).
    Instant,
    /// A numeric counter sample (`ph: "C"`).
    Counter,
}

impl EventKind {
    /// The Chrome trace-event `ph` phase letter for this kind.
    pub fn phase_letter(self) -> &'static str {
        match self {
            EventKind::SpanBegin => "B",
            EventKind::SpanEnd => "E",
            EventKind::Instant => "i",
            EventKind::Counter => "C",
        }
    }
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Microseconds since the recorder's epoch (monotonic).
    pub at_micros: u64,
    /// Which lane recorded the event (0 = control/dataplane, `1..` =
    /// per-manager workers). Becomes the Chrome `tid`.
    pub lane: u32,
    /// Global record order, used to keep the merged export stable when
    /// two lanes record at the same microsecond.
    pub seq: u64,
    /// What the event describes.
    pub kind: EventKind,
    /// Event name (phase, span, or counter name).
    pub name: String,
    /// Numeric key/value payload attached to the event.
    pub args: Vec<(String, f64)>,
}

struct Lane {
    events: VecDeque<Event>,
}

struct Inner {
    epoch: Instant,
    seq: AtomicU64,
    dropped: AtomicU64,
    capacity: usize,
    lanes: Vec<Mutex<Lane>>,
}

impl Inner {
    fn now_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

/// Handle to the flight recorder. Cloning is cheap (an `Arc` bump); the
/// [`Recorder::disabled`] handle holds nothing and records nothing.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Recorder(disabled)"),
            Some(inner) => write!(f, "Recorder(lanes={})", inner.lanes.len()),
        }
    }
}

impl Recorder {
    /// An enabled recorder with `lanes` ring buffers of the default
    /// per-lane capacity.
    pub fn new(lanes: usize) -> Self {
        Recorder::with_capacity(lanes, DEFAULT_LANE_CAPACITY)
    }

    /// An enabled recorder with `lanes` ring buffers bounded at
    /// `capacity` events each.
    pub fn with_capacity(lanes: usize, capacity: usize) -> Self {
        let lanes = lanes.max(1);
        Recorder {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                seq: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                capacity: capacity.max(1),
                lanes: (0..lanes)
                    .map(|_| {
                        Mutex::new(Lane {
                            events: VecDeque::new(),
                        })
                    })
                    .collect(),
            })),
        }
    }

    /// The no-op recorder: no allocation, no clock reads, every call
    /// returns immediately.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// Whether this handle records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Microseconds since the recorder epoch; 0 when disabled (the
    /// disabled recorder never touches the clock).
    pub fn now_micros(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.now_micros())
    }

    /// Events dropped so far because a lane's ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.dropped.load(Ordering::Relaxed))
    }

    fn push(
        &self,
        lane: usize,
        at_micros: u64,
        kind: EventKind,
        name: String,
        args: Vec<(String, f64)>,
    ) {
        let Some(inner) = &self.inner else { return };
        let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
        let slot = lane.min(inner.lanes.len() - 1);
        let mut guard = inner.lanes[slot].lock().expect("trace lane poisoned");
        if guard.events.len() >= inner.capacity {
            guard.events.pop_front();
            inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
        guard.events.push_back(Event {
            at_micros,
            lane: slot as u32,
            seq,
            kind,
            name,
            args,
        });
    }

    /// Opens a duration span on `lane`; the span closes (emitting the
    /// matching end event) when the returned guard drops.
    pub fn span(&self, lane: usize, name: &str) -> SpanGuard {
        if self.inner.is_none() {
            return SpanGuard {
                recorder: Recorder::disabled(),
                lane: 0,
                name: String::new(),
                begin_micros: 0,
                args: Vec::new(),
            };
        }
        let at = self.now_micros();
        self.push(lane, at, EventKind::SpanBegin, name.to_string(), Vec::new());
        SpanGuard {
            recorder: self.clone(),
            lane,
            name: name.to_string(),
            begin_micros: at,
            args: Vec::new(),
        }
    }

    /// Records a point-in-time marker with a numeric payload.
    pub fn instant(&self, lane: usize, name: &str, args: &[(&str, f64)]) {
        if self.inner.is_none() {
            return;
        }
        let at = self.now_micros();
        self.push(
            lane,
            at,
            EventKind::Instant,
            name.to_string(),
            args.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        );
    }

    /// Records a counter sample (rendered as a counter track by
    /// Perfetto / `chrome://tracing`).
    pub fn counter(&self, lane: usize, name: &str, value: f64) {
        if self.inner.is_none() {
            return;
        }
        let at = self.now_micros();
        self.push(
            lane,
            at,
            EventKind::Counter,
            name.to_string(),
            vec![(name.to_string(), value)],
        );
    }

    /// Snapshot of every buffered event, merged across lanes and sorted
    /// by `(at_micros, seq)` so the export is a single coherent stream.
    pub fn events(&self) -> Vec<Event> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut all = Vec::new();
        for lane in &inner.lanes {
            let guard = lane.lock().expect("trace lane poisoned");
            all.extend(guard.events.iter().cloned());
        }
        all.sort_by_key(|e| (e.at_micros, e.seq));
        all
    }
}

/// RAII guard for an open span: records the end event (with any args
/// attached via [`SpanGuard::arg`]) when dropped.
#[derive(Debug)]
pub struct SpanGuard {
    recorder: Recorder,
    lane: usize,
    name: String,
    begin_micros: u64,
    args: Vec<(String, f64)>,
}

impl SpanGuard {
    /// Attaches a numeric argument to the span's end event.
    pub fn arg(&mut self, name: &str, value: f64) {
        if self.recorder.is_enabled() {
            self.args.push((name.to_string(), value));
        }
    }

    /// Wall-clock microseconds since the span opened (0 when the
    /// recorder is disabled).
    pub fn elapsed_micros(&self) -> u64 {
        if self.recorder.is_enabled() {
            self.recorder.now_micros().saturating_sub(self.begin_micros)
        } else {
            0
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.recorder.is_enabled() {
            let at = self.recorder.now_micros();
            self.recorder.push(
                self.lane,
                at,
                EventKind::SpanEnd,
                std::mem::take(&mut self.name),
                std::mem::take(&mut self.args),
            );
        }
    }
}

/// Accumulated wall-clock statistics for one named phase: total, call
/// count, and worst case, all in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Sum of all recorded durations, µs.
    pub total_micros: u64,
    /// Number of recorded durations.
    pub count: u64,
    /// Largest single recorded duration, µs.
    pub max_micros: u64,
}

impl PhaseStats {
    /// Folds one measured duration into the stats.
    pub fn record(&mut self, micros: u64) {
        self.total_micros += micros;
        self.count += 1;
        self.max_micros = self.max_micros.max(micros);
    }

    /// Mean duration in µs (0.0 before the first record).
    pub fn mean_micros(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_micros as f64 / self.count as f64
        }
    }
}

fn args_value(args: &[(String, f64)]) -> Value {
    args.iter()
        .map(|(k, v)| (k.as_str(), Value::from(*v)))
        .collect()
}

/// Renders what `recorder` holds as a Chrome trace-event JSON array (the
/// format `chrome://tracing` and Perfetto load directly): one object per
/// event with `ph`, `ts` (µs), `pid`, `tid`, `name`, and `args`.
///
/// A recorder whose rings overflowed lost its oldest events; the trace then
/// opens with a `trace_events_dropped` metadata event (`ph` `M`) whose
/// `args.dropped` is [`Recorder::dropped`], so a truncated trace says so.
pub fn chrome_trace(recorder: &Recorder, pid: u64) -> Value {
    let events = recorder.events();
    let dropped = recorder.dropped();
    let mut out = Vec::with_capacity(events.len() + 1);
    if dropped > 0 {
        out.push(Value::from_iter([
            ("name", Value::from(DROPPED_EVENTS)),
            ("ph", Value::from("M")),
            ("ts", Value::from(0u64)),
            ("pid", Value::from(pid)),
            ("tid", Value::from(0u64)),
            (
                "args",
                Value::from_iter([("dropped", Value::from(dropped))]),
            ),
        ]));
    }
    for event in &events {
        let mut fields = vec![
            ("name", Value::from(event.name.as_str())),
            ("cat", Value::from("kollaps")),
            ("ph", Value::from(event.kind.phase_letter())),
            ("ts", Value::from(event.at_micros)),
            ("pid", Value::from(pid)),
            ("tid", Value::from(u64::from(event.lane))),
        ];
        if event.kind == EventKind::Instant {
            // Thread-scoped instant marker.
            fields.push(("s", Value::from("t")));
        }
        if !event.args.is_empty() {
            fields.push(("args", args_value(&event.args)));
        }
        out.push(Value::from_iter(fields));
    }
    Value::Array(out)
}

/// The name of [`chrome_trace`]'s metadata event counting the events the
/// rings dropped.
pub const DROPPED_EVENTS: &str = "trace_events_dropped";

/// [`chrome_trace`], serialized to a JSON string ready to write to a
/// `.trace.json` file.
pub fn chrome_trace_string(recorder: &Recorder, pid: u64) -> String {
    serde_json::to_string(&chrome_trace(recorder, pid))
}

/// Merges per-process Chrome traces (as produced by [`chrome_trace`])
/// into one: each input is re-tagged with its index as `pid` and gains a
/// `process_name` metadata event carrying its label, so Perfetto shows
/// one named track group per agent.
pub fn merge_chrome_traces(processes: &[(String, Value)]) -> Value {
    let mut out = Vec::new();
    for (pid, (label, trace)) in processes.iter().enumerate() {
        let pid = pid as u64;
        out.push(Value::from_iter([
            ("name", Value::from("process_name")),
            ("ph", Value::from("M")),
            ("ts", Value::from(0u64)),
            ("pid", Value::from(pid)),
            ("tid", Value::from(0u64)),
            (
                "args",
                Value::from_iter([("name", Value::from(label.as_str()))]),
            ),
        ]));
        let Value::Array(events) = trace else {
            continue;
        };
        for event in events {
            let Value::Object(fields) = event else {
                continue;
            };
            let retagged: Vec<(String, Value)> = fields
                .iter()
                .map(|(k, v)| {
                    if k == "pid" {
                        (k.clone(), Value::from(pid))
                    } else {
                        (k.clone(), v.clone())
                    }
                })
                .collect();
            out.push(Value::Object(retagged));
        }
    }
    Value::Array(out)
}

/// Renders `events` in the structured (non-Chrome) form: an array of
/// `{at_micros, lane, kind, name, args}` objects, for programmatic
/// consumption with the vendored `serde_json`.
pub fn structured_json(events: &[Event]) -> Value {
    let mut out = Vec::with_capacity(events.len());
    for event in events {
        out.push(Value::from_iter([
            ("at_micros", Value::from(event.at_micros)),
            ("lane", Value::from(u64::from(event.lane))),
            ("kind", Value::from(event.kind.phase_letter())),
            ("name", Value::from(event.name.as_str())),
            ("args", args_value(&event.args)),
        ]));
    }
    Value::Array(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let recorder = Recorder::disabled();
        assert!(!recorder.is_enabled());
        assert_eq!(recorder.now_micros(), 0);
        {
            let mut span = recorder.span(0, "tick");
            span.arg("x", 1.0);
            assert_eq!(span.elapsed_micros(), 0);
        }
        recorder.instant(0, "marker", &[("v", 2.0)]);
        recorder.counter(1, "flows", 3.0);
        assert!(recorder.events().is_empty());
        assert_eq!(recorder.dropped(), 0);
    }

    #[test]
    fn spans_instants_and_counters_are_recorded_in_order() {
        let recorder = Recorder::new(3);
        {
            let mut span = recorder.span(0, "tick");
            recorder.instant(1, "publish", &[("bytes", 128.0)]);
            recorder.counter(2, "flows", 7.0);
            span.arg("gap", 0.5);
        }
        let events = recorder.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].kind, EventKind::SpanBegin);
        assert_eq!(events[0].name, "tick");
        assert_eq!(events[1].kind, EventKind::Instant);
        assert_eq!(events[1].lane, 1);
        assert_eq!(events[2].kind, EventKind::Counter);
        assert_eq!(events[2].args, vec![("flows".to_string(), 7.0)]);
        assert_eq!(events[3].kind, EventKind::SpanEnd);
        assert_eq!(events[3].args, vec![("gap".to_string(), 0.5)]);
        // Sorted by (time, seq): monotone within the snapshot.
        for pair in events.windows(2) {
            assert!((pair[0].at_micros, pair[0].seq) <= (pair[1].at_micros, pair[1].seq));
        }
    }

    #[test]
    fn lanes_are_bounded_and_count_drops() {
        let recorder = Recorder::with_capacity(1, 4);
        for i in 0..10 {
            recorder.counter(0, "c", i as f64);
        }
        let events = recorder.events();
        assert_eq!(events.len(), 4);
        assert_eq!(recorder.dropped(), 6);
        // The survivors are the newest four samples.
        assert_eq!(events[0].args[0].1, 6.0);
        assert_eq!(events[3].args[0].1, 9.0);
    }

    /// A ring smaller than what was recorded: the trace opens with the
    /// exact number of events it lost; a trace that lost nothing has no
    /// such event.
    #[test]
    fn an_overflowed_ring_reports_its_drops_in_the_chrome_trace() {
        let recorder = Recorder::with_capacity(2, 3);
        for i in 0..10 {
            recorder.counter(0, "c", i as f64);
        }
        recorder.instant(1, "mark", &[]);
        let Value::Array(entries) = chrome_trace(&recorder, 5) else {
            panic!("chrome trace must be a JSON array");
        };
        assert_eq!(entries.len(), 1 + 3 + 1);
        let meta = &entries[0];
        assert_eq!(meta.get("ph").and_then(|v| v.as_str()), Some("M"));
        assert_eq!(
            meta.get("name").and_then(|v| v.as_str()),
            Some(DROPPED_EVENTS)
        );
        assert_eq!(meta.get("pid").and_then(|v| v.as_u64()), Some(5));
        let dropped = meta.get("args").and_then(|a| a.get("dropped"));
        assert_eq!(dropped.and_then(|v| v.as_u64()), Some(7));
        assert_eq!(recorder.dropped(), 7);

        let whole = Recorder::with_capacity(1, 16);
        whole.counter(0, "c", 1.0);
        let Value::Array(entries) = chrome_trace(&whole, 5) else {
            panic!("chrome trace must be a JSON array");
        };
        assert_eq!(entries.len(), 1);
        assert!(entries
            .iter()
            .all(|e| e.get("ph").and_then(|v| v.as_str()) != Some("M")));
    }

    #[test]
    fn out_of_range_lane_clamps_instead_of_panicking() {
        let recorder = Recorder::new(2);
        recorder.counter(99, "c", 1.0);
        let events = recorder.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].lane, 1);
    }

    #[test]
    fn chrome_export_is_schema_valid_and_balanced() {
        let recorder = Recorder::new(2);
        {
            let _outer = recorder.span(0, "outer");
            {
                let _inner = recorder.span(0, "inner");
                recorder.instant(1, "mark", &[]);
            }
            recorder.counter(1, "flows", 2.0);
        }
        let trace = chrome_trace(&recorder, 42);
        let Value::Array(entries) = &trace else {
            panic!("chrome trace must be a JSON array");
        };
        let mut depth = 0i64;
        let mut open: Vec<String> = Vec::new();
        for entry in entries {
            let ph = entry.get("ph").and_then(|v| v.as_str()).expect("ph");
            assert!(entry.get("ts").and_then(|v| v.as_u64()).is_some(), "ts");
            assert_eq!(entry.get("pid").and_then(|v| v.as_u64()), Some(42));
            assert!(entry.get("tid").and_then(|v| v.as_u64()).is_some(), "tid");
            let name = entry.get("name").and_then(|v| v.as_str()).expect("name");
            match ph {
                "B" => open.push(name.to_string()),
                "E" => {
                    // LIFO nesting on one tid: E closes the innermost B.
                    assert_eq!(open.pop().as_deref(), Some(name));
                }
                "i" | "C" => {}
                other => panic!("unexpected phase letter {other}"),
            }
            depth += match ph {
                "B" => 1,
                "E" => -1,
                _ => 0,
            };
            assert!(depth >= 0, "span end before begin");
        }
        assert_eq!(depth, 0, "unbalanced spans");
        assert!(open.is_empty());
        // The string form parses back and re-serializes identically.
        let text = chrome_trace_string(&recorder, 42);
        let reparsed = serde_json::from_str(&text).expect("chrome trace string parses");
        assert_eq!(serde_json::to_string(&reparsed), text);
    }

    #[test]
    fn merged_traces_are_retagged_per_process() {
        let a = Recorder::new(1);
        a.counter(0, "x", 1.0);
        let b = Recorder::new(1);
        b.counter(0, "y", 2.0);
        let merged = merge_chrome_traces(&[
            ("host-0".to_string(), chrome_trace(&a, 7)),
            ("host-1".to_string(), chrome_trace(&b, 7)),
        ]);
        let Value::Array(entries) = &merged else {
            panic!("merged trace must be an array");
        };
        // Two metadata events plus the two counters.
        assert_eq!(entries.len(), 4);
        let meta: Vec<&Value> = entries
            .iter()
            .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("M"))
            .collect();
        assert_eq!(meta.len(), 2);
        assert_eq!(
            meta[0]
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(|v| v.as_str()),
            Some("host-0")
        );
        let pids: Vec<u64> = entries
            .iter()
            .filter_map(|e| e.get("pid").and_then(|v| v.as_u64()))
            .collect();
        assert_eq!(pids, vec![0, 0, 1, 1]);
    }

    #[test]
    fn structured_export_carries_all_fields() {
        let recorder = Recorder::new(1);
        recorder.instant(0, "mark", &[("v", 3.5)]);
        let Value::Array(entries) = structured_json(&recorder.events()) else {
            panic!("structured export must be an array");
        };
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].get("kind").and_then(|v| v.as_str()), Some("i"));
        assert_eq!(
            entries[0].get("name").and_then(|v| v.as_str()),
            Some("mark")
        );
        assert_eq!(
            entries[0]
                .get("args")
                .and_then(|a| a.get("v"))
                .and_then(|v| v.as_f64()),
            Some(3.5)
        );
    }

    #[test]
    fn phase_stats_accumulate() {
        let mut stats = PhaseStats::default();
        assert_eq!(stats.mean_micros(), 0.0);
        stats.record(10);
        stats.record(30);
        assert_eq!(stats.total_micros, 40);
        assert_eq!(stats.count, 2);
        assert_eq!(stats.max_micros, 30);
        assert_eq!(stats.mean_micros(), 20.0);
    }
}
