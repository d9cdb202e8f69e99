//! The live, resumable execution engine behind [`crate::Scenario`].
//!
//! A [`Session`] is a running experiment you can hold in your hand:
//! [`Session::step`] and [`Session::run_until`] advance the virtual clock
//! in increments — they are the only way the clock moves — live
//! accessors ([`Session::clock`], [`Session::flow_progress`],
//! [`Session::link_loads`], [`Session::convergence`]) expose the running
//! state between steps, attached [`Sink`]s stream typed
//! [`TelemetryEvent`]s, and the steering calls
//! ([`Session::inject_workload`], [`Session::inject_event`],
//! [`Session::inject_churn`]) change the experiment *while it runs* —
//! extending the precomputed snapshot timeline incrementally instead of
//! rebuilding it.
//!
//! The one-shot [`crate::Scenario::run`] is a thin wrapper:
//! `scenario.session()?.finish()`. The engine dispatches workload events
//! (completion re-arming, window finalization) at exactly the same
//! instants whether the clock is driven in one go or in arbitrary user
//! steps: runtime events that fall between dispatch points are buffered
//! and handled at the next dispatch point, so a stepped session is
//! **byte-identical** to the one-shot path (pinned by a property test).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use kollaps_core::collapse::Addressable;
use kollaps_core::emulation::KollapsDataplane;
use kollaps_core::runtime::{Runtime, RuntimeEvent};
use kollaps_netmodel::packet::Addr;
use kollaps_sim::prelude::*;
use kollaps_topology::events::{DynamicAction, DynamicEvent, EventSchedule};
use kollaps_topology::model::{LinkId, Topology};

use crate::backend::AnyDataplane;
use crate::report::{
    ConvergenceReport, DynamicsReport, HostMetadata, LinkReport, PhaseTimingReport, Report,
};
use crate::telemetry::{Aggregator, FlowProgress, Sink, TelemetryEvent};
use crate::workload::{LinkDemand, LiveWorkload, Owners, Workload};
use crate::{Churn, ScenarioError};

/// Everything that can go wrong while driving or steering a live session.
///
/// Scenario *composition* problems keep their typed [`ScenarioError`]
/// (wrapped in [`SessionError::Invalid`]); the variants here are the
/// session-lifecycle failures that cannot exist in the one-shot world.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// An injected event or churn spec targets a time the session clock
    /// has already passed — the emulated past cannot be rewritten.
    PastInjection {
        /// Requested effect time, seconds since scenario start.
        at_s: f64,
        /// The session clock at injection, seconds since scenario start.
        now_s: f64,
    },
    /// The injected workload, event or churn spec failed validation
    /// against the running scenario (unknown node, unsupported backend,
    /// invalid spec, ...).
    Invalid(ScenarioError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::PastInjection { at_s, now_s } => write!(
                f,
                "cannot inject at t={at_s}s: the session clock is already at {now_s}s"
            ),
            SessionError::Invalid(e) => write!(f, "invalid injection: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<ScenarioError> for SessionError {
    fn from(e: ScenarioError) -> Self {
        SessionError::Invalid(e)
    }
}

/// Default wall-clock slice between event-dispatch rounds (same granularity
/// the standalone wrk2/curl drivers used); overridable per scenario with
/// [`crate::Scenario::step_interval`].
pub(crate) const DEFAULT_STEP: SimDuration = SimDuration::from_millis(100);

/// Construction bundle handed from the scenario builder to the session
/// (the builder validated everything; the session only runs it).
pub(crate) struct SessionInit {
    pub scenario_name: String,
    pub backend_name: String,
    pub hosts: usize,
    pub topology: Topology,
    pub dataplane: AnyDataplane,
    pub workloads: Vec<Workload>,
    pub total_end: SimTime,
    pub duration_capped: bool,
    pub step: SimDuration,
    pub recorder: kollaps_trace::Recorder,
}

/// A live experiment; the module-level docs above state the stepping
/// contract.
pub struct Session {
    rt: Runtime<AnyDataplane>,
    scenario_name: String,
    backend_name: String,
    hosts: usize,
    /// The declared (base) topology — the universe workload endpoints are
    /// validated and resolved against, injected ones included.
    topology: Topology,
    /// One record per workload, in declaration order (injected ones
    /// append).
    workloads: Vec<LiveWorkload>,
    /// Which workload each HTTP connection belongs to.
    owner: Owners,
    demands: Vec<LinkDemand>,
    /// Times the clock must land on exactly: workload window edges.
    boundaries: Vec<SimTime>,
    /// The last event-dispatch point (the one-shot loop's `now`).
    dispatched: SimTime,
    /// The session clock; `>= dispatched` (strictly greater when a user
    /// step stopped between dispatch points).
    cursor: SimTime,
    total_end: SimTime,
    /// `true` when an explicit `Scenario::duration` cap fixed `total_end`
    /// (injected workloads are then clipped instead of extending it).
    duration_capped: bool,
    step: SimDuration,
    sinks: Vec<Box<dyn Sink>>,
    /// The built-in flow-class aggregator: every finalized flow folds into
    /// it, and [`Session::finish`] exports it as `Report::flow_classes`.
    aggregator: Aggregator,
    /// Runtime events collected between dispatch points; handled at the
    /// next dispatch point so stepping granularity cannot change outcomes.
    pending: Vec<RuntimeEvent>,
    /// Telemetry watermarks (what has already been reported to sinks).
    seen_snapshots: usize,
    seen_metadata_bytes: u64,
    oversubscribed: BTreeSet<u32>,
    /// The flight recorder (disabled unless the scenario enabled tracing);
    /// the same handle the Kollaps dataplane and its managers write to.
    recorder: kollaps_trace::Recorder,
}

impl Session {
    pub(crate) fn new(init: SessionInit) -> Result<Self, ScenarioError> {
        let SessionInit {
            scenario_name,
            backend_name,
            hosts,
            topology,
            dataplane,
            workloads,
            total_end,
            duration_capped,
            step,
            recorder,
        } = init;
        recorder.instant(
            0,
            "session_created",
            &[("workloads", workloads.len() as f64)],
        );
        let mut session = Session {
            rt: Runtime::new(dataplane),
            scenario_name,
            backend_name,
            hosts,
            topology,
            workloads: Vec::with_capacity(workloads.len()),
            owner: Owners::default(),
            demands: Vec::new(),
            boundaries: vec![total_end],
            dispatched: SimTime::ZERO,
            cursor: SimTime::ZERO,
            total_end,
            duration_capped,
            step,
            sinks: Vec::new(),
            aggregator: Aggregator::new(),
            pending: Vec::new(),
            seen_snapshots: 0,
            seen_metadata_bytes: 0,
            oversubscribed: BTreeSet::new(),
            recorder,
        };
        for workload in workloads {
            let endpoints =
                crate::resolve_workload(&session.topology, &session.rt.dataplane, &workload)?;
            let window = workload.window(SimTime::ZERO, Some(total_end))?;
            session.register(workload, endpoints, window);
        }
        Ok(session)
    }

    /// Registers a resolved workload for `window` and makes the window's
    /// edges dispatch points.
    fn register(
        &mut self,
        workload: Workload,
        endpoints: (Addr, Vec<Addr>),
        window: (SimTime, SimTime),
    ) {
        let idx = self.workloads.len();
        let (rt, owner) = (&mut self.rt, &mut self.owner);
        let live = LiveWorkload::register(rt, owner, idx, workload, endpoints, window);
        self.workloads.push(live);
        self.add_boundary(window.0);
        self.add_boundary(window.1);
    }

    // ------------------------------------------------------------------
    // Clock driving
    // ------------------------------------------------------------------

    /// Current virtual time of the session.
    pub fn clock(&self) -> SimTime {
        self.cursor
    }

    /// When the experiment timeline ends (grows if an injected workload
    /// outlives every declared one and no duration cap was set).
    pub fn end(&self) -> SimTime {
        self.total_end
    }

    /// Advances the clock by `dt` (saturating, then clipped to the end of
    /// the experiment) and returns the new clock. Never fails.
    pub fn step(&mut self, dt: SimDuration) -> Result<SimTime, SessionError> {
        self.advance(self.cursor.saturating_add(dt).min(self.total_end));
        Ok(self.cursor)
    }

    /// Advances the clock to `deadline` (clipped to the end of the
    /// experiment) and returns the new clock. Never fails.
    pub fn run_until(&mut self, deadline: SimTime) -> Result<SimTime, SessionError> {
        self.advance(deadline.min(self.total_end));
        Ok(self.cursor)
    }

    /// Runs whatever remains of the timeline, finalizes every workload and
    /// returns the structured [`Report`] — exactly what the one-shot
    /// [`crate::Scenario::run`] returns.
    pub fn finish(mut self) -> Report {
        let span = self.recorder.span(0, "session_finish");
        self.advance(self.total_end);
        drop(span);
        let dropped = self.recorder.dropped();
        if dropped > 0 {
            eprintln!(
                "warning: the trace rings overflowed and dropped the {dropped} oldest events (the Chrome trace carries the count)"
            );
        }
        // Safety net: windows clipped exactly to the end are finalized by
        // the last dispatch; anything left (zero-length timeline) ends
        // here.
        for idx in 0..self.workloads.len() {
            if self.workloads[idx].finished.is_none() {
                self.finalize_workload(idx);
            }
        }
        self.build_report()
    }

    /// The clock-driving core. Dispatch points are computed exactly like
    /// the pre-session one-shot loop computed its slice ends (step
    /// interval, clipped to the next window boundary and the experiment
    /// end), independent of how callers slice their steps: a step that
    /// stops between dispatch points buffers runtime events and handles
    /// them when the dispatch point is eventually reached. Observing the
    /// session between steps therefore cannot perturb its results.
    fn advance(&mut self, target: SimTime) {
        while self.cursor < target {
            let next = self.next_dispatch();
            let events = self.rt.run_until(next.min(target));
            self.pending.extend(events);
            if next <= target {
                self.dispatch(next);
            } else {
                self.cursor = target;
            }
        }
    }

    /// The next event-dispatch instant after the last one.
    fn next_dispatch(&self) -> SimTime {
        let mut next = self.dispatched.saturating_add(self.step);
        if let Some(&b) = self.boundaries.iter().find(|&&b| b > self.dispatched) {
            next = next.min(b);
        }
        next.min(self.total_end)
    }

    /// One event-dispatch round at `now`: handle buffered completions,
    /// finalize windows that closed, emit telemetry.
    fn dispatch(&mut self, now: SimTime) {
        for event in std::mem::take(&mut self.pending) {
            if let RuntimeEvent::TcpCompleted { flow, at } = event {
                let Some(idx) = self.owner.get(flow) else {
                    continue;
                };
                self.workloads[idx].on_completion(&mut self.rt, &mut self.owner, idx, flow, at);
            }
        }
        self.dispatched = now;
        self.cursor = now;
        for idx in 0..self.workloads.len() {
            let w = &mut self.workloads[idx];
            if !w.started_emitted && w.start <= now {
                w.started_emitted = true;
                if !self.sinks.is_empty() {
                    let (client, server) = w.workload.endpoint_names();
                    let event = TelemetryEvent::FlowStarted {
                        at_s: w.start.as_secs_f64(),
                        workload: w.workload.label().to_string(),
                        client,
                        server,
                    };
                    self.emit(&event);
                }
            }
        }
        for idx in 0..self.workloads.len() {
            let w = &self.workloads[idx];
            if w.end == now && w.finished.is_none() {
                self.finalize_workload(idx);
            }
        }
        self.dataplane_telemetry();
    }

    /// Finalizes workload `idx` into its [`crate::FlowReport`].
    fn finalize_workload(&mut self, idx: usize) {
        let w = &mut self.workloads[idx];
        let at_s = w.end.as_secs_f64();
        let report = w.finalize(&mut self.rt, &mut self.demands);
        self.aggregator.observe_flow(report);
        if !self.sinks.is_empty() {
            let event = TelemetryEvent::FlowFinished {
                at_s,
                report: Box::new(report.clone()),
            };
            self.emit(&event);
        }
    }

    /// Detects and reports dataplane-side occurrences since the last
    /// dispatch: applied topology changes, oversubscription transitions
    /// and metadata put on the physical network.
    fn dataplane_telemetry(&mut self) {
        let want = !self.sinks.is_empty();
        let mut events: Vec<TelemetryEvent> = Vec::new();
        if let Some(dp) = self.rt.dataplane.kollaps() {
            let applied = dp.dynamics().snapshots_applied;
            if applied > self.seen_snapshots {
                if want {
                    for delta in &dp.timeline().deltas()[self.seen_snapshots..applied] {
                        events.push(TelemetryEvent::DynamicEventApplied {
                            at_s: delta.at.as_secs_f64(),
                            events: delta.events,
                            changed_paths: delta.swap_cost(),
                        });
                    }
                }
                self.seen_snapshots = applied;
            }
            let at_s = self.cursor.as_secs_f64();
            let current: BTreeSet<u32> = dp.oversubscribed_links().iter().map(|l| l.0).collect();
            if current != self.oversubscribed {
                if want {
                    // BTreeSet differences iterate in ascending link order.
                    let onset: Vec<u32> =
                        current.difference(&self.oversubscribed).copied().collect();
                    let cleared: Vec<u32> =
                        self.oversubscribed.difference(&current).copied().collect();
                    for link in onset {
                        events.push(TelemetryEvent::OversubscriptionOnset { at_s, link });
                    }
                    for link in cleared {
                        events.push(TelemetryEvent::OversubscriptionCleared { at_s, link });
                    }
                }
                self.oversubscribed = current;
            }
            let total = dp.metadata_accounting().total_network_bytes();
            if total > self.seen_metadata_bytes {
                if want {
                    events.push(TelemetryEvent::MetadataDelivered {
                        at_s,
                        bytes: total - self.seen_metadata_bytes,
                    });
                }
                self.seen_metadata_bytes = total;
            }
        }
        for event in &events {
            self.emit(event);
        }
    }

    fn emit(&mut self, event: &TelemetryEvent) {
        for sink in &mut self.sinks {
            sink.on_event(event);
        }
    }

    // ------------------------------------------------------------------
    // Live accessors
    // ------------------------------------------------------------------

    /// Attaches a telemetry sink. Sinks receive every subsequent
    /// [`TelemetryEvent`] synchronously, in attachment order.
    pub fn attach_sink(&mut self, sink: Box<dyn Sink>) {
        self.sinks.push(sink);
    }

    /// Point-in-time progress of every workload, in declaration order
    /// (injected workloads append).
    pub fn flow_progress(&self) -> Vec<FlowProgress> {
        self.workloads
            .iter()
            .map(|w| w.progress(&self.rt, self.cursor))
            .collect()
    }

    /// The Kollaps dataplane under this session, read-only — `None` on a
    /// baseline backend. Its per-host Emulation Managers, allocator and
    /// packet-path counters, metadata accounting and per-host convergence
    /// gap series are read straight from it; steering stays on the session
    /// ([`Session::inject_event`], [`Session::install_metadata_bus`], ...).
    pub fn kollaps(&self) -> Option<&KollapsDataplane> {
        self.rt.dataplane.kollaps()
    }

    /// Live offered load per original-topology link, from the emulation
    /// managers' most recent loop iteration (Kollaps backend only; empty
    /// otherwise).
    pub fn link_loads(&self) -> Vec<LinkReport> {
        let Some(dp) = self.kollaps() else {
            return Vec::new();
        };
        dp.link_usage()
            .into_iter()
            .map(|(link, offered)| {
                let capacity_mbps = dp
                    .collapsed()
                    .link_capacity(link)
                    .map(|b| b.as_mbps())
                    .unwrap_or(f64::INFINITY);
                LinkReport::new(link.0, offered.as_mbps(), capacity_mbps)
            })
            .collect()
    }

    /// The session's flight recorder — disabled (a no-op handle) unless
    /// the scenario enabled [`crate::Scenario::trace`]. The handle is
    /// reference-counted and shared with the emulation core: clone it
    /// before [`Session::finish`] to read the recorded events afterwards,
    /// and export them with [`kollaps_trace::chrome_trace_string`] or
    /// [`kollaps_trace::structured_json`].
    pub fn tracer(&self) -> &kollaps_trace::Recorder {
        &self.recorder
    }

    /// Per-flow-class percentile telemetry aggregated over the flows
    /// finalized *so far* (live view of what [`Session::finish`] exports
    /// as [`Report::flow_classes`]).
    pub fn flow_classes(&self) -> Vec<crate::report::FlowClassReport> {
        self.aggregator.flow_classes()
    }

    /// Deterministic work counters of the event loop so far (events popped,
    /// dataplane wake-ups handled, dead wake-ups dropped). Any backend;
    /// never part of the [`Report`].
    pub fn event_loop_stats(&self) -> kollaps_core::EventLoopStats {
        self.rt.event_loop_stats()
    }

    /// Metadata bytes put on the physical network so far, per host — the
    /// live view of what the final report exports as
    /// [`Report`]`::metadata_per_host`. Distributed agents read this
    /// mid-run to stream health frames to the coordinator. Empty on a
    /// baseline backend.
    pub fn metadata_per_host(&self) -> Vec<HostMetadata> {
        self.kollaps().map(host_metadata).unwrap_or_default()
    }

    /// How close the decentralized enforcement has tracked the omniscient
    /// allocation so far (Kollaps backend only).
    pub fn convergence(&self) -> Option<ConvergenceReport> {
        self.kollaps().map(|dp| dp.convergence().into())
    }

    // ------------------------------------------------------------------
    // Distributed execution hooks
    // ------------------------------------------------------------------

    /// Replaces the Kollaps dataplane's dissemination transport — the
    /// distributed runtime injects its socket-backed bus here so metadata
    /// rides real datagrams instead of the modeled delay queue. Only valid
    /// on the Kollaps backend, before the clock has advanced (swapping
    /// transports mid-run would lose in-flight metadata, reported as
    /// [`SessionError::PastInjection`]), and with a bus that connects
    /// exactly the session's hosts, ids `0..hosts`.
    pub fn install_metadata_bus(
        &mut self,
        bus: Box<dyn kollaps_metadata::bus::Bus>,
    ) -> Result<(), SessionError> {
        let now = self.cursor;
        let backend = self.backend_name.clone();
        let dp = self.kollaps_or_unsupported("metadata bus replacement")?;
        if now > SimTime::ZERO {
            return Err(SessionError::PastInjection {
                at_s: 0.0,
                now_s: now.as_secs_f64(),
            });
        }
        let hosts = dp.host_count() as u32;
        let connected: Vec<u32> = bus.hosts().iter().map(|h| h.0).collect();
        if !connected.iter().copied().eq(0..hosts) {
            return Err(SessionError::Invalid(ScenarioError::UnsupportedBackend {
                backend,
                reason: format!(
                    "the replacement metadata bus connects {} host(s) {connected:?}; the \
                     session emulates {hosts} (ids 0..{hosts})",
                    connected.len()
                ),
            }));
        }
        dp.set_bus(bus);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Live steering
    // ------------------------------------------------------------------

    /// Injects a workload into the running session. The workload is
    /// validated against the scenario topology exactly like a declared
    /// one; its start is clamped forward to the current clock (an injected
    /// workload cannot start in the past), and — unless the scenario set
    /// an explicit duration cap — the experiment end grows to cover its
    /// window.
    pub fn inject_workload(&mut self, workload: Workload) -> Result<(), SessionError> {
        crate::validate_workloads(&self.topology, std::slice::from_ref(&workload))?;
        let endpoints = crate::resolve_workload(&self.topology, &self.rt.dataplane, &workload)?;
        let cap = self.duration_capped.then_some(self.total_end);
        let (start, end) = workload.window(self.cursor, cap)?;
        if self.duration_capped {
            // A capped timeline clips the window; a window clipped to
            // nothing would register a phantom flow that can never run.
            if start >= self.total_end {
                return Err(SessionError::Invalid(ScenarioError::InvalidWorkload {
                    reason: format!(
                        "injected workload window starts at {:.3}s, at or beyond the \
                         scenario duration cap of {:.3}s",
                        start.as_secs_f64(),
                        self.total_end.as_secs_f64()
                    ),
                }));
            }
        } else if end > self.total_end {
            self.total_end = end;
            self.add_boundary(end);
        }
        let label = workload.label();
        self.register(workload, endpoints, (start, end));
        self.recorder
            .instant(0, "inject_workload", &[("start_s", start.as_secs_f64())]);
        if !self.sinks.is_empty() {
            let event = TelemetryEvent::WorkloadInjected {
                at_s: self.cursor.as_secs_f64(),
                workload: label.to_string(),
                start_s: start.as_secs_f64(),
            };
            self.emit(&event);
        }
        Ok(())
    }

    /// Injects a dynamic topology event into the running session. The
    /// event must lie strictly in the future of the clock, its node names
    /// are validated against the topology *as evolved* at that time, and
    /// the precomputed snapshot timeline is extended **incrementally** —
    /// an injected event produces exactly the snapshots (and therefore
    /// exactly the emulation) the same event declared up front would have.
    pub fn inject_event(&mut self, event: DynamicEvent) -> Result<(), SessionError> {
        let mut schedule = EventSchedule::new();
        schedule.push(event);
        self.inject_schedule(schedule, true)?;
        Ok(())
    }

    /// Expands a churn generator against the topology as evolved at the
    /// current clock and injects the resulting events. **Every** generated
    /// event must lie in the clock's future (give the spec a
    /// [`Churn::start`] at or after the clock): a generator's events are
    /// causally paired (partition/heal, link down/up), so silently
    /// dropping a past half would corrupt the topology — a half-past
    /// schedule is rejected whole with [`SessionError::PastInjection`].
    /// Returns how many events were injected.
    pub fn inject_churn(&mut self, churn: Churn) -> Result<usize, SessionError> {
        let now = self.cursor.saturating_since(SimTime::ZERO);
        let evolved = self
            .kollaps_or_unsupported("churn injection")?
            .timeline()
            .topology_at(now);
        let generated = churn
            .generate(&evolved)
            .map_err(|e| SessionError::Invalid(e.into()))?;
        if generated.is_empty() {
            return Ok(0);
        }
        let injected = generated.len();
        // The generator already validated names; `inject_schedule` rejects
        // the whole batch if any event lies at or before the clock.
        self.inject_schedule(generated, false)?;
        Ok(injected)
    }

    /// Shared injection path: checks the backend, rejects past times,
    /// optionally validates node names, extends the timeline.
    fn inject_schedule(
        &mut self,
        schedule: EventSchedule,
        validate_names: bool,
    ) -> Result<(), SessionError> {
        let now = self.cursor;
        let dp = self.kollaps_or_unsupported("dynamic event injection")?;
        for event in schedule.events() {
            if SimTime::ZERO + event.at <= now {
                return Err(SessionError::PastInjection {
                    at_s: event.at.as_secs_f64(),
                    now_s: now.as_secs_f64(),
                });
            }
        }
        if validate_names {
            for event in schedule.events() {
                let topo = dp.timeline().topology_at(event.at);
                validate_action(&topo, &event.action)?;
            }
        }
        let derived = dp.extend_timeline(now, &schedule);
        self.recorder.instant(
            0,
            "inject_events",
            &[
                ("events", schedule.len() as f64),
                ("deltas_derived", derived as f64),
            ],
        );
        if !self.sinks.is_empty() {
            let event = TelemetryEvent::EventsInjected {
                at_s: now.as_secs_f64(),
                events: schedule.len(),
                deltas_derived: derived,
            };
            self.emit(&event);
        }
        Ok(())
    }

    /// The Kollaps dataplane steering `what` needs, or the typed error a
    /// baseline backend answers with.
    fn kollaps_or_unsupported(
        &mut self,
        what: &str,
    ) -> Result<&mut KollapsDataplane, SessionError> {
        let backend = &self.backend_name;
        self.rt.dataplane.kollaps_mut().ok_or_else(|| {
            SessionError::Invalid(ScenarioError::UnsupportedBackend {
                backend: backend.clone(),
                reason: format!("{what} requires the Kollaps emulation manager"),
            })
        })
    }

    fn add_boundary(&mut self, t: SimTime) {
        if let Err(i) = self.boundaries.binary_search(&t) {
            self.boundaries.insert(i, t);
        }
    }

    /// Assembles the final [`Report`]. Offered load per link sums the
    /// finalized workloads' bulk transfers over their paths in the final
    /// snapshot.
    fn build_report(&mut self) -> Report {
        let collapsed = self.rt.dataplane.collapsed();
        let mut offered: BTreeMap<u32, f64> = BTreeMap::new();
        for demand in &self.demands {
            if demand.mbps <= 0.0 {
                continue;
            }
            let Some(path) = collapsed.path_by_addr(demand.src, demand.dst) else {
                continue;
            };
            for link in &path.links {
                *offered.entry(link.0).or_default() += demand.mbps;
            }
        }
        let links = offered
            .into_iter()
            .map(|(link, offered_mbps)| {
                let capacity_mbps = collapsed
                    .link_capacity(LinkId(link))
                    .map(|b| b.as_mbps())
                    .unwrap_or(f64::INFINITY);
                LinkReport::new(link, offered_mbps, capacity_mbps)
            })
            .collect();
        let kollaps = self.rt.dataplane.kollaps();
        let metadata_bytes = kollaps.map(|dp| dp.metadata_accounting().total_network_bytes());
        let metadata_per_host = kollaps.map(host_metadata).unwrap_or_default();
        let convergence = kollaps.map(|dp| dp.convergence().into());
        let phase_timing = kollaps.and_then(|dp| dp.phase_timing()).map(|phases| {
            phases
                .into_iter()
                .map(|(phase, stats)| PhaseTimingReport {
                    phase: phase.to_string(),
                    total_micros: stats.total_micros,
                    mean_micros: stats.mean_micros(),
                    max_micros: stats.max_micros,
                    count: stats.count,
                })
                .collect()
        });
        // A scenario without dynamic events reports no dynamics block.
        let dynamics = kollaps
            .filter(|dp| !dp.timeline().is_empty())
            .map(|dp| dp.dynamics())
            .map(|d| DynamicsReport {
                precompute_micros: d.precompute_micros,
                snapshots_precomputed: d.snapshots_precomputed,
                snapshots_applied: d.snapshots_applied,
                events_applied: d.events_applied,
                mean_swap_cost: d.mean_swap_cost(),
                max_swap_cost: d.changed_paths_max,
                chains_touched: d.chains_touched_total,
                pair_count: d.pair_count,
            });
        Report {
            scenario: std::mem::take(&mut self.scenario_name),
            backend: std::mem::take(&mut self.backend_name),
            hosts: self.hosts,
            duration_s: self.total_end.as_secs_f64(),
            flows: std::mem::take(&mut self.workloads)
                .into_iter()
                .filter_map(|w| w.finished.map(|(report, _)| report))
                .collect(),
            links,
            metadata_bytes,
            metadata_per_host,
            convergence,
            dynamics,
            flow_classes: self.aggregator.flow_classes(),
            phase_timing,
        }
    }
}

/// Per-host metadata traffic on the physical network, in host-id order.
fn host_metadata(dp: &KollapsDataplane) -> Vec<HostMetadata> {
    let accounting = dp.metadata_accounting();
    (0..dp.host_count() as u32)
        .map(|host| {
            let id = kollaps_metadata::bus::HostId(host);
            HostMetadata {
                host,
                sent_bytes: accounting.sent_bytes.get(&id).copied().unwrap_or(0),
                received_bytes: accounting.received_bytes.get(&id).copied().unwrap_or(0),
            }
        })
        .collect()
}

/// Validates the node names a dynamic action references against a concrete
/// topology ([`DynamicAction::NodeJoin`] legitimately names an absent
/// node, so it is exempt).
fn validate_action(topology: &Topology, action: &DynamicAction) -> Result<(), SessionError> {
    let check = |name: &String| -> Result<(), SessionError> {
        if topology.node_by_name(name).is_none() {
            return Err(SessionError::Invalid(ScenarioError::UnknownNode {
                name: name.clone(),
            }));
        }
        Ok(())
    };
    match action {
        DynamicAction::SetLinkProperties { orig, dest, .. }
        | DynamicAction::LinkJoin { orig, dest, .. }
        | DynamicAction::LinkLeave { orig, dest } => {
            check(orig)?;
            check(dest)
        }
        DynamicAction::NodeLeave { name } => check(name),
        DynamicAction::NodeJoin { .. } => Ok(()),
    }
}

// The session's own behavioural tests live here; the equivalence property
// (stepped session == one-shot run, churn included) is pinned in
// `tests/properties.rs`.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, FlowStatus, Scenario, Workload};
    use kollaps_topology::events::LinkChange;
    use kollaps_topology::generators;

    fn p2p(mbps: u64) -> Topology {
        let (topo, _, _) = generators::point_to_point(
            Bandwidth::from_mbps(mbps),
            SimDuration::from_millis(10),
            SimDuration::ZERO,
        );
        topo
    }

    fn base(mbps: u64) -> Scenario {
        Scenario::from_topology(p2p(mbps)).workload(
            Workload::iperf_udp("client", "server", Bandwidth::from_mbps(10))
                .duration(SimDuration::from_secs(4)),
        )
    }

    #[test]
    fn stepping_advances_the_clock_and_finish_reports() {
        let mut session = base(50).session().expect("valid scenario");
        assert_eq!(session.clock(), SimTime::ZERO);
        assert_eq!(session.end(), SimTime::from_secs(4));
        let at = session.step(SimDuration::from_millis(1500)).unwrap();
        assert_eq!(at, SimTime::from_millis(1500));
        // Stepping past the end clips to it.
        let at = session.step(SimDuration::from_secs(60)).unwrap();
        assert_eq!(at, SimTime::from_secs(4));
        let report = session.finish();
        assert_eq!(report.flows.len(), 1);
        assert!(report.flows[0].goodput_mbps.unwrap() > 8.0);
    }

    #[test]
    fn a_step_of_any_length_saturates_and_clips_to_the_end() {
        let mut session = base(50).session().unwrap();
        session.run_until(SimTime::from_secs(1)).unwrap();
        let at = session.step(SimDuration::MAX).unwrap();
        assert_eq!(at, SimTime::from_secs(4));
        assert_eq!(session.flow_progress()[0].status, FlowStatus::Finished);
    }

    #[test]
    fn an_unbounded_step_interval_dispatches_at_the_window_edges() {
        let report = Scenario::from_topology(p2p(50))
            .step_interval(SimDuration::MAX)
            .workload(
                Workload::ping("client", "server")
                    .count(3)
                    .start(SimDuration::from_secs(1)),
            )
            .run()
            .expect("valid scenario");
        assert_eq!(report.flows[0].rtt.as_ref().unwrap().replies, 3);
    }

    #[test]
    fn an_unbounded_window_clips_to_the_duration_cap() {
        let report = Scenario::from_topology(p2p(50))
            .duration(SimDuration::from_secs(3))
            .workload(
                Workload::ping("client", "server")
                    .start(SimDuration::from_secs(1))
                    .duration(SimDuration::MAX),
            )
            .run()
            .expect("a capped window fits");
        assert_eq!((report.flows[0].start_s, report.flows[0].end_s), (1.0, 3.0));
    }

    #[test]
    fn an_unbounded_ping_count_clips_to_the_duration_cap() {
        let report = Scenario::from_topology(p2p(50))
            .duration(SimDuration::from_secs(3))
            .workload(Workload::ping("client", "server").count(u64::MAX))
            .run()
            .expect("a capped window fits");
        assert_eq!(report.flows[0].end_s, 3.0);
        assert!(report.flows[0].rtt.as_ref().unwrap().replies > 0);
    }

    #[test]
    fn an_uncapped_window_beyond_the_timeline_is_rejected() {
        let err = Scenario::from_topology(p2p(50))
            .workload(Workload::ping("client", "server").count(u64::MAX))
            .session()
            .err()
            .expect("the window end does not fit");
        assert!(
            matches!(err, ScenarioError::InvalidWorkload { .. }),
            "{err}"
        );
        let mut session = base(50).session().unwrap();
        session.run_until(SimTime::from_secs(1)).unwrap();
        let err = session
            .inject_workload(Workload::ping("client", "server").duration(SimDuration::MAX))
            .unwrap_err();
        assert!(
            matches!(
                err,
                SessionError::Invalid(ScenarioError::InvalidWorkload { .. })
            ),
            "{err}"
        );
        assert_eq!(session.end(), SimTime::from_secs(4));
        assert_eq!(session.finish().flows.len(), 1, "no flow was registered");
    }

    #[test]
    fn live_accessors_track_the_run() {
        let mut session = base(20).session().unwrap();
        session.run_until(SimTime::from_secs(2)).unwrap();
        let loads = session.link_loads();
        assert!(!loads.is_empty(), "live link loads while traffic flows");
        assert!(loads.iter().any(|l| l.offered_mbps > 5.0), "{loads:?}");
        assert!(session.convergence().is_some());
        let report = session.finish();
        assert!(report.flows[0].goodput_mbps.is_some());
    }

    #[test]
    fn injected_workload_runs_and_extends_the_timeline_end() {
        let mut session = base(50).session().unwrap();
        session.run_until(SimTime::from_secs(2)).unwrap();
        session
            .inject_workload(
                Workload::ping("client", "server")
                    .count(10)
                    .interval(SimDuration::from_millis(100))
                    .duration(SimDuration::from_secs(3)),
            )
            .expect("valid injection");
        // The injected window starts at the clock (2 s) and runs 3 s; the
        // experiment end grows from 4 s to 5 s.
        assert_eq!(session.end(), SimTime::from_secs(5));
        let report = session.finish();
        assert_eq!(report.flows.len(), 2);
        let ping = report.flows_of("ping").next().unwrap();
        assert!((ping.start_s - 2.0).abs() < 1e-9, "{}", ping.start_s);
        assert_eq!(ping.rtt.as_ref().unwrap().replies, 10);
        assert!((report.duration_s - 5.0).abs() < 1e-9);
    }

    #[test]
    fn injection_beyond_a_duration_cap_is_rejected() {
        let mut session = base(50)
            .duration(SimDuration::from_secs(2))
            .session()
            .unwrap();
        session.run_until(SimTime::from_secs(2)).unwrap();
        let err = session
            .inject_workload(Workload::ping("client", "server"))
            .unwrap_err();
        assert!(
            matches!(
                err,
                SessionError::Invalid(ScenarioError::InvalidWorkload { .. })
            ),
            "{err}"
        );
        let report = session.finish();
        assert_eq!(report.flows.len(), 1, "no phantom flow was registered");
    }

    #[test]
    fn injected_workloads_are_validated() {
        let mut session = base(50).session().unwrap();
        let err = session
            .inject_workload(Workload::ping("client", "ghost"))
            .unwrap_err();
        assert!(
            matches!(
                &err,
                SessionError::Invalid(ScenarioError::UnknownNodes { names })
                    if names == &["ghost".to_string()]
            ),
            "{err}"
        );
        let err = session
            .inject_workload(Workload::iperf_tcp("client", "client"))
            .unwrap_err();
        assert!(
            matches!(
                err,
                SessionError::Invalid(ScenarioError::InvalidWorkload { .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn injected_events_are_validated_and_change_the_emulation() {
        let scenario = Scenario::from_topology(p2p(100)).workload(
            Workload::ping("client", "server")
                .count(40)
                .interval(SimDuration::from_millis(100))
                .duration(SimDuration::from_secs(4)),
        );
        let mut session = scenario.session().unwrap();
        session.run_until(SimTime::from_secs(1)).unwrap();
        // Past times are rejected.
        let past = DynamicEvent {
            at: SimDuration::from_millis(500),
            action: DynamicAction::SetLinkProperties {
                orig: "client".into(),
                dest: "server".into(),
                change: LinkChange::default(),
            },
        };
        assert!(matches!(
            session.inject_event(past).unwrap_err(),
            SessionError::PastInjection { .. }
        ));
        // Unknown names are rejected.
        let ghost = DynamicEvent {
            at: SimDuration::from_secs(2),
            action: DynamicAction::LinkLeave {
                orig: "ghost".into(),
                dest: "server".into(),
            },
        };
        assert!(matches!(
            session.inject_event(ghost).unwrap_err(),
            SessionError::Invalid(ScenarioError::UnknownNode { .. })
        ));
        // A valid latency change applies mid-run.
        session
            .inject_event(DynamicEvent {
                at: SimDuration::from_secs(2),
                action: DynamicAction::SetLinkProperties {
                    orig: "client".into(),
                    dest: "server".into(),
                    change: LinkChange {
                        latency: Some(SimDuration::from_millis(60)),
                        ..LinkChange::default()
                    },
                },
            })
            .expect("valid injection");
        let report = session.finish();
        let rtt = report.flows[0].rtt.as_ref().unwrap();
        assert!(rtt.min_ms < 25.0, "pre-change RTT: {}", rtt.min_ms);
        assert!(rtt.max_ms > 100.0, "post-change RTT: {}", rtt.max_ms);
        assert_eq!(report.dynamics.unwrap().events_applied, 1);
    }

    #[test]
    fn injected_churn_expands_against_the_evolved_topology() {
        let (topo, _, _) = generators::dumbbell(
            2,
            Bandwidth::from_mbps(100),
            Bandwidth::from_mbps(50),
            SimDuration::from_millis(1),
            SimDuration::from_millis(10),
        );
        let scenario = Scenario::from_topology(topo).workload(
            Workload::iperf_udp("client-0", "server-0", Bandwidth::from_mbps(20))
                .duration(SimDuration::from_secs(8)),
        );
        let mut session = scenario.session().unwrap();
        session.run_until(SimTime::from_secs(1)).unwrap();
        let injected = session
            .inject_churn(
                Churn::partition(&["bridge-left"], &["bridge-right"])
                    .start(SimDuration::from_secs(3))
                    .heal_after(Some(SimDuration::from_secs(2))),
            )
            .expect("valid churn");
        assert_eq!(injected, 2, "partition + heal");
        // A spec whose schedule reaches into the past is rejected whole:
        // injecting only the future half (the heal without the partition)
        // would corrupt the topology.
        let err = session
            .inject_churn(
                Churn::partition(&["bridge-left"], &["bridge-right"])
                    .start(SimDuration::from_millis(500))
                    .heal_after(Some(SimDuration::from_secs(2))),
            )
            .unwrap_err();
        assert!(matches!(err, SessionError::PastInjection { .. }), "{err}");
        // A bogus spec is a typed error.
        let err = session
            .inject_churn(Churn::poisson_flaps(&[("ghost", "server-0")]))
            .unwrap_err();
        assert!(
            matches!(
                err,
                SessionError::Invalid(ScenarioError::InvalidChurn { .. })
            ),
            "{err}"
        );
        let report = session.finish();
        let dynamics = report.dynamics.expect("injected churn reports dynamics");
        assert_eq!(dynamics.events_applied, 2);
        // The partition bites: goodput lands well below the uninterrupted
        // 20 Mb/s.
        let mbps = report.flows[0].goodput_mbps.unwrap();
        assert!((12.0..=17.5).contains(&mbps), "goodput {mbps}");
    }

    /// The whole dynamics block of a run with declared churn and a mid-run
    /// injection, whose timeline extension must leave the applied swaps
    /// counted exactly once.
    #[test]
    fn dynamics_report_is_pinned_across_an_injection() {
        let (topo, _, _) = generators::dumbbell(
            3,
            Bandwidth::from_mbps(100),
            Bandwidth::from_mbps(50),
            SimDuration::from_millis(1),
            SimDuration::from_millis(10),
        );
        let scenario = Scenario::from_topology(topo)
            .hosts(2)
            .churn(
                Churn::poisson_flaps(&[("client-0", "bridge-left")])
                    .mean_uptime(SimDuration::from_millis(800))
                    .mean_downtime(SimDuration::from_millis(200))
                    .horizon(SimDuration::from_secs(5))
                    .seed(7),
            )
            .workload(
                Workload::iperf_udp("client-0", "server-0", Bandwidth::from_mbps(10))
                    .duration(SimDuration::from_secs(6)),
            )
            .workload(
                Workload::iperf_udp("client-1", "server-1", Bandwidth::from_mbps(10))
                    .duration(SimDuration::from_secs(6)),
            );
        let mut session = scenario.session().unwrap();
        session.run_until(SimTime::from_secs(2)).unwrap();
        session
            .inject_event(DynamicEvent {
                at: SimDuration::from_millis(2500),
                action: DynamicAction::SetLinkProperties {
                    orig: "client-1".into(),
                    dest: "bridge-left".into(),
                    change: LinkChange {
                        latency: Some(SimDuration::from_millis(5)),
                        ..LinkChange::default()
                    },
                },
            })
            .expect("valid injection");
        session.run_until(SimTime::from_secs(4)).unwrap();
        let precompute_micros = session
            .kollaps()
            .expect("kollaps backend")
            .timeline()
            .stats()
            .precompute_micros;
        let dynamics = session.finish().dynamics.expect("dynamics block");
        assert_eq!(
            dynamics,
            DynamicsReport {
                precompute_micros,
                snapshots_precomputed: 13,
                snapshots_applied: 13,
                events_applied: 13,
                mean_swap_cost: 128.0 / 13.0,
                max_swap_cost: 10,
                chains_touched: 128,
                pair_count: 30,
            }
        );
    }

    #[test]
    fn baselines_reject_steering() {
        let mut session = Scenario::from_topology(p2p(50))
            .backend(Backend::ground_truth())
            .workload(Workload::ping("client", "server").count(3))
            .session()
            .unwrap();
        let err = session
            .inject_event(DynamicEvent {
                at: SimDuration::from_secs(1),
                action: DynamicAction::LinkLeave {
                    orig: "client".into(),
                    dest: "server".into(),
                },
            })
            .unwrap_err();
        assert!(
            matches!(
                err,
                SessionError::Invalid(ScenarioError::UnsupportedBackend { .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn a_metadata_bus_over_other_hosts_is_a_typed_error() {
        use kollaps_metadata::bus::{DisseminationBus, HostId};
        let mut session = base(50).hosts(2).session().unwrap();
        let one_host = DisseminationBus::new(vec![HostId(0)], SimDuration::ZERO);
        let err = session
            .install_metadata_bus(Box::new(one_host))
            .unwrap_err();
        assert!(
            matches!(
                &err,
                SessionError::Invalid(ScenarioError::UnsupportedBackend { reason, .. })
                    if reason.contains("connects 1 host(s)") && reason.contains("emulates 2")
            ),
            "{err}"
        );
        // The refused bus left the session untouched: the right one installs.
        let two_hosts = DisseminationBus::new(vec![HostId(0), HostId(1)], SimDuration::ZERO);
        session
            .install_metadata_bus(Box::new(two_hosts))
            .expect("the session's own host set");
        assert_eq!(session.finish().flows.len(), 1);
    }

    /// Every Kollaps-only view is empty on a baseline backend, live and in
    /// the report.
    #[test]
    fn baselines_carry_no_kollaps_only_state() {
        use kollaps_baselines::TrickleConfig;
        let backends = [
            Backend::ground_truth(),
            Backend::mininet(),
            Backend::maxinet(),
            Backend::trickle(TrickleConfig::default_buffers(Bandwidth::from_mbps(20))),
        ];
        for backend in backends {
            let name = backend.name();
            let mut session = base(50).backend(backend).session().unwrap();
            session.run_until(SimTime::from_secs(2)).unwrap();
            assert!(session.kollaps().is_none(), "{name}");
            assert!(session.link_loads().is_empty(), "{name}");
            assert!(session.metadata_per_host().is_empty(), "{name}");
            assert!(session.convergence().is_none(), "{name}");
            let report = session.finish();
            assert!(report.flows[0].goodput_mbps.is_some(), "{name} ran");
            assert_eq!(report.metadata_bytes, None, "{name}");
            assert!(report.metadata_per_host.is_empty(), "{name}");
            assert!(report.convergence.is_none(), "{name}");
            assert!(report.dynamics.is_none(), "{name}");
            assert!(report.phase_timing.is_none(), "{name}");
            let json = report.to_json();
            for key in ["metadata_bytes", "convergence", "dynamics", "phase_timing"] {
                assert!(json.get(key).is_some_and(|v| v.is_null()), "{name}: {key}");
            }
            let per_host = json.get("metadata_per_host").and_then(|v| v.as_array());
            assert_eq!(per_host.map(<[_]>::len), Some(0), "{name}");
        }
    }

    /// A sink recording everything, for the telemetry tests.
    #[derive(Default)]
    struct Recorder {
        events: std::rc::Rc<std::cell::RefCell<Vec<TelemetryEvent>>>,
    }

    impl Sink for Recorder {
        fn on_event(&mut self, event: &TelemetryEvent) {
            self.events.borrow_mut().push(event.clone());
        }
    }

    #[test]
    fn sinks_stream_typed_telemetry() {
        let (topo, _, _) = generators::dumbbell(
            2,
            Bandwidth::from_mbps(100),
            Bandwidth::from_mbps(50),
            SimDuration::from_millis(1),
            SimDuration::from_millis(10),
        );
        let scenario = Scenario::from_topology(topo)
            .hosts(2)
            .churn(
                Churn::partition(&["bridge-left"], &["bridge-right"])
                    .start(SimDuration::from_secs(2))
                    .heal_after(Some(SimDuration::from_secs(1))),
            )
            .workload(
                Workload::iperf_udp("client-0", "server-0", Bandwidth::from_mbps(40))
                    .duration(SimDuration::from_secs(4)),
            )
            .workload(
                Workload::iperf_udp("client-1", "server-1", Bandwidth::from_mbps(40))
                    .duration(SimDuration::from_secs(4)),
            );
        let recorder = Recorder::default();
        let events = std::rc::Rc::clone(&recorder.events);
        let mut session = scenario.session().unwrap();
        session.attach_sink(Box::new(recorder));
        let report = session.finish();
        assert_eq!(report.flows.len(), 2);

        let events = events.borrow();
        let count = |pred: fn(&TelemetryEvent) -> bool| events.iter().filter(|e| pred(e)).count();
        assert_eq!(
            count(|e| matches!(e, TelemetryEvent::FlowStarted { .. })),
            2
        );
        assert_eq!(
            count(|e| matches!(e, TelemetryEvent::FlowFinished { .. })),
            2
        );
        assert_eq!(
            count(|e| matches!(e, TelemetryEvent::DynamicEventApplied { .. })),
            2,
            "partition + heal swaps: {events:?}"
        );
        // Two 40 Mb/s flows over a 50 Mb/s trunk: oversubscription onset
        // must be reported.
        assert!(
            count(|e| matches!(e, TelemetryEvent::OversubscriptionOnset { .. })) >= 1,
            "{events:?}"
        );
        // Two hosts exchange metadata over the physical network.
        assert!(
            count(|e| matches!(e, TelemetryEvent::MetadataDelivered { .. })) >= 1,
            "{events:?}"
        );
    }
}
