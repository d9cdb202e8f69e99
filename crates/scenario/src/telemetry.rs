//! Streaming telemetry of a live [`crate::Session`].
//!
//! A running session narrates itself through discrete
//! [`TelemetryEvent`]s (a flow opened its window, a precomputed topology
//! change was swapped in, a link went oversubscribed, metadata hit the
//! physical network), delivered to every attached [`Sink`] as they happen
//! — at the session's event-dispatch granularity, not after the run. The
//! point-in-time view (every flow's progress, the live link loads, the
//! convergence gap) is read from the session's accessors between steps.
//!
//! The [`Aggregator`] is the production-shape consumer of that stream: it
//! folds every finalized flow into bounded per-flow-class accumulators
//! (ring-buffer samples + percentile histograms) and exports
//! latency/goodput p50/p90/p99 per class. Every [`crate::Session`] owns
//! one and surfaces its output as [`crate::Report::flow_classes`]; attach
//! your own instance as a [`Sink`] to aggregate a custom window.

use std::collections::BTreeMap;

use kollaps_sim::stats::{Histogram, SampleSet};

use crate::report::{FlowClassReport, FlowReport, PercentileStats};

/// Where a workload is in its lifecycle, as seen by a live session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowStatus {
    /// The activity window has not opened yet.
    Pending,
    /// The window is open; traffic is (potentially) flowing.
    Running,
    /// The window closed and the workload was finalized into its
    /// [`FlowReport`].
    Finished,
}

/// Point-in-time progress of one workload of a live session.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowProgress {
    /// Workload label ("iperf-tcp", "ping", ...).
    pub workload: String,
    /// Name of the initiating node (traffic sink for HTTP-style workloads).
    pub client: String,
    /// Name of the serving node.
    pub server: String,
    /// Lifecycle phase.
    pub status: FlowStatus,
    /// Window start, seconds since scenario start.
    pub start_s: f64,
    /// Window end, seconds since scenario start.
    pub end_s: f64,
    /// Receiver-side payload bytes delivered so far (bulk workloads).
    pub bytes: u64,
    /// Echo replies received so far (ping and memcached probes).
    pub replies: usize,
    /// Requests completed so far (wrk2/curl workloads).
    pub requests: u64,
}

/// A discrete, typed occurrence inside a running session.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    /// A workload's activity window opened.
    FlowStarted {
        /// When the window opened, seconds since scenario start.
        at_s: f64,
        /// Workload label.
        workload: String,
        /// Initiating node name.
        client: String,
        /// Serving node name.
        server: String,
    },
    /// A workload's window closed and it was finalized.
    FlowFinished {
        /// When the window closed, seconds since scenario start.
        at_s: f64,
        /// The finalized per-flow report (boxed: it dwarfs every other
        /// variant).
        report: Box<FlowReport>,
    },
    /// A precomputed dynamic topology change was swapped in.
    DynamicEventApplied {
        /// Scheduled change time, seconds since scenario start.
        at_s: f64,
        /// Schedule events the swap covered.
        events: usize,
        /// Swap cost: collapsed paths the change touched.
        changed_paths: usize,
    },
    /// A link entered oversubscription: the managers measured more offered
    /// load than its capacity in their last loop iteration.
    OversubscriptionOnset {
        /// Detection time, seconds since scenario start.
        at_s: f64,
        /// The oversubscribed link's id in the original topology.
        link: u32,
    },
    /// A previously oversubscribed link dropped back under its capacity.
    OversubscriptionCleared {
        /// Detection time, seconds since scenario start.
        at_s: f64,
        /// The recovered link's id.
        link: u32,
    },
    /// Emulation managers put metadata on the physical network since the
    /// last dispatch round.
    MetadataDelivered {
        /// Detection time, seconds since scenario start.
        at_s: f64,
        /// Metadata bytes added to the physical network.
        bytes: u64,
    },
    /// A workload was injected into the running session.
    WorkloadInjected {
        /// Injection time, seconds since scenario start.
        at_s: f64,
        /// Workload label.
        workload: String,
        /// Effective window start, seconds since scenario start.
        start_s: f64,
    },
    /// Dynamic events were injected into the running session (directly or
    /// through a churn generator) and the snapshot timeline was extended.
    EventsInjected {
        /// Injection time, seconds since scenario start.
        at_s: f64,
        /// Number of schedule events injected.
        events: usize,
        /// Number of timeline deltas derived by the incremental extension.
        deltas_derived: usize,
    },
}

/// Retained samples per aggregated metric before the ring wraps (beyond
/// it, percentiles fall back to the histogram approximation).
const RING_CAPACITY: usize = 4096;

/// Histogram shape for latency samples: 0.25 ms buckets up to 2.5 s.
const LATENCY_BUCKET_MS: f64 = 0.25;
const LATENCY_UPPER_MS: f64 = 2_500.0;

/// Histogram shape for goodput samples: 1 Mb/s buckets up to 20 Gb/s.
const GOODPUT_BUCKET_MBPS: f64 = 1.0;
const GOODPUT_UPPER_MBPS: f64 = 20_000.0;

/// One aggregated metric: a ring buffer of recent samples (exact
/// percentiles until it wraps) backed by a fixed-bucket histogram (bounded
/// approximation afterwards). Mean/min/max/count stay exact over the whole
/// lifetime either way.
#[derive(Debug, Clone)]
struct MetricAccumulator {
    ring: SampleSet,
    histogram: Histogram,
}

impl MetricAccumulator {
    fn new(bucket_width: f64, upper_bound: f64) -> Self {
        MetricAccumulator {
            ring: SampleSet::new(RING_CAPACITY),
            histogram: Histogram::new(bucket_width, upper_bound),
        }
    }

    fn record(&mut self, value: f64) {
        self.ring.record(value);
        self.histogram.record(value);
    }

    fn percentile(&self, p: f64) -> f64 {
        if self.ring.dropped() == 0 {
            self.ring.percentile(p)
        } else {
            self.histogram.percentile(p)
        }
    }

    fn stats(&self) -> Option<PercentileStats> {
        if self.ring.is_empty() {
            return None;
        }
        Some(PercentileStats {
            mean: self.ring.mean(),
            p50: self.percentile(50.0),
            p90: self.percentile(90.0),
            p99: self.percentile(99.0),
            min: self.ring.min(),
            max: self.ring.max(),
            samples: self.ring.total_count(),
        })
    }
}

/// Accumulated telemetry of one flow class (one workload label).
#[derive(Debug, Clone)]
struct ClassAccumulator {
    flows: usize,
    latency_ms: MetricAccumulator,
    goodput_mbps: MetricAccumulator,
}

impl ClassAccumulator {
    fn new() -> Self {
        ClassAccumulator {
            flows: 0,
            latency_ms: MetricAccumulator::new(LATENCY_BUCKET_MS, LATENCY_UPPER_MS),
            goodput_mbps: MetricAccumulator::new(GOODPUT_BUCKET_MBPS, GOODPUT_UPPER_MBPS),
        }
    }
}

/// The aggregating sink: folds finalized flows into bounded per-flow-class
/// accumulators and exports latency/goodput percentiles.
///
/// Flows are classed by workload label, so memory scales with the number
/// of *workload kinds*, not the number of flows — the aggregation contract
/// that keeps reports bounded when a scenario models millions of logical
/// users. Latency samples come from every RTT reply (ping, memcached
/// probes) and every per-request completion latency (wrk2, curl); goodput
/// samples are each bulk flow's per-second delivery windows.
///
/// Every [`crate::Session`] owns one internally and exports it as
/// [`crate::Report::flow_classes`]; the type is public so custom tooling
/// can attach an independent instance via [`crate::Session::attach_sink`]
/// (it observes [`TelemetryEvent::FlowFinished`] only).
#[derive(Debug, Clone, Default)]
pub struct Aggregator {
    classes: BTreeMap<String, ClassAccumulator>,
}

impl Aggregator {
    /// Creates an empty aggregator.
    pub fn new() -> Self {
        Aggregator::default()
    }

    /// Folds one finalized flow into its class accumulator.
    pub fn observe_flow(&mut self, report: &FlowReport) {
        let class = self
            .classes
            .entry(report.workload.clone())
            .or_insert_with(ClassAccumulator::new);
        class.flows += 1;
        if let Some(rtt) = &report.rtt {
            for &sample in &rtt.samples_ms {
                class.latency_ms.record(sample);
            }
        }
        if let Some(http) = &report.http {
            for &sample in &http.samples_ms {
                class.latency_ms.record(sample);
            }
        }
        if !report.per_second_mbps.is_empty() {
            for &mbps in &report.per_second_mbps {
                class.goodput_mbps.record(mbps);
            }
        } else if let Some(mbps) = report.goodput_mbps {
            // Sub-second windows produce no per-second series; the
            // window-average goodput is the one sample there is.
            class.goodput_mbps.record(mbps);
        }
    }

    /// Exports the per-class percentile reports, sorted by class label.
    pub fn flow_classes(&self) -> Vec<FlowClassReport> {
        self.classes
            .iter()
            .map(|(class, acc)| FlowClassReport {
                class: class.clone(),
                flows: acc.flows,
                latency_ms: acc.latency_ms.stats(),
                goodput_mbps: acc.goodput_mbps.stats(),
            })
            .collect()
    }
}

impl Sink for Aggregator {
    fn on_event(&mut self, event: &TelemetryEvent) {
        if let TelemetryEvent::FlowFinished { report, .. } = event {
            self.observe_flow(report);
        }
    }
}

/// A consumer of live session telemetry. Sinks are attached with
/// [`crate::Session::attach_sink`] and are invoked synchronously at the
/// session's event-dispatch points, in attachment order.
pub trait Sink {
    /// A discrete occurrence (flow lifecycle, topology change,
    /// oversubscription, metadata traffic, injection). Defaults to a no-op.
    fn on_event(&mut self, event: &TelemetryEvent) {
        let _ = event;
    }
}
