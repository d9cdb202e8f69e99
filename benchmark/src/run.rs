//! Measurement orchestration: the untraced end-to-end passes, calibrated by
//! the reference kernel, and the layered passes.

use std::collections::BTreeMap;
use std::time::Instant;

use kollaps_core::CollapsedTopology;
use kollaps_scenario::Report;
use kollaps_sim::time::SimTime;

use crate::heap;
use crate::kernel::{calibrated_seconds, Kernel};
use crate::layered::{self, Layered, LEDGER_FLOOR};
use crate::micro;
use crate::probe::TickRow;
use crate::reference::{self, Outcome};
use crate::stats::Quartiles;
use crate::workloads::{Spec, Traffic};

/// Fewest passes a time-budgeted measurement takes, whatever the budget.
pub const MIN_PASSES: usize = 3;

/// How long to keep measuring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Exactly this many passes over every workload.
    Passes(usize),
    /// Passes until this many wall seconds have gone by (at least
    /// [`MIN_PASSES`]).
    Seconds(f64),
}

impl Budget {
    fn spent(&self, passes: usize, since: Instant) -> bool {
        match *self {
            Budget::Passes(n) => passes >= n,
            Budget::Seconds(s) => passes >= MIN_PASSES && since.elapsed().as_secs_f64() >= s,
        }
    }
}

/// The emulation of a repetition is stepped in this many slices of virtual
/// time, with one kernel chunk sampled between every two: the kernel then
/// sees the same seconds of host weather as the workload does. (Stepping is
/// byte-identical to a one-shot run; the repo pins that by property test and
/// the digest re-checks it here.)
pub const SLICES: u64 = 10;

/// Raw timings of one untraced repetition.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Wall seconds of `Scenario::session()`.
    pub setup_s: f64,
    /// Wall seconds of the emulation: the `Session::run_until` slices plus
    /// `Session::finish()`.
    pub finish_s: f64,
    /// Kernel chunk seconds sampled before, between and after the slices.
    pub chunks_s: Vec<f64>,
    /// Peak live heap above the level at the start of the repetition.
    pub peak_heap_bytes: u64,
}

impl Rep {
    fn calibrated(&self, wall_s: f64) -> f64 {
        calibrated_seconds(wall_s, crate::stats::median(&self.chunks_s))
    }
}

/// The end-to-end result of one workload.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Workload name.
    pub workload: &'static str,
    /// Every repetition, in order.
    pub reps: Vec<Rep>,
    /// The deterministic verdict on the run's report.
    pub outcome: Outcome,
    /// `true` when every repetition produced the same digest.
    pub repeatable: bool,
    /// Metric name → quartiles over repetitions.
    pub metrics: BTreeMap<&'static str, Quartiles>,
    /// Raw (uncalibrated) wall seconds of a whole run; printed, not a metric.
    pub raw_wall_s: Quartiles,
}

impl EndToEnd {
    /// `true` when no operation failed and every repetition agreed.
    pub fn passed(&self) -> bool {
        self.outcome.failed == 0 && self.repeatable
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64())
}

fn run_once(spec: &Spec, kernel: &mut Kernel) -> (Report, Rep) {
    let scenario = spec.scenario();
    let base = heap::reset_peak();
    let mut chunks_s = vec![kernel.chunk()];
    let (mut session, setup_s) = timed(|| scenario.session().expect("generated scenario is valid"));
    chunks_s.push(kernel.chunk());
    let mut finish_s = 0.0;
    for slice in 1..SLICES {
        let until = SimTime::ZERO + spec.horizon.mul_f64(slice as f64 / SLICES as f64);
        let advance = || {
            session
                .run_until(until)
                .expect("an unpaused session advances")
        };
        finish_s += timed(advance).1;
        chunks_s.push(kernel.chunk());
    }
    let (report, last_s) = timed(|| session.finish());
    chunks_s.push(kernel.chunk());
    let rep = Rep {
        setup_s,
        finish_s: finish_s + last_s,
        chunks_s,
        peak_heap_bytes: heap::stats().peak - base.live,
    };
    (report, rep)
}

/// Runs the untraced end-to-end passes: workloads interleaved round-robin,
/// reference-kernel chunks sampled throughout every repetition.
pub fn end_to_end(specs: &[Spec], budget: Budget) -> Vec<EndToEnd> {
    let references: Vec<Vec<f64>> = specs
        .iter()
        .map(|s| reference::references(s, &layered::collapse(s).0))
        .collect();
    let mut reps: Vec<Vec<Rep>> = vec![Vec::new(); specs.len()];
    let mut outcomes: Vec<Option<Outcome>> = vec![None; specs.len()];
    let mut repeatable = vec![true; specs.len()];
    let started = Instant::now();
    let mut kernel = Kernel::new();
    let mut passes = 0;
    while !budget.spent(passes, started) {
        for (i, spec) in specs.iter().enumerate() {
            let (report, rep) = run_once(spec, &mut kernel);
            reps[i].push(rep);
            match &outcomes[i] {
                None => outcomes[i] = Some(reference::assess(spec, &references[i], &report)),
                Some(first) => repeatable[i] &= first.digest == reference::digest(&report),
            }
        }
        passes += 1;
    }
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let outcome = outcomes[i].take().expect("at least one pass");
            let horizon_s = spec.horizon.as_secs_f64();
            let column = |f: &dyn Fn(&Rep) -> f64| {
                Quartiles::of(&reps[i].iter().map(f).collect::<Vec<f64>>())
            };
            let mut metrics = BTreeMap::new();
            metrics.insert(
                "realtime_factor",
                column(&|r| horizon_s / r.calibrated(r.setup_s + r.finish_s)),
            );
            metrics.insert("setup_s", column(&|r| r.calibrated(r.setup_s)));
            metrics.insert(
                "emulate_pkts_per_s",
                column(&|r| outcome.payload_packets / r.calibrated(r.finish_s)),
            );
            metrics.insert("peak_heap_mb", column(&|r| r.peak_heap_bytes as f64 / 1e6));
            metrics.insert(
                "goodput_accuracy_pct",
                column(&|_| 100.0 - outcome.goodput_error_pct),
            );
            EndToEnd {
                workload: spec.name,
                raw_wall_s: column(&|r| r.setup_s + r.finish_s),
                reps: std::mem::take(&mut reps[i]),
                outcome,
                repeatable: repeatable[i],
                metrics,
            }
        })
        .collect()
}

/// The per-layer result of one workload.
#[derive(Debug, Clone)]
pub struct PerLayer {
    /// Workload name.
    pub workload: &'static str,
    /// Metric name → quartiles over layered passes.
    pub metrics: BTreeMap<&'static str, Quartiles>,
    /// Per-tick rows of the last layered pass.
    pub rows: Vec<TickRow>,
    /// The verdict on the untraced run each layered pass is checked against.
    pub outcome: Outcome,
    /// `true` when every layered pass reproduced the untraced run's
    /// per-flow goodput (and request count) exactly.
    pub faithful: bool,
    /// `true` when every pass's ledger covered [`LEDGER_FLOOR`] of its wall.
    pub ledger_ok: bool,
}

impl PerLayer {
    /// `true` when no operation failed, the probed passes were faithful and
    /// their ledgers added up.
    pub fn passed(&self) -> bool {
        self.outcome.failed == 0 && self.faithful && self.ledger_ok
    }
}

/// The untraced run of a layer pass, split at the public seams
/// (`session` / `run_until(end)` / `finish` / `to_json_string`).
struct Untraced {
    report: Report,
    /// Wall seconds from `session()` to the report.
    wall_s: f64,
    /// Allocations and allocated bytes of `run_until` + `finish`.
    allocations: u64,
    allocated_bytes: u64,
}

fn untraced_split(spec: &Spec, values: &mut BTreeMap<&'static str, f64>) -> Untraced {
    let scenario = spec.scenario();
    let (mut session, session_s) =
        timed(|| scenario.session().expect("generated scenario is valid"));
    let before = heap::stats();
    let (_, run_s) = timed(|| {
        session
            .run_until(SimTime::MAX)
            .expect("an unpaused session advances")
    });
    let (report, finish_s) = timed(|| session.finish());
    let after = heap::stats();
    let (json, to_json_s) = timed(|| report.to_json_string());
    values.insert("scenario.session_us", session_s * 1e6);
    values.insert("scenario.finish_us", finish_s * 1e6);
    values.insert("scenario.to_json_us", to_json_s * 1e6);
    values.insert("scenario.json_bytes", json.len() as f64);
    Untraced {
        report,
        wall_s: session_s + run_s + finish_s,
        allocations: after.count - before.count,
        allocated_bytes: after.bytes - before.bytes,
    }
}

fn leaf_drives(
    spec: &Spec,
    collapsed: &CollapsedTopology,
    values: &mut BTreeMap<&'static str, f64>,
) {
    let services = spec.topology.service_ids().len();
    let (flows, fan) = match &spec.traffic {
        Traffic::Udp { flows, .. } | Traffic::Tcp { flows } => {
            // Flows leaving the busiest source container.
            let mut per_source: BTreeMap<&str, usize> = BTreeMap::new();
            for (client, _) in flows {
                *per_source.entry(client).or_default() += 1;
            }
            (flows.len(), per_source.values().copied().max().unwrap_or(1))
        }
        Traffic::Curl { groups, .. } => {
            let clients = groups.iter().map(|(_, c)| c.len());
            (clients.clone().sum(), clients.max().unwrap_or(1))
        }
    };
    let (enqueue, dequeue, wakeup) = micro::egress_ns(services - 1, fan);
    values.insert("netmodel.egress_enqueue_ns", enqueue);
    values.insert("netmodel.egress_dequeue_ns", dequeue);
    values.insert("netmodel.egress_next_wakeup_ns", wakeup);
    values.insert("transport.tcp_ns_per_segment", micro::tcp_ns_per_segment());
    values.insert(
        "sim.event_queue_ns_per_op",
        micro::event_queue_ns_per_op(flows),
    );
    values.insert(
        "metadata.codec_ns_per_flow",
        micro::codec_ns_per_flow(flows),
    );
    values.insert(
        "sharing.full_allocate_us",
        micro::full_allocate_us(
            &reference::demands(spec, collapsed),
            collapsed.link_capacities(),
        ),
    );
}

/// Runs the layer passes of one workload: each pass is one untraced run
/// split at the public seams, one probed run, and the leaf micro-drives.
pub fn per_layer(spec: &Spec, budget: Budget) -> PerLayer {
    let (collapsed, _) = layered::collapse(spec);
    let references = reference::references(spec, &collapsed);
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut outcome = None;
    let mut rows = Vec::new();
    let (mut faithful, mut ledger_ok) = (true, true);
    let mut kernel = Kernel::new();
    let started = Instant::now();
    let mut passes = 0;
    while !budget.spent(passes, started) {
        let mut values = BTreeMap::new();
        // Both runs are bracketed by kernel samples (the median of five
        // chunks each) so that the overhead figure compares calibrated, not
        // raw, seconds.
        let mut sample = || crate::stats::median(&[(); 5].map(|()| kernel.chunk()));
        let before_s = sample();
        let untraced = untraced_split(spec, &mut values);
        let between_s = sample();
        let verdict = reference::assess(spec, &references, &untraced.report);
        let Layered {
            values: layer_values,
            rows: layer_rows,
            goodput_mbps,
            requests,
            wall_s,
        } = layered::run(spec);
        let after_s = sample();
        values.extend(layer_values);
        values.insert("collapse.build_us", layered::collapse(spec).1);
        leaf_drives(spec, &collapsed, &mut values);

        faithful &= goodput_mbps == verdict.goodput_mbps && requests == verdict.requests;
        ledger_ok &= values["ledger.coverage_pct"] >= 100.0 * LEDGER_FLOOR;
        let probed_s = wall_s - spec.topology_build_us / 1e6;
        values.insert(
            "probe.overhead_pct",
            100.0
                * ((probed_s / (between_s + after_s)) / (untraced.wall_s / (before_s + between_s))
                    - 1.0),
        );
        let packets = verdict.payload_packets.max(1.0);
        values.insert(
            "alloc.count_per_packet",
            untraced.allocations as f64 / packets,
        );
        values.insert(
            "alloc.bytes_per_packet",
            untraced.allocated_bytes as f64 / packets,
        );

        for (name, value) in values {
            samples.entry(name).or_default().push(value);
        }
        rows = layer_rows;
        outcome.get_or_insert(verdict);
        passes += 1;
    }
    let mut metrics: BTreeMap<&'static str, Quartiles> = samples
        .iter()
        .map(|(name, values)| (*name, Quartiles::of(values)))
        .collect();
    metrics.insert("probe.passes", Quartiles::of(&[passes as f64]));
    PerLayer {
        workload: spec.name,
        metrics,
        rows,
        outcome: outcome.expect("at least one pass"),
        faithful,
        ledger_ok,
    }
}
