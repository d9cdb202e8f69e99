//! Output checks: the goodput reference, the operation ledger and the
//! report digest.
//!
//! Everything here is *simulated* (virtual-time) data and therefore
//! deterministic for a given seed.

use kollaps_core::{allocate, CollapsedTopology, FlowDemand};
use kollaps_netmodel::packet::MSS;
use kollaps_scenario::Report;
use kollaps_transport::tcp::ideal_goodput;

use crate::workloads::{Spec, Traffic, STEP};

/// A flow whose goodput is off its reference by more than this share (or is
/// zero) counts as a failed operation.
pub const FAILURE_TOLERANCE: f64 = 0.25;

/// Report fields that carry host wall-clock data and are removed before the
/// digest is taken.
pub const SCRUBBED_FIELDS: [&str; 2] = ["phase_timing", "dynamics.precompute_micros"];

/// The deterministic verdict on one run's report.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Reported goodput per flow report, Mb/s, in declaration order.
    pub goodput_mbps: Vec<f64>,
    /// Reference goodput per flow report, Mb/s.
    pub reference_mbps: Vec<f64>,
    /// Mean over flows of |reported − reference| ÷ reference, percent.
    pub goodput_error_pct: f64,
    /// Operations attempted (flows, or HTTP request slots).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// HTTP requests completed (zero for non-HTTP workloads).
    pub requests: u64,
    /// Goodput bytes of the whole run ÷ the 1460-byte MSS: the payload
    /// packets the emulator carried end to end.
    pub payload_packets: f64,
    /// FNV-1a digest of the scrubbed report JSON, 16 hex digits.
    pub digest: String,
}

fn demand_of(
    collapsed: &CollapsedTopology,
    spec: &Spec,
    id: u64,
    src: &str,
    dst: &str,
) -> FlowDemand {
    collapsed
        .flow_demand(id, spec.addr(collapsed, src), spec.addr(collapsed, dst))
        .unwrap_or_else(|| panic!("no initial path {src} -> {dst}"))
}

/// The solver input of the workload on `collapsed` (the initial snapshot):
/// one demand per transport flow, in declaration order.
pub fn demands(spec: &Spec, collapsed: &CollapsedTopology) -> Vec<FlowDemand> {
    match &spec.traffic {
        Traffic::Udp { flows, .. } | Traffic::Tcp { flows } => flows
            .iter()
            .enumerate()
            .map(|(i, (c, s))| demand_of(collapsed, spec, i as u64, c, s))
            .collect(),
        // Responses flow server -> client.
        Traffic::Curl { groups, .. } => groups
            .iter()
            .flat_map(|(s, cs)| cs.iter().map(move |c| (s, c)))
            .enumerate()
            .map(|(i, (s, c))| demand_of(collapsed, spec, i as u64, s, c))
            .collect(),
    }
}

/// Reference goodput per flow report, Mb/s: the RTT-aware min-max share on
/// the initial snapshot, seen through the transport (UDP sends at
/// `min(rate, share)`; bulk TCP reaches the share minus header overhead;
/// a `curl` group completes one response per client per dispatch step).
pub fn references(spec: &Spec, collapsed: &CollapsedTopology) -> Vec<f64> {
    let demands = demands(spec, collapsed);
    let shares = allocate(&demands, collapsed.link_capacities());
    match &spec.traffic {
        Traffic::Udp { rate, .. } => demands
            .iter()
            .map(|d| (*rate).min(shares.of(d.id)).as_mbps())
            .collect(),
        Traffic::Tcp { .. } => demands
            .iter()
            .map(|d| ideal_goodput(shares.of(d.id)).as_mbps())
            .collect(),
        Traffic::Curl { groups, size } => groups
            .iter()
            .map(|(_, clients)| {
                clients.len() as f64 * size.as_bits() as f64 / STEP.as_secs_f64() / 1e6
            })
            .collect(),
    }
}

/// Checks `report` against `references`.
pub fn assess(spec: &Spec, references: &[f64], report: &Report) -> Outcome {
    let goodput_mbps: Vec<f64> = report
        .flows
        .iter()
        .map(|f| f.goodput_mbps.unwrap_or(0.0))
        .collect();
    assert_eq!(
        goodput_mbps.len(),
        references.len(),
        "one flow report per declared workload"
    );
    let errors: Vec<f64> = goodput_mbps
        .iter()
        .zip(references)
        .map(|(g, r)| (g - r).abs() / r)
        .collect();
    let off = errors
        .iter()
        .zip(&goodput_mbps)
        .filter(|&(e, g)| *g <= 0.0 || *e > FAILURE_TOLERANCE)
        .count() as u64;
    let attempted = spec.attempted();
    let requests: u64 = report
        .flows
        .iter()
        .filter_map(|f| f.http.as_ref())
        .map(|h| h.requests)
        .sum();
    let failed = match &spec.traffic {
        Traffic::Udp { .. } | Traffic::Tcp { .. } => off,
        // One operation per request slot: a slot fails when no request
        // completed in it.
        Traffic::Curl { .. } => attempted.saturating_sub(requests),
    };
    let goodput_bytes: f64 = report
        .flows
        .iter()
        .map(|f| f.goodput_mbps.unwrap_or(0.0) * 1e6 / 8.0 * (f.end_s - f.start_s))
        .sum();
    Outcome {
        goodput_error_pct: 100.0 * errors.iter().sum::<f64>() / errors.len().max(1) as f64,
        goodput_mbps,
        reference_mbps: references.to_vec(),
        attempted,
        failed,
        requests,
        payload_packets: goodput_bytes / MSS.as_bytes() as f64,
        digest: digest(report),
    }
}

/// FNV-1a (64-bit) of the report JSON with the [`SCRUBBED_FIELDS`] blanked.
pub fn digest(report: &Report) -> String {
    let mut scrubbed = report.clone();
    scrubbed.phase_timing = None;
    if let Some(dynamics) = &mut scrubbed.dynamics {
        dynamics.precompute_micros = 0;
    }
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for byte in scrubbed.to_json_string().bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("{hash:016x}")
}
