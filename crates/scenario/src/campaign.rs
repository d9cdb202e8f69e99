//! Concurrent parameter-sweep campaigns over a base scenario.
//!
//! A [`Campaign`] declares one base [`Scenario`] plus parameter **axes** —
//! metadata-delay values ([`Campaign::vary_metadata_delay`]), emulation
//! seeds ([`Campaign::vary_seed`]), churn-rate multipliers
//! ([`Campaign::vary_churn_rate`]) or arbitrary scenario transformations
//! ([`Campaign::vary`]) — and runs every variant to completion on a thread
//! pool. Variants that leave the topology and event schedule untouched
//! (every built-in axis except the churn one) **share one precomputed
//! snapshot timeline**: the base's `SnapshotTimeline` is precomputed once
//! and cloned per variant, which shares every collapsed snapshot and path
//! structurally behind `Arc`s — N variants pay the offline all-pairs work
//! once. The result is a [`CampaignReport`]: per-variant [`Report`]s plus
//! cross-variant aggregates, serializable to JSON like any report.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use kollaps_core::timeline::SnapshotTimeline;
use kollaps_sim::prelude::*;
use serde_json::Value;

use crate::report::{Report, SCHEMA_VERSION};
use crate::{Backend, Scenario, ScenarioError};

type Mutator = Box<dyn Fn(Scenario) -> Scenario + Send + Sync>;

struct Variant {
    name: String,
    mutate: Mutator,
}

/// A declarative parameter sweep: one base scenario, N variants, a thread
/// pool, one structured result (see the module-level docs above).
pub struct Campaign {
    name: String,
    base: Scenario,
    variants: Vec<Variant>,
    threads: Option<usize>,
}

impl Campaign {
    /// A campaign over `base`. Every axis call appends variants derived
    /// from a clone of it; with no axes, [`Campaign::run`] runs the base
    /// once as the single variant `"base"`.
    pub fn over(base: Scenario) -> Self {
        Campaign {
            name: "campaign".to_string(),
            base,
            variants: Vec::new(),
            threads: None,
        }
    }

    /// Names the campaign (appears in the [`CampaignReport`]).
    pub fn named(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// One variant per metadata delay: the accuracy-vs-staleness axis.
    /// Kollaps backend only (the knob is validated per variant, exactly
    /// like `Scenario::metadata_delay`).
    pub fn vary_metadata_delay(mut self, delays: &[SimDuration]) -> Self {
        for &delay in delays {
            self.variants.push(Variant {
                name: format!("metadata_delay={:.1}ms", delay.as_secs_f64() * 1e3),
                mutate: Box::new(move |s| s.metadata_delay(delay)),
            });
        }
        self
    }

    /// One variant per emulation seed (the per-destination jitter streams'
    /// RNG), for variance estimation across otherwise identical runs.
    pub fn vary_seed(mut self, seeds: &[u64]) -> Self {
        for &seed in seeds {
            self.variants.push(Variant {
                name: format!("seed={seed}"),
                mutate: Box::new(move |mut s| {
                    if let Backend::Kollaps { config, .. } = &mut s.backend {
                        config.seed = seed;
                    }
                    s
                }),
            });
        }
        self
    }

    /// One variant per churn-rate multiplier: every churn generator of the
    /// base is accelerated by the factor (see [`crate::Churn::scale_rate`]).
    /// These variants change the event schedule, so they precompute their
    /// own snapshot timelines. A factor that is not a positive finite
    /// number fails the campaign with [`ScenarioError::InvalidChurn`].
    pub fn vary_churn_rate(mut self, factors: &[f64]) -> Self {
        for &factor in factors {
            self.variants.push(Variant {
                name: format!("churn_rate=x{factor}"),
                mutate: Box::new(move |mut s| {
                    s.churn = s.churn.into_iter().map(|c| c.scale_rate(factor)).collect();
                    s
                }),
            });
        }
        self
    }

    /// A custom axis: one named variant produced by an arbitrary
    /// transformation of the base scenario.
    pub fn vary(
        mut self,
        name: &str,
        mutate: impl Fn(Scenario) -> Scenario + Send + Sync + 'static,
    ) -> Self {
        self.variants.push(Variant {
            name: name.to_string(),
            mutate: Box::new(mutate),
        });
        self
    }

    /// Caps the worker thread count (default: the machine's available
    /// parallelism, capped at the variant count).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n.max(1));
        self
    }

    /// Runs every variant to completion on the thread pool and collects
    /// the [`CampaignReport`]. Per-variant simulations are deterministic —
    /// scheduling across threads cannot change any variant's result — and
    /// the first variant error (in declaration order) fails the campaign.
    pub fn run(mut self) -> Result<CampaignReport, ScenarioError> {
        if self.variants.is_empty() {
            self.variants.push(Variant {
                name: "base".to_string(),
                mutate: Box::new(|s| s),
            });
        }
        let Campaign {
            name,
            base,
            variants,
            threads,
        } = self;
        // The base expansion is the timeline every structure-preserving
        // variant shares. Expanding is also the earliest validation point,
        // so a broken base fails here, before any thread spawns. The
        // precompute itself is lazy: a sweep whose variants all change the
        // schedule (e.g. pure churn-rate axes) never pays for a base
        // timeline nobody uses.
        let (base_topology, base_schedule) = base.expand()?;
        let base_timeline: OnceLock<SnapshotTimeline> = OnceLock::new();
        let precomputes = AtomicUsize::new(0);
        let workers = threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .min(variants.len())
            .max(1);
        let run_variant = |i: usize| -> Result<Report, ScenarioError> {
            let scenario = (variants[i].mutate)(base.clone());
            let (topology, schedule) = scenario.expand()?;
            // Before a shared precompute collapses it.
            crate::validate_topology(&topology)?;
            // Only the Kollaps backend consumes a timeline; baseline
            // variants neither precompute nor count.
            let kollaps = matches!(scenario.backend, Backend::Kollaps { .. });
            let shared = kollaps && topology == base_topology && schedule == base_schedule;
            let prepared = if shared {
                Some(base_timeline.get_or_init(|| {
                    precomputes.fetch_add(1, Ordering::Relaxed);
                    SnapshotTimeline::precompute(&base_topology, &base_schedule)
                }))
            } else {
                if kollaps {
                    precomputes.fetch_add(1, Ordering::Relaxed);
                }
                None
            };
            let session = scenario.into_session(topology, schedule, prepared)?;
            // A campaign-level span around the variant's whole run (no-op
            // unless the base scenario enabled tracing; the handle outlives
            // the session).
            let tracer = session.tracer().clone();
            let mut span = tracer.span(0, "campaign_variant");
            span.arg("variant", i as f64);
            Ok(session.finish())
        };
        // Each worker returns the variants it claimed. Every index is claimed
        // exactly once, so the merged outcomes, sorted, are one per variant
        // in declaration order. A worker panic is re-raised here.
        let next = AtomicUsize::new(0);
        let mut outcomes: Vec<(usize, Result<Report, ScenarioError>)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            let claim = || {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                (i < variants.len()).then(|| (i, run_variant(i)))
                            };
                            std::iter::from_fn(claim).collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .collect()
            });
        outcomes.sort_unstable_by_key(|&(i, _)| i);
        let mut reports = Vec::with_capacity(variants.len());
        for (variant, (_, result)) in variants.iter().zip(outcomes) {
            let report = result?;
            reports.push(VariantReport {
                name: variant.name.clone(),
                report,
            });
        }
        let aggregates = CampaignAggregates::compute(&reports);
        Ok(CampaignReport {
            campaign: name,
            variants: reports,
            timeline_precomputes: precomputes.into_inner(),
            threads: workers,
            aggregates,
        })
    }
}

/// One variant's outcome inside a [`CampaignReport`].
#[derive(Debug, Clone)]
pub struct VariantReport {
    /// The variant's name (axis parameter rendered, or the
    /// [`Campaign::vary`] name).
    pub name: String,
    /// The full per-variant report, identical in shape to a one-shot
    /// [`Scenario::run`] result.
    pub report: Report,
}

/// Cross-variant aggregates of a campaign.
#[derive(Debug, Clone, Default)]
pub struct CampaignAggregates {
    /// Number of variants that ran.
    pub variants: usize,
    /// Flow reports across all variants.
    pub total_flows: usize,
    /// Mean goodput over every flow (of every variant) that measured one.
    pub goodput_mean_mbps: Option<f64>,
    /// Variant whose flows averaged the highest goodput.
    pub best_goodput_variant: Option<String>,
    /// Variant whose flows averaged the lowest goodput.
    pub worst_goodput_variant: Option<String>,
    /// Mean of the variants' mean convergence gaps (Kollaps backend only).
    pub mean_convergence_gap: Option<f64>,
}

impl CampaignAggregates {
    fn compute(variants: &[VariantReport]) -> Self {
        let mut all_goodputs: Vec<f64> = Vec::new();
        let mut per_variant: Vec<(&str, f64)> = Vec::new();
        let mut gaps: Vec<f64> = Vec::new();
        let mut total_flows = 0;
        for v in variants {
            total_flows += v.report.flows.len();
            let goodputs: Vec<f64> = v
                .report
                .flows
                .iter()
                .filter_map(|f| f.goodput_mbps)
                .collect();
            if !goodputs.is_empty() {
                per_variant.push((
                    &v.name,
                    goodputs.iter().sum::<f64>() / goodputs.len() as f64,
                ));
                all_goodputs.extend(goodputs);
            }
            if let Some(c) = &v.report.convergence {
                gaps.push(c.mean_gap);
            }
        }
        let mean = |xs: &[f64]| {
            if xs.is_empty() {
                None
            } else {
                Some(xs.iter().sum::<f64>() / xs.len() as f64)
            }
        };
        let best = per_variant
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(n, _)| n.to_string());
        let worst = per_variant
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(n, _)| n.to_string());
        CampaignAggregates {
            variants: variants.len(),
            total_flows,
            goodput_mean_mbps: mean(&all_goodputs),
            best_goodput_variant: best,
            worst_goodput_variant: worst,
            mean_convergence_gap: mean(&gaps),
        }
    }

    fn to_json(&self) -> Value {
        Value::from_iter([
            ("variants", self.variants.into()),
            ("total_flows", self.total_flows.into()),
            ("goodput_mean_mbps", self.goodput_mean_mbps.into()),
            (
                "best_goodput_variant",
                self.best_goodput_variant
                    .as_deref()
                    .map(Value::from)
                    .unwrap_or(Value::Null),
            ),
            (
                "worst_goodput_variant",
                self.worst_goodput_variant
                    .as_deref()
                    .map(Value::from)
                    .unwrap_or(Value::Null),
            ),
            ("mean_convergence_gap", self.mean_convergence_gap.into()),
        ])
    }
}

/// The structured result of [`Campaign::run`]: every variant's report plus
/// cross-variant aggregates.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Campaign name (see [`Campaign::named`]).
    pub campaign: String,
    /// Per-variant outcomes, in declaration order.
    pub variants: Vec<VariantReport>,
    /// Snapshot-timeline precomputes actually performed: 1 when every
    /// variant shared the base's (lazily precomputed) timeline, up to
    /// `variants` when every variant changed the topology or schedule.
    pub timeline_precomputes: usize,
    /// Worker threads the pool used.
    pub threads: usize,
    /// Cross-variant aggregates.
    pub aggregates: CampaignAggregates,
}

impl CampaignReport {
    /// The report of the variant with the given name, if it exists.
    pub fn variant(&self, name: &str) -> Option<&Report> {
        self.variants
            .iter()
            .find(|v| v.name == name)
            .map(|v| &v.report)
    }

    /// The whole campaign as a JSON value tree.
    pub fn to_json(&self) -> Value {
        Value::from_iter([
            ("schema_version", SCHEMA_VERSION.into()),
            ("campaign", self.campaign.as_str().into()),
            (
                "variants",
                Value::Array(
                    self.variants
                        .iter()
                        .map(|v| {
                            Value::from_iter([
                                ("name", v.name.as_str().into()),
                                ("report", v.report.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("timeline_precomputes", self.timeline_precomputes.into()),
            ("threads", self.threads.into()),
            ("aggregates", self.aggregates.to_json()),
        ])
    }

    /// The whole campaign as compact JSON text.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Churn, Workload};
    use kollaps_topology::generators;
    use kollaps_topology::model::Topology;

    fn dumbbell() -> Topology {
        let (topo, _, _) = generators::dumbbell(
            2,
            Bandwidth::from_mbps(100),
            Bandwidth::from_mbps(50),
            SimDuration::from_millis(1),
            SimDuration::from_millis(10),
        );
        topo
    }

    fn base() -> Scenario {
        Scenario::from_topology(dumbbell())
            .hosts(2)
            .churn(
                Churn::partition(&["bridge-left"], &["bridge-right"])
                    .start(SimDuration::from_secs(2))
                    .heal_after(Some(SimDuration::from_secs(1))),
            )
            .workload(
                Workload::iperf_udp("client-0", "server-0", Bandwidth::from_mbps(20))
                    .duration(SimDuration::from_secs(4)),
            )
    }

    #[test]
    fn metadata_delay_sweep_shares_one_timeline_precompute() {
        let report = Campaign::over(base())
            .named("staleness-sweep")
            .vary_metadata_delay(&[
                SimDuration::ZERO,
                SimDuration::from_millis(5),
                SimDuration::from_millis(20),
            ])
            .threads(3)
            .run()
            .expect("valid campaign");
        assert_eq!(report.campaign, "staleness-sweep");
        assert_eq!(report.variants.len(), 3);
        // The structural-sharing contract: all three variants reused the
        // base's precomputed timeline…
        assert_eq!(report.timeline_precomputes, 1);
        // …which is visible in the DynamicsStats precompute counters: all
        // variants carry the *same* precompute cost (the shared one), not
        // three independent measurements.
        let micros: Vec<u64> = report
            .variants
            .iter()
            .map(|v| v.report.dynamics.expect("churny variant").precompute_micros)
            .collect();
        assert!(micros.windows(2).all(|w| w[0] == w[1]), "{micros:?}");
        // Each variant is a full report of its own.
        for v in &report.variants {
            assert_eq!(v.report.flows.len(), 1);
            assert_eq!(v.report.dynamics.unwrap().events_applied, 2);
        }
        assert_eq!(report.aggregates.variants, 3);
        assert_eq!(report.aggregates.total_flows, 3);
        assert!(report.aggregates.goodput_mean_mbps.unwrap() > 5.0);
        assert!(report.variant("metadata_delay=5.0ms").is_some());
        let json = report.to_json();
        assert_eq!(
            json.get("schema_version").and_then(|v| v.as_u64()),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(
            json.get("timeline_precomputes").and_then(|v| v.as_u64()),
            Some(1)
        );
        assert_eq!(
            json.get("variants")
                .and_then(|v| v.as_array())
                .map(|a| a.len()),
            Some(3)
        );
    }

    #[test]
    fn churn_rate_axis_precomputes_per_variant() {
        let report = Campaign::over(base())
            .vary_churn_rate(&[1.0, 2.0])
            .run()
            .expect("valid campaign");
        assert_eq!(report.variants.len(), 2);
        // x1.0 leaves the schedule identical (shares the base timeline);
        // x2.0 changes event times and pays its own precompute.
        assert_eq!(report.timeline_precomputes, 2);
        let fast = report.variant("churn_rate=x2").expect("x2 variant");
        // Twice the churn rate halves the heal delay: both events apply.
        assert_eq!(fast.dynamics.unwrap().events_applied, 2);
    }

    #[test]
    fn seed_and_custom_axes_compose_and_results_are_deterministic() {
        let build = || {
            Campaign::over(base())
                .vary_seed(&[1, 2])
                .vary("udp-30mbps", |s| {
                    s.workload(
                        Workload::iperf_udp("client-1", "server-1", Bandwidth::from_mbps(30))
                            .duration(SimDuration::from_secs(4)),
                    )
                })
                .threads(2)
        };
        let a = build().run().expect("valid campaign");
        assert_eq!(a.variants.len(), 3);
        assert_eq!(a.variants[2].report.flows.len(), 2);
        // Deterministic: a second identical campaign produces identical
        // variant reports (modulo the wall-clock precompute stamp).
        let b = build().run().expect("valid campaign");
        for (x, y) in a.variants.iter().zip(&b.variants) {
            let mut dx = x.report.clone();
            let mut dy = y.report.clone();
            if let Some(d) = dx.dynamics.as_mut() {
                d.precompute_micros = 0;
            }
            if let Some(d) = dy.dynamics.as_mut() {
                d.precompute_micros = 0;
            }
            assert_eq!(dx.to_json_string(), dy.to_json_string(), "{}", x.name);
        }
    }

    /// Variants that share one timeline read its snapshots from two
    /// threads at once, each manager deriving and caching its own paths
    /// from the shared trees: every report equals the one the same variant
    /// gives run alone, on a timeline of its own.
    #[test]
    fn two_threads_sharing_one_timeline_report_what_solo_runs_report() {
        let delays = [SimDuration::ZERO, SimDuration::from_millis(5)];
        let shared = Campaign::over(base())
            .vary_metadata_delay(&delays)
            .threads(2)
            .run()
            .expect("valid campaign");
        assert_eq!(shared.timeline_precomputes, 1);
        assert_eq!(shared.threads, 2);
        let normalized = |mut report: Report| {
            if let Some(d) = report.dynamics.as_mut() {
                d.precompute_micros = 0;
            }
            report.to_json_string()
        };
        for (variant, delay) in shared.variants.iter().zip(delays) {
            let solo = base().metadata_delay(delay).run().expect("valid scenario");
            assert!(variant
                .report
                .dynamics
                .is_some_and(|d| d.events_applied == 2));
            assert_eq!(
                normalized(variant.report.clone()),
                normalized(solo),
                "{}",
                variant.name
            );
        }
    }

    #[test]
    fn variant_errors_fail_the_campaign() {
        let err = Campaign::over(base())
            .vary("broken", |s| {
                s.workload(Workload::ping("ghost", "also-ghost"))
            })
            .run()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::UnknownNodes { ref names } if names.len() == 2));
    }

    #[test]
    fn an_invalid_churn_rate_factor_fails_the_campaign_typed() {
        for factor in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = Campaign::over(base())
                .vary_churn_rate(&[factor])
                .threads(1)
                .run()
                .unwrap_err();
            assert!(
                matches!(&err, ScenarioError::InvalidChurn { reason } if reason.contains("rate factor")),
                "x{factor}: {err}"
            );
        }
    }

    #[test]
    fn axis_free_campaign_runs_the_base_once() {
        let report = Campaign::over(base()).run().expect("valid campaign");
        assert_eq!(report.variants.len(), 1);
        assert_eq!(report.variants[0].name, "base");
        assert_eq!(report.timeline_precomputes, 1);
    }
}
