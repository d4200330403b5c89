//! The Figure 5 experiment: success rate of fixed / random / heuristic
//! (re-)distribution over a 1000-hour workload.
//!
//! "We assume three heterogeneous devices (desktop, laptop, and PDA) …
//! RA₁ = [256MB, 300%], RA₂ = [128MB, 100%], RA₃ = [32MB, 50%]. The
//! available bandwidths b₁₂, b₁₃ and b₂₃ are initialized to be 50Mbps,
//! 5Mbps, and 5Mbps … When a new application starts or an old application
//! stops, both our heuristic and random algorithms make the
//! re-distribution decisions, but the fixed algorithm does not. The
//! success rate is calculated every 50 hours."

use crate::des::EventQueue;
use crate::graphgen::GraphGenConfig;
use crate::metrics::WindowedRate;
use crate::workload::{Request, WorkloadConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use ubiqos_distribution::{
    Device, Environment, GreedyHeuristic, OsdProblem, RandomDistributor, ServiceDistributor,
};
use ubiqos_graph::{Cut, ServiceGraph};
use ubiqos_model::{ResourceVector, Weights};

/// The distribution policies compared in Figure 5 (plus one ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Policy {
    /// A static per-template placement that "lacks dynamic service
    /// distribution considerations" entirely: components are assigned
    /// round-robin over the devices, with no regard for resource
    /// availability, and never re-distributed.
    Fixed,
    /// Ablation of `Fixed`: the static placement is *planned* (computed
    /// once by the heuristic against the empty system) but still never
    /// re-distributed — isolating how much of the heuristic's advantage
    /// is dynamism vs placement quality.
    FixedPlanned,
    /// Random placement, re-decided at every arrival/departure.
    Random,
    /// The paper's greedy heuristic, re-decided at every
    /// arrival/departure.
    Heuristic,
}

impl Policy {
    /// A short stable label.
    pub fn label(self) -> &'static str {
        match self {
            Policy::Fixed => "fixed",
            Policy::FixedPlanned => "fixed-planned",
            Policy::Random => "random",
            Policy::Heuristic => "heuristic",
        }
    }
}

/// Parameters for the Figure 5 run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig5Config {
    /// Master seed (workload, graphs, and random policy all derive from
    /// it, so every policy sees the identical request trace).
    pub seed: u64,
    /// Request workload parameters.
    pub workload: WorkloadConfig,
    /// Graph generator parameters for the 5 predefined graphs.
    pub gen: GraphGenConfig,
    /// Success-rate window (paper: 50 h).
    pub window_h: f64,
    /// Attempt budget for the random policy.
    pub random_attempts: usize,
}

impl Default for Fig5Config {
    fn default() -> Self {
        Fig5Config {
            seed: 0x1cdc_2002,
            workload: WorkloadConfig::default(),
            gen: GraphGenConfig::fig5(),
            window_h: 50.0,
            random_attempts: 4,
        }
    }
}

/// One policy's success-rate curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuccessSeries {
    /// Policy label.
    pub policy: String,
    /// `(window_end_hours, success_rate)` samples.
    pub series: Vec<(f64, f64)>,
    /// Success rate over the whole run.
    pub overall: f64,
}

/// The full Figure 5 reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig5Outcome {
    /// One curve per policy, in `[fixed, fixed-planned, random,
    /// heuristic]` order.
    pub curves: Vec<SuccessSeries>,
}

impl Fig5Outcome {
    /// The curve for a policy.
    pub fn curve(&self, policy: Policy) -> &SuccessSeries {
        self.curves
            .iter()
            .find(|c| c.policy == policy.label())
            .expect("every policy is always present")
    }

    /// Renders the series as aligned columns (time, then one column per
    /// policy).
    pub fn render(&self) -> String {
        let mut out = String::from("time(h)");
        for c in &self.curves {
            out.push_str(&format!(" | {:>13}", c.policy));
        }
        out.push('\n');
        let len = self
            .curves
            .iter()
            .map(|c| c.series.len())
            .max()
            .unwrap_or(0);
        for i in 0..len {
            let t = self.curves[0].series.get(i).map_or(0.0, |&(t, _)| t);
            out.push_str(&format!("{t:>7.0}"));
            for c in &self.curves {
                let rate = c.series.get(i).map_or(0.0, |&(_, r)| r);
                out.push_str(&format!(" | {rate:>13.2}"));
            }
            out.push('\n');
        }
        out
    }
}

/// The Figure 5 environment: desktop + laptop + PDA with the paper's
/// initial availabilities and link bandwidths.
pub fn fig5_environment() -> Environment {
    Environment::builder()
        .device(Device::new(
            "desktop",
            ResourceVector::mem_cpu(256.0, 300.0),
        ))
        .device(Device::new("laptop", ResourceVector::mem_cpu(128.0, 100.0)))
        .device(Device::new("pda", ResourceVector::mem_cpu(32.0, 50.0)))
        .default_bandwidth_mbps(5.0)
        .link_mbps(0, 1, 50.0)
        .build()
}

/// Runs the Figure 5 experiment for all three policies on one shared
/// workload.
pub fn run_fig5(cfg: &Fig5Config) -> Fig5Outcome {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // The "5 predefined graphs" span the configured node range evenly
    // (e.g. 50, 62, 75, 88, 100 nodes for the paper's 50-100), so the
    // workload always mixes small and large applications regardless of
    // seed luck.
    let (lo, hi) = (*cfg.gen.nodes.start(), *cfg.gen.nodes.end());
    let count = cfg.workload.graph_count;
    let graphs: Vec<ServiceGraph> = (0..count)
        .map(|i| {
            let span = hi.saturating_sub(lo);
            let n = if count > 1 {
                lo + span * i / (count - 1)
            } else {
                lo + span / 2
            };
            let gen = GraphGenConfig {
                nodes: n..=n,
                ..cfg.gen.clone()
            };
            gen.generate(&mut rng)
        })
        .collect();
    let trace = cfg.workload.generate(&mut rng);
    // The four policies share the graphs and the trace read-only and are
    // otherwise independent, so they can replay the workload on separate
    // threads. Each policy's discrete-event simulation itself stays
    // single-threaded — event order is its determinism guarantee.
    let policies = [
        Policy::Fixed,
        Policy::FixedPlanned,
        Policy::Random,
        Policy::Heuristic,
    ];
    let curves = ubiqos_parallel::par_map(&policies, |_, &policy| {
        simulate_policy(cfg, policy, &graphs, &trace)
    });
    Fig5Outcome { curves }
}

/// Aggregate of one policy's overall success rate across seeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicySummary {
    /// Policy label.
    pub policy: String,
    /// Mean overall success rate across seeds.
    pub mean: f64,
    /// Smallest overall success rate observed.
    pub min: f64,
    /// Largest overall success rate observed.
    pub max: f64,
}

/// Runs the Figure 5 experiment across several seeds and summarizes each
/// policy's overall success rate — the robustness check that the
/// reported ordering is not a seed artifact.
///
/// # Panics
///
/// Panics when `seeds` is empty.
pub fn run_fig5_multi(cfg: &Fig5Config, seeds: &[u64]) -> Vec<PolicySummary> {
    assert!(!seeds.is_empty(), "at least one seed is required");
    let policies = [
        Policy::Fixed,
        Policy::FixedPlanned,
        Policy::Random,
        Policy::Heuristic,
    ];
    // Seeds are independent full runs; fan them out and fold the results
    // back in seed order so the summary does not depend on scheduling.
    let outcomes = ubiqos_parallel::par_map(seeds, |_, &seed| {
        run_fig5(&Fig5Config {
            seed,
            ..cfg.clone()
        })
    });
    let mut rates: Vec<Vec<f64>> = vec![Vec::new(); policies.len()];
    for outcome in &outcomes {
        for (i, p) in policies.iter().enumerate() {
            rates[i].push(outcome.curve(*p).overall);
        }
    }
    policies
        .iter()
        .zip(rates)
        .map(|(p, r)| PolicySummary {
            policy: p.label().to_owned(),
            mean: r.iter().sum::<f64>() / r.len() as f64,
            min: r.iter().copied().fold(f64::INFINITY, f64::min),
            max: r.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum SimEvent {
    Arrival(usize),
    Departure(usize),
}

/// Runs one policy over the shared trace.
fn simulate_policy(
    cfg: &Fig5Config,
    policy: Policy,
    graphs: &[ServiceGraph],
    trace: &[Request],
) -> SuccessSeries {
    let initial_env = fig5_environment();
    let weights = Weights::default();
    let mut distributor: Box<dyn ServiceDistributor> = match policy {
        Policy::Fixed | Policy::FixedPlanned | Policy::Heuristic => {
            Box::new(GreedyHeuristic::paper())
        }
        Policy::Random => Box::new(
            RandomDistributor::seeded(cfg.seed ^ 0x5eed).with_attempts(cfg.random_attempts),
        ),
    };

    // Static policies: one placement per template, never revised.
    let fixed_cuts: Vec<Option<Cut>> = match policy {
        // Availability-blind static mapping: component i on device i mod k.
        Policy::Fixed => graphs
            .iter()
            .map(|g| {
                let k = initial_env.device_count();
                Cut::from_assignment(g, (0..g.component_count()).map(|i| i % k).collect(), k)
            })
            .collect(),
        // Planned once against the empty system by the heuristic.
        Policy::FixedPlanned => graphs
            .iter()
            .map(|g| {
                let p = OsdProblem::new(g, &initial_env, &weights);
                GreedyHeuristic::paper().distribute(&p).ok()
            })
            .collect(),
        _ => Vec::new(),
    };

    let mut queue = EventQueue::new();
    for (i, r) in trace.iter().enumerate() {
        queue.schedule(r.arrival_h, SimEvent::Arrival(i));
    }

    let mut env = initial_env.clone();
    // Active applications in arrival order: request index -> current cut.
    let mut active: BTreeMap<usize, Cut> = BTreeMap::new();
    let mut metrics = WindowedRate::new(cfg.window_h);

    while let Some((now, event)) = queue.pop() {
        match event {
            SimEvent::Arrival(i) => {
                let req = &trace[i];
                let graph = &graphs[req.graph_index];
                let admitted = match policy {
                    Policy::Fixed | Policy::FixedPlanned => {
                        if let Some(cut) = &fixed_cuts[req.graph_index] {
                            let p = OsdProblem::new(graph, &env, &weights);
                            if p.fits(cut) {
                                env.charge_cut(graph, cut).expect("consistent dims");
                                active.insert(i, cut.clone());
                                true
                            } else {
                                false
                            }
                        } else {
                            false
                        }
                    }
                    Policy::Random | Policy::Heuristic => {
                        // "When a new application starts … make the
                        // re-distribution decisions": the dynamic policies
                        // place the newcomer against the *current* residual
                        // availability (the fixed policy ignores it).
                        let p = OsdProblem::new(graph, &env, &weights);
                        match distributor.distribute(&p) {
                            Ok(cut) => {
                                env.charge_cut(graph, &cut).expect("consistent dims");
                                active.insert(i, cut);
                                true
                            }
                            Err(_) => false,
                        }
                    }
                };
                if admitted {
                    queue.schedule(req.departure_h(), SimEvent::Departure(i));
                }
                metrics.record(now, admitted);
            }
            SimEvent::Departure(i) => {
                let req = &trace[i];
                let graph = &graphs[req.graph_index];
                if let Some(cut) = active.remove(&i) {
                    env.refund_cut(graph, &cut).expect("consistent dims");
                }
                // "… or an old application stops": the dynamic policies
                // re-distribute the surviving applications over the freed
                // capacity, defragmenting the space for future arrivals.
                if matches!(policy, Policy::Random | Policy::Heuristic) {
                    repack(
                        &initial_env,
                        &mut env,
                        &mut active,
                        graphs,
                        trace,
                        &weights,
                        distributor.as_mut(),
                    );
                }
            }
        }
    }

    SuccessSeries {
        policy: policy.label().to_owned(),
        series: metrics.series(),
        overall: metrics.overall(),
    }
}

/// Re-packs every live application from scratch ("make the
/// re-distribution decisions"): resets the environment to its initial
/// state and re-places each active app in arrival order. An app whose
/// re-placement fails keeps its previous cut (and is charged for it), so
/// re-packing never evicts running applications.
fn repack(
    initial_env: &Environment,
    env: &mut Environment,
    active: &mut BTreeMap<usize, Cut>,
    graphs: &[ServiceGraph],
    trace: &[Request],
    weights: &Weights,
    distributor: &mut dyn ServiceDistributor,
) {
    *env = initial_env.clone();
    for (&i, cut) in active.iter_mut() {
        let graph = &graphs[trace[i].graph_index];
        let p = OsdProblem::new(graph, env, weights);
        if let Ok(new_cut) = distributor.distribute(&p) {
            *cut = new_cut;
        }
        env.charge_cut(graph, cut).expect("consistent dims");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> Fig5Config {
        Fig5Config {
            seed: 11,
            workload: WorkloadConfig {
                requests: 120,
                horizon_h: 100.0,
                ..WorkloadConfig::default()
            },
            gen: GraphGenConfig {
                nodes: 20..=30,
                ..GraphGenConfig::fig5()
            },
            window_h: 25.0,
            random_attempts: 8,
        }
    }

    #[test]
    fn produces_one_curve_per_policy_over_the_horizon() {
        let out = run_fig5(&tiny_cfg());
        assert_eq!(out.curves.len(), 4);
        for c in &out.curves {
            assert!(!c.series.is_empty());
            for &(t, rate) in &c.series {
                assert!(t > 0.0 && t <= 100.0 + 25.0);
                assert!((0.0..=1.0).contains(&rate));
            }
        }
    }

    #[test]
    fn heuristic_dominates_fixed() {
        let out = run_fig5(&tiny_cfg());
        let h = out.curve(Policy::Heuristic).overall;
        let f = out.curve(Policy::Fixed).overall;
        assert!(
            h >= f,
            "heuristic ({h:.3}) should not lose to fixed ({f:.3})"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_fig5(&tiny_cfg());
        let b = run_fig5(&tiny_cfg());
        assert_eq!(a, b);
    }

    #[test]
    fn render_has_header_and_rows() {
        let out = run_fig5(&tiny_cfg());
        let s = out.render();
        assert!(s.starts_with("time(h)"));
        assert!(s.lines().count() > 2);
    }

    #[test]
    fn multi_seed_summary_keeps_the_ordering() {
        let cfg = tiny_cfg();
        let summaries = run_fig5_multi(&cfg, &[3, 5]);
        assert_eq!(summaries.len(), 4);
        let mean_of = |label: &str| {
            summaries
                .iter()
                .find(|s| s.policy == label)
                .map(|s| s.mean)
                .unwrap()
        };
        assert!(mean_of("heuristic") >= mean_of("fixed"));
        for s in &summaries {
            assert!(s.min <= s.mean && s.mean <= s.max);
            assert!((0.0..=1.0).contains(&s.mean));
        }
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn multi_seed_requires_seeds() {
        let _ = run_fig5_multi(&tiny_cfg(), &[]);
    }

    #[test]
    fn policy_labels() {
        assert_eq!(Policy::Fixed.label(), "fixed");
        assert_eq!(Policy::Random.label(), "random");
        assert_eq!(Policy::Heuristic.label(), "heuristic");
    }
}
