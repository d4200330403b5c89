//! The `placement` workload: the distribution tier's solver portfolio
//! over fixed-seed instances, a fifth of which take the exact
//! branch-and-bound route and the rest the hierarchical route.

use crate::report::RunReport;
use crate::stats::{
    highest_percentile, mean, measure_setup, median, mix, percentile, share, sub_seed, timed,
    timed_calls, KERNELS_PER_REF_S, SUB_SEEDS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;
use ubiqos_distribution::{
    Device, Environment, GreedyHeuristic, OsdProblem, PortfolioOutcome, PortfolioRoute,
    ServiceDistributor, SolverPortfolio,
};
use ubiqos_graph::{ServiceComponent, ServiceGraph};
use ubiqos_model::{ResourceVector, Weights};
use ubiqos_sim::GraphGenConfig;

/// Table-1-range instances (20 nodes, 3 devices): the exact route.
const EXACT_INSTANCES: usize = 20;
/// Correlated-dimension instances beyond the exact limit, per size.
const LARGE_SIZES: [(usize, usize); 3] = [(48, 27), (64, 27), (100, 26)];
/// Largest certified optimality gap a hierarchical placement may carry.
const GAP_TOLERANCE: f64 = 0.02;
/// CPU demand per MB of memory in the large instances; the devices
/// scale both dimensions alike, so no single dimension is the bottleneck.
const CPU_PER_MEM: f64 = 1.15;

/// One placement request: a service graph and the devices to place it on.
pub struct Instance {
    /// The service graph.
    pub graph: ServiceGraph,
    /// The devices.
    pub env: Environment,
}

/// The three-device Table 1 space (PC, laptop, PDA).
fn table1_environment() -> Environment {
    Environment::builder()
        .device(Device::new("pc", ResourceVector::mem_cpu(256.0, 300.0)))
        .device(Device::new("laptop", ResourceVector::mem_cpu(128.0, 160.0)))
        .device(Device::new("pda", ResourceVector::mem_cpu(48.0, 110.0)))
        .default_bandwidth_mbps(20.0)
        .build()
}

/// A sparse DAG of `nodes` components whose CPU demand is proportional
/// to their memory demand.
fn large_graph(nodes: usize, rng: &mut StdRng) -> ServiceGraph {
    let mut g = ServiceGraph::new();
    let ids: Vec<_> = (0..nodes)
        .map(|i| {
            let mem = rng.gen_range(0.8..=2.8);
            g.add_component(
                ServiceComponent::builder(format!("svc-{i}"))
                    .resources(ResourceVector::mem_cpu(mem, CPU_PER_MEM * mem))
                    .build(),
            )
        })
        .collect();
    for i in 0..nodes {
        let downstream = nodes - i - 1;
        if downstream == 0 {
            continue;
        }
        for _ in 0..rng.gen_range(1..=2usize).min(downstream) {
            let j = i + 1 + rng.gen_range(0..downstream);
            let _ = g.add_edge(ids[i], ids[j], rng.gen_range(0.1..=1.0));
        }
    }
    g
}

/// Three unequal devices with 1.5× the expected total demand of a
/// `nodes`-component large graph.
fn large_environment(nodes: usize) -> Environment {
    const SHARES: [f64; 3] = [1.0, 0.8, 0.6];
    let mem = 1.8 * nodes as f64 * 1.5 / SHARES.iter().sum::<f64>();
    let mut b = Environment::builder();
    for (d, &s) in SHARES.iter().enumerate() {
        b = b.device(Device::new(
            format!("node{d}"),
            ResourceVector::mem_cpu(s * mem, s * mem * CPU_PER_MEM),
        ));
    }
    b.default_bandwidth_mbps(1_000.0).build()
}

/// Set-up: generates the instances from the seed. A draw the greedy
/// heuristic cannot place is redrawn, so every request has an answer.
pub fn setup(seed: u64) -> Vec<Instance> {
    let weights = Weights::default();
    let placeable = |i: &Instance| {
        GreedyHeuristic::paper()
            .distribute(&OsdProblem::new(&i.graph, &i.env, &weights))
            .is_ok()
    };
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x05d0_0000));
    let gen = GraphGenConfig {
        nodes: 20..=20,
        ..GraphGenConfig::table1()
    };
    let mut out = Vec::new();
    while out.len() < EXACT_INSTANCES {
        let i = Instance {
            graph: gen.generate(&mut rng),
            env: table1_environment(),
        };
        if placeable(&i) {
            out.push(i);
        }
    }
    for (nodes, count) in LARGE_SIZES {
        let target = out.len() + count;
        while out.len() < target {
            let i = Instance {
                graph: large_graph(nodes, &mut rng),
                env: large_environment(nodes),
            };
            if placeable(&i) {
                out.push(i);
            }
        }
    }
    out
}

/// One solve: its wall time in ms and what the portfolio reported, or
/// why the output failed its check.
type Solve = (f64, Result<PortfolioOutcome, String>);

/// Solves `inst` with a fresh portfolio and checks the answer: the cut
/// fits the devices, and a hierarchical placement is certified within
/// [`GAP_TOLERANCE`] of optimal.
fn solve(inst: &Instance, weights: &Weights) -> Solve {
    let p = OsdProblem::new(&inst.graph, &inst.env, weights);
    let mut portfolio = SolverPortfolio::new();
    let (cut, s) = timed(|| portfolio.distribute(&p));
    let checked = match cut {
        Err(e) => Err(format!("no placement: {e}")),
        Ok(cut) if !p.fits(&cut) => Err("the cut does not fit".to_string()),
        Ok(_) => {
            let o = portfolio
                .last_outcome()
                .cloned()
                .expect("outcome after a solve");
            match (o.route, o.certificate) {
                (PortfolioRoute::Hierarchical, Some(c)) if c.gap > GAP_TOLERANCE => {
                    Err(format!("certified gap {:.4} above {GAP_TOLERANCE}", c.gap))
                }
                (PortfolioRoute::Hierarchical, None) => Err("no gap certificate".to_string()),
                _ => Ok(o),
            }
        }
    };
    (s * 1e3, checked)
}

/// The untraced run: solves the instance sets of the seed's [`SUB_SEEDS`]
/// sub-seeds in passes for `seconds`.
pub fn measure(seed: u64, seconds: f64) -> RunReport {
    let (instances, setup_s) = measure_setup(|| {
        (0..SUB_SEEDS)
            .flat_map(|k| setup(sub_seed(seed, k)))
            .collect::<Vec<_>>()
    });
    let weights = Weights::default();
    let (calls, rss) = timed_calls(seconds, || {
        instances
            .iter()
            .map(|i| solve(i, &weights))
            .collect::<Vec<_>>()
    });

    let mut r = RunReport::default();
    r.end_to_end(instances.len() as f64, &calls, setup_s, rss);
    // A placement request is one solve, so the rate is taken at the median
    // solve: a pass's total moves several-fold with the one or two
    // heavy-tailed exact-route instances a seed happens to draw.
    let per_solve: Vec<f64> = calls
        .iter()
        .flat_map(|c| {
            let ref_s = c.kernel_secs * KERNELS_PER_REF_S;
            c.out.iter().map(move |(ms, _)| ms / 1e3 / ref_s)
        })
        .collect();
    r.set("arrivals_per_ref_s", share(1.0, median(&per_solve)));
    let passes = calls.len();
    let solves: Vec<Solve> = calls.into_iter().flat_map(|c| c.out).collect();
    for (i, (_, checked)) in solves.iter().enumerate() {
        r.check(checked.is_ok(), || {
            format!(
                "instance {}: {}",
                i % instances.len(),
                checked.as_ref().err().cloned().unwrap_or_default()
            )
        });
    }
    let ms: Vec<f64> = solves.iter().map(|(ms, _)| *ms).collect();
    let fmt = |v: Option<f64>| v.map_or("n/a".to_string(), |v| format!("{v:.3} ms"));
    r.note(format!(
        "{} passes over {} instances ({} solves): solve p50 {}, p90 {}, highest reportable {}; \
         cost vs greedy {:.5}",
        passes,
        instances.len(),
        solves.len(),
        fmt(percentile(&ms, 0.5)),
        fmt(percentile(&ms, 0.9)),
        highest_percentile(&ms).map_or("n/a".to_string(), |(q, v)| format!(
            "p{} {v:.3} ms",
            q * 100.0
        )),
        cost_vs_greedy(&solves)
    ));
    let exact = |(_, c): &&Solve| matches!(c, Ok(o) if o.route == PortfolioRoute::Exact);
    let exact_ms: f64 = solves.iter().filter(exact).map(|(ms, _)| ms).sum();
    r.note(format!(
        "route split: exact share of solves {}, exact share of solve time {}",
        share(
            solves.iter().filter(exact).count() as f64,
            solves.len() as f64
        ),
        share(exact_ms, ms.iter().sum())
    ));
    r
}

/// Mean `final_cost / greedy_cost` over the solves that placed.
fn cost_vs_greedy(solves: &[Solve]) -> f64 {
    let ratios: Vec<f64> = solves
        .iter()
        .filter_map(|(_, c)| c.as_ref().ok())
        .filter_map(|o| o.greedy_cost.map(|g| share(o.final_cost, g)))
        .collect();
    mean(&ratios)
}

/// The traced run: passes that also time the greedy heuristic on its
/// own, and an untraced pass after each for the tracing overhead.
/// The exact and hierarchical routes' self times are their solve times
/// minus the greedy stage every portfolio solve starts with.
pub fn trace(seed: u64, seconds: f64) -> RunReport {
    let instances = setup(sub_seed(seed, 0));
    let weights = Weights::default();
    let mut r = RunReport::default();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut solves: Vec<(Solve, f64, bool)> = Vec::new();
    let start = Instant::now();
    while traced.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (pass, t) = timed(|| {
            instances
                .iter()
                .map(|i| {
                    let p = OsdProblem::new(&i.graph, &i.env, &weights);
                    let (_, g) = timed(|| black_box(GreedyHeuristic::paper().distribute(&p)));
                    let s = solve(i, &weights);
                    let exact = matches!(&s.1, Ok(o) if o.route == PortfolioRoute::Exact);
                    (s, g * 1e3, exact)
                })
                .collect::<Vec<_>>()
        });
        let (_, u) = timed(|| instances.iter().map(|i| solve(i, &weights).0).sum::<f64>());
        traced.push(t * 1e3);
        untraced.push(u * 1e3);
        solves.extend(pass);
    }
    let passes = traced.len() as f64;
    let per_pass = |x: f64| x / passes;
    let mut greedy_ms = 0.0;
    let (mut bnb_ms, mut hier_ms) = (0.0, 0.0);
    let (mut exact_n, mut hier_n) = (0u64, 0u64);
    let (mut nodes, mut pruned, mut rounds) = (0u64, 0u64, 0u64);
    let mut clusters = Vec::new();
    let mut gap_max: f64 = 0.0;
    for ((ms, checked), g, exact) in &solves {
        r.check(checked.is_ok(), || {
            checked.as_ref().err().cloned().unwrap_or_default()
        });
        greedy_ms += g;
        let Ok(o) = checked else { continue };
        if *exact {
            exact_n += 1;
            bnb_ms += ms - g;
            nodes += o.stats.nodes_expanded;
            pruned += o.stats.pruned_bound;
        } else {
            hier_n += 1;
            hier_ms += ms - g;
            if let Some(c) = &o.certificate {
                rounds += u64::from(c.rounds);
                clusters.push(c.clusters as f64);
                gap_max = gap_max.max(c.gap);
            }
        }
    }
    let solve_ms: f64 = solves.iter().map(|((ms, _), _, _)| ms).sum();
    let placed = solves.iter().filter(|((_, c), _, _)| c.is_ok()).count();
    r.set(
        "admission.admitted_share",
        share(placed as f64, solves.len() as f64),
    );
    r.set("bnb.ms", per_pass(bnb_ms));
    r.set("bnb.nodes_expanded", per_pass(nodes as f64));
    r.set("bnb.pruned_bound", per_pass(pruned as f64));
    r.count("parallel.threads", ubiqos_parallel::thread_count() as u64);
    r.set("portfolio.route_exact", per_pass(exact_n as f64));
    r.set("hierarchical.ms", per_pass(hier_ms));
    r.set("hierarchical.rounds", per_pass(rounds as f64));
    r.set("hierarchical.clusters", mean(&clusters));
    r.set("hierarchical.gap_max", gap_max);
    r.set("greedy.ms", per_pass(greedy_ms));
    r.set("portfolio.route_hierarchical", per_pass(hier_n as f64));
    let ms: Vec<f64> = solves.iter().map(|((ms, _), _, _)| *ms).collect();
    r.set(
        "portfolio.solve_p50_ms",
        percentile(&ms, 0.5).unwrap_or(0.0),
    );
    r.set(
        "portfolio.solve_p90_ms",
        percentile(&ms, 0.9).unwrap_or(0.0),
    );
    let plain: Vec<Solve> = solves.into_iter().map(|(s, _, _)| s).collect();
    r.set("portfolio.cost_vs_greedy", cost_vs_greedy(&plain));

    let wall_ms = median(&traced);
    r.set("traced.wall_ms", wall_ms);
    // Attributed: the standalone greedy calls plus every portfolio solve.
    r.set("unattributed_ms", wall_ms - per_pass(greedy_ms + solve_ms));
    r.set(
        "trace_overhead_share",
        share(wall_ms, median(&untraced)) - 1.0,
    );
    r.note(format!(
        "{} traced passes over {} instances; traced {wall_ms:.1} ms, untraced {:.1} ms",
        traced.len(),
        instances.len(),
        median(&untraced)
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instances_split_between_the_two_routes() {
        let instances = setup(5);
        assert_eq!(instances.len(), 100);
        let weights = Weights::default();
        let routes: Vec<PortfolioRoute> = instances
            .iter()
            .take(EXACT_INSTANCES + 1)
            .map(|i| solve(i, &weights).1.expect("placed and certified").route)
            .collect();
        assert!(routes[..EXACT_INSTANCES]
            .iter()
            .all(|r| *r == PortfolioRoute::Exact));
        assert_eq!(routes[EXACT_INSTANCES], PortfolioRoute::Hierarchical);
    }
}
