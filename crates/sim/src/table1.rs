//! The Table 1 experiment: heuristic quality vs optimal.
//!
//! "We compare the relative performances of different heuristic
//! algorithms (random and ours) with the optimal algorithm … we limit
//! ourselves to the special case of two-way cut. We assume two
//! heterogeneous devices (PC, PDA) are used, with initial normalized
//! resource availability vectors RA₁ = [256MB, 300%], RA₂ = [32MB, 100%]
//! … Table 1 summarizes the comparison results for 150 randomly generated
//! service graphs."
//!
//! The first metric is "the ratio of cost aggregation between the optimal
//! solution and the solution found by the heuristic, averaged over all
//! 150 graphs"; the second is the percentage of graphs where the
//! algorithm found the exact optimum.

use crate::graphgen::GraphGenConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use ubiqos_distribution::{
    Device, Environment, ExhaustiveOptimal, GreedyHeuristic, OsdProblem, RandomDistributor,
    ServiceDistributor,
};
use ubiqos_model::{ResourceVector, Weights};

/// Parameters for the Table 1 run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Config {
    /// Number of (optimally feasible) graphs to evaluate (paper: 150).
    pub graphs: usize,
    /// Master seed.
    pub seed: u64,
    /// Graph generator parameters.
    pub gen: GraphGenConfig,
    /// Attempt budget for the random baseline.
    pub random_attempts: usize,
    /// Also evaluate the heuristic's ablation variants.
    pub include_ablations: bool,
}

impl Default for Table1Config {
    fn default() -> Self {
        Table1Config {
            graphs: 150,
            seed: 0x1cdc_2002,
            gen: GraphGenConfig::table1(),
            random_attempts: 32,
            include_ablations: false,
        }
    }
}

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Row {
    /// Algorithm name.
    pub algorithm: String,
    /// Mean of `CA(optimal) / CA(algorithm)` over all graphs (infeasible
    /// answers count as ratio 0).
    pub avg_ratio: f64,
    /// Fraction of graphs where the algorithm's cut cost equals the
    /// optimum.
    pub pct_optimal: f64,
}

/// The full Table 1 reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Report {
    /// One row per algorithm (optimal last, by construction 100%/100%).
    pub rows: Vec<Table1Row>,
    /// Graphs generated but skipped because even the optimal algorithm
    /// could not fit them into the two devices.
    pub skipped_infeasible: usize,
}

impl Table1Report {
    /// Renders the report in the paper's row format.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Algorithms        | Average | Optimal\n------------------+---------+--------\n",
        );
        for row in &self.rows {
            out.push_str(&format!(
                "{:<17} | {:>6.0}% | {:>6.0}%\n",
                row.algorithm,
                row.avg_ratio * 100.0,
                row.pct_optimal * 100.0
            ));
        }
        out
    }
}

/// The PC + PDA environment of the Table 1 experiment.
pub fn table1_environment() -> Environment {
    Environment::builder()
        .device(Device::new("pc", ResourceVector::mem_cpu(256.0, 300.0)))
        .device(Device::new("pda", ResourceVector::mem_cpu(32.0, 100.0)))
        .default_bandwidth_mbps(20.0)
        .build()
}

/// Spreads a candidate index over the master seed (splitmix64 finalizer)
/// so every candidate graph draws from its own independent RNG stream.
/// This is what makes the sweep embarrassingly parallel: candidate `i`'s
/// graph, weights, and baseline seed no longer depend on how many earlier
/// candidates were feasible.
fn candidate_rng(master: u64, index: u64) -> StdRng {
    let mut z = master ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    StdRng::seed_from_u64(z)
}

/// Everything one candidate graph contributes to the table: `None` when
/// even the optimal algorithm could not fit it, otherwise the per-
/// algorithm `(ratio, hit_optimal)` pairs in `names` order.
type CandidateOutcome = Option<Vec<(f64, bool)>>;

fn evaluate_candidate(
    cfg: &Table1Config,
    env: &Environment,
    names: &[String],
    index: u64,
) -> CandidateOutcome {
    let mut rng = candidate_rng(cfg.seed, index);
    let graph = cfg.gen.generate(&mut rng);
    // "Weight values … uniformly distributed": fresh weights per graph.
    // The network importance is drawn from a higher band — multimedia
    // streams make inter-device bandwidth the critical resource, matching
    // the paper's "higher weights for more critical resources" guidance.
    let weights = Weights::from_importance(&[
        rng.gen_range(0.1..0.5),
        rng.gen_range(0.1..0.5),
        rng.gen_range(0.5..1.0),
    ])
    .expect("positive importances");
    let problem = OsdProblem::new(&graph, env, &weights);

    let opt_cut = ExhaustiveOptimal::new().distribute(&problem).ok()?;
    let opt_cost = problem.cost(&opt_cut);

    let seed = rng.gen::<u64>();
    let per_alg = names
        .iter()
        .map(|name| {
            let mut alg: Box<dyn ServiceDistributor> = match name.as_str() {
                "random" => {
                    Box::new(RandomDistributor::seeded(seed).with_attempts(cfg.random_attempts))
                }
                "heuristic" => Box::new(GreedyHeuristic::paper()),
                "heuristic-unsorted" => Box::new(GreedyHeuristic::without_device_resort()),
                "heuristic-nomerge" => Box::new(GreedyHeuristic::without_cluster_adjacency()),
                _ => unreachable!(),
            };
            match alg.distribute(&problem) {
                Ok(cut) => {
                    let cost = problem.cost(&cut);
                    // opt_cost may be 0 for degenerate graphs; then any
                    // feasible answer with cost 0 is optimal.
                    let ratio = if cost <= ubiqos_model::EPSILON {
                        1.0
                    } else {
                        (opt_cost / cost).min(1.0)
                    };
                    let hit = (cost - opt_cost).abs() <= 1e-9 * opt_cost.max(1.0);
                    (ratio, hit)
                }
                // Infeasible: contributes ratio 0 and no optimal hit.
                Err(_) => (0.0, false),
            }
        })
        .collect();
    Some(per_alg)
}

/// Candidates evaluated concurrently per round. A wave may overshoot the
/// quota; surplus outcomes are discarded in index order, so the report is
/// identical however the wave is scheduled (or whether it ran serially).
const WAVE: usize = 16;

/// Runs the Table 1 experiment.
///
/// Candidate graphs are indexed and drawn from per-index RNG streams
/// (see `candidate_rng`), evaluated in waves on `UBIQOS_THREADS`
/// workers, and consumed in index order until the configured number of
/// feasible graphs is reached. Every worker count produces the same
/// report for the same config.
pub fn run_table1(cfg: &Table1Config) -> Table1Report {
    let env = table1_environment();

    let mut names: Vec<String> = vec!["random".into(), "heuristic".into()];
    if cfg.include_ablations {
        names.push("heuristic-unsorted".into());
        names.push("heuristic-nomerge".into());
    }
    let mut ratio_sums = vec![0.0; names.len()];
    let mut optimal_hits = vec![0usize; names.len()];
    let mut evaluated = 0usize;
    let mut skipped = 0usize;
    let mut next_index = 0u64;

    while evaluated < cfg.graphs {
        let indices: Vec<u64> = (next_index..next_index + WAVE as u64).collect();
        next_index += WAVE as u64;

        let outcomes =
            ubiqos_parallel::par_map(&indices, |_, &i| evaluate_candidate(cfg, &env, &names, i));

        for outcome in outcomes {
            if evaluated == cfg.graphs {
                break;
            }
            match outcome {
                None => skipped += 1,
                Some(per_alg) => {
                    evaluated += 1;
                    for (i, (ratio, hit)) in per_alg.into_iter().enumerate() {
                        ratio_sums[i] += ratio;
                        optimal_hits[i] += hit as usize;
                    }
                }
            }
        }
    }

    let mut rows: Vec<Table1Row> = names
        .iter()
        .enumerate()
        .map(|(i, name)| Table1Row {
            algorithm: name.clone(),
            avg_ratio: ratio_sums[i] / evaluated as f64,
            pct_optimal: optimal_hits[i] as f64 / evaluated as f64,
        })
        .collect();
    rows.push(Table1Row {
        algorithm: "optimal".into(),
        avg_ratio: 1.0,
        pct_optimal: 1.0,
    });

    Table1Report {
        rows,
        skipped_infeasible: skipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> Table1Config {
        Table1Config {
            graphs: 12,
            seed: 7,
            ..Table1Config::default()
        }
    }

    #[test]
    fn heuristic_beats_random_and_optimal_tops() {
        let report = run_table1(&small_cfg());
        let row = |name: &str| {
            report
                .rows
                .iter()
                .find(|r| r.algorithm == name)
                .unwrap()
                .clone()
        };
        let h = row("heuristic");
        let r = row("random");
        let o = row("optimal");
        assert!(h.avg_ratio > r.avg_ratio, "heuristic {h:?} vs random {r:?}");
        assert!(h.pct_optimal >= r.pct_optimal);
        assert_eq!(o.avg_ratio, 1.0);
        assert_eq!(o.pct_optimal, 1.0);
        // Ratios are in [0, 1].
        for row in &report.rows {
            assert!((0.0..=1.0).contains(&row.avg_ratio));
            assert!((0.0..=1.0).contains(&row.pct_optimal));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_table1(&small_cfg());
        let b = run_table1(&small_cfg());
        assert_eq!(a, b);
    }

    #[test]
    fn ablations_included_on_request() {
        let cfg = Table1Config {
            graphs: 6,
            include_ablations: true,
            ..small_cfg()
        };
        let report = run_table1(&cfg);
        assert_eq!(report.rows.len(), 5);
        assert!(report
            .rows
            .iter()
            .any(|r| r.algorithm == "heuristic-unsorted"));
    }

    #[test]
    fn render_contains_all_rows() {
        let report = run_table1(&small_cfg());
        let s = report.render();
        assert!(s.contains("random"));
        assert!(s.contains("heuristic"));
        assert!(s.contains("optimal"));
        assert!(s.contains('%'));
    }
}
