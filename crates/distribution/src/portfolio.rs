//! A racing portfolio over the crate's placement algorithms.
//!
//! One solve runs, in order:
//!
//! 1. the paper's [`GreedyHeuristic`] — polynomial, always cheap;
//! 2. the exact [`ExhaustiveOptimal`] branch-and-bound, *seeded* with the
//!    greedy placement (or the caller's warm start, whichever is
//!    cheaper), so the incumbent bound is tight from the first node —
//!    this is how the portfolio "races" under the solver's shared
//!    deterministic incumbent;
//! 3. when the exact solver refuses the instance with
//!    [`DistributionError::TooLarge`], the [`HierarchicalSolver`], which
//!    keeps the same seed as its incumbent and reports an optimality-gap
//!    certificate instead of a proof.
//!
//! # Determinism
//!
//! Within the exact limit the portfolio returns *exactly* the cut
//! [`ExhaustiveOptimal`] would return cold: a valid seed only tightens
//! the incumbent and can never change the unique `(cost, key)` minimum
//! the search selects (see the optimal module docs), and the portfolio
//! never swaps in the greedy cut — even on a cost tie — precisely to
//! preserve that bit-identity. Beyond the limit the hierarchical solver
//! is deterministic at every thread count, and its incumbent rule
//! (`(cost bits, lexicographic assignment)`) resolves any tie between
//! the seed and a refined projection the same way on every run.

use crate::algorithm::ServiceDistributor;
use crate::error::DistributionError;
use crate::heuristic::GreedyHeuristic;
use crate::hierarchical::{GapCertificate, HierarchicalSolver};
use crate::optimal::{ExhaustiveOptimal, SolveStats};
use crate::problem::OsdProblem;
use ubiqos_graph::Cut;

/// Which solver produced the returned placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortfolioRoute {
    /// The exact branch-and-bound solved the instance (within limit).
    Exact,
    /// The instance was routed to the hierarchical solver
    /// ([`DistributionError::TooLarge`] from the exact solver).
    Hierarchical,
}

/// What one portfolio solve did, for reporting and benchmarks.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioOutcome {
    /// Which solver produced the returned cut.
    pub route: PortfolioRoute,
    /// Cost of the greedy placement, when the heuristic found one.
    pub greedy_cost: Option<f64>,
    /// Cost of the returned placement.
    pub final_cost: f64,
    /// Counters of the winning solver (summed over coarse rounds on the
    /// hierarchical route).
    pub stats: SolveStats,
    /// Optimality bracket (hierarchical route only; the exact route is
    /// proven optimal).
    pub certificate: Option<GapCertificate>,
}

/// The solver portfolio: greedy, warm-started exact, hierarchical —
/// exposed to the runtime through `PlacementStrategy`.
#[derive(Debug, Clone)]
pub struct SolverPortfolio {
    exact: ExhaustiveOptimal,
    hierarchical: HierarchicalSolver,
    greedy: GreedyHeuristic,
    warm_start: Option<Vec<usize>>,
    last_outcome: Option<PortfolioOutcome>,
}

impl Default for SolverPortfolio {
    fn default() -> Self {
        SolverPortfolio {
            exact: ExhaustiveOptimal::new(),
            hierarchical: HierarchicalSolver::new(),
            greedy: GreedyHeuristic::paper(),
            warm_start: None,
            last_outcome: None,
        }
    }
}

impl SolverPortfolio {
    /// Creates the portfolio with default members (exact limit 32,
    /// hierarchical refinement to a 2% gap).
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables or disables the parallel fan-out of both inner solvers.
    /// The returned placement is identical either way; the exact member
    /// keeps its serial-fallback threshold, so small instances run
    /// serially even when this is on.
    #[must_use]
    pub fn with_parallel(mut self, parallel: bool) -> Self {
        self.exact = self.exact.with_parallel(parallel);
        self.hierarchical = self.hierarchical.with_parallel(parallel);
        self
    }

    /// Seeds the next solve with a previous full assignment (a session's
    /// placement before a fault, typically). The portfolio forwards the
    /// cheaper of this seed and the greedy placement to whichever solver
    /// runs. Consumed by the next solve.
    #[must_use]
    pub fn with_warm_start(mut self, assignment: Vec<usize>) -> Self {
        self.warm_start = Some(assignment);
        self
    }

    /// Sets or clears the warm-start seed in place.
    pub fn set_warm_start(&mut self, assignment: Option<Vec<usize>>) {
        self.warm_start = assignment;
    }

    /// What the most recent solve did, if any.
    pub fn last_outcome(&self) -> Option<&PortfolioOutcome> {
        self.last_outcome.as_ref()
    }

    /// Evaluates a candidate seed: cost when it is a complete, in-range,
    /// pin-respecting, fitting assignment; `None` otherwise.
    fn seed_cost(problem: &OsdProblem<'_>, seed: &[usize]) -> Option<f64> {
        let k = problem.env().device_count();
        if seed.len() != problem.graph().component_count() || seed.iter().any(|&d| d >= k) {
            return None;
        }
        let cut = Cut::from_assignment(problem.graph(), seed.to_vec(), k)?;
        problem.fits(&cut).then(|| problem.cost(&cut))
    }
}

impl ServiceDistributor for SolverPortfolio {
    fn name(&self) -> &str {
        "portfolio"
    }

    fn distribute(&mut self, problem: &OsdProblem<'_>) -> Result<Cut, DistributionError> {
        self.last_outcome = None;
        let caller_seed = self.warm_start.take();

        // Stage 1: greedy. A failure here is not fatal — the exact search
        // may still find a cut the heuristic missed.
        let greedy_seed = self
            .greedy
            .distribute(problem)
            .ok()
            .map(|cut| (problem.cost(&cut), cut.assignment()));
        let greedy_cost = greedy_seed.as_ref().map(|&(cost, _)| cost);

        // Pick the cheaper valid seed: caller's warm start vs greedy.
        let caller = caller_seed.and_then(|s| Self::seed_cost(problem, &s).map(|c| (c, s)));
        let seed = match (caller, greedy_seed) {
            (Some((cc, cs)), Some((gc, gs))) => {
                if cc < gc || (cc == gc && cs <= gs) {
                    Some(cs)
                } else {
                    Some(gs)
                }
            }
            (Some((_, cs)), None) => Some(cs),
            (None, Some((_, gs))) => Some(gs),
            (None, None) => None,
        };

        // Stage 2: warm-started exact search.
        self.exact.set_warm_start(seed.clone());
        match self.exact.distribute(problem) {
            Ok(cut) => {
                let final_cost = problem.cost(&cut);
                self.last_outcome = Some(PortfolioOutcome {
                    route: PortfolioRoute::Exact,
                    greedy_cost,
                    final_cost,
                    stats: self.exact.last_stats().unwrap_or_default(),
                    certificate: Some(GapCertificate {
                        upper: final_cost,
                        lower: final_cost,
                        gap: 0.0,
                        rounds: 0,
                        clusters: 0,
                        exact: true,
                    }),
                });
                Ok(cut)
            }
            // Stage 3: oversized instances route to the hierarchical
            // solver, carrying the same seed as the incumbent to beat.
            Err(DistributionError::TooLarge { .. }) => {
                self.hierarchical.set_warm_start(seed);
                let cut = self.hierarchical.distribute(problem)?;
                self.last_outcome = Some(PortfolioOutcome {
                    route: PortfolioRoute::Hierarchical,
                    greedy_cost,
                    final_cost: problem.cost(&cut),
                    stats: self.hierarchical.last_stats().unwrap_or_default(),
                    certificate: self.hierarchical.last_certificate(),
                });
                Ok(cut)
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::environment::Environment;
    use ubiqos_graph::{ServiceComponent, ServiceGraph};
    use ubiqos_model::{ResourceVector, Weights};

    fn chain(n: usize) -> ServiceGraph {
        let mut g = ServiceGraph::new();
        let ids: Vec<_> = (0..n)
            .map(|i| {
                g.add_component(
                    ServiceComponent::builder(format!("c{i}"))
                        .resources(ResourceVector::mem_cpu(
                            4.0 + (i % 5) as f64,
                            6.0 + (i % 7) as f64,
                        ))
                        .build(),
                )
            })
            .collect();
        for i in 1..n {
            g.add_edge(ids[i - 1], ids[i], 0.2 + (i % 4) as f64 * 0.3)
                .unwrap();
        }
        g
    }

    fn env(scale: f64) -> Environment {
        Environment::builder()
            .device(Device::new(
                "big",
                ResourceVector::mem_cpu(40.0 * scale, 60.0 * scale),
            ))
            .device(Device::new(
                "mid",
                ResourceVector::mem_cpu(20.0 * scale, 30.0 * scale),
            ))
            .device(Device::new(
                "small",
                ResourceVector::mem_cpu(10.0 * scale, 15.0 * scale),
            ))
            .default_bandwidth_mbps(200.0)
            .build()
    }

    #[test]
    fn within_limit_is_bit_identical_to_the_exact_solver() {
        let g = chain(14);
        let e = env(4.0);
        let w = Weights::default();
        let p = OsdProblem::new(&g, &e, &w);
        let exact = ExhaustiveOptimal::new().distribute(&p).unwrap();
        let mut portfolio = SolverPortfolio::new();
        let cut = portfolio.distribute(&p).unwrap();
        assert_eq!(cut, exact);
        assert_eq!(p.cost(&cut).to_bits(), p.cost(&exact).to_bits());
        let outcome = portfolio.last_outcome().unwrap();
        assert_eq!(outcome.route, PortfolioRoute::Exact);
        assert!(outcome.greedy_cost.is_some());
        assert!(outcome.certificate.unwrap().exact);
        // The greedy seed was validated and used as the incumbent.
        assert!(outcome.stats.warm_start_used);
    }

    #[test]
    fn oversized_instances_route_to_the_hierarchical_solver() {
        let g = chain(48);
        let e = env(12.0);
        let w = Weights::default();
        let p = OsdProblem::new(&g, &e, &w);
        let mut portfolio = SolverPortfolio::new();
        let cut = portfolio.distribute(&p).unwrap();
        assert!(p.fits(&cut));
        let outcome = portfolio.last_outcome().unwrap();
        assert_eq!(outcome.route, PortfolioRoute::Hierarchical);
        let cert = outcome.certificate.unwrap();
        assert!(!cert.exact);
        assert!(cert.upper >= cert.lower);
        // The portfolio's placement is never worse than the greedy seed.
        assert!(outcome.final_cost <= outcome.greedy_cost.unwrap() + 1e-12);
    }

    #[test]
    fn caller_warm_start_competes_with_the_greedy_seed() {
        let g = chain(14);
        let e = env(4.0);
        let w = Weights::default();
        let p = OsdProblem::new(&g, &e, &w);
        let exact = ExhaustiveOptimal::new().distribute(&p).unwrap();
        let mut portfolio = SolverPortfolio::new().with_warm_start(exact.assignment());
        let cut = portfolio.distribute(&p).unwrap();
        assert_eq!(cut, exact);
        assert!(portfolio.last_outcome().unwrap().stats.warm_start_used);
        // Consumed: a second solve runs without the caller seed but
        // still seeds itself from greedy.
        let again = portfolio.distribute(&p).unwrap();
        assert_eq!(again, exact);
    }

    #[test]
    fn infeasible_instances_still_fail() {
        let mut g = ServiceGraph::new();
        let a = g.add_component(
            ServiceComponent::builder("hog-a")
                .resources(ResourceVector::mem_cpu(1000.0, 1000.0))
                .build(),
        );
        let b = g.add_component(
            ServiceComponent::builder("hog-b")
                .resources(ResourceVector::mem_cpu(1000.0, 1000.0))
                .build(),
        );
        g.add_edge(a, b, 1.0).unwrap();
        let e = env(1.0);
        let w = Weights::default();
        let p = OsdProblem::new(&g, &e, &w);
        assert!(matches!(
            SolverPortfolio::new().distribute(&p),
            Err(DistributionError::Infeasible { .. })
        ));
    }

    #[test]
    fn parallel_and_serial_portfolios_agree() {
        for n in [14usize, 48] {
            let g = chain(n);
            let e = env(n as f64 / 3.5);
            let w = Weights::default();
            let p = OsdProblem::new(&g, &e, &w);
            let cs = SolverPortfolio::new()
                .with_parallel(false)
                .distribute(&p)
                .unwrap();
            let cp = SolverPortfolio::new()
                .with_parallel(true)
                .distribute(&p)
                .unwrap();
            assert_eq!(cs, cp, "n={n}");
            assert_eq!(p.cost(&cs).to_bits(), p.cost(&cp).to_bits());
        }
    }
}
