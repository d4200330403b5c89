//! Hierarchical solver and portfolio vs. the exhaustive optimum.
//!
//! Within the exact limit, both [`HierarchicalSolver`] and
//! [`SolverPortfolio`] are specified to return *exactly* the cut
//! [`ExhaustiveOptimal`] returns — the unique `(cost, key)` minimum —
//! bit for bit, at every thread count (the CI matrix re-runs this file
//! under `UBIQOS_THREADS=1` and `=8`). Beyond the limit, the
//! hierarchical result must fit, carry a valid optimality bracket, and
//! be identical between serial and parallel coarse solves. A directed
//! test pins refinement termination on a pathological instance whose
//! clusters all have zero bound gap, and a golden test pins the
//! portfolio's hierarchical-route placements, costs and certificates on
//! 48/64/100-node instances.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ubiqos_distribution::{
    Device, Environment, ExhaustiveOptimal, GapCertificate, GreedyHeuristic, HierarchicalSolver,
    OsdProblem, PortfolioRoute, ServiceDistributor, SolverPortfolio,
};
use ubiqos_graph::{DeviceId, ServiceComponent, ServiceGraph};
use ubiqos_model::{ResourceVector, Weights};

/// Random instance over 2-3 devices; occasionally pins a component, and
/// draws bandwidth thin enough that the constraint sometimes bites.
fn random_instance(seed: u64, n: usize, k: usize) -> (ServiceGraph, Environment) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = ServiceGraph::new();
    let ids: Vec<_> = (0..n)
        .map(|i| {
            let mut builder = ServiceComponent::builder(format!("c{i}")).resources(
                ResourceVector::mem_cpu(rng.gen_range(1.0..14.0), rng.gen_range(1.0..16.0)),
            );
            if rng.gen_bool(0.15) {
                builder = builder.pinned_to(DeviceId::from_index(rng.gen_range(0..k)));
            }
            g.add_component(builder.build())
        })
        .collect();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(2.5 / n as f64) {
                g.add_edge(ids[i], ids[j], rng.gen_range(0.05..1.2))
                    .unwrap();
            }
        }
    }
    let mut env = Environment::builder();
    for d in 0..k {
        let scale = n as f64 / 8.0;
        env = env.device(Device::new(
            format!("dev{d}"),
            ResourceVector::mem_cpu(
                scale * rng.gen_range(40.0..160.0),
                scale * rng.gen_range(50.0..200.0),
            ),
        ));
    }
    let env = env.default_bandwidth_mbps(rng.gen_range(4.0..20.0)).build();
    (g, env)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `hierarchical ≡ exhaustive`, bit-identical cut and cost, on
    /// random graphs within the exact limit, in both inner-solver modes.
    #[test]
    fn hierarchical_matches_exhaustive_within_limit(
        seed in 0u64..5000, n in 6usize..15, k in 2usize..4
    ) {
        let (g, env) = random_instance(seed, n, k);
        let w = Weights::default();
        let p = OsdProblem::new(&g, &env, &w);
        let exact = ExhaustiveOptimal::new().distribute(&p);
        for parallel in [false, true] {
            let mut hier = HierarchicalSolver::new().with_parallel(parallel);
            let got = hier.distribute(&p);
            match (&exact, got) {
                (Ok(e), Ok(h)) => {
                    prop_assert_eq!(e, &h, "cuts differ (parallel={})", parallel);
                    prop_assert_eq!(
                        p.cost(e).to_bits(),
                        p.cost(&h).to_bits(),
                        "costs differ in bits (parallel={})", parallel
                    );
                    let cert = hier.last_certificate().unwrap();
                    prop_assert!(cert.exact);
                    prop_assert_eq!(cert.gap, 0.0);
                }
                (Err(_), Err(_)) => {}
                (e, h) => prop_assert!(
                    false,
                    "feasibility disagrees: exact {:?}, hierarchical {:?}",
                    e.is_ok(), h.is_ok()
                ),
            }
        }
    }

    /// The portfolio never strays from the exhaustive optimum within the
    /// limit — the greedy seed must not leak into the result.
    #[test]
    fn portfolio_matches_exhaustive_within_limit(
        seed in 0u64..5000, n in 6usize..15, k in 2usize..4
    ) {
        let (g, env) = random_instance(seed, n, k);
        let w = Weights::default();
        let p = OsdProblem::new(&g, &env, &w);
        let exact = ExhaustiveOptimal::new().distribute(&p);
        let got = SolverPortfolio::new().distribute(&p);
        match (exact, got) {
            (Ok(e), Ok(q)) => {
                prop_assert_eq!(&e, &q, "cuts differ");
                prop_assert_eq!(p.cost(&e).to_bits(), p.cost(&q).to_bits());
            }
            (Err(_), Err(_)) => {}
            (e, q) => prop_assert!(
                false,
                "feasibility disagrees: exact {:?}, portfolio {:?}",
                e.is_ok(), q.is_ok()
            ),
        }
    }

    /// Beyond the exact limit: the hierarchical placement fits, the
    /// certificate brackets its cost, and serial/parallel coarse solves
    /// agree bit for bit.
    #[test]
    fn oversized_instances_get_certified_placements(
        seed in 0u64..1000, n in 36usize..56, k in 2usize..4
    ) {
        let (g, env) = random_instance(seed, n, k);
        let w = Weights::default();
        let p = OsdProblem::new(&g, &env, &w);
        let free = g.components().filter(|(_, c)| c.pinned_to().is_none()).count();
        let mut serial = HierarchicalSolver::new()
            .with_exact_limit(20)
            .with_coarse_target(8)
            .with_refine_limit(14)
            .with_parallel(false);
        let mut parallel = HierarchicalSolver::new()
            .with_exact_limit(20)
            .with_coarse_target(8)
            .with_refine_limit(14)
            .with_parallel(true);
        match (serial.distribute(&p), parallel.distribute(&p)) {
            (Ok(s), Ok(q)) => {
                prop_assert!(p.fits(&s));
                prop_assert_eq!(&s, &q, "serial/parallel hierarchical cuts differ");
                prop_assert_eq!(p.cost(&s).to_bits(), p.cost(&q).to_bits());
                let cert = serial.last_certificate().unwrap();
                prop_assert_eq!(cert.exact, free <= 20);
                prop_assert!(cert.upper >= cert.lower);
                prop_assert!(
                    (p.cost(&s) - cert.upper).abs() < 1e-12,
                    "certificate upper {} vs actual cost {}", cert.upper, p.cost(&s)
                );
            }
            (Err(_), Err(_)) => {}
            (s, q) => prop_assert!(
                false,
                "feasibility disagrees: serial {:?}, parallel {:?}",
                s.is_ok(), q.is_ok()
            ),
        }
    }
}

/// Directed: a pathological instance whose refinement gains are all zero
/// — identical devices (so every component's end-system cost is the same
/// everywhere) and a coarse optimum with no crossing edges. The
/// certified gap cannot close, yet the refinement loop must terminate
/// without burning rounds on zero-gain splits.
#[test]
fn zero_bound_gap_terminates_without_refinement() {
    let n = 12usize;
    let mut g = ServiceGraph::new();
    let ids: Vec<_> = (0..n)
        .map(|i| {
            g.add_component(
                ServiceComponent::builder(format!("c{i}"))
                    .resources(ResourceVector::mem_cpu(4.0, 4.0))
                    .build(),
            )
        })
        .collect();
    for i in 1..n {
        g.add_edge(ids[i - 1], ids[i], 0.5).unwrap();
    }
    // Two identical devices, each big enough for the whole chain: the
    // coarse optimum co-locates everything (no crossing edges) and
    // min-es equals placed-es for every component, so every cluster's
    // refinement gain is exactly zero.
    let env = Environment::builder()
        .device(Device::new("d0", ResourceVector::mem_cpu(100.0, 100.0)))
        .device(Device::new("d1", ResourceVector::mem_cpu(100.0, 100.0)))
        .default_bandwidth_mbps(50.0)
        .build();
    let w = Weights::default();
    let p = OsdProblem::new(&g, &env, &w);
    // Force the coarse path (exact_limit below n) and leave plenty of
    // refinement headroom: if zero gains did not stop the loop, rounds
    // would grow toward max_rounds.
    let mut hier = HierarchicalSolver::new()
        .with_exact_limit(4)
        .with_coarse_target(4)
        .with_refine_limit(10)
        .with_max_rounds(32)
        // Impossible tolerance: termination must come from the zero
        // bound gap, not from the gap test.
        .with_gap_tolerance(0.0);
    let cut = hier.distribute(&p).unwrap();
    assert!(p.fits(&cut));
    // Everything co-located on the lexicographically first device.
    let assignment = cut.assignment();
    assert!(assignment.iter().all(|&d| d == assignment[0]));
    let cert = hier.last_certificate().unwrap();
    assert_eq!(
        cert.rounds, 0,
        "zero-gain clusters must stop refinement immediately"
    );
    assert!(!cert.exact);
    // The incumbent is in fact optimal here even though the certificate
    // cannot prove it (the lower bound ignores which device hosts what,
    // and all devices are identical — so upper == the true optimum).
    let exact = ExhaustiveOptimal::new().distribute(&p).unwrap();
    assert_eq!(p.cost(&cut).to_bits(), p.cost(&exact).to_bits());
}

/// Directed: refinement actually refines — an instance engineered so the
/// initial coarse abstraction is suboptimal and at least one split is
/// needed to reach a better incumbent.
#[test]
fn refinement_improves_a_coarse_incumbent() {
    // A 12-chain with one cheap link in the middle; devices sized so the
    // optimum splits 6/6 at the cheap link. Aggressive clustering (target
    // 3) welds components across the cheap link into one cluster, making
    // the first coarse solve either infeasible or clearly suboptimal;
    // refinement must unwind it.
    let n = 12usize;
    let mut g = ServiceGraph::new();
    let ids: Vec<_> = (0..n)
        .map(|i| {
            g.add_component(
                ServiceComponent::builder(format!("c{i}"))
                    .resources(ResourceVector::mem_cpu(10.0, 10.0))
                    .build(),
            )
        })
        .collect();
    for i in 1..n {
        let tp = if i == 6 { 0.05 } else { 2.0 + i as f64 * 0.1 };
        g.add_edge(ids[i - 1], ids[i], tp).unwrap();
    }
    let env = Environment::builder()
        .device(Device::new("d0", ResourceVector::mem_cpu(62.0, 62.0)))
        .device(Device::new("d1", ResourceVector::mem_cpu(62.0, 62.0)))
        .default_bandwidth_mbps(40.0)
        .build();
    let w = Weights::default();
    let p = OsdProblem::new(&g, &env, &w);
    let exact = ExhaustiveOptimal::new().distribute(&p).unwrap();
    let mut hier = HierarchicalSolver::new()
        .with_exact_limit(4)
        .with_coarse_target(3)
        .with_refine_limit(12)
        .with_gap_tolerance(1e-9)
        .with_max_rounds(32);
    let cut = hier.distribute(&p).unwrap();
    assert!(p.fits(&cut));
    let cert = hier.last_certificate().unwrap();
    assert!(cert.rounds > 0, "this instance must take refinement rounds");
    // Refinement reaches the true optimum cost (the certificate may not
    // prove it, but the placement itself must match the exact solver's).
    assert_eq!(p.cost(&cut).to_bits(), p.cost(&exact).to_bits());
}

/// A sparse DAG of `nodes` components with CPU demand proportional to
/// memory demand, and three unequal devices holding 1.5× its expected
/// total demand: the shape of the large instances `perfbench`'s
/// `placement` workload routes to the hierarchical solver.
fn large_instance(nodes: usize, rng: &mut StdRng) -> (ServiceGraph, Environment) {
    const CPU_PER_MEM: f64 = 1.15;
    const SHARES: [f64; 3] = [1.0, 0.8, 0.6];
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
    let mem = 1.8 * nodes as f64 * 1.5 / SHARES.iter().sum::<f64>();
    let mut env = Environment::builder();
    for (d, &s) in SHARES.iter().enumerate() {
        env = env.device(Device::new(
            format!("node{d}"),
            ResourceVector::mem_cpu(s * mem, s * mem * CPU_PER_MEM),
        ));
    }
    (g, env.default_bandwidth_mbps(1_000.0).build())
}

/// FNV-1a over everything a hierarchical placement decides: the
/// assignment, the cost bits and the certificate's bracket.
fn placement_digest(assignment: &[usize], cost: f64, cert: &GapCertificate) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for &d in assignment {
        fold(d as u64);
    }
    fold(cost.to_bits());
    fold(cert.lower.to_bits());
    fold(cert.gap.to_bits());
    fold(u64::from(cert.rounds));
    fold(cert.clusters as u64);
    h
}

/// Golden pin of the hierarchical route: three greedy-placeable
/// instances per size, solved by a default [`SolverPortfolio`]. Any
/// change to clustering, coarse solving or refinement that moves one
/// placement, its cost or its certificate moves a digest here.
#[test]
fn hierarchical_route_placements_are_pinned() {
    const SIZES: [usize; 3] = [48, 64, 100];
    const PINNED: [[u64; 3]; 3] = [
        [
            0xaa19_0901_a728_597e,
            0x610e_adbc_e8ce_e79d,
            0x23dd_4fc4_2f41_a621,
        ],
        [
            0xf414_bf4e_17cb_f6d9,
            0xbabb_98d1_7e39_e677,
            0x8e74_916f_6873_caec,
        ],
        [
            0x8c95_5727_776f_cba4,
            0x5a28_fd6d_87b0_e78c,
            0x83d0_b0c1_8dc9_17d2,
        ],
    ];
    let w = Weights::default();
    let mut rng = StdRng::seed_from_u64(0x05d0_0021);
    let mut got = [[0u64; 3]; 3];
    for (digests, nodes) in got.iter_mut().zip(SIZES) {
        let mut filled = 0;
        while filled < digests.len() {
            let (g, env) = large_instance(nodes, &mut rng);
            let p = OsdProblem::new(&g, &env, &w);
            if GreedyHeuristic::paper().distribute(&p).is_err() {
                continue;
            }
            let mut portfolio = SolverPortfolio::new();
            let cut = portfolio.distribute(&p).unwrap();
            assert!(p.fits(&cut));
            let outcome = portfolio.last_outcome().unwrap();
            assert_eq!(outcome.route, PortfolioRoute::Hierarchical);
            let cert = outcome.certificate.unwrap();
            digests[filled] = placement_digest(&cut.assignment(), p.cost(&cut), &cert);
            filled += 1;
        }
    }
    assert_eq!(
        got, PINNED,
        "hierarchical placements moved ({SIZES:?} nodes)"
    );
}
