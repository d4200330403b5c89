//! OSD solver benchmarks: the branch-and-bound suffix-bound ablation and
//! serial-vs-parallel comparison on Table 1-sized instances, the
//! hierarchical solver on large graphs beyond the exact limit, and the
//! greedy heuristic that seeds every portfolio solve.
//!
//! The same measurements, averaged over more instances and written to
//! `BENCH_osd.json`, are produced by
//! `cargo run --release -p ubiqos-bench --bin repro -- osd`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ubiqos_bench::osd::{large_environment, large_graph};
use ubiqos_distribution::{
    ExhaustiveOptimal, GreedyHeuristic, HierarchicalSolver, OsdProblem, ServiceDistributor,
};
use ubiqos_model::Weights;
use ubiqos_sim::GraphGenConfig;

fn instance(nodes: usize, seed: u64) -> ubiqos_graph::ServiceGraph {
    let gen = GraphGenConfig {
        nodes: nodes..=nodes,
        ..GraphGenConfig::table1()
    };
    gen.generate(&mut StdRng::seed_from_u64(seed))
}

fn bench_bound_ablation(c: &mut Criterion) {
    let env = ubiqos_sim::table1::table1_environment();
    let weights = Weights::default();
    let mut group = c.benchmark_group("osd/bound-ablation");
    group.sample_size(10);
    for nodes in [14usize, 18, 20] {
        let graph = instance(nodes, 0x05d0 + nodes as u64);
        group.bench_with_input(
            BenchmarkId::new("no-suffix-bound", nodes),
            &graph,
            |b, graph| {
                b.iter(|| {
                    let p = OsdProblem::new(graph, &env, &weights);
                    ExhaustiveOptimal::new()
                        .with_parallel(false)
                        .with_suffix_bound(false)
                        .distribute(&p)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("suffix-bound", nodes),
            &graph,
            |b, graph| {
                b.iter(|| {
                    let p = OsdProblem::new(graph, &env, &weights);
                    ExhaustiveOptimal::new().with_parallel(false).distribute(&p)
                })
            },
        );
    }
    group.finish();
}

fn bench_serial_vs_parallel(c: &mut Criterion) {
    let env = ubiqos_sim::table1::table1_environment();
    let weights = Weights::default();
    let graph = instance(20, 0x05d1);
    let mut group = c.benchmark_group("osd/fan-out-20-nodes");
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| {
            let p = OsdProblem::new(&graph, &env, &weights);
            ExhaustiveOptimal::new().with_parallel(false).distribute(&p)
        })
    });
    group.bench_function("parallel", |b| {
        b.iter(|| {
            let p = OsdProblem::new(&graph, &env, &weights);
            ExhaustiveOptimal::new().with_parallel(true).distribute(&p)
        })
    });
    group.finish();
}

/// Cold hierarchical solves (clustering, coarse B&B, refinement) on the
/// `repro osd` large-graph instances.
fn bench_hierarchical(c: &mut Criterion) {
    let weights = Weights::default();
    let mut group = c.benchmark_group("osd/hierarchical");
    group.sample_size(10);
    for nodes in [48usize, 64, 100] {
        let graph = large_graph(nodes, &mut StdRng::seed_from_u64(0x1a36 ^ nodes as u64));
        let env = large_environment(nodes);
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &graph, |b, graph| {
            b.iter(|| {
                let p = OsdProblem::new(graph, &env, &weights);
                HierarchicalSolver::new().distribute(&p)
            })
        });
    }
    group.finish();
}

/// The paper's greedy heuristic on the `repro osd` large-graph
/// instances, from a Table 1-sized graph up to the 100-node rung.
fn bench_greedy(c: &mut Criterion) {
    let weights = Weights::default();
    let mut group = c.benchmark_group("osd/greedy");
    group.sample_size(10);
    for nodes in [20usize, 48, 64, 100] {
        let graph = large_graph(nodes, &mut StdRng::seed_from_u64(0x1a36 ^ nodes as u64));
        let env = large_environment(nodes);
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &graph, |b, graph| {
            b.iter(|| {
                let p = OsdProblem::new(graph, &env, &weights);
                GreedyHeuristic::paper().distribute(&p)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_bound_ablation,
    bench_serial_vs_parallel,
    bench_hierarchical,
    bench_greedy
);
criterion_main!(benches);
