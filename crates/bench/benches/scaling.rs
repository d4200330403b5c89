//! Complexity and ablation benchmarks backing the paper's analytical
//! claims:
//!
//! * the OC algorithm is O(V + E) (Section 3.2) — timed on growing
//!   consistent graphs, where near-linear growth is expected;
//! * the distribution heuristic is polynomial (Section 3.3) — timed on
//!   growing graphs over the Figure 5 environment;
//! * ablations: how much the heuristic's device re-sorting and cluster
//!   adjacency contribute to placement *quality* (printed as a cost /
//!   success comparison) and what they cost in time;
//! * the DES queue alone: filling and draining a campaign-sized
//!   arrival/departure schedule, the fixed cost every campaign event
//!   pays before any configuration work.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ubiqos_composition::{oc, CorrectionPolicy, TranscoderCatalog};
use ubiqos_distribution::{GreedyHeuristic, OsdProblem, ServiceDistributor};
use ubiqos_graph::{ComponentRole, ServiceComponent, ServiceGraph};
use ubiqos_model::{QosDimension as D, QosValue, QosVector, Weights};
use ubiqos_sim::{EventQueue, GraphGenConfig, WorkloadConfig};

/// Builds a consistent-but-adjustable chain-of-width-2 graph of `n`
/// components for OC scaling runs: every node forwards WAV at a tunable
/// rate, and the sink imposes a narrower range, so OC must cascade an
/// adjustment through the whole depth.
fn oc_graph(n: usize) -> ServiceGraph {
    let mut g = ServiceGraph::new();
    let mk = |i: usize| {
        ServiceComponent::builder(format!("n{i}"))
            .role(ComponentRole::Processor)
            .qos_in(
                QosVector::new()
                    .with(D::Format, QosValue::token("WAV"))
                    .with(D::FrameRate, QosValue::range(1.0, 100.0)),
            )
            .qos_out(
                QosVector::new()
                    .with(D::Format, QosValue::token("WAV"))
                    .with(D::FrameRate, QosValue::exact(90.0)),
            )
            .capability(D::FrameRate, QosValue::range(1.0, 100.0))
            .passthrough(D::FrameRate)
            .build()
    };
    let ids: Vec<_> = (0..n).map(|i| g.add_component(mk(i))).collect();
    for i in 1..n {
        g.add_edge(ids[i - 1], ids[i], 1.0).unwrap();
        if i + 1 < n && i % 2 == 0 {
            g.add_edge(ids[i - 1], ids[i + 1], 0.5).unwrap();
        }
    }
    // The sink takes at most 30 fps: the adjustment cascades upstream.
    g.component_mut(ids[n - 1]).unwrap().set_qos_in(
        QosVector::new()
            .with(D::Format, QosValue::token("WAV"))
            .with(D::FrameRate, QosValue::range(1.0, 30.0)),
    );
    g
}

fn bench_oc_scaling(c: &mut Criterion) {
    let catalog = TranscoderCatalog::standard();
    let mut group = c.benchmark_group("scaling/oc");
    group.sample_size(20);
    for n in [50usize, 100, 200, 400] {
        let graph = oc_graph(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &graph, |b, graph| {
            b.iter(|| {
                let mut g = graph.clone();
                oc::ordered_coordination(&mut g, &catalog, CorrectionPolicy::all())
                    .expect("correctable")
            })
        });
    }
    group.finish();
}

fn bench_heuristic_scaling(c: &mut Criterion) {
    let env = ubiqos_sim::scenario::fig5_environment();
    let weights = Weights::default();
    let mut group = c.benchmark_group("scaling/heuristic");
    group.sample_size(20);
    for n in [25usize, 50, 100] {
        let gen = GraphGenConfig {
            nodes: n..=n,
            // Light components so every size fits the trio.
            memory: 0.1..=0.8,
            cpu: 0.1..=0.9,
            ..GraphGenConfig::fig5()
        };
        let graph = gen.generate(&mut StdRng::seed_from_u64(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &graph, |b, graph| {
            b.iter(|| {
                let problem = OsdProblem::new(graph, &env, &weights);
                GreedyHeuristic::paper().distribute(&problem).expect("fits")
            })
        });
    }
    group.finish();
}

fn print_ablation_quality() {
    println!("\n============ Heuristic ablation (placement quality) ============");
    let env = ubiqos_sim::table1::table1_environment();
    let mut rng = StdRng::seed_from_u64(0xab1a);
    let gen = GraphGenConfig::table1();
    let weights = Weights::default();
    type Variant = (&'static str, fn() -> GreedyHeuristic);
    let variants: Vec<Variant> = vec![
        ("heuristic", GreedyHeuristic::paper),
        ("heuristic-unsorted", GreedyHeuristic::without_device_resort),
        (
            "heuristic-nomerge",
            GreedyHeuristic::without_cluster_adjacency,
        ),
    ];
    let mut sums = vec![0.0; variants.len()];
    let mut fails = vec![0usize; variants.len()];
    let trials = 60;
    for _ in 0..trials {
        let graph = gen.generate(&mut rng);
        let problem = OsdProblem::new(&graph, &env, &weights);
        for (i, (_, make)) in variants.iter().enumerate() {
            match make().distribute(&problem) {
                Ok(cut) => sums[i] += problem.cost(&cut),
                Err(_) => fails[i] += 1,
            }
        }
    }
    println!(
        "{:<20} | {:>14} | {:>9}",
        "variant", "mean CA (fit)", "failures"
    );
    for (i, (name, _)) in variants.iter().enumerate() {
        let ok = trials - fails[i];
        println!(
            "{:<20} | {:>14.4} | {:>6}/{trials}",
            name,
            if ok > 0 {
                sums[i] / ok as f64
            } else {
                f64::NAN
            },
            fails[i]
        );
    }
    println!(
        "(lower CA is better. On *two-device* instances the fixed-order variant can win:\n\
         first-fit on the big PC is hard to beat when the optimum is PC-heavy. In the\n\
         three-device Figure 5 environment the full heuristic admits the most requests —\n\
         see the fig5_success bench, where `fixed-planned` isolates placement quality.)\n"
    );
}

fn bench_ablations(c: &mut Criterion) {
    const GROUP: &str = "scaling/ablation-18-nodes";
    if !c.selects(GROUP) {
        return;
    }
    print_ablation_quality();
    let env = ubiqos_sim::table1::table1_environment();
    let weights = Weights::default();
    let gen = GraphGenConfig {
        nodes: 18..=18,
        ..GraphGenConfig::table1()
    };
    let graph = gen.generate(&mut StdRng::seed_from_u64(22));
    let mut group = c.benchmark_group(GROUP);
    group.sample_size(30);
    group.bench_function("paper", |b| {
        b.iter(|| {
            let problem = OsdProblem::new(&graph, &env, &weights);
            GreedyHeuristic::paper().distribute(&problem).expect("fits")
        })
    });
    group.bench_function("unsorted", |b| {
        b.iter(|| {
            let problem = OsdProblem::new(&graph, &env, &weights);
            GreedyHeuristic::without_device_resort()
                .distribute(&problem)
                .expect("fits")
        })
    });
    group.bench_function("nomerge", |b| {
        b.iter(|| {
            let problem = OsdProblem::new(&graph, &env, &weights);
            GreedyHeuristic::without_cluster_adjacency()
                .distribute(&problem)
                .expect("fits")
        })
    });
    group.finish();
}

/// Ablation of the OC examination order: the paper's reverse order
/// converges in one sweep; the forward order needs up to depth-many.
fn bench_order_ablation(c: &mut Criterion) {
    use ubiqos_composition::{coordination_with_order, CoordinationOrder};
    const GROUP: &str = "scaling/oc-order-200-nodes";
    if !c.selects(GROUP) {
        return;
    }
    let catalog = TranscoderCatalog::standard();
    let graph = oc_graph(200);
    {
        let mut g = graph.clone();
        let rev = coordination_with_order(
            &mut g,
            &catalog,
            CorrectionPolicy::all(),
            CoordinationOrder::Reverse,
        )
        .expect("correctable");
        let mut g = graph.clone();
        let fwd = coordination_with_order(
            &mut g,
            &catalog,
            CorrectionPolicy::all(),
            CoordinationOrder::Forward,
        )
        .expect("correctable");
        println!(
            "\n============ OC order ablation (200-node graph) ============\n\
             reverse (paper): {} sweep(s), {} checks\n\
             forward (ablation): {} sweep(s), {} checks\n",
            rev.passes, rev.checks, fwd.passes, fwd.checks
        );
    }
    let mut group = c.benchmark_group(GROUP);
    group.sample_size(20);
    group.bench_function("reverse", |b| {
        b.iter(|| {
            let mut g = graph.clone();
            coordination_with_order(
                &mut g,
                &catalog,
                CorrectionPolicy::all(),
                CoordinationOrder::Reverse,
            )
            .expect("correctable")
        })
    });
    group.bench_function("forward", |b| {
        b.iter(|| {
            let mut g = graph.clone();
            coordination_with_order(
                &mut g,
                &catalog,
                CorrectionPolicy::all(),
                CoordinationOrder::Forward,
            )
            .expect("correctable")
        })
    });
    group.finish();
}

/// A campaign event as the DES queue carries it (same size as the
/// runtime's: a tag and a request index).
#[derive(Debug, Clone, Copy)]
enum DesEvent {
    Arrival(usize),
    Departure(usize),
}

/// The DES layer on its own: 100 000 arrival/departure pairs shaped
/// like the overload campaign's (arrivals packed into two hours, each
/// with its departure), all scheduled before the first pop and then
/// drained in time order.
fn bench_des(c: &mut Criterion) {
    let trace = WorkloadConfig::overload(100_000, 2.0).generate(&mut StdRng::seed_from_u64(1));
    let mut group = c.benchmark_group("des");
    group.sample_size(20);
    group.bench_function("fill_drain", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for (i, r) in trace.iter().enumerate() {
                q.schedule(r.arrival_h, DesEvent::Arrival(i));
                q.schedule(r.departure_h(), DesEvent::Departure(i));
            }
            let mut drained = 0usize;
            while let Some((_, e)) = q.pop() {
                drained += match e {
                    DesEvent::Arrival(i) | DesEvent::Departure(i) => i & 1,
                };
            }
            drained
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_oc_scaling,
    bench_heuristic_scaling,
    bench_ablations,
    bench_order_ablation,
    bench_des
);
criterion_main!(benches);
