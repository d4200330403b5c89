//! Cost aggregation (Definition 3.5).

use crate::environment::Environment;
use ubiqos_graph::{ComponentId, Cut, ServiceGraph};
use ubiqos_model::{Weights, EPSILON};

/// Computes the cost aggregation `CA(Φ)` of a cut (Definition 3.5):
///
/// ```text
/// CA(Φ) = Σ_j Σ_i  w_i · r_i^j / ra_i^j   +   Σ_{i≠j}  w_{m+1} · T_{i,j} / b_{i,j}
/// ```
///
/// where `r_i^j` is part `j`'s summed demand for resource `i`, `ra_i^j`
/// device `j`'s availability, `T_{i,j}` the throughput crossing from part
/// `i` to part `j`, and `b_{i,j}` the available bandwidth. Each normalized
/// term is "the cost the user pays for using a specific type of resource":
/// scarcer (smaller `ra`) and more important (larger `w`) resources cost
/// more.
///
/// Returns `f64::INFINITY` when a part demands a resource its device has
/// none of, or when throughput crosses a zero-bandwidth link — such cuts
/// are unusable at any cost. (Note that a *finite* CA does not imply the
/// cut fits: fit-into is checked separately by
/// [`crate::OsdProblem::fits`].)
///
/// # Panics
///
/// Panics if the cut's part count exceeds the environment's device count
/// or component resource dimensions are inconsistent (construction bugs,
/// not runtime conditions).
pub fn cost_aggregation(
    graph: &ServiceGraph,
    cut: &Cut,
    env: &Environment,
    weights: &Weights,
) -> f64 {
    assert!(
        cut.parts() <= env.device_count(),
        "cut has more parts than the environment has devices"
    );
    let mut loads = Loads::default();
    let consistent = loads.fill(graph, cut);
    assert!(consistent, "consistent resource dimensions");
    let mut total = 0.0;

    // End-system term.
    for part in 0..cut.parts() {
        let used = loads.part(part);
        let avail = env.devices()[part].availability();
        for (i, &w) in weights.resource().iter().enumerate() {
            let r = used.get(i).copied().unwrap_or(0.0);
            if r <= EPSILON {
                continue;
            }
            let ra = avail.get(i).unwrap_or(0.0);
            if ra <= EPSILON {
                return f64::INFINITY;
            }
            total += w * r / ra;
        }
    }

    // Network term, over ordered pairs i != j.
    let w_net = weights.network();
    for i in 0..cut.parts() {
        for j in 0..cut.parts() {
            let crossing = loads.throughput(i, j);
            if i == j || crossing <= EPSILON {
                continue;
            }
            let b = env.bandwidth().get(i, j);
            if b <= EPSILON {
                return f64::INFINITY;
            }
            total += w_net * crossing / b;
        }
    }
    total
}

/// What a cut loads onto its parts, gathered in one pass over the
/// components and one over the edges: each part's summed resource
/// demand (a flat `parts × dim` array) and the directed throughput
/// crossing from part `i` to part `j` (a flat `parts × parts` array).
/// [`cost_aggregation`] and [`crate::OsdProblem::fits`] both read it; a
/// caller that keeps one `Loads` across cuts allocates for none of them.
///
/// Sums accumulate in component-id order and throughputs in edge order,
/// exactly as [`Cut::part_resource_sum`] and
/// [`Cut::inter_part_throughput`] do. Starting a sum from `0.0` rather
/// than from its first member can only turn a `-0.0` into `0.0`, which
/// every `≤ EPSILON` test reads the same.
#[derive(Debug, Clone, Default)]
pub(crate) struct Loads {
    dim: usize,
    parts: usize,
    sums: Vec<f64>,
    throughput: Vec<f64>,
}

impl Loads {
    /// Fills the loads of `cut`, reusing the buffers. The dimension is
    /// the first component's (2 for an empty graph, as
    /// [`Cut::part_resource_sum`] assumes); returns `false`, with the
    /// loads unusable, when some component's dimension differs.
    ///
    /// # Panics
    ///
    /// Panics when `cut` assigns a component the graph does not have, or
    /// an edge touches a component the cut does not assign.
    pub(crate) fn fill(&mut self, graph: &ServiceGraph, cut: &Cut) -> bool {
        let dim = graph
            .components()
            .next()
            .map_or(2, |(_, c)| c.resources().dim());
        let k = cut.parts();
        self.dim = dim;
        self.parts = k;
        self.sums.clear();
        self.sums.resize(k * dim, 0.0);
        self.throughput.clear();
        self.throughput.resize(k * k, 0.0);
        for c in 0..cut.len() {
            let id = ComponentId::from_index(c);
            let r = graph
                .component(id)
                .expect("cut assignment indexes valid components")
                .resources()
                .amounts();
            if r.len() != dim {
                return false;
            }
            let part = cut.part_of(id).expect("component is assigned");
            for (slot, &x) in self.sums[part * dim..(part + 1) * dim].iter_mut().zip(r) {
                *slot += x;
            }
        }
        for e in graph.edges() {
            let i = cut.part_of(e.from).expect("edge source is assigned");
            let j = cut.part_of(e.to).expect("edge target is assigned");
            if i != j {
                self.throughput[i * k + j] += e.throughput;
            }
        }
        true
    }

    /// Part `p`'s summed resource demand.
    pub(crate) fn part(&self, p: usize) -> &[f64] {
        &self.sums[p * self.dim..(p + 1) * self.dim]
    }

    /// The throughput crossing from part `i` to part `j` (zero when
    /// `i == j`).
    pub(crate) fn throughput(&self, i: usize, j: usize) -> f64 {
        self.throughput[i * self.parts + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use ubiqos_graph::ServiceComponent;
    use ubiqos_model::ResourceVector;

    fn two_node_graph(mem: f64, cpu: f64, tp: f64) -> ServiceGraph {
        let mut g = ServiceGraph::new();
        let a = g.add_component(
            ServiceComponent::builder("a")
                .resources(ResourceVector::mem_cpu(mem, cpu))
                .build(),
        );
        let b = g.add_component(
            ServiceComponent::builder("b")
                .resources(ResourceVector::mem_cpu(mem, cpu))
                .build(),
        );
        g.add_edge(a, b, tp).unwrap();
        g
    }

    fn env(ra0: (f64, f64), ra1: (f64, f64), bw: f64) -> Environment {
        Environment::builder()
            .device(Device::new("d0", ResourceVector::mem_cpu(ra0.0, ra0.1)))
            .device(Device::new("d1", ResourceVector::mem_cpu(ra1.0, ra1.1)))
            .default_bandwidth_mbps(bw)
            .build()
    }

    #[test]
    fn hand_computed_cost() {
        // Each node needs [10, 20]; devices have [100, 100] and [50, 50];
        // edge throughput 5 over a 10 Mbps link; uniform weights 1/3.
        let g = two_node_graph(10.0, 20.0, 5.0);
        let e = env((100.0, 100.0), (50.0, 50.0), 10.0);
        let w = Weights::default();
        let split = Cut::from_assignment(&g, vec![0, 1], 2).unwrap();
        let third = 1.0 / 3.0;
        let expected = third * (10.0 / 100.0) // mem on d0
            + third * (20.0 / 100.0)          // cpu on d0
            + third * (10.0 / 50.0)           // mem on d1
            + third * (20.0 / 50.0)           // cpu on d1
            + third * (5.0 / 10.0); //           network
        let got = cost_aggregation(&g, &split, &e, &w);
        assert!(
            (got - expected).abs() < 1e-12,
            "got {got}, expected {expected}"
        );
    }

    #[test]
    fn colocated_cut_pays_no_network_cost() {
        let g = two_node_graph(10.0, 20.0, 5.0);
        let e = env((100.0, 100.0), (50.0, 50.0), 10.0);
        let w = Weights::default();
        let together = Cut::from_assignment(&g, vec![0, 0], 2).unwrap();
        let split = Cut::from_assignment(&g, vec![0, 1], 2).unwrap();
        let ca_together = cost_aggregation(&g, &together, &e, &w);
        let ca_split = cost_aggregation(&g, &split, &e, &w);
        // Same total resources on a bigger device, no network term.
        assert!(ca_together < ca_split);
    }

    #[test]
    fn scarcity_raises_cost() {
        let g = two_node_graph(10.0, 10.0, 0.0);
        let rich = env((1000.0, 1000.0), (1000.0, 1000.0), 10.0);
        let poor = env((20.0, 20.0), (20.0, 20.0), 10.0);
        let w = Weights::default();
        let cut = Cut::from_assignment(&g, vec![0, 1], 2).unwrap();
        assert!(
            cost_aggregation(&g, &cut, &poor, &w) > cost_aggregation(&g, &cut, &rich, &w),
            "the scarcer the resource, the larger the cost"
        );
    }

    #[test]
    fn zero_availability_with_demand_is_infinite() {
        let g = two_node_graph(10.0, 10.0, 1.0);
        let e = env((0.0, 100.0), (100.0, 100.0), 10.0);
        let cut = Cut::from_assignment(&g, vec![0, 1], 2).unwrap();
        assert_eq!(
            cost_aggregation(&g, &cut, &e, &Weights::default()),
            f64::INFINITY
        );
    }

    #[test]
    fn zero_bandwidth_with_crossing_is_infinite() {
        let g = two_node_graph(1.0, 1.0, 1.0);
        let e = env((100.0, 100.0), (100.0, 100.0), 0.0);
        let split = Cut::from_assignment(&g, vec![0, 1], 2).unwrap();
        assert_eq!(
            cost_aggregation(&g, &split, &e, &Weights::default()),
            f64::INFINITY
        );
        // But co-located placement over the same dead link is fine.
        let together = Cut::from_assignment(&g, vec![1, 1], 2).unwrap();
        assert!(cost_aggregation(&g, &together, &e, &Weights::default()).is_finite());
    }

    #[test]
    fn zero_demand_costs_zero() {
        let mut g = ServiceGraph::new();
        g.add_component(ServiceComponent::builder("idle").build());
        let e = env((100.0, 100.0), (100.0, 100.0), 10.0);
        let cut = Cut::from_assignment(&g, vec![0], 2).unwrap();
        assert_eq!(cost_aggregation(&g, &cut, &e, &Weights::default()), 0.0);
    }

    #[test]
    fn network_weight_controls_multiway_cut_special_case() {
        // Theorem 1's special case: w_i = 0 for end-system resources,
        // w_{m+1} = 1, all bandwidths 1 => CA equals the directed
        // multiway-cut objective.
        let g = two_node_graph(10.0, 10.0, 7.0);
        let e = env((1e9, 1e9), (1e9, 1e9), 1.0);
        let w = Weights::new(vec![0.0, 0.0], 1.0).unwrap();
        let split = Cut::from_assignment(&g, vec![0, 1], 2).unwrap();
        let got = cost_aggregation(&g, &split, &e, &w);
        assert!(
            (got - 7.0).abs() < 1e-12,
            "CA reduces to the cut weight: {got}"
        );
    }
}
