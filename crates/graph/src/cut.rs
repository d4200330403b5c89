//! k-cuts of a service graph (Definition 3.3) and the aggregate quantities
//! the distribution tier derives from them.

use crate::error::GraphError;
use crate::graph::{Edge, ServiceGraph};
use crate::ids::{ComponentId, DeviceId};
use serde::{Deserialize, Serialize};
use ubiqos_model::{ModelError, ResourceVector};

/// A k-cut: a partitioning of the graph's components into `k` parts
/// (Definition 3.3), where part `j` corresponds to device `j`.
///
/// An edge *belongs to the cut* when its endpoints lie in different parts.
/// The distribution tier evaluates a cut against concrete devices: part
/// resource sums against availabilities (Definition 3.4) and inter-part
/// throughput sums `T_{i,j}` against available bandwidths, then scores it
/// with cost aggregation (Definition 3.5).
///
/// # Example
///
/// ```
/// use ubiqos_graph::{Cut, ServiceComponent, ServiceGraph};
/// let mut g = ServiceGraph::new();
/// let a = g.add_component(ServiceComponent::builder("a").build());
/// let b = g.add_component(ServiceComponent::builder("b").build());
/// g.add_edge(a, b, 3.0)?;
/// let cut = Cut::from_assignment(&g, vec![0, 1], 2).unwrap();
/// assert_eq!(cut.cut_edges(&g).len(), 1);
/// # Ok::<(), ubiqos_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Cut {
    /// `assignment[c] = j` places component `c` on device/part `j`.
    assignment: Vec<u32>,
    /// The number of parts `k`.
    parts: u32,
}

impl Cut {
    /// Builds a cut from a per-component part assignment.
    ///
    /// `assignment.len()` must equal the graph's component count and every
    /// entry must be `< parts`. Parts are allowed to be empty (a placement
    /// that leaves a device idle is still a valid placement); use
    /// [`Cut::is_proper`] to test Definition 3.3's non-emptiness.
    pub fn from_assignment(
        graph: &ServiceGraph,
        assignment: Vec<usize>,
        parts: usize,
    ) -> Option<Cut> {
        Cut::from_parts(graph, assignment, parts)
    }

    /// [`Cut::from_assignment`] from any sequence of part indices, so a
    /// caller holding the assignment in a reusable buffer can pass an
    /// iterator over it: the cut's own vector is the only allocation.
    pub fn from_parts(
        graph: &ServiceGraph,
        assignment: impl IntoIterator<Item = usize>,
        parts: usize,
    ) -> Option<Cut> {
        if parts == 0 {
            return None;
        }
        let n = graph.component_count();
        let mut out = Vec::with_capacity(n);
        for p in assignment {
            if p >= parts || out.len() == n {
                return None;
            }
            out.push(p as u32);
        }
        if out.len() != n {
            return None;
        }
        Some(Cut {
            assignment: out,
            parts: parts as u32,
        })
    }

    /// The number of parts `k`.
    pub fn parts(&self) -> usize {
        self.parts as usize
    }

    /// The number of assigned components.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Whether the cut covers no components.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// The part (device index) a component is assigned to.
    pub fn part_of(&self, component: ComponentId) -> Option<usize> {
        self.assignment.get(component.index()).map(|&p| p as usize)
    }

    /// The device a component is assigned to.
    pub fn device_of(&self, component: ComponentId) -> Option<DeviceId> {
        self.part_of(component).map(DeviceId::from_index)
    }

    /// The per-component assignment as raw part indices.
    pub fn assignment(&self) -> Vec<usize> {
        self.assignment.iter().map(|&p| p as usize).collect()
    }

    /// Components assigned to part `j`.
    pub fn part_members(&self, part: usize) -> Vec<ComponentId> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p as usize == part)
            .map(|(i, _)| ComponentId::from_index(i))
            .collect()
    }

    /// Definition 3.3 strictness: every part is non-empty.
    pub fn is_proper(&self) -> bool {
        let mut seen = vec![false; self.parts()];
        for &p in &self.assignment {
            seen[p as usize] = true;
        }
        seen.iter().all(|&s| s)
    }

    /// The edges belonging to the cut (endpoints in different parts).
    pub fn cut_edges(&self, graph: &ServiceGraph) -> Vec<Edge> {
        graph
            .edges()
            .filter(|e| self.assignment[e.from.index()] != self.assignment[e.to.index()])
            .collect()
    }

    /// The total throughput crossing the cut (the classical multiway-cut
    /// objective; Definition 3.5's network term before per-link
    /// normalization).
    pub fn cut_throughput(&self, graph: &ServiceGraph) -> f64 {
        // `+ 0.0` normalizes the empty sum's negative zero.
        self.cut_edges(graph)
            .iter()
            .map(|e| e.throughput)
            .sum::<f64>()
            + 0.0
    }

    /// Sums the resource requirement vectors of part `j`'s components
    /// (the left side of Definition 3.4's first condition).
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError::DimensionMismatch`] when components carry
    /// vectors of different dimension.
    pub fn part_resource_sum(
        &self,
        graph: &ServiceGraph,
        part: usize,
    ) -> Result<ResourceVector, ModelError> {
        let mut acc: Option<ResourceVector> = None;
        for id in self.part_members(part) {
            let r = graph
                .component(id)
                .expect("cut assignment indexes valid components")
                .resources();
            acc = Some(match acc {
                None => r.clone(),
                Some(a) => a.checked_add(r)?,
            });
        }
        Ok(acc.unwrap_or_else(|| ResourceVector::zero(self.default_dim(graph))))
    }

    /// The inter-part throughput matrix `T`, where `T[i][j]` sums
    /// `c(u, v)` over edges with `u ∈ V_i, v ∈ V_j`, `i ≠ j`
    /// (Definition 3.5). Diagonal entries are zero.
    pub fn inter_part_throughput(&self, graph: &ServiceGraph) -> Vec<Vec<f64>> {
        let k = self.parts();
        let mut t = vec![vec![0.0; k]; k];
        for e in graph.edges() {
            let i = self.assignment[e.from.index()] as usize;
            let j = self.assignment[e.to.index()] as usize;
            if i != j {
                t[i][j] += e.throughput;
            }
        }
        t
    }

    /// Validates that the cut matches the graph and respects every
    /// component pin.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownComponent`] when the cut's length does
    /// not match the graph (the offending id is the first out-of-range
    /// one).
    pub fn respects_pins(&self, graph: &ServiceGraph) -> Result<bool, GraphError> {
        if self.assignment.len() != graph.component_count() {
            return Err(GraphError::UnknownComponent(ComponentId::from_index(
                self.assignment.len().min(graph.component_count()),
            )));
        }
        for (id, c) in graph.components() {
            if let Some(pin) = c.pinned_to() {
                if self.part_of(id) != Some(pin.index()) {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    fn default_dim(&self, graph: &ServiceGraph) -> usize {
        graph
            .components()
            .next()
            .map_or(2, |(_, c)| c.resources().dim())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{ComponentRole, ServiceComponent};

    fn node(name: &str, mem: f64, cpu: f64) -> ServiceComponent {
        ServiceComponent::builder(name)
            .role(ComponentRole::Processor)
            .resources(ResourceVector::mem_cpu(mem, cpu))
            .build()
    }

    /// The paper's Figure 2 skeleton: 9 nodes, 3-cut.
    fn figure2() -> (ServiceGraph, Vec<ComponentId>) {
        let mut g = ServiceGraph::new();
        let n: Vec<ComponentId> = (1..=9)
            .map(|i| g.add_component(node(&format!("{i}"), 10.0, 5.0)))
            .collect();
        let idx = |i: usize| n[i - 1];
        for (u, v) in [
            (1, 2),
            (1, 8),
            (5, 2),
            (5, 8),
            (5, 7),
            (9, 8),
            (2, 7),
            (8, 7),
            (8, 6),
            (3, 1),
            (4, 5),
            (9, 4),
        ] {
            g.add_edge(idx(u), idx(v), 1.0).unwrap();
        }
        (g, n)
    }

    #[test]
    fn figure2_three_cut_edges() {
        let (g, n) = figure2();
        // Partition: V1 = {1,3,4,5,9}, V2 = {2,8}, V3 = {6,7} — the
        // partition that yields exactly the cut set the paper lists.
        let part = |i: usize| match i {
            1 | 3 | 4 | 5 | 9 => 0,
            2 | 8 => 1,
            _ => 2,
        };
        let assignment: Vec<usize> = (1..=9).map(part).collect();
        let cut = Cut::from_assignment(&g, assignment, 3).unwrap();
        assert!(cut.is_proper());
        // The paper lists the cut edges: e1,2 e1,8 e5,2 e5,8 e5,7 e9,8 e2,7 e8,7 e8,6.
        let cut_edges = cut.cut_edges(&g);
        assert_eq!(cut_edges.len(), 9);
        let has = |u: usize, v: usize| {
            cut_edges
                .iter()
                .any(|e| e.from == n[u - 1] && e.to == n[v - 1])
        };
        for (u, v) in [
            (1, 2),
            (1, 8),
            (5, 2),
            (5, 8),
            (5, 7),
            (9, 8),
            (2, 7),
            (8, 7),
            (8, 6),
        ] {
            assert!(has(u, v), "edge {u}->{v} should belong to the 3-cut");
        }
        assert!(!has(3, 1), "intra-part edge is not in the cut");
        assert!((cut.cut_throughput(&g) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn from_assignment_validation() {
        let (g, _) = figure2();
        assert!(Cut::from_assignment(&g, vec![0; 9], 1).is_some());
        assert!(
            Cut::from_assignment(&g, vec![0; 8], 2).is_none(),
            "wrong length"
        );
        assert!(
            Cut::from_assignment(&g, vec![2; 9], 2).is_none(),
            "part out of range"
        );
        assert!(
            Cut::from_assignment(&g, vec![0; 9], 0).is_none(),
            "zero parts"
        );
    }

    #[test]
    fn proper_vs_improper() {
        let (g, _) = figure2();
        let all_on_one = Cut::from_assignment(&g, vec![0; 9], 3).unwrap();
        assert!(!all_on_one.is_proper());
        assert!(all_on_one.cut_edges(&g).is_empty());
        assert_eq!(all_on_one.part_members(1), Vec::<ComponentId>::new());
    }

    #[test]
    fn part_resource_sums() {
        let (g, _) = figure2();
        let cut = Cut::from_assignment(&g, vec![0, 0, 0, 1, 1, 1, 2, 2, 2], 3).unwrap();
        let s0 = cut.part_resource_sum(&g, 0).unwrap();
        assert_eq!(s0.amounts(), &[30.0, 15.0]);
        let s2 = cut.part_resource_sum(&g, 2).unwrap();
        assert_eq!(s2.amounts(), &[30.0, 15.0]);
    }

    #[test]
    fn empty_part_sums_to_zero() {
        let (g, _) = figure2();
        let cut = Cut::from_assignment(&g, vec![0; 9], 2).unwrap();
        let s1 = cut.part_resource_sum(&g, 1).unwrap();
        assert!(s1.is_zero());
        assert_eq!(s1.dim(), 2);
    }

    #[test]
    fn inter_part_throughput_matrix() {
        let mut g = ServiceGraph::new();
        let a = g.add_component(node("a", 1.0, 1.0));
        let b = g.add_component(node("b", 1.0, 1.0));
        let c = g.add_component(node("c", 1.0, 1.0));
        g.add_edge(a, b, 2.0).unwrap();
        g.add_edge(a, c, 3.0).unwrap();
        g.add_edge(b, c, 5.0).unwrap();
        let cut = Cut::from_assignment(&g, vec![0, 1, 1], 2).unwrap();
        let t = cut.inter_part_throughput(&g);
        assert_eq!(t[0][1], 5.0, "a->b (2) + a->c (3)");
        assert_eq!(t[1][0], 0.0, "direction matters");
        assert_eq!(t[0][0], 0.0);
        assert_eq!(t[1][1], 0.0, "b->c is intra-part");
    }

    #[test]
    fn pin_checking() {
        let mut g = ServiceGraph::new();
        let a = g.add_component(node("a", 1.0, 1.0));
        let b = g.add_component(
            ServiceComponent::builder("display")
                .pinned_to(DeviceId::from_index(1))
                .build(),
        );
        g.add_edge(a, b, 1.0).unwrap();
        let good = Cut::from_assignment(&g, vec![0, 1], 2).unwrap();
        let bad = Cut::from_assignment(&g, vec![0, 0], 2).unwrap();
        assert!(good.respects_pins(&g).unwrap());
        assert!(!bad.respects_pins(&g).unwrap());
    }

    #[test]
    fn pin_check_rejects_mismatched_cut() {
        let (g, _) = figure2();
        let other = {
            let mut g2 = ServiceGraph::new();
            g2.add_component(node("solo", 1.0, 1.0));
            Cut::from_assignment(&g2, vec![0], 1).unwrap()
        };
        assert!(other.respects_pins(&g).is_err());
    }

    #[test]
    fn accessors() {
        let (g, n) = figure2();
        let cut = Cut::from_assignment(&g, vec![0, 1, 2, 0, 1, 2, 0, 1, 2], 3).unwrap();
        assert_eq!(cut.parts(), 3);
        assert_eq!(cut.len(), 9);
        assert!(!cut.is_empty());
        assert_eq!(cut.part_of(n[0]), Some(0));
        assert_eq!(cut.device_of(n[1]), Some(DeviceId::from_index(1)));
        assert_eq!(cut.part_of(ComponentId::from_index(99)), None);
        assert_eq!(cut.assignment().len(), 9);
    }
}
