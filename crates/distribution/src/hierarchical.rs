//! Hierarchical OSD solving by abstraction refinement.
//!
//! [`ExhaustiveOptimal`] is exact but refuses instances above its node
//! limit; real smart-space graphs exceed it. Following Chattopadhyay &
//! Banerjee's abstraction-refinement recipe for large-scale QoS
//! composition, [`HierarchicalSolver`] makes exact-quality placements
//! reachable for 100+ component graphs:
//!
//! 1. **Cluster.** The service graph is contracted into abstract
//!    super-components by deterministic heavy-edge agglomeration: the
//!    unpinned cluster pair with the highest inter-cluster throughput is
//!    merged (ties by smallest member ids) until the target cluster count
//!    is reached, subject to the merged aggregate demand still fitting
//!    some device. Pinned components stay singleton clusters. Each merge
//!    records its two children, forming a binary merge tree that
//!    refinement later unwinds. Only edge-connected pairs weigh more
//!    than zero, so the candidates sit in a lazy max-heap of cluster
//!    pairs; a merge re-sums only the pairs whose weight it changed and
//!    costs O(deg lo + deg hi + |hi|) plus O(log E) per changed pair.
//!    Only when no heap pair is eligible does a lex scan take the first
//!    eligible zero-weight pair. Both steps pick the pair a dense scan of
//!    every cluster pair would.
//! 2. **Solve coarse.** The abstract graph — aggregate demands per
//!    cluster, aggregate throughput per cluster pair — is solved with the
//!    existing branch-and-bound, warm-started and capped by a per-round
//!    node budget (anytime mode). Contraction preserves the
//!    Definition 3.5 cost model *exactly*: end-system terms are linear in
//!    demand (`Σ w·rᵢ/ra = w·(Σrᵢ)/ra`) and both the network cost and the
//!    shared-medium bandwidth check are direction-symmetric, so abstract
//!    edges can always be oriented low→high cluster index (keeping the
//!    contracted graph acyclic) without changing either. The coarse cost
//!    of any coarse assignment therefore equals the concrete cost of its
//!    projection, and a coarse-feasible cut projects to a
//!    concrete-feasible one.
//! 3. **Refine where the gap matters.** Each round scores every cluster
//!    with an upper bound on what splitting it could save: the end-system
//!    slack `Σ_m (es(m, d_C) − min_d es(m, d))` of its members plus the
//!    network cost of incumbent cut edges incident to it. The splittable
//!    cluster with the largest positive gain (ties by smallest id) is
//!    split by undoing its last merge, and the next coarse solve is
//!    warm-started with both children inheriting the parent's device.
//!    Zero gain everywhere means no refinement can improve the incumbent
//!    — the loop terminates even when the optimality gap has not closed.
//! 4. **Certify.** The final [`GapCertificate`] brackets the incumbent
//!    between the best projection found (upper) and an instance-level
//!    lower bound: the PR-1 [`NodeCostTable`] suffix bound over the free
//!    components, tightened on proportional-device environments by a
//!    per-dimension fractional transport bound (highest-density
//!    components greedily filled onto the largest devices — the exchange
//!    argument makes the fractional optimum a valid floor for any
//!    integral placement).
//!
//! # Determinism
//!
//! Clustering uses no randomness (all ties break on component ids), each
//! coarse solve runs the *serial* subtree — a node budget's cutoff point
//! is only deterministic without racing workers — and refinement
//! decisions depend only on those results, so the final placement is
//! identical at every thread count. Instances
//! whose free-component count is within [`HierarchicalSolver::exact_limit`]
//! bypass abstraction entirely and delegate to the inner exhaustive
//! solver on the original problem, making the hierarchical solver
//! bit-identical to [`ExhaustiveOptimal`] there (property-tested).

use crate::algorithm::{seed_with_pins, ServiceDistributor};
use crate::bounds::NodeCostTable;
use crate::device::Device;
use crate::error::DistributionError;
use crate::optimal::{ExhaustiveOptimal, SolveStats};
use crate::problem::OsdProblem;
use std::collections::BinaryHeap;
use ubiqos_graph::{ComponentId, Cut, DeviceId, ServiceComponent, ServiceGraph};
use ubiqos_model::{ResourceVector, EPSILON};

/// Relative slack applied to the certified lower bound so floating-point
/// accumulation can never turn it into an overestimate.
const BOUND_SLACK: f64 = 1.0 - 1e-9;

/// Gains below this threshold are treated as zero: splitting such a
/// cluster cannot improve the incumbent by more than rounding noise.
const GAIN_FLOOR: f64 = 1e-12;

/// Per-round node budget for the coarse solves. Each coarse
/// instance is warm-started with the previous round's projection, so an
/// anytime search this deep returns a near-optimal coarse cut while
/// keeping the whole refinement loop orders of magnitude cheaper than a
/// raised-limit exhaustive run on the concrete instance. The
/// certificate's gap stays honest whatever the budget, because the lower
/// bound is instance-level, not search-derived.
const DEFAULT_COARSE_BUDGET: u64 = 4_000;

/// Optimality bracket produced by one hierarchical solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GapCertificate {
    /// Cost of the returned placement (the incumbent upper bound).
    pub upper: f64,
    /// Certified lower bound on the cost of *any* feasible placement.
    pub lower: f64,
    /// Relative gap `(upper − lower) / lower` (0 when provably optimal).
    pub gap: f64,
    /// Refinement rounds performed after the initial coarse solve.
    pub rounds: u32,
    /// Cluster count at termination (free-component count on the exact
    /// delegation path).
    pub clusters: usize,
    /// Whether the placement is provably optimal (exact delegation path).
    pub exact: bool,
}

/// One abstract super-component: a set of concrete components solved as a
/// unit, with the merge tree that created it.
#[derive(Debug, Clone)]
struct Cluster {
    /// Concrete component indices, sorted ascending. `members[0]` is the
    /// cluster's identity for all deterministic tie-breaking.
    members: Vec<usize>,
    /// Aggregate resource demand of the members.
    demand: ResourceVector,
    /// Device pin inherited from a pinned singleton member.
    pin: Option<usize>,
    /// The two clusters whose merge produced this one (`None` for
    /// singletons). Splitting undoes exactly this merge.
    children: Option<Box<(Cluster, Cluster)>>,
}

impl Cluster {
    fn id(&self) -> usize {
        self.members[0]
    }

    fn splittable(&self) -> bool {
        self.children.is_some()
    }
}

/// The abstraction-refinement solver. See the module docs for the
/// algorithm; see [`SolverPortfolio`](crate::SolverPortfolio) for the
/// racing wrapper most callers want.
#[derive(Debug, Clone)]
pub struct HierarchicalSolver {
    exact_limit: usize,
    coarse_target: usize,
    refine_limit: usize,
    gap_tolerance: f64,
    max_rounds: u32,
    parallel: bool,
    warm_start: Option<Vec<usize>>,
    last_certificate: Option<GapCertificate>,
    last_stats: Option<SolveStats>,
}

impl Default for HierarchicalSolver {
    fn default() -> Self {
        HierarchicalSolver {
            exact_limit: 32,
            coarse_target: 16,
            refine_limit: 28,
            gap_tolerance: 0.02,
            max_rounds: 32,
            parallel: true,
            warm_start: None,
            last_certificate: None,
            last_stats: None,
        }
    }
}

impl HierarchicalSolver {
    /// Creates the solver with the default limits (exact delegation up to
    /// 32 free components, 16-cluster coarse solves refined up to 28
    /// clusters, 2% target gap).
    pub fn new() -> Self {
        Self::default()
    }

    /// Free-component count up to which the solver bypasses abstraction
    /// and delegates to the inner exhaustive search on the original
    /// problem — the bit-identity regime.
    #[must_use]
    pub fn with_exact_limit(mut self, limit: usize) -> Self {
        self.exact_limit = limit;
        self
    }

    /// The current exact-delegation limit.
    pub fn exact_limit(&self) -> usize {
        self.exact_limit
    }

    /// Target cluster count for the initial coarse abstraction.
    #[must_use]
    pub fn with_coarse_target(mut self, target: usize) -> Self {
        self.coarse_target = target.max(1);
        self
    }

    /// Cluster-count ceiling for refinement (also the node limit handed
    /// to the inner coarse solver).
    #[must_use]
    pub fn with_refine_limit(mut self, limit: usize) -> Self {
        self.refine_limit = limit.max(1);
        self
    }

    /// Relative optimality gap at which refinement stops (default 2%).
    #[must_use]
    pub fn with_gap_tolerance(mut self, tolerance: f64) -> Self {
        self.gap_tolerance = tolerance.max(0.0);
        self
    }

    /// Backstop on refinement rounds.
    #[must_use]
    pub fn with_max_rounds(mut self, rounds: u32) -> Self {
        self.max_rounds = rounds;
        self
    }

    /// Enables or disables the parallel fan-out of the *exact delegation
    /// path*. Coarse refinement solves always run the serial subtree: a
    /// node budget's cutoff point is only deterministic there (parallel
    /// workers race the shared incumbent, which perturbs per-worker
    /// expansion counts), and determinism across thread counts is part of
    /// this solver's contract. The returned placement is identical either
    /// way.
    #[must_use]
    pub fn with_parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Seeds the next solve with a previous full concrete assignment. On
    /// the exact delegation path it is handed to the inner solver's
    /// warm-start machinery; on the coarse path a feasible seed becomes
    /// the initial incumbent the projections must beat. Consumed by the
    /// next solve.
    #[must_use]
    pub fn with_warm_start(mut self, assignment: Vec<usize>) -> Self {
        self.warm_start = Some(assignment);
        self
    }

    /// Sets or clears the warm-start seed in place.
    pub fn set_warm_start(&mut self, assignment: Option<Vec<usize>>) {
        self.warm_start = assignment;
    }

    /// The optimality bracket of the most recent solve, if any.
    pub fn last_certificate(&self) -> Option<GapCertificate> {
        self.last_certificate
    }

    /// Aggregate inner-solver counters of the most recent solve (summed
    /// over every coarse round), if any.
    pub fn last_stats(&self) -> Option<SolveStats> {
        self.last_stats
    }
}

/// Sums `s` into `total` (all counters, sticky flags).
fn add_stats(total: &mut SolveStats, s: &SolveStats) {
    total.nodes_expanded += s.nodes_expanded;
    total.pruned_bound += s.pruned_bound;
    total.pruned_infeasible += s.pruned_infeasible;
    total.subtrees += s.subtrees;
    total.warm_start_used |= s.warm_start_used;
    total.budget_exhausted |= s.budget_exhausted;
}

/// Position of each concrete component's cluster in `clusters`.
fn cluster_of(clusters: &[Cluster], n: usize) -> Vec<usize> {
    let mut of = vec![0usize; n];
    for (pos, cl) in clusters.iter().enumerate() {
        for &m in &cl.members {
            of[m] = pos;
        }
    }
    of
}

/// Whether the aggregate demand `a + b` fits some device: the arithmetic
/// of `a.checked_add(b)` followed by `fits_within`, without building the
/// sum.
fn merge_fits(a: &ResourceVector, b: &ResourceVector, devices: &[Device]) -> bool {
    let (a, b) = (a.amounts(), b.amounts());
    a.len() == b.len()
        && devices.iter().any(|d| {
            let ra = d.availability().amounts();
            ra.len() == a.len()
                && a.iter()
                    .zip(b)
                    .zip(ra)
                    .all(|((x, y), r)| x + y <= r + EPSILON)
        })
}

/// A cluster pair in [`cluster_graph`]'s merge heap: its weight and its
/// two cluster ids, `lo < hi`.
#[derive(Debug, Clone, Copy)]
struct PairEntry {
    weight: f64,
    lo: usize,
    hi: usize,
}

impl PairEntry {
    /// Heap order: heaviest first, ties to the lexicographically
    /// smallest id pair. Heap weights are positive and finite, so
    /// `total_cmp` agrees with `>` on them.
    fn key_cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.weight
            .total_cmp(&other.weight)
            .then_with(|| (other.lo, other.hi).cmp(&(self.lo, self.hi)))
    }
}

impl PartialEq for PairEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key_cmp(other).is_eq()
    }
}

impl Eq for PairEntry {}

impl PartialOrd for PairEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PairEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key_cmp(other)
    }
}

/// The union of two ascending lists, ascending.
fn merge_sorted<'a>(a: &'a [usize], b: &'a [usize]) -> impl Iterator<Item = usize> + 'a {
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || {
        let from_a = match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) => x <= y,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        if from_a {
            i += 1;
            Some(a[i - 1])
        } else {
            j += 1;
            Some(b[j - 1])
        }
    })
}

/// The state of one [`cluster_graph`] run.
struct Agglomeration<'a> {
    devices: &'a [Device],
    /// `(from, to)` component indices and throughput of each edge, in
    /// the graph's edge order.
    ends: Vec<(usize, usize)>,
    throughput: Vec<f64>,
    /// Slot `c` holds the live cluster whose id is `c`; an absorbed
    /// cluster's slot empties for good.
    slots: Vec<Option<Cluster>>,
    /// Per live cluster, the edges with exactly one end in it, ascending.
    leaving: Vec<Vec<usize>>,
    /// `owner[m]`: the id of the live cluster holding component `m`.
    owner: Vec<usize>,
    heap: BinaryHeap<PairEntry>,
    /// Scratch: per-neighbour weight sums (`Some` while a sum is open),
    /// the neighbours with an open sum in first-seen order, and the next
    /// merged edge list.
    acc: Vec<Option<f64>>,
    touched: Vec<usize>,
    merged: Vec<usize>,
}

impl<'a> Agglomeration<'a> {
    /// Singleton clusters and a heap of every unpinned positive-weight
    /// pair.
    fn new(problem: &OsdProblem<'a>, pins: &[Option<usize>]) -> Self {
        let graph = problem.graph();
        let n = graph.component_count();
        let (ends, throughput): (Vec<(usize, usize)>, Vec<f64>) = graph
            .edges()
            .map(|e| ((e.from.index(), e.to.index()), e.throughput))
            .unzip();
        let mut leaving: Vec<Vec<usize>> = (0..n)
            .map(|c| {
                let id = ComponentId::from_index(c);
                Vec::with_capacity(graph.predecessors(id).len() + graph.successors(id).len())
            })
            .collect();
        for (i, &(a, b)) in ends.iter().enumerate() {
            leaving[a].push(i);
            leaving[b].push(i);
        }
        let mut agg = Agglomeration {
            devices: problem.env().devices(),
            heap: BinaryHeap::with_capacity(ends.len()),
            ends,
            throughput,
            slots: graph
                .components()
                .map(|(id, c)| {
                    Some(Cluster {
                        members: vec![id.index()],
                        demand: c.resources().clone(),
                        pin: pins[id.index()],
                        children: None,
                    })
                })
                .collect(),
            leaving,
            owner: (0..n).collect(),
            acc: vec![None; n],
            touched: Vec::new(),
            merged: Vec::new(),
        };
        for c in 0..n {
            for x in 0..agg.leaving[c].len() {
                let i = agg.leaving[c][x];
                // One end is `c`.
                let other = agg.ends[i].0 + agg.ends[i].1 - c;
                if other > c {
                    agg.add(other, i);
                }
            }
            agg.flush(c);
        }
        agg
    }

    fn unpinned(&self, c: usize) -> bool {
        self.slots[c].as_ref().is_some_and(|cl| cl.pin.is_none())
    }

    /// Adds edge `i` to the open sum for neighbour `other`, opening it
    /// if needed.
    fn add(&mut self, other: usize, i: usize) {
        let sum = self.acc[other].get_or_insert_with(|| {
            self.touched.push(other);
            0.0
        });
        *sum += self.throughput[i];
    }

    /// Closes every open sum, pushing cluster `c`'s unpinned
    /// positive-weight pairs.
    fn flush(&mut self, c: usize) {
        let keep = self.unpinned(c);
        for x in 0..self.touched.len() {
            let other = self.touched[x];
            let weight = self.acc[other].take().expect("open sum");
            if keep && weight > 0.0 && self.unpinned(other) {
                self.heap.push(PairEntry {
                    weight,
                    lo: c.min(other),
                    hi: c.max(other),
                });
            }
        }
        self.touched.clear();
    }

    /// Whether live clusters `lo` and `hi` may merge.
    fn eligible(&self, lo: usize, hi: usize) -> bool {
        match (&self.slots[lo], &self.slots[hi]) {
            (Some(a), Some(b)) => {
                a.pin.is_none() && b.pin.is_none() && merge_fits(&a.demand, &b.demand, self.devices)
            }
            _ => false,
        }
    }

    /// The heaviest eligible positive-weight pair; entries naming an
    /// absorbed cluster, and ineligible pairs, are dropped on the way.
    fn pop_heaviest(&mut self) -> Option<(usize, usize)> {
        while let Some(e) = self.heap.pop() {
            if self.eligible(e.lo, e.hi) {
                return Some((e.lo, e.hi));
            }
        }
        None
    }

    /// The first eligible pair of live clusters in lex order.
    fn first_eligible(&self) -> Option<(usize, usize)> {
        let ids: Vec<usize> = (0..self.slots.len())
            .filter(|&c| self.slots[c].is_some())
            .collect();
        ids.iter().enumerate().find_map(|(x, &lo)| {
            ids[x + 1..]
                .iter()
                .find(|&&hi| self.eligible(lo, hi))
                .map(|&hi| (lo, hi))
        })
    }

    /// Folds cluster `hi` into cluster `lo` (`lo < hi`), which keeps its
    /// id, and pushes the pairs whose weight the merge changed: those
    /// with a neighbour of `hi`.
    fn merge(&mut self, lo: usize, hi: usize) {
        let hi_cl = self.slots[hi].take().expect("live cluster");
        let lo_cl = self.slots[lo].take().expect("live cluster");
        // Open a sum for every neighbour of `hi` but `lo`.
        for x in 0..self.leaving[hi].len() {
            let (a, b) = self.ends[self.leaving[hi][x]];
            let other = if self.owner[a] == hi {
                self.owner[b]
            } else {
                self.owner[a]
            };
            if other != lo && self.acc[other].is_none() {
                self.acc[other] = Some(0.0);
                self.touched.push(other);
            }
        }
        for &m in &hi_cl.members {
            self.owner[m] = lo;
        }
        // Walk both edge lists in one ascending pass: drop the edges now
        // inside the merged cluster, keep the rest, and add each to its
        // neighbour's open sum, if any. One end of each edge is in `lo`
        // now, so the owners sum to `lo` plus the other end's owner.
        for i in merge_sorted(&self.leaving[lo], &self.leaving[hi]) {
            let (a, b) = self.ends[i];
            let other = self.owner[a] + self.owner[b] - lo;
            if other == lo {
                continue;
            }
            self.merged.push(i);
            if let Some(sum) = &mut self.acc[other] {
                *sum += self.throughput[i];
            }
        }
        std::mem::swap(&mut self.leaving[lo], &mut self.merged);
        self.merged.clear();
        self.leaving[hi] = Vec::new();
        let demand = lo_cl
            .demand
            .checked_add(&hi_cl.demand)
            .expect("dimensions validated");
        let mut members = Vec::with_capacity(lo_cl.members.len() + hi_cl.members.len());
        members.extend(merge_sorted(&lo_cl.members, &hi_cl.members));
        self.slots[lo] = Some(Cluster {
            members,
            demand,
            pin: None,
            children: Some(Box::new((lo_cl, hi_cl))),
        });
        self.flush(lo);
    }
}

/// Deterministic heavy-edge agglomeration down to `target` clusters.
///
/// Each merge takes the heaviest eligible cluster pair, ties to the
/// lexicographically smallest id pair (a cluster's id is its smallest
/// member, so id order is position order). Eligible means both clusters
/// are unpinned (pinned clusters never merge) and their aggregate demand
/// still fits some device (a merge that fits none would make the coarse
/// problem spuriously infeasible). Stops early when no eligible pair
/// remains.
///
/// Only edge-connected pairs can weigh more than zero, so the candidates
/// are the unpinned positive-weight pairs, kept in a lazy max-heap of
/// [`PairEntry`]s. Every live cluster keeps the edges that leave it in
/// ascending edge index, and a pair's weight sums its edges in that
/// order: the same bits as a dense `weight[lo][hi] += throughput`.
///
/// A merge folds `hi` into `lo`, which keeps its id. Entries naming `hi`
/// die with it. Only a pair of the merged cluster and a neighbour of `hi`
/// changes weight; its sum is redone and pushed. Its old entry stays
/// behind, lighter than the new one (all throughputs are non-negative),
/// so it can only pop after the new entry has been taken or rejected,
/// and then it is rejected too. Every other entry of `lo` keeps its
/// exact weight. A popped pair that fails the fit check is dropped for
/// good: demands only grow, so a pair that fits no device never will.
/// Only when the heap holds no eligible pair does a lex scan take the
/// first eligible pair: zero-weight merges stay legal so sparse graphs
/// still reach the target.
///
/// Building the initial heap costs O(E). A merge of `lo` and `hi` costs
/// O(deg lo + deg hi + |hi|) plus O(log E) per neighbour of `hi`: the
/// two edge lists and member lists are merged, not re-sorted, and `hi`'s
/// members are relabelled. Each popped entry costs one in-place fit
/// check, and the surviving cluster's merge tree is moved, not copied.
///
/// The returned vector is sorted by cluster id.
fn cluster_graph(problem: &OsdProblem<'_>, pins: &[Option<usize>], target: usize) -> Vec<Cluster> {
    let mut agg = Agglomeration::new(problem, pins);
    let mut live = agg.slots.len();
    while live > target {
        let Some((lo, hi)) = agg.pop_heaviest().or_else(|| agg.first_eligible()) else {
            break;
        };
        agg.merge(lo, hi);
        live -= 1;
    }
    agg.slots.into_iter().flatten().collect()
}

/// Builds the contracted service graph: one component per cluster
/// (aggregate demand, inherited pin), one edge per connected cluster pair
/// carrying the aggregate throughput, oriented low→high position so the
/// result is always acyclic. Direction is immaterial to both the cost
/// model and the shared-medium bandwidth check (see module docs).
fn build_coarse_graph(problem: &OsdProblem<'_>, clusters: &[Cluster]) -> ServiceGraph {
    let graph = problem.graph();
    let cn = clusters.len();
    let of = cluster_of(clusters, graph.component_count());
    let mut coarse = ServiceGraph::new();
    let ids: Vec<ComponentId> = clusters
        .iter()
        .map(|cl| {
            let mut b =
                ServiceComponent::builder(format!("abs{}", cl.id())).resources(cl.demand.clone());
            if let Some(d) = cl.pin {
                b = b.pinned_to(DeviceId::from_index(d));
            }
            coarse.add_component(b.build())
        })
        .collect();
    let mut agg = vec![0.0f64; cn * cn];
    for e in graph.edges() {
        let (a, b) = (of[e.from.index()], of[e.to.index()]);
        if a != b {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            agg[lo * cn + hi] += e.throughput;
        }
    }
    for lo in 0..cn {
        for hi in (lo + 1)..cn {
            let tp = agg[lo * cn + hi];
            if tp > 0.0 {
                coarse
                    .add_edge(ids[lo], ids[hi], tp)
                    .expect("low->high edges cannot cycle");
            }
        }
    }
    coarse
}

/// Certified lower bound on the cost of any feasible placement: the
/// pinned components' exact end-system cost plus the [`NodeCostTable`]
/// suffix bound over the free ones, tightened by the fractional transport
/// bound on proportional-device environments. Network cost is
/// non-negative, so omitting it keeps the bound admissible.
fn lower_bound(problem: &OsdProblem<'_>, pins: &[Option<usize>], table: &NodeCostTable) -> f64 {
    let k = problem.env().device_count();
    let mut naive = 0.0f64;
    for (m, pin) in pins.iter().enumerate() {
        let v = match pin {
            Some(d) => table.end_system(m, *d),
            None => (0..k)
                .map(|d| table.end_system(m, d))
                .fold(f64::INFINITY, f64::min),
        };
        if !v.is_finite() {
            // No device can host this component at all; any upper bound
            // would contradict this, so fall back to a trivial floor.
            return 0.0;
        }
        naive += v;
    }
    naive.max(transport_bound(problem, pins, table)) * BOUND_SLACK
}

/// Per-dimension fractional transport bound for proportional-device
/// environments (`avail_d = λ_d · base`): relax end-system placement to a
/// single resource dimension, let components split fractionally across
/// devices, and fill the largest devices with the highest-density
/// (`es_base / rᵢ`) components first. The exchange argument makes this
/// greedy the fractional optimum, hence a floor for every integral
/// placement. Returns 0 (no information) when devices are not
/// proportional.
fn transport_bound(problem: &OsdProblem<'_>, pins: &[Option<usize>], table: &NodeCostTable) -> f64 {
    let env = problem.env();
    let devices = env.devices();
    let k = devices.len();
    let graph = problem.graph();
    let base = devices[0].availability();
    let dim = base.dim();

    let mut lambda = vec![0.0f64; k];
    for (d, dev) in devices.iter().enumerate() {
        let a = dev.availability();
        let mut ratio: Option<f64> = None;
        for i in 0..dim {
            let b = base.get(i).unwrap_or(0.0);
            let v = a.get(i).unwrap_or(0.0);
            if b <= EPSILON {
                if v > EPSILON {
                    return 0.0;
                }
                continue;
            }
            let r = v / b;
            match ratio {
                None => ratio = Some(r),
                Some(prev) => {
                    if (r - prev).abs() > 1e-9 * prev.max(1.0) {
                        return 0.0;
                    }
                }
            }
        }
        lambda[d] = ratio.unwrap_or(0.0);
        if lambda[d] <= 0.0 {
            return 0.0;
        }
    }

    // λ₀ = 1, so es(c, device 0) is exactly es_base(c).
    let es_base = |m: usize| table.end_system(m, 0);
    let demand = |m: usize, i: usize| {
        graph
            .component(ComponentId::from_index(m))
            .expect("dense ids")
            .resources()
            .get(i)
            .unwrap_or(0.0)
    };
    let mut dev_order: Vec<usize> = (0..k).collect();
    dev_order.sort_by(|&a, &b| {
        lambda[b]
            .partial_cmp(&lambda[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });

    let mut best = 0.0f64;
    for i in 0..dim {
        if base.get(i).unwrap_or(0.0) <= EPSILON {
            continue;
        }
        let mut cap: Vec<f64> = devices
            .iter()
            .map(|d| d.availability().get(i).unwrap_or(0.0))
            .collect();
        let mut cost = 0.0f64;
        let mut frees: Vec<usize> = Vec::new();
        for (m, pin) in pins.iter().enumerate() {
            match pin {
                Some(d) => {
                    cap[*d] = (cap[*d] - demand(m, i)).max(0.0);
                    let es = table.end_system(m, *d);
                    if !es.is_finite() {
                        return 0.0;
                    }
                    cost += es;
                }
                None => {
                    if !es_base(m).is_finite() {
                        return 0.0;
                    }
                    frees.push(m);
                }
            }
        }
        // Highest density first; zero-demand components have infinite
        // density and cost their es_base on the largest device.
        frees.sort_by(|&a, &b| {
            let da = if demand(a, i) > 0.0 {
                es_base(a) / demand(a, i)
            } else {
                f64::INFINITY
            };
            let db = if demand(b, i) > 0.0 {
                es_base(b) / demand(b, i)
            } else {
                f64::INFINITY
            };
            db.partial_cmp(&da)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut di = 0usize;
        let mut remaining = cap[dev_order[0]];
        'fill: for &m in &frees {
            let r_total = demand(m, i);
            if r_total <= 0.0 {
                cost += es_base(m) / lambda[dev_order[0]];
                continue;
            }
            let density = es_base(m) / r_total;
            let mut r = r_total;
            while r > 0.0 {
                if di >= k {
                    // Capacity exhausted: the partial sum is still a
                    // valid floor, so stop accumulating.
                    break 'fill;
                }
                if remaining <= 1e-12 {
                    di += 1;
                    if di < k {
                        remaining = cap[dev_order[di]];
                    }
                    continue;
                }
                let take = r.min(remaining);
                cost += density * take / lambda[dev_order[di]];
                r -= take;
                remaining -= take;
            }
        }
        best = best.max(cost);
    }
    best
}

/// Per-cluster refinement gain: an upper bound on what splitting the
/// cluster could save, given the current coarse placement. Returns the
/// position of the best splittable cluster with positive gain, or `None`
/// when refinement cannot improve the incumbent (zero bound gap).
fn pick_split(
    problem: &OsdProblem<'_>,
    clusters: &[Cluster],
    coarse_assign: &[usize],
    table: &NodeCostTable,
    min_es: &[f64],
) -> Option<usize> {
    let graph = problem.graph();
    let env = problem.env();
    let w_net = problem.weights().network();
    let of = cluster_of(clusters, graph.component_count());
    let mut gain = vec![0.0f64; clusters.len()];
    for (pos, cl) in clusters.iter().enumerate() {
        let d = coarse_assign[pos];
        for &m in &cl.members {
            let es = table.end_system(m, d);
            if es.is_finite() && min_es[m].is_finite() {
                gain[pos] += es - min_es[m];
            }
        }
    }
    for e in graph.edges() {
        let (a, b) = (of[e.from.index()], of[e.to.index()]);
        if a == b {
            continue;
        }
        let (da, db) = (coarse_assign[a], coarse_assign[b]);
        if da == db {
            continue;
        }
        let bw = env.bandwidth().get(da, db);
        if bw > EPSILON {
            let c = w_net * e.throughput / bw;
            gain[a] += c;
            gain[b] += c;
        }
    }
    let mut best: Option<(f64, usize, usize)> = None; // (gain, id, pos)
    for (pos, cl) in clusters.iter().enumerate() {
        if !cl.splittable() || gain[pos] <= GAIN_FLOOR {
            continue;
        }
        let candidate = (gain[pos], cl.id(), pos);
        let better = match best {
            None => true,
            Some((bg, bid, _)) => candidate.0 > bg || (candidate.0 == bg && candidate.1 < bid),
        };
        if better {
            best = Some(candidate);
        }
    }
    best.map(|(_, _, pos)| pos)
}

/// The largest splittable cluster (ties by smallest id), used to recover
/// from a coarse abstraction that turned out infeasible even though the
/// concrete instance may not be.
fn pick_largest_splittable(clusters: &[Cluster]) -> Option<usize> {
    let mut best: Option<(usize, usize, usize)> = None; // (len, id, pos)
    for (pos, cl) in clusters.iter().enumerate() {
        if !cl.splittable() {
            continue;
        }
        let candidate = (cl.members.len(), cl.id(), pos);
        let better = match best {
            None => true,
            Some((bl, bid, _)) => candidate.0 > bl || (candidate.0 == bl && candidate.1 < bid),
        };
        if better {
            best = Some(candidate);
        }
    }
    best.map(|(_, _, pos)| pos)
}

/// Splits `clusters[pos]` into its merge children, keeping the vector
/// sorted by cluster id.
fn split_cluster(clusters: &mut Vec<Cluster>, pos: usize) {
    let parent = clusters.remove(pos);
    let (a, b) = *parent.children.expect("caller checked splittable");
    // `a` inherits the parent's id, so it lands back at `pos`; `b` is
    // inserted at its sorted position.
    clusters.insert(pos, a);
    let bid = b.id();
    let insert_at = clusters
        .binary_search_by(|cl| cl.id().cmp(&bid))
        .expect_err("ids are unique");
    clusters.insert(insert_at, b);
}

impl ServiceDistributor for HierarchicalSolver {
    fn name(&self) -> &str {
        "hierarchical"
    }

    fn distribute(&mut self, problem: &OsdProblem<'_>) -> Result<Cut, DistributionError> {
        self.last_certificate = None;
        self.last_stats = None;
        let (pins, _) = seed_with_pins(problem)?;
        let graph = problem.graph();
        let env = problem.env();
        let k = env.device_count();
        let n = graph.component_count();
        let free = pins.iter().filter(|p| p.is_none()).count();
        let warm = self.warm_start.take();

        // Exact delegation: within the inner solver's reach, solve the
        // original problem directly — bit-identical to ExhaustiveOptimal.
        if free <= self.exact_limit {
            let mut inner = ExhaustiveOptimal::new()
                .with_node_limit(self.exact_limit)
                .with_parallel(self.parallel);
            inner.set_warm_start(warm);
            let cut = inner.distribute(problem)?;
            let cost = problem.cost(&cut);
            self.last_stats = inner.last_stats();
            self.last_certificate = Some(GapCertificate {
                upper: cost,
                lower: cost,
                gap: 0.0,
                rounds: 0,
                clusters: free,
                exact: true,
            });
            return Ok(cut);
        }

        let all_ids: Vec<ComponentId> = graph.component_ids().collect();
        let table = NodeCostTable::build(problem, &all_ids);
        let min_es: Vec<f64> = (0..n)
            .map(|m| {
                (0..k)
                    .map(|d| table.end_system(m, d))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let lower = lower_bound(problem, &pins, &table);

        let mut clusters = cluster_graph(problem, &pins, self.coarse_target);
        let mut stats = SolveStats::default();
        // Incumbent: (cost, concrete assignment), ordered by cost bits
        // then lexicographic assignment for determinism.
        let mut best: Option<(f64, Vec<usize>)> = None;
        if let Some(seed) = warm {
            if seed.len() == n && seed.iter().all(|&d| d < k) {
                if let Some(cut) = Cut::from_assignment(graph, seed.clone(), k) {
                    if problem.fits(&cut) {
                        best = Some((problem.cost(&cut), seed));
                    }
                }
            }
        }
        // Seed the first coarse solve from the warm incumbent when there
        // is one: cluster representatives inherit its devices (the inner
        // solver validates coarse feasibility and ignores a seed that
        // lost it to co-location).
        let mut coarse_seed: Option<Vec<usize>> = best.as_ref().map(|(_, assignment)| {
            clusters
                .iter()
                .map(|cl| assignment[cl.members[0]])
                .collect()
        });
        let mut rounds = 0u32;

        loop {
            let coarse_graph = build_coarse_graph(problem, &clusters);
            let coarse_problem = OsdProblem::new(&coarse_graph, env, problem.weights());
            // Always the serial subtree: the node budget's cutoff is only
            // deterministic without racing workers (see `with_parallel`).
            let mut inner = ExhaustiveOptimal::new()
                .with_node_limit(self.refine_limit)
                .with_node_budget(Some(DEFAULT_COARSE_BUDGET))
                .with_parallel(false);
            inner.set_warm_start(coarse_seed.take());
            match inner.distribute(&coarse_problem) {
                Ok(coarse_cut) => {
                    if let Some(s) = inner.last_stats() {
                        add_stats(&mut stats, &s);
                    }
                    let coarse_assign = coarse_cut.assignment();
                    let concrete: Vec<usize> = cluster_of(&clusters, n)
                        .into_iter()
                        .map(|pos| coarse_assign[pos])
                        .collect();
                    let cut = Cut::from_assignment(graph, concrete.clone(), k)
                        .expect("projection is complete and in range");
                    debug_assert!(
                        problem.fits(&cut),
                        "coarse feasibility must project to concrete feasibility"
                    );
                    let cost = problem.cost(&cut);
                    let improves = match &best {
                        None => true,
                        Some((bc, ba)) => cost < *bc || (cost == *bc && concrete < *ba),
                    };
                    if improves {
                        best = Some((cost, concrete.clone()));
                    }

                    let upper = best.as_ref().expect("just set").0;
                    let gap = if lower > 0.0 {
                        ((upper - lower) / lower).max(0.0)
                    } else if upper <= 0.0 {
                        0.0
                    } else {
                        f64::INFINITY
                    };
                    if gap <= self.gap_tolerance
                        || rounds >= self.max_rounds
                        || clusters.len() >= self.refine_limit
                    {
                        break;
                    }
                    let Some(pos) = pick_split(problem, &clusters, &coarse_assign, &table, &min_es)
                    else {
                        // Zero bound gap everywhere: no split can improve
                        // the incumbent, stop refining.
                        break;
                    };
                    split_cluster(&mut clusters, pos);
                    // Children inherit the parent's device, so the seed
                    // replays this round's solution on the finer level.
                    let seed: Vec<usize> =
                        clusters.iter().map(|cl| concrete[cl.members[0]]).collect();
                    coarse_seed = Some(seed);
                    rounds += 1;
                }
                Err(DistributionError::Infeasible { .. }) => {
                    if let Some(s) = inner.last_stats() {
                        add_stats(&mut stats, &s);
                    }
                    // The abstraction over-constrained the instance (a
                    // cluster too chunky to pack). Refine the largest
                    // cluster and retry; give up only when nothing is
                    // splittable or the limits are hit.
                    if rounds >= self.max_rounds || clusters.len() >= self.refine_limit {
                        break;
                    }
                    let Some(pos) = pick_largest_splittable(&clusters) else {
                        break;
                    };
                    split_cluster(&mut clusters, pos);
                    rounds += 1;
                }
                Err(e) => return Err(e),
            }
        }

        self.last_stats = Some(stats);
        match best {
            Some((upper, assignment)) => {
                let gap = if lower > 0.0 {
                    ((upper - lower) / lower).max(0.0)
                } else if upper <= 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                };
                self.last_certificate = Some(GapCertificate {
                    upper,
                    lower,
                    gap,
                    rounds,
                    clusters: clusters.len(),
                    exact: false,
                });
                Ok(Cut::from_assignment(graph, assignment, k)
                    .expect("incumbent assignments are complete and in range"))
            }
            None => Err(DistributionError::Infeasible {
                reason: "hierarchical refinement found no feasible coarse placement \
                         (every abstraction level was over-constrained)"
                    .into(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environment::Environment;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use ubiqos_model::Weights;

    fn comp(name: &str, mem: f64, cpu: f64) -> ServiceComponent {
        ServiceComponent::builder(name)
            .resources(ResourceVector::mem_cpu(mem, cpu))
            .build()
    }

    /// A deterministic pseudo-random chain+shortcut graph of `n`
    /// components (splitmix64 streams, no external RNG).
    fn synth_graph(n: usize, seed: u64) -> ServiceGraph {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut g = ServiceGraph::new();
        let ids: Vec<ComponentId> = (0..n)
            .map(|i| {
                let mem = 2.0 + (next() % 12) as f64;
                let cpu = 3.0 + (next() % 14) as f64;
                g.add_component(comp(&format!("c{i}"), mem, cpu))
            })
            .collect();
        for i in 1..n {
            let tp = 0.1 + (next() % 10) as f64 * 0.1;
            g.add_edge(ids[i - 1], ids[i], tp).unwrap();
            if i >= 4 && next() % 3 == 0 {
                let j = (next() % (i as u64 - 2)) as usize;
                let tp = 0.1 + (next() % 6) as f64 * 0.1;
                let _ = g.add_edge(ids[j], ids[i], tp);
            }
        }
        g
    }

    /// Three exactly proportional devices (λ = 1.0, 0.5, 0.25) sized for
    /// an `n`-component synth graph.
    fn proportional_env(n: usize) -> Environment {
        let scale = n as f64;
        Environment::builder()
            .device(Device::new(
                "big",
                ResourceVector::mem_cpu(16.0 * scale, 20.0 * scale),
            ))
            .device(Device::new(
                "mid",
                ResourceVector::mem_cpu(8.0 * scale, 10.0 * scale),
            ))
            .device(Device::new(
                "small",
                ResourceVector::mem_cpu(4.0 * scale, 5.0 * scale),
            ))
            .default_bandwidth_mbps(500.0)
            .build()
    }

    #[test]
    fn delegates_bit_identically_within_the_exact_limit() {
        let g = synth_graph(12, 0xabcd);
        let env = proportional_env(12);
        let w = Weights::default();
        let p = OsdProblem::new(&g, &env, &w);
        let exact = ExhaustiveOptimal::new().distribute(&p).unwrap();
        let mut hier = HierarchicalSolver::new();
        let cut = hier.distribute(&p).unwrap();
        assert_eq!(cut, exact);
        assert_eq!(p.cost(&cut).to_bits(), p.cost(&exact).to_bits());
        let cert = hier.last_certificate().unwrap();
        assert!(cert.exact);
        assert_eq!(cert.gap, 0.0);
        assert_eq!(cert.upper.to_bits(), p.cost(&exact).to_bits());
    }

    #[test]
    fn solves_graphs_beyond_the_exact_limit_with_a_certificate() {
        let g = synth_graph(48, 0x4848);
        let env = proportional_env(48);
        let w = Weights::default();
        let p = OsdProblem::new(&g, &env, &w);
        let mut hier = HierarchicalSolver::new().with_coarse_target(10);
        let cut = hier.distribute(&p).unwrap();
        assert!(p.fits(&cut));
        let cert = hier.last_certificate().unwrap();
        assert!(!cert.exact);
        assert!(cert.lower > 0.0);
        assert!(cert.upper >= cert.lower);
        assert!(cert.gap.is_finite());
        assert!(hier.last_stats().unwrap().nodes_expanded > 0);
    }

    #[test]
    fn serial_and_parallel_coarse_paths_agree_bit_for_bit() {
        let g = synth_graph(40, 0x7777);
        let env = proportional_env(40);
        let w = Weights::default();
        let p = OsdProblem::new(&g, &env, &w);
        let mut serial = HierarchicalSolver::new()
            .with_coarse_target(8)
            .with_parallel(false);
        let mut parallel = HierarchicalSolver::new()
            .with_coarse_target(8)
            .with_parallel(true);
        let cs = serial.distribute(&p).unwrap();
        let cp = parallel.distribute(&p).unwrap();
        assert_eq!(cs, cp);
        assert_eq!(p.cost(&cs).to_bits(), p.cost(&cp).to_bits());
        let (a, b) = (
            serial.last_certificate().unwrap(),
            parallel.last_certificate().unwrap(),
        );
        assert_eq!(a.upper.to_bits(), b.upper.to_bits());
        assert_eq!(a.lower.to_bits(), b.lower.to_bits());
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn clustering_is_deterministic_and_respects_pins() {
        let mut g = synth_graph(20, 0x2020);
        let pinned = g.add_component(
            ServiceComponent::builder("display")
                .resources(ResourceVector::mem_cpu(2.0, 2.0))
                .pinned_to(DeviceId::from_index(2))
                .build(),
        );
        let first = g.component_ids().next().unwrap();
        g.add_edge(first, pinned, 5.0).unwrap();
        let env = proportional_env(21);
        let w = Weights::default();
        let p = OsdProblem::new(&g, &env, &w);
        let (pins, _) = seed_with_pins(&p).unwrap();
        let a = cluster_graph(&p, &pins, 6);
        let b = cluster_graph(&p, &pins, 6);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.members, y.members);
            assert_eq!(x.pin, y.pin);
        }
        // The pinned component stays a singleton cluster.
        let pin_cluster = a
            .iter()
            .find(|cl| cl.members.contains(&pinned.index()))
            .unwrap();
        assert_eq!(pin_cluster.members, vec![pinned.index()]);
        assert_eq!(pin_cluster.pin, Some(2));
        // Sorted by cluster id.
        for w in a.windows(2) {
            assert!(w[0].id() < w[1].id());
        }
    }

    #[test]
    fn lower_bound_never_exceeds_the_true_optimum() {
        for seed in [0x11u64, 0x22, 0x33, 0x44] {
            let g = synth_graph(9, seed);
            let env = proportional_env(16);
            let w = Weights::default();
            let p = OsdProblem::new(&g, &env, &w);
            let exact = ExhaustiveOptimal::new().distribute(&p).unwrap();
            let opt = p.cost(&exact);
            let (pins, _) = seed_with_pins(&p).unwrap();
            let ids: Vec<ComponentId> = g.component_ids().collect();
            let table = NodeCostTable::build(&p, &ids);
            let lb = lower_bound(&p, &pins, &table);
            assert!(
                lb <= opt + 1e-12,
                "seed {seed:#x}: lower bound {lb} above optimum {opt}"
            );
            assert!(lb > 0.0);
        }
    }

    #[test]
    fn transport_bound_vanishes_on_non_proportional_devices() {
        let g = synth_graph(8, 0x99);
        let env = Environment::builder()
            .device(Device::new("a", ResourceVector::mem_cpu(100.0, 50.0)))
            .device(Device::new("b", ResourceVector::mem_cpu(50.0, 100.0)))
            .default_bandwidth_mbps(100.0)
            .build();
        let w = Weights::default();
        let p = OsdProblem::new(&g, &env, &w);
        let (pins, _) = seed_with_pins(&p).unwrap();
        let ids: Vec<ComponentId> = g.component_ids().collect();
        let table = NodeCostTable::build(&p, &ids);
        assert_eq!(transport_bound(&p, &pins, &table), 0.0);
        // The naive suffix floor still applies.
        assert!(lower_bound(&p, &pins, &table) > 0.0);
    }

    #[test]
    fn split_keeps_clusters_sorted() {
        let g = synth_graph(12, 0x1212);
        let env = proportional_env(12);
        let w = Weights::default();
        let p = OsdProblem::new(&g, &env, &w);
        let pins = vec![None; 12];
        let mut clusters = cluster_graph(&p, &pins, 4);
        while let Some(pos) = pick_largest_splittable(&clusters) {
            split_cluster(&mut clusters, pos);
            for w in clusters.windows(2) {
                assert!(w[0].id() < w[1].id());
            }
        }
        // Fully unwound: every cluster is a singleton again.
        assert_eq!(clusters.len(), 12);
        assert!(clusters.iter().all(|cl| cl.members.len() == 1));
    }

    #[test]
    fn warm_start_seed_becomes_the_incumbent_to_beat() {
        let g = synth_graph(40, 0x4040);
        let env = proportional_env(40);
        let w = Weights::default();
        let p = OsdProblem::new(&g, &env, &w);
        let mut cold = HierarchicalSolver::new().with_coarse_target(8);
        let cut = cold.distribute(&p).unwrap();
        let seed: Vec<usize> = cut.assignment();
        let mut warm = HierarchicalSolver::new()
            .with_coarse_target(8)
            .with_warm_start(seed);
        let warm_cut = warm.distribute(&p).unwrap();
        // Seeding the cold result can only keep or improve the incumbent.
        assert!(p.cost(&warm_cut) <= p.cost(&cut) + 1e-12);
    }

    /// How often the dense scan met the cases the edge-driven selection
    /// handles separately.
    #[derive(Debug, Default)]
    struct OracleHits {
        /// Merges where the heaviest positive-weight unpinned pair fit no
        /// device, so a lighter pair won.
        heaviest_rejected: usize,
        /// Merges of a zero-weight pair (no positive-weight pair was
        /// eligible).
        zero_weight: usize,
    }

    /// Reference for `cluster_graph`'s selection rule, the dense scan:
    /// per merge, a `cn × cn` weight matrix and a lex scan of every
    /// cluster pair with a strict `>`, then a deep copy of the surviving
    /// cluster. Also counts the [`OracleHits`] cases.
    fn dense_cluster_graph(
        problem: &OsdProblem<'_>,
        pins: &[Option<usize>],
        target: usize,
    ) -> (Vec<Cluster>, OracleHits) {
        let graph = problem.graph();
        let env = problem.env();
        let mut hits = OracleHits::default();
        let mut clusters: Vec<Cluster> = graph
            .components()
            .map(|(id, c)| Cluster {
                members: vec![id.index()],
                demand: c.resources().clone(),
                pin: pins[id.index()],
                children: None,
            })
            .collect();

        while clusters.len() > target {
            let cn = clusters.len();
            let of = cluster_of(&clusters, graph.component_count());
            let mut weight = vec![0.0f64; cn * cn];
            for e in graph.edges() {
                let (a, b) = (of[e.from.index()], of[e.to.index()]);
                if a != b {
                    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                    weight[lo * cn + hi] += e.throughput;
                }
            }
            let mut best: Option<(f64, usize, usize)> = None;
            let mut heaviest: Option<(f64, bool)> = None; // (weight, eligible)
            for lo in 0..cn {
                if clusters[lo].pin.is_some() {
                    continue;
                }
                for hi in (lo + 1)..cn {
                    if clusters[hi].pin.is_some() {
                        continue;
                    }
                    let w = weight[lo * cn + hi];
                    let fits = clusters[lo]
                        .demand
                        .checked_add(&clusters[hi].demand)
                        .is_ok_and(|merged| {
                            env.devices()
                                .iter()
                                .any(|d| merged.fits_within(d.availability()))
                        });
                    if w > 0.0 && heaviest.is_none_or(|(hw, _)| w > hw) {
                        heaviest = Some((w, fits));
                    }
                    if fits && best.is_none_or(|(bw, _, _)| w > bw) {
                        best = Some((w, lo, hi));
                    }
                }
            }
            if heaviest.is_some_and(|(_, fits)| !fits) {
                hits.heaviest_rejected += 1;
            }
            let Some((w, lo, hi)) = best else { break };
            if w == 0.0 {
                hits.zero_weight += 1;
            }
            let hi_cl = clusters.remove(hi);
            let lo_cl = clusters[lo].clone();
            let mut members = lo_cl.members.clone();
            members.extend_from_slice(&hi_cl.members);
            members.sort_unstable();
            let demand = lo_cl
                .demand
                .checked_add(&hi_cl.demand)
                .expect("dimensions validated");
            clusters[lo] = Cluster {
                members,
                demand,
                pin: None,
                children: Some(Box::new((lo_cl, hi_cl))),
            };
        }
        (clusters, hits)
    }

    /// One merge-tree node as the oracle comparison sees it: members,
    /// demand bits, pin and whether it has children.
    type TreeNode = (Vec<usize>, Vec<u64>, Option<usize>, bool);

    /// Pre-order walk of every cluster's merge tree. With the children
    /// flag, the walk determines each tree exactly.
    fn forest(clusters: &[Cluster]) -> Vec<TreeNode> {
        fn walk(cl: &Cluster, out: &mut Vec<TreeNode>) {
            let bits = cl.demand.amounts().iter().map(|x| x.to_bits()).collect();
            out.push((cl.members.clone(), bits, cl.pin, cl.splittable()));
            if let Some(children) = &cl.children {
                walk(&children.0, out);
                walk(&children.1, out);
            }
        }
        let mut out = Vec::new();
        for cl in clusters {
            walk(cl, &mut out);
        }
        out
    }

    /// A random clustering instance: unpinned and pinned components,
    /// forward edges that are sparse on some draws and carry zero
    /// throughput on some edges, devices that on tight draws hold only a
    /// few components' worth of demand, and a cluster target. Demands
    /// and capacities sit on a 0.1 grid, so aggregate demand often meets
    /// a capacity up to rounding (the `EPSILON` slack decides), and
    /// throughputs on a 0.5 grid, so pair weights often tie.
    fn oracle_instance(seed: u64) -> (ServiceGraph, Environment, Vec<Option<usize>>, usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(6usize..48);
        let k = rng.gen_range(1usize..4);
        let mut g = ServiceGraph::new();
        let ids: Vec<ComponentId> = (0..n)
            .map(|i| {
                let mem = rng.gen_range(10usize..100) as f64 / 10.0;
                let cpu = rng.gen_range(10usize..100) as f64 / 10.0;
                g.add_component(comp(&format!("c{i}"), mem, cpu))
            })
            .collect();
        let pins = (0..n)
            .map(|_| rng.gen_bool(0.1).then(|| rng.gen_range(0..k)))
            .collect();
        let out_degree = if rng.gen_bool(0.3) { 0.4 } else { 2.0 };
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen_bool((out_degree / n as f64).min(1.0)) {
                    let tp = rng.gen_range(0usize..4) as f64 * 0.5;
                    g.add_edge(ids[i], ids[j], tp).unwrap();
                }
            }
        }
        // Capacity in components' worth of (mean 5.5) demand.
        let worth = if rng.gen_bool(0.5) {
            rng.gen_range(2.0..6.0)
        } else {
            n as f64
        };
        let mut env = Environment::builder();
        for d in 0..k {
            let cap = (55.0 * worth * rng.gen_range(0.5f64..1.0)).round() / 10.0;
            env = env.device(Device::new(
                format!("d{d}"),
                ResourceVector::mem_cpu(cap, cap),
            ));
        }
        let target = [1usize, 2, 4, 8, 16][rng.gen_range(0usize..5)];
        (g, env.default_bandwidth_mbps(100.0).build(), pins, target)
    }

    /// Clusters `seed`'s instance with `cluster_graph` and the dense
    /// scan; returns the oracle's hits when the forests agree.
    fn matches_dense_scan(seed: u64) -> Result<OracleHits, String> {
        let (g, env, pins, target) = oracle_instance(seed);
        let w = Weights::default();
        let p = OsdProblem::new(&g, &env, &w);
        let (dense, hits) = dense_cluster_graph(&p, &pins, target);
        let (got, want) = (forest(&cluster_graph(&p, &pins, target)), forest(&dense));
        if got == want {
            Ok(hits)
        } else {
            Err(format!(
                "seed {seed}: merge forests differ\n  edges: {got:?}\n  dense: {want:?}"
            ))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The edge-driven selection returns the dense scan's clusters:
        /// members, demand bits, pins and merge trees.
        #[test]
        fn clustering_matches_the_dense_scan(seed in 0u64..1_000_000) {
            matches_dense_scan(seed)?;
        }
    }

    /// Fixed seeds that the oracle confirms reach both cases the
    /// edge-driven selection treats apart from the plain argmax: the
    /// zero-weight fallback and a heaviest pair that fits no device.
    #[test]
    fn dense_scan_oracle_covers_the_fallback_and_rejected_heaviest_pairs() {
        let mut total = OracleHits::default();
        for seed in 0..64 {
            let hits = matches_dense_scan(seed).unwrap();
            total.heaviest_rejected += hits.heaviest_rejected;
            total.zero_weight += hits.zero_weight;
        }
        assert!(total.heaviest_rejected > 0, "{total:?}");
        assert!(total.zero_weight > 0, "{total:?}");
    }
}
