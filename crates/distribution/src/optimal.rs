//! Exhaustive optimal search for the OSD problem.
//!
//! "The optimal algorithm uses exhaustive search for the optimal service
//! distribution solution. Since the problem is NP-hard, we limit ourselves
//! to the special case of two-way cut" (Section 4) — this implementation
//! handles any `k` but is only tractable for small graphs; Table 1 uses it
//! on 10-20 node graphs with `k = 2`, exactly like the paper.
//!
//! The search is branch-and-bound over per-component device assignments:
//!
//! * components are visited in decreasing weighted-requirement order so
//!   resource-capacity violations prune early;
//! * a precomputed [`NodeCostTable`] supplies both the exact end-system
//!   delta of each (component, device) pair and an admissible lower bound
//!   on the cost the *remaining* components must still add; branches with
//!   `partial + suffix(depth)` strictly above the incumbent are cut;
//! * per-pair crossing throughput is tracked incrementally and branches
//!   violating a bandwidth capacity are cut;
//! * the crossing/extra buffers are per-depth scratch space reused across
//!   the whole search instead of per-node allocations.
//!
//! # Parallel search and determinism
//!
//! By default the top two levels of the assignment tree are expanded
//! into independent feasible subtree roots, searched concurrently via
//! [`ubiqos_parallel::par_map`] on `UBIQOS_THREADS` workers (one worker
//! runs them in root order on the calling thread);
//! [`ExhaustiveOptimal::with_parallel`]`(false)` keeps the serial search
//! as the reference the equivalence tests compare against. Workers share
//! an incumbent cost through an `AtomicU64` holding the `f64` bit
//! pattern, so a bound proven in one subtree prunes the others.
//!
//! The result is nevertheless *identical* to the serial search, bit for
//! bit: pruning is strict (`>`), so equal-cost leaves always survive, and
//! a leaf replaces the incumbent only when its cost is lower **or** equal
//! with a lexicographically smaller visiting-order device key. Both modes
//! therefore select the unique minimum of `(cost, key)` over all feasible
//! leaves; the parallel reduction compares worker results in
//! deterministic root order. Only the [`SolveStats`] node counts vary run
//! to run in parallel mode (they depend on when incumbent updates land).
//!
//! Fan-out has a fixed cost (root expansion, worker spawning, atomic
//! traffic) that small instances never amortise, so instances with fewer
//! free components than [`ExhaustiveOptimal::parallel_threshold`] run the
//! serial search even when the fan-out is enabled.
//!
//! # Warm starts
//!
//! [`ExhaustiveOptimal::set_warm_start`] seeds the next solve with a
//! previous assignment — typically the placement a session held before a
//! fault. The seed is replayed through the search's own feasibility
//! checks; when valid it becomes the initial incumbent (local best *and*
//! shared atomic), so the bound is tight from the first node instead of
//! infinite. Because a valid seed is itself a feasible leaf of the search
//! tree, admitting it early cannot change the unique `(cost, key)`
//! minimum the search returns: warm and cold solves are bit-identical,
//! warm ones just prune harder. An invalid seed (wrong length, pin
//! mismatch, no longer feasible) is silently discarded — the solve
//! degrades to a cold start.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::algorithm::{seed_with_pins, ServiceDistributor};
use crate::bounds::NodeCostTable;
use crate::error::DistributionError;
use crate::problem::OsdProblem;
use ubiqos_graph::{ComponentId, Cut};
use ubiqos_model::{ResourceVector, EPSILON};

/// Depth of the parallel fan-out: feasible assignments of the first two
/// components in visiting order become independent subtree roots.
const FANOUT_DEPTH: usize = 2;

/// Counters describing one `distribute` run of [`ExhaustiveOptimal`].
///
/// In parallel mode the totals are summed over workers; they are
/// informational and may vary between runs (pruning depends on when the
/// shared incumbent tightens) even though the returned cut never does.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Interior nodes whose children were generated.
    pub nodes_expanded: u64,
    /// Subtrees cut because `partial + suffix` exceeded the incumbent.
    pub pruned_bound: u64,
    /// (component, device) candidates rejected for resource-capacity,
    /// unusable-device, or bandwidth reasons.
    pub pruned_infeasible: u64,
    /// Independent subtree roots searched (1 for a serial run).
    pub subtrees: u64,
    /// Whether a warm-start seed was validated and used as the initial
    /// incumbent for this solve.
    pub warm_start_used: bool,
    /// Whether a node budget stopped the search before it proved
    /// optimality (see [`ExhaustiveOptimal::with_node_budget`]). When
    /// set, the returned cut is only the best leaf found in budget.
    pub budget_exhausted: bool,
}

impl SolveStats {
    fn absorb(&mut self, other: &SolveStats) {
        self.nodes_expanded += other.nodes_expanded;
        self.pruned_bound += other.pruned_bound;
        self.pruned_infeasible += other.pruned_infeasible;
        self.budget_exhausted |= other.budget_exhausted;
    }
}

/// Exhaustive branch-and-bound OSD solver.
///
/// Worst-case cost is `k^n`; the solver refuses instances with more than
/// [`ExhaustiveOptimal::node_limit`] free (un-pinned) components rather
/// than hanging — raise the limit explicitly when you know the instance
/// prunes well.
#[derive(Debug, Clone)]
pub struct ExhaustiveOptimal {
    node_limit: usize,
    parallel: bool,
    parallel_threshold: usize,
    suffix_bound: bool,
    node_budget: Option<u64>,
    warm_start: Option<Vec<usize>>,
    last_stats: Option<SolveStats>,
}

/// Free-component count below which the parallel fan-out costs more than
/// it saves (measured on the `repro -- osd` ladder: 12–16 node instances
/// ran slower fanned out than serial).
const DEFAULT_PARALLEL_THRESHOLD: usize = 18;

impl Default for ExhaustiveOptimal {
    fn default() -> Self {
        ExhaustiveOptimal {
            node_limit: 32,
            parallel: true,
            parallel_threshold: DEFAULT_PARALLEL_THRESHOLD,
            suffix_bound: true,
            node_budget: None,
            warm_start: None,
            last_stats: None,
        }
    }
}

impl ExhaustiveOptimal {
    /// Creates the solver with the default 32-free-component limit
    /// (plenty for the paper's 10-20 node Table 1 instances; the suffix
    /// lower bound keeps such instances well below the worst case).
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the free-component limit.
    #[must_use]
    pub fn with_node_limit(mut self, limit: usize) -> Self {
        self.node_limit = limit;
        self
    }

    /// The current free-component limit.
    pub fn node_limit(&self) -> usize {
        self.node_limit
    }

    /// Enables or disables the parallel subtree fan-out. The returned cut
    /// is identical either way; serial mode exists for benchmarking and
    /// for the equivalence tests.
    #[must_use]
    pub fn with_parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Whether the parallel fan-out is active.
    pub fn parallel(&self) -> bool {
        self.parallel
    }

    /// Overrides the free-component count below which the solver runs
    /// serially even in parallel mode (fan-out overhead dominates on
    /// small instances). `0` forces the fan-out whenever possible.
    #[must_use]
    pub fn with_parallel_threshold(mut self, threshold: usize) -> Self {
        self.parallel_threshold = threshold;
        self
    }

    /// The current serial-fallback threshold.
    pub fn parallel_threshold(&self) -> usize {
        self.parallel_threshold
    }

    /// Seeds the next `distribute` call with a previous full assignment
    /// (one device index per component, pinned included). See the module
    /// docs: a valid seed tightens the incumbent without changing the
    /// result; an invalid one is discarded. The seed is consumed by the
    /// next solve.
    #[must_use]
    pub fn with_warm_start(mut self, assignment: Vec<usize>) -> Self {
        self.warm_start = Some(assignment);
        self
    }

    /// Sets or clears the warm-start seed in place (for callers holding
    /// a long-lived solver across a recovery pass).
    pub fn set_warm_start(&mut self, assignment: Option<Vec<usize>>) {
        self.warm_start = assignment;
    }

    /// Caps the number of interior nodes the search may expand, turning
    /// the solver into an *anytime* search: once the budget is spent,
    /// workers stop expanding and the best feasible leaf found so far
    /// (or the warm-start seed) is returned, with
    /// [`SolveStats::budget_exhausted`] set. Used by the large-graph
    /// benchmark to bound raised-limit exhaustive comparison runs that
    /// would otherwise never terminate. In parallel mode the budget
    /// applies per worker, so use serial mode when the cap must be
    /// exact. `None` (the default) restores the complete search.
    #[must_use]
    pub fn with_node_budget(mut self, budget: Option<u64>) -> Self {
        self.node_budget = budget;
        self
    }

    /// The current node-expansion budget, if any.
    pub fn node_budget(&self) -> Option<u64> {
        self.node_budget
    }

    /// Enables or disables the precomputed suffix lower bound (on by
    /// default). Disabling reverts pruning to bare partial-cost
    /// comparison — the pre-table behaviour — and exists for ablation
    /// benchmarks quantifying what the bound buys.
    #[must_use]
    pub fn with_suffix_bound(mut self, enabled: bool) -> Self {
        self.suffix_bound = enabled;
        self
    }

    /// Search counters from the most recent `distribute` call, if any.
    pub fn last_stats(&self) -> Option<SolveStats> {
        self.last_stats
    }
}

/// Reusable per-depth buffers replacing the per-node `Vec` allocations of
/// the earlier solver.
#[derive(Debug, Default, Clone)]
struct ScratchFrame {
    /// New ordered crossings `(from_device, to_device, throughput)`
    /// introduced by the placement under evaluation.
    new_crossings: Vec<(usize, usize, f64)>,
    /// The same crossings folded onto unordered pairs for the
    /// shared-medium bandwidth check.
    extra: Vec<(usize, usize, f64)>,
}

/// Mutable search state shared by the serial search, the root fan-out,
/// and each parallel worker.
#[derive(Debug, Clone)]
struct SearchState {
    /// Current per-component device assignment (pins pre-filled).
    assignment: Vec<Option<usize>>,
    residual: Vec<ResourceVector>,
    /// Crossing throughput accumulated per ordered device pair.
    crossing: Vec<Vec<f64>>,
    /// Devices chosen so far along the current path, in visiting order —
    /// the lexicographic tie-breaking key.
    key: Vec<usize>,
}

/// Evaluates placing `order[depth]` on device `d` against `state`.
///
/// Returns the exact cost delta when the placement is feasible, filling
/// `frame.new_crossings` with the edges it sends across device pairs;
/// returns `None` (leaving `frame` in an unspecified state) when any
/// resource, usability, or bandwidth constraint fails. The delta
/// accumulation order — end-system terms first, then network terms in
/// predecessor-before-successor edge order — matches the pre-table solver
/// exactly, keeping path costs bit-identical.
fn placement_delta(
    problem: &OsdProblem<'_>,
    table: &NodeCostTable,
    order: &[ComponentId],
    depth: usize,
    d: usize,
    state: &SearchState,
    frame: &mut ScratchFrame,
) -> Option<f64> {
    let graph = problem.graph();
    let env = problem.env();
    let c = order[depth];
    let need = graph.component(c).expect("dense ids").resources();

    if !need.fits_within(&state.residual[d]) {
        return None;
    }
    let mut delta = table.end_system(depth, d);
    if !delta.is_finite() {
        return None;
    }

    // Network cost increments for edges whose other endpoint is already
    // placed; track crossings and enforce bandwidth.
    frame.new_crossings.clear();
    frame.extra.clear();
    for &p in graph.predecessors(c) {
        if let Some(pd) = state.assignment[p.index()] {
            if pd != d {
                let tp = graph.edge_throughput(p, c).expect("edge exists");
                frame.new_crossings.push((pd, d, tp));
            }
        }
    }
    for &s in graph.successors(c) {
        if let Some(sd) = state.assignment[s.index()] {
            if sd != d {
                let tp = graph.edge_throughput(c, s).expect("edge exists");
                frame.new_crossings.push((d, sd, tp));
            }
        }
    }
    for &(i, j, tp) in &frame.new_crossings {
        let b = env.bandwidth().get(i, j);
        if b <= EPSILON && tp > EPSILON {
            return None;
        }
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        match frame.extra.iter_mut().find(|e| e.0 == lo && e.1 == hi) {
            Some(e) => e.2 += tp,
            None => frame.extra.push((lo, hi, tp)),
        }
        delta += problem.weights().network() * tp / b;
    }
    // Shared-medium feasibility (matches `OsdProblem::fits`): both
    // directions of a pair draw from the same bandwidth pool.
    for &(i, j, added) in &frame.extra {
        if state.crossing[i][j] + state.crossing[j][i] + added > env.bandwidth().get(i, j) + EPSILON
        {
            return None;
        }
    }
    Some(delta)
}

impl SearchState {
    /// Commits a placement previously validated by [`placement_delta`].
    fn apply(&mut self, c: ComponentId, d: usize, need: &ResourceVector, frame: &ScratchFrame) {
        self.assignment[c.index()] = Some(d);
        self.residual[d] = self.residual[d]
            .saturating_sub(need)
            .expect("dimensions validated");
        for &(i, j, tp) in &frame.new_crossings {
            self.crossing[i][j] += tp;
        }
        self.key.push(d);
    }

    /// Reverts the matching [`SearchState::apply`].
    fn undo(&mut self, c: ComponentId, d: usize, need: &ResourceVector, frame: &ScratchFrame) {
        self.key.pop();
        for &(i, j, tp) in &frame.new_crossings {
            self.crossing[i][j] -= tp;
        }
        self.residual[d] = self.residual[d]
            .checked_add(need)
            .expect("dimensions validated");
        self.assignment[c.index()] = None;
    }
}

/// One depth-first worker: searches the subtree below its starting state,
/// pruning against its local best and (when present) the shared atomic
/// incumbent.
struct Search<'p, 'a, 's> {
    problem: &'p OsdProblem<'a>,
    /// Components still to place, in visiting order.
    order: &'s [ComponentId],
    table: &'s NodeCostTable,
    state: SearchState,
    scratch: Vec<ScratchFrame>,
    /// Whether [`NodeCostTable::suffix`] tightens the pruning bound.
    suffix_bound: bool,
    /// Interior-node cap for anytime mode (`None` = complete search).
    node_budget: Option<u64>,
    /// Shared incumbent cost as `f64` bits (parallel mode only).
    incumbent: Option<&'s AtomicU64>,
    best_cost: f64,
    /// Visiting-order device key of the best leaf, for tie-breaking.
    best_key: Vec<usize>,
    best: Option<Vec<usize>>,
    stats: SolveStats,
}

/// Lowers the shared incumbent to `cost` if it improves on it.
fn relax_incumbent(incumbent: &AtomicU64, cost: f64) {
    let mut current = incumbent.load(Ordering::Relaxed);
    while cost < f64::from_bits(current) {
        match incumbent.compare_exchange_weak(
            current,
            cost.to_bits(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return,
            Err(observed) => current = observed,
        }
    }
}

impl Search<'_, '_, '_> {
    /// The tightest upper bound visible to this worker: its local best or
    /// the fleet-wide incumbent, whichever is lower.
    fn bound(&self) -> f64 {
        match self.incumbent {
            Some(shared) => f64::from_bits(shared.load(Ordering::Relaxed)).min(self.best_cost),
            None => self.best_cost,
        }
    }

    fn run(&mut self, depth: usize, partial_cost: f64) {
        // Strict inequality: an equal-cost leaf may still win the
        // lexicographic tie-break, so plateaus are never cut.
        let suffix = if self.suffix_bound {
            self.table.suffix(depth)
        } else {
            0.0
        };
        if partial_cost + suffix > self.bound() {
            self.stats.pruned_bound += 1;
            return;
        }
        if depth == self.order.len() {
            let improves = partial_cost < self.best_cost
                || (partial_cost == self.best_cost
                    && self.best.is_some()
                    && self.state.key < self.best_key)
                || self.best.is_none();
            if improves {
                self.best_cost = partial_cost;
                self.best_key.clear();
                self.best_key.extend_from_slice(&self.state.key);
                self.best = Some(
                    self.state
                        .assignment
                        .iter()
                        .map(|a| a.expect("complete at leaf"))
                        .collect(),
                );
                if let Some(shared) = self.incumbent {
                    relax_incumbent(shared, partial_cost);
                }
            }
            return;
        }
        if let Some(budget) = self.node_budget {
            if self.stats.nodes_expanded >= budget {
                self.stats.budget_exhausted = true;
                return;
            }
        }
        self.stats.nodes_expanded += 1;

        let c = self.order[depth];
        let need = self
            .problem
            .graph()
            .component(c)
            .expect("dense ids")
            .resources()
            .clone();
        let mut frame = std::mem::take(&mut self.scratch[depth]);
        for d in 0..self.problem.env().device_count() {
            match placement_delta(
                self.problem,
                self.table,
                self.order,
                depth,
                d,
                &self.state,
                &mut frame,
            ) {
                None => self.stats.pruned_infeasible += 1,
                Some(delta) => {
                    self.state.apply(c, d, &need, &frame);
                    self.run(depth + 1, partial_cost + delta);
                    self.state.undo(c, d, &need, &frame);
                }
            }
        }
        self.scratch[depth] = frame;
    }
}

/// A feasible assignment of the first [`FANOUT_DEPTH`] components,
/// carrying the full search state at that frontier.
struct SubtreeRoot {
    state: SearchState,
    cost: f64,
}

/// Enumerates every feasible depth-`fanout` prefix in lexicographic
/// device order, returning the subtree roots the workers will search.
fn expand_roots(
    problem: &OsdProblem<'_>,
    table: &NodeCostTable,
    order: &[ComponentId],
    base: SearchState,
    base_cost: f64,
    fanout: usize,
    stats: &mut SolveStats,
) -> Vec<SubtreeRoot> {
    let mut roots = Vec::new();
    let mut frontier = vec![SubtreeRoot {
        state: base,
        cost: base_cost,
    }];
    let mut frame = ScratchFrame::default();
    for depth in 0..fanout {
        let c = order[depth];
        let need = problem
            .graph()
            .component(c)
            .expect("dense ids")
            .resources()
            .clone();
        let mut next = Vec::new();
        for root in &frontier {
            stats.nodes_expanded += 1;
            for d in 0..problem.env().device_count() {
                match placement_delta(problem, table, order, depth, d, &root.state, &mut frame) {
                    None => stats.pruned_infeasible += 1,
                    Some(delta) => {
                        let mut state = root.state.clone();
                        state.apply(c, d, &need, &frame);
                        next.push(SubtreeRoot {
                            state,
                            cost: root.cost + delta,
                        });
                    }
                }
            }
        }
        frontier = next;
    }
    roots.append(&mut frontier);
    roots
}

/// Replays a warm-start assignment through [`placement_delta`], in
/// visiting order, on a clone of the pinned base state. Returns the
/// `(cost, visiting-order key, full assignment)` of the resulting leaf
/// when the seed is valid — right length, consistent with every pin,
/// in-range devices, and feasible under the current (post-fault)
/// environment — and `None` otherwise.
fn validate_seed(
    problem: &OsdProblem<'_>,
    table: &NodeCostTable,
    order: &[ComponentId],
    base_state: &SearchState,
    base_cost: f64,
    warm: &[usize],
) -> Option<(f64, Vec<usize>, Vec<usize>)> {
    let graph = problem.graph();
    let k = problem.env().device_count();
    if warm.len() != graph.component_count() || warm.iter().any(|&d| d >= k) {
        return None;
    }
    let pins_match = base_state
        .assignment
        .iter()
        .enumerate()
        .all(|(i, a)| a.is_none_or(|d| warm[i] == d));
    if !pins_match {
        return None;
    }
    let mut state = base_state.clone();
    let mut frame = ScratchFrame::default();
    let mut cost = base_cost;
    for (depth, &c) in order.iter().enumerate() {
        let d = warm[c.index()];
        let delta = placement_delta(problem, table, order, depth, d, &state, &mut frame)?;
        let need = graph.component(c).expect("dense ids").resources().clone();
        state.apply(c, d, &need, &frame);
        cost += delta;
    }
    let assignment = state
        .assignment
        .iter()
        .map(|a| a.expect("complete after replay"))
        .collect();
    Some((cost, state.key, assignment))
}

impl ServiceDistributor for ExhaustiveOptimal {
    fn name(&self) -> &str {
        "optimal"
    }

    fn distribute(&mut self, problem: &OsdProblem<'_>) -> Result<Cut, DistributionError> {
        self.last_stats = None;
        let graph = problem.graph();
        let env = problem.env();
        let k = env.device_count();
        let weights = problem.weights().resource();
        let (assignment, residual) = seed_with_pins(problem)?;

        // Pinned components already contribute end-system cost and may
        // contribute pairwise crossings among themselves; rather than
        // special-casing, compute the pinned-only partial cost up front.
        let mut crossing = vec![vec![0.0; k]; k];
        let mut base_cost = 0.0;
        for (id, c) in graph.components() {
            if let Some(d) = assignment[id.index()] {
                let avail = env.devices()[d].availability();
                for (i, &w) in problem.weights().resource().iter().enumerate() {
                    let r = c.resources().get(i).unwrap_or(0.0);
                    if r <= EPSILON {
                        continue;
                    }
                    let ra = avail.get(i).unwrap_or(0.0);
                    if ra <= EPSILON {
                        return Err(DistributionError::Infeasible {
                            reason: format!(
                                "pinned component {} needs a resource device {} lacks",
                                c.name(),
                                env.devices()[d].name()
                            ),
                        });
                    }
                    base_cost += w * r / ra;
                }
            }
        }
        for e in graph.edges() {
            if let (Some(i), Some(j)) = (assignment[e.from.index()], assignment[e.to.index()]) {
                if i != j {
                    let b = env.bandwidth().get(i, j);
                    crossing[i][j] += e.throughput;
                    if crossing[i][j] + crossing[j][i] > b + EPSILON {
                        return Err(DistributionError::Infeasible {
                            reason: "pinned components exceed link bandwidth".into(),
                        });
                    }
                    base_cost += problem.weights().network() * e.throughput / b;
                }
            }
        }

        let mut order: Vec<ComponentId> = graph
            .component_ids()
            .filter(|id| assignment[id.index()].is_none())
            .collect();
        if order.len() > self.node_limit {
            return Err(DistributionError::TooLarge {
                free: order.len(),
                limit: self.node_limit,
            });
        }
        order.sort_by(|&a, &b| {
            let wa = graph
                .component(a)
                .expect("dense")
                .resources()
                .weighted_sum(weights);
            let wb = graph
                .component(b)
                .expect("dense")
                .resources()
                .weighted_sum(weights);
            wb.partial_cmp(&wa)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });

        let table = NodeCostTable::build(problem, &order);
        let base_state = SearchState {
            assignment,
            residual,
            crossing,
            key: Vec::new(),
        };

        // Replay a warm-start seed through the search's own feasibility
        // machinery. A surviving seed is a genuine feasible leaf of this
        // tree, so using it as the initial incumbent only prunes — the
        // unique (cost, key) minimum the search selects is unchanged.
        let seed = self
            .warm_start
            .take()
            .and_then(|warm| validate_seed(problem, &table, &order, &base_state, base_cost, &warm));

        let suffix_bound = self.suffix_bound;
        let node_budget = self.node_budget;
        let seed_ref = seed.as_ref();
        let run_worker =
            |state: SearchState, cost: f64, depth: usize, shared: Option<&AtomicU64>| {
                let mut search = Search {
                    problem,
                    order: &order,
                    table: &table,
                    // Indexed by absolute depth; the frames below `depth` stay
                    // unused in a fanned-out worker but cost nothing.
                    scratch: vec![ScratchFrame::default(); order.len()],
                    state,
                    suffix_bound,
                    node_budget,
                    incumbent: shared,
                    best_cost: seed_ref.map_or(f64::INFINITY, |s| s.0),
                    best_key: seed_ref.map_or_else(Vec::new, |s| s.1.clone()),
                    best: seed_ref.map(|s| s.2.clone()),
                    stats: SolveStats::default(),
                };
                search.run(depth, cost);
                (search.best_cost, search.best_key, search.best, search.stats)
            };

        let mut stats = SolveStats {
            warm_start_used: seed.is_some(),
            ..SolveStats::default()
        };
        let best: Option<Vec<usize>>;
        if self.parallel && order.len() > FANOUT_DEPTH && order.len() >= self.parallel_threshold {
            let roots = expand_roots(
                problem,
                &table,
                &order,
                base_state,
                base_cost,
                FANOUT_DEPTH,
                &mut stats,
            );
            stats.subtrees = roots.len() as u64;
            let incumbent = AtomicU64::new(seed_ref.map_or(f64::INFINITY, |s| s.0).to_bits());
            let worker_results = ubiqos_parallel::par_map(&roots, |_, root| {
                run_worker(
                    root.state.clone(),
                    root.cost,
                    FANOUT_DEPTH,
                    Some(&incumbent),
                )
            });
            // Deterministic reduction: roots were generated in
            // lexicographic prefix order and par_map preserves input
            // order, so scanning for the strict (cost, key) minimum is
            // independent of worker scheduling.
            let mut winner: (f64, Vec<usize>, Option<Vec<usize>>) =
                (f64::INFINITY, Vec::new(), None);
            for (cost, key, found, worker_stats) in worker_results {
                stats.absorb(&worker_stats);
                if found.is_some()
                    && (winner.2.is_none()
                        || cost < winner.0
                        || (cost == winner.0 && key < winner.1))
                {
                    winner = (cost, key, found);
                }
            }
            best = winner.2;
        } else {
            let (_, _, found, worker_stats) = run_worker(base_state, base_cost, 0, None);
            stats.absorb(&worker_stats);
            stats.subtrees = 1;
            best = found;
        }
        self.last_stats = Some(stats);

        match best {
            Some(assignment) => {
                let cut = Cut::from_assignment(graph, assignment, k)
                    .expect("search produces complete in-range assignments");
                debug_assert!(problem.fits(&cut));
                Ok(cut)
            }
            None if stats.budget_exhausted => Err(DistributionError::Infeasible {
                reason: "node budget exhausted before any feasible leaf was found \
                         (raise the budget or provide a warm start)"
                    .into(),
            }),
            None => Err(DistributionError::Infeasible {
                reason: "exhaustive search found no fitting cut".into(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::environment::Environment;
    use crate::heuristic::GreedyHeuristic;
    use ubiqos_graph::{DeviceId, ServiceComponent, ServiceGraph};
    use ubiqos_model::{ResourceVector, Weights};

    fn comp(name: &str, mem: f64, cpu: f64) -> ServiceComponent {
        ServiceComponent::builder(name)
            .resources(ResourceVector::mem_cpu(mem, cpu))
            .build()
    }

    fn env2(bw: f64) -> Environment {
        Environment::builder()
            .device(Device::new("pc", ResourceVector::mem_cpu(256.0, 300.0)))
            .device(Device::new("pda", ResourceVector::mem_cpu(32.0, 100.0)))
            .default_bandwidth_mbps(bw)
            .build()
    }

    /// Brute force over all assignments, for cross-checking.
    fn brute_force(p: &OsdProblem<'_>) -> Option<(Vec<usize>, f64)> {
        let n = p.graph().component_count();
        let k = p.env().device_count();
        let mut best: Option<(Vec<usize>, f64)> = None;
        let total = k.pow(n as u32);
        for code in 0..total {
            let mut c = code;
            let mut assignment = Vec::with_capacity(n);
            for _ in 0..n {
                assignment.push(c % k);
                c /= k;
            }
            let cut = Cut::from_assignment(p.graph(), assignment.clone(), k).unwrap();
            if !p.fits(&cut) {
                continue;
            }
            let cost = p.cost(&cut);
            if best.as_ref().is_none_or(|(_, b)| cost < *b) {
                best = Some((assignment, cost));
            }
        }
        best
    }

    #[test]
    fn matches_brute_force_on_small_graphs() {
        let mut g = ServiceGraph::new();
        let a = g.add_component(comp("a", 40.0, 60.0));
        let b = g.add_component(comp("b", 20.0, 30.0));
        let c = g.add_component(comp("c", 10.0, 20.0));
        let d = g.add_component(comp("d", 8.0, 10.0));
        g.add_edge(a, b, 3.0).unwrap();
        g.add_edge(a, c, 1.0).unwrap();
        g.add_edge(b, d, 2.0).unwrap();
        g.add_edge(c, d, 4.0).unwrap();
        let env = env2(10.0);
        let w = Weights::default();
        let p = OsdProblem::new(&g, &env, &w);

        let cut = ExhaustiveOptimal::new().distribute(&p).unwrap();
        let (_, brute_cost) = brute_force(&p).unwrap();
        assert!(
            (p.cost(&cut) - brute_cost).abs() < 1e-9,
            "b&b cost {} vs brute force {}",
            p.cost(&cut),
            brute_cost
        );
    }

    #[test]
    fn optimal_never_worse_than_heuristic() {
        let mut g = ServiceGraph::new();
        let ids: Vec<_> = (0..8)
            .map(|i| g.add_component(comp(&format!("c{i}"), 5.0 + 3.0 * i as f64, 10.0)))
            .collect();
        for i in 1..ids.len() {
            g.add_edge(ids[i - 1], ids[i], 1.0 + i as f64 * 0.3)
                .unwrap();
        }
        g.add_edge(ids[0], ids[4], 2.0).unwrap();
        let env = env2(20.0);
        let w = Weights::default();
        let p = OsdProblem::new(&g, &env, &w);
        let opt = ExhaustiveOptimal::new().distribute(&p).unwrap();
        let heu = GreedyHeuristic::paper().distribute(&p).unwrap();
        assert!(p.cost(&opt) <= p.cost(&heu) + 1e-9);
        assert!(p.fits(&opt));
    }

    #[test]
    fn respects_pins() {
        let mut g = ServiceGraph::new();
        let a = g.add_component(comp("server", 60.0, 80.0));
        let b = g.add_component(
            ServiceComponent::builder("display")
                .resources(ResourceVector::mem_cpu(4.0, 5.0))
                .pinned_to(DeviceId::from_index(1))
                .build(),
        );
        g.add_edge(a, b, 1.0).unwrap();
        let env = env2(10.0);
        let w = Weights::default();
        let p = OsdProblem::new(&g, &env, &w);
        let cut = ExhaustiveOptimal::new().distribute(&p).unwrap();
        assert_eq!(cut.part_of(b), Some(1));
    }

    #[test]
    fn proves_infeasibility() {
        let mut g = ServiceGraph::new();
        let a = g.add_component(comp("a", 200.0, 200.0));
        let b = g.add_component(comp("b", 200.0, 200.0));
        g.add_edge(a, b, 1.0).unwrap();
        let env = env2(10.0); // only the PC could host either; not both
        let w = Weights::default();
        let p = OsdProblem::new(&g, &env, &w);
        assert!(matches!(
            ExhaustiveOptimal::new().distribute(&p),
            Err(DistributionError::Infeasible { .. })
        ));
    }

    #[test]
    fn bandwidth_constraints_steer_the_optimum() {
        // Two components that both fit anywhere, heavy edge: with a thin
        // link the optimum must co-locate them.
        let mut g = ServiceGraph::new();
        let a = g.add_component(comp("a", 10.0, 10.0));
        let b = g.add_component(comp("b", 10.0, 10.0));
        g.add_edge(a, b, 50.0).unwrap();
        let env = env2(5.0);
        let w = Weights::default();
        let p = OsdProblem::new(&g, &env, &w);
        let cut = ExhaustiveOptimal::new().distribute(&p).unwrap();
        assert_eq!(cut.part_of(a), cut.part_of(b));
    }

    #[test]
    fn node_limit_guards_exponential_instances() {
        let mut g = ServiceGraph::new();
        for i in 0..40 {
            g.add_component(comp(&format!("c{i}"), 1.0, 1.0));
        }
        let env = env2(10.0);
        let w = Weights::default();
        let p = OsdProblem::new(&g, &env, &w);
        let err = ExhaustiveOptimal::new().distribute(&p).unwrap_err();
        assert_eq!(
            err,
            DistributionError::TooLarge {
                free: 40,
                limit: 32
            }
        );
        assert!(err.to_string().contains("limit of 32"));
        // Raising the limit allows the run (this instance prunes fine).
        assert!(ExhaustiveOptimal::new()
            .with_node_limit(48)
            .distribute(&p)
            .is_ok());
        assert_eq!(ExhaustiveOptimal::new().node_limit(), 32);
    }

    #[test]
    fn node_budget_turns_the_search_anytime() {
        // Same shape as `warm_start_prunes_the_search_tree`: ten equal
        // components whose cheap cut hides behind heavy edges, so the
        // cold search does real work before proving the optimum.
        let mut g = ServiceGraph::new();
        let ids: Vec<_> = (0..10)
            .map(|i| g.add_component(comp(&format!("c{i}"), 10.0, 10.0)))
            .collect();
        for i in 1..ids.len() {
            let tp = if i == 5 { 0.1 } else { 3.0 + i as f64 * 0.13 };
            g.add_edge(ids[i - 1], ids[i], tp).unwrap();
        }
        let env = Environment::builder()
            .device(Device::new("d0", ResourceVector::mem_cpu(60.0, 120.0)))
            .device(Device::new("d1", ResourceVector::mem_cpu(60.0, 120.0)))
            .default_bandwidth_mbps(40.0)
            .build();
        let w = Weights::default();
        let p = OsdProblem::new(&g, &env, &w);

        let mut full = ExhaustiveOptimal::new().with_parallel(false);
        let exact = full.distribute(&p).unwrap();
        assert!(!full.last_stats().unwrap().budget_exhausted);
        let full_nodes = full.last_stats().unwrap().nodes_expanded;

        // A tiny budget (just past the first depth-10 dive) stops early,
        // flags it, and still returns a feasible — if not proven-optimal
        // — cut from the leaves it did reach.
        assert!(full_nodes > 12, "fixture must out-size the budget");
        let mut capped = ExhaustiveOptimal::new()
            .with_parallel(false)
            .with_node_budget(Some(12));
        let anytime = capped.distribute(&p).unwrap();
        let stats = capped.last_stats().unwrap();
        assert!(stats.budget_exhausted);
        assert!(stats.nodes_expanded <= 12);
        assert!(p.fits(&anytime));
        assert!(p.cost(&anytime) >= p.cost(&exact) - 1e-12);

        // A budget too small to ever reach a leaf fails loudly instead
        // of claiming infeasibility of the instance.
        let err = ExhaustiveOptimal::new()
            .with_parallel(false)
            .with_node_budget(Some(3))
            .distribute(&p)
            .unwrap_err();
        assert!(err.to_string().contains("budget"));

        // A budget at least the full node count changes nothing.
        let mut roomy = ExhaustiveOptimal::new()
            .with_parallel(false)
            .with_node_budget(Some(full_nodes));
        let same = roomy.distribute(&p).unwrap();
        assert_eq!(same, exact);
        assert!(!roomy.last_stats().unwrap().budget_exhausted);
        assert_eq!(roomy.node_budget(), Some(full_nodes));
    }

    #[test]
    fn empty_graph_is_trivial() {
        let g = ServiceGraph::new();
        let env = env2(10.0);
        let w = Weights::default();
        let p = OsdProblem::new(&g, &env, &w);
        let cut = ExhaustiveOptimal::new().distribute(&p).unwrap();
        assert_eq!(cut.len(), 0);
    }

    #[test]
    fn serial_and_parallel_agree_bit_for_bit() {
        let mut g = ServiceGraph::new();
        let ids: Vec<_> = (0..9)
            .map(|i| g.add_component(comp(&format!("c{i}"), 4.0 + 2.0 * i as f64, 8.0)))
            .collect();
        for i in 1..ids.len() {
            g.add_edge(ids[i - 1], ids[i], 0.4 + i as f64 * 0.2)
                .unwrap();
        }
        g.add_edge(ids[0], ids[5], 1.1).unwrap();
        let env = env2(15.0);
        let w = Weights::default();
        let p = OsdProblem::new(&g, &env, &w);
        let serial = ExhaustiveOptimal::new()
            .with_parallel(false)
            .distribute(&p)
            .unwrap();
        let parallel = ExhaustiveOptimal::new()
            .with_parallel(true)
            .with_parallel_threshold(0)
            .distribute(&p)
            .unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(p.cost(&serial).to_bits(), p.cost(&parallel).to_bits());
    }

    #[test]
    fn stats_are_recorded_and_bounds_prune() {
        let mut g = ServiceGraph::new();
        let ids: Vec<_> = (0..10)
            .map(|i| g.add_component(comp(&format!("c{i}"), 6.0 + i as f64, 9.0)))
            .collect();
        for i in 1..ids.len() {
            g.add_edge(ids[i - 1], ids[i], 0.3).unwrap();
        }
        let env = env2(12.0);
        let w = Weights::default();
        let p = OsdProblem::new(&g, &env, &w);

        let mut solver = ExhaustiveOptimal::new().with_parallel(false);
        assert!(solver.last_stats().is_none());
        solver.distribute(&p).unwrap();
        let stats = solver.last_stats().unwrap();
        assert_eq!(stats.subtrees, 1);
        assert!(stats.nodes_expanded > 0);
        // The suffix bound must actually bite on a 10-node instance: the
        // explored tree stays far below the 2^10 full enumeration.
        assert!(stats.pruned_bound > 0);
        assert!(stats.nodes_expanded < 1 << 10);

        let mut par = ExhaustiveOptimal::new()
            .with_parallel(true)
            .with_parallel_threshold(0);
        par.distribute(&p).unwrap();
        assert!(par.last_stats().unwrap().subtrees > 1);
    }

    #[test]
    fn small_instances_fall_back_to_serial_by_default() {
        // 10 free components < DEFAULT_PARALLEL_THRESHOLD: even with the
        // fan-out requested, the solver runs one serial subtree.
        let mut g = ServiceGraph::new();
        let ids: Vec<_> = (0..10)
            .map(|i| g.add_component(comp(&format!("c{i}"), 6.0 + i as f64, 9.0)))
            .collect();
        for i in 1..ids.len() {
            g.add_edge(ids[i - 1], ids[i], 0.3).unwrap();
        }
        let env = env2(12.0);
        let w = Weights::default();
        let p = OsdProblem::new(&g, &env, &w);
        let mut solver = ExhaustiveOptimal::new().with_parallel(true);
        assert_eq!(solver.parallel_threshold(), 18);
        solver.distribute(&p).unwrap();
        assert_eq!(solver.last_stats().unwrap().subtrees, 1);
    }

    /// A chain instance awkward enough that the cold search does real
    /// work, with one pinned component so seeds interact with pins.
    fn warm_start_fixture() -> (ServiceGraph, Environment) {
        let mut g = ServiceGraph::new();
        let ids: Vec<_> = (0..9)
            .map(|i| g.add_component(comp(&format!("c{i}"), 4.0 + 2.0 * i as f64, 8.0)))
            .collect();
        for i in 1..ids.len() {
            g.add_edge(ids[i - 1], ids[i], 0.4 + i as f64 * 0.2)
                .unwrap();
        }
        g.add_edge(ids[0], ids[5], 1.1).unwrap();
        let env = env2(15.0);
        (g, env)
    }

    #[test]
    fn warm_start_matches_cold_start_bit_for_bit() {
        let (g, env) = warm_start_fixture();
        let w = Weights::default();
        let p = OsdProblem::new(&g, &env, &w);
        let cold = ExhaustiveOptimal::new()
            .with_parallel(false)
            .distribute(&p)
            .unwrap();
        let optimal: Vec<usize> = (0..g.component_count())
            .map(|i| cold.part_of(ComponentId::from_index(i)).unwrap())
            .collect();
        // Seed with the optimum itself and with a feasible non-optimum;
        // both must reproduce the cold cut exactly, in both modes.
        let all_on_pc = vec![0; g.component_count()];
        for seed in [optimal, all_on_pc] {
            for parallel in [false, true] {
                let mut solver = ExhaustiveOptimal::new()
                    .with_parallel(parallel)
                    .with_parallel_threshold(0)
                    .with_warm_start(seed.clone());
                let warm = solver.distribute(&p).unwrap();
                assert_eq!(warm, cold, "seed {seed:?}, parallel={parallel}");
                assert_eq!(p.cost(&warm).to_bits(), p.cost(&cold).to_bits());
                assert!(solver.last_stats().unwrap().warm_start_used);
                // The seed is consumed: a second solve is cold.
                solver.distribute(&p).unwrap();
                assert!(!solver.last_stats().unwrap().warm_start_used);
            }
        }
    }

    #[test]
    fn warm_start_prunes_the_search_tree() {
        // Ten equal components over two devices that each hold six: the
        // cold first dive fills device 0 and splits at the heavy
        // (c5, c6) edge, far from the cheap (c4, c5) cut, so it searches
        // a while before proving the optimum. Seeding that optimum
        // prunes from the first node.
        let mut g = ServiceGraph::new();
        let ids: Vec<_> = (0..10)
            .map(|i| g.add_component(comp(&format!("c{i}"), 10.0, 10.0)))
            .collect();
        for i in 1..ids.len() {
            let tp = if i == 5 { 0.1 } else { 3.0 + i as f64 * 0.13 };
            g.add_edge(ids[i - 1], ids[i], tp).unwrap();
        }
        let env = Environment::builder()
            .device(Device::new("d0", ResourceVector::mem_cpu(60.0, 120.0)))
            .device(Device::new("d1", ResourceVector::mem_cpu(60.0, 120.0)))
            .default_bandwidth_mbps(40.0)
            .build();
        let w = Weights::default();
        let p = OsdProblem::new(&g, &env, &w);
        let mut cold = ExhaustiveOptimal::new().with_parallel(false);
        let cut = cold.distribute(&p).unwrap();
        let cold_nodes = cold.last_stats().unwrap().nodes_expanded;
        let seed: Vec<usize> = (0..g.component_count())
            .map(|i| cut.part_of(ComponentId::from_index(i)).unwrap())
            .collect();
        let mut warm = ExhaustiveOptimal::new()
            .with_parallel(false)
            .with_warm_start(seed);
        let warm_cut = warm.distribute(&p).unwrap();
        assert_eq!(warm_cut, cut);
        let warm_nodes = warm.last_stats().unwrap().nodes_expanded;
        assert!(
            warm_nodes < cold_nodes,
            "warm {warm_nodes} vs cold {cold_nodes}"
        );
    }

    #[test]
    fn invalid_warm_starts_degrade_to_cold() {
        let (g, env) = warm_start_fixture();
        let w = Weights::default();
        let p = OsdProblem::new(&g, &env, &w);
        let cold = ExhaustiveOptimal::new()
            .with_parallel(false)
            .distribute(&p)
            .unwrap();
        let n = g.component_count();
        for bad in [
            vec![0; n - 1], // wrong length
            vec![9; n],     // device out of range
            vec![1; n],     // infeasible: everything on the PDA
        ] {
            let mut solver = ExhaustiveOptimal::new()
                .with_parallel(false)
                .with_warm_start(bad.clone());
            let cut = solver.distribute(&p).unwrap();
            assert_eq!(cut, cold, "seed {bad:?}");
            assert!(!solver.last_stats().unwrap().warm_start_used);
        }
    }

    #[test]
    fn warm_start_respects_pins() {
        let mut g = ServiceGraph::new();
        let a = g.add_component(comp("server", 60.0, 80.0));
        let b = g.add_component(
            ServiceComponent::builder("display")
                .resources(ResourceVector::mem_cpu(4.0, 5.0))
                .pinned_to(DeviceId::from_index(1))
                .build(),
        );
        g.add_edge(a, b, 1.0).unwrap();
        let env = env2(10.0);
        let w = Weights::default();
        let p = OsdProblem::new(&g, &env, &w);
        // Seed contradicting the pin is rejected, not silently obeyed.
        let mut solver = ExhaustiveOptimal::new().with_warm_start(vec![0, 0]);
        let cut = solver.distribute(&p).unwrap();
        assert_eq!(cut.part_of(b), Some(1));
        assert!(!solver.last_stats().unwrap().warm_start_used);
    }

    #[test]
    fn equal_cost_plateau_resolves_to_lexicographic_minimum() {
        // Two identical, disconnected components on two identical devices:
        // every assignment has the same cost, so the tie-break must pick
        // the lexicographically smallest visiting-order key — both on
        // device 0 — in both modes.
        let mut g = ServiceGraph::new();
        let a = g.add_component(comp("a", 10.0, 10.0));
        let b = g.add_component(comp("b", 10.0, 10.0));
        let c = g.add_component(comp("c", 10.0, 10.0));
        let env = Environment::builder()
            .device(Device::new("d0", ResourceVector::mem_cpu(100.0, 100.0)))
            .device(Device::new("d1", ResourceVector::mem_cpu(100.0, 100.0)))
            .default_bandwidth_mbps(10.0)
            .build();
        let w = Weights::default();
        let p = OsdProblem::new(&g, &env, &w);
        for parallel in [false, true] {
            let cut = ExhaustiveOptimal::new()
                .with_parallel(parallel)
                .distribute(&p)
                .unwrap();
            assert_eq!(cut.part_of(a), Some(0), "parallel={parallel}");
            assert_eq!(cut.part_of(b), Some(0), "parallel={parallel}");
            assert_eq!(cut.part_of(c), Some(0), "parallel={parallel}");
        }
    }
}
