//! The domain server: per-domain infrastructure service hosting the
//! configuration model (Section 1: "the service configuration model is
//! implemented as part of the domain server").

use crate::checkpoint::{Checkpoint, HandoffPlan};
use crate::config_cache::{CacheKey, CompositionCache, CompositionCacheStats, SharedGraph};
use crate::cost_model::{CostModel, LinkKind};
use crate::ledger::{self, ChargeLedger, ChargeSummary};
use crate::overhead::ConfigOverhead;
use crate::profiler::StageTimes;
use crate::recovery::{Degradation, RecoveryReport};
use crate::repository::ComponentRepository;
use crate::retry_queue::{ParkedSession, RetryPolicy, RetryQueue};
use crate::streaming::{delivered_qos, DeliveredQos};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use ubiqos::{Configuration, ConfigureError};
use ubiqos_composition::{
    ComposeRequest, ComposedApplication, DegradationLadder, OcReport, ServiceComposer,
};
use ubiqos_discovery::{DeviceProperties, DomainId, ServiceDescriptor, ServiceRegistry};
use ubiqos_distribution::{
    Environment, ExhaustiveOptimal, GreedyHeuristic, OsdProblem, PortfolioRoute,
    ServiceDistributor, SolverPortfolio,
};
use ubiqos_graph::{AbstractServiceGraph, ComponentId, Cut, DeviceId, ServiceGraph};
use ubiqos_model::{QosVector, Weights};

/// Identifier of a session within one domain server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(u64);

impl SessionId {
    /// Builds a session id from its raw value (tests and harnesses).
    pub fn from_raw(raw: u64) -> Self {
        SessionId(raw)
    }

    /// The raw id value.
    pub fn raw(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

/// One running application session.
///
/// Its name, abstract graph and composed application are immutable and
/// shared by reference with the journal and with checkpoints, so
/// cloning a session copies none of them.
#[derive(Clone)]
pub struct Session {
    /// Human-readable application name.
    pub name: Arc<str>,
    /// The abstract application description (kept for recomposition).
    pub abstract_graph: SharedGraph,
    /// The user's QoS requirements.
    pub user_qos: QosVector,
    /// The user's current portal device.
    pub client_device: DeviceId,
    /// The domain the user currently discovers services in (`None` =
    /// whole smart space).
    pub domain: Option<DomainId>,
    /// The live configuration.
    pub configuration: Configuration,
    /// Media position in seconds (advances as the session plays).
    pub position_s: f64,
    /// The degradation-ladder factor the live configuration was placed
    /// at: `1.0` is full quality, lower values mean the session currently
    /// runs degraded (weakened QoS, scaled-down stream throughput).
    pub degrade_factor: f64,
    /// Overhead of every configuration action so far, labeled. A fixed
    /// action's label (`"start"`, `"re-admit from park"`) is static;
    /// one that names devices or a location is rendered per action.
    pub overhead_log: Vec<(Cow<'static, str>, ConfigOverhead)>,
    /// What `configuration` charges and its per-session verdicts,
    /// derived by the one configuration write, `DomainServer::install`
    /// (see [`crate::ledger`]).
    pub(crate) charges: ChargeSummary,
}

/// Every field but the derived charge summary, which is a function of
/// the configuration: it stays out of the server's state fingerprint.
/// The destructuring is exhaustive, so a new field does not compile
/// until it is either printed (and fingerprinted) or skipped here.
impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Session {
            name,
            abstract_graph,
            user_qos,
            client_device,
            domain,
            configuration,
            position_s,
            degrade_factor,
            overhead_log,
            charges: _,
        } = self;
        f.debug_struct("Session")
            .field("name", name)
            .field("abstract_graph", abstract_graph)
            .field("user_qos", user_qos)
            .field("client_device", client_device)
            .field("domain", domain)
            .field("configuration", configuration)
            .field("position_s", position_s)
            .field("degrade_factor", degrade_factor)
            .field("overhead_log", overhead_log)
            .finish()
    }
}

impl Session {
    /// A session that holds no placement yet: an empty configuration
    /// (footprint zero) at full quality, nothing logged. A start
    /// installs its first configuration into it; a parked arrival waits
    /// in the retry queue as it is.
    fn unplaced(
        name: Arc<str>,
        abstract_graph: SharedGraph,
        user_qos: QosVector,
        client_device: DeviceId,
        domain: Option<DomainId>,
    ) -> Session {
        let graph = ServiceGraph::new();
        let cut = Cut::from_assignment(&graph, Vec::new(), 1).expect("empty cut is consistent");
        let configuration = Configuration {
            app: Arc::new(ComposedApplication {
                graph,
                report: OcReport::default(),
                instances: Vec::new(),
            }),
            cut,
            cost: 0.0,
        };
        Session {
            name,
            abstract_graph,
            user_qos,
            client_device,
            domain,
            charges: ChargeSummary::of(&configuration),
            configuration,
            position_s: 0.0,
            degrade_factor: 1.0,
            overhead_log: Vec::new(),
        }
    }

    /// The QoS currently delivered at each sink.
    pub fn measured_qos(&self) -> Vec<DeliveredQos> {
        delivered_qos(&self.configuration.app.graph)
    }

    /// How well the delivered QoS satisfies the user's request, in
    /// `[0, 1]`: the mean [`ubiqos_model::satisfaction`] over all sinks
    /// (1.0 when the user requested nothing or the graph has no sinks).
    pub fn qos_satisfaction(&self) -> f64 {
        let vectors = crate::streaming::sink_delivered_vectors(&self.configuration.app.graph);
        if vectors.is_empty() || self.user_qos.is_empty() {
            return 1.0;
        }
        // Only score the user dimensions each sink's stream carries: a
        // video request's frame rate is not the audio sink's business.
        let scores: Vec<f64> = vectors
            .iter()
            .map(|(_, delivered)| {
                let relevant: QosVector = self
                    .user_qos
                    .iter()
                    .filter(|(dim, _)| delivered.get(dim).is_some())
                    .map(|(d, v)| (d.clone(), v.clone()))
                    .collect();
                ubiqos_model::satisfaction(delivered, &relevant)
            })
            .collect();
        scores.iter().sum::<f64>() / scores.len() as f64
    }
}

/// The set of devices and links whose capacity one fault changed — what
/// incremental recovery derives its invalid-session set from.
#[derive(Debug, Clone, Default)]
struct ResourceDelta {
    devices: BTreeSet<usize>,
    links: BTreeSet<(usize, usize)>,
}

/// How a newly written configuration takes over (Figure 4's last
/// phase): a new session initializes its components, a running or
/// parked one hands its media state off to the new placement.
#[derive(Debug, Clone, Copy)]
enum Activation {
    Initialize,
    Handoff,
}

/// How the domain server's distribution tier places composed graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementStrategy {
    /// The paper's greedy OSD heuristic — the default, and what every
    /// existing experiment's deterministic logs were pinned against.
    #[default]
    Heuristic,
    /// The exhaustive branch-and-bound optimum.
    Optimal {
        /// Seed each recovery re-placement's incumbent with the
        /// session's previous placement (provably result-preserving;
        /// see `ubiqos_distribution::ExhaustiveOptimal`).
        warm_start: bool,
    },
    /// The solver portfolio: greedy seed, then exhaustive B&B, with
    /// oversized graphs routed to the hierarchical
    /// abstraction-refinement solver instead of failing. Bit-identical
    /// to [`Optimal`] on every graph within the exact limit.
    ///
    /// [`Optimal`]: PlacementStrategy::Optimal
    Portfolio {
        /// Seed each recovery re-placement with the session's previous
        /// placement (competes against the greedy seed; the cheaper of
        /// the two becomes the incumbent to beat).
        warm_start: bool,
    },
}

/// Accumulated optimal-solver counters across every [`Optimal`]
/// placement, for the warm-vs-cold `BENCH_configure.json` comparison.
///
/// [`Optimal`]: PlacementStrategy::Optimal
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlacementTotals {
    /// Optimal solves performed.
    pub solves: u64,
    /// Solves whose warm-start seed validated and seeded the incumbent.
    pub warm_solves: u64,
    /// Branch-and-bound nodes expanded, summed over all solves.
    pub nodes_expanded: u64,
    /// Subtrees cut by the incumbent bound, summed over all solves.
    pub pruned_bound: u64,
    /// Portfolio solves routed to the hierarchical solver because the
    /// graph exceeded the exhaustive node limit (zero under
    /// [`Optimal`]).
    ///
    /// [`Optimal`]: PlacementStrategy::Optimal
    pub hierarchical_routes: u64,
}

/// The per-domain infrastructure server: registry + environment +
/// repository + the two-tier configurator. Each session's overhead log
/// records every reconfiguration it went through.
///
/// The server accounts every running session against the device
/// capacities: configuration requests see the *residual* environment, so
/// concurrent applications genuinely compete for the smart space's
/// resources (and for link bandwidth, which is charged as a shared pool).
///
/// Fault handling runs the staged degrade → park → retry → drop pipeline
/// (see [`crate::recovery`]): sessions untouched by a fault keep their
/// placement, affected sessions walk the [`DegradationLadder`] before
/// being parked in the [`RetryQueue`], and only retry-budget exhaustion
/// drops a session.
///
/// The rarely written tables — registry, pristine capacities, component
/// repository, device properties and link kinds — sit behind `Arc`: a
/// checkpoint shares them, and a write goes through `Arc::make_mut`,
/// which copies a table only while a checkpoint still shares it.
pub struct DomainServer {
    registry: Arc<ServiceRegistry>,
    /// Pristine capacities as built, before any crash/fluctuation: the
    /// reference state crashed devices recover to.
    pristine: Arc<Environment>,
    /// Full current capacities (what the devices could offer if idle).
    capacity: Environment,
    /// Residual environment: capacity minus every live session's charge.
    env: Environment,
    /// The running sum of every live session's charge summary, updated
    /// wherever `env` is charged or refunded and rebuilt with it: what
    /// [`DomainServer::check_ledger`] checks `env` against.
    ledger: ChargeLedger,
    /// Link kind per device (indexes match the environment).
    links: Arc<[LinkKind]>,
    /// Device properties per device, for client-side discovery filtering.
    device_props: Arc<[DeviceProperties]>,
    repository: Arc<ComponentRepository>,
    costs: CostModel,
    sessions: BTreeMap<u64, Session>,
    /// Link bandwidths degraded independently of any crash, keyed by the
    /// ordered endpoint pair: the value a recovering device's links must
    /// return to *instead of* pristine (the coarse-recovery fix).
    link_overrides: BTreeMap<(usize, usize), f64>,
    /// Service instances unregistered because their hosting device
    /// crashed, keyed by device index; re-registered on recovery.
    hosted_stash: BTreeMap<usize, Vec<ServiceDescriptor>>,
    /// Parked sessions awaiting retry.
    parked: RetryQueue,
    /// The QoS downgrade ladder recovery walks before parking a session.
    ladder: DegradationLadder,
    /// Backoff/budget policy for parked-session retries.
    retry_policy: RetryPolicy,
    /// Cross-request composition memo, epoch-validated against the
    /// registry (a `Mutex` because `configure` runs on `&self`).
    config_cache: Mutex<CompositionCache>,
    /// Distribution-tier strategy.
    placement: PlacementStrategy,
    /// The cost weights every placement is made and priced at.
    weights: Weights,
    /// Persistent greedy heuristic for `Heuristic` placements: its
    /// workspace keeps a configure's placement allocation-free.
    heuristic: Mutex<GreedyHeuristic>,
    /// Persistent exhaustive solver, shared across every `Optimal`
    /// placement of a recovery pass.
    optimal: Mutex<ExhaustiveOptimal>,
    /// Persistent solver portfolio for `Portfolio` placements.
    portfolio: Mutex<SolverPortfolio>,
    /// Accumulated optimal-solver counters.
    placement_totals: Mutex<PlacementTotals>,
    /// Wall-clock per-stage profile of every configure call.
    stages: Mutex<StageTimes>,
    /// Ground-truth set of devices currently unreachable from this
    /// server (crashed or partitioned), injected by the fault harness.
    /// Placement never reads it — only the download/activation step
    /// does, which is what makes stale-view admissions fail *witnessed*
    /// instead of silently succeeding. Empty in perfect-detection mode.
    unreachable: BTreeSet<usize>,
    /// Devices the failure detector currently suspects (registry lease
    /// expired without a heartbeat renewal). The detector's *belief*,
    /// which may lag — or falsely lead — the ground truth above.
    suspected: BTreeSet<usize>,
    /// Witnessed stale-view activation failures (atomic: the check runs
    /// inside `configure`, which is `&self`).
    stale_views: AtomicU64,
    /// Which federation shard this server runs as (`0` when unsharded).
    /// Only routes wall-clock queue-wait samples to their per-shard
    /// histogram slot — never read by any deterministic path.
    shard_index: usize,
    next_session: u64,
    now_ms: f64,
}

impl fmt::Debug for DomainServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DomainServer")
            .field("devices", &self.env.device_count())
            .field("sessions", &self.sessions.len())
            .field("now_ms", &self.now_ms)
            .finish()
    }
}

impl DomainServer {
    /// Creates a domain server over an environment.
    ///
    /// # Panics
    ///
    /// Panics when `links`/`device_props` lengths do not match the
    /// environment's device count (scenario construction error).
    pub fn new(
        env: Environment,
        links: Vec<LinkKind>,
        device_props: Vec<DeviceProperties>,
    ) -> Self {
        assert_eq!(links.len(), env.device_count(), "one link kind per device");
        assert_eq!(
            device_props.len(),
            env.device_count(),
            "one property set per device"
        );
        let dim = env.device(0).map_or(0, |dev| dev.availability().dim());
        DomainServer {
            registry: Arc::new(ServiceRegistry::new()),
            pristine: Arc::new(env.clone()),
            capacity: env.clone(),
            ledger: ChargeLedger::new(env.device_count(), dim),
            env,
            links: links.into(),
            device_props: device_props.into(),
            repository: Arc::new(ComponentRepository::new()),
            costs: CostModel::default(),
            sessions: BTreeMap::new(),
            link_overrides: BTreeMap::new(),
            hosted_stash: BTreeMap::new(),
            parked: RetryQueue::new(),
            ladder: DegradationLadder::default(),
            retry_policy: RetryPolicy::default(),
            config_cache: Mutex::new(CompositionCache::new()),
            placement: PlacementStrategy::default(),
            weights: Weights::default(),
            heuristic: Mutex::new(GreedyHeuristic::paper()),
            optimal: Mutex::new(ExhaustiveOptimal::new()),
            portfolio: Mutex::new(SolverPortfolio::new()),
            placement_totals: Mutex::new(PlacementTotals::default()),
            stages: Mutex::new(StageTimes::default()),
            unreachable: BTreeSet::new(),
            suspected: BTreeSet::new(),
            stale_views: AtomicU64::new(0),
            shard_index: 0,
            next_session: 0,
            now_ms: 0.0,
        }
    }

    /// A faithful copy of this server's *durable* state, for the
    /// durability layer's snapshot checkpoints (`runtime::durability`).
    ///
    /// Everything a crash-recovered server needs to behave identically
    /// is carried over: registry (with leases), environments, sessions,
    /// the retry queue, degradation/retry/recovery policy, link
    /// overrides, the crashed-host service stash, detector belief sets,
    /// the session-id/clock counters, and the derived charge ledger
    /// (each session's charge summary travels with its clone).
    ///
    /// What is immutable or rarely written is shared, not copied: each
    /// session's name, abstract graph and composed application, and the
    /// registry, pristine capacities, component repository, device
    /// properties and link kinds. The copy and the original write
    /// those tables through `Arc::make_mut`, so neither sees the
    /// other's writes. Per-session placements (cuts), overhead logs and
    /// charge summaries, the residual and capacity environments, the
    /// ledger and the retry queue are copied.
    ///
    /// Soft state is treated as volatile — the composition cache
    /// restarts cold (cache-on ≡ cache-off is pinned for every
    /// observable output); solver state and profiling counters are
    /// carried over so bench accounting survives a checkpoint
    /// unchanged.
    pub fn clone_for_checkpoint(&self) -> DomainServer {
        DomainServer {
            registry: Arc::clone(&self.registry),
            pristine: Arc::clone(&self.pristine),
            capacity: self.capacity.clone(),
            env: self.env.clone(),
            ledger: self.ledger.clone(),
            links: Arc::clone(&self.links),
            device_props: Arc::clone(&self.device_props),
            repository: Arc::clone(&self.repository),
            costs: self.costs.clone(),
            sessions: self.sessions.clone(),
            link_overrides: self.link_overrides.clone(),
            hosted_stash: self.hosted_stash.clone(),
            parked: self.parked.clone(),
            ladder: self.ladder.clone(),
            retry_policy: self.retry_policy,
            config_cache: Mutex::new(CompositionCache::new()),
            placement: self.placement,
            weights: self.weights.clone(),
            heuristic: Mutex::new(self.heuristic.lock().expect("heuristic lock").clone()),
            optimal: Mutex::new(self.optimal.lock().expect("solver lock").clone()),
            portfolio: Mutex::new(self.portfolio.lock().expect("portfolio lock").clone()),
            placement_totals: Mutex::new(*self.placement_totals.lock().expect("totals lock")),
            stages: Mutex::new(self.stages.lock().expect("stages lock").clone()),
            unreachable: self.unreachable.clone(),
            suspected: self.suspected.clone(),
            stale_views: AtomicU64::new(self.stale_views.load(Ordering::Relaxed)),
            shard_index: self.shard_index,
            next_session: self.next_session,
            now_ms: self.now_ms,
        }
    }

    /// A deterministic digest of the durable state — the recovery
    /// contract's tripwire. Two servers with equal fingerprints agree
    /// on everything that can influence future deterministic behaviour:
    /// clock, counters, environments, session table, retry queue,
    /// policies, detector belief, and the registry's authoritative
    /// contents. Volatile soft state (caches, memos, profiling) is
    /// deliberately excluded — a cold-cache recovered server must
    /// fingerprint equal to the warm original — and so is derived state:
    /// the charge ledger and each session's charge summary are functions
    /// of the configurations already fingerprinted, and the ledger's
    /// running sums may differ from a fresh fold in the last bits.
    pub fn state_fingerprint(&self) -> u64 {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(4096);
        let _ = write!(
            s,
            "now_ms={:x} next={} shard={} stale={} placement={:?} policy={:?} ladder={:?}",
            self.now_ms.to_bits(),
            self.next_session,
            self.shard_index,
            self.stale_views.load(Ordering::Relaxed),
            self.placement,
            self.retry_policy,
            self.ladder,
        );
        let _ = write!(
            s,
            "|env={:?}|cap={:?}|pristine={:?}|links={:?}|overrides={:?}|stash={:?}",
            self.env,
            self.capacity,
            self.pristine,
            self.links,
            self.link_overrides,
            self.hosted_stash,
        );
        let _ = write!(
            s,
            "|unreachable={:?}|suspected={:?}|parked={:?}",
            self.unreachable, self.suspected, self.parked
        );
        let _ = write!(
            s,
            "|registry_epoch={}|leases={:?}",
            self.registry.epoch(),
            self.registry.lease_table(),
        );
        for (id, session) in &self.sessions {
            let _ = write!(s, "|s{id}={session:?}");
        }
        ubiqos::fault_report::fnv1a(s.as_bytes())
    }

    /// Replaces the QoS downgrade ladder recovery walks before parking a
    /// session. [`DegradationLadder::strict`] disables degradation.
    pub fn set_ladder(&mut self, ladder: DegradationLadder) {
        self.ladder = ladder;
    }

    /// The configured degradation ladder.
    pub fn ladder(&self) -> &DegradationLadder {
        &self.ladder
    }

    /// Replaces the parked-session retry policy. [`RetryPolicy::strict`]
    /// disables parking: ladder exhaustion drops immediately.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry_policy = policy;
    }

    /// The configured retry policy.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.retry_policy
    }

    /// Enables or disables the configuration caches — the composition
    /// memo and the registry's discovery memo — together. All observable
    /// outputs (configurations, virtual overheads, event logs, digests)
    /// are identical either way; the toggle exists for the cold-cache
    /// benchmark runs and the cache-equivalence tests.
    pub fn set_config_cache(&mut self, enabled: bool) {
        self.config_cache
            .lock()
            .expect("config cache lock")
            .set_enabled(enabled);
        Arc::make_mut(&mut self.registry).set_query_memo(enabled);
    }

    /// Composition-cache counters.
    pub fn config_cache_stats(&self) -> CompositionCacheStats {
        self.config_cache.lock().expect("config cache lock").stats()
    }

    /// Selects the distribution-tier placement strategy.
    pub fn set_placement_strategy(&mut self, strategy: PlacementStrategy) {
        self.placement = strategy;
    }

    /// The active placement strategy.
    pub fn placement_strategy(&self) -> PlacementStrategy {
        self.placement
    }

    /// Accumulated optimal-solver counters (all zero under
    /// [`PlacementStrategy::Heuristic`]).
    pub fn placement_totals(&self) -> PlacementTotals {
        *self.placement_totals.lock().expect("placement totals lock")
    }

    /// Resets the optimal-solver counters.
    pub fn reset_placement_totals(&mut self) {
        *self.placement_totals.lock().expect("placement totals lock") = PlacementTotals::default();
    }

    /// Wall-clock per-stage configuration profile accumulated so far.
    pub fn stage_times(&self) -> StageTimes {
        self.stages.lock().expect("stage lock").clone()
    }

    /// Records one queue-wait sample (µs) into the stage profile,
    /// attributed to this server's shard slot — no single global
    /// admission queue is assumed. The pipeline runtime records the
    /// wall-clock wait between an event's batch admission and its
    /// deterministic commit; the federation records a message's virtual
    /// send-to-delivery delay. Never observable in logs.
    pub fn record_queue_wait_us(&self, us: u64) {
        self.stages
            .lock()
            .expect("stage lock")
            .record_shard_queue_wait(self.shard_index, us);
    }

    /// Records one fully-acknowledged payload's retransmission count
    /// into the stage profile, attributed to this server's shard slot
    /// (this server was the sender). Wall-clock-profile only — never
    /// observable in logs.
    pub fn record_retransmits(&self, retransmits: u64) {
        self.stages
            .lock()
            .expect("stage lock")
            .record_shard_retransmit(self.shard_index, retransmits);
    }

    /// Declares which federation shard this server runs as, so queue-wait
    /// samples land in the matching per-shard histogram slot.
    pub fn set_shard_index(&mut self, shard: usize) {
        self.shard_index = shard;
    }

    /// The shard index this server runs as (`0` when unsharded).
    pub fn shard_index(&self) -> usize {
        self.shard_index
    }

    /// Records one admitted batch's size into the stage profile.
    pub fn record_batch_size(&self, events: usize) {
        self.stages
            .lock()
            .expect("stage lock")
            .batch_sizes
            .record(events as u64);
    }

    /// The number of sessions parked in the retry queue.
    pub fn parked_count(&self) -> usize {
        self.parked.len()
    }

    /// Iterates over the parked sessions in id order.
    pub fn parked_sessions(&self) -> impl Iterator<Item = (SessionId, &ParkedSession)> {
        self.parked.iter().map(|(id, p)| (SessionId(id), p))
    }

    /// Mutable access to the service registry (device/service arrival and
    /// departure).
    pub fn registry_mut(&mut self) -> &mut ServiceRegistry {
        Arc::make_mut(&mut self.registry)
    }

    /// The registry.
    pub fn registry(&self) -> &ServiceRegistry {
        &self.registry
    }

    /// Mutable access to the component repository (pre-installation).
    pub fn repository_mut(&mut self) -> &mut ComponentRepository {
        Arc::make_mut(&mut self.repository)
    }

    /// The *residual* environment: current capacities minus every live
    /// session's charge.
    pub fn env(&self) -> &Environment {
        &self.env
    }

    /// The full current capacities (what idle devices could offer).
    pub fn capacity(&self) -> &Environment {
        &self.capacity
    }

    /// The pristine capacities the server was built with, untouched by
    /// any crash or fluctuation — the reference state fault injectors
    /// scale degradation factors against.
    pub fn pristine(&self) -> &Environment {
        &self.pristine
    }

    /// The number of live sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Current wall-clock time in ms since domain start.
    pub fn now_ms(&self) -> f64 {
        self.now_ms
    }

    /// Borrows a session.
    pub fn session(&self, id: SessionId) -> Option<&Session> {
        self.sessions.get(&id.0)
    }

    /// Iterates over every live session in id order (the order recovery
    /// passes process them in).
    pub fn sessions(&self) -> impl Iterator<Item = (SessionId, &Session)> {
        self.sessions.iter().map(|(&id, s)| (SessionId(id), s))
    }

    /// Probes whether an application could be configured *right now*
    /// against the residual environment, without starting a session or
    /// charging anything. Fault-injection harnesses use this to verify
    /// that admission denials and recovery drops are genuine.
    pub fn can_place(
        &self,
        abstract_graph: &AbstractServiceGraph,
        user_qos: &QosVector,
        client_device: DeviceId,
        domain: Option<DomainId>,
    ) -> bool {
        self.preview(abstract_graph, user_qos, client_device, domain)
            .is_ok()
    }

    /// Runs the full two-tier pipeline against the residual environment
    /// and returns the configuration it *would* deploy — without starting
    /// a session, charging resources, downloading code, or advancing
    /// virtual time. Equivalence tests use this to compare cached and
    /// fresh configuration byte for byte.
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigureError`] from either tier.
    pub fn preview(
        &self,
        abstract_graph: &AbstractServiceGraph,
        user_qos: &QosVector,
        client_device: DeviceId,
        domain: Option<DomainId>,
    ) -> Result<Configuration, ConfigureError> {
        let graph = SharedGraph::new(abstract_graph.clone());
        self.configure(&graph, user_qos, client_device, domain)
            .map(|(configuration, _)| configuration)
    }

    /// Advances wall-clock and every session's media position by
    /// `seconds` of playback.
    pub fn play(&mut self, seconds: f64) {
        self.now_ms += seconds * 1000.0;
        for s in self.sessions.values_mut() {
            s.position_s += seconds;
        }
    }

    /// Starts an application session on behalf of a user at
    /// `client_device`: composes, distributes, downloads missing
    /// component code, and initializes. A plain graph is wrapped into a
    /// [`SharedGraph`] once, here; a shared one is taken as it is.
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigureError`] from either tier; the session is not
    /// created on failure.
    pub fn start_session(
        &mut self,
        name: impl Into<Arc<str>>,
        abstract_graph: impl Into<SharedGraph>,
        user_qos: QosVector,
        client_device: DeviceId,
    ) -> Result<SessionId, ConfigureError> {
        self.start_session_in_domain(name, abstract_graph, user_qos, client_device, None)
    }

    /// Starts a session whose discovery is scoped to `domain` (and its
    /// ancestors). See [`DomainServer::start_session`].
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigureError`] from either tier.
    pub fn start_session_in_domain(
        &mut self,
        name: impl Into<Arc<str>>,
        abstract_graph: impl Into<SharedGraph>,
        user_qos: QosVector,
        client_device: DeviceId,
        domain: Option<DomainId>,
    ) -> Result<SessionId, ConfigureError> {
        let abstract_graph = abstract_graph.into();
        let speculated =
            self.speculate_configure(&abstract_graph, &user_qos, client_device, domain);
        self.open_session(
            move || name.into(),
            &abstract_graph,
            user_qos,
            client_device,
            domain,
            speculated,
        )
    }

    /// Stops a session, refunding its resources and returning it. A
    /// *parked* session is removed from the retry queue instead — it
    /// holds no resources, so nothing is refunded.
    pub fn stop_session(&mut self, id: SessionId) -> Option<Session> {
        if let Some(s) = self.sessions.remove(&id.0) {
            self.refund(&s.charges);
            return Some(s);
        }
        self.parked.remove(id.0).map(|parked| parked.session)
    }

    /// Parks an application *arrival* that could not be activated — the
    /// stale-view admission path. The session never held a placement, so
    /// it enters the retry queue with an empty configuration (footprint
    /// zero) and `error` as its witness; the next retry or eager
    /// recovery drain configures it from scratch. Nothing is charged and
    /// nothing needs refunding — the failed `configure` call already
    /// guaranteed that.
    ///
    /// Returns the allocated session id, which behaves exactly like an
    /// admitted-then-parked session for [`DomainServer::stop_session`]
    /// and [`DomainServer::process_retries`].
    pub fn park_arrival(
        &mut self,
        name: impl Into<Arc<str>>,
        abstract_graph: impl Into<SharedGraph>,
        user_qos: QosVector,
        client_device: DeviceId,
        domain: Option<DomainId>,
        error: ConfigureError,
    ) -> SessionId {
        let id = SessionId(self.next_session);
        self.next_session += 1;
        let session = Session::unplaced(
            name.into(),
            abstract_graph.into(),
            user_qos,
            client_device,
            domain,
        );
        self.parked
            .park(id.0, session, error, self.now_ms, &self.retry_policy);
        id
    }

    /// Handles a portal switch (e.g. PC → PDA): recomposes for the new
    /// client device, redistributes, downloads anything missing, and
    /// performs state handoff so the media "continues from the
    /// interruption point".
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigureError`]; on failure the old configuration
    /// stays live.
    pub fn switch_device(
        &mut self,
        id: SessionId,
        new_device: DeviceId,
    ) -> Result<HandoffPlan, ConfigureError> {
        let s = self
            .sessions
            .get(&id.0)
            .expect("switch_device on a live session");
        let label = format!("switch {} -> {new_device}", s.client_device);
        self.relocate(id, new_device, s.domain, label.into())
    }

    /// Handles user mobility: the user (and their portal) moved to a new
    /// location/domain, so "the previous service components may no longer
    /// be available" — the session is recomposed against the services
    /// visible from the new domain, with state handoff.
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigureError`]; on failure the old configuration
    /// stays live (and the session keeps its old domain).
    pub fn move_user(
        &mut self,
        id: SessionId,
        new_domain: Option<DomainId>,
        new_device: DeviceId,
    ) -> Result<HandoffPlan, ConfigureError> {
        let location = new_domain.map_or("the whole space".to_owned(), |d| {
            self.registry
                .domain(d)
                .map_or_else(|| d.to_string(), |dom| dom.name.clone())
        });
        let label = format!("move to {location}");
        self.relocate(id, new_device, new_domain, label.into())
    }

    /// Re-places live session `id` for the client `new_device` in
    /// `new_domain`, with state handoff, logging the overhead under
    /// `label`: the shared tail of a portal switch and a user move. The
    /// session leaves the table while its old charge is refunded, since
    /// the new configuration may reuse the same devices; on failure the
    /// old charge is restored and the session returns unchanged.
    fn relocate(
        &mut self,
        id: SessionId,
        new_device: DeviceId,
        new_domain: Option<DomainId>,
        label: Cow<'static, str>,
    ) -> Result<HandoffPlan, ConfigureError> {
        let mut session = self
            .sessions
            .remove(&id.0)
            .expect("relocate a live session");
        self.refund(&session.charges);
        let placed = match self.configure(
            &session.abstract_graph,
            &session.user_qos,
            new_device,
            new_domain,
        ) {
            Ok(placed) => placed,
            Err(e) => {
                self.recharge(&session.charges);
                self.sessions.insert(id.0, session);
                return Err(e);
            }
        };
        let checkpoint = Checkpoint::capture(session.position_s, self.now_ms);
        let plan = HandoffPlan::new(checkpoint, self.links[new_device.index()], &self.costs);
        session.client_device = new_device;
        session.domain = new_domain;
        session.degrade_factor = 1.0;
        self.install(id.0, session, placed, Activation::Handoff, label);
        Ok(plan)
    }

    /// Handles a device crash (Section 3.3: "if one of old devices
    /// crashes, the service distributor needs to calculate new service
    /// distributions for the changed resource availability").
    ///
    /// Delegates to [`DomainServer::handle_crash_many`] with a
    /// single-device scope.
    pub fn handle_crash(&mut self, device: DeviceId) -> RecoveryReport {
        self.handle_crash_many(&[device])
    }

    /// Handles a correlated crash: every device in `devices` goes down
    /// together (a rack, a room, a shared power feed), followed by **one**
    /// combined recovery pass over the union of the changed resources.
    ///
    /// Each crashed device's capacity and links drop to zero, and every
    /// service instance *hosted* on it (prototype pinned to the device)
    /// is unregistered from discovery until the device recovers — so
    /// re-composition of affected sessions falls back to surviving
    /// instances instead of failing on an unplaceable pin.
    pub fn handle_crash_many(&mut self, devices: &[DeviceId]) -> RecoveryReport {
        let label = match devices {
            [single] => format!("recover from {single} crash"),
            _ => {
                let names: Vec<String> = devices.iter().map(ToString::to_string).collect();
                format!("recover from correlated crash of {}", names.join("+"))
            }
        };
        self.take_down_many(devices, &label, false)
    }

    /// The failure detector suspects `devices`: their registry leases
    /// expired without a heartbeat renewal. The *effect* is exactly a
    /// crash — capacity zeroed, hosted instances hidden from discovery,
    /// touching sessions re-placed or parked through the staged
    /// pipeline — because the detector cannot tell a crash from a
    /// partition. Only the bookkeeping differs: the device joins the
    /// suspected set and its lease is revoked, recording that this is a
    /// belief, not ground truth, and may be withdrawn by
    /// [`DomainServer::heartbeat`].
    pub fn suspect_many(&mut self, devices: &[DeviceId]) -> RecoveryReport {
        let names: Vec<String> = devices.iter().map(ToString::to_string).collect();
        let label = format!("park off suspected {}", names.join("+"));
        self.take_down_many(devices, &label, true)
    }

    fn take_down_many(
        &mut self,
        devices: &[DeviceId],
        label: &str,
        suspicion: bool,
    ) -> RecoveryReport {
        let mut delta = ResourceDelta::default();
        for &device in devices {
            let d = device.index();
            if suspicion {
                self.suspected.insert(d);
                // Revoke so the same expired lease is never acted on
                // twice by a later anti-entropy sweep.
                Arc::make_mut(&mut self.registry).revoke_lease(d);
            }
            if let Some(dev) = self.capacity.device_mut(d) {
                let dim = dev.availability().dim();
                dev.set_availability(ubiqos_model::ResourceVector::zero(dim));
            }
            delta.devices.insert(d);
            for other in 0..self.capacity.device_count() {
                if other != d {
                    self.capacity.bandwidth_mut().set(d, other, 0.0);
                    delta.links.insert((d.min(other), d.max(other)));
                }
            }
            let hosted: Vec<String> = self
                .registry
                .hosted_on(d)
                .into_iter()
                .map(|desc| desc.instance_id.clone())
                .collect();
            let registry = Arc::make_mut(&mut self.registry);
            for instance_id in hosted {
                if let Some(desc) = registry.unregister(&instance_id) {
                    self.hosted_stash.entry(d).or_default().push(desc);
                }
            }
        }
        self.recovery_pass(label, &delta)
    }

    /// Brings a crashed (or degraded) device back: its capacity returns
    /// to the *pristine* value the server was built with, its hosted
    /// service instances are re-registered, and its links return to
    /// pristine **except** where a fault degraded the link independently
    /// via [`DomainServer::degrade_link`] (those keep their degraded
    /// bandwidth — a rebooted node does not repair the network around it)
    /// or where the other endpoint is still down (those stay at zero).
    pub fn recover_device(&mut self, device: DeviceId) -> RecoveryReport {
        let label = format!("re-place after {device} recovery");
        self.bring_up(device, &label)
    }

    /// Withdraws a suspicion: the device's lease was renewed again (its
    /// heartbeats reached the server after a heal or recovery), so its
    /// capacity and hosted instances are restored exactly as after a
    /// real crash+recovery. For a *falsely*
    /// suspected device (healthy behind a partition) this is the clean
    /// undo the detector owes it: parked sessions become placeable again
    /// and the eager retry drain inside the recovery pass re-admits
    /// them.
    pub fn reinstate_device(&mut self, device: DeviceId) -> RecoveryReport {
        self.suspected.remove(&device.index());
        let label = format!("re-place after {device} reinstatement");
        self.bring_up(device, &label)
    }

    fn bring_up(&mut self, device: DeviceId, label: &str) -> RecoveryReport {
        let d = device.index();
        if let (Some(dev), Some(fresh)) = (self.capacity.device_mut(d), self.pristine.device(d)) {
            dev.set_availability(fresh.availability().clone());
        }
        let mut delta = ResourceDelta::default();
        delta.devices.insert(d);
        for other in 0..self.capacity.device_count() {
            if other != d {
                let key = (d.min(other), d.max(other));
                let other_down = self
                    .capacity
                    .device(other)
                    .is_some_and(|dev| dev.availability().is_zero());
                let mbps = if other_down {
                    0.0
                } else {
                    self.link_overrides
                        .get(&key)
                        .copied()
                        .unwrap_or_else(|| self.pristine.bandwidth().get(d, other))
                };
                self.capacity.bandwidth_mut().set(d, other, mbps);
                delta.links.insert(key);
            }
        }
        if let Some(stash) = self.hosted_stash.remove(&d) {
            let registry = Arc::make_mut(&mut self.registry);
            for desc in stash {
                registry.register(desc);
            }
        }
        self.recovery_pass(label, &delta)
    }

    /// Records a heartbeat from `device`: its registry lease is renewed
    /// to `now + grace_ms` of server virtual time. If the device was
    /// *suspected*, the heartbeat is also the anti-entropy signal that
    /// the suspicion is stale (the device healed, or recovered and came
    /// back) — it is reinstated and the recovery pass's report returned.
    ///
    /// Renewal itself is epoch-neutral on the registry: steady-state
    /// heartbeats do not invalidate composition caches.
    pub fn heartbeat(&mut self, device: DeviceId, grace_ms: f64) -> Option<RecoveryReport> {
        let expiry = (self.now_ms + grace_ms) as u64;
        Arc::make_mut(&mut self.registry).renew_lease(device.index(), expiry);
        if self.suspected.contains(&device.index()) {
            Some(self.reinstate_device(device))
        } else {
            None
        }
    }

    /// The anti-entropy sweep on lease expiry: every device whose lease
    /// has expired at the server's current virtual time — and that is
    /// not already suspected — becomes suspected via
    /// [`DomainServer::suspect_many`]. Returns the newly suspected
    /// devices paired with their recovery reports, in ascending device
    /// order (deterministic for a given state).
    pub fn expire_overdue_leases(&mut self) -> Vec<(DeviceId, RecoveryReport)> {
        let overdue: Vec<usize> = self
            .registry
            .expired_leases(self.now_ms as u64)
            .into_iter()
            .filter(|d| !self.suspected.contains(d))
            .collect();
        overdue
            .into_iter()
            .map(|d| {
                let device = DeviceId::from_index(d);
                let report = self.suspect_many(&[device]);
                (device, report)
            })
            .collect()
    }

    /// Ground-truth reachability injection: the fault harness marks
    /// devices unreachable (crashed, or partitioned away from this
    /// server) so the download/activation step can fail placements the
    /// detector's stale view allowed. Placement and composition never
    /// read this set — that is the whole point: the control plane acts
    /// on its *belief*, and reality pushes back only at activation time.
    /// Perfect-detection campaigns never call this, leaving the check
    /// inert.
    pub fn set_reachable(&mut self, device: DeviceId, reachable: bool) {
        if reachable {
            self.unreachable.remove(&device.index());
        } else {
            self.unreachable.insert(device.index());
        }
    }

    /// Whether the failure detector currently suspects `device`.
    pub fn is_suspected(&self, device: DeviceId) -> bool {
        self.suspected.contains(&device.index())
    }

    /// Device indices the failure detector currently suspects.
    pub fn suspected_devices(&self) -> &BTreeSet<usize> {
        &self.suspected
    }

    /// Witnessed stale-view activation failures so far (monotone).
    pub fn stale_view_count(&self) -> u64 {
        self.stale_views.load(Ordering::Relaxed)
    }

    /// Applies a link-bandwidth fluctuation: the capacity of the `a`-`b`
    /// link becomes `mbps` (degradation or restoration). The value is
    /// remembered as the link's own state, surviving crash/recovery
    /// cycles of its endpoints, until a later fluctuation restores the
    /// pristine bandwidth. Affected sessions are re-placed through the
    /// staged pipeline; if an endpoint is currently down the link's
    /// capacity stays at zero (only the override is recorded).
    pub fn degrade_link(&mut self, a: DeviceId, b: DeviceId, mbps: f64) -> RecoveryReport {
        let key = (a.index().min(b.index()), a.index().max(b.index()));
        let pristine_mbps = self.pristine.bandwidth().get(key.0, key.1);
        if mbps == pristine_mbps {
            self.link_overrides.remove(&key);
        } else {
            self.link_overrides.insert(key, mbps);
        }
        let endpoint_down = [key.0, key.1].into_iter().any(|d| {
            self.capacity
                .device(d)
                .is_some_and(|dev| dev.availability().is_zero())
        });
        if !endpoint_down {
            self.capacity.bandwidth_mut().set(key.0, key.1, mbps);
        }
        let mut delta = ResourceDelta::default();
        delta.links.insert(key);
        self.recovery_pass(&format!("absorb link fluctuation on {a}-{b}"), &delta)
    }

    /// Applies a resource fluctuation: the device's *capacity* becomes
    /// `availability` (running sessions keep their charges). Affected
    /// sessions are re-placed through the staged pipeline.
    pub fn fluctuate(
        &mut self,
        device: DeviceId,
        availability: ubiqos_model::ResourceVector,
    ) -> RecoveryReport {
        if let Some(dev) = self.capacity.device_mut(device.index()) {
            dev.set_availability(availability);
        }
        let mut delta = ResourceDelta::default();
        delta.devices.insert(device.index());
        self.recovery_pass(&format!("absorb fluctuation on {device}"), &delta)
    }

    /// The sessions whose placement a capacity change invalidated: every
    /// session touching an *overcommitted* resource (the running
    /// ledger's charges above current capacity). `scan` restricts which
    /// resources are examined for overcommitment — a recovery pass
    /// passes the fault's delta; `None` examines everything, the
    /// reference the pass cross-checks the delta-guided set against.
    fn invalid_sessions(&self, scan: Option<&ResourceDelta>) -> BTreeSet<u64> {
        let (over_devices, over_links) = self.ledger.overcommitted(
            &self.capacity,
            |d| scan.is_none_or(|delta| delta.devices.contains(&d)),
            |l| scan.is_none_or(|delta| delta.links.contains(&l)),
        );
        self.sessions
            .iter()
            .filter(|(_, s)| {
                s.charges
                    .touches(|d| over_devices.contains(&d), |l| over_links.contains(&l))
            })
            .map(|(&id, _)| id)
            .collect()
    }

    /// One staged recovery pass after a capacity change.
    ///
    /// Keep-if-valid: sessions not touching an overcommitted resource
    /// keep their placement untouched. The re-place set is the invalid
    /// sessions plus any *degraded* session touching a changed resource
    /// (so quality climbs back up the ladder when capacity returns). Each
    /// re-placed session walks the ladder from full quality down; ladder
    /// exhaustion parks it (or drops it under [`RetryPolicy::strict`]).
    /// Ends by draining due retries.
    fn recovery_pass(&mut self, label: &str, delta: &ResourceDelta) -> RecoveryReport {
        let considered = self.sessions.len();
        let mut replace = self.invalid_sessions(Some(delta));
        // The cross-check: only resources the fault changed can have
        // become overcommitted, so the delta-guided set must equal the
        // exhaustive one.
        debug_assert_eq!(
            replace,
            self.invalid_sessions(None),
            "incremental invalid set diverged from the full scan"
        );
        for (&raw_id, s) in &self.sessions {
            if s.degrade_factor < 1.0
                && s.charges
                    .touches(|d| delta.devices.contains(&d), |l| delta.links.contains(&l))
            {
                replace.insert(raw_id);
            }
        }

        let mut report = RecoveryReport {
            considered,
            affected: replace.len(),
            ..RecoveryReport::default()
        };
        // Rebuild the residual and the ledger from the kept sessions'
        // charges, in lockstep; the re-place set re-admits into what
        // remains, in id order.
        self.env = self.capacity.clone();
        self.ledger.clear_charges();
        for (&raw_id, s) in &self.sessions {
            if !replace.contains(&raw_id) {
                s.charges.charge(&mut self.env);
                self.ledger.add(&s.charges);
            }
        }
        for raw_id in replace {
            let mut session = self.sessions.remove(&raw_id).expect("live id");
            let old_factor = session.degrade_factor;
            match self.place_with_ladder(&session) {
                Ok((placed, factor)) => {
                    session.degrade_factor = factor;
                    self.install(
                        raw_id,
                        session,
                        placed,
                        Activation::Handoff,
                        label.to_owned().into(),
                    );
                    if factor >= 1.0 {
                        report.recovered.push(SessionId(raw_id));
                    } else {
                        report.degraded.push((
                            SessionId(raw_id),
                            Degradation {
                                from: old_factor,
                                to: factor,
                            },
                        ));
                    }
                }
                Err(e) => self.park_or_drop(raw_id, session, e, &mut report),
            }
        }
        // A recovery event is a direct signal that capacity changed, so
        // retry *every* parked session now, in priority order, rather
        // than waiting for the backoff poll. Eager attempts are free:
        // they consume no retry budget.
        let retries = self.drain_retries(true);
        report.absorb(retries);
        report
    }

    /// Walks the degradation ladder from full quality downwards for
    /// `session` (warm-started from its current placement) and returns
    /// the first level the configurator can place, with its factor.
    /// Errors with the *last* (lowest-level) failure when no level fits.
    fn place_with_ladder(
        &self,
        session: &Session,
    ) -> Result<((Configuration, ConfigOverhead), f64), ConfigureError> {
        let warm = warm_seed_of(&session.configuration);
        let mut last_err = None;
        for step in self
            .ladder
            .steps(&session.user_qos, &session.abstract_graph)
        {
            // Full quality scales every throughput by exactly 1.0, which
            // leaves the graph as it is: the session's own shared graph
            // (and its fingerprint) stands in for the rung's copy.
            let graph = if step.factor == 1.0 {
                session.abstract_graph.clone()
            } else {
                SharedGraph::new(step.abstract_graph)
            };
            match self.configure_scaled(
                &graph,
                &step.user_qos,
                session.client_device,
                session.domain,
                step.factor,
                warm.as_deref(),
                true,
            ) {
                Ok(placed) => return Ok((placed, step.factor)),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.expect("the ladder always has at least one level"))
    }

    /// Ladder exhaustion: park `session` for retry, or drop it
    /// immediately when the retry budget is zero. The session holds no
    /// charge at this point (the caller refunded it).
    fn park_or_drop(
        &mut self,
        raw_id: u64,
        session: Session,
        error: ConfigureError,
        report: &mut RecoveryReport,
    ) {
        if self.retry_policy.max_attempts == 0 {
            report.dropped.push(SessionId(raw_id));
            report.drop_errors.push((SessionId(raw_id), error));
        } else {
            self.parked
                .park(raw_id, session, error, self.now_ms, &self.retry_policy);
            report.parked.push(SessionId(raw_id));
        }
    }

    /// Retries every parked session whose backoff has elapsed, in
    /// priority order — (park time, QoS satisfaction, resource
    /// footprint); see [`RetryQueue`]. Success re-admits the session
    /// (charging its new placement); failure doubles the backoff, and
    /// budget exhaustion drops the session with the witnessing error.
    /// Harnesses should call this as virtual time advances; recovery
    /// passes additionally drain the whole queue *eagerly* (backoff and
    /// budget ignored), since a recovery event signals fresh capacity.
    pub fn process_retries(&mut self) -> RecoveryReport {
        self.drain_retries(false)
    }

    /// The retry pass. `eager` retries every parked session regardless of
    /// backoff, and its failures are free — no attempt is consumed and
    /// the schedule is untouched (only the witnessing error updates), so
    /// a burst of recovery events cannot exhaust a session's budget.
    fn drain_retries(&mut self, eager: bool) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        let ids = if eager {
            self.parked.all_in_priority_order()
        } else {
            self.parked.due(self.now_ms)
        };
        for raw_id in ids {
            let mut parked = self.parked.remove(raw_id).expect("ranked id is parked");
            match self.place_with_ladder(&parked.session) {
                Ok((placed, factor)) => {
                    let mut session = parked.session;
                    session.degrade_factor = factor;
                    let label = Cow::Borrowed("re-admit from park");
                    self.install(raw_id, session, placed, Activation::Handoff, label);
                    report.readmitted.push(SessionId(raw_id));
                }
                Err(e) if eager => {
                    // Free attempt: keep the budget and schedule intact,
                    // remember the freshest witness.
                    parked.last_error = e;
                    self.parked.reinsert(raw_id, parked);
                }
                Err(e) => {
                    parked.attempts += 1;
                    if parked.attempts >= self.retry_policy.max_attempts {
                        report.dropped.push(SessionId(raw_id));
                        report.drop_errors.push((SessionId(raw_id), e));
                    } else {
                        parked.next_retry_ms =
                            self.now_ms + self.retry_policy.backoff_ms(parked.attempts);
                        parked.last_error = e;
                        self.parked.reinsert(raw_id, parked);
                    }
                }
            }
        }
        report
    }

    /// Runs the two-tier pipeline and prices its composition and
    /// distribution phases.
    fn configure(
        &self,
        abstract_graph: &SharedGraph,
        user_qos: &QosVector,
        client_device: DeviceId,
        domain: Option<DomainId>,
    ) -> Result<(Configuration, ConfigOverhead), ConfigureError> {
        self.configure_scaled(
            abstract_graph,
            user_qos,
            client_device,
            domain,
            1.0,
            None,
            true,
        )
    }

    /// Runs the two-tier pipeline on behalf of the campaign shard core's
    /// speculation memo without mutating any *observable* state: nothing is
    /// charged, downloaded, or logged, virtual time does not advance,
    /// and — unlike [`DomainServer::preview`] — a stale-view outcome
    /// does **not** bump the `stale_views` counter here (the adopting
    /// [`DomainServer::admit_speculated`] call does, exactly once, iff
    /// the speculation is actually adopted). Takes `&self`, so
    /// independent speculations for distinct requests may run
    /// concurrently on the worker pool.
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigureError`] from either tier.
    pub fn speculate_configure(
        &self,
        abstract_graph: &SharedGraph,
        user_qos: &QosVector,
        client_device: DeviceId,
        domain: Option<DomainId>,
    ) -> Result<(Configuration, ConfigOverhead), ConfigureError> {
        self.configure_scaled(
            abstract_graph,
            user_qos,
            client_device,
            domain,
            1.0,
            None,
            false,
        )
    }

    /// Adopts a previously [`DomainServer::speculate_configure`]d
    /// outcome as a session start: exactly the tail of
    /// [`DomainServer::start_session`], which speculates and adopts in
    /// one step. A success opens the session; a failure re-raises the
    /// speculated error, counting a stale view exactly as the serial
    /// admission path does.
    ///
    /// Soundness requires the speculation to still be *fresh*: no
    /// charge, refund, fault, reinstatement, lease expiry, or retry
    /// admission may have occurred since it ran. The campaign shard
    /// core enforces this by clearing its speculation memo in every arm
    /// that changes configuration inputs.
    ///
    /// # Errors
    ///
    /// Re-raises the speculated [`ConfigureError`]; the session is not
    /// created on failure.
    ///
    /// The name is taken as a thunk: adoption knows the admission
    /// outcome before a session record exists, so denied arrivals — the
    /// bulk of an overload campaign — never format one. The graph is
    /// shared; a started session holds another reference to it.
    pub fn admit_speculated(
        &mut self,
        name: impl FnOnce() -> Arc<str>,
        abstract_graph: &SharedGraph,
        user_qos: QosVector,
        client_device: DeviceId,
        speculated: Result<(Configuration, ConfigOverhead), ConfigureError>,
    ) -> Result<SessionId, ConfigureError> {
        self.open_session(
            name,
            abstract_graph,
            user_qos,
            client_device,
            None,
            speculated,
        )
    }

    /// Opens a session from a speculated configuration outcome: the one
    /// place a start counts a stale view, and the one place it takes a
    /// session id. A success installs the configuration into a fresh
    /// session, priced as an initialization and logged as `start`.
    fn open_session(
        &mut self,
        name: impl FnOnce() -> Arc<str>,
        abstract_graph: &SharedGraph,
        user_qos: QosVector,
        client_device: DeviceId,
        domain: Option<DomainId>,
        speculated: Result<(Configuration, ConfigOverhead), ConfigureError>,
    ) -> Result<SessionId, ConfigureError> {
        let placed = speculated.inspect_err(|e| {
            if matches!(e, ConfigureError::StaleView { .. }) {
                self.stale_views.fetch_add(1, Ordering::Relaxed);
            }
        })?;
        let id = SessionId(self.next_session);
        self.next_session += 1;
        let session = Session::unplaced(
            name(),
            abstract_graph.clone(),
            user_qos,
            client_device,
            domain,
        );
        self.install(
            id.0,
            session,
            placed,
            Activation::Initialize,
            Cow::Borrowed("start"),
        );
        Ok(id)
    }

    /// [`DomainServer::configure`] with the degradation ladder's demand
    /// factor: the graph is composed as usual, then every component's
    /// resource demand is scaled by `demand_factor` *before* the
    /// distribution tier fits it (a rung-`f` session streams — and
    /// charges — proportionally less). `warm` optionally carries the
    /// session's previous placement as a solver seed (used only under
    /// [`PlacementStrategy::Optimal`] with warm starts enabled).
    /// `count_stale` controls whether a stale-view outcome increments
    /// the observable `stale_views` counter — every path does except
    /// speculation, which defers the count to adoption time.
    #[allow(clippy::too_many_arguments)]
    fn configure_scaled(
        &self,
        abstract_graph: &SharedGraph,
        user_qos: &QosVector,
        client_device: DeviceId,
        domain: Option<DomainId>,
        demand_factor: f64,
        warm: Option<&[usize]>,
        count_stale: bool,
    ) -> Result<(Configuration, ConfigOverhead), ConfigureError> {
        let wall = Instant::now();
        let discover_before = self.registry.discovery_stats().wall_nanos;
        let composed = self.compose_cached(
            abstract_graph,
            user_qos,
            client_device,
            domain,
            demand_factor,
        );
        let compose_wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        let discover_ms =
            (self.registry.discovery_stats().wall_nanos - discover_before) as f64 / 1e6;

        let place = Instant::now();
        let placed = composed.and_then(|app| match self.placement {
            PlacementStrategy::Heuristic => self.place_heuristic(app),
            PlacementStrategy::Optimal { warm_start } => {
                self.place_optimal(app, if warm_start { warm } else { None })
            }
            PlacementStrategy::Portfolio { warm_start } => {
                self.place_portfolio(app, if warm_start { warm } else { None })
            }
        });
        {
            let mut stages = self.stages.lock().expect("stage lock");
            stages.discover_ms += discover_ms;
            stages.compose_ms += (compose_wall_ms - discover_ms).max(0.0);
            stages.place_ms += place.elapsed().as_secs_f64() * 1e3;
            stages.configures += 1;
        }
        let configuration = placed?;
        // Composition and placement above ran against the detector's
        // (possibly stale) view; activation is the first contact with
        // ground truth. A component landing on an unreachable device
        // fails *here*, witnessed, before anything is charged.
        if !self.unreachable.is_empty() {
            for inst in &configuration.app.instances {
                if let Some(device) = configuration.cut.part_of(inst.component) {
                    if self.unreachable.contains(&device) {
                        if count_stale {
                            self.stale_views.fetch_add(1, Ordering::Relaxed);
                        }
                        return Err(ConfigureError::StaleView { device });
                    }
                }
            }
        }
        // The virtual overheads are a function of graph shape only, so a
        // cache hit and a fresh composition price identically — virtual
        // time and the deterministic logs cannot observe the cache.
        let overhead = ConfigOverhead {
            composition_ms: self.costs.composition_ms(
                abstract_graph.spec_count(),
                configuration.app.report.corrections.len(),
            ),
            distribution_ms: self
                .costs
                .distribution_ms(configuration.app.graph.component_count()),
            downloading_ms: 0.0,
            init_or_handoff_ms: 0.0,
        };
        Ok((configuration, overhead))
    }

    /// Composes the request's application through the epoch-validated
    /// [`CompositionCache`], scaling resources by `demand_factor` before
    /// the entry is stored (the factor is part of the key, so each ladder
    /// rung caches its own scaled graph). `graph` is the request's
    /// abstract graph, whose fingerprint opens the key.
    fn compose_cached(
        &self,
        graph: &SharedGraph,
        user_qos: &QosVector,
        client_device: DeviceId,
        domain: Option<DomainId>,
        demand_factor: f64,
    ) -> Result<Arc<ComposedApplication>, ConfigureError> {
        let key = CacheKey::of(graph, user_qos, domain, client_device, demand_factor);
        let request = || ComposeRequest {
            abstract_graph: graph,
            user_qos: user_qos.clone(),
            client_device,
            client_props: self.device_props[client_device.index()],
            domain,
        };
        {
            let mut cache = self.config_cache.lock().expect("config cache lock");
            if let Some(app) = cache.lookup(key, &self.registry) {
                #[cfg(debug_assertions)]
                {
                    // Prove the hit byte-identical to a fresh composition
                    // (the epoch-revalidation soundness argument, checked).
                    let fresh = self.compose_fresh(&request(), demand_factor)?;
                    assert_eq!(
                        *app, fresh,
                        "cached composition diverged from fresh recomposition"
                    );
                }
                return Ok(app);
            }
        }
        let epoch = self.registry.epoch();
        let app = Arc::new(self.compose_fresh(&request(), demand_factor)?);
        let mut cache = self.config_cache.lock().expect("config cache lock");
        if cache.enabled() {
            let dep_types: BTreeSet<String> = graph
                .specs()
                .map(|(_, spec)| spec.service_type.clone())
                .collect();
            cache.insert(key, Arc::clone(&app), dep_types, epoch);
        }
        Ok(app)
    }

    /// The composition tier from scratch: discover, compose and OC-check
    /// `request` against the registry with the standard transcoder
    /// catalog and no spec expansion (what the cache's dependency set
    /// assumes), then scale the demands by `demand_factor`.
    fn compose_fresh(
        &self,
        request: &ComposeRequest<'_>,
        demand_factor: f64,
    ) -> Result<ComposedApplication, ConfigureError> {
        let mut app = ServiceComposer::new(&self.registry).compose(request)?;
        if demand_factor < 1.0 {
            app.scale_resources(demand_factor);
        }
        Ok(app)
    }

    /// Places a composed application with `solver` against the residual
    /// environment at uniform weights — the configurator's distribution
    /// tier, with the solver the placement strategy picks.
    fn place_on(
        &self,
        app: Arc<ComposedApplication>,
        solver: &mut dyn ServiceDistributor,
    ) -> Result<Configuration, ConfigureError> {
        let problem = OsdProblem::new(&app.graph, &self.env, &self.weights);
        let cut = solver.distribute(&problem)?;
        let cost = problem.cost(&cut);
        Ok(Configuration { app, cut, cost })
    }

    /// Places a composed application with the persistent greedy
    /// heuristic. Speculation runs configures of one server on several
    /// workers at once; one that finds the heuristic busy places with a
    /// fresh one instead of waiting. Both place identically: the
    /// workspace only saves allocations.
    fn place_heuristic(
        &self,
        app: Arc<ComposedApplication>,
    ) -> Result<Configuration, ConfigureError> {
        match self.heuristic.try_lock() {
            Ok(mut heuristic) => self.place_on(app, &mut *heuristic),
            Err(_) => self.place_on(app, &mut GreedyHeuristic::paper()),
        }
    }

    /// Places a composed application with the persistent exhaustive
    /// branch-and-bound solver, optionally seeding its incumbent with
    /// `warm` (a previous placement of the same session).
    fn place_optimal(
        &self,
        app: Arc<ComposedApplication>,
        warm: Option<&[usize]>,
    ) -> Result<Configuration, ConfigureError> {
        let mut solver = self.optimal.lock().expect("solver lock");
        solver.set_warm_start(warm.map(<[usize]>::to_vec));
        let placed = self.place_on(app, &mut *solver);
        if let Some(stats) = solver.last_stats() {
            let mut totals = self.placement_totals.lock().expect("placement totals lock");
            totals.solves += 1;
            if stats.warm_start_used {
                totals.warm_solves += 1;
            }
            totals.nodes_expanded += stats.nodes_expanded;
            totals.pruned_bound += stats.pruned_bound;
        }
        placed
    }

    /// Places a composed application through the solver portfolio:
    /// greedy seed, exact B&B within the node limit, hierarchical
    /// abstraction-refinement beyond it. Same counter accounting as
    /// [`DomainServer::place_optimal`], plus the hierarchical-route
    /// tally.
    fn place_portfolio(
        &self,
        app: Arc<ComposedApplication>,
        warm: Option<&[usize]>,
    ) -> Result<Configuration, ConfigureError> {
        let mut solver = self.portfolio.lock().expect("portfolio lock");
        solver.set_warm_start(warm.map(<[usize]>::to_vec));
        let placed = self.place_on(app, &mut *solver);
        if let Some(outcome) = solver.last_outcome() {
            let mut totals = self.placement_totals.lock().expect("placement totals lock");
            totals.solves += 1;
            if outcome.stats.warm_start_used {
                totals.warm_solves += 1;
            }
            totals.nodes_expanded += outcome.stats.nodes_expanded;
            totals.pruned_bound += outcome.stats.pruned_bound;
            if outcome.route == PortfolioRoute::Hierarchical {
                totals.hierarchical_routes += 1;
            }
        }
        placed
    }

    /// The one configuration write (§3.3's sequence after composition
    /// and distribution): downloads the missing code of the placed
    /// `configuration`, prices its activation, derives its charge
    /// summary and charges it to the residual environment and the
    /// ledger, marks the session written for the next invariant check,
    /// logs the overhead under `label`, advances virtual time, and puts
    /// `session` into the table as raw id `raw_id`.
    fn install(
        &mut self,
        raw_id: u64,
        mut session: Session,
        (configuration, mut overhead): (Configuration, ConfigOverhead),
        activation: Activation,
        label: Cow<'static, str>,
    ) {
        overhead.downloading_ms = self.download_for(&configuration);
        overhead.init_or_handoff_ms = match activation {
            Activation::Initialize => self
                .costs
                .initialization_ms(configuration.app.graph.component_count()),
            Activation::Handoff => self
                .costs
                .handoff_ms(self.links[session.client_device.index()]),
        };
        session.charges = ChargeSummary::of(&configuration);
        self.recharge(&session.charges);
        self.ledger.written.insert(raw_id);
        session.configuration = configuration;
        session.overhead_log.push((label, overhead));
        self.now_ms += overhead.total_ms();
        self.sessions.insert(raw_id, session);
    }

    /// Charges a configuration, by its summary `charges`, to the
    /// residual environment and the ledger.
    fn recharge(&mut self, charges: &ChargeSummary) {
        charges.charge(&mut self.env);
        self.ledger.add(charges);
    }

    /// Refunds a charged configuration, by its summary `charges`, to the
    /// residual environment and the ledger.
    fn refund(&mut self, charges: &ChargeSummary) {
        charges.refund(&mut self.env);
        self.ledger.sub(charges);
    }

    /// Checks the invariants of
    /// [`check_invariants`](crate::faults::check_invariants) from the
    /// running charge ledger, in O(devices + links + |down| + sessions
    /// written since the last check): residual against capacity minus
    /// ledger per device and per link, discovery hygiene, no occupant on
    /// a down device, and the Eq. 1 and pin verdicts of the written
    /// sessions, whose summaries are re-derived here. Returns the same
    /// first violation, worded the same, as the from-scratch sweep.
    /// `down` is the set of devices to treat as down; `None` uses the
    /// failure detector's suspected set.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant, described.
    pub(crate) fn check_ledger(&mut self, down: Option<&BTreeSet<usize>>) -> Result<(), String> {
        let written = ledger::refresh_written(&mut self.sessions, &mut self.ledger);
        ledger::check(
            &self.env,
            &self.capacity,
            &self.sessions,
            &self.registry,
            &self.ledger,
            &written,
            down.unwrap_or(&self.suspected),
        )
    }

    /// Downloads every instance of a configuration onto its assigned
    /// device, returning the total download time.
    fn download_for(&mut self, configuration: &Configuration) -> f64 {
        let wall = Instant::now();
        let mut total = 0.0;
        let repository = Arc::make_mut(&mut self.repository);
        for inst in &configuration.app.instances {
            if let Some(device) = configuration.cut.part_of(inst.component) {
                total += repository.ensure_installed(
                    device,
                    &inst.instance_id,
                    inst.code_size_mb,
                    self.links[device],
                    &self.costs,
                );
            }
        }
        self.stages.lock().expect("stage lock").download_ms += wall.elapsed().as_secs_f64() * 1e3;
        total
    }
}

/// Corruption hooks for the invariant checkers' mutation tests: each
/// breaks one invariant the way a bookkeeping bug would, behind the
/// back of the write paths above.
#[cfg(test)]
impl DomainServer {
    /// Sets device `d`'s dimension-`k` residual to `value` with no
    /// session charged or refunded: a leaked charge, or (below zero) a
    /// negative residual. The vector is deserialized, the one way in
    /// that skips the amount validation.
    pub(crate) fn corrupt_residual(&mut self, d: usize, k: usize, value: f64) {
        let dev = self.env.device_mut(d).expect("device in range");
        let mut amounts = dev.availability().amounts().to_vec();
        amounts[k] = value;
        let json = serde_json::to_string(&amounts).expect("amounts serialize");
        let corrupted = serde_json::from_str(&format!("{{\"amounts\":{json}}}"))
            .expect("a resource vector deserializes unvalidated");
        dev.set_availability(corrupted);
    }

    /// Sets the residual bandwidth of link `i`-`j` to `mbps` with no
    /// session charged or refunded: a leaked link charge.
    pub(crate) fn corrupt_link_residual(&mut self, i: usize, j: usize, mbps: f64) {
        self.env.bandwidth_mut().set(i, j, mbps);
    }

    /// Drops session `id` from the running ledger alone, as a refund
    /// that forgot the ledger would: the residual and the sessions
    /// still agree.
    pub(crate) fn corrupt_ledger_refund(&mut self, id: SessionId) {
        let charges = &self.sessions[&id.0].charges;
        self.ledger.sub(charges);
    }

    /// Suspects device `d` and hides its hosted instances, as a lease
    /// expiry does, but skips the recovery pass: the sessions on `d`
    /// stay where they are.
    pub(crate) fn corrupt_strand_on(&mut self, d: usize) {
        self.suspected.insert(d);
        let hosted: Vec<String> = self
            .registry
            .hosted_on(d)
            .into_iter()
            .map(|desc| desc.instance_id.clone())
            .collect();
        let registry = Arc::make_mut(&mut self.registry);
        for instance_id in hosted {
            if let Some(desc) = registry.unregister(&instance_id) {
                self.hosted_stash.entry(d).or_default().push(desc);
            }
        }
    }

    /// Rewrites session `id`'s live graph so its first edge breaks
    /// Eq. 1 (the downstream end requires a format nobody offers), and
    /// records the write with a fresh summary, as a write site would.
    /// Charges are unchanged. The composition is shared (with the cache
    /// and any checkpoint), so the write copies it first.
    pub(crate) fn corrupt_eq1(&mut self, id: SessionId) {
        let s = self.sessions.get_mut(&id.0).expect("live session");
        let graph = &mut Arc::make_mut(&mut s.configuration.app).graph;
        let edge = graph.edges().next().expect("the session graph has an edge");
        let sink = graph.component_mut(edge.to).expect("edge endpoint");
        let broken = sink.qos_in().clone().with(
            ubiqos_model::QosDimension::Format,
            ubiqos_model::QosValue::token("NOBODY-OFFERS-THIS"),
        );
        sink.set_qos_in(broken);
        let fresh = ChargeSummary::of(&s.configuration);
        self.ledger.sub(&s.charges);
        self.ledger.add(&fresh);
        s.charges = fresh;
        self.ledger.written.insert(id.0);
    }

    /// Moves component `component` of session `id` to device `to` and
    /// records the write, but neither charges the residual for the move
    /// nor refreshes the session's summary or the ledger: a write site
    /// that skipped the bookkeeping.
    pub(crate) fn corrupt_stale_write(&mut self, id: SessionId, component: usize, to: usize) {
        let s = self.sessions.get_mut(&id.0).expect("live session");
        let cut = &s.configuration.cut;
        let mut assignment = cut.assignment();
        assignment[component] = to;
        s.configuration.cut =
            Cut::from_assignment(&s.configuration.app.graph, assignment, cut.parts())
                .expect("a valid reassignment");
        self.ledger.written.insert(id.0);
    }
}

/// A session's current placement rendered as a warm-start seed for the
/// exhaustive solver: `Some` only when every component is placed.
fn warm_seed_of(configuration: &Configuration) -> Option<Vec<usize>> {
    (0..configuration.app.graph.component_count())
        .map(|i| configuration.cut.part_of(ComponentId::from_index(i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ubiqos_discovery::ServiceDescriptor;
    use ubiqos_distribution::Device;
    use ubiqos_graph::{AbstractComponentSpec, ComponentRole, PinHint, ServiceComponent};
    use ubiqos_model::{QosDimension as D, QosValue, ResourceVector};

    fn two_desktop_server() -> DomainServer {
        let env = Environment::builder()
            .device(Device::new(
                "desktop1",
                ResourceVector::mem_cpu(256.0, 300.0),
            ))
            .device(Device::new(
                "desktop2",
                ResourceVector::mem_cpu(256.0, 300.0),
            ))
            .default_bandwidth_mbps(50.0)
            .build();
        let props = DeviceProperties {
            screen_pixels: 1_920_000.0,
            compute_factor: 5.0,
        };
        let mut server = DomainServer::new(
            env,
            vec![LinkKind::Ethernet, LinkKind::Ethernet],
            vec![props, props],
        );
        server.registry_mut().register(ServiceDescriptor::new(
            "server@d1",
            "audio-server",
            ServiceComponent::builder("audio-server")
                .role(ComponentRole::Source)
                .qos_out(
                    QosVector::new()
                        .with(D::Format, QosValue::token("MPEG"))
                        .with(D::FrameRate, QosValue::exact(40.0)),
                )
                .capability(D::FrameRate, QosValue::range(5.0, 40.0))
                .resources(ResourceVector::mem_cpu(64.0, 40.0))
                .build(),
        ));
        server.registry_mut().register(
            ServiceDescriptor::new(
                "player@any",
                "audio-player",
                ServiceComponent::builder("audio-player")
                    .role(ComponentRole::Sink)
                    .qos_in(
                        QosVector::new()
                            .with(D::Format, QosValue::token("MPEG"))
                            .with(D::FrameRate, QosValue::range(10.0, 40.0)),
                    )
                    .resources(ResourceVector::mem_cpu(16.0, 20.0))
                    .build(),
            )
            .with_code_size_mb(2.0),
        );
        server
    }

    fn audio_app() -> AbstractServiceGraph {
        let mut g = AbstractServiceGraph::new();
        let s = g.add_spec(AbstractComponentSpec::new("audio-server").with_pin(PinHint::Device(0)));
        let p =
            g.add_spec(AbstractComponentSpec::new("audio-player").with_pin(PinHint::ClientDevice));
        g.add_edge(s, p, 1.4).unwrap();
        g
    }

    #[test]
    fn start_session_configures_and_accounts_overhead() {
        let mut server = two_desktop_server();
        let id = server
            .start_session(
                "audio",
                audio_app(),
                QosVector::new(),
                DeviceId::from_index(1),
            )
            .unwrap();
        let s = server.session(id).unwrap();
        assert_eq!(s.overhead_log.len(), 1);
        let (label, overhead) = &s.overhead_log[0];
        assert_eq!(label, "start");
        assert!(overhead.composition_ms > 0.0);
        assert!(overhead.distribution_ms > 0.0);
        assert!(overhead.downloading_ms > 0.0, "nothing was preinstalled");
        assert!(overhead.init_or_handoff_ms > 0.0);
        let qos = s.measured_qos();
        assert_eq!(qos.len(), 1);
        assert_eq!(qos[0].fps, 40.0);
        assert!(server.now_ms() > 0.0);
    }

    #[test]
    fn preinstalled_components_download_nothing() {
        let mut server = two_desktop_server();
        for d in 0..2 {
            server.repository_mut().preinstall(d, "server@d1");
            server.repository_mut().preinstall(d, "player@any");
        }
        let id = server
            .start_session(
                "audio",
                audio_app(),
                QosVector::new(),
                DeviceId::from_index(1),
            )
            .unwrap();
        let s = server.session(id).unwrap();
        assert_eq!(s.overhead_log[0].1.downloading_ms, 0.0);
    }

    #[test]
    fn switch_device_hands_off_state() {
        let mut server = two_desktop_server();
        let id = server
            .start_session(
                "audio",
                audio_app(),
                QosVector::new(),
                DeviceId::from_index(1),
            )
            .unwrap();
        server.play(30.0);
        let plan = server.switch_device(id, DeviceId::from_index(0)).unwrap();
        assert_eq!(
            plan.resume_position_s(),
            30.0,
            "resumes at interruption point"
        );
        let s = server.session(id).unwrap();
        assert_eq!(s.client_device, DeviceId::from_index(0));
        assert_eq!(s.overhead_log.len(), 2);
        assert!(s.overhead_log[1].0.contains("switch"));
        assert!(s.overhead_log[1].1.init_or_handoff_ms > 0.0);
        // The player is now pinned to desktop1.
        let player = s
            .configuration
            .app
            .instances
            .iter()
            .find(|i| i.instance_id == "player@any")
            .unwrap();
        assert_eq!(s.configuration.cut.part_of(player.component), Some(0));
    }

    #[test]
    fn failed_start_creates_no_session() {
        let mut server = two_desktop_server();
        let mut bogus = AbstractServiceGraph::new();
        bogus.add_spec(AbstractComponentSpec::new("hologram-projector"));
        let err = server
            .start_session("bogus", bogus, QosVector::new(), DeviceId::from_index(0))
            .unwrap_err();
        assert!(matches!(err, ConfigureError::Composition(_)));
        assert!(server.session(SessionId(0)).is_none());
    }

    #[test]
    fn stop_unknown_session_is_none() {
        let mut server = two_desktop_server();
        assert!(server.stop_session(SessionId(42)).is_none());
    }

    #[test]
    fn sessions_charge_and_refund_the_environment() {
        let mut server = two_desktop_server();
        let idle = server.env().clone();
        let id = server
            .start_session(
                "audio",
                audio_app(),
                QosVector::new(),
                DeviceId::from_index(1),
            )
            .unwrap();
        assert_eq!(server.session_count(), 1);
        // Something was charged somewhere.
        let charged: f64 = server
            .env()
            .devices()
            .iter()
            .map(|d| d.availability().amounts().iter().sum::<f64>())
            .sum();
        let full: f64 = idle
            .devices()
            .iter()
            .map(|d| d.availability().amounts().iter().sum::<f64>())
            .sum();
        assert!(charged < full);
        server.stop_session(id).unwrap();
        assert_eq!(server.env(), &idle, "refund restores the environment");
        assert_eq!(server.capacity(), &idle);
    }

    #[test]
    fn concurrent_sessions_compete_for_capacity() {
        // The audio server needs [64, 40] and must sit on desktop1
        // (pinned), which offers [256, 300]: at most 4 concurrent
        // sessions' servers fit even though players spread out.
        let mut server = two_desktop_server();
        let mut started = 0;
        for i in 0..8 {
            let device = DeviceId::from_index(i % 2);
            if server
                .start_session(format!("audio-{i}"), audio_app(), QosVector::new(), device)
                .is_ok()
            {
                started += 1;
            }
        }
        assert!(started >= 3, "several sessions fit ({started})");
        assert!(started < 8, "but not all of them ({started})");
    }

    #[test]
    fn failed_switch_restores_the_old_charge() {
        let mut server = two_desktop_server();
        let id = server
            .start_session(
                "audio",
                audio_app(),
                QosVector::new(),
                DeviceId::from_index(1),
            )
            .unwrap();
        let residual_before = server.env().clone();
        // Make the switch impossible: the player vanishes from discovery.
        let taken = server.registry_mut().unregister("player@any").unwrap();
        assert!(server.switch_device(id, DeviceId::from_index(0)).is_err());
        assert_eq!(
            server.env(),
            &residual_before,
            "failed switch must not leak or free resources"
        );
        server.registry_mut().register(taken);
        assert!(server.switch_device(id, DeviceId::from_index(0)).is_ok());
    }

    #[test]
    fn crash_of_client_device_parks_then_readmits_on_recovery() {
        let mut server = two_desktop_server();
        let id = server
            .start_session(
                "audio",
                audio_app(),
                QosVector::new(),
                DeviceId::from_index(1),
            )
            .unwrap();
        // The player is pinned to the crashed client device, so no ladder
        // rung can place the session — the staged pipeline parks it (its
        // resources released) instead of dropping it.
        let report = server.handle_crash(DeviceId::from_index(1));
        assert_eq!(report.parked, vec![id]);
        assert!(report.dropped.is_empty() && report.recovered.is_empty());
        assert_eq!(server.session_count(), 0);
        assert_eq!(server.parked_count(), 1);
        assert!(server
            .capacity()
            .device(1)
            .unwrap()
            .availability()
            .is_zero());
        // Device comes back: the recovery event triggers an *eager*
        // retry pass, re-admitting the session at full quality right
        // away — no waiting for the backoff poll.
        let rec = server.recover_device(DeviceId::from_index(1));
        assert_eq!(rec.readmitted, vec![id]);
        assert_eq!(server.parked_count(), 0);
        let s = server.session(id).unwrap();
        assert_eq!(s.degrade_factor, 1.0);
        assert!(s.overhead_log.last().unwrap().0.contains("re-admit"));
    }

    #[test]
    fn suspicion_parks_then_heartbeat_reinstates_and_readmits() {
        let mut server = two_desktop_server();
        let idle = server.env().clone();
        let id = server
            .start_session(
                "audio",
                audio_app(),
                QosVector::new(),
                DeviceId::from_index(1),
            )
            .unwrap();
        // The detector (wrongly or rightly — it cannot tell) suspects the
        // client device: exactly a crash from the pipeline's viewpoint.
        let report = server.suspect_many(&[DeviceId::from_index(1)]);
        assert_eq!(report.parked, vec![id]);
        assert!(server.is_suspected(DeviceId::from_index(1)));
        assert_eq!(server.parked_count(), 1);
        // A heartbeat from the suspected device withdraws the suspicion
        // and eagerly re-admits the parked session.
        let rec = server
            .heartbeat(DeviceId::from_index(1), 3_600_000.0)
            .expect("suspected device's heartbeat reinstates");
        assert_eq!(rec.readmitted, vec![id]);
        assert!(!server.is_suspected(DeviceId::from_index(1)));
        assert_eq!(server.parked_count(), 0);
        // The clean-undo guarantee: stopping the session restores the
        // idle environment exactly — no resources leaked through the
        // park/reinstate round trip.
        server.stop_session(id).unwrap();
        assert_eq!(server.env(), &idle);
    }

    #[test]
    fn stale_view_admission_fails_witnessed_and_charges_nothing() {
        let mut server = two_desktop_server();
        let idle = server.env().clone();
        // Ground truth: d0 (hosting the pinned audio-server) is dead, but
        // the detector has not noticed — discovery still advertises it.
        server.set_reachable(DeviceId::from_index(0), false);
        let err = server
            .start_session(
                "audio",
                audio_app(),
                QosVector::new(),
                DeviceId::from_index(1),
            )
            .unwrap_err();
        assert!(matches!(err, ConfigureError::StaleView { device: 0 }));
        assert_eq!(server.stale_view_count(), 1);
        assert_eq!(
            server.env(),
            &idle,
            "nothing charged on a failed activation"
        );
        assert_eq!(server.session_count(), 0);
        // The arrival parks instead of being dropped; once reality and
        // the view re-converge, a retry admits it from scratch.
        let id = server.park_arrival(
            "audio",
            audio_app(),
            QosVector::new(),
            DeviceId::from_index(1),
            None,
            err,
        );
        assert_eq!(server.parked_count(), 1);
        server.set_reachable(DeviceId::from_index(0), true);
        server.play(200.0); // past the retry backoff
        let report = server.process_retries();
        assert_eq!(report.readmitted, vec![id]);
        assert_eq!(server.session_count(), 1);
        assert!(!server
            .session(id)
            .unwrap()
            .configuration
            .app
            .instances
            .is_empty());
    }

    #[test]
    fn start_session_is_speculation_then_adoption() {
        let start = |server: &mut DomainServer, decomposed: bool| {
            let graph = SharedGraph::new(audio_app());
            let (qos, client) = (QosVector::new(), DeviceId::from_index(1));
            if decomposed {
                let speculated = server.speculate_configure(&graph, &qos, client, None);
                server.admit_speculated(|| "audio".into(), &graph, qos, client, speculated)
            } else {
                server.start_session("audio", graph, qos, client)
            }
        };
        let mut serial = two_desktop_server();
        let mut adopted = two_desktop_server();
        let a = start(&mut serial, false).expect("admitted");
        let b = start(&mut adopted, true).expect("admitted");
        assert_eq!(a, b);
        assert_eq!(serial.state_fingerprint(), adopted.state_fingerprint());

        // d0 hosts the pinned audio server and is dead, unnoticed by the
        // detector: every start is refused with a stale view, counted
        // once per refusal on either path.
        serial.set_reachable(DeviceId::from_index(0), false);
        adopted.set_reachable(DeviceId::from_index(0), false);
        for refusals in 1..=2 {
            let ea = start(&mut serial, false).unwrap_err();
            let eb = start(&mut adopted, true).unwrap_err();
            assert!(matches!(ea, ConfigureError::StaleView { device: 0 }));
            assert_eq!(ea, eb);
            assert_eq!(serial.stale_view_count(), refusals);
            assert_eq!(adopted.stale_view_count(), refusals);
            assert_eq!(serial.state_fingerprint(), adopted.state_fingerprint());
        }
        // Speculating alone counts nothing: adoption does.
        let speculated = adopted.speculate_configure(
            &SharedGraph::new(audio_app()),
            &QosVector::new(),
            DeviceId::from_index(1),
            None,
        );
        assert!(speculated.is_err());
        assert_eq!(adopted.stale_view_count(), 2);
    }

    #[test]
    fn lease_sweep_suspects_and_false_suspicion_is_cleanly_undone() {
        let mut server = two_desktop_server();
        let idle = server.env().clone();
        // Both devices heartbeat with a 60s grace window.
        assert!(server
            .heartbeat(DeviceId::from_index(0), 60_000.0)
            .is_none());
        assert!(server
            .heartbeat(DeviceId::from_index(1), 60_000.0)
            .is_none());
        // d1 keeps renewing, d0 goes silent (partitioned, say).
        server.play(45.0);
        assert!(server
            .heartbeat(DeviceId::from_index(1), 60_000.0)
            .is_none());
        server.play(45.0); // d0's lease is now 30s overdue
        let swept = server.expire_overdue_leases();
        assert_eq!(swept.len(), 1);
        assert_eq!(swept[0].0, DeviceId::from_index(0));
        assert!(server.is_suspected(DeviceId::from_index(0)));
        assert!(server
            .capacity()
            .device(0)
            .unwrap()
            .availability()
            .is_zero());
        // The same expired lease is revoked — a second sweep is a no-op.
        assert!(server.expire_overdue_leases().is_empty());
        // The partition heals: d0's heartbeat gets through again and the
        // false suspicion is withdrawn, restoring pristine capacity.
        assert!(server
            .heartbeat(DeviceId::from_index(0), 60_000.0)
            .is_some());
        assert!(!server.is_suspected(DeviceId::from_index(0)));
        assert_eq!(server.capacity(), &idle);
    }

    #[test]
    fn strict_retry_policy_drops_with_witness() {
        let mut server = two_desktop_server();
        server.set_ladder(ubiqos_composition::DegradationLadder::strict());
        server.set_retry_policy(crate::retry_queue::RetryPolicy::strict());
        let id = server
            .start_session(
                "audio",
                audio_app(),
                QosVector::new(),
                DeviceId::from_index(1),
            )
            .unwrap();
        // With a zero retry budget the old drop-on-fault behaviour is
        // back — and the drop carries its witnessing error.
        let report = server.handle_crash(DeviceId::from_index(1));
        assert_eq!(report.dropped, vec![id]);
        assert_eq!(report.drop_errors.len(), 1);
        assert_eq!(report.drop_errors[0].0, id);
        assert_eq!(server.session_count(), 0);
        assert_eq!(server.parked_count(), 0);
    }

    #[test]
    fn crash_of_unused_device_keeps_sessions() {
        // Three devices: server pinned to d0, client on d1, d2 idle.
        let env = Environment::builder()
            .device(Device::new("d0", ResourceVector::mem_cpu(256.0, 300.0)))
            .device(Device::new("d1", ResourceVector::mem_cpu(256.0, 300.0)))
            .device(Device::new("d2", ResourceVector::mem_cpu(256.0, 300.0)))
            .default_bandwidth_mbps(50.0)
            .build();
        let props = DeviceProperties {
            screen_pixels: 1_920_000.0,
            compute_factor: 5.0,
        };
        let mut server = DomainServer::new(env, vec![LinkKind::Ethernet; 3], vec![props; 3]);
        // Reuse the two-desktop registry entries.
        let donor = two_desktop_server();
        for hit in donor
            .registry()
            .discover_all(&ubiqos_discovery::DiscoveryQuery::new("audio-server"))
        {
            server.registry_mut().register(hit.descriptor);
        }
        for hit in donor
            .registry()
            .discover_all(&ubiqos_discovery::DiscoveryQuery::new("audio-player"))
        {
            server.registry_mut().register(hit.descriptor);
        }
        let id = server
            .start_session(
                "audio",
                audio_app(),
                QosVector::new(),
                DeviceId::from_index(1),
            )
            .unwrap();
        let report = server.handle_crash(DeviceId::from_index(2));
        // Keep-if-valid: the session touches nothing on d2, so the
        // incremental pass leaves it completely untouched (no
        // re-placement at all, not even a successful one).
        assert!(report.is_empty(), "{report:?}");
        assert_eq!(report.affected, 0);
        assert_eq!(report.considered, 1);
        let s = server.session(id).unwrap();
        assert_eq!(s.degrade_factor, 1.0);
        assert_eq!(
            s.overhead_log.last().unwrap().0,
            "start",
            "untouched sessions keep their original overhead log"
        );
    }

    #[test]
    fn user_mobility_recomposes_in_the_new_domain() {
        // Two rooms, each with its own audio server; the player is global.
        let mut server = two_desktop_server();
        let office = server.registry_mut().add_domain("office", None);
        let lounge = server.registry_mut().add_domain("lounge", None);
        // Scope the existing server instance to the office and add a
        // lounge-only one.
        let office_server = {
            let mut hit = server
                .registry()
                .discover_all(&ubiqos_discovery::DiscoveryQuery::new("audio-server"))
                .remove(0)
                .descriptor;
            hit.domain = Some(office);
            hit
        };
        let mut lounge_server = office_server.clone();
        lounge_server.instance_id = "server@lounge".into();
        lounge_server.domain = Some(lounge);
        server.registry_mut().register(office_server);
        server.registry_mut().register(lounge_server);

        let id = server
            .start_session_in_domain(
                "audio",
                audio_app(),
                QosVector::new(),
                DeviceId::from_index(1),
                Some(office),
            )
            .unwrap();
        assert_eq!(server.session(id).unwrap().domain, Some(office));
        let uses = |server: &DomainServer, instance: &str| {
            server
                .session(id)
                .unwrap()
                .configuration
                .app
                .instances
                .iter()
                .any(|i| i.instance_id == instance)
        };
        assert!(uses(&server, "server@d1"), "office instance in use");

        server.play(10.0);
        let plan = server
            .move_user(id, Some(lounge), DeviceId::from_index(0))
            .unwrap();
        assert_eq!(plan.resume_position_s(), 10.0);
        let s = server.session(id).unwrap();
        assert_eq!(s.domain, Some(lounge));
        assert!(
            uses(&server, "server@lounge"),
            "recomposed onto the lounge server"
        );
        assert!(s.overhead_log.last().unwrap().0.contains("lounge"));
    }

    #[test]
    fn failed_move_keeps_old_domain_and_charge() {
        let mut server = two_desktop_server();
        let office = server.registry_mut().add_domain("office", None);
        let desert = server.registry_mut().add_domain("desert", None);
        // Scope everything to the office; the desert is empty.
        for ty in ["audio-server", "audio-player"] {
            let mut hit = server
                .registry()
                .discover_all(&ubiqos_discovery::DiscoveryQuery::new(ty))
                .remove(0)
                .descriptor;
            hit.domain = Some(office);
            server.registry_mut().register(hit);
        }
        let id = server
            .start_session_in_domain(
                "audio",
                audio_app(),
                QosVector::new(),
                DeviceId::from_index(1),
                Some(office),
            )
            .unwrap();
        let residual = server.env().clone();
        assert!(server
            .move_user(id, Some(desert), DeviceId::from_index(0))
            .is_err());
        let s = server.session(id).unwrap();
        assert_eq!(s.domain, Some(office), "old domain kept");
        assert_eq!(server.env(), &residual, "charge unchanged");
    }

    #[test]
    fn fluctuation_degrades_before_parking() {
        let mut server = two_desktop_server();
        let id = server
            .start_session(
                "audio",
                audio_app(),
                QosVector::new(),
                DeviceId::from_index(1),
            )
            .unwrap();
        // Desktop1 (hosting the pinned 64/40 server) shrinks to where
        // only a scaled-down demand fits: 0.5 × (64, 40) = (32, 20).
        let report = server.fluctuate(DeviceId::from_index(0), ResourceVector::mem_cpu(40.0, 25.0));
        assert_eq!(report.degraded.len(), 1, "{report:?}");
        let (did, d) = report.degraded[0];
        assert_eq!(did, id);
        assert_eq!(d.from, 1.0);
        assert_eq!(d.to, 0.5);
        assert_eq!(server.session(id).unwrap().degrade_factor, 0.5);
        // Capacity returns: the next pass climbs the degraded session
        // back to full quality.
        let report = server.fluctuate(
            DeviceId::from_index(0),
            ResourceVector::mem_cpu(256.0, 300.0),
        );
        assert_eq!(report.recovered, vec![id], "{report:?}");
        assert_eq!(server.session(id).unwrap().degrade_factor, 1.0);
    }

    #[test]
    fn fluctuation_can_park_then_readmit() {
        let mut server = two_desktop_server();
        let id = server
            .start_session(
                "audio",
                audio_app(),
                QosVector::new(),
                DeviceId::from_index(1),
            )
            .unwrap();
        // Desktop1 loses almost everything — even the bottom rung's
        // 0.25 × (64, 40) = (16, 10) does not fit (8, 8): park.
        let report = server.fluctuate(DeviceId::from_index(0), ResourceVector::mem_cpu(8.0, 8.0));
        assert_eq!(report.parked, vec![id]);
        assert!(report.dropped.is_empty());
        assert_eq!(server.parked_count(), 1);
        // The parked session holds no charge, and the restoring
        // fluctuation is itself a recovery event: the eager retry pass
        // re-admits the session without waiting out the backoff.
        let rec = server.fluctuate(
            DeviceId::from_index(0),
            ResourceVector::mem_cpu(256.0, 300.0),
        );
        assert_eq!(rec.readmitted, vec![id]);
        assert_eq!(server.parked_count(), 0);
        assert!(server
            .start_session(
                "audio2",
                audio_app(),
                QosVector::new(),
                DeviceId::from_index(1)
            )
            .is_ok());
        assert_eq!(server.session_count(), 2);
    }

    #[test]
    fn composition_cache_hits_repeat_configurations_and_stays_invisible() {
        let mut cached = two_desktop_server();
        let mut cold = two_desktop_server();
        cold.set_config_cache(false);

        // Identical request sequences against both servers; every
        // observable output must match. (Debug builds additionally
        // cross-check each cache hit against a fresh composition.)
        for server in [&mut cached, &mut cold] {
            for i in 0..4 {
                server
                    .start_session(
                        format!("audio-{i}"),
                        audio_app(),
                        QosVector::new(),
                        DeviceId::from_index(1),
                    )
                    .unwrap();
            }
        }
        assert_eq!(cached.now_ms(), cold.now_ms());
        for (a, b) in cached.sessions().zip(cold.sessions()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.configuration, b.1.configuration);
            assert_eq!(a.1.overhead_log, b.1.overhead_log);
        }
        let stats = cached.config_cache_stats();
        assert_eq!(stats.misses, 1, "one fill, then hits");
        assert_eq!(stats.hits, 3);
        let cold_stats = cold.config_cache_stats();
        assert_eq!((cold_stats.hits, cold_stats.misses), (0, 0));
        // The wall-clock profile saw every call, in both modes.
        assert_eq!(
            cached.stage_times().configures,
            cold.stage_times().configures
        );
    }

    #[test]
    fn composition_cache_invalidates_on_dependent_churn() {
        let mut server = two_desktop_server();
        server
            .start_session(
                "audio",
                audio_app(),
                QosVector::new(),
                DeviceId::from_index(1),
            )
            .unwrap();
        // Unrelated churn: the next identical request revalidates the
        // entry through the changelog instead of recomposing.
        server.registry_mut().register(ServiceDescriptor::new(
            "display@d2",
            "video-display",
            ServiceComponent::builder("video-display").build(),
        ));
        assert!(server.can_place(
            &audio_app(),
            &QosVector::new(),
            DeviceId::from_index(1),
            None
        ));
        let stats = server.config_cache_stats();
        assert_eq!((stats.hits, stats.revalidations), (1, 1));
        // Churn on a type the app depends on: fresh composition.
        server.registry_mut().unregister("display@d2");
        server.registry_mut().register(ServiceDescriptor::new(
            "server@d2",
            "audio-server",
            ServiceComponent::builder("audio-server")
                .role(ComponentRole::Source)
                .qos_out(QosVector::new().with(D::Format, QosValue::token("MPEG")))
                .resources(ResourceVector::mem_cpu(64.0, 40.0))
                .build(),
        ));
        assert!(server.can_place(
            &audio_app(),
            &QosVector::new(),
            DeviceId::from_index(1),
            None
        ));
        assert_eq!(server.config_cache_stats().misses, 2);
    }

    #[test]
    fn optimal_placement_matches_heuristic_cost_or_better_and_warm_starts() {
        let mut heuristic = two_desktop_server();
        let mut optimal = two_desktop_server();
        optimal.set_placement_strategy(PlacementStrategy::Optimal { warm_start: true });
        assert_eq!(
            heuristic.placement_strategy(),
            PlacementStrategy::Heuristic,
            "heuristic stays the default"
        );

        let start = |server: &mut DomainServer| {
            server
                .start_session(
                    "audio",
                    audio_app(),
                    QosVector::new(),
                    DeviceId::from_index(1),
                )
                .unwrap()
        };
        let hid = start(&mut heuristic);
        let oid = start(&mut optimal);
        let h_cost = heuristic.session(hid).unwrap().configuration.cost;
        let o_cost = optimal.session(oid).unwrap().configuration.cost;
        assert!(
            o_cost <= h_cost + 1e-9,
            "exhaustive optimum ({o_cost}) cannot cost more than the heuristic ({h_cost})"
        );
        let totals = optimal.placement_totals();
        assert_eq!(totals.solves, 1);
        assert_eq!(totals.warm_solves, 0, "initial admission has no seed");
        assert_eq!(
            heuristic.placement_totals(),
            PlacementTotals::default(),
            "heuristic path never touches the solver"
        );

        // A recovery re-placement seeds the solver with the session's
        // previous cut: the player (16 MB) no longer fits at full
        // quality, so the ladder degrades — and the lower rungs replay
        // the old placement as a feasible incumbent.
        optimal.fluctuate(DeviceId::from_index(1), ResourceVector::mem_cpu(12.0, 25.0));
        let totals = optimal.placement_totals();
        assert!(totals.solves >= 2);
        assert!(
            totals.warm_solves >= 1,
            "re-placement should warm-start: {totals:?}"
        );
    }

    #[test]
    fn portfolio_placement_is_bit_identical_to_optimal_within_limit() {
        let mut optimal = two_desktop_server();
        optimal.set_placement_strategy(PlacementStrategy::Optimal { warm_start: true });
        let mut portfolio = two_desktop_server();
        portfolio.set_placement_strategy(PlacementStrategy::Portfolio { warm_start: true });

        let start = |server: &mut DomainServer| {
            server
                .start_session(
                    "audio",
                    audio_app(),
                    QosVector::new(),
                    DeviceId::from_index(1),
                )
                .unwrap()
        };
        let oid = start(&mut optimal);
        let pid = start(&mut portfolio);
        let o = &optimal.session(oid).unwrap().configuration;
        let p = &portfolio.session(pid).unwrap().configuration;
        assert_eq!(
            o.cut, p.cut,
            "within the exact limit the portfolio must return the exhaustive cut verbatim"
        );
        assert_eq!(o.cost.to_bits(), p.cost.to_bits());
        let totals = portfolio.placement_totals();
        assert_eq!(totals.solves, 1);
        assert_eq!(
            totals.hierarchical_routes, 0,
            "small graphs never leave the exact route"
        );

        // Same fluctuation as the optimal test: the portfolio path must
        // also warm-start recovery re-placements.
        portfolio.fluctuate(DeviceId::from_index(1), ResourceVector::mem_cpu(12.0, 25.0));
        let totals = portfolio.placement_totals();
        assert!(totals.solves >= 2);
        assert!(
            totals.warm_solves >= 1,
            "portfolio re-placement should warm-start: {totals:?}"
        );
    }
}
