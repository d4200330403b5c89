//! Sharded multi-domain federation: the fault-campaign harness scaled
//! out over N [`DomainServer`](crate::DomainServer) shards.
//!
//! PR 1-6 grew a single domain server that admits, degrades, parks,
//! and recovers sessions under a deterministic fault schedule. This
//! module shards that world: the device space splits into contiguous
//! blocks, each owned by one `DomainServer` keyed to a subtree of the
//! shared [`DomainId`] tree (`campus` → optional `wing{w}` → `shard{s}`),
//! and the shards communicate *only* by typed message passing over a
//! [`Transport`] (the in-process [`ChannelTransport`] here; a socket
//! transport can slot in later without touching the protocol).
//!
//! ## One shard core per shard
//!
//! Each shard is the same shard core the serial loop drives (see
//! [`crate::faults`]): its server state, write-ahead log, and
//! transcript in one struct, with one method per per-shard arm. This
//! engine routes events to those arms and adds only what sharding
//! needs — routing, cross-domain forwarding, two-phase handoffs,
//! reliable transport, turns, and crash recovery. When a shard's
//! recovery pass sweeps up a handoff reservation, the core's absorb
//! hands the session back as custody and the engine re-tags the
//! handoff; the shard never counts a session it does not own yet.
//!
//! ## Cross-domain discovery
//!
//! An arrival is routed to the shard owning its client device. When
//! that shard cannot compose the application locally (its registry is
//! specialized and lacks the service type), it resolves through the
//! domain tree: candidate shards in
//! [`ServiceRegistry::resolution_order`](ubiqos_discovery::ServiceRegistry::resolution_order)
//! order (same wing first, then the rest) are probed with
//! [`FederationMsg::DiscoverRemote`], and the first shard advertising
//! the missing type admits the session itself.
//!
//! ## Two-phase session handoff
//!
//! A `move-user` whose destination device lives on another shard runs
//! a two-phase protocol: **reserve** on the destination (resources
//! charged there under a lease), then **commit-and-release** on the
//! source after `commit_lag_h` — with exact refunds on every abort
//! path. The protocol stays correct when the detector suspects either
//! shard mid-move:
//!
//! * destination suspected at initiation → the session is *parked*
//!   into the PR-3 retry queue on the source with a witnessed
//!   [`ConfigureError::StaleView`], never half-moved;
//! * destination suspected at decide time → abort, and the
//!   destination's reservation is released by its own lease expiry
//!   (`reserve_grace_h`), witnessed in its log;
//! * source partitioned at decide time → abort; the abort message is
//!   delivered only after the partition heals, and the reservation
//!   lease expires first, cleaning up without it.
//!
//! `commit_lag_h < reserve_grace_h` is enforced, so a commit always
//! races ahead of its own reservation's expiry while both shards are
//! healthy; a *late* commit (delivered after expiry because of a
//! partition) re-admits the session on the destination instead of
//! double-charging it.
//!
//! ## Ordering and determinism
//!
//! All cross-shard events commit in the established total order — the
//! global DES queue pops (virtual time, then scheduling sequence), and
//! every in-flight message carries a sequence number so same-instant
//! deliveries replay in send order. Overlay events (reserve decides,
//! lease expiries, deferred deliveries) only exist when `shards > 1`,
//! so the 1-shard configuration pops the *identical* event sequence as
//! the serial reference and reproduces its log **byte-identically**;
//! per-shard digests at every other shard count are pinned in
//! `tests/federation_equivalence.rs`.
//!
//! ## Reliable delivery over a lossy transport
//!
//! The engine no longer assumes the [`Transport`] is perfect. A
//! reliability sublayer sits between the handlers and the fabric:
//! payloads carry per-(src, dst)-link monotone sequence numbers,
//! receivers dedup + release in order and acknowledge cumulatively
//! (piggybacked on reverse traffic plus standalone
//! [`FederationMsg::Ack`] frames), and unacknowledged payloads
//! retransmit on a virtual-time timer with capped exponential backoff
//! (the [`RetryPolicy`] doubling discipline). Net-layer events live on
//! their **own** DES queue: an application event opens a *turn* that
//! cannot complete while a payload due at its instant is still
//! physically undelivered, so the net queue spins (retransmissions,
//! late arrivals) without ever perturbing the application event order.
//! The consequence is the equivalence contract this module pins: under
//! any seeded loss/dup/reorder/delay schedule (see
//! [`LossyTransport`]), every shard
//! replays the exact per-shard handler sequence — and therefore the
//! exact log bytes — of the perfect run, while the zero-loss path
//! stays byte-identical to the bare [`ChannelTransport`].

use crate::domain_server::SessionId;
use crate::durability::{assert_recovered_equal, DurabilityConfig};
use crate::faults::{
    build_space, campaign_schedule, client_draw, pick_live, template_name, Arrival, Custody,
    EventLog, FaultCampaignConfig, InvariantViolation, Shard, ShardCore, TIME_EPS,
};
use crate::profiler::StageTimes;
use crate::retry_queue::RetryPolicy;
use crate::transport::{
    ChannelTransport, Envelope, LossConfig, LossStats, LossyTransport, Transport,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use ubiqos::fault_report::fnv1a;
use ubiqos::{ConfigureError, FaultReport};
use ubiqos_discovery::{DiscoveryQuery, DomainId, ServiceRegistry};
use ubiqos_graph::{AbstractServiceGraph, DeviceId};
use ubiqos_model::QosVector;
use ubiqos_sim::{
    merge_schedules, EventQueue, FaultKind, MobilityWaveConfig, Request, ShardCrashPlan,
    TimedFault, WorkloadConfig,
};

/// Hard ceiling on a receiver's in-order release buffer. The real
/// bound is the per-link cumulative-ack watermark asserted at every
/// insert; this cap only catches a watermark-accounting bug before it
/// can hide behind unbounded memory.
const REORDER_CAP: u64 = 1 << 16;

/// One scheduled shard-level partition: the federation's failure
/// detector loses contact with `shard` for `[from_h, to_h)` hours.
/// Messages to or from the shard are deferred until the heal; the
/// shard itself keeps running (it is partitioned, not crashed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardPartition {
    /// The shard cut off from its peers.
    pub shard: usize,
    /// Partition start (hours).
    pub from_h: f64,
    /// Heal time (hours, exclusive).
    pub to_h: f64,
}

/// Parameters of one federated campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct FederationConfig {
    /// The underlying fault-campaign config. `base.devices` is the
    /// *global* device count, split contiguously across the shards;
    /// workload, fault schedule, and client draws all derive from
    /// `base.seed` exactly as in the serial loop.
    pub base: FaultCampaignConfig,
    /// Number of `DomainServer` shards (≥ 1; every shard needs ≥ 2
    /// devices). `1` reproduces the serial reference byte-identically.
    pub shards: usize,
    /// Mobility-wave overlay merged into the base fault schedule —
    /// the bursts of `move-user`/`switch-device` events that drag
    /// sessions across shard boundaries.
    pub mobility: MobilityWaveConfig,
    /// Hours between a handoff's reserve and its commit/abort decision
    /// on the source shard. Must be strictly less than
    /// `reserve_grace_h`.
    pub commit_lag_h: f64,
    /// Reservation lease on the destination shard: a reserved-but-not
    /// -committed session is released (exact refund) this many hours
    /// after the reserve, witnessing the source's stale view.
    pub reserve_grace_h: f64,
    /// Scheduled shard-level partitions (the federation-level analog
    /// of the PR-5 device partitions).
    pub shard_partitions: Vec<ShardPartition>,
    /// Grace before a partitioned shard is *suspected* by its peers.
    pub shard_grace_h: f64,
    /// Inter-shard heartbeat period: a healed shard stays suspected
    /// until its next heartbeat multiple.
    pub shard_heartbeat_h: f64,
    /// When `true` (and `shards > 1`), odd shards drop their
    /// space-wide `mpeg-source` so cross-shard discovery has real work
    /// to do. The 1-shard configuration never specializes.
    pub specialize_registry: bool,
    /// Virtual-time retransmission backoff of the reliable-delivery
    /// sublayer: `base * 2^attempts` milliseconds, saturating at the
    /// cap. `max_attempts` is ignored — the reliable layer never gives
    /// up on a payload (loss is bounded away from 1, so retransmission
    /// converges).
    pub retx_policy: RetryPolicy,
    /// Seeded shard-crash overlay merged into the schedule after the
    /// base campaign and mobility waves. `crashes == 0` (the default)
    /// leaves the schedule bit-exact with its crash-free baseline.
    pub crashes: ShardCrashPlan,
    /// Per-shard WAL + snapshot durability knobs. Crash faults require
    /// `durability.enabled`; journaling never touches shard state, so
    /// a crash-free run is byte-identical with durability on or off.
    pub durability: DurabilityConfig,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            base: FaultCampaignConfig::default(),
            shards: 1,
            mobility: MobilityWaveConfig {
                devices: FaultCampaignConfig::default().devices,
                ..MobilityWaveConfig::default()
            },
            commit_lag_h: 0.02,
            reserve_grace_h: 0.1,
            shard_partitions: Vec::new(),
            shard_grace_h: 0.05,
            shard_heartbeat_h: 0.25,
            specialize_registry: true,
            // Ten virtual seconds base, ~5.3 virtual minutes cap —
            // transport-scale, far below the session-level lease and
            // retry windows.
            retx_policy: RetryPolicy {
                base_backoff_ms: 10_000.0,
                max_backoff_ms: 320_000.0,
                max_attempts: 0,
            },
            crashes: ShardCrashPlan::default(),
            durability: DurabilityConfig::default(),
        }
    }
}

impl FederationConfig {
    /// The merged fault schedule this config runs: the seeded base
    /// campaign schedule plus the mobility-wave overlay, in the
    /// deterministic merge order. The serial equivalence reference is
    /// `run_fault_campaign_with(&cfg.base, &cfg.schedule())`.
    pub fn schedule(&self) -> Vec<TimedFault> {
        let device_level =
            merge_schedules(&campaign_schedule(&self.base), &self.mobility.generate());
        if self.crashes.crashes == 0 {
            return device_level;
        }
        merge_schedules(&device_level, &self.crashes.generate())
    }

    /// Checks structural validity (shard/device arithmetic, lease
    /// windows, partition windows).
    ///
    /// # Panics
    ///
    /// Panics on a structurally invalid config.
    pub fn validate(&self) {
        assert!(self.shards >= 1, "federation needs at least one shard");
        assert!(
            self.base.devices >= 2 * self.shards,
            "every shard needs at least 2 devices ({} devices / {} shards)",
            self.base.devices,
            self.shards
        );
        assert!(
            self.commit_lag_h > 0.0 && self.commit_lag_h < self.reserve_grace_h,
            "commit lag must fall strictly inside the reservation lease"
        );
        assert!(self.shard_grace_h > 0.0, "shard grace must be positive");
        assert!(
            self.shard_heartbeat_h > 0.0,
            "shard heartbeat period must be positive"
        );
        assert!(
            self.retx_policy.base_backoff_ms > 0.0
                && self.retx_policy.max_backoff_ms >= self.retx_policy.base_backoff_ms,
            "retransmission backoff must be positive and capped above its base"
        );
        if self.mobility.moves > 0 {
            assert!(
                self.mobility.devices <= self.base.devices,
                "mobility destinations must index the global device space"
            );
        }
        for p in &self.shard_partitions {
            assert!(p.shard < self.shards, "partitioned shard out of range");
            assert!(
                p.from_h.is_finite() && p.to_h.is_finite() && p.from_h < p.to_h,
                "shard partition window must be a finite forward interval"
            );
        }
        assert!(
            self.durability.checkpoint_every >= 1,
            "checkpoint cadence must be at least one record"
        );
        if self.crashes.crashes > 0 {
            assert!(
                self.durability.enabled,
                "shard crashes require durability (recovery replays the WAL)"
            );
            assert_eq!(
                self.crashes.shards, self.shards,
                "the crash plan must target the federation's shard count"
            );
        }
    }
}

/// The typed messages shards exchange. A socket transport would carry
/// exactly these (plus serialized session snapshots for `Reserve`,
/// which the in-process transport reads from the shared handoff table).
#[derive(Debug, Clone, PartialEq)]
pub enum FederationMsg {
    /// "Does your registry advertise `service_type`?" — cross-domain
    /// discovery for request `req`, resolved through the domain tree.
    DiscoverRemote {
        /// The service type the origin shard lacks.
        service_type: String,
        /// The workload request being resolved (transcript context).
        req: usize,
    },
    /// Reply to [`FederationMsg::DiscoverRemote`].
    DiscoverFound {
        /// Whether the queried registry advertises the type.
        found: bool,
        /// The request the reply resolves (correlates the reply with
        /// its pending discovery across retransmissions).
        req: usize,
    },
    /// Phase 1: charge resources for handoff `hid` on the destination
    /// under a lease.
    Reserve {
        /// The handoff this reserve belongs to.
        hid: u64,
    },
    /// The destination holds a reservation for `hid`.
    ReserveOk {
        /// The acknowledged handoff.
        hid: u64,
    },
    /// The destination could not place the session.
    ReserveErr {
        /// The declined handoff.
        hid: u64,
        /// Why placement failed (display form of the configure error).
        error: String,
    },
    /// Phase 2: the source released the session; the destination
    /// promotes its reservation to ownership.
    Commit {
        /// The committed handoff.
        hid: u64,
    },
    /// Phase 2 alternative: release the reservation, exact refund.
    Abort {
        /// The aborted handoff.
        hid: u64,
    },
    /// Standalone cumulative acknowledgement frame of the reliable
    /// sublayer. Carries no payload — the acknowledgement itself rides
    /// in the envelope's `ack_upto` field, like the piggyback on every
    /// other message. Never sequenced, never retransmitted, and never
    /// surfaced to the application layer.
    Ack,
}

/// Federation-level counters (all deterministic; serialized into
/// `BENCH_federation.json`).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FederationStats {
    /// Envelopes sent over the transport.
    pub messages: u64,
    /// Cross-domain discovery probes issued.
    pub remote_discoveries: u64,
    /// Arrivals admitted on a non-home shard after remote discovery.
    pub forwarded: u64,
    /// Two-phase handoffs started.
    pub handoffs_initiated: u64,
    /// Handoffs whose source committed (custody transferred).
    pub handoffs_committed: u64,
    /// Handoffs aborted at or before decide time.
    pub handoffs_aborted: u64,
    /// Moves parked on the source because the destination shard was
    /// suspected at initiation.
    pub handoffs_parked_dest_suspected: u64,
    /// Destination reservations released by their own lease expiry.
    pub reservation_expiries: u64,
    /// Commits delivered after the reservation lease had expired
    /// (re-admitted instead of promoted).
    pub late_commits: u64,
    /// Payload retransmissions issued by the reliable sublayer (zero
    /// on a perfect transport).
    #[serde(default)]
    pub retransmissions: u64,
    /// Duplicate payload copies absorbed before reaching a handler.
    #[serde(default)]
    pub duplicate_drops: u64,
    /// Standalone ack frames sent (one per received payload copy).
    #[serde(default)]
    pub acks_sent: u64,
    /// Payload copies held in a receiver's in-order release buffer
    /// because an earlier sequence number was still missing.
    #[serde(default)]
    pub reorder_buffered: u64,
    /// Deepest any in-order release buffer ever grew.
    #[serde(default)]
    pub reorder_depth_max: u64,
    /// Largest gap (virtual µs) between a payload's send instant and
    /// its physical release by the receiver's reliable layer — how far
    /// behind the perfect run the lossy transport ever dragged a
    /// message before convergence.
    #[serde(default)]
    pub convergence_delay_us_max: u64,
    /// Sum of those per-payload release delays (virtual µs).
    #[serde(default)]
    pub convergence_delay_us_total: u64,
    /// Shard crashes injected (teardown + snapshot/WAL rebuild).
    #[serde(default)]
    pub shard_crashes: u64,
    /// Physical copies eaten by a crash outage window (dead NIC at
    /// transmit or arrival; the reliable layer retransmits them after
    /// the restart).
    #[serde(default)]
    pub crash_copies_dropped: u64,
    /// WAL records appended across all shards (lifetime, counted
    /// across checkpoint truncations).
    #[serde(default)]
    pub wal_records: u64,
    /// WAL records replayed by crash recoveries.
    #[serde(default)]
    pub wal_replayed: u64,
    /// Snapshot restores performed by crash recoveries.
    #[serde(default)]
    pub snapshot_restores: u64,
    /// Per-crash WAL replay depth (records replayed by each recovery,
    /// in crash order) — the deterministic recovery-time distribution
    /// the bench artifact reports.
    #[serde(default)]
    pub wal_replay_depths: Vec<u64>,
    /// Sessions each shard committed *away* (by shard index).
    pub handed_out: Vec<u32>,
    /// Sessions each shard received custody of (by shard index).
    pub handed_in: Vec<u32>,
    /// Arrivals each shard forwarded elsewhere (by shard index).
    pub forwarded_out: Vec<u32>,
    /// Forwarded arrivals each shard resolved (by shard index).
    pub forwarded_in: Vec<u32>,
}

impl FederationStats {
    fn new(shards: usize) -> Self {
        FederationStats {
            handed_out: vec![0; shards],
            handed_in: vec![0; shards],
            forwarded_out: vec![0; shards],
            forwarded_in: vec![0; shards],
            ..FederationStats::default()
        }
    }
}

/// One shard's finished campaign: its report, full event log, and
/// wall-clock stage profile.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// Aggregate counters and the shard's log digest.
    pub report: FaultReport,
    /// The shard's deterministic event log.
    pub log: EventLog,
    /// Wall-clock stage profile (never feeds logs or digests).
    pub stages: StageTimes,
}

/// A finished federated campaign.
#[derive(Debug, Clone)]
pub struct FederationOutcome {
    /// Per-shard outcomes, by shard index.
    pub shards: Vec<ShardOutcome>,
    /// Federation-level counters.
    pub stats: FederationStats,
    /// FNV-1a over the concatenated per-shard log digests (little
    /// -endian) — one number pinning the whole federated run.
    pub combined_digest: u64,
}

impl FederationOutcome {
    /// Per-shard log digests, by shard index.
    pub fn shard_digests(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.report.log_digest).collect()
    }

    /// The federated fate ledger: per shard, every arrival was
    /// admitted or denied, and every session the shard ever owned
    /// (admitted locally or handed in) completed, dropped, stayed
    /// live or parked, or was handed out — nothing duplicated,
    /// nothing leaked.
    pub fn fates_balance(&self) -> bool {
        self.shards.iter().enumerate().all(|(s, sh)| {
            let r = &sh.report;
            r.arrivals == r.admitted + r.denied
                && r.admitted + self.stats.handed_in[s]
                    == r.completed
                        + r.dropped
                        + r.live_at_end
                        + r.parked_at_end
                        + self.stats.handed_out[s]
        })
    }

    /// Total admitted sessions across the federation.
    pub fn total_admitted(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| u64::from(s.report.admitted))
            .sum()
    }
}

// ---------------------------------------------------------------------
// Engine internals
// ---------------------------------------------------------------------

/// One event in the federated timeline. `Arrival`/`Departure`/`Fault`/
/// `Heartbeat`/`LeaseCheck` are scheduled in the serial loop's exact
/// setup order (so the 1-shard pop sequence is identical); `Decide`,
/// `Expire`, and `Deliver` are federation overlays that only exist at
/// `shards > 1`.
#[derive(Debug, Clone, Copy)]
enum FedEvent {
    Arrival(usize),
    Departure(usize),
    Fault(usize),
    Heartbeat(usize),
    LeaseCheck(usize),
    /// Commit-or-abort decision for handoff `hid` on its source shard.
    Decide(u64),
    /// Reservation lease expiry for handoff `hid` on its destination.
    Expire(u64),
    /// A deferred message for `shard` becomes deliverable.
    Deliver(usize),
}

/// Net-layer events: physical arrivals and retransmission timers.
/// They live on their own DES queue so transport jitter and backoff
/// scheduling can never perturb the application event order (net
/// events consume no application-queue sequence numbers).
#[derive(Debug, Clone, Copy)]
enum NetEvent {
    /// A stashed copy's physical arrival instant has been reached.
    Arrive,
    /// Retransmission timer for payload `seq` on link (`from`, `to`).
    /// Fires as a no-op once the payload has been acknowledged.
    Retx { from: usize, to: usize, seq: u64 },
}

/// One application event being processed. The turn stays open until
/// every payload due at its instant has been physically delivered and
/// handled; while it is blocked, only net events (arrivals,
/// retransmissions) advance. This is what makes every lossy schedule
/// replay the exact per-shard handler sequence of the perfect run.
struct Turn {
    at_h: f64,
    touched: BTreeSet<usize>,
}

/// One unacknowledged payload in a link's retransmission window.
struct TxEntry {
    /// The payload as first transmitted (attempt counter and piggyback
    /// are re-stamped on every copy).
    env: Envelope,
    /// Retransmissions issued so far.
    attempts: u32,
}

/// Per-directed-link reliable-delivery state: the sender's
/// retransmission window and the receiver's dedup/in-order cursor.
#[derive(Default)]
struct LinkState {
    /// Next payload sequence to assign (sender side).
    tx_next_seq: u64,
    /// Unacknowledged payloads by link sequence (sender side).
    tx: BTreeMap<u64, TxEntry>,
    /// Standalone-ack frame counter (sender side; only diversifies
    /// each ack copy's seeded fate — acks are unsequenced).
    ack_next: u64,
    /// Next payload sequence the receiver will release (everything
    /// below it has been released; cumulative acks carry this value).
    rx_expected: u64,
    /// Out-of-order payloads held for in-order release (receiver
    /// side).
    rx_buffer: BTreeMap<u64, Envelope>,
}

/// A cross-domain discovery waiting on its `DiscoverFound` reply. The
/// reply always resolves within the originating arrival's turn (probe
/// legs are only sent between mutually reachable shards, so their
/// delivery times equal the arrival instant), so this map is empty
/// between turns.
struct DiscoveryState {
    /// The shard resolving the arrival.
    origin: usize,
    /// The arrival as the origin shard sees it.
    arrival: Arrival,
    /// The local composition error, replayed verbatim in the denial
    /// line if every candidate declines.
    err: String,
    /// Index into `candidates[origin]` of the probe in flight.
    pos: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HandoffState {
    Reserving,
    Reserved,
    Committed,
    Aborted,
}

/// What the destination currently holds for a handoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reservation {
    /// Nothing reserved (yet, or ever).
    None,
    /// A live reserved session (raw id), resources charged.
    Live(u64),
    /// The reservation was parked by a destination-side recovery pass.
    Parked(u64),
    /// Released by lease expiry before commit/abort arrived.
    Expired,
    /// Dropped by a destination-side recovery pass (witnessed).
    Dead,
    /// Fully resolved (promoted, released, or declined).
    Done,
}

/// One two-phase session handoff.
struct Handoff {
    req: usize,
    source: usize,
    dest: usize,
    sid: SessionId,
    is_move: bool,
    name: String,
    graph: AbstractServiceGraph,
    qos: QosVector,
    client_local: usize,
    to_global: usize,
    state: HandoffState,
    reservation: Reservation,
    /// The user departed while the session was in flight; the commit
    /// completes it on arrival.
    departed: bool,
}

/// Which shard a request's departure routes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// The shard that holds the session (live or parked) or resolved
    /// the request (completed, dropped, or denied it).
    At(usize),
    /// Mid-handoff: released by the source, not yet landed.
    InFlight(u64),
}

struct Engine<'a> {
    cfg: &'a FederationConfig,
    schedule: Vec<TimedFault>,
    trace: Vec<Request>,
    /// One shard core per shard. Its transcript is output, not shard
    /// state: like the directory and the link state, it survives a
    /// shard crash untouched.
    cores: Vec<ShardCore>,
    /// Global index of each shard's first device.
    offsets: Vec<usize>,
    /// Per shard: the other shards in domain-tree resolution order.
    candidates: Vec<Vec<usize>>,
    specialized: bool,
    queue: EventQueue<FedEvent>,
    /// Net-layer queue: physical arrivals and retransmission timers.
    netq: EventQueue<NetEvent>,
    transport: Box<dyn Transport>,
    /// Released-but-undelivered envelopes keyed by (deliver-time bits,
    /// send seq) — the deterministic delivery order.
    pending: BTreeMap<(u64, u64), Envelope>,
    /// Sent payloads the receiver's reliable layer has not yet
    /// released, by the same key. An open turn cannot complete while
    /// one of these is due at or before its instant.
    in_flight: BTreeSet<(u64, u64)>,
    /// Per-directed-link reliable-delivery state.
    links: BTreeMap<(usize, usize), LinkState>,
    /// Physically arrived copies awaiting their arrival instant, keyed
    /// by (arrive-time bits, stash order).
    net_rx: BTreeMap<(u64, u64), Envelope>,
    /// Monotone stash counter for `net_rx` (drain-order tiebreak).
    next_stash: u64,
    /// Envelope sequence for standalone ack frames — a disjoint stream
    /// so acks never consume application payload sequence numbers.
    next_net_seq: u64,
    /// Global net-layer clock (max of all popped event times; runs
    /// ahead of a blocked turn's instant while retransmissions spin).
    now_h: f64,
    /// The application event currently being processed, if any.
    turn: Option<Turn>,
    /// Cross-domain discoveries awaiting their reply.
    pending_discovery: BTreeMap<usize, DiscoveryState>,
    next_seq: u64,
    next_hid: u64,
    handoffs: BTreeMap<u64, Handoff>,
    /// (shard, raw reserved id) → handoff — how destination-side
    /// recovery passes recognize reservations.
    res_index: BTreeMap<(usize, u64), u64>,
    /// Request index → current session location.
    directory: BTreeMap<usize, Loc>,
    stats: FederationStats,
    /// Precomputed `(shard, crash_h, restart_h)` outage windows from
    /// the schedule's `ShardCrash`/`ShardRestart` pairs. During a
    /// window the shard's NIC is dead: physical copies transmitted by
    /// it or arriving at it are eaten (the reliable layer's
    /// retransmissions bridge the outage). Suspicion and delivery
    /// times are *not* derived from these windows — a crash only
    /// drives the failure detector when its window is aligned with a
    /// [`ShardPartition`].
    crash_windows: Vec<(usize, f64, f64)>,
}

/// Builds the shared domain tree into one shard's registry and returns
/// the shard-domain ids (identical across shards — every registry runs
/// the same construction). With ≥ 4 shards the tree gets a wing layer
/// (two shards per wing), so resolution order prefers the same-wing
/// sibling before crossing the campus.
fn build_domain_tree(reg: &mut ServiceRegistry, shards: usize) -> Vec<DomainId> {
    let root = reg.add_domain("campus", None);
    if shards >= 4 {
        let wing_ids: Vec<DomainId> = (0..shards.div_ceil(2))
            .map(|w| reg.add_domain(format!("wing{w}"), Some(root)))
            .collect();
        (0..shards)
            .map(|s| reg.add_domain(format!("shard{s}"), Some(wing_ids[s / 2])))
            .collect()
    } else {
        (0..shards)
            .map(|s| reg.add_domain(format!("shard{s}"), Some(root)))
            .collect()
    }
}

/// Runs a federated campaign with the config-derived schedule.
///
/// # Panics
///
/// Panics on a structurally invalid config (see
/// [`FederationConfig::validate`]).
pub fn run_federation_campaign(
    cfg: &FederationConfig,
) -> Result<FederationOutcome, InvariantViolation> {
    run_federation_campaign_with(cfg, &cfg.schedule())
}

/// Runs a federated campaign against an explicit (already merged)
/// fault schedule, over the in-process [`ChannelTransport`].
pub fn run_federation_campaign_with(
    cfg: &FederationConfig,
    schedule: &[TimedFault],
) -> Result<FederationOutcome, InvariantViolation> {
    let transport = Box::new(ChannelTransport::new(cfg.shards));
    run_federation_campaign_over(cfg, schedule, transport)
}

/// Runs a federated campaign over a seeded lossy transport
/// ([`LossyTransport`] decorating the in-process channels) and returns
/// the outcome together with the injection counters.
///
/// The reliability sublayer guarantees the outcome's per-shard logs,
/// digests, and reports are identical to the perfect-transport run of
/// the same config and schedule — the loss stats (plus the
/// retransmission counters in [`FederationStats`]) are the only
/// visible difference.
pub fn run_federation_campaign_lossy(
    cfg: &FederationConfig,
    schedule: &[TimedFault],
    loss: LossConfig,
) -> Result<(FederationOutcome, LossStats), InvariantViolation> {
    let lossy = LossyTransport::new(Box::new(ChannelTransport::new(cfg.shards)), loss);
    let handle = lossy.stats_handle();
    let outcome = run_federation_campaign_over(cfg, schedule, Box::new(lossy))?;
    let stats = *handle.borrow();
    Ok((outcome, stats))
}

/// Runs a federated campaign over a caller-supplied transport.
pub fn run_federation_campaign_over(
    cfg: &FederationConfig,
    schedule: &[TimedFault],
    transport: Box<dyn Transport>,
) -> Result<FederationOutcome, InvariantViolation> {
    cfg.validate();
    let mut engine = Engine::new(cfg, schedule.to_vec(), transport);
    engine.run()?;
    Ok(engine.finish())
}

impl<'a> Engine<'a> {
    fn new(
        cfg: &'a FederationConfig,
        schedule: Vec<TimedFault>,
        transport: Box<dyn Transport>,
    ) -> Self {
        let n = cfg.shards;
        let base = &cfg.base;
        // Contiguous device blocks: D/N each, first D%N shards one
        // larger.
        let mut sizes = vec![base.devices / n; n];
        for size in sizes.iter_mut().take(base.devices % n) {
            *size += 1;
        }
        let mut offsets = Vec::with_capacity(n);
        let mut acc = 0usize;
        for &s in &sizes {
            offsets.push(acc);
            acc += s;
        }
        let specialized = n > 1 && cfg.specialize_registry;

        let mut cores = Vec::with_capacity(n);
        let mut candidates: Vec<Vec<usize>> = Vec::with_capacity(n);
        for (s, &size) in sizes.iter().enumerate() {
            let mut server = build_space(size);
            server.set_shard_index(s);
            let mut shard = Shard::new(
                server,
                FaultCampaignConfig {
                    devices: size,
                    ..base.clone()
                },
            );
            let reg = shard.server.registry_mut();
            let shard_domains = build_domain_tree(reg, n);
            if candidates.is_empty() {
                // Same tree in every registry — compute the resolution
                // orders once, from the first.
                for (me, &dom) in shard_domains.iter().enumerate() {
                    let order = reg.resolution_order(dom);
                    candidates.push(
                        order
                            .iter()
                            .filter_map(|d| shard_domains.iter().position(|x| x == d))
                            .filter(|&x| x != me)
                            .collect(),
                    );
                }
            }
            if specialized && s % 2 == 1 {
                reg.unregister("mpeg-source@space");
            }
            // The initial checkpoint (virtual t=0) is taken here.
            cores.push(ShardCore::new(shard, offsets[s], &cfg.durability));
        }

        let workload = WorkloadConfig::overload(base.requests, base.horizon_h);
        let mut rng = StdRng::seed_from_u64(base.seed);
        let trace = workload.generate(&mut rng);

        // Exact serial setup order: arrival+departure per request,
        // faults per schedule index, heartbeats device-major over the
        // *global* device index. At one shard this makes the DES pop
        // sequence identical to the serial loop's.
        let mut queue: EventQueue<FedEvent> = EventQueue::new();
        for (i, r) in trace.iter().enumerate() {
            queue.schedule(r.arrival_h, FedEvent::Arrival(i));
            queue.schedule(r.departure_h(), FedEvent::Departure(i));
        }
        for (j, f) in schedule.iter().enumerate() {
            queue.schedule(f.at_h, FedEvent::Fault(j));
        }
        if !base.perfect_detection() {
            for d in 0..base.devices {
                for k in 0..=base.heartbeat_steps() {
                    queue.schedule(k as f64 * base.heartbeat_period_h, FedEvent::Heartbeat(d));
                }
            }
        }

        let stats = FederationStats::new(n);
        // The crash outage windows. The schedule is the source of truth
        // for windows — explicitly supplied schedules work exactly like
        // plan-derived ones. A crash without a later matching restart
        // would never let its eaten payloads drain, so it is rejected up
        // front.
        let mut crash_windows: Vec<(usize, f64, f64)> = Vec::new();
        for (j, f) in schedule.iter().enumerate() {
            if let FaultKind::ShardCrash { shard } = f.kind {
                assert!(shard < n, "crashed shard out of range");
                assert!(
                    cfg.durability.enabled,
                    "shard crashes require durability (recovery replays the WAL)"
                );
                let restart = schedule[j + 1..].iter().find_map(|g| match g.kind {
                    FaultKind::ShardRestart { shard: rs } if rs == shard => Some(g.at_h),
                    _ => None,
                });
                let to = restart
                    .expect("every shard crash needs a matching later restart to end its outage");
                crash_windows.push((shard, f.at_h, to));
            }
        }
        Engine {
            cfg,
            schedule,
            trace,
            cores,
            offsets,
            candidates,
            specialized,
            queue,
            netq: EventQueue::new(),
            transport,
            pending: BTreeMap::new(),
            in_flight: BTreeSet::new(),
            links: BTreeMap::new(),
            net_rx: BTreeMap::new(),
            next_stash: 0,
            next_net_seq: 0,
            now_h: 0.0,
            turn: None,
            pending_discovery: BTreeMap::new(),
            next_seq: 0,
            next_hid: 0,
            handoffs: BTreeMap::new(),
            res_index: BTreeMap::new(),
            directory: BTreeMap::new(),
            stats,
            crash_windows,
        }
    }

    /// Whether shard `s`'s NIC is inside a crash outage window at `t`.
    fn crashed_at(&self, s: usize, t: f64) -> bool {
        self.crash_windows
            .iter()
            .any(|&(cs, from, to)| cs == s && t >= from && t < to)
    }

    /// The shard owning global device `g`.
    fn owner(&self, g: usize) -> usize {
        debug_assert!(g < self.cfg.base.devices, "global device in range");
        match self.offsets.binary_search(&g) {
            Ok(s) => s,
            Err(ins) => ins - 1,
        }
    }

    /// Advances shard `s`'s clock to `at_h`, marks it touched by the
    /// open turn, and hands back its core.
    fn touch(&mut self, s: usize, at_h: f64, touched: &mut BTreeSet<usize>) -> &mut ShardCore {
        touched.insert(s);
        let core = &mut self.cores[s];
        core.advance(at_h);
        core
    }

    /// Re-tags the handoffs whose reservations shard `s`'s last arm
    /// swept up: the absorb hands back recovered sessions the shard
    /// does not track, and every one of them is a reservation.
    fn retag(&mut self, s: usize) {
        for custody in std::mem::take(&mut self.cores[s].custody) {
            let (hid, reservation) = match custody {
                Custody::Dropped(id) => (self.res_index.remove(&(s, id.raw())), Reservation::Dead),
                Custody::Parked(id) => (
                    self.res_index.get(&(s, id.raw())).copied(),
                    Reservation::Parked(id.raw()),
                ),
                Custody::Readmitted(id) => (
                    self.res_index.get(&(s, id.raw())).copied(),
                    Reservation::Live(id.raw()),
                ),
            };
            let hid = hid.expect("an untracked recovered session is a reservation");
            self.handoffs
                .get_mut(&hid)
                .expect("indexed handoff exists")
                .reservation = reservation;
        }
    }
    /// Whether shard `s` is reachable (no partition window covers `t`).
    fn reachable_shard(&self, s: usize, t: f64) -> bool {
        !self
            .cfg
            .shard_partitions
            .iter()
            .any(|p| p.shard == s && t >= p.from_h && t < p.to_h)
    }

    /// Whether the federation's failure detector suspects shard `s` at
    /// `t`: a partition has lasted past the grace, and the suspicion
    /// holds until the first heartbeat multiple at or after the heal.
    /// Closed-form over the schedule — no DES events, so overlay
    /// timing never perturbs the per-shard event order.
    fn suspected_shard(&self, s: usize, t: f64) -> bool {
        self.cfg.shard_partitions.iter().any(|p| {
            if p.shard != s {
                return false;
            }
            let from = p.from_h + self.cfg.shard_grace_h;
            let to = (p.to_h / self.cfg.shard_heartbeat_h).ceil() * self.cfg.shard_heartbeat_h;
            t >= from && t < to
        })
    }

    /// When a message sent at `at_h` between `from` and `to` becomes
    /// deliverable: the first instant no partition window covers either
    /// endpoint (fixpoint over the windows).
    fn delivery_time(&self, from: usize, to: usize, at_h: f64) -> f64 {
        let mut t = at_h;
        loop {
            let mut moved = false;
            for p in &self.cfg.shard_partitions {
                if (p.shard == from || p.shard == to) && t >= p.from_h && t < p.to_h {
                    t = p.to_h;
                    moved = true;
                }
            }
            if !moved {
                return t;
            }
        }
    }

    /// Sends a payload through the reliable sublayer: stamps the
    /// envelope (app seq, link seq), counts it, registers it in flight
    /// and in the link's retransmission window, transmits the first
    /// copy, arms the retransmission timer, and — when application
    /// -level delivery is deferred by a partition — schedules the
    /// wakeup turn that will deliver it.
    fn send(&mut self, from: usize, to: usize, at_h: f64, msg: FederationMsg) {
        let deliver_at_h = self.delivery_time(from, to, at_h);
        let link = self.links.entry((from, to)).or_default();
        let link_seq = link.tx_next_seq;
        link.tx_next_seq += 1;
        let env = Envelope {
            seq: self.next_seq,
            from,
            to,
            sent_at_h: at_h,
            deliver_at_h,
            link_seq,
            attempt: 0,
            ack_upto: 0, // stamped per copy by `transmit`
            tx_at_h: at_h,
            arrive_at_h: at_h,
            msg,
        };
        self.next_seq += 1;
        self.stats.messages += 1;
        self.in_flight.insert((deliver_at_h.to_bits(), env.seq));
        self.links
            .get_mut(&(from, to))
            .expect("link just ensured")
            .tx
            .insert(
                link_seq,
                TxEntry {
                    env: env.clone(),
                    attempts: 0,
                },
            );
        self.netq.schedule(
            at_h + self.rto_h(0),
            NetEvent::Retx {
                from,
                to,
                seq: link_seq,
            },
        );
        self.transmit(env);
        if deliver_at_h > at_h + TIME_EPS {
            self.queue.schedule(deliver_at_h, FedEvent::Deliver(to));
        }
    }

    /// The retransmission timeout after `attempts` transmissions, in
    /// virtual hours (the [`RetryPolicy`] doubling discipline at
    /// transport scale).
    fn rto_h(&self, attempts: u32) -> f64 {
        self.cfg.retx_policy.backoff_ms(attempts) / 3_600_000.0
    }

    /// Hands one copy to the transport with a fresh cumulative
    /// piggyback, then sweeps whatever the fabric delivered into the
    /// arrival stash.
    fn transmit(&mut self, mut env: Envelope) {
        env.ack_upto = self
            .links
            .entry((env.to, env.from))
            .or_default()
            .rx_expected;
        self.transport.send(env);
        self.collect_transport();
    }

    /// Drains every shard's inbox into the arrival stash, scheduling a
    /// net wakeup for copies that arrive in the future (transport
    /// jitter). Copies already due are processed by the next
    /// `process_net_due` sweep.
    fn collect_transport(&mut self) {
        for s in 0..self.cores.len() {
            for env in self.transport.drain(s) {
                if env.arrive_at_h > self.now_h + TIME_EPS {
                    self.netq.schedule(env.arrive_at_h, NetEvent::Arrive);
                }
                let key = (env.arrive_at_h.to_bits(), self.next_stash);
                self.next_stash += 1;
                self.net_rx.insert(key, env);
            }
        }
    }

    /// Processes every stashed copy whose arrival instant has been
    /// reached, in (arrival time, drain order). Processing may send
    /// acks, which can arrive immediately — the loop re-inspects the
    /// stash each round.
    fn process_net_due(&mut self) {
        loop {
            let key = match self.net_rx.keys().next() {
                Some(&(bits, s)) if f64::from_bits(bits) <= self.now_h + TIME_EPS => (bits, s),
                _ => return,
            };
            let env = self.net_rx.remove(&key).expect("keyed");
            self.on_net_copy(env);
        }
    }

    /// Receiver-side reliable layer for one physically arrived copy:
    /// apply its cumulative piggyback, then dedup / buffer / release
    /// the payload and acknowledge the copy.
    fn on_net_copy(&mut self, env: Envelope) {
        // A copy transmitted while the sender's NIC was down, or
        // arriving while the receiver's was, never existed physically:
        // eaten before the piggyback, exactly like a burst-loss fate.
        // The sender's retransmission timer keeps re-arming through
        // the outage and a post-restart copy converges the link.
        if self.crashed_at(env.from, env.tx_at_h) || self.crashed_at(env.to, env.arrive_at_h) {
            self.stats.crash_copies_dropped += 1;
            return;
        }
        // The piggyback acknowledges the reverse link: `env.from` has
        // released everything below `ack_upto` of what `env.to` sent.
        self.apply_ack(env.to, env.from, env.ack_upto);
        if matches!(env.msg, FederationMsg::Ack) {
            return; // acks are pure control frames
        }
        let (from, to) = (env.from, env.to);
        let link = self.links.entry((from, to)).or_default();
        let seq = env.link_seq;
        if seq < link.rx_expected || link.rx_buffer.contains_key(&seq) {
            // A retransmission of something already released or held:
            // absorb it here — handlers must never see duplicates —
            // and re-ack so the sender can stop retransmitting even if
            // the original ack was lost.
            self.stats.duplicate_drops += 1;
            self.cores[to].shard.report.duplicate_drops += 1;
            self.send_ack(to, from);
            return;
        }
        if seq > link.rx_expected {
            // A gap: hold for in-order release.
            link.rx_buffer.insert(seq, env);
            let depth = link.rx_buffer.len() as u64;
            // Cumulative-ack watermark bound: every buffered sequence
            // is distinct and lies strictly inside
            // (rx_expected, max_buffered], so by pigeonhole the depth
            // can never exceed `max_buffered - rx_expected` — eviction
            // is impossible, the buffer drains purely by in-order
            // release advancing `rx_expected`. The hard cap is a
            // deterministic sanity ceiling far above any reachable
            // depth (a link can hold at most `tx_next_seq -
            // rx_expected` distinct undelivered sequences).
            let hi = *link.rx_buffer.keys().next_back().expect("just inserted");
            assert!(
                depth <= hi - link.rx_expected,
                "reorder buffer broke its cumulative-ack watermark"
            );
            assert!(
                depth <= REORDER_CAP,
                "reorder buffer exceeded its deterministic bound"
            );
            self.stats.reorder_buffered += 1;
            self.stats.reorder_depth_max = self.stats.reorder_depth_max.max(depth);
            let report = &mut self.cores[to].shard.report;
            report.reorder_depth_max = report.reorder_depth_max.max(depth as u32);
            self.send_ack(to, from);
            return;
        }
        // The expected sequence: release it plus any consecutive run
        // it unblocks.
        let mut released = vec![env];
        link.rx_expected += 1;
        while let Some(next) = link.rx_buffer.remove(&link.rx_expected) {
            released.push(next);
            link.rx_expected += 1;
        }
        for env in released {
            let key = (env.deliver_at_h.to_bits(), env.seq);
            let was_in_flight = self.in_flight.remove(&key);
            debug_assert!(was_in_flight, "released payload was in flight");
            let delay_us = ((self.now_h - env.sent_at_h).max(0.0) * 3.6e9) as u64;
            self.stats.convergence_delay_us_total += delay_us;
            self.stats.convergence_delay_us_max = self.stats.convergence_delay_us_max.max(delay_us);
            self.pending.insert(key, env);
        }
        self.send_ack(to, from);
    }

    /// Clears acknowledged payloads from the (`src`, `dst`) link's
    /// retransmission window, recording each payload's final attempt
    /// count into the sender's stage profile.
    fn apply_ack(&mut self, src: usize, dst: usize, upto: u64) {
        let Some(link) = self.links.get_mut(&(src, dst)) else {
            return;
        };
        let done: Vec<u64> = link.tx.range(..upto).map(|(&s, _)| s).collect();
        let mut attempts = Vec::with_capacity(done.len());
        for seq in done {
            attempts.push(link.tx.remove(&seq).expect("keyed").attempts);
        }
        for a in attempts {
            self.cores[src]
                .shard
                .server
                .record_retransmits(u64::from(a));
        }
    }

    /// Sends a standalone cumulative ack frame from `rx` back to `tx`
    /// for the (`tx`, `rx`) payload link. Pure net-layer traffic: not
    /// sequenced, not retransmitted, never delivered to handlers, and
    /// excluded from the application message count.
    fn send_ack(&mut self, rx: usize, tx: usize) {
        self.stats.acks_sent += 1;
        let link = self.links.entry((rx, tx)).or_default();
        let link_seq = link.ack_next;
        link.ack_next += 1;
        let ack_upto = self.links.entry((tx, rx)).or_default().rx_expected;
        let env = Envelope {
            seq: self.next_net_seq,
            from: rx,
            to: tx,
            sent_at_h: self.now_h,
            deliver_at_h: self.now_h,
            link_seq,
            attempt: 0,
            ack_upto,
            tx_at_h: self.now_h,
            arrive_at_h: self.now_h,
            msg: FederationMsg::Ack,
        };
        self.next_net_seq += 1;
        self.transport.send(env);
        self.collect_transport();
    }

    /// Handles one net-layer event, then sweeps the stash.
    fn on_net(&mut self, ev: NetEvent) {
        if let NetEvent::Retx { from, to, seq } = ev {
            let due = self
                .links
                .get_mut(&(from, to))
                .and_then(|l| l.tx.get_mut(&seq))
                .map(|entry| {
                    entry.attempts += 1;
                    let mut env = entry.env.clone();
                    env.attempt = entry.attempts;
                    (env, entry.attempts)
                });
            if let Some((mut env, attempts)) = due {
                // Still unacknowledged: retransmit with a fresh copy
                // stamp and arm the next (backed-off) timer.
                env.tx_at_h = self.now_h;
                env.arrive_at_h = self.now_h;
                self.stats.retransmissions += 1;
                self.cores[from].shard.report.retransmissions += 1;
                self.transmit(env);
                self.netq.schedule(
                    self.now_h + self.rto_h(attempts),
                    NetEvent::Retx { from, to, seq },
                );
            }
        }
        self.process_net_due();
    }

    fn run(&mut self) -> Result<(), InvariantViolation> {
        self.run_events()?;
        self.finalize_shards()
    }

    /// The two-queue main loop. Application events open *turns*;
    /// net-layer events (arrivals, retransmission timers) interleave in
    /// global time order. A turn blocked on an undelivered payload
    /// yields to the net queue until the payload physically lands —
    /// application events are never popped past a blocked turn, so the
    /// application event order is exactly the perfect run's.
    fn run_events(&mut self) -> Result<(), InvariantViolation> {
        loop {
            self.resume_turn()?;
            if self.turn.is_some() {
                // Blocked on a payload due at this turn's instant:
                // only net progress (a retransmission getting through)
                // can release it.
                let (t, ev) = self
                    .netq
                    .pop()
                    .expect("blocked turn starves: no net event can release its payload");
                self.now_h = self.now_h.max(t);
                self.on_net(ev);
                continue;
            }
            let pop_net = match (self.netq.peek_time(), self.queue.peek_time()) {
                (Some(tn), Some(ta)) => tn <= ta,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => return Ok(()),
            };
            if pop_net {
                let (t, ev) = self.netq.pop().expect("peeked");
                self.now_h = self.now_h.max(t);
                self.on_net(ev);
            } else {
                let (at_h, event) = self.queue.pop().expect("peeked");
                self.now_h = self.now_h.max(at_h);
                self.begin_turn(at_h, event);
            }
        }
    }

    /// Dispatches one application event and opens its turn. The turn
    /// is pumped (and closed) by `resume_turn` on the next loop round.
    fn begin_turn(&mut self, at_h: f64, event: FedEvent) {
        debug_assert!(self.turn.is_none(), "turns are strictly sequential");
        let mut touched: BTreeSet<usize> = BTreeSet::new();
        match event {
            FedEvent::Arrival(i) => self.on_arrival(i, at_h, &mut touched),
            FedEvent::Departure(i) => self.on_departure(i, at_h, &mut touched),
            FedEvent::Fault(j) => self.on_fault(j, at_h, &mut touched),
            FedEvent::Heartbeat(g) => self.on_heartbeat(g, at_h, &mut touched),
            FedEvent::LeaseCheck(g) => self.on_lease_check(g, at_h, &mut touched),
            FedEvent::Decide(hid) => self.on_decide(hid, at_h, &mut touched),
            FedEvent::Expire(hid) => self.on_expire(hid, at_h, &mut touched),
            FedEvent::Deliver(to) => {
                // The turn's pump delivers everything due.
                debug_assert!(to < self.cores.len(), "deliver target in range");
            }
        }
        self.turn = Some(Turn { at_h, touched });
    }

    /// Pumps the open turn, if any; when it completes, runs the shard
    /// core's per-event epilogue for every shard it touched.
    fn resume_turn(&mut self) -> Result<(), InvariantViolation> {
        let Some(mut turn) = self.turn.take() else {
            return Ok(());
        };
        if self.pump_turn(&mut turn) {
            for s in std::mem::take(&mut turn.touched) {
                self.cores[s].finish_event(turn.at_h)?;
                self.retag(s);
            }
        } else {
            self.turn = Some(turn);
        }
        Ok(())
    }

    /// Delivers everything due at the turn's instant in the global
    /// (deliver time, send seq) order, gated on physical delivery.
    /// Returns `false` while a payload due at this instant is still in
    /// flight — the turn then waits for net progress.
    fn pump_turn(&mut self, turn: &mut Turn) -> bool {
        loop {
            self.process_net_due();
            if let Some(&(bits, seq)) = self.pending.keys().next() {
                if f64::from_bits(bits) <= turn.at_h + TIME_EPS {
                    if self
                        .in_flight
                        .first()
                        .is_some_and(|&flight| flight < (bits, seq))
                    {
                        // An earlier payload in the global order has
                        // not physically landed yet.
                        return false;
                    }
                    let env = self.pending.remove(&(bits, seq)).expect("keyed");
                    self.deliver(env, turn.at_h, &mut turn.touched);
                    continue;
                }
            }
            // Nothing released is due; the turn can only close once no
            // in-flight payload is due at (or before) its instant.
            return !self
                .in_flight
                .first()
                .is_some_and(|&(bits, _)| f64::from_bits(bits) <= turn.at_h + TIME_EPS);
        }
    }

    /// Routes an arrival: client draw over the *global* up list,
    /// admission on the owner shard, cross-domain forwarding when a
    /// specialized registry lacks the service type.
    fn on_arrival(&mut self, i: usize, at_h: f64, touched: &mut BTreeSet<usize>) {
        let mut up: Vec<usize> = Vec::new();
        for core in &self.cores {
            up.extend(core.up_devices().map(|d| core.offset + d));
        }
        let client = client_draw(self.cfg.base.seed, i, &up);
        let a = self.owner(client);
        self.directory.insert(i, Loc::At(a));
        let arrival = Arrival {
            req: i,
            graph_index: self.trace[i].graph_index,
            client_local: client - self.offsets[a],
            via: None,
        };
        let Err(e) = self.touch(a, at_h, touched).arrival(arrival, at_h) else {
            return;
        };
        // Cross-domain resolution: only for composition failures on a
        // specialized, reachable shard. The probe chain runs as
        // asynchronous message round trips; every leg connects two
        // mutually-reachable shards, so the whole chain resolves inside
        // this arrival's turn and the deny below is the only synchronous
        // fallback (nothing probe-able at all).
        let probing = self.specialized
            && matches!(e, ConfigureError::Composition(_))
            && self.reachable_shard(a, at_h)
            && {
                let st = DiscoveryState {
                    origin: a,
                    arrival,
                    err: e.to_string(),
                    pos: 0,
                };
                self.probe_from(st, 0, at_h).is_none()
            };
        if !probing {
            self.cores[a].deny_arrival(arrival, at_h, &e);
        }
    }

    /// Probes the first probe-able candidate of `st.origin` (domain-tree
    /// resolution order) at or after position `from` with a
    /// `DiscoverRemote`, parking the continuation in `pending_discovery`
    /// until the `DiscoverFound` reply lands. Returns the state back
    /// when no candidate is left, so the caller can deny the arrival.
    fn probe_from(
        &mut self,
        mut st: DiscoveryState,
        from: usize,
        at_h: f64,
    ) -> Option<DiscoveryState> {
        let candidates = self.candidates[st.origin].clone();
        for (pos, &b) in candidates.iter().enumerate().skip(from) {
            if !self.reachable_shard(b, at_h) || self.suspected_shard(b, at_h) {
                continue;
            }
            self.stats.remote_discoveries += 1;
            st.pos = pos;
            let (origin, req) = (st.origin, st.arrival.req);
            let service_type = probe_type(st.arrival.graph_index).to_owned();
            self.pending_discovery.insert(req, st);
            self.send(
                origin,
                b,
                at_h,
                FederationMsg::DiscoverRemote { service_type, req },
            );
            return None;
        }
        Some(st)
    }

    /// Lands a `DiscoverFound` reply on the origin shard: forwards the
    /// arrival to the advertising shard on a hit, probes the next
    /// candidate on a miss, and denies with the original composition
    /// error once the candidate list runs dry.
    fn deliver_discover_found(
        &mut self,
        b: usize,
        a: usize,
        found: bool,
        req: usize,
        at_h: f64,
        touched: &mut BTreeSet<usize>,
    ) {
        let st = self
            .pending_discovery
            .remove(&req)
            .expect("a DiscoverFound reply always has a parked continuation");
        debug_assert_eq!(st.origin, a, "the reply returns to the probing shard");
        let core = self.touch(a, at_h, touched);
        if found {
            let name = template_name(st.arrival.graph_index);
            let probe = probe_type(st.arrival.graph_index);
            let client = core.offset + st.arrival.client_local;
            core.log.push_args(
                at_h,
                format_args!(
                    "arrive  req{req} {name} client=dev{client} -> forwarded to shard{b} (no local {probe})"
                ),
            );
            self.stats.forwarded += 1;
            self.stats.forwarded_out[a] += 1;
            self.stats.forwarded_in[b] += 1;
            self.admit_forwarded(st.arrival, a, b, at_h, touched);
        } else {
            let from = st.pos + 1;
            if let Some(st) = self.probe_from(st, from, at_h) {
                self.cores[a].deny_arrival(st.arrival, at_h, &st.err);
            }
        }
    }

    /// Admits an arrival forwarded from shard `a` on shard `b`: its own
    /// deterministic client draw over its local up list, then the
    /// shard-core admission with a `via shard{a}` transcript tag.
    fn admit_forwarded(
        &mut self,
        origin: Arrival,
        a: usize,
        b: usize,
        at_h: f64,
        touched: &mut BTreeSet<usize>,
    ) {
        let seed = self.cfg.base.seed;
        let core = self.touch(b, at_h, touched);
        let b_up: Vec<usize> = core.up_devices().collect();
        debug_assert!(!b_up.is_empty(), "per-shard crash skips keep one device up");
        let arrival = Arrival {
            client_local: client_draw(seed, origin.req, &b_up),
            via: Some(a),
            ..origin
        };
        if let Err(e) = core.admit_arrival(arrival, at_h) {
            core.deny_arrival(arrival, at_h, &e);
        }
        self.directory.insert(arrival.req, Loc::At(b));
    }

    /// Routes a departure through the directory to the shard core's
    /// departure arm; a mid-handoff departure is deferred to the
    /// commit.
    fn on_departure(&mut self, i: usize, at_h: f64, touched: &mut BTreeSet<usize>) {
        let s = match self.directory.get(&i) {
            Some(&Loc::At(s)) => s,
            Some(&Loc::InFlight(hid)) => {
                let a = self.handoffs[&hid].source;
                let core = self.touch(a, at_h, touched);
                core.shard.report.events += 1;
                core.log.push_args(
                    at_h,
                    format_args!("depart  req{i} -> in flight (h{hid}, deferred to commit)"),
                );
                self.handoffs
                    .get_mut(&hid)
                    .expect("tracked handoff")
                    .departed = true;
                return;
            }
            // Every arrival sets the directory; route defensively to
            // the home shard.
            None => 0,
        };
        self.touch(s, at_h, touched).depart(i, at_h);
    }

    /// Dispatches one scheduled fault: single-device kinds remap to
    /// the owner shard's local index and run the shard core's fault
    /// arm; scoped kinds split into per-shard sub-scopes; moves and
    /// switches pick over the global live-session list and become
    /// two-phase handoffs when they cross a shard boundary.
    fn on_fault(&mut self, j: usize, at_h: f64, touched: &mut BTreeSet<usize>) {
        let fault = self.schedule[j];
        let local = |kind| TimedFault {
            at_h: fault.at_h,
            kind,
        };
        match fault.kind {
            FaultKind::Crash { device }
            | FaultKind::Recover { device }
            | FaultKind::Fluctuate { device, .. }
            | FaultKind::JamHeartbeats { device, .. } => {
                let s = self.owner(device);
                let device = device - self.offsets[s];
                let kind = match fault.kind {
                    FaultKind::Crash { .. } => FaultKind::Crash { device },
                    FaultKind::Recover { .. } => FaultKind::Recover { device },
                    FaultKind::Fluctuate { factor, .. } => FaultKind::Fluctuate { device, factor },
                    FaultKind::JamHeartbeats { until_h, .. } => {
                        FaultKind::JamHeartbeats { device, until_h }
                    }
                    _ => unreachable!(),
                };
                self.apply_local_fault(s, local(kind), at_h, touched);
            }
            FaultKind::DegradeLink { a, b, factor } => {
                let sa = self.owner(a);
                let sb = self.owner(b);
                if sa == sb {
                    let off = self.offsets[sa];
                    let kind = FaultKind::DegradeLink {
                        a: a - off,
                        b: b - off,
                        factor,
                    };
                    self.apply_local_fault(sa, local(kind), at_h, touched);
                } else {
                    // No inter-shard links exist in the sharded space;
                    // the fault is observed (and logged) by the lower
                    // endpoint's owner.
                    let core = self.touch(sa.min(sb), at_h, touched);
                    core.shard.report.events += 1;
                    core.log.push_args(
                        at_h,
                        format_args!(
                            "fault   degrade-link dev{a}-dev{b} -> skipped (cross-shard link)"
                        ),
                    );
                }
            }
            FaultKind::CrashScope { first, count }
            | FaultKind::Partition { first, count }
            | FaultKind::Heal { first, count } => {
                let lo = first;
                let hi = first + count;
                let mut any = false;
                for s in 0..self.cores.len() {
                    let off = self.offsets[s];
                    let s_lo = lo.max(off);
                    let s_hi = hi.min(off + self.cores[s].shard.cfg.devices);
                    if s_lo >= s_hi {
                        continue;
                    }
                    any = true;
                    let (first, count) = (s_lo - off, s_hi - s_lo);
                    let kind = match fault.kind {
                        FaultKind::CrashScope { .. } => FaultKind::CrashScope { first, count },
                        FaultKind::Partition { .. } => FaultKind::Partition { first, count },
                        FaultKind::Heal { .. } => FaultKind::Heal { first, count },
                        _ => unreachable!(),
                    };
                    self.apply_local_fault(s, local(kind), at_h, touched);
                }
                debug_assert!(any, "scoped faults index the device space");
            }
            FaultKind::SwitchDevice { pick, to } => {
                self.on_move(pick, to, false, at_h, touched);
            }
            FaultKind::MoveUser { pick, to } => {
                self.on_move(pick, to, true, at_h, touched);
            }
            FaultKind::ShardCrash { shard } => {
                self.crash_shard(shard);
            }
            FaultKind::ShardRestart { .. } => {
                // The restart instant only closes the NIC-dead window
                // (already derived from the schedule in `new`); the
                // rebuild happened at the crash instant.
            }
        }
    }

    /// Tears down shard `s` at the crash instant and rebuilds it from
    /// its last snapshot plus WAL replay, asserting the rebuild is
    /// field-for-field identical before swapping it in. The crash does
    /// NOT advance the shard clock, log a line, or count an event, and
    /// the transcript (engine-level output) is left untouched —
    /// recovery is invisible in the event log by construction, so the
    /// digest-pinned equivalence contract stays two-sided (any replay
    /// bug trips the hard assert here and the digest gate downstream).
    fn crash_shard(&mut self, s: usize) {
        let core = &mut self.cores[s];
        // Counters first, so the crash-boundary `Mark` (and therefore
        // the rebuilt report) already carries this crash.
        core.shard.report.shard_crashes += 1;
        core.mark();
        let replayed = core.wal.tail.len() as u64;
        let rebuilt = core.wal.recover(core.grace_ms);
        assert_recovered_equal(&core.shard, &rebuilt, s);
        core.restore(rebuilt);
        core.shard.report.wal_replayed += replayed as u32;
        core.shard.report.snapshot_restores += 1;
        // Fresh checkpoint: the post-recovery state (with the counter
        // bumps above) becomes the new replay base.
        core.wal.checkpoint(&core.shard);
        self.stats.shard_crashes += 1;
        self.stats.wal_replayed += replayed;
        self.stats.snapshot_restores += 1;
        self.stats.wal_replay_depths.push(replayed);
    }

    /// Runs the shard core's device-fault arm on shard `s` with a
    /// shard-local fault.
    fn apply_local_fault(
        &mut self,
        s: usize,
        fault: TimedFault,
        at_h: f64,
        touched: &mut BTreeSet<usize>,
    ) {
        self.touch(s, at_h, touched).device_fault(&fault, at_h);
        self.retag(s);
    }

    /// The `move-user` / `switch-device` arm over the federated
    /// session space: the pick runs over the shard-major live-session
    /// list, the shard core relocates when source and destination
    /// share a shard, and a two-phase handoff runs otherwise.
    fn on_move(
        &mut self,
        pick: u64,
        to: usize,
        is_move: bool,
        at_h: f64,
        touched: &mut BTreeSet<usize>,
    ) {
        let b = self.owner(to);
        let Some((a, id)) = pick_live(&self.cores, pick) else {
            let core = self.touch(b, at_h, touched);
            core.shard.report.events += 1;
            core.relocate(None, to - core.offset, is_move, at_h);
            return;
        };
        let in_progress = self.handoffs.values().any(|h| {
            h.source == a
                && h.sid == id
                && !matches!(h.state, HandoffState::Committed | HandoffState::Aborted)
        });
        let core = self.touch(a, at_h, touched);
        core.shard.report.events += 1;
        if in_progress {
            let label = if is_move {
                "move-user"
            } else {
                "switch-device"
            };
            core.log.push_args(
                at_h,
                format_args!("fault   {label} {id} -> skipped (handoff in progress)"),
            );
        } else if a == b {
            core.relocate(Some(id), to - core.offset, is_move, at_h);
        } else {
            self.initiate_handoff(a, b, id, to, is_move, at_h);
        }
    }

    /// Starts (or parks) a cross-shard handoff at `at_h`.
    fn initiate_handoff(
        &mut self,
        a: usize,
        b: usize,
        id: SessionId,
        to_global: usize,
        is_move: bool,
        at_h: f64,
    ) {
        let label = if is_move {
            "move-user"
        } else {
            "switch-device"
        };
        let core = &mut self.cores[a];
        let report = &mut core.shard.report;
        if is_move {
            report.moves += 1;
        } else {
            report.switches += 1;
        }
        let (name, graph, qos, old_client) = {
            let s = core.shard.server.session(id).expect("picked live session");
            (
                s.name.clone(),
                s.abstract_graph.clone(),
                s.user_qos.clone(),
                s.client_device,
            )
        };
        let req = core.shard.by_session[&id];
        if self.suspected_shard(b, at_h) {
            // Suspected destination: never half-move. The session is
            // stopped (exact refund) and parked on the source into the
            // retry queue, witnessed by the stale view of dev`to`.
            self.stats.handoffs_parked_dest_suspected += 1;
            let witness = ConfigureError::StaleView { device: to_global };
            let core = &mut self.cores[a];
            core.call_stop(id);
            let pid = core.call_park(name, graph, qos, old_client.index(), witness);
            let report = &mut core.shard.report;
            report.parked += 1;
            if is_move {
                report.move_failures += 1;
            } else {
                report.switch_failures += 1;
            }
            core.untrack(req, id);
            core.track(req, pid);
            core.log.push_args(
                at_h,
                format_args!(
                    "fault   {label} {id} -> dev{to_global}@shard{b} parked (destination suspected) as {pid}"
                ),
            );
            return;
        }
        let hid = self.next_hid;
        self.next_hid += 1;
        self.stats.handoffs_initiated += 1;
        let client_local = to_global - self.offsets[b];
        self.handoffs.insert(
            hid,
            Handoff {
                req,
                source: a,
                dest: b,
                sid: id,
                is_move,
                name,
                graph,
                qos,
                client_local,
                to_global,
                state: HandoffState::Reserving,
                reservation: Reservation::None,
                departed: false,
            },
        );
        self.send(a, b, at_h, FederationMsg::Reserve { hid });
        let decide_h = at_h + self.cfg.commit_lag_h;
        self.queue.schedule(decide_h, FedEvent::Decide(hid));
        self.cores[a].log.push_args(
            at_h,
            format_args!(
                "fault   {label} {id} -> dev{to_global}@shard{b} reserving (h{hid}, decide at t={decide_h:.4}h)"
            ),
        );
    }

    /// The commit-or-abort decision on the source shard,
    /// `commit_lag_h` after the reserve.
    fn on_decide(&mut self, hid: u64, at_h: f64, touched: &mut BTreeSet<usize>) {
        let (a, b, sid, req, state) = {
            let h = &self.handoffs[&hid];
            (h.source, h.dest, h.sid, h.req, h.state)
        };
        let core = self.touch(a, at_h, touched);
        if matches!(state, HandoffState::Committed | HandoffState::Aborted) {
            core.log.push_args(
                at_h,
                format_args!("handoff h{hid} decide -> already resolved"),
            );
            return;
        }
        let tracked = core.shard.by_session.contains_key(&sid);
        let live = tracked && core.shard.server.session(sid).is_some();
        if !tracked {
            self.abort_handoff(hid, at_h, "session gone", false);
        } else if !live {
            self.abort_handoff(hid, at_h, "session parked on source", false);
        } else if state == HandoffState::Reserving {
            self.abort_handoff(hid, at_h, "no reserve acknowledgement", true);
        } else if self.suspected_shard(b, at_h) {
            let reason = format!("destination shard{b} suspected");
            self.abort_handoff(hid, at_h, &reason, true);
        } else if !self.reachable_shard(a, at_h) {
            let reason = format!("source shard{a} partitioned");
            self.abort_handoff(hid, at_h, &reason, true);
        } else {
            // Commit: release on the source (exact refund), custody
            // transfers in flight.
            let core = &mut self.cores[a];
            core.call_stop(sid);
            core.untrack(req, sid);
            core.log.push_args(
                at_h,
                format_args!(
                    "handoff h{hid} decide -> commit ({sid} released from shard{a}, in flight to shard{b})"
                ),
            );
            self.handoffs.get_mut(&hid).expect("tracked").state = HandoffState::Committed;
            self.stats.handed_out[a] += 1;
            self.stats.handoffs_committed += 1;
            self.directory.insert(req, Loc::InFlight(hid));
            self.send(a, b, at_h, FederationMsg::Commit { hid });
        }
    }

    /// Aborts handoff `hid` at decide time: the source keeps (or has
    /// already lost) the session, and the destination is told to
    /// release whatever it holds. When the source is partitioned the
    /// abort itself defers — the reservation lease expires first and
    /// cleans up without it.
    fn abort_handoff(&mut self, hid: u64, at_h: f64, reason: &str, count_failure: bool) {
        let h = self.handoffs.get_mut(&hid).expect("tracked");
        h.state = HandoffState::Aborted;
        let (a, b) = (h.source, h.dest);
        self.stats.handoffs_aborted += 1;
        let core = &mut self.cores[a];
        if count_failure {
            let report = &mut core.shard.report;
            if h.is_move {
                report.move_failures += 1;
            } else {
                report.switch_failures += 1;
            }
            core.log.push_args(
                at_h,
                format_args!("handoff h{hid} decide -> abort ({reason}), old config kept"),
            );
        } else {
            core.log.push_args(
                at_h,
                format_args!("handoff h{hid} decide -> abort ({reason})"),
            );
        }
        self.send(a, b, at_h, FederationMsg::Abort { hid });
    }

    /// Reservation lease expiry on the destination: a reservation not
    /// yet committed or aborted is released with an exact refund,
    /// witnessing the source's stale view of the handoff.
    fn on_expire(&mut self, hid: u64, at_h: f64, touched: &mut BTreeSet<usize>) {
        let h = &self.handoffs[&hid];
        let (b, to_global) = (h.dest, h.to_global);
        // Already resolved — the expiry is a no-op and the shard is not
        // even touched.
        let (Reservation::Live(raw) | Reservation::Parked(raw)) = h.reservation else {
            return;
        };
        let rid = SessionId::from_raw(raw);
        let core = self.touch(b, at_h, touched);
        core.call_stop(rid);
        let witness = ConfigureError::StaleView { device: to_global };
        core.log.push_args(
            at_h,
            format_args!("handoff h{hid} reservation lease expired -> {rid} released ({witness})"),
        );
        self.res_index.remove(&(b, raw));
        self.handoffs.get_mut(&hid).expect("tracked").reservation = Reservation::Expired;
        self.stats.reservation_expiries += 1;
    }

    /// The shard core's heartbeat arm, routed to the owner shard.
    fn on_heartbeat(&mut self, g: usize, at_h: f64, touched: &mut BTreeSet<usize>) {
        let s = self.owner(g);
        let d = g - self.offsets[s];
        if self.touch(s, at_h, touched).heartbeat(d, at_h) {
            self.retag(s);
            self.queue.schedule(
                at_h + self.cfg.base.detection_grace_h,
                FedEvent::LeaseCheck(g),
            );
        }
    }

    /// The shard core's lease-check arm, routed to the owner shard
    /// (same-instant checks on one shard share a single sweep).
    fn on_lease_check(&mut self, g: usize, at_h: f64, touched: &mut BTreeSet<usize>) {
        let s = self.owner(g);
        self.touch(s, at_h, touched).lease_check(at_h);
        self.retag(s);
    }

    /// Processes one delivered message on its destination shard. The
    /// handler time is the envelope's own delivery instant — by the
    /// turn gating it always equals the open turn's instant
    /// (`turn_at_h`), however late the transport physically was.
    fn deliver(&mut self, env: Envelope, turn_at_h: f64, touched: &mut BTreeSet<usize>) {
        let at_h = env.deliver_at_h;
        debug_assert_eq!(
            at_h.to_bits(),
            turn_at_h.to_bits(),
            "a payload is always delivered by the turn at its own instant"
        );
        // Attribute the message's queueing delay (virtual µs spent
        // deferred behind a partition; zero for immediate delivery) to
        // the destination shard's queue-wait slot, so the federation
        // artifact reports per-shard message-queue distributions
        // through the same [`StageTimes`] schema the pipeline uses.
        let wait_h = (env.deliver_at_h - env.sent_at_h).max(0.0);
        self.cores[env.to]
            .shard
            .server
            .record_queue_wait_us((wait_h * 3.6e9) as u64);
        match env.msg {
            FederationMsg::Ack => {
                unreachable!("ack frames are consumed by the reliable sublayer")
            }
            FederationMsg::DiscoverRemote { service_type, req } => {
                // Answer from the registry without touching the shard's
                // clock, log, or counters — a probe is a read, exactly
                // as in the old synchronous round trip.
                let b = env.to;
                let hit = self.cores[b]
                    .shard
                    .server
                    .registry()
                    .discover(&DiscoveryQuery::new(service_type))
                    .is_some();
                self.send(
                    b,
                    env.from,
                    at_h,
                    FederationMsg::DiscoverFound { found: hit, req },
                );
            }
            FederationMsg::DiscoverFound { found, req } => {
                self.deliver_discover_found(env.from, env.to, found, req, at_h, touched);
            }
            FederationMsg::Reserve { hid } => {
                let b = env.to;
                let h = &self.handoffs[&hid];
                let (state, client_local) = (h.state, h.client_local);
                let (name, graph, qos) = (h.name.clone(), h.graph.clone(), h.qos.clone());
                let reserve_grace_h = self.cfg.reserve_grace_h;
                self.touch(b, at_h, touched);
                let core = &mut self.cores[b];
                if state == HandoffState::Aborted {
                    core.log.push_args(
                        at_h,
                        format_args!("fedmsg  h{hid} reserve -> declined (handoff aborted)"),
                    );
                    self.handoffs.get_mut(&hid).expect("tracked").reservation = Reservation::Done;
                    return;
                }
                let client = DeviceId::from_index(client_local);
                let speculated = core
                    .shard
                    .server
                    .speculate_configure(&graph, &qos, client, None);
                let (reservation, reply) = match core.call_start(
                    || name.clone(),
                    graph,
                    qos,
                    client_local,
                    speculated,
                ) {
                    Ok(rid) => {
                        let expire_h = at_h + reserve_grace_h;
                        core.log.push_args(
                                at_h,
                                format_args!(
                                    "fedmsg  h{hid} reserve dev{client_local} -> held as {rid} (lease until t={expire_h:.4}h)"
                                ),
                            );
                        self.res_index.insert((b, rid.raw()), hid);
                        self.queue.schedule(expire_h, FedEvent::Expire(hid));
                        (
                            Reservation::Live(rid.raw()),
                            FederationMsg::ReserveOk { hid },
                        )
                    }
                    Err(e) => {
                        core.log.push_args(
                            at_h,
                            format_args!(
                                "fedmsg  h{hid} reserve dev{client_local} -> declined ({e})"
                            ),
                        );
                        let error = format!("{e}");
                        (Reservation::Done, FederationMsg::ReserveErr { hid, error })
                    }
                };
                self.handoffs.get_mut(&hid).expect("tracked").reservation = reservation;
                self.send(b, env.from, at_h, reply);
            }
            FederationMsg::ReserveOk { hid } => {
                self.touch(env.to, at_h, touched);
                let core = &mut self.cores[env.to];
                let h = self.handoffs.get_mut(&hid).expect("tracked");
                if h.state == HandoffState::Reserving {
                    h.state = HandoffState::Reserved;
                    core.log
                        .push_args(at_h, format_args!("fedmsg  h{hid} reserve-ok -> reserved"));
                } else {
                    core.log.push_args(
                        at_h,
                        format_args!("fedmsg  h{hid} reserve-ok -> ignored (already resolved)"),
                    );
                }
            }
            FederationMsg::ReserveErr { hid, error } => {
                let a = env.to;
                self.touch(a, at_h, touched);
                let core = &mut self.cores[a];
                let h = self.handoffs.get_mut(&hid).expect("tracked");
                if h.state != HandoffState::Reserving {
                    core.log.push_args(
                        at_h,
                        format_args!("fedmsg  h{hid} reserve-err -> ignored (already resolved)"),
                    );
                    return;
                }
                h.state = HandoffState::Aborted;
                let shard = &mut core.shard;
                if shard.by_session.contains_key(&h.sid) && shard.server.session(h.sid).is_some() {
                    if h.is_move {
                        shard.report.move_failures += 1;
                    } else {
                        shard.report.switch_failures += 1;
                    }
                }
                core.log.push_args(
                    at_h,
                    format_args!(
                        "fedmsg  h{hid} reserve-err ({error}) -> aborted, old config kept"
                    ),
                );
                self.stats.handoffs_aborted += 1;
            }
            FederationMsg::Commit { hid } => {
                self.deliver_commit(hid, at_h, touched);
            }
            FederationMsg::Abort { hid } => {
                let b = env.to;
                let held = self.handoffs[&hid].reservation;
                self.touch(b, at_h, touched);
                let core = &mut self.cores[b];
                let (Reservation::Live(raw) | Reservation::Parked(raw)) = held else {
                    core.log
                        .push_args(at_h, format_args!("fedmsg  h{hid} abort -> nothing held"));
                    return;
                };
                let rid = SessionId::from_raw(raw);
                core.call_stop(rid);
                core.log.push_args(
                    at_h,
                    format_args!(
                        "fedmsg  h{hid} abort -> reservation {rid} released (exact refund)"
                    ),
                );
                self.handoffs.get_mut(&hid).expect("tracked").reservation = Reservation::Done;
                self.res_index.remove(&(b, raw));
            }
        }
    }

    /// Phase-2 commit on the destination: promote the reservation to
    /// ownership — or, when the lease already expired (partition-
    /// -delayed commit) or a destination recovery pass dropped it,
    /// re-admit the session from its snapshot.
    fn deliver_commit(&mut self, hid: u64, at_h: f64, touched: &mut BTreeSet<usize>) {
        let h = self.handoffs.get_mut(&hid).expect("tracked");
        let (b, req, reservation, departed) = (h.dest, h.req, h.reservation, h.departed);
        let client_local = h.client_local;
        let (name, graph, qos) = (h.name.clone(), h.graph.clone(), h.qos.clone());
        if !matches!(reservation, Reservation::None | Reservation::Done) {
            h.reservation = Reservation::Done;
            self.stats.handed_in[b] += 1;
        }
        let core = &mut self.cores[b];
        touched.insert(b);
        core.advance(at_h);
        let line = match reservation {
            Reservation::Live(raw) | Reservation::Parked(raw) => {
                let rid = SessionId::from_raw(raw);
                self.res_index.remove(&(b, raw));
                if departed {
                    core.call_stop(rid);
                    core.shard.report.completed += 1;
                    format!(
                        "fedmsg  h{hid} commit -> {rid} arrived, user already departed (completed)"
                    )
                } else {
                    core.track(req, rid);
                    let parked_tag = if matches!(reservation, Reservation::Parked(_)) {
                        " (parked)"
                    } else {
                        ""
                    };
                    format!(
                        "fedmsg  h{hid} commit -> session {rid} now owned by shard{b}{parked_tag}"
                    )
                }
            }
            Reservation::Expired | Reservation::Dead => {
                self.stats.late_commits += 1;
                let cause = if reservation == Reservation::Dead {
                    "reservation dropped by recovery"
                } else {
                    "lease expired"
                };
                if departed {
                    core.shard.report.completed += 1;
                    format!("fedmsg  h{hid} commit -> {cause}, user departed (completed)")
                } else {
                    // A late commit parks on any failure.
                    let client = DeviceId::from_index(client_local);
                    let server = &core.shard.server;
                    let speculated = server.speculate_configure(&graph, &qos, client, None);
                    match core.call_start(
                        || name.clone(),
                        graph.clone(),
                        qos.clone(),
                        client_local,
                        speculated,
                    ) {
                        Ok(id) => {
                            core.track(req, id);
                            format!("fedmsg  h{hid} commit -> {cause}, re-admitted as {id}")
                        }
                        Err(e) => {
                            let id = core.call_park(name, graph, qos, client_local, e);
                            core.track(req, id);
                            core.shard.report.parked += 1;
                            format!("fedmsg  h{hid} commit -> {cause}, parked on arrival as {id}")
                        }
                    }
                }
            }
            // A declined reserve followed by a commit cannot happen
            // (decide aborts on `Reserving`); log defensively.
            Reservation::None | Reservation::Done => {
                format!("fedmsg  h{hid} commit -> nothing held (ignored)")
            }
        };
        core.log.push(at_h, &line);
        if !matches!(reservation, Reservation::None | Reservation::Done) {
            self.directory.insert(req, Loc::At(b));
        }
    }

    /// The end-of-campaign phase: asserts the federation reached a
    /// quiescent state — no undelivered messages, every handoff
    /// terminal, no reservation still indexed — then runs the shard
    /// core's final sweep, convergence drain, and report finalization
    /// per shard in index order.
    fn finalize_shards(&mut self) -> Result<(), InvariantViolation> {
        assert!(
            self.pending.is_empty(),
            "all envelopes delivered by the horizon"
        );
        assert!(
            self.in_flight.is_empty(),
            "every sent payload was released by the drain"
        );
        assert!(
            self.net_rx.is_empty(),
            "no physical copy is still in the air after the drain"
        );
        assert!(
            self.pending_discovery.is_empty(),
            "every discovery chain resolved within its arrival turn"
        );
        for (link, state) in &self.links {
            assert!(
                state.tx.is_empty() && state.rx_buffer.is_empty(),
                "no unacknowledged payload survives the drain (link {link:?})"
            );
            assert_eq!(
                state.rx_expected, state.tx_next_seq,
                "the receiver consumed every sequence number the sender issued (link {link:?})"
            );
        }
        for (hid, h) in &self.handoffs {
            assert!(
                matches!(h.state, HandoffState::Committed | HandoffState::Aborted),
                "handoff h{hid} left non-terminal"
            );
        }
        assert!(
            self.res_index.is_empty(),
            "no reservation outlives its handoff"
        );
        for core in &mut self.cores {
            core.finalize()?;
            debug_assert!(core.custody.is_empty(), "no reservation is left to sweep");
        }
        Ok(())
    }

    /// Consumes the engine into the outcome.
    fn finish(self) -> FederationOutcome {
        let wals = self.cores.iter().map(|c| &c.wal);
        let mut stats = self.stats;
        stats.wal_records = wals.clone().map(|w| w.appended).sum();
        debug_assert_eq!(
            stats.wal_replayed,
            wals.clone().map(|w| w.replayed).sum::<u64>(),
            "per-crash replay accounting matches the WALs' own"
        );
        debug_assert_eq!(
            stats.snapshot_restores,
            wals.map(|w| w.restores).sum::<u64>(),
            "per-crash restore accounting matches the WALs' own"
        );
        let shards: Vec<ShardOutcome> = self
            .cores
            .into_iter()
            .map(|core| ShardOutcome {
                stages: core.shard.server.stage_times(),
                report: core.shard.report,
                log: core.log,
            })
            .collect();
        let mut bytes = Vec::with_capacity(shards.len() * 8);
        for sh in &shards {
            bytes.extend_from_slice(&sh.report.log_digest.to_le_bytes());
        }
        let combined_digest = fnv1a(&bytes);
        let outcome = FederationOutcome {
            shards,
            stats,
            combined_digest,
        };
        debug_assert!(
            outcome.fates_balance(),
            "federated fates balance: {:?}",
            outcome.stats
        );
        outcome
    }
}

/// The service type an application template needs from a remote
/// registry when the local one is specialized: even graphs stream WAV
/// (ubiquitous), odd graphs need the `mpeg-source` that odd shards
/// drop.
fn probe_type(graph_index: usize) -> &'static str {
    if graph_index % 2 == 1 {
        "mpeg-source"
    } else {
        "wav-source"
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::shard_fingerprint;
    use proptest::prelude::*;

    fn small_cfg(shards: usize) -> FederationConfig {
        FederationConfig {
            base: FaultCampaignConfig {
                devices: 6,
                requests: 48,
                horizon_h: 12.0,
                faults: 10,
                ..FaultCampaignConfig::default()
            },
            shards,
            mobility: MobilityWaveConfig {
                moves: 10,
                waves: 2,
                horizon_h: 12.0,
                devices: 6,
                ..MobilityWaveConfig::default()
            },
            ..FederationConfig::default()
        }
    }

    #[test]
    fn shard_suspicion_windows_are_closed_form() {
        let mut cfg = small_cfg(2);
        cfg.shard_partitions = vec![ShardPartition {
            shard: 1,
            from_h: 1.0,
            to_h: 1.1,
        }];
        cfg.shard_grace_h = 0.05;
        cfg.shard_heartbeat_h = 0.25;
        let engine = Engine::new(&cfg, Vec::new(), Box::new(ChannelTransport::new(2)));
        // Reachability tracks the raw window.
        assert!(engine.reachable_shard(1, 0.99));
        assert!(!engine.reachable_shard(1, 1.0));
        assert!(!engine.reachable_shard(1, 1.05));
        assert!(engine.reachable_shard(1, 1.1));
        // Suspicion starts after the grace and holds until the next
        // heartbeat multiple after the heal (1.25h).
        assert!(!engine.suspected_shard(1, 1.02));
        assert!(engine.suspected_shard(1, 1.05));
        assert!(engine.suspected_shard(1, 1.2));
        assert!(!engine.suspected_shard(1, 1.25));
        // The other shard is never implicated.
        assert!(engine.reachable_shard(0, 1.05) && !engine.suspected_shard(0, 1.05));
        // Messages into the window defer to the heal.
        assert_eq!(engine.delivery_time(0, 1, 1.05), 1.1);
        assert_eq!(engine.delivery_time(1, 0, 1.05), 1.1);
        assert_eq!(engine.delivery_time(0, 1, 1.2), 1.2);
    }

    #[test]
    fn two_shards_balance_and_cross_traffic_flows() {
        let cfg = small_cfg(2);
        let fed = run_federation_campaign(&cfg).expect("federated run");
        assert!(fed.fates_balance(), "fate ledger: {:?}", fed.stats);
        let arrivals: u32 = fed.shards.iter().map(|s| s.report.arrivals).sum();
        assert_eq!(
            arrivals as usize, cfg.base.requests,
            "every arrival resolved on exactly one shard"
        );
        assert!(
            fed.stats.forwarded > 0,
            "specialized registries force cross-domain discovery: {:?}",
            fed.stats
        );
        assert!(
            fed.stats.handoffs_initiated > 0,
            "mobility waves cross the shard boundary"
        );
        assert_eq!(
            fed.stats.handoffs_initiated,
            fed.stats.handoffs_committed + fed.stats.handoffs_aborted,
            "every handoff resolves"
        );
        // Determinism: the same config reproduces the same digests.
        let again = run_federation_campaign(&cfg).expect("rerun");
        assert_eq!(fed.shard_digests(), again.shard_digests());
        assert_eq!(fed.combined_digest, again.combined_digest);
    }

    #[test]
    fn durability_journaling_is_invisible_when_crash_free() {
        for shards in [1usize, 2, 3] {
            let on = small_cfg(shards);
            let mut off = small_cfg(shards);
            off.durability.enabled = false;
            let a = run_federation_campaign(&on).expect("durability on");
            let b = run_federation_campaign(&off).expect("durability off");
            assert_eq!(a.combined_digest, b.combined_digest);
            for (x, y) in a.shards.iter().zip(&b.shards) {
                assert_eq!(x.log, y.log);
                assert_eq!(x.report, y.report);
            }
            assert!(a.stats.wal_records > 0, "the journal actually recorded");
            assert_eq!(b.stats.wal_records, 0, "disabled journal stays empty");
        }
    }

    #[test]
    fn seeded_shard_crashes_converge_to_the_crash_free_digests() {
        let baseline = run_federation_campaign(&small_cfg(2)).expect("crash-free run");
        let mut cfg = small_cfg(2);
        cfg.crashes = ShardCrashPlan {
            crashes: 3,
            shards: 2,
            horizon_h: 12.0,
            outage_h: 0.4,
            ..ShardCrashPlan::default()
        };
        let crashed = run_federation_campaign(&cfg).expect("crashed run");
        assert!(
            crashed.stats.shard_crashes >= 1,
            "the plan scheduled real crashes: {:?}",
            crashed.stats
        );
        assert_eq!(
            crashed.stats.snapshot_restores, crashed.stats.shard_crashes,
            "one snapshot restore per crash"
        );
        assert_eq!(
            crashed.shard_digests(),
            baseline.shard_digests(),
            "crashed shards rebuild to the crash-free run's event logs"
        );
        assert!(crashed.fates_balance());
    }

    #[test]
    fn a_crash_with_zero_wal_tail_restores_from_the_snapshot_alone() {
        // checkpoint_every = 1 checkpoints after every event, so the
        // crash replays (at most) the records of the crash instant's
        // own partial event group.
        let mut cfg = small_cfg(2);
        cfg.durability.checkpoint_every = 1;
        cfg.crashes = ShardCrashPlan {
            crashes: 2,
            shards: 2,
            horizon_h: 12.0,
            outage_h: 0.3,
            ..ShardCrashPlan::default()
        };
        let crashed = run_federation_campaign(&cfg).expect("crashed run");
        let baseline = run_federation_campaign(&small_cfg(2)).expect("crash-free run");
        assert_eq!(crashed.shard_digests(), baseline.shard_digests());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]
        #[test]
        fn replaying_any_wal_prefix_twice_equals_once(frac_a in 0.0f64..1.0, frac_b in 0.0f64..1.0) {
            // Keep the whole history in the tail so every prefix of the
            // run is replayable from the initial snapshot.
            let mut cfg = small_cfg(2);
            cfg.durability.checkpoint_every = usize::MAX;
            let schedule = cfg.schedule();
            let mut engine = Engine::new(&cfg, schedule, Box::new(ChannelTransport::new(2)));
            engine.run_events().expect("run");
            for (s, core) in engine.cores.iter().enumerate() {
                let wal = &core.wal;
                let len = wal.tail.len();
                prop_assert!(len > 0, "shard {s} journaled nothing");
                for frac in [frac_a, frac_b, 1.0] {
                    let n = (((len + 1) as f64) * frac) as usize;
                    let n = n.min(len);
                    let once = shard_fingerprint(&wal.replay_prefix(core.grace_ms, n));
                    let twice = shard_fingerprint(&wal.replay_prefix(core.grace_ms, n));
                    prop_assert!(once == twice, "prefix replay diverged at {n}/{len} on shard {s}");
                }
                // The full prefix reconstructs the live shard exactly.
                let full = wal.replay_prefix(core.grace_ms, len);
                assert_recovered_equal(&core.shard, &full, s);
            }
        }
    }

    #[test]
    fn owner_maps_contiguous_blocks() {
        let cfg = small_cfg(2);
        let engine = Engine::new(&cfg, Vec::new(), Box::new(ChannelTransport::new(2)));
        let sizes =
            |e: &Engine| -> Vec<usize> { e.cores.iter().map(|c| c.shard.cfg.devices).collect() };
        assert_eq!(sizes(&engine), vec![3, 3]);
        assert_eq!(engine.offsets, vec![0, 3]);
        for g in 0..6 {
            assert_eq!(engine.owner(g), g / 3);
        }
        // Uneven split: first shards take the remainder.
        let mut cfg7 = small_cfg(3);
        cfg7.base.devices = 7;
        cfg7.mobility.devices = 7;
        let e7 = Engine::new(&cfg7, Vec::new(), Box::new(ChannelTransport::new(3)));
        assert_eq!(sizes(&e7), vec![3, 2, 2]);
        assert_eq!(e7.candidates[0], vec![1, 2]);
        assert_eq!(e7.candidates[2], vec![0, 1]);
    }
}
