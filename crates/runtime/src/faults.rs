//! Deterministic fault-injection harness for the smart-space runtime.
//!
//! This module replays a seeded schedule of §3.3 reconfiguration events
//! ([`ubiqos_sim::faultgen`]) against a live [`DomainServer`] while the
//! Figure 5 request workload ([`ubiqos_sim::workload`]) arrives and
//! departs around it. After **every** event the harness sweeps the full
//! invariant set of the paper's model:
//!
//! * **Capacity bounds** — no device's residual availability is negative
//!   or above its current capacity; no link's residual bandwidth is
//!   negative or above the shared pool (Definition 3.4).
//! * **Conservation** — residual equals capacity minus the sum of every
//!   live session's charge, per device dimension and per link pair: no
//!   charge is ever leaked or double-refunded.
//! * **QoS consistency** — every live session's concrete service graph
//!   still satisfies Equation 1 (`diagnose(..).is_consistent()`).
//! * **Placement sanity** — every live cut respects its pins, and no
//!   component sits on a crashed device.
//! * **Discovery hygiene** — no service instance hosted on (pinned to) a
//!   crashed device is ever visible to discovery; crashed hosts'
//!   instances are unregistered until recovery.
//! * **Witnessed drops** — a session is only ever dropped together with
//!   the [`ConfigureError`] that proves it was
//!   unplaceable when its retry budget ran out, and session fates balance
//!   exactly (admitted = completed + dropped + live + parked).
//!
//! The per-event sweep reads the domain server's incremental charge
//! ledger (`crate::ledger`) instead of re-walking every live session
//! graph; [`check_invariants`] re-derives everything from scratch and
//! stays the oracle the ledger check must agree with — at every check
//! in debug builds, every 64th in release, and always at the end.
//!
//! Recovery runs the staged degrade → park → retry → drop pipeline of
//! [`crate::recovery`]: sessions untouched by a fault keep their
//! placement (incremental re-placement, O(affected) per fault), affected
//! sessions walk the QoS degradation ladder before being parked, and the
//! retry queue re-admits parked sessions as capacity returns.
//! [`FaultCampaignConfig::staged_recovery`]` = false` reverts to the
//! strict drop-on-first-failure baseline for comparison.
//!
//! # Imperfect failure detection
//!
//! By default the harness is a *perfect* detector: every crash is
//! observed the instant it happens (the crash arm immediately zeroes the
//! device and re-places its sessions). Setting
//! [`FaultCampaignConfig::detection_grace_h`] `> 0` switches to the
//! realistic model: devices renew registry **leases** through periodic
//! heartbeats (DES events), a crashed or partitioned device silently
//! stops renewing, and only when its lease has been expired for the
//! grace window does the detector *suspect* it — zeroing its capacity,
//! hiding its hosted instances from discovery, and parking its sessions.
//! Between failure and suspicion the control plane acts on a stale view:
//! placements onto the dead device fail witnessed at activation time
//! ([`ubiqos::ConfigureError::StaleView`]) and the arrival parks into
//! the retry queue instead of being denied. Partitions and heartbeat
//! jams make healthy devices look dead (*false suspicion*), which a
//! later heartbeat must cleanly undo — the conservation invariants
//! above keep running after every event, so any leaked or double-
//! refunded charge under false suspicion aborts the campaign.
//!
//! Two extra invariants guard the detector itself: **soundness after
//! grace** (a ground-unreachable device is suspected within grace +
//! heartbeat period) and **eventual completeness** (after the horizon,
//! the retry queue is pumped dry — an eventually-healed schedule ends
//! with zero permanently parked sessions).
//!
//! # One shard core, two runtimes
//!
//! A domain's admission-and-adaptation procedure exists once, as the
//! shard core (`ShardCore`, crate-internal): one method per arm —
//! clock advance, arrival (admit, park on a stale view, or deny),
//! departure, device fault, same-shard move or switch, heartbeat, lease
//! sweep, the per-event epilogue (retry drain, stride-gated invariant
//! sweep, detector soundness), and the end-of-campaign drain. Every
//! arrival admits through the core's speculation memo, which the arms
//! that change configuration inputs clear themselves. Two runtimes
//! route events into it. The serial and batched loop here runs one
//! core over the whole space and keeps only queue setup and batching
//! (priming the memo ahead of commit); [`crate::federation`] runs one
//! core per shard and keeps only routing, forwarding, handoffs,
//! transport, turns, and crash recovery. Every recovery pass folds into
//! the shard's bookkeeping through one absorb, which hands recovered
//! sessions the shard does not track (a federated handoff's
//! reservation) back to the caller instead of counting them.
//!
//! The whole campaign is a pure function of
//! [`FaultCampaignConfig::seed`]: the event log renders byte-identically
//! across runs and across `UBIQOS_THREADS` settings, which
//! `tests/fault_injection.rs` and `repro -- faults` both assert. The log
//! streams every line into its digest and keeps the lines only under
//! [`FaultCampaignConfig::retain_transcript`]; retention changes no
//! digest, count or report. With
//! `detection_grace_h = 0` (and no partition/jam overlays) the campaign
//! reproduces the perfect-detection logs and digests byte-identically —
//! no heartbeat events exist, no extra RNG draws happen, no new log
//! lines appear.

use crate::cost_model::LinkKind;
use crate::domain_server::{DomainServer, PlacementStrategy, SessionId};
use crate::durability::{
    exec_heartbeat, exec_park, exec_relocate, exec_stop, DurabilityConfig, ServerCall, ShardWal,
    WalRecord,
};
use crate::pipeline::{next_event, PipelineConfig, PipelineStats, SpecMemo, Speculated};
use crate::profiler::StageTimes;
use crate::recovery::RecoveryReport;
use crate::retry_queue::RetryPolicy;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::fmt::Write as _;
use std::time::Instant;
use ubiqos::fault_report::{fnv1a_extend, FNV1A_OFFSET};
use ubiqos::{ConfigureError, FaultReport};
use ubiqos_composition::{diagnose, DegradationLadder};
use ubiqos_discovery::{DeviceProperties, ServiceDescriptor};
use ubiqos_distribution::{Device, Environment};
use ubiqos_graph::{
    AbstractComponentSpec, AbstractServiceGraph, ComponentRole, DeviceId, PinHint, ServiceComponent,
};
use ubiqos_model::{QosDimension, QosValue, QosVector, ResourceVector};
use ubiqos_sim::{EventQueue, FaultKind, FaultScheduleConfig, TimedFault, WorkloadConfig};

/// Mix constant separating the fault-schedule RNG stream from the
/// workload stream (both derive from the campaign seed).
const FAULT_STREAM_SALT: u64 = 0x5eed_fa17_0000_0001;

/// Numerical slack for conservation checks (charges are f64 sums).
const EPS: f64 = 1e-6;

/// Every how many invariant checks a release build re-runs the
/// from-scratch [`check_invariants`] next to the ledger check and
/// compares the two verdicts. Debug and unit-test builds compare at
/// every check.
pub(crate) const ORACLE_STRIDE: u32 = if cfg!(any(debug_assertions, test)) {
    1
} else {
    64
};

/// Slack for "has this instant passed" comparisons on event times.
pub(crate) const TIME_EPS: f64 = 1e-9;

/// Parameters of one fault-injection campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCampaignConfig {
    /// Master seed: workload, fault schedule, and client-device draws
    /// all derive from it, so one `u64` pins the whole campaign.
    pub seed: u64,
    /// Number of devices in the generated smart space (≥ 2).
    pub devices: usize,
    /// Number of application requests in the workload.
    pub requests: usize,
    /// Campaign horizon in hours.
    pub horizon_h: f64,
    /// Number of injected fault events.
    pub faults: usize,
    /// Smallest capacity fraction a fluctuation may leave.
    pub min_factor: f64,
    /// Largest correlated crash scope (`1` = independent crashes only).
    pub scope_max: usize,
    /// Number of flapping-link patterns overlaid on the fault schedule
    /// (each adds periodic degrade/restore events on one link, *on top
    /// of* `faults`).
    pub flapping_links: usize,
    /// Full degrade→restore period of each flapping link, in hours.
    pub flap_period_h: f64,
    /// Whether the staged degrade → park → retry → drop pipeline is
    /// active. `false` reverts to the strict baseline (no degradation
    /// ladder, no parking: re-placement failure drops immediately) for
    /// side-by-side comparison at the same admission workload.
    pub staged_recovery: bool,
    /// Whether the configuration caches (composition memo + discovery
    /// memo) are active. The caches are specified to be invisible to
    /// every observable output, so campaigns with and without them must
    /// produce byte-identical logs and digests — which `repro --
    /// configure` asserts by flipping this flag.
    pub config_cache: bool,
    /// Failure-detection grace window in hours. `0.0` (the default) is
    /// **perfect detection**: crashes are observed instantly, no
    /// heartbeats or leases exist, and the campaign reproduces the
    /// pre-detector logs byte-identically. `> 0.0` enables the
    /// lease/heartbeat detector: a device is suspected only after its
    /// lease has gone unrenewed for this long.
    pub detection_grace_h: f64,
    /// Heartbeat period in hours (each device renews its lease this
    /// often while reachable). Only read when `detection_grace_h > 0`.
    pub heartbeat_period_h: f64,
    /// Number of partition/heal pairs overlaid on the fault schedule
    /// (device groups cut off from the domain server while still
    /// running; every partition heals inside the horizon).
    pub partitions: usize,
    /// Largest device-group size a partition may cut off.
    pub partition_max: usize,
    /// Probability in `[0, 1]` of seeded heartbeat-jam windows (detector
    /// signal lost while the device stays healthy). `0.0` draws nothing
    /// from the RNG.
    pub heartbeat_loss: f64,
    /// Run the full invariant sweep every N-th event (default `1`:
    /// after every event, the behavior every pinned digest was captured
    /// under). Scale campaigns raise this — the sweep is O(live
    /// sessions × cut parts) and would otherwise dominate 10⁵-arrival
    /// runs — using the *same* stride for the serial and batched cells
    /// so their reports stay comparable. Values < 1 are treated as 1;
    /// skipped sweeps emit nothing, so the stride never perturbs logs
    /// or digests, only `invariant_checks`.
    pub invariant_stride: usize,
    /// Distribution-tier strategy every domain server in the campaign
    /// places with. The default ([`PlacementStrategy::Heuristic`]) is
    /// what every pinned digest was captured under; switching to
    /// [`PlacementStrategy::Portfolio`] exercises the exact/hierarchical
    /// solver portfolio under the same fault schedule.
    pub placement: PlacementStrategy,
    /// Whether the campaign's [`EventLog`] keeps its lines (default
    /// `false`: the log streams each line into its digest and keeps
    /// only counters and the last line). Tests that read or diff
    /// transcript text, and `repro -- faults`, turn it on; the digest,
    /// the counters and every report are the same either way. A
    /// federation passes it to every shard through its base config.
    pub retain_transcript: bool,
}

impl FaultCampaignConfig {
    /// Whether this campaign runs the perfect detector (no grace window,
    /// no leases, no heartbeats) — the mode whose logs and digests are
    /// pinned by `tests/fault_injection.rs` and the CI baseline.
    pub fn perfect_detection(&self) -> bool {
        self.detection_grace_h <= 0.0
    }

    /// Heartbeat multiples inside the horizon (`0` under perfect
    /// detection): each device beats at `k * heartbeat_period_h` for
    /// `k` in `0..=steps` — multiples rather than an accumulating sum,
    /// so the last beat lands exactly on the horizon when it divides
    /// evenly.
    pub(crate) fn heartbeat_steps(&self) -> usize {
        if self.perfect_detection() {
            return 0;
        }
        assert!(
            self.heartbeat_period_h > 0.0,
            "imperfect detection needs a positive heartbeat period"
        );
        (self.horizon_h / self.heartbeat_period_h).floor() as usize
    }
}

impl Default for FaultCampaignConfig {
    fn default() -> Self {
        FaultCampaignConfig {
            seed: 0x1cdc_2002,
            devices: 5,
            requests: 120,
            horizon_h: 48.0,
            faults: 40,
            min_factor: 0.25,
            scope_max: 1,
            flapping_links: 0,
            flap_period_h: 8.0,
            staged_recovery: true,
            config_cache: true,
            detection_grace_h: 0.0,
            heartbeat_period_h: 0.25,
            partitions: 0,
            partition_max: 1,
            heartbeat_loss: 0.0,
            invariant_stride: 1,
            placement: PlacementStrategy::default(),
            retain_transcript: false,
        }
    }
}

/// A deterministic, append-only log of everything the campaign did.
///
/// Rendering is byte-stable: every line is formatted with fixed float
/// precision at push time, so two campaigns agree iff their logs agree.
/// The log is output, not state: nothing reads it back to decide what
/// happens next, so a federated shard's transcript lives on the engine
/// and survives a shard crash untouched (DESIGN §17).
///
/// The log is a streaming sink. Each push formats its line into one
/// reused buffer, folds the line and its `'\n'` into a running FNV-1a
/// state, and counts lines and bytes; so [`EventLog::digest`] is O(1)
/// and always equals FNV-1a over what [`EventLog::render`] would
/// produce with every line kept. Lines are kept only when the campaign
/// sets [`FaultCampaignConfig::retain_transcript`]; otherwise
/// [`EventLog::lines`] is empty and [`EventLog::render`] is `""`.
///
/// Equality compares the digest, the line count and the byte count,
/// and the lines too when both sides kept them — so a retaining and a
/// streaming log of the same campaign are equal.
#[derive(Debug, Clone)]
pub struct EventLog {
    /// Running FNV-1a state over every line pushed so far.
    hash: u64,
    len: usize,
    bytes: usize,
    /// The last line pushed (the reused formatting buffer).
    last: String,
    /// Every line, when the campaign retains its transcript.
    lines: Option<Vec<String>>,
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::new(false)
    }
}

impl PartialEq for EventLog {
    fn eq(&self, other: &Self) -> bool {
        let kept_lines_agree = match (&self.lines, &other.lines) {
            (Some(a), Some(b)) => a == b,
            _ => true,
        };
        self.hash == other.hash
            && self.len == other.len
            && self.bytes == other.bytes
            && kept_lines_agree
    }
}

impl Eq for EventLog {}

impl EventLog {
    /// An empty log that keeps its lines iff `retain`.
    pub(crate) fn new(retain: bool) -> Self {
        EventLog {
            hash: FNV1A_OFFSET,
            len: 0,
            bytes: 0,
            last: String::with_capacity(128),
            lines: retain.then(Vec::new),
        }
    }

    pub(crate) fn push(&mut self, at_h: f64, text: &str) {
        self.push_args(at_h, format_args!("{text}"));
    }

    /// Formats one line into the reused buffer — prefix and text in a
    /// single pass, no allocation once the buffer has grown — and folds
    /// it into the digest and counters. Lines number themselves in push
    /// order. This is the event loop's hot path: at 10⁵ arrivals the
    /// naive `format!("[{idx:04}] t={at_h:010.4}h {text}")` over a
    /// separately formatted `text` costs more than the admission work it
    /// records.
    pub(crate) fn push_args(&mut self, at_h: f64, args: fmt::Arguments<'_>) {
        let line = &mut self.last;
        line.clear();
        line.push('[');
        push_padded_int(line, self.len as u64, 4);
        line.push_str("] t=");
        push_hours(line, at_h);
        line.push_str("h ");
        if let Some(text) = args.as_str() {
            line.push_str(text);
        } else {
            let _ = line.write_fmt(args);
        }
        self.hash = fnv1a_extend(fnv1a_extend(self.hash, line.as_bytes()), b"\n");
        self.len += 1;
        self.bytes += line.len() + 1;
        if let Some(lines) = &mut self.lines {
            lines.push(line.clone());
        }
    }

    /// The kept log lines, in event order; empty unless the campaign set
    /// [`FaultCampaignConfig::retain_transcript`].
    pub fn lines(&self) -> &[String] {
        self.lines.as_deref().unwrap_or_default()
    }

    /// The last line pushed (`""` before the first), kept whether or
    /// not the log retains its lines.
    pub(crate) fn last_line(&self) -> &str {
        &self.last
    }

    /// Number of lines pushed, kept or not.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing was pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes of the rendered log (every line plus its `'\n'`), kept or
    /// not.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Renders the kept lines to one newline-joined string: the byte
    /// sequence the digest covers when the log retains its lines, and
    /// `""` when it does not.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in self.lines() {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// FNV-1a digest of every line pushed, each followed by `'\n'` —
    /// the digest of [`EventLog::render`] when the lines are kept. Kept
    /// up to date at every push, so this is O(1).
    pub fn digest(&self) -> u64 {
        self.hash
    }
}

/// Appends `value` in decimal, zero-padded to at least `width` digits —
/// the bytes `format!("{value:0width$}")` produces, without the
/// formatting machinery.
fn push_padded_int(out: &mut String, value: u64, width: usize) {
    let mut buf = [0u8; 20];
    let mut n = 0;
    let mut v = value;
    loop {
        buf[n] = b'0' + (v % 10) as u8;
        v /= 10;
        n += 1;
        if v == 0 {
            break;
        }
    }
    for _ in n..width {
        out.push('0');
    }
    for i in (0..n).rev() {
        out.push(buf[i] as char);
    }
}

/// Appends `at_h` as `format!("{at_h:010.4}")` would. The fast path
/// formats the scaled integer directly; values whose fourth decimal sits
/// near a rounding boundary (where a naive `* 1e4` could round the other
/// way than the exact decimal expansion `{:.4}` works from), negative
/// values, and values too wide for the `010` pad all fall back to the
/// std formatter. The `fast_hours_matches_std_formatting` test sweeps
/// both paths against `format!` to keep every digest byte-stable.
fn push_hours(out: &mut String, at_h: f64) {
    use fmt::Write as _;
    let scaled = at_h * 1e4;
    // Fast-path guard: in-range, and ≥ 10 ulps clear of the x.5 rounding
    // boundary of the fourth decimal (ulp(1e9) ≈ 1.2e-7 ≪ 1e-5).
    if !(0.0..=999_999_999.0).contains(&scaled) || (scaled.fract() - 0.5).abs() <= 1e-5 {
        let _ = write!(out, "{at_h:010.4}");
        return;
    }
    let r = scaled.round() as u64;
    push_padded_int(out, r / 10_000, 5);
    out.push('.');
    push_padded_int(out, r % 10_000, 4);
}

/// An invariant broken mid-campaign: where, during what, and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Simulation time of the offending event, in hours.
    pub at_h_milli: u64,
    /// The log line of the event being processed.
    pub event: String,
    /// What went wrong.
    pub violation: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant violated at t={}h during `{}`: {}",
            self.at_h_milli as f64 / 1000.0,
            self.event,
            self.violation
        )
    }
}

impl std::error::Error for InvariantViolation {}

/// A finished campaign: the summary report plus the full event log.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Aggregate counters and the log digest.
    pub report: FaultReport,
    /// The deterministic event log.
    pub log: EventLog,
    /// Wall-clock stage profile captured from the domain server at the
    /// end of the run (includes the pipeline runtime's queue-wait and
    /// batch-size histograms, which stay empty on the serial path).
    /// Never feeds logs or digests.
    pub stages: StageTimes,
    /// The shard core's speculation-memo counters. Every campaign loop
    /// fills them: the serial loop reports `batches == 0` and every
    /// arrival as adopted or speculated inline.
    pub pipeline: Option<PipelineStats>,
}

/// One event in the merged campaign timeline.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CampaignEvent {
    /// Request `i` of the workload arrives.
    Arrival(usize),
    /// Request `i`'s lifetime ends.
    Departure(usize),
    /// Fault `j` of the schedule fires.
    Fault(usize),
    /// Device `d` sends its periodic heartbeat (imperfect mode only;
    /// lost while the device is down, partitioned, or jammed).
    Heartbeat(usize),
    /// The anti-entropy sweep scheduled `grace` after a lease renewal:
    /// any lease now expired turns into a suspicion (imperfect only).
    /// The sweep is global, so the check carries no device.
    LeaseCheck,
}

/// Ground-truth bookkeeping the imperfect detector is *not* allowed to
/// read — only the harness (playing the role of physical reality) does.
/// Clone + equality exist for the durability layer: the detector state
/// is part of a shard's durable image, snapshotted and compared against
/// the write-ahead-log replay on every crash recovery.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DetectorState {
    /// Nesting depth of partitions covering each device (> 0 = cut off).
    pub(crate) partition_depth: Vec<u32>,
    /// Heartbeats from each device are lost until this hour.
    pub(crate) jam_until_h: Vec<f64>,
    /// Hour each currently-unreachable device became unreachable, for
    /// the soundness-after-grace invariant.
    pub(crate) unreachable_since: BTreeMap<usize, f64>,
}

impl DetectorState {
    pub(crate) fn new(devices: usize) -> Self {
        DetectorState {
            partition_depth: vec![0; devices],
            jam_until_h: vec![0.0; devices],
            unreachable_since: BTreeMap::new(),
        }
    }
}

/// One domain's durable state: everything a domain-server crash loses
/// and the write-ahead log rebuilds ([`crate::durability`] snapshots,
/// replays, and fingerprints these fields).
pub(crate) struct Shard {
    pub(crate) server: DomainServer,
    /// The campaign config, with `devices` set to this shard's size.
    pub(crate) cfg: FaultCampaignConfig,
    pub(crate) report: FaultReport,
    /// Ground truth: the shard-local devices that are crashed.
    pub(crate) down: BTreeSet<usize>,
    pub(crate) det: DetectorState,
    /// Request index -> tracked session (live or parked), and the
    /// reverse.
    pub(crate) active: BTreeMap<usize, SessionId>,
    pub(crate) by_session: BTreeMap<SessionId, usize>,
    pub(crate) last_h: f64,
    pub(crate) iterations: u64,
    /// Hour of the last anti-entropy sweep: consecutive lease checks at
    /// one instant share a single sweep.
    pub(crate) last_sweep_h: Option<f64>,
}

/// A recovered session the shard does not track, and what the pass did
/// to it. Only the federated engine creates untracked live sessions (a
/// handoff's reservation on its destination), so this is reservation
/// custody: the engine re-tags the handoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Custody {
    Dropped(SessionId),
    Parked(SessionId),
    Readmitted(SessionId),
}

impl Shard {
    /// A fresh shard around `server`, with the config's recovery,
    /// cache, and placement settings applied.
    pub(crate) fn new(mut server: DomainServer, cfg: FaultCampaignConfig) -> Self {
        if !cfg.staged_recovery {
            server.set_ladder(DegradationLadder::strict());
            server.set_retry_policy(RetryPolicy::strict());
        }
        server.set_config_cache(cfg.config_cache);
        server.set_placement_strategy(cfg.placement);
        Shard {
            server,
            report: FaultReport {
                seed: cfg.seed,
                ..FaultReport::default()
            },
            down: BTreeSet::new(),
            det: DetectorState::new(cfg.devices),
            active: BTreeMap::new(),
            by_session: BTreeMap::new(),
            last_h: 0.0,
            iterations: 0,
            last_sweep_h: None,
            cfg,
        }
    }

    /// Folds a [`RecoveryReport`] into the shard's bookkeeping — the one
    /// recovery absorb, live and during WAL replay. Re-placements (full
    /// quality or degraded) count as replacements; parked sessions stay
    /// tracked (a later departure reaches them through `stop_session`);
    /// dropped ones leave the session tables, each with its witnessing
    /// error (asserted here). Untracked recovered sessions are handed
    /// back as [`Custody`] and left out of the fate counters (the shard
    /// does not own them until their commit lands); the rendered tail
    /// describes the whole pass. Returns the tail and the raw ids of
    /// the tracked sessions the pass dropped and this absorb untracked
    /// (the WAL records them with the call).
    pub(crate) fn absorb(
        &mut self,
        rec: &RecoveryReport,
        custody: &mut Vec<Custody>,
    ) -> (String, Vec<u64>) {
        assert_eq!(
            rec.dropped.len(),
            rec.drop_errors.len(),
            "every drop carries the error witnessing unplaceability"
        );
        let mut removed = Vec::new();
        for (id, (witness_id, _)) in rec.dropped.iter().zip(&rec.drop_errors) {
            assert_eq!(id, witness_id, "drop witnesses line up");
            match self.by_session.remove(id) {
                Some(req) => {
                    self.active.remove(&req);
                    removed.push(id.raw());
                }
                None => custody.push(Custody::Dropped(*id)),
            }
        }
        let held = custody.len();
        custody.extend(
            rec.parked
                .iter()
                .filter(|id| !self.by_session.contains_key(id))
                .map(|&id| Custody::Parked(id)),
        );
        let held_parked = custody.len() - held;
        custody.extend(
            rec.readmitted
                .iter()
                .filter(|id| !self.by_session.contains_key(id))
                .map(|&id| Custody::Readmitted(id)),
        );
        let held_readmitted = custody.len() - held - held_parked;
        let report = &mut self.report;
        report.replacements += rec.replacements() as u32;
        report.degraded += rec.degraded.len() as u32;
        report.parked += (rec.parked.len() - held_parked) as u32;
        report.readmitted += (rec.readmitted.len() - held_readmitted) as u32;
        report.dropped += removed.len() as u32;
        let mut tail = format!(
            "re-placed {} ({} degraded), parked {}, readmitted {}, dropped {}; affected {}/{}",
            rec.replacements(),
            rec.degraded.len(),
            rec.parked.len(),
            rec.readmitted.len(),
            rec.dropped.len(),
            rec.affected,
            rec.considered,
        );
        for (id, err) in &rec.drop_errors {
            let _ = write!(tail, "; {id} unplaceable ({err})");
        }
        (tail, removed)
    }

    /// The invariant sweep against the devices the control plane
    /// treats as down (the suspected set under imperfect detection,
    /// ground truth otherwise): the incremental ledger check, and with
    /// `oracle` the from-scratch [`check_invariants`] too, which must
    /// return the same result.
    pub(crate) fn sweep(&mut self, oracle: bool) -> Result<(), String> {
        let down = self.cfg.perfect_detection().then_some(&self.down);
        let verdict = self.server.check_ledger(down);
        if oracle {
            let observed = down.unwrap_or(self.server.suspected_devices());
            let truth = check_invariants(&self.server, observed);
            if truth != verdict {
                return Err(format!(
                    "invariant ledger diverged from check_invariants: \
                     ledger {verdict:?}, oracle {truth:?}"
                ));
            }
        }
        verdict
    }
}

/// One arrival as the shard resolving it sees it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Arrival {
    /// The workload request index.
    pub(crate) req: usize,
    /// Its application template ([`app_template`]).
    pub(crate) graph_index: usize,
    /// The client device, shard-local.
    pub(crate) client_local: usize,
    /// The shard that forwarded the arrival here, if any.
    pub(crate) via: Option<usize>,
}

/// A value built on first read, at most once. (`std::cell::LazyCell`
/// cannot hand its value out by move on stable Rust, and a started
/// session takes the graph by move.)
struct Lazy<T, F> {
    /// Set once built; until then `init` holds the builder.
    value: Option<T>,
    init: Option<F>,
}

impl<T, F: FnOnce() -> T> Lazy<T, F> {
    fn new(init: F) -> Self {
        Lazy {
            value: None,
            init: Some(init),
        }
    }

    /// The value, built now if this is the first read.
    fn get(&mut self) -> &T {
        let init = &mut self.init;
        self.value
            .get_or_insert_with(|| init.take().expect("a lazy value builds once")())
    }

    /// The value by move, built now if nothing read it before.
    fn into_inner(self) -> T {
        match self.value {
            Some(value) => value,
            None => self.init.expect("a lazy value builds once")(),
        }
    }
}

/// Renders an [`Arrival::via`] transcript tag (empty when the arrival
/// was not forwarded).
struct Via(Option<usize>);

impl fmt::Display for Via {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(a) => write!(f, " via shard{a}"),
            None => Ok(()),
        }
    }
}

/// A shard together with what sits beside it: its write-ahead log and
/// its transcript. The methods are the domain's per-shard arms, one
/// admission-and-adaptation procedure for both runtimes: the serial and
/// batched loop runs one core over the whole space, the federated
/// engine one per shard, and each only routes events into these arms.
/// Every server mutation journals through the WAL (inert when
/// durability is off, as in the serial loop) and every line goes to
/// the transcript, which is output, not shard state (DESIGN §17).
pub(crate) struct ShardCore {
    pub(crate) shard: Shard,
    pub(crate) wal: ShardWal,
    pub(crate) log: EventLog,
    /// Global index of the shard's first device (transcript context).
    pub(crate) offset: usize,
    /// Lease grace, in virtual milliseconds.
    pub(crate) grace_ms: f64,
    /// The last heartbeat instant.
    hb_end_h: f64,
    /// Reservation custody handed back by the last arm's absorbs, for
    /// the federated engine to re-tag; the serial loop never has any.
    pub(crate) custody: Vec<Custody>,
    /// Arrival outcomes nothing has changed since, cleared by every arm
    /// that changes configuration inputs ([`crate::pipeline`]).
    pub(crate) memo: SpecMemo,
}

impl ShardCore {
    pub(crate) fn new(shard: Shard, offset: usize, durability: &DurabilityConfig) -> Self {
        let cfg = &shard.cfg;
        ShardCore {
            grace_ms: cfg.detection_grace_h * 3_600_000.0,
            hb_end_h: cfg.heartbeat_steps() as f64 * cfg.heartbeat_period_h,
            wal: ShardWal::new(durability, &shard),
            log: EventLog::new(cfg.retain_transcript),
            offset,
            custody: Vec::new(),
            memo: SpecMemo::new(cfg.devices),
            shard,
        }
    }

    /// Whether the detector is running at `at_h`. It lives exactly as
    /// long as the heartbeat stream: a lease check after the last beat
    /// would suspect every healthy device simply because its renewals
    /// stopped with the schedule, so those are ignored and the final
    /// sweep reconciles what is still unreachable.
    fn detector_live(&self, at_h: f64) -> bool {
        at_h <= self.hb_end_h + TIME_EPS
    }

    /// Advances the shard's virtual clock to `at_h` (monotone).
    pub(crate) fn advance(&mut self, at_h: f64) {
        self.wal.push(|| WalRecord::Advance { at_h });
        let delta_h = (at_h - self.shard.last_h).max(0.0);
        self.shard.server.play(delta_h * 3600.0);
        self.shard.last_h = at_h;
    }

    /// The shard-local devices that are up, ascending: the domain of a
    /// client draw.
    pub(crate) fn up_devices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.shard.cfg.devices).filter(|d| !self.shard.down.contains(d))
    }

    /// Tracks session `id` for request `req`.
    pub(crate) fn track(&mut self, req: usize, id: SessionId) {
        self.shard.active.insert(req, id);
        self.shard.by_session.insert(id, req);
        self.wal.push(|| WalRecord::Track { req, sid: id.raw() });
    }

    /// Untracks request `req` / session `id`.
    pub(crate) fn untrack(&mut self, req: usize, id: SessionId) {
        self.shard.active.remove(&req);
        self.shard.by_session.remove(&id);
        self.wal.push(|| WalRecord::Untrack { req, sid: id.raw() });
    }

    /// Journaled session start: adopts the `speculated` pipeline
    /// outcome — `start_session` decomposed, so replay starts the
    /// session plainly. The `call_*` methods are the only way an arm or
    /// a handler mutates the server: each journals its [`ServerCall`];
    /// all but this one call through the `exec_*` code replay uses.
    ///
    /// The graph is built at most once, and only if something reads
    /// it: the journaled record (a denial is journaled with its graph
    /// too, since replay re-runs the start) or a started session.
    pub(crate) fn call_start(
        &mut self,
        name: impl Fn() -> String,
        graph: impl FnOnce() -> AbstractServiceGraph,
        qos: QosVector,
        client_local: usize,
        speculated: Speculated,
    ) -> Result<SessionId, ConfigureError> {
        let mut graph = Lazy::new(graph);
        self.wal.push(|| {
            WalRecord::Call(ServerCall::Start {
                name: name(),
                graph: graph.get().clone(),
                qos: qos.clone(),
                client_local,
            })
        });
        let client = DeviceId::from_index(client_local);
        let server = &mut self.shard.server;
        let started = server.admit_speculated(name, || graph.into_inner(), qos, client, speculated);
        if started.is_ok() {
            self.memo.clear();
        }
        started
    }

    /// Journaled `park_arrival`.
    pub(crate) fn call_park(
        &mut self,
        name: String,
        graph: AbstractServiceGraph,
        qos: QosVector,
        client_local: usize,
        err: ConfigureError,
    ) -> SessionId {
        self.wal.push(|| {
            WalRecord::Call(ServerCall::Park {
                name: name.clone(),
                graph: graph.clone(),
                qos: qos.clone(),
                client_local,
                err: err.clone(),
            })
        });
        exec_park(&mut self.shard.server, name, graph, qos, client_local, err)
    }

    /// Journaled `stop_session` of a held (live or parked) session: a
    /// departure, refund, or release.
    pub(crate) fn call_stop(&mut self, sid: SessionId) {
        self.wal
            .push(|| WalRecord::Call(ServerCall::Stop { sid: sid.raw() }));
        let stopped = exec_stop(&mut self.shard.server, sid.raw());
        debug_assert!(stopped.is_some(), "a journaled stop targets a held session");
        self.memo.clear();
    }

    /// The arrival arm: counts the event, then admits.
    pub(crate) fn arrival(&mut self, a: Arrival, at_h: f64) -> Result<(), ConfigureError> {
        self.shard.report.events += 1;
        self.admit_arrival(a, at_h)
    }

    /// Admits arrival `a` with the memo's outcome for its `(template,
    /// client)` key, speculating on a miss.
    /// A start that fails on a stale view parks the session instead:
    /// the view said yes, reality said no at activation, nothing was
    /// charged, and the session's fate resolves later (counted as
    /// admitted). Any other refusal is returned untouched, for the
    /// caller to forward or deny.
    ///
    /// The template graph is built only when something reads it — a
    /// memo miss, a start, a stale-view park or a journaled record —
    /// so a memoised refusal, the bulk of an overloaded campaign,
    /// builds none.
    pub(crate) fn admit_arrival(&mut self, a: Arrival, at_h: f64) -> Result<(), ConfigureError> {
        let (i, gi, name) = (a.req, a.graph_index, template_name(a.graph_index));
        let mut graph = Lazy::new(|| app_template(gi).1);
        let speculated =
            self.memo
                .take_or_speculate(&self.shard.server, gi, a.client_local, || graph.get());
        let started = self.call_start(
            || format!("{name}-{i}"),
            || graph.into_inner(),
            QosVector::new(),
            a.client_local,
            speculated,
        );
        let (id, charged) = match started {
            Ok(id) => (id, true),
            Err(e) if matches!(e, ConfigureError::StaleView { .. }) => {
                let (_, graph) = app_template(gi);
                let name = format!("{name}-{i}");
                (
                    self.call_park(name, graph, QosVector::new(), a.client_local, e),
                    false,
                )
            }
            Err(e) => return Err(e),
        };
        self.track(i, id);
        let report = &mut self.shard.report;
        report.arrivals += 1;
        report.admitted += 1;
        let fate = if charged {
            "admitted"
        } else {
            report.parked += 1;
            "parked on stale view"
        };
        let client = self.offset + a.client_local;
        self.log.push_args(
            at_h,
            format_args!(
                "arrive  req{i} {name} client=dev{client}{} -> {fate} as {id}",
                Via(a.via)
            ),
        );
        Ok(())
    }

    /// Denies arrival `a`, witnessed by `err`.
    pub(crate) fn deny_arrival(&mut self, a: Arrival, at_h: f64, err: &dyn fmt::Display) {
        let report = &mut self.shard.report;
        report.arrivals += 1;
        report.denied += 1;
        let (i, name) = (a.req, template_name(a.graph_index));
        let client = self.offset + a.client_local;
        self.log.push_args(
            at_h,
            format_args!(
                "arrive  req{i} {name} client=dev{client}{} -> denied ({err})",
                Via(a.via)
            ),
        );
    }

    /// The departure arm: completes request `i`'s tracked session.
    pub(crate) fn depart(&mut self, i: usize, at_h: f64) {
        self.shard.report.events += 1;
        let Some(id) = self.shard.active.get(&i).copied() else {
            self.log
                .push_args(at_h, format_args!("depart  req{i} -> already gone"));
            return;
        };
        self.untrack(i, id);
        self.shard.report.completed += 1;
        self.call_stop(id);
        self.log
            .push_args(at_h, format_args!("depart  req{i} -> completed ({id})"));
    }

    /// The fault arm of a core that owns the whole device space (the
    /// serial loop): moves and switches pick over this shard's live
    /// sessions; every other kind is a device fault.
    pub(crate) fn fault(&mut self, fault: &TimedFault, at_h: f64) {
        match fault.kind {
            FaultKind::MoveUser { pick, to } | FaultKind::SwitchDevice { pick, to } => {
                self.shard.report.events += 1;
                let picked = pick_live(std::slice::from_ref(self), pick).map(|(_, id)| id);
                let is_move = matches!(fault.kind, FaultKind::MoveUser { .. });
                self.relocate(picked, to, is_move, at_h);
            }
            _ => self.device_fault(fault, at_h),
        }
    }

    /// The device-fault arm: journals and counts the shard-local fault,
    /// applies it, and logs what happened.
    pub(crate) fn device_fault(&mut self, fault: &TimedFault, at_h: f64) {
        self.wal.push(|| WalRecord::Fault(*fault));
        self.shard.report.events += 1;
        let (line, custody) = apply_fault(&mut self.shard, fault);
        self.memo.clear();
        self.custody.extend(custody);
        self.log.push(at_h, &line);
    }

    /// The same-shard move/switch arm: relocates live session `picked`
    /// to shard-local device `to_local`, or logs the skip when there was
    /// no live session to pick. The caller counts the event.
    pub(crate) fn relocate(
        &mut self,
        picked: Option<SessionId>,
        to_local: usize,
        is_move: bool,
        at_h: f64,
    ) {
        let label = if is_move {
            "move-user"
        } else {
            "switch-device"
        };
        let Some(id) = picked else {
            self.log.push_args(
                at_h,
                format_args!("fault   {label} -> skipped (no live session)"),
            );
            return;
        };
        self.wal.push(|| {
            let sid = id.raw();
            WalRecord::Call(if is_move {
                ServerCall::Move { sid, to_local }
            } else {
                ServerCall::Switch { sid, to_local }
            })
        });
        let result = exec_relocate(&mut self.shard.server, id.raw(), to_local, is_move);
        // Even a failed relocation refunds and recharges the old charge.
        self.memo.clear();
        let report = &mut self.shard.report;
        let failures = if is_move {
            report.moves += 1;
            &mut report.move_failures
        } else {
            report.switches += 1;
            &mut report.switch_failures
        };
        let to = self.offset + to_local;
        match result {
            Ok(plan) => self.log.push_args(
                at_h,
                format_args!(
                    "fault   {label} {id} -> dev{to} (resume at {:.4}s)",
                    plan.resume_position_s()
                ),
            ),
            Err(e) => {
                *failures += 1;
                self.log.push_args(
                    at_h,
                    format_args!("fault   {label} {id} -> dev{to} failed ({e}), old config kept"),
                );
            }
        }
    }

    /// The heartbeat arm for shard-local device `d`. The beat is lost
    /// while the device is down, partitioned, or jammed; otherwise it
    /// renews the lease — journaled even when it reinstates nothing,
    /// since replay must renew the lease too — and a beat from a
    /// suspected device withdraws the stale suspicion. Returns whether
    /// the beat arrived.
    pub(crate) fn heartbeat(&mut self, d: usize, at_h: f64) -> bool {
        let det = &self.shard.det;
        if self.shard.down.contains(&d) || det.partition_depth[d] > 0 || at_h < det.jam_until_h[d] {
            return false;
        }
        let rec = exec_heartbeat(&mut self.shard.server, d, self.grace_ms);
        let mut removed = Vec::new();
        if let Some(rec) = &rec {
            let (tail, ids) = self.shard.absorb(rec, &mut self.custody);
            removed = ids;
            self.memo.clear();
            self.shard.report.reinstatements += 1;
            count_pass(rec, &mut self.shard.report);
            self.log.push_args(
                at_h,
                format_args!("detect  reinstate dev{d} (lease renewed) -> {tail}"),
            );
        }
        self.wal
            .push(|| WalRecord::Call(ServerCall::Heartbeat { device: d, removed }));
        true
    }

    /// The lease-check arm: an anti-entropy sweep suspecting *every*
    /// overdue lease, not just the one whose renewal scheduled it.
    ///
    /// Same-instant checks share one sweep: heartbeats land on shared
    /// period multiples, so their checks cluster at identical instants
    /// and pop consecutively, and nothing between two of them can
    /// create a new overdue lease — the repeat sweep is provably empty
    /// and skipped (no lines, no counters, no journal record).
    pub(crate) fn lease_check(&mut self, at_h: f64) {
        if !self.detector_live(at_h) || self.shard.last_sweep_h == Some(at_h) {
            return;
        }
        self.shard.last_sweep_h = Some(at_h);
        let passes = self.shard.server.expire_overdue_leases();
        let mut removed = Vec::with_capacity(passes.len());
        for (device, rec) in &passes {
            self.memo.clear();
            let (tail, ids) = self.shard.absorb(rec, &mut self.custody);
            removed.push(ids);
            let report = &mut self.shard.report;
            report.suspicions += 1;
            let ground_up = !self.shard.down.contains(&device.index());
            if ground_up {
                report.false_suspected += 1;
            }
            count_pass(rec, report);
            let tag = if ground_up { " (falsely)" } else { "" };
            self.log.push_args(
                at_h,
                format_args!(
                    "detect  suspect dev{}{tag} (lease expired) -> {tail}",
                    device.index()
                ),
            );
        }
        self.wal
            .push(|| WalRecord::Call(ServerCall::ExpireLeases { removed }));
    }

    /// The per-event epilogue: drains parked-session retries that came
    /// due as virtual time advanced, then runs the stride-gated
    /// invariant sweep and the detector-soundness check. Ends the WAL's
    /// event group with a `Mark` and checkpoints when the tail is long
    /// enough.
    pub(crate) fn finish_event(&mut self, at_h: f64) -> Result<(), InvariantViolation> {
        let retries = self.shard.server.process_retries();
        let mut removed = Vec::new();
        if !retries.is_empty() {
            let (tail, ids) = self.shard.absorb(&retries, &mut self.custody);
            removed = ids;
            self.memo.clear();
            self.log
                .push_args(at_h, format_args!("retry   parked queue -> {tail}"));
        }
        self.wal
            .push(|| WalRecord::Call(ServerCall::Retries { removed }));
        self.check_event(at_h)?;
        self.mark();
        if self.wal.due_checkpoint() {
            self.wal.checkpoint(&self.shard);
        }
        Ok(())
    }

    /// Swaps in `rebuilt`, the shard a crash recovery replayed. The memo
    /// was derived from the state it replaces, so it goes too.
    pub(crate) fn restore(&mut self, rebuilt: Shard) {
        self.shard = rebuilt;
        self.memo.clear();
    }

    /// Journals an event-boundary `Mark`: the counter report plus the
    /// epilogue cursors, so replay lands exactly on the current
    /// aggregate state.
    pub(crate) fn mark(&mut self) {
        let shard = &self.shard;
        self.wal.push(|| WalRecord::Mark {
            report: Box::new(shard.report.clone()),
            iterations: shard.iterations,
            last_sweep_h: shard.last_sweep_h,
        });
    }

    /// The invariant half of the epilogue, every `invariant_stride`-th
    /// event.
    fn check_event(&mut self, at_h: f64) -> Result<(), InvariantViolation> {
        let detector_live = self.detector_live(at_h);
        let shard = &mut self.shard;
        shard.iterations += 1;
        if !shard
            .iterations
            .is_multiple_of(shard.cfg.invariant_stride.max(1) as u64)
        {
            return Ok(());
        }
        shard.report.invariant_checks += 1;
        let oracle = shard.report.invariant_checks.is_multiple_of(ORACLE_STRIDE);
        let log = &self.log;
        // Only a failed check pays for the context.
        let violation = |violation| InvariantViolation {
            at_h_milli: (at_h * 1000.0).round() as u64,
            event: log.last_line().to_owned(),
            violation,
        };
        shard.sweep(oracle).map_err(violation)?;
        if !shard.cfg.perfect_detection() && detector_live {
            // Soundness after grace: once a device has been unreachable
            // longer than grace + one heartbeat period, some lease check
            // must have suspected it.
            let lag = shard.cfg.detection_grace_h + shard.cfg.heartbeat_period_h + 1e-6;
            for (&d, &since) in &shard.det.unreachable_since {
                if at_h > since + lag && !shard.server.is_suspected(DeviceId::from_index(d)) {
                    return Err(violation(format!(
                        "detector unsound: dev{d} unreachable since t={since:.4}h \
                         still unsuspected at t={at_h:.4}h (grace {:.4}h)",
                        shard.cfg.detection_grace_h
                    )));
                }
            }
        }
        Ok(())
    }

    /// The end of the campaign. Under imperfect detection, an
    /// anti-entropy final sweep suspects every device still unreachable
    /// whose lease check has not fired, and the retry queue is pumped
    /// dry (eventual completeness: every parked session re-admits or
    /// exhausts its finite budget and drops witnessed). Then the report
    /// is finalized. Nothing follows it, so nothing is journaled.
    pub(crate) fn finalize(&mut self) -> Result<(), InvariantViolation> {
        if !self.shard.cfg.perfect_detection() {
            for d in 0..self.shard.cfg.devices {
                let shard = &mut self.shard;
                let unreachable = shard.down.contains(&d) || shard.det.partition_depth[d] > 0;
                if !unreachable || shard.server.is_suspected(DeviceId::from_index(d)) {
                    continue;
                }
                shard.report.suspicions += 1;
                if !shard.down.contains(&d) {
                    shard.report.false_suspected += 1;
                }
                let rec = shard.server.suspect_many(&[DeviceId::from_index(d)]);
                count_pass(&rec, &mut shard.report);
                let (tail, _) = self.shard.absorb(&rec, &mut self.custody);
                self.log.push_args(
                    self.shard.last_h,
                    format_args!("detect  suspect dev{d} (final sweep) -> {tail}"),
                );
            }
            while self.shard.server.parked_count() > 0 {
                let server = &mut self.shard.server;
                let next_ms = server
                    .parked_sessions()
                    .map(|(_, p)| p.next_retry_ms)
                    .fold(f64::INFINITY, f64::min);
                if next_ms > server.now_ms() {
                    server.play((next_ms - server.now_ms()) / 1000.0);
                }
                let rec = server.process_retries();
                let drain_h = server.now_ms() / 3_600_000.0;
                let (tail, _) = self.shard.absorb(&rec, &mut self.custody);
                self.log
                    .push_args(drain_h, format_args!("drain   parked queue -> {tail}"));
                let shard = &mut self.shard;
                shard.report.invariant_checks += 1;
                shard.sweep(true).map_err(|violation| InvariantViolation {
                    at_h_milli: (drain_h * 1000.0).round() as u64,
                    event: "drain   parked queue".to_owned(),
                    violation,
                })?;
            }
        }
        // The end state is always swept by both checkers, whatever the
        // stride left unchecked (not counted: the count is the per-event
        // sweeps').
        let last_h = self.shard.last_h;
        self.shard
            .sweep(true)
            .map_err(|violation| InvariantViolation {
                at_h_milli: (last_h * 1000.0).round() as u64,
                event: "finalize".to_owned(),
                violation,
            })?;
        let report = &mut self.shard.report;
        let server = &self.shard.server;
        report.live_at_end = server.session_count() as u32;
        report.parked_at_end = server.parked_count() as u32;
        report.stale_views = server.stale_view_count() as u32;
        report.log_digest = self.log.digest();
        Ok(())
    }
}

/// The `pick`-th live tracked session over `cores`, shard-major with
/// each shard's sessions in id order — the target draw of a move or
/// switch. Parked sessions stay tracked but have no live placement, so
/// only live ones are candidates.
pub(crate) fn pick_live(cores: &[ShardCore], pick: u64) -> Option<(usize, SessionId)> {
    fn live(s: usize, core: &ShardCore) -> impl Iterator<Item = (usize, SessionId)> + '_ {
        let shard = &core.shard;
        shard
            .by_session
            .keys()
            .filter(|&&id| shard.server.session(id).is_some())
            .map(move |&id| (s, id))
    }
    let all = || cores.iter().enumerate().flat_map(|(s, core)| live(s, core));
    let n = all().count();
    (n > 0).then(|| all().nth((pick % n as u64) as usize))?
}

/// Request `req`'s client device: a seeded draw over the `up` devices
/// that never consumes the workload RNG stream.
pub(crate) fn client_draw(seed: u64, req: usize, up: &[usize]) -> usize {
    up[(splitmix64(seed ^ req as u64) % up.len() as u64) as usize]
}

/// Builds the campaign's smart space: `devices` devices with cycling
/// capacity profiles, mixed wired/wireless links, and a registry
/// offering a WAV pipeline plus an MPEG pipeline whose sink only accepts
/// WAV (so composing it exercises transcoder insertion).
///
/// Besides the space-wide (unpinned) instances, every device *hosts* a
/// pinned `wav-source` instance. Hosted instances are what the registry
/// churn path exercises: when a device crashes its instances vanish from
/// discovery (re-composition falls back to survivors or the space-wide
/// source), and they re-register on recovery.
pub fn build_space(devices: usize) -> DomainServer {
    assert!(devices >= 2, "fault campaigns need at least 2 devices");
    let profiles = [
        ResourceVector::mem_cpu(256.0, 300.0),
        ResourceVector::mem_cpu(192.0, 220.0),
        ResourceVector::mem_cpu(128.0, 160.0),
        ResourceVector::mem_cpu(96.0, 120.0),
    ];
    let mut builder = Environment::builder().default_bandwidth_mbps(40.0);
    for i in 0..devices {
        builder = builder.device(Device::new(
            format!("dev{i}"),
            profiles[i % profiles.len()].clone(),
        ));
    }
    let env = builder.link_mbps(0, 1, 80.0).build();
    let links: Vec<LinkKind> = (0..devices)
        .map(|i| {
            if i % 2 == 0 {
                LinkKind::Ethernet
            } else {
                LinkKind::Wireless
            }
        })
        .collect();
    let props = DeviceProperties {
        screen_pixels: 1_920_000.0,
        compute_factor: 4.0,
    };
    let mut server = DomainServer::new(env, links, vec![props; devices]);

    server.registry_mut().register(ServiceDescriptor::new(
        "wav-source@space",
        "wav-source",
        ServiceComponent::builder("wav-source")
            .role(ComponentRole::Source)
            .qos_out(
                QosVector::new()
                    .with(QosDimension::Format, QosValue::token("WAV"))
                    .with(QosDimension::FrameRate, QosValue::exact(30.0)),
            )
            .capability(QosDimension::FrameRate, QosValue::range(1.0, 30.0))
            .resources(ResourceVector::mem_cpu(24.0, 30.0))
            .build(),
    ));
    server.registry_mut().register(ServiceDescriptor::new(
        "wav-sink@space",
        "wav-sink",
        ServiceComponent::builder("wav-sink")
            .role(ComponentRole::Sink)
            .qos_in(
                QosVector::new()
                    .with(QosDimension::Format, QosValue::token("WAV"))
                    .with(QosDimension::FrameRate, QosValue::range(5.0, 30.0)),
            )
            .resources(ResourceVector::mem_cpu(10.0, 14.0))
            .build(),
    ));
    for i in 0..devices {
        server.registry_mut().register(ServiceDescriptor::new(
            format!("wav-source@dev{i}"),
            "wav-source",
            ServiceComponent::builder("wav-source")
                .role(ComponentRole::Source)
                .qos_out(
                    QosVector::new()
                        .with(QosDimension::Format, QosValue::token("WAV"))
                        .with(QosDimension::FrameRate, QosValue::exact(30.0)),
                )
                .capability(QosDimension::FrameRate, QosValue::range(1.0, 30.0))
                .resources(ResourceVector::mem_cpu(24.0, 30.0))
                .pinned_to(DeviceId::from_index(i))
                .build(),
        ));
    }
    server.registry_mut().register(ServiceDescriptor::new(
        "mpeg-source@space",
        "mpeg-source",
        ServiceComponent::builder("mpeg-source")
            .role(ComponentRole::Source)
            .qos_out(
                QosVector::new()
                    .with(QosDimension::Format, QosValue::token("MPEG"))
                    .with(QosDimension::FrameRate, QosValue::exact(24.0)),
            )
            .capability(QosDimension::FrameRate, QosValue::range(5.0, 24.0))
            .resources(ResourceVector::mem_cpu(40.0, 50.0))
            .build(),
    ));
    server.registry_mut().register(ServiceDescriptor::new(
        "pcm-player@space",
        "pcm-player",
        ServiceComponent::builder("pcm-player")
            .role(ComponentRole::Sink)
            .qos_in(
                QosVector::new()
                    .with(QosDimension::Format, QosValue::token("WAV"))
                    .with(QosDimension::FrameRate, QosValue::range(5.0, 24.0)),
            )
            .resources(ResourceVector::mem_cpu(12.0, 16.0))
            .build(),
    ));
    server
}

/// How many distinct templates [`app_template`] builds; a request's
/// template is its graph index modulo this.
pub(crate) const TEMPLATES: usize = 2;

/// The campaign's application templates: index 0 is a consistent WAV
/// pipeline, index 1 an MPEG source feeding a WAV-only player (forcing
/// the composer to insert the catalog's MPEG→WAV transcoder).
pub fn app_template(graph_index: usize) -> (&'static str, AbstractServiceGraph) {
    let mut g = AbstractServiceGraph::new();
    if graph_index.is_multiple_of(TEMPLATES) {
        let s = g.add_spec(AbstractComponentSpec::new("wav-source"));
        let p = g.add_spec(AbstractComponentSpec::new("wav-sink").with_pin(PinHint::ClientDevice));
        g.add_edge(s, p, 1.2).expect("template edge");
    } else {
        let s = g.add_spec(AbstractComponentSpec::new("mpeg-source"));
        let p =
            g.add_spec(AbstractComponentSpec::new("pcm-player").with_pin(PinHint::ClientDevice));
        g.add_edge(s, p, 2.5).expect("template edge");
    }
    (template_name(graph_index), g)
}

/// The name of [`app_template`]`(graph_index)`, without building it.
pub(crate) fn template_name(graph_index: usize) -> &'static str {
    if graph_index.is_multiple_of(TEMPLATES) {
        "wav-audio"
    } else {
        "mpeg-audio"
    }
}

/// SplitMix64 step — used to derive per-request client devices from the
/// campaign seed without consuming the workload RNG stream.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Runs one fault-injection campaign to completion.
///
/// Returns the outcome, or the first [`InvariantViolation`] encountered
/// (the campaign aborts at the first broken invariant so the offending
/// event is always the last log line).
///
/// # Panics
///
/// Panics when the config is structurally invalid (fewer than 2 devices,
/// non-positive horizon) — the same construction errors the underlying
/// generators reject.
pub fn run_fault_campaign(
    cfg: &FaultCampaignConfig,
) -> Result<CampaignOutcome, InvariantViolation> {
    run_fault_campaign_with(cfg, &campaign_schedule(cfg))
}

/// The exact fault schedule [`run_fault_campaign`] derives from `cfg`
/// (seeded off a salted stream so it never perturbs the workload RNG).
///
/// Exposed so callers that hit an [`InvariantViolation`] can hand this
/// schedule to [`crate::shrink::shrink_schedule`] and replay shrunken
/// candidates through [`run_fault_campaign_with`].
pub fn campaign_schedule(cfg: &FaultCampaignConfig) -> Vec<TimedFault> {
    FaultScheduleConfig {
        seed: cfg.seed ^ FAULT_STREAM_SALT,
        events: cfg.faults,
        horizon_h: cfg.horizon_h,
        devices: cfg.devices,
        min_factor: cfg.min_factor,
        scope_max: cfg.scope_max,
        flapping_links: cfg.flapping_links,
        flap_period_h: cfg.flap_period_h,
        partitions: cfg.partitions,
        partition_max: cfg.partition_max,
        heartbeat_loss: cfg.heartbeat_loss,
    }
    .generate()
}

/// Runs one campaign against an *explicit* fault schedule instead of the
/// config-derived one — the replay hook [`crate::shrink`] uses to probe
/// shrunken schedules. [`run_fault_campaign`] is exactly this with the
/// seeded schedule.
///
/// # Panics
///
/// See [`run_fault_campaign`].
pub fn run_fault_campaign_with(
    cfg: &FaultCampaignConfig,
    schedule: &[TimedFault],
) -> Result<CampaignOutcome, InvariantViolation> {
    run_fault_campaign_impl(cfg, schedule, None)
}

/// The serial and batched loop behind [`run_fault_campaign_with`]
/// (`pipeline == None`: commit events straight off the DES queue) and
/// [`crate::pipeline::run_fault_campaign_batched`] (`Some`: admit in
/// batches, speculate arrival pipelines on the worker pool, commit in
/// the identical deterministic order). It owns queue setup and
/// batching; every event is a call into one [`ShardCore`] spanning the
/// whole space, which keeps its own speculation memo fresh.
pub(crate) fn run_fault_campaign_impl(
    cfg: &FaultCampaignConfig,
    schedule: &[TimedFault],
    pipeline: Option<&PipelineConfig>,
) -> Result<CampaignOutcome, InvariantViolation> {
    let inert = DurabilityConfig {
        enabled: false,
        ..DurabilityConfig::default()
    };
    let mut core = ShardCore::new(Shard::new(build_space(cfg.devices), cfg.clone()), 0, &inert);
    let workload = WorkloadConfig::overload(cfg.requests, cfg.horizon_h);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let trace = workload.generate(&mut rng);

    let mut queue: EventQueue<CampaignEvent> = EventQueue::new();
    for (i, r) in trace.iter().enumerate() {
        queue.schedule(r.arrival_h, CampaignEvent::Arrival(i));
        queue.schedule(r.departure_h(), CampaignEvent::Departure(i));
    }
    for (j, f) in schedule.iter().enumerate() {
        queue.schedule(f.at_h, CampaignEvent::Fault(j));
    }
    if !cfg.perfect_detection() {
        for d in 0..cfg.devices {
            for k in 0..=cfg.heartbeat_steps() {
                queue.schedule(
                    k as f64 * cfg.heartbeat_period_h,
                    CampaignEvent::Heartbeat(d),
                );
            }
        }
    }

    let mut pending: VecDeque<(f64, CampaignEvent)> = VecDeque::new();
    let mut batch_wall = Instant::now();
    // Reused across arrivals: the reachable-device scratch buffer.
    let mut up: Vec<usize> = Vec::with_capacity(cfg.devices);

    while let Some((at_h, event)) = next_event(
        &mut pending,
        &mut queue,
        pipeline,
        &trace,
        &mut core,
        &mut batch_wall,
    ) {
        core.advance(at_h);
        match event {
            CampaignEvent::Arrival(i) => {
                up.clear();
                up.extend(core.up_devices());
                let a = Arrival {
                    req: i,
                    graph_index: trace[i].graph_index,
                    client_local: client_draw(cfg.seed, i, &up),
                    via: None,
                };
                if let Err(e) = core.arrival(a, at_h) {
                    core.deny_arrival(a, at_h, &e);
                }
            }
            CampaignEvent::Departure(i) => core.depart(i, at_h),
            CampaignEvent::Fault(j) => core.fault(&schedule[j], at_h),
            CampaignEvent::Heartbeat(d) => {
                if core.heartbeat(d, at_h) {
                    queue.schedule(at_h + cfg.detection_grace_h, CampaignEvent::LeaseCheck);
                }
            }
            CampaignEvent::LeaseCheck => core.lease_check(at_h),
        }
        core.finish_event(at_h)?;
        debug_assert!(
            core.custody.is_empty(),
            "only federated handoffs hold untracked sessions"
        );
    }
    core.finalize()?;

    let report = core.shard.report;
    // Everything still live or parked at the horizon is neither
    // completed nor dropped; fates must balance exactly.
    debug_assert!(report.session_fates_balance(), "fates balance: {report:?}");
    Ok(CampaignOutcome {
        report,
        log: core.log,
        stages: core.shard.server.stage_times(),
        pipeline: Some(core.memo.stats),
    })
}

/// Applies one shard-local device fault: updates ground truth and the
/// detector bookkeeping, runs the recovery pass, and absorbs it. Returns
/// the transcript line describing what actually happened and the
/// reservation custody the pass handed back — the same decision live
/// and when the WAL replays the fault, since both read only the shard.
pub(crate) fn apply_fault(shard: &mut Shard, fault: &TimedFault) -> (String, Vec<Custody>) {
    let imperfect = !shard.cfg.perfect_detection();
    let devices = shard.cfg.devices;
    let mut custody = Vec::new();
    let mut pass = |shard: &mut Shard, rec: RecoveryReport| {
        count_pass(&rec, &mut shard.report);
        shard.absorb(&rec, &mut custody).0
    };
    let line = match fault.kind {
        FaultKind::Crash { device } => {
            // The schedule's up/down state machine ran in generation
            // order; after time-sorting, a crash may arrive while the
            // device is already down or is the last survivor. Skip those
            // (logged), so the space never fully blacks out.
            if shard.down.contains(&device) {
                format!("fault   crash dev{device} -> skipped (already down)")
            } else if shard.down.len() + 1 >= devices {
                format!("fault   crash dev{device} -> skipped (last device up)")
            } else {
                shard.report.crashes += 1;
                shard.down.insert(device);
                if imperfect {
                    // Ground truth only: the detector learns nothing
                    // until the device's lease expires.
                    shard
                        .server
                        .set_reachable(DeviceId::from_index(device), false);
                    shard
                        .det
                        .unreachable_since
                        .entry(device)
                        .or_insert(fault.at_h);
                    format!("fault   crash dev{device} -> undetected (awaiting lease expiry)")
                } else {
                    let rec = shard.server.handle_crash(DeviceId::from_index(device));
                    format!("fault   crash dev{device} -> {}", pass(shard, rec))
                }
            }
        }
        FaultKind::CrashScope { first, count } => {
            // Same skip rules as single crashes, applied member-wise, and
            // the whole group shrinks (from the back) until a survivor
            // remains outside it.
            let mut members: Vec<usize> = (first..first + count)
                .filter(|d| !shard.down.contains(d))
                .collect();
            while !members.is_empty() && shard.down.len() + members.len() >= devices {
                members.pop();
            }
            match members.last() {
                None => format!(
                    "fault   crash-scope dev{first}+{count} -> skipped (no member can go down)"
                ),
                Some(&last) => {
                    shard.report.crashes += members.len() as u32;
                    if members.len() >= 2 {
                        shard.report.correlated_crashes += 1;
                    }
                    shard.down.extend(members.iter().copied());
                    let tail = if imperfect {
                        for &d in &members {
                            shard.server.set_reachable(DeviceId::from_index(d), false);
                            shard.det.unreachable_since.entry(d).or_insert(fault.at_h);
                        }
                        "undetected (awaiting lease expiry)".to_owned()
                    } else {
                        let ids: Vec<DeviceId> =
                            members.iter().map(|&d| DeviceId::from_index(d)).collect();
                        let rec = shard.server.handle_crash_many(&ids);
                        pass(shard, rec)
                    };
                    format!(
                        "fault   crash-scope dev{first}..dev{last} ({} members) -> {tail}",
                        members.len()
                    )
                }
            }
        }
        FaultKind::Recover { device } => {
            if !shard.down.contains(&device) {
                format!("fault   recover dev{device} -> skipped (already up)")
            } else {
                shard.report.device_recoveries += 1;
                shard.down.remove(&device);
                if imperfect {
                    // Ground truth restored; if the crash was never even
                    // suspected (shorter than the grace window) the blip
                    // is tolerated invisibly, otherwise the next
                    // heartbeat renews the lease and reinstates the
                    // device.
                    if shard.det.partition_depth[device] == 0 {
                        shard
                            .server
                            .set_reachable(DeviceId::from_index(device), true);
                        shard.det.unreachable_since.remove(&device);
                    }
                    format!("fault   recover dev{device} -> reachable (awaiting heartbeat)")
                } else {
                    let rec = shard.server.recover_device(DeviceId::from_index(device));
                    format!("fault   recover dev{device} -> {}", pass(shard, rec))
                }
            }
        }
        FaultKind::Fluctuate { device, factor } => {
            if shard.down.contains(&device) {
                format!("fault   fluctuate dev{device} -> skipped (down)")
            } else if shard.server.is_suspected(DeviceId::from_index(device)) {
                // A suspected device's capacity is held at zero by the
                // detector; applying the fluctuation would overwrite it.
                // Physically the fluctuation happens on the (healthy)
                // device, but the domain server cannot observe it.
                format!("fault   fluctuate dev{device} -> skipped (suspected)")
            } else {
                shard.report.fluctuations += 1;
                let pristine = shard
                    .server
                    .pristine()
                    .device(device)
                    .expect("schedule device indexes the space")
                    .availability()
                    .clone();
                let scaled = pristine
                    .scaled_by(&vec![factor; pristine.dim()])
                    .expect("factor vector matches dimension");
                let rec = shard.server.fluctuate(DeviceId::from_index(device), scaled);
                format!(
                    "fault   fluctuate dev{device} x{factor:.3} -> {}",
                    pass(shard, rec)
                )
            }
        }
        FaultKind::DegradeLink { a, b, factor } => {
            if shard.down.contains(&a) || shard.down.contains(&b) {
                format!("fault   degrade-link dev{a}-dev{b} -> skipped (endpoint down)")
            } else {
                shard.report.link_fluctuations += 1;
                let mbps = shard.server.pristine().bandwidth().get(a, b) * factor;
                let rec = shard.server.degrade_link(
                    DeviceId::from_index(a),
                    DeviceId::from_index(b),
                    mbps,
                );
                format!(
                    "fault   degrade-link dev{a}-dev{b} x{factor:.3} -> {}",
                    pass(shard, rec)
                )
            }
        }
        FaultKind::Partition { first, count } => {
            if !imperfect {
                format!("fault   partition dev{first}+{count} -> skipped (perfect detection)")
            } else {
                shard.report.partitions += 1;
                let hi = (first + count).min(devices);
                for d in first..hi {
                    shard.det.partition_depth[d] += 1;
                    if shard.det.partition_depth[d] == 1 && !shard.down.contains(&d) {
                        shard.server.set_reachable(DeviceId::from_index(d), false);
                        shard.det.unreachable_since.entry(d).or_insert(fault.at_h);
                    }
                }
                format!(
                    "fault   partition dev{first}+{} -> cut off from the domain server",
                    hi - first
                )
            }
        }
        FaultKind::Heal { first, count } => {
            if !imperfect {
                format!("fault   heal dev{first}+{count} -> skipped (perfect detection)")
            } else {
                shard.report.heals += 1;
                let hi = (first + count).min(devices);
                for d in first..hi {
                    shard.det.partition_depth[d] = shard.det.partition_depth[d].saturating_sub(1);
                    if shard.det.partition_depth[d] == 0 && !shard.down.contains(&d) {
                        shard.server.set_reachable(DeviceId::from_index(d), true);
                        shard.det.unreachable_since.remove(&d);
                    }
                }
                format!(
                    "fault   heal dev{first}+{} -> rejoined (awaiting heartbeat)",
                    hi - first
                )
            }
        }
        FaultKind::JamHeartbeats { device, until_h } => {
            if !imperfect {
                format!("fault   jam-heartbeats dev{device} -> skipped (perfect detection)")
            } else {
                shard.report.heartbeat_jams += 1;
                shard.det.jam_until_h[device] = shard.det.jam_until_h[device].max(until_h);
                format!("fault   jam-heartbeats dev{device} until t={until_h:010.4}h")
            }
        }
        FaultKind::MoveUser { .. } | FaultKind::SwitchDevice { .. } => {
            unreachable!("moves and switches run through ShardCore::relocate")
        }
        // Domain-server crashes only exist at the federation level; the
        // serial loop runs the one immortal server these events cannot
        // reach (the federated engine intercepts them before this
        // dispatch).
        FaultKind::ShardCrash { shard } => {
            format!("fault   shard-crash shard{shard} -> skipped (serial harness)")
        }
        FaultKind::ShardRestart { shard } => {
            format!("fault   shard-restart shard{shard} -> skipped (serial harness)")
        }
    };
    (line, custody)
}

/// Counts one recovery pass's O(affected)-vs-O(considered) work into the
/// campaign report (fault arms only — the retry-queue drain is not a
/// pass).
pub(crate) fn count_pass(rec: &RecoveryReport, report: &mut FaultReport) {
    report.recovery_passes += 1;
    report.recovery_considered += rec.considered as u32;
    report.recovery_affected += rec.affected as u32;
}

/// Sweeps every invariant over the server's current state. Returns the
/// first violation found, described.
pub fn check_invariants(server: &DomainServer, down: &BTreeSet<usize>) -> Result<(), String> {
    let env = server.env();
    let capacity = server.capacity();

    // (1) Capacity bounds per device dimension.
    for (d, (residual, cap)) in env.devices().iter().zip(capacity.devices()).enumerate() {
        for (k, (&r, &c)) in residual
            .availability()
            .amounts()
            .iter()
            .zip(cap.availability().amounts())
            .enumerate()
        {
            if r < -EPS {
                return Err(format!("device {d} dim {k}: negative residual {r}"));
            }
            if r > c + EPS {
                return Err(format!(
                    "device {d} dim {k}: residual {r} exceeds capacity {c}"
                ));
            }
        }
    }

    // (2) Conservation: capacity - Σ live charges == residual, per
    // device dimension. Recompute the charges from the live cuts.
    let dim = capacity.device(0).map_or(0, |dev| dev.availability().dim());
    let mut charged = vec![ResourceVector::zero(dim); capacity.device_count()];
    for (_, s) in server.sessions() {
        let graph = &s.configuration.app.graph;
        let cut = &s.configuration.cut;
        for (part, charge) in charged.iter_mut().enumerate().take(cut.parts()) {
            let used = cut
                .part_resource_sum(graph, part)
                .map_err(|e| format!("session cut dimension mismatch: {e}"))?;
            *charge = charge
                .checked_add(&used)
                .map_err(|e| format!("charge accumulation mismatch: {e}"))?;
        }
    }
    for (d, used) in charged.iter().enumerate() {
        let cap = capacity.device(d).expect("index in range").availability();
        let res = env.device(d).expect("index in range").availability();
        for k in 0..dim {
            let expect = cap.amounts()[k] - used.amounts()[k];
            let got = res.amounts()[k];
            if (expect - got).abs() > EPS {
                return Err(format!(
                    "device {d} dim {k}: residual {got} != capacity-charges {expect}"
                ));
            }
        }
    }

    // (3) Link-bandwidth bounds and conservation over the shared pool.
    let mut link_charged: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    for (_, s) in server.sessions() {
        let graph = &s.configuration.app.graph;
        let t = s.configuration.cut.inter_part_throughput(graph);
        for (i, row) in t.iter().enumerate() {
            for (j, &mbps) in row.iter().enumerate().skip(i + 1) {
                let both = mbps + t[j][i];
                if both > 0.0 {
                    *link_charged.entry((i, j)).or_insert(0.0) += both;
                }
            }
        }
    }
    for (i, j, cap_mbps) in capacity.bandwidth().pairs() {
        if !cap_mbps.is_finite() {
            continue;
        }
        let res_mbps = env.bandwidth().get(i, j);
        if res_mbps < -EPS {
            return Err(format!("link {i}-{j}: negative residual {res_mbps}"));
        }
        let used = link_charged.get(&(i, j)).copied().unwrap_or(0.0);
        let expect = cap_mbps - used;
        if (expect - res_mbps).abs() > EPS {
            return Err(format!(
                "link {i}-{j}: residual {res_mbps} != capacity-charges {expect}"
            ));
        }
    }

    // (4) Discovery hygiene: no registered instance is pinned to a down
    // device — crashed hosts' instances must stay unregistered until
    // recovery re-registers them. Checked through the registry's
    // host index, which also exercises it under churn.
    for &d in down {
        if let Some(desc) = server.registry().hosted_on(d).first() {
            return Err(format!(
                "discovery: instance `{}` visible while host dev{d} is down",
                desc.instance_id
            ));
        }
    }

    // (5) Per-session checks: Eq. 1 consistency, pins, crashed devices
    // host nothing.
    for (id, s) in server.sessions() {
        let graph = &s.configuration.app.graph;
        let cut = &s.configuration.cut;
        if !diagnose(graph).is_consistent() {
            return Err(format!("{id}: live graph is not QoS-consistent (Eq. 1)"));
        }
        match cut.respects_pins(graph) {
            Ok(true) => {}
            Ok(false) => return Err(format!("{id}: cut violates a component pin")),
            Err(e) => return Err(format!("{id}: malformed cut ({e})")),
        }
        for &d in down {
            if d < cut.parts() {
                let used = cut
                    .part_resource_sum(graph, d)
                    .map_err(|e| format!("{id}: cut dimension mismatch ({e})"))?;
                if !used.is_zero() {
                    return Err(format!("{id}: components placed on crashed device {d}"));
                }
            }
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ubiqos::fault_report::fnv1a;

    /// The event-log fast path must reproduce `format!` byte-for-byte —
    /// every campaign digest depends on it. Sweeps exact representables,
    /// rounding boundaries (which must take the fallback), pathological
    /// values, and a seeded random cloud.
    #[test]
    fn fast_hours_matches_std_formatting() {
        let mut cases: Vec<f64> = vec![
            0.0,
            0.0001,
            0.00005,
            0.00014999999,
            0.12345,
            1.0 / 3.0,
            2.5,
            41.9999999,
            47.99995,
            1000.0,
            99_999.999_9,
            99_999.999_99,
            100_000.0,
            1e12,
            -1.5,
            f64::NAN,
            f64::INFINITY,
        ];
        let mut x = 0x1cdc_2002_u64;
        for _ in 0..20_000 {
            x = splitmix64(x);
            // Hours in [0, 1049): the magnitude every campaign uses.
            cases.push((x % (1 << 20)) as f64 / 1000.0 + (splitmix64(x) % 1000) as f64 * 1e-7);
        }
        for at_h in cases {
            let mut fast = String::new();
            push_hours(&mut fast, at_h);
            assert_eq!(fast, format!("{at_h:010.4}"), "at_h = {at_h:?}");
        }
        let mut s = String::new();
        push_padded_int(&mut s, 7, 4);
        s.push(' ');
        push_padded_int(&mut s, 123_456, 4);
        assert_eq!(s, "0007 123456");
    }

    /// The streamed digest must agree with hashing the rendered log,
    /// and a log that keeps no lines must count and hash the same.
    #[test]
    fn streamed_digest_matches_rendered_digest() {
        let (mut kept, mut streamed) = (EventLog::new(true), EventLog::default());
        assert_eq!(kept.digest(), fnv1a(b""));
        for log in [&mut kept, &mut streamed] {
            log.push(0.25, "arrive  req0");
            log.push_args(17.333333, format_args!("depart  req{} -> gone", 0));
        }
        assert_eq!(kept.digest(), fnv1a(kept.render().as_bytes()));
        assert_eq!(kept.bytes(), kept.render().len());
        assert!(kept.lines()[1].starts_with("[0001] t=00017.3333h "));
        assert_eq!(kept.last_line(), kept.lines()[1]);
        assert_eq!(streamed.last_line(), kept.last_line());
        assert!(streamed.lines().is_empty());
        assert_eq!((streamed.len(), streamed.bytes()), (2, kept.bytes()));
        assert_eq!(streamed, kept);
        streamed.push(18.0, "depart  req1 -> gone");
        assert_ne!(streamed, kept);
    }

    /// A violation names the event being processed from the log's last
    /// line, which a log that keeps no lines still holds: an unretained
    /// shard reports the very line its retained twin logged last.
    #[test]
    fn a_violation_names_its_event_without_retention() {
        let violation = |retain_transcript: bool| {
            let cfg = FaultCampaignConfig {
                retain_transcript,
                ..FaultCampaignConfig::default()
            };
            let inert = DurabilityConfig {
                enabled: false,
                ..DurabilityConfig::default()
            };
            let mut core = ShardCore::new(Shard::new(build_space(cfg.devices), cfg), 0, &inert);
            for (req, at_h) in [(0, 0.5), (1, 0.75)] {
                core.advance(at_h);
                let a = Arrival {
                    req,
                    graph_index: req % 2,
                    client_local: 0,
                    via: None,
                };
                core.arrival(a, at_h).expect("a fresh space admits");
                core.finish_event(at_h).expect("no corruption yet");
            }
            core.shard.server.corrupt_residual(1, 0, -1.0);
            let v = core.finish_event(0.75).expect_err("a negative residual");
            (v, core.log)
        };
        let (streamed, streamed_log) = violation(false);
        let (kept, kept_log) = violation(true);
        assert!(streamed_log.lines().is_empty());
        let last = kept_log.lines().last().expect("the twin kept its lines");
        assert!(last.contains("arrive  req1"), "{last}");
        assert_eq!(&streamed.event, last);
        assert_eq!(streamed, kept);
        assert!(
            streamed.violation.contains("negative residual"),
            "{streamed}"
        );
    }

    /// A repeated refusal of one `(template, client)` key adopts the
    /// memoised denial: it renders the same `denied (…)` text as the
    /// refusal that speculated inline, and counts as adopted.
    #[test]
    fn a_repeated_refusal_adopts_the_memoised_denial() {
        let cfg = FaultCampaignConfig {
            retain_transcript: true,
            ..FaultCampaignConfig::default()
        };
        let inert = DurabilityConfig {
            enabled: false,
            ..DurabilityConfig::default()
        };
        let mut core = ShardCore::new(Shard::new(build_space(cfg.devices), cfg), 0, &inert);
        // Admits or denies request `req` (template 0 at client 0), as
        // the serial loop's arrival arm does.
        let arrive = |core: &mut ShardCore, req: usize| {
            let at_h = req as f64 * 0.001;
            core.advance(at_h);
            let a = Arrival {
                req,
                graph_index: 0,
                client_local: 0,
                via: None,
            };
            match core.arrival(a, at_h) {
                Ok(()) => true,
                Err(e) => {
                    core.deny_arrival(a, at_h, &e);
                    false
                }
            }
        };
        let verdict = |core: &ShardCore| {
            let line = core.log.lines().last().expect("retained").clone();
            let (_, verdict) = line.split_once(" -> ").expect("an arrival line");
            verdict.to_owned()
        };
        let mut req = 0;
        while arrive(&mut core, req) {
            req += 1;
            assert!(req < 1_000, "the space never filled");
        }
        // The first refusal followed a start, which cleared the memo.
        let first = verdict(&core);
        assert!(first.starts_with("denied ("), "{first}");
        let before = core.memo.stats.clone();
        assert!(before.inline_speculated > 0);
        for repeat in 1..=3 {
            assert!(!arrive(&mut core, req + repeat), "still refused");
            assert_eq!(verdict(&core), first, "repeat {repeat}");
        }
        let after = &core.memo.stats;
        assert_eq!(after.adopted, before.adopted + 3);
        assert_eq!(after.inline_speculated, before.inline_speculated);
        assert_eq!(core.shard.report.denied, 4);
    }

    #[test]
    fn campaign_completes_and_balances() {
        let outcome = run_fault_campaign(&FaultCampaignConfig::default()).expect("no violations");
        let r = &outcome.report;
        assert!(r.session_fates_balance(), "{r:?}");
        assert_eq!(r.arrivals, 120);
        assert!(r.admitted > 0, "some sessions must be admitted");
        assert!(r.invariant_checks >= r.events);
        assert_eq!(r.log_digest, outcome.log.digest());
    }

    #[test]
    fn campaign_is_deterministic() {
        let cfg = FaultCampaignConfig::default();
        let a = run_fault_campaign(&cfg).expect("no violations");
        let b = run_fault_campaign(&cfg).expect("no violations");
        assert_eq!(a.log, b.log, "identical logs");
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run_fault_campaign(&FaultCampaignConfig::default()).expect("no violations");
        let b = run_fault_campaign(&FaultCampaignConfig {
            seed: 7,
            ..FaultCampaignConfig::default()
        })
        .expect("no violations");
        assert_ne!(a.log, b.log);
        assert_ne!(a.report.log_digest, b.report.log_digest);
    }

    #[test]
    fn faults_actually_fire() {
        let outcome = run_fault_campaign(&FaultCampaignConfig::default()).expect("no violations");
        let r = &outcome.report;
        assert!(r.crashes > 0, "schedule should include crashes: {r}");
        assert!(r.fluctuations > 0, "and fluctuations: {r}");
        assert_eq!(
            r.events,
            r.arrivals * 2 + 40,
            "arrival+departure per request plus every fault"
        );
    }

    #[test]
    fn staged_recovery_drops_fewer_sessions_than_strict() {
        // Dense enough that capacity actually contends: ~4 devices carry
        // several concurrent sessions while faults shrink them.
        let staged_cfg = FaultCampaignConfig {
            devices: 4,
            requests: 400,
            faults: 80,
            scope_max: 2,
            flapping_links: 1,
            ..FaultCampaignConfig::default()
        };
        let strict_cfg = FaultCampaignConfig {
            staged_recovery: false,
            ..staged_cfg.clone()
        };
        let staged = run_fault_campaign(&staged_cfg)
            .expect("no violations")
            .report;
        let strict = run_fault_campaign(&strict_cfg)
            .expect("no violations")
            .report;
        // Same seed, same schedule, same arrival stream: the comparison
        // is at equal admission workload.
        assert_eq!(staged.arrivals, strict.arrivals);
        assert_eq!(staged.crashes, strict.crashes);
        assert!(
            staged.dropped < strict.dropped,
            "staged pipeline must shed fewer sessions: staged {} vs strict {}",
            staged.dropped,
            strict.dropped
        );
        assert!(
            staged.degraded + staged.readmitted > 0,
            "the ladder/retry path must actually fire: {staged:?}"
        );
        // The incremental pass does strictly less work than a full
        // O(sessions) re-placement would have.
        assert!(staged.recovery_affected <= staged.recovery_considered);
        assert!(staged.recovery_passes > 0);
    }

    #[test]
    fn correlated_and_flapping_events_fire() {
        let outcome = run_fault_campaign(&FaultCampaignConfig {
            scope_max: 3,
            flapping_links: 1,
            ..FaultCampaignConfig::default()
        })
        .expect("no violations");
        let r = &outcome.report;
        assert!(
            r.events > r.arrivals * 2 + 40,
            "flapping overlays add events beyond the base schedule: {r}"
        );
        assert!(r.link_fluctuations > 0, "flapping links degrade/restore");
    }

    #[test]
    fn templates_cover_both_pipelines() {
        let (wav, g0) = app_template(0);
        let (mpeg, g1) = app_template(1);
        assert_eq!(wav, "wav-audio");
        assert_eq!(mpeg, "mpeg-audio");
        assert_eq!(g0.spec_count(), 2);
        assert_eq!(g1.spec_count(), 2);
    }

    #[test]
    fn invariants_pass_on_a_fresh_space() {
        let server = build_space(4);
        assert_eq!(check_invariants(&server, &BTreeSet::new()), Ok(()));
    }

    /// An imperfect-detection campaign config with every detector
    /// feature active: a 1 h grace window, partitions, and lossy
    /// heartbeats on top of the usual crash/flap schedule.
    fn imperfect_cfg() -> FaultCampaignConfig {
        FaultCampaignConfig {
            detection_grace_h: 1.0,
            heartbeat_period_h: 0.25,
            partitions: 2,
            partition_max: 2,
            heartbeat_loss: 0.3,
            scope_max: 2,
            ..FaultCampaignConfig::default()
        }
    }

    #[test]
    fn imperfect_detection_converges_and_balances() {
        let outcome = run_fault_campaign(&imperfect_cfg()).expect("no violations");
        let r = &outcome.report;
        assert!(r.session_fates_balance(), "{r:?}");
        assert!(r.partitions > 0, "partition overlay must fire: {r}");
        assert_eq!(r.heals, r.partitions, "every partition heals in-horizon");
        assert!(
            r.suspicions > 0,
            "crashes/partitions must be suspected: {r}"
        );
        assert!(
            r.false_suspected > 0,
            "partitioned-but-healthy devices must be falsely suspected: {r}"
        );
        assert!(
            r.reinstatements > 0,
            "healed/recovered devices must be reinstated by a heartbeat: {r}"
        );
        // Eventual completeness: the convergence drain leaves nothing
        // permanently parked.
        assert_eq!(
            r.parked_at_end, 0,
            "converged schedules park nothing forever: {r}"
        );
    }

    #[test]
    fn imperfect_detection_is_deterministic() {
        let cfg = imperfect_cfg();
        let a = run_fault_campaign(&cfg).expect("no violations");
        let b = run_fault_campaign(&cfg).expect("no violations");
        assert_eq!(a.log, b.log, "identical logs");
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn partitions_without_crashes_only_false_suspect_and_fully_reinstate() {
        // No crashes at all: every suspicion is of a healthy device, and
        // every one must be cleanly undone by a post-heal heartbeat.
        let cfg = FaultCampaignConfig {
            faults: 0,
            detection_grace_h: 0.5,
            heartbeat_period_h: 0.25,
            partitions: 3,
            partition_max: 2,
            ..FaultCampaignConfig::default()
        };
        let r = run_fault_campaign(&cfg).expect("no violations").report;
        assert_eq!(r.crashes, 0);
        assert!(r.suspicions > 0, "partitions outlast the grace window: {r}");
        assert_eq!(
            r.false_suspected, r.suspicions,
            "all suspicions are false: {r}"
        );
        assert_eq!(
            r.reinstatements, r.suspicions,
            "all suspicions are undone: {r}"
        );
        assert_eq!(r.parked_at_end, 0, "{r}");
        assert!(r.session_fates_balance(), "{r:?}");
    }

    #[test]
    fn grace_zero_reproduces_the_perfect_detection_bytes() {
        // The equivalence the CI baseline job pins: detector knobs at
        // their defaults (grace 0, no partitions, no loss) are not
        // merely *similar* to the pre-detector harness — the logs are
        // byte-identical, because no heartbeat events exist, no extra
        // RNG draws happen, and no new log lines fire.
        let cfg = FaultCampaignConfig {
            detection_grace_h: 0.0,
            heartbeat_period_h: 0.125, // ignored when grace is zero
            partitions: 0,
            partition_max: 3, // ignored when partitions is zero
            heartbeat_loss: 0.0,
            ..FaultCampaignConfig::default()
        };
        assert!(cfg.perfect_detection());
        let explicit = run_fault_campaign(&cfg).expect("no violations");
        let default = run_fault_campaign(&FaultCampaignConfig::default()).expect("no violations");
        assert_eq!(explicit.log, default.log);
        assert_eq!(explicit.report, default.report);
    }

    #[test]
    fn stale_view_parks_surface_in_the_log_and_report() {
        // A long grace window and plenty of partitions maximize the
        // window where placement acts on a stale view; some arrival or
        // re-placement must hit it.
        let cfg = FaultCampaignConfig {
            requests: 300,
            detection_grace_h: 2.0,
            heartbeat_period_h: 0.5,
            partitions: 4,
            partition_max: 2,
            scope_max: 2,
            ..FaultCampaignConfig::default()
        };
        let outcome = run_fault_campaign(&cfg).expect("no violations");
        let r = &outcome.report;
        assert!(
            r.stale_views > 0,
            "stale-view activations must be witnessed: {r}"
        );
        assert!(r.session_fates_balance(), "{r:?}");
    }
}
