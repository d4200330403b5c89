//! Durable shard state: a per-shard virtual-time write-ahead log plus
//! periodic snapshot checkpoints, backing crash/restart fault injection
//! in the federated engine ([`crate::federation`]).
//!
//! ## Model
//!
//! Every state mutation a shard performs while handling federated
//! events is journaled as a typed `WalRecord` *before* (or, for
//! outcome-dependent bookkeeping, within the same atomic event as) the
//! mutation itself: clock advances, session-table track/untrack edits,
//! every [`DomainServer`] call (admissions, parks, refunds via
//! `stop_session`, lease renewals, lease expiries, retry drains,
//! moves/switches), and every injected device fault. Periodic
//! checkpoints capture a full `ShardSnapshot` and truncate the log
//! tail, bounding both replay work and journal memory.
//!
//! The shard's transcript is not journaled and not checkpointed. It is
//! engine-level output, like the session directory, the handoff ledger
//! and the link state: it survives a shard crash untouched, and no
//! replayed decision ever reads it, so checkpoint cost does not grow
//! with history.
//!
//! On a scheduled `ShardCrash` the engine rebuilds the shard from
//! `snapshot + tail` replay, asserts the rebuilt state equals the
//! pre-crash state **field by field** (report, ground truth, detector
//! state, session tables, clock, epilogue cursors, and the domain
//! server's own [`state fingerprint`](DomainServer::state_fingerprint)),
//! and swaps the rebuilt shard in — so a replay bug surfaces twice:
//! once in the hard equality assert and once downstream as a per-shard
//! digest divergence, since every transcript line written after the
//! crash is computed from the rebuilt state.
//!
//! ## Replay determinism
//!
//! Replay re-executes recorded `ServerCall`s against the restored
//! server through the same per-kind call code (`exec_*`) the shard core's
//! journaled helpers use live (a live start adopts a speculation,
//! `start_session` decomposed) — it never duplicates handler branch
//! logic. A call whose
//! live-side bookkeeping depended on the *outcome* (which recovered
//! session ids were reservation custody at absorb time) carries the
//! raw session ids actually untracked, so replay applies the same map
//! edits without consulting crash-time engine state. Aggregate
//! counters, the iteration count, and the sweep cursor are coalesced
//! into `WalRecord::Mark` records emitted at event boundaries (the
//! crash instant is itself a boundary); everything the counters
//! summarize is already individually journaled by the typed records
//! around them.
//!
//! Volatile profiling state (wall-clock stage times, solver-portfolio
//! telemetry, composition-cache contents) is checkpointed by value but
//! not journaled: a crash loses the profiling tail since the last
//! checkpoint. It is excluded from `shard_fingerprint`, and the
//! cache-on ≡ cache-off contract (PR 4) makes a cold composition
//! cache semantically invisible.

use crate::checkpoint::HandoffPlan;
use crate::domain_server::{DomainServer, Session, SessionId};
use crate::faults::{apply_fault, Shard};
use crate::recovery::RecoveryReport;
use serde::{Deserialize, Serialize};
use ubiqos::fault_report::fnv1a;
use ubiqos::{ConfigureError, FaultReport};
use ubiqos_graph::{AbstractServiceGraph, DeviceId};
use ubiqos_model::QosVector;
use ubiqos_sim::TimedFault;

/// Durability knobs of the federated engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DurabilityConfig {
    /// Whether shards journal at all. Crash faults require `true`
    /// (enforced by [`FederationConfig::validate`]); journaling never
    /// touches shard state, so a crash-free run is byte-identical
    /// either way.
    ///
    /// [`FederationConfig::validate`]: crate::federation::FederationConfig::validate
    pub enabled: bool,
    /// Checkpoint cadence: a fresh snapshot is captured (and the log
    /// tail truncated) once the tail reaches this many records.
    pub checkpoint_every: usize,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            enabled: true,
            checkpoint_every: 256,
        }
    }
}

/// One journaled [`DomainServer`](crate::DomainServer) call. Replay
/// re-executes the call verbatim; the `removed` lists carry the raw
/// session ids the live run untracked when absorbing the call's
/// recovery report (reservation-custody ids are *not* untracked, so
/// they are absent from the lists by construction).
#[derive(Debug, Clone)]
pub(crate) enum ServerCall {
    /// `start_session` — an admission attempt (arrival, forwarded
    /// arrival, reservation, or late-commit re-admission).
    Start {
        name: String,
        graph: AbstractServiceGraph,
        qos: QosVector,
        client_local: usize,
    },
    /// `park_arrival` — a session parked into the retry queue with a
    /// witnessed error.
    Park {
        name: String,
        graph: AbstractServiceGraph,
        qos: QosVector,
        client_local: usize,
        err: ConfigureError,
    },
    /// `stop_session` — a departure, refund, release, or lease expiry.
    Stop { sid: u64 },
    /// `move_user` to a shard-local device.
    Move { sid: u64, to_local: usize },
    /// `switch_device` to a shard-local device.
    Switch { sid: u64, to_local: usize },
    /// `heartbeat` (lease renewal); `removed` are the raw ids the
    /// reinstatement pass untracked.
    Heartbeat { device: usize, removed: Vec<u64> },
    /// `expire_overdue_leases` (anti-entropy sweep); one `removed`
    /// list per suspected device, in sweep order.
    ExpireLeases { removed: Vec<Vec<u64>> },
    /// `process_retries` (per-event retry drain); `removed` as above.
    Retries { removed: Vec<u64> },
}

/// One write-ahead log record.
#[derive(Debug, Clone)]
pub(crate) enum WalRecord {
    /// Monotone clock advance to `at_h` (the serial `play` step).
    Advance { at_h: f64 },
    /// Request `req` tracked as live session `sid` in the shard's
    /// `active`/`by_session` tables.
    Track { req: usize, sid: u64 },
    /// Request `req` / session `sid` untracked.
    Untrack { req: usize, sid: u64 },
    /// A journaled domain-server call.
    Call(ServerCall),
    /// A shard-local device fault, replayed through the shared
    /// [`apply_fault`] arm. Its absorb re-derives the live custody
    /// decision from the session tables alone.
    Fault(TimedFault),
    /// Event-boundary coalescence of aggregate state: the full
    /// counter report, the per-shard iteration count, and the sweep
    /// cursor. Emitted at every event epilogue and at the crash
    /// instant itself, so replay lands exactly on the pre-crash
    /// values.
    Mark {
        report: Box<FaultReport>,
        iterations: u64,
        last_sweep_h: Option<f64>,
    },
}

/// A full checkpoint of one shard. The domain server is captured via
/// [`clone_for_checkpoint`](crate::DomainServer::clone_for_checkpoint)
/// (cold composition cache, profiling copied by value).
pub(crate) struct ShardSnapshot {
    shard: Shard,
}

impl ShardSnapshot {
    /// Captures shard `s` as of now.
    pub(crate) fn capture(shard: &Shard) -> Self {
        ShardSnapshot {
            shard: Shard {
                server: shard.server.clone_for_checkpoint(),
                cfg: shard.cfg.clone(),
                report: shard.report.clone(),
                down: shard.down.clone(),
                det: shard.det.clone(),
                active: shard.active.clone(),
                by_session: shard.by_session.clone(),
                last_h: shard.last_h,
                iterations: shard.iterations,
                last_sweep_h: shard.last_sweep_h,
            },
        }
    }

    /// Materializes a fresh shard from the checkpoint.
    pub(crate) fn restore(&self) -> Shard {
        ShardSnapshot::capture(&self.shard).shard
    }
}

/// One shard's write-ahead log: the last checkpoint plus the typed
/// record tail appended since.
pub(crate) struct ShardWal {
    enabled: bool,
    checkpoint_every: usize,
    snapshot: Option<ShardSnapshot>,
    pub(crate) tail: Vec<WalRecord>,
    /// Records appended over the shard's lifetime (across checkpoint
    /// truncations).
    pub(crate) appended: u64,
    /// Records replayed by crash recoveries.
    pub(crate) replayed: u64,
    /// Snapshot restores performed by crash recoveries.
    pub(crate) restores: u64,
}

impl ShardWal {
    /// A journal for `shard`, capturing the initial checkpoint when
    /// durability is enabled.
    pub(crate) fn new(cfg: &DurabilityConfig, shard: &Shard) -> Self {
        ShardWal {
            enabled: cfg.enabled,
            checkpoint_every: cfg.checkpoint_every.max(1),
            snapshot: cfg.enabled.then(|| ShardSnapshot::capture(shard)),
            tail: Vec::new(),
            appended: 0,
            replayed: 0,
            restores: 0,
        }
    }

    /// Appends the record `build` makes. This is the one durability
    /// gate: with durability disabled the record is never built, so
    /// callers journal unconditionally and clone nothing.
    pub(crate) fn push(&mut self, build: impl FnOnce() -> WalRecord) {
        if self.enabled {
            self.tail.push(build());
            self.appended += 1;
        }
    }

    /// Whether the tail has reached the checkpoint cadence.
    pub(crate) fn due_checkpoint(&self) -> bool {
        self.enabled && self.tail.len() >= self.checkpoint_every
    }

    /// Captures a fresh checkpoint of `shard` and truncates the tail.
    pub(crate) fn checkpoint(&mut self, shard: &Shard) {
        if self.enabled {
            self.snapshot = Some(ShardSnapshot::capture(shard));
            self.tail.clear();
        }
    }

    /// Rebuilds the shard from `snapshot + tail` replay. `grace_ms` is
    /// the shard's detection grace (the one live heartbeat calls
    /// used).
    pub(crate) fn recover(&mut self, grace_ms: f64) -> Shard {
        let n = self.tail.len();
        let shard = self.replay_prefix(grace_ms, n);
        self.replayed += n as u64;
        self.restores += 1;
        shard
    }

    /// Rebuilds the shard from the snapshot plus the first `n` tail
    /// records — a recovery that itself crashed after `n` records and
    /// restarted is exactly a second `replay_prefix(n)` call, so the
    /// prefix-idempotence property tests drive this directly.
    pub(crate) fn replay_prefix(&self, grace_ms: f64, n: usize) -> Shard {
        let snapshot = self
            .snapshot
            .as_ref()
            .expect("recovery requires durability to be enabled");
        let mut shard = snapshot.restore();
        for rec in &self.tail[..n] {
            apply_record(&mut shard, rec, grace_ms);
        }
        shard
    }
}

/// Untracks raw session id `raw` from the shard's session tables (the
/// replay arm of a live-side absorb removal).
fn untrack_raw(shard: &mut Shard, raw: u64) {
    let sid = SessionId::from_raw(raw);
    if let Some(req) = shard.by_session.remove(&sid) {
        shard.active.remove(&req);
    }
}

/// Applies one journal record to a shard under reconstruction.
fn apply_record(shard: &mut Shard, rec: &WalRecord, grace_ms: f64) {
    match rec {
        WalRecord::Advance { at_h } => {
            let delta_h = (at_h - shard.last_h).max(0.0);
            shard.server.play(delta_h * 3600.0);
            shard.last_h = *at_h;
        }
        WalRecord::Track { req, sid } => {
            let sid = SessionId::from_raw(*sid);
            shard.active.insert(*req, sid);
            shard.by_session.insert(sid, *req);
        }
        WalRecord::Untrack { req, sid } => {
            shard.active.remove(req);
            shard.by_session.remove(&SessionId::from_raw(*sid));
        }
        WalRecord::Call(call) => apply_call(shard, call, grace_ms),
        WalRecord::Fault(fault) => {
            // Re-executes the shared fault arm — counter bumps,
            // ground-truth flips, and recovery absorption all replay
            // inside it. Counters are overwritten by the next `Mark`
            // anyway; the ground truth (`down`, `det`) and the server
            // mutations are what matter here. The custody list was
            // handed to the engine live, whose handoff ledger survives
            // the crash.
            let _ = apply_fault(shard, fault);
        }
        WalRecord::Mark {
            report,
            iterations,
            last_sweep_h,
        } => {
            shard.report = report.as_ref().clone();
            shard.iterations = *iterations;
            shard.last_sweep_h = *last_sweep_h;
        }
    }
}

/// `start_session` as [`ServerCall::Start`] records it, for replay: a
/// live start adopts the same speculation decomposed. The other `exec_*`
/// functions are the per-kind call code both the shard core's journaled
/// helpers and [`apply_call`] go through, so the two cannot drift apart.
pub(crate) fn exec_start(
    server: &mut DomainServer,
    name: String,
    graph: AbstractServiceGraph,
    qos: QosVector,
    client_local: usize,
) -> Result<SessionId, ConfigureError> {
    server.start_session(name, graph, qos, DeviceId::from_index(client_local))
}

/// `park_arrival` as [`ServerCall::Park`] records it (shard-wide
/// discovery scope).
pub(crate) fn exec_park(
    server: &mut DomainServer,
    name: String,
    graph: AbstractServiceGraph,
    qos: QosVector,
    client_local: usize,
    err: ConfigureError,
) -> SessionId {
    server.park_arrival(
        name,
        graph,
        qos,
        DeviceId::from_index(client_local),
        None,
        err,
    )
}

/// `stop_session` as [`ServerCall::Stop`] records it.
pub(crate) fn exec_stop(server: &mut DomainServer, sid: u64) -> Option<Session> {
    server.stop_session(SessionId::from_raw(sid))
}

/// `move_user` (shard-wide scope) or `switch_device`, as
/// [`ServerCall::Move`] / [`ServerCall::Switch`] record them.
pub(crate) fn exec_relocate(
    server: &mut DomainServer,
    sid: u64,
    to_local: usize,
    is_move: bool,
) -> Result<HandoffPlan, ConfigureError> {
    let (sid, to) = (SessionId::from_raw(sid), DeviceId::from_index(to_local));
    if is_move {
        server.move_user(sid, None, to)
    } else {
        server.switch_device(sid, to)
    }
}

/// `heartbeat` as [`ServerCall::Heartbeat`] records it.
pub(crate) fn exec_heartbeat(
    server: &mut DomainServer,
    device: usize,
    grace_ms: f64,
) -> Option<RecoveryReport> {
    server.heartbeat(DeviceId::from_index(device), grace_ms)
}

/// Re-executes one journaled server call.
fn apply_call(shard: &mut Shard, call: &ServerCall, grace_ms: f64) {
    let server = &mut shard.server;
    match call {
        ServerCall::Start {
            name,
            graph,
            qos,
            client_local,
        } => {
            let _ = exec_start(
                server,
                name.clone(),
                graph.clone(),
                qos.clone(),
                *client_local,
            );
        }
        ServerCall::Park {
            name,
            graph,
            qos,
            client_local,
            err,
        } => {
            exec_park(
                server,
                name.clone(),
                graph.clone(),
                qos.clone(),
                *client_local,
                err.clone(),
            );
        }
        ServerCall::Stop { sid } => {
            exec_stop(server, *sid);
        }
        ServerCall::Move { sid, to_local } => {
            let _ = exec_relocate(server, *sid, *to_local, true);
        }
        ServerCall::Switch { sid, to_local } => {
            let _ = exec_relocate(server, *sid, *to_local, false);
        }
        ServerCall::Heartbeat { device, removed } => {
            let rec = exec_heartbeat(server, *device, grace_ms);
            debug_assert!(
                rec.is_some() || removed.is_empty(),
                "a replayed heartbeat diverged from the recorded reinstatement"
            );
            for &raw in removed {
                untrack_raw(shard, raw);
            }
        }
        ServerCall::ExpireLeases { removed } => {
            let recs = server.expire_overdue_leases();
            assert_eq!(
                recs.len(),
                removed.len(),
                "a replayed lease sweep diverged from the recorded one"
            );
            for list in removed {
                for &raw in list {
                    untrack_raw(shard, raw);
                }
            }
        }
        ServerCall::Retries { removed } => {
            server.process_retries();
            for &raw in removed {
                untrack_raw(shard, raw);
            }
        }
    }
}

/// A deterministic digest of every durable field of a shard: the
/// counter report, ground truth and detector state, session tables,
/// the virtual clock (exact bits), the epilogue cursors, and the
/// domain server's own state fingerprint. Volatile profiling state is
/// excluded by construction.
pub(crate) fn shard_fingerprint(shard: &Shard) -> u64 {
    let mut s = String::new();
    use std::fmt::Write as _;
    let _ = write!(
        s,
        "report={:?}|down={:?}|det={:?}|active={:?}|by={:?}|last_h={:016x}|it={}|sweep={:?}|server={:016x}",
        shard.report,
        shard.down,
        shard.det,
        shard.active,
        shard.by_session,
        shard.last_h.to_bits(),
        shard.iterations,
        shard.last_sweep_h.map(f64::to_bits),
        shard.server.state_fingerprint(),
    );
    fnv1a(s.as_bytes())
}

/// Asserts a rebuilt shard equals the live one it replaces,
/// field by field (better diagnostics than one combined digest).
pub(crate) fn assert_recovered_equal(live: &Shard, rebuilt: &Shard, s: usize) {
    assert_eq!(
        rebuilt.report, live.report,
        "shard{s} recovery replayed different counters"
    );
    assert_eq!(
        rebuilt.down, live.down,
        "shard{s} recovery lost ground truth"
    );
    assert_eq!(
        rebuilt.det, live.det,
        "shard{s} recovery lost detector state"
    );
    assert_eq!(
        rebuilt.active, live.active,
        "shard{s} recovery lost the session table"
    );
    assert_eq!(
        rebuilt.by_session, live.by_session,
        "shard{s} recovery lost the reverse session table"
    );
    assert_eq!(
        rebuilt.last_h.to_bits(),
        live.last_h.to_bits(),
        "shard{s} recovery drifted the virtual clock"
    );
    assert_eq!(
        (rebuilt.iterations, rebuilt.last_sweep_h.map(f64::to_bits)),
        (live.iterations, live.last_sweep_h.map(f64::to_bits)),
        "shard{s} recovery lost the event epilogue cursors"
    );
    assert_eq!(
        rebuilt.server.state_fingerprint(),
        live.server.state_fingerprint(),
        "shard{s} recovery rebuilt a different domain server"
    );
    debug_assert_eq!(shard_fingerprint(rebuilt), shard_fingerprint(live));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{build_space, FaultCampaignConfig};

    fn tiny_shard() -> Shard {
        let cfg = FaultCampaignConfig {
            devices: 3,
            ..FaultCampaignConfig::default()
        };
        Shard::new(build_space(3), cfg)
    }

    fn start_call(i: usize) -> WalRecord {
        let (name, graph) = crate::faults::app_template(i % 5);
        WalRecord::Call(ServerCall::Start {
            name: format!("{name}-{i}"),
            graph,
            qos: QosVector::new(),
            client_local: i % 3,
        })
    }

    #[test]
    fn snapshot_restore_preserves_the_fingerprint() {
        let mut shard = tiny_shard();
        shard.server.play(10.0);
        shard.last_h = 10.0 / 3600.0;
        let snap = ShardSnapshot::capture(&shard);
        let rebuilt = snap.restore();
        assert_recovered_equal(&shard, &rebuilt, 0);
        assert_eq!(shard_fingerprint(&shard), shard_fingerprint(&rebuilt));
    }

    #[test]
    fn disabled_wal_is_inert() {
        let shard = tiny_shard();
        let mut wal = ShardWal::new(
            &DurabilityConfig {
                enabled: false,
                checkpoint_every: 4,
            },
            &shard,
        );
        wal.push(|| unreachable!("a disabled WAL never builds a record"));
        assert!(wal.tail.is_empty() && wal.appended == 0 && !wal.due_checkpoint());
    }

    const GRACE_MS: f64 = 180_000.0;

    /// Journals a non-call record and applies it live.
    fn bookkeep(shard: &mut Shard, wal: &mut ShardWal, rec: WalRecord) {
        apply_record(shard, &rec, GRACE_MS);
        wal.push(|| rec);
    }

    /// Untracks a live recovery pass's dropped sessions, as the
    /// shard core's absorb does, returning the ids its call record carries.
    fn untrack_dropped(shard: &mut Shard, rec: &RecoveryReport) -> Vec<u64> {
        rec.dropped
            .iter()
            .map(|id| {
                untrack_raw(shard, id.raw());
                id.raw()
            })
            .collect()
    }

    #[test]
    fn replay_reconstructs_live_mutations() {
        let mut shard = tiny_shard();
        let mut wal = ShardWal::new(&DurabilityConfig::default(), &shard);

        // Live side: every `ServerCall` kind, made through the same
        // `exec_*` code the shard core's journaled helpers use and journaled
        // exactly as they journal it.
        bookkeep(&mut shard, &mut wal, WalRecord::Advance { at_h: 0.25 });
        let (name, graph) = crate::faults::app_template(0);
        let name = format!("{name}-0");
        wal.push(|| {
            WalRecord::Call(ServerCall::Start {
                name: name.clone(),
                graph: graph.clone(),
                qos: QosVector::new(),
                client_local: 0,
            })
        });
        let s0 = exec_start(&mut shard.server, name, graph, QosVector::new(), 0).expect("admits");
        bookkeep(
            &mut shard,
            &mut wal,
            WalRecord::Track {
                req: 0,
                sid: s0.raw(),
            },
        );

        let (name, graph) = crate::faults::app_template(1);
        let err = ConfigureError::StaleView { device: 1 };
        wal.push(|| {
            WalRecord::Call(ServerCall::Park {
                name: name.to_owned(),
                graph: graph.clone(),
                qos: QosVector::new(),
                client_local: 1,
                err: err.clone(),
            })
        });
        let s1 = exec_park(
            &mut shard.server,
            name.to_owned(),
            graph,
            QosVector::new(),
            1,
            err,
        );
        bookkeep(
            &mut shard,
            &mut wal,
            WalRecord::Track {
                req: 1,
                sid: s1.raw(),
            },
        );

        for (to_local, is_move) in [(1, false), (2, true)] {
            let sid = s0.raw();
            wal.push(|| {
                WalRecord::Call(if is_move {
                    ServerCall::Move { sid, to_local }
                } else {
                    ServerCall::Switch { sid, to_local }
                })
            });
            let _ = exec_relocate(&mut shard.server, sid, to_local, is_move);
        }

        // A heartbeat grants dev2 a lease; letting it lapse makes the
        // sweep suspect dev2, and its next heartbeat reinstates it.
        assert!(exec_heartbeat(&mut shard.server, 2, GRACE_MS).is_none());
        wal.push(|| {
            WalRecord::Call(ServerCall::Heartbeat {
                device: 2,
                removed: Vec::new(),
            })
        });
        bookkeep(&mut shard, &mut wal, WalRecord::Advance { at_h: 0.5 });
        let passes = shard.server.expire_overdue_leases();
        assert_eq!(passes.len(), 1, "dev2's lapsed lease is swept");
        let removed = passes
            .iter()
            .map(|(_, rec)| untrack_dropped(&mut shard, rec))
            .collect();
        wal.push(|| WalRecord::Call(ServerCall::ExpireLeases { removed }));
        let rec = exec_heartbeat(&mut shard.server, 2, GRACE_MS).expect("reinstates dev2");
        let removed = untrack_dropped(&mut shard, &rec);
        wal.push(|| WalRecord::Call(ServerCall::Heartbeat { device: 2, removed }));
        let rec = shard.server.process_retries();
        let removed = untrack_dropped(&mut shard, &rec);
        wal.push(|| WalRecord::Call(ServerCall::Retries { removed }));

        for (req, sid) in [(0, s0.raw()), (1, s1.raw())] {
            wal.push(|| WalRecord::Call(ServerCall::Stop { sid }));
            assert!(
                exec_stop(&mut shard.server, sid).is_some(),
                "held session stops"
            );
            bookkeep(&mut shard, &mut wal, WalRecord::Untrack { req, sid });
        }
        bookkeep(
            &mut shard,
            &mut wal,
            WalRecord::Mark {
                report: Box::new(FaultReport {
                    events: 2,
                    arrivals: 2,
                    admitted: 2,
                    completed: 2,
                    ..FaultReport::default()
                }),
                iterations: 2,
                last_sweep_h: Some(0.5),
            },
        );

        let appended = wal.appended;
        let rebuilt = wal.recover(GRACE_MS);
        assert_recovered_equal(&shard, &rebuilt, 0);
        assert_eq!(wal.replayed, appended);
        assert_eq!(wal.restores, 1);
    }

    #[test]
    fn prefix_replay_is_idempotent_and_composable() {
        let shard = tiny_shard();
        let mut wal = ShardWal::new(&DurabilityConfig::default(), &shard);
        for i in 0..6 {
            wal.push(|| WalRecord::Advance {
                at_h: 0.1 * (i + 1) as f64,
            });
            wal.push(|| start_call(i));
            wal.push(|| WalRecord::Track {
                req: i,
                sid: i as u64,
            });
        }
        for n in 0..=wal.tail.len() {
            // A recovery that crashed after `n` records and restarted
            // lands on the same state as one that never crashed.
            let once = wal.replay_prefix(180_000.0, n);
            let twice = wal.replay_prefix(180_000.0, n);
            assert_eq!(shard_fingerprint(&once), shard_fingerprint(&twice));
            // Checkpointing at `n` and replaying the rest composes to
            // the full replay.
            let mut resumed = ShardSnapshot::capture(&once).restore();
            for rec in &wal.tail[n..] {
                apply_record(&mut resumed, rec, 180_000.0);
            }
            let full = wal.replay_prefix(180_000.0, wal.tail.len());
            assert_eq!(shard_fingerprint(&resumed), shard_fingerprint(&full));
        }
    }
}
