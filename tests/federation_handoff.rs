//! Directed regressions for the two-phase cross-shard handoff under
//! failure-detector suspicion (`ubiqos_runtime::federation`).
//!
//! Each test stages exactly one session and one cross-shard `MoveUser`,
//! then drops a shard-partition window at a chosen phase of the
//! handoff:
//!
//! * destination suspected at **initiation** → the move never starts; the
//!   session is stopped (exact refund) and parked into the source's
//!   retry queue, witnessed by a stale view of the destination device;
//! * destination suspected at **decide** (mid-handoff) → abort; the
//!   deferred abort can't reach the destination, so the reservation
//!   lease expires and cleans up with a witnessed stale view;
//! * source partitioned at **decide** → abort on the source; again the
//!   lease expiry releases the orphaned reservation exactly;
//! * commit deferred past the lease (**late commit**) → the destination
//!   re-admits the handed-over session rather than double-charging the
//!   expired reservation;
//! * a device crash on the destination **inside the reservation
//!   window** → the recovery pass sweeps up the reservation, which the
//!   destination does not own yet: a dropped one commits late, a parked
//!   one commits as parked, and a shard crash after the device crash
//!   replays the same decision.
//!
//! The invariant under test everywhere: the session lands parked,
//! committed, or kept — **never duplicated and never leaked** — and
//! every reservation is refunded exactly once.
//!
//! The setup is self-locating rather than magic-numbered: the workload
//! trace is regenerated from the seed to pick move timing inside the
//! session's lifetime, and a fault-free probe run finds which shard the
//! seeded client lands on.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ubiqos_runtime::{
    run_federation_campaign_with, FaultCampaignConfig, FederationConfig, FederationOutcome,
    ShardPartition,
};
use ubiqos_sim::{FaultKind, MobilityWaveConfig, Request, TimedFault, WorkloadConfig};

/// Two shards of two devices each; one request; no base faults, no
/// mobility overlay (the move is injected explicitly), full registries
/// on both shards so placement never interferes with the protocol
/// under test.
fn directed_cfg(seed: u64) -> FederationConfig {
    FederationConfig {
        base: FaultCampaignConfig {
            seed,
            devices: 4,
            requests: 1,
            horizon_h: 12.0,
            faults: 0,
            retain_transcript: true,
            ..FaultCampaignConfig::default()
        },
        shards: 2,
        mobility: MobilityWaveConfig {
            moves: 0,
            ..MobilityWaveConfig::default()
        },
        specialize_registry: false,
        ..FederationConfig::default()
    }
}

/// Finds a seed whose single request lives long enough for a full
/// handoff timeline (reserve at `t`, decide at `t+0.02h`, lease expiry
/// at `t+0.1h`, deferred messages at `t+0.3h`) and returns it with its
/// request. Deterministic: the search always lands on the same seed.
fn seeded_single_session() -> (u64, Request) {
    for seed in 1..10_000u64 {
        let trace = WorkloadConfig::overload(1, 12.0).generate(&mut StdRng::seed_from_u64(seed));
        let r = trace[0];
        if r.duration_h > 0.7 && r.arrival_h > 1.0 && r.arrival_h < 6.0 {
            return (seed, r);
        }
    }
    panic!("no workable seed below 10000");
}

/// Probe run (no faults): which shard admitted the single session.
fn source_shard(cfg: &FederationConfig) -> usize {
    let out = run_federation_campaign_with(cfg, &[]).expect("probe run");
    out.shards
        .iter()
        .position(|s| s.report.admitted == 1)
        .expect("the single request is admitted on a fresh space")
}

/// The staged scenario every test shares: a seeded session on `src`,
/// one `MoveUser` at `move_t` targeting the first device of the other
/// shard.
struct Stage {
    cfg: FederationConfig,
    schedule: Vec<TimedFault>,
    src: usize,
    dst: usize,
    move_t: f64,
}

fn stage() -> Stage {
    let (seed, req) = seeded_single_session();
    let cfg = directed_cfg(seed);
    let src = source_shard(&cfg);
    let dst = 1 - src;
    let move_t = req.arrival_h + 0.05;
    assert!(
        move_t + 0.35 < req.departure_h(),
        "the session must outlive the whole handoff timeline"
    );
    let schedule = vec![TimedFault {
        at_h: move_t,
        kind: FaultKind::MoveUser {
            pick: 0,
            to: dst * 2, // first device of the destination shard
        },
    }];
    Stage {
        cfg,
        schedule,
        src,
        dst,
        move_t,
    }
}

/// The never-duplicated-never-leaked ledger: exactly one session is
/// accounted for across all shards, and custody transfers balance.
fn assert_exactly_one_session(out: &FederationOutcome) {
    assert!(out.fates_balance(), "fate ledgers: {:?}", out.stats);
    let admitted: u32 = out.shards.iter().map(|s| s.report.admitted).sum();
    assert_eq!(admitted, 1, "the single request admits exactly once");
    let accounted: u32 = out
        .shards
        .iter()
        .map(|s| {
            s.report.completed + s.report.dropped + s.report.live_at_end + s.report.parked_at_end
        })
        .sum();
    assert_eq!(
        accounted, 1,
        "exactly one session fate across every shard (no duplicate, no leak)"
    );
    let handed_out: u32 = out.stats.handed_out.iter().sum();
    let handed_in: u32 = out.stats.handed_in.iter().sum();
    assert_eq!(handed_in, handed_out, "custody transfers balance");
}

#[test]
fn destination_suspected_at_initiation_parks_the_session() {
    let mut s = stage();
    // The destination is partitioned across the move instant; with the
    // default 0.05h shard grace it is *suspected* when the move fires.
    s.cfg.shard_partitions = vec![ShardPartition {
        shard: s.dst,
        from_h: s.move_t - 0.2,
        to_h: s.move_t + 0.1,
    }];
    let out = run_federation_campaign_with(&s.cfg, &s.schedule).expect("campaign");
    assert_eq!(out.stats.handoffs_parked_dest_suspected, 1);
    assert_eq!(
        out.stats.handoffs_initiated, 0,
        "a suspected destination is never even reserved against"
    );
    assert_eq!(out.stats.messages, 0, "and nothing crosses the wire");
    assert_eq!(out.shards[s.src].report.parked, 1, "parked on the source");
    assert_eq!(out.shards[s.src].report.move_failures, 1);
    assert_eq!(out.shards[s.dst].report.parked, 0);
    assert_exactly_one_session(&out);
}

#[test]
fn destination_suspected_mid_handoff_aborts_and_lease_cleans_up() {
    let mut s = stage();
    // Reserve/ack complete at move_t; the partition opens just after,
    // and a short 0.01h grace means the destination is suspected by
    // decide time (move_t + 0.02h). The abort can't be delivered into
    // the partition, so the reservation lease (move_t + 0.1h) expires
    // and refunds the held resources with a witnessed stale view.
    s.cfg.shard_grace_h = 0.01;
    s.cfg.shard_partitions = vec![ShardPartition {
        shard: s.dst,
        from_h: s.move_t + 0.001,
        to_h: s.move_t + 0.3,
    }];
    let out = run_federation_campaign_with(&s.cfg, &s.schedule).expect("campaign");
    assert_eq!(out.stats.handoffs_initiated, 1);
    assert_eq!(out.stats.handoffs_aborted, 1);
    assert_eq!(out.stats.handoffs_committed, 0);
    assert_eq!(
        out.stats.reservation_expiries, 1,
        "the orphaned reservation is released by its lease, not the abort"
    );
    assert_eq!(out.shards[s.src].report.move_failures, 1);
    assert_exactly_one_session(&out);
    // The session stayed with the source and ran to completion there.
    assert_eq!(out.shards[s.src].report.completed, 1);
}

#[test]
fn source_partitioned_at_decide_aborts_and_lease_cleans_up() {
    let mut s = stage();
    // The *source* drops off the network right after sending the
    // reserve; at decide it knows itself partitioned and aborts rather
    // than committing a release it cannot announce. Its abort message
    // defers past the lease, so expiry again does the exact refund.
    s.cfg.shard_partitions = vec![ShardPartition {
        shard: s.src,
        from_h: s.move_t + 0.001,
        to_h: s.move_t + 0.3,
    }];
    let out = run_federation_campaign_with(&s.cfg, &s.schedule).expect("campaign");
    assert_eq!(out.stats.handoffs_initiated, 1);
    assert_eq!(out.stats.handoffs_aborted, 1);
    assert_eq!(out.stats.handoffs_committed, 0);
    assert_eq!(out.stats.reservation_expiries, 1);
    assert_eq!(out.shards[s.src].report.move_failures, 1);
    assert_exactly_one_session(&out);
    assert_eq!(
        out.shards[s.src].report.completed, 1,
        "the source keeps the session through its own partition"
    );
}

#[test]
fn late_commit_readmits_instead_of_double_charging() {
    let mut s = stage();
    // Decide commits just before the destination partitions (suspicion
    // is disabled by a huge grace), so the commit message itself defers
    // past the reservation lease. The expired reservation must not be
    // resurrected: the commit re-admits the session fresh.
    s.cfg.shard_grace_h = 5.0;
    s.cfg.shard_partitions = vec![ShardPartition {
        shard: s.dst,
        from_h: s.move_t + 0.019,
        to_h: s.move_t + 0.3,
    }];
    let out = run_federation_campaign_with(&s.cfg, &s.schedule).expect("campaign");
    assert_eq!(out.stats.handoffs_committed, 1);
    assert_eq!(out.stats.handoffs_aborted, 0);
    assert_eq!(out.stats.reservation_expiries, 1, "the lease fired first");
    assert_eq!(out.stats.late_commits, 1);
    assert_eq!(out.stats.handed_out[s.src], 1);
    assert_eq!(out.stats.handed_in[s.dst], 1);
    assert_exactly_one_session(&out);
    // Custody genuinely transferred: the destination finished it.
    assert_eq!(out.shards[s.dst].report.completed, 1);
    assert_eq!(out.shards[s.src].report.completed, 0);
}

#[test]
fn clean_commit_transfers_custody_exactly_once() {
    let s = stage();
    let out = run_federation_campaign_with(&s.cfg, &s.schedule).expect("campaign");
    assert_eq!(out.stats.handoffs_initiated, 1);
    assert_eq!(out.stats.handoffs_committed, 1);
    assert_eq!(out.stats.handoffs_aborted, 0);
    assert_eq!(out.stats.reservation_expiries, 0);
    assert_eq!(out.stats.late_commits, 0);
    assert_eq!(out.stats.handed_out[s.src], 1);
    assert_eq!(out.stats.handed_in[s.dst], 1);
    assert_eq!(out.shards[s.src].report.moves, 1);
    assert_eq!(out.shards[s.src].report.move_failures, 0);
    assert_exactly_one_session(&out);
    assert_eq!(out.shards[s.dst].report.completed, 1);
    // Determinism of the directed scenario itself.
    let again = run_federation_campaign_with(&s.cfg, &s.schedule).expect("replay");
    assert_eq!(out.shard_digests(), again.shard_digests());
}

/// `stage()` plus a crash of the destination's first device — the
/// reservation's pinned client — inside the reservation window: after
/// the reserve at `move_t`, before the decide at `move_t + 0.02h`. The
/// destination's recovery pass sweeps up a session it does not own yet.
fn stage_with_reserved_device_crash(staged_recovery: bool) -> Stage {
    let mut s = stage();
    s.cfg.base.staged_recovery = staged_recovery;
    s.schedule.push(TimedFault {
        at_h: s.move_t + 0.01,
        kind: FaultKind::Crash { device: s.dst * 2 },
    });
    s
}

/// Shard `dst`'s transcript line for the handoff's commit.
fn commit_line(out: &FederationOutcome, dst: usize) -> String {
    out.shards[dst]
        .log
        .lines()
        .iter()
        .find(|l| l.contains("commit ->"))
        .expect("the destination logs the commit")
        .clone()
}

#[test]
fn reservation_dropped_by_a_destination_crash_takes_the_late_commit_path() {
    // Strict recovery cannot re-place the reservation off its crashed
    // client device, so the pass drops it. The drop is reservation
    // custody, not a tracked session: the handoff is re-tagged dead and
    // the commit re-admits from the snapshot instead.
    let s = stage_with_reserved_device_crash(false);
    let out = run_federation_campaign_with(&s.cfg, &s.schedule).expect("campaign");
    assert_eq!(out.stats.handoffs_committed, 1);
    assert_eq!(
        out.stats.late_commits, 1,
        "the dead reservation commits late"
    );
    assert_eq!(out.stats.reservation_expiries, 0);
    assert_eq!(
        out.shards[s.dst].report.dropped, 0,
        "the dropped reservation is not the destination's session yet"
    );
    let line = commit_line(&out, s.dst);
    assert!(
        line.contains("commit -> reservation dropped by recovery, "),
        "{line}"
    );
    assert!(
        !line.contains("lease expired"),
        "no lease expired, a recovery pass dropped the reservation: {line}"
    );
    assert_exactly_one_session(&out);
}

#[test]
fn reservation_parked_by_a_destination_crash_commits_as_parked() {
    // Staged recovery parks the reservation instead. The destination
    // does not count that park — it does not own the session until the
    // commit — and the commit promotes it tagged as parked.
    let s = stage_with_reserved_device_crash(true);
    let out = run_federation_campaign_with(&s.cfg, &s.schedule).expect("campaign");
    assert_eq!(out.stats.handoffs_committed, 1);
    assert_eq!(out.stats.late_commits, 0);
    assert_eq!(
        out.shards[s.dst].report.parked, 0,
        "the parked reservation is not counted by the destination"
    );
    let line = commit_line(&out, s.dst);
    assert!(line.ends_with(" (parked)"), "{line}");
    assert_exactly_one_session(&out);
}

#[test]
fn shard_crash_after_the_device_crash_replays_the_same_custody_decision() {
    // The destination shard crashes and restarts between the device
    // crash and the decide, so recovery replays the journaled device
    // fault against a snapshot that holds the reservation untracked.
    // The replayed absorb must reach the live custody decision: the
    // rebuild equals the live shard and the transcripts do not move.
    for staged_recovery in [false, true] {
        let s = stage_with_reserved_device_crash(staged_recovery);
        let baseline = run_federation_campaign_with(&s.cfg, &s.schedule).expect("crash-free");
        let mut schedule = s.schedule.clone();
        schedule.push(TimedFault {
            at_h: s.move_t + 0.012,
            kind: FaultKind::ShardCrash { shard: s.dst },
        });
        schedule.push(TimedFault {
            at_h: s.move_t + 0.015,
            kind: FaultKind::ShardRestart { shard: s.dst },
        });
        let crashed = run_federation_campaign_with(&s.cfg, &schedule).expect("crashed");
        assert_eq!(crashed.stats.shard_crashes, 1);
        assert!(
            crashed.stats.wal_replayed > 0,
            "recovery replayed the journal"
        );
        assert_eq!(
            crashed.shard_digests(),
            baseline.shard_digests(),
            "staged_recovery = {staged_recovery}"
        );
        assert_exactly_one_session(&crashed);
    }
}

/// An overloaded 4-shard space under heavy mobility and 24 alternating
/// shard partitions: denials fill every shard's speculation memo while
/// handoffs reserve, commit, abort, expire and park around them.
fn churning_handoffs_cfg(seed: u64) -> FederationConfig {
    FederationConfig {
        base: FaultCampaignConfig {
            seed,
            devices: 8,
            requests: 600,
            horizon_h: 3.0,
            faults: 10,
            ..FaultCampaignConfig::default()
        },
        shards: 4,
        mobility: MobilityWaveConfig {
            moves: 120,
            waves: 6,
            horizon_h: 3.0,
            devices: 8,
            ..MobilityWaveConfig::default()
        },
        commit_lag_h: 0.08,
        reserve_grace_h: 0.1,
        shard_partitions: (0..24)
            .map(|k| ShardPartition {
                shard: k % 2,
                from_h: 0.1 + k as f64 * 0.12,
                to_h: 0.1 + k as f64 * 0.12 + 0.05,
            })
            .collect(),
        shard_grace_h: 0.01,
        specialize_registry: false,
        ..FederationConfig::default()
    }
}

#[test]
fn every_handoff_step_that_moves_capacity_refreshes_the_memo() {
    // Per-shard digests captured before arrivals were memoised, when
    // every arrival configured from scratch. A reserve, a released
    // source, an aborted or expired reservation, or a stop on a
    // suspected destination that left a memoised outcome in place
    // would replay a stale admission decision and move these.
    let pinned: [(u64, [u64; 4]); 3] = [
        (
            2,
            [
                0x5db1_20dc_85f2_2c57,
                0xdd09_d7a7_edae_5663,
                0x8cc1_6797_cd89_2bdd,
                0x5e0a_171d_a97f_e0e9,
            ],
        ),
        (
            3,
            [
                0xdb46_7e33_656f_3411,
                0x8e23_74d3_d65a_c438,
                0xabbe_b084_7a0c_1890,
                0x3e44_5a09_3df1_a4e1,
            ],
        ),
        (
            5,
            [
                0x91ac_5272_424f_2015,
                0x138f_406e_3adc_d01e,
                0xa481_2e1d_7ed2_4587,
                0xdcfc_303e_07b8_9e4a,
            ],
        ),
    ];
    for (seed, digests) in pinned {
        let cfg = churning_handoffs_cfg(seed);
        let out = run_federation_campaign_with(&cfg, &cfg.schedule()).expect("run");
        assert_eq!(out.shard_digests(), digests, "seed {seed}");
        assert!(out.stats.handoffs_aborted > 0 && out.stats.reservation_expiries > 0);
    }
}
