//! Reliable delivery over a lossy federation transport
//! (`ubiqos_runtime::transport` + the reliability sublayer in
//! `ubiqos_runtime::federation`).
//!
//! The contract under test has two halves:
//!
//! * **Perfect path is free** — wrapping the channel transport in a
//!   zero-loss [`LossyTransport`] must be *byte-identical* to the bare
//!   transport: same per-shard event logs, same reports, same stats.
//!   The reliability sublayer (sequence numbers, acks, retransmission
//!   timers) may never perturb a run that loses nothing.
//! * **Every lossy schedule converges** — under seeded drops,
//!   duplicates, reorders, and partition-aligned burst loss, the
//!   campaign must still drain to the *same logical outcome* as the
//!   perfect run: identical per-shard event-log digests, identical
//!   protocol stats (once the transport-recovery counters are masked
//!   out). Loss costs retransmissions and latency, never behaviour.
//!
//! Directed regressions then aim single faults at the nastiest spots
//! of the handoff protocol instead of fishing for a seed: a duplicated
//! commit landing after the reservation lease expired, a reserve
//! physically overtaken by its own abort, and a lost ack forcing a
//! retransmission of an already-delivered payload.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ubiqos_runtime::{
    run_federation_campaign_lossy, run_federation_campaign_with, DirectedFault, Fate,
    FaultCampaignConfig, FederationConfig, FederationOutcome, FederationStats, LossConfig, MsgKind,
    RetryPolicy, ShardPartition,
};
use ubiqos_sim::{FaultKind, MobilityWaveConfig, Request, TimedFault, WorkloadConfig};

/// The pinned campaign from `federation_equivalence.rs`, with a
/// shard-partition window so the deferred-delivery path and the
/// burst-loss alignment are both exercised.
fn sweep_cfg(shards: usize) -> FederationConfig {
    FederationConfig {
        base: FaultCampaignConfig {
            devices: 16,
            requests: 64,
            horizon_h: 12.0,
            faults: 16,
            ..FaultCampaignConfig::default()
        },
        shards,
        mobility: MobilityWaveConfig {
            moves: 16,
            waves: 2,
            horizon_h: 12.0,
            devices: 16,
            ..MobilityWaveConfig::default()
        },
        shard_partitions: vec![ShardPartition {
            shard: 1,
            from_h: 4.0,
            to_h: 4.5,
        }],
        ..FederationConfig::default()
    }
}

/// Masks the transport-recovery counters, which legitimately differ
/// between a perfect and a lossy run of the same campaign. Everything
/// else in [`FederationStats`] — messages, handoffs, forwards,
/// expiries, custody ledgers — must be identical.
fn mask_transport(stats: &FederationStats) -> FederationStats {
    let mut s = stats.clone();
    s.retransmissions = 0;
    s.duplicate_drops = 0;
    s.acks_sent = 0;
    s.reorder_buffered = 0;
    s.reorder_depth_max = 0;
    s.convergence_delay_us_max = 0;
    s.convergence_delay_us_total = 0;
    s
}

/// Asserts the lossy outcome is logically identical to the perfect
/// one: same per-shard event logs (byte-for-byte), same masked stats.
fn assert_converged(perfect: &FederationOutcome, lossy: &FederationOutcome, tag: &str) {
    for (s, (p, l)) in perfect.shards.iter().zip(lossy.shards.iter()).enumerate() {
        assert_eq!(
            p.report.log_digest, l.report.log_digest,
            "[{tag}] shard{s} event-log digest diverged"
        );
        assert_eq!(p.log, l.log, "[{tag}] shard{s} event log diverged");
    }
    assert_eq!(
        perfect.combined_digest, lossy.combined_digest,
        "[{tag}] combined digest"
    );
    assert_eq!(
        mask_transport(&perfect.stats),
        mask_transport(&lossy.stats),
        "[{tag}] protocol stats diverged"
    );
}

#[test]
fn zero_loss_lossy_transport_is_byte_identical_to_the_bare_channel() {
    for shards in [2, 4, 8] {
        let cfg = sweep_cfg(shards);
        let schedule = cfg.schedule();
        let bare = run_federation_campaign_with(&cfg, &schedule).expect("bare run");
        let (wrapped, loss_stats) =
            run_federation_campaign_lossy(&cfg, &schedule, LossConfig::perfect())
                .expect("wrapped run");
        for (s, (b, w)) in bare.shards.iter().zip(wrapped.shards.iter()).enumerate() {
            assert_eq!(b.log, w.log, "shard{s} log bytes");
            assert_eq!(b.report, w.report, "shard{s} report");
        }
        assert_eq!(bare.stats, wrapped.stats, "stats at {shards} shards");
        assert_eq!(loss_stats.drops + loss_stats.dups + loss_stats.delays, 0);
        assert_eq!(
            wrapped.stats.retransmissions, 0,
            "nothing retransmits on a perfect wire"
        );
    }
}

#[test]
fn every_lossy_schedule_converges_to_the_perfect_digests() {
    for shards in [2usize, 4, 8] {
        let cfg = sweep_cfg(shards);
        let schedule = cfg.schedule();
        let perfect = run_federation_campaign_with(&cfg, &schedule).expect("perfect run");
        for loss in [0.0, 0.01, 0.1, 0.3] {
            for (dup, reorder) in [(0.0, 0.0), (0.05, 0.1)] {
                let mut lc = LossConfig::lossy(0xdead_beef ^ shards as u64, loss);
                lc.dup = dup;
                lc.reorder = reorder;
                lc.max_delay_h = if reorder > 0.0 { 0.01 } else { 0.0 };
                let lc = lc.align_bursts(&cfg.shard_partitions);
                let tag = format!("shards={shards} loss={loss} dup={dup} reorder={reorder}");
                let (lossy, stats) = run_federation_campaign_lossy(&cfg, &schedule, lc)
                    .unwrap_or_else(|e| panic!("[{tag}] invariant violation: {e:?}"));
                assert_converged(&perfect, &lossy, &tag);
                if loss >= 0.1 {
                    assert!(
                        stats.drops > 0 && lossy.stats.retransmissions > 0,
                        "[{tag}] heavy loss must actually exercise recovery: {stats:?}"
                    );
                }
                if dup > 0.0 && loss >= 0.1 {
                    assert!(
                        lossy.stats.duplicate_drops > 0,
                        "[{tag}] duplicates (injected or retransmitted) must be absorbed"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Directed regressions: one staged session, one cross-shard move, one
// aimed transport fault (mirrors the staging in federation_handoff.rs).
// ---------------------------------------------------------------------------

fn directed_cfg(seed: u64) -> FederationConfig {
    FederationConfig {
        base: FaultCampaignConfig {
            seed,
            devices: 4,
            requests: 1,
            horizon_h: 12.0,
            faults: 0,
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

struct Stage {
    cfg: FederationConfig,
    schedule: Vec<TimedFault>,
    dst: usize,
    move_t: f64,
}

fn stage() -> Stage {
    let (seed, req) = seeded_single_session();
    let cfg = directed_cfg(seed);
    let probe = run_federation_campaign_with(&cfg, &[]).expect("probe run");
    let src = probe
        .shards
        .iter()
        .position(|s| s.report.admitted == 1)
        .expect("the single request is admitted on a fresh space");
    let dst = 1 - src;
    let move_t = req.arrival_h + 0.05;
    assert!(move_t + 0.35 < req.departure_h());
    let schedule = vec![TimedFault {
        at_h: move_t,
        kind: FaultKind::MoveUser {
            pick: 0,
            to: dst * 2,
        },
    }];
    Stage {
        cfg,
        schedule,
        dst,
        move_t,
    }
}

/// A directed-faults-only schedule: no seeded loss, just the aimed hits.
fn aimed(directed: Vec<DirectedFault>) -> LossConfig {
    LossConfig {
        directed,
        ..LossConfig::perfect()
    }
}

#[test]
fn duplicated_late_commit_is_absorbed_not_double_charged() {
    // The late-commit scenario from federation_handoff.rs: the commit
    // defers past the reservation lease, so the destination re-admits.
    // Duplicating the commit's only transmission must change nothing —
    // the reliability sublayer drops the twin before it can reach the
    // handler and re-charge the expired reservation.
    let mut s = stage();
    s.cfg.shard_grace_h = 5.0;
    s.cfg.shard_partitions = vec![ShardPartition {
        shard: s.dst,
        from_h: s.move_t + 0.019,
        to_h: s.move_t + 0.3,
    }];
    let perfect = run_federation_campaign_with(&s.cfg, &s.schedule).expect("perfect");
    let (lossy, _) = run_federation_campaign_lossy(
        &s.cfg,
        &s.schedule,
        aimed(vec![DirectedFault {
            kind: MsgKind::Commit,
            nth: 0,
            fate: Fate::Duplicate,
        }]),
    )
    .expect("lossy");
    assert_eq!(lossy.stats.late_commits, 1, "the lease still fired first");
    assert_eq!(lossy.stats.handoffs_committed, 1);
    assert!(
        lossy.stats.duplicate_drops >= 1,
        "the twin commit is absorbed by the sublayer: {:?}",
        lossy.stats
    );
    assert_converged(&perfect, &lossy, "dup-late-commit");
}

#[test]
fn reserve_overtaken_by_its_own_abort_is_released_in_order() {
    // The destination partitions across the move (huge grace keeps it
    // unsuspected), so the reserve *and* the abort that follows it at
    // decide time both defer to the heal. Delaying the reserve's
    // physical copy past the abort's transmission makes the abort
    // arrive first on the wire — the in-order release buffer must hold
    // it until the reserve lands, so handlers still see reserve-then-
    // abort and the reservation is provably released, never leaked.
    // The retransmission timer is stretched past the injected delay,
    // otherwise the retransmitted reserve would fill the gap before
    // the abort was even sent and no reorder would occur.
    let mut s = stage();
    s.cfg.retx_policy = RetryPolicy {
        base_backoff_ms: 600_000.0,
        max_backoff_ms: 600_000.0,
        max_attempts: 0,
    };
    s.cfg.shard_grace_h = 5.0;
    s.cfg.shard_partitions = vec![ShardPartition {
        shard: s.dst,
        from_h: s.move_t - 0.001,
        to_h: s.move_t + 0.3,
    }];
    let perfect = run_federation_campaign_with(&s.cfg, &s.schedule).expect("perfect");
    let (lossy, _) = run_federation_campaign_lossy(
        &s.cfg,
        &s.schedule,
        aimed(vec![DirectedFault {
            kind: MsgKind::Reserve,
            nth: 0,
            fate: Fate::DelayH(0.05),
        }]),
    )
    .expect("lossy");
    assert!(
        lossy.stats.reorder_buffered >= 1,
        "the abort physically overtook the reserve: {:?}",
        lossy.stats
    );
    assert!(lossy.stats.reorder_depth_max >= 1);
    assert_converged(&perfect, &lossy, "reorder-reserve-abort");
}

#[test]
fn lost_ack_forces_a_retransmission_of_a_delivered_payload() {
    // Clean commit, but the standalone ack for the commit (the third
    // ack on the wire: reserve's, reserve-ok's piggyback aside, then
    // commit's) is dropped. The sender cannot tell a lost payload from
    // a lost ack, so it retransmits; the receiver already released the
    // commit, absorbs the duplicate, and re-acks. Exactly-once
    // delivery to the handlers, at the cost of one extra copy.
    let s = stage();
    let perfect = run_federation_campaign_with(&s.cfg, &s.schedule).expect("perfect");
    let (lossy, _) = run_federation_campaign_lossy(
        &s.cfg,
        &s.schedule,
        aimed(vec![DirectedFault {
            kind: MsgKind::Ack,
            nth: 2,
            fate: Fate::Drop,
        }]),
    )
    .expect("lossy");
    assert_eq!(lossy.stats.handoffs_committed, 1);
    assert!(
        lossy.stats.retransmissions >= 1,
        "the unacked commit must be retransmitted: {:?}",
        lossy.stats
    );
    assert!(
        lossy.stats.duplicate_drops >= 1,
        "the receiver absorbs the retransmitted copy: {:?}",
        lossy.stats
    );
    assert_converged(&perfect, &lossy, "lost-ack");
}
