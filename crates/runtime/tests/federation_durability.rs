//! Durability equivalence suite: the per-shard WAL + snapshot layer
//! must be invisible when no crash happens (crash-free runs are
//! byte-identical with durability on or off, at every shard count,
//! under perfect and imperfect detection), and every seeded
//! `ShardCrash`/`ShardRestart` schedule — including crashes dropped
//! mid-handoff and crashes composed with lossy transport and
//! partition-aligned burst loss — must rebuild its shards from
//! snapshot + WAL replay and drain to the crash-free run's exact
//! per-shard event-log digests.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ubiqos_runtime::{
    run_federation_campaign, run_federation_campaign_lossy, run_federation_campaign_with,
    DurabilityConfig, FaultCampaignConfig, FederationConfig, LossConfig, ShardPartition,
};
use ubiqos_sim::{
    merge_schedules, FaultKind, MobilityWaveConfig, ShardCrashPlan, TimedFault, WorkloadConfig,
};

/// A 16-device campaign that exercises every federation mechanism:
/// device faults, mobility-driven cross-shard handoffs, forwarded
/// discovery, parks and retries.
fn cfg(shards: usize) -> FederationConfig {
    FederationConfig {
        base: FaultCampaignConfig {
            devices: 16,
            requests: 96,
            horizon_h: 10.0,
            faults: 12,
            ..FaultCampaignConfig::default()
        },
        shards,
        mobility: MobilityWaveConfig {
            moves: 16,
            waves: 3,
            horizon_h: 10.0,
            devices: 16,
            ..MobilityWaveConfig::default()
        },
        ..FederationConfig::default()
    }
}

fn imperfect(shards: usize) -> FederationConfig {
    let mut c = cfg(shards);
    c.base.detection_grace_h = 0.05;
    c.base.partitions = 1;
    c
}

fn crash_plan(crashes: usize, shards: usize) -> ShardCrashPlan {
    ShardCrashPlan {
        crashes,
        shards,
        horizon_h: 10.0,
        outage_h: 0.3,
        ..ShardCrashPlan::default()
    }
}

/// An overloaded federation that refuses nearly every arrival, most of
/// them from the shard core's speculation memo. Each refusal is
/// journaled with its graph, because replay re-runs the start.
fn overloaded(shards: usize) -> FederationConfig {
    FederationConfig {
        base: FaultCampaignConfig {
            devices: 8,
            requests: 1_500,
            horizon_h: 1.0,
            faults: 4,
            ..FaultCampaignConfig::default()
        },
        shards,
        mobility: MobilityWaveConfig {
            moves: 4,
            waves: 2,
            horizon_h: 1.0,
            devices: 8,
            ..MobilityWaveConfig::default()
        },
        ..FederationConfig::default()
    }
}

/// Acceptance gate: durability-on, crash-free runs are byte-identical
/// to the durability-off engine at 1/2/4/8 shards.
#[test]
fn crash_free_durability_is_byte_identical_at_1_2_4_8_shards() {
    for shards in [1usize, 2, 4, 8] {
        let on = cfg(shards);
        let mut off = cfg(shards);
        off.durability.enabled = false;
        let a = run_federation_campaign(&on).expect("durability-on run");
        let b = run_federation_campaign(&off).expect("durability-off run");
        assert_eq!(a.combined_digest, b.combined_digest, "{shards} shards");
        for (s, (x, y)) in a.shards.iter().zip(&b.shards).enumerate() {
            assert_eq!(
                x.log, y.log,
                "shard {s}/{shards} event log drifted under journaling"
            );
            assert_eq!(x.report, y.report, "shard {s}/{shards} report drifted");
        }
        assert!(a.stats.wal_records > 0);
        assert_eq!(b.stats.wal_records, 0);
    }
}

/// The same gate under imperfect detection (lease-driven suspicion,
/// heartbeats, anti-entropy sweeps — the WAL's trickiest records).
#[test]
fn crash_free_durability_is_byte_identical_under_imperfect_detection() {
    for shards in [1usize, 2, 4, 8] {
        let on = imperfect(shards);
        let mut off = imperfect(shards);
        off.durability.enabled = false;
        let a = run_federation_campaign(&on).expect("durability-on run");
        let b = run_federation_campaign(&off).expect("durability-off run");
        assert_eq!(a.combined_digest, b.combined_digest, "{shards} shards");
        for (x, y) in a.shards.iter().zip(&b.shards) {
            assert_eq!(x.log, y.log);
            assert_eq!(x.report, y.report);
        }
    }
}

/// Seeded crash schedules converge to the crash-free digests across
/// shard counts — including the degenerate single-shard federation,
/// where the crashed server *is* the whole control plane.
#[test]
fn seeded_crashes_converge_at_every_shard_count() {
    for shards in [1usize, 2, 4] {
        let baseline = run_federation_campaign(&cfg(shards)).expect("crash-free run");
        let mut crashed_cfg = cfg(shards);
        crashed_cfg.crashes = crash_plan(3, shards);
        let crashed = run_federation_campaign(&crashed_cfg).expect("crashed run");
        assert!(
            crashed.stats.shard_crashes >= 1,
            "{shards} shards: the plan scheduled no crash"
        );
        assert_eq!(
            crashed.shard_digests(),
            baseline.shard_digests(),
            "{shards} shards: crashed run diverged from the crash-free digests"
        );
        assert!(crashed.fates_balance());
    }
}

/// The same convergence on the overloaded campaign: every crash
/// replays a tail of mostly journaled refusals, which must re-run to
/// the same outcomes (and the same denial lines) as the live run.
#[test]
fn an_overloaded_mostly_refused_federation_converges_through_crashes() {
    for shards in [1usize, 2] {
        let baseline = run_federation_campaign(&overloaded(shards)).expect("crash-free run");
        let (denied, arrivals) = baseline.shards.iter().fold((0, 0), |(d, n), s| {
            (d + s.report.denied, n + s.report.arrivals)
        });
        assert!(
            denied * 10 >= arrivals * 9,
            "{shards} shards: only {denied} of {arrivals} arrivals refused"
        );
        let mut crashed_cfg = overloaded(shards);
        crashed_cfg.crashes = ShardCrashPlan {
            crashes: 3,
            shards,
            horizon_h: 1.0,
            outage_h: 0.05,
            ..ShardCrashPlan::default()
        };
        let crashed = run_federation_campaign(&crashed_cfg).expect("crashed run");
        assert!(
            crashed.stats.shard_crashes >= 1,
            "{shards} shards: the plan scheduled no crash"
        );
        assert!(
            crashed.stats.wal_replayed > 0,
            "{shards} shards: nothing replayed"
        );
        assert_eq!(
            crashed.shard_digests(),
            baseline.shard_digests(),
            "{shards} shards: crashed overloaded run diverged from the crash-free digests"
        );
        assert!(crashed.fates_balance());
    }
}

/// Crash × loss-rate matrix: the WAL rebuild composes with the PR-8
/// reliable sublayer — seeded drop/dup/reorder on top of crash outage
/// windows still drains to the crash-free perfect digests.
#[test]
fn crashes_compose_with_lossy_transport() {
    let shards = 4;
    let baseline = run_federation_campaign(&cfg(shards)).expect("crash-free run");
    for crashes in [2usize, 4] {
        for loss in [0.05f64, 0.2] {
            let mut c = cfg(shards);
            c.crashes = crash_plan(crashes, shards);
            let schedule = c.schedule();
            let lc = LossConfig::lossy(0xd07_ab1e ^ loss.to_bits(), loss);
            let (crashed, loss_stats) =
                run_federation_campaign_lossy(&c, &schedule, lc).expect("crashed lossy run");
            assert!(loss_stats.drops > 0, "the injector actually dropped");
            assert!(crashed.stats.shard_crashes >= 1);
            assert_eq!(
                crashed.shard_digests(),
                baseline.shard_digests(),
                "{crashes} crashes at loss {loss} diverged"
            );
        }
    }
}

/// Crash composed with a shard partition and partition-aligned burst
/// loss: the suspected-shard machinery, the burst injector, and the
/// crash outage windows all overlap, and the run still converges to
/// its own crash-free baseline.
#[test]
fn crashes_compose_with_partition_aligned_bursts() {
    let shards = 4;
    let partition = ShardPartition {
        shard: 1,
        from_h: 3.0,
        to_h: 3.5,
    };
    let mut base = cfg(shards);
    base.shard_partitions = vec![partition];
    let baseline = run_federation_campaign(&base).expect("partitioned crash-free run");

    let mut c = cfg(shards);
    c.shard_partitions = vec![partition];
    c.crashes = crash_plan(3, shards);
    let schedule = c.schedule();
    let lc = LossConfig::lossy(0x0bad_ca5e, 0.1).align_bursts(&c.shard_partitions);
    let (crashed, _) =
        run_federation_campaign_lossy(&c, &schedule, lc).expect("crashed bursty run");
    assert!(crashed.stats.shard_crashes >= 1);
    assert_eq!(
        crashed.shard_digests(),
        baseline.shard_digests(),
        "crash + partition + aligned bursts diverged from the crash-free digests"
    );

    // Three times the moves and a partition window on two shards: here
    // burst loss leaves payloads queued behind a gap, so the in-order
    // release buffers actually fill. The federation's transport and
    // crash totals are folds over the shards' own reports (sums, and a
    // maximum for the buffer depth); this cell pins all six.
    let mut heavy = cfg(shards);
    heavy.mobility.moves = 48;
    heavy.shard_partitions = vec![
        ShardPartition {
            shard: 1,
            from_h: 2.0,
            to_h: 2.5,
        },
        ShardPartition {
            shard: 0,
            from_h: 6.0,
            to_h: 6.5,
        },
    ];
    let baseline = run_federation_campaign(&heavy).expect("heavy crash-free run");
    heavy.crashes = crash_plan(3, shards);
    let schedule = heavy.schedule();
    let lc = LossConfig::lossy(0xd07_ab1e, 0.2).align_bursts(&heavy.shard_partitions);
    let (crashed, _) =
        run_federation_campaign_lossy(&heavy, &schedule, lc).expect("heavy crashed bursty run");
    assert_eq!(
        crashed.shard_digests(),
        baseline.shard_digests(),
        "heavy crash + partitions + aligned bursts diverged from the crash-free digests"
    );
    let s = &crashed.stats;
    assert_eq!(
        [
            s.retransmissions,
            s.duplicate_drops,
            s.reorder_depth_max,
            s.shard_crashes,
            s.wal_replayed,
            s.snapshot_restores,
        ],
        [162, 56, 3, 3, 357, 3],
        "pinned federation totals (retransmissions, duplicate drops, reorder depth, \
         crashes, WAL records replayed, snapshot restores)"
    );
}

/// A crash window opened in the middle of a two-phase handoff (between
/// a `move-user` pick and its commit decision) on both endpoints: the
/// recovered reservation ledger completes or expires the handoff
/// without double-charging, and the digests still converge.
#[test]
fn a_crash_mid_handoff_converges() {
    let shards = 2;
    let base = cfg(shards);
    let schedule = base.schedule();
    let baseline = run_federation_campaign_with(&base, &schedule).expect("crash-free run");
    assert!(
        baseline.stats.handoffs_initiated > 0,
        "the mobility overlay must actually cross shards"
    );
    // Drop a crash inside every move's reserve→decide window, on the
    // shard the commit lag is racing: both endpoints, alternating.
    let mut crash_faults: Vec<TimedFault> = Vec::new();
    for (k, f) in schedule
        .iter()
        .filter(|f| {
            matches!(
                f.kind,
                FaultKind::MoveUser { .. } | FaultKind::SwitchDevice { .. }
            )
        })
        .enumerate()
        .take(4)
    {
        let shard = k % shards;
        let at_h = f.at_h + base.commit_lag_h * 0.5;
        crash_faults.push(TimedFault {
            at_h,
            kind: FaultKind::ShardCrash { shard },
        });
        crash_faults.push(TimedFault {
            at_h: at_h + 0.05,
            kind: FaultKind::ShardRestart { shard },
        });
    }
    assert!(!crash_faults.is_empty(), "no moves in the schedule");
    let merged = merge_schedules(&schedule, &crash_faults);
    let crashed = run_federation_campaign_with(&base, &merged).expect("crash-mid-handoff run");
    assert_eq!(crashed.stats.shard_crashes, crash_faults.len() as u64 / 2);
    assert_eq!(
        crashed.shard_digests(),
        baseline.shard_digests(),
        "a crash inside the reserve→decide window broke the handoff ledger"
    );
    assert!(crashed.fates_balance());
}

/// Systematic crash coverage on a reduced 2-shard campaign: one crash
/// (restarted 0.1 h later) at every distinct arrival, departure and
/// scheduled-fault instant, on each shard, at the tightest checkpoint
/// cadence and at the default one. Every run must rebuild to the
/// crash-free per-shard digests — the lines written after each crash
/// are computed from the rebuilt state.
#[test]
fn crash_at_every_event_instant_converges() {
    let base = FederationConfig {
        base: FaultCampaignConfig {
            devices: 8,
            requests: 24,
            horizon_h: 6.0,
            faults: 6,
            ..FaultCampaignConfig::default()
        },
        shards: 2,
        mobility: MobilityWaveConfig {
            moves: 6,
            horizon_h: 6.0,
            devices: 8,
            ..MobilityWaveConfig::default()
        },
        ..FederationConfig::default()
    };
    let schedule = base.schedule();
    let baseline = run_federation_campaign_with(&base, &schedule).expect("crash-free run");
    // The engine's own workload trace (same generator, same seed).
    let trace = WorkloadConfig::overload(base.base.requests, base.base.horizon_h)
        .generate(&mut StdRng::seed_from_u64(base.base.seed));
    let mut instants: Vec<f64> = trace
        .iter()
        .flat_map(|r| [r.arrival_h, r.departure_h()])
        .chain(schedule.iter().map(|f| f.at_h))
        .collect();
    instants.sort_by(f64::total_cmp);
    instants.dedup_by(|a, b| a.to_bits() == b.to_bits());
    assert!(instants.len() >= 48, "{} instants", instants.len());

    for checkpoint_every in [1, DurabilityConfig::default().checkpoint_every] {
        let mut cfg = base.clone();
        cfg.durability.checkpoint_every = checkpoint_every;
        for &at_h in &instants {
            for shard in 0..cfg.shards {
                let crash = [
                    TimedFault {
                        at_h,
                        kind: FaultKind::ShardCrash { shard },
                    },
                    TimedFault {
                        at_h: at_h + 0.1,
                        kind: FaultKind::ShardRestart { shard },
                    },
                ];
                let merged = merge_schedules(&schedule, &crash);
                let crashed = run_federation_campaign_with(&cfg, &merged).expect("crashed run");
                let at = format!(
                    "shard {shard} crashed at t={at_h}h, checkpoint every {checkpoint_every}"
                );
                assert_eq!(crashed.stats.shard_crashes, 1, "{at}");
                assert_eq!(crashed.shard_digests(), baseline.shard_digests(), "{at}");
                assert!(crashed.fates_balance(), "{at}");
            }
        }
    }
}
