//! Cross-shard equivalence tests for the federated runtime
//! (`ubiqos_runtime::federation`).
//!
//! Three layers of evidence that sharding never changes behaviour, only
//! who does the work:
//!
//! * **Serial reference** — the serial loop, the batched loop, and the
//!   federated engine at one shard drive the same shard core, so on the
//!   identical merged schedule all three must be *byte-identical*: same
//!   event log bytes, same report, under perfect and imperfect
//!   detection, strict and staged recovery, strided invariant sweeps,
//!   and portfolio placement alike.
//! * **Digest pins** — at 2, 4, and 8 shards the per-shard event-log
//!   digests are pinned. The split is part of the observable contract:
//!   any change to the federation protocol, the ordering rule, or the
//!   handoff state machine shows up here first.
//! * **Randomized interleavings** — a hand-rolled seeded loop (no
//!   external fuzzing deps) sweeps shard counts, fault budgets,
//!   mobility waves, detector settings, and shard-partition windows,
//!   asserting on every run: the engine's internal invariant sweeps
//!   pass (exact resource refunds included — a violated refund fails
//!   the run itself), every shard's session-fate ledger balances with
//!   handoffs counted, every handoff resolves, and reruns are
//!   digest-identical.

use ubiqos_runtime::{
    run_fault_campaign_batched_with, run_fault_campaign_with, run_federation_campaign_with,
    CampaignOutcome, FaultCampaignConfig, FederationConfig, FederationOutcome, PipelineConfig,
    PlacementStrategy, ShardPartition,
};
use ubiqos_sim::MobilityWaveConfig;

/// The pinned campaign: 16 devices, a light 64-request/12-hour workload
/// (so admissions mostly succeed and handoffs genuinely commit), 16
/// infrastructure faults, and two mobility waves dragging sessions
/// across whatever shard boundaries the split draws.
fn pin_cfg(shards: usize) -> FederationConfig {
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
        ..FederationConfig::default()
    }
}

/// Every cross-shard ledger identity that must hold on any outcome:
/// per-shard fate balance (with handoffs), all handoffs resolved, and
/// commit/hand-over counter agreement.
fn assert_ledgers(out: &FederationOutcome, requests: usize) {
    assert!(
        out.fates_balance(),
        "per-shard fate ledgers: {:?}",
        out.stats
    );
    let arrivals: u32 = out.shards.iter().map(|s| s.report.arrivals).sum();
    assert_eq!(arrivals as usize, requests, "every request resolves once");
    assert_eq!(
        out.stats.handoffs_initiated,
        out.stats.handoffs_committed + out.stats.handoffs_aborted,
        "every handoff resolves: {:?}",
        out.stats
    );
    let handed_out: u32 = out.stats.handed_out.iter().sum();
    let handed_in: u32 = out.stats.handed_in.iter().sum();
    assert_eq!(
        u64::from(handed_out),
        out.stats.handoffs_committed,
        "one release per commit"
    );
    assert_eq!(
        handed_in, handed_out,
        "every released session arrives somewhere (late commits included)"
    );
    let forwarded_out: u32 = out.stats.forwarded_out.iter().sum();
    let forwarded_in: u32 = out.stats.forwarded_in.iter().sum();
    assert_eq!(u64::from(forwarded_out), out.stats.forwarded);
    assert_eq!(forwarded_in, forwarded_out);
}

/// The small mobility-heavy campaign the 1-shard contract was first
/// pinned on: 6 devices, 48 requests, 10 faults, two mobility waves.
fn small_cfg() -> FederationConfig {
    FederationConfig {
        base: FaultCampaignConfig {
            devices: 6,
            requests: 48,
            horizon_h: 12.0,
            faults: 10,
            ..FaultCampaignConfig::default()
        },
        shards: 1,
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

/// Runs `cfg`'s base campaign on its merged schedule through all three
/// runtimes of the shard core — serial, batched (`batch_size: 8`, two
/// threads), and the 1-shard federated engine — and asserts the event
/// logs are byte-identical and the reports equal. Returns the serial
/// outcome.
fn assert_three_runtimes_agree(cfg: &FederationConfig, what: &str) -> CampaignOutcome {
    assert_eq!(cfg.shards, 1, "{what}: the contract is about one shard");
    let schedule = cfg.schedule();
    let serial = run_fault_campaign_with(&cfg.base, &schedule).expect("serial run");
    let batched = run_fault_campaign_batched_with(
        &cfg.base,
        &schedule,
        &PipelineConfig {
            batch_size: 8,
            threads: 2,
        },
    )
    .expect("batched run");
    let fed = run_federation_campaign_with(cfg, &schedule).expect("federated run");
    assert_eq!(
        batched.log, serial.log,
        "{what}: the batched event log must be byte-identical to the serial loop"
    );
    assert_eq!(batched.report, serial.report, "{what}: batched report");
    assert_eq!(
        fed.shards[0].log, serial.log,
        "{what}: the 1-shard event log must be byte-identical to the serial loop"
    );
    assert_eq!(
        fed.shards[0].report, serial.report,
        "{what}: 1-shard report"
    );
    assert_eq!(
        fed.shards[0].stages.configures, serial.stages.configures,
        "{what}: the 1-shard core memoises exactly as the serial loop's"
    );
    assert_eq!(
        fed.stats.messages, 0,
        "{what}: one shard never talks to itself"
    );
    assert_eq!(
        fed.stats.handoffs_initiated, 0,
        "{what}: no cross-shard traffic"
    );
    assert_ledgers(&fed, cfg.base.requests);
    serial
}

#[test]
fn one_shard_is_byte_identical_to_the_serial_des_reference() {
    let strict = |mut cfg: FederationConfig| {
        cfg.base.staged_recovery = false;
        cfg
    };
    let strided = |mut cfg: FederationConfig| {
        cfg.base.invariant_stride = 3;
        cfg
    };
    let portfolio = |mut cfg: FederationConfig| {
        cfg.base.placement = PlacementStrategy::Portfolio { warm_start: true };
        cfg
    };
    let inputs = [
        ("pinned campaign", pin_cfg(1)),
        ("small mobility campaign", small_cfg()),
        ("strict recovery", strict(pin_cfg(1))),
        ("strict recovery, small", strict(small_cfg())),
        ("invariant stride 3", strided(pin_cfg(1))),
        ("portfolio placement", portfolio(pin_cfg(1))),
    ];
    for (what, cfg) in &inputs {
        let serial = assert_three_runtimes_agree(cfg, what);
        assert!(serial.report.admitted > 0, "{what}: sessions were admitted");
    }
}

#[test]
fn one_shard_stays_byte_identical_under_imperfect_detection() {
    let mut pinned = pin_cfg(1);
    pinned.base.detection_grace_h = 0.5;
    pinned.base.partitions = 2;
    pinned.base.heartbeat_loss = 0.1;
    let mut small = small_cfg();
    small.base.detection_grace_h = 0.05;
    small.base.partitions = 1;
    let mut strict = pinned.clone();
    strict.base.staged_recovery = false;
    for (what, cfg) in [
        ("pinned campaign", &pinned),
        ("small mobility campaign", &small),
        ("strict recovery", &strict),
    ] {
        let serial = assert_three_runtimes_agree(cfg, what);
        assert!(
            serial.report.suspicions > 0,
            "{what}: the imperfect variant must actually exercise the detector"
        );
    }
}

/// The per-shard digest pins. Any change to the federation protocol,
/// the total-order rule, the handoff state machine, or the underlying
/// serial semantics must be deliberate enough to re-pin these.
#[test]
fn per_shard_digests_are_pinned_at_every_shard_count() {
    let pins: &[(usize, &[u64])] = &[
        (2, &[0xf692_fbb7_1795_f2c4, 0x2f4e_b2cc_f12d_6112]),
        (
            4,
            &[
                0xa00b_f9f2_9689_a915,
                0xaafa_fcc5_95b9_5c1f,
                0x058b_0a2d_5d30_73dd,
                0x20a1_2e04_113c_0d45,
            ],
        ),
        (
            8,
            &[
                0x8143_afe4_fa05_045f,
                0x505c_a832_e0df_4c0c,
                0x0da2_5fea_2d29_b8bb,
                0xa595_d1f1_c44d_2fd3,
                0x86b2_6dba_b90e_3c75,
                0xc098_b0f2_fd37_6811,
                0x853c_27df_0cf7_b8bc,
                0x885c_f33d_65b6_4e28,
            ],
        ),
    ];
    let mut committed_total = 0u64;
    let mut actual = Vec::new();
    for &(shards, _) in pins {
        let cfg = pin_cfg(shards);
        let out = run_federation_campaign_with(&cfg, &cfg.schedule()).expect("federated run");
        actual.push((shards, out.shard_digests()));
        assert_ledgers(&out, cfg.base.requests);
        committed_total += out.stats.handoffs_committed;
    }
    let expected: Vec<(usize, Vec<u64>)> = pins
        .iter()
        .map(|&(shards, digests)| (shards, digests.to_vec()))
        .collect();
    assert_eq!(
        actual
            .iter()
            .map(|(s, d)| (*s, format!("{d:#018x?}")))
            .collect::<Vec<_>>(),
        expected
            .iter()
            .map(|(s, d)| (*s, format!("{d:#018x?}")))
            .collect::<Vec<_>>(),
        "per-shard digest pins drifted"
    );
    assert!(
        committed_total > 0,
        "the pinned campaigns must exercise committed cross-shard handoffs"
    );
}

/// `splitmix64` — hand-rolled here so the randomized sweep needs no
/// external fuzzing dependency and stays reproducible byte-for-byte.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn randomized_interleavings_conserve_sessions_and_replay_identically() {
    let mut state = 0xfede_4a77_1e57_0001u64;
    for round in 0..10u32 {
        let shards = 2 + (mix(&mut state) % 3) as usize; // 2..=4
        let devices = 2 * shards + (mix(&mut state) % 5) as usize;
        let requests = 24 + (mix(&mut state) % 25) as usize;
        let faults = (mix(&mut state) % 20) as usize;
        let imperfect = mix(&mut state) % 2 == 1;
        let moves = 8 + (mix(&mut state) % 9) as usize;
        let waves = 1 + (mix(&mut state) % 3) as usize;
        let mut shard_partitions = Vec::new();
        for _ in 0..(mix(&mut state) % 3) {
            let shard = (mix(&mut state) % shards as u64) as usize;
            let from_h = (mix(&mut state) % 10_000) as f64 / 1_000.0; // 0..10h
            let to_h = from_h + 0.05 + (mix(&mut state) % 500) as f64 / 1_000.0;
            shard_partitions.push(ShardPartition {
                shard,
                from_h,
                to_h,
            });
        }
        let cfg = FederationConfig {
            base: FaultCampaignConfig {
                seed: mix(&mut state),
                devices,
                requests,
                horizon_h: 12.0,
                faults,
                detection_grace_h: if imperfect { 0.5 } else { 0.0 },
                partitions: if imperfect { 2 } else { 0 },
                heartbeat_loss: if imperfect { 0.1 } else { 0.0 },
                ..FaultCampaignConfig::default()
            },
            shards,
            mobility: MobilityWaveConfig {
                seed: mix(&mut state),
                moves,
                waves,
                horizon_h: 12.0,
                devices,
                ..MobilityWaveConfig::default()
            },
            shard_partitions,
            ..FederationConfig::default()
        };
        let schedule = cfg.schedule();
        // A run that leaks or double-counts a single resource unit fails
        // here: the engine sweeps capacity conservation (exact handoff
        // and reservation refunds included) after every event.
        let out = run_federation_campaign_with(&cfg, &schedule)
            .unwrap_or_else(|v| panic!("round {round}: invariant violated: {v} ({cfg:?})"));
        assert_ledgers(&out, requests);
        // Determinism: the identical config and schedule replays to the
        // identical per-shard digests.
        let again = run_federation_campaign_with(&cfg, &schedule).expect("replay");
        assert_eq!(
            out.shard_digests(),
            again.shard_digests(),
            "round {round} replay diverged"
        );
        assert_eq!(out.combined_digest, again.combined_digest);
        assert_eq!(out.stats, again.stats, "round {round} stats diverged");
    }
}
