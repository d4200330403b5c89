//! Workspace-level equivalence suite for the batched pipeline runtime
//! (`ubiqos_runtime::pipeline`).
//!
//! The batched runtime's whole contract is *byte identity*: at every
//! `(batch size, thread count)` setting, the event log, its digest, and
//! every report counter must match the serial DES reference exactly —
//! speculation and batching may only ever change wall-clock time. This
//! file pins that contract across random fault schedules (detector
//! suspicion, partitions, and lossy heartbeats included) and pins the
//! absolute baseline digests so neither the batched loop nor the
//! hot-path optimizations it motivated (the once-per-instant lease
//! sweep, the event-log formatting fast path) can drift the serial
//! runtime either.

use proptest::prelude::*;
use ubiqos_runtime::{
    run_fault_campaign, run_fault_campaign_batched, FaultCampaignConfig, PipelineConfig,
};

/// The batch-size ladder every equivalence assertion sweeps: serial
/// degenerate (1), small, the default (cache-warm), and overload scale.
const BATCH_SIZES: [usize; 4] = [1, 4, 32, 256];

/// Worker counts for the speculative stage; `8` exceeds this CI class's
/// cores, so the sweep also proves worker count is wall-clock-only.
const THREADS: [usize; 2] = [1, 8];

fn assert_batched_matches_serial(cfg: &FaultCampaignConfig, label: &str) {
    let serial = run_fault_campaign(cfg)
        .unwrap_or_else(|v| panic!("{label}: serial invariant violated: {v}"));
    for threads in THREADS {
        for batch_size in BATCH_SIZES {
            let batched = run_fault_campaign_batched(
                cfg,
                &PipelineConfig {
                    batch_size,
                    threads,
                },
            )
            .unwrap_or_else(|v| {
                panic!("{label} b{batch_size} t{threads}: batched invariant violated: {v}")
            });
            assert_eq!(
                serial.log, batched.log,
                "{label} b{batch_size} t{threads}: event logs diverged"
            );
            assert_eq!(
                serial.report, batched.report,
                "{label} b{batch_size} t{threads}: reports diverged"
            );
            let stats = batched.pipeline.expect("batched runs carry stats");
            assert_eq!(
                stats.adopted + stats.inline_speculated,
                u64::from(batched.report.arrivals),
                "{label} b{batch_size} t{threads}: arrival accounting leaked"
            );
        }
    }
}

/// The absolute anchors: baseline digests captured when each campaign
/// mode was introduced. The serial loop, the hoisted lease sweep, the
/// formatting fast path, and every batched cell must all keep
/// reproducing them byte-for-byte.
#[test]
fn baseline_digests_are_pinned_serial_and_batched() {
    // Perfect detection (the digest tests/fault_injection.rs pins).
    let perfect = FaultCampaignConfig::default();
    // Imperfect detection with every detector feature active (the
    // lease-sweep hot path: heartbeats cluster lease checks at shared
    // instants, so the once-per-instant hoist is exercised heavily).
    let imperfect = FaultCampaignConfig {
        detection_grace_h: 1.0,
        heartbeat_period_h: 0.25,
        partitions: 2,
        partition_max: 2,
        heartbeat_loss: 0.3,
        scope_max: 2,
        ..FaultCampaignConfig::default()
    };
    for (cfg, pinned, label) in [
        (&perfect, 0x2385_725a_4716_6d1b_u64, "perfect"),
        (&imperfect, 0x01d0_6fd1_1ed1_9085_u64, "imperfect"),
    ] {
        let serial = run_fault_campaign(cfg).expect("serial holds");
        assert_eq!(
            serial.report.log_digest, pinned,
            "{label}: serial baseline digest drifted"
        );
        for batch_size in BATCH_SIZES {
            let batched = run_fault_campaign_batched(
                cfg,
                &PipelineConfig {
                    batch_size,
                    threads: 8,
                },
            )
            .expect("batched holds");
            assert_eq!(
                batched.report.log_digest, pinned,
                "{label} b{batch_size}: batched digest drifted from the pinned baseline"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random perfect-detection schedules: crashes, correlated scopes,
    /// flapping links, fluctuations — batched ≡ serial at every cell.
    #[test]
    fn batched_matches_serial_across_random_fault_schedules(
        seed in 0u64..u64::MAX,
        scope in 1usize..3,
        flapping in 0usize..2,
    ) {
        let cfg = FaultCampaignConfig {
            seed,
            devices: 4,
            requests: 60,
            horizon_h: 24.0,
            faults: 24,
            scope_max: scope,
            flapping_links: flapping,
            ..FaultCampaignConfig::default()
        };
        assert_batched_matches_serial(&cfg, "perfect");
    }

    /// Random imperfect-detection schedules: suspicion, false suspicion,
    /// reinstatement, and stale views landing mid-batch must all commit
    /// in the serial order. Lease checks land between arrivals, so
    /// batches are clipped at suspicion horizons (the batch horizon
    /// rule) and the speculation table is invalidated mid-run.
    #[test]
    fn batched_matches_serial_under_detector_suspicion(
        seed in 0u64..u64::MAX,
        loss in 0.0f64..0.6,
    ) {
        let cfg = FaultCampaignConfig {
            seed,
            devices: 4,
            requests: 60,
            horizon_h: 24.0,
            faults: 24,
            scope_max: 2,
            detection_grace_h: 0.5,
            heartbeat_period_h: 0.25,
            partitions: 2,
            partition_max: 2,
            heartbeat_loss: loss,
            ..FaultCampaignConfig::default()
        };
        assert_batched_matches_serial(&cfg, "imperfect");
    }
}
