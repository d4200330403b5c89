//! Streaming against retention: the event log is a streaming sink that
//! hashes and counts every line as it is pushed, and keeps the lines
//! only when `FaultCampaignConfig::retain_transcript` asks for them.
//! Retention must be invisible to everything but `lines()`: the serial
//! loop, the batched loop and a lossy, crashing federation each report
//! the same digest, line count, byte count and report digest with it on
//! or off, and a retained log's rendering hashes to that same digest.

use ubiqos::fault_report::fnv1a;
use ubiqos_runtime::{
    run_fault_campaign, run_fault_campaign_batched, run_federation_campaign_lossy, EventLog,
    FaultCampaignConfig, FederationConfig, LossConfig, PipelineConfig,
};
use ubiqos_sim::{MobilityWaveConfig, ShardCrashPlan};

/// A campaign that exercises recovery, parking and the detector, so its
/// transcript has every kind of line.
fn base(retain_transcript: bool) -> FaultCampaignConfig {
    FaultCampaignConfig {
        devices: 6,
        requests: 150,
        faults: 30,
        scope_max: 2,
        detection_grace_h: 0.5,
        heartbeat_period_h: 0.25,
        partitions: 1,
        retain_transcript,
        ..FaultCampaignConfig::default()
    }
}

/// Asserts that the retained and the streamed log of one run agree on
/// every counter, and that the retained lines are what was digested.
fn assert_twins(kept: &EventLog, kept_digest: u64, streamed: &EventLog, streamed_digest: u64) {
    assert!(!kept.is_empty(), "the campaign logged something");
    assert_eq!(kept.digest(), streamed.digest(), "digest");
    assert_eq!(kept.len(), streamed.len(), "line count");
    assert_eq!(kept.bytes(), streamed.bytes(), "byte count");
    assert_eq!(kept_digest, streamed_digest, "report.log_digest");
    assert_eq!(kept_digest, kept.digest());
    let rendered = kept.render();
    assert_eq!(fnv1a(rendered.as_bytes()), kept.digest());
    assert_eq!(rendered.len(), kept.bytes());
    assert_eq!(kept.lines().len(), kept.len());
    assert!(
        streamed.lines().is_empty(),
        "nothing kept without retention"
    );
    assert_eq!(streamed.render(), "");
    assert_eq!(kept, streamed);
}

#[test]
fn the_serial_loop_streams_what_it_would_retain() {
    let kept = run_fault_campaign(&base(true)).expect("retained run");
    let streamed = run_fault_campaign(&base(false)).expect("streamed run");
    assert_twins(
        &kept.log,
        kept.report.log_digest,
        &streamed.log,
        streamed.report.log_digest,
    );
    assert_eq!(kept.report, streamed.report);
}

#[test]
fn the_batched_loop_streams_what_it_would_retain() {
    let pipeline = PipelineConfig {
        batch_size: 32,
        threads: 2,
    };
    let kept = run_fault_campaign_batched(&base(true), &pipeline).expect("retained run");
    let streamed = run_fault_campaign_batched(&base(false), &pipeline).expect("streamed run");
    assert_twins(
        &kept.log,
        kept.report.log_digest,
        &streamed.log,
        streamed.report.log_digest,
    );
    assert_eq!(kept.report, streamed.report);
}

#[test]
fn a_lossy_crashing_federation_streams_what_it_would_retain() {
    let cfg = |retain_transcript: bool| FederationConfig {
        base: FaultCampaignConfig {
            devices: 8,
            requests: 96,
            horizon_h: 10.0,
            faults: 8,
            retain_transcript,
            ..FaultCampaignConfig::default()
        },
        shards: 2,
        mobility: MobilityWaveConfig {
            moves: 12,
            waves: 2,
            horizon_h: 10.0,
            devices: 8,
            ..MobilityWaveConfig::default()
        },
        crashes: ShardCrashPlan {
            crashes: 2,
            shards: 2,
            horizon_h: 10.0,
            outage_h: 0.3,
            ..ShardCrashPlan::default()
        },
        ..FederationConfig::default()
    };
    let run = |retain| {
        let c = cfg(retain);
        let (outcome, loss) =
            run_federation_campaign_lossy(&c, &c.schedule(), LossConfig::lossy(0x7e7a, 0.1))
                .expect("lossy crashing run");
        assert!(loss.drops > 0, "the transport actually lost messages");
        assert!(outcome.stats.shard_crashes >= 1, "a shard actually crashed");
        outcome
    };
    let (kept, streamed) = (run(true), run(false));
    assert_eq!(kept.shards.len(), 2);
    for (k, s) in kept.shards.iter().zip(&streamed.shards) {
        assert_twins(&k.log, k.report.log_digest, &s.log, s.report.log_digest);
        assert_eq!(k.report, s.report);
    }
    assert_eq!(kept.combined_digest, streamed.combined_digest);
}
