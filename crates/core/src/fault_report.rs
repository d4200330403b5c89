//! Summary of a fault-injection campaign against the runtime.
//!
//! The paper's §3.3 triggers — device crash, resource fluctuation,
//! portal switch, user mobility, application start/stop — are injected
//! by `ubiqos_runtime::faults` from a seeded schedule. The campaign
//! distils what happened into this report: how many events of each kind
//! fired, how sessions fared (admitted, denied, dropped, re-placed),
//! and a digest of the event log so two runs can be compared for
//! determinism with a single integer.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Schema version stamped into every `BENCH_*.json` artifact. Bump it
/// whenever a field is added, renamed, or its meaning changes; the
/// nightly drift gate refuses to compare artifacts across versions
/// instead of silently misreading renamed fields. Version 8: shard
/// WALs carry no transcript records, so the federation crash cells'
/// `wal_records`, `wal_replayed` and `replay_depth_*` counters are not
/// comparable with version 7.
pub const BENCH_SCHEMA_VERSION: u32 = 8;

/// Aggregated outcome of one fault-injection campaign.
///
/// Every counter is exact and deterministic for a given campaign seed:
/// two runs of the same campaign must produce byte-identical reports
/// (and byte-identical event logs — compare [`FaultReport::log_digest`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultReport {
    /// Artifact schema version (see [`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The campaign's master seed.
    pub seed: u64,
    /// Total events applied (workload + faults).
    pub events: u32,

    /// Injected device crashes.
    pub crashes: u32,
    /// Correlated crash groups (one scope event taking several devices
    /// down together; each member also counts in `crashes`).
    pub correlated_crashes: u32,
    /// Injected device recoveries.
    pub device_recoveries: u32,
    /// Injected per-device resource fluctuations.
    pub fluctuations: u32,
    /// Injected link-bandwidth degradations/restorations.
    pub link_fluctuations: u32,
    /// Injected portal switches (attempted).
    pub switches: u32,
    /// Portal switches the configurator could not satisfy (the old
    /// configuration stayed live).
    pub switch_failures: u32,
    /// Injected user moves (attempted).
    pub moves: u32,
    /// User moves the configurator could not satisfy.
    pub move_failures: u32,
    /// Injected partition events (device groups cut off from the domain
    /// server while still running).
    pub partitions: u32,
    /// Injected heal events (partitioned groups rejoining).
    pub heals: u32,
    /// Injected heartbeat-jam windows (detector signal lost while the
    /// device stays healthy and reachable).
    pub heartbeat_jams: u32,

    /// Devices the failure detector suspected (registry lease expired
    /// after the grace window; zero in perfect-detection mode, where
    /// every fault is observed instantly).
    pub suspicions: u32,
    /// Suspicions of devices that were actually healthy at suspicion
    /// time (partitioned or jammed, not crashed) — spurious parks the
    /// detector must cleanly undo on heal.
    pub false_suspected: u32,
    /// Suspected devices whose lease was renewed again (heal or
    /// recovery observed through a heartbeat) and that were restored.
    pub reinstatements: u32,
    /// Witnessed stale-view failures: a placement chose a
    /// dead-but-not-yet-suspected device and the download/activation
    /// step failed with `ConfigureError::StaleView`.
    pub stale_views: u32,

    /// Application arrivals from the workload.
    pub arrivals: u32,
    /// Arrivals admitted (a session was configured and started).
    pub admitted: u32,
    /// Arrivals denied admission (no QoS-consistent, fitting
    /// configuration existed at arrival time).
    pub denied: u32,
    /// Sessions that ran to their scheduled departure.
    pub completed: u32,
    /// Sessions dropped after exhausting the whole staged-recovery
    /// pipeline (every ladder level failed and the retry budget ran out);
    /// each drop carries a recorded [`crate::ConfigureError`] witnessing
    /// that the session was genuinely unplaceable when it was dropped.
    pub dropped: u32,
    /// Successful session re-placements across all recovery passes
    /// (one session surviving three recovery passes counts three times;
    /// degraded re-placements count here too).
    pub replacements: u32,
    /// Re-placements that only succeeded at a reduced QoS level (a rung
    /// below full quality on the degradation ladder).
    pub degraded: u32,
    /// Park events: a session released its resources and entered the
    /// retry queue (the same session may park more than once).
    pub parked: u32,
    /// Re-admissions of parked sessions from the retry queue.
    pub readmitted: u32,
    /// Sessions still live when the campaign ended.
    pub live_at_end: u32,
    /// Sessions still parked (awaiting retry) when the campaign ended.
    pub parked_at_end: u32,
    /// Recovery passes run (one per fault that touched capacity).
    pub recovery_passes: u32,
    /// Live sessions at the times recovery passes ran, summed — the
    /// re-placement work a full O(sessions) pass would have done.
    pub recovery_considered: u32,
    /// Sessions the incremental recovery passes actually re-examined
    /// (touched the changed device/link), summed — the O(affected) work
    /// actually done.
    pub recovery_affected: u32,

    /// Payload retransmissions this node's reliable transport sublayer
    /// issued (sender side; zero on a perfect transport and in every
    /// serial campaign).
    #[serde(default)]
    pub retransmissions: u32,
    /// Duplicate payload copies the reliable sublayer absorbed and
    /// dropped before they could reach a handler (receiver side).
    #[serde(default)]
    pub duplicate_drops: u32,
    /// Deepest the receiver-side in-order release buffer ever grew —
    /// how far ahead of a missing payload the network delivered.
    #[serde(default)]
    pub reorder_depth_max: u32,

    /// Whole-shard (domain-server process) crashes this node survived
    /// by rebuilding from its snapshot + write-ahead log (zero in every
    /// serial campaign and in crash-free federated runs).
    #[serde(default)]
    pub shard_crashes: u32,
    /// Write-ahead-log records replayed across all of this node's
    /// crash recoveries (the log tail past the last checkpoint).
    #[serde(default)]
    pub wal_replayed: u32,
    /// Snapshot restores performed (one per crash recovery).
    #[serde(default)]
    pub snapshot_restores: u32,

    /// Invariant checkpoints passed (one full sweep after every event).
    pub invariant_checks: u32,
    /// FNV-1a hash of the rendered event log, for cheap determinism
    /// comparisons across runs, hosts, and `UBIQOS_THREADS` settings.
    pub log_digest: u64,
}

impl Default for FaultReport {
    fn default() -> Self {
        FaultReport {
            schema_version: BENCH_SCHEMA_VERSION,
            seed: 0,
            events: 0,
            crashes: 0,
            correlated_crashes: 0,
            device_recoveries: 0,
            fluctuations: 0,
            link_fluctuations: 0,
            switches: 0,
            switch_failures: 0,
            moves: 0,
            move_failures: 0,
            partitions: 0,
            heals: 0,
            heartbeat_jams: 0,
            suspicions: 0,
            false_suspected: 0,
            reinstatements: 0,
            stale_views: 0,
            arrivals: 0,
            admitted: 0,
            denied: 0,
            completed: 0,
            dropped: 0,
            replacements: 0,
            degraded: 0,
            parked: 0,
            readmitted: 0,
            live_at_end: 0,
            parked_at_end: 0,
            recovery_passes: 0,
            recovery_considered: 0,
            recovery_affected: 0,
            retransmissions: 0,
            duplicate_drops: 0,
            reorder_depth_max: 0,
            shard_crashes: 0,
            wal_replayed: 0,
            snapshot_restores: 0,
            invariant_checks: 0,
            log_digest: 0,
        }
    }
}

impl FaultReport {
    /// Renders the report as an aligned, human-readable block.
    pub fn render(&self) -> String {
        format!(
            "campaign seed      : {:#018x}\n\
             events applied     : {}\n\
             faults             : {} crash ({} correlated groups) / {} recover / {} fluctuate / {} link / {} switch ({} failed) / {} move ({} failed)\n\
             detector faults    : {} partitions / {} heals / {} heartbeat jams\n\
             failure detection  : {} suspicions ({} false), {} reinstated, {} stale views witnessed\n\
             workload           : {} arrivals = {} admitted + {} denied\n\
             session fates      : {} completed, {} dropped, {} live at end, {} parked at end\n\
             staged recovery    : {} degraded, {} parked, {} readmitted\n\
             re-placements      : {} across {} passes ({} affected of {} considered)\n\
             transport          : {} retransmissions, {} duplicate drops, reorder depth {}\n\
             durability         : {} shard crashes survived, {} WAL records replayed, {} snapshot restores\n\
             invariant checks   : {}\n\
             event log digest   : {:#018x}\n",
            self.seed,
            self.events,
            self.crashes,
            self.correlated_crashes,
            self.device_recoveries,
            self.fluctuations,
            self.link_fluctuations,
            self.switches,
            self.switch_failures,
            self.moves,
            self.move_failures,
            self.partitions,
            self.heals,
            self.heartbeat_jams,
            self.suspicions,
            self.false_suspected,
            self.reinstatements,
            self.stale_views,
            self.arrivals,
            self.admitted,
            self.denied,
            self.completed,
            self.dropped,
            self.live_at_end,
            self.parked_at_end,
            self.degraded,
            self.parked,
            self.readmitted,
            self.replacements,
            self.recovery_passes,
            self.recovery_affected,
            self.recovery_considered,
            self.retransmissions,
            self.duplicate_drops,
            self.reorder_depth_max,
            self.shard_crashes,
            self.wal_replayed,
            self.snapshot_restores,
            self.invariant_checks,
            self.log_digest,
        )
    }

    /// Session-fate conservation: every admitted session either ran to
    /// completion, exhausted the staged-recovery pipeline and was
    /// dropped, is still live, or is parked awaiting retry.
    pub fn session_fates_balance(&self) -> bool {
        self.arrivals == self.admitted + self.denied
            && self.admitted
                == self.completed + self.dropped + self.live_at_end + self.parked_at_end
    }
}

impl fmt::Display for FaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// FNV-1a over a byte slice — the digest used for event-log comparison.
///
/// Chosen for stability (no dependency, no platform variance), not for
/// collision resistance; determinism checks always compare the full log
/// too when it is available.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV1A_OFFSET, bytes)
}

/// The FNV-1a offset basis: the digest of the empty input.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running FNV-1a state, so a digest can be taken
/// over a stream piece by piece: `fnv1a_extend(fnv1a(a), b)` equals
/// `fnv1a` over `a` followed by `b`.
pub fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_mentions_every_counter_group() {
        let report = FaultReport {
            seed: 7,
            events: 10,
            crashes: 1,
            admitted: 3,
            arrivals: 4,
            denied: 1,
            completed: 2,
            live_at_end: 1,
            ..FaultReport::default()
        };
        let s = report.render();
        assert!(s.contains("campaign seed"));
        assert!(s.contains("3 admitted + 1 denied"));
        assert!(s.contains("staged recovery"));
        assert!(s.contains("parked at end"));
        assert!(s.contains("failure detection"));
        assert!(s.contains("transport"));
        assert!(s.contains("invariant checks"));
        assert_eq!(report.to_string(), s);
    }

    #[test]
    fn default_report_carries_the_current_schema_version() {
        assert_eq!(FaultReport::default().schema_version, BENCH_SCHEMA_VERSION);
    }

    #[test]
    fn fate_balance_detects_leaks() {
        let mut report = FaultReport {
            arrivals: 4,
            admitted: 3,
            denied: 1,
            completed: 2,
            dropped: 0,
            live_at_end: 1,
            ..FaultReport::default()
        };
        assert!(report.session_fates_balance());
        report.live_at_end = 2;
        assert!(!report.session_fates_balance());
    }

    #[test]
    fn fate_balance_counts_parked_sessions() {
        let report = FaultReport {
            arrivals: 5,
            admitted: 4,
            denied: 1,
            completed: 2,
            dropped: 0,
            live_at_end: 1,
            parked_at_end: 1,
            parked: 2,
            readmitted: 1,
            ..FaultReport::default()
        };
        assert!(report.session_fates_balance());
    }

    #[test]
    fn fnv1a_is_stable_and_input_sensitive() {
        // Reference value for the empty input (FNV-1a offset basis).
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b"ubiqos"), fnv1a(b"ubiqos"));
        assert_eq!(fnv1a_extend(fnv1a(b"ubi"), b"qos"), fnv1a(b"ubiqos"));
    }

    #[test]
    fn serde_roundtrip() {
        let report = FaultReport {
            seed: 42,
            events: 5,
            log_digest: 99,
            ..FaultReport::default()
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: FaultReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
