//! The sharded-federation scaling benchmark behind
//! `BENCH_federation.json`.
//!
//! One overload campaign — `arrivals` requests packed into a two-hour
//! horizon on a 24-device space, no injected infrastructure faults, a
//! mobility-wave overlay dragging sessions between domains — runs once
//! through the serial DES reference loop and once per shard count
//! through the federated runtime ([`ubiqos_runtime::federation`]). The
//! 1-shard cell must stay **byte-identical** to the serial loop:
//! report and event-log digest are compared and any divergence fails
//! the artifact. Cells at 2+ shards are pinned by their per-shard and
//! combined digests instead (the split changes which shard logs what,
//! deterministically).
//!
//! What the artifact records per cell: wall clock, sustained admitted
//! requests per second, speedup over serial, the federation's message
//! and handoff counters ([`FederationStats`]) and the aggregated
//! shard-attributed stage accounting ([`StageTimes`]). The headline
//! claim — sharding the space speeds the campaign up, because each
//! shard discovers and places over a fraction of the devices — is
//! checked by [`FederationReport::scale_ok`] and surfaced by
//! `repro -- federation`.

use crate::hist::{match_cell, p99_us, shard_wait_summary, Align, TextTable};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::time::Instant;
use ubiqos_runtime::{
    run_fault_campaign_with, run_federation_campaign_lossy, run_federation_campaign_with,
    FaultCampaignConfig, FederationConfig, FederationStats, LossConfig, StageTimes,
};
use ubiqos_sim::{MobilityWaveConfig, ShardCrashPlan};

/// The federation campaign at a given arrival count and shard count: a
/// pure admission overload on 24 devices (no infrastructure faults, so
/// throughput measures the configure pipeline and the federation
/// protocol) plus a mobility-wave overlay that keeps sessions crossing
/// shard boundaries. The invariant stride is raised identically to the
/// serial reference so the reports stay comparable.
pub fn federation_config(arrivals: usize, shards: usize) -> FederationConfig {
    FederationConfig {
        base: FaultCampaignConfig {
            seed: 0x1cdc_2002,
            devices: 24,
            requests: arrivals,
            horizon_h: 2.0,
            faults: 0,
            invariant_stride: 64,
            ..FaultCampaignConfig::default()
        },
        shards,
        mobility: MobilityWaveConfig {
            moves: 64,
            waves: 4,
            horizon_h: 2.0,
            devices: 24,
            ..MobilityWaveConfig::default()
        },
        ..FederationConfig::default()
    }
}

/// One federated run at a fixed shard count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederationCell {
    /// Domain-server shards the space was split across.
    pub shards: usize,
    /// End-to-end wall clock of the campaign (ms).
    pub wall_ms: f64,
    /// Sustained arrivals processed per wall-clock second.
    pub sustained_rps: f64,
    /// `serial_wall_ms / wall_ms` — what sharding buys in this cell.
    pub speedup: f64,
    /// Arrivals admitted, summed over shards.
    pub admitted: u64,
    /// Per-shard event-log digests — the values the equivalence tests
    /// pin per shard count.
    pub shard_digests: Vec<u64>,
    /// FNV-1a over the concatenated per-shard digests.
    pub combined_digest: u64,
    /// For the 1-shard cell: whether report *and* log were
    /// byte-identical to the serial reference. `true` (vacuously) for
    /// multi-shard cells.
    pub matches_serial: bool,
    /// Message, discovery, and handoff counters.
    pub stats: FederationStats,
    /// Stage accounting summed over shards, with each shard's queue
    /// waits attributed to its own slot
    /// ([`StageTimes::shard_queue_wait_us`]).
    pub stages: StageTimes,
}

/// One lossy-transport run of the same campaign: the seeded fault
/// injector drops/duplicates/reorders copies at the configured rate
/// and the reliable sublayer recovers, so the row measures the *cost*
/// of loss (retransmissions, absorbed duplicates, convergence delay)
/// against the pinned guarantee that the logical outcome never moves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LossCell {
    /// Per-copy drop probability of the schedule.
    pub loss: f64,
    /// End-to-end wall clock of the lossy campaign (ms).
    pub wall_ms: f64,
    /// Physical copies dropped by the injector (burst drops included).
    pub drops: u64,
    /// Extra copies injected by duplication.
    pub dups: u64,
    /// Copies that arrived late (the reorder mechanism).
    pub delays: u64,
    /// Payload retransmissions the reliable sublayer issued.
    pub retransmissions: u64,
    /// Duplicate payload copies the receivers absorbed.
    pub duplicate_drops: u64,
    /// Standalone ack frames sent.
    pub acks_sent: u64,
    /// Payloads parked in the in-order release buffer.
    pub reorder_buffered: u64,
    /// Deepest any release buffer grew.
    pub reorder_depth_max: u64,
    /// Worst virtual-time gap between a payload's send and its release
    /// by the receiver (µs).
    pub convergence_delay_us_max: u64,
    /// Mean virtual-time send-to-release gap per payload (µs).
    pub convergence_delay_us_mean: f64,
    /// Whether the per-shard event-log digests match the perfect run
    /// at the same shard count — the convergence contract.
    pub digests_match_perfect: bool,
}

/// One seeded shard-crash run of the same campaign: whole domain
/// servers are torn down mid-campaign and rebuilt from snapshot + WAL
/// replay (optionally under transport loss on top), against the pinned
/// guarantee that the rebuilt shards drain to the crash-free run's
/// per-shard digests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrashCell {
    /// Shard crashes the seeded plan scheduled.
    pub crashes: usize,
    /// Per-copy drop probability layered on top (0 = perfect links).
    pub loss: f64,
    /// End-to-end wall clock of the crashed campaign (ms).
    pub wall_ms: f64,
    /// Crashes actually executed (== `crashes`).
    pub shard_crashes: u64,
    /// Physical copies eaten by crash outage windows.
    pub crash_copies_dropped: u64,
    /// WAL records appended across all shards (lifetime).
    pub wal_records: u64,
    /// WAL records replayed across all recoveries.
    pub wal_replayed: u64,
    /// Snapshot restores performed (one per crash).
    pub snapshot_restores: u64,
    /// Deepest single-recovery replay (records past the checkpoint).
    pub replay_depth_max: u64,
    /// Mean per-recovery replay depth.
    pub replay_depth_mean: f64,
    /// Payload retransmissions that bridged the outages (and any loss).
    pub retransmissions: u64,
    /// Whether the per-shard digests match the crash-free perfect run.
    pub digests_match_perfect: bool,
}

/// The full `BENCH_federation.json` artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederationReport {
    /// Artifact schema version ([`ubiqos::BENCH_SCHEMA_VERSION`]). The
    /// nightly drift gate refuses to compare artifacts across versions.
    pub schema_version: u32,
    /// Queued arrivals in every run.
    pub arrivals: usize,
    /// Serial reference wall clock (ms).
    pub serial_wall_ms: f64,
    /// Serial reference sustained arrivals per second.
    pub serial_rps: f64,
    /// Serial reference event-log digest — the value the 1-shard cell
    /// must reproduce.
    pub serial_digest: u64,
    /// One row per shard count.
    pub cells: Vec<FederationCell>,
    /// Best speedup over the serial reference among the cells.
    pub best_speedup: f64,
    /// Whether the 1-shard cell (when present) matched the serial
    /// report and log byte-for-byte.
    pub one_shard_matches_serial: bool,
    /// Shard count of the lossy-transport sweep.
    pub loss_shards: usize,
    /// One row per loss rate, all at `loss_shards` shards.
    pub loss_cells: Vec<LossCell>,
    /// Whether every lossy run converged to the perfect digests.
    pub lossy_converges: bool,
    /// One row per seeded crash schedule, all at `loss_shards` shards.
    #[serde(default)]
    pub crash_cells: Vec<CrashCell>,
    /// Whether every crashed run converged to the crash-free digests.
    #[serde(default)]
    pub crashes_converge: bool,
}

impl FederationReport {
    /// The headline claim: the 1-shard cell byte-identical to serial,
    /// every cell's fates balanced at run time, and the best cell at
    /// least `factor`x faster than serial.
    pub fn scale_ok(&self, factor: f64) -> bool {
        self.one_shard_matches_serial && self.best_speedup >= factor
    }

    /// Renders the sweep as an aligned table plus one per-shard
    /// queue-wait summary line per cell.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} arrivals, serial {:.0} ms ({:.0} req/s), digest {:#018x}\n",
            self.arrivals, self.serial_wall_ms, self.serial_rps, self.serial_digest
        );
        let mut table = TextTable::new(&[
            ("shards", 6, Align::Right),
            ("wall ms", 9, Align::Right),
            ("req/s", 7, Align::Right),
            ("speedup", 7, Align::Right),
            ("admitted", 8, Align::Right),
            ("fwd", 5, Align::Right),
            ("handoffs", 8, Align::Right),
            ("aborted", 7, Align::Right),
            ("p99 wait us", 12, Align::Right),
            ("serial", 6, Align::Right),
        ]);
        for c in &self.cells {
            table.row(&[
                c.shards.to_string(),
                format!("{:.0}", c.wall_ms),
                format!("{:.0}", c.sustained_rps),
                format!("{:.2}x", c.speedup),
                c.admitted.to_string(),
                c.stats.forwarded.to_string(),
                c.stats.handoffs_committed.to_string(),
                c.stats.handoffs_aborted.to_string(),
                p99_us(&c.stages.queue_wait_us).to_string(),
                (if c.shards == 1 {
                    match_cell(c.matches_serial)
                } else {
                    "-"
                })
                .to_string(),
            ]);
        }
        out.push_str(&table.finish());
        for c in &self.cells {
            let _ = writeln!(
                out,
                "{} shard(s): digest {:#018x}, waits {}",
                c.shards,
                c.combined_digest,
                shard_wait_summary(&c.stages)
            );
        }
        let _ = writeln!(
            out,
            "best speedup {:.2}x over serial; 1-shard cell {}",
            self.best_speedup,
            if self.one_shard_matches_serial {
                "byte-identical to the serial reference"
            } else {
                "DIVERGED from the serial reference"
            }
        );
        if !self.loss_cells.is_empty() {
            let _ = writeln!(
                out,
                "lossy transport at {} shards (seeded drop/dup/reorder):",
                self.loss_shards
            );
            let mut table = TextTable::new(&[
                ("loss", 5, Align::Right),
                ("wall ms", 9, Align::Right),
                ("dropped", 7, Align::Right),
                ("retx", 6, Align::Right),
                ("dup-drop", 8, Align::Right),
                ("reorder", 7, Align::Right),
                ("acks", 7, Align::Right),
                ("conv max ms", 12, Align::Right),
                ("conv avg ms", 12, Align::Right),
                ("converged", 9, Align::Right),
            ]);
            for c in &self.loss_cells {
                table.row(&[
                    format!("{:.2}", c.loss),
                    format!("{:.0}", c.wall_ms),
                    c.drops.to_string(),
                    c.retransmissions.to_string(),
                    c.duplicate_drops.to_string(),
                    c.reorder_buffered.to_string(),
                    c.acks_sent.to_string(),
                    format!("{:.3}", c.convergence_delay_us_max as f64 / 1e3),
                    format!("{:.3}", c.convergence_delay_us_mean / 1e3),
                    match_cell(c.digests_match_perfect).to_string(),
                ]);
            }
            out.push_str(&table.finish());
        }
        if !self.crash_cells.is_empty() {
            let _ = writeln!(
                out,
                "shard crashes at {} shards (snapshot + WAL rebuild):",
                self.loss_shards
            );
            let mut table = TextTable::new(&[
                ("crashes", 7, Align::Right),
                ("loss", 5, Align::Right),
                ("wall ms", 9, Align::Right),
                ("copies eaten", 12, Align::Right),
                ("wal records", 11, Align::Right),
                ("replayed", 8, Align::Right),
                ("replay max", 10, Align::Right),
                ("replay avg", 10, Align::Right),
                ("retx", 6, Align::Right),
                ("converged", 9, Align::Right),
            ]);
            for c in &self.crash_cells {
                table.row(&[
                    c.crashes.to_string(),
                    format!("{:.2}", c.loss),
                    format!("{:.0}", c.wall_ms),
                    c.crash_copies_dropped.to_string(),
                    c.wal_records.to_string(),
                    c.wal_replayed.to_string(),
                    c.replay_depth_max.to_string(),
                    format!("{:.1}", c.replay_depth_mean),
                    c.retransmissions.to_string(),
                    match_cell(c.digests_match_perfect).to_string(),
                ]);
            }
            out.push_str(&table.finish());
        }
        out
    }
}

/// Runs the lossy-transport sweep: the same campaign at `shards`
/// shards, once perfectly and once per loss rate, asserting the
/// convergence contract (identical per-shard digests) in every cell.
pub fn run_federation_loss_sweep(arrivals: usize, shards: usize, losses: &[f64]) -> Vec<LossCell> {
    let cfg = federation_config(arrivals, shards);
    let schedule = cfg.schedule();
    let perfect = run_federation_campaign_with(&cfg, &schedule)
        .expect("the perfect reference holds its invariants");
    losses
        .iter()
        .map(|&loss| {
            let lc = LossConfig::lossy(0x1cdc_2002 ^ loss.to_bits(), loss)
                .align_bursts(&cfg.shard_partitions);
            let wall = Instant::now();
            let (outcome, loss_stats) = run_federation_campaign_lossy(&cfg, &schedule, lc)
                .expect("the lossy campaign holds its invariants");
            let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
            let digests_match_perfect = outcome.shard_digests() == perfect.shard_digests();
            let released = outcome.stats.messages.max(1);
            LossCell {
                loss,
                wall_ms,
                drops: loss_stats.drops + loss_stats.burst_drops,
                dups: loss_stats.dups,
                delays: loss_stats.delays,
                retransmissions: outcome.stats.retransmissions,
                duplicate_drops: outcome.stats.duplicate_drops,
                acks_sent: outcome.stats.acks_sent,
                reorder_buffered: outcome.stats.reorder_buffered,
                reorder_depth_max: outcome.stats.reorder_depth_max,
                convergence_delay_us_max: outcome.stats.convergence_delay_us_max,
                convergence_delay_us_mean: outcome.stats.convergence_delay_us_total as f64
                    / released as f64,
                digests_match_perfect,
            }
        })
        .collect()
}

/// Runs the shard-crash sweep: the same campaign at `shards` shards,
/// once crash-free as the reference, then once per `(crashes, loss)`
/// cell with a seeded [`ShardCrashPlan`] merged into the schedule
/// (and, when `loss > 0`, the seeded drop/dup/reorder injector layered
/// on top). Every cell hard-asserts the durability contract: the
/// crashed shards rebuild from snapshot + WAL and drain to the
/// crash-free run's exact per-shard digests.
pub fn run_federation_crash_sweep(
    arrivals: usize,
    shards: usize,
    cells: &[(usize, f64)],
) -> Vec<CrashCell> {
    let base_cfg = federation_config(arrivals, shards);
    let perfect = run_federation_campaign_with(&base_cfg, &base_cfg.schedule())
        .expect("the crash-free reference holds its invariants");
    cells
        .iter()
        .map(|&(crashes, loss)| {
            let mut cfg = federation_config(arrivals, shards);
            cfg.crashes = ShardCrashPlan {
                crashes,
                shards,
                horizon_h: cfg.base.horizon_h,
                outage_h: 0.1,
                ..ShardCrashPlan::default()
            };
            let schedule = cfg.schedule();
            let wall = Instant::now();
            let outcome = if loss > 0.0 {
                let lc = LossConfig::lossy(0x1cdc_2002 ^ loss.to_bits(), loss)
                    .align_bursts(&cfg.shard_partitions);
                run_federation_campaign_lossy(&cfg, &schedule, lc)
                    .expect("the crashed lossy campaign holds its invariants")
                    .0
            } else {
                run_federation_campaign_with(&cfg, &schedule)
                    .expect("the crashed campaign holds its invariants")
            };
            let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
            let digests_match_perfect = outcome.shard_digests() == perfect.shard_digests();
            assert!(
                digests_match_perfect,
                "a crashed federation run ({crashes} crashes, loss {loss}) \
                 diverged from the crash-free digests"
            );
            let depths = &outcome.stats.wal_replay_depths;
            CrashCell {
                crashes,
                loss,
                wall_ms,
                shard_crashes: outcome.stats.shard_crashes,
                crash_copies_dropped: outcome.stats.crash_copies_dropped,
                wal_records: outcome.stats.wal_records,
                wal_replayed: outcome.stats.wal_replayed,
                snapshot_restores: outcome.stats.snapshot_restores,
                replay_depth_max: depths.iter().copied().max().unwrap_or(0),
                replay_depth_mean: outcome.stats.wal_replayed as f64
                    / outcome.stats.shard_crashes.max(1) as f64,
                retransmissions: outcome.stats.retransmissions,
                digests_match_perfect,
            }
        })
        .collect()
}

/// Runs the full sweep: one serial reference, one federated cell per
/// shard count, then the lossy-transport sweep at `loss_shards`
/// shards. The fault schedule (base + mobility overlay) is derived
/// once and shared by every run, so all cells face the identical
/// workload.
pub fn run_federation_bench(
    arrivals: usize,
    shard_counts: &[usize],
    loss_shards: usize,
    losses: &[f64],
    crash_cells_spec: &[(usize, f64)],
) -> FederationReport {
    let serial_cfg = federation_config(arrivals, 1);
    let schedule = serial_cfg.schedule();
    let wall = Instant::now();
    let serial = run_fault_campaign_with(&serial_cfg.base, &schedule)
        .expect("the federation campaign holds its invariants serially");
    let serial_wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let serial_rps = arrivals as f64 / (serial_wall_ms / 1e3).max(1e-9);

    let mut cells = Vec::with_capacity(shard_counts.len());
    let mut best_speedup: f64 = 0.0;
    let mut one_shard_matches = true;
    for &shards in shard_counts {
        let cfg = federation_config(arrivals, shards);
        let wall = Instant::now();
        let outcome = run_federation_campaign_with(&cfg, &schedule)
            .expect("the federated campaign holds its invariants");
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        assert!(outcome.fates_balance(), "shard fate ledgers must balance");
        let matches_serial = shards != 1
            || (outcome.shards[0].report == serial.report && outcome.shards[0].log == serial.log);
        if shards == 1 {
            one_shard_matches &= matches_serial;
        }
        let mut stages = StageTimes::default();
        for (s, shard) in outcome.shards.iter().enumerate() {
            stages.absorb_shard(s, &shard.stages);
        }
        let speedup = serial_wall_ms / wall_ms.max(1e-9);
        best_speedup = best_speedup.max(speedup);
        cells.push(FederationCell {
            shards,
            wall_ms,
            sustained_rps: arrivals as f64 / (wall_ms / 1e3).max(1e-9),
            speedup,
            admitted: outcome.total_admitted(),
            shard_digests: outcome.shard_digests(),
            combined_digest: outcome.combined_digest,
            matches_serial,
            stats: outcome.stats,
            stages,
        });
    }
    let loss_cells = run_federation_loss_sweep(arrivals, loss_shards, losses);
    let lossy_converges = loss_cells.iter().all(|c| c.digests_match_perfect);
    let crash_cells = run_federation_crash_sweep(arrivals, loss_shards, crash_cells_spec);
    let crashes_converge = crash_cells.iter().all(|c| c.digests_match_perfect);
    FederationReport {
        schema_version: ubiqos::BENCH_SCHEMA_VERSION,
        arrivals,
        serial_wall_ms,
        serial_rps,
        serial_digest: serial.report.log_digest,
        cells,
        best_speedup,
        one_shard_matches_serial: one_shard_matches,
        loss_shards,
        loss_cells,
        lossy_converges,
        crash_cells,
        crashes_converge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_pins_one_shard_to_serial() {
        let report = run_federation_bench(200, &[1, 2], 2, &[0.1], &[(2, 0.0), (2, 0.1)]);
        assert!(report.one_shard_matches_serial, "{}", report.render());
        assert!(report.lossy_converges, "{}", report.render());
        assert!(report.crashes_converge, "{}", report.render());
        assert_eq!(report.cells.len(), 2);
        assert_eq!(report.loss_cells.len(), 1);
        assert_eq!(report.crash_cells.len(), 2);
        for c in &report.crash_cells {
            assert!(c.shard_crashes >= 1, "{}", report.render());
            assert_eq!(c.snapshot_restores, c.shard_crashes);
            assert!(c.wal_records > 0);
        }
        assert!(
            report.render().contains("shard crashes at 2 shards"),
            "{}",
            report.render()
        );
        assert!(
            report.loss_cells[0].retransmissions > 0,
            "10% loss must force recovery: {}",
            report.render()
        );
        assert_eq!(report.schema_version, ubiqos::BENCH_SCHEMA_VERSION);
        assert_eq!(report.cells[0].shard_digests, vec![report.serial_digest]);
        assert_eq!(report.cells[1].shard_digests.len(), 2);
        // Admission totals agree across shard counts: the split changes
        // who resolves a request, never whether it is resolved.
        let rendered = report.render();
        assert!(rendered.contains("byte-identical"), "{rendered}");
        assert!(rendered.contains("2 shard(s): digest"), "{rendered}");
        assert!(
            rendered.contains("lossy transport at 2 shards"),
            "{rendered}"
        );
    }

    #[test]
    fn federation_config_is_a_sharded_overload() {
        let cfg = federation_config(1000, 8);
        assert_eq!(cfg.base.requests, 1000);
        assert_eq!(cfg.base.faults, 0);
        assert_eq!(cfg.shards, 8);
        assert!(cfg.base.devices >= 2 * cfg.shards);
        assert!(cfg.mobility.moves > 0, "mobility keeps handoffs flowing");
        cfg.validate();
    }
}
