//! Hand-rolled batched pipeline runtime: overlapping the
//! discover → compose → place → download admission pipeline across
//! sessions without an external async executor.
//!
//! # The runtime
//!
//! The serial DES loop in [`crate::faults`] commits one event at a time:
//! each arrival runs its whole configuration pipeline inline, so the
//! composition cache and the parallel solver sit behind a strictly
//! sequential admission path. This module batches that loop. Events are
//! *admitted* from the DES queue in batches (see the horizon rule
//! below); each arrival in the batch becomes a small session state
//! machine:
//!
//! ```text
//!           ┌──────────── speculative, &self, any worker ───────────┐
//! Queued ──▶ Discovered ──▶ Composed ──▶ Placed ──┐
//!                                                 ▼
//!                 (deterministic commit order: virtual time, then
//!                  DES sequence number = session/arrival id)
//!                                                 │
//!                             Committed: download ▶ charge ▶ admit
//! ```
//!
//! The speculative stages (discover, compose, place) only need `&self`
//! on the [`DomainServer`], so independent sessions' stages run
//! interleaved on the existing worker pool
//! ([`ubiqos_parallel::par_map_threads`]). The *commit* stage — the only
//! stage that mutates device capacity, downloads code, advances virtual
//! time, or writes the log — replays events one at a time in exactly
//! the order the serial loop would have popped them (virtual time, ties
//! broken by the DES queue's monotone sequence numbers, which encode
//! arrival/session id order). Placements contending for the same device
//! capacity are therefore serialized through the same deterministic
//! commit order as the serial runtime, and admission decisions and
//! resource accounting stay **byte-identical** to it.
//!
//! # Freshness (why adopted speculation is exact, not approximate)
//!
//! A speculated outcome is adopted only while it is *fresh*: no event
//! that mutates configuration inputs (a capacity charge or refund, a
//! fault, a detector suspicion or reinstatement, a retry-queue
//! admission) has committed since it was computed. The `SpecTable`
//! is invalidated wholesale on every such mutation, so at adoption
//! time `speculate_configure` + `admit_speculated` is exactly
//! [`DomainServer::start_session`] decomposed — same configuration,
//! same overheads, same error, same `stale_views` accounting. A miss
//! (first arrival after an invalidation) simply speculates inline at
//! commit time, which *is* the serial path.
//!
//! # The batch horizon rule
//!
//! The only events the campaign loop schedules *during* execution are
//! lease checks: a heartbeat at `t` schedules an anti-entropy sweep at
//! `t + grace`. Everything else (arrivals, departures, faults,
//! heartbeats) is scheduled up front. So a batch may safely pull every
//! queued event up to the smallest `t + grace` over the heartbeats it
//! has already pulled — nothing the batch will commit can schedule an
//! event *before* that horizon, and an in-loop lease check scheduled
//! *at* the horizon always carries a later sequence number than any
//! already-queued event at the same instant (setup schedules precede
//! all in-loop schedules), so pulling horizon-time events into the
//! batch preserves the serial pop order exactly. Under perfect
//! detection no in-loop schedules exist at all and batches are bounded
//! only by [`PipelineConfig::batch_size`].
//!
//! # Relation to the federated runtime
//!
//! Both runtimes drive the same shard core (see [`crate::faults`]):
//! this loop runs one core over the whole space and only adds batching
//! and speculation. [`crate::federation`] scales the *other* axis:
//! instead of overlapping stages of one domain's admission loop, it
//! runs one core per shard and serializes *cross-shard* effects
//! through the same `(virtual time, sequence number)` total order this
//! module uses for commits. The two runtimes also share the
//! [`crate::profiler::StageTimes`] queue-wait accounting — here the
//! histogram samples are wall-clock waits between batch admission and
//! commit; there they are virtual message-delivery delays recorded into
//! per-shard slots (`shard_queue_wait_us`). Both preserve the same
//! byte-identity contract against the serial loop at their degenerate
//! setting (`batch_size: 1` / one shard).

use crate::domain_server::DomainServer;
use crate::faults::{
    app_template, campaign_schedule, client_draw, run_fault_campaign_impl, CampaignEvent,
    CampaignOutcome, FaultCampaignConfig, InvariantViolation, ShardCore,
};
use crate::overhead::ConfigOverhead;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use ubiqos::{Configuration, ConfigureError};
use ubiqos_graph::{AbstractServiceGraph, DeviceId};
use ubiqos_model::QosVector;
use ubiqos_parallel::par_map_threads;
use ubiqos_sim::{Request, TimedFault};

/// Knobs of the batched pipeline runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Maximum events admitted per batch (≥ 1; `1` degenerates to the
    /// serial loop plus bookkeeping).
    pub batch_size: usize,
    /// Worker threads for the speculative stage fan-out. Explicit —
    /// rather than read from `UBIQOS_THREADS` — so one process can
    /// sweep thread counts without mutating its environment.
    pub threads: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            batch_size: 64,
            threads: ubiqos_parallel::thread_count(),
        }
    }
}

/// Wall-clock-free counters describing how much pipeline work the
/// batched runtime overlapped (and how often mutations forced it to
/// start over). Serialized into `BENCH_scale.json`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineStats {
    /// Batches admitted from the DES queue.
    pub batches: u64,
    /// Speculative configurations computed at batch admission, on the
    /// worker pool, before their commit slot.
    pub primed: u64,
    /// Speculations that had to run inline at commit time (table miss
    /// after a mid-batch mutation) — the serial path.
    pub inline_speculated: u64,
    /// Arrivals that adopted a still-fresh table entry at commit.
    pub adopted: u64,
    /// Wholesale table invalidations triggered by mutating events.
    pub invalidations: u64,
}

/// A speculated pipeline outcome: the configuration and its priced
/// overheads, or the exact error the serial admission path would raise.
pub(crate) type Speculated = Result<(Configuration, ConfigOverhead), ConfigureError>;

/// The batched runtime's speculation table: one entry per distinct
/// `(application template, client device)` pair, each entry a session
/// pipeline that has already run its speculative stages and is waiting
/// for a commit slot (or holding the failure later same-key arrivals
/// will reuse).
#[derive(Default)]
pub(crate) struct SpecTable {
    entries: BTreeMap<(usize, usize), Speculated>,
    pub(crate) stats: PipelineStats,
}

impl SpecTable {
    /// Drops every entry. Called after each committed event that
    /// mutates configuration inputs; entries computed before the
    /// mutation can no longer be adopted.
    pub(crate) fn invalidate(&mut self) {
        if !self.entries.is_empty() {
            self.stats.invalidations += 1;
            self.entries.clear();
        }
    }

    /// Runs the speculative stages for every distinct arrival key in
    /// the freshly admitted batch (skipping keys still cached from
    /// earlier batches), fanned out on `pl.threads` workers. Client
    /// devices are derived from the batch-start `down` set — exactly
    /// the state every key's first commit will observe unless a
    /// mutation invalidates the table first, in which case the stale
    /// entry is dropped before it could be adopted.
    pub(crate) fn prime<'e>(
        &mut self,
        core: &ShardCore,
        pl: &PipelineConfig,
        trace: &[Request],
        events: impl Iterator<Item = &'e CampaignEvent>,
    ) {
        self.stats.batches += 1;
        let up: Vec<usize> = core.up_devices().collect();
        let mut missing: Vec<(usize, usize)> = Vec::new();
        for ev in events {
            let CampaignEvent::Arrival(i) = *ev else {
                continue;
            };
            let key = (
                trace[i].graph_index,
                client_draw(core.shard.cfg.seed, i, &up),
            );
            if !self.entries.contains_key(&key) && !missing.contains(&key) {
                missing.push(key);
            }
        }
        if missing.is_empty() {
            return;
        }
        self.stats.primed += missing.len() as u64;
        // Configured threads are capped at the machine's parallelism:
        // spawning eight workers on one core is pure overhead, and the
        // worker count is wall-clock-only — commit order (and therefore
        // every observable output) never depends on it.
        let workers = pl
            .threads
            .min(std::thread::available_parallelism().map_or(1, |n| n.get()));
        let server = &core.shard.server;
        let results = par_map_threads(workers, &missing, |_, &(graph_index, client)| {
            let (_, graph) = app_template(graph_index);
            server.speculate_configure(
                &graph,
                &QosVector::new(),
                DeviceId::from_index(client),
                None,
            )
        });
        for (key, result) in missing.into_iter().zip(results) {
            self.entries.insert(key, result);
        }
    }

    /// Hands the commit stage its speculated outcome: a fresh table
    /// entry when one survives, otherwise an inline (serial-path)
    /// speculation. Failure outcomes are retained — they stay exact
    /// until the next mutation, so a long denial run costs one
    /// configuration instead of one per arrival.
    pub(crate) fn take_or_speculate(
        &mut self,
        server: &DomainServer,
        key: (usize, usize),
        graph: &AbstractServiceGraph,
    ) -> Speculated {
        if let Some(hit) = self.entries.get(&key) {
            self.stats.adopted += 1;
            if hit.is_err() {
                // Failure entries stay put for the next same-key arrival
                // (a long denial run costs one configuration, not one
                // per arrival); success entries are consumed below.
                return hit.clone();
            }
            return self.entries.remove(&key).expect("entry just found");
        }
        self.stats.inline_speculated += 1;
        let speculated =
            server.speculate_configure(graph, &QosVector::new(), DeviceId::from_index(key.1), None);
        if speculated.is_err() {
            self.entries.insert(key, speculated.clone());
        }
        speculated
    }
}

/// Runs one fault-injection campaign on the batched pipeline runtime.
///
/// The observable outcome — event log, digest, and every
/// [`ubiqos::FaultReport`] counter — is byte-identical to
/// [`crate::faults::run_fault_campaign`] on the same config at every
/// `(batch_size, threads)` setting; only wall-clock time and the
/// [`CampaignOutcome::pipeline`] / stage-histogram metadata differ.
/// `tests/pipeline_equivalence.rs` pins this property across batch
/// sizes and thread counts, faults and detector suspicion included.
///
/// # Errors
///
/// Returns the first [`InvariantViolation`], like the serial runtime.
///
/// # Panics
///
/// See [`crate::faults::run_fault_campaign`].
pub fn run_fault_campaign_batched(
    cfg: &FaultCampaignConfig,
    pipeline: &PipelineConfig,
) -> Result<CampaignOutcome, InvariantViolation> {
    run_fault_campaign_impl(cfg, &campaign_schedule(cfg), Some(pipeline))
}

/// [`run_fault_campaign_batched`] against an explicit fault schedule —
/// the batched counterpart of
/// [`crate::faults::run_fault_campaign_with`].
///
/// # Errors
///
/// Returns the first [`InvariantViolation`].
///
/// # Panics
///
/// See [`crate::faults::run_fault_campaign`].
pub fn run_fault_campaign_batched_with(
    cfg: &FaultCampaignConfig,
    schedule: &[TimedFault],
    pipeline: &PipelineConfig,
) -> Result<CampaignOutcome, InvariantViolation> {
    run_fault_campaign_impl(cfg, schedule, Some(pipeline))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::run_fault_campaign;

    #[test]
    fn batched_default_campaign_matches_pinned_serial_digest() {
        let cfg = FaultCampaignConfig::default();
        let serial = run_fault_campaign(&cfg).expect("serial holds");
        for batch_size in [1, 4, 64] {
            let batched = run_fault_campaign_batched(
                &cfg,
                &PipelineConfig {
                    batch_size,
                    threads: 2,
                },
            )
            .expect("batched holds");
            assert_eq!(serial.log, batched.log);
            assert_eq!(serial.report, batched.report);
            // The serial digest itself is pinned in
            // tests/fault_injection.rs; equality transfers the pin.
            assert_eq!(batched.report.log_digest, 0x2385_725a_4716_6d1b);
        }
    }

    #[test]
    fn batched_imperfect_detection_matches_serial() {
        let cfg = FaultCampaignConfig {
            detection_grace_h: 1.0,
            heartbeat_period_h: 0.25,
            partitions: 2,
            partition_max: 2,
            heartbeat_loss: 0.3,
            scope_max: 2,
            ..FaultCampaignConfig::default()
        };
        let serial = run_fault_campaign(&cfg).expect("serial holds");
        let batched = run_fault_campaign_batched(
            &cfg,
            &PipelineConfig {
                batch_size: 32,
                threads: 2,
            },
        )
        .expect("batched holds");
        assert_eq!(serial.log, batched.log);
        assert_eq!(serial.report, batched.report);
        assert!(serial.report.suspicions > 0, "detector actually fired");
    }

    #[test]
    fn batched_runtime_reports_overlap_stats() {
        let cfg = FaultCampaignConfig::default();
        let batched = run_fault_campaign_batched(
            &cfg,
            &PipelineConfig {
                batch_size: 64,
                threads: 2,
            },
        )
        .expect("batched holds");
        let stats = batched.pipeline.expect("batched runs carry stats");
        assert!(stats.batches > 0);
        assert_eq!(
            stats.adopted + stats.inline_speculated,
            u64::from(batched.report.arrivals),
            "every arrival either adopts a speculation or speculates inline: {stats:?}"
        );
        assert!(
            batched.stages.batch_sizes.total() == stats.batches,
            "one batch-size sample per batch"
        );
        assert!(batched.stages.queue_wait_us.total() > 0);
        let serial = run_fault_campaign(&cfg).expect("serial holds");
        assert!(serial.pipeline.is_none(), "serial runs carry no stats");
        assert_eq!(serial.stages.batch_sizes.total(), 0);
        assert_eq!(serial.stages.queue_wait_us.total(), 0);
    }
}
