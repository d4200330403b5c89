//! Hand-rolled batched pipeline runtime: overlapping the
//! discover → compose → place → download admission pipeline across
//! sessions without an external async executor.
//!
//! # The runtime
//!
//! The serial DES loop in [`crate::faults`] commits one event at a time:
//! each arrival speculates its configuration pipeline at its commit slot
//! (or adopts the shard core's memoised outcome for its key), so the
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
//! This module only adds a priming policy: `next_event`'s batch fill
//! and the parallel speculation of a batch's arrivals. Every arrival,
//! serial, batched or federated, admits through the shard core's memo.
//!
//! # Freshness (why adopted speculation is exact, not approximate)
//!
//! A memoised outcome is adopted only while nothing configuration reads
//! has changed since it was computed. The shard core owns that rule: its
//! arms clear the memo wherever they change configuration inputs — a
//! start that succeeds, every stop, device fault and relocation, a
//! heartbeat that reinstates a device, a lease check that suspects one,
//! a retry drain that moved sessions, and a shard restore. So at
//! adoption time
//! `speculate_configure` + `admit_speculated` is exactly
//! [`DomainServer::start_session`] decomposed — same configuration,
//! same overheads, same error, same `stale_views` accounting. A miss
//! (first arrival after a clear) simply speculates inline at commit
//! time, which *is* the serial path.
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
//! and priming. [`crate::federation`] scales the *other* axis:
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
    CampaignOutcome, FaultCampaignConfig, InvariantViolation, ShardCore, TEMPLATES,
};
use crate::overhead::ConfigOverhead;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::time::Instant;
use ubiqos::{Configuration, ConfigureError};
use ubiqos_graph::{AbstractServiceGraph, DeviceId};
use ubiqos_model::QosVector;
use ubiqos_parallel::par_map_threads;
use ubiqos_sim::{EventQueue, Request, TimedFault};

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
    /// Speculations that had to run inline at commit time (memo miss
    /// after a mid-batch mutation) — the serial path.
    pub inline_speculated: u64,
    /// Arrivals that adopted a still-fresh memo entry at commit.
    pub adopted: u64,
    /// Wholesale memo clears of a non-empty memo.
    pub invalidations: u64,
}

/// A speculated pipeline outcome: the configuration and its priced
/// overheads, or the exact error the serial admission path would raise.
pub(crate) type Speculated = Result<(Configuration, ConfigOverhead), ConfigureError>;

/// The shard core's speculation memo: at most one outcome per
/// `(application template, client device)` key, in `TEMPLATES` ×
/// devices flat slots. Only the shard core reads or clears it.
pub(crate) struct SpecMemo {
    slots: Vec<Option<Speculated>>,
    pub(crate) stats: PipelineStats,
}

impl SpecMemo {
    pub(crate) fn new(devices: usize) -> Self {
        SpecMemo {
            slots: vec![None; TEMPLATES * devices],
            stats: PipelineStats::default(),
        }
    }

    /// The slot of template `graph_index` at `client` (`slot % TEMPLATES`
    /// is the template again).
    fn slot(graph_index: usize, client: usize) -> usize {
        client * TEMPLATES + graph_index % TEMPLATES
    }

    /// Drops every entry: inputs changed, nothing computed before holds.
    pub(crate) fn clear(&mut self) {
        if self.slots.iter().any(Option::is_some) {
            self.stats.invalidations += 1;
            self.slots.fill(None);
        }
    }

    /// The outcome of an arrival of template `graph_index` at `client`:
    /// the memoised one, else a fresh (serial-path) speculation of the
    /// template graph, which `graph` builds only on that miss.
    /// Failures stay until the next clear, so a denial run costs one
    /// configuration; a success is consumed (its start clears anyway).
    pub(crate) fn take_or_speculate<'g>(
        &mut self,
        server: &DomainServer,
        graph_index: usize,
        client: usize,
        graph: impl FnOnce() -> &'g AbstractServiceGraph,
    ) -> Speculated {
        let slot = SpecMemo::slot(graph_index, client);
        let speculated = match self.slots[slot].take() {
            Some(hit) => {
                self.stats.adopted += 1;
                hit
            }
            None => {
                self.stats.inline_speculated += 1;
                let client = DeviceId::from_index(client);
                server.speculate_configure(graph(), &QosVector::new(), client, None)
            }
        };
        if let Err(e) = &speculated {
            self.slots[slot] = Some(Err(e.clone()));
        }
        speculated
    }
}

impl ShardCore {
    /// Speculates every distinct arrival key of a freshly admitted batch
    /// that the memo lacks, on `pl.threads` workers. Client devices come
    /// from the batch-start `down` set — the state each key's first
    /// commit observes unless the core clears the memo first.
    fn prime<'e>(
        &mut self,
        pl: &PipelineConfig,
        trace: &[Request],
        events: impl Iterator<Item = &'e CampaignEvent>,
    ) {
        self.memo.stats.batches += 1;
        let up: Vec<usize> = self.up_devices().collect();
        let mut missing: Vec<usize> = Vec::new();
        for ev in events {
            if let CampaignEvent::Arrival(i) = *ev {
                let client = client_draw(self.shard.cfg.seed, i, &up);
                let slot = SpecMemo::slot(trace[i].graph_index, client);
                if self.memo.slots[slot].is_none() && !missing.contains(&slot) {
                    missing.push(slot);
                }
            }
        }
        if missing.is_empty() {
            return;
        }
        self.memo.stats.primed += missing.len() as u64;
        // Configured threads are capped at the machine's parallelism:
        // spawning eight workers on one core is pure overhead, and the
        // worker count is wall-clock-only — commit order (and therefore
        // every observable output) never depends on it.
        let workers = pl
            .threads
            .min(std::thread::available_parallelism().map_or(1, |n| n.get()));
        let server = &self.shard.server;
        let results = par_map_threads(workers, &missing, |_, &slot| {
            let (_, graph) = app_template(slot % TEMPLATES);
            let client = DeviceId::from_index(slot / TEMPLATES);
            server.speculate_configure(&graph, &QosVector::new(), client, None)
        });
        for (slot, result) in missing.into_iter().zip(results) {
            self.memo.slots[slot] = Some(result);
        }
    }
}

/// Pulls the next event to commit, refilling the admission batch from
/// the DES queue when it runs dry: one event in serial mode (`pipeline
/// == None`), else up to `batch_size` events bounded by the lease-check
/// horizon (module docs), whose arrivals are primed before the first
/// commit.
pub(crate) fn next_event(
    pending: &mut VecDeque<(f64, CampaignEvent)>,
    queue: &mut EventQueue<CampaignEvent>,
    pipeline: Option<&PipelineConfig>,
    trace: &[Request],
    core: &mut ShardCore,
    batch_wall: &mut Instant,
) -> Option<(f64, CampaignEvent)> {
    if pending.is_empty() {
        let cfg = &core.shard.cfg;
        let max = pipeline.map_or(1, |pl| pl.batch_size.max(1));
        let imperfect = !cfg.perfect_detection();
        let mut horizon = f64::INFINITY;
        while pending.len() < max {
            match queue.peek_time() {
                Some(t) if t <= horizon => {
                    let (at_h, ev) = queue.pop().expect("peeked event pops");
                    if imperfect {
                        if let CampaignEvent::Heartbeat(_) = ev {
                            horizon = horizon.min(at_h + cfg.detection_grace_h);
                        }
                    }
                    pending.push_back((at_h, ev));
                }
                _ => break,
            }
        }
        if let Some(pl) = pipeline {
            if !pending.is_empty() {
                core.shard.server.record_batch_size(pending.len());
                core.prime(pl, trace, pending.iter().map(|(_, e)| e));
                *batch_wall = Instant::now();
            }
        }
    }
    let next = pending.pop_front();
    if next.is_some() && pipeline.is_some() {
        core.shard
            .server
            .record_queue_wait_us(u64::try_from(batch_wall.elapsed().as_micros()).unwrap_or(0));
    }
    next
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
    use crate::durability::DurabilityConfig;
    use crate::faults::{build_space, run_fault_campaign, Arrival, Shard};

    #[test]
    fn a_shard_restore_drops_the_memo() {
        let cfg = FaultCampaignConfig::default();
        let durable = DurabilityConfig::default();
        let mut core = ShardCore::new(Shard::new(build_space(cfg.devices), cfg), 0, &durable);
        // Plant an outcome the fresh space would not produce: only the
        // restore's clear keeps the next same-key arrival from adopting
        // it.
        core.memo.slots[SpecMemo::slot(0, 1)] = Some(Err(ConfigureError::StaleView { device: 1 }));
        let rebuilt = core.wal.recover(core.grace_ms);
        core.restore(rebuilt);
        let a = Arrival {
            req: 0,
            graph_index: 0,
            client_local: 1,
            via: None,
        };
        core.arrival(a, 0.5).expect("a fresh space admits");
        assert_eq!(core.shard.report.parked, 0, "the planted view was adopted");
        assert_eq!(core.shard.server.stage_times().configures, 1);
    }

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
        let memo = serial.pipeline.expect("serial runs carry memo stats");
        assert_eq!(memo.batches, 0, "the serial loop admits no batches");
        assert_eq!(
            memo.adopted + memo.inline_speculated,
            u64::from(serial.report.arrivals),
            "every serial arrival either adopts or speculates inline: {memo:?}"
        );
        assert_eq!(serial.stages.batch_sizes.total(), 0);
        assert_eq!(serial.stages.queue_wait_us.total(), 0);
    }
}
