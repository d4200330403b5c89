//! The `federation` workload: a four-shard federated campaign over a
//! lossy transport with shard crashes, plus the timing `Transport`
//! decorator the traced run measures the message fabric with.

use crate::campaign::{
    admission_layer, eventlog_layer, mean_stages, recovery_layers, replay_des, request_trace,
    stage_layers, NO_SWEEPS,
};
use crate::report::RunReport;
use crate::stats::{measure_setup, median, mix, share, sub_seed, timed, timed_calls};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;
use ubiqos_runtime::faults::build_space;
use ubiqos_runtime::{
    run_federation_campaign_over, ChannelTransport, Envelope, FaultCampaignConfig,
    FederationConfig, FederationOutcome, InvariantViolation, LossConfig, LossStats, LossyTransport,
    ShardPartition, StageTimes, Transport,
};
use ubiqos_sim::{MobilityWaveConfig, ShardCrashPlan, TimedFault};

const SHARDS: usize = 4;
const HORIZON_H: f64 = 1000.0;
/// Per-copy drop rate of the lossy transport.
const LOSS: f64 = 0.1;
/// Inputs a run rotates through: twice the campaigns' count, because a
/// federated run's time depends most on its draw (crash instants,
/// mobility, partitions) and only about ten calls fit into a run.
const SUB_SEEDS: u64 = 8;

/// `federation`: 20 000 arrivals over 1000 hours on 24 devices split
/// across four shards, 256 mobility moves, two shard partitions, and four
/// shard crashes (0.1 h outages) recovered from snapshot plus WAL.
pub fn federation_config(seed: u64) -> FederationConfig {
    let devices = 24;
    let partition_at = |salt: u64| 100.0 + (mix(seed, salt) % 800) as f64;
    let (p1, p2) = (partition_at(0x9a41), partition_at(0x9a42));
    FederationConfig {
        base: FaultCampaignConfig {
            seed: mix(seed, 0xfede_0000),
            devices,
            requests: 20_000,
            horizon_h: HORIZON_H,
            faults: 0,
            invariant_stride: 64,
            ..FaultCampaignConfig::default()
        },
        shards: SHARDS,
        mobility: MobilityWaveConfig {
            seed: mix(seed, 0xfede_0001),
            moves: 256,
            waves: 4,
            horizon_h: HORIZON_H,
            devices,
            ..MobilityWaveConfig::default()
        },
        shard_partitions: vec![
            ShardPartition {
                shard: 1,
                from_h: p1,
                to_h: p1 + 0.2,
            },
            ShardPartition {
                shard: 2,
                from_h: p2,
                to_h: p2 + 0.2,
            },
        ],
        crashes: ShardCrashPlan {
            seed: mix(seed, 0xfede_0002),
            crashes: 4,
            shards: SHARDS,
            horizon_h: HORIZON_H,
            outage_h: 0.1,
        },
        ..FederationConfig::default()
    }
}

/// Counters of a [`TimingTransport`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TransportCounters {
    /// `send` calls.
    pub sends: u64,
    /// `drain` calls.
    pub drains: u64,
    /// Wall time spent inside the wrapped transport, in ns.
    pub nanos: u128,
}

/// A `Transport` decorator that forwards every call to the transport it
/// wraps, unchanged, and counts and times the calls.
pub struct TimingTransport {
    inner: Box<dyn Transport>,
    counters: Rc<RefCell<TransportCounters>>,
}

impl TimingTransport {
    /// Wraps `inner`; the returned handle reads the counters after the
    /// campaign consumed the transport.
    pub fn new(inner: Box<dyn Transport>) -> (Self, Rc<RefCell<TransportCounters>>) {
        let counters = Rc::new(RefCell::new(TransportCounters::default()));
        (
            TimingTransport {
                inner,
                counters: Rc::clone(&counters),
            },
            counters,
        )
    }
}

impl Transport for TimingTransport {
    fn send(&mut self, env: Envelope) {
        let start = Instant::now();
        self.inner.send(env);
        let mut c = self.counters.borrow_mut();
        c.nanos += start.elapsed().as_nanos();
        c.sends += 1;
    }

    fn drain(&mut self, shard: usize) -> Vec<Envelope> {
        let start = Instant::now();
        let out = self.inner.drain(shard);
        let mut c = self.counters.borrow_mut();
        c.nanos += start.elapsed().as_nanos();
        c.drains += 1;
        out
    }
}

/// The federation workload's inputs.
pub struct Federation {
    /// The workload config.
    pub cfg: FederationConfig,
    /// Its merged schedule (base, mobility waves, shard crashes).
    pub schedule: Vec<TimedFault>,
    /// The lossy-transport schedule, bursts aligned with the partitions.
    pub loss: LossConfig,
}

/// Set-up: derives the merged schedule and the loss schedule, and
/// generates the request trace and builds the global space as the
/// campaign does when it starts.
pub fn setup(seed: u64) -> Federation {
    let cfg = federation_config(seed);
    let schedule = cfg.schedule();
    let loss = LossConfig::lossy(mix(seed, 0x1055), LOSS).align_bursts(&cfg.shard_partitions);
    black_box(request_trace(&cfg.base));
    black_box(build_space(cfg.base.devices));
    Federation {
        cfg,
        schedule,
        loss,
    }
}

/// What one federated call returned.
pub struct Call {
    /// The campaign outcome, or the first broken invariant.
    pub outcome: Result<FederationOutcome, InvariantViolation>,
    /// Injection counters of the lossy transport (zero without loss).
    pub loss: LossStats,
    /// Decorator counters (zero when untimed).
    pub transport: TransportCounters,
}

/// Runs `cfg` over `schedule`: through the lossy transport when `loss`
/// is given, over the bare channels otherwise, and inside the timing
/// decorator when `timed` is set.
pub fn call(
    cfg: &FederationConfig,
    schedule: &[TimedFault],
    loss: Option<&LossConfig>,
    timed: bool,
) -> Call {
    let channels: Box<dyn Transport> = Box::new(ChannelTransport::new(cfg.shards));
    let (fabric, loss_handle): (Box<dyn Transport>, _) = match loss {
        Some(lc) => {
            let lossy = LossyTransport::new(channels, lc.clone());
            let handle = lossy.stats_handle();
            (Box::new(lossy), Some(handle))
        }
        None => (channels, None),
    };
    let (fabric, counters): (Box<dyn Transport>, _) = if timed {
        let (t, c) = TimingTransport::new(fabric);
        (Box::new(t), Some(c))
    } else {
        (fabric, None)
    };
    let outcome = run_federation_campaign_over(cfg, schedule, fabric);
    Call {
        outcome,
        loss: loss_handle.map(|h| *h.borrow()).unwrap_or_default(),
        transport: counters.map(|c| *c.borrow()).unwrap_or_default(),
    }
}

/// The crash-free, loss-free reference: same config without the crash
/// overlay and without journaling, over the bare channels.
pub fn reference_config(cfg: &FederationConfig) -> FederationConfig {
    let mut r = cfg.clone();
    r.crashes.crashes = 0;
    r.durability.enabled = false;
    r
}

/// The untraced run: times full workload calls for `seconds`, rotating
/// through the seed's [`SUB_SEEDS`] inputs, then checks each call against
/// the crash-free, loss-free reference run of its input.
pub fn measure(seed: u64, seconds: f64) -> RunReport {
    let (inputs, setup_s) = measure_setup(|| {
        (0..SUB_SEEDS)
            .map(|k| setup(sub_seed(seed, k)))
            .collect::<Vec<_>>()
    });
    let mut next = 0;
    let (reps, rss) = timed_calls(seconds, || {
        let f = &inputs[next % inputs.len()];
        next += 1;
        let c = call(&f.cfg, &f.schedule, Some(&f.loss), false);
        c.outcome
            .map(|o| (o.shard_digests(), o.fates_balance(), o.stats))
    });

    let mut r = RunReport::default();
    let references: Vec<(Vec<u64>, u64)> = inputs
        .iter()
        .map(|f| {
            let ref_cfg = reference_config(&f.cfg);
            match call(&ref_cfg, &ref_cfg.schedule(), None, false).outcome {
                Ok(o) => (o.shard_digests(), o.total_admitted()),
                Err(v) => {
                    r.check(false, || format!("reference: {v}"));
                    (Vec::new(), 0)
                }
            }
        })
        .collect();
    for (i, rep) in reps.iter().map(|c| &c.out).enumerate() {
        let ref_digests = &references[i % references.len()].0;
        match rep {
            Ok((digests, balanced, _)) => {
                r.check(*balanced, || {
                    format!("call {i}: shard fate ledgers do not balance")
                });
                r.check(digests == ref_digests, || {
                    format!("call {i}: shard digests {digests:x?} differ from the crash-free, loss-free {ref_digests:x?}")
                });
            }
            Err(v) => r.check(false, || format!("call {i}: {v}")),
        }
    }
    let arrivals = inputs[0].cfg.base.requests as f64;
    r.end_to_end(arrivals, &reps, setup_s, rss);
    if let Some(Ok((_, _, st))) = reps.first().map(|c| &c.out) {
        let admitted: u64 = references.iter().map(|x| x.1).sum();
        let all = arrivals * references.len() as f64;
        r.note(format!(
            "admitted {admitted} of {all} arrivals over {} inputs (share {}); first input: forwarded \
             share of arrivals {}, WAL records per arrival {}",
            references.len(),
            share(admitted as f64, all),
            share(st.forwarded as f64, arrivals),
            share(st.wal_records as f64, arrivals)
        ));
    }
    r
}

/// Wall time of one traced call minus the time it spent in the transport.
fn self_ms(wall_s: f64, c: &Call) -> f64 {
    wall_s * 1e3 - c.transport.nanos as f64 / 1e6
}

/// The traced run. Each round makes six calls, each differing from the
/// previous one in a single setting:
///
/// * `full` — the workload, inside the timing decorator;
/// * `plain` — the same, undecorated (the tracing overhead);
/// * `no_crash` — crash-free: `full − no_crash` is crash recovery;
/// * `no_journal` — also `durability.enabled = false`: journaling;
/// * `no_loss` — also over the bare channels: the reliable sublayer's
///   work under loss (transport time itself excluded on both sides);
/// * `no_sweeps` — also no invariant sweeps.
pub fn trace(seed: u64, seconds: f64) -> RunReport {
    let f = setup(sub_seed(seed, 0));
    let mut no_crash = f.cfg.clone();
    no_crash.crashes.crashes = 0;
    let crash_free = no_crash.schedule();
    let mut no_journal = no_crash.clone();
    no_journal.durability.enabled = false;
    let mut no_sweeps = no_journal.clone();
    no_sweeps.base.invariant_stride = NO_SWEEPS;

    let mut r = RunReport::default();
    let mut walls: [Vec<f64>; 6] = Default::default();
    let mut stages = Vec::new();
    let mut last: Option<Call> = None;
    let start = Instant::now();
    while walls[0].is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (full, t) = timed(|| call(&f.cfg, &f.schedule, Some(&f.loss), true));
        let (_, plain) = timed(|| {
            black_box(
                call(&f.cfg, &f.schedule, Some(&f.loss), false)
                    .outcome
                    .is_ok(),
            )
        });
        let (nc, tc) = timed(|| call(&no_crash, &crash_free, Some(&f.loss), true));
        let (nj, tj) = timed(|| call(&no_journal, &crash_free, Some(&f.loss), true));
        let (nl, tl) = timed(|| call(&no_journal, &crash_free, None, true));
        let (ns, ts) = timed(|| call(&no_sweeps, &crash_free, None, true));
        walls[0].push(self_ms(t, &full));
        walls[1].push(plain * 1e3);
        walls[2].push(self_ms(tc, &nc));
        walls[3].push(self_ms(tj, &nj));
        walls[4].push(self_ms(tl, &nl));
        walls[5].push(self_ms(ts, &ns));
        match &full.outcome {
            Ok(o) => {
                r.check(o.fates_balance(), || {
                    "traced call: fates do not balance".to_string()
                });
                let mut sum = StageTimes::default();
                for (s, shard) in o.shards.iter().enumerate() {
                    sum.absorb_shard(s, &shard.stages);
                }
                stages.push(sum);
            }
            Err(v) => r.check(false, || format!("traced call: {v}")),
        }
        last = Some(full);
    }
    let Some(full) = last else {
        return r;
    };
    let Ok(outcome) = &full.outcome else {
        return r;
    };
    let [full_self, plain, no_crash_ms, no_journal_ms, no_loss_ms, no_sweeps_ms] =
        walls.each_ref().map(|w| median(w));
    let transport_ms = full.transport.nanos as f64 / 1e6;
    let wall_ms = full_self + transport_ms;

    let stages = mean_stages(&stages);
    let stage_ms = stage_layers(&mut r, &stages);
    let (events, des_ms) = replay_des(&f.cfg.base, &f.schedule);
    r.count("des.events", events as u64);
    r.set("des.queue_ms", des_ms);
    let digest_ms = eventlog_layer(&mut r, outcome.shards.iter().map(|s| &s.log));
    recovery_layers(&mut r, outcome.shards.iter().map(|s| &s.report));
    admission_layer(&mut r, outcome.shards.iter().map(|s| &s.report));

    r.count("transport.sends", full.transport.sends);
    r.count("transport.drains", full.transport.drains);
    r.set("transport.ms", transport_ms);
    r.count("transport.drops", full.loss.drops);
    r.count("transport.dups", full.loss.dups);
    r.count("transport.delays", full.loss.delays);

    let st = &outcome.stats;
    r.count("federation.messages", st.messages);
    r.count("federation.forwarded", st.forwarded);
    r.count("federation.retransmissions", st.retransmissions);
    r.count("federation.acks", st.acks_sent);
    r.count("federation.duplicate_drops", st.duplicate_drops);
    r.count("federation.handoffs_committed", st.handoffs_committed);
    r.count("federation.handoffs_aborted", st.handoffs_aborted);
    r.count(
        "federation.queue_wait_p99_us",
        stages.queue_wait_us.quantile_upper(0.99),
    );
    let reliable_ms = no_journal_ms - no_loss_ms;
    r.set("federation.reliable_ms", reliable_ms);

    r.count("journal.records", st.wal_records);
    r.count("journal.replayed", st.wal_replayed);
    r.count("journal.restores", st.snapshot_restores);
    let journal_ms = no_crash_ms - no_journal_ms;
    let recovery_ms = full_self - no_crash_ms;
    r.set("journal.ms", journal_ms);
    r.set("journal.wall_share", share(journal_ms, wall_ms));
    r.set("journal.recovery_ms", recovery_ms);

    let invariants_ms = no_loss_ms - no_sweeps_ms;
    r.set("invariants.ms", invariants_ms);
    r.set("invariants.wall_share", share(invariants_ms, wall_ms));

    r.set("traced.wall_ms", wall_ms);
    let attributed = stage_ms
        + des_ms
        + digest_ms
        + transport_ms
        + reliable_ms
        + journal_ms
        + recovery_ms
        + invariants_ms;
    r.set("unattributed_ms", wall_ms - attributed);
    r.set("trace_overhead_share", share(wall_ms, plain) - 1.0);
    r.note(format!(
        "{} traced rounds; ms excluding transport: full {full_self:.1}, crash-free {no_crash_ms:.1}, \
         unjournaled {no_journal_ms:.1}, loss-free {no_loss_ms:.1}, unswept {no_sweeps_ms:.1}; \
         undecorated full call {plain:.1} ms",
        walls[0].len()
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> Federation {
        let mut f = setup(seed);
        f.cfg.base.requests = 300;
        f.cfg.base.horizon_h = 20.0;
        f.cfg.mobility.moves = 16;
        f.cfg.mobility.horizon_h = 20.0;
        f.cfg.crashes.horizon_h = 20.0;
        for (i, p) in f.cfg.shard_partitions.iter_mut().enumerate() {
            p.from_h = 5.0 + 5.0 * i as f64;
            p.to_h = p.from_h + 0.2;
        }
        f.schedule = f.cfg.schedule();
        f.loss = LossConfig::lossy(7, LOSS).align_bursts(&f.cfg.shard_partitions);
        f
    }

    #[test]
    fn timing_decorator_forwards_every_envelope_unchanged() {
        let f = small(3);
        for loss in [None, Some(&f.loss)] {
            let bare = call(&f.cfg, &f.schedule, loss, false);
            let wrapped = call(&f.cfg, &f.schedule, loss, true);
            let (bare_o, wrapped_o) = (
                bare.outcome.expect("bare"),
                wrapped.outcome.expect("wrapped"),
            );
            assert_eq!(bare_o.shard_digests(), wrapped_o.shard_digests());
            assert_eq!(bare_o.stats, wrapped_o.stats);
            assert_eq!(bare.loss, wrapped.loss);
            assert!(wrapped.transport.sends > 0 && wrapped.transport.drains > 0);
            assert_eq!(bare.transport, TransportCounters::default());
        }
    }

    #[test]
    fn small_workload_converges_to_the_reference() {
        let f = small(11);
        let full = call(&f.cfg, &f.schedule, Some(&f.loss), false)
            .outcome
            .expect("full");
        let rc = reference_config(&f.cfg);
        let reference = call(&rc, &rc.schedule(), None, false)
            .outcome
            .expect("reference");
        assert!(full.fates_balance());
        assert!(full.stats.shard_crashes > 0, "the crash overlay fires");
        assert_eq!(full.shard_digests(), reference.shard_digests());
    }
}
