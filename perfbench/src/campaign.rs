//! The `overload` and `churn` workloads: single-domain fault campaigns
//! driven through the runtime's public campaign entry points, plus the
//! layer ledger the traced run builds from the counters a campaign
//! exports.

use crate::report::RunReport;
use crate::stats::{measure_setup, median, mix, share, sub_seed, timed, timed_calls, SUB_SEEDS};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use ubiqos::FaultReport;
use ubiqos_runtime::faults::build_space;
use ubiqos_runtime::{
    campaign_schedule, run_fault_campaign_batched_with, run_fault_campaign_with, CampaignOutcome,
    EventLog, FaultCampaignConfig, InvariantViolation, PipelineConfig, StageTimes,
};
use ubiqos_sim::{EventQueue, TimedFault, WorkloadConfig};

/// Admission batch of the `overload` workload's batched loop.
const OVERLOAD_BATCH: usize = 32;

/// An invariant stride no campaign reaches: the sweep never runs.
pub const NO_SWEEPS: usize = usize::MAX;

/// `overload`: 100 000 arrivals packed into two hours on six devices, no
/// faults, invariant sweep every 64th event. Almost every arrival is
/// denied, so the run is dominated by the per-event fixed cost.
pub fn overload_config(seed: u64) -> FaultCampaignConfig {
    FaultCampaignConfig {
        seed: mix(seed, 0x0f10_ad00),
        devices: 6,
        requests: 100_000,
        horizon_h: 2.0,
        faults: 0,
        invariant_stride: 64,
        ..FaultCampaignConfig::default()
    }
}

/// `churn`: 20 000 arrivals over 1000 hours on eight devices with 400
/// faults (correlated crashes, two flapping links) and four partitions
/// under imperfect detection, and an invariant sweep after every event.
/// The space runs near capacity, so every layer of the configurator and
/// of recovery does real work.
pub fn churn_config(seed: u64) -> FaultCampaignConfig {
    FaultCampaignConfig {
        seed: mix(seed, 0xc4a2_0000),
        devices: 8,
        requests: 20_000,
        horizon_h: 1000.0,
        faults: 400,
        scope_max: 2,
        flapping_links: 2,
        detection_grace_h: 0.5,
        heartbeat_period_h: 0.25,
        partitions: 4,
        invariant_stride: 1,
        ..FaultCampaignConfig::default()
    }
}

/// Which of the runtime's two campaign loops a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loop {
    /// `run_fault_campaign_batched_with`: batched admission with
    /// speculative configuration on the worker pool.
    Batched,
    /// `run_fault_campaign_with`: the serial DES loop.
    Serial,
}

/// A campaign workload's inputs.
pub struct Campaign {
    /// The campaign config derived from the seed.
    pub cfg: FaultCampaignConfig,
    /// The seeded fault schedule.
    pub schedule: Vec<TimedFault>,
    /// The loop that runs it.
    pub mode: Loop,
    /// Worker threads of the batched loop.
    pub threads: usize,
}

/// The workload's set-up: derives the fault schedule, and generates the
/// request trace and builds the smart space exactly as the campaign does
/// when it starts (the campaign entry points take a config, so the
/// latter two are timed here and then rebuilt by the program).
pub fn setup(cfg: FaultCampaignConfig, mode: Loop, threads: usize) -> Campaign {
    let schedule = campaign_schedule(&cfg);
    black_box(request_trace(&cfg));
    black_box(build_space(cfg.devices));
    Campaign {
        cfg,
        schedule,
        mode,
        threads,
    }
}

/// The request trace the campaign generates from its seed.
pub fn request_trace(cfg: &FaultCampaignConfig) -> Vec<ubiqos_sim::Request> {
    WorkloadConfig::overload(cfg.requests, cfg.horizon_h)
        .generate(&mut StdRng::seed_from_u64(cfg.seed))
}

impl Campaign {
    /// Runs the campaign under `cfg` (the workload's own config, or a
    /// one-field variant of it) through the workload's loop.
    pub fn run(&self, cfg: &FaultCampaignConfig) -> Result<CampaignOutcome, InvariantViolation> {
        match self.mode {
            Loop::Batched => run_fault_campaign_batched_with(
                cfg,
                &self.schedule,
                &PipelineConfig {
                    batch_size: OVERLOAD_BATCH,
                    threads: self.threads,
                },
            ),
            Loop::Serial => run_fault_campaign_with(cfg, &self.schedule),
        }
    }
}

/// The untraced run: times campaign calls for `seconds`, rotating
/// through the seed's [`SUB_SEEDS`] inputs, then checks every call's
/// report against a reference computed outside the timed region for the
/// same input. `overload` compares the batched loop with the serial one;
/// `churn` repeats the serial loop and also demands balanced fates and
/// an empty retry queue at the end.
pub fn measure(
    make: fn(u64) -> FaultCampaignConfig,
    mode: Loop,
    seed: u64,
    seconds: f64,
    threads: usize,
) -> RunReport {
    let (inputs, setup_s) = measure_setup(|| {
        (0..SUB_SEEDS)
            .map(|k| setup(make(sub_seed(seed, k)), mode, threads))
            .collect::<Vec<_>>()
    });
    let mut next = 0;
    let (reps, rss) = timed_calls(seconds, || {
        let c = &inputs[next % inputs.len()];
        next += 1;
        c.run(&c.cfg).map(|o| o.report)
    });

    let mut r = RunReport::default();
    // The references: the serial loop, for the same input.
    let references: Vec<FaultReport> = inputs
        .iter()
        .map(|c| match run_fault_campaign_with(&c.cfg, &c.schedule) {
            Ok(o) => o.report,
            Err(v) => {
                r.check(false, || format!("serial reference: {v}"));
                FaultReport::default()
            }
        })
        .collect();
    for (i, rep) in reps.iter().map(|c| &c.out).enumerate() {
        let reference = &references[i % references.len()];
        match rep {
            Ok(report) => {
                r.check(report == reference, || {
                    format!(
                        "call {i}: report (digest {:#x}) differs from the serial reference (digest {:#x})",
                        report.log_digest, reference.log_digest
                    )
                });
                if mode == Loop::Serial {
                    r.check(report.session_fates_balance(), || {
                        format!("call {i}: fates do not balance")
                    });
                    r.check(report.parked_at_end == 0, || {
                        format!(
                            "call {i}: {} sessions parked at the end",
                            report.parked_at_end
                        )
                    });
                }
            }
            Err(v) => r.check(false, || format!("call {i}: {v}")),
        }
    }

    r.end_to_end(inputs[0].cfg.requests as f64, &reps, setup_s, rss);
    let (admitted, arrivals) = references.iter().fold((0, 0), |(a, n), x| {
        (a + u64::from(x.admitted), n + u64::from(x.arrivals))
    });
    r.note(format!(
        "admitted {admitted} of {arrivals} arrivals over {} inputs (share {})",
        references.len(),
        share(admitted as f64, arrivals as f64),
    ));
    r
}

/// Replays the run's event times — arrivals, departures, faults and (under
/// imperfect detection) heartbeats — through the DES queue the campaign
/// loop uses, returning the event count and the median replay time in ms.
pub fn replay_des(cfg: &FaultCampaignConfig, schedule: &[TimedFault]) -> (usize, f64) {
    let mut times: Vec<f64> = Vec::new();
    for r in request_trace(cfg) {
        times.push(r.arrival_h);
        times.push(r.departure_h());
    }
    times.extend(schedule.iter().map(|f| f.at_h));
    if !cfg.perfect_detection() {
        let steps = (cfg.horizon_h / cfg.heartbeat_period_h).floor() as usize;
        for _ in 0..cfg.devices {
            times.extend((0..=steps).map(|k| k as f64 * cfg.heartbeat_period_h));
        }
    }
    let ms: Vec<f64> = (0..3)
        .map(|_| {
            timed(|| {
                let mut q = EventQueue::new();
                for (i, &t) in times.iter().enumerate() {
                    q.schedule(t, i);
                }
                while let Some(e) = q.pop() {
                    black_box(e);
                }
            })
            .1 * 1e3
        })
        .collect();
    (times.len(), median(&ms))
}

/// Records the event-log layer over `logs`: line and byte counts, and the
/// median time to render and digest them in ms (returned).
pub fn eventlog_layer<'a>(
    r: &mut RunReport,
    logs: impl Iterator<Item = &'a EventLog> + Clone,
) -> f64 {
    let lines: usize = logs.clone().map(|l| l.lines().len()).sum();
    let bytes: usize = logs
        .clone()
        .flat_map(|l| l.lines().iter().map(|s| s.len() + 1))
        .sum();
    let ms: Vec<f64> = (0..3)
        .map(|_| {
            timed(|| {
                for l in logs.clone() {
                    black_box(l.digest());
                }
            })
            .1 * 1e3
        })
        .collect();
    let digest_ms = median(&ms);
    r.count("eventlog.lines", lines as u64);
    r.count("eventlog.bytes", bytes as u64);
    r.set("eventlog.digest_ms", digest_ms);
    digest_ms
}

/// Records the configurator stages a campaign's [`StageTimes`] account
/// for, and returns their summed self time in ms.
pub fn stage_layers(r: &mut RunReport, stages: &StageTimes) -> f64 {
    r.set("discovery.ms", stages.discover_ms);
    r.count("discovery.calls", stages.configures);
    r.set("composition.ms", stages.compose_ms);
    r.count("composition.calls", stages.configures);
    r.set("distribution.place_ms", stages.place_ms);
    r.set("download.ms", stages.download_ms);
    stages.total_ms()
}

/// Records the recovery, retry-queue and detector counters of `reports`
/// (summed, for a federation's shards).
pub fn recovery_layers<'a>(r: &mut RunReport, reports: impl Iterator<Item = &'a FaultReport>) {
    let mut sum = FaultReport::default();
    for x in reports {
        sum.recovery_passes += x.recovery_passes;
        sum.recovery_affected += x.recovery_affected;
        sum.replacements += x.replacements;
        sum.parked += x.parked;
        sum.readmitted += x.readmitted;
        sum.suspicions += x.suspicions;
        sum.stale_views += x.stale_views;
        sum.invariant_checks += x.invariant_checks;
    }
    r.count("recovery.passes", sum.recovery_passes);
    r.count("recovery.affected", sum.recovery_affected);
    r.count("recovery.replacements", sum.replacements);
    r.count("retry.parked", sum.parked);
    r.count("retry.readmitted", sum.readmitted);
    r.count("detector.suspicions", sum.suspicions);
    r.count("detector.stale_views", sum.stale_views);
    r.count("invariants.checks", sum.invariant_checks);
}

/// Records the admitted share of `reports` (summed over shards).
pub fn admission_layer<'a>(r: &mut RunReport, reports: impl Iterator<Item = &'a FaultReport>) {
    let (admitted, arrivals) = reports.fold((0u64, 0u64), |(a, n), x| {
        (a + u64::from(x.admitted), n + u64::from(x.arrivals))
    });
    r.set(
        "admission.admitted_share",
        share(admitted as f64, arrivals as f64),
    );
}

/// Averages the stage times of several traced calls (counters and
/// histograms are taken from the last call; they repeat exactly).
pub fn mean_stages(all: &[StageTimes]) -> StageTimes {
    let mut out = all.last().cloned().unwrap_or_default();
    let n = all.len().max(1) as f64;
    out.discover_ms = all.iter().map(|s| s.discover_ms).sum::<f64>() / n;
    out.compose_ms = all.iter().map(|s| s.compose_ms).sum::<f64>() / n;
    out.place_ms = all.iter().map(|s| s.place_ms).sum::<f64>() / n;
    out.download_ms = all.iter().map(|s| s.download_ms).sum::<f64>() / n;
    out
}

/// The traced run: for `seconds`, rounds of (traced call, untraced
/// call, call with the invariant sweep switched off). The campaign's
/// own counters give the configurator, pipeline, recovery and detector
/// layers; the benchmark replays the DES queue and times the event-log
/// digest itself; the invariant sweep is the difference between the
/// first and the last call of a round.
pub fn trace(
    make: fn(u64) -> FaultCampaignConfig,
    mode: Loop,
    seed: u64,
    seconds: f64,
    threads: usize,
) -> RunReport {
    let c = setup(make(sub_seed(seed, 0)), mode, threads);
    let no_sweeps = FaultCampaignConfig {
        invariant_stride: NO_SWEEPS,
        ..c.cfg.clone()
    };
    let mut r = RunReport::default();
    let (mut traced, mut untraced, mut unswept) = (Vec::new(), Vec::new(), Vec::new());
    let mut stages = Vec::new();
    let mut last: Option<CampaignOutcome> = None;
    let start = std::time::Instant::now();
    while traced.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (out, t) = timed(|| c.run(&c.cfg));
        let (_, u) = timed(|| black_box(c.run(&c.cfg).is_ok()));
        let (_, i) = timed(|| black_box(c.run(&no_sweeps).is_ok()));
        traced.push(t * 1e3);
        untraced.push(u * 1e3);
        unswept.push(i * 1e3);
        match out {
            Ok(o) => {
                r.check(true, String::new);
                stages.push(o.stages.clone());
                last = Some(o);
            }
            Err(v) => r.check(false, || format!("traced call: {v}")),
        }
    }
    let Some(outcome) = last else {
        return r;
    };
    let wall_ms = median(&traced);
    let stages = mean_stages(&stages);
    let stage_ms = stage_layers(&mut r, &stages);

    let (events, des_ms) = replay_des(&c.cfg, &c.schedule);
    r.count("des.events", events as u64);
    r.set("des.queue_ms", des_ms);
    let digest_ms = eventlog_layer(&mut r, std::iter::once(&outcome.log));

    if let Some(p) = &outcome.pipeline {
        r.count("pipeline.batches", p.batches);
        r.set(
            "pipeline.adopted_share",
            share(p.adopted as f64, (p.adopted + p.inline_speculated) as f64),
        );
        r.count("pipeline.invalidations", p.invalidations);
        r.count(
            "pipeline.batch_size_p50",
            stages.batch_sizes.quantile_upper(0.5),
        );
        r.count(
            "pipeline.queue_wait_p99_us",
            stages.queue_wait_us.quantile_upper(0.99),
        );
    }

    recovery_layers(&mut r, std::iter::once(&outcome.report));
    admission_layer(&mut r, std::iter::once(&outcome.report));
    let invariants_ms = wall_ms - median(&unswept);
    r.set("invariants.ms", invariants_ms);
    r.set("invariants.wall_share", share(invariants_ms, wall_ms));

    r.set("traced.wall_ms", wall_ms);
    r.set(
        "unattributed_ms",
        wall_ms - (stage_ms + invariants_ms + des_ms + digest_ms),
    );
    r.set(
        "trace_overhead_share",
        share(wall_ms, median(&untraced)) - 1.0,
    );
    r.note(format!(
        "{} traced rounds; traced {:.1} ms, untraced {:.1} ms, without invariant sweeps {:.1} ms",
        traced.len(),
        wall_ms,
        median(&untraced),
        median(&unswept)
    ));
    r
}
