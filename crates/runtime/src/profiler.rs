//! Stage accounting for the configuration pipeline: [`StageTimes`]
//! and the [`PowHistogram`] distributions it folds.

use serde::{Deserialize, Serialize};

/// A power-of-two bucketed histogram of non-negative integer samples.
///
/// Bucket `0` counts exact zeros; bucket `i ≥ 1` counts samples in
/// `[2^(i-1), 2^i)`. The bucket vector grows lazily to the largest
/// sample seen, so an empty histogram serializes as `[]` and artifacts
/// stay compact. Used for the pipeline runtime's queue-wait (µs) and
/// batch-size distributions in `BENCH_scale.json`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PowHistogram {
    /// `counts[i]` = samples in bucket `i` (see type docs).
    pub counts: Vec<u64>,
}

impl PowHistogram {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = (64 - value.leading_zeros()) as usize;
        if self.counts.len() <= bucket {
            self.counts.resize(bucket + 1, 0);
        }
        self.counts[bucket] += 1;
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Inclusive upper bound of bucket `i` (`0` for the zero bucket).
    pub fn bucket_upper(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            (1u64 << i) - 1
        }
    }

    /// Folds another histogram into this one, bucket-wise.
    pub fn merge(&mut self, other: &PowHistogram) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, &src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
    }

    /// The smallest bucket upper bound covering at least `q` (in
    /// `[0, 1]`) of the samples — a coarse quantile for rendering.
    pub fn quantile_upper(&self, q: f64) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let need = (q.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= need {
                return Self::bucket_upper(i);
            }
        }
        Self::bucket_upper(self.counts.len().saturating_sub(1))
    }
}

/// Wall-clock totals per configuration-pipeline stage, accumulated by
/// the domain server across every `configure` call.
///
/// These are *real* (wall-clock) milliseconds for `BENCH_configure.json`
/// and performance work — unlike the [`crate::cost_model::CostModel`]'s
/// virtual overheads, they never feed deterministic logs, digests, or
/// the simulated clock, so profiling cannot perturb reproducibility.
///
/// The same struct is the shared stage-accounting type of
/// `BENCH_scale.json` and `BENCH_federation.json`: the pipeline runtime
/// folds its queue-wait and batch-size distributions into the two
/// histograms, and the federation its message-delivery delays into the
/// queue-wait one (both stay empty under the serial runtime). The
/// queue-wait samples are the one part that is not always wall-clock;
/// see [`StageTimes::queue_wait_us`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StageTimes {
    /// Time inside `ServiceRegistry::discover_all` (memo hits included).
    pub discover_ms: f64,
    /// Composition-tier time minus discovery (OC checks, transcoder
    /// insertion, cache bookkeeping).
    pub compose_ms: f64,
    /// Distribution-tier time (problem construction + solver).
    pub place_ms: f64,
    /// Component download bookkeeping time.
    pub download_ms: f64,
    /// `configure` invocations measured.
    pub configures: u64,
    /// Queue-wait samples in µs, in one of two clocks depending on the
    /// runtime that recorded them. The pipeline runtime records
    /// *wall-clock* µs each event spent between batch admission (pop
    /// from the DES queue) and its deterministic commit. The federation
    /// records *virtual* µs between a message's send and its delivery
    /// (deferred behind a shard partition; zero when immediate). So a
    /// pipeline p99 and a federation p99 are not comparable. Empty
    /// under the serial loop.
    pub queue_wait_us: PowHistogram,
    /// Events per admitted batch. Empty under the serial loop.
    pub batch_sizes: PowHistogram,
    /// Queue waits split by the admission queue (shard) that absorbed
    /// them. Slot `s` is shard `s`'s own wait distribution; the merged
    /// view above remains the union. A single-server runtime records
    /// everything into slot 0, so unsharded artifacts stay unchanged
    /// apart from the extra field.
    pub shard_queue_wait_us: Vec<PowHistogram>,
    /// Per-payload retransmission counts of the federation's reliable
    /// transport sublayer, split by sending shard: when a payload is
    /// fully acknowledged, the number of retransmissions it needed
    /// (`0` on a perfect link) is recorded into the sender's slot.
    /// Empty everywhere outside the federated runtime.
    #[serde(default)]
    pub shard_retransmits: Vec<PowHistogram>,
}

/// Grows `slots` to cover `shard` and returns that slot — the shared
/// growth step behind every shard-indexed histogram vector.
fn ensure_shard_slot(slots: &mut Vec<PowHistogram>, shard: usize) -> &mut PowHistogram {
    if slots.len() <= shard {
        slots.resize_with(shard + 1, PowHistogram::default);
    }
    &mut slots[shard]
}

impl StageTimes {
    /// The summed configuration-pipeline time (all four stages).
    pub fn total_ms(&self) -> f64 {
        self.discover_ms + self.compose_ms + self.place_ms + self.download_ms
    }

    /// `discover + compose + place` — the pipeline span a composition
    /// cache (or batched speculation) can shorten; downloads excluded.
    pub fn pipeline_ms(&self) -> f64 {
        self.discover_ms + self.compose_ms + self.place_ms
    }

    /// Records one queue wait attributed to shard `shard`, growing the
    /// per-shard slot vector as needed. Keeps the merged histogram and
    /// the shard slot in sync.
    pub fn record_shard_queue_wait(&mut self, shard: usize, wait_us: u64) {
        self.queue_wait_us.record(wait_us);
        ensure_shard_slot(&mut self.shard_queue_wait_us, shard).record(wait_us);
    }

    /// Records one fully-acknowledged payload's retransmission count
    /// into sending shard `shard`'s slot.
    pub fn record_shard_retransmit(&mut self, shard: usize, retransmits: u64) {
        ensure_shard_slot(&mut self.shard_retransmits, shard).record(retransmits);
    }

    /// Folds another server's stage profile into this one, attributing
    /// its queue waits to shard `shard` — how a federation aggregates N
    /// per-shard servers into one campaign-wide profile.
    pub fn absorb_shard(&mut self, shard: usize, other: &StageTimes) {
        self.discover_ms += other.discover_ms;
        self.compose_ms += other.compose_ms;
        self.place_ms += other.place_ms;
        self.download_ms += other.download_ms;
        self.configures += other.configures;
        self.queue_wait_us.merge(&other.queue_wait_us);
        self.batch_sizes.merge(&other.batch_sizes);
        if other.shard_queue_wait_us.is_empty() {
            // A single-queue profile: every wait it saw belongs to the
            // shard it ran as.
            ensure_shard_slot(&mut self.shard_queue_wait_us, shard).merge(&other.queue_wait_us);
        } else {
            // Already shard-aware: slot indices are global, fold verbatim.
            for (s, h) in other.shard_queue_wait_us.iter().enumerate() {
                ensure_shard_slot(&mut self.shard_queue_wait_us, s).merge(h);
            }
        }
        for (s, h) in other.shard_retransmits.iter().enumerate() {
            ensure_shard_slot(&mut self.shard_retransmits, s).merge(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_times_sum() {
        let t = StageTimes {
            discover_ms: 1.0,
            compose_ms: 2.0,
            place_ms: 3.0,
            download_ms: 4.0,
            configures: 2,
            ..StageTimes::default()
        };
        assert!((t.total_ms() - 10.0).abs() < 1e-12);
        assert!((t.pipeline_ms() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn pow_histogram_buckets_by_bit_width() {
        let mut h = PowHistogram::default();
        for v in [0, 0, 1, 2, 3, 4, 7, 8, 1024] {
            h.record(v);
        }
        // zeros -> bucket 0; 1 -> bucket 1; {2,3} -> bucket 2;
        // {4,7} -> bucket 3; 8 -> bucket 4; 1024 -> bucket 11.
        assert_eq!(h.counts[0], 2);
        assert_eq!(h.counts[1], 1);
        assert_eq!(h.counts[2], 2);
        assert_eq!(h.counts[3], 2);
        assert_eq!(h.counts[4], 1);
        assert_eq!(h.counts[11], 1);
        assert_eq!(h.total(), 9);
        assert_eq!(PowHistogram::bucket_upper(0), 0);
        assert_eq!(PowHistogram::bucket_upper(3), 7);
        assert_eq!(h.quantile_upper(1.0), 2047);
        assert!(h.quantile_upper(0.5) <= 7);
        assert_eq!(PowHistogram::default().quantile_upper(0.5), 0);
    }

    #[test]
    fn shard_slots_grow_on_demand_and_absorb() {
        let mut t = StageTimes::default();
        t.record_shard_queue_wait(2, 5);
        t.record_shard_retransmit(1, 3);
        assert_eq!(t.shard_queue_wait_us.len(), 3);
        assert_eq!(t.shard_queue_wait_us[2].total(), 1);
        assert_eq!(t.queue_wait_us.total(), 1);
        assert_eq!(t.shard_retransmits.len(), 2);
        assert_eq!(t.shard_retransmits[1].total(), 1);
        let mut sum = StageTimes::default();
        sum.absorb_shard(0, &t);
        assert_eq!(sum.shard_queue_wait_us[2].total(), 1);
        assert_eq!(sum.shard_retransmits[1].total(), 1);
    }
}
