//! Statistics and measurement helpers shared by every workload.

use std::time::Instant;

/// A timing percentile is reported only when at least this many samples
/// lie strictly above the rank it selects, so one outlier cannot be the
/// reported value.
pub const MIN_BEYOND: usize = 10;

/// Median of `samples`: the middle value, or the mean of the two middle
/// values for an even count. `0.0` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `q` (in `(0, 1]`) of `samples`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie above the selected rank.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The highest of p99.9, p99, p90 and p50 that [`percentile`] can report
/// for `samples`, as `(q, value)`.
pub fn highest_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find_map(|q| percentile(samples, q).map(|v| (q, v)))
}

/// `num / den`, defined as `0.0` when nothing was attempted.
pub fn share(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Mean of `samples`; `0.0` for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    share(samples.iter().sum(), samples.len() as f64)
}

/// Runs `f` once and returns its result with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Number of timed calls after which a run reads its resident-set peak:
/// a fixed amount of work, however many calls fit into the run.
pub const RSS_AFTER_CALLS: usize = 3;

/// One timed call: its result, its wall time, and the median wall time
/// of three [`reference_kernel`] runs right after it, both in seconds.
pub struct TimedCall<T> {
    /// What the call returned.
    pub out: T,
    /// Wall time of the call.
    pub secs: f64,
    /// Median wall time of the reference kernel runs after the call.
    pub kernel_secs: f64,
}

/// Calls `op` until `seconds` have passed, and at least
/// [`RSS_AFTER_CALLS`] times, timing the [`reference_kernel`] after each
/// call. Also returns the resident-set peak in MB after the first
/// [`RSS_AFTER_CALLS`] calls.
pub fn timed_calls<T>(seconds: f64, mut op: impl FnMut() -> T) -> (Vec<TimedCall<T>>, Option<f64>) {
    let start = Instant::now();
    let mut call = || {
        let (out, secs) = timed(&mut op);
        let kernel: Vec<f64> = (0..3).map(|_| timed(reference_kernel).1).collect();
        let kernel_secs = median(&kernel);
        TimedCall {
            out,
            secs,
            kernel_secs,
        }
    };
    let mut calls: Vec<TimedCall<T>> = (0..RSS_AFTER_CALLS).map(|_| call()).collect();
    let rss = peak_rss_mb();
    while start.elapsed().as_secs_f64() < seconds {
        calls.push(call());
    }
    (calls, rss)
}

/// Inputs a campaign run rotates through. `--seed` derives this many
/// sub-seeds and timed call `i` runs input `i % SUB_SEEDS`, so no single
/// draw's quirks (one seed's federated run was 15% slower than another's
/// at equal machine speed) set a run's median.
pub const SUB_SEEDS: u64 = 4;

/// The `k`-th sub-seed of `seed`.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    mix(seed, 0x5b5e_ed00 + k)
}

/// Reference kernel runs per reference second.
pub const KERNELS_PER_REF_S: f64 = 20.0;

/// A fixed piece of benchmark-owned work — formatting, allocating,
/// sorting and hashing log-like lines, filling and walking an ordered
/// map, and a branch-and-bound knapsack search — that measures how fast
/// the machine runs right now. It runs in about 1/[`KERNELS_PER_REF_S`] s
/// on a 2.0 GHz Xeon vCPU. Call times divided by the kernel time next to
/// them cancel the machine's speed swings, which on a shared two-vCPU VM
/// moved whole runs by up to half.
pub fn reference_kernel() -> u64 {
    let mut x: u64 = 0x1234_5678;
    let mut lines: Vec<String> = (0..30_000u64)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            format!(
                "[{i:06}] t={:010.4}h event {x:x}",
                (x % 100_000) as f64 / 7.0
            )
        })
        .collect();
    lines.sort_unstable();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in lines.iter().flat_map(|l| l.bytes()) {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut map = std::collections::BTreeMap::new();
    for i in 0..40_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 1_000_003, i);
    }
    for _ in 0..4 {
        for (k, v) in &map {
            hash = hash.rotate_left(5) ^ k ^ v;
        }
    }
    let items: Vec<(f64, f64)> = (0..26)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (1.0 + (x % 97) as f64, 1.0 + (x >> 8) as f64 % 89.0)
        })
        .collect();
    let cap = items.iter().map(|i| i.0).sum::<f64>() / 2.0;
    let best = knapsack(&items, cap, 0.0, 0.0);
    std::hint::black_box(hash ^ best.to_bits())
}

/// Best value packable from `items` into `room`, by depth-first search
/// that prunes a branch when even all remaining items could not beat
/// `best`.
fn knapsack(items: &[(f64, f64)], room: f64, value: f64, best: f64) -> f64 {
    let Some((&(w, v), rest)) = items.split_first() else {
        return value.max(best);
    };
    let bound = value + rest.iter().map(|i| i.1).sum::<f64>() + v;
    if bound <= best {
        return best;
    }
    let best = if w <= room {
        knapsack(rest, room - w, value + v, best)
    } else {
        best
    };
    knapsack(rest, room, value, best)
}

/// Runs the workload's set-up `setup` several times (for at least half a
/// second, and at least seven times) and returns the last result with
/// the median set-up time in seconds.
pub fn measure_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let start = Instant::now();
    let (mut last, first) = timed(&mut setup);
    let mut times = vec![first];
    while times.len() < 7 || start.elapsed().as_secs_f64() < 0.5 {
        // Each set-up is dropped before the next one is built.
        drop(last);
        let (out, s) = timed(&mut setup);
        last = out;
        times.push(s);
    }
    (last, median(&times))
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc/self/status` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Derives independent, well-spread seeds for every input stream of a
/// workload from the one `--seed` argument. The salt is hashed before it
/// meets the seed, so small seeds under different salts never collide
/// (with `seed ^ salt`, seed 1 under salt 2 would equal seed 2 under
/// salt 1).
pub fn mix(seed: u64, salt: u64) -> u64 {
    splitmix64(seed ^ splitmix64(salt))
}

/// The SplitMix64 finalizer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: selection must sort.
        (0..n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_keeps_ten_samples_beyond_the_reported_rank() {
        for n in [1, 10, 11, 19, 20, 21, 99, 100, 101, 109, 110, 1000, 1010] {
            let samples = ramp(n);
            for q in [0.5, 0.9, 0.99, 0.999] {
                if let Some(v) = percentile(&samples, q) {
                    let beyond = samples.iter().filter(|&&s| s > v).count();
                    assert!(beyond >= MIN_BEYOND, "n={n} q={q} v={v} beyond={beyond}");
                }
            }
        }
        // 100 samples: p90 is the 90th value with exactly ten above it.
        assert_eq!(percentile(&ramp(100), 0.9), Some(89.0));
        // 99 samples cannot support p90.
        assert_eq!(percentile(&ramp(99), 0.9), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn highest_percentile_degrades_with_the_sample_count() {
        assert_eq!(highest_percentile(&ramp(19)), None);
        assert_eq!(highest_percentile(&ramp(20)).map(|(q, _)| q), Some(0.5));
        assert_eq!(highest_percentile(&ramp(100)).map(|(q, _)| q), Some(0.9));
        assert_eq!(highest_percentile(&ramp(1000)).map(|(q, _)| q), Some(0.99));
        assert_eq!(
            highest_percentile(&ramp(10_010)).map(|(q, _)| q),
            Some(0.999)
        );
    }

    #[test]
    fn shares_stay_defined_when_nothing_was_attempted() {
        assert_eq!(share(0.0, 0.0), 0.0);
        assert_eq!(share(5.0, 0.0), 0.0);
        assert_eq!(share(1.0, 4.0), 0.25);
        assert_eq!(mean(&[]), 0.0);
        assert!(share(0.0, 0.0).is_finite());
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn timed_calls_make_the_minimum_count_and_time_the_kernel() {
        let (calls, _) = timed_calls(0.0, || 7);
        assert_eq!(calls.len(), RSS_AFTER_CALLS);
        assert!(calls
            .iter()
            .all(|c| c.out == 7 && c.secs >= 0.0 && c.kernel_secs > 0.0));
    }

    #[test]
    fn reference_kernel_is_deterministic() {
        assert_eq!(reference_kernel(), reference_kernel());
    }

    #[test]
    fn seeds_mix_apart() {
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_eq!(mix(9, 3), mix(9, 3));
    }

    #[test]
    fn neighbouring_seeds_share_no_sub_seed() {
        let mut all: Vec<u64> = (0..64u64)
            .flat_map(|s| (0..8).map(move |k| sub_seed(s, k)))
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 64 * 8);
    }
}
