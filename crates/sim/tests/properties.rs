//! Property-based tests for the simulation substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use ubiqos_sim::{EventQueue, GraphGenConfig, WindowedRate, WorkloadConfig};

/// The oracle for [`EventQueue`]: every event in one binary heap,
/// ordered by `(time, seq)` with `partial_cmp` on time.
#[derive(Default)]
struct HeapQueue {
    heap: BinaryHeap<HeapEntry>,
    next_seq: u64,
}

struct HeapEntry {
    time: f64,
    seq: u64,
    event: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then(other.seq.cmp(&self.seq))
    }
}

impl HeapQueue {
    fn schedule(&mut self, time: f64, event: usize) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry { time, seq, event });
    }
    fn pop(&mut self) -> Option<(f64, usize)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }
    fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }
}

/// Event times for the oracle test: a small grid, so equal times (and
/// the two signed zeros, which compare equal) are drawn often.
const GRID: [f64; 7] = [-0.0, 0.0, -1.0, 0.5, 1.0, 2.0, f64::INFINITY];

/// A popped event with its time as bits, so −0.0 and +0.0 differ.
fn bits(e: Option<(f64, usize)>) -> Option<(u64, usize)> {
    e.map(|(t, i)| (t.to_bits(), i))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The event queue pops every scheduled event exactly once, in
    /// non-decreasing time order, with FIFO ties.
    #[test]
    fn event_queue_is_a_stable_priority_queue(
        times in proptest::collection::vec(0.0f64..100.0, 1..60)
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        prop_assert_eq!(q.len(), times.len());
        let mut popped = Vec::new();
        let mut last_time = f64::NEG_INFINITY;
        let mut last_seq_at_time: Option<usize> = None;
        while let Some((t, i)) = q.pop() {
            prop_assert!(t >= last_time);
            if t == last_time {
                prop_assert!(last_seq_at_time.unwrap() < i, "FIFO at equal times");
            }
            last_time = t;
            last_seq_at_time = Some(i);
            popped.push(i);
        }
        popped.sort_unstable();
        prop_assert_eq!(popped, (0..times.len()).collect::<Vec<_>>());
    }

    /// The sorted-run-plus-heap queue pops exactly what one binary heap
    /// pops, and peeks the same times, whether events were scheduled
    /// before the first read (the run) or between reads (the heap).
    #[test]
    fn event_queue_matches_a_binary_heap_oracle(
        before in proptest::collection::vec(0usize..GRID.len(), 0..40),
        ops in proptest::collection::vec((0u8..3, 0usize..GRID.len()), 0..80),
    ) {
        let mut q = EventQueue::new();
        let mut oracle = HeapQueue::default();
        let mut next_event = 0usize;
        for &g in &before {
            q.schedule(GRID[g], next_event);
            oracle.schedule(GRID[g], next_event);
            next_event += 1;
        }
        prop_assert_eq!(q.len(), oracle.heap.len());
        for &(op, g) in &ops {
            match op {
                0 => prop_assert_eq!(bits(q.pop()), bits(oracle.pop())),
                1 => prop_assert_eq!(
                    q.peek_time().map(f64::to_bits),
                    oracle.peek_time().map(f64::to_bits)
                ),
                _ => {
                    q.schedule(GRID[g], next_event);
                    oracle.schedule(GRID[g], next_event);
                    next_event += 1;
                }
            }
            prop_assert_eq!(q.len(), oracle.heap.len());
            prop_assert_eq!(q.is_empty(), oracle.heap.is_empty());
        }
        loop {
            let (a, b) = (q.pop(), oracle.pop());
            prop_assert_eq!(bits(a), bits(b));
            prop_assert_eq!(q.len(), oracle.heap.len());
            if a.is_none() {
                break;
            }
        }
        prop_assert!(q.is_empty());
    }

    /// Windowed success rates always agree with a naive recomputation.
    #[test]
    fn windowed_rate_matches_naive(
        window in 1.0f64..100.0,
        samples in proptest::collection::vec((0.0f64..1000.0, prop::bool::ANY), 0..120),
    ) {
        let mut w = WindowedRate::new(window);
        for &(t, ok) in &samples {
            w.record(t, ok);
        }
        // Naive recompute.
        let series = w.series();
        for (i, &(end, rate)) in series.iter().enumerate() {
            let start = i as f64 * window;
            let in_window: Vec<bool> = samples
                .iter()
                .filter(|&&(t, _)| t >= start && t < start + window)
                .map(|&(_, ok)| ok)
                .collect();
            let expected = if in_window.is_empty() {
                0.0
            } else {
                in_window.iter().filter(|&&ok| ok).count() as f64 / in_window.len() as f64
            };
            prop_assert!((rate - expected).abs() < 1e-9, "window ending {end}");
        }
        let total_ok = samples.iter().filter(|&&(_, ok)| ok).count();
        let expected_overall = if samples.is_empty() {
            0.0
        } else {
            total_ok as f64 / samples.len() as f64
        };
        prop_assert!((w.overall() - expected_overall).abs() < 1e-9);
        prop_assert_eq!(w.total_attempts(), samples.len() as u64);
    }

    /// Workload generation respects its configuration for arbitrary
    /// parameters.
    #[test]
    fn workload_respects_arbitrary_configs(
        requests in 1usize..300,
        horizon in 1.0f64..2000.0,
        graphs in 1usize..9,
        seed in 0u64..1000,
    ) {
        let cfg = WorkloadConfig {
            requests,
            horizon_h: horizon,
            graph_count: graphs,
            ..WorkloadConfig::default()
        };
        let trace = cfg.generate(&mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(trace.len(), requests);
        for r in &trace {
            prop_assert!(r.arrival_h >= 0.0 && r.arrival_h < horizon);
            prop_assert!(r.graph_index < graphs);
            prop_assert!(r.duration_h >= cfg.min_duration_h - 1e-12);
            prop_assert!(r.duration_h <= cfg.max_duration_h + 1e-12);
        }
        for pair in trace.windows(2) {
            prop_assert!(pair[0].arrival_h <= pair[1].arrival_h);
        }
    }

    /// Generated graphs always honor the node-count and degree caps.
    #[test]
    fn graphgen_respects_bounds(seed in 0u64..300, lo in 2usize..20, extra in 0usize..30) {
        let hi = lo + extra;
        let cfg = GraphGenConfig {
            nodes: lo..=hi,
            out_edges: 1..=4,
            memory: 0.5..=2.0,
            cpu: 0.5..=2.0,
            throughput: 0.01..=0.1,
        };
        let g = cfg.generate(&mut StdRng::seed_from_u64(seed));
        prop_assert!((lo..=hi).contains(&g.component_count()));
        for id in g.component_ids() {
            prop_assert!(g.successors(id).len() <= 4);
        }
        prop_assert!(ubiqos_graph::topo::topological_sort(&g).is_ok());
    }
}
