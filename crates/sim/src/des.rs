//! A minimal deterministic discrete-event queue.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// One scheduled event.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time: f64,
    /// Monotone sequence number; ties in time pop in scheduling order,
    /// which keeps simulations deterministic.
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to pop the earliest event.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then(other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Scheduled<E> {
    /// `(time, seq)` as one integer that ascends in pop order (the
    /// reverse of `Ord`): the order-preserving bits of `time`, with
    /// −0.0 folded to +0.0 because `partial_cmp` treats the two as
    /// equal, then `seq`.
    fn key(&self) -> u128 {
        let time = if self.time == 0.0 { 0.0 } else { self.time };
        let bits = time.to_bits();
        let ordered = if bits >> 63 == 0 {
            bits | 1 << 63
        } else {
            !bits
        };
        (u128::from(ordered) << 64) | u128::from(self.seq)
    }
}

/// A time-ordered event queue with deterministic FIFO tie-breaking.
///
/// A simulation schedules most of its events before it pops the first
/// one (a campaign's arrivals, departures, faults and heartbeats), so
/// the queue keeps those in a plain `Vec` and sorts it once, in place,
/// at the first [`EventQueue::pop`] or [`EventQueue::peek_time`]:
/// one `sort_unstable` on an integer key instead of a sift through a
/// binary heap per event. Events scheduled after that go into a heap,
/// and each pop takes whichever of the sorted run's next event and the
/// heap's top comes first by `(time, seq)`.
///
/// The pop order is exactly that of a single heap: both sides order by
/// the same `(time, seq)` key and `seq` is unique, so the unstable sort
/// has no ties to break. The sort must stay in place: a stable or radix
/// sort would allocate a second buffer as large as the run.
///
/// # Example
///
/// ```
/// use ubiqos_sim::EventQueue;
/// let mut q = EventQueue::new();
/// q.schedule(2.0, "late");
/// q.schedule(1.0, "early");
/// q.schedule(1.0, "early-second");
/// assert_eq!(q.pop(), Some((1.0, "early")));
/// assert_eq!(q.pop(), Some((1.0, "early-second")));
/// assert_eq!(q.pop(), Some((2.0, "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EventQueue<E> {
    /// The events scheduled before the first read; once `sorted`, latest
    /// first, so the next one is at the end.
    run: Vec<Scheduled<E>>,
    /// Whether `run` was sorted; from then on `schedule` pushes onto
    /// `heap`.
    sorted: bool,
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            run: Vec::new(),
            sorted: false,
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` at simulation time `time`.
    ///
    /// # Panics
    ///
    /// Panics when `time` is NaN (a NaN time would corrupt the ordering).
    pub fn schedule(&mut self, time: f64, event: E) {
        assert!(!time.is_nan(), "event time must not be NaN");
        let seq = self.next_seq;
        self.next_seq += 1;
        let s = Scheduled { time, seq, event };
        if self.sorted {
            self.heap.push(s);
        } else {
            self.run.push(s);
        }
    }

    /// Whether the earliest pending event is the sorted run's (`None`
    /// when the queue is empty). Sorts the run on the first call.
    fn next_in_run(&mut self) -> Option<bool> {
        if !self.sorted {
            self.sorted = true;
            self.run.sort_unstable_by_key(|s| Reverse(s.key()));
        }
        match (self.run.last(), self.heap.peek()) {
            // `Ord` is reversed: the greater event comes first.
            (Some(r), Some(h)) => Some(r > h),
            (Some(_), None) => Some(true),
            (None, Some(_)) => Some(false),
            (None, None) => None,
        }
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let s = if self.next_in_run()? {
            self.run.pop()
        } else {
            self.heap.pop()
        };
        s.map(|s| (s.time, s.event))
    }

    /// The time of the next event without removing it (sorts the run
    /// on the first read, hence `&mut`).
    pub fn peek_time(&mut self) -> Option<f64> {
        let s = if self.next_in_run()? {
            self.run.last()
        } else {
            self.heap.peek()
        };
        s.map(|s| s.time)
    }

    /// The number of pending events.
    pub fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty() && self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[5.0, 1.0, 3.0, 2.0, 4.0] {
            q.schedule(t, t as i64);
        }
        let mut seen = Vec::new();
        while let Some((t, _)) = q.pop() {
            seen.push(t);
        }
        assert_eq!(seen, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn fifo_ties() {
        let mut q = EventQueue::new();
        q.schedule(1.0, "a");
        q.schedule(1.0, "b");
        q.schedule(1.0, "c");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(7.0, ());
        q.schedule(3.0, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(3.0));
        q.pop();
        assert_eq!(q.peek_time(), Some(7.0));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_time_panics() {
        let mut q = EventQueue::new();
        q.schedule(f64::NAN, ());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(10.0, "z");
        q.schedule(1.0, "a");
        assert_eq!(q.pop().unwrap().1, "a");
        q.schedule(5.0, "m");
        assert_eq!(q.pop().unwrap().1, "m");
        assert_eq!(q.pop().unwrap().1, "z");
    }

    #[test]
    fn late_schedules_merge_with_the_sorted_run() {
        let mut q = EventQueue::new();
        q.schedule(2.0, "run-2");
        q.schedule(1.0, "run-1");
        q.schedule(3.0, "run-3");
        assert_eq!(q.pop(), Some((1.0, "run-1")));
        // Scheduled after the first pop: into the heap, behind the run's
        // equal-time event (later seq), ahead of its later ones.
        q.schedule(2.0, "heap-2");
        q.schedule(0.5, "heap-0.5");
        assert_eq!(q.len(), 4);
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["heap-0.5", "run-2", "heap-2", "run-3"]);
        assert!(q.is_empty());
    }

    #[test]
    fn signed_zeros_and_infinities_order_like_partial_cmp() {
        let mut q = EventQueue::new();
        q.schedule(0.0, "pos-zero");
        q.schedule(f64::INFINITY, "inf");
        q.schedule(-0.0, "neg-zero");
        q.schedule(-1.5, "neg");
        q.schedule(f64::NEG_INFINITY, "neg-inf");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        // -0.0 == 0.0, so the two zeros pop in scheduling order.
        assert_eq!(order, ["neg-inf", "neg", "pos-zero", "neg-zero", "inf"]);
    }
}
