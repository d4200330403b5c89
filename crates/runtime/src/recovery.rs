//! Outcome types for the staged degrade → park → retry → drop recovery
//! pipeline.
//!
//! PR 2's recovery was binary: after a fault, every live session was
//! re-placed from scratch and any session that no longer fit was dropped
//! on the spot. This module carries the vocabulary of the staged pipeline
//! that replaces it:
//!
//! * sessions untouched by the fault are **kept** as-is (incremental
//!   re-placement: O(affected), not O(sessions));
//! * affected sessions are re-placed, walking the
//!   [`DegradationLadder`](ubiqos_composition::DegradationLadder) from
//!   full quality downwards until a level fits (**degraded** instead of
//!   dropped);
//! * sessions no level can place are **parked** in the
//!   [`RetryQueue`](crate::retry_queue::RetryQueue) with capped
//!   exponential backoff, releasing their resources while they wait;
//! * parked sessions whose retry succeeds are **re-admitted**; only
//!   sessions that exhaust their retry budget are **dropped**, each with
//!   the [`ConfigureError`] witnessing genuine unplaceability.

use crate::domain_server::SessionId;
use ubiqos::ConfigureError;

/// A quality-level change applied to one session during recovery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Degradation {
    /// The ladder factor the session ran at before the pass.
    pub from: f64,
    /// The ladder factor it runs at now.
    pub to: f64,
}

/// The outcome of one recovery pass (or one retry-queue drain).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecoveryReport {
    /// Sessions re-placed at full quality (ladder factor 1.0).
    pub recovered: Vec<SessionId>,
    /// Sessions re-placed at a reduced quality level, with the factor
    /// transition. `to < from` is a downgrade; `to > from` means a
    /// previously degraded session climbed back up the ladder.
    pub degraded: Vec<(SessionId, Degradation)>,
    /// Sessions no ladder level could place, moved to the retry queue
    /// (their resources are released while they wait).
    pub parked: Vec<SessionId>,
    /// Previously parked sessions re-admitted by a successful retry.
    pub readmitted: Vec<SessionId>,
    /// Sessions dropped after exhausting the retry budget.
    pub dropped: Vec<SessionId>,
    /// For each dropped session, the configuration error witnessing that
    /// it was genuinely unplaceable at drop time (same order as
    /// [`RecoveryReport::dropped`]).
    pub drop_errors: Vec<(SessionId, ConfigureError)>,
    /// Live sessions at the start of the pass — the work a full
    /// O(sessions) re-placement would have done.
    pub considered: usize,
    /// Sessions the pass actually re-examined (touched a changed or
    /// overcommitted resource) — the O(affected) work actually done.
    pub affected: usize,
}

impl RecoveryReport {
    /// Whether the pass changed nothing (no re-placements, parks,
    /// re-admissions, or drops).
    pub fn is_empty(&self) -> bool {
        self.recovered.is_empty()
            && self.degraded.is_empty()
            && self.parked.is_empty()
            && self.readmitted.is_empty()
            && self.dropped.is_empty()
    }

    /// Successful re-placements in this pass (full-quality plus
    /// degraded).
    pub fn replacements(&self) -> usize {
        self.recovered.len() + self.degraded.len()
    }

    /// Folds another report into this one (e.g. the retry-queue drain
    /// that ends a recovery pass). `considered`/`affected` keep this
    /// report's values — they describe the pass, not the drain.
    pub fn absorb(&mut self, other: RecoveryReport) {
        self.recovered.extend(other.recovered);
        self.degraded.extend(other.degraded);
        self.parked.extend(other.parked);
        self.readmitted.extend(other.readmitted);
        self.dropped.extend(other.dropped);
        self.drop_errors.extend(other.drop_errors);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_is_empty() {
        let r = RecoveryReport::default();
        assert!(r.is_empty());
        assert_eq!(r.replacements(), 0);
    }

    #[test]
    #[allow(clippy::type_complexity)]
    fn any_fate_makes_the_report_non_empty() {
        let id = SessionId::from_raw(3);
        let fates: Vec<Box<dyn Fn(&mut RecoveryReport)>> = vec![
            Box::new(move |r| r.recovered.push(id)),
            Box::new(move |r| r.degraded.push((id, Degradation { from: 1.0, to: 0.5 }))),
            Box::new(move |r| r.parked.push(id)),
            Box::new(move |r| r.readmitted.push(id)),
            Box::new(move |r| r.dropped.push(id)),
        ];
        for f in fates {
            let mut r = RecoveryReport::default();
            f(&mut r);
            assert!(!r.is_empty());
        }
    }

    #[test]
    fn replacements_count_full_and_degraded() {
        let id = SessionId::from_raw(0);
        let mut r = RecoveryReport::default();
        r.recovered.push(id);
        r.degraded.push((
            id,
            Degradation {
                from: 1.0,
                to: 0.75,
            },
        ));
        assert_eq!(r.replacements(), 2);
    }
}
