//! The parked-session retry queue: capped exponential backoff on the
//! simulation's virtual clock.
//!
//! When no [`DegradationLadder`](ubiqos_composition::DegradationLadder)
//! level can place a session, the session is *parked* here instead of
//! dropped: its resources are released, and the domain server retries it
//! deterministically whenever virtual time passes its `next_retry_ms`.
//! Each failed retry doubles the backoff (capped), and only when the
//! attempt budget is exhausted is the session dropped — with the last
//! [`ConfigureError`] as the witness that it was
//! genuinely unplaceable.
//!
//! Retries are attempted in a deterministic *priority* order rather than
//! raw id order: longest-parked first (fairness — nobody starves behind
//! a newer session), then best pre-fault QoS satisfaction (the sessions
//! that were delivering the most value come back first), then smallest
//! resource footprint (easiest to fit into scarce residual capacity),
//! with the session id as the final tiebreak. All inputs to the ordering
//! are snapshotted at park time, and all times are virtual milliseconds
//! driven by [`DomainServer::play`](crate::DomainServer::play) — no wall
//! clocks, so campaigns stay byte-for-byte reproducible.

use crate::domain_server::Session;
use std::collections::BTreeMap;
use ubiqos::ConfigureError;

/// Backoff and budget policy for parked-session retries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Backoff before the first retry, in virtual milliseconds.
    pub base_backoff_ms: f64,
    /// Ceiling the doubling backoff saturates at.
    pub max_backoff_ms: f64,
    /// Failed retries allowed before the session is dropped. `0` disables
    /// parking entirely: ladder exhaustion drops immediately (the strict
    /// PR 2 behaviour).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    /// Two virtual minutes base, one virtual hour cap, eight attempts.
    fn default() -> Self {
        RetryPolicy {
            base_backoff_ms: 120_000.0,
            max_backoff_ms: 3_600_000.0,
            max_attempts: 8,
        }
    }
}

impl RetryPolicy {
    /// The policy that never parks: drop on ladder exhaustion.
    pub fn strict() -> Self {
        RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        }
    }

    /// The backoff after `attempts` failed retries: `base * 2^attempts`,
    /// saturating at the cap.
    pub fn backoff_ms(&self, attempts: u32) -> f64 {
        let factor = 2.0_f64.powi(attempts.min(63) as i32);
        (self.base_backoff_ms * factor).min(self.max_backoff_ms)
    }
}

/// One session waiting in the retry queue.
#[derive(Debug, Clone)]
pub struct ParkedSession {
    /// The session, exactly as it was when parked (configuration stale,
    /// resources refunded).
    pub session: Session,
    /// Failed retries so far.
    pub attempts: u32,
    /// Virtual time the session was first parked (priority key: older
    /// parks retry first).
    pub parked_at_ms: f64,
    /// The session's QoS satisfaction when parked (priority key: better
    /// sessions retry first).
    pub satisfaction: f64,
    /// Total resource demand of the session's last configuration
    /// (priority key: lighter sessions retry first).
    pub footprint: f64,
    /// Virtual time the next retry becomes due.
    pub next_retry_ms: f64,
    /// The error from the most recent placement failure (every ladder
    /// level failed) — the drop witness if the budget runs out.
    pub last_error: ConfigureError,
}

/// Deterministic queue of parked sessions, keyed by raw session id.
#[derive(Debug, Clone, Default)]
pub struct RetryQueue {
    parked: BTreeMap<u64, ParkedSession>,
}

impl RetryQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of parked sessions.
    pub fn len(&self) -> usize {
        self.parked.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.parked.is_empty()
    }

    /// Parks a session (first park: zero attempts used). The priority
    /// keys — park time, QoS satisfaction, resource footprint — are
    /// snapshotted here so later retries rank deterministically.
    pub fn park(
        &mut self,
        id: u64,
        session: Session,
        error: ConfigureError,
        now_ms: f64,
        policy: &RetryPolicy,
    ) {
        let satisfaction = session.qos_satisfaction();
        let footprint = session
            .configuration
            .app
            .graph
            .components()
            .map(|(_, c)| c.resources().amounts().iter().sum::<f64>())
            .sum();
        self.parked.insert(
            id,
            ParkedSession {
                session,
                attempts: 0,
                parked_at_ms: now_ms,
                satisfaction,
                footprint,
                next_retry_ms: now_ms + policy.backoff_ms(0),
                last_error: error,
            },
        );
    }

    /// Removes a parked session by id (e.g. its user departed).
    pub fn remove(&mut self, id: u64) -> Option<ParkedSession> {
        self.parked.remove(&id)
    }

    /// Re-inserts a session taken out for a retry attempt.
    pub fn reinsert(&mut self, id: u64, parked: ParkedSession) {
        self.parked.insert(id, parked);
    }

    /// Ids whose retries are due at `now_ms`, in priority order.
    pub fn due(&self, now_ms: f64) -> Vec<u64> {
        self.ranked(|p| p.next_retry_ms <= now_ms)
    }

    /// Every parked id in priority order, backoff ignored — the order an
    /// *eager* retry pass (triggered by a recovery event rather than the
    /// backoff poll) attempts re-admission in.
    pub fn all_in_priority_order(&self) -> Vec<u64> {
        self.ranked(|_| true)
    }

    /// Ids matching `keep`, sorted by (park time asc, satisfaction desc,
    /// footprint asc, id asc). `f64::total_cmp` keeps the sort total and
    /// deterministic.
    fn ranked(&self, keep: impl Fn(&ParkedSession) -> bool) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .parked
            .iter()
            .filter(|(_, p)| keep(p))
            .map(|(&id, _)| id)
            .collect();
        ids.sort_by(|a, b| {
            let pa = &self.parked[a];
            let pb = &self.parked[b];
            pa.parked_at_ms
                .total_cmp(&pb.parked_at_ms)
                .then(pb.satisfaction.total_cmp(&pa.satisfaction))
                .then(pa.footprint.total_cmp(&pb.footprint))
                .then(a.cmp(b))
        });
        ids
    }

    /// Iterates over every parked session in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &ParkedSession)> {
        self.parked.iter().map(|(&id, p)| (id, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ubiqos::Configuration;
    use ubiqos_composition::{ComposedApplication, OcReport};
    use ubiqos_graph::{Cut, DeviceId, ServiceComponent, ServiceGraph};
    use ubiqos_model::{QosVector, ResourceVector};

    /// A minimal session whose only distinguishing feature is its
    /// component resource footprint.
    fn session_with_footprint(mem: f64) -> Session {
        let mut graph = ServiceGraph::new();
        graph.add_component(
            ServiceComponent::builder("c")
                .resources(ResourceVector::mem_cpu(mem, 0.0))
                .build(),
        );
        let cut = Cut::from_assignment(&graph, vec![0], 1).unwrap();
        let configuration = Configuration {
            app: ComposedApplication {
                graph,
                report: OcReport::default(),
                instances: Vec::new(),
            }
            .into(),
            cut,
            cost: 0.0,
        };
        Session {
            name: "t".into(),
            abstract_graph: ubiqos_graph::AbstractServiceGraph::new().into(),
            user_qos: QosVector::new(),
            client_device: DeviceId::from_index(0),
            domain: None,
            charges: crate::ledger::ChargeSummary::of(&configuration),
            configuration,
            position_s: 0.0,
            degrade_factor: 1.0,
            overhead_log: Vec::new(),
        }
    }

    #[test]
    fn retry_order_is_wait_then_satisfaction_then_footprint() {
        let policy = RetryPolicy::default();
        let err = || {
            ConfigureError::Composition(ubiqos_composition::CompositionError::MissingService {
                service_type: "x".into(),
                depth: 0,
            })
        };
        let mut q = RetryQueue::new();
        // Session 5: parked late.
        q.park(5, session_with_footprint(1.0), err(), 1000.0, &policy);
        // Sessions 7 and 3: parked together at t=0; 7 is lighter.
        q.park(7, session_with_footprint(2.0), err(), 0.0, &policy);
        q.park(3, session_with_footprint(8.0), err(), 0.0, &policy);
        // Session 9: parked at t=0 too, but with a *worse* satisfaction
        // snapshot than the perfect 1.0 of the empty-QoS sessions.
        q.park(9, session_with_footprint(0.5), err(), 0.0, &policy);
        if let Some(mut p) = q.remove(9) {
            p.satisfaction = 0.3;
            q.reinsert(9, p);
        }

        // Oldest first; equal ages ranked by satisfaction desc, then
        // footprint asc; the newest last regardless of weight.
        assert_eq!(q.all_in_priority_order(), vec![7, 3, 9, 5]);
        // `due` applies the same ranking to the backoff-filtered set.
        assert_eq!(q.due(policy.backoff_ms(0)), vec![7, 3, 9]);
        assert_eq!(
            q.due(1000.0 + policy.backoff_ms(0)),
            vec![7, 3, 9, 5],
            "everything due ranks identically"
        );
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_ms(0), 120_000.0);
        assert_eq!(p.backoff_ms(1), 240_000.0);
        assert_eq!(p.backoff_ms(2), 480_000.0);
        assert_eq!(p.backoff_ms(30), p.max_backoff_ms);
        assert_eq!(p.backoff_ms(u32::MAX), p.max_backoff_ms);
    }

    #[test]
    fn strict_policy_has_no_budget() {
        assert_eq!(RetryPolicy::strict().max_attempts, 0);
    }
}
