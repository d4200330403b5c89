//! The incremental invariant ledger: the per-event invariant sweep in
//! O(devices + links + |down| + written sessions) instead of a walk over
//! every live session graph.
//!
//! A session's configuration only changes at start, portal switch, user
//! move, recovery re-placement and retry re-admission, all written by
//! the domain server's one install path, which derives a
//! [`ChargeSummary`] once — the nonzero per-device
//! resource sums, the sparse link charges, and the Eq. 1 and pin
//! verdicts. It is the one derivation of the session's charge: the
//! residual environment is charged and refunded from it, and the domain
//! server keeps a running [`ChargeLedger`] of the live summaries next to
//! the residual. The sweep compares residual against capacity minus
//! ledger instead of re-deriving every live charge, and a recovery pass
//! reads the resources the ledger overcommits
//! ([`ChargeLedger::overcommitted`]) to select the sessions it must
//! re-place.
//!
//! [`check`] checks invariants (1)–(5) of
//! [`check_invariants`](crate::faults::check_invariants) in the same
//! order and reports the same first violation with the same message:
//! the running sums only *detect* a discrepancy, and the message is then
//! rendered from the exact fold over the cached summaries, which adds in
//! the same order as the from-scratch sweep. Only a fault of the ledger
//! itself, running state that disagrees with the summaries while the
//! residual agrees, is reported differently ([`DRIFTED`]). The
//! from-scratch sweep stays as the oracle the shard core cross-checks
//! this one against.

use crate::domain_server::{Session, SessionId};
use std::collections::{BTreeMap, BTreeSet};
use ubiqos::Configuration;
use ubiqos_composition::diagnose;
use ubiqos_discovery::ServiceRegistry;
use ubiqos_distribution::Environment;
use ubiqos_graph::ComponentId;
use ubiqos_model::ResourceVector;

/// Numerical slack of the conservation checks — the same as the
/// from-scratch sweep's.
const EPS: f64 = 1e-6;

/// The start of the violation a ledger check reports when its running
/// state disagrees with the live sessions' summaries though the
/// residual agrees with them: a bookkeeping fault of the ledger itself,
/// which the from-scratch sweep cannot see. Float drift of the running
/// sums stays many orders of magnitude below [`EPS`] (a recovery pass
/// rebuilds them), so this never fires on a correct ledger.
const DRIFTED: &str = "charge ledger drifted from the live sessions: ";

/// What one configuration charges and whether it passes the
/// per-session checks, derived once per configuration write. Derived
/// state: a checkpoint clone carries it, and recomputing it from the
/// configuration yields an equal value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ChargeSummary {
    /// `(part, Σ demand)` for every part of the cut whose summed demand
    /// has a nonzero amount, ascending. A part whose sum is below
    /// [`ResourceVector::is_zero`]'s tolerance is kept, since the
    /// residual is charged for it, but occupies nothing.
    pub(crate) parts: Vec<(usize, ResourceVector)>,
    /// `(i, j, Mbps)` with `i < j`: the crossing throughput of both
    /// directions, for every pair that carries any, ascending.
    pub(crate) links: Vec<(usize, usize, f64)>,
    /// The Eq. 1 verdict of the concrete graph.
    pub(crate) consistent: bool,
    /// The pin verdict: whether the cut respects every component pin,
    /// or the rendered error of a malformed cut.
    pub(crate) pins: Result<bool, String>,
}

impl ChargeSummary {
    /// Derives the summary of `configuration` in one pass over its
    /// components and one over its edges. The sums are bit-identical to
    /// [`Cut::part_resource_sum`](ubiqos_graph::Cut::part_resource_sum)
    /// and [`Cut::inter_part_throughput`](ubiqos_graph::Cut::inter_part_throughput),
    /// which the from-scratch sweep and the residual charge use: each
    /// part folds its members in component order from the first one,
    /// and each direction of a pair folds its edges in edge order from
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics when a part's members have inconsistent dimensions — the
    /// residual charge of the same cut has already failed then.
    pub(crate) fn of(configuration: &Configuration) -> Self {
        let graph = &configuration.app.graph;
        let cut = &configuration.cut;
        let part_of = |c| cut.part_of(c).expect("edge endpoints are assigned");
        let mut parts: Vec<(usize, ResourceVector)> = Vec::new();
        for c in (0..cut.len()).map(ComponentId::from_index) {
            let demand = graph
                .component(c)
                .expect("cut assignment indexes valid components")
                .resources();
            let part = part_of(c);
            match parts.iter_mut().find(|(p, _)| *p == part) {
                Some((_, sum)) => {
                    *sum = sum
                        .checked_add(demand)
                        .expect("live cut has consistent dimensions");
                }
                None => parts.push((part, demand.clone())),
            }
        }
        parts.retain(|(_, used)| used.amounts().iter().any(|&a| a != 0.0));
        parts.sort_unstable_by_key(|&(part, _)| part);

        let mut directed: Vec<(usize, usize, f64)> = Vec::new();
        for e in graph.edges() {
            let (i, j) = (part_of(e.from), part_of(e.to));
            if i == j {
                continue;
            }
            match directed.iter_mut().find(|(a, b, _)| (*a, *b) == (i, j)) {
                Some((_, _, mbps)) => *mbps += e.throughput,
                None => directed.push((i, j, 0.0 + e.throughput)),
            }
        }
        let t = |i, j| {
            directed
                .iter()
                .find(|(a, b, _)| (*a, *b) == (i, j))
                .map_or(0.0, |&(_, _, mbps)| mbps)
        };
        let mut links: Vec<(usize, usize, f64)> = Vec::new();
        for &(a, b, _) in &directed {
            let (i, j) = (a.min(b), a.max(b));
            let both = t(i, j) + t(j, i);
            if both > 0.0 && !links.iter().any(|&(x, y, _)| (x, y) == (i, j)) {
                links.push((i, j, both));
            }
        }
        links.sort_unstable_by_key(|&(i, j, _)| (i, j));
        ChargeSummary {
            parts,
            links,
            consistent: diagnose(graph).is_consistent(),
            pins: cut.respects_pins(graph).map_err(|e| e.to_string()),
        }
    }

    /// The parts the configuration occupies: those whose summed demand
    /// is not zero, with their sums.
    pub(crate) fn occupied(&self) -> impl Iterator<Item = (usize, &ResourceVector)> {
        self.parts
            .iter()
            .filter(|(_, used)| !used.is_zero())
            .map(|(part, used)| (*part, used))
    }

    /// Whether the configuration occupies device `d`.
    fn occupies(&self, d: usize) -> bool {
        self.occupied().any(|(part, _)| part == d)
    }

    /// Whether the configuration occupies any device `device` accepts or
    /// charges any link `link` accepts.
    pub(crate) fn touches(
        &self,
        device: impl Fn(usize) -> bool,
        link: impl Fn((usize, usize)) -> bool,
    ) -> bool {
        self.occupied().any(|(d, _)| device(d)) || self.links.iter().any(|&(i, j, _)| link((i, j)))
    }

    /// Charges the configuration against the residual `env`: the
    /// arithmetic of [`Environment::charge_cut`] over the same sums.
    /// Each part's demand is subtracted saturating at zero (a part the
    /// summary omits sums to exactly zero, which leaves the residual
    /// as it is), and each charged link's finite bandwidth drops by its
    /// charge, clamped at zero.
    pub(crate) fn charge(&self, env: &mut Environment) {
        for (part, used) in &self.parts {
            if let Some(dev) = env.device_mut(*part) {
                let rest = dev
                    .availability()
                    .saturating_sub(used)
                    .expect("configured cut has consistent dimensions");
                dev.set_availability(rest);
            }
        }
        self.adjust_links(env, -1.0);
    }

    /// Refunds a charged configuration to the residual `env`: the
    /// arithmetic of [`Environment::refund_cut`] over the same sums.
    pub(crate) fn refund(&self, env: &mut Environment) {
        for (part, used) in &self.parts {
            if let Some(dev) = env.device_mut(*part) {
                let back = dev
                    .availability()
                    .checked_add(used)
                    .expect("charged cut has consistent dimensions");
                dev.set_availability(back);
            }
        }
        self.adjust_links(env, 1.0);
    }

    fn adjust_links(&self, env: &mut Environment, sign: f64) {
        let n = env.device_count();
        for &(i, j, mbps) in self.links.iter().filter(|&&(_, j, _)| j < n) {
            let current = env.bandwidth().get(i, j);
            if current.is_finite() {
                env.bandwidth_mut()
                    .set(i, j, (current + sign * mbps).max(0.0));
            }
        }
    }

    /// The first per-session check (5) this configuration fails, as the
    /// from-scratch sweep words it, or `None`.
    fn failure(&self, id: SessionId, down: &BTreeSet<usize>) -> Option<String> {
        if !self.consistent {
            return Some(format!("{id}: live graph is not QoS-consistent (Eq. 1)"));
        }
        match &self.pins {
            Ok(true) => {}
            Ok(false) => return Some(format!("{id}: cut violates a component pin")),
            Err(e) => return Some(format!("{id}: malformed cut ({e})")),
        }
        down.iter()
            .find(|&&d| self.occupies(d))
            .map(|d| format!("{id}: components placed on crashed device {d}"))
    }
}

/// The running per-device and per-link charge of every live session,
/// kept next to the residual environment: the domain server adds a
/// session's [`ChargeSummary`] wherever it charges the environment for
/// the configuration and subtracts it wherever it refunds, and rebuilds
/// both from the kept sessions in a recovery pass.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct ChargeLedger {
    devices: usize,
    dim: usize,
    /// Σ part demand per device, `devices × dim`, row-major.
    device: Vec<f64>,
    /// Σ link charge per device pair `i < j`, packed in
    /// [`BandwidthMatrix::pairs`](ubiqos_distribution::BandwidthMatrix::pairs)
    /// order.
    link: Vec<f64>,
    /// Live sessions occupying each device.
    occupants: Vec<u32>,
    /// Raw ids of the sessions whose configuration was written since
    /// the last check. A session removed since stays listed; the check
    /// skips it.
    pub(crate) written: BTreeSet<u64>,
}

impl ChargeLedger {
    /// An empty ledger over `devices` devices of `dim` resource
    /// dimensions.
    pub(crate) fn new(devices: usize, dim: usize) -> Self {
        ChargeLedger {
            devices,
            dim,
            device: vec![0.0; devices * dim],
            link: vec![0.0; devices * devices.saturating_sub(1) / 2],
            occupants: vec![0; devices],
            written: BTreeSet::new(),
        }
    }

    /// Adds one configuration's charge.
    pub(crate) fn add(&mut self, s: &ChargeSummary) {
        self.apply(s, 1.0);
    }

    /// Removes one configuration's charge.
    pub(crate) fn sub(&mut self, s: &ChargeSummary) {
        self.apply(s, -1.0);
    }

    fn apply(&mut self, s: &ChargeSummary, sign: f64) {
        let (n, dim) = (self.devices, self.dim);
        for (d, used) in s.parts.iter().filter(|(d, _)| *d < n) {
            let row = &mut self.device[d * dim..(d + 1) * dim];
            for (slot, &amount) in row.iter_mut().zip(used.amounts()) {
                *slot += sign * amount;
            }
        }
        for (d, _) in s.occupied().filter(|&(d, _)| d < n) {
            if sign > 0.0 {
                self.occupants[d] += 1;
            } else {
                self.occupants[d] -= 1;
            }
        }
        for &(i, j, mbps) in s.links.iter().filter(|&&(_, j, _)| j < n) {
            self.link[pair_index(n, i, j)] += sign * mbps;
        }
    }

    /// Forgets every charge (the written set stays): the start of a
    /// rebuild from the kept sessions.
    pub(crate) fn clear_charges(&mut self) {
        self.device.fill(0.0);
        self.link.fill(0.0);
        self.occupants.fill(0);
    }

    /// The devices `device` accepts and the links `link` accepts whose
    /// running charge exceeds `capacity` in some dimension: the
    /// resources whose occupants a recovery pass must re-place.
    pub(crate) fn overcommitted(
        &self,
        capacity: &Environment,
        device: impl Fn(usize) -> bool,
        link: impl Fn((usize, usize)) -> bool,
    ) -> (BTreeSet<usize>, BTreeSet<(usize, usize)>) {
        let devices = capacity
            .devices()
            .iter()
            .zip(self.device.chunks(self.dim.max(1)))
            .enumerate()
            .filter(|&(d, (cap, used))| {
                device(d)
                    && used
                        .iter()
                        .zip(cap.availability().amounts())
                        .any(|(&used, &have)| used > have + EPS)
            })
            .map(|(d, _)| d)
            .collect();
        let links = capacity
            .bandwidth()
            .pairs()
            .zip(&self.link)
            .filter(|&((i, j, cap), &used)| link((i, j)) && cap.is_finite() && used > cap + EPS)
            .map(|((i, j, _), _)| (i, j))
            .collect();
        (devices, links)
    }
}

/// The packed index of device pair `i < j` among `n` devices: row-major
/// over the upper triangle, the order of
/// [`BandwidthMatrix::pairs`](ubiqos_distribution::BandwidthMatrix::pairs).
fn pair_index(n: usize, i: usize, j: usize) -> usize {
    i * n - i * (i + 1) / 2 + (j - i - 1)
}

/// Re-derives the summary of every session written since the last
/// check and clears the written set. A summary that no longer matches
/// its configuration (a write that skipped the refresh) is replaced and
/// the ledger corrected, so conservation is judged against the
/// configurations as they are. Returns the written sessions still live.
pub(crate) fn refresh_written(
    sessions: &mut BTreeMap<u64, Session>,
    ledger: &mut ChargeLedger,
) -> Vec<u64> {
    let written = std::mem::take(&mut ledger.written);
    let mut live = Vec::with_capacity(written.len());
    for raw in written {
        let Some(s) = sessions.get_mut(&raw) else {
            continue;
        };
        let fresh = ChargeSummary::of(&s.configuration);
        if fresh != s.charges {
            ledger.sub(&s.charges);
            ledger.add(&fresh);
            s.charges = fresh;
        }
        live.push(raw);
    }
    live
}

/// Checks invariants (1)–(5) of a domain server's residual `env`
/// against its `capacity`, live `sessions`, `registry` and `ledger`,
/// `written` being the live sessions written since the last check.
/// Returns the first violation in the from-scratch sweep's order and
/// wording.
pub(crate) fn check(
    env: &Environment,
    capacity: &Environment,
    sessions: &BTreeMap<u64, Session>,
    registry: &ServiceRegistry,
    ledger: &ChargeLedger,
    written: &[u64],
    down: &BTreeSet<usize>,
) -> Result<(), String> {
    // (1) Capacity bounds and (2) conservation per device dimension,
    // against the running sums in one pass; a device that looks off is
    // confirmed and worded by the from-scratch order: all of (1), then
    // (2) over the exact fold.
    let dim = ledger.dim;
    let off = capacity
        .devices()
        .iter()
        .zip(env.devices())
        .zip(ledger.device.chunks(dim.max(1)))
        .any(|((cap, res), charged)| {
            let (cap, res) = (cap.availability().amounts(), res.availability().amounts());
            cap.iter()
                .zip(res)
                .zip(charged)
                .any(|((&c, &r), &l)| r < -EPS || r > c + EPS || ((c - l) - r).abs() > EPS)
        });
    if off {
        capacity_bounds(env, capacity)?;
        device_conservation(env, capacity, sessions, dim)?;
        // The exact fold agrees with the residual, so the running sums
        // are what is off: the ledger missed a charge or a refund.
        return Err(DRIFTED.to_owned() + "device charges");
    }

    // (3) Link-bandwidth bounds and conservation, likewise.
    let off = capacity
        .bandwidth()
        .packed()
        .iter()
        .zip(env.bandwidth().packed())
        .zip(&ledger.link)
        .any(|((&c, &r), &l)| c.is_finite() && (r < -EPS || ((c - l) - r).abs() > EPS));
    if off {
        link_conservation(env, capacity, sessions)?;
        return Err(DRIFTED.to_owned() + "link charges");
    }

    // (4) Discovery hygiene: no instance hosted on a down device is
    // visible.
    for &d in down {
        if let Some(desc) = registry.hosted_on(d).first() {
            return Err(format!(
                "discovery: instance `{}` visible while host dev{d} is down",
                desc.instance_id
            ));
        }
    }

    // (5) Per-session checks: the verdicts of the sessions written
    // since the last check (every other live session passed them when
    // it was written), and no occupant on a down device. The first
    // failing session in id order is reported.
    let flagged = written.iter().any(|raw| {
        sessions[raw]
            .charges
            .failure(SessionId::from_raw(*raw), down)
            .is_some()
    }) || down
        .iter()
        .any(|&d| ledger.occupants.get(d).is_some_and(|&count| count > 0));
    if flagged {
        return Err(sessions
            .iter()
            .find_map(|(&raw, s)| s.charges.failure(SessionId::from_raw(raw), down))
            .unwrap_or_else(|| DRIFTED.to_owned() + "occupant counts"));
    }
    Ok(())
}

/// Invariant (1), as the from-scratch sweep checks it.
fn capacity_bounds(env: &Environment, capacity: &Environment) -> Result<(), String> {
    for (d, (residual, cap)) in env.devices().iter().zip(capacity.devices()).enumerate() {
        for (k, (&r, &c)) in residual
            .availability()
            .amounts()
            .iter()
            .zip(cap.availability().amounts())
            .enumerate()
        {
            if r < -EPS {
                return Err(format!("device {d} dim {k}: negative residual {r}"));
            }
            if r > c + EPS {
                return Err(format!(
                    "device {d} dim {k}: residual {r} exceeds capacity {c}"
                ));
            }
        }
    }
    Ok(())
}

/// Invariant (2) over the exact per-device fold of the cached
/// summaries, in session order — the same additions, in the same order,
/// as the from-scratch sweep.
fn device_conservation(
    env: &Environment,
    capacity: &Environment,
    sessions: &BTreeMap<u64, Session>,
    dim: usize,
) -> Result<(), String> {
    let mut charged = vec![ResourceVector::zero(dim); capacity.device_count()];
    for s in sessions.values() {
        for (part, used) in &s.charges.parts {
            if let Some(charge) = charged.get_mut(*part) {
                *charge = charge
                    .checked_add(used)
                    .map_err(|e| format!("charge accumulation mismatch: {e}"))?;
            }
        }
    }
    for (d, used) in charged.iter().enumerate() {
        let cap = capacity.device(d).expect("index in range").availability();
        let res = env.device(d).expect("index in range").availability();
        for k in 0..dim {
            let expect = cap.amounts()[k] - used.amounts()[k];
            let got = res.amounts()[k];
            if (expect - got).abs() > EPS {
                return Err(format!(
                    "device {d} dim {k}: residual {got} != capacity-charges {expect}"
                ));
            }
        }
    }
    Ok(())
}

/// Invariant (3) over the exact per-link fold of the cached summaries.
fn link_conservation(
    env: &Environment,
    capacity: &Environment,
    sessions: &BTreeMap<u64, Session>,
) -> Result<(), String> {
    let mut link_charged: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    for s in sessions.values() {
        for &(i, j, mbps) in &s.charges.links {
            *link_charged.entry((i, j)).or_insert(0.0) += mbps;
        }
    }
    for (i, j, cap_mbps) in capacity.bandwidth().pairs() {
        if !cap_mbps.is_finite() {
            continue;
        }
        let res_mbps = env.bandwidth().get(i, j);
        if res_mbps < -EPS {
            return Err(format!("link {i}-{j}: negative residual {res_mbps}"));
        }
        let used = link_charged.get(&(i, j)).copied().unwrap_or(0.0);
        let expect = cap_mbps - used;
        if (expect - res_mbps).abs() > EPS {
            return Err(format!(
                "link {i}-{j}: residual {res_mbps} != capacity-charges {expect}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain_server::DomainServer;
    use crate::faults::{
        app_template, build_space, campaign_schedule, check_invariants, run_fault_campaign,
        FaultCampaignConfig, ORACLE_STRIDE,
    };
    use crate::federation::{run_federation_campaign, FederationConfig};
    use crate::pipeline::{run_fault_campaign_batched_with, PipelineConfig};
    use ubiqos_graph::DeviceId;
    use ubiqos_model::QosVector;
    use ubiqos_sim::{MobilityWaveConfig, ShardCrashPlan};

    /// A four-device space running both application templates from
    /// every device, checked once so nothing is left written.
    fn busy_server() -> DomainServer {
        let mut server = build_space(4);
        for i in 0..8 {
            let (name, graph) = app_template(i);
            let _ =
                server.start_session(name, graph, QosVector::new(), DeviceId::from_index(i % 4));
        }
        assert!(server.session_count() >= 4, "the space admits sessions");
        assert_eq!(server.check_ledger(None), Ok(()));
        assert_eq!(
            check_invariants(&server, server.suspected_devices()),
            Ok(())
        );
        server
    }

    /// Runs both checkers on the same state and returns the ledger
    /// check's violation, asserting the oracle reports the same one.
    fn flagged_by_both(server: &mut DomainServer) -> String {
        let ledger = server.check_ledger(None);
        let oracle = check_invariants(server, server.suspected_devices());
        assert_eq!(
            ledger, oracle,
            "both checkers report the same first violation"
        );
        ledger.expect_err("the corruption is flagged")
    }

    /// A live session and a device its configuration occupies.
    fn occupant(server: &DomainServer) -> (SessionId, usize) {
        server
            .sessions()
            .find_map(|(id, s)| s.charges.occupied().next().map(|(d, _)| (id, d)))
            .expect("some session occupies a device")
    }

    #[test]
    fn a_leaked_charge_is_flagged_by_both_checkers() {
        let mut server = busy_server();
        let (_, d) = occupant(&server);
        let residual = server.env().device(d).unwrap().availability().amounts()[0];
        server.corrupt_residual(d, 0, residual / 2.0);
        let message = flagged_by_both(&mut server);
        assert!(
            message.starts_with(&format!("device {d} dim 0: residual"))
                && message.contains("!= capacity-charges"),
            "{message}"
        );
    }

    #[test]
    fn a_leaked_link_charge_is_flagged_by_both_checkers() {
        let mut server = busy_server();
        let (i, j, residual) = server
            .env()
            .bandwidth()
            .pairs()
            .find(|&(_, _, mbps)| mbps.is_finite() && mbps > 1.0)
            .expect("a finite link");
        server.corrupt_link_residual(i, j, residual / 2.0);
        let message = flagged_by_both(&mut server);
        assert!(
            message.starts_with(&format!("link {i}-{j}: residual"))
                && message.contains("!= capacity-charges"),
            "{message}"
        );
    }

    #[test]
    fn a_ledger_that_misses_a_refund_is_reported_though_the_residual_agrees() {
        let mut server = busy_server();
        let (id, _) = occupant(&server);
        server.corrupt_ledger_refund(id);
        assert_eq!(
            check_invariants(&server, server.suspected_devices()),
            Ok(()),
            "the residual and the sessions still agree"
        );
        let message = server.check_ledger(None).expect_err("the ledger is off");
        assert!(message.starts_with(DRIFTED), "{message}");
    }

    #[test]
    fn a_negative_residual_is_flagged_by_both_checkers() {
        let mut server = busy_server();
        server.corrupt_residual(2, 1, -3.0);
        assert_eq!(
            flagged_by_both(&mut server),
            "device 2 dim 1: negative residual -3"
        );
    }

    #[test]
    fn a_session_left_on_a_suspected_device_is_flagged_by_both_checkers() {
        let mut server = busy_server();
        let (_, d) = occupant(&server);
        server.corrupt_strand_on(d);
        let message = flagged_by_both(&mut server);
        assert!(
            message.ends_with(&format!(": components placed on crashed device {d}")),
            "{message}"
        );
    }

    #[test]
    fn an_eq1_inconsistent_live_graph_is_flagged_by_both_checkers() {
        let mut server = busy_server();
        let id = server
            .sessions()
            .map(|(id, _)| id)
            .last()
            .expect("a session");
        server.corrupt_eq1(id);
        assert_eq!(
            flagged_by_both(&mut server),
            format!("{id}: live graph is not QoS-consistent (Eq. 1)")
        );
    }

    #[test]
    fn a_write_without_a_summary_refresh_is_flagged_by_both_checkers() {
        let mut server = busy_server();
        let (id, d) = occupant(&server);
        let component = server
            .session(id)
            .unwrap()
            .configuration
            .cut
            .assignment()
            .iter()
            .position(|&part| part == d)
            .expect("a component on the occupied device");
        server.corrupt_stale_write(id, component, (d + 1) % 4);
        let message = flagged_by_both(&mut server);
        assert!(message.contains("!= capacity-charges"), "{message}");
        let s = server.session(id).unwrap();
        assert_eq!(
            s.charges,
            ChargeSummary::of(&s.configuration),
            "the check re-derived the stale summary"
        );
    }

    #[test]
    fn summaries_are_bit_identical_to_the_cut_walks() {
        let mut server = busy_server();
        // A fluctuation degrades some sessions, so scaled demands are
        // summed too.
        let (_, d) = occupant(&server);
        server.fluctuate(DeviceId::from_index(d), ResourceVector::mem_cpu(60.0, 60.0));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (_, s) in server.sessions() {
            let (graph, cut) = (&s.configuration.app.graph, &s.configuration.cut);
            let parts: Vec<(usize, Vec<u64>)> = (0..cut.parts())
                .map(|p| (p, cut.part_resource_sum(graph, p).unwrap()))
                .filter(|(_, used)| used.amounts().iter().any(|&a| a != 0.0))
                .map(|(p, used)| (p, bits(used.amounts())))
                .collect();
            let cached: Vec<(usize, Vec<u64>)> = s
                .charges
                .parts
                .iter()
                .map(|(p, used)| (*p, bits(used.amounts())))
                .collect();
            assert_eq!(cached, parts);
            let t = cut.inter_part_throughput(graph);
            let mut links = Vec::new();
            for (i, row) in t.iter().enumerate() {
                for (j, &mbps) in row.iter().enumerate().skip(i + 1) {
                    let both = mbps + t[j][i];
                    if both > 0.0 {
                        links.push((i, j, both.to_bits()));
                    }
                }
            }
            let cached: Vec<_> = s
                .charges
                .links
                .iter()
                .map(|&(i, j, mbps)| (i, j, mbps.to_bits()))
                .collect();
            assert_eq!(cached, links);
        }
    }

    #[test]
    fn pair_index_follows_the_bandwidth_pair_order() {
        let m = ubiqos_distribution::BandwidthMatrix::uniform(5, 1.0);
        for (k, (i, j, _)) in m.pairs().enumerate() {
            assert_eq!(pair_index(5, i, j), k);
        }
        assert_eq!(m.packed().len(), 10);
    }

    #[test]
    fn summaries_are_identical_cloned_or_recomputed_and_stay_out_of_the_fingerprint() {
        let mut server = busy_server();
        let (_, d) = occupant(&server);
        server.handle_crash(DeviceId::from_index(d));
        server.recover_device(DeviceId::from_index(d));
        let clone = server.clone_for_checkpoint();
        for s in [&server, &clone] {
            for (_, session) in s.sessions() {
                assert_eq!(session.charges, ChargeSummary::of(&session.configuration));
                assert!(!format!("{session:?}").contains("charges"));
            }
            for (_, parked) in s.parked_sessions() {
                let session = &parked.session;
                assert_eq!(session.charges, ChargeSummary::of(&session.configuration));
            }
        }
        assert_eq!(clone.state_fingerprint(), server.state_fingerprint());
        let mut clone = clone;
        assert_eq!(clone.check_ledger(None), Ok(()));
    }

    /// Small campaigns through all three runtimes — serial, batched,
    /// and a two-shard federation with one shard crash — under strict
    /// and staged recovery and perfect and imperfect detection. The
    /// test build cross-checks every event (`ORACLE_STRIDE` is 1), and
    /// a disagreement between the ledger check and the oracle fails the
    /// campaign.
    #[test]
    fn the_ledger_agrees_with_the_oracle_at_every_event_of_seeded_campaigns() {
        assert_eq!(ORACLE_STRIDE, 1, "test builds cross-check every event");
        for staged_recovery in [false, true] {
            for detection_grace_h in [0.0, 0.5] {
                let imperfect = detection_grace_h > 0.0;
                let base = FaultCampaignConfig {
                    seed: 11 + u64::from(staged_recovery) + 2 * u64::from(imperfect),
                    devices: 6,
                    requests: 96,
                    horizon_h: 16.0,
                    faults: 16,
                    scope_max: 2,
                    staged_recovery,
                    detection_grace_h,
                    heartbeat_period_h: 0.25,
                    partitions: if imperfect { 2 } else { 0 },
                    ..FaultCampaignConfig::default()
                };
                let what = format!("staged={staged_recovery} imperfect={imperfect}");
                let serial = run_fault_campaign(&base).unwrap_or_else(|v| panic!("{what}: {v}"));
                assert!(serial.report.invariant_checks > 0, "{what}");
                let batched = run_fault_campaign_batched_with(
                    &base,
                    &campaign_schedule(&base),
                    &PipelineConfig {
                        batch_size: 8,
                        threads: 2,
                    },
                )
                .unwrap_or_else(|v| panic!("{what} batched: {v}"));
                assert_eq!(batched.report, serial.report, "{what}");
                let fed = FederationConfig {
                    base,
                    shards: 2,
                    mobility: MobilityWaveConfig {
                        moves: 8,
                        waves: 2,
                        horizon_h: 16.0,
                        devices: 6,
                        ..MobilityWaveConfig::default()
                    },
                    crashes: ShardCrashPlan {
                        crashes: 1,
                        shards: 2,
                        horizon_h: 16.0,
                        outage_h: 0.4,
                        ..ShardCrashPlan::default()
                    },
                    ..FederationConfig::default()
                };
                let out =
                    run_federation_campaign(&fed).unwrap_or_else(|v| panic!("{what} 2-shard: {v}"));
                assert_eq!(out.stats.shard_crashes, 1, "{what}");
            }
        }
    }
}
