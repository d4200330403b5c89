//! Integration tests for the staged degrade → park → retry → drop
//! pipeline: link-override survival across device recovery, registry
//! churn for hosted instances, incremental recovery across every kind
//! of resource delta, exact resource refunds around park/readmit, and the Eq. 1 property
//! for degraded sessions.

use proptest::prelude::*;
use std::collections::BTreeSet;
use ubiqos::prelude::*;
use ubiqos_model::weaken_requirement;
use ubiqos_runtime::faults::{app_template, build_space, check_invariants};
use ubiqos_runtime::DomainServer;

/// Satellite regression: a link degraded *independently* (network
/// weather, not a device fault) must keep its degraded capacity when an
/// endpoint device crashes and later recovers — recovery restores the
/// device, not the network.
#[test]
fn recover_device_preserves_independent_link_degradation() {
    let mut server = build_space(4);
    let pristine01 = server.pristine().bandwidth().get(0, 1);
    assert!(
        pristine01 > 20.0,
        "the 0-1 link starts above the test value"
    );
    server.degrade_link(DeviceId::from_index(0), DeviceId::from_index(1), 20.0);
    assert_eq!(server.capacity().bandwidth().get(0, 1), 20.0);

    server.handle_crash(DeviceId::from_index(0));
    assert_eq!(
        server.capacity().bandwidth().get(0, 1),
        0.0,
        "links of a crashed device carry nothing"
    );

    server.recover_device(DeviceId::from_index(0));
    assert_eq!(
        server.capacity().bandwidth().get(0, 1),
        20.0,
        "recovery must not clobber the independent link degradation"
    );
    // Untouched links of the recovered device do return to pristine.
    assert_eq!(
        server.capacity().bandwidth().get(0, 2),
        server.pristine().bandwidth().get(0, 2)
    );

    // Restoring the link to pristine clears the override entirely.
    server.degrade_link(DeviceId::from_index(0), DeviceId::from_index(1), pristine01);
    assert_eq!(server.capacity().bandwidth().get(0, 1), pristine01);
}

/// Satellite: registry churn. A crashed device's hosted instances must
/// vanish from discovery immediately and come back on recovery.
#[test]
fn crashed_hosts_instances_leave_discovery_until_recovery() {
    let mut server = build_space(3);
    let hosted_on_dev1 = |server: &DomainServer| {
        server
            .registry()
            .discover_all(&DiscoveryQuery::new("wav-source"))
            .iter()
            .filter(|h| h.descriptor.instance_id == "wav-source@dev1")
            .count()
    };
    assert_eq!(hosted_on_dev1(&server), 1, "hosted instance registered");

    server.handle_crash(DeviceId::from_index(1));
    assert_eq!(
        hosted_on_dev1(&server),
        0,
        "discovery must never return instances on down devices"
    );
    // The space-wide unpinned source still serves compositions.
    assert!(server
        .registry()
        .discover_all(&DiscoveryQuery::new("wav-source"))
        .iter()
        .any(|h| h.descriptor.instance_id == "wav-source@space"));

    server.recover_device(DeviceId::from_index(1));
    assert_eq!(hosted_on_dev1(&server), 1, "re-registered on recovery");
}

/// Incremental recovery scans only the fault's resource delta. Every
/// pass checks its delta-guided invalid set against the full scan of
/// the charge ledger (a `debug_assert_eq!` inside the pass, live in
/// test builds); this drives that check through a device crash, a
/// device fluctuation, a link degradation and a recovery, and checks
/// the outcome of each step from the outside: the from-scratch
/// invariant sweep passes, and no session changed placement without a
/// recovery fate.
#[test]
#[allow(clippy::type_complexity)]
fn incremental_recovery_is_cross_checked_at_every_fault_kind() {
    let mut server = build_space(4);
    let mut ids = Vec::new();
    for i in 0..6 {
        let (name, graph) = app_template(i);
        let id = server
            .start_session(
                format!("{name}-{i}"),
                graph,
                QosVector::new(),
                DeviceId::from_index(1 + i % 3),
            )
            .expect("fresh space admits");
        ids.push(id);
    }

    let dev = DeviceId::from_index;
    let shrunk = ResourceVector::mem_cpu(48.0, 60.0);
    let steps: Vec<(
        &str,
        &[usize],
        Box<dyn Fn(&mut DomainServer) -> ubiqos_runtime::RecoveryReport>,
    )> = vec![
        (
            "crash dev2",
            &[2],
            Box::new(move |s| s.handle_crash(dev(2))),
        ),
        (
            "fluctuate dev1",
            &[2],
            Box::new(move |s| s.fluctuate(dev(1), shrunk.clone())),
        ),
        (
            "degrade link 0-1",
            &[2],
            Box::new(move |s| s.degrade_link(dev(0), dev(1), 10.0)),
        ),
        (
            "recover dev2",
            &[],
            Box::new(move |s| s.recover_device(dev(2))),
        ),
    ];
    for (label, down, step) in steps {
        let before: Vec<_> = ids
            .iter()
            .map(|&id| server.session(id).map(|s| s.configuration.cut.clone()))
            .collect();
        let report = step(&mut server);
        let down: BTreeSet<usize> = down.iter().copied().collect();
        check_invariants(&server, &down)
            .unwrap_or_else(|e| panic!("invariant broken at `{label}`: {e}"));
        let moved: BTreeSet<_> = report
            .recovered
            .iter()
            .chain(report.degraded.iter().map(|(id, _)| id))
            .chain(&report.parked)
            .chain(&report.readmitted)
            .chain(&report.dropped)
            .collect();
        for (id, old) in ids.iter().zip(before) {
            let now = server.session(*id).map(|s| s.configuration.cut.clone());
            assert!(
                now == old || moved.contains(id),
                "placement of {id} changed at `{label}` without a recovery fate"
            );
        }
        // The delta-guided pass never considers more than the full scan.
        assert!(report.affected <= report.considered);
    }
}

/// Satellite: parking refunds a session's resources *exactly*, and
/// re-admission + departure walks the environment back to the identical
/// idle state.
#[test]
fn park_and_readmit_refund_resources_exactly() {
    let mut server = build_space(3);
    let idle = server.env().clone();
    let (_, graph) = app_template(0);
    let id = server
        .start_session("audio", graph, QosVector::new(), DeviceId::from_index(1))
        .expect("admitted");
    assert_ne!(server.env(), &idle, "the session holds a charge");

    // Crash the client device: the session parks and every charge it
    // held must be refunded — residual equals (crash-adjusted) capacity.
    let report = server.handle_crash(DeviceId::from_index(1));
    assert_eq!(report.parked, vec![id]);
    assert_eq!(
        server.env(),
        server.capacity(),
        "a parked session holds exactly nothing"
    );

    // Recover (which eagerly re-admits), then stop: the environment
    // returns to the identical idle snapshot (refund is the exact
    // inverse of the readmit charge).
    let rec = server.recover_device(DeviceId::from_index(1));
    assert_eq!(rec.readmitted, vec![id]);
    assert_ne!(server.env(), &idle, "the readmitted session charges again");
    assert!(server.stop_session(id).is_some());
    assert_eq!(server.env(), &idle, "idle environment restored exactly");
}

/// Stopping a *parked* session (its scheduled departure arriving while
/// it waits in the retry queue) must not refund anything — it holds no
/// charge.
#[test]
fn stopping_a_parked_session_refunds_nothing() {
    let mut server = build_space(3);
    let (_, graph) = app_template(0);
    let id = server
        .start_session("audio", graph, QosVector::new(), DeviceId::from_index(1))
        .expect("admitted");
    server.handle_crash(DeviceId::from_index(1));
    assert_eq!(server.parked_count(), 1);
    let before = server.env().clone();
    assert!(
        server.stop_session(id).is_some(),
        "parked sessions can stop"
    );
    assert_eq!(server.parked_count(), 0);
    assert_eq!(
        server.env(),
        &before,
        "no charge existed, none was refunded"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Satellite property: whatever rung a fluctuation forces a session
    /// onto, the live configuration still satisfies Equation 1, and the
    /// QoS it delivers satisfies the user's requirement *weakened by the
    /// session's recorded factor* — degradation is honest about how far
    /// it went.
    #[test]
    fn degraded_sessions_still_satisfy_weakened_eq1(
        mem_frac in 0.02f64..1.0,
        cpu_frac in 0.02f64..1.0,
    ) {
        let mut server = build_space(3);
        let user_qos =
            QosVector::new().with(QosDimension::FrameRate, QosValue::range(5.0, 30.0));
        let (_, graph) = app_template(0);
        let id = server
            .start_session("audio", graph, user_qos.clone(), DeviceId::from_index(1))
            .expect("fresh space admits");

        let pristine = server
            .pristine()
            .device(1)
            .expect("device exists")
            .availability()
            .clone();
        let shrunk = pristine
            .scaled_by(&[mem_frac, cpu_frac])
            .expect("two dimensions");
        let report = server.fluctuate(DeviceId::from_index(1), shrunk);

        if let Some(s) = server.session(id) {
            let ladder = server.ladder().levels().to_vec();
            prop_assert!(
                ladder.iter().any(|&l| (l - s.degrade_factor).abs() < 1e-12),
                "factor {} is not a ladder rung", s.degrade_factor
            );
            prop_assert!(
                ubiqos_composition::diagnose(&s.configuration.app.graph).is_consistent(),
                "Eq. 1 must hold at every rung"
            );
            let weakened = weaken_requirement(&user_qos, s.degrade_factor);
            for (_, delivered) in
                ubiqos_runtime::streaming::sink_delivered_vectors(&s.configuration.app.graph)
            {
                let relevant: QosVector = weakened
                    .iter()
                    .filter(|(dim, _)| delivered.get(dim).is_some())
                    .map(|(d, v)| (d.clone(), v.clone()))
                    .collect();
                prop_assert!(
                    delivered.satisfies(&relevant),
                    "delivered {delivered:?} misses the weakened requirement {relevant:?} \
                     at factor {}", s.degrade_factor
                );
            }
        } else {
            // Unplaceable at every rung: the session must be parked (not
            // silently dropped), with its resources refunded.
            prop_assert_eq!(report.parked.clone(), vec![id], "{:?}", report);
            prop_assert_eq!(server.parked_count(), 1);
            prop_assert_eq!(server.env(), server.capacity());
        }
        // Either way nothing is ever dropped under the default policy.
        prop_assert!(report.dropped.is_empty());
    }
}
