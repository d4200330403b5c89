//! Satellite property for the configuration cache: under *any*
//! interleaving of registry churn (register / unregister) and device
//! faults (crash / recover), a cache-enabled domain server previews
//! configurations byte-identical to a cache-disabled one.
//!
//! Two servers are driven through the identical operation sequence; the
//! only difference is the composition cache (and discovery memo). After
//! every operation both servers preview both application templates from
//! every up client device, and the results — composed graph, placement,
//! cost, or the exact error — must match. Debug builds additionally
//! cross-check every cache hit against a fresh recomposition inside
//! [`DomainServer`] itself.

use proptest::prelude::*;
use ubiqos_discovery::ServiceDescriptor;
use ubiqos_graph::{ComponentRole, DeviceId, ServiceComponent};
use ubiqos_model::{QosDimension, QosValue, QosVector, ResourceVector};
use ubiqos_runtime::faults::{app_template, build_space};
use ubiqos_runtime::{
    run_fault_campaign, run_federation_campaign_lossy, DomainServer, FaultCampaignConfig,
    FederationConfig, LossConfig,
};
use ubiqos_sim::{MobilityWaveConfig, ShardCrashPlan};

const DEVICES: usize = 4;

/// One registry/fault operation, applied identically to both servers.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Register an extra unpinned `wav-source` instance (slot 0-3).
    Register(usize),
    /// Unregister that slot's instance if present (no-op otherwise —
    /// identical on both servers either way).
    Unregister(usize),
    /// Crash a device (skipped while already down).
    Crash(usize),
    /// Recover a device (skipped while up).
    Recover(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..4usize).prop_map(Op::Register),
        (0..4usize).prop_map(Op::Unregister),
        (1..DEVICES).prop_map(Op::Crash),
        (1..DEVICES).prop_map(Op::Recover),
    ]
}

/// An extra discoverable source whose registration churns the epoch of
/// the `wav-source` type the WAV template depends on.
fn extra_source(slot: usize) -> ServiceDescriptor {
    ServiceDescriptor::new(
        format!("wav-source@extra{slot}"),
        "wav-source",
        ServiceComponent::builder("wav-source")
            .role(ComponentRole::Source)
            .qos_out(
                QosVector::new()
                    .with(QosDimension::Format, QosValue::token("WAV"))
                    .with(QosDimension::FrameRate, QosValue::exact(30.0)),
            )
            .capability(QosDimension::FrameRate, QosValue::range(1.0, 30.0))
            .resources(ResourceVector::mem_cpu(20.0, 26.0))
            .build(),
    )
}

/// Previews both templates from every up client on both servers and
/// asserts byte-identical outcomes.
fn assert_previews_match(cached: &DomainServer, fresh: &DomainServer, down: &[bool], label: &str) {
    for template in 0..2 {
        let (name, graph) = app_template(template);
        for (client, &client_down) in down.iter().enumerate().take(DEVICES).skip(1) {
            if client_down {
                continue;
            }
            let a = cached.preview(
                &graph,
                &QosVector::new(),
                DeviceId::from_index(client),
                None,
            );
            let b = fresh.preview(
                &graph,
                &QosVector::new(),
                DeviceId::from_index(client),
                None,
            );
            assert_eq!(
                a, b,
                "cached and fresh previews diverged for {name} from dev{client} after {label}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_interleaving_yields_identical_cached_and_fresh_previews(
        ops in proptest::collection::vec(op_strategy(), 1..12)
    ) {
        let mut cached = build_space(DEVICES);
        let mut fresh = build_space(DEVICES);
        fresh.set_config_cache(false);
        let mut down = [false; DEVICES];

        // Seed the cache before any churn so later hits must survive
        // epoch revalidation, not just start cold.
        assert_previews_match(&cached, &fresh, &down, "warm-up");

        for (step, &op) in ops.iter().enumerate() {
            let label = format!("step {step} {op:?}");
            match op {
                Op::Register(slot) => {
                    // Re-registering an id replaces it — identical on
                    // both servers, so no need to skip.
                    cached.registry_mut().register(extra_source(slot));
                    fresh.registry_mut().register(extra_source(slot));
                }
                Op::Unregister(slot) => {
                    let id = format!("wav-source@extra{slot}");
                    let a = cached.registry_mut().unregister(&id);
                    let b = fresh.registry_mut().unregister(&id);
                    prop_assert_eq!(a.is_some(), b.is_some());
                }
                Op::Crash(d) => {
                    if !down[d] {
                        cached.handle_crash(DeviceId::from_index(d));
                        fresh.handle_crash(DeviceId::from_index(d));
                        down[d] = true;
                    }
                }
                Op::Recover(d) => {
                    if down[d] {
                        cached.recover_device(DeviceId::from_index(d));
                        fresh.recover_device(DeviceId::from_index(d));
                        down[d] = false;
                    }
                }
            }
            assert_previews_match(&cached, &fresh, &down, &label);
        }

        let stats = cached.config_cache_stats();
        prop_assert!(
            stats.hits + stats.misses > 0,
            "the cached server must actually exercise its cache: {stats:?}"
        );
        let fresh_stats = fresh.config_cache_stats();
        prop_assert_eq!(fresh_stats.hits, 0, "a disabled cache never hits");
        prop_assert_eq!(fresh_stats.misses, 0, "nor counts misses");
    }
}

/// perfbench's seed derivation: a workload's config seed is
/// `mix(seed, salt)`, SplitMix64 over the seed and the salted salt.
fn mix(seed: u64, salt: u64) -> u64 {
    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
    splitmix64(seed ^ splitmix64(salt))
}

/// The hit/miss/revalidation counts and the log digest of perfbench's
/// seed-1 `churn` workload: 20 000 arrivals on eight devices near
/// capacity, 400 faults, four partitions under imperfect detection.
/// The cache key is content-based, so sharing graphs and fingerprinting
/// them once must leave every lookup's verdict where it was; the
/// values were captured before graphs were shared.
#[test]
fn churn_keeps_its_hit_miss_sequence() {
    let cfg = FaultCampaignConfig {
        seed: mix(1, 0xc4a2_0000),
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
    };
    let out = run_fault_campaign(&cfg).expect("the churn campaign keeps every invariant");
    let c = out.cache;
    assert_eq!(
        (c.hits, c.misses, c.revalidations, out.report.log_digest),
        (19_040, 470, 451, 0x3cc8_9f8a_24db_4946),
        "churn seed 1: (hits, misses, revalidations, log digest)"
    );
}

/// The same pin per shard for a 4-shard federation over a lossy
/// transport with four shard crashes. A crashed shard restores from its
/// checkpoint with a cold cache, so its counts start again there: the
/// pin covers the journal replay's configures too.
#[test]
fn lossy_crashing_federation_keeps_its_hit_miss_sequence() {
    let cfg = FederationConfig {
        base: FaultCampaignConfig {
            devices: 16,
            requests: 400,
            horizon_h: 10.0,
            faults: 12,
            ..FaultCampaignConfig::default()
        },
        shards: 4,
        mobility: MobilityWaveConfig {
            moves: 24,
            waves: 3,
            horizon_h: 10.0,
            devices: 16,
            ..MobilityWaveConfig::default()
        },
        crashes: ShardCrashPlan {
            crashes: 4,
            shards: 4,
            horizon_h: 10.0,
            outage_h: 0.3,
            ..ShardCrashPlan::default()
        },
        ..FederationConfig::default()
    };
    let schedule = cfg.schedule();
    let (out, loss) =
        run_federation_campaign_lossy(&cfg, &schedule, LossConfig::lossy(0x5ca1_ab1e, 0.1))
            .expect("the crashed lossy federation converges");
    assert!(loss.drops > 0 && out.stats.shard_crashes == 4);
    let per_shard: Vec<(u64, u64, u64, u64)> = out
        .shards
        .iter()
        .map(|s| {
            let c = s.cache;
            (c.hits, c.misses, c.revalidations, s.report.log_digest)
        })
        .collect();
    assert_eq!(
        per_shard,
        [
            (17, 8, 0, 0x1e47_46bb_aa82_7d98),
            (50, 59, 0, 0x2304_0f11_fce6_e6bd),
            (95, 8, 0, 0x6854_d9d7_49bd_588d),
            (57, 44, 0, 0x542d_5efe_736d_300a),
        ],
        "per shard: (hits, misses, revalidations, log digest)"
    );
}
