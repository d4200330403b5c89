//! Epoch-validated composition memoization — the domain server's
//! cross-request configuration cache.
//!
//! The Fig. 5 workload and the fault campaigns issue thousands of
//! near-identical configuration requests against a registry that changes
//! only at churn events. Composition (discover → compose → OC check) is
//! a pure function of the request and the registry contents, so its
//! result can be memoized keyed by the request and validated by the
//! registry's [`ServiceRegistry::epoch`]:
//!
//! * an entry whose fill epoch equals the current epoch is trivially
//!   valid — nothing changed at all;
//! * an entry from an older epoch is *revalidated* precisely: if none of
//!   the service types the request's abstract graph depends on appear in
//!   [`ServiceRegistry::changed_types_since`], the registry answers every
//!   discovery query of this composition exactly as it did at fill time,
//!   so the entry is still byte-identical to a fresh composition (the
//!   runtime cross-checks this under `debug_assertions`);
//! * otherwise the entry is discarded.
//!
//! The dependency set is exactly the abstract specs' service types. That
//! is sound because the domain server composes with an empty expansion
//! library (no recursive spec expansion) and a *static* transcoder
//! catalog — the registry is consulted only for the abstract types
//! themselves.
//!
//! The distribution tier is never cached: placement depends on the
//! residual environment, which changes with every admission and refund.
//!
//! A request's abstract graph is the bulk of its key, and it is
//! immutable: a [`SharedGraph`] fingerprints it once, when it is
//! wrapped, so a configure renders only the small rest of its key. The
//! cached compositions are shared too — a hit hands out an
//! `Arc<ComposedApplication>`, a reference-count increment, not a copy.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Write as _};
use std::ops::Deref;
use std::sync::Arc;
use ubiqos_composition::ComposedApplication;
use ubiqos_discovery::{DomainId, ServiceRegistry};
use ubiqos_graph::{AbstractServiceGraph, DeviceId};
use ubiqos_model::QosVector;

/// Cached compositions kept before stale entries are evicted.
const CACHE_CAP: usize = 256;

/// A request's cache identity: a 128-bit fingerprint of its abstract
/// graph and user QoS, and the client, domain and ladder factor as
/// they are. The fingerprint streams the two values' deterministic
/// `Debug` renderings through two independent FNV-1a accumulators — no
/// intermediate `String` is ever allocated — and the graph's part was
/// streamed once, when the graph was shared, so a configure renders
/// only the QoS.
///
/// The key is content-based, never address-based: an `Arc`'s address
/// can be reused after a drop, the rendering of a graph cannot change.
/// Two independent 64-bit streams make an accidental collision across a
/// 256-entry cache astronomically unlikely; debug builds additionally
/// cross-check every hit against a fresh recomposition, so a collision
/// cannot pass unnoticed there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheKey {
    content: (u64, u64),
    domain: Option<DomainId>,
    client: DeviceId,
    demand_factor_bits: u64,
}

impl CacheKey {
    /// The key of composing `graph` for `user_qos` at `client` in
    /// `domain`, demand-scaled by `demand_factor`: everything
    /// composition reads besides the registry (the client's device
    /// properties are covered by its index; they are fixed at
    /// construction).
    pub fn of(
        graph: &SharedGraph,
        user_qos: &QosVector,
        domain: Option<DomainId>,
        client: DeviceId,
        demand_factor: f64,
    ) -> Self {
        let mut sink = graph.fingerprint;
        // Writing into the sink is infallible.
        let _ = write!(sink, "|{user_qos:?}");
        CacheKey {
            content: (sink.a, sink.b),
            domain,
            client,
            demand_factor_bits: demand_factor.to_bits(),
        }
    }
}

/// An abstract application graph shared by reference, together with
/// the FNV state its `Debug` rendering leaves: the graph part of every
/// [`CacheKey`] it is configured under, computed once when the graph is
/// wrapped. Sessions, journal records and handoffs hold the graph
/// through this; cloning it is a reference-count increment.
///
/// It renders in `Debug` exactly as the graph it wraps, so every
/// fingerprint and digest that prints a graph is unchanged by it.
#[derive(Clone)]
pub struct SharedGraph {
    graph: Arc<AbstractServiceGraph>,
    fingerprint: FnvSink,
}

impl SharedGraph {
    /// Wraps `graph`, rendering it once for its fingerprint.
    pub fn new(graph: AbstractServiceGraph) -> Self {
        let mut fingerprint = FnvSink::default();
        let _ = write!(fingerprint, "{graph:?}");
        SharedGraph {
            graph: Arc::new(graph),
            fingerprint,
        }
    }
}

impl From<AbstractServiceGraph> for SharedGraph {
    fn from(graph: AbstractServiceGraph) -> Self {
        SharedGraph::new(graph)
    }
}

impl Deref for SharedGraph {
    type Target = AbstractServiceGraph;

    fn deref(&self) -> &AbstractServiceGraph {
        &self.graph
    }
}

impl fmt::Debug for SharedGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.graph, f)
    }
}

/// `fmt::Write` adapter feeding two FNV-1a streams with distinct offset
/// bases (the second basis is the standard one bit-inverted).
#[derive(Clone, Copy)]
struct FnvSink {
    a: u64,
    b: u64,
}

impl Default for FnvSink {
    fn default() -> Self {
        FnvSink {
            a: 0xcbf2_9ce4_8422_2325,
            b: !0xcbf2_9ce4_8422_2325,
        }
    }
}

impl fmt::Write for FnvSink {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        for byte in s.bytes() {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(PRIME);
            self.b = (self.b ^ u64::from(byte)).wrapping_mul(PRIME);
        }
        Ok(())
    }
}

/// Counters for the composition cache. Purely observational — they never
/// feed deterministic logs or virtual time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompositionCacheStats {
    /// Lookups answered from the cache (including revalidated entries).
    pub hits: u64,
    /// Lookups that fell through to a fresh composition.
    pub misses: u64,
    /// Hits that required an epoch revalidation via the changelog
    /// (subset of `hits`).
    pub revalidations: u64,
}

#[derive(Debug, Clone)]
struct Entry {
    /// The composed (and demand-scaled, per the key's rung factor)
    /// application, shared with every configuration built from it.
    app: Arc<ComposedApplication>,
    /// Service types this composition's discovery depended on.
    dep_types: BTreeSet<String>,
    /// Registry epoch the entry was filled (or last revalidated) at.
    epoch: u64,
}

/// The epoch-validated memo of composed applications.
#[derive(Debug)]
pub struct CompositionCache {
    enabled: bool,
    entries: BTreeMap<CacheKey, Entry>,
    stats: CompositionCacheStats,
}

impl Default for CompositionCache {
    fn default() -> Self {
        CompositionCache {
            enabled: true,
            entries: BTreeMap::new(),
            stats: CompositionCacheStats::default(),
        }
    }
}

impl CompositionCache {
    /// Creates an enabled, empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether lookups and inserts are active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Enables or disables the cache; disabling clears it. Observable
    /// configuration results are identical either way — the toggle
    /// exists for the cached-vs-uncached benchmark runs.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        if !enabled {
            self.entries.clear();
        }
    }

    /// The cache counters.
    pub fn stats(&self) -> CompositionCacheStats {
        self.stats
    }

    /// Looks `key` up against the registry's current epoch, revalidating
    /// an older entry through the changed-type changelog when possible.
    /// Returns the shared cached application on a (re)validated hit.
    pub fn lookup(
        &mut self,
        key: CacheKey,
        registry: &ServiceRegistry,
    ) -> Option<Arc<ComposedApplication>> {
        if !self.enabled {
            return None;
        }
        let current = registry.epoch();
        let valid = match self.entries.get_mut(&key) {
            None => false,
            Some(entry) if entry.epoch == current => true,
            Some(entry) => match registry.changed_types_since(entry.epoch) {
                Some(changed)
                    if entry
                        .dep_types
                        .iter()
                        .all(|t| !changed.contains(t.as_str())) =>
                {
                    entry.epoch = current;
                    self.stats.revalidations += 1;
                    true
                }
                // A dependency changed, or the changelog no longer
                // reaches back to the entry's epoch.
                _ => false,
            },
        };
        if valid {
            self.stats.hits += 1;
            Some(Arc::clone(&self.entries[&key].app))
        } else {
            self.entries.remove(&key);
            self.stats.misses += 1;
            None
        }
    }

    /// Stores a freshly composed application under `key`. `epoch` must be
    /// the registry epoch observed *before* composition started.
    pub fn insert(
        &mut self,
        key: CacheKey,
        app: Arc<ComposedApplication>,
        dep_types: BTreeSet<String>,
        epoch: u64,
    ) {
        if !self.enabled {
            return;
        }
        if self.entries.len() >= CACHE_CAP {
            // Stale-first eviction; flush entirely if everything is hot.
            self.entries.retain(|_, e| e.epoch == epoch);
            if self.entries.len() >= CACHE_CAP {
                self.entries.clear();
            }
        }
        self.entries.insert(
            key,
            Entry {
                app,
                dep_types,
                epoch,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ubiqos_composition::{ComposeRequest, ServiceComposer};
    use ubiqos_discovery::{DeviceProperties, ServiceDescriptor};
    use ubiqos_graph::{AbstractComponentSpec, ServiceComponent};

    fn registry() -> ServiceRegistry {
        let mut r = ServiceRegistry::new();
        r.register(ServiceDescriptor::new(
            "a1",
            "audio-server",
            ServiceComponent::builder("audio-server").build(),
        ));
        r
    }

    fn graph() -> AbstractServiceGraph {
        let mut g = AbstractServiceGraph::new();
        g.add_spec(AbstractComponentSpec::new("audio-server"));
        g
    }

    fn compose(r: &ServiceRegistry) -> Arc<ComposedApplication> {
        let app = ServiceComposer::new(r)
            .compose(&ComposeRequest {
                abstract_graph: &graph(),
                user_qos: QosVector::new(),
                client_device: DeviceId::from_index(0),
                client_props: DeviceProperties::unconstrained(),
                domain: None,
            })
            .unwrap();
        Arc::new(app)
    }

    fn key(client: u32) -> CacheKey {
        let graph = SharedGraph::new(graph());
        CacheKey::of(&graph, &QosVector::new(), None, DeviceId(client), 1.0)
    }

    #[test]
    fn keys_follow_content_not_addresses() {
        let shared = SharedGraph::new(graph());
        assert_eq!(format!("{shared:?}"), format!("{:?}", graph()));
        let qos = QosVector::new();
        let of = |g: &SharedGraph, qos: &QosVector, client: u32, factor: f64| {
            CacheKey::of(g, qos, None, DeviceId(client), factor)
        };
        // An equal graph shared separately keys the same; the key
        // resumes the graph's stream with the QoS rendering.
        let twin = SharedGraph::new(graph());
        assert_eq!(of(&shared, &qos, 3, 1.0), of(&twin, &qos, 3, 1.0));
        let mut whole = FnvSink::default();
        let _ = write!(whole, "{:?}|{qos:?}", graph());
        assert_eq!(of(&shared, &qos, 3, 1.0).content, (whole.a, whole.b));
        // Every other input separates keys.
        let mut other = graph();
        other.add_spec(AbstractComponentSpec::new("audio-player"));
        let weak = QosVector::new().with(
            ubiqos_model::QosDimension::FrameRate,
            ubiqos_model::QosValue::exact(10.0),
        );
        let base = of(&shared, &qos, 3, 1.0);
        assert_ne!(base, of(&SharedGraph::new(other), &qos, 3, 1.0));
        assert_ne!(base, of(&shared, &weak, 3, 1.0));
        assert_ne!(base, of(&shared, &qos, 4, 1.0));
        assert_ne!(base, of(&shared, &qos, 3, 0.5));
    }

    #[test]
    fn hit_after_insert_and_invalidation_on_dependent_change() {
        let mut r = registry();
        let app = compose(&r);
        let mut cache = CompositionCache::new();
        let deps = BTreeSet::from(["audio-server".to_owned()]);
        let k = key(0);
        cache.insert(k, Arc::clone(&app), deps, r.epoch());
        assert_eq!(cache.lookup(k, &r), Some(app.clone()));

        // An unrelated type churns: the entry revalidates.
        r.register(ServiceDescriptor::new(
            "v1",
            "video-server",
            ServiceComponent::builder("video-server").build(),
        ));
        assert_eq!(cache.lookup(k, &r), Some(app));
        assert_eq!(cache.stats().revalidations, 1);

        // The dependency churns: the entry dies.
        r.register(ServiceDescriptor::new(
            "a2",
            "audio-server",
            ServiceComponent::builder("audio-server").build(),
        ));
        assert_eq!(cache.lookup(k, &r), None);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
    }

    #[test]
    fn disabled_cache_is_inert() {
        let r = registry();
        let app = compose(&r);
        let mut cache = CompositionCache::new();
        cache.set_enabled(false);
        let k = key(0);
        cache.insert(
            k,
            app,
            BTreeSet::from(["audio-server".to_owned()]),
            r.epoch(),
        );
        assert_eq!(cache.lookup(k, &r), None);
        assert!(!cache.enabled());
        assert_eq!(cache.stats().misses, 0, "disabled lookups are not counted");
    }
}
