//! The per-smart-space service registry.

use crate::descriptor::ServiceDescriptor;
use crate::domain::{Domain, DomainId};
use crate::matching::{score, Discovered};
use crate::query::DiscoveryQuery;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Mutex;
use std::time::Instant;
use ubiqos_model::{QosDimension, QosValue};

/// Entries kept in the bounded changed-type changelog before older
/// history is forgotten (callers older than the window revalidate fully).
const CHANGELOG_CAP: usize = 1024;

/// Memoized query results kept before stale entries are evicted.
const MEMO_CAP: usize = 256;

/// Aggregate discovery counters: how many queries ran, how many were
/// answered from the epoch-keyed memo without scanning a type bucket,
/// and the wall-clock spent inside [`ServiceRegistry::discover_all`].
///
/// Wall-clock never feeds any deterministic log — it exists purely for
/// the per-stage profiling of `BENCH_configure.json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiscoveryStats {
    /// Total `discover_all` calls.
    pub queries: u64,
    /// Calls answered from the memo (no bucket scan, no re-scoring).
    pub memo_hits: u64,
    /// Total wall-clock nanoseconds spent discovering.
    pub wall_nanos: u128,
}

/// The epoch-keyed memo of `discover_all` results plus its counters.
#[derive(Debug, Clone)]
struct QueryMemo {
    enabled: bool,
    /// Rendered query → (registry epoch at fill time, results).
    entries: BTreeMap<String, (u64, Vec<Discovered>)>,
    stats: DiscoveryStats,
}

impl Default for QueryMemo {
    fn default() -> Self {
        QueryMemo {
            enabled: true,
            entries: BTreeMap::new(),
            stats: DiscoveryStats::default(),
        }
    }
}

/// Registry of domains and service instances for one smart space.
///
/// Lookup is domain-aware: a query scoped to a domain sees instances
/// registered in that domain *or any of its ancestors* (an office inherits
/// the building's services), plus globally registered instances. This
/// models the hierarchical smart-space structure of Section 1.
///
/// Registration is dynamic — "many devices and services coming and going
/// frequently" — so instances can be [`ServiceRegistry::unregister`]ed at
/// any time, which is what triggers recomposition in the runtime.
///
/// # Epochs, indexes, and the query memo
///
/// Every mutation (register / unregister / domain-wide unregister) bumps
/// a monotonically increasing [`ServiceRegistry::epoch`] and records the
/// affected service types in a bounded changelog
/// ([`ServiceRegistry::changed_types_since`]), so higher layers can key
/// caches by epoch and revalidate them precisely instead of flushing on
/// every churn event.
///
/// Secondary indexes removed the remaining full scans: instance id →
/// type (O(log) unregister instead of scanning every bucket), hosting
/// device → instances ([`ServiceRegistry::hosted_on`], the crash path),
/// and media-format token → instances
/// ([`ServiceRegistry::instances_with_format`]). Repeat queries stop
/// scanning type buckets entirely: `discover_all` memoizes its (already
/// deterministic) result per query at the current epoch, so the steady
/// state of a workload that asks the same questions over and over is a
/// single map lookup. A memo hit returns a clone of the exact vector a
/// fresh scan would produce — observable behaviour is identical with the
/// memo on or off.
#[derive(Debug, Default)]
pub struct ServiceRegistry {
    domains: Vec<Domain>,
    /// Instances bucketed by service type for O(bucket) discovery.
    by_type: BTreeMap<String, Vec<ServiceDescriptor>>,
    /// Monotonic mutation counter; bumped by every register/unregister.
    epoch: u64,
    /// instance id → service type (O(log) unregister). Derived state —
    /// not serialized, rebuilt on deserialization.
    by_id: BTreeMap<String, String>,
    /// hosting device index → instance ids pinned to it.
    by_host: BTreeMap<usize, BTreeSet<String>>,
    /// media-format token (from the prototype's in/out QoS) → instance
    /// ids carrying it.
    by_format: BTreeMap<String, BTreeSet<String>>,
    /// (epoch after the change, service type changed), oldest first.
    changelog: VecDeque<(u64, String)>,
    /// The epoch every retained changelog entry is newer than: questions
    /// about older epochs cannot be answered precisely.
    changelog_base: u64,
    /// Epoch-keyed memo of `discover_all` results (interior mutability:
    /// discovery is `&self`).
    memo: Mutex<QueryMemo>,
    /// Host device index → virtual-time lease expiry (ms). Registrations
    /// on a device are *leased*: a failure detector renews the lease on
    /// every heartbeat and treats an expired lease as suspicion. Runtime
    /// state — not serialized (a restarted registry starts with no
    /// leases, exactly like a restarted detector).
    leases: BTreeMap<usize, u64>,
}

/// Only the authoritative state (domains, instances, epoch) is
/// serialized; the indexes are derived and rebuilt on deserialization,
/// and the changelog and memo start empty.
impl Serialize for ServiceRegistry {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("domains".to_owned(), self.domains.to_value()),
            ("by_type".to_owned(), self.by_type.to_value()),
            ("epoch".to_owned(), self.epoch.to_value()),
        ])
    }
}

impl Deserialize for ServiceRegistry {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let domains = match value.get("domains") {
            Some(v) => Vec::<Domain>::from_value(v)?,
            None => return Err(serde::Error::custom("missing field `domains`")),
        };
        let by_type = match value.get("by_type") {
            Some(v) => BTreeMap::<String, Vec<ServiceDescriptor>>::from_value(v)?,
            None => return Err(serde::Error::custom("missing field `by_type`")),
        };
        // Snapshots predating the epoch field deserialize at epoch 0.
        let epoch = match value.get("epoch") {
            Some(v) => u64::from_value(v)?,
            None => 0,
        };
        let mut registry = ServiceRegistry {
            domains,
            by_type,
            epoch,
            // History before the snapshot is unknown: older epochs must
            // revalidate fully.
            changelog_base: epoch,
            ..Default::default()
        };
        registry.rebuild_indexes();
        Ok(registry)
    }
}

impl Clone for ServiceRegistry {
    fn clone(&self) -> Self {
        ServiceRegistry {
            domains: self.domains.clone(),
            by_type: self.by_type.clone(),
            epoch: self.epoch,
            by_id: self.by_id.clone(),
            by_host: self.by_host.clone(),
            by_format: self.by_format.clone(),
            changelog: self.changelog.clone(),
            changelog_base: self.changelog_base,
            memo: Mutex::new(self.memo.lock().unwrap_or_else(|e| e.into_inner()).clone()),
            leases: self.leases.clone(),
        }
    }
}

impl ServiceRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a domain to the hierarchy, returning its id.
    pub fn add_domain(&mut self, name: impl Into<String>, parent: Option<DomainId>) -> DomainId {
        let id = DomainId::from_index(self.domains.len());
        self.domains.push(Domain::new(name, parent));
        id
    }

    /// Borrows a domain.
    pub fn domain(&self, id: DomainId) -> Option<&Domain> {
        self.domains.get(id.index())
    }

    /// The number of registered domains.
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// The direct children of `id`, in id order.
    pub fn children(&self, id: DomainId) -> Vec<DomainId> {
        (0..self.domains.len())
            .map(DomainId::from_index)
            .filter(|&c| self.domains[c.index()].parent == Some(id))
            .collect()
    }

    /// `id`'s ancestor chain, nearest parent first (empty for a root).
    pub fn ancestors(&self, id: DomainId) -> Vec<DomainId> {
        let mut chain = Vec::new();
        let mut cur = id;
        while let Some(parent) = self.domains.get(cur.index()).and_then(|d| d.parent) {
            chain.push(parent);
            cur = parent;
        }
        chain
    }

    /// The deterministic order a federated resolver consults domains in
    /// when a query cannot be satisfied inside `id`: the domain itself,
    /// then its ancestors nearest-first, then its siblings (other
    /// children of its parent) in id order, then every remaining domain
    /// in id order. Each domain appears exactly once.
    pub fn resolution_order(&self, id: DomainId) -> Vec<DomainId> {
        let mut order = vec![id];
        order.extend(self.ancestors(id));
        if let Some(parent) = self.domains.get(id.index()).and_then(|d| d.parent) {
            order.extend(self.children(parent).into_iter().filter(|&s| s != id));
        }
        for i in 0..self.domains.len() {
            let d = DomainId::from_index(i);
            if !order.contains(&d) {
                order.push(d);
            }
        }
        order
    }

    /// The registry's current epoch: a monotonic counter bumped by every
    /// mutation. Two equal epochs guarantee identical discovery results
    /// for identical queries, which is what lets higher layers memoize
    /// compositions keyed by `(request, epoch)`.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The current lease table (host device index → virtual-time lease
    /// expiry, ms). Read-only: the durability layer folds it into the
    /// durable-state fingerprint so a crash-recovered registry proves
    /// it restored exactly the leases the original held.
    pub fn lease_table(&self) -> &BTreeMap<usize, u64> {
        &self.leases
    }

    /// The service types changed (registered into or unregistered from)
    /// strictly after `since_epoch`, or `None` when `since_epoch` is
    /// older than the bounded changelog remembers (callers must then
    /// treat *every* type as potentially changed).
    pub fn changed_types_since(&self, since_epoch: u64) -> Option<BTreeSet<&str>> {
        if since_epoch < self.changelog_base {
            return None;
        }
        Some(
            self.changelog
                .iter()
                .filter(|(e, _)| *e > since_epoch)
                .map(|(_, ty)| ty.as_str())
                .collect(),
        )
    }

    /// Bumps the epoch and records `types` as changed at the new epoch.
    fn bump_epoch<'t>(&mut self, types: impl IntoIterator<Item = &'t str>) {
        self.epoch += 1;
        for ty in types {
            self.changelog.push_back((self.epoch, ty.to_owned()));
        }
        while self.changelog.len() > CHANGELOG_CAP {
            let (e, _) = self.changelog.pop_front().expect("len checked");
            self.changelog_base = self.changelog_base.max(e);
        }
    }

    /// Grants or renews the registration lease for host device `device`
    /// until virtual time `expiry_ms`. Heartbeat-driven: the domain
    /// server calls this whenever a heartbeat from the device arrives.
    /// Renewals never bump the epoch — a lease says nothing about which
    /// instances exist, only about how fresh the registry's view of the
    /// device is.
    pub fn renew_lease(&mut self, device: usize, expiry_ms: u64) {
        self.leases.insert(device, expiry_ms);
    }

    /// The lease expiry for `device` (virtual ms), if one was granted.
    pub fn lease_expiry(&self, device: usize) -> Option<u64> {
        self.leases.get(&device).copied()
    }

    /// Revokes `device`'s lease — called when the detector acts on the
    /// expiry (suspicion) so the same expiry is not acted on twice.
    pub fn revoke_lease(&mut self, device: usize) {
        self.leases.remove(&device);
    }

    /// Devices whose lease has expired at `now_ms` (ascending index
    /// order, so expiry processing is deterministic).
    pub fn expired_leases(&self, now_ms: u64) -> Vec<usize> {
        self.leases
            .iter()
            .filter(|(_, &expiry)| expiry <= now_ms)
            .map(|(&d, _)| d)
            .collect()
    }

    /// Builds every secondary index from `by_type`, which a
    /// deserialized registry arrives with alone.
    fn rebuild_indexes(&mut self) {
        let by_type = std::mem::take(&mut self.by_type);
        for d in by_type.values().flatten() {
            self.index_insert(d);
        }
        self.by_type = by_type;
    }

    /// The media-format tokens a descriptor's prototype carries on its
    /// input or output QoS (what the by-format index is keyed on).
    fn format_tokens(descriptor: &ServiceDescriptor) -> BTreeSet<String> {
        let mut tokens = BTreeSet::new();
        for qos in [
            descriptor.prototype.qos_in(),
            descriptor.prototype.qos_out(),
        ] {
            match qos.get(&QosDimension::Format) {
                Some(QosValue::Token(t)) => {
                    tokens.insert(t.clone());
                }
                Some(QosValue::TokenSet(set)) => {
                    tokens.extend(set.iter().cloned());
                }
                _ => {}
            }
        }
        tokens
    }

    fn index_insert(&mut self, descriptor: &ServiceDescriptor) {
        self.by_id.insert(
            descriptor.instance_id.clone(),
            descriptor.service_type.clone(),
        );
        if let Some(host) = descriptor.prototype.pinned_to() {
            self.by_host
                .entry(host.index())
                .or_default()
                .insert(descriptor.instance_id.clone());
        }
        for token in Self::format_tokens(descriptor) {
            self.by_format
                .entry(token)
                .or_default()
                .insert(descriptor.instance_id.clone());
        }
    }

    fn index_remove(&mut self, descriptor: &ServiceDescriptor) {
        self.by_id.remove(&descriptor.instance_id);
        if let Some(host) = descriptor.prototype.pinned_to() {
            if let Some(set) = self.by_host.get_mut(&host.index()) {
                set.remove(&descriptor.instance_id);
                if set.is_empty() {
                    self.by_host.remove(&host.index());
                }
            }
        }
        for token in Self::format_tokens(descriptor) {
            if let Some(set) = self.by_format.get_mut(&token) {
                set.remove(&descriptor.instance_id);
                if set.is_empty() {
                    self.by_format.remove(&token);
                }
            }
        }
    }

    /// Registers a service instance. Re-registering the same
    /// `instance_id` replaces the previous descriptor.
    pub fn register(&mut self, descriptor: ServiceDescriptor) {
        // The same id may currently live under a *different* type.
        if let Some(old_type) = self.by_id.get(&descriptor.instance_id).cloned() {
            if old_type != descriptor.service_type {
                self.unregister(&descriptor.instance_id);
            }
        }
        let ty = descriptor.service_type.clone();
        let bucket = self.by_type.entry(ty.clone()).or_default();
        if let Some(pos) = bucket
            .iter()
            .position(|d| d.instance_id == descriptor.instance_id)
        {
            let old = bucket.remove(pos);
            self.index_remove(&old);
        }
        self.by_type
            .get_mut(&ty)
            .expect("bucket created above")
            .push(descriptor.clone());
        self.index_insert(&descriptor);
        self.bump_epoch([ty.as_str()]);
    }

    /// Removes an instance by id, returning it if it was registered.
    /// O(log) via the id index instead of scanning every type bucket.
    pub fn unregister(&mut self, instance_id: &str) -> Option<ServiceDescriptor> {
        let ty = self.by_id.get(instance_id)?.clone();
        let bucket = self.by_type.get_mut(&ty)?;
        let pos = bucket.iter().position(|d| d.instance_id == instance_id)?;
        let removed = bucket.remove(pos);
        if bucket.is_empty() {
            self.by_type.remove(&ty);
        }
        self.index_remove(&removed);
        self.bump_epoch([ty.as_str()]);
        Some(removed)
    }

    /// Removes every instance registered in `domain` (e.g. the user left
    /// the room and its devices went out of scope). Returns how many were
    /// removed.
    pub fn unregister_domain(&mut self, domain: DomainId) -> usize {
        let mut removed = 0;
        let mut changed_types: Vec<String> = Vec::new();
        let mut dropped: Vec<ServiceDescriptor> = Vec::new();
        for (ty, bucket) in &mut self.by_type {
            let before = bucket.len();
            bucket.retain(|d| {
                let keep = d.domain != Some(domain);
                if !keep {
                    dropped.push(d.clone());
                }
                keep
            });
            if bucket.len() != before {
                removed += before - bucket.len();
                changed_types.push(ty.clone());
            }
        }
        self.by_type.retain(|_, bucket| !bucket.is_empty());
        for d in &dropped {
            self.index_remove(d);
        }
        if removed > 0 {
            self.bump_epoch(changed_types.iter().map(String::as_str));
        }
        removed
    }

    /// The instances hosted on (prototype pinned to) device `device` —
    /// what a crash must unregister — via the hosting index instead of a
    /// full instance scan. Ids are returned in ascending order.
    pub fn hosted_on(&self, device: usize) -> Vec<&ServiceDescriptor> {
        let Some(ids) = self.by_host.get(&device) else {
            return Vec::new();
        };
        ids.iter().filter_map(|id| self.lookup(id)).collect()
    }

    /// The instances whose prototype carries media-format `token` on its
    /// input or output QoS, in ascending instance-id order.
    pub fn instances_with_format(&self, token: &str) -> Vec<&ServiceDescriptor> {
        let Some(ids) = self.by_format.get(token) else {
            return Vec::new();
        };
        ids.iter().filter_map(|id| self.lookup(id)).collect()
    }

    /// Borrows a registered instance by id, via the id index.
    pub fn lookup(&self, instance_id: &str) -> Option<&ServiceDescriptor> {
        let ty = self.by_id.get(instance_id)?;
        self.by_type
            .get(ty)?
            .iter()
            .find(|d| d.instance_id == instance_id)
    }

    /// Enables or disables the epoch-keyed `discover_all` memo (on by
    /// default). Disabling also clears it. Results are identical either
    /// way; the toggle exists for the cached-vs-uncached benchmark runs.
    pub fn set_query_memo(&mut self, enabled: bool) {
        let memo = self.memo.get_mut().unwrap_or_else(|e| e.into_inner());
        memo.enabled = enabled;
        if !enabled {
            memo.entries.clear();
        }
    }

    /// Discovery counters (total queries, memo hits, wall-clock). The
    /// wall-clock feeds profiling artifacts only — never deterministic
    /// logs.
    pub fn discovery_stats(&self) -> DiscoveryStats {
        self.memo.lock().unwrap_or_else(|e| e.into_inner()).stats
    }

    /// The number of registered instances.
    pub fn instance_count(&self) -> usize {
        self.by_type.values().map(Vec::len).sum()
    }

    /// Iterates over every registered instance, in service-type order.
    ///
    /// Runtime fault handling uses this to find the instances *hosted*
    /// on a device (their prototype is pinned to it) when that device
    /// crashes, so they can be unregistered until it recovers.
    pub fn instances(&self) -> impl Iterator<Item = &ServiceDescriptor> {
        self.by_type.values().flat_map(|bucket| bucket.iter())
    }

    /// Finds the instance closest to the query, or `None` when nothing
    /// eligible is registered ("it is possible that no discovered
    /// component is returned for a particular service").
    pub fn discover(&self, query: &DiscoveryQuery) -> Option<Discovered> {
        self.discover_all(query).into_iter().next()
    }

    /// All eligible instances, best first (score descending, then
    /// domain-local instances before inherited/global ones — the
    /// "closest" instance in the smart-space hierarchy — then instance id
    /// ascending for determinism).
    ///
    /// Repeat queries at an unchanged epoch are answered from the memo
    /// without scanning the type bucket; the returned vector is a clone
    /// of exactly what the scan produced, so the memo is observationally
    /// transparent.
    pub fn discover_all(&self, query: &DiscoveryQuery) -> Vec<Discovered> {
        let start = Instant::now();
        let mut key: Option<String> = None;
        {
            let mut memo = self.memo.lock().unwrap_or_else(|e| e.into_inner());
            memo.stats.queries += 1;
            if memo.enabled {
                // Debug rendering of the query is deterministic (BTreeMap
                // dimensions, exact float formatting) and cheaper than a
                // serializer round-trip.
                let k = format!("{query:?}");
                let cached = memo
                    .entries
                    .get(&k)
                    .and_then(|(epoch, hits)| (*epoch == self.epoch).then(|| hits.clone()));
                if let Some(out) = cached {
                    memo.stats.memo_hits += 1;
                    memo.stats.wall_nanos += start.elapsed().as_nanos();
                    return out;
                }
                key = Some(k);
            }
        }
        let hits = self.scan_discover(query);
        let mut memo = self.memo.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(k) = key {
            if memo.entries.len() >= MEMO_CAP {
                let epoch = self.epoch;
                memo.entries.retain(|_, (e, _)| *e == epoch);
                if memo.entries.len() >= MEMO_CAP {
                    memo.entries.clear();
                }
            }
            memo.entries.insert(k, (self.epoch, hits.clone()));
        }
        memo.stats.wall_nanos += start.elapsed().as_nanos();
        hits
    }

    /// The uncached bucket scan behind [`ServiceRegistry::discover_all`].
    fn scan_discover(&self, query: &DiscoveryQuery) -> Vec<Discovered> {
        let Some(bucket) = self.by_type.get(&query.service_type) else {
            return Vec::new();
        };
        let mut hits: Vec<Discovered> = bucket
            .iter()
            .filter(|d| self.visible_from(d.domain, query.domain))
            .filter_map(|d| {
                score(d, query).map(|s| Discovered {
                    descriptor: d.clone(),
                    score: s,
                })
            })
            .collect();
        let locality = |d: &ServiceDescriptor| -> u8 {
            u8::from(query.domain.is_some() && d.domain == query.domain)
        };
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| locality(&b.descriptor).cmp(&locality(&a.descriptor)))
                .then_with(|| a.descriptor.instance_id.cmp(&b.descriptor.instance_id))
        });
        hits
    }

    /// Whether an instance in `instance_domain` is visible to a query
    /// scoped to `query_domain`.
    ///
    /// Global instances (`None`) are visible everywhere; a global query
    /// sees everything; otherwise the instance's domain must be the query
    /// domain or one of its ancestors.
    fn visible_from(
        &self,
        instance_domain: Option<DomainId>,
        query_domain: Option<DomainId>,
    ) -> bool {
        match (instance_domain, query_domain) {
            (None, _) | (_, None) => true,
            (Some(inst), Some(query)) => {
                let mut cursor = Some(query);
                while let Some(d) = cursor {
                    if d == inst {
                        return true;
                    }
                    cursor = self.domains.get(d.index()).and_then(|dom| dom.parent);
                }
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ubiqos_graph::ServiceComponent;
    use ubiqos_model::{QosDimension as D, QosValue, QosVector};

    fn desc(id: &str, ty: &str) -> ServiceDescriptor {
        ServiceDescriptor::new(id, ty, ServiceComponent::builder(ty).build())
    }

    fn registry_with_hierarchy() -> (ServiceRegistry, DomainId, DomainId, DomainId) {
        let mut r = ServiceRegistry::new();
        let campus = r.add_domain("campus", None);
        let building = r.add_domain("building", Some(campus));
        let office = r.add_domain("office", Some(building));
        (r, campus, building, office)
    }

    #[test]
    fn register_discover_unregister() {
        let mut r = ServiceRegistry::new();
        r.register(desc("a1", "audio-server"));
        assert_eq!(r.instance_count(), 1);
        let hit = r.discover(&DiscoveryQuery::new("audio-server")).unwrap();
        assert_eq!(hit.descriptor.instance_id, "a1");
        assert!(r.discover(&DiscoveryQuery::new("video-server")).is_none());
        assert!(r.unregister("a1").is_some());
        assert!(r.unregister("a1").is_none());
        assert_eq!(r.instance_count(), 0);
    }

    #[test]
    fn reregistration_replaces() {
        let mut r = ServiceRegistry::new();
        r.register(desc("a1", "audio-server").with_code_size_mb(1.0));
        r.register(desc("a1", "audio-server").with_code_size_mb(9.0));
        assert_eq!(r.instance_count(), 1);
        let hit = r.discover(&DiscoveryQuery::new("audio-server")).unwrap();
        assert_eq!(hit.descriptor.code_size_mb, 9.0);
    }

    #[test]
    fn hierarchical_visibility() {
        let (mut r, campus, building, office) = registry_with_hierarchy();
        r.register(desc("in-campus", "printer").in_domain(campus));
        r.register(desc("in-office", "printer").in_domain(office));

        // Query from the office sees both (campus is an ancestor).
        let from_office = r.discover_all(&DiscoveryQuery::new("printer").in_domain(office));
        assert_eq!(from_office.len(), 2);

        // Query from the building sees only the campus instance.
        let from_building = r.discover_all(&DiscoveryQuery::new("printer").in_domain(building));
        assert_eq!(from_building.len(), 1);
        assert_eq!(from_building[0].descriptor.instance_id, "in-campus");

        // A global query sees everything.
        let global = r.discover_all(&DiscoveryQuery::new("printer"));
        assert_eq!(global.len(), 2);
    }

    #[test]
    fn unregister_domain_drops_departed_devices() {
        let (mut r, _, _, office) = registry_with_hierarchy();
        r.register(desc("x", "cam").in_domain(office));
        r.register(desc("y", "cam").in_domain(office));
        r.register(desc("z", "cam"));
        assert_eq!(r.unregister_domain(office), 2);
        assert_eq!(r.instance_count(), 1);
    }

    #[test]
    fn best_match_ordering_prefers_qos_over_registration_order() {
        let mut r = ServiceRegistry::new();
        // A JPEG player registered first, a WAV player second.
        r.register(ServiceDescriptor::new(
            "jpeg-player",
            "audio-player",
            ServiceComponent::builder("audio-player")
                .qos_out(QosVector::new().with(D::Format, QosValue::token("JPEG")))
                .build(),
        ));
        r.register(ServiceDescriptor::new(
            "wav-player",
            "audio-player",
            ServiceComponent::builder("audio-player")
                .qos_out(QosVector::new().with(D::Format, QosValue::token("WAV")))
                .build(),
        ));
        let q = DiscoveryQuery::new("audio-player")
            .with_desired_qos(QosVector::new().with(D::Format, QosValue::token("WAV")));
        let hits = r.discover_all(&q);
        assert_eq!(hits[0].descriptor.instance_id, "wav-player");
        assert_eq!(hits.len(), 2, "imperfect matches are still returned");
        assert!(hits[0].score > hits[1].score);
    }

    #[test]
    fn domain_local_instances_win_score_ties() {
        let (mut r, campus, _, office) = registry_with_hierarchy();
        // Identical prototypes: a global instance, a campus-wide one, and
        // an office-local one — all tie on score. The office query must
        // get its own room's instance first, regardless of instance ids.
        r.register(desc("a-global", "printer"));
        r.register(desc("b-campus", "printer").in_domain(campus));
        r.register(desc("z-office", "printer").in_domain(office));
        let hits = r.discover_all(&DiscoveryQuery::new("printer").in_domain(office));
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].descriptor.instance_id, "z-office");
        // A global query has no locality; ids break the tie.
        let global = r.discover_all(&DiscoveryQuery::new("printer"));
        assert_eq!(global[0].descriptor.instance_id, "a-global");
    }

    #[test]
    fn deterministic_tie_break_by_instance_id() {
        let mut r = ServiceRegistry::new();
        r.register(desc("b", "x"));
        r.register(desc("a", "x"));
        let hits = r.discover_all(&DiscoveryQuery::new("x"));
        assert_eq!(hits[0].descriptor.instance_id, "a");
    }

    #[test]
    fn epoch_bumps_on_every_mutation_only() {
        let mut r = ServiceRegistry::new();
        assert_eq!(r.epoch(), 0);
        r.register(desc("a1", "audio-server"));
        assert_eq!(r.epoch(), 1);
        r.register(desc("a1", "audio-server")); // replacement still mutates
        assert_eq!(r.epoch(), 2);
        assert!(r.unregister("a1").is_some());
        assert_eq!(r.epoch(), 3);
        assert!(r.unregister("a1").is_none()); // no-op: no bump
        assert_eq!(r.epoch(), 3);
        let _ = r.discover_all(&DiscoveryQuery::new("audio-server")); // reads never bump
        assert_eq!(r.epoch(), 3);
    }

    #[test]
    fn changed_types_are_tracked_per_epoch() {
        let mut r = ServiceRegistry::new();
        r.register(desc("a1", "audio-server"));
        let mark = r.epoch();
        assert_eq!(r.changed_types_since(mark), Some(BTreeSet::new()));
        r.register(desc("v1", "video-server"));
        let changed = r.changed_types_since(mark).unwrap();
        assert_eq!(changed, BTreeSet::from(["video-server"]));
        r.unregister("a1");
        let changed = r.changed_types_since(mark).unwrap();
        assert_eq!(changed, BTreeSet::from(["audio-server", "video-server"]));
        // Prehistoric epochs cannot be answered after a changelog flush.
        let mut long = ServiceRegistry::new();
        for i in 0..(CHANGELOG_CAP + 8) {
            long.register(desc(&format!("i{i}"), "x"));
        }
        assert!(long.changed_types_since(0).is_none());
        assert!(long.changed_types_since(long.epoch()).is_some());
    }

    #[test]
    fn hosted_on_tracks_pins_through_churn() {
        use ubiqos_graph::DeviceId;
        let mut r = ServiceRegistry::new();
        let pinned = |id: &str, dev: usize| {
            ServiceDescriptor::new(
                id,
                "cam",
                ServiceComponent::builder("cam")
                    .pinned_to(DeviceId::from_index(dev))
                    .build(),
            )
        };
        r.register(pinned("c0", 0));
        r.register(pinned("c1", 1));
        r.register(pinned("c2", 0));
        r.register(desc("free", "cam"));
        let on0: Vec<&str> = r
            .hosted_on(0)
            .iter()
            .map(|d| d.instance_id.as_str())
            .collect();
        assert_eq!(on0, vec!["c0", "c2"]);
        assert_eq!(r.hosted_on(2).len(), 0);
        r.unregister("c0");
        assert_eq!(r.hosted_on(0).len(), 1);
        // Re-registering under a different pin moves it between hosts.
        r.register(pinned("c2", 1));
        assert_eq!(r.hosted_on(0).len(), 0);
        assert_eq!(r.hosted_on(1).len(), 2);
    }

    #[test]
    fn leases_expire_renew_and_stay_epoch_neutral() {
        let mut r = ServiceRegistry::new();
        assert_eq!(r.lease_expiry(0), None);
        assert!(r.expired_leases(u64::MAX).is_empty());
        r.renew_lease(0, 1_000);
        r.renew_lease(1, 2_000);
        r.renew_lease(2, 3_000);
        // Renewals are lease-table-only: no epoch bump, no churn.
        assert_eq!(r.epoch(), 0);
        assert_eq!(r.lease_expiry(1), Some(2_000));
        assert_eq!(r.expired_leases(999), Vec::<usize>::new());
        assert_eq!(r.expired_leases(2_000), vec![0, 1]);
        // Renewing pushes the expiry out; revoking removes the lease so
        // the same expiry is never acted on twice.
        r.renew_lease(0, 5_000);
        assert_eq!(r.expired_leases(2_000), vec![1]);
        r.revoke_lease(1);
        assert_eq!(r.expired_leases(u64::MAX), vec![0, 2]);
        // Clones carry the lease table; serialization does not (a fresh
        // detector starts with no leases).
        let cloned = r.clone();
        assert_eq!(cloned.lease_expiry(0), Some(5_000));
        let json = serde_json::to_string(&r).unwrap();
        let restored: ServiceRegistry = serde_json::from_str(&json).unwrap();
        assert_eq!(restored.lease_expiry(0), None);
    }

    #[test]
    fn format_index_covers_in_and_out_tokens() {
        let mut r = ServiceRegistry::new();
        r.register(ServiceDescriptor::new(
            "src",
            "source",
            ServiceComponent::builder("source")
                .qos_out(QosVector::new().with(D::Format, QosValue::token("MPEG")))
                .build(),
        ));
        r.register(ServiceDescriptor::new(
            "snk",
            "sink",
            ServiceComponent::builder("sink")
                .qos_in(QosVector::new().with(D::Format, QosValue::token("WAV")))
                .build(),
        ));
        let mpeg: Vec<&str> = r
            .instances_with_format("MPEG")
            .iter()
            .map(|d| d.instance_id.as_str())
            .collect();
        assert_eq!(mpeg, vec!["src"]);
        assert_eq!(r.instances_with_format("WAV").len(), 1);
        assert_eq!(r.instances_with_format("JPEG").len(), 0);
        r.unregister("src");
        assert_eq!(r.instances_with_format("MPEG").len(), 0);
    }

    #[test]
    fn memo_hits_repeat_queries_and_invalidates_on_epoch() {
        let mut r = ServiceRegistry::new();
        r.register(desc("b", "x"));
        r.register(desc("a", "x"));
        let q = DiscoveryQuery::new("x");
        let first = r.discover_all(&q);
        let second = r.discover_all(&q);
        assert_eq!(first, second);
        let stats = r.discovery_stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.memo_hits, 1, "second identical query is a memo hit");
        // A mutation bumps the epoch: the next query re-scans.
        r.register(desc("c", "x"));
        let third = r.discover_all(&q);
        assert_eq!(third.len(), 3);
        assert_eq!(r.discovery_stats().memo_hits, 1);
        // With the memo disabled, results are identical and hits stop.
        let mut plain = r.clone();
        plain.set_query_memo(false);
        assert_eq!(plain.discover_all(&q), r.discover_all(&q));
        assert_eq!(
            plain.discovery_stats().memo_hits,
            r.discovery_stats().memo_hits - 1
        );
    }

    #[test]
    fn deserialized_registry_rebuilds_its_indexes() {
        use ubiqos_graph::DeviceId;
        let mut r = ServiceRegistry::new();
        r.register(desc("a1", "audio-server"));
        r.register(ServiceDescriptor::new(
            "h0",
            "cam",
            ServiceComponent::builder("cam")
                .pinned_to(DeviceId::from_index(0))
                .qos_out(QosVector::new().with(D::Format, QosValue::token("MPEG")))
                .build(),
        ));
        let json = serde_json::to_string(&r).unwrap();
        let mut back: ServiceRegistry = serde_json::from_str(&json).unwrap();
        assert_eq!(back.epoch(), r.epoch());
        // Every index-backed query answers before any mutation...
        assert_eq!(back.hosted_on(0).len(), 1);
        assert_eq!(back.lookup("a1").unwrap().service_type, "audio-server");
        let mpeg: Vec<&str> = back
            .instances_with_format("MPEG")
            .iter()
            .map(|d| d.instance_id.as_str())
            .collect();
        assert_eq!(mpeg, ["h0"]);
        // ...and mutations keep them current.
        assert!(back.unregister("a1").is_some());
        assert_eq!(back.instance_count(), 1);
        assert_eq!(back.hosted_on(0).len(), 1);
        assert!(back.changed_types_since(r.epoch()).is_some());
    }

    #[test]
    fn domain_accessors() {
        let (r, campus, _, office) = registry_with_hierarchy();
        assert_eq!(r.domain_count(), 3);
        assert_eq!(r.domain(campus).unwrap().name, "campus");
        assert!(r.domain(office).unwrap().parent.is_some());
        assert!(r.domain(DomainId::from_index(99)).is_none());
    }

    #[test]
    fn domain_tree_helpers() {
        let (mut r, campus, building, office) = registry_with_hierarchy();
        let lab = r.add_domain("lab", Some(building));
        assert_eq!(r.children(campus), vec![building]);
        assert_eq!(r.children(building), vec![office, lab]);
        assert!(r.children(office).is_empty());
        assert_eq!(r.ancestors(office), vec![building, campus]);
        assert!(r.ancestors(campus).is_empty());
    }

    #[test]
    fn resolution_order_is_self_ancestors_siblings_rest() {
        let (mut r, campus, building, office) = registry_with_hierarchy();
        let lab = r.add_domain("lab", Some(building));
        let annex = r.add_domain("annex", Some(campus));
        // office: itself, parents nearest-first, sibling lab, then the
        // remaining domain (annex) in id order. Each exactly once.
        assert_eq!(
            r.resolution_order(office),
            vec![office, building, campus, lab, annex]
        );
        // A root has no ancestors or siblings; the rest follow in order.
        assert_eq!(
            r.resolution_order(campus),
            vec![campus, building, office, lab, annex]
        );
    }
}
