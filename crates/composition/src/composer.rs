//! The service composer: the four protocol steps of Section 3.2.

use crate::correction::{Correction, CorrectionPolicy};
use crate::error::CompositionError;
use crate::library::ExpansionLibrary;
use crate::oc::{ordered_coordination, OcReport};
use crate::transcoder::TranscoderCatalog;
use crate::RECURSION_LIMIT;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use ubiqos_discovery::{DeviceProperties, DiscoveryQuery, DomainId, ServiceRegistry};
use ubiqos_graph::{
    AbstractComponentSpec, AbstractServiceGraph, ComponentId, DeviceId, PinHint, ServiceGraph,
    SpecId,
};
use ubiqos_model::QosVector;

/// What the composer needs to know about the requesting user/session.
#[derive(Debug, Clone)]
pub struct ComposeRequest<'a> {
    /// The developer's abstract application description.
    pub abstract_graph: &'a AbstractServiceGraph,
    /// The user's QoS requirements, applied to client-pinned services
    /// (e.g. "CD quality music").
    pub user_qos: QosVector,
    /// The device acting as the user's portal; `ClientDevice` pins
    /// resolve to it.
    pub client_device: DeviceId,
    /// The client device's properties, for discovery filtering.
    pub client_props: DeviceProperties,
    /// Domain to discover in (`None` = whole smart space).
    pub domain: Option<DomainId>,
}

/// One registry instance used in a composed application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceUse {
    /// The registry instance id.
    pub instance_id: String,
    /// Code bundle size (MB), for dynamic-download accounting.
    pub code_size_mb: f64,
    /// The component this instance became in the composed graph.
    pub component: ComponentId,
}

/// A successfully composed, QoS-consistent application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComposedApplication {
    /// The QoS-consistent service graph, ready for the distribution tier.
    pub graph: ServiceGraph,
    /// What the OC algorithm did.
    pub report: OcReport,
    /// Registry instances used, in component order.
    pub instances: Vec<InstanceUse>,
}

impl ComposedApplication {
    /// Total code to download if none of the instances are pre-installed
    /// (MB).
    pub fn total_code_size_mb(&self) -> f64 {
        self.instances.iter().map(|i| i.code_size_mb).sum()
    }

    /// Scales every component's resource demand by `factor` — the
    /// degradation ladder's demand side. A session placed at rung factor
    /// `f` streams proportionally less data, so the distribution tier
    /// should charge (and fit) `f` times the full-quality demand.
    ///
    /// # Panics
    ///
    /// Panics when `factor` is negative or non-finite.
    pub fn scale_resources(&mut self, factor: f64) {
        let ids: Vec<_> = self.graph.component_ids().collect();
        for id in ids {
            self.graph
                .component_mut(id)
                .expect("own component ids are valid")
                .scale_resources(factor);
        }
    }
}

/// The service composer.
///
/// Borrows the environment's [`ServiceRegistry`]; owns its transcoder
/// catalog, expansion library, and correction policy.
///
/// # Example
///
/// ```
/// use ubiqos_composition::{ComposeRequest, ServiceComposer};
/// use ubiqos_discovery::{DeviceProperties, ServiceDescriptor, ServiceRegistry};
/// use ubiqos_graph::{AbstractComponentSpec, AbstractServiceGraph, DeviceId, ServiceComponent};
/// use ubiqos_model::QosVector;
///
/// let mut registry = ServiceRegistry::new();
/// registry.register(ServiceDescriptor::new(
///     "srv-1",
///     "audio-server",
///     ServiceComponent::builder("audio-server").build(),
/// ));
/// let mut app = AbstractServiceGraph::new();
/// app.add_spec(AbstractComponentSpec::new("audio-server"));
///
/// let composer = ServiceComposer::new(&registry);
/// let composed = composer.compose(&ComposeRequest {
///     abstract_graph: &app,
///     user_qos: QosVector::new(),
///     client_device: DeviceId::from_index(0),
///     client_props: DeviceProperties::unconstrained(),
///     domain: None,
/// })?;
/// assert_eq!(composed.graph.component_count(), 1);
/// # Ok::<(), ubiqos_composition::CompositionError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ServiceComposer<'r> {
    registry: &'r ServiceRegistry,
    catalog: TranscoderCatalog,
    library: ExpansionLibrary,
    policy: CorrectionPolicy,
}

/// Upper bound on instance-selection retries after uncorrectable
/// compositions.
const MAX_SELECTION_ATTEMPTS: usize = 16;

/// How one abstract spec was resolved.
// Short-lived per-spec value on the composition path; boxing the large
// `Instance` variant would only add an allocation per resolution.
#[allow(clippy::large_enum_variant)]
enum Resolution {
    /// A concrete instance was discovered.
    Instance(ubiqos_discovery::Discovered),
    /// Expanded into a chain of resolutions (recursive composition).
    Expanded(Vec<(AbstractComponentSpec, Resolution)>),
    /// Optional and missing: bypassed.
    Dropped,
}

impl<'r> ServiceComposer<'r> {
    /// Creates a composer with the standard transcoder catalog, an empty
    /// expansion library, and all corrections enabled.
    pub fn new(registry: &'r ServiceRegistry) -> Self {
        Self::from_parts(
            registry,
            TranscoderCatalog::standard(),
            ExpansionLibrary::new(),
            CorrectionPolicy::all(),
        )
    }

    /// Creates a composer from its composition knowledge directly, for a
    /// caller that already holds a catalog: nothing is built only to be
    /// replaced.
    pub fn from_parts(
        registry: &'r ServiceRegistry,
        catalog: TranscoderCatalog,
        library: ExpansionLibrary,
        policy: CorrectionPolicy,
    ) -> Self {
        ServiceComposer {
            registry,
            catalog,
            library,
            policy,
        }
    }

    /// Replaces the transcoder catalog.
    #[must_use]
    pub fn with_catalog(mut self, catalog: TranscoderCatalog) -> Self {
        self.catalog = catalog;
        self
    }

    /// Replaces the expansion library.
    #[must_use]
    pub fn with_library(mut self, library: ExpansionLibrary) -> Self {
        self.library = library;
        self
    }

    /// Replaces the correction policy.
    #[must_use]
    pub fn with_policy(mut self, policy: CorrectionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The transcoder catalog in use.
    pub fn catalog(&self) -> &TranscoderCatalog {
        &self.catalog
    }

    /// Runs the full composition protocol: discover every spec, build the
    /// concrete graph, and make it QoS consistent with Ordered
    /// Coordination.
    ///
    /// # Errors
    ///
    /// * [`CompositionError::MissingService`] — a mandatory service has no
    ///   instance and no expansion within the recursion limit;
    /// * [`CompositionError::Uncorrectable`] — a QoS inconsistency
    ///   survived every allowed correction;
    /// * [`CompositionError::Graph`] — structural failures.
    pub fn compose(
        &self,
        request: &ComposeRequest<'_>,
    ) -> Result<ComposedApplication, CompositionError> {
        // Discovery returns the instance *closest* to each abstract
        // description — but the closest instance can still compose
        // inconsistently (e.g. its format has no transcoder from the
        // chosen upstream). When that happens, retry with the next-best
        // candidate for a spec implicated in the failure, up to a small
        // bounded number of alternatives.
        let mut selection: BTreeMap<SpecId, usize> = BTreeMap::new();
        let mut last_err = None;
        for _ in 0..MAX_SELECTION_ATTEMPTS {
            match self.compose_with_selection(request, &selection) {
                Ok(app) => return Ok(app),
                Err((err @ CompositionError::Uncorrectable { .. }, chosen)) => {
                    if !self.advance_selection(request, &mut selection, &err, &chosen) {
                        return Err(err);
                    }
                    last_err = Some(err);
                }
                Err((err, _)) => return Err(err),
            }
        }
        Err(last_err.expect("loop ran at least once"))
    }

    /// One composition attempt with explicit per-spec candidate choices
    /// (`selection[spec]` = index into that spec's discovery ranking).
    /// On failure, also returns the instance chosen per spec so the
    /// caller can identify which candidate to advance.
    fn compose_with_selection(
        &self,
        request: &ComposeRequest<'_>,
        selection: &BTreeMap<SpecId, usize>,
    ) -> Result<ComposedApplication, (CompositionError, BTreeMap<SpecId, String>)> {
        let abs = request.abstract_graph;

        // Steps 1-2: resolve every abstract spec against the environment.
        let mut resolutions: Vec<(SpecId, Resolution)> = Vec::new();
        let mut chosen: BTreeMap<SpecId, String> = BTreeMap::new();
        for (id, spec) in abs.specs() {
            let choice = selection.get(&id).copied().unwrap_or(0);
            let resolution = self
                .resolve(spec, request, 0, choice)
                .map_err(|e| (e, chosen.clone()))?;
            if let Resolution::Instance(hit) = &resolution {
                chosen.insert(id, hit.descriptor.prototype.name().to_owned());
            }
            resolutions.push((id, resolution));
        }

        // Step 2.5: materialize the concrete graph nodes.
        let mut graph = ServiceGraph::new();
        let mut instances = Vec::new();
        let mut report = OcReport::default();
        // spec -> (entry component, exit component) or None when dropped.
        let mut endpoints: BTreeMap<SpecId, Option<(ComponentId, ComponentId)>> = BTreeMap::new();
        for (spec_id, resolution) in &resolutions {
            let spec = abs.spec(*spec_id).expect("spec ids are dense");
            let span = self.materialize(
                resolution,
                spec,
                request,
                &mut graph,
                &mut instances,
                &mut report.corrections,
            );
            endpoints.insert(*spec_id, span);
        }

        // Step 2.75: wire the abstract edges, bypassing dropped optionals.
        let effective = bypass_dropped(abs, &endpoints);
        for (from, to, throughput) in effective {
            let (_, exit) = endpoints[&from].expect("bypass removed dropped endpoints");
            let (entry, _) = endpoints[&to].expect("bypass removed dropped endpoints");
            graph
                .add_edge(exit, entry, throughput)
                .map_err(|e| (CompositionError::from(e), chosen.clone()))?;
        }

        // Steps 3-4: QoS consistency check and automatic correction.
        let oc = ordered_coordination(&mut graph, &self.catalog, self.policy)
            .map_err(|e| (e, chosen.clone()))?;
        report.corrections.extend(oc.corrections);
        report.checks = oc.checks;
        report.passes = oc.passes;

        Ok(ComposedApplication {
            graph,
            report,
            instances,
        })
    }

    /// Picks the next candidate to try after an uncorrectable failure:
    /// prefer the spec whose chosen instance is named as the failure's
    /// downstream, then its upstream, then any spec with alternatives
    /// left. Returns false when no spec has another candidate.
    fn advance_selection(
        &self,
        request: &ComposeRequest<'_>,
        selection: &mut BTreeMap<SpecId, usize>,
        err: &CompositionError,
        chosen: &BTreeMap<SpecId, String>,
    ) -> bool {
        let CompositionError::Uncorrectable {
            upstream,
            downstream,
            ..
        } = err
        else {
            return false;
        };
        let has_more = |id: SpecId| -> bool {
            let spec = request.abstract_graph.spec(id).expect("spec ids are dense");
            let current = selection.get(&id).copied().unwrap_or(0);
            self.candidates(spec, request).len() > current + 1
        };
        let by_name = |name: &str| -> Option<SpecId> {
            chosen
                .iter()
                .find(|(id, n)| n.as_str() == name && has_more(**id))
                .map(|(&id, _)| id)
        };
        let target = by_name(downstream)
            .or_else(|| by_name(upstream))
            .or_else(|| chosen.keys().copied().find(|&id| has_more(id)));
        match target {
            Some(id) => {
                *selection.entry(id).or_insert(0) += 1;
                true
            }
            None => false,
        }
    }

    /// The discovery ranking for a spec (shared by resolution and the
    /// fallback search).
    fn candidates(
        &self,
        spec: &AbstractComponentSpec,
        request: &ComposeRequest<'_>,
    ) -> Vec<ubiqos_discovery::Discovered> {
        self.registry.discover_all(&self.query_for(spec, request))
    }

    /// Builds the discovery query for a spec.
    fn query_for(
        &self,
        spec: &AbstractComponentSpec,
        request: &ComposeRequest<'_>,
    ) -> DiscoveryQuery {
        let mut query = DiscoveryQuery::new(spec.service_type.clone())
            .with_desired_qos(spec.desired_qos.clone());
        if let Some(domain) = request.domain {
            query = query.in_domain(domain);
        }
        if spec.pin == Some(PinHint::ClientDevice) {
            // The user's QoS requirements attach to the client-facing
            // service, and the instance must run on the client device.
            let mut desired = spec.desired_qos.clone();
            desired.merge_from(&request.user_qos);
            query = query
                .with_desired_qos(desired)
                .on_client(request.client_props);
        }
        query
    }

    /// Resolves one abstract spec: discovery first (taking the
    /// `choice`-th ranked candidate, saturating at the last), then
    /// optional-drop, then recursive expansion.
    fn resolve(
        &self,
        spec: &AbstractComponentSpec,
        request: &ComposeRequest<'_>,
        depth: usize,
        choice: usize,
    ) -> Result<Resolution, CompositionError> {
        let mut hits = self.candidates(spec, request);
        if !hits.is_empty() {
            let idx = choice.min(hits.len() - 1);
            return Ok(Resolution::Instance(hits.swap_remove(idx)));
        }
        if spec.optional {
            return Ok(Resolution::Dropped);
        }
        if depth < RECURSION_LIMIT {
            if let Some(rule) = self.library.rule(&spec.service_type) {
                let mut chain = Vec::with_capacity(rule.chain.len());
                for sub in &rule.chain {
                    let resolved = self.resolve(sub, request, depth + 1, 0)?;
                    chain.push((sub.clone(), resolved));
                }
                return Ok(Resolution::Expanded(chain));
            }
        }
        Err(CompositionError::MissingService {
            service_type: spec.service_type.clone(),
            depth,
        })
    }

    /// Adds the components of one resolution to the graph, returning the
    /// (entry, exit) span, or `None` for dropped optionals.
    fn materialize(
        &self,
        resolution: &Resolution,
        spec: &AbstractComponentSpec,
        request: &ComposeRequest<'_>,
        graph: &mut ServiceGraph,
        instances: &mut Vec<InstanceUse>,
        corrections: &mut Vec<Correction>,
    ) -> Option<(ComponentId, ComponentId)> {
        match resolution {
            Resolution::Dropped => {
                corrections.push(Correction::DroppedOptional {
                    service_type: spec.service_type.clone(),
                });
                None
            }
            Resolution::Instance(hit) => {
                let mut component = hit.descriptor.prototype.clone();
                match spec.pin {
                    Some(PinHint::ClientDevice) => {
                        component.set_pinned_to(Some(request.client_device));
                    }
                    Some(PinHint::Device(i)) => {
                        component.set_pinned_to(Some(DeviceId::from_index(i as usize)));
                    }
                    None => {}
                }
                let id = graph.add_component(component);
                instances.push(InstanceUse {
                    instance_id: hit.descriptor.instance_id.clone(),
                    code_size_mb: hit.descriptor.code_size_mb,
                    component: id,
                });
                Some((id, id))
            }
            Resolution::Expanded(chain) => {
                let rule_tp = self
                    .library
                    .rule(&spec.service_type)
                    .map_or(1.0, |r| r.internal_throughput);
                let mut entry: Option<ComponentId> = None;
                let mut prev: Option<ComponentId> = None;
                for (sub_spec, sub_res) in chain {
                    if let Some((sub_entry, sub_exit)) =
                        self.materialize(sub_res, sub_spec, request, graph, instances, corrections)
                    {
                        if entry.is_none() {
                            entry = Some(sub_entry);
                        }
                        if let Some(p) = prev {
                            graph
                                .add_edge(p, sub_entry, rule_tp)
                                .expect("chain edges connect fresh nodes");
                        }
                        prev = Some(sub_exit);
                    }
                }
                match (entry, prev) {
                    (Some(e), Some(x)) => Some((e, x)),
                    _ => None, // every chain element was optional & dropped
                }
            }
        }
    }
}

/// Rewrites the abstract edge list so edges through dropped specs connect
/// their neighbors directly (keeping the upstream edge's throughput), and
/// edges dangling on a dropped source/sink disappear.
fn bypass_dropped(
    abs: &AbstractServiceGraph,
    endpoints: &BTreeMap<SpecId, Option<(ComponentId, ComponentId)>>,
) -> Vec<(SpecId, SpecId, f64)> {
    let mut edges: Vec<(SpecId, SpecId, f64)> = abs.edges().collect();
    let dropped: Vec<SpecId> = endpoints
        .iter()
        .filter(|(_, span)| span.is_none())
        .map(|(&id, _)| id)
        .collect();
    for d in dropped {
        let ins: Vec<(SpecId, f64)> = edges
            .iter()
            .filter(|&&(_, to, _)| to == d)
            .map(|&(from, _, tp)| (from, tp))
            .collect();
        let outs: Vec<SpecId> = edges
            .iter()
            .filter(|&&(from, _, _)| from == d)
            .map(|&(_, to, _)| to)
            .collect();
        edges.retain(|&(from, to, _)| from != d && to != d);
        for &(u, tp) in &ins {
            for &v in &outs {
                if u != v && !edges.iter().any(|&(f, t, _)| f == u && t == v) {
                    edges.push((u, v, tp));
                }
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use ubiqos_discovery::ServiceDescriptor;
    use ubiqos_graph::{ComponentRole, ServiceComponent};
    use ubiqos_model::{QosDimension as D, QosValue, ResourceVector};

    fn registry() -> ServiceRegistry {
        let mut r = ServiceRegistry::new();
        r.register(ServiceDescriptor::new(
            "server@ws1",
            "audio-server",
            ServiceComponent::builder("audio-server")
                .role(ComponentRole::Source)
                .qos_out(
                    QosVector::new()
                        .with(D::Format, QosValue::token("MPEG"))
                        .with(D::FrameRate, QosValue::exact(40.0)),
                )
                .capability(D::FrameRate, QosValue::range(5.0, 40.0))
                .resources(ResourceVector::mem_cpu(64.0, 30.0))
                .build(),
        ));
        r.register(
            ServiceDescriptor::new(
                "player@pda",
                "audio-player",
                ServiceComponent::builder("audio-player")
                    .role(ComponentRole::Sink)
                    .qos_in(
                        QosVector::new()
                            .with(D::Format, QosValue::token("WAV"))
                            .with(D::FrameRate, QosValue::range(10.0, 40.0)),
                    )
                    .qos_out(QosVector::new().with(D::FrameRate, QosValue::exact(40.0)))
                    .capability(D::FrameRate, QosValue::range(5.0, 40.0))
                    .resources(ResourceVector::mem_cpu(8.0, 15.0))
                    .build(),
            )
            .with_code_size_mb(2.0),
        );
        r
    }

    fn audio_app() -> AbstractServiceGraph {
        let mut g = AbstractServiceGraph::new();
        let server = g.add_spec(AbstractComponentSpec::new("audio-server"));
        let player =
            g.add_spec(AbstractComponentSpec::new("audio-player").with_pin(PinHint::ClientDevice));
        g.add_edge(server, player, 1.4).unwrap();
        g
    }

    fn request<'a>(abs: &'a AbstractServiceGraph) -> ComposeRequest<'a> {
        ComposeRequest {
            abstract_graph: abs,
            user_qos: QosVector::new(),
            client_device: DeviceId::from_index(1),
            client_props: DeviceProperties::unconstrained(),
            domain: None,
        }
    }

    #[test]
    fn composes_audio_on_demand_with_transcoder() {
        let r = registry();
        let abs = audio_app();
        let composed = ServiceComposer::new(&r).compose(&request(&abs)).unwrap();
        // server + player + inserted MPEG2WAV transcoder.
        assert_eq!(composed.graph.component_count(), 3);
        assert!(crate::oc::is_consistent(&composed.graph));
        assert_eq!(composed.instances.len(), 2);
        assert!((composed.total_code_size_mb() - 3.0).abs() < 1e-12);
        // The player is pinned to the client device.
        let player = composed
            .instances
            .iter()
            .find(|i| i.instance_id == "player@pda")
            .unwrap();
        assert_eq!(
            composed
                .graph
                .component(player.component)
                .unwrap()
                .pinned_to(),
            Some(DeviceId::from_index(1))
        );
    }

    #[test]
    fn missing_mandatory_service_fails() {
        let r = ServiceRegistry::new();
        let abs = audio_app();
        let err = ServiceComposer::new(&r)
            .compose(&request(&abs))
            .unwrap_err();
        assert!(matches!(
            err,
            CompositionError::MissingService { ref service_type, .. } if service_type == "audio-server"
        ));
    }

    #[test]
    fn missing_optional_service_is_bypassed() {
        let r = registry();
        let mut abs = AbstractServiceGraph::new();
        let server = abs.add_spec(AbstractComponentSpec::new("audio-server"));
        let eq = abs.add_spec(AbstractComponentSpec::new("equalizer").optional());
        let player = abs
            .add_spec(AbstractComponentSpec::new("audio-player").with_pin(PinHint::ClientDevice));
        abs.add_edge(server, eq, 1.4).unwrap();
        abs.add_edge(eq, player, 1.4).unwrap();
        let composed = ServiceComposer::new(&r).compose(&request(&abs)).unwrap();
        assert!(composed
            .report
            .corrections
            .iter()
            .any(|c| matches!(c, Correction::DroppedOptional { service_type } if service_type == "equalizer")));
        // The bypass edge server -> player exists (through the inserted
        // transcoder after OC).
        assert!(crate::oc::is_consistent(&composed.graph));
        assert_eq!(composed.instances.len(), 2);
    }

    #[test]
    fn recursive_composition_expands_missing_service() {
        // No "audio-player" registered, but the library knows it can be
        // realized as decoder -> renderer, both of which exist.
        let mut r = ServiceRegistry::new();
        r.register(ServiceDescriptor::new(
            "server@ws1",
            "audio-server",
            ServiceComponent::builder("audio-server")
                .qos_out(QosVector::new().with(D::Format, QosValue::token("WAV")))
                .resources(ResourceVector::mem_cpu(64.0, 30.0))
                .build(),
        ));
        r.register(ServiceDescriptor::new(
            "dec@ws1",
            "decoder",
            ServiceComponent::builder("decoder")
                .qos_in(QosVector::new().with(D::Format, QosValue::token("WAV")))
                .qos_out(QosVector::new().with(D::Format, QosValue::token("PCM")))
                .resources(ResourceVector::mem_cpu(8.0, 10.0))
                .build(),
        ));
        r.register(ServiceDescriptor::new(
            "ren@pda",
            "renderer",
            ServiceComponent::builder("renderer")
                .qos_in(QosVector::new().with(D::Format, QosValue::token("PCM")))
                .resources(ResourceVector::mem_cpu(4.0, 8.0))
                .build(),
        ));
        let mut lib = ExpansionLibrary::new();
        lib.add(
            "audio-player",
            crate::library::ExpansionRule::new(
                vec![
                    AbstractComponentSpec::new("decoder"),
                    AbstractComponentSpec::new("renderer"),
                ],
                2.0,
            ),
        );
        let abs = audio_app();
        let composed = ServiceComposer::new(&r)
            .with_library(lib)
            .compose(&request(&abs))
            .unwrap();
        assert_eq!(composed.graph.component_count(), 3);
        assert_eq!(composed.instances.len(), 3);
        assert!(crate::oc::is_consistent(&composed.graph));
    }

    #[test]
    fn recursion_depth_is_limited() {
        // a expands to b, b expands to c, c expands to d: resolving "a"
        // needs depth 3 > limit 2, so it must fail with MissingService.
        let r = ServiceRegistry::new();
        let mut lib = ExpansionLibrary::new();
        for (from, to) in [("a", "b"), ("b", "c"), ("c", "d")] {
            lib.add(
                from,
                crate::library::ExpansionRule::new(vec![AbstractComponentSpec::new(to)], 1.0),
            );
        }
        let mut abs = AbstractServiceGraph::new();
        abs.add_spec(AbstractComponentSpec::new("a"));
        let err = ServiceComposer::new(&r)
            .with_library(lib)
            .compose(&request(&abs))
            .unwrap_err();
        match err {
            CompositionError::MissingService {
                service_type,
                depth,
            } => {
                assert_eq!(service_type, "c");
                assert_eq!(depth, RECURSION_LIMIT);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn user_qos_steers_client_discovery() {
        let mut r = registry();
        // Add a second player that cannot reach 40 fps.
        r.register(ServiceDescriptor::new(
            "slow-player@pda",
            "audio-player",
            ServiceComponent::builder("audio-player")
                .role(ComponentRole::Sink)
                .qos_in(QosVector::new().with(D::Format, QosValue::token("WAV")))
                .qos_out(QosVector::new().with(D::FrameRate, QosValue::exact(10.0)))
                .capability(D::FrameRate, QosValue::range(1.0, 10.0))
                .resources(ResourceVector::mem_cpu(2.0, 4.0))
                .build(),
        ));
        let abs = audio_app();
        let mut req = request(&abs);
        req.user_qos = QosVector::new().with(D::FrameRate, QosValue::exact(40.0));
        let composed = ServiceComposer::new(&r).compose(&req).unwrap();
        assert!(
            composed
                .instances
                .iter()
                .any(|i| i.instance_id == "player@pda"),
            "the 40fps-capable player is chosen over the slow one"
        );
    }

    #[test]
    fn dropped_source_optional_just_removes_edges() {
        let r = registry();
        let mut abs = AbstractServiceGraph::new();
        let logger = abs.add_spec(AbstractComponentSpec::new("usage-logger").optional());
        let server = abs.add_spec(AbstractComponentSpec::new("audio-server"));
        let player = abs
            .add_spec(AbstractComponentSpec::new("audio-player").with_pin(PinHint::ClientDevice));
        abs.add_edge(server, player, 1.4).unwrap();
        abs.add_edge(logger, player, 0.1).unwrap();
        let composed = ServiceComposer::new(&r).compose(&request(&abs)).unwrap();
        assert!(crate::oc::is_consistent(&composed.graph));
        assert_eq!(composed.instances.len(), 2);
    }

    #[test]
    fn falls_back_to_next_candidate_when_best_is_uncorrectable() {
        // Two players: the H261-only one out-scores the WAV one on the
        // desired format (H261), but no transcoder converts MPEG -> H261,
        // so composing with it is uncorrectable. The composer must fall
        // back to the WAV player, which *is* correctable (MPEG2WAV).
        let mut r = ServiceRegistry::new();
        r.register(ServiceDescriptor::new(
            "server",
            "audio-server",
            ServiceComponent::builder("audio-server")
                .role(ComponentRole::Source)
                .qos_out(QosVector::new().with(D::Format, QosValue::token("MPEG")))
                .resources(ResourceVector::mem_cpu(32.0, 20.0))
                .build(),
        ));
        r.register(ServiceDescriptor::new(
            "h261-player",
            "audio-player",
            ServiceComponent::builder("h261-player")
                .role(ComponentRole::Sink)
                .qos_in(QosVector::new().with(D::Format, QosValue::token("H261")))
                .qos_out(QosVector::new().with(D::Format, QosValue::token("H261")))
                .resources(ResourceVector::mem_cpu(2.0, 2.0))
                .build(),
        ));
        r.register(ServiceDescriptor::new(
            "wav-player",
            "audio-player",
            ServiceComponent::builder("wav-player")
                .role(ComponentRole::Sink)
                .qos_in(QosVector::new().with(D::Format, QosValue::token("WAV")))
                .resources(ResourceVector::mem_cpu(8.0, 8.0))
                .build(),
        ));
        let mut abs = AbstractServiceGraph::new();
        let s = abs.add_spec(AbstractComponentSpec::new("audio-server"));
        let p = abs.add_spec(
            AbstractComponentSpec::new("audio-player")
                .with_desired_qos(QosVector::new().with(D::Format, QosValue::token("H261"))),
        );
        abs.add_edge(s, p, 1.0).unwrap();

        // Sanity: discovery alone prefers the (uncorrectable) H261 player.
        let best = r
            .discover(
                &ubiqos_discovery::DiscoveryQuery::new("audio-player")
                    .with_desired_qos(QosVector::new().with(D::Format, QosValue::token("H261"))),
            )
            .unwrap();
        assert_eq!(best.descriptor.instance_id, "h261-player");

        let composed = ServiceComposer::new(&r).compose(&request(&abs)).unwrap();
        assert!(crate::oc::is_consistent(&composed.graph));
        assert!(
            composed
                .instances
                .iter()
                .any(|i| i.instance_id == "wav-player"),
            "fell back to the correctable candidate: {:?}",
            composed.instances
        );
        assert!(composed
            .instances
            .iter()
            .all(|i| i.instance_id != "h261-player"));
    }

    #[test]
    fn truly_uncorrectable_still_fails_after_fallbacks() {
        // Only one player exists and it is uncorrectable: the composer
        // must report the Uncorrectable error, not loop.
        let mut r = ServiceRegistry::new();
        r.register(ServiceDescriptor::new(
            "server",
            "audio-server",
            ServiceComponent::builder("audio-server")
                .qos_out(QosVector::new().with(D::Format, QosValue::token("MPEG")))
                .build(),
        ));
        r.register(ServiceDescriptor::new(
            "h261-player",
            "audio-player",
            ServiceComponent::builder("h261-player")
                .qos_in(QosVector::new().with(D::Format, QosValue::token("H261")))
                .build(),
        ));
        let mut abs = AbstractServiceGraph::new();
        let s = abs.add_spec(AbstractComponentSpec::new("audio-server"));
        let p = abs.add_spec(AbstractComponentSpec::new("audio-player"));
        abs.add_edge(s, p, 1.0).unwrap();
        let err = ServiceComposer::new(&r)
            .compose(&request(&abs))
            .unwrap_err();
        assert!(matches!(err, CompositionError::Uncorrectable { .. }));
    }

    #[test]
    fn pin_to_specific_device() {
        let mut r = ServiceRegistry::new();
        r.register(ServiceDescriptor::new(
            "gw@ws2",
            "gateway",
            ServiceComponent::builder("gateway")
                .resources(ResourceVector::mem_cpu(16.0, 10.0))
                .build(),
        ));
        let mut abs = AbstractServiceGraph::new();
        abs.add_spec(AbstractComponentSpec::new("gateway").with_pin(PinHint::Device(2)));
        let composed = ServiceComposer::new(&r).compose(&request(&abs)).unwrap();
        let (id, c) = composed.graph.components().next().unwrap();
        assert_eq!(c.pinned_to(), Some(DeviceId::from_index(2)));
        assert_eq!(composed.instances[0].component, id);
    }
}
