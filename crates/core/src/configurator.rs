//! The integrated two-tier configurator.

use crate::error::ConfigureError;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use ubiqos_composition::{
    ComposeRequest, ComposedApplication, CorrectionPolicy, ExpansionLibrary, ServiceComposer,
    TranscoderCatalog,
};
use ubiqos_discovery::{DeviceProperties, DomainId, ServiceRegistry};
use ubiqos_distribution::{Environment, GreedyHeuristic, OsdProblem, ServiceDistributor};
use ubiqos_graph::{AbstractServiceGraph, Cut, DeviceId};
use ubiqos_model::{QosVector, Weights};

/// Everything one configuration request needs.
#[derive(Debug, Clone)]
pub struct ConfigureRequest<'a> {
    /// The developer's abstract application description.
    pub abstract_graph: &'a AbstractServiceGraph,
    /// The user's QoS requirements (attached to client-pinned services).
    pub user_qos: QosVector,
    /// The user's portal device in `env`.
    pub client_device: DeviceId,
    /// The portal device's properties, for discovery filtering.
    pub client_props: DeviceProperties,
    /// Domain to discover in.
    pub domain: Option<DomainId>,
    /// The current device environment (with *residual* availabilities).
    pub env: &'a Environment,
}

/// A complete configuration: the composed graph plus its placement.
///
/// The composed application is immutable once built and shared by
/// reference: cloning a configuration copies the cut, not the graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Configuration {
    /// Output of the composition tier.
    pub app: Arc<ComposedApplication>,
    /// Output of the distribution tier: the k-cut placement.
    pub cut: Cut,
    /// The placement's cost aggregation (Definition 3.5).
    pub cost: f64,
}

/// The integrated QoS-aware service configuration model: composition tier
/// followed by distribution tier.
///
/// Owns the composition knowledge (transcoder catalog, expansion library,
/// correction policy) and the placement algorithm (the paper's greedy
/// heuristic by default); borrows the smart space's [`ServiceRegistry`].
pub struct ServiceConfigurator<'r> {
    registry: &'r ServiceRegistry,
    catalog: TranscoderCatalog,
    library: ExpansionLibrary,
    policy: CorrectionPolicy,
    weights: Weights,
    distributor: Box<dyn ServiceDistributor + Send>,
}

impl std::fmt::Debug for ServiceConfigurator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceConfigurator")
            .field("catalog", &self.catalog)
            .field("library", &self.library)
            .field("policy", &self.policy)
            .field("weights", &self.weights)
            .field("distributor", &self.distributor.name())
            .finish()
    }
}

impl<'r> ServiceConfigurator<'r> {
    /// Creates a configurator with the standard transcoder catalog,
    /// uniform weights, and the paper's greedy heuristic distributor.
    pub fn new(registry: &'r ServiceRegistry) -> Self {
        ServiceConfigurator {
            registry,
            catalog: TranscoderCatalog::standard(),
            library: ExpansionLibrary::new(),
            policy: CorrectionPolicy::all(),
            weights: Weights::default(),
            distributor: Box::new(GreedyHeuristic::paper()),
        }
    }

    /// Replaces the transcoder catalog.
    #[must_use]
    pub fn with_catalog(mut self, catalog: TranscoderCatalog) -> Self {
        self.catalog = catalog;
        self
    }

    /// Replaces the expansion library for recursive composition.
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

    /// Replaces the cost weights.
    #[must_use]
    pub fn with_weights(mut self, weights: Weights) -> Self {
        self.weights = weights;
        self
    }

    /// Replaces the distribution algorithm.
    #[must_use]
    pub fn with_distributor(mut self, distributor: Box<dyn ServiceDistributor + Send>) -> Self {
        self.distributor = distributor;
        self
    }

    /// The weights in use.
    pub fn weights(&self) -> &Weights {
        &self.weights
    }

    /// Runs the full two-tier pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigureError::Composition`] when no QoS-consistent
    /// graph can be composed, and [`ConfigureError::Distribution`] when
    /// the composed graph does not fit the current devices.
    pub fn configure(
        &mut self,
        request: &ConfigureRequest<'_>,
    ) -> Result<Configuration, ConfigureError> {
        let app = self.compose_only(request)?;
        self.distribute_only(app, request.env)
    }

    /// Runs the composition tier alone (for runtimes that want to
    /// interleave state handoff between the tiers).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigureError::Composition`] on composer failure.
    pub fn compose_only(
        &self,
        request: &ConfigureRequest<'_>,
    ) -> Result<ComposedApplication, ConfigureError> {
        let composer = ServiceComposer::from_parts(
            self.registry,
            self.catalog.clone(),
            self.library.clone(),
            self.policy,
        );
        Ok(composer.compose(&ComposeRequest {
            abstract_graph: request.abstract_graph,
            user_qos: request.user_qos.clone(),
            client_device: request.client_device,
            client_props: request.client_props,
            domain: request.domain,
        })?)
    }

    /// Reconfigures an existing configuration in response to a runtime
    /// trigger, re-running only the tier(s) the trigger invalidates:
    /// location/portal/crash triggers recompose from scratch; pure
    /// resource events keep the composed graph and only re-place it
    /// ("the user can continue his or her tasks with minimum QoS
    /// degradations").
    ///
    /// # Errors
    ///
    /// As [`ServiceConfigurator::configure`]. On error the previous
    /// configuration remains valid — nothing is mutated.
    pub fn reconfigure(
        &mut self,
        trigger: &crate::trigger::ReconfigureTrigger,
        previous: &Configuration,
        request: &ConfigureRequest<'_>,
    ) -> Result<Configuration, ConfigureError> {
        if trigger.requires_recomposition() {
            self.configure(request)
        } else {
            self.distribute_only(previous.app.clone(), request.env)
        }
    }

    /// Runs the distribution tier on an already composed application,
    /// owned or shared; a shared one is placed without being copied.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigureError::Distribution`] when no fitting cut is
    /// found.
    pub fn distribute_only(
        &mut self,
        app: impl Into<Arc<ComposedApplication>>,
        env: &Environment,
    ) -> Result<Configuration, ConfigureError> {
        let app = app.into();
        let problem = OsdProblem::new(&app.graph, env, &self.weights);
        let cut = self.distributor.distribute(&problem)?;
        let cost = problem.cost(&cut);
        Ok(Configuration { app, cut, cost })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ubiqos_discovery::ServiceDescriptor;
    use ubiqos_distribution::Device;
    use ubiqos_graph::{AbstractComponentSpec, ComponentRole, PinHint, ServiceComponent};
    use ubiqos_model::{QosDimension as D, QosValue, ResourceVector};

    fn registry() -> ServiceRegistry {
        let mut r = ServiceRegistry::new();
        r.register(ServiceDescriptor::new(
            "server@desktop",
            "audio-server",
            ServiceComponent::builder("audio-server")
                .role(ComponentRole::Source)
                .qos_out(
                    QosVector::new()
                        .with(D::Format, QosValue::token("MPEG"))
                        .with(D::FrameRate, QosValue::exact(40.0)),
                )
                .capability(D::FrameRate, QosValue::range(5.0, 40.0))
                .resources(ResourceVector::mem_cpu(64.0, 40.0))
                .build(),
        ));
        r.register(ServiceDescriptor::new(
            "player@pda",
            "audio-player",
            ServiceComponent::builder("audio-player")
                .role(ComponentRole::Sink)
                .qos_in(
                    QosVector::new()
                        .with(D::Format, QosValue::token("WAV"))
                        .with(D::FrameRate, QosValue::range(10.0, 40.0)),
                )
                .resources(ResourceVector::mem_cpu(8.0, 15.0))
                .build(),
        ));
        r
    }

    fn env() -> Environment {
        Environment::builder()
            .device(Device::new(
                "desktop",
                ResourceVector::mem_cpu(256.0, 300.0),
            ))
            .device(Device::new("pda", ResourceVector::mem_cpu(32.0, 40.0)))
            .default_bandwidth_mbps(10.0)
            .build()
    }

    fn app() -> AbstractServiceGraph {
        let mut g = AbstractServiceGraph::new();
        let s = g.add_spec(AbstractComponentSpec::new("audio-server"));
        let p =
            g.add_spec(AbstractComponentSpec::new("audio-player").with_pin(PinHint::ClientDevice));
        g.add_edge(s, p, 1.4).unwrap();
        g
    }

    #[test]
    fn end_to_end_configuration() {
        let r = registry();
        let e = env();
        let a = app();
        let mut configurator = ServiceConfigurator::new(&r);
        let config = configurator
            .configure(&ConfigureRequest {
                abstract_graph: &a,
                user_qos: QosVector::new(),
                client_device: DeviceId::from_index(1),
                client_props: DeviceProperties::unconstrained(),
                domain: None,
                env: &e,
            })
            .unwrap();
        // Composed: server + transcoder + player; placed on 2 devices.
        assert_eq!(config.app.graph.component_count(), 3);
        assert_eq!(config.cut.parts(), 2);
        assert!(config.cost.is_finite());
        // The player sits on the PDA (pinned).
        let player = config
            .app
            .instances
            .iter()
            .find(|i| i.instance_id == "player@pda")
            .unwrap();
        assert_eq!(config.cut.part_of(player.component), Some(1));
        // The problem considers this placement feasible.
        let w = configurator.weights().clone();
        let p = OsdProblem::new(&config.app.graph, &e, &w);
        assert!(p.fits(&config.cut));
    }

    #[test]
    fn composition_failure_propagates() {
        let r = ServiceRegistry::new();
        let e = env();
        let a = app();
        let mut configurator = ServiceConfigurator::new(&r);
        let err = configurator
            .configure(&ConfigureRequest {
                abstract_graph: &a,
                user_qos: QosVector::new(),
                client_device: DeviceId::from_index(1),
                client_props: DeviceProperties::unconstrained(),
                domain: None,
                env: &e,
            })
            .unwrap_err();
        assert!(matches!(err, ConfigureError::Composition(_)));
    }

    #[test]
    fn distribution_failure_propagates() {
        let r = registry();
        // A starved environment no graph fits into.
        let e = Environment::builder()
            .device(Device::new("tiny", ResourceVector::mem_cpu(1.0, 1.0)))
            .device(Device::new("tiny2", ResourceVector::mem_cpu(1.0, 1.0)))
            .build();
        let a = app();
        let mut configurator = ServiceConfigurator::new(&r);
        let err = configurator
            .configure(&ConfigureRequest {
                abstract_graph: &a,
                user_qos: QosVector::new(),
                client_device: DeviceId::from_index(1),
                client_props: DeviceProperties::unconstrained(),
                domain: None,
                env: &e,
            })
            .unwrap_err();
        assert!(matches!(err, ConfigureError::Distribution(_)));
    }

    #[test]
    fn custom_distributor_is_used() {
        use ubiqos_distribution::RandomDistributor;
        let r = registry();
        let e = env();
        let a = app();
        let mut configurator = ServiceConfigurator::new(&r)
            .with_distributor(Box::new(RandomDistributor::seeded(11).with_attempts(64)));
        let config = configurator
            .configure(&ConfigureRequest {
                abstract_graph: &a,
                user_qos: QosVector::new(),
                client_device: DeviceId::from_index(1),
                client_props: DeviceProperties::unconstrained(),
                domain: None,
                env: &e,
            })
            .unwrap();
        assert_eq!(config.cut.len(), config.app.graph.component_count());
    }

    #[test]
    fn reconfigure_redistributes_without_recomposing_on_fluctuation() {
        use crate::trigger::ReconfigureTrigger;
        let r = registry();
        let mut e = env();
        let a = app();
        let mut configurator = ServiceConfigurator::new(&r);
        fn request<'a>(a: &'a AbstractServiceGraph, env: &'a Environment) -> ConfigureRequest<'a> {
            ConfigureRequest {
                abstract_graph: a,
                user_qos: QosVector::new(),
                client_device: DeviceId::from_index(1),
                client_props: DeviceProperties::unconstrained(),
                domain: None,
                env,
            }
        }
        let initial = configurator.configure(&request(&a, &e)).unwrap();

        // Resource fluctuation: same composed graph, fresh placement.
        e.device_mut(0)
            .unwrap()
            .set_availability(ResourceVector::mem_cpu(256.0, 200.0));
        let fluct = configurator
            .reconfigure(
                &ReconfigureTrigger::ResourceFluctuation(DeviceId::from_index(0)),
                &initial,
                &request(&a, &e),
            )
            .unwrap();
        assert_eq!(fluct.app.graph, initial.app.graph, "no recomposition");
        assert_eq!(fluct.app.instances, initial.app.instances);

        // Portal switch: a full recomposition happens (fresh OcReport).
        let switched = configurator
            .reconfigure(
                &ReconfigureTrigger::DeviceSwitched {
                    from: DeviceId::from_index(1),
                    to: DeviceId::from_index(1),
                },
                &initial,
                &request(&a, &e),
            )
            .unwrap();
        assert_eq!(
            switched.app.graph.component_count(),
            initial.app.graph.component_count()
        );
    }

    #[test]
    fn split_pipeline_matches_one_shot_configure() {
        let r = registry();
        let e = env();
        let a = app();
        let mut one_shot = ServiceConfigurator::new(&r);
        let full = one_shot
            .configure(&ConfigureRequest {
                abstract_graph: &a,
                user_qos: QosVector::new(),
                client_device: DeviceId::from_index(1),
                client_props: DeviceProperties::unconstrained(),
                domain: None,
                env: &e,
            })
            .unwrap();

        let mut split = ServiceConfigurator::new(&r);
        let composed = split
            .compose_only(&ConfigureRequest {
                abstract_graph: &a,
                user_qos: QosVector::new(),
                client_device: DeviceId::from_index(1),
                client_props: DeviceProperties::unconstrained(),
                domain: None,
                env: &e,
            })
            .unwrap();
        let staged = split.distribute_only(composed, &e).unwrap();
        assert_eq!(full.cut, staged.cut);
        assert_eq!(full.cost.to_bits(), staged.cost.to_bits());
        assert_eq!(full.app.graph, staged.app.graph);
    }

    #[test]
    fn exhaustive_distributor_yields_no_worse_cost() {
        let r = registry();
        let e = env();
        let a = app();
        let request = ConfigureRequest {
            abstract_graph: &a,
            user_qos: QosVector::new(),
            client_device: DeviceId::from_index(1),
            client_props: DeviceProperties::unconstrained(),
            domain: None,
            env: &e,
        };
        let heuristic_cost = ServiceConfigurator::new(&r)
            .configure(&request)
            .unwrap()
            .cost;
        let optimal_cost = ServiceConfigurator::new(&r)
            .with_distributor(Box::new(ubiqos_distribution::ExhaustiveOptimal::new()))
            .configure(&request)
            .unwrap()
            .cost;
        assert!(optimal_cost <= heuristic_cost + 1e-9);
    }

    #[test]
    fn debug_impl_names_the_distributor() {
        let r = registry();
        let configurator = ServiceConfigurator::new(&r);
        let s = format!("{configurator:?}");
        assert!(s.contains("heuristic"));
    }
}
