//! The distributor interface shared by all placement algorithms.

use crate::device::Device;
use crate::error::DistributionError;
use crate::problem::OsdProblem;
use ubiqos_graph::{Cut, ServiceComponent};

/// A service distribution algorithm: maps an OSD problem instance to a
/// k-cut that fits the environment.
///
/// Implementations take `&mut self` so stochastic algorithms (the random
/// baseline) can own their RNG state; deterministic algorithms simply
/// ignore the mutability. The trait is object-safe: simulation policies
/// hold `Box<dyn ServiceDistributor>`.
pub trait ServiceDistributor {
    /// A short stable name for reports ("heuristic", "random", "optimal").
    fn name(&self) -> &str;

    /// Finds a cut that fits the problem's environment.
    ///
    /// # Errors
    ///
    /// * [`DistributionError::Infeasible`] — the algorithm found no
    ///   fitting cut (for the exhaustive optimal this proves none exists;
    ///   for the heuristic and random baselines it is a best-effort
    ///   answer, counted as a failed configuration request in the
    ///   experiments);
    /// * [`DistributionError::NoDevices`] / [`DistributionError::InvalidPin`]
    ///   — structurally invalid problems.
    fn distribute(&mut self, problem: &OsdProblem<'_>) -> Result<Cut, DistributionError>;
}

/// Shared pre-flight for distributors: validates the problem and places
/// pinned components, returning the initial partial assignment and
/// per-device residual availabilities.
///
/// Returns `(assignment, residuals)` where `assignment[c]` is
/// `Some(device)` for pinned components.
pub(crate) fn seed_with_pins(
    problem: &OsdProblem<'_>,
) -> Result<(Vec<Option<usize>>, Vec<ubiqos_model::ResourceVector>), DistributionError> {
    problem.validate()?;
    let graph = problem.graph();
    let env = problem.env();
    let mut assignment: Vec<Option<usize>> = vec![None; graph.component_count()];
    let mut residual: Vec<ubiqos_model::ResourceVector> = env
        .devices()
        .iter()
        .map(|d| d.availability().clone())
        .collect();
    for (id, c) in graph.components() {
        if let Some(pin) = c.pinned_to() {
            let d = pin.index();
            if !c.resources().fits_within(&residual[d]) {
                return Err(pin_misfit(c, &env.devices()[d]));
            }
            residual[d] = residual[d].saturating_sub(c.resources())?;
            assignment[id.index()] = Some(d);
        }
    }
    Ok((assignment, residual))
}

/// The error for a pinned component that does not fit its device.
pub(crate) fn pin_misfit(component: &ServiceComponent, device: &Device) -> DistributionError {
    DistributionError::Infeasible {
        reason: format!(
            "pinned component {} does not fit device {}",
            component.name(),
            device.name()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environment::Environment;
    use ubiqos_graph::{DeviceId, ServiceGraph};
    use ubiqos_model::{ResourceVector, Weights};

    #[test]
    fn seed_places_pins_and_charges_residuals() {
        let mut g = ServiceGraph::new();
        g.add_component(ServiceComponent::builder("free").build());
        g.add_component(
            ServiceComponent::builder("display")
                .resources(ResourceVector::mem_cpu(10.0, 20.0))
                .pinned_to(DeviceId::from_index(1))
                .build(),
        );
        let env = Environment::builder()
            .device(Device::new("d0", ResourceVector::mem_cpu(100.0, 100.0)))
            .device(Device::new("d1", ResourceVector::mem_cpu(32.0, 50.0)))
            .build();
        let w = Weights::default();
        let p = OsdProblem::new(&g, &env, &w);
        let (assignment, residual) = seed_with_pins(&p).unwrap();
        assert_eq!(assignment, vec![None, Some(1)]);
        assert_eq!(residual[1].amounts(), &[22.0, 30.0]);
        assert_eq!(residual[0].amounts(), &[100.0, 100.0]);
    }

    #[test]
    fn seed_rejects_oversized_pin() {
        let mut g = ServiceGraph::new();
        g.add_component(
            ServiceComponent::builder("hog")
                .resources(ResourceVector::mem_cpu(64.0, 10.0))
                .pinned_to(DeviceId::from_index(0))
                .build(),
        );
        let env = Environment::builder()
            .device(Device::new("pda", ResourceVector::mem_cpu(32.0, 50.0)))
            .build();
        let w = Weights::default();
        let p = OsdProblem::new(&g, &env, &w);
        assert!(matches!(
            seed_with_pins(&p),
            Err(DistributionError::Infeasible { .. })
        ));
    }
}
