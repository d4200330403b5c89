//! The Optimal Service Distribution (OSD) problem instance.

use crate::cost::{cost_aggregation, Loads};
use crate::environment::Environment;
use crate::error::DistributionError;
use ubiqos_graph::{Cut, ServiceGraph};
use ubiqos_model::{Weights, EPSILON};

/// One instance of the OSD problem: a service graph, the current device
/// environment, and the resource weights.
///
/// Theorem 1 shows finding the minimum-cost fitting cut is NP-hard; the
/// algorithms in this crate consume `OsdProblem` through the
/// [`crate::ServiceDistributor`] trait.
#[derive(Debug, Clone, Copy)]
pub struct OsdProblem<'a> {
    graph: &'a ServiceGraph,
    env: &'a Environment,
    weights: &'a Weights,
}

impl<'a> OsdProblem<'a> {
    /// Bundles a problem instance.
    ///
    /// `weights` is borrowed; construct it once per configuration session.
    pub fn new(graph: &'a ServiceGraph, env: &'a Environment, weights: &'a Weights) -> Self {
        OsdProblem {
            graph,
            env,
            weights,
        }
    }

    /// The service graph.
    pub fn graph(&self) -> &'a ServiceGraph {
        self.graph
    }

    /// The device environment.
    pub fn env(&self) -> &'a Environment {
        self.env
    }

    /// The cost weights.
    pub fn weights(&self) -> &'a Weights {
        self.weights
    }

    /// Definition 3.4: whether the graph, partitioned by `cut`, fits into
    /// the environment's devices.
    ///
    /// Checks (1) per-part resource sums against device availabilities and
    /// (2) per ordered device pair, the crossing throughput against the
    /// available bandwidth. Pins are also enforced: a cut placing a pinned
    /// component elsewhere does not fit.
    pub fn fits(&self, cut: &Cut) -> bool {
        self.fits_using(cut, &mut Loads::default())
    }

    /// [`OsdProblem::fits`] with caller-owned scratch for the cut's loads,
    /// so a solver that checks many cuts allocates for none of them.
    /// Components whose resource dimensions disagree never fit.
    pub(crate) fn fits_using(&self, cut: &Cut, loads: &mut Loads) -> bool {
        if cut.len() != self.graph.component_count() || cut.parts() > self.env.device_count() {
            return false;
        }
        match cut.respects_pins(self.graph) {
            Ok(true) => {}
            _ => return false,
        }
        if !loads.fill(self.graph, cut) {
            return false;
        }
        // Resource constraints.
        for part in 0..cut.parts() {
            let avail = self.env.devices()[part].availability().amounts();
            if !fits_within(loads.part(part), avail) {
                return false;
            }
        }
        // Bandwidth constraints. Definition 3.4 quantifies over ordered
        // pairs, but `b(i, j)` here models a *shared medium* (one 802.11
        // channel, one link), so both directions draw from the same pool:
        // `T(i,j) + T(j,i) ≤ b(i,j)`. This matches the admission
        // accounting in [`crate::Environment::charge_cut`].
        let k = cut.parts();
        for i in 0..k {
            for j in (i + 1)..k {
                if loads.throughput(i, j) + loads.throughput(j, i)
                    > self.env.bandwidth().get(i, j) + EPSILON
                {
                    return false;
                }
            }
        }
        true
    }

    /// Definition 3.5: the cost aggregation of a cut.
    ///
    /// See [`cost_aggregation`] for semantics; infinite when the cut uses
    /// a resource or link with zero capacity.
    pub fn cost(&self, cut: &Cut) -> f64 {
        cost_aggregation(self.graph, cut, self.env, self.weights)
    }

    /// Validates the problem's structural preconditions: at least one
    /// device, every pin within range, and resource dimensions consistent
    /// between components and devices.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), DistributionError> {
        let k = self.env.device_count();
        if k == 0 {
            return Err(DistributionError::NoDevices);
        }
        let device_dim = self.env.devices()[0].availability().dim();
        for d in self.env.devices() {
            if d.availability().dim() != device_dim {
                return Err(DistributionError::Model(
                    ubiqos_model::ModelError::DimensionMismatch {
                        left: device_dim,
                        right: d.availability().dim(),
                    },
                ));
            }
        }
        for (_, c) in self.graph.components() {
            if c.resources().dim() != device_dim {
                return Err(DistributionError::Model(
                    ubiqos_model::ModelError::DimensionMismatch {
                        left: c.resources().dim(),
                        right: device_dim,
                    },
                ));
            }
            if let Some(pin) = c.pinned_to() {
                if pin.index() >= k {
                    return Err(DistributionError::InvalidPin {
                        device_index: pin.index(),
                        device_count: k,
                    });
                }
            }
        }
        Ok(())
    }
}

/// [`ubiqos_model::ResourceVector::fits_within`] on raw amounts:
/// `demand ≤ available + EPSILON` in every dimension.
pub(crate) fn fits_within(demand: &[f64], available: &[f64]) -> bool {
    demand.len() == available.len()
        && demand
            .iter()
            .zip(available)
            .all(|(r, ra)| *r <= *ra + EPSILON)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use ubiqos_graph::{DeviceId, ServiceComponent};
    use ubiqos_model::ResourceVector;

    fn simple() -> (ServiceGraph, Environment, Weights) {
        let mut g = ServiceGraph::new();
        let a = g.add_component(
            ServiceComponent::builder("a")
                .resources(ResourceVector::mem_cpu(60.0, 60.0))
                .build(),
        );
        let b = g.add_component(
            ServiceComponent::builder("b")
                .resources(ResourceVector::mem_cpu(60.0, 60.0))
                .build(),
        );
        g.add_edge(a, b, 4.0).unwrap();
        let env = Environment::builder()
            .device(Device::new("d0", ResourceVector::mem_cpu(100.0, 100.0)))
            .device(Device::new("d1", ResourceVector::mem_cpu(100.0, 100.0)))
            .default_bandwidth_mbps(5.0)
            .build();
        (g, env, Weights::default())
    }

    #[test]
    fn fit_requires_split_when_one_device_is_too_small() {
        let (g, env, w) = simple();
        let p = OsdProblem::new(&g, &env, &w);
        let together = Cut::from_assignment(&g, vec![0, 0], 2).unwrap();
        let split = Cut::from_assignment(&g, vec![0, 1], 2).unwrap();
        assert!(!p.fits(&together), "120 > 100 on one device");
        assert!(p.fits(&split));
    }

    #[test]
    fn bandwidth_constraint_rejects() {
        let (g, mut env, w) = simple();
        env.bandwidth_mut().set(0, 1, 3.0); // edge needs 4.0
        let p = OsdProblem::new(&g, &env, &w);
        let split = Cut::from_assignment(&g, vec![0, 1], 2).unwrap();
        assert!(!p.fits(&split));
    }

    #[test]
    fn pin_violations_do_not_fit() {
        let (mut g, env, w) = simple();
        let c = g.add_component(
            ServiceComponent::builder("display")
                .pinned_to(DeviceId::from_index(1))
                .build(),
        );
        let ids: Vec<_> = g.component_ids().collect();
        g.add_edge(ids[1], c, 0.1).unwrap();
        let p = OsdProblem::new(&g, &env, &w);
        let wrong = Cut::from_assignment(&g, vec![0, 1, 0], 2).unwrap();
        let right = Cut::from_assignment(&g, vec![0, 1, 1], 2).unwrap();
        assert!(!p.fits(&wrong));
        assert!(p.fits(&right));
    }

    #[test]
    fn mismatched_cut_shape_does_not_fit() {
        let (g, env, w) = simple();
        let p = OsdProblem::new(&g, &env, &w);
        let mut other_graph = ServiceGraph::new();
        other_graph.add_component(ServiceComponent::builder("x").build());
        let short = Cut::from_assignment(&other_graph, vec![0], 2).unwrap();
        assert!(!p.fits(&short));
    }

    #[test]
    fn validate_catches_bad_pins_and_empty_envs() {
        let (mut g, env, w) = simple();
        assert!(OsdProblem::new(&g, &env, &w).validate().is_ok());

        g.add_component(
            ServiceComponent::builder("ghost")
                .pinned_to(DeviceId::from_index(7))
                .build(),
        );
        assert!(matches!(
            OsdProblem::new(&g, &env, &w).validate(),
            Err(DistributionError::InvalidPin {
                device_index: 7,
                ..
            })
        ));

        let empty = Environment::builder().build();
        assert_eq!(
            OsdProblem::new(&g, &empty, &w).validate(),
            Err(DistributionError::NoDevices)
        );
    }

    #[test]
    fn validate_catches_dimension_mismatch() {
        let (g, _, w) = simple();
        let env = Environment::builder()
            .device(Device::new("odd", ResourceVector::new(vec![1.0]).unwrap()))
            .build();
        assert!(matches!(
            OsdProblem::new(&g, &env, &w).validate(),
            Err(DistributionError::Model(_))
        ));
    }

    #[test]
    fn cost_delegates_to_cost_aggregation() {
        let (g, env, w) = simple();
        let p = OsdProblem::new(&g, &env, &w);
        let split = Cut::from_assignment(&g, vec![0, 1], 2).unwrap();
        assert!(p.cost(&split).is_finite());
        assert!(p.cost(&split) > 0.0);
    }

    /// The per-part `fits`, the oracle for [`OsdProblem::fits`]: one
    /// resource vector per part and a `k × k` matrix of rows.
    fn reference_fits(p: &OsdProblem<'_>, cut: &Cut) -> bool {
        if cut.len() != p.graph.component_count() || cut.parts() > p.env.device_count() {
            return false;
        }
        match cut.respects_pins(p.graph) {
            Ok(true) => {}
            _ => return false,
        }
        for part in 0..cut.parts() {
            let Ok(used) = cut.part_resource_sum(p.graph, part) else {
                return false;
            };
            if !used.fits_within(p.env.devices()[part].availability()) {
                return false;
            }
        }
        let t = cut.inter_part_throughput(p.graph);
        let k = cut.parts();
        #[allow(clippy::needless_range_loop)] // t[i][j] + t[j][i]: pair-symmetric indexing
        for i in 0..k {
            for j in (i + 1)..k {
                if t[i][j] + t[j][i] > p.env.bandwidth().get(i, j) + EPSILON {
                    return false;
                }
            }
        }
        true
    }

    /// The per-part cost aggregation, the oracle for
    /// [`crate::cost::cost_aggregation`].
    fn reference_cost(p: &OsdProblem<'_>, cut: &Cut) -> f64 {
        let mut total = 0.0;
        for part in 0..cut.parts() {
            let used = cut
                .part_resource_sum(p.graph, part)
                .expect("consistent resource dimensions");
            let avail = p.env.devices()[part].availability();
            for (i, &w) in p.weights.resource().iter().enumerate() {
                let r = used.get(i).unwrap_or(0.0);
                if r <= EPSILON {
                    continue;
                }
                let ra = avail.get(i).unwrap_or(0.0);
                if ra <= EPSILON {
                    return f64::INFINITY;
                }
                total += w * r / ra;
            }
        }
        let t = cut.inter_part_throughput(p.graph);
        let w_net = p.weights.network();
        for (i, row) in t.iter().enumerate() {
            for (j, &crossing) in row.iter().enumerate() {
                if i == j || crossing <= EPSILON {
                    continue;
                }
                let b = p.env.bandwidth().get(i, j);
                if b <= EPSILON {
                    return f64::INFINITY;
                }
                total += w_net * crossing / b;
            }
        }
        total
    }

    /// A random instance and cut for the `fits`/`cost` oracle. Demands
    /// and capacities sit on coarse grids with zeros, so sums tie
    /// capacities and some devices have none of a resource; some
    /// components are pinned; some links have no bandwidth. The cut may
    /// use fewer parts than there are devices (leaving parts empty),
    /// more parts than devices, or a different component count.
    fn oracle_case(seed: u64) -> (ServiceGraph, Environment, Cut) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(0usize..9);
        let k = rng.gen_range(1usize..5);
        let mut g = ServiceGraph::new();
        let ids: Vec<_> = (0..n)
            .map(|i| {
                let amount = |rng: &mut StdRng| rng.gen_range(0usize..4) as f64 * 8.0;
                let mut b = ServiceComponent::builder(format!("c{i}"))
                    .resources(ResourceVector::mem_cpu(amount(&mut rng), amount(&mut rng)));
                if rng.gen_bool(0.2) {
                    b = b.pinned_to(DeviceId::from_index(rng.gen_range(0..k)));
                }
                g.add_component(b.build())
            })
            .collect();
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen_bool(0.4) {
                    g.add_edge(ids[i], ids[j], rng.gen_range(0usize..4) as f64 * 0.5)
                        .unwrap();
                }
            }
        }
        let mut env = Environment::builder();
        for d in 0..k {
            let capacity = |rng: &mut StdRng| rng.gen_range(0usize..5) as f64 * 16.0;
            env = env.device(Device::new(
                format!("d{d}"),
                ResourceVector::mem_cpu(capacity(&mut rng), capacity(&mut rng)),
            ));
        }
        env = env.default_bandwidth_mbps([0.0, 1.0, 4.0][rng.gen_range(0usize..3)]);
        for i in 0..k {
            for j in (i + 1)..k {
                if rng.gen_bool(0.3) {
                    env = env.link_mbps(i, j, rng.gen_range(0usize..4) as f64);
                }
            }
        }
        let parts = rng.gen_range(1..=k + 1);
        let len = if rng.gen_bool(0.1) {
            (n + rng.gen_range(0usize..2) * 2).saturating_sub(1)
        } else {
            n
        };
        let mut shape = ServiceGraph::new();
        for i in 0..len {
            shape.add_component(ServiceComponent::builder(format!("s{i}")).build());
        }
        let assignment = (0..len).map(|_| rng.gen_range(0..parts)).collect();
        let cut = Cut::from_assignment(&shape, assignment, parts).unwrap();
        (g, env.build(), cut)
    }

    /// What the oracle saw on one case: the `fits` verdict, and the cost
    /// when the cut is one `cost` accepts (the right length, no more
    /// parts than devices).
    fn fits_and_cost_match(seed: u64) -> Result<(bool, Option<f64>), String> {
        let (g, env, cut) = oracle_case(seed);
        let w = Weights::default();
        let p = OsdProblem::new(&g, &env, &w);
        let (fits, want) = (p.fits(&cut), reference_fits(&p, &cut));
        if fits != want {
            return Err(format!("seed {seed}: fits {fits}, reference {want}"));
        }
        if cut.len() != g.component_count() || cut.parts() > env.device_count() {
            return Ok((fits, None));
        }
        let (cost, want) = (p.cost(&cut), reference_cost(&p, &cut));
        if cost.to_bits() != want.to_bits() {
            return Err(format!("seed {seed}: cost {cost:?}, reference {want:?}"));
        }
        Ok((fits, Some(cost)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The one-pass `fits` and `cost` agree with the per-part bodies:
        /// the same verdict and the same cost bits.
        #[test]
        fn one_pass_fits_and_cost_match_the_reference(seed in 0u64..1_000_000) {
            fits_and_cost_match(seed)?;
        }
    }

    /// Fixed seeds on which the oracle confirms the cases the proptest is
    /// meant to reach: cuts that fit and cuts that do not, pins met and
    /// violated, empty parts, infinite costs, and cuts of the wrong
    /// length or with more parts than devices.
    #[test]
    fn fits_and_cost_oracle_covers_its_cases() {
        let (mut fit, mut unfit, mut infinite, mut unpriced) = (0, 0, 0, 0);
        let (mut pins_met, mut pins_violated, mut empty_parts) = (0, 0, 0);
        for seed in 0..500 {
            let (fits, cost) = fits_and_cost_match(seed).unwrap();
            if fits {
                fit += 1;
            } else {
                unfit += 1;
            }
            match cost {
                Some(c) if c.is_infinite() => infinite += 1,
                Some(_) => {}
                None => unpriced += 1,
            }
            let (g, env, cut) = oracle_case(seed);
            let pinned = g.components().any(|(_, c)| c.pinned_to().is_some());
            if cut.len() == g.component_count() && pinned {
                match cut.respects_pins(&g) {
                    Ok(true) => pins_met += 1,
                    _ => pins_violated += 1,
                }
            }
            if cut.parts() < env.device_count() || !cut.is_proper() {
                empty_parts += 1;
            }
        }
        for (name, count) in [
            ("fit", fit),
            ("unfit", unfit),
            ("infinite", infinite),
            ("unpriced", unpriced),
            ("pins met", pins_met),
            ("pins violated", pins_violated),
            ("empty parts", empty_parts),
        ] {
            assert!(count > 0, "no case was {name}");
        }
    }
}
