//! The component repository — dynamic downloading of service code.
//!
//! "In the video conferencing application, we assume that all required
//! service components need to be downloaded on demand from the component
//! repository … the dynamic downloading overhead, which occupies the
//! largest proportion of the total overhead, can often be avoided if the
//! required components are already on the target devices."

use crate::cost_model::{CostModel, LinkKind};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Tracks which component bundles are installed on which devices and
/// prices the downloads for the ones that are not.
///
/// The installed instances are kept per device, so a lookup borrows
/// the instance id instead of building a `(device, id)` key. `Debug`
/// and serialization still show one set of `(device, instance id)`
/// pairs in (device, id) order.
#[derive(Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ComponentRepository {
    /// The instance ids already installed, by device index. A device
    /// appears only once something is installed on it.
    #[serde(with = "installed_pairs")]
    installed: BTreeMap<usize, BTreeSet<String>>,
}

impl fmt::Debug for ComponentRepository {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ComponentRepository")
            .field("installed", &Pairs(&self.installed))
            .finish()
    }
}

/// Renders per-device sets as the one set of pairs they stand for.
struct Pairs<'a>(&'a BTreeMap<usize, BTreeSet<String>>);

impl Pairs<'_> {
    fn iter(&self) -> impl Iterator<Item = (usize, &String)> {
        self.0
            .iter()
            .flat_map(|(&device, ids)| ids.iter().map(move |id| (device, id)))
    }
}

impl fmt::Debug for Pairs<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl ComponentRepository {
    /// An empty repository: nothing pre-installed anywhere.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks an instance as pre-installed on a device.
    pub fn preinstall(&mut self, device: usize, instance_id: impl Into<String>) {
        self.installed
            .entry(device)
            .or_default()
            .insert(instance_id.into());
    }

    /// Whether an instance is installed on a device.
    pub fn is_installed(&self, device: usize, instance_id: &str) -> bool {
        self.installed
            .get(&device)
            .is_some_and(|ids| ids.contains(instance_id))
    }

    /// Ensures `instance_id` (a bundle of `size_mb`) is available on
    /// `device`, returning the download time in ms (0 when already
    /// installed). The instance is installed afterwards, so repeated
    /// configurations pay nothing — exactly the paper's "can often be
    /// avoided" observation. Only an actual install allocates.
    pub fn ensure_installed(
        &mut self,
        device: usize,
        instance_id: &str,
        size_mb: f64,
        link: LinkKind,
        costs: &CostModel,
    ) -> f64 {
        if self.is_installed(device, instance_id) {
            return 0.0;
        }
        self.preinstall(device, instance_id);
        costs.download_ms(size_mb, link)
    }

    /// Number of installed `(device, instance)` pairs.
    pub fn installed_count(&self) -> usize {
        self.installed.values().map(BTreeSet::len).sum()
    }
}

/// Serializes the per-device sets as the one set of `(device, instance
/// id)` pairs they stand for.
mod installed_pairs {
    use super::Pairs;
    use serde::{Deserialize, Deserializer, Serialize, Serializer};
    use std::collections::{BTreeMap, BTreeSet};

    pub fn serialize<S: Serializer>(
        installed: &BTreeMap<usize, BTreeSet<String>>,
        serializer: S,
    ) -> Result<S::Ok, S::Error> {
        let pairs: BTreeSet<(usize, String)> = Pairs(installed)
            .iter()
            .map(|(device, id)| (device, id.clone()))
            .collect();
        pairs.serialize(serializer)
    }

    pub fn deserialize<D: Deserializer>(
        deserializer: D,
    ) -> Result<BTreeMap<usize, BTreeSet<String>>, D::Error> {
        let pairs = BTreeSet::<(usize, String)>::deserialize(deserializer)?;
        let mut installed: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
        for (device, id) in pairs {
            installed.entry(device).or_default().insert(id);
        }
        Ok(installed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_downloads_once() {
        let mut repo = ComponentRepository::new();
        let costs = CostModel::default();
        let first = repo.ensure_installed(0, "player", 2.0, LinkKind::Ethernet, &costs);
        assert!(first > 0.0);
        let second = repo.ensure_installed(0, "player", 2.0, LinkKind::Ethernet, &costs);
        assert_eq!(second, 0.0, "already installed: no second download");
        // Same instance on a different device downloads again.
        let other = repo.ensure_installed(1, "player", 2.0, LinkKind::Ethernet, &costs);
        assert!(other > 0.0);
        assert_eq!(repo.installed_count(), 2);
    }

    #[test]
    fn preinstall_avoids_download() {
        let mut repo = ComponentRepository::new();
        let costs = CostModel::default();
        repo.preinstall(2, "server");
        assert!(repo.is_installed(2, "server"));
        assert_eq!(
            repo.ensure_installed(2, "server", 50.0, LinkKind::Wireless, &costs),
            0.0
        );
    }

    /// The layout the repository had as one set of pairs, whose `Debug`
    /// output the per-device sets must reproduce.
    mod pairs_layout {
        use std::collections::BTreeSet;

        #[derive(Debug)]
        #[allow(dead_code)] // read through `Debug` only
        pub struct ComponentRepository {
            pub installed: BTreeSet<(usize, String)>,
        }
    }

    #[test]
    fn debug_and_serde_show_one_set_of_pairs() {
        let installs = [(1, "b"), (0, "z"), (1, "a"), (0, "c")];
        let mut repo = ComponentRepository::new();
        for (device, id) in installs {
            repo.preinstall(device, id);
        }
        let pairs = pairs_layout::ComponentRepository {
            installed: installs.iter().map(|&(d, id)| (d, id.to_owned())).collect(),
        };
        assert_eq!(format!("{repo:?}"), format!("{pairs:?}"));
        assert_eq!(format!("{repo:#?}"), format!("{pairs:#?}"));
        let json = serde_json::to_string(&repo).unwrap();
        assert_eq!(json, r#"{"installed":[[0,"c"],[0,"z"],[1,"a"],[1,"b"]]}"#);
        let back: ComponentRepository = serde_json::from_str(&json).unwrap();
        assert_eq!(back, repo);
        assert!(back.is_installed(1, "a") && !back.is_installed(0, "a"));
        assert_eq!(back.installed_count(), 4);
    }

    #[test]
    fn wireless_download_costs_more() {
        let mut a = ComponentRepository::new();
        let mut b = ComponentRepository::new();
        let costs = CostModel::default();
        let wired = a.ensure_installed(0, "x", 4.0, LinkKind::Ethernet, &costs);
        let wireless = b.ensure_installed(0, "x", 4.0, LinkKind::Wireless, &costs);
        assert!(wireless > wired);
    }
}
