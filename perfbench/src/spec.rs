//! The benchmark's declaration, `BENCHMARK.json`, compiled into the
//! binary so every run prints exactly the metrics it declares, with the
//! declared units.

use serde::{Deserialize, Serialize};

/// `BENCHMARK.json` at the repository root.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Spec {
    /// The program and arguments that run one workload.
    pub command: Vec<String>,
    /// Directories that hold the benchmark.
    pub paths: Vec<String>,
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// The named workloads.
    pub workloads: Vec<Workload>,
    /// Metrics measured untraced.
    pub end_to_end: Vec<EndToEnd>,
    /// Metrics of single layers, measured by the traced run.
    pub per_layer: Vec<PerLayer>,
}

/// One named workload and the reason it exists.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Workload name, as passed to `--workload`.
    pub name: String,
    /// One line on why the workload is in the benchmark.
    pub why: String,
}

/// One end-to-end metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EndToEnd {
    /// Metric name.
    pub name: String,
    /// Unit the value is printed in.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// One per-layer metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerLayer {
    /// Metric name.
    pub name: String,
    /// Unit the value is printed in.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
}

/// The declaration text the binary was built with.
pub const SPEC_JSON: &str = include_str!("../../BENCHMARK.json");

impl Spec {
    /// Parses the compiled-in declaration.
    ///
    /// # Panics
    ///
    /// Panics when `BENCHMARK.json` does not parse, which the build of a
    /// correct checkout never allows past the unit tests.
    pub fn load() -> Spec {
        serde_json::from_str(SPEC_JSON).expect("BENCHMARK.json parses")
    }

    /// `(name, unit)` of every metric printed by a run in `trace` mode.
    pub fn metrics(&self, trace: bool) -> Vec<(&str, &str)> {
        if trace {
            self.per_layer
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str()))
                .collect()
        } else {
            self.end_to_end
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str()))
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_round_trips_through_serde() {
        let spec = Spec::load();
        let text = serde_json::to_string_pretty(&spec).expect("serializes");
        let again: Spec = serde_json::from_str(&text).expect("reparses");
        assert_eq!(spec, again);
        // Same tree as the file itself: no key dropped or invented.
        let file: serde_json::Value = serde_json::from_str(SPEC_JSON).expect("parses");
        let ours: serde_json::Value = serde_json::from_str(&text).expect("parses");
        assert_eq!(file, ours);
    }

    #[test]
    fn declaration_fits_the_runner() {
        let spec = Spec::load();
        let names: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, crate::WORKLOADS);
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        for m in &spec.end_to_end {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let mut all: Vec<&str> = spec
            .end_to_end
            .iter()
            .map(|m| m.name.as_str())
            .chain(spec.per_layer.iter().map(|m| m.name.as_str()))
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "metric names are unique");
    }
}
