//! What one run measured, and the result line the run prints last.

use crate::spec::Spec;
use crate::stats::{median, share, TimedCall, KERNELS_PER_REF_S};
use serde_json::{Number, Value};

/// The outcome of one run of one workload.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Metric values by name, in the order the workload recorded them.
    pub metrics: Vec<(String, f64)>,
    /// Operations attempted (campaign calls, or placement solves).
    pub attempted: u64,
    /// Operations whose output broke a correctness check.
    pub failed: u64,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl RunReport {
    /// Records one metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name.to_string(), value)),
        }
    }

    /// Records a count.
    pub fn count(&mut self, name: &str, value: impl Into<u64>) {
        self.set(name, value.into() as f64);
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(format!("check failed: {}", what()));
        }
    }

    /// Records the end-to-end metrics: `requests` handled per reference
    /// second of the median timed call, the set-up time, and the
    /// resident-set peak (left unset where the system does not report it,
    /// which fails the run). Each call is measured in reference seconds
    /// against the reference kernel runs right after it. Wall-clock
    /// figures go to the notes.
    pub fn end_to_end<T>(
        &mut self,
        requests: f64,
        calls: &[TimedCall<T>],
        setup_s: f64,
        rss_mb: Option<f64>,
    ) {
        let ref_s: Vec<f64> = calls
            .iter()
            .map(|c| share(c.secs, c.kernel_secs * KERNELS_PER_REF_S))
            .collect();
        self.set("arrivals_per_ref_s", share(requests, median(&ref_s)));
        self.set("setup_s", setup_s);
        if let Some(mb) = rss_mb {
            self.set("peak_rss_mb", mb);
        }
        let mut walls: Vec<f64> = calls.iter().map(|c| c.secs * 1e3).collect();
        walls.sort_by(f64::total_cmp);
        let at = |q: f64| walls[((walls.len() - 1) as f64 * q).round() as usize];
        let kernel_ms: Vec<f64> = calls.iter().map(|c| c.kernel_secs * 1e3).collect();
        self.note(format!(
            "{} timed calls of {requests} requests: wall median {:.1} ms, quartiles {:.1} / {:.1} ms \
             ({} per wall second); reference kernel median {:.2} ms",
            walls.len(),
            at(0.5),
            at(0.25),
            at(0.75),
            share(requests * 1e3, median(&walls)),
            median(&kernel_ms),
        ));
    }

    /// Builds the result line: every metric the spec declares for this
    /// mode, in declaration order, with its declared unit. Per-layer
    /// metrics a workload does not exercise read `0`; an end-to-end
    /// metric the workload did not record, or any metric the spec does
    /// not declare, is an error.
    pub fn result_line(&self, spec: &Spec, trace: bool) -> Result<String, String> {
        let declared = spec.metrics(trace);
        if let Some((name, _)) = self
            .metrics
            .iter()
            .find(|(n, _)| !declared.iter().any(|(d, _)| d == n))
        {
            return Err(format!("metric `{name}` is not declared in BENCHMARK.json"));
        }
        let mut metrics = Vec::with_capacity(declared.len());
        for (name, unit) in declared {
            let value = match self.metrics.iter().find(|(n, _)| n == name) {
                Some(&(_, v)) => v,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric `{name}` was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not finite: {value}"));
            }
            metrics.push((
                name.to_string(),
                Value::Object(vec![
                    ("value".to_string(), Value::Number(Number::F(value))),
                    ("unit".to_string(), Value::String(unit.to_string())),
                ]),
            ));
        }
        let line = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.failed == 0)),
            (
                "attempted".to_string(),
                Value::Number(Number::U(self.attempted)),
            ),
            ("failed".to_string(), Value::Number(Number::U(self.failed))),
            ("metrics".to_string(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).map_err(|e| format!("result line: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_fills_unexercised_layers_and_rejects_strays() {
        let spec = Spec::load();
        let mut r = RunReport::default();
        r.check(true, String::new);
        r.set("transport.sends", 3.0);
        let line = r.result_line(&spec, true).expect("per-layer line");
        let v: Value = serde_json::from_str(&line).expect("valid JSON");
        let Value::Object(top) = v else {
            panic!("object expected")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Value::Object(metrics) = &top[3].1 else {
            panic!("metrics object expected")
        };
        assert_eq!(metrics.len(), spec.per_layer.len());

        // End-to-end metrics are never defaulted.
        assert!(r.result_line(&spec, false).is_err());
        r.set("not.declared", 1.0);
        assert!(r.result_line(&spec, true).is_err());
    }

    #[test]
    fn a_failed_check_marks_the_run_incorrect() {
        let spec = Spec::load();
        let mut r = RunReport::default();
        r.check(true, String::new);
        r.check(false, || "digest differs".to_string());
        for m in &spec.end_to_end {
            r.set(&m.name, 1.0);
        }
        let line = r.result_line(&spec, false).expect("line");
        assert!(
            line.starts_with(r#"{"correct":false,"attempted":2,"failed":1,"#),
            "{line}"
        );
        assert_eq!(r.notes, ["check failed: digest differs"]);
    }
}
