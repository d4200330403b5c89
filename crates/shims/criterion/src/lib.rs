//! In-tree shim for the `criterion` crate.
//!
//! A deliberately small wall-clock harness with criterion's API shape:
//! benchmark groups, `bench_function` / `bench_with_input`, `iter` /
//! `iter_batched`, `criterion_group!` / `criterion_main!`. There is no
//! statistical analysis — each benchmark is warmed up once and timed
//! over a handful of runs, reporting min/mean/max.
//!
//! When the executable receives a `--test` argument (as `cargo test`
//! passes to `harness = false` bench targets), every benchmark body
//! runs exactly once so the test suite stays fast. The first argument
//! that is not a flag filters benchmarks by substring of their full
//! `group/id` name, as upstream criterion does: `cargo bench --bench
//! osd_solver -- osd/hierarchical` runs only that group. Work a bench
//! does outside its timed bodies is gated on [`Criterion::selects`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level benchmark driver, one per bench executable.
pub struct Criterion {
    test_mode: bool,
    /// Runs only the benchmarks whose full name contains this.
    filter: Option<String>,
}

impl Criterion {
    /// Builds a driver from the process arguments (`--test` → run each
    /// benchmark once, without timing loops; the first non-flag
    /// argument → name filter).
    pub fn from_args() -> Self {
        Criterion::parse(std::env::args().skip(1))
    }

    fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut criterion = Criterion {
            test_mode: false,
            filter: None,
        };
        for arg in args {
            if arg == "--test" {
                criterion.test_mode = true;
            } else if !arg.starts_with('-') && criterion.filter.is_none() {
                criterion.filter = Some(arg);
            }
        }
        criterion
    }

    /// Whether the benchmark or group named `name` passes the filter: no
    /// filter, or the filter is a substring of `name`. A bench target
    /// gates work that runs outside any timed body (a printed table, a
    /// one-off comparison) on its group's name with this, so a filtered
    /// run does only the selected group's work.
    pub fn selects(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
            criterion: self,
        }
    }

    /// Benchmarks outside any group.
    pub fn bench_function<F>(&mut self, id: impl Display, f: F)
    where
        F: FnMut(&mut Bencher),
    {
        self.run(&id.to_string(), 10, f);
    }

    /// Runs benchmark `name` unless the filter excludes it.
    fn run<F>(&self, name: &str, sample_size: usize, f: F)
    where
        F: FnMut(&mut Bencher),
    {
        if self.selects(name) {
            run_benchmark(name, self.test_mode, sample_size, f);
        }
    }
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion::from_args()
    }
}

/// A named set of benchmarks sharing settings.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed runs per benchmark (the shim caps the
    /// actual count to keep wall-clock time reasonable).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Runs one benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id);
        self.criterion.run(&full, self.sample_size, f);
        self
    }

    /// Runs one parameterized benchmark in this group.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.0);
        self.criterion.run(&full, self.sample_size, |b| f(b, input));
        self
    }

    /// Ends the group (a no-op in the shim; kept for API parity).
    pub fn finish(self) {}
}

/// A benchmark's identifier, optionally derived from its parameter.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `name/parameter` identifier.
    pub fn new(name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId(format!("{name}/{parameter}"))
    }

    /// Identifier that is just the parameter.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId(parameter.to_string())
    }
}

/// How much setup output to batch per timing run; the shim times one
/// setup+routine pair per run regardless.
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small routine input (the only variant this workspace uses).
    SmallInput,
    /// Large routine input.
    LargeInput,
}

/// Passed to each benchmark body to drive the timing loop.
pub struct Bencher {
    iters: usize,
    samples: Vec<Duration>,
}

impl Bencher {
    /// Times `routine`, `iters` times.
    pub fn iter<O, F>(&mut self, mut routine: F)
    where
        F: FnMut() -> O,
    {
        for _ in 0..self.iters {
            let start = Instant::now();
            let out = routine();
            self.samples.push(start.elapsed());
            drop(black_box(out));
        }
    }

    /// Times `routine` on fresh input from `setup`; setup time is not
    /// counted.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            let out = routine(input);
            self.samples.push(start.elapsed());
            drop(black_box(out));
        }
    }
}

fn run_benchmark<F>(name: &str, test_mode: bool, sample_size: usize, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    // Cap timed runs: the shim reports indicative numbers, not a
    // statistically rigorous distribution.
    let iters = if test_mode {
        1
    } else {
        sample_size.clamp(1, 7)
    };
    if !test_mode {
        // One untimed warmup pass.
        let mut warm = Bencher {
            iters: 1,
            samples: Vec::new(),
        };
        f(&mut warm);
    }
    let mut bencher = Bencher {
        iters,
        samples: Vec::new(),
    };
    f(&mut bencher);
    report(name, test_mode, &bencher.samples);
}

fn report(name: &str, test_mode: bool, samples: &[Duration]) {
    if test_mode {
        println!("test {name} ... ok");
        return;
    }
    if samples.is_empty() {
        println!("{name:<50} (no samples)");
        return;
    }
    let min = samples.iter().min().expect("non-empty");
    let max = samples.iter().max().expect("non-empty");
    let mean = samples.iter().sum::<Duration>() / samples.len() as u32;
    println!(
        "{name:<50} [{} {} {}] ({} runs)",
        fmt_duration(*min),
        fmt_duration(mean),
        fmt_duration(*max),
        samples.len()
    );
}

fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} µs", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1e6)
    } else {
        format!("{:.3} s", nanos as f64 / 1e9)
    }
}

/// Bundles benchmark functions into a callable group.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Generates `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Criterion {
        Criterion::parse(list.iter().map(|a| a.to_string()))
    }

    #[test]
    fn groups_run_bodies_and_count_samples() {
        let mut c = args(&["--test"]);
        let mut runs = 0;
        {
            let mut group = c.benchmark_group("g");
            group.sample_size(30);
            group.bench_function("f", |b| b.iter(|| runs += 1));
            group.bench_with_input(BenchmarkId::from_parameter(4), &4, |b, &n| {
                b.iter_batched(|| n, |x| x * 2, BatchSize::SmallInput)
            });
            group.finish();
        }
        assert_eq!(runs, 1, "--test mode runs each body once");
    }

    #[test]
    fn the_first_non_flag_argument_filters_by_substring() {
        let c = args(&["--bench", "osd/hierarchical", "other"]);
        assert!(!c.test_mode);
        assert!(c.selects("osd/hierarchical/48"));
        assert!(!c.selects("osd/bound-ablation/12"));
        assert!(
            !c.selects("other"),
            "only the first non-flag argument filters"
        );
        let all = args(&["--test"]);
        assert!(all.test_mode);
        assert!(
            all.selects("osd/bound-ablation/12"),
            "no filter selects all"
        );
    }

    #[test]
    fn a_filtered_out_benchmark_never_runs() {
        let mut c = args(&["--test", "g/kept"]);
        let (mut kept, mut skipped) = (0, 0);
        {
            let mut group = c.benchmark_group("g");
            group.bench_function("kept", |b| b.iter(|| kept += 1));
            group.bench_function("skipped", |b| b.iter(|| skipped += 1));
            group.finish();
        }
        c.bench_function("loose", |b| b.iter(|| skipped += 1));
        assert_eq!((kept, skipped), (1, 0));
    }

    #[test]
    fn side_work_gated_on_a_group_name_follows_the_filter() {
        let mut printed = Vec::new();
        for filter in ["des/fill_drain", "scaling/ablation", "scaling"] {
            let c = args(&["--bench", filter]);
            for group in [
                "scaling/ablation-18-nodes",
                "scaling/oc-order-200-nodes",
                "des",
            ] {
                if c.selects(group) {
                    printed.push((filter, group));
                }
            }
        }
        assert_eq!(
            printed,
            [
                ("scaling/ablation", "scaling/ablation-18-nodes"),
                ("scaling", "scaling/ablation-18-nodes"),
                ("scaling", "scaling/oc-order-200-nodes"),
            ],
            "a benchmark filter skips every other group's side work"
        );
        assert!(args(&["--test"]).selects("des"), "no filter selects all");
    }

    #[test]
    fn durations_format_with_sane_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert!(fmt_duration(Duration::from_micros(1500)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(2)).ends_with("s"));
    }
}
