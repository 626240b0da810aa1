//! Metric names, units, per-layer accumulation and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use crate::meter::Timing;
use crate::stats;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("norm_throughput", "items/s"),
    ("norm_latency_p50_ms", "ms"),
    ("norm_latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("schedulable_ratio", "ratio"),
];

/// Per-layer metrics, printed by every traced run. A workload that never
/// reaches a layer reports that layer's metrics as 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("workload.generate_us", "us"),
    ("analysis.context_us", "us"),
    ("analysis.solve_us.fp.aware", "us"),
    ("analysis.solve_us.fp.oblivious", "us"),
    ("analysis.solve_us.rr.aware", "us"),
    ("analysis.solve_us.rr.oblivious", "us"),
    ("analysis.solve_us.tdma.aware", "us"),
    ("analysis.solve_us.tdma.oblivious", "us"),
    ("analysis.inner_iters.fp.aware", "count"),
    ("analysis.inner_iters.fp.oblivious", "count"),
    ("analysis.inner_iters.rr.aware", "count"),
    ("analysis.inner_iters.rr.oblivious", "count"),
    ("analysis.inner_iters.tdma.aware", "count"),
    ("analysis.inner_iters.tdma.oblivious", "count"),
    ("analysis.outer_iters", "count"),
    ("engine.curve_hit_ratio", "ratio"),
    ("engine.bao_hit_ratio", "ratio"),
    ("engine.same_core_hit_ratio", "ratio"),
    ("engine.tasks_skipped_ratio", "ratio"),
    ("experiments.driver_us", "us"),
    ("optimize.batch_ms", "ms"),
    ("optimize.search_ms", "ms"),
    ("optimize.service_us", "us"),
    ("optimize.candidates_per_request", "count"),
    ("optimize.us_per_candidate", "us"),
    ("optimize.memo_hit_ratio", "ratio"),
    ("optimize.pruned_ratio", "ratio"),
    ("optimize.cache_hit_ratio", "ratio"),
    ("engine.parent_replay_ratio", "ratio"),
    ("optimize.moves_accepted_ratio", "ratio"),
    ("sim.run_ms.fp", "ms"),
    ("sim.run_ms.rr", "ms"),
    ("sim.run_ms.tdma", "ms"),
    ("sim.cycles_skipped_ratio", "ratio"),
    ("sim.transactions_per_run", "count"),
    ("sim.skip_spans_per_run", "count"),
    ("validate.set_ms", "ms"),
    ("validate.analysis_ms", "ms"),
    ("validate.checks_per_set", "count"),
    ("host.wall_throughput", "items/s"),
    ("host.calib_us", "us"),
    ("host.calib_spread", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// `(name, value)` of the metrics a run measured.
pub type Metrics = Vec<(&'static str, f64)>;

/// What one process measured and checked. Merges across the processes of
/// a run.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct Part {
    /// Operations attempted: calls into the program whose output was checked.
    pub attempted: u64,
    /// Attempted operations whose output check failed.
    pub failed: u64,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    /// Drift-normalized timings.
    pub timing: Timing,
    /// Schedulable outcomes among those judged for `schedulable_ratio`.
    pub schedulable: u64,
    /// Outcomes judged for `schedulable_ratio`: a fixed, seed-determined
    /// prefix of the run's work, so the ratio does not depend on host speed.
    pub judged: u64,
    /// `VmHWM` of each measuring process once it has done its fixed,
    /// seed-determined prefix of work (the one `schedulable_ratio` covers),
    /// in MB: peak memory that does not depend on how much work the host
    /// let the process do.
    pub peak_rss_mb: Vec<f64>,
}

impl Part {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("check failed: {}", what()));
        }
    }

    /// Folds another process's part into this one.
    pub fn merge(&mut self, other: Part) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.timing.merge(other.timing);
        self.schedulable += other.schedulable;
        self.judged += other.judged;
        self.peak_rss_mb.extend(other.peak_rss_mb);
    }

    /// The end-to-end metrics. A latency series too short for a tail counts
    /// as a failed check.
    pub fn end_to_end(&mut self) -> Metrics {
        let t = &self.timing;
        let tail = stats::tail(&t.latencies_ms);
        let metrics = vec![
            ("setup_s", stats::median(&t.setups_s)),
            ("norm_throughput", t.items as f64 / t.normalized_s),
            ("norm_latency_p50_ms", stats::median(&t.latencies_ms)),
            ("norm_latency_tail_ms", tail.map_or(0.0, |t| t.value)),
            ("peak_rss_mb", stats::median(&self.peak_rss_mb)),
            (
                "schedulable_ratio",
                self.schedulable as f64 / self.judged as f64,
            ),
        ];
        let raw_tail = stats::tail(&t.raw_latencies_ms).map_or(0.0, |t| t.value);
        let notes = [
            format!(
                "{} items timed; unnormalized: throughput {} items/s, p50 {} ms, tail {} ms, setup {} s",
                t.items,
                t.items as f64 / t.wall_s,
                stats::median(&t.raw_latencies_ms),
                raw_tail,
                stats::median(&t.raw_setups_s),
            ),
            format!("setup_s is the median of {} cold starts", t.setups_s.len()),
        ];
        let samples = t.latencies_ms.len();
        self.notes.extend(notes);
        match tail {
            Some(t) => self.notes.push(format!(
                "norm_latency_tail_ms is p{} over {} samples ({} beyond it)",
                t.percentile, t.samples, t.beyond
            )),
            None => self.check(false, || {
                format!("{samples} latency samples cannot support a tail")
            }),
        }
        metrics
    }

    /// The host metrics of a traced run, plus the tracing overhead: the
    /// traced run's wall time over the wall time of its calls into the program.
    pub fn host(&self, traced_wall_s: f64) -> [(&'static str, f64); 4] {
        let t = &self.timing;
        let mut calib = t.calibrations_s.clone();
        calib.sort_by(f64::total_cmp);
        let at = |q: f64| calib[((calib.len() - 1) as f64 * q).round() as usize];
        let median = stats::median(&calib);
        [
            ("host.wall_throughput", t.items as f64 / t.wall_s),
            ("host.calib_us", median * 1e6),
            ("host.calib_spread", (at(0.75) - at(0.25)) / median),
            ("trace.overhead_ratio", traced_wall_s / t.wall_s),
        ]
    }
}

/// `VmHWM` (peak resident set) of this process, in MB.
pub fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sums of per-layer samples, keyed by metric name.
#[derive(Default)]
pub struct Layers {
    sums: BTreeMap<&'static str, (f64, u64)>,
    counters: BTreeMap<String, u64>,
}

impl Layers {
    /// Adds one sample of `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        let entry = self.sums.entry(name).or_default();
        entry.0 += value;
        entry.1 += 1;
    }

    /// Mean of the samples of `name` (0 without samples).
    pub fn mean(&self, name: &str) -> f64 {
        self.sums.get(name).map_or(0.0, |&(sum, n)| sum / n as f64)
    }

    /// Sum of the samples of `name`.
    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).map_or(0.0, |&(sum, _)| sum)
    }

    /// Runs `call` and adds the program's counter increments during it.
    pub fn counting<R>(&mut self, call: impl FnOnce() -> R) -> R {
        let before = cpa_obs::metrics_snapshot();
        let out = call();
        for (name, delta) in cpa_obs::metrics_snapshot().delta_since(&before).counters {
            *self.counters.entry(name).or_default() += delta;
        }
        out
    }

    /// Total increments of counter `name` seen by [`Layers::counting`].
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// `hits / (hits + misses)` over counted increments (0 when neither
    /// moved).
    pub fn ratio(&self, hits: &str, misses: &str) -> f64 {
        let (h, m) = (self.counter(hits), self.counter(misses));
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// The engine reuse ratios, from counted increments.
    pub fn engine_ratios(&self) -> [(&'static str, f64); 4] {
        [
            (
                "engine.curve_hit_ratio",
                self.ratio("engine.curve_hit", "engine.curve_miss"),
            ),
            (
                "engine.bao_hit_ratio",
                self.ratio("engine.bao_hit", "engine.bao_miss"),
            ),
            (
                "engine.same_core_hit_ratio",
                self.ratio("engine.same_core_hit", "engine.same_core_miss"),
            ),
            (
                "engine.tasks_skipped_ratio",
                self.ratio("engine.tasks_skipped", "engine.tasks_solved"),
            ),
        ]
    }
}

/// Renders the result line: one JSON object with `correct`, `attempted`,
/// `failed` and the metrics of `names`, in that order. Metrics the run did
/// not measure are reported as 0.
pub fn result_line(
    part: &Part,
    metrics: &[(&'static str, f64)],
    names: &[(&'static str, &'static str)],
) -> String {
    let value_of = |name: &str| {
        metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| if v.is_finite() { v } else { 0.0 })
    };
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        part.failed == 0 && part.attempted > 0,
        part.attempted.max(1),
        part.failed
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {:?}, \"unit\": \"{unit}\"}}",
            value_of(name)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every end-to-end metric of the benchmark's design (NOTES.md).
    const DESIGN_END_TO_END: [&str; 6] = [
        "setup_s",
        "norm_throughput",
        "norm_latency_p50_ms",
        "norm_latency_tail_ms",
        "peak_rss_mb",
        "schedulable_ratio",
    ];

    fn design_per_layer() -> Vec<String> {
        let mut names: Vec<String> = [
            "workload.generate_us",
            "analysis.context_us",
            "analysis.outer_iters",
            "engine.curve_hit_ratio",
            "engine.bao_hit_ratio",
            "engine.same_core_hit_ratio",
            "engine.tasks_skipped_ratio",
            "experiments.driver_us",
            "optimize.batch_ms",
            "optimize.search_ms",
            "optimize.service_us",
            "optimize.candidates_per_request",
            "optimize.us_per_candidate",
            "optimize.memo_hit_ratio",
            "optimize.pruned_ratio",
            "optimize.cache_hit_ratio",
            "engine.parent_replay_ratio",
            "optimize.moves_accepted_ratio",
            "sim.cycles_skipped_ratio",
            "sim.transactions_per_run",
            "sim.skip_spans_per_run",
            "validate.set_ms",
            "validate.analysis_ms",
            "validate.checks_per_set",
            "host.wall_throughput",
            "host.calib_us",
            "host.calib_spread",
            "trace.overhead_ratio",
        ]
        .map(String::from)
        .to_vec();
        for bus in ["fp", "rr", "tdma"] {
            names.push(format!("sim.run_ms.{bus}"));
            for mode in ["aware", "oblivious"] {
                names.push(format!("analysis.solve_us.{bus}.{mode}"));
                names.push(format!("analysis.inner_iters.{bus}.{mode}"));
            }
        }
        names
    }

    #[test]
    fn output_names_every_designed_metric() {
        let e2e = result_line(&Part::default(), &[], &END_TO_END);
        for name in DESIGN_END_TO_END {
            assert!(e2e.contains(&format!("\"{name}\": {{")), "{name}");
        }
        let traced = result_line(&Part::default(), &[], &PER_LAYER);
        let names = design_per_layer();
        for name in &names {
            assert!(traced.contains(&format!("\"{name}\": {{")), "{name}");
        }
        assert_eq!(names.len(), PER_LAYER.len());
    }

    #[test]
    fn benchmark_manifest_lists_the_same_metrics() {
        let manifest = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "{entry}");
        }
    }

    #[test]
    fn result_line_is_one_json_object_with_finite_values() {
        let part = Part {
            attempted: 3,
            failed: 1,
            ..Part::default()
        };
        let metrics = [("setup_s", 0.5), ("norm_throughput", f64::NAN)];
        let line = result_line(&part, &metrics, &END_TO_END);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"norm_throughput\": {\"value\": 0.0,"));
        assert!(!line.contains('\n'));
    }
}
