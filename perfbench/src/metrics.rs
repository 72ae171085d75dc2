//! Metric names, units and the result line the benchmark prints.
//!
//! The two tables below are the benchmark's contract with its callers:
//! `BENCHMARK.json` lists exactly these names and units, and a test keeps
//! the two in step. Every workload prints every name of the table its
//! pass selects; a per-layer metric of a layer the workload does not
//! exercise reads 0.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by the untraced pass (`--trace 0`).
///
/// An *op* is the workload's unit of work: one grid cell on
/// `paper-grid` and `dma-stream` (latency samples are each cell's median
/// time over the rounds), one grid cell on `fleet-sweep` (samples are
/// each round's wall time per cell), one 16-query `DECIDE` batch on
/// `serve-decide` (samples are every batch's round trip).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_s", "ops/s"),
    ("op_p50_us", "us"),
];

/// Per-layer metrics, printed by the traced pass (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    // soc: the engine span minus its policy child spans.
    ("soc.self_s", "s"),
    ("soc.self_ns_per_event", "ns"),
    ("sim.events_per_s", "events/s"),
    // sim / mem: modeled work per round of the workload's grid.
    ("sim.events", "count"),
    ("sim.cycles", "cycles"),
    ("mem.offchip_accesses", "count"),
    ("mem.offchip_per_event", "ratio"),
    // cache: tag-walk counters per round (`AppResult::tag_walk`).
    ("cache.probes", "count"),
    ("cache.scans", "count"),
    ("cache.scans_per_event", "ratio"),
    ("cache.scans_per_probe", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.fused_probes", "count"),
    ("cache.hint_hits", "count"),
    ("cache.empty_skips", "count"),
    ("cache.stripe_members", "count"),
    // core: the learning and fixed policies inside the engine.
    ("core.decide_ns", "ns"),
    ("core.observe_ns", "ns"),
    ("core.decisions", "count"),
    ("core.share_pct", "%"),
    ("core.mode_share.non-coh-dma", "%"),
    ("core.mode_share.llc-coh-dma", "%"),
    ("core.mode_share.coh-dma", "%"),
    ("core.mode_share.full-coh", "%"),
    // core (frozen): the serving path's table lookup.
    ("core.frozen_decide_ns", "ns"),
    // serve: the network path around it.
    ("serve.rtt_samples", "count"),
    ("serve.rtt_p50_us", "us"),
    ("serve.rtt_p99_us", "us"),
    ("serve.codec_ns_per_batch", "ns"),
    ("serve.net_self_us", "us"),
    ("serve.swaps", "count"),
    ("serve.server_errors", "count"),
    // exp: the sweep's sink, record codec and durable checkpoint.
    ("exp.sink_us_per_cell", "us"),
    ("exp.record_encode_us", "us"),
    ("exp.record_decode_us", "us"),
    ("exp.checkpoint_append_us", "us"),
    // fleet: queen + loopback worker against the Serial executor.
    ("fleet.serial_s", "s"),
    ("fleet.overhead_ms_per_cell", "ms"),
    ("fleet.leases", "count"),
    ("fleet.cells_per_lease", "ratio"),
    ("fleet.speculative", "count"),
    ("fleet.useful_ratio", "ratio"),
    // workloads: input generation, part of set-up.
    ("workloads.generate_s", "s"),
    // modeled (deterministic) headline of the paper-grid workload.
    ("model.speedup_x", "x"),
    ("model.offchip_reduction_pct", "%"),
    // host resources of the whole process and the cost of tracing.
    ("host.user_cpu_s", "s"),
    ("host.wall_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// Collected metric values, by name.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Sets `name` (which must appear in one of the tables) to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric `{name}` is not in the benchmark's tables"
        );
        self.0.insert(name, value);
    }

    /// The value recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The unit of a metric named in either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Checked operations whose output was wrong or that errored.
    pub failed: u64,
    /// Whole-run checks that failed (each also printed to stderr).
    pub violations: Vec<String>,
    /// The metric values.
    pub values: Values,
}

impl Outcome {
    /// Records a whole-run check; a failure is kept as a violation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let message = what();
            eprintln!("perfbench: CHECK FAILED: {message}");
            self.violations.push(message);
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty() && self.attempted > 0
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric of the selected table. A per-layer
    /// metric the workload did not record reads 0, and so does every
    /// metric of a run that failed before measuring it; a missing
    /// end-to-end metric of a correct run is a bug.
    pub fn to_json(&self, traced: bool) -> String {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::with_capacity(table.len());
        for (name, unit) in table {
            let value = match self.values.get(name) {
                Some(v) => v,
                None if traced || !self.correct() => 0.0,
                None => panic!("end-to-end metric `{name}` was not measured"),
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with all its digits (non-finite values read 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The nearest-rank `p`-th percentile of exact samples (0 for none).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank `p`-th percentile; a tail
/// percentile is reported only with at least ten beyond it.
pub fn beyond(samples: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * samples as f64).ceil() as usize;
    samples - rank.min(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_fills_unmeasured_layers_with_zero() {
        let mut outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        outcome.values.set("cache.probes", 12.0);
        let line = outcome.to_json(true);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"cache.probes\": {\"value\": 12.0, \"unit\": \"count\"}"));
        assert!(line.contains("\"serve.swaps\": {\"value\": 0.0, \"unit\": \"count\"}"));
    }
}
