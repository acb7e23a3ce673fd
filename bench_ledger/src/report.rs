//! Metric names and units, and the one-line JSON result.
//!
//! The tables here and `BENCHMARK.json` at the repository root list the same
//! names in the same order; a unit test holds them together.

use std::fmt::Write;

/// End-to-end metrics: what a caller of the system sees. Printed by an
/// untraced run, on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, `<module>.<what>`. Printed by a traced run, on every
/// workload; a layer the workload does not pass through reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kernel.gemm_gflops", "GFLOP/s"),
    ("kernel.gemm_us_per_batch", "us"),
    ("kernel.gemm_b64_us_per_batch", "us"),
    ("kernel.gather_gbs", "GB/s"),
    ("kernel.gather_us_per_batch", "us"),
    ("kernel.gather_uniform_gbs", "GB/s"),
    ("embedding.reduce_us_per_batch", "us"),
    ("embedding.tax_share", "ratio"),
    ("mlp.bottom_us_per_batch", "us"),
    ("mlp.top_us_per_batch", "us"),
    ("mlp.tax_share", "ratio"),
    ("interaction.us_per_batch", "us"),
    ("model.forward_us_per_batch", "us"),
    ("model.tax_share", "ratio"),
    ("sparse.gather_reduce_us_per_batch", "us"),
    ("sparse.tax_share", "ratio"),
    ("sparse.share_of_runtime", "ratio"),
    ("sparse.hot_row_hit_rate", "ratio"),
    ("dense.forward_us_per_batch", "us"),
    ("dense.tax_share", "ratio"),
    ("dense.share_of_runtime", "ratio"),
    ("runtime.infer_us_per_batch", "us"),
    ("runtime.tax_share", "ratio"),
    ("runtime.vs_model_ratio", "ratio"),
    ("runtime.call_p99_ms", "ms"),
    ("runtime.output_checksum", "count"),
    ("accelerator.sim_sparse_us_per_batch", "us"),
    ("accelerator.sim_dense_us_per_batch", "us"),
    ("accelerator.sim_speedup_vs_cpu", "ratio"),
    ("accelerator.host_us_per_trace", "us"),
    ("stage.run_batch_us", "us"),
    ("stage.tax_share", "ratio"),
    ("queue.push_ns", "ns"),
    ("queue.pop_batch_ns_per_request", "ns"),
    ("harness.mean_batch", "count"),
    ("harness.batches", "count"),
    ("harness.completed", "count"),
    ("harness.shed", "count"),
    ("harness.failed", "count"),
    ("harness.min_latency_ms", "ms"),
    ("harness.paced_p50_ms", "ms"),
    ("harness.paced_p99_ms", "ms"),
    ("harness.drain_vs_stage_ratio", "ratio"),
    ("supervisor.armed_drain_per_s", "1/s"),
    ("supervisor.armed_tax_share", "ratio"),
    ("workload.gen_requests_per_s", "1/s"),
    ("host.peak_gflops", "GFLOP/s"),
    ("host.stream_read_gbs", "GB/s"),
    ("host.nproc", "count"),
    ("trace.overhead_share", "ratio"),
];

/// Measured values, filled by name and emitted in table order.
#[derive(Debug)]
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl Metrics {
    /// An empty value set over `table`.
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Metrics {
            table,
            values: vec![None; table.len()],
        }
    }

    /// Sets the metric called `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name the table does not list or a value that is not
    /// finite: both are bugs in the benchmark, not measurements.
    pub fn set(&mut self, name: &str, value: f64) {
        let index = self
            .table
            .iter()
            .position(|(known, _)| *known == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values[index] = Some(value);
    }

    /// Names that were never [`Metrics::set`].
    pub fn missing(&self) -> Vec<&'static str> {
        self.table
            .iter()
            .zip(&self.values)
            .filter(|(_, value)| value.is_none())
            .map(|((name, _), _)| *name)
            .collect()
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for ((name, unit), value) in self.table.iter().zip(&self.values) {
            let Some(value) = value else { continue };
            if out.len() > 1 {
                out.push_str(", ");
            }
            // `{}` on an f64 prints the shortest text that reads back to the
            // same value: every digit measured, none invented.
            write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push('}');
        out
    }
}

/// The result of one run: the last line of standard output.
#[derive(Debug)]
pub struct RunResult {
    /// Every output the run checked was right.
    pub correct: bool,
    /// Operations timed: `infer_batch_into` calls, or queries generated.
    pub attempted: u64,
    /// Operations shed, failed, missing or answered wrongly.
    pub failed: u64,
    /// The metrics this kind of run reports.
    pub metrics: Metrics,
}

impl RunResult {
    /// The line the driver parses.
    pub fn json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics.json()
        )
    }
}

/// Reads back the value of metric `name` from a line [`RunResult::json`]
/// wrote — all `--repeat` needs from its children.
pub fn metric_in(line: &str, name: &str) -> Option<f64> {
    let after = line.split(&format!("\"{name}\": {{\"value\": ")).nth(1)?;
    after.split(',').next()?.trim().parse().ok()
}

/// Escapes a string for a JSON string literal.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => write!(out, "\\u{:04x}", c as u32).expect("String write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_is_wellformed(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        let rest = name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'));
        first && rest && name.len() <= 64
    }

    fn unit_is_wellformed(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn every_metric_has_a_wellformed_unique_name_and_a_unit() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_is_wellformed(name), "{name}");
            assert!(unit_is_wellformed(unit), "{name}: {unit}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
    }

    #[test]
    fn result_line_carries_every_set_metric_with_its_unit() {
        let mut metrics = Metrics::new(END_TO_END);
        assert_eq!(metrics.missing().len(), END_TO_END.len());
        metrics.set("setup_s", 0.0812345678);
        metrics.set("throughput_per_s", 123456.5);
        assert_eq!(metrics.missing(), ["peak_rss_mb"]);
        let line = RunResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics,
        }
        .json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"throughput_per_s\": {\"value\": 123456.5, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.0812345678, \"unit\": \"s\"}}}"
        );
        assert!(!line.contains('\n'));
        assert_eq!(metric_in(&line, "setup_s"), Some(0.0812345678));
        assert_eq!(metric_in(&line, "throughput_per_s"), Some(123456.5));
        assert_eq!(metric_in(&line, "peak_rss_mb"), None);
    }

    #[test]
    #[should_panic(expected = "not in the table")]
    fn unknown_metric_names_are_refused() {
        Metrics::new(END_TO_END).set("latency", 1.0);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    /// The names and units in `BENCHMARK.json`, in file order.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let body = text
            .split(&format!("\"{section}\": ["))
            .nth(1)
            .expect(section);
        let body = body.split(']').next().expect("section closes");
        let field = |object: &str, key: &str| {
            object
                .split(&format!("\"{key}\": \""))
                .nth(1)
                .and_then(|rest| rest.split('"').next())
                .map(str::to_string)
        };
        body.split('{')
            .skip(1)
            .map(|object| {
                let name = field(object, "name").expect("name");
                (name, field(object, "unit").unwrap_or_default())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let pairs = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), pairs(END_TO_END));
        assert_eq!(declared("per_layer"), pairs(PER_LAYER));
        let workloads: Vec<String> = declared("workloads").into_iter().map(|w| w.0).collect();
        let known: Vec<&str> = crate::workload::ALL.iter().map(|w| w.name).collect();
        assert_eq!(workloads, known);
    }
}
