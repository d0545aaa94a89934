//! Metric names, units, and the result line.

use brel_engine::Json;

use crate::stats::{median, percentile};

/// End-to-end metrics `(name, unit)`, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("total_cost", "cost"),
    ("peak_rss_mb", "MiB"),
    ("final_p50_ms", "ms"),
    ("first_incumbent_p50_ms", "ms"),
];

/// Per-layer metrics `(name, unit)`, printed with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bdd.cache_lookups", "count"),
    ("bdd.cache_hit_rate", "ratio"),
    ("bdd.cache_eviction_rate", "ratio"),
    ("bdd.unique_hit_rate", "ratio"),
    ("bdd.gc_collections", "count"),
    ("bdd.nodes_reclaimed", "count"),
    ("bdd.peak_live_nodes", "nodes"),
    ("bdd.gc_step_share", "ratio"),
    ("relation.rehydrate_us_p50", "us"),
    ("relation.rehydrate_share", "ratio"),
    ("brel.explored", "count"),
    ("brel.expansions_per_s", "1/s"),
    ("brel.step_us_p50", "us"),
    ("brel.step_us_p99", "us"),
    ("brel.frontier_peak", "count"),
    ("brel.pruned_share", "ratio"),
    ("brel.improvement_share", "ratio"),
    ("backend.brel_us_p50", "us"),
    ("backend.gyocro_us_p50", "us"),
    ("backend.quick_us_p50", "us"),
    ("backend.loser_time_share", "ratio"),
    ("backend.wins.brel", "count"),
    ("backend.wins.gyocro", "count"),
    ("backend.wins.quick", "count"),
    ("sop.cover_us_p50", "us"),
    ("engine.job_us_p50", "us"),
    ("engine.job_us_p99", "us"),
    ("engine.worker_utilization", "ratio"),
    ("engine.overhead_us_per_job", "us"),
    ("engine.subrel_hit_rate", "ratio"),
    ("engine.warm_reuses", "count"),
    ("engine.cold_builds", "count"),
    ("engine.quarantines", "count"),
    ("wide.expansions_per_worker_s", "1/s"),
    ("serve.admission_us_p50", "us"),
    ("serve.admission_us_p99", "us"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.queue_wait_us_p99", "us"),
    ("serve.solve_us_p50", "us"),
    ("serve.solve_us_p99", "us"),
    ("serve.generator_lag_us_p99", "us"),
    ("serve.backlog_growth", "jobs/step"),
    ("serve.shed", "count"),
    ("serve.cancelled", "count"),
    ("serve.degraded", "count"),
    ("serve.incumbents_per_job", "ratio"),
    ("serve.final_p50_ms", "ms"),
    ("serve.final_p99_ms", "ms"),
    ("serve.first_incumbent_p50_ms", "ms"),
    ("serve.first_incumbent_p99_ms", "ms"),
    ("serve.max_ok_rate", "jobs/s"),
    ("trace.overhead_share", "ratio"),
    ("trace.attributed_share", "ratio"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Declared name.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Declared unit.
    pub unit: &'static str,
    /// Base, sample count or caveat, printed beside the value.
    pub note: String,
}

/// The metrics of one run, in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics {
    list: Vec<Metric>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

impl Metrics {
    /// Records `name` (which must be declared) with a note.
    pub fn put(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.list.push(Metric {
            name,
            value,
            unit: unit_of(name),
            note: note.into(),
        });
    }

    /// Records percentile `pct` of `samples`. When the percentile helper
    /// refuses (fewer than ten samples beyond it) the value is the plain
    /// median (for p50) or the largest sample (above p50), and the note
    /// says so; with no samples at all the layer was not exercised and
    /// the value is 0.
    pub fn put_pct(&mut self, name: &'static str, samples: &[f64], pct: f64) {
        let n = samples.len();
        let (value, note) = match percentile(samples, pct) {
            Some(v) => (v, format!("n={n}")),
            None if n == 0 => (0.0, "n=0, not exercised by this workload".to_string()),
            None if pct <= 50.0 => (
                median(samples).expect("non-empty"),
                format!("n={n}, undersampled: plain median"),
            ),
            None => (
                samples.iter().copied().fold(f64::MIN, f64::max),
                format!("n={n}, undersampled: maximum"),
            ),
        };
        self.put(name, value, note);
    }

    /// Names recorded so far, in order.
    /// Adds every metric of `other`.
    pub fn append(&mut self, other: Metrics) {
        self.list.extend(other.list);
    }

    pub fn names(&self) -> Vec<&'static str> {
        self.list.iter().map(|m| m.name).collect()
    }

    /// The recorded metrics.
    pub fn list(&self) -> &[Metric] {
        &self.list
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> Json {
        Json::Object(
            self.list
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        Json::object(vec![
                            ("value", Json::Float(m.value)),
                            ("unit", Json::str(m.unit)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    Json::object(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(attempted.max(1))),
        ("failed", Json::UInt(failed)),
        ("metrics", metrics.to_json()),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        assert!(!valid_name("a b") && !valid_name("") && !valid_name("x/y"));
    }

    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json = brel_serve::json::parse(&text).expect("valid JSON");
        for (key, declared) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = json
                .get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect();
            let expected: Vec<(String, String)> = declared
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
    }

    #[test]
    fn undersampled_percentiles_fall_back_and_say_so() {
        let mut m = Metrics::default();
        m.put_pct("serve.final_p99_ms", &[1.0, 5.0, 3.0], 99.0);
        m.put_pct("final_p50_ms", &[1.0, 5.0, 3.0], 50.0);
        m.put_pct("serve.solve_us_p50", &[], 50.0);
        let values: Vec<f64> = m.list().iter().map(|x| x.value).collect();
        assert_eq!(values, vec![5.0, 3.0, 0.0]);
        assert!(m.list()[0].note.contains("undersampled"));
        let line = result_line(true, 3, 0, &m);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{"));
    }
}
