//! The metric catalog (kept in step with `BENCHMARK.json`) and the result
//! every run prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by untraced runs: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("query_gm_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("goodput_qps", "1/s"),
    ("max_rate_qps", "1/s"),
    ("answered_frac", "frac"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics, printed by traced runs: `(name, unit)`. Counts and
/// times are per query run unless the name says otherwise.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("datagen.gen_ms", "ms"),
    ("query.parse_us", "us"),
    ("analyze.preflight_us", "us"),
    ("analyze.certify_us", "us"),
    ("core.hc_shares_us", "us"),
    ("core.tj_order_us", "us"),
    ("engine.elapsed_ms", "ms"),
    ("engine.shuffle_ms", "ms"),
    ("engine.prepare_ms", "ms"),
    ("engine.probe_ms", "ms"),
    ("engine.output_ms", "ms"),
    ("engine.unattributed_ms", "ms"),
    ("engine.trace_overhead_frac", "frac"),
    ("engine.sort_cpu_ms", "ms"),
    ("engine.join_cpu_ms", "ms"),
    ("engine.modeled_wall_ratio", "ratio"),
    ("engine.busy_skew", "ratio"),
    ("engine.consumer_skew", "ratio"),
    ("engine.tuples_shuffled", "count"),
    ("engine.rounds", "count"),
    ("engine.peak_worker_tuples", "count"),
    ("engine.sortcache.hit_ratio", "frac"),
    ("engine.triecache.hit_ratio", "frac"),
    ("engine.sortcache.evictions", "count"),
    ("engine.triecache.evictions", "count"),
    ("engine.probe.steal_ratio", "frac"),
    ("engine.advise_us", "us"),
    ("runtime.tx.bytes_per_tuple", "B"),
    ("runtime.tx.copied_bytes", "B"),
    ("runtime.buf.reuse_ratio", "frac"),
    ("serve.submit_us", "us"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.queue_wait_tail_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("serve.load_ms", "ms"),
    ("serve.shed_frac", "frac"),
    ("bench.gen_lag_ms", "ms"),
    ("dist.connect_ms", "ms"),
    ("dist.plan_us", "us"),
    ("dist.fragment_bytes", "B"),
    ("dist.tuples_sent", "count"),
    ("bench.peak_rss_mb", "MB"),
];

/// The outcome of one benchmark invocation.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (query runs, served submissions).
    pub attempted: u64,
    /// Attempts that failed: engine errors, wrong answers, sheds,
    /// timeouts.
    pub failed: u64,
    /// Wrong answers, each described; any entry fails the command.
    pub mismatches: Vec<String>,
    values: BTreeMap<String, (f64, usize)>,
}

impl Report {
    /// Records `name = value` measured over `samples` samples.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        self.values.insert(name.to_string(), (value, samples));
    }

    /// Records a wrong answer.
    pub fn mismatch(&mut self, what: String) {
        eprintln!("perfbench: WRONG ANSWER: {what}");
        self.failed += 1;
        self.mismatches.push(what);
    }

    /// Prints one human-readable line per catalog metric and returns the
    /// final JSON line, or the names of catalog metrics that were never
    /// recorded or are not finite.
    pub fn render(&self, catalog: &[(&str, &str)]) -> Result<String, String> {
        let mut missing = Vec::new();
        let mut metrics = String::new();
        for (i, &(name, unit)) in catalog.iter().enumerate() {
            match self.values.get(name) {
                Some(&(v, n)) if v.is_finite() => {
                    println!("metric {name} = {v} {unit} (samples {n})");
                    let sep = if i == 0 { "" } else { ", " };
                    let _ = write!(
                        metrics,
                        "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
                    );
                }
                _ => missing.push(name),
            }
        }
        if !missing.is_empty() {
            return Err(format!("metrics not measured: {}", missing.join(", ")));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.mismatches.is_empty(),
            self.attempted.max(1),
            self.failed
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_the_workloads_and_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let doc = parjoin_obs::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(parjoin_obs::json::Json::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        let s = |k| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                        (s("name"), s("unit"))
                    })
                    .collect(),
                _ => panic!("BENCHMARK.json has no `{key}` list"),
            }
        };
        let want = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), want(&END_TO_END));
        assert_eq!(names("per_layer"), want(&PER_LAYER));
        let workloads: Vec<&str> = match doc.get("workloads") {
            Some(parjoin_obs::json::Json::Arr(items)) => items
                .iter()
                .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap())
                .collect(),
            _ => panic!("BENCHMARK.json has no `workloads` list"),
        };
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn render_requires_every_metric() {
        let mut r = Report::default();
        r.set("a", 1.5, 3);
        assert!(r.render(&[("a", "ms"), ("b", "s")]).is_err());
        r.set("b", 2.0, 1);
        let line = r.render(&[("a", "ms"), ("b", "s")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
        assert!(parjoin_obs::json::parse(&line).is_ok());
    }
}
