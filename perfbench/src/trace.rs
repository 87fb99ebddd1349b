//! Reads the chrome trace the engine writes when `PlanOptions::trace_path`
//! is set and splits a run into the engine's phases by self time.

use parjoin_obs::json::{self, Json};
use std::collections::BTreeMap;

/// The engine spans the benchmark attributes time to, in report order.
pub const PHASES: [&str; 4] = ["shuffle", "prepare", "probe", "output"];

/// One complete (`"ph":"X"`) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name.
    pub name: String,
    /// Trace lane (worker rank, or the coordinator lane).
    pub lane: u64,
    /// Start, in microseconds from the trace origin.
    pub ts_us: f64,
    /// Duration, in microseconds.
    pub dur_us: f64,
}

/// Parses a chrome trace into its complete spans. The document is first
/// validated with the engine's own `summarize_chrome_trace`.
pub fn spans(text: &str) -> Result<Vec<Span>, String> {
    json::summarize_chrome_trace(text)?;
    let Json::Arr(events) = json::parse(text)? else {
        return Err("chrome trace is not an array".into());
    };
    let mut out = Vec::new();
    for ev in &events {
        if ev.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let field = |k: &str| {
            ev.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("span without numeric `{k}`"))
        };
        out.push(Span {
            name: ev
                .get("name")
                .and_then(Json::as_str)
                .ok_or("span without name")?
                .to_string(),
            lane: field("tid")? as u64,
            ts_us: field("ts")?,
            dur_us: field("dur")?,
        });
    }
    Ok(out)
}

/// Self time of every span: its duration minus the durations of the
/// spans directly nested in it on the same lane.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut selfs: Vec<f64> = spans.iter().map(|s| s.dur_us).collect();
    let mut by_lane: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        by_lane.entry(s.lane).or_default().push(i);
    }
    for idx in by_lane.values_mut() {
        // Parents sort before the children they contain.
        idx.sort_by(|&a, &b| {
            spans[a]
                .ts_us
                .total_cmp(&spans[b].ts_us)
                .then(spans[b].dur_us.total_cmp(&spans[a].dur_us))
        });
        let mut stack: Vec<usize> = Vec::new();
        for &i in idx.iter() {
            let start = spans[i].ts_us;
            while let Some(&top) = stack.last() {
                if spans[top].ts_us + spans[top].dur_us <= start {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&parent) = stack.last() {
                selfs[parent] -= spans[i].dur_us;
            }
            stack.push(i);
        }
    }
    selfs
}

/// Per-phase time of one run in milliseconds, aligned with [`PHASES`]:
/// each lane's self time summed per phase, then the slowest lane per
/// phase (the lane the run waited for).
pub fn phase_ms(spans: &[Span]) -> [f64; 4] {
    let selfs = self_times(spans);
    let mut per_lane: BTreeMap<(usize, u64), f64> = BTreeMap::new();
    for (s, &t) in spans.iter().zip(&selfs) {
        if let Some(p) = PHASES.iter().position(|&n| n == s.name) {
            *per_lane.entry((p, s.lane)).or_insert(0.0) += t;
        }
    }
    let mut out = [0.0f64; 4];
    for ((p, _), t) in per_lane {
        out[p] = out[p].max(t / 1000.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, lane: u64, ts: f64, dur: f64) -> Span {
        Span {
            name: name.into(),
            lane,
            ts_us: ts,
            dur_us: dur,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let s = vec![
            span("local-join", 0, 0.0, 100.0),
            span("prepare", 0, 10.0, 30.0),
            span("inner", 0, 15.0, 5.0),
            span("probe", 0, 50.0, 40.0),
            span("local-join", 1, 0.0, 80.0),
        ];
        assert_eq!(self_times(&s), vec![30.0, 25.0, 5.0, 40.0, 80.0]);
    }

    #[test]
    fn phases_take_the_slowest_lane() {
        let s = vec![
            span("shuffle", 0, 0.0, 2000.0),
            span("shuffle", 1, 0.0, 3000.0),
            span("local-join", 0, 3000.0, 5000.0),
            span("prepare", 0, 3000.0, 1000.0),
            span("probe", 0, 4000.0, 3000.0),
            span("probe", 1, 3000.0, 1000.0),
            span("probe", 1, 5000.0, 1500.0),
            span("output", 9, 8000.0, 500.0),
        ];
        assert_eq!(phase_ms(&s), [3.0, 1.0, 3.0, 0.5]);
    }

    #[test]
    fn parses_engine_chrome_trace() {
        let text = r#"[
{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"worker 0"}},
{"name":"probe","cat":"engine","ph":"X","ts":1.500,"dur":2.250,"pid":1,"tid":0}
]"#;
        assert_eq!(spans(text).unwrap(), vec![span("probe", 0, 1.5, 2.25)]);
        assert!(spans("[{\"ph\":\"X\"}]").is_err());
    }
}
