//! Per-layer aggregation of the engine's own counters and of traced
//! phase times over a workload's query runs.

use crate::report::Report;
use crate::stats;
use parjoin_dist::RemoteRun;
use parjoin_engine::RunResult;

/// Sums and samples over every run a workload made.
#[derive(Debug, Default)]
pub struct EngineAgg {
    runs: usize,
    sort_cpu_ms: f64,
    join_cpu_ms: f64,
    modeled_ratio: Vec<f64>,
    busy_skew: Vec<f64>,
    consumer_skew: Vec<f64>,
    tuples: f64,
    rounds: f64,
    peak: f64,
    sc_hits: u64,
    sc_misses: u64,
    tc_hits: u64,
    tc_misses: u64,
    sc_evictions: u64,
    tc_evictions: u64,
    steals: u64,
    morsels: u64,
    tx_bytes: u64,
    copied: u64,
    buf_reuses: u64,
    buf_allocs: u64,
    dist_tuples: f64,
    /// Traced runs: phase self times, and each run's measured elapsed.
    traced_phases: Vec<[f64; 4]>,
    traced_ms: Vec<f64>,
    /// Elapsed of untraced runs paired one to one with traced runs.
    paired_untraced_ms: f64,
    paired_traced_ms: f64,
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl EngineAgg {
    /// Absorbs the counters of one engine run that took `elapsed_ms` of
    /// real time.
    pub fn add_run(&mut self, r: &RunResult, elapsed_ms: f64) {
        self.runs += 1;
        self.sort_cpu_ms += ms(r.sort_cpu());
        self.join_cpu_ms += ms(r.join_cpu());
        if elapsed_ms > 0.0 {
            // `wall` is the engine's modeled straggler time (measured
            // compute plus a per-tuple network charge), never a clock
            // reading: it is only ever reported against a real one.
            self.modeled_ratio.push(ms(r.wall) / elapsed_ms);
        }
        // Busy time minus the modeled network charge is the measured part.
        let busy: Vec<f64> = r
            .per_worker_busy
            .iter()
            .zip(&r.per_worker_net)
            .map(|(b, n)| ms(b.saturating_sub(*n)))
            .collect();
        self.busy_skew.extend(stats::skew(&busy));
        let mut consumers = vec![0.0; r.per_worker_busy.len()];
        for s in &r.shuffles {
            for (w, &c) in s.per_consumer.iter().enumerate() {
                if let Some(slot) = consumers.get_mut(w) {
                    *slot += c as f64;
                }
            }
        }
        self.consumer_skew.extend(stats::skew(&consumers));
        self.tuples += r.tuples_shuffled as f64;
        self.rounds += f64::from(r.rounds);
        self.peak += r.peak_worker_tuples as f64;
        self.sc_hits += r.sort_cache_hits;
        self.sc_misses += r.sort_cache_misses;
        self.tc_hits += r.trie_cache_hits;
        self.tc_misses += r.trie_cache_misses;
        self.sc_evictions += r.sort_cache_evictions;
        self.tc_evictions += r.trie_cache_evictions;
        self.steals += r.probe_steals;
        self.morsels += r.probe_morsels;
        let m = |name: &str| r.metric(name).unwrap_or(0);
        self.tx_bytes += m("runtime.tx.bytes");
        self.copied += m("runtime.tx.copied_bytes");
        self.buf_reuses += m("runtime.buf.reuses");
        self.buf_allocs += m("runtime.buf.allocs");
    }

    /// Absorbs one remote run. Remote runs carry no engine `RunResult`
    /// and no spans, so only the mesh tallies count.
    pub fn add_remote(&mut self, run: &RemoteRun) {
        self.runs += 1;
        let sent: u64 = run.workers.iter().map(|w| w.tuples_sent).sum();
        self.tuples += sent as f64;
        self.dist_tuples += sent as f64;
        self.rounds += f64::from(run.workers.first().map_or(0, |w| w.rounds));
        self.tx_bytes += run.workers.iter().map(|w| w.tx_bytes).sum::<u64>();
    }

    /// Absorbs one traced run's phase split, with the measured elapsed of
    /// the traced run and of the untraced run of the same query that
    /// preceded it.
    pub fn add_traced(&mut self, phases: [f64; 4], traced_ms: f64, untraced_ms: f64) {
        self.traced_phases.push(phases);
        self.traced_ms.push(traced_ms);
        self.paired_traced_ms += traced_ms;
        self.paired_untraced_ms += untraced_ms;
    }

    /// Writes every `engine.*`, `runtime.*` and `dist.tuples_sent` metric.
    pub fn record(&self, report: &mut Report) {
        let n = self.runs.max(1) as f64;
        let runs = self.runs;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let med = |xs: &[f64]| stats::median(xs).unwrap_or(0.0);

        // Means, not medians, so the phases and the residual still add
        // up to the elapsed time.
        let t = self.traced_ms.len();
        let mean = |xs: &[f64]| stats::mean(xs).unwrap_or(0.0);
        let elapsed = mean(&self.traced_ms);
        let phases: Vec<f64> = (0..4)
            .map(|p| mean(&self.traced_phases.iter().map(|r| r[p]).collect::<Vec<_>>()))
            .collect();
        report.set("engine.elapsed_ms", elapsed, t);
        for (name, v) in crate::trace::PHASES.iter().zip(&phases) {
            report.set(&format!("engine.{name}_ms"), *v, t);
        }
        report.set(
            "engine.unattributed_ms",
            stats::unattributed(elapsed, &phases),
            t,
        );
        let overhead = if self.paired_untraced_ms > 0.0 {
            self.paired_traced_ms / self.paired_untraced_ms - 1.0
        } else {
            0.0
        };
        report.set("engine.trace_overhead_frac", overhead, t);

        report.set("engine.sort_cpu_ms", self.sort_cpu_ms / n, runs);
        report.set("engine.join_cpu_ms", self.join_cpu_ms / n, runs);
        report.set(
            "engine.modeled_wall_ratio",
            med(&self.modeled_ratio),
            self.modeled_ratio.len(),
        );
        report.set(
            "engine.busy_skew",
            med(&self.busy_skew),
            self.busy_skew.len(),
        );
        report.set(
            "engine.consumer_skew",
            med(&self.consumer_skew),
            self.consumer_skew.len(),
        );
        report.set("engine.tuples_shuffled", self.tuples / n, runs);
        report.set("engine.rounds", self.rounds / n, runs);
        report.set("engine.peak_worker_tuples", self.peak / n, runs);
        report.set(
            "engine.sortcache.hit_ratio",
            ratio(self.sc_hits, self.sc_hits + self.sc_misses),
            runs,
        );
        report.set(
            "engine.triecache.hit_ratio",
            ratio(self.tc_hits, self.tc_hits + self.tc_misses),
            runs,
        );
        report.set(
            "engine.sortcache.evictions",
            self.sc_evictions as f64 / n,
            runs,
        );
        report.set(
            "engine.triecache.evictions",
            self.tc_evictions as f64 / n,
            runs,
        );
        report.set(
            "engine.probe.steal_ratio",
            ratio(self.steals, self.morsels),
            runs,
        );
        let tuples = self.tuples.round() as u64;
        report.set(
            "runtime.tx.bytes_per_tuple",
            ratio(self.tx_bytes, tuples),
            runs,
        );
        report.set("runtime.tx.copied_bytes", self.copied as f64 / n, runs);
        report.set(
            "runtime.buf.reuse_ratio",
            ratio(self.buf_reuses, self.buf_reuses + self.buf_allocs),
            runs,
        );
        report.set("dist.tuples_sent", self.dist_tuples / n, runs);
    }
}
