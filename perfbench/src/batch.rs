//! The batch workloads: a fixed query list run back to back (a closed
//! loop with one client) until the run's time is up.
//!
//! * `hc-tj-cold` — Q1–Q8 under HC_TJ on the Local transport, sort and
//!   trie caches cleared before every query.
//! * `rs-hj-stream` — Q1–Q3, Q5–Q8 under RS_HJ on the InProcess
//!   streaming transport (Q4's regular-shuffle plan explodes, Fig. 9).
//! * `dist-mesh` — the `hc-tj-cold` list and cache policy, run through
//!   one persistent 4-worker loopback `RemoteCluster`.

use crate::agg::EngineAgg;
use crate::report::Report;
use crate::stats::TAIL_BEYOND;
use crate::{
    derive_seed, layers, peak_heap_mb, peak_rss_mb, reset_heap_peak, stats, trace, Args, Digest,
    WORKERS,
};
use parjoin_bench::experiments::six_configs::scale_for;
use parjoin_common::Database;
use parjoin_datagen::workloads::{self, DatasetKind, QuerySpec, Scale};
use parjoin_dist::{DistError, RemoteCluster, WorkerServer};
use parjoin_engine::{
    run_config, Cluster, JoinAlg, PlanOptions, ShuffleAlg, SortCache, TransportKind, TrieCache,
    TrieLayout,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Setup repetitions; `setup_s` reports their median.
const SETUP_REPS: usize = 3;
/// Datasets per run, each from its own seed derived from the run's seed.
/// Query times depend on the generated data (Q4's output varies by about
/// ±8% between seeds); pooling a few datasets per run keeps the figures
/// of runs with different seeds comparable.
const DATASETS: u64 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    HcTjCold,
    RsHjStream,
    DistMesh,
}

struct Query {
    spec: QuerySpec,
    db: Arc<Database>,
    /// Position of the query in the workload's list.
    slot: usize,
    /// The warm-up run's answer, which every later run must reproduce
    /// and the Local reference must match.
    expected: Option<Digest>,
}

/// A persistent loopback mesh of worker servers on threads of this
/// process.
struct Mesh {
    remote: RemoteCluster,
    workers: Vec<JoinHandle<Result<(), DistError>>>,
}

impl Mesh {
    fn start() -> Result<(Mesh, f64), String> {
        let mut addrs = Vec::with_capacity(WORKERS);
        let mut workers = Vec::with_capacity(WORKERS);
        for _ in 0..WORKERS {
            let server = WorkerServer::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
            addrs.push(
                server
                    .control_addr()
                    .map_err(|e| format!("control addr: {e}"))?
                    .to_string(),
            );
            workers.push(std::thread::spawn(move || server.serve()));
        }
        let t = Instant::now();
        let mut remote = RemoteCluster::connect(&addrs, Duration::from_secs(20))
            .map_err(|e| format!("mesh connect: {e}"))?;
        let connect_ms = t.elapsed().as_secs_f64() * 1e3;
        remote.reply_timeout = Some(Duration::from_secs(120));
        Ok((Mesh { remote, workers }, connect_ms))
    }

    fn stop(self) -> Result<(), String> {
        self.remote
            .shutdown()
            .map_err(|e| format!("mesh shutdown: {e}"))?;
        for w in self.workers {
            w.join()
                .map_err(|_| "worker thread panicked".to_string())?
                .map_err(|e| format!("worker: {e}"))?;
        }
        Ok(())
    }
}

fn kind_of(name: &str) -> Option<Kind> {
    match name {
        "hc-tj-cold" => Some(Kind::HcTjCold),
        "rs-hj-stream" => Some(Kind::RsHjStream),
        "dist-mesh" => Some(Kind::DistMesh),
        _ => None,
    }
}

/// True for the workload names this module runs.
pub fn handles(workload: &str) -> bool {
    kind_of(workload).is_some()
}

fn algs(kind: Kind) -> (ShuffleAlg, JoinAlg) {
    match kind {
        Kind::RsHjStream => (ShuffleAlg::Regular, JoinAlg::Hash),
        Kind::HcTjCold | Kind::DistMesh => (ShuffleAlg::HyperCube, JoinAlg::Tributary),
    }
}

fn cluster(kind: Kind) -> Cluster {
    match kind {
        Kind::RsHjStream => Cluster::new(WORKERS).with_transport(TransportKind::InProcess),
        Kind::HcTjCold | Kind::DistMesh => Cluster::new(WORKERS),
    }
}

fn specs(kind: Kind) -> Vec<QuerySpec> {
    workloads::all_queries()
        .into_iter()
        .filter(|s| !(kind == Kind::RsHjStream && s.name == "Q4"))
        .collect()
}

fn run_opts() -> PlanOptions {
    PlanOptions {
        collect_output: true,
        ..PlanOptions::default()
    }
}

/// The scale queries run at before `scale_for`'s per-query overrides.
/// RS_HJ's Q8 intermediate at the full small Freebase slice takes 1.4 GB
/// and 1.7 s, and its size swings widely between seeds, so the streaming
/// workload runs a quarter of that slice.
fn base_scale(kind: Kind) -> Scale {
    match kind {
        Kind::RsHjStream => Scale {
            freebase_performances: 5_000,
            ..Scale::small()
        },
        Kind::HcTjCold | Kind::DistMesh => Scale::small(),
    }
}

/// Generates every dataset the query list needs, one per (dataset,
/// scale), each from a seed derived from `seed`.
fn generate(kind: Kind, specs: &[QuerySpec], seed: u64) -> Vec<Arc<Database>> {
    let mut made: BTreeMap<(u8, u64, usize, usize), Arc<Database>> = BTreeMap::new();
    specs
        .iter()
        .map(|spec| {
            let s = scale_for(spec.name, base_scale(kind));
            let kind = match spec.dataset {
                DatasetKind::Twitter => 0,
                DatasetKind::Freebase => 1,
            };
            let key = (kind, s.twitter_nodes, s.twitter_m, s.freebase_performances);
            Arc::clone(made.entry(key).or_insert_with(|| {
                Arc::new(s.db_for(spec.dataset, derive_seed(seed, u64::from(kind))))
            }))
        })
        .collect()
}

/// The Local reference answer. HC_TJ references run the row-layout,
/// sequential prepare and probe path, so the columnar, parallel and
/// remote paths are each checked against a different implementation.
fn reference(kind: Kind, q: &Query) -> Result<Digest, String> {
    let (s, j) = algs(kind);
    let opts = match kind {
        Kind::RsHjStream => run_opts(),
        Kind::HcTjCold | Kind::DistMesh => PlanOptions {
            sequential_prepare: true,
            sequential_probe: true,
            trie_layout: TrieLayout::Row,
            ..run_opts()
        },
    };
    let r = run_config(&q.spec.query, &q.db, &Cluster::new(WORKERS), s, j, &opts)
        .map_err(|e| format!("{}: reference run failed: {e}", q.spec.name))?;
    let out = r
        .output
        .ok_or_else(|| format!("{}: reference collected no output", q.spec.name))?;
    Ok(Digest::of(&out, r.output_tuples))
}

/// One query run: its real elapsed time, its answer, and the failure if
/// any.
struct RunOutcome {
    elapsed_ms: f64,
    answer: Option<Digest>,
    error: Option<String>,
    wrong: Option<String>,
}

/// Runs `q` once, timed; digests and checks its answer outside the timed
/// part.
fn run_one(
    kind: Kind,
    q: &Query,
    mesh: Option<&mut Mesh>,
    trace_path: Option<&Path>,
    agg: Option<&mut EngineAgg>,
) -> RunOutcome {
    let (s, j) = algs(kind);
    let cluster = cluster(kind);
    if kind != Kind::RsHjStream {
        SortCache::global().clear();
        TrieCache::global().clear();
    }
    let opts = PlanOptions {
        trace_path: trace_path.map(Path::to_path_buf),
        ..run_opts()
    };
    let mut o = RunOutcome {
        elapsed_ms: 0.0,
        answer: None,
        error: None,
        wrong: None,
    };
    let name = q.spec.name;
    let t = Instant::now();
    if let Some(mesh) = mesh {
        let run = mesh.remote.run(&q.spec.query, &q.db, &cluster, s, j, &opts);
        o.elapsed_ms = t.elapsed().as_secs_f64() * 1e3;
        match run {
            Ok(run) => {
                o.answer = Some(Digest::of(&run.output, run.output_tuples));
                o.wrong = run.reconcile().err().map(|e| format!("{name}: {e}"));
                if let Some(agg) = agg {
                    agg.add_remote(&run);
                }
            }
            Err(e) => o.error = Some(format!("{name}: remote run: {e}")),
        }
    } else {
        let r = run_config(&q.spec.query, &q.db, &cluster, s, j, &opts);
        o.elapsed_ms = t.elapsed().as_secs_f64() * 1e3;
        match r {
            Ok(r) => {
                o.answer = r
                    .output
                    .as_ref()
                    .map(|out| Digest::of(out, r.output_tuples));
                if kind == Kind::RsHjStream {
                    // Every byte and batch a streaming shuffle sent was
                    // received.
                    for (tx, rx) in [
                        ("runtime.tx.bytes", "runtime.rx.bytes"),
                        ("runtime.tx.batches", "runtime.rx.batches"),
                    ] {
                        if r.metric(tx) != r.metric(rx) {
                            o.wrong = Some(format!(
                                "{name}: {tx} {:?} != {rx} {:?}",
                                r.metric(tx),
                                r.metric(rx)
                            ));
                        }
                    }
                }
                if let Some(agg) = agg {
                    agg.add_run(&r, o.elapsed_ms);
                }
            }
            Err(e) => o.error = Some(format!("{name}: run failed: {e}")),
        }
    }
    o
}

/// Marks `o` wrong when it did not reproduce `q`'s expected answer.
fn judge(q: &Query, mut o: RunOutcome) -> RunOutcome {
    if o.error.is_none() && o.wrong.is_none() && (o.answer.is_none() || o.answer != q.expected) {
        o.wrong = Some(match (o.answer, q.expected) {
            (Some(got), Some(want)) => format!("{}: answered {got}, expected {want}", q.spec.name),
            _ => format!("{}: no answer collected", q.spec.name),
        });
    }
    o
}

/// Books one run's outcome on the report; true when it answered
/// correctly.
fn book(report: &mut Report, o: &RunOutcome) -> bool {
    report.attempted += 1;
    if let Some(w) = &o.wrong {
        report.mismatch(w.clone());
        false
    } else if let Some(e) = &o.error {
        eprintln!("perfbench: FAILED: {e}");
        report.failed += 1;
        false
    } else {
        true
    }
}

/// Runs one batch workload into `report`.
pub fn run(args: &Args, report: &mut Report, trace_file: &Path) -> Result<(), String> {
    let kind = kind_of(&args.workload).ok_or("not a batch workload")?;
    let specs = specs(kind);

    // Set-up: data generation (and, for dist-mesh, the mesh handshake),
    // repeated; the last repetition's data and mesh are kept.
    let mut gen_ms = Vec::new();
    let mut setup_s = Vec::new();
    let mut connect_ms = Vec::new();
    let mut dbs = Vec::new();
    let mut mesh: Option<Mesh> = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        dbs = (0..DATASETS)
            .map(|d| generate(kind, &specs, derive_seed(args.seed, 1000 + d)))
            .collect();
        gen_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if kind == Kind::DistMesh {
            if let Some(old) = mesh.take() {
                old.stop()?;
            }
            let (m, ms) = Mesh::start()?;
            connect_ms.push(ms);
            mesh = Some(m);
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut queries: Vec<Query> = dbs
        .into_iter()
        .flat_map(|set| {
            specs
                .iter()
                .zip(set)
                .enumerate()
                .map(|(slot, (spec, db))| Query {
                    spec: spec.clone(),
                    db,
                    slot,
                    expected: None,
                })
                .collect::<Vec<_>>()
        })
        .collect();

    // Warm-up: one pass over the list; its answers become the expected
    // ones, checked against the Local reference after the measured loop
    // (so the reference runs do not set the peak memory reported).
    let t = Instant::now();
    for q in &mut queries {
        let o = run_one(kind, q, mesh.as_mut(), None, None);
        q.expected = o.answer;
        book(report, &judge(q, o));
    }
    let warm_s = t.elapsed().as_secs_f64();
    let setup = stats::median(&setup_s).unwrap_or(0.0) + warm_s;
    report.set("setup_s", setup, SETUP_REPS);
    report.set(
        "datagen.gen_ms",
        stats::median(&gen_ms).unwrap_or(0.0),
        SETUP_REPS,
    );
    report.set(
        "dist.connect_ms",
        stats::median(&connect_ms).unwrap_or(0.0),
        connect_ms.len(),
    );
    println!(
        "setup: {:.3} s (median of {SETUP_REPS} set-ups {:.3} s + warm-up pass {:.3} s)",
        setup,
        stats::median(&setup_s).unwrap_or(0.0),
        warm_s
    );

    // The measured loop, in whole passes over the list until time is up.
    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
    let mut heap: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
    let mut agg = EngineAgg::default();
    let mut good = 0u64;
    let attempted_before = report.attempted;
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(args.seconds);
    while Instant::now() < deadline {
        for q in &queries {
            reset_heap_peak();
            let o = judge(
                q,
                run_one(kind, q, mesh.as_mut(), None, args.trace.then_some(&mut agg)),
            );
            if book(report, &o) {
                good += 1;
                lat[q.slot].push(o.elapsed_ms);
                heap[q.slot].push(peak_heap_mb());
            }
            if args.trace && kind != Kind::DistMesh {
                // The same query again with the engine's trace on.
                let traced = judge(q, run_one(kind, q, None, Some(trace_file), None));
                if book(report, &traced) {
                    let text = std::fs::read_to_string(trace_file)
                        .map_err(|e| format!("reading trace: {e}"))?;
                    let spans = trace::spans(&text)?;
                    agg.add_traced(trace::phase_ms(&spans), traced.elapsed_ms, o.elapsed_ms);
                }
            } else if args.trace {
                // Remote runs carry no spans: all of their time is
                // unattributed.
                agg.add_traced([0.0; 4], o.elapsed_ms, o.elapsed_ms);
            }
        }
    }
    let span_s = t0.elapsed().as_secs_f64();
    report.set("bench.peak_rss_mb", peak_rss_mb(), 1);
    if let Some(mesh) = mesh {
        mesh.stop()?;
    }

    // The Local reference for every query the workload ran.
    for q in &queries {
        let want = reference(kind, q)?;
        if q.expected != Some(want) {
            report.mismatch(format!(
                "{}: not byte-identical to the Local reference ({want})",
                q.spec.name
            ));
        }
    }

    if args.trace {
        agg.record(report);
        let cl = cluster(kind);
        let (s, j) = algs(kind);
        let mut times = Vec::with_capacity(specs.len());
        for q in &queries[..specs.len()] {
            times.push(layers::time_layers(&q.spec.query, &q.db, &cl, s, j)?);
        }
        layers::record(report, &times);
        crate::serve::record_idle(report);
        return Ok(());
    }

    let mut medians = Vec::with_capacity(specs.len());
    for (spec, l) in specs.iter().zip(&lat) {
        let m = stats::median(l).ok_or_else(|| format!("{}: no successful run", spec.name))?;
        let [q1, _, q3] = stats::quartiles(l).unwrap_or([m; 3]);
        println!(
            "query {} median {m:.3} ms (quartiles {q1:.3}..{q3:.3}) over {} runs",
            spec.name,
            l.len()
        );
        medians.push(m);
    }
    let pooled: Vec<f64> = lat.iter().flatten().copied().collect();
    // Memory like latency: the heap's high-water mark while a query runs
    // (resident data included), median per query, geometric mean over
    // queries. The single largest peak is Q4's, whose output grows with
    // the square of the largest cast and swings by a third between seeds.
    let heap_medians: Vec<f64> = heap.iter().filter_map(|h| stats::median(h)).collect();
    report.set(
        "peak_heap_mb",
        stats::geomean(&heap_medians).ok_or("no heap peaks")?,
        pooled.len(),
    );
    let gm = stats::geomean(&medians).ok_or("no query medians")?;
    report.set("query_gm_ms", gm, pooled.len());
    let tail = stats::tail(&pooled).ok_or("fewer than 11 runs: no tail")?;
    println!(
        "latency tail: p{:.2} = {:.3} ms ({TAIL_BEYOND} of {} samples beyond)",
        tail.percentile, tail.value, tail.samples
    );
    report.set("latency_tail_ms", tail.value, tail.samples);
    // The loop ran whole passes, so every query weighs the same here.
    let goodput = good as f64 / span_s;
    report.set("goodput_qps", goodput, pooled.len());
    // One client waiting on every answer: the highest rate this loop
    // sustains is its goodput.
    report.set("max_rate_qps", goodput, pooled.len());
    report.set(
        "answered_frac",
        good as f64 / (report.attempted - attempted_before).max(1) as f64,
        (report.attempted - attempted_before) as usize,
    );
    Ok(())
}
