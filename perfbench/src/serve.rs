//! The `serve-reload` workload: a resident-catalog `Server` answering an
//! open-loop Q1–Q8 mix at a ladder of fixed arrival rates while the
//! `Twitter` relation is reloaded with fresh content at a fixed interval,
//! so cached sorted views and tries go stale (the Freebase relations are
//! swapped too, less often, among a few slices).
//!
//! Two load-generator threads: this one submits on schedule (and
//! reloads), a collector waits on tickets and checks every answer against
//! the `batch_run` answer for the catalog version the query bound to.
//! Latency is timed from each query's due time.

use crate::agg::EngineAgg;
use crate::report::Report;
use crate::stats::TAIL_BEYOND;
use crate::{
    derive_seed, layers, peak_heap_mb, peak_rss_mb, stats, trace, Args, Digest, SplitMix, WORKERS,
};
use parjoin_common::{Database, Relation};
use parjoin_core::queries;
use parjoin_datagen::graph::twitter_graph;
use parjoin_datagen::workloads::Scale;
use parjoin_engine::{advise, run_config, PlanOptions, SortCache, TrieCache};
use parjoin_query::{parser, ConjunctiveQuery};
use parjoin_serve::{batch_run, ServeError, Server, ServerConfig, SessionConfig, Ticket};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Catalog scale: the Freebase slice is sized so Q4 (the heaviest query,
/// whose output grows with the square of the largest cast) costs about
/// twice Q5, the next heaviest, instead of dominating the latency tail.
const SCALE: Scale = Scale {
    twitter_nodes: 1_500,
    twitter_m: 4,
    freebase_performances: 700,
};
/// The rate ladder: offered arrival rate (queries/s) and its share of the
/// run, ascending. The two nominal rates sit well under capacity (about
/// 60 queries/s on a 2-core host) and get most of the time, enough that
/// the nominal tail lands well inside Q4's samples rather than on the
/// edge between Q4 and the next-slowest query. The upper steps approach
/// and then exceed capacity; the top one saturates the server.
const LADDER: [(f64, f64); 5] = [
    (12.0, 5.0),
    (16.0, 5.0),
    (30.0, 1.0),
    (60.0, 1.0),
    (100.0, 1.0),
];
/// Steps whose arrivals give the latency metrics: the rates well under
/// capacity, where latency is service plus ordinary queueing.
const NOMINAL_STEPS: usize = 2;
/// The latency limit a step's tail must meet.
const LIMIT_MS: f64 = 250.0;
/// Interval between reloads of the `Twitter` relation, each with fresh
/// content.
const RELOAD_EVERY_S: f64 = 1.0;
/// Freebase slices the catalog cycles through, one swap every
/// `FREEBASE_EVERY_S`. Q4's cost follows the square of the largest cast in
/// the slice, so a single slice would leave a run's latency tail to its
/// seed; cycling a few pools them, as the reloads pool Twitter graphs.
const FREEBASE_SLICES: usize = 3;
const FREEBASE_EVERY_S: f64 = 3.0;
/// Set-up repetitions; `setup_s` reports their median.
const SETUP_REPS: usize = 3;
/// Load-generator threads: the submitter and the collector.
const GEN_THREADS: usize = 2;

/// One query of the mix, with its Datalog text.
struct MixQuery {
    name: &'static str,
    query: ConjunctiveQuery,
    text: String,
    twitter: bool,
}

fn mix() -> Result<Vec<MixQuery>, String> {
    queries::NAMES
        .iter()
        .map(|&name| {
            let built = queries::build(name).ok_or_else(|| format!("{name} not registered"))?;
            // Sessions receive Datalog text; the parsed query (whose
            // variable numbering can differ from the built one, and with
            // it the output order) is what batch_run must answer.
            let text = built.to_string();
            let query = parser::parse(&text).map_err(|e| format!("{name}: {e}"))?;
            let twitter = query.atoms.iter().any(|a| a.relation == "Twitter");
            Ok(MixQuery {
                name,
                query,
                text,
                twitter,
            })
        })
        .collect()
}

/// Expected answers per catalog content: `twitter[k][q]` for the queries
/// that read Twitter, `freebase[f][q]` for the rest (each Q1–Q8 query
/// reads one of the two datasets).
struct Expected {
    twitter: Vec<Vec<Option<Digest>>>,
    freebase: Vec<Vec<Option<Digest>>>,
}

impl Expected {
    /// Query `q`'s answer with Twitter content `k` and Freebase slice `f`.
    fn get(&self, q: usize, (k, f): (usize, usize)) -> Option<Digest> {
        self.twitter[k][q].or(self.freebase[f][q])
    }
}

/// One submitted query, as the collector sees it.
struct Pending {
    step: usize,
    query: usize,
    due: Instant,
    submitted: Instant,
    ticket: Ticket,
}

/// One answered query.
#[derive(Clone, Copy)]
struct Answer {
    step: usize,
    query: usize,
    done: Instant,
    latency_ms: f64,
    queued_ms: f64,
    exec_ms: f64,
}

#[derive(Default)]
struct Collected {
    answers: Vec<Answer>,
    failed: u64,
    wrong: Vec<String>,
    agg: EngineAgg,
}

/// The seeded arrival schedule, `(due offset s, step, query index)` in
/// due order. Each step holds its rate for its share of `seconds`, with
/// evenly spaced arrivals, each jittered by up to a quarter of the
/// spacing; the mix is dealt in blocks that hold every query once, in
/// seeded order.
/// Independent users would arrive as a Poisson stream, but its bursts make
/// run-to-run figures swing far more than the changes the benchmark must
/// resolve, so arrivals are paced.
fn arrivals(seed: u64, seconds: f64, n_queries: usize) -> Vec<(f64, usize, usize)> {
    let mut rng = SplitMix(derive_seed(seed, 7));
    let mut block: Vec<usize> = Vec::new();
    let mut out = Vec::new();
    for (step, ((start, dur), &(rate, _))) in steps(seconds).into_iter().zip(&LADDER).enumerate() {
        let n = (rate * dur).round() as usize;
        for i in 0..n {
            let jitter = (rng.unit() - 0.5) / 2.0;
            let at = start + (i as f64 + 0.5 + jitter) / rate;
            if block.is_empty() {
                block = (0..n_queries).collect();
                for j in (1..block.len()).rev() {
                    block.swap(j, (rng.next_u64() % (j as u64 + 1)) as usize);
                }
            }
            let q = block.pop().unwrap_or(0);
            out.push((at, step, q));
        }
    }
    out
}

/// `(start s, duration s)` of each ladder step in a run of `seconds`.
fn steps(seconds: f64) -> Vec<(f64, f64)> {
    let total: f64 = LADDER.iter().map(|&(_, w)| w).sum();
    let mut start = 0.0;
    LADDER
        .iter()
        .map(|&(_, w)| {
            let dur = seconds * w / total;
            start += dur;
            (start - dur, dur)
        })
        .collect()
}

/// Sets the serve and generator metrics to zero on workloads without a
/// server.
pub fn record_idle(report: &mut Report) {
    for name in [
        "serve.submit_us",
        "serve.queue_wait_ms",
        "serve.queue_wait_tail_ms",
        "serve.exec_ms",
        "serve.load_ms",
        "serve.shed_frac",
        "bench.gen_lag_ms",
    ] {
        report.set(name, 0.0, 0);
    }
}

/// Generates the catalog contents and starts a server holding the first
/// of each. Returns the server, every Twitter content, every Freebase
/// slice, generation milliseconds and set-up seconds.
fn start_server(seed: u64, contents: usize) -> (Server, Vec<Relation>, Vec<Database>, f64, f64) {
    let t = Instant::now();
    let twitter: Vec<Relation> = (0..contents)
        .map(|k| {
            twitter_graph(
                SCALE.twitter_nodes,
                SCALE.twitter_m,
                derive_seed(seed, 100 + k as u64),
            )
        })
        .collect();
    let freebase: Vec<Database> = (0..FREEBASE_SLICES)
        .map(|f| SCALE.freebase_db(derive_seed(seed, 1 + f as u64)))
        .collect();
    let gen_ms = t.elapsed().as_secs_f64() * 1e3;
    let server = Server::start(ServerConfig {
        workers: WORKERS,
        queue_capacity: 4096,
        session_cap: 8192,
        ..ServerConfig::default()
    });
    server.load("Twitter", twitter[0].clone());
    server.load_db(&freebase[0]);
    (server, twitter, freebase, gen_ms, t.elapsed().as_secs_f64())
}

fn expected(
    server: &Server,
    mix: &[MixQuery],
    twitter: &[Relation],
    freebase: &[Database],
) -> Result<Expected, String> {
    let base = server.snapshot();
    let cluster = server.cluster();
    let cfg = SessionConfig::default();
    let answers = |db: &Database, wanted: &dyn Fn(&MixQuery) -> bool| {
        mix.iter()
            .map(|q| {
                if !wanted(q) {
                    return Ok(None);
                }
                let r = batch_run(&q.query, db, &cluster, &cfg)
                    .map_err(|e| format!("{}: batch_run failed: {e}", q.name))?;
                let out = r
                    .output
                    .ok_or_else(|| format!("{}: batch_run collected no output", q.name))?;
                Ok(Some(Digest::of(&out, r.output_tuples)))
            })
            .collect::<Result<Vec<_>, String>>()
    };
    let twitter = twitter
        .iter()
        .map(|rel| {
            let mut db = (*base.db).clone();
            db.insert("Twitter", rel.clone());
            answers(&db, &|q| q.twitter)
        })
        .collect::<Result<_, _>>()?;
    let freebase = freebase
        .iter()
        .map(|slice| {
            let mut db = (*base.db).clone();
            for (name, rel) in slice.iter() {
                db.insert(name, rel.clone());
            }
            answers(&db, &|q| !q.twitter)
        })
        .collect::<Result<_, _>>()?;
    Ok(Expected { twitter, freebase })
}

/// Runs `serve-reload` into `report`.
pub fn run(args: &Args, report: &mut Report, trace_file: &Path) -> Result<(), String> {
    if GEN_THREADS > crate::nproc() {
        eprintln!(
            "perfbench: WARNING: {GEN_THREADS} load-generator threads exceed nproc = {}",
            crate::nproc()
        );
    }
    let mix = mix()?;
    // Drains between steps stretch the run past `seconds`; Twitter
    // contents run out at one and a half times that, after which the last
    // one stays.
    let contents = (1.5 * args.seconds / RELOAD_EVERY_S).ceil() as usize + 1;

    // Set-up: generation, server start and catalog load, repeated.
    let mut setups = Vec::new();
    let mut gens = Vec::new();
    let mut kept: Option<(Server, Vec<Relation>, Vec<Database>)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((old, _, _)) = kept.take() {
            old.shutdown();
        }
        let (server, twitter, freebase, gen_ms, setup) = start_server(args.seed, contents);
        gens.push(gen_ms);
        setups.push(setup);
        kept = Some((server, twitter, freebase));
    }
    let (server, twitter, freebase) = kept.ok_or("no setup ran")?;

    // Expected answers for every catalog version the run will create
    // (verification, not part of set-up time). Their runs fill the
    // process-wide caches, which are then emptied so reloads find them
    // cold.
    let expected = expected(&server, &mix, &twitter, &freebase)?;
    SortCache::global().clear();
    TrieCache::global().clear();

    let session = server.session(SessionConfig::default());
    // Warm-up: the mix once, answers checked.
    let t = Instant::now();
    for (i, q) in mix.iter().enumerate() {
        let outcome = session
            .submit(&q.text)
            .and_then(Ticket::wait)
            .map_err(|e| format!("warm-up {}: {e}", q.name))?;
        let out = outcome.result.output.as_ref().ok_or("warm-up: no output")?;
        if Some(Digest::of(out, outcome.result.output_tuples)) != expected.get(i, (0, 0)) {
            report.mismatch(format!(
                "warm-up {}: served answer differs from batch_run",
                q.name
            ));
        }
    }
    let warm_s = t.elapsed().as_secs_f64();
    let setup = stats::median(&setups).unwrap_or(0.0) + warm_s;
    report.set("setup_s", setup, SETUP_REPS);
    report.set(
        "datagen.gen_ms",
        stats::median(&gens).unwrap_or(0.0),
        SETUP_REPS,
    );
    println!(
        "setup: {:.3} s (median of {SETUP_REPS} set-ups {:.3} s + warm-up pass {:.3} s)",
        setup,
        stats::median(&setups).unwrap_or(0.0),
        warm_s
    );

    // Catalog version -> (Twitter content, Freebase slice), written before
    // any query can bind to the version.
    let versions: Arc<Mutex<BTreeMap<u64, (usize, usize)>>> = Arc::new(Mutex::new(BTreeMap::from(
        [(server.catalog_version(), (0, 0))],
    )));
    let expected = Arc::new(expected);
    let (tx, rx) = mpsc::channel::<Pending>();
    let trace_on = args.trace;
    // Tickets the collector has finished with, so the submitter can let
    // each step's backlog drain before the next step starts.
    let settled = Arc::new(AtomicUsize::new(0));
    let collector = {
        let settled = Arc::clone(&settled);
        let versions = Arc::clone(&versions);
        let expected = Arc::clone(&expected);
        let names: Vec<&'static str> = mix.iter().map(|q| q.name).collect();
        std::thread::spawn(move || {
            let mut c = Collected::default();
            for p in rx {
                let outcome = p.ticket.wait();
                settled.fetch_add(1, Ordering::SeqCst);
                let outcome = match outcome {
                    Ok(o) => o,
                    Err(e) => {
                        eprintln!("perfbench: FAILED: {}: {e}", names[p.query]);
                        c.failed += 1;
                        continue;
                    }
                };
                let latency = p.submitted.duration_since(p.due) + outcome.latency;
                let content = versions
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .get(&outcome.catalog_version)
                    .copied();
                let got = outcome
                    .result
                    .output
                    .as_ref()
                    .map(|out| Digest::of(out, outcome.result.output_tuples));
                let ok = content.filter(|&c| got.is_some() && got == expected.get(p.query, c));
                if ok.is_none() {
                    c.wrong.push(format!(
                        "{} at catalog v{}: served answer differs from batch_run",
                        names[p.query], outcome.catalog_version
                    ));
                    continue;
                }
                let ms = |d: Duration| d.as_secs_f64() * 1e3;
                let exec_ms = ms(outcome.latency.saturating_sub(outcome.queued));
                if trace_on {
                    c.agg.add_run(&outcome.result, exec_ms);
                }
                c.answers.push(Answer {
                    step: p.step,
                    query: p.query,
                    done: p.submitted + outcome.latency,
                    latency_ms: ms(latency),
                    queued_ms: ms(outcome.queued),
                    exec_ms,
                });
            }
            c
        })
    };

    // The submitter: arrivals on the schedule, steps separated by a drain
    // of the previous step's backlog (so each step's latency is its own),
    // and reloads on the wall clock.
    let schedule = arrivals(args.seed, args.seconds, mix.len());
    let step_starts: Vec<f64> = steps(args.seconds)
        .iter()
        .map(|&(start, _)| start)
        .collect();
    let mut submit_us = Vec::with_capacity(schedule.len());
    let mut lag_ms = Vec::with_capacity(schedule.len());
    let mut load_ms = Vec::new();
    let mut shed = 0u64;
    let mut errors = 0u64;
    let mut per_step = vec![0usize; LADDER.len()];
    let mut next_twitter = 1usize;
    let mut freebase_swaps = 1usize;
    let mut contents_now = (0usize, 0usize);
    let mut sent = 0usize;
    let mut began = vec![None; LADDER.len()];
    let t0 = Instant::now();
    let mut base = t0;
    for &(at, step, qi) in &schedule {
        if began[step].is_none() {
            while settled.load(Ordering::SeqCst) < sent {
                std::thread::sleep(Duration::from_millis(1));
            }
            let now = Instant::now();
            began[step] = Some(now);
            base = now - Duration::from_secs_f64(step_starts[step]);
        }
        let due = base + Duration::from_secs_f64(at);
        loop {
            // The next reload on the wall clock, Twitter first on a tie.
            let tw_at =
                (next_twitter < twitter.len()).then_some(next_twitter as f64 * RELOAD_EVERY_S);
            let fb_at = freebase_swaps as f64 * FREEBASE_EVERY_S;
            let (at_s, is_twitter) = match tw_at {
                Some(tw) if tw <= fb_at => (tw, true),
                _ => (fb_at, false),
            };
            if t0 + Duration::from_secs_f64(at_s) > due {
                break;
            }
            let t = Instant::now();
            let v = if is_twitter {
                contents_now.0 = next_twitter;
                next_twitter += 1;
                server.load("Twitter", twitter[contents_now.0].clone())
            } else {
                contents_now.1 = freebase_swaps % FREEBASE_SLICES;
                freebase_swaps += 1;
                server.load_db(&freebase[contents_now.1])
            };
            load_ms.push(t.elapsed().as_secs_f64() * 1e3);
            versions
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(v, contents_now);
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let submitted = Instant::now();
        lag_ms.push(submitted.duration_since(due).as_secs_f64() * 1e3);
        let res = session.submit(&mix[qi].text);
        submit_us.push(submitted.elapsed().as_secs_f64() * 1e6);
        per_step[step] += 1;
        match res {
            Ok(ticket) => {
                sent += 1;
                let _ = tx.send(Pending {
                    step,
                    query: qi,
                    due,
                    submitted,
                    ticket,
                });
            }
            Err(ServeError::QueueFull { .. } | ServeError::SessionLimit { .. }) => shed += 1,
            Err(e) => {
                eprintln!("perfbench: FAILED: {}: {e}", mix[qi].name);
                errors += 1;
            }
        }
    }
    drop(tx);
    let collected = collector
        .join()
        .map_err(|_| "collector thread panicked".to_string())?;

    report.attempted += schedule.len() as u64;
    report.failed += shed + errors + collected.failed;
    for w in collected.wrong {
        report.mismatch(w);
    }
    let answers = &collected.answers;
    // Queries overlap inside the server, so its memory is the run's
    // heap high-water mark: resident catalog, caches and queries in flight.
    report.set("peak_heap_mb", peak_heap_mb(), 1);
    report.set("bench.peak_rss_mb", peak_rss_mb(), 1);

    if args.trace {
        let mut agg = collected.agg;
        // Served runs cannot be traced; the same mix runs directly with the
        // session's options, untraced then traced, on the final catalog.
        let snapshot = server.snapshot();
        let cluster = server.cluster();
        let mut times = Vec::with_capacity(mix.len());
        for q in &mix {
            let a = advise(&q.query, &snapshot.db, &cluster);
            let mut opts = PlanOptions {
                collect_output: true,
                certify: true,
                ..PlanOptions::default()
            };
            let t = Instant::now();
            run_config(&q.query, &snapshot.db, &cluster, a.shuffle, a.join, &opts)
                .map_err(|e| format!("{}: {e}", q.name))?;
            let untraced = t.elapsed().as_secs_f64() * 1e3;
            opts.trace_path = Some(trace_file.to_path_buf());
            let t = Instant::now();
            run_config(&q.query, &snapshot.db, &cluster, a.shuffle, a.join, &opts)
                .map_err(|e| format!("{}: {e}", q.name))?;
            let traced = t.elapsed().as_secs_f64() * 1e3;
            let text =
                std::fs::read_to_string(trace_file).map_err(|e| format!("reading trace: {e}"))?;
            agg.add_traced(trace::phase_ms(&trace::spans(&text)?), traced, untraced);
            times.push(layers::time_layers(
                &q.query,
                &snapshot.db,
                &cluster,
                a.shuffle,
                a.join,
            )?);
        }
        server.shutdown();
        agg.record(report);
        layers::record(report, &times);
        let queued: Vec<f64> = answers.iter().map(|a| a.queued_ms).collect();
        let exec: Vec<f64> = answers.iter().map(|a| a.exec_ms).collect();
        let med = |xs: &[f64]| stats::median(xs).unwrap_or(0.0);
        report.set("serve.submit_us", med(&submit_us), submit_us.len());
        report.set("serve.queue_wait_ms", med(&queued), queued.len());
        let qt = stats::tail(&queued).map_or(0.0, |t| t.value);
        report.set("serve.queue_wait_tail_ms", qt, queued.len());
        report.set("serve.exec_ms", med(&exec), exec.len());
        report.set("serve.load_ms", med(&load_ms), load_ms.len());
        report.set(
            "serve.shed_frac",
            shed as f64 / schedule.len().max(1) as f64,
            schedule.len(),
        );
        report.set(
            "bench.gen_lag_ms",
            stats::mean(&lag_ms).unwrap_or(0.0),
            lag_ms.len(),
        );
        report.set("dist.connect_ms", 0.0, 0);
        return Ok(());
    }
    server.shutdown();

    // Per step: does its tail meet the limit, with no growing backlog
    // (the median of its last ten arrivals within the limit)?
    for (step, &(offered, _)) in LADDER.iter().enumerate() {
        let lat: Vec<f64> = answers
            .iter()
            .filter(|a| a.step == step)
            .map(|a| a.latency_ms)
            .collect();
        let tail =
            stats::tail(&lat).map_or_else(|| lat.iter().copied().fold(0.0, f64::max), |t| t.value);
        let last: Vec<f64> = lat.iter().rev().take(10).copied().collect();
        let last = stats::median(&last).unwrap_or(0.0);
        let meets = lat.len() == per_step[step] && tail.max(last) <= LIMIT_MS;
        println!(
            "step {step}: {offered} qps offered, {} of {} answered, tail {tail:.3} ms, \
             last-10 median {last:.3} ms -> {}",
            lat.len(),
            per_step[step],
            if meets { "meets" } else { "misses" },
        );
    }
    // The highest rate served without a growing backlog is the rate the
    // saturated top step completed queries at: from its first arrival
    // until its backlog drained, the server never idled.
    let top = LADDER.len() - 1;
    let top_done = answers.iter().filter(|a| a.step == top);
    let last_done = top_done.clone().map(|a| a.done).max();
    let max_rate = match (began[top], last_done) {
        (Some(start), Some(end)) if end > start => {
            top_done.count() as f64 / end.duration_since(start).as_secs_f64()
        }
        _ => return Err("the top ladder step answered nothing".into()),
    };
    println!("saturated completion rate {max_rate:.3} qps");

    let nominal: Vec<&Answer> = answers.iter().filter(|a| a.step < NOMINAL_STEPS).collect();
    let mut medians = Vec::new();
    for (qi, q) in mix.iter().enumerate() {
        let lat: Vec<f64> = nominal
            .iter()
            .filter(|a| a.query == qi)
            .map(|a| a.latency_ms)
            .collect();
        let m = stats::median(&lat).ok_or_else(|| format!("{}: never answered", q.name))?;
        println!(
            "query {} median {:.3} ms over {} answers",
            q.name,
            m,
            lat.len()
        );
        medians.push(m);
    }
    let pooled: Vec<f64> = nominal.iter().map(|a| a.latency_ms).collect();
    report.set(
        "query_gm_ms",
        stats::geomean(&medians).ok_or("no medians")?,
        pooled.len(),
    );
    let tail = stats::tail(&pooled).ok_or("fewer than 11 answers at nominal rates")?;
    println!(
        "latency tail (steps below {NOMINAL_STEPS}): p{:.2} = {:.3} ms ({TAIL_BEYOND} of {} samples beyond)",
        tail.percentile, tail.value, tail.samples
    );
    report.set("latency_tail_ms", tail.value, tail.samples);
    // Per second of offered load: the drains between steps are not part
    // of any step.
    let within = answers.iter().filter(|a| a.latency_ms <= LIMIT_MS).count();
    report.set("goodput_qps", within as f64 / args.seconds, within);
    report.set("max_rate_qps", max_rate, per_step[top]);
    report.set(
        "answered_frac",
        answers.len() as f64 / schedule.len().max(1) as f64,
        schedule.len(),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_seeded_paced_and_balanced() {
        let a = arrivals(5, 2.0, 8);
        assert_eq!(a, arrivals(5, 2.0, 8));
        assert_ne!(a, arrivals(6, 2.0, 8));
        assert!(a.windows(2).all(|w| w[0].0 < w[1].0));
        for (step, (&(rate, _), (_, dur))) in LADDER.iter().zip(steps(2.0)).enumerate() {
            let n = a.iter().filter(|x| x.1 == step).count();
            assert_eq!(n, (rate * dur).round() as usize);
        }
        // Every block of eight arrivals holds each query once.
        for chunk in a.chunks_exact(8) {
            let mut qs: Vec<usize> = chunk.iter().map(|x| x.2).collect();
            qs.sort_unstable();
            assert_eq!(qs, (0..8).collect::<Vec<_>>());
        }
    }
}
